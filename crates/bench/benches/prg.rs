//! Criterion microbenchmarks for the PRG primitives (Table 2's software
//! counterpart): AES-128 block encryption (single and bulk, on the tier the
//! process dispatched to), ChaCha8/20 block function, and the
//! correlation-robust hash.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ironman_prg::{Aes128, AesTier, Block, ChaCha, Crhf};
use std::hint::black_box;
use std::time::Duration;

fn bench_prg(c: &mut Criterion) {
    let mut g = c.benchmark_group("prg");
    g.sample_size(20)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200));

    let aes = Aes128::new(Block::from(1u128));
    g.throughput(Throughput::Bytes(16));
    // Labelled with the tier that ran (`IRONMAN_SIMD=scalar` forces the
    // portable one). The first row chains each output into the next input
    // — the cipher's latency; the second is 64 independent blocks — its
    // throughput, what the LPN index stream pays.
    let tier = format!("{:?}", AesTier::detect()).to_lowercase();
    g.bench_function(format!("aes128_block_{tier}"), |b| {
        let mut x = Block::from(7u128);
        b.iter(|| {
            x = aes.encrypt_block(black_box(x));
            x
        })
    });
    g.throughput(Throughput::Bytes(64 * 16));
    g.bench_function(format!("aes128_blocks64_{tier}"), |b| {
        let mut xs = [Block::from(7u128); 64];
        b.iter(|| {
            aes.encrypt_blocks(black_box(&mut xs));
            xs[0]
        })
    });

    for rounds in [8u32, 20] {
        let cc = ChaCha::from_session_key(Block::from(2u128), rounds);
        g.throughput(Throughput::Bytes(64));
        g.bench_function(format!("chacha{rounds}_block"), |b| {
            let mut x = Block::from(9u128);
            b.iter(|| {
                let out = cc.expand_block(black_box(x));
                x = out[0];
                x
            })
        });
    }

    let h = Crhf::new();
    g.throughput(Throughput::Bytes(16));
    g.bench_function("crhf_hash", |b| {
        let mut x = Block::from(3u128);
        b.iter(|| {
            x = h.hash(5, black_box(x));
            x
        })
    });
    g.finish();
}

criterion_group!(benches, bench_prg);
criterion_main!(benches);
