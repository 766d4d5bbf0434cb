//! Criterion benchmarks for the LPN encoder, plain vs. index-sorted
//! (the software counterpart of §5.3's locality argument: the sorted
//! matrix touches memory more coherently, which shows up as wall-clock
//! even on a CPU).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ironman_lpn::sorting::SortConfig;
use ironman_lpn::{encoder, LpnMatrix, PackedBits, SortedLpnMatrix};
use ironman_prg::Block;
use std::hint::black_box;
use std::time::Duration;

const N: usize = 32_768;
const K: usize = 65_536;

fn bench_lpn(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpn_encode");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));
    g.throughput(Throughput::Elements(N as u64));

    let matrix = LpnMatrix::generate(N, K, 10, Block::from(1u128));
    let sorted = SortedLpnMatrix::sort(&matrix, SortConfig::default());
    let input: Vec<Block> = (0..K as u128).map(|i| Block::from(i * 7 + 1)).collect();

    g.bench_function("plain_csr", |b| {
        b.iter(|| {
            let mut acc = vec![Block::ZERO; N];
            encoder::encode_blocks(&matrix, black_box(&input), &mut acc);
            acc[0]
        })
    });
    g.bench_function("sorted_csr", |b| {
        b.iter(|| {
            let mut acc = vec![Block::ZERO; N];
            sorted.encode_blocks(black_box(&input), &mut acc);
            acc[0]
        })
    });
    g.bench_function("bits_packed", |b| {
        let bools: Vec<bool> = (0..K).map(|i| i % 3 == 0).collect();
        let bits = PackedBits::from_bools(&bools);
        b.iter(|| {
            let mut acc = PackedBits::zeros(N);
            encoder::encode_bits_packed(&matrix, black_box(&bits), &mut acc);
            acc.get(0)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_lpn);
criterion_main!(benches);
