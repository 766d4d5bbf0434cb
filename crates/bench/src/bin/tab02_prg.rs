//! Regenerates **Table 2**: PRG hardware comparison (area, perf/area,
//! power, power/block), plus a functional throughput cross-check of the
//! software implementations.

use ironman_bench::{f2, f3, header, row};
use ironman_perf::area_power::{AES_CORE, CHACHA8_CORE};
use ironman_prg::{Aes128, AesTier, Block, ChaCha};
use std::time::Instant;

fn main() {
    header(
        "Table 2: PRG comparison",
        &[
            "PRG",
            "out bits",
            "area mm2",
            "perf/area",
            "power mW",
            "pwr/blk gain",
        ],
    );
    for core in [AES_CORE, CHACHA8_CORE] {
        row(&[
            core.name.to_string(),
            core.output_bits.to_string(),
            f3(core.area_mm2),
            f3(core.perf_per_area_vs(&AES_CORE)),
            f2(core.power_mw),
            f3(core.power_per_block_gain_vs(&AES_CORE)),
        ]);
    }

    // Software sanity: blocks produced per second by each primitive. AES
    // is timed both ways it is called — one block at a time (latency:
    // `Crhf::hash`, `level_seed`) and in bulk (throughput: the LPN index
    // stream) — on the tier this process dispatched to.
    let aes = Aes128::new(Block::from(1u128));
    let n = 200_000u128;
    let t0 = Instant::now();
    let mut acc = Block::ZERO;
    for i in 0..n {
        acc ^= aes.encrypt_block(Block::from(i));
    }
    let aes_rate = n as f64 / t0.elapsed().as_secs_f64();

    let mut batch: Vec<Block> = (0..n).map(Block::from).collect();
    let t0 = Instant::now();
    aes.encrypt_blocks(&mut batch);
    let aes_bulk_rate = n as f64 / t0.elapsed().as_secs_f64();
    acc ^= Block::xor_all(batch);

    let chacha = ChaCha::from_session_key(Block::from(1u128), 8);
    let t0 = Instant::now();
    for i in 0..n {
        let out = chacha.expand_block(Block::from(i));
        acc ^= out[0];
    }
    let chacha_rate = 4.0 * n as f64 / t0.elapsed().as_secs_f64();
    println!(
        "\n(software check, not the ASIC numbers: AES [{:?} tier] {aes_rate:.0} blocks/s one at a time, \
         {aes_bulk_rate:.0} blocks/s through encrypt_blocks; ChaCha8 (scalar block function) \
         {chacha_rate:.0} blocks/s; checksum {acc})",
        AesTier::detect()
    );
}
