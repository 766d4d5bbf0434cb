//! The paper's tables: 2–6.

use crate::{flagship_speedup, log_label, Size, CACHES_KB};
use ironman_bench::{f2, f3, header, pct, row, times};
use ironman_nmp::dram::DramConfig;
use ironman_ot::params::FerretParams;
use ironman_perf::area_power::{
    nmp_cost_for_cache, AES_CORE, CHACHA8_CORE, DRAM_CHIP, NMP_1MB, NMP_256KB,
};
use ironman_ppml::e2e::{reproduce_table5, SpeedupAssumptions};
use ironman_prg::{Aes128, AesTier, Block, ChaCha, ChaChaTreePrg, LevelTier, TreePrg};
use std::time::Instant;

/// **Table 2**: PRG hardware comparison (area, perf/area, power,
/// power/block), plus a functional throughput cross-check of the software
/// implementations.
pub fn tab02_prg(size: Size) {
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

    // Software sanity: blocks produced per second by each primitive, each
    // timed both ways it is called — one block at a time (latency: AES in
    // `Crhf::hash` and `level_seed`, ChaCha8 through the scalar block
    // function) and in bulk (throughput: AES for the LPN index stream,
    // ChaCha8 a GGM level through the level kernel) — on the tier this
    // process dispatched to.
    let aes = Aes128::new(Block::from(1u128));
    let n = match size {
        Size::Full => 200_000u128,
        Size::Smallest => 2_000,
    };
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

    // A 1024-parent fanout-4 level (the next-to-last of OT_2POW20's quad
    // tree), as many levels as the scalar loop made calls.
    let prg = ChaChaTreePrg::from(chacha);
    let parents: Vec<Block> = (0..1024u128).map(Block::from).collect();
    let mut children = vec![Block::ZERO; 4 * parents.len()];
    let levels = n / 1024 + 1;
    let t0 = Instant::now();
    for _ in 0..levels {
        prg.expand_level(&parents, 4, &mut children);
        acc ^= children[0];
    }
    let chacha_level_rate = (levels * 4096) as f64 / t0.elapsed().as_secs_f64();
    println!(
        "\n(software check, not the ASIC numbers: AES [{:?} tier] {aes_rate:.0} blocks/s one at a time, \
         {aes_bulk_rate:.0} blocks/s through encrypt_blocks; ChaCha8 {chacha_rate:.0} blocks/s \
         through the scalar block function, [{:?} tier] {chacha_level_rate:.0} blocks/s through \
         expand_level; checksum {acc})",
        AesTier::detect(),
        LevelTier::detect()
    );
}

/// **Table 3**: the simulated system configuration.
pub fn tab03_config(_: Size) {
    let cfg = DramConfig::ddr4_2400();
    let t = cfg.timing;
    header("Table 3: system configuration", &["parameter", "value"]);
    row(&["DRAM", "DDR4-2400"]);
    row(&["channels*dimms".to_string(), "4 x 2 x 2 ranks".to_string()]);
    row(&["scheduler".to_string(), "FR-FCFS".to_string()]);
    row(&["banks/rank".to_string(), cfg.banks().to_string()]);
    row(&["row bytes".to_string(), cfg.row_bytes.to_string()]);
    row(&["clock MHz".to_string(), f2(cfg.clock_mhz)]);
    for (name, v) in [
        ("tRCD", t.t_rcd),
        ("tCL", t.t_cl),
        ("tRP", t.t_rp),
        ("tRC", t.t_rc),
        ("tRRD_S", t.t_rrd_s),
        ("tRRD_L", t.t_rrd_l),
        ("tFAW", t.t_faw),
        ("tCCD_S", t.t_ccd_s),
        ("tCCD_L", t.t_ccd_l),
        ("tBL", t.t_bl),
    ] {
        row(&[name.to_string(), v.to_string()]);
    }
    row(&["peak GB/s/rank".to_string(), f2(cfg.peak_bandwidth_gbps())]);
}

/// **Table 4**: the PCG-style OT-extension parameter sets with their
/// bit-security estimates, side by side with the paper's reported values.
pub fn tab04_params(_: Size) {
    header(
        "Table 4: OT-extension parameter sets",
        &["#OTs", "n", "l", "k", "t", "sec(est)", "sec(paper)"],
    );
    let paper = [139.8, 141.8, 132.3, 130.2, 135.4];
    for (p, &rep) in FerretParams::TABLE4.iter().zip(paper.iter()) {
        p.validate().expect("Table 4 row must validate");
        row(&[
            log_label(p),
            p.n.to_string(),
            p.leaves.to_string(),
            p.k.to_string(),
            p.t.to_string(),
            f2(p.security_bits()),
            f2(rep),
        ]);
    }
    println!("\nsecurity estimate: Pooled-Gauss cost -k*log2(1-t/n) + 2.8*log2(k)");
}

/// **Table 5**: end-to-end PPML inference latency under two network
/// settings, composing the paper's measured baselines with the
/// OT-extension speedup measured from this workspace's NMP simulator.
pub fn tab05_e2e(_: Size) {
    let hw = flagship_speedup(5);
    let assumptions = SpeedupAssumptions {
        hardware: hw,
        ..SpeedupAssumptions::default()
    };
    println!("measured hardware OTE speedup: {hw:.1}x (flagship config)");

    header(
        "Table 5: end-to-end latency (s)",
        &[
            "framework",
            "model",
            "baseWAN",
            "oursWAN",
            "spdW",
            "baseLAN",
            "oursLAN",
            "spdL",
            "dev",
        ],
    );
    let rows = reproduce_table5(&assumptions);
    let mut mean_dev = 0.0;
    for r in &rows {
        let (sw, sl) = r.speedups();
        let (dw, dl) = r.deviation_vs_paper();
        mean_dev += (dw + dl) / 2.0 / rows.len() as f64;
        row(&[
            r.workload.framework.to_string(),
            r.workload.model.to_string(),
            f2(r.workload.base_wan_s),
            f2(r.ours_wan_s),
            times(sw),
            f2(r.workload.base_lan_s),
            f2(r.ours_lan_s),
            times(sl),
            pct((dw + dl) / 2.0),
        ]);
    }
    println!(
        "\nmean deviation vs paper-reported latencies: {}",
        pct(mean_dev)
    );
    println!("paper bands: WAN 1.32x-1.83x, LAN 1.95x-3.40x");
}

/// **Table 6**: the Ironman-NMP design overhead.
pub fn tab06_area_power(_: Size) {
    header(
        "Table 6: design overhead of Ironman-NMP",
        &["component", "area mm2", "power W"],
    );
    row(&[
        "ChaCha8 core".to_string(),
        f3(CHACHA8_CORE.area_mm2),
        f3(CHACHA8_CORE.power_mw / 1000.0),
    ]);
    row(&[
        "NMP (256KB)".to_string(),
        f3(NMP_256KB.area_mm2),
        f3(NMP_256KB.power_w),
    ]);
    row(&[
        "NMP (1MB)".to_string(),
        f3(NMP_1MB.area_mm2),
        f3(NMP_1MB.power_w),
    ]);
    row(&[
        "DRAM chip".to_string(),
        f2(DRAM_CHIP.area_mm2),
        f2(DRAM_CHIP.power_w),
    ]);

    header(
        "interpolated PU cost per cache size (Fig. 14 area axis)",
        &["cache KB", "area mm2"],
    );
    for kb in CACHES_KB {
        row(&[kb.to_string(), f3(nmp_cost_for_cache(kb * 1024).area_mm2)]);
    }
    println!(
        "\narea share of a typical DRAM chip: {:.1}% (256KB) / {:.1}% (1MB)",
        100.0 * NMP_256KB.area_mm2 / DRAM_CHIP.area_mm2,
        100.0 * NMP_1MB.area_mm2 / DRAM_CHIP.area_mm2
    );
}
