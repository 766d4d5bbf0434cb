//! The paper's figures: 1(a)–(c), 7, 8, 12–16.

use crate::{flagship_speedup, log_label, Size, CACHES_KB};
use ironman_bench::{f2, f3, header, pct, row, times};
use ironman_core::engine::spcot_aes_equiv_ops;
use ironman_core::speedup::speedup_cell;
use ironman_ggm::Arity;
use ironman_nmp::dimm::{simulate_spcot, SpcotWork};
use ironman_nmp::schedule::{simulate, ExpansionSchedule, PipelineModel};
use ironman_nmp::{NmpConfig, OteSimulator, OteWork, Role};
use ironman_ot::channel::run_protocol;
use ironman_ot::dealer::Dealer;
use ironman_ot::params::FerretParams;
use ironman_ot::spcot::SpcotConfig;
use ironman_ot::spcot_batch::{spcot_batch_recv_into, spcot_batch_send_into};
use ironman_perf::roofline::{lpn_ops, lpn_traffic_bytes, spcot_traffic_bytes};
use ironman_perf::{CpuModel, NetworkModel, OteWorkload, Roofline};
use ironman_ppml::matmul::FIG16_DIMS;
use ironman_ppml::nonlinear::FIG15_PROFILES;
use ironman_ppml::zoo::FIG1A_EXTRA;
use ironman_ppml::TABLE5_WORKLOADS;
use ironman_prg::{Block, PrgKind};

/// AES-equivalent PRG operations of one tree of the CPU baseline
/// (binary trees, AES), which Fig. 1(b) and 1(c) both start from.
fn baseline_tree_ops(p: &FerretParams) -> u64 {
    spcot_aes_equiv_ops(2, p.leaves)
}

/// **Figure 1(a)**: execution-time breakdown per PPML framework and
/// model — the motivating observation that OT extension consumes 51–69%
/// of end-to-end private inference.
pub fn fig01_breakdown(_: Size) {
    header(
        "Fig. 1(a): execution-time breakdown",
        &["framework", "model", "other", "HE", "OTE", "comm"],
    );
    let mut min_ote = f64::MAX;
    let mut max_ote: f64 = 0.0;
    for w in TABLE5_WORKLOADS.iter().chain(FIG1A_EXTRA.iter()) {
        let [other, he, ote, comm] = w.breakdown();
        min_ote = min_ote.min(ote);
        max_ote = max_ote.max(ote);
        row(&[
            w.framework.to_string(),
            w.model.to_string(),
            pct(other),
            pct(he),
            pct(ote),
            pct(comm),
        ]);
    }
    println!(
        "\nOT extension accounts for {} to {} of execution time (paper: 51%-69%)",
        pct(min_ote),
        pct(max_ote)
    );
}

/// **Figure 1(b)**: Ferret protocol latency split (Init / SPCOT / LPN)
/// per Table 4 parameter set on the CPU baseline.
pub fn fig01_latency_split(_: Size) {
    let cpu = CpuModel::xeon_single_thread();
    header(
        "Fig. 1(b): CPU Ferret latency split (s)",
        &["#OTs", "init", "SPCOT", "LPN", "total"],
    );
    for p in FerretParams::TABLE4 {
        let w = OteWorkload::from_counts(p.t as u64, baseline_tree_ops(&p), p.n as u64, 10);
        let l = cpu.execution_latency(&w, true);
        row(&[
            log_label(&p),
            f2(l.init_s),
            f2(l.spcot_s),
            f2(l.lpn_s),
            f2(l.total_s()),
        ]);
    }
    println!("\nshape check: SPCOT+LPN dominate and grow with the OT count (Fig. 1b)");
}

/// **Figure 1(c)**: the roofline placing SPCOT above the ridge
/// (compute-bound) and LPN far below it (memory-bandwidth-bound).
pub fn fig01_roofline(_: Size) {
    let r = Roofline::xeon_5220r();
    println!(
        "peak {} GAES/s, mem {} GB/s, ridge {:.4} AES/byte",
        r.peak_ops_per_s / 1e9,
        r.mem_bw_bytes_per_s / 1e9,
        r.ridge_intensity()
    );
    header(
        "Fig. 1(c): roofline points",
        &["kernel", "#OTs", "AES/byte", "GAES/s", "bound"],
    );
    let point = |kernel: &str, p: &FerretParams, ops: f64, bytes: f64| {
        let pt = r.point(ops, bytes);
        row(&[
            kernel.to_string(),
            log_label(p),
            f3(pt.intensity),
            f3(pt.attainable_ops_per_s / 1e9),
            if pt.compute_bound {
                "compute"
            } else {
                "memory"
            }
            .to_string(),
        ]);
    };
    for p in FerretParams::TABLE4 {
        let ops = p.t as u64 * baseline_tree_ops(&p);
        point("SPCOT", &p, ops as f64, spcot_traffic_bytes(ops));
    }
    for p in FerretParams::TABLE4 {
        let n = p.n as u64;
        point("LPN", &p, lpn_ops(n, 10), lpn_traffic_bytes(n, 10));
    }
}

/// **Figure 7**: m-ary tree sweep — PRG operations (a), online
/// communication (b), and WAN/LAN latency (c) as functions of the tree
/// arity. Operation and byte counts are *measured* from real protocol
/// executions, then scaled to the 2^20 parameter set.
pub fn fig07_mary(_: Size) {
    let p = FerretParams::OT_2POW20;
    header(
        "Fig. 7: m-ary sweep (2^20 set, ChaCha8 PRG)",
        &["m", "ops x1e7", "red. vs 2", "comm MB", "WAN ms", "LAN ms"],
    );
    let (mut ops_m2, mut wan_m2) = (0.0f64, 0.0f64);
    for arity in Arity::SWEEP {
        let cfg = SpcotConfig {
            arity,
            prg: PrgKind::CHACHA8,
            leaves: p.leaves,
            session_key: Block::from(7u128),
        };
        // One real one-tree SPCOT: measure PRG calls and bytes on the wire.
        let mut dealer = Dealer::new(arity.get() as u64);
        let delta = dealer.random_delta();
        let (mut sb, mut rb) = dealer.deal_cot(delta, cfg.base_cots_needed());
        let seed = dealer.random_block();
        let (calls, (), s_stats, r_stats) = run_protocol(
            move |ch| {
                let mut calls = 0;
                spcot_batch_send_into(ch, &cfg, &mut sb, &[seed], &mut 0, |_, _, c| {
                    calls = c.total();
                })
                .unwrap();
                calls
            },
            move |ch| {
                spcot_batch_recv_into(ch, &cfg, &mut rb, &[1234], &mut 0, |_, _, _, _| {}).unwrap()
            },
        );
        // Scale to the whole execution: t trees share the one exchange, so
        // calls and bytes grow with t and the round count does not.
        let ops = calls as f64 * p.t as f64;
        let bytes = (s_stats.bytes_sent + r_stats.bytes_sent) * p.t as u64;
        let rounds = s_stats.rounds + r_stats.rounds + 1;
        let wan = NetworkModel::WAN.protocol_time_s(bytes, rounds);
        let lan = NetworkModel::LAN.protocol_time_s(bytes, rounds);
        if arity == Arity::BINARY {
            (ops_m2, wan_m2) = (ops, wan);
        }
        row(&[
            arity.get().to_string(),
            f3(ops / 1e7),
            times(ops_m2 / ops),
            f2(bytes as f64 / 1e6),
            f2(wan * 1e3),
            f3(lan * 1e3),
        ]);
    }
    println!(
        "\nshape check (paper Fig. 7): ops fall ~3x from m=2 to m=4 and saturate (~3.9x at 32);"
    );
    println!(
        "communication grows with m, so bandwidth-limited (WAN) latency degrades for large m."
    );
    println!(
        "SPCOT is one round trip, so our WAN column rises with m from m=2 ({:.1} ms).",
        wan_m2 * 1e3
    );
    println!("The paper picks m=4 on PRG ops; the m=2 < m=4 WAN order is ours, not the paper's.");
}

/// **Figure 8**: GGM expansion schedules on the 8-stage ChaCha pipeline —
/// depth-first bubbles vs. the hybrid strategy's full utilization, plus
/// the buffer cost of pure breadth-first.
pub fn fig08_schedule(_: Size) {
    header(
        "Fig. 8: expansion schedules (4 trees, 4-ary, l=1024, ChaCha8)",
        &["schedule", "cycles", "calls", "bubbles", "util", "peak buf"],
    );
    for s in ExpansionSchedule::ALL {
        let r = simulate(s, PipelineModel::CHACHA8, 4, Arity::QUAD, 1024);
        row(&[
            s.to_string(),
            r.cycles.to_string(),
            r.calls.to_string(),
            r.bubbles.to_string(),
            pct(r.utilization()),
            r.peak_buffer.to_string(),
        ]);
    }

    header(
        "hybrid utilization vs in-flight trees (100% target, paper 4.3)",
        &["trees", "util", "cycles"],
    );
    for trees in [1usize, 2, 4, 8, 16, 32] {
        let r = simulate(
            ExpansionSchedule::Hybrid,
            PipelineModel::CHACHA8,
            trees,
            Arity::QUAD,
            1024,
        );
        row(&[
            trees.to_string(),
            pct(r.utilization()),
            r.cycles.to_string(),
        ]);
    }
}

/// **Figure 12**: OTE latency on CPU, GPU and Ironman across memory
/// configurations (2–16 ranks × 256 KB/1 MB caches) and Table 4 parameter
/// sets, normalized to the CPU baseline.
pub fn fig12_ote_speedup(size: Size) {
    for &cache in size.take(&[256 * 1024usize, 1024 * 1024], 1) {
        header(
            &format!("Fig. 12: OTE latency & speedup, {} KB cache", cache / 1024),
            &[
                "ranks", "#OTs", "iron ms", "cpu ms", "gpu ms", "vs CPU", "vs GPU", "hit",
            ],
        );
        let mut band: (f64, f64) = (f64::MAX, 0.0);
        for &ranks in size.take(&[2usize, 4, 8, 16], 1) {
            for &p in size.take(&FerretParams::TABLE4, 1) {
                let c = speedup_cell(p, ranks, cache, 0xF16);
                let s = c.speedup_vs_cpu();
                band.0 = band.0.min(s);
                band.1 = band.1.max(s);
                row(&[
                    ranks.to_string(),
                    format!("2^{}", c.log_target),
                    f2(c.ironman_ms),
                    f2(c.cpu_ms),
                    f2(c.gpu_ms),
                    times(s),
                    times(c.speedup_vs_gpu()),
                    f2(c.cache_hit_rate),
                ]);
            }
        }
        println!(
            "\nspeedup band at {} KB: {:.2}x - {:.2}x (paper: {})",
            cache / 1024,
            band.0,
            band.1,
            if cache == 256 * 1024 {
                "3.66x - 39.26x"
            } else {
                "5.03x - 237.04x"
            }
        );
    }
}

/// **Figure 13**: (a) the m-ary × PRG ablation of SPCOT latency and (b)
/// SPCOT vs. LPN latency across rank counts.
pub fn fig13_ablation(size: Size) {
    let p = FerretParams::OT_2POW20;
    let combos = [
        (Arity::BINARY, PrgKind::Aes, "2-ary", "AES"),
        (Arity::QUAD, PrgKind::Aes, "4-ary", "AES"),
        (Arity::BINARY, PrgKind::CHACHA8, "2-ary", "ChaCha"),
        (Arity::QUAD, PrgKind::CHACHA8, "4-ary", "ChaCha"),
    ];
    let spcot_cycles = |cfg: &NmpConfig, arity, prg| {
        let work = SpcotWork {
            trees: p.t,
            leaves: p.leaves,
            arity,
            prg,
            role: Role::Sender,
        };
        simulate_spcot(cfg, &work).cycles
    };

    let cfg = NmpConfig::with_ranks_and_cache(8, 256 * 1024);
    header(
        "Fig. 13(a): SPCOT ablation (2^20 set, 8 ranks)",
        &["tree", "PRG", "cycles", "ms", "gain"],
    );
    let mut base_cycles = 0u64;
    for (arity, prg, tname, pname) in combos {
        let cycles = spcot_cycles(&cfg, arity, prg);
        if base_cycles == 0 {
            base_cycles = cycles;
        }
        row(&[
            tname.to_string(),
            pname.to_string(),
            cycles.to_string(),
            f2(cfg.cycles_to_ms(cycles)),
            times(base_cycles as f64 / cycles as f64),
        ]);
    }
    println!("(paper: 4-ary/AES 1.5x, 2-ary/ChaCha 2x, 4-ary/ChaCha 6x)");

    header(
        "Fig. 13(b): SPCOT vs LPN latency across ranks (ms)",
        &["ranks", "2ary-AES", "4ary-AES", "2ary-CC", "4ary-CC", "LPN"],
    );
    for &ranks in size.take(&[2usize, 4, 8, 16], 1) {
        let c = NmpConfig::with_ranks_and_cache(ranks, 256 * 1024);
        let mut cells = vec![ranks.to_string()];
        for (arity, prg, _, _) in combos {
            cells.push(f2(c.cycles_to_ms(spcot_cycles(&c, arity, prg))));
        }
        let work = OteWork::ironman(p.n, p.leaves, p.t, p.k, 10);
        let rep = OteSimulator::new(c).simulate(&work, 1);
        cells.push(f2(c.cycles_to_ms(rep.lpn_cycles)));
        row(&cells);
    }
    println!(
        "\nshape check: 4-ary ChaCha SPCOT stays below LPN; AES variants are the slowest SPCOTs"
    );
}

/// **Figure 14**: memory-side cache capacity sweep — normalized LPN
/// latency and cache hit rate per parameter set, plus the average hit
/// rate / SRAM area trade-off that picks 256 KB and 1 MB.
pub fn fig14_cache(size: Size) {
    let sets = size.take(&FerretParams::TABLE4[..4], 1);
    let caches_kb = size.take(&CACHES_KB, 2);
    let mut avg_hit = vec![0.0f64; caches_kb.len()];

    for p in sets {
        header(
            &format!("Fig. 14(a): cache sweep, output size 2^{}", p.log_target),
            &["cache KB", "lpn cyc", "norm lat", "hit rate"],
        );
        let mut base = 0u64;
        for (ci, &kb) in caches_kb.iter().enumerate() {
            let cfg = NmpConfig::with_ranks_and_cache(16, kb * 1024);
            let sim = OteSimulator::new(cfg);
            let work = OteWork::ironman(p.n, p.leaves, p.t, p.k, 10);
            let r = sim.simulate(&work, 14);
            if base == 0 {
                base = r.lpn_cycles;
            }
            avg_hit[ci] += r.cache_hit_rate / sets.len() as f64;
            row(&[
                kb.to_string(),
                r.lpn_cycles.to_string(),
                f3(r.lpn_cycles as f64 / base as f64),
                pct(r.cache_hit_rate),
            ]);
        }
    }

    header(
        "Fig. 14(b): average hit rate vs SRAM area",
        &["cache KB", "avg hit", "area mm2"],
    );
    for (&kb, &hit) in caches_kb.iter().zip(&avg_hit) {
        row(&[
            kb.to_string(),
            pct(hit),
            f2(ironman_nmp::cache::sram_area_mm2(kb * 1024)),
        ]);
    }
    println!("\nshape check: hit rate saturates while area keeps growing; 256KB/1MB are the knees");
}

/// **Figure 15**: nonlinear-operator latency (LayerNorm, GeLU, Softmax,
/// ReLU) in EzPC-SiRNN and Bolt, with and without Ironman.
pub fn fig15_nonlinear(_: Size) {
    let s = flagship_speedup(15);
    println!("measured OT-extension speedup (16 ranks, 1MB): {s:.1}x");

    header(
        "Fig. 15: nonlinear operators",
        &["framework", "op", "base s", "ours s", "reduction"],
    );
    let mut min_r = f64::MAX;
    let mut max_r: f64 = 0.0;
    for p in &FIG15_PROFILES {
        let r = p.reduction(s);
        min_r = min_r.min(r);
        max_r = max_r.max(r);
        row(&[
            p.framework.to_string(),
            p.op.name().to_string(),
            f2(p.base_s),
            f2(p.accelerated_s(s)),
            times(r),
        ]);
    }
    println!("\nreduction band: {min_r:.2}x - {max_r:.2}x (paper: 3.9x - 4.4x)");
}

/// **Figure 16**: OT-based MatMul communication and latency with vs.
/// without the unified (role-switching) architecture.
pub fn fig16_matmul(_: Size) {
    header(
        "Fig. 16: OT-based MatMul with/without unified architecture",
        &[
            "dims",
            "comm w/o MB",
            "comm w/ MB",
            "norm",
            "lat red LAN",
            "lat red WAN",
        ],
    );
    for d in FIG16_DIMS {
        let without = d.comm_without_unified_bytes();
        let with = d.comm_with_unified_bytes();
        row(&[
            format!("({},{},{})", d.input, d.hidden, d.output),
            f2(without as f64 / 1e6),
            f2(with as f64 / 1e6),
            pct(with as f64 / without as f64),
            times(d.latency_reduction(&NetworkModel::LAN)),
            times(d.latency_reduction(&NetworkModel::WAN)),
        ]);
    }
    println!(
        "\nshape check: 2x communication reduction, ~1.4x LAN latency reduction (paper Fig. 16)"
    );
}
