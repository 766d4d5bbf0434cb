//! Cross-checks between the timing models and the functional layer, plus
//! coarse calibration guards that keep the reproduced figures in the
//! paper's qualitative bands.

use ironman_core::speedup::{speedup_cell, speedup_table};
use ironman_core::{Backend, Engine, Timing};
use ironman_ggm::Arity;
use ironman_lpn::LpnMatrix;
use ironman_nmp::cache::{Cache, CacheConfig};
use ironman_nmp::dram::{DramConfig, RankSim, Request};
use ironman_nmp::rank_lpn::{simulate_rank, LpnWork};
use ironman_nmp::schedule::{simulate, ExpansionSchedule, PipelineModel};
use ironman_nmp::{NmpConfig, OteSimulator, OteWork, Role};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use ironman_perf::CpuModel;
use ironman_ppml::e2e::{reproduce_table5, SpeedupAssumptions};
use ironman_ppml::zoo::ModelKind;
use ironman_prg::Block;

#[test]
fn engine_timing_is_the_model_crates_on_the_session_workload() {
    // The estimate is exactly the CPU model plus the NMP simulator,
    // and the simulator replays the unsorted matrix every session
    // encodes with.
    let engine = Engine::new(
        FerretConfig::new(FerretParams::toy()),
        Backend::ironman_default(),
    );
    let work = engine.ote_work();
    assert!(!work.sort);
    let nmp = NmpConfig::ironman_max();
    let cpu_model_ms = CpuModel::ferret_reference()
        .execution_latency(&engine.workload(), false)
        .total_s()
        * 1e3;
    let ironman_ms = OteSimulator::new(nmp).simulate(&work, 1).latency_ms(&nmp);
    assert_eq!(
        engine.estimate_timing(1),
        Timing {
            cpu_model_ms,
            ironman_ms: Some(ironman_ms),
            sender_bytes: 0,
            receiver_bytes: 0,
        }
    );
}

#[test]
fn nmp_model_is_pinned_on_the_table4_session_workload() {
    // Every `paper` figure, `Engine::estimate_timing` and the harness's
    // `nmp.*`/`cache.*` rows read this one simulator, so a refactor of
    // the NMP crate must leave its numbers bit-identical. A change that
    // moves one of these literals is a model change, not a refactor.
    let engine = Engine::new(
        FerretConfig::recommended(FerretParams::OT_2POW20),
        Backend::ironman_default(),
    );
    let sim = OteSimulator::new(NmpConfig::ironman_max());
    let work = engine.ote_work();
    let sender = sim.simulate(&work, 1);
    let receiver = sim.simulate(
        &OteWork {
            role: Role::Receiver,
            ..work
        },
        1,
    );
    // [spcot, lpn, offload, total, spcot.xor] cycles. The receiver's
    // Message Decoder drains at twice the node rate, so only its XOR-tree
    // figure differs.
    let pinned = [
        (sender, [20_482, 6_589_146, 763, 6_589_909, 20_475]),
        (receiver, [20_482, 6_589_146, 763, 6_589_909, 10_238]),
    ];
    for (report, [spcot, lpn, offload, total, xor]) in pinned {
        assert_eq!(report.spcot_cycles, spcot, "{report:?}");
        assert_eq!(report.lpn_cycles, lpn, "{report:?}");
        assert_eq!(report.offload_cycles, offload, "{report:?}");
        assert_eq!(report.total_cycles, total, "{report:?}");
        assert_eq!(report.spcot.xor_cycles, xor, "{report:?}");
        assert_eq!(report.cache_hit_rate, 0.363763427734375, "{report:?}");
    }
}

#[test]
fn schedule_sim_matches_functional_call_count() {
    // The cycle model must issue exactly the calls the real expansion
    // makes.
    let prg = ironman_prg::ChaChaTreePrg::new(Block::from(1u128), 8);
    let tree = ironman_ggm::GgmTree::expand(&prg, Block::from(2u128), Arity::QUAD, 1024);
    let sim = simulate(
        ExpansionSchedule::Hybrid,
        PipelineModel::CHACHA8,
        1,
        Arity::QUAD,
        1024,
    );
    assert_eq!(sim.calls, tree.counter().chacha_calls);
}

#[test]
fn nmp_cache_model_agrees_with_direct_cache_replay() {
    // Replaying the same trace through the cache directly must produce
    // the same hit statistics the rank simulator reports.
    let cfg = NmpConfig::with_ranks_and_cache(2, 256 * 1024);
    let matrix = LpnMatrix::generate(2000, 40_000, 10, Block::from(5u128));
    let trace: Vec<u32> = matrix.colidx().to_vec();

    let report = simulate_rank(&cfg, &LpnWork::exact(trace.clone()));
    let mut cache = Cache::new(cfg.cache);
    for idx in &trace {
        cache.access(*idx as u64 * 16);
    }
    assert_eq!(report.cache.hits, cache.stats().hits);
    assert_eq!(report.cache.misses, cache.stats().misses);
}

#[test]
fn dram_row_hits_beat_misses_under_both_cache_sizes() {
    for kb in [256usize, 1024] {
        let cfg = CacheConfig::kb(kb);
        assert!(cfg.lines() >= 4096 * kb / 256 / 64 * 64 / 64); // monotone sanity
    }
    let cfg = DramConfig::ddr4_2400();
    let seq: Vec<Request> = (0..512u64).map(|i| Request::read(i % 8 * 64)).collect();
    let stride = (cfg.banks() * (cfg.row_bytes / cfg.access_bytes) * cfg.access_bytes) as u64;
    let rand: Vec<Request> = (0..512u64).map(|i| Request::read(i * stride)).collect();
    let hits = RankSim::new(cfg).run(&seq);
    let misses = RankSim::new(cfg).run(&rand);
    assert!(hits.avg_latency() < misses.avg_latency());
}

#[test]
fn fig12_monotonicities_hold() {
    // More ranks → faster; larger cache → not slower; every simulated
    // config beats the CPU baseline.
    let p = FerretParams::OT_2POW21;
    let mut prev_ms = f64::MAX;
    for ranks in [2usize, 4, 8, 16] {
        let c = speedup_cell(p, ranks, 256 * 1024, 7);
        assert!(
            c.ironman_ms < prev_ms,
            "{ranks} ranks: {} !< {prev_ms}",
            c.ironman_ms
        );
        assert!(c.speedup_vs_cpu() > 1.0);
        prev_ms = c.ironman_ms;
    }
    let small = speedup_cell(p, 8, 256 * 1024, 7);
    let large = speedup_cell(p, 8, 1024 * 1024, 7);
    assert!(large.cache_hit_rate >= small.cache_hit_rate);
}

#[test]
fn fig12_grid_covers_paper_shape() {
    let rows = speedup_table(&[2, 16], &[256 * 1024, 1024 * 1024], 3);
    assert_eq!(rows.len(), 2 * 2 * 5);
    // Best cell should be an order of magnitude above the worst.
    let best = rows
        .iter()
        .map(|r| r.speedup_vs_cpu())
        .fold(0.0f64, f64::max);
    let worst = rows
        .iter()
        .map(|r| r.speedup_vs_cpu())
        .fold(f64::MAX, f64::min);
    assert!(best / worst > 5.0, "dynamic range {best}/{worst}");
    assert!(worst > 1.5, "even the worst config must beat the CPU");
}

#[test]
fn table5_from_the_simulated_speedup_stays_near_the_paper() {
    // `paper tab05`'s composition: the flagship Fig. 12 cell's simulated
    // speedup (≈ 89×), not the crate's hand-set 90×, rescales each
    // workload's OT-extension share.
    let hardware = speedup_cell(FerretParams::OT_2POW20, 16, 1024 * 1024, 5).speedup_vs_cpu();
    let rows = reproduce_table5(&SpeedupAssumptions {
        hardware,
        ..SpeedupAssumptions::default()
    });
    let mean_dev = rows
        .iter()
        .map(|r| (r.deviation_vs_paper().0 + r.deviation_vs_paper().1) / 2.0)
        .sum::<f64>()
        / rows.len() as f64;
    assert!(mean_dev < 0.15, "mean deviation {mean_dev} at {hardware}x");
    // The paper reports WAN 1.32–1.83×, LAN 1.95–2.67× (CNNs) and
    // 2.91–3.40× (Transformers); these are `ironman-ppml`'s bands
    // around them.
    for row in &rows {
        let (wan, lan) = row.speedups();
        let lan_band = match row.workload.kind {
            ModelKind::Cnn => 1.7..=3.0,
            ModelKind::Transformer => 2.5..=3.6,
        };
        let model = row.workload.model;
        assert!((1.2..=2.0).contains(&wan), "{model}: WAN {wan}");
        assert!(lan_band.contains(&lan), "{model}: LAN {lan}");
    }
}

#[test]
fn hybrid_schedule_dominates_depth_first_everywhere() {
    for trees in [2usize, 8, 16] {
        for leaves in [256usize, 1024] {
            let df = simulate(
                ExpansionSchedule::DepthFirst,
                PipelineModel::CHACHA8,
                trees,
                Arity::QUAD,
                leaves,
            );
            let hy = simulate(
                ExpansionSchedule::Hybrid,
                PipelineModel::CHACHA8,
                trees,
                Arity::QUAD,
                leaves,
            );
            assert!(hy.cycles <= df.cycles, "trees={trees} leaves={leaves}");
            assert_eq!(hy.calls, df.calls);
        }
    }
}
