//! The end-to-end OT-extension engine.

use ironman_nmp::{NmpConfig, OteSimulator, OteWork, Role};
use ironman_ot::cot::CotBatch;
use ironman_ot::ferret::{run_extensions, FerretConfig, FerretOutput};
use ironman_perf::{CpuModel, OteWorkload};
use serde::{Deserialize, Serialize};

/// Which hardware executes (or is simulated to execute) the extension.
// The NmpConfig payload makes the variant large, but Backend must stay
// Copy for the existing engine-construction call sites; boxing would
// change that API for no measurable gain at engine-count scales.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    /// Pure software execution, timed by the analytical CPU model.
    SoftwareCpu,
    /// The Ironman-NMP accelerator, timed by the cycle-level simulator.
    IronmanNmp(NmpConfig),
}

impl Backend {
    /// The paper's flagship deployment: 16 ranks, 1 MB caches.
    pub fn ironman_default() -> Backend {
        Backend::IronmanNmp(NmpConfig::ironman_max())
    }
}

/// Timing summary of one extension.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// Analytical CPU-baseline latency for the same work, ms.
    pub cpu_model_ms: f64,
    /// Simulated Ironman-NMP latency, ms (when that backend is selected).
    pub ironman_ms: Option<f64>,
    /// Bytes sent by the sender during the extension.
    pub sender_bytes: u64,
    /// Bytes sent by the receiver.
    pub receiver_bytes: u64,
}

impl Timing {
    /// Speedup of the selected backend over the CPU model (1.0 for the
    /// CPU backend itself).
    pub fn speedup(&self) -> f64 {
        match self.ironman_ms {
            Some(ms) if ms > 0.0 => self.cpu_model_ms / ms,
            _ => 1.0,
        }
    }
}

/// One completed extension: verified correlations plus timing.
#[derive(Clone, Debug)]
pub struct ExtensionRun {
    /// The matched sender/receiver COT outputs.
    pub cots: CotBatch,
    /// Timing summary.
    pub timing: Timing,
}

/// The engine: a Ferret session bound to a timing backend.
#[derive(Clone, Debug)]
pub struct Engine {
    cfg: FerretConfig,
    backend: Backend,
    cpu: CpuModel,
}

impl Engine {
    /// Creates an engine.
    pub fn new(cfg: FerretConfig, backend: Backend) -> Self {
        Engine {
            cfg,
            backend,
            cpu: CpuModel::ferret_reference(),
        }
    }

    /// Overrides the CPU reference model (for sensitivity studies).
    pub fn with_cpu_model(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// The Ferret configuration in use.
    pub fn config(&self) -> &FerretConfig {
        &self.cfg
    }

    /// The per-execution workload in backend-agnostic units.
    pub fn workload(&self) -> OteWorkload {
        let p = self.cfg.params;
        let ops_per_tree = spcot_aes_equiv_ops(self.cfg.arity.get(), p.leaves);
        OteWorkload::from_counts(
            p.t as u64,
            ops_per_tree,
            p.n as u64,
            self.cfg.row_weight as u64,
        )
    }

    /// Runs `iterations` extensions (two real protocol parties on two
    /// threads), attaching timing from the selected backend.
    pub fn run(&self, seed: u64, iterations: usize) -> Vec<ExtensionRun> {
        run_extensions(&self.cfg, seed, iterations)
            .into_iter()
            .map(|out| ExtensionRun {
                timing: self.time_one(&out, seed),
                cots: out.cots,
            })
            .collect()
    }

    /// Runs a single extension.
    pub fn run_one(&self, seed: u64) -> ExtensionRun {
        self.run(seed, 1).pop().expect("one iteration requested")
    }

    /// Computes timing without executing the protocol (for parameter
    /// sweeps at Table 4 scale, where the functional run would be slow in
    /// a test environment).
    pub fn estimate_timing(&self, seed: u64) -> Timing {
        let w = self.workload();
        let cpu_ms = self.cpu.execution_latency(&w, false).total_s() * 1e3;
        let ironman_ms = match self.backend {
            Backend::SoftwareCpu => None,
            Backend::IronmanNmp(nmp_cfg) => {
                let sim = OteSimulator::new(nmp_cfg);
                let report = sim.simulate(&self.ote_work(), seed);
                Some(report.latency_ms(&nmp_cfg))
            }
        };
        Timing {
            cpu_model_ms: cpu_ms,
            ironman_ms,
            sender_bytes: 0,
            receiver_bytes: 0,
        }
    }

    /// The NMP-simulator work description for one execution: the
    /// session's unsorted matrix, as every FERRET session encodes it.
    pub fn ote_work(&self) -> OteWork {
        let p = self.cfg.params;
        OteWork {
            n: p.n,
            leaves: p.leaves,
            trees: p.t,
            k: p.k,
            weight: self.cfg.row_weight,
            arity: self.cfg.arity,
            prg: self.cfg.prg,
            role: Role::Sender,
            sort: false,
            sample_rows: Some(16_384),
        }
    }

    fn time_one(&self, out: &FerretOutput, seed: u64) -> Timing {
        let mut timing = self.estimate_timing(seed);
        timing.sender_bytes = out.sender_stats.bytes_sent;
        timing.receiver_bytes = out.receiver_stats.bytes_sent;
        timing
    }
}

// Only so `benchmark/`'s `&engine` still coerces to the `&FerretConfig` serving takes.
impl std::ops::Deref for Engine {
    type Target = FerretConfig;

    fn deref(&self) -> &FerretConfig {
        &self.cfg
    }
}

/// AES-equivalent PRG operations to expand one GGM tree: the quantity the
/// CPU model charges (Fig. 6's operation-count table, measured in
/// `ironman-ggm` tests).
///
/// Every PRG counts its output blocks: one ChaCha call yields four blocks
/// and is weighted as four AES equivalents for throughput (same silicon
/// budget). ChaCha's *latency* advantage shows up as fewer calls in the
/// NMP pipeline model. For the CPU model the paper's baseline is AES
/// binary trees, so other shapes matter only for what-if studies.
pub fn spcot_aes_equiv_ops(arity: usize, leaves: usize) -> u64 {
    ironman_ggm::Arity::new(arity)
        .expect("arity validated by FerretConfig")
        .expansion_blocks(leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_ot::params::FerretParams;

    fn toy_engine(backend: Backend) -> Engine {
        Engine::new(FerretConfig::new(FerretParams::toy()), backend)
    }

    #[test]
    fn run_produces_verified_cots() {
        let run = toy_engine(Backend::ironman_default()).run_one(7);
        run.cots.verify().unwrap();
        assert!(run.timing.ironman_ms.is_some());
        assert!(run.timing.sender_bytes > 0);
    }

    #[test]
    fn cpu_backend_has_no_sim_latency() {
        let run = toy_engine(Backend::SoftwareCpu).run_one(8);
        assert!(run.timing.ironman_ms.is_none());
        assert_eq!(run.timing.speedup(), 1.0);
    }

    #[test]
    fn ironman_beats_cpu_model() {
        let run = toy_engine(Backend::ironman_default()).run_one(9);
        assert!(
            run.timing.speedup() > 1.0,
            "speedup {}",
            run.timing.speedup()
        );
    }

    #[test]
    fn estimate_matches_table4_scale() {
        // Estimation path must handle full-size parameter sets quickly.
        let cfg = FerretConfig::new(FerretParams::OT_2POW20);
        let engine = Engine::new(cfg, Backend::ironman_default());
        let t = engine.estimate_timing(1);
        let speedup = t.speedup();
        assert!(
            (5.0..2000.0).contains(&speedup),
            "2^20-set speedup {speedup} outside plausible band"
        );
    }

    #[test]
    fn spcot_ops_formula_binary() {
        // Binary tree: 2(ℓ−1) blocks.
        assert_eq!(spcot_aes_equiv_ops(2, 4096), 2 * 4095);
    }

    #[test]
    fn spcot_ops_formula_quad() {
        // Exact 4-ary tree: 4(ℓ−1)/3 blocks.
        assert_eq!(spcot_aes_equiv_ops(4, 4096), 4 * 4095 / 3);
    }

    #[test]
    fn an_engine_reference_builds_a_pool() {
        // `benchmark/` spells `SharedCotPool::new_pipelined(&engine, ..)`,
        // `CotService::serve(.., engine, ..)` and
        // `spawn_replicated(.., &engine, ..)`; this is that spelling,
        // compiled through the `Deref`.
        let engine = toy_engine(Backend::ironman_default());
        let pool = crate::SharedCotPool::new_pipelined(&engine, 1, 3);
        pool.take_with_shard(64, |slice, _| slice.verify()).unwrap();
    }

    #[test]
    fn multi_iteration_runs() {
        let runs = toy_engine(Backend::ironman_default()).run(10, 2);
        assert_eq!(runs.len(), 2);
        for r in &runs {
            r.cots.verify().unwrap();
        }
    }
}
