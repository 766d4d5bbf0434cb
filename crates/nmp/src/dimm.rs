//! DIMM-NMP module: the SPCOT engine (paper §5.1.1, Fig. 9(b)).
//!
//! Each DIMM module owns `prg_cores_per_dimm` pipelined PRG cores fed by
//! the hybrid GGM expansion schedule (§4.3) plus the unified XOR-tree unit
//! (§5.2). Trees are distributed across cores; within a core the hybrid
//! schedule keeps the pipeline full, so large batches run at ~100%
//! utilization. The cycle model runs [`crate::schedule`]'s simulator on
//! a sample and scales — the steady state is periodic, making the
//! extrapolation exact up to edge effects.
//!
//! The unified unit is charged as cycles only: a tree `4 × cores` blocks
//! wide, running beside expansion, that lengthens the critical path only
//! when it is the slower of the two. Its XOR algebra is the functional
//! tree's ([`ironman_ggm::GgmTree::level_sums`]).

use crate::schedule::{self, ExpansionSchedule, PipelineModel};
use crate::{NmpConfig, Role};
use ironman_ggm::Arity;
use ironman_prg::PrgKind;

/// SPCOT work for one protocol execution (all DIMMs together).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpcotWork {
    /// Number of GGM trees (`t`).
    pub trees: usize,
    /// Leaves per tree (`ℓ`).
    pub leaves: usize,
    /// Tree arity.
    pub arity: Arity,
    /// PRG instantiation.
    pub prg: PrgKind,
    /// Which role's datapath to model (sender does twice the XOR-tree
    /// work, §5.2).
    pub role: Role,
}

impl SpcotWork {
    /// The Ironman configuration: 4-ary ChaCha8 trees.
    pub fn ironman(trees: usize, leaves: usize, role: Role) -> Self {
        SpcotWork {
            trees,
            leaves,
            arity: Arity::QUAD,
            prg: PrgKind::CHACHA8,
            role,
        }
    }
}

/// Simulation result for the SPCOT phase on one DIMM module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DimmSpcotReport {
    /// Cycles until the last leaf is produced (per DIMM; DIMMs run in
    /// parallel).
    pub cycles: u64,
    /// PRG calls issued on this DIMM.
    pub calls: u64,
    /// Pipeline utilization achieved by the schedule.
    pub utilization: f64,
    /// Cycles spent in the unified XOR-tree unit (overlapped with
    /// expansion; reported for the ablation).
    pub xor_cycles: u64,
}

/// Pipeline model for a PRG kind: one stage per round (ChaCha) or per AES
/// round, with the PRG's native output width.
pub fn pipeline_for(prg: PrgKind) -> PipelineModel {
    match prg {
        PrgKind::Aes => PipelineModel::AES,
        PrgKind::ChaCha { rounds } => PipelineModel {
            stages: rounds as usize,
            blocks_per_call: 4,
        },
    }
}

/// Simulates the SPCOT phase on one DIMM given its share of the trees.
///
/// Large batches are extrapolated from a sampled schedule simulation:
/// `sample` trees (default 16) are simulated per core and the cycle count
/// scales linearly in the remaining full rounds.
pub fn simulate_dimm(cfg: &NmpConfig, work: &SpcotWork, trees_on_dimm: usize) -> DimmSpcotReport {
    let pipeline = pipeline_for(work.prg);
    let cores = cfg.prg_cores_per_dimm.max(1);
    let trees_per_core = trees_on_dimm.div_ceil(cores);
    if trees_per_core == 0 {
        return DimmSpcotReport {
            cycles: 0,
            calls: 0,
            utilization: 0.0,
            xor_cycles: 0,
        };
    }

    // Sample the schedule: enough trees to reach steady state.
    let sample = trees_per_core.min(16);
    let sim = schedule::simulate(
        ExpansionSchedule::Hybrid,
        pipeline,
        sample,
        work.arity,
        work.leaves,
    );
    let scale = trees_per_core as f64 / sample as f64;
    let expansion_cycles = (sim.cycles as f64 * scale).round() as u64;
    let calls_per_core = (sim.calls as f64 * scale).round() as u64;

    // Unified-unit work: every produced node is folded into a branch sum
    // once per level (sender computes all branch sums; receiver one). The
    // XOR tree's input width matches the cores' aggregate output, four
    // blocks per core per cycle (Fig. 10), so it folds that many nodes
    // per cycle.
    let width = 4 * cores as u64;
    let total_nodes = work.arity.expansion_blocks(work.leaves) * trees_on_dimm as u64;
    // The Key Generator folds even and odd sums in parallel accumulator
    // lanes, consuming the full core output every cycle; the Message
    // Decoder needs only one sum and can drain at twice the node rate
    // (Fig. 10(b) vs (c)).
    let xor_cycles = match work.role {
        Role::Sender => total_nodes.div_ceil(width),
        Role::Receiver => total_nodes.div_ceil(2 * width),
    };

    // The XOR tree runs concurrently with expansion; it only extends the
    // critical path if it is slower.
    let cycles = expansion_cycles.max(xor_cycles);
    DimmSpcotReport {
        cycles,
        calls: calls_per_core * cores as u64,
        utilization: sim.utilization(),
        xor_cycles,
    }
}

/// Distributes `work.trees` across the active DIMMs and returns the
/// critical-path report (the slowest DIMM; they run in parallel).
pub fn simulate_spcot(cfg: &NmpConfig, work: &SpcotWork) -> DimmSpcotReport {
    let dimms = cfg.dimms().max(1);
    let trees_per_dimm = work.trees.div_ceil(dimms);
    simulate_dimm(cfg, work, trees_per_dimm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NmpConfig {
        NmpConfig::with_ranks_and_cache(8, 256 * 1024)
    }

    #[test]
    fn chacha_quad_beats_aes_binary() {
        // Fig. 13(a): 4-ary + ChaCha is ~6x fewer ops than 2-ary + AES.
        let c = cfg();
        let quad = simulate_spcot(
            &c,
            &SpcotWork {
                trees: 32,
                leaves: 1024,
                arity: Arity::QUAD,
                prg: PrgKind::CHACHA8,
                role: Role::Sender,
            },
        );
        let bin = simulate_spcot(
            &c,
            &SpcotWork {
                trees: 32,
                leaves: 1024,
                arity: Arity::BINARY,
                prg: PrgKind::Aes,
                role: Role::Sender,
            },
        );
        assert!(
            bin.cycles > 4 * quad.cycles,
            "binary {} should dwarf quad {}",
            bin.cycles,
            quad.cycles
        );
    }

    #[test]
    fn hybrid_utilization_high_with_many_trees() {
        // 256 trees on 4 DIMMs × 4 cores = 16 trees per pipeline, enough
        // in-flight trees to hide the 8-stage latency (§4.3's 100% claim).
        let r = simulate_spcot(&cfg(), &SpcotWork::ironman(256, 1024, Role::Sender));
        assert!(r.utilization > 0.9, "utilization {}", r.utilization);
    }

    #[test]
    fn more_dimms_fewer_cycles() {
        let small = NmpConfig::with_ranks_and_cache(2, 256 * 1024);
        let large = NmpConfig::with_ranks_and_cache(16, 256 * 1024);
        let w = SpcotWork::ironman(128, 1024, Role::Sender);
        let a = simulate_spcot(&small, &w);
        let b = simulate_spcot(&large, &w);
        assert!(
            b.cycles < a.cycles,
            "16-rank {} !< 2-rank {}",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn receiver_xor_cheaper() {
        let s = simulate_spcot(&cfg(), &SpcotWork::ironman(32, 1024, Role::Sender));
        let r = simulate_spcot(&cfg(), &SpcotWork::ironman(32, 1024, Role::Receiver));
        assert!(r.xor_cycles < s.xor_cycles);
    }

    #[test]
    fn zero_trees_zero_cycles() {
        let r = simulate_dimm(&cfg(), &SpcotWork::ironman(0, 1024, Role::Sender), 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn call_extrapolation_consistent() {
        // Call count must equal trees × calls/tree regardless of sampling.
        let c = cfg();
        let w = SpcotWork::ironman(64, 256, Role::Sender);
        let r = simulate_spcot(&c, &w);
        let per_tree = (256 - 1) / 3; // 4-ary ChaCha on ℓ=256
        let dimms = c.dimms();
        let per_dimm = 64usize.div_ceil(dimms);
        let expected = (per_dimm as u64).div_ceil(c.prg_cores_per_dimm as u64)
            * c.prg_cores_per_dimm as u64
            * per_tree as u64;
        assert_eq!(r.calls, expected);
    }
}
