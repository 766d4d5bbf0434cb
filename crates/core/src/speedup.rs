//! Fig. 12 speedup computation: Ironman vs. CPU/GPU across memory
//! configurations and parameter sets.

use crate::engine::spcot_aes_equiv_ops;
use ironman_nmp::{NmpConfig, OteSimulator, OteWork, Role};
use ironman_ot::params::FerretParams;
use ironman_perf::{CpuModel, GpuModel, OteWorkload};
use ironman_prg::PrgKind;
use serde::{Deserialize, Serialize};

/// One cell of the Fig. 12 grid.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Parameter set (log2 of the target OT count).
    pub log_target: u32,
    /// Active ranks.
    pub ranks: usize,
    /// Per-rank cache bytes.
    pub cache_bytes: usize,
    /// Ironman latency per execution, ms.
    pub ironman_ms: f64,
    /// CPU baseline latency per execution, ms.
    pub cpu_ms: f64,
    /// GPU baseline latency per execution, ms.
    pub gpu_ms: f64,
    /// Memory-side cache hit rate observed.
    pub cache_hit_rate: f64,
}

impl SpeedupRow {
    /// Ironman speedup over the CPU baseline.
    pub fn speedup_vs_cpu(&self) -> f64 {
        self.cpu_ms / self.ironman_ms
    }

    /// Ironman speedup over the GPU baseline.
    pub fn speedup_vs_gpu(&self) -> f64 {
        self.gpu_ms / self.ironman_ms
    }
}

/// Computes one Fig. 12 cell.
pub fn speedup_cell(
    params: FerretParams,
    ranks: usize,
    cache_bytes: usize,
    seed: u64,
) -> SpeedupRow {
    let nmp_cfg = NmpConfig::with_ranks_and_cache(ranks, cache_bytes);
    let sim = OteSimulator::new(nmp_cfg);
    let work = OteWork {
        n: params.n,
        leaves: params.leaves,
        trees: params.t,
        k: params.k,
        weight: 10,
        arity: ironman_ggm::Arity::QUAD,
        prg: PrgKind::CHACHA8,
        role: Role::Sender,
        sort: true,
        sample_rows: Some(16_384),
    };
    let report = sim.simulate(&work, seed);
    let ironman_ms = report.latency_ms(&nmp_cfg);

    // CPU/GPU baselines run the unoptimized binary-AES Ferret.
    let cpu = CpuModel::ferret_reference();
    let cpu_work = OteWorkload::from_counts(
        params.t as u64,
        spcot_aes_equiv_ops(2, params.leaves),
        params.n as u64,
        10,
    );
    let cpu_ms = cpu.execution_latency(&cpu_work, false).total_s() * 1e3;
    let gpu_ms = GpuModel::a6000()
        .execution_latency(&cpu, &cpu_work)
        .total_s()
        * 1e3;

    SpeedupRow {
        log_target: params.log_target,
        ranks,
        cache_bytes,
        ironman_ms,
        cpu_ms,
        gpu_ms,
        cache_hit_rate: report.cache_hit_rate,
    }
}

/// Computes the full Fig. 12 grid: every Table 4 set × rank count × cache
/// size.
pub fn speedup_table(rank_counts: &[usize], cache_sizes: &[usize], seed: u64) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for &cache in cache_sizes {
        for &ranks in rank_counts {
            for params in FerretParams::TABLE4 {
                rows.push(speedup_cell(params, ranks, cache, seed));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_grows_with_ranks() {
        let p = FerretParams::OT_2POW20;
        let two = speedup_cell(p, 2, 256 * 1024, 1);
        let sixteen = speedup_cell(p, 16, 256 * 1024, 1);
        assert!(
            sixteen.speedup_vs_cpu() > two.speedup_vs_cpu(),
            "16-rank {} !> 2-rank {}",
            sixteen.speedup_vs_cpu(),
            two.speedup_vs_cpu()
        );
    }

    #[test]
    fn speedups_in_paper_band() {
        // Paper: 3.66×–39.26× (256 KB) and 5.03×–237× (1 MB). We accept a
        // wider tolerance band; `paper fig12` prints exact values.
        let worst = speedup_cell(FerretParams::OT_2POW24, 2, 256 * 1024, 2);
        let best = speedup_cell(FerretParams::OT_2POW20, 16, 1024 * 1024, 2);
        assert!(
            worst.speedup_vs_cpu() > 1.5,
            "worst cell {}",
            worst.speedup_vs_cpu()
        );
        assert!(
            best.speedup_vs_cpu() > 25.0,
            "best cell {}",
            best.speedup_vs_cpu()
        );
        assert!(best.speedup_vs_cpu() > 4.0 * worst.speedup_vs_cpu());
    }

    #[test]
    fn gpu_between_cpu_and_best_ironman() {
        let row = speedup_cell(FerretParams::OT_2POW20, 16, 1024 * 1024, 3);
        assert!(row.gpu_ms < row.cpu_ms);
        assert!(
            row.ironman_ms < row.gpu_ms,
            "ironman {} !< gpu {}",
            row.ironman_ms,
            row.gpu_ms
        );
    }
}
