//! The GPU baseline model (NVIDIA A6000), §6.1.
//!
//! The paper measures its GPU port of the OTE protocol at 5.88× the
//! full-thread CPU throughput, with a latency breakdown of 44.1% SPCOT /
//! 50.2% LPN, and reports that Ironman beats the GPU by 40.31× in latency
//! and 84.5× in power. We model the GPU as a scaled CPU with those
//! measured ratios.

use crate::cpu::{CpuModel, OteWorkload, PhaseLatency};

/// Analytical A6000 baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuModel {
    /// Measured throughput gain over the full-thread CPU (paper: 5.88×).
    pub speedup_vs_cpu: f64,
    /// SPCOT share of execution latency (paper: 44.1%).
    pub spcot_share: f64,
    /// LPN share of execution latency (paper: 50.2%).
    pub lpn_share: f64,
    /// Board power under the OTE workload, W. Chosen so that Ironman's
    /// 1.43 W (Table 6) is an 84.5× reduction, per §6.1.
    pub power_w: f64,
}

impl GpuModel {
    /// The paper's A6000 operating point.
    pub fn a6000() -> Self {
        GpuModel {
            speedup_vs_cpu: 5.88,
            spcot_share: 0.441,
            lpn_share: 0.502,
            power_w: 120.8,
        }
    }

    /// Latency of one OTE execution: CPU latency scaled by the measured
    /// speedup, redistributed across phases per the measured breakdown.
    pub fn execution_latency(&self, cpu: &CpuModel, w: &OteWorkload) -> PhaseLatency {
        let total = cpu.execution_latency(w, false).total_s() / self.speedup_vs_cpu;
        PhaseLatency {
            init_s: total * (1.0 - self.spcot_share - self.lpn_share),
            spcot_s: total * self.spcot_share,
            lpn_s: total * self.lpn_share,
        }
    }

    /// Latency for a batch of `total_ots` outputs.
    pub fn batch_latency_s(&self, cpu: &CpuModel, w: &OteWorkload, total_ots: u64) -> f64 {
        cpu.batch_latency_s(w, total_ots) / self.speedup_vs_cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_faster_than_cpu_by_measured_factor() {
        let cpu = CpuModel::xeon_full_thread();
        let gpu = GpuModel::a6000();
        let w = OteWorkload::from_counts(480, 2 * 4095, 1_221_516, 10);
        let c = cpu.execution_latency(&w, false).total_s();
        let g = gpu.execution_latency(&cpu, &w).total_s();
        assert!((c / g - 5.88).abs() < 1e-9);
    }

    #[test]
    fn phase_shares_match_paper() {
        let cpu = CpuModel::xeon_full_thread();
        let gpu = GpuModel::a6000();
        let w = OteWorkload::from_counts(480, 2 * 4095, 1_221_516, 10);
        let l = gpu.execution_latency(&cpu, &w);
        assert!((l.spcot_s / l.total_s() - 0.441).abs() < 1e-9);
        assert!((l.lpn_s / l.total_s() - 0.502).abs() < 1e-9);
    }

    #[test]
    fn power_ratio_vs_ironman_is_84_5() {
        let gpu = GpuModel::a6000();
        let ratio = gpu.power_w / crate::area_power::NMP_1MB.power_w;
        assert!((ratio - 84.5).abs() < 0.5, "power ratio {ratio}");
    }
}
