//! Energy comparison across backends — an extension of §6.1's power
//! observation (Ironman beats the GPU by 84.5× in *power*; combining power
//! with the measured latencies yields energy-per-COT, the figure of merit
//! for datacenter deployment).

use crate::area_power::{NMP_1MB, NMP_256KB};
use crate::gpu::GpuModel;
use serde::Serialize;

/// A backend's power envelope under the OTE workload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct PowerEnvelope {
    /// Display name.
    pub name: &'static str,
    /// Sustained power draw in watts.
    pub watts: f64,
}

impl PowerEnvelope {
    /// The 24-core Xeon under full OTE load (TDP-class draw).
    pub const CPU_XEON: PowerEnvelope = PowerEnvelope {
        name: "CPU (Xeon 5220R)",
        watts: 150.0,
    };

    /// The A6000 under the OTE workload (calibrated to §6.1's 84.5× claim).
    pub fn gpu_a6000() -> PowerEnvelope {
        PowerEnvelope {
            name: "GPU (A6000)",
            watts: GpuModel::a6000().power_w,
        }
    }

    /// Ironman-NMP with 256 KB caches (Table 6).
    pub const IRONMAN_256KB: PowerEnvelope = PowerEnvelope {
        name: "Ironman (256KB)",
        watts: NMP_256KB.power_w,
    };

    /// Ironman-NMP with 1 MB caches (Table 6).
    pub const IRONMAN_1MB: PowerEnvelope = PowerEnvelope {
        name: "Ironman (1MB)",
        watts: NMP_1MB.power_w,
    };

    /// Energy in joules for a run of `latency_s` seconds.
    pub fn energy_j(&self, latency_s: f64) -> f64 {
        self.watts * latency_s
    }

    /// Energy per COT in nanojoules given a latency and output count.
    ///
    /// # Panics
    ///
    /// Panics if `outputs == 0`.
    fn energy_per_cot_nj(&self, latency_s: f64, outputs: u64) -> f64 {
        assert!(outputs > 0, "need at least one output COT");
        self.energy_j(latency_s) / outputs as f64 * 1e9
    }
}

/// One row of the energy comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct EnergyRow {
    /// The backend.
    pub envelope: PowerEnvelope,
    /// Latency for the batch, seconds.
    pub latency_s: f64,
    /// Energy for the batch, joules.
    pub energy_j: f64,
    /// Energy per COT, nanojoules.
    pub nj_per_cot: f64,
}

/// Builds the energy comparison for a batch of `outputs` COTs produced at
/// the given per-backend latencies.
pub fn energy_comparison(backends: &[(PowerEnvelope, f64)], outputs: u64) -> Vec<EnergyRow> {
    backends
        .iter()
        .map(|&(envelope, latency_s)| EnergyRow {
            envelope,
            latency_s,
            energy_j: envelope.energy_j(latency_s),
            nj_per_cot: envelope.energy_per_cot_nj(latency_s, outputs),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_power_ratio_matches_paper() {
        let ratio = PowerEnvelope::gpu_a6000().watts / PowerEnvelope::IRONMAN_1MB.watts;
        assert!((ratio - 84.5).abs() < 0.5);
    }

    #[test]
    fn energy_math() {
        let e = PowerEnvelope::IRONMAN_1MB.energy_j(2.0);
        assert!((e - 2.86).abs() < 1e-9);
    }

    #[test]
    fn ironman_wins_energy_by_orders_of_magnitude() {
        // CPU 0.65 s vs Ironman 7 ms for the same 2^25 batch.
        let rows = energy_comparison(
            &[
                (PowerEnvelope::CPU_XEON, 0.65),
                (PowerEnvelope::gpu_a6000(), 0.11),
                (PowerEnvelope::IRONMAN_1MB, 0.007),
            ],
            1 << 25,
        );
        let cpu = rows[0].energy_j;
        let ironman = rows[2].energy_j;
        assert!(cpu / ironman > 1000.0, "energy ratio {}", cpu / ironman);
    }

    #[test]
    fn per_cot_energy_consistent() {
        let r = PowerEnvelope::IRONMAN_256KB.energy_per_cot_nj(1.0, 1_000_000_000);
        assert!((r - 1.301).abs() < 1e-9); // 1.301 W · 1 s / 1e9 = 1.301 nJ
    }
}
