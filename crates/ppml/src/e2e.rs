//! End-to-end latency composition (Table 5).
//!
//! Ironman only accelerates the OT-extension phase. On a fast link the
//! phase shrinks by the hardware speedup and effectively vanishes; on a
//! slow link the OTE's own interaction becomes the floor (§6.5: "after
//! significantly optimizing the OT computation, communication latency
//! becomes the new bottleneck"). The composition is:
//!
//! ```text
//! ours = base · (1 − f) + base · f / S_eff(network)
//! ```
//!
//! with `f` the workload's OTE share and `S_eff` the effective speedup:
//! the hardware speedup capped by the ratio of OTE compute time to its
//! irreducible link time.

use crate::zoo::{Workload, TABLE5_WORKLOADS};
use ironman_perf::NetworkModel;

/// Speedup assumptions fed into the composition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedupAssumptions {
    /// Hardware OTE speedup measured from the NMP simulator (Fig. 12; the
    /// flagship configuration lands near 90×).
    pub hardware: f64,
    /// Fraction of baseline OTE time that is link-bound under WAN and
    /// survives acceleration. Calibrated once against Table 5's WAN
    /// column (§6.5's bottleneck-shift observation); 0 would mean OTE is
    /// pure computation.
    pub wan_comm_floor: f64,
}

impl Default for SpeedupAssumptions {
    fn default() -> Self {
        SpeedupAssumptions {
            hardware: 90.0,
            wan_comm_floor: 0.34,
        }
    }
}

impl SpeedupAssumptions {
    /// Effective OTE speedup on a link.
    pub fn effective(&self, net: &NetworkModel) -> f64 {
        let floor = if net.bandwidth_bps < 1.0e9 {
            self.wan_comm_floor
        } else {
            0.0
        };
        1.0 / (floor + (1.0 - floor) / self.hardware)
    }
}

/// One computed Table 5 row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct E2eRow {
    /// The workload.
    pub workload: Workload,
    /// Our computed Ironman latency, WAN, seconds.
    pub ours_wan_s: f64,
    /// Our computed Ironman latency, LAN, seconds.
    pub ours_lan_s: f64,
}

impl E2eRow {
    /// Computed speedups (WAN, LAN).
    pub fn speedups(&self) -> (f64, f64) {
        (
            self.workload.base_wan_s / self.ours_wan_s,
            self.workload.base_lan_s / self.ours_lan_s,
        )
    }

    /// Relative error of our computed latency vs. the paper's reported
    /// value, (WAN, LAN).
    pub fn deviation_vs_paper(&self) -> (f64, f64) {
        (
            (self.ours_wan_s - self.workload.paper_ours_wan_s).abs()
                / self.workload.paper_ours_wan_s,
            (self.ours_lan_s - self.workload.paper_ours_lan_s).abs()
                / self.workload.paper_ours_lan_s,
        )
    }
}

/// Applies the composition to one workload.
pub fn accelerate(w: &Workload, a: &SpeedupAssumptions) -> E2eRow {
    let s_wan = a.effective(&NetworkModel::WAN);
    let s_lan = a.effective(&NetworkModel::LAN);
    let f = w.ote_fraction;
    E2eRow {
        workload: *w,
        ours_wan_s: w.base_wan_s * (1.0 - f) + w.base_wan_s * f / s_wan,
        ours_lan_s: w.base_lan_s * (1.0 - f) + w.base_lan_s * f / s_lan,
    }
}

/// Recomputes all sixteen Table 5 rows.
pub fn reproduce_table5(a: &SpeedupAssumptions) -> Vec<E2eRow> {
    TABLE5_WORKLOADS.iter().map(|w| accelerate(w, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelKind;

    #[test]
    fn lan_speedups_match_paper_band() {
        // Paper: 1.95–2.67× (CNNs), 2.91–3.40× (Transformers) under LAN.
        for row in reproduce_table5(&SpeedupAssumptions::default()) {
            let (_, lan) = row.speedups();
            match row.workload.kind {
                ModelKind::Cnn => {
                    assert!(
                        (1.7..=3.0).contains(&lan),
                        "{}: LAN {lan}",
                        row.workload.model
                    )
                }
                ModelKind::Transformer => {
                    assert!(
                        (2.5..=3.6).contains(&lan),
                        "{}: LAN {lan}",
                        row.workload.model
                    )
                }
            }
        }
    }

    #[test]
    fn wan_speedups_match_paper_band() {
        // Paper: 1.32–1.83× under WAN.
        for row in reproduce_table5(&SpeedupAssumptions::default()) {
            let (wan, _) = row.speedups();
            assert!(
                (1.2..=2.0).contains(&wan),
                "{}: WAN {wan}",
                row.workload.model
            );
        }
    }

    #[test]
    fn computed_rows_close_to_paper() {
        // The composition should land within ~15% of the paper's reported
        // latencies on average.
        let rows = reproduce_table5(&SpeedupAssumptions::default());
        let mean_dev: f64 = rows
            .iter()
            .map(|r| (r.deviation_vs_paper().0 + r.deviation_vs_paper().1) / 2.0)
            .sum::<f64>()
            / rows.len() as f64;
        assert!(mean_dev < 0.15, "mean deviation {mean_dev}");
    }

    #[test]
    fn transformers_gain_more_than_cnns() {
        // §6.5 observation (2).
        let rows = reproduce_table5(&SpeedupAssumptions::default());
        let avg = |kind: ModelKind| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.workload.kind == kind)
                .map(|r| r.speedups().1)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(ModelKind::Transformer) > avg(ModelKind::Cnn));
    }

    #[test]
    fn wan_gains_limited_by_comm() {
        // §6.5 observation (3): WAN speedups below LAN speedups everywhere.
        for row in reproduce_table5(&SpeedupAssumptions::default()) {
            let (wan, lan) = row.speedups();
            assert!(wan < lan, "{}: WAN {wan} !< LAN {lan}", row.workload.model);
        }
    }

    #[test]
    fn bigger_hardware_speedup_helps_lan_only_marginally() {
        // Once OTE is ~eliminated, doubling hardware speedup barely moves
        // end-to-end latency (Amdahl).
        let base = SpeedupAssumptions::default();
        let double = SpeedupAssumptions {
            hardware: 180.0,
            ..base
        };
        let a = reproduce_table5(&base);
        let b = reproduce_table5(&double);
        for (x, y) in a.iter().zip(b.iter()) {
            let gain = x.ours_lan_s / y.ours_lan_s;
            assert!(gain < 1.05, "{}: gain {gain}", x.workload.model);
        }
    }
}
