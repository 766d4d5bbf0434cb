//! Model-vs-measured supply headroom: live fleet `Stats` fed into the
//! perf crate's roofline and network models.
//!
//! The paper's Fig. 1(c) roofline argues where an extension's time goes
//! (SPCOT compute-bound, LPN memory-bound); this module closes the loop
//! operationally: for each server, predict the *supply ceiling* —
//! the COTs/s the machine could produce if extensions ran back-to-back
//! at the modeled SPCOT + LPN rates — and compare it with the
//! *measured* windowed supply rate from the observer. The quotient is
//! utilization, the difference is headroom, and the signed error once a
//! server saturates is model drift — the signal of the CPU-model drift
//! check, and the input a model-driven admission policy needs.
//!
//! Reading the gauges: utilization near 1.0 with positive drift means
//! the model *under*-predicts (the machine beats the roofline — check
//! the bandwidth figure); utilization well below 1.0 under load means
//! supply is not the bottleneck (the fleet is serving- or demand-bound).
//!
//! `ironman-perf` is the one model crate the serving stack links, on
//! purpose: it depends only on serde, and its roofline is the prediction
//! the CPU-model drift check compares measured supply against. The NMP,
//! DRAM and cache simulators stay out of the serving crates.

use crate::directory::ServerId;
use crate::observe::{FleetSnapshot, FleetWindow, ServerObservation};
use ironman_ot::params::FerretParams;
use ironman_perf::roofline::{self, Roofline};

/// The per-server supply-ceiling model: a roofline for the extension
/// kernels and the parameter set the fleet's engines run.
#[derive(Clone, Copy, Debug)]
pub struct HeadroomModel {
    /// The machine model (compute ceiling + memory bandwidth).
    pub roofline: Roofline,
    /// The FERRET parameter set the servers extend with (drives the
    /// modeled SPCOT/LPN op and traffic counts per extension).
    pub params: FerretParams,
}

/// One server's model-vs-measured assessment.
#[derive(Clone, Copy, Debug)]
pub struct ServerHeadroom {
    /// The member's stable server id.
    pub id: ServerId,
    /// The modeled supply ceiling, COTs/s.
    pub predicted_cots_per_sec: f64,
    /// The measured windowed supply rate, COTs/s.
    pub measured_cots_per_sec: f64,
    /// `measured / predicted` (0 when the model predicts 0).
    pub utilization: f64,
    /// Unused modeled capacity: `max(0, predicted − measured)`.
    pub headroom_cots_per_sec: f64,
    /// Signed model error: `measured − predicted`. Meaningful once the
    /// server saturates; persistent positive drift means the model
    /// under-predicts the machine.
    pub drift_cots_per_sec: f64,
}

impl HeadroomModel {
    /// The paper's CPU platform over `params`.
    pub fn xeon(params: FerretParams) -> HeadroomModel {
        HeadroomModel {
            roofline: Roofline::xeon_5220r(),
            params,
        }
    }

    /// The modeled wall time of one extension, seconds: the SPCOT phase
    /// (GGM expansion, compute-bound on the roofline) plus the LPN
    /// phase (memory-bound), each run at its intensity's attainable
    /// rate.
    fn extension_time_s(&self) -> f64 {
        let t = self.params.t as u64;
        let n = self.params.n as u64;
        // Two AES-equivalents per interior+leaf node across t trees.
        let spcot_ops = 2.0 * (self.params.leaves.saturating_sub(1)) as f64 * t as f64;
        let spcot = self
            .roofline
            .point(spcot_ops, roofline::spcot_traffic_bytes(spcot_ops as u64));
        let lpn_ops = roofline::lpn_ops(n, t);
        let lpn = self
            .roofline
            .point(lpn_ops, roofline::lpn_traffic_bytes(n, t));
        spcot_ops / spcot.attainable_ops_per_s + lpn_ops / lpn.attainable_ops_per_s
    }

    /// The predicted supply ceiling for `obs`'s server, COTs/s:
    /// extensions back-to-back at the modeled rate, times the usable
    /// outputs per extension the server itself advertises.
    fn predicted_supply(&self, obs: &ServerObservation) -> f64 {
        obs.cots_per_extension as f64 / self.extension_time_s()
    }

    /// Assesses every server present in both the snapshot and the
    /// window (measured rates come from the window; the advertised
    /// outputs-per-extension from the snapshot).
    pub fn assess(&self, snapshot: &FleetSnapshot, window: &FleetWindow) -> Vec<ServerHeadroom> {
        window
            .servers
            .iter()
            .filter_map(|w| {
                let obs = snapshot.server(w.id)?;
                Some(self.server_headroom(obs, w.supply_cots_per_sec))
            })
            .collect()
    }

    /// One server's assessment from its observation and measured
    /// windowed supply rate.
    pub fn server_headroom(&self, obs: &ServerObservation, measured: f64) -> ServerHeadroom {
        let predicted = self.predicted_supply(obs);
        ServerHeadroom {
            id: obs.id,
            predicted_cots_per_sec: predicted,
            measured_cots_per_sec: measured,
            utilization: if predicted > 0.0 {
                measured / predicted
            } else {
                0.0
            },
            headroom_cots_per_sec: (predicted - measured).max(0.0),
            drift_cots_per_sec: measured - predicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_net::ServiceStats;

    fn toy_observation(per_extension: u64) -> ServerObservation {
        ServerObservation {
            id: ServerId(3),
            cots_per_extension: per_extension,
            stats: ServiceStats {
                extensions_run: 10,
                shards: 1,
                uptime_nanos: 1_000_000_000,
                ..ServiceStats::default()
            },
        }
    }

    #[test]
    fn prediction_is_positive_and_scales_with_outputs() {
        let model = HeadroomModel::xeon(FerretParams::OT_2POW20);
        let small = model.predicted_supply(&toy_observation(1_000));
        let large = model.predicted_supply(&toy_observation(1_000_000));
        assert!(small > 0.0);
        assert!(large > small * 100.0, "{large} vs {small}");
        // An extension is dominated by its memory-bound LPN phase: the
        // modeled time must exceed the pure LPN lower bound.
        let lpn_floor = roofline::lpn_traffic_bytes(
            FerretParams::OT_2POW20.n as u64,
            FerretParams::OT_2POW20.t as u64,
        ) / Roofline::xeon_5220r().mem_bw_bytes_per_s;
        assert!(model.extension_time_s() > lpn_floor);
    }

    #[test]
    fn headroom_accounting() {
        let model = HeadroomModel::xeon(FerretParams::toy());
        let obs = toy_observation(3_000);
        let predicted = model.predicted_supply(&obs);
        let h = model.server_headroom(&obs, predicted / 2.0);
        assert!((h.utilization - 0.5).abs() < 1e-9);
        assert!((h.headroom_cots_per_sec - predicted / 2.0).abs() < 1e-6);
        assert!(h.drift_cots_per_sec < 0.0);
        // Saturated past the model: drift goes positive, headroom clamps
        // at zero.
        let over = model.server_headroom(&obs, predicted * 1.25);
        assert!(over.drift_cots_per_sec > 0.0);
        assert_eq!(over.headroom_cots_per_sec, 0.0);
    }
}
