//! Configuration of the SPCOT (single-point correlated OT) sub-protocol,
//! §2.3.1 + §4.
//!
//! Sender input: the global offset `Δ` and a fresh seed. Receiver input: a
//! punctured position `α`. Outputs satisfy `w = v ⊕ u·Δ` where `u` is the
//! one-hot indicator of `α`:
//!
//! * sender: `w` — the `ℓ` GGM leaves;
//! * receiver: `v` — equal to `w` everywhere except `v[α] = w[α] ⊕ Δ`.
//!
//! [`SpcotConfig`] spans the §4.1 optimization space (tree arity and PRG);
//! the protocol, which runs all of an extension's trees in one round
//! trip, is [`crate::spcot_batch`].

use ironman_ggm::Arity;
use ironman_prg::{Block, PrgKind};

/// Static configuration of one SPCOT execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpcotConfig {
    /// GGM tree arity (`m`).
    pub arity: Arity,
    /// PRG instantiation.
    pub prg: PrgKind,
    /// Leaf count `ℓ` (power of two).
    pub leaves: usize,
    /// Session key from which all PRG keys are derived.
    pub session_key: Block,
}

impl SpcotConfig {
    /// The paper's optimized configuration: 4-ary tree, ChaCha8 PRG.
    pub fn ironman(leaves: usize, session_key: Block) -> Self {
        SpcotConfig {
            arity: Arity::QUAD,
            prg: PrgKind::CHACHA8,
            leaves,
            session_key,
        }
    }

    /// The CPU-baseline configuration: binary tree, AES PRG.
    pub fn ferret_baseline(leaves: usize, session_key: Block) -> Self {
        SpcotConfig {
            arity: Arity::BINARY,
            prg: PrgKind::Aes,
            leaves,
            session_key,
        }
    }

    /// Base COTs consumed by one execution (`log2(ℓ)` regardless of arity,
    /// thanks to the GGM-based (m−1)-out-of-m OT).
    pub fn base_cots_needed(&self) -> usize {
        self.leaves.trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_cot_budget_is_log_leaves() {
        for (leaves, expect) in [(64usize, 6usize), (1024, 10), (8192, 13)] {
            let cfg = SpcotConfig::ironman(leaves, Block::ZERO);
            assert_eq!(cfg.base_cots_needed(), expect);
        }
    }
}
