//! Correlation-robust hash function (CRHF).
//!
//! COT correlations `(r0, r1 = r0 ⊕ Δ)` leak their structure, so they are
//! converted into standard OT pads `(H(r0), H(r1))` with a correlation-robust
//! hash before use (Fig. 2 of the paper, following Ishai et al. \[49\]). We
//! implement the standard MMO construction over fixed-key AES:
//! `H(i, x) = π(σ(x) ⊕ i) ⊕ σ(x)` with `σ` a linear orthomorphism and `π`
//! a fixed-key AES permutation — the same construction used by production
//! OT libraries (EMP, libOTe).

use crate::{Aes128, Block};

/// A correlation-robust hash with a fixed AES permutation.
///
/// # Example
///
/// ```
/// use ironman_prg::{Block, Crhf};
///
/// let h = Crhf::new();
/// let delta = Block::from(0xffu128);
/// let r0 = Block::from(3u128);
/// // Hashes of correlated strings look unrelated:
/// assert_ne!(h.hash(0, r0) ^ h.hash(0, r0 ^ delta), delta);
/// ```
#[derive(Clone, Debug)]
pub struct Crhf {
    pi: Aes128,
}

impl Default for Crhf {
    fn default() -> Self {
        Self::new()
    }
}

impl Crhf {
    /// Creates the CRHF with the workspace's fixed permutation key.
    pub fn new() -> Self {
        Crhf {
            pi: Aes128::fixed(),
        }
    }

    /// The linear orthomorphism `σ(a ‖ b) = (a ⊕ b) ‖ a` (halves swapped and
    /// mixed). Linear, and `σ(x) ⊕ x` is also a permutation — the property
    /// the MMO security proof needs.
    #[inline]
    pub fn sigma(x: Block) -> Block {
        let (hi, lo) = x.to_halves();
        Block::from_halves(hi ^ lo, hi)
    }

    /// Hashes `x` under tweak `i` (typically the OT index):
    /// `H(i, x) = π(σ(x) ⊕ i) ⊕ σ(x)`.
    #[inline]
    pub fn hash(&self, index: u64, x: Block) -> Block {
        let s = Self::sigma(x) ^ Block::from(index as u128);
        self.pi.encrypt_block(s) ^ s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_is_linear() {
        let a = Block::from(0x1234u128);
        let b = Block::from(0x99999u128);
        assert_eq!(Crhf::sigma(a) ^ Crhf::sigma(b), Crhf::sigma(a ^ b));
    }

    #[test]
    fn sigma_is_a_permutation_on_samples() {
        // Injectivity spot check over a structured sample set.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u128 {
            assert!(seen.insert(Crhf::sigma(Block::from(i * 0x1_0001))));
        }
    }

    #[test]
    fn hash_depends_on_index() {
        let h = Crhf::new();
        let x = Block::from(42u128);
        assert_ne!(h.hash(0, x), h.hash(1, x));
    }

    #[test]
    fn hash_depends_on_input() {
        let h = Crhf::new();
        assert_ne!(h.hash(0, Block::from(1u128)), h.hash(0, Block::from(2u128)));
    }

    #[test]
    fn correlation_is_destroyed() {
        // For many (r0, Δ), H(r0) ⊕ H(r0 ⊕ Δ) should not equal Δ (it should
        // look random). Check no collision with Δ over a sample.
        let h = Crhf::new();
        let delta = Block::from(0xdeadbeefu128);
        for i in 0..256u128 {
            let r0 = Block::from(i * 7 + 1);
            let d = h.hash(i as u64, r0) ^ h.hash(i as u64, r0 ^ delta);
            assert_ne!(d, delta);
        }
    }
}
