//! Receiver-side punctured GGM tree reconstruction (Step ③ of Fig. 3(b)).
//!
//! The receiver knows the branch digits of the punctured index `α` and, for
//! each level `i`, obtains through OT the branch sums `K^i_j` for every
//! branch `j ≠ α_i`. From those it reconstructs all nodes of the tree except
//! the ones on the punctured path; in particular, all leaves except leaf `α`.

use crate::tree::{branch_sums, calls_of};
use crate::{Arity, LevelShape};
use ironman_prg::{Block, PrgCounter, TreePrg};

/// A GGM tree with one unknown (punctured) leaf.
///
/// Like [`crate::GgmTree`], a punctured tree owns its level buffers and
/// [`PuncturedTree::reconstruct_at`] rebuilds it in place for a new `α`
/// and new sums — the batched SPCOT receiver runs its `t`
/// reconstructions through one scratch tree.
#[derive(Clone, Debug)]
pub struct PuncturedTree {
    shape: LevelShape,
    alpha: usize,
    levels: Vec<Vec<Block>>,
    /// Scratch for one level's branch sums (widest fanout).
    sums: Vec<Block>,
    known_sum: Block,
    counter: PrgCounter,
}

impl PuncturedTree {
    /// Reconstructs the tree from per-level branch sums.
    ///
    /// `sum_for(level, branch)` must return the sender's `K^level_branch`
    /// for every `branch != α_level`; it is never called with
    /// `branch == α_level` (the receiver cannot learn that sum — this is
    /// what hides the punctured leaf). In the protocol those values arrive
    /// via (m−1)-out-of-m OT; tests pass a closure over the sender's sums.
    ///
    /// The punctured leaf position holds [`Block::ZERO`] until
    /// [`Self::recover_punctured`] fills it in.
    ///
    /// # Panics
    ///
    /// Panics if `alpha >= leaves` or `leaves` is not a power of two `>= 2`.
    pub fn reconstruct<P, F>(prg: &P, arity: Arity, leaves: usize, alpha: usize, sum_for: F) -> Self
    where
        P: TreePrg + ?Sized,
        F: Fn(usize, usize) -> Block,
    {
        let mut tree = PuncturedTree::with_shape(LevelShape::new(arity, leaves));
        tree.reconstruct_at(prg, alpha, sum_for);
        tree
    }

    /// An all-zero tree of the given shape, ready for
    /// [`Self::reconstruct_at`].
    pub fn with_shape(shape: LevelShape) -> Self {
        let levels = shape.zeroed_levels();
        let widest = shape.fanouts().iter().copied().max().unwrap_or(0);
        PuncturedTree {
            shape,
            alpha: 0,
            levels,
            sums: vec![Block::ZERO; widest],
            known_sum: Block::ZERO,
            counter: PrgCounter::new(),
        }
    }

    /// Rebuilds this tree in place for a new punctured index and new
    /// sums, reusing its buffers: afterwards it is exactly
    /// `PuncturedTree::reconstruct(prg, .., alpha, sum_for)` of the same
    /// shape.
    ///
    /// Per level, the known parents on either side of the punctured one
    /// go through [`TreePrg::expand_level`] (two runs, so the punctured
    /// parent costs no PRG call), then one strided pass over the level
    /// yields every branch's known-node XOR, from which the punctured
    /// parent's other children follow: `sibling_j = K_j ⊕ ⊕(known level
    /// nodes at branch j)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is out of range for the shape's leaf count.
    pub fn reconstruct_at<P, F>(&mut self, prg: &P, alpha: usize, sum_for: F)
    where
        P: TreePrg + ?Sized,
        F: Fn(usize, usize) -> Block,
    {
        let leaves = self.shape.leaves();
        assert!(
            alpha < leaves,
            "alpha {alpha} out of range for {leaves} leaves"
        );
        let digits = self.shape.digits(alpha);
        let mut calls = 0u64;
        // Index of the punctured node in the level above (level 0's
        // parent is the root, which the receiver never knows).
        let mut punct = 0usize;
        for (lvl, &fanout) in self.shape.fanouts().iter().enumerate() {
            let (above, below) = self.levels.split_at_mut(lvl);
            let nodes = &mut below[0];
            let hole = punct * fanout..(punct + 1) * fanout;
            if let Some(parents) = above.last() {
                calls += prg.expand_level(&parents[..punct], fanout, &mut nodes[..hole.start]);
                calls += prg.expand_level(&parents[punct + 1..], fanout, &mut nodes[hole.end..]);
            }
            nodes[hole.clone()].fill(Block::ZERO);
            let sums = &mut self.sums[..fanout];
            branch_sums(nodes, sums);
            for (j, (slot, known)) in nodes[hole.clone()].iter_mut().zip(sums.iter()).enumerate() {
                if j != digits[lvl] {
                    *slot = sum_for(lvl, j) ^ *known;
                }
            }
            punct = hole.start + digits[lvl];
            // Every known node of this level: those outside the hole plus
            // the recovered siblings inside it (the path slot is still
            // ZERO). The last level's is the known leaf sum.
            self.known_sum = Block::xor_all(sums.iter().chain(&nodes[hole]).copied());
        }
        debug_assert_eq!(punct, alpha);
        self.alpha = alpha;
        self.counter = calls_of(prg, calls);
    }

    /// The punctured leaf index `α`.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The tree's level shape.
    pub fn shape(&self) -> &LevelShape {
        &self.shape
    }

    /// The leaf layer; position [`Self::alpha`] is ZERO (or the recovered
    /// value after [`Self::recover_punctured`]).
    pub fn leaves(&self) -> &[Block] {
        self.levels.last().expect("tree has at least one level")
    }

    /// PRG primitive calls consumed by the reconstruction.
    pub fn counter(&self) -> PrgCounter {
        self.counter
    }

    /// XOR of all *known* leaves (everything except `α`), accumulated
    /// during reconstruction.
    pub fn known_leaf_sum(&self) -> Block {
        self.known_sum
    }

    /// Step ④ (α-th node recovery): given the sender's `c = Δ ⊕ ⊕_i w_i`,
    /// fills in the punctured leaf with `v_α = c ⊕ ⊕_{i≠α} v_i`, which
    /// satisfies `w_α = v_α ⊕ Δ`.
    pub fn recover_punctured(&mut self, masked_leaf_sum: Block) {
        let recovered = masked_leaf_sum ^ self.known_sum;
        let alpha = self.alpha;
        self.levels.last_mut().expect("tree has at least one level")[alpha] = recovered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GgmTree;
    use ironman_prg::{AesTreePrg, ChaChaTreePrg};

    fn check_reconstruction<P: TreePrg>(prg: &P, arity: Arity, leaves: usize, alpha: usize) {
        let tree = GgmTree::expand(prg, Block::from(99u128), arity, leaves);
        let sums = tree.level_sums();
        let digits = tree.shape().digits(alpha);
        let punct = PuncturedTree::reconstruct(prg, arity, leaves, alpha, |lvl, j| {
            assert_ne!(j, digits[lvl], "receiver asked for the hidden branch sum");
            sums[lvl][j]
        });
        for (i, leaf) in punct.leaves().iter().enumerate() {
            if i == alpha {
                assert_eq!(*leaf, Block::ZERO);
            } else {
                assert_eq!(
                    *leaf,
                    tree.leaves()[i],
                    "leaf {i} mismatched (alpha={alpha})"
                );
            }
        }
    }

    #[test]
    fn binary_reconstruction_all_alphas() {
        let prg = AesTreePrg::new(Block::from(7u128), 2);
        for alpha in 0..16 {
            check_reconstruction(&prg, Arity::BINARY, 16, alpha);
        }
    }

    #[test]
    fn quad_reconstruction_all_alphas() {
        let prg = ChaChaTreePrg::new(Block::from(8u128), 8);
        for alpha in 0..64 {
            check_reconstruction(&prg, Arity::QUAD, 64, alpha);
        }
    }

    #[test]
    fn wide_arity_reconstruction() {
        let prg = ChaChaTreePrg::new(Block::from(13u128), 8);
        for arity in Arity::SWEEP {
            check_reconstruction(&prg, arity, 1024, 513);
        }
    }

    #[test]
    fn mixed_fanout_reconstruction() {
        let prg = ChaChaTreePrg::new(Block::from(17u128), 8);
        // 8192 = 4^6 * 2 exercises the partial final level.
        for alpha in [0usize, 1, 4095, 4096, 8191] {
            check_reconstruction(&prg, Arity::QUAD, 8192, alpha);
        }
    }

    #[test]
    fn recover_punctured_satisfies_correlation() {
        let prg = ChaChaTreePrg::new(Block::from(5u128), 8);
        let delta = Block::from(0xabcdefu128);
        let tree = GgmTree::expand(&prg, Block::from(3u128), Arity::QUAD, 64);
        let sums = tree.level_sums();
        let alpha = 37;
        let mut punct =
            PuncturedTree::reconstruct(&prg, Arity::QUAD, 64, alpha, |lvl, j| sums[lvl][j]);
        punct.recover_punctured(delta ^ tree.leaf_sum());
        // w_α = v_α ⊕ Δ
        assert_eq!(tree.leaves()[alpha], punct.leaves()[alpha] ^ delta);
    }

    #[test]
    fn receiver_does_fewer_expansions_than_sender() {
        let prg = ChaChaTreePrg::new(Block::from(5u128), 8);
        let tree = GgmTree::expand(&prg, Block::from(3u128), Arity::QUAD, 4096);
        let sums = tree.level_sums();
        let punct = PuncturedTree::reconstruct(&prg, Arity::QUAD, 4096, 100, |lvl, j| sums[lvl][j]);
        assert!(punct.counter().total() < tree.counter().total());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn alpha_out_of_range_panics() {
        let prg = AesTreePrg::new(Block::from(7u128), 2);
        let _ = PuncturedTree::reconstruct(&prg, Arity::BINARY, 8, 8, |_, _| Block::ZERO);
    }
}
