//! Sender-side full GGM tree expansion.

use crate::Arity;
use ironman_prg::{Block, PrgCounter, PrgKind, TreePrg};

/// The per-level structure of a tree: fanout and width of every level.
///
/// # Example
///
/// ```
/// use ironman_ggm::{Arity, LevelShape};
///
/// let shape = LevelShape::new(Arity::QUAD, 64);
/// assert_eq!(shape.depth(), 3);
/// assert_eq!(shape.widths(), &[4, 16, 64]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelShape {
    fanouts: Vec<usize>,
    widths: Vec<usize>,
}

impl LevelShape {
    /// Computes the shape for a tree of the given arity and leaf count.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two `>= 2` (see
    /// [`Arity::level_fanouts`]).
    pub fn new(arity: Arity, leaves: usize) -> Self {
        let fanouts = arity.level_fanouts(leaves);
        let mut widths = Vec::with_capacity(fanouts.len());
        let mut w = 1usize;
        for f in &fanouts {
            w *= f;
            widths.push(w);
        }
        LevelShape { fanouts, widths }
    }

    /// Number of levels below the root.
    pub fn depth(&self) -> usize {
        self.fanouts.len()
    }

    /// Fanout of each level (root's children are level 0).
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Width (node count) of each level.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Leaf count (width of the last level).
    pub fn leaves(&self) -> usize {
        *self.widths.last().expect("shape has at least one level")
    }

    /// One all-zero node buffer per level.
    pub(crate) fn zeroed_levels(&self) -> Vec<Vec<Block>> {
        self.widths.iter().map(|&w| vec![Block::ZERO; w]).collect()
    }

    /// Decomposes a leaf index into per-level branch digits
    /// (most-significant level first). Digit `i` is the branch taken at
    /// level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= leaves()`.
    pub fn digits(&self, leaf: usize) -> Vec<usize> {
        assert!(
            leaf < self.leaves(),
            "leaf index {} out of range {}",
            leaf,
            self.leaves()
        );
        let mut digits = vec![0usize; self.depth()];
        let mut rem = leaf;
        for (i, f) in self.fanouts.iter().enumerate().rev() {
            digits[i] = rem % f;
            rem /= f;
        }
        digits
    }
}

/// A fully expanded GGM tree (sender side, Step ① of Fig. 3(b)).
///
/// All levels are retained so tests can cross-check the receiver's
/// reconstruction node by node. The level sums — the `K^i_j` values fed
/// into the per-level OTs — and the leaf sum are accumulated while each
/// freshly expanded level is still hot in cache, so reading them later
/// costs nothing.
///
/// A tree owns its level buffers: [`GgmTree::expand_from`] re-expands the
/// same shape from a new seed in place, which is how the batched SPCOT
/// sender streams through its `t` trees without holding more than one.
#[derive(Clone, Debug)]
pub struct GgmTree {
    shape: LevelShape,
    levels: Vec<Vec<Block>>,
    sums: Vec<Vec<Block>>,
    counter: PrgCounter,
}

/// XORs `nodes` into one sum per within-parent branch position:
/// `sums[j] = ⊕ nodes[p·fanout + j]` over all parents `p`, with
/// `fanout = sums.len()`.
///
/// One strided pass: the level is folded onto a fixed row of `ROW`
/// accumulators (a compile-time width the compiler keeps in vector
/// registers, with no sum waiting on the previous sibling group's store),
/// and the row is folded onto the `fanout` sums at the end. Any fanout
/// dividing `ROW` — every [`Arity`] fanout — takes that path; others fall
/// through to the node-by-node tail.
pub(crate) fn branch_sums(nodes: &[Block], sums: &mut [Block]) {
    const ROW: usize = 32;
    let fanout = sums.len();
    let body = if ROW.is_multiple_of(fanout) {
        nodes.len() / ROW * ROW
    } else {
        0
    };
    let mut row = [Block::ZERO; ROW];
    for chunk in nodes[..body].chunks_exact(ROW) {
        for (acc, node) in row.iter_mut().zip(chunk) {
            *acc ^= *node;
        }
    }
    sums.fill(Block::ZERO);
    for (i, acc) in row.iter().enumerate() {
        sums[i % fanout] ^= *acc;
    }
    // `body` is a multiple of `fanout`, so the tail keeps its branches.
    for (i, node) in nodes[body..].iter().enumerate() {
        sums[i % fanout] ^= *node;
    }
}

/// `calls` primitive calls of `prg`'s family, as a counter.
pub(crate) fn calls_of<P: TreePrg + ?Sized>(prg: &P, calls: u64) -> PrgCounter {
    let mut counter = PrgCounter::new();
    match prg.kind() {
        PrgKind::Aes => counter.add_aes(calls),
        PrgKind::ChaCha { .. } => counter.add_chacha(calls),
    }
    counter
}

impl GgmTree {
    /// Expands `seed` into a tree with `leaves` leaves using `prg`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two `>= 2`, or if the PRG cannot
    /// produce the required fanout (AES PRGs are built with a fixed key
    /// count).
    pub fn expand<P: TreePrg + ?Sized>(prg: &P, seed: Block, arity: Arity, leaves: usize) -> Self {
        let mut tree = GgmTree::with_shape(LevelShape::new(arity, leaves));
        tree.expand_from(prg, seed);
        tree
    }

    /// An all-zero tree of the given shape, ready for
    /// [`Self::expand_from`].
    pub fn with_shape(shape: LevelShape) -> Self {
        let levels = shape.zeroed_levels();
        let sums = shape
            .fanouts()
            .iter()
            .map(|&f| vec![Block::ZERO; f])
            .collect();
        GgmTree {
            shape,
            levels,
            sums,
            counter: PrgCounter::new(),
        }
    }

    /// Re-expands this tree from `seed` in place, reusing its buffers:
    /// afterwards it is exactly `GgmTree::expand(prg, seed, ..)` of the
    /// same shape. Each level is one [`TreePrg::expand_level`] call — the
    /// breadth-first issue order that keeps the PRG's lanes full.
    pub fn expand_from<P: TreePrg + ?Sized>(&mut self, prg: &P, seed: Block) {
        let mut calls = 0u64;
        for lvl in 0..self.levels.len() {
            let (above, below) = self.levels.split_at_mut(lvl);
            let parents = above
                .last()
                .map_or(std::slice::from_ref(&seed), Vec::as_slice);
            let nodes = &mut below[0];
            calls += prg.expand_level(parents, self.shape.fanouts[lvl], nodes);
            branch_sums(nodes, &mut self.sums[lvl]);
        }
        self.counter = calls_of(prg, calls);
    }

    /// The tree's level shape.
    pub fn shape(&self) -> &LevelShape {
        &self.shape
    }

    /// Nodes of level `i` (level 0 = root's children).
    pub fn level(&self, i: usize) -> &[Block] {
        &self.levels[i]
    }

    /// The leaf layer (the sender's SPCOT output vector `w`).
    pub fn leaves(&self) -> &[Block] {
        self.levels.last().expect("tree has at least one level")
    }

    /// PRG primitive calls consumed by the expansion.
    pub fn counter(&self) -> PrgCounter {
        self.counter
    }

    /// Per-level branch sums `K^i_j`: the XOR of all level-`i` nodes whose
    /// within-parent branch position is `j` (Step ② of Fig. 3(b); for the
    /// binary case these are the paper's "even" and "odd" sums).
    pub fn level_sums(&self) -> Vec<Vec<Block>> {
        self.sums.clone()
    }

    /// XOR of all leaves — the value the sender masks with `Δ` and transmits
    /// for the receiver's α-th node recovery (Step ④).
    pub fn leaf_sum(&self) -> Block {
        let leaf_branches = self.sums.last().expect("tree has at least one level");
        Block::xor_all(leaf_branches.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_prg::{AesTreePrg, ChaChaTreePrg};

    fn chacha() -> ChaChaTreePrg {
        ChaChaTreePrg::new(Block::from(11u128), 8)
    }

    #[test]
    fn shape_binary() {
        let s = LevelShape::new(Arity::BINARY, 16);
        assert_eq!(s.depth(), 4);
        assert_eq!(s.widths(), &[2, 4, 8, 16]);
        assert_eq!(s.leaves(), 16);
    }

    #[test]
    fn digits_binary_match_bits() {
        let s = LevelShape::new(Arity::BINARY, 16);
        // 13 = 0b1101
        assert_eq!(s.digits(13), vec![1, 1, 0, 1]);
    }

    #[test]
    fn expansion_deterministic() {
        let prg = chacha();
        let a = GgmTree::expand(&prg, Block::from(1u128), Arity::QUAD, 64);
        let b = GgmTree::expand(&prg, Block::from(1u128), Arity::QUAD, 64);
        assert_eq!(a.leaves(), b.leaves());
    }

    #[test]
    fn leaf_count_matches() {
        let prg = chacha();
        for leaves in [2usize, 4, 64, 256, 8192] {
            let t = GgmTree::expand(&prg, Block::from(3u128), Arity::QUAD, leaves);
            assert_eq!(t.leaves().len(), leaves);
        }
    }

    #[test]
    fn chacha_quad_counts_match_formula() {
        // 4-ary ChaCha: one call per parent → (ℓ−1)/(m−1) calls for exact trees.
        let prg = chacha();
        let t = GgmTree::expand(&prg, Block::from(5u128), Arity::QUAD, 4096);
        assert_eq!(t.counter().chacha_calls, (4096 - 1) / 3);
        assert_eq!(t.counter().aes_calls, 0);
    }

    #[test]
    fn aes_binary_counts_match_paper() {
        // 2-ary AES: 2(ℓ−1) AES calls for ℓ leaves (paper's 2ℓ−2; their
        // "2ℓ−1" in §3.1 includes the root seed sampling).
        let prg = AesTreePrg::new(Block::from(2u128), 2);
        let t = GgmTree::expand(&prg, Block::from(5u128), Arity::BINARY, 4096);
        assert_eq!(t.counter().aes_calls, 2 * (4096 - 1));
    }

    #[test]
    fn level_sums_are_branch_xors() {
        let prg = chacha();
        let t = GgmTree::expand(&prg, Block::from(9u128), Arity::QUAD, 64);
        let sums = t.level_sums();
        assert_eq!(sums.len(), 3);
        for (lvl, s) in sums.iter().enumerate() {
            assert_eq!(s.len(), 4);
            let mut expect = vec![Block::ZERO; 4];
            for (idx, node) in t.level(lvl).iter().enumerate() {
                expect[idx % 4] ^= *node;
            }
            assert_eq!(*s, expect);
        }
    }

    #[test]
    fn binary_level_sums_are_even_odd() {
        let prg = AesTreePrg::new(Block::from(4u128), 2);
        let t = GgmTree::expand(&prg, Block::from(5u128), Arity::BINARY, 8);
        let sums = t.level_sums();
        let leaves = t.leaves();
        let even = Block::xor_all(leaves.iter().step_by(2).copied());
        let odd = Block::xor_all(leaves.iter().skip(1).step_by(2).copied());
        assert_eq!(sums[2], vec![even, odd]);
    }

    #[test]
    fn leaf_sum_is_total_xor() {
        let prg = chacha();
        let t = GgmTree::expand(&prg, Block::from(9u128), Arity::QUAD, 16);
        assert_eq!(t.leaf_sum(), Block::xor_all(t.leaves().iter().copied()));
    }

    #[test]
    fn mixed_fanout_tree() {
        // 8192 with 4-ary → final binary level must still be well-formed.
        let prg = chacha();
        let t = GgmTree::expand(&prg, Block::from(21u128), Arity::QUAD, 8192);
        assert_eq!(t.leaves().len(), 8192);
        let sums = t.level_sums();
        assert_eq!(sums.last().unwrap().len(), 2);
    }
}
