//! Test oracles: the per-parent tree loops the level-kernel paths
//! replaced, kept verbatim as the reference [`GgmTree::expand`] and
//! [`PuncturedTree::reconstruct`] must equal bit for bit and call for call.

use crate::tree::calls_of;
use crate::{Arity, GgmTree, LevelShape, PuncturedTree};
use ironman_prg::{AesTreePrg, Block, ChaChaTreePrg, LevelTier, PrgCounter, PrgKind, TreePrg};

/// Every level of the tree, one `expand` call per parent.
fn expand_per_parent<P: TreePrg + ?Sized>(
    prg: &P,
    seed: Block,
    shape: &LevelShape,
) -> (Vec<Vec<Block>>, PrgCounter) {
    let mut levels: Vec<Vec<Block>> = Vec::with_capacity(shape.depth());
    let mut counter = PrgCounter::new();
    let mut current = vec![seed];
    for (&fanout, &width) in shape.fanouts().iter().zip(shape.widths().iter()) {
        let mut next = vec![Block::ZERO; width];
        let mut calls = 0u64;
        for (parent, chunk) in current.iter().zip(next.chunks_mut(fanout)) {
            calls += prg.expand(*parent, chunk);
        }
        counter += calls_of(prg, calls);
        levels.push(next.clone());
        current = next;
    }
    (levels, counter)
}

/// Branch sums by definition: node `idx` belongs to branch `idx % fanout`.
fn level_sums_by_definition(shape: &LevelShape, levels: &[Vec<Block>]) -> Vec<Vec<Block>> {
    shape
        .fanouts()
        .iter()
        .zip(levels)
        .map(|(&fanout, nodes)| {
            let mut sums = vec![Block::ZERO; fanout];
            for (idx, node) in nodes.iter().enumerate() {
                sums[idx % fanout] ^= *node;
            }
            sums
        })
        .collect()
}

/// The receiver's leaves, one `expand` call per known parent and a
/// `fanout × width` scan per level.
fn reconstruct_per_parent<P, F>(
    prg: &P,
    shape: &LevelShape,
    alpha: usize,
    sum_for: F,
) -> (Vec<Block>, PrgCounter)
where
    P: TreePrg + ?Sized,
    F: Fn(usize, usize) -> Block,
{
    let digits = shape.digits(alpha);
    let mut counter = PrgCounter::new();
    let mut current: Vec<Block> = Vec::new();
    let mut punct_idx = 0usize;
    for (lvl, (&fanout, &width)) in shape
        .fanouts()
        .iter()
        .zip(shape.widths().iter())
        .enumerate()
    {
        let mut next = vec![Block::ZERO; width];
        let mut calls = 0u64;
        if lvl > 0 {
            for (p, parent) in current.iter().enumerate() {
                if p == punct_idx {
                    continue;
                }
                let start = p * fanout;
                calls += prg.expand(*parent, &mut next[start..start + fanout]);
            }
        }
        let a = digits[lvl];
        let new_punct_parent = if lvl == 0 { 0 } else { punct_idx };
        for j in 0..fanout {
            if j == a {
                continue;
            }
            let mut acc = sum_for(lvl, j);
            for (idx, node) in next.iter().enumerate() {
                if idx % fanout == j && idx / fanout != new_punct_parent {
                    acc ^= *node;
                }
            }
            next[new_punct_parent * fanout + j] = acc;
        }
        punct_idx = new_punct_parent * fanout + a;
        counter += calls_of(prg, calls);
        current = next;
    }
    assert_eq!(punct_idx, alpha);
    (current, counter)
}

/// Every α up to 512 leaves; above that the edges, the midpoint pair and
/// a multiplicative-hash sample.
fn alphas(leaves: usize) -> Vec<usize> {
    if leaves <= 512 {
        return (0..leaves).collect();
    }
    let mut picks = vec![0, 1, leaves / 2 - 1, leaves / 2, leaves - 2, leaves - 1];
    picks.extend((1..=6).map(|i| i * 2_654_435_761 % leaves));
    picks
}

fn assert_trees_match_oracle<P: TreePrg + ?Sized>(
    prg: &P,
    arity: Arity,
    leaves: usize,
    alphas: &[usize],
) {
    let what = format!("{:?} {arity} {leaves} leaves", prg.kind());
    let shape = LevelShape::new(arity, leaves);
    let seed = Block::from(0x5eed_0000u128 + leaves as u128);
    let (levels, counter) = expand_per_parent(prg, seed, &shape);
    let sums = level_sums_by_definition(&shape, &levels);
    let leaf_sum = Block::xor_all(levels.last().unwrap().iter().copied());

    let tree = GgmTree::expand(prg, seed, arity, leaves);
    for (lvl, nodes) in levels.iter().enumerate() {
        assert_eq!(tree.level(lvl), nodes.as_slice(), "{what}: level {lvl}");
    }
    assert_eq!(tree.level_sums(), sums, "{what}: level sums");
    assert_eq!(tree.leaf_sum(), leaf_sum, "{what}: leaf sum");
    assert_eq!(tree.counter(), counter, "{what}: sender PRG calls");

    // One scratch tree across all α, as the batched receiver uses it;
    // the one-shot constructor is the same code on a fresh tree.
    let mut scratch = PuncturedTree::with_shape(shape.clone());
    for &alpha in alphas {
        let digits = shape.digits(alpha);
        let sum_for = |lvl: usize, j: usize| {
            assert_ne!(j, digits[lvl], "{what}: hidden branch sum read");
            sums[lvl][j]
        };
        let (expect, expect_counter) = reconstruct_per_parent(prg, &shape, alpha, sum_for);
        scratch.reconstruct_at(prg, alpha, sum_for);
        assert_eq!(scratch.alpha(), alpha);
        assert_eq!(scratch.leaves(), expect, "{what}: leaves, α = {alpha}");
        assert_eq!(
            scratch.known_leaf_sum(),
            leaf_sum ^ levels.last().unwrap()[alpha],
            "{what}: known leaf sum, α = {alpha}"
        );
        assert_eq!(
            scratch.counter(),
            expect_counter,
            "{what}: receiver PRG calls, α = {alpha}"
        );
    }
}

#[test]
fn chacha_trees_equal_per_parent_oracle() {
    let prg = ChaChaTreePrg::new(Block::from(0xc4ac4au128), 8);
    for arity in Arity::SWEEP {
        for leaves in [2usize, 4, 64, 512, 4096, 8192] {
            assert_trees_match_oracle(&prg, arity, leaves, &alphas(leaves));
        }
    }
}

/// A ChaCha tree PRG whose levels run on one fixed kernel tier, whatever
/// [`LevelTier::detect`] would pick.
struct OnTier(ChaChaTreePrg, LevelTier);

impl TreePrg for OnTier {
    fn blocks_per_call(&self) -> usize {
        self.0.blocks_per_call()
    }

    fn expand(&self, parent: Block, children: &mut [Block]) -> u64 {
        self.0.expand(parent, children)
    }

    fn expand_level(&self, parents: &[Block], fanout: usize, children: &mut [Block]) -> u64 {
        self.0.expand_level_on(self.1, parents, fanout, children)
    }

    fn kind(&self) -> PrgKind {
        self.0.kind()
    }
}

#[test]
fn chacha_trees_equal_per_parent_oracle_on_every_level_tier() {
    // OT_2POW20's tree. The receiver's two runs around the punctured
    // parent end in a padded partial vector: α = 4q + 3 for q in 0..=16
    // puts the hole at parent q of the last level, so the runs on either
    // side take every length mod 16, and the edges, a vector boundary
    // and a sample cover the upper levels.
    let leaves = 4096;
    let mut picks = vec![0, 1, 7, 8, 15, 16, 17, 4095];
    picks.extend((0..=16).map(|q| 4 * q + 3));
    picks.extend(alphas(leaves));
    for &tier in LevelTier::available() {
        let prg = OnTier(ChaChaTreePrg::new(Block::from(0x71e5u128), 8), tier);
        assert_trees_match_oracle(&prg, Arity::QUAD, leaves, &picks);
    }
}

#[test]
fn aes_trees_equal_per_parent_oracle() {
    // The provided per-parent `expand_level` default, through the same
    // split-around-the-hole tree code.
    for arity in Arity::SWEEP {
        let prg = AesTreePrg::new(Block::from(0xae5u128), arity.get());
        for leaves in [2usize, 4, 64, 128] {
            assert_trees_match_oracle(&prg, arity, leaves, &alphas(leaves));
        }
    }
}

#[test]
fn reused_tree_forgets_its_previous_expansion() {
    let prg = ChaChaTreePrg::new(Block::from(3u128), 8);
    let mut tree = GgmTree::expand(&prg, Block::from(1u128), Arity::QUAD, 512);
    tree.expand_from(&prg, Block::from(2u128));
    let fresh = GgmTree::expand(&prg, Block::from(2u128), Arity::QUAD, 512);
    assert_eq!(tree.leaves(), fresh.leaves());
    assert_eq!(tree.level_sums(), fresh.level_sums());
    assert_eq!(tree.leaf_sum(), fresh.leaf_sum());
    assert_eq!(tree.counter(), fresh.counter());
}
