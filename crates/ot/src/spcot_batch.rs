//! The SPCOT protocol: all `t` trees of an extension advance through their
//! GGM levels together, one level at a time.
//!
//! Per m-ary level the receiver learns, for every tree, the branch sums of
//! every branch *except* the one on its punctured path: an
//! (m−1)-out-of-m OT (§4.2). Instead of `(m−1)·log2(m)` 1-out-of-2 OTs it
//! punctures an m-leaf binary GGM pad tree: the sender derives the m pads
//! as the pad tree's leaves, the receiver reconstructs every pad except
//! pad `α` (consuming `log2(m)` base COTs through the pad tree's per-level
//! sum OTs), and the sender sends all m sums masked by their pads. A
//! binary level transfers its one non-path sum by a single chosen OT.
//! Either way a depth-`ℓ` tree consumes exactly `log2(ℓ)` base COTs.
//!
//! Each level's OTs, every tree's and (on an m-ary level) every pad-tree
//! level's, go out as one chosen-OT batch, ordered pad-level-major across
//! trees, followed on an m-ary level by one message with every tree's
//! masked sums. A level costs one round trip whatever `t` and `m` are, so
//! an extension's round count is `O(depth)`, not `O(t · depth)` —
//! decisive under WAN RTTs (Fig. 7(c)'s regime) and the execution shape
//! the Ironman DIMM module's inter-tree parallelism (§4.3) assumes.

use crate::channel::{ChannelError, Transport};
use crate::chosen::{recv_chosen, send_chosen};
use crate::cot::{CotReceiver, CotSender};
use crate::spcot::SpcotConfig;
use ironman_ggm::{Arity, GgmTree, LevelShape, PuncturedTree};
use ironman_prg::{tree_prg::build_tree_prg, Aes128, AesTreePrg, Block, PrgCounter};

/// Domain separators deriving the pad-tree keys from the session key
/// (`"mot"` in ASCII, and a leet-speak "level").
const PAD_PRG_DOMAIN: u128 = 0x6d6f74;
const LEVEL_SEED_DOMAIN: u128 = 0x1e7e1;

/// The pad-tree PRG of a session. The pad tree is tiny (m ≤ 32 leaves) so
/// a binary AES expansion is used regardless of the outer tree's PRG; this
/// matches the paper's observation that the inner OT "follows the same
/// procedure as SPCOT" and needs no extra hardware.
fn pad_prg(session_key: Block) -> AesTreePrg {
    AesTreePrg::new(session_key ^ Block::from(PAD_PRG_DOMAIN), 2)
}

/// The cipher that derives every pad tree's seed for a session — one key
/// schedule per batch, not per tree and level.
fn level_seeder(session_key: Block) -> Aes128 {
    Aes128::new(session_key ^ Block::from(LEVEL_SEED_DOMAIN))
}

/// Seed of the level-`lvl` pad tree of the outer tree grown from
/// `outer_seed`.
fn level_seed(seeder: &Aes128, outer_seed: Block, lvl: usize) -> Block {
    seeder.encrypt_block(outer_seed ^ Block::from(lvl as u128))
}

/// Sender side: runs `seeds.len()` SPCOTs, one tree per seed.
/// `sink` is handed each tree's index, its leaf slice (borrowed from the
/// expanded tree) and its PRG counter, and accumulates wherever the
/// caller wants — the extension loop XORs straight into its length-`n`
/// LPN accumulator stripe.
///
/// The sender streams: one tree buffer is expanded, drained into `sink`
/// and reused, in index order and before the first message goes out; per
/// tree only the level sums and the masked leaf sum the messages need
/// stay resident (a few hundred bytes instead of every level of every
/// tree).
///
/// `tweak` is a monotone CRHF domain-separation counter shared by all OTs
/// of the session; it is advanced by the number of chosen OTs executed.
///
/// # Errors
///
/// Propagates channel failures.
pub fn spcot_batch_send_into<T: Transport + ?Sized>(
    ch: &mut T,
    cfg: &SpcotConfig,
    base: &mut CotSender,
    seeds: &[Block],
    tweak: &mut u64,
    mut sink: impl FnMut(usize, &[Block], PrgCounter),
) -> Result<(), ChannelError> {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let shape = LevelShape::new(cfg.arity, cfg.leaves);
    let mut tree = GgmTree::with_shape(shape.clone());
    let mut sums: Vec<Vec<Vec<Block>>> = Vec::with_capacity(seeds.len());
    let mut finals = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        tree.expand_from(prg.as_ref(), seed);
        sums.push(tree.level_sums());
        finals.push(base.delta() ^ tree.leaf_sum());
        sink(i, tree.leaves(), tree.counter());
    }

    let trees = seeds.len();
    let inner = pad_prg(cfg.session_key);
    let seeder = level_seeder(cfg.session_key);
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        // Pair (inner level l, tree t) sits at `l · trees + t`.
        let mut pairs = vec![(Block::ZERO, Block::ZERO); fanout.trailing_zeros() as usize * trees];
        let mut masked = Vec::new();
        if fanout == 2 {
            for (pair, sum) in pairs.iter_mut().zip(&sums) {
                *pair = (sum[lvl][0], sum[lvl][1]);
            }
        } else {
            let mut pad_tree = GgmTree::with_shape(LevelShape::new(Arity::BINARY, fanout));
            masked.reserve(trees * fanout);
            for (t, (&seed, sum)) in seeds.iter().zip(&sums).enumerate() {
                pad_tree.expand_from(&inner, level_seed(&seeder, seed, lvl));
                for (l, pad_sum) in pad_tree.level_sums().iter().enumerate() {
                    pairs[l * trees + t] = (pad_sum[0], pad_sum[1]);
                }
                masked.extend(
                    sum[lvl]
                        .iter()
                        .zip(pad_tree.leaves())
                        .map(|(&k, &pad)| k ^ pad),
                );
            }
        }
        send_chosen(ch, base, &pairs, *tweak)?;
        *tweak += pairs.len() as u64;
        if fanout > 2 {
            ch.send_blocks(&masked)?;
        }
    }
    // One message with every tree's masked leaf sum (step ④).
    ch.send_blocks(&finals)
}

/// Receiver side: `sink` is handed each tree's index, its punctured
/// position `α`, its recovered leaf slice (`w` with `Δ` added at `α`)
/// and its PRG counter (see [`spcot_batch_send_into`]).
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics if any `alpha` is out of range for `cfg.leaves`.
pub fn spcot_batch_recv_into<T: Transport + ?Sized>(
    ch: &mut T,
    cfg: &SpcotConfig,
    base: &mut CotReceiver,
    alphas: &[usize],
    tweak: &mut u64,
    mut sink: impl FnMut(usize, usize, &[Block], PrgCounter),
) -> Result<(), ChannelError> {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let shape = LevelShape::new(cfg.arity, cfg.leaves);
    let digits: Vec<Vec<usize>> = alphas.iter().map(|&a| shape.digits(a)).collect();

    // Collected per-tree, per-level branch sums.
    let mut level_sums: Vec<Vec<Vec<Block>>> = alphas
        .iter()
        .map(|_| Vec::with_capacity(shape.depth()))
        .collect();

    let trees = alphas.len();
    let inner = pad_prg(cfg.session_key);
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        // Per (inner level, tree), pad-level-major as the sender pairs
        // them: the complement of the tree's path bit at that level of its
        // pad tree — we want the sum of the branch we did NOT take.
        let inner_shape = LevelShape::new(Arity::BINARY, fanout);
        let inner_digits: Vec<Vec<usize>> =
            digits.iter().map(|d| inner_shape.digits(d[lvl])).collect();
        let choices: Vec<bool> = (0..inner_shape.depth())
            .flat_map(|l| inner_digits.iter().map(move |d| d[l] == 0))
            .collect();
        let got = recv_chosen(ch, base, &choices, *tweak)?;
        *tweak += choices.len() as u64;
        if fanout == 2 {
            for (t, sums) in level_sums.iter_mut().enumerate() {
                let mut s = vec![Block::ZERO; 2];
                s[1 - digits[t][lvl]] = got[t];
                sums.push(s);
            }
            continue;
        }
        let masked = ch.recv_blocks()?;
        assert_eq!(masked.len(), trees * fanout, "masked sum batch size");
        let mut pads = PuncturedTree::with_shape(inner_shape);
        for (t, sums) in level_sums.iter_mut().enumerate() {
            pads.reconstruct_at(&inner, digits[t][lvl], |l, j| {
                debug_assert_ne!(j, inner_digits[t][l]);
                got[l * trees + t]
            });
            let mut s = vec![Block::ZERO; fanout];
            for j in 0..fanout {
                if j != digits[t][lvl] {
                    s[j] = masked[t * fanout + j] ^ pads.leaves()[j];
                }
            }
            sums.push(s);
        }
    }

    let finals = ch.recv_blocks()?;
    assert_eq!(finals.len(), trees, "final masked-sum batch size");
    // One scratch tree serves all `t` reconstructions.
    let mut punct = PuncturedTree::with_shape(shape);
    for (t, &alpha) in alphas.iter().enumerate() {
        punct.reconstruct_at(prg.as_ref(), alpha, |l, j| {
            debug_assert_ne!(j, digits[t][l]);
            level_sums[t][l][j]
        });
        punct.recover_punctured(finals[t]);
        sink(t, alpha, punct.leaves(), punct.counter());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::run_protocol;
    use crate::dealer::Dealer;

    #[test]
    fn sender_streams_trees_in_order_through_one_buffer() {
        // `sink` sees tree 0, 1, 2, … and every leaf slice is the same
        // allocation: the sender holds one expanded tree, not `t`.
        let cfg = SpcotConfig::ironman(256, Block::from(8u128));
        let trees = 10;
        let mut dealer = Dealer::new(8);
        let delta = dealer.random_delta();
        let (mut sb, mut rb) = dealer.deal_cot(delta, trees * cfg.base_cots_needed());
        let seeds: Vec<Block> = (0..trees).map(|_| dealer.random_block()).collect();
        let alphas: Vec<usize> = (0..trees)
            .map(|_| dealer.random_index(cfg.leaves))
            .collect();
        let expected: Vec<Block> = {
            let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
            seeds
                .iter()
                .map(|&s| GgmTree::expand(prg.as_ref(), s, cfg.arity, cfg.leaves).leaves()[0])
                .collect()
        };
        let (seen, _, _, _) = run_protocol(
            move |ch| {
                let mut seen = Vec::new();
                spcot_batch_send_into(ch, &cfg, &mut sb, &seeds, &mut 0, |i, leaves, _| {
                    seen.push((i, leaves.as_ptr() as usize, leaves.len(), leaves[0]));
                })
                .unwrap();
                seen
            },
            move |ch| spcot_batch_recv_into(ch, &cfg, &mut rb, &alphas, &mut 0, |_, _, _, _| {}),
        );
        assert_eq!(seen.len(), trees);
        for (t, &(i, ptr, len, first)) in seen.iter().enumerate() {
            assert_eq!(i, t, "sink order");
            assert_eq!(ptr, seen[0].1, "tree {t} borrowed a second leaf buffer");
            assert_eq!(len, cfg.leaves);
            assert_eq!(first, expected[t], "tree {t} leaves");
        }
    }
}
