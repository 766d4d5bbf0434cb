//! The SPCOT protocol: all `t` trees of an extension in one exchange.
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
//! No OT choice depends on an earlier answer (each is a digit of a tree's
//! `α`), so every level's OTs go out as one chosen-OT batch, level-major
//! and pad-level-major across trees, answered by one payload and one
//! message with every tree's masked leaf sum and every m-ary level's
//! masked sums. An extension costs one round trip whatever `t`, `m` and
//! the depth are — decisive under WAN RTTs (Fig. 7(c)'s regime) and the
//! execution shape the Ironman DIMM module's inter-tree parallelism
//! (§4.3) assumes.
//!
//! The protocol is three local steps with no channel in them — the
//! receiver's [`flips`], the sender's [`answer`], the receiver's
//! [`finish`] — so one thread can run both parties back to back.
//! [`spcot_batch_send_into`] and [`spcot_batch_recv_into`] run them over
//! a [`Transport`]: one flip vector one way, the answer's two messages
//! the other. The sender takes the flips only once its trees are
//! expanded, so over a channel the expansion overlaps their trip.

use crate::channel::{ChannelError, Transport};
use crate::chosen;
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

/// The sender's whole reply to a batch's flips: the chosen-OT payload
/// (two blocks per OT, every level's OTs level-major and pad-level-major
/// across trees), then every tree's masked leaf sum followed by every
/// m-ary level's masked sums, tree-major within the level. Over a
/// [`Transport`] it is two messages, in that order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpcotAnswer {
    /// The chosen-OT payload.
    pub payload: Vec<Block>,
    /// The masked leaf sums, then the masked m-ary level sums.
    pub masked: Vec<Block>,
}

impl SpcotAnswer {
    /// Sends the answer as its two messages.
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub(crate) fn send<T: Transport + ?Sized>(&self, ch: &mut T) -> Result<(), ChannelError> {
        ch.send_blocks(&self.payload)?;
        ch.send_blocks(&self.masked)
    }

    /// Receives an answer's two messages (their lengths are checked by
    /// [`finish`]).
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub(crate) fn recv<T: Transport + ?Sized>(ch: &mut T) -> Result<SpcotAnswer, ChannelError> {
        Ok(SpcotAnswer {
            payload: ch.recv_blocks()?,
            masked: ch.recv_blocks()?,
        })
    }
}

/// Every chosen OT's choice, pad-level-major within each level as the
/// sender pairs them: per (inner level, tree) the complement of the
/// tree's path bit at that level of its pad tree (the level's digit in
/// binary, top bit first) — the receiver wants the sum of the branch it
/// did NOT take.
fn choices(shape: &LevelShape, digits: &[Vec<usize>]) -> Vec<bool> {
    let mut choices = Vec::new();
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        for bit in (0..fanout.trailing_zeros()).rev() {
            choices.extend(digits.iter().map(|d| (d[lvl] >> bit) & 1 == 0));
        }
    }
    choices
}

/// The receiver's first step for trees punctured at `alphas`: the flip
/// vector of every level's OTs, from the batch's `alphas.len() ·
/// cfg.base_cots_needed()` correlations in `base`.
///
/// # Panics
///
/// Panics if `base` holds another number of correlations, or if any
/// `alpha` is out of range for `cfg.leaves`.
pub fn flips(cfg: &SpcotConfig, base: &CotReceiver, alphas: &[usize]) -> Vec<bool> {
    let shape = LevelShape::new(cfg.arity, cfg.leaves);
    let digits: Vec<Vec<usize>> = alphas.iter().map(|&a| shape.digits(a)).collect();
    chosen::flips(base, &choices(&shape, &digits))
}

/// The sender's step: expands one tree per seed and answers the
/// receiver's flips from the batch's `seeds.len() ·
/// cfg.base_cots_needed()` correlations in `base`. `flips` is called
/// once, after every tree is expanded and just before the chosen-OT
/// payload is made: only the payload depends on the flips, so a driver
/// over a channel receives them while the trees expand. `sink` is handed
/// each tree's index, its leaf slice (borrowed from the expanded tree)
/// and its PRG counter, and accumulates wherever the caller wants — the
/// extension loop XORs straight into its length-`n` LPN accumulator
/// stripe.
///
/// The sender streams: one tree buffer is expanded, drained into `sink`
/// and reused, in index order; per tree only the level sums and the
/// masked leaf sum the answer needs stay resident (a few hundred bytes
/// instead of every level of every tree).
///
/// `tweak` is a monotone CRHF domain-separation counter shared by all OTs
/// of the session; it is advanced by the number of chosen OTs executed.
///
/// # Errors
///
/// Propagates an error from `flips`, and returns
/// [`ChannelError::Malformed`] if the flips do not cover every OT.
///
/// # Panics
///
/// Panics if `base` holds another number of correlations.
pub fn answer(
    cfg: &SpcotConfig,
    base: &CotSender,
    seeds: &[Block],
    flips: impl FnOnce() -> Result<Vec<bool>, ChannelError>,
    tweak: &mut u64,
    mut sink: impl FnMut(usize, &[Block], PrgCounter),
) -> Result<SpcotAnswer, ChannelError> {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let shape = LevelShape::new(cfg.arity, cfg.leaves);
    let mut tree = GgmTree::with_shape(shape.clone());
    let mut sums: Vec<Vec<Vec<Block>>> = Vec::with_capacity(seeds.len());
    // Every tree's masked leaf sum (step ④), then each m-ary level's
    // masked sums, tree-major within the level.
    let mut masked = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        tree.expand_from(prg.as_ref(), seed);
        sums.push(tree.level_sums());
        masked.push(base.delta() ^ tree.leaf_sum());
        sink(i, tree.leaves(), tree.counter());
    }

    let trees = seeds.len();
    let inner = pad_prg(cfg.session_key);
    let seeder = level_seeder(cfg.session_key);
    let mut pairs = Vec::with_capacity(trees * cfg.base_cots_needed());
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        // This level's pair (inner level l, tree t) sits at `l · trees + t`.
        let mut level = vec![(Block::ZERO, Block::ZERO); fanout.trailing_zeros() as usize * trees];
        if fanout == 2 {
            for (pair, sum) in level.iter_mut().zip(&sums) {
                *pair = (sum[lvl][0], sum[lvl][1]);
            }
        } else {
            let mut pad_tree = GgmTree::with_shape(LevelShape::new(Arity::BINARY, fanout));
            for (t, (&seed, sum)) in seeds.iter().zip(&sums).enumerate() {
                pad_tree.expand_from(&inner, level_seed(&seeder, seed, lvl));
                for (l, pad_sum) in pad_tree.level_sums().iter().enumerate() {
                    level[l * trees + t] = (pad_sum[0], pad_sum[1]);
                }
                masked.extend(
                    sum[lvl]
                        .iter()
                        .zip(pad_tree.leaves())
                        .map(|(&k, &pad)| k ^ pad),
                );
            }
        }
        pairs.extend(level);
    }
    let payload = chosen::answer(base, &pairs, &flips()?, *tweak)?;
    *tweak += pairs.len() as u64;
    Ok(SpcotAnswer { payload, masked })
}

/// The receiver's last step: recovers every tree from the sender's
/// `answer`, with the `base` and `alphas` [`flips`] was given. `sink` is
/// handed each tree's index, its punctured position `α`, its recovered
/// leaf slice (`w` with `Δ` added at `α`) and its PRG counter (see
/// [`answer`]); `tweak` advances as the sender's does.
///
/// # Errors
///
/// [`ChannelError::Malformed`] if either part of `answer` holds the wrong
/// number of blocks.
///
/// # Panics
///
/// As [`flips`].
pub fn finish(
    cfg: &SpcotConfig,
    base: &CotReceiver,
    alphas: &[usize],
    answer: &SpcotAnswer,
    tweak: &mut u64,
    mut sink: impl FnMut(usize, usize, &[Block], PrgCounter),
) -> Result<(), ChannelError> {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let shape = LevelShape::new(cfg.arity, cfg.leaves);
    let digits: Vec<Vec<usize>> = alphas.iter().map(|&a| shape.digits(a)).collect();
    let trees = alphas.len();

    let choices = choices(&shape, &digits);
    let mut got = &chosen::finish(base, &choices, &answer.payload, *tweak)?[..];
    let expected = trees * (1 + shape.fanouts().iter().filter(|&&f| f > 2).sum::<usize>());
    if answer.masked.len() != expected {
        return Err(ChannelError::Malformed {
            expected: 16 * expected,
            actual: 16 * answer.masked.len(),
        });
    }
    *tweak += choices.len() as u64;
    let (finals, mut masked) = answer.masked.split_at(trees);

    // Per-tree, per-level branch sums, recovered level by level.
    let mut level_sums: Vec<Vec<Vec<Block>>> = alphas
        .iter()
        .map(|_| Vec::with_capacity(shape.depth()))
        .collect();
    let inner = pad_prg(cfg.session_key);
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        let level_got;
        (level_got, got) = got.split_at(fanout.trailing_zeros() as usize * trees);
        if fanout == 2 {
            for (t, sums) in level_sums.iter_mut().enumerate() {
                let mut s = vec![Block::ZERO; 2];
                s[1 - digits[t][lvl]] = level_got[t];
                sums.push(s);
            }
            continue;
        }
        let level_masked;
        (level_masked, masked) = masked.split_at(trees * fanout);
        let mut pads = PuncturedTree::with_shape(LevelShape::new(Arity::BINARY, fanout));
        for (t, sums) in level_sums.iter_mut().enumerate() {
            pads.reconstruct_at(&inner, digits[t][lvl], |l, _| level_got[l * trees + t]);
            let mut s = vec![Block::ZERO; fanout];
            for j in 0..fanout {
                if j != digits[t][lvl] {
                    s[j] = level_masked[t * fanout + j] ^ pads.leaves()[j];
                }
            }
            sums.push(s);
        }
    }

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

/// Sender side over `ch`: runs `seeds.len()` SPCOTs, one tree per seed,
/// consuming their base correlations from the front of `base` — sends
/// the [`answer`] (whose `sink` and `tweak` these are) to the flips it
/// receives once the trees are expanded.
///
/// # Errors
///
/// Propagates channel failures, and returns [`ChannelError::Malformed`]
/// if the receiver's flip vector does not cover every OT.
pub fn spcot_batch_send_into<T: Transport + ?Sized>(
    ch: &mut T,
    cfg: &SpcotConfig,
    base: &mut CotSender,
    seeds: &[Block],
    tweak: &mut u64,
    sink: impl FnMut(usize, &[Block], PrgCounter),
) -> Result<(), ChannelError> {
    let batch = base.split_off_front(seeds.len() * cfg.base_cots_needed());
    answer(cfg, &batch, seeds, || ch.recv_bits(), tweak, sink)?.send(ch)
}

/// Receiver side over `ch`, consuming the batch's base correlations from
/// the front of `base`: sends the [`flips`] and [`finish`]es on the
/// answer (whose `sink` and `tweak` these are).
///
/// # Errors
///
/// Propagates channel failures, and returns [`ChannelError::Malformed`]
/// if a sender message holds the wrong number of blocks.
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
    sink: impl FnMut(usize, usize, &[Block], PrgCounter),
) -> Result<(), ChannelError> {
    let batch = base.split_off_front(alphas.len() * cfg.base_cots_needed());
    ch.send_bits(&flips(cfg, &batch, alphas))?;
    finish(cfg, &batch, alphas, &SpcotAnswer::recv(ch)?, tweak, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::run_protocol;
    use crate::dealer::Dealer;

    #[test]
    fn sender_takes_the_flips_after_expanding_every_tree() {
        // Over a channel the flips' trip overlaps the expansion: `answer`
        // asks for them only once `sink` has seen every tree.
        let cfg = SpcotConfig::ironman(256, Block::from(9u128));
        let trees = 4;
        let mut dealer = Dealer::new(9);
        let delta = dealer.random_delta();
        let (sb, rb) = dealer.deal_cot(delta, trees * cfg.base_cots_needed());
        let seeds: Vec<Block> = (0..trees).map(|_| dealer.random_block()).collect();
        let alphas: Vec<usize> = (0..trees).map(|t| 3 * t + 1).collect();
        let expanded = std::cell::Cell::new(0);
        answer(
            &cfg,
            &sb,
            &seeds,
            || {
                assert_eq!(expanded.get(), trees, "flips taken before every tree");
                Ok(flips(&cfg, &rb, &alphas))
            },
            &mut 0,
            |_, _, _| expanded.set(expanded.get() + 1),
        )
        .unwrap();
    }

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
