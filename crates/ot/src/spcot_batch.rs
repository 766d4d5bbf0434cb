//! Level-batched SPCOT: all `t` trees of an extension advance through
//! their GGM levels together, with one message per level instead of one
//! conversation per tree.
//!
//! Production Ferret implementations batch this way; it collapses the
//! round count from `O(t · depth)` to `O(depth)` — decisive under WAN RTTs
//! (Fig. 7(c)'s regime) and exactly the execution shape the Ironman DIMM
//! module's inter-tree parallelism (§4.3) assumes. The per-tree *outputs*
//! are identical to the sequential protocol of [`crate::spcot`]: batching
//! only reorders messages.

use crate::channel::{ChannelError, Transport};
use crate::chosen::{recv_chosen, send_chosen};
use crate::cot::{CotReceiver, CotSender};
use crate::mot::{level_seed, level_seeder, pad_prg};
use crate::spcot::SpcotConfig;
use ironman_ggm::{Arity, GgmTree, LevelShape, PuncturedTree};
use ironman_prg::{tree_prg::build_tree_prg, Block, PrgCounter};

/// Sender side: runs `seeds.len()` SPCOTs with per-level batching.
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

    let inner = pad_prg(cfg.session_key);
    let seeder = level_seeder(cfg.session_key);
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        if fanout == 2 {
            // One chosen-OT batch covering every tree's (K0, K1).
            let pairs: Vec<(Block, Block)> = sums.iter().map(|s| (s[lvl][0], s[lvl][1])).collect();
            send_chosen(ch, base, &pairs, *tweak)?;
            *tweak += pairs.len() as u64;
        } else {
            // Batched (f−1)-out-of-f OT: per inner level one chosen-OT
            // batch across trees, then one message with all masked sums.
            let mut pad_tree = GgmTree::with_shape(LevelShape::new(Arity::BINARY, fanout));
            let mut pad_sums = Vec::with_capacity(seeds.len());
            let mut masked = Vec::with_capacity(seeds.len() * fanout);
            for (&seed, sum) in seeds.iter().zip(sums.iter()) {
                pad_tree.expand_from(&inner, level_seed(&seeder, seed, lvl));
                pad_sums.push(pad_tree.level_sums());
                masked.extend(
                    sum[lvl]
                        .iter()
                        .zip(pad_tree.leaves())
                        .map(|(&k, &pad)| k ^ pad),
                );
            }
            for inner_lvl in 0..fanout.trailing_zeros() as usize {
                let pairs: Vec<(Block, Block)> = pad_sums
                    .iter()
                    .map(|s| (s[inner_lvl][0], s[inner_lvl][1]))
                    .collect();
                send_chosen(ch, base, &pairs, *tweak)?;
                *tweak += pairs.len() as u64;
            }
            ch.send_blocks(&masked)?;
        }
    }
    // One message with every tree's masked leaf sum (step ④, batched).
    ch.send_blocks(&finals)
}

/// Receiver side of the batched protocol: `sink` is handed each tree's
/// index, its punctured position `α`, its recovered leaf slice and its
/// PRG counter (see [`spcot_batch_send_into`]).
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

    let inner = pad_prg(cfg.session_key);
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        if fanout == 2 {
            let choices: Vec<bool> = digits.iter().map(|d| d[lvl] == 0).collect();
            let got = recv_chosen(ch, base, &choices, *tweak)?;
            *tweak += choices.len() as u64;
            for (t, sums) in level_sums.iter_mut().enumerate() {
                let mut s = vec![Block::ZERO; 2];
                s[1 - digits[t][lvl]] = got[t];
                sums.push(s);
            }
        } else {
            let inner_depth = fanout.trailing_zeros() as usize;
            let inner_shape = LevelShape::new(Arity::BINARY, fanout);
            let inner_digits: Vec<Vec<usize>> =
                digits.iter().map(|d| inner_shape.digits(d[lvl])).collect();
            // Per inner level, one chosen-OT batch across trees.
            let mut inner_sums: Vec<Vec<Block>> = vec![Vec::new(); alphas.len()];
            for inner_lvl in 0..inner_depth {
                let choices: Vec<bool> = inner_digits.iter().map(|d| d[inner_lvl] == 0).collect();
                let got = recv_chosen(ch, base, &choices, *tweak)?;
                *tweak += choices.len() as u64;
                for (t, s) in inner_sums.iter_mut().enumerate() {
                    s.push(got[t]);
                }
            }
            let masked = ch.recv_blocks()?;
            assert_eq!(masked.len(), alphas.len() * fanout, "masked sum batch size");
            let mut pads = PuncturedTree::with_shape(inner_shape);
            for (t, sums) in level_sums.iter_mut().enumerate() {
                pads.reconstruct_at(&inner, digits[t][lvl], |l, j| {
                    debug_assert_ne!(j, inner_digits[t][l]);
                    inner_sums[t][l]
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
    }

    let finals = ch.recv_blocks()?;
    assert_eq!(finals.len(), alphas.len(), "final masked-sum batch size");
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
    use crate::spcot::{
        spcot_recv, spcot_send, verify_spcot, SpcotReceiverOutput, SpcotSenderOutput,
    };
    use ironman_prg::PrgKind;

    /// [`spcot_batch_send_into`] with a sink that collects what the
    /// sequential [`spcot_send`] returns per tree.
    fn collect_send<T: Transport + ?Sized>(
        ch: &mut T,
        cfg: &SpcotConfig,
        base: &mut CotSender,
        seeds: &[Block],
    ) -> Vec<SpcotSenderOutput> {
        let mut outs = Vec::with_capacity(seeds.len());
        spcot_batch_send_into(ch, cfg, base, seeds, &mut 0, |_, leaves, counter| {
            outs.push(SpcotSenderOutput {
                w: leaves.to_vec(),
                counter,
            });
        })
        .unwrap();
        outs
    }

    /// [`spcot_batch_recv_into`] with a sink that collects what the
    /// sequential [`spcot_recv`] returns per tree.
    fn collect_recv<T: Transport + ?Sized>(
        ch: &mut T,
        cfg: &SpcotConfig,
        base: &mut CotReceiver,
        alphas: &[usize],
    ) -> Vec<SpcotReceiverOutput> {
        let mut outs = Vec::with_capacity(alphas.len());
        spcot_batch_recv_into(
            ch,
            cfg,
            base,
            alphas,
            &mut 0,
            |_, alpha, leaves, counter| {
                outs.push(SpcotReceiverOutput {
                    alpha,
                    v: leaves.to_vec(),
                    counter,
                });
            },
        )
        .unwrap();
        outs
    }

    fn setup(
        cfg: &SpcotConfig,
        trees: usize,
        seed: u64,
    ) -> (Block, CotSender, CotReceiver, Vec<Block>, Vec<usize>) {
        let mut dealer = Dealer::new(seed);
        let delta = dealer.random_delta();
        let (sb, rb) = dealer.deal_cot(delta, trees * cfg.base_cots_needed());
        let seeds: Vec<Block> = (0..trees).map(|_| dealer.random_block()).collect();
        let alphas: Vec<usize> = (0..trees)
            .map(|_| dealer.random_index(cfg.leaves))
            .collect();
        (delta, sb, rb, seeds, alphas)
    }

    fn run_batched(
        cfg: SpcotConfig,
        trees: usize,
        seed: u64,
    ) -> (
        Block,
        Vec<SpcotSenderOutput>,
        Vec<SpcotReceiverOutput>,
        u64,
        u64,
    ) {
        let (delta, mut sb, mut rb, seeds, alphas) = setup(&cfg, trees, seed);
        let (s_out, r_out, s_stats, _) = run_protocol(
            move |ch| collect_send(ch, &cfg, &mut sb, &seeds),
            move |ch| collect_recv(ch, &cfg, &mut rb, &alphas),
        );
        (delta, s_out, r_out, s_stats.messages_sent, s_stats.rounds)
    }

    #[test]
    fn batched_outputs_are_correlated_binary() {
        let cfg = SpcotConfig::ferret_baseline(128, Block::from(1u128));
        let (delta, s, r, _, _) = run_batched(cfg, 12, 1);
        for (so, ro) in s.iter().zip(r.iter()) {
            verify_spcot(delta, so, ro).unwrap();
        }
    }

    #[test]
    fn batched_outputs_are_correlated_quad() {
        let cfg = SpcotConfig::ironman(256, Block::from(2u128));
        let (delta, s, r, _, _) = run_batched(cfg, 16, 2);
        for (so, ro) in s.iter().zip(r.iter()) {
            verify_spcot(delta, so, ro).unwrap();
        }
    }

    /// Same seeds/alphas through both protocol shapes: identical `w`,
    /// `v` and PRG call counts.
    fn assert_batched_equals_sequential(cfg: SpcotConfig, trees: usize, seed: u64) {
        let (_, mut sb, mut rb, seeds, alphas) = setup(&cfg, trees, seed);
        let seeds2 = seeds.clone();
        let alphas2 = alphas.clone();
        let (batch_s, batch_r, _, _) = run_protocol(
            {
                let mut sb = sb.clone();
                let seeds = seeds.clone();
                move |ch| collect_send(ch, &cfg, &mut sb, &seeds)
            },
            {
                let mut rb = rb.clone();
                let alphas = alphas.clone();
                move |ch| collect_recv(ch, &cfg, &mut rb, &alphas)
            },
        );
        let (seq_s, seq_r, _, _) = run_protocol(
            move |ch| {
                let mut tweak = 0;
                seeds2
                    .iter()
                    .map(|&s| spcot_send(ch, &cfg, &mut sb, s, &mut tweak).unwrap())
                    .collect::<Vec<_>>()
            },
            move |ch| {
                let mut tweak = 0;
                alphas2
                    .iter()
                    .map(|&a| spcot_recv(ch, &cfg, &mut rb, a, &mut tweak).unwrap())
                    .collect::<Vec<_>>()
            },
        );
        for t in 0..trees {
            assert_eq!(batch_s[t].w, seq_s[t].w, "tree {t} sender output");
            assert_eq!(batch_r[t].v, seq_r[t].v, "tree {t} receiver output");
            assert_eq!(
                batch_s[t].counter, seq_s[t].counter,
                "tree {t} sender calls"
            );
            assert_eq!(
                batch_r[t].counter, seq_r[t].counter,
                "tree {t} receiver calls"
            );
        }
    }

    #[test]
    fn batched_equals_sequential_outputs() {
        assert_batched_equals_sequential(SpcotConfig::ironman(64, Block::from(3u128)), 6, 3);
    }

    #[test]
    fn batched_equals_sequential_outputs_table4_shape() {
        // The `OT_2POW20` tree: 4096 leaves, six quad levels, ChaCha8.
        assert_batched_equals_sequential(SpcotConfig::ironman(4096, Block::from(6u128)), 5, 6);
    }

    #[test]
    fn batched_equals_sequential_outputs_mixed_fanout() {
        // ℓ = 512: four quad levels and a binary one.
        assert_batched_equals_sequential(SpcotConfig::ironman(512, Block::from(7u128)), 9, 7);
    }

    #[test]
    fn sender_streams_trees_in_order_through_one_buffer() {
        // `sink` sees tree 0, 1, 2, … and every leaf slice is the same
        // allocation: the sender holds one expanded tree, not `t`.
        let cfg = SpcotConfig::ironman(256, Block::from(8u128));
        let trees = 10;
        let (_, mut sb, mut rb, seeds, alphas) = setup(&cfg, trees, 8);
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
            move |ch| collect_recv(ch, &cfg, &mut rb, &alphas),
        );
        assert_eq!(seen.len(), trees);
        for (t, &(i, ptr, len, first)) in seen.iter().enumerate() {
            assert_eq!(i, t, "sink order");
            assert_eq!(ptr, seen[0].1, "tree {t} borrowed a second leaf buffer");
            assert_eq!(len, cfg.leaves);
            assert_eq!(first, expected[t], "tree {t} leaves");
        }
    }

    #[test]
    fn batching_collapses_message_count() {
        let cfg = SpcotConfig::ironman(256, Block::from(4u128));
        let trees = 16;
        let (_, batch_msgs) = {
            let (_, _, _, msgs, _) = run_batched(cfg, trees, 4);
            ((), msgs)
        };
        // Sequential: every tree repeats the per-level conversation.
        let (_, mut sb, mut rb, seeds, alphas) = setup(&cfg, trees, 4);
        let (_, _, s_stats, _) = run_protocol(
            move |ch| {
                let mut tweak = 0;
                for &s in &seeds {
                    spcot_send(ch, &cfg, &mut sb, s, &mut tweak).unwrap();
                }
            },
            move |ch| {
                let mut tweak = 0;
                for &a in &alphas {
                    spcot_recv(ch, &cfg, &mut rb, a, &mut tweak).unwrap();
                }
            },
        );
        assert!(
            batch_msgs * 4 < s_stats.messages_sent,
            "batched {batch_msgs} messages vs sequential {}",
            s_stats.messages_sent
        );
    }

    #[test]
    fn mixed_fanout_batch() {
        // ℓ = 512 with quad trees: four 4-ary levels + one binary level.
        let cfg = SpcotConfig {
            arity: Arity::QUAD,
            prg: PrgKind::CHACHA8,
            leaves: 512,
            session_key: Block::from(5u128),
        };
        let (delta, s, r, _, _) = run_batched(cfg, 8, 5);
        for (so, ro) in s.iter().zip(r.iter()) {
            verify_spcot(delta, so, ro).unwrap();
        }
    }
}
