//! A channel-free specification of a batch of SPCOTs, written the plain
//! way (Yang et al., CCS 2020, https://eprint.iacr.org/2020/924), and a
//! runner that puts the production batch beside it.
//!
//! The sender grows each GGM tree by recursive per-parent
//! [`TreePrg::expand`]. The receiver is handed the branch sums of every
//! non-path branch (what the level OTs deliver, taken here as ideal) and
//! the masked leaf sum `Δ ⊕ ⊕w`: it recovers each node off its punctured
//! path from its branch sum, grows that node's subtree the same way, and
//! recovers leaf `α` from the masked leaf sum. Both count their PRG
//! calls. Nothing here goes through `ironman_ggm`'s trees, so a bug they
//! share with the protocol does not hide.
//!
//! Shared by `crates/ot/tests/spcot_spec.rs` and the root `tests/`.

#![allow(dead_code)]

use ironman_ot::channel::{run_protocol, ChannelStats};
use ironman_ot::dealer::Dealer;
use ironman_ot::spcot::SpcotConfig;
use ironman_ot::spcot_batch::{spcot_batch_recv_into, spcot_batch_send_into};
use ironman_prg::tree_prg::build_tree_prg;
use ironman_prg::{Block, PrgCounter, PrgKind, TreePrg};

/// What both parties hold after one tree of a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    /// The sender's leaves `w`.
    pub w: Vec<Block>,
    /// The receiver's leaves `v`: `w` with `Δ` added at `α`.
    pub v: Vec<Block>,
    /// The sender's PRG calls.
    pub sender_prg: PrgCounter,
    /// The receiver's PRG calls.
    pub receiver_prg: PrgCounter,
}

/// The spec: tree `i` grown from `seeds[i]` and punctured at `alphas[i]`
/// under `cfg`, with offset `delta`.
pub fn spcot(cfg: &SpcotConfig, delta: Block, seeds: &[Block], alphas: &[usize]) -> Vec<Tree> {
    assert_eq!(seeds.len(), alphas.len());
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let fanouts = cfg.arity.level_fanouts(cfg.leaves);
    seeds
        .iter()
        .zip(alphas)
        .map(|(&seed, &alpha)| {
            let mut sender_calls = 0;
            let levels = grow(prg.as_ref(), seed, &fanouts, &mut sender_calls);
            let w = levels.last().expect("a tree has a level").clone();
            let sums: Vec<Vec<Block>> = levels
                .iter()
                .zip(&fanouts)
                .map(|(nodes, &f)| {
                    let mut sums = vec![Block::ZERO; f];
                    for (idx, &node) in nodes.iter().enumerate() {
                        sums[idx % f] ^= node;
                    }
                    sums
                })
                .collect();
            let masked_leaf_sum = w.iter().fold(delta, |acc, &leaf| acc ^ leaf);
            let mut receiver_calls = 0;
            let v = puncture(
                prg.as_ref(),
                &fanouts,
                alpha,
                &sums,
                masked_leaf_sum,
                &mut receiver_calls,
            );
            Tree {
                w,
                v,
                sender_prg: counter(cfg.prg, sender_calls),
                receiver_prg: counter(cfg.prg, receiver_calls),
            }
        })
        .collect()
}

/// Every level of the subtree below `node` (`[0]` holds its children),
/// one `expand` per parent, depth first; adds the calls to `calls`.
fn grow(prg: &dyn TreePrg, node: Block, fanouts: &[usize], calls: &mut u64) -> Vec<Vec<Block>> {
    let Some((&fanout, below)) = fanouts.split_first() else {
        return Vec::new();
    };
    let mut children = vec![Block::ZERO; fanout];
    *calls += prg.expand(node, &mut children);
    let mut levels = vec![children.clone()];
    levels.resize(fanouts.len(), Vec::new());
    for child in children {
        for (d, nodes) in grow(prg, child, below, calls).into_iter().enumerate() {
            levels[d + 1].extend(nodes);
        }
    }
    levels
}

/// The receiver's leaves. On each level, node `j ≠ digit` under the
/// punctured parent is its branch sum XOR every other parent's child `j`
/// (all known: they descend from nodes recovered higher up); its subtree
/// is grown into the levels below.
fn puncture(
    prg: &dyn TreePrg,
    fanouts: &[usize],
    alpha: usize,
    sums: &[Vec<Block>],
    masked_leaf_sum: Block,
    calls: &mut u64,
) -> Vec<Block> {
    let mut levels: Vec<Vec<Block>> = Vec::new();
    let mut width = 1;
    for &f in fanouts {
        width *= f;
        levels.push(vec![Block::ZERO; width]);
    }
    let leaves = width;
    assert!(alpha < leaves);
    let mut path = 0; // the punctured node of the level above (the root first)
    let mut below = leaves; // leaves under one node of the level above
    for (lvl, &f) in fanouts.iter().enumerate() {
        below /= f;
        let digit = alpha / below % f;
        for j in (0..f).filter(|&j| j != digit) {
            let node = (0..levels[lvl].len() / f)
                .filter(|&p| p != path)
                .fold(sums[lvl][j], |acc, p| acc ^ levels[lvl][p * f + j]);
            let at = path * f + j;
            levels[lvl][at] = node;
            for (d, nodes) in grow(prg, node, &fanouts[lvl + 1..], calls)
                .into_iter()
                .enumerate()
            {
                let n = nodes.len();
                levels[lvl + 1 + d][at * n..(at + 1) * n].copy_from_slice(&nodes);
            }
        }
        path = path * f + digit;
    }
    assert_eq!(path, alpha);
    let mut v = levels.pop().expect("a tree has a level");
    v[alpha] = v.iter().fold(masked_leaf_sum, |acc, &leaf| acc ^ leaf);
    v
}

fn counter(kind: PrgKind, calls: u64) -> PrgCounter {
    let mut c = PrgCounter::new();
    match kind {
        PrgKind::Aes => c.add_aes(calls),
        PrgKind::ChaCha { .. } => c.add_chacha(calls),
    }
    c
}

/// One production batch over a local channel.
pub struct Run {
    /// The dealt offset.
    pub delta: Block,
    /// The tree seeds the sender drew.
    pub seeds: Vec<Block>,
    /// Each tree's outputs, as the two sinks saw them.
    pub trees: Vec<Tree>,
    /// The sender's channel statistics.
    pub sender: ChannelStats,
    /// The receiver's channel statistics.
    pub receiver: ChannelStats,
}

/// Runs `spcot_batch_{send,recv}_into` on one tree per `alphas` entry: a
/// `Dealer` seeded with `dealer_seed` draws `Δ`, the base COTs and then
/// the tree seeds (for one tree, the order `paper fig07` draws them in).
pub fn run_batch(cfg: &SpcotConfig, dealer_seed: u64, alphas: &[usize]) -> Run {
    let mut dealer = Dealer::new(dealer_seed);
    let delta = dealer.random_delta();
    let (mut sb, mut rb) = dealer.deal_cot(delta, alphas.len() * cfg.base_cots_needed());
    let seeds: Vec<Block> = alphas.iter().map(|_| dealer.random_block()).collect();
    let (cfg, sender_seeds, alphas) = (*cfg, seeds.clone(), alphas.to_vec());
    let (sent, received, sender, receiver) = run_protocol(
        move |ch| {
            let mut sent = Vec::new();
            spcot_batch_send_into(ch, &cfg, &mut sb, &sender_seeds, &mut 0, |i, w, prg| {
                assert_eq!(i, sent.len(), "sender sink order");
                sent.push((w.to_vec(), prg));
            })
            .unwrap();
            sent
        },
        move |ch| {
            let mut received = Vec::new();
            spcot_batch_recv_into(ch, &cfg, &mut rb, &alphas, &mut 0, |i, alpha, v, prg| {
                assert_eq!((i, alpha), (received.len(), alphas[i]), "receiver sink");
                received.push((v.to_vec(), prg));
            })
            .unwrap();
            received
        },
    );
    let trees = sent
        .into_iter()
        .zip(received)
        .map(|((w, sender_prg), (v, receiver_prg))| Tree {
            w,
            v,
            sender_prg,
            receiver_prg,
        })
        .collect();
    Run {
        delta,
        seeds,
        trees,
        sender,
        receiver,
    }
}

/// `alphas.len()` trees of `cfg` through the production batch equal the
/// spec on the same inputs, bit for bit and call for call.
pub fn assert_batch_is_spec(cfg: &SpcotConfig, dealer_seed: u64, alphas: &[usize]) {
    let run = run_batch(cfg, dealer_seed, alphas);
    let spec = spcot(cfg, run.delta, &run.seeds, alphas);
    assert_eq!(run.trees.len(), spec.len());
    for (t, (got, want)) in run.trees.iter().zip(&spec).enumerate() {
        let what = format!("{} {:?} ℓ = {} tree {t}", cfg.arity, cfg.prg, cfg.leaves);
        assert!(got.w == want.w, "{what}: sender leaves");
        assert!(got.v == want.v, "{what}: receiver leaves");
        assert_eq!(got.sender_prg, want.sender_prg, "{what}: sender PRG calls");
        assert_eq!(
            got.receiver_prg, want.receiver_prg,
            "{what}: receiver PRG calls"
        );
    }
}

/// `trees` punctured positions spread over `leaves` (the edges and a
/// multiplicative-hash walk between them).
pub fn alphas(leaves: usize, trees: usize) -> Vec<usize> {
    (0..trees)
        .map(|i| match i {
            0 => 0,
            1 => leaves - 1,
            _ => i * 2_654_435_761 % leaves,
        })
        .collect()
}
