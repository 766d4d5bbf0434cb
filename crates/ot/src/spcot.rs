//! The SPCOT (single-point correlated OT) sub-protocol, §2.3.1 + §4.
//!
//! Sender input: the global offset `Δ` and a fresh seed. Receiver input: a
//! punctured position `α`. Outputs satisfy `w = v ⊕ u·Δ` where `u` is the
//! one-hot indicator of `α`:
//!
//! * sender: `w` — the `ℓ` GGM leaves;
//! * receiver: `v` — equal to `w` everywhere except `v[α] = w[α] ⊕ Δ`.
//!
//! The protocol is generic over tree arity and PRG (the §4.1 optimization
//! space): binary levels transfer one branch sum through a chosen
//! 1-out-of-2 OT; wider levels transfer the `m−1` non-path sums through the
//! GGM-based (m−1)-out-of-m OT of §4.2. Either way a depth-`ℓ` tree
//! consumes exactly `log2(ℓ)` base COTs.

use crate::channel::{ChannelError, Transport};
use crate::chosen::{recv_chosen, send_chosen};
use crate::cot::{CotReceiver, CotSender};
use crate::mot::{level_seed, level_seeder, recv_all_but_one, send_all_but_one};
use ironman_ggm::{Arity, GgmTree, LevelShape, PuncturedTree};
use ironman_prg::{tree_prg::build_tree_prg, Block, PrgCounter, PrgKind};
use serde::{Deserialize, Serialize};

/// Static configuration of one SPCOT execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// Sender output of one SPCOT.
#[derive(Clone, Debug)]
pub struct SpcotSenderOutput {
    /// The leaf vector `w`.
    pub w: Vec<Block>,
    /// PRG calls consumed.
    pub counter: PrgCounter,
}

/// Receiver output of one SPCOT.
#[derive(Clone, Debug)]
pub struct SpcotReceiverOutput {
    /// The punctured position `α` (the single set bit of `u`).
    pub alpha: usize,
    /// The leaf vector `v` (with `v[α]` recovered via the masked leaf sum).
    pub v: Vec<Block>,
    /// PRG calls consumed.
    pub counter: PrgCounter,
}

/// Runs the sender side of one SPCOT over `ch`, consuming
/// [`SpcotConfig::base_cots_needed`] correlations from `base`.
///
/// `tweak` is a monotone CRHF domain-separation counter shared by all OTs
/// of the session; it is advanced by the number of chosen OTs executed.
///
/// # Errors
///
/// Propagates channel failures.
pub fn spcot_send<T: Transport + ?Sized>(
    ch: &mut T,
    cfg: &SpcotConfig,
    base: &mut CotSender,
    seed: Block,
    tweak: &mut u64,
) -> Result<SpcotSenderOutput, ChannelError> {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let tree = GgmTree::expand(prg.as_ref(), seed, cfg.arity, cfg.leaves);
    let sums = tree.level_sums();
    let seeder = level_seeder(cfg.session_key);
    for (lvl, level_sums) in sums.iter().enumerate() {
        let fanout = level_sums.len();
        if fanout == 2 {
            send_chosen(ch, base, &[(level_sums[0], level_sums[1])], *tweak)?;
            *tweak += 1;
        } else {
            send_all_but_one(
                ch,
                base,
                level_sums,
                cfg.session_key,
                level_seed(&seeder, seed, lvl),
                *tweak,
            )?;
            *tweak += fanout.trailing_zeros() as u64;
        }
    }
    // Step ④: masked leaf sum for the receiver's α-th node recovery.
    ch.send_block(base.delta() ^ tree.leaf_sum())?;
    Ok(SpcotSenderOutput {
        w: tree.leaves().to_vec(),
        counter: tree.counter(),
    })
}

/// Runs the receiver side of one SPCOT over `ch`.
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics if `alpha >= cfg.leaves`.
pub fn spcot_recv<T: Transport + ?Sized>(
    ch: &mut T,
    cfg: &SpcotConfig,
    base: &mut CotReceiver,
    alpha: usize,
    tweak: &mut u64,
) -> Result<SpcotReceiverOutput, ChannelError> {
    let prg = build_tree_prg(cfg.prg, cfg.session_key, cfg.arity.get());
    let shape = LevelShape::new(cfg.arity, cfg.leaves);
    let digits = shape.digits(alpha);
    // Per level, obtain the non-path branch sums.
    let mut level_sums: Vec<Vec<Block>> = Vec::with_capacity(shape.depth());
    for (lvl, &fanout) in shape.fanouts().iter().enumerate() {
        if fanout == 2 {
            let got = recv_chosen(ch, base, &[digits[lvl] == 0], *tweak)?;
            *tweak += 1;
            // Store as a 2-slot vector with a hole at the path digit.
            let mut sums = vec![Block::ZERO; 2];
            sums[1 - digits[lvl]] = got[0];
            level_sums.push(sums);
        } else {
            let got = recv_all_but_one(ch, base, fanout, digits[lvl], cfg.session_key, *tweak)?;
            *tweak += fanout.trailing_zeros() as u64;
            level_sums.push(got);
        }
    }
    let mut punct =
        PuncturedTree::reconstruct(prg.as_ref(), cfg.arity, cfg.leaves, alpha, |lvl, j| {
            debug_assert_ne!(j, digits[lvl], "path branch sum must never be read");
            level_sums[lvl][j]
        });
    let masked_sum = ch.recv_block()?;
    punct.recover_punctured(masked_sum);
    let counter = punct.counter();
    Ok(SpcotReceiverOutput {
        alpha,
        v: punct.into_leaves(),
        counter,
    })
}

/// Verifies the SPCOT correlation `w = v ⊕ u·Δ` (test/diagnostic helper).
///
/// # Errors
///
/// Returns the index of the first violated leaf.
pub fn verify_spcot(
    delta: Block,
    s: &SpcotSenderOutput,
    r: &SpcotReceiverOutput,
) -> Result<(), usize> {
    assert_eq!(s.w.len(), r.v.len());
    for i in 0..s.w.len() {
        let expect = r.v[i] ^ delta.and_bit(i == r.alpha);
        if s.w[i] != expect {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::run_protocol;
    use crate::dealer::Dealer;

    fn run_spcot(
        cfg: SpcotConfig,
        alpha: usize,
        seed_val: u64,
    ) -> (Block, SpcotSenderOutput, SpcotReceiverOutput) {
        let mut dealer = Dealer::new(seed_val);
        let delta = dealer.random_delta();
        let (mut s_base, mut r_base) = dealer.deal_cot(delta, cfg.base_cots_needed());
        let seed = dealer.random_block();
        let (s_out, r_out, _, _) = run_protocol(
            move |ch| {
                let mut tweak = 0;
                spcot_send(ch, &cfg, &mut s_base, seed, &mut tweak).unwrap()
            },
            move |ch| {
                let mut tweak = 0;
                spcot_recv(ch, &cfg, &mut r_base, alpha, &mut tweak).unwrap()
            },
        );
        (delta, s_out, r_out)
    }

    #[test]
    fn binary_aes_spcot_correlation() {
        let cfg = SpcotConfig::ferret_baseline(64, Block::from(1u128));
        for alpha in [0usize, 1, 31, 63] {
            let (delta, s, r) = run_spcot(cfg, alpha, 100 + alpha as u64);
            verify_spcot(delta, &s, &r).expect("correlation must hold");
        }
    }

    #[test]
    fn quad_chacha_spcot_correlation() {
        let cfg = SpcotConfig::ironman(256, Block::from(2u128));
        for alpha in [0usize, 17, 128, 255] {
            let (delta, s, r) = run_spcot(cfg, alpha, 200 + alpha as u64);
            verify_spcot(delta, &s, &r).expect("correlation must hold");
        }
    }

    #[test]
    fn all_arities_correlation() {
        for arity in Arity::SWEEP {
            let cfg = SpcotConfig {
                arity,
                prg: PrgKind::CHACHA8,
                leaves: 1024,
                session_key: Block::from(3u128),
            };
            let (delta, s, r) = run_spcot(cfg, 513, 42);
            verify_spcot(delta, &s, &r)
                .unwrap_or_else(|i| panic!("arity {arity}: leaf {i} violated"));
        }
    }

    #[test]
    fn mixed_fanout_spcot() {
        // ℓ = 8192 with 4-ary: six 4-ary levels + one binary level.
        let cfg = SpcotConfig::ironman(8192, Block::from(4u128));
        let (delta, s, r) = run_spcot(cfg, 4097, 7);
        verify_spcot(delta, &s, &r).expect("mixed-fanout correlation must hold");
    }

    #[test]
    fn quad_uses_fewer_prg_calls_than_binary() {
        let quad = SpcotConfig::ironman(4096, Block::from(5u128));
        let bin = SpcotConfig::ferret_baseline(4096, Block::from(5u128));
        let (_, sq, _) = run_spcot(quad, 9, 1);
        let (_, sb, _) = run_spcot(bin, 9, 2);
        // 4-ary ChaCha: (ℓ−1)/3 calls; 2-ary AES: 2(ℓ−1) calls — the 6×
        // reduction of §4 (Fig. 13a).
        assert_eq!(sb.counter.total(), 2 * 4095);
        assert_eq!(sq.counter.total(), 4095 / 3);
        assert_eq!(sb.counter.total() / sq.counter.total(), 6);
    }

    #[test]
    fn base_cot_budget_is_log_leaves() {
        for (leaves, expect) in [(64usize, 6usize), (1024, 10), (8192, 13)] {
            let cfg = SpcotConfig::ironman(leaves, Block::ZERO);
            assert_eq!(cfg.base_cots_needed(), expect);
        }
    }

    #[test]
    fn wider_arity_sends_more_bytes() {
        // Fig. 7(b): online communication grows with m.
        let mut bytes = Vec::new();
        for arity in [Arity::BINARY, Arity::QUAD, Arity::new(16).unwrap()] {
            let cfg = SpcotConfig {
                arity,
                prg: PrgKind::CHACHA8,
                leaves: 1024,
                session_key: Block::from(9u128),
            };
            let mut dealer = Dealer::new(55);
            let delta = dealer.random_delta();
            let (mut s_base, mut r_base) = dealer.deal_cot(delta, cfg.base_cots_needed());
            let seed = dealer.random_block();
            let (_, _, s_stats, _) = run_protocol(
                move |ch| {
                    let mut tweak = 0;
                    spcot_send(ch, &cfg, &mut s_base, seed, &mut tweak).unwrap()
                },
                move |ch| {
                    let mut tweak = 0;
                    spcot_recv(ch, &cfg, &mut r_base, 100, &mut tweak).unwrap()
                },
            );
            bytes.push(s_stats.bytes_sent);
        }
        assert!(
            bytes[0] < bytes[1] && bytes[1] < bytes[2],
            "comm should grow with m: {bytes:?}"
        );
    }
}
