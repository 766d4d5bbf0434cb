//! (m−1)-out-of-m OT from an m-leaf GGM tree (paper §4.2).
//!
//! M-ary GGM expansion needs, per level, an OT in which the receiver learns
//! the branch sums of every branch *except* the one on its punctured path.
//! Implementing that naively from `(m−1)·log2(m)` 1-out-of-2 OTs wastes
//! base correlations; the paper instead punctures an m-leaf GGM tree: the
//! sender derives m pads as the tree's leaves, the receiver reconstructs
//! all pads except pad `α` (consuming only `log2(m)` base COTs through the
//! per-level sum OTs), and the sender sends all m messages masked by their
//! pads. The receiver unmasks everything except message `α`.

use crate::channel::{ChannelError, Transport};
use crate::chosen::{recv_chosen, send_chosen};
use crate::cot::{CotReceiver, CotSender};
use ironman_ggm::{Arity, GgmTree, PuncturedTree};
use ironman_prg::{Aes128, AesTreePrg, Block};

/// Domain separators deriving the pad-tree keys from the session key
/// (`"mot"` in ASCII, and a leet-speak "level").
const PAD_PRG_DOMAIN: u128 = 0x6d6f74;
const LEVEL_SEED_DOMAIN: u128 = 0x1e7e1;

/// Number of base COTs one (m−1)-out-of-m OT consumes.
pub fn base_cots_needed(m: usize) -> usize {
    assert!(
        m.is_power_of_two() && m >= 2,
        "m must be a power of two >= 2"
    );
    m.trailing_zeros() as usize
}

/// Derives the pad-tree PRG for a given session. The inner tree is tiny
/// (m ≤ 32 leaves) so a binary AES expansion is used regardless of the
/// outer tree's PRG; this matches the paper's observation that the inner
/// OT "follows the same procedure as SPCOT" and needs no extra hardware.
pub(crate) fn pad_prg(session_key: Block) -> AesTreePrg {
    AesTreePrg::new(session_key ^ Block::from(PAD_PRG_DOMAIN), 2)
}

/// The cipher that derives every pad tree's seed for a session — one key
/// schedule per SPCOT (batch), not per tree and level.
pub(crate) fn level_seeder(session_key: Block) -> Aes128 {
    Aes128::new(session_key ^ Block::from(LEVEL_SEED_DOMAIN))
}

/// Seed of the level-`lvl` inner pad tree of the outer tree grown from
/// `outer_seed`.
pub(crate) fn level_seed(seeder: &Aes128, outer_seed: Block, lvl: usize) -> Block {
    seeder.encrypt_block(outer_seed ^ Block::from(lvl as u128))
}

/// Sender side: transfers all of `messages` except the receiver's hidden
/// index. Consumes `log2(m)` COTs from `base`.
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics if `messages.len()` is not a power of two `>= 2` or `base` is too
/// short.
pub fn send_all_but_one<T: Transport + ?Sized>(
    ch: &mut T,
    base: &mut CotSender,
    messages: &[Block],
    session_key: Block,
    seed: Block,
    tweak_base: u64,
) -> Result<(), ChannelError> {
    let m = messages.len();
    let prg = pad_prg(session_key);
    let tree = GgmTree::expand(&prg, seed, Arity::BINARY, m);
    let sums = tree.level_sums();
    // Per level, offer (K_0, K_1); the receiver picks the complement of its
    // path digit via chosen OT.
    let pairs: Vec<(Block, Block)> = sums.iter().map(|s| (s[0], s[1])).collect();
    send_chosen(ch, base, &pairs, tweak_base)?;
    // Mask each message with its pad (leaf).
    let masked: Vec<Block> = messages
        .iter()
        .zip(tree.leaves())
        .map(|(&msg, &pad)| msg ^ pad)
        .collect();
    ch.send_blocks(&masked)
}

/// Receiver side: obtains `messages[j]` for every `j != alpha`; position
/// `alpha` of the returned vector is [`Block::ZERO`].
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics if `m` is not a power of two `>= 2`, `alpha >= m`, or `base` is
/// too short.
pub fn recv_all_but_one<T: Transport + ?Sized>(
    ch: &mut T,
    base: &mut CotReceiver,
    m: usize,
    alpha: usize,
    session_key: Block,
    tweak_base: u64,
) -> Result<Vec<Block>, ChannelError> {
    assert!(alpha < m, "alpha {alpha} out of range for {m} messages");
    let prg = pad_prg(session_key);
    let shape_digits = ironman_ggm::LevelShape::new(Arity::BINARY, m).digits(alpha);
    // Choice per level: the complement of the path digit (we want the sum of
    // the branch we did NOT take).
    let choices: Vec<bool> = shape_digits.iter().map(|&d| d == 0).collect();
    let sums = recv_chosen(ch, base, &choices, tweak_base)?;
    let punct = PuncturedTree::reconstruct(&prg, Arity::BINARY, m, alpha, |lvl, j| {
        debug_assert_ne!(j, shape_digits[lvl]);
        sums[lvl]
    });
    let masked = ch.recv_blocks()?;
    assert_eq!(
        masked.len(),
        m,
        "sender sent {} masked messages, expected {m}",
        masked.len()
    );
    Ok(masked
        .iter()
        .zip(punct.leaves())
        .enumerate()
        .map(|(j, (&c, &pad))| if j == alpha { Block::ZERO } else { c ^ pad })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::run_protocol;
    use crate::dealer::Dealer;

    fn run_mot(m: usize, alpha: usize) -> (Vec<Block>, Vec<Block>) {
        let mut dealer = Dealer::new(77);
        let delta = dealer.random_delta();
        let (mut s_base, mut r_base) = dealer.deal_cot(delta, base_cots_needed(m));
        let messages: Vec<Block> = (0..m as u128).map(|j| Block::from(j * 31 + 5)).collect();
        let msgs2 = messages.clone();
        let session = Block::from(0x5e55u128);
        let (_, got, _, _) = run_protocol(
            move |ch| {
                send_all_but_one(ch, &mut s_base, &msgs2, session, Block::from(9u128), 0).unwrap()
            },
            move |ch| recv_all_but_one(ch, &mut r_base, m, alpha, session, 0).unwrap(),
        );
        (messages, got)
    }

    #[test]
    fn four_of_four_minus_one() {
        for alpha in 0..4 {
            let (messages, got) = run_mot(4, alpha);
            for j in 0..4 {
                if j == alpha {
                    assert_eq!(got[j], Block::ZERO);
                } else {
                    assert_eq!(got[j], messages[j], "message {j} wrong (alpha={alpha})");
                }
            }
        }
    }

    #[test]
    fn larger_arities() {
        for m in [2usize, 8, 16, 32] {
            let alpha = m / 2 + 1;
            let (messages, got) = run_mot(m, alpha % m);
            for j in 0..m {
                if j != alpha % m {
                    assert_eq!(got[j], messages[j]);
                }
            }
        }
    }

    #[test]
    fn cot_consumption_is_logarithmic() {
        assert_eq!(base_cots_needed(2), 1);
        assert_eq!(base_cots_needed(4), 2);
        assert_eq!(base_cots_needed(32), 5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        base_cots_needed(6);
    }
}
