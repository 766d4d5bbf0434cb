//! Chosen-message 1-out-of-2 OT from COT correlations.
//!
//! This is the online conversion of Fig. 2: a COT correlation
//! `(r0, r1 = r0 ⊕ Δ)` / `(b, r_b)` is derandomized to the receiver's real
//! choice `c` (one bit of communication) and the messages are masked with
//! the correlation-robust hash. One base COT is consumed per OT.

use crate::channel::{ChannelError, Transport};
use crate::cot::{CotReceiver, CotSender};
use ironman_prg::{Block, Crhf};

/// Sends chosen messages `(m0, m1)` for a batch of OTs, consuming
/// `pairs.len()` COT correlations from `base`.
///
/// Protocol: the receiver reveals `d = c ⊕ b`; the sender transmits
/// `y_j = m_j ⊕ H(idx, r_{j ⊕ d})`; the receiver unmasks `y_c` with
/// `H(idx, r_b)` since `r_b = r_{c ⊕ d}`.
///
/// # Errors
///
/// Propagates channel failures, and returns [`ChannelError::Malformed`]
/// if the receiver's flip vector is not `pairs.len()` bits long.
///
/// # Panics
///
/// Panics if `base` holds fewer than `pairs.len()` correlations.
pub fn send_chosen<T: Transport + ?Sized>(
    ch: &mut T,
    base: &mut CotSender,
    pairs: &[(Block, Block)],
    tweak_base: u64,
) -> Result<(), ChannelError> {
    let batch = base.split_off_front(pairs.len());
    let crhf = Crhf::new();
    let flips = ch.recv_bits()?;
    if flips.len() != pairs.len() {
        return Err(ChannelError::Malformed {
            expected: 8 + pairs.len().div_ceil(8),
            actual: 8 + flips.len().div_ceil(8),
        });
    }
    let mut payload = Vec::with_capacity(2 * pairs.len());
    for (i, (&(m0, m1), &d)) in pairs.iter().zip(flips.iter()).enumerate() {
        let (r0, r1) = batch.pair(i);
        let (pad0, pad1) = if d { (r1, r0) } else { (r0, r1) };
        payload.push(m0 ^ crhf.hash(tweak_base + i as u64, pad0));
        payload.push(m1 ^ crhf.hash(tweak_base + i as u64, pad1));
    }
    ch.send_blocks(&payload)
}

/// Receives the chosen message for each OT in the batch, consuming
/// `choices.len()` COT correlations from `base`.
///
/// # Errors
///
/// Propagates channel failures, and returns [`ChannelError::Malformed`]
/// if the sender's payload is not two blocks per choice.
///
/// # Panics
///
/// Panics if `base` holds fewer than `choices.len()` correlations.
pub fn recv_chosen<T: Transport + ?Sized>(
    ch: &mut T,
    base: &mut CotReceiver,
    choices: &[bool],
    tweak_base: u64,
) -> Result<Vec<Block>, ChannelError> {
    let batch = base.split_off_front(choices.len());
    let crhf = Crhf::new();
    let flips: Vec<bool> = choices
        .iter()
        .zip(batch.bits())
        .map(|(&c, &b)| c ^ b)
        .collect();
    ch.send_bits(&flips)?;
    let payload = ch.recv_blocks()?;
    if payload.len() != 2 * choices.len() {
        return Err(ChannelError::Malformed {
            expected: 32 * choices.len(),
            actual: 16 * payload.len(),
        });
    }
    Ok(choices
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let y = payload[2 * i + c as usize];
            y ^ crhf.hash(tweak_base + i as u64, batch.rb()[i])
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::run_protocol;
    use crate::dealer::Dealer;

    fn run_batch(choices: Vec<bool>, pairs: Vec<(Block, Block)>) -> Vec<Block> {
        let mut dealer = Dealer::new(42);
        let delta = dealer.random_delta();
        let (mut s_base, mut r_base) = dealer.deal_cot(delta, choices.len());
        let pairs2 = pairs.clone();
        let (_, received, _, _) = run_protocol(
            move |ch| send_chosen(ch, &mut s_base, &pairs2, 0).unwrap(),
            move |ch| recv_chosen(ch, &mut r_base, &choices, 0).unwrap(),
        );
        received
    }

    #[test]
    fn receiver_gets_chosen_messages() {
        let pairs: Vec<(Block, Block)> = (0..8u128)
            .map(|i| (Block::from(i * 2), Block::from(i * 2 + 1)))
            .collect();
        let choices: Vec<bool> = (0..8).map(|i| i % 3 == 1).collect();
        let got = run_batch(choices.clone(), pairs.clone());
        for (i, &c) in choices.iter().enumerate() {
            let expect = if c { pairs[i].1 } else { pairs[i].0 };
            assert_eq!(got[i], expect, "OT {i} returned the wrong message");
        }
    }

    #[test]
    fn all_zero_choices() {
        let pairs = vec![(Block::from(10u128), Block::from(20u128)); 4];
        let got = run_batch(vec![false; 4], pairs);
        assert!(got.iter().all(|&m| m == Block::from(10u128)));
    }

    #[test]
    fn all_one_choices() {
        let pairs = vec![(Block::from(10u128), Block::from(20u128)); 4];
        let got = run_batch(vec![true; 4], pairs);
        assert!(got.iter().all(|&m| m == Block::from(20u128)));
    }

    #[test]
    fn empty_batch() {
        let got = run_batch(vec![], vec![]);
        assert!(got.is_empty());
    }

    #[test]
    fn a_short_flip_vector_is_malformed() {
        // The flips come from the peer: one too few is an error, not a panic.
        let mut dealer = Dealer::new(5);
        let delta = dealer.random_delta();
        let (mut s_base, _) = dealer.deal_cot(delta, 4);
        let pairs = vec![(Block::ZERO, Block::ZERO); 4];
        let (sent, (), _, _) = run_protocol(
            move |ch| send_chosen(ch, &mut s_base, &pairs, 0),
            |ch| ch.send_bits(&[false; 3]).unwrap(),
        );
        assert!(matches!(sent, Err(ChannelError::Malformed { .. })));
    }

    #[test]
    fn communication_cost_is_two_blocks_per_ot() {
        let mut dealer = Dealer::new(9);
        let delta = dealer.random_delta();
        let n = 16;
        let (mut s_base, mut r_base) = dealer.deal_cot(delta, n);
        let pairs: Vec<(Block, Block)> = (0..n as u128)
            .map(|i| (Block::from(i), Block::from(i + 100)))
            .collect();
        let choices = vec![true; n];
        let (_, _, s_stats, r_stats) = run_protocol(
            move |ch| send_chosen(ch, &mut s_base, &pairs, 0).unwrap(),
            move |ch| recv_chosen(ch, &mut r_base, &choices, 0).unwrap(),
        );
        assert_eq!(s_stats.bytes_sent, 2 * 16 * n as u64);
        // Receiver sends n flip bits (packed) + 8-byte length header.
        assert_eq!(r_stats.bytes_sent, (n as u64).div_ceil(8) + 8);
    }
}
