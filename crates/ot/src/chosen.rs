//! Chosen-message 1-out-of-2 OT from COT correlations.
//!
//! This is the online conversion of Fig. 2: a COT correlation
//! `(r0, r1 = r0 ⊕ Δ)` / `(b, r_b)` is derandomized to the receiver's real
//! choice `c` (one bit of communication) and the messages are masked with
//! the correlation-robust hash. One base COT is consumed per OT.
//!
//! The protocol is three local steps — the receiver's [`flips`], the
//! sender's [`answer`], the receiver's [`finish`] — with one message
//! between each: the flips one way, the answer's payload the other.
//! [`crate::spcot_batch`] runs a batch of them per extension.

use crate::channel::ChannelError;
use crate::cot::{CotReceiver, CotSender};
use ironman_prg::{Block, Crhf};

/// The receiver's first half: the flips `d = c ⊕ b` it reveals, one per
/// choice, from the `choices.len()` correlations in `base`.
///
/// # Panics
///
/// Panics unless `base` holds exactly `choices.len()` correlations.
pub fn flips(base: &CotReceiver, choices: &[bool]) -> Vec<bool> {
    assert_eq!(base.len(), choices.len(), "one base COT per chosen OT");
    choices
        .iter()
        .zip(base.bits())
        .map(|(&c, &b)| c ^ b)
        .collect()
}

/// The sender's answer to the receiver's `flips`: for OT `i`,
/// `y_j = m_j ⊕ H(tweak_base + i, r_{j ⊕ d})`, two blocks per OT, from
/// the `pairs.len()` correlations in `base`.
///
/// # Errors
///
/// [`ChannelError::Malformed`] if `flips` is not one bit per pair.
///
/// # Panics
///
/// Panics unless `base` holds exactly `pairs.len()` correlations.
pub fn answer(
    base: &CotSender,
    pairs: &[(Block, Block)],
    flips: &[bool],
    tweak_base: u64,
) -> Result<Vec<Block>, ChannelError> {
    assert_eq!(base.len(), pairs.len(), "one base COT per chosen OT");
    if flips.len() != pairs.len() {
        return Err(ChannelError::Malformed {
            expected: 8 + pairs.len().div_ceil(8),
            actual: 8 + flips.len().div_ceil(8),
        });
    }
    let crhf = Crhf::new();
    let mut payload = Vec::with_capacity(2 * pairs.len());
    for (i, (&(m0, m1), &d)) in pairs.iter().zip(flips).enumerate() {
        let (r0, r1) = base.pair(i);
        let (pad0, pad1) = if d { (r1, r0) } else { (r0, r1) };
        payload.push(m0 ^ crhf.hash(tweak_base + i as u64, pad0));
        payload.push(m1 ^ crhf.hash(tweak_base + i as u64, pad1));
    }
    Ok(payload)
}

/// The receiver's second half: unmasks `y_c` of each OT with
/// `H(tweak_base + i, r_b)`, since `r_b = r_{c ⊕ d}`. `base` and
/// `choices` are those [`flips`] was given.
///
/// # Errors
///
/// [`ChannelError::Malformed`] if `payload` is not two blocks per choice.
///
/// # Panics
///
/// Panics unless `base` holds exactly `choices.len()` correlations.
pub fn finish(
    base: &CotReceiver,
    choices: &[bool],
    payload: &[Block],
    tweak_base: u64,
) -> Result<Vec<Block>, ChannelError> {
    assert_eq!(base.len(), choices.len(), "one base COT per chosen OT");
    if payload.len() != 2 * choices.len() {
        return Err(ChannelError::Malformed {
            expected: 32 * choices.len(),
            actual: 16 * payload.len(),
        });
    }
    let crhf = Crhf::new();
    Ok(choices
        .iter()
        .enumerate()
        .map(|(i, &c)| payload[2 * i + c as usize] ^ crhf.hash(tweak_base + i as u64, base.rb()[i]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;

    /// The dealt halves of `n` correlations.
    fn bases(seed: u64, n: usize) -> (CotSender, CotReceiver) {
        let mut dealer = Dealer::new(seed);
        let delta = dealer.random_delta();
        dealer.deal_cot(delta, n)
    }

    /// The three steps, end to end: what the receiver gets.
    fn run_batch(choices: Vec<bool>, pairs: Vec<(Block, Block)>) -> Vec<Block> {
        let (s_base, r_base) = bases(42, choices.len());
        let flips = flips(&r_base, &choices);
        assert_eq!(flips.len(), choices.len(), "one flip bit per OT");
        let payload = answer(&s_base, &pairs, &flips, 0).unwrap();
        assert_eq!(payload.len(), 2 * pairs.len(), "two blocks per OT");
        finish(&r_base, &choices, &payload, 0).unwrap()
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
        let (s_base, _) = bases(5, 4);
        let pairs = vec![(Block::ZERO, Block::ZERO); 4];
        let got = answer(&s_base, &pairs, &[false; 3], 0);
        assert!(matches!(got, Err(ChannelError::Malformed { .. })));
    }

    #[test]
    fn a_short_payload_is_malformed() {
        // So does the answer: one block short is an error, not a panic.
        let (_, r_base) = bases(6, 4);
        let got = finish(&r_base, &[true; 4], &[Block::ZERO; 7], 0);
        assert!(matches!(got, Err(ChannelError::Malformed { .. })));
    }
}
