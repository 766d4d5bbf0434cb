//! Ideal base-correlation dealer.
//!
//! PCG-style OTE bootstraps from a small number of base COT correlations
//! produced once by public-key OT in the paper's initialization phase
//! (excluded from every measurement in §6, as is standard). We substitute
//! an ideal trusted dealer that samples correlations with exactly the right
//! distribution (README.md's substitution table; ROADMAP.md's parked items
//! name the real two-party bootstrap this stands in for).
//!
//! The dealer is deterministic in its seed so experiments are reproducible.

use crate::cot::{CotReceiver, CotSender};
use ironman_prg::{Aes128, Block};

/// A deterministic dealer of base COT correlations.
///
/// # Example
///
/// ```
/// use ironman_ot::dealer::Dealer;
/// use ironman_ot::CotSlice;
///
/// let mut dealer = Dealer::new(1234);
/// let delta = dealer.random_delta();
/// let (s, r) = dealer.deal_cot(delta, 32);
/// let (z, x, y) = (s.r0(), r.bits(), r.rb());
/// assert_eq!(CotSlice { delta, z, x, y }.verify(), Ok(()));
/// ```
#[derive(Clone, Debug)]
pub struct Dealer {
    prf: Aes128,
    counter: u128,
}

impl Dealer {
    /// Creates a dealer with a reproducible seed.
    pub fn new(seed: u64) -> Self {
        Dealer {
            prf: Aes128::new(Block::from(seed as u128 | 1 << 127)),
            counter: 0,
        }
    }

    /// Draws the next pseudorandom block.
    pub fn random_block(&mut self) -> Block {
        self.counter += 1;
        self.prf.encrypt_block(Block::from(self.counter))
    }

    /// Draws a pseudorandom bit.
    pub fn random_bit(&mut self) -> bool {
        self.random_block().lsb()
    }

    /// Draws a uniformly-ish random index in `0..bound` (rejection-free
    /// modular reduction; the tiny bias is irrelevant for workloads).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.random_block().mix() % bound as u64) as usize
    }

    /// Draws a global correlation offset `Δ` with bit 0 set — the
    /// convention [`crate::ferret`] extends under (a string's bit 0 carries
    /// its choice bit), which also makes `Δ` non-zero by construction. The
    /// other 127 bits are pseudorandom.
    pub fn random_delta(&mut self) -> Block {
        self.random_block().with_lsb(true)
    }

    /// Deals `count` COT correlations under `delta` with random choice
    /// bits. The `2·count` pseudorandom blocks (strings, then the blocks
    /// the choice bits are read from) come from one bulk cipher call.
    pub fn deal_cot(&mut self, delta: Block, count: usize) -> (CotSender, CotReceiver) {
        let mut drawn: Vec<Block> = (1..=2 * count as u128)
            .map(|i| Block::from(self.counter + i))
            .collect();
        self.counter += 2 * count as u128;
        self.prf.encrypt_blocks(&mut drawn);
        let bits: Vec<bool> = drawn[count..].iter().map(|b| b.lsb()).collect();
        drawn.truncate(count);
        let rb = drawn
            .iter()
            .zip(&bits)
            .map(|(&r, &b)| r ^ delta.and_bit(b))
            .collect();
        (CotSender::new(delta, drawn), CotReceiver::new(bits, rb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cot::CotSlice;

    #[test]
    fn deterministic_in_seed() {
        let mut a = Dealer::new(7);
        let mut b = Dealer::new(7);
        assert_eq!(a.random_block(), b.random_block());
        assert_eq!(a.random_block(), b.random_block());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Dealer::new(7);
        let mut b = Dealer::new(8);
        assert_ne!(a.random_block(), b.random_block());
    }

    #[test]
    fn dealt_cots_verify() {
        let mut d = Dealer::new(3);
        let delta = d.random_delta();
        let (s, r) = d.deal_cot(delta, 128);
        let (z, x, y) = (s.r0(), r.bits(), r.rb());
        assert_eq!(CotSlice { delta, z, x, y }.verify(), Ok(()));
        assert_eq!(s.len(), 128);
    }

    #[test]
    fn delta_is_odd_and_deal_draws_like_single_blocks() {
        // Bit 0 of Δ is fixed; the bulk draw consumes the same counter
        // stream `random_block` would (strings first, then bit blocks).
        let mut d = Dealer::new(11);
        let delta = d.random_delta();
        assert!(delta.lsb());
        let mut single = d.clone();
        let (s, r) = d.deal_cot(delta, 5);
        let strings: Vec<Block> = (0..5).map(|_| single.random_block()).collect();
        let bits: Vec<bool> = (0..5).map(|_| single.random_bit()).collect();
        assert_eq!(s.r0(), strings.as_slice());
        assert_eq!(r.bits(), bits.as_slice());
        assert_eq!(d.random_block(), single.random_block());
    }

    #[test]
    fn choice_bits_are_mixed() {
        let mut d = Dealer::new(3);
        let delta = d.random_delta();
        let (_, r) = d.deal_cot(delta, 256);
        let ones = r.bits().iter().filter(|&&b| b).count();
        assert!(
            (64..192).contains(&ones),
            "bits look non-random: {ones}/256"
        );
    }

    #[test]
    fn random_index_in_bounds() {
        let mut d = Dealer::new(5);
        for _ in 0..100 {
            assert!(d.random_index(10) < 10);
        }
    }
}
