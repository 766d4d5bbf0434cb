//! Correlated-OT (COT) correlation types.
//!
//! A COT correlation (Fig. 2 of the paper) is a quadruple `(Δ, z, x, y)`
//! with `z = y ⊕ x·Δ`: the sender holds the global offset `Δ` and a
//! string `z` (its message pair is `(z, z ⊕ Δ)`), the receiver holds a
//! random choice bit `x` and the chosen string `y`.
//!
//! * [`CotBatch`] owns a batch of matched correlations, both halves side
//!   by side; [`CotSlice`] is its borrowed view. Every extension output,
//!   staged session batch and pool take is one of these, and
//!   [`CotSlice::verify`] is the one check of `z = y ⊕ x·Δ`.
//! * [`CotSender`] (`Δ` and `z`, as `r0`) and [`CotReceiver`] (`x` and
//!   `y`, as `bits` and `rb`) are the per-party halves a protocol holds,
//!   such as the dealt base correlations.

use ironman_prg::Block;
use serde::{Deserialize, Serialize};

/// A matched batch of correlations handed to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CotBatch {
    /// The global offset `Δ` (sender side).
    pub delta: Block,
    /// Sender strings `z`.
    pub z: Vec<Block>,
    /// Receiver choice bits `x`.
    pub x: Vec<bool>,
    /// Receiver strings `y` with `z = y ⊕ x·Δ`.
    pub y: Vec<Block>,
}

impl Default for CotBatch {
    /// An empty batch (useful as a reusable decode/take target).
    fn default() -> Self {
        CotBatch {
            delta: Block::ZERO,
            z: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }
}

impl CotBatch {
    /// Number of correlations in the batch.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }

    /// A borrowed view of the whole batch.
    pub fn as_slice(&self) -> CotSlice<'_> {
        CotSlice {
            delta: self.delta,
            z: &self.z,
            x: &self.x,
            y: &self.y,
        }
    }

    /// Checks the correlation on every element.
    ///
    /// # Errors
    ///
    /// Returns the index of the first violation.
    pub fn verify(&self) -> Result<(), usize> {
        self.as_slice().verify()
    }
}

/// A borrowed batch view into a pool's ring (or any matched `z`/`x`/`y`
/// triple): the zero-copy counterpart of [`CotBatch`]. Producers hand it
/// to encoders so correlation payloads go from pool storage to the wire
/// scratch buffer in one copy.
#[derive(Clone, Copy, Debug)]
pub struct CotSlice<'a> {
    /// The global offset `Δ`.
    pub delta: Block,
    /// Sender strings `z`.
    pub z: &'a [Block],
    /// Receiver choice bits `x`.
    pub x: &'a [bool],
    /// Receiver strings `y`.
    pub y: &'a [Block],
}

impl CotSlice<'_> {
    /// Number of correlations in the view.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }

    /// Checks the correlation on every element.
    ///
    /// # Errors
    ///
    /// Returns the index of the first violation.
    ///
    /// # Example
    ///
    /// ```
    /// use ironman_ot::CotSlice;
    /// use ironman_prg::Block;
    ///
    /// let delta = Block::from(0xffu128);
    /// let (z, y) = ([Block::from(1u128)], [Block::from(1u128) ^ delta]);
    /// let cots = CotSlice { delta, z: &z, x: &[true], y: &y };
    /// assert_eq!(cots.verify(), Ok(()));
    /// ```
    pub fn verify(&self) -> Result<(), usize> {
        for i in 0..self.len() {
            if self.z[i] != self.y[i] ^ self.delta.and_bit(self.x[i]) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Copies this view into `out`, reusing `out`'s allocations.
    pub fn copy_into(&self, out: &mut CotBatch) {
        out.delta = self.delta;
        out.z.clear();
        out.z.extend_from_slice(self.z);
        out.x.clear();
        out.x.extend_from_slice(self.x);
        out.y.clear();
        out.y.extend_from_slice(self.y);
    }
}

/// The sender's share of a batch of COT correlations: the global `Δ` and
/// one string `z` (here `r0`) per correlation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CotSender {
    delta: Block,
    r0: Vec<Block>,
}

/// The receiver's share of a batch of COT correlations: choice bits `x`
/// (here `bits`) and the chosen strings `y` (here `rb`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CotReceiver {
    bits: Vec<bool>,
    rb: Vec<Block>,
}

impl CotSender {
    /// Wraps the sender's share of a COT batch.
    pub fn new(delta: Block, r0: Vec<Block>) -> Self {
        CotSender { delta, r0 }
    }

    /// The global correlation offset `Δ`.
    pub fn delta(&self) -> Block {
        self.delta
    }

    /// The `r0` strings (`z`).
    pub fn r0(&self) -> &[Block] {
        &self.r0
    }

    /// Number of correlations in the batch.
    pub fn len(&self) -> usize {
        self.r0.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.r0.is_empty()
    }

    /// The message pair `(r0, r1 = r0 ⊕ Δ)` of correlation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pair(&self, i: usize) -> (Block, Block) {
        let r0 = self.r0[i];
        (r0, r0 ^ self.delta)
    }

    /// Splits off the first `count` correlations into a new batch
    /// (consuming them from `self`). Used to feed sub-protocols.
    ///
    /// # Panics
    ///
    /// Panics if `count > len()`.
    pub fn split_off_front(&mut self, count: usize) -> CotSender {
        assert!(
            count <= self.r0.len(),
            "cannot split {count} of {}",
            self.r0.len()
        );
        let rest = self.r0.split_off(count);
        let front = std::mem::replace(&mut self.r0, rest);
        CotSender {
            delta: self.delta,
            r0: front,
        }
    }
}

impl CotReceiver {
    /// Wraps the receiver's share of a COT batch.
    ///
    /// # Panics
    ///
    /// Panics if `bits` and `rb` lengths differ.
    pub fn new(bits: Vec<bool>, rb: Vec<Block>) -> Self {
        assert_eq!(bits.len(), rb.len(), "choice bits and blocks must align");
        CotReceiver { bits, rb }
    }

    /// The choice bits `x`.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The received strings `y = r0 ⊕ x·Δ`.
    pub fn rb(&self) -> &[Block] {
        &self.rb
    }

    /// Number of correlations in the batch.
    pub fn len(&self) -> usize {
        self.rb.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rb.is_empty()
    }

    /// Splits off the first `count` correlations (see
    /// [`CotSender::split_off_front`]).
    ///
    /// # Panics
    ///
    /// Panics if `count > len()`.
    pub fn split_off_front(&mut self, count: usize) -> CotReceiver {
        assert!(
            count <= self.rb.len(),
            "cannot split {count} of {}",
            self.rb.len()
        );
        let rest_bits = self.bits.split_off(count);
        let rest_rb = self.rb.split_off(count);
        let front_bits = std::mem::replace(&mut self.bits, rest_bits);
        let front_rb = std::mem::replace(&mut self.rb, rest_rb);
        CotReceiver {
            bits: front_bits,
            rb: front_rb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(delta: u128, n: usize) -> (CotSender, CotReceiver) {
        let delta = Block::from(delta);
        let r0: Vec<Block> = (0..n as u128)
            .map(|i| Block::from(i * 0x1111 + 7))
            .collect();
        let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let rb: Vec<Block> = r0
            .iter()
            .zip(&bits)
            .map(|(&r, &b)| r ^ delta.and_bit(b))
            .collect();
        (CotSender::new(delta, r0), CotReceiver::new(bits, rb))
    }

    /// The two halves checked as one batch.
    fn check(s: &CotSender, r: &CotReceiver) -> Result<(), usize> {
        CotSlice {
            delta: s.delta(),
            z: s.r0(),
            x: r.bits(),
            y: r.rb(),
        }
        .verify()
    }

    fn batch(n: usize) -> CotBatch {
        let (s, r) = sample(0xdead, n);
        CotBatch {
            delta: s.delta(),
            z: s.r0().to_vec(),
            x: r.bits().to_vec(),
            y: r.rb().to_vec(),
        }
    }

    #[test]
    fn valid_batch_verifies() {
        let (s, r) = sample(0xdead, 16);
        assert_eq!(check(&s, &r), Ok(()));
        assert_eq!(batch(16).verify(), Ok(()));
    }

    #[test]
    fn corrupted_batch_detected() {
        let (s, mut r) = sample(0xdead, 16);
        r.rb[5] ^= Block::from(1u128);
        assert_eq!(check(&s, &r), Err(5));
    }

    #[test]
    fn any_flipped_bit_reports_the_first_violating_index() {
        let n = 16;
        for field in ["z", "y", "x"] {
            let flip = |b: &mut CotBatch, i: usize| match field {
                "z" => b.z[i] ^= Block::from(1u128 << 77),
                "y" => b.y[i] ^= Block::from(1u128),
                _ => b.x[i] ^= true,
            };
            for i in [0, 5, n - 1] {
                let mut b = batch(n);
                flip(&mut b, i);
                assert_eq!(b.verify(), Err(i), "{field}[{i}]");
                if i + 3 < n {
                    // A later violation does not mask an earlier one.
                    flip(&mut b, i + 3);
                    assert_eq!(b.verify(), Err(i), "{field}[{i}] and later");
                }
            }
        }
    }

    #[test]
    fn another_delta_fails_where_a_choice_bit_is_set() {
        // Where x[i] = 0 the check reads z = y whatever Δ is, so the first
        // violation is the first set choice bit.
        let mut b = batch(16);
        b.x[0] = false;
        b.y[0] = b.z[0];
        let first_set = b.x.iter().position(|&x| x).unwrap();
        assert!(first_set > 0);
        b.delta ^= Block::from(1u128 << 100);
        assert_eq!(b.verify(), Err(first_set));
    }

    #[test]
    fn pair_has_delta_offset() {
        let (s, _) = sample(0xabc, 4);
        let (r0, r1) = s.pair(2);
        assert_eq!(r0 ^ r1, s.delta());
    }

    #[test]
    fn split_preserves_correlation() {
        let (mut s, mut r) = sample(0x77, 10);
        let sf = s.split_off_front(4);
        let rf = r.split_off_front(4);
        assert_eq!(sf.len(), 4);
        assert_eq!(s.len(), 6);
        assert_eq!(check(&sf, &rf), Ok(()));
        assert_eq!(check(&s, &r), Ok(()));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn oversplit_panics() {
        let (mut s, _) = sample(1, 3);
        let _ = s.split_off_front(4);
    }

    #[test]
    fn empty_checks() {
        let (s, r) = sample(1, 0);
        assert!(s.is_empty() && r.is_empty());
        assert_eq!(check(&s, &r), Ok(()));
        assert!(CotBatch::default().is_empty());
        assert_eq!(CotBatch::default().verify(), Ok(()));
    }

    #[test]
    fn copy_into_overwrites_the_target() {
        let b = batch(9);
        let mut out = batch(3);
        b.as_slice().copy_into(&mut out);
        assert_eq!(out, b);
    }
}
