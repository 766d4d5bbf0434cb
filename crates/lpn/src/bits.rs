//! Packed bit vectors: a GF(2) lane in `u64` words.
//!
//! `x = e·A ⊕ u` is pure bit algebra, but the original pipeline carried
//! it as `Vec<bool>` — one **byte** per bit, so the `k = 168,000`-element
//! input of the 2^20 parameter set occupied 168 KB (spilling L1/L2) and
//! every gather loaded a whole byte to fetch one bit. [`PackedBits`] stores 64 bits per word: the same input is
//! ~21 KB — L1-resident on any deployment target — which is the software
//! twin of the paper's observation that rank-level NMP wins by moving
//! less DRAM data per useful bit (§5.3, Fig. 1c).
//!
//! Sessions no longer run a bit lane at all (the choice bit rides in
//! bit 0 of the receiver's block — see `ironman-ot`'s `ferret` module),
//! so the type keeps only what the packed kernels the benchmark harness
//! still probes need: construction from/unpacking to `bool`s, bit
//! get/toggle, and word-level XOR for bulk accumulation.

/// A bit vector packed least-significant-bit-first into `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        PackedBits {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Packs a `bool` slice (index `i` of the slice becomes bit `i`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut packed = PackedBits::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            packed.words[i >> 6] |= (b as u64) << (i & 63);
        }
        packed
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (the last word's bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// XORs `b` onto bit `i` — the GF(2) accumulate the kernels run.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn xor_bit(&mut self, i: usize, b: bool) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i >> 6] ^= (b as u64) << (i & 63);
    }

    /// XORs a whole word of bits onto word `idx` — the flush primitive
    /// behind the kernels' pending-word caches. Bits past `len()` must
    /// be zero in `bits` (callers only accumulate in-range rows).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn xor_word(&mut self, idx: usize, bits: u64) {
        self.words[idx] ^= bits;
    }

    /// The whole vector as `bool`s.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len)
            .map(|i| (self.words[i >> 6] >> (i & 63)) & 1 == 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<bool> {
        (0..len).map(|i| (i * 7 + i / 13) % 3 == 0).collect()
    }

    #[test]
    fn pack_unpack_round_trip() {
        for len in [0usize, 1, 63, 64, 65, 200, 1024, 1031] {
            let bits = pattern(len);
            let packed = PackedBits::from_bools(&bits);
            assert_eq!(packed.len(), len);
            assert_eq!(packed.to_bools(), bits, "len {len}");
        }
    }

    #[test]
    fn get_agrees_with_bools() {
        let bits = pattern(130);
        let packed = PackedBits::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(packed.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn xor_bit_toggles() {
        let mut p = PackedBits::zeros(70);
        p.xor_bit(69, true);
        assert!(p.get(69));
        p.xor_bit(69, true);
        assert!(!p.get(69));
        p.xor_bit(69, false);
        assert!(!p.get(69));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let p = PackedBits::zeros(10);
        let _ = p.get(10);
    }
}
