//! The 128-bit [`Block`] type.
//!
//! Every value that flows through the Ironman pipeline — GGM tree nodes, COT
//! correlation strings, LPN vector elements, the global offset `Δ` — is a
//! 128-bit block (`λ = 128` in the paper's notation, Table 1). The type is a
//! thin newtype over `u128` with XOR-centric arithmetic, because all protocol
//! algebra happens in GF(2)^128.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitXor, BitXorAssign, Not};

/// A 128-bit block, the universal data unit of the OT-extension pipeline.
///
/// `Block` is `Copy` and cheap; protocol code passes it by value.
///
/// # Example
///
/// ```
/// use ironman_prg::Block;
///
/// let delta = Block::from(0xdead_beefu128);
/// let r0 = Block::from(17u128);
/// let r1 = r0 ^ delta; // a COT correlation pair: r1 = r0 ⊕ Δ
/// assert_eq!(r0 ^ r1, delta);
/// ```
/// `repr(transparent)` is a wire-format commitment: a `Block` has exactly
/// the size, alignment and byte representation of its `u128`, which is what
/// lets [`Block::wire_bytes`] hand a `&[Block]` to the socket as raw bytes
/// on little-endian targets without a serialization copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Block(pub u128);

impl Block {
    /// The all-zero block.
    pub const ZERO: Block = Block(0);
    /// The all-one block.
    pub const ONES: Block = Block(u128::MAX);
    /// Size of a block in bytes.
    pub const BYTES: usize = 16;
    /// Size of a block in bits (the security parameter λ).
    pub const BITS: usize = 128;

    /// Creates a block from its little-endian byte representation.
    ///
    /// # Example
    ///
    /// ```
    /// use ironman_prg::Block;
    /// let b = Block::from_le_bytes([1u8; 16]);
    /// assert_eq!(b.to_le_bytes(), [1u8; 16]);
    /// ```
    #[inline]
    pub fn from_le_bytes(bytes: [u8; 16]) -> Self {
        Block(u128::from_le_bytes(bytes))
    }

    /// Returns the little-endian byte representation.
    #[inline]
    pub fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Appends `blocks` to `out` as consecutive 16-byte little-endian
    /// words — the bulk form of [`Block::to_le_bytes`] used by
    /// serialization hot paths. On little-endian targets this is one
    /// `memcpy` of the slice's own bytes.
    pub fn extend_le_bytes(blocks: &[Block], out: &mut Vec<u8>) {
        #[cfg(target_endian = "little")]
        out.extend_from_slice(le_view(blocks));
        #[cfg(not(target_endian = "little"))]
        {
            out.reserve(blocks.len() * Block::BYTES);
            for b in blocks {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
    }

    /// Appends consecutive 16-byte little-endian words from `bytes` to
    /// `out` — the bulk inverse of [`Block::extend_le_bytes`], one
    /// `memcpy` into `out`'s spare capacity on little-endian targets.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of [`Block::BYTES`]
    /// (callers validate lengths before decoding).
    #[allow(unsafe_code)]
    pub fn extend_from_le_bytes(bytes: &[u8], out: &mut Vec<Block>) {
        assert_eq!(bytes.len() % Block::BYTES, 0, "partial block");
        let n = bytes.len() / Block::BYTES;
        out.reserve(n);
        #[cfg(target_endian = "little")]
        // SAFETY: `reserve` left room for `n` more blocks past `len`, i.e.
        // `bytes.len()` writable bytes; `bytes` is a shared borrow, so it
        // cannot overlap `out`'s exclusively borrowed buffer. Every bit
        // pattern is a valid `u128`, and on little-endian targets the
        // native byte order is the wire order, so after the copy the `n`
        // new elements are initialized and `set_len` may cover them.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len()).cast::<u8>();
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len());
            out.set_len(out.len() + n);
        }
        #[cfg(not(target_endian = "little"))]
        for chunk in bytes.chunks_exact(Block::BYTES) {
            out.push(Block::from_le_bytes(
                chunk.try_into().expect("exact 16-byte chunk"),
            ));
        }
    }

    /// Fills `blocks` from little-endian wire bytes written in place by
    /// `fill`, which receives a mutable byte view of the slice (`16 ×
    /// len` bytes) — the receive-side twin of [`Block::wire_bytes`]: a
    /// socket `read_exact` lands straight in a batch's storage. After
    /// `fill` succeeds each block is fixed up from little-endian to
    /// native order (a no-op on little-endian targets). If `fill` fails,
    /// `blocks` holds whatever bytes it had written (every bit pattern is
    /// a valid block).
    ///
    /// # Errors
    ///
    /// Propagates `fill`'s error.
    #[allow(unsafe_code)]
    pub fn fill_from_le_bytes<E>(
        blocks: &mut [Block],
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        // SAFETY: `Block` is `repr(transparent)` over `u128`, so the slice
        // is `len * 16` contiguous initialized bytes; `u8` has alignment 1,
        // and every byte pattern written through the view is a valid
        // `u128`. The view borrows `blocks` exclusively for its lifetime.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                blocks.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(blocks),
            )
        };
        fill(bytes)?;
        #[cfg(not(target_endian = "little"))]
        for b in blocks.iter_mut() {
            b.0 = u128::from_le(b.0);
        }
        Ok(())
    }

    /// Builds a block from two 64-bit halves (`hi`, `lo`).
    #[inline]
    pub fn from_halves(hi: u64, lo: u64) -> Self {
        Block(((hi as u128) << 64) | lo as u128)
    }

    /// Splits the block into `(hi, lo)` 64-bit halves.
    #[inline]
    pub fn to_halves(self) -> (u64, u64) {
        ((self.0 >> 64) as u64, self.0 as u64)
    }

    /// Returns the least-significant bit, used as the "choice bit" carrier in
    /// COT-to-bit conversions.
    #[inline]
    pub fn lsb(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the block with the least-significant bit forced to `bit`.
    #[inline]
    pub fn with_lsb(self, bit: bool) -> Self {
        Block((self.0 & !1) | bit as u128)
    }

    /// Conditionally selects `self` when `bit` is set, otherwise zero.
    ///
    /// This is the `x·Δ` operation of the COT correlation `z = y ⊕ x·Δ`
    /// (constant-time by construction: a mask, not a branch).
    #[inline]
    pub fn and_bit(self, bit: bool) -> Self {
        Block(self.0 & (bit as u128).wrapping_neg())
    }

    /// XOR-accumulates an iterator of blocks (the "XOR tree" reduction of
    /// the GGM level and leaf sums).
    ///
    /// # Example
    ///
    /// ```
    /// use ironman_prg::Block;
    /// let blocks = [Block::from(1u128), Block::from(2u128), Block::from(4u128)];
    /// assert_eq!(Block::xor_all(blocks.iter().copied()), Block::from(7u128));
    /// ```
    #[inline]
    pub fn xor_all<I: IntoIterator<Item = Block>>(iter: I) -> Block {
        iter.into_iter().fold(Block::ZERO, |a, b| a ^ b)
    }

    /// The little-endian wire bytes of `blocks` — identical to what
    /// [`Block::extend_le_bytes`] would append, without the copy where
    /// the in-memory representation already matches.
    ///
    /// On little-endian targets this is a zero-copy view of the slice
    /// (sound because `Block` is `repr(transparent)` over `u128`, whose
    /// native byte order *is* its little-endian wire order there); on
    /// big-endian targets the blocks are serialized into `fallback` and
    /// a view of it is returned. Callers pass a reusable scratch vector
    /// and treat the returned slice uniformly — the transport's vectored
    /// send path uses this to put ring-buffer COTs on the socket without
    /// a staging copy.
    pub fn wire_bytes<'a>(blocks: &'a [Block], fallback: &'a mut Vec<u8>) -> &'a [u8] {
        #[cfg(target_endian = "little")]
        {
            let _ = fallback;
            le_view(blocks)
        }
        #[cfg(not(target_endian = "little"))]
        {
            fallback.clear();
            Block::extend_le_bytes(blocks, fallback);
            fallback.as_slice()
        }
    }

    /// Interprets the block as a pair of `u64`s and mixes them with an
    /// avalanche step. Used only for non-cryptographic hashing in tests and
    /// workload generators.
    #[inline]
    pub fn mix(self) -> u64 {
        let (hi, lo) = self.to_halves();
        let mut x = hi ^ lo.rotate_left(31);
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 32;
        x
    }
}

/// The in-memory bytes of `blocks`, which on little-endian targets are
/// exactly their little-endian wire bytes.
#[cfg(target_endian = "little")]
#[allow(unsafe_code)]
fn le_view(blocks: &[Block]) -> &[u8] {
    // SAFETY: `Block` is `repr(transparent)` over `u128`, so the slice is
    // `len * 16` contiguous initialized bytes; `u8` has alignment 1 and no
    // validity requirements. On little-endian targets the native byte
    // order equals `to_le_bytes` order.
    unsafe {
        std::slice::from_raw_parts(blocks.as_ptr().cast::<u8>(), std::mem::size_of_val(blocks))
    }
}

impl From<u128> for Block {
    #[inline]
    fn from(v: u128) -> Self {
        Block(v)
    }
}

impl From<Block> for u128 {
    #[inline]
    fn from(b: Block) -> Self {
        b.0
    }
}

impl From<[u8; 16]> for Block {
    #[inline]
    fn from(bytes: [u8; 16]) -> Self {
        Block::from_le_bytes(bytes)
    }
}

impl BitXor for Block {
    type Output = Block;
    #[inline]
    fn bitxor(self, rhs: Block) -> Block {
        Block(self.0 ^ rhs.0)
    }
}

impl BitXorAssign for Block {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Block) {
        self.0 ^= rhs.0;
    }
}

impl BitAnd for Block {
    type Output = Block;
    #[inline]
    fn bitand(self, rhs: Block) -> Block {
        Block(self.0 & rhs.0)
    }
}

impl BitAndAssign for Block {
    #[inline]
    fn bitand_assign(&mut self, rhs: Block) {
        self.0 &= rhs.0;
    }
}

impl Not for Block {
    type Output = Block;
    #[inline]
    fn not(self) -> Block {
        Block(!self.0)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:032x})", self.0)
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_xor_identity() {
        let b = Block::from(0x1234_5678_9abc_def0u128);
        assert_eq!(b ^ Block::ZERO, b);
        assert_eq!(b ^ b, Block::ZERO);
    }

    #[test]
    fn and_bit_selects() {
        let b = Block::from(0xffu128);
        assert_eq!(b.and_bit(true), b);
        assert_eq!(b.and_bit(false), Block::ZERO);
    }

    #[test]
    fn halves_round_trip() {
        let b = Block::from_halves(0xdead_beef, 0xcafe_babe);
        assert_eq!(b.to_halves(), (0xdead_beef, 0xcafe_babe));
    }

    #[test]
    fn bytes_round_trip() {
        let mut bytes = [0u8; 16];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = i as u8;
        }
        assert_eq!(Block::from_le_bytes(bytes).to_le_bytes(), bytes);
    }

    #[test]
    fn lsb_manipulation() {
        let b = Block::from(6u128);
        assert!(!b.lsb());
        assert!(b.with_lsb(true).lsb());
        assert_eq!(b.with_lsb(true).with_lsb(false), b);
    }

    #[test]
    fn xor_all_empty_is_zero() {
        assert_eq!(Block::xor_all(std::iter::empty()), Block::ZERO);
    }

    #[test]
    fn wire_bytes_matches_extend_le_bytes() {
        let blocks: Vec<Block> = (0..5u128).map(|i| Block::from(i << 64 | (i + 1))).collect();
        let mut expect = Vec::new();
        Block::extend_le_bytes(&blocks, &mut expect);
        let mut fallback = Vec::new();
        assert_eq!(Block::wire_bytes(&blocks, &mut fallback), expect.as_slice());
        assert!(Block::wire_bytes(&[], &mut fallback).is_empty());
    }

    #[test]
    fn bulk_le_copies_match_per_block_codec() {
        for len in [0usize, 1, 2, 7, 64] {
            let blocks: Vec<Block> = (0..len as u128)
                .map(|i| Block::from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835) ^ i))
                .collect();
            let expect: Vec<u8> = blocks.iter().flat_map(|b| b.to_le_bytes()).collect();
            let mut bytes = vec![0xAA]; // appends after existing content
            Block::extend_le_bytes(&blocks, &mut bytes);
            assert_eq!(&bytes[1..], expect.as_slice(), "len {len}");

            let mut back = vec![Block::ONES];
            Block::extend_from_le_bytes(&expect, &mut back);
            assert_eq!(back[0], Block::ONES);
            assert_eq!(&back[1..], blocks.as_slice(), "len {len}");

            let mut filled = vec![Block::ONES; len];
            Block::fill_from_le_bytes(&mut filled, |view| {
                assert_eq!(view.len(), expect.len());
                view.copy_from_slice(&expect);
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(filled, blocks, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "partial block")]
    fn extend_from_le_bytes_rejects_partial_block() {
        Block::extend_from_le_bytes(&[0u8; 17], &mut Vec::new());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(
            format!("{}", Block::from(0xabu128)),
            format!("{:032x}", 0xabu128)
        );
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Block::ZERO).is_empty());
    }
}
