//! The LPN encoder: sparse matrix–vector products over GF(2) and
//! GF(2^128), shared by every kernel variant.
//!
//! Each output element is the XOR of `d` randomly indexed input elements,
//! accumulated onto the SPCOT output in place. An extension runs one
//! routine on both parties — the sender's `z = r·A ⊕ w` and the
//! receiver's `y = s·A ⊕ v` are the same block pass, the receiver's
//! choice bit riding in bit 0 of each block — and the packed-bit lanes
//! (`x = e·A ⊕ u` as its own GF(2) product) remain for the benchmark
//! harness's probe of the older receiver shapes.
//!
//! All kernels are expressed over one generic XOR-accumulate core — the
//! [`XorLane`] trait, whose defining operation is `acc[row] ^= input[col]`
//! — so the row-major (naive) and tile-major ([`crate::tile`]) traversals
//! each exist **once** and serve blocks, packed bits and the fused
//! block+bit pair alike. Monomorphization inlines the
//! lane into each traversal; there is no dynamic dispatch on the hot
//! path. Lanes override the batched trait methods only to keep their
//! accumulation state in registers (one store per row / per packed word
//! instead of one read-modify-write per gather).

use crate::bits::PackedBits;
use crate::LpnMatrix;
use ironman_prg::Block;

/// One gather-XOR lane: an input vector indexed by column, an accumulator
/// indexed by row, and the single operation every LPN kernel is built
/// from. Implementations are expected to be `#[inline]`-friendly structs
/// borrowing their vectors; the traversals ([`encode_rows`],
/// [`crate::tile::TileSchedule::encode`]) are generic over the lane.
pub trait XorLane {
    /// `acc[row] ^= input[col]`.
    fn xor_gather(&mut self, row: usize, col: usize);

    /// Row-batched form: `acc[row] ^= ⊕_{c∈cols} input[c]`, equivalent
    /// to `xor_gather` per column. The row-major traversal calls this so
    /// lanes can accumulate the row in a register and touch the
    /// accumulator once per row instead of once per gather.
    #[inline]
    fn xor_gather_row(&mut self, row: usize, cols: &[u32]) {
        for &c in cols {
            self.xor_gather(row, c as usize);
        }
    }

    /// Hints that `cols` will be gathered shortly (a later row's column
    /// list, handed down by the row-major driver's lookahead):
    /// implementations may issue cache prefetches for `input[c]`. The
    /// default is no hint — scalar lanes compile it away entirely.
    #[inline]
    fn prefetch_cols(&self, _cols: &[u32]) {}

    /// Bucket-batched form, driven by [`crate::tile::TileSchedule`]:
    /// every entry packs `(local_row << col_bits) | local_col` relative
    /// to the bucket's `(row_base, col_base)` origin, in the schedule's
    /// emission order. Implementations must be correct for **any** row
    /// order — `TileSchedule::build` happens to emit rows ascending
    /// (which is what makes the packed lanes' pending-word buffering
    /// fast), but [`crate::tile::TileSchedule::build_with`] keeps whatever
    /// order its gather set is emitted in. Equivalent to `xor_gather` per
    /// entry.
    #[inline]
    fn xor_gather_bucket(
        &mut self,
        row_base: usize,
        col_base: usize,
        col_bits: u32,
        entries: &[u32],
    ) {
        let mask = (1u32 << col_bits) - 1;
        for &e in entries {
            self.xor_gather(
                row_base + (e >> col_bits) as usize,
                col_base + (e & mask) as usize,
            );
        }
    }
}

/// The block lane (GF(2^128)) over plain slices.
pub struct SliceLane<'a> {
    /// The length-`k` input vector.
    pub input: &'a [Block],
    /// The length-`n` accumulator.
    pub acc: &'a mut [Block],
}

impl XorLane for SliceLane<'_> {
    #[inline(always)]
    fn xor_gather(&mut self, row: usize, col: usize) {
        let v = self.input[col];
        self.acc[row] ^= v;
    }

    #[inline(always)]
    fn xor_gather_row(&mut self, row: usize, cols: &[u32]) {
        // Accumulate in a register; one accumulator store per row.
        let mut x = self.acc[row];
        for &c in cols {
            x ^= self.input[c as usize];
        }
        self.acc[row] = x;
    }
}

/// Two block lanes over one index stream: each gather XORs `r[col]` into
/// `z[row]` and `s[col]` into `y[row]`. Both parties' LPN phase as one
/// pass when one thread runs both (the sender's `z = r·A ⊕ w`, the
/// receiver's `y = s·A ⊕ v`): only the public matrix is shared, and each
/// accumulator still reads only its own input.
pub(crate) struct BlockPairLane<'a> {
    /// The first length-`k` input.
    pub(crate) r: &'a [Block],
    /// The second length-`k` input.
    pub(crate) s: &'a [Block],
    /// The first length-`n` accumulator (`r`'s).
    pub(crate) z: &'a mut [Block],
    /// The second length-`n` accumulator (`s`'s).
    pub(crate) y: &'a mut [Block],
}

impl XorLane for BlockPairLane<'_> {
    #[inline(always)]
    fn xor_gather(&mut self, row: usize, col: usize) {
        let (a, b) = (self.r[col], self.s[col]);
        self.z[row] ^= a;
        self.y[row] ^= b;
    }

    #[inline(always)]
    fn xor_gather_bucket(
        &mut self,
        row_base: usize,
        col_base: usize,
        col_bits: u32,
        entries: &[u32],
    ) {
        // The four slices in locals, rebased once per bucket: per entry
        // only the two gathers and the two accumulator updates remain.
        let mask = (1u32 << col_bits) - 1;
        let (r, s) = (&self.r[col_base..], &self.s[col_base..]);
        let (z, y) = (&mut self.z[row_base..], &mut self.y[row_base..]);
        for &e in entries {
            let (row, col) = ((e >> col_bits) as usize, (e & mask) as usize);
            z[row] ^= r[col];
            y[row] ^= s[col];
        }
    }
}

/// Single-bit masks indexed by bit position (`BIT_MASK[i] == 1 << i`).
const BIT_MASK: [u64; 64] = {
    let mut m = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        m[i] = 1u64 << i;
        i += 1;
    }
    m
};

/// Mask-table bit test of bit `col` of `words` (LSB-first packing, as
/// [`PackedBits`]): one word load plus one mask load (64-entry table, a
/// pair of L1 lines) and an AND. The table lookup replaces a variable
/// shift, which baseline x86-64 serializes through the shift-count
/// register — the right trade *without* BMI2, so the scalar lanes use it.
#[inline(always)]
fn table_bit(words: &[u64], col: usize) -> bool {
    words[col >> 6] & BIT_MASK[col & 63] != 0
}

/// Variable-shift bit test: `(word >> (col & 63)) & 1`. Loses to the
/// mask table on baseline x86-64 (shift-count serialization) but wins
/// once BMI2 is enabled, where it compiles to a single `SHRX` with no
/// table traffic — the probe of the [`crate::simd`] wide kernels.
#[inline(always)]
pub(crate) fn shift_bit(words: &[u64], col: usize) -> bool {
    (words[col >> 6] >> (col & 63)) & 1 != 0
}

/// The packed-bit lane: input and accumulator are [`PackedBits`] words,
/// so the `k`-bit input window is 8× smaller than its `bool` twin
/// (L1-resident at Table-4 scale). Row-major only: nothing drives it
/// through a tile schedule.
pub struct PackedLane<'a> {
    input: &'a PackedBits,
    acc: &'a mut PackedBits,
}

impl<'a> PackedLane<'a> {
    /// Borrows the input/accumulator pair.
    pub fn new(input: &'a PackedBits, acc: &'a mut PackedBits) -> Self {
        PackedLane { input, acc }
    }
}

impl XorLane for PackedLane<'_> {
    #[inline(always)]
    fn xor_gather(&mut self, row: usize, col: usize) {
        let b = table_bit(self.input.words(), col);
        self.acc.xor_bit(row, b);
    }

    #[inline(always)]
    fn xor_gather_row(&mut self, row: usize, cols: &[u32]) {
        let words = self.input.words();
        self.acc.xor_bit(row, row_parity(words, cols));
    }
}

/// One packed accumulator word buffered in locals (registers) across a
/// bucket: `TileSchedule::build` emits rows ascending within a bucket,
/// so consecutive entries share a 64-row word for long runs and the
/// write-back branch is rare and well predicted. Correct for *any* row
/// order (each word change writes back), ascending order is only what
/// makes it fast.
pub(crate) struct PendingWord {
    bits: u64,
    idx: usize,
}

impl PendingWord {
    #[inline(always)]
    pub(crate) fn at(row: usize) -> Self {
        PendingWord {
            bits: 0,
            idx: row >> 6,
        }
    }

    #[inline(always)]
    pub(crate) fn xor_bit(&mut self, acc: &mut PackedBits, row: usize, b: bool) {
        let idx = row >> 6;
        if idx != self.idx {
            acc.xor_word(self.idx, self.bits);
            self.bits = 0;
            self.idx = idx;
        }
        self.bits ^= (b as u64) << (row & 63);
    }

    #[inline(always)]
    pub(crate) fn flush(self, acc: &mut PackedBits) {
        acc.xor_word(self.idx, self.bits);
    }
}

/// Two-lane parity of `cols`' bits in `words` — short XOR chains, no
/// accumulator traffic.
#[inline(always)]
fn row_parity(words: &[u64], cols: &[u32]) -> bool {
    let mut even = false;
    let mut odd = false;
    let mut pairs = cols.chunks_exact(2);
    for pair in &mut pairs {
        even ^= table_bit(words, pair[0] as usize);
        odd ^= table_bit(words, pair[1] as usize);
    }
    for &c in pairs.remainder() {
        even ^= table_bit(words, c as usize);
    }
    even ^ odd
}

/// The fused receiver lane of the pre-bit-0 protocol: one tile-major
/// traversal drives both `y[row] ^= s[col]` (blocks) and
/// `x[row] ^= e[col]` (packed bits), sharing a single pass over the index
/// stream and a single gather address per entry. No session runs it any
/// more; it is the scalar tier of [`crate::simd::encode_cot_pair_tiled`],
/// kept for the benchmark harness's probe.
pub struct CotPairLane<'a> {
    s: &'a [Block],
    e: &'a PackedBits,
    y: &'a mut [Block],
    x: &'a mut PackedBits,
}

impl<'a> CotPairLane<'a> {
    /// Borrows the two input/accumulator pairs.
    pub fn new(
        s: &'a [Block],
        e: &'a PackedBits,
        y: &'a mut [Block],
        x: &'a mut PackedBits,
    ) -> Self {
        CotPairLane { s, e, y, x }
    }
}

impl XorLane for CotPairLane<'_> {
    #[inline(always)]
    fn xor_gather(&mut self, row: usize, col: usize) {
        let v = self.s[col];
        self.y[row] ^= v;
        self.x.xor_bit(row, table_bit(self.e.words(), col));
    }

    #[inline(always)]
    fn xor_gather_bucket(
        &mut self,
        row_base: usize,
        col_base: usize,
        col_bits: u32,
        entries: &[u32],
    ) {
        let mask = (1u32 << col_bits) - 1;
        let words = self.e.words();
        // The y half read-modify-writes per entry (rows change too
        // unpredictably for run accumulation to beat the store buffer);
        // the packed x half buffers its 64-row word ([`PendingWord`]).
        let mut pending = PendingWord::at(row_base);
        for &en in entries {
            let row = row_base + (en >> col_bits) as usize;
            let col = col_base + (en & mask) as usize;
            let v = self.s[col];
            self.y[row] ^= v;
            pending.xor_bit(self.x, row, table_bit(words, col));
        }
        pending.flush(self.x);
    }
}

/// The row-major (naive) traversal: for each output row, gather its `d`
/// columns. Sequential on the accumulator, random on the input — the
/// access pattern of Fig. 1(c) that the tile schedule reorders.
pub fn encode_rows(matrix: &LpnMatrix, lane: &mut impl XorLane) {
    // Row lookahead: at 2^20-class k the input vector outruns L2, so
    // the irregular `input[col]` reads miss unless requested ahead of
    // use. Eight rows ≈ 80 gathers of flight time, far enough to cover
    // DRAM latency without evicting lines before they are consumed;
    // scalar lanes keep the default no-op hint and lose nothing.
    const LOOKAHEAD: usize = 8;
    let rows = matrix.rows();
    for j in 0..rows {
        if let Some(ahead) = (j + LOOKAHEAD < rows).then(|| matrix.row(j + LOOKAHEAD)) {
            lane.prefetch_cols(ahead);
        }
        lane.xor_gather_row(j, matrix.row(j));
    }
}

/// Accumulates `A·input` onto `acc` (blocks): `acc[j] ^= ⊕_{i∈row_j} input[i]`.
///
/// # Panics
///
/// Panics if `input.len() != matrix.cols()` or `acc.len() != matrix.rows()`.
pub fn encode_blocks(matrix: &LpnMatrix, input: &[Block], acc: &mut [Block]) {
    assert_eq!(input.len(), matrix.cols(), "input length must equal k");
    assert_eq!(acc.len(), matrix.rows(), "accumulator length must equal n");
    encode_rows(matrix, &mut SliceLane { input, acc });
}

/// Accumulates `A·input` onto `acc` over GF(2), 64 bits to the word:
/// `acc[j] ^= ⊕_{i∈row_j} input[i]`.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
pub fn encode_bits_packed(matrix: &LpnMatrix, input: &PackedBits, acc: &mut PackedBits) {
    assert_eq!(input.len(), matrix.cols(), "input length must equal k");
    assert_eq!(acc.len(), matrix.rows(), "accumulator length must equal n");
    encode_rows(matrix, &mut PackedLane::new(input, acc));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_matrix() -> LpnMatrix {
        LpnMatrix::generate(64, 32, 4, Block::from(9u128))
    }

    #[test]
    fn encode_blocks_matches_naive() {
        let m = toy_matrix();
        let input: Vec<Block> = (0..32u128).map(|i| Block::from(i * 0x77 + 1)).collect();
        let mut acc = vec![Block::from(0xAAu128); 64];
        let orig = acc.clone();
        encode_blocks(&m, &input, &mut acc);
        for j in 0..64 {
            let mut expect = orig[j];
            for &c in m.row(j) {
                expect ^= input[c as usize];
            }
            assert_eq!(acc[j], expect, "row {j}");
        }
    }

    #[test]
    fn packed_bits_match_naive() {
        let m = toy_matrix();
        let input: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let orig: Vec<bool> = (0..64).map(|j| j % 5 == 0).collect();
        let mut acc = PackedBits::from_bools(&orig);
        encode_bits_packed(&m, &PackedBits::from_bools(&input), &mut acc);
        for (j, &was) in orig.iter().enumerate() {
            let expect = m.row(j).iter().fold(was, |x, &c| x ^ input[c as usize]);
            assert_eq!(acc.get(j), expect, "row {j}");
        }
    }

    #[test]
    fn encoding_is_linear() {
        // A·(p ⊕ q) == A·p ⊕ A·q — the property the COT bootstrap relies on.
        let m = toy_matrix();
        let p: Vec<Block> = (0..32u128).map(|i| Block::from(i + 5)).collect();
        let q: Vec<Block> = (0..32u128).map(|i| Block::from(i * i + 3)).collect();
        let pq: Vec<Block> = p.iter().zip(&q).map(|(&a, &b)| a ^ b).collect();

        let mut acc_p = vec![Block::ZERO; 64];
        let mut acc_q = vec![Block::ZERO; 64];
        let mut acc_pq = vec![Block::ZERO; 64];
        encode_blocks(&m, &p, &mut acc_p);
        encode_blocks(&m, &q, &mut acc_q);
        encode_blocks(&m, &pq, &mut acc_pq);
        for j in 0..64 {
            assert_eq!(acc_pq[j], acc_p[j] ^ acc_q[j]);
        }
    }

    #[test]
    fn zero_input_is_identity() {
        let m = toy_matrix();
        let input = vec![Block::ZERO; 32];
        let mut acc: Vec<Block> = (0..64u128).map(Block::from).collect();
        let orig = acc.clone();
        encode_blocks(&m, &input, &mut acc);
        assert_eq!(acc, orig);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        let m = toy_matrix();
        let mut acc = vec![Block::ZERO; 64];
        encode_blocks(&m, &[Block::ZERO; 3], &mut acc);
    }
}
