//! The fixed sparse LPN index matrix.
//!
//! `A` is an `n × k` binary matrix with exactly `d` nonzeros per row,
//! stored as a flat column-index array (the degenerate CSR of §5.3: all
//! values are 1 and all rows have the same length, so only `Colidx` is
//! needed). Indices are generated deterministically from a seed with
//! AES in counter mode — mirroring the paper's observation that on CPUs
//! "LPN uses AES to generate indices of random access" — and the matrix is
//! generated **once** and reused across all OTE executions.
//!
//! **The definition** (the crate-private `RowGenerator`): row `r`'s
//! indices are the 64-bit halves of AES-CTR blocks `r·⌈d/2⌉ + 1 ..`, each
//! reduced exactly mod `k`, with an in-row linear probe past duplicates.
//! It has not changed since the `Σ colidx` pins were recorded; only its
//! speed has: the counter blocks go through the widest AES tier in bulk
//! (VAES where the CPU has it), the remainder is two multiplies instead
//! of a divide, rows are written straight into their final slice, and the
//! probe runs only on a row whose raw indices collide.

use crate::tile::{TileConfig, TileSchedule};
use crate::DEFAULT_ROW_WEIGHT;
use ironman_prg::{Aes128, Block};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide count of [`LpnMatrix::generate`] calls — the observable
/// the matrix-sharing tests assert on (N shards sharing one prebuilt
/// matrix must bump this once, not N times). Monotonic; never reset.
static GENERATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// Bumps [`LpnMatrix::generated_count`]: one tracked run of the index
/// generator, whichever form it is stored in.
pub(crate) fn count_generation() {
    GENERATION_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// A fixed `n × k` sparse binary matrix with `d` nonzeros per row.
///
/// Invariant (the wide bit pass in [`crate::simd`] gathers unchecked on
/// it): every stored column index is `< cols`. Both constructors
/// establish it.
#[derive(Clone, Debug)]
pub struct LpnMatrix {
    rows: usize,
    cols: usize,
    weight: usize,
    colidx: Vec<u32>,
    /// Default-geometry tile schedule, built once on first use (the
    /// matrix never changes, so the schedule is a pure function of it —
    /// derived state, excluded from equality).
    tiles: OnceLock<TileSchedule>,
}

impl PartialEq for LpnMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.weight == other.weight
            && self.colidx == other.colidx
    }
}

impl Eq for LpnMatrix {}

impl LpnMatrix {
    /// Generates the matrix from `seed` (deterministic).
    ///
    /// Duplicate indices within a row are avoided by linear probing so each
    /// row has exactly `weight` *distinct* columns; XOR of a duplicated
    /// index would silently cancel and lower the effective row weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight > cols`, `cols == 0`, `rows == 0`, or
    /// `cols > u32::MAX as usize`.
    pub fn generate(rows: usize, cols: usize, weight: usize, seed: Block) -> Self {
        count_generation();
        Self::generate_untracked(rows, cols, weight, seed)
    }

    /// [`LpnMatrix::generate`] without bumping
    /// [`LpnMatrix::generated_count`] — for model-side trace *sampling*
    /// (the NMP simulator generates small throwaway matrices per timing
    /// estimate), which would otherwise drown the session-spawn
    /// observable the counter exists for.
    pub fn generate_untracked(rows: usize, cols: usize, weight: usize, seed: Block) -> Self {
        let mut colidx = vec![0; rows * weight];
        RowGenerator::new(rows, cols, weight, seed).fill_rows(0..rows, &mut colidx);
        LpnMatrix {
            rows,
            cols,
            weight,
            colidx,
            tiles: OnceLock::new(),
        }
    }

    /// Number of rows (`n`, the LPN output length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`k`, the input vector length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzeros per row (`d`).
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The column indices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.colidx[i * self.weight..(i + 1) * self.weight]
    }

    /// The full flat `Colidx` array (row-major). Read in order, it is the
    /// row-major encode pass's access trace: the input-element indices it
    /// touches, one 16-byte element read per entry.
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// Builds a matrix directly from a flat index array (used by
    /// `ironman_nmp::sorting` and tests).
    ///
    /// # Panics
    ///
    /// Panics if `colidx.len() != rows * weight` or any index is out of
    /// range.
    pub fn from_colidx(rows: usize, cols: usize, weight: usize, colidx: Vec<u32>) -> Self {
        assert_eq!(
            colidx.len(),
            rows * weight,
            "flat index array has the wrong length"
        );
        assert!(
            colidx.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        LpnMatrix {
            rows,
            cols,
            weight,
            colidx,
            tiles: OnceLock::new(),
        }
    }

    /// The default-geometry cache-blocked execution schedule for this
    /// matrix, built on first use and cached for the matrix's lifetime —
    /// the online analogue of §5.3's offline index sorting (see
    /// [`crate::tile`]). Custom geometries go through
    /// [`TileSchedule::build`] directly.
    pub fn tile_schedule(&self) -> &TileSchedule {
        self.tiles
            .get_or_init(|| TileSchedule::build(self, TileConfig::default()))
    }

    /// The memory footprint of the matrix plus a `k`-vector of blocks in
    /// bytes — the quantity the paper notes exceeds 900 MB for 2^24 outputs,
    /// defeating CPU caches.
    pub fn working_set_bytes(&self) -> u64 {
        (self.colidx.len() * std::mem::size_of::<u32>()) as u64 + (self.cols * Block::BYTES) as u64
    }

    /// How many times [`LpnMatrix::generate`] has run in this process.
    /// Matrix generation at Table-4 scale is the dominant session-spawn
    /// cost, so shard pools that `Arc`-share one prebuilt matrix assert
    /// with this counter that spawning N shards generated one matrix.
    pub fn generated_count() -> u64 {
        GENERATION_COUNT.load(Ordering::Relaxed)
    }
}

/// Domain-separation constant mixed into the matrix-generation seed
/// (ASCII "LPN_MATRIX").
const MATRIX_DOMAIN: u128 = 0x4c50_4e5f_4d41_5452_4958;

/// Counter blocks per bulk cipher call in [`LpnMatrix::generate`],
/// rounded down to whole rows: 8 KB, L1-resident, and — at rows of up to
/// 16 blocks — a whole number of the cipher's 32-block VAES steps (see
/// [`RowGenerator::new`]).
const GENERATION_BATCH: usize = 512;

/// Blocks per step of the widest cipher tier ([`ironman_prg::AesTier`]).
const CIPHER_STEP: usize = 32;

/// Exact `n % d` for any `u64` dividend by two multiplies and one
/// conditional subtraction instead of a hardware divide (Barrett
/// reduction). With `m = ⌊(2⁶⁴ − 1) / d⌋ = 2⁶⁴/d − ε` for some
/// `0 < ε ≤ 1`, the estimate `q = ⌊m·n / 2⁶⁴⌋ = ⌊n/d − n·ε/2⁶⁴⌋` is
/// `⌊n/d⌋` or one less, since `n·ε/2⁶⁴ < 1`; so `n − q·d` is the
/// remainder or the remainder plus `d`, and one compare settles which.
/// No variable shift, so nothing contends for `CL`.
struct FastMod {
    magic: u64,
    d: u64,
}

impl FastMod {
    /// # Panics
    ///
    /// Panics unless `1 ≤ d ≤ 2³²` (column indices are `u32`).
    fn new(d: u64) -> Self {
        assert!((1..=1 << 32).contains(&d), "modulus out of range");
        FastMod {
            magic: u64::MAX / d,
            d,
        }
    }

    /// Forced inline: LLVM left the previous reduction out of line in
    /// the generator's loop, which cost nearly half of generation.
    #[inline(always)]
    fn reduce(&self, n: u64) -> u64 {
        let q = ((self.magic as u128 * n as u128) >> 64) as u64;
        let r = n - q * self.d;
        let r = if r >= self.d { r - self.d } else { r };
        debug_assert_eq!(r, n % self.d);
        r
    }
}

/// A row's width, fixed at compile time for [`DEFAULT_ROW_WEIGHT`] and at
/// run time otherwise, so one generator body ([`RowGenerator::fill`])
/// serves both: with the width a constant every per-row loop has a known
/// trip count and the row's raw indices live in a fixed-size array.
trait RowWidth: Copy {
    /// Scratch for one row's raw (pre-probe) indices.
    type Raw: AsMut<[u32]>;
    fn weight(self) -> usize;
    /// A zeroed [`RowWidth::Raw`], made once per call.
    fn raw(self) -> Self::Raw;
}

#[derive(Clone, Copy)]
struct Fixed<const D: usize>;

impl<const D: usize> RowWidth for Fixed<D> {
    type Raw = [u32; D];
    fn weight(self) -> usize {
        D
    }
    fn raw(self) -> [u32; D] {
        [0; D]
    }
}

#[derive(Clone, Copy)]
struct Runtime(usize);

impl RowWidth for Runtime {
    type Raw = Vec<u32>;
    fn weight(self) -> usize {
        self.0
    }
    fn raw(self) -> Vec<u32> {
        vec![0; self.0]
    }
}

/// The counter-mode index generator behind [`LpnMatrix::generate`]: row
/// `r` consumes counters `r·⌈d/2⌉ + 1 ..= (r+1)·⌈d/2⌉`, two indices per
/// block (an odd row drops the low half of its last block), so a row's
/// indices are a pure function of `(seed, r)` and any row range can be
/// generated on its own — which is how
/// [`TileSchedule::generate`](crate::tile::TileSchedule::generate) streams
/// the matrix a row block at a time without ever holding `colidx`.
///
/// Index `j` of a row is its `j`-th 64-bit half (high half first) reduced
/// exactly mod `cols`; a duplicate within the row is then moved by a
/// linear probe, one column up (wrapping) until it is new to the row, so
/// every row holds `d` distinct columns. The probe runs only on a row
/// whose raw indices collide — if they are pairwise distinct, the probe
/// would move none of them — so the common row is reduce, compare, copy.
pub(crate) struct RowGenerator {
    aes: Aes128,
    modulus: FastMod,
    cols: u32,
    weight: usize,
    rows_per_batch: usize,
    /// Counter blocks of one bulk cipher call: `rows_per_batch` rows.
    batch: Vec<Block>,
}

impl RowGenerator {
    /// # Panics
    ///
    /// Panics if `weight > cols`, `cols == 0`, `rows == 0`, or
    /// `cols > u32::MAX as usize`.
    pub(crate) fn new(rows: usize, cols: usize, weight: usize, seed: Block) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert!(
            weight <= cols,
            "row weight {weight} exceeds column count {cols}"
        );
        assert!(cols <= u32::MAX as usize, "column count must fit in u32");
        let blocks_per_row = weight.div_ceil(2);
        // A multiple of 32 rows is a whole number of 32-block cipher
        // steps, so only a range's last batch leaves the widest tier a
        // remainder.
        let rows_per_batch = match GENERATION_BATCH / blocks_per_row.max(1) {
            r if r >= CIPHER_STEP => r / CIPHER_STEP * CIPHER_STEP,
            r => r.max(1),
        };
        RowGenerator {
            aes: Aes128::new(seed ^ Block::from(MATRIX_DOMAIN)),
            modulus: FastMod::new(cols as u64),
            cols: cols as u32,
            weight,
            rows_per_batch,
            batch: vec![Block::ZERO; rows_per_batch * blocks_per_row],
        }
    }

    /// Writes the column indices of `rows`, row-major, into `out`.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == rows.len() * weight`.
    pub(crate) fn fill_rows(&mut self, rows: std::ops::Range<usize>, out: &mut [u32]) {
        if self.weight == DEFAULT_ROW_WEIGHT {
            self.fill(Fixed::<DEFAULT_ROW_WEIGHT>, rows, out);
        } else {
            self.fill(Runtime(self.weight), rows, out);
        }
    }

    /// [`RowGenerator::fill_rows`] at `width`, which must be the
    /// generator's weight. A batch of rows is one contiguous counter
    /// range: fill it, encrypt it in one bulk call, derive the indices.
    fn fill<W: RowWidth>(&mut self, width: W, rows: std::ops::Range<usize>, out: &mut [u32]) {
        let (weight, cols) = (width.weight(), self.cols);
        assert_eq!(weight, self.weight, "the generator's own width");
        assert_eq!(out.len(), rows.len() * weight, "one slot per index");
        if weight == 0 {
            return;
        }
        let blocks_per_row = weight.div_ceil(2);
        let mut raw = width.raw();
        let raw = raw.as_mut();
        let batches = rows.clone().step_by(self.rows_per_batch);
        for (first_row, out) in batches.zip(out.chunks_mut(self.rows_per_batch * weight)) {
            let blocks = &mut self.batch[..out.len() / weight * blocks_per_row];
            let mut ctr = (first_row * blocks_per_row) as u128;
            for slot in blocks.iter_mut() {
                ctr += 1;
                *slot = Block::from(ctr);
            }
            self.aes.encrypt_blocks(blocks);
            for (row_blocks, row) in blocks
                .chunks_exact(blocks_per_row)
                .zip(out.chunks_exact_mut(weight))
            {
                for (j, r) in raw.iter_mut().enumerate() {
                    let (hi, lo) = row_blocks[j / 2].to_halves();
                    *r = self.modulus.reduce(if j % 2 == 0 { hi } else { lo }) as u32;
                }
                // All pairs of raw indices: at the paper's shape (d = 10
                // of k = 168 000) a row collides about once in 3700, so
                // the probe below is the cold path.
                let mut collide = false;
                for (i, &a) in raw.iter().enumerate() {
                    for &b in &raw[..i] {
                        collide |= a == b;
                    }
                }
                if !collide {
                    row.copy_from_slice(raw);
                    continue;
                }
                for (j, &first) in raw.iter().enumerate() {
                    let mut idx = first;
                    while row[..j].contains(&idx) {
                        idx = (idx + 1) % cols;
                    }
                    row[j] = idx;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The generator's definition: one counter block at a time, a hardware
    /// `%` per index, duplicates probed in a scratch row.
    fn generate_row_at_a_time(rows: usize, cols: usize, weight: usize, seed: Block) -> Vec<u32> {
        let aes = Aes128::new(seed ^ Block::from(MATRIX_DOMAIN));
        let mut colidx = Vec::with_capacity(rows * weight);
        let mut ctr = 0u128;
        let mut row_buf: Vec<u32> = Vec::with_capacity(weight);
        for _ in 0..rows {
            row_buf.clear();
            while row_buf.len() < weight {
                ctr += 1;
                let blk = aes.encrypt_block(Block::from(ctr));
                let (hi, lo) = blk.to_halves();
                for half in [hi, lo] {
                    if row_buf.len() >= weight {
                        break;
                    }
                    let mut idx = (half % cols as u64) as u32;
                    while row_buf.contains(&idx) {
                        idx = (idx + 1) % cols as u32;
                    }
                    row_buf.push(idx);
                }
            }
            colidx.extend_from_slice(&row_buf);
        }
        colidx
    }

    proptest! {
        /// Batched generation is the row-at-a-time definition: empty rows,
        /// odd weights (spare half dropped, next row on a fresh counter),
        /// `weight == cols` (probing wraps through every column),
        /// `cols == 1`, and row counts on both sides of a batch boundary.
        #[test]
        fn generate_matches_row_at_a_time(
            rows in 1usize..200,
            cols in 1usize..300,
            weight in 0usize..14,
            seed in any::<u128>(),
        ) {
            let weight = weight.min(cols);
            let m = LpnMatrix::generate_untracked(rows, cols, weight, Block::from(seed));
            prop_assert_eq!(
                m.colidx(),
                generate_row_at_a_time(rows, cols, weight, Block::from(seed)).as_slice()
            );
        }

        #[test]
        fn fastmod_matches_hardware_remainder(n in any::<u64>(), pick in 0usize..11) {
            // d = 1 (m = 2⁶⁴ − 1: the estimate is one short for every
            // n > 0), powers of two (ε = 1 exactly), the divisors either
            // side of one, and the shapes the tables use.
            let d = [
                1, 2, 3, 7, 1 << 16, (1 << 31) - 1, (1 << 31) + 1, 1 << 32,
                168_000, 262_000, u32::MAX as u64,
            ][pick];
            let m = FastMod::new(d);
            for n in [n, 0, 1, d - 1, d, d + 1, n / d * d, u64::MAX - 1, u64::MAX] {
                prop_assert_eq!(m.reduce(n), n % d, "{} % {}", n, d);
            }
        }
    }

    /// [`RowGenerator::fill`] of rows `range` at an explicit width.
    fn fill_at<W: RowWidth>(
        width: W,
        range: std::ops::Range<usize>,
        cols: usize,
        seed: Block,
    ) -> Vec<u32> {
        let mut out = vec![u32::MAX; range.len() * width.weight()];
        RowGenerator::new(range.end, cols, width.weight(), seed).fill(width, range, &mut out);
        out
    }

    /// Both instantiations of one width against the definition, on the
    /// twelve narrowest column counts the width allows: most rows' raw
    /// indices collide there (every row's, at `cols == weight`), so this
    /// is the probe path. A range that starts mid-batch checks the
    /// counter offsets too.
    fn colliding_rows_match<W: RowWidth>(fixed: W) {
        let weight = fixed.weight();
        for cols in weight..weight + 12 {
            let seed = Block::from((cols << 8 | weight) as u128);
            let rows = 70;
            let expected = generate_row_at_a_time(rows, cols, weight, seed);
            for (range, want) in [
                (0..rows, &expected[..]),
                (33..rows, &expected[33 * weight..]),
            ] {
                let got = fill_at(fixed, range.clone(), cols, seed);
                assert_eq!(
                    got, want,
                    "fixed width {weight}, {cols} cols, rows {range:?}"
                );
                let got = fill_at(Runtime(weight), range.clone(), cols, seed);
                assert_eq!(
                    got, want,
                    "runtime width {weight}, {cols} cols, rows {range:?}"
                );
            }
        }
    }

    #[test]
    fn colliding_rows_match_row_at_a_time_at_both_widths() {
        macro_rules! each_width {
            ($($d:literal)*) => { $( colliding_rows_match(Fixed::<$d>); )* };
        }
        each_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    }

    #[test]
    fn rows_wider_than_a_batch_and_full_width_rows_match() {
        // ⌈d/2⌉ above the batch size (one row per bulk call), and a row
        // that must take every column.
        for (rows, cols, weight) in [(3, 1500, 2 * GENERATION_BATCH + 3), (5, 41, 41)] {
            let m = LpnMatrix::generate_untracked(rows, cols, weight, Block::from(21u128));
            assert_eq!(
                m.colidx(),
                generate_row_at_a_time(rows, cols, weight, Block::from(21u128))
            );
        }
    }

    /// The Table-4 matrix is the matrix the pre-batching generator made:
    /// `Σ colidx` recorded at commit 11170f3 (software cipher, `%`).
    #[test]
    #[ignore = "full-scale: three 2^20 x 168000 matrices"]
    fn table4_matrix_is_pinned() {
        for (seed, sum) in [
            (7u128, 880_904_398_888u64),
            (8, 880_897_169_122),
            (9, 880_695_904_440),
        ] {
            let m = LpnMatrix::generate_untracked(1 << 20, 168_000, 10, Block::from(seed));
            let got: u64 = m.colidx().iter().map(|&c| c as u64).sum();
            assert_eq!(got, sum, "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = LpnMatrix::generate(50, 32, 10, Block::from(1u128));
        let b = LpnMatrix::generate(50, 32, 10, Block::from(1u128));
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let a = LpnMatrix::generate(50, 32, 10, Block::from(1u128));
        let b = LpnMatrix::generate(50, 32, 10, Block::from(2u128));
        assert_ne!(a, b);
    }

    #[test]
    fn rows_have_distinct_indices() {
        let m = LpnMatrix::generate(200, 64, 10, Block::from(3u128));
        for i in 0..m.rows() {
            let mut row = m.row(i).to_vec();
            row.sort_unstable();
            row.dedup();
            assert_eq!(row.len(), 10, "row {i} has duplicate indices");
        }
    }

    #[test]
    fn indices_in_range() {
        let m = LpnMatrix::generate(100, 17, 10, Block::from(4u128));
        assert!(m.colidx().iter().all(|&c| (c as usize) < 17));
    }

    #[test]
    fn indices_spread_over_columns() {
        let m = LpnMatrix::generate(1000, 256, 10, Block::from(5u128));
        let mut hist = vec![0u32; 256];
        for &c in m.colidx() {
            hist[c as usize] += 1;
        }
        let used = hist.iter().filter(|&&h| h > 0).count();
        assert!(
            used > 240,
            "only {used}/256 columns used — not random enough"
        );
    }

    #[test]
    #[should_panic(expected = "row weight")]
    fn weight_larger_than_cols_rejected() {
        let _ = LpnMatrix::generate(10, 5, 10, Block::ZERO);
    }

    #[test]
    fn from_colidx_round_trip() {
        let m = LpnMatrix::generate(20, 16, 4, Block::from(6u128));
        let m2 = LpnMatrix::from_colidx(20, 16, 4, m.colidx().to_vec());
        assert_eq!(m, m2);
    }

    #[test]
    fn working_set_scales() {
        let small = LpnMatrix::generate(100, 64, 10, Block::ZERO);
        let large = LpnMatrix::generate(1000, 64, 10, Block::ZERO);
        assert!(large.working_set_bytes() > small.working_set_bytes());
    }
}
