//! The fixed sparse LPN index matrix.
//!
//! `A` is an `n × k` binary matrix with exactly `d` nonzeros per row,
//! stored as a flat column-index array (the degenerate CSR of §5.3: all
//! values are 1 and all rows have the same length, so only `Colidx` is
//! needed). Indices are generated deterministically from a seed with
//! AES in counter mode — mirroring the paper's observation that on CPUs
//! "LPN uses AES to generate indices of random access" — and the matrix is
//! generated **once** and reused across all OTE executions.

use crate::tile::{TileConfig, TileSchedule};
use ironman_prg::{Aes128, Block};
use serde::Serialize;
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
/// establish it — hence `Serialize` only: no deserializer may mint a
/// matrix that skipped them.
#[derive(Clone, Debug, Serialize)]
pub struct LpnMatrix {
    rows: usize,
    cols: usize,
    weight: usize,
    colidx: Vec<u32>,
    /// Default-geometry tile schedule, built once on first use (the
    /// matrix never changes, so the schedule is a pure function of it —
    /// derived state, excluded from equality and serialization).
    #[serde(skip)]
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
        let mut colidx = Vec::with_capacity(rows * weight);
        RowGenerator::new(rows, cols, weight, seed).extend_rows(0..rows, &mut colidx);
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

    /// The full flat `Colidx` array (row-major).
    pub fn colidx(&self) -> &[u32] {
        &self.colidx
    }

    /// Builds a matrix directly from a flat index array (used by the
    /// sorting pass and tests).
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
/// rounded down to whole rows: 4 KB, L1-resident, and long enough that the
/// cipher's 8-block stride leaves a negligible tail.
const GENERATION_BATCH: usize = 256;

/// Exact `n % d` for any `u64` dividend by one multiplication chain
/// instead of a hardware divide (Lemire, Kaser & Kurz, "Faster remainder
/// by direct computation", 2019): with `magic = ⌈2¹²⁸ / d⌉`,
/// `n % d = ⌊((magic · n) mod 2¹²⁸) · d / 2¹²⁸⌋` whenever
/// `128 ≥ 64 + log₂ d`.
struct FastMod {
    magic: u128,
    d: u64,
}

impl FastMod {
    /// # Panics
    ///
    /// Panics unless `1 ≤ d ≤ 2³²` (keeps [`FastMod::reduce`]'s partial
    /// products inside `u128`).
    fn new(d: u64) -> Self {
        assert!((1..=1 << 32).contains(&d), "modulus out of range");
        // ⌈2¹²⁸ / d⌉ for d ≥ 2; d = 1 wraps to 0, which reduces every
        // dividend to 0 — also right.
        let magic = (u128::MAX / d as u128).wrapping_add(1);
        FastMod { magic, d }
    }

    #[inline]
    fn reduce(&self, n: u64) -> u64 {
        let low = self.magic.wrapping_mul(n as u128);
        // ⌊low · d / 2¹²⁸⌋ from the two 64-bit halves of `low`.
        let d = self.d as u128;
        let r = (((low >> 64) * d + (((low as u64 as u128) * d) >> 64)) >> 64) as u64;
        debug_assert_eq!(r, n % self.d);
        r
    }
}

/// The counter-mode index generator behind [`LpnMatrix::generate`]: row
/// `r` consumes counters `r·⌈d/2⌉ + 1 ..= (r+1)·⌈d/2⌉`, two indices per
/// block (an odd row drops the low half of its last block), so a row's
/// indices are a pure function of `(seed, r)` and any row range can be
/// generated on its own — which is how
/// [`TileSchedule::generate`](crate::tile::TileSchedule::generate) streams
/// the matrix a row block at a time without ever holding `colidx`.
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
        let rows_per_batch = (GENERATION_BATCH / blocks_per_row.max(1)).max(1);
        RowGenerator {
            aes: Aes128::new(seed ^ Block::from(MATRIX_DOMAIN)),
            modulus: FastMod::new(cols as u64),
            cols: cols as u32,
            weight,
            rows_per_batch,
            batch: vec![Block::ZERO; rows_per_batch * blocks_per_row],
        }
    }

    /// Appends the column indices of `rows`, row-major, to `out`. A batch
    /// of rows is one contiguous counter range: fill it, encrypt it in one
    /// bulk call, derive the indices.
    pub(crate) fn extend_rows(&mut self, rows: std::ops::Range<usize>, out: &mut Vec<u32>) {
        let (weight, cols) = (self.weight, self.cols);
        // `weight == 0` leaves every batch empty, so the `max(1)`s only
        // keep the chunk sizes legal; no row is visited.
        let blocks_per_row = weight.div_ceil(2);
        for first_row in rows.clone().step_by(self.rows_per_batch) {
            let batch_rows = self.rows_per_batch.min(rows.end - first_row);
            let blocks = &mut self.batch[..batch_rows * blocks_per_row];
            let mut ctr = (first_row * blocks_per_row) as u128;
            for slot in blocks.iter_mut() {
                ctr += 1;
                *slot = Block::from(ctr);
            }
            self.aes.encrypt_blocks(blocks);
            for row_blocks in blocks.chunks_exact(blocks_per_row.max(1)) {
                let row_start = out.len();
                let halves = row_blocks.iter().flat_map(|blk| {
                    let (hi, lo) = blk.to_halves();
                    [hi, lo]
                });
                for half in halves.take(weight) {
                    let mut idx = self.modulus.reduce(half) as u32;
                    // Linear probe past duplicates within the row.
                    while out[row_start..].contains(&idx) {
                        idx = (idx + 1) % cols;
                    }
                    out.push(idx);
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
        fn fastmod_matches_hardware_remainder(n in any::<u64>(), pick in 0usize..6) {
            let d = [1, 2, 3, 1 << 32, 168_000, u32::MAX as u64][pick];
            let m = FastMod::new(d);
            for n in [n, 0, 1, d - 1, d, d + 1, n / d * d, u64::MAX - 1, u64::MAX] {
                prop_assert_eq!(m.reduce(n), n % d, "{} % {}", n, d);
            }
        }
    }

    #[test]
    fn rows_wider_than_a_batch_and_full_width_rows_match() {
        // ⌈d/2⌉ above the batch size (one row per bulk call), and a row
        // that must take every column.
        for (rows, cols, weight) in [(3, 700, 2 * GENERATION_BATCH + 3), (5, 41, 41)] {
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
