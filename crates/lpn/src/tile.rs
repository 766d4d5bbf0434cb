//! Cache-blocked (tile-major) LPN execution schedules.
//!
//! The row-major encoder walks outputs in order and gathers each row's
//! `d` columns from anywhere in the length-`k` input — the random-access
//! pattern that makes LPN memory-bound on CPUs (Fig. 1c) and that Ironman
//! attacks in hardware with a memory-side cache fed by §5.3's offline
//! index sorting. [`TileSchedule`] is the software twin of that idea for
//! the **online** path: the matrix is fixed, so we precompute — once,
//! offline — a partition of its gathers into (row-block × column-tile)
//! buckets and execute bucket-major. At Table-4 scale the schedule is the
//! *only* stored form of the matrix ([`TileSchedule::generate`]):
//!
//! * within a bucket, every gather reads a `col_tile`-wide input window
//!   (512 KB of blocks, 4 KB of packed bits at the default tile) that
//!   stays cache-resident — the role of the paper's memory-side cache;
//! * buckets of one row block share a `row_block`-wide accumulator
//!   window (2 MB of blocks at the default), visited in ascending row
//!   order inside each bucket, so output traffic stays streaming;
//! * each entry packs `(local_row, local_col)` into one `u32`, so the
//!   schedule streams exactly as many index bytes as the CSR it replaces.
//!
//! The traversal is generic over [`encoder::XorLane`], so the tiled
//! kernel exists once for every lane.

use crate::encoder::{self, XorLane};
use crate::matrix::{count_generation, RowGenerator};
use crate::{simd, LpnMatrix};
use ironman_prg::Block;
use serde::{Deserialize, Serialize};

/// Geometry of the tile partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileConfig {
    /// Rows per accumulator block. The default (131072 = 2 MB of block
    /// accumulator) was swept on the reference single-core box: large
    /// blocks amortize input-tile reloads, and the ascending-row visit
    /// order inside each bucket keeps the (L2+L3-resident) accumulator
    /// window prefetch-friendly.
    pub row_block: usize,
    /// Columns per input tile. The default (32768 = 512 KB of blocks,
    /// 4 KB of packed bits) keeps the gather window cache-resident where
    /// the full `k = 168K+` input of Table-4 parameter sets does not fit.
    pub col_tile: usize,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            row_block: 131_072,
            col_tile: 32_768,
        }
    }
}

impl TileConfig {
    /// Bits needed for a local column index.
    fn col_bits(&self) -> u32 {
        (self.col_tile.max(2) - 1).ilog2() + 1
    }
}

/// A precomputed tile-major execution order for one fixed matrix: the
/// offline product the online kernels replay (the analogue of the
/// paper's sorted `Colidx`/`Rowidx` arrays living beside the CSR).
///
/// Invariant (the wide block lane in [`crate::simd`] indexes unchecked on
/// it): every entry of bucket `(block, tile)` decodes to a
/// `(row, col)` with `row < rows` and `col < cols`. Every constructor
/// ([`TileSchedule::build`], [`TileSchedule::generate`],
/// [`TileSchedule::build_with`]) checks it for every gather — hence no
/// `Deserialize`: nothing may mint a schedule that skipped that check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileSchedule {
    g: Geometry,
    /// `(local_row << col_bits) | local_col`, bucket-major: row blocks
    /// outer, column tiles inner, emission order within a bucket
    /// (ascending rows for [`TileSchedule::build`]; emission order for
    /// [`TileSchedule::build_with`] — lanes may not assume ascending).
    entries: Vec<u32>,
    /// End offset of each bucket in `entries` (same bucket order).
    bucket_ends: Vec<usize>,
}

/// The clamped tile geometry every constructor starts from, and the
/// bases a schedule's entries decode against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geometry {
    rows: usize,
    cols: usize,
    row_block: usize,
    col_tile: usize,
    col_bits: u32,
    n_tiles: usize,
}

impl Geometry {
    fn new(rows: usize, cols: usize, cfg: TileConfig) -> Self {
        assert!(rows > 0 && cols > 0, "schedule dimensions must be positive");
        let row_block = cfg.row_block.max(1).min(rows);
        let col_tile = cfg.col_tile.max(1).min(cols);
        let col_bits = TileConfig {
            row_block,
            col_tile,
        }
        .col_bits();
        assert!(
            (row_block.max(2) - 1).ilog2() + 1 + col_bits <= 32,
            "tile geometry {row_block}x{col_tile} does not pack into u32 entries"
        );
        Geometry {
            rows,
            cols,
            row_block,
            col_tile,
            col_bits,
            n_tiles: cols.div_ceil(col_tile),
        }
    }

    fn n_buckets(&self) -> usize {
        self.rows.div_ceil(self.row_block) * self.n_tiles
    }

    /// The row range of each row block, in bucket order.
    fn row_blocks(self) -> impl Iterator<Item = std::ops::Range<usize>> {
        (0..self.rows)
            .step_by(self.row_block)
            .map(move |first| first..(first + self.row_block).min(self.rows))
    }

    fn schedule(self, entries: Vec<u32>, bucket_ends: Vec<usize>) -> TileSchedule {
        assert_eq!(bucket_ends.len(), self.n_buckets(), "a bucket was skipped");
        TileSchedule {
            g: self,
            entries,
            bucket_ends,
        }
    }
}

/// The row-major constructor core behind [`TileSchedule::build`] and
/// [`TileSchedule::generate`]: buckets are row-block-major, so a row
/// block's gathers occupy one contiguous range of `entries` and each
/// block is counted and placed on its own, in order — the block's bucket
/// row and each row's `local_row << col_bits` hoisted out of the
/// per-gather loop, and nothing but the current block's indices needed at
/// any time.
struct RowBlocks {
    g: Geometry,
    weight: usize,
    /// Every entry of the schedule, allocated once at full size (`rows ·
    /// weight`, zero pages until a block is placed into them); the first
    /// `bucket_ends.last()` are placed.
    entries: Vec<u32>,
    bucket_ends: Vec<usize>,
    /// The current block's per-tile counts.
    counts: Vec<usize>,
    /// The scalar placement's per-tile cursors.
    cursors: Vec<usize>,
    /// Whether blocks go to the AVX-512 kernel where it applies
    /// ([`simd::place_row_block`]); the schedule is the same either way.
    wide: bool,
}

impl RowBlocks {
    fn new(rows: usize, cols: usize, weight: usize, cfg: TileConfig, wide: bool) -> Self {
        let g = Geometry::new(rows, cols, cfg);
        RowBlocks {
            g,
            weight,
            entries: vec![0; rows * weight],
            bucket_ends: Vec::with_capacity(g.n_buckets()),
            counts: vec![0; g.n_tiles],
            cursors: vec![0; g.n_tiles],
            wide,
        }
    }

    /// Places the next row block from its row-major column indices into
    /// its range of `entries`, bucket by bucket. Rows are in range by
    /// position; every column is range-checked before any entry is
    /// written.
    fn place(&mut self, gathers: &[u32]) {
        let Geometry {
            cols,
            col_tile,
            col_bits,
            ..
        } = self.g;
        // Every `local_row` placed is a row of this block, so it decodes
        // in range (the type's invariant) and packs beside `col_bits`.
        let first_row = self.bucket_ends.len() / self.g.n_tiles * self.g.row_block;
        let block_rows = self.g.row_block.min(self.g.rows - first_row);
        assert_eq!(
            gathers.len(),
            block_rows * self.weight,
            "a row block is placed whole"
        );
        let start = self.bucket_ends.last().copied().unwrap_or(0);
        let wide = self.wide
            && simd::place_row_block(
                gathers,
                self.weight,
                cols,
                col_tile,
                col_bits,
                &mut self.entries[start..start + gathers.len()],
                &mut self.counts,
            );
        if !wide {
            // The packing check bounds `col_bits` by 31, so the tile
            // width (and with it every quotient and remainder) fits
            // `u32`. The default width is a power of two, where the
            // per-gather divide is a shift and a mask — a third of the
            // build's time.
            let col_tile = col_tile as u32;
            if col_tile.is_power_of_two() {
                let shift = col_tile.trailing_zeros();
                self.place_scalar(gathers, start, |c| (c >> shift, c & (col_tile - 1)));
            } else {
                self.place_scalar(gathers, start, |c| (c / col_tile, c % col_tile));
            }
        }
        let mut end = start;
        for &count in &self.counts {
            end += count;
            self.bucket_ends.push(end);
        }
    }

    /// The row-major scalar placement of one row block into `entries`
    /// from `start`: count each tile's gathers, turn the counts into
    /// cursors, and place every gather at its tile's cursor — the
    /// definition [`simd::place_row_block`] reproduces.
    fn place_scalar(&mut self, gathers: &[u32], start: usize, split: impl Fn(u32) -> (u32, u32)) {
        // Every column is checked, as the block's maximum: one branch-free
        // pass, which the count and placement passes then rely on.
        let max = gathers.iter().fold(0, |m, &c| m.max(c));
        assert!((max as usize) < self.g.cols, "entry out of range");

        self.counts.fill(0);
        for &c in gathers {
            self.counts[split(c).0 as usize] += 1;
        }
        let mut at = 0;
        for (cursor, &count) in self.cursors.iter_mut().zip(&self.counts) {
            *cursor = at;
            at += count;
        }
        let block = &mut self.entries[start..start + gathers.len()];
        // A weight-0 block has no gathers: `max(1)` only keeps the chunk
        // size legal, and no row is visited.
        for (local_row, row) in gathers.chunks_exact(self.weight.max(1)).enumerate() {
            let row_bits = (local_row as u32) << self.g.col_bits;
            for &c in row {
                let (tile, local_col) = split(c);
                let cursor = &mut self.cursors[tile as usize];
                block[*cursor] = row_bits | local_col;
                *cursor += 1;
            }
        }
    }

    fn finish(self) -> TileSchedule {
        self.g.schedule(self.entries, self.bucket_ends)
    }
}

impl TileSchedule {
    /// Builds the schedule for `matrix` (row `j` accumulates into
    /// `acc[j]`, exactly like the row-major encoder) — the schedule
    /// [`TileSchedule::build_with`] produces from the row-major gather
    /// set, built by walking `colidx` one row block at a time.
    pub fn build(matrix: &LpnMatrix, cfg: TileConfig) -> Self {
        Self::build_placed(matrix, cfg, simd::wide_placement())
    }

    /// [`TileSchedule::build`] with the AVX-512 placement allowed or not
    /// (tests compare the two).
    fn build_placed(matrix: &LpnMatrix, cfg: TileConfig, wide: bool) -> Self {
        let weight = matrix.weight();
        let mut b = RowBlocks::new(matrix.rows(), matrix.cols(), weight, cfg, wide);
        for rows in b.g.row_blocks() {
            b.place(&matrix.colidx()[rows.start * weight..rows.end * weight]);
        }
        b.finish()
    }

    /// [`TileSchedule::build`] of [`LpnMatrix::generate`]'s matrix, entry
    /// for entry, without materialising its `colidx`: a row's indices are
    /// a pure function of `(seed, row)`, so each row block is generated
    /// into one reused scratch buffer (≈ 5 MB at the default geometry),
    /// placed into its range of the full-size entry array and forgotten.
    /// One stored form and one pass over the index stream at
    /// set-up where generate-then-build keeps two and makes three. Counts
    /// as one generation in [`LpnMatrix::generated_count`].
    ///
    /// # Panics
    ///
    /// As [`LpnMatrix::generate`] and [`TileSchedule::build`].
    pub fn generate(rows: usize, cols: usize, weight: usize, seed: Block, cfg: TileConfig) -> Self {
        count_generation();
        let mut generator = RowGenerator::new(rows, cols, weight, seed);
        let mut b = RowBlocks::new(rows, cols, weight, cfg, simd::wide_placement());
        let mut scratch = vec![0; b.g.row_block * weight];
        for rows in b.g.row_blocks() {
            let block = &mut scratch[..rows.len() * weight];
            generator.fill_rows(rows, block);
            b.place(block);
        }
        b.finish()
    }

    /// Builds a schedule from an arbitrary gather set: `for_each` must
    /// emit every `(accumulator_row, input_column)` pair, and is called
    /// twice (count pass + placement pass). The general form that
    /// [`TileSchedule::build`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `cols == 0`, the geometry cannot pack an
    /// entry into 32 bits, an emitted index is out of range, or the two
    /// `for_each` calls emit different gather sets.
    pub fn build_with(
        rows: usize,
        cols: usize,
        cfg: TileConfig,
        mut for_each: impl FnMut(&mut dyn FnMut(u32, u32)),
    ) -> Self {
        let g = Geometry::new(rows, cols, cfg);
        // Both passes check the range: the bucket an entry lands in and
        // the bases it is later decoded against are only right for
        // in-range gathers (see the type's invariant).
        let bucket_of = |row: u32, col: u32| {
            assert!(
                (row as usize) < rows && (col as usize) < cols,
                "entry out of range"
            );
            (row as usize / g.row_block) * g.n_tiles + col as usize / g.col_tile
        };
        let mut counts = vec![0usize; g.n_buckets()];
        for_each(&mut |row, col| counts[bucket_of(row, col)] += 1);
        // Each bucket's first slot, and the entry array the placement
        // pass fills through those cursors.
        let mut total = 0usize;
        let mut cursors: Vec<usize> = counts
            .iter()
            .map(|&c| {
                total += c;
                total - c
            })
            .collect();
        let mut entries = vec![0u32; total];
        for_each(&mut |row, col| {
            let bucket = bucket_of(row, col);
            let local_row = (row as usize % g.row_block) as u32;
            let local_col = (col as usize % g.col_tile) as u32;
            entries[cursors[bucket]] = (local_row << g.col_bits) | local_col;
            cursors[bucket] += 1;
        });
        // Every bucket received exactly the gathers counted for it — so
        // no placement spilled into a neighbour's range — which leaves
        // each cursor at its bucket's end.
        let mut end = 0usize;
        for (&cursor, &count) in cursors.iter().zip(&counts) {
            end += count;
            assert_eq!(cursor, end, "for_each must emit the same gathers twice");
        }
        g.schedule(entries, cursors)
    }

    /// Accumulator length the schedule was built for (`n`).
    pub fn rows(&self) -> usize {
        self.g.rows
    }

    /// Input length the schedule was built for (`k`).
    pub fn cols(&self) -> usize {
        self.g.cols
    }

    /// Total gathers in the schedule (`n·d` for a plain matrix).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule holds no gathers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries per bucket, in bucket order (tests pick geometries by it).
    #[cfg(test)]
    pub(crate) fn bucket_lens(&self) -> impl Iterator<Item = usize> + '_ {
        let starts = std::iter::once(&0).chain(&self.bucket_ends);
        self.bucket_ends
            .iter()
            .zip(starts)
            .map(|(end, start)| end - start)
    }

    /// The `colidx`-sized entry array plus one `k`-vector of blocks, in
    /// bytes — [`LpnMatrix::working_set_bytes`] of the matrix this
    /// schedule replaces.
    pub fn working_set_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<u32>()) as u64
            + (self.g.cols * Block::BYTES) as u64
    }

    /// The tile-major traversal — the single tiled kernel, generic over
    /// the lane.
    pub fn encode(&self, lane: &mut impl XorLane) {
        self.encode_with(lane, |_, _| {});
    }

    /// [`TileSchedule::encode`], calling `finished(lane, rows)` after the
    /// last bucket of each row block: no later bucket touches `rows`, so
    /// the caller may read those accumulator rows off while the block is
    /// still cache-warm instead of sweeping the whole accumulator again.
    /// Blocks finish in ascending row order and cover `0..rows()` once.
    pub fn encode_with<L: XorLane>(
        &self,
        lane: &mut L,
        mut finished: impl FnMut(&mut L, std::ops::Range<usize>),
    ) {
        let g = self.g;
        let mut start = 0usize;
        for (block, ends) in self.bucket_ends.chunks(g.n_tiles).enumerate() {
            let row_base = block * g.row_block;
            for (tile, &end) in ends.iter().enumerate() {
                let col_base = tile * g.col_tile;
                lane.xor_gather_bucket(row_base, col_base, g.col_bits, &self.entries[start..end]);
                start = end;
            }
            finished(lane, row_base..(row_base + g.row_block).min(g.rows));
        }
    }

    /// Tiled [`encoder::encode_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the schedule dimensions.
    pub fn encode_blocks(&self, input: &[Block], acc: &mut [Block]) {
        assert_eq!(input.len(), self.g.cols, "input length must equal k");
        assert_eq!(acc.len(), self.g.rows, "accumulator length must equal n");
        self.encode(&mut encoder::SliceLane { input, acc });
    }

    /// The input-column trace in execution order: the tile-major
    /// counterpart of the row-major [`LpnMatrix::colidx`], one entry per
    /// 16-byte input element read.
    pub fn access_trace(&self) -> impl Iterator<Item = u32> + '_ {
        let g = self.g;
        let col_mask = (1u32 << g.col_bits) - 1;
        let mut bucket = 0usize;
        self.entries.iter().enumerate().map(move |(i, &e)| {
            while i >= self.bucket_ends[bucket] {
                bucket += 1;
            }
            ((bucket % g.n_tiles) * g.col_tile) as u32 + (e & col_mask)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The streamed constructor is generate-then-build, entry for
        /// entry, for any shape and geometry — row blocks that start
        /// inside a cipher batch included.
        #[test]
        fn streamed_schedule_is_generate_then_build(
            rows in 1usize..700,
            cols in 1usize..300,
            weight in 0usize..14,
            row_block in 1usize..300,
            col_tile in 1usize..300,
            seed in any::<u128>(),
        ) {
            let weight = weight.min(cols);
            let cfg = TileConfig { row_block, col_tile };
            let m = LpnMatrix::generate_untracked(rows, cols, weight, Block::from(seed));
            prop_assert_eq!(
                TileSchedule::generate(rows, cols, weight, Block::from(seed), cfg),
                TileSchedule::build(&m, cfg)
            );
        }
    }

    proptest! {
        /// The AVX-512 placement is the scalar one, entry for entry: one
        /// to twenty column tiles of a power-of-two width (the kernel
        /// takes up to sixteen), weights on both sides of one vector, and
        /// blocks that end mid-vector. Where the CPU lacks AVX-512 both
        /// sides run the scalar placement.
        #[test]
        fn wide_placement_is_scalar_placement(
            rows in 1usize..500,
            tiles in 1usize..21,
            log_tile in 0u32..8,
            extra in 0usize..256,
            weight in 0usize..40,
            row_block in 1usize..300,
            seed in any::<u128>(),
        ) {
            let col_tile = 1usize << log_tile;
            let cols = (tiles - 1) * col_tile + 1 + extra % col_tile;
            let weight = weight.min(cols);
            let cfg = TileConfig { row_block, col_tile };
            let m = LpnMatrix::generate_untracked(rows, cols, weight, Block::from(seed));
            prop_assert_eq!(
                TileSchedule::build_placed(&m, cfg, true),
                TileSchedule::build_placed(&m, cfg, false)
            );
        }
    }

    #[test]
    #[should_panic(expected = "entry out of range")]
    fn out_of_range_col_rejected_by_wide_placement() {
        // Seventeen gathers: the bad one sits in the masked last vector.
        let cfg = TileConfig {
            row_block: 1,
            col_tile: 16,
        };
        let mut b = RowBlocks::new(1, 40, 17, cfg, true);
        let mut gathers: Vec<u32> = (0..17).collect();
        gathers[16] = 40;
        b.place(&gathers);
    }

    /// The Table-4 schedule decodes to the matrix the pre-batching
    /// generator made: `Σ` decoded columns equals `matrix.rs`'s `Σ colidx`
    /// pins, and the working set keeps the row-major form's value.
    #[test]
    #[ignore = "full-scale: three 2^20 x 168000 schedules"]
    fn table4_schedule_is_pinned() {
        for (seed, sum) in [
            (7u128, 880_904_398_888u64),
            (8, 880_897_169_122),
            (9, 880_695_904_440),
        ] {
            let s = TileSchedule::generate(
                1 << 20,
                168_000,
                10,
                Block::from(seed),
                TileConfig::default(),
            );
            let got: u64 = s.access_trace().map(u64::from).sum();
            assert_eq!(got, sum, "seed {seed}");
            assert_eq!(s.working_set_bytes(), (10 << 20) * 4 + 168_000 * 16);
        }
    }

    #[test]
    #[ignore = "micro-bench; run with --release -- --ignored --nocapture"]
    fn matrix_build_head_to_head_at_table4_shape() {
        // OT_2POW20's matrix (n 1 221 516, k 168 000, d 10): "generate" is
        // the row-major `colidx`, "place" buckets it into the default
        // schedule, "streamed" is what a session runs — the schedule
        // straight from the generator, one row block at a time.
        use std::time::Instant;
        const REPS: usize = 7;
        let (n, k, d) = (1_221_516, 168_000, 10);
        let seed = Block::from(7u128);
        let cfg = TileConfig::default();
        let m = LpnMatrix::generate_untracked(n, k, d, seed);
        let time = |label: &str, f: &mut dyn FnMut()| {
            let mut secs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            let median = secs[REPS / 2];
            println!(
                "{label}: median of {REPS} {:.1} ms ({:.1} ns/row)",
                median * 1e3,
                median * 1e9 / n as f64
            );
        };
        println!(
            "AES tier {:?}, AVX-512 placement {}",
            ironman_prg::AesTier::detect(),
            simd::wide_placement()
        );
        time("generate", &mut || {
            std::hint::black_box(LpnMatrix::generate_untracked(n, k, d, seed));
        });
        time("place", &mut || {
            std::hint::black_box(TileSchedule::build(&m, cfg));
        });
        time("streamed", &mut || {
            std::hint::black_box(TileSchedule::generate(n, k, d, seed, cfg));
        });
    }

    fn matrix() -> LpnMatrix {
        LpnMatrix::generate(3000, 1000, 10, Block::from(77u128))
    }

    fn small_cfg() -> TileConfig {
        TileConfig {
            row_block: 256,
            col_tile: 128,
        }
    }

    #[test]
    fn schedule_covers_every_gather() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        assert_eq!(s.len(), m.rows() * m.weight());
        assert_eq!(s.rows(), m.rows());
        assert_eq!(s.cols(), m.cols());
    }

    #[test]
    fn tiled_blocks_match_row_major() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        let input: Vec<Block> = (0..m.cols() as u128)
            .map(|i| Block::from(i * 3 + 1))
            .collect();
        let mut plain = vec![Block::from(5u128); m.rows()];
        let mut tiled = plain.clone();
        encoder::encode_blocks(&m, &input, &mut plain);
        s.encode_blocks(&input, &mut tiled);
        assert_eq!(plain, tiled);
    }

    #[test]
    fn build_is_build_with_on_the_row_major_gather_set() {
        // Last partial row block and column tile, sizes that are and are
        // not powers of two, one-row / one-column / whole-matrix tiles,
        // an empty matrix, odd weights, a single column, and the default
        // geometry clamped to the matrix — and the streamed constructor
        // gives the same schedule without the matrix.
        for (rows, cols, weight, row_block, col_tile) in [
            (10usize, 23usize, 3usize, 4usize, 5usize),
            (37, 19, 5, 7, 3),
            (9, 50, 9, 2, 16),
            (130, 70, 4, 64, 32),
            (5, 3, 1, 2, 2),
            (3000, 1000, 10, 100, 300),
            (257, 129, 7, 1, 1),
            (64, 64, 8, 1024, 1024),
            (12, 7, 0, 5, 2),
            (500, 40, 10, 131_072, 32_768),
            (41, 1, 1, 8, 1),
            (300, 90, 11, 37, 64),
        ] {
            let cfg = TileConfig {
                row_block,
                col_tile,
            };
            let seed = Block::from(cols as u128);
            let m = LpnMatrix::generate(rows, cols, weight, seed);
            assert_eq!(
                TileSchedule::generate(rows, cols, weight, seed, cfg),
                TileSchedule::build(&m, cfg),
                "streamed {rows}x{cols} {cfg:?}"
            );
            let general = TileSchedule::build_with(rows, cols, cfg, |emit| {
                for j in 0..rows {
                    for &c in m.row(j) {
                        emit(j as u32, c);
                    }
                }
            });
            assert_eq!(
                TileSchedule::build(&m, cfg),
                general,
                "{rows}x{cols} {cfg:?}"
            );
            assert_eq!(general.len(), rows * weight);
        }
    }

    #[test]
    fn degenerate_tiles_still_correct() {
        // Tile/block sizes of 1 and sizes exceeding the matrix both work.
        let m = LpnMatrix::generate(37, 19, 5, Block::from(3u128));
        for cfg in [
            TileConfig {
                row_block: 1,
                col_tile: 1,
            },
            TileConfig {
                row_block: 1024,
                col_tile: 1024,
            },
            TileConfig {
                row_block: 7,
                col_tile: 3,
            },
        ] {
            let s = TileSchedule::build(&m, cfg);
            let input: Vec<Block> = (0..19u128).map(|i| Block::from(i + 9)).collect();
            let mut plain = vec![Block::ZERO; 37];
            let mut tiled = plain.clone();
            encoder::encode_blocks(&m, &input, &mut plain);
            s.encode_blocks(&input, &mut tiled);
            assert_eq!(plain, tiled, "{cfg:?}");
        }
    }

    #[test]
    fn row_blocks_finish_in_order_and_cover_the_accumulator() {
        // `encode_with` reports each row block once, ascending, after its
        // last gather: reading the finished rows off inside the callback
        // sees the final accumulator.
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        let input: Vec<Block> = (0..m.cols() as u128).map(|i| Block::from(i + 2)).collect();
        let mut reference = vec![Block::from(9u128); m.rows()];
        encoder::encode_blocks(&m, &input, &mut reference);
        let mut acc = vec![Block::from(9u128); m.rows()];
        let mut seen = Vec::new();
        s.encode_with(
            &mut encoder::SliceLane {
                input: &input,
                acc: &mut acc,
            },
            |lane, rows| {
                assert_eq!(rows.start, seen.len());
                seen.extend_from_slice(&lane.acc[rows]);
            },
        );
        assert_eq!(seen, reference);
    }

    #[test]
    fn cached_schedule_is_shared() {
        let m = matrix();
        let a = m.tile_schedule() as *const TileSchedule;
        let b = m.tile_schedule() as *const TileSchedule;
        assert_eq!(a, b, "tile_schedule must build once and cache");
    }

    #[test]
    #[should_panic(expected = "entry out of range")]
    fn out_of_range_row_rejected_at_build() {
        // The invariant the unchecked wide block lane stands on.
        TileSchedule::build_with(10, 10, small_cfg(), |emit| emit(10, 0));
    }

    #[test]
    #[should_panic(expected = "entry out of range")]
    fn out_of_range_col_rejected_at_build() {
        TileSchedule::build_with(10, 10, small_cfg(), |emit| emit(0, 10));
    }

    #[test]
    #[should_panic(expected = "same gathers twice")]
    fn unstable_gather_set_rejected_at_build() {
        // A second pass that moves a gather to another bucket would be
        // decoded against the wrong bases.
        let mut calls = 0;
        TileSchedule::build_with(
            10,
            10,
            TileConfig {
                row_block: 4,
                col_tile: 4,
            },
            |emit| {
                calls += 1;
                emit(0, 0);
                emit(if calls == 1 { 9 } else { 0 }, 1);
            },
        );
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        let mut acc = vec![Block::ZERO; m.rows()];
        s.encode_blocks(&[Block::ZERO; 3], &mut acc);
    }
}
