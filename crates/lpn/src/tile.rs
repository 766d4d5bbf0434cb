//! Cache-blocked (tile-major) LPN execution schedules.
//!
//! The row-major encoder walks outputs in order and gathers each row's
//! `d` columns from anywhere in the length-`k` input — the random-access
//! pattern that makes LPN memory-bound on CPUs (Fig. 1c) and that Ironman
//! attacks in hardware with a memory-side cache fed by §5.3's offline
//! index sorting. [`TileSchedule`] is the software twin of that idea for
//! the **online** path: the matrix is fixed, so we precompute — once,
//! offline, cached on the matrix — a partition of its gathers into
//! (row-block × column-tile) buckets and execute bucket-major:
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
//! kernel exists once for blocks, `bool` bits and packed bits.

use crate::bits::PackedBits;
use crate::encoder::{self, XorLane};
use crate::LpnMatrix;
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
/// `(row, col)` with `row < rows` and `col < cols`. Both constructors
/// ([`TileSchedule::build`], [`TileSchedule::build_with`]) assert it per
/// gather — hence no `Deserialize`: nothing may mint a schedule that
/// skipped that check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileSchedule {
    rows: usize,
    cols: usize,
    row_block: usize,
    col_tile: usize,
    col_bits: u32,
    /// `(local_row << col_bits) | local_col`, bucket-major: row blocks
    /// outer, column tiles inner, emission order within a bucket
    /// (ascending rows for [`TileSchedule::build`]; look-ahead execution
    /// order for the sorted-matrix composition — lanes may not assume
    /// ascending).
    entries: Vec<u32>,
    /// End offset of each bucket in `entries` (same bucket order).
    bucket_ends: Vec<usize>,
}

/// The counting sort both [`TileSchedule`] constructors run: geometry
/// checks and zeroed bucket counts ([`Buckets::new`]), a count pass by the
/// caller, start cursors and the entry array ([`Buckets::place`]), a
/// placement pass by the caller, and the every-bucket-filled check
/// ([`Buckets::finish`]).
struct Buckets {
    rows: usize,
    cols: usize,
    row_block: usize,
    col_tile: usize,
    col_bits: u32,
    n_tiles: usize,
    /// Gathers per bucket, row blocks outer, column tiles inner.
    counts: Vec<usize>,
}

impl Buckets {
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
        let n_tiles = cols.div_ceil(col_tile);
        Buckets {
            rows,
            cols,
            row_block,
            col_tile,
            col_bits,
            n_tiles,
            counts: vec![0; rows.div_ceil(row_block) * n_tiles],
        }
    }

    /// Each bucket's first slot, and the entry array the placement pass
    /// fills through those cursors.
    fn place(&self) -> (Vec<usize>, Vec<u32>) {
        let mut cursors = Vec::with_capacity(self.counts.len());
        let mut total = 0usize;
        for &c in &self.counts {
            cursors.push(total);
            total += c;
        }
        (cursors, vec![0u32; total])
    }

    /// Checks that every bucket received exactly the gathers counted for
    /// it — so no placement spilled into a neighbour's range — which
    /// leaves each cursor at its bucket's end.
    fn finish(self, cursors: Vec<usize>, entries: Vec<u32>) -> TileSchedule {
        let mut end = 0usize;
        for (&cursor, &count) in cursors.iter().zip(&self.counts) {
            end += count;
            assert_eq!(cursor, end, "for_each must emit the same gathers twice");
        }
        TileSchedule {
            rows: self.rows,
            cols: self.cols,
            row_block: self.row_block,
            col_tile: self.col_tile,
            col_bits: self.col_bits,
            entries,
            bucket_ends: cursors,
        }
    }
}

impl TileSchedule {
    /// Builds the schedule for `matrix` (row `j` accumulates into
    /// `acc[j]`, exactly like the row-major encoder) — the schedule
    /// [`TileSchedule::build_with`] produces from the row-major gather
    /// set, built by walking `colidx` one row block at a time so the
    /// block's bucket row and each row's `local_row << col_bits` are
    /// hoisted out of the per-gather loop.
    pub fn build(matrix: &LpnMatrix, cfg: TileConfig) -> Self {
        let mut b = Buckets::new(matrix.rows(), matrix.cols(), cfg);
        let (cols, weight, n_tiles, col_bits) = (b.cols, matrix.weight(), b.n_tiles, b.col_bits);
        // The packing check bounds `col_bits` by 31, so the tile width
        // (and with it every quotient and remainder below) fits `u32`.
        let col_tile = b.col_tile as u32;
        // A weight-0 matrix has no gathers: `max(1)` only keeps the chunk
        // size legal, and no chunk is visited.
        let block_len = (b.row_block * weight).max(1);
        let blocks = || matrix.colidx().chunks(block_len);
        // Rows are in range by position; columns are checked in both
        // passes, as in `build_with`.
        let in_range = |c: u32| assert!((c as usize) < cols, "entry out of range");

        for (block, gathers) in blocks().enumerate() {
            let counts = &mut b.counts[block * n_tiles..][..n_tiles];
            for &c in gathers {
                in_range(c);
                counts[(c / col_tile) as usize] += 1;
            }
        }
        let (mut cursors, mut entries) = b.place();
        for (block, gathers) in blocks().enumerate() {
            let cursors = &mut cursors[block * n_tiles..][..n_tiles];
            for (local_row, row) in gathers.chunks_exact(weight).enumerate() {
                let row_bits = (local_row as u32) << col_bits;
                for &c in row {
                    in_range(c);
                    let cursor = &mut cursors[(c / col_tile) as usize];
                    entries[*cursor] = row_bits | (c % col_tile);
                    *cursor += 1;
                }
            }
        }
        b.finish(cursors, entries)
    }

    /// Builds a schedule from an arbitrary gather set: `for_each` must
    /// emit every `(accumulator_row, input_column)` pair, and is called
    /// twice (count pass + placement pass). This is how the sorted
    /// matrix composes its row/column permutations with tiling.
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
        let mut b = Buckets::new(rows, cols, cfg);
        let (row_block, col_tile, col_bits, n_tiles) =
            (b.row_block, b.col_tile, b.col_bits, b.n_tiles);
        // Both passes check the range: the bucket an entry lands in and
        // the bases it is later decoded against are only right for
        // in-range gathers (see the type's invariant).
        let bucket_of = |row: u32, col: u32| {
            assert!(
                (row as usize) < rows && (col as usize) < cols,
                "entry out of range"
            );
            (row as usize / row_block) * n_tiles + col as usize / col_tile
        };
        for_each(&mut |row, col| b.counts[bucket_of(row, col)] += 1);
        let (mut cursors, mut entries) = b.place();
        for_each(&mut |row, col| {
            let bucket = bucket_of(row, col);
            let local_row = (row as usize % row_block) as u32;
            let local_col = (col as usize % col_tile) as u32;
            entries[cursors[bucket]] = (local_row << col_bits) | local_col;
            cursors[bucket] += 1;
        });
        b.finish(cursors, entries)
    }

    /// Accumulator length the schedule was built for (`n`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input length the schedule was built for (`k`).
    pub fn cols(&self) -> usize {
        self.cols
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

    /// The tile-major traversal — the single tiled kernel, generic over
    /// the lane (blocks, `bool` bits, packed bits, the fused pair).
    pub fn encode(&self, lane: &mut impl XorLane) {
        let n_tiles = self.cols.div_ceil(self.col_tile);
        let mut start = 0usize;
        for (bucket, &end) in self.bucket_ends.iter().enumerate() {
            let row_base = (bucket / n_tiles) * self.row_block;
            let col_base = (bucket % n_tiles) * self.col_tile;
            lane.xor_gather_bucket(row_base, col_base, self.col_bits, &self.entries[start..end]);
            start = end;
        }
    }

    /// Tiled [`encoder::encode_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the schedule dimensions.
    pub fn encode_blocks(&self, input: &[Block], acc: &mut [Block]) {
        assert_eq!(input.len(), self.cols, "input length must equal k");
        assert_eq!(acc.len(), self.rows, "accumulator length must equal n");
        self.encode(&mut encoder::SliceLane { input, acc });
    }

    /// Tiled [`encoder::encode_bits`].
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the schedule dimensions.
    pub fn encode_bits(&self, input: &[bool], acc: &mut [bool]) {
        assert_eq!(input.len(), self.cols, "input length must equal k");
        assert_eq!(acc.len(), self.rows, "accumulator length must equal n");
        self.encode(&mut encoder::SliceLane { input, acc });
    }

    /// Tiled [`encoder::encode_bits_packed`].
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the schedule dimensions.
    pub fn encode_bits_packed(&self, input: &PackedBits, acc: &mut PackedBits) {
        assert_eq!(input.len(), self.cols, "input length must equal k");
        assert_eq!(acc.len(), self.rows, "accumulator length must equal n");
        self.encode(&mut encoder::PackedLane::new(input, acc));
    }

    /// Tiled fused receiver encode: both halves (`y ^= s·A`,
    /// `x ^= e·A`) in one tile-major pass over the index stream — see
    /// [`encoder::CotPairLane`].
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the schedule dimensions.
    pub fn encode_cot_pair(
        &self,
        s: &[Block],
        e: &PackedBits,
        y: &mut [Block],
        x: &mut PackedBits,
    ) {
        assert_eq!(s.len(), self.cols, "block input length must equal k");
        assert_eq!(e.len(), self.cols, "bit input length must equal k");
        assert_eq!(y.len(), self.rows, "block accumulator length must equal n");
        assert_eq!(x.len(), self.rows, "bit accumulator length must equal n");
        self.encode(&mut encoder::CotPairLane::new(s, e, y, x));
    }

    /// The input-column trace in execution order — comparable against
    /// [`encoder::access_trace`] with [`crate::sorting::trace_hit_rate`].
    pub fn access_trace(&self) -> impl Iterator<Item = u32> + '_ {
        let n_tiles = self.cols.div_ceil(self.col_tile);
        let col_mask = (1u32 << self.col_bits) - 1;
        let mut bucket = 0usize;
        self.entries.iter().enumerate().map(move |(i, &e)| {
            while i >= self.bucket_ends[bucket] {
                bucket += 1;
            }
            ((bucket % n_tiles) * self.col_tile) as u32 + (e & col_mask)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorting::trace_hit_rate;

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
    fn tiled_bits_match_row_major() {
        let m = matrix();
        let s = TileSchedule::build(&m, small_cfg());
        let input: Vec<bool> = (0..m.cols()).map(|i| i % 3 == 1).collect();
        let mut plain: Vec<bool> = (0..m.rows()).map(|j| j % 7 == 0).collect();
        let mut tiled = plain.clone();
        let packed_input = PackedBits::from_bools(&input);
        let mut packed = PackedBits::from_bools(&tiled);
        encoder::encode_bits(&m, &input, &mut plain);
        s.encode_bits(&input, &mut tiled);
        s.encode_bits_packed(&packed_input, &mut packed);
        assert_eq!(plain, tiled);
        assert_eq!(packed.to_bools(), plain);
    }

    #[test]
    fn build_is_build_with_on_the_row_major_gather_set() {
        // Last partial row block and column tile, sizes that are and are
        // not powers of two, one-row / one-column / whole-matrix tiles,
        // an empty matrix, and the default geometry clamped to the matrix.
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
        ] {
            let cfg = TileConfig {
                row_block,
                col_tile,
            };
            let m = LpnMatrix::generate(rows, cols, weight, Block::from(cols as u128));
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
    fn tiling_improves_small_cache_hit_rate() {
        // Against a cache that holds one tile but not the whole input,
        // the tile-major trace must hit far more often than row-major.
        let m = LpnMatrix::generate(4096, 16384, 10, Block::from(11u128));
        let cfg = TileConfig {
            row_block: 1024,
            col_tile: 1024,
        };
        let s = TileSchedule::build(&m, cfg);
        let lines = 512; // 2048 elements: two tiles' worth
        let base = trace_hit_rate(encoder::access_trace(&m), lines);
        let tiled = trace_hit_rate(s.access_trace(), lines);
        assert!(
            tiled > base + 0.2,
            "tiling should lift hit rate decisively: {base:.3} -> {tiled:.3}"
        );
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
