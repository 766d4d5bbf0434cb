//! Compile-time index sorting: column swapping + row look-ahead (§5.3).
//!
//! LPN's access pattern is fixed (the matrix never changes), so Ironman
//! sorts the CSR index array **once, offline** and reuses it for every OTE
//! execution. Two transformations are applied:
//!
//! * **Column swapping** — columns are relabeled in order of first use, so
//!   that indices touched close together in time sit close together in
//!   memory (spatial locality: consecutive relabeled elements share 64-byte
//!   cache lines). Correctness is preserved by permuting the input vector
//!   identically on both parties, which is safe because the LPN input is
//!   (pseudo)random (paper §5.3, "Vector permutation").
//! * **Row look-ahead** — rows are reordered (tracked by a `Rowidx` array)
//!   so that rows reusing currently cached lines execute next (temporal
//!   locality). We implement the offline greedy the paper describes:
//!   simulate the memory-side cache and repeatedly pick, from a look-ahead
//!   window, the row with the most cache hits.
//!
//! The paper's sorting-overhead mitigation — "divide the matrix into
//! smaller blocks and sort them separately" — is the `block_rows` knob.
//!
//! The sorted order pays only where a memory-side cache exists, so it
//! feeds the `ironman-nmp` trace and the `paper sorting` ablation; no
//! FERRET session encodes with it.

use crate::encoder;
use crate::LpnMatrix;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Blocks (16-byte elements) per 64-byte cache line.
pub const ELEMS_PER_LINE: usize = 4;

/// Configuration of the offline sorting pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortConfig {
    /// Capacity (in 64-byte lines) of the simulated memory-side cache used
    /// by the greedy row scheduler. Should match the deployed cache
    /// (256 KB ⇒ 4096 lines; 1 MB ⇒ 16384 lines).
    pub cache_lines: usize,
    /// Look-ahead window: how many pending rows are examined per step.
    pub window: usize,
    /// Rows per independently sorted block (bounds the offline cost).
    pub block_rows: usize,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            cache_lines: 4096,
            window: 16,
            block_rows: 4096,
        }
    }
}

/// Which of the two §5.3 transformations to apply — the ablation axis of
/// `paper sorting` (`crates/bench`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SortStrategy {
    /// Column swapping only (spatial locality; the paper measures this
    /// alone topping out near a 20% hit rate).
    ColumnOnly,
    /// Row look-ahead only (temporal locality).
    RowOnly,
    /// Both, as deployed (the default).
    Full,
}

/// A sorted LPN matrix: same code, better locality.
#[derive(Clone, Debug, Serialize)]
pub struct SortedLpnMatrix {
    matrix: LpnMatrix,
    /// `row_order[pos]` = original row computed at position `pos`
    /// (the paper's `Rowidx` array).
    row_order: Vec<u32>,
    /// `col_perm[old]` = new location of input element `old`.
    col_perm: Vec<u32>,
}

impl SortedLpnMatrix {
    /// Sorts `matrix` with both transformations (the deployed configuration).
    pub fn sort(matrix: &LpnMatrix, cfg: SortConfig) -> Self {
        Self::sort_with(matrix, cfg, SortStrategy::Full)
    }

    /// Sorts `matrix` applying only the selected transformation(s).
    pub fn sort_with(matrix: &LpnMatrix, cfg: SortConfig, strategy: SortStrategy) -> Self {
        let col_perm = match strategy {
            SortStrategy::RowOnly => (0..matrix.cols() as u32).collect(),
            _ => first_use_permutation(matrix),
        };
        // Apply the column relabeling.
        let relabeled: Vec<u32> = matrix
            .colidx()
            .iter()
            .map(|&c| col_perm[c as usize])
            .collect();
        let relabeled =
            LpnMatrix::from_colidx(matrix.rows(), matrix.cols(), matrix.weight(), relabeled);
        // Row look-ahead per block.
        let row_order = match strategy {
            SortStrategy::ColumnOnly => (0..matrix.rows() as u32).collect(),
            _ => look_ahead_order(&relabeled, cfg),
        };
        // Materialize the colidx in execution order so the NMP module can
        // stream it.
        let weight = relabeled.weight();
        let mut sorted_idx = Vec::with_capacity(relabeled.colidx().len());
        for &r in &row_order {
            sorted_idx.extend_from_slice(relabeled.row(r as usize));
        }
        let matrix = LpnMatrix::from_colidx(relabeled.rows(), relabeled.cols(), weight, sorted_idx);
        SortedLpnMatrix {
            matrix,
            row_order,
            col_perm,
        }
    }

    /// The sorted matrix: row `pos` holds the indices executed at position
    /// `pos` (use [`Self::row_order`] to map back to original rows).
    pub fn matrix(&self) -> &LpnMatrix {
        &self.matrix
    }

    /// The `Rowidx` array: original row index per execution position.
    pub fn row_order(&self) -> &[u32] {
        &self.row_order
    }

    /// The column permutation (old → new).
    pub fn col_perm(&self) -> &[u32] {
        &self.col_perm
    }

    /// Permutes an input vector to match the relabeled columns:
    /// `out[col_perm[i]] = input[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != cols`.
    pub fn permute_input<T: Copy + Default>(&self, input: &[T]) -> Vec<T> {
        assert_eq!(
            input.len(),
            self.col_perm.len(),
            "input length must equal k"
        );
        let mut out = vec![T::default(); input.len()];
        for (i, &x) in input.iter().enumerate() {
            out[self.col_perm[i] as usize] = x;
        }
        out
    }

    /// The sorted access trace (element indices in execution order) — what
    /// the Rank-NMP replays against the memory-side cache.
    pub fn access_trace(&self) -> impl Iterator<Item = u32> + '_ {
        encoder::access_trace(&self.matrix)
    }
}

/// Column-swapping permutation: relabel columns by order of first use.
fn first_use_permutation(matrix: &LpnMatrix) -> Vec<u32> {
    let mut perm = vec![u32::MAX; matrix.cols()];
    let mut next = 0u32;
    for &c in matrix.colidx() {
        if perm[c as usize] == u32::MAX {
            perm[c as usize] = next;
            next += 1;
        }
    }
    // Columns never used keep stable labels after the used ones.
    for p in perm.iter_mut() {
        if *p == u32::MAX {
            *p = next;
            next += 1;
        }
    }
    perm
}

/// A fully associative LRU cache of 64-byte lines with amortized O(1)
/// updates (lazy-deletion queue).
struct LruLines {
    capacity: usize,
    stamp: u64,
    lines: HashMap<u32, u64>,
    queue: VecDeque<(u32, u64)>,
}

impl LruLines {
    fn new(capacity: usize) -> Self {
        LruLines {
            capacity: capacity.max(1),
            stamp: 0,
            lines: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    fn contains(&self, line: u32) -> bool {
        self.lines.contains_key(&line)
    }

    fn touch(&mut self, line: u32) {
        self.stamp += 1;
        self.lines.insert(line, self.stamp);
        self.queue.push_back((line, self.stamp));
        while self.lines.len() > self.capacity {
            if let Some((l, s)) = self.queue.pop_front() {
                if self.lines.get(&l) == Some(&s) {
                    self.lines.remove(&l);
                }
            } else {
                break;
            }
        }
    }
}

/// Greedy look-ahead row ordering: within each block of rows, repeatedly
/// pick from the next `window` pending rows the one with the most lines
/// already in the simulated cache.
fn look_ahead_order(matrix: &LpnMatrix, cfg: SortConfig) -> Vec<u32> {
    let rows = matrix.rows();
    let mut order = Vec::with_capacity(rows);
    let mut cache = LruLines::new(cfg.cache_lines);
    let mut block_start = 0usize;
    while block_start < rows {
        let block_end = (block_start + cfg.block_rows).min(rows);
        let mut pending: VecDeque<u32> = (block_start as u32..block_end as u32).collect();
        while !pending.is_empty() {
            // Score the first `window` pending rows.
            let mut best_pos = 0usize;
            let mut best_score = -1i64;
            for (pos, &row) in pending.iter().take(cfg.window).enumerate() {
                let score = matrix
                    .row(row as usize)
                    .iter()
                    .filter(|&&c| cache.contains(c / ELEMS_PER_LINE as u32))
                    .count() as i64;
                if score > best_score {
                    best_score = score;
                    best_pos = pos;
                }
            }
            let row = pending.remove(best_pos).expect("pending nonempty");
            for &c in matrix.row(row as usize) {
                cache.touch(c / ELEMS_PER_LINE as u32);
            }
            order.push(row);
        }
        block_start = block_end;
    }
    order
}

/// Measures the hit rate of an access trace against a fully associative
/// LRU cache of `cache_lines` lines — the metric of Fig. 14 (the deployed
/// hardware model in `ironman-cache` is set-associative; this helper is
/// for quick offline comparisons).
pub fn trace_hit_rate<I: IntoIterator<Item = u32>>(trace: I, cache_lines: usize) -> f64 {
    let mut cache = LruLines::new(cache_lines);
    let mut hits = 0u64;
    let mut total = 0u64;
    for idx in trace {
        let line = idx / ELEMS_PER_LINE as u32;
        total += 1;
        if cache.contains(line) {
            hits += 1;
        }
        cache.touch(line);
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_prg::Block;

    fn toy() -> LpnMatrix {
        LpnMatrix::generate(512, 4096, 10, Block::from(21u128))
    }

    /// `acc ^= input·A` through the sorted form, as §5.3 executes it: the
    /// plain encoder over the sorted matrix and the permuted input, then
    /// execution position `pos` scattered to original row `row_order[pos]`.
    pub(super) fn encode_via_sorted(sorted: &SortedLpnMatrix, input: &[Block], acc: &mut [Block]) {
        let m = sorted.matrix();
        let mut by_pos = vec![Block::ZERO; m.rows()];
        encoder::encode_blocks(m, &sorted.permute_input(input), &mut by_pos);
        for (&row, &v) in sorted.row_order().iter().zip(&by_pos) {
            acc[row as usize] ^= v;
        }
    }

    #[test]
    fn column_permutation_is_bijection() {
        let m = toy();
        let perm = first_use_permutation(&m);
        let mut seen = vec![false; m.cols()];
        for &p in &perm {
            assert!(!seen[p as usize], "duplicate target {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn row_order_is_permutation() {
        let m = toy();
        let sorted = SortedLpnMatrix::sort(&m, SortConfig::default());
        let mut seen = vec![false; m.rows()];
        for &r in sorted.row_order() {
            assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sorted_encode_matches_unsorted_blocks() {
        let m = toy();
        let sorted = SortedLpnMatrix::sort(
            &m,
            SortConfig {
                cache_lines: 64,
                window: 8,
                block_rows: 128,
            },
        );
        let input: Vec<Block> = (0..m.cols() as u128)
            .map(|i| Block::from(i * 3 + 1))
            .collect();
        let mut plain = vec![Block::from(7u128); m.rows()];
        let mut via_sorted = plain.clone();
        encoder::encode_blocks(&m, &input, &mut plain);
        encode_via_sorted(&sorted, &input, &mut via_sorted);
        assert_eq!(plain, via_sorted);
    }

    #[test]
    fn sorting_improves_hit_rate() {
        // A matrix over many columns with a small cache: sorting must help.
        let m = LpnMatrix::generate(2048, 16384, 10, Block::from(5u128));
        let cache_lines = 256;
        let base = trace_hit_rate(encoder::access_trace(&m), cache_lines);
        let cfg = SortConfig {
            cache_lines,
            window: 32,
            block_rows: 2048,
        };
        let sorted = SortedLpnMatrix::sort(&m, cfg);
        let improved = trace_hit_rate(sorted.access_trace(), cache_lines);
        assert!(
            improved > base,
            "sorting should improve hit rate: {base:.3} -> {improved:.3}"
        );
    }

    #[test]
    fn permute_input_round_trips_through_inverse() {
        let m = toy();
        let sorted = SortedLpnMatrix::sort(&m, SortConfig::default());
        let input: Vec<u32> = (0..m.cols() as u32).collect();
        let permuted = sorted.permute_input(&input);
        // Invert: permuted[col_perm[i]] == input[i].
        for (i, &x) in input.iter().enumerate() {
            assert_eq!(permuted[sorted.col_perm()[i] as usize], x);
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = LruLines::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(3);
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn lru_touch_refreshes() {
        let mut c = LruLines::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(1); // refresh 1 → 2 becomes oldest
        c.touch(3);
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn hit_rate_bounds() {
        let m = toy();
        let r = trace_hit_rate(encoder::access_trace(&m), 128);
        assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn empty_trace_hit_rate_zero() {
        assert_eq!(trace_hit_rate(std::iter::empty(), 16), 0.0);
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::tests::encode_via_sorted;
    use super::*;
    use ironman_prg::Block;

    fn matrix() -> LpnMatrix {
        LpnMatrix::generate(2048, 16384, 10, Block::from(31u128))
    }

    #[test]
    fn column_only_keeps_row_order() {
        let m = matrix();
        let s = SortedLpnMatrix::sort_with(&m, SortConfig::default(), SortStrategy::ColumnOnly);
        let identity: Vec<u32> = (0..m.rows() as u32).collect();
        assert_eq!(s.row_order(), identity.as_slice());
    }

    #[test]
    fn row_only_keeps_columns() {
        let m = matrix();
        let s = SortedLpnMatrix::sort_with(&m, SortConfig::default(), SortStrategy::RowOnly);
        let identity: Vec<u32> = (0..m.cols() as u32).collect();
        assert_eq!(s.col_perm(), identity.as_slice());
    }

    #[test]
    fn every_strategy_preserves_encoding() {
        let m = matrix();
        let input: Vec<Block> = (0..m.cols() as u128)
            .map(|i| Block::from(i * 5 + 2))
            .collect();
        let mut reference = vec![Block::ZERO; m.rows()];
        encoder::encode_blocks(&m, &input, &mut reference);
        for strategy in [
            SortStrategy::ColumnOnly,
            SortStrategy::RowOnly,
            SortStrategy::Full,
        ] {
            let s = SortedLpnMatrix::sort_with(&m, SortConfig::default(), strategy);
            let mut out = vec![Block::ZERO; m.rows()];
            encode_via_sorted(&s, &input, &mut out);
            assert_eq!(out, reference, "{strategy:?}");
        }
    }

    #[test]
    fn full_beats_each_alone() {
        // §5.3's argument: column swapping alone is capped; the combination
        // wins.
        let m = matrix();
        let cfg = SortConfig {
            cache_lines: 256,
            window: 32,
            block_rows: 2048,
        };
        let hit = |strategy| {
            let s = SortedLpnMatrix::sort_with(&m, cfg, strategy);
            trace_hit_rate(s.access_trace(), cfg.cache_lines)
        };
        let full = hit(SortStrategy::Full);
        let col = hit(SortStrategy::ColumnOnly);
        let rowo = hit(SortStrategy::RowOnly);
        assert!(full >= col, "full {full:.3} !>= column-only {col:.3}");
        assert!(full >= rowo, "full {full:.3} !>= row-only {rowo:.3}");
    }
}
