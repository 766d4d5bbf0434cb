//! Compile-time index sorting by column first use (§5.3).
//!
//! LPN's access pattern is fixed (the matrix never changes), so Ironman
//! sorts the CSR index array **once, offline** and reuses it for every OTE
//! execution. The sort here is §5.3's column swapping: columns are
//! relabeled in order of first use, so that indices touched close together
//! in time sit close together in memory (spatial locality: consecutive
//! relabeled elements share 64-byte cache lines). Rows keep their order.
//! Correctness is preserved by permuting the input vector identically on
//! both parties, which is safe because the LPN input is (pseudo)random
//! (paper §5.3, "Vector permutation"). The relabeling is one pass over
//! the indices, O(nnz). The paper measures column swapping alone topping
//! out near a 20% hit rate with a 1 MB cache.
//!
//! §5.3 also describes a greedy row look-ahead that reorders rows so that
//! rows reusing cached lines run next. Measured on whole per-rank
//! partitions it added at most 0.2 points of hit rate at every Fig. 14
//! cache size while costing 20–50× the column sort, so it is not built
//! here (see CHANGES.md).
//!
//! The sorted order pays only where a memory-side cache exists, so it
//! feeds the `ironman-nmp` trace and the `paper sorting` ablation; no
//! FERRET session encodes with it.

use crate::encoder;
use crate::LpnMatrix;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};

/// Blocks (16-byte elements) per 64-byte cache line.
pub const ELEMS_PER_LINE: usize = 4;

/// A sorted LPN matrix: same code, better locality.
#[derive(Clone, Debug, Serialize)]
pub struct SortedLpnMatrix {
    matrix: LpnMatrix,
    /// `col_perm[old]` = new location of input element `old`.
    col_perm: Vec<u32>,
}

impl SortedLpnMatrix {
    /// Relabels `matrix`'s columns in order of first use.
    pub fn sort(matrix: &LpnMatrix) -> Self {
        let col_perm = first_use_permutation(matrix);
        let relabeled = matrix
            .colidx()
            .iter()
            .map(|&c| col_perm[c as usize])
            .collect();
        let matrix =
            LpnMatrix::from_colidx(matrix.rows(), matrix.cols(), matrix.weight(), relabeled);
        SortedLpnMatrix { matrix, col_perm }
    }

    /// The sorted matrix: row `i` is the original row `i` with every
    /// column index mapped through [`Self::col_perm`].
    pub fn matrix(&self) -> &LpnMatrix {
        &self.matrix
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

/// Measures the hit rate of an access trace against a fully associative
/// LRU cache of `cache_lines` lines — the metric of Fig. 14 (the deployed
/// hardware model in `ironman_nmp::cache` is set-associative; this helper is
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
    fn sorted_encode_matches_unsorted_blocks() {
        // `acc ^= input·A` as §5.3 executes it: the plain encoder over the
        // sorted matrix and the permuted input.
        for m in [
            toy(),
            LpnMatrix::generate(2048, 16384, 10, Block::from(31u128)),
        ] {
            let sorted = SortedLpnMatrix::sort(&m);
            let input: Vec<Block> = (0..m.cols() as u128)
                .map(|i| Block::from(i * 3 + 1))
                .collect();
            let mut plain = vec![Block::from(7u128); m.rows()];
            let mut via_sorted = plain.clone();
            encoder::encode_blocks(&m, &input, &mut plain);
            encoder::encode_blocks(
                sorted.matrix(),
                &sorted.permute_input(&input),
                &mut via_sorted,
            );
            assert_eq!(plain, via_sorted);
        }
    }

    #[test]
    fn sorting_improves_hit_rate() {
        // A matrix over many columns with a small cache: sorting must help.
        let m = LpnMatrix::generate(2048, 16384, 10, Block::from(5u128));
        let cache_lines = 256;
        let base = trace_hit_rate(encoder::access_trace(&m), cache_lines);
        let sorted = SortedLpnMatrix::sort(&m);
        let improved = trace_hit_rate(sorted.access_trace(), cache_lines);
        assert!(
            improved > base,
            "sorting should improve hit rate: {base:.3} -> {improved:.3}"
        );
    }

    #[test]
    fn permute_input_round_trips_through_inverse() {
        let m = toy();
        let sorted = SortedLpnMatrix::sort(&m);
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
