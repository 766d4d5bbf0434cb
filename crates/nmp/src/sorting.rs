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
//! feeds the [`crate::ote`] trace and the `paper sorting` ablation; no
//! FERRET session encodes with it. Its access trace is the sorted
//! matrix's [`LpnMatrix::colidx`], replayed through [`crate::cache`].

use ironman_lpn::LpnMatrix;
use serde::Serialize;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Cache, CacheConfig};
    use ironman_lpn::{encoder, TileConfig, TileSchedule};
    use ironman_prg::Block;

    fn toy() -> LpnMatrix {
        LpnMatrix::generate(512, 4096, 10, Block::from(21u128))
    }

    /// Hit rate of an element-index trace through a fresh `cfg` cache,
    /// at element address `index · 16` as [`crate::rank_lpn`] maps it.
    fn hit_rate(trace: impl IntoIterator<Item = u32>, cfg: CacheConfig) -> f64 {
        let mut cache = Cache::new(cfg);
        for idx in trace {
            cache.access(idx as u64 * Block::BYTES as u64);
        }
        cache.stats().hit_rate()
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
        // A matrix over many columns with a small cache (256 lines):
        // sorting must help.
        let m = LpnMatrix::generate(2048, 16384, 10, Block::from(5u128));
        let cfg = CacheConfig::kb(16);
        let base = hit_rate(m.colidx().iter().copied(), cfg);
        let sorted = SortedLpnMatrix::sort(&m);
        let improved = hit_rate(sorted.matrix().colidx().iter().copied(), cfg);
        assert!(
            improved > base,
            "sorting should improve hit rate: {base:.3} -> {improved:.3}"
        );
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
        let cache = CacheConfig::kb(32); // 512 lines, 2048 elements: two tiles' worth
        let base = hit_rate(m.colidx().iter().copied(), cache);
        let tiled = hit_rate(s.access_trace(), cache);
        assert!(
            tiled > base + 0.2,
            "tiling should lift hit rate decisively: {base:.3} -> {tiled:.3}"
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
}
