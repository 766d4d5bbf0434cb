//! Property-based tests on cross-crate invariants (proptest).

use ironman_ggm::{Arity, GgmTree, PuncturedTree};
use ironman_lpn::{encoder, LpnMatrix};
use ironman_nmp::sorting::SortedLpnMatrix;
use ironman_prg::{Block, ChaChaTreePrg, Crhf, TreePrg};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SPCOT's core algebra: for any seed and puncture point, the
    /// reconstructed tree agrees with the full tree everywhere but α, and
    /// the masked-sum recovery satisfies w[α] = v[α] ⊕ Δ.
    #[test]
    fn punctured_tree_correlation(
        seed in any::<u64>(),
        alpha in 0usize..256,
        delta in 1u128..,
        log_arity in 1u32..3,
    ) {
        let arity = Arity::new(1 << log_arity).unwrap();
        let prg = ChaChaTreePrg::new(Block::from(seed as u128 ^ 0xAB), 8);
        let tree = GgmTree::expand(&prg, Block::from(seed as u128), arity, 256);
        let sums = tree.level_sums();
        let mut punct = PuncturedTree::reconstruct(&prg, arity, 256, alpha, |l, j| sums[l][j]);
        punct.recover_punctured(Block::from(delta) ^ tree.leaf_sum());
        for i in 0..256 {
            let expect = punct.leaves()[i] ^ Block::from(delta).and_bit(i == alpha);
            prop_assert_eq!(tree.leaves()[i], expect);
        }
    }

    /// LPN encoding is linear over GF(2^128) inputs.
    #[test]
    fn lpn_linearity(seed in any::<u64>(), a in any::<u128>(), b in any::<u128>()) {
        let m = LpnMatrix::generate(64, 48, 10, Block::from(seed as u128 | 1));
        let va: Vec<Block> = (0..48u128).map(|i| Block::from(i.wrapping_mul(a) ^ a)).collect();
        let vb: Vec<Block> = (0..48u128).map(|i| Block::from(i.wrapping_add(b) ^ b)).collect();
        let vab: Vec<Block> = va.iter().zip(&vb).map(|(&x, &y)| x ^ y).collect();
        let mut ra = vec![Block::ZERO; 64];
        let mut rb = vec![Block::ZERO; 64];
        let mut rab = vec![Block::ZERO; 64];
        encoder::encode_blocks(&m, &va, &mut ra);
        encoder::encode_blocks(&m, &vb, &mut rb);
        encoder::encode_blocks(&m, &vab, &mut rab);
        for j in 0..64 {
            prop_assert_eq!(rab[j], ra[j] ^ rb[j]);
        }
    }

    /// Index sorting never changes the encoded output (§5.3 correctness):
    /// the sorted matrix over the permuted input is the plain product.
    #[test]
    fn sorting_preserves_encoding(seed in any::<u64>()) {
        let m = LpnMatrix::generate(200, 300, 10, Block::from(seed as u128 | 1));
        let sorted = SortedLpnMatrix::sort(&m);
        let input: Vec<Block> = (0..300u128).map(|i| Block::from(i * 3 + seed as u128)).collect();
        let mut plain = vec![Block::from(9u128); 200];
        let mut via = plain.clone();
        encoder::encode_blocks(&m, &input, &mut plain);
        encoder::encode_blocks(sorted.matrix(), &sorted.permute_input(&input), &mut via);
        prop_assert_eq!(plain, via);
    }

    /// The sort relabels columns and nothing else: `col_perm` is a
    /// bijection on `0..k`, and sorted row `i` is original row `i` mapped
    /// through it.
    #[test]
    fn sorting_relabels_columns_bijectively(seed in any::<u64>()) {
        let m = LpnMatrix::generate(150, 64, 6, Block::from(seed as u128 | 1));
        let sorted = SortedLpnMatrix::sort(&m);
        let perm = sorted.col_perm();
        let mut seen = [false; 64];
        for &c in perm {
            prop_assert!(!seen[c as usize]);
            seen[c as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        for i in 0..m.rows() {
            let mapped: Vec<u32> = m.row(i).iter().map(|&c| perm[c as usize]).collect();
            prop_assert_eq!(sorted.matrix().row(i), mapped.as_slice());
        }
    }

    /// The CRHF destroys the COT correlation: H(x) ⊕ H(x ⊕ Δ) ≠ Δ.
    #[test]
    fn crhf_breaks_correlations(x in any::<u128>(), delta in 1u128..) {
        let h = Crhf::new();
        let d = h.hash(0, Block::from(x)) ^ h.hash(0, Block::from(x ^ delta));
        prop_assert_ne!(d, Block::from(delta));
    }

    /// Tree PRG expansion prefixes are consistent: expanding w children
    /// agrees with the prefix of expanding more.
    #[test]
    fn tree_prg_prefix_consistency(seed in any::<u64>(), parent in any::<u128>(), w in 1usize..8) {
        let prg = ChaChaTreePrg::new(Block::from(seed as u128), 8);
        let mut small = vec![Block::ZERO; w];
        let mut big = vec![Block::ZERO; 8];
        prg.expand(Block::from(parent), &mut small);
        prg.expand(Block::from(parent), &mut big);
        prop_assert_eq!(&small[..], &big[..w]);
    }
}
