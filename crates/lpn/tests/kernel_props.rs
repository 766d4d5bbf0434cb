//! Kernel-equivalence properties: every LPN kernel variant — row-major
//! naive, cache-blocked tiled (arbitrary geometries), packed bits, and
//! the whole [`ironman_lpn::simd`] dispatch layer (including the gather
//! bit pass, the per-row-block hand-off, the two-vector block pass, and
//! the split and fused pairs the benchmark harness still probes) at
//! every runtime-available SIMD level (scalar always; AVX2/BMI2 where
//! the host has it) — computes the same GF(2)/GF(2^128) product, onto
//! dirty accumulators, across matrix shapes including the `toy()` and
//! `OT_2POW20` parameter classes. Iterating `SimdLevel::available()`
//! covers both the forced-scalar and auto-detected dispatch outcomes
//! without racing on the `IRONMAN_SIMD` process environment.

use ironman_lpn::encoder;
use ironman_lpn::{simd, LpnMatrix, PackedBits, SimdLevel, TileConfig, TileSchedule};
use ironman_prg::Block;
use proptest::prelude::*;

/// Pseudorandom but deterministic fill helpers (proptest's collection
/// strategies at `n`-element scale would dominate runtime).
fn blocks_from(seed: u64, len: usize) -> Vec<Block> {
    (0..len)
        .map(|i| {
            let x = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Block::from_halves(x, x.rotate_left(17) ^ 0xABCD)
        })
        .collect()
}

fn bools_from(seed: u64, len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) & 4 != 0)
        .collect()
}

/// Row `j` of `A·e` over GF(2) onto `acc`, one bit at a time — the
/// definition the packed lanes are checked against.
fn encode_bits_reference(m: &LpnMatrix, e: &[bool], acc: &mut [bool]) {
    for (j, a) in acc.iter_mut().enumerate() {
        for &c in m.row(j) {
            *a ^= e[c as usize];
        }
    }
}

/// Asserts all block-kernel variants match the naive encoder on the
/// given matrix with dirty accumulators, and likewise for bits.
fn assert_all_kernels_equal(m: &LpnMatrix, tile_cfg: TileConfig, seed: u64) {
    let n = m.rows();
    let k = m.cols();
    let s = blocks_from(seed, k);
    let e = bools_from(seed ^ 1, k);
    let e_packed = PackedBits::from_bools(&e);
    let dirty_blocks = blocks_from(seed ^ 2, n);
    let dirty_bits = bools_from(seed ^ 3, n);

    // Reference: row-major naive.
    let mut y_ref = dirty_blocks.clone();
    let mut x_ref = dirty_bits.clone();
    encoder::encode_blocks(m, &s, &mut y_ref);
    encode_bits_reference(m, &e, &mut x_ref);

    // Tiled (explicit geometry + the cached default schedule).
    let tiles = TileSchedule::build(m, tile_cfg);
    let mut y = dirty_blocks.clone();
    tiles.encode_blocks(&s, &mut y);
    assert_eq!(y, y_ref, "tiled blocks ({tile_cfg:?})");
    let mut y = dirty_blocks.clone();
    m.tile_schedule().encode_blocks(&s, &mut y);
    assert_eq!(y, y_ref, "default-schedule blocks");

    // Packed bits, row-major.
    let mut x = PackedBits::from_bools(&dirty_bits);
    encoder::encode_bits_packed(m, &e_packed, &mut x);
    assert_eq!(x.to_bools(), x_ref, "packed bits");

    // The simd dispatch layer: every entry point × every level the host
    // can actually run (Scalar everywhere; Wide on AVX2+BMI2 machines).
    for &level in SimdLevel::available() {
        let mut y = dirty_blocks.clone();
        simd::encode_blocks(level, m, &s, &mut y);
        assert_eq!(y, y_ref, "simd blocks ({level:?})");
        let mut y = dirty_blocks.clone();
        simd::encode_blocks_tiled(level, &tiles, &s, &mut y);
        assert_eq!(y, y_ref, "simd tiled blocks ({level:?})");

        let mut x = PackedBits::from_bools(&dirty_bits);
        simd::encode_bits_packed(level, m, &e_packed, &mut x);
        assert_eq!(x.to_bools(), x_ref, "simd packed bits ({level:?})");
        let mut y = dirty_blocks.clone();
        let mut handed = Vec::new();
        simd::encode_blocks_tiled_with(level, &tiles, &s, &mut y, |rows| {
            handed.extend_from_slice(rows)
        });
        assert_eq!(y, y_ref, "simd tiled blocks, row-block hook ({level:?})");
        assert_eq!(handed, y_ref, "finished row blocks ({level:?})");

        // Two vectors in one replay: the first against its own pass.
        let r = blocks_from(seed ^ 4, k);
        let mut z_ref = dirty_blocks.clone();
        encoder::encode_blocks(m, &r, &mut z_ref);
        let (mut z, mut y) = (dirty_blocks.clone(), dirty_blocks.clone());
        let mut handed = Vec::new();
        simd::encode_block_pair_tiled_with(level, &tiles, &r, &s, &mut z, &mut y, |rows| {
            handed.extend_from_slice(rows)
        });
        assert_eq!(z, z_ref, "simd tiled block pair, first ({level:?})");
        assert_eq!(y, y_ref, "simd tiled block pair, second ({level:?})");
        assert_eq!(handed, y_ref, "block pair's finished rows ({level:?})");

        let mut y = dirty_blocks.clone();
        let mut x = PackedBits::from_bools(&dirty_bits);
        simd::encode_cot_pair(level, m, &s, &e_packed, &mut y, &mut x);
        assert_eq!(y, y_ref, "simd split-pair blocks ({level:?})");
        assert_eq!(x.to_bools(), x_ref, "simd split-pair bits ({level:?})");
        let mut y = dirty_blocks.clone();
        let mut x = PackedBits::from_bools(&dirty_bits);
        simd::encode_cot_pair_tiled(level, &tiles, &s, &e_packed, &mut y, &mut x);
        assert_eq!(y, y_ref, "simd fused tiled blocks ({level:?})");
        assert_eq!(x.to_bools(), x_ref, "simd fused tiled bits ({level:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small matrices × random tile geometries × dirty
    /// accumulators: every kernel equals the naive encoder.
    #[test]
    fn all_kernels_agree_on_random_matrices(
        rows in 1usize..400,
        cols in 1usize..300,
        weight in 0usize..12,
        row_block in 1usize..512,
        col_tile in 1usize..512,
        seed in any::<u64>(),
    ) {
        let weight = weight.min(cols);
        let m = LpnMatrix::generate(rows, cols, weight, Block::from(seed as u128));
        let tile_cfg = TileConfig { row_block, col_tile };
        assert_all_kernels_equal(&m, tile_cfg, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The `FerretParams::toy()` shape (n=5000, k=1024, d=10) — the CI
    /// parameter class — under random seeds and the default geometries.
    #[test]
    fn all_kernels_agree_on_toy_class(seed in any::<u64>()) {
        let m = LpnMatrix::generate(5000, 1024, 10, Block::from(seed as u128));
        assert_all_kernels_equal(&m, TileConfig::default(), seed);
    }

    /// The `OT_2POW20` shape (n ≈ 7.3k, d = 10) at 1/100 linear scale,
    /// keeping the n:k ratio, plus the production tile geometry scaled
    /// the same way — the shape the tiled kernels were built for.
    #[test]
    fn all_kernels_agree_on_ot2pow20_class(seed in any::<u64>()) {
        let m = LpnMatrix::generate(12_215, 1_680, 10, Block::from(seed as u128));
        let tile_cfg = TileConfig { row_block: 1310, col_tile: 327 };
        assert_all_kernels_equal(&m, tile_cfg, seed);
    }
}
