//! The ChaCha level kernel: one GGM level — many parents, the same key —
//! expanded in one call, eight parents per AVX2 vector.
//!
//! The paper keeps its pipelined ChaCha8 core full by issuing the nodes
//! of a level breadth-first (§4.3, Fig. 8): the parents of one level are
//! independent, so a new one enters the pipeline every cycle. In software
//! the SIMD lanes stand in for the pipeline stages. The state is
//! *word-sliced*: vector `w` holds state word `w` of eight parents, so one
//! quarter-round instruction advances eight block functions and no lane
//! ever waits on another. Words 0..12 (constants and key) are broadcasts;
//! words 12..16 are the parents' own 128 bits, brought in by a 4×4
//! transpose and taken out by four more, so that child `j` of parent `p`
//! lands at `children[p·fanout + j]` exactly as the per-parent
//! [`TreePrg::expand`](crate::TreePrg::expand) would put it.
//!
//! **Bit-identity contract.** Every tier computes
//! [`ChaCha::expand_block`] of `parent ⊕ (segment << 96)` for each
//! 4-child segment: same children, same order, same primitive-call
//! count. The tiers differ in instruction selection only, and
//! `tests/props.rs` pins each of them to the per-parent path for every
//! remainder-lane case.
//!
//! This module holds the crate's only kernel `unsafe` (raw-pointer vector
//! loads and stores), behind a scoped `#[allow(unsafe_code)]`.

use crate::chacha::CHACHA_BLOCKS_PER_CALL;
use crate::{Block, ChaCha};

/// Which implementation of the level kernel runs. Output-identical; only
/// the instruction selection differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelTier {
    /// One scalar block function per call — the always-available tier.
    Portable,
    /// Eight parents per AVX2 vector. Falls back to
    /// [`LevelTier::Portable`] where AVX2 is absent (the entry point
    /// re-checks, so asking for it on such a machine is safe, just
    /// pointless).
    Wide,
}

impl LevelTier {
    /// The tier this process dispatches to, decided once: the same AVX2
    /// check (and `IRONMAN_SIMD=scalar` override) as [`Block::xor_into`].
    pub fn detect() -> LevelTier {
        if crate::block::wide_enabled() {
            LevelTier::Wide
        } else {
            LevelTier::Portable
        }
    }

    /// Every tier that runs on this machine, whatever the environment
    /// says — for equivalence tests that must cover the wide tier exactly
    /// where it exists.
    pub fn available() -> &'static [LevelTier] {
        if avx2_present() {
            &[LevelTier::Portable, LevelTier::Wide]
        } else {
            &[LevelTier::Portable]
        }
    }
}

fn avx2_present() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Expands one parent into `children.len()` children, four per call; the
/// per-parent definition every tier of [`expand_level`] reproduces.
#[inline]
pub(crate) fn expand_parent(cipher: &ChaCha, parent: Block, children: &mut [Block]) -> u64 {
    let mut calls = 0u64;
    for (segment, chunk) in children.chunks_mut(CHACHA_BLOCKS_PER_CALL).enumerate() {
        // Distinct keystream per 4-child segment: perturb the parent with
        // the segment index in the top word (state word 15).
        let tweak = Block::from((segment as u128) << 96);
        let out = cipher.expand_block(parent ^ tweak);
        chunk.copy_from_slice(&out[..chunk.len()]);
        calls += 1;
    }
    calls
}

/// Expands every parent of a level into `fanout` children on `tier`,
/// returning the primitive calls consumed.
///
/// # Panics
///
/// Panics if `fanout == 0` or `children.len() != parents.len() * fanout`.
pub(crate) fn expand_level(
    cipher: &ChaCha,
    tier: LevelTier,
    parents: &[Block],
    fanout: usize,
    children: &mut [Block],
) -> u64 {
    assert!(fanout > 0, "fanout must be positive");
    assert_eq!(
        children.len(),
        parents.len() * fanout,
        "children must hold fanout slots per parent"
    );
    let done = match tier {
        LevelTier::Wide => wide_prefix(cipher, parents, fanout, children),
        LevelTier::Portable => 0,
    };
    for (parent, chunk) in parents[done..]
        .iter()
        .zip(children[done * fanout..].chunks_exact_mut(fanout))
    {
        expand_parent(cipher, *parent, chunk);
    }
    (parents.len() * fanout.div_ceil(CHACHA_BLOCKS_PER_CALL)) as u64
}

/// Runs the whole vectors of `parents` through the AVX2 kernel where the
/// CPU has it, returning how many parents that covered (the rest — and
/// everything on other machines — is the caller's scalar tail).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn wide_prefix(cipher: &ChaCha, parents: &[Block], fanout: usize, children: &mut [Block]) -> usize {
    if !avx2_present() {
        return 0;
    }
    let done = parents.len() / avx2::LANES * avx2::LANES;
    // SAFETY: AVX2 presence was verified just above.
    unsafe {
        avx2::expand_level(
            cipher.key_words(),
            cipher.rounds(),
            &parents[..done],
            fanout,
            &mut children[..done * fanout],
        );
    }
    done
}

#[cfg(not(target_arch = "x86_64"))]
fn wide_prefix(_: &ChaCha, _: &[Block], _: usize, _: &mut [Block]) -> usize {
    0
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{Block, CHACHA_BLOCKS_PER_CALL};
    use crate::chacha::CONSTANTS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// Parents per vector: eight 32-bit lanes in 256 bits.
    pub(super) const LANES: usize = 8;

    /// Transposes the 4×4 word matrix in each 128-bit half: output `i`
    /// holds word `i` of `a`, `b`, `c`, `d` (per half).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose4(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> [__m256i; 4] {
        let ab_lo = _mm256_unpacklo_epi32(a, b);
        let ab_hi = _mm256_unpackhi_epi32(a, b);
        let cd_lo = _mm256_unpacklo_epi32(c, d);
        let cd_hi = _mm256_unpackhi_epi32(c, d);
        [
            _mm256_unpacklo_epi64(ab_lo, cd_lo),
            _mm256_unpackhi_epi64(ab_lo, cd_lo),
            _mm256_unpacklo_epi64(ab_hi, cd_hi),
            _mm256_unpackhi_epi64(ab_hi, cd_hi),
        ]
    }

    /// Runs the level kernel over whole vectors of parents.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 is available.
    ///
    /// # Panics
    ///
    /// Panics unless `parents.len()` is a multiple of [`LANES`] and
    /// `children.len() == parents.len() * fanout`.
    #[target_feature(enable = "avx2")]
    pub(super) fn expand_level(
        key: &[u32; 8],
        rounds: u32,
        parents: &[Block],
        fanout: usize,
        children: &mut [Block],
    ) {
        assert_eq!(parents.len() % LANES, 0, "whole vectors only");
        assert_eq!(children.len(), parents.len() * fanout);
        // Byte shuffles that rotate every 32-bit lane left by 16 and by 8.
        // Opaque to the optimizer on purpose: given the constants, LLVM
        // rewrites each one-instruction `vpshufb` into two shuffles (a
        // `vpshuflw`/`vpshufhw` pair, or a shuffle distributed over the
        // preceding XOR), and the shuffle port is what bounds this loop.
        let rot16 = black_box(_mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        ));
        let rot8 = black_box(_mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        ));
        let mut fixed = [_mm256_setzero_si256(); 12];
        for (v, &w) in fixed.iter_mut().zip(CONSTANTS.iter().chain(key)) {
            *v = _mm256_set1_epi32(w as i32);
        }
        let segments = fanout.div_ceil(CHACHA_BLOCKS_PER_CALL);

        for (batch, out) in parents
            .chunks_exact(LANES)
            .zip(children.chunks_exact_mut(LANES * fanout))
        {
            // Row `i` = parent `i` (low half) and parent `i + 4` (high
            // half); the transpose turns the rows into state words
            // 12..16 with the eight parents in lane order.
            let src = batch.as_ptr().cast::<__m128i>();
            let mut rows = [_mm256_setzero_si256(); 4];
            for (i, row) in rows.iter_mut().enumerate() {
                // SAFETY: `batch` holds LANES = 8 blocks of 16 plain
                // bytes each, `i + 4 < 8`, and the unaligned load has no
                // alignment requirement.
                *row = unsafe {
                    _mm256_inserti128_si256(
                        _mm256_castsi128_si256(_mm_loadu_si128(src.add(i))),
                        _mm_loadu_si128(src.add(i + 4)),
                        1,
                    )
                };
            }
            let input = transpose4(rows[0], rows[1], rows[2], rows[3]);
            let dst = out.as_mut_ptr().cast::<__m128i>();

            for segment in 0..segments {
                let mut init = [_mm256_setzero_si256(); 16];
                init[..12].copy_from_slice(&fixed);
                init[12..].copy_from_slice(&input);
                init[15] = _mm256_xor_si256(input[3], _mm256_set1_epi32(segment as i32));
                let mut x = init;

                macro_rules! quarter {
                    ($a:expr, $b:expr, $c:expr, $d:expr) => {
                        x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                        x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot16);
                        x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                        let t = _mm256_xor_si256(x[$b], x[$c]);
                        x[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 12), _mm256_srli_epi32(t, 20));
                        x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                        x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot8);
                        x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                        let t = _mm256_xor_si256(x[$b], x[$c]);
                        x[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 7), _mm256_srli_epi32(t, 25));
                    };
                }
                for _ in 0..rounds / 2 {
                    quarter!(0, 4, 8, 12);
                    quarter!(1, 5, 9, 13);
                    quarter!(2, 6, 10, 14);
                    quarter!(3, 7, 11, 15);
                    quarter!(0, 5, 10, 15);
                    quarter!(1, 6, 11, 12);
                    quarter!(2, 7, 8, 13);
                    quarter!(3, 4, 9, 14);
                }
                for (v, start) in x.iter_mut().zip(init) {
                    *v = _mm256_add_epi32(*v, start);
                }

                // Words 4g..4g+4 are child `g` of this segment; a
                // truncated last segment keeps only its first children.
                let first = segment * CHACHA_BLOCKS_PER_CALL;
                let kept = (fanout - first).min(CHACHA_BLOCKS_PER_CALL);
                for g in 0..kept {
                    let t = transpose4(x[4 * g], x[4 * g + 1], x[4 * g + 2], x[4 * g + 3]);
                    for (i, v) in t.into_iter().enumerate() {
                        // SAFETY: `out` holds `LANES * fanout` blocks;
                        // parents `i` and `i + 4` are below LANES and
                        // `first + g < fanout`, so both slots are inside
                        // it. Blocks are 16 plain bytes and the unaligned
                        // store has no alignment requirement.
                        unsafe {
                            _mm_storeu_si128(
                                dst.add(i * fanout + first + g),
                                _mm256_castsi256_si128(v),
                            );
                            _mm_storeu_si128(
                                dst.add((i + 4) * fanout + first + g),
                                _mm256_extracti128_si256(v, 1),
                            );
                        }
                    }
                }
            }
        }
    }
}
