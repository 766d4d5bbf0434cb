//! The ChaCha level kernel: one GGM level — many parents, the same key —
//! expanded in one call, sixteen parents per AVX-512 vector or eight per
//! AVX2 vector.
//!
//! The paper keeps its pipelined ChaCha8 core full by issuing the nodes
//! of a level breadth-first (§4.3, Fig. 8): the parents of one level are
//! independent, so a new one enters the pipeline every cycle. In software
//! the SIMD lanes stand in for the pipeline stages. The state is
//! *word-sliced*: vector `w` holds state word `w` of every lane's parent,
//! so one quarter-round instruction advances eight or sixteen block
//! functions and no lane ever waits on another. Words 0..12 (constants and
//! key) are broadcasts; words 12..16 are the parents' own 128 bits,
//! loaded as four rows of contiguous parents and brought in by a 4×4 word
//! transpose in every 128-bit lane. On the way out the same transpose,
//! then a 4×4 transpose of 128-bit lanes, turns each 4-child segment back
//! into one 64-byte run per parent, stored as whole vectors, so that
//! child `j` of parent `p` lands at `children[p·fanout + j]` exactly as
//! the per-parent [`TreePrg::expand`](crate::TreePrg::expand) would put
//! it.
//!
//! **The tier ladder.** [`LevelTier::Wide512`] (AVX-512F, 16 lanes) over
//! [`LevelTier::Wide`] (AVX2, 8 lanes) over [`LevelTier::Portable`] (one
//! scalar block function per call); [`LevelTier::detect`] picks the
//! widest tier that [`crate::cpu::enabled`] allows. AVX-512's `vprold` rotates every lane by any count
//! in one instruction; AVX2 has no rotate, so its kernel rotates by 16
//! and 8 with a `vpshufb` byte shuffle and by 12 and 7 with two shifts.
//!
//! **No scalar tails.** A vector tier runs every parent of a level: the
//! last partial vector is copied into a zeroed lane-width scratch,
//! expanded whole, and only the real parents' children are stored. A
//! level narrower than one vector (the top of a tree, or the receiver's
//! runs on either side of its punctured parent) therefore costs one
//! vector pass, and the per-parent loop runs only on the portable tier.
//!
//! **Bit-identity contract.** Every tier computes
//! [`ChaCha::expand_block`] of `parent ⊕ (segment << 96)` for each
//! 4-child segment: same children, same order, same primitive-call
//! count (padding lanes are never counted). The tiers differ in
//! instruction selection only, and `tests/props.rs` pins each of them to
//! the per-parent path for every remainder-lane case.
//!
//! This module holds the crate's only kernel `unsafe` (raw-pointer vector
//! loads and stores), behind a scoped `#[allow(unsafe_code)]`.

use crate::chacha::CHACHA_BLOCKS_PER_CALL;
use crate::cpu::{self, Features};
use crate::{Block, ChaCha};

/// Which implementation of the level kernel runs. Output-identical; only
/// the instruction selection differs. A vector tier asked for on a CPU
/// without its feature falls back to the next narrower tier the CPU has
/// (the entry point re-checks, so asking is safe, just pointless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelTier {
    /// One scalar block function per call — the always-available tier.
    Portable,
    /// Eight parents per AVX2 vector.
    Wide,
    /// Sixteen parents per AVX-512F vector, rotates by `vprold`.
    Wide512,
}

impl LevelTier {
    /// The tier this process dispatches to: the widest one
    /// [`cpu::enabled`] allows, so [`LevelTier::Portable`] under
    /// `IRONMAN_SIMD=scalar`.
    pub fn detect() -> LevelTier {
        *Self::tiers(cpu::enabled())
            .last()
            .expect("Portable is always available")
    }

    /// Every tier that runs on this machine ([`cpu::detected`]), narrowest
    /// first, whatever the environment says — for equivalence tests that
    /// must cover each vector tier exactly where it exists.
    pub fn available() -> &'static [LevelTier] {
        Self::tiers(cpu::detected())
    }

    /// The tiers `cpu` runs, narrowest first.
    fn tiers(cpu: Features) -> &'static [LevelTier] {
        match (cpu.avx2, cpu.avx512f) {
            (true, true) => &[LevelTier::Portable, LevelTier::Wide, LevelTier::Wide512],
            (true, false) => &[LevelTier::Portable, LevelTier::Wide],
            _ => &[LevelTier::Portable],
        }
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
    if !vector_level(cipher, tier, parents, fanout, children) {
        for (parent, chunk) in parents.iter().zip(children.chunks_exact_mut(fanout)) {
            expand_parent(cipher, *parent, chunk);
        }
    }
    (parents.len() * fanout.div_ceil(CHACHA_BLOCKS_PER_CALL)) as u64
}

/// Runs the whole level on the widest vector kernel both `tier` and the
/// CPU allow, returning `false` if there is none (the caller then runs
/// the per-parent loop).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn vector_level(
    cipher: &ChaCha,
    tier: LevelTier,
    parents: &[Block],
    fanout: usize,
    children: &mut [Block],
) -> bool {
    let cpu = cpu::detected();
    let (key, rounds) = (cipher.key_words(), cipher.rounds());
    match tier {
        LevelTier::Wide512 if cpu.avx512f => {
            // SAFETY: the CPU has AVX-512F (checked just above).
            unsafe { x512::expand_level(key, rounds, parents, fanout, children) }
        }
        LevelTier::Wide | LevelTier::Wide512 if cpu.avx2 => {
            // SAFETY: the CPU has AVX2 (checked just above).
            unsafe { x256::expand_level(key, rounds, parents, fanout, children) }
        }
        _ => return false,
    }
    true
}

#[cfg(not(target_arch = "x86_64"))]
fn vector_level(_: &ChaCha, _: LevelTier, _: &[Block], _: usize, _: &mut [Block]) -> bool {
    false
}

/// The kernel body, written once for both vector widths. The invoking
/// module supplies the vector type `V`, `LANES` (parents per vector, four
/// per 128-bit lane), the target feature, the intrinsics for the
/// operations both widths spell alike, and the width's own helpers:
/// `Rotations` / `rotations()` (whatever the rotates set up once per
/// call), `rotl16`, `rotl12`, `rotl8`, `rotl7`, `regroup` (the 128-bit
/// lane transpose) and `lanes(v)` (the vector's 128-bit lanes, lowest
/// first).
#[cfg(target_arch = "x86_64")]
macro_rules! level_kernel {
    (
        feature: $feature:literal,
        splat: $splat:path,
        add: $add:path,
        xor: $xor:path,
        load: $load:path,
        store: $store:path,
        unpack: [$lo32:path, $hi32:path, $lo64:path, $hi64:path $(,)?] $(,)?
    ) => {
        /// Parents per row: one contiguous run per 128-bit lane.
        const ROW: usize = LANES / 4;

        /// Transposes the 4×4 word matrix in each 128-bit lane: output `i`
        /// holds word `i` of `a`, `b`, `c`, `d` (per lane).
        #[inline]
        #[target_feature(enable = $feature)]
        fn transpose4(a: V, b: V, c: V, d: V) -> [V; 4] {
            let ab_lo = $lo32(a, b);
            let ab_hi = $hi32(a, b);
            let cd_lo = $lo32(c, d);
            let cd_hi = $hi32(c, d);
            [
                $lo64(ab_lo, cd_lo),
                $hi64(ab_lo, cd_lo),
                $lo64(ab_hi, cd_hi),
                $hi64(ab_hi, cd_hi),
            ]
        }

        /// One ChaCha quarter round on state words `a`, `b`, `c`, `d` of
        /// every lane.
        #[inline]
        #[target_feature(enable = $feature)]
        fn quarter(x: &mut [V; 16], rot: &Rotations, a: usize, b: usize, c: usize, d: usize) {
            x[a] = $add(x[a], x[b]);
            x[d] = rotl16($xor(x[d], x[a]), rot);
            x[c] = $add(x[c], x[d]);
            x[b] = rotl12($xor(x[b], x[c]), rot);
            x[a] = $add(x[a], x[b]);
            x[d] = rotl8($xor(x[d], x[a]), rot);
            x[c] = $add(x[c], x[d]);
            x[b] = rotl7($xor(x[b], x[c]), rot);
        }

        /// Runs the level kernel over every parent, the last partial
        /// vector padded.
        ///
        /// # Safety
        ///
        /// Outside code compiled for the target feature, calling this is
        /// `unsafe`: the caller must have verified the CPU has it.
        ///
        /// # Panics
        ///
        /// Panics unless `children.len() == parents.len() * fanout`.
        #[target_feature(enable = $feature)]
        pub(super) fn expand_level(
            key: &[u32; 8],
            rounds: u32,
            parents: &[Block],
            fanout: usize,
            children: &mut [Block],
        ) {
            assert_eq!(children.len(), parents.len() * fanout);
            let rot = rotations();
            let mut fixed = [$splat(0); 12];
            for (v, &w) in fixed.iter_mut().zip(CONSTANTS.iter().chain(key)) {
                *v = $splat(w as i32);
            }
            let segments = fanout.div_ceil(CHACHA_BLOCKS_PER_CALL);

            for (batch, out) in parents
                .chunks(LANES)
                .zip(children.chunks_mut(LANES * fanout))
            {
                // The last partial vector runs padded: zero parents fill
                // the lanes past the level's end, and their children are
                // never stored.
                let padded: [Block; LANES];
                let src: &[Block] = if batch.len() == LANES {
                    batch
                } else {
                    padded = std::array::from_fn(|p| batch.get(p).copied().unwrap_or_default());
                    &padded
                };
                // Row `r` = parents `ROW·r ..` (one per 128-bit lane); the
                // transpose turns the rows into state words 12..16, lane
                // `4l + r` holding parent `ROW·r + l`.
                let mut rows = [$splat(0); 4];
                for (r, row) in rows.iter_mut().enumerate() {
                    let run = &src[r * ROW..(r + 1) * ROW];
                    // SAFETY: `run` is ROW blocks of 16 plain bytes, one
                    // vector's worth, and the unaligned load has no
                    // alignment requirement.
                    *row = unsafe { $load(run.as_ptr().cast()) };
                }
                let input = transpose4(rows[0], rows[1], rows[2], rows[3]);

                for segment in 0..segments {
                    let mut init = [$splat(0); 16];
                    init[..12].copy_from_slice(&fixed);
                    init[12..].copy_from_slice(&input);
                    init[15] = $xor(input[3], $splat(segment as i32));
                    let mut x = init;
                    for _ in 0..rounds / 2 {
                        quarter(&mut x, &rot, 0, 4, 8, 12);
                        quarter(&mut x, &rot, 1, 5, 9, 13);
                        quarter(&mut x, &rot, 2, 6, 10, 14);
                        quarter(&mut x, &rot, 3, 7, 11, 15);
                        quarter(&mut x, &rot, 0, 5, 10, 15);
                        quarter(&mut x, &rot, 1, 6, 11, 12);
                        quarter(&mut x, &rot, 2, 7, 8, 13);
                        quarter(&mut x, &rot, 3, 4, 9, 14);
                    }
                    for (v, start) in x.iter_mut().zip(init) {
                        *v = $add(*v, start);
                    }

                    // Words 4g..4g+4 are child `g` of this segment.
                    // Transposed back, vector `i`'s lane `l` holds that
                    // child of parent `ROW·i + l`; padding parents' lanes
                    // are dropped. `out` holds `batch.len() * fanout`
                    // blocks (asserted above, chunked alike).
                    let first = segment * CHACHA_BLOCKS_PER_CALL;
                    let kept = (fanout - first).min(CHACHA_BLOCKS_PER_CALL);
                    let dst = out.as_mut_ptr();
                    if kept == CHACHA_BLOCKS_PER_CALL {
                        // A whole segment: regrouped, each parent's four
                        // children are 64 contiguous bytes, stored as
                        // whole vectors.
                        let t = [0, 1, 2, 3].map(|g| {
                            transpose4(x[4 * g], x[4 * g + 1], x[4 * g + 2], x[4 * g + 3])
                        });
                        for i in 0..4 {
                            let rows = regroup(t[0][i], t[1][i], t[2][i], t[3][i]);
                            for (l, row) in rows.chunks_exact(4 / ROW).enumerate() {
                                let p = ROW * i + l;
                                if p < batch.len() {
                                    for (k, v) in row.iter().enumerate() {
                                        // SAFETY: `p < batch.len()`,
                                        // `ROW·k + ROW <= 4` and
                                        // `first + 4 <= fanout`, so the
                                        // ROW blocks at `first + ROW·k`
                                        // of parent `p` lie inside `out`;
                                        // blocks are 16 plain bytes and
                                        // the store is unaligned.
                                        unsafe {
                                            $store(dst.add(p * fanout + first + ROW * k).cast(), *v)
                                        };
                                    }
                                }
                            }
                        }
                    } else {
                        // The truncated last segment of a fanout that is
                        // not a multiple of four: child by child.
                        for g in 0..kept {
                            let t = transpose4(x[4 * g], x[4 * g + 1], x[4 * g + 2], x[4 * g + 3]);
                            for (i, v) in t.into_iter().enumerate() {
                                for (l, child) in lanes(v).into_iter().enumerate() {
                                    let p = ROW * i + l;
                                    if p < batch.len() {
                                        // SAFETY: `p < batch.len()` and
                                        // `first + g < fanout`, so the
                                        // slot lies inside `out`; the
                                        // store is unaligned.
                                        unsafe {
                                            _mm_storeu_si128(
                                                dst.add(p * fanout + first + g).cast(),
                                                child,
                                            )
                                        };
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    };
}

/// Eight parents per AVX2 vector.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x256 {
    use super::{Block, CHACHA_BLOCKS_PER_CALL};
    use crate::chacha::CONSTANTS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    type V = __m256i;
    const LANES: usize = 8;

    /// Byte shuffles that rotate every 32-bit lane left by 16 and by 8.
    /// Opaque to the optimizer on purpose: given the constants, LLVM
    /// rewrites each one-instruction `vpshufb` into two shuffles (a
    /// `vpshuflw`/`vpshufhw` pair, or a shuffle distributed over the
    /// preceding XOR), and the shuffle port is what bounds this loop.
    struct Rotations {
        by16: V,
        by8: V,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotations() -> Rotations {
        Rotations {
            by16: black_box(_mm256_setr_epi8(
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10,
                11, 8, 9, 14, 15, 12, 13,
            )),
            by8: black_box(_mm256_setr_epi8(
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11,
                8, 9, 10, 15, 12, 13, 14,
            )),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl16(v: V, rot: &Rotations) -> V {
        _mm256_shuffle_epi8(v, rot.by16)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl12(v: V, _: &Rotations) -> V {
        _mm256_or_si256(_mm256_slli_epi32::<12>(v), _mm256_srli_epi32::<20>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl8(v: V, rot: &Rotations) -> V {
        _mm256_shuffle_epi8(v, rot.by8)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl7(v: V, _: &Rotations) -> V {
        _mm256_or_si256(_mm256_slli_epi32::<7>(v), _mm256_srli_epi32::<25>(v))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(v: V) -> [__m128i; 2] {
        [_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)]
    }

    /// The four children of each of the vector's two parents, two
    /// vectors per parent in parent order, from four vectors whose lane
    /// `l` holds child `g` of parent `l` (per argument `g`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn regroup(a: V, b: V, c: V, d: V) -> [V; 4] {
        [
            _mm256_permute2x128_si256::<0x20>(a, b),
            _mm256_permute2x128_si256::<0x20>(c, d),
            _mm256_permute2x128_si256::<0x31>(a, b),
            _mm256_permute2x128_si256::<0x31>(c, d),
        ]
    }

    level_kernel! {
        feature: "avx2",
        splat: _mm256_set1_epi32,
        add: _mm256_add_epi32,
        xor: _mm256_xor_si256,
        load: _mm256_loadu_si256,
        store: _mm256_storeu_si256,
        unpack: [
            _mm256_unpacklo_epi32,
            _mm256_unpackhi_epi32,
            _mm256_unpacklo_epi64,
            _mm256_unpackhi_epi64,
        ],
    }
}

/// Sixteen parents per AVX-512F vector.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x512 {
    use super::{Block, CHACHA_BLOCKS_PER_CALL};
    use crate::chacha::CONSTANTS;
    use std::arch::x86_64::*;

    type V = __m512i;
    const LANES: usize = 16;

    /// `vprold` takes its count as an immediate: nothing to set up.
    struct Rotations;

    #[inline]
    fn rotations() -> Rotations {
        Rotations
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn rotl16(v: V, _: &Rotations) -> V {
        _mm512_rol_epi32::<16>(v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn rotl12(v: V, _: &Rotations) -> V {
        _mm512_rol_epi32::<12>(v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn rotl8(v: V, _: &Rotations) -> V {
        _mm512_rol_epi32::<8>(v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn rotl7(v: V, _: &Rotations) -> V {
        _mm512_rol_epi32::<7>(v)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes(v: V) -> [__m128i; 4] {
        [
            _mm512_extracti32x4_epi32::<0>(v),
            _mm512_extracti32x4_epi32::<1>(v),
            _mm512_extracti32x4_epi32::<2>(v),
            _mm512_extracti32x4_epi32::<3>(v),
        ]
    }

    /// The four children of each of the vector's four parents, one vector
    /// per parent, from four vectors whose lane `l` holds child `g` of
    /// parent `l` (per argument `g`): a 4×4 transpose of 128-bit lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn regroup(a: V, b: V, c: V, d: V) -> [V; 4] {
        let ab_lo = _mm512_shuffle_i32x4::<0x44>(a, b);
        let ab_hi = _mm512_shuffle_i32x4::<0xee>(a, b);
        let cd_lo = _mm512_shuffle_i32x4::<0x44>(c, d);
        let cd_hi = _mm512_shuffle_i32x4::<0xee>(c, d);
        [
            _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo),
            _mm512_shuffle_i32x4::<0xdd>(ab_lo, cd_lo),
            _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi),
            _mm512_shuffle_i32x4::<0xdd>(ab_hi, cd_hi),
        ]
    }

    level_kernel! {
        feature: "avx512f",
        splat: _mm512_set1_epi32,
        add: _mm512_add_epi32,
        xor: _mm512_xor_si512,
        load: _mm512_loadu_si512,
        store: _mm512_storeu_si512,
        unpack: [
            _mm512_unpacklo_epi32,
            _mm512_unpackhi_epi32,
            _mm512_unpacklo_epi64,
            _mm512_unpackhi_epi64,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_the_widest_available_tier() {
        // A silent fall-back to a narrower tier would cost the kernel
        // most of its speed and fail nothing else.
        let available = LevelTier::available();
        let widest = *available.last().unwrap();
        if cpu::enabled() == Features::default() {
            assert_eq!(LevelTier::detect(), LevelTier::Portable);
        } else {
            assert_eq!(LevelTier::detect(), widest);
        }
        let cpu = cpu::detected();
        assert_eq!(available.contains(&LevelTier::Wide), cpu.avx2);
        assert_eq!(
            available.contains(&LevelTier::Wide512),
            cpu.avx2 && cpu.avx512f
        );
        assert_eq!(available[0], LevelTier::Portable);
    }

    #[test]
    #[ignore = "micro-bench; run with --release -- --ignored --nocapture"]
    fn level_tiers_head_to_head_at_table4_tree() {
        // OT_2POW20's tree: 4096 leaves, quad ChaCha8, levels of 1, 4,
        // …, 1024 parents. "expand" is the sender's whole tree, one
        // kernel call per level; "reconstruct" is the receiver's kernel
        // calls, two runs per level split around the punctured parent
        // (the branch-sum pass is the GGM crate's and not timed here).
        use std::time::Instant;
        const LEAVES: usize = 4096;
        const FANOUT: usize = 4;
        const TREES: usize = 256;
        const REPS: usize = 7;
        let cipher = ChaCha::from_session_key(Block::from(0x7ab1e4u128), 8);
        let widths: Vec<usize> = std::iter::successors(Some(FANOUT), |w| Some(w * FANOUT))
            .take_while(|&w| w <= LEAVES)
            .collect();
        let mut levels: Vec<Vec<Block>> = widths.iter().map(|&w| vec![Block::ZERO; w]).collect();
        let expand = |levels: &mut Vec<Vec<Block>>, tier: LevelTier, seed: Block| {
            expand_level(&cipher, tier, &[seed], FANOUT, &mut levels[0]);
            for lvl in 1..levels.len() {
                let (above, below) = levels.split_at_mut(lvl);
                expand_level(&cipher, tier, &above[lvl - 1], FANOUT, &mut below[0]);
            }
        };
        let reconstruct = |levels: &mut Vec<Vec<Block>>, tier: LevelTier, alpha: usize| {
            let mut punct = alpha / (LEAVES / FANOUT);
            for lvl in 1..levels.len() {
                let (above, below) = levels.split_at_mut(lvl);
                let (parents, nodes) = (&above[lvl - 1], &mut below[0]);
                let hole = punct * FANOUT..(punct + 1) * FANOUT;
                expand_level(
                    &cipher,
                    tier,
                    &parents[..punct],
                    FANOUT,
                    &mut nodes[..hole.start],
                );
                expand_level(
                    &cipher,
                    tier,
                    &parents[punct + 1..],
                    FANOUT,
                    &mut nodes[hole.end..],
                );
                punct = punct * FANOUT + alpha / (LEAVES / widths[lvl]) % FANOUT;
            }
        };
        let time = |f: &mut dyn FnMut()| {
            let mut secs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            let per_leaf = |s: f64| s * 1e9 / (TREES * LEAVES) as f64;
            (per_leaf(secs[0]), per_leaf(secs[REPS / 2]))
        };
        println!("ns per leaf, best / median of {REPS} reps of {TREES} trees");
        for &tier in LevelTier::available() {
            let (eb, em) = time(&mut || {
                for i in 0..TREES {
                    expand(&mut levels, tier, Block::from(i as u128));
                }
            });
            let (rb, rm) = time(&mut || {
                for i in 0..TREES {
                    reconstruct(&mut levels, tier, i * 2_654_435_761 % LEAVES);
                }
            });
            println!("{tier:?}: expand {eb:.2} / {em:.2}, reconstruct {rb:.2} / {rm:.2}");
        }
    }
}
