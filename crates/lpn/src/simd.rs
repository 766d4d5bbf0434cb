//! Runtime-dispatched wide (AVX2 + BMI2) LPN kernels.
//!
//! The PR-5 kernels are deliberately baseline x86-64: `Block` XORs
//! compile to general-purpose-register pairs and packed-bit probes go
//! through a mask table because baseline variable shifts serialize on
//! the shift-count register. This module adds a **wide** tier of the
//! same lanes behind runtime feature detection:
//!
//! * `Block` gathers run on 128-bit XMM registers (`PXOR`/`VPXOR`: one
//!   load + one XOR per 16-byte element instead of two of each). The
//!   row-major chain is split over two independent accumulators so the
//!   XOR latency chains overlap; the tiled bucket loop issues four input
//!   loads ahead of its four accumulator read-xor-writes and indexes
//!   without per-gather bounds checks, standing on the range invariant
//!   [`TileSchedule::build_with`] asserts for every entry. Its two-vector
//!   form ([`encode_block_pair_tiled_with`]) decodes each entry once for
//!   both parties' vectors;
//! * the row-major packed-bit pass is a **gather** kernel: eight column
//!   indices at a time, one `VPGATHERDD` fetches the eight 32-bit words
//!   of the (L1-resident) packed input, a per-lane variable shift moves
//!   each probed bit to its sign position, `VMOVMSKPS` collects them,
//!   and each row's `d`-bit window of that bit stream folds to one
//!   parity bit (prefix-XOR + `PEXT` at the row ends) — no scalar probe
//!   chain, one accumulator XOR per 64 rows;
//! * the fused pair's bit half probes with a variable shift — with BMI2
//!   enabled a single `SHRX`, deleting the mask table's load traffic from
//!   every gather;
//! * the whole traversal is compiled under
//!   `#[target_feature(enable = "avx2", enable = "bmi2")]`, so LLVM may
//!   additionally autovectorize (e.g. 256-bit `VPXOR` on the bulk
//!   paths).
//!
//! Dispatch is by [`SimdLevel`]: [`SimdLevel::detect`] is the wide tier
//! where [`ironman_prg::cpu::enabled`] has AVX2 and BMI2 — the one CPU
//! decision every kernel tier shares, so `IRONMAN_SIMD=scalar` turns the
//! wide tier off with the others — and `FerretConfig`'s simd policy in
//! `ironman-ot` can pin the scalar tier per session. Every entry point
//! takes the level explicitly so benches and proptests can pin either
//! tier, and checks [`ironman_prg::cpu::detected`] before it runs a wide
//! kernel. The scalar tier calls the unchanged [`encoder`] kernels — the
//! always-available fallback, and the only tier on non-x86-64 targets.
//! Both tiers are bit-identical in output (checked by the
//! `kernel_props` proptests under both forced-scalar and auto
//! dispatch).
//!
//! One set-up kernel lives here too: [`TileSchedule`]'s constructors
//! place each row block with `place_row_block` where the wide tier is on
//! and the CPU has AVX-512F — per vector of sixteen gathers, one compare
//! per column tile, a `VPCOMPRESSD` and a masked store at that bucket's
//! cursor — and with the row-major scalar placement otherwise. Same
//! entries, same order within every bucket.

use crate::bits::PackedBits;
use crate::encoder;
use crate::tile::TileSchedule;
use crate::LpnMatrix;
use ironman_prg::cpu::{self, Features};
use ironman_prg::Block;
use serde::{Deserialize, Serialize};

/// Which kernel tier an encode runs. Output-identical; only the
/// instruction selection differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimdLevel {
    /// Baseline x86-64 lanes (GPR-pair block XORs, mask-table bit
    /// probes) — the always-available fallback.
    Scalar,
    /// AVX2 + BMI2 lanes (XMM block XORs, `VPGATHERDD`/`SHRX` bit
    /// probes). Falls back to [`SimdLevel::Scalar`] behavior where the
    /// features are absent (every entry point re-checks, so passing
    /// `Wide` on a machine without AVX2 is safe, just pointless).
    Wide,
}

/// Per-session dispatch policy (the config knob: `FerretConfig` carries
/// one so tests force the scalar tier without touching the process-wide
/// environment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimdMode {
    /// Use [`SimdLevel::detect`] (honors `IRONMAN_SIMD=scalar`).
    #[default]
    Auto,
    /// Pin the scalar tier regardless of CPU features.
    ForceScalar,
}

impl SimdMode {
    /// Resolves the policy to a concrete level.
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdMode::Auto => SimdLevel::detect(),
            SimdMode::ForceScalar => SimdLevel::Scalar,
        }
    }
}

impl SimdLevel {
    /// The level this process dispatches to: the widest one
    /// [`cpu::enabled`] allows, so [`SimdLevel::Scalar`] under
    /// `IRONMAN_SIMD=scalar` (the knob CI uses to keep the fallback path
    /// green on AVX2 machines).
    pub fn detect() -> SimdLevel {
        *Self::levels(cpu::enabled())
            .last()
            .expect("Scalar is always available")
    }

    /// Every level that runs on this machine ([`cpu::detected`]), whatever
    /// the environment says — for equivalence tests that must cover the
    /// wide tier exactly where it exists.
    pub fn available() -> &'static [SimdLevel] {
        Self::levels(cpu::detected())
    }

    /// The levels `cpu` runs, narrowest first.
    fn levels(cpu: Features) -> &'static [SimdLevel] {
        if cpu.avx2 && cpu.bmi2 {
            &[SimdLevel::Scalar, SimdLevel::Wide]
        } else {
            &[SimdLevel::Scalar]
        }
    }
}

/// [`encoder::encode_blocks`] at the chosen level.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
#[allow(unsafe_code)]
pub fn encode_blocks(level: SimdLevel, matrix: &LpnMatrix, input: &[Block], acc: &mut [Block]) {
    assert_eq!(input.len(), matrix.cols(), "input length must equal k");
    assert_eq!(acc.len(), matrix.rows(), "accumulator length must equal n");
    let cpu = cpu::detected();
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && cpu.avx2 && cpu.bmi2 {
        // SAFETY: the CPU has AVX2 and BMI2 (checked just above).
        unsafe { wide::encode_blocks(matrix, input, acc) };
        return;
    }
    let _ = (level, cpu);
    encoder::encode_rows(matrix, &mut encoder::SliceLane { input, acc });
}

/// Tiled [`encode_blocks`] over a prebuilt schedule.
///
/// # Panics
///
/// Panics if lengths do not match the schedule dimensions.
pub fn encode_blocks_tiled(
    level: SimdLevel,
    tiles: &TileSchedule,
    input: &[Block],
    acc: &mut [Block],
) {
    encode_blocks_tiled_with(level, tiles, input, acc, |_| {});
}

/// [`encode_blocks_tiled`], handing each finished row block's accumulator
/// rows to `finished` as soon as its last bucket is done
/// ([`TileSchedule::encode_with`]): consecutive slices, ascending, that
/// together are the final `acc` — what lets an extension read its choice
/// bits off bit 0 while the 2 MB block is still cache-warm.
///
/// # Panics
///
/// Panics if lengths do not match the schedule dimensions.
#[allow(unsafe_code)]
pub fn encode_blocks_tiled_with(
    level: SimdLevel,
    tiles: &TileSchedule,
    input: &[Block],
    acc: &mut [Block],
    mut finished: impl FnMut(&[Block]),
) {
    assert_eq!(input.len(), tiles.cols(), "input length must equal k");
    assert_eq!(acc.len(), tiles.rows(), "accumulator length must equal n");
    let cpu = cpu::detected();
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && cpu.avx2 && cpu.bmi2 {
        // SAFETY: the CPU has AVX2 and BMI2 (checked just above), and
        // the two asserts above are the length contract.
        unsafe { wide::encode_blocks_tiled(tiles, input, acc, finished) };
        return;
    }
    let _ = (level, cpu);
    tiles.encode_with(&mut encoder::SliceLane { input, acc }, |lane, rows| {
        finished(&lane.acc[rows])
    });
}

/// Two [`encode_blocks_tiled_with`] passes in one replay of the schedule:
/// `z ^= r·A` and `y ^= s·A`, each decoded entry XORing `r[col]` into
/// `z[row]` and `s[col]` into `y[row]`.
/// `finished` is handed each finished row block's rows of `y`. One thread
/// running both parties of an extension reads the index stream once
/// instead of twice.
///
/// # Panics
///
/// Panics if either input is not `tiles.cols()` long or either
/// accumulator not `tiles.rows()`.
#[allow(unsafe_code)]
pub fn encode_block_pair_tiled_with(
    level: SimdLevel,
    tiles: &TileSchedule,
    r: &[Block],
    s: &[Block],
    z: &mut [Block],
    y: &mut [Block],
    mut finished: impl FnMut(&[Block]),
) {
    assert_eq!(r.len(), tiles.cols(), "first input length must equal k");
    assert_eq!(s.len(), tiles.cols(), "second input length must equal k");
    assert_eq!(
        z.len(),
        tiles.rows(),
        "first accumulator length must equal n"
    );
    assert_eq!(
        y.len(),
        tiles.rows(),
        "second accumulator length must equal n"
    );
    let cpu = cpu::detected();
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && cpu.avx2 && cpu.bmi2 {
        // SAFETY: the CPU has AVX2 and BMI2 (checked just above), and
        // the four asserts above are the length contract.
        unsafe { wide::encode_block_pair_tiled(tiles, r, s, z, y, finished) };
        return;
    }
    let _ = (level, cpu);
    tiles.encode_with(&mut encoder::BlockPairLane { r, s, z, y }, |lane, rows| {
        finished(&lane.y[rows])
    });
}

/// [`encoder::encode_bits_packed`] at the chosen level.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
#[allow(unsafe_code)]
pub fn encode_bits_packed(
    level: SimdLevel,
    matrix: &LpnMatrix,
    input: &PackedBits,
    acc: &mut PackedBits,
) {
    assert_eq!(input.len(), matrix.cols(), "input length must equal k");
    assert_eq!(acc.len(), matrix.rows(), "accumulator length must equal n");
    let cpu = cpu::detected();
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && cpu.avx2 && cpu.bmi2 {
        // SAFETY: the CPU has AVX2 and BMI2 (checked just above).
        unsafe { wide::encode_bits_packed(matrix, input, acc) };
        return;
    }
    let _ = (level, cpu);
    encoder::encode_rows(matrix, &mut encoder::PackedLane::new(input, acc));
}

/// The pre-bit-0 receiver's split encode at the chosen level: `y ^= s·A`
/// tile-major over the matrix's cached schedule
/// ([`encode_blocks_tiled`]), then `x ^= e·A` as its own row-major
/// packed-bit pass ([`encode_bits_packed`]). No session runs it any more
/// (the choice bit rides in bit 0 of `y`, so the second pass does not
/// exist); kept for the benchmark harness's `lpn.receiver_ns_per_cot`
/// probe.
///
/// # Panics
///
/// Panics if lengths do not match the matrix dimensions.
pub fn encode_cot_pair(
    level: SimdLevel,
    matrix: &LpnMatrix,
    s: &[Block],
    e: &PackedBits,
    y: &mut [Block],
    x: &mut PackedBits,
) {
    // The bit half's lengths are checked before the block half writes.
    assert_eq!(e.len(), matrix.cols(), "bit input length must equal k");
    assert_eq!(
        x.len(),
        matrix.rows(),
        "bit accumulator length must equal n"
    );
    encode_blocks_tiled(level, matrix.tile_schedule(), s, y);
    encode_bits_packed(level, matrix, e, x);
}

/// Fused block + packed-bit encode (tiled) at the chosen level. Like
/// [`encode_cot_pair`], kept for the benchmark harness's probe only.
///
/// # Panics
///
/// Panics if lengths do not match the schedule dimensions.
#[allow(unsafe_code)]
pub fn encode_cot_pair_tiled(
    level: SimdLevel,
    tiles: &TileSchedule,
    s: &[Block],
    e: &PackedBits,
    y: &mut [Block],
    x: &mut PackedBits,
) {
    assert_eq!(s.len(), tiles.cols(), "block input length must equal k");
    assert_eq!(e.len(), tiles.cols(), "bit input length must equal k");
    assert_eq!(
        y.len(),
        tiles.rows(),
        "block accumulator length must equal n"
    );
    assert_eq!(x.len(), tiles.rows(), "bit accumulator length must equal n");
    let cpu = cpu::detected();
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Wide && cpu.avx2 && cpu.bmi2 {
        // SAFETY: the CPU has AVX2 and BMI2 (checked just above).
        unsafe { wide::encode_cot_pair_tiled(tiles, s, e, y, x) };
        return;
    }
    let _ = (level, cpu);
    tiles.encode(&mut encoder::CotPairLane::new(s, e, y, x));
}

/// The wide tier: XMM block lanes, the `VPGATHERDD` bit pass and the
/// shift-probe fused pair, every traversal compiled under
/// `avx2,bmi2`. The lanes are `#[inline(always)]` so their bodies inherit
/// the wrapper's target features; the SSE2 intrinsics they use are
/// baseline x86-64 (always present), the gain comes from AVX2 codegen
/// (`VPXOR`, three-operand forms, the gather) and BMI2 (`SHRX`, `PEXT`,
/// `BZHI`) replacing the scalar tier's instruction selection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod wide {
    use crate::bits::PackedBits;
    use crate::encoder::{self, shift_bit, XorLane};
    use crate::tile::TileSchedule;
    use crate::LpnMatrix;
    use ironman_prg::Block;
    use std::arch::x86_64::{
        __m128i, _bzhi_u64, _mm256_andnot_si256, _mm256_castsi256_ps, _mm256_i32gather_epi32,
        _mm256_loadu_si256, _mm256_movemask_ps, _mm256_set1_epi32, _mm256_sllv_epi32,
        _mm256_srli_epi32, _mm_loadu_si128, _mm_prefetch, _mm_setzero_si128, _mm_storeu_si128,
        _mm_xor_si128, _pext_u64, _MM_HINT_T0,
    };

    /// 128-bit XOR (`PXOR`/`VPXOR`). SSE2 is baseline x86-64, so this is
    /// callable from any context on this architecture.
    #[inline(always)]
    fn xor128(a: __m128i, b: __m128i) -> __m128i {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        unsafe { _mm_xor_si128(a, b) }
    }

    /// The 128-bit zero register.
    #[inline(always)]
    fn zero128() -> __m128i {
        // SAFETY: SSE2 is unconditionally available on x86-64.
        unsafe { _mm_setzero_si128() }
    }

    /// 16-byte load of one block into an XMM register.
    #[inline(always)]
    fn load(b: &Block) -> __m128i {
        // SAFETY: `b` is a valid reference to 16 readable bytes;
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128((b as *const Block).cast()) }
    }

    /// 16-byte store of an XMM register into one block.
    #[inline(always)]
    fn store(b: &mut Block, v: __m128i) {
        // SAFETY: `b` is a valid mutable reference to 16 writable
        // bytes; `_mm_storeu_si128` has no alignment requirement.
        unsafe { _mm_storeu_si128((b as *mut Block).cast(), v) }
    }

    /// Requests `b`'s cache line ahead of use (`PREFETCHT0`). Only the
    /// row-major block traversal prefetches (via
    /// [`XorLane::prefetch_cols`]): its gathers stride the whole
    /// `k`-block input region, which outruns L2 at Table-4 scale. The
    /// tiled buckets already confine their gathers to a cache-resident
    /// column tile, and measured in-bucket prefetch there costs ~25%
    /// (pure issue overhead).
    #[inline(always)]
    fn prefetch(b: &Block) {
        // SAFETY: prefetch never faults and has no memory effects; any
        // address is permitted.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((b as *const Block).cast()) }
    }

    /// XMM twin of [`encoder::SliceLane`] over blocks: one 128-bit load
    /// and XOR per gather, two independent accumulators per row so the
    /// XOR dependency chains overlap.
    ///
    /// Private to this module and built only by [`encode_blocks`] (which
    /// drives the checked row methods) and the `unsafe`
    /// [`encode_blocks_tiled`] (the only caller that reaches
    /// [`XorLane::xor_gather_bucket`], under a length contract against
    /// the schedule it replays) — the bucket method's unchecked indexing
    /// depends on that.
    struct XmmBlockLane<'a> {
        input: &'a [Block],
        acc: &'a mut [Block],
    }

    impl XorLane for XmmBlockLane<'_> {
        #[inline(always)]
        fn xor_gather(&mut self, row: usize, col: usize) {
            let v = xor128(load(&self.acc[row]), load(&self.input[col]));
            store(&mut self.acc[row], v);
        }

        #[inline(always)]
        fn prefetch_cols(&self, cols: &[u32]) {
            for &c in cols {
                prefetch(&self.input[c as usize]);
            }
        }

        #[inline(always)]
        fn xor_gather_row(&mut self, row: usize, cols: &[u32]) {
            let mut even = load(&self.acc[row]);
            let mut odd = zero128();
            let mut pairs = cols.chunks_exact(2);
            for pair in &mut pairs {
                even = xor128(even, load(&self.input[pair[0] as usize]));
                odd = xor128(odd, load(&self.input[pair[1] as usize]));
            }
            for &c in pairs.remainder() {
                even = xor128(even, load(&self.input[c as usize]));
            }
            store(&mut self.acc[row], xor128(even, odd));
        }

        #[inline(always)]
        fn xor_gather_bucket(
            &mut self,
            row_base: usize,
            col_base: usize,
            col_bits: u32,
            entries: &[u32],
        ) {
            let mask = (1u32 << col_bits) - 1;
            // SAFETY: buckets reach this lane only through
            // `encode_blocks_tiled` below, whose contract — asserted by
            // its one caller, `simd::encode_blocks_tiled_with` — is
            // `input.len() == tiles.cols()` and `acc.len() == tiles.rows()`
            // for the schedule whose buckets `TileSchedule::encode_with`
            // replays here. A `TileSchedule` can only come from its three
            // constructors (private fields, no deserializer), each of
            // which asserts `row < rows && col < cols` for every gather
            // it places (rows by position in the row-major ones) and
            // stores it as `(row - row_base, col - col_base)` in the
            // bucket that the traversal hands back with the same bases. So every
            // `row_base + (e >> col_bits)` indexes inside `acc` and every
            // `col_base + (e & mask)` inside `input`; `acc` and `input`
            // are distinct live borrows, and unaligned 16-byte accesses
            // are what `_mm_loadu/storeu_si128` are for.
            unsafe {
                let acc = self.acc.as_mut_ptr().add(row_base).cast::<__m128i>();
                let input = self.input.as_ptr().add(col_base).cast::<__m128i>();
                let gather = |e: u32| _mm_loadu_si128(input.add((e & mask) as usize));
                let accumulate = |e: u32, v: __m128i| {
                    let slot = acc.add((e >> col_bits) as usize);
                    _mm_storeu_si128(slot, _mm_xor_si128(_mm_loadu_si128(slot), v));
                };
                // Four input loads in flight before the four accumulator
                // read-xor-writes: the writes stay in entry order (two
                // entries of a quad may share a row), but no input load
                // waits behind an earlier entry's store any more.
                let mut quads = entries.chunks_exact(4);
                for q in &mut quads {
                    let v = [gather(q[0]), gather(q[1]), gather(q[2]), gather(q[3])];
                    accumulate(q[0], v[0]);
                    accumulate(q[1], v[1]);
                    accumulate(q[2], v[2]);
                    accumulate(q[3], v[3]);
                }
                for &e in quads.remainder() {
                    accumulate(e, gather(e));
                }
            }
        }
    }

    /// XMM twin of [`encoder::BlockPairLane`] (tile-major only): per
    /// entry one decoded row and column, two input loads and two
    /// accumulator read-xor-writes. Built only by the `unsafe`
    /// [`encode_block_pair_tiled`], under the same kind of length
    /// contract as [`XmmBlockLane`]'s bucket method.
    struct XmmBlockPairLane<'a> {
        r: &'a [Block],
        s: &'a [Block],
        z: &'a mut [Block],
        y: &'a mut [Block],
    }

    impl XorLane for XmmBlockPairLane<'_> {
        #[inline(always)]
        fn xor_gather(&mut self, row: usize, col: usize) {
            let v = xor128(load(&self.z[row]), load(&self.r[col]));
            store(&mut self.z[row], v);
            let v = xor128(load(&self.y[row]), load(&self.s[col]));
            store(&mut self.y[row], v);
        }

        #[inline(always)]
        fn xor_gather_bucket(
            &mut self,
            row_base: usize,
            col_base: usize,
            col_bits: u32,
            entries: &[u32],
        ) {
            let mask = (1u32 << col_bits) - 1;
            // SAFETY: as in `XmmBlockLane::xor_gather_bucket`, for two
            // lanes at once. Buckets reach this lane only through
            // `encode_block_pair_tiled` below, whose contract — asserted
            // by its one caller, `simd::encode_block_pair_tiled_with` —
            // is `r.len() == s.len() == tiles.cols()` and
            // `z.len() == y.len() == tiles.rows()` for the schedule whose
            // buckets `TileSchedule::encode_with` replays here. Every
            // entry decodes (the schedule's invariant, asserted by each
            // of its constructors) to `row_base + (e >> col_bits) < rows`
            // and `col_base + (e & mask) < cols`, so every access below
            // is inside its slice; the four slices are distinct live
            // borrows, and unaligned 16-byte accesses are what
            // `_mm_loadu/storeu_si128` are for.
            unsafe {
                let z = self.z.as_mut_ptr().add(row_base).cast::<__m128i>();
                let y = self.y.as_mut_ptr().add(row_base).cast::<__m128i>();
                let r = self.r.as_ptr().add(col_base).cast::<__m128i>();
                let s = self.s.as_ptr().add(col_base).cast::<__m128i>();
                let gather =
                    |from: *const __m128i, e: u32| _mm_loadu_si128(from.add((e & mask) as usize));
                let accumulate = |acc: *mut __m128i, e: u32, v: __m128i| {
                    let slot = acc.add((e >> col_bits) as usize);
                    _mm_storeu_si128(slot, _mm_xor_si128(_mm_loadu_si128(slot), v));
                };
                // Eight input loads in flight before the eight
                // accumulator read-xor-writes, which stay in entry order
                // per accumulator (two entries of a quad may share a row).
                let mut quads = entries.chunks_exact(4);
                for q in &mut quads {
                    let vr = [
                        gather(r, q[0]),
                        gather(r, q[1]),
                        gather(r, q[2]),
                        gather(r, q[3]),
                    ];
                    let vs = [
                        gather(s, q[0]),
                        gather(s, q[1]),
                        gather(s, q[2]),
                        gather(s, q[3]),
                    ];
                    for i in 0..4 {
                        accumulate(z, q[i], vr[i]);
                        accumulate(y, q[i], vs[i]);
                    }
                }
                for &e in quads.remainder() {
                    accumulate(z, e, gather(r, e));
                    accumulate(y, e, gather(s, e));
                }
            }
        }
    }

    /// XMM twin of [`encoder::CotPairLane`] (tile-major only): XMM block
    /// half, shift-probe bit half.
    struct XmmCotPairLane<'a> {
        s: &'a [Block],
        e: &'a PackedBits,
        y: &'a mut [Block],
        x: &'a mut PackedBits,
    }

    impl XorLane for XmmCotPairLane<'_> {
        #[inline(always)]
        fn xor_gather(&mut self, row: usize, col: usize) {
            let v = xor128(load(&self.y[row]), load(&self.s[col]));
            store(&mut self.y[row], v);
            self.x.xor_bit(row, shift_bit(self.e.words(), col));
        }

        #[inline(always)]
        fn xor_gather_bucket(
            &mut self,
            row_base: usize,
            col_base: usize,
            col_bits: u32,
            entries: &[u32],
        ) {
            let mask = (1u32 << col_bits) - 1;
            let words = self.e.words();
            let mut pending = encoder::PendingWord::at(row_base);
            for &en in entries {
                let row = row_base + (en >> col_bits) as usize;
                let col = col_base + (en & mask) as usize;
                let v = xor128(load(&self.y[row]), load(&self.s[col]));
                store(&mut self.y[row], v);
                pending.xor_bit(self.x, row, shift_bit(words, col));
            }
            pending.flush(self.x);
        }
    }

    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_blocks(matrix: &LpnMatrix, input: &[Block], acc: &mut [Block]) {
        encoder::encode_rows(matrix, &mut XmmBlockLane { input, acc });
    }

    /// # Safety
    ///
    /// Besides the target features: `input.len() == tiles.cols()` and
    /// `acc.len() == tiles.rows()` — the lane's bucket loop indexes
    /// unchecked on the strength of it.
    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) unsafe fn encode_blocks_tiled(
        tiles: &TileSchedule,
        input: &[Block],
        acc: &mut [Block],
        mut finished: impl FnMut(&[Block]),
    ) {
        tiles.encode_with(&mut XmmBlockLane { input, acc }, |lane, rows| {
            finished(&lane.acc[rows])
        });
    }

    /// # Safety
    ///
    /// Besides the target features: `r.len() == s.len() == tiles.cols()`
    /// and `z.len() == y.len() == tiles.rows()` — the lane's bucket loop
    /// indexes unchecked on the strength of it.
    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) unsafe fn encode_block_pair_tiled(
        tiles: &TileSchedule,
        r: &[Block],
        s: &[Block],
        z: &mut [Block],
        y: &mut [Block],
        mut finished: impl FnMut(&[Block]),
    ) {
        tiles.encode_with(&mut XmmBlockPairLane { r, s, z, y }, |lane, rows| {
            finished(&lane.y[rows])
        });
    }

    /// Where the rows of a `d`-gathers-per-row index stream end, one
    /// `(mask, popcount)` per 64-gather stream word over one period
    /// (`lcm(d, 64)` gathers): bit `b` of word `w` is set iff gather
    /// `64·w + b` is the last of its row.
    fn row_end_masks(d: usize) -> Vec<(u64, u32)> {
        let period = d >> d.trailing_zeros().min(6); // d / gcd(d, 64)
        (0..period)
            .map(|w| {
                let mask = (0..64)
                    .filter(|b| (64 * w + b) % d == d - 1)
                    .fold(0u64, |m, b| m | 1 << b);
                (mask, mask.count_ones())
            })
            .collect()
    }

    /// The row-major packed-bit pass as a gather kernel. The flat index
    /// array is consumed 64 gathers at a time into a 64-bit *stream
    /// word* whose bit `i` is `e[cols[i]]`: eight indices per
    /// `VPGATHERDD` of the 32-bit words holding them, each lane shifted
    /// left by `31 - (c & 31)` so the probed bit is the sign `VMOVMSKPS`
    /// collects (a scalar `SHRX` tail for the last `< 8` indices). Row
    /// `j`'s parity is the XOR of stream bits `[j·d, (j+1)·d)`, i.e. the
    /// difference of the stream's prefix parity at consecutive row ends.
    /// So per stream word: prefix-XOR (six shift-XORs plus the carry of
    /// everything before), `PEXT` the prefix at the row-end positions
    /// ([`row_end_masks`]), XOR each extracted bit with its predecessor,
    /// and append the resulting row bits to the pending accumulator word
    /// — one `xor_word` per 64 rows. Correct for any `d ≥ 1` (rows may
    /// span stream words, or several may end inside one); `d = 10` is
    /// what it is tuned for.
    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_bits_packed(matrix: &LpnMatrix, input: &PackedBits, acc: &mut PackedBits) {
        let d = matrix.weight();
        if d == 0 {
            return;
        }
        let e = input.words();
        // The gather bound, half one: the packed input covers every
        // column and its u32 word indices fit a non-negative i32 lane.
        assert!(
            e.len() <= (i32::MAX / 2) as usize && matrix.cols() <= 64 * e.len(),
            "packed input narrower than the matrix"
        );
        // `e` as little-endian u32s (x86-64 is): bit `c` of the vector
        // is bit `c & 31` of u32 number `c >> 5`.
        let e32 = e.as_ptr().cast::<i32>();
        let low5 = _mm256_set1_epi32(31);
        let ends = row_end_masks(d);
        // Parity of every stream bit before this word, as 0 / !0.
        let mut carry = 0u64;
        // Prefix parity at the previous row end (bit 0).
        let mut prev_end = 0u64;
        // The accumulator word being assembled: `have` row bits so far.
        let (mut pending, mut have, mut idx) = (0u64, 0u32, 0usize);
        let stream_words = matrix.colidx().chunks(64).zip(ends.iter().cycle());
        for (cols, &(mut mask, mut count)) in stream_words {
            let (mut stream, mut at) = (0u64, 0u32);
            let mut octets = cols.chunks_exact(8);
            for octet in &mut octets {
                // SAFETY: `octet` is eight readable `u32`s (32 bytes,
                // `loadu` needs no alignment). Half two of the gather
                // bound: `LpnMatrix` keeps every stored index
                // `c < cols` (`generate` reduces mod `cols`,
                // `from_colidx` asserts it; private fields, no
                // deserializer), so with the assert above
                // `c >> 5 < 2 · e.len()` is a non-negative `i32` lane
                // addressing a whole 4-byte word inside `e`.
                let words = unsafe {
                    let c = _mm256_loadu_si256(octet.as_ptr().cast());
                    let w = _mm256_i32gather_epi32::<4>(e32, _mm256_srli_epi32::<5>(c));
                    // (!c) & 31 == 31 - (c & 31).
                    _mm256_sllv_epi32(w, _mm256_andnot_si256(c, low5))
                };
                let bits = _mm256_movemask_ps(_mm256_castsi256_ps(words)) as u32;
                stream |= u64::from(bits) << at;
                at += 8;
            }
            for &c in octets.remainder() {
                stream |= u64::from(shift_bit(e, c as usize)) << at;
                at += 1;
            }

            let mut prefix = stream ^ (stream << 1);
            prefix ^= prefix << 2;
            prefix ^= prefix << 4;
            prefix ^= prefix << 8;
            prefix ^= prefix << 16;
            prefix ^= prefix << 32;
            prefix ^= carry;
            carry = 0u64.wrapping_sub(prefix >> 63);

            if cols.len() < 64 {
                mask = _bzhi_u64(mask, cols.len() as u32);
                count = mask.count_ones();
            }
            if count == 0 {
                continue;
            }
            let at_ends = _pext_u64(prefix, mask);
            let rows = _bzhi_u64(at_ends ^ (at_ends << 1 | prev_end), count);
            prev_end = at_ends >> (count - 1) & 1;

            pending |= rows << have;
            have += count;
            if have >= 64 {
                acc.xor_word(idx, pending);
                idx += 1;
                have -= 64;
                // The bits of `rows` that did not fit: a shift by 1..=64
                // (`rows` has only `count` bits, so nothing is left when
                // it ended the word exactly).
                pending = rows.checked_shr(count - have).unwrap_or(0);
            }
        }
        if have > 0 {
            acc.xor_word(idx, pending);
        }
    }

    #[target_feature(enable = "avx2", enable = "bmi2")]
    pub(super) fn encode_cot_pair_tiled(
        tiles: &TileSchedule,
        s: &[Block],
        e: &PackedBits,
        y: &mut [Block],
        x: &mut PackedBits,
    ) {
        tiles.encode(&mut XmmCotPairLane { s, e, y, x });
    }
}

/// Whether [`TileSchedule`] construction places its row blocks on the
/// AVX-512 kernel ([`place_row_block`]): the wide tier is on and
/// [`cpu::enabled`] has AVX-512F and `popcnt` (so `IRONMAN_SIMD=scalar`
/// turns this off too). The schedule is the same either way.
pub(crate) fn wide_placement() -> bool {
    let cpu = cpu::enabled();
    SimdLevel::detect() == SimdLevel::Wide && cpu.avx512f && cpu.popcnt
}

/// Places one row block of a [`TileSchedule`] sixteen gathers per vector:
/// `gathers` is the block's row-major column indices (`weight` per row),
/// `block` the block's range of the entry array, and `counts` (one slot
/// per column tile) receives each bucket's length. The same entries, in
/// the same order, as the row-major scalar placement in [`crate::tile`]:
/// each tile's gathers of a vector are compressed in lane order and
/// appended at that bucket's cursor, so every bucket keeps emission
/// order.
///
/// Returns `false`, having written nothing, where the kernel does not
/// apply: no AVX-512F, a tile width that is not a power of two, more than
/// sixteen tiles, or a weight of zero or above 2¹⁶.
///
/// # Panics
///
/// Panics if `block.len() != gathers.len()`, or with "entry out of
/// range" if any gather is `>= cols` (checked for every gather, before
/// any entry is written).
#[allow(unsafe_code)]
pub(crate) fn place_row_block(
    gathers: &[u32],
    weight: usize,
    cols: usize,
    col_tile: usize,
    col_bits: u32,
    block: &mut [u32],
    counts: &mut [usize],
) -> bool {
    assert_eq!(block.len(), gathers.len(), "one entry per gather");
    let fits = col_tile.is_power_of_two() && counts.len() <= 16 && (1..=1 << 16).contains(&weight);
    let cpu = cpu::detected();
    #[cfg(target_arch = "x86_64")]
    if fits && cpu.avx512f && cpu.popcnt {
        // SAFETY: the CPU has AVX-512F and `popcnt` (checked just above).
        unsafe {
            place512::place(
                gathers,
                weight,
                cols,
                col_tile.trailing_zeros(),
                col_bits,
                block,
                counts,
            )
        };
        return true;
    }
    let _ = (fits, cpu, gathers, weight, cols, col_bits, counts);
    false
}

/// The AVX-512 row-block placement behind [`place_row_block`]. A count
/// pass tallies each tile's gathers per vector (one compare and one
/// `popcnt` per tile) and takes the block's maximum; a placement pass
/// packs each vector's entries, then per tile compresses the matching
/// lanes (`VPCOMPRESSD`) and stores them at the bucket's cursor under a
/// mask: a handful of instructions per tile per sixteen gathers, where
/// the scalar placement pays a counter load, store and bounds check per
/// gather (≈ 3.4× the time per row block at the paper's shape).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod place512 {
    use std::arch::x86_64::*;

    /// Gathers per vector.
    const LANES: usize = 16;

    /// Chunk `c` of the block: a whole vector, or the masked last one.
    /// Lanes outside the live mask read as zero and are never accessed.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn chunk(body: &[[u32; LANES]], tail: &[u32], c: usize) -> (__m512i, __mmask16) {
        if let Some(whole) = body.get(c) {
            // SAFETY: `whole` is 64 readable bytes; the load is unaligned.
            (unsafe { _mm512_loadu_si512(whole.as_ptr().cast()) }, !0)
        } else {
            let live = ((1u32 << tail.len()) - 1) as __mmask16;
            // SAFETY: only the `tail.len() < 16` live lanes are read, and
            // they are `tail`'s elements; masked-off lanes are not
            // accessed.
            (
                unsafe { _mm512_maskz_loadu_epi32(live, tail.as_ptr().cast()) },
                live,
            )
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX-512F and `popcnt`.
    ///
    /// # Panics
    ///
    /// As [`super::place_row_block`]; also unless `counts.len() <= 16`,
    /// `1 <= weight <= 2¹⁶` and `shift, col_bits < 32`.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn place(
        gathers: &[u32],
        weight: usize,
        cols: usize,
        shift: u32,
        col_bits: u32,
        block: &mut [u32],
        counts: &mut [usize],
    ) {
        assert_eq!(block.len(), gathers.len());
        assert!(counts.len() <= LANES && (1..=1 << 16).contains(&weight));
        assert!(shift < 32 && col_bits < 32);
        let (body, tail) = gathers.as_chunks::<LANES>();
        let chunks = body.len() + usize::from(!tail.is_empty());
        // A gather's tile is its column over the tile width, its local
        // column the remainder.
        let local_col = _mm512_set1_epi32(((1u64 << shift) - 1) as i32);
        let shift = _mm_cvtsi32_si128(shift as i32);
        let tiles: [__m512i; LANES] = std::array::from_fn(|k| _mm512_set1_epi32(k as i32));
        let tiles = &tiles[..counts.len()];

        counts.fill(0);
        let mut max = _mm512_setzero_si512();
        for c in 0..chunks {
            let (v, live) = chunk(body, tail, c);
            max = _mm512_max_epu32(max, v);
            let tile = _mm512_srl_epi32(v, shift);
            for (count, &k) in counts.iter_mut().zip(tiles) {
                *count += _mm512_mask_cmpeq_epi32_mask(live, tile, k).count_ones() as usize;
            }
        }
        assert!(
            (_mm512_reduce_max_epu32(max) as usize) < cols,
            "entry out of range"
        );

        let mut cursors = [0usize; LANES];
        let mut start = 0;
        for (cursor, &count) in cursors.iter_mut().zip(counts.iter()) {
            *cursor = start;
            start += count;
        }
        let col_bits = _mm_cvtsi32_si128(col_bits as i32);
        // Lane `l` of chunk `c` is gather `16c + l`: row `(16c + l) / weight`
        // of the block, kept as a (row, remainder) pair per lane and
        // advanced by 16 gathers per chunk with one carry.
        let first: [[i32; LANES]; 2] = [
            std::array::from_fn(|l| (l / weight) as i32),
            std::array::from_fn(|l| (l % weight) as i32),
        ];
        // SAFETY: each array is 64 readable bytes; the loads are unaligned.
        let (mut row, mut rem) = unsafe {
            (
                _mm512_loadu_si512(first[0].as_ptr().cast()),
                _mm512_loadu_si512(first[1].as_ptr().cast()),
            )
        };
        let step_row = _mm512_set1_epi32((LANES / weight) as i32);
        let step_rem = _mm512_set1_epi32((LANES % weight) as i32);
        let width = _mm512_set1_epi32(weight as i32);
        let one = _mm512_set1_epi32(1);
        for c in 0..chunks {
            let (v, live) = chunk(body, tail, c);
            let tile = _mm512_srl_epi32(v, shift);
            let entry = _mm512_or_si512(
                _mm512_sll_epi32(row, col_bits),
                _mm512_and_si512(v, local_col),
            );
            for (cursor, &k) in cursors.iter_mut().zip(tiles) {
                let hit = _mm512_mask_cmpeq_epi32_mask(live, tile, k);
                let len = hit.count_ones() as usize;
                assert!(*cursor + len <= block.len());
                let packed = _mm512_maskz_compress_epi32(hit, entry);
                // SAFETY: the store writes only the first `len` lanes
                // (masked-off lanes are not accessed), and
                // `cursor + len <= block.len()` was asserted just above.
                unsafe {
                    _mm512_mask_storeu_epi32(
                        block.as_mut_ptr().add(*cursor).cast(),
                        ((1u32 << len) - 1) as __mmask16,
                        packed,
                    )
                };
                *cursor += len;
            }
            rem = _mm512_add_epi32(rem, step_rem);
            row = _mm512_add_epi32(row, step_row);
            let carry = _mm512_cmpge_epu32_mask(rem, width);
            rem = _mm512_mask_sub_epi32(rem, carry, rem, width);
            row = _mm512_mask_add_epi32(row, carry, row, one);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
    }

    #[test]
    fn available_contains_scalar() {
        assert!(SimdLevel::available().contains(&SimdLevel::Scalar));
    }

    #[test]
    fn mode_resolution() {
        assert_eq!(SimdMode::ForceScalar.resolve(), SimdLevel::Scalar);
        assert_eq!(SimdMode::Auto.resolve(), SimdLevel::detect());
    }

    #[test]
    #[ignore = "checks the forced-scalar tiers; run under IRONMAN_SIMD=scalar"]
    fn forced_scalar_pins_every_tier() {
        // Every tier gives the same output, so a kernel that ignored the
        // override would fail nothing else.
        use ironman_prg::{AesTier, LevelTier};
        assert_eq!(AesTier::detect(), AesTier::Portable);
        assert_eq!(LevelTier::detect(), LevelTier::Portable);
        assert_eq!(SimdLevel::detect(), SimdLevel::Scalar);
        assert!(!wide_placement());
    }

    #[test]
    #[ignore = "micro-bench; run with --release -- --ignored --nocapture"]
    fn level_head_to_head_at_table4_shape() {
        // The size an extension really runs: at n = 2^20 the index
        // stream is 42 MB and the accumulator 16 MB, so every pass
        // streams them from memory — the n = 2^18 shape this table was
        // first drawn at kept both L2/L3-warm across reps and ranked the
        // kernels differently.
        use std::time::Instant;
        const REPS: usize = 7;
        let (n, k) = (1 << 20, 168_000);
        let m = LpnMatrix::generate(n, k, 10, Block::from(7u128));
        let tiles = m.tile_schedule();
        let s: Vec<Block> = (0..k as u128).map(|i| Block::from(i * 11 + 1)).collect();
        let e = PackedBits::from_bools(&(0..k).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let mut y = vec![Block::ZERO; n];
        let r: Vec<Block> = (0..k as u128).map(|i| Block::from(i * 13 + 5)).collect();
        let mut z = vec![Block::ZERO; n];
        let mut x = PackedBits::zeros(n);
        let time = |label: &str, f: &mut dyn FnMut()| {
            let mut secs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            let (best, median) = (secs[0], secs[REPS / 2]);
            println!(
                "{label}: best {:.2} ms, median {:.2} ms ({:.1} ns/row)",
                best * 1e3,
                median * 1e3,
                median * 1e9 / n as f64
            );
        };
        for &level in SimdLevel::available() {
            time(&format!("{level:?} blocks row-major"), &mut || {
                encode_blocks(level, &m, &s, &mut y)
            });
            time(&format!("{level:?} blocks tiled"), &mut || {
                encode_blocks_tiled(level, tiles, &s, &mut y)
            });
            time(
                &format!("{level:?} block pair tiled (two vectors)"),
                &mut || encode_block_pair_tiled_with(level, tiles, &r, &s, &mut z, &mut y, |_| {}),
            );
            time(&format!("{level:?} packed row-major"), &mut || {
                encode_bits_packed(level, &m, &e, &mut x)
            });
            time(&format!("{level:?} pair split"), &mut || {
                encode_cot_pair(level, &m, &s, &e, &mut y, &mut x)
            });
            time(&format!("{level:?} pair fused tiled"), &mut || {
                encode_cot_pair_tiled(level, tiles, &s, &e, &mut y, &mut x)
            });
        }
        // Motivation (d)'s roofline: the same 40 B of index + 32 B of
        // accumulator per row, gathers from an input small enough to
        // sit in L1 — what a block pass costs when only streaming is
        // left.
        let small = LpnMatrix::generate(n, 2_048, 10, Block::from(7u128));
        for &level in SimdLevel::available() {
            time(
                &format!("{level:?} blocks row-major, L1 input"),
                &mut || encode_blocks(level, &small, &s[..2_048], &mut y),
            );
        }
    }

    #[test]
    fn wide_entry_points_match_scalar_on_this_machine() {
        // Cheap smoke (the exhaustive sweep lives in the kernel_props
        // proptests): every wide entry point equals its scalar twin on
        // whatever tier this machine has.
        let m = LpnMatrix::generate(300, 200, 7, Block::from(123u128));
        let tiles = m.tile_schedule();
        let s: Vec<Block> = (0..200u128).map(|i| Block::from(i * 31 + 5)).collect();
        let e = PackedBits::from_bools(&(0..200).map(|i| i % 3 == 1).collect::<Vec<_>>());
        let dirty: Vec<Block> = (0..300u128).map(|i| Block::from(i + 9)).collect();
        let dirty_bits = PackedBits::from_bools(&(0..300).map(|i| i % 5 == 0).collect::<Vec<_>>());

        for &level in SimdLevel::available() {
            let mut y_ref = dirty.clone();
            encoder::encode_blocks(&m, &s, &mut y_ref);
            let mut y = dirty.clone();
            encode_blocks(level, &m, &s, &mut y);
            assert_eq!(y, y_ref, "{level:?} blocks");
            let mut y = dirty.clone();
            encode_blocks_tiled(level, tiles, &s, &mut y);
            assert_eq!(y, y_ref, "{level:?} blocks tiled");

            let mut x_ref = dirty_bits.clone();
            encoder::encode_bits_packed(&m, &e, &mut x_ref);
            let mut x = dirty_bits.clone();
            encode_bits_packed(level, &m, &e, &mut x);
            assert_eq!(x, x_ref, "{level:?} packed bits");

            let mut y = dirty.clone();
            let mut x = dirty_bits.clone();
            encode_cot_pair(level, &m, &s, &e, &mut y, &mut x);
            assert_eq!(
                (y, x.clone()),
                (y_ref.clone(), x_ref.clone()),
                "{level:?} pair"
            );
            let mut y = dirty.clone();
            let mut x = dirty_bits.clone();
            encode_cot_pair_tiled(level, tiles, &s, &e, &mut y, &mut x);
            assert_eq!((y, x), (y_ref, x_ref), "{level:?} pair tiled");
        }
    }

    /// Deterministic pseudorandom bits (splitmix-style), for inputs
    /// that exercise every probe position.
    fn noise_bits(seed: u64, len: usize) -> Vec<bool> {
        (0..len as u64)
            .map(|i| (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 & 1 == 1)
            .collect()
    }

    #[test]
    fn gather_bit_pass_matches_naive_across_weights_and_word_boundaries() {
        // Every row weight 1..=12 (rows that end inside, at, and across
        // 64-gather stream words), row counts around the 8-index gather
        // and the 64-row accumulator word, and input lengths around the
        // 32-/64-bit word boundaries of `e` (so the last gathered `u32`
        // is partially filled) — all-zero, all-one and random `e`, onto
        // a dirty `x`.
        for weight in 1..=12usize {
            for rows in [1usize, 7, 8, 9, 63, 64, 65, 200] {
                for k in [weight, 31, 32, 33, 63, 64, 65, 1000] {
                    if k < weight {
                        continue;
                    }
                    let seed = (weight * 1_000_003 + rows * 1_009 + k) as u64;
                    let m = LpnMatrix::generate(rows, k, weight, Block::from(seed as u128));
                    let dirty = PackedBits::from_bools(&noise_bits(seed ^ 1, rows));
                    for e in [vec![false; k], vec![true; k], noise_bits(seed, k)] {
                        let e = PackedBits::from_bools(&e);
                        let mut x_ref = dirty.clone();
                        encoder::encode_bits_packed(&m, &e, &mut x_ref);
                        for &level in SimdLevel::available() {
                            let mut x = dirty.clone();
                            encode_bits_packed(level, &m, &e, &mut x);
                            assert_eq!(x, x_ref, "{level:?} d={weight} n={rows} k={k}");
                        }
                    }
                }
            }
        }
    }

    /// Tiled geometries `(rows, cols, weight, row_block, col_tile)` with a
    /// last partial row block and a last partial column tile, small
    /// enough that bucket lengths sweep every remainder of the block
    /// lanes' 4-entry unroll: each matrix, its schedule, and every
    /// bucket length seen (checked to cover `0..=9`).
    fn unroll_geometries() -> Vec<(LpnMatrix, TileSchedule)> {
        use crate::tile::TileConfig;
        let mut bucket_lens = std::collections::BTreeSet::new();
        let cases: Vec<_> = [
            (10usize, 23usize, 3usize, 4usize, 5usize),
            (37, 19, 5, 7, 3),
            (9, 50, 9, 2, 16),
            (130, 70, 4, 64, 32),
            (5, 3, 1, 2, 2),
        ]
        .into_iter()
        .map(|(rows, cols, weight, row_block, col_tile)| {
            let m = LpnMatrix::generate(rows, cols, weight, Block::from(rows as u128));
            let tiles = TileSchedule::build(
                &m,
                TileConfig {
                    row_block,
                    col_tile,
                },
            );
            bucket_lens.extend(tiles.bucket_lens());
            (m, tiles)
        })
        .collect();
        for len in 0..=9 {
            assert!(bucket_lens.contains(&len), "no bucket of {len} entries");
        }
        cases
    }

    /// `len` distinct blocks from `seed`.
    fn blocks(seed: u128, len: usize) -> Vec<Block> {
        (0..len as u128)
            .map(|i| Block::from(i * 77 + seed))
            .collect()
    }

    #[test]
    fn tiled_block_lane_matches_naive_at_every_unroll_remainder() {
        for (m, tiles) in unroll_geometries() {
            let s = blocks(3, m.cols());
            let dirty = blocks(1, m.rows());
            let mut y_ref = dirty.clone();
            encoder::encode_blocks(&m, &s, &mut y_ref);
            for &level in SimdLevel::available() {
                let mut y = dirty.clone();
                encode_blocks_tiled(level, &tiles, &s, &mut y);
                assert_eq!(y, y_ref, "{level:?} {}x{}", m.rows(), m.cols());
            }
        }
    }

    #[test]
    fn tiled_block_pair_is_two_single_passes_at_every_unroll_remainder() {
        // One replay for two vectors equals a one-vector pass per vector,
        // onto dirty accumulators, on every tier; `finished` hands over
        // the second accumulator's final rows, ascending, once each.
        for (m, tiles) in unroll_geometries() {
            let (r, s) = (blocks(3, m.cols()), blocks(5, m.cols()));
            let (dirty_z, dirty_y) = (blocks(1, m.rows()), blocks(2, m.rows()));
            for &level in SimdLevel::available() {
                let what = format!("{level:?} {}x{}", m.rows(), m.cols());
                let (mut z_ref, mut y_ref) = (dirty_z.clone(), dirty_y.clone());
                encode_blocks_tiled(level, &tiles, &r, &mut z_ref);
                encode_blocks_tiled(level, &tiles, &s, &mut y_ref);
                let (mut z, mut y) = (dirty_z.clone(), dirty_y.clone());
                let mut seen = Vec::new();
                encode_block_pair_tiled_with(level, &tiles, &r, &s, &mut z, &mut y, |rows| {
                    seen.extend_from_slice(rows)
                });
                assert_eq!(z, z_ref, "{what}: first accumulator");
                assert_eq!(y, y_ref, "{what}: second accumulator");
                assert_eq!(seen, y_ref, "{what}: finished rows");
            }
        }
    }

    #[test]
    #[should_panic(expected = "second input length")]
    fn tiled_block_pair_checks_both_inputs() {
        let (m, tiles) = unroll_geometries().swap_remove(0);
        let r = blocks(3, m.cols());
        let (mut z, mut y) = (blocks(1, m.rows()), blocks(2, m.rows()));
        encode_block_pair_tiled_with(
            SimdLevel::detect(),
            &tiles,
            &r,
            &r[1..],
            &mut z,
            &mut y,
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "second accumulator length")]
    fn tiled_block_pair_checks_both_accumulators() {
        let (m, tiles) = unroll_geometries().swap_remove(0);
        let r = blocks(3, m.cols());
        let (mut z, mut y) = (blocks(1, m.rows()), blocks(2, m.rows() - 1));
        encode_block_pair_tiled_with(SimdLevel::detect(), &tiles, &r, &r, &mut z, &mut y, |_| {});
    }
}
