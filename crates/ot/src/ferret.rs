//! The Ferret-style PCG OT-extension main loop (paper §2.3, Fig. 3a).
//!
//! One extension turns `k + t·log2(ℓ)` base COT correlations into `n` fresh
//! correlations:
//!
//! 1. **SPCOT phase** — `t` GGM trees are built and punctured interactively
//!    ([`crate::spcot`]); tree `i` contributes a one-hot stripe of the
//!    length-`n` noise vector `u` and the corresponding `w`/`v` blocks.
//! 2. **LPN phase** — both parties locally encode their pre-generated
//!    vectors through the fixed sparse matrix `A` and XOR onto the SPCOT
//!    outputs: sender `z = r·A ⊕ w`; receiver `x = e·A ⊕ u`,
//!    `y = s·A ⊕ v`. The result is `n` COTs with `z = y ⊕ x·Δ`.
//! 3. **Bootstrap** — the *last* `k + t·log2(ℓ)` outputs are retained as
//!    the next iteration's base correlations; the front `n − k − t·log2(ℓ)`
//!    are handed to the application in place (the output vector is the
//!    encode's accumulator, truncated — only the small base is copied
//!    out). Every output row is an equally valid COT, so which end
//!    bootstraps is a free choice both parties must merely agree on;
//!    sessions before PR 14 retained the front, so for the same seeds
//!    the application stream is a different (equally correlated)
//!    selection of rows than those versions produced.
//!
//! Both the plain and the locality-sorted LPN matrices are supported; they
//! produce bit-identical outputs (§5.3's correctness argument is checked in
//! the tests).

use crate::channel::{ChannelError, ChannelStats, Transport};
use crate::cot::{CotReceiver, CotSender};
use crate::dealer::Dealer;
use crate::params::FerretParams;
use crate::spcot::{spcot_recv, spcot_send, SpcotConfig};
use crate::spcot_batch::{spcot_batch_recv_into, spcot_batch_send_into};
use ironman_ggm::Arity;
use ironman_lpn::sorting::SortConfig;
use ironman_lpn::{
    simd, LpnMatrix, PackedBits, SimdLevel, SimdMode, SortedLpnMatrix, DEFAULT_ROW_WEIGHT,
};
use ironman_prg::{Block, PrgCounter, PrgKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which LPN kernel family the extension's online encode runs — the
/// traversals of `ironman_lpn` over the same matrix, bit-identical in
/// output and interchangeable per party (the choice never touches the
/// wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LpnKernel {
    /// Row-major gathers, separate passes per output vector — the CPU
    /// baseline shape of Fig. 1(c).
    Naive,
    /// Cache-blocked (tile-major) gathers from the matrix's precomputed
    /// [`ironman_lpn::TileSchedule`]; the receiver's two halves run as
    /// one fused pass ([`ironman_lpn::encoder::CotPairLane`]). The software twin of
    /// the paper's memory-side cache (§5.3).
    Tiled,
    /// The measured winner at Table-4 scale, one shape on both SIMD
    /// tiers ([`ironman_lpn::simd::encode_cot_pair`]): the block half
    /// runs tile-major (its `k · 16 B` input spills L2, so blocking
    /// pays) and the packed-bit half runs row-major as its own pass (its
    /// `k`-bit input is L1-resident, where tiling's bucket bookkeeping
    /// only adds overhead — and where the wide tier probes it eight
    /// indices at a time with `VPGATHERDD`). Two passes over the index
    /// stream beat every fused pair at full scale (table on
    /// [`FerretConfig::recommended`]): a fused lane drags the
    /// cache-resident bit gathers through the block half's memory
    /// stalls, and the receiver then costs the sender's block pass plus
    /// a bit pass that is mostly its index stream (4–8 ns/row wide).
    Split,
}

/// Full configuration of a Ferret session (must be identical on both
/// parties: it pins the LPN matrix, tree shape and PRG).
#[derive(Clone, Debug)]
pub struct FerretConfig {
    /// Table 4 parameter set.
    pub params: FerretParams,
    /// GGM tree arity.
    pub arity: Arity,
    /// PRG kind for tree expansion.
    pub prg: PrgKind,
    /// Session key (drives all PRG keys).
    pub session_key: Block,
    /// Seed of the fixed LPN matrix.
    pub lpn_seed: Block,
    /// Row weight `d` of the LPN matrix (the paper uses 10).
    pub row_weight: usize,
    /// Optional compile-time index sorting (§5.3). `None` = plain CSR.
    pub sort: Option<SortConfig>,
    /// LPN kernel family for the online encode (output-identical; see
    /// [`LpnKernel`]).
    pub kernel: LpnKernel,
    /// Level-batched SPCOT (one message per GGM level across all `t`
    /// trees, as production Ferret implementations do) instead of one
    /// conversation per tree. Outputs are identical either way.
    pub batched_spcot: bool,
    /// SIMD dispatch policy for the plain-matrix LPN kernels
    /// (output-identical; local to each party, never on the wire). The
    /// default [`SimdMode::Auto`] uses the widest tier the CPU offers;
    /// `IRONMAN_SIMD=scalar` in the environment forces scalar regardless.
    pub simd: SimdMode,
    /// A prebuilt LPN matrix to share instead of generating one per
    /// party. Matrix generation dominates session-spawn latency at
    /// Table-4 scale and every party's matrix is identical (a pure
    /// function of the config), so pools prebuild once and hand the
    /// `Arc` to every shard via this field. `None` (the default)
    /// generates on demand. Local-only state: it never affects outputs
    /// or the wire, but it must have been built from a config with the
    /// same matrix parameters — [`FerretConfig::build_matrix`]
    /// panics on a fingerprint mismatch rather than silently desync the
    /// parties.
    pub shared_matrix: Option<SharedLpnMatrix>,
}

impl FerretConfig {
    /// Ironman defaults (4-ary ChaCha8 trees, unsorted matrix) for a
    /// parameter set.
    pub fn new(params: FerretParams) -> Self {
        FerretConfig {
            params,
            arity: Arity::QUAD,
            prg: PrgKind::CHACHA8,
            session_key: Block::from(0x1203_4567u128),
            lpn_seed: Block::from(0x004c_504e_u128),
            row_weight: DEFAULT_ROW_WEIGHT,
            sort: None,
            kernel: LpnKernel::Naive,
            batched_spcot: true,
            simd: SimdMode::Auto,
            shared_matrix: None,
        }
    }

    /// The fastest known (matrix kind × kernel) combination for `params`
    /// on the reference box, regenerated from
    /// `ironman_lpn::simd::tests::level_head_to_head_at_table4_shape`
    /// (`cargo test --release -p ironman-lpn --lib -- --ignored
    /// --nocapture level_head_to_head`, one pinned CPU) at the size an
    /// extension really runs — `n = 2^20`, `k = 168 000`, `d = 10`, so
    /// every pass streams its 42 MB of indices and 16 MB of accumulator
    /// from memory. Median of 7 reps in ms (best in parentheses):
    ///
    /// | pass | scalar row | scalar tiled | wide row | wide tiled |
    /// |---|---|---|---|---|
    /// | blocks (`s·A`)      | 30.1 (28.7) | **16.4 (15.6)** | 28.8 (27.8) | **10.9 (10.7)** |
    /// | packed bits (`e·A`) | **13.6 (12.3)** | 21.7 (20.9) | **6.2 (3.6)** | 21.8 (21.2) |
    /// | fused tiled pair    | — | 32.6 (31.0) | — | 32.2 (31.0) |
    /// | split pair (tiled blocks + row bits) | — | **31.9 (30.3)** | — | **19.4 (18.6)** |
    ///
    /// (A shared two-vCPU host: the same binary reads ±15 % from hour
    /// to hour, and a pass whose 42 MB index stream survives in the
    /// last-level cache between reps reads better than it will inside
    /// an extension — the wide bit pass alone is 3.2–3.6 ms, but in the
    /// split pair, alternating with the block pass's own 42 MB of
    /// schedule entries, the pair costs 4–8 ms more than the block pass
    /// — calmer hours measured the wide pair at 14.2–15.5.)
    ///
    /// * the **block** half wins tiled under both SIMD tiers — its
    ///   `k · 16 B` input spills the L2-class window at every Table-4
    ///   row, so cache-blocking pays 2–3×;
    /// * the **packed-bit** half wins row-major — its `k`-bit input is
    ///   L1-resident, so the tile walk's bucket bookkeeping only adds
    ///   cost, and on the wide tier the row-major pass is a
    ///   `VPGATHERDD` kernel at 3–6 ns/row;
    /// * the **fused** pair loses to running the two winning passes
    ///   separately on the wide tier (19.4 vs 32.2) and ties on the
    ///   scalar one, so the receiver's shape is [`LpnKernel::Split`] on
    ///   both — which also gives the sender's single block pass the
    ///   tiled traversal. An earlier table drawn at `n = 2^18` chose a
    ///   fused *row-major* prefetched pair for the wide tier: at that
    ///   size best-of-5 reps keep the 10 MB index stream and the
    ///   accumulator L2/L3-warm, which hides exactly the streaming cost
    ///   a second pass adds and flatters the one-pass lane; at full
    ///   scale it measured 31 ns/row against the split pair's 14–19;
    /// * the §5.3 **sorted** matrix never wins in software — its
    ///   look-ahead order targets the NMP memory-side cache, and on a CPU
    ///   the row scatter it adds costs more than the locality it buys
    ///   (`blocks_sorted` measures ~0.5× naive) — so the unsorted matrix
    ///   is recommended for every set;
    /// * at toy scale the whole input is cache-resident and the kernels
    ///   tie, so the naive encoder keeps its simpler code path.
    ///
    /// SIMD stays [`SimdMode::Auto`]: the wide tier wins or ties every
    /// lane it covers and `IRONMAN_SIMD=scalar` remains the escape hatch.
    ///
    /// Serving-path constructors (`CotSession`-backed pools, the bench
    /// and example binaries) build their configs through this.
    pub fn recommended(params: FerretParams) -> Self {
        /// Block-input bytes above which the cache-blocked block pass
        /// wins (the L2-class boundary between the toy and Table-4
        /// regimes on the bench table; the exact crossover is far from
        /// both).
        const TILED_INPUT_BYTES: usize = 1 << 20;
        let kernel = if params.k * Block::BYTES >= TILED_INPUT_BYTES {
            LpnKernel::Split
        } else {
            LpnKernel::Naive
        };
        FerretConfig {
            kernel,
            ..FerretConfig::new(params)
        }
    }

    /// The CPU-baseline configuration (binary AES trees), as profiled in
    /// Fig. 1(b).
    pub fn ferret_baseline(params: FerretParams) -> Self {
        FerretConfig {
            arity: Arity::BINARY,
            prg: PrgKind::Aes,
            ..FerretConfig::new(params)
        }
    }

    /// Base COTs each party must hold before an extension:
    /// `k` LPN inputs + `t · log2(ℓ)` SPCOT consumptions.
    pub fn base_cots_required(&self) -> usize {
        self.params.k + self.params.t * self.params.leaves.trailing_zeros() as usize
    }

    /// Outputs available to the application per extension.
    pub fn usable_outputs(&self) -> usize {
        self.params.n - self.base_cots_required()
    }

    fn spcot_config(&self) -> SpcotConfig {
        SpcotConfig {
            arity: self.arity,
            prg: self.prg,
            leaves: self.params.leaves,
            session_key: self.session_key,
        }
    }

    /// Prebuilds the shared LPN matrix for this config if not already
    /// present, returning a cheap handle to it. Pools call this **once**
    /// before cloning the config across parties and shards, so N shards
    /// (2N party threads) generate one matrix instead of 2N — the
    /// dominant spawn cost at Table-4 scale.
    pub fn ensure_shared_matrix(&mut self) -> &SharedLpnMatrix {
        if self.shared_matrix.is_none() {
            self.shared_matrix = Some(SharedLpnMatrix::build(self));
        }
        self.shared_matrix
            .as_ref()
            .expect("just ensured the shared matrix")
    }

    fn build_matrix(&self) -> SessionMatrix {
        let repr = match &self.shared_matrix {
            Some(shared) => {
                assert_eq!(
                    shared.fingerprint,
                    MatrixFingerprint::of(self),
                    "shared matrix was prebuilt for a different LPN configuration"
                );
                shared.repr.clone()
            }
            None => SharedLpnMatrix::build(self).repr,
        };
        if self.kernel != LpnKernel::Naive {
            // Build the tile schedule now (offline, cached on the
            // matrix) so no extension pays for it on the hot path. A
            // shared matrix caches it once for every session.
            match &repr {
                MatrixRepr::Plain(m) => {
                    m.tile_schedule();
                }
                MatrixRepr::Sorted(s) => {
                    s.tile_schedule();
                }
            }
        }
        SessionMatrix {
            repr,
            kernel: self.kernel,
            level: self.simd.resolve(),
        }
    }
}

/// The matrix-generation inputs a [`SharedLpnMatrix`] was built from;
/// [`FerretConfig::build_matrix`] refuses a shared matrix whose
/// fingerprint disagrees with the config consuming it (a silent mismatch
/// would desynchronize the parties' LPN encodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MatrixFingerprint {
    rows: usize,
    cols: usize,
    weight: usize,
    seed: Block,
    sort: Option<SortConfig>,
}

impl MatrixFingerprint {
    fn of(cfg: &FerretConfig) -> Self {
        MatrixFingerprint {
            rows: cfg.params.n,
            cols: cfg.params.k,
            weight: cfg.row_weight,
            seed: cfg.lpn_seed,
            sort: cfg.sort,
        }
    }
}

/// A prebuilt, reference-counted LPN matrix (plus its cached tile
/// schedule) shared across sessions whose configs pin the same matrix.
/// Cloning is an `Arc` bump; see [`FerretConfig::ensure_shared_matrix`].
#[derive(Clone, Debug)]
pub struct SharedLpnMatrix {
    repr: MatrixRepr,
    fingerprint: MatrixFingerprint,
}

impl SharedLpnMatrix {
    /// Generates the matrix `cfg` pins (ignoring any shared matrix
    /// already attached to `cfg`).
    pub fn build(cfg: &FerretConfig) -> Self {
        let plain = LpnMatrix::generate(cfg.params.n, cfg.params.k, cfg.row_weight, cfg.lpn_seed);
        let repr = match cfg.sort {
            Some(sort_cfg) => MatrixRepr::Sorted(Arc::new(SortedLpnMatrix::sort(&plain, sort_cfg))),
            None => MatrixRepr::Plain(Arc::new(plain)),
        };
        SharedLpnMatrix {
            repr,
            fingerprint: MatrixFingerprint::of(cfg),
        }
    }

    /// The LPN working set of the shared matrix in bytes: its `colidx`
    /// array plus one `k`-vector of blocks
    /// ([`LpnMatrix::working_set_bytes`]). The lazily built tile schedule
    /// (another `colidx`-sized array the handle also keeps alive) is not
    /// counted.
    pub fn working_set_bytes(&self) -> u64 {
        match &self.repr {
            MatrixRepr::Plain(m) => m.working_set_bytes(),
            MatrixRepr::Sorted(s) => s.matrix().working_set_bytes(),
        }
    }
}

/// The session's matrix storage: an `Arc` either to the plain CSR matrix
/// or to its §5.3-sorted form, shared freely across party threads and
/// shards (the matrix is immutable after generation; its lazily built
/// tile schedule sits behind a `OnceLock`).
#[derive(Clone, Debug)]
enum MatrixRepr {
    Plain(Arc<LpnMatrix>),
    Sorted(Arc<SortedLpnMatrix>),
}

/// The session's fixed matrix plus the kernel family and SIMD tier that
/// traverse it. Every combination produces bit-identical outputs; only
/// the memory access order and instruction selection differ.
#[derive(Clone, Debug)]
struct SessionMatrix {
    repr: MatrixRepr,
    kernel: LpnKernel,
    level: SimdLevel,
}

impl SessionMatrix {
    /// The sender's (and the receiver's block-half) encode: `acc ^= input·A`.
    /// `Tiled` and `Split` agree here — both run the cache-blocked
    /// traversal, which wins for the block operand at every Table-4 row.
    fn encode_blocks(&self, input: &[Block], acc: &mut [Block]) {
        match (&self.repr, self.kernel) {
            (MatrixRepr::Plain(m), LpnKernel::Naive) => {
                simd::encode_blocks(self.level, m, input, acc)
            }
            (MatrixRepr::Plain(m), LpnKernel::Tiled | LpnKernel::Split) => {
                simd::encode_blocks_tiled(self.level, m.tile_schedule(), input, acc)
            }
            (MatrixRepr::Sorted(s), LpnKernel::Naive) => s.encode_blocks(input, acc),
            (MatrixRepr::Sorted(s), LpnKernel::Tiled | LpnKernel::Split) => {
                s.encode_blocks_tiled(input, acc)
            }
        }
    }

    /// The receiver's online encode: `x ^= e·A` (packed bits) and
    /// `y ^= s·A` (blocks). `Tiled` runs both halves as one fused pass
    /// over the index stream; `Naive` runs the legacy separate
    /// row-major passes. `Split` is the measured winner at full scale on
    /// both tiers (table on [`FerretConfig::recommended`]): the block
    /// half tile-major — the same pass the sender runs — then the
    /// (L1-resident) bit half row-major, ~13 ms scalar / 4–8 ms wide
    /// per 2^20 rows on top of it. The sorted matrix keeps its scalar
    /// traversals (§5.3 ordering never wins in software, so it gets no
    /// SIMD lanes; `Split` there falls back to the fused tiled pass).
    fn encode_receiver(&self, e: &PackedBits, s: &[Block], x: &mut PackedBits, y: &mut [Block]) {
        match (&self.repr, self.kernel) {
            (MatrixRepr::Plain(m), LpnKernel::Naive) => {
                simd::encode_bits_packed(self.level, m, e, x);
                simd::encode_blocks(self.level, m, s, y);
            }
            (MatrixRepr::Plain(m), LpnKernel::Tiled) => {
                simd::encode_cot_pair_tiled(self.level, m.tile_schedule(), s, e, y, x);
            }
            (MatrixRepr::Plain(m), LpnKernel::Split) => {
                simd::encode_cot_pair(self.level, m, s, e, y, x);
            }
            (MatrixRepr::Sorted(srt), LpnKernel::Naive) => {
                srt.encode_bits_packed(e, x);
                srt.encode_blocks(s, y);
            }
            (MatrixRepr::Sorted(srt), LpnKernel::Tiled | LpnKernel::Split) => {
                srt.encode_cot_pair_tiled(s, e, y, x);
            }
        }
    }
}

/// The sender's long-lived extension state.
#[derive(Debug)]
pub struct FerretSender {
    cfg: FerretConfig,
    base: CotSender,
    matrix: SessionMatrix,
    seeds: Dealer,
    tweak: u64,
    prg_counter: PrgCounter,
}

impl FerretSender {
    /// Creates the sender from its base correlations.
    ///
    /// # Panics
    ///
    /// Panics if `base.len() != cfg.base_cots_required()`.
    pub fn new(cfg: FerretConfig, base: CotSender, seed: u64) -> Self {
        assert_eq!(
            base.len(),
            cfg.base_cots_required(),
            "sender base must hold exactly k + t*log2(l) correlations"
        );
        let matrix = cfg.build_matrix();
        FerretSender {
            cfg,
            base,
            matrix,
            seeds: Dealer::new(seed ^ 0x5e4d),
            tweak: 0,
            prg_counter: PrgCounter::new(),
        }
    }

    /// The global correlation offset.
    pub fn delta(&self) -> Block {
        self.base.delta()
    }

    /// PRG calls consumed so far (all extensions).
    pub fn prg_counter(&self) -> PrgCounter {
        self.prg_counter
    }

    /// Runs one extension, returning the application's `n − k − t·log2(ℓ)`
    /// fresh `r0` blocks (new correlations under the same `Δ`).
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub fn extend<T: Transport + ?Sized>(
        &mut self,
        ch: &mut T,
    ) -> Result<Vec<Block>, ChannelError> {
        let p = self.cfg.params;
        let spcot_cfg = self.cfg.spcot_config();
        let spcot_budget = p.t * p.leaves.trailing_zeros() as usize;
        let mut spcot_base = self.base.split_off_front(spcot_budget);
        // What remains in self.base are the k LPN inputs, borrowed
        // directly at encode time (no staging copy).
        debug_assert_eq!(self.base.len(), p.k);

        // SPCOT phase: t trees, stripes assigned round-robin; each
        // tree's leaves accumulate straight into the LPN accumulator
        // stripe (no per-tree leaf vectors on the batched path).
        let stripes = p.stripes();
        let mut w_full = vec![Block::ZERO; p.n];
        if self.cfg.batched_spcot {
            let seeds: Vec<Block> = (0..p.t).map(|_| self.seeds.random_block()).collect();
            let prg_counter = &mut self.prg_counter;
            spcot_batch_send_into(
                ch,
                &spcot_cfg,
                &mut spcot_base,
                &seeds,
                &mut self.tweak,
                |i, leaves, counter| {
                    *prg_counter += counter;
                    let start = (i % stripes) * p.leaves;
                    let width = p.leaves.min(p.n - start);
                    Block::xor_into(&mut w_full[start..start + width], &leaves[..width]);
                },
            )?;
        } else {
            for i in 0..p.t {
                let seed = self.seeds.random_block();
                let out = spcot_send(ch, &spcot_cfg, &mut spcot_base, seed, &mut self.tweak)?;
                self.prg_counter += out.counter;
                let start = (i % stripes) * p.leaves;
                let width = p.leaves.min(p.n - start);
                Block::xor_into(&mut w_full[start..start + width], &out.w[..width]);
            }
        }

        // LPN phase: z = r·A ⊕ w.
        let mut z = w_full;
        self.matrix.encode_blocks(self.base.r0(), &mut z);

        // Bootstrap: retain the tail as next iteration's base; `z`
        // itself, truncated, is the application's output (no copy of the
        // large half).
        let base = z.split_off(p.n - self.cfg.base_cots_required());
        self.base = CotSender::new(self.base.delta(), base);
        Ok(z)
    }
}

/// The receiver's long-lived extension state.
///
/// The bit half of the base correlations lives **packed**
/// ([`PackedBits`]) for the receiver's whole lifetime: the constructor
/// packs the dealt choice bits once, every extension's `x = e·A ⊕ u`
/// runs entirely on packed words, and bits are only unpacked at the
/// output boundary (the application's `Vec<bool>`) plus the few
/// `t·log2(ℓ)` bits the SPCOT layer consumes.
#[derive(Debug)]
pub struct FerretReceiver {
    cfg: FerretConfig,
    /// Choice bits of the base correlations (length `k + t·log2(ℓ)`).
    base_bits: PackedBits,
    /// Blocks of the base correlations (same length).
    base_rb: Vec<Block>,
    matrix: SessionMatrix,
    alphas: Dealer,
    tweak: u64,
    prg_counter: PrgCounter,
    /// `(SPCOT, LPN)` nanoseconds of the most recent extension — the
    /// per-phase split the session trace surfaces (zeros under the
    /// telemetry `noop` feature, where the stopwatch never reads the
    /// clock).
    last_phase_nanos: (u64, u64),
}

impl FerretReceiver {
    /// Creates the receiver from its base correlations.
    ///
    /// # Panics
    ///
    /// Panics if `base.len() != cfg.base_cots_required()`.
    pub fn new(cfg: FerretConfig, base: CotReceiver, seed: u64) -> Self {
        assert_eq!(
            base.len(),
            cfg.base_cots_required(),
            "receiver base must hold exactly k + t*log2(l) correlations"
        );
        let matrix = cfg.build_matrix();
        let base_bits = PackedBits::from_bools(base.bits());
        let base_rb = base.rb().to_vec();
        FerretReceiver {
            cfg,
            base_bits,
            base_rb,
            matrix,
            alphas: Dealer::new(seed ^ 0xa1fa),
            tweak: 0,
            prg_counter: PrgCounter::new(),
            last_phase_nanos: (0, 0),
        }
    }

    /// PRG calls consumed so far (all extensions).
    pub fn prg_counter(&self) -> PrgCounter {
        self.prg_counter
    }

    /// `(SPCOT, LPN)` nanoseconds of the most recent
    /// [`FerretReceiver::extend`] — the phase split behind the paper's
    /// Fig. 1c-style latency breakdowns. Zeros before the first
    /// extension and under the telemetry `noop` feature.
    pub fn last_phase_nanos(&self) -> (u64, u64) {
        self.last_phase_nanos
    }

    /// Runs one extension, returning the application's fresh `(x, y)`
    /// correlations: `z = y ⊕ x·Δ` against the sender's output.
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub fn extend<T: Transport + ?Sized>(
        &mut self,
        ch: &mut T,
    ) -> Result<(Vec<bool>, Vec<Block>), ChannelError> {
        let p = self.cfg.params;
        let spcot_cfg = self.cfg.spcot_config();
        let spcot_budget = p.t * p.leaves.trailing_zeros() as usize;
        // SPCOT consumes the first `budget` base correlations (the only
        // bits unpacked this extension besides the output boundary);
        // the remaining k stay packed as the LPN input `e`.
        let mut spcot_bits = Vec::with_capacity(spcot_budget);
        self.base_bits
            .extend_bools(0, spcot_budget, &mut spcot_bits);
        let mut spcot_base = CotReceiver::new(spcot_bits, self.base_rb[..spcot_budget].to_vec());

        // SPCOT phase: the one-hot noise bits land directly in the
        // packed x accumulator and each tree's leaves XOR straight into
        // the y accumulator stripe (no per-tree vectors on the batched
        // path).
        let stripes = p.stripes();
        let spcot_watch = ironman_telemetry::Stopwatch::start();
        let mut x = PackedBits::zeros(p.n);
        let mut y = vec![Block::ZERO; p.n];
        let stripe_width = |i: usize| {
            let start = (i % stripes) * p.leaves;
            (start, p.leaves.min(p.n - start))
        };
        if self.cfg.batched_spcot {
            let alphas: Vec<usize> = (0..p.t)
                .map(|i| self.alphas.random_index(stripe_width(i).1))
                .collect();
            let prg_counter = &mut self.prg_counter;
            spcot_batch_recv_into(
                ch,
                &spcot_cfg,
                &mut spcot_base,
                &alphas,
                &mut self.tweak,
                |i, alpha, leaves, counter| {
                    *prg_counter += counter;
                    let (start, width) = stripe_width(i);
                    x.xor_bit(start + alpha, true);
                    Block::xor_into(&mut y[start..start + width], &leaves[..width]);
                },
            )?;
        } else {
            for i in 0..p.t {
                let (start, width) = stripe_width(i);
                let alpha = self.alphas.random_index(width);
                let out = spcot_recv(ch, &spcot_cfg, &mut spcot_base, alpha, &mut self.tweak)?;
                self.prg_counter += out.counter;
                x.xor_bit(start + out.alpha, true);
                Block::xor_into(&mut y[start..start + width], &out.v[..width]);
            }
        }

        let spcot_nanos = spcot_watch.elapsed_nanos();

        // LPN phase: x = e·A ⊕ u, y = s·A ⊕ v.
        let lpn_watch = ironman_telemetry::Stopwatch::start();
        let e = self.base_bits.slice(spcot_budget, p.k);
        self.matrix
            .encode_receiver(&e, &self.base_rb[spcot_budget..], &mut x, &mut y);
        self.last_phase_nanos = (spcot_nanos, lpn_watch.elapsed_nanos());

        // Bootstrap: the last `k + t·log2(ℓ)` outputs become the next
        // iteration's base (bits stay packed); the front unpacks at the
        // application boundary and `y` itself, truncated, is the block
        // output.
        let required = self.cfg.base_cots_required();
        let usable = p.n - required;
        self.base_rb = y.split_off(usable);
        self.base_bits = x.slice(usable, required);
        let mut out_x = Vec::with_capacity(usable);
        x.extend_bools(0, usable, &mut out_x);
        Ok((out_x, y))
    }
}

/// The result of [`run_extension`]: matched sender/receiver outputs plus
/// accounting, for tests and benches.
#[derive(Clone, Debug)]
pub struct FerretOutput {
    /// The global offset `Δ`.
    pub delta: Block,
    /// Sender outputs `z` (one per usable COT).
    pub z: Vec<Block>,
    /// Receiver choice bits `x`.
    pub x: Vec<bool>,
    /// Receiver blocks `y` with `z = y ⊕ x·Δ`.
    pub y: Vec<Block>,
    /// Sender communication stats.
    pub sender_stats: ChannelStats,
    /// Receiver communication stats.
    pub receiver_stats: ChannelStats,
    /// Sender PRG calls.
    pub sender_prg: PrgCounter,
    /// Receiver PRG calls.
    pub receiver_prg: PrgCounter,
}

impl FerretOutput {
    /// Checks `z = y ⊕ x·Δ` on every output correlation.
    ///
    /// # Errors
    ///
    /// Returns the index of the first violation.
    pub fn verify(&self) -> Result<(), usize> {
        for i in 0..self.z.len() {
            if self.z[i] != self.y[i] ^ self.delta.and_bit(self.x[i]) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Number of usable output COTs.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Whether the output batch is empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }
}

/// Convenience harness: deals fresh bases, runs one extension on two
/// threads, and returns the matched outputs.
pub fn run_extension(cfg: &FerretConfig, seed: u64) -> FerretOutput {
    run_extensions(cfg, seed, 1)
        .pop()
        .expect("one iteration requested")
}

/// Runs `iterations` consecutive extensions over one session (exercising
/// the bootstrap) and returns each iteration's outputs.
///
/// # Panics
///
/// Panics if `iterations == 0` or a protocol thread fails.
pub fn run_extensions(cfg: &FerretConfig, seed: u64, iterations: usize) -> Vec<FerretOutput> {
    let (cs, cr) = crate::channel::LocalChannel::pair();
    run_extensions_over(cfg, seed, iterations, cs, cr)
}

/// [`run_extensions`] over an arbitrary pre-connected transport pair (e.g.
/// `ironman-net`'s TCP loopback endpoints): deals fresh bases, runs the
/// two parties on their own threads across the given transports, and
/// returns each iteration's matched outputs with that transport's real
/// byte/round accounting.
///
/// # Panics
///
/// Panics if `iterations == 0` or a protocol thread fails.
pub fn run_extensions_over<TS, TR>(
    cfg: &FerretConfig,
    seed: u64,
    iterations: usize,
    sender_ch: TS,
    receiver_ch: TR,
) -> Vec<FerretOutput>
where
    TS: crate::channel::Transport + Send,
    TR: crate::channel::Transport + Send,
{
    assert!(iterations > 0, "need at least one iteration");
    let mut dealer = Dealer::new(seed);
    let delta = dealer.random_delta();
    let required = cfg.base_cots_required();
    let (s_base, r_base) = dealer.deal_cot(delta, required);
    // Both parties pin the identical matrix: build it once and hand each
    // thread the Arc instead of paying two generations.
    let mut cfg = cfg.clone();
    cfg.ensure_shared_matrix();
    let cfg_s = cfg.clone();
    let cfg_r = cfg;

    let (sender_iters, receiver_iters, s_stats, r_stats) = crate::channel::run_protocol_over(
        sender_ch,
        receiver_ch,
        move |ch| {
            let mut sender = FerretSender::new(cfg_s, s_base, seed);
            let mut outs = Vec::with_capacity(iterations);
            for _ in 0..iterations {
                outs.push((
                    sender.extend(ch).expect("sender extension failed"),
                    sender.prg_counter(),
                ));
            }
            outs
        },
        move |ch| {
            let mut receiver = FerretReceiver::new(cfg_r, r_base, seed);
            let mut outs = Vec::with_capacity(iterations);
            for _ in 0..iterations {
                outs.push((
                    receiver.extend(ch).expect("receiver extension failed"),
                    receiver.prg_counter(),
                ));
            }
            outs
        },
    );

    sender_iters
        .into_iter()
        .zip(receiver_iters)
        .map(|((z, s_prg), ((x, y), r_prg))| FerretOutput {
            delta,
            z,
            x,
            y,
            sender_stats: s_stats,
            receiver_stats: r_stats,
            sender_prg: s_prg,
            receiver_prg: r_prg,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_extension_verifies() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let out = run_extension(&cfg, 1);
        assert_eq!(out.len(), cfg.usable_outputs());
        out.verify().expect("output COTs must be correlated");
    }

    #[test]
    fn baseline_binary_aes_verifies() {
        let cfg = FerretConfig::ferret_baseline(FerretParams::toy());
        run_extension(&cfg, 2).verify().unwrap();
    }

    #[test]
    fn all_arities_verify() {
        for arity in Arity::SWEEP {
            let cfg = FerretConfig {
                arity,
                ..FerretConfig::new(FerretParams::toy())
            };
            run_extension(&cfg, 3)
                .verify()
                .unwrap_or_else(|i| panic!("{arity}: COT {i} broken"));
        }
    }

    #[test]
    fn sorted_matrix_matches_plain() {
        let plain_cfg = FerretConfig::new(FerretParams::toy());
        let sorted_cfg = FerretConfig {
            sort: Some(SortConfig::default()),
            ..plain_cfg.clone()
        };
        let plain = run_extension(&plain_cfg, 4);
        let sorted = run_extension(&sorted_cfg, 4);
        // Same randomness → bit-identical outputs despite reordered memory
        // accesses (the §5.3 correctness claim).
        assert_eq!(plain.z, sorted.z);
        assert_eq!(plain.x, sorted.x);
        assert_eq!(plain.y, sorted.y);
        sorted.verify().unwrap();
    }

    #[test]
    fn tiled_kernel_matches_naive() {
        // Same randomness through both kernel families ⇒ bit-identical
        // outputs: the tile schedule only reorders XOR accumulation.
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        let tiled_cfg = FerretConfig {
            kernel: LpnKernel::Tiled,
            ..naive_cfg.clone()
        };
        let naive = run_extensions(&naive_cfg, 40, 2);
        let tiled = run_extensions(&tiled_cfg, 40, 2);
        for (a, b) in naive.iter().zip(&tiled) {
            assert_eq!(a.z, b.z);
            assert_eq!(a.x, b.x);
            assert_eq!(a.y, b.y);
        }
        tiled.last().unwrap().verify().unwrap();
    }

    #[test]
    fn tiled_sorted_matches_plain() {
        // The full combination: §5.3 sorting composed with tiling.
        let plain_cfg = FerretConfig::new(FerretParams::toy());
        let both_cfg = FerretConfig {
            kernel: LpnKernel::Tiled,
            sort: Some(SortConfig::default()),
            ..plain_cfg.clone()
        };
        let plain = run_extension(&plain_cfg, 41);
        let both = run_extension(&both_cfg, 41);
        assert_eq!(plain.z, both.z);
        assert_eq!(plain.x, both.x);
        assert_eq!(plain.y, both.y);
        both.verify().unwrap();
    }

    #[test]
    fn mixed_kernel_parties_interoperate() {
        // The kernel choice never touches the wire, so a tiled sender
        // correlates with a naive receiver, and a naive sender with a
        // split receiver.
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        for (sender_kernel, receiver_kernel) in [
            (LpnKernel::Tiled, LpnKernel::Naive),
            (LpnKernel::Naive, LpnKernel::Split),
        ] {
            let sender_cfg = FerretConfig {
                kernel: sender_kernel,
                ..naive_cfg.clone()
            };
            let receiver_cfg = FerretConfig {
                kernel: receiver_kernel,
                ..naive_cfg.clone()
            };
            let mut dealer = Dealer::new(42);
            let delta = dealer.random_delta();
            let (s_base, r_base) = dealer.deal_cot(delta, naive_cfg.base_cots_required());
            let (out_z, (out_x, out_y), _, _) = crate::channel::run_protocol(
                move |ch| {
                    let mut sender = FerretSender::new(sender_cfg, s_base, 42);
                    sender.extend(ch).expect("sender extension")
                },
                move |ch| {
                    let mut receiver = FerretReceiver::new(receiver_cfg, r_base, 42);
                    receiver.extend(ch).expect("receiver extension")
                },
            );
            assert_eq!(out_z.len(), naive_cfg.usable_outputs());
            for i in 0..out_z.len() {
                assert_eq!(
                    out_z[i],
                    out_y[i] ^ delta.and_bit(out_x[i]),
                    "{sender_kernel:?}/{receiver_kernel:?} index {i}"
                );
            }
        }
    }

    #[test]
    fn recommended_picks_split_for_table4() {
        for p in FerretParams::TABLE4 {
            let cfg = FerretConfig::recommended(p);
            assert_eq!(cfg.kernel, LpnKernel::Split, "{p}");
            assert!(cfg.sort.is_none(), "software sort never wins ({p})");
            assert_eq!(cfg.simd, SimdMode::Auto, "{p}");
        }
        // Toy-scale inputs are cache-resident; the simple path stays.
        assert_eq!(
            FerretConfig::recommended(FerretParams::toy()).kernel,
            LpnKernel::Naive
        );
    }

    #[test]
    fn split_kernel_matches_naive() {
        // Split only reorders the receiver's two passes (and tiles the
        // block half) ⇒ bit-identical outputs, bootstrap included — on
        // the scalar tier and on whatever `Auto` resolves to here (the
        // gather bit pass and the unchecked tiled lane on AVX2 hosts).
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        let naive = run_extensions(&naive_cfg, 44, 2);
        for simd in [SimdMode::Auto, SimdMode::ForceScalar] {
            let split_cfg = FerretConfig {
                kernel: LpnKernel::Split,
                simd,
                ..naive_cfg.clone()
            };
            let split = run_extensions(&split_cfg, 44, 2);
            for (a, b) in naive.iter().zip(&split) {
                assert_eq!(a.z, b.z, "{simd:?}");
                assert_eq!(a.x, b.x, "{simd:?}");
                assert_eq!(a.y, b.y, "{simd:?}");
            }
            split.last().unwrap().verify().unwrap();
        }
    }

    #[test]
    fn split_sorted_matches_plain() {
        // Split on a sorted matrix falls back to the fused tiled pass.
        let plain_cfg = FerretConfig::new(FerretParams::toy());
        let cfg = FerretConfig {
            kernel: LpnKernel::Split,
            sort: Some(SortConfig::default()),
            ..plain_cfg.clone()
        };
        let plain = run_extension(&plain_cfg, 45);
        let split = run_extension(&cfg, 45);
        assert_eq!(plain.z, split.z);
        assert_eq!(plain.x, split.x);
        assert_eq!(plain.y, split.y);
    }

    #[test]
    fn forced_scalar_matches_auto() {
        // The SIMD tier is pure instruction selection: outputs must be
        // bit-identical whichever tier dispatch lands on.
        let auto_cfg = FerretConfig {
            kernel: LpnKernel::Split,
            ..FerretConfig::new(FerretParams::toy())
        };
        let scalar_cfg = FerretConfig {
            simd: SimdMode::ForceScalar,
            ..auto_cfg.clone()
        };
        let auto = run_extension(&auto_cfg, 46);
        let scalar = run_extension(&scalar_cfg, 46);
        assert_eq!(auto.z, scalar.z);
        assert_eq!(auto.x, scalar.x);
        assert_eq!(auto.y, scalar.y);
    }

    #[test]
    fn shared_matrix_produces_identical_outputs() {
        // (The "one generate for N consumers" count is asserted in
        // `ironman-core`'s single-test `shared_matrix` binary, where the
        // process-global counter is race-free.)
        let mut cfg = FerretConfig::new(FerretParams::toy());
        cfg.ensure_shared_matrix();
        assert!(cfg.shared_matrix.is_some());
        run_extensions(&cfg, 47, 2)
            .last()
            .unwrap()
            .verify()
            .unwrap();
        // Outputs are identical to the generate-per-party path.
        let fresh = FerretConfig::new(FerretParams::toy());
        assert_eq!(run_extension(&fresh, 48).z, run_extension(&cfg, 48).z);
    }

    #[test]
    #[should_panic(expected = "different LPN configuration")]
    fn shared_matrix_fingerprint_mismatch_rejected() {
        let mut cfg = FerretConfig::new(FerretParams::toy());
        cfg.ensure_shared_matrix();
        // Retarget the config at a different matrix without rebuilding.
        let stale = FerretConfig {
            lpn_seed: Block::from(0xdead_beefu128),
            ..cfg
        };
        let _ = stale.build_matrix();
    }

    #[test]
    fn multi_iteration_bootstrap() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let outs = run_extensions(&cfg, 5, 3);
        assert_eq!(outs.len(), 3);
        for (i, out) in outs.iter().enumerate() {
            out.verify()
                .unwrap_or_else(|j| panic!("iteration {i}, COT {j} broken"));
            assert_eq!(out.len(), cfg.usable_outputs());
        }
        // Outputs across iterations must differ (fresh randomness).
        assert_ne!(outs[0].z, outs[1].z);
    }

    #[test]
    fn tail_retained_bootstrap_stays_correlated_at_mixed_fanout() {
        // Each extension's base is the *tail* of the previous one's
        // output rows (step 3 of the module header), retained
        // identically by both parties: four chained extensions at
        // toy_large (mixed final tree level) all verify, full length.
        let cfg = FerretConfig {
            kernel: LpnKernel::Split,
            ..FerretConfig::new(FerretParams::toy_large())
        };
        let outs = run_extensions(&cfg, 9, 4);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.len(), cfg.usable_outputs(), "iteration {i}");
            assert_eq!((out.x.len(), out.y.len()), (out.len(), out.len()));
            out.verify()
                .unwrap_or_else(|j| panic!("iteration {i}, COT {j} broken"));
        }
        assert_ne!(outs[2].z, outs[3].z);
    }

    #[test]
    fn mixed_fanout_params_verify() {
        // toy_large uses ℓ=512 (4^4·2 with quad trees → mixed final level).
        let cfg = FerretConfig::new(FerretParams::toy_large());
        run_extension(&cfg, 6).verify().unwrap();
    }

    #[test]
    fn noise_bits_present() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let out = run_extension(&cfg, 7);
        let ones = out.x.iter().filter(|&&b| b).count();
        // x = e·A ⊕ u is pseudorandom: expect a roughly balanced bit vector.
        let n = out.x.len();
        assert!(
            ones > n / 4 && ones < 3 * n / 4,
            "x looks degenerate: {ones}/{n}"
        );
    }

    #[test]
    fn quad_chacha_much_cheaper_than_binary_aes() {
        let quad = run_extension(&FerretConfig::new(FerretParams::toy()), 8);
        let bin = run_extension(&FerretConfig::ferret_baseline(FerretParams::toy()), 8);
        assert!(
            bin.sender_prg.total() > 5 * quad.sender_prg.total(),
            "expected ~6x call reduction: binary {} vs quad {}",
            bin.sender_prg.total(),
            quad.sender_prg.total()
        );
    }
}
