//! The Ferret-style PCG OT-extension main loop (paper §2.3, Fig. 3a).
//!
//! One extension turns `k + t·log2(ℓ)` base COT correlations into `n` fresh
//! correlations. Inside the extension every string carries its choice bit
//! in **bit 0**, as FERRET's reference implementation does: `Δ` has bit 0
//! set (so 127 of its bits are free), every sender string has bit 0 clear,
//! and every receiver string `y = z ⊕ x·Δ` therefore has `x` in bit 0. The
//! parties' constructors put dealt bases into that form
//! ([`FerretSender::new`], [`FerretReceiver::new`]) and every output is in
//! it again, so the receiver keeps no separate bit vector.
//!
//! 1. **SPCOT phase** — `t` GGM trees are built and punctured interactively
//!    ([`crate::spcot_batch`]); tree `i` contributes a one-hot stripe of the
//!    length-`n` noise vector `u` and the corresponding `w`/`v` blocks.
//!    Leaves are folded into the LPN accumulator with bit 0 masked off
//!    (`acc ^= leaf & !1`, both parties); the receiver then flips bit 0 at
//!    its punctured position `α`, which is `u` riding in the block lane.
//!    The `t·log2(ℓ)` choice bits SPCOT consumes are read back from bit 0
//!    of the base strings it consumes.
//! 2. **LPN phase** — each party runs the same single block pass over the
//!    fixed sparse matrix `A`, onto its accumulator: sender `z = r·A ⊕ w`,
//!    receiver `y = s·A ⊕ v`. LPN over blocks *is* LPN over bits in lane
//!    0, so `x = e·A ⊕ u` is bit 0 of `y` — read off per finished row
//!    block — and the result is `n` COTs with `z = y ⊕ x·Δ`.
//! 3. **Bootstrap** — the *last* `k + t·log2(ℓ)` outputs are retained as
//!    the next iteration's base correlations; the front `n − k − t·log2(ℓ)`
//!    are handed to the application in place (the output vector is the
//!    encode's accumulator, truncated — only the small base is copied
//!    out). Every output row is an equally valid COT, so which end
//!    bootstraps is a free choice both parties must merely agree on.
//!
//! An extension is channel-free steps: the receiver's
//! [`FerretReceiver::flips`], the sender's [`FerretSender::answer`], the
//! receiver's [`FerretReceiver::finish`], then each party's LPN phase and
//! bootstrap. [`FerretSender::extend`] and [`FerretReceiver::extend`] run
//! one party's steps over a [`Transport`] (two parties, two threads or two
//! hosts); one thread holding both parties — a
//! [`crate::session::CotSession`] — runs the steps back to back and both
//! LPN phases as one pass over the shared matrix (`Parties::extend`).
//!
//! Outputs for a given seed are specific to this revision of the protocol
//! (which end bootstraps, the bit-0 lane, the dealer's draw order):
//! compare kernels and tiers against each other, not against fixtures
//! from older builds.

use crate::channel::{ChannelError, ChannelStats, Transport};
use crate::cot::{CotBatch, CotReceiver, CotSender};
use crate::dealer::Dealer;
use crate::params::FerretParams;
use crate::spcot::SpcotConfig;
use crate::spcot_batch::{self, SpcotAnswer};
use ironman_ggm::Arity;
use ironman_lpn::{simd, LpnMatrix, SimdLevel, TileConfig, TileSchedule, DEFAULT_ROW_WEIGHT};
use ironman_prg::{Block, PrgCounter, PrgKind};
use ironman_telemetry::Stopwatch;
use std::sync::Arc;

/// Which traversal of `ironman_lpn` the extension's one LPN block pass
/// runs — and with it which form of the matrix the session stores.
/// Bit-identical in output and interchangeable per party (the choice
/// never touches the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpnKernel {
    /// Row-major gathers over the row-major `colidx` — the CPU baseline
    /// shape of Fig. 1(c), and the simple path at toy scale.
    Naive,
    /// Cache-blocked (tile-major) gathers replayed from a
    /// [`ironman_lpn::TileSchedule`], the only form of the matrix such a
    /// session stores. The software twin of the paper's memory-side cache
    /// (§5.3).
    Tiled,
    /// The same pass as [`LpnKernel::Tiled`]. The name is what
    /// [`FerretConfig::recommended`] returns at Table-4 scale, from when
    /// the receiver ran a second, packed-bit pass after the tiled block
    /// pass; the choice bit now rides in bit 0 of the block and that pass
    /// does not exist.
    Split,
}

/// The SIMD tier of a party's LPN pass: the CPU's, never the session's.
/// [`CpuTier::resolve`] is [`SimdLevel::detect`], the tier
/// `ironman_prg::cpu` picks once per process (scalar under
/// `IRONMAN_SIMD=scalar`); every tier gives the same bits.
#[derive(Clone, Copy, Debug)]
pub struct CpuTier;

impl CpuTier {
    /// The tier every party in this process runs: [`SimdLevel::detect`].
    pub fn resolve(self) -> SimdLevel {
        SimdLevel::detect()
    }
}

/// Full configuration of a Ferret session. `params`, `arity`, `prg`,
/// `session_key`, `lpn_seed` and `row_weight` pin the LPN matrix, the
/// trees and the PRG, so they must be identical on both parties. `kernel`
/// and `shared_matrix` are local to each party: they change neither an
/// output nor a wire byte. The SIMD tier is not configured ([`CpuTier`]).
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
    /// LPN kernel family for the online encode (output-identical; see
    /// [`LpnKernel`]).
    pub kernel: LpnKernel,
    /// Zero-sized: holds no choice, and no session reads it. It stays
    /// while the harness under `benchmark/` spells `cfg.simd.resolve()`.
    pub simd: CpuTier,
    /// A prebuilt LPN matrix to share instead of generating one per
    /// party. Matrix generation dominates session-spawn latency at
    /// Table-4 scale and every party's matrix is identical (a pure
    /// function of the config), so pools prebuild once and hand the
    /// `Arc` to every shard via this field. `None` (the default)
    /// generates on demand. Local-only state: it never affects outputs
    /// or the wire, but it must have been built from a config with the
    /// same matrix parameters — session construction panics on a
    /// fingerprint mismatch rather than silently desync the parties.
    pub shared_matrix: Option<SharedLpnMatrix>,
}

impl FerretConfig {
    /// Ironman defaults (4-ary ChaCha8 trees) for a parameter set.
    pub fn new(params: FerretParams) -> Self {
        FerretConfig {
            params,
            arity: Arity::QUAD,
            prg: PrgKind::CHACHA8,
            session_key: Block::from(0x1203_4567u128),
            lpn_seed: Block::from(0x004c_504e_u128),
            row_weight: DEFAULT_ROW_WEIGHT,
            kernel: LpnKernel::Naive,
            simd: CpuTier,
            shared_matrix: None,
        }
    }

    /// The fastest known kernel for `params` on the reference box, from
    /// `ironman_lpn::simd::tests::level_head_to_head_at_table4_shape`
    /// (`cargo test --release -p ironman-lpn --lib -- --ignored
    /// --nocapture level_head_to_head`, one pinned CPU) at the size an
    /// extension really runs — `n = 2^20`, `k = 168 000`, `d = 10`, so
    /// the pass streams its 42 MB of indices and 16 MB of accumulator
    /// from memory. Median of 7 reps in ms (best in parentheses), on a
    /// shared two-vCPU host that reads ±15 % from hour to hour:
    ///
    /// | pass | scalar row | scalar tiled | wide row | wide tiled |
    /// |---|---|---|---|---|
    /// | blocks (`r·A`, `s·A`) | 30.1 (28.7) | **16.4 (15.6)** | 28.8 (27.8) | **10.9 (10.7)** |
    ///
    /// * the block pass — the only LPN pass either party runs — wins
    ///   tiled under both SIMD tiers: its `k · 16 B` input spills the
    ///   L2-class window at every Table-4 row, so cache-blocking pays
    ///   2–3×;
    /// * no session sorts the matrix: §5.3's look-ahead order targets
    ///   the NMP memory-side cache, and on a CPU its row scatter cost
    ///   more than the locality it bought (~0.5× naive), so sorting lives
    ///   only in the `ironman-nmp` model;
    /// * at toy scale the whole input is cache-resident and the kernels
    ///   tie, so the naive encoder keeps its simpler code path.
    ///
    /// (The packed-bit, fused-pair and split-pair rows this table used to
    /// carry decided the shape of a receiver-only second pass; they are
    /// in CHANGES.md's PR-14 entry.)
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
        self.params.k + self.spcot_cots()
    }

    /// Base COTs an extension's SPCOT consumes: `t · log2(ℓ)`.
    fn spcot_cots(&self) -> usize {
        self.params.t * self.params.leaves.trailing_zeros() as usize
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
    /// (2N parties) generate one matrix instead of 2N — the dominant
    /// spawn cost at Table-4 scale.
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
        SessionMatrix {
            repr,
            level: SimdLevel::detect(),
        }
    }
}

/// The matrix-generation inputs a [`SharedLpnMatrix`] was built from,
/// and the form it is stored in; [`FerretConfig::build_matrix`] refuses
/// a shared matrix whose fingerprint disagrees with the config consuming
/// it (a silent mismatch would desynchronize the parties' LPN encodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MatrixFingerprint {
    rows: usize,
    cols: usize,
    weight: usize,
    seed: Block,
    /// Whether the kernel replays a tile schedule (which decides the
    /// stored form).
    tiled: bool,
}

impl MatrixFingerprint {
    fn of(cfg: &FerretConfig) -> Self {
        MatrixFingerprint {
            rows: cfg.params.n,
            cols: cfg.params.k,
            weight: cfg.row_weight,
            seed: cfg.lpn_seed,
            tiled: cfg.kernel != LpnKernel::Naive,
        }
    }
}

/// A prebuilt, reference-counted LPN matrix shared across sessions whose
/// configs pin the same matrix and traversal. Cloning is an `Arc` bump;
/// see [`FerretConfig::ensure_shared_matrix`].
#[derive(Clone, Debug)]
pub struct SharedLpnMatrix {
    repr: MatrixRepr,
    fingerprint: MatrixFingerprint,
}

impl SharedLpnMatrix {
    /// Generates the matrix `cfg` pins, in the one form `cfg.kernel`
    /// reads (ignoring any shared matrix already attached to `cfg`): a
    /// tiled kernel's schedule is streamed straight from the index
    /// generator and row-major `colidx` is never materialised.
    pub fn build(cfg: &FerretConfig) -> Self {
        let p = cfg.params;
        let fingerprint = MatrixFingerprint::of(cfg);
        let repr = if fingerprint.tiled {
            MatrixRepr::Tiled(Arc::new(TileSchedule::generate(
                p.n,
                p.k,
                cfg.row_weight,
                cfg.lpn_seed,
                TileConfig::default(),
            )))
        } else {
            MatrixRepr::RowMajor(Arc::new(LpnMatrix::generate(
                p.n,
                p.k,
                cfg.row_weight,
                cfg.lpn_seed,
            )))
        };
        SharedLpnMatrix { repr, fingerprint }
    }

    /// The LPN working set of the shared matrix in bytes: its index
    /// array (`n·d` `u32`s, row-major or tile-major) plus one `k`-vector
    /// of blocks ([`LpnMatrix::working_set_bytes`]).
    pub fn working_set_bytes(&self) -> u64 {
        match &self.repr {
            MatrixRepr::RowMajor(m) => m.working_set_bytes(),
            MatrixRepr::Tiled(t) => t.working_set_bytes(),
        }
    }
}

/// The session's matrix storage, shared freely across parties, threads
/// and shards (immutable after generation): the one form the session's kernel
/// reads.
#[derive(Clone, Debug)]
enum MatrixRepr {
    RowMajor(Arc<LpnMatrix>),
    Tiled(Arc<TileSchedule>),
}

/// The session's fixed matrix plus the SIMD tier that replays it. Every
/// combination produces bit-identical outputs; only the memory access
/// order and instruction selection differ.
#[derive(Clone, Debug)]
struct SessionMatrix {
    repr: MatrixRepr,
    level: SimdLevel,
}

impl SessionMatrix {
    /// Either party's whole LPN phase: `acc ^= input·A`. `finished` is
    /// handed consecutive, ascending runs of finished accumulator rows
    /// that together are the final `acc` — per 2 MB row block on the
    /// tiled path, so the receiver reads its choice bits off cache-warm
    /// rows.
    fn encode_blocks(
        &self,
        input: &[Block],
        acc: &mut [Block],
        mut finished: impl FnMut(&[Block]),
    ) {
        match &self.repr {
            MatrixRepr::RowMajor(m) => {
                simd::encode_blocks(self.level, m, input, acc);
                finished(acc);
            }
            MatrixRepr::Tiled(t) => {
                simd::encode_blocks_tiled_with(self.level, t, input, acc, finished)
            }
        }
    }

    /// Both parties' LPN phase: `z ^= r·A` and `y ^= s·A`, `finished`
    /// handed `y`'s rows as in [`SessionMatrix::encode_blocks`]. The tiled
    /// path replays the schedule once for both; the row-major one (toy
    /// scale, cache-resident) makes one pass each.
    fn encode_pair(
        &self,
        r: &[Block],
        s: &[Block],
        z: &mut [Block],
        y: &mut [Block],
        finished: impl FnMut(&[Block]),
    ) {
        match &self.repr {
            MatrixRepr::RowMajor(_) => {
                self.encode_blocks(r, z, |_| {});
                self.encode_blocks(s, y, finished);
            }
            MatrixRepr::Tiled(t) => {
                simd::encode_block_pair_tiled_with(self.level, t, r, s, z, y, finished)
            }
        }
    }
}

/// Adds one tree's SPCOT leaves to the LPN accumulator stripe at `start`
/// with bit 0 — the choice-bit lane — masked off: `acc ^= leaf & !1`.
///
/// Both parties' SPCOT sinks see the trees in index order and tree `i`
/// covers stripe `i mod stripes`, so the first `stripes` trees each meet
/// their stripe at the end of `acc` and write it once, with no zero-fill
/// first; later trees fold into a stripe already written. The caller
/// zero-fills (`resize`) whatever stripes no tree covered.
///
/// # Panics
///
/// Panics if `start` is past the end of `acc`: a tree arrived out of
/// order, and its stripe would be left out.
fn fold_leaves(acc: &mut Vec<Block>, start: usize, leaves: &[Block]) {
    const STRING_BITS: Block = Block(!1);
    if start < acc.len() {
        for (a, &leaf) in acc[start..start + leaves.len()].iter_mut().zip(leaves) {
            *a ^= leaf & STRING_BITS;
        }
    } else {
        assert_eq!(acc.len(), start, "SPCOT trees must arrive in index order");
        acc.extend(leaves.iter().map(|&leaf| leaf & STRING_BITS));
    }
}

/// Tree `i`'s stripe of the length-`n` accumulator, its first row and
/// width: stripes are assigned round-robin, and the last may be narrower
/// than a tree.
fn stripe(p: FerretParams, i: usize) -> (usize, usize) {
    let start = (i % p.stripes()) * p.leaves;
    (start, p.leaves.min(p.n - start))
}

/// Hands the application's choice bits off finished rows of the
/// receiver's accumulator: bit 0 of each, up to `usable` in all (the
/// rest are the next base and stay blocks).
fn read_off_choice_bits(x: &mut Vec<bool>, usable: usize, rows: &[Block]) {
    let wanted = usable - x.len();
    x.extend(rows.iter().take(wanted).map(|r| r.lsb()));
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
    /// Creates the sender from its base correlations, clearing bit 0 of
    /// every base string (the choice-bit lane; the receiver's matching
    /// strings get their choice bit there, so the pair stays correlated
    /// under an odd `Δ`).
    ///
    /// # Panics
    ///
    /// Panics if `base.len() != cfg.base_cots_required()`, or if `Δ` has
    /// bit 0 clear ([`Dealer::random_delta`] never deals one).
    pub fn new(cfg: FerretConfig, base: CotSender, seed: u64) -> Self {
        assert_eq!(
            base.len(),
            cfg.base_cots_required(),
            "sender base must hold exactly k + t*log2(l) correlations"
        );
        assert!(
            base.delta().lsb(),
            "the extension carries choice bits in bit 0, so delta must have bit 0 set"
        );
        let strings = base.r0().iter().map(|r| r.with_lsb(false)).collect();
        let base = CotSender::new(base.delta(), strings);
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
    fn prg_counter(&self) -> PrgCounter {
        self.prg_counter
    }

    /// The sender's SPCOT step of an extension: answers the receiver's
    /// [`FerretReceiver::flips`], consuming the `t·log2(ℓ)` SPCOT base
    /// correlations, and returns the answer with its `w` accumulator
    /// (stripes assigned round-robin; each tree's leaves fold straight
    /// into its stripe, no per-tree leaf vectors, no zero-fill first).
    /// `flips` is called once the trees are expanded (see
    /// [`spcot_batch::answer`]). The extension ends with the LPN phase on
    /// `w`: [`FerretSender::extend`]'s, or the session's joint one.
    ///
    /// # Errors
    ///
    /// Propagates an error from `flips`, and returns
    /// [`ChannelError::Malformed`] if the flips do not cover every OT.
    pub fn answer(
        &mut self,
        flips: impl FnOnce() -> Result<Vec<bool>, ChannelError>,
    ) -> Result<(SpcotAnswer, Vec<Block>), ChannelError> {
        let p = self.cfg.params;
        // The SPCOT's correlations are the front of the base; the rest,
        // the k LPN inputs, are read in place by the LPN phase.
        let spcot_base = CotSender::new(
            self.delta(),
            self.base.r0()[..self.cfg.spcot_cots()].to_vec(),
        );
        let mut w = Vec::with_capacity(p.n);
        let seeds: Vec<Block> = (0..p.t).map(|_| self.seeds.random_block()).collect();
        let prg_counter = &mut self.prg_counter;
        let answer = spcot_batch::answer(
            &self.cfg.spcot_config(),
            &spcot_base,
            &seeds,
            flips,
            &mut self.tweak,
            |i, leaves, counter| {
                *prg_counter += counter;
                let (start, width) = stripe(p, i);
                fold_leaves(&mut w, start, &leaves[..width]);
            },
        )?;
        w.resize(p.n, Block::ZERO);
        Ok((answer, w))
    }

    /// The LPN input `r`: the base past the SPCOT's correlations.
    fn lpn_input(&self) -> &[Block] {
        &self.base.r0()[self.cfg.spcot_cots()..]
    }

    /// Bootstrap: retains the tail of `z` as the next iteration's base;
    /// `z` itself, truncated, is the application's output (no copy of
    /// the large half).
    fn bootstrap(&mut self, mut z: Vec<Block>) -> Vec<Block> {
        let base = z.split_off(self.cfg.usable_outputs());
        self.base = CotSender::new(self.base.delta(), base);
        z
    }

    /// Runs one extension over `ch`, returning the application's
    /// `n − k − t·log2(ℓ)` fresh `r0` blocks (new correlations under the
    /// same `Δ`): sends the [`FerretSender::answer`] to the flips it
    /// receives, then runs the LPN phase `z = r·A ⊕ w` and the bootstrap.
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub fn extend<T: Transport + ?Sized>(
        &mut self,
        ch: &mut T,
    ) -> Result<Vec<Block>, ChannelError> {
        let (answer, mut z) = self.answer(|| ch.recv_bits())?;
        answer.send(ch)?;
        self.matrix.encode_blocks(self.lpn_input(), &mut z, |_| {});
        Ok(self.bootstrap(z))
    }
}

/// The receiver's extension in flight, from [`FerretReceiver::flips`] to
/// [`FerretReceiver::finish`].
#[derive(Debug)]
pub struct Punctures {
    /// Each tree's punctured position.
    alphas: Vec<usize>,
    /// The SPCOT base correlations the flips were made from.
    base: CotReceiver,
}

/// The receiver's long-lived extension state. Its base correlations are
/// blocks only: each carries its choice bit in bit 0.
#[derive(Debug)]
pub struct FerretReceiver {
    cfg: FerretConfig,
    /// The base correlations (length `k + t·log2(ℓ)`), choice bit in
    /// bit 0.
    base_rb: Vec<Block>,
    matrix: SessionMatrix,
    alphas: Dealer,
    tweak: u64,
    prg_counter: PrgCounter,
}

impl FerretReceiver {
    /// Creates the receiver from its base correlations, folding each
    /// dealt choice bit into bit 0 of its string (see
    /// [`FerretSender::new`]).
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
        let base_rb = base
            .rb()
            .iter()
            .zip(base.bits())
            .map(|(r, &b)| r.with_lsb(b))
            .collect();
        FerretReceiver {
            cfg,
            base_rb,
            matrix,
            alphas: Dealer::new(seed ^ 0xa1fa),
            tweak: 0,
            prg_counter: PrgCounter::new(),
        }
    }

    /// PRG calls consumed so far (all extensions).
    fn prg_counter(&self) -> PrgCounter {
        self.prg_counter
    }

    /// The receiver's first step of an extension: draws each tree's
    /// punctured position `α` and returns the flip vector of every
    /// SPCOT OT, made from the first `t·log2(ℓ)` base correlations (their
    /// choice bits read back from bit 0), with the [`Punctures`]
    /// [`FerretReceiver::finish`] takes.
    pub fn flips(&mut self) -> (Vec<bool>, Punctures) {
        let p = self.cfg.params;
        let spcot_rb = self.base_rb[..self.cfg.spcot_cots()].to_vec();
        let spcot_bits = spcot_rb.iter().map(|r| r.lsb()).collect();
        let base = CotReceiver::new(spcot_bits, spcot_rb);
        let alphas: Vec<usize> = (0..p.t)
            .map(|i| self.alphas.random_index(stripe(p, i).1))
            .collect();
        let flips = spcot_batch::flips(&self.cfg.spcot_config(), &base, &alphas);
        (flips, Punctures { alphas, base })
    }

    /// The receiver's last SPCOT step: recovers every tree of the
    /// extension [`FerretReceiver::flips`] began from the sender's
    /// [`FerretSender::answer`] into the returned `v` accumulator — each
    /// tree's leaves fold straight into its stripe and its one-hot noise
    /// bit lands in bit 0 at `α`. The extension ends with the LPN phase on
    /// `v`: [`FerretReceiver::extend`]'s, or the session's joint one.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Malformed`] if `answer` holds the wrong number of
    /// blocks.
    pub fn finish(
        &mut self,
        punctures: Punctures,
        answer: &SpcotAnswer,
    ) -> Result<Vec<Block>, ChannelError> {
        let Punctures { alphas, base } = punctures;
        let p = self.cfg.params;
        let mut v = Vec::with_capacity(p.n);
        let prg_counter = &mut self.prg_counter;
        spcot_batch::finish(
            &self.cfg.spcot_config(),
            &base,
            &alphas,
            answer,
            &mut self.tweak,
            |i, alpha, leaves, counter| {
                *prg_counter += counter;
                let (start, width) = stripe(p, i);
                fold_leaves(&mut v, start, &leaves[..width]);
                v[start + alpha] ^= Block::from(1u128);
            },
        )?;
        v.resize(p.n, Block::ZERO);
        Ok(v)
    }

    /// The LPN input `s`: the base past the SPCOT's correlations.
    fn lpn_input(&self) -> &[Block] {
        &self.base_rb[self.cfg.spcot_cots()..]
    }

    /// Bootstrap: the tail of `y` is the next base; `y` itself,
    /// truncated, is the block output.
    fn bootstrap(&mut self, mut y: Vec<Block>) -> Vec<Block> {
        self.base_rb = y.split_off(self.cfg.usable_outputs());
        y
    }

    /// Runs one extension over `ch`, returning the application's fresh
    /// `(x, y)` correlations (`z = y ⊕ x·Δ` against the sender's output):
    /// sends the [`FerretReceiver::flips`], [`FerretReceiver::finish`]es
    /// on the answer, then runs the LPN phase `y = s·A ⊕ v` — the
    /// sender's pass — reading `x`, bit 0 of `y`, off each row block as
    /// it finishes, and the bootstrap.
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub fn extend<T: Transport + ?Sized>(
        &mut self,
        ch: &mut T,
    ) -> Result<(Vec<bool>, Vec<Block>), ChannelError> {
        let (flips, punctures) = self.flips();
        ch.send_bits(&flips)?;
        let mut y = self.finish(punctures, &SpcotAnswer::recv(ch)?)?;
        let usable = self.cfg.usable_outputs();
        let mut x = Vec::with_capacity(usable);
        self.matrix.encode_blocks(self.lpn_input(), &mut y, |rows| {
            read_off_choice_bits(&mut x, usable, rows)
        });
        Ok((x, self.bootstrap(y)))
    }
}

/// Both parties of one session, run back to back on one
/// [`crate::session::CotSession`]'s thread with no channel between them.
#[derive(Debug)]
pub(crate) struct Parties {
    sender: FerretSender,
    receiver: FerretReceiver,
}

impl Parties {
    /// Builds both parties from `bases` (as [`deal`] deals them) on
    /// `cfg`, whose shared matrix the callers prebuild. Build them on the
    /// thread that extends them: a session whose parties were built on
    /// the spawning thread spent more CPU per COT whenever it had a core
    /// of its own.
    pub(crate) fn new(cfg: FerretConfig, bases: (CotSender, CotReceiver), seed: u64) -> Self {
        Parties {
            sender: FerretSender::new(cfg.clone(), bases.0, seed),
            receiver: FerretReceiver::new(cfg, bases.1, seed),
        }
    }

    /// One extension: the receiver's [`FerretReceiver::flips`], the
    /// sender's [`FerretSender::answer`] and the receiver's
    /// [`FerretReceiver::finish`], then both LPN phases `z = r·A ⊕ w` and
    /// `y = s·A ⊕ v` as one pass over the shared matrix (one read of the
    /// tile schedule, not one per party) with `x` read off `y` per
    /// finished row block, then both bootstraps. Only the public index
    /// stream is shared: each output depends on its own party's inputs
    /// alone, exactly as in [`FerretSender::extend`] and
    /// [`FerretReceiver::extend`]. Returns the matched outputs and the
    /// nanoseconds the SPCOT steps took (the rest is the LPN pass).
    pub(crate) fn extend(&mut self) -> (CotBatch, u64) {
        let Parties { sender, receiver } = self;
        let watch = Stopwatch::start();
        let (flips, punctures) = receiver.flips();
        let (answer, mut z) = sender
            .answer(|| Ok(flips))
            .expect("the flips cover every OT");
        let mut y = receiver
            .finish(punctures, &answer)
            .expect("the answer covers every OT");
        let spcot = watch.elapsed_nanos();
        let usable = receiver.cfg.usable_outputs();
        let mut x = Vec::with_capacity(usable);
        sender.matrix.encode_pair(
            sender.lpn_input(),
            receiver.lpn_input(),
            &mut z,
            &mut y,
            |rows| read_off_choice_bits(&mut x, usable, rows),
        );
        let batch = CotBatch {
            delta: sender.delta(),
            z: sender.bootstrap(z),
            x,
            y: receiver.bootstrap(y),
        };
        (batch, spcot)
    }
}

/// The result of [`run_extension`]: the matched correlations plus the
/// run's accounting, for tests and benches.
#[derive(Clone, Debug)]
pub struct FerretOutput {
    /// The output COTs (one per usable row) under the run's `Δ`.
    pub cots: CotBatch,
    /// Sender communication stats.
    pub sender_stats: ChannelStats,
    /// Receiver communication stats.
    pub receiver_stats: ChannelStats,
    /// Sender PRG calls.
    pub sender_prg: PrgCounter,
    /// Receiver PRG calls.
    pub receiver_prg: PrgCounter,
}

/// Field access reaches the batch (`out.z` is `out.cots.z`), as the
/// harness under `benchmark/` spells it.
impl std::ops::Deref for FerretOutput {
    type Target = CotBatch;

    fn deref(&self) -> &CotBatch {
        &self.cots
    }
}

/// A fresh session's base correlations for both parties, dealt from
/// `seed` (`Δ` first), as every driver deals them: the same seed gives
/// bit-identical outputs whichever runs the session.
pub(crate) fn deal(cfg: &FerretConfig, seed: u64) -> (CotSender, CotReceiver) {
    let mut dealer = Dealer::new(seed);
    let delta = dealer.random_delta();
    dealer.deal_cot(delta, cfg.base_cots_required())
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
    let (s_base, r_base) = deal(cfg, seed);
    let delta = s_base.delta();
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
            cots: CotBatch { delta, z, x, y },
            sender_stats: s_stats,
            receiver_stats: r_stats,
            sender_prg: s_prg,
            receiver_prg: r_prg,
        })
        .collect()
}

/// Test hooks that run a party's LPN pass on one tier rather than the
/// detected one, as `ironman-ggm`'s `OnTier` runs a tree's levels on one
/// level tier: every tier must give the same bits, and a process only
/// ever detects one.
#[cfg(test)]
impl FerretSender {
    pub(crate) fn on_tier(mut self, level: SimdLevel) -> Self {
        self.matrix.level = level;
        self
    }
}

#[cfg(test)]
impl FerretReceiver {
    pub(crate) fn on_tier(mut self, level: SimdLevel) -> Self {
        self.matrix.level = level;
        self
    }
}

#[cfg(test)]
impl Parties {
    /// Both parties, and so their joint pass, on `level`.
    pub(crate) fn on_tier(self, level: SimdLevel) -> Self {
        Parties {
            sender: self.sender.on_tier(level),
            receiver: self.receiver.on_tier(level),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The COTs of `iterations` chained extensions.
    fn cots(cfg: &FerretConfig, seed: u64, iterations: usize) -> Vec<CotBatch> {
        run_extensions(cfg, seed, iterations)
            .into_iter()
            .map(|out| out.cots)
            .collect()
    }

    /// [`run_extensions`]' bases and party seeds, but each party on its
    /// own config (its kernel is a local choice) and LPN tier: the COTs
    /// of `iterations` chained extensions.
    fn run_parties(
        (sender_cfg, sender_tier): (FerretConfig, SimdLevel),
        (receiver_cfg, receiver_tier): (FerretConfig, SimdLevel),
        seed: u64,
        iterations: usize,
    ) -> Vec<CotBatch> {
        let (s_base, r_base) = deal(&sender_cfg, seed);
        let delta = s_base.delta();
        let (zs, xys, _, _) = crate::channel::run_protocol(
            move |ch| {
                let mut sender = FerretSender::new(sender_cfg, s_base, seed).on_tier(sender_tier);
                (0..iterations)
                    .map(|_| sender.extend(ch).expect("sender extension"))
                    .collect::<Vec<_>>()
            },
            move |ch| {
                let mut receiver =
                    FerretReceiver::new(receiver_cfg, r_base, seed).on_tier(receiver_tier);
                (0..iterations)
                    .map(|_| receiver.extend(ch).expect("receiver extension"))
                    .collect::<Vec<_>>()
            },
        );
        zs.into_iter()
            .zip(xys)
            .map(|(z, (x, y))| CotBatch { delta, z, x, y })
            .collect()
    }

    #[test]
    fn toy_extension_verifies() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let out = run_extension(&cfg, 1).cots;
        assert_eq!(out.len(), cfg.usable_outputs());
        out.verify().expect("output COTs must be correlated");
    }

    #[test]
    fn baseline_binary_aes_verifies() {
        let cfg = FerretConfig::ferret_baseline(FerretParams::toy());
        run_extension(&cfg, 2).cots.verify().unwrap();
    }

    #[test]
    fn all_arities_verify() {
        for arity in Arity::SWEEP {
            let cfg = FerretConfig {
                arity,
                ..FerretConfig::new(FerretParams::toy())
            };
            run_extension(&cfg, 3)
                .cots
                .verify()
                .unwrap_or_else(|i| panic!("{arity}: COT {i} broken"));
        }
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
        let naive = cots(&naive_cfg, 40, 2);
        let tiled = cots(&tiled_cfg, 40, 2);
        assert_eq!(naive, tiled);
        tiled.last().unwrap().verify().unwrap();
    }

    #[test]
    fn mixed_kernel_parties_interoperate() {
        // The kernel choice never touches the wire, so a tiled sender
        // correlates with a naive receiver, and a naive sender with a
        // split receiver.
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        let tier = SimdLevel::detect();
        for (sender_kernel, receiver_kernel) in [
            (LpnKernel::Tiled, LpnKernel::Naive),
            (LpnKernel::Naive, LpnKernel::Split),
        ] {
            let party = |kernel| FerretConfig {
                kernel,
                ..naive_cfg.clone()
            };
            let cots = run_parties(
                (party(sender_kernel), tier),
                (party(receiver_kernel), tier),
                42,
                1,
            );
            assert_eq!(cots[0].len(), naive_cfg.usable_outputs());
            assert_eq!(
                cots[0].verify(),
                Ok(()),
                "{sender_kernel:?}/{receiver_kernel:?}"
            );
        }
    }

    #[test]
    fn recommended_picks_split_for_table4() {
        for p in FerretParams::TABLE4 {
            let cfg = FerretConfig::recommended(p);
            assert_eq!(cfg.kernel, LpnKernel::Split, "{p}");
        }
        // Toy-scale inputs are cache-resident; the simple path stays.
        assert_eq!(
            FerretConfig::recommended(FerretParams::toy()).kernel,
            LpnKernel::Naive
        );
    }

    #[test]
    fn split_kernel_matches_naive() {
        // Split only tiles the block pass ⇒ bit-identical outputs,
        // bootstrap included — with both parties on each tier this
        // machine runs (the unchecked tiled lane on AVX2 hosts).
        let naive_cfg = FerretConfig::new(FerretParams::toy());
        let naive = cots(&naive_cfg, 44, 2);
        let split_cfg = FerretConfig {
            kernel: LpnKernel::Split,
            ..naive_cfg
        };
        for &tier in SimdLevel::available() {
            let split = run_parties((split_cfg.clone(), tier), (split_cfg.clone(), tier), 44, 2);
            assert_eq!(naive, split, "{tier:?}");
            split.last().unwrap().verify().unwrap();
        }
    }

    #[test]
    fn every_party_tier_matches_the_detected_tier() {
        // The SIMD tier is pure instruction selection: outputs must be
        // bit-identical whichever tier each party runs.
        let cfg = FerretConfig {
            kernel: LpnKernel::Split,
            ..FerretConfig::new(FerretParams::toy())
        };
        let detected = run_extension(&cfg, 46).cots;
        for &sender_tier in SimdLevel::available() {
            for &receiver_tier in SimdLevel::available() {
                let cots = run_parties(
                    (cfg.clone(), sender_tier),
                    (cfg.clone(), receiver_tier),
                    46,
                    1,
                );
                assert_eq!(cots[0], detected, "{sender_tier:?}/{receiver_tier:?}");
            }
        }
    }

    const KERNELS: [LpnKernel; 3] = [LpnKernel::Naive, LpnKernel::Tiled, LpnKernel::Split];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Seeds × {toy, toy_large} × every arity × each party's own kernel
        /// and tier, four chained extensions: every output verifies, `Δ`
        /// is odd, every `z` is even, `x` is bit 0 of `y` — and the whole
        /// `(z, x, y)` stream is the naive session's at the detected tier,
        /// bit for bit, so mixed-kernel and mixed-tier parties
        /// interoperate.
        #[test]
        fn bit0_convention_holds_across_kernels_tiers_and_bootstraps(
            seed in any::<u64>(),
            large in any::<bool>(),
            arity in 0..Arity::SWEEP.len(),
            sender_kernel in 0..KERNELS.len(),
            sender_tier in 0..SimdLevel::available().len(),
            receiver_kernel in 0..KERNELS.len(),
            receiver_tier in 0..SimdLevel::available().len(),
        ) {
            const CHAINED: usize = 4;
            let params = if large { FerretParams::toy_large() } else { FerretParams::toy() };
            let base_cfg = FerretConfig {
                arity: Arity::SWEEP[arity],
                ..FerretConfig::new(params)
            };
            let party = |kernel: usize, tier: usize| {
                let cfg = FerretConfig {
                    kernel: KERNELS[kernel],
                    ..base_cfg.clone()
                };
                (cfg, SimdLevel::available()[tier])
            };
            let outs = run_parties(
                party(sender_kernel, sender_tier),
                party(receiver_kernel, receiver_tier),
                seed,
                CHAINED,
            );
            let reference = cots(&base_cfg, seed, CHAINED);
            for (i, (out, want)) in outs.iter().zip(&reference).enumerate() {
                prop_assert_eq!(out.len(), base_cfg.usable_outputs(), "extension {}", i);
                prop_assert_eq!(out.verify(), Ok(()), "extension {}", i);
                prop_assert!(out.delta.lsb(), "delta must be odd");
                for j in 0..out.len() {
                    prop_assert!(!out.z[j].lsb(), "extension {} z[{}]", i, j);
                    prop_assert_eq!(out.x[j], out.y[j].lsb(), "extension {} x[{}]", i, j);
                }
                prop_assert_eq!(out, want, "extension {}", i);
            }
        }
    }

    #[test]
    fn shared_matrix_produces_identical_outputs() {
        // (The "one generate for N consumers" count is asserted in
        // this crate's single-test `shared_matrix` binary, where the
        // process-global counter is race-free.)
        let mut cfg = FerretConfig::new(FerretParams::toy());
        cfg.ensure_shared_matrix();
        assert!(cfg.shared_matrix.is_some());
        cots(&cfg, 47, 2).last().unwrap().verify().unwrap();
        // Outputs are identical to the generate-per-party path.
        let fresh = FerretConfig::new(FerretParams::toy());
        assert_eq!(run_extension(&fresh, 48).cots, run_extension(&cfg, 48).cots);
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
    #[should_panic(expected = "different LPN configuration")]
    fn shared_matrix_of_the_other_stored_form_rejected() {
        // A naive-kernel config shares row-major `colidx`; a tiled kernel
        // replays a schedule and cannot read it.
        let mut cfg = FerretConfig::new(FerretParams::toy());
        cfg.ensure_shared_matrix();
        let tiled = FerretConfig {
            kernel: LpnKernel::Tiled,
            ..cfg
        };
        let _ = tiled.build_matrix();
    }

    #[test]
    #[should_panic(expected = "delta must have bit 0 set")]
    fn even_delta_rejected() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let mut dealer = Dealer::new(50);
        let delta = dealer.random_delta().with_lsb(false);
        let (s_base, _) = dealer.deal_cot(delta, cfg.base_cots_required());
        let _ = FerretSender::new(cfg, s_base, 50);
    }

    #[test]
    fn parties_put_dealt_bases_into_bit0_form() {
        // Whatever bit 0 the dealt strings had, the constructors leave
        // the sender's clear and the receiver's equal to its choice bit —
        // still correlated under the odd Δ.
        let cfg = FerretConfig::new(FerretParams::toy());
        let mut dealer = Dealer::new(51);
        let delta = dealer.random_delta();
        let (s_base, r_base) = dealer.deal_cot(delta, cfg.base_cots_required());
        let bits = r_base.bits().to_vec();
        let sender = FerretSender::new(cfg.clone(), s_base, 51);
        let receiver = FerretReceiver::new(cfg, r_base, 51);
        for (i, (&r0, &rb)) in sender.base.r0().iter().zip(&receiver.base_rb).enumerate() {
            assert!(!r0.lsb(), "sender string {i}");
            assert_eq!(rb.lsb(), bits[i], "receiver string {i}");
            assert_eq!(rb, r0 ^ delta.and_bit(bits[i]), "correlation {i}");
        }
    }

    #[test]
    fn multi_iteration_bootstrap() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let outs = cots(&cfg, 5, 3);
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
        let outs = cots(&cfg, 9, 4);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.len(), cfg.usable_outputs(), "iteration {i}");
            assert_eq!((out.x.len(), out.y.len()), (out.len(), out.len()));
            out.verify()
                .unwrap_or_else(|j| panic!("iteration {i}, COT {j} broken"));
        }
        assert_ne!(outs[2].z, outs[3].z);
    }

    #[test]
    fn fewer_trees_than_stripes_bootstrap_stays_correlated() {
        // t = 12 trees over 20 stripes, as on Table 4's 2^23 and 2^24
        // rows: the accumulator's last stripes get no tree and are
        // zero-filled after SPCOT. Three chained extensions all verify.
        let params = FerretParams {
            t: 12,
            ..FerretParams::toy()
        };
        assert!(params.t < params.stripes());
        let cfg = FerretConfig::new(params);
        let outs = cots(&cfg, 52, 3);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.len(), cfg.usable_outputs(), "iteration {i}");
            out.verify()
                .unwrap_or_else(|j| panic!("iteration {i}, COT {j} broken"));
        }
    }

    #[test]
    fn mixed_fanout_params_verify() {
        // toy_large uses ℓ=512 (4^4·2 with quad trees → mixed final level).
        let cfg = FerretConfig::new(FerretParams::toy_large());
        run_extension(&cfg, 6).cots.verify().unwrap();
    }

    #[test]
    fn noise_bits_present() {
        let cfg = FerretConfig::new(FerretParams::toy());
        let out = run_extension(&cfg, 7).cots;
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
