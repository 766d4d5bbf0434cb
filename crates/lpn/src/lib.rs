//! LPN encoding for the Ironman OT-extension reproduction.
//!
//! §2.3.2 of the paper: after SPCOT, both parties locally multiply their
//! length-`k` pre-generated vectors by a fixed sparse binary matrix `A`
//! (each row has exactly `d = 10` nonzero entries) and XOR the result onto
//! their length-`n` SPCOT outputs:
//!
//! * sender:   `z = r·A ⊕ w`
//! * receiver: `x = e·A ⊕ u` (bits), `y = s·A ⊕ v` (blocks)
//!
//! `ironman-ot` carries the receiver's choice bit in bit 0 of its block
//! (`Δ` has bit 0 set), so `x` is bit 0 of `y` and an extension runs the
//! *same single block pass* on both parties; the packed-bit lanes below
//! are what a separate `x = e·A ⊕ u` pass costs, kept for the benchmark
//! harness's probe.
//!
//! Because `A`'s entries are bits, each output element is the XOR of `d`
//! randomly indexed elements of the input vector — a pure random-access
//! workload, which is why LPN is memory-bandwidth-bound (Fig. 1c) and why
//! Ironman sorts the index matrix at compile time (§5.3; that sort is
//! hardware-model code and lives in `ironman_nmp::sorting`).
//!
//! This crate provides the matrix ([`LpnMatrix`]), the encoder
//! ([`encoder`]), the cache-blocked online schedule
//! ([`tile::TileSchedule`]) and the packed-bit lane
//! ([`bits::PackedBits`]).
//!
//! # Software kernels ↔ paper mechanisms
//!
//! Ironman fixes LPN's memory-boundedness with near-memory hardware; this
//! crate applies each mechanism's *idea* in software, on the online path:
//!
//! | software kernel | paper mechanism | shared idea |
//! |---|---|---|
//! | [`tile::TileSchedule`] — offline (row-block × column-tile) bucketing of the fixed gather set, executed tile-major; at Table-4 scale the only stored form of the matrix ([`tile::TileSchedule::generate`]) | memory-side cache fed by §5.3 offline index sorting | the access stream is known ahead of time, so reorder it **once** so the live window always fits the nearest memory |
//! | [`bits::PackedBits`] — a GF(2) `e`/`u`/`x` bit lane in `u64` words (8× smaller than `Vec<bool>`; `k = 168K` shrinks 168 KB → ~21 KB, L1-resident) | rank-level bandwidth: NMP wins by moving fewer DRAM bytes per useful bit | shrink bytes-per-bit so the same cache holds 8× more of the working set |
//! | [`encoder::XorLane`] — one generic XOR-accumulate core behind every traversal × element type | the paper's single LPN datapath parameterized by operand width | the kernel is one circuit; only the operand format varies |
//! | [`simd`] — runtime-dispatched AVX2/BMI2 lanes (XMM 128-bit `Block` XORs, unchecked 4-way-pipelined bucket loop) behind [`simd::SimdLevel::detect`], scalar fallback always available | the paper's datapath is a *wide* XOR engine (rank-level parallel XOR units) | the XOR circuit is wider than one word; use the widest the hardware offers |
//! | the wide tier's row-major bit pass ([`simd::encode_bits_packed`]) — eight column indices per `VPGATHERDD` of the packed `e`, probed bits collected by `VMOVMSKPS`, each row's `d`-bit window folded to one parity bit | rank-level parallelism: every rank probes its own slice of a memory-side-cache-resident operand at once | when the operand fits the nearest memory (21 KB of `e` in L1), the gathers stop being memory accesses and become lanes of one instruction |
//!
//! # Example
//!
//! ```
//! use ironman_lpn::{LpnMatrix, encoder};
//! use ironman_prg::Block;
//!
//! let m = LpnMatrix::generate(100, 40, 10, Block::from(1u128));
//! let r: Vec<Block> = (0..40u128).map(Block::from).collect();
//! let mut w = vec![Block::ZERO; 100];
//! encoder::encode_blocks(&m, &r, &mut w);
//! // The cache-blocked schedule computes the same product tile-major.
//! let mut w2 = vec![Block::ZERO; 100];
//! m.tile_schedule().encode_blocks(&r, &mut w2);
//! assert_eq!(w, w2);
//! ```

// `deny` (not `forbid`) so the [`simd`] module alone may opt in to the
// feature-gated intrinsics behind a scoped `#[allow(unsafe_code)]`;
// every other module still rejects `unsafe` at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod encoder;
pub mod matrix;
pub mod simd;
pub mod tile;

pub use bits::PackedBits;
pub use matrix::LpnMatrix;
pub use simd::SimdLevel;
pub use tile::{TileConfig, TileSchedule};

/// The paper's row weight: every row of `A` has exactly ten nonzeros.
pub const DEFAULT_ROW_WEIGHT: usize = 10;
