//! Cryptographic primitives for the Ironman OT-extension reproduction.
//!
//! This crate provides the building blocks that every other crate in the
//! workspace consumes:
//!
//! * [`Block`] — a 128-bit block (the unit of all COT correlations, GGM tree
//!   nodes and LPN vector elements; `λ = 128` throughout the paper).
//! * [`aes::Aes128`] — FIPS-197 AES-128, the cipher behind the paper's
//!   baseline double-length PRG `G(s) = (AES_{k0}(s) ⊕ s, AES_{k1}(s) ⊕ s)`,
//!   the LPN index stream and the CRHF. It runs on `VAESENC` or `AESENC`
//!   where x86-64 has them and on a from-scratch byte-wise cipher
//!   elsewhere (and under `IRONMAN_SIMD=scalar`); every tier is pinned to
//!   the FIPS-197 vectors and to the others.
//! * [`chacha::ChaCha`] — a from-scratch ChaCha permutation with a
//!   configurable round count (ChaCha8 is the paper's hardware PRG of
//!   choice; it emits 512 bits — four blocks — per call).
//! * [`TreePrg`] — the *m*-output PRG abstraction the GGM-tree layer builds
//!   on, with primitive-call accounting so that the paper's operation-count
//!   arguments (Fig. 6, Fig. 7a) can be measured rather than asserted.
//! * [`level`] — the lane-parallel ChaCha level kernel behind
//!   [`TreePrg::expand_level`]: sixteen parents per AVX-512 vector (eight
//!   per AVX2 vector where AVX-512 is absent), the SIMD lanes standing in
//!   for the stages of the paper's pipelined ChaCha8 core (§4.3),
//!   bit-identical to the per-parent [`TreePrg::expand`].
//! * [`crhf::Crhf`] — the correlation-robust hash used to convert COT
//!   correlations into standard OTs (Fig. 2).
//! * [`cpu`] — the one decision behind every kernel tier, this crate's
//!   and `ironman-lpn`'s: the CPU features, detected once per process,
//!   and the `IRONMAN_SIMD=scalar` override.
//!
//! # Example
//!
//! ```
//! use ironman_prg::{Block, ChaChaTreePrg, TreePrg};
//!
//! let prg = ChaChaTreePrg::new(Block::from(42u128), 8);
//! let mut children = [Block::ZERO; 4];
//! let calls = prg.expand(Block::from(7u128), &mut children);
//! assert_eq!(calls, 1); // one ChaCha8 call yields four child blocks
//! assert!(children.iter().all(|c| *c != Block::ZERO));
//! ```

// `deny` (not `forbid`) so [`block`] (the little-endian wire views and
// copies), [`level`] (the lane-parallel ChaCha kernel) and [`aes`] (the
// AES-NI and VAES kernels) may opt in behind scoped `#[allow(unsafe_code)]`;
// every other module still rejects `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod block;
pub mod chacha;
pub mod counter;
pub mod cpu;
pub mod crhf;
pub mod level;
pub mod tree_prg;

pub use aes::{Aes128, AesTier};
pub use block::Block;
pub use chacha::{ChaCha, CHACHA_BLOCK_BYTES};
pub use counter::PrgCounter;
pub use crhf::Crhf;
pub use level::LevelTier;
pub use tree_prg::{AesTreePrg, ChaChaTreePrg, PrgKind, TreePrg};
