//! GGM trees for the Ironman OT-extension reproduction.
//!
//! The SPCOT sub-protocol (paper §2.3.1) has both parties build
//! Goldreich–Goldwasser–Micali trees: the sender expands a random seed into
//! `ℓ` leaves; the receiver reconstructs every leaf *except* one punctured
//! position `α` from per-level XOR sums obtained through OT.
//!
//! This crate provides:
//!
//! * [`Arity`] — validated tree arity `m ∈ {2, 4, 8, 16, 32}` (§4.1's sweep).
//! * [`GgmTree`] — the sender's full local expansion with level sums
//!   (`K^i_j`, Table 1) and primitive-call accounting.
//! * [`PuncturedTree`] — the receiver's reconstruction from level sums,
//!   generic over arity. Both own their level buffers and re-run in
//!   place, so a batch of trees streams through one allocation.
//!
//! # The software schedule: lanes as pipeline stages
//!
//! §4.3's Hybrid schedule keeps the pipelined ChaCha8 core busy by
//! issuing a level's independent parents back to back and letting other
//! trees fill the bubbles of the narrow top levels (the cycle model that
//! counts those bubbles is `ironman_nmp::schedule`). The software trees
//! run the same order with SIMD lanes standing in for pipeline stages:
//! [`GgmTree::expand_from`] and [`PuncturedTree::reconstruct_at`] hand
//! each level to [`ironman_prg::TreePrg::expand_level`] in one call (the
//! receiver in two runs, split around its punctured parent), which for
//! ChaCha fills a sixteen-lane (AVX-512) or eight-lane (AVX2) vector per
//! instruction; a level or run narrower than a vector is the software's
//! pipeline bubble and runs as one padded vector. Branch sums and the
//! leaf sum are folded in one strided pass per level, right after the
//! kernel wrote it.
//!
//! **Bit-identity contract.** The level-at-a-time trees produce exactly
//! the nodes, level sums, leaf sums and [`ironman_prg::PrgCounter`]
//! totals of the per-parent loops they replaced; those loops live on as
//! the `#[cfg(test)]` oracle (`src/oracle.rs`) every arity, tree size
//! and punctured index is checked against.
//!
//! # Example
//!
//! ```
//! use ironman_ggm::{Arity, GgmTree, PuncturedTree};
//! use ironman_prg::{Block, ChaChaTreePrg};
//!
//! let prg = ChaChaTreePrg::new(Block::from(7u128), 8);
//! let tree = GgmTree::expand(&prg, Block::from(1u128), Arity::QUAD, 64);
//! let alpha = 17;
//! let sums = tree.level_sums();
//! let punct = PuncturedTree::reconstruct(&prg, Arity::QUAD, 64, alpha, |lvl, j| {
//!     // The receiver obtains every sum except the punctured branch via OT.
//!     sums[lvl][j]
//! });
//! for (i, leaf) in punct.leaves().iter().enumerate() {
//!     if i != alpha {
//!         assert_eq!(*leaf, tree.leaves()[i]);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arity;
#[cfg(test)]
mod oracle;
pub mod punctured;
pub mod tree;

pub use arity::Arity;
pub use punctured::PuncturedTree;
pub use tree::{GgmTree, LevelShape};
