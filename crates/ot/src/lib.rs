//! Two-party OT-extension protocols for the Ironman reproduction.
//!
//! This crate implements the *functional* (cryptographic) layer of the
//! paper's PCG-style OT extension, faithfully to §2 of the paper:
//!
//! * [`channel`] — byte-counting duplex channels plus a two-thread protocol
//!   executor, so every protocol's communication cost is *measured*, not
//!   assumed (Fig. 7b depends on this).
//! * [`dealer`] — the ideal base-correlation dealer standing in for the
//!   one-time PKC initialization phase (excluded from all of the paper's
//!   measurements).
//! * [`cot`] — the COT batch every extension, session and pool hands
//!   out ([`CotBatch`], borrowed as [`CotSlice`]), its one check of
//!   `z = y ⊕ x·Δ`, and the per-party halves ([`CotSender`],
//!   [`CotReceiver`]).
//! * [`chosen`] — chosen-message 1-out-of-2 OT from a COT correlation plus
//!   the correlation-robust hash (Fig. 2's online phase).
//! * [`spcot`] — the configuration of the single-point COT sub-protocol
//!   over GGM trees, generic over arity and PRG (the §4.1 optimization
//!   space).
//! * [`spcot_batch`] — the SPCOT protocol: every OT of an extension's `t`
//!   trees (the §4.2 (m−1)-out-of-m OT from an m-leaf pad tree on m-ary
//!   levels) in one chosen-OT batch, one round trip per extension — three
//!   channel-free steps, with [`Transport`] drivers over them.
//! * [`ferret`] — the Ferret-style OTE main loop: `t` SPCOTs + LPN encoding
//!   per extension, with bootstrapping of the next iteration's base COTs.
//! * [`session`] — a persistent two-party FERRET session that stages
//!   extension outputs ahead of demand on one background thread.
//! * [`pool`] — [`CotPool`], which buffers a session's (or fresh
//!   extensions') batches and serves takes of any size, and
//!   [`shared_pool`]'s [`SharedCotPool`], its mutex-sharded form with
//!   lock-free per-shard counters ([`ShardSnapshot`]): what the serving
//!   crates drain. A pool needs only a [`ferret::FerretConfig`].
//! * [`iknp`] — the IKNP extension, the §2.3 communication baseline.
//! * [`params`] — Table 4's parameter sets with the bit-security estimate.
//!
//! # Example: one full extension
//!
//! ```
//! use ironman_ot::ferret::{self, FerretConfig};
//! use ironman_ot::params::FerretParams;
//!
//! let params = FerretParams::toy(); // scaled-down set for tests/docs
//! let cfg = FerretConfig::new(params);
//! let out = ferret::run_extension(&cfg, 0xfeed);
//! assert_eq!(out.cots.len(), cfg.usable_outputs());
//! out.cots.verify().unwrap(); // checks z = y ⊕ x·Δ on every output COT
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod chosen;
pub mod cot;
pub mod dealer;
pub mod ferret;
pub mod iknp;
pub mod params;
pub mod pool;
pub mod session;
pub mod shared_pool;
pub mod spcot;
pub mod spcot_batch;

pub use channel::{run_protocol, ChannelStats, LocalChannel, Transport};
pub use cot::{CotBatch, CotReceiver, CotSender, CotSlice};
pub use dealer::Dealer;
pub use params::FerretParams;
pub use pool::CotPool;
pub use session::{CotSession, SessionStopped, SessionTelemetry};
pub use shared_pool::{ShardSnapshot, SharedCotPool};
