//! # Ironman: near-memory OT extension, end to end
//!
//! `ironman-core` is the timing facade of the Ironman reproduction: it
//! couples the *functional* PCG-style OT extension of [`ironman_ot`] with
//! the *timing* backends (the Ironman-NMP simulator of [`ironman_nmp`] and
//! the CPU/GPU analytical baselines of [`ironman_perf`]) and offers the
//! online conversions applications actually consume (COT → random OT →
//! chosen-message OT, Fig. 2 of the paper).
//!
//! [`Engine`] runs timed extensions and [`rot`] turns their
//! [`CotBatch`]es (or [`CotSlice`] views; `verify()` checks
//! `z = y ⊕ x·Δ`) into random and chosen-message OTs. The COT types and
//! the serving pools, [`CotPool`] and [`SharedCotPool`], are
//! [`ironman_ot`]'s, re-exported here: a pool needs only a
//! `FerretConfig`, so the serving crates build on `ironman-ot` and never
//! link the timing models.
//!
//! # Quickstart
//!
//! ```
//! use ironman_core::{Backend, Engine};
//! use ironman_ot::ferret::FerretConfig;
//! use ironman_ot::params::FerretParams;
//!
//! // A toy parameter set (runs in milliseconds); production sets are
//! // FerretParams::TABLE4.
//! let cfg = FerretConfig::new(FerretParams::toy());
//! let engine = Engine::new(cfg, Backend::ironman_default());
//! let run = engine.run_one(42);
//! run.cots.verify().unwrap();
//! assert!(run.timing.ironman_ms.unwrap() < run.timing.cpu_model_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rot;
pub mod speedup;

pub use engine::{Backend, Engine, ExtensionRun, Timing};
pub use ironman_ot::{CotBatch, CotPool, CotSlice, ShardSnapshot, SharedCotPool};
pub use rot::{RotReceiver, RotSender};
pub use speedup::{speedup_table, SpeedupRow};
