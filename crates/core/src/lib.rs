//! # Ironman: near-memory OT extension, end to end
//!
//! `ironman-core` is the public facade of the Ironman reproduction: it
//! couples the *functional* PCG-style OT extension of [`ironman_ot`] with
//! the *timing* backends (the Ironman-NMP simulator of [`ironman_nmp`] and
//! the CPU/GPU analytical baselines of [`ironman_perf`]) and offers the
//! online conversions applications actually consume (COT → random OT →
//! chosen-message OT, Fig. 2 of the paper).
//!
//! Correlations reach the application as [`CotBatch`]es, or as
//! [`CotSlice`] views of a pool's buffer. Both are
//! [`ironman_ot::cot`]'s types, re-exported here; `verify()` checks
//! `z = y ⊕ x·Δ`. [`Engine`] runs timed extensions, [`CotPool`] and
//! [`SharedCotPool`] buffer them for serving, and [`rot`] turns them into
//! random and chosen-message OTs.
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
pub mod pool;
pub mod rot;
pub mod shared_pool;
pub mod speedup;

pub use engine::{Backend, Engine, ExtensionRun, Timing};
pub use ironman_ot::cot::{CotBatch, CotSlice};
pub use pool::CotPool;
pub use rot::{RotReceiver, RotSender};
pub use shared_pool::{ShardSnapshot, SharedCotPool};
pub use speedup::{speedup_table, SpeedupRow};
