//! Cycle-level DDR4 DRAM timing model of one rank (the workspace's
//! Ramulator substitute).
//!
//! The model covers what the Ironman evaluation depends on:
//!
//! * the DDR4-2400 timing parameters of the paper's Table 3 (tRCD, tCL,
//!   tRP, tRC, tRRD_S/L, tFAW, tCCD_S/L, tBL) driving open-row hits vs.
//!   row-buffer misses,
//! * bank/bank-group state machines per rank,
//! * an FR-FCFS scheduler (first-ready, first-come-first-served) with a
//!   bounded reorder window, and
//! * per-rank statistics: row hits, misses and empty-bank activations,
//!   the drain cycle and the average access latency.
//!
//! The LPN encoder's random element reads are what this model exists for:
//! [`crate::rank_lpn`] replays the cache-miss stream of each Rank-NMP
//! module through a [`RankSim`] to obtain the cycle counts behind
//! Figs. 12–14. Every request is a line read present at cycle 0.
//!
//! # Example
//!
//! ```
//! use ironman_nmp::dram::{DramConfig, RankSim, Request};
//!
//! let cfg = DramConfig::ddr4_2400();
//! let mut rank = RankSim::new(cfg);
//! let reqs: Vec<Request> = (0..64).map(|i| Request::read(i * 64)).collect();
//! let stats = rank.run(&reqs);
//! assert_eq!(stats.reads, 64);
//! assert!(stats.row_hits > 0); // sequential lines mostly hit the open row
//! ```

mod address;
mod config;
mod rank;
mod stats;

pub use config::{DramConfig, DramTiming};
pub use rank::{RankSim, Request};
pub use stats::DramStats;
