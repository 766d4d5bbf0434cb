//! Cycle-level DDR4 DRAM timing model (the workspace's Ramulator
//! substitute).
//!
//! The model covers what the Ironman evaluation depends on:
//!
//! * the DDR4-2400 timing parameters of the paper's Table 3 (tRCD, tCL,
//!   tRP, tRC, tRRD_S/L, tFAW, tCCD_S/L, tBL) driving open-row hits vs.
//!   row-buffer misses,
//! * bank/bank-group state machines per rank,
//! * an FR-FCFS scheduler (first-ready, first-come-first-served) with a
//!   bounded reorder window, and
//! * per-rank statistics: row hit rate, sustained bandwidth, average
//!   access latency.
//!
//! The LPN encoder's random element reads are what this model exists for:
//! `ironman-nmp` replays the (sorted or unsorted) access trace of each
//! Rank-NMP module through a [`RankSim`] to obtain the cycle counts behind
//! Figs. 12–14.
//!
//! # Example
//!
//! ```
//! use ironman_dram::{DramConfig, RankSim, Request};
//!
//! let cfg = DramConfig::ddr4_2400();
//! let mut rank = RankSim::new(cfg);
//! let reqs: Vec<Request> = (0..64).map(|i| Request::read(i * 64)).collect();
//! let stats = rank.run(&reqs);
//! assert_eq!(stats.reads, 64);
//! assert!(stats.row_hits > 0); // sequential lines mostly hit the open row
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod config;
pub mod controller;
pub mod dimm;
pub mod rank;
pub mod stats;

pub use address::{AddressMapping, DecodedAddr};
pub use config::{DramConfig, DramTiming};
pub use controller::{ControllerStats, MemoryController, SystemGeometry};
pub use dimm::{DimmSim, DimmStats};
pub use rank::{RankSim, Request, RequestKind};
pub use stats::DramStats;
