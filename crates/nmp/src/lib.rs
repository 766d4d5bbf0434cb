//! The Ironman-NMP architecture model (paper §5, Fig. 9).
//!
//! Ironman places one processing unit on each DIMM's buffer chip:
//!
//! * a **DIMM-NMP module** with pipelined ChaCha8 cores (GGM tree
//!   expansion), a **unified unit** (an XOR tree acting as Key Generator
//!   for the sender or Message Decoder for the receiver) and a node
//!   buffer — this executes SPCOT;
//! * two **Rank-NMP modules**, each owning one DRAM rank, with an index
//!   address generator and a **memory-side cache** — these execute the LPN
//!   gather with rank-level parallelism.
//!
//! This crate is the *timing* model: it consumes work descriptions and
//! access traces from the functional crates and produces cycle counts
//! from its own schedule, cache and DRAM models. [`OteSimulator`] is its
//! one timing path: Figures 12, 13 and 14, `ironman-core`'s timing
//! estimates and the benchmark's `nmp.*`/`cache.*` rows all read it.
//!
//! * [`config`] — the deployment: active ranks, cores, caches, DRAM.
//! * [`schedule`] — §4.3's GGM expansion schedules (depth-first,
//!   breadth-first, Hybrid) fed to an `S`-stage pipelined PRG core,
//!   simulated cycle by cycle (Fig. 8's bubbles and utilization).
//! * [`dimm`] — SPCOT on the DIMM-NMP cores, with the unified unit's
//!   XOR-tree cycles.
//! * [`sorting`] — §5.3's offline column sort of the LPN index array,
//!   whose access trace the rank model replays.
//! * [`rank_lpn`] — the LPN gather on one rank: index stream, then
//!   [`cache`] (the memory-side SRAM cache), then [`dram`] (the rank's
//!   DDR4 timing under FR-FCFS).
//! * [`ote`] — the composition: SPCOT overlapped with LPN, plus the
//!   offload residual (§5.1).
//! * [`unified`] — the unit's two modes ([`Role`]).
//!
//! Fig. 9's host-to-PU interface (the memory controller issuing NMP
//! instructions that the DIMM module dispatches to its ranks) is
//! described, not modelled: the simulator takes the work an instruction
//! stream would carry, split evenly over DIMMs and ranks.
//!
//! # Example
//!
//! ```
//! use ironman_nmp::{NmpConfig, OteSimulator, OteWork};
//!
//! let cfg = NmpConfig::with_ranks_and_cache(16, 1024 * 1024);
//! let sim = OteSimulator::new(cfg);
//! let work = OteWork::ferret_2ary_aes(1 << 14, 64, 24, 1024, 10);
//! let report = sim.simulate(&work, 0x5eed);
//! assert!(report.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dimm;
pub mod dram;
pub mod ote;
pub mod rank_lpn;
pub mod schedule;
pub mod sorting;
pub mod unified;

pub use config::NmpConfig;
pub use dimm::{DimmSpcotReport, SpcotWork};
pub use ote::{OteReport, OteSimulator, OteWork};
pub use rank_lpn::{LpnWork, RankLpnReport};
pub use unified::Role;
