//! Telemetry primitives for the Ironman serving stack: lock-free
//! latency histograms, bounded event tracing and windowed series.
//!
//! The fleet's wire-v5 `Stats` were throughput averages and monotonic
//! counters; diagnosing tail behavior (the thing memory-bound MPC
//! serving is actually constrained by — see the paper's latency
//! *breakdowns*, not aggregates) needs distributions and timelines.
//! This crate provides both, under one hot-path contract:
//!
//! - [`Histogram`] — a fixed array of relaxed-atomic log buckets
//!   (16 sub-buckets per octave). Recording is three relaxed RMWs, no
//!   locks, no allocation. Quantiles extracted from a
//!   [`HistogramSnapshot`] overstate the true sample by at most
//!   **6.25%** (one bucket width; exact below 32 ns), and snapshots
//!   merge losslessly — fleet-wide aggregation is a merge-join of
//!   sparse bucket lists whose quantiles bracket the inputs'.
//! - [`TraceLog`] — a bounded ring of timestamped [`TraceEvent`]s
//!   (extension/stall edges, chunk pushes, credit waits, refills,
//!   epoch fences, failovers) on one process-wide clock
//!   ([`now_nanos`]), dumpable on demand.
//! - [`TimeSeries`] — bounded retention of timestamped snapshots, with
//!   window-baseline lookup and a reset-aware [`counter_rate`]. Paired
//!   with [`HistogramSnapshot::delta`] (monotone-checked subtraction of
//!   an older cumulative snapshot) it turns lifetime telemetry into
//!   windowed views: "p99 over the last 5 s", not "p99 since boot".
//!
//! # The `noop` feature
//!
//! Building with `--features noop` compiles [`Histogram::record`] and
//! [`TraceLog::push`] to empty bodies and [`Stopwatch`] to a zero-sized
//! type that never reads the clock. The
//! data structures, snapshots, and wire codecs remain, so everything
//! still compiles and returns (empty) answers. CI runs the hot-path
//! bench in both configurations and fails if the instrumented build is
//! more than 3% slower — the "measurably free" contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod timeseries;
mod trace;

pub use histogram::{
    bucket_ceiling, bucket_floor, bucket_index, Histogram, HistogramSnapshot, Stopwatch,
    ENCODED_MIN_LEN, NUM_BUCKETS,
};
pub use timeseries::{counter_rate, SeriesPoint, TimeSeries};
pub use trace::{
    merge_dumps, now_nanos, pack_phase_split, unpack_phase_split, EventKind, TraceEvent, TraceLog,
    DEFAULT_TRACE_CAPACITY,
};
