//! Rank-NMP module: the LPN gather engine (paper §5.1.2, Fig. 9(c)).
//!
//! Each rank module receives its row partition of the LPN matrix, streams
//! the `Colidx` array from its rank (sequential, bandwidth-friendly),
//! checks every element access against the memory-side cache, and sends
//! misses to the DRAM rank under FR-FCFS. Cache hits feed the XOR tree at
//! `hit_lanes` elements per cycle.

use crate::cache::{Cache, CacheStats};
use crate::dram::{DramStats, RankSim, Request};
use crate::NmpConfig;
use ironman_prg::Block;
use serde::{Deserialize, Serialize};

/// The LPN work assigned to one rank module.
#[derive(Clone, Debug)]
pub struct LpnWork {
    /// Element-index access trace (each entry reads one 16-byte element of
    /// the length-`k` input vector).
    pub trace: Vec<u32>,
    /// Total accesses this trace stands for. When the trace is a sampled
    /// prefix of a huge matrix, the simulator scales its cycle counts by
    /// `represented_accesses / trace.len()`.
    pub represented_accesses: u64,
}

impl LpnWork {
    /// Work that is fully materialized (no sampling).
    pub fn exact(trace: Vec<u32>) -> Self {
        let represented = trace.len() as u64;
        LpnWork {
            trace,
            represented_accesses: represented,
        }
    }

    /// The scale factor applied to simulated cycles.
    pub fn scale(&self) -> f64 {
        if self.trace.is_empty() {
            1.0
        } else {
            self.represented_accesses as f64 / self.trace.len() as f64
        }
    }
}

/// Simulation result for one rank module.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankLpnReport {
    /// Total cycles to drain the gather (after sampling scale-up).
    pub cycles: u64,
    /// Memory-side cache statistics (of the simulated sample).
    pub cache: CacheStats,
    /// DRAM statistics of the miss stream (of the simulated sample).
    pub dram: DramStats,
    /// Cycles spent streaming the Colidx array.
    pub index_stream_cycles: u64,
}

impl RankLpnReport {
    /// Cache hit rate of the gather.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

/// Runs one rank module's gather.
///
/// The model: every element access probes the cache (element address =
/// `index · 16`). Misses become 64-byte line reads replayed through the
/// DDR4 rank model. The rank's issue logic retires up to
/// `cfg.hit_lanes` hit elements per cycle; DRAM work and the sequential
/// Colidx stream share the rank's data bus, so the gather drains in
/// `max(issue cycles, DRAM cycles + index-stream cycles)`.
pub fn simulate_rank(cfg: &NmpConfig, work: &LpnWork) -> RankLpnReport {
    let mut cache = Cache::new(cfg.cache);
    let mut miss_lines: Vec<Request> = Vec::new();
    let mut last_line = u64::MAX;
    for &idx in &work.trace {
        let addr = idx as u64 * Block::BYTES as u64;
        if !cache.access(addr) {
            let line = addr / cfg.dram.access_bytes as u64 * cfg.dram.access_bytes as u64;
            // Coalesce immediately repeated lines (a single fill serves
            // back-to-back misses to the same line).
            if line != last_line {
                miss_lines.push(Request::read(line));
                last_line = line;
            }
        }
    }
    let cache_stats = cache.stats();
    let dram_stats = RankSim::new(cfg.dram).run(&miss_lines);

    // Colidx streaming: 4 bytes per access at the rank's peak sequential
    // rate (access_bytes per tBL cycles).
    let idx_bytes = work.trace.len() as u64 * 4;
    let bytes_per_cycle = cfg.dram.access_bytes as u64 / cfg.dram.timing.t_bl;
    let index_stream_cycles = idx_bytes.div_ceil(bytes_per_cycle.max(1));

    let issue_cycles = (work.trace.len() as u64).div_ceil(cfg.hit_lanes as u64)
        + cache_stats.misses * cfg.cache.hit_latency;
    let memory_cycles = dram_stats.total_cycles + index_stream_cycles;
    let sample_cycles = issue_cycles.max(memory_cycles);
    let cycles = (sample_cycles as f64 * work.scale()).round() as u64;

    RankLpnReport {
        cycles,
        cache: cache_stats,
        dram: dram_stats,
        index_stream_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NmpConfig {
        NmpConfig::with_ranks_and_cache(2, 256 * 1024)
    }

    #[test]
    fn empty_work_is_free() {
        let r = simulate_rank(&cfg(), &LpnWork::exact(vec![]));
        assert_eq!(r.cycles, 0);
        assert_eq!(r.cache.accesses(), 0);
    }

    #[test]
    fn hot_trace_is_cache_fast() {
        // All accesses to a handful of elements: everything hits after
        // warm-up, so cycles approach accesses / hit_lanes.
        let trace: Vec<u32> = (0..100_000u32).map(|i| i % 64).collect();
        let r = simulate_rank(&cfg(), &LpnWork::exact(trace.clone()));
        assert!(r.hit_rate() > 0.99);
        let issue = trace.len() as u64 / cfg().hit_lanes as u64;
        assert!(r.cycles < issue * 3, "cycles {} vs issue {issue}", r.cycles);
    }

    #[test]
    fn cold_random_trace_is_dram_bound() {
        // Strided accesses over a vector far larger than the cache.
        let trace: Vec<u32> = (0..50_000u32)
            .map(|i| (i.wrapping_mul(7919)) % 4_000_000)
            .collect();
        let r = simulate_rank(&cfg(), &LpnWork::exact(trace));
        assert!(r.hit_rate() < 0.2, "hit rate {}", r.hit_rate());
        assert!(r.dram.total_cycles > 0);
        assert!(r.cycles >= r.dram.total_cycles);
    }

    #[test]
    fn bigger_cache_fewer_cycles_on_medium_working_set() {
        // Working set ~512 KB: fits in 1 MB, thrashes 256 KB... use a
        // looping trace so temporal locality exists.
        let elems = 32 * 1024u32; // 512 KB of 16-byte elements
        let trace: Vec<u32> = (0..200_000u32).map(|i| (i * 37) % elems).collect();
        let small = simulate_rank(
            &NmpConfig::with_ranks_and_cache(2, 128 * 1024),
            &LpnWork::exact(trace.clone()),
        );
        let large = simulate_rank(
            &NmpConfig::with_ranks_and_cache(2, 1024 * 1024),
            &LpnWork::exact(trace),
        );
        assert!(large.hit_rate() > small.hit_rate());
        assert!(
            large.cycles < small.cycles,
            "large {} !< small {}",
            large.cycles,
            small.cycles
        );
    }

    #[test]
    fn sampling_scales_cycles() {
        let trace: Vec<u32> = (0..10_000u32).map(|i| i * 131 % 100_000).collect();
        let exact = LpnWork::exact(trace.clone());
        let sampled = LpnWork {
            trace,
            represented_accesses: 100_000,
        };
        let a = simulate_rank(&cfg(), &exact);
        let b = simulate_rank(&cfg(), &sampled);
        assert!((b.cycles as f64 / a.cycles as f64 - 10.0).abs() < 0.5);
    }

    #[test]
    fn index_stream_cycles_proportional() {
        let trace: Vec<u32> = vec![0; 16_000];
        let r = simulate_rank(&cfg(), &LpnWork::exact(trace));
        // 64 KB of indices at 16 B/cycle = 4096 cycles.
        assert_eq!(r.index_stream_cycles, 4000);
    }
}
