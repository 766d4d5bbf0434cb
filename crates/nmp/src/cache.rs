//! Set-associative memory-side cache model.
//!
//! Each Rank-NMP module in Ironman carries a memory-side SRAM cache
//! (§5.1.2, §5.3) in front of its DRAM rank, holding 64-byte lines of the
//! LPN input vector. The paper evaluates 32 KB–2 MB capacities (Fig. 14)
//! and deploys 256 KB or 1 MB. This module models that cache: configurable
//! capacity/associativity/line size, LRU replacement, and hit/miss
//! accounting. [`crate::rank_lpn`] sends its miss stream to
//! [`crate::dram::RankSim`].
//!
//! # Example
//!
//! ```
//! use ironman_nmp::cache::{Cache, CacheConfig};
//!
//! let mut c = Cache::new(CacheConfig::kb(256));
//! assert!(!c.access(0));  // cold miss
//! assert!(c.access(32));  // same 64-byte line: hit
//! assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
//! ```

/// Cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes (64 to match the DRAM burst, §6.3).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in NMP cycles (grows with capacity; Fig. 14's
    /// "longer cache access latencies" beyond 1 MB).
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A `kb`-kilobyte cache with 64-byte lines and 8-way associativity,
    /// with a hit latency that scales logarithmically with capacity
    /// (1 cycle at ≤64 KB, +1 per doubling beyond).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (fewer than one set).
    pub fn kb(kb: usize) -> Self {
        let capacity = kb * 1024;
        let hit_latency = 1 + (capacity / (64 * 1024)).max(1).ilog2() as u64;
        let cfg = CacheConfig {
            capacity_bytes: capacity,
            line_bytes: 64,
            ways: 8,
            hit_latency,
        };
        assert!(cfg.sets() >= 1, "cache too small for its associativity");
        cfg
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }

    /// Total lines.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }
}

/// Hit/miss accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Way {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// A set-associative, LRU, read-allocate cache model.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    stats: CacheStats,
    clock: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    last_use: 0
                };
                cfg.sets() * cfg.ways
            ],
            cfg,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs one byte-address access; returns `true` on hit. Misses
    /// allocate with LRU replacement.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.cfg.line_bytes as u64;
        let sets = self.cfg.sets() as u64;
        let set = (line % sets) as usize;
        let tag = line / sets;
        let base = set * self.cfg.ways;
        let ways = &mut self.ways[base..base + self.cfg.ways];

        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_use = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // LRU victim: an invalid way if any, else the least recently used.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            .expect("cache has at least one way");
        victim.valid = true;
        victim.tag = tag;
        victim.last_use = self.clock;
        false
    }
}

/// SRAM area model for the memory-side cache in mm² at 40 nm, calibrated to
/// the paper's deployed points: Ironman-NMP totals 1.482 mm² with 256 KB and
/// 2.995 mm² with 1 MB of cache (Table 6), i.e. the cache costs ≈2.017 mm²/MB
/// plus a small fixed controller overhead.
pub fn sram_area_mm2(capacity_bytes: usize) -> f64 {
    const MM2_PER_MB: f64 = 2.017;
    const CONTROLLER_MM2: f64 = 0.05;
    CONTROLLER_MM2 + MM2_PER_MB * capacity_bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = CacheConfig::kb(256);
        assert_eq!(c.lines(), 4096);
        assert_eq!(c.sets(), 512);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::kb(32));
        assert!(!c.access(128));
        assert!(c.access(128));
        assert!(c.access(129)); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_within_set() {
        // Build a tiny direct-mapped-ish config: 2 ways, 2 sets.
        let cfg = CacheConfig {
            capacity_bytes: 256,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        };
        let mut c = Cache::new(cfg);
        let sets = cfg.sets() as u64; // 2
                                      // Three distinct tags mapping to set 0.
        let a = 0;
        let b = 64 * sets;
        let d = 2 * 64 * sets;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a; b is now LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn hit_rate_never_exceeds_one() {
        let mut c = Cache::new(CacheConfig::kb(64));
        for i in 0..10_000u64 {
            c.access(i * 37 % 8192 * 64);
        }
        let s = c.stats();
        assert!(s.hits <= s.accesses());
        assert!((0.0..=1.0).contains(&s.hit_rate()));
    }

    #[test]
    fn bigger_cache_hits_more() {
        let hit_rate = |kb| {
            let mut c = Cache::new(CacheConfig::kb(kb));
            for i in 0..50_000u64 {
                c.access((i * 7919) % 16384 * 64);
            }
            c.stats().hit_rate()
        };
        let (small, large) = (hit_rate(32), hit_rate(1024));
        assert!(large > small, "1MB {large:.3} should beat 32KB {small:.3}");
    }

    #[test]
    fn hit_latency_grows_with_capacity() {
        assert!(CacheConfig::kb(2048).hit_latency > CacheConfig::kb(64).hit_latency);
    }

    #[test]
    fn area_model_matches_table6_deltas() {
        // Table 6: 1.482 mm² (256 KB) vs 2.995 mm² (1 MB): Δ = 1.513 mm² for
        // 768 KB of SRAM.
        let delta = sram_area_mm2(1024 * 1024) - sram_area_mm2(256 * 1024);
        assert!((delta - 1.513).abs() < 0.01, "delta {delta}");
    }
}
