//! Property-based tests for the memory-side cache model.

use ironman_nmp::cache::{Cache, CacheConfig};
use proptest::prelude::*;

/// The reference LRU: a fully associative cache of `capacity` lines,
/// kept as a list from least to most recently used.
struct VecLru {
    capacity: usize,
    lines: Vec<u64>,
}

impl VecLru {
    /// Touches `line`; returns whether it was resident.
    fn access(&mut self, line: u64) -> bool {
        let hit = match self.lines.iter().position(|&l| l == line) {
            Some(i) => {
                self.lines.remove(i);
                true
            }
            None => {
                if self.lines.len() == self.capacity {
                    self.lines.remove(0);
                }
                false
            }
        };
        self.lines.push(line);
        hit
    }
}

/// Hits of a fresh `kb`-kilobyte cache over `trace`.
fn hits(kb: usize, trace: &[u64]) -> u64 {
    let mut c = Cache::new(CacheConfig::kb(kb));
    for &a in trace {
        c.access(a);
    }
    c.stats().hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Accounting invariants: hits + misses = accesses, hit rate bounded.
    #[test]
    fn accounting_invariants(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut c = Cache::new(CacheConfig::kb(32));
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&s.hit_rate()));
    }

    /// The cache is an exact LRU: with one set (`ways == lines`) it gives
    /// the reference's hit or miss on every access, including the
    /// eviction of the least recently used line and the refresh a hit
    /// gives.
    #[test]
    fn single_set_is_exact_lru(
        lines in 1usize..17,
        addrs in proptest::collection::vec(0u64..40 * 64, 0..400),
    ) {
        let mut cache = Cache::new(CacheConfig {
            capacity_bytes: lines * 64,
            line_bytes: 64,
            ways: lines,
            hit_latency: 1,
        });
        let mut reference = VecLru { capacity: lines, lines: Vec::new() };
        for (i, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(
                cache.access(a),
                reference.access(a / 64),
                "access {} (address {}) of a {}-line cache", i, a, lines
            );
        }
    }

    /// Immediately repeated accesses always hit.
    #[test]
    fn repeat_hits(addr in any::<u64>()) {
        let mut c = Cache::new(CacheConfig::kb(32));
        c.access(addr);
        prop_assert!(c.access(addr));
        prop_assert!(c.access(addr ^ 1)); // same line for even addr...
    }

    /// A trace touching at most `lines` distinct lines fits in a cache of
    /// that many lines: second pass is all hits.
    #[test]
    fn working_set_fits(offsets in proptest::collection::vec(0u64..64, 1..64)) {
        let cfg = CacheConfig::kb(64); // 1024 lines >> 64 distinct lines
        let mut c = Cache::new(cfg);
        for o in &offsets {
            c.access(o * 64);
        }
        for o in &offsets {
            prop_assert!(c.access(o * 64), "warm access to line {o} missed");
        }
    }

    /// Monotonicity: a strictly larger cache never produces more misses on
    /// the same trace (holds for LRU with nested capacities at the same
    /// associativity discipline when sets double).
    #[test]
    fn bigger_is_not_worse(seed in any::<u64>()) {
        let trace: Vec<u64> =
            (0..4000u64).map(|i| (i.wrapping_mul(seed | 1)) % 2_000_000 / 64 * 64).collect();
        let (small, large) = (hits(64, &trace), hits(1024, &trace));
        prop_assert!(large >= small.saturating_sub(small / 10),
            "1MB ({large}) much worse than 64KB ({small})");
    }
}

#[test]
fn odd_address_same_line_hits() {
    let mut c = Cache::new(CacheConfig::kb(32));
    c.access(64);
    assert!(c.access(65));
    assert!(c.access(127));
    assert!(!c.access(128));
}
