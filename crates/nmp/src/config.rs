//! NMP system configuration.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;

/// Configuration of the Ironman-NMP deployment.
///
/// The paper's system (Table 3) has 4 channels × 2 DIMMs × 2 ranks;
/// experiments sweep the number of *active* ranks (2–16, Fig. 12) and the
/// per-rank memory-side cache (32 KB–2 MB, Fig. 14).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NmpConfig {
    /// Active ranks (each contributes one Rank-NMP module).
    pub ranks: usize,
    /// Ranks per DIMM (fixed at 2 in the paper's system).
    pub ranks_per_dimm: usize,
    /// ChaCha/AES PRG cores per DIMM-NMP module (Fig. 9(b) shows four
    /// GGM-tree expansion units). Their pipeline follows the work's PRG
    /// ([`crate::dimm::pipeline_for`]).
    pub prg_cores_per_dimm: usize,
    /// Per-rank memory-side cache.
    pub cache: CacheConfig,
    /// DRAM timing/geometry per rank.
    pub dram: DramConfig,
    /// Element accesses the rank logic can retire per cycle on cache hits
    /// (a 64-byte SRAM port feeds the XOR tree: four 16-byte elements).
    pub hit_lanes: usize,
}

impl NmpConfig {
    /// The paper's largest configuration: 16 ranks, 1 MB caches.
    pub fn ironman_max() -> Self {
        NmpConfig::with_ranks_and_cache(16, 1024 * 1024)
    }

    /// A configuration with a given active-rank count and per-rank cache
    /// capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or odd (ranks come in pairs per DIMM).
    pub fn with_ranks_and_cache(ranks: usize, cache_bytes: usize) -> Self {
        assert!(
            ranks > 0 && ranks.is_multiple_of(2),
            "ranks must be a positive even count"
        );
        NmpConfig {
            ranks,
            ranks_per_dimm: 2,
            prg_cores_per_dimm: 4,
            cache: CacheConfig::kb(cache_bytes / 1024),
            dram: DramConfig::ddr4_2400(),
            hit_lanes: 4,
        }
    }

    /// Active DIMMs.
    pub fn dimms(&self) -> usize {
        self.ranks / self.ranks_per_dimm
    }

    /// NMP logic clock in MHz (the buffer chip runs at the DRAM clock).
    pub fn clock_mhz(&self) -> f64 {
        self.dram.clock_mhz
    }

    /// Converts cycles to milliseconds at the NMP clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz() * 1e3)
    }
}

impl Default for NmpConfig {
    fn default() -> Self {
        NmpConfig::ironman_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        for ranks in [2usize, 4, 8, 16] {
            let c = NmpConfig::with_ranks_and_cache(ranks, 256 * 1024);
            assert_eq!(c.dimms(), ranks / 2);
        }
    }

    #[test]
    fn cycle_conversion() {
        let c = NmpConfig::ironman_max();
        // 1.2e6 cycles at 1200 MHz = 1 ms.
        assert!((c.cycles_to_ms(1_200_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_ranks_rejected() {
        let _ = NmpConfig::with_ranks_and_cache(3, 256 * 1024);
    }
}
