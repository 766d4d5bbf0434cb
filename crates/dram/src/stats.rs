//! Simulation statistics.

use serde::{Deserialize, Serialize};

/// Outcome of running a request trace through a [`crate::RankSim`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Read requests completed.
    pub reads: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses requiring precharge + activate.
    pub row_misses: u64,
    /// Accesses to a closed (never-opened) bank — activate only.
    pub row_empty: u64,
    /// Cycle at which the last data beat completed.
    pub total_cycles: u64,
    /// Sum of per-request latencies (arrival → last data beat), in cycles.
    pub latency_sum: u64,
}

impl DramStats {
    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.row_hits as f64 / self.reads as f64
    }

    /// Mean access latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.reads as f64
    }

    /// Sustained bandwidth in GB/s for a given access size and clock.
    pub fn bandwidth_gbps(&self, access_bytes: usize, clock_mhz: f64) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let bytes = self.reads as f64 * access_bytes as f64;
        let seconds = self.total_cycles as f64 / (clock_mhz * 1e6);
        bytes / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_empty() {
        let s = DramStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.bandwidth_gbps(64, 1200.0), 0.0);
    }

    #[test]
    fn bandwidth_math() {
        let s = DramStats {
            reads: 1000,
            total_cycles: 4000,
            ..Default::default()
        };
        // 1000 × 64 B in 4000 cycles @1200 MHz = 64000 B / 3.333 µs = 19.2 GB/s.
        assert!((s.bandwidth_gbps(64, 1200.0) - 19.2).abs() < 0.1);
    }
}
