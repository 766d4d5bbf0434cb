//! Simulation statistics.

/// Outcome of running a request trace through a [`super::RankSim`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
    /// Sum of per-request latencies (cycle 0 → last data beat), in cycles.
    pub latency_sum: u64,
}

impl DramStats {
    /// Mean access latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.reads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_latency_is_zero() {
        assert_eq!(DramStats::default().avg_latency(), 0.0);
    }
}
