//! DDR4 configuration: geometry and timing (paper Table 3).

use serde::{Deserialize, Serialize};

/// DDR4 timing parameters in memory-clock cycles.
///
/// Values are the paper's Table 3 row for DDR4-2400. `tRAS` is not listed
/// there; we derive it as `tRC − tRP` (the JEDEC identity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTiming {
    /// ACT → internal READ delay.
    pub t_rcd: u64,
    /// CAS latency (READ → first data beat).
    pub t_cl: u64,
    /// PRE → ACT delay.
    pub t_rp: u64,
    /// ACT → ACT delay, same bank (row cycle time).
    pub t_rc: u64,
    /// ACT → ACT delay, different bank group.
    pub t_rrd_s: u64,
    /// ACT → ACT delay, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// READ → READ delay, different bank group.
    pub t_ccd_s: u64,
    /// READ → READ delay, same bank group.
    pub t_ccd_l: u64,
    /// Burst length in cycles (BL8 at double data rate = 4 clocks).
    pub t_bl: u64,
    /// Average refresh interval (JEDEC 7.8 µs at 1200 MHz; not listed in
    /// Table 3, standard DDR4 value).
    pub t_refi: u64,
    /// Refresh cycle time (8 Gb device class, ~350 ns).
    pub t_rfc: u64,
}

impl DramTiming {
    /// The paper's Table 3 timing set.
    pub(crate) const fn table3() -> Self {
        DramTiming {
            t_rcd: 16,
            t_cl: 16,
            t_rp: 16,
            t_rc: 55,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_bl: 4,
            t_refi: 9360,
            t_rfc: 420,
        }
    }

    /// Row-active minimum time `tRAS = tRC − tRP`.
    pub(crate) const fn t_ras(&self) -> u64 {
        self.t_rc - self.t_rp
    }
}

/// Geometry plus timing of one DRAM device hierarchy level used by the
/// simulator (one rank's view).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Timing parameters.
    pub timing: DramTiming,
    /// Bank groups per rank (DDR4: 4).
    pub bank_groups: usize,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: usize,
    /// Row buffer size in bytes (8 KB for typical x8 DDR4 devices ganged
    /// across a 64-bit rank).
    pub row_bytes: usize,
    /// Bytes transferred per column access (64-byte cache line).
    pub access_bytes: usize,
    /// Memory clock in MHz (DDR4-2400 → 1200 MHz clock, 2400 MT/s).
    pub clock_mhz: f64,
    /// FR-FCFS reorder window (outstanding requests considered).
    pub window: usize,
}

impl DramConfig {
    /// The paper's system configuration (Table 3).
    pub fn ddr4_2400() -> Self {
        DramConfig {
            timing: DramTiming::table3(),
            bank_groups: 4,
            banks_per_group: 4,
            row_bytes: 8192,
            access_bytes: 64,
            clock_mhz: 1200.0,
            window: 16,
        }
    }

    /// Total banks per rank.
    pub fn banks(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Peak per-rank data bandwidth in GB/s: one 64-byte burst per `tBL`
    /// cycles.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let bytes_per_cycle = self.access_bytes as f64 / self.timing.t_bl as f64;
        bytes_per_cycle * self.clock_mhz * 1e6 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let t = DramTiming::table3();
        assert_eq!(t.t_rcd, 16);
        assert_eq!(t.t_cl, 16);
        assert_eq!(t.t_rp, 16);
        assert_eq!(t.t_rc, 55);
        assert_eq!(t.t_rrd_s, 4);
        assert_eq!(t.t_rrd_l, 6);
        assert_eq!(t.t_faw, 26);
        assert_eq!(t.t_ccd_s, 4);
        assert_eq!(t.t_ccd_l, 6);
        assert_eq!(t.t_bl, 4);
    }

    #[test]
    fn ras_identity() {
        assert_eq!(DramTiming::table3().t_ras(), 39);
    }

    #[test]
    fn geometry() {
        let c = DramConfig::ddr4_2400();
        assert_eq!(c.banks(), 16);
    }

    #[test]
    fn peak_bandwidth_is_ddr4_2400() {
        // 2400 MT/s × 8 bytes = 19.2 GB/s per rank interface.
        let c = DramConfig::ddr4_2400();
        assert!((c.peak_bandwidth_gbps() - 19.2).abs() < 0.1);
    }
}
