//! The roofline model of Fig. 1(c).
//!
//! The paper measures SPCOT and LPN in "AES operations per second" against
//! operational intensity in "AES per byte". SPCOT sits at high intensity
//! (compute-bound, near the peak-AES ceiling); LPN sits at very low
//! intensity (memory-bandwidth-bound on the sloped roof). That one figure
//! justifies the whole design split — compute acceleration for SPCOT, NMP
//! for LPN — so we reproduce it quantitatively.

/// A two-parameter roofline: compute ceiling and memory slope.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Roofline {
    /// Peak compute in AES-equivalent operations per second.
    pub peak_ops_per_s: f64,
    /// Peak memory bandwidth in bytes per second.
    pub mem_bw_bytes_per_s: f64,
}

/// One plotted kernel: measured operation and byte counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RooflinePoint {
    /// Operational intensity in ops/byte.
    pub intensity: f64,
    /// Attainable performance at that intensity, ops/s.
    pub attainable_ops_per_s: f64,
    /// Whether the kernel is compute-bound at this intensity.
    pub compute_bound: bool,
}

impl Roofline {
    /// The paper's CPU platform: 24-core Xeon Gold 5220R with AES-NI
    /// (≈5 G AES-equivalents/s across all threads) and 4-channel DDR4-2400
    /// (76.8 GB/s peak).
    pub fn xeon_5220r() -> Self {
        Roofline {
            peak_ops_per_s: 5.0e9,
            mem_bw_bytes_per_s: 76.8e9,
        }
    }

    /// The ridge point: intensity at which compute and memory roofs meet.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_ops_per_s / self.mem_bw_bytes_per_s
    }

    /// Evaluates the roofline at a kernel's measured `(ops, bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0.0`.
    pub fn point(&self, ops: f64, bytes: f64) -> RooflinePoint {
        assert!(
            bytes > 0.0,
            "a kernel that moves zero bytes has undefined intensity"
        );
        let intensity = ops / bytes;
        let mem_roof = intensity * self.mem_bw_bytes_per_s;
        let attainable = mem_roof.min(self.peak_ops_per_s);
        RooflinePoint {
            intensity,
            attainable_ops_per_s: attainable,
            compute_bound: intensity >= self.ridge_intensity(),
        }
    }
}

/// SPCOT's DRAM traffic per AES-equivalent op. Interior GGM nodes live and
/// die inside the cache (the depth-first working set is tiny); only the
/// leaf layer reaches memory — 16 bytes per leaf, with two AES ops per
/// leaf on the binary baseline, i.e. 8 bytes per op. Intensity ≈ 1/8
/// op/byte, an order of magnitude above LPN's.
pub fn spcot_traffic_bytes(ops: u64) -> f64 {
    ops as f64 * 8.0
}

/// LPN's traffic per output element: `d` random 16-byte element reads plus
/// `d` 4-byte index reads plus one 16-byte output write, against roughly
/// `d/3` AES-equivalents of index generation (one AES yields ~3 indices).
pub fn lpn_traffic_bytes(outputs: u64, weight: u64) -> f64 {
    outputs as f64 * (weight as f64 * 20.0 + 16.0)
}

/// AES-equivalent op count of LPN index generation.
pub fn lpn_ops(outputs: u64, weight: u64) -> f64 {
    outputs as f64 * weight as f64 / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_point_math() {
        let r = Roofline {
            peak_ops_per_s: 100.0,
            mem_bw_bytes_per_s: 50.0,
        };
        assert_eq!(r.ridge_intensity(), 2.0);
    }

    #[test]
    fn spcot_is_compute_bound_on_xeon() {
        // Fig. 1(c)'s key claim: SPCOT above the ridge, LPN below it.
        let r = Roofline::xeon_5220r();
        let ops = 2.0 * 4095.0 * 480.0; // 2^20 set, binary AES trees
        let p = r.point(ops, spcot_traffic_bytes(ops as u64));
        assert!(p.compute_bound, "SPCOT must be compute-bound: {p:?}");
    }

    #[test]
    fn lpn_is_memory_bound_on_xeon() {
        let r = Roofline::xeon_5220r();
        let n = 1_221_516u64;
        let p = r.point(lpn_ops(n, 10), lpn_traffic_bytes(n, 10));
        assert!(!p.compute_bound, "LPN must be memory-bound: {p:?}");
        assert!(p.attainable_ops_per_s < r.peak_ops_per_s);
    }

    #[test]
    fn intensities_match_fig1c_orders_of_magnitude() {
        // Fig. 1(c): SPCOT ~1e-1..1e0 AES/byte, LPN ~1e-3..1e-2.
        let r = Roofline::xeon_5220r();
        let spcot = r.point(1e6, spcot_traffic_bytes(1_000_000));
        let lpn = r.point(lpn_ops(1 << 20, 10), lpn_traffic_bytes(1 << 20, 10));
        assert!(
            (0.01..=1.0).contains(&spcot.intensity),
            "SPCOT {}",
            spcot.intensity
        );
        assert!(
            (0.001..=0.1).contains(&lpn.intensity),
            "LPN {}",
            lpn.intensity
        );
        assert!(spcot.intensity > 5.0 * lpn.intensity);
    }

    #[test]
    fn attainable_capped_at_peak() {
        let r = Roofline::xeon_5220r();
        let p = r.point(1e12, 1.0);
        assert_eq!(p.attainable_ops_per_s, r.peak_ops_per_s);
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_bytes_rejected() {
        Roofline::xeon_5220r().point(1.0, 0.0);
    }
}
