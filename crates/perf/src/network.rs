//! Link model for the two-party protocol.
//!
//! The paper evaluates under two cloud settings (§6.5, following Cheetah):
//! a LAN-like link (3 Gbps, 0.15 ms RTT) and a WAN-like link
//! (400 Mbps, 20 ms RTT). Protocol time on a link is
//! `rounds · RTT + bytes · 8 / bandwidth` — combined with the measured
//! byte/round counters from `ironman-ot`'s channels this regenerates
//! Fig. 7(c) and Table 5's two column groups.

/// A symmetric link with fixed bandwidth and round-trip time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Round-trip latency in seconds.
    pub rtt_s: f64,
    /// Display name.
    pub name: &'static str,
}

impl NetworkModel {
    /// The paper's LAN setting: 3 Gbps, 0.15 ms.
    pub const LAN: NetworkModel = NetworkModel {
        bandwidth_bps: 3.0e9,
        rtt_s: 0.15e-3,
        name: "LAN (3Gbps, 0.15ms)",
    };

    /// The paper's WAN setting: 400 Mbps, 20 ms.
    pub const WAN: NetworkModel = NetworkModel {
        bandwidth_bps: 400.0e6,
        rtt_s: 20e-3,
        name: "WAN (400Mbps, 20ms)",
    };

    /// Time to complete a protocol that moves `bytes` and takes `rounds`
    /// sequential round trips, in seconds.
    pub fn protocol_time_s(&self, bytes: u64, rounds: u64) -> f64 {
        rounds as f64 * self.rtt_s + bytes as f64 * 8.0 / self.bandwidth_bps
    }

    /// Pure transfer time of `bytes`, ignoring rounds.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.protocol_time_s(bytes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_slower_than_lan() {
        let bytes = 10 * 1024 * 1024;
        assert!(
            NetworkModel::WAN.protocol_time_s(bytes, 10)
                > NetworkModel::LAN.protocol_time_s(bytes, 10)
        );
    }

    #[test]
    fn bandwidth_term() {
        // 3 Gbps moves 375 MB/s: 375 MB should take ~1 s.
        let t = NetworkModel::LAN.transfer_time_s(375_000_000);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_term() {
        let t = NetworkModel::WAN.protocol_time_s(0, 50);
        assert!((t - 1.0).abs() < 1e-9); // 50 × 20 ms
    }

    #[test]
    fn rounds_dominate_small_wan_protocols() {
        // The paper's §6.5 observation: at low bandwidth and high RTT the
        // network, not computation, bounds OT-based protocols.
        let t_rounds = NetworkModel::WAN.protocol_time_s(1024, 100);
        let t_bytes = NetworkModel::WAN.protocol_time_s(1024 * 1024, 1);
        assert!(t_rounds > t_bytes);
    }
}
