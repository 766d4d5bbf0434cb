//! The per-rank DDR4 simulator with FR-FCFS scheduling.
//!
//! One [`RankSim`] models the banks of a single rank — the unit the
//! Ironman Rank-NMP module owns. Scheduling is First-Ready FCFS over a
//! bounded reorder window: among outstanding requests, prefer row-buffer
//! hits; break ties by age. Commands (PRE, ACT, READ) respect the Table 3
//! timing constraints tracked per bank, per bank group, and rank-wide
//! (tFAW, tRRD, tCCD).

use super::{DramConfig, DramStats};
use std::collections::VecDeque;

/// A line read, present from cycle 0 (the LPN gather's element fetches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    addr: u64,
}

impl Request {
    /// A read of the line holding byte address `addr` within the rank.
    pub fn read(addr: u64) -> Self {
        Request { addr }
    }
}

#[derive(Clone, Copy, Debug)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the next ACT may issue (tRC / tRP constraints).
    next_act: u64,
    /// Earliest cycle the next READ may issue on this bank (tRCD).
    next_read: u64,
    /// Earliest cycle a PRE may issue (tRAS after ACT).
    next_pre: u64,
}

impl BankState {
    fn closed() -> Self {
        BankState {
            open_row: None,
            next_act: 0,
            next_read: 0,
            next_pre: 0,
        }
    }
}

/// Cycle-level model of one DDR4 rank.
#[derive(Clone, Debug)]
pub struct RankSim {
    cfg: DramConfig,
    banks: Vec<BankState>,
    /// Last ACT cycle per bank group (tRRD_L) and rank-wide (tRRD_S);
    /// `None` until the first activation.
    last_act_group: Vec<Option<u64>>,
    last_act_rank: Option<u64>,
    /// Sliding window of the last four ACT cycles (tFAW).
    act_history: VecDeque<u64>,
    /// Last READ cycle and its bank group (tCCD_S/L).
    last_read: Option<(u64, usize)>,
    /// Data-bus free cycle.
    bus_free: u64,
    /// Start of the next refresh window.
    next_refresh: u64,
}

impl RankSim {
    /// Creates an idle rank.
    pub fn new(cfg: DramConfig) -> Self {
        RankSim {
            banks: vec![BankState::closed(); cfg.banks()],
            last_act_group: vec![None; cfg.bank_groups],
            last_act_rank: None,
            act_history: VecDeque::new(),
            last_read: None,
            bus_free: 0,
            next_refresh: cfg.timing.t_refi,
            cfg,
        }
    }

    /// Defers `t` past any refresh window it lands in and advances the
    /// refresh schedule. All banks are blocked for `tRFC` every `tREFI`.
    fn refresh_adjust(&mut self, mut t: u64) -> u64 {
        let timing = self.cfg.timing;
        while t >= self.next_refresh {
            let end = self.next_refresh + timing.t_rfc;
            if t < end {
                t = end;
            }
            self.next_refresh += timing.t_refi;
        }
        t
    }

    /// Earliest cycle an ACT may issue, given group/rank/FAW constraints.
    fn act_ready(&self, bank: &BankState, group: usize) -> u64 {
        let t = &self.cfg.timing;
        let mut ready = bank.next_act;
        if let Some(last) = self.last_act_group[group] {
            ready = ready.max(last + t.t_rrd_l);
        }
        if let Some(last) = self.last_act_rank {
            ready = ready.max(last + t.t_rrd_s);
        }
        if self.act_history.len() == 4 {
            ready = ready.max(self.act_history[0] + t.t_faw);
        }
        ready
    }

    /// Earliest cycle a READ may issue on an open bank.
    fn read_ready(&self, bank: &BankState, group: usize) -> u64 {
        let t = &self.cfg.timing;
        let mut ready = bank.next_read;
        if let Some((last, last_group)) = self.last_read {
            let ccd = if last_group == group {
                t.t_ccd_l
            } else {
                t.t_ccd_s
            };
            ready = ready.max(last + ccd);
        }
        ready.max(self.bus_free.saturating_sub(t.t_cl))
    }

    /// Whether `req` hits its bank's open row — the FR-FCFS "first ready"
    /// test.
    fn row_hit(&self, req: &Request) -> bool {
        let d = self.cfg.decode(req.addr);
        self.banks[d.flat_bank(&self.cfg)].open_row == Some(d.row)
    }

    /// Executes `req`, updating all timing state; returns the cycle of the
    /// last data beat.
    fn execute(&mut self, req: &Request, stats: &mut DramStats) -> u64 {
        let d = self.cfg.decode(req.addr);
        let flat = d.flat_bank(&self.cfg);
        let t = self.cfg.timing;

        let read_cycle = match self.banks[flat].open_row {
            Some(row) if row == d.row => {
                stats.row_hits += 1;
                self.read_ready(&self.banks[flat], d.group)
            }
            Some(_) => {
                stats.row_misses += 1;
                let pre = self.banks[flat].next_pre;
                let act = self.act_ready(&self.banks[flat], d.group).max(pre + t.t_rp);
                self.record_act(flat, d.group, d.row, act);
                act + t.t_rcd
            }
            None => {
                stats.row_empty += 1;
                let act = self.act_ready(&self.banks[flat], d.group);
                self.record_act(flat, d.group, d.row, act);
                act + t.t_rcd
            }
        };
        let read_cycle = read_cycle.max(self.read_ready(&self.banks[flat], d.group));
        let read_cycle = self.refresh_adjust(read_cycle);
        let done = read_cycle + t.t_cl + t.t_bl;

        self.last_read = Some((read_cycle, d.group));
        self.bus_free = done;
        let bank = &mut self.banks[flat];
        bank.next_read = read_cycle + t.t_ccd_l;
        // READ→PRE spacing folded into tRAS tracking (next_pre set at ACT).
        bank.next_pre = bank.next_pre.max(read_cycle + t.t_bl);

        stats.reads += 1;
        stats.latency_sum += done;
        done
    }

    fn record_act(&mut self, flat: usize, group: usize, row: u64, act: u64) {
        let t = self.cfg.timing;
        let bank = &mut self.banks[flat];
        bank.open_row = Some(row);
        bank.next_act = act + t.t_rc;
        bank.next_read = act + t.t_rcd;
        bank.next_pre = act + t.t_ras();
        self.last_act_group[group] = Some(act);
        self.last_act_rank = Some(act);
        self.act_history.push_back(act);
        if self.act_history.len() > 4 {
            self.act_history.pop_front();
        }
    }

    /// Runs a request trace through the rank with FR-FCFS scheduling and
    /// returns aggregate statistics. The simulator keeps the configured
    /// reorder window of outstanding requests; within the window, row hits
    /// are served before misses (first-ready), ties broken by age (FCFS).
    pub fn run(&mut self, requests: &[Request]) -> DramStats {
        let mut stats = DramStats::default();
        let mut window: VecDeque<Request> = VecDeque::new();
        let mut next = 0usize;
        let mut last_done = 0u64;

        while next < requests.len() || !window.is_empty() {
            while window.len() < self.cfg.window && next < requests.len() {
                window.push_back(requests[next]);
                next += 1;
            }
            // FR-FCFS pick: oldest row hit, else oldest.
            let pick = window.iter().position(|r| self.row_hit(r)).unwrap_or(0);
            let req = window.remove(pick).expect("window nonempty");
            last_done = last_done.max(self.execute(&req, &mut stats));
        }
        stats.total_cycles = last_done;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTiming;

    fn sim() -> RankSim {
        RankSim::new(DramConfig::ddr4_2400())
    }

    #[test]
    fn sequential_reads_mostly_hit() {
        let mut s = sim();
        // 256 sequential lines: after each bank's first access, subsequent
        // same-row accesses hit.
        let reqs: Vec<Request> = (0..256u64).map(|i| Request::read(i * 64)).collect();
        let stats = s.run(&reqs);
        assert_eq!(stats.reads, 256);
        assert!(stats.row_hits > 256 * 8 / 10, "row hits {}", stats.row_hits);
    }

    #[test]
    fn random_rows_mostly_miss() {
        let mut s = sim();
        let cfg = DramConfig::ddr4_2400();
        // Stride of one full row stripe: every access opens a new row in
        // the same bank.
        let stride = (cfg.banks() * (cfg.row_bytes / cfg.access_bytes) * cfg.access_bytes) as u64;
        let reqs: Vec<Request> = (0..64u64).map(|i| Request::read(i * stride)).collect();
        let stats = s.run(&reqs);
        assert_eq!(stats.row_hits, 0, "row-stride trace cannot hit");
        assert_eq!(stats.row_misses + stats.row_empty, 64);
    }

    #[test]
    fn hits_are_faster_than_misses() {
        let cfg = DramConfig::ddr4_2400();
        let stride = (cfg.banks() * (cfg.row_bytes / cfg.access_bytes) * cfg.access_bytes) as u64;
        let hits = sim().run(
            &(0..256u64)
                .map(|i| Request::read(i % 4 * 64))
                .collect::<Vec<_>>(),
        );
        let misses = sim().run(
            &(0..256u64)
                .map(|i| Request::read(i * stride))
                .collect::<Vec<_>>(),
        );
        assert!(
            hits.total_cycles < misses.total_cycles,
            "hits {} !< misses {}",
            hits.total_cycles,
            misses.total_cycles
        );
        assert!(hits.avg_latency() < misses.avg_latency());
    }

    #[test]
    fn bandwidth_bounded_by_peak() {
        let cfg = DramConfig::ddr4_2400();
        let reqs: Vec<Request> = (0..4096u64).map(|i| Request::read(i * 64)).collect();
        let stats = sim().run(&reqs);
        let seconds = stats.total_cycles as f64 / (cfg.clock_mhz * 1e6);
        let bw = (stats.reads * cfg.access_bytes as u64) as f64 / seconds / 1e9;
        assert!(
            bw <= cfg.peak_bandwidth_gbps() + 0.1,
            "bw {bw} exceeds peak"
        );
        assert!(
            bw > 0.5 * cfg.peak_bandwidth_gbps(),
            "sequential bw {bw} too low"
        );
    }

    #[test]
    fn single_access_latency_matches_timing() {
        let mut s = sim();
        let stats = s.run(&[Request::read(0)]);
        let t = DramTiming::table3();
        // Closed bank: ACT@0 → READ@tRCD → data done at tRCD+tCL+tBL.
        assert_eq!(stats.total_cycles, t.t_rcd + t.t_cl + t.t_bl);
    }

    #[test]
    fn frfcfs_prefers_hits() {
        // Interleave two streams: row-hit stream on bank 0 and a row-miss
        // stream on the same bank. FR-FCFS should finish faster than strict
        // FIFO would (we verify hits get counted despite interleaving).
        let cfg = DramConfig::ddr4_2400();
        let stride = (cfg.banks() * (cfg.row_bytes / cfg.access_bytes) * cfg.access_bytes) as u64;
        let mut reqs = Vec::new();
        for i in 0..32u64 {
            reqs.push(Request::read(i % 2 * 64)); // same row, hits
            reqs.push(Request::read((i + 2) * stride)); // conflicting rows
        }
        let stats = RankSim::new(cfg).run(&reqs);
        assert!(
            stats.row_hits >= 20,
            "FR-FCFS should preserve hits: {stats:?}"
        );
    }

    #[test]
    fn deterministic() {
        let reqs: Vec<Request> = (0..128u64).map(|i| Request::read(i * 7919 * 64)).collect();
        let a = sim().run(&reqs);
        let b = sim().run(&reqs);
        assert_eq!(a, b);
    }

    #[test]
    fn refresh_adds_latency() {
        let base = DramConfig::ddr4_2400();
        let mut no_refresh = base;
        no_refresh.timing.t_refi = u64::MAX;
        let reqs: Vec<Request> = (0..8192u64).map(|i| Request::read(i * 64)).collect();
        let with = RankSim::new(base).run(&reqs);
        let without = RankSim::new(no_refresh).run(&reqs);
        assert!(with.total_cycles > without.total_cycles);
        // Refresh overhead is bounded (~tRFC/tREFI ≈ 4.5%).
        let overhead = with.total_cycles as f64 / without.total_cycles as f64;
        assert!(overhead < 1.10, "overhead {overhead}");
    }
}
