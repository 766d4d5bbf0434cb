//! One workload, one process: the context every workload measures
//! through, and the assembly of its result.
//!
//! Load shape, all workloads: closed loop, one load-generating thread,
//! one client connection at a time, loopback TCP, the whole process on
//! one CPU (`--cores one`, the default). The timed phase is a sequence of
//! equal-work segments that runs for `--seconds`; the run's rate is the
//! 90th-percentile segment ([`stats::QUIET_PERCENTILE`]: the host's
//! other tenants only ever slow a segment down), printed with the median
//! and quartiles beside it. An untraced run (`--trace 0`) reports the
//! end-to-end metrics, then sets up three more times to report a median
//! `setup_s`; a traced run (`--trace 1`) alternates span-recording and
//! plain segments (their rate difference is the tracing overhead), then
//! runs the per-layer probes of `layers.rs`.

use crate::check::Checker;
use crate::json::{obj, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::sys;
use ironman_ot::params::FerretParams;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Pin the process to one CPU (`--cores one`).
    pub pin: bool,
}

/// Every size a workload uses, so `--smoke` can shrink all of them at
/// once and nothing else: same code paths, same checks.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Parameter set of `extend_table4` and of every serving workload.
    pub table4: FerretParams,
    /// Parameter set of `extend_lpn_heavy` (bench-only, not secure): the
    /// set `crates/bench/src/bin/extension.rs` calls `lpn_heavy`.
    pub lpn_heavy: FerretParams,
    /// COTs per streamed chunk.
    pub chunk: usize,
    /// Chunks per `serve_stream` segment.
    pub stream_chunks_per_segment: u64,
    /// Chunks per `serve_burst` burst (fits the warm pool's
    /// two-extension cap with room to spare).
    pub burst_chunks: u64,
    /// COTs per `fleet_oneshot` request.
    pub oneshot: usize,
    /// Requests per `fleet_oneshot` segment: ~20 ms, a tenth of the
    /// extension that now and then runs behind them.
    pub requests_per_segment: usize,
    /// COTs the unix-stream FERRET probe must produce (ocelot's table
    /// uses `1 << 23`).
    pub unix_min_cots: u64,
    /// Full set-ups per untraced run (median reported).
    pub setup_reps: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            table4: FerretParams::OT_2POW20,
            lpn_heavy: FerretParams {
                log_target: 20,
                n: 1 << 20,
                leaves: 512,
                k: 168_000,
                t: 128,
            },
            chunk: 65_536,
            stream_chunks_per_segment: 32,
            burst_chunks: 28,
            oneshot: 32,
            requests_per_segment: 2048,
            unix_min_cots: 1 << 23,
            setup_reps: 4,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            table4: FerretParams::toy(),
            lpn_heavy: FerretParams {
                log_target: 14,
                n: 1 << 14,
                leaves: 128,
                k: 3000,
                t: 16,
            },
            chunk: 512,
            stream_chunks_per_segment: 8,
            burst_chunks: 12,
            oneshot: 32,
            requests_per_segment: 32,
            unix_min_cots: 1 << 15,
            setup_reps: 1,
        }
    }
}

/// One equal-work segment of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Seg {
    pub cots: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub traced: bool,
}

pub struct Ctx {
    pub opts: Opts,
    pub scale: Scale,
    process_start: Instant,
    /// The CPU the process is pinned to, if it is.
    pinned_cpu: Option<usize>,
    /// Which of the run's set-ups is current (see [`Ctx::begin_setup`]).
    rep: usize,
    pub spans: Spans,
    pub check: Checker,
    setup_s: Vec<f64>,
    pub segs: Vec<Seg>,
    /// Latency of the workload's unit request (see README: an extension,
    /// a stream segment, a burst, a 32-COT round trip), nanoseconds.
    pub request_ns: Vec<u64>,
    /// Chunk inter-arrival times of the streaming workloads.
    pub gap_ns: Vec<u64>,
    threads: usize,
    /// `VmHWM` when the timed phase ended.
    timed_peak_rss_mb: Option<f64>,
    /// Set by [`Ctx::fatal`]: the system under test stopped answering.
    aborted: bool,
    /// Per-layer metrics gathered so far (traced runs).
    layer: BTreeMap<&'static str, f64>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Ctx {
    pub fn new(opts: Opts, process_start: Instant, pinned_cpu: Option<usize>) -> Ctx {
        let scale = if opts.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        };
        Ctx {
            opts,
            scale,
            process_start,
            pinned_cpu,
            rep: 0,
            spans: Spans::new(),
            check: Checker::default(),
            setup_s: Vec::new(),
            segs: Vec::new(),
            request_ns: Vec::new(),
            gap_ns: Vec::new(),
            threads: 0,
            timed_peak_rss_mb: None,
            aborted: false,
            layer: BTreeMap::new(),
        }
    }

    /// A seed for one purpose, derived from `--seed`, the set-up number
    /// and a label: every FERRET, dealer and service seed and every
    /// session name comes from here, and the program under test sees
    /// only these. Repeated set-ups get fresh seeds, so their first
    /// batches are not replays of each other.
    pub fn seed_for(&self, label: &str) -> u64 {
        let start = splitmix64(self.opts.seed ^ splitmix64(self.rep as u64));
        label
            .bytes()
            .fold(start, |acc, b| splitmix64(acc ^ u64::from(b)))
    }

    /// Starts set-up number `rep` (0-based) and returns its start time.
    pub fn begin_setup(&mut self, rep: usize) -> Instant {
        self.rep = rep;
        Instant::now()
    }

    /// Full set-ups this run performs; the timed phase follows the first
    /// (so `peak_rss_mb` is one set-up's, not several piled up in the
    /// allocator), the rest only feed `setup_s`. Traced runs report no
    /// `setup_s`, so they set up once.
    pub fn setup_reps(&self) -> usize {
        if self.opts.trace {
            1
        } else {
            self.scale.setup_reps
        }
    }

    /// Marks the end of set-up number `rep`: the first verified COT is in
    /// the consumer's hands. The first set-up is timed from process
    /// start (what a user waits for), repeats from their own start.
    pub fn setup_done(&mut self, rep_start: Instant) {
        let from = if self.rep == 0 {
            self.process_start
        } else {
            rep_start
        };
        self.setup_s.push(from.elapsed().as_secs_f64());
    }

    /// An operation failed in a way no later operation can recover from
    /// (a dead session or connection): says why, counts it, and ends the
    /// timed phase after the current segment instead of spinning on it.
    pub fn fatal(&mut self, what: &str, error: &dyn std::fmt::Display) {
        if !self.aborted {
            eprintln!("benchmark: {}: {what}: {error}", self.opts.workload);
        }
        self.aborted = true;
        self.check.op_failed();
    }

    /// How long the workload's timed phase runs. A traced run spends the
    /// rest of `--seconds` in the layer probes.
    fn workload_budget(&self) -> Duration {
        let share = if self.opts.trace { 0.6 } else { 1.0 };
        Duration::from_secs_f64(self.opts.seconds * share)
    }

    /// Runs the timed phase: `segment` is called once per equal-work
    /// segment and must call [`Ctx::timed`] around the work it wants
    /// counted.
    pub fn run_timed_phase(&mut self, mut segment: impl FnMut(&mut Ctx)) {
        let budget = self.workload_budget();
        stats::run_segments(budget, |i| {
            // Odd segments of a traced run record spans; even ones do
            // not, and only those feed the run's rates.
            self.spans.set_enabled(self.opts.trace && i % 2 == 1);
            segment(self);
            if i == stats::MIN_SEGMENTS / 2 {
                self.threads = sys::thread_count();
            }
            !self.aborted
        });
        self.spans.set_enabled(false);
        self.timed_peak_rss_mb = Some(sys::peak_rss_mb());
    }

    /// Times `body` (wall and whole-process CPU) as one segment; `body`
    /// returns the verified COTs it delivered.
    pub fn timed(&mut self, body: impl FnOnce(&mut Ctx) -> u64) -> Seg {
        let traced = self.spans.is_enabled();
        let cpu0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        self.spans.enter("harness.segment");
        let cots = body(self);
        self.spans.exit();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let seg = Seg {
            cots,
            wall_ns,
            cpu_ns: sys::process_cpu_ns().saturating_sub(cpu0),
            traced,
        };
        self.segs.push(seg);
        seg
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown layer metric {name}"
        );
        self.layer.insert(name, value);
    }

    /// Per-segment rates (COT/s) of the segments matching `traced`.
    fn rates(&self, traced: bool) -> Vec<f64> {
        self.segs
            .iter()
            .filter(|s| s.traced == traced && s.wall_ns > 0)
            .map(|s| s.cots as f64 / (s.wall_ns as f64 * 1e-9))
            .collect()
    }

    pub fn total_cots(&self) -> u64 {
        self.segs.iter().map(|s| s.cots).sum()
    }

    pub fn total_wall_ns(&self) -> u64 {
        self.segs.iter().map(|s| s.wall_ns).sum()
    }

    /// Harness-level per-layer metrics: tracing overhead, the share of
    /// wall time no layer span covers, sample counts, oversubscription.
    pub fn finish_trace_metrics(&mut self) {
        // Tracing overhead = spans recorded x the recorder's measured cost
        // per span, over the traced segments' wall time. (Differencing the
        // traced and untraced segment rates was tried first and drowned
        // in this host's +-10 % segment-to-segment noise.)
        let traced_wall: u64 = self
            .segs
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.wall_ns)
            .sum();
        if traced_wall > 0 {
            let recorded: u64 = self.spans.totals().values().map(|t| t.count).sum();
            let cost = recorded as f64 * Spans::cost_per_span_ns();
            self.set_layer("trace.overhead_share", cost / traced_wall as f64);
        }
        let totals = self.spans.totals();
        let wall: u64 = totals.get("harness.segment").map_or(0, |t| t.total_ns);
        let harness_self = self.spans.self_ns_with_prefix("harness.");
        if wall > 0 {
            // Everything inside a segment that is not self time of a
            // span named after a crate: verification, bookkeeping, and
            // gaps between calls.
            self.set_layer(
                "trace.unattributed_share",
                harness_self as f64 / wall as f64,
            );
        }
        // Whole-process CPU per COT of the plain segments, at the same
        // quiet percentile as the rate (costs sort the other way).
        let cpu_per_cot: Vec<f64> = self
            .segs
            .iter()
            .filter(|s| !s.traced && s.cots > 0)
            .map(|s| s.cpu_ns as f64 / s.cots as f64)
            .collect();
        self.set_layer(
            "cpu_ns_per_cot",
            stats::percentile(
                &stats::sorted(&cpu_per_cot),
                100.0 - stats::QUIET_PERCENTILE,
            ),
        );
        self.set_layer("trace.segments", self.segs.len() as f64);
        self.set_layer("trace.request_samples", self.request_ns.len() as f64);
        let cpu: u64 = self.segs.iter().map(|s| s.cpu_ns).sum();
        let wall = self.total_wall_ns();
        if wall > 0 {
            self.set_layer("trace.runnable_threads", cpu as f64 / wall as f64);
        }
    }

    /// Request-latency percentiles for the per-layer report.
    pub fn finish_latency_metrics(&mut self) {
        let us = |ns: &[u64]| -> Vec<f64> {
            stats::sorted(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
        };
        let req = us(&self.request_ns);
        self.set_layer("net.request_p50_us", stats::percentile(&req, 50.0));
        self.set_layer("net.request_p90_us", stats::percentile(&req, 90.0));
        self.set_layer("net.request_p99_us", stats::percentile(&req, 99.0));
        let gaps = us(&self.gap_ns);
        self.set_layer("net.chunk_gap_p50_us", stats::percentile(&gaps, 50.0));
        self.set_layer("net.chunk_gap_p99_us", stats::percentile(&gaps, 99.0));
    }

    /// Builds the two result documents: the detail object (everything
    /// the suite prints and stores) and the driver's contract line.
    pub fn result(&self) -> (Json, Json) {
        let rates = self.rates(false);
        let rate = Summary::of(&rates);
        let quiet_rate = stats::percentile(&stats::sorted(&rates), stats::QUIET_PERCENTILE);
        let cpu: u64 = self.segs.iter().map(|s| s.cpu_ns).sum();
        let cots = self.total_cots();
        let request_us: Vec<f64> = self.request_ns.iter().map(|&n| n as f64 / 1e3).collect();
        let request = Summary::of(&request_us);
        let setup = Summary::of(&self.setup_s);
        let end_to_end: BTreeMap<&str, (f64, Option<Summary>)> = BTreeMap::from([
            ("cots_per_s", (quiet_rate, Some(rate))),
            ("setup_s", (setup.median, Some(setup))),
            (
                "peak_rss_mb",
                (
                    self.timed_peak_rss_mb.unwrap_or_else(sys::peak_rss_mb),
                    None,
                ),
            ),
        ]);

        let metric = |value: f64, unit: &str, summary: Option<Summary>| {
            let mut members = vec![
                ("value".to_string(), Json::from(value)),
                ("unit".to_string(), Json::from(unit)),
            ];
            if let Some(s) = summary {
                members.push(("median".to_string(), Json::from(s.median)));
                members.push(("q1".to_string(), Json::from(s.q1)));
                members.push(("q3".to_string(), Json::from(s.q3)));
                members.push(("n".to_string(), Json::from(s.n)));
            }
            Json::Obj(members)
        };
        let e2e_detail = obj(END_TO_END.iter().map(|m| {
            let (value, summary) = end_to_end[m.name];
            (m.name, metric(value, m.unit, summary))
        }));
        let layer_detail = obj(PER_LAYER.iter().map(|m| {
            let value = self.layer.get(m.name).copied().unwrap_or(0.0);
            (m.name, metric(value, m.unit, None))
        }));

        let request_sorted = stats::sorted(&request_us);
        let tail = stats::highest_supported_percentile(request_sorted.len());
        let wall_ns = self.total_wall_ns();
        let correct = self.check.failed == 0 && self.check.verified_cots > 0 && cots > 0;
        let detail = obj([
            ("workload", Json::from(self.opts.workload.as_str())),
            ("seed", Json::from(self.opts.seed)),
            ("seconds", Json::from(self.opts.seconds)),
            ("traced", Json::from(self.opts.trace)),
            ("smoke", Json::from(self.opts.smoke)),
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.check.attempted)),
            ("failed", Json::from(self.check.failed)),
            ("failed_share", Json::from(self.check.failed_share())),
            ("verified_cots", Json::from(self.check.verified_cots)),
            ("timed_cots", Json::from(cots)),
            ("timed_wall_s", Json::from(wall_ns as f64 * 1e-9)),
            ("segments", Json::from(self.segs.len())),
            (
                "request",
                obj([
                    ("p50_us", Json::from(request.median)),
                    ("q1_us", Json::from(request.q1)),
                    ("q3_us", Json::from(request.q3)),
                    ("n", Json::from(request.n)),
                ]),
            ),
            (
                "request_tail",
                match tail {
                    Some(p) => obj([
                        ("percentile", Json::from(p)),
                        ("us", Json::from(stats::percentile(&request_sorted, p))),
                        ("n", Json::from(request_sorted.len())),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "oversubscription",
                obj([
                    ("threads_alive", Json::from(self.threads)),
                    (
                        "runnable_threads",
                        Json::from(cpu as f64 / wall_ns.max(1) as f64),
                    ),
                    ("cores", Json::from(sys::nproc())),
                    ("pinned_cpu", self.pinned_cpu.map_or(Json::Null, Json::from)),
                ]),
            ),
            ("end_to_end", e2e_detail.clone()),
            (
                "per_layer",
                if self.opts.trace {
                    layer_detail.clone()
                } else {
                    Json::Null
                },
            ),
        ]);

        // The driver's line carries value and unit only.
        let strip = |full: &Json| {
            obj(full.members().iter().map(|(name, m)| {
                (
                    name.clone(),
                    obj([
                        ("value", m.get("value").cloned().unwrap_or(Json::Null)),
                        ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                    ]),
                )
            }))
        };
        let contract = obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.check.attempted.max(1))),
            ("failed", Json::from(self.check.failed)),
            (
                "metrics",
                strip(if self.opts.trace {
                    &layer_detail
                } else {
                    &e2e_detail
                }),
            ),
        ]);
        (detail, contract)
    }
}
