//! Fleet observability: scraping every member's `Stats` telemetry,
//! merging it into one model-ready [`FleetSnapshot`], retaining a
//! bounded time series of those snapshots, and deriving *windowed*
//! views — rates and quantiles over the last few seconds instead of
//! process lifetime.
//!
//! The serving layer records latency distributions locally (lock-free
//! histograms in each server's pool shards and serve paths — see
//! `ironman-net`'s *Telemetry (v6)* docs); this module is the roll-up:
//! a [`FleetObserver`] thread rides the gossip cadence, pulls
//! each reachable member's `Stats` reply over a cached session, and
//! merges the per-server [`LatencyStats`] into one fleet-wide view. The
//! merge is exact at the bucket level, so a fleet-wide p99 read from the
//! snapshot carries the same ≤6.25% bucket error as a single server's —
//! and a merged quantile never leaves the range its inputs span, which
//! is what makes the roll-up trustworthy for steering decisions.
//!
//! Cumulative snapshots answer "how much ever"; the retained
//! [`TimeSeries`] and [`FleetSnapshot::delta`] answer "how fast now":
//! pairing the latest snapshot with a baseline near a window start
//! yields a [`FleetWindow`] of per-server supply/serve rates, stall
//! ratios, and windowed latency distributions. Restarts are detected
//! through the v7 `uptime_nanos` field (a later scrape with a smaller
//! uptime proves the counters reset), and members absent from the
//! baseline (fresh joins, or unreachable at that scrape) degrade to
//! since-start averages — rates never go negative.
//!
//! Unreachable members are *absent* from a snapshot, not zeroed: a
//! scrape reports what it saw, and the gossipers' strike policy owns
//! deciding what a silent member means.
//!
//! Scrape cadence carries ±jitter so a large fleet's observers don't
//! synchronize into a thundering herd against one server.

use crate::background::BackgroundLoop;
use crate::directory::{Directory, Member, MemberState, ServerId};
use crate::slo::{AlertView, SloEngine, SloSpec};
use ironman_net::{CotClient, LatencyStats, OpTimeouts, ServiceStats, EPOCH_UNAWARE};
use ironman_telemetry::{now_nanos, Histogram, HistogramSnapshot, Stopwatch, TimeSeries};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a [`FleetObserver`].
#[derive(Clone, Debug)]
pub struct FleetObserverConfig {
    /// Pause between scrape sweeps. Defaults to the gossip cadence, so
    /// the fleet view is as fresh as the fleet's liveness view.
    pub interval: Duration,
    /// Per-step timeout for the observer's server sessions (connect and
    /// each `Stats` round trip): a blackholed member costs one timeout,
    /// never an OS-default connect stall.
    pub timeout: Duration,
    /// Relative scrape-interval jitter (`0.10` = ±10%). Each sweep's
    /// pause is drawn uniformly from `interval · [1−jitter, 1+jitter)`,
    /// so many observers started together drift apart instead of
    /// scraping every server in lockstep.
    pub jitter: f64,
    /// Snapshots retained for windowed derivation. At the default 25 ms
    /// cadence, 2048 points cover ≈51 s of history — enough for a 5 s
    /// fast window exactly and a 60 s slow window honestly shortened.
    pub retain: usize,
    /// SLO specifications evaluated against the retained series after
    /// every sweep (empty: no alerting).
    pub slos: Vec<SloSpec>,
}

impl Default for FleetObserverConfig {
    fn default() -> Self {
        FleetObserverConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(500),
            jitter: 0.10,
            retain: 2048,
            slos: Vec::new(),
        }
    }
}

/// One member's contribution to a [`FleetSnapshot`].
#[derive(Clone, Debug)]
pub struct ServerObservation {
    /// The member's stable server id.
    pub id: ServerId,
    /// Usable correlations one extension yields on this server (the
    /// advertised `max_request`) — the factor turning an extension rate
    /// into a COT supply rate.
    pub cots_per_extension: u64,
    /// The server's `Stats` reply, with `shard_stats` emptied: the
    /// retained series keeps the service-wide counters and latency
    /// only. `uptime_nanos` going *down* between two scrapes proves a
    /// restart — the signal windowed derivation keys on.
    pub stats: ServiceStats,
}

/// A point-in-time roll-up of the whole fleet's telemetry — the
/// model-ready shape: per-server observations plus their fleet-wide
/// merge, ready for a capacity model or steering policy to consume
/// without touching any server again.
#[derive(Clone, Debug, Default)]
pub struct FleetSnapshot {
    /// When the scrape completed, on the process-wide monotonic clock
    /// ([`ironman_telemetry::now_nanos`]).
    pub at_nanos: u64,
    /// The directory epoch the scrape ran under.
    pub epoch: u64,
    /// Every member scraped successfully this pass, in membership order
    /// (unreachable members are absent, not zeroed).
    pub servers: Vec<ServerObservation>,
    /// The fleet-wide merge of every scraped server's latency
    /// distributions. Merged quantiles are bounded by the per-server
    /// ones they roll up (see the module docs).
    pub latency: LatencyStats,
    /// Sum of scraped servers' buffered correlations.
    pub available: u64,
    /// Sum of scraped servers' streamed-demand backlogs.
    pub pending_stream_cots: u64,
}

/// How a [`ServerWindow`]'s baseline was established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowBaseline {
    /// The server appeared in both snapshots with monotone counters:
    /// rates are exact deltas over the window span.
    Full,
    /// The server's uptime went *down* between the snapshots — it
    /// restarted. Counters are cumulative since the restart, so rates
    /// degrade to since-restart averages (span = the new uptime).
    Restarted,
    /// The server was absent from the earlier snapshot (a fresh join,
    /// or unreachable at that scrape). Rates degrade to since-start
    /// averages over its reported uptime.
    Joined,
}

/// One server's windowed derivation inside a [`FleetWindow`].
#[derive(Clone, Debug)]
pub struct ServerWindow {
    /// The member's stable server id.
    pub id: ServerId,
    /// How the baseline was established (exact delta vs. degraded).
    pub baseline: WindowBaseline,
    /// The span the rates below actually cover, in nanoseconds (the
    /// window for [`WindowBaseline::Full`]; the uptime otherwise).
    pub span_nanos: u64,
    /// Extension *supply* rate: correlations produced per second
    /// (`Δextensions_run × cots_per_extension / span`).
    pub supply_cots_per_sec: f64,
    /// Serving rate: correlations handed to clients per second.
    pub served_cots_per_sec: f64,
    /// Consumer-stall time per second of wall time (`Δstall.sum /
    /// span`; can exceed 1.0 when several shards stall concurrently).
    pub stall_ratio: f64,
    /// Windowed latency distributions (monotone-checked deltas; falls
    /// back to since-restart cumulative on reset).
    pub latency: LatencyStats,
}

/// The fleet over one window: per-server windowed rates plus their
/// fleet-wide merge — what the SLO engine and the exporter read.
#[derive(Clone, Debug, Default)]
pub struct FleetWindow {
    /// Baseline scrape time (monotonic nanoseconds).
    pub from_nanos: u64,
    /// Later scrape time.
    pub to_nanos: u64,
    /// Per-server windowed derivations, for every server present in the
    /// *later* snapshot. Servers absent from the later snapshot
    /// (unreachable or gone) have no row: a window reports what was
    /// observed, never synthesizes zeros.
    pub servers: Vec<ServerWindow>,
    /// Fleet supply rate: sum of the per-server supply rates.
    pub supply_cots_per_sec: f64,
    /// Fleet serving rate: sum of the per-server serving rates.
    pub served_cots_per_sec: f64,
    /// Fleet stall ratio: total windowed stall time over total span
    /// (the per-server ratios weighted by their spans).
    pub stall_ratio: f64,
    /// The merge of the per-server windowed latency distributions.
    pub latency: LatencyStats,
}

impl FleetSnapshot {
    /// The observation for server `id`, if it was reachable this scrape.
    pub fn server(&self, id: ServerId) -> Option<&ServerObservation> {
        self.servers.iter().find(|s| s.id == id)
    }

    /// The windowed view between `earlier` and `self`: per-server rate
    /// and latency derivation with restart/join degradation (see
    /// [`WindowBaseline`]). `self` should be the later snapshot; the
    /// span is clamped at zero if it is not.
    pub fn delta(&self, earlier: &FleetSnapshot) -> FleetWindow {
        let interval = self.at_nanos.saturating_sub(earlier.at_nanos);
        let mut window = FleetWindow {
            from_nanos: earlier.at_nanos,
            to_nanos: self.at_nanos,
            ..FleetWindow::default()
        };
        let mut stall_nanos_total = 0u64;
        let mut span_total = 0u64;
        for obs in &self.servers {
            let server = Self::server_window(obs, earlier.server(obs.id), interval);
            window.supply_cots_per_sec += server.supply_cots_per_sec;
            window.served_cots_per_sec += server.served_cots_per_sec;
            stall_nanos_total += server.latency.stall.sum();
            span_total += server.span_nanos;
            window.latency.merge(&server.latency);
            window.servers.push(server);
        }
        if span_total > 0 {
            window.stall_ratio = stall_nanos_total as f64 / span_total as f64;
        }
        window
    }

    fn server_window(
        obs: &ServerObservation,
        earlier: Option<&ServerObservation>,
        interval: u64,
    ) -> ServerWindow {
        // Exact delta only when the earlier scrape saw this server *and*
        // its uptime still precedes ours (monotone counters). Otherwise
        // the counters are cumulative since (re)start: use them whole
        // over the uptime — a correct average, never a negative rate.
        let now = &obs.stats;
        let (baseline, span, d_ext, d_served, latency) = match earlier.map(|e| &e.stats) {
            Some(e) if now.uptime_nanos >= e.uptime_nanos => (
                WindowBaseline::Full,
                interval,
                now.extensions_run.saturating_sub(e.extensions_run),
                now.cots_served.saturating_sub(e.cots_served),
                now.latency.delta(&e.latency),
            ),
            Some(_) => (
                WindowBaseline::Restarted,
                now.uptime_nanos,
                now.extensions_run,
                now.cots_served,
                now.latency.clone(),
            ),
            None => (
                WindowBaseline::Joined,
                now.uptime_nanos,
                now.extensions_run,
                now.cots_served,
                now.latency.clone(),
            ),
        };
        let per_sec = |count: u64| {
            if span == 0 {
                0.0
            } else {
                count as f64 * 1e9 / span as f64
            }
        };
        ServerWindow {
            id: obs.id,
            baseline,
            span_nanos: span,
            supply_cots_per_sec: per_sec(d_ext.saturating_mul(obs.cots_per_extension)),
            served_cots_per_sec: per_sec(d_served),
            stall_ratio: if span == 0 {
                0.0
            } else {
                latency.stall.sum() as f64 / span as f64
            },
            latency,
        }
    }
}

/// One fleet scrape over fresh sessions: poll every routable member's
/// `Stats` and merge. The background [`FleetObserver`] keeps sessions
/// cached across sweeps; this free function is the one-shot form for
/// tests and benches.
pub fn scrape(directory: &Directory, timeout: Duration) -> FleetSnapshot {
    let mut sessions = HashMap::new();
    scrape_with(directory, timeout, &mut sessions)
}

/// The shared scrape body: cached sessions in, [`FleetSnapshot`] out.
fn scrape_with(
    directory: &Directory,
    timeout: Duration,
    sessions: &mut HashMap<ServerId, CotClient>,
) -> FleetSnapshot {
    let snapshot = directory.snapshot();
    sessions.retain(|id, _| snapshot.member(*id).is_some());
    let mut fleet = FleetSnapshot {
        epoch: snapshot.epoch(),
        ..FleetSnapshot::default()
    };
    for member in snapshot.members() {
        // Suspect members are skipped outright rather than re-dialed
        // every sweep; the gossipers' strike policy owns their fate.
        if member.state == MemberState::Suspect {
            sessions.remove(&member.id);
            continue;
        }
        let client = match sessions.entry(member.id) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                match CotClient::connect_with(
                    member.addr,
                    "fleet-observer",
                    EPOCH_UNAWARE,
                    OpTimeouts::uniform(timeout),
                ) {
                    Ok(c) => v.insert(c),
                    Err(_) => continue,
                }
            }
        };
        let cots_per_extension = client.max_request();
        let mut stats = match client.stats() {
            Ok(s) => s,
            Err(_) => {
                sessions.remove(&member.id);
                continue;
            }
        };
        stats.shard_stats = Vec::new();
        fleet.latency.merge(&stats.latency);
        fleet.available += stats.available;
        fleet.pending_stream_cots += stats.pending_stream_cots;
        fleet.servers.push(ServerObservation {
            id: member.id,
            cots_per_extension,
            stats,
        });
    }
    fleet.at_nanos = now_nanos();
    fleet
}

/// The observer's shared read surface: latest snapshot, retained series,
/// current alerts.
#[derive(Debug)]
struct ObserverShared {
    directory: Arc<Directory>,
    series: Mutex<TimeSeries<Arc<FleetSnapshot>>>,
    alerts: Mutex<Vec<AlertView>>,
    scrape_latency: Histogram,
}

/// A cloneable read handle onto a running [`FleetObserver`]'s state —
/// what the scrape exporter and terminal views render from without
/// owning (or being able to stop) the observer.
#[derive(Clone, Debug)]
pub struct FleetHandle {
    shared: Arc<ObserverShared>,
}

impl FleetHandle {
    /// The most recent completed scrape (`None` until the first sweep
    /// finishes).
    pub fn latest(&self) -> Option<Arc<FleetSnapshot>> {
        self.shared
            .series
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .latest()
            .map(|p| Arc::clone(&p.value))
    }

    /// The fleet's windowed view over (up to) the trailing `window`:
    /// latest snapshot against the retained baseline nearest the window
    /// start. `None` until two scrapes have completed. Retention shorter
    /// than the window shortens the span honestly (see
    /// [`TimeSeries::baseline`]).
    pub fn window(&self, window: Duration) -> Option<FleetWindow> {
        let series = self.shared.series.lock().unwrap_or_else(|p| p.into_inner());
        let latest = series.latest()?;
        let window_nanos = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        let base = series.baseline(latest.at_nanos, window_nanos)?;
        if base.at_nanos >= latest.at_nanos {
            return None;
        }
        Some(latest.value.delta(&base.value))
    }

    /// The SLO engine's current alert states (empty when the observer
    /// runs without SLOs, or before the first evaluation).
    pub fn alerts(&self) -> Vec<AlertView> {
        self.shared
            .alerts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Current directory membership (for rendering `up`/`absent` rows:
    /// a member in the directory but missing from the latest snapshot
    /// was unreachable).
    pub fn members(&self) -> Vec<Member> {
        self.shared.directory.snapshot().members().to_vec()
    }

    /// Snapshots currently retained.
    pub fn series_len(&self) -> usize {
        self.shared
            .series
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// The distribution of whole-scrape wall times.
    pub fn scrape_latency(&self) -> HistogramSnapshot {
        self.shared.scrape_latency.snapshot()
    }
}

/// A running background fleet scraper: one thread polling every member's
/// `Stats` on the configured (jittered) cadence, retaining a bounded
/// [`TimeSeries`] of [`FleetSnapshot`]s, and evaluating the configured
/// SLOs after every sweep. Read through [`FleetObserver::handle`].
///
/// Stops (and joins its thread) on [`FleetObserver::stop`] or drop.
#[derive(Debug)]
pub struct FleetObserver {
    inner: BackgroundLoop,
    shared: Arc<ObserverShared>,
}

impl FleetObserver {
    /// Starts the scraper thread over the shared `directory`.
    pub fn spawn(directory: Arc<Directory>, cfg: FleetObserverConfig) -> FleetObserver {
        let shared = Arc::new(ObserverShared {
            directory: Arc::clone(&directory),
            series: Mutex::new(TimeSeries::new(cfg.retain.max(2))),
            alerts: Mutex::new(Vec::new()),
            scrape_latency: Histogram::new(),
        });
        let inner = {
            let shared = Arc::clone(&shared);
            let mut sessions: HashMap<ServerId, CotClient> = HashMap::new();
            let mut engine = SloEngine::new(cfg.slos.clone());
            // Jitter PRNG: a cheap xorshift seeded per-observer from the
            // std random hasher state (no rand dependency, unique per
            // process and per spawn).
            let mut rng = jitter_seed();
            BackgroundLoop::spawn(move || {
                let watch = Stopwatch::start();
                let snap = scrape_with(&directory, cfg.timeout, &mut sessions);
                shared.scrape_latency.record_elapsed(watch);
                let at = snap.at_nanos;
                {
                    let mut series = shared.series.lock().unwrap_or_else(|p| p.into_inner());
                    series.push(at, Arc::new(snap));
                    if !engine.is_empty() {
                        let alerts = engine.evaluate(&series, at);
                        drop(series);
                        *shared.alerts.lock().unwrap_or_else(|p| p.into_inner()) = alerts;
                    }
                }
                Some(jittered(cfg.interval, cfg.jitter, &mut rng))
            })
        };
        FleetObserver { inner, shared }
    }

    /// A cloneable read handle (snapshots, windows, alerts) usable after
    /// this observer is moved or from other threads.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The most recent completed scrape (`None` until the first sweep
    /// finishes). Cloned out so the caller never holds the publisher's
    /// lock across its own work.
    pub fn latest(&self) -> Option<FleetSnapshot> {
        self.handle().latest().map(|s| (*s).clone())
    }

    /// The distribution of whole-scrape wall times (connect + `Stats` +
    /// merge across the fleet) — the cost of observing, observed.
    pub fn scrape_latency(&self) -> HistogramSnapshot {
        self.shared.scrape_latency.snapshot()
    }

    /// Stops the scraper and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// Seeds the jitter PRNG from the std hasher's per-process random state.
fn jitter_seed() -> u64 {
    let state = std::collections::hash_map::RandomState::new();
    let mut h = state.build_hasher();
    h.write_u64(0x0b5e_72e5_11ed_a110);
    h.finish() | 1
}

/// One xorshift64 step and a uniform draw of `interval · [1−j, 1+j)`.
fn jittered(interval: Duration, jitter: f64, state: &mut u64) -> Duration {
    let j = jitter.clamp(0.0, 0.9);
    if j == 0.0 {
        return interval;
    }
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let factor = 1.0 - j + 2.0 * j * unit;
    Duration::from_secs_f64(interval.as_secs_f64() * factor)
}
