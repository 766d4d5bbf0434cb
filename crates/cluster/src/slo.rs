//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An operator states objectives over the fleet's *windowed* telemetry —
//! "chunk-push p99 stays under 2 ms", "the fleet supplies at least 1 M
//! COTs/s", "stall time stays under 5% of wall time" — and the
//! [`SloEngine`] evaluates them against the observer's retained
//! [`TimeSeries`] of [`FleetSnapshot`]s after every scrape.
//!
//! Evaluation is multi-window burn-rate (the SRE alerting shape): each
//! objective is checked over a *fast* window and a *slow* window
//! simultaneously. A violation on the fast window alone arms the alert
//! ([`AlertState::Pending`]) — something is burning right now, but it
//! might be a spike. The slow window agreeing promotes it to
//! [`AlertState::Firing`] — the burn is sustained and an operator should
//! look. Both windows staying clear for a hysteresis interval resolves
//! it ([`AlertState::Resolved`]) — a flapping signal cannot re-fire its
//! way through the clear period. The result: short spikes never page,
//! real burns page within the fast window, recovery is announced once.
//!
//! [`TimeSeries`]: ironman_telemetry::TimeSeries
//! [`FleetSnapshot`]: crate::FleetSnapshot

use crate::observe::FleetSnapshot;
use ironman_telemetry::TimeSeries;
use std::sync::Arc;
use std::time::Duration;

/// The fast/slow evaluation windows and the hysteresis interval of one
/// SLO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurnWindows {
    /// The fast window: violation here arms the alert. Defaults to 5 s.
    pub fast: Duration,
    /// The slow window: violation here *and* on the fast window fires
    /// the alert. Defaults to 60 s.
    pub slow: Duration,
    /// How long both windows must stay clear before a firing alert
    /// resolves. Defaults to the fast window.
    pub clear_for: Duration,
}

impl Default for BurnWindows {
    fn default() -> Self {
        BurnWindows {
            fast: Duration::from_secs(5),
            slow: Duration::from_secs(60),
            clear_for: Duration::from_secs(5),
        }
    }
}

/// What an SLO bounds, and where the bound sits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloKind {
    /// Windowed p99 of the fleet's chunk-push latency must stay at or
    /// under `max_nanos`. Not evaluated (never burns) over windows with
    /// no chunk pushes — an idle fleet has no latency to violate.
    ChunkPushP99 {
        /// The p99 bound in nanoseconds.
        max_nanos: u64,
    },
    /// The fleet's windowed COT supply rate (extensions × outputs per
    /// extension, per second) must stay at or above `min_cots_per_sec`.
    SupplyRate {
        /// The supply floor in correlations per second.
        min_cots_per_sec: f64,
    },
    /// The fleet's windowed stall ratio (consumer-stall time per second
    /// of wall time) must stay at or under `max_ratio`.
    StallRatio {
        /// The stall-ratio ceiling (1.0 = one shard's worth of
        /// continuous stalling).
        max_ratio: f64,
    },
}

impl SloKind {
    /// The configured bound, as a number (for display/export).
    pub fn threshold(&self) -> f64 {
        match *self {
            SloKind::ChunkPushP99 { max_nanos } => max_nanos as f64,
            SloKind::SupplyRate { min_cots_per_sec } => min_cots_per_sec,
            SloKind::StallRatio { max_ratio } => max_ratio,
        }
    }

    /// The windowed value this objective is judged on, or `None` when
    /// the window carries no evaluable signal.
    fn measure(&self, series: &TimeSeries<Arc<FleetSnapshot>>, window: Duration) -> Option<f64> {
        let latest = series.latest()?;
        let window_nanos = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        let base = series.baseline(latest.at_nanos, window_nanos)?;
        if base.at_nanos >= latest.at_nanos {
            return None;
        }
        let w = latest.value.delta(&base.value);
        match *self {
            SloKind::ChunkPushP99 { .. } => {
                if w.latency.chunk_push.is_empty() {
                    None
                } else {
                    Some(w.latency.chunk_push.p99() as f64)
                }
            }
            SloKind::SupplyRate { .. } => Some(w.supply_cots_per_sec),
            SloKind::StallRatio { .. } => Some(w.stall_ratio),
        }
    }

    /// Whether `value` violates the objective.
    fn violated(&self, value: f64) -> bool {
        match *self {
            SloKind::ChunkPushP99 { max_nanos } => value > max_nanos as f64,
            SloKind::SupplyRate { min_cots_per_sec } => value < min_cots_per_sec,
            SloKind::StallRatio { max_ratio } => value > max_ratio,
        }
    }
}

/// One declared objective: a name (stable label for alerts and metric
/// export), the bound, and its evaluation windows.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable display/export name (`supply-floor`, `push-p99`, ...).
    pub name: String,
    /// The objective.
    pub kind: SloKind,
    /// Fast/slow windows and hysteresis.
    pub windows: BurnWindows,
}

impl SloSpec {
    /// A named objective with default windows (5 s fast / 60 s slow).
    pub fn new(name: impl Into<String>, kind: SloKind) -> SloSpec {
        SloSpec {
            name: name.into(),
            kind,
            windows: BurnWindows::default(),
        }
    }

    /// The same objective with custom windows.
    pub fn with_windows(mut self, windows: BurnWindows) -> SloSpec {
        self.windows = windows;
        self
    }
}

/// The lifecycle of one alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// No burn observed.
    Inactive,
    /// The fast window is burning; the slow window has not (yet)
    /// agreed. Spikes die here.
    Pending,
    /// Both windows burning: a sustained violation.
    Firing,
    /// Previously firing; both windows have stayed clear through the
    /// hysteresis interval. Sticky until the next burn (so "it fired
    /// and recovered" remains visible), when it re-arms through
    /// [`AlertState::Pending`].
    Resolved,
}

impl AlertState {
    /// Stable numeric encoding for metric export
    /// (0 inactive, 1 pending, 2 firing, 3 resolved).
    pub fn as_gauge(&self) -> u8 {
        match self {
            AlertState::Inactive => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
            AlertState::Resolved => 3,
        }
    }

    /// Display name (`inactive`/`pending`/`firing`/`resolved`).
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One SLO's current evaluation, published after every scrape.
#[derive(Clone, Debug)]
pub struct AlertView {
    /// The spec's stable name.
    pub slo: String,
    /// Current lifecycle state.
    pub state: AlertState,
    /// When the current state was entered (monotonic nanoseconds).
    pub since_nanos: u64,
    /// Whether the fast window currently violates the objective.
    pub fast_burning: bool,
    /// Whether the slow window currently violates the objective.
    pub slow_burning: bool,
    /// The measured value over the fast window (`None`: no signal).
    pub fast_value: Option<f64>,
    /// The measured value over the slow window (`None`: no signal).
    pub slow_value: Option<f64>,
    /// The configured bound.
    pub threshold: f64,
}

struct Entry {
    spec: SloSpec,
    state: AlertState,
    since: u64,
    /// While firing: when both windows last went clear (hysteresis
    /// anchor); `None` while still burning.
    clear_since: Option<u64>,
}

/// Evaluates a set of [`SloSpec`]s against the observer's retained
/// series, advancing each alert's state machine per evaluation. Owned
/// by the observer's scrape loop; read via the published
/// [`AlertView`]s.
pub struct SloEngine {
    entries: Vec<Entry>,
}

impl SloEngine {
    /// An engine over `specs` (all alerts start
    /// [`AlertState::Inactive`]).
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine {
            entries: specs
                .into_iter()
                .map(|spec| Entry {
                    spec,
                    state: AlertState::Inactive,
                    since: 0,
                    clear_since: None,
                })
                .collect(),
        }
    }

    /// Whether no SLOs are configured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evaluates every objective over the retained series at `now`
    /// (the latest scrape's timestamp) and advances the state machines.
    pub fn evaluate(
        &mut self,
        series: &TimeSeries<Arc<FleetSnapshot>>,
        now: u64,
    ) -> Vec<AlertView> {
        self.entries
            .iter_mut()
            .map(|entry| {
                let fast_value = entry.spec.kind.measure(series, entry.spec.windows.fast);
                let slow_value = entry.spec.kind.measure(series, entry.spec.windows.slow);
                let fast_burning = fast_value.is_some_and(|v| entry.spec.kind.violated(v));
                let slow_burning = slow_value.is_some_and(|v| entry.spec.kind.violated(v));
                let next = match entry.state {
                    AlertState::Inactive | AlertState::Resolved if fast_burning => {
                        AlertState::Pending
                    }
                    AlertState::Pending if fast_burning && slow_burning => AlertState::Firing,
                    AlertState::Pending if !fast_burning => AlertState::Inactive,
                    AlertState::Firing if !fast_burning && !slow_burning => {
                        // Hysteresis: both windows must stay clear for
                        // `clear_for` before the alert resolves.
                        let clear_anchor = *entry.clear_since.get_or_insert(now);
                        let clear_nanos = u64::try_from(entry.spec.windows.clear_for.as_nanos())
                            .unwrap_or(u64::MAX);
                        if now.saturating_sub(clear_anchor) >= clear_nanos {
                            AlertState::Resolved
                        } else {
                            AlertState::Firing
                        }
                    }
                    AlertState::Firing => {
                        // Still (or again) burning: restart the clear
                        // clock.
                        entry.clear_since = None;
                        AlertState::Firing
                    }
                    state => state,
                };
                if next != entry.state {
                    entry.state = next;
                    entry.since = now;
                    if next != AlertState::Firing {
                        entry.clear_since = None;
                    }
                }
                AlertView {
                    slo: entry.spec.name.clone(),
                    state: entry.state,
                    since_nanos: entry.since,
                    fast_burning,
                    slow_burning,
                    fast_value,
                    slow_value,
                    threshold: entry.spec.kind.threshold(),
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("slos", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::ServerId;
    use crate::observe::ServerObservation;
    use ironman_net::{LatencyStats, ServiceStats};

    const SEC: u64 = 1_000_000_000;

    /// A synthetic snapshot supplying `rate` COTs/s cumulatively up to
    /// time `at` (single server, 1 COT per extension for easy math).
    fn supply_snapshot(at: u64, cumulative_cots: u64) -> Arc<FleetSnapshot> {
        Arc::new(FleetSnapshot {
            at_nanos: at,
            epoch: 1,
            servers: vec![ServerObservation {
                id: ServerId(1),
                cots_per_extension: 1,
                stats: ServiceStats {
                    extensions_run: cumulative_cots,
                    shards: 1,
                    uptime_nanos: at,
                    ..ServiceStats::default()
                },
            }],
            latency: LatencyStats::default(),
            available: 0,
            pending_stream_cots: 0,
        })
    }

    fn engine_with_floor(min: f64) -> SloEngine {
        SloEngine::new(vec![SloSpec::new(
            "supply-floor",
            SloKind::SupplyRate {
                min_cots_per_sec: min,
            },
        )
        .with_windows(BurnWindows {
            fast: Duration::from_secs(2),
            slow: Duration::from_secs(6),
            clear_for: Duration::from_secs(2),
        })])
    }

    /// Drives the full lifecycle: healthy → burn → pending → firing →
    /// heal → hysteresis → resolved → re-burn re-arms.
    #[test]
    fn alert_lifecycle() {
        let mut series = TimeSeries::new(64);
        let mut engine = engine_with_floor(100.0);
        let mut cum = 0u64;
        let mut at = 0u64;
        let mut step =
            |series: &mut TimeSeries<Arc<FleetSnapshot>>, engine: &mut SloEngine, rate: u64| {
                at += SEC;
                cum += rate;
                series.push(at, supply_snapshot(at, cum));
                let views = engine.evaluate(series, at);
                views[0].state
            };
        // Healthy supply: stays inactive.
        for _ in 0..8 {
            assert_eq!(step(&mut series, &mut engine, 200), AlertState::Inactive);
        }
        // Supply collapses. The first bad second still shares the fast
        // window with a good one (rate lands exactly on the floor); the
        // second leaves the 2 s window all-burn -> pending.
        step(&mut series, &mut engine, 0);
        let s = step(&mut series, &mut engine, 0);
        assert_eq!(s, AlertState::Pending);
        // Slow window (6 s) catches up -> firing.
        let mut state = s;
        for _ in 0..8 {
            state = step(&mut series, &mut engine, 0);
        }
        assert_eq!(state, AlertState::Firing);
        // Supply heals; hysteresis holds firing until both windows are
        // clear for clear_for.
        let mut seen_firing_while_clear = false;
        for _ in 0..12 {
            state = step(&mut series, &mut engine, 200);
            if state == AlertState::Firing {
                seen_firing_while_clear = true;
            }
            if state == AlertState::Resolved {
                break;
            }
        }
        assert!(seen_firing_while_clear, "hysteresis never held");
        assert_eq!(state, AlertState::Resolved);
        // A new burn re-arms from resolved.
        for _ in 0..3 {
            state = step(&mut series, &mut engine, 0);
        }
        assert!(
            state == AlertState::Pending || state == AlertState::Firing,
            "resolved alert must re-arm, got {state:?}"
        );
    }

    /// A one-evaluation spike arms pending but never fires, then goes
    /// back to inactive.
    #[test]
    fn spike_does_not_fire() {
        let mut series = TimeSeries::new(64);
        // Slow window long enough that one bad second cannot drag it
        // under the floor.
        let mut engine = SloEngine::new(vec![SloSpec::new(
            "supply-floor",
            SloKind::SupplyRate {
                min_cots_per_sec: 100.0,
            },
        )
        .with_windows(BurnWindows {
            fast: Duration::from_secs(1),
            slow: Duration::from_secs(30),
            clear_for: Duration::from_secs(2),
        })]);
        let mut cum = 0u64;
        let mut at = 0u64;
        let mut states = Vec::new();
        for rate in [300u64, 300, 300, 300, 300, 0, 300, 300, 300] {
            at += SEC;
            cum += rate;
            series.push(at, supply_snapshot(at, cum));
            states.push(engine.evaluate(&series, at)[0].state);
        }
        assert!(states.contains(&AlertState::Pending), "{states:?}");
        assert!(!states.contains(&AlertState::Firing), "{states:?}");
        assert_eq!(*states.last().unwrap(), AlertState::Inactive);
    }

    /// An idle fleet (no chunk pushes) never burns a latency SLO.
    #[test]
    fn latency_slo_needs_signal() {
        let mut series = TimeSeries::new(16);
        let mut engine = SloEngine::new(vec![SloSpec::new(
            "push-p99",
            SloKind::ChunkPushP99 { max_nanos: 1 },
        )]);
        for t in 1..6u64 {
            series.push(t * SEC, supply_snapshot(t * SEC, 0));
            let views = engine.evaluate(&series, t * SEC);
            assert_eq!(views[0].state, AlertState::Inactive);
            assert_eq!(views[0].fast_value, None);
        }
    }
}
