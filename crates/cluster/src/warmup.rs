//! Background pool warm-up: extensions run *before* demand arrives.
//!
//! The Ironman pipeline wins by keeping OT extension output streaming
//! toward the compute side instead of computing it on the critical path;
//! this module is the serving-layer version of that idea, at two scopes:
//!
//! * [`Warmup`] — the per-pool refiller: a thread sweeps one
//!   [`SharedCotPool`] and tops up any shard below the configured
//!   low-watermark. Its cadence is **adaptive**: a sweep that finds every
//!   shard already above watermark doubles the pause (bounded by
//!   [`WarmupConfig::max_interval`]) instead of spinning, and any refill
//!   resets it — so an idle server costs almost nothing while a draining
//!   one is swept at full rate.
//! * [`FleetWarmup`] — the fleet-level controller that replaces per-server
//!   refiller fleets: one thread reads every member's `Stats` (per-shard
//!   occupancy plus the `pending_stream_cots` subscription backlog) and
//!   splits a global per-sweep refill **budget** across servers
//!   proportionally to their demand, issuing budgeted `Warm` RPCs. Refill
//!   capacity follows subscription backlog instead of being spent evenly
//!   — the ROADMAP's cross-server demand balancing.
//!
//! Both refillers use [`SharedCotPool::warm`]/`warm_budgeted`, which skip
//! busy shards rather than blocking behind them: warm-up never adds
//! latency to the demand path it exists to protect. Effectiveness is
//! observable through the `Stats` reply (`warmup_refills` and the
//! per-shard occupancy/demand/refill counters).

use crate::background::BackgroundLoop;
use crate::directory::{Directory, ServerId};
use ironman_core::SharedCotPool;
use ironman_net::{CotClient, OpTimeouts};
use ironman_telemetry::{Histogram, HistogramSnapshot, Stopwatch};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`Warmup`] refiller.
#[derive(Clone, Copy, Debug)]
pub struct WarmupConfig {
    /// Refill a shard when its buffered correlations drop below this.
    ///
    /// The effective value is clamped per shard, per sweep, by
    /// `SharedCotPool::warm` against the shard's *live* supply mode: up
    /// to two extensions' output for remnant-merging (pipelined) shards,
    /// and half an extension for buffer-replacing (inline) shards —
    /// including a pipelined shard that degraded to inline after its
    /// session threads died — where a post-drain refill discards the
    /// live remnant and the half cap bounds the discard to at most half
    /// the work each refill buys.
    pub low_watermark: usize,
    /// Base pause between sweeps (the cadence while refills happen).
    pub interval: Duration,
    /// Upper bound for the adaptive back-off: when a sweep refills
    /// nothing, the pause doubles up to this (clamped to at least
    /// `interval`); the first refill resets it.
    pub max_interval: Duration,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        WarmupConfig {
            // As warm as the half-buffer cap allows.
            low_watermark: usize::MAX,
            interval: Duration::from_millis(5),
            max_interval: Duration::from_millis(80),
        }
    }
}

/// A running background refiller over one server's [`SharedCotPool`].
///
/// Stops (and joins its thread) on [`Warmup::stop`] or drop.
#[derive(Debug)]
pub struct Warmup {
    inner: BackgroundLoop,
    sweep_latency: Arc<Histogram>,
}

impl Warmup {
    /// Starts the refiller thread over `pool` (the watermark is clamped
    /// per shard on every sweep; see [`WarmupConfig::low_watermark`]).
    pub fn spawn(pool: Arc<SharedCotPool>, cfg: WarmupConfig) -> Warmup {
        // Per-shard, per-sweep supply-mode clamping happens inside
        // SharedCotPool::warm (see WarmupConfig::low_watermark).
        let low_watermark = cfg.low_watermark.max(1);
        let max_interval = cfg.max_interval.max(cfg.interval);
        let mut pause = cfg.interval;
        let sweep_latency = Arc::new(Histogram::new());
        let inner = {
            let sweep_latency = Arc::clone(&sweep_latency);
            BackgroundLoop::spawn(move || {
                // A panicking refill must not poison shutdown (the serve
                // paths guard their pool calls the same way); the
                // refiller retires and the service degrades to inline
                // extensions, which `warmup_refills` stalling makes
                // observable.
                let watch = Stopwatch::start();
                let sweep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.warm(low_watermark)
                }));
                sweep_latency.record_elapsed(watch);
                pause = match sweep {
                    Err(_) => return None,
                    // Bounded exponential back-off while every shard sits
                    // above watermark; full cadence the moment a sweep
                    // does real work again.
                    Ok(0) => (pause * 2).min(max_interval),
                    Ok(_) => cfg.interval,
                };
                Some(pause)
            })
        };
        Warmup {
            inner,
            sweep_latency,
        }
    }

    /// The distribution of warm-up sweep wall times in nanoseconds (both
    /// no-op sweeps, which bound the refiller's idle cost, and refilling
    /// ones, which bound how long one shard top-up occupies the thread).
    pub fn sweep_latency(&self) -> HistogramSnapshot {
        self.sweep_latency.snapshot()
    }

    /// Stops the refiller and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// Configuration of a [`FleetWarmup`] controller.
#[derive(Clone, Copy, Debug)]
pub struct FleetWarmupConfig {
    /// Per-shard low watermark each `Warm` RPC refills toward (clamped
    /// server-side per supply mode, exactly like
    /// [`WarmupConfig::low_watermark`]).
    pub watermark: u64,
    /// Global shard-refill budget per sweep, split across servers
    /// proportionally to demand.
    pub budget: usize,
    /// How much one pending streamed correlation weighs against one
    /// correlation of passive watermark deficit when splitting the
    /// budget (demand should dominate topping-up).
    pub demand_weight: u64,
    /// Base pause between sweeps.
    pub interval: Duration,
    /// Upper bound for the adaptive back-off (same discipline as
    /// [`WarmupConfig::max_interval`]).
    pub max_interval: Duration,
    /// Per-step timeout for the controller's server sessions (connect
    /// and each `Stats`/`Warm` round trip): a blackholed member costs
    /// the sweep one timeout, never an OS-default connect stall.
    pub timeout: Duration,
}

impl Default for FleetWarmupConfig {
    fn default() -> Self {
        FleetWarmupConfig {
            watermark: u64::MAX,
            budget: 4,
            demand_weight: 4,
            interval: Duration::from_millis(5),
            max_interval: Duration::from_millis(80),
            timeout: Duration::from_millis(500),
        }
    }
}

/// The fleet-level warm-up controller (see the module docs): one thread
/// steering a global refill budget toward the servers with the deepest
/// subscription backlogs, over ordinary `Stats`/`Warm` RPC sessions.
///
/// Stops (and joins its thread) on [`FleetWarmup::stop`] or drop.
#[derive(Debug)]
pub struct FleetWarmup {
    inner: BackgroundLoop,
    sweep_latency: Arc<Histogram>,
}

impl FleetWarmup {
    /// Starts the controller thread over the shared `directory`.
    pub fn spawn(directory: Arc<Directory>, cfg: FleetWarmupConfig) -> FleetWarmup {
        let max_interval = cfg.max_interval.max(cfg.interval);
        let mut sessions: HashMap<ServerId, CotClient> = HashMap::new();
        let mut pause = cfg.interval;
        let sweep_latency = Arc::new(Histogram::new());
        let inner = {
            let sweep_latency = Arc::clone(&sweep_latency);
            BackgroundLoop::spawn(move || {
                let watch = Stopwatch::start();
                let refills = sweep(&directory, &cfg, &mut sessions);
                sweep_latency.record_elapsed(watch);
                pause = if refills == 0 {
                    (pause * 2).min(max_interval)
                } else {
                    cfg.interval
                };
                Some(pause)
            })
        };
        FleetWarmup {
            inner,
            sweep_latency,
        }
    }

    /// The distribution of controller sweep wall times in nanoseconds
    /// (polling every member's `Stats`, weighing demand, and issuing the
    /// budgeted `Warm` RPCs).
    pub fn sweep_latency(&self) -> HistogramSnapshot {
        self.sweep_latency.snapshot()
    }

    /// Stops the controller and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// One controller sweep: poll every member's stats, weigh demand, split
/// the budget, and issue the budgeted `Warm` RPCs. Returns total shards
/// refilled.
fn sweep(
    directory: &Directory,
    cfg: &FleetWarmupConfig,
    sessions: &mut HashMap<ServerId, CotClient>,
) -> usize {
    let snapshot = directory.snapshot();
    sessions.retain(|id, _| snapshot.member(*id).is_some());
    // Gather (id, weight) for every reachable member. A member that
    // cannot be reached just sits this sweep out — the health checker
    // owns declaring it dead — and suspect members are skipped outright
    // rather than re-dialed every sweep.
    let mut weighed: Vec<(ServerId, u64)> = Vec::with_capacity(snapshot.len());
    for member in snapshot.members() {
        if member.state == crate::directory::MemberState::Suspect {
            sessions.remove(&member.id);
            continue;
        }
        let client = match sessions.entry(member.id) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                match CotClient::connect_with(
                    member.addr,
                    "fleet-warmup",
                    ironman_net::EPOCH_UNAWARE,
                    OpTimeouts::uniform(cfg.timeout),
                ) {
                    Ok(c) => v.insert(c),
                    Err(_) => continue,
                }
            }
        };
        let max_request = client.max_request();
        let stats = match client.stats() {
            Ok(s) => s,
            Err(_) => {
                sessions.remove(&member.id);
                continue;
            }
        };
        // Deficit against the effective watermark: the server clamps a
        // merge-refill shard at 2× one extension, so cap the client-side
        // view the same way to keep full shards weightless.
        let effective = cfg.watermark.min(max_request.saturating_mul(2));
        let deficit: u64 = stats
            .shard_stats
            .iter()
            .map(|s| effective.saturating_sub(s.available))
            .sum();
        let weight = cfg
            .demand_weight
            .saturating_mul(stats.pending_stream_cots)
            .saturating_add(deficit);
        weighed.push((member.id, weight));
    }
    let weights: Vec<u64> = weighed.iter().map(|&(_, w)| w).collect();
    let shares = allocate_budget(cfg.budget as u64, &weights);
    let mut refills = 0usize;
    for ((id, _), share) in weighed.iter().zip(shares) {
        if share == 0 {
            continue;
        }
        if let Some(client) = sessions.get_mut(id) {
            match client.warm(cfg.watermark, share) {
                Ok(r) => refills += r as usize,
                Err(_) => {
                    sessions.remove(id);
                }
            }
        }
    }
    refills
}

/// Splits `budget` across `weights` proportionally (largest-remainder
/// rounding; zero-weight entries get nothing, and with every weight zero
/// the whole budget stays unspent). Exposed for direct testing: given a
/// server with 4× the backlog weight of its peers, its share must be
/// measurably larger.
pub fn allocate_budget(budget: u64, weights: &[u64]) -> Vec<u64> {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 || budget == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact = (w as u128) * (budget as u128);
        let floor = (exact / total) as u64;
        shares.push(floor);
        assigned += floor;
        remainders.push((exact % total, i));
    }
    // Hand the leftover units to the largest remainders (ties toward
    // earlier entries, i.e. join order — deterministic).
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = budget - assigned;
    for &(rem, i) in &remainders {
        if leftover == 0 {
            break;
        }
        // Never give budget to a zero-weight server.
        if rem == 0 && weights[i] == 0 {
            continue;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_core::{Backend, Engine};
    use ironman_ot::ferret::FerretConfig;
    use ironman_ot::params::FerretParams;
    use std::time::Instant;

    #[test]
    fn warmup_fills_pool_before_demand() {
        let engine = Engine::new(
            FerretConfig::new(FerretParams::toy()),
            Backend::ironman_default(),
        );
        let pool = Arc::new(SharedCotPool::new(&engine, 2, 3));
        let warmup = Warmup::spawn(Arc::clone(&pool), WarmupConfig::default());
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.available() < 2 * pool.max_request() {
            assert!(Instant::now() < deadline, "warm-up never filled the pool");
            std::thread::sleep(Duration::from_millis(2));
        }
        warmup.stop();
        assert!(pool.warmup_refills() >= 2);
        // Demand after warm-up is pure buffer drain.
        let extensions_before = pool.extensions_run();
        pool.take(100).verify().unwrap();
        assert_eq!(pool.extensions_run(), extensions_before);
    }

    #[test]
    fn budget_allocation_steers_toward_backlog() {
        // The acceptance shape: one server with 4× the backlog weight of
        // its two peers gets the dominant share of the budget.
        let shares = allocate_budget(6, &[4000, 1000, 1000]);
        assert_eq!(shares.iter().sum::<u64>(), 6);
        assert!(
            shares[0] >= 2 * shares[1] && shares[0] >= 2 * shares[2],
            "4× backlog must earn a measurably larger share: {shares:?}"
        );
        // Zero weights get nothing; the budget is conserved, never
        // over-assigned.
        assert_eq!(allocate_budget(5, &[0, 0]), vec![0, 0]);
        let shares = allocate_budget(3, &[7, 0, 2]);
        assert_eq!(shares[1], 0);
        assert_eq!(shares.iter().sum::<u64>(), 3);
        // Budget smaller than the server count still lands on the
        // heaviest entries.
        let shares = allocate_budget(1, &[1, 10, 1]);
        assert_eq!(shares, vec![0, 1, 0]);
    }
}
