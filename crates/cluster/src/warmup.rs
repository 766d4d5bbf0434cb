//! Background pool warm-up: extensions run *before* demand arrives.
//!
//! The Ironman pipeline wins by keeping OT extension output streaming
//! toward the compute side instead of computing it on the critical path;
//! this module is the serving-layer version of that idea, and the fleet's
//! only refill scheduler: supply is local to the shard, so nothing
//! refills over the wire.
//!
//! [`Warmup`] is the per-pool refiller: a thread sweeps one
//! [`SharedCotPool`] and tops up any shard below the configured
//! low-watermark. Its cadence is **adaptive**: a sweep that finds every
//! shard already above watermark doubles the pause (bounded by
//! [`WarmupConfig::max_interval`]) instead of spinning, and any refill
//! resets it — so an idle server costs almost nothing while a draining
//! one is swept at full rate.
//!
//! The refiller uses [`SharedCotPool::warm`], which skips busy shards
//! rather than blocking behind them: warm-up never adds latency to the
//! demand path it exists to protect. Effectiveness is observable through
//! the `Stats` reply (`warmup_refills` and the per-shard
//! occupancy/demand/refill counters).

use crate::background::BackgroundLoop;
use ironman_ot::SharedCotPool;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`Warmup`] refiller.
#[derive(Clone, Copy, Debug)]
pub struct WarmupConfig {
    /// Refill a shard when its buffered correlations drop below this.
    ///
    /// Each shard clamps the effective value to two extensions' output
    /// (`CotPool::ensure`), so a sweeping refiller cannot grow a buffer
    /// without bound.
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
            // As warm as the two-extension cap allows.
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
}

impl Warmup {
    /// Starts the refiller thread over `pool` (the watermark is clamped
    /// per shard; see [`WarmupConfig::low_watermark`]).
    pub fn spawn(pool: Arc<SharedCotPool>, cfg: WarmupConfig) -> Warmup {
        let low_watermark = cfg.low_watermark.max(1);
        let max_interval = cfg.max_interval.max(cfg.interval);
        let mut pause = cfg.interval;
        let inner = BackgroundLoop::spawn(move || {
            // A panicking refill (a shard whose respawned session died
            // too) must not poison shutdown (the serve paths guard
            // their pool calls the same way); the refiller retires and
            // demand drains the sessions directly, which
            // `warmup_refills` stalling makes observable.
            let sweep =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.warm(low_watermark)));
            pause = match sweep {
                Err(_) => return None,
                // Bounded exponential back-off while every shard sits
                // above watermark; full cadence the moment a sweep
                // does real work again.
                Ok(0) => (pause * 2).min(max_interval),
                Ok(_) => cfg.interval,
            };
            Some(pause)
        });
        Warmup { inner }
    }

    /// Stops the refiller and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironman_ot::ferret::FerretConfig;
    use ironman_ot::params::FerretParams;
    use ironman_ot::CotSlice;
    use std::time::Instant;

    #[test]
    fn warmup_fills_pool_before_demand() {
        let ferret = FerretConfig::new(FerretParams::toy());
        let pool = Arc::new(SharedCotPool::new_pipelined(&ferret, 2, 3));
        let warmup = Warmup::spawn(Arc::clone(&pool), WarmupConfig::default());
        let deadline = Instant::now() + Duration::from_secs(30);
        // Every shard holds a take's worth, so the take below cannot
        // land on a shard that still has to wait on its session.
        while pool
            .shard_stats()
            .iter()
            .any(|s| s.available < pool.max_request() as u64)
        {
            assert!(Instant::now() < deadline, "warm-up never filled the pool");
            std::thread::sleep(Duration::from_millis(2));
        }
        warmup.stop();
        assert!(pool.warmup_refills() >= 2);
        // Demand after warm-up is pure buffer drain.
        let extensions_run =
            || -> u64 { pool.shard_stats().iter().map(|s| s.extensions_run).sum() };
        let extensions_before = extensions_run();
        pool.take_with_shard(100, |runs, _| runs.iter().try_for_each(CotSlice::verify))
            .unwrap();
        assert_eq!(extensions_run(), extensions_before);
    }
}
