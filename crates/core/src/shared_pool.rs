//! A thread-safe, mutex-sharded [`CotPool`] for multi-client serving.
//!
//! A single `Mutex<CotPool>` would serialize every client behind each
//! FERRET refill (one extension at toy scale is already milliseconds, and
//! Table-4 scale is seconds). [`SharedCotPool`] instead keeps `S`
//! independent pools, each behind its own lock, and spreads requests
//! round-robin with lock-stealing: a request first tries every shard
//! without blocking and only then parks on its home shard. Refills on one
//! shard thus overlap with serving on the others — the host-side analogue
//! of the Ironman PU streaming extensions while the CPU consumes.
//!
//! Each shard is an independent FERRET session with its own `Δ`; a batch
//! never straddles shards, so every [`CotBatch`] stays homogeneous in `Δ`
//! (the invariant [`CotPool::take`] already guarantees per session).

use crate::engine::Engine;
use crate::pool::{CotBatch, CotPool, CotSlice};
use ironman_ot::session::SessionTelemetry;
use ironman_telemetry::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Recovers a poisoned shard: a panic mid-`take` (e.g. an oversized
/// request's assert) leaves the pool state consistent, so serving must
/// continue rather than cascade the panic to every other client.
fn lock_shard(shard: &Mutex<CotPool>) -> MutexGuard<'_, CotPool> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One shard's self-consistent counter snapshot (counters read under a
/// single lock acquisition): occupancy, extension work, demand drained,
/// and warm-up refills, plus the shard's latency distributions
/// (lock-free histograms, snapshotted without the shard lock).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Correlations currently buffered in this shard.
    pub available: usize,
    /// Extensions this shard has executed (inline or warm-up).
    pub extensions_run: usize,
    /// Correlations drained from this shard since construction.
    pub taken_cots: u64,
    /// Refills performed through the warm-up path (`ensure`).
    pub warm_refills: u64,
    /// Extensions completed by the shard's pipelined session threads
    /// (0 for inline shards).
    pub session_extensions: u64,
    /// Times a drain blocked on the session's staging buffer — the
    /// shard's supply-pressure counter (0 for inline shards).
    pub session_stalls: u64,
    /// Per-extension wall time, nanoseconds (pipelined session runs and
    /// inline demand-path refills both record here).
    pub extension_latency: HistogramSnapshot,
    /// Time drains spent blocked on the session's empty staging buffer,
    /// nanoseconds (one sample per stall).
    pub stall_latency: HistogramSnapshot,
}

/// A fixed set of independently locked [`CotPool`] shards.
#[derive(Debug)]
pub struct SharedCotPool {
    shards: Vec<Mutex<CotPool>>,
    /// Per-shard telemetry sinks (parallel to `shards`), shared with
    /// each shard's pool and session so latency snapshots and trace
    /// dumps never take a shard lock.
    telemetry: Vec<SessionTelemetry>,
    next: AtomicUsize,
    max_request: usize,
    warmup_refills: AtomicU64,
}

impl SharedCotPool {
    /// Builds `shards` inline-mode pools over clones of `engine`, with
    /// per-shard seeds derived from `seed` (each refill bootstraps a
    /// fresh FERRET session; see [`CotPool::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(engine: &Engine, shards: usize, seed: u64) -> Self {
        Self::build(engine, shards, seed, false)
    }

    /// Builds `shards` pipelined pools: each shard owns a persistent
    /// FERRET session extending ahead of demand on background threads,
    /// with a fixed per-shard `Δ` and remnant-merging refills (see
    /// [`CotPool::pipelined`]) — the serving-path configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new_pipelined(engine: &Engine, shards: usize, seed: u64) -> Self {
        Self::build(engine, shards, seed, true)
    }

    fn build(engine: &Engine, shards: usize, seed: u64, pipelined: bool) -> Self {
        assert!(shards > 0, "need at least one shard");
        // Generate the LPN matrix exactly once here; every shard's
        // engine clone (and both party threads inside each shard's
        // session) then shares the one `Arc` — N shards would otherwise
        // pay 2N generations, the dominant spawn cost at Table-4 scale.
        let mut engine = engine.clone();
        engine.prepare_shared_matrix();
        let engine = &engine;
        let telemetry: Vec<SessionTelemetry> =
            (0..shards).map(|_| SessionTelemetry::default()).collect();
        let shards = telemetry
            .iter()
            .enumerate()
            .map(|(i, shard_telemetry)| {
                let shard_seed =
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                let pool = if pipelined {
                    CotPool::pipelined_with(engine.clone(), shard_seed, shard_telemetry.clone())
                } else {
                    CotPool::new_with(engine.clone(), shard_seed, shard_telemetry.clone())
                };
                Mutex::new(pool)
            })
            .collect();
        SharedCotPool {
            shards,
            telemetry,
            next: AtomicUsize::new(0),
            max_request: engine.config().usable_outputs(),
            warmup_refills: AtomicU64::new(0),
        }
    }

    /// The per-shard telemetry sinks (in shard order) — lock-free to
    /// snapshot, so the serving layer reads latency distributions and
    /// dumps traces without touching the shard locks.
    pub fn shard_telemetry(&self) -> &[SessionTelemetry] {
        &self.telemetry
    }

    /// Whether **every** shard still merges remnants across refills
    /// (pipelined, fixed-`Δ` supply) instead of replacing its buffer.
    /// Queried live — a pipelined shard whose session threads died
    /// degrades to fresh-`Δ` inline refills, and callers caching
    /// `Δ`-dependent state must see that — so this can flip from `true`
    /// to `false` over the pool's lifetime (never back).
    pub fn merges_remnants(&self) -> bool {
        self.shards.iter().all(|s| lock_shard(s).merges_remnants())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Largest request a single call can serve (one extension's output).
    pub fn max_request(&self) -> usize {
        self.max_request
    }

    /// Takes `count` correlations from one shard (the batch is always
    /// homogeneous in `Δ`).
    ///
    /// Tries each shard without blocking first (starting at this request's
    /// round-robin home), so a shard mid-refill never stalls requests that
    /// another shard could serve from its buffer; blocks on the home shard
    /// only when every shard is busy.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`SharedCotPool::max_request`].
    pub fn take(&self, count: usize) -> CotBatch {
        self.take_with(count, |slice| slice.to_batch())
    }

    /// Takes `count` correlations into a caller-retained batch, reusing
    /// its allocations (same routing and `Δ` semantics as
    /// [`SharedCotPool::take`]).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`SharedCotPool::max_request`].
    pub fn take_into(&self, count: usize, out: &mut CotBatch) {
        self.take_with(count, |slice| slice.copy_into(out));
    }

    /// The zero-copy take: locks one shard (same lock-stealing routing as
    /// [`SharedCotPool::take`]) and hands `f` a [`CotSlice`] borrowing
    /// the shard's ring directly, so the caller can serialize the batch
    /// straight into its own buffer with a single copy. The shard lock is
    /// held for the duration of `f` — keep it to a copy/encode, not I/O.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`SharedCotPool::max_request`].
    pub fn take_with<R>(&self, count: usize, f: impl FnOnce(CotSlice<'_>) -> R) -> R {
        self.take_with_shard(count, |slice, _shard| f(slice))
    }

    /// [`SharedCotPool::take_with`] that also hands `f` the index of the
    /// shard that served the request, so the serving layer can attribute
    /// per-request measurements (latency histograms) to the shard that
    /// actually did the work rather than the round-robin home.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`SharedCotPool::max_request`].
    pub fn take_with_shard<R>(&self, count: usize, f: impl FnOnce(CotSlice<'_>, usize) -> R) -> R {
        let n = self.shards.len();
        let home = self.next.fetch_add(1, Ordering::Relaxed) % n;
        for offset in 0..n {
            let shard = (home + offset) % n;
            match self.shards[shard].try_lock() {
                Ok(mut pool) => return f(pool.take_slice(count), shard),
                Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                    return f(poisoned.into_inner().take_slice(count), shard)
                }
                Err(std::sync::TryLockError::WouldBlock) => {}
            }
        }
        f(lock_shard(&self.shards[home]).take_slice(count), home)
    }

    /// Total correlations buffered across all shards right now.
    pub fn available(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).available()).sum()
    }

    /// Total extensions executed across all shards.
    pub fn extensions_run(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).extensions_run())
            .sum()
    }

    /// Correlations currently buffered, per shard (in shard order).
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock_shard(s).available())
            .collect()
    }

    /// Extensions executed so far, per shard (in shard order).
    pub fn shard_extensions(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock_shard(s).extensions_run())
            .collect()
    }

    /// Per-shard counter snapshots, each read under a single lock
    /// acquisition so every snapshot is self-consistent (separate
    /// [`SharedCotPool::shard_occupancy`]/[`SharedCotPool::shard_extensions`]
    /// sweeps can interleave with a refill and report a shard as both
    /// empty and freshly extended).
    pub fn shard_stats(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .zip(&self.telemetry)
            .map(|(s, telemetry)| {
                let pool = lock_shard(s);
                ShardSnapshot {
                    available: pool.available(),
                    extensions_run: pool.extensions_run(),
                    taken_cots: pool.taken_cots(),
                    warm_refills: pool.warm_refills(),
                    session_extensions: pool.session_extensions(),
                    session_stalls: pool.session_stalls(),
                    extension_latency: telemetry.extension.snapshot(),
                    stall_latency: telemetry.stall.snapshot(),
                }
            })
            .collect()
    }

    /// Refills performed by [`SharedCotPool::warm`] since construction.
    pub fn warmup_refills(&self) -> u64 {
        self.warmup_refills.load(Ordering::Relaxed)
    }

    /// One warm-up sweep: refills every shard whose buffered correlations
    /// have fallen below `low_watermark`, so demand that arrives later is
    /// served from the buffer instead of paying an inline extension — the
    /// host-side analogue of the Ironman PU extending ahead of the CPU's
    /// consumption. Returns the number of shards refilled.
    ///
    /// The watermark is re-clamped **per shard, per sweep** against that
    /// shard's *live* supply mode: a remnant-merging (pipelined) shard
    /// allows up to two extensions' output, while a buffer-replacing
    /// (inline — by construction or because its session threads died)
    /// shard is capped at **half** an extension, since a post-drain
    /// refill there discards the live remnant and the half cap bounds
    /// the discard to at most half the work each refill buys.
    ///
    /// The sweep never blocks behind a busy shard: a shard currently
    /// serving (or already being refilled by) another thread is skipped
    /// and caught on the next sweep, so warm-up never adds latency to the
    /// demand path it exists to protect.
    pub fn warm(&self, low_watermark: usize) -> usize {
        let mut refills = 0;
        for shard in &self.shards {
            let mut pool = match shard.try_lock() {
                Ok(pool) => pool,
                Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => continue,
            };
            let cap = if pool.merges_remnants() {
                2 * self.max_request
            } else {
                self.max_request / 2
            };
            if pool.ensure(low_watermark.min(cap.max(1))) {
                refills += 1;
            }
        }
        self.warmup_refills
            .fetch_add(refills as u64, Ordering::Relaxed);
        refills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use ironman_ot::ferret::FerretConfig;
    use ironman_ot::params::FerretParams;
    use std::sync::Arc;

    fn shared(shards: usize) -> SharedCotPool {
        let engine = Engine::new(
            FerretConfig::new(FerretParams::toy()),
            Backend::ironman_default(),
        );
        SharedCotPool::new(&engine, shards, 7)
    }

    #[test]
    fn serves_verified_batches() {
        let pool = shared(2);
        for _ in 0..4 {
            pool.take(200).verify().unwrap();
        }
        assert!(pool.extensions_run() >= 1);
    }

    #[test]
    fn concurrent_takes_all_verify() {
        let pool = Arc::new(shared(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..5 {
                        pool.take(100).verify().unwrap();
                    }
                });
            }
        });
        assert!(pool.available() > 0 || pool.extensions_run() > 0);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _ = shared(0);
    }

    #[test]
    fn warm_fills_every_shard_to_watermark() {
        let pool = shared(3);
        assert_eq!(pool.shard_occupancy(), vec![0, 0, 0]);
        let refilled = pool.warm(pool.max_request());
        assert_eq!(refilled, 3);
        assert_eq!(pool.warmup_refills(), 3);
        for occupancy in pool.shard_occupancy() {
            assert_eq!(occupancy, pool.max_request());
        }
        // A warm pool is a no-op to warm again.
        assert_eq!(pool.warm(pool.max_request()), 0);
        assert_eq!(pool.warmup_refills(), 3);
        // Per-shard warm refill counters sum to the pool total.
        let stats = pool.shard_stats();
        assert_eq!(
            stats.iter().map(|s| s.warm_refills).sum::<u64>(),
            pool.warmup_refills()
        );
        assert_eq!(stats.iter().map(|s| s.taken_cots).sum::<u64>(), 0);
        // Demand after warm-up is served without an inline extension.
        let before = pool.extensions_run();
        pool.take(100).verify().unwrap();
        assert_eq!(pool.extensions_run(), before);
    }

    #[test]
    fn per_shard_counters_track_refills() {
        let pool = shared(2);
        pool.warm(1);
        let ext = pool.shard_extensions();
        assert_eq!(ext.iter().sum::<usize>(), pool.extensions_run());
        assert!(ext.iter().all(|&e| e == 1));
    }

    #[test]
    fn take_with_encodes_under_the_shard_lock() {
        let pool = shared(2);
        let mut sink: Vec<u8> = Vec::new();
        let n = pool.take_with(300, |slice| {
            slice.verify().unwrap();
            for b in slice.z {
                sink.extend_from_slice(&b.to_le_bytes());
            }
            slice.len()
        });
        assert_eq!(n, 300);
        assert_eq!(sink.len(), 300 * 16);
    }

    #[test]
    fn pipelined_shared_pool_serves_and_merges() {
        let engine = Engine::new(
            FerretConfig::new(FerretParams::toy()),
            Backend::ironman_default(),
        );
        let pool = SharedCotPool::new_pipelined(&engine, 2, 21);
        assert!(pool.merges_remnants());
        let mut reused = CotBatch::default();
        for _ in 0..6 {
            pool.take_into(1500, &mut reused);
            reused.verify().unwrap();
            assert_eq!(reused.len(), 1500);
        }
    }

    #[test]
    fn pipelined_shards_report_session_counters() {
        let engine = Engine::new(
            FerretConfig::new(FerretParams::toy()),
            Backend::ironman_default(),
        );
        let pool = SharedCotPool::new_pipelined(&engine, 1, 31);
        let usable = engine.config().usable_outputs();
        let mut reused = CotBatch::default();
        for _ in 0..6 {
            pool.take_into(usable, &mut reused);
            reused.verify().unwrap();
        }
        let stats = pool.shard_stats();
        assert!(
            stats.iter().map(|s| s.session_extensions).sum::<u64>() >= 6,
            "session extensions must be visible per shard: {stats:?}"
        );
        // Six back-to-back full-extension drains (instant) against a
        // 2-deep staging buffer fed at one ~15ms extension apiece: the
        // drains outrun the session past any scheduling luck, so at
        // least one receive finds the buffer empty.
        let stalls: u64 = stats.iter().map(|s| s.session_stalls).sum();
        assert!(
            stalls >= 1,
            "back-to-back drains must record supply pressure"
        );
        // Inline pools have no session counters.
        let inline = shared(1);
        inline.take(10).verify().unwrap();
        let istats = inline.shard_stats();
        assert_eq!(istats[0].session_extensions, 0);
        assert_eq!(istats[0].session_stalls, 0);
    }

    #[test]
    fn pipelined_concurrent_takes_all_verify() {
        let engine = Engine::new(
            FerretConfig::new(FerretParams::toy()),
            Backend::ironman_default(),
        );
        let pool = Arc::new(SharedCotPool::new_pipelined(&engine, 2, 5));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut reused = CotBatch::default();
                    for _ in 0..5 {
                        pool.take_into(400, &mut reused);
                        reused.verify().unwrap();
                    }
                });
            }
        });
        assert!(pool.extensions_run() > 0);
    }
}
