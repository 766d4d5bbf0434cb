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
//! (the invariant [`CotPool::take_slice`] already guarantees per session).
//!
//! Only the takes and the warm-up sweep lock a shard. Every read —
//! occupancy, counters, latencies, traces — goes to the shard's
//! [`SessionTelemetry`], so a reader never waits on a take, however long
//! the taker holds the shard.

use crate::cot::{CotBatch, CotSlice};
use crate::ferret::FerretConfig;
use crate::pool::CotPool;
use crate::session::SessionTelemetry;
use ironman_telemetry::HistogramSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Recovers a poisoned shard: a panic mid-`take` (e.g. an oversized
/// request's assert) leaves the pool state consistent, so serving must
/// continue rather than cascade the panic to every other client.
fn lock_shard(shard: &Mutex<CotPool>) -> MutexGuard<'_, CotPool> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One shard's counters and latency distributions, read from its
/// [`SessionTelemetry`] without the shard lock. Each field is its own
/// relaxed read, so the snapshot is not atomic as a whole: a take or
/// refill landing mid-read can show in one field and not yet in another.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Correlations buffered in this shard, as of its last take or
    /// refill.
    pub available: u64,
    /// Extensions this shard has merged into its buffer (staged or
    /// inline).
    pub extensions_run: u64,
    /// Correlations drained from this shard since construction.
    pub taken_cots: u64,
    /// Refills performed through the warm-up path (`ensure`).
    pub warm_refills: u64,
    /// Extensions completed by the shard's pipelined session's thread
    /// (0 for shards built inline).
    pub session_extensions: u64,
    /// Times a drain blocked on the session's staging buffer — the
    /// shard's supply-pressure counter (0 for shards built inline).
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
    /// Per-shard counter and telemetry homes (parallel to `shards`),
    /// shared with each shard's pool and session, so every read goes
    /// here and none takes a shard lock.
    telemetry: Vec<Arc<SessionTelemetry>>,
    next: AtomicUsize,
    max_request: usize,
}

impl SharedCotPool {
    /// Builds `shards` inline-mode pools over `cfg`, with per-shard seeds
    /// derived from `seed` (each refill bootstraps a fresh FERRET
    /// session; see [`CotPool::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(cfg: &FerretConfig, shards: usize, seed: u64) -> Self {
        Self::build(cfg, shards, seed, false)
    }

    /// Builds `shards` pipelined pools: each shard owns a persistent
    /// FERRET session extending ahead of demand on its own thread,
    /// with a fixed per-shard `Δ` and remnant-merging refills (see
    /// [`CotPool::pipelined`]) — the serving-path configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new_pipelined(cfg: &FerretConfig, shards: usize, seed: u64) -> Self {
        Self::build(cfg, shards, seed, true)
    }

    fn build(cfg: &FerretConfig, shards: usize, seed: u64, pipelined: bool) -> Self {
        assert!(shards > 0, "need at least one shard");
        // Generate the LPN matrix exactly once here; every shard's
        // config clone (and both parties inside each shard's session)
        // then shares the one `Arc` — N shards would otherwise pay N
        // generations, the dominant spawn cost at Table-4 scale.
        let mut cfg = cfg.clone();
        cfg.ensure_shared_matrix();
        let telemetry: Vec<Arc<SessionTelemetry>> = (0..shards).map(|_| Arc::default()).collect();
        let shards = telemetry
            .iter()
            .enumerate()
            .map(|(i, shard_telemetry)| {
                let shard_seed =
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                let shard_telemetry = Arc::clone(shard_telemetry);
                let pool = if pipelined {
                    CotPool::pipelined(cfg.clone(), shard_seed, shard_telemetry)
                } else {
                    CotPool::new(cfg.clone(), shard_seed, shard_telemetry)
                };
                Mutex::new(pool)
            })
            .collect();
        SharedCotPool {
            shards,
            telemetry,
            next: AtomicUsize::new(0),
            max_request: cfg.usable_outputs(),
        }
    }

    /// The per-shard counter and telemetry homes (in shard order) —
    /// lock-free to read, so the serving layer reads counters, latency
    /// distributions and traces without touching the shard locks.
    pub fn shard_telemetry(&self) -> &[Arc<SessionTelemetry>] {
        &self.telemetry
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Largest request a single call can serve (one extension's output).
    pub fn max_request(&self) -> usize {
        self.max_request
    }

    /// Takes `count` correlations into a caller-retained batch, reusing
    /// its allocations (same routing and `Δ` semantics as
    /// [`SharedCotPool::take_with_shard`]).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`SharedCotPool::max_request`].
    pub fn take_into(&self, count: usize, out: &mut CotBatch) {
        self.take_with_shard(count, |slice, _shard| slice.copy_into(out));
    }

    /// The zero-copy take: locks one shard and hands `f` a [`CotSlice`]
    /// borrowing the shard's ring directly (always homogeneous in `Δ`),
    /// plus the index of the shard that served it, so the serving layer
    /// can serialize the batch straight into its own buffer and attribute
    /// per-request measurements to the shard that did the work.
    ///
    /// Tries each shard without blocking first (starting at this request's
    /// round-robin home), so a shard mid-refill never stalls requests that
    /// another shard could serve from its buffer; blocks on the home shard
    /// only when every shard is busy. The shard lock is held for the
    /// duration of `f`: other takes route around it, and counter reads
    /// never wait for it.
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

    /// Total correlations buffered across all shards, as of each shard's
    /// last take or refill.
    pub fn available(&self) -> usize {
        self.telemetry
            .iter()
            .map(|t| t.available.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// Per-shard counter snapshots (in shard order); see
    /// [`ShardSnapshot`] for what a snapshot does and does not promise.
    pub fn shard_stats(&self) -> Vec<ShardSnapshot> {
        self.telemetry
            .iter()
            .map(|t| ShardSnapshot {
                available: t.available.load(Ordering::Relaxed),
                extensions_run: t.extensions_run.load(Ordering::Relaxed),
                taken_cots: t.taken.load(Ordering::Relaxed),
                warm_refills: t.warm_refills.load(Ordering::Relaxed),
                session_extensions: t.extensions_staged.load(Ordering::Relaxed),
                session_stalls: t.consumer_stalls.load(Ordering::Relaxed),
                extension_latency: t.extension.snapshot(),
                stall_latency: t.stall.snapshot(),
            })
            .collect()
    }

    /// Refills performed by [`SharedCotPool::warm`] since construction
    /// (the sum of the shards' `warm_refills`).
    pub fn warmup_refills(&self) -> u64 {
        self.telemetry
            .iter()
            .map(|t| t.warm_refills.load(Ordering::Relaxed))
            .sum()
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
    /// (inline — by construction or because its session thread died)
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
        refills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FerretParams;
    use std::sync::mpsc;
    use std::time::Duration;

    fn cfg() -> FerretConfig {
        FerretConfig::new(FerretParams::toy())
    }

    fn shared(shards: usize) -> SharedCotPool {
        SharedCotPool::new(&cfg(), shards, 7)
    }

    fn extensions_run(pool: &SharedCotPool) -> u64 {
        pool.shard_stats().iter().map(|s| s.extensions_run).sum()
    }

    #[test]
    fn serves_verified_batches() {
        let pool = shared(2);
        let mut batch = CotBatch::default();
        for _ in 0..4 {
            pool.take_into(200, &mut batch);
            batch.verify().unwrap();
        }
        assert!(extensions_run(&pool) >= 1);
    }

    #[test]
    fn concurrent_takes_all_verify() {
        let pool = Arc::new(shared(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut batch = CotBatch::default();
                    for _ in 0..5 {
                        pool.take_into(100, &mut batch);
                        batch.verify().unwrap();
                    }
                });
            }
        });
        assert!(pool.available() > 0 || extensions_run(&pool) > 0);
        // Consume-once accounting: the counter homes saw every take.
        let taken: u64 = pool.shard_stats().iter().map(|s| s.taken_cots).sum();
        assert_eq!(taken, 8 * 5 * 100);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _ = shared(0);
    }

    #[test]
    fn warm_fills_every_shard_to_watermark() {
        let pool = shared(3);
        let occupancy = |pool: &SharedCotPool| {
            pool.shard_stats()
                .iter()
                .map(|s| s.available)
                .collect::<Vec<_>>()
        };
        assert_eq!(occupancy(&pool), vec![0, 0, 0]);
        let refilled = pool.warm(pool.max_request());
        assert_eq!(refilled, 3);
        assert_eq!(pool.warmup_refills(), 3);
        for available in occupancy(&pool) {
            assert_eq!(available, pool.max_request() as u64);
        }
        // A warm pool is a no-op to warm again.
        assert_eq!(pool.warm(pool.max_request()), 0);
        assert_eq!(pool.warmup_refills(), 3);
        let stats = pool.shard_stats();
        assert!(stats.iter().all(|s| s.warm_refills == 1));
        assert_eq!(stats.iter().map(|s| s.taken_cots).sum::<u64>(), 0);
        // Demand after warm-up is served without an inline extension.
        let before = extensions_run(&pool);
        pool.take_with_shard(100, |slice, _| slice.verify())
            .unwrap();
        assert_eq!(extensions_run(&pool), before);
    }

    #[test]
    fn per_shard_counters_track_refills() {
        let pool = shared(2);
        pool.warm(1);
        assert!(pool.shard_stats().iter().all(|s| s.extensions_run == 1));
    }

    #[test]
    fn take_with_shard_encodes_under_the_shard_lock() {
        let pool = shared(2);
        let mut sink: Vec<u8> = Vec::new();
        let (n, shard) = pool.take_with_shard(300, |slice, shard| {
            slice.verify().unwrap();
            for b in slice.z {
                sink.extend_from_slice(&b.to_le_bytes());
            }
            (slice.len(), shard)
        });
        assert_eq!(n, 300);
        assert_eq!(sink.len(), 300 * 16);
        assert_eq!(pool.shard_stats()[shard].taken_cots, 300);
    }

    #[test]
    fn counter_reads_never_wait_on_a_held_shard() {
        // A taker parks inside the take, holding the only shard's lock
        // (as the serving layer does while a socket write blocks). Reads
        // from another thread must still answer — and already show the
        // parked take.
        let pool = &shared(1);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (read_tx, read_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                pool.take_with_shard(10, |_slice, _shard| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            entered_rx.recv().unwrap();
            scope.spawn(move || {
                read_tx
                    .send((pool.shard_stats(), pool.available()))
                    .unwrap()
            });
            let read = read_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            let (stats, available) = read.expect("counter reads waited on the held shard lock");
            assert_eq!(stats[0].taken_cots, 10);
            assert_eq!(stats[0].available as usize, available);
            assert_eq!(available, pool.max_request() - 10);
        });
    }

    #[test]
    fn pipelined_shared_pool_serves_and_merges() {
        let pool = SharedCotPool::new_pipelined(&cfg(), 2, 21);
        let mut reused = CotBatch::default();
        let mut deltas = [None; 2];
        for _ in 0..6 {
            let shard = pool.take_with_shard(1500, |slice, shard| {
                slice.copy_into(&mut reused);
                shard
            });
            reused.verify().unwrap();
            assert_eq!(reused.len(), 1500);
            // Takes straddle refills, yet each shard keeps one Δ: the
            // remnant was merged, not discarded under a fresh session.
            assert_eq!(*deltas[shard].get_or_insert(reused.delta), reused.delta);
        }
    }

    #[test]
    fn pipelined_shards_report_session_counters() {
        let cfg = cfg();
        let pool = SharedCotPool::new_pipelined(&cfg, 1, 31);
        let usable = cfg.usable_outputs();
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
        inline.take_into(10, &mut reused);
        reused.verify().unwrap();
        let istats = inline.shard_stats();
        assert_eq!(istats[0].session_extensions, 0);
        assert_eq!(istats[0].session_stalls, 0);
    }

    #[test]
    fn pipelined_concurrent_takes_all_verify() {
        let pool = Arc::new(SharedCotPool::new_pipelined(&cfg(), 2, 5));
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
        assert!(extensions_run(&pool) > 0);
    }
}
