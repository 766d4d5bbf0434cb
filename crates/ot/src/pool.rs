//! A buffered COT pool with automatic re-extension.
//!
//! PPML frameworks consume correlations in bursts whose sizes don't align
//! with extension outputs (e.g. one ReLU layer of ResNet-18 needs ~2^25
//! COTs, §5.1.3). [`CotPool`] buffers extension outputs and serves
//! arbitrary-sized requests, transparently running additional extensions
//! when the buffer runs dry — the host-side behavior the Ironman PU's
//! streaming offload is designed for.
//!
//! # Supply
//!
//! A pool owns one persistent [`CotSession`], which extends ahead of
//! demand on a background thread; a refill just moves a staged batch from
//! its channel onto the pool's queue: no copy, never a protocol run on
//! the demand path. `Δ` is fixed for the session's lifetime, so a
//! remnant is kept across refills (its batch stays queued ahead of the
//! new one).
//!
//! If the session's thread dies, the next refill respawns it once, with
//! the next seed, the same prebuilt matrix and the same
//! [`SessionTelemetry`]. The batches queued under the old `Δ` are
//! dropped and the pool adopts the new one, so a take never mixes the
//! two. A respawned session that is already dead again panics the call.
//!
//! # Zero-copy consumption
//!
//! The buffer is a queue of [`CotBatch`]es (the COT type of
//! [`crate::cot`], which every extension and staged session batch
//! already is) plus one cursor, so a refill adopts what the protocol
//! produced where it wrote it. [`CotPool::take_with`] hands its closure
//! the take as borrowed [`CotSlice`] runs: one, or two when the take
//! crosses a batch boundary (the front batch's tail, then the next
//! batch's head). A batch is dropped as soon as the take that consumed
//! its last correlation returns. [`CotPool::take_into`] concatenates the
//! runs into a caller-retained [`CotBatch`], reusing its allocations.
//! There is no allocating take: a caller that wants an owned batch keeps
//! a `CotBatch::default()` around.
//!
//! # Counters
//!
//! The pool's counters (extensions adopted, correlations taken, warm-up
//! refills, occupancy) live in its [`SessionTelemetry`], beside the
//! session's own, as relaxed atomics written where they change. A sharded
//! pool reads them there without taking the shard's lock.

use crate::cot::{CotBatch, CotSlice};
use crate::ferret::FerretConfig;
use crate::session::{CotSession, SessionStopped, SessionTelemetry};
use ironman_prg::Block;
use ironman_telemetry::EventKind;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Extensions a session keeps staged ahead of demand. Two is enough to
/// hide one extension behind consumption of the previous one without
/// hoarding memory (each staged extension is one full output).
const SESSION_LOOKAHEAD: usize = 2;

/// A replenishing store of COT correlations over one [`FerretConfig`].
#[derive(Debug)]
pub struct CotPool {
    /// The config the session extends with, its LPN matrix prebuilt (a
    /// respawned session reuses it).
    cfg: FerretConfig,
    /// The seed of the current session.
    seed: u64,
    session: CotSession,
    /// Adopted extension outputs, oldest first, all under `delta`.
    batches: VecDeque<CotBatch>,
    /// Correlations handed out from the front of `batches`, as an offset
    /// into their concatenation. A take pops the batches it used up once
    /// its closure returns, so between takes this is below the front
    /// batch's length.
    cursor: usize,
    /// The session's `Δ`: that of every queued batch, and of an empty
    /// take.
    delta: Block,
    /// The histograms, trace and counters this pool records into, shared
    /// with its session (the session's thread records extension
    /// durations and staged extensions; the drain path records stalls,
    /// refill events and the pool's counters).
    telemetry: Arc<SessionTelemetry>,
}

/// Correlations `start..start + len` of `batch`, borrowed.
fn run(batch: &CotBatch, start: usize, len: usize) -> CotSlice<'_> {
    let range = start..start + len;
    CotSlice {
        delta: batch.delta,
        z: &batch.z[range.clone()],
        x: &batch.x[range.clone()],
        y: &batch.y[range],
    }
}

impl CotPool {
    /// Creates an empty pool over a session on `cfg` that starts
    /// extending at once, on its own thread. Records into `telemetry`,
    /// shared with the session's thread (a sharded pool gives each shard
    /// its own, so the serving layer reads counters and latencies
    /// without locking the shard).
    pub fn new(mut cfg: FerretConfig, seed: u64, telemetry: Arc<SessionTelemetry>) -> Self {
        // One matrix for the session's two parties and for any respawn
        // (and zero new allocations when a shard pool already prebuilt
        // it).
        cfg.ensure_shared_matrix();
        let session = CotSession::spawn_with(&cfg, seed, SESSION_LOOKAHEAD, Arc::clone(&telemetry));
        CotPool {
            delta: session.delta(),
            cfg,
            seed,
            session,
            batches: VecDeque::new(),
            cursor: 0,
            telemetry,
        }
    }

    /// The telemetry and counters this pool and its session record into.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Correlations currently buffered and unconsumed.
    pub fn available(&self) -> usize {
        self.batches.iter().map(CotBatch::len).sum::<usize>() - self.cursor
    }

    /// Extensions adopted into the buffer so far.
    pub fn extensions_run(&self) -> u64 {
        self.telemetry.extensions_run.load(Ordering::Relaxed)
    }

    /// Publishes the buffer's occupancy to the counter home; called
    /// wherever the buffer or `cursor` moves.
    fn publish_available(&self) {
        self.telemetry
            .available
            .store(self.available() as u64, Ordering::Relaxed);
    }

    /// Queues one staged session batch behind the buffered ones (same
    /// `Δ`, so the remnant survives). The batch is adopted where the
    /// session wrote it; nothing is copied.
    fn append(&mut self, batch: CotBatch) {
        self.telemetry
            .trace
            .push(EventKind::Refill, batch.len() as u64);
        debug_assert_eq!(self.delta, batch.delta);
        self.batches.push_back(batch);
        self.telemetry
            .extensions_run
            .fetch_add(1, Ordering::Relaxed);
        self.publish_available();
    }

    /// Replaces a session whose thread has exited with a fresh one on
    /// the next seed, and drops the batches queued under the old `Δ`.
    /// `respawned` records that the calling refill has spent its one
    /// respawn.
    ///
    /// # Panics
    ///
    /// Panics if the calling refill already respawned the session.
    fn respawn(&mut self, stopped: SessionStopped, respawned: &mut bool) {
        assert!(!*respawned, "{stopped}, and again after a respawn");
        *respawned = true;
        self.seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
        self.session = CotSession::spawn_with(
            &self.cfg,
            self.seed,
            SESSION_LOOKAHEAD,
            Arc::clone(&self.telemetry),
        );
        self.delta = self.session.delta();
        self.batches.clear();
        self.cursor = 0;
        self.publish_available();
    }

    /// Pops every front batch the cursor has moved past.
    fn drop_consumed(&mut self) {
        while let Some(front) = self.batches.front() {
            if self.cursor < front.len() {
                break;
            }
            self.cursor -= front.len();
            self.batches.pop_front();
        }
    }

    /// Brings `available()` to at least `count`, blocking on the session.
    fn top_up(&mut self, count: usize) {
        let mut respawned = false;
        while self.available() < count {
            match self.session.recv() {
                Ok(batch) => self.append(batch),
                Err(stopped) => self.respawn(stopped, &mut respawned),
            }
        }
    }

    /// Queues already-staged session outputs behind the remnant until at
    /// least `min_available` correlations are buffered, **without
    /// blocking**: the session's thread does the extending, and a sweep
    /// that finds its staging empty returns. The watermark is clamped to
    /// two extensions' output, so a sweeping refiller cannot grow the
    /// buffer without bound. Returns whether a batch was queued.
    ///
    /// # Panics
    ///
    /// Panics if the session stops again after this call respawned it.
    pub fn ensure(&mut self, min_available: usize) -> bool {
        let min = min_available.min(2 * self.cfg.usable_outputs());
        let mut refilled = false;
        let mut respawned = false;
        while self.available() < min {
            match self.session.try_recv() {
                Ok(Some(batch)) => {
                    self.append(batch);
                    refilled = true;
                }
                // Staging merely empty: the thread is still extending;
                // the next sweep catches the output.
                Ok(None) => break,
                Err(stopped) => self.respawn(stopped, &mut respawned),
            }
        }
        if refilled {
            self.telemetry.warm_refills.fetch_add(1, Ordering::Relaxed);
        }
        refilled
    }

    /// Takes `count` correlations and hands them to `f` as one or two
    /// runs borrowed from the pool's queue: the zero-copy primitive
    /// behind [`CotPool::take_into`] and every sharded take. A take that
    /// crosses a batch boundary is two runs, the front batch's tail then
    /// the next batch's head; otherwise it is one (an empty one for
    /// `count == 0`). The runs share the session's one `Δ`. The take is
    /// counted before `f` runs, and a batch it used up is dropped once `f`
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds one extension's usable output (split such
    /// requests at the application level), or if the session stops again
    /// after this call respawned it.
    pub fn take_with<R>(&mut self, count: usize, f: impl FnOnce(&[CotSlice<'_>]) -> R) -> R {
        let per_extension = self.cfg.usable_outputs();
        assert!(
            count <= per_extension,
            "request of {count} exceeds one extension's output {per_extension}"
        );
        // A take whose `f` panicked left its used-up batches queued.
        self.drop_consumed();
        self.top_up(count);
        let start = self.cursor;
        self.cursor += count;
        self.telemetry
            .taken
            .fetch_add(count as u64, Ordering::Relaxed);
        self.publish_available();
        let empty = CotSlice {
            delta: self.delta,
            z: &[],
            x: &[],
            y: &[],
        };
        let mut runs = [empty; 2];
        let mut used = 1;
        if let Some(front) = self.batches.front() {
            let head = count.min(front.len() - start);
            runs[0] = run(front, start, head);
            if head < count {
                // Every batch holds one extension's output, at least
                // `count`, so the rest fits in the next one.
                runs[1] = run(&self.batches[1], 0, count - head);
                used = 2;
            }
        }
        let out = f(&runs[..used]);
        self.drop_consumed();
        out
    }

    /// Takes `count` correlations into a caller-retained batch, reusing
    /// its allocations (same semantics as [`CotPool::take_with`]). The
    /// one take that copies: the runs are concatenated into `out`.
    ///
    /// # Panics
    ///
    /// Same bound as [`CotPool::take_with`].
    pub fn take_into(&mut self, count: usize, out: &mut CotBatch) {
        self.take_with(count, |runs| CotSlice::concat_into(runs, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FerretParams;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn cfg() -> FerretConfig {
        FerretConfig::new(FerretParams::toy())
    }

    fn pool(seed: u64) -> CotPool {
        CotPool::new(cfg(), seed, Arc::default())
    }

    /// Takes `n` through the zero-copy path, checks that the runs add up
    /// to `n`, share one `Δ` and each verify, and returns that `Δ` and
    /// the number of runs.
    fn take_checked(p: &mut CotPool, n: usize) -> (Block, usize) {
        p.take_with(n, |runs| {
            assert_eq!(runs.iter().map(CotSlice::len).sum::<usize>(), n);
            for run in runs {
                assert_eq!(run.delta, runs[0].delta);
                run.verify().unwrap();
            }
            (runs[0].delta, runs.len())
        })
    }

    #[test]
    fn first_take_triggers_extension() {
        let mut p = pool(42);
        assert_eq!(p.extensions_run(), 0);
        take_checked(&mut p, 100);
        assert_eq!(p.extensions_run(), 1);
    }

    #[test]
    fn buffered_takes_do_not_re_extend() {
        let mut p = pool(42);
        take_checked(&mut p, 100);
        let before = p.available();
        take_checked(&mut p, 200);
        assert_eq!(p.extensions_run(), 1);
        assert_eq!(p.available(), before - 200);
        // The counter home mirrors what the pool did.
        let t = p.telemetry();
        assert_eq!(t.taken.load(Ordering::Relaxed), 300);
        assert_eq!(t.available.load(Ordering::Relaxed), p.available() as u64);
    }

    #[test]
    fn take_into_reuses_capacity() {
        let mut p = pool(42);
        let mut reused = CotBatch::default();
        p.take_into(500, &mut reused);
        reused.verify().unwrap();
        let (cz, cx, cy) = (
            reused.z.capacity(),
            reused.x.capacity(),
            reused.y.capacity(),
        );
        for _ in 0..4 {
            p.take_into(500, &mut reused);
            reused.verify().unwrap();
            assert_eq!(reused.len(), 500);
        }
        assert_eq!(
            (cz, cx, cy),
            (
                reused.z.capacity(),
                reused.x.capacity(),
                reused.y.capacity()
            ),
            "equal-sized takes must not reallocate the reused batch"
        );
    }

    #[test]
    fn exhaustion_triggers_refill() {
        let mut p = pool(42);
        let usable = p.cfg.usable_outputs();
        take_checked(&mut p, usable); // drains the first extension fully
        take_checked(&mut p, 10);
        assert_eq!(p.extensions_run(), 2);
    }

    #[test]
    fn batches_are_internally_consistent() {
        let mut p = pool(42);
        for _ in 0..5 {
            take_checked(&mut p, 500);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds one extension")]
    fn oversized_request_rejected() {
        let mut p = pool(42);
        let usable = p.cfg.usable_outputs();
        p.take_with(usable + 1, |_| ());
    }

    #[test]
    fn remnants_are_kept_under_the_fixed_delta() {
        let mut p = pool(42);
        let usable = p.cfg.usable_outputs();
        // Leaves a 10-correlation remnant; the next take straddles the
        // refill: the remnant's batch, then the new one.
        let (a_delta, _) = take_checked(&mut p, usable - 10);
        let (b_delta, runs) = take_checked(&mut p, 20);
        assert_eq!(runs, 2);
        assert_eq!(b_delta, a_delta, "the session's Δ is fixed for life");
        assert_eq!(p.extensions_run(), 2);
        // Nothing was discarded: two extensions in, (usable - 10) + 20 out,
        // and the used-up first batch is gone from the queue.
        assert_eq!(p.available(), 2 * usable - (usable - 10) - 20);
        assert_eq!(p.batches.len(), 1);
    }

    #[test]
    fn zero_copy_and_copying_takes_interleave() {
        let mut p = pool(7);
        for _ in 0..5 {
            take_checked(&mut p, 500);
        }
        let mut reused = CotBatch::default();
        p.take_into(700, &mut reused);
        reused.verify().unwrap();
        assert_eq!(reused.len(), 700);
    }

    #[test]
    fn ensure_drains_staged_without_blocking() {
        let mut p = pool(9);
        let usable = p.cfg.usable_outputs();
        // The session stages in the background; ensure() eventually
        // observes it without ever running an extension on this thread.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while p.available() < usable {
            p.ensure(usable);
            assert!(
                std::time::Instant::now() < deadline,
                "staged output never arrived"
            );
            std::thread::yield_now();
        }
        let before = p.extensions_run();
        take_checked(&mut p, 100);
        assert_eq!(p.extensions_run(), before, "served from the buffer");
    }

    #[test]
    fn take_with_lends_the_queued_batch() {
        let mut p = pool(42);
        take_checked(&mut p, 1); // prime the buffer
        let available = p.available();
        let (first_z, owned) = p.take_with(300, |runs| {
            let mut owned = CotBatch::default();
            CotSlice::concat_into(runs, &mut owned);
            (runs[0].z.as_ptr(), owned)
        });
        owned.verify().unwrap();
        assert_eq!(owned.len(), 300);
        // The run pointed into the queued batch, not at a copy.
        assert_eq!(first_z, p.batches[0].z[1..].as_ptr());
        assert_eq!(p.available(), available - 300);
    }

    #[test]
    fn a_dead_session_is_respawned_under_a_new_delta() {
        let mut p = pool(3);
        let usable = p.cfg.usable_outputs();
        // Leaves a 10-correlation remnant queued under the first Δ.
        let (old_delta, _) = take_checked(&mut p, usable - 10);
        p.session = CotSession::stopped();
        let adopted_before = p.extensions_run();
        // The remnant cannot serve 20: the refill finds the session dead,
        // respawns it and drops the remnant.
        let (new_delta, runs) = take_checked(&mut p, 20);
        assert_ne!(new_delta, old_delta, "the respawned session has its own Δ");
        assert_eq!(runs, 1, "the remnant under the old Δ was dropped");
        assert!(p.cfg.shared_matrix.is_some(), "respawns reuse the matrix");
        // Nothing under the old Δ comes out afterwards, across refills.
        let mut taken_after = 20;
        for _ in 0..4 {
            let (delta, _) = take_checked(&mut p, usable / 2 + 1);
            assert_eq!(delta, new_delta);
            taken_after += usable / 2 + 1;
        }
        // What the new session's batches brought in is what was taken
        // since, plus what is buffered; the counters agree.
        let adopted = (p.extensions_run() - adopted_before) as usize;
        assert_eq!(taken_after + p.available(), adopted * usable);
        let t = p.telemetry();
        assert_eq!(
            t.taken.load(Ordering::Relaxed) as usize,
            usable - 10 + taken_after
        );
        assert_eq!(t.available.load(Ordering::Relaxed) as usize, p.available());
    }

    #[test]
    fn ensure_respawns_a_dead_session() {
        let mut p = pool(5);
        let usable = p.cfg.usable_outputs();
        let (old_delta, _) = take_checked(&mut p, 10);
        p.session = CotSession::stopped();
        // The sweep that finds the session dead respawns it and drops the
        // remnant, then queues whatever the new session has staged.
        p.ensure(usable);
        assert_ne!(p.delta, old_delta);
        assert!(p.batches.iter().all(|b| b.delta == p.delta));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while p.available() < usable {
            p.ensure(usable);
            assert!(
                std::time::Instant::now() < deadline,
                "the respawned session never staged"
            );
            std::thread::yield_now();
        }
        let (delta, _) = take_checked(&mut p, usable);
        assert_eq!(delta, p.delta);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// A pool drained by random take sizes, some ending
        /// exactly on a batch boundary and many straddling one, hands out
        /// every correlation at most once: every take verifies under the
        /// pool's one `Δ`, no `z` comes out twice, and what was taken plus
        /// what is buffered is exactly what the session staged.
        #[test]
        fn takes_hand_out_each_correlation_once(
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u64>(), 12..32),
        ) {
            let mut p = pool(seed);
            let usable = p.cfg.usable_outputs();
            let pool_delta = p.delta;
            let mut seen = HashSet::new();
            let (mut taken, mut straddles, mut boundaries) = (0usize, 0, 0);
            for pick in picks {
                // Every fourth pick takes exactly what the front batch
                // has left; the rest are uniform in 1..=usable.
                let count = match p.batches.front() {
                    Some(front) if pick % 4 == 0 => front.len() - p.cursor,
                    _ => 1 + (pick / 4) as usize % usable,
                };
                let runs = p.take_with(count, |runs| {
                    for run in runs {
                        prop_assert_eq!(run.delta, pool_delta, "Δ changed");
                        prop_assert_eq!(run.verify(), Ok(()));
                        for &z in run.z {
                            prop_assert!(seen.insert(u128::from(z)), "z handed out twice");
                        }
                    }
                    prop_assert_eq!(runs.iter().map(CotSlice::len).sum::<usize>(), count);
                    runs.len()
                });
                taken += count;
                straddles += usize::from(runs == 2);
                boundaries += usize::from(p.cursor == 0);
                prop_assert_eq!(
                    taken + p.available(),
                    p.extensions_run() as usize * usable
                );
            }
            prop_assert!(straddles > 0 && boundaries > 0, "{straddles} straddles, {boundaries} boundaries");
        }
    }
}
