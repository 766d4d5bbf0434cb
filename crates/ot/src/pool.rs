//! A buffered COT pool with automatic re-extension.
//!
//! PPML frameworks consume correlations in bursts whose sizes don't align
//! with extension outputs (e.g. one ReLU layer of ResNet-18 needs ~2^25
//! COTs, §5.1.3). [`CotPool`] buffers extension outputs and serves
//! arbitrary-sized requests, transparently running additional extensions
//! when the buffer runs dry — the host-side behavior the Ironman PU's
//! streaming offload is designed for.
//!
//! # Supply modes
//!
//! * **Inline** ([`CotPool::new`]) — each refill bootstraps a fresh FERRET
//!   session and runs one extension of both parties on the calling
//!   thread. `Δ` changes per refill, so a batch never straddles a refill
//!   and a below-request remnant is discarded at every session boundary.
//!   Simple, but the bootstrap (dealer, base correlations) is paid on
//!   every refill.
//! * **Pipelined** ([`CotPool::pipelined`]) — one persistent
//!   [`CotSession`] extends ahead of demand on a background thread and a
//!   refill just moves a staged batch from its channel onto the pool's
//!   queue: no copy, never a protocol run on the demand path. `Δ` is
//!   fixed for the pool's lifetime, so a remnant is *kept* across refills
//!   (its batch stays queued ahead of the new one) instead of discarded.
//!   If the session thread dies the pool degrades permanently to inline
//!   refills.
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
use crate::ferret::{deal, FerretConfig, Parties};
use crate::session::{CotSession, SessionTelemetry};
use ironman_prg::Block;
use ironman_telemetry::{EventKind, Stopwatch};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where refills come from (see the module docs).
#[derive(Debug)]
enum Supply {
    /// Fresh session per refill, extended on the calling thread.
    Inline,
    /// Persistent pipelined session staging extensions ahead of demand.
    Session(CotSession),
}

/// Extensions a pipelined session keeps staged ahead of demand. Two is
/// enough to hide one extension behind consumption of the previous one
/// without hoarding memory (each staged extension is one full output).
const SESSION_LOOKAHEAD: usize = 2;

/// A replenishing store of COT correlations over one [`FerretConfig`].
#[derive(Debug)]
pub struct CotPool {
    /// The config every refill extends with, its LPN matrix prebuilt.
    cfg: FerretConfig,
    seed: u64,
    supply: Supply,
    /// Adopted extension outputs, oldest first, all under `delta`.
    batches: VecDeque<CotBatch>,
    /// Correlations handed out from the front of `batches`, as an offset
    /// into their concatenation. A take pops the batches it used up once
    /// its closure returns, so between takes this is below the front
    /// batch's length.
    cursor: usize,
    /// The `Δ` of every queued batch, and of an empty take.
    delta: Block,
    /// The histograms, trace and counters this pool records into.
    /// Pipelined supply shares it with its session (the session's thread
    /// records extension durations and staged extensions); inline refills
    /// record here directly, so both supply modes feed the same home.
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
    /// Creates an empty inline-mode pool over `cfg`; the first request
    /// triggers a fresh-session extension. Records into `telemetry` (a
    /// sharded pool shares one per shard so the serving layer reads
    /// counters and latencies without locking the shard).
    pub fn new(mut cfg: FerretConfig, seed: u64, telemetry: Arc<SessionTelemetry>) -> Self {
        // Inline refills bootstrap a fresh session each time; prebuild
        // the matrix once so refills only pay for protocol work.
        cfg.ensure_shared_matrix();
        CotPool {
            cfg,
            seed,
            supply: Supply::Inline,
            batches: VecDeque::new(),
            cursor: 0,
            delta: Block::ZERO,
            telemetry,
        }
    }

    /// Creates a pool over a persistent pipelined session on `cfg`:
    /// extensions run on a background thread ahead of demand, `Δ` is
    /// fixed for the pool's lifetime, and refills queue behind any
    /// buffered remnant. Records into `telemetry`, shared with the
    /// session's thread (extension durations, their SPCOT/LPN phase split
    /// and staged extensions come from the session; stalls, refill events
    /// and the pool's counters from the drain path).
    pub fn pipelined(mut cfg: FerretConfig, seed: u64, telemetry: Arc<SessionTelemetry>) -> Self {
        // One matrix for the session's two parties (and zero new
        // allocations when a shard pool already prebuilt it).
        cfg.ensure_shared_matrix();
        let session = CotSession::spawn_with(&cfg, seed, SESSION_LOOKAHEAD, Arc::clone(&telemetry));
        CotPool {
            delta: session.delta(),
            supply: Supply::Session(session),
            ..CotPool::new(cfg, seed, telemetry)
        }
    }

    /// The telemetry and counters this pool (and its session, when
    /// pipelined) records into.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Whether refills keep buffered remnants, queued ahead of the new
    /// batch (fixed-`Δ` pipelined supply), instead of discarding them
    /// (fresh `Δ` per refill).
    pub fn merges_remnants(&self) -> bool {
        matches!(self.supply, Supply::Session(_))
    }

    /// Correlations currently buffered and unconsumed.
    pub fn available(&self) -> usize {
        self.batches.iter().map(CotBatch::len).sum::<usize>() - self.cursor
    }

    /// Extensions adopted into the buffer so far (staged or inline).
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

    /// Runs one fresh-session extension and makes its output the whole
    /// buffer: the remnant goes, because its `Δ` dies with its session.
    fn refill(&mut self) {
        self.seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
        let watch = Stopwatch::start();
        let bases = deal(&self.cfg, self.seed);
        let (batch, _) = Parties::new(self.cfg.clone(), bases, self.seed).extend();
        // Inline extensions run on the demand path, so they record into
        // the same extension histogram a pipelined session's thread
        // uses — either supply mode shows up in the shard's latencies.
        self.telemetry.extension.record(watch.elapsed_nanos());
        self.batches.clear();
        self.cursor = 0;
        self.delta = batch.delta;
        self.batches.push_back(batch);
        self.telemetry
            .extensions_run
            .fetch_add(1, Ordering::Relaxed);
        self.publish_available();
        self.telemetry
            .trace
            .push(EventKind::Refill, self.available() as u64);
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

    /// Brings `available()` to at least `count`, blocking on the session
    /// (pipelined) or running a fresh-session extension (inline; the
    /// refill drops the remnant — its `Δ` dies with its session).
    fn top_up(&mut self, count: usize) {
        while self.available() < count {
            let staged = match &self.supply {
                Supply::Session(session) => session.recv().ok(),
                Supply::Inline => None,
            };
            match staged {
                Some(batch) => self.append(batch),
                None => {
                    // The session thread died: degrade permanently to
                    // inline refills rather than failing the request.
                    self.supply = Supply::Inline;
                    self.refill();
                }
            }
        }
    }

    /// Tops the buffer up to at least `min_available` correlations.
    /// Returns whether a refill happened.
    ///
    /// Inline mode runs (at most) one fresh-session extension, discarding
    /// a below-watermark remnant first — the same rule
    /// [`CotPool::take_with`] applies — and clamps watermarks to one
    /// extension's output.
    /// Pipelined mode instead queues already-staged session outputs
    /// **without blocking** (the session thread does the extending)
    /// behind the remnant; the watermark is clamped to two extensions'
    /// output so a sweeping refiller cannot grow the buffer without
    /// bound.
    pub fn ensure(&mut self, min_available: usize) -> bool {
        let refilled = self.ensure_inner(min_available);
        if refilled {
            self.telemetry.warm_refills.fetch_add(1, Ordering::Relaxed);
        }
        refilled
    }

    fn ensure_inner(&mut self, min_available: usize) -> bool {
        let per = self.cfg.usable_outputs();
        let mut refilled = false;
        if let Supply::Session(_) = &self.supply {
            let min = min_available.min(2 * per);
            while self.available() < min {
                let staged = match &self.supply {
                    Supply::Session(session) => session.try_recv(),
                    Supply::Inline => unreachable!("supply mode fixed in this arm"),
                };
                match staged {
                    Ok(Some(batch)) => {
                        self.append(batch);
                        refilled = true;
                    }
                    // Staging merely empty: the thread is still
                    // extending; the next sweep catches the output.
                    Ok(None) => return refilled,
                    // Session died: degrade permanently and fall through
                    // to the inline path below, so a sweeping refiller
                    // heals the shard instead of leaving the bootstrap
                    // to the next request's critical path.
                    Err(_) => {
                        self.supply = Supply::Inline;
                        break;
                    }
                }
            }
            if matches!(self.supply, Supply::Session(_)) {
                return refilled;
            }
        }
        let min = min_available.min(per);
        if self.available() >= min {
            return refilled;
        }
        self.refill();
        true
    }

    /// Takes `count` correlations and hands them to `f` as one or two
    /// runs borrowed from the pool's queue: the zero-copy primitive
    /// behind [`CotPool::take_into`] and every sharded take. A take that
    /// crosses a batch boundary is two runs, the front batch's tail then
    /// the next batch's head; otherwise it is one (an empty one for
    /// `count == 0`). The runs share one `Δ` (inline mode never lets a
    /// take straddle a session boundary; pipelined mode has a single `Δ`
    /// for the pool's lifetime). The take is counted before `f` runs,
    /// and a batch it used up is dropped once `f` returns.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds one extension's usable output (split such
    /// requests at the application level).
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
    /// its allocations (same semantics — including the inline-mode
    /// drop-remnant-on-refill `Δ` rule — as [`CotPool::take_with`]). The
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

    fn pool() -> CotPool {
        CotPool::new(cfg(), 42, Arc::default())
    }

    fn pipelined(seed: u64) -> CotPool {
        CotPool::pipelined(cfg(), seed, Arc::default())
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
        let mut p = pool();
        assert_eq!(p.extensions_run(), 0);
        take_checked(&mut p, 100);
        assert_eq!(p.extensions_run(), 1);
    }

    #[test]
    fn buffered_takes_do_not_re_extend() {
        let mut p = pool();
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
    fn partial_drain_then_refill_discards_remnant() {
        // Regression: a refill with a partially drained buffer used to
        // trip refill's drained-buffer invariant (the remnant's Δ differs
        // from the new session's).
        let mut p = pool();
        let usable = p.cfg.usable_outputs();
        take_checked(&mut p, usable - 10); // leaves a 10-correlation remnant
        let (_, runs) = take_checked(&mut p, 20); // cannot be served from the remnant
        assert_eq!(runs, 1, "an inline take never straddles a refill");
        assert_eq!(p.extensions_run(), 2);
    }

    #[test]
    fn take_into_preserves_drop_remnant_delta_invariant() {
        // take_into must follow exactly the Δ rule of take_slice: an inline-mode
        // refill drops the old session's remnant, and the refilled batch
        // is homogeneous under the *new* session's Δ.
        let mut p = pool();
        let usable = p.cfg.usable_outputs();
        let mut reused = CotBatch::default();
        p.take_into(usable - 10, &mut reused);
        reused.verify().unwrap();
        let first_delta = reused.delta;
        let remnant = p.available();
        assert_eq!(remnant, 10);
        p.take_into(20, &mut reused); // forces a refill; remnant dropped
        reused.verify().unwrap();
        assert_eq!(reused.len(), 20);
        assert_ne!(
            reused.delta, first_delta,
            "fresh session must carry a fresh Δ"
        );
        assert_eq!(p.extensions_run(), 2);
        // The dropped remnant is really gone: a full-buffer drain now
        // yields exactly one extension's output minus the 20 just taken.
        assert_eq!(p.available(), usable - 20);
    }

    #[test]
    fn take_into_reuses_capacity() {
        let mut p = pool();
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
        let mut p = pool();
        let usable = p.cfg.usable_outputs();
        take_checked(&mut p, usable); // drains the first extension fully
        take_checked(&mut p, 10);
        assert_eq!(p.extensions_run(), 2);
    }

    #[test]
    fn batches_are_internally_consistent() {
        let mut p = pool();
        for _ in 0..5 {
            take_checked(&mut p, 500);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds one extension")]
    fn oversized_request_rejected() {
        let mut p = pool();
        let usable = p.cfg.usable_outputs();
        p.take_with(usable + 1, |_| ());
    }

    #[test]
    fn pipelined_pool_merges_remnants_under_fixed_delta() {
        let mut p = pipelined(42);
        assert!(p.merges_remnants());
        let usable = p.cfg.usable_outputs();
        let (a_delta, _) = take_checked(&mut p, usable - 10); // leaves a 10-correlation remnant
                                                              // Straddles the refill: the remnant's batch, then the new one.
        let (b_delta, runs) = take_checked(&mut p, 20);
        assert_eq!(runs, 2);
        assert_eq!(b_delta, a_delta, "pipelined Δ is fixed for life");
        assert_eq!(p.extensions_run(), 2);
        // Nothing was discarded: two extensions in, (usable - 10) + 20 out,
        // and the used-up first batch is gone from the queue.
        assert_eq!(p.available(), 2 * usable - (usable - 10) - 20);
        assert_eq!(p.batches.len(), 1);
    }

    #[test]
    fn pipelined_matches_inline_delta_contract() {
        let mut p = pipelined(7);
        for _ in 0..5 {
            take_checked(&mut p, 500);
        }
        let mut reused = CotBatch::default();
        p.take_into(700, &mut reused);
        reused.verify().unwrap();
        assert_eq!(reused.len(), 700);
    }

    #[test]
    fn pipelined_ensure_drains_staged_without_blocking() {
        let mut p = pipelined(9);
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
        let mut p = pool();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// A pipelined pool drained by random take sizes, some ending
        /// exactly on a batch boundary and many straddling one, hands out
        /// every correlation at most once: every take verifies under the
        /// pool's one `Δ`, no `z` comes out twice, and what was taken plus
        /// what is buffered is exactly what the session staged.
        #[test]
        fn pipelined_takes_hand_out_each_correlation_once(
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u64>(), 12..32),
        ) {
            let mut p = pipelined(seed);
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
