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
//!   refill just drains its staging channel: a cursor bump plus at most
//!   one memcpy, never a protocol run on the demand path. `Δ` is fixed
//!   for the pool's lifetime, so remnants are *merged* across refills
//!   instead of discarded. If the session thread dies the pool degrades
//!   permanently to inline refills.
//!
//! # Zero-copy consumption
//!
//! The buffer is one [`CotBatch`] (the COT type of [`crate::cot`],
//! which every extension and staged session batch already is) plus a
//! cursor, so a refill adopts what the protocol produced.
//! [`CotPool::take_slice`] hands out a [`CotSlice`] borrowing that ring
//! directly; [`CotPool::take_into`] copies it into a caller-retained
//! [`CotBatch`], reusing its allocations. There is no allocating take: a
//! caller that wants an owned batch keeps a `CotBatch::default()` around.
//!
//! # Counters
//!
//! The pool's counters (extensions merged, correlations taken, warm-up
//! refills, occupancy) live in its [`SessionTelemetry`], beside the
//! session's own, as relaxed atomics written where they change. A sharded
//! pool reads them there without taking the shard's lock.

use crate::cot::{CotBatch, CotSlice};
use crate::ferret::{deal, FerretConfig, Parties};
use crate::session::{CotSession, SessionTelemetry};
use ironman_telemetry::{EventKind, Stopwatch};
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
    /// The buffer: everything before `cursor` has been handed out.
    cots: CotBatch,
    cursor: usize,
    /// The histograms, trace and counters this pool records into.
    /// Pipelined supply shares it with its session (the session's thread
    /// records extension durations and staged extensions); inline refills
    /// record here directly, so both supply modes feed the same home.
    telemetry: Arc<SessionTelemetry>,
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
            cots: CotBatch::default(),
            cursor: 0,
            telemetry,
        }
    }

    /// Creates a pool over a persistent pipelined session on `cfg`:
    /// extensions run on a background thread ahead of demand, `Δ` is
    /// fixed for the pool's lifetime, and refills merge with any buffered
    /// remnant. Records into `telemetry`, shared with the session's
    /// thread (extension durations, their SPCOT/LPN phase split and
    /// staged extensions come from the session; stalls, refill events and
    /// the pool's counters from the drain path).
    pub fn pipelined(mut cfg: FerretConfig, seed: u64, telemetry: Arc<SessionTelemetry>) -> Self {
        // One matrix for the session's two parties (and zero new
        // allocations when a shard pool already prebuilt it).
        cfg.ensure_shared_matrix();
        let session = CotSession::spawn_with(&cfg, seed, SESSION_LOOKAHEAD, Arc::clone(&telemetry));
        CotPool {
            cots: CotBatch {
                delta: session.delta(),
                ..CotBatch::default()
            },
            supply: Supply::Session(session),
            ..CotPool::new(cfg, seed, telemetry)
        }
    }

    /// The telemetry and counters this pool (and its session, when
    /// pipelined) records into.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Whether refills merge with buffered remnants (fixed-`Δ` pipelined
    /// supply) instead of replacing the buffer (fresh `Δ` per refill).
    pub fn merges_remnants(&self) -> bool {
        matches!(self.supply, Supply::Session(_))
    }

    /// Correlations currently buffered and unconsumed.
    pub fn available(&self) -> usize {
        self.cots.len() - self.cursor
    }

    /// Extensions merged into the buffer so far (staged or inline).
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

    fn refill(&mut self) {
        // Each inline refill is a fresh session (new seeds); Δ changes, so
        // callers drain the remainder before refilling.
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
        // With per-refill sessions Δ changes; expose each batch under its
        // own Δ by draining the remainder first.
        debug_assert!(self.available() == 0 || self.cots.delta == batch.delta);
        self.cots = batch;
        self.cursor = 0;
        self.telemetry
            .extensions_run
            .fetch_add(1, Ordering::Relaxed);
        self.publish_available();
        self.telemetry
            .trace
            .push(EventKind::Refill, self.available() as u64);
    }

    /// Merges one staged session batch into the buffer (same `Δ`, so the
    /// remnant survives). When the buffer is fully drained this is a
    /// wholesale adoption of the staged batch — zero copies.
    fn append(&mut self, batch: CotBatch) {
        self.telemetry
            .trace
            .push(EventKind::Refill, batch.len() as u64);
        if self.cursor == self.cots.len() {
            self.cots = batch;
        } else {
            debug_assert_eq!(self.cots.delta, batch.delta);
            if self.cursor > 0 {
                // Compact the consumed prefix so the buffer doesn't grow
                // without bound across merge refills.
                self.cots.z.drain(..self.cursor);
                self.cots.x.drain(..self.cursor);
                self.cots.y.drain(..self.cursor);
            }
            self.cots.z.extend_from_slice(&batch.z);
            self.cots.x.extend_from_slice(&batch.x);
            self.cots.y.extend_from_slice(&batch.y);
        }
        self.cursor = 0;
        self.telemetry
            .extensions_run
            .fetch_add(1, Ordering::Relaxed);
        self.publish_available();
    }

    /// Brings `available()` to at least `count`, blocking on the session
    /// (pipelined) or running a fresh-session extension (inline; drops
    /// the remnant first — its `Δ` dies with its session).
    fn top_up(&mut self, count: usize) {
        while self.available() < count {
            let staged = match &self.supply {
                Supply::Session(session) => session.recv().ok(),
                Supply::Inline => None,
            };
            match staged {
                Some(batch) => self.append(batch),
                None => {
                    if self.merges_remnants() {
                        // The session thread died: degrade permanently to
                        // inline refills rather than failing the request.
                        self.supply = Supply::Inline;
                    }
                    self.cursor = self.cots.len();
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
    /// [`CotPool::take_slice`] applies — and clamps watermarks to one
    /// extension's output.
    /// Pipelined mode instead drains already-staged session outputs
    /// **without blocking** (the session thread does the extending) and
    /// merges them with the remnant; the watermark is clamped to two
    /// extensions' output so a sweeping refiller cannot grow the buffer
    /// without bound.
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
        self.cursor = self.cots.len();
        self.refill();
        true
    }

    /// Takes `count` correlations as a borrowed view of the pool's ring —
    /// the zero-copy primitive behind [`CotPool::take_into`] and every
    /// sharded take. The returned view is homogeneous in `Δ`
    /// (inline mode never lets a batch straddle a session boundary;
    /// pipelined mode has a single `Δ` for the pool's lifetime).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds one extension's usable output (split such
    /// requests at the application level).
    pub fn take_slice(&mut self, count: usize) -> CotSlice<'_> {
        let per_extension = self.cfg.usable_outputs();
        assert!(
            count <= per_extension,
            "request of {count} exceeds one extension's output {per_extension}"
        );
        self.top_up(count);
        let start = self.cursor;
        self.cursor += count;
        self.telemetry
            .taken
            .fetch_add(count as u64, Ordering::Relaxed);
        self.publish_available();
        CotSlice {
            delta: self.cots.delta,
            z: &self.cots.z[start..start + count],
            x: &self.cots.x[start..start + count],
            y: &self.cots.y[start..start + count],
        }
    }

    /// Takes `count` correlations into a caller-retained batch, reusing
    /// its allocations (same semantics — including the inline-mode
    /// drop-remnant-on-refill `Δ` rule — as [`CotPool::take_slice`]).
    ///
    /// # Panics
    ///
    /// Same bound as [`CotPool::take_slice`].
    pub fn take_into(&mut self, count: usize, out: &mut CotBatch) {
        self.take_slice(count).copy_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FerretParams;

    fn cfg() -> FerretConfig {
        FerretConfig::new(FerretParams::toy())
    }

    fn pool() -> CotPool {
        CotPool::new(cfg(), 42, Arc::default())
    }

    fn pipelined(seed: u64) -> CotPool {
        CotPool::pipelined(cfg(), seed, Arc::default())
    }

    #[test]
    fn first_take_triggers_extension() {
        let mut p = pool();
        assert_eq!(p.extensions_run(), 0);
        let batch = p.take_slice(100);
        assert_eq!(batch.len(), 100);
        batch.verify().unwrap();
        assert_eq!(p.extensions_run(), 1);
    }

    #[test]
    fn buffered_takes_do_not_re_extend() {
        let mut p = pool();
        p.take_slice(100);
        let before = p.available();
        p.take_slice(200).verify().unwrap();
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
        p.take_slice(usable - 10).verify().unwrap(); // leaves a 10-correlation remnant
        let b = p.take_slice(20); // cannot be served from the remnant
        b.verify().unwrap();
        assert_eq!(b.len(), 20);
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
        p.take_slice(usable).verify().unwrap(); // drains the first extension fully
        p.take_slice(10).verify().unwrap();
        assert_eq!(p.extensions_run(), 2);
    }

    #[test]
    fn batches_are_internally_consistent() {
        let mut p = pool();
        for _ in 0..5 {
            p.take_slice(500).verify().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "exceeds one extension")]
    fn oversized_request_rejected() {
        let mut p = pool();
        let usable = p.cfg.usable_outputs();
        p.take_slice(usable + 1);
    }

    #[test]
    fn pipelined_pool_merges_remnants_under_fixed_delta() {
        let mut p = pipelined(42);
        assert!(p.merges_remnants());
        let usable = p.cfg.usable_outputs();
        let a = p.take_slice(usable - 10); // leaves a 10-correlation remnant
        a.verify().unwrap();
        let a_delta = a.delta;
        let b = p.take_slice(20); // straddles the refill: remnant is merged
        b.verify().unwrap();
        assert_eq!(b.delta, a_delta, "pipelined Δ is fixed for life");
        assert_eq!(p.extensions_run(), 2);
        // Nothing was discarded: two extensions in, (usable - 10) + 20 out.
        assert_eq!(p.available(), 2 * usable - (usable - 10) - 20);
    }

    #[test]
    fn pipelined_matches_inline_delta_contract() {
        let mut p = pipelined(7);
        for _ in 0..5 {
            p.take_slice(500).verify().unwrap();
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
        p.take_slice(100).verify().unwrap();
        assert_eq!(p.extensions_run(), before, "served from the buffer");
    }

    #[test]
    fn take_slice_is_a_zero_copy_view() {
        let mut p = pool();
        p.take_slice(1).verify().unwrap(); // prime the buffer
        let available = p.available();
        let s = p.take_slice(300);
        assert_eq!(s.len(), 300);
        s.verify().unwrap();
        let mut owned = CotBatch::default();
        s.copy_into(&mut owned);
        owned.verify().unwrap();
        assert_eq!(p.available(), available - 300);
    }
}
