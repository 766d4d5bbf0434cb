//! A persistent, pipelined two-party FERRET session.
//!
//! [`crate::ferret::run_extensions`] bootstraps a fresh session — dealer,
//! base correlations, LPN matrix, two protocol threads — for every call,
//! which costs several times the marginal extension itself and forces a
//! new `Δ` on every refill. [`CotSession`] instead keeps one bootstrapped
//! session alive (the deployment shape the paper's host-side streaming
//! assumes): the two party threads run [`crate::ferret::FerretSender`] /
//! [`crate::ferret::FerretReceiver`] in lockstep over an in-process
//! channel pair and push each extension's matched output into a **bounded
//! staging channel**. Consumers drain staged outputs with a plain channel
//! receive — no protocol work on their critical path — and the bound is
//! the backpressure: once `lookahead` extensions are staged, the party
//! threads block until demand drains one, so an idle session costs no CPU.
//!
//! Because the session never restarts, `Δ` is fixed for its whole
//! lifetime: every staged [`CotBatch`] carries the same offset, and
//! downstream buffers may merge outputs across refills instead of
//! discarding session-boundary remnants.

use crate::channel::LocalChannel;
use crate::cot::CotBatch;
use crate::dealer::Dealer;
use crate::ferret::{FerretConfig, FerretReceiver, FerretSender};
use ironman_prg::Block;
use ironman_telemetry::{pack_phase_split, EventKind, Histogram, Stopwatch, TraceLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// One supply's lock-free telemetry and counter home, shared (`Arc`)
/// between a session's party threads, its consumer and — for a pool
/// shard — the pool and the serving layer, so nothing that reads it
/// takes the shard's lock. [`CotSession::spawn`] wires a fresh private
/// one.
///
/// The histograms and the trace (extension edges with their SPCOT/LPN
/// phase split, stall edges) compile out under the telemetry crate's
/// `noop` feature. The counters do not: they are plain relaxed atomics
/// that `Stats` and tests read. Each field is read independently, so a
/// reader that loads several may see them from different instants (a
/// take landing between two loads, say).
#[derive(Debug, Default)]
pub struct SessionTelemetry {
    /// Per-extension wall time (nanoseconds).
    pub extension: Histogram,
    /// Consumer stall time: nanoseconds blocked on an empty staging
    /// buffer (one sample per stall, not per receive).
    pub stall: Histogram,
    /// Extension/stall event timeline.
    pub trace: TraceLog,
    /// Extensions completed and staged by the session's party threads.
    pub extensions_staged: AtomicU64,
    /// Consumer receives that found the staging buffer empty and had to
    /// block on the party threads (a *stall*: demand arrived faster than
    /// the session extends). Steady state for a well-provisioned supply
    /// is `consumer_stalls ≪ extensions_staged`.
    pub consumer_stalls: AtomicU64,
    /// Extensions a pool merged into its buffer (staged or inline).
    pub extensions_run: AtomicU64,
    /// Correlations a pool handed out.
    pub taken: AtomicU64,
    /// Pool refills made by the warm-up path (`CotPool::ensure`).
    pub warm_refills: AtomicU64,
    /// Correlations a pool holds unconsumed, as of its last take or
    /// refill.
    pub available: AtomicU64,
}

/// The session's party threads have exited (panic or teardown); no
/// further batches will arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionStopped;

impl std::fmt::Display for SessionStopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FERRET session threads stopped")
    }
}

impl std::error::Error for SessionStopped {}

/// A live two-party FERRET session producing extension outputs ahead of
/// demand. Dropping the handle stops both party threads and joins them.
#[derive(Debug)]
pub struct CotSession {
    delta: Block,
    per_extension: usize,
    telemetry: Arc<SessionTelemetry>,
    /// `Option` so `Drop` can hang up before joining the threads.
    out_rx: Option<mpsc::Receiver<CotBatch>>,
    sender_thread: Option<JoinHandle<()>>,
    receiver_thread: Option<JoinHandle<()>>,
}

impl CotSession {
    /// Bootstraps a session (dealer, base correlations, both parties) and
    /// starts its two protocol threads. `seed` drives the dealer exactly
    /// as in [`crate::ferret::run_extensions`], so the output stream is
    /// bit-identical to per-call runs with the same seed. `lookahead` is
    /// the number of extensions staged ahead of demand (clamped to ≥ 1).
    /// The session records into a fresh private [`SessionTelemetry`]; use
    /// [`CotSession::spawn_with`] to share a pool's.
    pub fn spawn(cfg: &FerretConfig, seed: u64, lookahead: usize) -> CotSession {
        CotSession::spawn_with(cfg, seed, lookahead, Arc::default())
    }

    /// [`CotSession::spawn`] recording into a caller-provided
    /// [`SessionTelemetry`] (a pool shard shares its own, so what the
    /// session measures and counts shows up in the shard's `Stats`).
    pub fn spawn_with(
        cfg: &FerretConfig,
        seed: u64,
        lookahead: usize,
        telemetry: Arc<SessionTelemetry>,
    ) -> CotSession {
        let mut dealer = Dealer::new(seed);
        let delta = dealer.random_delta();
        let (s_base, r_base) = dealer.deal_cot(delta, cfg.base_cots_required());
        let (mut cs, mut cr) = LocalChannel::pair();
        // Unbounded z hand-off: the protocol's own interactivity already
        // keeps the sender within one extension of the receiver.
        let (z_tx, z_rx) = mpsc::channel::<Vec<Block>>();
        let (out_tx, out_rx) = mpsc::sync_channel::<CotBatch>(lookahead.max(1));
        // One matrix generation per session, not per party thread — and
        // zero if the caller (a shard pool) already prebuilt the shared
        // matrix into `cfg`.
        let mut cfg = cfg.clone();
        cfg.ensure_shared_matrix();
        let per_extension = cfg.usable_outputs();
        let cfg_s = cfg.clone();
        let cfg_r = cfg;

        let sender_thread = std::thread::spawn(move || {
            let mut sender = FerretSender::new(cfg_s, s_base, seed);
            // A channel error in either direction means the peer thread or
            // the consumer hung up: exit quietly, teardown is in progress.
            while let Ok(z) = sender.extend(&mut cs) {
                if z_tx.send(z).is_err() {
                    return;
                }
            }
        });
        let thread_telemetry = Arc::clone(&telemetry);
        let receiver_thread = std::thread::spawn(move || {
            // The receiver thread also merges: iteration i's (x, y) pairs
            // with iteration i's z (both sides run extensions in lockstep,
            // so the z queue is index-aligned).
            let mut receiver = FerretReceiver::new(cfg_r, r_base, seed);
            let mut ordinal = 0u64;
            loop {
                thread_telemetry
                    .trace
                    .push(EventKind::ExtensionStart, ordinal);
                let watch = Stopwatch::start();
                let Ok((x, y)) = receiver.extend(&mut cr) else {
                    return;
                };
                thread_telemetry.extension.record(watch.elapsed_nanos());
                let (spcot, lpn) = receiver.last_phase_nanos();
                thread_telemetry
                    .trace
                    .push(EventKind::ExtensionEnd, pack_phase_split(spcot, lpn));
                ordinal += 1;
                let Ok(z) = z_rx.recv() else { return };
                thread_telemetry
                    .extensions_staged
                    .fetch_add(1, Ordering::Relaxed);
                if out_tx.send(CotBatch { delta, z, x, y }).is_err() {
                    return;
                }
            }
        });

        CotSession {
            delta,
            per_extension,
            telemetry,
            out_rx: Some(out_rx),
            sender_thread: Some(sender_thread),
            receiver_thread: Some(receiver_thread),
        }
    }

    /// The session's fixed correlation offset `Δ`.
    pub fn delta(&self) -> Block {
        self.delta
    }

    /// Usable correlations per staged batch.
    pub fn per_extension(&self) -> usize {
        self.per_extension
    }

    /// Extensions completed and staged by the party threads so far.
    pub fn extensions_staged(&self) -> u64 {
        self.telemetry.extensions_staged.load(Ordering::Relaxed)
    }

    /// Consumer receives that found the staging buffer empty and had to
    /// block — the session's supply-pressure signal (see
    /// [`CotSession::recv`]).
    pub fn consumer_stalls(&self) -> u64 {
        self.telemetry.consumer_stalls.load(Ordering::Relaxed)
    }

    /// Blocks for the next staged extension output. A call that finds
    /// the staging buffer empty counts one *stall* (demand outran the
    /// extension rate), observable via
    /// [`CotSession::consumer_stalls`].
    ///
    /// # Errors
    ///
    /// [`SessionStopped`] when the party threads have exited.
    pub fn recv(&self) -> Result<CotBatch, SessionStopped> {
        let rx = self.out_rx.as_ref().expect("receiver present until drop");
        match rx.try_recv() {
            Ok(batch) => Ok(batch),
            Err(mpsc::TryRecvError::Disconnected) => Err(SessionStopped),
            Err(mpsc::TryRecvError::Empty) => {
                self.telemetry
                    .consumer_stalls
                    .fetch_add(1, Ordering::Relaxed);
                self.telemetry.trace.push(EventKind::StallStart, 0);
                let watch = Stopwatch::start();
                let batch = rx.recv().map_err(|_| SessionStopped)?;
                let stalled = watch.elapsed_nanos();
                self.telemetry.stall.record(stalled);
                self.telemetry.trace.push(EventKind::StallEnd, stalled);
                Ok(batch)
            }
        }
    }

    /// The telemetry this session records into (the one passed to
    /// [`CotSession::spawn_with`], or a fresh private one from
    /// [`CotSession::spawn`]).
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// Takes a staged extension output if one is ready; `Ok(None)` when
    /// the staging buffer is merely empty (the threads are still
    /// extending), without blocking.
    ///
    /// # Errors
    ///
    /// [`SessionStopped`] when the party threads have exited — distinct
    /// from the empty case so pollers (e.g. a warm-up sweep) can react
    /// to a dead session instead of waiting for output that will never
    /// come.
    pub fn try_recv(&self) -> Result<Option<CotBatch>, SessionStopped> {
        match self
            .out_rx
            .as_ref()
            .expect("receiver present until drop")
            .try_recv()
        {
            Ok(batch) => Ok(Some(batch)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(SessionStopped),
        }
    }
}

impl Drop for CotSession {
    /// Hangs up the staging channel (which unwinds both party threads:
    /// the receiver's next staged send fails, and the sender's next
    /// protocol receive disconnects) and joins them.
    fn drop(&mut self) {
        self.out_rx = None;
        for t in [self.receiver_thread.take(), self.sender_thread.take()]
            .into_iter()
            .flatten()
        {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ferret::run_extensions;
    use crate::params::FerretParams;

    fn toy_cfg() -> FerretConfig {
        FerretConfig::new(FerretParams::toy())
    }

    #[test]
    fn session_outputs_match_per_call_runs() {
        // Same seed ⇒ the persistent session's output stream is
        // bit-identical to the fresh-session API's first iterations, Δ
        // included.
        let cfg = toy_cfg();
        let reference = run_extensions(&cfg, 99, 3);
        let session = CotSession::spawn(&cfg, 99, 2);
        for r in reference {
            assert_eq!(session.recv().unwrap(), r.cots);
        }
    }

    #[test]
    fn staged_batches_verify_under_fixed_delta() {
        let cfg = toy_cfg();
        let session = CotSession::spawn(&cfg, 7, 1);
        for _ in 0..4 {
            let b = session.recv().unwrap();
            assert_eq!(b.len(), cfg.usable_outputs());
            assert_eq!(b.delta, session.delta());
            assert_eq!(b.verify(), Ok(()));
        }
    }

    #[test]
    fn lookahead_bounds_staging() {
        // The party threads stall once `lookahead` batches are staged;
        // dropping the handle must still tear the session down cleanly.
        let cfg = toy_cfg();
        let session = CotSession::spawn(&cfg, 11, 2);
        let first = session.recv().unwrap();
        assert_eq!(first.len(), cfg.usable_outputs());
        drop(session); // joins threads; hangs if backpressure deadlocks
    }

    #[test]
    fn counters_track_extensions_and_stalls() {
        let cfg = toy_cfg();
        let session = CotSession::spawn(&cfg, 17, 1);
        for _ in 0..4 {
            session.recv().unwrap();
        }
        // Four batches consumed ⇒ at least four extensions completed.
        assert!(session.extensions_staged() >= 4);
        // A stall is counted per empty-buffer receive, never more than
        // one per consumed batch.
        assert!(session.consumer_stalls() <= 4);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let cfg = toy_cfg();
        let session = CotSession::spawn(&cfg, 13, 1);
        // Eventually a batch is staged; until then try_recv returns None
        // without blocking.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Some(b) = session.try_recv().unwrap() {
                assert_eq!(b.len(), cfg.usable_outputs());
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never staged");
            std::thread::yield_now();
        }
    }
}
