//! A persistent, pipelined FERRET session.
//!
//! [`crate::ferret::run_extensions`] bootstraps a fresh session — dealer,
//! base correlations, LPN matrix, two protocol threads — for every call,
//! which costs several times the marginal extension itself and forces a
//! new `Δ` on every refill. [`CotSession`] instead keeps one bootstrapped
//! session alive (the deployment shape the paper's host-side streaming
//! assumes) on **one thread**, which holds both parties and runs each
//! extension's steps back to back: the receiver's flips, the sender's
//! answer, the receiver's finish, one LPN pass for both parties over the
//! shared matrix and both bootstraps (`ferret::Parties::extend`). It
//! pushes each extension's matched output into a **bounded staging
//! channel**. Consumers drain staged outputs with a plain channel receive
//! — no protocol work on their critical path — and the bound is the
//! backpressure: once `lookahead` extensions are staged, the session
//! thread blocks until demand drains one, so an idle session costs no
//! CPU.
//!
//! Because the session never restarts, `Δ` is fixed for its whole
//! lifetime: every staged [`CotBatch`] carries the same offset, and
//! downstream buffers may keep a remnant across refills instead of
//! discarding it at a session boundary.

use crate::cot::CotBatch;
use crate::ferret::{deal, FerretConfig, Parties};
use ironman_prg::Block;
use ironman_telemetry::{pack_phase_split, EventKind, Histogram, Stopwatch, TraceLog};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// One supply's lock-free telemetry and counter home, shared (`Arc`)
/// between a session's thread, its consumer and — for a pool
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
    /// Extensions completed and staged by the session's thread.
    pub extensions_staged: AtomicU64,
    /// Consumer receives that found the staging buffer empty and had to
    /// block on the session thread (a *stall*: demand arrived faster than
    /// the session extends). Steady state for a well-provisioned supply
    /// is `consumer_stalls ≪ extensions_staged`.
    pub consumer_stalls: AtomicU64,
    /// Extensions a pool adopted into its buffer.
    pub extensions_run: AtomicU64,
    /// Correlations a pool handed out.
    pub taken: AtomicU64,
    /// Pool refills made by the warm-up path (`CotPool::ensure`).
    pub warm_refills: AtomicU64,
    /// Correlations a pool holds unconsumed, as of its last take or
    /// refill.
    pub available: AtomicU64,
}

/// The session's thread has exited (panic or teardown); no
/// further batches will arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionStopped;

impl std::fmt::Display for SessionStopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FERRET session thread stopped")
    }
}

impl std::error::Error for SessionStopped {}

/// A live two-party FERRET session producing extension outputs ahead of
/// demand on one thread. Dropping the handle stops the thread and joins
/// it.
#[derive(Debug)]
pub struct CotSession {
    delta: Block,
    per_extension: usize,
    telemetry: Arc<SessionTelemetry>,
    /// `Option` so `Drop` can hang up before joining the thread.
    out_rx: Option<mpsc::Receiver<CotBatch>>,
    thread: Option<JoinHandle<()>>,
}

impl CotSession {
    /// Bootstraps a session (dealer, base correlations, both parties) and
    /// starts its thread. `seed` drives the dealer exactly
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
        let bases = deal(cfg, seed);
        let delta = bases.0.delta();
        let (out_tx, out_rx) = mpsc::sync_channel::<CotBatch>(lookahead.max(1));
        // One matrix for both parties, and no new one if the caller (a
        // shard pool) already prebuilt the shared matrix into `cfg`.
        let mut cfg = cfg.clone();
        cfg.ensure_shared_matrix();
        let per_extension = cfg.usable_outputs();
        let thread_telemetry = Arc::clone(&telemetry);
        let thread = std::thread::spawn(move || {
            let mut parties = Parties::new(cfg, bases, seed);
            let telemetry = thread_telemetry;
            for ordinal in 0u64.. {
                telemetry.trace.push(EventKind::ExtensionStart, ordinal);
                let watch = Stopwatch::start();
                let (batch, spcot) = parties.extend();
                let elapsed = watch.elapsed_nanos();
                telemetry.extension.record(elapsed);
                telemetry.trace.push(
                    EventKind::ExtensionEnd,
                    pack_phase_split(spcot, elapsed.saturating_sub(spcot)),
                );
                telemetry.extensions_staged.fetch_add(1, Ordering::Relaxed);
                if out_tx.send(batch).is_err() {
                    return;
                }
            }
        });

        CotSession {
            delta,
            per_extension,
            telemetry,
            out_rx: Some(out_rx),
            thread: Some(thread),
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

    /// Extensions completed and staged by the session thread so far.
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
    /// [`SessionStopped`] when the session thread has exited.
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
    /// the staging buffer is merely empty (the thread is still
    /// extending), without blocking.
    ///
    /// # Errors
    ///
    /// [`SessionStopped`] when the session thread has exited — distinct
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
    /// Hangs up the staging channel (the session thread's next staged
    /// send fails, and it returns) and joins the thread.
    fn drop(&mut self) {
        self.out_rx = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
impl CotSession {
    /// A session whose thread has already exited, as after a panic:
    /// every receive answers [`SessionStopped`].
    pub(crate) fn stopped() -> CotSession {
        let (out_tx, out_rx) = mpsc::sync_channel::<CotBatch>(1);
        std::thread::spawn(move || drop(out_tx))
            .join()
            .expect("the thread only hangs up");
        CotSession {
            delta: Block::ZERO,
            per_extension: 0,
            telemetry: Arc::default(),
            out_rx: Some(out_rx),
            thread: None,
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
    fn one_thread_session_matches_the_two_thread_driver_on_tiled_configs() {
        // One LPN pass for both parties and no channel between them, yet
        // the same bits as `run_extensions`, whose parties run on their
        // own threads over an in-process channel: every arity, a mixed
        // final tree level, three chained extensions — and the joint pass
        // on every tier this machine runs, against the detected tier.
        use ironman_ggm::Arity;
        use ironman_lpn::SimdLevel;
        for arity in Arity::SWEEP {
            let cfg = FerretConfig {
                arity,
                kernel: crate::ferret::LpnKernel::Tiled,
                ..FerretConfig::new(FerretParams::toy_large())
            };
            let reference = run_extensions(&cfg, 23, 3);
            let session = CotSession::spawn(&cfg, 23, 1);
            for (i, r) in reference.iter().enumerate() {
                assert_eq!(session.recv().unwrap(), r.cots, "{arity}: extension {i}");
            }
            for &tier in SimdLevel::available() {
                let mut parties = Parties::new(cfg.clone(), deal(&cfg, 23), 23).on_tier(tier);
                for (i, r) in reference.iter().enumerate() {
                    let (batch, _) = parties.extend();
                    assert_eq!(batch, r.cots, "{arity}, {tier:?}: extension {i}");
                }
            }
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
        // The session thread stalls once `lookahead` batches are staged;
        // dropping the handle must still tear the session down cleanly.
        let cfg = toy_cfg();
        let session = CotSession::spawn(&cfg, 11, 2);
        let first = session.recv().unwrap();
        assert_eq!(first.len(), cfg.usable_outputs());
        drop(session); // joins the thread; hangs if backpressure deadlocks
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
