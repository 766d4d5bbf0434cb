//! Health checking: a background prober that keeps the [`Directory`]
//! honest about which members can actually serve.
//!
//! Each sweep probes every member with the cheapest full-protocol round
//! trip the service offers — a fresh connect (handshake + `Hello`/
//! `Welcome`) followed by one `Stats` request — so a probe success means
//! the server is accepting sessions *and* answering requests, not merely
//! holding a listening socket open. Every probe step (connect, read,
//! write) is bounded by [`HealthConfig::timeout`]: a blackholed host
//! (packets dropped, no RST — the failure a health checker exists for)
//! costs one timeout, not an OS-default connect stall that would freeze
//! the whole sweep.
//!
//! Strike policy (consecutive failed probes per member):
//!
//! * `suspect_after` strikes → [`Directory::mark_suspect`]: the member
//!   leaves the ring (no new homes) but stays in the membership, so a
//!   blip recovers without a reshuffle-churn round trip.
//! * `evict_after` strikes → [`Directory::leave`]: the member is removed
//!   and the epoch bump propagates to every client through the
//!   `WrongEpoch` fence and the `Gossip` pull it triggers.
//! * Any successful probe resets the member's strikes and, if it was
//!   suspect, marks it up again.
//!
//! Every state change is an ordinary directory mutation, so the health
//! checker composes with manual `join`/`drain`/`leave` calls and with
//! clients applying deltas — there is exactly one membership truth.

use crate::background::BackgroundLoop;
use crate::directory::{Directory, MemberState, ServerId};
use ironman_net::{CotClient, OpTimeouts, EPOCH_UNAWARE};
use ironman_telemetry::{Histogram, HistogramSnapshot, Stopwatch};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`HealthChecker`].
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Pause between probe sweeps.
    pub interval: Duration,
    /// Per-step probe timeout (connect, and each read/write of the
    /// `Hello`/`Stats` round trip).
    pub timeout: Duration,
    /// Consecutive failed probes before a member is marked suspect.
    pub suspect_after: u32,
    /// Consecutive failed probes before a member is evicted. Clamped to
    /// at least `suspect_after`.
    pub evict_after: u32,
    /// The id of the server this checker runs on, in replicated fleets.
    /// With it set, *evictions* are leader-gated: a struck-out member is
    /// only removed while this server holds the membership lease (lowest
    /// live id), so a minority partition suspects its unreachable peers
    /// but cannot evict the majority. Suspect/up marks are never gated —
    /// they *are* the lease-expiry mechanism. `None` (the default, and
    /// the shared-directory shape) leaves evictions ungated.
    pub self_id: Option<ServerId>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(500),
            suspect_after: 2,
            evict_after: 4,
            self_id: None,
        }
    }
}

/// A running background health prober over a shared [`Directory`].
///
/// Stops (and joins its thread) on [`HealthChecker::stop`] or drop.
#[derive(Debug)]
pub struct HealthChecker {
    inner: BackgroundLoop,
    probe_rtt: Arc<Histogram>,
}

impl HealthChecker {
    /// Starts the prober thread over `directory`.
    pub fn spawn(directory: Arc<Directory>, cfg: HealthConfig) -> HealthChecker {
        let evict_after = cfg.evict_after.max(cfg.suspect_after).max(1);
        let suspect_after = cfg.suspect_after.max(1);
        let timeout = cfg.timeout.max(Duration::from_millis(1));
        let mut strikes: HashMap<ServerId, u32> = HashMap::new();
        let probe_rtt = Arc::new(Histogram::new());
        let inner = {
            let probe_rtt = Arc::clone(&probe_rtt);
            BackgroundLoop::spawn(move || {
                sweep(
                    &directory,
                    &mut strikes,
                    suspect_after,
                    evict_after,
                    timeout,
                    cfg.self_id,
                    &probe_rtt,
                );
                Some(cfg.interval)
            })
        };
        HealthChecker { inner, probe_rtt }
    }

    /// The distribution of successful probe round-trip times (connect +
    /// `Hello`/`Welcome` + `Stats`), in nanoseconds. Failed probes are
    /// not recorded — their "RTT" is the timeout, which would drown the
    /// signal this histogram exists for: how slow the *live* fleet is.
    pub fn probe_rtt(&self) -> HistogramSnapshot {
        self.probe_rtt.snapshot()
    }

    /// Stops the prober and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// One probe sweep over the current membership.
fn sweep(
    directory: &Directory,
    strikes: &mut HashMap<ServerId, u32>,
    suspect_after: u32,
    evict_after: u32,
    timeout: Duration,
    self_id: Option<ServerId>,
    probe_rtt: &Histogram,
) {
    let snapshot = directory.snapshot();
    // Forget strikes of members that are gone (manual leave, or our own
    // eviction last sweep) so a rejoining id starts clean.
    strikes.retain(|id, _| snapshot.member(*id).is_some());
    // Leader-gated eviction (replicated fleets): only the lease holder
    // removes members. Re-read per sweep — when the holder goes suspect
    // everywhere, the lease lands here without any extra protocol.
    let may_evict = self_id.is_none_or(|me| snapshot.lease_holder() == Some(me));
    for member in snapshot.members() {
        if Some(member.id) == self_id {
            // A replica never probes itself over loopback-of-one: its own
            // liveness is its peers' verdict.
            continue;
        }
        let watch = Stopwatch::start();
        if probe(member.addr, timeout) {
            probe_rtt.record_elapsed(watch);
            strikes.remove(&member.id);
            // Recovery is a compare-and-set from Suspect only: the
            // member's snapshot state may be seconds stale by now, and an
            // unconditional mark-up could override a drain issued
            // mid-sweep.
            directory.transition(member.id, MemberState::Suspect, MemberState::Up);
            continue;
        }
        let count = strikes.entry(member.id).or_insert(0);
        *count += 1;
        if *count >= evict_after && may_evict {
            directory.leave(member.id);
            strikes.remove(&member.id);
        } else if *count >= suspect_after {
            // Same stale-snapshot discipline: only escalate Up → Suspect;
            // a member drained mid-sweep keeps its Draining state.
            directory.transition(member.id, MemberState::Up, MemberState::Suspect);
        }
    }
}

/// One probe: connect (handshake, `Hello`/`Welcome`) and ask for
/// `Stats`, every step bounded by `timeout`. Epoch-unaware on purpose —
/// a probe must never be fenced.
fn probe(addr: SocketAddr, timeout: Duration) -> bool {
    let timeouts = OpTimeouts::uniform(timeout);
    match CotClient::connect_with(addr, "health-probe", EPOCH_UNAWARE, timeouts) {
        Ok(mut client) => client.stats().is_ok(),
        Err(_) => false,
    }
}
