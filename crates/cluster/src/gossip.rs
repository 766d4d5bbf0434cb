//! Anti-entropy gossip: the background pull loop that converges a
//! server's [`Directory`] replica with its peers' (wire v9).
//!
//! Replication is **pull-based** and piggybacks on the health-probe
//! cadence: each sweep sends every peer a `Gossip{from, epoch_vector}`
//! request and merges the `GossipDelta` answer through
//! [`Directory::apply_delta`]. The merge rule (per-record LWW stamps,
//! ties to the lower origin — see the directory docs) is commutative and
//! idempotent, so sweeps need no coordination: any connected component
//! of replicas converges to the same membership within a few intervals,
//! whatever order the pulls land in.
//!
//! Two fleet-survival details live here rather than in the merge rule:
//!
//! * **Rendezvous seeds.** After a long partition both sides may have
//!   evicted each other — their member lists no longer overlap, and a
//!   members-only sweep could never reconnect them. The configured
//!   [`GossiperConfig::seeds`] are dialed on *every* sweep regardless of
//!   membership, so a healed network always re-links. The list can grow
//!   at runtime ([`Gossiper::add_seed`]): pull-only anti-entropy never
//!   discovers a peer nobody points at, so a coordinator must introduce
//!   late joiners to the gossipers it already runs.
//! * **Self re-announcement.** A server that finds itself evicted from
//!   its own replica after a merge (a peer's health checker struck it
//!   out during the partition) re-announces itself with
//!   [`Directory::join_as`] — a fresh stamp that out-versions the
//!   eviction, so one announce wins everywhere.
//!
//! A [`Gossiper`] without an identity ([`GossiperConfig::identity`] =
//! `None`) is an **observer**: it pulls and merges but never announces —
//! the shape a coordinator or monitoring process uses to keep a live
//! fleet view without joining the fleet.

use crate::background::BackgroundLoop;
use crate::directory::{Directory, MemberState, ServerId, UNATTRIBUTED};
use ironman_net::{CotClient, OpTimeouts, EPOCH_UNAWARE};
use ironman_ot::channel::ChannelError;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// This gossiper's fleet identity: id, advertised address, display name,
/// and ring weight — everything [`Directory::join_as`] needs to
/// (re-)announce the server.
#[derive(Clone, Debug)]
pub struct GossipIdentity {
    /// The server's stable id (operator-assigned in replicated fleets).
    pub id: ServerId,
    /// The address peers should dial (may differ from the bind address
    /// behind proxies or NAT).
    pub addr: SocketAddr,
    /// Display name.
    pub name: String,
    /// Relative ring weight.
    pub weight: u32,
}

/// Configuration of a [`Gossiper`].
#[derive(Clone, Debug)]
pub struct GossiperConfig {
    /// Pause between pull sweeps (the health-probe cadence by default).
    pub interval: Duration,
    /// Per-step timeout on every peer exchange (connect, read, write).
    pub timeout: Duration,
    /// This server's own identity, announced into the replica and
    /// re-announced after a merge that evicted it. `None` = observer
    /// mode: pull and merge only.
    pub identity: Option<GossipIdentity>,
    /// Peers dialed on every sweep regardless of current membership —
    /// the rendezvous that survives mutual eviction.
    pub seeds: Vec<SocketAddr>,
}

impl Default for GossiperConfig {
    fn default() -> Self {
        GossiperConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(500),
            identity: None,
            seeds: Vec::new(),
        }
    }
}

/// Lifetime counters of one [`Gossiper`], all monotonic (read them
/// through [`GossipHandle`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Pull sweeps completed.
    pub sweeps: u64,
    /// Peer pulls that returned a delta.
    pub pulls_ok: u64,
    /// Peer pulls that failed (connect, timeout, or protocol error).
    pub pulls_failed: u64,
    /// Pulled deltas that actually changed the replica.
    pub merges_applied: u64,
    /// Times this server re-announced itself after a merge evicted it.
    pub self_rejoins: u64,
}

#[derive(Debug, Default)]
struct Counters {
    sweeps: AtomicU64,
    pulls_ok: AtomicU64,
    pulls_failed: AtomicU64,
    merges_applied: AtomicU64,
    self_rejoins: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> GossipStats {
        GossipStats {
            sweeps: self.sweeps.load(Ordering::Relaxed),
            pulls_ok: self.pulls_ok.load(Ordering::Relaxed),
            pulls_failed: self.pulls_failed.load(Ordering::Relaxed),
            merges_applied: self.merges_applied.load(Ordering::Relaxed),
            self_rejoins: self.self_rejoins.load(Ordering::Relaxed),
        }
    }
}

/// A shareable read handle on a running (or stopped) [`Gossiper`]'s
/// counters.
#[derive(Clone, Debug)]
pub struct GossipHandle {
    counters: Arc<Counters>,
}

impl GossipHandle {
    /// Current counter snapshot.
    pub fn stats(&self) -> GossipStats {
        self.counters.snapshot()
    }
}

/// A running anti-entropy pull loop over a [`Directory`] replica.
///
/// Stops (and joins its thread) on [`Gossiper::stop`] or drop.
#[derive(Debug)]
pub struct Gossiper {
    inner: BackgroundLoop,
    handle: GossipHandle,
    seeds: Arc<Mutex<Vec<SocketAddr>>>,
}

impl Gossiper {
    /// Starts the pull loop over `directory`. If
    /// [`GossiperConfig::identity`] is set, the identity is announced
    /// into the replica immediately (idempotent) before the first sweep.
    pub fn spawn(directory: Arc<Directory>, cfg: GossiperConfig) -> Gossiper {
        if let Some(me) = &cfg.identity {
            directory.join_as(me.id, me.addr, &me.name, me.weight);
        }
        let counters = Arc::new(Counters::default());
        let timeout = cfg.timeout.max(Duration::from_millis(1));
        let seeds = Arc::new(Mutex::new(cfg.seeds.clone()));
        let mut sessions: HashMap<SocketAddr, CotClient> = HashMap::new();
        let inner = {
            let counters = Arc::clone(&counters);
            let seeds = Arc::clone(&seeds);
            let cfg = cfg.clone();
            BackgroundLoop::spawn(move || {
                sweep(&directory, &cfg, &seeds, timeout, &mut sessions, &counters);
                Some(cfg.interval)
            })
        };
        Gossiper {
            inner,
            handle: GossipHandle { counters },
            seeds,
        }
    }

    /// Adds a rendezvous address dialed from the next sweep onward
    /// (idempotent). Pull-only anti-entropy never discovers a peer
    /// nobody points at, so whoever spawns a late joiner must introduce
    /// it to the gossipers already running.
    pub fn add_seed(&self, addr: SocketAddr) {
        let mut seeds = self.seeds.lock().unwrap();
        if !seeds.contains(&addr) {
            seeds.push(addr);
        }
    }

    /// A cloneable handle on this gossiper's counters.
    pub fn handle(&self) -> GossipHandle {
        self.handle.clone()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> GossipStats {
        self.handle.stats()
    }

    /// Stops the loop and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// One pull sweep: members ∪ seeds, minus self, suspects skipped (the
/// health prober owns deciding when they are back).
fn sweep(
    directory: &Directory,
    cfg: &GossiperConfig,
    seeds: &Mutex<Vec<SocketAddr>>,
    timeout: Duration,
    sessions: &mut HashMap<SocketAddr, CotClient>,
    counters: &Counters,
) {
    let self_addr = cfg.identity.as_ref().map(|me| me.addr);
    let seeds: Vec<SocketAddr> = seeds.lock().unwrap().clone();
    let snapshot = directory.snapshot();
    let mut targets: Vec<SocketAddr> = snapshot
        .members()
        .iter()
        .filter(|m| m.state != MemberState::Suspect)
        .map(|m| m.addr)
        .chain(seeds.iter().copied())
        .filter(|addr| Some(*addr) != self_addr)
        .collect();
    targets.sort_unstable();
    targets.dedup();
    // Drop cached sessions to departed peers (their fds would otherwise
    // linger for the gossiper's lifetime).
    sessions.retain(|addr, _| targets.contains(addr));

    let from = cfg.identity.as_ref().map_or(UNATTRIBUTED, |me| me.id.0);
    let mut merged = false;
    for addr in targets {
        match pull(directory, from, addr, timeout, sessions) {
            Ok(changed) => {
                counters.pulls_ok.fetch_add(1, Ordering::Relaxed);
                if changed {
                    counters.merges_applied.fetch_add(1, Ordering::Relaxed);
                    merged = true;
                }
            }
            Err(_) => {
                // One bad peer costs one timeout; a fresh session is
                // dialed next sweep.
                sessions.remove(&addr);
                counters.pulls_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    if let Some(me) = &cfg.identity {
        // A merge may have pulled in this server's own eviction (struck
        // out by a peer during a partition). Re-announce with a fresh,
        // out-versioning stamp; the next sweeps spread it.
        if merged && directory.snapshot().member(me.id).is_none() {
            directory.join_as(me.id, me.addr, &me.name, me.weight);
            counters.self_rejoins.fetch_add(1, Ordering::Relaxed);
        }
    }
    counters.sweeps.fetch_add(1, Ordering::Relaxed);
}

/// One peer pull: `Gossip{from, vector}` → `GossipDelta` → merge.
/// Returns whether the merge changed the replica.
fn pull(
    directory: &Directory,
    from: u64,
    addr: SocketAddr,
    timeout: Duration,
    sessions: &mut HashMap<SocketAddr, CotClient>,
) -> Result<bool, ChannelError> {
    let client = match sessions.entry(addr) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => e.insert(CotClient::connect_with(
            addr,
            "gossip",
            EPOCH_UNAWARE,
            OpTimeouts::uniform(timeout),
        )?),
    };
    let delta = client.gossip(from, directory.epoch_vector())?;
    Ok(directory.apply_delta(&delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ClusterServer, ClusterServerConfig};
    use ironman_core::{Backend, Engine};
    use ironman_ot::ferret::FerretConfig;
    use ironman_ot::params::FerretParams;

    fn toy_engine() -> Engine {
        Engine::new(
            FerretConfig::new(FerretParams::toy()),
            Backend::ironman_default(),
        )
    }

    fn replica_server(engine: &Engine, id: u64) -> (ClusterServer, Arc<Directory>, SocketAddr) {
        let directory = Arc::new(Directory::new_replica(ServerId(id)));
        let server = ClusterServer::spawn(
            "127.0.0.1:0",
            engine,
            ClusterServerConfig::default(),
            Some(Arc::clone(&directory)),
        )
        .expect("bind loopback");
        let addr = server.addr();
        directory.join_as(ServerId(id), addr, &format!("replica-{id}"), 1);
        (server, directory, addr)
    }

    #[test]
    fn replicas_converge_via_gossip_loops() {
        let engine = toy_engine();
        let (s0, d0, a0) = replica_server(&engine, 0);
        let (s1, d1, a1) = replica_server(&engine, 1);
        let (s2, d2, a2) = replica_server(&engine, 2);
        let seeds = vec![a0, a1, a2];
        let cadence = Duration::from_millis(5);
        let gossipers: Vec<Gossiper> = [(0u64, a0, &d0), (1, a1, &d1), (2, a2, &d2)]
            .into_iter()
            .map(|(id, addr, dir)| {
                Gossiper::spawn(
                    Arc::clone(dir),
                    GossiperConfig {
                        interval: cadence,
                        identity: Some(GossipIdentity {
                            id: ServerId(id),
                            addr,
                            name: format!("replica-{id}"),
                            weight: 1,
                        }),
                        seeds: seeds.clone(),
                        ..GossiperConfig::default()
                    },
                )
            })
            .collect();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let vectors: Vec<_> = [&d0, &d1, &d2].iter().map(|d| d.epoch_vector()).collect();
            if vectors.iter().all(|v| *v == vectors[0]) && d0.snapshot().len() == 3 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replicas failed to converge: {vectors:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(d1.snapshot().len(), 3);
        assert_eq!(d2.snapshot().len(), 3);
        for g in &gossipers {
            assert!(g.stats().pulls_ok > 0);
        }
        for g in gossipers {
            g.stop();
        }
        s0.shutdown();
        s1.shutdown();
        s2.shutdown();
    }

    #[test]
    fn observer_pulls_without_announcing() {
        let engine = toy_engine();
        let (s0, d0, a0) = replica_server(&engine, 0);
        let view = Arc::new(Directory::new());
        let observer = Gossiper::spawn(
            Arc::clone(&view),
            GossiperConfig {
                interval: Duration::from_millis(5),
                seeds: vec![a0],
                ..GossiperConfig::default()
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while view.snapshot().len() != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "observer never synced"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(view.epoch_vector(), d0.epoch_vector());
        // The observer never wrote anything of its own.
        assert!(view
            .epoch_vector()
            .iter()
            .all(|&(origin, _)| origin != UNATTRIBUTED));
        observer.stop();
        s0.shutdown();
    }
}
