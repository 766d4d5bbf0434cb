//! Anti-entropy gossip: the one background loop per server, which
//! converges the server's [`Directory`] replica with its peers' (wire v9)
//! and doubles as the fleet's failure detector.
//!
//! Replication is **pull-based**: each sweep sends every peer a
//! `Gossip{from, epoch_vector}` request over a cached session and merges
//! the `GossipDelta` answer through [`Directory::apply_delta`]. The merge
//! rule (per-record LWW stamps, ties to the lower origin — see the
//! directory docs) is commutative and idempotent, so sweeps need no
//! coordination: any connected component of replicas converges to the
//! same membership within a few intervals, whatever order the pulls land
//! in.
//!
//! **Failure detection rides on the pulls** (the SWIM shape: the
//! membership exchange is the probe). A pull that comes back proves what
//! a health probe would — the peer accepts sessions and answers a
//! request — so with a [`HealthConfig`] installed
//! ([`Gossiper::enable_health`]) each pull to a member is also that
//! member's probe. Strikes count consecutive failed pulls per member id:
//!
//! * `suspect_after` strikes → `Up → Suspect`: the member leaves the ring
//!   (no new homes) but stays in the membership, so a blip recovers
//!   without a reshuffle round trip.
//! * `evict_after` strikes → [`Directory::leave`], but only while this
//!   replica holds the lease (lowest live id): a minority partition
//!   suspects its unreachable peers but cannot evict the majority.
//!   Suspect marks are never gated — they *are* how the lease expires.
//! * Any successful pull resets the member's strikes and moves it
//!   `Suspect → Up`.
//!
//! Both marks are [`Directory::transition`] compare-and-sets against the
//! sweep-start snapshot, so a drain issued mid-sweep is never overridden.
//! Seeds that are not members are never struck, and an observer (no
//! identity) never strikes at all.
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
//!   its own replica after a merge (a peer's gossiper struck it out
//!   during the partition) re-announces itself with
//!   [`Directory::join_as`] — a fresh stamp that out-versions the
//!   eviction, so one announce wins everywhere.
//!
//! A [`Gossiper`] without an identity ([`GossiperConfig::identity`] =
//! `None`) is an **observer**: it pulls and merges but never announces —
//! the shape a coordinator or monitoring process uses to keep a live
//! fleet view without joining the fleet.

use crate::background::BackgroundLoop;
use crate::directory::{Directory, MemberState, RingSnapshot, ServerId, UNATTRIBUTED};
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
    /// Pause between pull sweeps — and so between failure-detector
    /// probes of each member.
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

/// The strike policy a member [`Gossiper`] applies to its pulls (see
/// the module docs). Cadence and per-step timeout are the gossiper's
/// own [`GossiperConfig::interval`] and [`GossiperConfig::timeout`].
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Consecutive failed pulls before a member is marked suspect.
    pub suspect_after: u32,
    /// Consecutive failed pulls before the lease holder evicts a member.
    /// Clamped to at least `suspect_after`.
    pub evict_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after: 2,
            evict_after: 4,
        }
    }
}

/// Lifetime counters of one [`Gossiper`], all monotonic (read them
/// through [`Gossiper::stats`]).
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

/// What a coordinator may change while the loop runs.
#[derive(Debug)]
struct Runtime {
    seeds: Vec<SocketAddr>,
    health: Option<HealthConfig>,
}

/// A running anti-entropy pull loop over a [`Directory`] replica.
///
/// Stops (and joins its thread) on [`Gossiper::stop`] or drop.
#[derive(Debug)]
pub struct Gossiper {
    inner: BackgroundLoop,
    counters: Arc<Counters>,
    runtime: Arc<Mutex<Runtime>>,
}

impl Gossiper {
    /// Starts the pull loop over `directory`. If
    /// [`GossiperConfig::identity`] is set, the identity is announced
    /// into the replica immediately (idempotent) before the first sweep.
    pub fn spawn(directory: Arc<Directory>, cfg: GossiperConfig) -> Gossiper {
        if let Some(me) = &cfg.identity {
            directory.join_as(me.id, me.addr, &me.name, me.weight);
        }
        let cfg = GossiperConfig {
            timeout: cfg.timeout.max(Duration::from_millis(1)),
            ..cfg
        };
        let counters = Arc::new(Counters::default());
        let runtime = Arc::new(Mutex::new(Runtime {
            seeds: cfg.seeds.clone(),
            health: None,
        }));
        let mut sessions: HashMap<SocketAddr, CotClient> = HashMap::new();
        let mut strikes: HashMap<ServerId, u32> = HashMap::new();
        let inner = {
            let counters = Arc::clone(&counters);
            let runtime = Arc::clone(&runtime);
            BackgroundLoop::spawn(move || {
                sweep(
                    &directory,
                    &cfg,
                    &runtime,
                    &mut sessions,
                    &mut strikes,
                    &counters,
                );
                Some(cfg.interval)
            })
        };
        Gossiper {
            inner,
            counters,
            runtime,
        }
    }

    /// Adds a rendezvous address dialed from the next sweep onward
    /// (idempotent). Pull-only anti-entropy never discovers a peer
    /// nobody points at, so whoever spawns a late joiner must introduce
    /// it to the gossipers already running.
    pub fn add_seed(&self, addr: SocketAddr) {
        let seeds = &mut self
            .runtime
            .lock()
            .expect("gossiper runtime lock poisoned")
            .seeds;
        if !seeds.contains(&addr) {
            seeds.push(addr);
        }
    }

    /// Installs the strike policy from the next sweep onward: each pull
    /// to a member is then also that member's probe (see the module
    /// docs). An observer gossiper never strikes.
    pub fn enable_health(&self, cfg: HealthConfig) {
        self.runtime
            .lock()
            .expect("gossiper runtime lock poisoned")
            .health = Some(cfg);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> GossipStats {
        self.counters.snapshot()
    }

    /// Stops the loop and waits for its thread to exit.
    pub fn stop(self) {
        self.inner.stop();
    }
}

/// One pull sweep over members ∪ seeds, minus self, then the strike
/// policy over its outcomes.
fn sweep(
    directory: &Directory,
    cfg: &GossiperConfig,
    runtime: &Mutex<Runtime>,
    sessions: &mut HashMap<SocketAddr, CotClient>,
    strikes: &mut HashMap<ServerId, u32>,
    counters: &Counters,
) {
    let (seeds, health) = {
        let runtime = runtime.lock().expect("gossiper runtime lock poisoned");
        (runtime.seeds.clone(), runtime.health)
    };
    let self_addr = cfg.identity.as_ref().map(|me| me.addr);
    let snapshot = directory.snapshot();
    let mut targets: Vec<SocketAddr> = snapshot
        .members()
        .iter()
        .map(|m| m.addr)
        .chain(seeds)
        .filter(|addr| Some(*addr) != self_addr)
        .collect();
    targets.sort_unstable();
    targets.dedup();
    // Drop cached sessions to departed peers (their fds would otherwise
    // linger for the gossiper's lifetime).
    sessions.retain(|addr, _| targets.contains(addr));

    let from = cfg.identity.as_ref().map_or(UNATTRIBUTED, |me| me.id.0);
    let mut merged = false;
    let mut reached: HashMap<SocketAddr, bool> = HashMap::with_capacity(targets.len());
    for addr in targets {
        let ok = match pull(directory, from, addr, cfg.timeout, sessions) {
            Ok(changed) => {
                counters.pulls_ok.fetch_add(1, Ordering::Relaxed);
                if changed {
                    counters.merges_applied.fetch_add(1, Ordering::Relaxed);
                    merged = true;
                }
                true
            }
            Err(_) => {
                // One bad peer costs one timeout; a fresh session is
                // dialed next sweep.
                sessions.remove(&addr);
                counters.pulls_failed.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        reached.insert(addr, ok);
    }

    if let Some(me) = &cfg.identity {
        if let Some(policy) = health {
            judge(directory, &snapshot, me.id, policy, &reached, strikes);
        }
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

/// The strike policy over one sweep's pull outcomes, keyed by the member
/// each pulled address belongs to in the sweep-start `snapshot`.
fn judge(
    directory: &Directory,
    snapshot: &RingSnapshot,
    me: ServerId,
    policy: HealthConfig,
    reached: &HashMap<SocketAddr, bool>,
    strikes: &mut HashMap<ServerId, u32>,
) {
    let suspect_after = policy.suspect_after.max(1);
    let evict_after = policy.evict_after.max(suspect_after);
    // Forget strikes of members that are gone (manual leave, or our own
    // eviction last sweep) so a rejoining id starts clean.
    strikes.retain(|id, _| snapshot.member(*id).is_some());
    // Re-read per sweep: when the holder goes suspect everywhere, the
    // lease lands here without any extra protocol.
    let may_evict = snapshot.lease_holder() == Some(me);
    for member in snapshot.members().iter().filter(|m| m.id != me) {
        let Some(&ok) = reached.get(&member.addr) else {
            continue;
        };
        if ok {
            strikes.remove(&member.id);
            // Recovery is a compare-and-set from Suspect only: the
            // snapshot may be a sweep stale by now, and an unconditional
            // mark-up could override a drain issued mid-sweep.
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
    use ironman_ot::ferret::FerretConfig;
    use ironman_ot::params::FerretParams;

    fn replica_server(id: u64) -> (ClusterServer, Arc<Directory>, SocketAddr) {
        let directory = Arc::new(Directory::new_replica(ServerId(id)));
        let server = ClusterServer::spawn(
            "127.0.0.1:0",
            &FerretConfig::new(FerretParams::toy()),
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
        let (s0, d0, a0) = replica_server(0);
        let (s1, d1, a1) = replica_server(1);
        let (s2, d2, a2) = replica_server(2);
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
    fn strikes_suspect_then_evict_under_the_lease_only() {
        let addr = |i: u64| -> SocketAddr { format!("10.0.0.{}:7000", i + 1).parse().unwrap() };
        let replica = |me: u64| {
            let d = Directory::new_replica(ServerId(me));
            for i in 0..3 {
                d.join_as(ServerId(i), addr(i), &format!("m{i}"), 1);
            }
            d
        };
        let policy = HealthConfig::default();
        // Member 1 is dead, member 2 answers; seed 9 is not a member.
        let reached: HashMap<SocketAddr, bool> =
            HashMap::from([(addr(1), false), (addr(2), true), (addr(9), false)]);
        let state = |d: &Directory, id: u64| d.snapshot().member(ServerId(id)).map(|m| m.state);

        // Replica 0 holds the lease: suspect after 2 strikes, evict at 4.
        let (holder, mut strikes) = (replica(0), HashMap::new());
        let sweep = |d: &Directory, me: u64, strikes: &mut HashMap<ServerId, u32>| {
            judge(d, &d.snapshot(), ServerId(me), policy, &reached, strikes)
        };
        sweep(&holder, 0, &mut strikes);
        assert_eq!(state(&holder, 1), Some(MemberState::Up), "one strike");
        sweep(&holder, 0, &mut strikes);
        assert_eq!(state(&holder, 1), Some(MemberState::Suspect));
        sweep(&holder, 0, &mut strikes);
        sweep(&holder, 0, &mut strikes);
        assert_eq!(state(&holder, 1), None, "evicted at evict_after");
        assert_eq!(state(&holder, 2), Some(MemberState::Up));
        assert_eq!(holder.snapshot().len(), 2, "a seed is never struck");

        // Replica 2 is not the holder: it suspects but never evicts.
        let (follower, mut strikes) = (replica(2), HashMap::new());
        for _ in 0..8 {
            sweep(&follower, 2, &mut strikes);
        }
        assert_eq!(state(&follower, 1), Some(MemberState::Suspect));

        // A success marks a suspect up, but never overrides a drain.
        follower.drain(ServerId(0));
        let back: HashMap<SocketAddr, bool> = HashMap::from([(addr(0), true), (addr(1), true)]);
        judge(
            &follower,
            &follower.snapshot(),
            ServerId(2),
            policy,
            &back,
            &mut strikes,
        );
        assert_eq!(state(&follower, 1), Some(MemberState::Up));
        assert_eq!(state(&follower, 0), Some(MemberState::Draining));
    }

    #[test]
    fn observer_pulls_without_announcing() {
        let (s0, d0, a0) = replica_server(0);
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
