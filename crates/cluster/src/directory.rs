//! The cluster control plane: an epoch-versioned, mutable membership
//! [`Directory`] publishing copy-on-write [`RingSnapshot`]s.
//!
//! PR 2's `ClusterDirectory` was an immutable fleet snapshot: a crash,
//! join, or drain meant rebuilding every client by hand. The [`Directory`]
//! replaces it with a control plane:
//!
//! * **Membership mutations** — [`Directory::join_as`],
//!   [`Directory::leave`], [`Directory::drain`], and the gossiper's
//!   failure-detector marks ([`Directory::transition`]) — happen under one
//!   mutex and bump a monotonically increasing **epoch**.
//! * Every mutation **publishes** a fresh immutable [`RingSnapshot`]
//!   (members + consistent-hash ring) behind a read lock held only for an
//!   `Arc` clone, so the request path routes on an immutable snapshot and
//!   never contends with membership churn.
//! * A stale client or peer replica presents its epoch vector and a
//!   server answers with exactly the records the vector does not cover
//!   ([`Directory::delta_by_vector`]); the receiver merges them with
//!   [`Directory::apply_delta`]. No change log is kept: the stamps on
//!   the live records and tombstones are the whole history a delta needs.
//!
//! # Replication (wire v9)
//!
//! A directory is no longer necessarily *the* fleet directory: each
//! server may carry its own **replica** and converge with its peers
//! through anti-entropy pulls (see `gossip` in `ironman-cluster` and the
//! `Gossip`/`GossipDelta` pair in `ironman-net`). Convergence rests on
//! three pieces of state this module maintains:
//!
//! * Every membership record carries a **stamp** `(origin, version)`:
//!   which replica wrote it, at that replica's per-origin mutation count.
//!   Merging is last-writer-wins on the stamp — higher `version` wins,
//!   ties break to the *lower* origin — a deterministic, commutative,
//!   idempotent rule, so replicas converge no matter how deltas are
//!   ordered, duplicated, or crossed ([`Directory::apply_delta`]).
//! * The replica's **epoch vector** (`origin → highest version seen`)
//!   summarizes everything it has incorporated.
//!   [`Directory::delta_by_vector`] answers a peer's vector with exactly
//!   the records the peer has not seen. The scalar **epoch** is the sum
//!   of the vector's entries: it advances by one per local mutation
//!   (matching the pre-replication semantics exactly on a single-writer
//!   directory), never regresses under merges, and is equal across
//!   replicas precisely when they have converged. Mid-convergence,
//!   scalar comparison across replicas is approximate — fencing treats
//!   that as benign staleness; the stamps keep the *content* safe.
//! * Removals persist as bounded **tombstones** (capped at
//!   [`TOMBSTONE_CAP`], oldest stamps pruned first) so a removal wins
//!   against a stale peer's live record instead of being resurrected.
//!   A delta never replaces the receiver's membership wholesale — a
//!   clear would erase concurrent writes the sender had not seen. A peer
//!   staler than the pruned tombstone horizon can still resurrect a dead
//!   member; the gossipers' strike policy re-evicts it, so the fleet
//!   self-heals rather than wedges.
//!
//! **Leadership** is a lease derived from the converged state, not
//! elected: the **lease holder** is the lowest `Up` member id
//! ([`RingSnapshot::lease_holder`]). Only *evictions* are gated on
//! holding the lease (a gossiper evicts a struck-out member only if its
//! replica says it is the holder) — liveness observations (suspect/up
//! marks) are never gated, because they *are* the expiry mechanism: when
//! the holder dies, failed pulls mark it suspect everywhere,
//! and the next-lowest live id holds the lease. Joins are
//! self-announcements ([`Directory::join_as`]) spread by gossip, so a
//! server can (re)join during a partition without reaching any leader.
//!
//! Routing stays a consistent-hash ring: each *routable* member
//! contributes [`VIRTUAL_NODES`] points per unit of **weight** (hashes
//! of `addr#replica`), so a weight-4 member takes four times the base
//! arc share — heterogeneous servers take proportional load. A session
//! lands on the first point clockwise of its own hash. Two properties
//! matter for a COT fleet:
//!
//! * **Stickiness** — a session resolves to the same *home* server for as
//!   long as the membership holds (one `Δ` stream per server session).
//! * **Minimal reshuffle** — a join or leave moves only the sessions
//!   whose arcs the changed server owned (property-tested in
//!   `tests/directory_props.rs`).
//!
//! Draining and suspect members stay *in* the membership but out of the
//! ring: existing sessions may finish their work there (hitless drain),
//! while no new session homes on them. If no member is `Up`, the ring
//! falls back to every live member — degraded routing beats none.

use ironman_net::{DirectoryDelta, DirectoryView, MemberRecord, MemberWireState};
use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};

/// Virtual nodes per unit of member weight on the hash ring; enough that
/// a 3-server directory spreads sessions within a few percent of evenly.
pub const VIRTUAL_NODES: usize = 64;

/// Removal tombstones retained for anti-entropy; beyond this the oldest
/// stamps are pruned (a peer staler than the pruned horizon may
/// resurrect a member briefly — the gossipers' strike policy re-evicts
/// it).
pub const TOMBSTONE_CAP: usize = 256;

/// Largest effective ring weight; declared weights clamp into
/// `1..=MAX_WEIGHT` so one hostile or misconfigured member cannot claim
/// the whole ring (or, at weight 0, silently vanish from it).
pub const MAX_WEIGHT: u32 = 16;

/// The stamp origin of writers without a server identity (clients and
/// observer views). It loses every stamp tie — an attributed
/// replica's concurrent write always beats an unattributed one.
pub const UNATTRIBUTED: u64 = u64::MAX;

/// FNV-1a with a murmur-style finalizer: plain FNV does not avalanche
/// its high bits on short, similar strings (all `session-N` names would
/// land on one arc of the ring), so the mix step is load-bearing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A stable server identity, operator-assigned at [`Directory::join_as`]
/// and kept across state changes; the unit clients key their per-server
/// sessions
/// and load counters by (directory *indices* shift as members come and
/// go — ids never do).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u64);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A record's write stamp: which replica wrote it, at that replica's
/// per-origin mutation count. The total order over stamps (higher
/// version wins, ties to the lower origin) is the replication conflict
/// rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    /// The writing replica's server id ([`UNATTRIBUTED`] otherwise).
    pub origin: u64,
    /// The origin's mutation count at write time.
    pub version: u64,
}

impl Stamp {
    /// Whether a record carrying `self` replaces one carrying `other`
    /// under the merge rule. Strict: equal stamps do not replace, which
    /// is what makes duplicate delta application a no-op.
    fn wins_over(self, other: Stamp) -> bool {
        self.version > other.version
            || (self.version == other.version && self.origin < other.origin)
    }

    /// Whether an epoch vector already accounts for this write.
    fn covered_by(self, vector: &BTreeMap<u64, u64>) -> bool {
        vector.get(&self.origin).copied().unwrap_or(0) >= self.version
    }
}

/// A fleet member's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// Serving and routable.
    Up,
    /// Finishing existing sessions; receives no new homes (hitless
    /// drain).
    Draining,
    /// Failed recent gossip pulls; out of the ring until it answers again
    /// or the lease holder evicts it.
    Suspect,
}

impl MemberState {
    fn to_wire(self) -> MemberWireState {
        match self {
            MemberState::Up => MemberWireState::Up,
            MemberState::Draining => MemberWireState::Draining,
            MemberState::Suspect => MemberWireState::Suspect,
        }
    }

    fn from_wire(state: MemberWireState) -> Option<Self> {
        match state {
            MemberWireState::Up => Some(MemberState::Up),
            MemberWireState::Draining => Some(MemberState::Draining),
            MemberWireState::Suspect => Some(MemberState::Suspect),
            MemberWireState::Left => None,
        }
    }
}

/// One server known to the directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Member {
    /// Stable identity.
    pub id: ServerId,
    /// The server's listening address.
    pub addr: SocketAddr,
    /// Display name (logs, stats).
    pub name: String,
    /// Current lifecycle state.
    pub state: MemberState,
    /// Relative ring weight (see [`MAX_WEIGHT`]); 1 for homogeneous
    /// fleets.
    pub weight: u32,
    /// The stamp of the write that produced this record's current value
    /// (v9 replication metadata).
    pub stamp: Stamp,
}

impl Member {
    fn to_record(&self) -> MemberRecord {
        MemberRecord {
            id: self.id.0,
            state: self.state.to_wire(),
            weight: self.weight,
            origin: self.stamp.origin,
            version: self.stamp.version,
            addr: self.addr.to_string(),
            name: self.name.clone(),
        }
    }
}

/// An immutable point-in-time view of the fleet: the members at one
/// epoch and the consistent-hash ring over the routable ones. The
/// request path routes on a snapshot and never touches the directory's
/// locks.
#[derive(Clone, Debug)]
pub struct RingSnapshot {
    epoch: u64,
    vector: Vec<(u64, u64)>,
    members: Vec<Member>,
    /// Sorted `(ring point, members index)` pairs over routable members.
    ring: Vec<(u64, usize)>,
}

impl RingSnapshot {
    fn build(epoch: u64, vector: Vec<(u64, u64)>, members: Vec<Member>) -> Self {
        // Up members own the ring; with none up, every live member does
        // (degraded routing beats an unroutable fleet).
        let routable: Vec<usize> = {
            let up: Vec<usize> = members
                .iter()
                .enumerate()
                .filter(|(_, m)| m.state == MemberState::Up)
                .map(|(i, _)| i)
                .collect();
            if up.is_empty() {
                (0..members.len()).collect()
            } else {
                up
            }
        };
        let mut ring = Vec::new();
        for &idx in &routable {
            let points = VIRTUAL_NODES * members[idx].weight.clamp(1, MAX_WEIGHT) as usize;
            for replica in 0..points {
                let point = fnv1a(format!("{}#{replica}", members[idx].addr).as_bytes());
                ring.push((point, idx));
            }
        }
        ring.sort_unstable();
        RingSnapshot {
            epoch,
            vector,
            members,
            ring,
        }
    }

    /// The membership epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-origin epoch vector behind [`RingSnapshot::epoch`]
    /// (ascending by origin; the scalar epoch is its sum).
    pub fn vector(&self) -> &[(u64, u64)] {
        &self.vector
    }

    /// All members, in join order (every state, including draining and
    /// suspect).
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The member with id `id`, if present.
    pub fn member(&self, id: ServerId) -> Option<&Member> {
        self.members.iter().find(|m| m.id == id)
    }

    /// Number of members (every state).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no members at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The membership-mutation lease holder under this view: the lowest
    /// `Up` member id, falling back to the lowest id of any member when
    /// none is up. Derived, not elected — when the holder dies, probes
    /// mark it suspect and the lease passes to the next-lowest live id
    /// with no extra protocol.
    pub fn lease_holder(&self) -> Option<ServerId> {
        self.members
            .iter()
            .filter(|m| m.state == MemberState::Up)
            .map(|m| m.id)
            .min()
            .or_else(|| self.members.iter().map(|m| m.id).min())
    }

    /// The session's home server: the first ring point clockwise of the
    /// session's hash, or `None` when the fleet is empty.
    pub fn home(&self, session: &str) -> Option<ServerId> {
        if self.ring.is_empty() {
            return None;
        }
        let h = fnv1a(session.as_bytes());
        let at = self.ring.partition_point(|&(point, _)| point < h);
        Some(self.members[self.ring[at % self.ring.len()].1].id)
    }

    /// The session's full routing order: home first, then each remaining
    /// *routable* server in the order the ring walk first reaches it,
    /// then any non-routable members (draining/suspect) as a last
    /// resort. Every member appears exactly once; walking this list is
    /// the deterministic failover policy.
    pub fn route(&self, session: &str) -> Vec<ServerId> {
        let mut order = Vec::with_capacity(self.members.len());
        if !self.ring.is_empty() {
            let h = fnv1a(session.as_bytes());
            let start = self.ring.partition_point(|&(point, _)| point < h);
            for offset in 0..self.ring.len() {
                let id = self.members[self.ring[(start + offset) % self.ring.len()].1].id;
                if !order.contains(&id) {
                    order.push(id);
                }
            }
        }
        for m in &self.members {
            if !order.contains(&m.id) {
                order.push(m.id);
            }
        }
        order
    }

    /// The member that inherits most of `id`'s ring arcs if it leaves:
    /// for each of `id`'s ring points, the owner of the next point
    /// clockwise is the heir of that arc; the most frequent heir (ties
    /// to the lower id) is the *ring successor* — the server a drain
    /// handoff names. `None` when `id` is not on the ring or owns it
    /// alone.
    pub fn successor(&self, id: ServerId) -> Option<ServerId> {
        let mut heirs: BTreeMap<ServerId, usize> = BTreeMap::new();
        for (i, &(_, idx)) in self.ring.iter().enumerate() {
            if self.members[idx].id != id {
                continue;
            }
            for offset in 1..self.ring.len() {
                let owner = self.members[self.ring[(i + offset) % self.ring.len()].1].id;
                if owner != id {
                    *heirs.entry(owner).or_insert(0) += 1;
                    break;
                }
            }
        }
        // BTreeMap iteration is ascending by id, and `>` keeps the first
        // (lowest) id among equal counts.
        let mut best: Option<(ServerId, usize)> = None;
        for (owner, count) in heirs {
            if best.is_none_or(|(_, c)| count > c) {
                best = Some((owner, count));
            }
        }
        best.map(|(owner, _)| owner)
    }
}

#[derive(Debug)]
struct DirInner {
    /// This replica's stamp origin ([`UNATTRIBUTED`] for directories not
    /// acting as a server replica).
    origin: u64,
    /// Scalar epoch: always the sum of `vector`'s entries.
    epoch: u64,
    /// Per-origin highest version seen.
    vector: BTreeMap<u64, u64>,
    members: Vec<Member>,
    /// Removal tombstones by member id, each a `Left` record carrying
    /// the removing write's stamp.
    tombstones: BTreeMap<u64, MemberRecord>,
}

impl DirInner {
    /// Advances this replica's own vector entry and returns the stamp
    /// for the write being made (the scalar epoch tracks the sum),
    /// Lamport-style: the new version lands strictly past `prev_version`
    /// (the stamp of the record being overwritten),
    /// so a local write always out-stamps what it replaces — without
    /// this, a self re-announce over a peer's eviction tombstone would
    /// lose its own merge and flap for several rounds. On a
    /// single-writer directory `prev_version` never exceeds the local
    /// counter, so the epoch still advances by exactly 1 per mutation.
    fn bump_over(&mut self, prev_version: u64) -> Stamp {
        let v = self.vector.entry(self.origin).or_insert(0);
        let new = (*v).max(prev_version).saturating_add(1);
        let jump = new - *v;
        *v = new;
        self.epoch = self.epoch.saturating_add(jump);
        Stamp {
            origin: self.origin,
            version: new,
        }
    }

    fn vector_list(&self) -> Vec<(u64, u64)> {
        self.vector.iter().map(|(&o, &v)| (o, v)).collect()
    }

    /// The snapshot to publish after a mutation (the epoch was already
    /// advanced by [`DirInner::bump_over`] or a merge).
    fn snapshot(&self) -> Arc<RingSnapshot> {
        Arc::new(RingSnapshot::build(
            self.epoch,
            self.vector_list(),
            self.members.clone(),
        ))
    }

    fn prune_tombstones(&mut self) {
        while self.tombstones.len() > TOMBSTONE_CAP {
            // Prune the stamp-oldest removal (lowest version; ties to
            // the higher origin, the stamp order's loser side).
            let Some(oldest) = self
                .tombstones
                .iter()
                .min_by_key(|(_, r)| (r.version, std::cmp::Reverse(r.origin)))
                .map(|(&id, _)| id)
            else {
                return;
            };
            self.tombstones.remove(&oldest);
        }
    }

    fn member_mut(&mut self, id: ServerId) -> Option<&mut Member> {
        self.members.iter_mut().find(|m| m.id == id)
    }

    /// Merges one wire record under the stamp rule. Returns whether the
    /// membership changed.
    fn apply_record(&mut self, record: &MemberRecord) -> bool {
        let stamp = Stamp {
            origin: record.origin,
            version: record.version,
        };
        let current = self
            .members
            .iter()
            .find(|m| m.id.0 == record.id)
            .map(|m| m.stamp)
            .or_else(|| {
                self.tombstones.get(&record.id).map(|t| Stamp {
                    origin: t.origin,
                    version: t.version,
                })
            });
        match current {
            // Known record: only a strictly winning stamp replaces it
            // (equal stamps are duplicates — idempotence).
            Some(cur) if !stamp.wins_over(cur) => return false,
            Some(_) => {}
            // Unknown record whose write this replica has already seen:
            // it was superseded and then forgotten (e.g. a pruned
            // tombstone); re-inserting it would resurrect stale state.
            None if stamp.covered_by(&self.vector) => return false,
            None => {}
        }
        match MemberState::from_wire(record.state) {
            None => {
                self.members.retain(|m| m.id.0 != record.id);
                self.tombstones.insert(record.id, record.clone());
                self.prune_tombstones();
            }
            Some(state) => {
                // A record whose address does not parse cannot be
                // routed to; drop it rather than poison the ring.
                let Ok(addr) = record.addr.parse::<SocketAddr>() else {
                    return false;
                };
                self.tombstones.remove(&record.id);
                match self.members.iter_mut().find(|m| m.id.0 == record.id) {
                    Some(member) => {
                        member.addr = addr;
                        member.name = record.name.clone();
                        member.state = state;
                        member.weight = record.weight;
                        member.stamp = stamp;
                    }
                    None => self.members.push(Member {
                        id: ServerId(record.id),
                        addr,
                        name: record.name.clone(),
                        state,
                        weight: record.weight,
                        stamp,
                    }),
                }
            }
        }
        true
    }
}

/// The mutable, epoch-versioned membership directory (see the module
/// docs). Each server holds its own replica, shared as an
/// `Arc<Directory>` with its service and gossiper, and converges with its
/// peers through [`Directory::delta_by_vector`]/[`Directory::apply_delta`];
/// clients and observers hold a view kept current the same way.
#[derive(Debug)]
pub struct Directory {
    inner: Mutex<DirInner>,
    published: RwLock<Arc<RingSnapshot>>,
}

/// Recovers a poisoned lock: every mutation leaves the directory state
/// consistent before unlocking, so a panicking *caller* must not wedge
/// membership for the whole fleet.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory at epoch 0 (members join dynamically), writing
    /// with the [`UNATTRIBUTED`] origin — the right shape for clients
    /// and observer views.
    pub fn new() -> Self {
        Self::with_origin(UNATTRIBUTED)
    }

    /// An empty directory replica writing with `origin`'s identity — the
    /// shape a server's own replica takes ([`Directory::join_as`]
    /// announces the server itself; gossip spreads everything else).
    pub fn new_replica(origin: ServerId) -> Self {
        Self::with_origin(origin.0)
    }

    fn with_origin(origin: u64) -> Self {
        Directory {
            inner: Mutex::new(DirInner {
                origin,
                epoch: 0,
                vector: BTreeMap::new(),
                members: Vec::new(),
                tombstones: BTreeMap::new(),
            }),
            published: RwLock::new(Arc::new(RingSnapshot::build(0, Vec::new(), Vec::new()))),
        }
    }

    /// A directory cloned from a published snapshot, preserving ids,
    /// epoch, and the epoch vector — how a remote client bootstraps its
    /// local membership view before keeping it current through
    /// `GossipDelta` deltas. (Only this module builds a [`RingSnapshot`],
    /// so its epoch is the sum of its vector.)
    pub fn from_snapshot(snapshot: &RingSnapshot) -> Self {
        Directory {
            inner: Mutex::new(DirInner {
                origin: UNATTRIBUTED,
                epoch: snapshot.epoch(),
                vector: snapshot.vector().iter().copied().collect(),
                members: snapshot.members().to_vec(),
                tombstones: BTreeMap::new(),
            }),
            published: RwLock::new(Arc::new(snapshot.clone())),
        }
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The current per-origin epoch vector (ascending by origin) — what
    /// an anti-entropy pull presents to a peer.
    pub fn epoch_vector(&self) -> Vec<(u64, u64)> {
        lock(&self.inner).vector_list()
    }

    /// This directory's stamp origin ([`UNATTRIBUTED`] unless built with
    /// [`Directory::new_replica`]).
    pub fn origin(&self) -> u64 {
        lock(&self.inner).origin
    }

    /// The current published snapshot (an `Arc` clone under a read lock;
    /// the request path's only touch on the control plane).
    pub fn snapshot(&self) -> Arc<RingSnapshot> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The lease holder under the current snapshot (see
    /// [`RingSnapshot::lease_holder`]).
    pub fn lease_holder(&self) -> Option<ServerId> {
        self.snapshot().lease_holder()
    }

    /// Publishes a committed snapshot. Mutations commit under the inner
    /// mutex but publish after dropping it, so two racing mutations can
    /// arrive here out of order — the epoch guard keeps the published
    /// view (which `epoch()`, `snapshot()`, and the server fence all
    /// read) from ever regressing to a stale membership.
    fn publish(&self, snapshot: Arc<RingSnapshot>) {
        let mut published = self
            .published
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if snapshot.epoch() > published.epoch() {
            *published = snapshot;
        }
    }

    /// Self-announcement with an operator-assigned id: upserts member
    /// `id` as `Up` at `addr` with the given name and weight, bumping
    /// the epoch (and clearing any tombstone for the id — a server
    /// evicted during a partition re-announces itself with a fresh,
    /// winning stamp). A no-op (returning `false`) when the member is
    /// already present in exactly this shape.
    pub fn join_as(&self, id: ServerId, addr: SocketAddr, name: &str, weight: u32) -> bool {
        let mut inner = lock(&self.inner);
        if let Some(member) = inner.member_mut(id) {
            if member.state == MemberState::Up
                && member.addr == addr
                && member.weight == weight
                && member.name == name
            {
                return false;
            }
        }
        // Out-stamp whatever this announcement replaces — in particular
        // a peer's eviction tombstone, so a single re-announce wins the
        // merge everywhere.
        let prev = inner
            .member_mut(id)
            .map(|m| m.stamp.version)
            .into_iter()
            .chain(inner.tombstones.get(&id.0).map(|t| t.version))
            .max()
            .unwrap_or(0);
        let stamp = inner.bump_over(prev);
        inner.tombstones.remove(&id.0);
        let member = Member {
            id,
            addr,
            name: name.to_string(),
            state: MemberState::Up,
            weight,
            stamp,
        };
        match inner.members.iter_mut().find(|m| m.id == id) {
            Some(existing) => *existing = member,
            None => inner.members.push(member),
        }
        let snap = inner.snapshot();
        drop(inner);
        self.publish(snap);
        true
    }

    /// Removes a member (crash eviction or completed drain), bumping the
    /// epoch. Returns whether the member existed.
    pub fn leave(&self, id: ServerId) -> bool {
        self.mutate(id, None)
    }

    /// Marks a member draining: it stays in the membership (existing
    /// sessions finish there) but leaves the ring, so no new session
    /// homes on it. Returns whether the member existed.
    pub fn drain(&self, id: ServerId) -> bool {
        self.mutate(id, Some(MemberState::Draining))
    }

    /// Marks a member suspect: out of the ring until
    /// [`Directory::mark_up`] or eviction. Returns whether the member
    /// existed.
    pub fn mark_suspect(&self, id: ServerId) -> bool {
        self.mutate(id, Some(MemberState::Suspect))
    }

    /// Marks a member healthy and routable again. Returns whether the
    /// member existed.
    pub fn mark_up(&self, id: ServerId) -> bool {
        self.mutate(id, Some(MemberState::Up))
    }

    /// Compare-and-set state transition: moves the member from `from` to
    /// `to` only if it is currently in `from`; returns whether the
    /// transition happened. This is what the gossiper's strike policy
    /// uses — its verdicts are based on a sweep-start snapshot that may
    /// be seconds stale, and an unconditional `mark_up` after a
    /// successful pull could override a `drain` issued mid-sweep.
    pub fn transition(&self, id: ServerId, from: MemberState, to: MemberState) -> bool {
        let mut inner = lock(&self.inner);
        let Some(member) = inner.member_mut(id) else {
            return false;
        };
        if member.state != from || from == to {
            return false;
        }
        let prev = member.stamp.version;
        let stamp = inner.bump_over(prev);
        let member = inner.member_mut(id).expect("member checked above");
        member.state = to;
        member.stamp = stamp;
        let snap = inner.snapshot();
        drop(inner);
        self.publish(snap);
        true
    }

    /// The shared mutation path: `None` removes, `Some(state)` restates.
    /// No-op (and no epoch bump) when the member is absent or already in
    /// the requested state.
    fn mutate(&self, id: ServerId, state: Option<MemberState>) -> bool {
        let mut inner = lock(&self.inner);
        match state {
            None => {
                let Some(pos) = inner.members.iter().position(|m| m.id == id) else {
                    return false;
                };
                let prev = inner.members[pos].stamp.version;
                let stamp = inner.bump_over(prev);
                let removed = inner.members.remove(pos);
                let tombstone = MemberRecord {
                    state: MemberWireState::Left,
                    origin: stamp.origin,
                    version: stamp.version,
                    ..removed.to_record()
                };
                inner.tombstones.insert(id.0, tombstone);
                inner.prune_tombstones();
            }
            Some(new_state) => {
                let Some(member) = inner.member_mut(id) else {
                    return false;
                };
                if member.state == new_state {
                    return true;
                }
                let prev = member.stamp.version;
                let stamp = inner.bump_over(prev);
                let member = inner.member_mut(id).expect("member checked above");
                member.state = new_state;
                member.stamp = stamp;
            }
        }
        let snap = inner.snapshot();
        drop(inner);
        self.publish(snap);
        true
    }

    /// Applies a membership delta (a `GossipDelta`, whether pulled by a
    /// fenced client or a peer replica) under the stamp merge rule: each
    /// record lands only if its stamp strictly wins over what this
    /// replica holds, removals become tombstones, and the delta's epoch
    /// vector folds in by pointwise maximum. Order-independent,
    /// duplicate-safe, and convergent (see the module docs); returns
    /// whether anything changed.
    pub fn apply_delta(&self, delta: &DirectoryDelta) -> bool {
        let mut inner = lock(&self.inner);
        let mut changed = false;
        for record in &delta.members {
            changed |= inner.apply_record(record);
        }
        // Fold in the sender's vector — and the stamps of the records
        // just applied, so coverage claims always include every write
        // this replica has incorporated.
        let stamps = delta.members.iter().map(|r| (r.origin, r.version));
        for (origin, version) in delta.vector.iter().copied().chain(stamps) {
            let seen = inner.vector.entry(origin).or_insert(0);
            if version > *seen {
                *seen = version;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        let sum = inner
            .vector
            .values()
            .fold(0u64, |a, &v| a.saturating_add(v));
        inner.epoch = inner.epoch.max(sum);
        let snap = inner.snapshot();
        drop(inner);
        self.publish(snap);
        true
    }

    /// The answer to a client or peer replica presenting `their` epoch
    /// vector: every record — live members and removal tombstones —
    /// whose stamp the vector does not cover, plus this replica's own
    /// vector.
    pub fn delta_by_vector(&self, their: &[(u64, u64)]) -> DirectoryDelta {
        let theirs: BTreeMap<u64, u64> = their.iter().copied().collect();
        let inner = lock(&self.inner);
        let uncovered =
            |origin: u64, version: u64| theirs.get(&origin).copied().unwrap_or(0) < version;
        let mut members: Vec<MemberRecord> = inner
            .members
            .iter()
            .filter(|m| uncovered(m.stamp.origin, m.stamp.version))
            .map(Member::to_record)
            .collect();
        members.extend(
            inner
                .tombstones
                .values()
                .filter(|t| uncovered(t.origin, t.version))
                .cloned(),
        );
        DirectoryDelta {
            epoch: inner.epoch,
            vector: inner.vector_list(),
            members,
        }
    }

    /// The member a draining server should hand an in-flight `session`
    /// to: the first `Up` member on the session's routing order that is
    /// not the drainer itself. `Some` only while member `self_id` is
    /// actually `Draining` — this doubles as the drain check, so the
    /// serving path asks one question per push.
    fn handoff_successor(&self, session: &str, self_id: u64) -> Option<Member> {
        let snap = self.snapshot();
        if snap.member(ServerId(self_id))?.state != MemberState::Draining {
            return None;
        }
        snap.route(session)
            .into_iter()
            .filter(|id| id.0 != self_id)
            .find_map(|id| {
                snap.member(id)
                    .filter(|m| m.state == MemberState::Up)
                    .cloned()
            })
    }
}

impl DirectoryView for Directory {
    fn epoch(&self) -> u64 {
        Directory::epoch(self)
    }

    fn gossip_delta(&self, vector: &[(u64, u64)]) -> DirectoryDelta {
        Directory::delta_by_vector(self, vector)
    }

    fn successor_for(&self, session: &str, self_id: u64) -> Option<MemberRecord> {
        Directory::handoff_successor(self, session, self_id).map(|m| m.to_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: usize) -> SocketAddr {
        format!("10.0.0.{}:7000", i + 1)
            .parse()
            .expect("valid addr")
    }

    fn dir(n: usize) -> Directory {
        let d = Directory::new();
        for i in 0..n {
            d.join_as(ServerId(i as u64), addr(i), &format!("local-{i}"), 1);
        }
        d
    }

    #[test]
    fn home_is_deterministic_and_sticky() {
        let d = dir(3);
        let snap = d.snapshot();
        for session in ["alice", "bob", "resnet-worker-17", ""] {
            assert_eq!(snap.home(session), snap.home(session));
            assert!(snap.member(snap.home(session).unwrap()).is_some());
        }
    }

    #[test]
    fn route_covers_every_server_once_starting_at_home() {
        let d = dir(5);
        let snap = d.snapshot();
        for session in ["a", "b", "c", "worker-9000"] {
            let route = snap.route(session);
            assert_eq!(route[0], snap.home(session).unwrap());
            let mut sorted = route.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..5).map(|i| ServerId(i as u64)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sessions_spread_across_servers() {
        let snap = dir(3).snapshot();
        let mut hits = [0usize; 3];
        for i in 0..300 {
            hits[snap.home(&format!("session-{i}")).unwrap().0 as usize] += 1;
        }
        // Consistent hashing with 64 vnodes/server is not perfectly even,
        // but nothing should be starved or dominant.
        for &h in &hits {
            assert!(h > 30, "server starved: {hits:?}");
        }
    }

    #[test]
    fn weighted_member_takes_a_proportional_arc() {
        let d = dir(2);
        let heavy = ServerId(2);
        assert!(d.join_as(heavy, addr(7), "heavy", 4));
        let snap = d.snapshot();
        let mut hits = [0usize; 3];
        for i in 0..1200 {
            hits[snap.home(&format!("w-session-{i}")).unwrap().0 as usize] += 1;
        }
        let heavy_share = hits[heavy.0 as usize] as f64 / 1200.0;
        // Weight 4 of total weight 6 ⇒ ideal 2/3; allow hashing slack.
        assert!(
            (0.5..0.85).contains(&heavy_share),
            "weight-4 member took {heavy_share:.2} of sessions: {hits:?}"
        );
        // And the base members are not starved.
        assert!(hits[0] > 60 && hits[1] > 60, "{hits:?}");
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_is_monotonic() {
        let d = dir(2);
        assert_eq!(d.epoch(), 2);
        let id = ServerId(2);
        assert!(d.join_as(id, addr(9), "late", 1));
        assert_eq!(d.epoch(), 3);
        assert!(d.drain(id));
        assert_eq!(d.epoch(), 4);
        assert!(d.mark_suspect(id));
        assert_eq!(d.epoch(), 5);
        assert!(d.mark_up(id));
        assert_eq!(d.epoch(), 6);
        assert!(d.leave(id));
        assert_eq!(d.epoch(), 7);
        // Absent members are no-ops with no epoch bump.
        assert!(!d.leave(id));
        assert!(!d.drain(ServerId(404)));
        assert_eq!(d.epoch(), 7);
        // The scalar epoch is the vector sum throughout.
        let sum: u64 = d.epoch_vector().iter().map(|&(_, v)| v).sum();
        assert_eq!(d.epoch(), sum);
    }

    #[test]
    fn draining_member_leaves_the_ring_but_not_the_membership() {
        let d = dir(3);
        let snap = d.snapshot();
        // Find a session homed on each server, then drain one server.
        let victim = snap.home("victim-session").unwrap();
        assert!(d.drain(victim));
        let drained = d.snapshot();
        assert_eq!(drained.len(), 3, "drained member stays a member");
        assert_ne!(drained.home("victim-session").unwrap(), victim);
        // And no session homes on it any more.
        for i in 0..200 {
            assert_ne!(drained.home(&format!("s{i}")).unwrap(), victim);
        }
        // Last-resort failover still reaches it at the end of the route.
        assert!(drained.route("victim-session").contains(&victim));
    }

    #[test]
    fn all_members_down_fall_back_to_degraded_routing() {
        let d = dir(2);
        let ids: Vec<ServerId> = d.snapshot().members().iter().map(|m| m.id).collect();
        for id in &ids {
            d.mark_suspect(*id);
        }
        let snap = d.snapshot();
        assert!(snap.home("anyone").is_some(), "degraded ring still routes");
    }

    #[test]
    fn reannounce_heals_a_suspect_and_is_otherwise_a_no_op() {
        let d = dir(2);
        let id = ServerId(0);
        d.mark_suspect(id);
        assert!(d.join_as(id, addr(0), "local-0", 1));
        assert_eq!(
            d.snapshot().member(id).unwrap().state,
            MemberState::Up,
            "re-announce heals the suspect mark"
        );
        // Re-announcing an already-Up member in the same shape changes
        // nothing and must not fence the fleet with a pointless epoch bump.
        let epoch = d.epoch();
        assert!(!d.join_as(id, addr(0), "local-0", 1));
        assert_eq!(d.epoch(), epoch);
    }

    #[test]
    fn transition_is_compare_and_set() {
        let d = dir(1);
        let id = d.snapshot().members()[0].id;
        // Wrong `from` is a no-op with no epoch bump.
        let epoch = d.epoch();
        assert!(!d.transition(id, MemberState::Suspect, MemberState::Up));
        assert_eq!(d.epoch(), epoch);
        // A drain is never overridden by the suspect-recovery CAS (the
        // health checker's stale-snapshot hazard).
        d.drain(id);
        assert!(!d.transition(id, MemberState::Suspect, MemberState::Up));
        assert_eq!(
            d.snapshot().member(id).unwrap().state,
            MemberState::Draining
        );
        d.mark_suspect(id);
        assert!(d.transition(id, MemberState::Suspect, MemberState::Up));
        assert_eq!(d.snapshot().member(id).unwrap().state, MemberState::Up);
    }

    #[test]
    fn empty_directory_routes_nothing() {
        let d = Directory::new();
        assert_eq!(d.epoch(), 0);
        assert!(d.snapshot().home("anyone").is_none());
        assert!(d.snapshot().route("anyone").is_empty());
    }

    #[test]
    fn replicas_converge_through_bidirectional_gossip() {
        // Two server replicas, each knowing only itself — the real
        // bootstrap shape of a replicated fleet.
        let a = Directory::new_replica(ServerId(0));
        let b = Directory::new_replica(ServerId(1));
        assert!(a.join_as(ServerId(0), addr(0), "a", 1));
        assert!(b.join_as(ServerId(1), addr(1), "b", 2));

        // One pull each way converges them.
        assert!(a.apply_delta(&b.delta_by_vector(&a.epoch_vector())));
        assert!(b.apply_delta(&a.delta_by_vector(&b.epoch_vector())));
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.epoch_vector(), b.epoch_vector());
        assert_eq!(a.snapshot().len(), 2);
        assert_eq!(b.snapshot().len(), 2);
        assert_eq!(a.snapshot().member(ServerId(1)).unwrap().weight, 2);

        // Converged replicas exchange empty deltas.
        assert!(a.delta_by_vector(&b.epoch_vector()).members.is_empty());
        assert!(!b.apply_delta(&a.delta_by_vector(&b.epoch_vector())));
    }

    #[test]
    fn concurrent_writes_resolve_deterministically_in_any_order() {
        // A partition: both replicas mutate the same member concurrently.
        let a = Directory::new_replica(ServerId(0));
        let b = Directory::new_replica(ServerId(1));
        a.join_as(ServerId(0), addr(0), "a", 1);
        a.join_as(ServerId(2), addr(2), "c", 1);
        b.apply_delta(&a.delta_by_vector(&b.epoch_vector()));
        b.join_as(ServerId(1), addr(1), "b", 1);
        a.apply_delta(&b.delta_by_vector(&a.epoch_vector()));

        // Partition: a drains member 2 while b marks it suspect.
        assert!(a.drain(ServerId(2)));
        assert!(b.mark_suspect(ServerId(2)));

        // Heal, exchanging deltas in both orders.
        let to_a = b.delta_by_vector(&a.epoch_vector());
        let to_b = a.delta_by_vector(&b.epoch_vector());
        a.apply_delta(&to_a);
        b.apply_delta(&to_b);
        a.apply_delta(&b.delta_by_vector(&a.epoch_vector()));
        b.apply_delta(&a.delta_by_vector(&b.epoch_vector()));
        let sa = a.snapshot().member(ServerId(2)).unwrap().state;
        let sb = b.snapshot().member(ServerId(2)).unwrap().state;
        assert_eq!(sa, sb, "replicas disagree after heal");
        // Equal versions tie-break to the lower origin: a's drain wins.
        assert_eq!(sa, MemberState::Draining);
        assert_eq!(a.epoch(), b.epoch());
    }

    #[test]
    fn removal_tombstone_beats_stale_live_record() {
        let a = Directory::new_replica(ServerId(0));
        a.join_as(ServerId(0), addr(0), "a", 1);
        a.join_as(ServerId(2), addr(2), "c", 1);
        // A stale replica that saw member 2 alive but not its removal.
        let stale = Directory::from_snapshot(&a.snapshot());
        assert!(a.leave(ServerId(2)));

        // The removal reaches the stale replica…
        assert!(stale.apply_delta(&a.delta_by_vector(&stale.epoch_vector())));
        assert!(stale.snapshot().member(ServerId(2)).is_none());
        // …and the stale live record can no longer resurrect it, in
        // either direction.
        let echo = stale.delta_by_vector(&[]);
        let before = a.epoch();
        a.apply_delta(&echo);
        assert!(a.snapshot().member(ServerId(2)).is_none());
        assert_eq!(a.epoch(), before, "stale echo must not advance the epoch");
    }

    #[test]
    fn evicted_replica_rejoins_with_a_winning_stamp() {
        let a = Directory::new_replica(ServerId(0));
        let b = Directory::new_replica(ServerId(1));
        a.join_as(ServerId(0), addr(0), "a", 1);
        b.join_as(ServerId(1), addr(1), "b", 1);
        a.apply_delta(&b.delta_by_vector(&a.epoch_vector()));
        b.apply_delta(&a.delta_by_vector(&b.epoch_vector()));

        // a evicts b during a partition. On heal, b pulls from a and
        // learns of its own eviction…
        assert!(a.leave(ServerId(1)));
        assert!(b.apply_delta(&a.delta_by_vector(&b.epoch_vector())));
        assert!(b.snapshot().member(ServerId(1)).is_none());
        // …then re-announces itself (the gossiper's own-id-absent rule)
        // with a stamp that out-versions the eviction, so one announce
        // wins the merge on both replicas.
        assert!(b.join_as(ServerId(1), addr(1), "b", 1), "self re-announce");
        assert!(a.apply_delta(&b.delta_by_vector(&a.epoch_vector())));
        b.apply_delta(&a.delta_by_vector(&b.epoch_vector()));
        let sa = a.snapshot().member(ServerId(1)).map(|m| m.state);
        let sb = b.snapshot().member(ServerId(1)).map(|m| m.state);
        assert_eq!(sa, Some(MemberState::Up), "re-announce beats eviction");
        assert_eq!(sa, sb);
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.epoch_vector(), b.epoch_vector());
    }

    #[test]
    fn lease_holder_is_lowest_live_id() {
        let d = dir(3);
        assert_eq!(d.lease_holder(), Some(ServerId(0)));
        d.mark_suspect(ServerId(0));
        assert_eq!(d.lease_holder(), Some(ServerId(1)), "lease expires");
        d.mark_up(ServerId(0));
        assert_eq!(d.lease_holder(), Some(ServerId(0)), "lease returns");
        d.mark_suspect(ServerId(0));
        d.mark_suspect(ServerId(1));
        d.mark_suspect(ServerId(2));
        assert_eq!(
            d.lease_holder(),
            Some(ServerId(0)),
            "all-down falls back to lowest id"
        );
        assert_eq!(Directory::new().lease_holder(), None);
    }

    #[test]
    fn handoff_successor_names_an_up_member_only_while_draining() {
        let d = dir(3);
        let snap = d.snapshot();
        let home = snap.home("handoff-session").unwrap();
        assert!(
            d.handoff_successor("handoff-session", home.0).is_none(),
            "not draining: no handoff"
        );
        d.drain(home);
        let succ = d
            .handoff_successor("handoff-session", home.0)
            .expect("draining member has a successor");
        assert_ne!(succ.id, home);
        assert_eq!(succ.state, MemberState::Up);
        assert_eq!(
            succ.id,
            d.snapshot().home("handoff-session").unwrap(),
            "successor is the session's new home"
        );
    }

    #[test]
    fn ring_successor_inherits_the_largest_arc_share() {
        let d = dir(4);
        let snap = d.snapshot();
        let victim = snap.home("succession").unwrap();
        let succ = snap.successor(victim).expect("successor exists");
        assert_ne!(succ, victim);
        // The successor inherits the victim's arcs: sessions homed on
        // the victim mostly move to it after the victim leaves.
        d.leave(victim);
        let after = d.snapshot();
        let mut moved: BTreeMap<ServerId, usize> = BTreeMap::new();
        for i in 0..600 {
            let s = format!("arc-{i}");
            if snap.home(&s) == Some(victim) {
                *moved.entry(after.home(&s).unwrap()).or_insert(0) += 1;
            }
        }
        let top = moved
            .iter()
            .max_by_key(|&(id, &c)| (c, std::cmp::Reverse(*id)))
            .map(|(&id, _)| id);
        assert_eq!(top, Some(succ), "successor did not inherit: {moved:?}");
    }

    #[test]
    fn single_member_has_no_successor() {
        let d = dir(1);
        assert!(d.snapshot().successor(ServerId(0)).is_none());
        assert!(Directory::new().snapshot().successor(ServerId(0)).is_none());
    }
}
