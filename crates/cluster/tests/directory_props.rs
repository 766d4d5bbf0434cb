//! Property-based membership invariants (proptest): consistent-hash
//! reshuffle on `join_as`/`leave` is *minimal* (only sessions homed on the
//! changed server move), epochs are strictly monotone across arbitrary
//! mutation sequences, and one pull by epoch vector always converges a
//! follower to the leader's routing, however far behind it was.
//!
//! The replication block below exercises the v9 `apply_delta` conflict
//! edges: vector deltas commute (out-of-order delivery converges), are
//! idempotent (duplicate delivery is a no-op), a stale delta arriving
//! after a newer one cannot regress the replica, and two
//! independently-mutating replicas converge bidirectionally to one
//! membership and one epoch vector.

use ironman_cluster::{Directory, ServerId};
use proptest::prelude::*;
use std::net::SocketAddr;

fn addr(octet: u64) -> SocketAddr {
    format!("10.1.{}.{}:7000", octet / 256, octet % 256)
        .parse()
        .expect("valid addr")
}

fn fleet(n: usize, salt: u64) -> Directory {
    let dir = Directory::new();
    for i in 0..n as u64 {
        dir.join_as(ServerId(i), addr(salt * 40 + i + 1), &format!("m{i}"), 1);
    }
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Joining a server moves a session's home only if it moves *to the
    /// joined server*: nobody else's arc changed.
    #[test]
    fn join_reshuffle_is_minimal(
        n in 1usize..6,
        salt in 0u64..4,
        sessions in proptest::collection::vec(any::<u32>(), 1..60),
    ) {
        let dir = fleet(n, salt);
        let before = dir.snapshot();
        let joined = ServerId(n as u64);
        dir.join_as(joined, addr(salt * 40 + 39), "late", 1);
        let after = dir.snapshot();
        for s in &sessions {
            let session = format!("session-{s}");
            let old = before.home(&session).unwrap();
            let new = after.home(&session).unwrap();
            prop_assert!(
                new == old || new == joined,
                "session moved {old:?} -> {new:?}, but only moves to {joined:?} are allowed"
            );
        }
    }

    /// Removing a server moves only the sessions that were homed on it;
    /// every other session keeps its home.
    #[test]
    fn leave_reshuffle_is_minimal(
        n in 2usize..6,
        salt in 0u64..4,
        victim_seed in any::<u64>(),
        sessions in proptest::collection::vec(any::<u32>(), 1..60),
    ) {
        let dir = fleet(n, salt);
        let before = dir.snapshot();
        let members: Vec<ServerId> = before.members().iter().map(|m| m.id).collect();
        let victim = members[(victim_seed % members.len() as u64) as usize];
        prop_assert!(dir.leave(victim));
        let after = dir.snapshot();
        for s in &sessions {
            let session = format!("session-{s}");
            let old = before.home(&session).unwrap();
            let new = after.home(&session).unwrap();
            if old == victim {
                prop_assert!(new != victim, "session still homed on the removed server");
            } else {
                prop_assert_eq!(new, old, "session moved although its home stayed");
            }
        }
    }

    /// Epochs are strictly monotone over any mutation sequence, and every
    /// *effective* mutation bumps exactly once.
    #[test]
    fn epochs_are_strictly_monotone(
        ops in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let dir = fleet(2, 9);
        let mut last = dir.epoch();
        for op in &ops {
            let ids: Vec<ServerId> = dir.snapshot().members().iter().map(|m| m.id).collect();
            let joined = match op % 5 {
                0 => {
                    // Re-announcing a member that is already Up in the
                    // same shape is deliberately a no-op (no epoch bump);
                    // only a genuinely new/healing join must advance.
                    let id = ServerId(100 + op % 30);
                    let already_up = dir
                        .snapshot()
                        .member(id)
                        .is_some_and(|m| m.state == ironman_cluster::MemberState::Up);
                    dir.join_as(id, addr(200 + (op % 30)), "j", 1);
                    !already_up
                }
                1 if ids.len() > 1 => { dir.leave(ids[(op / 5) as usize % ids.len()]); false }
                2 if !ids.is_empty() => { dir.drain(ids[(op / 5) as usize % ids.len()]); false }
                3 if !ids.is_empty() => { dir.mark_suspect(ids[(op / 5) as usize % ids.len()]); false }
                4 if !ids.is_empty() => { dir.mark_up(ids[(op / 5) as usize % ids.len()]); false }
                _ => false,
            };
            let now = dir.epoch();
            prop_assert!(now >= last, "epoch went backwards: {last} -> {now}");
            if joined {
                prop_assert!(now > last, "a join must strictly advance the epoch");
            }
            last = now;
        }
    }

    /// After any mutation run — however long: no change log bounds how
    /// far back a delta reaches — a follower bootstrapped from an old
    /// snapshot lands on the leader's epoch and routing with one pull by
    /// epoch vector, the resync every fenced client performs.
    #[test]
    fn delta_sync_converges_routing(
        ops in proptest::collection::vec(any::<u64>(), 0..600),
        sessions in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let dir = fleet(3, 21);
        let follower = Directory::from_snapshot(&dir.snapshot());
        for op in &ops {
            let ids: Vec<ServerId> = dir.snapshot().members().iter().map(|m| m.id).collect();
            match op % 4 {
                0 => { dir.join_as(ServerId(600 + op % 20), addr(600 + (op % 20)), "j", 1); }
                1 if ids.len() > 1 => { dir.leave(ids[(op / 4) as usize % ids.len()]); }
                2 if !ids.is_empty() => { dir.drain(ids[(op / 4) as usize % ids.len()]); }
                3 if !ids.is_empty() => { dir.mark_up(ids[(op / 4) as usize % ids.len()]); }
                _ => {}
            }
        }
        let delta = dir.delta_by_vector(&follower.epoch_vector());
        follower.apply_delta(&delta);
        prop_assert_eq!(follower.epoch(), dir.epoch());
        let leader_snap = dir.snapshot();
        let follower_snap = follower.snapshot();
        prop_assert_eq!(leader_snap.len(), follower_snap.len());
        for s in &sessions {
            let session = format!("session-{s}");
            prop_assert_eq!(leader_snap.home(&session), follower_snap.home(&session));
        }
    }
}

// ---------------------------------------------------------------------
// v9 replication conflict edges.
// ---------------------------------------------------------------------

/// One scripted replica mutation. Joins go through `join_as` on a small
/// shared id range so two independently-mutating replicas race
/// conflicting writes *for the same id* — the interesting merge edge —
/// instead of allocator-fresh ids that can never collide.
fn replica_mutate(dir: &Directory, op: u64, lane: u64) {
    let ids: Vec<ServerId> = dir.snapshot().members().iter().map(|m| m.id).collect();
    let pick = |ids: &[ServerId]| ids[(op / 7) as usize % ids.len()];
    match op % 7 {
        0 | 5 => {
            dir.join_as(
                ServerId(50 + (op / 7) % 4),
                addr(700 + lane * 50 + op % 40),
                "r",
                1 + (op % 3) as u32,
            );
        }
        1 if ids.len() > 1 => {
            dir.leave(pick(&ids));
        }
        2 if !ids.is_empty() => {
            dir.drain(pick(&ids));
        }
        3 if !ids.is_empty() => {
            dir.mark_suspect(pick(&ids));
        }
        4 if !ids.is_empty() => {
            dir.mark_up(pick(&ids));
        }
        _ => {}
    }
}

/// A replica's observable state, comparison-friendly: sorted member
/// tuples plus the epoch vector. Two replicas with equal fingerprints
/// route identically (the ring is a pure function of the members).
fn fingerprint(dir: &Directory) -> (Vec<String>, Vec<(u64, u64)>) {
    let snap = dir.snapshot();
    let mut members: Vec<String> = snap
        .members()
        .iter()
        .map(|m| {
            format!(
                "{}|{}|{}|{:?}|{}",
                m.id.0, m.addr, m.name, m.state, m.weight
            )
        })
        .collect();
    members.sort();
    (members, dir.epoch_vector())
}

/// A fresh replica bootstrapped with one from-nothing pull of `base`.
fn seeded_replica(origin: u64, base: &Directory) -> Directory {
    let replica = Directory::new_replica(ServerId(origin));
    replica.apply_delta(&base.delta_by_vector(&[]));
    replica
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Out-of-order anti-entropy delivery converges. Deltas are fetched
    /// the way the protocol fetches them — each against the vector the
    /// follower holds at fetch time — but *applied* in an arbitrary
    /// later order (racing in-flight pulls, stale re-delivery) while
    /// the leader keeps mutating; one fresh pull at the end must land
    /// the follower exactly on the leader.
    #[test]
    fn out_of_order_racing_pulls_converge(
        ops in proptest::collection::vec(any::<u64>(), 1..40),
        schedule in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let base = fleet(3, 11);
        let leader = seeded_replica(90, &base);
        let follower = seeded_replica(91, &base);
        let mut pending: Vec<ironman_net::DirectoryDelta> = Vec::new();
        for (op, choice) in ops.iter().zip(schedule.iter().cycle()) {
            replica_mutate(&leader, *op, 0);
            match choice % 3 {
                0 => pending.push(leader.delta_by_vector(&follower.epoch_vector())),
                1 if !pending.is_empty() => {
                    let delta = pending.remove((choice / 3) as usize % pending.len());
                    follower.apply_delta(&delta);
                }
                _ => {}
            }
        }
        // Drain the in-flight deltas newest-first — the maximally
        // reordered delivery — then complete one clean pull.
        for delta in pending.drain(..).rev() {
            follower.apply_delta(&delta);
        }
        follower.apply_delta(&leader.delta_by_vector(&follower.epoch_vector()));
        prop_assert_eq!(fingerprint(&follower), fingerprint(&leader));
    }

    /// Duplicate delivery is a no-op: re-applying a delta the replica
    /// has already merged reports no change and perturbs nothing.
    #[test]
    fn duplicate_delta_is_idempotent(
        ops in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let base = fleet(3, 12);
        let leader = seeded_replica(90, &base);
        let follower = seeded_replica(91, &base);
        for op in &ops {
            replica_mutate(&leader, *op, 0);
        }
        let delta = leader.delta_by_vector(&follower.epoch_vector());
        follower.apply_delta(&delta);
        let once = fingerprint(&follower);
        prop_assert!(!follower.apply_delta(&delta), "duplicate delta claimed changes");
        prop_assert_eq!(fingerprint(&follower), once);
    }

    /// A stale delta arriving *after* the replica has merged a newer
    /// one cannot regress it: every stale record loses to a stamp (or
    /// tombstone) the newer delta already carried, or is rejected as
    /// covered-but-unknown.
    #[test]
    fn stale_delta_after_newer_delta_cannot_regress(
        early in proptest::collection::vec(any::<u64>(), 1..20),
        late in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let base = fleet(3, 13);
        let leader = seeded_replica(90, &base);
        let follower = Directory::new_replica(ServerId(91));
        for op in &early {
            replica_mutate(&leader, *op, 0);
        }
        // In flight while the follower instead bootstraps from a pull
        // answered after further churn (leaves included, so the stale
        // delta carries records the newer one has since tombstoned).
        let stale = leader.delta_by_vector(&follower.epoch_vector());
        for op in &late {
            replica_mutate(&leader, *op, 0);
        }
        follower.apply_delta(&leader.delta_by_vector(&follower.epoch_vector()));
        let synced = fingerprint(&follower);
        prop_assert!(!follower.apply_delta(&stale), "stale delta claimed changes");
        prop_assert_eq!(fingerprint(&follower), synced);
    }

    /// Two replicas mutating independently — including conflicting
    /// writes to the *same* member ids — converge to one membership and
    /// one epoch vector after bidirectional anti-entropy, regardless of
    /// what either side did.
    #[test]
    fn bidirectional_gossip_converges(
        ops_a in proptest::collection::vec(any::<u64>(), 0..30),
        ops_b in proptest::collection::vec(any::<u64>(), 0..30),
    ) {
        let base = fleet(3, 14);
        let a = seeded_replica(90, &base);
        let b = seeded_replica(91, &base);
        for op in &ops_a {
            replica_mutate(&a, *op, 0);
        }
        for op in &ops_b {
            replica_mutate(&b, *op, 1);
        }
        for _ in 0..2 {
            b.apply_delta(&a.delta_by_vector(&b.epoch_vector()));
            a.apply_delta(&b.delta_by_vector(&a.epoch_vector()));
        }
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
