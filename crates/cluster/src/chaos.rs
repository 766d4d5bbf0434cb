//! Deterministic fleet-level chaos: a scripted schedule of faults,
//! degradation windows, and membership churn driven against a
//! [`LocalCluster`].
//!
//! A [`ChaosSchedule`] is a list of `(offset, action)` pairs built once
//! up front — stall server X's links at t₁, corrupt server Y's frames
//! at t₂, starve Z at t₃, heal everything at t₄ — then applied by
//! polling [`ChaosSchedule::step`] from the test's own loop (or
//! [`ChaosSchedule::run`] when the loop has nothing else to do). The
//! schedule owns *what happens when*; every random choice inside an
//! action (which byte stalls, which bit flips) comes from the fault
//! injector's seeded PRNG, so a failing soak replays with the same
//! seed and the same script.
//!
//! Actions degrade gracefully against a moving fleet: killing a server
//! that already died, or arming faults on one that was replaced, is
//! skipped (and reported), not a panic — chaos scripts outlive the
//! membership they were written against, that being rather the point.

use crate::directory::ServerId;
use crate::server::LocalCluster;
use ironman_net::FaultPlan;
use std::time::{Duration, Instant};

/// One scripted disturbance (or recovery) of the fleet.
#[derive(Clone, Debug)]
pub enum ChaosAction {
    /// Arm `FaultPlan` on one server's data-path sessions.
    Faults(ServerId, FaultPlan),
    /// Disarm fault injection on one server.
    HealFaults(ServerId),
    /// Put one server into graceful degradation (`Unavailable` declines
    /// with a retry hint) for the window.
    Starve(ServerId, Duration),
    /// Lift a degradation window early.
    Unstarve(ServerId),
    /// Kill one server without telling the directory (crash semantics).
    Kill(ServerId),
    /// Mark one server draining (no new homes; existing sessions keep
    /// serving).
    Drain(ServerId),
    /// Spawn a replacement server, which announces itself (an epoch bump
    /// once gossip spreads it).
    Spawn,
    /// Disarm faults and lift degradation on every running server.
    HealAll,
}

/// A scheduled action and the offset (from the first [`step`]) it fires
/// at.
///
/// [`step`]: ChaosSchedule::step
#[derive(Clone, Debug)]
pub struct ChaosEvent {
    /// Offset from schedule start.
    pub at: Duration,
    /// What happens then.
    pub action: ChaosAction,
}

/// How one stepped event landed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The action was applied to the fleet.
    Applied,
    /// The action's target was gone (already dead or replaced); the
    /// schedule moved on.
    SkippedDeadTarget,
    /// A `Spawn` failed to bind; the schedule moved on.
    SpawnFailed,
}

/// A deterministic, poll-driven chaos script over a [`LocalCluster`].
///
/// Build with [`ChaosSchedule::at`] (offsets may be given in any
/// order; they are kept sorted), then call [`ChaosSchedule::step`] from
/// the driving loop — the first call pins t₀. Each step applies every
/// event whose offset has passed, in offset order, exactly once.
#[derive(Debug, Default)]
pub struct ChaosSchedule {
    events: Vec<ChaosEvent>,
    next: usize,
    started: Option<Instant>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> ChaosSchedule {
        ChaosSchedule::default()
    }

    /// Adds `action` at `offset` from schedule start (builder-style).
    /// Events at equal offsets fire in insertion order.
    #[must_use]
    pub fn at(mut self, offset: Duration, action: ChaosAction) -> ChaosSchedule {
        assert!(self.started.is_none(), "schedule already started");
        self.events.push(ChaosEvent { at: offset, action });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Scheduled events, in firing order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Whether every event has fired.
    pub fn is_done(&self) -> bool {
        self.next == self.events.len()
    }

    /// Time since the first [`ChaosSchedule::step`] (zero before it).
    pub fn elapsed(&self) -> Duration {
        self.started.map_or(Duration::ZERO, |t0| t0.elapsed())
    }

    /// Applies every event whose offset has passed, in order, returning
    /// `(event index, outcome)` per event fired this step. The first
    /// call pins the schedule's t₀.
    pub fn step(&mut self, cluster: &mut LocalCluster) -> Vec<(usize, ChaosOutcome)> {
        let t0 = *self.started.get_or_insert_with(Instant::now);
        let elapsed = t0.elapsed();
        let mut fired = Vec::new();
        while self.next < self.events.len() && self.events[self.next].at <= elapsed {
            let idx = self.next;
            let action = self.events[idx].action.clone();
            self.next += 1;
            fired.push((idx, apply(cluster, &action)));
        }
        fired
    }

    /// Drives the schedule to completion, sleeping `poll` between
    /// steps; returns the outcomes of every event in order. For tests
    /// whose driving loop does its own work between disturbances,
    /// prefer polling [`ChaosSchedule::step`] directly.
    pub fn run(mut self, cluster: &mut LocalCluster, poll: Duration) -> Vec<(usize, ChaosOutcome)> {
        let mut all = Vec::with_capacity(self.events.len());
        while !self.is_done() {
            all.extend(self.step(cluster));
            if !self.is_done() {
                std::thread::sleep(poll.max(Duration::from_millis(1)));
            }
        }
        all
    }
}

/// Applies one action to the fleet, degrading dead targets to skips.
fn apply(cluster: &mut LocalCluster, action: &ChaosAction) -> ChaosOutcome {
    let hit = |ok: bool| {
        if ok {
            ChaosOutcome::Applied
        } else {
            ChaosOutcome::SkippedDeadTarget
        }
    };
    match action {
        ChaosAction::Faults(id, plan) => hit(cluster.inject_faults(*id, plan.clone())),
        ChaosAction::HealFaults(id) => hit(cluster.heal_faults(*id)),
        ChaosAction::Starve(id, window) => hit(cluster.starve_server(*id, *window)),
        ChaosAction::Unstarve(id) => hit(cluster.unstarve_server(*id)),
        ChaosAction::Kill(id) => {
            if cluster.server(*id).is_none() {
                return ChaosOutcome::SkippedDeadTarget;
            }
            cluster.kill_server(*id);
            ChaosOutcome::Applied
        }
        ChaosAction::Drain(id) => {
            if cluster.server(*id).is_none() {
                return ChaosOutcome::SkippedDeadTarget;
            }
            cluster.drain_server(*id);
            ChaosOutcome::Applied
        }
        ChaosAction::Spawn => match cluster.spawn_server() {
            Ok(_) => ChaosOutcome::Applied,
            Err(_) => ChaosOutcome::SpawnFailed,
        },
        ChaosAction::HealAll => {
            cluster.heal_all();
            ChaosOutcome::Applied
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::GossiperConfig;
    use crate::server::ClusterServerConfig;
    use ironman_ot::ferret::FerretConfig;
    use ironman_ot::params::FerretParams;

    fn toy_cluster(n: usize) -> LocalCluster {
        let ferret = FerretConfig::new(FerretParams::toy());
        let gossip = GossiperConfig {
            interval: Duration::from_millis(10),
            ..GossiperConfig::default()
        };
        LocalCluster::spawn_replicated(n, &ferret, &ClusterServerConfig::default(), gossip)
            .expect("spawn fleet")
    }

    #[test]
    fn schedule_fires_in_offset_order_and_skips_dead_targets() {
        let mut cluster = toy_cluster(2);
        let ids = cluster.server_ids();
        let (a, b) = (ids[0], ids[1]);
        // Built out of order on purpose: the schedule sorts by offset.
        let schedule = ChaosSchedule::new()
            .at(Duration::from_millis(20), ChaosAction::Kill(a))
            .at(
                Duration::ZERO,
                ChaosAction::Starve(a, Duration::from_secs(5)),
            )
            .at(Duration::from_millis(40), ChaosAction::HealFaults(a))
            .at(
                Duration::from_millis(10),
                ChaosAction::Faults(b, FaultPlan::default()),
            )
            .at(Duration::from_millis(50), ChaosAction::HealAll);
        assert_eq!(schedule.remaining(), 5);
        let outcomes = schedule.run(&mut cluster, Duration::from_millis(2));
        assert_eq!(
            outcomes,
            vec![
                (0, ChaosOutcome::Applied),           // starve a
                (1, ChaosOutcome::Applied),           // faults b
                (2, ChaosOutcome::Applied),           // kill a
                (3, ChaosOutcome::SkippedDeadTarget), // heal-faults a: dead
                (4, ChaosOutcome::Applied),           // heal-all survivors
            ]
        );
        assert_eq!(cluster.server_ids(), vec![b]);
        cluster.shutdown();
    }

    #[test]
    fn step_is_incremental_and_pins_start_on_first_call() {
        let mut cluster = toy_cluster(1);
        let id = cluster.server_ids()[0];
        let mut schedule = ChaosSchedule::new()
            .at(
                Duration::ZERO,
                ChaosAction::Starve(id, Duration::from_secs(9)),
            )
            .at(Duration::from_secs(3600), ChaosAction::Kill(id));
        let first = schedule.step(&mut cluster);
        assert_eq!(first, vec![(0, ChaosOutcome::Applied)]);
        assert!(!schedule.is_done());
        assert_eq!(schedule.remaining(), 1);
        // The far-future event does not fire on an immediate re-step.
        assert!(schedule.step(&mut cluster).is_empty());
        assert_eq!(cluster.server_ids(), vec![id]);
        cluster.shutdown();
    }

    #[test]
    fn spawn_action_grows_the_fleet() {
        let mut cluster = toy_cluster(1);
        let schedule = ChaosSchedule::new().at(Duration::ZERO, ChaosAction::Spawn);
        let outcomes = schedule.run(&mut cluster, Duration::from_millis(1));
        assert_eq!(outcomes, vec![(0, ChaosOutcome::Applied)]);
        assert_eq!(cluster.server_ids().len(), 2);
        cluster.shutdown();
    }
}
