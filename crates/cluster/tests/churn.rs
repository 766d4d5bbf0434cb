//! Membership-churn smoke: a 3-server fleet under live one-shot +
//! streaming load survives one server being killed (the survivors'
//! gossipers strike it out and the lease holder evicts it) and a
//! replacement joining — **no client request returns an error**,
//! subscriptions resume with exact accounting, and `Stats` shows the
//! directory epoch advanced on every survivor. This is the acceptance
//! scenario of the dynamic-membership control plane, run by
//! `scripts/ci.sh`. Two narrower checks ride along: a late joiner
//! detects failures like a founder, and failure detection on an idle
//! fleet costs no connections beyond the gossip sessions.

mod common;

use common::converged_fleet;
use ironman_cluster::{
    ClusterClient, ClusterServerConfig, Directory, HealthConfig, LocalCluster, ServerId,
    WarmupConfig,
};
use ironman_net::CotServiceConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn fleet_survives_kill_and_rejoin_under_load() {
    let cfg = ClusterServerConfig {
        service: CotServiceConfig {
            shards: 2,
            seed: 0xC4A0,
            ..CotServiceConfig::default()
        },
        warmup: Some(WarmupConfig::default()),
    };
    let mut cluster = converged_fleet(3, &cfg);
    // A single failed pull only suspects (a blip recovers); a dead
    // server is evicted within ~3 gossip intervals.
    cluster.enable_health(HealthConfig {
        suspect_after: 1,
        evict_after: 3,
    });
    let converge = Duration::from_secs(30);
    let directory = cluster.directory();
    let epoch_before = directory.epoch();

    let stop = Arc::new(AtomicBool::new(false));
    // Two one-shot workers hammer the fleet for the whole churn window;
    // every request must succeed (failover + epoch resync are internal).
    let oneshot_workers: Vec<_> = (0..2)
        .map(|w| {
            let directory = Arc::clone(&directory);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = ClusterClient::connect(directory, &format!("churn-oneshot-{w}"))
                    .expect("connect");
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    client
                        .request_cots_with(400, |batch| {
                            batch.verify().expect("verified under churn");
                            served += batch.len() as u64;
                        })
                        .expect("one-shot under churn");
                }
                served
            })
        })
        .collect();
    // One streaming worker runs a long subscription across the kill.
    let streamer = {
        let directory = Arc::clone(&directory);
        std::thread::spawn(move || {
            let mut client = ClusterClient::connect(directory, "churn-streamer").expect("connect");
            let total = 120_000u64;
            let mut seen = 0u64;
            let summary = client
                .stream_cots(total, 800, |batch| {
                    batch.verify().expect("stream chunk verified");
                    seen += batch.len() as u64;
                    // Throttle so the subscription is guaranteed to still
                    // be in flight when the kill lands.
                    std::thread::sleep(Duration::from_millis(1));
                })
                .expect("stream survives churn");
            assert_eq!(summary.cots, total, "stream accounting mismatch");
            assert_eq!(seen, total, "consumer saw a different total");
            total
        })
    };

    // Let the load build, then kill one server *without* telling the
    // directory — the survivors' gossipers must notice and evict it.
    std::thread::sleep(Duration::from_millis(150));
    let victim = cluster.server_ids()[0];
    cluster.kill_server(victim);
    await_evicted(
        &directory,
        &[victim],
        "the gossipers never evicted the dead server",
    );
    // A replacement joins mid-load.
    let replacement = cluster.spawn_server().expect("replacement joins");
    assert!(cluster.wait_converged(converge), "the join never spread");

    stop.store(true, Ordering::SeqCst);
    let oneshot_total: u64 = oneshot_workers
        .into_iter()
        .map(|t| t.join().expect("one-shot worker"))
        .sum();
    let streamed = streamer.join().expect("streamer");
    assert!(oneshot_total > 0, "one-shot load never ran");
    assert_eq!(streamed, 120_000);

    // Let gossip settle (every member healthy means no further epoch
    // movement) before reading the fleet-wide epoch.
    assert!(cluster.wait_converged(converge), "fleet never settled");

    // Every survivor observed the advanced epoch (kill eviction + join,
    // at minimum two bumps past the baseline).
    let final_epoch = directory.epoch();
    assert!(
        final_epoch >= epoch_before + 2,
        "epoch must advance on eviction and join"
    );
    let mut observer =
        ClusterClient::connect(Arc::clone(&directory), "churn-observer").expect("connect");
    let mut survivors = 0;
    for (id, _, stats) in observer.stats_all() {
        let stats = stats.unwrap_or_else(|| panic!("survivor {id} unreachable"));
        assert_eq!(
            stats.directory_epoch, final_epoch,
            "survivor {id} reports a stale epoch"
        );
        survivors += 1;
    }
    assert_eq!(survivors, 3, "two originals plus the replacement");
    assert!(directory.snapshot().member(replacement).is_some());

    cluster.shutdown();
}

/// Polls `directory` until none of `ids` is a member, failing with `why`
/// after 20 s.
fn await_evicted(directory: &Directory, ids: &[ServerId], why: &str) {
    let evicted_by = Instant::now() + Duration::from_secs(20);
    while ids
        .iter()
        .any(|&id| directory.snapshot().member(id).is_some())
    {
        assert!(
            Instant::now() < evicted_by,
            "{why}: {:?}",
            directory.snapshot().members()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn toy_cfg(seed: u64) -> ClusterServerConfig {
    ClusterServerConfig {
        service: CotServiceConfig {
            shards: 1,
            seed,
            ..CotServiceConfig::default()
        },
        warmup: None,
    }
}

/// A server spawned after `enable_health` detects failures like the
/// founders do: once both founders die it is the lowest live id, so the
/// lease is its and it alone must evict them.
#[test]
fn late_joiner_detects_failures_and_evicts_the_dead_founders() {
    let mut cluster = converged_fleet(2, &toy_cfg(0x701));
    cluster.enable_health(HealthConfig::default());
    let joiner = cluster.spawn_server().expect("joiner spawns");
    let converge = Duration::from_secs(30);
    assert!(cluster.wait_converged(converge), "fleet never converged");
    let replica = cluster.replica(joiner).expect("joiner runs");
    assert_eq!(replica.snapshot().len(), 3, "the joiner knows the founders");

    let founders = [ServerId(0), ServerId(1)];
    for id in founders {
        cluster.kill_server(id);
    }
    await_evicted(
        &replica,
        &founders,
        "the joiner never evicted the dead founders",
    );
    assert_eq!(replica.snapshot().len(), 1);
    cluster.shutdown();
}

/// Failure detection rides on the cached gossip sessions, so an idle
/// fleet with health enabled accepts no new connections sweep after
/// sweep — a prober dialing each peer afresh costs every server two
/// accepts per sweep here.
#[test]
fn idle_fleet_with_health_dials_no_new_sessions() {
    let mut cluster = converged_fleet(3, &toy_cfg(0x1D1E));
    cluster.enable_health(HealthConfig::default());
    let accepted = |cluster: &LocalCluster| -> Vec<u64> {
        cluster
            .server_ids()
            .iter()
            .map(|&id| cluster.server(id).expect("live").stats().clients_served)
            .collect()
    };
    let before = accepted(&cluster);
    // At least 40 sweeps of the test fleets' 10 ms gossip cadence.
    std::thread::sleep(Duration::from_millis(500));
    let after = accepted(&cluster);
    for (b, a) in before.iter().zip(&after) {
        assert!(
            a - b <= 2,
            "sessions accepted per server grew {before:?} -> {after:?} over 40 sweeps"
        );
    }
    cluster.shutdown();
}
