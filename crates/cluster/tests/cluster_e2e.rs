//! Multi-server loopback end-to-end: a dynamic 3-server fleet with
//! warm-up, a routed client doing one-shot, split, and streaming
//! requests, failover when the home server dies — including **mid
//! subscription** — and the epoch fence (`WrongEpoch` → `Gossip` pull →
//! re-resolve) for clients whose membership view went stale.

mod common;

use common::converged_fleet;
use ironman_cluster::{ClusterClient, ClusterServerConfig, Directory, WarmupConfig};
use ironman_net::CotServiceConfig;
use ironman_ot::channel::ChannelError;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn warm_cluster_cfg() -> ClusterServerConfig {
    ClusterServerConfig {
        service: CotServiceConfig {
            shards: 2,
            seed: 0x0C1u64,
            ..CotServiceConfig::default()
        },
        warmup: Some(WarmupConfig::default()),
    }
}

#[test]
fn three_server_fleet_serves_routed_and_split_requests() {
    let cluster = converged_fleet(3, &warm_cluster_cfg());

    let mut client = ClusterClient::connect(cluster.directory(), "e2e-router").expect("connect");
    let max = client.max_request().expect("connected") as usize;
    let home = client.home().expect("non-empty fleet");

    // In-limit request: single batch, single (home) server.
    let chunks = client
        .request_cots_with(max / 2, |batch| {
            assert_eq!(batch.len(), max / 2);
            batch.verify().unwrap();
        })
        .unwrap();
    assert_eq!(chunks, 1);
    assert_eq!(client.served_for(home), (max / 2) as u64);

    // Oversized request: transparently split across servers, every chunk
    // within the per-server limit, total exact, every batch verified —
    // all through one reused batch (no owned batch per chunk).
    let want = 2 * max + 7;
    let served_before = client.served_total();
    let mut total = 0usize;
    let chunks = client
        .request_cots_with(want, |batch| {
            assert!(batch.len() <= max);
            batch.verify().unwrap();
            total += batch.len();
        })
        .unwrap();
    assert!(chunks >= 3, "expected >= 3 chunks, got {chunks}");
    assert_eq!(total, want);
    assert_eq!(client.served_total(), served_before + want as u64);
    // The spill actually spread beyond the home server.
    let spread = client
        .served_per_server()
        .iter()
        .filter(|&&(_, cots)| cots > 0)
        .count();
    assert!(spread >= 2, "spill never left the home server");

    // Per-shard observability: the stats request reports every shard and
    // the warm-up refills that filled them, plus the directory epoch
    // every member agrees on. The requests above may have drained every
    // staged extension before a sweep saw one, so the refills are polled
    // for until a sweep has been observed, under a bounded deadline.
    let epoch = cluster.directory().epoch();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut warm_refills = 0;
        for (_, _, stats) in client.stats_all() {
            let stats = stats.expect("all servers reachable");
            assert_eq!(stats.shards, 2);
            assert_eq!(stats.shard_stats.len(), 2);
            assert_eq!(
                stats.available,
                stats.shard_stats.iter().map(|s| s.available).sum::<u64>()
            );
            assert_eq!(stats.directory_epoch, epoch);
            warm_refills += stats.warmup_refills;
        }
        if warm_refills > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "warm-up never refilled any server"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    cluster.shutdown();
}

#[test]
fn streaming_subscription_over_the_fleet() {
    let cluster = converged_fleet(3, &warm_cluster_cfg());

    let mut client = ClusterClient::connect(cluster.directory(), "e2e-streamer").expect("connect");
    // A total that is deliberately not a multiple of the chunk size, so
    // the remainder path is exercised too.
    let total = 10 * 256 + 99;
    let mut seen = 0u64;
    let summary = client
        .stream_cots(total, 256, |batch| {
            batch.verify().unwrap();
            seen += batch.len() as u64;
        })
        .unwrap();
    assert_eq!(summary.cots, total);
    assert_eq!(seen, total);
    // Streamed load feeds the per-server counters spill routing reads.
    assert_eq!(client.served_total(), total);
    // 10 pushed chunks; the 99-COT remainder is served one-shot and does
    // not count as a pushed chunk.
    assert_eq!(summary.chunks, 10);

    // Regression: a zero-sized chunk is a typed rejection, not a
    // divide-by-zero panic.
    assert!(matches!(
        client.stream_cots(100, 0, |_| {}),
        Err(ChannelError::RequestTooLarge { .. })
    ));

    cluster.shutdown();
}

#[test]
fn failover_routes_around_a_dead_home_server() {
    // No warm-up: this test is about routing, not refill.
    let cfg = ClusterServerConfig {
        service: CotServiceConfig {
            shards: 1,
            seed: 0xDEAD,
            ..CotServiceConfig::default()
        },
        warmup: None,
    };
    let mut cluster = converged_fleet(3, &cfg);
    let directory = cluster.directory();
    let session = "failover-session";
    let home = directory.snapshot().home(session).expect("non-empty");

    // Crash the session's home server before the client ever connects —
    // the directory still lists it (nobody told it), so the client must
    // discover the corpse by failing to connect.
    cluster.kill_server(home);

    let mut client = ClusterClient::connect(directory, session).expect("connect");
    let chunks = client
        .request_cots_with(100, |batch| batch.verify().unwrap())
        .unwrap();
    assert_eq!(chunks, 1);
    // The correlations came from a fallback, not the dead home.
    assert_eq!(client.served_for(home), 0);
    assert_eq!(client.served_total(), 100);

    // Streaming also routes around the dead home.
    let summary = client
        .stream_cots(500, 100, |b| b.verify().unwrap())
        .unwrap();
    assert_eq!(summary.cots, 500);

    cluster.shutdown();
}

#[test]
fn killing_servers_keeps_ids_stable_and_survivor_serves() {
    let cfg = ClusterServerConfig::default();
    let mut cluster = converged_fleet(3, &cfg);
    let ids = cluster.server_ids();
    // Kill two of three by stable id; the ids of the remaining server do
    // not shift.
    cluster.kill_server(ids[0]);
    cluster.kill_server(ids[2]);
    assert_eq!(cluster.server_ids(), vec![ids[1]]);
    let mut client = ClusterClient::connect(cluster.directory(), "survivor").expect("connect");
    client
        .request_cots_with(64, |batch| batch.verify().unwrap())
        .unwrap();
    assert_eq!(client.served_for(ids[1]), 64);
    cluster.shutdown();
}

#[test]
fn fleet_wide_outage_surfaces_an_error() {
    let cfg = ClusterServerConfig::default();
    let cluster = converged_fleet(2, &cfg);
    let directory = cluster.directory();
    cluster.shutdown();

    // Every server is gone: connect must fail with a connectivity error,
    // not hang or panic.
    match ClusterClient::connect(directory, "doomed") {
        Err(ChannelError::Io(_) | ChannelError::Disconnected) => {}
        other => panic!("expected connectivity error, got {other:?}"),
    }
}

#[test]
fn two_clients_share_the_fleet() {
    let cluster = converged_fleet(3, &warm_cluster_cfg());
    cluster.wait_warm(1, Duration::from_secs(30));
    let directory = cluster.directory();

    let threads: Vec<_> = (0..2)
        .map(|id| {
            let directory = Arc::clone(&directory);
            std::thread::spawn(move || {
                let mut client =
                    ClusterClient::connect(directory, &format!("shared-{id}")).expect("connect");
                let mut got = 0u64;
                for _ in 0..4 {
                    client
                        .request_cots_with(700, |batch| {
                            batch.verify().expect("verified");
                            got += batch.len() as u64;
                        })
                        .expect("request");
                }
                got
            })
        })
        .collect();
    let total: u64 = threads.into_iter().map(|t| t.join().expect("client")).sum();
    assert_eq!(total, 2 * 4 * 700);

    let final_stats = cluster.shutdown();
    let cots_served: u64 = final_stats.iter().map(|s| s.cots_served).sum();
    assert_eq!(cots_served, total);
}

#[test]
fn stale_client_is_fenced_synced_and_rerouted() {
    // The fence, end to end: a client whose *private* directory falls
    // behind the fleet's is fenced with WrongEpoch, pulls the GossipDelta
    // its epoch vector is missing, applies it, re-resolves, and serves —
    // all inside one request_cots call.
    let mut cluster = converged_fleet(3, &warm_cluster_cfg());
    let shared = cluster.directory();

    // The client's view is a snapshot clone, NOT the observer view:
    // membership changes leave it stale until a server's delta lands.
    let follower = Arc::new(Directory::from_snapshot(&shared.snapshot()));
    let mut client = ClusterClient::connect(Arc::clone(&follower), "stale-view").expect("connect");
    let home = client.home().expect("non-empty");
    client
        .request_cots_with(64, |batch| batch.verify().unwrap())
        .unwrap();

    // Drain the client's home (epoch bump on the replicas and the
    // observer view only) and add a fresh server. The follower still routes to the drained
    // home; the server must fence and re-educate it.
    cluster.drain_server(home);
    cluster.spawn_server().expect("replacement joins");
    assert!(cluster.wait_converged(Duration::from_secs(30)));
    let fleet_epoch = shared.epoch();
    assert!(client.epoch() < fleet_epoch, "client view must be stale");

    let served_on_home = client.served_for(home);
    client
        .request_cots_with(64, |batch| batch.verify().unwrap())
        .unwrap();
    // The fence + delta brought the client current...
    assert_eq!(client.epoch(), fleet_epoch);
    // ...and the new work avoided the draining home.
    assert_eq!(client.served_for(home), served_on_home);

    cluster.shutdown();
}

#[test]
fn kill_mid_subscription_resumes_on_new_home_with_exact_accounting() {
    let mut cluster = converged_fleet(3, &warm_cluster_cfg());
    let directory = cluster.directory();

    let mut client =
        ClusterClient::connect(Arc::clone(&directory), "doomed-stream").expect("connect");
    let home = client.home().expect("non-empty");

    const BATCH: usize = 200;
    const TOTAL: u64 = 40 * BATCH as u64 + 57;
    let mut seen = 0u64;
    let mut chunks_seen = 0u64;
    let mut killed = false;
    let summary = client
        .stream_cots(TOTAL, BATCH, |batch| {
            batch.verify().unwrap();
            seen += batch.len() as u64;
            chunks_seen += 1;
            // Kill the serving home after a few chunks, mid-stream. The
            // eviction bumps the epoch; the stream must resume on the new
            // home for exactly the remainder.
            if !killed && seen >= 3 * BATCH as u64 {
                cluster.kill_server(home);
                cluster.control_directory().leave(home);
                killed = true;
            }
        })
        .expect("stream survives the kill");
    assert!(killed, "the kill never triggered");
    // Zero lost, zero duplicated: the consumer saw exactly the total.
    assert_eq!(seen, TOTAL);
    assert_eq!(summary.cots, TOTAL);
    assert_eq!(summary.chunks, chunks_seen.min(40));
    // The resumed portion really came from a different server.
    assert!(client.served_for(home) >= 3 * BATCH as u64);
    assert!(client.served_total() >= TOTAL);
    let others: u64 = client
        .served_per_server()
        .iter()
        .filter(|&&(id, _)| id != home)
        .map(|&(_, cots)| cots)
        .sum();
    assert!(others > 0, "resume never left the dead home");

    cluster.shutdown();
}
