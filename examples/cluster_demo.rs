//! A dynamic 3-server COT fleet on loopback: consistent-hash routing,
//! per-server warm-up, transparent splitting, a streaming
//! subscription — and live membership churn (drain, kill, replace) that
//! clients ride out without an error.
//!
//! Run with `cargo run --example cluster_demo --release`. Each server is
//! an independent FERRET dealer whose own warm-up thread keeps its
//! pool topped up from the sessions' staged look-ahead.

use ironman_cluster::{
    ClusterClient, ClusterServerConfig, GossiperConfig, HealthConfig, LocalCluster, WarmupConfig,
};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use std::time::{Duration, Instant};

fn main() {
    let ferret = FerretConfig::recommended(FerretParams::toy());
    let mut cluster = LocalCluster::spawn_replicated(
        3,
        &ferret,
        &ClusterServerConfig {
            warmup: Some(WarmupConfig::default()),
            ..ClusterServerConfig::default()
        },
        GossiperConfig::default(),
    )
    .expect("spawn fleet");
    cluster.enable_health(HealthConfig::default());
    let converge = Duration::from_secs(30);
    cluster.wait_converged(converge);
    let directory = cluster.directory();
    let snapshot = directory.snapshot();
    println!("directory at epoch {}", snapshot.epoch());
    for member in snapshot.members() {
        println!(
            "  member {} ({}) at {}",
            member.id, member.name, member.addr
        );
    }

    let warm_target = ferret.usable_outputs();
    cluster.wait_warm(warm_target, Duration::from_secs(60));
    println!("fleet warm (every server >= {warm_target} buffered COTs)\n");

    // Sticky routing: each session hashes to a home server.
    for session in ["alice", "bob", "carol", "dave"] {
        println!(
            "session {session:>6} -> home server {}",
            snapshot.home(session).expect("non-empty fleet")
        );
    }

    // An oversized request splits transparently across the fleet — the
    // visitor form reuses one batch across every chunk.
    let mut client = ClusterClient::connect(directory.clone(), "alice").expect("connect");
    let max = client.max_request().expect("connected") as usize;
    let want = 2 * max + 500;
    let start = Instant::now();
    let mut total = 0usize;
    let chunks = client
        .request_cots_with(want, |batch| {
            batch.verify().expect("verified correlation");
            total += batch.len();
        })
        .expect("request");
    assert_eq!(total, want, "split request must deliver the exact total");
    println!(
        "\nsplit request: {want} COTs (> per-server max {max}) arrived as {chunks} verified \
         chunks through one reused batch in {:.2?}; per-server spread {:?}",
        start.elapsed(),
        client.served_per_server()
    );

    // A streaming subscription pushes chunks under credit backpressure.
    let start = Instant::now();
    let summary = client
        .stream_cots(50_000, 2000, |batch| batch.verify().expect("verified"))
        .expect("stream");
    let elapsed = start.elapsed();
    println!(
        "streamed {} COTs in {} chunks in {elapsed:.2?} ({:.0} COTs/s), accounting exact",
        summary.cots,
        summary.chunks,
        summary.cots as f64 / elapsed.as_secs_f64()
    );

    // Membership churn, live: drain one server (hitless — no new homes),
    // kill another (its peers' gossip pulls fail until the lease holder
    // evicts it), join a replacement. The client keeps serving through
    // every step.
    let ids = cluster.server_ids();
    cluster.drain_server(ids[0]);
    cluster.wait_converged(converge);
    println!("\ndrained {} -> epoch {}", ids[0], directory.epoch());
    cluster.kill_server(ids[1]);
    let evicted_by = Instant::now() + Duration::from_secs(10);
    while directory.snapshot().member(ids[1]).is_some() && Instant::now() < evicted_by {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "killed {} -> gossip evicted it at epoch {}",
        ids[1],
        directory.epoch()
    );
    let replacement = cluster.spawn_server().expect("replacement joins");
    cluster.wait_converged(converge);
    println!("joined {replacement} -> epoch {}", directory.epoch());
    let mut churn_total = 0usize;
    client
        .request_cots_with(1000, |b| churn_total += b.len())
        .expect("serve through churn");
    assert_eq!(churn_total, 1000);
    println!("served {churn_total} COTs straight through the churn, zero errors");

    // Warm-up steering, the epoch, and the v6 latency telemetry are
    // visible in the per-shard stats (quantiles are bucket ceilings,
    // within 6.25% of the true sample).
    let us = |nanos: u64| nanos as f64 / 1_000.0;
    println!();
    for (id, addr, stats) in client.stats_all() {
        let Some(stats) = stats else {
            println!("server {id} at {addr}: unreachable");
            continue;
        };
        let occupancy: Vec<u64> = stats.shard_stats.iter().map(|s| s.available).collect();
        let warm: Vec<u64> = stats.shard_stats.iter().map(|s| s.warm_refills).collect();
        println!(
            "server {id} at {addr}: epoch {}, served {} COTs, {} extensions, \
             shard occupancy {occupancy:?}, warm refills {warm:?}",
            stats.directory_epoch, stats.cots_served, stats.extensions_run
        );
        for (i, shard) in stats.shard_stats.iter().enumerate() {
            let req = &shard.latency.request_first_byte;
            let push = &shard.latency.chunk_push;
            println!(
                "  shard {i}: request->first-byte p50 {:.1}us / p99 {:.1}us ({} reqs), \
                 chunk push p50 {:.1}us / p99 {:.1}us ({} chunks)",
                us(req.p50()),
                us(req.p99()),
                req.count(),
                us(push.p50()),
                us(push.p99()),
                push.count()
            );
        }
        let svc = &stats.latency.request_first_byte;
        println!(
            "  service-wide request->first-byte p50 {:.1}us / p99 {:.1}us / p999 {:.1}us",
            us(svc.p50()),
            us(svc.p99()),
            us(svc.p999())
        );
    }

    let final_stats = cluster.shutdown();
    let served: u64 = final_stats.iter().map(|s| s.cots_served).sum();
    println!("\nfleet shut down; {served} COTs served in total");
}
