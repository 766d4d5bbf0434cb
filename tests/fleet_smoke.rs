//! The fleet from the root package's point of view: the one membership
//! protocol (epoch fence, then a pull by epoch vector) exercised end to
//! end at toy parameters, so `cargo test` at the repository root fails
//! when routing, fencing or resync breaks — not only the cluster crate's
//! own suite.

use ironman_cluster::{
    ClusterClient, ClusterServerConfig, Directory, GossiperConfig, LocalCluster, WarmupConfig,
};
use ironman_net::CotServiceConfig;
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One routed request, every delivered batch checked (`z = y ⊕ x·Δ`).
fn serve_verified(client: &mut ClusterClient, when: &str) {
    client
        .request_cots_with(64, |batch| batch.verify().expect("correlated"))
        .expect(when);
}

#[test]
fn follower_client_rides_out_membership_churn() {
    let ferret = FerretConfig::new(FerretParams::toy());
    let cfg = ClusterServerConfig {
        service: CotServiceConfig {
            shards: 2,
            seed: 0xF1EE7,
            ..CotServiceConfig::default()
        },
        warmup: Some(WarmupConfig::default()),
    };
    let gossip = GossiperConfig {
        interval: Duration::from_millis(10),
        ..GossiperConfig::default()
    };
    let mut cluster =
        LocalCluster::spawn_replicated(3, &ferret, &cfg, gossip).expect("spawn fleet");
    let converge = Duration::from_secs(30);
    assert!(cluster.wait_converged(converge), "fleet never converged");
    let fleet = cluster.directory();

    // The client's membership view is its own directory, cloned from a
    // snapshot: nothing but a server's GossipDelta can move it.
    let follower = Arc::new(Directory::from_snapshot(&fleet.snapshot()));
    let mut client = ClusterClient::connect(follower, "fleet-smoke").expect("connect");
    let home = client.home().expect("non-empty fleet");
    serve_verified(&mut client, "first request");

    // Leader-side churn: the client's home dies and leaves, a replacement
    // joins, and gossip carries both to every replica.
    cluster.kill_server(home);
    assert!(cluster.control_directory().leave(home));
    cluster.spawn_server().expect("replacement joins");
    assert!(cluster.wait_converged(converge), "churn never converged");
    assert!(client.epoch() < fleet.epoch(), "client view must be stale");
    let served_on_home = client.served_for(home);

    // Every server now fences the stale session; the client must pull
    // what its epoch vector is missing and keep serving throughout.
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.epoch() != fleet.epoch() {
        assert!(
            Instant::now() < deadline,
            "client stuck at epoch {} (fleet at {})",
            client.epoch(),
            fleet.epoch()
        );
        serve_verified(&mut client, "serving continues through the churn");
    }
    serve_verified(&mut client, "serving after the resync");
    assert_eq!(client.epoch(), fleet.epoch());
    assert_ne!(
        client.home(),
        Some(home),
        "routing still names the member that left"
    );
    assert_eq!(
        client.served_for(home),
        served_on_home,
        "work went to a member that left"
    );

    cluster.shutdown();
}
