//! Fleet telemetry end-to-end: a 3-server loopback fleet serving real
//! traffic, scraped into one [`FleetSnapshot`] whose merged latency
//! quantiles must bracket the per-server ones — the property that makes
//! the fleet-wide roll-up trustworthy for steering decisions.

mod common;

use common::converged_fleet;
use ironman_cluster::directory::ServerId;
use ironman_cluster::{
    observe, ClusterServerConfig, FleetObserverConfig, FleetSnapshot, LocalCluster,
    ServerObservation, WarmupConfig, WindowBaseline,
};
use ironman_net::{CotClient, CotServiceConfig, LatencyStats, ServiceStats};
use ironman_ot::CotBatch;
use ironman_telemetry::HistogramSnapshot;
use std::time::{Duration, Instant};

fn observed_cluster_cfg() -> ClusterServerConfig {
    ClusterServerConfig {
        service: CotServiceConfig {
            shards: 2,
            seed: 0x0B5u64,
            ..CotServiceConfig::default()
        },
        warmup: Some(WarmupConfig::default()),
    }
}

/// Drives a few one-shot requests through every member directly, so
/// every server has request→first-byte (and extension) samples to
/// contribute to the scrape.
fn exercise_every_server(cluster: &LocalCluster) {
    let snapshot = cluster.directory().snapshot();
    for member in snapshot.members() {
        let mut client = CotClient::connect(member.addr, "observe-driver").expect("connect member");
        let mut batch = CotBatch::default();
        for _ in 0..4 {
            client.request_cots_into(48, &mut batch).expect("serve");
            batch.verify().unwrap();
        }
    }
}

/// The merge-bounds property, per quantile: a merged quantile must lie
/// within `[min, max]` of the non-empty inputs' same quantile.
fn assert_merged_brackets(merged: &HistogramSnapshot, inputs: &[&HistogramSnapshot], what: &str) {
    let present: Vec<&&HistogramSnapshot> = inputs.iter().filter(|h| !h.is_empty()).collect();
    if present.is_empty() {
        assert!(
            merged.is_empty(),
            "{what}: merged samples from empty inputs"
        );
        return;
    }
    assert_eq!(
        merged.count(),
        present.iter().map(|h| h.count()).sum::<u64>(),
        "{what}: merged count must be the sum of the inputs'"
    );
    for q in [0.50, 0.90, 0.99, 0.999] {
        let qs: Vec<u64> = present.iter().map(|h| h.quantile(q)).collect();
        let (lo, hi) = (
            *qs.iter().min().expect("non-empty"),
            *qs.iter().max().expect("non-empty"),
        );
        let got = merged.quantile(q);
        assert!(
            (lo..=hi).contains(&got),
            "{what}: merged q{q} = {got} outside its inputs' span [{lo}, {hi}] ({qs:?})"
        );
    }
    assert_eq!(
        merged.max(),
        present.iter().map(|h| h.max()).max().expect("non-empty"),
        "{what}: merged max must be the largest input max"
    );
}

fn assert_latency_brackets(merged: &LatencyStats, per_server: &[&LatencyStats]) {
    let field = |f: fn(&LatencyStats) -> &HistogramSnapshot| -> Vec<&HistogramSnapshot> {
        per_server.iter().map(|l| f(l)).collect()
    };
    assert_merged_brackets(
        &merged.request_first_byte,
        &field(|l| &l.request_first_byte),
        "request_first_byte",
    );
    assert_merged_brackets(&merged.chunk_push, &field(|l| &l.chunk_push), "chunk_push");
    assert_merged_brackets(&merged.extension, &field(|l| &l.extension), "extension");
    assert_merged_brackets(&merged.stall, &field(|l| &l.stall), "stall");
}

#[test]
fn fleet_scrape_merges_and_merged_quantiles_bound_per_server_ones() {
    let cluster = converged_fleet(3, &observed_cluster_cfg());
    exercise_every_server(&cluster);

    let directory = cluster.directory();
    let fleet = observe::scrape(&directory, Duration::from_millis(500));
    assert_eq!(fleet.epoch, directory.epoch());
    assert_eq!(
        fleet.servers.len(),
        3,
        "all three live members must be scraped"
    );

    // Under the telemetry no-op build the histograms are (correctly)
    // empty; the scrape shape above still holds, and the bracket checks
    // below degrade to asserting emptiness everywhere.
    let per_server: Vec<&LatencyStats> = fleet.servers.iter().map(|s| &s.stats.latency).collect();
    let measuring = per_server.iter().any(|l| !l.request_first_byte.is_empty());
    if measuring {
        assert!(
            per_server.iter().all(|l| !l.request_first_byte.is_empty()),
            "every exercised server must have request latency samples"
        );
    }
    assert_latency_brackets(&fleet.latency, &per_server);

    // The scalar roll-ups agree with their inputs too.
    assert_eq!(
        fleet.available,
        fleet.servers.iter().map(|s| s.stats.available).sum::<u64>()
    );
    // The retained observation drops the per-shard rows.
    assert!(fleet.servers.iter().all(|s| s.stats.shard_stats.is_empty()));
    cluster.shutdown();
}

#[test]
fn background_observer_publishes_snapshots_on_cadence() {
    let mut cluster = converged_fleet(3, &observed_cluster_cfg());
    exercise_every_server(&cluster);
    cluster.enable_observer(FleetObserverConfig {
        interval: Duration::from_millis(5),
        ..FleetObserverConfig::default()
    });

    // The observer must publish a complete fleet view within a few
    // sweeps — and keep it fresh (epoch tracks the directory).
    let deadline = Instant::now() + Duration::from_secs(30);
    let fleet = loop {
        assert!(
            Instant::now() < deadline,
            "observer never published a 3-server snapshot"
        );
        if let Some(snap) = cluster.observer().expect("enabled").latest() {
            if snap.servers.len() == 3 {
                break snap;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(fleet.epoch, cluster.directory().epoch());
    let per_server: Vec<&LatencyStats> = fleet.servers.iter().map(|s| &s.stats.latency).collect();
    assert_latency_brackets(&fleet.latency, &per_server);

    // The cost of observing is itself observed: one scrape-latency
    // sample per completed sweep (empty only under the no-op build).
    let scrape = cluster.observer().expect("enabled").scrape_latency();
    let measuring = per_server.iter().any(|l| !l.request_first_byte.is_empty());
    if measuring {
        assert!(!scrape.is_empty(), "scrape latency must be recorded");
        assert!(scrape.p50() > 0);
    }

    // The v7 handle derives a windowed view from the retained series
    // (once a second sweep has landed).
    let handle = cluster.observer_handle().expect("enabled");
    while handle.series_len() < 2 {
        assert!(Instant::now() < deadline, "series never retained history");
        std::thread::sleep(Duration::from_millis(5));
    }
    let window = handle
        .window(Duration::from_secs(5))
        .expect("two scrapes retained");
    assert!(window.to_nanos > window.from_nanos);
    assert_eq!(window.servers.len(), 3);
    assert!(window.supply_cots_per_sec >= 0.0);
    cluster.shutdown();
}

const SEC: u64 = 1_000_000_000;

fn obs(id: u64, extensions: u64, served: u64, uptime: u64) -> ServerObservation {
    ServerObservation {
        id: ServerId(id),
        cots_per_extension: 10,
        stats: ServiceStats {
            cots_served: served,
            extensions_run: extensions,
            shards: 1,
            uptime_nanos: uptime,
            ..ServiceStats::default()
        },
    }
}

fn snapshot_at(at: u64, servers: Vec<ServerObservation>) -> FleetSnapshot {
    FleetSnapshot {
        at_nanos: at,
        epoch: 1,
        servers,
        ..FleetSnapshot::default()
    }
}

/// Membership churn inside a window: a server present in both snapshots
/// gets an exact delta, a fresh join degrades to a since-start average,
/// and a server gone from the later snapshot contributes no row —
/// never a synthesized zero, never a negative rate.
#[test]
fn windowed_delta_handles_absent_and_joined_members() {
    let earlier = snapshot_at(
        10 * SEC,
        vec![obs(1, 100, 1_000, 10 * SEC), obs(2, 40, 400, 10 * SEC)],
    );
    let later = snapshot_at(
        12 * SEC,
        vec![obs(2, 50, 500, 12 * SEC), obs(3, 6, 60, 3 * SEC)],
    );
    let window = later.delta(&earlier);
    assert_eq!(window.servers.len(), 2, "absent server 1 has no row");
    assert!(window.servers.iter().all(|s| s.id != ServerId(1)));

    let full = window
        .servers
        .iter()
        .find(|s| s.id == ServerId(2))
        .expect("server 2 windowed");
    assert_eq!(full.baseline, WindowBaseline::Full);
    assert_eq!(full.span_nanos, 2 * SEC);
    // Δ10 extensions × 10 COTs each over 2 s.
    assert!((full.supply_cots_per_sec - 50.0).abs() < 1e-9);
    assert!((full.served_cots_per_sec - 50.0).abs() < 1e-9);

    let joined = window
        .servers
        .iter()
        .find(|s| s.id == ServerId(3))
        .expect("server 3 windowed");
    assert_eq!(joined.baseline, WindowBaseline::Joined);
    assert_eq!(joined.span_nanos, 3 * SEC, "joined span = its uptime");
    // 6 extensions × 10 COTs over its 3 s of life.
    assert!((joined.supply_cots_per_sec - 20.0).abs() < 1e-9);

    assert!(
        (window.supply_cots_per_sec - (full.supply_cots_per_sec + joined.supply_cots_per_sec))
            .abs()
            < 1e-9,
        "fleet supply is the sum of the per-server rates"
    );
}

/// A restart (uptime goes down) must degrade to since-restart averages
/// instead of producing negative deltas from the reset counters.
#[test]
fn windowed_delta_detects_restart() {
    let earlier = snapshot_at(60 * SEC, vec![obs(7, 900, 9_000, 60 * SEC)]);
    // Counters went *down* and so did uptime: the server restarted
    // 4 s ago and has run 8 extensions since.
    let later = snapshot_at(62 * SEC, vec![obs(7, 8, 80, 4 * SEC)]);
    let window = later.delta(&earlier);
    let sw = &window.servers[0];
    assert_eq!(sw.baseline, WindowBaseline::Restarted);
    assert_eq!(sw.span_nanos, 4 * SEC);
    assert!((sw.supply_cots_per_sec - 20.0).abs() < 1e-9);
    assert!((sw.served_cots_per_sec - 20.0).abs() < 1e-9);
    assert!(sw.supply_cots_per_sec >= 0.0 && sw.served_cots_per_sec >= 0.0);
}

/// A zero-uptime joined server (scraped in its first instant) must not
/// divide by zero.
#[test]
fn windowed_delta_zero_span_is_zero_rate() {
    let earlier = snapshot_at(SEC, Vec::new());
    let later = snapshot_at(2 * SEC, vec![obs(9, 5, 50, 0)]);
    let window = later.delta(&earlier);
    let sw = &window.servers[0];
    assert_eq!(sw.baseline, WindowBaseline::Joined);
    assert_eq!(sw.supply_cots_per_sec, 0.0);
    assert_eq!(sw.served_cots_per_sec, 0.0);
    assert_eq!(sw.stall_ratio, 0.0);
}
