//! Observability-plane end-to-end: a 3-server fleet under live load
//! with SLO burn-rate alerting and the scrape exporter. The supply-floor
//! alert must stay inactive while the fleet is healthy, fire when the
//! fleet is killed (crash semantics — nothing is left to answer a
//! scrape), and
//! resolve after replacements heal it; the exporter's `/metrics` output
//! must parse as Prometheus text exposition with the required families,
//! including per-server model-vs-measured headroom gauges. Run by
//! `scripts/ci.sh`.

mod common;

use common::converged_fleet;
use ironman_cluster::{
    AlertState, BurnWindows, ClusterClient, ClusterServerConfig, FleetExporterConfig,
    FleetObserverConfig, HeadroomModel, HealthConfig, LocalCluster, SloKind, SloSpec, WarmupConfig,
};
use ironman_net::{http_get, CotServiceConfig};
use ironman_ot::params::FerretParams;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed Prometheus text sample: family name, rendered label set,
/// value.
struct Sample {
    family: String,
    labels: String,
    value: f64,
}

/// Parses (and validates) Prometheus text exposition: every sample line
/// must have the `name{labels} value` shape, a preceding `# TYPE`, and
/// a finite value. Panics with the offending line on any violation.
fn parse_prometheus(body: &str) -> Vec<Sample> {
    let mut typed: HashSet<String> = HashSet::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.split_whitespace();
            let keyword = words.next().unwrap_or("");
            let family = words.next().unwrap_or("");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword: {line}"
            );
            if keyword == "TYPE" {
                let kind = words.next().unwrap_or("");
                assert!(
                    kind == "gauge" || kind == "counter",
                    "unknown metric type in: {line}"
                );
                typed.insert(family.to_string());
            }
            continue;
        }
        let (name_part, value_part) = match line.find('}') {
            Some(close) => (&line[..=close], line[close + 1..].trim()),
            None => {
                let mut it = line.splitn(2, ' ');
                (it.next().unwrap(), it.next().unwrap_or("").trim())
            }
        };
        let (family, labels) = match name_part.find('{') {
            Some(open) => {
                assert!(name_part.ends_with('}'), "unterminated labels: {line}");
                (
                    &name_part[..open],
                    name_part[open + 1..name_part.len() - 1].to_string(),
                )
            }
            None => (name_part, String::new()),
        };
        assert!(
            !family.is_empty()
                && family
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "bad family name in: {line}"
        );
        assert!(
            typed.contains(family),
            "sample without a preceding # TYPE: {line}"
        );
        let value: f64 = value_part
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
        assert!(value.is_finite(), "non-finite value exported: {line}");
        samples.push(Sample {
            family: family.to_string(),
            labels,
            value,
        });
    }
    samples
}

fn by_family(samples: &[Sample]) -> HashMap<&str, Vec<&Sample>> {
    let mut map: HashMap<&str, Vec<&Sample>> = HashMap::new();
    for s in samples {
        map.entry(s.family.as_str()).or_default().push(s);
    }
    map
}

fn scrape_metrics(addr: SocketAddr) -> Vec<Sample> {
    let (status, body) = http_get(addr, "/metrics").expect("exporter reachable");
    assert_eq!(status, 200, "metrics endpoint errored");
    parse_prometheus(&body)
}

fn supply_alert(cluster: &LocalCluster) -> Option<(AlertState, Option<f64>)> {
    cluster
        .observer_handle()
        .expect("observer enabled")
        .alerts()
        .into_iter()
        .find(|a| a.slo == "supply-floor")
        .map(|a| (a.state, a.fast_value))
}

fn await_state(
    cluster: &LocalCluster,
    want: AlertState,
    deadline: Duration,
    why: &str,
) -> AlertState {
    let by = Instant::now() + deadline;
    loop {
        if let Some((state, _)) = supply_alert(cluster) {
            if state == want {
                return state;
            }
            assert!(
                Instant::now() < by,
                "{why}: stuck in {state:?}, want {want:?}"
            );
        } else {
            assert!(Instant::now() < by, "{why}: alert never evaluated");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn supply_slo_fires_on_fleet_kill_and_resolves_on_heal() {
    let cfg = ClusterServerConfig {
        service: CotServiceConfig {
            shards: 2,
            seed: 0x510u64,
            ..CotServiceConfig::default()
        },
        warmup: Some(WarmupConfig::default()),
    };
    let mut cluster = converged_fleet(3, &cfg);
    // The strike budget must ride out CPU-starvation bursts on a loaded
    // one-core CI box: with `evict_after: 3` a healthy member that missed
    // three 10 ms pulls during an extension burst was evicted and the
    // "all three up" scrape below raced its re-announcement.
    cluster.enable_health(HealthConfig {
        suspect_after: 2,
        evict_after: 8,
    });
    // Tight burn windows so the whole lifecycle fits a test: a healthy
    // fleet under load supplies far above 1000 COTs/s; a dead fleet
    // supplies exactly zero.
    cluster.enable_observer(FleetObserverConfig {
        interval: Duration::from_millis(20),
        slos: vec![
            SloSpec::new(
                "supply-floor",
                SloKind::SupplyRate {
                    min_cots_per_sec: 1000.0,
                },
            )
            .with_windows(BurnWindows {
                fast: Duration::from_secs(1),
                slow: Duration::from_secs(3),
                clear_for: Duration::from_secs(1),
            }),
            // A latency objective no toy fleet can violate: exercises
            // multi-SLO evaluation and export alongside the burn.
            SloSpec::new(
                "push-p99",
                SloKind::ChunkPushP99 {
                    max_nanos: u64::MAX / 2,
                },
            ),
        ],
        ..FleetObserverConfig::default()
    });
    let exporter_addr = cluster
        .enable_exporter(FleetExporterConfig {
            window: Duration::from_secs(1),
            model: Some(HeadroomModel::xeon(FerretParams::toy())),
        })
        .expect("exporter binds");

    // Outage-tolerant load: keeps the pools draining (so warm-up keeps
    // extending — supply is demand-driven) and survives the full-fleet
    // kill with plain retries.
    let stop = Arc::new(AtomicBool::new(false));
    let directory = cluster.directory();
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let directory = Arc::clone(&directory);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client =
                    ClusterClient::connect(directory, &format!("slo-load-{w}")).expect("connect");
                while !stop.load(Ordering::SeqCst) {
                    if client.request_cots_with(300, |_| {}).is_err() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            })
        })
        .collect();

    // Phase 1 — healthy: the alert must evaluate with real supply signal
    // and stay quiet.
    let healthy_by = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some((state, Some(fast))) = supply_alert(&cluster) {
            if state == AlertState::Inactive && fast > 1000.0 {
                break;
            }
        }
        assert!(
            Instant::now() < healthy_by,
            "healthy fleet never measured supply above the floor: {:?}",
            supply_alert(&cluster)
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The healthy exporter output: required families present, three
    // servers up, per-server headroom gauges populated and consistent.
    // A member can be transiently suspect under full-bore load (a missed
    // probe), so poll for a scrape that saw the whole fleet.
    let samples = {
        let by = Instant::now() + Duration::from_secs(30);
        loop {
            let samples = scrape_metrics(exporter_addr);
            let ups: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.family == "ironman_server_up")
                .collect();
            if ups.len() == 3 && ups.iter().all(|s| s.value == 1.0) {
                break samples;
            }
            assert!(
                Instant::now() < by,
                "exporter never saw all three members up"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let fam = by_family(&samples);
    for required in [
        "ironman_scrape_epoch",
        "ironman_fleet_available_cots",
        "ironman_fleet_supply_cots_per_second",
        "ironman_fleet_served_cots_per_second",
        "ironman_server_up",
        "ironman_server_uptime_seconds",
        "ironman_server_cots_served_total",
        "ironman_server_extensions_total",
        "ironman_server_supply_cots_per_second",
        "ironman_server_predicted_supply_cots_per_second",
        "ironman_server_supply_utilization",
        "ironman_server_headroom_cots_per_second",
        "ironman_server_model_drift_cots_per_second",
        "ironman_slo_state",
        "ironman_slo_burning",
        "ironman_observer_scrape_p99_nanoseconds",
    ] {
        assert!(
            fam.get(required).is_some_and(|v| !v.is_empty()),
            "missing required metric family {required}"
        );
    }
    let ups = &fam["ironman_server_up"];
    assert_eq!(ups.len(), 3, "three members exported");
    assert!(ups.iter().all(|s| s.value == 1.0), "all members up");
    let headroom = &fam["ironman_server_headroom_cots_per_second"];
    assert_eq!(headroom.len(), 3, "headroom gauge per server");
    for h in &fam["ironman_server_predicted_supply_cots_per_second"] {
        assert!(
            h.value > 0.0,
            "model predicts a positive ceiling: {}",
            h.labels
        );
    }
    for u in &fam["ironman_server_supply_utilization"] {
        assert!(u.value >= 0.0, "utilization cannot be negative");
    }
    assert!(
        fam["ironman_slo_state"]
            .iter()
            .any(|s| s.labels.contains("supply-floor") && s.value == 0.0),
        "healthy supply alert exports as inactive"
    );

    // The human page renders too.
    let (status, page) = http_get(exporter_addr, "/fleet").expect("fleet page");
    assert_eq!(status, 200);
    assert!(
        page.contains("ironman fleet") && page.contains("supply"),
        "{page}"
    );
    let (status, _) = http_get(exporter_addr, "/nope").expect("reachable");
    assert_eq!(status, 404);

    // Phase 2 — kill the whole fleet (crash semantics; every gossiper
    // dies with its server). Fleet supply collapses to zero, so the fast
    // window burns, the slow window agrees, and the alert fires.
    for id in cluster.server_ids() {
        cluster.kill_server(id);
    }
    await_state(
        &cluster,
        AlertState::Firing,
        Duration::from_secs(30),
        "fleet kill",
    );

    // While firing, the exporter must say so.
    let samples = scrape_metrics(exporter_addr);
    let fam = by_family(&samples);
    assert!(
        fam["ironman_slo_state"]
            .iter()
            .any(|s| s.labels.contains("supply-floor") && s.value == 2.0),
        "firing alert exports state 2"
    );
    assert!(
        fam["ironman_slo_burning"]
            .iter()
            .any(|s| s.labels.contains("supply-floor")
                && s.labels.contains("fast")
                && s.value == 1.0),
        "fast window exports as burning"
    );

    // Phase 3 — heal: replacements join, warm-up refills from empty and
    // load resumes, so supply recovers and the alert resolves after the
    // hysteresis interval.
    for _ in 0..3 {
        cluster.spawn_server().expect("replacement joins");
    }
    await_state(
        &cluster,
        AlertState::Resolved,
        Duration::from_secs(60),
        "fleet heal",
    );

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("load worker");
    }
    let samples = scrape_metrics(exporter_addr);
    let fam = by_family(&samples);
    assert!(
        fam["ironman_slo_state"]
            .iter()
            .any(|s| s.labels.contains("supply-floor") && s.value == 3.0),
        "resolved alert exports state 3 (fired-and-recovered stays visible)"
    );
    cluster.shutdown();
}
