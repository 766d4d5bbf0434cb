//! `top` for a COT fleet: a live per-server terminal view off the v7
//! observability plane — windowed supply/serve rates, stall ratios,
//! model-vs-measured headroom, SLO alert states, and the v8
//! fault-tolerance counters (injected faults, `Unavailable` declines,
//! evicted subscribers, client timeouts/retries), refreshed each second
//! while background load drives the fleet. A scripted mid-run outage —
//! the whole fleet starved into graceful degradation, one server's
//! links running with injected latency — and a heal play the supply
//! alert's whole lifecycle (pending → firing → resolved) out on screen:
//! supply is demand-driven, so only losing the *whole* fleet starves
//! it.
//!
//! Run with `cargo run --example fleet_top --release`. Iterations are
//! bounded, so it doubles as a CI-friendly smoke of the observer,
//! exporter, and headroom plumbing; the printed URL serves the same
//! state as Prometheus text (`/metrics`) and HTML (`/fleet`) while the
//! example runs.

use ironman_cluster::{
    AlertState, BurnWindows, ClusterClient, ClusterServerConfig, FleetExporterConfig,
    FleetObserverConfig, GossiperConfig, HeadroomModel, HealthConfig, LocalCluster, SloKind,
    SloSpec, WarmupConfig,
};
use ironman_net::{FaultPlan, OpTimeouts, RetryPolicy};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TICKS: usize = 14;

fn main() {
    let params = FerretParams::toy();
    let mut cluster = LocalCluster::spawn_replicated(
        3,
        &FerretConfig::new(params),
        &ClusterServerConfig {
            warmup: Some(WarmupConfig::default()),
            ..ClusterServerConfig::default()
        },
        GossiperConfig::default(),
    )
    .expect("spawn fleet");
    cluster.enable_health(HealthConfig {
        suspect_after: 1,
        evict_after: 4,
    });
    cluster.wait_converged(Duration::from_secs(30));
    cluster.enable_observer(FleetObserverConfig {
        interval: Duration::from_millis(50),
        slos: vec![SloSpec::new(
            "supply-floor",
            SloKind::SupplyRate {
                min_cots_per_sec: 1000.0,
            },
        )
        .with_windows(BurnWindows {
            fast: Duration::from_secs(1),
            slow: Duration::from_secs(3),
            clear_for: Duration::from_secs(1),
        })],
        ..FleetObserverConfig::default()
    });
    let exporter = cluster
        .enable_exporter(FleetExporterConfig {
            window: Duration::from_secs(1),
            model: Some(HeadroomModel::xeon(params)),
        })
        .expect("exporter binds");
    println!("scrape endpoint: http://{exporter}/metrics (human view: /fleet)\n");

    // Outage-tolerant background load so supply is demand-driven; v8
    // deadlines and seeded backoff so the outage shows up in the
    // client-side counters instead of a hang. Returns them at join.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let directory = cluster.directory();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = ClusterClient::connect(directory, "fleet-top-load").expect("connect");
            client.set_op_timeouts(OpTimeouts::uniform(Duration::from_millis(500)));
            client.set_retry_policy(RetryPolicy::new(
                Duration::from_millis(10),
                Duration::from_millis(250),
                0xF1EE,
            ));
            while !stop.load(Ordering::SeqCst) {
                if client.request_cots_with(256, |_| {}).is_err() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            (
                client.timeouts_seen(),
                client.retries_spent(),
                client.unavailable_seen(),
            )
        })
    };

    let handle = cluster.observer_handle().expect("observer enabled");
    let model = HeadroomModel::xeon(params);
    for tick in 0..TICKS {
        std::thread::sleep(Duration::from_secs(1));
        // Scripted chaos: a third of the way in the whole fleet starves
        // into graceful degradation (`Unavailable` declines, a long
        // retry hint) and one server's links run with injected latency;
        // heal after two-thirds — the alert lifecycle plays out live.
        if tick == TICKS / 3 {
            let ids = cluster.server_ids();
            for &id in &ids {
                cluster.starve_server(id, Duration::from_secs(600));
            }
            cluster.inject_faults(
                ids[0],
                FaultPlan {
                    read_latency: Duration::from_millis(2),
                    ..FaultPlan::default()
                },
            );
            println!("== fleet outage: all servers starved, one with laggy links ==");
        }
        if tick == 2 * TICKS / 3 {
            cluster.heal_all();
            println!("== healed: degradation lifted, faults disarmed ==");
        }

        let Some(snapshot) = handle.latest() else {
            println!("[{tick:>2}s] waiting for first scrape");
            continue;
        };
        let window = handle.window(Duration::from_secs(1));
        println!(
            "[{tick:>2}s] epoch {}  members {}  scraped {}  buffered {}",
            snapshot.epoch,
            handle.members().len(),
            snapshot.servers.len(),
            snapshot.available,
        );
        // Gossip lag (v9): each server answers Stats with its *own*
        // replica's epoch; the spread against the most advanced scraped
        // replica is how far anti-entropy still has to travel.
        let max_epoch = snapshot
            .servers
            .iter()
            .map(|o| o.stats.directory_epoch)
            .max()
            .unwrap_or(0);
        println!(
            "     server      up   supply/s    served/s   stall   util  headroom/s  faults  unavail  evict  epoch  lag"
        );
        for member in handle.members() {
            let obs = snapshot.server(member.id);
            let win = window
                .as_ref()
                .and_then(|w| w.servers.iter().find(|s| s.id == member.id));
            let (supply, served, stall) = win
                .map(|w| (w.supply_cots_per_sec, w.served_cots_per_sec, w.stall_ratio))
                .unwrap_or((0.0, 0.0, 0.0));
            let (util, headroom) = obs
                .map(|o| {
                    let h = model.server_headroom(o, supply);
                    (h.utilization, h.headroom_cots_per_sec)
                })
                .unwrap_or((0.0, 0.0));
            let (faults, unavailable, evicted) = obs
                .map(|o| {
                    (
                        o.stats.faults_injected,
                        o.stats.unavailable_sent,
                        o.stats.subscribers_evicted,
                    )
                })
                .unwrap_or((0, 0, 0));
            let (epoch, lag) = obs
                .map(|o| {
                    (
                        o.stats.directory_epoch.to_string(),
                        max_epoch
                            .saturating_sub(o.stats.directory_epoch)
                            .to_string(),
                    )
                })
                .unwrap_or_else(|| ("-".into(), "-".into()));
            println!(
                "     {:<10}  {:>2}  {:>9.0}  {:>10.0}  {:>6.3}  {:>5.3}  {:>10.0}  {:>6}  {:>7}  {:>5}  {:>5}  {:>3}",
                member.name,
                if obs.is_some() { "y" } else { "n" },
                supply,
                served,
                stall,
                util,
                headroom,
                faults,
                unavailable,
                evicted,
                epoch,
                lag,
            );
        }
        for alert in handle.alerts() {
            println!(
                "     alert {:<14} {:<9} fast {}  slow {}",
                alert.slo,
                alert.state.name(),
                alert.fast_value.map_or("-".into(), |v| format!("{v:.0}")),
                alert.slow_value.map_or("-".into(), |v| format!("{v:.0}")),
            );
        }
    }

    stop.store(true, Ordering::SeqCst);
    let (timeouts, retries, unavailable) = load.join().expect("load thread");
    let fired = handle
        .alerts()
        .iter()
        .any(|a| a.state != AlertState::Inactive);
    let (status, metrics) =
        ironman_net::http_get(exporter, "/metrics").expect("final exporter scrape");
    println!(
        "\nsupply alert {} the outage; load client saw {timeouts} timeouts, {retries} retries, \
         {unavailable} unavailable declines",
        if fired { "observed" } else { "slept through" },
    );
    println!(
        "final /metrics scrape: HTTP {status}, {} bytes, {} families",
        metrics.len(),
        metrics.lines().filter(|l| l.starts_with("# TYPE")).count(),
    );
    cluster.shutdown();
    println!("fleet down");
}
