//! The fleet scrape exporter: Prometheus text exposition and a
//! human-readable fleet page over the `ironman-net` HTTP/1.0 server.
//!
//! `GET /metrics` renders the observer's latest snapshot, its windowed
//! derivation, the SLO alert states, and (when a [`HeadroomModel`] is
//! configured) per-server model-vs-measured headroom — everything an
//! external scraper needs, computed from already-retained state (the
//! handler never touches a fleet member). `GET /fleet` renders the same
//! state as a page for humans; `GET /` lists the routes.
//!
//! Family naming follows Prometheus conventions: the `ironman_` prefix,
//! `_total` suffixes on cumulative counters, base units in the name
//! (`_nanoseconds`, `_seconds`, `_cots_per_second`), labels for
//! per-server (`server="<id>"`) and per-window (`window="fast"`)
//! breakdowns.

use crate::directory::{Member, ServerId};
use crate::headroom::{HeadroomModel, ServerHeadroom};
use crate::observe::{FleetHandle, FleetSnapshot, FleetWindow, ServerWindow};
use crate::slo::AlertView;
use ironman_net::http::{HttpResponse, HttpServer};
use ironman_net::ServiceStats;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

/// Configuration of a [`FleetExporter`].
#[derive(Clone, Copy, Debug)]
pub struct FleetExporterConfig {
    /// The window rendered for rate/quantile gauges (labeled
    /// `window="fast"`). Defaults to 5 s — the SLO fast window.
    pub window: Duration,
    /// Model-vs-measured headroom gauges, when a machine model is
    /// configured.
    pub model: Option<HeadroomModel>,
}

impl Default for FleetExporterConfig {
    fn default() -> Self {
        FleetExporterConfig {
            window: Duration::from_secs(5),
            model: None,
        }
    }
}

/// A running scrape endpoint over a [`FleetHandle`].
///
/// Stops (and joins the accept thread) on [`FleetExporter::stop`] or
/// drop.
#[derive(Debug)]
pub struct FleetExporter {
    http: HttpServer,
}

impl FleetExporter {
    /// Binds `addr` and serves `/metrics`, `/fleet`, and `/` from
    /// `handle`'s retained state.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        handle: FleetHandle,
        cfg: FleetExporterConfig,
    ) -> io::Result<FleetExporter> {
        let http = HttpServer::serve(addr, move |req| {
            let path = req.path.split('?').next().unwrap_or("");
            match path {
                "/metrics" => HttpResponse::text(render_prometheus(&handle, &cfg)),
                "/fleet" => HttpResponse::html(render_fleet_page(&handle, &cfg)),
                "/" => HttpResponse::text("routes: /metrics (Prometheus), /fleet (human)\n"),
                _ => HttpResponse::not_found(),
            }
        })?;
        Ok(FleetExporter { http })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Stops the endpoint and joins its thread.
    pub fn stop(self) {
        self.http.stop();
    }
}

/// A finite f64 for exposition (Prometheus text has no place for NaN
/// here; broken ratios render as 0).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A sample's labels, in rendering order.
type Labels = Vec<(&'static str, String)>;

fn server(id: ServerId) -> Labels {
    vec![("server", id.0.to_string())]
}

struct MetricsWriter {
    out: String,
}

impl MetricsWriter {
    /// One whole family: its `# HELP`/`# TYPE` header, then every sample,
    /// so no other family's lines fall between them.
    fn family(
        &mut self,
        name: &str,
        kind: &str,
        help: &str,
        samples: impl IntoIterator<Item = (Labels, f64)>,
    ) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        for (labels, value) in samples {
            if labels.is_empty() {
                let _ = writeln!(self.out, "{name} {}", finite(value));
                continue;
            }
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
                .collect();
            let _ = writeln!(
                self.out,
                "{name}{{{}}} {}",
                rendered.join(","),
                finite(value)
            );
        }
    }
}

/// Renders the full Prometheus text exposition of `handle`'s state.
fn render_prometheus(handle: &FleetHandle, cfg: &FleetExporterConfig) -> String {
    render_metrics(
        handle.latest().as_deref(),
        handle.window(cfg.window).as_ref(),
        &handle.members(),
        &handle.alerts(),
        handle.scrape_latency().p99(),
        cfg,
    )
}

/// The exposition of one observer state: the latest snapshot, its
/// window, the directory's members, the alert states and the scrape
/// p99.
fn render_metrics(
    snapshot: Option<&FleetSnapshot>,
    window: Option<&FleetWindow>,
    members: &[Member],
    alerts: &[AlertView],
    scrape_p99: u64,
    cfg: &FleetExporterConfig,
) -> String {
    let mut w = MetricsWriter {
        out: String::with_capacity(4096),
    };
    let window_label = format!("{}s", cfg.window.as_secs_f64());
    let fleet =
        |value: fn(&FleetSnapshot) -> u64| [(vec![], snapshot.map_or(0.0, |s| value(s) as f64))];
    w.family(
        "ironman_scrape_epoch",
        "gauge",
        "Directory epoch of the latest fleet scrape.",
        fleet(|s| s.epoch),
    );
    w.family(
        "ironman_fleet_available_cots",
        "gauge",
        "Correlations buffered across the scraped fleet.",
        fleet(|s| s.available),
    );
    w.family(
        "ironman_fleet_pending_stream_cots",
        "gauge",
        "Promised-but-unpushed streamed demand across the fleet.",
        fleet(|s| s.pending_stream_cots),
    );

    let fleet_window = |value: fn(&FleetWindow) -> f64| {
        window.map(|win| (vec![("window", window_label.clone())], value(win)))
    };
    w.family(
        "ironman_fleet_supply_cots_per_second",
        "gauge",
        "Windowed fleet COT supply rate (extensions x outputs per extension).",
        fleet_window(|win| win.supply_cots_per_sec),
    );
    w.family(
        "ironman_fleet_served_cots_per_second",
        "gauge",
        "Windowed fleet serving rate.",
        fleet_window(|win| win.served_cots_per_sec),
    );
    w.family(
        "ironman_fleet_stall_ratio",
        "gauge",
        "Windowed consumer-stall time per second of wall time, fleet-wide.",
        fleet_window(|win| win.stall_ratio),
    );
    w.family(
        "ironman_fleet_chunk_push_p99_nanoseconds",
        "gauge",
        "Windowed fleet p99 chunk-push latency (bucket ceiling, <=6.25% high).",
        fleet_window(|win| win.latency.chunk_push.p99() as f64),
    );

    render_servers(&mut w, snapshot, window, cfg, members, &window_label);

    let slo = |a: &AlertView| vec![("slo", a.slo.clone())];
    w.family(
        "ironman_slo_state",
        "gauge",
        "SLO alert state: 0 inactive, 1 pending, 2 firing, 3 resolved.",
        alerts.iter().map(|a| (slo(a), a.state.as_gauge() as f64)),
    );
    w.family(
        "ironman_slo_burning",
        "gauge",
        "1 if the labeled evaluation window currently violates the SLO.",
        alerts.iter().flat_map(|a| {
            [("fast", a.fast_burning), ("slow", a.slow_burning)].map(|(win, burning)| {
                let mut l = slo(a);
                l.push(("window", win.to_string()));
                (l, if burning { 1.0 } else { 0.0 })
            })
        }),
    );
    w.family(
        "ironman_slo_threshold",
        "gauge",
        "The configured SLO bound.",
        alerts.iter().map(|a| (slo(a), a.threshold)),
    );

    w.family(
        "ironman_observer_scrape_p99_nanoseconds",
        "gauge",
        "p99 wall time of one whole-fleet scrape.",
        [(vec![], scrape_p99 as f64)],
    );
    w.out
}

fn render_servers(
    w: &mut MetricsWriter,
    snapshot: Option<&FleetSnapshot>,
    window: Option<&FleetWindow>,
    cfg: &FleetExporterConfig,
    members: &[Member],
    window_label: &str,
) {
    w.family(
        "ironman_server_up",
        "gauge",
        "1 if the directory member answered the latest scrape, else 0.",
        members.iter().map(|m| {
            let reached = snapshot.is_some_and(|s| s.server(m.id).is_some());
            (server(m.id), if reached { 1.0 } else { 0.0 })
        }),
    );

    let scraped = snapshot.map_or(&[][..], |s| &s.servers[..]);
    for m in ServiceStats::METRICS {
        w.family(
            m.name,
            m.kind,
            m.help,
            scraped.iter().map(|o| (server(o.id), (m.value)(&o.stats))),
        );
    }
    // Lag is relative to the fleet's most advanced *scraped* replica —
    // an unreachable server cannot drag everyone else's lag up.
    let max_epoch = scraped
        .iter()
        .map(|o| o.stats.directory_epoch)
        .max()
        .unwrap_or(0);
    w.family(
        "ironman_server_directory_epoch_lag",
        "gauge",
        "Gossip lag: the most advanced scraped replica's epoch minus this server's.",
        scraped.iter().map(|o| {
            let lag = max_epoch.saturating_sub(o.stats.directory_epoch);
            (server(o.id), lag as f64)
        }),
    );

    let windows = window.map_or(&[][..], |w| &w.servers[..]);
    let server_window = |sw: &ServerWindow, value: f64| {
        let mut l = server(sw.id);
        l.push(("window", window_label.to_string()));
        (l, value)
    };
    w.family(
        "ironman_server_supply_cots_per_second",
        "gauge",
        "Windowed per-server COT supply rate.",
        windows
            .iter()
            .map(|sw| server_window(sw, sw.supply_cots_per_sec)),
    );
    w.family(
        "ironman_server_chunk_push_p99_nanoseconds",
        "gauge",
        "Windowed per-server p99 chunk-push latency.",
        windows
            .iter()
            .map(|sw| server_window(sw, sw.latency.chunk_push.p99() as f64)),
    );
    w.family(
        "ironman_server_stall_ratio",
        "gauge",
        "Windowed per-server consumer-stall time per second of wall time.",
        windows.iter().map(|sw| server_window(sw, sw.stall_ratio)),
    );

    let headroom = match (cfg.model.as_ref(), snapshot, window) {
        (Some(model), Some(s), Some(win)) => model.assess(s, win),
        _ => Vec::new(),
    };
    let per_server =
        |value: fn(&ServerHeadroom) -> f64| headroom.iter().map(move |h| (server(h.id), value(h)));
    w.family(
        "ironman_server_predicted_supply_cots_per_second",
        "gauge",
        "Modeled supply ceiling (roofline) for this server.",
        per_server(|h| h.predicted_cots_per_sec),
    );
    w.family(
        "ironman_server_supply_utilization",
        "gauge",
        "Measured windowed supply over the modeled ceiling.",
        per_server(|h| h.utilization),
    );
    w.family(
        "ironman_server_headroom_cots_per_second",
        "gauge",
        "Unused modeled supply capacity, max(0, predicted - measured).",
        per_server(|h| h.headroom_cots_per_sec),
    );
    w.family(
        "ironman_server_model_drift_cots_per_second",
        "gauge",
        "Signed model error, measured - predicted.",
        per_server(|h| h.drift_cots_per_sec),
    );
}

/// Renders the `/fleet` page: the same state as `/metrics`, shaped for
/// a human glance.
fn render_fleet_page(handle: &FleetHandle, cfg: &FleetExporterConfig) -> String {
    let mut body = String::with_capacity(2048);
    let snapshot = handle.latest();
    let window = handle.window(cfg.window);
    body.push_str("<html><head><title>ironman fleet</title></head><body><pre>\n");
    match &snapshot {
        None => body.push_str("no scrape completed yet\n"),
        Some(s) => {
            let _ = writeln!(
                body,
                "epoch {}   servers {}   available {}   pending {}",
                s.epoch,
                s.servers.len(),
                s.available,
                s.pending_stream_cots
            );
            if let Some(win) = &window {
                let _ = writeln!(
                    body,
                    "window {:.1}s: supply {:.0} cots/s   served {:.0} cots/s   stall {:.3}   push p99 {} ns",
                    (win.to_nanos - win.from_nanos) as f64 / 1e9,
                    win.supply_cots_per_sec,
                    win.served_cots_per_sec,
                    win.stall_ratio,
                    win.latency.chunk_push.p99()
                );
            }
            body.push_str("\nserver  up  avail      supply/s     served/s   stall  headroom/s\n");
            for m in handle.members() {
                let obs = s.server(m.id);
                let sw = window
                    .as_ref()
                    .and_then(|w| w.servers.iter().find(|sw| sw.id == m.id));
                let headroom = match (cfg.model.as_ref(), obs, sw) {
                    (Some(model), Some(obs), Some(sw)) => format!(
                        "{:.0}",
                        model
                            .server_headroom(obs, sw.supply_cots_per_sec)
                            .headroom_cots_per_sec
                    ),
                    _ => "-".to_string(),
                };
                let _ = writeln!(
                    body,
                    "{:>6}  {:>2}  {:>7}  {:>11}  {:>11}  {:>6}  {:>10}",
                    m.id.0,
                    if obs.is_some() { "y" } else { "n" },
                    obs.map_or("-".to_string(), |o| o.stats.available.to_string()),
                    sw.map_or("-".to_string(), |w| format!("{:.0}", w.supply_cots_per_sec)),
                    sw.map_or("-".to_string(), |w| format!("{:.0}", w.served_cots_per_sec)),
                    sw.map_or("-".to_string(), |w| format!("{:.3}", w.stall_ratio)),
                    headroom,
                );
            }
        }
    }
    let alerts = handle.alerts();
    if !alerts.is_empty() {
        body.push_str("\nslo alerts\n");
        for a in &alerts {
            let _ = writeln!(
                body,
                "  {:<20} {:<9} fast {} slow {} (threshold {})",
                a.slo,
                a.state.name(),
                a.fast_value.map_or("-".to_string(), |v| format!("{v:.1}")),
                a.slow_value.map_or("-".to_string(), |v| format!("{v:.1}")),
                a.threshold,
            );
        }
    }
    body.push_str("</pre></body></html>\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{Directory, ServerId};
    use crate::observe::ServerObservation;
    use crate::slo::AlertState;
    use ironman_net::LatencyStats;
    use ironman_ot::params::FerretParams;
    use std::collections::HashSet;

    /// `render_metrics` over [`fixture`], as the exporter rendered it
    /// when several families shared one header block (same lines, old
    /// order).
    const RECORDED: &str = r#"# HELP ironman_scrape_epoch Directory epoch of the latest fleet scrape.
# TYPE ironman_scrape_epoch gauge
ironman_scrape_epoch 7
# HELP ironman_fleet_available_cots Correlations buffered across the scraped fleet.
# TYPE ironman_fleet_available_cots gauge
ironman_fleet_available_cots 950
# HELP ironman_fleet_pending_stream_cots Promised-but-unpushed streamed demand across the fleet.
# TYPE ironman_fleet_pending_stream_cots gauge
ironman_fleet_pending_stream_cots 64
# HELP ironman_fleet_supply_cots_per_second Windowed fleet COT supply rate (extensions x outputs per extension).
# TYPE ironman_fleet_supply_cots_per_second gauge
# HELP ironman_fleet_served_cots_per_second Windowed fleet serving rate.
# TYPE ironman_fleet_served_cots_per_second gauge
# HELP ironman_fleet_stall_ratio Windowed consumer-stall time per second of wall time, fleet-wide.
# TYPE ironman_fleet_stall_ratio gauge
# HELP ironman_fleet_chunk_push_p99_nanoseconds Windowed fleet p99 chunk-push latency (bucket ceiling, <=6.25% high).
# TYPE ironman_fleet_chunk_push_p99_nanoseconds gauge
ironman_fleet_supply_cots_per_second{window="5s"} 16000
ironman_fleet_served_cots_per_second{window="5s"} 2400
ironman_fleet_stall_ratio{window="5s"} 0
ironman_fleet_chunk_push_p99_nanoseconds{window="5s"} 0
# HELP ironman_server_up 1 if the directory member answered the latest scrape, else 0.
# TYPE ironman_server_up gauge
ironman_server_up{server="1"} 1
ironman_server_up{server="2"} 1
ironman_server_up{server="3"} 0
# HELP ironman_server_available_cots Correlations buffered on this server.
# TYPE ironman_server_available_cots gauge
# HELP ironman_server_uptime_seconds Monotonic seconds since this server's service constructed.
# TYPE ironman_server_uptime_seconds gauge
# HELP ironman_server_cots_served_total Correlations handed out since server start.
# TYPE ironman_server_cots_served_total counter
# HELP ironman_server_extensions_total FERRET extensions run since server start.
# TYPE ironman_server_extensions_total counter
# HELP ironman_server_subscribers_evicted_total Stuck streaming subscribers evicted past the push write deadline.
# TYPE ironman_server_subscribers_evicted_total counter
# HELP ironman_server_unavailable_sent_total Unavailable{retry_after_ms} declines sent while degraded.
# TYPE ironman_server_unavailable_sent_total counter
# HELP ironman_server_faults_injected_total Faults the server's injector fired into its own data path (chaos drills).
# TYPE ironman_server_faults_injected_total counter
# HELP ironman_server_directory_epoch The server's own directory-replica epoch at scrape time (v9).
# TYPE ironman_server_directory_epoch gauge
# HELP ironman_server_directory_epoch_lag Gossip lag: the most advanced scraped replica's epoch minus this server's.
# TYPE ironman_server_directory_epoch_lag gauge
ironman_server_available_cots{server="1"} 700
ironman_server_uptime_seconds{server="1"} 3.5
ironman_server_cots_served_total{server="1"} 5000
ironman_server_extensions_total{server="1"} 40
ironman_server_subscribers_evicted_total{server="1"} 1
ironman_server_unavailable_sent_total{server="1"} 2
ironman_server_faults_injected_total{server="1"} 3
ironman_server_directory_epoch{server="1"} 7
ironman_server_directory_epoch_lag{server="1"} 0
ironman_server_available_cots{server="2"} 250
ironman_server_uptime_seconds{server="2"} 2
ironman_server_cots_served_total{server="2"} 800
ironman_server_extensions_total{server="2"} 4
ironman_server_subscribers_evicted_total{server="2"} 0
ironman_server_unavailable_sent_total{server="2"} 5
ironman_server_faults_injected_total{server="2"} 0
ironman_server_directory_epoch{server="2"} 5
ironman_server_directory_epoch_lag{server="2"} 2
# HELP ironman_server_supply_cots_per_second Windowed per-server COT supply rate.
# TYPE ironman_server_supply_cots_per_second gauge
# HELP ironman_server_chunk_push_p99_nanoseconds Windowed per-server p99 chunk-push latency.
# TYPE ironman_server_chunk_push_p99_nanoseconds gauge
# HELP ironman_server_stall_ratio Windowed per-server consumer-stall time per second of wall time.
# TYPE ironman_server_stall_ratio gauge
ironman_server_supply_cots_per_second{server="1",window="5s"} 15000
ironman_server_chunk_push_p99_nanoseconds{server="1",window="5s"} 0
ironman_server_stall_ratio{server="1",window="5s"} 0
ironman_server_supply_cots_per_second{server="2",window="5s"} 1000
ironman_server_chunk_push_p99_nanoseconds{server="2",window="5s"} 0
ironman_server_stall_ratio{server="2",window="5s"} 0
# HELP ironman_server_predicted_supply_cots_per_second Modeled supply ceiling (roofline) for this server.
# TYPE ironman_server_predicted_supply_cots_per_second gauge
# HELP ironman_server_supply_utilization Measured windowed supply over the modeled ceiling.
# TYPE ironman_server_supply_utilization gauge
# HELP ironman_server_headroom_cots_per_second Unused modeled supply capacity, max(0, predicted - measured).
# TYPE ironman_server_headroom_cots_per_second gauge
# HELP ironman_server_model_drift_cots_per_second Signed model error, measured - predicted.
# TYPE ironman_server_model_drift_cots_per_second gauge
ironman_server_predicted_supply_cots_per_second{server="1"} 28785538.14563563
ironman_server_supply_utilization{server="1"} 0.0005210950000000001
ironman_server_headroom_cots_per_second{server="1"} 28770538.14563563
ironman_server_model_drift_cots_per_second{server="1"} -28770538.14563563
ironman_server_predicted_supply_cots_per_second{server="2"} 14392769.072817815
ironman_server_supply_utilization{server="2"} 0.00006947933333333334
ironman_server_headroom_cots_per_second{server="2"} 14391769.072817815
ironman_server_model_drift_cots_per_second{server="2"} -14391769.072817815
# HELP ironman_slo_state SLO alert state: 0 inactive, 1 pending, 2 firing, 3 resolved.
# TYPE ironman_slo_state gauge
# HELP ironman_slo_burning 1 if the labeled evaluation window currently violates the SLO.
# TYPE ironman_slo_burning gauge
# HELP ironman_slo_threshold The configured SLO bound.
# TYPE ironman_slo_threshold gauge
ironman_slo_state{slo="supply-floor"} 2
ironman_slo_threshold{slo="supply-floor"} 2500
ironman_slo_burning{slo="supply-floor",window="fast"} 1
ironman_slo_burning{slo="supply-floor",window="slow"} 0
# HELP ironman_observer_scrape_p99_nanoseconds p99 wall time of one whole-fleet scrape.
# TYPE ironman_observer_scrape_p99_nanoseconds gauge
ironman_observer_scrape_p99_nanoseconds 1015807"#;

    #[allow(clippy::too_many_arguments)]
    fn obs(
        id: u64,
        cots_served: u64,
        extensions_run: u64,
        cots_per_extension: u64,
        available: u64,
        pending_stream_cots: u64,
        uptime_nanos: u64,
        faults: [u64; 3],
        directory_epoch: u64,
    ) -> ServerObservation {
        ServerObservation {
            id: ServerId(id),
            cots_per_extension,
            stats: ServiceStats {
                cots_served,
                extensions_run,
                available,
                pending_stream_cots,
                shards: 2,
                uptime_nanos,
                subscribers_evicted: faults[0],
                unavailable_sent: faults[1],
                faults_injected: faults[2],
                directory_epoch,
                ..ServiceStats::default()
            },
        }
    }

    /// Three members, two of them scraped (server 2 joined inside the
    /// window), one firing alert and a headroom model.
    fn fixture() -> String {
        let dir = Directory::new();
        for i in 1..=3u64 {
            let addr = format!("127.0.0.1:{}", 7000 + i).parse().unwrap();
            dir.join_as(ServerId(i), addr, &format!("s{i}"), 1);
        }
        let earlier = FleetSnapshot {
            at_nanos: 1_000_000_000,
            epoch: 6,
            servers: vec![obs(1, 1000, 10, 1000, 300, 0, 1_500_000_000, [0; 3], 6)],
            latency: LatencyStats::default(),
            available: 300,
            pending_stream_cots: 0,
        };
        let latest = FleetSnapshot {
            at_nanos: 3_000_000_000,
            epoch: 7,
            servers: vec![
                obs(1, 5000, 40, 1000, 700, 64, 3_500_000_000, [1, 2, 3], 7),
                obs(2, 800, 4, 500, 250, 0, 2_000_000_000, [0, 5, 0], 5),
            ],
            latency: LatencyStats::default(),
            available: 950,
            pending_stream_cots: 64,
        };
        let alert = AlertView {
            slo: "supply-floor".into(),
            state: AlertState::Firing,
            since_nanos: 2_000_000_000,
            fast_burning: true,
            slow_burning: false,
            fast_value: Some(1.0),
            slow_value: None,
            threshold: 2500.0,
        };
        let cfg = FleetExporterConfig {
            window: Duration::from_secs(5),
            model: Some(HeadroomModel::xeon(FerretParams::toy())),
        };
        render_metrics(
            Some(&latest),
            Some(&latest.delta(&earlier)),
            dir.snapshot().members(),
            &[alert],
            1_015_807,
            &cfg,
        )
    }

    #[test]
    fn metrics_keep_the_recorded_lines() {
        let rendered = fixture();
        let mut got: Vec<&str> = rendered.lines().collect();
        let mut want: Vec<&str> = RECORDED.lines().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn each_family_is_one_contiguous_group() {
        let rendered = fixture();
        let lines: Vec<&str> = rendered.lines().collect();
        let sample_family = |line: &str| line.split(['{', ' ']).next().unwrap().to_string();
        let mut seen = HashSet::new();
        let mut i = 0;
        while i < lines.len() {
            let name = lines[i]
                .strip_prefix("# HELP ")
                .unwrap()
                .split(' ')
                .next()
                .unwrap();
            assert!(seen.insert(name), "{name} has two header blocks");
            assert!(lines[i + 1].starts_with(&format!("# TYPE {name} ")));
            i += 2;
            while i < lines.len() && !lines[i].starts_with('#') {
                assert_eq!(sample_family(lines[i]), name, "sample outside its family");
                i += 1;
            }
        }
    }
}
