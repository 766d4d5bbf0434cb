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

use crate::headroom::HeadroomModel;
use crate::observe::{FleetHandle, FleetSnapshot, FleetWindow};
use crate::slo::AlertView;
use ironman_net::http::{HttpResponse, HttpServer};
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

    /// Requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.http.requests_served()
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

struct MetricsWriter {
    out: String,
}

impl MetricsWriter {
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {}", finite(value));
        } else {
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
pub fn render_prometheus(handle: &FleetHandle, cfg: &FleetExporterConfig) -> String {
    let mut w = MetricsWriter {
        out: String::with_capacity(4096),
    };
    let snapshot = handle.latest();
    let window = handle.window(cfg.window);
    let members = handle.members();
    let window_label = format!("{}s", cfg.window.as_secs_f64());

    w.family(
        "ironman_scrape_epoch",
        "gauge",
        "Directory epoch of the latest fleet scrape.",
    );
    w.sample(
        "ironman_scrape_epoch",
        &[],
        snapshot.as_ref().map_or(0.0, |s| s.epoch as f64),
    );

    w.family(
        "ironman_fleet_available_cots",
        "gauge",
        "Correlations buffered across the scraped fleet.",
    );
    w.sample(
        "ironman_fleet_available_cots",
        &[],
        snapshot.as_ref().map_or(0.0, |s| s.available as f64),
    );

    w.family(
        "ironman_fleet_pending_stream_cots",
        "gauge",
        "Promised-but-unpushed streamed demand across the fleet.",
    );
    w.sample(
        "ironman_fleet_pending_stream_cots",
        &[],
        snapshot
            .as_ref()
            .map_or(0.0, |s| s.pending_stream_cots as f64),
    );

    w.family(
        "ironman_fleet_supply_cots_per_second",
        "gauge",
        "Windowed fleet COT supply rate (extensions x outputs per extension).",
    );
    w.family(
        "ironman_fleet_served_cots_per_second",
        "gauge",
        "Windowed fleet serving rate.",
    );
    w.family(
        "ironman_fleet_stall_ratio",
        "gauge",
        "Windowed consumer-stall time per second of wall time, fleet-wide.",
    );
    w.family(
        "ironman_fleet_chunk_push_p99_nanoseconds",
        "gauge",
        "Windowed fleet p99 chunk-push latency (bucket ceiling, <=6.25% high).",
    );
    if let Some(win) = &window {
        let l = [("window", window_label.clone())];
        w.sample(
            "ironman_fleet_supply_cots_per_second",
            &l,
            win.supply_cots_per_sec,
        );
        w.sample(
            "ironman_fleet_served_cots_per_second",
            &l,
            win.served_cots_per_sec,
        );
        w.sample("ironman_fleet_stall_ratio", &l, win.stall_ratio);
        w.sample(
            "ironman_fleet_chunk_push_p99_nanoseconds",
            &l,
            win.latency.chunk_push.p99() as f64,
        );
    }

    render_servers(
        &mut w,
        snapshot.as_deref(),
        window.as_ref(),
        cfg,
        &members,
        &window_label,
    );
    render_alerts(&mut w, &handle.alerts());

    w.family(
        "ironman_observer_scrape_p99_nanoseconds",
        "gauge",
        "p99 wall time of one whole-fleet scrape.",
    );
    w.sample(
        "ironman_observer_scrape_p99_nanoseconds",
        &[],
        handle.scrape_latency().p99() as f64,
    );
    w.out
}

fn render_servers(
    w: &mut MetricsWriter,
    snapshot: Option<&FleetSnapshot>,
    window: Option<&FleetWindow>,
    cfg: &FleetExporterConfig,
    members: &[crate::directory::Member],
    window_label: &str,
) {
    w.family(
        "ironman_server_up",
        "gauge",
        "1 if the directory member answered the latest scrape, else 0.",
    );
    for m in members {
        let reached = snapshot.is_some_and(|s| s.server(m.id).is_some());
        w.sample(
            "ironman_server_up",
            &[("server", m.id.0.to_string())],
            if reached { 1.0 } else { 0.0 },
        );
    }

    w.family(
        "ironman_server_available_cots",
        "gauge",
        "Correlations buffered on this server.",
    );
    w.family(
        "ironman_server_uptime_seconds",
        "gauge",
        "Monotonic seconds since this server's service constructed.",
    );
    w.family(
        "ironman_server_cots_served_total",
        "counter",
        "Correlations handed out since server start.",
    );
    w.family(
        "ironman_server_extensions_total",
        "counter",
        "FERRET extensions run since server start.",
    );
    w.family(
        "ironman_server_subscribers_evicted_total",
        "counter",
        "Stuck streaming subscribers evicted past the push write deadline.",
    );
    w.family(
        "ironman_server_unavailable_sent_total",
        "counter",
        "Unavailable{retry_after_ms} declines sent while degraded.",
    );
    w.family(
        "ironman_server_faults_injected_total",
        "counter",
        "Faults the server's injector fired into its own data path (chaos drills).",
    );
    w.family(
        "ironman_server_directory_epoch",
        "gauge",
        "The server's own directory-replica epoch at scrape time (v9).",
    );
    w.family(
        "ironman_server_directory_epoch_lag",
        "gauge",
        "Gossip lag: the most advanced scraped replica's epoch minus this server's.",
    );
    // Lag is relative to the fleet's most advanced *scraped* replica —
    // an unreachable server cannot drag everyone else's lag up.
    let max_epoch = snapshot.map_or(0, |s| {
        s.servers
            .iter()
            .map(|o| o.directory_epoch)
            .max()
            .unwrap_or(0)
    });
    if let Some(s) = snapshot {
        for obs in &s.servers {
            let l = [("server", obs.id.0.to_string())];
            w.sample("ironman_server_available_cots", &l, obs.available as f64);
            w.sample(
                "ironman_server_uptime_seconds",
                &l,
                obs.uptime_nanos as f64 / 1e9,
            );
            w.sample(
                "ironman_server_cots_served_total",
                &l,
                obs.cots_served as f64,
            );
            w.sample(
                "ironman_server_extensions_total",
                &l,
                obs.extensions_run as f64,
            );
            w.sample(
                "ironman_server_subscribers_evicted_total",
                &l,
                obs.subscribers_evicted as f64,
            );
            w.sample(
                "ironman_server_unavailable_sent_total",
                &l,
                obs.unavailable_sent as f64,
            );
            w.sample(
                "ironman_server_faults_injected_total",
                &l,
                obs.faults_injected as f64,
            );
            w.sample(
                "ironman_server_directory_epoch",
                &l,
                obs.directory_epoch as f64,
            );
            w.sample(
                "ironman_server_directory_epoch_lag",
                &l,
                max_epoch.saturating_sub(obs.directory_epoch) as f64,
            );
        }
    }

    w.family(
        "ironman_server_supply_cots_per_second",
        "gauge",
        "Windowed per-server COT supply rate.",
    );
    w.family(
        "ironman_server_chunk_push_p99_nanoseconds",
        "gauge",
        "Windowed per-server p99 chunk-push latency.",
    );
    w.family(
        "ironman_server_stall_ratio",
        "gauge",
        "Windowed per-server consumer-stall time per second of wall time.",
    );
    if let Some(win) = window {
        for sw in &win.servers {
            let l = [
                ("server", sw.id.0.to_string()),
                ("window", window_label.to_string()),
            ];
            w.sample(
                "ironman_server_supply_cots_per_second",
                &l,
                sw.supply_cots_per_sec,
            );
            w.sample(
                "ironman_server_chunk_push_p99_nanoseconds",
                &l,
                sw.latency.chunk_push.p99() as f64,
            );
            w.sample("ironman_server_stall_ratio", &l, sw.stall_ratio);
        }
    }

    w.family(
        "ironman_server_predicted_supply_cots_per_second",
        "gauge",
        "Modeled supply ceiling (roofline + link) for this server.",
    );
    w.family(
        "ironman_server_supply_utilization",
        "gauge",
        "Measured windowed supply over the modeled ceiling.",
    );
    w.family(
        "ironman_server_headroom_cots_per_second",
        "gauge",
        "Unused modeled supply capacity, max(0, predicted - measured).",
    );
    w.family(
        "ironman_server_model_drift_cots_per_second",
        "gauge",
        "Signed model error, measured - predicted.",
    );
    if let (Some(model), Some(s), Some(win)) = (cfg.model.as_ref(), snapshot, window) {
        for h in model.assess(s, win) {
            let l = [("server", h.id.0.to_string())];
            w.sample(
                "ironman_server_predicted_supply_cots_per_second",
                &l,
                h.predicted_cots_per_sec,
            );
            w.sample("ironman_server_supply_utilization", &l, h.utilization);
            w.sample(
                "ironman_server_headroom_cots_per_second",
                &l,
                h.headroom_cots_per_sec,
            );
            w.sample(
                "ironman_server_model_drift_cots_per_second",
                &l,
                h.drift_cots_per_sec,
            );
        }
    }
}

fn render_alerts(w: &mut MetricsWriter, alerts: &[AlertView]) {
    w.family(
        "ironman_slo_state",
        "gauge",
        "SLO alert state: 0 inactive, 1 pending, 2 firing, 3 resolved.",
    );
    w.family(
        "ironman_slo_burning",
        "gauge",
        "1 if the labeled evaluation window currently violates the SLO.",
    );
    w.family(
        "ironman_slo_threshold",
        "gauge",
        "The configured SLO bound.",
    );
    for a in alerts {
        let l = [("slo", a.slo.clone())];
        w.sample("ironman_slo_state", &l, a.state.as_gauge() as f64);
        w.sample("ironman_slo_threshold", &l, a.threshold);
        for (win, burning) in [("fast", a.fast_burning), ("slow", a.slow_burning)] {
            w.sample(
                "ironman_slo_burning",
                &[("slo", a.slo.clone()), ("window", win.to_string())],
                if burning { 1.0 } else { 0.0 },
            );
        }
    }
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
                    obs.map_or("-".to_string(), |o| o.available.to_string()),
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
