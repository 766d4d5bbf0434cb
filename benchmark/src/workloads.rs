//! The five workloads. Each sets the system up through its public API
//! (`setup_s` ends when the first verified COT is in the consumer's
//! hands), runs equal-work segments for the time budget while verifying
//! every delivered COT inside the timed window, cross-checks the
//! accounting, and — in a traced run — reads the layer counters the
//! program already keeps. An untraced run then tears down and sets up a
//! few more times, for a median `setup_s`.
//!
//! Why these five (the long form is in README.md): `extend_table4` and
//! `extend_lpn_heavy` split an extension's cost in opposite proportions
//! between SPCOT and LPN, so a change to one is visible on one and must
//! be invisible on the other; `serve_stream` and `serve_burst` drive the
//! same service supply-bound and pipe-bound; `fleet_oneshot` uses the
//! same `net` + `core` code per message instead of per byte, with the
//! control plane running behind it.

use crate::check::Checker;
use crate::layers;
use crate::run::Ctx;
use crate::stats;
use crate::sys;
use ironman_cluster::{
    ClusterClient, ClusterServerConfig, GossiperConfig, HealthConfig, LocalCluster, WarmupConfig,
};
use ironman_core::{Backend, CotBatch, CotSlice, Engine, SharedCotPool};
use ironman_net::{CotClient, CotService, CotServiceConfig, ServiceStats};
use ironman_ot::channel::ChannelError;
use ironman_ot::ferret::{FerretConfig, SharedLpnMatrix};
use ironman_ot::params::FerretParams;
use ironman_ot::session::CotSession;
use ironman_telemetry::now_nanos;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a set-up step may wait for the system to become ready before
/// the run is abandoned.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    match ctx.opts.workload.as_str() {
        "extend_table4" => extend(ctx, ctx.scale.table4),
        "extend_lpn_heavy" => extend(ctx, ctx.scale.lpn_heavy),
        "serve_stream" => serve_stream(ctx),
        "serve_burst" => serve_burst(ctx),
        "fleet_oneshot" => fleet_oneshot(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The recommended configuration for `params` with its LPN matrix built
/// once, up front — the one memory-bound matrix generation every
/// workload's set-up pays (`lpn.matrix_build_s`, `lpn.matrix_mb`).
pub fn build_config(ctx: &mut Ctx, params: FerretParams) -> FerretConfig {
    let mut cfg = FerretConfig::recommended(params);
    let t = Instant::now();
    let shared = SharedLpnMatrix::build(&cfg);
    ctx.set_layer("lpn.matrix_build_s", t.elapsed().as_secs_f64());
    ctx.set_layer(
        "lpn.matrix_mb",
        shared.working_set_bytes() as f64 / f64::from(1u32 << 20),
    );
    cfg.shared_matrix = Some(shared);
    cfg
}

pub fn engine_for(cfg: &FerretConfig) -> Engine {
    Engine::new(cfg.clone(), Backend::ironman_default())
}

fn session_name(ctx: &Ctx, role: &str) -> String {
    format!("bench-{role}-{:016x}", ctx.seed_for(role))
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// `extend_*`: one pipelined two-party session, the consumer `recv()`s
/// extensions back to back. One segment = one extension.
fn extend(ctx: &mut Ctx, params: FerretParams) -> Result<(), String> {
    let reps = ctx.setup_reps();
    for rep in 0..reps {
        let rep_start = ctx.begin_setup(rep);
        let cfg = build_config(ctx, params);
        let session = CotSession::spawn(&cfg, ctx.seed_for("session"), 2);
        let delta = session.delta();
        let per = session.per_extension();
        let deliver = |ctx: &mut Ctx| -> u64 {
            ctx.spans.enter("ot.session_recv");
            let got = session.recv();
            ctx.spans.exit();
            let b = match got {
                Ok(b) => b,
                Err(e) => {
                    ctx.fatal("session recv", &e);
                    return 0;
                }
            };
            ctx.spans.enter("harness.verify");
            let slice = CotSlice {
                delta,
                z: &b.z,
                x: &b.x,
                y: &b.y,
            };
            let ok = ctx.check.delivery(slice, per);
            ctx.spans.exit();
            if ok {
                per as u64
            } else {
                0
            }
        };
        if deliver(ctx) == 0 {
            return Err("first extension failed verification".to_string());
        }
        ctx.setup_done(rep_start);
        if rep > 0 {
            continue; // dropping the session joins its party threads
        }

        let phase_start = now_nanos();
        let stalls_before = session.consumer_stalls();
        ctx.run_timed_phase(|ctx| {
            let seg = ctx.timed(deliver);
            ctx.request_ns.push(seg.wall_ns);
        });
        // The party threads can only be ahead of the consumer.
        let received = 1 + ctx.segs.len() as u64;
        ctx.check
            .accounting(session.extensions_staged() >= received);

        if ctx.opts.trace {
            layers::phase_shares(ctx, &[session.telemetry().trace.dump()], phase_start);
            layers::extension_gaps(ctx);
            ctx.set_layer(
                "ot.consumer_stalls",
                (session.consumer_stalls() - stalls_before) as f64,
            );
            drop(session);
            layers::run_probes(ctx, &cfg)?;
        }
    }
    Ok(())
}

/// Counter deltas of the serving side over the timed phase (summed over
/// `services`, histograms merged), turned into the `core.*` / `net.*` /
/// `ot.*` layer metrics every serving workload reports.
struct ServiceBaseline {
    stats: Vec<ServiceStats>,
    phase_start: u64,
}

impl ServiceBaseline {
    fn take(services: &[&CotService]) -> ServiceBaseline {
        ServiceBaseline {
            stats: services.iter().map(|s| s.stats()).collect(),
            phase_start: now_nanos(),
        }
    }

    fn report(&self, ctx: &mut Ctx, services: &[&CotService]) {
        let now: Vec<ServiceStats> = services.iter().map(|s| s.stats()).collect();
        let shard_sum = |all: &[ServiceStats], f: fn(&ironman_net::ShardStat) -> u64| -> u64 {
            all.iter().flat_map(|s| &s.shard_stats).map(f).sum()
        };
        let delta = |f: fn(&ironman_net::ShardStat) -> u64| {
            shard_sum(&now, f).saturating_sub(shard_sum(&self.stats, f)) as f64
        };
        let stalls = delta(|s| s.session_stalls);
        ctx.set_layer("core.session_stalls", stalls);
        ctx.set_layer("ot.consumer_stalls", stalls);
        ctx.set_layer("core.extensions_run", delta(|s| s.session_extensions));
        ctx.set_layer("core.warm_refills", delta(|s| s.warm_refills));
        let allocs = |all: &[ServiceStats]| all.iter().map(|s| s.scratch_allocs).sum::<u64>();
        ctx.set_layer(
            "net.scratch_allocs",
            allocs(&now).saturating_sub(allocs(&self.stats)) as f64,
        );
        let mut lat = ironman_net::LatencyStats::default();
        for (after, before) in now.iter().zip(&self.stats) {
            lat.merge(&after.latency.delta(&before.latency));
        }
        let wall = ctx.total_wall_ns().max(1) as f64;
        ctx.set_layer("core.stall_share", lat.stall.sum() as f64 / wall);
        ctx.set_layer(
            "net.first_byte_p50_us",
            lat.request_first_byte.p50() as f64 / 1e3,
        );
        ctx.set_layer("net.chunk_push_p50_us", lat.chunk_push.p50() as f64 / 1e3);
        ctx.set_layer("ot.extension_p50_ms", lat.extension.p50() as f64 / 1e6);
        ctx.set_layer(
            "ot.extension_p75_ms",
            lat.extension.quantile(0.75) as f64 / 1e6,
        );
        let dumps: Vec<_> = services
            .iter()
            .flat_map(|s| s.pool().shard_telemetry())
            .map(|t| t.trace.dump())
            .collect();
        layers::phase_shares(ctx, &dumps, self.phase_start);
    }
}

/// Runs `body` while, if `enabled`, a second connection on its own
/// thread scrapes `Stats` every 200 ms, and returns the scrape round-trip
/// times in microseconds (`telemetry.stats_scrape_us`: the scrape under
/// load). Its own thread, because a `Stats` reply needs every shard's
/// lock, and the serving thread holds one while it writes a chunk to a
/// socket only the consumer can drain: a consumer that stopped to wait
/// for a scrape could wait until the server's 2 s write deadline evicts
/// it. For the same reason nothing in this file reads `service.stats()`
/// or the pool while a subscription is open.
fn with_scraper<R>(
    addr: std::net::SocketAddr,
    name: &str,
    enabled: bool,
    body: impl FnOnce() -> R,
) -> Result<(R, Vec<f64>), String> {
    if !enabled {
        return Ok((body(), Vec::new()));
    }
    let mut scraper = CotClient::connect(addr, name).map_err(|e| io_err("connect scraper", e))?;
    let stop = AtomicBool::new(false);
    Ok(std::thread::scope(|scope| {
        let scraping = scope.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let t = Instant::now();
                if scraper.stats().is_err() {
                    break;
                }
                samples.push(t.elapsed().as_nanos() as f64 / 1e3);
                std::thread::sleep(Duration::from_millis(200));
            }
            samples
        });
        let result = body();
        stop.store(true, Ordering::SeqCst);
        (result, scraping.join().expect("scraper thread panicked"))
    }))
}

/// `net.wire_bytes_per_cot` and `net.client_msgs_per_chunk` of a
/// streaming client, over everything the service served it.
fn report_client_wire(ctx: &mut Ctx, client: &CotClient, service: &CotService, chunk: usize) {
    let wire = client.transport_stats();
    let all_cots = service.stats().cots_served.max(1) as f64;
    ctx.set_layer(
        "net.wire_bytes_per_cot",
        wire.total_bytes() as f64 / all_cots,
    );
    ctx.set_layer(
        "net.client_msgs_per_chunk",
        wire.messages_sent as f64 / (all_cots / chunk as f64),
    );
}

/// When anything failed, says what the server thinks happened — the
/// client only ever sees "peer disconnected".
fn explain_failures(ctx: &Ctx, service: &CotService) {
    if ctx.check.failed > 0 {
        let s = service.stats();
        eprintln!(
            "benchmark: {}: server side: {} sessions, {} COTs served, {} subscribers evicted, \
             {} unavailable replies, {} faults injected, {} register failures",
            ctx.opts.workload,
            s.clients_served,
            s.cots_served,
            s.subscribers_evicted,
            s.unavailable_sent,
            s.faults_injected,
            s.register_failures
        );
    }
}

fn serve(engine: &Engine, shards: usize, seed: u64) -> Result<CotService, String> {
    CotService::serve(
        "127.0.0.1:0",
        engine,
        CotServiceConfig {
            shards,
            seed,
            pipelined: true,
        },
    )
    .map_err(|e| io_err("bind loopback service", e))
}

/// Pulls the next chunk of `sub` into `batch` and verifies it; returns
/// the verified COT count (0 on any failure, which is counted).
fn pull_chunk(
    ctx: &mut Ctx,
    sub: &mut ironman_net::CotSubscription<'_>,
    batch: &mut CotBatch,
    chunk: usize,
    last_arrival: &mut Instant,
) -> u64 {
    ctx.spans.enter("net.next_chunk");
    let got = sub.next_chunk_into(batch);
    ctx.spans.exit();
    let now = Instant::now();
    ctx.gap_ns.push((now - *last_arrival).as_nanos() as u64);
    *last_arrival = now;
    match got {
        Ok(true) => {}
        Ok(false) => {
            ctx.fatal("next_chunk_into", &"stream ended early");
            return 0;
        }
        Err(e) => {
            ctx.fatal("next_chunk_into", &e);
            return 0;
        }
    }
    ctx.spans.enter("harness.verify");
    let ok = ctx.check.delivery(batch.as_slice(), chunk);
    ctx.spans.exit();
    if ok {
        chunk as u64
    } else {
        0
    }
}

/// `serve_stream`: a 2-shard pipelined service and one subscription kept
/// under sustained demand. One segment = a fixed run of chunks.
fn serve_stream(ctx: &mut Ctx) -> Result<(), String> {
    let reps = ctx.setup_reps();
    let chunk = ctx.scale.chunk;
    let per_segment = ctx.scale.stream_chunks_per_segment;
    for rep in 0..reps {
        let rep_start = ctx.begin_setup(rep);
        let cfg = build_config(ctx, ctx.scale.table4);
        let service = serve(&engine_for(&cfg), 2, ctx.seed_for("service"))?;
        let mut client = CotClient::connect(service.addr(), &session_name(ctx, "stream"))
            .map_err(|e| io_err("connect", e))?;
        let mut batch = CotBatch::default();
        let mut last_arrival = Instant::now();

        // Set-up ends with a two-chunk stream, opened and closed: the
        // first verified COT, and the session's two scratch buffers sized.
        let mut warm_up = client
            .subscribe(chunk, 2)
            .map_err(|e| io_err("subscribe", e))?;
        if pull_chunk(ctx, &mut warm_up, &mut batch, chunk, &mut last_arrival) == 0 {
            return Err("first chunk failed verification".to_string());
        }
        ctx.setup_done(rep_start);
        pull_chunk(ctx, &mut warm_up, &mut batch, chunk, &mut last_arrival);
        let closed = warm_up.finish();
        ctx.check
            .accounting(closed.is_ok_and(|s| s.cots == 2 * chunk as u64));
        ctx.gap_ns.clear();
        if rep > 0 {
            drop(client);
            service.shutdown();
            continue;
        }

        // Read while no stream is open (see `with_scraper`).
        let baseline = ServiceBaseline::take(&[&service]);
        let streamed_before = ctx.check.verified_cots;
        // Effectively endless: the stream is ended by `finish` when the
        // time budget runs out, which also checks the server's trailer.
        let mut sub = client
            .subscribe(chunk, u64::MAX >> 8)
            .map_err(|e| io_err("subscribe", e))?;
        let scraper_name = session_name(ctx, "scrape");
        let ((), scrapes) = with_scraper(service.addr(), &scraper_name, ctx.opts.trace, || {
            ctx.run_timed_phase(|ctx| {
                let seg = ctx.timed(|ctx| {
                    let mut cots = 0;
                    for _ in 0..per_segment {
                        cots += pull_chunk(ctx, &mut sub, &mut batch, chunk, &mut last_arrival);
                    }
                    cots
                });
                // Chunk gaps are bimodal (pipe speed while the pool has
                // stock, an extension's wait when it runs dry), so their
                // median is not a steady number; the stream's unit
                // request is the whole segment.
                ctx.request_ns.push(seg.wall_ns);
            });
        })?;

        // The trailer (checked inside `finish`) must cover everything the
        // consumer verified plus at most one credit window still in
        // flight, and the server's own count must equal what it streamed.
        let delivered = ctx.check.verified_cots - streamed_before;
        match sub.finish() {
            Ok(summary) => {
                let in_flight = summary.cots.saturating_sub(delivered);
                let window = ironman_net::CotSubscription::CREDIT_WINDOW * chunk as u64;
                ctx.check
                    .accounting(summary.cots >= delivered && in_flight <= window);
                ctx.check
                    .accounting(service.stats().cots_served == summary.cots + 2 * chunk as u64);
            }
            Err(e) => ctx.fatal("finish", &e),
        }

        if ctx.opts.trace {
            baseline.report(ctx, &[&service]);
            report_client_wire(ctx, &client, &service, chunk);
            ctx.set_layer("telemetry.stats_scrape_us", stats::median(&scrapes));
        }
        explain_failures(ctx, &service);
        drop(client);
        service.shutdown();
        if ctx.opts.trace {
            layers::run_probes(ctx, &cfg)?;
        }
    }
    Ok(())
}

/// Blocks until `pool` is as full as warm-up can make it (two
/// extensions per pipelined shard).
pub fn warm_to_cap(pool: &SharedCotPool) -> Result<(), String> {
    let cap = 2 * pool.shard_count() * pool.max_request();
    let deadline = Instant::now() + READY_TIMEOUT;
    while pool.available() < cap {
        pool.warm(2 * pool.max_request());
        if Instant::now() > deadline {
            return Err("pool never reached its warm cap".to_string());
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// `serve_burst`: a PPML layer's demand against a warm service. Before
/// each burst the pool is refilled to its cap (untimed); the timed burst
/// is one subscription that drains most of it. One segment = one burst.
fn serve_burst(ctx: &mut Ctx) -> Result<(), String> {
    let reps = ctx.setup_reps();
    let chunk = ctx.scale.chunk;
    let burst_chunks = ctx.scale.burst_chunks;
    for rep in 0..reps {
        let rep_start = ctx.begin_setup(rep);
        let verified_before = ctx.check.verified_cots;
        let cfg = build_config(ctx, ctx.scale.table4);
        let service = serve(&engine_for(&cfg), 1, ctx.seed_for("service"))?;
        let mut client = CotClient::connect(service.addr(), &session_name(ctx, "burst"))
            .map_err(|e| io_err("connect", e))?;
        let mut batch = CotBatch::default();

        // One subscription of `chunks` chunks, drained and closed.
        let mut burst = |ctx: &mut Ctx, chunks: u64| -> u64 {
            let mut last_arrival = Instant::now();
            ctx.spans.enter("net.subscribe");
            let sub = client.subscribe(chunk, chunks);
            ctx.spans.exit();
            let mut sub = match sub {
                Ok(sub) => sub,
                Err(e) => {
                    ctx.fatal("subscribe", &e);
                    return 0;
                }
            };
            let mut cots = 0;
            for _ in 0..chunks {
                cots += pull_chunk(ctx, &mut sub, &mut batch, chunk, &mut last_arrival);
            }
            ctx.spans.enter("net.finish");
            let summary = sub.finish();
            ctx.spans.exit();
            ctx.check.accounting(
                summary.is_ok_and(|s| s.chunks == chunks && s.cots == chunks * chunk as u64),
            );
            cots
        };

        // Two chunks: a session's two alternating scratch buffers size
        // themselves on its first two batches, and that belongs to set-up.
        warm_to_cap(service.pool())?;
        if burst(ctx, 2) == 0 {
            return Err("first chunk failed verification".to_string());
        }
        ctx.setup_done(rep_start);
        ctx.gap_ns.clear();

        if rep == 0 {
            let baseline = ServiceBaseline::take(&[&service]);
            let mut warm_error = None;
            let scraper_name = session_name(ctx, "scrape");
            let ((), scrapes) =
                with_scraper(service.addr(), &scraper_name, ctx.opts.trace, || {
                    ctx.run_timed_phase(|ctx| {
                        if let Err(e) = warm_to_cap(service.pool()) {
                            warm_error = Some(e);
                        }
                        // A full pool is not yet a quiet one: the session
                        // keeps extending until its look-ahead is staged
                        // too. The burst is meant to time the pipe, not a
                        // fight for the cores.
                        sys::wait_idle(Duration::from_secs(2));
                        let seg = ctx.timed(|ctx| burst(ctx, burst_chunks));
                        ctx.request_ns.push(seg.wall_ns);
                    });
                })?;
            if let Some(e) = warm_error {
                return Err(e);
            }
            ctx.check.accounting(
                service.stats().cots_served == ctx.check.verified_cots - verified_before,
            );
            if ctx.opts.trace {
                baseline.report(ctx, &[&service]);
                ctx.set_layer("telemetry.stats_scrape_us", stats::median(&scrapes));
                report_client_wire(ctx, &client, &service, chunk);
            }
        }
        explain_failures(ctx, &service);
        drop(client);
        service.shutdown();
        if ctx.opts.trace {
            layers::run_probes(ctx, &cfg)?;
        }
    }
    Ok(())
}

/// One routed round trip of `n` COTs, verified against `check`; returns
/// the verified COT count and the request's latency in nanoseconds.
fn fleet_request(
    client: &mut ClusterClient,
    check: &mut Checker,
    n: usize,
) -> Result<(u64, u64), ChannelError> {
    let t = Instant::now();
    let mut cots = 0;
    client.request_cots_with(n, |b| {
        if check.delivery(b.as_slice(), n) {
            cots += n as u64;
        }
    })?;
    Ok((cots, t.elapsed().as_nanos() as u64))
}

/// `fleet_oneshot`: a 2-server replicated fleet (1 shard each, default
/// warm-up, gossip and health) under one closed-loop `ClusterClient`
/// issuing small requests back to back. One segment = a fixed run of
/// round trips.
///
/// The requests drain the home server's pool at ~3 M COT/s, so about a
/// third of the time one of its extensions runs behind them and the
/// segments under it read three times slower; the run's rate (the 90th-
/// percentile segment) is the rate between extensions — the cost of a
/// message, which is what this workload exists to watch. What an
/// extension costs is `extend_table4`'s to report.
fn fleet_oneshot(ctx: &mut Ctx) -> Result<(), String> {
    let reps = ctx.setup_reps();
    let n = ctx.scale.oneshot;
    let per_segment = ctx.scale.requests_per_segment;
    for rep in 0..reps {
        let rep_start = ctx.begin_setup(rep);
        let verified_before = ctx.check.verified_cots;
        let cfg = build_config(ctx, ctx.scale.table4);
        let engine = engine_for(&cfg);
        let mut cluster = LocalCluster::spawn_replicated(
            2,
            &engine,
            &ClusterServerConfig {
                service: CotServiceConfig {
                    shards: 1,
                    seed: ctx.seed_for("fleet"),
                    pipelined: true,
                },
                warmup: Some(WarmupConfig::default()),
            },
            GossiperConfig::default(),
        )
        .map_err(|e| io_err("spawn fleet", e))?;
        cluster.enable_health(HealthConfig::default());
        let t = Instant::now();
        if !cluster.wait_warm(cfg.usable_outputs(), READY_TIMEOUT) {
            return Err("fleet never warmed".to_string());
        }
        ctx.set_layer("cluster.wait_warm_s", t.elapsed().as_secs_f64());
        // Clients route on the observer view, which converges by gossip.
        let deadline = Instant::now() + READY_TIMEOUT;
        while cluster.directory().snapshot().len() < 2 {
            if Instant::now() > deadline {
                return Err("observer view never converged".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut client = ClusterClient::connect(cluster.directory(), &session_name(ctx, "fleet"))
            .map_err(|e| io_err("connect fleet client", e))?;
        match fleet_request(&mut client, &mut ctx.check, n) {
            Ok((cots, _)) if cots > 0 => {}
            Ok(_) => return Err("first request failed verification".to_string()),
            Err(e) => return Err(io_err("first request", e)),
        }
        ctx.setup_done(rep_start);
        if rep > 0 {
            drop(client);
            cluster.shutdown();
            continue;
        }
        // The session's second scratch buffer sizes itself here.
        fleet_request(&mut client, &mut ctx.check, n).map_err(|e| io_err("warm-up request", e))?;

        let services: Vec<&CotService> = cluster
            .server_ids()
            .iter()
            .filter_map(|id| cluster.server(*id))
            .map(|s| s.service())
            .collect();
        let baseline = ServiceBaseline::take(&services);
        ctx.run_timed_phase(|ctx| {
            ctx.timed(|ctx| {
                let mut cots = 0;
                for _ in 0..per_segment {
                    ctx.spans.enter("cluster.request");
                    let got = fleet_request(&mut client, &mut ctx.check, n);
                    ctx.spans.exit();
                    match got {
                        Ok((got, ns)) => {
                            cots += got;
                            ctx.request_ns.push(ns);
                        }
                        Err(e) => ctx.fatal("request_cots_with", &e),
                    }
                }
                cots
            });
        });

        let verified = ctx.check.verified_cots - verified_before;
        ctx.check.accounting(client.served_total() == verified);
        let served: u64 = services.iter().map(|s| s.stats().cots_served).sum();
        ctx.check.accounting(served == verified);
        if ctx.opts.trace {
            baseline.report(ctx, &services);
            ctx.set_layer("cluster.retries", client.retries_spent() as f64);
            ctx.set_layer("cluster.timeouts", client.timeouts_seen() as f64);
            ctx.set_layer("cluster.unavailable_seen", client.unavailable_seen() as f64);
            layers::fleet_probes(ctx, &cluster, &mut client, n);
        }
        drop(client);
        cluster.shutdown();
        if ctx.opts.trace {
            layers::run_probes(ctx, &cfg)?;
        }
    }
    Ok(())
}
