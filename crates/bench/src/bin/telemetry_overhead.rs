//! Telemetry-overhead head-to-head: the serving hot path measured with
//! recording live vs compiled to no-ops, proving the v6 instrumentation
//! is measurably free.
//!
//! One binary, two builds. The default build records for real (relaxed
//! atomics into histograms, ring pushes into the trace); building with
//! `--features telemetry-noop` compiles every record — including the
//! `Stopwatch` clock reads at the call sites — to nothing. `scripts/
//! ci.sh` builds both, parks the no-op binary aside (the feature
//! unifies across the workspace, so the two can't share a target dir),
//! and runs the instrumented one with `--pair-with <noop binary>`: each
//! round re-runs the baseline adjacent in time to the live measurement,
//! the gate metric is CPU seconds per COT from the cheapest quartile of
//! measurement windows (wall time on a shared box is hopeless at this
//! resolution), and the final ratio is the median across rounds. The
//! result lands in `target/telemetry_overhead.json` (run from the repo
//! root, as `ci.sh` does); CI fails if instrumentation costs more than
//! 3%. This is the one measurement `benchmark/` has no probe for yet.
//!
//! The instrumented run also measures the other side of the telemetry
//! contract: the scrape-merge cost of rolling a 3-server fleet's `Stats`
//! histograms into one `FleetSnapshot` (`ironman-cluster::observe`).

use ironman_bench::{f2, header, row};
use ironman_cluster::{observe, ClusterServerConfig, GossiperConfig, LocalCluster, WarmupConfig};
use ironman_net::{CotClient, CotService, CotServiceConfig};
use ironman_ot::ferret::FerretConfig;
use ironman_ot::params::FerretParams;
use ironman_ot::CotBatch;
use std::time::{Duration, Instant};

/// Which half of the head-to-head this build is.
const MODE: &str = if cfg!(feature = "telemetry-noop") {
    "noop"
} else {
    "instrumented"
};

/// Where the no-op build parks its numbers for the instrumented build
/// to pick up (consumed and deleted when the final JSON is written).
const BASELINE_PATH: &str = "target/telemetry_overhead_baseline.json";

/// Where the instrumented build writes the ratio `ci.sh` gates on.
const RESULT_PATH: &str = "target/telemetry_overhead.json";

/// Measurement windows per stage (see [`Result::from_windows`]).
const WINDOWS: usize = 20;

struct Result {
    name: &'static str,
    cots: u64,
    /// Wall-clock seconds over the whole stage — informational only; on
    /// a shared box, preemption by neighbours makes wall time far too
    /// noisy to gate a 3% threshold on.
    secs: f64,
    /// COTs inside the cheapest-quartile measurement windows.
    gated_cots: u64,
    /// CPU seconds consumed by every thread of this process (client,
    /// serving thread, the pool's session threads) inside those windows.
    gated_cpu_secs: f64,
}

impl Result {
    fn cots_per_sec(&self) -> f64 {
        self.cots as f64 / self.secs
    }

    fn cots_per_cpu_sec(&self) -> f64 {
        self.gated_cots as f64 / self.gated_cpu_secs
    }

    /// Aggregates per-window `(cots, cpu_ns)` samples into the combined
    /// CPU rate of the *cheapest* quartile. The work per COT is
    /// deterministic, so CPU-per-COT has a hard floor — a clean window
    /// measures it exactly, and interference (context-switch cache
    /// refills under preemption) only ever adds CPU. The cheapest
    /// quartile of many windows therefore converges on the floor in both
    /// halves of the head-to-head, which is what a 3% gate needs.
    fn from_windows(name: &'static str, mut windows: Vec<(u64, u64)>, wall_secs: f64) -> Result {
        let cots = windows.iter().map(|&(c, _)| c).sum();
        let per_cot = |x: &(u64, u64)| x.1 as f64 / x.0 as f64;
        windows.sort_by(|a, b| per_cot(a).total_cmp(&per_cot(b)));
        let keep = (windows.len() / 4).max(1);
        let kept = &windows[..keep];
        Result {
            name,
            cots,
            secs: wall_secs,
            gated_cots: kept.iter().map(|&(c, _)| c).sum(),
            gated_cpu_secs: kept.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 * 1e-9,
        }
    }
}

/// Total nanoseconds of CPU this process's threads have been scheduled
/// for, from per-thread `/proc/self/task/*/schedstat` (field 1 — time
/// actually *running*, not runqueue wait, at nanosecond resolution).
/// Falls back to 0 off Linux; callers substitute wall time when a
/// stage's CPU delta comes back zero.
fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

fn service(ferret: &FerretConfig) -> CotService {
    CotService::serve(
        "127.0.0.1:0",
        ferret,
        CotServiceConfig {
            shards: 2,
            seed: 77,
            ..CotServiceConfig::default()
        },
    )
    .expect("bind loopback service")
}

/// One-shot round trips: each records one request→first-byte histogram
/// sample (or, in the no-op build, exactly nothing), and the shards'
/// sessions and the drains on them record extension and stall durations
/// — the full serving path the v6 instrumentation touches.
fn bench_roundtrip(ferret: &FerretConfig, requests: usize, batch: usize) -> Result {
    let svc = service(ferret);
    let mut client = CotClient::connect(svc.addr(), "telemetry-rt").expect("connect");
    let mut reused = CotBatch::default();
    client
        .request_cots_into(batch, &mut reused)
        .expect("warm the session buffers");
    let per_window = (requests / WINDOWS).max(1);
    let mut windows = Vec::with_capacity(WINDOWS);
    let t = Instant::now();
    // Window boundaries read per-thread schedstat while the session
    // threads are still alive — their entries (and the extension CPU
    // they carry) vanish when they exit at shutdown.
    let mut cpu = process_cpu_ns();
    for _ in 0..WINDOWS {
        for _ in 0..per_window {
            client
                .request_cots_into(batch, &mut reused)
                .expect("request");
        }
        let now = process_cpu_ns();
        windows.push(((per_window * batch) as u64, now.saturating_sub(cpu)));
        cpu = now;
    }
    let secs = t.elapsed().as_secs_f64();
    reused.verify().expect("verified");
    svc.shutdown();
    Result::from_windows("service_roundtrip", windows, secs)
}

/// Streaming: each chunk records a push-latency sample plus a trace
/// event — the heaviest per-payload instrumentation the hot path has.
fn bench_stream(ferret: &FerretConfig, chunks: u64, batch: usize) -> Result {
    let svc = service(ferret);
    let mut client = CotClient::connect(svc.addr(), "telemetry-stream").expect("connect");
    let mut reused = CotBatch::default();
    // Untimed warm-up stream: session buffers sized, pool shards primed,
    // so the timed window compares steady states, not cold starts.
    let mut warm = client.subscribe(batch, 4).expect("warm subscribe");
    while warm.next_chunk_into(&mut reused).expect("warm chunk") {}
    warm.finish().expect("warm finish");
    let per_window = (chunks as usize / WINDOWS).max(1) as u64;
    let mut windows = Vec::with_capacity(WINDOWS);
    let t = Instant::now();
    let mut sub = client.subscribe(batch, chunks).expect("subscribe");
    let mut cpu = process_cpu_ns();
    let mut window_cots = 0u64;
    let mut seen = 0u64;
    while sub.next_chunk_into(&mut reused).expect("chunk") {
        window_cots += reused.len() as u64;
        seen += 1;
        if seen.is_multiple_of(per_window) {
            let now = process_cpu_ns();
            windows.push((window_cots, now.saturating_sub(cpu)));
            cpu = now;
            window_cots = 0;
        }
    }
    sub.finish().expect("finish");
    let secs = t.elapsed().as_secs_f64();
    reused.verify().expect("verified");
    svc.shutdown();
    Result::from_windows("service_stream", windows, secs)
}

/// Scrape-merge cost for a 3-server fleet: each pass connects to every
/// member, pulls its v6 `Stats` (four histogram snapshots per shard),
/// and merges fleet-wide — the whole cost of one observer sweep.
fn bench_scrape(ferret: &FerretConfig, passes: usize) -> (usize, f64) {
    let cluster = LocalCluster::spawn_replicated(
        3,
        ferret,
        &ClusterServerConfig {
            service: CotServiceConfig {
                shards: 2,
                seed: 909,
                ..CotServiceConfig::default()
            },
            warmup: Some(WarmupConfig::default()),
        },
        GossiperConfig::default(),
    )
    .expect("spawn fleet");
    assert!(
        cluster.wait_converged(Duration::from_secs(30)),
        "fleet never converged"
    );
    // Give every server some samples to serialize and merge.
    let snapshot = cluster.directory().snapshot();
    for member in snapshot.members() {
        let mut client = CotClient::connect(member.addr, "telemetry-scrape").expect("connect");
        let mut batch = CotBatch::default();
        for _ in 0..4 {
            client.request_cots_into(256, &mut batch).expect("serve");
        }
    }
    let directory = cluster.directory();
    let t = Instant::now();
    let mut scraped = 0usize;
    for _ in 0..passes {
        let fleet = observe::scrape(&directory, Duration::from_millis(500));
        scraped += fleet.servers.len();
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(scraped, 3 * passes, "every pass must reach all 3 servers");
    cluster.shutdown();
    (passes, secs)
}

/// Pulls `"<name>" ... "cots_per_cpu_sec": <value>` out of the baseline
/// JSON (written by this same binary, so the shape is fixed).
fn baseline_rate(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let key = "\"cots_per_cpu_sec\": ";
    let v = &rest[rest.find(key)? + key.len()..];
    let end = v.find(['}', ','])?;
    v[..end].trim().parse().ok()
}

/// Runs both hot-path stages once and prints the per-stage table.
fn measure(ferret: &FerretConfig, requests: usize, chunks: u64, batch: usize) -> [Result; 2] {
    let results = [
        bench_roundtrip(ferret, requests, batch),
        bench_stream(ferret, chunks, batch),
    ];
    header(
        &format!("serving hot path, telemetry {MODE}"),
        &["stage", "COTs", "secs", "COTs/s", "cpu_secs", "COTs/cpu_s"],
    );
    for r in &results {
        row(&[
            r.name.to_string(),
            r.cots.to_string(),
            f2(r.secs),
            format!("{:.0}", r.cots_per_sec()),
            f2(r.gated_cpu_secs),
            format!("{:.0}", r.cots_per_cpu_sec()),
        ]);
    }
    results
}

/// Instrumented-vs-noop ratio of combined COTs per CPU second across
/// both stages (live measurements vs the baseline file's rates).
fn ratio_against(results: &[Result; 2], json: &str) -> Option<f64> {
    let combined = |rates: &[(f64, f64)]| {
        let cots: f64 = rates.iter().map(|&(c, _)| c).sum();
        let cpu: f64 = rates.iter().map(|&(_, s)| s).sum();
        cots / cpu
    };
    let noop: Vec<(f64, f64)> = results
        .iter()
        .map(|r| {
            let c = r.gated_cots as f64;
            baseline_rate(json, r.name).map(|rate| (c, c / rate))
        })
        .collect::<Option<_>>()?;
    let live: Vec<(f64, f64)> = results
        .iter()
        .map(|r| (r.gated_cots as f64, r.gated_cpu_secs))
        .collect();
    Some(combined(&live) / combined(&noop))
}

fn stages_json(results: &[Result; 2]) -> String {
    let mut stages = String::new();
    for (i, r) in results.iter().enumerate() {
        stages.push_str(&format!(
            "    {{\"name\": \"{}\", \"cots\": {}, \"secs\": {:.6}, \"cots_per_sec\": {:.1}, \
             \"gated_cpu_secs\": {:.6}, \"cots_per_cpu_sec\": {:.1}}}{}\n",
            r.name,
            r.cots,
            r.secs,
            r.cots_per_sec(),
            r.gated_cpu_secs,
            r.cots_per_cpu_sec(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    stages
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // `--pair-with <noop binary>`: interleave rounds against the no-op
    // build and gate on the median per-round ratio (see below).
    let pair_with = {
        let mut args = std::env::args();
        args.find(|a| a == "--pair-with").and_then(|_| args.next())
    };
    let ferret = FerretConfig::recommended(FerretParams::toy());
    let batch = 2000;
    // The gate compares CPU seconds per COT, not wall time: the work per
    // COT is deterministic, so its CPU floor reproduces tightly across
    // runs, while wall time on a shared box swings far more than the 3%
    // threshold this head-to-head enforces.
    let (requests, chunks, scrape_passes) = if quick {
        (400, 400, 20)
    } else {
        (1000, 1000, 100)
    };

    if MODE == "noop" {
        let results = measure(&ferret, requests, chunks, batch);
        let stages = stages_json(&results);
        let json = format!(
            "{{\n  \"bench\": \"telemetry_overhead_baseline\",\n  \"quick\": {quick},\n  \"results\": [\n{stages}  ]\n}}\n"
        );
        std::fs::write(BASELINE_PATH, &json).expect("write baseline json (run from the repo root)");
        println!("\nwrote {BASELINE_PATH} (no-op baseline; run the instrumented build next)");
        return;
    }

    // Instrumented build. Even CPU-per-COT drifts a few percent when the
    // box shifts frequency state, and those states persist for seconds —
    // longer than the gap between CI's two halves. So when `--pair-with`
    // names the no-op binary, each round re-runs the baseline *adjacent*
    // to the live measurement and the gate takes the median per-round
    // ratio: a state flip can contaminate one round, not the median.
    let mut ratios = Vec::new();
    let mut results = None;
    if let Some(noop_bin) = &pair_with {
        let rounds = 5;
        for round in 0..rounds {
            let mut cmd = std::process::Command::new(noop_bin);
            if quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().expect("spawn the no-op baseline binary");
            assert!(status.success(), "no-op baseline run failed");
            let live = measure(&ferret, requests, chunks, batch);
            let baseline =
                std::fs::read_to_string(BASELINE_PATH).expect("baseline written by paired run");
            let ratio = ratio_against(&live, &baseline).expect("parse baseline rates");
            println!("round {}/{rounds}: ratio {ratio:.4}", round + 1);
            ratios.push(ratio);
            results = Some(live);
        }
        ratios.sort_by(f64::total_cmp);
    } else {
        let live = measure(&ferret, requests, chunks, batch);
        if let Ok(baseline) = std::fs::read_to_string(BASELINE_PATH) {
            ratios.extend(ratio_against(&live, &baseline));
        }
        results = Some(live);
    }
    let results = results.expect("at least one measurement round");
    let ratio = (!ratios.is_empty()).then(|| ratios[ratios.len() / 2]);
    match ratio {
        Some(ratio) => println!(
            "\ninstrumented vs no-op, combined COTs per CPU second: {:.4}x ({:.2}% overhead, \
             median of {} round(s))",
            ratio,
            (1.0 - ratio).max(0.0) * 100.0,
            ratios.len()
        ),
        None => println!(
            "\nno usable {BASELINE_PATH} found — run the telemetry-noop build first (or pass \
             --pair-with <noop binary>) for the head-to-head ratio"
        ),
    }

    let (passes, scrape_secs) = bench_scrape(&ferret, scrape_passes);
    let per_scrape_us = scrape_secs / passes as f64 * 1e6;
    println!(
        "fleet scrape-merge (3 servers, fresh sessions per pass): {passes} passes, \
         {per_scrape_us:.0} us/scrape"
    );

    let stages = stages_json(&results);
    let ratio_json = ratio.map_or("null".to_string(), |r| format!("{r:.4}"));
    let rounds_json = ratios
        .iter()
        .map(|r| format!("{r:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"quick\": {quick},\n  \
         \"overhead_ratio\": {ratio_json},\n  \"ratio_rounds\": [{rounds_json}],\n  \
         \"scrape\": {{\"servers\": 3, \"passes\": {passes}, \"secs\": {scrape_secs:.6}, \
         \"us_per_scrape\": {per_scrape_us:.1}}},\n  \"results\": [\n{stages}  ]\n}}\n"
    );
    std::fs::write(RESULT_PATH, &json).expect("write result json (run from the repo root)");
    let _ = std::fs::remove_file(BASELINE_PATH);
    println!("wrote {RESULT_PATH}");
}
