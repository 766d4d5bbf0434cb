//! The whole benchmark in one command: every workload, each in its own
//! child process (so `setup_s` and `peak_rss_mb` are per workload), every
//! metric printed by name with its unit, one JSON written.

use crate::json::{obj, Json};
use crate::metrics::{workload_names, END_TO_END, NOT_GATED, PER_LAYER};
use crate::sys;
use std::process::{Command, ExitCode};

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub pin: bool,
    pub runs: usize,
    pub out: Option<String>,
}

/// What the sizing runs behind ISSUE 11 measured for the phase split, so
/// a first baseline can be sanity-checked at a glance.
fn expected(workload: &str, metric: &str) -> Option<&'static str> {
    Some(match (workload, metric) {
        ("extend_table4", "ot.spcot_share") => "expected ~0.63",
        ("extend_table4", "ot.lpn_share") => "expected ~0.31",
        ("extend_table4", "ot.glue_share") => "expected ~0.06",
        ("extend_lpn_heavy", "ot.spcot_share") => "expected ~0.15",
        ("extend_lpn_heavy", "ot.lpn_share") => "expected ~0.78",
        ("extend_lpn_heavy", "ot.glue_share") => "expected ~0.07",
        ("serve_burst" | "fleet_oneshot", "core.stall_share") => "expected ~0",
        ("serve_stream", "core.stall_share") => "expected high: supply-bound",
        (_, "net.scratch_allocs") => "must stay 0 in steady state",
        (_, "cluster.unavailable_seen") => "must be 0",
        (_, "nmp.sim_cots_per_s" | "cache.sim_hit_rate" | "perf.cpu_model_cots_per_s") => {
            "simulated, not host time"
        }
        (_, "lpn.gather_gbps") => "computed: gathers x 16 B",
        _ => return None,
    })
}

fn metric_value(detail: &Json, group: &str, name: &str) -> Option<f64> {
    detail.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Prints one workload's result: every metric by name, with its unit,
/// and the median, quartiles and count of the samples it was read from.
pub fn print_workload(detail: &Json) {
    let workload = detail.get("workload").and_then(Json::as_str).unwrap_or("?");
    let num = |key: &str| detail.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "== {workload}  seed {}  {:.1} s timed in {} segments, {} COTs verified, failed {}/{} (failed_share {})",
        num("seed"),
        num("timed_wall_s"),
        num("segments"),
        num("verified_cots"),
        num("failed"),
        num("attempted"),
        num("failed_share"),
    );
    let traced = detail
        .get("traced")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let (group, defs): (&str, &[_]) = if traced {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    };
    for def in defs {
        let Some(m) = detail.get(group).and_then(|g| g.get(def.name)) else {
            continue;
        };
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let mut line = format!("  {:<32} {:>16.6} {:<6}", def.name, value, def.unit);
        if let (Some(median), Some(q1), Some(q3), Some(n)) = (
            m.get("median").and_then(Json::as_f64),
            m.get("q1").and_then(Json::as_f64),
            m.get("q3").and_then(Json::as_f64),
            m.get("n").and_then(Json::as_f64),
        ) {
            line.push_str(&format!(
                "  median {median:.6}  q1 {q1:.6}  q3 {q3:.6}  n {n}"
            ));
        }
        if let Some(note) = expected(workload, def.name) {
            line.push_str(&format!("  ({note})"));
        }
        println!("{line}");
    }
    if let Some(r) = detail.get("request") {
        let us = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  unit request: p50 {:.3} us  q1 {:.3}  q3 {:.3}  n {}",
            us("p50_us"),
            us("q1_us"),
            us("q3_us"),
            us("n")
        );
    }
    if let Some(tail) = detail.get("request_tail").filter(|t| **t != Json::Null) {
        println!(
            "  request tail: p{} = {:.3} us over {} samples (highest percentile with >= 10 samples beyond it)",
            tail.get("percentile").and_then(Json::as_f64).unwrap_or(0.0),
            tail.get("us").and_then(Json::as_f64).unwrap_or(0.0),
            tail.get("n").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    if let Some(o) = detail.get("oversubscription") {
        println!(
            "  threads: {} alive, {:.2} runnable on average, {} cores{}; link: loopback",
            o.get("threads_alive").and_then(Json::as_f64).unwrap_or(0.0),
            o.get("runnable_threads")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            o.get("cores").and_then(Json::as_f64).unwrap_or(0.0),
            o.get("pinned_cpu")
                .and_then(Json::as_f64)
                .map_or(String::new(), |cpu| format!(" (pinned to CPU {cpu})")),
        );
    }
}

/// Runs one workload in a child process and returns its `detail` object.
fn run_child(opts: &SuiteOpts, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd.args(["--cores", if opts.pin { "one" } else { "all" }]);
    // Waits for the child: nothing is left running behind the suite.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload} printed no detail line"))?;
    Json::parse(line).map_err(|e| format!("{workload} detail line: {e}"))
}

/// The relations ISSUE 11's acceptance criteria name, evaluated on one
/// run's results (reported, not gated: they describe the system, and a
/// later change may legitimately move them).
fn checks(traced: bool, results: &[(String, Json)]) -> Vec<(String, bool)> {
    let get = |workload: &str, group: &str, name: &str| {
        results
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, d)| metric_value(d, group, name))
    };
    let mut out = Vec::new();
    if traced {
        if let (Some(s), Some(l)) = (
            get("extend_table4", "per_layer", "ot.spcot_share"),
            get("extend_table4", "per_layer", "ot.lpn_share"),
        ) {
            out.push((
                "extend_table4: ot.spcot_share > ot.lpn_share".to_string(),
                s > l,
            ));
        }
        if let (Some(s), Some(l)) = (
            get("extend_lpn_heavy", "per_layer", "ot.spcot_share"),
            get("extend_lpn_heavy", "per_layer", "ot.lpn_share"),
        ) {
            out.push((
                "extend_lpn_heavy: ot.lpn_share > ot.spcot_share".to_string(),
                l > s,
            ));
        }
        for (workload, _) in results {
            if let Some(o) = get(workload, "per_layer", "trace.overhead_share") {
                out.push((
                    format!("{workload}: trace.overhead_share <= 0.05"),
                    o <= 0.05,
                ));
            }
        }
    } else if let (Some(burst), Some(stream)) = (
        get("serve_burst", "end_to_end", "cots_per_s"),
        get("serve_stream", "end_to_end", "cots_per_s"),
    ) {
        out.push((
            "serve_burst cots_per_s >= 2x serve_stream cots_per_s".to_string(),
            burst >= 2.0 * stream,
        ));
    }
    for (workload, detail) in results {
        let failed = detail.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        out.push((format!("{workload}: failed_share == 0"), failed == 0.0));
    }
    out
}

pub fn run(opts: &SuiteOpts) -> ExitCode {
    println!(
        "ironman benchmark: {} run(s) x {} workloads, {} s each, {}{}; closed loop, one load thread, loopback TCP, {}",
        opts.runs,
        workload_names().count(),
        opts.seconds,
        if opts.traced { "traced (per-layer)" } else { "untraced (end-to-end)" },
        if opts.smoke { ", SMOKE (toy parameters: not quotable)" } else { "" },
        if opts.pin {
            "each workload pinned to one CPU (rates are per core)".to_string()
        } else {
            format!("{} cores", sys::nproc())
        },
    );
    let mut runs = Vec::new();
    let mut all_ok = true;
    for run in 0..opts.runs {
        let seed = opts.seed + run as u64;
        let mut results = Vec::new();
        for workload in workload_names() {
            match run_child(opts, workload, seed) {
                Ok(detail) => {
                    print_workload(&detail);
                    if workload == NOT_GATED {
                        println!("  (diagnostic: not among BENCHMARK.json's gated workloads)");
                    }
                    all_ok &= detail.get("correct").and_then(Json::as_bool) == Some(true);
                    results.push((workload.to_string(), detail));
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    all_ok = false;
                }
            }
        }
        // The relations describe Table-4 scale; at toy scale only the
        // failure check means anything.
        let mut verdicts = checks(opts.traced, &results);
        if opts.smoke {
            verdicts.retain(|(what, _)| what.ends_with("failed_share == 0"));
        }
        for (what, ok) in &verdicts {
            println!(
                "  check: {what}: {}",
                if *ok { "holds" } else { "DOES NOT HOLD" }
            );
        }
        runs.push(obj([
            ("seed", Json::from(seed)),
            ("workloads", obj(results)),
            (
                "checks",
                obj(verdicts
                    .into_iter()
                    .map(|(what, ok)| (what, Json::from(ok)))),
            ),
        ]));
    }
    let document = obj([
        ("benchmark", Json::from("ironman")),
        ("smoke", Json::from(opts.smoke)),
        ("traced", Json::from(opts.traced)),
        ("seconds", Json::from(opts.seconds)),
        ("environment", sys::environment(opts.seed)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = opts.out.clone().unwrap_or_else(|| {
        format!(
            "benchmark/out/result{}{}.json",
            if opts.traced { "-traced" } else { "" },
            if opts.smoke { "-smoke" } else { "" }
        )
    });
    let written = std::path::Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, document.pretty()));
    match written {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("benchmark: could not write {path}: {e}");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
