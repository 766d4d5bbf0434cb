//! The repo's benchmark: one harness for the end-to-end numbers and the
//! per-layer numbers of the Ironman COT stack, measured through the
//! crates' public API only. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out FILE]
//!                                                           every workload, one JSON
//! benchmark --compare A.json B.json [--spec BENCHMARK.json] before/after verdicts
//! ```
//!
//! A workload runs pinned to one CPU unless `--cores all` is given (see
//! `sys::pin_to_one_cpu` for why).

mod check;
mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;
mod sys;
mod workloads;

use run::{Ctx, Opts};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--cores one|all]
      run one workload in this process; the last stdout line is its result
  benchmark [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--cores one|all] [--out FILE]
      run every workload, each in its own child process, and write one JSON
  benchmark --compare A.json B.json [--spec BENCHMARK.json]
      judge B against A per (metric, workload): better / same / worse / unresolved
workloads: extend_table4 extend_lpn_heavy serve_stream serve_burst fleet_oneshot
--cores one (the default) pins a workload to a single CPU: rates are then per core
and repeat; --cores all leaves its threads to the scheduler";

enum Command {
    Single(Opts),
    Suite(suite::SuiteOpts),
    Compare { a: String, b: String, spec: String },
    Help,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut pin = true;
    let mut runs = 1usize;
    let mut out = None;
    let mut compare = None;
    let mut spec = "BENCHMARK.json".to_string();

    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--workload" => workload = Some(value(&mut it, arg)?),
            "--seed" => seed = number(arg, &value(&mut it, arg)?)?,
            "--seconds" => seconds = Some(number::<f64>(arg, &value(&mut it, arg)?)?),
            "--runs" => runs = number(arg, &value(&mut it, arg)?)?,
            "--out" => out = Some(value(&mut it, arg)?),
            "--spec" => spec = value(&mut it, arg)?,
            "--trace" => {
                trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => trace = true,
            "--smoke" => smoke = true,
            "--cores" => {
                pin = match value(&mut it, arg)?.as_str() {
                    "one" => true,
                    "all" => false,
                    other => return Err(format!("--cores takes one or all, not `{other}`")),
                }
            }
            "--compare" => compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Command::Compare { a, b, spec });
    }
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { 10.0 });
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range (0, 600]"));
    }
    Ok(match workload {
        Some(workload) => {
            if !metrics::workload_names().any(|w| w == workload) {
                return Err(format!("unknown workload `{workload}`"));
            }
            Command::Single(Opts {
                workload,
                seed,
                seconds,
                trace,
                smoke,
                pin,
            })
        }
        None => Command::Suite(suite::SuiteOpts {
            seed,
            seconds,
            traced: trace,
            smoke,
            pin,
            runs: runs.max(1),
            out,
        }),
    })
}

/// Runs one workload in this process and prints its result: readable
/// metric lines, a `detail` line for the suite, and — last — the one-line
/// object the benchmark driver reads.
fn single(opts: Opts, process_start: Instant) -> ExitCode {
    // Before the first thread is spawned: every thread inherits it.
    let pinned_cpu = if opts.pin {
        sys::pin_to_one_cpu()
    } else {
        None
    };
    let mut ctx = Ctx::new(opts, process_start, pinned_cpu);
    if let Err(e) = workloads::run(&mut ctx) {
        eprintln!("benchmark: {}: {e}", ctx.opts.workload);
        return ExitCode::FAILURE;
    }
    if ctx.opts.trace {
        ctx.finish_latency_metrics();
        ctx.finish_trace_metrics();
        let path = format!("benchmark/out/trace-{}.json", ctx.opts.workload);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, ctx.spans.to_json(&ctx.opts.workload).pretty()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("benchmark: could not write {path}: {e}"),
        }
    }
    if ctx.check.failed > 0 {
        eprintln!(
            "benchmark: {}: {} of {} operations failed: {:?}",
            ctx.opts.workload, ctx.check.failed, ctx.check.attempted, ctx.check.why
        );
    }
    let (detail, contract) = ctx.result();
    suite::print_workload(&detail);
    println!("detail {}", detail.compact());
    println!("{}", contract.compact());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Single(opts)) => single(opts, process_start),
        Ok(Command::Suite(opts)) => suite::run(&opts),
        Ok(Command::Compare { a, b, spec }) => compare::run(&a, &b, &spec),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form_selects_one_workload() {
        let Ok(Command::Single(o)) = parse(&args(
            "--workload serve_burst --seed 9 --seconds 3 --trace 1",
        )) else {
            panic!("expected a single-workload command");
        };
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve_burst", 9, 3.0, true)
        );
        assert!(!o.smoke && o.pin);
    }

    #[test]
    fn cores_all_unpins() {
        let Ok(Command::Single(o)) = parse(&args("--workload serve_burst --cores all")) else {
            panic!("expected a single-workload command");
        };
        assert!(!o.pin);
    }

    #[test]
    fn no_workload_means_the_whole_suite() {
        let Ok(Command::Suite(s)) = parse(&args("--smoke --runs 2")) else {
            panic!("expected the suite");
        };
        assert!(s.smoke && !s.traced);
        assert_eq!((s.runs, s.seed, s.seconds), (2, 1, 1.0));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--bogus",
            "--cores two",
            "--compare only-one",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
