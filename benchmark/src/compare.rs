//! `--compare A.json B.json`: the rule behind every before/after table
//! and behind "two sets of runs of one commit agree".
//!
//! For each (end-to-end metric, workload) pair, B's median is judged
//! against A's with the metric's bound from `BENCHMARK.json`:
//! `worse` / `better` when it moved by more than the bound, `same`
//! otherwise — but only when the comparison is *resolved*: both sides'
//! inter-quartile spread (Python's `statistics.quantiles(n=4)`, as a
//! share of the median) is within the bound, or every run of one side
//! beats every run of the other. Anything else is `unresolved`, which is
//! not `same`. `failed_share` has no bound: any increase is `worse`.

use crate::json::Json;
use crate::metrics::{workload_names, Better, END_TO_END};
use crate::stats::Summary;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges runs `b` against runs `a` of one metric on one workload.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    // Orient so that larger is better.
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let oriented = |v: &[f64]| -> (f64, f64) {
        v.iter()
            .map(|x| x * sign)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (oriented(a), oriented(b));
    if a_lo == a_hi && b_lo == b_hi && a_lo == b_lo {
        return Verdict::Same; // a count that repeats exactly on both sides
    }
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let spreads_known = a.len() >= 2 && b.len() >= 2;
    let steady = spreads_known && sa.spread() <= bound && sb.spread() <= bound;
    let disjoint = b_lo > a_hi || a_lo > b_hi;
    if !(steady || disjoint) {
        return Verdict::Unresolved;
    }
    if sa.median == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = (sb.median - sa.median) / sa.median.abs() * sign;
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct ResultFile {
    path: String,
    doc: Json,
}

impl ResultFile {
    fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_doc(path, doc)
    }

    fn from_doc(path: &str, doc: Json) -> Result<ResultFile, String> {
        if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path}: a smoke run (toy parameters) — its numbers must not be compared or quoted"
            ));
        }
        if doc.get("traced").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{path}: a traced run — end-to-end metrics are only measured with tracing off"
            ));
        }
        Ok(ResultFile {
            path: path.to_string(),
            doc,
        })
    }

    fn runs(&self) -> &[Json] {
        self.doc.get("runs").and_then(Json::as_array).unwrap_or(&[])
    }

    /// One value per run of `metric` on `workload`.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs()
            .iter()
            .filter_map(|run| {
                run.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    /// One `failed_share` per run of `workload`.
    fn failed_shares(&self, workload: &str) -> Vec<f64> {
        self.runs()
            .iter()
            .filter_map(|run| {
                run.get("workloads")?
                    .get(workload)?
                    .get("failed_share")?
                    .as_f64()
            })
            .collect()
    }
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(spec_path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{spec_path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{spec_path}: malformed end_to_end entry"))
}

pub fn run(a_path: &str, b_path: &str, spec_path: &str) -> ExitCode {
    let loaded = ResultFile::load(a_path)
        .and_then(|a| Ok((a, ResultFile::load(b_path)?, bounds(spec_path)?)));
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: --compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "A = {} ({} run(s)), B = {} ({} run(s)); bounds from {spec_path}",
        a.path,
        a.runs().len(),
        b.path,
        b.runs().len()
    );
    println!(
        "{:<18} {:<16} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound"
    );
    let mut counts = [0usize; 4];
    for workload in workload_names() {
        for def in &END_TO_END {
            let Some(&(_, bound)) = bounds.iter().find(|(name, _)| name == def.name) else {
                eprintln!(
                    "benchmark: --compare: {spec_path} has no bound for {}",
                    def.name
                );
                return ExitCode::from(2);
            };
            let (va, vb) = (a.values(workload, def.name), b.values(workload, def.name));
            let v = verdict(&va, &vb, def.better, bound);
            counts[v as usize] += 1;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            // A spread needs at least two runs.
            let iqr = |s: &Summary| match s.n {
                0 | 1 => "n/a".to_string(),
                _ => format!("{:.1}%", s.spread() * 100.0),
            };
            println!(
                "{:<18} {:<16} {:>14.6} {:>8} {:>14.6} {:>8} {:>+7.1}% {:>5.0}%  {}",
                workload,
                def.name,
                sa.median,
                iqr(&sa),
                sb.median,
                iqr(&sb),
                if sa.median == 0.0 {
                    0.0
                } else {
                    (sb.median - sa.median) / sa.median * 100.0
                },
                bound * 100.0,
                v.as_str()
            );
        }
        // No bound: baseline is 0 and any increase is a regression.
        let worst = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        let (fa, fb) = (
            worst(a.failed_shares(workload)),
            worst(b.failed_shares(workload)),
        );
        let v = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Same
        };
        counts[v as usize] += 1;
        println!(
            "{:<18} {:<16} {:>14.6} {:>8} {:>14.6} {:>8} {:>8} {:>6}  {}",
            workload,
            "failed_share",
            fa,
            "",
            fb,
            "",
            "",
            "any",
            v.as_str()
        );
    }
    println!(
        "better {}, same {}, worse {}, unresolved {}",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    if counts[Verdict::Worse as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn within_bound_is_same() {
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(verdict(&STEADY_A, &b, Better::Higher, 0.10), Verdict::Same);
        assert_eq!(verdict(&STEADY_A, &b, Better::Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn beyond_bound_follows_the_metric_direction() {
        let b = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&STEADY_A, &b, Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(verdict(&STEADY_A, &b, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&b, &STEADY_A, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            verdict(&STEADY_A, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &STEADY_A, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_spread_resolves_when_every_run_beats_every_run() {
        let noisy_but_higher = [150.0, 200.0, 250.0, 180.0, 220.0];
        assert_eq!(
            verdict(&STEADY_A, &noisy_but_higher, Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&STEADY_A, &noisy_but_higher, Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn single_runs_resolve_only_by_strict_order() {
        assert_eq!(
            verdict(&[100.0], &[105.0], Better::Higher, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[100.0], &[125.0], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[100.0], &[100.0], Better::Lower, 0.01),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[], &[1.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn smoke_and_traced_files_are_rejected() {
        let doc = |smoke: bool, traced: bool| {
            crate::json::obj([
                ("smoke", Json::from(smoke)),
                ("traced", Json::from(traced)),
                ("runs", Json::Arr(vec![])),
            ])
        };
        assert!(ResultFile::from_doc("ok.json", doc(false, false)).is_ok());
        assert!(ResultFile::from_doc("smoke.json", doc(true, false)).is_err());
        assert!(ResultFile::from_doc("traced.json", doc(false, true)).is_err());
        assert!(ResultFile::from_doc("empty.json", crate::json::obj::<String>([])).is_err());
    }
}
