//! The harness's own statistics: medians, quartiles, the "highest
//! percentile the sample count supports" rule, and the equal-work
//! segment loop every workload's timed phase runs through.
//!
//! No best-of-N anywhere: a rate is a fixed percentile of the run's
//! segments ([`QUIET_PERCENTILE`]), reported with the median segment, its
//! quartiles and the sample count.

use std::time::{Duration, Instant};

/// Fewest equal-work segments a timed phase is cut into, however short
/// the time budget: below this the quartiles mean nothing.
pub const MIN_SEGMENTS: usize = 16;

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1).
pub const TAIL_SAMPLES: usize = 10;

/// The percentile of a run's per-segment rates that the run reports as
/// its rate (a cost per COT is read at the mirror percentile). Not the
/// median: on a shared host the other tenants only ever slow a segment
/// down, for a second or for most of a run, so the median segment moves
/// with how busy the neighbours were while the fast end stays where the
/// program puts it (ten-seed spread of `serve_burst`, one CPU: 7 % at the
/// median, 2 % here). Not the maximum either: with the 30 to 200 segments
/// a run has, three or more lie beyond this one, so a single lucky
/// segment cannot set it. The median and quartiles are printed beside it.
pub const QUIET_PERCENTILE: f64 = 90.0;

/// Sorts a copy of `values` ascending (NaN-free inputs only).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the rule the benchmark driver applies to run-to-run
/// spread, so `--compare` and the driver agree. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on the 1-based sorted sample, clamped to
        // the ends, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least
/// [`TAIL_SAMPLES`] samples beyond it in a sample of `n` — the only tail
/// figure worth printing. `None` when even the median lacks support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        // The exclusive method's middle cut is the plain median.
        let (q1, median, q3) = quartiles(values).unwrap_or_else(|| {
            let only = median(values);
            (only, only, only)
        });
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Runs `segment` — one fixed unit of work per call, the same unit every
/// call — until `budget` has elapsed **and** at least [`MIN_SEGMENTS`]
/// segments ran, handing it the segment index; `segment` returns `false`
/// to stop early (the system under test died). Equal work per segment is
/// what makes a percentile of the segments a rate rather than an average
/// over whatever happened to fit. Returns the number of segments run.
pub fn run_segments(budget: Duration, mut segment: impl FnMut(usize) -> bool) -> usize {
    let start = Instant::now();
    let mut done = 0;
    while done < MIN_SEGMENTS || start.elapsed() < budget {
        let keep_going = segment(done);
        done += 1;
        if !keep_going {
            break;
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 40.0, 120.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// What the quiet percentile is for: a run in which a neighbour
    /// slowed most of the segments still reads the program's own rate,
    /// and one lucky segment does not set it.
    #[test]
    fn quiet_percentile_ignores_slowed_segments_and_one_lucky_one() {
        let mut rates = vec![100.0; 30];
        rates.extend([70.0; 69]); // slowed by the host
        rates.push(140.0); // a glitch
        assert_eq!(percentile(&sorted(&rates), QUIET_PERCENTILE), 100.0);
        assert_eq!(median(&rates), 70.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(64), Some(75.0)); // 16 beyond p75
        assert_eq!(highest_supported_percentile(128), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(400_000), Some(99.9));
    }

    #[test]
    fn segment_loop_runs_minimum_even_with_no_budget() {
        let mut seen = Vec::new();
        let n = run_segments(Duration::ZERO, |i| {
            seen.push(i);
            true
        });
        assert_eq!(n, MIN_SEGMENTS);
        assert_eq!(seen, (0..MIN_SEGMENTS).collect::<Vec<_>>());
    }

    #[test]
    fn segment_loop_keeps_going_until_budget() {
        let budget = Duration::from_millis(40);
        let start = Instant::now();
        let n = run_segments(budget, |_| {
            std::thread::sleep(Duration::from_millis(1));
            true
        });
        assert!(start.elapsed() >= budget);
        assert!(n >= MIN_SEGMENTS);
    }

    #[test]
    fn segment_loop_stops_when_told() {
        assert_eq!(run_segments(Duration::from_secs(60), |i| i < 2), 3);
    }
}
