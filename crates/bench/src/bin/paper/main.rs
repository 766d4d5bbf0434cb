//! Regenerates the paper's tables and figures, one report per name
//! (nothing it prints is checked in).
//!
//! ```text
//! paper --list      the report names, in the order `all` runs them
//! paper <name>...   those reports
//! paper all         every report
//! ```
//!
//! A report that panics takes the process down with it, so the exit
//! status of `paper all` is non-zero unless every report ran to its end.

mod extras;
mod figures;
mod tables;

use extras::{ablation_sorting, comm_comparison, energy_comparison};
use figures::{
    fig01_breakdown, fig01_latency_split, fig01_roofline, fig07_mary, fig08_schedule,
    fig12_ote_speedup, fig13_ablation, fig14_cache, fig15_nonlinear, fig16_matmul,
};
use ironman_core::speedup::{speedup_cell, SpeedupRow};
use ironman_ot::params::FerretParams;
use std::process::ExitCode;
use tables::{tab02_prg, tab03_config, tab04_params, tab05_e2e, tab06_area_power};

/// How much of its grid a report prints: all of it, or the smallest
/// slice that still runs every code path (what the test below drives,
/// in a debug build, in a few seconds).
#[derive(Clone, Copy)]
pub enum Size {
    Full,
    Smallest,
}

impl Size {
    /// `all` at full size, its first `n` items at the smallest.
    fn take<T>(self, all: &[T], n: usize) -> &[T] {
        match self {
            Size::Full => all,
            Size::Smallest => &all[..n],
        }
    }
}

/// Fig. 14's cache-capacity axis, which Table 6's area column repeats.
const CACHES_KB: [usize; 7] = [32, 64, 128, 256, 512, 1024, 2048];

/// A parameter set's `#OTs` cell.
fn log_label(p: &FerretParams) -> String {
    format!("2^{}", p.log_target)
}

/// One Fig. 12 cell at the flagship shape: the 2^20 set on 16 ranks.
fn flagship_cell(cache_bytes: usize, seed: u64) -> SpeedupRow {
    speedup_cell(FerretParams::OT_2POW20, 16, cache_bytes, seed)
}

/// The simulated OT-extension speedup over the CPU baseline that the
/// PPML compositions (Fig. 15, Table 5) rescale by: 16 ranks, 1 MB.
fn flagship_speedup(seed: u64) -> f64 {
    flagship_cell(1024 * 1024, seed).speedup_vs_cpu()
}

/// Name, what it regenerates, and the function that prints it.
type Report = (&'static str, &'static str, fn(Size));

#[rustfmt::skip]
const REPORTS: [Report; 18] = [
    ("fig01a", "Fig. 1(a): execution-time breakdown per framework", fig01_breakdown),
    ("fig01b", "Fig. 1(b): CPU Ferret latency split", fig01_latency_split),
    ("fig01c", "Fig. 1(c): roofline points of SPCOT and LPN", fig01_roofline),
    ("tab02", "Table 2: PRG hardware comparison", tab02_prg),
    ("tab03", "Table 3: simulated system configuration", tab03_config),
    ("tab04", "Table 4: OT-extension parameter sets", tab04_params),
    ("fig07", "Fig. 7: m-ary tree sweep", fig07_mary),
    ("fig08", "Fig. 8: GGM expansion schedules", fig08_schedule),
    ("fig12", "Fig. 12: OTE latency on CPU, GPU and Ironman", fig12_ote_speedup),
    ("fig13", "Fig. 13: SPCOT ablation, SPCOT vs LPN across ranks", fig13_ablation),
    ("fig14", "Fig. 14: memory-side cache sweep", fig14_cache),
    ("fig15", "Fig. 15: nonlinear-operator latency", fig15_nonlinear),
    ("fig16", "Fig. 16: OT-based MatMul, unified architecture", fig16_matmul),
    ("tab05", "Table 5: end-to-end PPML inference latency", tab05_e2e),
    ("tab06", "Table 6: Ironman-NMP design overhead", tab06_area_power),
    ("sorting", "5.3's column first-use sort vs unsorted, one rank's 2^20 partition", ablation_sorting),
    ("energy", "energy per COT across backends", energy_comparison),
    ("comm", "IKNP vs PCG communication, measured", comm_comparison),
];

/// What `--list` prints: one `name  description` line per report.
fn list() -> String {
    REPORTS
        .iter()
        .map(|(name, what, _)| format!("{name:<8} {what}\n"))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--list") {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    let mut chosen = Vec::new();
    for arg in &args {
        if arg == "all" {
            chosen.extend(&REPORTS);
        } else if let Some(report) = REPORTS.iter().find(|(name, ..)| name == arg) {
            chosen.push(report);
        } else {
            eprintln!("paper: no report `{arg}`; the reports are\n{}", list());
            return ExitCode::from(2);
        }
    }
    for (_, _, run) in chosen {
        run(Size::Full);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing else executes the reports: CI would otherwise only
    /// compile them, and a panicking generator would go unseen.
    #[test]
    fn every_report_runs_at_its_smallest_size() {
        for (_, _, run) in REPORTS {
            run(Size::Smallest);
        }
    }

    #[test]
    fn list_is_the_dispatch_table() {
        let listed: Vec<String> = list()
            .lines()
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect();
        let names: Vec<&str> = REPORTS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(listed, names);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name dispatches to one report");
        assert!(!names.contains(&"all"), "`all` is the loop, not a report");
    }
}
