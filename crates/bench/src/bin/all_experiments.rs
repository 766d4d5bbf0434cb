//! Runs every table/figure generator in sequence — the one-shot command
//! that regenerates every paper table and figure this repository models
//! (nothing it prints is checked in). Equivalent to running each
//! `fig*`/`tab*` binary individually.

use std::process::Command;

const BINS: [&str; 13] = [
    "fig01_breakdown",
    "fig01_latency_split",
    "fig01_roofline",
    "tab02_prg",
    "tab03_config",
    "tab04_params",
    "fig07_mary",
    "fig08_schedule",
    "fig12_ote_speedup",
    "fig13_ablation",
    "fig14_cache",
    "fig15_nonlinear",
    "fig16_matmul",
];

const BINS_TAIL: [&str; 5] = [
    "tab05_e2e",
    "tab06_area_power",
    "ablation_sorting",
    "energy_comparison",
    "comm_comparison",
];

fn main() {
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("bin directory").to_path_buf();
    for bin in BINS.iter().chain(BINS_TAIL.iter()) {
        let path = dir.join(bin);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo when siblings aren't built yet.
            Command::new("cargo")
                .args([
                    "run",
                    "-q",
                    "--release",
                    "-p",
                    "ironman-bench",
                    "--bin",
                    bin,
                ])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!("failed to launch {bin}: {e}"),
        }
    }
}
