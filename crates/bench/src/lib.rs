//! Table formatting shared by this crate's two binaries: `paper`, which
//! regenerates the paper's tables and figures, and `telemetry_overhead`.
//! Throughput, set-up time and per-layer costs are measured by the
//! `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Prints a header row followed by a separator sized to the columns.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Prints one row of up-to-14-character cells.
pub fn row<D: Display>(cells: &[D]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float with 2 decimals (table cell).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as `x.x×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(times(2.5), "2.50x");
        assert_eq!(pct(0.25), "25.0%");
    }
}
