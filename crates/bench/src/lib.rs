//! # jsk-bench — evaluation harnesses
//!
//! One benchmark target per table/figure of the paper (see DESIGN.md §4 for
//! the index), plus Criterion micro-benchmarks of the kernel's data
//! structures. Each harness prints the paper's reported values next to the
//! measured ones, and EXPERIMENTS.md records the comparison.
//!
//! Environment knobs: `JSK_TRIALS` (timing-attack trials per secret,
//! default 25), `JSK_SITES` (Figure 3 site count, default 500),
//! `JSK_COMPAT_SITES` (compatibility check population, default 100),
//! `JSK_JOBS` (bench worker threads, default: available parallelism),
//! `JSK_SHARDS` (serving shards for the `shards` target, default 4),
//! `JSK_HOTPATH_ROUNDS` (hot-path phase scaling, default 1 000 000),
//! `JSK_REGRESS_TOL` (regression-gate tolerance in percent, default 25),
//! `JSK_BENCH_OUT` (output root override for the JSON artifacts).
//!
//! Shared runtime: [`pool`] fans deterministic trials across worker
//! threads, [`record`] emits the machine-readable `BENCH_<target>.json`
//! perf artifacts, and [`regress`] gates fresh runs against the committed
//! `bench_results/baseline.json`.

use std::fmt::Write as _;

pub mod pool;
pub mod record;
pub mod regress;

/// A printable table with a title, column headers, and string rows.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report with headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Report {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a defended/vulnerable verdict cell like the paper's glyphs.
#[must_use]
pub fn verdict_cell(defended: bool) -> String {
    if defended {
        "✓".to_owned()
    } else {
        "✗".to_owned()
    }
}

/// Formats "measured (paper: expected)" cells.
#[must_use]
pub fn vs_paper(measured: f64, paper: f64, unit: &str) -> String {
    format!("{measured:.2}{unit} (paper {paper:.2}{unit})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_rows() {
        let mut r = Report::new("T", &["a", "bbbb"]);
        r.row(vec!["x".into(), "y".into()]);
        r.row(vec!["long".into(), "z".into()]);
        let s = r.render();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("long"));
        // Leading blank line + title + header + rule + 2 rows.
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn report_rejects_misaligned_rows() {
        let mut r = Report::new("T", &["a"]);
        r.row(vec!["x".into(), "y".into()]);
    }

    // The bench binaries read their knobs through `jsk_sim::knob`; these
    // pin the fallback semantics every committed `bench_results/` record
    // was produced under.
    use jsk_sim::knob::{env_knob, parse_knob};

    #[test]
    fn knobs_parse_and_default() {
        assert_eq!(env_knob("JSK_DOES_NOT_EXIST", 7), 7);
    }

    #[test]
    fn knob_parses_valid_values() {
        assert_eq!(parse_knob("JSK_X", "12", 7), 12);
        assert_eq!(parse_knob("JSK_X", " 3 ", 7), 3, "whitespace tolerated");
    }

    #[test]
    fn knob_falls_back_on_garbage() {
        assert_eq!(parse_knob("JSK_X", "abc", 7), 7);
        assert_eq!(parse_knob("JSK_X", "", 7), 7);
        assert_eq!(parse_knob("JSK_X", "12.5", 7), 7);
    }

    #[test]
    fn knob_rejects_non_positive() {
        assert_eq!(parse_knob("JSK_X", "0", 7), 7);
        assert_eq!(parse_knob("JSK_X", "-3", 7), 7);
    }

    #[test]
    fn env_knob_reads_set_variables() {
        // Unique variable names per assertion: the test harness runs
        // tests concurrently and the environment is process-global.
        std::env::set_var("JSK_TEST_KNOB_VALID", "9");
        assert_eq!(env_knob("JSK_TEST_KNOB_VALID", 7), 9);
        std::env::set_var("JSK_TEST_KNOB_BAD", "abc");
        assert_eq!(env_knob("JSK_TEST_KNOB_BAD", 7), 7);
        std::env::set_var("JSK_TEST_KNOB_ZERO", "0");
        assert_eq!(env_knob("JSK_TEST_KNOB_ZERO", 7), 7);
    }

    #[test]
    fn cells_format() {
        assert_eq!(verdict_cell(true), "✓");
        assert_eq!(verdict_cell(false), "✗");
        assert!(vs_paper(1.5, 2.0, "ms").contains("paper 2.00ms"));
    }
}
