//! Table III — average website loading time in Raptor tp6-1 (hero element),
//! mean ± std, for Chrome and Firefox with and without JSKernel.
//!
//! Run with `cargo bench -p jsk-bench --bench table3` (`JSK_JOBS=n` fans
//! the site × configuration cells across workers).

use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, Report};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;
use jsk_workloads::raptor::{run_subtest_observed, RaptorRow, TP6_SITES};

/// Table III's published means (ms): (site, chrome, jskernel-on-chrome,
/// firefox, jskernel-on-firefox).
const PAPER: [(&str, f64, f64, f64, f64); 4] = [
    ("amazon", 107.2, 109.3, 809.1, 831.9),
    ("facebook", 178.8, 172.1, 1018.9, 1005.0),
    ("google", 48.3, 51.3, 400.7, 425.4),
    ("youtube", 298.9, 308.9, 1249.8, 1136.8),
];

fn main() {
    let repeats = env_knob("JSK_TRIALS", 25);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("table3");
    reporter.knob("JSK_TRIALS", repeats);
    let columns = [
        DefenseKind::LegacyChrome,
        DefenseKind::JsKernel,
        DefenseKind::LegacyFirefox,
        DefenseKind::JsKernelFirefox,
    ];
    let mut report = Report::new(
        format!("Table III — Raptor tp6-1 loading time, {repeats} loads (first skipped); measured mean±std / paper mean, ms"),
        &["Subtest", "Chrome", "JSKernel (C)", "Firefox", "JSKernel (F)"],
    );

    // One work item per (site, configuration) cell.
    let ncols = columns.len();
    let cells: Vec<(RaptorRow, Probe)> = pool::run_indexed(TP6_SITES.len() * ncols, jobs, |i| {
        let (s, c) = (i / ncols, i % ncols);
        let col = columns[c];
        let mut probe = Probe::default();
        let row = run_subtest_observed(TP6_SITES[s], repeats, |seed| col.build(seed), &mut |b| {
            probe.observe(b);
        });
        eprintln!("  finished {} × {}", TP6_SITES[s], col.label());
        (row, probe)
    });

    for (s, site) in TP6_SITES.iter().enumerate() {
        let mut text_cells = vec![(*site).to_owned()];
        let paper = PAPER[PAPER.iter().position(|p| p.0 == *site).unwrap_or(s)];
        let paper_means = [paper.1, paper.2, paper.3, paper.4];
        for (c, col) in columns.iter().enumerate() {
            let (row, probe) = &cells[s * ncols + c];
            text_cells.push(format!(
                "{:.1}±{:.1} / {:.1}",
                row.mean_ms, row.std_ms, paper_means[c]
            ));
            reporter.cell(CellRecord::value(*site, col.label(), row.mean_ms, "ms"));
            reporter.absorb(probe);
        }
        report.row(text_cells);
    }
    report.print();
    println!(
        "\nShape checks: JSKernel's deltas stay within a standard deviation \
         of the legacy mean (the paper's 2.75% Chrome / 3.85% Firefox hero \
         overhead); Firefox runs several times slower than Chrome."
    );
    reporter.finish().expect("write bench JSON");
}
