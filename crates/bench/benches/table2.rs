//! Table II — averaged measured times under the SVG-filtering attack
//! (low/high resolution) and Loopscan (google/youtube), per defense.
//!
//! Run with `cargo bench -p jsk-bench --bench table2` (`JSK_JOBS=n` fans
//! the per-defense columns across workers; fixed seeds keep the output
//! bit-identical to a serial run).

use jsk_attacks::harness::run_timing_attack_observed;
use jsk_attacks::{Loopscan, SvgFiltering};
use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, Report};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;

/// Table II's published cells: (defense, svg low, svg high, loopscan
/// google, loopscan youtube), in ms.
const PAPER: [(&str, f64, f64, f64, f64); 7] = [
    ("Chrome", 16.66, 18.85, 4.5, 8.8),
    ("Firefox", 16.27, 17.12, 50.0, 74.0),
    ("Edge", 23.85, 25.66, 20.8, 21.1),
    ("Fuzzyfox", 109.09, 145.45, 200.0, 500.0),
    ("Tor Browser", 16.63, 17.81, 500.0, 600.0),
    ("Chrome Zero", 15.71, 21.63, 12.8, 8.1),
    ("JSKernel", 10.0, 10.0, 1.0, 1.0),
];

fn main() {
    let trials = env_knob("JSK_TRIALS", 25);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("table2");
    reporter.knob("JSK_TRIALS", trials);
    let columns = [
        DefenseKind::LegacyChrome,
        DefenseKind::LegacyFirefox,
        DefenseKind::LegacyEdge,
        DefenseKind::Fuzzyfox,
        DefenseKind::TorBrowser,
        DefenseKind::ChromeZero,
        DefenseKind::JsKernel,
    ];
    let mut report = Report::new(
        format!("Table II — Averaged Measured Time of Different Targets ({trials} runs; measured / paper, ms)"),
        &[
            "Defense",
            "SVG low-res",
            "SVG high-res",
            "Loopscan google",
            "Loopscan youtube",
        ],
    );

    let measured: Vec<([f64; 4], Probe)> = pool::run_indexed(columns.len(), jobs, |i| {
        let col = columns[i];
        let mut probe = Probe::default();
        let svg =
            run_timing_attack_observed(&SvgFiltering::default(), col, trials, 0x7AB1E2, &mut |b| {
                probe.observe(b);
            });
        let loop_r = run_timing_attack_observed(
            &Loopscan::default(),
            col,
            trials.min(12),
            0x7AB1E3,
            &mut |b| probe.observe(b),
        );
        let (svg_low, svg_high) = svg.summaries();
        let (ls_google, ls_youtube) = loop_r.summaries();
        eprintln!("  finished {}", col.label());
        (
            [svg_low.mean, svg_high.mean, ls_google.mean, ls_youtube.mean],
            probe,
        )
    });

    const TARGETS: [&str; 4] = [
        "SVG low-res",
        "SVG high-res",
        "Loopscan google",
        "Loopscan youtube",
    ];
    for (i, col) in columns.iter().enumerate() {
        let (means, probe) = &measured[i];
        let paper = PAPER
            .iter()
            .find(|p| p.0 == col.label())
            .copied()
            .unwrap_or((col.label(), f64::NAN, f64::NAN, f64::NAN, f64::NAN));
        report.row(vec![
            col.label().to_owned(),
            format!("{:.2} / {:.2}", means[0], paper.1),
            format!("{:.2} / {:.2}", means[1], paper.2),
            format!("{:.2} / {:.1}", means[2], paper.3),
            format!("{:.2} / {:.1}", means[3], paper.4),
        ]);
        for (t, target) in TARGETS.iter().enumerate() {
            reporter.cell(CellRecord::value(*target, col.label(), means[t], "ms"));
        }
        reporter.absorb(probe);
    }
    report.print();
    println!(
        "\nShape checks: each legacy engine separates low/high SVG and \
         google/youtube; JSKernel's cells are constants, equal across \
         secrets. Known deviations are recorded in EXPERIMENTS.md."
    );
    reporter.finish().expect("write bench JSON");
}
