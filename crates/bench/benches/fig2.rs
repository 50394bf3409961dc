//! Figure 2 — the script-parsing attack's reported time vs. file size
//! (2–10 MB), one series per defense.
//!
//! The paper's reading: all defenses except JSKernel produce a series that
//! grows with file size (Chrome/Firefox/Edge linearly; Tor and Chrome Zero
//! noisier; Fuzzyfox noisy but growing); JSKernel is flat. The harness
//! prints each series plus its Pearson correlation with size.
//!
//! Run with `cargo bench -p jsk-bench --bench fig2` (`JSK_JOBS=n` fans the
//! defense × size points across workers).

use jsk_attacks::harness::run_timing_attack_observed;
use jsk_attacks::ScriptParsing;
use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, Report};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;
use jsk_sim::stats::{pearson, Summary};

fn main() {
    let trials = env_knob("JSK_TRIALS", 25).min(12);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("fig2");
    reporter.knob("JSK_TRIALS", trials);
    let sizes: Vec<u64> = (1..=5).map(|i| i * 2).collect(); // 2,4,6,8,10 MB
    let columns = [
        DefenseKind::LegacyChrome,
        DefenseKind::LegacyFirefox,
        DefenseKind::LegacyEdge,
        DefenseKind::JsKernel,
        DefenseKind::ChromeZero,
        DefenseKind::TorBrowser,
        DefenseKind::Fuzzyfox,
    ];
    let mut headers: Vec<String> = vec!["Defense".into()];
    headers.extend(sizes.iter().map(|s| format!("{s} MB")));
    headers.push("corr(size)".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        format!("Figure 2 — Script Parsing: reported time (ms) vs file size ({trials} runs/point)"),
        &header_refs,
    );

    // One work item per (defense, size) point; each returns the pooled
    // sample so the per-defense correlation can be computed afterwards.
    let npoints = sizes.len();
    let points: Vec<(Vec<f64>, Probe)> = pool::run_indexed(columns.len() * npoints, jobs, |i| {
        let (c, s) = (i / npoints, i % npoints);
        let (col, mb) = (columns[c], sizes[s]);
        // Measure one size by making both secrets that size and pooling.
        let attack = ScriptParsing {
            size_a_mb: mb,
            size_b_mb: mb,
        };
        let mut probe = Probe::default();
        let result = run_timing_attack_observed(&attack, col, trials, 0xF16002 + mb, &mut |b| {
            probe.observe(b);
        });
        let mut all = result.a;
        all.extend_from_slice(&result.b);
        eprintln!("  finished {} × {mb} MB", col.label());
        (all, probe)
    });

    for (c, col) in columns.iter().enumerate() {
        let mut cells = vec![col.label().to_owned()];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (s, &mb) in sizes.iter().enumerate() {
            let (all, probe) = &points[c * npoints + s];
            let summary = Summary::of(all);
            for v in all {
                xs.push(mb as f64);
                ys.push(*v);
            }
            cells.push(format!("{:.1}", summary.mean));
            reporter.cell(CellRecord::value(
                col.label(),
                format!("{mb} MB"),
                summary.mean,
                "ms",
            ));
            reporter.absorb(probe);
        }
        let corr = pearson(&xs, &ys);
        cells.push(format!("{corr:.2}"));
        reporter.cell(CellRecord::value(col.label(), "corr(size)", corr, "r"));
        report.row(cells);
    }
    report.print();
    println!(
        "\nPaper reading: every series except JSKernel's increases with \
         size (legacy browsers linearly); JSKernel's is flat, with \
         correlation ≈ 0. A defense is broken when the attacker can read \
         file sizes off the curve."
    );
    reporter.finish().expect("write bench JSON");
}
