//! The fuzz bench target: one seeded coverage-guided run at a reduced
//! budget, recorded for the regression gate.
//!
//! Two verdict cells anchor the gate: the oracle must stay clean (no
//! schedule races under the hardened kernel) and recall must stay total
//! (every seed-corpus program re-discovered by the scanner). Coverage,
//! corpus, and finding counts ride along as value cells — deterministic
//! for fixed knobs, so any drift is a behavior change worth reading.
//!
//! Run with `cargo bench -p jsk-bench --bench fuzz`. Knobs:
//! `JSK_FUZZ_ITERS` (default 64 here — a smoke budget; the `smoke (fuzz)` CI
//! job runs the full example at 200) and `JSK_FUZZ_SEED` (default 1).

use jsk_bench::record::{BenchReporter, CellRecord};
use jsk_bench::{pool, Report};
use jsk_fuzz::{is_canonical, run_fuzz, FuzzConfig};
use jsk_sim::knob::env_knob;

fn main() {
    let iters = env_knob("JSK_FUZZ_ITERS", 64);
    let seed = env_knob("JSK_FUZZ_SEED", 1) as u64;
    let cfg = FuzzConfig {
        iters,
        seed,
        jobs: pool::jobs(),
        mutations: true,
    };
    let mut reporter = BenchReporter::new("fuzz");
    reporter.knob("JSK_FUZZ_ITERS", iters);
    reporter.knob("JSK_FUZZ_SEED", seed as usize);

    let fuzz = run_fuzz(&cfg);

    let oracle_clean = fuzz.oracle_violations.is_empty();
    // Recall is judged on the canonical seeds only: imported reproducers
    // and analysis-derived witnesses are racy interleavings, not
    // scanner-pattern programs.
    let recall_total = fuzz
        .recall
        .iter()
        .filter(|r| is_canonical(&r.name))
        .all(|r| !r.patterns.is_empty());
    let mut report = Report::new(
        "Fuzz smoke — coverage-guided schedule search",
        &["Metric", "Value"],
    );
    report.row(vec![
        "candidates executed".into(),
        fuzz.executed.to_string(),
    ]);
    report.row(vec!["corpus size".into(), fuzz.corpus_size.to_string()]);
    report.row(vec![
        "coverage features".into(),
        fuzz.coverage.len().to_string(),
    ]);
    report.row(vec![
        "minimized findings".into(),
        fuzz.findings.len().to_string(),
    ]);
    report.row(vec![
        "oracle violations".into(),
        fuzz.oracle_violations.len().to_string(),
    ]);
    report.row(vec![
        "recall".into(),
        format!(
            "{}/{} canonical seeds re-discovered",
            fuzz.recall
                .iter()
                .filter(|r| is_canonical(&r.name) && !r.patterns.is_empty())
                .count(),
            fuzz.recall.iter().filter(|r| is_canonical(&r.name)).count()
        ),
    ]);
    report.print();

    reporter.cell(CellRecord::verdict("oracle", "JSKernel+", oracle_clean));
    reporter.cell(CellRecord::verdict("recall", "scanner", recall_total));
    reporter.cell(CellRecord::value(
        "executed",
        "candidates",
        fuzz.executed as f64,
        "count",
    ));
    reporter.cell(CellRecord::value(
        "corpus",
        "size",
        fuzz.corpus_size as f64,
        "count",
    ));
    reporter.cell(CellRecord::value(
        "coverage",
        "features",
        fuzz.coverage.len() as f64,
        "count",
    ));
    reporter.cell(CellRecord::value(
        "findings",
        "minimized",
        fuzz.findings.len() as f64,
        "count",
    ));
    reporter.finish().expect("write bench JSON");
}
