//! Runs the coverage-guided schedule fuzzer and writes its artifacts:
//!
//! * `FUZZ_REPORT.json` — the full deterministic report (coverage,
//!   recall, findings, oracle violations).
//! * `fuzz_corpus/<name>.json` — one corpus entry per minimized finding,
//!   in the same JSON shape the seed corpus uses.
//!
//! Knobs: `JSK_FUZZ_ITERS` (default 200), `JSK_FUZZ_SEED` (default 1),
//! `JSK_JOBS` (workers; never changes output bytes).
//!
//! Exits nonzero on any oracle violation — a schedule that races *under
//! the kernel* — which is how the CI `smoke (fuzz)` job gates.

use jsk_fuzz::{run_fuzz, FuzzConfig};
use std::path::Path;

fn main() {
    let cfg = FuzzConfig::from_env();
    eprintln!(
        "fuzz: iters={} seed={} jobs={}",
        cfg.iters, cfg.seed, cfg.jobs
    );
    let report = run_fuzz(&cfg);

    std::fs::write("FUZZ_REPORT.json", report.to_json() + "\n").expect("write FUZZ_REPORT.json");
    let dir = Path::new("fuzz_corpus");
    std::fs::create_dir_all(dir).expect("create fuzz_corpus/");
    for finding in report.findings.iter().chain(&report.oracle_violations) {
        let file = dir.join(format!(
            "{}.json",
            finding.schedule.name.replace(['~', '/'], "_")
        ));
        std::fs::write(&file, finding.schedule.to_json() + "\n").expect("write corpus entry");
    }

    println!(
        "executed {} candidates ({} corpus), {} coverage features",
        report.executed,
        report.corpus_size,
        report.coverage.len()
    );
    println!(
        "{} minimized finding(s), {} oracle violation(s)",
        report.findings.len(),
        report.oracle_violations.len()
    );
    for f in &report.findings {
        println!(
            "  finding {}: {} ({} -> {} events), novel: {:?}",
            f.name, f.mutation, f.events_before, f.events_after, f.novel
        );
    }
    for v in &report.oracle_violations {
        println!(
            "  ORACLE VIOLATION {}: {} race(s) under the kernel ({} events)",
            v.name, v.kernel_races, v.events_after
        );
    }
    if !report.oracle_violations.is_empty() {
        eprintln!("kernel-mode races found — failing");
        std::process::exit(1);
    }
}
