//! The trace analyzer, end to end: run the CVE corpus and the Listing 1
//! attack raw and under the kernel, and print what the happens-before race
//! detector and the attack-pattern scanner find in each trace.
//!
//! ```sh
//! cargo run --example analyze_trace
//! ```
//!
//! With `gate`, runs as the CI regression gate: analyzes the whole corpus
//! under `policies/policy_deterministic.json`, writes the full JSON race
//! report to `ANALYZE_REPORT.json`, and exits nonzero if any program races
//! under the kernel.
//!
//! ```sh
//! cargo run --release --example analyze_trace -- gate
//! ```

use jskernel::analyze::corpus::{run_program, CorpusMode};
use jskernel::attacks::corpus_names;
use jskernel::core::policy::PolicySpec;
use std::process::ExitCode;

const SEED: u64 = 7;

fn deterministic_policy() -> PolicySpec {
    let json = include_str!("../policies/policy_deterministic.json");
    PolicySpec::from_json(json).expect("committed policy parses")
}

fn gate() -> ExitCode {
    let kernel = CorpusMode::Kernel(deterministic_policy());
    let mut racy = Vec::new();
    let mut entries = Vec::new();
    for name in corpus_names() {
        let report = run_program(&name, &kernel, SEED);
        println!("{name:<16} {}", report.summary());
        if !report.is_race_free() {
            racy.push(name.clone());
        }
        entries.push((name, report));
    }
    let body = entries
        .iter()
        .map(|(name, report)| {
            format!(
                "  {{\n    \"program\": {},\n    \"report\": {}\n  }}",
                serde_json::to_string(name).expect("name serializes"),
                report.to_json().replace('\n', "\n    ")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write("ANALYZE_REPORT.json", format!("[\n{body}\n]\n")).expect("report file writable");
    println!("\nwrote ANALYZE_REPORT.json");
    if racy.is_empty() {
        println!("gate PASS: corpus is race-free under the deterministic policy");
        ExitCode::SUCCESS
    } else {
        println!("gate FAIL: races under the kernel in {racy:?}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("gate") {
        return gate();
    }

    let kernel = CorpusMode::Kernel(deterministic_policy());
    println!("Trace analysis over the CVE corpus + Listing 1 (seed {SEED})\n");
    println!(
        "{:<16} {:>6} {:>8} {:>6} {:>9}   first finding",
        "program", "nodes", "accesses", "races", "patterns"
    );
    for name in corpus_names() {
        for (label, mode) in [("raw", &CorpusMode::Raw), ("kernel", &kernel)] {
            let report = run_program(&name, mode, SEED);
            let first = report
                .races
                .first()
                .map(|r| {
                    format!(
                        "race on {:?}: {} vs {}",
                        r.target, r.first.what, r.second.what
                    )
                })
                .or_else(|| {
                    report
                        .patterns
                        .first()
                        .map(|p| format!("{:?} ({})", p.kind, p.cve_family().join(", ")))
                })
                .unwrap_or_else(|| "clean".to_owned());
            println!(
                "{:<16} {:>6} {:>8} {:>6} {:>9}   {first}",
                format!("{name}/{label}"),
                report.nodes,
                report.accesses,
                report.races.len(),
                report.patterns.len(),
            );
        }
    }
    println!(
        "\nRaw scheduling leaves every program with at least one race or \
         attack signature; under the kernel's deterministic dispatcher the \
         chain/comm edges order every contended pair — zero races. Patterns \
         may persist under the kernel: they flag *attempted* shapes, which \
         the policies defeat without muting the trace."
    );
    ExitCode::SUCCESS
}
