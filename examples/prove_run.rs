//! Runs the bounded policy prover over the full designated matrix and
//! writes `PROVE_REPORT.json` — one row per (policy, attack-pattern)
//! pair with the verdict, depth, states explored, and (for refutations)
//! the minimal counterexample plus a concrete corpus realization.
//!
//! Knob: `JSK_PROVE_DEPTH` (default 6) — the schedule-length bound.
//! The report is a pure function of the committed policies, the attack
//! models, and the depth; `JSK_JOBS` never changes its bytes.
//!
//! Exits nonzero on any refuted row — a designated policy that fails to
//! defeat its pattern within the bound — which is how the CI `smoke (prove)`
//! job gates.

use jsk_analyze::prove::{prove_all, prove_depth, Verdict};

fn main() {
    let depth = prove_depth();
    eprintln!("prove: depth={depth}");
    let report = prove_all(depth);

    std::fs::write("PROVE_REPORT.json", report.to_json() + "\n").expect("write PROVE_REPORT.json");

    println!("{}", report.summary());
    for row in &report.rows {
        match row.verdict {
            Verdict::Proved => println!(
                "  proved  {} defeats {} ({}) for all schedules <= {} [{} states]",
                row.policy, row.pattern, row.cve, row.depth, row.states_explored
            ),
            Verdict::Refuted => {
                println!(
                    "  REFUTED {} vs {} ({}): firing schedule {:?}",
                    row.policy, row.pattern, row.cve, row.counterexample
                );
            }
        }
    }
    if report.refuted > 0 {
        eprintln!("{} refuted row(s) — failing", report.refuted);
        std::process::exit(1);
    }
}
