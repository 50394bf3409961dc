//! Table I — the defense matrix: 10 implicit-clock attacks + 12 CVEs,
//! evaluated against every defense column. Every cell is computed by
//! running the attack; the "expected" annotations are the paper's cells as
//! reconstructed from its prose (see DESIGN.md §4).
//!
//! Run with `cargo bench -p jsk-bench --bench table1`
//! (`JSK_TRIALS=n` controls trials per secret, default 25; `JSK_JOBS=n`
//! fans the 176 independent cells across worker threads — per-cell seeds
//! are fixed, so the output is bit-identical to a serial run).

use jsk_attacks::harness::{
    run_cve_attack_observed, run_timing_attack_observed, CveExploit, TimingAttack,
};
use jsk_attacks::{all_timing_attacks, cve_exploits::all_exploits};
use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, verdict_cell, Report};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The paper's expected cell (true = defends), reconstructed from §IV prose
/// per (attack row, defense column).
fn paper_expectation(row: &str, defense: DefenseKind) -> Option<bool> {
    use DefenseKind as D;
    let legacy = matches!(d(defense), "legacy");
    fn d(k: DefenseKind) -> &'static str {
        match k {
            D::LegacyChrome | D::LegacyFirefox | D::LegacyEdge => "legacy",
            D::Fuzzyfox => "fuzzyfox",
            D::DeterFox => "deterfox",
            D::TorBrowser => "tor",
            D::ChromeZero => "chromezero",
            D::JsKernel | D::JsKernelFirefox | D::JsKernelEdge | D::JsKernelHardened => "jskernel",
        }
    }
    let name = d(defense);
    if name == "jskernel" {
        return Some(true); // JSKernel defends every row.
    }
    if legacy {
        return Some(false); // The legacy browsers defend nothing.
    }
    match (row, name) {
        // Timing rows, from §IV-A prose.
        ("Clock Edge", "fuzzyfox") => Some(true), // "Fuzzyfox does defend against the clock edge attack"
        // A fuzzy low-resolution clock also randomizes edges; the paper's
        // cell for Chrome Zero is not recoverable from prose.
        ("Clock Edge", "chromezero") => None,
        // Fuzzyfox's own video defense is not confirmed by the prose.
        ("Video/WebVTT", "fuzzyfox") => None,
        (_, "fuzzyfox") if is_timing(row) => Some(false),
        ("Loopscan", "deterfox") => Some(false), // "all other defenses are vulnerable to Loopscan"
        (_, "deterfox") if is_timing(row) => Some(true), // determinism defends same-context timing
        (_, "tor") if is_timing(row) => Some(false),
        (_, "chromezero") if is_timing(row) => Some(false),
        // CVE rows: only Chrome Zero's polyfill defends a subset
        // ("at the price of reduced functionalities") — the subset where a
        // real parallel worker thread is essential to the trigger.
        (cve, "chromezero") => Some(matches!(
            cve,
            "CVE-2018-5092"
                | "CVE-2014-1719"
                | "CVE-2014-1488"
                | "CVE-2013-5602"
                | "CVE-2013-1714"
                | "CVE-2011-1190"
        )),
        (_, "fuzzyfox" | "deterfox" | "tor") => Some(false), // timing-only defenses
        _ => Some(false),
    }
}

fn is_timing(row: &str) -> bool {
    !row.starts_with("CVE-")
}

/// One Table I row: a timing attack or a CVE exploit.
enum Row<'a> {
    Timing(&'a dyn TimingAttack),
    Cve(&'a dyn CveExploit),
}

impl Row<'_> {
    fn name(&self) -> String {
        match self {
            Row::Timing(a) => a.name().to_owned(),
            Row::Cve(e) => e.cve().id().to_owned(),
        }
    }

    fn display_label(&self) -> String {
        match self {
            Row::Timing(a) => format!("{} [{}]", a.name(), a.clock()),
            Row::Cve(e) => e.cve().id().to_owned(),
        }
    }
}

fn main() {
    let trials = env_knob("JSK_TRIALS", 25);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("table1");
    reporter.knob("JSK_TRIALS", trials);
    let columns = DefenseKind::table1_columns();
    let mut headers: Vec<&str> = vec!["Attack"];
    let labels: Vec<String> = columns.iter().map(|c| c.label().to_owned()).collect();
    headers.extend(labels.iter().map(String::as_str));
    let mut report = Report::new(
        format!("Table I — Defenses against Web Concurrency Attacks ({trials} trials/secret; ✓ = defends, ✗ = vulnerable; [≠] marks deviation from the paper)"),
        &headers,
    );

    let attacks = all_timing_attacks();
    let exploits = all_exploits();
    let rows: Vec<Row<'_>> = attacks
        .iter()
        .map(|a| Row::Timing(a.as_ref()))
        .chain(exploits.iter().map(|e| Row::Cve(e.as_ref())))
        .collect();

    // Fan the 22×8 independent cells across the pool: each cell's seeds
    // depend only on its coordinates, so the matrix is schedule-invariant.
    let ncols = columns.len();
    let total = rows.len() * ncols;
    let done = AtomicUsize::new(0);
    let cells: Vec<(bool, Probe)> = pool::run_indexed(total, jobs, |i| {
        let (r, c) = (i / ncols, i % ncols);
        let col = columns[c];
        let mut probe = Probe::default();
        let defended = match rows[r] {
            Row::Timing(attack) => {
                run_timing_attack_observed(attack, col, trials, 0xA77AC4, &mut |b| {
                    probe.observe(b);
                })
                .defended()
            }
            Row::Cve(exploit) => {
                run_cve_attack_observed(exploit, col, 0xC0FFEE, &mut |b| probe.observe(b))
                    .defended()
            }
        };
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("  [{n}/{total}] {} × {}", rows[r].name(), col.label());
        (defended, probe)
    });

    for (r, row) in rows.iter().enumerate() {
        let mut text_cells = vec![row.display_label()];
        for (c, &col) in columns.iter().enumerate() {
            let (defended, probe) = &cells[r * ncols + c];
            let marker = match paper_expectation(&row.name(), col) {
                Some(expected) if expected != *defended => " [≠]",
                _ => "",
            };
            text_cells.push(format!("{}{marker}", verdict_cell(*defended)));
            reporter.cell(CellRecord::verdict(row.name(), col.label(), *defended));
            reporter.absorb(probe);
        }
        report.row(text_cells);
    }

    report.print();
    println!(
        "\nPaper ground truth: JSKernel defends every row; the legacy \
         browsers none; Fuzzyfox only Clock Edge (and its own Video/WebVTT \
         target); DeterFox all same-context timing rows but not Loopscan; \
         Tor none; Chrome Zero only the worker-parallelism CVEs via its \
         polyfill. Cells marked [≠] deviate — see EXPERIMENTS.md."
    );
    reporter.finish().expect("write bench JSON");
}
