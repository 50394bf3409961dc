//! Ablation: which half of the kernel stops what?
//!
//! The kernel has two separable components — the *deterministic scheduling
//! policy* (Listing 3) and the *per-CVE policies* (Listing 4). This harness
//! runs a representative attack set against `KernelConfig::full()`,
//! `timing_only()`, and `cve_only()`, showing that timing attacks fall to
//! the scheduler while the CVEs fall to the policies (§VI: "JSKERNEL can
//! defend against unknown timing attacks because the scheduler arranges all
//! asynchronous events in a deterministic order. At present, JSKERNEL only
//! defends against other web concurrency attacks on a case-by-case base").
//!
//! Run with `cargo bench -p jsk-bench --bench ablation` (`JSK_JOBS=n` fans
//! the attack × configuration cells across workers).

use jsk_attacks::cve_exploits::all_exploits;
use jsk_attacks::harness::{CveExploit, TimingAttack};
use jsk_attacks::{CacheAttack, ClockEdge, SvgFiltering};
use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, verdict_cell, Report};
use jsk_browser::browser::Browser;
use jsk_core::{config::KernelConfig, kernel::JsKernel};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;

/// Builds a JSKernel browser with the given config on the Chrome profile.
fn build(cfg: &KernelConfig, seed: u64, exploit: Option<&dyn CveExploit>) -> Browser {
    let mut bcfg = DefenseKind::JsKernel.config(seed);
    if let Some(e) = exploit {
        e.configure(&mut bcfg);
    }
    Browser::new(bcfg, Box::new(JsKernel::new(cfg.clone())))
}

/// One ablation row.
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
}

/// Evaluates one (row, config) cell; returns whether the config defends.
fn run_cell(row: &Row<'_>, cfg: &KernelConfig, trials: usize, probe: &mut Probe) -> bool {
    match row {
        Row::Timing(attack) => {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for t in 0..trials {
                for (secret, bucket) in [
                    (jsk_attacks::Secret::A, &mut a),
                    (jsk_attacks::Secret::B, &mut b),
                ] {
                    let seed =
                        31 + t as u64 * 2 + u64::from(matches!(secret, jsk_attacks::Secret::B));
                    let mut browser = build(cfg, seed, None);
                    attack.prepare(&mut browser, secret);
                    bucket.push(attack.measure(&mut browser, secret));
                    probe.observe(&browser);
                }
            }
            let verdict = jsk_sim::stats::distinguishable(&a, &b, attack.min_rel_gap());
            !verdict.is_distinguishable()
        }
        Row::Cve(exploit) => {
            let mut browser = build(cfg, 77, Some(*exploit));
            exploit.run(&mut browser);
            probe.observe(&browser);
            let report = jsk_vuln::oracle::scan(browser.trace());
            !report.is_triggered(exploit.cve())
        }
    }
}

fn main() {
    let trials = env_knob("JSK_TRIALS", 25).min(15);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("ablation");
    reporter.knob("JSK_TRIALS", trials);
    let configs: [(&str, KernelConfig); 3] = [
        ("full", KernelConfig::full()),
        ("timing-only", KernelConfig::timing_only()),
        ("cve-only", KernelConfig::cve_only()),
    ];
    let mut report = Report::new(
        "Ablation — deterministic scheduler vs CVE policies (✓ = defends)",
        &["Attack", "full", "timing-only", "cve-only"],
    );

    let timing_attacks: Vec<Box<dyn TimingAttack>> = vec![
        Box::new(CacheAttack),
        Box::new(ClockEdge::default()),
        Box::new(SvgFiltering::default()),
    ];
    let exploits = all_exploits();
    let rows: Vec<Row<'_>> = timing_attacks
        .iter()
        .map(|a| Row::Timing(a.as_ref()))
        .chain(exploits.iter().map(|e| Row::Cve(e.as_ref())))
        .collect();

    let ncfg = configs.len();
    let cells: Vec<(bool, Probe)> = pool::run_indexed(rows.len() * ncfg, jobs, |i| {
        let (r, c) = (i / ncfg, i % ncfg);
        let mut probe = Probe::default();
        let defended = run_cell(&rows[r], &configs[c].1, trials, &mut probe);
        eprintln!("  finished {} × {}", rows[r].name(), configs[c].0);
        (defended, probe)
    });

    for (r, row) in rows.iter().enumerate() {
        let mut text_cells = vec![row.name()];
        for (c, (cfg_name, _)) in configs.iter().enumerate() {
            let (defended, probe) = &cells[r * ncfg + c];
            text_cells.push(verdict_cell(*defended));
            reporter.cell(CellRecord::verdict(row.name(), *cfg_name, *defended));
            reporter.absorb(probe);
        }
        report.row(text_cells);
    }
    report.print();
    println!(
        "\nExpected split: timing rows need the deterministic scheduler \
         (timing-only ✓, cve-only ✗); CVE rows need the policies (cve-only \
         ✓, timing-only mostly ✗); full defends everything."
    );
    reporter.finish().expect("write bench JSON");
}
