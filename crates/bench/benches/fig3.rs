//! Figure 3 — cumulative distribution of loading times over the top-N
//! (default 500) sites, for the eight browser/defense configurations.
//!
//! The paper's reading: JSKernel's curves hug their host browsers (no
//! observable overhead); DeterFox ≈ Firefox; Chrome Zero visibly slower
//! than JSKernel-on-Chrome; Tor Browser and Fuzzyfox slowest.
//!
//! Run with `cargo bench -p jsk-bench --bench fig3` (`JSK_SITES=n`;
//! `JSK_JOBS=n` fans the configuration × site loads across workers —
//! per-site seeds are fixed, so the CDF is schedule-invariant).

use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, Report};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;
use jsk_sim::stats::{percentile, Summary};
use jsk_workloads::site::{load_result, load_site, SiteProfile};

fn load_one(kind: DefenseKind, rank: usize, probe: &mut Probe) -> f64 {
    let profile = SiteProfile::generate(rank);
    let mut browser = kind.build(0xF16_003 + rank as u64);
    load_site(&mut browser, &profile);
    probe.observe(&browser);
    let r = load_result(&browser, &profile).expect("site records load");
    // Loading time: whichever lands later of onload and the hero
    // element (modern sites keep loading after onload, §V-A3).
    r.onload_ms.max(r.hero_ms)
}

fn main() {
    let sites = env_knob("JSK_SITES", 500);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("fig3");
    reporter.knob("JSK_SITES", sites);
    let configs = [
        DefenseKind::LegacyChrome,
        DefenseKind::JsKernel,
        DefenseKind::ChromeZero,
        DefenseKind::LegacyFirefox,
        DefenseKind::JsKernelFirefox,
        DefenseKind::DeterFox,
        DefenseKind::TorBrowser,
        DefenseKind::Fuzzyfox,
    ];
    let mut report = Report::new(
        format!("Figure 3 — CDF of loading time, top {sites} sites (ms at percentile)"),
        &["Config", "p10", "p25", "p50", "p75", "p90", "mean"],
    );

    // One work item per (configuration, site): 8 × N fully independent
    // loads, the finest useful grain for the pool.
    let loads: Vec<(f64, Probe)> = pool::run_indexed(configs.len() * sites, jobs, |i| {
        let (c, rank) = (i / sites, i % sites);
        let mut probe = Probe::default();
        let t = load_one(configs[c], rank, &mut probe);
        (t, probe)
    });

    let mut medians = Vec::new();
    for (c, kind) in configs.iter().enumerate() {
        let mut times = Vec::with_capacity(sites);
        for rank in 0..sites {
            let (t, probe) = &loads[c * sites + rank];
            times.push(*t);
            reporter.absorb(probe);
        }
        let s = Summary::of(&times);
        for (name, v) in [
            ("p10", percentile(&times, 10.0)),
            ("p25", percentile(&times, 25.0)),
            ("p50", percentile(&times, 50.0)),
            ("p75", percentile(&times, 75.0)),
            ("p90", percentile(&times, 90.0)),
            ("mean", s.mean),
        ] {
            reporter.cell(CellRecord::value(kind.label(), name, v, "ms"));
        }
        report.row(vec![
            kind.label().to_owned(),
            format!("{:.0}", percentile(&times, 10.0)),
            format!("{:.0}", percentile(&times, 25.0)),
            format!("{:.0}", percentile(&times, 50.0)),
            format!("{:.0}", percentile(&times, 75.0)),
            format!("{:.0}", percentile(&times, 90.0)),
            format!("{:.0}", s.mean),
        ]);
        medians.push((kind.label(), s.median));
        eprintln!("  finished {} ({} sites)", kind.label(), sites);
    }
    report.print();

    let get = |label: &str| {
        medians
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(f64::NAN, |(_, m)| *m)
    };
    println!("\nShape checks (medians):");
    println!(
        "  JSKernel(C) vs Chrome: {:+.1}%  (paper: no observable overhead)",
        (get("JSKernel") / get("Chrome") - 1.0) * 100.0
    );
    println!(
        "  JSKernel(F) vs Firefox: {:+.1}%  (paper: no observable overhead)",
        (get("JSKernel (F)") / get("Firefox") - 1.0) * 100.0
    );
    println!(
        "  Chrome Zero vs JSKernel(C): {:+.1}%  (paper: Chrome Zero slower)",
        (get("Chrome Zero") / get("JSKernel") - 1.0) * 100.0
    );
    println!(
        "  Tor Browser vs Firefox: {:+.1}%  (paper: Tor much slower)",
        (get("Tor Browser") / get("Firefox") - 1.0) * 100.0
    );
    reporter.finish().expect("write bench JSON");
}
