//! Sharded fleet serving under cross-shard fault injection — the chaos
//! matrix as a bench target.
//!
//! Serves the full 13-program attack corpus (twelve Table I CVE exploits
//! plus Listing 1) on **every** shard four times: fault-free, then once
//! per cross-shard fault class — per-shard clock skew, a directional
//! inter-shard partition, and a shard crash with supervised restart —
//! each aimed at a different shard. The matrix's own verifier runs first
//! (non-target shards bit-identical to baseline, target shards' verdicts
//! and metrics preserved, faults actually fired); the JSON record then
//! pins one verdict cell per (site@shard, scenario), so a single program
//! losing its defense on a single shard under a single fault class flips
//! a cell and fails the regression gate.
//!
//! Knobs: `JSK_SHARDS` (default 4), `JSK_JOBS` (pool worker threads —
//! never changes a byte of the record). The full matrix is also written
//! to `chaos_matrix.json` as the CI artifact.

use jsk_bench::record::{out_root, BenchReporter, CellRecord};
use jsk_bench::{pool, Report};
use jsk_shard::{run_chaos_matrix, ChaosKnobs, SiteOutcome};

fn main() {
    let shards = pool::shards();
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("shards");
    reporter.knob("JSK_SHARDS", shards).set_jobs(jobs);

    let matrix = run_chaos_matrix(&ChaosKnobs {
        shards,
        workers: jobs,
        base_seed: 1,
        corpus: None,
    });
    matrix.verify().expect("chaos matrix isolation violated");

    let mut report = Report::new(
        "Cross-shard chaos matrix — corpus defended on every shard under every fault class",
        &[
            "Scenario",
            "target shard",
            "served",
            "defended",
            "restarts",
            "hb dropped",
        ],
    );
    for scenario in &matrix.scenarios {
        let mut defended = 0usize;
        let (served, _, _, restarts) = scenario.report.totals();
        let dropped: u64 = scenario
            .report
            .shards
            .iter()
            .map(|s| s.heartbeats_dropped)
            .sum();
        for shard in &scenario.report.shards {
            for site in &shard.sites {
                if let SiteOutcome::Served { defended: d, .. } = &site.outcome {
                    let ok = *d == Some(true);
                    reporter.cell(CellRecord::verdict(
                        format!("{}@s{}", site.site, shard.shard),
                        scenario.name.clone(),
                        ok,
                    ));
                    defended += usize::from(ok);
                }
            }
        }
        reporter.observe(
            &scenario
                .report
                .fleet_metrics
                .with_labels(&[("scenario", &scenario.name)]),
        );
        report.row(vec![
            scenario.name.clone(),
            scenario
                .target_shard
                .map_or_else(|| "-".to_owned(), |s| s.to_string()),
            served.to_string(),
            format!("{defended}/{served}"),
            restarts.to_string(),
            dropped.to_string(),
        ]);
        eprintln!("  finished scenario {}", scenario.name);
    }
    report.print();
    println!(
        "\nPaper reading: the kernel's isolation survives the fleet. Every \
         corpus program stays defended on every shard under every fault \
         class; shards the fault does not target reproduce the fault-free \
         run bit for bit, and the targeted shard's verdicts and metrics are \
         preserved through skewed clocks, a severed heartbeat ring, and a \
         supervised crash-restart."
    );

    let path = out_root().join("chaos_matrix.json");
    std::fs::write(&path, matrix.json()).expect("write chaos matrix artifact");
    println!("[chaos-json] full matrix written to {}", path.display());
    reporter.finish().expect("write bench JSON");
}
