//! §V-B2 — semi-automated compatibility test: visit each of the top-N
//! (default 100) sites with and without JSKernel, serialize the DOM, and
//! compare by cosine similarity.
//!
//! Paper: ≥99 % similarity for ~90 % of sites; every mismatch traced to
//! dynamic content (ads), with the legacy-vs-legacy control scoring within
//! 2 % of the defended comparison.
//!
//! Run with `cargo bench -p jsk-bench --bench compat` (`JSK_COMPAT_SITES`;
//! `JSK_JOBS=n` fans the per-site comparisons across workers).

use jsk_bench::record::{BenchReporter, CellRecord, Probe};
use jsk_bench::{pool, Report};
use jsk_browser::mediator::LegacyMediator;
use jsk_core::{config::KernelConfig, kernel::JsKernel};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::knob::env_knob;
use jsk_workloads::compat::{
    compare_site_observed, CompatRow, CompatSummary, SIMILARITY_THRESHOLD,
};
use jsk_workloads::site::SiteProfile;

fn main() {
    let sites = env_knob("JSK_COMPAT_SITES", 100);
    let jobs = pool::jobs();
    let mut reporter = BenchReporter::new("compat");
    reporter.knob("JSK_COMPAT_SITES", sites);

    // One work item per site: each comparison is three independent seeded
    // visits, so the population fans perfectly.
    let rows: Vec<(CompatRow, Probe)> = pool::run_indexed(sites, jobs, |rank| {
        let profile = SiteProfile::generate(rank);
        let mut probe = Probe::default();
        let row = compare_site_observed(
            &profile,
            |seed| DefenseKind::LegacyChrome.config(seed),
            || Box::new(LegacyMediator),
            || Box::new(JsKernel::new(KernelConfig::full())),
            &mut |b| probe.observe(b),
        );
        (row, probe)
    });
    let mut summary = CompatSummary {
        total: sites,
        same: 0,
        mismatches: Vec::new(),
    };
    for (row, probe) in rows {
        reporter.absorb(&probe);
        if row.is_same() {
            summary.same += 1;
        } else {
            summary.mismatches.push(row);
        }
    }

    let mut report = Report::new(
        format!("Compatibility — DOM cosine similarity over {sites} sites (threshold {SIMILARITY_THRESHOLD})"),
        &["Site", "defended sim", "control sim", "dynamic ads"],
    );
    for row in &summary.mismatches {
        report.row(vec![
            row.site.clone(),
            format!("{:.4}", row.defended_similarity),
            format!("{:.4}", row.control_similarity),
            format!("{}", row.dynamic_ads),
        ]);
        reporter.cell(CellRecord::value(
            &row.site,
            "defended sim",
            row.defended_similarity,
            "cos",
        ));
    }
    report.print();
    println!(
        "\n{}/{} sites ({:.1}%) render identically (paper: ~90% of 100); \
         mismatches above are all dynamic-content sites whose control \
         (legacy vs legacy) similarity is shown alongside.",
        summary.same,
        summary.total,
        summary.same_fraction() * 100.0
    );
    reporter.cell(CellRecord::value(
        "summary",
        "sites identical",
        summary.same as f64,
        "sites",
    ));
    reporter.cell(CellRecord::value(
        "summary",
        "same fraction",
        summary.same_fraction(),
        "frac",
    ));
    reporter.finish().expect("write bench JSON");
}
