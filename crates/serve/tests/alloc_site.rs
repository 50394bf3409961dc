//! Per-site allocation ceilings for the served corpus path.
//!
//! A counting global allocator (`counting`) counts the allocation requests
//! made on the calling thread. Each of the 13 corpus programs runs through
//! the steps of the server's own site job: `policy_kind("kernel")` →
//! `config` plus an attached metrics observer → `mediator()` →
//! `run_schedule_with` → `analyze` → `with_labels`. One warm-up site runs
//! first, so one-time work (the per-defense kernel plan) is not billed to
//! any program.
//!
//! Every program has a ceiling. A change may lower a ceiling, never raise
//! one: a site's set-up cost is part of the served path's budget. CI runs
//! this binary in `--release` next to `alloc_steady`; every `cargo test`
//! runs it in debug. `alloc_flush` holds the same line for a whole flush.

use jsk_analyze::report::analyze;
use jsk_observe::{handle_of, Observer};
use jsk_serve::policy_kind;
use jsk_workloads::schedule::{corpus_schedules, run_schedule_with, Schedule};

mod counting;

use counting::allocations;

/// The run seed of every measured site.
const SEED: u64 = 31;

/// Allocations per site under the `kernel` policy, in corpus order.
const CEILINGS: [(&str, u64); 13] = [
    ("CVE-2018-5092", 202),
    ("CVE-2017-7843", 42),
    ("CVE-2015-7215", 82),
    ("CVE-2014-3194", 109),
    ("CVE-2014-1719", 84),
    ("CVE-2014-1488", 87),
    ("CVE-2014-1487", 72),
    ("CVE-2013-6646", 179),
    ("CVE-2013-5602", 144),
    ("CVE-2013-1714", 86),
    ("CVE-2011-1190", 78),
    ("CVE-2010-4576", 72),
    ("listing-1", 219),
];

/// Runs one site through the served job's steps and returns how many
/// allocations it made.
fn site_allocations(schedule: &Schedule) -> u64 {
    let before = allocations();
    let kind = policy_kind("kernel").expect("kernel is a wire policy");
    let shared = Observer::new().shared();
    let cfg = kind
        .config(SEED)
        .with_shard(0)
        .with_observer(handle_of(&shared));
    let browser = run_schedule_with(schedule, kind.mediator(), cfg);
    let report = analyze(browser.trace());
    let metrics = shared
        .borrow()
        .metrics()
        .with_labels(&[("site", &schedule.name), ("policy", "kernel")]);
    let spent = allocations() - before;
    std::hint::black_box((browser, report, metrics));
    spent
}

#[test]
fn corpus_sites_stay_under_their_allocation_ceilings() {
    let corpus = corpus_schedules();
    assert_eq!(corpus.len(), CEILINGS.len());
    site_allocations(&corpus[0]);

    let mut over = Vec::new();
    let mut total = 0;
    for (schedule, &(name, ceiling)) in corpus.iter().zip(&CEILINGS) {
        assert_eq!(schedule.name, name, "corpus order changed");
        let spent = site_allocations(schedule);
        total += spent;
        println!("{name:>14}: {spent:>5} allocations (ceiling {ceiling})");
        if spent > ceiling {
            over.push(format!("{name}: {spent} > {ceiling}"));
        }
    }
    println!(
        "mean: {:.1} allocations per site",
        total as f64 / CEILINGS.len() as f64
    );
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}
