//! Per-site allocation ceilings for the served corpus path.
//!
//! A counting global allocator wraps `System` and counts the allocation
//! requests (alloc, zeroed, and growth reallocs; frees are uncounted) made
//! on the calling thread. Each of the 13 corpus programs then runs through
//! the steps of the server's own site job: `policy_kind("kernel")` →
//! `config` plus an attached metrics observer → `mediator()` →
//! `run_schedule_with` → `analyze` → `with_labels`. One warm-up site runs
//! first, so one-time work (the per-defense kernel plan, lazily read
//! environment flags) is not billed to any program.
//!
//! Every program has a ceiling. A change may lower a ceiling, never raise
//! one: a site's set-up cost is part of the served path's budget. CI runs
//! this binary in `--release` next to `alloc_steady`; every `cargo test`
//! runs it in debug.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jsk_analyze::report::analyze;
use jsk_observe::{handle_of, Observer};
use jsk_serve::policy_kind;
use jsk_workloads::schedule::{corpus_schedules, run_schedule_with, Schedule};

/// Counts allocation requests per thread, so the harness's own threads
/// cannot move the count of the site under test.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The run seed of every measured site.
const SEED: u64 = 31;

/// Allocations per site under the `kernel` policy, in corpus order.
const CEILINGS: [(&str, u64); 13] = [
    ("CVE-2018-5092", 895),
    ("CVE-2017-7843", 88),
    ("CVE-2015-7215", 185),
    ("CVE-2014-3194", 367),
    ("CVE-2014-1719", 200),
    ("CVE-2014-1488", 208),
    ("CVE-2014-1487", 170),
    ("CVE-2013-6646", 538),
    ("CVE-2013-5602", 344),
    ("CVE-2013-1714", 194),
    ("CVE-2011-1190", 175),
    ("CVE-2010-4576", 164),
    ("listing-1", 835),
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
