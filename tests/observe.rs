//! The observability layer's ground-truth checks: the kernel publishes
//! its [`KernelStats`](jskernel::core::stats::KernelStats) counters into
//! an attached observer whenever a run returns, so the observer's metrics
//! must reconcile **exactly** with the stats at every harvest, however
//! the run is split — and the Perfetto export must be a valid,
//! deterministic Chrome trace.

use jsk_observe::{handle_of, Observer};
use jskernel::attacks::cve_exploits::Exploit2015_7215;
use jskernel::attacks::harness::CveExploit;
use jskernel::browser::browser::Browser;
use jskernel::browser::task::{cb, worker_script};
use jskernel::browser::JsValue;
use jskernel::core::JsKernel;
use jskernel::sim::time::SimDuration;
use jskernel::DefenseKind;
use std::cell::RefCell;
use std::rc::Rc;

/// Builds a JSKernel browser with `observer` attached.
fn observed_browser(seed: u64, observer: &Rc<RefCell<Observer>>) -> Browser {
    let cfg = DefenseKind::JsKernel
        .config(seed)
        .with_observer(handle_of(observer));
    Browser::new(cfg, DefenseKind::JsKernel.mediator())
}

/// A busy page exercising the full event lifecycle: interval messages,
/// cross-origin worker XHR (denied), a worker termination (orphans).
fn busy_page(browser: &mut Browser) {
    boot_busy_page(browser);
    browser.run_for(SimDuration::from_millis(200));
}

fn boot_busy_page(browser: &mut Browser) {
    browser.boot(|scope| {
        let w = scope.create_worker(
            "w.js",
            worker_script(|scope| {
                scope.set_interval(
                    2.0,
                    cb(|scope, _| {
                        scope.post_message(JsValue::from(1.0));
                    }),
                );
            }),
        );
        scope.set_worker_onmessage(w, cb(|_, _| {}));
        let _w2 = scope.create_worker(
            "x.js",
            worker_script(|scope| {
                scope.xhr_send("https://victim.example/a", cb(|_, _| {}));
            }),
        );
        scope.set_timeout(50.0, cb(move |scope, _| scope.terminate_worker(w)));
    });
}

/// Asserts every stats-mirroring counter equals its [`KernelStats`] field.
fn assert_reconciles(browser: &Browser, observer: &Rc<RefCell<Observer>>) {
    let kernel: &JsKernel = browser.mediator_as().expect("kernel installed");
    let stats = kernel.stats().clone();
    let m = observer.borrow().metrics();
    let pairs: [(&str, u64); 10] = [
        ("kernel.registered", stats.registered),
        ("kernel.confirmed", stats.confirmed),
        ("kernel.dispatched", stats.dispatched),
        ("kernel.cancelled", stats.cancelled),
        (
            "kernel.withheld_behind_pending",
            stats.withheld_behind_pending,
        ),
        (
            "kernel.deferred_to_prediction",
            stats.deferred_to_prediction,
        ),
        ("kernel.api_calls", stats.api_calls),
        ("kernel.kernel_messages", stats.kernel_messages),
        ("kernel.watchdog_expired", stats.watchdog_expired),
        ("kernel.orphans_reaped", stats.orphans_reaped),
    ];
    for (name, want) in pairs {
        assert_eq!(m.counter(name), want, "{name} disagrees with KernelStats");
    }
    assert_eq!(
        m.counter("kernel.denials"),
        stats.total_denials(),
        "denial counter disagrees"
    );
    // Every intercepted call got exactly one policy decision.
    let mix: u64 = [
        "allow",
        "deny",
        "defer_termination",
        "sanitize_error",
        "other",
    ]
    .iter()
    .map(|k| m.counter(&format!("policy.{k}")))
    .sum();
    assert_eq!(mix, stats.api_calls, "policy mix does not cover api_calls");
    // One latency observation per released event.
    let lat = m
        .histogram("kernel.dispatch_latency_ticks")
        .expect("latency histogram present");
    assert_eq!(lat.count, stats.dispatched);
    assert_eq!(lat.buckets.iter().sum::<u64>(), lat.count);
}

#[test]
fn metrics_reconcile_with_kernel_stats_on_a_cve_run() {
    let exploit = Exploit2015_7215;
    let obs = Observer::new().shared();
    let mut browser = observed_browser(0x7215, &obs);
    exploit.run(&mut browser);
    assert_reconciles(&browser, &obs);
    assert!(obs.borrow().metrics().counter("kernel.registered") > 0);
}

#[test]
fn metrics_reconcile_with_kernel_stats_on_a_busy_page() {
    let obs = Observer::new().shared();
    let mut browser = observed_browser(55, &obs);
    busy_page(&mut browser);
    assert_reconciles(&browser, &obs);
    let m = obs.borrow().metrics();
    assert!(m.counter("kernel.denials") > 0, "busy page trips a policy");
    assert!(m.counter("browser.tasks") > 0, "browser task spans counted");
    assert!(
        m.gauge("kernel.equeue_depth").is_some(),
        "equeue depth gauge recorded"
    );
}

#[test]
fn metrics_reconcile_at_every_harvest_of_a_split_run() {
    // Each run publishes only the growth since the previous one: a split
    // run harvested between its pieces must neither double count nor lag.
    let obs = Observer::new().shared();
    let mut browser = observed_browser(55, &obs);
    boot_busy_page(&mut browser);
    for _ in 0..4 {
        browser.run_for(SimDuration::from_millis(50));
        assert_reconciles(&browser, &obs);
    }
    let whole = Observer::new().shared();
    busy_page(&mut observed_browser(55, &whole));
    assert_eq!(
        obs.borrow().metrics(),
        whole.borrow().metrics(),
        "a split run must end on the same metrics as one run"
    );
}

#[test]
fn a_worker_exit_that_reaps_nothing_still_reports_orphans() {
    let obs = Observer::new().shared();
    let mut browser = observed_browser(7, &obs);
    browser.boot(|scope| {
        let w = scope.create_worker("idle.js", worker_script(|_| {}));
        scope.set_timeout(10.0, cb(move |scope, _| scope.terminate_worker(w)));
    });
    browser.run_for(SimDuration::from_millis(50));
    let kernel: &JsKernel = browser.mediator_as().expect("kernel installed");
    assert_eq!(
        kernel.stats().orphans_reaped,
        0,
        "the idle worker owed nothing"
    );
    let m = obs.borrow().metrics();
    assert_eq!(
        m.counters().get("kernel.orphans_reaped"),
        Some(&0),
        "a thread exit publishes the orphan counter even at 0"
    );
    assert_reconciles(&browser, &obs);
}

#[test]
fn trace_export_validates_and_is_deterministic() {
    let run = || {
        let obs = Observer::with_trace().shared();
        let mut browser = observed_browser(55, &obs);
        busy_page(&mut browser);
        let o = obs.borrow();
        (o.chrome_trace_json(), o.metrics_json())
    };
    let (trace_a, metrics_a) = run();
    let (trace_b, metrics_b) = run();
    assert_eq!(trace_a, trace_b, "trace JSON must be byte-identical");
    assert_eq!(metrics_a, metrics_b, "metrics JSON must be byte-identical");

    let summary = jsk_observe::chrome::validate(&trace_a).expect("valid Chrome trace");
    assert!(summary.events > 0);
    assert!(summary.spans > 0, "dispatch/task spans present");
    assert!(summary.async_spans > 0, "kevent lifecycle spans present");

    // The export round-trips through the JSON parser unchanged.
    let value: serde_json::JsonValue = serde_json::from_str(&trace_a).expect("parses");
    let mut rendered = serde_json::to_string_pretty(&value).expect("re-renders");
    rendered.push('\n');
    assert_eq!(rendered, trace_a, "pretty JSON round-trips byte-for-byte");
}

#[test]
fn unobserved_browser_still_runs_the_same_page() {
    // No observer attached: the same page must produce the same kernel
    // statistics (the hooks are passive taps, not behavior).
    let obs = Observer::new().shared();
    let mut observed = observed_browser(55, &obs);
    busy_page(&mut observed);
    let mut plain = DefenseKind::JsKernel.build(55);
    busy_page(&mut plain);
    let a: &JsKernel = observed.mediator_as().expect("kernel");
    let b: &JsKernel = plain.mediator_as().expect("kernel");
    assert_eq!(a.stats(), b.stats(), "observer must not perturb the run");
}
