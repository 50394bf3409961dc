//! End-to-end kernel tests: JSKernel installed in the simulated browser.
//!
//! These are miniature versions of the paper's attacks — the full attack
//! suite, Listing 1 and its tests among it, lives in `jsk-attacks`; here
//! we verify the kernel *machinery*
//! (two-phase scheduling, deterministic clock, policy enforcement) against
//! the real event loop.

use jsk_browser::browser::{Browser, BrowserConfig};
use jsk_browser::mediator::LegacyMediator;
use jsk_browser::net::ResourceSpec;
use jsk_browser::profile::BrowserProfile;
use jsk_browser::task::{cb, worker_script};
use jsk_browser::trace::Fact;
use jsk_browser::value::JsValue;
use jsk_core::config::KernelConfig;
use jsk_core::kernel::JsKernel;
use jsk_sim::time::SimDuration;

fn kernel_browser(seed: u64) -> Browser {
    Browser::new(
        BrowserConfig::new(BrowserProfile::chrome(), seed),
        Box::new(JsKernel::new(KernelConfig::full())),
    )
}

fn legacy_browser(seed: u64) -> Browser {
    Browser::new(
        BrowserConfig::new(BrowserProfile::chrome(), seed),
        Box::new(LegacyMediator),
    )
}

#[test]
fn kernel_clock_hides_compute_duration() {
    let measure = |browser: &mut Browser, ms: u64| {
        browser.boot(move |scope| {
            let t0 = scope.performance_now();
            scope.compute(SimDuration::from_millis(ms));
            let t1 = scope.performance_now();
            scope.record("elapsed", JsValue::from(t1 - t0));
        });
        browser.run_until_idle();
        browser
            .record_value("elapsed")
            .and_then(JsValue::as_f64)
            .unwrap()
    };
    let legacy_short = measure(&mut legacy_browser(1), 5);
    let legacy_long = measure(&mut legacy_browser(2), 50);
    assert!(
        legacy_long > legacy_short + 40.0,
        "legacy sees real durations"
    );

    let kernel_short = measure(&mut kernel_browser(1), 5);
    let kernel_long = measure(&mut kernel_browser(2), 50);
    assert!(
        (kernel_long - kernel_short).abs() < 0.1,
        "kernel readings must not reflect compute time: {kernel_short} vs {kernel_long}"
    );
}

#[test]
fn cve_2018_5092_sequence_is_blocked_by_kernel() {
    let run = |mut browser: Browser| {
        browser.register_resource(
            "https://attacker.example/fetchedfile0.html",
            ResourceSpec::of_size(5 << 20),
        );
        browser.boot(|scope| {
            let _w = scope.create_worker(
                "worker.js",
                worker_script(|scope| {
                    let sig = scope.new_abort_controller();
                    scope.fetch(
                        "https://attacker.example/fetchedfile0.html",
                        Some(sig),
                        cb(|_, _| {}),
                    );
                }),
            );
            scope.set_timeout(40.0, cb(|scope, _| scope.close()));
        });
        browser.run_until_idle();
        browser.trace().facts().any(|(_, f)| {
            matches!(
                f,
                Fact::AbortDelivered {
                    owner_alive: false,
                    ..
                }
            )
        })
    };
    assert!(
        run(legacy_browser(7)),
        "legacy must exhibit the dangling abort"
    );
    assert!(
        !run(kernel_browser(7)),
        "kernel must prevent the dangling abort"
    );
}

#[test]
fn cve_2014_1488_transfer_free_is_blocked_by_kernel() {
    let run = |mut browser: Browser| {
        browser.boot(|scope| {
            let w = scope.create_worker(
                "worker.js",
                worker_script(|scope| {
                    let buf = scope.create_buffer(1 << 16);
                    scope.post_message_transfer(JsValue::from(buf.index()), vec![buf]);
                }),
            );
            scope.set_worker_onmessage(
                w,
                cb(move |scope, v| {
                    let buf = jsk_browser::ids::BufferId::new(v.as_f64().unwrap() as u64);
                    scope.terminate_worker(w);
                    let ok = scope.read_buffer(buf);
                    scope.record("ok", JsValue::from(ok));
                }),
            );
        });
        browser.run_until_idle();
        browser
            .record_value("ok")
            .and_then(JsValue::as_bool)
            .unwrap()
    };
    assert!(
        !run(legacy_browser(8)),
        "legacy frees the transferred buffer"
    );
    assert!(run(kernel_browser(8)), "kernel keeps the buffer alive");
}

#[test]
fn cve_2013_1714_worker_sop_enforced_by_kernel() {
    let run = |mut browser: Browser| {
        browser.boot(|scope| {
            let _w = scope.create_worker(
                "worker.js",
                worker_script(|scope| {
                    scope.xhr_send(
                        "https://victim.example/secret",
                        cb(|scope, v| {
                            scope.record("ok", v.get("ok").cloned().unwrap_or_default());
                        }),
                    );
                }),
            );
        });
        browser.run_until_idle();
        browser
            .record_value("ok")
            .and_then(JsValue::as_bool)
            .unwrap_or(false)
    };
    assert!(
        run(legacy_browser(9)),
        "legacy lets worker XHR cross origins"
    );
    assert!(
        !run(kernel_browser(9)),
        "kernel blocks cross-origin worker XHR"
    );
}

#[test]
fn cve_2014_1487_error_is_sanitized_by_kernel() {
    let run = |mut browser: Browser| {
        browser.register_resource("https://victim.example/w.js", ResourceSpec::missing());
        browser.boot(|scope| {
            let w = scope.create_worker("https://victim.example/w.js", worker_script(|_| {}));
            scope.set_worker_onerror(
                w,
                cb(|scope, msg| {
                    scope.record("err", msg);
                }),
            );
        });
        browser.run_until_idle();
        browser
            .record_value("err")
            .and_then(JsValue::as_str)
            .unwrap_or("")
            .to_owned()
    };
    assert!(run(legacy_browser(10)).contains("victim.example"));
    let sanitized = run(kernel_browser(10));
    assert!(!sanitized.contains("victim.example"), "got: {sanitized}");
    assert!(!sanitized.is_empty(), "an error must still be delivered");
}

#[test]
fn cve_2017_7843_private_idb_denied_by_kernel() {
    let run = |defense: Box<dyn jsk_browser::mediator::Mediator>| {
        let mut cfg = BrowserConfig::new(BrowserProfile::chrome(), 11);
        cfg.private_mode = true;
        let mut browser = Browser::new(cfg, defense);
        browser.boot(|scope| {
            let ok = scope.idb_open("fp", true);
            scope.record("ok", JsValue::from(ok));
        });
        browser.run_until_idle();
        browser.idb_private_leftovers()
    };
    assert_eq!(run(Box::new(LegacyMediator)), 1);
    assert_eq!(run(Box::<JsKernel>::default()), 0);
}

#[test]
fn legacy_pages_still_work_under_kernel() {
    // Backward compatibility: a page using timers, workers, fetch, and DOM
    // produces the same functional results under the kernel.
    let run = |mut browser: Browser| {
        browser.register_resource(
            "https://attacker.example/data.bin",
            ResourceSpec::of_size(4_096),
        );
        browser.boot(|scope| {
            let div = scope.create_element("div");
            scope.set_attribute(div, "id", "app");
            let root = scope.document_root();
            scope.append_child(root, div);
            let w = scope.create_worker(
                "worker.js",
                worker_script(|scope| {
                    scope.set_onmessage(cb(|scope, v| {
                        let n = v.as_f64().unwrap();
                        scope.post_message(JsValue::from(n * 2.0));
                    }));
                }),
            );
            scope.set_worker_onmessage(
                w,
                cb(|scope, v| {
                    scope.record("doubled", v);
                }),
            );
            scope.set_timeout(
                5.0,
                cb(move |scope, _| {
                    scope.post_message_to_worker(w, JsValue::from(21.0));
                }),
            );
            scope.fetch(
                "https://attacker.example/data.bin",
                None,
                cb(|scope, v| {
                    scope.record("fetched", v.get("ok").cloned().unwrap_or_default());
                }),
            );
        });
        browser.run_until_idle();
        (
            browser.record_value("doubled").cloned(),
            browser.record_value("fetched").cloned(),
            browser.dom().serialize(),
        )
    };
    let legacy = run(legacy_browser(12));
    let kernel = run(kernel_browser(12));
    assert_eq!(legacy.0, Some(JsValue::from(42.0)));
    assert_eq!(kernel.0, Some(JsValue::from(42.0)));
    assert_eq!(legacy.1, Some(JsValue::from(true)));
    assert_eq!(kernel.1, Some(JsValue::from(true)));
    assert_eq!(legacy.2, kernel.2, "DOM must be identical (compat §V-B)");
}

#[test]
fn kernel_overlay_protocol_runs_for_worker_fetches() {
    let mut browser = kernel_browser(13);
    browser.register_resource(
        "https://attacker.example/f.bin",
        ResourceSpec::of_size(8_192),
    );
    browser.boot(|scope| {
        let _w = scope.create_worker(
            "worker.js",
            worker_script(|scope| {
                scope.fetch(
                    "https://attacker.example/f.bin",
                    None,
                    cb(|scope, _| {
                        scope.record("done", JsValue::from(true));
                    }),
                );
            }),
        );
    });
    browser.run_until_idle();
    assert_eq!(browser.record_value("done"), Some(&JsValue::from(true)));
    // The pendingChildFetch/confirmFetch overlay must have carried traffic.
    // (We cannot reach into the boxed mediator; instead assert indirectly:
    // the run completed with the kernel installed and the fetch settled.)
}
