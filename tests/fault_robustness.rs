//! Fault-injection robustness: the kernel must survive lost confirmations,
//! worker crashes, and network failure without livelock — every run
//! terminates, the scheduling invariants hold, runs are reproducible, and
//! the defenses still defend.

use jskernel::attacks::cve_exploits::Exploit2018_5092;
use jskernel::attacks::harness::run_cve_attack_with_faults;
use jskernel::attacks::listing1;
use jskernel::browser::task::{cb, worker_script};
use jskernel::browser::{Browser, BrowserConfig, JsValue};
use jskernel::browser_profile::BrowserProfile;
use jskernel::sim::fault::FaultPlan;
use jskernel::sim::time::SimDuration;
use jskernel::{DefenseKind, JsKernel, KernelConfig};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A kernel browser with invariant checking on and the fault plan active.
fn faulty_kernel_browser(seed: u64, plan: &FaultPlan) -> Browser {
    let mut kcfg = KernelConfig::full();
    kcfg.check_invariants = true;
    let cfg = BrowserConfig::new(BrowserProfile::chrome(), seed).with_fault(plan.clone());
    Browser::new(cfg, Box::new(JsKernel::new(kcfg)))
}

/// One step of a random program (a trimmed version of the stress suite's
/// generator, biased toward the surfaces faults perturb: messages, workers,
/// fetches).
#[derive(Debug, Clone)]
enum Op {
    Timer(u16),
    Compute(u32),
    WorkerEcho(u16),
    Fetch,
    PostTask,
    WorkerChurn,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u16..60).prop_map(Op::Timer),
        (10u32..20_000).prop_map(Op::Compute),
        (1u16..40).prop_map(Op::WorkerEcho),
        Just(Op::Fetch),
        Just(Op::PostTask),
        Just(Op::WorkerChurn),
    ]
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..10_000,
        0.0f64..0.35,
        0.0f64..0.35,
        0.0f64..0.35,
        0.0f64..0.35,
    )
        .prop_map(|(seed, loss, dup, confirm_drop, net_timeout)| {
            let mut plan = FaultPlan::new(seed)
                .with_message_loss(loss)
                .with_message_duplication(dup)
                .with_confirm_drop(confirm_drop)
                .with_net_timeout(net_timeout, 30)
                .with_fetch_retries(2, 5);
            if seed % 3 == 0 {
                plan = plan.with_worker_crash(seed % 2, 20 + (seed % 50));
            }
            plan
        })
}

/// Runs a random program under the plan; returns (trace JSON, violations).
fn run_faulted(seed: u64, plan: &FaultPlan, ops: &[Op]) -> (String, Vec<String>) {
    let mut browser = faulty_kernel_browser(seed, plan);
    let ops = ops.to_vec();
    browser.boot(move |scope| {
        let beacons: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let beacon = |b: &Rc<RefCell<u64>>| {
            let b = b.clone();
            cb(move |scope, _| {
                *b.borrow_mut() += 1;
                let n = *b.borrow();
                scope.record("beacons", JsValue::from(n as f64));
            })
        };
        for op in &ops {
            match op {
                Op::Timer(delay) => {
                    scope.set_timeout(f64::from(*delay), beacon(&beacons));
                }
                Op::Compute(us) => {
                    scope.compute(SimDuration::from_micros(u64::from(*us)));
                }
                Op::WorkerEcho(ping) => {
                    let w = scope.create_worker(
                        "echo.js",
                        worker_script(|scope| {
                            scope.set_onmessage(cb(|scope, v| {
                                scope.post_message(v);
                            }));
                        }),
                    );
                    scope.set_worker_onmessage(w, beacon(&beacons));
                    let ping = f64::from(*ping);
                    scope.set_timeout(
                        ping,
                        cb(move |scope, _| {
                            scope.post_message_to_worker(w, JsValue::from(1.0));
                        }),
                    );
                }
                Op::Fetch => {
                    scope.fetch("https://attacker.example/r", None, beacon(&beacons));
                }
                Op::PostTask => {
                    scope.post_task(beacon(&beacons));
                }
                Op::WorkerChurn => {
                    let w = scope.create_worker("churn.js", worker_script(|_| {}));
                    scope.set_timeout(
                        3.0,
                        cb(move |scope, _| {
                            scope.terminate_worker(w);
                        }),
                    );
                }
            }
        }
    });
    browser.run_for(SimDuration::from_secs(5));
    let kernel: &JsKernel = browser.mediator_as().expect("kernel installed");
    let violations = kernel.invariant_violations().to_vec();
    (browser.trace_json(), violations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs under random fault plans: every run terminates (by
    /// returning), the kernel's scheduling invariants hold throughout, and
    /// the same seed + plan reproduces the exact same observable trace.
    #[test]
    fn faulted_runs_terminate_hold_invariants_and_reproduce(
        ops in proptest::collection::vec(arb_op(), 1..8),
        seed in 0u64..500,
        plan in arb_fault_plan(),
    ) {
        let (trace_a, violations) = run_faulted(seed, &plan, &ops);
        prop_assert!(
            violations.is_empty(),
            "invariants violated under {plan:?}: {violations:?}"
        );
        let (trace_b, _) = run_faulted(seed, &plan, &ops);
        prop_assert_eq!(trace_a, trace_b, "same seed + plan must reproduce");
    }
}

/// The three fault regimes the issue names for the CVE check.
fn named_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("message loss", FaultPlan::new(7).with_message_loss(0.3)),
        ("worker crash", FaultPlan::new(7).with_worker_crash(0, 25)),
        (
            "network timeout",
            FaultPlan::new(7)
                .with_net_timeout(0.6, 50)
                .with_fetch_retries(2, 10),
        ),
    ]
}

#[test]
fn cve_2018_5092_stays_defended_under_faults() {
    for (label, plan) in named_plans() {
        let result =
            run_cve_attack_with_faults(&Exploit2018_5092, DefenseKind::JsKernel, 0x5092, plan);
        assert!(
            !result.triggered,
            "JSKernel lost CVE-2018-5092 under {label}: {:?}",
            result.witness
        );
    }
}

#[test]
fn listing1_implicit_clock_stays_blind_under_faults() {
    for (label, plan) in named_plans() {
        // The same plan and seed, two secrets: under the kernel the
        // adversary's tick count is a function of API-call order only, so
        // the secret-dependent filter cost must not show through — faults
        // included.
        let small = listing1::run(&mut faulty_kernel_browser(11, &plan), 256 * 256);
        let big = listing1::run(&mut faulty_kernel_browser(11, &plan), 2048 * 2048);
        assert_eq!(
            small, big,
            "tick counts must not depend on the secret under {label}"
        );
        assert!(
            small.is_some(),
            "measurement must complete (no livelock) under {label}"
        );
    }
}
