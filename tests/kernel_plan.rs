//! Differential test: a kernel on its defense's shared plan behaves exactly
//! like a kernel that compiled a plan of its own.
//!
//! `DefenseKind::mediator()` hands every kernel of one defense the same
//! compiled `KernelPlan`; `JsKernel::new` compiles a fresh one. For each of
//! the 13 corpus programs under `kernel` and `hardened`, both sites must
//! leave the same trace, records, console and kernel counters.

use std::sync::Arc;

use jsk_browser::browser::Browser;
use jsk_browser::mediator::Mediator;
use jsk_core::config::KernelConfig;
use jsk_core::kernel::JsKernel;
use jsk_defenses::registry::DefenseKind;
use jsk_workloads::schedule::{corpus_schedules, run_schedule_with, Schedule};

const SEED: u64 = 7;

fn run(kind: DefenseKind, schedule: &Schedule, mediator: Box<dyn Mediator>) -> Browser {
    run_schedule_with(schedule, mediator, kind.config(SEED))
}

fn kernel_of(mediator: &dyn Mediator) -> &JsKernel {
    mediator
        .as_any()
        .and_then(|a| a.downcast_ref::<JsKernel>())
        .expect("a kernel defense builds a JsKernel")
}

#[test]
fn shared_plan_sites_match_fresh_plan_sites() {
    let defenses: [(DefenseKind, fn() -> KernelConfig); 2] = [
        (DefenseKind::JsKernel, KernelConfig::full),
        (DefenseKind::JsKernelHardened, KernelConfig::hardened),
    ];
    let corpus = corpus_schedules();
    assert_eq!(corpus.len(), 13);
    for (kind, config) in defenses {
        for schedule in &corpus {
            let shared = run(kind, schedule, kind.mediator());
            let fresh = run(kind, schedule, Box::new(JsKernel::new(config())));
            let what = format!("{} under {kind:?}", schedule.name);
            assert_eq!(shared.trace_json(), fresh.trace_json(), "trace: {what}");
            assert_eq!(shared.records(), fresh.records(), "records: {what}");
            assert_eq!(shared.console(), fresh.console(), "console: {what}");
            let stats = |b: &Browser| b.mediator_as::<JsKernel>().map(|k| k.stats().clone());
            assert!(stats(&shared).is_some(), "no kernel: {what}");
            assert_eq!(stats(&shared), stats(&fresh), "stats: {what}");
        }
    }
}

#[test]
fn mediators_of_one_defense_share_one_plan() {
    let a = DefenseKind::JsKernel.mediator();
    let b = DefenseKind::JsKernel.mediator();
    let hardened = DefenseKind::JsKernelHardened.mediator();
    let (a, b, hardened) = (kernel_of(&*a), kernel_of(&*b), kernel_of(&*hardened));
    assert!(Arc::ptr_eq(a.plan(), b.plan()));
    assert!(!Arc::ptr_eq(a.plan(), hardened.plan()));
    assert_eq!(a.config(), &KernelConfig::full());
    assert_eq!(hardened.config(), &KernelConfig::hardened());
    let fresh = JsKernel::new(KernelConfig::full());
    assert!(!Arc::ptr_eq(a.plan(), fresh.plan()));
}
