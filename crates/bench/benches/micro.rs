//! Criterion micro-benchmarks of the kernel's data structures: the real
//! wall-clock cost of the structures the JSKernel interposes on every
//! asynchronous event.

use criterion::{criterion_group, BatchSize, Criterion};
use jsk_browser::event::AsyncKind;
use jsk_browser::ids::{EventToken, RequestId, ThreadId, WorkerId};
use jsk_browser::trace::ApiCall;
use jsk_core::equeue::KernelEventQueue;
use jsk_core::kclock::KernelClock;
use jsk_core::kevent::{KEventStatus, KernelEvent};
use jsk_core::policy::{cve, PolicyEngine};
use jsk_core::threads::ThreadManager;
use jsk_defenses::registry::DefenseKind;
use jsk_sim::time::{SimDuration, SimTime};
use std::hint::black_box;

fn bench_equeue(c: &mut Criterion) {
    c.bench_function("equeue push+confirm+drain (64 events)", |b| {
        b.iter_batched(
            KernelEventQueue::new,
            |mut q| {
                for i in 0..64u64 {
                    q.push(KernelEvent::pending(
                        EventToken::new(i),
                        ThreadId::new(0),
                        AsyncKind::Raf,
                        SimTime::from_millis(i),
                    ));
                }
                for i in 0..64u64 {
                    q.lookup_mut(EventToken::new(i)).unwrap().status = KEventStatus::Confirmed;
                }
                // The dispatcher's head loop: look at the head, pop it.
                let mut drained = 0usize;
                while let Some(status) = q.top().map(|e| e.status) {
                    match status {
                        KEventStatus::Pending => break,
                        KEventStatus::Cancelled | KEventStatus::Dispatched => {
                            q.pop();
                        }
                        KEventStatus::Confirmed => {
                            let mut e = q.pop().expect("top exists");
                            e.status = KEventStatus::Dispatched;
                            drained += 1;
                            black_box(e);
                        }
                    }
                }
                black_box(drained)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_kclock(c: &mut Criterion) {
    c.bench_function("kernel clock tick+display", |b| {
        let mut clock = KernelClock::new(SimDuration::from_micros(1));
        b.iter(|| {
            clock.tick();
            black_box(clock.display())
        });
    });
}

fn bench_policy_engine(c: &mut Criterion) {
    let engine = PolicyEngine::new(cve::all_cve_policies());
    let threads = ThreadManager::new();
    let call = ApiCall::TerminateWorker {
        worker: WorkerId::new(0),
        reason: jsk_browser::trace::TerminationReason::Explicit,
        during_dispatch: false,
        live_transfers: 1,
        pending_fetches: 0,
    };
    c.bench_function("policy engine decide (12 CVE policies)", |b| {
        b.iter(|| black_box(engine.decide(&call, &threads)));
    });
    let abort = ApiCall::DeliverAbort {
        req: RequestId::new(0),
        owner: ThreadId::new(1),
        owner_alive: false,
    };
    c.bench_function("policy engine decide (abort path)", |b| {
        b.iter(|| black_box(engine.decide(&abort, &threads)));
    });
}

fn bench_browser_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("browser-run");
    group.sample_size(20);
    for kind in [DefenseKind::LegacyChrome, DefenseKind::JsKernel] {
        group.bench_function(format!("timer storm under {}", kind.label()), |b| {
            b.iter(|| {
                let mut browser = kind.build(1);
                browser.boot(|scope| {
                    for i in 0..200 {
                        scope.set_timeout(f64::from(i), jsk_browser::task::cb(|_, _| {}));
                    }
                });
                browser.run_until_idle();
                black_box(browser.steps())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_equeue,
    bench_kclock,
    bench_policy_engine,
    bench_browser_run
);

/// Custom entry point: run the Criterion benches, then emit the
/// machine-readable record. Criterion's samples are wall-clock and
/// machine-dependent, so the JSON cells come from a deterministic timer
/// storm instead (step counts are pure simulation outputs) and the run's
/// wall-clock throughput lands in the BENCH_micro.json metadata.
fn main() {
    benches();

    let jobs = jsk_bench::pool::jobs();
    let mut reporter = jsk_bench::record::BenchReporter::new("micro");
    let configs = [DefenseKind::LegacyChrome, DefenseKind::JsKernel];
    let storms = jsk_bench::pool::run_indexed(configs.len(), jobs, |i| {
        let mut browser = configs[i].build(1);
        browser.boot(|scope| {
            for t in 0..200 {
                scope.set_timeout(f64::from(t), jsk_browser::task::cb(|_, _| {}));
            }
        });
        browser.run_until_idle();
        let mut probe = jsk_bench::record::Probe::default();
        probe.observe(&browser);
        (browser.steps(), probe)
    });
    for (i, (steps, probe)) in storms.iter().enumerate() {
        reporter.cell(jsk_bench::record::CellRecord::value(
            "timer storm (200 timers)",
            configs[i].label(),
            *steps as f64,
            "steps",
        ));
        reporter.absorb(probe);
    }
    reporter.finish().expect("write bench JSON");
}
