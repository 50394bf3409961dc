//! Hot-path throughput: the three structures the dispatch-path overhaul
//! rebuilt — compiled policy decision tables, the heap-based event queue,
//! and interned trace records — exercised as tight loops over the same
//! operations the kernel performs per asynchronous event.
//!
//! The JSON record's cells are deterministic operation and outcome counts
//! (byte-identical across machines and `JSK_JOBS` settings); wall-clock
//! throughput prints per phase and lands in the run metadata's
//! `steps_per_sec`, where the regression gate holds it to the committed
//! baseline. There is no simulated browser in this harness, so
//! `probe.steps` counts hot-path operations instead of event-loop steps.
//!
//! `JSK_HOTPATH_ROUNDS` scales the structure phases (default 1 000 000);
//! `JSK_HOTPATH_STEADY` scales the end-to-end `dispatch-steady` phase
//! (default 250 000 kernel events).

use jsk_browser::event::{AsyncEventInfo, AsyncKind};
use jsk_browser::ids::{EventToken, RequestId, ThreadId, WorkerId};
use jsk_browser::mediator::{ApiOutcome, ConfirmDecision, Mediator, MediatorCtx, MediatorOp};
use jsk_browser::trace::{ApiCall, Fact, Interner, TerminationReason, Trace};
use jsk_core::equeue::{DrainScratch, KernelEventQueue};
use jsk_core::kernel::JsKernel;
use jsk_core::kevent::{KEventStatus, KernelEvent};
use jsk_core::policy::{cve, PolicyEngine};
use jsk_core::stats::StatsSnapshot;
use jsk_core::threads::ThreadManager;
use jsk_sim::rng::SimRng;
use jsk_sim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Events per equeue round: push 64, confirm 64, drain.
const BATCH: u64 = 64;

/// Distinct URLs in the trace-record phase, so the interner exercises its
/// hit path (the steady state of a real page) rather than growing forever.
const URL_POOL: usize = 64;

struct Phase {
    row: &'static str,
    ops: u64,
    wall_ms: f64,
}

fn timed(row: &'static str, f: impl FnOnce() -> u64) -> Phase {
    let start = Instant::now();
    let ops = f();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let rate = if wall_ms > 0.0 {
        ops as f64 / wall_ms * 1e3
    } else {
        0.0
    };
    println!("[hotpath] {row}: {ops} ops in {wall_ms:.0}ms ({rate:.0} ops/s)");
    Phase { row, ops, wall_ms }
}

/// A fixed mix of intercepted calls covering the busiest selectors: most
/// are allowed (the steady state the paper's overhead numbers measure),
/// two trip CVE policies so the deny path stays in the loop.
fn call_mix(strings: &mut Interner) -> Vec<ApiCall> {
    let url = strings.intern("https://origin.example/api");
    let xurl = strings.intern("https://victim.example/secret");
    let src = strings.intern("worker.js");
    vec![
        ApiCall::Fetch {
            thread: ThreadId::new(1),
            req: RequestId::new(1),
            url,
            has_signal: true,
        },
        ApiCall::XhrSend {
            thread: ThreadId::new(1),
            from_worker: true,
            url,
            cross_origin: false,
        },
        ApiCall::PostMessage {
            from: ThreadId::new(1),
            to: ThreadId::new(0),
            transfer_count: 0,
            to_doc_freed: false,
        },
        ApiCall::TerminateWorker {
            worker: WorkerId::new(0),
            reason: TerminationReason::Explicit,
            during_dispatch: false,
            live_transfers: 0,
            pending_fetches: 0,
        },
        ApiCall::CreateWorker {
            parent: ThreadId::new(0),
            worker: WorkerId::new(0),
            src,
            sandboxed: false,
        },
        ApiCall::DeliverAbort {
            req: RequestId::new(2),
            owner: ThreadId::new(1),
            owner_alive: false,
        },
        ApiCall::XhrSend {
            thread: ThreadId::new(1),
            from_worker: true,
            url: xurl,
            cross_origin: true,
        },
        ApiCall::SetOnMessage {
            thread: ThreadId::new(0),
            worker: Some(WorkerId::new(0)),
            worker_closing: false,
        },
    ]
}

fn policy_decide(rounds: usize) -> (Phase, u64) {
    let engine = PolicyEngine::new(cve::all_cve_policies());
    let mut threads = ThreadManager::new();
    let mut strings = Interner::new();
    threads.register(
        WorkerId::new(0),
        ThreadId::new(1),
        ThreadId::new(0),
        strings.intern("worker.js"),
    );
    let mix = call_mix(&mut strings);
    let mut denies = 0u64;
    let phase = timed("policy-decide", || {
        let mut ops = 0u64;
        for _ in 0..rounds {
            for call in &mix {
                let (outcome, _) = engine.decide(black_box(call), &threads);
                if !matches!(outcome, ApiOutcome::Allow) {
                    denies += 1;
                }
                ops += 1;
            }
        }
        ops
    });
    (phase, denies)
}

fn equeue_churn(rounds: u64) -> (Phase, u64) {
    let mut q = KernelEventQueue::new();
    let mut scratch = DrainScratch::new();
    let mut drained = 0u64;
    let phase = timed("equeue-churn", || {
        for r in 0..rounds {
            for i in 0..BATCH {
                q.push(KernelEvent::pending(
                    EventToken::new(r * BATCH + i),
                    ThreadId::new(0),
                    AsyncKind::Raf,
                    SimTime::from_millis(i),
                ));
            }
            for i in 0..BATCH {
                q.lookup_mut(EventToken::new(r * BATCH + i)).unwrap().status =
                    KEventStatus::Confirmed;
            }
            scratch.clear();
            q.drain_dispatchable_into(&mut scratch);
            drained += scratch.len() as u64;
            black_box(&scratch);
        }
        // One op per push, per confirm, and per drained event.
        rounds * BATCH * 2 + drained
    });
    (phase, drained)
}

fn trace_record(rounds: usize) -> (Phase, u64) {
    let urls: Vec<String> = (0..URL_POOL)
        .map(|i| format!("https://site{i}.example/path"))
        .collect();
    let mut trace = Trace::new();
    let phase = timed("trace-record", || {
        let mut ops = 0u64;
        for i in 0..rounds {
            let t = SimTime::from_millis(i as u64);
            let url = trace.intern(&urls[i % URL_POOL]);
            trace.api(
                t,
                ApiCall::Fetch {
                    thread: ThreadId::new(1),
                    req: RequestId::new(i as u64),
                    url,
                    has_signal: false,
                },
            );
            trace.fact(
                t,
                Fact::FetchStarted {
                    req: RequestId::new(i as u64),
                    thread: ThreadId::new(1),
                    has_signal: false,
                },
            );
            ops += 2;
        }
        black_box(&trace);
        ops
    });
    let symbols = trace.strings().len() as u64;
    (phase, symbols)
}

/// The observability hot path: a fixed hook sequence (dispatch span,
/// counter, latency histogram, depth gauge) driven through the dynamic
/// [`Subscriber`](jsk_observe::Subscriber) handle the kernel holds — the
/// per-hook cost an attached observer adds. The kernel itself no longer
/// bumps a counter per event: it publishes `KernelStats` once per run.
/// A metrics-only observer keeps the loop allocation-free after warm-up.
fn observe_hooks(rounds: u64) -> (Phase, u64, jsk_observe::MetricsSnapshot) {
    let obs = jsk_observe::Observer::new().shared();
    let handle = jsk_observe::handle_of(&obs);
    let dispatch = handle.intern("kernel.dispatch");
    let dispatched = handle.intern("kernel.dispatched");
    let latency = handle.intern("kernel.dispatch_latency_ticks");
    let depth = handle.intern("kernel.equeue_depth");
    let phase = timed("observe-hooks", || {
        for i in 0..rounds {
            let t = SimTime::from_millis(i);
            handle.span_enter(dispatch, 0, t);
            handle.counter_add(dispatched, 1);
            handle.histogram_record(latency, i % 257);
            handle.gauge_set(depth, i % 63);
            handle.span_exit(dispatch, 0, t);
        }
        // One op per hook invocation.
        rounds * 5
    });
    let snapshot = obs.borrow().metrics();
    let total = snapshot.counter("kernel.dispatched");
    (phase, total, snapshot)
}

/// The end-to-end kernel steady state: a live [`JsKernel`] driven through
/// the same mediator hooks the browser calls — one full
/// register → confirm → serialized dispatch → post-task tick cycle per
/// event, over a mix of stream kinds (message, timeout, raf, media) on one
/// thread. After the dense-state overhaul this loop performs **zero heap
/// allocations per event** once warm (the `alloc_steady` gate proves it);
/// this phase measures what that buys: sustained kernel events per second,
/// which lands in the run metadata's `kernel_events_per_sec` where the
/// regression gate holds it to the committed baseline.
fn dispatch_steady(events: u64) -> (Phase, u64, StatsSnapshot) {
    let mut k = JsKernel::default();
    let mut rng = SimRng::new(0x57EAD);
    let main = ThreadId::new(0);
    let sender = ThreadId::new(1);
    // Mediator-call buffers recycled across every hook invocation, exactly
    // as the browser's `med_scratch` does.
    let mut ops: Vec<MediatorOp> = Vec::new();
    let mut marks: Vec<u32> = Vec::new();
    let phase = timed("dispatch-steady", || {
        let mut hook_calls = 0u64;
        for i in 0..events {
            // The virtual clock outruns every prediction ladder (the
            // fastest, media, climbs 33 ms per firing), so each confirm
            // dispatches immediately — the sustained steady state.
            let now = SimTime::from_millis(25 * (i + 1));
            let kind = match i % 4 {
                0 => AsyncKind::Message { from: sender },
                1 => AsyncKind::Timeout {
                    delay: SimDuration::from_millis(1),
                    nesting: 0,
                },
                2 => AsyncKind::Raf,
                _ => AsyncKind::Media,
            };
            let info = AsyncEventInfo {
                token: EventToken::new(i + 1),
                thread: main,
                kind,
                registered_at: now,
                doc_generation: 0,
                context: 0,
            };
            let mut ctx = MediatorCtx::recycled(
                now,
                &mut rng,
                std::mem::take(&mut ops),
                std::mem::take(&mut marks),
            );
            k.on_register(&mut ctx, &info);
            let d = k.on_confirm(&mut ctx, &info, now);
            debug_assert!(
                matches!(d, ConfirmDecision::InvokeAt(_)),
                "steady-state confirm deferred: {d:?}"
            );
            k.on_task_dispatched(&mut ctx, main, Some(info.token), 0);
            k.on_tick(&mut ctx, main);
            hook_calls += 4;
            let (o, m) = ctx.into_parts();
            ops = o;
            marks = m;
            ops.clear();
            marks.clear();
        }
        black_box(&k);
        hook_calls
    });
    let snap = k.stats().snapshot();
    (phase, snap.dispatched, snap)
}

fn main() {
    let rounds = jsk_bench::env_knob("JSK_HOTPATH_ROUNDS", 1_000_000);
    let steady_events = jsk_bench::env_knob("JSK_HOTPATH_STEADY", 250_000) as u64;
    let mut reporter = jsk_bench::record::BenchReporter::new("hotpath");
    reporter.knob("JSK_HOTPATH_ROUNDS", rounds);
    reporter.knob("JSK_HOTPATH_STEADY", steady_events as usize);

    let (decide, denies) = policy_decide(rounds);
    let (equeue, drained) = equeue_churn(rounds as u64 / 32);
    let (record, symbols) = trace_record(rounds);
    let (observe, hooked, obs_snapshot) = observe_hooks(rounds as u64);
    let (steady, dispatched, kernel_snapshot) = dispatch_steady(steady_events);

    let mut report = jsk_bench::Report::new(
        "Hot-path throughput (dispatch-path structures)",
        &["phase", "ops", "wall ms", "kops/sec"],
    );
    let mut probe = jsk_bench::record::Probe::default();
    for phase in [&decide, &equeue, &record, &observe, &steady] {
        report.row(vec![
            phase.row.to_owned(),
            phase.ops.to_string(),
            format!("{:.0}", phase.wall_ms),
            format!("{:.0}", phase.ops as f64 / phase.wall_ms.max(1e-9)),
        ]);
        // No simulated browser here: steps count hot-path operations, so
        // the run metadata's steps_per_sec is combined hot-path throughput.
        probe.steps += phase.ops;
    }
    report.print();

    // Cells are deterministic counts only; throughput lives in the meta.
    for (phase, outcome, label, unit) in [
        (&decide, denies, "non-allow outcomes", "denies"),
        (&equeue, drained, "events drained", "events"),
        (&record, symbols, "interned symbols", "symbols"),
        (&observe, hooked, "dispatched counter", "events"),
        (&steady, dispatched, "events dispatched", "events"),
    ] {
        reporter.cell(jsk_bench::record::CellRecord::value(
            phase.row,
            "ops",
            phase.ops as f64,
            "ops",
        ));
        reporter.cell(jsk_bench::record::CellRecord::value(
            phase.row,
            label,
            outcome as f64,
            unit,
        ));
    }
    // The steady-state kernel's counters feed the meta's
    // kernel_events_per_sec, holding end-to-end dispatch throughput to the
    // committed baseline alongside the combined steps_per_sec.
    probe.stats.merge(&kernel_snapshot);
    reporter.absorb(&probe);
    // The regression gate diffs these counters exactly against the
    // committed baseline (deterministic under fixed knobs).
    reporter.observe(&obs_snapshot);
    reporter.finish().expect("write bench JSON");
}
