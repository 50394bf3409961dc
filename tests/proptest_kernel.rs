//! Property-based tests on the kernel's core invariants (DESIGN.md §6).

use jsk_core::equeue::KernelEventQueue;
use jsk_core::kclock::KernelClock;
use jsk_core::kernel::JsKernel;
use jsk_core::kevent::KernelEvent;
use jsk_core::policy::{cve, PolicyEngine};
use jsk_core::threads::ThreadManager;
use jskernel::browser::event::{AsyncEventInfo, AsyncKind};
use jskernel::browser::ids::{EventToken, RequestId, ThreadId};
use jskernel::browser::mediator::{ConfirmDecision, Mediator, MediatorCtx, MediatorOp};
use jskernel::browser::task::{cb, worker_script};
use jskernel::browser::trace::ApiCall;
use jskernel::browser::value::JsValue;
use jskernel::sim::rng::SimRng;
use jskernel::sim::time::{SimDuration, SimTime};
use jskernel::{DefenseKind, KernelConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// The kernel event queue pops in non-decreasing predicted order with
    /// stable ties, regardless of push order.
    #[test]
    fn equeue_orders_by_prediction(preds in proptest::collection::vec(0u64..40, 1..120)) {
        let mut q = KernelEventQueue::new();
        for (i, &p) in preds.iter().enumerate() {
            q.push(KernelEvent::pending(
                EventToken::new(i as u64),
                ThreadId::new(0),
                AsyncKind::Raf,
                SimTime::from_millis(p),
            ));
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(e) = q.pop() {
            if let Some((lp, lt)) = last {
                prop_assert!(e.predicted >= lp);
                if e.predicted == lp {
                    prop_assert!(e.token.index() > lt, "FIFO tie-break");
                }
            }
            last = Some((e.predicted, e.token.index()));
        }
    }

    /// The kernel clock never decreases under any interleaving of ticks and
    /// advances.
    #[test]
    fn kclock_is_monotone(ops in proptest::collection::vec((proptest::bool::ANY, 0u64..50), 1..200)) {
        let mut c = KernelClock::new(SimDuration::from_micros(1));
        let mut last = c.display();
        for (tick, adv) in ops {
            if tick {
                c.tick();
            } else {
                c.advance_to(SimTime::from_millis(adv));
            }
            let now = c.display();
            prop_assert!(now >= last, "clock went backwards");
            last = now;
        }
    }

    /// The policy engine is deterministic and total: any combination of
    /// abort facts yields a decision, and the same input twice yields the
    /// same decision.
    #[test]
    fn policy_engine_is_total_and_deterministic(owner_alive in proptest::bool::ANY, req in 0u64..100) {
        let engine = PolicyEngine::new(cve::all_cve_policies());
        let threads = ThreadManager::new();
        let call = ApiCall::DeliverAbort {
            req: RequestId::new(req),
            owner: ThreadId::new(1),
            owner_alive,
        };
        let (a, ra) = engine.decide(&call, &threads);
        let (b, rb) = engine.decide(&call, &threads);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(ra, rb);
        // Abort suppression iff the owner is gone.
        prop_assert_eq!(
            matches!(a, jskernel::browser::mediator::ApiOutcome::Deny { .. }),
            !owner_alive
        );
    }

    /// Full-stack determinism: an arbitrary little program produces the
    /// same observable records under the kernel for any physical seed.
    #[test]
    fn kernel_observables_are_seed_independent(
        seed_a in 0u64..1000,
        seed_b in 1000u64..2000,
        delays in proptest::collection::vec(1u32..30, 1..5),
    ) {
        prop_assert_eq!(
            ping_pong_records(seed_a, &delays),
            ping_pong_records(seed_b, &delays)
        );
    }
}

/// The worker ping-pong program `kernel_observables_are_seed_independent`
/// generates, runnable at a pinned seed.
fn ping_pong_records(seed: u64, delays: &[u32]) -> std::collections::BTreeMap<String, JsValue> {
    let mut b = DefenseKind::JsKernel.build(seed);
    let ds = delays.to_vec();
    b.boot(move |scope| {
        let w = scope.create_worker(
            "w.js",
            worker_script(|scope| {
                scope.set_onmessage(cb(|scope, v| {
                    scope.post_message(v);
                }));
            }),
        );
        scope.set_worker_onmessage(
            w,
            cb(|scope, v| {
                let t = scope.performance_now();
                let n = v.as_f64().unwrap_or_default();
                scope.record(format!("at{n}"), JsValue::from(t));
            }),
        );
        for (i, d) in ds.iter().enumerate() {
            scope.set_timeout(
                f64::from(*d),
                cb(move |scope, _| {
                    scope.post_message_to_worker(w, JsValue::from(i as f64));
                }),
            );
        }
    });
    b.run_until_idle();
    b.records().clone()
}

/// Regression for the first shrunk counterexample proptest found
/// (`proptest_kernel.proptest-regressions`): two timers with the same
/// 27 ms delay exposed a seed-dependent tie-break. Pinned so the exact case
/// runs on every CI pass, not only when proptest replays its seed file.
#[test]
fn regression_same_delay_timers_seed_636_vs_1438() {
    let delays = [27, 27];
    assert_eq!(
        ping_pong_records(636, &delays),
        ping_pong_records(1438, &delays)
    );
}

/// Regression for the second shrunk counterexample: four staggered timers
/// (1, 17, 1, 20 ms) with a duplicated shortest delay reordered deliveries
/// across seeds 0 and 1544.
#[test]
fn regression_staggered_timers_seed_0_vs_1544() {
    let delays = [1, 17, 1, 20];
    assert_eq!(
        ping_pong_records(0, &delays),
        ping_pong_records(1544, &delays)
    );
}

/// Where the test believes one registered event stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Pending,
    Confirmed,
    /// The watchdog wrote the pending head off.
    WrittenOff,
    Cancelled,
    Released,
}

/// One registered event: what was registered, the instant the kernel
/// predicted for it, and its stage. Its index in [`Driver::events`] is its
/// token and its registration order, the queue's tie-break.
struct Tracked {
    info: AsyncEventInfo,
    predicted: SimTime,
    stage: Stage,
}

/// Something the simulated browser does later: pump the kernel, or run a
/// released event's task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Later {
    Tick,
    Run(u64),
}

/// A one-thread stand-in for the browser around a real [`JsKernel`]: it
/// feeds the kernel registrations, confirmations and cancellations, runs
/// the ticks and tasks the kernel asks for in time order, and checks
/// every release against the events it knows are still waiting.
struct Driver {
    kernel: JsKernel,
    rng: SimRng,
    now: SimTime,
    events: Vec<Tracked>,
    later: BTreeSet<(SimTime, u64, Later)>,
    later_seq: u64,
    watchdog_expired: u64,
}

const THREAD: ThreadId = ThreadId::new(0);

impl Driver {
    fn new(seed: u64) -> Driver {
        let mut cfg = KernelConfig::full();
        cfg.check_invariants = true;
        // Short enough that blocked heads expire inside a run.
        cfg.watchdog_hold = SimDuration::from_millis(40);
        Driver {
            kernel: JsKernel::new(cfg),
            rng: SimRng::new(seed),
            now: SimTime::ZERO,
            events: Vec::new(),
            later: BTreeSet::new(),
            later_seq: 0,
            watchdog_expired: 0,
        }
    }

    /// Runs one kernel hook at the current instant and applies what it
    /// asked for.
    fn hook<R>(&mut self, f: impl FnOnce(&mut JsKernel, &mut MediatorCtx<'_>) -> R) -> R {
        let mut rng = SimRng::new(0);
        let mut ctx = MediatorCtx::new(self.now, &mut rng);
        let out = f(&mut self.kernel, &mut ctx);
        let ops = ctx.into_ops();
        let expired = self.kernel.stats().watchdog_expired;
        if expired > self.watchdog_expired {
            assert_eq!(expired, self.watchdog_expired + 1, "one expiry per hook");
            self.watchdog_expired = expired;
            // The watchdog only ever writes off the head, which is the
            // earliest event still waiting, and it must be pending.
            let head = self
                .earliest_waiting()
                .expect("an expired head was waiting");
            assert_eq!(
                self.events[head].stage,
                Stage::Pending,
                "expired a non-pending head"
            );
            self.events[head].stage = Stage::WrittenOff;
        }
        for op in ops {
            match op {
                MediatorOp::Release { token, at } => self.released(token.index(), at),
                MediatorOp::ScheduleTick { at, .. } => self.schedule(at, Later::Tick),
                _ => {}
            }
        }
        out
    }

    fn schedule(&mut self, at: SimTime, what: Later) {
        self.later.insert((at.max(self.now), self.later_seq, what));
        self.later_seq += 1;
    }

    /// The waiting (pending or confirmed, not yet released) event the
    /// queue orders first: earliest prediction, then registration order.
    fn earliest_waiting(&self) -> Option<usize> {
        (0..self.events.len())
            .filter(|&i| matches!(self.events[i].stage, Stage::Pending | Stage::Confirmed))
            .min_by_key(|&i| (self.events[i].predicted, i))
    }

    fn released(&mut self, token: u64, at: SimTime) {
        let i = token as usize;
        assert_eq!(self.events[i].stage, Stage::Confirmed, "released event {i}");
        let first = self
            .earliest_waiting()
            .expect("the released event was waiting");
        assert_eq!(
            first, i,
            "event {i} (predicted {}) overtook waiting event {first} (predicted {}, {:?})",
            self.events[i].predicted, self.events[first].predicted, self.events[first].stage
        );
        assert!(at >= self.events[i].predicted, "event {i} released early");
        self.events[i].stage = Stage::Released;
        self.schedule(at, Later::Run(token));
    }

    fn register(&mut self) {
        let token = self.events.len() as u64;
        let kind = match self.rng.index(4) {
            0 => AsyncKind::Raf,
            1 => AsyncKind::Timeout {
                delay: SimDuration::from_millis(self.rng.range_u64(0, 20)),
                nesting: 0,
            },
            2 => AsyncKind::Message { from: THREAD },
            _ => AsyncKind::Idb,
        };
        let info = AsyncEventInfo {
            token: EventToken::new(token),
            thread: THREAD,
            kind,
            registered_at: self.now,
            doc_generation: 0,
            context: 0,
        };
        self.hook(|k, ctx| k.on_register(ctx, &info));
        let predicted = self.kernel.predicted(info.token).expect("registered");
        self.events.push(Tracked {
            info,
            predicted,
            stage: Stage::Pending,
        });
    }

    /// Confirms a random unconfirmed event (a written-off one too: its
    /// confirmation was late, not lost).
    fn confirm(&mut self, pick: Option<usize>) {
        let open: Vec<usize> = (0..self.events.len())
            .filter(|&i| matches!(self.events[i].stage, Stage::Pending | Stage::WrittenOff))
            .collect();
        if open.is_empty() {
            return;
        }
        let i = pick.unwrap_or_else(|| open[self.rng.index(open.len())]);
        let was = self.events[i].stage;
        if was == Stage::Pending {
            self.events[i].stage = Stage::Confirmed;
        }
        let info = self.events[i].info;
        let now = self.now;
        match self.hook(|k, ctx| k.on_confirm(ctx, &info, now)) {
            ConfirmDecision::InvokeAt(at) => self.released(i as u64, at),
            ConfirmDecision::Withhold => assert_eq!(was, Stage::Pending),
            ConfirmDecision::Drop => {
                assert_eq!(was, Stage::WrittenOff, "dropped event {i}");
                self.events[i].stage = Stage::Cancelled;
            }
        }
    }

    /// Cancels a random event that has not run yet.
    fn cancel(&mut self) {
        let open: Vec<usize> = (0..self.events.len())
            .filter(|&i| {
                matches!(
                    self.events[i].stage,
                    Stage::Pending | Stage::Confirmed | Stage::WrittenOff
                )
            })
            .collect();
        if open.is_empty() {
            return;
        }
        let i = open[self.rng.index(open.len())];
        self.events[i].stage = Stage::Cancelled;
        self.hook(|k, ctx| k.on_cancel(ctx, EventToken::new(i as u64)));
    }

    /// Moves the clock to `until`, running every tick and task due by then
    /// in time order.
    fn advance(&mut self, until: SimTime) {
        while let Some(&first) = self.later.first() {
            if first.0 > until {
                break;
            }
            self.later.remove(&first);
            self.now = first.0;
            match first.2 {
                Later::Tick => self.hook(|k, ctx| k.on_tick(ctx, THREAD)),
                Later::Run(token) => self.hook(|k, ctx| {
                    k.on_task_dispatched(ctx, THREAD, Some(EventToken::new(token)), 0);
                }),
            }
        }
        self.now = self.now.max(until);
    }
}

/// The dispatcher's `top`/`pop` loop, driven through a live kernel: under
/// random registrations, confirmations and cancellations on one thread,
/// with the watchdog writing off heads that block confirmed work, no
/// release overtakes an earlier-predicted event that is still waiting, no
/// event is released before its predicted instant, every confirmed event
/// is eventually released, and the kernel's own invariant checker stays
/// clean.
#[test]
fn kernel_releases_never_overtake_a_pending_event() {
    for seed in 0..40 {
        let mut d = Driver::new(seed);
        for _ in 0..400 {
            match d.rng.index(16) {
                0..=4 => d.register(),
                5..=9 => d.confirm(None),
                10 => d.cancel(),
                11..=14 => {
                    let step = SimDuration::from_micros(d.rng.range_u64(0, 3000));
                    d.advance(d.now + step);
                }
                _ => {
                    let step = SimDuration::from_millis(d.rng.range_u64(20, 120));
                    d.advance(d.now + step);
                }
            }
        }
        // Confirm everything still open, then let the kernel drain.
        while d.events.iter().any(|e| e.stage == Stage::Pending) {
            let i = d.events.iter().position(|e| e.stage == Stage::Pending);
            d.confirm(i);
        }
        d.advance(SimTime::MAX);
        for (i, e) in d.events.iter().enumerate() {
            assert!(
                matches!(
                    e.stage,
                    Stage::Released | Stage::Cancelled | Stage::WrittenOff
                ),
                "seed {seed}: event {i} left {:?}",
                e.stage
            );
        }
        assert!(
            d.kernel.invariant_violations().is_empty(),
            "seed {seed}: {:?}",
            d.kernel.invariant_violations()
        );
    }
}
