//! The defense interposition layer.
//!
//! A [`Mediator`] sits between user-space JavaScript and the "native"
//! browser, exactly where the paper's extensions sit: it sees every clock
//! read, every asynchronous event registration and confirmation, and every
//! security-relevant built-in call, and it decides what the user space
//! observes. The JSKernel itself (`jsk-core`), the baseline defenses
//! (`jsk-defenses`), and the do-nothing legacy browser are all mediators
//! over the same substrate — which is what makes the evaluation
//! apples-to-apples.
//!
//! Mediator hooks are **non-reentrant**: they receive a [`MediatorCtx`]
//! instead of the browser itself, and effects (releasing a withheld event,
//! scheduling a kernel tick, sending a kernel-space message) are queued as
//! [`MediatorOp`]s that the browser applies after the hook returns.

use crate::event::AsyncEventInfo;
use crate::ids::{EventToken, ThreadId};
use crate::trace::{ApiCall, EdgeKind};
use crate::value::JsValue;
use jsk_sim::rng::SimRng;
use jsk_sim::time::{SimDuration, SimTime};

/// Which clock API is being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockKind {
    /// `performance.now()`.
    PerformanceNow,
    /// `Date.now()`.
    DateNow,
    /// The timestamp argument passed to a `requestAnimationFrame` callback.
    RafTimestamp,
    /// The `event.timeStamp` field of a dispatched event.
    EventTimestamp,
}

/// Classes of interposed API for per-call overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterposeClass {
    /// Clock reads.
    Clock,
    /// Timer registration/cancellation.
    Timer,
    /// Messaging.
    Message,
    /// Worker lifecycle.
    Worker,
    /// Network APIs.
    Net,
    /// DOM operations.
    Dom,
    /// SharedArrayBuffer access.
    Sab,
}

/// Decision returned by [`Mediator::on_confirm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmDecision {
    /// Enqueue the callback to run at the given instant (clamped to now).
    InvokeAt(SimTime),
    /// Hold the event; the mediator will release it later via
    /// [`MediatorCtx::release`] (or drop it via [`MediatorCtx::drop_event`]).
    Withhold,
    /// Discard the event outright: its callback never runs. Returned for
    /// confirmations of events the mediator already gave up on (e.g. a
    /// watchdog-expired event whose confirmation finally arrived).
    Drop,
}

/// Decision returned by [`Mediator::on_api`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiOutcome {
    /// Let the native behaviour proceed unchanged.
    Allow,
    /// Block the call (the user space sees a benign failure).
    Deny {
        /// Why, for the trace.
        reason: String,
    },
    /// Deliver a replacement error-message string instead of the native one
    /// (for `ErrorEvent`).
    SanitizeError {
        /// The sanitized text.
        replacement: String,
    },
    /// For `CreateWorker`: do not spawn a parallel thread; run the worker
    /// cooperatively on the parent thread (Chrome Zero's polyfill).
    PolyfillWorker,
    /// For `TerminateWorker`: close only the user-visible object; the
    /// kernel-level thread stays alive until its obligations (pending
    /// fetches, live transfers, in-flight dispatches) settle.
    DeferTermination,
    /// For `CreateWorker` from a sandboxed context: force an opaque origin
    /// instead of the (buggy) inherited one.
    OpaqueOrigin,
    /// For `Navigate`/`CloseDocument`: cleanly cancel callbacks bound to the
    /// outgoing document before teardown.
    CancelDocBound,
    /// For `SetOnMessage` on a closing worker: silently ignore the
    /// assignment instead of letting the native setter crash.
    DropQuietly,
}

/// A deferred effect queued by a mediator hook.
#[derive(Debug, Clone, PartialEq)]
pub enum MediatorOp {
    /// Enqueue the withheld event's callback at the given instant.
    Release {
        /// The withheld event.
        token: EventToken,
        /// When it may run (clamped to now).
        at: SimTime,
    },
    /// Discard the withheld event entirely.
    DropEvent {
        /// The withheld event.
        token: EventToken,
    },
    /// Ask the browser to call [`Mediator::on_tick`] for `thread` at `at`.
    ScheduleTick {
        /// The thread whose kernel state should be pumped.
        thread: ThreadId,
        /// When.
        at: SimTime,
    },
    /// Deliver a kernel-space message (the paper's overlay channel with a
    /// `type` field distinguishing kernel from user traffic, §III-E2) to
    /// [`Mediator::on_kernel_message`] at `at`.
    KernelSend {
        /// Sending thread.
        from: ThreadId,
        /// Receiving thread.
        to: ThreadId,
        /// Payload.
        payload: JsValue,
        /// Delivery instant.
        at: SimTime,
        /// The HB node the send is attributed to (the task the hook ran
        /// inside, if any) — carried to the receiver so kernel-induced
        /// orderings become [`crate::trace::HbEdge`]s.
        sender_node: Option<u64>,
    },
    /// Record a happens-before ordering edge in the trace.
    OrderEdge {
        /// Source node (ordered before).
        from: u64,
        /// Destination node (ordered after).
        to: u64,
        /// Why the edge exists.
        kind: EdgeKind,
    },
}

/// The restricted view of the browser a mediator hook runs against. The
/// browser builds one per hook call and applies its queued ops, in order,
/// once the hook returns.
#[derive(Debug)]
pub struct MediatorCtx<'a> {
    /// The current raw virtual instant.
    pub now: SimTime,
    /// A seeded RNG stream reserved for the mediator (used e.g. by
    /// Fuzzyfox's fuzzing).
    pub rng: &'a mut SimRng,
    /// The happens-before node of the task the hook is running inside, if
    /// the hook fires during a dispatched task. `None` for hooks that run
    /// outside any task (e.g. boot, machinery ticks).
    pub node: Option<u64>,
    ops: Vec<MediatorOp>,
}

impl<'a> MediatorCtx<'a> {
    /// Creates a context; the browser calls this around each hook.
    #[must_use]
    pub fn new(now: SimTime, rng: &'a mut SimRng) -> MediatorCtx<'a> {
        MediatorCtx {
            now,
            rng,
            node: None,
            ops: Vec::new(),
        }
    }

    /// Creates a context reusing a previously-returned op buffer (see
    /// [`into_ops`](Self::into_ops)). The steady-state path: the browser
    /// stashes the buffer between hooks so per-hook contexts allocate
    /// nothing once warm.
    #[must_use]
    pub fn recycled(
        now: SimTime,
        rng: &'a mut SimRng,
        mut ops: Vec<MediatorOp>,
    ) -> MediatorCtx<'a> {
        ops.clear();
        MediatorCtx {
            now,
            rng,
            node: None,
            ops,
        }
    }

    /// Queues release of a withheld event at `at`.
    pub fn release(&mut self, token: EventToken, at: SimTime) {
        self.ops.push(MediatorOp::Release { token, at });
    }

    /// Queues dropping a withheld event.
    pub fn drop_event(&mut self, token: EventToken) {
        self.ops.push(MediatorOp::DropEvent { token });
    }

    /// Queues a future [`Mediator::on_tick`] callback.
    pub fn schedule_tick(&mut self, thread: ThreadId, at: SimTime) {
        self.ops.push(MediatorOp::ScheduleTick { thread, at });
    }

    /// Queues a kernel-space message. The send is attributed to the HB node
    /// of the task the hook is running inside (if any), so a reply forwarded
    /// from `on_kernel_message` inherits the original sender's provenance.
    pub fn kernel_send(&mut self, from: ThreadId, to: ThreadId, payload: JsValue, at: SimTime) {
        self.ops.push(MediatorOp::KernelSend {
            from,
            to,
            payload,
            at,
            sender_node: self.node,
        });
    }

    /// Queues recording of a happens-before ordering edge (`from` happens
    /// before `to`) in the browser trace.
    pub fn order_edge(&mut self, from: u64, to: u64, kind: EdgeKind) {
        self.ops.push(MediatorOp::OrderEdge { from, to, kind });
    }

    /// Drains the queued operations (browser-internal), returning the
    /// buffer for reuse via [`recycled`](Self::recycled).
    #[must_use]
    pub fn into_ops(self) -> Vec<MediatorOp> {
        self.ops
    }
}

/// Context handed to [`Mediator::read_clock`].
#[derive(Debug, Clone, Copy)]
pub struct ClockRead {
    /// The reading thread.
    pub thread: ThreadId,
    /// Which API.
    pub kind: ClockKind,
    /// The raw virtual instant.
    pub raw: SimTime,
    /// The engine's native precision for this API (the legacy behaviour is
    /// to quantize `raw` down to this).
    pub native_precision: SimDuration,
}

impl ClockRead {
    /// The value a legacy (undefended) browser would display.
    #[must_use]
    pub fn native_display(&self) -> SimTime {
        self.raw.quantize_down(self.native_precision)
    }
}

/// A defense layer interposed between user scripts and the native browser.
///
/// All hooks default to legacy (pass-through) behaviour, so a unit struct
/// implementing only [`name`](Mediator::name) *is* the undefended browser.
pub trait Mediator {
    /// The defense's display name (used in tables and traces).
    fn name(&self) -> &str;

    /// Hands the mediator a subscriber to instrument itself with.
    ///
    /// `Browser::new` calls this when its config carries an observer
    /// (`BrowserConfig::with_observer`); kernels intern their span and
    /// metric names here and hook their dispatch path. The default
    /// ignores the handle — a defense without instrumentation stays
    /// uninstrumented.
    fn attach_observer(&mut self, observer: jsk_observe::ObsHandle) {
        let _ = observer;
    }

    /// Flushes counts the mediator keeps itself into the attached
    /// observer. `Browser::run_until` and `Browser::run_until_idle` call
    /// this on return, so an observer harvested between runs is current.
    /// The default publishes nothing.
    fn publish_metrics(&mut self) {}

    /// A thread came up (main thread at browser start, worker threads on
    /// creation). Kernel mediators use this to set up per-thread state.
    fn on_thread_started(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId, is_worker: bool) {
        let _ = (ctx, thread, is_worker);
    }

    /// A worker thread died (termination or crash). Kernel mediators reap
    /// the dead thread's still-queued events here so serialized dispatch
    /// never waits on an event that can no longer confirm.
    fn on_thread_exited(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId) {
        let _ = (ctx, thread);
    }

    /// A clock API is being read; returns the instant the user space sees.
    fn read_clock(&mut self, ctx: &mut MediatorCtx<'_>, read: ClockRead) -> SimTime {
        let _ = ctx;
        read.native_display()
    }

    /// An asynchronous event was registered.
    fn on_register(&mut self, ctx: &mut MediatorCtx<'_>, info: &AsyncEventInfo) {
        let _ = (ctx, info);
    }

    /// The raw browser trigger for `info` fired at `raw_fire`; decide when
    /// (whether) the callback runs.
    ///
    /// Called once per raw trigger, in trigger order, including triggers
    /// that share a virtual instant. The ops this call queues are applied,
    /// and then its decision, before the next trigger is confirmed.
    fn on_confirm(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        info: &AsyncEventInfo,
        raw_fire: SimTime,
    ) -> ConfirmDecision {
        let _ = (ctx, info);
        ConfirmDecision::InvokeAt(raw_fire)
    }

    /// A registered event was cancelled by user space (`clearTimeout`,
    /// `cancelAnimationFrame`, abort).
    fn on_cancel(&mut self, ctx: &mut MediatorCtx<'_>, token: EventToken) {
        let _ = (ctx, token);
    }

    /// A security-relevant built-in is about to run.
    fn on_api(&mut self, ctx: &mut MediatorCtx<'_>, call: &ApiCall) -> ApiOutcome {
        let _ = (ctx, call);
        ApiOutcome::Allow
    }

    /// A tick previously requested via [`MediatorCtx::schedule_tick`].
    fn on_tick(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId) {
        let _ = (ctx, thread);
    }

    /// A kernel-space message sent via [`MediatorCtx::kernel_send`] arrived.
    fn on_kernel_message(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        from: ThreadId,
        to: ThreadId,
        payload: &JsValue,
    ) {
        let _ = (ctx, from, to, payload);
    }

    /// A task began executing on `thread` (the kernel clock ticks here).
    /// `context` is the task's browsing-context tag.
    fn on_task_dispatched(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        thread: ThreadId,
        token: Option<EventToken>,
        context: u32,
    ) {
        let _ = (ctx, thread, token, context);
    }

    /// Per-call CPU overhead this defense adds to interposed APIs of the
    /// given class (drives the Dromaeo/Raptor overhead evaluation).
    fn interposition_cost(&self, class: InterposeClass) -> SimDuration {
        let _ = class;
        SimDuration::ZERO
    }

    /// Multiplier on scripted computation time (proxy-wrapped globals
    /// de-optimize script execution — Chrome Zero's visible page slowdown).
    fn compute_scale(&self) -> f64 {
        1.0
    }

    /// Whether `SharedArrayBuffer` construction is allowed at all
    /// (JavaScript Zero removes the constructor).
    fn allow_sab(&self) -> bool {
        true
    }

    /// Downcast support: mediators that expose post-run state (the
    /// kernel's statistics) override this to return themselves.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Whether SAB reads are frozen per task: the paper's JSKernel
    /// "provides a customized interface to access SharedArrayBuffer
    /// contents so that every access is redirected to the kernel and put
    /// into the event queue" (§III-E2) — a task observes one snapshot, so a
    /// cross-thread counter cannot time intra-task work.
    fn freeze_sab_reads(&self) -> bool {
        false
    }
}

/// The undefended browser: every hook passes through.
#[derive(Debug, Clone, Default)]
pub struct LegacyMediator;

impl Mediator for LegacyMediator {
    fn name(&self) -> &str {
        "legacy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AsyncKind;

    #[test]
    fn legacy_mediator_passes_through() {
        let mut m = LegacyMediator;
        let mut rng = SimRng::new(0);
        let mut ctx = MediatorCtx::new(SimTime::from_millis(5), &mut rng);
        let read = ClockRead {
            thread: ThreadId::new(0),
            kind: ClockKind::PerformanceNow,
            raw: SimTime::from_nanos(1_234_567),
            native_precision: SimDuration::from_micros(5),
        };
        // 1.234567 ms quantized to 5 µs => 1.230 ms.
        assert_eq!(m.read_clock(&mut ctx, read), SimTime::from_nanos(1_230_000));

        let info = AsyncEventInfo {
            token: EventToken::new(1),
            thread: ThreadId::new(0),
            kind: AsyncKind::Raf,
            registered_at: SimTime::ZERO,
            doc_generation: 0,
            context: 0,
        };
        let fire = SimTime::from_millis(16);
        assert_eq!(
            m.on_confirm(&mut ctx, &info, fire),
            ConfirmDecision::InvokeAt(fire)
        );
        assert_eq!(
            m.on_api(
                &mut ctx,
                &ApiCall::Navigate {
                    thread: ThreadId::new(0)
                }
            ),
            ApiOutcome::Allow
        );
        assert_eq!(m.interposition_cost(InterposeClass::Dom), SimDuration::ZERO);
        assert!(ctx.into_ops().is_empty());
    }

    #[test]
    fn ctx_collects_ops_in_order() {
        let mut rng = SimRng::new(0);
        let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
        ctx.release(EventToken::new(1), SimTime::from_millis(1));
        ctx.schedule_tick(ThreadId::new(0), SimTime::from_millis(2));
        ctx.drop_event(EventToken::new(2));
        let ops = ctx.into_ops();
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], MediatorOp::Release { .. }));
        assert!(matches!(ops[1], MediatorOp::ScheduleTick { .. }));
        assert!(matches!(ops[2], MediatorOp::DropEvent { .. }));
    }

    #[test]
    fn recycled_ctx_reuses_buffers_without_stale_state() {
        let mut rng = SimRng::new(0);
        let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
        ctx.release(EventToken::new(1), SimTime::from_millis(1));
        let ops = ctx.into_ops();
        assert_eq!(ops.len(), 1);
        let cap = ops.capacity();
        let ctx = MediatorCtx::recycled(SimTime::from_millis(9), &mut rng, ops);
        let ops = ctx.into_ops();
        assert!(ops.is_empty(), "recycled ctx starts empty");
        assert_eq!(ops.capacity(), cap, "capacity survives recycling");
    }
}
