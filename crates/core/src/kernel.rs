//! The JSKernel mediator: the paper's kernel assembled.
//!
//! [`JsKernel`] implements the browser's [`jsk_browser::mediator::Mediator`]
//! seam with the four kernel components of §III-A:
//!
//! * **kernel objects** — a per-thread [`KernelEventQueue`] and
//!   [`KernelClock`];
//! * **scheduler** — registration pushes a *pending* event with a
//!   deterministic predicted time; confirmation flips it to *confirmed*;
//! * **dispatcher** — releases confirmed events strictly in predicted
//!   order, waiting whenever the head is still pending;
//! * **thread manager** — kernel threads mirroring user workers, with
//!   obligation tracking driven by the kernel-space message overlay
//!   (Listing 4's `pendingChildFetch`/`confirmFetch` protocol).
//!
//! The policy engine decides every intercepted API call; the kernel clock
//! makes every observable duration a function of API-call counts rather
//! than physical time.

use crate::check::InvariantChecker;
use crate::comm::KernelMsg;
use crate::config::KernelConfig;
use crate::equeue::KernelEventQueue;
use crate::fasthash::FastMap;
use crate::interface::KernelInterface;
use crate::kclock::KernelClock;
use crate::kevent::{KEventStatus, KernelEvent};
use crate::policy::PolicyEngine;
use crate::scheduler::CompiledPrediction;
use crate::stats::KernelStats;
use crate::threads::{KThreadStatus, ThreadManager};
use crate::token_table::TokenTable;
use jsk_browser::event::{AsyncEventInfo, AsyncKind};
use jsk_browser::ids::{EventToken, RequestId, ThreadId, WorkerId, MAIN_THREAD};
use jsk_browser::mediator::{
    ApiOutcome, ClockRead, ConfirmDecision, InterposeClass, Mediator, MediatorCtx,
};
use jsk_browser::trace::{ApiCall, EdgeKind};
use jsk_browser::value::JsValue;
use jsk_sim::time::{SimDuration, SimTime};
use std::sync::OnceLock;

/// Whether `JSK_DEBUG` tracing is enabled (checked once).
fn debug_enabled() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var("JSK_DEBUG").is_ok())
}

/// Per-thread kernel state: the thread's own event queue and clock
/// (§III-E1: "a kernel thread maintains a separate event queue and clock
/// from the main thread"), plus the handful of per-thread scalars the
/// dispatcher consults on every event. Keeping them inline here (rather
/// than in per-field maps keyed by thread) makes the steady-state path a
/// single indexed load with no hashing and no allocation.
#[derive(Debug)]
struct ThreadKernel {
    equeue: KernelEventQueue,
    clock: KernelClock,
    /// Predicted time of the task currently (or last) dispatched on this
    /// thread — the *causal* virtual time registrations inherit, so a
    /// registration's prediction is a function of the event history that
    /// caused it, never of physical durations.
    task_base: SimTime,
    /// The one event that has been released to the browser's event loop
    /// but has not started running yet. The dispatcher is *serialized*:
    /// it releases the next event only after the previous one's task body
    /// ran, so every registration that task makes (chained timers,
    /// self-posted messages) is in the queue before the next ordering
    /// decision — otherwise a later-predicted event could overtake a
    /// chain's not-yet-registered successor.
    inflight: Option<EventToken>,
    /// The HB node of the last task dispatched on this thread. Under
    /// deterministic scheduling the serialized dispatcher totally orders a
    /// thread's tasks, and the kernel *announces* that guarantee to the
    /// trace as [`EdgeKind::DispatchChain`] edges — the race detector only
    /// credits orderings a mediator actually enforced.
    last_node: Option<u64>,
    /// Watchdog state: the pending head that is currently blocking
    /// confirmed work, and when the kernel first saw it blocking. A
    /// pending head with nothing confirmed behind it costs nothing and is
    /// never timed; a blocked head whose confirmation was lost would stall
    /// the thread forever (livelock), so after `cfg.watchdog_hold` the
    /// dispatcher writes it off as cancelled (§III-D2 applied by the
    /// kernel itself rather than by user space).
    watchdog: Option<(EventToken, SimTime)>,
    /// HB nodes of tasks whose kernel-space messages (any [`KernelMsg`]
    /// where [`KernelMsg::induces_hb`] holds) were delivered to this
    /// thread while it has not dispatched its next task yet. Drained in
    /// place into [`EdgeKind::KernelComm`] edges at that next dispatch
    /// (the buffer is cleared, not dropped, so it is reused).
    pending_comm: Vec<u64>,
}

impl ThreadKernel {
    fn new(tick_unit: SimDuration) -> ThreadKernel {
        ThreadKernel {
            equeue: KernelEventQueue::new(),
            clock: KernelClock::new(tick_unit),
            task_base: SimTime::ZERO,
            inflight: None,
            last_node: None,
            watchdog: None,
            pending_comm: Vec::new(),
        }
    }
}

/// Dense stream-ladder class: the payload-free [`AsyncKind`] discriminant
/// that keys [`JsKernel`]'s `stream_last` ladders (replacing the interned
/// label strings the map used to carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StreamClass {
    Interval,
    Media,
    Css,
    Message,
    Raf,
    Timeout,
}

/// A stream-ladder key: (sender thread, browsing context, receiver
/// thread, class, period). Different channels and different pages never
/// share a ladder, so one page's traffic cannot shift another's slots.
type StreamKey = (ThreadId, u32, ThreadId, StreamClass, u64);

/// How many [`KernelStats`] counters [`stat_counters`] publishes.
const STAT_COUNTERS: usize = 12;
/// Index of `kernel.watchdog_expired` in [`stat_counters`].
const WATCHDOG_EXPIRED: usize = 9;
/// Index of `kernel.orphans_reaped` in [`stat_counters`].
const ORPHANS_REAPED: usize = 10;

/// The [`KernelStats`] counters an attached observer receives, as
/// (metric name, current value), in interning order. Each publish adds
/// every counter's growth since the previous one, so the observer's
/// totals equal the stats exactly (asserted by `tests/observe.rs`).
fn stat_counters(s: &KernelStats) -> [(&'static str, u64); STAT_COUNTERS] {
    [
        ("kernel.registered", s.registered),
        ("kernel.confirmed", s.confirmed),
        ("kernel.dispatched", s.dispatched),
        ("kernel.cancelled", s.cancelled),
        ("kernel.withheld_behind_pending", s.withheld_behind_pending),
        ("kernel.deferred_to_prediction", s.deferred_to_prediction),
        ("kernel.api_calls", s.api_calls),
        ("kernel.denials", s.total_denials()),
        ("kernel.kernel_messages", s.kernel_messages),
        ("kernel.watchdog_expired", s.watchdog_expired),
        ("kernel.orphans_reaped", s.orphans_reaped),
        ("kernel.equeue_overflow", s.equeue_overflow),
    ]
}

/// Pre-interned kernel observability names.
struct KernelSyms {
    dispatch: jsk_observe::Sym,
    equeue_drain: jsk_observe::Sym,
    policy_decide: jsk_observe::Sym,
    /// The [`stat_counters`] names, in the same order.
    stats: [jsk_observe::Sym; STAT_COUNTERS],
    policy_allow: jsk_observe::Sym,
    policy_deny: jsk_observe::Sym,
    policy_defer: jsk_observe::Sym,
    policy_sanitize: jsk_observe::Sym,
    policy_other: jsk_observe::Sym,
    equeue_depth: jsk_observe::Sym,
    dispatch_latency_ticks: jsk_observe::Sym,
    kevent_timeout: jsk_observe::Sym,
    kevent_interval: jsk_observe::Sym,
    kevent_message: jsk_observe::Sym,
    kevent_raf: jsk_observe::Sym,
    kevent_net: jsk_observe::Sym,
    kevent_media: jsk_observe::Sym,
    kevent_css_tick: jsk_observe::Sym,
    kevent_idb: jsk_observe::Sym,
}

impl KernelSyms {
    /// The async-span name for an event kind's register→dispatch lifetime.
    fn kevent(&self, kind: AsyncKind) -> jsk_observe::Sym {
        match kind {
            AsyncKind::Timeout { .. } => self.kevent_timeout,
            AsyncKind::Interval { .. } => self.kevent_interval,
            AsyncKind::Message { .. } => self.kevent_message,
            AsyncKind::Raf => self.kevent_raf,
            AsyncKind::Net { .. } => self.kevent_net,
            AsyncKind::Media => self.kevent_media,
            AsyncKind::CssTick => self.kevent_css_tick,
            AsyncKind::Idb => self.kevent_idb,
        }
    }
}

/// The kernel's attached observer, its interned names, and what has been
/// published into it so far.
struct KernelObs {
    handle: jsk_observe::ObsHandle,
    syms: KernelSyms,
    /// The [`stat_counters`] values as of the last publish.
    published: [u64; STAT_COUNTERS],
    /// A thread exited since the last publish. `kernel.orphans_reaped` is
    /// then published even if it did not grow, so it shows up (at 0) in
    /// the snapshot of any run in which a thread exited.
    thread_exited: bool,
}

impl KernelObs {
    fn new(handle: jsk_observe::ObsHandle, stats: &KernelStats) -> KernelObs {
        let counters = stat_counters(stats);
        let syms = KernelSyms {
            dispatch: handle.intern("kernel.dispatch"),
            equeue_drain: handle.intern("kernel.equeue_drain"),
            policy_decide: handle.intern("policy.decide"),
            stats: counters.map(|(name, _)| handle.intern(name)),
            policy_allow: handle.intern("policy.allow"),
            policy_deny: handle.intern("policy.deny"),
            policy_defer: handle.intern("policy.defer_termination"),
            policy_sanitize: handle.intern("policy.sanitize_error"),
            policy_other: handle.intern("policy.other"),
            equeue_depth: handle.intern("kernel.equeue_depth"),
            dispatch_latency_ticks: handle.intern("kernel.dispatch_latency_ticks"),
            kevent_timeout: handle.intern("kevent.timeout"),
            kevent_interval: handle.intern("kevent.interval"),
            kevent_message: handle.intern("kevent.message"),
            kevent_raf: handle.intern("kevent.raf"),
            kevent_net: handle.intern("kevent.net"),
            kevent_media: handle.intern("kevent.media"),
            kevent_css_tick: handle.intern("kevent.css-tick"),
            kevent_idb: handle.intern("kevent.idb"),
        };
        KernelObs {
            handle,
            syms,
            published: counters.map(|(_, value)| value),
            thread_exited: false,
        }
    }
}

/// The JSKernel.
pub struct JsKernel {
    cfg: KernelConfig,
    engine: PolicyEngine,
    threads: ThreadManager,
    interface: KernelInterface,
    /// The prediction quanta compiled to flat tables at construction.
    prediction: CompiledPrediction,
    /// Dense per-thread kernel state, indexed by `ThreadId::index()`.
    /// Browser thread ids are small and densely assigned, so the Vec is a
    /// direct-index slab; slots for ids the kernel never touched stay at
    /// their defaults, which match the old map-miss semantics exactly.
    per_thread: Vec<ThreadKernel>,
    /// token → (thread, predicted) for dispatch-time clock advance.
    /// Tokens are kernel-assigned monotonic integers, so the dense
    /// [`TokenTable`] replaces the old hash map on the hot path.
    token_info: TokenTable<(ThreadId, SimTime)>,
    /// Last predicted instant per stream — Listing 3's `predictOnMessage()`:
    /// successive events of a periodic source form a deterministic
    /// arithmetic ladder, so the number that fall into any observation
    /// window never reflects physical durations. Keyed by [`StreamKey`];
    /// ladders of a dead thread are evicted at thread exit (thread ids are
    /// never reused), so the map is bounded by *live* streams.
    stream_last: FastMap<StreamKey, SimTime>,
    /// Fetches owned by workers, as learned from interceptions. Keyed by
    /// the raw `RequestId` (monotonic, kernel-visible).
    fetch_worker: TokenTable<WorkerId>,
    /// Main-side record of announced child fetches (Listing 4 state).
    pending_child_fetches: TokenTable<WorkerId>,
    /// Workers whose backing browser thread has not been announced yet
    /// (CreateWorker interception precedes the thread spawn).
    pending_bind: std::collections::VecDeque<WorkerId>,
    /// Debug invariant checker (`cfg.check_invariants`).
    checker: Option<InvariantChecker>,
    /// Runtime counters.
    stats: KernelStats,
    /// Attached observer and its pre-interned names.
    obs: Option<KernelObs>,
}

impl std::fmt::Debug for JsKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsKernel")
            .field("deterministic", &self.cfg.deterministic)
            .field("policies", &self.engine.policies().len())
            .field("threads", &self.per_thread.len())
            .field("kernel_messages", &self.stats.kernel_messages)
            .finish()
    }
}

impl Default for JsKernel {
    fn default() -> Self {
        Self::new(KernelConfig::full())
    }
}

impl JsKernel {
    /// Creates a kernel with the given configuration.
    #[must_use]
    pub fn new(cfg: KernelConfig) -> JsKernel {
        let engine = PolicyEngine::new(cfg.policies.clone());
        let prediction = cfg.prediction.compile();
        JsKernel {
            engine,
            threads: ThreadManager::new(),
            interface: KernelInterface::standard(),
            prediction,
            per_thread: Vec::new(),
            token_info: TokenTable::new(),
            fetch_worker: TokenTable::new(),
            pending_child_fetches: TokenTable::new(),
            pending_bind: std::collections::VecDeque::new(),
            stats: KernelStats::new(),
            stream_last: FastMap::default(),
            checker: cfg.check_invariants.then(InvariantChecker::new),
            cfg,
            obs: None,
        }
    }

    /// Predicts an event's invocation instant. One-shot kinds predict from
    /// the kernel clock; periodic kinds (messages, intervals, frames, media
    /// and CSS ticks) additionally ride a per-stream ladder so successive
    /// predictions are exactly one quantum apart.
    fn predict(&mut self, info: &AsyncEventInfo) -> SimTime {
        // Compiled quantum tables: one indexed load per prediction.
        let quantum = self.prediction.delay_for(&info.kind);
        // Messages are predicted on the *sender's* kernel clock: Listing 3
        // interposes `JSKernel_WorkerPostMessage` in the sending thread, so
        // the prediction inherits the sender's deterministic timeline and a
        // busy receiver cannot imprint physical durations on it.
        let clock_thread = match info.kind {
            AsyncKind::Message { from } => from,
            _ => info.thread,
        };
        // Tick the clock so same-task registrations stay strictly ordered.
        // The causal base: the predicted time of the task making the
        // registration. Using the thread-global clock here would let
        // *other* streams' dispatches (which advance that clock) imprint
        // physical interleavings on this stream's predictions.
        let tk = self.tk(clock_thread);
        tk.clock.tick();
        let causal = tk.task_base + SimDuration::from_nanos(tk.clock.ticks());
        let base = causal + quantum;
        let (class, arithmetic_ladder) = match info.kind {
            // Browser-driven re-arms: the previous firing *is* the cause,
            // so the ladder is purely arithmetic after the first event.
            AsyncKind::Interval { .. } => (StreamClass::Interval, true),
            AsyncKind::Media => (StreamClass::Media, true),
            AsyncKind::CssTick => (StreamClass::Css, true),
            // Task-driven streams: causal base, floored by the stream
            // ladder so same-task bursts spread one quantum apart.
            AsyncKind::Message { .. } => (StreamClass::Message, false),
            AsyncKind::Raf => (StreamClass::Raf, false),
            AsyncKind::Timeout { .. } => (StreamClass::Timeout, false),
            AsyncKind::Net { .. } | AsyncKind::Idb => return base,
        };
        let k = (
            clock_thread,
            info.context,
            info.thread,
            class,
            quantum.as_nanos(),
        );
        let predicted = match self.stream_last.get(&k) {
            Some(&last) if arithmetic_ladder => last + quantum,
            Some(&last) => base.max(last + quantum),
            None => base,
        };
        self.stream_last.insert(k, predicted);
        predicted
    }

    /// The kernel interface table (for §VI robustness checks).
    #[must_use]
    pub fn interface(&self) -> &KernelInterface {
        &self.interface
    }

    /// The kernel thread manager (read-only view).
    #[must_use]
    pub fn thread_manager(&self) -> &ThreadManager {
        &self.threads
    }

    /// Number of kernel-space overlay messages processed.
    #[must_use]
    pub fn kernel_messages_seen(&self) -> u64 {
        self.stats.kernel_messages
    }

    /// Number of live per-stream prediction ladders (diagnostics/tests).
    /// Thread exit sweeps a thread's ladders, so worker churn cannot grow
    /// this without bound.
    #[must_use]
    pub fn stream_ladders(&self) -> usize {
        self.stream_last.len()
    }

    /// Runtime counters (scheduling pressure, policy denials, …).
    #[must_use]
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Advances a thread's kernel clock to an external timeline value —
    /// the §III-E2 clock-exchange primitive. DeterFox-style defenses use
    /// this to resynchronize a context's clock at context switches (which
    /// is exactly the cross-context leak Loopscan exploits).
    pub fn resync_clock(&mut self, thread: ThreadId, at: SimTime) {
        self.tk(thread).clock.advance_to(at);
    }

    fn tk(&mut self, thread: ThreadId) -> &mut ThreadKernel {
        let idx = thread.index() as usize;
        if idx >= self.per_thread.len() {
            // Thread ids are densely assigned by the browser; a huge index
            // here would mean an unbound placeholder id leaked into the
            // dispatch path.
            debug_assert!(idx < (1 << 20), "implausible thread index {idx}");
            let tick_unit = self.cfg.tick_unit;
            self.per_thread
                .resize_with(idx + 1, || ThreadKernel::new(tick_unit));
        }
        &mut self.per_thread[idx]
    }

    /// Releases at most one dispatchable head event on `thread` (the
    /// serialized dispatcher). If the released event is `just_confirmed`,
    /// its decision is returned (it is not yet in the browser's withheld
    /// set); otherwise it is released via a ctx op.
    fn dispatch(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        thread: ThreadId,
        just_confirmed: Option<EventToken>,
    ) -> ConfirmDecision {
        // The dispatch span: zero-width in sim-time (the kernel decides
        // between simulated instants), nested around the drain span below
        // by array order in the export.
        if let Some(o) = self.obs.as_ref() {
            o.handle
                .span_enter(o.syms.dispatch, thread.index(), ctx.now);
        }
        let decision = self.dispatch_inner(ctx, thread, just_confirmed);
        if let Some(o) = self.obs.as_ref() {
            o.handle.span_exit(o.syms.dispatch, thread.index(), ctx.now);
        }
        decision
    }

    fn dispatch_inner(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        thread: ThreadId,
        just_confirmed: Option<EventToken>,
    ) -> ConfirmDecision {
        let now = ctx.now;
        if self.tk(thread).inflight.is_some() {
            return ConfirmDecision::Withhold;
        }
        let mut waited_behind_pending = false;
        let mut deferred = false;
        // Discard cancelled heads; stop at a pending head (unless the
        // watchdog just wrote it off). A confirmed head whose predicted
        // instant is still in the future is *not* released yet: the
        // decision is deferred to that instant (via a tick), by which time
        // every event predicted earlier has had a chance to register —
        // releasing early would let this event overtake an
        // earlier-predicted reply still in flight on another thread.
        if let Some(o) = self.obs.as_ref() {
            o.handle
                .span_enter(o.syms.equeue_drain, thread.index(), now);
        }
        let head = loop {
            let top = self
                .tk(thread)
                .equeue
                .top()
                .map(|e| (e.status, e.predicted));
            match top {
                None => break None,
                Some((KEventStatus::Pending, _)) => {
                    if self.watchdog_fire(ctx, thread) {
                        continue;
                    }
                    waited_behind_pending = true;
                    break None;
                }
                Some((KEventStatus::Cancelled | KEventStatus::Dispatched, _)) => {
                    self.tk(thread).equeue.pop();
                }
                Some((KEventStatus::Confirmed, predicted)) => {
                    if predicted > now {
                        deferred = true;
                        ctx.schedule_tick(thread, predicted);
                        break None;
                    }
                    let mut e = self.tk(thread).equeue.pop().expect("top exists");
                    e.status = KEventStatus::Dispatched;
                    break Some(e);
                }
            }
        };
        if self.obs.is_some() {
            let depth = self.tk(thread).equeue.len() as u64;
            if let Some(o) = self.obs.as_ref() {
                o.handle.span_exit(o.syms.equeue_drain, thread.index(), now);
                o.handle.gauge_set(o.syms.equeue_depth, depth);
            }
        }
        if waited_behind_pending {
            self.stats.withheld_behind_pending += 1;
        }
        if deferred {
            self.stats.deferred_to_prediction += 1;
        }
        let Some(head) = head else {
            return ConfirmDecision::Withhold;
        };
        if let Some(mut chk) = self.checker.take() {
            let tk = self.tk(thread);
            chk.check_dispatch(thread, &head, &tk.equeue);
            chk.check_clock(thread, tk.clock.display());
            self.checker = Some(chk);
        }
        if debug_enabled() {
            eprintln!(
                "[rel] {} tok={} pred={} at={}",
                head.kind.label(),
                head.token.index(),
                head.predicted,
                now
            );
        }
        // now ≥ predicted here: the event runs at the scheduler's pace
        // (§III-D3, "following the time sequence determined by the
        // scheduler").
        self.stats.dispatched += 1;
        if let Some(o) = self.obs.as_ref() {
            // Dispatch latency: how far past its predicted instant the
            // event was released, in kernel clock ticks.
            let tick = self.cfg.tick_unit.as_nanos().max(1);
            let late = now.saturating_duration_since(head.predicted).as_nanos() / tick;
            o.handle
                .histogram_record(o.syms.dispatch_latency_ticks, late);
            // Close the register→dispatch async span for this event.
            o.handle.async_end(
                o.syms.kevent(head.kind),
                head.token.index(),
                thread.index(),
                now,
            );
        }
        self.tk(thread).inflight = Some(head.token);
        if Some(head.token) == just_confirmed {
            ConfirmDecision::InvokeAt(now)
        } else {
            ctx.release(head.token, now);
            ConfirmDecision::Withhold
        }
    }

    /// The blocked-head watchdog. Called from the dispatcher when the head
    /// is pending. Returns `true` when it just expired the head (the caller
    /// should re-examine the queue).
    ///
    /// A countdown starts only when the pending head is actually blocking
    /// confirmed work, and it restarts whenever a *different* event becomes
    /// the blocked head — the hold is measured per head, not per queue, so a
    /// healthy pipeline that keeps making progress never expires anything.
    fn watchdog_fire(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId) -> bool {
        let hold = self.cfg.watchdog_hold;
        if hold == SimDuration::ZERO {
            return false;
        }
        let now = ctx.now;
        let (head_token, blocked) = {
            let tk = self.tk(thread);
            let Some(head) = tk.equeue.top() else {
                tk.watchdog = None;
                return false;
            };
            (head.token, tk.equeue.has_confirmed())
        };
        if !blocked {
            // Nothing confirmed behind the head: no livelock risk. Any
            // running countdown is stale (the blockage resolved).
            self.tk(thread).watchdog = None;
            return false;
        }
        match self.tk(thread).watchdog {
            Some((tok, t0)) if tok == head_token => {
                if now < t0 + hold {
                    return false;
                }
                // The head blocked confirmed work for the full hold: its
                // confirmation is presumed lost. Write it off so the thread
                // keeps making progress. token_info is *kept* — if the
                // confirmation does arrive late, on_confirm must Drop it
                // rather than fall back to raw invocation.
                if let Some(e) = self.tk(thread).equeue.lookup_mut(head_token) {
                    e.status = KEventStatus::Cancelled;
                }
                self.stats.watchdog_expired += 1;
                if let Some(o) = self.obs.as_ref() {
                    o.handle
                        .instant(o.syms.stats[WATCHDOG_EXPIRED], thread.index(), now);
                }
                self.tk(thread).watchdog = None;
                if debug_enabled() {
                    eprintln!("[wdg] expired tok={} at={}", head_token.index(), now);
                }
                true
            }
            _ => {
                // New blocked head: arm the countdown and make sure the
                // dispatcher runs again at the deadline even if no other
                // event wakes this thread up.
                self.tk(thread).watchdog = Some((head_token, now));
                ctx.schedule_tick(thread, now + hold);
                false
            }
        }
    }

    /// Invariant violations recorded so far (empty unless
    /// `cfg.check_invariants` is set).
    #[must_use]
    pub fn invariant_violations(&self) -> &[String] {
        self.checker
            .as_ref()
            .map_or(&[], InvariantChecker::violations)
    }

    /// Whether a confirm-triggered dispatch sweep would be a no-op: the
    /// thread already has an inflight event, so the dispatcher would
    /// return [`ConfirmDecision::Withhold`] before touching any counter
    /// or emitting any op. Skipping the call turns a same-instant burst
    /// of confirmations into one dispatch sweep per thread. With an
    /// observer attached the sweep still runs — it emits dispatch spans.
    fn dispatch_would_noop(&mut self, thread: ThreadId) -> bool {
        if self.obs.is_some() {
            return false;
        }
        self.tk(thread).inflight.is_some()
    }

    fn settle_fetch(&mut self, ctx: &mut MediatorCtx<'_>, req: RequestId) {
        self.threads.settle_fetch(req);
        self.pending_child_fetches.remove(req.index());
        if let Some(worker) = self.fetch_worker.remove(req.index()) {
            if let Some(t) = self.threads.get(worker) {
                let from = t.kernel_worker;
                // Worker-side kernel → main-side kernel: the fetch settled.
                ctx.kernel_send(
                    from,
                    MAIN_THREAD,
                    KernelMsg::FetchSettled { req, worker }.encode(),
                    ctx.now + self.cfg.kernel_channel_latency,
                );
            }
        }
    }
}

impl Mediator for JsKernel {
    fn name(&self) -> &str {
        "jskernel"
    }

    fn attach_observer(&mut self, observer: jsk_observe::ObsHandle) {
        // Interns every span/metric name once; the hooks pass symbols only.
        self.obs = Some(KernelObs::new(observer, &self.stats));
    }

    fn publish_metrics(&mut self) {
        let Some(o) = self.obs.as_mut() else {
            return;
        };
        for (i, (_, value)) in stat_counters(&self.stats).into_iter().enumerate() {
            let delta = value - o.published[i];
            if delta > 0 || (i == ORPHANS_REAPED && o.thread_exited) {
                o.handle.counter_add(o.syms.stats[i], delta);
            }
            o.published[i] = value;
        }
        o.thread_exited = false;
    }

    fn on_thread_started(&mut self, _ctx: &mut MediatorCtx<'_>, thread: ThreadId, is_worker: bool) {
        self.tk(thread);
        if is_worker {
            // Thread creation is synchronous after the CreateWorker
            // interception, so bindings resolve in FIFO order.
            if let Some(worker) = self.pending_bind.pop_front() {
                self.threads.bind(worker, thread);
            }
        }
    }

    fn read_clock(&mut self, _ctx: &mut MediatorCtx<'_>, read: ClockRead) -> SimTime {
        if !self.cfg.deterministic {
            return read.native_display();
        }
        let precision = self.cfg.display_precision;
        let tk = self.tk(read.thread);
        // The paper's clock "ticks based on specific API calls": reading it
        // is itself an API call.
        tk.clock.tick();
        tk.clock.display().quantize_down(precision)
    }

    fn on_register(&mut self, ctx: &mut MediatorCtx<'_>, info: &AsyncEventInfo) {
        if !self.cfg.deterministic {
            return;
        }
        let predicted = self.predict(info);
        self.stats.registered += 1;
        if let Some(o) = self.obs.as_ref() {
            // Open the register→dispatch async span (correlated by token;
            // its width is the event's kernel-mediated latency).
            o.handle.async_begin(
                o.syms.kevent(info.kind),
                info.token.index(),
                info.thread.index(),
                ctx.now,
            );
        }
        if debug_enabled() {
            eprintln!(
                "[reg] {} tok={} thread={} pred={}",
                info.kind.label(),
                info.token.index(),
                info.thread.index(),
                predicted
            );
        }
        let capacity = self.cfg.equeue_capacity;
        let event = KernelEvent::pending(info.token, info.thread, info.kind, predicted);
        if self
            .tk(info.thread)
            .equeue
            .try_push(event, capacity)
            .is_err()
        {
            // Backpressure: the queue is full, so this event is left to raw
            // (unmediated) scheduling instead of growing the kernel without
            // bound. token_info is *not* written — on_confirm's
            // unknown-token path then invokes it at its raw trigger time,
            // preserving liveness at the cost of determinism for the
            // overflowing tail.
            self.stats.equeue_overflow += 1;
            return;
        }
        self.token_info
            .insert(info.token.index(), (info.thread, predicted));
        if let Some(mut chk) = self.checker.take() {
            chk.check_queue(info.thread, &self.tk(info.thread).equeue);
            self.checker = Some(chk);
        }
    }

    fn on_confirm(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        info: &AsyncEventInfo,
        raw_fire: SimTime,
    ) -> ConfirmDecision {
        // Network confirmations settle kernel fetch obligations regardless
        // of scheduling mode.
        if let AsyncKind::Net { req, .. } = info.kind {
            self.settle_fetch(ctx, req);
        }
        if !self.cfg.deterministic {
            return ConfirmDecision::InvokeAt(raw_fire);
        }
        self.stats.confirmed += 1;
        let status = self.tk(info.thread).equeue.lookup_mut(info.token).map(|e| {
            if e.status == KEventStatus::Pending {
                e.status = KEventStatus::Confirmed;
            }
            e.status
        });
        match status {
            Some(KEventStatus::Cancelled) => {
                // The kernel already wrote this event off (watchdog expiry,
                // orphan reap, or an explicit cancel). The late confirmation
                // must not resurrect it: drop it outright, and re-drain in
                // case the cancelled head was the blockage.
                if !self.dispatch_would_noop(info.thread) {
                    let _ = self.dispatch(ctx, info.thread, None);
                }
                ConfirmDecision::Drop
            }
            Some(_) => {
                if self.dispatch_would_noop(info.thread) {
                    // A confirmation behind an inflight head settles its
                    // status only; the single sweep after that task's body
                    // runs releases the whole backlog in predicted order.
                    ConfirmDecision::Withhold
                } else {
                    self.dispatch(ctx, info.thread, Some(info.token))
                }
            }
            None => {
                if self.token_info.remove(info.token.index()).is_some() {
                    // Tracked, but no longer queued: the kernel disposed of
                    // it (a written-off head already popped by the drain).
                    ConfirmDecision::Drop
                } else {
                    // Never tracked (registered before the kernel attached,
                    // or dropped by equeue backpressure): raw behaviour.
                    ConfirmDecision::InvokeAt(raw_fire)
                }
            }
        }
    }

    fn confirm_batch(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        items: &[(AsyncEventInfo, SimTime)],
        out: &mut Vec<ConfirmDecision>,
    ) {
        // Same-virtual-tick confirmations settle in one pass. Each item
        // runs the full per-event settle logic, but once a thread has an
        // inflight release the `dispatch_would_noop` short-circuit skips
        // the per-item dispatch sweep — the batch costs one sweep per
        // thread instead of one per confirmation. Op boundaries are marked
        // after every item so the browser can interleave ops and decisions
        // exactly as the sequential path would have.
        for (info, raw_fire) in items {
            let d = self.on_confirm(ctx, info, *raw_fire);
            out.push(d);
            ctx.mark();
        }
    }

    fn on_cancel(&mut self, ctx: &mut MediatorCtx<'_>, token: EventToken) {
        let Some(&(thread, _)) = self.token_info.get(token.index()) else {
            return;
        };
        let mut cancelled_kind = None;
        if let Some(e) = self.tk(thread).equeue.lookup_mut(token) {
            // §III-D2: pending or confirmed events are marked cancelled;
            // already-dispatched events ignore the request.
            if e.is_live() {
                e.status = KEventStatus::Cancelled;
                cancelled_kind = Some(e.kind);
                self.stats.cancelled += 1;
            }
        }
        if let (Some(kind), Some(o)) = (cancelled_kind, self.obs.as_ref()) {
            // A cancelled event's lifecycle span ends at the cancel.
            o.handle
                .async_end(o.syms.kevent(kind), token.index(), thread.index(), ctx.now);
        }
        self.token_info.remove(token.index());
        // A cancelled head may unblock confirmed events behind it.
        let _ = self.dispatch(ctx, thread, None);
    }

    fn on_task_dispatched(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        thread: ThreadId,
        token: Option<EventToken>,
        _context: u32,
    ) {
        // HB edge announcement. `ctx.node` is `None` for epoch-stale
        // dispatch notifications — those never ran user code, so they must
        // neither break the chain nor consume pending comm edges.
        if let Some(node) = ctx.node {
            let deterministic = self.cfg.deterministic;
            let tk = self.tk(thread);
            // Kernel-channel deliveries since this thread's last task order
            // their senders before everything the thread runs from now on.
            // Drained in place: the buffer is reused across tasks.
            for &from in &tk.pending_comm {
                if from != node {
                    ctx.order_edge(from, node, EdgeKind::KernelComm);
                }
            }
            tk.pending_comm.clear();
            // The serialized dispatcher totally orders a thread's tasks —
            // but only when deterministic scheduling is actually on; raw
            // passthrough enforces nothing and must not claim an edge.
            if deterministic {
                if let Some(prev) = tk.last_node {
                    ctx.order_edge(prev, node, EdgeKind::DispatchChain);
                }
                tk.last_node = Some(node);
            }
        }
        if !self.cfg.deterministic {
            return;
        }
        if let Some(t) = token {
            let tk = self.tk(thread);
            if tk.inflight == Some(t) {
                tk.inflight = None;
                // Re-drain only after this task's body has run (the tick
                // event processes after the current browser event), so the
                // task's own registrations take part in the next ordering
                // decision.
                ctx.schedule_tick(thread, ctx.now);
            }
            if let Some((tid, predicted)) = self.token_info.remove(t.index()) {
                debug_assert_eq!(tid, thread, "event dispatched on the wrong thread");
                let tk = self.tk(thread);
                tk.task_base = predicted;
                tk.clock.advance_to(predicted);
                if let Some(mut chk) = self.checker.take() {
                    chk.check_clock(thread, self.tk(thread).clock.display());
                    self.checker = Some(chk);
                }
                return;
            }
        }
        self.tk(thread).clock.tick();
    }

    fn on_thread_exited(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId) {
        // If the dying thread's blocked head already outlived the watchdog
        // hold, the deadline tick and this exit land on the same virtual
        // instant, and whichever the event queue processed first would
        // otherwise decide whether the head counts as a watchdog expiry or
        // as an orphan. Settle the head here the way the tick would have,
        // so the degradation counters are order-independent and the head is
        // accounted exactly once (cancel_live below skips it once
        // Cancelled).
        let hold = self.cfg.watchdog_hold;
        if hold > SimDuration::ZERO {
            if let Some((tok, t0)) = self.tk(thread).watchdog {
                if ctx.now >= t0 + hold {
                    let expired_head = {
                        let tk = self.tk(thread);
                        tk.equeue.has_confirmed()
                            && tk.equeue.top().is_some_and(|h| {
                                h.token == tok && h.status == KEventStatus::Pending
                            })
                    };
                    if expired_head {
                        if let Some(e) = self.tk(thread).equeue.lookup_mut(tok) {
                            e.status = KEventStatus::Cancelled;
                        }
                        self.stats.watchdog_expired += 1;
                        if let Some(o) = self.obs.as_ref() {
                            o.handle.instant(
                                o.syms.stats[WATCHDOG_EXPIRED],
                                thread.index(),
                                ctx.now,
                            );
                        }
                    }
                }
            }
        }
        // The thread died without unwinding: reap every event it still owed
        // us so no other bookkeeping waits on a confirmation that can never
        // come. token_info entries are kept — a raw trigger already in
        // flight for a reaped event must be dropped, not invoked.
        let reaped = self.tk(thread).equeue.cancel_live();
        self.stats.orphans_reaped += reaped;
        // Reaped events' async spans are deliberately left open: an
        // unfinished span in the trace *is* the orphan.
        if let Some(o) = self.obs.as_mut() {
            o.thread_exited = true;
        }
        let tk = self.tk(thread);
        tk.inflight = None;
        tk.watchdog = None;
        // A dead thread dispatches nothing more: pending comm edges to it
        // can never be emitted, and its chain ends here.
        tk.last_node = None;
        tk.pending_comm.clear();
        // Evict the dead thread's stream ladders. Thread ids are never
        // reused, so no future registration can key them again — without
        // this, a long-running page cycling workers would grow the ladder
        // map without bound.
        self.stream_last
            .retain(|k, _| k.0 != thread && k.2 != thread);
        if let Some(kt) = self.threads.by_thread_mut(thread) {
            kt.status = KThreadStatus::Closed;
        }
    }

    fn on_api(&mut self, ctx: &mut MediatorCtx<'_>, call: &ApiCall) -> ApiOutcome {
        // Thread-manager bookkeeping first (facts the policies rely on).
        match call {
            ApiCall::CreateWorker {
                parent,
                worker,
                src,
                ..
            } => {
                // The kernel thread object is created here; its backing
                // browser thread is learned from on_thread_started order —
                // we record with the parent and fix up below via
                // ThreadSource messages in tests. The browser thread id for
                // real workers is parent-count-based; we instead learn it
                // lazily on the first Fetch from that thread.
                // One interned symbol covers both the thread table and the
                // wire message — creation no longer clones the URL twice.
                self.threads
                    .register(*worker, ThreadId::new(u64::MAX), *parent, *src);
                self.pending_bind.push_back(*worker);
                // §III-E2: pass the thread source over the kernel channel.
                ctx.kernel_send(
                    *parent,
                    *parent,
                    KernelMsg::ThreadSource {
                        worker: *worker,
                        src: *src,
                    }
                    .encode(),
                    ctx.now + self.cfg.kernel_channel_latency,
                );
            }
            ApiCall::Fetch { thread, req, .. } => {
                // Learn worker↔thread bindings lazily and record the
                // obligation (Listing 4: pendingChildFetch).
                if let Some(kt) = self.threads.by_thread_mut(*thread) {
                    kt.pending_fetches.insert(*req);
                    let worker = kt.worker;
                    self.fetch_worker.insert(req.index(), worker);
                    ctx.kernel_send(
                        *thread,
                        MAIN_THREAD,
                        KernelMsg::PendingChildFetch { req: *req, worker }.encode(),
                        ctx.now + self.cfg.kernel_channel_latency,
                    );
                }
            }
            ApiCall::TerminateWorker { worker, .. } => {
                if let Some(kt) = self.threads.get_mut(*worker) {
                    kt.status = KThreadStatus::UserClosed;
                }
            }
            _ => {}
        }
        self.stats.api_calls += 1;
        if let Some(o) = self.obs.as_ref() {
            o.handle
                .span_enter(o.syms.policy_decide, MAIN_THREAD.index(), ctx.now);
        }
        let (outcome, rule) = self.engine.decide(call, &self.threads);
        if let Some(o) = self.obs.as_ref() {
            o.handle
                .span_exit(o.syms.policy_decide, MAIN_THREAD.index(), ctx.now);
            // The policy decision mix: which way the engine ruled.
            let sym = match &outcome {
                ApiOutcome::Allow => o.syms.policy_allow,
                ApiOutcome::Deny { .. } => o.syms.policy_deny,
                ApiOutcome::DeferTermination => o.syms.policy_defer,
                ApiOutcome::SanitizeError { .. } => o.syms.policy_sanitize,
                _ => o.syms.policy_other,
            };
            o.handle.counter_add(sym, 1);
        }
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            if let Some(r) = rule {
                self.stats.record_denial(r);
            }
        }
        outcome
    }

    fn on_tick(&mut self, ctx: &mut MediatorCtx<'_>, thread: ThreadId) {
        if self.cfg.deterministic {
            let _ = self.dispatch(ctx, thread, None);
        }
    }

    fn on_kernel_message(
        &mut self,
        ctx: &mut MediatorCtx<'_>,
        from: ThreadId,
        to: ThreadId,
        payload: &JsValue,
    ) {
        let Some(msg) = KernelMsg::decode(payload) else {
            return;
        };
        self.stats.kernel_messages += 1;
        // Obligation-carrying messages order the sending task before the
        // receiver's subsequent work; `ctx.node` carries the original
        // sender's HB node (forwarded replies inherit it). ClockSync is
        // excluded — see [`KernelMsg::induces_hb`].
        if msg.induces_hb() {
            if let Some(sender) = ctx.node {
                self.tk(to).pending_comm.push(sender);
            }
        }
        match msg {
            KernelMsg::PendingChildFetch { req, worker } => {
                // Main-side kernel records the obligation and confirms
                // receipt (Listing 4's confirmFetch).
                self.pending_child_fetches.insert(req.index(), worker);
                ctx.kernel_send(
                    MAIN_THREAD,
                    from,
                    KernelMsg::ConfirmFetch { req }.encode(),
                    ctx.now + self.cfg.kernel_channel_latency,
                );
            }
            KernelMsg::ConfirmFetch { .. } => {
                // Worker-side kernel: the main kernel acknowledged.
            }
            KernelMsg::FetchSettled { req, .. } => {
                self.pending_child_fetches.remove(req.index());
            }
            KernelMsg::CleanWorker { worker } => {
                if self.threads.safe_to_close(worker) {
                    if let Some(kt) = self.threads.get_mut(worker) {
                        kt.status = KThreadStatus::Closed;
                    }
                }
            }
            KernelMsg::ClockSync { kclock_ns } => {
                // §III-E2: clock exchange — never let a thread's kernel
                // clock fall behind a peer's announcement.
                let tk = self.tk(from);
                tk.clock.advance_to(SimTime::from_nanos(kclock_ns));
            }
            KernelMsg::ThreadSource { worker, src } => {
                if let Some(kt) = self.threads.get_mut(worker) {
                    kt.src = src;
                }
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn freeze_sab_reads(&self) -> bool {
        self.cfg.deterministic
    }

    fn interposition_cost(&self, class: InterposeClass) -> SimDuration {
        match class {
            InterposeClass::Clock => self.cfg.costs.clock,
            InterposeClass::Timer => self.cfg.costs.timer,
            InterposeClass::Message => self.cfg.costs.message,
            InterposeClass::Worker => self.cfg.costs.worker,
            InterposeClass::Net => self.cfg.costs.net,
            InterposeClass::Dom => self.cfg.costs.dom,
            InterposeClass::Sab => self.cfg.costs.sab,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_sim::rng::SimRng;

    fn info(token: u64, thread: u64, kind: AsyncKind) -> AsyncEventInfo {
        AsyncEventInfo {
            token: EventToken::new(token),
            thread: ThreadId::new(thread),
            kind,
            registered_at: SimTime::ZERO,
            doc_generation: 0,
            context: 0,
        }
    }

    #[test]
    fn confirmed_events_wait_for_pending_heads() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        // Register a message (predicted +1 ms) then a raf (predicted +10 ms).
        let msg = info(
            1,
            0,
            AsyncKind::Message {
                from: ThreadId::new(1),
            },
        );
        let raf = info(2, 0, AsyncKind::Raf);
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &msg);
            k.on_register(&mut ctx, &raf);
        }
        // The raf's raw trigger fires *first* physically — it must be
        // withheld because the earlier-predicted message is still pending.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(16), &mut rng);
        let d = k.on_confirm(&mut ctx, &raf, SimTime::from_millis(16));
        assert_eq!(d, ConfirmDecision::Withhold);
        // The watchdog arms a deadline tick for the now-blocked head, but
        // nothing may be released.
        assert!(!ctx
            .into_ops()
            .iter()
            .any(|op| matches!(op, jsk_browser::mediator::MediatorOp::Release { .. })));
        // When the message confirms, it dispatches immediately; the raf is
        // still held — the serialized dispatcher releases the next event
        // only after the message's task body has run.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(20), &mut rng);
        let d = k.on_confirm(&mut ctx, &msg, SimTime::from_millis(20));
        let ConfirmDecision::InvokeAt(msg_at) = d else {
            panic!("message should dispatch immediately")
        };
        assert!(ctx.into_ops().is_empty(), "raf held until the message ran");
        // The message's task runs; the post-task tick re-drains and only
        // then releases the raf.
        let mut ctx = MediatorCtx::new(msg_at, &mut rng);
        k.on_task_dispatched(&mut ctx, ThreadId::new(0), Some(EventToken::new(1)), 0);
        let _ = ctx.into_ops(); // carries the scheduled tick
        let mut ctx = MediatorCtx::new(msg_at, &mut rng);
        k.on_tick(&mut ctx, ThreadId::new(0));
        let ops = ctx.into_ops();
        assert!(
            ops.iter().any(|op| matches!(
                op,
                jsk_browser::mediator::MediatorOp::Release { token, .. }
                if *token == EventToken::new(2)
            )),
            "raf released after the message ran: {ops:?}"
        );
    }

    #[test]
    fn in_order_confirmations_dispatch_immediately() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let msg = info(
            1,
            0,
            AsyncKind::Message {
                from: ThreadId::new(1),
            },
        );
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &msg);
        }
        // Confirm after the predicted instant has passed: dispatches at once.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(2), &mut rng);
        let d = k.on_confirm(&mut ctx, &msg, SimTime::from_millis(2));
        assert!(matches!(d, ConfirmDecision::InvokeAt(_)));
        // An early confirmation is deferred to the predicted instant via a
        // scheduled tick instead.
        let early = info(
            9,
            3,
            AsyncKind::Message {
                from: ThreadId::new(1),
            },
        );
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &early);
        }
        let mut ctx = MediatorCtx::new(SimTime::from_micros(100), &mut rng);
        let d = k.on_confirm(&mut ctx, &early, SimTime::from_micros(100));
        assert_eq!(d, ConfirmDecision::Withhold);
        let ops = ctx.into_ops();
        assert!(ops
            .iter()
            .any(|op| matches!(op, jsk_browser::mediator::MediatorOp::ScheduleTick { .. })));
    }

    #[test]
    fn cancelled_head_unblocks_followers() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let first = info(
            1,
            0,
            AsyncKind::Message {
                from: ThreadId::new(1),
            },
        );
        let second = info(2, 0, AsyncKind::Raf);
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &first);
            k.on_register(&mut ctx, &second);
        }
        // Confirm the raf (withheld behind the pending message), then
        // cancel the message.
        {
            let mut ctx = MediatorCtx::new(SimTime::from_millis(16), &mut rng);
            assert_eq!(
                k.on_confirm(&mut ctx, &second, SimTime::from_millis(16)),
                ConfirmDecision::Withhold
            );
        }
        let mut ctx = MediatorCtx::new(SimTime::from_millis(17), &mut rng);
        k.on_cancel(&mut ctx, EventToken::new(1));
        let ops = ctx.into_ops();
        assert!(
            ops.iter().any(|op| matches!(
                op,
                jsk_browser::mediator::MediatorOp::Release { token, .. }
                if *token == EventToken::new(2)
            )),
            "raf must be released after the head cancels: {ops:?}"
        );
    }

    #[test]
    fn kernel_clock_reads_are_physical_time_independent() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let mut read_at = |k: &mut JsKernel, raw_ms: u64| {
            let mut ctx = MediatorCtx::new(SimTime::from_millis(raw_ms), &mut rng);
            k.read_clock(
                &mut ctx,
                ClockRead {
                    thread: ThreadId::new(0),
                    kind: jsk_browser::mediator::ClockKind::PerformanceNow,
                    raw: SimTime::from_millis(raw_ms),
                    native_precision: SimDuration::from_micros(5),
                },
            )
        };
        let a = read_at(&mut k, 100);
        let b = read_at(&mut k, 900);
        // 800 ms of physical time passed; the kernel clock moved one tick.
        assert!(b - a <= SimDuration::from_micros(10), "moved {:?}", b - a);
    }

    #[test]
    fn nondeterministic_mode_passes_clock_through() {
        let mut k = JsKernel::new(KernelConfig::cve_only());
        let mut rng = SimRng::new(0);
        let mut ctx = MediatorCtx::new(SimTime::from_millis(5), &mut rng);
        let read = ClockRead {
            thread: ThreadId::new(0),
            kind: jsk_browser::mediator::ClockKind::PerformanceNow,
            raw: SimTime::from_nanos(5_432_100),
            native_precision: SimDuration::from_micros(5),
        };
        assert_eq!(k.read_clock(&mut ctx, read), SimTime::from_nanos(5_430_000));
    }

    #[test]
    fn watchdog_expires_lost_confirmation_and_unblocks() {
        let mut k = JsKernel::default();
        let hold = k.config().watchdog_hold;
        assert!(hold > SimDuration::ZERO, "full config arms the watchdog");
        let mut rng = SimRng::new(0);
        let msg = info(
            1,
            0,
            AsyncKind::Message {
                from: ThreadId::new(1),
            },
        );
        let raf = info(2, 0, AsyncKind::Raf);
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &msg);
            k.on_register(&mut ctx, &raf);
        }
        // The raf confirms; the message's confirmation is lost in transit.
        // The raf is withheld and the watchdog arms a deadline tick.
        let armed_at = SimTime::from_millis(16);
        let mut ctx = MediatorCtx::new(armed_at, &mut rng);
        assert_eq!(
            k.on_confirm(&mut ctx, &raf, armed_at),
            ConfirmDecision::Withhold
        );
        let ops = ctx.into_ops();
        assert!(
            ops.iter().any(|op| matches!(
                op,
                jsk_browser::mediator::MediatorOp::ScheduleTick { at, .. }
                if *at == armed_at + hold
            )),
            "watchdog deadline tick armed: {ops:?}"
        );
        // At the deadline the blocked head is written off and the raf goes
        // out — the thread is not livelocked.
        let mut ctx = MediatorCtx::new(armed_at + hold, &mut rng);
        k.on_tick(&mut ctx, ThreadId::new(0));
        let ops = ctx.into_ops();
        assert!(
            ops.iter().any(|op| matches!(
                op,
                jsk_browser::mediator::MediatorOp::Release { token, .. }
                if *token == EventToken::new(2)
            )),
            "raf released after watchdog expiry: {ops:?}"
        );
        assert_eq!(k.stats().watchdog_expired, 1);
        // The lost confirmation finally arrives: the event was written off,
        // so it must be dropped — never invoked via the raw fallback.
        let late = armed_at + hold + SimDuration::from_millis(1);
        let mut ctx = MediatorCtx::new(late, &mut rng);
        assert_eq!(k.on_confirm(&mut ctx, &msg, late), ConfirmDecision::Drop);
    }

    /// Regression: when the watchdog deadline tick and the owning thread's
    /// exit land on the same virtual instant, the blocked head must count
    /// as exactly one watchdog expiry — never additionally (or instead) as
    /// a reaped orphan — regardless of which the event queue processes
    /// first. Before the order-independence guard in `on_thread_exited`,
    /// the exit-first order booked the already-expired head as an orphan
    /// (watchdog_expired 0, orphans 2), so the same blockage was accounted
    /// differently across runs that only differed in same-instant event
    /// order.
    #[test]
    fn same_tick_thread_exit_and_watchdog_deadline_count_head_once() {
        let build = || {
            let mut k = JsKernel::default();
            let hold = k.config().watchdog_hold;
            assert!(hold > SimDuration::ZERO);
            let mut rng = SimRng::new(0);
            let msg = info(
                1,
                0,
                AsyncKind::Message {
                    from: ThreadId::new(1),
                },
            );
            let raf = info(2, 0, AsyncKind::Raf);
            {
                let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
                k.on_register(&mut ctx, &msg);
                k.on_register(&mut ctx, &raf);
            }
            // The raf confirms behind the head whose confirmation is lost:
            // the watchdog arms at 16ms.
            let armed_at = SimTime::from_millis(16);
            let mut ctx = MediatorCtx::new(armed_at, &mut rng);
            assert_eq!(
                k.on_confirm(&mut ctx, &raf, armed_at),
                ConfirmDecision::Withhold
            );
            (k, rng, msg, armed_at + hold)
        };

        // Order 1: the deadline tick processes first, then the exit.
        let (mut k, mut rng, _msg, deadline) = build();
        {
            let mut ctx = MediatorCtx::new(deadline, &mut rng);
            k.on_tick(&mut ctx, ThreadId::new(0));
            let mut ctx = MediatorCtx::new(deadline, &mut rng);
            k.on_thread_exited(&mut ctx, ThreadId::new(0));
        }
        assert_eq!(k.stats().watchdog_expired, 1, "tick-first: one expiry");
        assert_eq!(k.stats().orphans_reaped, 0, "tick-first: raf dispatched");
        assert_eq!(k.stats().dispatched, 1);

        // Order 2: the exit processes first, then the (now stale) tick.
        let (mut k, mut rng, msg, deadline) = build();
        {
            let mut ctx = MediatorCtx::new(deadline, &mut rng);
            k.on_thread_exited(&mut ctx, ThreadId::new(0));
            let mut ctx = MediatorCtx::new(deadline, &mut rng);
            k.on_tick(&mut ctx, ThreadId::new(0));
        }
        assert_eq!(
            k.stats().watchdog_expired,
            1,
            "exit-first: the expired head still books as a watchdog expiry"
        );
        assert_eq!(
            k.stats().orphans_reaped,
            1,
            "exit-first: only the raf is an orphan — the head is not double-counted"
        );
        assert_eq!(k.stats().dispatched, 0);
        // In both orders each of the two events lands in exactly one
        // degradation/terminal counter.
        assert_eq!(
            k.stats().watchdog_expired + k.stats().orphans_reaped + k.stats().dispatched,
            2
        );
        // And the written-off head's late confirmation is still dropped.
        let late = deadline + SimDuration::from_millis(1);
        let mut ctx = MediatorCtx::new(late, &mut rng);
        assert_eq!(k.on_confirm(&mut ctx, &msg, late), ConfirmDecision::Drop);
    }

    #[test]
    fn watchdog_ignores_unblocked_pending_heads() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let msg = info(
            1,
            0,
            AsyncKind::Message {
                from: ThreadId::new(1),
            },
        );
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &msg);
        }
        // A pending head with nothing confirmed behind it blocks no one:
        // ticks must not arm a countdown or expire anything.
        for ms in [100u64, 10_000, 100_000] {
            let mut ctx = MediatorCtx::new(SimTime::from_millis(ms), &mut rng);
            k.on_tick(&mut ctx, ThreadId::new(0));
        }
        assert_eq!(k.stats().watchdog_expired, 0);
        // The event still dispatches normally when its confirmation arrives.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(200_000), &mut rng);
        assert!(matches!(
            k.on_confirm(&mut ctx, &msg, SimTime::from_millis(200_000)),
            ConfirmDecision::InvokeAt(_)
        ));
    }

    #[test]
    fn thread_exit_reaps_orphans_and_drops_late_confirms() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let a = info(
            1,
            5,
            AsyncKind::Timeout {
                delay: SimDuration::from_millis(10),
                nesting: 0,
            },
        );
        let b = info(2, 5, AsyncKind::Raf);
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &a);
            k.on_register(&mut ctx, &b);
        }
        let mut ctx = MediatorCtx::new(SimTime::from_millis(1), &mut rng);
        k.on_thread_exited(&mut ctx, ThreadId::new(5));
        assert_eq!(k.stats().orphans_reaped, 2);
        // A raw trigger already in flight for a reaped event is dropped.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(12), &mut rng);
        assert_eq!(
            k.on_confirm(&mut ctx, &a, SimTime::from_millis(12)),
            ConfirmDecision::Drop
        );
    }

    #[test]
    fn equeue_overflow_falls_back_to_raw_scheduling() {
        let mut cfg = KernelConfig::full();
        cfg.equeue_capacity = 1;
        let mut k = JsKernel::new(cfg);
        let mut rng = SimRng::new(0);
        let first = info(1, 0, AsyncKind::Raf);
        let second = info(2, 0, AsyncKind::Raf);
        {
            let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
            k.on_register(&mut ctx, &first);
            k.on_register(&mut ctx, &second);
        }
        assert_eq!(k.stats().equeue_overflow, 1);
        // The overflowed event keeps its raw browser scheduling — liveness
        // is preserved even though determinism is lost for the tail.
        let raw = SimTime::from_millis(16);
        let mut ctx = MediatorCtx::new(raw, &mut rng);
        assert_eq!(
            k.on_confirm(&mut ctx, &second, raw),
            ConfirmDecision::InvokeAt(raw)
        );
    }

    #[test]
    fn invariant_checker_stays_clean_on_normal_flow() {
        let mut cfg = KernelConfig::full();
        cfg.check_invariants = true;
        let mut k = JsKernel::new(cfg);
        let mut rng = SimRng::new(0);
        for t in 1..=3u64 {
            let msg = info(
                t,
                0,
                AsyncKind::Message {
                    from: ThreadId::new(1),
                },
            );
            {
                let mut ctx = MediatorCtx::new(SimTime::ZERO, &mut rng);
                k.on_register(&mut ctx, &msg);
            }
            let at = SimTime::from_millis(5 * t);
            let mut ctx = MediatorCtx::new(at, &mut rng);
            let d = k.on_confirm(&mut ctx, &msg, at);
            if let ConfirmDecision::InvokeAt(when) = d {
                let mut ctx = MediatorCtx::new(when, &mut rng);
                k.on_task_dispatched(&mut ctx, ThreadId::new(0), Some(EventToken::new(t)), 0);
                let mut ctx = MediatorCtx::new(when, &mut rng);
                k.on_tick(&mut ctx, ThreadId::new(0));
            }
        }
        assert!(
            k.invariant_violations().is_empty(),
            "violations: {:?}",
            k.invariant_violations()
        );
    }

    #[test]
    fn dispatch_chain_and_comm_edges_are_announced() {
        use jsk_browser::mediator::MediatorOp;
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        // First dispatched task on thread 0: nothing to chain from yet.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(1), &mut rng);
        ctx.node = Some(7);
        k.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        assert!(!ctx
            .into_ops()
            .iter()
            .any(|op| matches!(op, MediatorOp::OrderEdge { .. })));
        // An obligation-carrying kernel message from node 7 lands on
        // thread 0; a ClockSync from node 8 must induce nothing.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(2), &mut rng);
        ctx.node = Some(7);
        k.on_kernel_message(
            &mut ctx,
            ThreadId::new(1),
            ThreadId::new(0),
            &KernelMsg::ConfirmFetch {
                req: RequestId::new(1),
            }
            .encode(),
        );
        let mut ctx = MediatorCtx::new(SimTime::from_millis(2), &mut rng);
        ctx.node = Some(8);
        k.on_kernel_message(
            &mut ctx,
            ThreadId::new(1),
            ThreadId::new(0),
            &KernelMsg::ClockSync { kclock_ns: 42 }.encode(),
        );
        // The next dispatch on thread 0 announces the chain edge and the
        // comm edge — and only those two.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(3), &mut rng);
        ctx.node = Some(9);
        k.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        let ops = ctx.into_ops();
        assert!(ops.iter().any(|op| matches!(
            op,
            MediatorOp::OrderEdge {
                from: 7,
                to: 9,
                kind: EdgeKind::KernelComm
            }
        )));
        assert!(ops.iter().any(|op| matches!(
            op,
            MediatorOp::OrderEdge {
                from: 7,
                to: 9,
                kind: EdgeKind::DispatchChain
            }
        )));
        assert_eq!(
            ops.iter()
                .filter(|op| matches!(op, MediatorOp::OrderEdge { .. }))
                .count(),
            2
        );
        // Stale dispatch notifications (no node) neither break the chain
        // nor emit edges; a non-deterministic kernel claims no chain edges.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(4), &mut rng);
        k.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        assert!(!ctx
            .into_ops()
            .iter()
            .any(|op| matches!(op, MediatorOp::OrderEdge { .. })));
        let mut raw = JsKernel::new(KernelConfig::cve_only());
        let mut ctx = MediatorCtx::new(SimTime::from_millis(1), &mut rng);
        ctx.node = Some(1);
        raw.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        let mut ctx = MediatorCtx::new(SimTime::from_millis(2), &mut rng);
        ctx.node = Some(2);
        raw.on_task_dispatched(&mut ctx, ThreadId::new(0), None, 0);
        assert!(!ctx
            .into_ops()
            .iter()
            .any(|op| matches!(op, MediatorOp::OrderEdge { .. })));
    }

    #[test]
    fn kernel_message_protocol_round_trip() {
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let mut ctx = MediatorCtx::new(SimTime::from_millis(1), &mut rng);
        let msg = KernelMsg::PendingChildFetch {
            req: RequestId::new(3),
            worker: WorkerId::new(0),
        }
        .encode();
        k.on_kernel_message(&mut ctx, ThreadId::new(1), MAIN_THREAD, &msg);
        assert_eq!(k.kernel_messages_seen(), 1);
        // The main-side kernel answers with confirmFetch.
        let ops = ctx.into_ops();
        assert!(ops.iter().any(|op| matches!(
            op,
            jsk_browser::mediator::MediatorOp::KernelSend { payload, .. }
            if matches!(KernelMsg::decode(payload), Some(KernelMsg::ConfirmFetch { .. }))
        )));
        // User traffic is ignored.
        let mut ctx = MediatorCtx::new(SimTime::from_millis(2), &mut rng);
        k.on_kernel_message(&mut ctx, ThreadId::new(1), MAIN_THREAD, &JsValue::from(1.0));
        assert_eq!(k.kernel_messages_seen(), 1);
    }

    #[test]
    fn stream_ladders_stay_bounded_under_worker_churn() {
        // Every worker generation registers streams whose ladders key on
        // the worker's thread id (its own raf/timers, plus messages it
        // sends to main). Thread exit must sweep them all, or a page that
        // churns workers grows `stream_last` forever.
        let mut k = JsKernel::default();
        let mut rng = SimRng::new(0);
        let mut token = 0u64;
        for round in 0..200u64 {
            let worker = ThreadId::new(round + 1);
            let t = SimTime::from_millis(round + 1);
            let mut ctx = MediatorCtx::new(t, &mut rng);
            for _ in 0..3 {
                token += 1;
                k.on_register(&mut ctx, &info(token, worker.index(), AsyncKind::Raf));
                token += 1;
                k.on_register(
                    &mut ctx,
                    &info(token, 0, AsyncKind::Message { from: worker }),
                );
            }
            assert!(k.stream_ladders() > 0, "round {round} created ladders");
            let mut ctx = MediatorCtx::new(t, &mut rng);
            k.on_thread_exited(&mut ctx, worker);
            assert_eq!(
                k.stream_ladders(),
                0,
                "round {round}: exiting the worker must evict every ladder \
                 it clocked or fed"
            );
        }
    }
}
