//! `JsScope`: the web-API surface a user script executes against.
//!
//! A scope is handed to every callback while its task runs. It plays the
//! role of `window` / `self`: clocks, timers, `requestAnimationFrame`,
//! messaging, workers, `fetch`/XHR, DOM, and the measured operations the
//! paper's attacks time (SVG filters, floating-point ops, link repaint,
//! cache access). Every call accrues virtual CPU cost on the current task
//! (plus the installed defense's interposition overhead), so in-task clock
//! reads advance realistically and single-threaded execution blocks the
//! thread's event loop.

use crate::browser::{AsyncReg, Browser};
use crate::event::{AsyncKind, NetClass};
use crate::ids::{
    BufferId, NodeId, RafId, RequestId, SabId, SignalId, ThreadId, TimerId, WorkerId,
};
use crate::mediator::{ApiOutcome, ClockKind, ClockRead, InterposeClass};
use crate::task::{cb, Callback, TaskSource, WorkerScript};
use crate::trace::{AccessKind, AccessTarget, ApiCall, Fact, TerminationReason};
use crate::value::JsValue;
use crate::worker::{RequestState, WorkerState};
use jsk_sim::time::SimDuration;

/// The execution scope of the currently running task.
///
/// # Examples
///
/// ```
/// use jsk_browser::browser::{Browser, BrowserConfig};
/// use jsk_browser::mediator::LegacyMediator;
/// use jsk_browser::profile::BrowserProfile;
/// use jsk_browser::task::cb;
/// use jsk_browser::value::JsValue;
///
/// let cfg = BrowserConfig::new(BrowserProfile::chrome(), 42);
/// let mut browser = Browser::new(cfg, Box::new(LegacyMediator));
/// browser.boot(|scope| {
///     scope.set_timeout(4.0, cb(|scope, _| {
///         let t = scope.performance_now();
///         scope.record("fired_at_ms", JsValue::from(t));
///     }));
/// });
/// browser.run_until_idle();
/// assert!(browser.record_value("fired_at_ms").is_some());
/// ```
pub struct JsScope<'a> {
    pub(crate) browser: &'a mut Browser,
    thread: ThreadId,
}

impl<'a> JsScope<'a> {
    pub(crate) fn new(browser: &'a mut Browser, thread: ThreadId) -> JsScope<'a> {
        JsScope { browser, thread }
    }

    /// The thread this scope executes on.
    #[must_use]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The worker this scope executes as, if any (real or polyfill).
    #[must_use]
    pub fn current_worker(&self) -> Option<WorkerId> {
        if let Some(c) = &self.browser.cur {
            if let Some(w) = c.polyfill_worker {
                return Some(w);
            }
        }
        self.browser.threads[self.thread.index() as usize]
            .kind
            .worker()
    }

    // --- cost accounting -------------------------------------------------

    fn add_cost(&mut self, d: SimDuration) {
        if let Some(c) = self.browser.cur.as_mut() {
            c.cost += d;
        }
    }

    fn interpose(&mut self, class: InterposeClass) {
        let d = self
            .browser
            .with_mediator(|m, _| m.interposition_cost(class));
        self.add_cost(d);
    }

    /// Burns `d` of virtual CPU time (a scripted computation), scaled by
    /// the defense's script-execution multiplier.
    pub fn compute(&mut self, d: SimDuration) {
        let scale = self.browser.with_mediator(|m, _| m.compute_scale());
        self.add_cost(d.mul_f64(scale));
    }

    /// Burns the cost of `n` cheap scripted operations (`i++`), jittered —
    /// the clock-edge attack's workload.
    pub fn busy_loop(&mut self, n: u64) {
        let scale = self.browser.with_mediator(|m, _| m.compute_scale());
        let base = (self.browser.cfg.profile.cpu.op_cost * n).mul_f64(scale);
        let jitter = self.browser.cfg.profile.cpu.jitter;
        let d = self.browser.rng_cpu.jitter(base, jitter);
        self.add_cost(d);
    }

    // --- clocks ------------------------------------------------------------

    fn read_clock(&mut self, kind: ClockKind) -> f64 {
        let p = self.browser.cfg.profile.clock;
        self.add_cost(p.call_cost);
        self.interpose(InterposeClass::Clock);
        // Shard-scoped clock skew applies here — the raw reading handed to
        // the mediator — so a deterministic kernel clock masks it while a
        // legacy passthrough displays it.
        let raw = self.browser.raw_instant();
        let native_precision = match kind {
            ClockKind::DateNow => p.date_precision,
            _ => p.perf_precision,
        };
        let thread = self.thread;
        let displayed = self.browser.with_mediator(|m, ctx| {
            m.read_clock(
                ctx,
                ClockRead {
                    thread,
                    kind,
                    raw,
                    native_precision,
                },
            )
        });
        displayed.as_millis_f64()
    }

    /// `performance.now()`, in milliseconds, as mediated by the installed
    /// defense.
    pub fn performance_now(&mut self) -> f64 {
        self.read_clock(ClockKind::PerformanceNow)
    }

    /// `Date.now()`-style coarse clock, in milliseconds.
    pub fn date_now(&mut self) -> f64 {
        self.read_clock(ClockKind::DateNow)
    }

    /// The raw virtual instant in milliseconds — a **harness** clock that no
    /// page script could observe (it bypasses the installed defense). Used
    /// by workload drivers to report ground-truth load times.
    #[must_use]
    pub fn browser_now_ms(&self) -> f64 {
        self.browser.current_instant().as_millis_f64()
    }

    /// Reads an instruction-level-parallelism racing counter (Hacky Racers,
    /// Xiao & Ainsworth): `chains` parallel increment chains race the
    /// surrounding work, and the returned count is how many increments
    /// retired so far. Because the "timer" is built from superscalar
    /// execution-unit contention rather than any clock API, the reading
    /// deliberately derives from the **raw** virtual instant — clock
    /// coarsening, fuzzing, and the kernel's deterministic logical clock
    /// never touch it. The only defense seam is the interposition itself:
    /// a policy that denies [`ApiCall::IlpCounterRead`] makes the read
    /// return 0.
    pub fn ilp_counter_read(&mut self, chains: u32) -> f64 {
        self.interpose(InterposeClass::Sab);
        // Keeping the racing chains warm costs real work per read.
        let op = self.browser.cfg.profile.cpu.op_cost;
        self.add_cost(op * u64::from(chains.max(1)));
        let thread = self.thread;
        let outcome = self
            .browser
            .intercept(&ApiCall::IlpCounterRead { thread, chains });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return 0.0;
        }
        // One increment retires per chain per ~100 ns of raw execution.
        let nanos = self.browser.current_instant().as_nanos() as f64;
        (nanos * f64::from(chains.max(1)) / 100.0).floor()
    }

    // --- timers -------------------------------------------------------------

    /// `setTimeout(callback, delay_ms)`.
    pub fn set_timeout(&mut self, delay_ms: f64, callback: Callback) -> TimerId {
        self.interpose(InterposeClass::Timer);
        self.browser
            .set_timer(self.thread, delay_ms, callback, false, false, false)
    }

    /// `setInterval(callback, delay_ms)`.
    pub fn set_interval(&mut self, delay_ms: f64, callback: Callback) -> TimerId {
        self.interpose(InterposeClass::Timer);
        self.browser
            .set_timer(self.thread, delay_ms, callback, true, false, false)
    }

    /// `clearTimeout` / `clearInterval`.
    pub fn clear_timer(&mut self, id: TimerId) {
        self.interpose(InterposeClass::Timer);
        self.browser.clear_timer(id);
    }

    /// Starts a media ticker (video frame / WebVTT cue callbacks at the
    /// given period) — the Video/WebVTT implicit clock.
    pub fn start_media_ticker(&mut self, period_ms: f64, callback: Callback) -> TimerId {
        self.interpose(InterposeClass::Timer);
        self.browser
            .set_timer(self.thread, period_ms, callback, true, true, false)
    }

    /// Starts a CSS animation tick stream (one callback per animation frame
    /// interval) — the CSS-animation implicit clock.
    pub fn start_css_animation(&mut self, callback: Callback) -> TimerId {
        self.interpose(InterposeClass::Timer);
        let vsync_ms = self.browser.cfg.profile.sched.vsync.as_millis_f64();
        self.browser
            .set_timer(self.thread, vsync_ms, callback, true, false, true)
    }

    /// Enqueues a task on this thread's own event loop with minimal delay
    /// (a self-`postMessage`) — the Loopscan monitoring primitive.
    ///
    /// Interposed as a [`ApiCall::PostMessage`] whose sender and receiver
    /// are the same thread, so a policy can recognize (and deny) the
    /// self-post flood the event-loop monitors are built from.
    pub fn post_task(&mut self, callback: Callback) {
        self.interpose(InterposeClass::Message);
        let thread = self.thread;
        let outcome = self.browser.intercept(&ApiCall::PostMessage {
            from: thread,
            to: thread,
            transfer_count: 0,
            to_doc_freed: false,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return;
        }
        let proposed = self.browser.current_instant() + SimDuration::from_micros(30);
        let at = self.browser.channel_arrival(thread, thread, proposed);
        let poly = self.browser.cur.as_ref().and_then(|c| c.polyfill_worker);
        self.browser.register_async(
            AsyncReg::new(
                thread,
                AsyncKind::Message { from: thread },
                TaskSource::Message,
                callback,
                JsValue::Undefined,
                at,
            )
            .in_polyfill(poly),
        );
    }

    // --- requestAnimationFrame ------------------------------------------------

    /// `requestAnimationFrame(callback)`; the callback receives the frame
    /// timestamp (ms) as its argument.
    pub fn request_animation_frame(&mut self, callback: Callback) -> RafId {
        self.interpose(InterposeClass::Timer);
        let user = callback;
        let wrapped = cb(move |scope: &mut JsScope<'_>, _| {
            let ts = scope.read_clock(ClockKind::RafTimestamp);
            user(scope, JsValue::from(ts));
        });
        self.browser.request_raf(self.thread, wrapped)
    }

    /// `cancelAnimationFrame(id)`.
    pub fn cancel_animation_frame(&mut self, id: RafId) {
        self.interpose(InterposeClass::Timer);
        self.browser.cancel_raf(id);
    }

    // --- messaging ---------------------------------------------------------------

    /// Sets this global's `onmessage` handler (`self.onmessage` in a
    /// worker, `window.onmessage` on main).
    pub fn set_onmessage(&mut self, callback: Callback) {
        self.interpose(InterposeClass::Message);
        let thread = self.thread;
        let _ = self.browser.intercept(&ApiCall::SetOnMessage {
            thread,
            worker: None,
            worker_closing: false,
        });
        if let Some(c) = &self.browser.cur {
            if let Some(w) = c.polyfill_worker {
                self.browser.workers[w.index() as usize].poly_onmessage = Some(callback);
                return;
            }
        }
        self.browser.threads[thread.index() as usize].onmessage = Some(callback);
    }

    /// Sets this global's `onerror` handler.
    pub fn set_onerror(&mut self, callback: Callback) {
        self.browser.threads[self.thread.index() as usize].onerror = Some(callback);
    }

    /// Sets `worker.onmessage` on a worker object owned by this thread.
    ///
    /// On a *closing* worker the native setter dereferences null
    /// (CVE-2013-5602); a defense may trap the setter and drop the
    /// assignment.
    pub fn set_worker_onmessage(&mut self, worker: WorkerId, callback: Callback) {
        self.interpose(InterposeClass::Message);
        let wi = worker.index() as usize;
        let closing = matches!(self.browser.workers[wi].state, WorkerState::Closing);
        let outcome = self.browser.intercept(&ApiCall::SetOnMessage {
            thread: self.thread,
            worker: Some(worker),
            worker_closing: closing,
        });
        match outcome {
            ApiOutcome::DropQuietly | ApiOutcome::Deny { .. } => {}
            _ => {
                if closing {
                    self.browser.fact(Fact::NullDerefOnAssign { worker });
                } else {
                    self.browser.workers[wi].owner_onmessage = Some(callback);
                }
            }
        }
    }

    /// Sets `worker.onerror` on a worker object owned by this thread.
    pub fn set_worker_onerror(&mut self, worker: WorkerId, callback: Callback) {
        self.interpose(InterposeClass::Message);
        let wi = worker.index() as usize;
        self.browser.workers[wi].owner_onerror = Some(callback);
        self.browser.workers[wi].onerror_set = true;
    }

    /// `worker.postMessage(value)` — owner to worker.
    pub fn post_message_to_worker(&mut self, worker: WorkerId, value: JsValue) {
        self.post_message_to_worker_transfer(worker, value, Vec::new());
    }

    /// `worker.postMessage(value, [transfer])` — owner to worker with
    /// transferred buffers.
    //
    // Takes `value`/`transfer` by value to mirror the Web API's hand-off
    // semantics; fault-injected duplicate deliveries force the internal
    // clones.
    #[allow(clippy::needless_pass_by_value)]
    pub fn post_message_to_worker_transfer(
        &mut self,
        worker: WorkerId,
        value: JsValue,
        transfer: Vec<BufferId>,
    ) {
        self.interpose(InterposeClass::Message);
        let wi = worker.index() as usize;
        if !self.browser.workers[wi].user_alive() {
            return;
        }
        let to = self.browser.workers[wi].thread;
        let from = self.thread;
        let outcome = self.browser.intercept(&ApiCall::PostMessage {
            from,
            to,
            transfer_count: transfer.len(),
            to_doc_freed: false,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return;
        }
        self.transfer_buffers(&transfer, to);
        let latency = self.message_latency();
        let proposed = self.browser.current_instant() + latency;
        // Fault injection decides delivery instants: none (lost), one
        // (normal/reordered), or two (duplicated).
        for at in self.browser.message_arrivals(from, to, proposed) {
            if self.browser.workers[wi].polyfill {
                let target = worker;
                self.browser.register_async(
                    AsyncReg::new(
                        to,
                        AsyncKind::Message { from },
                        TaskSource::Message,
                        cb(move |scope: &mut JsScope<'_>, v| {
                            scope.dispatch_polyfill_message(target, v);
                        }),
                        value.clone(),
                        at,
                    )
                    .in_polyfill(Some(worker)),
                );
            } else {
                self.browser.register_async(AsyncReg::new(
                    to,
                    AsyncKind::Message { from },
                    TaskSource::Message,
                    cb(move |scope: &mut JsScope<'_>, v| scope.dispatch_incoming_message(v)),
                    value.clone(),
                    at,
                ));
            }
        }
    }

    /// `postMessage(value)` from a worker back to its owner.
    pub fn post_message(&mut self, value: JsValue) {
        self.post_message_transfer(value, Vec::new());
    }

    /// `postMessage(value, [transfer])` from a worker back to its owner.
    //
    // By value for the same Web-API hand-off reason as
    // [`post_message_to_worker_transfer`](JsScope::post_message_to_worker_transfer).
    #[allow(clippy::needless_pass_by_value)]
    pub fn post_message_transfer(&mut self, value: JsValue, transfer: Vec<BufferId>) {
        self.interpose(InterposeClass::Message);
        let Some(worker) = self.current_worker() else {
            return;
        };
        let wi = worker.index() as usize;
        if self.browser.workers[wi].user_terminated {
            return;
        }
        let owner = self.browser.workers[wi].owner;
        let from = self.thread;
        let to_doc_freed = self.browser.workers[wi].created_gen
            < self.browser.threads[owner.index() as usize].doc_generation;
        let outcome = self.browser.intercept(&ApiCall::PostMessage {
            from,
            to: owner,
            transfer_count: transfer.len(),
            to_doc_freed,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return;
        }
        // Buffers transferred out of a worker remain backed by the worker's
        // allocator (the CVE-2014-1488 tie).
        self.transfer_buffers(&transfer, owner);
        if !self.browser.workers[wi].polyfill {
            for b in &transfer {
                self.browser.buffers[b.index() as usize].backed_by_worker = Some(worker);
                self.browser.workers[wi].transferred_out.push(*b);
            }
        }
        let latency = self.message_latency();
        let proposed = self.browser.current_instant() + latency;
        let src = worker;
        for at in self.browser.message_arrivals(from, owner, proposed) {
            self.browser.register_async(
                AsyncReg::new(
                    owner,
                    AsyncKind::Message { from },
                    TaskSource::Message,
                    cb(move |scope: &mut JsScope<'_>, v| {
                        scope.dispatch_worker_message_to_owner(src, v);
                    }),
                    value.clone(),
                    at,
                )
                .via_worker(worker),
            );
        }
    }

    fn message_latency(&mut self) -> SimDuration {
        let base = self.browser.cfg.profile.sched.message_latency;
        let jitter = self.browser.cfg.profile.sched.message_jitter;
        self.browser.rng_sched.jitter(base, jitter)
    }

    fn transfer_buffers(&mut self, transfer: &[BufferId], to: ThreadId) {
        for b in transfer {
            let bi = b.index() as usize;
            if bi < self.browser.buffers.len() {
                self.browser.buffers[bi].owner = to;
            }
        }
    }

    // --- message dispatch plumbing (wrapper callbacks land here) ----------------

    /// Dispatches a message delivered to this global (`self.onmessage`).
    pub(crate) fn dispatch_incoming_message(&mut self, value: JsValue) {
        let ti = self.thread.index() as usize;
        if !self.browser.threads[ti].ready {
            self.browser.threads[ti].startup_buffer.push(value);
            return;
        }
        let handler = self.browser.threads[ti].onmessage.clone();
        if let Some(h) = handler {
            h(self, value);
        }
    }

    /// Dispatches a polyfill worker's incoming message.
    pub(crate) fn dispatch_polyfill_message(&mut self, worker: WorkerId, value: JsValue) {
        let wi = worker.index() as usize;
        if !self.browser.workers[wi].user_alive() {
            return;
        }
        let handler = self.browser.workers[wi].poly_onmessage.clone();
        if let Some(h) = handler {
            h(self, value);
        }
    }

    /// Dispatches a worker's message on the owner thread (`worker.onmessage`).
    pub(crate) fn dispatch_worker_message_to_owner(&mut self, worker: WorkerId, value: JsValue) {
        let ti = self.thread.index() as usize;
        let wi = worker.index() as usize;
        let stale = self.browser.workers[wi].created_gen < self.browser.threads[ti].doc_generation;
        if stale {
            self.browser.fact(Fact::MessageToFreedDoc {
                from: self.browser.workers[wi].thread,
                to: self.thread,
            });
        }
        if self.browser.threads[ti].closing {
            self.browser.fact(Fact::CallbackAfterClose {
                thread: self.thread,
            });
        }
        let handler = self.browser.workers[wi].owner_onmessage.clone();
        if let Some(h) = handler {
            h(self, value);
        }
    }

    /// Dispatches an error event (worker-object `onerror` when `via_worker`
    /// is set, else this global's `onerror`).
    pub(crate) fn dispatch_error_for(&mut self, via_worker: Option<WorkerId>, value: JsValue) {
        let handler = match via_worker {
            Some(w) => self.browser.workers[w.index() as usize]
                .owner_onerror
                .clone(),
            None => self.browser.threads[self.thread.index() as usize]
                .onerror
                .clone(),
        };
        if let Some(h) = handler {
            h(self, value);
        }
    }

    /// Completes worker startup (runs after the top-level worker script).
    pub(crate) fn finish_worker_start(&mut self) {
        if let Some(w) = self.current_worker() {
            self.browser.worker_became_ready(w);
        }
    }

    // --- workers --------------------------------------------------------------------

    /// `new Worker(src)` — `script` is the worker's top-level code.
    pub fn create_worker(&mut self, src: impl Into<String>, script: WorkerScript) -> WorkerId {
        self.interpose(InterposeClass::Worker);
        self.browser.create_worker_impl(src.into(), script)
    }

    /// `worker.terminate()`.
    pub fn terminate_worker(&mut self, worker: WorkerId) {
        self.interpose(InterposeClass::Worker);
        self.browser
            .terminate_worker_impl(worker, TerminationReason::Explicit);
    }

    /// `self.close()` in a worker; `window.close()` on the main thread.
    pub fn close(&mut self) {
        self.interpose(InterposeClass::Worker);
        if let Some(w) = self.current_worker() {
            self.browser
                .terminate_worker_impl(w, TerminationReason::SelfClose);
        } else {
            self.browser.close_document_impl(self.thread);
        }
    }

    /// Navigates the main document (`location = …`).
    pub fn navigate(&mut self) {
        self.interpose(InterposeClass::Worker);
        self.browser.navigate_impl(self.thread);
    }

    /// Runs `f` in a sandboxed frame context (worker creations inside
    /// inherit the sandbox flag — the CVE-2011-1190 setup).
    pub fn run_sandboxed(&mut self, f: impl FnOnce(&mut JsScope<'_>)) {
        let prev = self.browser.cur.as_ref().map(|c| c.sandboxed);
        if let Some(c) = self.browser.cur.as_mut() {
            c.sandboxed = true;
        }
        f(self);
        if let (Some(c), Some(p)) = (self.browser.cur.as_mut(), prev) {
            c.sandboxed = p;
        }
    }

    /// Whether the user-visible worker object is alive.
    #[must_use]
    pub fn worker_alive(&self, worker: WorkerId) -> bool {
        self.browser
            .workers
            .get(worker.index() as usize)
            .is_some_and(crate::worker::WorkerRecord::user_alive)
    }

    // --- abort controllers / fetch ------------------------------------------------

    /// `new AbortController()`; returns its signal.
    pub fn new_abort_controller(&mut self) -> SignalId {
        self.interpose(InterposeClass::Net);
        self.browser.create_signal()
    }

    /// `controller.abort()`.
    pub fn abort(&mut self, signal: SignalId) {
        self.interpose(InterposeClass::Net);
        let si = signal.index() as usize;
        if si >= self.browser.signals.len() || self.browser.signals[si].aborted {
            return;
        }
        self.browser.signals[si].aborted = true;
        let reqs: Vec<RequestId> = self.browser.signals[si].requests.clone();
        for r in reqs {
            self.browser.deliver_abort(r);
        }
    }

    /// `fetch(url, {signal})`; `callback` receives `{ok, error?, url}`.
    pub fn fetch(
        &mut self,
        url: impl Into<String>,
        signal: Option<SignalId>,
        callback: Callback,
    ) -> RequestId {
        self.interpose(InterposeClass::Net);
        let url = url.into();
        let req = RequestId::new(self.browser.requests.len() as u64);
        let thread = self.thread;
        let gen = self.browser.threads[thread.index() as usize].doc_generation;
        self.browser.requests.push(crate::worker::RequestRecord {
            id: req,
            thread,
            url: url.clone(),
            state: RequestState::Pending,
            signal,
            doc_generation: gen,
            owner_alive: true,
        });
        if let Some(w) = self.current_worker() {
            if !self.browser.workers[w.index() as usize].polyfill {
                self.browser.workers[w.index() as usize]
                    .pending_fetches
                    .insert(req);
            }
        }
        if let Some(s) = signal {
            let si = s.index() as usize;
            self.browser.signals[si].requests.push(req);
            if self.browser.signals[si].aborted {
                self.browser.requests[req.index() as usize].state = RequestState::Aborted;
                self.schedule_immediate_error(callback, "AbortError");
                return req;
            }
        }
        let url_sym = self.browser.trace.intern(&url);
        let outcome = self.browser.intercept(&ApiCall::Fetch {
            thread,
            req,
            url: url_sym,
            has_signal: signal.is_some(),
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            self.browser.requests[req.index() as usize].state = RequestState::Aborted;
            self.schedule_immediate_error(callback, "SecurityError");
            return req;
        }
        let scale = self.browser.cfg.net_latency_scale;
        let plan = {
            let profile = self.browser.cfg.profile;
            self.browser
                .net
                .plan_load(&url, &profile, &mut self.browser.rng_cpu, scale)
        };
        self.browser.fact(Fact::FetchStarted {
            req,
            thread,
            has_signal: signal.is_some(),
        });
        self.browser.hb_access(
            thread,
            AccessTarget::Request { req },
            AccessKind::Write,
            "fetch-start",
        );
        // Network fault injection with retry-with-backoff: each faulted
        // attempt costs its failure time (a round trip for an error, the
        // timeout for a timeout) plus the plan's backoff before the next
        // attempt. The whole chain is resolved now — virtual time makes the
        // schedule exact — and a single completion is registered at the end.
        let mut fault_extra = SimDuration::ZERO;
        let mut fault_error: Option<&'static str> = None;
        if let Some(inj) = self.browser.fault.as_mut() {
            let mut attempt = 0u32;
            loop {
                match inj.net_fate() {
                    jsk_sim::fault::NetFate::Ok => {
                        fault_error = None;
                        break;
                    }
                    jsk_sim::fault::NetFate::Error => {
                        fault_extra += plan.net_time;
                        fault_error = Some("NetworkError");
                    }
                    jsk_sim::fault::NetFate::Timeout(d) => {
                        fault_extra += d;
                        fault_error = Some("TimeoutError");
                    }
                }
                match inj.retry_after(attempt) {
                    Some(backoff) => {
                        fault_extra += backoff;
                        attempt += 1;
                    }
                    None => break,
                }
            }
        }
        let (arg, at) = match fault_error {
            Some(err) => (
                JsValue::object([
                    ("ok", JsValue::Bool(false)),
                    ("error", JsValue::from(err)),
                    ("url", JsValue::from(url)),
                ]),
                // fault_extra already includes the final failing attempt.
                self.browser.current_instant() + fault_extra,
            ),
            None => (
                JsValue::object([("ok", JsValue::Bool(plan.ok)), ("url", JsValue::from(url))]),
                self.browser.current_instant() + fault_extra + plan.net_time,
            ),
        };
        let user = callback;
        let token = self.browser.register_async(AsyncReg::new(
            thread,
            AsyncKind::Net {
                req,
                class: NetClass::Fetch,
                cached: plan.cached,
            },
            TaskSource::Net,
            cb(move |scope: &mut JsScope<'_>, v| {
                scope.finish_fetch(req);
                user(scope, v);
            }),
            arg,
            at,
        ));
        self.browser.request_token(req, token);
        req
    }

    fn schedule_immediate_error(&mut self, callback: Callback, error: &str) {
        let arg = JsValue::object([
            ("ok", JsValue::Bool(false)),
            ("error", JsValue::from(error)),
        ]);
        let thread = self.thread;
        let at = self.browser.current_instant() + SimDuration::from_micros(50);
        self.browser.register_async(AsyncReg::new(
            thread,
            AsyncKind::Net {
                req: RequestId::new(u64::MAX),
                class: NetClass::Fetch,
                cached: false,
            },
            TaskSource::Net,
            callback,
            arg,
            at,
        ));
    }

    fn finish_fetch(&mut self, req: RequestId) {
        let ri = req.index() as usize;
        let stale = {
            let r = &self.browser.requests[ri];
            r.doc_generation < self.browser.threads[r.thread.index() as usize].doc_generation
        };
        if stale {
            self.browser.fact(Fact::StaleDocCallback {
                thread: self.thread,
            });
        }
        if self.browser.requests[ri].state == RequestState::Pending {
            self.browser.requests[ri].state = RequestState::Settled;
            let thread = self.thread;
            self.browser.hb_access(
                thread,
                AccessTarget::Request { req },
                AccessKind::Write,
                "fetch-settle",
            );
            self.browser.fact(Fact::FetchSettled { req, ok: true });
        }
        if let Some(w) = self.current_worker() {
            self.browser.workers[w.index() as usize]
                .pending_fetches
                .remove(&req);
        }
    }

    /// `XMLHttpRequest` send; `callback` receives `{ok, error?}`.
    ///
    /// The native same-origin policy blocks cross-origin XHR from the main
    /// thread — but not from workers (the CVE-2013-1714 bug).
    pub fn xhr_send(&mut self, url: impl Into<String>, callback: Callback) {
        self.interpose(InterposeClass::Net);
        let url = url.into();
        let thread = self.thread;
        let ti = thread.index() as usize;
        // The SOP bypass lives in the *worker-thread* XHR path; a polyfill
        // worker issues main-thread XHR, where the check is intact.
        let from_worker = self.browser.threads[ti].kind.is_worker();
        let origin = self.browser.threads[ti].origin.clone();
        let cross = crate::net::is_cross_origin(&origin, &url);
        let url_sym = self.browser.trace.intern(&url);
        let outcome = self.browser.intercept(&ApiCall::XhrSend {
            thread,
            from_worker,
            url: url_sym,
            cross_origin: cross,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            self.schedule_immediate_error(callback, "SecurityError");
            return;
        }
        if !from_worker && cross {
            // The main-thread path enforces the same-origin policy.
            self.schedule_immediate_error(callback, "SecurityError");
            return;
        }
        if from_worker && cross {
            self.browser.fact(Fact::CrossOriginWorkerRequest {
                thread,
                url: url_sym,
            });
        }
        if self.browser.threads[ti].origin_kind == crate::thread::OriginKind::InheritedFromSandbox
            && !cross
        {
            self.browser.fact(Fact::InheritedOriginRequest { thread });
        }
        let scale = self.browser.cfg.net_latency_scale;
        let plan = {
            let profile = self.browser.cfg.profile;
            self.browser
                .net
                .plan_load(&url, &profile, &mut self.browser.rng_cpu, scale)
        };
        let arg = JsValue::object([("ok", JsValue::Bool(plan.ok))]);
        let at = self.browser.current_instant() + plan.net_time;
        self.browser.register_async(AsyncReg::new(
            thread,
            AsyncKind::Net {
                req: RequestId::new(u64::MAX),
                class: NetClass::Xhr,
                cached: plan.cached,
            },
            TaskSource::Net,
            callback,
            arg,
            at,
        ));
    }

    /// `importScripts(url)` in a worker. Returns `false` when the load
    /// failed (an error event with the — possibly sanitized — message is
    /// delivered to this worker's `onerror`).
    pub fn import_scripts(&mut self, url: impl Into<String>) -> bool {
        self.interpose(InterposeClass::Net);
        let url = url.into();
        let thread = self.thread;
        let origin = self.browser.threads[thread.index() as usize].origin.clone();
        let cross = crate::net::is_cross_origin(&origin, &url);
        let url_sym = self.browser.trace.intern(&url);
        let outcome = self.browser.intercept(&ApiCall::ImportScripts {
            thread,
            url: url_sym,
            cross_origin: cross,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return false;
        }
        let spec = self.browser.net.lookup(&url);
        if spec.exists {
            let parse = self.browser.cfg.profile.parse_cost(spec.size_bytes);
            let jitter = self.browser.cfg.profile.cpu.jitter;
            let d = self.browser.rng_cpu.jitter(parse, jitter);
            self.add_cost(d);
            true
        } else {
            // The native error message leaks the URL and first bytes of the
            // (cross-origin) response — CVE-2015-7215.
            let message = format!(
                "SyntaxError: importScripts failed for {url}: unexpected token in <secret-content>"
            );
            self.browser.deliver_error_event(
                thread,
                None,
                crate::trace::ErrorSource::ImportScripts,
                message,
                cross,
            );
            false
        }
    }

    // --- resource loading (DOM side) -----------------------------------------------

    /// Loads `url` as a `<script>` element; `callback` receives `{ok}` after
    /// network + parse.
    pub fn load_script(&mut self, url: impl Into<String>, callback: Callback) {
        self.load_resource(url.into(), "script", NetClass::ScriptLoad, callback);
    }

    /// Loads `url` as an `<img>` element; `callback` receives `{ok}` after
    /// network + decode.
    pub fn load_image(&mut self, url: impl Into<String>, callback: Callback) {
        self.load_resource(url.into(), "img", NetClass::ImageLoad, callback);
    }

    fn load_resource(&mut self, url: String, tag: &str, class: NetClass, callback: Callback) {
        self.interpose(InterposeClass::Net);
        self.interpose(InterposeClass::Dom);
        let node = self.browser.dom.create_element(tag);
        self.browser.dom.set_attribute(node, "src", url.clone());
        let root = self.browser.dom.root();
        self.browser.dom.append_child(root, node);
        self.add_cost(self.browser.cfg.profile.cpu.dom_append);

        let thread = self.thread;
        let scale = self.browser.cfg.net_latency_scale;
        let plan = {
            let profile = self.browser.cfg.profile;
            self.browser
                .net
                .plan_load(&url, &profile, &mut self.browser.rng_net, scale)
        };
        let decode = match class {
            NetClass::ImageLoad => self.browser.cfg.profile.decode_cost(plan.size_bytes),
            _ => self.browser.cfg.profile.parse_cost(plan.size_bytes),
        };
        let ok = plan.ok;
        let arg = JsValue::object([("ok", JsValue::Bool(ok)), ("url", JsValue::from(url))]);
        let at = self.browser.current_instant() + plan.net_time;
        let user = callback;
        let req = RequestId::new(u64::MAX);
        self.browser.register_async(AsyncReg::new(
            thread,
            AsyncKind::Net {
                req,
                class,
                cached: plan.cached,
            },
            TaskSource::Net,
            cb(move |scope: &mut JsScope<'_>, v| {
                if ok {
                    // Parsing/decoding blocks the main thread inside the
                    // completion task — the van Goethem measurement target.
                    let jitter = scope.browser.cfg.profile.cpu.jitter;
                    let d = scope.browser.rng_cpu.jitter(decode, jitter);
                    scope.add_cost(d);
                }
                let ti = scope.thread.index() as usize;
                let stale_now = scope.browser.threads[ti].doc_generation;
                let _ = stale_now;
                user(scope, v);
            }),
            arg,
            at,
        ));
    }

    // --- measured operations (attack targets) -----------------------------------------

    /// Applies an SVG filter over `px` pixels (blocks this thread for the
    /// profile's jittered cost) — the SVG-filtering attack target.
    pub fn apply_svg_filter(&mut self, px: u64) {
        self.interpose(InterposeClass::Dom);
        let base = self.browser.cfg.profile.svg_filter_cost(px);
        let jitter = self.browser.cfg.profile.cpu.jitter;
        let d = self.browser.rng_cpu.jitter(base, jitter);
        self.add_cost(d);
    }

    /// Runs `n` floating-point operations on normal or subnormal operands —
    /// the floating-point timing channel.
    pub fn float_ops(&mut self, n: u64, subnormal: bool) {
        let per = if subnormal {
            self.browser.cfg.profile.cpu.float_subnormal
        } else {
            self.browser.cfg.profile.cpu.float_normal
        };
        let jitter = self.browser.cfg.profile.cpu.jitter;
        let d = self.browser.rng_cpu.jitter(per * n, jitter);
        self.add_cost(d);
    }

    /// Styles a link to `url` and pays the visited/unvisited repaint cost —
    /// the history-sniffing channel.
    pub fn style_link(&mut self, url: impl Into<String>) {
        self.interpose(InterposeClass::Dom);
        let url = url.into();
        let node = self.browser.dom.create_element("a");
        self.browser.dom.set_attribute(node, "href", url.clone());
        let root = self.browser.dom.root();
        self.browser.dom.append_child(root, node);
        let visited = self.browser.dom.is_visited(&url);
        let base = if visited {
            self.browser.cfg.profile.cpu.visited_paint
        } else {
            self.browser.cfg.profile.cpu.unvisited_paint
        };
        let jitter = self.browser.cfg.profile.cpu.jitter;
        let d = self.browser.rng_cpu.jitter(base, jitter);
        self.add_cost(d);
    }

    /// Accesses shared-cache content (hit vs. miss cost) — the cache-attack
    /// channel. The access caches the key as a side effect.
    pub fn access_cached(&mut self, key: impl AsRef<str>) {
        let profile = self.browser.cfg.profile;
        let d =
            self.browser
                .content_cache
                .access(key.as_ref(), &profile, &mut self.browser.rng_cpu);
        self.add_cost(d);
    }

    // --- DOM -------------------------------------------------------------------------------

    /// `document.createElement(tag)`.
    pub fn create_element(&mut self, tag: impl Into<String>) -> NodeId {
        self.interpose(InterposeClass::Dom);
        self.add_cost(self.browser.cfg.profile.cpu.dom_append / 4);
        self.browser.dom.create_element(tag)
    }

    /// `parent.appendChild(child)`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> bool {
        self.interpose(InterposeClass::Dom);
        self.add_cost(self.browser.cfg.profile.cpu.dom_append);
        let thread = self.thread;
        self.browser.hb_access(
            thread,
            AccessTarget::Dom { node: parent },
            AccessKind::Write,
            "append-child",
        );
        self.browser.dom.append_child(parent, child)
    }

    /// `element.setAttribute(key, value)`.
    pub fn set_attribute(
        &mut self,
        node: NodeId,
        key: impl Into<String>,
        value: impl Into<String>,
    ) {
        self.interpose(InterposeClass::Dom);
        self.add_cost(self.browser.cfg.profile.cpu.dom_attr);
        let thread = self.thread;
        self.browser.hb_access(
            thread,
            AccessTarget::Dom { node },
            AccessKind::Write,
            "set-attribute",
        );
        self.browser.dom.set_attribute(node, key, value);
    }

    /// `element.getAttribute(key)`.
    pub fn get_attribute(&mut self, node: NodeId, key: &str) -> Option<String> {
        self.interpose(InterposeClass::Dom);
        self.add_cost(self.browser.cfg.profile.cpu.dom_attr);
        let thread = self.thread;
        self.browser.hb_access(
            thread,
            AccessTarget::Dom { node },
            AccessKind::Read,
            "get-attribute",
        );
        self.browser.dom.attribute(node, key).map(str::to_owned)
    }

    /// Sets an element's text content.
    pub fn set_text(&mut self, node: NodeId, text: impl Into<String>) {
        self.interpose(InterposeClass::Dom);
        self.add_cost(self.browser.cfg.profile.cpu.dom_attr);
        let thread = self.thread;
        self.browser.hb_access(
            thread,
            AccessTarget::Dom { node },
            AccessKind::Write,
            "set-text",
        );
        self.browser.dom.set_text(node, text);
    }

    /// The document root.
    #[must_use]
    pub fn document_root(&self) -> NodeId {
        self.browser.dom.root()
    }

    // --- IndexedDB -----------------------------------------------------------------------------

    /// `indexedDB.open(name)` with optional durable persistence; returns
    /// whether the open succeeded.
    pub fn idb_open(&mut self, name: impl Into<String>, persist: bool) -> bool {
        self.interpose(InterposeClass::Net);
        self.add_cost(self.browser.cfg.profile.cpu.idb_open);
        let thread = self.thread;
        self.browser.idb_open_impl(thread, name.into(), persist)
    }

    // --- buffers / SharedArrayBuffer -----------------------------------------------------------

    /// Allocates a transferable `ArrayBuffer` owned by this thread.
    pub fn create_buffer(&mut self, len: usize) -> BufferId {
        let thread = self.thread;
        self.browser.create_buffer(thread, len)
    }

    /// Reads a buffer; touching a freed backing store is recorded as a
    /// use-after-free fact (CVE-2014-1488).
    pub fn read_buffer(&mut self, buffer: BufferId) -> bool {
        let bi = buffer.index() as usize;
        if bi >= self.browser.buffers.len() {
            return false;
        }
        let freed = self.browser.buffers[bi].freed;
        let thread = self.thread;
        let _ = self.browser.intercept(&ApiCall::BufferAccess {
            thread,
            buffer,
            freed,
        });
        self.browser.hb_access(
            thread,
            AccessTarget::Buffer { buffer },
            AccessKind::Read,
            "read-buffer",
        );
        if freed {
            self.browser
                .fact(Fact::FreedBufferAccess { buffer, thread });
        }
        self.add_cost(SimDuration::from_nanos(200));
        !freed
    }

    /// Allocates a `SharedArrayBuffer`, if the engine enables them.
    pub fn sab_create(&mut self, len: usize) -> Option<SabId> {
        self.interpose(InterposeClass::Sab);
        self.browser.create_sab(len)
    }

    /// Starts incrementing a SAB cell in a tight loop at one increment per
    /// `period_ns` (the "Fantastic Timers" counting-worker pattern). The
    /// loop is continuous, so it only makes sense from a real worker
    /// thread; on the main thread (including polyfill workers) the loop
    /// would starve the very tasks trying to read it, so this is a no-op
    /// there.
    pub fn sab_run_counter(&mut self, sab: SabId, idx: usize, period_ns: u64) {
        self.interpose(InterposeClass::Sab);
        let ti = self.thread.index() as usize;
        if !self.browser.threads[ti].kind.is_worker() {
            return;
        }
        self.browser
            .sab_start_counter(sab, idx, SimDuration::from_nanos(period_ns));
    }

    /// Writes a SAB cell.
    pub fn sab_write(&mut self, sab: SabId, idx: usize, value: f64) {
        self.interpose(InterposeClass::Sab);
        self.add_cost(SimDuration::from_nanos(40));
        let thread = self.thread;
        self.browser.hb_access(
            thread,
            AccessTarget::Sab {
                sab,
                idx: idx as u64,
            },
            AccessKind::Write,
            "sab-write",
        );
        if let Some(cell) = self.browser.sab_cell(sab, idx) {
            *cell = value;
        }
    }

    /// Reads a SAB cell.
    ///
    /// Under a defense that freezes SAB reads (the JSKernel), all reads of
    /// a cell within one task return the snapshot taken by the first — the
    /// access is "redirected to the kernel and put into the event queue",
    /// so intra-task progress of a cross-thread counter is unobservable.
    pub fn sab_read(&mut self, sab: SabId, idx: usize) -> Option<f64> {
        self.interpose(InterposeClass::Sab);
        self.add_cost(SimDuration::from_nanos(40));
        let thread = self.thread;
        self.browser.hb_access(
            thread,
            AccessTarget::Sab {
                sab,
                idx: idx as u64,
            },
            AccessKind::Read,
            "sab-read",
        );
        let frozen = self.browser.with_mediator(|m, _| m.freeze_sab_reads());
        let raw = self.browser.sab_value_now(sab, idx)?;
        if !frozen {
            return Some(raw);
        }
        let key = (sab.index(), idx);
        if let Some(c) = self.browser.cur.as_mut() {
            return Some(*c.sab_seen.entry(key).or_insert(raw));
        }
        Some(raw)
    }

    // --- output ----------------------------------------------------------------------------------

    /// `console.log(value)`.
    pub fn console_log(&mut self, value: JsValue) {
        self.browser.push_console(value);
    }

    /// Records a named result for the harness to read after the run.
    pub fn record(&mut self, key: impl Into<String>, value: JsValue) {
        self.browser.push_record(key.into(), value);
    }
}
