//! The browser: threads, the event loop, and native API semantics.
//!
//! [`Browser`] is a single-seed discrete-event simulation of an event-driven
//! browser. It owns every thread's run queue, the asynchronous event
//! lifecycle (register → raw trigger → confirm → invoke), the network/DOM
//! substrates, and — crucially — the [`Mediator`] seam through which every
//! defense (including the JSKernel) observes and reshapes execution.
//!
//! The "native" semantics deliberately include the **bugs** of the
//! vulnerable browser versions the paper evaluates (dangling aborts on
//! document teardown, transfers freed with their worker, stale-document
//! callbacks, …): the vulnerability oracle in `jsk-vuln` watches the trace
//! for their triggering sequences, and defenses succeed by preventing the
//! sequences.

use crate::dom::Dom;
use crate::event::{AsyncEventInfo, AsyncKind};
use crate::ids::{
    BufferId, EventToken, RequestId, SabId, SignalId, ThreadId, TimerId, WorkerId, MAIN_THREAD,
};
use crate::mediator::{ApiOutcome, ConfirmDecision, Mediator, MediatorCtx, MediatorOp};
use crate::net::{ContentCache, NetState, ResourceSpec};
use crate::profile::BrowserProfile;
use crate::scope::JsScope;
use crate::task::{Callback, Task, TaskSource, WorkerScript};
use crate::thread::{OriginKind, ThreadKind, ThreadState};
use crate::trace::{
    AccessKind, AccessRecord, AccessTarget, ApiCall, Fact, HbEdge, NodeRecord, TerminationReason,
    Trace,
};
use crate::value::JsValue;
use crate::worker::{
    BufferRecord, RequestRecord, RequestState, SharedBuffer, SignalRecord, WorkerRecord,
    WorkerState,
};
use jsk_sim::fault::{ConfirmFate, FaultInjector, FaultPlan, FaultStats, MessageFate};
use jsk_sim::queue::{QueueKey, TimeQueue};
use jsk_sim::rng::SimRng;
use jsk_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Configuration of one browser instance.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// Engine timing profile.
    pub profile: BrowserProfile,
    /// RNG seed; a run is a pure function of this.
    pub seed: u64,
    /// Whether the session is in private-browsing mode.
    pub private_mode: bool,
    /// The first-party origin of the page.
    pub origin: String,
    /// Multiplier on network latency (Tor routes through circuits).
    pub net_latency_scale: f64,
    /// Hard cap on processed simulation events (runaway guard).
    pub step_limit: u64,
    /// Faults to inject during the run (`None` → fault-free).
    pub fault: Option<FaultPlan>,
    /// Which serving shard this browser runs on (`None` → unsharded).
    /// Shard-addressed faults in the plan (per-shard clock skew) only
    /// apply when their shard id matches this.
    pub shard: Option<u64>,
    /// Observer to instrument the run with (`None` → uninstrumented).
    pub observer: Option<jsk_observe::ObsHandle>,
}

impl BrowserConfig {
    /// A configuration for the given profile with library defaults.
    #[must_use]
    pub fn new(profile: BrowserProfile, seed: u64) -> BrowserConfig {
        BrowserConfig {
            profile,
            seed,
            private_mode: false,
            origin: "https://attacker.example".to_owned(),
            net_latency_scale: 1.0,
            step_limit: 5_000_000,
            fault: None,
            shard: None,
            observer: None,
        }
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> BrowserConfig {
        self.fault = Some(plan);
        self
    }

    /// Places this browser on a serving shard, making it addressable by
    /// the plan's shard-scoped faults (clock skew). The shard id does not
    /// influence the simulation itself — an unfaulted run is bit-identical
    /// on any shard.
    #[must_use]
    pub fn with_shard(mut self, shard: u64) -> BrowserConfig {
        self.shard = Some(shard);
        self
    }

    /// Attaches an observer: the browser instruments task dispatch,
    /// worker/net lifecycle, and fault hits, and hands the same handle to
    /// the mediator (see `Mediator::attach_observer`) so the kernel
    /// instruments its dispatch path. Build one with
    /// `jsk_observe::handle_of(&Observer::with_trace().shared())`.
    #[must_use]
    pub fn with_observer(mut self, observer: jsk_observe::ObsHandle) -> BrowserConfig {
        self.observer = Some(observer);
        self
    }
}

/// Pre-interned browser-side observability names (interned once when the
/// observer attaches, so the hooks never touch a string).
#[derive(Debug)]
struct BrowserSyms {
    task: jsk_observe::Sym,
    tasks: jsk_observe::Sym,
    fetches_started: jsk_observe::Sym,
    fetches_settled: jsk_observe::Sym,
    workers_started: jsk_observe::Sym,
    workers_terminated: jsk_observe::Sym,
    worker_started: jsk_observe::Sym,
    worker_terminated: jsk_observe::Sym,
    confirm_dropped: jsk_observe::Sym,
    confirm_delayed: jsk_observe::Sym,
    worker_crashes: jsk_observe::Sym,
}

/// The browser's attached observer plus its interned names.
#[derive(Debug)]
struct ObsCtx {
    handle: jsk_observe::ObsHandle,
    syms: BrowserSyms,
}

impl ObsCtx {
    fn new(handle: jsk_observe::ObsHandle) -> ObsCtx {
        let syms = BrowserSyms {
            task: handle.intern("browser.task"),
            tasks: handle.intern("browser.tasks"),
            fetches_started: handle.intern("browser.fetches_started"),
            fetches_settled: handle.intern("browser.fetches_settled"),
            workers_started: handle.intern("browser.workers_started"),
            workers_terminated: handle.intern("browser.workers_terminated"),
            worker_started: handle.intern("browser.worker_started"),
            worker_terminated: handle.intern("browser.worker_terminated"),
            confirm_dropped: handle.intern("fault.confirm_dropped"),
            confirm_delayed: handle.intern("fault.confirm_delayed"),
            worker_crashes: handle.intern("fault.worker_crashes"),
        };
        ObsCtx { handle, syms }
    }
}

/// Browser-level simulation events.
enum SimEvent {
    /// Try to run the next task on a thread.
    Pump(ThreadId),
    /// The underlying browser trigger of a registered async event fired.
    RawTrigger(EventToken),
    /// A worker thread finishes spawning and runs its top-level script.
    WorkerStart(WorkerId),
    /// Delayed worker teardown after document navigation (the freed-document
    /// message window).
    WorkerTeardown(WorkerId),
    /// A mediator-requested housekeeping tick.
    MediatorTick(ThreadId),
    /// A kernel-space overlay message.
    KernelMessage {
        from: ThreadId,
        to: ThreadId,
        payload: JsValue,
        /// HB node the send was attributed to, restored into the receiving
        /// hook's context so kernel replies keep their provenance.
        sender_node: Option<u64>,
    },
    /// A fault-plan worker crash (worker addressed by creation order).
    WorkerCrash(u64),
}

/// A registered, not-yet-confirmed asynchronous event.
struct PendingEvent {
    info: AsyncEventInfo,
    callback: Callback,
    arg: JsValue,
    source: TaskSource,
    /// Key of the scheduled `RawTrigger`, for cancellation.
    raw_key: Option<QueueKey>,
    from_worker: Option<WorkerId>,
    polyfill_worker: Option<WorkerId>,
    nesting: u32,
    context: u32,
    /// HB node of the task that registered the event (the fork edge the
    /// eventual callback task inherits).
    forked_from: Option<u64>,
}

/// Parameters for [`Browser::register_async`]. The six fields every
/// registration needs ride the constructor; provenance extras default and
/// chain (`.via_worker(..)`, `.in_polyfill(..)`, `.nesting(..)`).
pub(crate) struct AsyncReg {
    thread: ThreadId,
    kind: AsyncKind,
    source: TaskSource,
    callback: Callback,
    arg: JsValue,
    raw_fire_at: SimTime,
    from_worker: Option<WorkerId>,
    polyfill_worker: Option<WorkerId>,
    nesting: u32,
    /// `Some(x)` pins the callback task's HB ancestor to `x`; `None` (the
    /// default) attributes it to whatever is running at registration time.
    forked_from: Option<Option<u64>>,
}

impl AsyncReg {
    pub(crate) fn new(
        thread: ThreadId,
        kind: AsyncKind,
        source: TaskSource,
        callback: Callback,
        arg: JsValue,
        raw_fire_at: SimTime,
    ) -> AsyncReg {
        AsyncReg {
            thread,
            kind,
            source,
            callback,
            arg,
            raw_fire_at,
            from_worker: None,
            polyfill_worker: None,
            nesting: 0,
            forked_from: None,
        }
    }

    /// Marks the eventual task as dispatching a message from `worker`.
    pub(crate) fn via_worker(mut self, worker: WorkerId) -> AsyncReg {
        self.from_worker = Some(worker);
        self
    }

    /// Runs the eventual task inside a polyfill worker context.
    pub(crate) fn in_polyfill(mut self, worker: Option<WorkerId>) -> AsyncReg {
        self.polyfill_worker = worker;
        self
    }

    /// Sets the timer nesting depth.
    pub(crate) fn nesting(mut self, nesting: u32) -> AsyncReg {
        self.nesting = nesting;
        self
    }

    /// Pins the HB ancestor instead of using the ambient one.
    pub(crate) fn forked(mut self, node: Option<u64>) -> AsyncReg {
        self.forked_from = Some(node);
        self
    }
}

/// A repeating or one-shot timer registration.
struct TimerRecord {
    thread: ThreadId,
    callback: Callback,
    period: Option<SimDuration>,
    kind_is_media: bool,
    kind_is_css: bool,
    current_token: EventToken,
    cancelled: bool,
    nesting: u32,
    polyfill_worker: Option<WorkerId>,
    /// First firing instant; repeating timers are anchored to
    /// `anchor + n·period` (the HTML timer model), so firing jitter never
    /// accumulates into drift.
    anchor: SimTime,
    /// Firings so far.
    fires: u64,
}

/// Execution context of the currently running task.
pub(crate) struct CurTask {
    pub thread: ThreadId,
    pub start: SimTime,
    pub cost: SimDuration,
    pub source: TaskSource,
    pub timer_nesting: u32,
    pub from_worker: Option<WorkerId>,
    pub polyfill_worker: Option<WorkerId>,
    pub sandboxed: bool,
    pub context: u32,
    /// The task's happens-before node id.
    pub node: u64,
    /// Per-task SAB read snapshots (kernel-frozen reads, §III-E2).
    pub sab_seen: HashMap<(u64, usize), f64>,
}

/// IndexedDB database record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IdbRecord {
    name: String,
    persisted: bool,
    private_session: bool,
}

/// The simulated browser.
pub struct Browser {
    pub(crate) cfg: BrowserConfig,
    now: SimTime,
    events: TimeQueue<SimEvent>,
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) workers: Vec<WorkerRecord>,
    pub(crate) buffers: Vec<BufferRecord>,
    pub(crate) signals: Vec<SignalRecord>,
    pub(crate) requests: Vec<RequestRecord>,
    sabs: Vec<SharedBuffer>,
    /// Virtual SAB counters: `(sab, idx) → (start, period)`. A real
    /// counting worker increments in a tight loop; the DES models that
    /// continuous process analytically so intra-task reads observe the
    /// value as of the *current virtual instant* (a discrete task could
    /// never interleave with it).
    sab_counters: HashMap<(u64, usize), (SimTime, SimDuration)>,
    timers: Vec<TimerRecord>,
    pending: HashMap<EventToken, PendingEvent>,
    withheld: HashMap<EventToken, PendingEvent>,
    raf_tokens: HashMap<u64, EventToken>,
    next_token: u64,
    next_raf: u64,
    mediator: Option<Box<dyn Mediator>>,
    pub(crate) rng_cpu: SimRng,
    pub(crate) rng_net: SimRng,
    pub(crate) rng_sched: SimRng,
    rng_med: SimRng,
    pub(crate) net: NetState,
    pub(crate) content_cache: ContentCache,
    pub(crate) dom: Dom,
    pub(crate) trace: Trace,
    console: Vec<JsValue>,
    records: BTreeMap<String, JsValue>,
    pub(crate) cur: Option<CurTask>,
    steps: u64,
    idb: Vec<IdbRecord>,
    thread_epochs: Vec<u64>,
    worker_scripts: HashMap<WorkerId, WorkerScript>,
    request_tokens: HashMap<RequestId, EventToken>,
    /// Last delivery instant per (from, to) message channel — `postMessage`
    /// channels are FIFO, so later sends never overtake earlier ones.
    channel_last: HashMap<(u64, u64), SimTime>,
    /// Fault injector, when a plan is installed.
    pub(crate) fault: Option<FaultInjector>,
    /// Skew applied to raw clock reads, when the plan targets our shard.
    raw_skew: Option<jsk_sim::fault::ClockSkew>,
    /// Next happens-before node id (one per dispatched task).
    next_node: u64,
    /// HB attribution for hooks running outside a task (kernel-message
    /// delivery carries the sender's node here).
    hb_ctx_node: Option<u64>,
    /// Synthetic HB node for browser-initiated teardown work (async worker
    /// teardown has no dispatched task to attribute its frees to).
    hb_synth_node: Option<u64>,
    /// Recycled mediator-call buffers (op list + batch-mark list), taken
    /// at the start of every hook invocation and returned once the ops
    /// are applied — steady-state hooks allocate nothing.
    med_scratch: Option<(Vec<MediatorOp>, Vec<u32>)>,
    /// Scratch for the batched same-instant confirmation path.
    batch_items: Vec<(AsyncEventInfo, SimTime)>,
    batch_pes: Vec<PendingEvent>,
    batch_decisions: Vec<ConfirmDecision>,
    /// Attached observer and its pre-interned names.
    obs: Option<ObsCtx>,
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("engine", &self.cfg.profile.engine)
            .field(
                "defense",
                &self.mediator.as_ref().map(|m| m.name().to_owned()),
            )
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("steps", &self.steps)
            .finish()
    }
}

impl Browser {
    /// Creates a browser with the given defense mediator installed.
    #[must_use]
    pub fn new(cfg: BrowserConfig, mediator: Box<dyn Mediator>) -> Browser {
        let root = SimRng::new(cfg.seed);
        let main = ThreadState::new(MAIN_THREAD, ThreadKind::Main, cfg.origin.clone());
        let fault = cfg.fault.clone().map(FaultInjector::new);
        let raw_skew = cfg.shard.and_then(|shard| {
            cfg.fault
                .as_ref()
                .and_then(|p| p.skew_for(shard).copied())
                .filter(|s| !s.is_inert())
        });
        let obs = cfg.observer.clone().map(ObsCtx::new);
        let mut b = Browser {
            rng_cpu: root.fork("cpu"),
            rng_net: root.fork("net"),
            rng_sched: root.fork("sched"),
            rng_med: root.fork("mediator"),
            cfg,
            now: SimTime::ZERO,
            events: TimeQueue::new(),
            threads: vec![main],
            workers: Vec::new(),
            buffers: Vec::new(),
            signals: Vec::new(),
            requests: Vec::new(),
            sabs: Vec::new(),
            sab_counters: HashMap::new(),
            timers: Vec::new(),
            pending: HashMap::new(),
            withheld: HashMap::new(),
            raf_tokens: HashMap::new(),
            next_token: 0,
            next_raf: 0,
            mediator: Some(mediator),
            net: NetState::new(),
            content_cache: ContentCache::new(),
            dom: Dom::new(),
            trace: Trace::new(),
            console: Vec::new(),
            records: BTreeMap::new(),
            cur: None,
            steps: 0,
            idb: Vec::new(),
            thread_epochs: vec![0],
            worker_scripts: HashMap::new(),
            request_tokens: HashMap::new(),
            channel_last: HashMap::new(),
            fault,
            raw_skew,
            next_node: 0,
            hb_ctx_node: None,
            hb_synth_node: None,
            med_scratch: Some((Vec::new(), Vec::new())),
            batch_items: Vec::new(),
            batch_pes: Vec::new(),
            batch_decisions: Vec::new(),
            obs,
        };
        // The mediator gets the same observer so kernel spans, browser
        // task spans, and fault instants land in one interner and export.
        if let Some(o) = b.obs.as_ref() {
            let handle = o.handle.clone();
            if let Some(m) = b.mediator.as_mut() {
                m.attach_observer(handle);
            }
        }
        // Worker crashes are scheduled up front: the plan names victims by
        // creation order, so a crash for a not-yet-created (or never-created)
        // worker is simply a no-op when it fires.
        let crashes: Vec<jsk_sim::fault::WorkerCrash> = b
            .fault
            .as_ref()
            .map(|inj| inj.plan().worker_crashes.clone())
            .unwrap_or_default();
        for crash in crashes {
            b.events.push(
                SimTime::from_millis(crash.at_ms),
                SimEvent::WorkerCrash(crash.worker),
            );
        }
        b.with_mediator(|m, ctx| m.on_thread_started(ctx, MAIN_THREAD, false));
        b
    }

    /// Counters for faults injected so far (`None` when no plan installed).
    #[must_use]
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(FaultInjector::stats)
    }

    // --- public driving API ------------------------------------------------

    /// Enqueues the page's main script to run at the current instant.
    pub fn boot<F>(&mut self, script: F)
    where
        F: Fn(&mut JsScope<'_>) + 'static,
    {
        self.boot_in_context(0, script);
    }

    /// Enqueues a top-level script tagged with a browsing-context id
    /// (cross-context pages share the main thread's event loop — the
    /// Loopscan setting).
    pub fn boot_in_context<F>(&mut self, context: u32, script: F)
    where
        F: Fn(&mut JsScope<'_>) + 'static,
    {
        let mut task = Task::new(
            std::rc::Rc::new(move |scope: &mut JsScope<'_>, _| script(scope)),
            JsValue::Undefined,
            TaskSource::Script,
        );
        task.context = context;
        self.enqueue_task(MAIN_THREAD, self.now, task);
    }

    /// Runs until no events remain or the step limit is hit.
    pub fn run_until_idle(&mut self) {
        while self.steps < self.cfg.step_limit {
            let Some(p) = self.events.pop() else { break };
            self.advance_to(p.time);
            self.handle(p.value);
            self.steps += 1;
        }
        self.publish_metrics();
    }

    /// Runs until the virtual clock reaches `deadline` (events after it stay
    /// queued) or the step limit is hit.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.steps < self.cfg.step_limit {
            match self.events.peek_time() {
                Some(t) if t <= deadline => {
                    let p = self.events.pop().expect("peeked event exists");
                    self.advance_to(p.time);
                    self.handle(p.value);
                    self.steps += 1;
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.publish_metrics();
    }

    fn publish_metrics(&mut self) {
        if let Some(m) = self.mediator.as_mut() {
            m.publish_metrics();
        }
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// The current virtual instant (event-loop view).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The instant as seen inside the currently running task, if any.
    #[must_use]
    pub fn current_instant(&self) -> SimTime {
        match &self.cur {
            Some(c) => c.start + c.cost,
            None => self.now,
        }
    }

    /// The raw hardware-clock reading scripts and mediators are shown:
    /// [`Browser::current_instant`], put through this shard's clock skew
    /// when the fault plan targets us. Scheduling always uses the true
    /// instant — skew perturbs what a clock *read* reports, never when
    /// events fire, exactly like a drifting TSC under a correct scheduler.
    #[must_use]
    pub fn raw_instant(&self) -> SimTime {
        let raw = self.current_instant();
        match &self.raw_skew {
            Some(skew) => skew.apply(raw),
            None => raw,
        }
    }

    /// The installed defense's name.
    #[must_use]
    pub fn defense_name(&self) -> String {
        self.mediator
            .as_ref()
            .map(|m| m.name().to_owned())
            .unwrap_or_default()
    }

    /// Downcast access to the installed mediator's post-run state, when the
    /// mediator exposes it (e.g. the kernel's statistics).
    ///
    /// # Examples
    ///
    /// ```ignore
    /// let kernel: &JsKernel = browser.mediator_as().expect("kernel installed");
    /// println!("{}", kernel.stats());
    /// ```
    #[must_use]
    pub fn mediator_as<T: 'static>(&self) -> Option<&T> {
        self.mediator
            .as_ref()
            .and_then(|m| m.as_any())
            .and_then(|a| a.downcast_ref::<T>())
    }

    /// The API/fact trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The trace serialized as pretty JSON — the exchange format for
    /// offline analysis and policy synthesis.
    #[must_use]
    pub fn trace_json(&self) -> String {
        serde_json::to_string_pretty(&self.trace).expect("traces are serializable")
    }

    /// Console output (`console.log` calls).
    #[must_use]
    pub fn console(&self) -> &[JsValue] {
        &self.console
    }

    /// Values recorded by scripts via `JsScope::record`.
    #[must_use]
    pub fn records(&self) -> &BTreeMap<String, JsValue> {
        &self.records
    }

    /// A recorded value by key.
    #[must_use]
    pub fn record_value(&self, key: &str) -> Option<&JsValue> {
        self.records.get(key)
    }

    /// Registers a network resource.
    pub fn register_resource(&mut self, url: impl Into<String>, spec: ResourceSpec) {
        self.net.register(url, spec);
    }

    /// Marks a URL visited in the browsing history (history-sniffing secret).
    pub fn mark_visited(&mut self, url: impl Into<String>) {
        self.dom.mark_visited(url);
    }

    /// Enables or disables `SharedArrayBuffer` for this browser instance
    /// (most evaluated browsers shipped with it disabled post-Spectre; the
    /// SAB-timer experiment turns it on).
    pub fn set_sab_enabled(&mut self, on: bool) {
        self.cfg.profile.sab_enabled = on;
    }

    /// Seeds (or flushes) the shared content cache (cache-attack secret).
    pub fn seed_content_cache(&mut self, key: impl Into<String>, present: bool) {
        let key = key.into();
        if present {
            self.content_cache.insert(key);
        } else {
            self.content_cache.flush(&key);
        }
    }

    /// The main document.
    #[must_use]
    pub fn dom(&self) -> &Dom {
        &self.dom
    }

    /// Number of simulation events processed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The engine profile in effect.
    #[must_use]
    pub fn profile(&self) -> &BrowserProfile {
        &self.cfg.profile
    }

    /// The instant a thread finishes its current/most recent task — the
    /// harness-side measure of consumed CPU time (independent of any clock
    /// defense, like measuring with a stopwatch next to the machine).
    #[must_use]
    pub fn thread_busy_until(&self, thread: ThreadId) -> SimTime {
        self.threads
            .get(thread.index() as usize)
            .map_or(SimTime::ZERO, |t| t.busy_until)
    }

    /// Number of live (user-visible) workers.
    #[must_use]
    pub fn live_worker_count(&self) -> usize {
        self.workers.iter().filter(|w| w.user_alive()).count()
    }

    // --- mediator plumbing --------------------------------------------------

    pub(crate) fn with_mediator<R>(
        &mut self,
        f: impl FnOnce(&mut dyn Mediator, &mut MediatorCtx<'_>) -> R,
    ) -> R {
        let mut m = self.mediator.take().expect("mediator hook reentrancy");
        let instant = self.current_instant();
        let node = self.hb_current_node();
        let (ops_buf, marks_buf) = self.med_scratch.take().unwrap_or_default();
        let (r, mut ops, marks) = {
            let mut ctx = MediatorCtx::recycled(instant, &mut self.rng_med, ops_buf, marks_buf);
            ctx.node = node;
            let r = f(m.as_mut(), &mut ctx);
            let (ops, marks) = ctx.into_parts();
            (r, ops, marks)
        };
        self.mediator = Some(m);
        for op in ops.drain(..) {
            self.apply_op(op);
        }
        self.med_scratch = Some((ops, marks));
        r
    }

    /// The HB node the current moment is attributed to: the running task,
    /// or a context carried in from outside (kernel-message delivery,
    /// synthetic teardown work). `None` when nothing JS-visible is running.
    pub(crate) fn hb_current_node(&self) -> Option<u64> {
        self.cur
            .as_ref()
            .map(|c| c.node)
            .or(self.hb_ctx_node)
            .or(self.hb_synth_node)
    }

    /// Records a shared-state access attributed to the current HB node;
    /// accesses with no attributable node (pure machinery) are not recorded.
    pub(crate) fn hb_access(
        &mut self,
        thread: ThreadId,
        target: AccessTarget,
        kind: AccessKind,
        what: &str,
    ) {
        let Some(node) = self.hb_current_node() else {
            return;
        };
        let t = self.current_instant();
        let what = self.trace.intern(what);
        self.trace.access(
            t,
            AccessRecord {
                node,
                thread,
                target,
                kind,
                what,
            },
        );
    }

    fn apply_op(&mut self, op: MediatorOp) {
        match op {
            MediatorOp::Release { token, at } => {
                if let Some(pe) = self.withheld.remove(&token) {
                    let at = at.max(self.now);
                    self.invoke_event(pe, at);
                }
            }
            MediatorOp::DropEvent { token } => {
                self.withheld.remove(&token);
            }
            MediatorOp::ScheduleTick { thread, at } => {
                self.events
                    .push(at.max(self.now), SimEvent::MediatorTick(thread));
            }
            MediatorOp::KernelSend {
                from,
                to,
                payload,
                at,
                sender_node,
            } => {
                self.events.push(
                    at.max(self.now),
                    SimEvent::KernelMessage {
                        from,
                        to,
                        payload,
                        sender_node,
                    },
                );
            }
            MediatorOp::OrderEdge { from, to, kind } => {
                let t = self.current_instant();
                self.trace.edge(t, HbEdge { from, to, kind });
            }
        }
    }

    pub(crate) fn intercept(&mut self, call: &ApiCall) -> ApiOutcome {
        let t = self.current_instant();
        self.trace.api(t, *call);
        let outcome = self.with_mediator(|m, ctx| m.on_api(ctx, call));
        if let ApiOutcome::Deny { reason } = &outcome {
            let t = self.current_instant();
            let what = call.describe(self.trace.strings());
            let what = self.trace.intern(&what);
            let reason = self.trace.intern(reason);
            self.trace.fact(t, Fact::Denied { what, reason });
        }
        outcome
    }

    pub(crate) fn fact(&mut self, fact: Fact) {
        let t = self.current_instant();
        if let Some(o) = self.obs.as_ref() {
            match &fact {
                Fact::FetchStarted { .. } => o.handle.counter_add(o.syms.fetches_started, 1),
                Fact::FetchSettled { .. } => o.handle.counter_add(o.syms.fetches_settled, 1),
                Fact::WorkerStarted { thread, .. } => {
                    o.handle.counter_add(o.syms.workers_started, 1);
                    o.handle.instant(o.syms.worker_started, thread.index(), t);
                }
                Fact::WorkerTerminated { .. } => {
                    o.handle.counter_add(o.syms.workers_terminated, 1);
                    o.handle
                        .instant(o.syms.worker_terminated, MAIN_THREAD.index(), t);
                }
                _ => {}
            }
        }
        self.trace.fact(t, fact);
    }

    // --- event machinery ----------------------------------------------------

    fn handle(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::Pump(tid) => self.pump(tid),
            SimEvent::RawTrigger(token) => self.raw_trigger(token),
            SimEvent::WorkerStart(wid) => self.worker_start(wid),
            SimEvent::WorkerTeardown(wid) => self.finish_worker_teardown(wid),
            SimEvent::MediatorTick(tid) => {
                self.with_mediator(|m, ctx| m.on_tick(ctx, tid));
            }
            SimEvent::KernelMessage {
                from,
                to,
                payload,
                sender_node,
            } => {
                // The receiving hook runs outside any task; attribute it (and
                // any replies it sends) to the original sender's node.
                self.hb_ctx_node = sender_node;
                self.with_mediator(|m, ctx| m.on_kernel_message(ctx, from, to, &payload));
                self.hb_ctx_node = None;
            }
            SimEvent::WorkerCrash(index) => self.crash_worker(index),
        }
    }

    /// Fault-plan worker crash: abrupt teardown, no defense interception —
    /// the process just died.
    fn crash_worker(&mut self, index: u64) {
        let i = index as usize;
        if i >= self.workers.len() || self.workers[i].state == WorkerState::Closed {
            return;
        }
        let wid = self.workers[i].id;
        self.do_terminate(wid, TerminationReason::Crash, false);
        if let Some(inj) = self.fault.as_mut() {
            inj.note_worker_crashed();
        }
        if let Some(o) = self.obs.as_ref() {
            o.handle.counter_add(o.syms.worker_crashes, 1);
        }
    }

    pub(crate) fn fresh_token(&mut self) -> EventToken {
        let t = EventToken::new(self.next_token);
        self.next_token += 1;
        t
    }

    /// Registers an asynchronous event and schedules its raw trigger.
    pub(crate) fn register_async(&mut self, reg: AsyncReg) -> EventToken {
        let AsyncReg {
            thread,
            kind,
            source,
            callback,
            arg,
            raw_fire_at,
            from_worker,
            polyfill_worker,
            nesting,
            forked_from,
        } = reg;
        // The registering task is the callback task's HB ancestor (the
        // timer-arm→fire / send→deliver fork edge), unless the caller
        // explicitly pinned a different ancestor (interval re-arms).
        let forked_from = forked_from.unwrap_or_else(|| self.hb_current_node());
        let token = self.fresh_token();
        let info = AsyncEventInfo {
            token,
            thread,
            kind,
            registered_at: self.current_instant(),
            doc_generation: self.threads[thread.index() as usize].doc_generation,
            context: self.cur.as_ref().map_or(0, |c| c.context),
        };
        self.with_mediator(|m, ctx| m.on_register(ctx, &info));
        // Confirmation faults: a dropped confirmation leaves the event
        // registered but never triggers it (the kernel sees a Pending event
        // that never confirms — the watchdog's livelock case); a delayed one
        // pushes the raw trigger out.
        let fate = match self.fault.as_mut() {
            Some(inj) => inj.confirm_fate(),
            None => ConfirmFate::Deliver,
        };
        if let Some(o) = self.obs.as_ref() {
            match &fate {
                ConfirmFate::Drop => o.handle.counter_add(o.syms.confirm_dropped, 1),
                ConfirmFate::Delay(_) => o.handle.counter_add(o.syms.confirm_delayed, 1),
                ConfirmFate::Deliver => {}
            }
        }
        let raw_key = match fate {
            ConfirmFate::Drop => None,
            ConfirmFate::Deliver => Some(
                self.events
                    .push(raw_fire_at.max(self.now), SimEvent::RawTrigger(token)),
            ),
            ConfirmFate::Delay(d) => Some(
                self.events
                    .push(raw_fire_at.max(self.now) + d, SimEvent::RawTrigger(token)),
            ),
        };
        self.pending.insert(
            token,
            PendingEvent {
                info,
                callback,
                arg,
                source,
                raw_key,
                from_worker,
                polyfill_worker,
                nesting,
                context: info.context,
                forked_from,
            },
        );
        token
    }

    /// Cancels a registered (or withheld) event; notifies the mediator.
    pub(crate) fn cancel_event(&mut self, token: EventToken) -> bool {
        let mut found = false;
        if let Some(pe) = self.pending.remove(&token) {
            if let Some(k) = pe.raw_key {
                self.events.cancel(k);
            }
            found = true;
        }
        if self.withheld.remove(&token).is_some() {
            found = true;
        }
        if found {
            self.with_mediator(|m, ctx| m.on_cancel(ctx, token));
        }
        found
    }

    fn raw_trigger(&mut self, token: EventToken) {
        let Some(mut pe) = self.pending.remove(&token) else {
            return; // cancelled
        };
        pe.raw_key = None;
        // Repeating registrations (intervals, media, CSS ticks) re-arm before
        // the current firing is even confirmed, like the real event loop.
        self.maybe_rearm(token, pe.forked_from);
        let raw_fire = self.now;

        // Batched confirmation drain: raw triggers that share this exact
        // virtual instant are settled through one mediator call instead of
        // one per event. Only *non-periodic* followers may join the batch —
        // a periodic firing re-arms (a fresh registration) between confirms
        // on the sequential path, which does not commute with the confirms
        // before it. Each extra pop consumes a step exactly as the run loop
        // would have (the loop adds the final +1 for the original event).
        let mut items = std::mem::take(&mut self.batch_items);
        let mut pes = std::mem::take(&mut self.batch_pes);
        items.clear();
        pes.clear();
        items.push((pe.info, raw_fire));
        pes.push(pe);
        loop {
            if self.steps + 1 >= self.cfg.step_limit {
                break;
            }
            let tok = match self.events.peek() {
                Some((t, SimEvent::RawTrigger(tok))) if t == self.now => *tok,
                _ => break,
            };
            if self.is_periodic_firing(tok) {
                break;
            }
            self.events.pop();
            self.steps += 1;
            let Some(mut pe) = self.pending.remove(&tok) else {
                continue; // cancelled follower: consumed, like the run loop
            };
            pe.raw_key = None;
            items.push((pe.info, raw_fire));
            pes.push(pe);
        }
        if items.len() == 1 {
            let info = items[0].0;
            let pe = pes.pop().expect("one batched event");
            let decision = self.with_mediator(|m, ctx| m.on_confirm(ctx, &info, raw_fire));
            self.settle_confirmed(pe, decision);
        } else {
            self.confirm_batched(&items, &mut pes);
        }
        items.clear();
        pes.clear();
        self.batch_items = items;
        self.batch_pes = pes;
    }

    /// Whether `token` is the current firing of a live periodic timer
    /// (interval / media / CSS tick) — i.e. confirming it would re-arm.
    fn is_periodic_firing(&self, token: EventToken) -> bool {
        self.timers
            .iter()
            .any(|t| t.current_token == token && !t.cancelled && t.period.is_some())
    }

    /// Applies one confirmation decision to its pending event, exactly as
    /// the tail of the sequential `raw_trigger` did.
    fn settle_confirmed(&mut self, pe: PendingEvent, decision: ConfirmDecision) {
        match decision {
            ConfirmDecision::InvokeAt(t) => {
                let at = t.max(self.now);
                self.invoke_event(pe, at);
            }
            ConfirmDecision::Withhold => {
                self.withheld.insert(pe.info.token, pe);
            }
            ConfirmDecision::Drop => {
                // The mediator already wrote this event off (e.g. the
                // watchdog expired it); a late confirmation is discarded.
            }
        }
    }

    /// Settles a same-instant batch of confirmations through one mediator
    /// call. The mediator records a mark after each item; ops are applied
    /// interleaved with the per-item decisions so the observable sequence
    /// (ops_0, decision_0, ops_1, decision_1, …) is byte-identical to the
    /// sequential path.
    fn confirm_batched(
        &mut self,
        items: &[(AsyncEventInfo, SimTime)],
        pes: &mut Vec<PendingEvent>,
    ) {
        let mut m = self.mediator.take().expect("mediator hook reentrancy");
        let instant = self.current_instant();
        let node = self.hb_current_node();
        let (ops_buf, marks_buf) = self.med_scratch.take().unwrap_or_default();
        let mut decisions = std::mem::take(&mut self.batch_decisions);
        decisions.clear();
        let (mut ops, mut marks) = {
            let mut ctx = MediatorCtx::recycled(instant, &mut self.rng_med, ops_buf, marks_buf);
            ctx.node = node;
            m.confirm_batch(&mut ctx, items, &mut decisions);
            ctx.into_parts()
        };
        self.mediator = Some(m);
        debug_assert_eq!(decisions.len(), items.len(), "one decision per item");
        debug_assert_eq!(marks.len(), items.len(), "one mark per item");
        let mut op_stream = ops.drain(..);
        let mut applied: usize = 0;
        for (i, pe) in pes.drain(..).enumerate() {
            let mark = marks.get(i).copied().unwrap_or(u32::MAX) as usize;
            while applied < mark {
                match op_stream.next() {
                    Some(op) => {
                        applied += 1;
                        self.apply_op(op);
                    }
                    None => break,
                }
            }
            self.settle_confirmed(pe, decisions[i]);
        }
        for op in op_stream {
            self.apply_op(op);
        }
        marks.clear();
        self.med_scratch = Some((ops, marks));
        decisions.clear();
        self.batch_decisions = decisions;
    }

    fn invoke_event(&mut self, pe: PendingEvent, at: SimTime) {
        let task = Task {
            callback: pe.callback,
            arg: pe.arg,
            source: pe.source,
            token: Some(pe.info.token),
            nesting: pe.nesting,
            from_worker: pe.from_worker,
            polyfill_worker: pe.polyfill_worker,
            sandboxed: false,
            epoch: 0, // overwritten by enqueue_task
            context: pe.context,
            forked_from: pe.forked_from,
        };
        self.enqueue_task(pe.info.thread, at, task);
    }

    fn maybe_rearm(&mut self, fired: EventToken, forked_from: Option<u64>) {
        let Some(idx) = self
            .timers
            .iter()
            .position(|t| t.current_token == fired && !t.cancelled && t.period.is_some())
        else {
            return;
        };
        let (thread, period, nesting, poly, is_media, is_css, callback) = {
            let t = &self.timers[idx];
            (
                t.thread,
                t.period.expect("checked above"),
                t.nesting,
                t.polyfill_worker,
                t.kind_is_media,
                t.kind_is_css,
                t.callback.clone(),
            )
        };
        if !self.threads[thread.index() as usize].alive {
            return;
        }
        let kind = if is_media {
            AsyncKind::Media
        } else if is_css {
            AsyncKind::CssTick
        } else {
            AsyncKind::Interval { delay: period }
        };
        let source = if is_media {
            TaskSource::Media
        } else if is_css {
            TaskSource::CssAnimation
        } else {
            TaskSource::Timer
        };
        // Anchored firing: the n-th firing targets `anchor + n·period`, with
        // bounded per-firing jitter that never accumulates.
        self.timers[idx].fires += 1;
        let n = self.timers[idx].fires;
        let anchor = self.timers[idx].anchor;
        let jitter = self
            .rng_sched
            .jitter(period, self.cfg.profile.sched.timer_jitter)
            .saturating_sub(period);
        let target = (anchor + period * n + jitter).max(self.now);
        // Re-arms happen outside any task; every firing keeps the node that
        // armed the timer as its HB ancestor.
        let token = self.register_async(
            AsyncReg::new(thread, kind, source, callback, JsValue::Undefined, target)
                .in_polyfill(poly)
                .nesting(nesting)
                .forked(forked_from),
        );
        self.timers[idx].current_token = token;
    }

    pub(crate) fn enqueue_task(&mut self, thread: ThreadId, at: SimTime, mut task: Task) {
        let i = thread.index() as usize;
        if i >= self.threads.len() || !self.threads[i].alive {
            return;
        }
        task.epoch = self.thread_epochs[i];
        if task.source == TaskSource::Message && task.from_worker.is_some() {
            self.threads[i].queued_worker_messages += 1;
        }
        self.threads[i].enqueue(at.max(self.now), task);
        self.schedule_pump(thread, at.max(self.now));
    }

    fn schedule_pump(&mut self, thread: ThreadId, at: SimTime) {
        let i = thread.index() as usize;
        let at = at.max(self.now).max(self.threads[i].busy_until);
        if let Some(existing) = self.threads[i].next_pump_at {
            if existing <= at {
                return;
            }
        }
        self.threads[i].next_pump_at = Some(at);
        self.events.push(at, SimEvent::Pump(thread));
    }

    fn pump(&mut self, thread: ThreadId) {
        let i = thread.index() as usize;
        if i >= self.threads.len() || !self.threads[i].alive {
            return;
        }
        if self.threads[i].next_pump_at == Some(self.now) {
            self.threads[i].next_pump_at = None;
        }
        let Some(ready) = self.threads[i].run_queue.peek_time() else {
            return;
        };
        let start = ready.max(self.threads[i].busy_until).max(self.now);
        if start > self.now {
            self.schedule_pump(thread, start);
            return;
        }
        let task = self.threads[i]
            .run_queue
            .pop()
            .expect("peeked task exists")
            .value;
        if task.source == TaskSource::Message && task.from_worker.is_some() {
            self.threads[i].queued_worker_messages =
                self.threads[i].queued_worker_messages.saturating_sub(1);
        }
        if task.epoch < self.thread_epochs[i] {
            // Cleanly cancelled by a defense (doc-bound cancellation). The
            // mediator still learns the slot was consumed, so serialized
            // dispatchers do not wait for a task that will never run.
            let token = task.token;
            let context = task.context;
            self.with_mediator(|m, ctx| m.on_task_dispatched(ctx, thread, token, context));
            self.schedule_next_pump(thread);
            return;
        }
        self.run_task(thread, task);
        self.schedule_next_pump(thread);
    }

    fn schedule_next_pump(&mut self, thread: ThreadId) {
        let i = thread.index() as usize;
        if !self.threads[i].alive {
            return;
        }
        if let Some(next) = self.threads[i].run_queue.peek_time() {
            let at = next.max(self.threads[i].busy_until);
            self.schedule_pump(thread, at);
        }
    }

    fn run_task(&mut self, thread: ThreadId, task: Task) {
        let i = thread.index() as usize;
        let start = self.now;
        let task_context = task.context;
        // Every dispatched task is one HB node; its fork ancestor is the
        // task that registered the callback / sent the message.
        let node = self.next_node;
        self.next_node += 1;
        let label = self.trace.intern(source_label(task.source));
        self.trace.node(
            self.now,
            NodeRecord {
                node,
                thread,
                forked_from: task.forked_from,
                label,
            },
        );
        // The dispatch hook sees the new node (kernels chain consecutive
        // dispatches into DispatchChain edges off it).
        self.hb_ctx_node = Some(node);
        self.with_mediator(|m, ctx| m.on_task_dispatched(ctx, thread, task.token, task_context));
        // Delivering a message or a network completion reads the target
        // document's state — the access that races with navigation/close.
        if matches!(task.source, TaskSource::Message | TaskSource::Net) {
            self.hb_access(
                thread,
                AccessTarget::Document { thread },
                AccessKind::Read,
                "deliver-into-document",
            );
        }
        self.hb_ctx_node = None;
        self.cur = Some(CurTask {
            thread,
            start,
            cost: SimDuration::ZERO,
            source: task.source,
            timer_nesting: task.nesting,
            from_worker: task.from_worker,
            polyfill_worker: task.polyfill_worker,
            sandboxed: task.sandboxed,
            context: task.context,
            node,
            sab_seen: HashMap::new(),
        });
        // The task span: its width is the task's simulated cost — the
        // quantity the event-loop-occupancy attacks (Loophole) measure.
        let obs_task = self.obs.as_ref().map(|o| {
            o.handle.span_enter(o.syms.task, thread.index(), start);
            (o.handle.clone(), o.syms.task, o.syms.tasks)
        });
        let cb = task.callback.clone();
        {
            let mut scope = JsScope::new(self, thread);
            cb(&mut scope, task.arg);
        }
        let cur = self.cur.take().expect("current task context");
        if let Some((h, task_sym, tasks_sym)) = obs_task {
            h.span_exit(task_sym, thread.index(), start + cur.cost);
            h.counter_add(tasks_sym, 1);
        }
        let overhead = self.cfg.profile.sched.dispatch_overhead;
        if i < self.threads.len() && self.threads[i].alive {
            self.threads[i].busy_until = start + overhead + cur.cost;
        }
    }

    // --- timers ---------------------------------------------------------------

    pub(crate) fn set_timer(
        &mut self,
        thread: ThreadId,
        delay_ms: f64,
        callback: Callback,
        repeating: bool,
        media: bool,
        css: bool,
    ) -> TimerId {
        let p = &self.cfg.profile.sched;
        let nesting = self.cur.as_ref().map_or(0, |c| {
            if c.source == TaskSource::Timer {
                c.timer_nesting + 1
            } else {
                0
            }
        });
        let clamp = if nesting > p.nesting_threshold || repeating {
            p.timer_nested_clamp
        } else {
            p.timer_min_clamp
        };
        let requested = SimDuration::from_millis_f64(delay_ms);
        let delay = if requested < clamp { clamp } else { requested };
        let jittered = self.rng_sched.jitter(delay, p.timer_jitter);
        let (kind, source) = if media {
            (AsyncKind::Media, TaskSource::Media)
        } else if css {
            (AsyncKind::CssTick, TaskSource::CssAnimation)
        } else if repeating {
            (AsyncKind::Interval { delay }, TaskSource::Timer)
        } else {
            (AsyncKind::Timeout { delay, nesting }, TaskSource::Timer)
        };
        let poly = self.cur.as_ref().and_then(|c| c.polyfill_worker);
        let fire_at = self.current_instant() + jittered;
        let token = self.register_async(
            AsyncReg::new(
                thread,
                kind,
                source,
                callback.clone(),
                JsValue::Undefined,
                fire_at,
            )
            .in_polyfill(poly)
            .nesting(nesting),
        );
        let id = TimerId::new(self.timers.len() as u64);
        self.timers.push(TimerRecord {
            thread,
            callback,
            period: repeating.then_some(delay),
            kind_is_media: media,
            kind_is_css: css,
            current_token: token,
            cancelled: false,
            nesting,
            polyfill_worker: poly,
            anchor: fire_at,
            fires: 0,
        });
        id
    }

    pub(crate) fn clear_timer(&mut self, id: TimerId) {
        let i = id.index() as usize;
        if i >= self.timers.len() || self.timers[i].cancelled {
            return;
        }
        self.timers[i].cancelled = true;
        let token = self.timers[i].current_token;
        // Paper §III-D2: cancelling an already-invoked event is ignored.
        self.cancel_event(token);
    }

    // --- requestAnimationFrame --------------------------------------------------

    pub(crate) fn request_raf(
        &mut self,
        thread: ThreadId,
        callback: Callback,
    ) -> crate::ids::RafId {
        let vsync = self.cfg.profile.sched.vsync;
        let instant = self.current_instant();
        let mut fire = instant.quantize_up(vsync);
        if fire <= instant {
            fire += vsync;
        }
        let poly = self.cur.as_ref().and_then(|c| c.polyfill_worker);
        let token = self.register_async(
            AsyncReg::new(
                thread,
                AsyncKind::Raf,
                TaskSource::Animation,
                callback,
                JsValue::Undefined,
                fire,
            )
            .in_polyfill(poly),
        );
        let id = crate::ids::RafId::new(self.next_raf);
        self.next_raf += 1;
        self.raf_tokens.insert(id.index(), token);
        id
    }

    pub(crate) fn cancel_raf(&mut self, id: crate::ids::RafId) {
        if let Some(token) = self.raf_tokens.remove(&id.index()) {
            self.cancel_event(token);
        }
    }

    // --- workers ------------------------------------------------------------------

    pub(crate) fn create_worker_impl(&mut self, src: String, script: WorkerScript) -> WorkerId {
        let parent = self.cur.as_ref().map_or(MAIN_THREAD, |c| c.thread);
        let sandboxed = self.cur.as_ref().is_some_and(|c| c.sandboxed);
        let wid = WorkerId::new(self.workers.len() as u64);
        let src_sym = self.trace.intern(&src);
        let outcome = self.intercept(&ApiCall::CreateWorker {
            parent,
            worker: wid,
            src: src_sym,
            sandboxed,
        });
        let created_gen = self.threads[parent.index() as usize].doc_generation;
        let parent_origin = self.threads[parent.index() as usize].origin.clone();
        let spec = self.net.lookup(&src);
        let cross = crate::net::is_cross_origin(&self.cfg.origin, &src) && src.contains("://");

        let (thread, polyfill, origin_kind) = match &outcome {
            ApiOutcome::Deny { .. } => {
                // Record a dead worker so the returned handle is inert.
                self.workers.push(WorkerRecord {
                    id: wid,
                    thread: parent,
                    owner: parent,
                    state: WorkerState::Closed,
                    src,
                    polyfill: false,
                    user_terminated: true,
                    transferred_out: Vec::new(),
                    pending_fetches: std::collections::HashSet::new(),
                    created_gen,
                    poly_onmessage: None,
                    owner_onmessage: None,
                    owner_onerror: None,
                    onerror_set: false,
                    created_by_node: None,
                    closed_by_node: None,
                });
                return wid;
            }
            ApiOutcome::PolyfillWorker => (parent, true, OriginKind::Normal),
            ApiOutcome::OpaqueOrigin => {
                let tid = self.spawn_thread(parent, wid, parent_origin);
                (tid, false, OriginKind::Opaque)
            }
            _ => {
                let tid = self.spawn_thread(parent, wid, parent_origin);
                // Native bug (CVE-2011-1190): workers created from sandboxed
                // contexts inherit the parent origin.
                let kind = if sandboxed {
                    OriginKind::InheritedFromSandbox
                } else {
                    OriginKind::Normal
                };
                (tid, false, kind)
            }
        };
        if !polyfill {
            let i = thread.index() as usize;
            self.threads[i].origin_kind = origin_kind;
        }
        self.workers.push(WorkerRecord {
            id: wid,
            thread,
            owner: parent,
            state: WorkerState::Started,
            src: src.clone(),
            polyfill,
            user_terminated: false,
            transferred_out: Vec::new(),
            pending_fetches: std::collections::HashSet::new(),
            created_gen,
            poly_onmessage: None,
            owner_onmessage: None,
            owner_onerror: None,
            onerror_set: false,
            created_by_node: self.hb_current_node(),
            closed_by_node: None,
        });
        self.hb_access(
            parent,
            AccessTarget::WorkerLifecycle { worker: wid },
            AccessKind::Write,
            "create-worker",
        );
        self.fact(Fact::WorkerStarted {
            worker: wid,
            thread,
            parent,
            sandboxed_parent: sandboxed,
            inherited_origin: origin_kind == OriginKind::InheritedFromSandbox
                || (!sandboxed && origin_kind == OriginKind::Normal),
        });

        if !spec.exists {
            // Worker creation failure: the native error message leaks the
            // script URL and a content hint (CVE-2014-1487).
            let message = format!("NetworkError: failed to load worker script {src} (response preview: <secret-bytes>)");
            self.deliver_error_to_owner(wid, message, cross);
            let widx = wid.index() as usize;
            self.workers[widx].state = WorkerState::Closed;
            return wid;
        }

        let spawn = self
            .rng_sched
            .jitter(self.cfg.profile.sched.worker_spawn, 0.1);
        let start_at = self.current_instant() + spawn;
        self.events.push(start_at, SimEvent::WorkerStart(wid));
        // Stash the script to run at start.
        self.worker_scripts.insert(wid, script);
        wid
    }

    fn spawn_thread(&mut self, owner: ThreadId, worker: WorkerId, origin: String) -> ThreadId {
        let tid = ThreadId::new(self.threads.len() as u64);
        self.threads.push(ThreadState::new(
            tid,
            ThreadKind::Worker { owner, worker },
            origin,
        ));
        self.thread_epochs.push(0);
        self.with_mediator(|m, ctx| m.on_thread_started(ctx, tid, true));
        tid
    }

    fn worker_start(&mut self, wid: WorkerId) {
        let i = wid.index() as usize;
        if self.workers[i].state != WorkerState::Started {
            return;
        }
        let Some(script) = self.worker_scripts.remove(&wid) else {
            return;
        };
        let thread = self.workers[i].thread;
        let polyfill = self.workers[i].polyfill;
        let created_by = self.workers[i].created_by_node;
        let task = Task {
            callback: std::rc::Rc::new(move |scope: &mut JsScope<'_>, _| {
                script(scope);
                scope.finish_worker_start();
            }),
            arg: JsValue::Undefined,
            source: TaskSource::Script,
            token: None,
            nesting: 0,
            from_worker: None,
            polyfill_worker: polyfill.then_some(wid),
            sandboxed: false,
            epoch: 0,
            context: 0,
            // create→first-run: the worker's top-level script is ordered
            // after the task that constructed the Worker.
            forked_from: created_by,
        };
        self.enqueue_task(thread, self.now, task);
    }

    pub(crate) fn worker_became_ready(&mut self, wid: WorkerId) {
        let i = wid.index() as usize;
        if self.workers[i].state == WorkerState::Started {
            self.workers[i].state = WorkerState::Ready;
        }
        let thread = self.workers[i].thread;
        let ti = thread.index() as usize;
        if !self.workers[i].polyfill {
            self.threads[ti].ready = true;
            let buffered: Vec<JsValue> = std::mem::take(&mut self.threads[ti].startup_buffer);
            for v in buffered {
                self.deliver_message_task(thread, None, v, self.now);
            }
        }
    }

    /// Enqueues the message-dispatch task for a delivery that already passed
    /// registration/confirmation (startup-buffer flush path).
    fn deliver_message_task(
        &mut self,
        thread: ThreadId,
        from_worker: Option<WorkerId>,
        value: JsValue,
        at: SimTime,
    ) {
        let task = Task {
            callback: std::rc::Rc::new(move |scope: &mut JsScope<'_>, v| {
                scope.dispatch_incoming_message(v);
            }),
            arg: value,
            source: TaskSource::Message,
            token: None,
            nesting: 0,
            from_worker,
            polyfill_worker: None,
            sandboxed: false,
            epoch: 0,
            context: 0,
            // Flushed after the worker-ready task, which itself is ordered
            // after the buffering delivery — transitively after the send.
            forked_from: self.hb_current_node(),
        };
        self.enqueue_task(thread, at, task);
    }

    pub(crate) fn terminate_worker_impl(&mut self, wid: WorkerId, reason: TerminationReason) {
        let i = wid.index() as usize;
        if i >= self.workers.len() || self.workers[i].state == WorkerState::Closed {
            return;
        }
        let during_dispatch = self
            .cur
            .as_ref()
            .is_some_and(|c| c.thread == self.workers[i].owner && c.from_worker == Some(wid));
        let live_transfers = self.workers[i]
            .transferred_out
            .iter()
            .filter(|b| !self.buffers[b.index() as usize].freed)
            .count();
        let pending_fetches = self.workers[i].pending_fetches.len();
        let outcome = self.intercept(&ApiCall::TerminateWorker {
            worker: wid,
            reason,
            during_dispatch,
            live_transfers,
            pending_fetches,
        });
        match outcome {
            ApiOutcome::Deny { .. } => {}
            ApiOutcome::DeferTermination => {
                self.workers[i].user_terminated = true;
                self.workers[i].state = WorkerState::Closing;
                self.fact(Fact::WorkerTerminated {
                    worker: wid,
                    reason,
                    during_dispatch: false,
                    freed_transfers: 0,
                    user_level_only: true,
                });
            }
            _ => {
                if reason == TerminationReason::SelfClose && !self.workers[i].polyfill {
                    // The native engine tears a self-closed worker down
                    // asynchronously: it sits in the "closing" state for a
                    // short window (the CVE-2013-5602 null-deref window).
                    self.workers[i].state = WorkerState::Closing;
                    self.workers[i].closed_by_node = self.hb_current_node();
                    let at = self.current_instant() + SimDuration::from_millis(5);
                    self.events.push(at, SimEvent::WorkerTeardown(wid));
                } else {
                    self.do_terminate(wid, reason, during_dispatch);
                }
            }
        }
    }

    pub(crate) fn do_terminate(
        &mut self,
        wid: WorkerId,
        reason: TerminationReason,
        during_dispatch: bool,
    ) {
        let i = wid.index() as usize;
        if self.workers[i].state == WorkerState::Closed {
            return;
        }
        self.workers[i].state = WorkerState::Closed;
        let thread = self.workers[i].thread;
        let owner = self.workers[i].owner;
        let polyfill = self.workers[i].polyfill;
        if !polyfill {
            let ti = thread.index() as usize;
            self.threads[ti].kill();
            self.thread_epochs[ti] += 1;
        }
        self.hb_access(
            owner,
            AccessTarget::WorkerLifecycle { worker: wid },
            AccessKind::Write,
            "terminate-worker",
        );
        // Native bug (CVE-2014-1488): buffers this worker transferred out are
        // backed by its allocator and get freed with it.
        let transfers: Vec<BufferId> = self.workers[i].transferred_out.clone();
        let mut freed = 0;
        if !polyfill {
            for b in transfers {
                let bi = b.index() as usize;
                if !self.buffers[bi].freed {
                    self.buffers[bi].freed = true;
                    freed += 1;
                    self.hb_access(
                        owner,
                        AccessTarget::Buffer { buffer: b },
                        AccessKind::Write,
                        "free-transferred-buffer",
                    );
                    self.fact(Fact::TransferFreed { buffer: b });
                }
            }
        }
        // Pending fetches dangle: their owner is gone but the requests (and
        // any abort signals) stay live — the CVE-2018-5092 precondition.
        let fetches: Vec<RequestId> = self.workers[i].pending_fetches.iter().copied().collect();
        for r in fetches {
            let ri = r.index() as usize;
            if self.requests[ri].state == RequestState::Pending {
                self.requests[ri].owner_alive = false;
            }
        }
        self.fact(Fact::WorkerTerminated {
            worker: wid,
            reason,
            during_dispatch,
            freed_transfers: freed,
            user_level_only: false,
        });
        if during_dispatch && !polyfill {
            self.fact(Fact::DispatchUseAfterFree { worker: wid });
        }
        if !polyfill {
            // The thread is gone for good: let the mediator reap whatever it
            // still holds for it (orphaned kernel events, inflight slots).
            self.with_mediator(|m, ctx| m.on_thread_exited(ctx, thread));
        }
    }

    fn finish_worker_teardown(&mut self, wid: WorkerId) {
        let i = wid.index() as usize;
        if self.workers[i].state != WorkerState::Closed {
            // Asynchronous teardown runs outside any task: give it a
            // synthetic HB node forked from the task that initiated it, so
            // the frees it performs are ordered after the close but remain
            // concurrent with everything else — the use-after-termination
            // window the race detector must see.
            let node = self.next_node;
            self.next_node += 1;
            let thread = self.workers[i].thread;
            let label = self.trace.intern("worker-teardown");
            self.trace.node(
                self.now,
                NodeRecord {
                    node,
                    thread,
                    forked_from: self.workers[i].closed_by_node,
                    label,
                },
            );
            self.hb_synth_node = Some(node);
            self.do_terminate(wid, TerminationReason::DocumentTeardown, false);
            self.hb_synth_node = None;
        }
    }

    fn deliver_error_to_owner(&mut self, wid: WorkerId, message: String, cross_origin: bool) {
        let owner = self
            .workers
            .get(wid.index() as usize)
            .map_or(MAIN_THREAD, |w| w.owner);
        self.deliver_error_event(
            owner,
            Some(wid),
            crate::trace::ErrorSource::WorkerCreation,
            message,
            cross_origin,
        );
    }

    /// Routes an error message through the mediator (which may sanitize it)
    /// and delivers it as a task to the worker object's `onerror` (when
    /// `via_worker` is set) or the thread's own `onerror`.
    pub(crate) fn deliver_error_event(
        &mut self,
        thread: ThreadId,
        via_worker: Option<WorkerId>,
        source: crate::trace::ErrorSource,
        native_message: String,
        leaks_cross_origin: bool,
    ) {
        let native_sym = self.trace.intern(&native_message);
        let outcome = self.intercept(&ApiCall::ErrorEvent {
            thread,
            message: native_sym,
            leaks_cross_origin,
        });
        let (message, leaked) = match outcome {
            ApiOutcome::SanitizeError { replacement } => (replacement, false),
            ApiOutcome::Deny { .. } => return,
            _ => (native_message, leaks_cross_origin),
        };
        let latency = self.rng_sched.jitter(
            self.cfg.profile.sched.message_latency,
            self.cfg.profile.sched.message_jitter,
        );
        // The callback records the delivered text by symbol: `Sym` is
        // `Copy`, so repeated deliveries no longer clone the message.
        let msg_sym = self.trace.intern(&message);
        let token = self.register_async(AsyncReg::new(
            thread,
            AsyncKind::Net {
                req: RequestId::new(u64::MAX),
                class: crate::event::NetClass::ScriptLoad,
                cached: false,
            },
            TaskSource::Net,
            std::rc::Rc::new(move |scope: &mut JsScope<'_>, arg| {
                scope.browser.fact(Fact::ErrorMessageDelivered {
                    thread: scope.thread(),
                    source,
                    message: msg_sym,
                    leaked_cross_origin: leaked,
                });
                scope.dispatch_error_for(via_worker, arg);
            }),
            JsValue::from(message),
            self.current_instant() + latency,
        ));
        let _ = token;
    }

    // --- buffers / signals / SAB -----------------------------------------------

    pub(crate) fn create_buffer(&mut self, owner: ThreadId, len: usize) -> BufferId {
        let id = BufferId::new(self.buffers.len() as u64);
        self.buffers.push(BufferRecord {
            id,
            owner,
            len,
            freed: false,
            backed_by_worker: None,
        });
        id
    }

    pub(crate) fn create_signal(&mut self) -> SignalId {
        let id = SignalId::new(self.signals.len() as u64);
        self.signals.push(SignalRecord::default());
        id
    }

    pub(crate) fn create_sab(&mut self, len: usize) -> Option<SabId> {
        if !self.cfg.profile.sab_enabled {
            return None;
        }
        if !self.with_mediator(|m, _| m.allow_sab()) {
            return None;
        }
        let id = SabId::new(self.sabs.len() as u64);
        self.sabs.push(SharedBuffer {
            cells: vec![0.0; len],
        });
        Some(id)
    }

    pub(crate) fn sab_cell(&mut self, id: SabId, idx: usize) -> Option<&mut f64> {
        self.sabs
            .get_mut(id.index() as usize)
            .and_then(|s| s.cells.get_mut(idx))
    }

    /// Starts a continuous increment process on a SAB cell (a counting
    /// worker's tight loop, modelled analytically).
    pub(crate) fn sab_start_counter(&mut self, id: SabId, idx: usize, period: SimDuration) {
        let start = self.current_instant();
        self.sab_counters.insert(
            (id.index(), idx),
            (start, period.max(SimDuration::from_nanos(1))),
        );
    }

    /// The cell's value at the current virtual instant, counters included.
    pub(crate) fn sab_value_now(&mut self, id: SabId, idx: usize) -> Option<f64> {
        let now = self.current_instant();
        let base = *self.sab_cell(id, idx)?;
        let extra = match self.sab_counters.get(&(id.index(), idx)) {
            Some(&(start, period)) => {
                (now.saturating_duration_since(start).as_nanos() / period.as_nanos()) as f64
            }
            None => 0.0,
        };
        Some(base + extra)
    }

    // --- document teardown -------------------------------------------------------

    pub(crate) fn navigate_impl(&mut self, thread: ThreadId) {
        let outcome = self.intercept(&ApiCall::Navigate { thread });
        let clean = matches!(outcome, ApiOutcome::CancelDocBound);
        let ti = thread.index() as usize;
        if clean {
            self.cancel_doc_bound(thread);
        }
        // Bump the generation and reset the tree either way.
        self.threads[ti].doc_generation += 1;
        self.dom.navigate();
        self.hb_access(
            thread,
            AccessTarget::Document { thread },
            AccessKind::Write,
            "navigate",
        );
        // Workers owned by this document tear down.
        let owned: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|w| w.owner == thread && w.state != WorkerState::Closed)
            .map(|w| w.id)
            .collect();
        for w in owned {
            if clean {
                // Defense path: settle the worker's fetches without dangling
                // aborts, then close it at the user level only.
                self.settle_worker_fetches(w);
                let wi = w.index() as usize;
                self.workers[wi].user_terminated = true;
                self.workers[wi].state = WorkerState::Closing;
                self.fact(Fact::WorkerTerminated {
                    worker: w,
                    reason: TerminationReason::DocumentTeardown,
                    during_dispatch: false,
                    freed_transfers: 0,
                    user_level_only: true,
                });
            } else {
                // Native path: teardown is asynchronous, leaving a window in
                // which the worker can still post to the freed document.
                self.workers[w.index() as usize].closed_by_node = self.hb_current_node();
                let teardown_at = self.now + SimDuration::from_millis(10);
                self.events.push(teardown_at, SimEvent::WorkerTeardown(w));
            }
        }
    }

    pub(crate) fn close_document_impl(&mut self, thread: ThreadId) {
        let ti = thread.index() as usize;
        let pending_msgs = self.threads[ti].queued_worker_messages;
        let outcome = self.intercept(&ApiCall::CloseDocument {
            thread,
            pending_worker_messages: pending_msgs,
        });
        let clean = matches!(outcome, ApiOutcome::CancelDocBound);
        self.hb_access(
            thread,
            AccessTarget::Document { thread },
            AccessKind::Write,
            "close-document",
        );
        if clean {
            self.cancel_doc_bound(thread);
            let owned: Vec<WorkerId> = self
                .workers
                .iter()
                .filter(|w| w.owner == thread && w.state != WorkerState::Closed)
                .map(|w| w.id)
                .collect();
            for w in owned {
                self.settle_worker_fetches(w);
                let wi = w.index() as usize;
                self.workers[wi].user_terminated = true;
                self.workers[wi].state = WorkerState::Closing;
            }
            self.threads[ti].closing = true;
            return;
        }
        // Native path, in the buggy order of Listing 2's trigger:
        // 1. false-terminate workers, leaving their fetches dangling;
        let owned: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|w| w.owner == thread && w.state != WorkerState::Closed)
            .map(|w| w.id)
            .collect();
        for w in owned {
            self.do_terminate(w, TerminationReason::DocumentTeardown, false);
        }
        // 2. abort every outstanding request of the browsing context —
        //    including the dangling ones (CVE-2018-5092's use-after-free).
        let pending: Vec<RequestId> = self
            .requests
            .iter()
            .filter(|r| r.state == RequestState::Pending)
            .map(|r| r.id)
            .collect();
        for r in pending {
            self.deliver_abort(r);
        }
        // 3. the document is now closing, but already-queued worker messages
        //    still dispatch (CVE-2013-6646).
        self.threads[ti].closing = true;
    }

    fn cancel_doc_bound(&mut self, thread: ThreadId) {
        let ti = thread.index() as usize;
        self.thread_epochs[ti] += 1;
        // Remove every stale event from both maps *before* notifying the
        // mediator: an on_cancel notification may release another withheld
        // event, and a release for an already-removed token is a no-op —
        // otherwise a not-yet-cancelled event could be re-enqueued into the
        // fresh epoch and run against the closed document.
        let mut stale: Vec<EventToken> = self
            .pending
            .values()
            .filter(|pe| pe.info.thread == thread)
            .map(|pe| pe.info.token)
            .collect();
        for t in &stale {
            if let Some(pe) = self.pending.remove(t) {
                if let Some(k) = pe.raw_key {
                    self.events.cancel(k);
                }
            }
        }
        let withheld_stale: Vec<EventToken> = self
            .withheld
            .values()
            .filter(|pe| pe.info.thread == thread)
            .map(|pe| pe.info.token)
            .collect();
        for t in &withheld_stale {
            self.withheld.remove(t);
        }
        stale.extend(withheld_stale);
        // `pending`/`withheld` are hash maps, so the collected order above
        // is arbitrary; cancel in token order or the mediator's release
        // decisions (and dispatch-latency accounting) become a function of
        // hash-seed state.
        stale.sort_by_key(|t| t.index());
        for t in stale {
            // The mediator still hears about each (a serialized dispatcher
            // must not wait on a dropped event).
            self.with_mediator(|m, ctx| m.on_cancel(ctx, t));
        }
        self.threads[ti].queued_worker_messages = 0;
    }

    /// Settles a worker's in-flight fetches without delivering aborts
    /// (defense-side clean teardown).
    fn settle_worker_fetches(&mut self, wid: WorkerId) {
        let wi = wid.index() as usize;
        let mut fetches: Vec<RequestId> = self.workers[wi].pending_fetches.drain().collect();
        // Hash-set drain order is arbitrary; abort in request order so the
        // cancellation sequence the mediator observes is deterministic.
        fetches.sort_by_key(|r| r.index());
        for r in fetches {
            let ri = r.index() as usize;
            if self.requests[ri].state == RequestState::Pending {
                self.requests[ri].state = RequestState::Aborted;
                if let Some(tok) = self.request_tokens.get(&r).copied() {
                    self.cancel_event(tok);
                }
            }
        }
    }

    // --- network -----------------------------------------------------------------

    pub(crate) fn deliver_abort(&mut self, req: RequestId) {
        let ri = req.index() as usize;
        if ri >= self.requests.len() {
            return;
        }
        if self.requests[ri].state != RequestState::Pending {
            return;
        }
        let owner = self.requests[ri].thread;
        let owner_alive = self.requests[ri].owner_alive;
        let outcome = self.intercept(&ApiCall::DeliverAbort {
            req,
            owner,
            owner_alive,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return;
        }
        self.fact(Fact::AbortDelivered {
            req,
            owner,
            owner_alive,
        });
        self.hb_access(
            owner,
            AccessTarget::Request { req },
            AccessKind::Write,
            "deliver-abort",
        );
        self.requests[ri].state = RequestState::Aborted;
        if let Some(tok) = self.request_tokens.get(&req).copied() {
            // Replace the success callback with an abort-error delivery when
            // the owner is still alive.
            if owner_alive {
                if let Some(pe) = self.pending.get_mut(&tok) {
                    pe.arg = JsValue::object([
                        ("ok", JsValue::Bool(false)),
                        ("error", JsValue::from("AbortError")),
                    ]);
                    // Fire the callback promptly rather than at network time.
                    if let Some(k) = pe.raw_key.take() {
                        self.events.cancel(k);
                    }
                    let k = self.events.push(self.now, SimEvent::RawTrigger(tok));
                    if let Some(pe) = self.pending.get_mut(&tok) {
                        pe.raw_key = Some(k);
                    }
                }
            } else {
                // Owner is gone: nothing to deliver to — the signal hit freed
                // state (that *is* the vulnerability; the fact above records
                // it). Drop the pending event.
                self.cancel_event(tok);
            }
        }
    }

    // --- console / records ----------------------------------------------------------

    pub(crate) fn push_console(&mut self, v: JsValue) {
        self.console.push(v);
    }

    pub(crate) fn push_record(&mut self, key: String, v: JsValue) {
        self.records.insert(key, v);
    }

    // --- IndexedDB ------------------------------------------------------------------

    pub(crate) fn idb_open_impl(&mut self, thread: ThreadId, name: String, persist: bool) -> bool {
        let outcome = self.intercept(&ApiCall::IdbOpen {
            thread,
            private_mode: self.cfg.private_mode,
            persist,
        });
        if matches!(outcome, ApiOutcome::Deny { .. }) {
            return false;
        }
        let persisted = persist;
        self.idb.push(IdbRecord {
            name,
            persisted,
            private_session: self.cfg.private_mode,
        });
        if self.cfg.private_mode && persisted {
            self.fact(Fact::IdbPersistedInPrivateMode { thread });
        }
        true
    }

    /// Whether any IndexedDB data persisted from a private session (test
    /// and oracle support).
    #[must_use]
    pub fn idb_private_leftovers(&self) -> usize {
        self.idb
            .iter()
            .filter(|r| r.persisted && r.private_session)
            .count()
    }
}

impl Browser {
    pub(crate) fn request_token(&mut self, req: RequestId, token: EventToken) {
        self.request_tokens.insert(req, token);
    }

    /// Clamps a proposed message-arrival instant so the (from, to) channel
    /// stays FIFO, and records it as the channel's new high-water mark.
    pub(crate) fn channel_arrival(
        &mut self,
        from: ThreadId,
        to: ThreadId,
        proposed: SimTime,
    ) -> SimTime {
        let key = (from.index(), to.index());
        let last = self
            .channel_last
            .get(&key)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let at = proposed.max(last + SimDuration::from_nanos(1));
        self.channel_last.insert(key, at);
        at
    }

    /// The delivery instants for one cross-thread message after fault
    /// injection: `[]` = lost, one instant = normal, two = duplicated. A
    /// reordered message keeps the channel's FIFO high-water mark at its
    /// *undelayed* arrival, so later sends can overtake it.
    pub(crate) fn message_arrivals(
        &mut self,
        from: ThreadId,
        to: ThreadId,
        proposed: SimTime,
    ) -> Vec<SimTime> {
        let fate = match self.fault.as_mut() {
            Some(inj) => inj.message_fate(),
            None => MessageFate::Deliver,
        };
        match fate {
            MessageFate::Deliver => vec![self.channel_arrival(from, to, proposed)],
            MessageFate::Drop => Vec::new(),
            MessageFate::Duplicate => {
                let first = self.channel_arrival(from, to, proposed);
                let second = self.channel_arrival(from, to, first);
                vec![first, second]
            }
            MessageFate::Delay(d) => {
                let at = self.channel_arrival(from, to, proposed);
                vec![at + d]
            }
        }
    }
}

/// Short HB-node label for a task source.
fn source_label(source: TaskSource) -> &'static str {
    match source {
        TaskSource::Script => "script",
        TaskSource::Timer => "timer",
        TaskSource::Message => "message",
        TaskSource::Animation => "raf",
        TaskSource::Net => "net",
        TaskSource::Media => "media",
        TaskSource::CssAnimation => "css",
        TaskSource::Kernel => "kernel",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::LegacyMediator;
    use crate::task::cb;

    fn browser(seed: u64) -> Browser {
        Browser::new(
            BrowserConfig::new(BrowserProfile::chrome(), seed),
            Box::new(LegacyMediator),
        )
    }

    #[test]
    fn new_browser_starts_with_one_ready_main_thread() {
        let b = browser(1);
        assert_eq!(b.threads.len(), 1);
        assert!(b.threads[0].alive);
        assert!(b.threads[0].ready);
        assert_eq!(b.now(), SimTime::ZERO);
        assert_eq!(b.defense_name(), "legacy");
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let mut b = browser(2);
        b.boot(|scope| {
            scope.set_timeout(
                10.0,
                cb(|scope, _| {
                    scope.record("early", JsValue::from(true));
                }),
            );
            scope.set_timeout(
                100.0,
                cb(|scope, _| {
                    scope.record("late", JsValue::from(true));
                }),
            );
        });
        b.run_until(SimTime::from_millis(50));
        assert!(b.record_value("early").is_some());
        assert!(b.record_value("late").is_none());
        assert_eq!(b.now(), SimTime::from_millis(50));
        // Continuing picks the late timer up.
        b.run_until_idle();
        assert!(b.record_value("late").is_some());
    }

    #[test]
    fn step_limit_caps_runaway_loops() {
        let mut cfg = BrowserConfig::new(BrowserProfile::chrome(), 3);
        cfg.step_limit = 500;
        let mut b = Browser::new(cfg, Box::new(LegacyMediator));
        b.boot(|scope| {
            // A self-sustaining task storm.
            fn spin(scope: &mut JsScope<'_>) {
                scope.post_task(cb(|scope, _| spin(scope)));
            }
            spin(scope);
        });
        b.run_until_idle();
        assert!(b.steps() <= 500, "guard must stop the run: {}", b.steps());
    }

    #[test]
    fn shard_clock_skew_shifts_raw_reads_but_not_scheduling() {
        use jsk_sim::fault::{ClockSkew, FaultPlan};
        let run = |cfg: BrowserConfig| {
            let mut b = Browser::new(cfg, Box::new(LegacyMediator));
            b.boot(|scope| {
                scope.set_timeout(
                    100.0,
                    cb(|scope, _| {
                        let now = scope.performance_now();
                        scope.record("now", JsValue::from(now));
                        scope.record("fired_at", JsValue::from(scope.browser_now_ms()));
                    }),
                );
            });
            b.run_until_idle();
            (
                b.record_value("now").unwrap().as_f64().unwrap(),
                b.record_value("fired_at").unwrap().as_f64().unwrap(),
            )
        };
        let plan = FaultPlan::new(0).with_clock_skew(ClockSkew {
            shard: 3,
            drift_ppm: 100_000, // +10%, comfortably above clock quantization
            step_ms: 0,
            step_at_ms: 0,
        });
        let base = BrowserConfig::new(BrowserProfile::chrome(), 9);
        let (plain_now, plain_fired) = run(base.clone());
        // Skew addressed to our shard: the legacy-displayed clock runs fast,
        // but the timer still fires at the same true instant.
        let (skewed_now, skewed_fired) = run(base.clone().with_fault(plan.clone()).with_shard(3));
        assert!(
            skewed_now > plain_now * 1.05,
            "skewed read {skewed_now} should run ~10% fast of {plain_now}"
        );
        assert!(
            (skewed_fired - plain_fired).abs() < 1e-9,
            "scheduling must not skew"
        );
        // Skew addressed to a different shard: inert.
        let (other_now, _) = run(base.with_fault(plan).with_shard(2));
        assert!((other_now - plain_now).abs() < 1e-9);
    }

    #[test]
    fn clear_timer_on_interval_stops_rearming() {
        let mut b = browser(4);
        b.boot(|scope| {
            let id = scope.set_interval(
                5.0,
                cb(|scope, _| {
                    scope.record("ticked", JsValue::from(true));
                }),
            );
            // Cleared before the first firing: never ticks.
            scope.clear_timer(id);
        });
        b.run_for(SimDuration::from_millis(100));
        assert!(b.record_value("ticked").is_none());
    }

    #[test]
    fn clear_timer_twice_is_harmless() {
        let mut b = browser(5);
        b.boot(|scope| {
            let id = scope.set_timeout(5.0, cb(|_, _| {}));
            scope.clear_timer(id);
            scope.clear_timer(id);
            scope.record("ok", JsValue::from(true));
        });
        b.run_until_idle();
        assert!(b.record_value("ok").is_some());
    }

    #[test]
    fn current_instant_tracks_in_task_cost() {
        let mut b = browser(6);
        b.boot(|scope| {
            let before = scope.browser_now_ms();
            scope.compute(SimDuration::from_millis(7));
            let after = scope.browser_now_ms();
            scope.record("delta", JsValue::from(after - before));
        });
        b.run_until_idle();
        let delta = b.record_value("delta").unwrap().as_f64().unwrap();
        assert!((delta - 7.0).abs() < 0.01, "{delta}");
    }

    #[test]
    fn anchored_interval_does_not_drift() {
        let mut b = browser(7);
        b.boot(|scope| {
            let stamps: std::rc::Rc<std::cell::RefCell<Vec<f64>>> =
                std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let s2 = stamps;
            scope.set_interval(
                10.0,
                cb(move |scope, _| {
                    s2.borrow_mut().push(scope.browser_now_ms());
                    if s2.borrow().len() == 20 {
                        let first = s2.borrow()[0];
                        let last = *s2.borrow().last().unwrap();
                        // 19 periods of 10 ms: drift must stay within the
                        // per-firing jitter bound, never accumulate.
                        scope.record("span", JsValue::from(last - first));
                    }
                }),
            );
        });
        b.run_for(SimDuration::from_millis(400));
        let span = b.record_value("span").unwrap().as_f64().unwrap();
        assert!((span - 190.0).abs() < 3.0, "anchored span {span}");
    }

    #[test]
    fn fresh_tokens_are_unique() {
        let mut b = browser(8);
        let a = b.fresh_token();
        let c = b.fresh_token();
        assert_ne!(a, c);
    }

    #[test]
    fn registered_resources_affect_load_plans() {
        let mut b = browser(9);
        b.register_resource("https://x.example/big", ResourceSpec::of_size(1 << 20));
        b.boot(|scope| {
            scope.fetch(
                "https://x.example/big",
                None,
                cb(|scope, v| {
                    let t = scope.browser_now_ms();
                    scope.record("big_done", JsValue::from(t));
                    let _ = v;
                }),
            );
            scope.fetch(
                "https://x.example/small",
                None,
                cb(|scope, v| {
                    let t = scope.browser_now_ms();
                    scope.record("small_done", JsValue::from(t));
                    let _ = v;
                }),
            );
        });
        b.run_until_idle();
        let big = b.record_value("big_done").unwrap().as_f64().unwrap();
        let small = b.record_value("small_done").unwrap().as_f64().unwrap();
        assert!(
            big > small + 300.0,
            "1 MB over ADSL ≫ default 2 KB: {big} vs {small}"
        );
    }

    #[test]
    fn sab_counter_is_continuous_in_virtual_time() {
        let mut b = browser(10);
        b.set_sab_enabled(true);
        b.boot(|scope| {
            let sab = scope.sab_create(1).expect("enabled");
            // Counters only run from real worker threads.
            let _w = scope.create_worker(
                "c.js",
                crate::task::worker_script(move |scope| {
                    scope.sab_run_counter(sab, 0, 1_000); // 1 µs per increment
                }),
            );
            scope.set_timeout(
                20.0,
                cb(move |scope, _| {
                    let c0 = scope.sab_read(sab, 0).unwrap();
                    scope.compute(SimDuration::from_millis(3));
                    let c1 = scope.sab_read(sab, 0).unwrap();
                    scope.record("delta", JsValue::from(c1 - c0));
                }),
            );
        });
        b.run_until_idle();
        let delta = b.record_value("delta").unwrap().as_f64().unwrap();
        assert!(
            (delta - 3_000.0).abs() < 200.0,
            "3 ms at 1 µs/increment: {delta}"
        );
    }
}
