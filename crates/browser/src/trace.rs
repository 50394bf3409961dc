//! The API trace: what the vulnerability oracle observes.
//!
//! The browser records two kinds of entries:
//!
//! * [`ApiCall`] — a JavaScript built-in invocation *about to happen*
//!   (these are also what defense mediators intercept);
//! * [`Fact`] — a semantic consequence that *did happen* inside the
//!   "native" browser (a worker really terminated, an abort signal really
//!   reached a freed request, an error message really carried cross-origin
//!   data, …).
//!
//! The CVE detectors in `jsk-vuln` are state machines over this trace: a
//! vulnerability is *triggered* exactly when its documented sequence of
//! facts occurs. A defense succeeds by preventing the sequence, never by
//! muting the trace.

use crate::ids::{BufferId, NodeId, RequestId, SabId, ThreadId, WorkerId};
use jsk_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// Trace records are hot-path appends — one per intercepted API call,
/// fact, task node, and shared-state access — so they store string
/// payloads (URLs, script names, error messages, call-site labels) as
/// [`Sym`]s into the owning [`Trace`]'s string table instead of owned
/// `String`s. Interning makes every record `Copy` and lets analysis passes
/// key dedup maps on a `u32`. The table hands out indices in first-occurrence
/// order, so identical record sequences serialize byte-identically
/// regardless of how many analysis jobs run concurrently.
pub use jsk_observe::sym::{Interner, Sym};

/// Which API produced an error message (disambiguates the two error-leak
/// CVEs, 2014-1487 vs 2015-7215).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorSource {
    /// Worker creation failed (`new Worker(...)` + `onerror`).
    WorkerCreation,
    /// `importScripts(...)` failed inside a worker.
    ImportScripts,
}

/// Why a worker is being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TerminationReason {
    /// `worker.terminate()` from the owner.
    Explicit,
    /// `self.close()` from inside the worker.
    SelfClose,
    /// The owning document closed or navigated away — the paper's "false
    /// termination" path (Listing 2).
    DocumentTeardown,
    /// The worker's thread died abruptly (fault-injected crash).
    Crash,
}

/// A JavaScript built-in invocation, as seen by defense mediators and the
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ApiCall {
    /// `new Worker(src)`.
    CreateWorker {
        /// The creating thread.
        parent: ThreadId,
        /// The worker handle being created.
        worker: WorkerId,
        /// Script name (the `src` URL), interned in the owning trace.
        src: Sym,
        /// Whether the creating context is a sandboxed frame.
        sandboxed: bool,
    },
    /// Worker teardown about to proceed.
    TerminateWorker {
        /// The worker being terminated.
        worker: WorkerId,
        /// Why.
        reason: TerminationReason,
        /// `true` when the owner thread is currently dispatching a message
        /// from this very worker (CVE-2014-1719's window).
        during_dispatch: bool,
        /// Number of buffers this worker transferred out that are still live.
        live_transfers: usize,
        /// Number of this worker's network requests still pending.
        pending_fetches: usize,
    },
    /// `postMessage` between threads.
    PostMessage {
        /// Sender.
        from: ThreadId,
        /// Receiver thread.
        to: ThreadId,
        /// Number of transferred buffers.
        transfer_count: usize,
        /// `true` when the receiving side's document has been freed
        /// (navigated/closed) — CVE-2014-3194's window.
        to_doc_freed: bool,
    },
    /// Assignment to `worker.onmessage` / `self.onmessage`.
    SetOnMessage {
        /// The assigning thread.
        thread: ThreadId,
        /// The worker object assigned to, when assigning from the owner.
        worker: Option<WorkerId>,
        /// `true` when that worker is in its closing state (CVE-2013-5602).
        worker_closing: bool,
    },
    /// `fetch(url, {signal})`.
    Fetch {
        /// The requesting thread.
        thread: ThreadId,
        /// Request id.
        req: RequestId,
        /// Target URL, interned in the owning trace.
        url: Sym,
        /// Whether an abort signal is attached.
        has_signal: bool,
    },
    /// An abort is about to be delivered to a request.
    DeliverAbort {
        /// The request being aborted.
        req: RequestId,
        /// The thread that issued the request.
        owner: ThreadId,
        /// Whether that thread is still alive.
        owner_alive: bool,
    },
    /// `XMLHttpRequest.send()`.
    XhrSend {
        /// The requesting thread.
        thread: ThreadId,
        /// `true` when issued from a worker.
        from_worker: bool,
        /// Target URL, interned in the owning trace.
        url: Sym,
        /// Whether the URL is cross-origin for the requesting context.
        cross_origin: bool,
    },
    /// `importScripts(url)` inside a worker.
    ImportScripts {
        /// The worker thread.
        thread: ThreadId,
        /// Target URL, interned in the owning trace.
        url: Sym,
        /// Whether the URL is cross-origin.
        cross_origin: bool,
    },
    /// An error event about to be delivered with a message string.
    ErrorEvent {
        /// Receiving thread.
        thread: ThreadId,
        /// The raw (native) message text, interned in the owning trace.
        message: Sym,
        /// Whether the message embeds cross-origin information.
        leaks_cross_origin: bool,
    },
    /// `indexedDB.open(...)`.
    IdbOpen {
        /// The requesting thread.
        thread: ThreadId,
        /// Whether the browsing session is in private mode.
        private_mode: bool,
        /// Whether the open requests durable persistence.
        persist: bool,
    },
    /// Document navigation (`location = …`).
    Navigate {
        /// The navigating thread (main).
        thread: ThreadId,
    },
    /// Document/window close.
    CloseDocument {
        /// The closing thread (main).
        thread: ThreadId,
        /// Worker-message tasks still queued on this thread.
        pending_worker_messages: usize,
    },
    /// An access to a (possibly transferred/freed) `ArrayBuffer`.
    BufferAccess {
        /// Accessing thread.
        thread: ThreadId,
        /// The buffer.
        buffer: BufferId,
        /// Whether the native buffer backing store has been freed.
        freed: bool,
    },
    /// A read of an instruction-level-parallelism racing counter (Hacky
    /// Racers): a timer built from superscalar execution-unit contention
    /// rather than any clock API, so timer coarsening never touches it.
    IlpCounterRead {
        /// Reading thread.
        thread: ThreadId,
        /// Parallel increment chains raced against the measured work.
        chains: u32,
    },
}

impl ApiCall {
    /// A human-readable one-line description with interned strings resolved
    /// — the text recorded as [`Fact::Denied`]'s `what`. Mirrors the
    /// derive-`Debug` struct-variant layout, with `Sym` fields shown as the
    /// quoted strings they stand for.
    #[must_use]
    pub fn describe(&self, strings: &Interner) -> String {
        let s = |sym: &Sym| strings.resolve(*sym);
        match self {
            ApiCall::CreateWorker {
                parent,
                worker,
                src,
                sandboxed,
            } => format!(
                "CreateWorker {{ parent: {parent:?}, worker: {worker:?}, src: {:?}, sandboxed: {sandboxed:?} }}",
                s(src)
            ),
            ApiCall::TerminateWorker {
                worker,
                reason,
                during_dispatch,
                live_transfers,
                pending_fetches,
            } => format!(
                "TerminateWorker {{ worker: {worker:?}, reason: {reason:?}, during_dispatch: {during_dispatch:?}, live_transfers: {live_transfers:?}, pending_fetches: {pending_fetches:?} }}"
            ),
            ApiCall::PostMessage {
                from,
                to,
                transfer_count,
                to_doc_freed,
            } => format!(
                "PostMessage {{ from: {from:?}, to: {to:?}, transfer_count: {transfer_count:?}, to_doc_freed: {to_doc_freed:?} }}"
            ),
            ApiCall::SetOnMessage {
                thread,
                worker,
                worker_closing,
            } => format!(
                "SetOnMessage {{ thread: {thread:?}, worker: {worker:?}, worker_closing: {worker_closing:?} }}"
            ),
            ApiCall::Fetch {
                thread,
                req,
                url,
                has_signal,
            } => format!(
                "Fetch {{ thread: {thread:?}, req: {req:?}, url: {:?}, has_signal: {has_signal:?} }}",
                s(url)
            ),
            ApiCall::DeliverAbort {
                req,
                owner,
                owner_alive,
            } => format!(
                "DeliverAbort {{ req: {req:?}, owner: {owner:?}, owner_alive: {owner_alive:?} }}"
            ),
            ApiCall::XhrSend {
                thread,
                from_worker,
                url,
                cross_origin,
            } => format!(
                "XhrSend {{ thread: {thread:?}, from_worker: {from_worker:?}, url: {:?}, cross_origin: {cross_origin:?} }}",
                s(url)
            ),
            ApiCall::ImportScripts {
                thread,
                url,
                cross_origin,
            } => format!(
                "ImportScripts {{ thread: {thread:?}, url: {:?}, cross_origin: {cross_origin:?} }}",
                s(url)
            ),
            ApiCall::ErrorEvent {
                thread,
                message,
                leaks_cross_origin,
            } => format!(
                "ErrorEvent {{ thread: {thread:?}, message: {:?}, leaks_cross_origin: {leaks_cross_origin:?} }}",
                s(message)
            ),
            ApiCall::IdbOpen {
                thread,
                private_mode,
                persist,
            } => format!(
                "IdbOpen {{ thread: {thread:?}, private_mode: {private_mode:?}, persist: {persist:?} }}"
            ),
            ApiCall::Navigate { thread } => format!("Navigate {{ thread: {thread:?} }}"),
            ApiCall::CloseDocument {
                thread,
                pending_worker_messages,
            } => format!(
                "CloseDocument {{ thread: {thread:?}, pending_worker_messages: {pending_worker_messages:?} }}"
            ),
            ApiCall::BufferAccess {
                thread,
                buffer,
                freed,
            } => format!(
                "BufferAccess {{ thread: {thread:?}, buffer: {buffer:?}, freed: {freed:?} }}"
            ),
            ApiCall::IlpCounterRead { thread, chains } => {
                format!("IlpCounterRead {{ thread: {thread:?}, chains: {chains:?} }}")
            }
        }
    }
}

/// A semantic consequence recorded after the "native" behaviour executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fact {
    /// A fetch went on the wire.
    FetchStarted {
        /// Request id.
        req: RequestId,
        /// Issuing thread.
        thread: ThreadId,
        /// Whether an abort signal is attached.
        has_signal: bool,
    },
    /// A fetch settled (response or network error).
    FetchSettled {
        /// Request id.
        req: RequestId,
        /// `true` on success.
        ok: bool,
    },
    /// An abort signal reached a request.
    AbortDelivered {
        /// Request id.
        req: RequestId,
        /// The thread that issued the request.
        owner: ThreadId,
        /// Whether that thread was still alive — `false` is the
        /// CVE-2018-5092 use-after-free.
        owner_alive: bool,
    },
    /// A worker thread came up.
    WorkerStarted {
        /// Worker handle.
        worker: WorkerId,
        /// Its thread.
        thread: ThreadId,
        /// Owner thread.
        parent: ThreadId,
        /// Whether the creating context was sandboxed.
        sandboxed_parent: bool,
        /// Whether the worker inherited the parent's origin (`true` is the
        /// CVE-2011-1190 bug when `sandboxed_parent`).
        inherited_origin: bool,
    },
    /// A worker thread was torn down.
    WorkerTerminated {
        /// Worker handle.
        worker: WorkerId,
        /// Why.
        reason: TerminationReason,
        /// Whether teardown happened while its message was mid-dispatch on
        /// the owner (CVE-2014-1719).
        during_dispatch: bool,
        /// Transferred buffers freed by this teardown (CVE-2014-1488 when
        /// non-zero).
        freed_transfers: usize,
        /// `true` when only the user-visible object was closed and the
        /// kernel kept the real thread alive (a defense outcome).
        user_level_only: bool,
    },
    /// A message was delivered to a thread whose document had been freed
    /// (CVE-2014-3194 / CVE-2010-4576 family).
    MessageToFreedDoc {
        /// Sender.
        from: ThreadId,
        /// Receiver.
        to: ThreadId,
    },
    /// A network completion callback ran against a document generation that
    /// had been navigated away (CVE-2010-4576).
    StaleDocCallback {
        /// The thread it ran on.
        thread: ThreadId,
    },
    /// An `onmessage` assignment landed on a closing worker and the native
    /// setter dereferenced a null inner pointer (CVE-2013-5602).
    NullDerefOnAssign {
        /// The worker assigned to.
        worker: WorkerId,
    },
    /// A cross-origin request actually left a worker (CVE-2013-1714).
    CrossOriginWorkerRequest {
        /// The worker thread.
        thread: ThreadId,
        /// Target URL, interned in the owning trace.
        url: Sym,
    },
    /// An error message string was delivered to user code.
    ErrorMessageDelivered {
        /// Receiving thread.
        thread: ThreadId,
        /// Which API produced it.
        source: ErrorSource,
        /// The delivered text, interned in the owning trace.
        message: Sym,
        /// Whether it still carried cross-origin information
        /// (CVE-2014-1487 / CVE-2015-7215 when `true`).
        leaked_cross_origin: bool,
    },
    /// IndexedDB data persisted during a private-mode session
    /// (CVE-2017-7843).
    IdbPersistedInPrivateMode {
        /// The requesting thread.
        thread: ThreadId,
    },
    /// A request was issued by a worker that inherited a sandboxed parent's
    /// origin (CVE-2011-1190: second half of the trigger).
    InheritedOriginRequest {
        /// The worker thread.
        thread: ThreadId,
    },
    /// A transferred buffer's backing store was freed while still owned by
    /// a live thread.
    TransferFreed {
        /// The buffer.
        buffer: BufferId,
    },
    /// A buffer access hit a freed backing store (CVE-2014-1488 trigger).
    FreedBufferAccess {
        /// The buffer.
        buffer: BufferId,
        /// The accessing thread.
        thread: ThreadId,
    },
    /// A worker-message callback ran on a thread after its document closed
    /// (CVE-2013-6646).
    CallbackAfterClose {
        /// The thread it ran on.
        thread: ThreadId,
    },
    /// A worker was terminated mid-dispatch and the dispatch frame touched
    /// freed memory (CVE-2014-1719 trigger).
    DispatchUseAfterFree {
        /// The worker.
        worker: WorkerId,
    },
    /// A defense denied an API call.
    Denied {
        /// Short description of the denied call (see [`ApiCall::describe`]),
        /// interned in the owning trace.
        what: Sym,
        /// The defense's reason, interned in the owning trace.
        reason: Sym,
    },
}

/// One unit of concurrency in the happens-before graph: a single dispatched
/// callback execution (a "task node", EventRacer-style). Node ids are
/// assigned monotonically in dispatch order, so every happens-before edge
/// points from a lower id to a higher one — the trace order is already a
/// topological order of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeRecord {
    /// The node id (dense, starting at 0).
    pub node: u64,
    /// The thread the task ran on.
    pub thread: ThreadId,
    /// The node that registered this task's event (the *fork* edge source):
    /// timer arm → fire, `postMessage` send → deliver, fetch → completion,
    /// worker create → first run. `None` for roots (the boot task).
    pub forked_from: Option<u64>,
    /// Short label of why the task ran (task source / lifecycle step),
    /// interned in the owning trace.
    pub label: Sym,
}

/// Which ordering mechanism induced a happens-before edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Registration → invocation (implicit in [`NodeRecord::forked_from`];
    /// also used for synthesized edges in analysis).
    Fork,
    /// The kernel's serialized dispatcher released these two tasks
    /// consecutively on one thread — a schedule-invariant order under the
    /// deterministic scheduling policy.
    DispatchChain,
    /// A kernel-space overlay message (`jsk_core::comm`) carried the
    /// sender's node to the receiving thread's next dispatched task.
    KernelComm,
}

/// An explicit happens-before ordering edge recorded by a mediator (the
/// kernel). Fork edges are *not* recorded this way — they live on the
/// [`NodeRecord`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HbEdge {
    /// Source node (happens before).
    pub from: u64,
    /// Target node (happens after).
    pub to: u64,
    /// The ordering mechanism.
    pub kind: EdgeKind,
}

/// What a memory/state access touched — the conflict domain of the race
/// detector. Two accesses conflict when their targets are equal and at
/// least one is a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccessTarget {
    /// A thread's current document (navigation/close write it; callback
    /// deliveries read it).
    Document {
        /// The owning thread.
        thread: ThreadId,
    },
    /// A network request's state (start/settle/abort all write it).
    Request {
        /// The request.
        req: RequestId,
    },
    /// A worker's lifecycle state (create/terminate write it).
    WorkerLifecycle {
        /// The worker handle.
        worker: WorkerId,
    },
    /// An `ArrayBuffer` backing store (transfer-free writes; reads read).
    Buffer {
        /// The buffer.
        buffer: BufferId,
    },
    /// One `SharedArrayBuffer` cell.
    Sab {
        /// The SAB.
        sab: SabId,
        /// Cell index.
        idx: u64,
    },
    /// A DOM node (mutations write; attribute reads read).
    Dom {
        /// The DOM node.
        node: NodeId,
    },
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Observation only.
    Read,
    /// State mutation.
    Write,
}

/// One recorded shared-state access, attributed to the task node that
/// performed it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessRecord {
    /// The task node performing the access.
    pub node: u64,
    /// The thread it ran on.
    pub thread: ThreadId,
    /// What was touched.
    pub target: AccessTarget,
    /// Read or write.
    pub kind: AccessKind,
    /// Call-site label (e.g. `"navigate"`, `"abort-deliver"`) — the leaf of
    /// the access stack the race report prints. Interned in the owning
    /// trace.
    pub what: Sym,
}

/// One trace record. `Copy`: every payload string is interned, so records
/// are a few plain words and appending one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceItem {
    /// An intercepted built-in invocation.
    Api(ApiCall),
    /// A native semantic consequence.
    Fact(Fact),
    /// A dispatched task node (happens-before graph vertex + fork edge).
    Node(NodeRecord),
    /// A kernel-recorded ordering edge.
    Edge(HbEdge),
    /// A shared-state access.
    Access(AccessRecord),
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Virtual instant.
    pub time: SimTime,
    /// The record.
    pub item: TraceItem,
}

/// The full API/fact trace of a browser run, plus the string table its
/// records' [`Sym`] fields index into.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    /// Defaulted on deserialize so symbol-free traces (and pre-interning
    /// ones) still parse.
    #[serde(default)]
    strings: Interner,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Interns a string in this trace's table.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.strings.intern(s)
    }

    /// Resolves a symbol previously interned in this trace.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.strings.resolve(sym)
    }

    /// The trace's string table.
    #[must_use]
    pub fn strings(&self) -> &Interner {
        &self.strings
    }

    /// Appends an API record.
    pub fn api(&mut self, time: SimTime, call: ApiCall) {
        self.entries.push(TraceEntry {
            time,
            item: TraceItem::Api(call),
        });
    }

    /// Appends a fact record.
    pub fn fact(&mut self, time: SimTime, fact: Fact) {
        self.entries.push(TraceEntry {
            time,
            item: TraceItem::Fact(fact),
        });
    }

    /// Appends a task-node record.
    pub fn node(&mut self, time: SimTime, node: NodeRecord) {
        self.entries.push(TraceEntry {
            time,
            item: TraceItem::Node(node),
        });
    }

    /// Appends an ordering-edge record.
    pub fn edge(&mut self, time: SimTime, edge: HbEdge) {
        self.entries.push(TraceEntry {
            time,
            item: TraceItem::Edge(edge),
        });
    }

    /// Appends a shared-state access record.
    pub fn access(&mut self, time: SimTime, access: AccessRecord) {
        self.entries.push(TraceEntry {
            time,
            item: TraceItem::Access(access),
        });
    }

    /// All records in order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Iterates over the facts in order.
    pub fn facts(&self) -> impl Iterator<Item = (&SimTime, &Fact)> {
        self.entries.iter().filter_map(|e| match &e.item {
            TraceItem::Fact(f) => Some((&e.time, f)),
            _ => None,
        })
    }

    /// Iterates over the API calls in order.
    pub fn apis(&self) -> impl Iterator<Item = (&SimTime, &ApiCall)> {
        self.entries.iter().filter_map(|e| match &e.item {
            TraceItem::Api(a) => Some((&e.time, a)),
            _ => None,
        })
    }

    /// Iterates over the task nodes in dispatch order.
    pub fn nodes(&self) -> impl Iterator<Item = (&SimTime, &NodeRecord)> {
        self.entries.iter().filter_map(|e| match &e.item {
            TraceItem::Node(n) => Some((&e.time, n)),
            _ => None,
        })
    }

    /// Iterates over the kernel-recorded ordering edges in order.
    pub fn edges(&self) -> impl Iterator<Item = (&SimTime, &HbEdge)> {
        self.entries.iter().filter_map(|e| match &e.item {
            TraceItem::Edge(ed) => Some((&e.time, ed)),
            _ => None,
        })
    }

    /// Iterates over the shared-state accesses in order.
    pub fn accesses(&self) -> impl Iterator<Item = (&SimTime, &AccessRecord)> {
        self.entries.iter().filter_map(|e| match &e.item {
            TraceItem::Access(a) => Some((&e.time, a)),
            _ => None,
        })
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_orders_and_filters() {
        let mut t = Trace::new();
        t.api(
            SimTime::from_millis(1),
            ApiCall::Navigate {
                thread: ThreadId::new(0),
            },
        );
        t.fact(
            SimTime::from_millis(2),
            Fact::StaleDocCallback {
                thread: ThreadId::new(0),
            },
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.apis().count(), 1);
        assert_eq!(t.facts().count(), 1);
        let (time, _) = t.facts().next().unwrap();
        assert_eq!(*time, SimTime::from_millis(2));
    }

    #[test]
    fn empty_trace_reports_empty() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.entries().len(), 0);
    }

    #[test]
    fn hb_records_filter_and_round_trip() {
        let mut t = Trace::new();
        let boot = t.intern("boot");
        t.node(
            SimTime::from_millis(1),
            NodeRecord {
                node: 0,
                thread: ThreadId::new(0),
                forked_from: None,
                label: boot,
            },
        );
        t.edge(
            SimTime::from_millis(2),
            HbEdge {
                from: 0,
                to: 1,
                kind: EdgeKind::DispatchChain,
            },
        );
        let navigate = t.intern("navigate");
        t.access(
            SimTime::from_millis(3),
            AccessRecord {
                node: 0,
                thread: ThreadId::new(0),
                target: AccessTarget::Document {
                    thread: ThreadId::new(0),
                },
                kind: AccessKind::Write,
                what: navigate,
            },
        );
        assert_eq!(t.nodes().count(), 1);
        assert_eq!(t.edges().count(), 1);
        assert_eq!(t.accesses().count(), 1);
        // HB records are invisible to the fact/api views the oracle uses.
        assert_eq!(t.facts().count(), 0);
        assert_eq!(t.apis().count(), 0);
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.resolve(boot), "boot");
        assert_eq!(back.resolve(navigate), "navigate");
    }

    #[test]
    fn interner_reuses_symbols_and_round_trips() {
        let mut t = Trace::new();
        let a = t.intern("worker.js");
        let b = t.intern("other.js");
        let a2 = t.intern("worker.js");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.strings().len(), 2);
        assert_eq!(t.resolve(a), "worker.js");
        assert_eq!(t.resolve(b), "other.js");
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.strings(), t.strings());
        // The rebuilt lookup index keeps assigning the same symbols.
        let mut back = back;
        assert_eq!(back.intern("other.js"), b);
    }

    /// Old traces serialized before the string table existed still parse:
    /// the `strings` field defaults to an empty interner.
    #[test]
    fn traces_without_a_string_table_still_parse() {
        let t: Trace = serde_json::from_str(r#"{"entries": []}"#).unwrap();
        assert!(t.is_empty());
        assert!(t.strings().is_empty());
    }

    /// `describe` must stay in lockstep with derive-`Debug` (modulo symbol
    /// resolution): `Fact::Denied.what` relies on it for readable output.
    #[test]
    fn describe_matches_derive_debug_with_symbols_resolved() {
        let mut t = Trace::new();
        let src = t.intern("w.js");
        let call = ApiCall::CreateWorker {
            parent: ThreadId::new(0),
            worker: WorkerId::new(3),
            src,
            sandboxed: true,
        };
        let debug = format!("{call:?}");
        let described = call.describe(t.strings());
        // Same shape, with the symbol replaced by its quoted string.
        assert_eq!(described, debug.replace(&format!("{src:?}"), "\"w.js\""));
        assert!(described.contains("src: \"w.js\""), "{described}");

        let plain = ApiCall::Navigate {
            thread: ThreadId::new(7),
        };
        assert_eq!(plain.describe(t.strings()), format!("{plain:?}"));
    }
}
