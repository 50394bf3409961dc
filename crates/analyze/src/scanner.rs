//! The concurrency-attack pattern scanner.
//!
//! Where the race detector proves a *pair of accesses* can be reordered,
//! this pass recognises *attack shapes*: state machines over the API/fact
//! stream that flag potential web-concurrency attack signatures and map
//! each to the CVE family it belongs to. A signature firing does not mean
//! the attack succeeded — an intercepted `DeliverAbort` to a dead owner is
//! flagged even when a policy then denies it; the point is that the program
//! *attempted* the shape, which is what an auditor wants surfaced.

use jsk_browser::ids::BufferId;
use jsk_browser::trace::{ApiCall, Fact, Trace, TraceItem};
use jsk_sim::time::SimTime;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The recognised attack signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum PatternKind {
    /// A tight cross-thread `postMessage` stream usable as an implicit
    /// clock (Listing 1's ticker; §II-A1).
    ImplicitClockTicker,
    /// `worker.terminate()` while the owner is mid-dispatch of that
    /// worker's message.
    MidDispatchTermination,
    /// An access window onto a transferred buffer whose backing store was
    /// freed by teardown.
    FreedTransferWindow,
    /// An abort signal aimed at a request whose owner thread already died.
    AbortAfterOwnerDeath,
    /// An `onmessage` assignment landing on a worker in its closing state.
    ClosingWorkerAssignment,
    /// An error message carrying cross-origin information toward user code.
    ErrorLeak,
    /// A network completion running against a navigated-away document
    /// generation.
    StaleDocCompletion,
    /// A `postMessage` aimed at a thread whose document has been freed.
    FreedDocDelivery,
    /// A document close racing still-queued worker-message callbacks.
    CallbackAfterCloseWindow,
    /// A cross-origin request leaving a worker (SOP bypass).
    WorkerSopBypass,
    /// A sandboxed context creating a worker that can inherit the parent
    /// origin.
    SandboxOriginInheritance,
    /// A durable IndexedDB open during a private-mode session.
    PrivateModePersistence,
    /// A tight **self**-post stream monitoring the shared event loop
    /// (Loophole, Vila & Köpf: flood your own context and timestamp the
    /// turnaround to fingerprint co-scheduled victims).
    SharedLoopContention,
    /// A dense stream of instruction-level-parallelism racing-counter reads
    /// (Hacky Racers, Xiao & Ainsworth: a stealthy timer that no clock API
    /// coarsening touches).
    IlpStealthyTicker,
}

impl PatternKind {
    /// The CVE family (or attack class) this signature maps to.
    #[must_use]
    pub fn cve_family(self) -> &'static [&'static str] {
        match self {
            PatternKind::ImplicitClockTicker => &["timing-channel (Listing 1)"],
            PatternKind::MidDispatchTermination => &["CVE-2014-1719"],
            PatternKind::FreedTransferWindow => &["CVE-2014-1488"],
            PatternKind::AbortAfterOwnerDeath => &["CVE-2018-5092"],
            PatternKind::ClosingWorkerAssignment => &["CVE-2013-5602"],
            PatternKind::ErrorLeak => &["CVE-2014-1487", "CVE-2015-7215"],
            PatternKind::StaleDocCompletion => &["CVE-2010-4576"],
            PatternKind::FreedDocDelivery => &["CVE-2014-3194"],
            PatternKind::CallbackAfterCloseWindow => &["CVE-2013-6646"],
            PatternKind::WorkerSopBypass => &["CVE-2013-1714"],
            PatternKind::SandboxOriginInheritance => &["CVE-2011-1190"],
            PatternKind::PrivateModePersistence => &["CVE-2017-7843"],
            PatternKind::SharedLoopContention => &["attack-loophole (Vila & K\u{f6}pf)"],
            PatternKind::IlpStealthyTicker => &["attack-hacky-racers (Xiao & Ainsworth)"],
        }
    }
}

/// One flagged signature.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PatternFinding {
    /// The signature.
    pub kind: PatternKind,
    /// When the deciding record was observed.
    pub at: SimTime,
    /// Human-readable evidence.
    pub detail: String,
}

impl PatternFinding {
    /// The CVE family of the signature.
    #[must_use]
    pub fn cve_family(&self) -> &'static [&'static str] {
        self.kind.cve_family()
    }
}

/// Scanner dedup key: `(evidence stream, id word, id word)`.
type SigKey = (u8, u64, u64);
/// Evidence shared by the API and fact streams (dedups across both).
const SIG_SHARED: u8 = 0;
/// API-side evidence.
const SIG_API: u8 = 1;
/// Fact-side evidence.
const SIG_FACT: u8 = 2;

/// A ticker channel needs this many sends to count as a clock …
const TICKER_MIN_SENDS: usize = 20;
/// … with a median inter-send gap at or below this, i.e. 50 Hz+.
const TICKER_MAX_MEDIAN_GAP: SimTime = SimTime::from_millis(20);

/// Scans a trace for attack signatures. Output is deterministic: sorted by
/// `(time, kind, detail)`, one finding per distinct piece of evidence.
#[must_use]
pub fn scan(trace: &Trace) -> Vec<PatternFinding> {
    let mut out: Vec<PatternFinding> = Vec::new();
    // Dedup key: (tag, id, id). The tag separates a kind's API-side and
    // fact-side evidence streams where they were distinct keys before
    // (0 = shared across both, 1 = API, 2 = fact); the two words carry the
    // record's ids — entity indexes and interned-string symbols. Ids and
    // symbols are injective to their display strings, so the partition is
    // exactly the one the old formatted-string keys produced, without
    // allocating a key per record.
    let mut seen: BTreeSet<(PatternKind, SigKey)> = BTreeSet::new();
    let mut freed_buffers: BTreeSet<BufferId> = BTreeSet::new();
    // (from, to) -> send instants, for the ticker pass.
    let mut channels: BTreeMap<(u64, u64), Vec<SimTime>> = BTreeMap::new();
    // thread -> ILP racing-counter read instants, for the stealthy-ticker pass.
    let mut ilp_reads: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();

    let push = |out: &mut Vec<PatternFinding>,
                seen: &mut BTreeSet<(PatternKind, SigKey)>,
                kind: PatternKind,
                at: SimTime,
                key: SigKey,
                detail: String| {
        if seen.insert((kind, key)) {
            out.push(PatternFinding { kind, at, detail });
        }
    };

    for entry in trace.entries() {
        let at = entry.time;
        match &entry.item {
            TraceItem::Api(call) => match call {
                ApiCall::PostMessage {
                    from,
                    to,
                    to_doc_freed,
                    ..
                } => {
                    channels
                        .entry((from.index(), to.index()))
                        .or_default()
                        .push(at);
                    if *to_doc_freed {
                        push(
                            &mut out,
                            &mut seen,
                            PatternKind::FreedDocDelivery,
                            at,
                            (SIG_API, from.index(), to.index()),
                            format!("postMessage from {from} to {to} whose document is freed"),
                        );
                    }
                }
                ApiCall::TerminateWorker {
                    worker,
                    during_dispatch: true,
                    ..
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::MidDispatchTermination,
                    at,
                    (SIG_SHARED, worker.index(), 0),
                    format!("terminate({worker}) while its message is mid-dispatch"),
                ),
                ApiCall::BufferAccess { buffer, freed, .. }
                    if (*freed || freed_buffers.contains(buffer)) =>
                {
                    push(
                        &mut out,
                        &mut seen,
                        PatternKind::FreedTransferWindow,
                        at,
                        (SIG_SHARED, buffer.index(), 0),
                        format!("access to {buffer} after its backing store was freed"),
                    );
                }
                ApiCall::DeliverAbort {
                    req,
                    owner_alive: false,
                    ..
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::AbortAfterOwnerDeath,
                    at,
                    (SIG_SHARED, req.index(), 0),
                    format!("abort delivery to {req} whose owner thread is dead"),
                ),
                ApiCall::SetOnMessage {
                    worker: Some(worker),
                    worker_closing: true,
                    ..
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::ClosingWorkerAssignment,
                    at,
                    (SIG_SHARED, worker.index(), 0),
                    format!("onmessage assigned to closing {worker}"),
                ),
                ApiCall::ErrorEvent {
                    thread,
                    message,
                    leaks_cross_origin: true,
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::ErrorLeak,
                    at,
                    (SIG_API, thread.index(), u64::from(message.index())),
                    format!(
                        "error event on {thread} embeds cross-origin data: {:?}",
                        trace.resolve(*message)
                    ),
                ),
                ApiCall::CloseDocument {
                    thread,
                    pending_worker_messages,
                } if *pending_worker_messages > 0 => push(
                    &mut out,
                    &mut seen,
                    PatternKind::CallbackAfterCloseWindow,
                    at,
                    (SIG_API, thread.index(), 0),
                    format!(
                        "document close on {thread} with {pending_worker_messages} \
                         worker messages still queued"
                    ),
                ),
                ApiCall::XhrSend {
                    thread,
                    from_worker: true,
                    url,
                    cross_origin: true,
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::WorkerSopBypass,
                    at,
                    (SIG_API, thread.index(), u64::from(url.index())),
                    format!(
                        "cross-origin XHR from worker {thread} to {:?}",
                        trace.resolve(*url)
                    ),
                ),
                ApiCall::CreateWorker {
                    worker,
                    sandboxed: true,
                    ..
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::SandboxOriginInheritance,
                    at,
                    (SIG_API, worker.index(), 0),
                    format!("{worker} created from a sandboxed context"),
                ),
                ApiCall::IdbOpen {
                    thread,
                    private_mode: true,
                    persist: true,
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::PrivateModePersistence,
                    at,
                    (SIG_API, thread.index(), 0),
                    format!("durable indexedDB.open on {thread} during private mode"),
                ),
                ApiCall::IlpCounterRead { thread, .. } => {
                    ilp_reads.entry(thread.index()).or_default().push(at);
                }
                _ => {}
            },
            TraceItem::Fact(fact) => match fact {
                Fact::TransferFreed { buffer } => {
                    freed_buffers.insert(*buffer);
                }
                Fact::FreedBufferAccess { buffer, thread } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::FreedTransferWindow,
                    at,
                    (SIG_SHARED, buffer.index(), 0),
                    format!("{thread} touched freed {buffer}"),
                ),
                Fact::NullDerefOnAssign { worker } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::ClosingWorkerAssignment,
                    at,
                    (SIG_SHARED, worker.index(), 0),
                    format!("null-pointer setter on closing {worker}"),
                ),
                Fact::ErrorMessageDelivered {
                    thread,
                    message,
                    leaked_cross_origin: true,
                    ..
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::ErrorLeak,
                    at,
                    (SIG_FACT, thread.index(), u64::from(message.index())),
                    format!(
                        "cross-origin error text delivered on {thread}: {:?}",
                        trace.resolve(*message)
                    ),
                ),
                Fact::StaleDocCallback { thread } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::StaleDocCompletion,
                    at,
                    (SIG_SHARED, thread.index(), 0),
                    format!("network completion ran against a stale document on {thread}"),
                ),
                Fact::MessageToFreedDoc { from, to } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::FreedDocDelivery,
                    at,
                    (SIG_FACT, from.index(), to.index()),
                    format!("message from {from} delivered into freed document on {to}"),
                ),
                Fact::CallbackAfterClose { thread } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::CallbackAfterCloseWindow,
                    at,
                    (SIG_FACT, thread.index(), 0),
                    format!("worker-message callback ran on {thread} after document close"),
                ),
                Fact::CrossOriginWorkerRequest { thread, url } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::WorkerSopBypass,
                    at,
                    (SIG_FACT, thread.index(), u64::from(url.index())),
                    format!(
                        "cross-origin request left worker {thread} for {:?}",
                        trace.resolve(*url)
                    ),
                ),
                Fact::WorkerStarted {
                    worker,
                    sandboxed_parent: true,
                    inherited_origin: true,
                    ..
                } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::SandboxOriginInheritance,
                    at,
                    (SIG_FACT, worker.index(), 0),
                    format!("{worker} inherited its sandboxed parent's origin"),
                ),
                Fact::IdbPersistedInPrivateMode { thread } => push(
                    &mut out,
                    &mut seen,
                    PatternKind::PrivateModePersistence,
                    at,
                    (SIG_FACT, thread.index(), 0),
                    format!("IndexedDB data persisted during private mode on {thread}"),
                ),
                _ => {}
            },
            _ => {}
        }
    }

    for ((from, to), sends) in &channels {
        let Some((count, median)) = dense_stream(sends) else {
            continue;
        };
        if from == to {
            // A context flooding *itself* is not a cross-thread clock; it is
            // the Loophole event-loop monitor, which leaks what else shares
            // the loop rather than how long the victim's tasks take.
            out.push(PatternFinding {
                kind: PatternKind::SharedLoopContention,
                at: sends[0],
                detail: format!(
                    "thread {from} floods its own event loop with {count} \
                     self-posts (median gap {median} ns) — a shared-loop \
                     contention monitor",
                ),
            });
        } else {
            out.push(PatternFinding {
                kind: PatternKind::ImplicitClockTicker,
                at: sends[0],
                detail: format!(
                    "thread {from} streams {count} posts to thread {to} \
                     (median gap {median} ns) — usable as an implicit clock",
                ),
            });
        }
    }

    for (thread, reads) in &ilp_reads {
        let Some((count, median)) = dense_stream(reads) else {
            continue;
        };
        out.push(PatternFinding {
            kind: PatternKind::IlpStealthyTicker,
            at: reads[0],
            detail: format!(
                "thread {thread} reads the ILP racing counter {count} times \
                 (median gap {median} ns) — a stealthy timer immune to \
                 clock coarsening",
            ),
        });
    }

    out.sort_by(|x, y| (x.at, x.kind, &x.detail).cmp(&(y.at, y.kind, &y.detail)));
    out
}

/// Whether an instant stream is dense enough to serve as a clock:
/// `TICKER_MIN_SENDS` events with a median gap at or below
/// `TICKER_MAX_MEDIAN_GAP`. Returns `(count, median gap in ns)`.
fn dense_stream(instants: &[SimTime]) -> Option<(usize, u64)> {
    if instants.len() < TICKER_MIN_SENDS {
        return None;
    }
    let mut gaps: Vec<u64> = instants
        .windows(2)
        .map(|w| w[1].as_nanos().saturating_sub(w[0].as_nanos()))
        .collect();
    gaps.sort_unstable();
    let median = gaps[gaps.len() / 2];
    (median <= TICKER_MAX_MEDIAN_GAP.as_nanos()).then_some((instants.len(), median))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::ids::ThreadId;

    /// `sends` worker→main posts, `gap_ms` apart.
    fn posts(sends: u64, gap_ms: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..sends {
            t.api(
                SimTime::from_millis(i * gap_ms),
                ApiCall::PostMessage {
                    from: ThreadId::new(1),
                    to: ThreadId::new(0),
                    transfer_count: 0,
                    to_doc_freed: false,
                },
            );
        }
        t
    }

    #[test]
    fn steady_stream_is_a_ticker_slow_stream_is_not() {
        let fast_hits = scan(&posts(40, 1));
        assert_eq!(fast_hits.len(), 1);
        assert_eq!(fast_hits[0].kind, PatternKind::ImplicitClockTicker);
        assert!(scan(&posts(40, 100)).is_empty());
        // The gap bound is inclusive at 20 ms (50 Hz).
        let edge_hits = scan(&posts(20, 20));
        assert_eq!(edge_hits.len(), 1);
        assert_eq!(edge_hits[0].kind, PatternKind::ImplicitClockTicker);
        assert!(scan(&posts(20, 21)).is_empty());
    }

    #[test]
    fn short_bursts_are_not_tickers() {
        // The send threshold is 20: 19 posts are no clock, however dense,
        // and a one-post channel has no gap to take the median of.
        assert!(scan(&posts(19, 1)).is_empty());
        assert!(scan(&posts(1, 1)).is_empty());
    }

    #[test]
    fn freed_buffer_window_needs_the_free_first() {
        use jsk_browser::ids::BufferId;
        let buffer = BufferId::new(4);
        let mut t = Trace::new();
        t.api(
            SimTime::from_millis(1),
            ApiCall::BufferAccess {
                thread: ThreadId::new(0),
                buffer,
                freed: false,
            },
        );
        assert!(scan(&t).is_empty());
        t.fact(SimTime::from_millis(2), Fact::TransferFreed { buffer });
        t.api(
            SimTime::from_millis(3),
            ApiCall::BufferAccess {
                thread: ThreadId::new(0),
                buffer,
                freed: false,
            },
        );
        let hits = scan(&t);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, PatternKind::FreedTransferWindow);
        assert_eq!(hits[0].cve_family(), &["CVE-2014-1488"]);
    }

    #[test]
    fn repeated_evidence_reports_once() {
        let mut t = Trace::new();
        for i in 0..5 {
            t.api(
                SimTime::from_millis(i),
                ApiCall::IdbOpen {
                    thread: ThreadId::new(0),
                    private_mode: true,
                    persist: true,
                },
            );
        }
        assert_eq!(scan(&t).len(), 1);
    }

    #[test]
    fn every_kind_names_a_family() {
        for kind in [
            PatternKind::ImplicitClockTicker,
            PatternKind::MidDispatchTermination,
            PatternKind::FreedTransferWindow,
            PatternKind::AbortAfterOwnerDeath,
            PatternKind::ClosingWorkerAssignment,
            PatternKind::ErrorLeak,
            PatternKind::StaleDocCompletion,
            PatternKind::FreedDocDelivery,
            PatternKind::CallbackAfterCloseWindow,
            PatternKind::WorkerSopBypass,
            PatternKind::SandboxOriginInheritance,
            PatternKind::PrivateModePersistence,
            PatternKind::SharedLoopContention,
            PatternKind::IlpStealthyTicker,
        ] {
            assert!(!kind.cve_family().is_empty());
        }
    }

    #[test]
    fn self_post_flood_is_contention_not_a_ticker() {
        let mut t = Trace::new();
        for i in 0..40u64 {
            t.api(
                SimTime::from_millis(i),
                ApiCall::PostMessage {
                    from: ThreadId::new(0),
                    to: ThreadId::new(0),
                    transfer_count: 0,
                    to_doc_freed: false,
                },
            );
        }
        let hits = scan(&t);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, PatternKind::SharedLoopContention);
        assert!(hits[0].cve_family()[0].contains("loophole"));
    }

    #[test]
    fn dense_ilp_reads_are_a_stealthy_ticker_sparse_are_not() {
        let mut dense = Trace::new();
        let mut sparse = Trace::new();
        for i in 0..30u64 {
            let call = ApiCall::IlpCounterRead {
                thread: ThreadId::new(0),
                chains: 4,
            };
            dense.api(SimTime::from_millis(i * 2), call);
            sparse.api(SimTime::from_millis(i * 100), call);
        }
        let hits = scan(&dense);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, PatternKind::IlpStealthyTicker);
        assert!(hits[0].cve_family()[0].contains("hacky-racers"));
        assert!(scan(&sparse).is_empty());
    }
}
