//! The kernel thread manager (paper §III-E).
//!
//! The thread manager mirrors every user-visible worker with a *kernel
//! thread object* carrying four fields — status, ID, src, and the backing
//! kernel worker — and tracks the obligations a defense must see settle
//! before real teardown is safe: in-flight fetches and live transferred
//! buffers. This state feeds the per-CVE policies (keep the kernel worker
//! alive while a transferred buffer lives; suppress aborts to dead
//! workers; …).

use jsk_browser::ids::{BufferId, RequestId, ThreadId, WorkerId};
use jsk_browser::trace::Sym;
use jsk_sim::fasthash::{FastMap, FastSet};

/// Kernel thread status (paper: "started", "ready", "closed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KThreadStatus {
    /// The kernel thread exists; the user thread has not loaded.
    Started,
    /// The user thread loaded and processes events.
    Ready,
    /// Closed at the *user* level while the kernel keeps it alive to let
    /// obligations settle.
    UserClosed,
    /// Fully closed.
    Closed,
}

/// The kernel-side record of one worker (the paper's thread object).
#[derive(Debug, Clone)]
pub struct KernelThread {
    /// Unique identifier (the paper's ID field).
    pub worker: WorkerId,
    /// The backing browser thread (the paper's kernelWorker field).
    pub kernel_worker: ThreadId,
    /// The creating thread.
    pub owner: ThreadId,
    /// The user thread source (the paper's src field), interned in the
    /// browser trace. One symbol — registration no longer clones the URL.
    pub src: Sym,
    /// Status.
    pub status: KThreadStatus,
    /// Fetches this worker has in flight (tracked through the
    /// pendingChildFetch / confirmFetch kernel messages of Listing 4).
    pub pending_fetches: FastSet<RequestId>,
    /// Buffers this worker transferred out that are still live.
    pub live_transfers: FastSet<BufferId>,
}

/// The kernel's thread table.
#[derive(Debug, Default)]
pub struct ThreadManager {
    threads: FastMap<WorkerId, KernelThread>,
    by_browser_thread: FastMap<ThreadId, WorkerId>,
}

impl ThreadManager {
    /// Creates an empty manager.
    #[must_use]
    pub fn new() -> ThreadManager {
        ThreadManager::default()
    }

    /// Registers a new kernel thread for a created worker.
    pub fn register(
        &mut self,
        worker: WorkerId,
        kernel_worker: ThreadId,
        owner: ThreadId,
        src: Sym,
    ) {
        self.threads.insert(
            worker,
            KernelThread {
                worker,
                kernel_worker,
                owner,
                src,
                status: KThreadStatus::Started,
                pending_fetches: FastSet::default(),
                live_transfers: FastSet::default(),
            },
        );
        self.by_browser_thread.insert(kernel_worker, worker);
    }

    /// Binds (or re-binds) a worker's backing browser thread once it is
    /// known — worker registration happens at the `CreateWorker`
    /// interception, before the browser spawns the thread.
    pub fn bind(&mut self, worker: WorkerId, kernel_worker: ThreadId) {
        if let Some(t) = self.threads.get_mut(&worker) {
            self.by_browser_thread.remove(&t.kernel_worker);
            t.kernel_worker = kernel_worker;
            self.by_browser_thread.insert(kernel_worker, worker);
        }
    }

    /// Lookup by worker id.
    #[must_use]
    pub fn get(&self, worker: WorkerId) -> Option<&KernelThread> {
        self.threads.get(&worker)
    }

    /// Mutable lookup by worker id.
    pub fn get_mut(&mut self, worker: WorkerId) -> Option<&mut KernelThread> {
        self.threads.get_mut(&worker)
    }

    /// Lookup by the backing browser thread.
    #[must_use]
    pub fn by_thread(&self, thread: ThreadId) -> Option<&KernelThread> {
        self.by_browser_thread
            .get(&thread)
            .and_then(|w| self.threads.get(w))
    }

    /// Mutable lookup by the backing browser thread.
    pub fn by_thread_mut(&mut self, thread: ThreadId) -> Option<&mut KernelThread> {
        let w = *self.by_browser_thread.get(&thread)?;
        self.threads.get_mut(&w)
    }

    /// Records a fetch going in flight for the worker on `thread`.
    pub fn note_fetch(&mut self, thread: ThreadId, req: RequestId) {
        if let Some(t) = self.by_thread_mut(thread) {
            t.pending_fetches.insert(req);
        }
    }

    /// Records a fetch settling.
    pub fn settle_fetch(&mut self, req: RequestId) {
        for t in self.threads.values_mut() {
            t.pending_fetches.remove(&req);
        }
    }

    /// Whether real teardown of `worker` is safe (no outstanding
    /// obligations).
    #[must_use]
    pub fn safe_to_close(&self, worker: WorkerId) -> bool {
        self.get(worker)
            .is_none_or(|t| t.pending_fetches.is_empty() && t.live_transfers.is_empty())
    }

    /// Whether a request belongs to a worker the user already closed.
    #[must_use]
    pub fn owned_by_user_closed(&self, req: RequestId) -> bool {
        self.threads.values().any(|t| {
            t.pending_fetches.contains(&req)
                && matches!(t.status, KThreadStatus::UserClosed | KThreadStatus::Closed)
        })
    }

    /// All registered kernel threads.
    pub fn iter(&self) -> impl Iterator<Item = &KernelThread> {
        self.threads.values()
    }

    /// Number of registered kernel threads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether no threads are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_js() -> Sym {
        jsk_browser::trace::Interner::new().intern("worker.js")
    }

    fn mgr() -> ThreadManager {
        let mut m = ThreadManager::new();
        m.register(
            WorkerId::new(0),
            ThreadId::new(1),
            ThreadId::new(0),
            worker_js(),
        );
        m
    }

    #[test]
    fn register_and_lookup_both_ways() {
        let m = mgr();
        assert_eq!(m.len(), 1);
        let t = m.get(WorkerId::new(0)).unwrap();
        assert_eq!(t.kernel_worker, ThreadId::new(1));
        assert_eq!(t.src, worker_js());
        assert_eq!(t.status, KThreadStatus::Started);
        assert_eq!(
            m.by_thread(ThreadId::new(1)).unwrap().worker,
            WorkerId::new(0)
        );
        assert!(m.by_thread(ThreadId::new(9)).is_none());
    }

    #[test]
    fn fetch_obligations_gate_teardown() {
        let mut m = mgr();
        assert!(m.safe_to_close(WorkerId::new(0)));
        m.note_fetch(ThreadId::new(1), RequestId::new(7));
        assert!(!m.safe_to_close(WorkerId::new(0)));
        m.settle_fetch(RequestId::new(7));
        assert!(m.safe_to_close(WorkerId::new(0)));
    }

    #[test]
    fn transfer_obligations_gate_teardown() {
        let mut m = mgr();
        m.get_mut(WorkerId::new(0))
            .unwrap()
            .live_transfers
            .insert(BufferId::new(3));
        assert!(!m.safe_to_close(WorkerId::new(0)));
    }

    #[test]
    fn user_closed_workers_flag_their_requests() {
        let mut m = mgr();
        m.note_fetch(ThreadId::new(1), RequestId::new(7));
        assert!(!m.owned_by_user_closed(RequestId::new(7)));
        m.get_mut(WorkerId::new(0)).unwrap().status = KThreadStatus::UserClosed;
        assert!(m.owned_by_user_closed(RequestId::new(7)));
    }

    #[test]
    fn unknown_worker_is_safe_to_close() {
        let m = ThreadManager::new();
        assert!(m.safe_to_close(WorkerId::new(42)));
        assert!(m.is_empty());
    }
}
