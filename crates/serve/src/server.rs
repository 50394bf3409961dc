//! The long-running server: shared state behind every connection.
//!
//! A [`Server`] owns the [`ShardPool`], the drain lifecycle, and two
//! metric families:
//!
//! * **site metrics** — every flush's fleet snapshot (series labelled
//!   `{site,policy}{shard}`), merged cumulatively. Byte-identical to what
//!   direct `ShardPool` submission of the same jobs would have produced,
//!   because the wire layer only feeds the same `SiteJob` seam.
//! * **wire metrics** — the front door's own counters (`serve.*`):
//!   connections, frames, malformed frames, submits, sheds, cancels,
//!   flushes, verdicts, deadline misses, drops on close.
//!
//! **Drain lifecycle.** [`Server::begin_drain`] flips the server into
//! draining: transports stop accepting, new submissions are refused
//! (`Error{code="draining"}`), a flush already inside the pool finishes
//! its in-flight attempts and writes the rest off as `Cancelled` (the
//! pool's cancel hook), and each open session is [`drained`] — queued
//! work is flushed, results delivered, and the connection closed with
//! `Bye`. Metrics survive the drain: the final page is the flush of
//! record.
//!
//! [`drained`]: crate::session::Session::drain

use crate::protocol::DEFAULT_MAX_FRAME;
use jsk_observe::{render_text, MetricsSnapshot};
use jsk_shard::serve::{ServeConfig, ShardPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Front-door configuration wrapped around the pool's [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The shard pool the server wraps.
    pub serve: ServeConfig,
    /// Bound on each connection's submission queue; submits past it are
    /// shed (`stage = "queue"`). 0 = unbounded.
    pub queue_capacity: usize,
    /// Bound on one frame's payload bytes.
    pub max_frame_len: usize,
    /// Bound on concurrent TCP connections; excess connections get
    /// `Error{code="busy"}` and are closed. 0 = unbounded.
    pub max_conns: usize,
}

impl ServerConfig {
    /// A front door over `shards` kernel shards driven by up to `workers`
    /// pool workers per flush (the flushing connection's thread is one of
    /// them), with library defaults: 64-deep connection queues, 1 MiB
    /// frames, 32 concurrent connections.
    #[must_use]
    pub fn new(shards: usize, workers: usize) -> ServerConfig {
        ServerConfig {
            serve: ServeConfig::new(shards, workers),
            queue_capacity: 64,
            max_frame_len: DEFAULT_MAX_FRAME,
            max_conns: 32,
        }
    }

    /// Sets the per-connection queue bound.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServerConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the concurrent-connection bound.
    #[must_use]
    pub fn with_max_conns(mut self, max: usize) -> ServerConfig {
        self.max_conns = max;
        self
    }

    /// Replaces the wrapped pool configuration.
    #[must_use]
    pub fn with_serve(mut self, serve: ServeConfig) -> ServerConfig {
        self.serve = serve;
        self
    }
}

/// The front door's own counters. Deterministic given a deterministic
/// request sequence; exported under `serve.*` names on the metrics page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Sessions opened.
    pub connections: u64,
    /// Well-formed frames parsed.
    pub frames: u64,
    /// Frame/encoding errors (each one killed its connection).
    pub malformed: u64,
    /// Submissions accepted into a queue.
    pub submits: u64,
    /// Submissions shed (queue or shard stage).
    pub sheds: u64,
    /// Queued submissions removed by `cancel` requests.
    pub cancels: u64,
    /// Flushes served through the pool.
    pub flushes: u64,
    /// Verdicts streamed.
    pub verdicts: u64,
    /// Served sites reported past their deadline.
    pub deadline_missed: u64,
    /// Queued submissions dropped by `bye`/disconnect without a flush.
    pub dropped_on_close: u64,
    /// Sessions finished by a server-side drain.
    pub drained_sessions: u64,
}

impl WireStats {
    /// The stats as a mergeable snapshot of `serve.*` counters.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let mut c = |name: &str, v: u64| {
            snap.counters.insert(name.to_owned(), v);
        };
        c("serve.connections", self.connections);
        c("serve.frames", self.frames);
        c("serve.malformed", self.malformed);
        c("serve.submits", self.submits);
        c("serve.sheds", self.sheds);
        c("serve.cancels", self.cancels);
        c("serve.flushes", self.flushes);
        c("serve.verdicts", self.verdicts);
        c("serve.deadline_missed", self.deadline_missed);
        c("serve.dropped_on_close", self.dropped_on_close);
        c("serve.drained_sessions", self.drained_sessions);
        snap
    }
}

/// Cumulative state shared by every session.
#[derive(Debug, Default)]
struct Shared {
    site_metrics: MetricsSnapshot,
    wire: WireStats,
}

/// The long-running server. Wrap it in an [`Arc`] and hand clones to
/// transports; see the module docs for the lifecycle.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    pool: ShardPool,
    draining: AtomicBool,
    cancel: AtomicBool,
    shared: Mutex<Shared>,
}

impl Server {
    /// Builds a server (and its pool) from the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the wrapped [`ServeConfig`] carries an invalid fault
    /// plan — same strictness as [`ShardPool::new`].
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Arc<Server> {
        let pool = ShardPool::new(cfg.serve.clone());
        Arc::new(Server {
            cfg,
            pool,
            draining: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            shared: Mutex::new(Shared::default()),
        })
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The wrapped pool.
    #[must_use]
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// The cancel flag a flush hands to
    /// [`ShardPool::serve_with_cancel`] — set once the server drains.
    #[must_use]
    pub fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    /// Flips the server into draining: no new submissions, in-flight
    /// attempts finish, queued work is written off accountably.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.cancel.store(true, Ordering::Release);
    }

    /// Whether a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Cumulative site metrics: every flush's fleet snapshot merged.
    #[must_use]
    pub fn site_metrics(&self) -> MetricsSnapshot {
        self.state().site_metrics.clone()
    }

    /// The front door's own counters.
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.state().wire
    }

    /// Renders the `/metrics`-style page: site metrics and `serve.*`
    /// wire counters in one exposition.
    #[must_use]
    pub fn metrics_page(&self) -> String {
        let shared = self.state();
        let mut merged = shared.site_metrics.clone();
        merged.merge(&shared.wire.snapshot());
        render_text(&merged)
    }

    /// Folds one flush's fleet metrics into the cumulative view.
    pub(crate) fn merge_site_metrics(&self, snap: &MetricsSnapshot) {
        self.state().site_metrics.merge(snap);
    }

    /// Mutates the wire counters under the state lock.
    pub(crate) fn with_wire<R>(&self, f: impl FnOnce(&mut WireStats) -> R) -> R {
        f(&mut self.state().wire)
    }

    /// The shared state, recovered if a holder panicked: it is plain
    /// counters and metric series, valid between any two updates, so one
    /// panicking connection cannot take `/metrics` or the drain down.
    fn state(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
