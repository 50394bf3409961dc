//! The sharded serving core: per-site kernel shards, a work-stealing
//! worker pool, and a supervisor.
//!
//! A [`ShardPool`] serves a list of [`SiteJob`]s across `N` shards. Each
//! shard is a sequential serving lane: it owns the kernel state of every
//! site homed on it (each site run builds its own `JsKernel`, with its
//! `KernelEventQueue`, `KernelClock`, and policy tables, inside the job),
//! a FIFO queue of pending sites, and a **virtual timeline** — the
//! cumulative simulated milliseconds of everything it has served.
//!
//! **Workers.** Each serve drives the shards with `min(workers, queued
//! sites)` workers, at least one. The calling thread is worker 0 and only
//! workers `1..` are spawned, so a one-site flush runs on the caller and
//! spawns nothing. Worker `w` owns the shards `s` with `s % workers == w`
//! and may **steal** a pending site from any other shard when its own
//! lanes drain, unless the fault plan partitions the victim shard away
//! from the thief's home shard at that virtual instant. The owner is
//! always allowed to drive its own shard, so a partition can slow a shard
//! down but never wedge it — the progress guarantee the chaos matrix
//! leans on. All lanes sit behind one scheduler lock: a worker pops a
//! site and marks its lane busy under the lock, runs the site with the
//! lock released, and re-takes it to account the attempt, so a lane
//! still serves one site at a time, in order. A worker with nothing it
//! may run sleeps on a condvar that every commit, quarantine, and
//! cancel-drain signals; an idle worker never spins.
//!
//! **Determinism.** Every [`SiteReport`] is a pure function of
//! `(job, shard id, fault plan)`: shards serialize their own sites in
//! submission order, job outputs depend only on their seed and
//! configuration, and crash/restart accounting runs on the shard's virtual
//! timeline — never on wall-clock or on which worker happened to hold the
//! lane. Run the same jobs with 1 worker or 16 and the report is
//! bit-identical; that invariant is pinned by `tests/determinism.rs` and
//! the chaos matrix.
//!
//! **Supervision.** The fault plan's [`ShardCrash`] entries kill a shard
//! at a fixed instant on its virtual timeline. The attempt in flight is
//! discarded **wholly** — its verdict, metrics, and kernel stats are not
//! merged, so a restarted site is accounted exactly once (the shard-level
//! twin of the kernel's same-tick watchdog/orphan rule). The supervisor
//! then restarts the shard after a backoff that doubles per restart, up to
//! [`ServeConfig::max_restarts`]; past that the shard is **quarantined**
//! and its remaining sites are reported as [`SiteOutcome::Quarantined`]
//! rather than served with untrustworthy state.
//!
//! **Admission control.** With a bounded [`ServeConfig::admission_capacity`],
//! sites beyond a shard's queue capacity are load-shed at submission
//! ([`SiteOutcome::Shed`]) instead of growing the queue without bound —
//! the serving-layer analogue of the kernel's bounded equeue, whose
//! overflow path refuses registrations (`ConfirmDecision::Drop` for their
//! late confirmations) rather than wedging dispatch.

use jsk_observe::MetricsSnapshot;
use jsk_sim::fault::{FaultPlan, ShardCrash};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Configuration of a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of kernel shards (serving lanes). Clamped to at least 1.
    pub shards: usize,
    /// Most worker threads driving the shards in one serve, the calling
    /// thread included; a serve uses at most one per queued site. Clamped
    /// to at least 1. Worker count never changes any report — only
    /// wall-clock.
    pub workers: usize,
    /// How many times the supervisor restarts a crashed shard before
    /// quarantining it.
    pub max_restarts: u32,
    /// Base restart backoff on the shard's virtual timeline, in
    /// milliseconds; restart `n` (1-based) waits `backoff << (n-1)`.
    pub restart_backoff_ms: u64,
    /// Bound on each shard's pending-site queue; sites submitted beyond it
    /// are load-shed. `0` = unbounded.
    pub admission_capacity: usize,
    /// Fault plan shared by the whole fleet: shard-addressed faults
    /// (crashes, partitions, clock skews) apply to their shard, and the
    /// plan is also handed to every site's browser.
    pub fault: Option<FaultPlan>,
}

impl ServeConfig {
    /// A supervision-enabled configuration with library defaults: 3
    /// restarts, 10 ms base backoff, unbounded admission, no faults.
    #[must_use]
    pub fn new(shards: usize, workers: usize) -> ServeConfig {
        ServeConfig {
            shards,
            workers,
            max_restarts: 3,
            restart_backoff_ms: 10,
            admission_capacity: 0,
            fault: None,
        }
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> ServeConfig {
        self.fault = Some(plan);
        self
    }

    /// Bounds each shard's pending-site queue.
    #[must_use]
    pub fn with_admission_capacity(mut self, capacity: usize) -> ServeConfig {
        self.admission_capacity = capacity;
        self
    }

    /// Sets the supervisor's restart budget and base backoff.
    #[must_use]
    pub fn with_restarts(mut self, max_restarts: u32, backoff_ms: u64) -> ServeConfig {
        self.max_restarts = max_restarts;
        self.restart_backoff_ms = backoff_ms;
        self
    }
}

/// What a [`SiteJob`] closure receives: everything a site run may depend
/// on. Outputs must be a pure function of this context.
#[derive(Debug, Clone)]
pub struct SiteCtx {
    /// The shard serving this site (feed it to
    /// `BrowserConfig::with_shard` so shard-addressed clock skew lands).
    pub shard: u64,
    /// The site's label.
    pub site: String,
    /// The site's seed (independent of shard, so the same site serves
    /// bit-identically on any shard).
    pub seed: u64,
    /// The fleet fault plan, if any (install via
    /// `BrowserConfig::with_fault`).
    pub fault: Option<FaultPlan>,
}

/// What one site run produced.
#[derive(Debug, Clone)]
pub struct SiteOutput {
    /// Attack verdict, when the site is an attack program (`None` for
    /// plain workloads).
    pub defended: Option<bool>,
    /// Deterministic free-form record of the run (measurements, counts).
    pub detail: String,
    /// Virtual milliseconds the run consumed — advances the shard's
    /// timeline (clamped to at least 1 so timelines always progress).
    pub sim_ms: u64,
    /// Whether the run wedged and was rescued by graceful degradation, as
    /// [`KernelStats::wedged`](jsk_core::stats::KernelStats::wedged)
    /// reports it (watchdog expiries, orphan reaps or event-queue
    /// overflows).
    pub wedged: bool,
    /// The site's own (unlabelled) metrics snapshot; the shard merges it,
    /// the fleet view labels it by shard id.
    pub metrics: MetricsSnapshot,
}

/// The closure form of a site program.
pub type SiteFn = Arc<dyn Fn(&SiteCtx) -> SiteOutput + Send + Sync>;

/// One site to serve: a label, a seed, and the program that runs it.
#[derive(Clone)]
pub struct SiteJob {
    /// Site label (unique per job for readable reports).
    pub site: String,
    /// Seed handed to the program through [`SiteCtx`].
    pub seed: u64,
    run: SiteFn,
}

impl SiteJob {
    /// Wraps a program closure into a job.
    pub fn new<F>(site: impl Into<String>, seed: u64, run: F) -> SiteJob
    where
        F: Fn(&SiteCtx) -> SiteOutput + Send + Sync + 'static,
    {
        SiteJob {
            site: site.into(),
            seed,
            run: Arc::new(run),
        }
    }
}

impl std::fmt::Debug for SiteJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteJob")
            .field("site", &self.site)
            .field("seed", &self.seed)
            .finish()
    }
}

/// How one site ended up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// The site ran to completion.
    Served {
        /// Attack verdict (`None` for plain workloads).
        defended: Option<bool>,
        /// The run's deterministic record.
        detail: String,
        /// Whether graceful degradation had to step in.
        wedged: bool,
    },
    /// Load-shed at admission: the shard's queue was full.
    Shed,
    /// The shard was quarantined before (or while) this site could be
    /// served trustworthily.
    Quarantined,
    /// Still queued when the serve was cancelled
    /// ([`ShardPool::serve_with_cancel`]): never attempted, reported so a
    /// draining front door can account for every accepted submission.
    Cancelled,
}

/// One site's row in a shard report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteReport {
    /// Site label.
    pub site: String,
    /// The job's seed.
    pub seed: u64,
    /// How it ended up.
    pub outcome: SiteOutcome,
    /// Run attempts (restart reruns included; 0 when never attempted).
    pub attempts: u32,
    /// Virtual completion instant on the shard timeline (0 unless served).
    pub completed_at_ms: u64,
}

/// One shard's full accounting for a serve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard id.
    pub shard: u64,
    /// Per-site rows, in submission order.
    pub sites: Vec<SiteReport>,
    /// Sites served to completion.
    pub served: u64,
    /// Sites load-shed at admission.
    pub shed: u64,
    /// Sites reported quarantined.
    pub quarantined_sites: u64,
    /// Sites still queued when a cancelled serve drained this shard.
    #[serde(default)]
    pub cancelled: u64,
    /// Supervisor restarts consumed.
    pub restarts: u32,
    /// Whether the shard ended quarantined.
    pub is_quarantined: bool,
    /// Served sites that wedged and were rescued by degradation.
    pub wedges: u64,
    /// Final virtual timeline, in milliseconds.
    pub virtual_ms: u64,
    /// Heartbeats gossiped to the ring neighbour `(shard + 1) % N` (one
    /// per served site, stamped with its completion instant).
    pub heartbeats_sent: u64,
    /// Heartbeats the plan's partitions cut on the way out.
    pub heartbeats_dropped: u64,
    /// Merged (unlabelled) metrics of every served site.
    pub metrics: MetricsSnapshot,
}

impl ShardReport {
    /// The row for `site`, if this shard saw it.
    #[must_use]
    pub fn site(&self, site: &str) -> Option<&SiteReport> {
        self.sites.iter().find(|s| s.site == site)
    }

    /// The site rows reduced to their outcomes — the shard's *service*
    /// content, independent of restart accounting (`attempts`,
    /// `completed_at_ms`). Two shards served identically iff these match.
    #[must_use]
    pub fn outcomes(&self) -> Vec<(String, SiteOutcome)> {
        self.sites
            .iter()
            .map(|s| (s.site.clone(), s.outcome.clone()))
            .collect()
    }
}

/// The full fleet report of one serve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-shard reports, indexed by shard id.
    pub shards: Vec<ShardReport>,
    /// Every shard's metrics merged under a `{shard=<id>}` label, so the
    /// per-shard series stay separable in one registry.
    pub fleet_metrics: MetricsSnapshot,
}

impl ServeReport {
    /// All served sites across all shards whose verdict is `defended ==
    /// Some(false)` — the rows a security gate must find empty.
    #[must_use]
    pub fn undefended(&self) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        for sh in &self.shards {
            for s in &sh.sites {
                if let SiteOutcome::Served {
                    defended: Some(false),
                    ..
                } = s.outcome
                {
                    out.push((sh.shard, s.site.clone()));
                }
            }
        }
        out
    }

    /// Totals across shards: `(served, shed, quarantined, restarts)`.
    #[must_use]
    pub fn totals(&self) -> (u64, u64, u64, u32) {
        self.shards.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.served,
                acc.1 + s.shed,
                acc.2 + s.quarantined_sites,
                acc.3 + s.restarts,
            )
        })
    }

    /// Sites written off as [`SiteOutcome::Cancelled`] across the fleet.
    #[must_use]
    pub fn cancelled(&self) -> u64 {
        self.shards.iter().map(|s| s.cancelled).sum()
    }

    /// Total site rows across the fleet — served, shed, quarantined, and
    /// cancelled alike.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.shards.iter().map(|s| s.sites.len()).sum()
    }

    /// How many of `submitted` jobs have **no** row in this report. A
    /// correct serve — cancelled or not — always returns 0: every
    /// accepted submission must be accounted for, the invariant a front
    /// door's drain test pins ("zero orphaned shards").
    #[must_use]
    pub fn orphans(&self, submitted: usize) -> usize {
        submitted.saturating_sub(self.rows())
    }

    /// Deterministic pretty JSON of the report.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialize");
        s.push('\n');
        s
    }
}

/// One shard's mutable serving state, behind the scheduler lock.
struct ShardState {
    queue: VecDeque<(usize, SiteJob)>,
    t_ms: u64,
    restarts: u32,
    quarantined: bool,
    crashes: VecDeque<ShardCrash>,
    /// `(submission index, report)` — sorted at finalize.
    sites: Vec<(usize, SiteReport)>,
    metrics: MetricsSnapshot,
    beats: Vec<u64>,
    wedges: u64,
    shed: u64,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            queue: VecDeque::new(),
            t_ms: 0,
            restarts: 0,
            quarantined: false,
            crashes: VecDeque::new(),
            sites: Vec::new(),
            metrics: MetricsSnapshot::default(),
            beats: Vec::new(),
            wedges: 0,
            shed: 0,
        }
    }
}

/// The sharded serving pool. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct ShardPool {
    cfg: ServeConfig,
}

impl ShardPool {
    /// Builds a pool.
    ///
    /// # Panics
    ///
    /// Panics when the configured fault plan fails
    /// [`FaultPlan::validate`] — the same strictness as
    /// `FaultInjector::new`, surfaced before any worker thread spawns.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> ShardPool {
        if let Some(plan) = &cfg.fault {
            if let Err(e) = plan.validate() {
                panic!("invalid fault plan: {e}");
            }
        }
        ShardPool { cfg }
    }

    /// The pool's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serves every job — site `i` homes on shard `i % shards` — and
    /// returns the fleet report. Deterministic for any worker count.
    #[must_use]
    pub fn serve(&self, jobs: Vec<SiteJob>) -> ServeReport {
        self.serve_inner(jobs, None)
    }

    /// Like [`serve`](ShardPool::serve), but cooperatively cancellable: a
    /// front door's drain path sets `cancel` and the pool stops *starting*
    /// sites — every attempt already in flight finishes (its verdict is
    /// trustworthy and reported), and everything still queued is written
    /// off as [`SiteOutcome::Cancelled`] rather than silently dropped, so
    /// the report still accounts for every submitted job
    /// ([`ServeReport::orphans`] stays 0). With the flag set before the
    /// call, the entire batch is deterministically cancelled; a flag set
    /// mid-serve is a teardown — *which* sites finished first depends on
    /// wall-clock, only the accounting invariants are stable.
    #[must_use]
    pub fn serve_with_cancel(&self, jobs: Vec<SiteJob>, cancel: &AtomicBool) -> ServeReport {
        self.serve_inner(jobs, Some(cancel))
    }

    fn serve_inner(&self, jobs: Vec<SiteJob>, cancel: Option<&AtomicBool>) -> ServeReport {
        let n_shards = self.cfg.shards.max(1);
        let capacity = self.cfg.admission_capacity;
        let plan = self.cfg.fault.as_ref();

        let mut states: Vec<ShardState> = (0..n_shards).map(|_| ShardState::new()).collect();
        // Admission: queue each site on its home shard, shedding past the
        // bound.
        let mut queued = 0usize;
        for (i, job) in jobs.into_iter().enumerate() {
            let s = i % n_shards;
            let st = &mut states[s];
            if capacity > 0 && st.queue.len() >= capacity {
                st.shed += 1;
                st.sites.push((
                    i,
                    SiteReport {
                        site: job.site,
                        seed: job.seed,
                        outcome: SiteOutcome::Shed,
                        attempts: 0,
                        completed_at_ms: 0,
                    },
                ));
            } else {
                st.queue.push_back((i, job));
                queued += 1;
            }
        }
        // The crash schedule, sorted onto each shard's timeline.
        if let Some(p) = plan {
            for c in &p.shard_crashes {
                if let Some(st) = states.get_mut(c.shard as usize) {
                    st.crashes.push_back(*c);
                }
            }
            for st in &mut states {
                st.crashes.make_contiguous().sort_by_key(|c| c.at_ms);
            }
        }

        // The caller is worker 0; a flush never gets more workers than it
        // has queued sites, so a one-site flush spawns no thread at all.
        let workers = self.cfg.workers.min(queued).max(1);
        let sched = Sched {
            lanes: Mutex::new(Lanes {
                busy: vec![false; n_shards],
                states,
                remaining: queued,
            }),
            wake: Condvar::new(),
            workers,
            cfg: &self.cfg,
            cancel,
        };
        std::thread::scope(|scope| {
            for w in 1..workers {
                let sched = &sched;
                scope.spawn(move || worker_loop(w, sched));
            }
            worker_loop(0, &sched);
        });

        // Finalize: order rows, gossip heartbeats, label the fleet view.
        let mut shards = Vec::with_capacity(n_shards);
        let mut fleet = MetricsSnapshot::default();
        let lanes = sched.lanes.into_inner().expect("scheduler lock");
        for (s, mut st) in lanes.states.into_iter().enumerate() {
            st.sites.sort_by_key(|(i, _)| *i);
            let neighbour = ((s + 1) % n_shards) as u64;
            let dropped = plan
                .map(|p| {
                    st.beats
                        .iter()
                        .filter(|t| p.partitioned(s as u64, neighbour, **t))
                        .count() as u64
                })
                .unwrap_or(0);
            let served = st.beats.len() as u64;
            let quarantined_sites = st
                .sites
                .iter()
                .filter(|(_, r)| r.outcome == SiteOutcome::Quarantined)
                .count() as u64;
            let cancelled = st
                .sites
                .iter()
                .filter(|(_, r)| r.outcome == SiteOutcome::Cancelled)
                .count() as u64;
            fleet.merge(&st.metrics.with_label("shard", &s.to_string()));
            shards.push(ShardReport {
                shard: s as u64,
                sites: st.sites.into_iter().map(|(_, r)| r).collect(),
                served,
                shed: st.shed,
                quarantined_sites,
                cancelled,
                restarts: st.restarts,
                is_quarantined: st.quarantined,
                wedges: st.wedges,
                virtual_ms: st.t_ms,
                heartbeats_sent: served,
                heartbeats_dropped: dropped,
                metrics: st.metrics,
            });
        }
        ServeReport {
            shards,
            fleet_metrics: fleet,
        }
    }
}

/// One serve's scheduler: every lane behind one lock, and a condvar idle
/// workers sleep on.
struct Sched<'a> {
    lanes: Mutex<Lanes>,
    /// Signalled on every commit, quarantine, and cancel-drain. No wake-up
    /// is lost: a sleeper waits only on busy lanes (which signal when they
    /// commit) or refused steals (whose owner is never refused and signals
    /// when it commits).
    wake: Condvar,
    workers: usize,
    cfg: &'a ServeConfig,
    cancel: Option<&'a AtomicBool>,
}

/// The state under the scheduler lock.
struct Lanes {
    states: Vec<ShardState>,
    /// `busy[s]`: shard `s` has a site running outside the lock.
    busy: Vec<bool>,
    /// Queued sites not yet accounted for; the serve ends at 0.
    remaining: usize,
}

impl Sched<'_> {
    fn lock(&self) -> MutexGuard<'_, Lanes> {
        self.lanes.lock().expect("scheduler lock")
    }
}

/// One worker: drive owned shards, steal when dry, sleep when nothing can
/// run, stop when every queued site is accounted for.
fn worker_loop(w: usize, sched: &Sched<'_>) {
    let plan = sched.cfg.fault.as_ref();
    let mut lanes = sched.lock();
    let n = lanes.states.len();
    let home = (w % n) as u64;
    while lanes.remaining > 0 {
        let cancelled = sched.cancel.is_some_and(|c| c.load(Ordering::Acquire));
        let pick = (0..n).map(|off| (w + off) % n).find(|&s| {
            let st = &lanes.states[s];
            if lanes.busy[s] || st.quarantined || st.queue.is_empty() {
                return false;
            }
            // A steal moves shard `s`'s work toward this worker's home
            // shard; a partition of that path at the victim's current
            // virtual instant refuses it. The owner is never refused, so
            // partitions degrade parallelism, not progress. Cancellation
            // drains are exempt: writing off a queue is teardown
            // accounting, not work movement.
            s % sched.workers == w
                || cancelled
                || !plan.is_some_and(|p| p.partitioned(s as u64, home, st.t_ms))
        });
        match pick {
            None => lanes = sched.wake.wait(lanes).expect("scheduler lock"),
            Some(s) if cancelled => {
                let consumed = write_off(&mut lanes.states[s], &SiteOutcome::Cancelled);
                lanes.remaining -= consumed;
                sched.wake.notify_all();
            }
            Some(s) => lanes = run_one(lanes, s, sched),
        }
    }
}

/// Reports every still-queued site of one shard as `outcome`, never
/// attempted (a cancelled serve's drain, or a quarantine). Returns how
/// many were consumed.
fn write_off(st: &mut ShardState, outcome: &SiteOutcome) -> usize {
    let mut consumed = 0;
    while let Some((j, jb)) = st.queue.pop_front() {
        st.sites.push((
            j,
            SiteReport {
                site: jb.site,
                seed: jb.seed,
                outcome: outcome.clone(),
                attempts: 0,
                completed_at_ms: 0,
            },
        ));
        consumed += 1;
    }
    consumed
}

/// Runs the next site of shard `s`, handling crash/restart/quarantine.
///
/// The site pops and its lane is marked busy under the lock; the job runs
/// with the lock released; the lock is re-taken to account the attempt.
/// The shard's timeline and crash schedule are only touched under the
/// lock, and a busy lane is never picked, so a lane still serves one site
/// at a time, in order. A panicking job counts as a crash at the
/// attempt's start instant.
fn run_one<'a>(
    mut lanes: MutexGuard<'a, Lanes>,
    s: usize,
    sched: &'a Sched<'_>,
) -> MutexGuard<'a, Lanes> {
    let cfg = sched.cfg;
    let (idx, job) = lanes.states[s]
        .queue
        .pop_front()
        .expect("caller checked non-empty");
    lanes.busy[s] = true;
    let ctx = SiteCtx {
        shard: s as u64,
        site: job.site.clone(),
        seed: job.seed,
        fault: cfg.fault.clone(),
    };
    let mut attempts = 0u32;
    let consumed = loop {
        attempts += 1;
        drop(lanes);
        let run = catch_unwind(AssertUnwindSafe(|| (job.run)(&ctx)));
        lanes = sched.lock();
        let st = &mut lanes.states[s];
        let crash_at = match &run {
            // A panic is a crash at the attempt's start instant.
            Err(_) => Some(st.t_ms),
            Ok(out) => {
                let end = st.t_ms + out.sim_ms.max(1);
                match st.crashes.front() {
                    Some(c) if c.at_ms < end => st.crashes.pop_front().map(|c| c.at_ms),
                    _ => None,
                }
            }
        };
        if let Some(at_ms) = crash_at {
            // The shard died mid-attempt. The attempt is discarded
            // wholly — verdict, metrics, and kernel stats are dropped,
            // never merged — so the rerun is accounted exactly once.
            if st.restarts >= cfg.max_restarts {
                st.quarantined = true;
                st.sites.push((
                    idx,
                    SiteReport {
                        site: job.site.clone(),
                        seed: job.seed,
                        outcome: SiteOutcome::Quarantined,
                        attempts,
                        completed_at_ms: 0,
                    },
                ));
                break 1 + write_off(st, &SiteOutcome::Quarantined);
            }
            st.restarts += 1;
            let shift = (st.restarts - 1).min(20);
            let backoff = cfg.restart_backoff_ms.saturating_mul(1u64 << shift);
            st.t_ms = st.t_ms.max(at_ms).saturating_add(backoff);
            continue;
        }
        let out = run.expect("a panicked attempt is a crash");
        st.t_ms += out.sim_ms.max(1);
        if out.wedged {
            st.wedges += 1;
        }
        st.metrics.merge(&out.metrics);
        st.beats.push(st.t_ms);
        st.sites.push((
            idx,
            SiteReport {
                site: job.site.clone(),
                seed: job.seed,
                outcome: SiteOutcome::Served {
                    defended: out.defended,
                    detail: out.detail,
                    wedged: out.wedged,
                },
                attempts,
                completed_at_ms: st.t_ms,
            },
        ));
        break 1;
    };
    lanes.busy[s] = false;
    lanes.remaining -= consumed;
    sched.wake.notify_all();
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial deterministic site program: records its context, takes
    /// `cost_ms` of virtual time, bumps one counter.
    fn job(site: &str, seed: u64, cost_ms: u64) -> SiteJob {
        SiteJob::new(site, seed, move |ctx| {
            let mut m = jsk_observe::Observer::new();
            use jsk_observe::Subscriber;
            let c = m.intern("site.runs");
            m.counter_add(c, 1);
            SiteOutput {
                defended: Some(true),
                detail: format!("shard={} seed={}", ctx.shard, ctx.seed),
                sim_ms: cost_ms,
                wedged: false,
                metrics: m.metrics(),
            }
        })
    }

    fn jobs(n: usize, cost_ms: u64) -> Vec<SiteJob> {
        (0..n)
            .map(|i| job(&format!("site-{i}"), 100 + i as u64, cost_ms))
            .collect()
    }

    #[test]
    fn serve_is_worker_count_invariant() {
        let run = |workers| ShardPool::new(ServeConfig::new(4, workers)).serve(jobs(13, 7));
        let one = run(1);
        let many = run(8);
        assert_eq!(one, many);
        assert_eq!(one.totals(), (13, 0, 0, 0));
        // Site i homes on shard i % 4 and rows keep submission order.
        assert_eq!(one.shards[1].sites[0].site, "site-1");
        assert_eq!(one.shards[1].sites[1].site, "site-5");
        // Timelines accumulate served cost.
        assert_eq!(one.shards[0].virtual_ms, 7 * 4); // sites 0,4,8,12
    }

    #[test]
    fn admission_bound_sheds_excess_sites() {
        let pool = ShardPool::new(ServeConfig::new(2, 2).with_admission_capacity(2));
        let report = pool.serve(jobs(7, 1)); // shard 0 gets 4 sites, shard 1 gets 3
        let (served, shed, quarantined, _) = report.totals();
        assert_eq!((served, shed, quarantined), (4, 3, 0));
        assert_eq!(report.shards[0].shed, 2);
        assert_eq!(
            report.shards[0].site("site-4").unwrap().outcome,
            SiteOutcome::Shed
        );
        // Shed rows still appear in submission order.
        assert_eq!(report.shards[0].sites.len(), 4);
    }

    #[test]
    fn crash_restart_reruns_without_double_counting() {
        let plain = ShardPool::new(ServeConfig::new(2, 2)).serve(jobs(6, 10));
        let plan = FaultPlan::new(0).with_shard_crash(1, 15); // mid site-3
        let crashed = ShardPool::new(ServeConfig::new(2, 2).with_fault(plan)).serve(jobs(6, 10));
        let (v, f) = (&plain.shards[1], &crashed.shards[1]);
        assert_eq!(f.restarts, 1);
        assert!(!f.is_quarantined);
        // Same service content: outcomes (verdict + detail) identical.
        assert_eq!(v.outcomes(), f.outcomes());
        // The discarded attempt's metrics were not merged: counters match
        // the crash-free run exactly.
        assert_eq!(v.metrics, f.metrics);
        // But the rerun is visible in restart accounting.
        let crashed_site = f.site("site-3").unwrap();
        assert_eq!(crashed_site.attempts, 2);
        assert!(f.virtual_ms > v.virtual_ms, "backoff advances the timeline");
        // The untouched shard is bit-identical.
        assert_eq!(plain.shards[0], crashed.shards[0]);
    }

    #[test]
    fn restart_budget_exhaustion_quarantines_the_shard() {
        let plan = FaultPlan::new(0)
            .with_shard_crash(0, 1)
            .with_shard_crash(0, 2)
            .with_shard_crash(0, 3);
        let cfg = ServeConfig::new(2, 1).with_fault(plan).with_restarts(2, 1);
        let report = ShardPool::new(cfg).serve(jobs(6, 10));
        let sh = &report.shards[0];
        assert!(sh.is_quarantined);
        assert_eq!(sh.restarts, 2);
        assert_eq!(
            sh.quarantined_sites, 3,
            "all of shard 0's sites written off"
        );
        assert_eq!(sh.served, 0);
        // The sibling shard is untouched by its neighbour's death.
        assert_eq!(report.shards[1].served, 3);
        assert_eq!(report.undefended(), vec![]);
    }

    #[test]
    fn partition_drops_ring_heartbeats_without_touching_service() {
        let plain = ShardPool::new(ServeConfig::new(3, 3)).serve(jobs(9, 10));
        let plan = FaultPlan::new(0).with_partition(1, 2, 0, 1_000_000);
        let cut = ShardPool::new(ServeConfig::new(3, 3).with_fault(plan)).serve(jobs(9, 10));
        // Shard 1's gossip to its ring neighbour (2) is cut...
        assert_eq!(cut.shards[1].heartbeats_sent, 3);
        assert_eq!(cut.shards[1].heartbeats_dropped, 3);
        assert_eq!(cut.shards[0].heartbeats_dropped, 0);
        // ...but every shard's service content is bit-identical.
        for (p, c) in plain.shards.iter().zip(&cut.shards) {
            assert_eq!(p.sites, c.sites);
            assert_eq!(p.metrics, c.metrics);
        }
    }

    #[test]
    fn fleet_metrics_are_labelled_per_shard() {
        let report = ShardPool::new(ServeConfig::new(2, 2)).serve(jobs(4, 1));
        assert_eq!(report.fleet_metrics.counter("site.runs{shard=0}"), 2);
        assert_eq!(report.fleet_metrics.counter("site.runs{shard=1}"), 2);
        assert_eq!(report.fleet_metrics.counter_across_labels("site.runs"), 4);
        // The report's JSON is deterministic and round-trips.
        let back: ServeReport = serde_json::from_str(&report.json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn pre_cancelled_serve_writes_off_every_site_with_no_orphans() {
        use std::sync::atomic::AtomicBool;
        let pool = ShardPool::new(ServeConfig::new(3, 2));
        let cancel = AtomicBool::new(true);
        let report = pool.serve_with_cancel(jobs(8, 5), &cancel);
        assert_eq!(report.cancelled(), 8);
        assert_eq!(report.totals().0, 0);
        assert_eq!(report.orphans(8), 0);
        for sh in &report.shards {
            assert_eq!(sh.cancelled, sh.sites.len() as u64);
            for s in &sh.sites {
                assert_eq!(s.outcome, SiteOutcome::Cancelled);
                assert_eq!((s.attempts, s.completed_at_ms), (0, 0));
            }
        }
    }

    #[test]
    fn unset_cancel_flag_leaves_the_serve_bit_identical() {
        use std::sync::atomic::AtomicBool;
        let plain = ShardPool::new(ServeConfig::new(4, 3)).serve(jobs(13, 7));
        let cancel = AtomicBool::new(false);
        let flagged =
            ShardPool::new(ServeConfig::new(4, 3)).serve_with_cancel(jobs(13, 7), &cancel);
        assert_eq!(plain, flagged);
    }

    #[test]
    fn mid_serve_cancel_finishes_in_flight_and_accounts_for_the_rest() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cancel = Arc::new(AtomicBool::new(false));
        let mut list = Vec::new();
        {
            let cancel = cancel.clone();
            list.push(SiteJob::new("first", 1, move |_ctx| {
                cancel.store(true, Ordering::Release);
                SiteOutput {
                    defended: Some(true),
                    detail: "ran".into(),
                    sim_ms: 1,
                    wedged: false,
                    metrics: MetricsSnapshot::default(),
                }
            }));
        }
        for i in 0..5 {
            list.push(job(&format!("rest-{i}"), 10 + i, 1));
        }
        let pool = ShardPool::new(ServeConfig::new(1, 1));
        let report = pool.serve_with_cancel(list, &cancel);
        assert_eq!(report.totals().0, 1, "the in-flight site finished");
        assert_eq!(report.cancelled(), 5);
        assert_eq!(report.orphans(6), 0);
    }

    /// Runs `f` on a helper thread and fails the test if it panics or has
    /// not returned within `secs` — how a lost wake-up or a hung flush
    /// shows.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .unwrap_or_else(|e| panic!("serve panicked or hung past {secs} s: {e}"))
    }

    /// A job that records which thread ran it.
    fn tracked(site: &str, seen: &Arc<Mutex<Vec<std::thread::ThreadId>>>) -> SiteJob {
        let seen = seen.clone();
        let inner = job(site, 1, 1);
        SiteJob::new(site, 1, move |ctx| {
            seen.lock().unwrap().push(std::thread::current().id());
            (inner.run)(ctx)
        })
    }

    #[test]
    fn one_site_serve_runs_on_the_calling_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let report = ShardPool::new(ServeConfig::new(4, 4)).serve(vec![tracked("only", &seen)]);
        assert_eq!(report.totals().0, 1);
        assert_eq!(*seen.lock().unwrap(), vec![std::thread::current().id()]);
    }

    #[test]
    fn a_serve_runs_on_at_most_one_thread_per_queued_site() {
        for (workers, sites) in [(3, 2), (2, 8), (8, 3), (1, 5)] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let list = (0..sites)
                .map(|i| tracked(&format!("site-{i}"), &seen))
                .collect();
            let report = ShardPool::new(ServeConfig::new(4, workers)).serve(list);
            assert_eq!(report.totals().0, sites as u64);
            let threads: std::collections::HashSet<_> =
                seen.lock().unwrap().iter().copied().collect();
            assert!(
                threads.len() <= workers.min(sites),
                "{workers} workers, {sites} sites: ran on {} threads",
                threads.len()
            );
        }
    }

    #[test]
    fn a_panicking_job_quarantines_its_shard_and_leaves_the_rest_bit_identical() {
        for workers in [1, 2, 3] {
            let cfg = ServeConfig::new(3, workers);
            let reference = ShardPool::new(cfg.clone()).serve(jobs(9, 10));
            let report = within(10, move || {
                let mut list = jobs(9, 10);
                // Site 1 homes on shard 1 and panics on every attempt.
                list[1] = SiteJob::new("site-1", 101, |_ctx| panic!("site job bug"));
                ShardPool::new(cfg).serve(list)
            });
            let sh = &report.shards[1];
            assert!(sh.is_quarantined, "{workers} workers");
            assert_eq!(sh.restarts, 3, "the default budget, then quarantine");
            assert_eq!(sh.served, 0);
            assert_eq!(sh.quarantined_sites, 3);
            assert_eq!(sh.site("site-1").unwrap().attempts, 4);
            // The panicked attempts' backoff ran on the shard timeline:
            // 10 + 20 + 40 ms, from the attempts' start instant 0.
            assert_eq!(sh.virtual_ms, 70);
            assert_eq!(report.orphans(9), 0);
            assert_eq!(report.shards[0], reference.shards[0]);
            assert_eq!(report.shards[2], reference.shards[2]);
        }
    }

    #[test]
    fn concurrent_serves_with_parking_workers_match_the_one_worker_reference() {
        // Mixed cost: every third site sleeps 0-200 us of wall time, so
        // idle workers really park, while the plan refuses some steals and
        // crashes one shard mid-serve.
        fn list(n: usize) -> Vec<SiteJob> {
            (0..n)
                .map(|i| {
                    let seed = 1_000 + i as u64;
                    let inner = job(&format!("site-{i}"), seed, 1 + (i as u64 * 7) % 13);
                    SiteJob::new(inner.site.clone(), seed, move |ctx| {
                        if i % 3 == 0 {
                            let us = (seed * 37) % 201;
                            std::thread::sleep(std::time::Duration::from_micros(us));
                        }
                        (inner.run)(ctx)
                    })
                })
                .collect()
        }
        let plan = FaultPlan::new(0)
            .with_partition(1, 0, 0, 1_000_000)
            .with_partition(2, 1, 0, 40)
            .with_shard_crash(2, 5);
        let sizes = [1usize, 3, 5, 8, 13];
        let reference: Vec<ServeReport> = sizes
            .iter()
            .map(|&n| {
                ShardPool::new(ServeConfig::new(4, 1).with_fault(plan.clone())).serve(list(n))
            })
            .collect();
        assert!(reference[4].totals().3 > 0, "the crash lands");
        let pool = Arc::new(ShardPool::new(ServeConfig::new(4, 3).with_fault(plan)));
        within(60, move || {
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (pool, reference) = (&pool, &reference);
                    scope.spawn(move || {
                        for k in 0..100 {
                            let i = (t + k) % sizes.len();
                            assert_eq!(pool.serve(list(sizes[i])), reference[i]);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn mid_serve_cancel_with_parked_workers_finishes_in_flight() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cancel = Arc::new(AtomicBool::new(false));
        let mut list = Vec::new();
        {
            let cancel = cancel.clone();
            list.push(SiteJob::new("slow", 1, move |_ctx| {
                cancel.store(true, Ordering::Release);
                // The other workers drain their shards and park on the
                // busy lane meanwhile.
                std::thread::sleep(std::time::Duration::from_millis(50));
                SiteOutput {
                    defended: Some(true),
                    detail: "ran".into(),
                    sim_ms: 1,
                    wedged: false,
                    metrics: MetricsSnapshot::default(),
                }
            }));
        }
        for i in 0..8 {
            list.push(job(&format!("rest-{i}"), 10 + i, 1));
        }
        let report = within(10, move || {
            ShardPool::new(ServeConfig::new(3, 3)).serve_with_cancel(list, &cancel)
        });
        assert_eq!(report.orphans(9), 0);
        let (served, ..) = report.totals();
        assert_eq!(served + report.cancelled(), 9);
        let sh = &report.shards[0];
        assert!(matches!(
            sh.site("slow").unwrap().outcome,
            SiteOutcome::Served { .. }
        ));
        // Queued behind the in-flight site on its own lane: written off.
        for site in ["rest-2", "rest-5"] {
            assert_eq!(sh.site(site).unwrap().outcome, SiteOutcome::Cancelled);
        }
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn pool_rejects_invalid_plans_up_front() {
        let _ = ShardPool::new(
            ServeConfig::new(2, 2).with_fault(FaultPlan::new(0).with_partition(1, 1, 0, 5)),
        );
    }
}
