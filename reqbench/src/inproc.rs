//! The traced in-process request path.
//!
//! The server's internals cannot be timed from outside, so the traced run
//! re-drives the same request path through the same public calls, one
//! span around each: encode the `submit_site` frame, decode it, validate
//! it, feed it to a real `Session`, serve the batch through a shared
//! `ShardPool` of the server's shape, merge the fleet metrics, encode the
//! verdicts. The pool runs [`site_job`], which builds each site from the
//! same public steps as the server's own job, with a timestamp between
//! steps; the post-run oracle requires its `detail` strings to equal the
//! server's.

use crate::oracle::{ordered_rows, row_response, Answer, Tally};
use crate::trace::{Tracer, ROOT};
use crate::wire::{hello_frame, Window};
use crate::workload::{Catalog, Generator};
use jsk_analyze::report::analyze;
use jsk_core::kernel::JsKernel;
use jsk_observe::{handle_of, MetricsSnapshot, Observer};
use jsk_serve::job::validate;
use jsk_serve::protocol::{
    encode_frame, parse_request, parse_response, request_payload, response_payload, FrameDecoder,
    Request, Response,
};
use jsk_serve::{policy_kind, Server, Session, Submission};
use jsk_shard::serve::{SiteCtx, SiteJob, SiteOutput};
use jsk_workloads::schedule::{run_schedule_with, Schedule};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timestamps a site job takes between its steps, plus its counts.
pub struct SiteTrace {
    start: Instant,
    built: Instant,
    ran: Instant,
    analyzed: Instant,
    labelled: Instant,
    kernel_events: u64,
    trace_records: u64,
}

/// Where a flush's site jobs leave their traces (pool workers write, the
/// flushing client reads once the pool returns).
pub type Sink = Arc<Mutex<Vec<SiteTrace>>>;

/// The server's site job rebuilt from public steps: `policy_kind` →
/// `config`/`mediator` with observer wiring → `run_schedule_with` →
/// `analyze` → `with_labels`, timestamped into `sink` when given.
pub fn site_job(sub: &Submission, sink: Option<Sink>) -> SiteJob {
    let policy = sub.policy.clone();
    let schedule = sub.schedule.clone();
    SiteJob::new(sub.site.clone(), sub.seed, move |ctx| {
        run_site(&policy, &schedule, ctx, sink.as_ref())
    })
}

fn run_site(policy: &str, schedule: &Schedule, ctx: &SiteCtx, sink: Option<&Sink>) -> SiteOutput {
    let start = Instant::now();
    let kind = policy_kind(policy).expect("the generator submits only known policies");
    let mut cfg = kind.config(ctx.seed).with_shard(ctx.shard);
    if let Some(plan) = &ctx.fault {
        cfg = cfg.with_fault(plan.clone());
    }
    let shared = Observer::new().shared();
    cfg = cfg.with_observer(handle_of(&shared));
    let mediator = kind.mediator();
    let built = Instant::now();
    let browser = run_schedule_with(schedule, mediator, cfg);
    let ran = Instant::now();
    let report = analyze(browser.trace());
    let analyzed = Instant::now();
    let races = report.races.len();
    let patterns = report.patterns.len();
    let stats = browser.mediator_as::<JsKernel>().map(JsKernel::stats);
    let wedged =
        stats.is_some_and(|s| s.watchdog_expired + s.orphans_reaped + s.equeue_overflow > 0);
    let metrics = shared
        .borrow()
        .metrics()
        .with_labels(&[("site", &ctx.site), ("policy", policy)]);
    let labelled = Instant::now();
    if let Some(sink) = sink {
        sink.lock().expect("site trace sink").push(SiteTrace {
            start,
            built,
            ran,
            analyzed,
            labelled,
            kernel_events: stats.map_or(0, |s| s.snapshot().total_events()),
            trace_records: browser.trace().len() as u64,
        });
    }
    SiteOutput {
        defended: Some(races == 0),
        detail: format!(
            "policy={policy} races={races} patterns={patterns} console={}",
            browser.console().len()
        ),
        sim_ms: browser.now().as_nanos() / 1_000_000,
        wedged,
        metrics,
    }
}

/// State shared by the in-process clients, mirroring one server: a
/// private `Server` whose sessions take the submits and whose pool serves
/// the flushes, and one cumulative metrics view.
pub struct Shared<'a> {
    pub cat: &'a Catalog,
    pub server: Arc<Server>,
    pub cumulative: Mutex<MetricsSnapshot>,
}

/// Counts and waits one in-process client measured.
#[derive(Default)]
pub struct InprocRun {
    pub tally: Tally,
    pub sites: u64,
    pub flushes: u64,
    pub bytes: u64,
    pub kernel_events: u64,
    /// Kernel events with each event-free site counted as one, the
    /// denominator of the per-event browser cost.
    pub kernel_events_floored: u64,
    pub trace_records: u64,
    pub site_busy: Duration,
    pub serve_wall: Duration,
    pub site_waits: Vec<Duration>,
}

impl InprocRun {
    /// Folds another client's run into this one.
    pub fn absorb(&mut self, r: InprocRun) {
        self.tally.absorb(r.tally);
        self.sites += r.sites;
        self.flushes += r.flushes;
        self.bytes += r.bytes;
        self.kernel_events += r.kernel_events;
        self.kernel_events_floored += r.kernel_events_floored;
        self.trace_records += r.trace_records;
        self.site_busy += r.site_busy;
        self.serve_wall += r.serve_wall;
        self.site_waits.extend(r.site_waits);
    }
}

/// One closed-loop in-process client with a span around every layer
/// call (when `t` is on).
pub fn run_client(
    sh: &Shared<'_>,
    mut gen: Generator,
    window: Window,
    mut t: Tracer,
) -> (InprocRun, Tracer) {
    let mut out = InprocRun::default();
    let hello = hello_frame();
    loop {
        let began = Instant::now();
        if began >= window.end {
            break;
        }
        let measured = began >= window.warm_end;
        let sites = gen.next_request();
        // Inputs and a fresh handshaken session are built untimed, so the
        // session's queue holds only this request's submissions.
        let requests: Vec<Request> = sites.iter().map(|s| sh.cat.request(s)).collect();
        let subs: Vec<Submission> = sites.iter().map(|s| sh.cat.submission(s)).collect();
        let mut session = Session::new(sh.server.clone());
        session.on_bytes(&hello);

        let mark = t.spans.len();
        let req = t.id();
        let root = t.id();
        let mut decoder = FrameDecoder::new(0);
        // Latency starts once a site's frame is encoded, as on the wire.
        let mut ready = Vec::with_capacity(sites.len());
        let mut acked = vec![false; sites.len()];
        let mut bytes = 0u64;
        for (i, request) in requests.iter().enumerate() {
            let t0 = Instant::now();
            let frame = encode_frame(&request_payload(request));
            let t1 = Instant::now();
            ready.push(t1);
            decoder.push(&frame);
            let parsed = decoder
                .next_payload()
                .ok()
                .flatten()
                .and_then(|p| parse_request(&p).ok());
            let t2 = Instant::now();
            let sub = match parsed {
                Some(Request::SubmitSite {
                    site,
                    seed,
                    policy,
                    schedule,
                    deadline_ms,
                }) => Submission {
                    site,
                    seed,
                    policy,
                    schedule,
                    deadline_ms,
                },
                _ => continue,
            };
            let t3 = Instant::now();
            let valid = validate(&sub).is_ok();
            let t4 = Instant::now();
            let acks = session.on_bytes(&frame);
            let t5 = Instant::now();
            t.record(req, root, "protocol.encode", t0, t1);
            t.record(req, root, "protocol.decode", t1, t2);
            t.record(req, root, "job.validate", t3, t4);
            t.record(req, root, "session.submit", t4, t5);
            acked[i] = valid && is_queued(&acks);
            bytes += frame.len() as u64;
        }

        let sink: Option<Sink> = t
            .is_on()
            .then(|| Arc::new(Mutex::new(Vec::with_capacity(sites.len()))));
        let jobs = subs
            .iter()
            .zip(&acked)
            .filter(|(_, a)| **a)
            .map(|(s, _)| site_job(s, sink.clone()))
            .collect::<Vec<_>>();
        let submitted = jobs.len();
        let serve = t.id();
        let s0 = Instant::now();
        let report = sh
            .server
            .pool()
            .serve_with_cancel(jobs, sh.server.cancel_flag());
        let s1 = Instant::now();
        t.record_as(serve, req, root, "shard.serve", s0, s1);
        let m0 = Instant::now();
        sh.cumulative
            .lock()
            .expect("cumulative metrics")
            .merge(&report.fleet_metrics);
        let m1 = Instant::now();
        t.record(req, root, "server.merge", m0, m1);

        let rows = ordered_rows(&report, submitted);
        let mut answers: Vec<Option<Answer>> = (0..sites.len()).map(|_| None).collect();
        let acked_idx = (0..sites.len()).filter(|&i| acked[i]);
        for ((shard, row), i) in rows.into_iter().zip(acked_idx) {
            let resp = row_response(shard, row, &subs[i].policy);
            let v0 = Instant::now();
            let payload = response_payload(&resp);
            let frame = encode_frame(&payload);
            let v1 = Instant::now();
            t.record(req, root, "protocol.verdict_encode", v0, v1);
            bytes += frame.len() as u64;
            answers[i] = Some((v1, resp, payload));
        }
        let end = Instant::now();
        t.record_as(root, req, ROOT, "request", began, end);

        let traces = sink.map_or_else(Vec::new, |sink| {
            std::mem::take(&mut *sink.lock().expect("site trace sink"))
        });
        for st in &traces {
            let site = t.record(req, serve, "shard.site", st.start, st.labelled);
            t.record(req, site, "core.build", st.start, st.built);
            t.record(req, site, "browser.run", st.built, st.ran);
            t.record(req, site, "analyze.hb", st.ran, st.analyzed);
            t.record(req, site, "observe.label", st.analyzed, st.labelled);
        }
        if !measured {
            t.spans.truncate(mark);
            continue;
        }
        for st in &traces {
            out.kernel_events += st.kernel_events;
            out.kernel_events_floored += st.kernel_events.max(1);
            out.trace_records += st.trace_records;
            out.site_busy += st.labelled.duration_since(st.start);
            out.site_waits.push(st.start.duration_since(s0));
        }
        out.sites += submitted as u64;
        out.flushes += 1;
        out.serve_wall += s1.duration_since(s0);
        out.bytes += bytes;
        out.tally.account(sh.cat, &sites, &answers, &ready);
    }
    (out, t)
}

fn is_queued(frames: &[Vec<u8>]) -> bool {
    let mut dec = FrameDecoder::new(0);
    for f in frames {
        dec.push(f);
    }
    matches!(
        dec.next_payload()
            .ok()
            .flatten()
            .map(|p| parse_response(&p)),
        Some(Ok(Response::Queued { .. }))
    )
}
