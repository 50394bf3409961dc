//! One connection's protocol state machine, transport-agnostic.
//!
//! A [`Session`] consumes raw stream bytes ([`Session::on_bytes`]) and
//! produces encoded response frames; the transport's only duties are
//! moving bytes and honouring [`Session::is_closed`]. The same state
//! machine therefore backs both the deterministic in-process loopback and
//! the TCP connection workers — which is what makes "the wire adds no
//! semantics" testable.
//!
//! The lifecycle: `hello` first (anything else is fatal), then any mix of
//! `submit_site` / `cancel` / `metrics`, then `flush` to serve the queued
//! batch through the shard pool in one call — submission order equals job
//! order, so shard homing (`i % shards`) matches what direct submission
//! would do, byte for byte. Framing errors kill the connection (the
//! stream offset is gone); semantic errors (`unknown policy`, oversize
//! schedule, draining server) earn an `Error` response and the
//! connection lives.

use crate::job::{submission_job, validate, Submission};
use crate::protocol::{
    encode_frame, parse_request, FrameDecoder, Request, Response, PROTOCOL_VERSION,
};
use crate::server::Server;
use jsk_shard::serve::{Seat, ServeReport, SiteOutcome};
use std::sync::Arc;

/// One connection's state. Built by [`Session::new`]; driven by a
/// transport.
pub struct Session {
    server: Arc<Server>,
    decoder: FrameDecoder,
    queue: Vec<Submission>,
    /// The pool seat this connection's thread serves on, taken at its
    /// first non-empty flush and given back when the session closes or
    /// drops: a connection that has flushed will flush again.
    seat: Option<Seat>,
    hello_done: bool,
    closed: bool,
}

impl Session {
    /// Opens a session against the server (counts as a connection).
    #[must_use]
    pub fn new(server: Arc<Server>) -> Session {
        server.count(|w| &w.connections, 1);
        let max_frame = server.config().max_frame_len;
        Session {
            server,
            decoder: FrameDecoder::new(max_frame),
            queue: Vec::new(),
            seat: None,
            hello_done: false,
            closed: false,
        }
    }

    /// Whether the connection is finished (clean `bye`, fatal error, or
    /// drain). A closed session ignores further bytes; the transport
    /// should close the stream.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Submissions queued and not yet flushed.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Feeds raw stream bytes; returns the encoded response frames to
    /// write back, in order.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        if self.closed {
            return Vec::new();
        }
        self.decoder.push(bytes);
        let mut out = Vec::new();
        while !self.closed {
            match self.decoder.next_payload() {
                Ok(None) => break,
                Ok(Some(payload)) => match parse_request(&payload) {
                    Ok(req) => {
                        self.server.count(|w| &w.frames, 1);
                        for resp in self.handle(req) {
                            out.push(encode_frame(&crate::protocol::response_payload(&resp)));
                        }
                    }
                    Err(e) => {
                        // Well-framed but not a request: the peer speaks
                        // something else. Fatal for the connection — and
                        // only the connection.
                        self.server.count(|w| &w.malformed, 1);
                        out.push(error_frame("request", &e.to_string()));
                        self.close_dropping_queue();
                    }
                },
                Err(e) => {
                    self.server.count(|w| &w.malformed, 1);
                    out.push(error_frame("frame", &e.to_string()));
                    self.close_dropping_queue();
                }
            }
        }
        out
    }

    /// The transport saw the peer disconnect: account for whatever was
    /// still queued.
    pub fn on_close(&mut self) {
        if !self.closed {
            self.close_dropping_queue();
        }
    }

    /// Server-initiated drain: flush whatever is queued (in-flight work
    /// finishes; the pool writes off the rest accountably), say `bye`,
    /// close. Returns the frames to deliver before the transport closes
    /// the stream.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        if self.closed {
            return Vec::new();
        }
        let mut out = Vec::new();
        if !self.queue.is_empty() {
            for resp in self.flush() {
                out.push(encode_frame(&crate::protocol::response_payload(&resp)));
            }
        }
        out.push(encode_frame(&crate::protocol::response_payload(
            &Response::Bye,
        )));
        self.server.count(|w| &w.drained_sessions, 1);
        self.closed = true;
        self.seat = None;
        out
    }

    fn close_dropping_queue(&mut self) {
        let dropped = self.queue.len() as u64;
        if dropped > 0 {
            self.server.count(|w| &w.dropped_on_close, dropped);
            self.queue.clear();
        }
        self.closed = true;
        self.seat = None;
    }

    fn handle(&mut self, req: Request) -> Vec<Response> {
        if !self.hello_done && !matches!(req, Request::Hello { .. }) {
            self.close_dropping_queue();
            return vec![Response::Error {
                code: "hello_first".into(),
                message: "the first frame must be hello".into(),
            }];
        }
        match req {
            Request::Hello { version } => {
                if version != PROTOCOL_VERSION {
                    self.close_dropping_queue();
                    return vec![Response::Error {
                        code: "version".into(),
                        message: format!(
                            "client speaks v{version}, server speaks v{PROTOCOL_VERSION}"
                        ),
                    }];
                }
                self.hello_done = true;
                vec![Response::HelloOk {
                    version: PROTOCOL_VERSION,
                    shards: self.server.config().serve.shards.max(1) as u64,
                    queue_capacity: self.server.config().queue_capacity as u64,
                }]
            }
            Request::SubmitSite {
                site,
                seed,
                policy,
                schedule,
                deadline_ms,
            } => {
                if self.server.is_draining() {
                    return vec![Response::Error {
                        code: "draining".into(),
                        message: "server is draining; not accepting submissions".into(),
                    }];
                }
                let sub = Submission {
                    site,
                    seed,
                    policy,
                    schedule,
                    deadline_ms,
                };
                if let Err((code, message)) = validate(&sub) {
                    return vec![Response::Error { code, message }];
                }
                let cap = self.server.config().queue_capacity;
                if cap > 0 && self.queue.len() >= cap {
                    self.server.count(|w| &w.sheds, 1);
                    return vec![Response::Shed {
                        site: sub.site,
                        stage: "queue".into(),
                    }];
                }
                self.server.count(|w| &w.submits, 1);
                let site = sub.site.clone();
                self.queue.push(sub);
                vec![Response::Queued {
                    site,
                    depth: self.queue.len() as u64,
                }]
            }
            Request::Cancel { site } => {
                let before = self.queue.len();
                self.queue.retain(|s| s.site != site);
                let removed = (before - self.queue.len()) as u64;
                if removed == 0 {
                    return vec![Response::Error {
                        code: "not_found".into(),
                        message: format!("no queued submission for site {site:?}"),
                    }];
                }
                self.server.count(|w| &w.cancels, removed);
                vec![Response::Cancelled { site, removed }]
            }
            Request::Flush => self.flush(),
            Request::Metrics => vec![Response::MetricsPage {
                text: self.server.metrics_page(),
            }],
            Request::Bye => {
                self.close_dropping_queue();
                vec![Response::Bye]
            }
        }
    }

    /// Serves the queued batch through the pool and maps the report back
    /// to per-submission responses, in submission order, closing with a
    /// `flush_ok` summary.
    fn flush(&mut self) -> Vec<Response> {
        let subs = std::mem::take(&mut self.queue);
        if subs.is_empty() {
            return vec![Response::FlushOk {
                served: 0,
                shed: 0,
                quarantined: 0,
                cancelled: 0,
                deadline_missed: 0,
            }];
        }
        let jobs = subs.iter().map(submission_job).collect();
        let pool = self.server.pool();
        let seat = self.seat.get_or_insert_with(|| pool.seat());
        let report = pool.serve_seated(seat, jobs, self.server.cancel_flag());
        self.server.merge_site_metrics(&report.fleet_metrics);
        self.server.count(|w| &w.flushes, 1);

        let mut out = Vec::with_capacity(subs.len() + 1);
        let (mut served, mut shed, mut quarantined, mut cancelled, mut missed) = (0, 0, 0, 0, 0);
        for (i, row_shard, row) in report_rows(&report, subs.len()) {
            let sub = &subs[i];
            debug_assert_eq!(row.site, sub.site, "row {i} out of order");
            match &row.outcome {
                SiteOutcome::Served {
                    defended,
                    detail,
                    wedged,
                } => {
                    if sub.deadline_ms > 0 && row.completed_at_ms > sub.deadline_ms {
                        missed += 1;
                        self.server.count(|w| &w.deadline_missed, 1);
                        out.push(Response::Error {
                            code: "deadline".into(),
                            message: format!(
                                "site {:?} completed at {} virtual ms, past its {} ms deadline",
                                row.site, row.completed_at_ms, sub.deadline_ms
                            ),
                        });
                    } else {
                        served += 1;
                        self.server.count(|w| &w.verdicts, 1);
                        out.push(Response::Verdict {
                            site: row.site.clone(),
                            seed: row.seed,
                            policy: sub.policy.clone(),
                            shard: row_shard,
                            defended: *defended,
                            detail: detail.clone(),
                            wedged: *wedged,
                            attempts: row.attempts,
                            completed_at_ms: row.completed_at_ms,
                        });
                    }
                }
                SiteOutcome::Shed => {
                    shed += 1;
                    self.server.count(|w| &w.sheds, 1);
                    out.push(Response::Shed {
                        site: row.site.clone(),
                        stage: "shard".into(),
                    });
                }
                SiteOutcome::Quarantined => {
                    quarantined += 1;
                    out.push(Response::Error {
                        code: "quarantined".into(),
                        message: format!(
                            "site {:?} written off: its shard exhausted the restart budget",
                            row.site
                        ),
                    });
                }
                SiteOutcome::Cancelled => {
                    cancelled += 1;
                    out.push(Response::Cancelled {
                        site: row.site.clone(),
                        removed: 1,
                    });
                }
            }
        }
        out.push(Response::FlushOk {
            served,
            shed,
            quarantined,
            cancelled,
            deadline_missed: missed,
        });
        out
    }
}

/// Encodes a standalone error frame (used on paths where the session is
/// about to die and a typed response list is overkill).
fn error_frame(code: &str, message: &str) -> Vec<u8> {
    encode_frame(&crate::protocol::response_payload(&Response::Error {
        code: code.into(),
        message: message.into(),
    }))
}

/// Walks a report back into submission order: submission `i` homed on
/// shard `i % shards`, and each shard's rows keep submission order, so
/// per-shard cursors reconstruct the original sequence exactly.
fn report_rows(
    report: &ServeReport,
    submitted: usize,
) -> impl Iterator<Item = (usize, u64, &jsk_shard::serve::SiteReport)> {
    let n = report.shards.len().max(1);
    let mut cursors = vec![0usize; n];
    (0..submitted).map(move |i| {
        let s = i % n;
        let row = &report.shards[s].sites[cursors[s]];
        cursors[s] += 1;
        (i, s as u64, row)
    })
}
