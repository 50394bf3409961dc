//! The correctness oracle: per-verdict checks during the run, and after
//! it a byte-for-byte diff of sampled batches against direct `ShardPool`
//! submission (the `serve_direct` pattern of the `serve` bench target).

use crate::inproc::site_job;
use crate::wire::SHARDS;
use crate::workload::{Catalog, Site, Workload};
use jsk_serve::protocol::{response_payload, Response};
use jsk_serve::{submission_job, Submission};
use jsk_shard::serve::{ServeConfig, ServeReport, ShardPool, SiteOutcome, SiteReport};
use std::time::{Duration, Instant};

/// One site's answer: when it arrived, the response, and its payload as
/// the path under test produced it.
pub type Answer = (Instant, Response, String);

/// The per-request accounting of a client, wire or in-process: counts,
/// the verdict check, latencies, and the samples kept for the diff.
#[derive(Default)]
pub struct Tally {
    /// Latency of every answer that passed its check.
    pub latencies: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub samples: Vec<Sample>,
    /// When the last accounted request was accounted.
    pub finished: Option<Instant>,
    requests: usize,
}

impl Tally {
    /// Accounts one measured request. `answers[i]` is site `i`'s answer
    /// (missing or `None` when it got none), and its latency runs from
    /// `starts[i]`.
    pub fn account(
        &mut self,
        cat: &Catalog,
        sites: &[Site],
        answers: &[Option<Answer>],
        starts: &[Instant],
    ) {
        self.attempted += sites.len() as u64;
        let mut payloads = Vec::with_capacity(sites.len());
        for (i, site) in sites.iter().enumerate() {
            let answer = answers.get(i).and_then(Option::as_ref);
            match answer.map_or(Verdict::Failed, |(_, resp, _)| check(cat, site, resp)) {
                Verdict::Ok => {
                    let (at, _, payload) = answer.expect("checked");
                    self.latencies.push(at.duration_since(starts[i]));
                    payloads.push(payload.clone());
                }
                Verdict::Failed => self.failed += 1,
                Verdict::Wrong => {
                    self.failed += 1;
                    self.wrong += 1;
                    if self.first_wrong.is_none() {
                        self.first_wrong = answer.map(|a| a.2.clone());
                    }
                }
            }
        }
        if payloads.len() == sites.len() && keep_sample(self.requests, self.samples.len()) {
            self.samples.push(Sample {
                sites: sites.to_vec(),
                payloads,
            });
        }
        self.requests += 1;
        self.finished = Some(Instant::now());
    }

    /// Folds another client's tally into this one; latencies end sorted.
    pub fn absorb(&mut self, t: Tally) {
        self.latencies.extend(t.latencies);
        self.latencies.sort_unstable();
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.wrong += t.wrong;
        self.first_wrong = self.first_wrong.take().or(t.first_wrong);
        self.samples.extend(t.samples);
        self.finished = self.finished.max(t.finished);
        self.requests += t.requests;
    }

    /// Answers per second of wall time, from `since` until the last
    /// request was accounted.
    pub fn rps(&self, since: Instant) -> f64 {
        let wall = self
            .finished
            .map_or(0.0, |f| f.saturating_duration_since(since).as_secs_f64());
        self.latencies.len() as f64 / wall
    }
}

/// How one site's answer fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A verdict frame that passed the workload's check.
    Ok,
    /// Shed, an error frame, or no answer at all.
    Failed,
    /// A verdict frame that failed the workload's check.
    Wrong,
}

/// Checks one site's response: it must be a `verdict` frame echoing the
/// site's label and seed, and corpus verdicts must be race-free
/// (`defended: true`, `races=0`).
pub fn check(cat: &Catalog, site: &Site, resp: &Response) -> Verdict {
    let Response::Verdict {
        site: label,
        seed,
        defended,
        detail,
        ..
    } = resp
    else {
        return Verdict::Failed;
    };
    let echoed = label == cat.label(site) && *seed == site.seed;
    let graded = match cat.workload {
        Workload::CorpusBatch => *defended == Some(true) && detail.contains(" races=0 "),
        Workload::TinyFlush | Workload::ConnectChurn => true,
    };
    if echoed && graded {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// A report's rows back in submission order with their shard: site `i`
/// homes on shard `i % shards`, and each shard keeps submission order.
pub fn ordered_rows(report: &ServeReport, submitted: usize) -> Vec<(u64, &SiteReport)> {
    let n = report.shards.len().max(1);
    let mut cursors = vec![0usize; n];
    (0..submitted)
        .map(|i| {
            let s = i % n;
            let row = &report.shards[s].sites[cursors[s]];
            cursors[s] += 1;
            (s as u64, row)
        })
        .collect()
}

/// The frame the server's session sends for one row: byte-identical for
/// served rows (the workloads set no deadlines), the same frame kind for
/// the rest.
pub fn row_response(shard: u64, row: &SiteReport, policy: &str) -> Response {
    match &row.outcome {
        SiteOutcome::Served {
            defended,
            detail,
            wedged,
        } => Response::Verdict {
            site: row.site.clone(),
            seed: row.seed,
            policy: policy.to_owned(),
            shard,
            defended: *defended,
            detail: detail.clone(),
            wedged: *wedged,
            attempts: row.attempts,
            completed_at_ms: row.completed_at_ms,
        },
        SiteOutcome::Shed => Response::Shed {
            site: row.site.clone(),
            stage: "shard".to_owned(),
        },
        SiteOutcome::Quarantined => Response::Error {
            code: "quarantined".to_owned(),
            message: row.site.clone(),
        },
        SiteOutcome::Cancelled => Response::Cancelled {
            site: row.site.clone(),
            removed: 1,
        },
    }
}

/// Whether a client keeps its `index`-th measured request (fully
/// answered) for the post-run diff, having kept `kept` already: every
/// 13th, up to 24 per client.
fn keep_sample(index: usize, kept: usize) -> bool {
    index.is_multiple_of(13) && kept < 24
}

/// One batch kept for the post-run diff: its sites and the verdict
/// payloads the path under test produced for them.
pub struct Sample {
    pub sites: Vec<Site>,
    pub payloads: Vec<String>,
}

fn direct_payloads(report: &ServeReport, subs: &[Submission]) -> Vec<String> {
    ordered_rows(report, subs.len())
        .into_iter()
        .zip(subs)
        .map(|((shard, row), sub)| response_payload(&row_response(shard, row, &sub.policy)))
        .collect()
}

/// Re-serves every sample through direct pool submission and diffs it
/// byte for byte against the recorded payloads. Then serves it again with
/// the benchmark-built traced site job and requires the same `detail`
/// strings, so the traced run measures the program the server runs.
/// Returns how many batches were checked.
pub fn verify(cat: &Catalog, samples: &[Sample]) -> Result<usize, String> {
    let pool = ShardPool::new(ServeConfig::new(SHARDS, 1));
    for (k, sample) in samples.iter().enumerate() {
        let subs: Vec<Submission> = sample.sites.iter().map(|s| cat.submission(s)).collect();
        let direct = pool.serve(subs.iter().map(submission_job).collect());
        let expect = direct_payloads(&direct, &subs);
        if let Some(i) = (0..expect.len()).find(|&i| sample.payloads.get(i) != Some(&expect[i])) {
            return Err(format!(
                "sample {k} site {i}: served {:?}, direct pool gives {:?}",
                sample.payloads.get(i),
                expect[i]
            ));
        }
        let bench = pool.serve(subs.iter().map(|s| site_job(s, None)).collect());
        let detail = |r: &ServeReport| -> Vec<Option<String>> {
            ordered_rows(r, subs.len())
                .into_iter()
                .map(|(_, row)| match &row.outcome {
                    SiteOutcome::Served { detail, .. } => Some(detail.clone()),
                    _ => None,
                })
                .collect()
        };
        let (want, got) = (detail(&direct), detail(&bench));
        if want != got {
            return Err(format!(
                "sample {k}: traced site job details {got:?} differ from the server's {want:?}"
            ));
        }
    }
    Ok(samples.len())
}
