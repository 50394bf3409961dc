//! From wire submissions to [`SiteJob`]s: the seam that keeps the front
//! door out of the results.
//!
//! A [`Submission`] is everything a `submit_site` frame carries. Turning
//! one into a job ([`submission_job`]) produces *exactly* the closure a
//! direct in-process caller would hand `ShardPool::serve` — the wire
//! layer adds framing and backpressure, never semantics, which is why the
//! corpus-diff test can demand byte-identical verdicts between the two
//! paths. A submission's run is a pure function of `(schedule, policy,
//! seed, shard, fault plan)`: the schedule executes under the named
//! policy's mediator on the serving shard's deterministic timeline, the
//! happens-before detector grades the trace (defended = race-free), and
//! the site's metrics come back labelled `{site=...,policy=...}` so the
//! fleet view can stack its `{shard=...}` dimension on top.

use jsk_analyze::report::analyze;
use jsk_defenses::registry::DefenseKind;
use jsk_shard::serve::{harvest, SiteCtx, SiteJob, SiteOutput};
use jsk_workloads::schedule::{run_schedule_with, Schedule};

/// Hard ceilings a wire submission must stay under — a remote client must
/// not be able to wedge the pool with one absurd schedule.
const MAX_EVENTS: usize = 4096;
const MAX_RESOURCES: usize = 256;
const MAX_RUN_MS: u32 = 600_000;

/// One accepted `submit_site`, queued until the connection flushes.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Site label.
    pub site: String,
    /// Run seed.
    pub seed: u64,
    /// Policy name (must satisfy [`policy_kind`]).
    pub policy: String,
    /// The event schedule to run.
    pub schedule: Schedule,
    /// Virtual deadline in ms on the serving shard's timeline (0 = none).
    pub deadline_ms: u64,
}

/// The policy names the wire accepts, with their [`DefenseKind`]
/// mappings. `kernel` and `hardened` are the paper's defense; the rest
/// exist so a client can measure the baselines over the same wire.
pub const POLICY_NAMES: &[(&str, DefenseKind)] = &[
    ("legacy", DefenseKind::LegacyChrome),
    ("fuzzyfox", DefenseKind::Fuzzyfox),
    ("deterfox", DefenseKind::DeterFox),
    ("torbrowser", DefenseKind::TorBrowser),
    ("chromezero", DefenseKind::ChromeZero),
    ("kernel", DefenseKind::JsKernel),
    ("hardened", DefenseKind::JsKernelHardened),
];

/// Resolves a wire policy name.
#[must_use]
pub fn policy_kind(name: &str) -> Option<DefenseKind> {
    POLICY_NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, k)| *k)
}

/// The accepted policy names, comma-joined for error messages.
#[must_use]
pub fn policy_names() -> String {
    POLICY_NAMES
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Validates a submission before it is allowed into a connection queue.
/// Violations earn a non-fatal `Error` response (`code = "invalid"` or
/// `"policy"`); the connection lives on.
pub fn validate(sub: &Submission) -> Result<(), (String, String)> {
    let invalid = |m: String| Err(("invalid".to_owned(), m));
    if sub.site.is_empty() {
        return invalid("site label must be non-empty".to_owned());
    }
    if policy_kind(&sub.policy).is_none() {
        return Err((
            "policy".to_owned(),
            format!(
                "unknown policy {:?}; accepted: {}",
                sub.policy,
                policy_names()
            ),
        ));
    }
    if sub.schedule.events.len() > MAX_EVENTS {
        return invalid(format!(
            "schedule has {} events (max {MAX_EVENTS})",
            sub.schedule.events.len()
        ));
    }
    if sub.schedule.resources.len() > MAX_RESOURCES {
        return invalid(format!(
            "schedule declares {} resources (max {MAX_RESOURCES})",
            sub.schedule.resources.len()
        ));
    }
    if sub.schedule.run_ms > MAX_RUN_MS {
        return invalid(format!(
            "schedule runs {} virtual ms (max {MAX_RUN_MS})",
            sub.schedule.run_ms
        ));
    }
    Ok(())
}

/// Wraps a validated submission into the exact [`SiteJob`] a direct
/// in-process caller would build.
///
/// # Panics
///
/// The job closure panics if the policy name is unknown — [`validate`]
/// gates admission, so a queued submission always resolves.
#[must_use]
pub fn submission_job(sub: &Submission) -> SiteJob {
    let policy = sub.policy.clone();
    let schedule = sub.schedule.clone();
    SiteJob::new(sub.site.clone(), sub.seed, move |ctx| {
        run_submission(&policy, &schedule, ctx)
    })
}

/// Runs one submission on its serving shard. See the module docs for the
/// purity contract.
fn run_submission(policy: &str, schedule: &Schedule, ctx: &SiteCtx) -> SiteOutput {
    let kind = policy_kind(policy).expect("validated at admission");
    let (cfg, observer) = ctx.browser_config(kind);
    let browser = run_schedule_with(schedule, kind.mediator(), cfg);

    let report = analyze(browser.trace());
    let races = report.races.len();
    let patterns = report.patterns.len();
    let (sim_ms, wedged) = harvest(&browser);
    let metrics = observer
        .borrow()
        .metrics()
        .with_labels(&[("site", &ctx.site), ("policy", policy)]);
    SiteOutput {
        defended: Some(races == 0),
        detail: format!(
            "policy={policy} races={races} patterns={patterns} console={}",
            browser.console().len()
        ),
        sim_ms,
        wedged,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_shard::serve::{ServeConfig, ShardPool};
    use jsk_workloads::schedule::corpus_schedules;

    fn sub(policy: &str) -> Submission {
        let schedule = corpus_schedules().remove(1); // CVE-2017-7843: cheap
        Submission {
            site: schedule.name.clone(),
            seed: 11,
            policy: policy.into(),
            schedule,
            deadline_ms: 0,
        }
    }

    #[test]
    fn validation_rejects_unknown_policies_and_oversize_schedules() {
        assert!(validate(&sub("kernel")).is_ok());
        assert_eq!(validate(&sub("tokio")).unwrap_err().0, "policy");
        let mut s = sub("kernel");
        s.site.clear();
        assert_eq!(validate(&s).unwrap_err().0, "invalid");
        let mut s = sub("kernel");
        s.schedule.run_ms = MAX_RUN_MS + 1;
        assert_eq!(validate(&s).unwrap_err().0, "invalid");
    }

    #[test]
    fn submission_jobs_serve_deterministically_with_labelled_metrics() {
        let serve = |workers| {
            ShardPool::new(ServeConfig::new(2, workers)).serve(vec![
                submission_job(&sub("kernel")),
                submission_job(&sub("legacy")),
            ])
        };
        let a = serve(1);
        let b = serve(4);
        assert_eq!(a, b);
        // The kernel run is race-free; both runs labelled their series.
        assert!(matches!(
            a.shards[0].sites[0].outcome,
            jsk_shard::serve::SiteOutcome::Served {
                defended: Some(true),
                ..
            }
        ));
        assert!(a
            .fleet_metrics
            .counters()
            .keys()
            .any(|k| k.contains("{site=CVE-2017-7843,policy=kernel}{shard=0}")));
    }
}
