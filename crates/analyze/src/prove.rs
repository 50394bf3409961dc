//! The bounded policy prover: exhaustive interleaving enumeration over a
//! policy × attack-pattern product machine.
//!
//! Where the corpus and the fuzzer *sample* schedules, the prover
//! enumerates them: for one [`PolicySpec`] and one
//! [`AttackModel`] it walks
//! every op interleaving up to a depth bound through the compiled policy
//! engine and either
//!
//! * **proves** "the policy defeats the pattern for all schedules ≤ N"
//!   (no reachable state fires the attack), or
//! * **refutes** it with a *minimal* counterexample — the shortest op
//!   sequence that fires — plus a concrete `jsk_workloads` schedule
//!   realizing the attack so the claim is replayable and fuzzable.
//!
//! The state space is the model's environment bit-vector, so BFS with a
//! visited set terminates long before the depth bound in practice; the
//! bound is what makes the claim precise ("≤ N", not "ever"). The default
//! depth, [`DEFAULT_PROVE_DEPTH`], is twice the largest model alphabet —
//! every op can appear, be blocked, and be retried within the window.
//!
//! Mediation semantics in the bounded window: `Deny` and `DropQuietly`
//! block the op outright; `DeferTermination` means the effect does *not*
//! happen within the window (the kernel's watchdog separately bounds the
//! deferral — see the linter's `DeferLivelock` check); `SanitizeError`,
//! `OpaqueOrigin` and `PolyfillWorker` let the op proceed defanged;
//! `CancelDocBound` proceeds but cancels doc-bound work
//! (`cancel_clears`). A scheduling policy additionally defuses `timing`
//! ops: they still run, but their arrival order is the predicted one, so
//! the implicit clock they would form has no resolution. The scanner's
//! ≥ 20-sends ticker threshold is a *detection* knob, not semantics: one
//! unquantized tick is modeled as a fire.

use jsk_attacks::LISTING1;
use jsk_browser::mediator::ApiOutcome;
use jsk_core::policy::automata::{attack_models, AttackModel, AttackOp};
use jsk_core::policy::{cve, deterministic_policy, families, PolicyEngine, PolicySpec};
use jsk_sim::knob::env_knob;
use jsk_workloads::schedule::{seed_schedules, Schedule};
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};

/// Default enumeration depth: twice the largest model alphabet (3 ops),
/// so every corpus op can occur, be mediated away, and recur within the
/// window. Override with `JSK_PROVE_DEPTH`.
pub const DEFAULT_PROVE_DEPTH: usize = 6;

/// Reads `JSK_PROVE_DEPTH` (default [`DEFAULT_PROVE_DEPTH`]); invalid
/// values warn on stderr and fall back.
#[must_use]
pub fn prove_depth() -> usize {
    env_knob("JSK_PROVE_DEPTH", DEFAULT_PROVE_DEPTH)
}

/// The prover's verdict on one policy × pattern cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum Verdict {
    /// No schedule of length ≤ depth fires the attack.
    Proved,
    /// A firing schedule exists; the row carries the minimal one.
    Refuted,
}

/// One row of the prove matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProofRow {
    /// Policy under test.
    pub policy: String,
    /// Scanner pattern name of the attack model.
    pub pattern: String,
    /// CVE / attack-family label.
    pub cve: String,
    /// Proved or refuted.
    pub verdict: Verdict,
    /// Depth bound the verdict holds for.
    pub depth: usize,
    /// Distinct abstract states expanded by the search.
    pub states_explored: usize,
    /// Minimal firing op sequence (refuted rows only).
    pub counterexample: Option<Vec<String>>,
    /// A concrete corpus schedule realizing the counterexample, directly
    /// runnable by `run_schedule` and usable as a fuzz seed.
    pub schedule: Option<Schedule>,
}

/// The full prove matrix: every designated policy row at one depth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProveReport {
    /// Depth bound shared by all rows.
    pub depth: usize,
    /// Rows with [`Verdict::Proved`].
    pub proved: usize,
    /// Rows with [`Verdict::Refuted`].
    pub refuted: usize,
    /// One row per (policy, pattern) pair, model order.
    pub rows: Vec<ProofRow>,
}

impl ProveReport {
    /// Deterministic pretty JSON (struct field order, model-ordered rows;
    /// nothing depends on `JSK_JOBS`).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }

    /// One-line summary for logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "depth {}: {} proved, {} refuted of {} rows",
            self.depth,
            self.proved,
            self.refuted,
            self.rows.len()
        )
    }
}

/// What happened when one op was tried in one environment.
enum StepResult {
    /// Preconditions unmet — not a transition.
    Inapplicable,
    /// Mediation blocked it (or postponed it past the window).
    Blocked,
    /// It ran; new environment, and whether the attack fired.
    Ran { next: u16, fired: bool },
}

fn step(
    engine: &PolicyEngine,
    scheduled: bool,
    model: &AttackModel,
    op: &AttackOp,
    e: u16,
) -> StepResult {
    if e & op.pre_set != op.pre_set || e & op.pre_clear != 0 {
        return StepResult::Inapplicable;
    }
    let outcome = match op.call {
        None => ApiOutcome::Allow,
        Some(sel) => engine.decide_compiled(sel, &model.facts_for(op, e)).0,
    };
    let mut defanged = false;
    let mut cancel = false;
    match outcome {
        ApiOutcome::Allow => {}
        ApiOutcome::Deny { .. } | ApiOutcome::DropQuietly | ApiOutcome::DeferTermination => {
            return StepResult::Blocked;
        }
        ApiOutcome::SanitizeError { .. }
        | ApiOutcome::OpaqueOrigin
        | ApiOutcome::PolyfillWorker => {
            defanged = true;
        }
        ApiOutcome::CancelDocBound => cancel = true,
    }
    if op.timing && scheduled {
        // Deterministic dispatch quantizes event-loop arrival times: the
        // op runs, but the timing observation it exists for is gone.
        defanged = true;
    }
    let fired = !defanged && op.fires.is_some_and(|mask| e & mask == mask);
    let mut next = (e | op.sets) & !op.clears;
    if cancel {
        next &= !op.cancel_clears;
    }
    StepResult::Ran { next, fired }
}

/// Proves or refutes one policy against one attack model by exhaustive
/// BFS over op schedules of length ≤ `depth`. BFS order makes a refuting
/// counterexample minimal; the visited set makes the search terminate on
/// the abstract state space rather than the schedule space.
#[must_use]
pub fn prove_policy(spec: &PolicySpec, model: &AttackModel, depth: usize) -> ProofRow {
    let engine = PolicyEngine::new(vec![spec.clone()]);
    let scheduled = spec.scheduling.is_some();
    let mut visited: BTreeSet<u16> = BTreeSet::new();
    let mut queue: VecDeque<(u16, Vec<String>)> = VecDeque::new();
    let mut states_explored = 0usize;
    let mut counterexample: Option<Vec<String>> = None;
    queue.push_back((model.init_env, Vec::new()));
    visited.insert(model.init_env);
    'search: while let Some((e, path)) = queue.pop_front() {
        states_explored += 1;
        if path.len() >= depth {
            continue;
        }
        for op in &model.ops {
            match step(&engine, scheduled, model, op, e) {
                StepResult::Inapplicable | StepResult::Blocked => {}
                StepResult::Ran { next, fired } => {
                    let mut ce = path.clone();
                    ce.push(op.name.to_owned());
                    if fired {
                        counterexample = Some(ce);
                        break 'search;
                    }
                    if visited.insert(next) {
                        queue.push_back((next, ce));
                    }
                }
            }
        }
    }
    let verdict = if counterexample.is_some() {
        Verdict::Refuted
    } else {
        Verdict::Proved
    };
    let schedule = counterexample
        .as_ref()
        .and_then(|_| realize(model, &spec.name));
    ProofRow {
        policy: spec.name.clone(),
        pattern: model.pattern.to_owned(),
        cve: model.cve.to_owned(),
        verdict,
        depth,
        states_explored,
        counterexample,
        schedule,
    }
}

/// The concrete corpus schedule that realizes a model's counterexample:
/// the seed program written for exactly this attack shape, renamed to
/// carry the provenance of the refutation.
fn realize(model: &AttackModel, policy: &str) -> Option<Schedule> {
    let seed_name = match model.pattern {
        "AbortAfterOwnerDeath" => "CVE-2018-5092",
        "PrivateModePersistence" => "CVE-2017-7843",
        "ErrorLeak" => "CVE-2015-7215",
        "FreedDocDelivery" => "CVE-2014-3194",
        "MidDispatchTermination" => "CVE-2014-1719",
        "FreedTransferWindow" => "CVE-2014-1488",
        "CallbackAfterCloseWindow" => "CVE-2013-6646",
        "ClosingWorkerAssignment" => "CVE-2013-5602",
        "WorkerSopBypass" => "CVE-2013-1714",
        "SandboxOriginInheritance" => "CVE-2011-1190",
        "StaleDocCompletion" => "CVE-2010-4576",
        "ImplicitClockTicker" => LISTING1,
        "SharedLoopContention" => "attack-loophole",
        "IlpStealthyTicker" => "attack-hacky-racers",
        _ => return None,
    };
    let mut s = seed_schedules().into_iter().find(|s| s.name == seed_name)?;
    s.name = format!("{seed_name}~prove:{policy}");
    Some(s)
}

/// The designated policy with the given name (Table-1 CVE policies, the
/// deterministic scheduling policy, or an attack-family policy).
#[must_use]
pub fn designated_policy(name: &str) -> Option<PolicySpec> {
    cve::all_cve_policies()
        .into_iter()
        .chain(std::iter::once(deterministic_policy()))
        .chain(families::all_family_policies())
        .find(|p| p.name == name)
}

/// Runs the whole prove matrix at one depth: every model × every policy
/// designated to defeat it, in model order. Pure and serial — the report
/// is byte-identical whatever `JSK_JOBS` is.
#[must_use]
pub fn prove_all(depth: usize) -> ProveReport {
    let mut rows = Vec::new();
    for model in attack_models() {
        for name in model.defeated_by {
            let spec = designated_policy(name)
                .unwrap_or_else(|| panic!("designated policy {name} must exist"));
            rows.push(prove_policy(&spec, &model, depth));
        }
    }
    let proved = rows.iter().filter(|r| r.verdict == Verdict::Proved).count();
    ProveReport {
        depth,
        proved,
        refuted: rows.len() - proved,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_core::policy::model_for;

    #[test]
    fn the_full_matrix_is_proved_at_default_depth() {
        let report = prove_all(DEFAULT_PROVE_DEPTH);
        assert_eq!(report.rows.len(), 15);
        assert_eq!(report.refuted, 0, "{}", report.summary());
        for row in &report.rows {
            assert_eq!(
                row.verdict,
                Verdict::Proved,
                "{} vs {}",
                row.policy,
                row.pattern
            );
            assert!(row.counterexample.is_none() && row.schedule.is_none());
            assert!(row.states_explored > 0);
        }
    }

    #[test]
    fn an_empty_policy_is_refuted_with_a_minimal_counterexample() {
        let empty = PolicySpec {
            name: "policy_empty".into(),
            description: "no rules at all".into(),
            scheduling: None,
            rules: Vec::new(),
        };
        let model = model_for("AbortAfterOwnerDeath").unwrap();
        let row = prove_policy(&empty, &model, DEFAULT_PROVE_DEPTH);
        assert_eq!(row.verdict, Verdict::Refuted);
        assert_eq!(
            row.counterexample.as_deref(),
            Some(
                &[
                    "worker-starts-fetch".to_owned(),
                    "terminate-worker".to_owned(),
                    "deliver-abort".to_owned(),
                ][..]
            ),
            "BFS must return the minimal firing sequence"
        );
        let schedule = row.schedule.expect("refutations carry a realization");
        assert_eq!(schedule.name, "CVE-2018-5092~prove:policy_empty");
        assert!(!schedule.events.is_empty());
    }

    #[test]
    fn scheduling_defuses_event_loop_clocks_but_not_ilp_counters() {
        let det = deterministic_policy();
        let ticker = model_for("ImplicitClockTicker").unwrap();
        assert_eq!(
            prove_policy(&det, &ticker, DEFAULT_PROVE_DEPTH).verdict,
            Verdict::Proved,
            "deterministic dispatch quantizes the event-loop clock"
        );
        let ilp = model_for("IlpStealthyTicker").unwrap();
        assert_eq!(
            prove_policy(&det, &ilp, DEFAULT_PROVE_DEPTH).verdict,
            Verdict::Refuted,
            "ILP counters never pass through the event loop: scheduling \
             alone cannot defuse them — exactly Hacky Racers' point"
        );
    }

    #[test]
    fn depth_zero_proves_everything_vacuously() {
        let empty = PolicySpec {
            name: "policy_empty".into(),
            description: String::new(),
            scheduling: None,
            rules: Vec::new(),
        };
        let model = model_for("WorkerSopBypass").unwrap();
        assert_eq!(prove_policy(&empty, &model, 0).verdict, Verdict::Proved);
        assert_eq!(prove_policy(&empty, &model, 1).verdict, Verdict::Refuted);
    }

    #[test]
    fn prove_depth_reads_the_knob_with_fallback() {
        std::env::set_var("JSK_PROVE_DEPTH", "9");
        assert_eq!(prove_depth(), 9);
        std::env::set_var("JSK_PROVE_DEPTH", "shallow");
        assert_eq!(prove_depth(), DEFAULT_PROVE_DEPTH);
        std::env::remove_var("JSK_PROVE_DEPTH");
        assert_eq!(prove_depth(), DEFAULT_PROVE_DEPTH);
    }

    #[test]
    fn report_json_is_stable_and_carries_the_matrix() {
        let a = prove_all(DEFAULT_PROVE_DEPTH).to_json();
        let b = prove_all(DEFAULT_PROVE_DEPTH).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"verdict\": \"proved\""));
        assert!(a.contains("policy_cve-2018-5092"));
    }
}
