//! The attack-evaluation harness.
//!
//! A timing attack measures a secret-dependent quantity through an implicit
//! clock; the harness runs it for both values of the secret over many
//! seeded trials and declares the defense **vulnerable** when the two
//! measurement distributions are statistically distinguishable. A CVE
//! exploit drives a trigger sequence; the defense is vulnerable when the
//! oracle reports the trigger.

use jsk_browser::browser::{Browser, BrowserConfig};
use jsk_defenses::registry::DefenseKind;
use jsk_sim::fault::FaultPlan;
use jsk_sim::stats::{distinguishable, Distinguishability, Summary};
use jsk_vuln::{oracle, Cve};
use serde::{Deserialize, Serialize};

/// Which of the two secret values a trial measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Secret {
    /// The first secret value (e.g. the small file, the unvisited link).
    A,
    /// The second secret value.
    B,
}

impl Secret {
    /// Both values.
    pub const BOTH: [Secret; 2] = [Secret::A, Secret::B];
}

/// A timing attack with an implicit clock.
///
/// Attacks are `Send + Sync` so the bench harnesses can fan independent
/// cells across a scoped thread pool (`jsk_bench::pool`); implementations
/// are plain configuration structs, so the bounds cost nothing.
pub trait TimingAttack: Send + Sync {
    /// Row label (matches Table I).
    fn name(&self) -> &'static str;

    /// Which implicit clock the attack uses (Table I groups rows by this).
    fn clock(&self) -> &'static str;

    /// Pre-run setup: seed caches, history, resources.
    fn prepare(&self, browser: &mut Browser, secret: Secret) {
        let _ = (browser, secret);
    }

    /// Runs one trial and returns the attacker's measurement.
    fn measure(&self, browser: &mut Browser, secret: Secret) -> f64;

    /// Minimum relative mean gap the attacker needs to act on (defaults to
    /// 3 %).
    fn min_rel_gap(&self) -> f64 {
        0.03
    }
}

/// A CVE exploit script.
///
/// `Send + Sync` for the same reason as [`TimingAttack`]: exploit scripts
/// are stateless and evaluated concurrently by the bench pool.
pub trait CveExploit: Send + Sync {
    /// The vulnerability this exploits.
    fn cve(&self) -> Cve;

    /// Pre-run browser configuration (e.g. private mode).
    fn configure(&self, cfg: &mut BrowserConfig) {
        let _ = cfg;
    }

    /// Drives the triggering sequence.
    fn run(&self, browser: &mut Browser);
}

/// The outcome of evaluating one attack against one defense.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingAttackResult {
    /// Attack row label.
    pub attack: String,
    /// Defense column label.
    pub defense: String,
    /// Measurements under secret A.
    pub a: Vec<f64>,
    /// Measurements under secret B.
    pub b: Vec<f64>,
    /// Whether the attacker distinguishes the secrets.
    pub verdict: Distinguishability,
}

impl TimingAttackResult {
    /// Whether the defense held.
    #[must_use]
    pub fn defended(&self) -> bool {
        !self.verdict.is_distinguishable()
    }

    /// Summaries of the two samples, for table cells.
    #[must_use]
    pub fn summaries(&self) -> (Summary, Summary) {
        (Summary::of(&self.a), Summary::of(&self.b))
    }
}

/// Runs `attack` against `defense` for `trials` seeded trials per secret.
pub fn run_timing_attack(
    attack: &dyn TimingAttack,
    defense: DefenseKind,
    trials: usize,
    base_seed: u64,
) -> TimingAttackResult {
    run_timing_attack_observed(attack, defense, trials, base_seed, &mut |_| {})
}

/// Like [`run_timing_attack`], but calls `observe` on every trial's browser
/// after its measurement, so callers can harvest per-run state (kernel
/// statistics, step counts) without changing the measured trajectory. The
/// observer runs after `measure`, so it cannot perturb the verdict.
pub fn run_timing_attack_observed(
    attack: &dyn TimingAttack,
    defense: DefenseKind,
    trials: usize,
    base_seed: u64,
    observe: &mut dyn FnMut(&Browser),
) -> TimingAttackResult {
    let mut a = Vec::with_capacity(trials);
    let mut b = Vec::with_capacity(trials);
    for t in 0..trials {
        for secret in Secret::BOTH {
            let seed = base_seed
                .wrapping_mul(1_000_003)
                .wrapping_add(t as u64 * 2 + u64::from(secret == Secret::B));
            let mut browser = defense.build(seed);
            attack.prepare(&mut browser, secret);
            let m = attack.measure(&mut browser, secret);
            observe(&browser);
            match secret {
                Secret::A => a.push(m),
                Secret::B => b.push(m),
            }
        }
    }
    let verdict = distinguishable(&a, &b, attack.min_rel_gap());
    TimingAttackResult {
        attack: attack.name().to_owned(),
        defense: defense.label().to_owned(),
        a,
        b,
        verdict,
    }
}

/// The outcome of one exploit run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CveAttackResult {
    /// The CVE.
    pub cve: Cve,
    /// Defense column label.
    pub defense: String,
    /// Whether the trigger sequence occurred.
    pub triggered: bool,
    /// The oracle's witness, when triggered.
    pub witness: Option<String>,
}

impl CveAttackResult {
    /// Whether the defense held.
    #[must_use]
    pub fn defended(&self) -> bool {
        !self.triggered
    }
}

/// Runs a CVE exploit against a defense and consults the oracle.
pub fn run_cve_attack(
    exploit: &dyn CveExploit,
    defense: DefenseKind,
    seed: u64,
) -> CveAttackResult {
    run_cve(exploit, defense, seed, FaultPlan::default(), &mut |_| {})
}

/// Like [`run_cve_attack`], but calls `observe` on the browser after the
/// exploit has run (and before the oracle verdict is computed), so callers
/// can harvest kernel statistics for throughput accounting.
pub fn run_cve_attack_observed(
    exploit: &dyn CveExploit,
    defense: DefenseKind,
    seed: u64,
    observe: &mut dyn FnMut(&Browser),
) -> CveAttackResult {
    run_cve(exploit, defense, seed, FaultPlan::default(), observe)
}

/// Runs a CVE exploit against a defense while the given fault plan perturbs
/// the simulated browser (lost/duplicated messages, dropped confirmations,
/// worker crashes, network failures). The run must terminate and the oracle
/// verdict must be computable regardless of the plan — that is the
/// robustness claim the fault suite checks.
pub fn run_cve_attack_with_faults(
    exploit: &dyn CveExploit,
    defense: DefenseKind,
    seed: u64,
    plan: FaultPlan,
) -> CveAttackResult {
    run_cve(exploit, defense, seed, plan, &mut |_| {})
}

/// The one CVE-run body: configure, build (installing `plan` unless it is
/// inert), run, `observe`, then ask the oracle.
fn run_cve(
    exploit: &dyn CveExploit,
    defense: DefenseKind,
    seed: u64,
    plan: FaultPlan,
    observe: &mut dyn FnMut(&Browser),
) -> CveAttackResult {
    let mut cfg = defense.config(seed);
    if !plan.is_inert() {
        cfg = cfg.with_fault(plan);
    }
    exploit.configure(&mut cfg);
    let mut browser = Browser::new(cfg, defense.mediator());
    exploit.run(&mut browser);
    observe(&browser);
    let report = oracle::scan(browser.trace());
    let cve = exploit.cve();
    CveAttackResult {
        cve,
        defense: defense.label().to_owned(),
        triggered: report.is_triggered(cve),
        witness: report.evidence(cve).map(|e| e.witness.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::value::JsValue;
    use jsk_sim::time::SimDuration;

    /// A toy attack that reads the real duration of a secret-dependent
    /// computation through `performance.now` — distinguishable on legacy,
    /// hidden by the kernel clock.
    struct ToyAttack;
    impl TimingAttack for ToyAttack {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn clock(&self) -> &'static str {
            "performance.now"
        }
        fn measure(&self, browser: &mut Browser, secret: Secret) -> f64 {
            let ms = match secret {
                Secret::A => 5,
                Secret::B => 20,
            };
            browser.boot(move |scope| {
                let t0 = scope.performance_now();
                scope.compute(SimDuration::from_millis(ms));
                let t1 = scope.performance_now();
                scope.record("m", JsValue::from(t1 - t0));
            });
            browser.run_until_idle();
            browser.record_value("m").and_then(JsValue::as_f64).unwrap()
        }
    }

    #[test]
    fn toy_attack_separates_legacy_but_not_kernel() {
        let legacy = run_timing_attack(&ToyAttack, DefenseKind::LegacyChrome, 8, 1);
        assert!(!legacy.defended(), "{legacy:?}");
        let kernel = run_timing_attack(&ToyAttack, DefenseKind::JsKernel, 8, 1);
        assert!(kernel.defended(), "{:?} {:?}", kernel.a, kernel.b);
    }

    #[test]
    fn results_carry_labels_and_samples() {
        let r = run_timing_attack(&ToyAttack, DefenseKind::LegacyChrome, 3, 2);
        assert_eq!(r.attack, "toy");
        assert_eq!(r.defense, "Chrome");
        assert_eq!(r.a.len(), 3);
        assert_eq!(r.b.len(), 3);
        let (sa, sb) = r.summaries();
        assert!(sb.mean > sa.mean);
    }
}
