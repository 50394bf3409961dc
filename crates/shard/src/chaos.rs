//! The chaos matrix: the 13-program corpus served on every shard while
//! each cross-shard fault class targets a different shard.
//!
//! The matrix is the executable form of the isolation guarantee: with `N`
//! shards, every corpus program (the twelve CVE exploits plus the
//! Listing 1 implicit-clock attack) is served on **every** shard, then the
//! whole serve is repeated under each fault class — per-shard clock skew,
//! a directional inter-shard partition, and a shard crash with supervised
//! restart — each aimed at a *different* shard. [`ChaosMatrix::verify`]
//! then checks, scenario by scenario:
//!
//! 1. **Defense holds everywhere**: every served program on every shard
//!    stays defended under every fault class.
//! 2. **Non-target shards are bit-identical** to the fault-free baseline —
//!    full [`ShardReport`](crate::serve::ShardReport) equality, metrics
//!    and heartbeats included.
//! 3. **The target shard's service content survives**: its per-site
//!    outcomes (verdict + measurement detail) and merged metrics equal the
//!    baseline's. For clock skew that is the kernel's deterministic clock
//!    masking the raw drift; for a crash it is supervised restart plus the
//!    discard-the-attempt accounting rule; for a partition it is the
//!    owner-always-serves progress rule.
//! 4. **The fault actually fired**: the crash consumed a restart, the
//!    partition dropped ring heartbeats — a matrix whose faults were
//!    silently inert proves nothing.
//!
//! Job seeds are a pure function of the corpus index — never of the shard
//! — so any shard's report is comparable bit-for-bit with any other's and
//! with any rerun.

use crate::serve::{harvest, ServeConfig, ServeReport, ShardPool, SiteCtx, SiteJob, SiteOutput};
use jsk_attacks::cve_exploits::all_exploits;
use jsk_attacks::{corpus_names, listing1};
use jsk_browser::browser::Browser;
use jsk_defenses::registry::DefenseKind;
use jsk_observe::MetricsSnapshot;
use jsk_sim::fault::{ClockSkew, FaultPlan};
use jsk_vuln::oracle;
use serde::{Deserialize, Serialize};

/// Knobs of one chaos-matrix run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosKnobs {
    /// Number of shards (the matrix needs at least 4 so each fault class
    /// can target a different shard; smaller values are clamped).
    pub shards: usize,
    /// Worker threads driving the pool (never changes the report, and is
    /// therefore excluded from the serialized artifact — `chaos_matrix.json`
    /// must compare byte-identical across worker counts).
    pub workers: usize,
    /// Base seed; job seeds derive from it and the corpus index only.
    pub base_seed: u64,
    /// Corpus program indices to serve (`None` = the full corpus). A few
    /// exploits simulate minutes of virtual time; debug-profile suites
    /// select the cheap subset and leave the full matrix to the release
    /// bench/CI run.
    pub corpus: Option<Vec<usize>>,
}

/// The serialized form of [`ChaosKnobs`]: everything that shapes the
/// report — and only that. `workers` is deliberately absent so the
/// artifact compares byte-identical across worker counts.
#[derive(Serialize, Deserialize)]
struct ChaosKnobsWire {
    shards: usize,
    base_seed: u64,
    corpus: Option<Vec<usize>>,
}

impl Serialize for ChaosKnobs {
    fn to_value(&self) -> serde::Value {
        ChaosKnobsWire {
            shards: self.shards,
            base_seed: self.base_seed,
            corpus: self.corpus.clone(),
        }
        .to_value()
    }
}

impl Deserialize for ChaosKnobs {
    fn from_value(v: &serde::Value) -> Result<ChaosKnobs, serde::DeError> {
        let wire = ChaosKnobsWire::from_value(v)?;
        Ok(ChaosKnobs {
            shards: wire.shards,
            workers: 1,
            base_seed: wire.base_seed,
            corpus: wire.corpus,
        })
    }
}

impl Default for ChaosKnobs {
    fn default() -> ChaosKnobs {
        ChaosKnobs {
            shards: 4,
            workers: 4,
            base_seed: 1,
            corpus: None,
        }
    }
}

/// The seed for corpus program `index`: a pure function of the index (and
/// the run's base seed), independent of shard placement.
#[must_use]
pub fn corpus_seed(base_seed: u64, index: usize) -> u64 {
    base_seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// Builds the job for corpus program `index` (`0..=11` the CVE exploits in
/// Table I order, `12` the Listing 1 attack).
#[must_use]
pub fn corpus_job(index: usize, base_seed: u64) -> SiteJob {
    let names = corpus_names();
    let site = names[index].clone();
    let seed = corpus_seed(base_seed, index);
    if index < 12 {
        SiteJob::new(site, seed, move |ctx| run_cve_site(index, ctx))
    } else {
        SiteJob::new(site, seed, run_listing1_site)
    }
}

/// The full matrix job list: every corpus program on every shard. Job
/// `k * shards + s` is program `k` homed on shard `s`, so each shard
/// serves the corpus in Table I order.
#[must_use]
pub fn corpus_matrix_jobs(base_seed: u64, shards: usize) -> Vec<SiteJob> {
    let n = corpus_names().len();
    corpus_matrix_jobs_for(&(0..n).collect::<Vec<_>>(), base_seed, shards)
}

/// Like [`corpus_matrix_jobs`] but restricted to the given corpus program
/// indices (still every selected program on every shard).
#[must_use]
pub fn corpus_matrix_jobs_for(indices: &[usize], base_seed: u64, shards: usize) -> Vec<SiteJob> {
    let mut jobs = Vec::with_capacity(indices.len() * shards);
    for &k in indices {
        for _ in 0..shards.max(1) {
            jobs.push(corpus_job(k, base_seed));
        }
    }
    jobs
}

/// Runs one CVE exploit under the full kernel on this site's shard.
fn run_cve_site(index: usize, ctx: &SiteCtx) -> SiteOutput {
    let exploits = all_exploits();
    let exploit = &exploits[index];
    let cve = exploit.cve();
    let defense = DefenseKind::JsKernel;
    let (mut cfg, observer) = ctx.browser_config(defense);
    exploit.configure(&mut cfg);
    let mut browser = Browser::new(cfg, defense.mediator());
    exploit.run(&mut browser);
    let report = oracle::scan(browser.trace());
    let triggered = report.is_triggered(cve);
    let (sim_ms, wedged) = harvest(&browser);
    let metrics = observer.borrow().metrics();
    SiteOutput {
        defended: Some(!triggered),
        detail: format!("cve={} triggered={triggered}", cve.id()),
        sim_ms,
        wedged,
        metrics,
    }
}

/// Runs the Listing 1 implicit-clock attack under the full kernel: the
/// worker-ticker measurement taken for both secret values. Defended means
/// the two tick counts are identical — the kernel's serialized dispatch
/// leaves the attacker's implicit clock nothing secret-dependent to read.
fn run_listing1_site(ctx: &SiteCtx) -> SiteOutput {
    let defense = DefenseKind::JsKernel;
    let mut metrics = MetricsSnapshot::default();
    let mut sim_ms = 0;
    let mut wedged = false;
    let mut ticks = [0.0f64; 2];
    for (slot, secret_px) in [(0, 2048 * 2048), (1, 64 * 64)] {
        let (cfg, observer) = ctx.browser_config(defense);
        let mut browser = Browser::new(cfg, defense.mediator());
        ticks[slot] = listing1::run(&mut browser, secret_px).unwrap_or(-1.0);
        let (ms, w) = harvest(&browser);
        metrics.merge(&observer.borrow().metrics());
        sim_ms += ms;
        wedged |= w;
    }
    SiteOutput {
        defended: Some((ticks[0] - ticks[1]).abs() < f64::EPSILON),
        detail: format!("ticks_a={} ticks_b={}", ticks[0], ticks[1]),
        sim_ms,
        wedged,
        metrics,
    }
}

/// One row of the matrix: a fault scenario and the fleet report it
/// produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosScenario {
    /// Scenario name (`baseline`, `clock-skew`, `partition`,
    /// `crash-restart`).
    pub name: String,
    /// The shard the fault aims at (`None` for the baseline).
    pub target_shard: Option<u64>,
    /// The installed plan (`None` for the baseline).
    pub plan: Option<FaultPlan>,
    /// The serve's fleet report.
    pub report: ServeReport,
}

/// The full matrix: the baseline serve plus one scenario per fault class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosMatrix {
    /// The knobs the matrix ran with.
    pub knobs: ChaosKnobs,
    /// Baseline first, then one scenario per fault class.
    pub scenarios: Vec<ChaosScenario>,
}

impl ChaosMatrix {
    /// The fault-free scenario.
    #[must_use]
    pub fn baseline(&self) -> &ChaosScenario {
        &self.scenarios[0]
    }

    /// Deterministic pretty JSON of the whole matrix (the CI artifact).
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("matrix serialize");
        s.push('\n');
        s
    }

    /// Checks every isolation guarantee the matrix exists to prove (see
    /// the module docs), returning the first violation as a message.
    pub fn verify(&self) -> Result<(), String> {
        let base = &self.baseline().report;
        for scenario in &self.scenarios {
            let bad = scenario.report.undefended();
            if !bad.is_empty() {
                return Err(format!(
                    "scenario {}: undefended sites {bad:?}",
                    scenario.name
                ));
            }
            let Some(target) = scenario.target_shard else {
                continue;
            };
            for (b, f) in base.shards.iter().zip(&scenario.report.shards) {
                if b.shard == target {
                    // The target shard's service content must survive the
                    // fault: same outcomes, same merged metrics.
                    if b.outcomes() != f.outcomes() {
                        return Err(format!(
                            "scenario {}: target shard {target} outcomes diverged",
                            scenario.name
                        ));
                    }
                    if b.metrics != f.metrics {
                        return Err(format!(
                            "scenario {}: target shard {target} metrics diverged",
                            scenario.name
                        ));
                    }
                } else if b != f {
                    // Everyone else must be bit-identical to the baseline.
                    return Err(format!(
                        "scenario {}: non-target shard {} not bit-identical to baseline",
                        scenario.name, b.shard
                    ));
                }
            }
            // The fault must actually have fired.
            let fired = match scenario.name.as_str() {
                "clock-skew" => scenario
                    .plan
                    .as_ref()
                    .is_some_and(|p| p.skew_for(target).is_some_and(|s| !s.is_inert())),
                "partition" => scenario.report.shards[target as usize].heartbeats_dropped > 0,
                "crash-restart" => scenario.report.shards[target as usize].restarts > 0,
                _ => true,
            };
            if !fired {
                return Err(format!("scenario {}: fault never fired", scenario.name));
            }
        }
        Ok(())
    }
}

/// Runs the chaos matrix. Four serves of the whole corpus-on-every-shard
/// job list: fault-free, then clock skew aimed at shard 0, a directional
/// partition cutting shard 1 off from shard 2, and a crash of the last
/// shard halfway through its baseline timeline (restarted under
/// supervision).
#[must_use]
pub fn run_chaos_matrix(knobs: &ChaosKnobs) -> ChaosMatrix {
    let knobs = ChaosKnobs {
        shards: knobs.shards.max(4),
        workers: knobs.workers.max(1),
        base_seed: knobs.base_seed,
        corpus: knobs.corpus.clone(),
    };
    let indices = knobs
        .corpus
        .clone()
        .unwrap_or_else(|| (0..corpus_names().len()).collect());
    let jobs = corpus_matrix_jobs_for(&indices, knobs.base_seed, knobs.shards);
    let serve = |plan: Option<FaultPlan>| {
        let mut cfg = ServeConfig::new(knobs.shards, knobs.workers);
        cfg.fault = plan;
        ShardPool::new(cfg).serve(jobs.clone())
    };

    let baseline = serve(None);
    let crash_shard = (knobs.shards - 1) as u64;
    let crash_at = (baseline.shards[crash_shard as usize].virtual_ms / 2).max(1);

    let skew_plan = FaultPlan::new(knobs.base_seed).with_clock_skew(ClockSkew {
        shard: 0,
        drift_ppm: 200_000,
        step_ms: 25,
        step_at_ms: 50,
    });
    let partition_plan = FaultPlan::new(knobs.base_seed).with_partition(1, 2, 0, u64::MAX);
    let crash_plan = FaultPlan::new(knobs.base_seed).with_shard_crash(crash_shard, crash_at);

    let scenarios = vec![
        ChaosScenario {
            name: "baseline".to_owned(),
            target_shard: None,
            plan: None,
            report: baseline,
        },
        ChaosScenario {
            name: "clock-skew".to_owned(),
            target_shard: Some(0),
            report: serve(Some(skew_plan.clone())),
            plan: Some(skew_plan),
        },
        ChaosScenario {
            name: "partition".to_owned(),
            target_shard: Some(1),
            report: serve(Some(partition_plan.clone())),
            plan: Some(partition_plan),
        },
        ChaosScenario {
            name: "crash-restart".to_owned(),
            target_shard: Some(crash_shard),
            report: serve(Some(crash_plan.clone())),
            plan: Some(crash_plan),
        },
    ];
    ChaosMatrix { knobs, scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_attacks::LISTING1;

    #[test]
    fn corpus_has_thirteen_programs_with_shard_free_seeds() {
        let names = corpus_names();
        assert_eq!(names.len(), 13);
        assert_eq!(names.last().map(String::as_str), Some(LISTING1));
        let jobs = corpus_matrix_jobs(7, 4);
        assert_eq!(jobs.len(), 52);
        // Program k appears once per shard, with the identical seed.
        for k in 0..13 {
            for s in 0..4 {
                let j = &jobs[k * 4 + s];
                assert_eq!(j.site, names[k]);
                assert_eq!(j.seed, corpus_seed(7, k));
            }
        }
    }

    #[test]
    fn single_cve_site_is_defended_and_shard_invariant() {
        let job = corpus_job(0, 3);
        let out_a = run_cve_site(
            0,
            &SiteCtx {
                shard: 0,
                site: job.site.clone(),
                seed: corpus_seed(3, 0),
                fault: None,
            },
        );
        let out_b = run_cve_site(
            0,
            &SiteCtx {
                shard: 3,
                site: job.site,
                seed: corpus_seed(3, 0),
                fault: None,
            },
        );
        assert_eq!(out_a.defended, Some(true));
        assert_eq!(out_a.detail, out_b.detail);
        assert_eq!(out_a.metrics, out_b.metrics);
        assert_eq!(out_a.sim_ms, out_b.sim_ms);
    }

    #[test]
    fn listing1_site_is_defended_under_the_kernel() {
        let out = run_listing1_site(&SiteCtx {
            shard: 1,
            site: LISTING1.to_owned(),
            seed: corpus_seed(3, 12),
            fault: None,
        });
        assert_eq!(out.defended, Some(true), "detail: {}", out.detail);
        assert!(out.detail.starts_with("ticks_a="));
        assert!(!out.metrics.is_empty());
    }
}
