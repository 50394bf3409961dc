//! The fuzz loop: batch-synchronous, coverage-guided search over event
//! schedules.
//!
//! Each round derives a fixed-size batch of mutants from the current
//! corpus (a pure function of the fuzz seed, round, and slot — never of
//! the worker count), evaluates the batch through the order-preserving
//! worker pool, and merges results serially in slot order. That makes the
//! whole report byte-identical under any `JSK_JOBS`, the same contract
//! the bench and chaos harnesses keep.

use crate::coverage::{evaluate, BROWSER_SEED};
use crate::minimize::minimize;
use crate::mutate::mutate;
use crate::seeds::startup_corpus;
use jsk_analyze::report::analyze;
use jsk_bench::pool;
use jsk_browser::mediator::LegacyMediator;
use jsk_core::{JsKernel, KernelConfig};
use jsk_sim::knob::env_knob;
use jsk_sim::rng::SimRng;
use jsk_workloads::schedule::{run_schedule, Schedule};
use serde::Serialize;
use std::collections::BTreeSet;

/// Mutants per round. Fixed — not derived from `JSK_JOBS` — so the
/// candidate stream is identical however the evaluation fans out.
const BATCH: usize = 16;

/// Fuzzer knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Mutation budget: total mutants to evaluate (`JSK_FUZZ_ITERS`).
    pub iters: usize,
    /// Fuzz seed driving parent choice and mutations (`JSK_FUZZ_SEED`).
    pub seed: u64,
    /// Evaluation workers (`JSK_JOBS`); never affects report bytes.
    pub jobs: usize,
    /// When false, only the seed corpus is evaluated (the recall mode the
    /// acceptance check uses).
    pub mutations: bool,
}

impl FuzzConfig {
    /// Reads `JSK_FUZZ_ITERS` (default 200), `JSK_FUZZ_SEED` (default 1),
    /// and `JSK_JOBS` through the shared knob parser — invalid values
    /// warn on stderr and fall back to the default.
    #[must_use]
    pub fn from_env() -> FuzzConfig {
        FuzzConfig {
            iters: env_knob("JSK_FUZZ_ITERS", 200),
            seed: env_knob("JSK_FUZZ_SEED", 1) as u64,
            jobs: pool::jobs(),
            mutations: true,
        }
    }
}

/// One seed-corpus evaluation, kept for the recall check: with mutations
/// disabled the fuzzer must re-discover the scanner hit of every corpus
/// program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecallEntry {
    /// Corpus program name.
    pub name: String,
    /// Scanner patterns the raw run showed, sorted.
    pub patterns: Vec<String>,
    /// Races the raw run showed.
    pub raw_races: usize,
    /// Races the kernel run showed (must be 0).
    pub kernel_races: usize,
}

/// A minimized reproducer: either a newly discovered racy interleaving
/// (raw mode) or — far worse — a schedule that races *under the kernel*
/// (an oracle violation).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Finding {
    /// Mutant name (`parent~r<round>s<slot>` provenance).
    pub name: String,
    /// The mutation that produced it.
    pub mutation: String,
    /// Coverage features this mutant was the first to exhibit, sorted.
    pub novel: Vec<String>,
    /// Raw-trace races of the *minimized* schedule.
    pub raw_races: usize,
    /// Kernel-trace races of the *minimized* schedule.
    pub kernel_races: usize,
    /// Event count before minimization.
    pub events_before: usize,
    /// Event count after minimization.
    pub events_after: usize,
    /// The minimized schedule — corpus-entry JSON shape, directly
    /// runnable by `jsk_workloads::schedule::run_schedule`.
    pub schedule: Schedule,
}

/// The full, deterministic output of one fuzz run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FuzzReport {
    /// Fuzz seed.
    pub seed: u64,
    /// Requested mutation budget.
    pub iters: usize,
    /// Candidates actually evaluated (seeds + mutants).
    pub executed: usize,
    /// Live corpus size at exit (seeds + coverage-novel mutants).
    pub corpus_size: usize,
    /// Every coverage feature seen, sorted.
    pub coverage: Vec<String>,
    /// Per-seed recall results.
    pub recall: Vec<RecallEntry>,
    /// Minimized raw-mode findings (novel racy interleavings).
    pub findings: Vec<Finding>,
    /// Minimized kernel-mode failures. Any entry is a kernel bug; the CI
    /// `smoke (fuzz)` job fails on a non-empty list.
    pub oracle_violations: Vec<Finding>,
}

impl FuzzReport {
    /// Deterministic pretty JSON. Field order is fixed by the struct and
    /// every vector is sorted or slot-ordered, so two runs with the same
    /// config produce identical bytes whatever `JSK_JOBS` was.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }
}

fn raw_races(schedule: &Schedule) -> usize {
    let b = run_schedule(schedule, Box::new(LegacyMediator), BROWSER_SEED);
    analyze(b.trace()).races.len()
}

fn kernel_races(schedule: &Schedule) -> usize {
    let b = run_schedule(
        schedule,
        Box::new(JsKernel::new(KernelConfig::hardened())),
        BROWSER_SEED,
    );
    analyze(b.trace()).races.len()
}

/// Runs the fuzzer to completion. Deterministic: `(seed, iters,
/// mutations)` fully determine the report; `jobs` only changes wall-clock
/// time.
#[must_use]
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let seeds = startup_corpus();
    let mut corpus = seeds.clone();
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut findings = Vec::new();
    let mut oracle_violations = Vec::new();
    let mut executed = 0usize;

    // Generation 0: the startup corpus (canonical seeds, imported
    // `fuzz_corpus/` reproducers, analysis-derived witnesses), evaluated
    // in parallel and merged in corpus order.
    let seed_evals = pool::run_indexed(seeds.len(), cfg.jobs, |i| evaluate(&seeds[i]));
    let mut recall = Vec::with_capacity(seed_evals.len());
    for eval in &seed_evals {
        executed += 1;
        covered.extend(eval.features.iter().cloned());
        recall.push(RecallEntry {
            name: eval.name.clone(),
            patterns: eval.raw_patterns.clone(),
            raw_races: eval.raw_races,
            kernel_races: eval.kernel_races,
        });
        if eval.kernel_races > 0 {
            let seed_schedule = seeds
                .iter()
                .find(|s| s.name == eval.name)
                .expect("seed eval name matches a seed");
            oracle_violations.push(minimized_finding(seed_schedule, "seed", Vec::new(), true));
        }
    }

    if cfg.mutations {
        let rounds = cfg.iters.div_ceil(BATCH);
        for round in 0..rounds {
            let batch = BATCH.min(cfg.iters - round * BATCH);
            // Candidate generation is serial and corpus-order dependent —
            // exactly the state every worker count agrees on at a round
            // boundary.
            let candidates: Vec<(Schedule, String)> = (0..batch)
                .map(|slot| {
                    let mut rng = SimRng::new(cfg.seed).fork(&format!("round-{round}-slot-{slot}"));
                    let parent = &corpus[rng.index(corpus.len())];
                    mutate(parent, &corpus, &mut rng, &format!("r{round}s{slot}"))
                })
                .collect();
            let evals = pool::run_indexed(batch, cfg.jobs, |slot| evaluate(&candidates[slot].0));
            for (slot, eval) in evals.iter().enumerate() {
                executed += 1;
                let (candidate, mutation) = &candidates[slot];
                let novel: Vec<String> = eval.features.difference(&covered).cloned().collect();
                if eval.kernel_races > 0 {
                    oracle_violations.push(minimized_finding(
                        candidate,
                        mutation,
                        novel.clone(),
                        true,
                    ));
                }
                if novel.is_empty() {
                    continue;
                }
                covered.extend(novel.iter().cloned());
                if eval.raw_races > 0 {
                    findings.push(minimized_finding(candidate, mutation, novel.clone(), false));
                }
                corpus.push(candidate.clone());
            }
        }
    }

    FuzzReport {
        seed: cfg.seed,
        iters: if cfg.mutations { cfg.iters } else { 0 },
        executed,
        corpus_size: corpus.len(),
        coverage: covered.into_iter().collect(),
        recall,
        findings,
        oracle_violations,
    }
}

/// Delta-debugs `candidate` against the relevant oracle and packages the
/// reproducer.
fn minimized_finding(
    candidate: &Schedule,
    mutation: &str,
    novel: Vec<String>,
    against_kernel: bool,
) -> Finding {
    let events_before = candidate.events.len();
    let min = if against_kernel {
        minimize(candidate, |s| kernel_races(s) > 0)
    } else {
        minimize(candidate, |s| raw_races(s) > 0)
    };
    Finding {
        name: candidate.name.clone(),
        mutation: mutation.to_owned(),
        novel,
        raw_races: raw_races(&min),
        kernel_races: kernel_races(&min),
        events_before,
        events_after: min.events.len(),
        schedule: min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(mutations: bool, jobs: usize) -> FuzzConfig {
        FuzzConfig {
            iters: 32,
            seed: 5,
            jobs,
            mutations,
        }
    }

    #[test]
    fn recall_mode_rediscovers_every_corpus_scanner_hit() {
        let report = run_fuzz(&small_cfg(false, 2));
        let canonical: Vec<&RecallEntry> = report
            .recall
            .iter()
            .filter(|e| crate::seeds::is_canonical(&e.name))
            .collect();
        assert_eq!(canonical.len(), 15);
        for entry in canonical {
            assert!(
                !entry.patterns.is_empty(),
                "{} must be re-discovered by the scanner, got no patterns",
                entry.name
            );
        }
        for entry in &report.recall {
            assert_eq!(
                entry.kernel_races, 0,
                "{} must stay race-free under the kernel",
                entry.name
            );
        }
        assert!(report.oracle_violations.is_empty());
        assert_eq!(report.executed, report.recall.len());
    }

    /// The imported `fuzz_corpus/` reproducers are first-class startup
    /// seeds: recall mode re-discovers each one as a raw-racing,
    /// kernel-clean schedule.
    #[test]
    fn recall_mode_rediscovers_the_imported_corpus_findings() {
        let report = run_fuzz(&small_cfg(false, 2));
        let imported = crate::seeds::imported_seeds();
        assert_eq!(imported.len(), 4);
        for seed in &imported {
            let entry = report
                .recall
                .iter()
                .find(|e| e.name == seed.name)
                .unwrap_or_else(|| panic!("{} missing from recall", seed.name));
            assert!(
                entry.raw_races > 0,
                "{} was minimized to a raw race and must still be one",
                entry.name
            );
            assert_eq!(entry.kernel_races, 0);
        }
        // Analysis-derived witnesses ride along too.
        assert!(report
            .recall
            .iter()
            .any(|e| e.name.contains("~predict:") && e.raw_races > 0));
    }

    #[test]
    fn fuzz_report_is_bit_identical_across_worker_counts() {
        let a = run_fuzz(&small_cfg(true, 1));
        let b = run_fuzz(&small_cfg(true, 4));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn fuzz_knobs_read_the_environment_and_fall_back_on_garbage() {
        // No other test in this crate touches these variables, so the
        // process-global environment is safe to mutate here.
        std::env::set_var("JSK_FUZZ_ITERS", "48");
        std::env::set_var("JSK_FUZZ_SEED", "12");
        let cfg = FuzzConfig::from_env();
        assert_eq!(cfg.iters, 48);
        assert_eq!(cfg.seed, 12);

        // Invalid values warn on stderr (via the shared knob parser) and
        // fall back to the defaults instead of masquerading as config.
        std::env::set_var("JSK_FUZZ_ITERS", "lots");
        std::env::set_var("JSK_FUZZ_SEED", "-2");
        let cfg = FuzzConfig::from_env();
        assert_eq!(cfg.iters, 200);
        assert_eq!(cfg.seed, 1);

        std::env::remove_var("JSK_FUZZ_ITERS");
        std::env::remove_var("JSK_FUZZ_SEED");
        let cfg = FuzzConfig::from_env();
        assert_eq!((cfg.iters, cfg.seed), (200, 1));
        assert!(cfg.mutations);
    }

    #[test]
    fn mutation_rounds_grow_coverage_beyond_the_seeds() {
        let baseline = run_fuzz(&small_cfg(false, 2));
        let fuzzed = run_fuzz(&small_cfg(true, 2));
        assert!(fuzzed.executed > baseline.executed);
        assert!(
            fuzzed.coverage.len() >= baseline.coverage.len(),
            "coverage can only grow"
        );
        assert!(fuzzed.oracle_violations.is_empty(), "kernel must hold");
    }
}
