//! # jsk-fuzz — coverage-guided interleaving search
//!
//! The ROADMAP's "adversarial interleaving search": a deterministic,
//! seeded mutation engine over the serializable event schedules in
//! [`jsk_workloads::schedule`], driving the real browser + kernel and
//! keeping whatever reaches new behavior.
//!
//! ## Coverage signal
//!
//! Each candidate schedule runs twice — once raw (legacy mediator), once
//! under the hardened kernel — and is fingerprinted ([`coverage`]) by:
//!
//! * scanner [`PatternKind`](jsk_analyze::scanner::PatternKind) hits in
//!   the raw trace,
//! * race targets the happens-before detector flags in the raw trace,
//! * per-rule `policy.*` denial counters from the kernel run
//!   ([`KernelStats::denials`](jsk_core::stats::KernelStats)), and
//! * log₂-bucketed happens-before edge counts from the kernel trace.
//!
//! A candidate that contributes any feature the corpus has not shown
//! before joins the corpus and seeds later mutation rounds.
//!
//! ## Startup corpus
//!
//! Generation 0 is [`seeds::startup_corpus`]: the canonical workload
//! seeds, the minimized reproducers checked into `fuzz_corpus/`
//! (compiled in via `include_str!`), and analysis-derived schedules —
//! replay-confirmed witnesses from the predictive race detector and
//! concrete realizations of any bounded-prover counterexample. Past
//! discoveries and proofs feed the search instead of being re-derived.
//!
//! ## Oracle
//!
//! The race detector over the **kernel-mode** trace. The kernel's
//! serialized dispatcher must keep every schedule race-free; a schedule
//! whose kernel run still races is an *oracle violation* — the CI
//! `smoke (fuzz)` job fails on any. Raw-mode races that open novel coverage
//! are *findings*: newly discovered attack interleavings, minimized by
//! delta-debugging ([`fn@minimize`]) and emitted as corpus-entry JSON
//! ([`Schedule::to_json`](jsk_workloads::schedule::Schedule)) for
//! promotion into the regression corpus.
//!
//! ## Determinism
//!
//! Candidate generation is a pure function of (`JSK_FUZZ_SEED`, round,
//! slot); evaluation fans out through the order-preserving worker pool
//! and merges serially, so reports are byte-identical under any
//! `JSK_JOBS`.

pub mod coverage;
pub mod engine;
pub mod minimize;
pub mod mutate;
pub mod seeds;

pub use coverage::{evaluate, Eval, BROWSER_SEED};
pub use engine::{run_fuzz, Finding, FuzzConfig, FuzzReport, RecallEntry};
pub use minimize::minimize;
pub use mutate::mutate;
pub use seeds::{analysis_seeds, imported_seeds, is_canonical, startup_corpus};
