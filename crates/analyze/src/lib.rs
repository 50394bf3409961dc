//! # jsk-analyze — static/trace analysis for JSKernel
//!
//! Three passes over the artifacts the rest of the workspace produces:
//!
//! 1. **Happens-before race detector** ([`hb`]): builds the HB graph from a
//!    recorded [`Trace`](jsk_browser::trace::Trace) — fork edges from task
//!    provenance plus the kernel's announced dispatch-chain and
//!    kernel-comm edges — and reports every conflicting access pair the
//!    graph leaves unordered, with both access stacks and a minimal
//!    reordering witness.
//! 2. **Attack-pattern scanner** ([`scanner`]): state machines over the
//!    API/fact stream flagging *potential* web-concurrency attack
//!    signatures (implicit-clock tickers, use-after-termination windows,
//!    error-leak orderings, …), each mapped to its CVE family.
//! 3. **Policy linter** ([`lint`]): static checks over
//!    [`PolicySpec`](jsk_core::policy::PolicySpec)s — shadowed rules,
//!    conditions the kernel can never satisfy, no-op allows, per-CVE
//!    policies that cannot order their racy pair, and defer rules that
//!    livelock without the watchdog.
//! 4. **Predictive race detection** ([`mod@predict`]): re-runs the detector
//!    over a soundly *weakened* order — dropping the kernel dispatcher's
//!    `DispatchChain` edges, which are scheduler choices rather than
//!    semantic dependencies — to report pairs reorderable in some
//!    feasible schedule, each with a raw-replay witness schedule.
//! 5. **Bounded policy prover** ([`prove`]): exhaustively enumerates op
//!    interleavings of a policy × attack-pattern product machine up to a
//!    depth bound, proving "policy defeats pattern for all schedules
//!    ≤ N" or emitting a minimal counterexample schedule.
//!
//! [`report::analyze`] combines the first two into one JSON-stable
//! [`report::AnalysisReport`]; [`corpus`] runs the twelve CVE programs and
//! the Listing 1 attack through it in raw and kernel modes.

pub mod corpus;
pub mod hb;
pub mod lint;
pub mod predict;
pub mod prove;
pub mod report;
pub mod scanner;

pub use corpus::{run_program, run_program_trace, CorpusMode};
pub use hb::{detect_races, AccessSite, HbGraph, RaceFinding, ReorderWitness};
pub use lint::{lint_policy, lint_policy_set, LintKind, LintLevel, PolicyLint};
pub use predict::{
    confirmed_witnesses, predict, predict_corpus, predict_schedule, PredictReport, PredictedRace,
};
pub use prove::{prove_all, prove_depth, prove_policy, ProofRow, ProveReport, Verdict};
pub use report::{analyze, AnalysisReport};
pub use scanner::{scan, PatternFinding, PatternKind};
