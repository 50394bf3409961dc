//! Sharded multi-site kernel serving for the JSKernel reproduction.
//!
//! One kernel instance protects one site. A deployment protects *many*
//! sites at once, and the paper's isolation story (§IV) only matters if
//! one misbehaving — or actively attacked — site cannot perturb its
//! neighbours. This crate is that serving layer:
//!
//! * [`serve`] — the sharded core: `N` per-site kernel shards driven by a
//!   shared work-stealing scheduler ([`ShardPool`]), a supervisor that
//!   restarts crashed shards with bounded retry + backoff and quarantines
//!   repeat offenders, and admission control that sheds load when a
//!   shard's bounded queue fills. Every fleet report is a pure function
//!   of the job list and the fault plan — worker count never changes a
//!   byte of output.
//! * [`chaos`] — the chaos matrix: the full 13-program attack corpus
//!   (twelve CVE exploits plus the Listing 1 implicit-clock attack)
//!   served on **every** shard while each cross-shard fault class — clock
//!   skew, inter-shard partition, shard crash — targets a different
//!   shard. [`chaos::ChaosMatrix::verify`] pins the isolation guarantee:
//!   non-target shards bit-identical to the fault-free baseline, target
//!   shards' verdicts and metrics preserved.
//!
//! Fault classes themselves live in `jsk_sim::fault` (`FaultPlan`'s
//! `with_clock_skew` / `with_partition` / `with_shard_crash`) so that the
//! same plan type configures both single-browser runs and fleet serves.
//!
//! `examples/shard_serving.rs` walks a small fleet through a crash and a
//! partition; `tests/chaos_matrix.rs` runs the matrix end to end.

#![deny(missing_docs)]

pub mod chaos;
pub mod serve;

pub use chaos::{
    corpus_job, corpus_matrix_jobs, corpus_matrix_jobs_for, corpus_seed, run_chaos_matrix,
    ChaosKnobs, ChaosMatrix, ChaosScenario,
};
pub use serve::{
    Seat, ServeConfig, ServeReport, ShardPool, ShardReport, SiteCtx, SiteJob, SiteOutcome,
    SiteOutput, SiteReport,
};
