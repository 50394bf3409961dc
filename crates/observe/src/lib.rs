//! Kernel-wide tracing, metrics, and profiling for the JSKernel
//! reproduction.
//!
//! The paper's evaluation (§VI) rests on *seeing* what the kernel did —
//! which events were deferred, reordered, or confirmed, and what that
//! cost. This crate is the layer that makes that visible without
//! perturbing it:
//!
//! * [`ObsHandle`] — the handle onto one shared [`Observer`] that
//!   `jsk-core` and `jsk-browser` call at span, instant, and metric sites
//!   once it is attached. Names are [`Sym`]s from one process-wide table
//!   ([`intern`]), taken once per process; hooks pass integers only.
//! * [`MetricsSnapshot`] — counters, gauges, and fixed-bucket
//!   histograms, which the observer's hooks update in place, with
//!   deterministic JSON export and commutative merge (so
//!   `JSK_JOBS`-parallel harvests fold bit-identically).
//! * [`chrome`] — Chrome trace-event JSON (Perfetto-loadable) export of
//!   the buffered spans, plus the schema [`chrome::validate`] check CI
//!   runs.
//! * [`Observer`] — the hooks' receiver, combining all of the above;
//!   attach it via `BrowserConfig::with_observer(handle_of(&shared))`.
//!
//! Everything is timestamped from the **deterministic simulation clock**
//! — there is no `Date::now` anywhere in this crate — so every export is
//! a pure function of the run's seed.
//!
//! `examples/observe_run.rs` records an attack scenario end-to-end and
//! writes `trace.perfetto.json`; `docs/BOOK.md` walks through reading the
//! result.

#![deny(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod observer;
pub mod sym;
pub mod text;

pub use chrome::{Phase, TraceEvent, TraceSummary};
pub use metrics::{intern, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
pub use observer::{handle_of, ObsHandle, Observer};
pub use sym::{Interner, Sym};
pub use text::render_text;
