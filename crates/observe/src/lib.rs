//! Kernel-wide tracing, metrics, and profiling for the JSKernel
//! reproduction.
//!
//! The paper's evaluation (§VI) rests on *seeing* what the kernel did —
//! which events were deferred, reordered, or confirmed, and what that
//! cost. This crate is the layer that makes that visible without
//! perturbing it:
//!
//! * [`Subscriber`] / [`ObsHandle`] — the hook interface `jsk-core` and
//!   `jsk-browser` call at span, instant, and metric sites once an
//!   observer is attached. Names are [`Sym`]-interned once at attach
//!   time; hooks pass integers only.
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — counters, gauges, and
//!   fixed-bucket histograms with deterministic JSON export and
//!   commutative merge (so `JSK_JOBS`-parallel harvests fold
//!   bit-identically).
//! * [`chrome`] — Chrome trace-event JSON (Perfetto-loadable) export of
//!   the buffered spans, plus the schema [`chrome::validate`] check CI
//!   runs.
//! * [`Observer`] — the bundled subscriber combining all of the above;
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
pub mod subscriber;
pub mod sym;
pub mod text;

pub use chrome::{Phase, TraceEvent, TraceSummary};
pub use metrics::{base_name, GaugeSnapshot, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use observer::{handle_of, Observer};
pub use subscriber::{ObsHandle, Subscriber};
pub use sym::{Interner, Sym};
pub use text::render_text;

/// Whether observation is enabled by the environment: `JSK_OBSERVE`
/// unset, `1`, or `true` → on; `0` or `false` → off. Examples and
/// harnesses consult this before attaching an observer, so a run can be
/// de-instrumented without rebuilding.
#[must_use]
pub fn enabled_from_env() -> bool {
    match std::env::var("JSK_OBSERVE") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off"),
        Err(_) => true,
    }
}
