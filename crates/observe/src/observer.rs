//! The observer and the handle instrumented code holds.
//!
//! `jsk-core` and `jsk-browser` hold an optional [`ObsHandle`] onto one
//! shared [`Observer`] and call its hooks at the instrumentation points.
//! Each hook takes a [`Sym`] plus plain integers — nothing allocates once
//! a name has its row —
//! and timestamps come from the deterministic simulation clock
//! ([`SimTime`]), never from the host's wall clock, so a recorded trace is
//! a pure function of the run's seed.
//!
//! A name's `Sym` is its id in the process-wide series table
//! ([`crate::intern`]), not an index into a table of the observer's own:
//! instrumented code takes its names once per process, attaching an
//! observer interns nothing, and both the metrics snapshot and the Chrome
//! export read names from that one table.

use crate::chrome::{self, Phase, TraceEvent, TraceSummary};
use crate::metrics::{bucket_index, MetricsSnapshot, Series};
use crate::sym::Sym;
use jsk_sim::time::SimTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The standard observer: always records metrics straight into a
/// [`MetricsSnapshot`]; with [`Observer::with_trace`] it additionally
/// buffers every span/instant as a [`TraceEvent`] for Chrome trace-event
/// export. Metrics-only is the bench configuration (hook cost is an
/// in-place row update, no buffer growth); tracing is the profiling
/// configuration.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    metrics: MetricsSnapshot,
    record_events: bool,
    events: Vec<TraceEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl Observer {
    /// A metrics-only observer (spans and instants update nothing).
    #[must_use]
    pub fn new() -> Observer {
        Observer::default()
    }

    /// An observer that also buffers trace events for Perfetto export.
    /// The buffer is unbounded; long simulations should prefer
    /// [`Observer::with_trace_capacity`].
    #[must_use]
    pub fn with_trace() -> Observer {
        Observer {
            record_events: true,
            ..Observer::default()
        }
    }

    /// A tracing observer whose event buffer stops growing at `capacity`
    /// events. Recording is prefix-truncating: the first `capacity` events
    /// are kept (registration, first dispatches, policy denials — the part
    /// a profiling session reads first) and later ones are counted in
    /// [`Observer::dropped_events`]. Metrics are unaffected by the cap.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Observer {
        Observer {
            record_events: true,
            capacity: Some(capacity),
            ..Observer::default()
        }
    }

    /// How many trace events the capacity cap discarded (0 when unbounded).
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Wraps the observer for sharing. Keep one clone to harvest results
    /// and pass an [`ObsHandle`] made from the other to the browser:
    ///
    /// ```
    /// use jsk_observe::{handle_of, Observer};
    /// let shared = Observer::with_trace().shared();
    /// let handle = handle_of(&shared);   // goes to BrowserConfig
    /// // ... run ...
    /// let json = shared.borrow().chrome_trace_json();
    /// assert!(jsk_observe::chrome::validate(&json).is_ok());
    /// ```
    #[must_use]
    pub fn shared(self) -> Rc<RefCell<Observer>> {
        Rc::new(RefCell::new(self))
    }

    /// A copy of the metrics recorded so far.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.clone()
    }

    /// Deterministic pretty JSON of the metrics snapshot.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.metrics()).expect("metrics serialize");
        s.push('\n');
        s
    }

    /// The buffered trace events (empty unless built [`Observer::with_trace`]).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the buffered events as Chrome trace-event JSON.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        chrome::chrome_trace_json(&self.events)
    }

    /// Validates this observer's own export (used by smoke tests).
    pub fn validate_trace(&self) -> Result<TraceSummary, String> {
        chrome::validate(&self.chrome_trace_json())
    }

    fn push(&mut self, ph: Phase, name: Sym, tid: u64, ts: SimTime, id: Option<u64>) {
        if !self.record_events {
            return;
        }
        if let Some(cap) = self.capacity {
            if self.events.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.events.push(TraceEvent {
            ph,
            name,
            tid,
            ts,
            id,
        });
    }
}

/// The instrumentation hooks.
impl Observer {
    /// A synchronous span opened on thread `tid` at sim-time `at`.
    pub fn span_enter(&mut self, name: Sym, tid: u64, at: SimTime) {
        self.push(Phase::Begin, name, tid, at, None);
    }

    /// The matching close of [`Observer::span_enter`].
    pub fn span_exit(&mut self, name: Sym, tid: u64, at: SimTime) {
        self.push(Phase::End, name, tid, at, None);
    }

    /// A zero-duration point event.
    pub fn instant(&mut self, name: Sym, tid: u64, at: SimTime) {
        self.push(Phase::Instant, name, tid, at, None);
    }

    /// Opens an asynchronous span correlated by `id` (e.g. an event
    /// token's register→dispatch round trip, which starts and ends in
    /// different tasks).
    pub fn async_begin(&mut self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.push(Phase::AsyncBegin, name, tid, at, Some(id));
    }

    /// Closes the asynchronous span opened with the same `name` and `id`.
    pub fn async_end(&mut self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.push(Phase::AsyncEnd, name, tid, at, Some(id));
    }

    /// Adds `delta` to a monotonically increasing counter.
    pub fn counter_add(&mut self, name: Sym, delta: u64) {
        let c = self.metrics.counters.entry(Series::unlabelled(name), || 0);
        *c = c.saturating_add(delta);
    }

    /// Sets the current value of a gauge, tracking the maximum ever set.
    pub fn gauge_set(&mut self, name: Sym, value: u64) {
        let g = self
            .metrics
            .gauges
            .entry(Series::unlabelled(name), Default::default);
        g.last = value;
        g.max = g.max.max(value);
    }

    /// Records one observation into a fixed-bucket histogram.
    pub fn histogram_record(&mut self, name: Sym, value: u64) {
        let h = self
            .metrics
            .histograms
            .entry(Series::unlabelled(name), Default::default);
        h.count = h.count.saturating_add(1);
        h.sum = h.sum.saturating_add(value);
        h.max = h.max.max(value);
        h.buckets[bucket_index(value)] += 1;
    }
}

/// A cloneable handle onto one shared [`Observer`].
///
/// The simulated browser is single-threaded and `Rc`-based: the browser,
/// its mediator, and the harness that exports results all hold clones of
/// the same observer. Each forwarding method borrows for exactly the
/// duration of one hook call, so nesting instrumented code (a mediator
/// hook inside a browser task span) never double-borrows.
#[derive(Clone)]
pub struct ObsHandle(Rc<RefCell<Observer>>);

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ObsHandle(..)")
    }
}

impl ObsHandle {
    /// Forwards [`Observer::span_enter`].
    pub fn span_enter(&self, name: Sym, tid: u64, at: SimTime) {
        self.0.borrow_mut().span_enter(name, tid, at);
    }

    /// Forwards [`Observer::span_exit`].
    pub fn span_exit(&self, name: Sym, tid: u64, at: SimTime) {
        self.0.borrow_mut().span_exit(name, tid, at);
    }

    /// Forwards [`Observer::instant`].
    pub fn instant(&self, name: Sym, tid: u64, at: SimTime) {
        self.0.borrow_mut().instant(name, tid, at);
    }

    /// Forwards [`Observer::async_begin`].
    pub fn async_begin(&self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.0.borrow_mut().async_begin(name, id, tid, at);
    }

    /// Forwards [`Observer::async_end`].
    pub fn async_end(&self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.0.borrow_mut().async_end(name, id, tid, at);
    }

    /// Forwards [`Observer::counter_add`].
    pub fn counter_add(&self, name: Sym, delta: u64) {
        self.0.borrow_mut().counter_add(name, delta);
    }

    /// Forwards [`Observer::gauge_set`].
    pub fn gauge_set(&self, name: Sym, value: u64) {
        self.0.borrow_mut().gauge_set(name, value);
    }

    /// Forwards [`Observer::histogram_record`].
    pub fn histogram_record(&self, name: Sym, value: u64) {
        self.0.borrow_mut().histogram_record(name, value);
    }
}

/// An [`ObsHandle`] onto a shared observer (the form `BrowserConfig`
/// accepts), leaving the caller's `Rc` free to harvest results later.
#[must_use]
pub fn handle_of(observer: &Rc<RefCell<Observer>>) -> ObsHandle {
    ObsHandle(observer.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_only_observer_ignores_spans() {
        let mut o = Observer::new();
        let s = crate::intern("kernel.dispatch");
        o.span_enter(s, 0, SimTime::ZERO);
        o.span_exit(s, 0, SimTime::from_micros(1));
        o.counter_add(s, 1);
        assert!(o.events().is_empty());
        assert_eq!(o.metrics().counter("kernel.dispatch"), 1);
    }

    #[test]
    fn capacity_cap_truncates_prefix_and_counts_drops() {
        let mut o = Observer::with_trace_capacity(2);
        let s = crate::intern("kernel.dispatch");
        for i in 0..5u64 {
            o.instant(s, 0, SimTime::from_micros(i));
            o.counter_add(s, 1);
        }
        assert_eq!(o.events().len(), 2);
        assert_eq!(o.dropped_events(), 3);
        // Metrics ignore the cap.
        assert_eq!(o.metrics().counter("kernel.dispatch"), 5);
    }

    #[test]
    fn tracing_observer_exports_through_handle() {
        let shared = Observer::with_trace().shared();
        let h = handle_of(&shared);
        let s = crate::intern("browser.task");
        h.span_enter(s, 0, SimTime::ZERO);
        h.span_exit(s, 0, SimTime::from_micros(3));
        let summary = shared.borrow().validate_trace().expect("valid");
        assert_eq!(summary.events, 2);
        assert_eq!(summary.spans, 1);
    }
}
