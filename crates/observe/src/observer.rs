//! The bundled [`Subscriber`]: metrics registry + optional trace buffer.

use crate::chrome::{self, Phase, TraceEvent, TraceSummary};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::subscriber::{ObsHandle, Subscriber};
use crate::sym::{Interner, Sym};
use jsk_sim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// The standard observer: always maintains a [`MetricsRegistry`]; with
/// [`Observer::with_trace`] it additionally buffers every span/instant as
/// a [`TraceEvent`] for Chrome trace-event export. Metrics-only is the
/// bench configuration (hook cost is a map update, no buffer growth);
/// tracing is the profiling configuration.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    strings: Interner,
    metrics: MetricsRegistry,
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

    /// Name-resolved snapshot of the metrics recorded so far.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(&self.strings)
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
        chrome::chrome_trace_json(&self.events, &self.strings)
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

impl Subscriber for Observer {
    fn intern(&mut self, name: &'static str) -> Sym {
        self.strings.intern_static(name)
    }

    fn span_enter(&mut self, name: Sym, tid: u64, at: SimTime) {
        self.push(Phase::Begin, name, tid, at, None);
    }

    fn span_exit(&mut self, name: Sym, tid: u64, at: SimTime) {
        self.push(Phase::End, name, tid, at, None);
    }

    fn instant(&mut self, name: Sym, tid: u64, at: SimTime) {
        self.push(Phase::Instant, name, tid, at, None);
    }

    fn async_begin(&mut self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.push(Phase::AsyncBegin, name, tid, at, Some(id));
    }

    fn async_end(&mut self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.push(Phase::AsyncEnd, name, tid, at, Some(id));
    }

    fn counter_add(&mut self, name: Sym, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&mut self, name: Sym, value: u64) {
        self.metrics.gauge_set(name, value);
    }

    fn histogram_record(&mut self, name: Sym, value: u64) {
        self.metrics.histogram_record(name, value);
    }
}

/// An [`ObsHandle`] onto a shared observer (the form `BrowserConfig`
/// accepts), leaving the caller's `Rc` free to harvest results later.
#[must_use]
pub fn handle_of(observer: &Rc<RefCell<Observer>>) -> ObsHandle {
    ObsHandle::new(observer.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_only_observer_ignores_spans() {
        let mut o = Observer::new();
        let s = o.intern("kernel.dispatch");
        o.span_enter(s, 0, SimTime::ZERO);
        o.span_exit(s, 0, SimTime::from_micros(1));
        o.counter_add(s, 1);
        assert!(o.events().is_empty());
        assert_eq!(o.metrics().counter("kernel.dispatch"), 1);
    }

    #[test]
    fn capacity_cap_truncates_prefix_and_counts_drops() {
        let mut o = Observer::with_trace_capacity(2);
        let s = o.intern("kernel.dispatch");
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
        let s = h.intern("browser.task");
        h.span_enter(s, 0, SimTime::ZERO);
        h.span_exit(s, 0, SimTime::from_micros(3));
        let summary = shared.borrow().validate_trace().expect("valid");
        assert_eq!(summary.events, 2);
        assert_eq!(summary.spans, 1);
    }
}
