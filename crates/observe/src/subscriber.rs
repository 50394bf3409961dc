//! The hook interface instrumented code talks to.
//!
//! `jsk-core` and `jsk-browser` never see a concrete observer; they hold an
//! optional [`ObsHandle`] (a shared, interior-mutable `dyn Subscriber`)
//! and call these hooks at the instrumentation points. Each hook takes a pre-interned [`Sym`] plus plain integers —
//! nothing allocates — and timestamps come from the deterministic
//! simulation clock ([`SimTime`]), never from the host's wall clock, so a
//! recorded trace is a pure function of the run's seed.

use crate::sym::Sym;
use jsk_sim::time::SimTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Receiver of instrumentation hooks.
///
/// Implementations decide what to retain: the bundled [`crate::Observer`]
/// keeps a metrics registry and (optionally) a Chrome trace-event buffer;
/// tests install tiny recorders. All hooks have empty-body semantics by
/// contract when the receiver does not care — instrumented code calls them
/// unconditionally once an observer is attached.
pub trait Subscriber {
    /// Interns a name, returning the symbol to pass to later hooks.
    /// Instrumented code calls this once per name at attach time.
    fn intern(&mut self, name: &str) -> Sym;

    /// A synchronous span opened on thread `tid` at sim-time `at`.
    fn span_enter(&mut self, name: Sym, tid: u64, at: SimTime);

    /// The matching close of [`Subscriber::span_enter`].
    fn span_exit(&mut self, name: Sym, tid: u64, at: SimTime);

    /// A zero-duration point event.
    fn instant(&mut self, name: Sym, tid: u64, at: SimTime);

    /// Opens an asynchronous span correlated by `id` (e.g. an event
    /// token's register→dispatch round trip, which starts and ends in
    /// different tasks).
    fn async_begin(&mut self, name: Sym, id: u64, tid: u64, at: SimTime);

    /// Closes the asynchronous span opened with the same `name` and `id`.
    fn async_end(&mut self, name: Sym, id: u64, tid: u64, at: SimTime);

    /// Adds `delta` to a monotonically increasing counter.
    fn counter_add(&mut self, name: Sym, delta: u64);

    /// Sets the current value of a gauge (the registry also tracks the max).
    fn gauge_set(&mut self, name: Sym, value: u64);

    /// Records one observation into a fixed-bucket histogram.
    fn histogram_record(&mut self, name: Sym, value: u64);
}

/// A cloneable, shareable subscriber handle.
///
/// The simulated browser is single-threaded and `Rc`-based, so the handle
/// is an `Rc<RefCell<dyn Subscriber>>`: the browser, its mediator, and the
/// harness that exports results all hold clones of the same observer. Each
/// forwarding method borrows for exactly the duration of one hook call, so
/// nesting instrumented code (a mediator hook inside a browser task span)
/// never double-borrows.
#[derive(Clone)]
pub struct ObsHandle(Rc<RefCell<dyn Subscriber>>);

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ObsHandle(..)")
    }
}

impl ObsHandle {
    /// Wraps a shared subscriber.
    #[must_use]
    pub fn new(sub: Rc<RefCell<dyn Subscriber>>) -> ObsHandle {
        ObsHandle(sub)
    }

    /// Forwards [`Subscriber::intern`].
    #[must_use]
    pub fn intern(&self, name: &str) -> Sym {
        self.0.borrow_mut().intern(name)
    }

    /// Forwards [`Subscriber::span_enter`].
    pub fn span_enter(&self, name: Sym, tid: u64, at: SimTime) {
        self.0.borrow_mut().span_enter(name, tid, at);
    }

    /// Forwards [`Subscriber::span_exit`].
    pub fn span_exit(&self, name: Sym, tid: u64, at: SimTime) {
        self.0.borrow_mut().span_exit(name, tid, at);
    }

    /// Forwards [`Subscriber::instant`].
    pub fn instant(&self, name: Sym, tid: u64, at: SimTime) {
        self.0.borrow_mut().instant(name, tid, at);
    }

    /// Forwards [`Subscriber::async_begin`].
    pub fn async_begin(&self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.0.borrow_mut().async_begin(name, id, tid, at);
    }

    /// Forwards [`Subscriber::async_end`].
    pub fn async_end(&self, name: Sym, id: u64, tid: u64, at: SimTime) {
        self.0.borrow_mut().async_end(name, id, tid, at);
    }

    /// Forwards [`Subscriber::counter_add`].
    pub fn counter_add(&self, name: Sym, delta: u64) {
        self.0.borrow_mut().counter_add(name, delta);
    }

    /// Forwards [`Subscriber::gauge_set`].
    pub fn gauge_set(&self, name: Sym, value: u64) {
        self.0.borrow_mut().gauge_set(name, value);
    }

    /// Forwards [`Subscriber::histogram_record`].
    pub fn histogram_record(&self, name: Sym, value: u64) {
        self.0.borrow_mut().histogram_record(name, value);
    }
}
