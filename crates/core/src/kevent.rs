//! Kernel event objects (paper §III-C1, §III-D).
//!
//! Every asynchronous browser event the kernel mediates is mirrored by a
//! [`KernelEvent`] that moves through the paper's lifecycle:
//! **pending** (registered with a predicted time) → **confirmed** (the raw
//! browser trigger fired) → **ready/dispatched** (released to the thread's
//! event loop in predicted order) — or **cancelled** at any point before
//! dispatch.

use jsk_browser::event::AsyncKind;
use jsk_browser::ids::{EventToken, ThreadId};
use jsk_sim::time::SimTime;

/// Lifecycle status of a kernel event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KEventStatus {
    /// Registered; the raw browser trigger has not fired yet.
    Pending,
    /// The raw trigger fired; the event waits its turn in predicted order.
    Confirmed,
    /// Cancelled by user space before dispatch.
    Cancelled,
    /// Released to the thread's event loop.
    Dispatched,
}

/// One kernel-mediated asynchronous event. `Copy`: five words, moved
/// out of the queue by value when the dispatcher pops it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelEvent {
    /// The browser-level token identifying the event across layers.
    pub token: EventToken,
    /// The thread whose event loop will run it.
    pub thread: ThreadId,
    /// The registration kind (determines the prediction).
    pub kind: AsyncKind,
    /// The deterministic predicted invocation time (kernel-clock timeline).
    pub predicted: SimTime,
    /// Lifecycle status.
    pub status: KEventStatus,
}

impl KernelEvent {
    /// Creates a pending event with the given prediction.
    #[must_use]
    pub fn pending(
        token: EventToken,
        thread: ThreadId,
        kind: AsyncKind,
        predicted: SimTime,
    ) -> KernelEvent {
        KernelEvent {
            token,
            thread,
            kind,
            predicted,
            status: KEventStatus::Pending,
        }
    }

    /// Whether the event still blocks later-predicted events (pending or
    /// confirmed — i.e. not yet out of the queue).
    #[must_use]
    pub fn is_live(&self) -> bool {
        matches!(self.status, KEventStatus::Pending | KEventStatus::Confirmed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_flags() {
        let mut e = KernelEvent::pending(
            EventToken::new(1),
            ThreadId::new(0),
            AsyncKind::Raf,
            SimTime::from_millis(10),
        );
        assert_eq!(e.status, KEventStatus::Pending);
        assert!(e.is_live());
        e.status = KEventStatus::Confirmed;
        assert!(e.is_live());
        e.status = KEventStatus::Dispatched;
        assert!(!e.is_live());
        e.status = KEventStatus::Cancelled;
        assert!(!e.is_live());
    }
}
