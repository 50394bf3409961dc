//! Asynchronous event registration metadata.
//!
//! Every asynchronous callback in the browser — a timer firing, a message
//! delivery, an animation frame, a network completion — is identified by a
//! [`crate::ids::EventToken`] and described by an [`AsyncEventInfo`]. The token lives through the paper's two-phase
//! lifecycle (§III-D): **registration** (the user script asks for the
//! callback), **raw trigger** (the underlying browser condition occurs),
//! **confirmation** (the defense mediator decides when the callback may
//! run), and **invocation**.

use crate::ids::{EventToken, RequestId, ThreadId};
use jsk_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which network API a network callback belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetClass {
    /// A `fetch()` promise callback.
    Fetch,
    /// A `<script src=…>` load (parse included).
    ScriptLoad,
    /// An `<img src=…>` load (decode included).
    ImageLoad,
    /// An `XMLHttpRequest` completion.
    Xhr,
    /// A worker `importScripts` completion.
    ImportScripts,
}

/// The kind of asynchronous event being registered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AsyncKind {
    /// A one-shot timer.
    Timeout {
        /// The clamped delay.
        delay: SimDuration,
        /// Timer nesting depth at registration.
        nesting: u32,
    },
    /// A repeating timer (one registration per firing).
    Interval {
        /// The clamped period.
        delay: SimDuration,
    },
    /// A cross-thread message delivery.
    Message {
        /// The sending thread.
        from: ThreadId,
    },
    /// A `requestAnimationFrame` callback.
    Raf,
    /// A network completion callback.
    Net {
        /// The request this callback resolves.
        req: RequestId,
        /// Which API initiated it.
        class: NetClass,
        /// `true` when the resource was served from the HTTP cache.
        cached: bool,
    },
    /// A media callback (video frame / WebVTT cue).
    Media,
    /// A CSS animation tick.
    CssTick,
    /// An IndexedDB completion callback.
    Idb,
}

impl AsyncKind {
    /// How many kinds there are; [`AsyncKind::index`] is below this.
    pub const COUNT: usize = 8;

    /// The kind's dense index (payload ignored), in declaration order: the
    /// row of [`KEVENT_NAMES`] that names it.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            AsyncKind::Timeout { .. } => 0,
            AsyncKind::Interval { .. } => 1,
            AsyncKind::Message { .. } => 2,
            AsyncKind::Raf => 3,
            AsyncKind::Net { .. } => 4,
            AsyncKind::Media => 5,
            AsyncKind::CssTick => 6,
            AsyncKind::Idb => 7,
        }
    }
}

/// The span name of each kind, by [`AsyncKind::index`]: a kernel traces an
/// event's register→dispatch lifetime as an async span of this name.
pub const KEVENT_NAMES: [&str; AsyncKind::COUNT] = [
    "kevent.timeout",
    "kevent.interval",
    "kevent.message",
    "kevent.raf",
    "kevent.net",
    "kevent.media",
    "kevent.css-tick",
    "kevent.idb",
];

/// Description of one registered asynchronous event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncEventInfo {
    /// The event's identity across its lifecycle.
    pub token: EventToken,
    /// The thread whose event loop will run the callback.
    pub thread: ThreadId,
    /// What kind of event this is.
    pub kind: AsyncKind,
    /// When the user script registered it.
    pub registered_at: SimTime,
    /// Document generation of the registering context (used to cancel
    /// doc-bound callbacks on navigation).
    pub doc_generation: u64,
    /// Browsing-context tag of the registering task (0 = default).
    pub context: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_for_timing_kinds() {
        let kinds = [
            AsyncKind::Timeout {
                delay: SimDuration::ZERO,
                nesting: 0,
            },
            AsyncKind::Interval {
                delay: SimDuration::ZERO,
            },
            AsyncKind::Message {
                from: ThreadId::new(0),
            },
            AsyncKind::Raf,
            AsyncKind::Media,
            AsyncKind::CssTick,
            AsyncKind::Idb,
        ];
        let labels: std::collections::HashSet<_> =
            kinds.iter().map(|k| KEVENT_NAMES[k.index()]).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
