//! The kernel scheduler: prediction (paper §III-D1).
//!
//! Scheduling happens in two steps — **registration** (create a pending
//! event with a predicted time) and **confirmation** (the raw browser
//! trigger fired; flip the status). This module owns the *prediction*: a
//! deterministic function of the registration kind and the kernel clock at
//! registration, never of physical behaviour. ("The prediction depends on
//! the detailed scheduling algorithm, such as determinism and fuzzy time.")

use jsk_browser::event::AsyncKind;
use jsk_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Deterministic prediction quanta, one per registration type.
///
/// The defaults reproduce the JSKernel rows of Table II (event-loop
/// monitoring never sees a gap above [`message`](Self::message), 1 ms)
/// while staying backward compatible: [`raf`](Self::raf) matches the
/// 60 Hz vsync, so frame-paced apps keep their frame rate (§V-B1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionConfig {
    /// Minimum timer delay the kernel schedules (mirrors the HTML clamp).
    pub timer_min: SimDuration,
    /// Nested-timer clamp.
    pub timer_nested: SimDuration,
    /// Nesting depth beyond which the nested clamp applies.
    pub nesting_threshold: u32,
    /// Predicted delivery delay of a cross-thread message.
    pub message: SimDuration,
    /// Predicted delay of an animation frame.
    pub raf: SimDuration,
    /// Predicted delay of an uncached network completion.
    pub net_uncached: SimDuration,
    /// Predicted delay of an HTTP-cache hit.
    pub net_cached: SimDuration,
    /// Predicted media (video frame / WebVTT cue) period.
    pub media: SimDuration,
    /// Predicted CSS animation tick period.
    pub css: SimDuration,
    /// Predicted IndexedDB completion delay.
    pub idb: SimDuration,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            timer_min: SimDuration::from_millis(1),
            timer_nested: SimDuration::from_millis(4),
            nesting_threshold: 5,
            message: SimDuration::from_millis(1),
            raf: SimDuration::from_micros(16_667),
            // Above the typical physical completion, so deferral to the
            // prediction is rare; a pending network head only ever blocks
            // events predicted even later.
            net_uncached: SimDuration::from_millis(100),
            net_cached: SimDuration::from_millis(2),
            media: SimDuration::from_millis(33),
            css: SimDuration::from_millis(10),
            idb: SimDuration::from_millis(5),
        }
    }
}

impl PredictionConfig {
    /// The deterministic delay predicted for a registration of `kind`.
    #[must_use]
    pub fn delay_for(&self, kind: &AsyncKind) -> SimDuration {
        match kind {
            AsyncKind::Timeout { delay, nesting } => {
                let clamp = if *nesting > self.nesting_threshold {
                    self.timer_nested
                } else {
                    self.timer_min
                };
                (*delay).max(clamp)
            }
            AsyncKind::Interval { delay } => (*delay).max(self.timer_nested),
            AsyncKind::Message { .. } => self.message,
            AsyncKind::Raf => self.raf,
            AsyncKind::Net { cached, .. } => {
                if *cached {
                    self.net_cached
                } else {
                    self.net_uncached
                }
            }
            AsyncKind::Media => self.media,
            AsyncKind::CssTick => self.css,
            AsyncKind::Idb => self.idb,
        }
    }

    /// Predicts the invocation instant for a registration of `kind` made
    /// when the kernel clock displays `kclock_now`.
    #[must_use]
    pub fn predict(&self, kclock_now: SimTime, kind: &AsyncKind) -> SimTime {
        kclock_now + self.delay_for(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsk_browser::ids::{RequestId, ThreadId};

    #[test]
    fn timers_predict_their_requested_delay() {
        let p = PredictionConfig::default();
        let kind = AsyncKind::Timeout {
            delay: SimDuration::from_millis(25),
            nesting: 0,
        };
        assert_eq!(p.delay_for(&kind), SimDuration::from_millis(25));
    }

    #[test]
    fn short_timers_are_clamped() {
        let p = PredictionConfig::default();
        let shallow = AsyncKind::Timeout {
            delay: SimDuration::ZERO,
            nesting: 0,
        };
        assert_eq!(p.delay_for(&shallow), SimDuration::from_millis(1));
        let deep = AsyncKind::Timeout {
            delay: SimDuration::ZERO,
            nesting: 9,
        };
        assert_eq!(p.delay_for(&deep), SimDuration::from_millis(4));
    }

    #[test]
    fn predictions_are_kind_constants() {
        let p = PredictionConfig::default();
        assert_eq!(
            p.delay_for(&AsyncKind::Message {
                from: ThreadId::new(3)
            }),
            SimDuration::from_millis(1)
        );
        assert_eq!(
            p.delay_for(&AsyncKind::Raf),
            SimDuration::from_micros(16_667)
        );
        let cached = AsyncKind::Net {
            req: RequestId::new(0),
            class: jsk_browser::event::NetClass::Fetch,
            cached: true,
        };
        let uncached = AsyncKind::Net {
            req: RequestId::new(0),
            class: jsk_browser::event::NetClass::Fetch,
            cached: false,
        };
        assert!(p.delay_for(&uncached) > p.delay_for(&cached));
    }

    #[test]
    fn predict_offsets_from_kernel_clock() {
        let p = PredictionConfig::default();
        let now = SimTime::from_millis(7);
        assert_eq!(
            p.predict(now, &AsyncKind::Raf),
            SimTime::from_millis(7) + SimDuration::from_micros(16_667)
        );
    }

    #[test]
    fn config_round_trips_through_json() {
        let p = PredictionConfig::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: PredictionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
