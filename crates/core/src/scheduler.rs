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

    /// Compiles the quanta into the dense tables the dispatch hot path
    /// reads (mirroring the policy engine's compiled decision tables).
    #[must_use]
    pub fn compile(&self) -> CompiledPrediction {
        CompiledPrediction::new(self)
    }
}

/// Dense discriminant of an [`AsyncKind`], payload stripped — the row
/// index into [`CompiledPrediction`]'s tables.
#[inline]
#[must_use]
pub fn kind_slot(kind: &AsyncKind) -> usize {
    match kind {
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

/// Number of [`AsyncKind`] discriminants ([`kind_slot`]'s range).
pub const KIND_SLOTS: usize = 8;

/// [`PredictionConfig`] compiled to flat lookup tables, built once at
/// kernel construction — the prediction analogue of the policy engine's
/// decision tables. The constant-delay kinds resolve with one indexed
/// load; the three parameterized kinds (timeout clamp, interval floor,
/// cached-vs-uncached network) keep a branch-free two-entry table each.
/// [`delay_for`](Self::delay_for) is pinned to the interpreted
/// [`PredictionConfig::delay_for`] by an exhaustive equivalence test here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledPrediction {
    /// Quantum per kind discriminant. The Timeout slot holds the shallow
    /// clamp, the Interval slot its floor, the Net slot the uncached
    /// delay; the specialized lookups below finish those kinds.
    quantum: [SimDuration; KIND_SLOTS],
    /// Timeout clamp, indexed by `nesting > nesting_threshold`.
    timer_clamp: [SimDuration; 2],
    /// Network delay, indexed by `cached`.
    net: [SimDuration; 2],
    /// Nesting depth beyond which the nested clamp applies.
    nesting_threshold: u32,
}

impl CompiledPrediction {
    /// Builds the tables from the interpreted quanta.
    #[must_use]
    pub fn new(p: &PredictionConfig) -> CompiledPrediction {
        let mut quantum = [SimDuration::ZERO; KIND_SLOTS];
        quantum[0] = p.timer_min;
        quantum[1] = p.timer_nested;
        quantum[2] = p.message;
        quantum[3] = p.raf;
        quantum[4] = p.net_uncached;
        quantum[5] = p.media;
        quantum[6] = p.css;
        quantum[7] = p.idb;
        CompiledPrediction {
            quantum,
            timer_clamp: [p.timer_min, p.timer_nested],
            net: [p.net_uncached, p.net_cached],
            nesting_threshold: p.nesting_threshold,
        }
    }

    /// The deterministic delay predicted for a registration of `kind` —
    /// table-driven, exactly equal to [`PredictionConfig::delay_for`].
    #[inline]
    #[must_use]
    pub fn delay_for(&self, kind: &AsyncKind) -> SimDuration {
        match kind {
            AsyncKind::Timeout { delay, nesting } => {
                (*delay).max(self.timer_clamp[usize::from(*nesting > self.nesting_threshold)])
            }
            AsyncKind::Interval { delay } => (*delay).max(self.quantum[1]),
            AsyncKind::Net { cached, .. } => self.net[usize::from(*cached)],
            other => self.quantum[kind_slot(other)],
        }
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

    /// Exhaustive over every discriminant × the parameter grid: the
    /// compiled tables must agree with the interpreted match everywhere,
    /// for the shipped config and for an asymmetric one.
    #[test]
    fn compiled_tables_match_interpreted_delays_exactly() {
        let shipped = crate::policy::deterministic_policy()
            .scheduling
            .expect("deterministic policy has scheduling");
        // A deliberately asymmetric config so no two table entries alias.
        let asymmetric = PredictionConfig {
            timer_min: SimDuration::from_micros(700),
            timer_nested: SimDuration::from_micros(4_100),
            nesting_threshold: 3,
            ..PredictionConfig::default()
        };
        for p in [shipped, asymmetric] {
            assert_compiled_matches(&p);
        }
    }

    fn assert_compiled_matches(p: &PredictionConfig) {
        let c = p.compile();
        let delays = [
            SimDuration::ZERO,
            SimDuration::from_micros(700),
            SimDuration::from_millis(2),
            SimDuration::from_millis(50),
        ];
        for &delay in &delays {
            for nesting in 0..8u32 {
                let k = AsyncKind::Timeout { delay, nesting };
                assert_eq!(c.delay_for(&k), p.delay_for(&k), "{k:?}");
            }
            let k = AsyncKind::Interval { delay };
            assert_eq!(c.delay_for(&k), p.delay_for(&k), "{k:?}");
        }
        for cached in [false, true] {
            let k = AsyncKind::Net {
                req: RequestId::new(1),
                class: jsk_browser::event::NetClass::Fetch,
                cached,
            };
            assert_eq!(c.delay_for(&k), p.delay_for(&k), "{k:?}");
        }
        for k in [
            AsyncKind::Message {
                from: ThreadId::new(2),
            },
            AsyncKind::Raf,
            AsyncKind::Media,
            AsyncKind::CssTick,
            AsyncKind::Idb,
        ] {
            assert_eq!(c.delay_for(&k), p.delay_for(&k), "{k:?}");
        }
    }

    #[test]
    fn kind_slots_are_dense_and_distinct() {
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
            AsyncKind::Net {
                req: RequestId::new(0),
                class: jsk_browser::event::NetClass::Fetch,
                cached: false,
            },
            AsyncKind::Media,
            AsyncKind::CssTick,
            AsyncKind::Idb,
        ];
        let mut seen: Vec<usize> = kinds.iter().map(kind_slot).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..KIND_SLOTS).collect::<Vec<_>>());
    }
}
