//! Kernel runtime statistics.
//!
//! A deployed kernel needs observability: how many events it scheduled,
//! how often the dispatcher had to hold a confirmed event behind a pending
//! head, how many API calls each policy denied. [`KernelStats`] is updated
//! by the kernel's hooks and exposed through
//! [`JsKernel::stats`](crate::kernel::JsKernel::stats); the Criterion
//! micro-benchmarks and the ablation harness read it to explain *why* a
//! configuration behaves as it does.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters describing one kernel's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Asynchronous events registered (pending kernel events created).
    pub registered: u64,
    /// Events confirmed by their raw browser trigger.
    pub confirmed: u64,
    /// Events dispatched to user space.
    pub dispatched: u64,
    /// Events cancelled before dispatch.
    pub cancelled: u64,
    /// Times a confirmed event was withheld because an earlier-predicted
    /// event was still pending (the dispatcher "waiting", §III-D3).
    pub withheld_behind_pending: u64,
    /// Times a release decision was deferred to the event's predicted
    /// instant.
    pub deferred_to_prediction: u64,
    /// Intercepted API calls, total.
    pub api_calls: u64,
    /// Denials per policy-rule id.
    pub denials: BTreeMap<String, u64>,
    /// Kernel-space overlay messages processed.
    pub kernel_messages: u64,
    /// Pending head events written off by the watchdog after blocking
    /// confirmed work for longer than the configured hold.
    #[serde(default)]
    pub watchdog_expired: u64,
    /// Live events cancelled because their owning thread died.
    #[serde(default)]
    pub orphans_reaped: u64,
    /// Registrations refused because the per-thread event queue was full.
    #[serde(default)]
    pub equeue_overflow: u64,
}

impl KernelStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> KernelStats {
        KernelStats::default()
    }

    /// Total denials across all rules.
    #[must_use]
    pub fn total_denials(&self) -> u64 {
        self.denials.values().sum()
    }

    /// Records a denial by rule id.
    pub fn record_denial(&mut self, rule_id: &str) {
        *self.denials.entry(rule_id.to_owned()).or_insert(0) += 1;
    }

    /// Fraction of confirmed events that had to wait behind a pending head
    /// (0 when nothing confirmed yet) — a determinism-pressure gauge.
    #[must_use]
    pub fn wait_fraction(&self) -> f64 {
        if self.confirmed == 0 {
            return 0.0;
        }
        self.withheld_behind_pending as f64 / self.confirmed as f64
    }

    /// Whether the run wedged and graceful degradation had to step in: the
    /// watchdog expired a blocked head, a dead thread's events were
    /// reaped, or a full event queue refused a registration.
    #[must_use]
    pub fn wedged(&self) -> bool {
        self.watchdog_expired > 0 || self.orphans_reaped > 0 || self.equeue_overflow > 0
    }
}

/// A flat, mergeable summary of [`KernelStats`] sized for throughput
/// accounting: the bench reporter sums one snapshot per simulated browser
/// and divides by wall-clock time to get simulated kernel events per
/// second. Unlike the full stats, the per-rule denial map is collapsed to
/// a single counter so snapshots merge in O(1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Asynchronous events registered.
    pub registered: u64,
    /// Events confirmed by their raw trigger.
    pub confirmed: u64,
    /// Events dispatched to user space.
    pub dispatched: u64,
    /// Events cancelled before dispatch.
    pub cancelled: u64,
    /// Intercepted API calls.
    pub api_calls: u64,
    /// Total denials across all rules.
    pub denials: u64,
    /// Kernel-space overlay messages processed.
    pub kernel_messages: u64,
}

impl StatsSnapshot {
    /// Total simulated kernel events: everything the kernel had to look at
    /// (registrations, intercepted API calls, overlay messages). This is
    /// the numerator of the events/sec throughput metric. Saturates rather
    /// than wrapping, like [`merge`](StatsSnapshot::merge).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.registered
            .saturating_add(self.api_calls)
            .saturating_add(self.kernel_messages)
    }

    /// Accumulates another snapshot into this one. Counters saturate at
    /// `u64::MAX`: snapshots are merged across arbitrarily many simulated
    /// browsers, and a pegged throughput gauge is more useful than a
    /// wrapped one (and than a debug-build panic mid-bench).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.registered = self.registered.saturating_add(other.registered);
        self.confirmed = self.confirmed.saturating_add(other.confirmed);
        self.dispatched = self.dispatched.saturating_add(other.dispatched);
        self.cancelled = self.cancelled.saturating_add(other.cancelled);
        self.api_calls = self.api_calls.saturating_add(other.api_calls);
        self.denials = self.denials.saturating_add(other.denials);
        self.kernel_messages = self.kernel_messages.saturating_add(other.kernel_messages);
    }

    /// Simulated kernel events per wall-clock second (0 when the wall time
    /// is not positive).
    #[must_use]
    pub fn events_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs <= 0.0 {
            return 0.0;
        }
        self.total_events() as f64 / wall_secs
    }
}

impl KernelStats {
    /// Collapses the counters into a mergeable [`StatsSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            registered: self.registered,
            confirmed: self.confirmed,
            dispatched: self.dispatched,
            cancelled: self.cancelled,
            api_calls: self.api_calls,
            denials: self.total_denials(),
            kernel_messages: self.kernel_messages,
        }
    }
}

impl std::fmt::Display for KernelStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "kernel: {} registered, {} confirmed, {} dispatched, {} cancelled",
            self.registered, self.confirmed, self.dispatched, self.cancelled
        )?;
        writeln!(
            f,
            "dispatcher: {} waits behind pending heads ({:.1}%), {} deferred to prediction",
            self.withheld_behind_pending,
            self.wait_fraction() * 100.0,
            self.deferred_to_prediction
        )?;
        writeln!(
            f,
            "policies: {} api calls, {} denials across {} rules; {} kernel messages",
            self.api_calls,
            self.total_denials(),
            self.denials.len(),
            self.kernel_messages
        )?;
        write!(
            f,
            "degradation: {} watchdog expiries, {} orphans reaped, {} equeue overflows",
            self.watchdog_expired, self.orphans_reaped, self.equeue_overflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denial_accounting() {
        let mut s = KernelStats::new();
        s.record_denial("rule-a");
        s.record_denial("rule-a");
        s.record_denial("rule-b");
        assert_eq!(s.total_denials(), 3);
        assert_eq!(s.denials.get("rule-a"), Some(&2));
    }

    #[test]
    fn any_degradation_counter_means_wedged() {
        assert!(!KernelStats::new().wedged());
        for bump in [
            |s: &mut KernelStats| s.watchdog_expired = 1,
            |s: &mut KernelStats| s.orphans_reaped = 1,
            |s: &mut KernelStats| s.equeue_overflow = 1,
        ] {
            let mut s = KernelStats::new();
            bump(&mut s);
            assert!(s.wedged(), "{s:?}");
        }
    }

    #[test]
    fn wait_fraction_handles_zero() {
        let s = KernelStats::new();
        assert_eq!(s.wait_fraction(), 0.0);
        let s = KernelStats {
            confirmed: 10,
            withheld_behind_pending: 3,
            ..KernelStats::new()
        };
        assert!((s.wait_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty_and_informative() {
        let mut s = KernelStats::new();
        s.registered = 5;
        s.record_denial("x");
        let text = s.to_string();
        assert!(text.contains("5 registered"));
        assert!(text.contains("1 denials"));
    }

    #[test]
    fn snapshot_collapses_and_merges() {
        let mut s = KernelStats::new();
        s.registered = 4;
        s.api_calls = 10;
        s.kernel_messages = 6;
        s.record_denial("a");
        s.record_denial("b");
        let snap = s.snapshot();
        assert_eq!(snap.denials, 2);
        assert_eq!(snap.total_events(), 20);
        let mut acc = StatsSnapshot::default();
        acc.merge(&snap);
        acc.merge(&snap);
        assert_eq!(acc.total_events(), 40);
        assert_eq!(acc.denials, 4);
    }

    #[test]
    fn snapshot_throughput() {
        let snap = StatsSnapshot {
            registered: 500,
            ..StatsSnapshot::default()
        };
        assert!((snap.events_per_sec(2.0) - 250.0).abs() < 1e-9);
        assert_eq!(snap.events_per_sec(0.0), 0.0);
        assert_eq!(snap.events_per_sec(-1.0), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let mut s = KernelStats::new();
        s.record_denial("r");
        let json = serde_json::to_string(&s).unwrap();
        let back: KernelStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
