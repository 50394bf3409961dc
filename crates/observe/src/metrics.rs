//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Storage is keyed by [`Sym`], so a hook call on a warm registry is a
//! `BTreeMap` lookup plus an integer update — no hashing of strings, no
//! allocation (histograms use a fixed inline bucket array). Export
//! resolves symbols back to names and produces a [`MetricsSnapshot`] whose
//! JSON is deterministic: `BTreeMap<String, _>` keys serialize sorted, and
//! every value is an exact integer.
//!
//! Snapshots [`merge`](MetricsSnapshot::merge) commutatively and
//! associatively (counters and histogram buckets add, gauges keep the
//! maximum), so per-browser observers harvested by a `JSK_JOBS`-parallel
//! bench pool fold to the same totals in any order — the same discipline
//! the bench records follow.

use crate::sym::{Interner, Sym};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of histogram buckets: bucket `i < 16` counts values `v` with
/// `v < 2^i` (and `v >= 2^(i-1)` for `i > 0`); bucket 16 is the overflow.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`, capped.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Strips any `{key=value}` label sets from a metric name:
/// `kernel.equeue_depth{shard=3}` → `kernel.equeue_depth`. Names without
/// labels pass through unchanged.
#[must_use]
pub fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// A gauge's retained state: the most recent set and the high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Gauge {
    last: u64,
    max: u64,
}

/// A histogram's retained state: fixed power-of-two buckets plus exact
/// count/sum/max, all updated without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// Sym-keyed metric storage (see the module docs for the cost model).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<Sym, u64>,
    gauges: BTreeMap<Sym, Gauge>,
    histograms: BTreeMap<Sym, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (saturating).
    pub fn counter_add(&mut self, name: Sym, delta: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Sets gauge `name` to `value`, tracking the maximum ever set.
    pub fn gauge_set(&mut self, name: Sym, value: u64) {
        let g = self.gauges.entry(name).or_default();
        g.last = value;
        g.max = g.max.max(value);
    }

    /// Records one observation into histogram `name`.
    pub fn histogram_record(&mut self, name: Sym, value: u64) {
        let h = self.histograms.entry(name).or_default();
        h.count = h.count.saturating_add(1);
        h.sum = h.sum.saturating_add(value);
        h.max = h.max.max(value);
        h.buckets[bucket_index(value)] += 1;
    }

    /// Current value of counter `name` (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: Sym) -> u64 {
        self.counters.get(&name).copied().unwrap_or(0)
    }

    /// Resolves every metric through `strings` into a name-keyed snapshot.
    #[must_use]
    pub fn snapshot(&self, strings: &Interner) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(s, v)| (strings.resolve(*s).to_owned(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(s, g)| {
                    (
                        strings.resolve(*s).to_owned(),
                        GaugeSnapshot {
                            last: g.last,
                            max: g.max,
                        },
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(s, h)| {
                    (
                        strings.resolve(*s).to_owned(),
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            buckets: h.buckets.to_vec(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Exported gauge state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// The most recently set value.
    pub last: u64,
    /// The high-water mark across the run.
    pub max: u64,
}

/// Exported histogram state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Power-of-two bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

/// A name-keyed, serializable, mergeable export of a registry.
///
/// This is the shape that lands in `BENCH_<target>.json` run metadata and
/// in the example's metrics file; its JSON is deterministic because every
/// map is a `BTreeMap` and every value an integer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last value + high-water mark).
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`, commutatively: counters and histogram
    /// buckets/counts/sums add, gauges and histogram maxima keep the max
    /// (a merged gauge's `last` is the max of the parts — "most recent"
    /// has no meaning across parallel runs).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, g) in &other.gauges {
            let mine = self
                .gauges
                .entry(k.clone())
                .or_insert(GaugeSnapshot { last: 0, max: 0 });
            mine.last = mine.last.max(g.last);
            mine.max = mine.max.max(g.max);
        }
        for (k, h) in &other.histograms {
            let mine = self
                .histograms
                .entry(k.clone())
                .or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    max: 0,
                    buckets: vec![0; HISTOGRAM_BUCKETS],
                });
            mine.count = mine.count.saturating_add(h.count);
            mine.sum = mine.sum.saturating_add(h.sum);
            mine.max = mine.max.max(h.max);
            for (b, v) in mine.buckets.iter_mut().zip(&h.buckets) {
                *b = b.saturating_add(*v);
            }
        }
    }

    /// Counter value by name (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A copy of this snapshot with one `{k1=v1,k2=v2,...}` label group
    /// carrying every pair appended to every metric name (Prometheus
    /// text-format style): `kernel.equeue_depth` labelled
    /// `[("shard", "3")]` becomes `kernel.equeue_depth{shard=3}`.
    /// Labelled snapshots from different shards then
    /// [`merge`](MetricsSnapshot::merge) into one registry without their
    /// series colliding, which is how per-shard kernel metrics stay
    /// separable in a fleet-wide export. A serving layer labels its
    /// `{site,policy}` dimensions and the fleet nests its `{shard}` group
    /// on top at harvest time: labelling twice nests, `name{a=1}{b=2}`.
    /// Pairs keep the given order inside the group; the text exposition
    /// ([`crate::text::render_text`]) sorts keys when it normalizes. An
    /// empty slice returns the snapshot unchanged.
    #[must_use]
    pub fn with_labels(&self, labels: &[(&str, &str)]) -> MetricsSnapshot {
        if labels.is_empty() {
            return self.clone();
        }
        let set = labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let relabel = |name: &str| format!("{name}{{{set}}}");
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (relabel(k), *v))
                .collect(),
            gauges: self.gauges.iter().map(|(k, v)| (relabel(k), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (relabel(k), v.clone()))
                .collect(),
        }
    }

    /// Sums every labelled variant of `counter` across label sets: the
    /// fleet-wide total of a per-shard counter.
    #[must_use]
    pub fn counter_across_labels(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| base_name(k) == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn registry_snapshot_resolves_names() {
        let mut strings = Interner::new();
        let c = strings.intern("kernel.dispatched");
        let g = strings.intern("kernel.equeue_depth");
        let h = strings.intern("kernel.dispatch_latency_ticks");
        let mut reg = MetricsRegistry::new();
        reg.counter_add(c, 2);
        reg.counter_add(c, 3);
        reg.gauge_set(g, 7);
        reg.gauge_set(g, 4);
        reg.histogram_record(h, 5);
        let snap = reg.snapshot(&strings);
        assert_eq!(snap.counter("kernel.dispatched"), 5);
        let gauge = &snap.gauges["kernel.equeue_depth"];
        assert_eq!((gauge.last, gauge.max), (4, 7));
        let hist = &snap.histograms["kernel.dispatch_latency_ticks"];
        assert_eq!((hist.count, hist.sum, hist.max), (1, 5, 5));
        assert_eq!(hist.buckets[bucket_index(5)], 1);
    }

    #[test]
    fn merge_is_commutative() {
        let mut strings = Interner::new();
        let c = strings.intern("c");
        let g = strings.intern("g");
        let h = strings.intern("h");
        let mut a = MetricsRegistry::new();
        a.counter_add(c, 1);
        a.gauge_set(g, 9);
        a.histogram_record(h, 2);
        let mut b = MetricsRegistry::new();
        b.counter_add(c, 10);
        b.gauge_set(g, 3);
        b.histogram_record(h, 100);
        let (sa, sb) = (a.snapshot(&strings), b.snapshot(&strings));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 11);
        assert_eq!(ab.gauges["g"].max, 9);
        assert_eq!(ab.histograms["h"].count, 2);
    }

    #[test]
    fn labelled_snapshots_merge_without_colliding() {
        let mut strings = Interner::new();
        let c = strings.intern("kernel.dispatched");
        let g = strings.intern("kernel.equeue_depth");
        let h = strings.intern("kernel.dispatch_latency_ticks");
        let mut reg = MetricsRegistry::new();
        reg.counter_add(c, 5);
        reg.gauge_set(g, 3);
        reg.histogram_record(h, 8);
        let snap = reg.snapshot(&strings);
        let mut fleet = snap.with_labels(&[("shard", "0")]);
        fleet.merge(&snap.with_labels(&[("shard", "1")]));
        // Series stay separate per shard...
        assert_eq!(fleet.counter("kernel.dispatched{shard=0}"), 5);
        assert_eq!(fleet.counter("kernel.dispatched{shard=1}"), 5);
        assert_eq!(fleet.counter("kernel.dispatched"), 0);
        assert_eq!(fleet.gauges["kernel.equeue_depth{shard=1}"].max, 3);
        assert_eq!(
            fleet.histograms["kernel.dispatch_latency_ticks{shard=0}"].count,
            1
        );
        // ...and still aggregate across the label dimension.
        assert_eq!(fleet.counter_across_labels("kernel.dispatched"), 10);
    }

    #[test]
    fn base_name_strips_label_sets() {
        assert_eq!(
            base_name("kernel.equeue_depth{shard=3}"),
            "kernel.equeue_depth"
        );
        assert_eq!(base_name("kernel.equeue_depth"), "kernel.equeue_depth");
        assert_eq!(base_name("a{b=1}{c=2}"), "a");
    }

    #[test]
    fn labelling_preserves_merge_commutativity() {
        let mut strings = Interner::new();
        let c = strings.intern("c");
        let mut reg = MetricsRegistry::new();
        reg.counter_add(c, 2);
        let s0 = reg.snapshot(&strings).with_labels(&[("shard", "0")]);
        let s1 = reg.snapshot(&strings).with_labels(&[("shard", "1")]);
        let mut ab = s0.clone();
        ab.merge(&s1);
        let mut ba = s1;
        ba.merge(&s0);
        assert_eq!(ab, ba);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let mut strings = Interner::new();
        let c = strings.intern("kernel.registered");
        let mut reg = MetricsRegistry::new();
        reg.counter_add(c, 42);
        let snap = reg.snapshot(&strings);
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
