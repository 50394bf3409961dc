//! Metrics: counters, gauges, fixed-bucket histograms.
//!
//! A [`MetricsSnapshot`] is both the store and the export: every series
//! keyed by two integer ids, its metric name and its label set, taken
//! from one process-wide, append-only series table. An observer name's
//! [`Sym`] *is* its string id in that table ([`intern`]), so an
//! [`Observer`](crate::Observer) hook updates its unlabelled row in
//! place — a binary search plus an integer update, no hashing of
//! strings, no allocation on a warm row (histograms use a fixed inline
//! bucket array) — and harvesting the run is a clone.
//! [`MetricsSnapshot::with_labels`] interns its label group once and
//! nests it under each series' label set with one memoized pair lookup,
//! formatting nothing; [`MetricsSnapshot::merge`] compares and adds
//! integers. So the path from a site's run through the shard, fleet and
//! server merges builds no string. Names are spelled out only where text
//! leaves the process: the JSON form (`Serialize`, keys
//! `name{k=v,..}{k=v}` sorted by that text, the form committed bench
//! records hold), the `/metrics` page
//! ([`render_text`](crate::text::render_text), which reads the labels
//! structured from the id), and the by-name accessors. Reading JSON back
//! (`Deserialize`) and the by-name accessors take that key form and
//! intern it. The table grows with every distinct label value, as a
//! cumulative metrics map does; ids depend on first-use order, so nothing
//! exported is ever ordered by id.
//!
//! Snapshots [`merge`](MetricsSnapshot::merge) commutatively and
//! associatively (counters and histogram buckets add, gauges keep the
//! maximum), so per-browser observers harvested by a `JSK_JOBS`-parallel
//! bench pool fold to the same totals in any order — the same discipline
//! the bench records follow.

use crate::sym::Sym;
use jsk_sim::fasthash::FastMap;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

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

/// Exported gauge state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// The most recently set value.
    pub last: u64,
    /// The high-water mark across the run.
    pub max: u64,
}

/// Exported histogram state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Power-of-two bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Deserialize for HistogramSnapshot {
    fn from_value(v: &Value) -> Result<HistogramSnapshot, DeError> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| DeError::missing_field(name))
        };
        let buckets = Vec::<u64>::from_value(field("buckets")?)?;
        Ok(HistogramSnapshot {
            count: u64::from_value(field("count")?)?,
            sum: u64::from_value(field("sum")?)?,
            max: u64::from_value(field("max")?)?,
            buckets: buckets.try_into().map_err(|b: Vec<u64>| {
                DeError::custom(format!(
                    "a histogram has {HISTOGRAM_BUCKETS} buckets, not {}",
                    b.len()
                ))
            })?,
        })
    }
}

/// The label set of a series with no labels.
const NO_LABELS: u32 = 0;

/// One metric series: a metric name and the label set it carries, both as
/// ids into the [`series_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Series {
    /// String id of the metric name.
    pub(crate) name: u32,
    /// Label-set id ([`NO_LABELS`] for none).
    pub(crate) labels: u32,
}

impl Series {
    /// The series of an observer name, with no labels.
    pub(crate) fn unlabelled(name: Sym) -> Series {
        Series {
            name: name.index(),
            labels: NO_LABELS,
        }
    }
}

/// The process-wide series table: every metric name, label key and label
/// value as a string id, every label group (the pairs of one
/// `with_labels` call, in call order) as a list of id pairs, and every
/// label set as a chain of groups, innermost first. Append-only, so an
/// id never changes meaning.
#[derive(Default)]
pub(crate) struct SeriesTable {
    strings: Vec<Arc<str>>,
    /// Label values are client-chosen (a wire site label), so string
    /// lookups keep the default, collision-resistant hasher.
    string_ids: HashMap<Arc<str>, u32>,
    groups: Vec<Box<[(u32, u32)]>>,
    group_ids: FastMap<Box<[(u32, u32)]>, u32>,
    /// Label set `i + 1` is `sets[i]`: the set it nests a group around,
    /// and that group.
    sets: Vec<(u32, u32)>,
    set_ids: FastMap<(u32, u32), u32>,
}

static SERIES: LazyLock<Mutex<SeriesTable>> = LazyLock::new(Mutex::default);

/// The process-wide series table, locked. Every operation on it leaves it
/// whole, so a panic elsewhere while it was held does not poison it.
pub(crate) fn series_table() -> MutexGuard<'static, SeriesTable> {
    SERIES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide symbol of an observer name: its string id in the
/// series table, interned on first use. Instrumented code takes its names
/// once per process (`jsk-core` and `jsk-browser` hold them in statics),
/// so attaching an observer interns nothing, its hooks key their rows by
/// the ids, and the Chrome export resolves them here too. Ids depend on
/// first-use order, which varies with thread interleaving, so nothing
/// exported is ordered by them.
pub fn intern(name: &str) -> Sym {
    Sym::from_index(series_table().string(name))
}

fn next_id(len: usize) -> u32 {
    u32::try_from(len).expect("series table overflow")
}

impl SeriesTable {
    /// The id of `s`, interned on first use.
    fn string(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = next_id(self.strings.len());
        let owned: Arc<str> = Arc::from(s);
        self.strings.push(owned.clone());
        self.string_ids.insert(owned, id);
        id
    }

    /// The id of one label group, its pairs kept in the given order.
    fn group(&mut self, labels: &[(&str, &str)]) -> u32 {
        let pairs: Vec<(u32, u32)> = labels
            .iter()
            .map(|(k, v)| (self.string(k), self.string(v)))
            .collect();
        if let Some(&id) = self.group_ids.get(pairs.as_slice()) {
            return id;
        }
        let id = next_id(self.groups.len());
        let pairs = pairs.into_boxed_slice();
        self.groups.push(pairs.clone());
        self.group_ids.insert(pairs, id);
        id
    }

    /// The label set `set` with `group` nested outside it.
    fn nest(&mut self, set: u32, group: u32) -> u32 {
        if let Some(&id) = self.set_ids.get(&(set, group)) {
            return id;
        }
        self.sets.push((set, group));
        let id = next_id(self.sets.len());
        self.set_ids.insert((set, group), id);
        id
    }

    /// The series a key of the JSON form names, `name{k=v,..}{k=v}`.
    /// Label text without an `=` becomes a key with an empty value.
    fn parse(&mut self, key: &str) -> Series {
        let (name, groups) = key.split_once('{').unwrap_or((key, ""));
        let mut series = Series {
            name: self.string(name),
            labels: NO_LABELS,
        };
        for group in groups.split('}') {
            let group = group.trim_start_matches('{');
            if group.is_empty() {
                continue;
            }
            let pairs: Vec<(&str, &str)> = group
                .split(',')
                .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
                .collect();
            let group = self.group(&pairs);
            series.labels = self.nest(series.labels, group);
        }
        series
    }

    /// The string behind an id.
    pub(crate) fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// The metric name of a series.
    pub(crate) fn name(&self, series: Series) -> &str {
        self.resolve(series.name)
    }

    /// The groups of a label set, innermost first.
    fn groups_of(&self, mut set: u32) -> Vec<&[(u32, u32)]> {
        let mut out = Vec::new();
        while set != NO_LABELS {
            let (outer, group) = self.sets[set as usize - 1];
            out.push(&*self.groups[group as usize]);
            set = outer;
        }
        out.reverse();
        out
    }

    /// A series' key in the JSON form: `name{k=v,..}{k=v}`, one brace
    /// group per `with_labels` call, innermost first.
    pub(crate) fn key(&self, series: Series) -> String {
        let mut key = self.name(series).to_owned();
        for group in self.groups_of(series.labels) {
            key.push('{');
            for (i, &(k, v)) in group.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(&self.strings[k as usize]);
                key.push('=');
                key.push_str(&self.strings[v as usize]);
            }
            key.push('}');
        }
        key
    }

    /// Every label of a series' set as one list, sorted by key and value.
    pub(crate) fn labels(&self, series: Series) -> Vec<(&str, &str)> {
        let mut labels: Vec<(&str, &str)> = self
            .groups_of(series.labels)
            .into_iter()
            .flatten()
            .map(|&(k, v)| (&*self.strings[k as usize], &*self.strings[v as usize]))
            .collect();
        labels.sort_unstable();
        labels
    }
}

/// Rows a family reserves when it takes its first: a corpus site
/// records 9–13 counters, so one allocation holds them all.
const FAMILY_ROWS: usize = 16;

/// One metric family of a snapshot: `(series, value)` rows sorted by
/// series id, one row per series. Lookups are binary searches, and a
/// snapshot's rows sit in one allocation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Family<V>(Vec<(Series, V)>);

impl<V> Default for Family<V> {
    fn default() -> Family<V> {
        Family(Vec::new())
    }
}

impl<V> FromIterator<(Series, V)> for Family<V> {
    /// Rows in any order; each series must appear once.
    fn from_iter<I: IntoIterator<Item = (Series, V)>>(rows: I) -> Family<V> {
        let mut rows: Vec<(Series, V)> = rows.into_iter().collect();
        rows.sort_unstable_by_key(|r| r.0);
        Family(rows)
    }
}

impl<V: Clone> Family<V> {
    /// The rows, in series-id order.
    pub(crate) fn rows(&self) -> &[(Series, V)] {
        &self.0
    }

    fn get(&self, series: Series) -> Option<&V> {
        let i = self.0.binary_search_by_key(&series, |r| r.0).ok()?;
        Some(&self.0[i].1)
    }

    /// The row of `series`, inserted from `new` on a miss: one binary
    /// search, and a shift only when the series is new. A family's first
    /// row reserves [`FAMILY_ROWS`], so the dozen or so series one run
    /// records never regrow the vector.
    pub(crate) fn entry(&mut self, series: Series, new: impl FnOnce() -> V) -> &mut V {
        let i = match self.0.binary_search_by_key(&series, |r| r.0) {
            Ok(i) => i,
            Err(i) => {
                if self.0.capacity() == 0 {
                    self.0.reserve_exact(FAMILY_ROWS);
                }
                self.0.insert(i, (series, new()));
                i
            }
        };
        &mut self.0[i].1
    }

    /// Folds every row of `other` in. Rows new to `self` go to the end
    /// and one pass over the two sorted runs restores the order.
    fn merge(&mut self, other: &Family<V>, fold: impl Fn(&mut V, &V)) {
        let known = self.0.len();
        let mut from = 0;
        for (series, value) in &other.0 {
            match self.0[from..known].binary_search_by_key(series, |r| r.0) {
                Ok(i) => {
                    fold(&mut self.0[from + i].1, value);
                    from += i + 1;
                }
                Err(i) => {
                    self.0.push((*series, value.clone()));
                    from += i;
                }
            }
        }
        if self.0.len() > known {
            self.0.sort_by_key(|r| r.0);
        }
    }

    fn relabel(&self, mut series: impl FnMut(Series) -> Series) -> Family<V> {
        self.0
            .iter()
            .map(|(s, v)| (series(*s), v.clone()))
            .collect()
    }
}

fn add_counter(mine: &mut u64, other: &u64) {
    *mine = mine.saturating_add(*other);
}

fn max_gauge(mine: &mut GaugeSnapshot, other: &GaugeSnapshot) {
    mine.last = mine.last.max(other.last);
    mine.max = mine.max.max(other.max);
}

fn add_histogram(mine: &mut HistogramSnapshot, other: &HistogramSnapshot) {
    mine.count = mine.count.saturating_add(other.count);
    mine.sum = mine.sum.saturating_add(other.sum);
    mine.max = mine.max.max(other.max);
    for (b, v) in mine.buckets.iter_mut().zip(&other.buckets) {
        *b = b.saturating_add(*v);
    }
}

/// Recorded metrics, keyed by series ids (see the module docs).
///
/// This is the shape that lands in `BENCH_<target>.json` run metadata and
/// in the example's metrics file; its JSON is deterministic because keys
/// are written sorted by their text and every value is an integer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub(crate) counters: Family<u64>,
    /// Gauges (last value + high-water mark).
    pub(crate) gauges: Family<GaugeSnapshot>,
    /// Fixed-bucket histograms.
    pub(crate) histograms: Family<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`, commutatively: counters and histogram
    /// buckets/counts/sums add, gauges and histogram maxima keep the max
    /// (a merged gauge's `last` is the max of the parts — "most recent"
    /// has no meaning across parallel runs).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.counters.merge(&other.counters, add_counter);
        self.gauges.merge(&other.gauges, max_gauge);
        self.histograms.merge(&other.histograms, add_histogram);
    }

    /// Adds `delta` to the counter a key of the JSON form names
    /// (`serve.flushes`, `site.runs{shard=0}`).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let series = series_table().parse(name);
        let c = self.counters.entry(series, || 0);
        *c = c.saturating_add(delta);
    }

    /// Counter value by its JSON-form key (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let series = series_table().parse(name);
        self.counters.get(series).copied().unwrap_or(0)
    }

    /// Gauge state by its JSON-form key.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        let series = series_table().parse(name);
        self.gauges.get(series).copied()
    }

    /// Histogram state by its JSON-form key.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        let series = series_table().parse(name);
        self.histograms.get(series)
    }

    /// Every counter by its JSON-form key.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let table = series_table();
        self.counters
            .rows()
            .iter()
            .map(|(s, v)| (table.key(*s), *v))
            .collect()
    }

    /// A copy of this snapshot with one label group carrying every pair
    /// nested outside each series' labels (Prometheus text-format style):
    /// `kernel.equeue_depth` labelled `[("shard", "3")]` is the series
    /// whose JSON key is `kernel.equeue_depth{shard=3}`. Labelled
    /// snapshots from different shards then
    /// [`merge`](MetricsSnapshot::merge) into one snapshot without their
    /// series colliding, which is how per-shard kernel metrics stay
    /// separable in a fleet-wide export. A serving layer labels its
    /// `{site,policy}` dimensions and the fleet nests its `{shard}` group
    /// on top at harvest time: labelling twice nests, `name{a=1}{b=2}`.
    /// Pairs keep the given order inside the group; the text exposition
    /// ([`crate::text::render_text`]) sorts keys. The group is interned
    /// once per call and each series' new set is one memoized lookup, so
    /// nothing is formatted. An empty slice returns the snapshot
    /// unchanged.
    #[must_use]
    pub fn with_labels(&self, labels: &[(&str, &str)]) -> MetricsSnapshot {
        if labels.is_empty() {
            return self.clone();
        }
        let mut table = series_table();
        let group = table.group(labels);
        let mut relabel = |s: Series| Series {
            name: s.name,
            labels: table.nest(s.labels, group),
        };
        MetricsSnapshot {
            counters: self.counters.relabel(&mut relabel),
            gauges: self.gauges.relabel(&mut relabel),
            histograms: self.histograms.relabel(&mut relabel),
        }
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.0.is_empty() && self.gauges.0.is_empty() && self.histograms.0.is_empty()
    }
}

/// One family's JSON object: keys in the JSON form, sorted by that text.
fn keyed<V: Serialize>(table: &SeriesTable, family: &Family<V>) -> Value {
    let mut rows: Vec<(String, &V)> = family.0.iter().map(|(s, v)| (table.key(*s), v)).collect();
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Value::Obj(rows.into_iter().map(|(k, v)| (k, v.to_value())).collect())
}

/// Reads one family back, interning each key.
fn unkeyed<V: Deserialize>(
    table: &mut SeriesTable,
    v: &Value,
    field: &str,
) -> Result<Family<V>, DeError> {
    let family = v
        .get_field(field)
        .ok_or_else(|| DeError::missing_field(field))?;
    let mut rows: Family<V> = BTreeMap::<String, V>::from_value(family)?
        .into_iter()
        .map(|(k, v)| (table.parse(&k), v))
        .collect();
    // Two spellings of one series (`a{x}` and `a{x=}`) keep the first.
    rows.0.dedup_by_key(|r| r.0);
    Ok(rows)
}

/// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`, each family
/// keyed by `name{k=v,..}{k=v}` in sorted order.
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let table = series_table();
        Value::Obj(vec![
            ("counters".to_owned(), keyed(&table, &self.counters)),
            ("gauges".to_owned(), keyed(&table, &self.gauges)),
            ("histograms".to_owned(), keyed(&table, &self.histograms)),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(v: &Value) -> Result<MetricsSnapshot, DeError> {
        let mut table = series_table();
        Ok(MetricsSnapshot {
            counters: unkeyed(&mut table, v, "counters")?,
            gauges: unkeyed(&mut table, v, "gauges")?,
            histograms: unkeyed(&mut table, v, "histograms")?,
        })
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
        let c = intern("kernel.dispatched");
        let g = intern("kernel.equeue_depth");
        let h = intern("kernel.dispatch_latency_ticks");
        let mut reg = crate::Observer::new();
        reg.counter_add(c, 2);
        reg.counter_add(c, 3);
        reg.gauge_set(g, 7);
        reg.gauge_set(g, 4);
        reg.histogram_record(h, 5);
        let snap = reg.metrics();
        assert_eq!(snap.counter("kernel.dispatched"), 5);
        let gauge = snap.gauge("kernel.equeue_depth").unwrap();
        assert_eq!((gauge.last, gauge.max), (4, 7));
        let hist = snap.histogram("kernel.dispatch_latency_ticks").unwrap();
        assert_eq!((hist.count, hist.sum, hist.max), (1, 5, 5));
        assert_eq!(hist.buckets[bucket_index(5)], 1);
    }

    #[test]
    fn merge_is_commutative() {
        let c = intern("c");
        let g = intern("g");
        let h = intern("h");
        let mut a = crate::Observer::new();
        a.counter_add(c, 1);
        a.gauge_set(g, 9);
        a.histogram_record(h, 2);
        let mut b = crate::Observer::new();
        b.counter_add(c, 10);
        b.gauge_set(g, 3);
        b.histogram_record(h, 100);
        let (sa, sb) = (a.metrics(), b.metrics());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 11);
        assert_eq!(ab.gauge("g").unwrap().max, 9);
        assert_eq!(ab.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn labelled_snapshots_merge_without_colliding() {
        let c = intern("kernel.dispatched");
        let g = intern("kernel.equeue_depth");
        let h = intern("kernel.dispatch_latency_ticks");
        let mut reg = crate::Observer::new();
        reg.counter_add(c, 5);
        reg.gauge_set(g, 3);
        reg.histogram_record(h, 8);
        let snap = reg.metrics();
        let mut fleet = snap.with_labels(&[("shard", "0")]);
        fleet.merge(&snap.with_labels(&[("shard", "1")]));
        // Series stay separate per shard.
        assert_eq!(fleet.counter("kernel.dispatched{shard=0}"), 5);
        assert_eq!(fleet.counter("kernel.dispatched{shard=1}"), 5);
        assert_eq!(fleet.counter("kernel.dispatched"), 0);
        assert_eq!(fleet.gauge("kernel.equeue_depth{shard=1}").unwrap().max, 3);
        assert_eq!(
            fleet
                .histogram("kernel.dispatch_latency_ticks{shard=0}")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn labelling_twice_nests_groups_in_call_order() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("site.runs", 2);
        let nested = snap
            .with_labels(&[("site", "a"), ("policy", "kernel")])
            .with_labels(&[("shard", "1")]);
        assert_eq!(
            nested.counters().into_iter().collect::<Vec<_>>(),
            vec![("site.runs{site=a,policy=kernel}{shard=1}".to_owned(), 2)]
        );
        assert_eq!(
            nested.counter("site.runs{site=a,policy=kernel}{shard=1}"),
            2
        );
        // The same groups in the other order are another series.
        assert_eq!(
            nested.counter("site.runs{shard=1}{site=a,policy=kernel}"),
            0
        );
        assert_eq!(snap.with_labels(&[]), snap);
    }

    #[test]
    fn labelling_preserves_merge_commutativity() {
        let c = intern("c");
        let mut reg = crate::Observer::new();
        reg.counter_add(c, 2);
        let s0 = reg.metrics().with_labels(&[("shard", "0")]);
        let s1 = reg.metrics().with_labels(&[("shard", "1")]);
        let mut ab = s0.clone();
        ab.merge(&s1);
        let mut ba = s1;
        ba.merge(&s0);
        assert_eq!(ab, ba);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let c = intern("kernel.registered");
        let h = intern("kernel.dispatch_latency_ticks");
        let mut reg = crate::Observer::new();
        reg.counter_add(c, 42);
        reg.histogram_record(h, 3);
        let snap = reg
            .metrics()
            .with_labels(&[("site", "b"), ("policy", "kernel")])
            .with_labels(&[("shard", "0")]);
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    #[test]
    fn json_keys_are_the_series_text_in_sorted_order() {
        let mut snap = MetricsSnapshot::default();
        // Interned in an order unlike the text order.
        snap.counter_add("z.last", 1);
        snap.counter_add("a.runs{site=x}", 2);
        snap.counter_add("a.runs", 3);
        snap.counter_add("a.runs_total", 4);
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            r#"{"counters":{"a.runs":3,"a.runs_total":4,"a.runs{site=x}":2,"z.last":1},"gauges":{},"histograms":{}}"#
        );
    }
}
