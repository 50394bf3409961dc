//! `/metrics`-style text exposition of a [`MetricsSnapshot`].
//!
//! A long-running server cannot hand every scrape a JSON blob and ask the
//! operator to diff `BTreeMap`s; it needs the one-line-per-series text
//! format every metrics stack already speaks. This module renders a
//! snapshot in that shape:
//!
//! ```text
//! # TYPE site.runs counter
//! site.runs{policy="JSKernel",shard="0",site="CVE-2018-5092"} 1
//! ```
//!
//! This is one of the two places a series' name is spelled out (the
//! other is the snapshot's JSON form): a snapshot carries each series as
//! a name id and a label-set id, and the page reads the labels structured
//! from that id — every group a `with_labels` call nested, flattened into
//! one set with keys sorted. No label text is ever parsed back, so a
//! label value cannot turn into extra labels, and each value is escaped
//! as the text format requires (`\` → `\\`, `"` → `\"`, newline →
//! `\n`), so it cannot end its line either. Counters render as one
//! line; gauges render their last value plus a `_max` high-water series;
//! histograms render cumulative `_bucket{le=...}` lines over the
//! snapshot's power-of-two buckets plus `_sum`, `_count`, and `_max`.
//!
//! The output is a pure function of the snapshot: series are ordered by
//! their JSON-form key (`name{k=v,..}{k=v}`), label keys are sorted,
//! and nothing
//! reads a clock — so two scrapes of equal snapshots are byte-identical,
//! which is how the serve-layer tests diff a wire-scraped page against a
//! directly-harvested one.

use crate::metrics::{series_table, Family, MetricsSnapshot, SeriesTable, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// One rendered series: its metric name, its sorted labels, its value.
type Row<'t, 'v, V> = (&'t str, Vec<(&'t str, &'t str)>, &'v V);

/// A family's series in JSON-key order, each with its structured labels.
fn rows<'t, 'v, V: Clone>(table: &'t SeriesTable, family: &'v Family<V>) -> Vec<Row<'t, 'v, V>> {
    let mut keyed: Vec<(String, Row<'t, 'v, V>)> = family
        .rows()
        .iter()
        .map(|(s, v)| (table.key(*s), (table.name(*s), table.labels(*s), v)))
        .collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, row)| row).collect()
}

/// Renders a label set, `le` (when given) first-class among the sorted
/// keys, values escaped: `{le="7",shard="0"}`. Empty sets render as
/// nothing.
fn render_labels(labels: &[(&str, &str)], le: Option<&str>) -> String {
    let mut pairs = labels.to_vec();
    if let Some(bound) = le {
        pairs.push(("le", bound));
        pairs.sort_unstable();
    }
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Emits a `# TYPE` header when `base` differs from the previous series'
/// base name, so each metric family is introduced exactly once per
/// contiguous run.
fn type_header(out: &mut String, last: &mut String, base: &str, kind: &str) {
    if last != base {
        let _ = writeln!(out, "# TYPE {base} {kind}");
        last.clear();
        last.push_str(base);
    }
}

/// The inclusive upper bound of histogram bucket `i` in the snapshot's
/// power-of-two scheme (`v < 2^i`), rendered for a `le` label; the final
/// overflow bucket is `+Inf`.
fn bucket_bound(i: usize) -> String {
    if i + 1 >= HISTOGRAM_BUCKETS {
        "+Inf".to_owned()
    } else {
        ((1u64 << i) - 1).to_string()
    }
}

/// Renders the snapshot as a `/metrics`-style text page. See the module
/// docs for the exact shape; the page always ends with a newline and an
/// empty snapshot renders to the bare header line.
#[must_use]
pub fn render_text(snap: &MetricsSnapshot) -> String {
    let table = series_table();
    let mut out = String::from("# jsk-observe text exposition v1\n");
    let mut last = String::new();
    for (base, labels, value) in rows(&table, &snap.counters) {
        type_header(&mut out, &mut last, base, "counter");
        let _ = writeln!(out, "{base}{} {value}", render_labels(&labels, None));
    }
    last.clear();
    for (base, labels, g) in rows(&table, &snap.gauges) {
        type_header(&mut out, &mut last, base, "gauge");
        let set = render_labels(&labels, None);
        let _ = writeln!(out, "{base}{set} {}", g.last);
        let _ = writeln!(out, "{base}_max{set} {}", g.max);
    }
    last.clear();
    for (base, labels, h) in rows(&table, &snap.histograms) {
        type_header(&mut out, &mut last, base, "histogram");
        let set = render_labels(&labels, None);
        let mut cumulative = 0u64;
        for (i, count) in h.buckets.iter().enumerate() {
            cumulative += count;
            let _ = writeln!(
                out,
                "{base}_bucket{} {cumulative}",
                render_labels(&labels, Some(&bucket_bound(i)))
            );
        }
        let _ = writeln!(out, "{base}_sum{set} {}", h.sum);
        let _ = writeln!(out, "{base}_count{set} {}", h.count);
        let _ = writeln!(out, "{base}_max{set} {}", h.max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_label_groups_render_as_one_sorted_set() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("plain", 1);
        let page = render_text(
            &snap
                .with_labels(&[("site", "a"), ("policy", "b")])
                .with_labels(&[("shard", "0")]),
        );
        assert!(
            page.contains("plain{policy=\"b\",shard=\"0\",site=\"a\"} 1\n"),
            "{page}"
        );
        assert!(render_text(&snap).contains("plain 1\n"));
    }

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let mut reg = crate::Observer::new();
        reg.gauge_set(crate::intern("a.depth"), 9);
        reg.gauge_set(crate::intern("a.depth"), 2);
        let mut snap = reg.metrics();
        snap.counter_add("a.runs{shard=1}{site=x}", 3);
        snap.counter_add("a.runs{shard=2}{site=x}", 4);
        let page = render_text(&snap);
        assert!(page.starts_with("# jsk-observe text exposition v1\n"));
        assert!(page.contains("# TYPE a.runs counter\n"));
        assert!(page.contains("a.runs{shard=\"1\",site=\"x\"} 3\n"));
        assert!(page.contains("a.runs{shard=\"2\",site=\"x\"} 4\n"));
        // The family header appears once for the two series.
        assert_eq!(page.matches("# TYPE a.runs counter").count(), 1);
        assert!(page.contains("a.depth 2\n"));
        assert!(page.contains("a.depth_max 9\n"));
        assert!(page.ends_with('\n'));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let mut reg = crate::Observer::new();
        let h = crate::intern("lat");
        reg.histogram_record(h, 1);
        reg.histogram_record(h, 1000);
        let page = render_text(&reg.metrics());
        assert!(page.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(page.contains("lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(page.contains("lat_sum 1001\n"));
        assert!(page.contains("lat_count 2\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut a = MetricsSnapshot::default();
        a.counter_add("x{shard=0}", 1);
        a.counter_add("x{shard=1}", 2);
        let mut b = MetricsSnapshot::default();
        b.counter_add("x{shard=1}", 2);
        b.counter_add("x{shard=0}", 1);
        assert_eq!(render_text(&a), render_text(&b));
    }

    #[test]
    fn label_values_are_escaped_and_never_split() {
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("site.runs", 1);
        let hostile = "x\"} 1\nforged_total 42\n#,a=b\\";
        let page = render_text(&snap.with_labels(&[("site", hostile)]));
        assert_eq!(
            page,
            "# jsk-observe text exposition v1\n\
             # TYPE site.runs counter\n\
             site.runs{site=\"x\\\"} 1\\nforged_total 42\\n#,a=b\\\\\"} 1\n"
        );
    }
}
