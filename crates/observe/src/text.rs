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
//! Series names arrive with **appended label groups** — labelling a
//! snapshot twice nests (`name{site=x}{shard=0}`, see
//! [`MetricsSnapshot::with_labels`]) — and the exposition normalizes every
//! group chain into a single label set with keys sorted and values
//! quoted. Counters render as one line; gauges render their last value
//! plus a `_max` high-water series; histograms render cumulative
//! `_bucket{le=...}` lines over the registry's power-of-two buckets plus
//! `_sum`, `_count`, and `_max`.
//!
//! The output is a pure function of the snapshot: maps are `BTreeMap`s,
//! label keys are sorted, and nothing reads a clock — so two scrapes of
//! equal snapshots are byte-identical, which is how the serve-layer tests
//! diff a wire-scraped page against a directly-harvested one.

use crate::metrics::{base_name, MetricsSnapshot, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// Splits a series name into its base name and a flattened, sorted label
/// list: `"site.runs{site=a,policy=b}{shard=0}"` becomes
/// `("site.runs", [(policy,b), (shard,0), (site,a)])`. Malformed label
/// text (no `=`) is kept as a valueless pair rather than dropped, so no
/// series can hide from the page.
#[must_use]
pub fn split_labels(name: &str) -> (String, Vec<(String, String)>) {
    let base = base_name(name).to_owned();
    let mut labels = Vec::new();
    for group in name[base.len()..].split('}') {
        let group = group.trim_start_matches('{');
        if group.is_empty() {
            continue;
        }
        for pair in group.split(',') {
            match pair.split_once('=') {
                Some((k, v)) => labels.push((k.to_owned(), v.to_owned())),
                None => labels.push((pair.to_owned(), String::new())),
            }
        }
    }
    labels.sort();
    (base, labels)
}

/// Renders a normalized label set, `le` (when given) first-class among
/// the sorted keys: `{le="7",shard="0"}`. Empty sets render as nothing.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    let mut pairs: Vec<(String, String)> = labels.to_vec();
    if let Some(bound) = le {
        pairs.push(("le".to_owned(), bound.to_owned()));
        pairs.sort();
    }
    if pairs.is_empty() {
        return String::new();
    }
    let body = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
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

/// The inclusive upper bound of histogram bucket `i` in the registry's
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
    let mut out = String::from("# jsk-observe text exposition v1\n");
    let mut last = String::new();
    for (name, value) in &snap.counters {
        let (base, labels) = split_labels(name);
        type_header(&mut out, &mut last, &base, "counter");
        let _ = writeln!(out, "{base}{} {value}", render_labels(&labels, None));
    }
    last.clear();
    for (name, g) in &snap.gauges {
        let (base, labels) = split_labels(name);
        type_header(&mut out, &mut last, &base, "gauge");
        let set = render_labels(&labels, None);
        let _ = writeln!(out, "{base}{set} {}", g.last);
        let _ = writeln!(out, "{base}_max{set} {}", g.max);
    }
    last.clear();
    for (name, h) in &snap.histograms {
        let (base, labels) = split_labels(name);
        type_header(&mut out, &mut last, &base, "histogram");
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
    use crate::metrics::GaugeSnapshot;

    #[test]
    fn splits_nested_label_groups_into_one_sorted_set() {
        let (base, labels) = split_labels("site.runs{site=a,policy=b}{shard=0}");
        assert_eq!(base, "site.runs");
        assert_eq!(
            labels,
            vec![
                ("policy".to_owned(), "b".to_owned()),
                ("shard".to_owned(), "0".to_owned()),
                ("site".to_owned(), "a".to_owned()),
            ]
        );
        assert_eq!(split_labels("plain").0, "plain");
        assert!(split_labels("plain").1.is_empty());
    }

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.runs{shard=1}{site=x}".into(), 3);
        snap.counters.insert("a.runs{shard=2}{site=x}".into(), 4);
        snap.gauges
            .insert("a.depth".into(), GaugeSnapshot { last: 2, max: 9 });
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
        let mut reg = crate::MetricsRegistry::new();
        let mut strings = crate::Interner::new();
        let h = strings.intern("lat");
        reg.histogram_record(h, 1);
        reg.histogram_record(h, 1000);
        let page = render_text(&reg.snapshot(&strings));
        assert!(page.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(page.contains("lat_bucket{le=\"+Inf\"} 2\n"));
        assert!(page.contains("lat_sum 1001\n"));
        assert!(page.contains("lat_count 2\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x{shard=0}".into(), 1);
        a.counters.insert("x{shard=1}".into(), 2);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("x{shard=1}".into(), 2);
        b.counters.insert("x{shard=0}".into(), 1);
        assert_eq!(render_text(&a), render_text(&b));
    }
}
