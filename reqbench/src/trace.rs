//! In-memory spans recorded by the benchmark around public calls, and the
//! self-time arithmetic over them.
//!
//! A span is `(request id, span id, parent id, name, start, end)`, with
//! times in nanoseconds since the run's epoch. Spans mark busy intervals
//! only; waits (queue wait, pool wait) are kept as plain durations so
//! they never eat into a parent's self time. Spans stay in memory and
//! are written out once the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// The parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span recorder. Ids carry the recorder's index in their
/// high bits, so recorders on different threads never collide. A
/// recorder built `on = false` records nothing, which is how the traced
/// run measures the same path with spans off.
pub struct Tracer {
    epoch: Instant,
    prefix: u64,
    next: u64,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, index: u64, on: bool) -> Tracer {
        Tracer {
            epoch,
            prefix: (index + 1) << 40,
            next: 0,
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh id, usable as a request id or a span id.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.prefix | self.next
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span under a pre-allocated id.
    pub fn record_as(
        &mut self,
        id: u64,
        req: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            req,
            id,
            parent,
            name,
            start: self.at(start),
            end: self.at(end),
        };
        self.spans.push(span);
    }

    /// Records a span under a new id, which it returns.
    pub fn record(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, req, parent, name, start, end);
        id
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (clipped to the span). Children can overlap — pool workers
/// run a flush's sites in parallel — so the union, not the sum, is what
/// the parent did not spend itself.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_within(kids, s.start, s.end));
            (s.id, s.ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_us(&self) -> f64 {
        mean_us(self.total_ns, self.count)
    }

    pub fn self_mean_us(&self) -> f64 {
        mean_us(self.self_ns, self.count)
    }
}

fn mean_us(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64 / 1e3
    }
}

/// Aggregates spans by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.ns();
        l.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Writes the per-layer table and the first `cap` spans as JSON.
pub fn write_json(
    path: &std::path::Path,
    table: &BTreeMap<&'static str, Layer>,
    spans: &[Span],
    cap: usize,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"layers\": [")?;
    for (i, (name, l)) in table.iter().enumerate() {
        let sep = if i + 1 == table.len() { "" } else { "," };
        writeln!(
            f,
            "  {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
            l.count, l.total_ns, l.self_ns
        )?;
    }
    writeln!(f, "], \"spans_total\": {}, \"spans\": [", spans.len())?;
    let shown = spans.len().min(cap);
    for (i, s) in spans.iter().take(shown).enumerate() {
        let sep = if i + 1 == shown { "" } else { "," };
        writeln!(
            f,
            "  {{\"req\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.req, s.id, s.parent, s.name, s.start, s.end
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; two workers' children overlap on 20..40, and one
        // child runs past the parent's end.
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            span(5, 2, 10, 15),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
    }
}
