//! Chrome trace-event export (the JSON Array Format Perfetto loads).
//!
//! The observer buffers [`TraceEvent`]s (symbols + sim-times, 32 bytes
//! each) and this module renders them to the trace-event JSON object
//! format: `{"displayTimeUnit": "ms", "traceEvents": [...]}` with one
//! object per event carrying `name`/`cat`/`ph`/`ts`/`pid`/`tid` (and `id`
//! for asynchronous spans). Timestamps are **simulation** microseconds —
//! a trace is a pure function of the run's seed and loads identically on
//! any machine. Synchronous kernel spans are zero-width in sim-time (the
//! kernel decides "instantaneously" between simulated instants); the
//! spans with real extent are the asynchronous event-lifecycle spans
//! (register → dispatch, correlated by event token) and browser task
//! spans, whose widths are the simulated costs the attacks measure.
//!
//! [`validate`] is the small schema check the CI `smoke (observe)` step and
//! the tests run over emitted files.

use crate::sym::{Interner, Sym};
use jsk_sim::time::SimTime;
use serde::Value;

/// Trace-event phase codes this exporter emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Synchronous span open (`"B"`).
    Begin,
    /// Synchronous span close (`"E"`).
    End,
    /// Point event (`"i"`).
    Instant,
    /// Asynchronous (id-correlated) span open (`"b"`).
    AsyncBegin,
    /// Asynchronous span close (`"e"`).
    AsyncEnd,
}

impl Phase {
    /// The single-character `ph` code.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::AsyncBegin => "b",
            Phase::AsyncEnd => "e",
        }
    }
}

/// One buffered event, still symbol-keyed (resolved at export).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event phase.
    pub ph: Phase,
    /// Interned event name.
    pub name: Sym,
    /// Simulated thread the event is attributed to.
    pub tid: u64,
    /// Simulation time of the event.
    pub ts: SimTime,
    /// Correlation id for asynchronous phases (`None` otherwise).
    pub id: Option<u64>,
}

/// The `pid` every event carries: there is one simulated browser process.
pub const TRACE_PID: u64 = 1;

fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or("misc")
}

/// Sim-time → trace-event microseconds, exact while sim-times stay below
/// 2^53 ns (~104 days — far past any simulated run).
fn ts_micros(t: SimTime) -> Value {
    let ns = t.as_nanos();
    if ns.is_multiple_of(1_000) {
        Value::U64(ns / 1_000)
    } else {
        Value::F64(ns as f64 / 1_000.0)
    }
}

/// Renders events to the trace-event JSON object format as a [`Value`].
#[must_use]
pub fn chrome_trace_value(events: &[TraceEvent], strings: &Interner) -> Value {
    let rendered = events
        .iter()
        .map(|e| {
            let name = strings.resolve(e.name);
            let mut obj = vec![
                ("name".to_owned(), Value::Str(name.to_owned())),
                ("cat".to_owned(), Value::Str(category(name).to_owned())),
                ("ph".to_owned(), Value::Str(e.ph.code().to_owned())),
                ("ts".to_owned(), ts_micros(e.ts)),
                ("pid".to_owned(), Value::U64(TRACE_PID)),
                ("tid".to_owned(), Value::U64(e.tid)),
            ];
            if let Some(id) = e.id {
                obj.push(("id".to_owned(), Value::U64(id)));
            }
            if e.ph == Phase::Instant {
                // Thread-scoped instants render as small arrows in Perfetto.
                obj.push(("s".to_owned(), Value::Str("t".to_owned())));
            }
            Value::Obj(obj)
        })
        .collect();
    Value::Obj(vec![
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ("traceEvents".to_owned(), Value::Arr(rendered)),
    ])
}

/// Renders events to a pretty-printed trace-event JSON string (with a
/// trailing newline, like every other artifact this repo writes).
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent], strings: &Interner) -> String {
    let mut s = serde_json::to_string_pretty(&chrome_trace_value(events, strings))
        .expect("trace value serializes");
    s.push('\n');
    s
}

/// Counts from a validated trace, for smoke-test assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Synchronous span opens (`"B"`).
    pub spans: usize,
    /// Asynchronous span opens (`"b"`).
    pub async_spans: usize,
    /// Point events (`"i"`).
    pub instants: usize,
}

/// The small schema check: parses `json`, verifies the envelope and that
/// every event has the required fields with the right types (async phases
/// must carry an `id`), and returns event counts. `Err` is a description
/// of the first violation.
pub fn validate(json: &str) -> Result<TraceSummary, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
    let events = v
        .get_field("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    match v.get_field("displayTimeUnit") {
        Some(Value::Str(u)) if u == "ms" || u == "ns" => {}
        _ => return Err("displayTimeUnit missing or invalid".to_owned()),
    }
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| e.get_field(k).ok_or(format!("event {i}: missing {k}"));
        let Value::Str(ph) = field("ph")? else {
            return Err(format!("event {i}: ph is not a string"));
        };
        let Value::Str(_) = field("name")? else {
            return Err(format!("event {i}: name is not a string"));
        };
        for k in ["ts", "pid", "tid"] {
            match field(k)? {
                Value::U64(_) | Value::I64(_) | Value::F64(_) => {}
                _ => return Err(format!("event {i}: {k} is not numeric")),
            }
        }
        match ph.as_str() {
            "B" => summary.spans += 1,
            "b" | "e" => {
                if e.get_field("id").is_none() {
                    return Err(format!("event {i}: async phase {ph:?} without id"));
                }
                if ph == "b" {
                    summary.async_spans += 1;
                }
            }
            "i" => summary.instants += 1,
            "E" | "C" | "M" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_validates_and_counts() {
        let mut strings = Interner::new();
        let task = strings.intern("browser.task");
        let ev = strings.intern("kevent.timeout");
        let mark = strings.intern("kernel.watchdog_expired");
        let events = [
            TraceEvent {
                ph: Phase::AsyncBegin,
                name: ev,
                tid: 0,
                ts: SimTime::from_micros(10),
                id: Some(3),
            },
            TraceEvent {
                ph: Phase::Begin,
                name: task,
                tid: 0,
                ts: SimTime::from_micros(15),
                id: None,
            },
            TraceEvent {
                ph: Phase::End,
                name: task,
                tid: 0,
                ts: SimTime::from_micros(40),
                id: None,
            },
            TraceEvent {
                ph: Phase::AsyncEnd,
                name: ev,
                tid: 0,
                ts: SimTime::from_micros(15),
                id: Some(3),
            },
            TraceEvent {
                ph: Phase::Instant,
                name: mark,
                tid: 1,
                ts: SimTime::from_nanos(1_500),
                id: None,
            },
        ];
        let json = chrome_trace_json(&events, &strings);
        let summary = validate(&json).expect("valid trace");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.async_spans, 1);
        assert_eq!(summary.instants, 1);
        assert!(json.contains("\"cat\": \"kevent\""), "{json}");
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn validate_rejects_async_without_id() {
        let bad = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"x","cat":"x","ph":"b","ts":1,"pid":1,"tid":0}]}"#;
        assert!(validate(bad).unwrap_err().contains("without id"));
    }

    #[test]
    fn validate_rejects_missing_envelope() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
    }
}
