//! Snapshot type and the one deterministic JSON export,
//! [`bundle_json`].
//!
//! The JSON writer is hand-rolled (no external crates) and fully
//! deterministic: metric maps are exported in sorted (BTreeMap) key
//! order, spans in canonical order, floats through Rust's shortest
//! round-trip formatting. Two runs with the same seed therefore
//! produce byte-identical exports.

use crate::metrics::HistogramSnapshot;
use crate::span::{FieldValue, SpanRecord};

/// Schema tag of the [`bundle_json`] document.
pub const BUNDLE_SCHEMA: &str = "unidrive-obs/v3";

/// Point-in-time copy of a registry: every metric plus the
/// completed-span ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Completed spans, oldest (by end time) first.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the span ring before this snapshot.
    pub dropped_spans: u64,
}

impl Snapshot {
    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Value of gauge `name`, if present and set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .filter(|v| !v.is_nan())
    }

    /// Histogram snapshot `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The span record with the given id, if present.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Number of completed spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sorts the spans into a canonical order: by start time, end
    /// time, name, id (the ring holds them in end order). Exports
    /// canonicalize first, so a file reads in time order and does not
    /// depend on which of two spans ending at one instant was pushed
    /// first.
    pub fn canonicalize(&mut self) {
        self.spans.sort_by_cached_key(|s| {
            format!("{:020}|{:020}|{}|{:020}", s.start_ns, s.end_ns, s.name, s.id)
        });
    }
}

/// Serializes one histogram as a deterministic standalone JSON
/// object: counts, extrema, mean, the p50/p95/p99 quantile
/// estimates, and the raw log₂ bucket array. Fleet-scale reports
/// (`BENCH_fleet.json`) embed this per latency/wait distribution
/// instead of carrying a whole registry snapshot.
pub fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, ",
        h.count, h.sum, h.min, h.max
    ));
    out.push_str("\"mean\": ");
    json_f64(&mut out, h.mean());
    out.push_str(&format!(
        ", \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        h.p50(),
        h.p95(),
        h.p99()
    ));
    for (j, (lo, n)) in h.buckets.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{lo}, {n}]"));
    }
    out.push_str("]}");
    out
}

/// Serializes a run as the one obs artefact (schema
/// [`BUNDLE_SCHEMA`]): a single JSON object whose sections are present
/// only when collected.
///
/// With a `snapshot`: top-level `droppedSpans` and `traceEvents` in
/// Chrome trace-event form, so the very file opens in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing` — every span,
/// instants included, is a complete (`"ph": "X"`) event with
/// microsecond `ts`/`dur`, parent links and typed attributes riding in
/// `args` — plus a `snapshot` object holding the counters, gauges and
/// histograms. With `series`: that `unidrive-obs-series/v2` document
/// (see `SeriesSnapshot::to_json`) embedded under
/// `series`. Canonicalize the snapshot first and same-seed runs
/// produce byte-identical files.
pub fn bundle_json(snapshot: Option<&Snapshot>, series: Option<&str>) -> String {
    let mut sections = vec![format!("\"schema\": \"{BUNDLE_SCHEMA}\"")];
    if let Some(snap) = snapshot {
        sections.push(format!(
            "\"displayTimeUnit\": \"ms\",\n\"droppedSpans\": {}",
            snap.dropped_spans
        ));
        sections.push(snap.trace_events_json());
        sections.push(snap.metrics_json());
    }
    if let Some(series) = series {
        sections.push(format!("\"series\": {}", series.trim_end()));
    }
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

impl Snapshot {
    fn trace_events_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\": \"{}\", \"cat\": \"unidrive\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"span_id\": {}, \
                 \"parent\": {}",
                s.name,
                s.track,
                micros(s.start_ns),
                micros(s.duration_ns()),
                s.id,
                s.parent
            ));
            for (key, value) in &s.attrs {
                out.push_str(", ");
                json_string(&mut out, key);
                out.push_str(": ");
                json_field_value(&mut out, value);
            }
            out.push_str("}}");
        }
        out.push_str("\n]");
        out
    }

    fn metrics_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("\"snapshot\": {\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            out.push_str(": ");
            json_f64(&mut out, *value);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{lo}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}");
        out
    }
}

/// Nanoseconds rendered as a microsecond decimal (`123.456`), the unit
/// Chrome trace-event `ts`/`dur` fields use. Integer math keeps the
/// rendering deterministic.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn json_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U(v) => out.push_str(&v.to_string()),
        FieldValue::B(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::S(v) => json_string(out, v),
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like `2` are valid JSON numbers, but keep a
        // decimal point so consumers type gauges consistently.
        if s.contains(['.', 'e', 'E']) {
            out.push_str(&s);
        } else {
            out.push_str(&s);
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("a".into(), 1), ("b".into(), 2)],
            gauges: vec![("g".into(), 1.5), ("whole".into(), 2.0)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 5,
                    min: 1,
                    max: 4,
                    buckets: vec![(1, 1), (4, 1)],
                },
            )],
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "sync.round",
                    track: 0,
                    start_ns: 5,
                    end_ns: 2_000,
                    attrs: vec![("device", FieldValue::S("dev-\"a\"".into()))],
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "engine.block",
                    track: 3,
                    start_ns: 100,
                    end_ns: 1_500,
                    attrs: vec![("cloud", FieldValue::S("c0".into())), ("extra", FieldValue::B(false))],
                },
            ],
            dropped_spans: 0,
        }
    }

    #[test]
    fn bundle_is_deterministic_and_escaped() {
        let a = bundle_json(Some(&sample()), None);
        assert_eq!(a, bundle_json(Some(&sample()), None));
        assert!(a.starts_with("{\n\"schema\": \"unidrive-obs/v3\",\n"));
        assert!(a.contains("\"a\": 1"));
        assert!(a.contains("\"whole\": 2.0"));
        assert!(a.contains("dev-\\\"a\\\""));
        assert!(a.contains("[4, 1]"));
        assert!(!a.contains("\"series\""));
    }

    #[test]
    fn bundle_sections_are_present_only_when_collected() {
        let series = "{\n  \"series\": \"unidrive-obs-series/v2\"\n}\n";
        let only_series = bundle_json(None, Some(series));
        assert!(!only_series.contains("traceEvents") && !only_series.contains("\"snapshot\""));
        assert!(only_series
            .ends_with("\"series\": {\n  \"series\": \"unidrive-obs-series/v2\"\n}\n}\n"));
        let both = bundle_json(Some(&sample()), Some(series));
        assert!(both.contains("\"traceEvents\": [") && both.contains("\"snapshot\": {"));
        assert!(both.ends_with("\"series\": {\n  \"series\": \"unidrive-obs-series/v2\"\n}\n}\n"));
    }

    #[test]
    fn standalone_histogram_json_is_deterministic_with_quantiles() {
        use crate::Histogram;
        let h = Histogram::default();
        for v in [100u64, 200, 400, 800, 1600, 3200] {
            h.record(v);
        }
        let snap = h.snapshot();
        let a = histogram_json(&snap);
        assert_eq!(a, histogram_json(&snap));
        assert!(a.contains("\"count\": 6"));
        assert!(a.contains(&format!("\"p50\": {}", snap.p50())));
        assert!(a.contains(&format!("\"p99\": {}", snap.p99())));
        assert!(a.contains("\"buckets\": ["));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn trace_events_are_complete_events_in_micros() {
        let trace = bundle_json(Some(&sample()), None);
        assert!(trace.contains("\"droppedSpans\": 0,\n\"traceEvents\": ["));
        // Span 1: 5 ns start, 1995 ns duration -> 0.005 / 1.995 µs.
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ts\": 0.005"));
        assert!(trace.contains("\"dur\": 1.995"));
        // Child rides its worker track and keeps parentage in args.
        assert!(trace.contains("\"tid\": 3"));
        assert!(trace.contains("\"span_id\": 2, \"parent\": 1"));
    }

    #[test]
    fn canonicalize_is_order_insensitive() {
        let mut a = sample();
        let mut b = a.clone();
        b.spans.reverse();
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
        assert_eq!(a.spans[0].id, 1, "spans sort by start time");
        assert_eq!(bundle_json(Some(&a), None), bundle_json(Some(&b), None));
    }

    #[test]
    fn lookup_helpers() {
        let s = sample();
        assert_eq!(s.counter("b"), 2);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.counter_sum(""), 3);
        assert_eq!(s.gauge("g"), Some(1.5));
        assert_eq!(s.histogram("h").unwrap().count, 2);
        assert_eq!(s.span_count("engine.block"), 1);
    }
}
