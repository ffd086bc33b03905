//! Exporters: JSONL span dumps, Chrome-trace JSON, and metrics JSON.
//!
//! All output is hand-rendered (no serde in the offline build) and fully
//! deterministic: spans sort by (trace, start, id), map keys are BTreeMap
//! order, floats never appear (virtual time is integral microseconds).

use crate::metrics::MetricsSnapshot;
use crate::span::{SpanEvent, SpanRecord};

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn attrs_json(attrs: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    out.push('}');
    out
}

fn events_json(events: &[SpanEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"at_us\":{},\"name\":\"{}\",\"attrs\":{}}}",
            e.at.0,
            json_escape(e.name),
            attrs_json(&e.attrs)
        ));
    }
    out.push(']');
    out
}

fn sorted(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    let mut v: Vec<&SpanRecord> = spans.iter().collect();
    v.sort_by_key(|s| (s.trace, s.start, s.id));
    v
}

/// One JSON object per line, one line per span, sorted by
/// (trace, start, id). Byte-identical across same-seed runs in the
/// network's synchronous-delivery mode.
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in sorted(spans) {
        let parent = match s.parent {
            Some(p) => format!("\"{}\"", p.to_hex()),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"attrs\":{},\"events\":{}}}\n",
            s.trace.to_hex(),
            s.id.to_hex(),
            parent,
            s.kind.as_str(),
            json_escape(s.name),
            s.start.0,
            s.end.0,
            attrs_json(&s.attrs),
            events_json(&s.events),
        ));
    }
    out
}

/// Chrome-trace ("trace event") JSON: load in `chrome://tracing` or
/// Perfetto. Each trace renders as one row (`tid` = trace id); spans are
/// complete (`ph:"X"`) events in virtual microseconds, span events are
/// instant (`ph:"i"`) events.
pub fn spans_to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut events = Vec::new();
    for s in sorted(spans) {
        let mut args = vec![("trace", s.trace.to_hex()), ("span", s.id.to_hex())];
        for (k, v) in &s.attrs {
            args.push((k, v.clone()));
        }
        let args_json = {
            let mut out = String::from("{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
            out
        };
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
            json_escape(s.name),
            s.kind.as_str(),
            s.trace.0,
            s.start.0,
            s.end.since(s.start).as_micros(),
            args_json
        ));
        for e in &s.events {
            events.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{}}}",
                json_escape(e.name),
                s.kind.as_str(),
                s.trace.0,
                e.at.0,
                attrs_json(&e.attrs)
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Metrics snapshot as JSON: counters object plus histogram summaries
/// (cumulative counts per [`crate::histogram::WALL_PROM_BUCKETS_US`]
/// bound, `+Inf` last).
pub fn metrics_to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(k), v));
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let buckets: Vec<String> = h.prom_cumulative().iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"buckets\":[{}]}}",
            json_escape(k),
            h.count,
            h.sum_us,
            h.max_us,
            buckets.join(",")
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, SpanKind, TraceId};
    use crate::MetricsRegistry;
    use ogsa_sim::{SimDuration, SimInstant};

    fn span(trace: u64, id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: "op",
            kind: SpanKind::Db,
            start: SimInstant(start),
            end: SimInstant(end),
            // Wall stamps must never leak into the deterministic dumps;
            // `jsonl_ignores_wall_stamps` below checks exactly that.
            wall_start_us: Some(123_456),
            wall_end_us: Some(789_012),
            attrs: vec![("key", "va\"lue".into())],
            events: vec![SpanEvent {
                at: SimInstant(start + 1),
                name: "fault:drop",
                attrs: vec![],
            }],
        }
    }

    #[test]
    fn jsonl_is_sorted_and_escaped() {
        let spans = vec![span(2, 5, None, 50, 60), span(1, 3, Some(2), 10, 20)];
        let out = spans_to_jsonl(&spans);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trace\":\"0000000000000001\""));
        assert!(lines[1].contains("\"trace\":\"0000000000000002\""));
        assert!(lines[0].contains("\"parent\":\"0000000000000002\""));
        assert!(lines[1].contains("\"parent\":null"));
        assert!(lines[0].contains("va\\\"lue"));
        assert!(
            lines[0].contains("\"events\":[{\"at_us\":11,\"name\":\"fault:drop\",\"attrs\":{}}]")
        );
    }

    #[test]
    fn jsonl_ignores_wall_stamps() {
        let with_wall = span(1, 2, None, 10, 20);
        let mut without_wall = with_wall.clone();
        without_wall.wall_start_us = None;
        without_wall.wall_end_us = None;
        assert_eq!(
            spans_to_jsonl(std::slice::from_ref(&with_wall)),
            spans_to_jsonl(&[without_wall.clone()]),
            "wall stamps must not affect the deterministic JSONL dump"
        );
        assert_eq!(
            spans_to_chrome_trace(&[with_wall]),
            spans_to_chrome_trace(&[without_wall]),
            "wall stamps must not affect the Chrome trace"
        );
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let out = spans_to_chrome_trace(&[span(1, 2, None, 100, 350)]);
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"dur\":250"));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"name\":\"fault:drop\""));
    }

    #[test]
    fn metrics_json_renders_counters_and_histograms() {
        let m = MetricsRegistry::new();
        m.inc("oneway.dead_letters", &[("reason", "partition")]);
        m.observe("invoke_ms", &[], SimDuration::from_micros(400));
        let out = metrics_to_json(&m.snapshot());
        assert!(out.contains("\"oneway.dead_letters{reason=partition}\":1"));
        assert!(out.contains(
            "\"invoke_ms\":{\"count\":1,\"sum_us\":400,\"max_us\":400,\"buckets\":[0,0,0,1,1,"
        ));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(json_escape("a\nb\t\"c\\"), "a\\nb\\t\\\"c\\\\");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
