//! Prometheus text exposition (version 0.0.4) of a metrics snapshot, plus
//! a strict parser used by the bench gates and the loadgen cross-check.
//!
//! The registry stores series under rendered `name{k=v,...}` keys; this
//! module splits those keys back into name + labels, sanitises metric
//! names to the Prometheus charset, escapes label values (`\\`, `"`,
//! `\n`), and renders counters, gauges, and histograms (cumulative `le`
//! buckets on the [`WALL_PROM_BUCKETS_US`] ladder, `+Inf`, `_sum`,
//! `_count`). A histogram series with exemplars renders them
//! OpenMetrics-style, linking a bucket to a flight-recorder trace
//! sequence number.
//!
//! Everything is hand-rolled — the offline build has no serde and no
//! prometheus crate — and the parser is deliberately strict: a scrape
//! that does not round-trip through [`parse_exposition`] fails the CI
//! gate rather than silently degrading.

use std::collections::BTreeMap;

use crate::histogram::WALL_PROM_BUCKETS_US;
use crate::metrics::MetricsSnapshot;

/// Escape a label value per the text exposition format: backslash, double
/// quote, and line feed.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Map an internal metric name (`wal.appends`, `serve:request`) onto the
/// Prometheus name charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Split a registry series key (`name{k=v,...}` or bare `name`) into the
/// name and its label pairs. Registry label discipline (no `,`/`=`/`}` in
/// values) makes this unambiguous.
pub fn split_series_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    match key.find('{') {
        Some(brace) if key.ends_with('}') => {
            let name = &key[..brace];
            let body = &key[brace + 1..key.len() - 1];
            let labels = body
                .split(',')
                .filter(|s| !s.is_empty())
                .filter_map(|pair| pair.split_once('='))
                .collect();
            (name, labels)
        }
        _ => (key, Vec::new()),
    }
}

fn render_labels(out: &mut String, labels: &[(&str, &str)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
}

/// Group rendered series keys by sanitised metric name so each name gets
/// exactly one `# TYPE` line even when label sets differ.
fn grouped<V>(map: &BTreeMap<String, V>) -> BTreeMap<String, Vec<(&str, &V)>> {
    let mut out: BTreeMap<String, Vec<(&str, &V)>> = BTreeMap::new();
    for (key, v) in map {
        let (name, _) = split_series_key(key);
        out.entry(sanitize_name(name)).or_default().push((key, v));
    }
    out
}

/// Render a full snapshot (typically [`crate::MetricsRegistry::gather`])
/// as Prometheus text exposition. Counters render as `counter`, gauges as
/// `gauge`, histograms as `histogram` with microsecond `le` bounds. A
/// bucket whose latest slow request the flight recorder retained carries
/// `# {seq="N"} <latency_us>` (from [`MetricsSnapshot::exemplars`]), so a
/// scrape links straight to the `/debug/trace` entry.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, series) in grouped(&snap.counters) {
        out.push_str(&format!("# TYPE {name} counter\n"));
        for (key, value) in series {
            let (_, labels) = split_series_key(key);
            out.push_str(&name);
            render_labels(&mut out, &labels, None);
            out.push_str(&format!(" {value}\n"));
        }
    }
    for (name, series) in grouped(&snap.gauges) {
        out.push_str(&format!("# TYPE {name} gauge\n"));
        for (key, value) in series {
            let (_, labels) = split_series_key(key);
            out.push_str(&name);
            render_labels(&mut out, &labels, None);
            out.push_str(&format!(" {value}\n"));
        }
    }
    for (name, series) in grouped(&snap.histograms) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        for (key, h) in series {
            let (_, labels) = split_series_key(key);
            let exemplars = snap.exemplars.get(key).map(Vec::as_slice);
            for (i, count) in h.prom_cumulative().into_iter().enumerate() {
                let le = WALL_PROM_BUCKETS_US
                    .get(i)
                    .map_or_else(|| "+Inf".to_owned(), u64::to_string);
                out.push_str(&name);
                out.push_str("_bucket");
                render_labels(&mut out, &labels, Some(("le", &le)));
                out.push_str(&format!(" {count}"));
                if let Some(ex) = exemplars.and_then(|slots| slots.get(i)).and_then(|e| *e) {
                    out.push_str(&format!(" # {{seq=\"{}\"}} {}", ex.seq, ex.latency_us));
                }
                out.push('\n');
            }
            out.push_str(&name);
            out.push_str("_sum");
            render_labels(&mut out, &labels, None);
            out.push_str(&format!(" {}\n", h.sum_us));
            out.push_str(&name);
            out.push_str("_count");
            render_labels(&mut out, &labels, None);
            out.push_str(&format!(" {}\n", h.count));
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (without labels).
    pub name: String,
    /// Label pairs in line order, values unescaped.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The label value for `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: samples in document order plus declared types.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: name → type string.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// Sum of every sample with this exact name (across label sets).
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// First sample with this name and no labels beyond what's asked for.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
    }

    /// Check every declared histogram: `le` buckets must be cumulative
    /// (non-decreasing in bound order, `+Inf` last and largest) and the
    /// `+Inf` bucket must equal `_count`. Returns the first violation.
    pub fn check_histograms(&self) -> Result<(), String> {
        for (name, ty) in &self.types {
            if ty != "histogram" {
                continue;
            }
            // Group bucket samples for this histogram by their non-`le`
            // label signature, preserving line order within each group.
            let bucket_name = format!("{name}_bucket");
            let mut groups: BTreeMap<String, Vec<&Sample>> = BTreeMap::new();
            for s in self.samples.iter().filter(|s| s.name == bucket_name) {
                let sig: Vec<String> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                groups.entry(sig.join(",")).or_default().push(s);
            }
            if groups.is_empty() {
                return Err(format!("histogram {name} has no _bucket samples"));
            }
            for (sig, buckets) in &groups {
                let mut last_bound = f64::NEG_INFINITY;
                let mut last_count = f64::NEG_INFINITY;
                let mut inf_count = None;
                for b in buckets {
                    let le = b
                        .label("le")
                        .ok_or_else(|| format!("{bucket_name}{{{sig}}}: bucket without le"))?;
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse::<f64>()
                            .map_err(|_| format!("{bucket_name}: bad le {le:?}"))?
                    };
                    if bound <= last_bound {
                        return Err(format!("{bucket_name}{{{sig}}}: le out of order at {le}"));
                    }
                    if b.value < last_count {
                        return Err(format!(
                            "{bucket_name}{{{sig}}}: counts not cumulative at le={le}"
                        ));
                    }
                    last_bound = bound;
                    last_count = b.value;
                    if le == "+Inf" {
                        inf_count = Some(b.value);
                    }
                }
                let inf = inf_count
                    .ok_or_else(|| format!("{bucket_name}{{{sig}}}: missing +Inf bucket"))?;
                // _count must match +Inf for the same label signature.
                let count = self
                    .samples
                    .iter()
                    .find(|s| {
                        s.name == format!("{name}_count")
                            && buckets[0]
                                .labels
                                .iter()
                                .filter(|(k, _)| k != "le")
                                .all(|(k, v)| s.label(k) == Some(v.as_str()))
                    })
                    .ok_or_else(|| format!("{name}: missing _count for {{{sig}}}"))?;
                if (count.value - inf).abs() > f64::EPSILON {
                    return Err(format!(
                        "{name}{{{sig}}}: _count {} != +Inf bucket {}",
                        count.value, inf
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let key = &body[key_start..i];
        if key.is_empty()
            || !key
                .chars()
                .enumerate()
                .all(|(j, c)| c.is_ascii_alphabetic() || c == '_' || (j > 0 && c.is_ascii_digit()))
        {
            return Err(format!("line {line_no}: bad label name {key:?}"));
        }
        if i >= bytes.len() || bytes[i] != b'=' {
            return Err(format!("line {line_no}: expected = after label name"));
        }
        i += 1;
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        i += 1;
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err(format!("line {line_no}: unterminated label value"));
            }
            match bytes[i] {
                b'"' => {
                    i += 1;
                    break;
                }
                b'\\' => {
                    i += 1;
                    match bytes.get(i) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        other => {
                            return Err(format!("line {line_no}: bad escape {other:?}"));
                        }
                    }
                    i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 is copied through byte-wise; the
                    // source is a &str so the bytes are valid UTF-8.
                    let ch_len = {
                        let s = &body[i..];
                        s.chars().next().map(char::len_utf8).unwrap_or(1)
                    };
                    value.push_str(&body[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
        labels.push((key.to_owned(), value));
        if i < bytes.len() {
            match bytes[i] {
                b',' => i += 1,
                _ => {
                    return Err(format!("line {line_no}: expected , between labels"));
                }
            }
        }
    }
    Ok(labels)
}

/// Strictly parse a text exposition. Unknown comment lines (`# HELP`, bare
/// `#`) are skipped; malformed sample or `# TYPE` lines are errors.
/// Exemplar suffixes (`... # {seq="3"} 42`) are accepted on sample lines
/// and discarded.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, ty) = match (it.next(), it.next(), it.next()) {
                (Some(n), Some(t), None) => (n, t),
                _ => return Err(format!("line {line_no}: malformed TYPE line")),
            };
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {line_no}: unknown type {ty:?}"));
            }
            if exp.types.insert(name.to_owned(), ty.to_owned()).is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        // Sample line: name[{labels}] value [# exemplar]
        let (series, value_part) = {
            let name_end = line
                .find(['{', ' '])
                .ok_or_else(|| format!("line {line_no}: no value"))?;
            if line.as_bytes()[name_end] == b'{' {
                let close = line[name_end..]
                    .find('}')
                    .map(|p| name_end + p)
                    .ok_or_else(|| format!("line {line_no}: unterminated labels"))?;
                (&line[..close + 1], line[close + 1..].trim_start())
            } else {
                (&line[..name_end], line[name_end..].trim_start())
            }
        };
        let (name, labels) = match series.find('{') {
            Some(b) => (
                &series[..b],
                parse_labels(&series[b + 1..series.len() - 1], line_no)?,
            ),
            None => (series, Vec::new()),
        };
        if name.is_empty()
            || !name.chars().enumerate().all(|(j, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (j > 0 && c.is_ascii_digit())
            })
        {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let value_str = value_part.split(" # ").next().unwrap_or(value_part).trim();
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {line_no}: bad value {v:?}"))?,
        };
        exp.samples.push(Sample {
            name: name.to_owned(),
            labels,
            value,
        });
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallclock::ExemplarStore;
    use crate::MetricsRegistry;
    use ogsa_sim::SimDuration;

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn escaped_values_roundtrip_through_the_parser() {
        let mut snap = MetricsSnapshot::default();
        snap.set_gauge("g", &[("path", "a\\b\n\"c\"")], 3);
        let text = render(&snap);
        let exp = parse_exposition(&text).unwrap();
        let s = exp.get("g", &[]).unwrap();
        assert_eq!(s.label("path"), Some("a\\b\n\"c\""));
        assert_eq!(s.value, 3.0);
    }

    #[test]
    fn names_sanitize_to_prometheus_charset() {
        assert_eq!(sanitize_name("wal.appends"), "wal_appends");
        assert_eq!(sanitize_name("serve:request"), "serve:request");
        assert_eq!(sanitize_name("db.shard-busy"), "db_shard_busy");
        assert_eq!(sanitize_name("9lives"), "_lives");
    }

    #[test]
    fn split_series_key_inverts_series_key() {
        use crate::metrics::series_key;
        let key = series_key("msgs", &[("stack", "wsrf"), ("op", "get")]);
        let (name, labels) = split_series_key(&key);
        assert_eq!(name, "msgs");
        assert_eq!(labels, vec![("op", "get"), ("stack", "wsrf")]);
        assert_eq!(split_series_key("bare"), ("bare", vec![]));
    }

    #[test]
    fn render_emits_one_type_line_per_name() {
        let m = MetricsRegistry::new();
        m.inc("msgs", &[("stack", "wsrf")]);
        m.inc("msgs", &[("stack", "wxf")]);
        m.observe("lat", &[], SimDuration::from_micros(300));
        let mut snap = m.gather();
        snap.set_gauge("depth", &[], 5);
        let text = render(&snap);
        assert_eq!(text.matches("# TYPE msgs counter").count(), 1);
        assert_eq!(text.matches("# TYPE depth gauge").count(), 1);
        assert_eq!(text.matches("# TYPE lat histogram").count(), 1);
        assert!(text.contains("msgs{stack=\"wsrf\"} 1\n"));
        assert!(text.contains("msgs{stack=\"wxf\"} 1\n"));
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(exp.total("msgs"), 2.0);
        exp.check_histograms().unwrap();
    }

    #[test]
    fn histogram_renders_cumulative_buckets_inf_sum_count() {
        let m = MetricsRegistry::new();
        for us in [50u64, 90, 900, 2_000_000] {
            m.observe("lat", &[], SimDuration::from_micros(us));
        }
        let text = render(&m.gather());
        let exp = parse_exposition(&text).unwrap();
        exp.check_histograms().unwrap();
        assert_eq!(exp.get("lat_bucket", &[("le", "100")]).unwrap().value, 2.0);
        assert_eq!(exp.get("lat_bucket", &[("le", "1000")]).unwrap().value, 3.0);
        assert_eq!(exp.get("lat_bucket", &[("le", "+Inf")]).unwrap().value, 4.0);
        assert_eq!(exp.get("lat_count", &[]).unwrap().value, 4.0);
        assert_eq!(exp.get("lat_sum", &[]).unwrap().value, 2_001_040.0);
    }

    #[test]
    fn check_histograms_rejects_inconsistencies() {
        // +Inf smaller than an earlier bucket → not cumulative.
        let bad = "# TYPE h histogram\nh_bucket{le=\"100\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(parse_exposition(bad).unwrap().check_histograms().is_err());
        // _count disagrees with +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"100\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 9\n";
        assert!(parse_exposition(bad).unwrap().check_histograms().is_err());
        // Out-of-order le bounds.
        let bad = "# TYPE h histogram\nh_bucket{le=\"200\"} 1\nh_bucket{le=\"100\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        assert!(parse_exposition(bad).unwrap().check_histograms().is_err());
    }

    #[test]
    fn histogram_renders_with_exemplars() {
        let m = MetricsRegistry::new();
        let cell = m.histogram_cell("serve.request_wall_us", &[("listener", "main")]);
        let store = ExemplarStore::new();
        for us in [40u64, 800, 30_000] {
            cell.record(us);
        }
        store.note(30_000, 17);
        let mut snap = m.gather();
        snap.exemplars.insert(
            "serve.request_wall_us{listener=main}".to_owned(),
            store.snapshot(),
        );
        let text = render(&snap);
        assert!(text.contains("# TYPE serve_request_wall_us histogram"));
        assert!(text.contains(
            "serve_request_wall_us_bucket{listener=\"main\",le=\"50000\"} 3 # {seq=\"17\"} 30000\n"
        ));
        assert_eq!(text.matches(" # {seq=").count(), 1, "only the noted bucket");
        let exp = parse_exposition(&text).unwrap();
        exp.check_histograms().unwrap();
        assert_eq!(
            exp.get("serve_request_wall_us_count", &[("listener", "main")])
                .unwrap()
                .value,
            3.0
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("name 1.5\n").is_ok());
        assert!(parse_exposition("name{k=\"v\"} 2\n").is_ok());
        assert!(parse_exposition("name\n").is_err(), "no value");
        assert!(parse_exposition("na me 1\n").is_err(), "space in name");
        assert!(parse_exposition("name{k=v} 1\n").is_err(), "unquoted label");
        assert!(parse_exposition("name{k=\"v} 1\n").is_err(), "unterminated");
        assert!(parse_exposition("name xyz\n").is_err(), "bad value");
        assert!(parse_exposition("# TYPE h wat\n").is_err(), "bad type");
        assert!(
            parse_exposition("# TYPE h counter\n# TYPE h gauge\n").is_err(),
            "duplicate TYPE"
        );
        assert!(parse_exposition("# HELP anything goes here\nok 1\n").is_ok());
    }
}
