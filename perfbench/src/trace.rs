//! The benchmark's own tracer. Spans (name, start, end, parent, trace id)
//! wrap each call the traced replay makes into a layer; they are kept in
//! memory and written out as JSON lines when the run ends.
//!
//! Spans the program itself records while a wrapped call runs (captured
//! with `Telemetry::begin_capture` and stamped with the program's
//! monotonic wall clock) are imported under the wrapping span, so a
//! layer's self time — its duration minus its direct children's — covers
//! both kinds.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ogsa_telemetry::SpanRecord;

/// Which tracer recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Wrapped by the benchmark around a public call.
    Bench,
    /// Recorded by the program inside a wrapped call; `kind` is its
    /// `SpanKind` label.
    Program(&'static str),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: Cow<'static, str>,
    pub origin: Origin,
    /// Nanoseconds since the tracer's origin (bench spans) or since the
    /// program's wall-clock epoch (program spans).
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span store for one traced replay.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_id: u64,
    trace: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            trace: 0,
        }
    }

    /// A tracer that records nothing: the untraced twin of a replay runs
    /// the same code with this one.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new trace; spans entered from now on share its id.
    pub fn begin_trace(&mut self) {
        debug_assert!(self.open.is_empty(), "a trace is still open");
        self.trace += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        self.spans.push(Span {
            trace: self.trace,
            id,
            parent,
            name: Cow::Borrowed(name),
            origin: Origin::Bench,
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].dur_ns = self.now_ns() - self.spans[i].start_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Import program spans captured during the innermost open span: roots
    /// are re-parented under it, ids are renumbered into this tracer.
    pub fn import(&mut self, records: &[SpanRecord]) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let mut ids = HashMap::with_capacity(records.len());
        for r in records {
            ids.insert(r.id.0, self.next_id);
            self.next_id += 1;
        }
        for r in records {
            let (Some(start), Some(end)) = (r.wall_start_us, r.wall_end_us) else {
                continue;
            };
            self.spans.push(Span {
                trace: self.trace,
                id: ids[&r.id.0],
                parent: r.parent.and_then(|p| ids.get(&p.0).copied()).or(parent),
                name: Cow::Borrowed(r.name),
                origin: Origin::Program(r.kind.as_str()),
                start_ns: start * 1000,
                dur_ns: end.saturating_sub(start) * 1000,
            });
        }
    }

    /// Summed duration (ns) of spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Durations (ns) of spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Share of the time of root spans named `root` that their direct
    /// children cover: how much of a traced op the wrapped calls explain.
    pub fn coverage(&self, root: &str) -> f64 {
        let roots: HashMap<u64, u64> = self
            .spans
            .iter()
            .filter(|s| s.name == root && s.parent.is_none())
            .map(|s| (s.id, s.dur_ns))
            .collect();
        let total: u64 = roots.values().sum();
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| roots.contains_key(&p)))
            .map(|s| s.dur_ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            (covered as f64 / total as f64).min(1.0)
        }
    }

    /// Summed self time (ns) of spans for which `pred(span, parent)` holds.
    /// A span's self time is its duration minus its direct children's.
    pub fn self_where(&self, pred: impl Fn(&Span, Option<&Span>) -> bool) -> u64 {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_sum: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_sum.entry(p).or_default() += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| pred(s, s.parent.and_then(|p| by_id.get(&p).copied())))
            .map(|s| {
                s.dur_ns
                    .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0))
            })
            .sum()
    }

    /// Summed self time (ns) of the program's spans of the given
    /// `SpanKind`s.
    pub fn program_self(&self, kinds: &[&str]) -> u64 {
        self.self_where(|s, _| matches!(s.origin, Origin::Program(k) if kinds.contains(&k)))
    }

    /// Summed self time (ns) of spans named `name`.
    pub fn self_named(&self, name: &str) -> u64 {
        self.self_where(|s, _| s.name == name)
    }

    /// Summed duration (ns) of spans named `name` with no ancestor of the
    /// same name — nested calls of one layer are counted once.
    pub fn total_outermost(&self, name: &str) -> u64 {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                let mut p = s.parent.and_then(|p| by_id.get(&p));
                while let Some(span) = p {
                    if span.name == name {
                        return false;
                    }
                    p = span.parent.and_then(|q| by_id.get(&q));
                }
                true
            })
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let (origin, kind) = match s.origin {
                Origin::Bench => ("bench", "bench"),
                Origin::Program(k) => ("program", k),
            };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"origin\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace,
                s.id,
                parent,
                s.name,
                origin,
                kind,
                s.start_ns,
                s.start_ns + s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_coverage_counts_them() {
        let mut t = Tracer::new();
        t.begin_trace();
        t.enter("op");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let op_total = t.total("op");
        let op_self = t.self_named("op");
        assert!(op_self < op_total);
        assert_eq!(op_self + t.self_named("a") + t.self_named("b"), op_total);
        let cov = t.coverage("op");
        assert!(cov > 0.9 && cov <= 1.0, "coverage {cov}");
        assert!(t.spans.iter().all(|s| s.trace == 1));
    }
}
