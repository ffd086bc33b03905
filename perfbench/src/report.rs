//! Failure accounting and the run's output: a readable report of every
//! metric with its unit and sample count, then one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Why an attempted operation counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The HTTP status was not 200, or the connection broke.
    Status,
    /// A SOAP fault came back.
    Fault,
    /// The response signature did not verify.
    Signature,
    /// The response was not a parseable envelope.
    Garbled,
    /// A value differed from the per-counter model, or a response lacked
    /// the expected content.
    Value,
    /// A notification was missing or carried the wrong value.
    Notification,
    /// A job did not exit with its scripted code, or a job step failed.
    Job,
    /// The server counted fewer requests than the client sent.
    ServerCount,
}

impl Failure {
    const ALL: [Failure; 8] = [
        Failure::Status,
        Failure::Fault,
        Failure::Signature,
        Failure::Garbled,
        Failure::Value,
        Failure::Notification,
        Failure::Job,
        Failure::ServerCount,
    ];

    pub fn from_label(label: &str) -> Option<Failure> {
        Failure::ALL.into_iter().find(|f| f.label() == label)
    }

    pub fn label(self) -> &'static str {
        match self {
            Failure::Status => "status",
            Failure::Fault => "fault",
            Failure::Signature => "signature",
            Failure::Garbled => "garbled",
            Failure::Value => "value",
            Failure::Notification => "notification",
            Failure::Job => "job",
            Failure::ServerCount => "server_count",
        }
    }
}

/// Attempts and failures of one run (or one generator thread).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failures: BTreeMap<Failure, u64>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: Failure) {
        *self.failures.entry(why).or_default() += 1;
    }

    /// Count one attempt and, when `result` is an error, its failure.
    pub fn record<T>(&mut self, result: Result<T, Failure>) -> Option<T> {
        self.attempt();
        result.map_err(|f| self.fail(f)).ok()
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (k, v) in &other.failures {
            *self.failures.entry(*k).or_default() += v;
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing, when it is one.
    pub count: Option<usize>,
    /// What the figure is, when the name alone does not say.
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Sizes and settings of the run, printed as `key = value`.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        count: Option<usize>,
        note: &str,
    ) {
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            count,
            note: note.to_owned(),
        });
    }

    pub fn layer(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        count: Option<usize>,
        note: &str,
    ) {
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            count,
            note: note.to_owned(),
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// True when every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed() == 0
    }

    /// The readable report: sizes, failures by kind, then every metric.
    pub fn human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# workload {} seed {}", self.workload, self.seed);
        for (k, v) in &self.info {
            let _ = writeln!(s, "#   {k} = {v}");
        }
        let _ = writeln!(
            s,
            "#   attempted = {}, failed = {}",
            self.tally.attempted,
            self.tally.failed()
        );
        for (k, v) in &self.tally.failures {
            let _ = writeln!(s, "#   failed.{} = {v}", k.label());
        }
        for (section, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(s, "# {section}:");
            for m in metrics {
                let count = m.count.map_or(String::new(), |n| format!(" (n={n})"));
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  -- {}", m.note)
                };
                let _ = writeln!(
                    s,
                    "#   {:<32} {:>14.4} {:<6}{count}{note}",
                    m.name, m.value, m.unit
                );
            }
        }
        s
    }

    /// The one-line JSON result: end-to-end metrics, or per-layer ones
    /// when `traced`.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed()
        );
        for (i, m) in metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.record::<()>(Ok(())), Some(()));
        assert_eq!(t.record::<()>(Err(Failure::Signature)), None);
        assert_eq!(t.record::<()>(Err(Failure::Value)), None);
        assert_eq!((t.attempted, t.failed()), (3, 2));
        let mut r = Report {
            tally: t,
            ..Report::default()
        };
        r.e2e("op_p50_us", 12.5, "us", Some(3), "");
        assert!(!r.correct());
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
        assert!(line.contains("\"op_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
    }
}
