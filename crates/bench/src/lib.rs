//! # ogsa-bench
//!
//! Regenerates every quantitative result in the paper and runs the CI
//! bench gates, all through one binary:
//!
//! | `cargo run --release -p ogsa-bench -- …` | output |
//! |---|---|
//! | `figures` | Figures 2, 3, 4, 6, the §3.1 broker estimate and the §4.1.3 ablations, one run |
//! | `figures fig2` / `fig3` / `fig4` | Figure 2 (no security) / 3 (HTTPS) / 4 (X.509 signing) |
//! | `figures fig6` | Figure 6 (Grid-in-a-Box) |
//! | `figures broker_messages` | §3.1 demand-based message estimate |
//! | `figures ablations` | §4.1.3 mechanism claims |
//! | `bench [dir]` | traced component breakdowns → `BENCH_counter/gridbox/trace.json` |
//! | `throughput [dir]` | client × shard scaling sweep → `BENCH_throughput.json` |
//! | `wallclock [dir]` | wire fast path vs in-process baseline → `BENCH_wallclock.json` |
//! | `loadgen [dir]` | real-socket serving tier → `BENCH_serve.json` |
//! | `durability [dir]` | WAL crash sweep, recovery, fsync policies → `BENCH_durability.json` |
//! | `obs [dir]` | observability overhead and fidelity → `BENCH_obs.json` |
//! | `replication [dir]` | failover sweep and catch-up → `BENCH_replication.json` |
//! | `fanout [dir]` | topic trie, shard scaling, batching → `BENCH_fanout.json` |
//!
//! Every gate subcommand writes its artifacts into `dir` (default `.`)
//! and exits nonzero when one of its gates fails. Per-layer wall time
//! for the paper's operations comes from the standalone `perfbench`
//! package (`--trace 1`).

use std::process::ExitCode;

pub mod bench;
pub mod durability;
pub mod fanout;
pub mod figures;
pub mod fixtures;
pub mod loadgen;
pub mod obs;
pub mod replication;
pub mod throughput;
pub mod wallclock;

/// A gate subcommand's entry point; it takes the output directory.
pub type Gate = fn(&str) -> ExitCode;

/// Every gate subcommand, by name.
pub const GATES: [(&str, Gate); 8] = [
    ("bench", bench::run),
    ("throughput", throughput::run),
    ("wallclock", wallclock::run),
    ("loadgen", loadgen::run),
    ("durability", durability::run),
    ("obs", obs::run),
    ("replication", replication::run),
    ("fanout", fanout::run),
];

/// A named set of pass/fail checks: renders the `"gates"` JSON array,
/// prints the verdict line, and turns the verdict into an exit code.
pub struct Gates {
    label: &'static str,
    checks: Vec<(String, bool)>,
}

impl Gates {
    /// An empty set; `label` heads the verdict line (`"{label}: all hold"`).
    pub fn new(label: &'static str) -> Self {
        Gates {
            label,
            checks: Vec::new(),
        }
    }

    /// One failing check per reported violation.
    pub fn violations(label: &'static str, violations: &[String]) -> Self {
        let mut gates = Gates::new(label);
        for v in violations {
            gates.check(v.clone(), false);
        }
        gates
    }

    pub fn check(&mut self, name: impl Into<String>, pass: bool) -> &mut Self {
        self.checks.push((name.into(), pass));
        self
    }

    /// True when every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|(_, pass)| *pass)
    }

    /// `"gates":[{"name":…,"pass":…},…]`.
    pub fn json(&self) -> String {
        let gates = json_array(&self.checks, |(name, pass)| {
            format!("{{\"name\":{},\"pass\":{pass}}}", json_string(name))
        });
        format!("\"gates\":{gates}")
    }

    /// Print every check and the verdict (failing checks again on stderr)
    /// and return the exit code CI gates on.
    pub fn finish(&self) -> ExitCode {
        for (name, pass) in &self.checks {
            println!("  {} {name}", if *pass { "pass" } else { "FAIL" });
        }
        if self.pass() {
            println!("{}: all hold", self.label);
            return ExitCode::SUCCESS;
        }
        eprintln!("{} REGRESSED:", self.label);
        for (name, _) in self.checks.iter().filter(|(_, pass)| !pass) {
            eprintln!("  - {name}");
        }
        ExitCode::FAILURE
    }
}

/// Write one artifact into `out_dir` (created if missing) and say so.
pub fn write_artifact(out_dir: &str, name: &str, contents: &str) {
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| panic!("mkdir {out_dir}: {e}"));
    let path = format!("{out_dir}/{name}");
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// `[…]`: one JSON element per item.
pub fn json_array<T>(items: &[T], element: impl Fn(&T) -> String) -> String {
    format!(
        "[{}]",
        items.iter().map(element).collect::<Vec<_>>().join(",")
    )
}

/// A quoted, escaped JSON string.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", ogsa_core::telemetry::export::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_gate_renders_false_and_fails_the_exit_code() {
        let mut gates = Gates::new("unit gates");
        gates.check("holds", true).check("regressed", false);
        assert!(!gates.pass());
        assert_eq!(
            gates.json(),
            "\"gates\":[{\"name\":\"holds\",\"pass\":true},{\"name\":\"regressed\",\"pass\":false}]"
        );
        assert_eq!(gates.finish(), ExitCode::FAILURE);
    }
}
