//! `throughput`: the multi-client closed-loop sweep over client count ×
//! storage shard count, per stack, written to `BENCH_throughput.json`.
//!
//! Fails if the scaling invariant regressed — for the counter workload at
//! ≥ 8 clients, requests per virtual second must be non-decreasing in the
//! shard count and strictly better at the largest shard count than at
//! the smallest, for both stacks.

use std::process::ExitCode;

use ogsa_core::throughput::{self, ThroughputConfig};

use crate::{json_array, json_string, write_artifact, Gates};

pub fn run(out_dir: &str) -> ExitCode {
    let config = ThroughputConfig::default();
    let rows = throughput::run(&config);
    let violations = throughput::check_scaling_invariants(&rows);

    println!(
        "{:<8} {:<26} {:>7} {:>6} {:>8} {:>12} {:>12} {:>10}",
        "workload", "stack", "clients", "shards", "requests", "demand ms", "busy ms", "rps"
    );
    for r in &rows {
        println!(
            "{:<8} {:<26} {:>7} {:>6} {:>8} {:>12.1} {:>12.1} {:>10.1}",
            r.workload,
            r.stack.label(),
            r.clients,
            r.shards,
            r.requests,
            r.max_client_demand_ms,
            r.max_shard_busy_ms,
            r.rps
        );
    }

    let json = format!(
        "{{\"benchmark\":\"throughput\",\"iterations\":{},\"model\":\"makespan\",\"rows\":{},\"invariant_violations\":{}}}\n",
        config.iterations,
        throughput::rows_json(&rows),
        json_array(&violations, |v| json_string(v))
    );
    write_artifact(out_dir, "BENCH_throughput.json", &json);
    Gates::violations("scaling invariants", &violations).finish()
}
