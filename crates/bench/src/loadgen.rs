//! `loadgen`: socket-level load harness for the serving tier, written out
//! as `BENCH_serve.json`.
//!
//! Binds the real keep-alive TCP listener (`ogsa_serve::Server`) over a
//! span-quiet testbed, deploys the signed WS-Transfer counter, and drives
//! it with the built-in load generator in three shapes:
//!
//! 1. **Sustain** — `SUSTAIN_CONNECTIONS` concurrent keep-alive
//!    connections, closed loop. Gate: every connection establishes and no
//!    request errors.
//! 2. **Closed 32** — the acceptance comparison point. Gate: sustained rps
//!    within `MAX_RPS_RATIO`x of the in-process multi-client harness at
//!    the same client count, p99 under `P99_MAX_US`.
//! 3. **Open loop** — arrivals at a fixed fraction of the measured closed
//!    capacity, so the tail figures include queueing delay rather than
//!    just service time.
//!
//! Every request on the wire is a replay of one pre-signed envelope; the
//! server still verifies and re-signs per request, so the per-op crypto
//! cost matches the in-process harness's server side. Virtual-time
//! figures are untouched: the serving tier charges no simulated cost.

use std::process::ExitCode;
use std::time::Duration;

use ogsa_core::serve::{loadgen, LoadConfig, LoadMode, LoadReport, ServeConfig, Server};

use crate::fixtures::{in_process_throughput, load_json, run_load, SignedGet};
use crate::{write_artifact, Gates};

/// The headline concurrency claim: this many keep-alive connections held
/// open at once, all completing requests, none erroring.
const SUSTAIN_CONNECTIONS: usize = 1024;

/// Client count for the in-process comparison (matches the acceptance
/// figure in BENCH_throughput.json / BENCH_wallclock.json).
const COMPARE_CLIENTS: usize = 32;

/// The socket path may cost at most this factor versus the in-process
/// harness (i.e. serve rps must be at least in-process rps / 2).
const MAX_RPS_RATIO: f64 = 2.0;

/// p99 ceiling for the 32-connection closed loop. Generous: CI hosts can
/// be single-core and heavily shared, and 32 concurrent signed requests
/// queue behind one another there.
const P99_MAX_US: u64 = 1_000_000;

/// Fraction of measured closed-loop capacity to offer in the open-loop
/// run — below saturation, so the tail reflects queueing, not collapse.
const OPEN_LOAD_FACTOR: f64 = 0.6;

fn report_json(name: &str, r: &LoadReport) -> String {
    let extra = format!(
        "\"connections\":{},\"established\":{},\"elapsed_ms\":{:.1},",
        r.connections_requested,
        r.connections_established,
        r.elapsed.as_secs_f64() * 1_000.0,
    );
    load_json(name, &extra, r)
}

fn print_report(name: &str, r: &LoadReport) {
    println!(
        "  {name:<10} {:>5}/{:<5} conns  {:>8} reqs  {:>3} errs  {:>9.0} rps  p50 {:>6}us  p99 {:>7}us  p999 {:>7}us",
        r.connections_established,
        r.connections_requested,
        r.requests,
        r.errors,
        r.rps,
        r.p50_us,
        r.p99_us,
        r.p999_us,
    );
}

pub fn run(out_dir: &str) -> ExitCode {
    let get = SignedGet::new("CN=loadgen,O=VO", 42);

    let granted = loadgen::raise_nofile_limit((SUSTAIN_CONNECTIONS as u64) * 2 + 64);
    if granted < (SUSTAIN_CONNECTIONS as u64) + 32 {
        eprintln!("loadgen: fd limit {granted} too low for {SUSTAIN_CONNECTIONS} connections");
        return ExitCode::FAILURE;
    }

    let mut server =
        Server::bind(get.tb.network(), ServeConfig::default()).expect("bind serving tier");
    let base = get.closed_loop(
        server.addr(),
        0,
        Duration::from_secs(2),
        Duration::from_millis(500),
    );

    println!(
        "serve loadgen (signed WS-Transfer Get, {} workers)",
        ServeConfig::default().workers
    );

    // Shape 1: hold SUSTAIN_CONNECTIONS keep-alive connections open.
    let sustain = run_load(&LoadConfig {
        connections: SUSTAIN_CONNECTIONS,
        ..base.clone()
    });
    print_report("sustain", &sustain);

    // Shape 2: the acceptance comparison point.
    let closed32 = run_load(&LoadConfig {
        connections: COMPARE_CLIENTS,
        ..base.clone()
    });
    print_report("closed-32", &closed32);

    // Shape 3: open loop below saturation for honest tail figures.
    let open_rps = (closed32.rps * OPEN_LOAD_FACTOR).max(100.0);
    let open = run_load(&LoadConfig {
        connections: COMPARE_CLIENTS * 2,
        mode: LoadMode::Open { rps: open_rps },
        ..base.clone()
    });
    print_report("open-loop", &open);

    // In-process comparison figure: the multi-client throughput harness at the
    // same client count, measured on the host clock in this process.
    let (in_process_requests, wall) = in_process_throughput(COMPARE_CLIENTS);
    let in_process_rps = in_process_requests as f64 / wall.as_secs_f64();
    println!(
        "  in-process {COMPARE_CLIENTS} clients: {in_process_requests} reqs in {:.0}ms = {in_process_rps:.0} rps",
        wall.as_secs_f64() * 1_000.0
    );

    let rps_ratio = in_process_rps / closed32.rps.max(1e-9);
    let sustained = sustain.connections_established == SUSTAIN_CONNECTIONS;
    let errors = sustain.errors + closed32.errors + open.errors;
    let panics = server.stats().dispatch_panics();
    let mut gates = Gates::new("serve gate");
    gates
        .check("sustained", sustained)
        .check("zero_errors", errors == 0)
        .check("rps_ratio_within_max", rps_ratio <= MAX_RPS_RATIO)
        .check("p99_under_max", closed32.p99_us <= P99_MAX_US)
        .check("zero_dispatch_panics", panics == 0);

    let json = format!(
        "{{\"benchmark\":\"serve\",\"workload\":\"signed transfer get\",\"policy\":\"x509\",{},{},{},\"open_loop_offered_rps\":{:.1},\"in_process\":{{\"clients\":{},\"requests\":{},\"real_elapsed_ms\":{:.1},\"real_rps\":{:.1}}},\"server\":{{\"accepted\":{},\"requests\":{},\"http_errors\":{},\"dispatch_panics\":{}}},\"gate\":{{\"sustain_connections\":{},\"sustained\":{},\"errors\":{},\"max_rps_ratio\":{},\"rps_ratio\":{:.3},\"p99_max_us\":{},\"p99_us\":{},\"pass\":{}}}}}\n",
        report_json("sustain", &sustain),
        report_json("closed_32", &closed32),
        report_json("open_loop", &open),
        open_rps,
        COMPARE_CLIENTS,
        in_process_requests,
        wall.as_secs_f64() * 1_000.0,
        in_process_rps,
        server.stats().accepted(),
        server.stats().requests(),
        server.stats().http_errors(),
        panics,
        SUSTAIN_CONNECTIONS,
        sustained,
        errors,
        MAX_RPS_RATIO,
        rps_ratio,
        P99_MAX_US,
        closed32.p99_us,
        gates.pass(),
    );
    write_artifact(out_dir, "BENCH_serve.json", &json);
    server.shutdown();
    gates.finish()
}
