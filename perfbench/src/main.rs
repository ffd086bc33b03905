//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <counter-read|counter-write-notify|gridbox-jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the paper's operations on both stacks (WSRF/WS-Notification and
//! WS-Transfer/WS-Eventing) with X.509 signing, checks every output, and
//! prints a readable report followed by one JSON line. With `--trace 0`
//! the JSON carries the end-to-end metrics of an untraced run; with
//! `--trace 1` the same untraced run is followed by a traced replay and
//! the JSON carries the per-layer metrics. Exits nonzero when any check
//! failed.

mod counter;
mod gridbox;
mod report;
mod rng;
mod stats;
mod sys;
mod trace;
mod wire;

use report::Report;

/// Where traced runs write their spans, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Live subscriptions in the shared fan-out tables, `[wsn, eventing]`,
/// from the registry's scrape-time `wsn.subscribers` gauges.
pub fn subscribers(tel: &ogsa_telemetry::Telemetry) -> [u64; 2] {
    let snap = tel.metrics().gather();
    ["wsn", "eventing"].map(|stack| {
        let label = format!("stack={stack}");
        snap.gauges
            .iter()
            .filter(|(k, _)| k.starts_with("wsn.subscribers{") && k.contains(&label))
            .map(|(_, v)| *v)
            .sum()
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one gridbox-jobs round and print it (the workload
    /// runs each round in a process of its own).
    round: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--round" => args.round = Some(value.parse().map_err(bad)?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for --trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(round) = args.round {
        gridbox::child_round(args.seed, round);
        return;
    }
    let mut report = Report {
        workload: args.workload.clone(),
        seed: args.seed,
        ..Report::default()
    };
    report.info("nproc", sys::nproc());
    report.info("run_seconds", args.seconds);
    match args.workload.as_str() {
        "counter-read" => counter::run(
            counter::Kind::Read,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "counter-write-notify" => counter::run(
            counter::Kind::WriteNotify,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "gridbox-jobs" => gridbox::run(args.seed, args.seconds, args.trace, &mut report),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    print!("{}", report.human());
    println!("{}", report.json(args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
