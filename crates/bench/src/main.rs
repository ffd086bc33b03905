//! `ogsa-bench <subcommand> [arg]`: the paper's figures and the CI bench
//! gates (see the crate docs for the subcommand table).

use std::process::ExitCode;

use ogsa_bench::{figures, GATES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, arg) = (
        args.first().map(String::as_str),
        args.get(1).map(String::as_str),
    );
    if name == Some("figures") && figures::run(arg) {
        return ExitCode::SUCCESS;
    }
    if let Some((_, run)) = GATES.iter().find(|(gate, _)| Some(*gate) == name) {
        return run(arg.unwrap_or("."));
    }
    let gates: Vec<&str> = GATES.iter().map(|(gate, _)| *gate).collect();
    eprintln!(
        "ogsa-bench: unknown arguments {args:?}\n\
         usage: ogsa-bench figures [{}]\n       \
         ogsa-bench {{{}}} [out-dir]",
        figures::NAMES,
        gates.join("|")
    );
    ExitCode::from(2)
}
