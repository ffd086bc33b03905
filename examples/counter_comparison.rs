//! The paper's §4.1 evaluation in miniature: run the "hello world" counter
//! sweep under all three security policies and print Figure-2/3/4-shaped
//! tables.
//!
//! ```text
//! cargo run --release --example counter_comparison
//! ```
//!
//! (The full-resolution figures come from `ogsa-bench`:
//! `cargo run --release -p ogsa-bench -- figures fig2` etc.)

use ogsa_grid::hello::{run, HelloConfig};
use ogsa_grid::report::render_hello;
use ogsa_grid::security::SecurityPolicy;

fn main() {
    for (title, policy) in [
        (
            "Figure 2: Testing \"Hello World\" with no security",
            SecurityPolicy::None,
        ),
        (
            "Figure 3: Testing \"Hello World\" over HTTPS",
            SecurityPolicy::Https,
        ),
        (
            "Figure 4: Testing \"Hello World\" with X.509 Signing",
            SecurityPolicy::X509Sign,
        ),
    ] {
        let rows = run(HelloConfig {
            policy,
            iterations: 6,
        });
        println!("{}", render_hello(title, &rows));
    }

    println!("Reading the tables against the paper's findings:");
    println!(" * both stacks are comparable; WSRF.NET slightly faster (cache, optimisation)");
    println!(" * Create is the slowest CRUD op (Xindice insert)");
    println!(" * Notify favours WS-Eventing (TCP push vs HTTP delivery)");
    println!(" * X.509 signing dominates everything and flattens the differences");
}
