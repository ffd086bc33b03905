//! `figures [name]`: the paper's virtual-time evaluation. With no name it
//! prints the whole evaluation in one run (what EXPERIMENTS.md reports);
//! with one it prints that figure alone, with the paper's commentary.

use ogsa_core::ablation::{self, Ablation};
use ogsa_core::comparison::Stack;
use ogsa_core::grid::{self, GridConfig, GridRow};
use ogsa_core::hello::{self, HelloConfig};
use ogsa_core::report;
use ogsa_core::security::SecurityPolicy;
use ogsa_core::transport::Deployment;

/// Every single-figure name `figures` accepts.
pub const NAMES: &str = "fig2|fig3|fig4|fig6|broker_messages|ablations";

/// The three hello-world figures: name, figure, caption, policy, and the
/// closing remark the single-figure form prints.
const HELLO: [(&str, &str, &str, SecurityPolicy, Option<&str>); 3] = [
    (
        "fig2",
        "Figure 2",
        "Testing \"Hello World\" with no security",
        SecurityPolicy::None,
        None,
    ),
    (
        "fig3",
        "Figure 3",
        "Testing \"Hello World\" over HTTPS",
        SecurityPolicy::Https,
        Some("socket/session caching keeps HTTPS near the unsecured numbers"),
    ),
    (
        "fig4",
        "Figure 4",
        "Testing \"Hello World\" with X.509 Signing",
        SecurityPolicy::X509Sign,
        Some("security processing dominates; stack differences fade percentage-wise"),
    ),
];

/// Print the evaluation, or the one figure `name`; false if there is no
/// such figure.
pub fn run(name: Option<&str>) -> bool {
    match name {
        None => all(),
        Some("fig6") => fig6(),
        Some("broker_messages") => broker_messages(),
        Some("ablations") => ablations(),
        Some(name) => match HELLO.iter().find(|h| h.0 == name) {
            Some(&(_, figure, caption, policy, remark)) => {
                hello_figure(figure, &format!("{caption} (ms per request)"), policy);
                if let Some(remark) = remark {
                    println!("  ({remark})");
                }
            }
            None => return false,
        },
    }
    true
}

/// One hello-world figure plus the who-wins summary the paper's text
/// draws from it.
fn hello_figure(figure: &str, caption: &str, policy: SecurityPolicy) {
    let rows = hello::run(HelloConfig {
        policy,
        iterations: 12,
    });
    println!(
        "{}",
        report::render_hello(&format!("{figure}: {caption}"), &rows)
    );
    let cell = |op, stack, dep| hello::cell(&rows, op, stack, dep).unwrap_or(f64::NAN);
    for dep in Deployment::all() {
        let set_gap = cell("Set", Stack::Transfer, dep) - cell("Set", Stack::Wsrf, dep);
        let notify_gap = cell("Notify", Stack::Wsrf, dep) - cell("Notify", Stack::Transfer, dep);
        println!(
            "  {}: WSRF.NET faster on Set by {:.1} ms (cache); WS-Eventing faster on Notify by {:.1} ms (TCP)",
            dep.label(),
            set_gap,
            notify_gap
        );
    }
}

fn grid_table() -> Vec<GridRow> {
    let rows = grid::run(GridConfig::default());
    println!(
        "{}",
        report::render_grid("Figure 6: Grid-in-a-Box Performance Comparison (ms)", &rows)
    );
    rows
}

fn mechanism_ablations() -> [Ablation; 3] {
    [
        ablation::resource_cache(12),
        ablation::tls_session_cache(12),
        ablation::notify_transport(12),
    ]
}

fn all() {
    println!("ogsa-grid: full evaluation regeneration\n");
    for (_, figure, caption, policy, _) in HELLO {
        hello_figure(figure, caption, policy);
        println!();
    }
    grid_table();
    println!("§3.1 demand-based broker message amplification");
    for consumers in [1, 2, 4] {
        println!(
            "  {}",
            report::render_broker(&ablation::broker_amplification(consumers))
        );
    }
    println!();
    println!("§4.1.3 mechanism ablations");
    for a in mechanism_ablations() {
        println!("  {}", report::render_ablation(&a));
    }
}

fn fig6() {
    let rows = grid_table();
    let wsrf_job = grid::cell(&rows, "Instantiate Job", Stack::Wsrf).unwrap();
    let wxf_job = grid::cell(&rows, "Instantiate Job", Stack::Transfer).unwrap();
    println!(
        "Instantiate Job: WSRF {:.0} ms vs WS-Transfer {:.0} ms ({:.2}x) — \"due to the design of its\n\
         services the WSRF implementation requires several more outcalls\"",
        wsrf_job,
        wxf_job,
        wsrf_job / wxf_job
    );
    println!(
        "Unreserve: WSRF {:.0} ms (automatic via ResourceLifetime), WS-Transfer {:.0} ms (manual Put)",
        grid::cell(&rows, "Unreserve Resource", Stack::Wsrf).unwrap(),
        grid::cell(&rows, "Unreserve Resource", Stack::Transfer).unwrap()
    );
}

/// The §3.1 estimate: "More messages are generated in response to a
/// demand based publisher scenario then in any other spec, by what we
/// estimate to be an order of magnitude at a minimum."
fn broker_messages() {
    println!("Demand-based brokered publishing vs direct subscription");
    println!("(messages on the wire for registration + subscribe + 1 event + teardown)\n");
    for consumers in [1, 2, 4, 8] {
        println!(
            "{}",
            report::render_broker(&ablation::broker_amplification(consumers))
        );
    }
    println!(
        "\nThe demand-based path touches up to six services (publisher, its\n\
         subscription manager, broker, broker's subscription manager, the\n\
         registration manager, and each consumer) — the §3.1 complexity claim."
    );
}

/// The §4.1.3 explanations: each design choice the paper credits,
/// toggled in isolation.
fn ablations() {
    println!("Mechanism ablations (virtual ms per operation)\n");
    for a in mechanism_ablations() {
        println!("{}", report::render_ablation(&a));
    }
    println!(
        "\nEach line isolates one claim: the write-through cache explains the Set gap,\n\
         session caching explains why Figure 3 ≈ Figure 2, and the TCP push path\n\
         explains WS-Eventing's Notify advantage."
    );
}
