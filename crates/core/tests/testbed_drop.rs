//! Dropping a testbed frees it: deployed services must not keep their
//! network, containers and databases alive, nor its one-way delivery
//! thread running.
//!
//! One test in this binary, so no other test's threads are counted.

use std::time::{Duration, Instant};

use ogsa_core::container::Testbed;
use ogsa_core::counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_core::gridbox::{GridScenario, TransferGrid, WsrfGrid};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::sim::SimDuration;
use ogsa_core::transport::WeakNetwork;

const WAIT: Duration = Duration::from_secs(5);
const ALICE: &str = "CN=alice,O=UVA-VO";

/// Live one-way delivery threads in this process (Linux: thread names
/// from procfs, truncated to 15 bytes).
#[cfg(target_os = "linux")]
fn delivery_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("ogsa-oneway"))
        .count()
}

#[cfg(not(target_os = "linux"))]
fn delivery_threads() -> usize {
    0
}

/// Deploy both counter stacks and one Grid-in-a-Box VO, drive each
/// through a notifying flow, and hand back only a weak network handle.
fn deploy_and_run(policy: SecurityPolicy, wsrf_vo: bool) -> WeakNetwork {
    let tb = Testbed::free();
    let container = tb.container("host-a", policy);
    let wsrf = WsrfCounter::deploy(&container);
    let wxf = TransferCounter::deploy(&container);
    let apis: Vec<Box<dyn CounterApi>> = vec![
        Box::new(wsrf.client(tb.client("host-b", ALICE, policy))),
        Box::new(wxf.client(tb.client("host-b", ALICE, policy))),
    ];
    for api in &apis {
        let counter = api.create().expect("create");
        let waiter = api.subscribe(&counter).expect("subscribe");
        api.set(&counter, 42).expect("set");
        assert_eq!(waiter.wait(WAIT).expect("notification"), 42);
        api.destroy(&counter).expect("destroy");
    }

    let (hosts, client) = (["site-a", "site-b"], tb.client("client-1", ALICE, policy));
    if wsrf_vo {
        let vo = WsrfGrid::deploy(&tb, policy, &hosts, &["blast"], &[ALICE]);
        run_job(&mut vo.scenario(client));
    } else {
        let vo = TransferGrid::deploy(&tb, policy, &hosts, &["blast"], &[ALICE]);
        run_job(&mut vo.scenario(client));
    }
    tb.network().downgrade()
}

fn run_job(s: &mut dyn GridScenario) {
    s.get_available_resource("blast").expect("discover");
    s.make_reservation().expect("reserve");
    s.upload_file("input.dat", 1024).expect("upload");
    s.instantiate_job(SimDuration::from_millis(50.0))
        .expect("start");
    assert_eq!(s.finish_job(WAIT).expect("finish"), 0);
    s.unreserve_resource().expect("unreserve");
}

#[test]
fn dropping_every_testbed_handle_frees_the_network_and_its_thread() {
    let before = delivery_threads();
    let nets = [
        deploy_and_run(SecurityPolicy::None, true),
        deploy_and_run(SecurityPolicy::X509Sign, false),
    ];
    for net in &nets {
        assert!(
            net.upgrade().is_none(),
            "a deployed testbed outlived its handles"
        );
    }
    let deadline = Instant::now() + WAIT;
    while delivery_threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        delivery_threads(),
        before,
        "one-way delivery threads leaked"
    );
}
