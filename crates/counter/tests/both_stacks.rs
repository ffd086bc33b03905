//! The "hello world" evaluation scenario, functionally: both stacks run the
//! same five operations under every security policy and both deployments.

use std::time::Duration;

use ogsa_addressing::EndpointReference;
use ogsa_container::{InvokeError, Testbed};
use ogsa_counter::wsrf_counter::VALUE_CHANGED_TOPIC;
use ogsa_counter::{CounterApi, TransferCounter, WsrfCounter};
use ogsa_security::SecurityPolicy;
use ogsa_wsn::base::{actions, SubscribeRequest};
use ogsa_wsn::TopicExpression;

const WAIT: Duration = Duration::from_secs(3);

fn clients(tb: &Testbed, policy: SecurityPolicy, client_host: &str) -> Vec<Box<dyn CounterApi>> {
    let container = tb.container("host-a", policy);
    let wsrf = WsrfCounter::deploy(&container);
    let transfer = TransferCounter::deploy(&container);
    vec![
        Box::new(wsrf.client(tb.client(client_host, "CN=alice,O=VO", policy))),
        Box::new(transfer.client(tb.client(client_host, "CN=alice,O=VO", policy))),
    ]
}

fn exercise(api: &dyn CounterApi) {
    let c = api.create().expect("create");
    assert_eq!(api.get(&c).expect("get"), 0);
    api.set(&c, 41).expect("set");
    assert_eq!(api.get(&c).unwrap(), 41);

    // Subscribe, then set: the notification must arrive with the new value.
    let waiter = api.subscribe(&c).expect("subscribe");
    api.set(&c, 42).expect("set after subscribe");
    assert_eq!(waiter.wait(WAIT), Some(42), "{}", api.stack_name());

    api.destroy(&c).expect("destroy");
    assert!(api.get(&c).is_err(), "destroyed counter must be gone");
}

#[test]
fn all_six_scenarios_functionally_equivalent() {
    // The paper's six scenarios: 3 security policies × 2 deployments —
    // and the core finding: "overwhelmingly equivalent in functionality".
    for policy in SecurityPolicy::all() {
        for client_host in ["host-a", "host-b"] {
            let tb = Testbed::free();
            for api in clients(&tb, policy, client_host) {
                exercise(api.as_ref());
            }
        }
    }
}

#[test]
fn counters_are_independent_resources() {
    let tb = Testbed::free();
    for api in clients(&tb, SecurityPolicy::None, "host-b") {
        let a = api.create().unwrap();
        let b = api.create().unwrap();
        api.set(&a, 10).unwrap();
        api.set(&b, 20).unwrap();
        assert_eq!(api.get(&a).unwrap(), 10);
        assert_eq!(api.get(&b).unwrap(), 20);
        api.destroy(&a).unwrap();
        assert_eq!(api.get(&b).unwrap(), 20, "{}", api.stack_name());
    }
}

#[test]
fn notification_is_per_counter() {
    let tb = Testbed::free();
    for api in clients(&tb, SecurityPolicy::None, "host-b") {
        let watched = api.create().unwrap();
        let other = api.create().unwrap();
        let waiter = api.subscribe(&watched).unwrap();
        // A change to the *other* counter must not reach this subscriber.
        api.set(&other, 99).unwrap();
        assert_eq!(waiter.wait(Duration::from_millis(200)), None);
        api.set(&watched, 7).unwrap();
        assert_eq!(waiter.wait(WAIT), Some(7), "{}", api.stack_name());
    }
}

#[test]
fn wsrf_set_uses_cache_transfer_put_rereads() {
    // The §4.1.3 mechanism behind the Set difference, asserted on database
    // counters rather than time.
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let wsrf = WsrfCounter::deploy(&container);
    let transfer = TransferCounter::deploy(&container);
    let wsrf_client = wsrf.client(tb.client("host-b", "CN=a", SecurityPolicy::None));
    let transfer_client = transfer.client(tb.client("host-b", "CN=a", SecurityPolicy::None));

    let stats = tb.db("host-a").stats().clone();

    let c1 = CounterApi::create(&wsrf_client).unwrap();
    let hits_before = stats.cache_hits();
    wsrf_client.set(&c1, 5).unwrap();
    // WSRF's load-before-method came from the write-through cache.
    assert!(stats.cache_hits() > hits_before);

    let c2 = CounterApi::create(&transfer_client).unwrap();
    let reads_before = stats.reads();
    transfer_client.set(&c2, 5).unwrap();
    // WS-Transfer's Put re-read the old representation from the database.
    assert!(stats.reads() > reads_before);
}

#[test]
fn notify_latency_tcp_beats_http_under_calibrated_costs() {
    // Figure 2's Notify gap: "considerably better for the WS-Eventing
    // implementation ... because of the TCP vs. HTTP issue."
    let tb = Testbed::calibrated();
    let container = tb.container("host-a", SecurityPolicy::None);
    let wsrf = WsrfCounter::deploy(&container);
    let transfer = TransferCounter::deploy(&container);

    let measure = |api: &dyn CounterApi| -> f64 {
        let c = api.create().unwrap();
        let waiter = api.subscribe(&c).unwrap();
        // Warm the notification path once (connection setup).
        api.set(&c, 1).unwrap();
        waiter.wait(WAIT).unwrap();
        let start = tb.clock().now();
        api.set(&c, 2).unwrap();
        waiter.wait(WAIT).unwrap();
        tb.clock().now().since(start).as_millis()
    };

    let wsrf_ms = measure(&wsrf.client(tb.client("host-b", "CN=a", SecurityPolicy::None)));
    let wse_ms = measure(&transfer.client(tb.client("host-b", "CN=a", SecurityPolicy::None)));
    assert!(
        wse_ms < wsrf_ms,
        "WS-Eventing notify ({wse_ms} ms) should beat WS-Notification ({wsrf_ms} ms)"
    );
}

#[test]
fn create_many_yields_independent_counters_on_both_stacks() {
    // WSRF.NET answers through its batch WebMethod; WS-Transfer has no batch
    // Create on the wire and falls back to the single-create loop — both must
    // produce N fully independent resources.
    let tb = Testbed::free();
    for api in clients(&tb, SecurityPolicy::None, "host-b") {
        let eprs = api.create_many(5).expect("create_many");
        assert_eq!(eprs.len(), 5, "{}", api.stack_name());
        for (i, epr) in eprs.iter().enumerate() {
            api.set(epr, i as i64 * 10).unwrap();
        }
        for (i, epr) in eprs.iter().enumerate() {
            assert_eq!(api.get(epr).unwrap(), i as i64 * 10, "{}", api.stack_name());
        }
        api.destroy(&eprs[0]).unwrap();
        assert!(api.get(&eprs[0]).is_err());
        assert_eq!(api.get(&eprs[1]).unwrap(), 10, "{}", api.stack_name());
    }
}

#[test]
fn wsrf_batch_create_amortises_and_leaves_single_create_cost_alone() {
    let tb = Testbed::calibrated();
    let container = tb.container("host-a", SecurityPolicy::None);
    let wsrf = WsrfCounter::deploy(&container);
    let api = wsrf.client(tb.client("host-b", "CN=a", SecurityPolicy::None));

    // Warm the connection so TLS/TCP setup does not pollute the comparison.
    let warm = CounterApi::create(&api).unwrap();
    api.destroy(&warm).unwrap();

    const N: usize = 10;
    let t0 = tb.clock().now();
    for _ in 0..N {
        CounterApi::create(&api).unwrap();
    }
    let singles = tb.clock().now().since(t0);

    let t0 = tb.clock().now();
    let eprs = api.create_many(N).unwrap();
    let batch = tb.clock().now().since(t0);
    assert_eq!(eprs.len(), N);

    assert!(
        batch.as_micros() * 2 < singles.as_micros(),
        "batch create ({batch:?}) should amortise well below {N} singles ({singles:?})"
    );

    // The batch path must not have changed what a lone create costs: it still
    // pays the full per-transaction insert price.
    let t0 = tb.clock().now();
    let one = CounterApi::create(&api).unwrap();
    let single_after = tb.clock().now().since(t0);
    assert!(api.get(&one).is_ok());
    assert!(
        single_after.as_micros() * (N as u64) >= batch.as_micros(),
        "a single create ({single_after:?}) must not be cheaper than its share of the batch"
    );
    assert!(
        single_after.as_micros() >= tb.model().db_insert_us,
        "single create must still pay the full insert cost"
    );
}

#[test]
fn wsrf_subscribe_faults_a_selector_that_does_not_compile() {
    // WS-BaseNotification's InvalidMessageContentExpressionFault, raised
    // at Subscribe (WS-Eventing's `invalid filter` twin), not a
    // subscription that silently never matches.
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let counter = WsrfCounter::deploy(&container);
    let client = tb.client("host-b", "CN=alice,O=VO", SecurityPolicy::None);
    let req = SubscribeRequest::new(
        EndpointReference::service("tcp://host-b/consumer"),
        TopicExpression::concrete(VALUE_CHANGED_TOPIC),
    )
    .with_selector("///bad");
    match client.invoke(&counter.service_epr, actions::SUBSCRIBE, req.to_element()) {
        Err(InvokeError::Fault(f)) => assert!(
            f.reason.contains("InvalidMessageContentExpressionFault"),
            "{f}"
        ),
        other => panic!("Subscribe with `///bad` must fault, got {other:?}"),
    }
}
