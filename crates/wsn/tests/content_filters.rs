//! Compiled content filters on the WSN fan-out path.
//!
//! The filtered resolve must deliver to exactly the subscriptions the
//! naive database scan (compile and evaluate every selector) accepts, in
//! the same order, at the topic-only resolve's virtual charge. Subscribe
//! faults a selector that does not compile (checked through the counter
//! service in `crates/counter/tests/both_stacks.rs`); one stored before
//! that check existed is re-indexed on restart and still never matches.

use ogsa_addressing::EndpointReference;
use ogsa_container::{Container, Testbed};
use ogsa_fanout::FanoutCosts;
use ogsa_security::SecurityPolicy;
use ogsa_wsn::base::SubscribeRequest;
use ogsa_wsn::manager::SubscriptionManagerService;
use ogsa_wsn::{Subscription, SubscriptionStore, TopicExpression, TopicPath};
use ogsa_xml::{Element, QName};
use proptest::prelude::*;

const MANAGER: &str = "/services/Pub/manager";

/// Selectors of every shape the table distinguishes: attribute equality
/// in both operand orders, the evaluator's general path, and invalid.
const SELECTORS: &[Option<&str>] = &[
    None,
    Some("/M[@k='v1']"),
    Some("/M['v2'=@k]"),
    Some("/N[@k='v1']"),
    Some("/M[newValue > 5]"),
    Some("not(/M[@k='v1'])"),
    Some("/M[@k!='v2']"),
    Some("//newValue"),
    Some("///bad"),
    Some("/M[@k='v1'"),
];

const TOPICS: &[&str] = &["a", "a/x", "a/*", "//x", "b", "*"];
const PATHS: &[&str] = &["a/x", "a/y", "b/x", "c"];

fn topic_expr(i: usize) -> TopicExpression {
    match TOPICS[i] {
        t @ ("a" | "b") => TopicExpression::simple(t),
        "a/x" => TopicExpression::concrete("a/x"),
        t => TopicExpression::full(t),
    }
}

/// One generated subscription: (topic index, selector index, paused).
type Spec = (usize, usize, bool);

fn arb_spec() -> impl Strategy<Value = Spec> {
    (0..TOPICS.len(), 0..SELECTORS.len(), any::<bool>())
}

/// One generated message: (root name, namespaced root, `k` value,
/// namespaced `k` value, newValue).
type Msg = (usize, bool, usize, usize, u32);

fn arb_msg() -> impl Strategy<Value = Msg> {
    (0usize..2, any::<bool>(), 0usize..3, 0usize..3, 0u32..10)
}

fn message((root, namespaced, k, xk, value): Msg) -> Element {
    let local = ["M", "N"][root];
    let name = if namespaced {
        QName::new("urn:example:counter", local)
    } else {
        QName::local(local)
    };
    let mut e = Element::new(name);
    // 0 = absent; the namespaced `x:k` shares the local name `k`.
    if k > 0 {
        e.set_attr("k", ["", "v1", "v2"][k]);
    }
    if xk > 0 {
        e.set_attr(QName::new("urn:example:x", "k"), ["", "v1", "v2"][xk]);
    }
    e.with_child(Element::text_element("newValue", value.to_string()))
}

/// Store `specs` as subscription documents (what an earlier run left in
/// the database), then deploy the manager, which re-indexes them.
fn restart_with(container: &Container, specs: &[Spec]) -> SubscriptionStore {
    let collection = container.db().collection(&format!("wsrf:{MANAGER}"));
    for (i, &(topic, selector, paused)) in specs.iter().enumerate() {
        let id = format!("sub-{i}");
        let sub = Subscription {
            id: id.clone(),
            consumer: EndpointReference::service("tcp://client/c"),
            topic: topic_expr(topic),
            selector: SELECTORS[selector].map(str::to_owned),
            paused,
            use_notify: true,
        };
        collection.insert(&id, sub.to_document()).unwrap();
    }
    SubscriptionManagerService::deploy_sharded(container, MANAGER, 4).1
}

fn ids(subs: &[Subscription]) -> Vec<&str> {
    subs.iter().map(|s| s.id.as_str()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filtered_resolve_equals_the_naive_scan(
        stored in proptest::collection::vec(arb_spec(), 0..24),
        fresh in proptest::collection::vec((0..TOPICS.len(), 0..8usize), 0..8),
        msgs in proptest::collection::vec((0..PATHS.len(), arb_msg()), 1..6),
    ) {
        let tb = Testbed::calibrated();
        let container = tb.container("host-a", SecurityPolicy::None);
        let store = restart_with(&container, &stored);
        let costs = FanoutCosts::from_model(tb.model());
        // Valid selectors also arrive through Subscribe, compiled there.
        let ctx = container.context_for(MANAGER);
        for (topic, selector) in fresh {
            let mut req = SubscribeRequest::new(
                EndpointReference::service("tcp://client/c"),
                topic_expr(topic),
            );
            if let Some(s) = SELECTORS[selector] {
                req = req.with_selector(s);
            }
            store.subscribe(&ctx, &req).unwrap();
        }
        for (path, msg) in msgs {
            let topic = TopicPath::parse(PATHS[path]).unwrap();
            let segs: Vec<&str> = topic.segments().iter().map(String::as_str).collect();
            let msg = message(msg);

            let before = tb.clock().now();
            let got = store.active_matching(&topic, &msg);
            let filtered_charge = tb.clock().now().since(before);

            let before = tb.clock().now();
            let topic_only = store.index().resolve(&segs);
            let resolve_charge = tb.clock().now().since(before);

            let want = store.active_matching_naive(&topic, &msg);
            prop_assert_eq!(ids(&got), ids(&want), "{:?} {:?}", topic, msg);
            prop_assert_eq!(filtered_charge, resolve_charge);
            // Every unpaused topic match is charged, filtered out or not.
            let candidates = store
                .index()
                .all()
                .iter()
                .filter(|(s, paused)| !paused && s.topic.matches(&topic))
                .count() as u64;
            prop_assert_eq!(topic_only.len() as u64, candidates);
            prop_assert_eq!(
                filtered_charge,
                costs.resolve_fixed + costs.per_candidate * candidates
            );
            prop_assert_eq!(
                store.has_active_matching(&topic),
                !topic_only.is_empty()
            );
        }
    }
}

#[test]
fn a_faulted_subscribe_leaves_no_document_and_no_index_entry() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    let store = restart_with(&container, &[]);
    let ctx = container.context_for(MANAGER);
    let req = SubscribeRequest::new(
        EndpointReference::service("tcp://client/c"),
        TopicExpression::simple("a"),
    )
    .with_selector("///bad");
    assert!(store.subscribe(&ctx, &req).is_err());
    assert_eq!(store.index().len(), 0);
    assert!(container
        .db()
        .collection(&format!("wsrf:{MANAGER}"))
        .is_empty());
    // The next good subscription is still numbered from zero.
    let ok = store
        .subscribe(&ctx, &req.clone().with_selector("/M[@k='v1']"))
        .unwrap();
    assert_eq!(ok.resource_id(), Some("sub-0"));
}

#[test]
fn a_stored_bad_selector_is_reindexed_but_never_matches() {
    let tb = Testbed::free();
    let container = tb.container("host-a", SecurityPolicy::None);
    // sub-0: no selector; sub-1: `///bad`, stored before Subscribe checked.
    let store = restart_with(&container, &[(0, 0, false), (0, 8, false)]);
    assert_eq!(store.index().len(), 2);
    let topic = TopicPath::parse("a/x").unwrap();
    let msg = message((0, false, 1, 0, 1));
    assert_eq!(ids(&store.active_matching(&topic, &msg)), ["sub-0"]);
    assert_eq!(ids(&store.active_matching_naive(&topic, &msg)), ["sub-0"]);
    assert_eq!(store.index().resolve(&["a", "x"]).len(), 2);
}
