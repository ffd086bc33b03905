//! The eventing twin of the WSN filtered-resolve equivalence: `trigger`
//! evaluates each subscription's filter compiled once at Subscribe, and
//! must deliver to exactly the subscribers a compile-per-event reference
//! filter over the flat file accepts.

use std::collections::BTreeSet;
use std::time::Duration;

use ogsa_container::Testbed;
use ogsa_eventing::messages::{actions, SubscribeRequest};
use ogsa_eventing::{EventConsumer, EventSourceService};
use ogsa_security::SecurityPolicy;
use ogsa_xml::{Element, QName, XPath, XPathContext};
use proptest::prelude::*;

const FILTERS: &[Option<&str>] = &[
    None,
    Some("/CounterValueChanged[@counter='c1']"),
    Some("/CounterValueChanged['c2'=@counter]"),
    Some("/Other[@counter='c1']"),
    Some("/CounterValueChanged[newValue > 5]"),
    Some("not(/CounterValueChanged[@counter='c1'])"),
    Some("/CounterValueChanged[@counter!='c2']"),
];

/// (root name, namespaced root, `counter` value, newValue).
type Event = (usize, bool, usize, u32);

fn event((root, namespaced, counter, value): Event) -> Element {
    let local = ["CounterValueChanged", "Other"][root];
    let name = if namespaced {
        QName::new("urn:example:counter", local)
    } else {
        QName::local(local)
    };
    let mut e = Element::new(name);
    if counter > 0 {
        e.set_attr("counter", ["", "c1", "c2"][counter]);
    }
    e.with_child(Element::text_element("newValue", value.to_string()))
}

fn reference_accepts(filter: Option<&str>, event: &Element) -> bool {
    filter.is_none_or(|f| {
        XPath::compile(f)
            .and_then(|xp| xp.matches(event, &XPathContext::new()))
            .unwrap_or(false)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trigger_delivers_to_the_reference_filter_set(
        filters in proptest::collection::vec(0..FILTERS.len(), 0..12),
        events in proptest::collection::vec(
            (0usize..2, any::<bool>(), 0usize..3, 0u32..10),
            1..4,
        ),
    ) {
        let tb = Testbed::free();
        let container = tb.container("host-a", SecurityPolicy::None);
        let (source, notifier) = EventSourceService::deploy(&container, "/services/Events");
        let client = tb.client("client-1", "CN=alice", SecurityPolicy::None);
        let mut consumers = Vec::new();
        for (i, &f) in filters.iter().enumerate() {
            let consumer = EventConsumer::listen(&client, &format!("/events/{i}"));
            let mut req = SubscribeRequest::new(consumer.epr().clone());
            if let Some(f) = FILTERS[f] {
                req = req.with_filter(f);
            }
            client.invoke(&source, actions::SUBSCRIBE, req.to_element()).unwrap();
            consumers.push(consumer);
        }
        for ev in events {
            let ev = event(ev);
            let want: BTreeSet<usize> = filters
                .iter()
                .enumerate()
                .filter(|(_, &f)| reference_accepts(FILTERS[f], &ev))
                .map(|(i, _)| i)
                .collect();
            let matched: Vec<String> = notifier
                .index()
                .matching(&ev)
                .into_iter()
                .map(|s| s.id)
                .collect();
            let mut want_ids: Vec<String> = want.iter().map(|i| format!("es-{i}")).collect();
            want_ids.sort();
            prop_assert_eq!(matched, want_ids);

            prop_assert_eq!(notifier.trigger(ev.clone()), want.len());
            prop_assert!(tb.network().quiesce(Duration::from_secs(10)));
            let got: BTreeSet<usize> = consumers
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.drain().is_empty())
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, want, "{:?}", ev);
        }
    }
}
