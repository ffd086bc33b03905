//! WS-Eventing's side of the shared fan-out core — with the honest
//! accounting the cross-stack comparison depends on.
//!
//! WS-Eventing has **no topic space**: a subscription attaches to the whole
//! event source, filtered only by an optional XPath over the message. Every
//! entry therefore registers [`CompiledTopic::match_all`] and lands on the
//! sharded table's *wildcard shard* — this stack gets none of WSN's
//! shard-scaling benefit, exactly as the real protocol wouldn't. The flat
//! XML file stays the charged store of record for subscribe/renew/
//! unsubscribe; the index only replaces the per-trigger *re-parse* of that
//! file with a cache-hit-priced resolve.
//!
//! Expiry is watermarked: a min-heap of `(expires, id)` lets `trigger`
//! skip the charged purge entirely until some subscription is actually due
//! — and when one is, it is evicted from the index (and its parked batches
//! discarded) *at expiry*, never lazily.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ogsa_fanout::{CompiledTopic, ContentFilter, FanoutCosts, FanoutStats, ShardedTable};
use ogsa_sim::{CostModel, SimInstant, VirtualClock};
use ogsa_telemetry::Telemetry;
use ogsa_xml::Element;
use parking_lot::Mutex;

use crate::store::EventSubscription;

/// Notified when a subscription leaves the index for good (expiry or
/// `Unsubscribe`): the notification manager's deliverer discards parked
/// batches, etc.
pub type EvictHook = Arc<dyn Fn(&str) + Send + Sync>;

/// The one topic path every WS-Eventing resolve walks (entries are all
/// match-all).
const EVENT_PATH: &[&str] = &["event"];

/// Min-heap of `(expires_micros, sub_id)` — the earliest-due entry on top.
type ExpiryHeap = BinaryHeap<Reverse<(u64, String)>>;

/// The in-memory fan-out index kept in lock-step with the flat XML file.
#[derive(Clone)]
pub struct EventIndex {
    table: Arc<ShardedTable<EventSubscription>>,
    /// Min-heap expiry watermark; entries may be stale after a `Renew`
    /// (the renewed time is pushed alongside), so popping one only says
    /// "a purge *might* find something", never the reverse.
    expiries: Arc<Mutex<ExpiryHeap>>,
    evict_hooks: Arc<Mutex<Vec<EvictHook>>>,
}

impl EventIndex {
    pub fn new(clock: VirtualClock, model: &CostModel, tel: &Telemetry) -> Self {
        let table = Arc::new(ShardedTable::new(
            1,
            clock,
            FanoutCosts::from_model(model),
            tel.clone(),
            "eventing",
        ));
        table.stats().register_gauges(tel, "eventing");
        EventIndex {
            table,
            expiries: Arc::new(Mutex::new(BinaryHeap::new())),
            evict_hooks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A free, untelemetered index for tests.
    pub fn free() -> Self {
        EventIndex {
            table: Arc::new(ShardedTable::free(1, "eventing")),
            expiries: Arc::new(Mutex::new(BinaryHeap::new())),
            evict_hooks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn on_evict(&self, hook: EvictHook) {
        self.evict_hooks.lock().push(hook);
    }

    /// Index a subscription with its compiled filter (the one Subscribe
    /// validated).
    pub fn insert(&self, sub: EventSubscription, filter: ContentFilter) {
        if let Some(t) = sub.expires {
            self.expiries.lock().push(Reverse((t.0, sub.id.clone())));
        }
        self.table
            .insert(sub, CompiledTopic::match_all(), filter, false);
    }

    /// Renewals: replace the indexed payload and re-arm the watermark.
    pub fn update(&self, sub: EventSubscription) -> bool {
        if let Some(t) = sub.expires {
            self.expiries.lock().push(Reverse((t.0, sub.id.clone())));
        }
        self.table.update(sub)
    }

    /// Evict a subscription and notify hooks (expiry and `Unsubscribe`).
    pub fn evict(&self, id: &str) -> bool {
        let removed = self.table.remove(id);
        if removed {
            for hook in self.evict_hooks.lock().iter() {
                hook(id);
            }
        }
        removed
    }

    /// Has any watermarked expiry passed? Pops everything due, so a `true`
    /// answer must be followed by a purge against the store of record.
    pub fn expiry_due(&self, now: SimInstant) -> bool {
        let mut heap = self.expiries.lock();
        let mut due = false;
        while matches!(heap.peek(), Some(Reverse((t, _))) if *t <= now.0) {
            heap.pop();
            due = true;
        }
        due
    }

    /// The live subscriptions whose compiled filter passes `event`,
    /// sorted by id — one wildcard-shard trie walk priced at a cache hit
    /// per live subscription (filtered or not), replacing the seed's full
    /// flat-file re-parse per trigger, and cloning only the matches.
    pub fn matching(&self, event: &Element) -> Vec<EventSubscription> {
        self.table.resolve_matching(EVENT_PATH, event)
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    pub fn stats(&self) -> &FanoutStats {
        self.table.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_addressing::EndpointReference;

    fn sub(id: &str, expires: Option<u64>) -> EventSubscription {
        EventSubscription {
            id: id.into(),
            notify_to: EndpointReference::service("tcp://c/events"),
            mode: crate::delivery::PUSH_MODE.into(),
            filter: None,
            expires: expires.map(SimInstant),
            end_to: None,
        }
    }

    #[test]
    fn match_all_entries_resolve_for_any_event() {
        let idx = EventIndex::free();
        idx.insert(sub("a", None), ContentFilter::All);
        idx.insert(sub("b", None), ContentFilter::All);
        let ids: Vec<String> = idx
            .matching(&Element::new("e"))
            .into_iter()
            .map(|s| s.id)
            .collect();
        assert_eq!(ids, ["a", "b"]);
    }

    #[test]
    fn expiry_watermark_fires_once_per_due_entry() {
        let idx = EventIndex::free();
        idx.insert(sub("a", Some(100)), ContentFilter::All);
        idx.insert(sub("b", None), ContentFilter::All);
        assert!(!idx.expiry_due(SimInstant(50)), "nothing due yet");
        assert!(idx.expiry_due(SimInstant(150)), "a is due");
        assert!(!idx.expiry_due(SimInstant(200)), "watermark consumed");
    }

    #[test]
    fn renew_rearms_the_watermark() {
        let idx = EventIndex::free();
        idx.insert(sub("a", Some(100)), ContentFilter::All);
        assert!(idx.update(sub("a", Some(300))));
        // The stale entry fires (conservative), but the renewed one still
        // covers the new expiry.
        assert!(idx.expiry_due(SimInstant(100)));
        assert!(!idx.expiry_due(SimInstant(200)));
        assert!(idx.expiry_due(SimInstant(300)));
    }

    #[test]
    fn evict_runs_hooks() {
        let idx = EventIndex::free();
        let hits = Arc::new(Mutex::new(Vec::new()));
        let seen = hits.clone();
        idx.on_evict(Arc::new(move |id| seen.lock().push(id.to_owned())));
        idx.insert(sub("a", None), ContentFilter::All);
        assert!(idx.evict("a"));
        assert!(!idx.evict("a"), "second evict is a no-op");
        assert_eq!(&*hits.lock(), &["a".to_owned()]);
        assert!(idx.matching(&Element::new("e")).is_empty());
    }
}
