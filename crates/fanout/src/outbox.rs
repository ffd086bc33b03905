//! Per-subscriber outboxes, the coalescing deliverer, and the redelivery
//! ledger.
//!
//! In the default **immediate** plan the deliverer hands each notification
//! straight to the stack's sink — one wire message per subscriber per
//! event, byte-for-byte what the seed did, so every virtual-time figure and
//! chaos replay is unchanged. Switching to the **coalesce** plan parks
//! notifications in bounded per-subscriber outboxes; a drain folds
//! everything queued for one endpoint into a single sink call (WS-
//! Notification batches them into one `<wsnt:Notify>` envelope; WS-Eventing
//! honestly keeps one message per event because its spec has no batch
//! container).
//!
//! Backpressure: each outbox is bounded. Overflow applies **drop-oldest** —
//! the evicted notification is counted in `wsn.backpressure_drops`, written
//! to the network's PR-1 dead-letter record, and marked dropped in the
//! ledger. Queued notifications register as external work on the network,
//! so `Network::quiesce`/`drain` cannot return while coalesced batches are
//! still parked.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ogsa_transport::{DeadLetter, FaultKind, Network};
use ogsa_xml::Element;
use parking_lot::Mutex;

use crate::table::{FanoutStats, Subscriber};

/// How the deliverer moves notifications to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPlan {
    /// Hand every notification to the sink as it arrives (seed behaviour).
    Immediate,
    /// Park notifications per subscriber; drain when a subscriber's queue
    /// reaches `batch_max` or on an explicit [`Deliverer::flush`].
    Coalesce { batch_max: usize },
}

/// Deliverer configuration.
#[derive(Debug, Clone, Copy)]
pub struct DelivererConfig {
    pub plan: DeliveryPlan,
    /// Outbox bound per subscriber; beyond it, drop-oldest applies.
    pub outbox_capacity: usize,
}

impl Default for DelivererConfig {
    fn default() -> Self {
        DelivererConfig {
            plan: DeliveryPlan::Immediate,
            outbox_capacity: 1024,
        }
    }
}

/// The stack-specific send: given one subscriber and everything queued for
/// it, put the message(s) on the wire. WSN builds one coalesced envelope;
/// WS-Eventing sends one message per element.
pub type Sink<T> = Arc<dyn Fn(&T, Vec<Element>) + Send + Sync>;

/// Per-subscriber delivery accounting: the durable redelivery ledger. The
/// wire-level retry/dead-letter machinery (PR 1) is per *message*; the
/// ledger aggregates per *subscriber*, so a durable subscription can be
/// audited — everything enqueued is either delivered to the wire layer or
/// recorded as a backpressure drop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Notifications accepted for this subscriber.
    pub enqueued: u64,
    /// Notifications handed to the wire layer (counting each coalesced
    /// member, not each envelope).
    pub delivered: u64,
    /// Wire envelopes used (― < delivered when coalescing took effect).
    pub envelopes: u64,
    /// Notifications evicted by backpressure (also dead-lettered).
    pub dropped: u64,
}

#[derive(Default)]
pub struct RedeliveryLedger {
    entries: Mutex<BTreeMap<String, LedgerEntry>>,
}

impl RedeliveryLedger {
    pub fn new() -> Self {
        Self::default()
    }

    fn with(&self, id: &str, f: impl FnOnce(&mut LedgerEntry)) {
        f(self.entries.lock().entry(id.to_owned()).or_default());
    }

    pub fn entry(&self, id: &str) -> Option<LedgerEntry> {
        self.entries.lock().get(id).cloned()
    }

    pub fn snapshot(&self) -> BTreeMap<String, LedgerEntry> {
        self.entries.lock().clone()
    }

    /// Drop a subscriber's row (eviction at expiry keeps the ledger from
    /// leaking alongside the table).
    pub fn forget(&self, id: &str) {
        self.entries.lock().remove(id);
    }
}

struct Outbox<T> {
    sub: T,
    shard: usize,
    queue: VecDeque<Element>,
}

struct DelivererInner<T: Subscriber> {
    config: Mutex<DelivererConfig>,
    /// BTreeMap so flushes drain subscribers in id order — deterministic
    /// under the virtual clock.
    outboxes: Mutex<BTreeMap<String, Outbox<T>>>,
    sink: Sink<T>,
    net: Network,
    from_host: String,
    stats: FanoutStats,
    ledger: RedeliveryLedger,
}

/// Drains per-subscriber outboxes into the stack's sink.
pub struct Deliverer<T: Subscriber> {
    inner: Arc<DelivererInner<T>>,
}

impl<T: Subscriber> Clone for Deliverer<T> {
    fn clone(&self) -> Self {
        Deliverer {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Subscriber> Deliverer<T> {
    pub fn new(
        net: Network,
        from_host: impl Into<String>,
        stats: FanoutStats,
        sink: Sink<T>,
    ) -> Self {
        Deliverer {
            inner: Arc::new(DelivererInner {
                config: Mutex::new(DelivererConfig::default()),
                outboxes: Mutex::new(BTreeMap::new()),
                sink,
                net,
                from_host: from_host.into(),
                stats,
                ledger: RedeliveryLedger::new(),
            }),
        }
    }

    pub fn set_config(&self, config: DelivererConfig) {
        *self.inner.config.lock() = config;
    }

    pub fn config(&self) -> DelivererConfig {
        *self.inner.config.lock()
    }

    pub fn ledger(&self) -> &RedeliveryLedger {
        &self.inner.ledger
    }

    /// Notifications currently parked in outboxes.
    pub fn pending(&self) -> usize {
        self.inner
            .outboxes
            .lock()
            .values()
            .map(|o| o.queue.len())
            .sum()
    }

    /// Accept one notification body for one subscriber. `shard` is the
    /// subscriber's table shard (for the per-shard outbox-depth gauge).
    pub fn enqueue(&self, sub: &T, shard: usize, body: Element) {
        let config = self.config();
        self.inner.ledger.with(sub.sub_id(), |e| e.enqueued += 1);
        match config.plan {
            DeliveryPlan::Immediate => self.send(sub, vec![body]),
            DeliveryPlan::Coalesce { batch_max } => {
                let drain_now = {
                    let mut outboxes = self.inner.outboxes.lock();
                    let outbox =
                        outboxes
                            .entry(sub.sub_id().to_owned())
                            .or_insert_with(|| Outbox {
                                sub: sub.clone(),
                                shard,
                                queue: VecDeque::new(),
                            });
                    // Parked work holds the network open: quiesce() must
                    // not return while a batch is queued.
                    self.inner.net.begin_external_work();
                    outbox.queue.push_back(body);
                    self.inner.stats.add_depth(shard, 1);
                    if outbox.queue.len() > config.outbox_capacity {
                        let evicted = outbox.queue.pop_front().expect("len > cap ≥ 0");
                        self.overflow(&outbox.sub, shard, &evicted);
                    }
                    outbox.queue.len() >= batch_max.max(1)
                };
                if drain_now {
                    self.drain_subscriber(sub.sub_id());
                }
            }
        }
    }

    fn overflow(&self, sub: &T, shard: usize, evicted: &Element) {
        self.inner.stats.sub_depth(shard, 1);
        self.inner.stats.bump_drop();
        self.inner.ledger.with(sub.sub_id(), |e| e.dropped += 1);
        let wire_bytes = evicted.into_document_string().len();
        self.inner.net.record_dead_letter(DeadLetter {
            to: sub.endpoint().address.clone(),
            from_host: self.inner.from_host.clone(),
            attempts: 0,
            reason: FaultKind::Drop,
            enqueued_at: self.inner.net.clock().now(),
            wire_bytes,
        });
        // The evicted notification's external-work slot resolves here.
        self.inner.net.end_external_work();
    }

    fn send(&self, sub: &T, bodies: Vec<Element>) {
        let n = bodies.len() as u64;
        (self.inner.sink)(sub, bodies);
        self.inner.ledger.with(sub.sub_id(), |e| {
            e.delivered += n;
            e.envelopes += 1;
        });
    }

    /// Drain one subscriber's outbox; returns how many notifications left.
    pub fn drain_subscriber(&self, sub_id: &str) -> usize {
        let Some(outbox) = self.inner.outboxes.lock().remove(sub_id) else {
            return 0;
        };
        self.drain_outbox(outbox)
    }

    fn drain_outbox(&self, outbox: Outbox<T>) -> usize {
        let k = outbox.queue.len();
        if k == 0 {
            return 0;
        }
        self.send(&outbox.sub, outbox.queue.into_iter().collect());
        self.inner.stats.sub_depth(outbox.shard, k as u64);
        // Resolve external work only after the sink put the messages on the
        // wire (which registers its own pending one-ways), so the network
        // never looks momentarily idle mid-hand-off.
        for _ in 0..k {
            self.inner.net.end_external_work();
        }
        k
    }

    /// Drain every outbox, subscribers in id order; returns notifications
    /// flushed.
    pub fn flush(&self) -> usize {
        let outboxes = std::mem::take(&mut *self.inner.outboxes.lock());
        let mut n = 0;
        for (_, outbox) in outboxes {
            n += self.drain_outbox(outbox);
        }
        n
    }

    /// Discard (without delivering) anything parked for `sub_id` — eviction
    /// support for subscribers destroyed while batches were queued. The
    /// discarded messages are accounted as backpressure drops.
    pub fn evict(&self, sub_id: &str) -> usize {
        let Some(outbox) = self.inner.outboxes.lock().remove(sub_id) else {
            return 0;
        };
        let k = outbox.queue.len();
        for body in &outbox.queue {
            self.overflow(&outbox.sub, outbox.shard, body);
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_addressing::EndpointReference;
    use ogsa_sim::{CostModel, VirtualClock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Clone)]
    struct Sub {
        id: String,
        to: EndpointReference,
    }

    impl Subscriber for Sub {
        fn sub_id(&self) -> &str {
            &self.id
        }
        fn endpoint(&self) -> &EndpointReference {
            &self.to
        }
    }

    fn sub(id: &str) -> Sub {
        Sub {
            id: id.to_owned(),
            to: EndpointReference::service("http://c/inbox"),
        }
    }

    fn net() -> Network {
        Network::new(VirtualClock::new(), Arc::new(CostModel::free()))
    }

    fn deliverer(net: &Network, sink: Sink<Sub>) -> Deliverer<Sub> {
        Deliverer::new(
            net.clone(),
            "producer-host",
            crate::table::ShardedTable::<Sub>::free(4, "wsn")
                .stats()
                .clone(),
            sink,
        )
    }

    #[test]
    fn immediate_plan_sends_one_by_one() {
        let n = net();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let d = deliverer(
            &n,
            Arc::new(move |_s: &Sub, bodies: Vec<Element>| {
                assert_eq!(bodies.len(), 1);
                seen.fetch_add(1, Ordering::SeqCst);
            }),
        );
        for _ in 0..3 {
            d.enqueue(&sub("a"), 0, Element::new("E"));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(d.pending(), 0);
        let e = d.ledger().entry("a").unwrap();
        assert_eq!(
            (e.enqueued, e.delivered, e.envelopes, e.dropped),
            (3, 3, 3, 0)
        );
    }

    #[test]
    fn coalesce_plan_batches_per_subscriber() {
        let n = net();
        let batches: Arc<Mutex<Vec<(String, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = batches.clone();
        let d = deliverer(
            &n,
            Arc::new(move |s: &Sub, bodies: Vec<Element>| {
                seen.lock().push((s.id.clone(), bodies.len()));
            }),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 16 },
            outbox_capacity: 64,
        });
        for _ in 0..3 {
            d.enqueue(&sub("b"), 1, Element::new("E"));
            d.enqueue(&sub("a"), 0, Element::new("E"));
        }
        assert_eq!(d.pending(), 6);
        assert_eq!(n.pending_oneways(), 6, "parked batches hold the network");
        assert_eq!(d.flush(), 6);
        assert_eq!(n.pending_oneways(), 0);
        // Drained in subscriber-id order, one sink call per subscriber.
        assert_eq!(
            &*batches.lock(),
            &[("a".to_owned(), 3), ("b".to_owned(), 3)]
        );
        let e = d.ledger().entry("a").unwrap();
        assert_eq!((e.delivered, e.envelopes), (3, 1));
    }

    #[test]
    fn batch_max_triggers_inline_drain() {
        let n = net();
        let batches: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = batches.clone();
        let d = deliverer(
            &n,
            Arc::new(move |_s: &Sub, bodies: Vec<Element>| {
                seen.lock().push(bodies.len());
            }),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 2 },
            outbox_capacity: 64,
        });
        for _ in 0..5 {
            d.enqueue(&sub("a"), 0, Element::new("E"));
        }
        assert_eq!(&*batches.lock(), &[2, 2]);
        assert_eq!(d.pending(), 1);
        d.flush();
        assert_eq!(&*batches.lock(), &[2, 2, 1]);
    }

    #[test]
    fn overflow_drops_oldest_and_dead_letters() {
        let n = net();
        let d = deliverer(&n, Arc::new(|_s: &Sub, _b: Vec<Element>| {}));
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 100 },
            outbox_capacity: 2,
        });
        for i in 0..5 {
            d.enqueue(&sub("a"), 0, Element::new(format!("E{i}").as_str()));
        }
        assert_eq!(d.pending(), 2, "bounded at capacity");
        let e = d.ledger().entry("a").unwrap();
        assert_eq!((e.enqueued, e.dropped), (5, 3));
        assert_eq!(n.dead_letters().len(), 3);
        assert_eq!(n.dead_letters()[0].to, "http://c/inbox");
        assert_eq!(n.pending_oneways(), 2, "dropped slots resolved");
        d.flush();
        assert_eq!(n.pending_oneways(), 0);
    }

    #[test]
    fn evict_discards_parked_batches() {
        let n = net();
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let d = deliverer(
            &n,
            Arc::new(move |_s: &Sub, _b: Vec<Element>| {
                seen.fetch_add(1, Ordering::SeqCst);
            }),
        );
        d.set_config(DelivererConfig {
            plan: DeliveryPlan::Coalesce { batch_max: 100 },
            outbox_capacity: 100,
        });
        d.enqueue(&sub("a"), 0, Element::new("E"));
        d.enqueue(&sub("a"), 0, Element::new("E"));
        assert_eq!(d.evict("a"), 2);
        assert_eq!(n.pending_oneways(), 0);
        d.flush();
        assert_eq!(calls.load(Ordering::SeqCst), 0, "nothing delivered");
    }
}
