//! Multi-host replication seams for the testbed: the [`NetFabric`] carries
//! replication traffic across the simulated [`Network`] (judged by the
//! [`FaultPlan`](ogsa_transport::FaultPlan) machinery, charged **zero**
//! virtual time), and the [`ReplicaSet`] owns the failover choreography —
//! promote the longest-acked survivor when the fault plan partitions the
//! primary, rebuild the promoted host's database from the converged image,
//! truncate the deposed primary's unacked tail when it rejoins.
//!
//! Replication deliberately does not ride [`ogsa_transport::Port::call`]:
//! a port call advances the virtual clock (connect, SOAP encode, RTT), so
//! shipping WAL records through it would shift every regenerated figure
//! the moment replication was enabled. [`Network::judge_raw`] evaluates
//! the armed fault plan on dedicated `repl://{host}` edges instead —
//! partitions and drops hit the stream with the same seeded schedule
//! machinery, while virtual-time dumps stay byte-identical with
//! replication on or off.

use std::collections::HashMap;
use std::sync::Arc;

use ogsa_transport::Network;
use ogsa_xmldb::repl::{
    promote, PromoteError, ReplConfig, ReplFabric, ReplicaNode, Replicator, ShipError,
};
use ogsa_xmldb::FsyncPolicy;
use parking_lot::Mutex;

use crate::testbed::Testbed;

/// [`ReplFabric`] over the simulated network: local replica nodes addressed
/// by host name, every delivery judged by the armed fault plan.
pub struct NetFabric {
    network: Network,
    nodes: Mutex<HashMap<String, Arc<ReplicaNode>>>,
}

impl NetFabric {
    pub fn new(network: Network) -> Arc<NetFabric> {
        Arc::new(NetFabric {
            network,
            nodes: Mutex::new(HashMap::new()),
        })
    }

    pub fn register(&self, host: &str, node: Arc<ReplicaNode>) {
        self.nodes.lock().insert(host.to_owned(), node);
    }

    pub fn node(&self, host: &str) -> Option<Arc<ReplicaNode>> {
        self.nodes.lock().get(host).cloned()
    }
}

impl ReplFabric for NetFabric {
    fn deliver(&self, from: &str, to: &str, request: &[u8]) -> Result<Vec<u8>, ShipError> {
        let decision = self.network.judge_raw(from, to);
        if decision.partitioned {
            return Err(ShipError::Unreachable);
        }
        if decision.drop {
            return Err(ShipError::Dropped);
        }
        let node = self.nodes.lock().get(to).cloned();
        let Some(node) = node else {
            return Err(ShipError::Unreachable);
        };
        if decision.garble {
            // One deterministic bit flipped mid-request — the CRC framing
            // downstream turns this into a Malformed response and a resend.
            let mut garbled = request.to_vec();
            let i = garbled.len() / 2;
            garbled[i] ^= 0x10;
            return Ok(node.handle(&garbled));
        }
        Ok(node.handle(request))
    }
}

/// One replicated database: a primary host (whose [`DurableBackend`]'s WAL
/// is tapped by a [`Replicator`]) and N replica hosts holding
/// [`ReplicaNode`]s, all shipping over a [`NetFabric`].
///
/// [`DurableBackend`]: ogsa_xmldb::DurableBackend
pub struct ReplicaSet {
    testbed: Testbed,
    fabric: Arc<NetFabric>,
    quorum: usize,
    total: usize,
    fsync: FsyncPolicy,
    inner: Mutex<SetInner>,
}

struct SetInner {
    replicator: Arc<Replicator>,
    /// Replica hosts (primary excluded), in registration order.
    members: Vec<(String, Arc<ReplicaNode>)>,
}

impl ReplicaSet {
    pub(crate) fn new(
        testbed: Testbed,
        primary: &str,
        replicas: &[&str],
        fsync: FsyncPolicy,
    ) -> Arc<ReplicaSet> {
        let fabric = NetFabric::new(testbed.network().clone());
        let mut members = Vec::new();
        for host in replicas {
            let node = ReplicaNode::new(fsync);
            fabric.register(host, node.clone());
            members.push(((*host).to_owned(), node));
        }
        let total = replicas.len() + 1;
        let cfg = ReplConfig::majority(total);
        let quorum = cfg.quorum;
        let replicator = Arc::new(Replicator::new(primary, replicas, fabric.clone(), cfg));
        let backend = testbed
            .durable(primary)
            .expect("with_replicas requires a durable testbed and a built primary db");
        backend.set_observer(replicator.clone());
        Arc::new(ReplicaSet {
            testbed,
            fabric,
            quorum,
            total,
            fsync,
            inner: Mutex::new(SetInner {
                replicator,
                members,
            }),
        })
    }

    /// The current primary's replicator.
    pub fn replicator(&self) -> Arc<Replicator> {
        self.inner.lock().replicator.clone()
    }

    /// The current primary host.
    pub fn primary_host(&self) -> String {
        self.inner.lock().replicator.self_id().to_owned()
    }

    /// The replica node on `host`, if it is currently a replica.
    pub fn node(&self, host: &str) -> Option<Arc<ReplicaNode>> {
        self.fabric.node(host)
    }

    pub fn fabric(&self) -> &Arc<NetFabric> {
        &self.fabric
    }

    /// Replica hosts (current primary excluded).
    pub fn member_hosts(&self) -> Vec<String> {
        self.inner
            .lock()
            .members
            .iter()
            .map(|(h, _)| h.clone())
            .collect()
    }

    /// Re-ship to every member that fell behind (a healed partition, a
    /// recovered replica). Returns the hosts that are fully caught up.
    pub fn catch_up_all(&self) -> Vec<String> {
        let (repl, hosts) = {
            let inner = self.inner.lock();
            (
                inner.replicator.clone(),
                inner
                    .members
                    .iter()
                    .map(|(h, _)| h.clone())
                    .collect::<Vec<_>>(),
            )
        };
        hosts.into_iter().filter(|h| repl.catch_up(h)).collect()
    }

    /// Fail over: promote the member holding the longest acked prefix (the
    /// quorum-intersection winner) to a new term. The promoted host's
    /// database is rebuilt from the converged image, the old primary is
    /// demoted in place (it keeps serving its in-memory state, deposed from
    /// shipping), and every remaining member is truncated to the promotion
    /// point and caught up. Returns the new primary host.
    ///
    /// Call this when the fault plan has partitioned the primary; survivors
    /// are the current members (the old primary is not consulted).
    pub fn promote_longest_acked(&self) -> Result<String, PromoteError> {
        let mut inner = self.inner.lock();
        let promotee = inner
            .members
            .iter()
            .max_by_key(|(_, n)| n.acked_seq())
            .map(|(h, _)| h.clone())
            .ok_or(PromoteError::TooFewSurvivors { have: 0, need: 1 })?;
        let new_repl = Arc::new(promote(
            &promotee,
            &inner.members,
            self.total,
            self.fabric.clone(),
            ReplConfig {
                quorum: self.quorum,
                max_retries: 8,
            },
        )?);

        // The deposed primary stops tapping its WAL; its host keeps serving
        // from memory until it rejoins.
        let old_primary = inner.replicator.self_id().to_owned();
        if let Some(backend) = self.testbed.durable(&old_primary) {
            backend.clear_observer();
        }

        // The promoted host graduates from replica to primary: its database
        // is rebuilt from the converged image and its durable backend taps
        // the new replicator.
        let db = self.testbed.reset_host_db(&promotee);
        let backend = self
            .testbed
            .durable(&promotee)
            .expect("durable testbed invariant");
        assert!(
            backend.install_image(new_repl.image()),
            "promoted host failed to persist the converged image"
        );
        backend.restore_into(&db);
        backend.set_observer(new_repl.clone());

        inner.members.retain(|(h, _)| h != &promotee);
        inner.replicator = new_repl;
        Ok(promotee)
    }

    /// The deposed primary rejoins as a replica: its surviving history
    /// (acked prefix plus whatever synced before the partition) becomes a
    /// [`ReplicaNode`], the new primary truncates its unacked divergent
    /// tail and catches it up, and the host's database is rebuilt from the
    /// truncated image — the split-brain writes vanish from the host, as
    /// they must.
    pub fn rejoin(&self, old_primary: &Arc<Replicator>) -> bool {
        let host = old_primary.self_id().to_owned();
        let node = old_primary.to_node(self.fsync);
        self.fabric.register(&host, node.clone());
        let (repl, already) = {
            let inner = self.inner.lock();
            (
                inner.replicator.clone(),
                inner.members.iter().any(|(h, _)| h == &host),
            )
        };
        repl.admit(&host);
        let caught_up = repl.catch_up(&host);
        if caught_up {
            if let Some(backend) = self.testbed.durable(&host) {
                assert!(
                    backend.install_image(node.image()),
                    "rejoined host failed to persist the truncated history"
                );
                backend.restore_into(&self.testbed.reset_host_db(&host));
            }
            if !already {
                self.inner.lock().members.push((host, node));
            }
        }
        caught_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use ogsa_sim::SimInstant;
    use ogsa_transport::FaultPlan;
    use ogsa_xml::Element;
    use ogsa_xmldb::DurableConfig;

    const P: &str = "host-p";
    const R1: &str = "host-r1";
    const R2: &str = "host-r2";

    fn doc(v: i64) -> Element {
        Element::new("r").with_child(Element::text_element("v", v.to_string()))
    }

    fn durable_free() -> Testbed {
        Testbed::free().with_durable(DurableConfig::default())
    }

    #[test]
    fn writes_ship_to_replicas_and_gauges_flow_on_gather() {
        let tb = durable_free();
        let set = tb.with_replicas(P, &[R1, R2]);
        let c = tb.db(P).collection("c");
        for i in 0..5 {
            c.insert(&format!("k{i}"), doc(i)).unwrap();
        }
        assert_eq!(set.replicator().quorum_acked_seq(), 5);
        for host in [R1, R2] {
            assert_eq!(set.node(host).unwrap().acked_seq(), 5);
        }
        let snap = tb.telemetry().metrics().gather();
        assert_eq!(snap.gauge("repl.term"), 1);
        assert_eq!(snap.gauge("repl.quorum_acked_seq"), 5);
        assert_eq!(snap.gauge("repl.acked_seq{host=host-p}"), 5);
        assert_eq!(snap.gauge("repl.acked_seq{host=host-r1}"), 5);
        assert_eq!(snap.gauge("repl.lag_records{host=host-r1}"), 0);
        assert_eq!(snap.gauge("repl.reachable{host=host-r2}"), 1);
        // The deterministic snapshot stays gauge-free: replication stats
        // are scrape-time only, so figure regeneration is unaffected.
        assert!(tb.telemetry().metrics().snapshot().gauges.is_empty());
    }

    #[test]
    fn fault_plan_partition_fails_over_and_rejoins_without_split_brain() {
        let tb = durable_free();
        let set = tb.with_replicas(P, &[R1, R2]);
        let c = tb.db(P).collection("c");
        for i in 0..4 {
            c.insert(&format!("k{i}"), doc(i)).unwrap();
        }

        // The PR-1 fault plan partitions the primary from both replicas.
        tb.network().set_fault_plan(
            FaultPlan::seeded(11)
                .with_partition(P, R1, SimInstant(0), SimInstant(u64::MAX))
                .with_partition(P, R2, SimInstant(0), SimInstant(u64::MAX)),
        );
        // Fsynced locally, but no quorum ever sees it: the zombie write.
        c.insert("zombie", doc(99)).unwrap();
        let old_repl = set.replicator();
        assert_eq!(old_repl.quorum_acked_seq(), 4);
        let snap = tb.telemetry().metrics().gather();
        assert_eq!(snap.gauge("repl.reachable{host=host-r1}"), 0);
        assert_eq!(snap.gauge("repl.lag_records{host=host-r1}"), 1);

        let new_primary = set.promote_longest_acked().unwrap();
        assert!([R1, R2].contains(&new_primary.as_str()));
        assert_eq!(set.primary_host(), new_primary);
        assert_eq!(set.replicator().term(), 2);
        assert!(set.replicator().promotion_seq() >= 4);

        // The promoted host's database serves the converged history — and
        // never saw the zombie.
        let pdb = tb.db(&new_primary);
        assert!(pdb.collection("c").get("k3").is_some());
        assert!(pdb.collection("c").get("zombie").is_none());
        // Writes keep flowing under the new term.
        pdb.collection("c").insert("k4", doc(4)).unwrap();
        assert_eq!(set.replicator().quorum_acked_seq(), 5);

        // Heal; the deposed primary rejoins, truncating its zombie tail.
        tb.network().clear_fault_plan();
        assert!(set.rejoin(&old_repl));
        let odb = tb.db(P).collection("c");
        assert!(odb.get("zombie").is_none(), "split-brain write truncated");
        assert!(
            odb.get("k4").is_some(),
            "caught up past the promotion point"
        );
        assert_eq!(set.member_hosts().len(), 2);
        assert_eq!(set.catch_up_all().len(), 2);
        // Every member holds the new primary's exact history.
        let converged = ogsa_xmldb::encode_store(&set.replicator().image());
        for host in set.member_hosts() {
            assert_eq!(set.node(&host).unwrap().encoded_image(), converged);
        }
    }

    /// The CI replication gate's core claim, as a test: enabling
    /// replication changes no virtual-time figure and shifts no SOAP fault
    /// schedule — same workload, same seed, byte-identical clock and
    /// injected-fault counts with and without replicas.
    #[test]
    fn virtual_time_and_fault_schedule_are_identical_with_replication_on() {
        let run = |replicate: bool| {
            let tb = Testbed::new(
                ogsa_sim::CostModel::calibrated_2005(),
                ogsa_xmldb::BackendKind::SimDisk,
            )
            .with_durable(DurableConfig::default());
            let set = replicate.then(|| tb.with_replicas(P, &[R1, R2]));
            tb.network()
                .set_fault_plan(FaultPlan::seeded(42).with_drops(0.3));
            let container = tb.container(P, ogsa_security::SecurityPolicy::None);
            let epr = container.deploy(
                "/services/Echo",
                Arc::new(
                    |op: &crate::service::Operation,
                     _ctx: &crate::service::OperationContext|
                     -> Result<Element, ogsa_soap::Fault> {
                        Ok(Element::new("EchoResponse").with_text(op.body.text()))
                    },
                ) as Arc<dyn crate::service::WebService>,
            );
            let client = tb
                .client(
                    "host-client",
                    "CN=alice",
                    ogsa_security::SecurityPolicy::None,
                )
                .with_retry(ogsa_transport::RetryPolicy::default_call(7).with_max_attempts(10));
            let c = tb.db(P).collection("c");
            for i in 0..10 {
                c.insert(&format!("k{i}"), doc(i)).unwrap();
                client
                    .invoke(&epr, "urn:test/Ping", Element::new("In"))
                    .expect("retries ride out the drops");
            }
            if let Some(set) = &set {
                assert_eq!(set.replicator().quorum_acked_seq(), 10);
            }
            (
                tb.clock().now(),
                tb.network().stats().injected_drops(),
                tb.network().stats().retries(),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
