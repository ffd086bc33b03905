//! Fixtures shared between subcommands: the store workloads behind the
//! `durability` and `replication` gates, the signed-Get load run behind
//! `loadgen` and `obs`, and the in-process throughput figure `wallclock`
//! and `loadgen` report.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ogsa_core::container::Testbed;
use ogsa_core::counter::{CounterApi, TransferCounter};
use ogsa_core::security::SecurityPolicy;
use ogsa_core::serve::{loadgen, LoadConfig, LoadMode, LoadReport};
use ogsa_core::sim::{CostModel, VirtualClock};
use ogsa_core::throughput::{self, ThroughputConfig};
use ogsa_core::transfer::messages::{actions, get_request};
use ogsa_core::xml::Element;
use ogsa_core::xmldb::snapshot::apply_op;
use ogsa_core::xmldb::wal::WalOp;
use ogsa_core::xmldb::{
    encode_store, BackendKind, Database, DurableBackend, DurableConfig, FsyncPolicy, StoreImage,
};

/// The one collection every store workload writes.
pub const COLL: &str = "resources";

pub fn doc(v: i64) -> Element {
    Element::new("counter").with_child(Element::text_element("value", v.to_string()))
}

/// A single-document write of `doc(v)` at `key`.
pub fn put(key: String, v: i64) -> WalOp {
    WalOp::Put {
        collection: COLL.to_owned(),
        key,
        doc: doc(v),
    }
}

/// `put(k{i}, i)` for every `i` in `lo..hi`.
pub fn puts(lo: usize, hi: usize) -> Vec<WalOp> {
    (lo..hi).map(|i| put(format!("k{i}"), i as i64)).collect()
}

/// A simulated-medium WAL store that fsyncs every write and never
/// compacts: every acked op is a whole record in the log.
pub fn per_write_backend() -> Arc<DurableBackend> {
    Arc::new(DurableBackend::sim(DurableConfig {
        fsync: FsyncPolicy::PerWrite,
        snapshot_every: 0,
    }))
}

/// A zero-cost database over `backend`.
pub fn free_db(backend: Arc<DurableBackend>) -> Database {
    Database::new(
        VirtualClock::new(),
        Arc::new(CostModel::free()),
        BackendKind::Custom(backend),
    )
}

/// Apply `ops` through the database's public write path, so a durable
/// backend logs exactly these records.
pub fn run_ops(db: &Database, ops: &[WalOp]) {
    let c = db.collection(COLL);
    for op in ops {
        match op {
            WalOp::Put { key, doc, .. } => c.upsert(key, doc.clone()),
            WalOp::PutBatch { entries, .. } => c.insert_many(entries.clone()).unwrap(),
            WalOp::Delete { key, .. } => {
                c.remove(key);
            }
        }
    }
}

/// Encoded store image after each whole-op prefix of `ops` (index `i` =
/// the first `i` ops applied).
pub fn prefix_images(ops: &[WalOp]) -> Vec<Vec<u8>> {
    let mut image = StoreImage::new();
    let mut out = vec![encode_store(&image)];
    for op in ops {
        apply_op(&mut image, op);
        out.push(encode_store(&image));
    }
    out
}

/// Virtual duration of a fixed calibrated workload (inserts, a batch,
/// reads, an update, a delete) against `backend`.
pub fn virtual_elapsed(backend: BackendKind) -> u64 {
    let clock = VirtualClock::new();
    let start = clock.now();
    let db = Database::new(
        clock.clone(),
        Arc::new(CostModel::calibrated_2005()),
        backend,
    );
    let c = db.collection(COLL);
    for i in 0..20 {
        c.insert(&format!("k{i}"), doc(i)).unwrap();
    }
    c.insert_many((0..10).map(|i| (format!("b{i}"), doc(i))).collect())
        .unwrap();
    for i in 0..20 {
        c.get(&format!("k{i}"));
    }
    c.update("k3", doc(33)).unwrap();
    c.remove("k7");
    clock.now().since(start).as_micros()
}

/// A span-quiet testbed serving a signed WS-Transfer counter, and one
/// signed Get for it that every load connection replays verbatim (the
/// server still verifies the signature and signs its response per
/// request).
pub struct SignedGet {
    pub tb: Testbed,
    host: String,
    target: String,
    body: String,
}

impl SignedGet {
    /// Deploy the counter, create one instance holding `value`, and sign
    /// a Get of it as `dn`. Span-quiet: a load run completes hundreds of
    /// thousands of requests and must not keep a span per dispatch.
    /// Metrics still record; virtual time is free.
    pub fn new(dn: &str, value: i64) -> Self {
        let tb = Testbed::new_quiet(CostModel::free(), BackendKind::Memory);
        let container = tb.container("host-a", SecurityPolicy::X509Sign);
        let wxf = TransferCounter::deploy(&container);
        let agent = tb.client("host-b", dn, SecurityPolicy::X509Sign);
        let counter = wxf.client(agent.clone()).create().expect("create counter");
        wxf.client(agent.clone())
            .set(&counter, value)
            .expect("seed counter");
        let (address, body) = agent.prepare_wire(&counter, actions::GET, get_request());
        let rest = address.strip_prefix("http://").expect("http address");
        let slash = rest.find('/').expect("address path");
        SignedGet {
            host: rest[..slash].to_owned(),
            target: rest[slash..].to_owned(),
            body,
            tb,
        }
    }

    /// A closed-loop run of `connections` against the server at `addr`.
    pub fn closed_loop(
        &self,
        addr: SocketAddr,
        connections: usize,
        duration: Duration,
        warmup: Duration,
    ) -> LoadConfig {
        LoadConfig {
            addr,
            connections,
            duration,
            warmup,
            mode: LoadMode::Closed,
            target: self.target.clone(),
            host: self.host.clone(),
            body: self.body.clone(),
            scrape_admin: None,
        }
    }
}

pub fn run_load(config: &LoadConfig) -> LoadReport {
    loadgen::run(config).unwrap_or_else(|e| panic!("loadgen run failed: {e}"))
}

/// `"{name}":{…}`: the request count, errors and latency figures of one
/// load run, after `extra` (a run of `"key":value,` pairs, possibly empty).
pub fn load_json(name: &str, extra: &str, r: &LoadReport) -> String {
    format!(
        "\"{name}\":{{{extra}\"requests\":{},\"errors\":{},\"rps\":{:.1},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
        r.requests, r.errors, r.rps, r.mean_us, r.p50_us, r.p99_us, r.p999_us, r.max_us,
    )
}

/// Host-clock run of the in-process multi-client harness on the signed
/// counter workload at `clients` clients and 8 shards: the requests it
/// completed and the wall time they took.
pub fn in_process_throughput(clients: usize) -> (u64, Duration) {
    let config = ThroughputConfig {
        policy: SecurityPolicy::X509Sign,
        clients: vec![clients],
        shards: vec![8],
        iterations: 4,
        grid_clients: vec![],
        grid_shards: vec![],
    };
    let start = Instant::now();
    let rows = throughput::run(&config);
    (rows.iter().map(|r| r.requests).sum(), start.elapsed())
}
