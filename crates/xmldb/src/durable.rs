//! The durable backend: a real write-ahead-logged store behind the
//! [`CustomBackend`] seam.
//!
//! Plugged in as `BackendKind::Custom(Arc<DurableBackend>)`, it mirrors
//! every mutation of the in-memory collections into an append-only WAL
//! (one CRC-framed record per operation, one record per *batch*), syncs
//! according to the configured [`FsyncPolicy`], and periodically folds the
//! log into an atomically-installed snapshot (compaction). After a crash,
//! [`DurableBackend::recover`] loads the snapshot, replays the log up to
//! the first torn record, and re-compacts — [`DurableBackend::restore_into`]
//! then repopulates a fresh [`Database`].
//!
//! Virtual-time cost accounting is unchanged: the backend reports the same
//! calibrated SimDisk cost profile, so enabling durability never perturbs
//! the paper's virtual-time figures — the WAL prices *real* wall-clock
//! durability (measured by the durability bench), not simulated time.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_sim::CostModel;
use ogsa_telemetry::{Counter, SpanKind, Telemetry};
use ogsa_xml::Element;
use parking_lot::Mutex;

use crate::backend::{BackendKind, CostProfile, CustomBackend};
use crate::db::Database;
use crate::snapshot::{
    apply_op, decode_store, encode_store, FileSnapshotMedium, SimSnapshotMedium, SnapshotMedium,
    StoreImage,
};
use crate::wal::{
    decode_records, FileMedium, FsyncPolicy, SimMedium, TornReason, Wal, WalMedium, WalOp,
};

/// Durability configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// When appended records reach the platter.
    pub fsync: FsyncPolicy,
    /// Snapshot + compact the log every this many logged ops (0 = never).
    pub snapshot_every: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: FsyncPolicy::PerWrite,
            snapshot_every: 1024,
        }
    }
}

/// What a recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A complete snapshot was loaded as the replay base.
    pub used_snapshot: bool,
    /// Intact WAL records replayed on top of the base.
    pub wal_records_replayed: usize,
    /// Why the WAL scan stopped early, if it did.
    pub torn: Option<TornReason>,
    /// Byte length of the valid WAL prefix.
    pub valid_wal_len: usize,
    /// Documents in the recovered store.
    pub docs: usize,
    /// Stale staged snapshot images (crash mid-install) swept away.
    pub orphan_snapshots_removed: usize,
}

/// Sees every op the durable backend logs, in WAL order (the callback runs
/// under the backend's write lock, so observers see the exact serialized
/// write order across all db shards). `synced` reports whether this very
/// append completed an fsync — i.e. whether everything logged so far is
/// durable on the primary. The [`crate::repl::Replicator`] hangs off this
/// seam to ship records to replicas.
pub trait WalObserver: Send + Sync {
    fn on_append(&self, op: &WalOp, synced: bool);
}

#[derive(Debug, Default)]
struct Inner {
    mem: StoreImage,
    ops_since_snapshot: usize,
}

/// See module docs. Construct with [`DurableBackend::sim`] (in-memory
/// media with crash injection — the harness configuration) or
/// [`DurableBackend::file`] (real files, real fsync — the bench
/// configuration), then hand to `BackendKind::Custom`.
pub struct DurableBackend {
    inner: Mutex<Inner>,
    wal: Wal,
    snap: Arc<dyn SnapshotMedium>,
    sim: Option<Arc<SimMedium>>,
    /// Typed handle to the sim snapshot medium (crash-harness arming).
    sim_snap: Option<Arc<SimSnapshotMedium>>,
    cfg: DurableConfig,
    tel: Telemetry,
    /// The medium crashed (or an append failed): stop persisting. The
    /// in-process store keeps serving — like a database whose disk died —
    /// until [`DurableBackend::recover`] reboots it.
    failed: AtomicBool,
    /// Recovery replay in progress: ignore the mutations we ourselves feed
    /// back through the collections.
    replaying: AtomicBool,
    /// Ops known durable (fsynced or snapshotted). The crash harness
    /// checks recovery never loses an op ≤ this watermark.
    acked: AtomicU64,
    /// Ops appended to the WAL since the last recovery/construction.
    appended: AtomicU64,
    /// The `wal.appends`, `wal.fsyncs` and `wal.recoveries` cells;
    /// unregistered until [`DurableBackend::with_telemetry`].
    appends: Counter,
    synced_appends: Counter,
    recoveries: Counter,
    /// Replication tap: sees every logged op under the write lock.
    observer: Mutex<Option<Arc<dyn WalObserver>>>,
}

impl std::fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBackend")
            .field("cfg", &self.cfg)
            .field("acked", &self.acked_ops())
            .field("failed", &self.has_failed())
            .finish_non_exhaustive()
    }
}

impl DurableBackend {
    /// A backend over crash-injectable in-memory media.
    pub fn sim(cfg: DurableConfig) -> DurableBackend {
        let medium = SimMedium::new();
        let snap = SimSnapshotMedium::new();
        let mut backend = DurableBackend::over(medium.clone(), snap.clone(), Some(medium), cfg);
        backend.sim_snap = Some(snap);
        backend
    }

    /// A backend over real files in `dir` (`wal.log` + `snapshot.bin`),
    /// with real fsync. Existing files are recovered from, not clobbered.
    pub fn file(dir: &Path, cfg: DurableConfig) -> std::io::Result<DurableBackend> {
        std::fs::create_dir_all(dir)?;
        let wal = FileMedium::open(&dir.join("wal.log"))?;
        let snap = FileSnapshotMedium::new(&dir.join("snapshot.bin"));
        Ok(DurableBackend::over(wal, snap, None, cfg))
    }

    fn over(
        medium: Arc<dyn WalMedium>,
        snap: Arc<dyn SnapshotMedium>,
        sim: Option<Arc<SimMedium>>,
        cfg: DurableConfig,
    ) -> DurableBackend {
        DurableBackend {
            inner: Mutex::new(Inner::default()),
            wal: Wal::new(medium, cfg.fsync),
            snap,
            sim,
            sim_snap: None,
            cfg,
            tel: Telemetry::disabled(),
            failed: AtomicBool::new(false),
            replaying: AtomicBool::new(false),
            acked: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            appends: Counter::default(),
            synced_appends: Counter::default(),
            recoveries: Counter::default(),
            observer: Mutex::new(None),
        }
    }

    /// Attach a [`WalObserver`] (replication tap). At most one; setting a
    /// new one replaces the old.
    pub fn set_observer(&self, observer: Arc<dyn WalObserver>) {
        *self.observer.lock() = Some(observer);
    }

    /// Detach the observer, if any.
    pub fn clear_observer(&self) {
        *self.observer.lock() = None;
    }

    /// Report WAL counters into `tel` (`wal.appends` / `wal.fsyncs` /
    /// `wal.recoveries`) and open `db:recover` spans there.
    pub fn with_telemetry(mut self, tel: Telemetry) -> DurableBackend {
        let m = tel.metrics();
        self.appends = m.cell("wal.appends", &[]);
        self.synced_appends = m.cell("wal.fsyncs", &[]);
        self.recoveries = m.cell("wal.recoveries", &[]);
        self.tel = tel;
        self
    }

    pub fn config(&self) -> DurableConfig {
        self.cfg
    }

    /// The crash-injectable medium, when constructed via
    /// [`DurableBackend::sim`] — arm [`crate::wal::CrashPoint`]s here.
    pub fn sim_medium(&self) -> Option<&Arc<SimMedium>> {
        self.sim.as_ref()
    }

    /// The crash-injectable snapshot medium, when constructed via
    /// [`DurableBackend::sim`] — arm install crashes here.
    pub fn sim_snapshot_medium(&self) -> Option<&Arc<SimSnapshotMedium>> {
        self.sim_snap.as_ref()
    }

    /// Ops whose durability was acknowledged (fsynced or snapshotted)
    /// since construction or the last recovery.
    pub fn acked_ops(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// Ops appended to the WAL since construction or the last recovery.
    pub fn appended_ops(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Completed fsyncs over the backend's lifetime.
    pub fn fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Recoveries performed over the backend's lifetime.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// Has the medium crashed (writes are no longer being persisted)?
    pub fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Current WAL length in bytes (for arming byte-offset crash points).
    pub fn wal_len(&self) -> u64 {
        self.wal.medium().len()
    }

    /// The live durable image, deterministically encoded — byte-identical
    /// across recoveries of the same state.
    pub fn encoded_image(&self) -> Vec<u8> {
        encode_store(&self.inner.lock().mem)
    }

    /// Documents currently in the durable image.
    pub fn doc_count(&self) -> usize {
        self.inner.lock().mem.values().map(|m| m.len()).sum()
    }

    /// Force a snapshot + log compaction now. Returns `false` if the
    /// medium has failed or the install did not complete.
    pub fn snapshot_now(&self) -> bool {
        let mut inner = self.inner.lock();
        self.snapshot_locked(&mut inner)
    }

    fn snapshot_locked(&self, inner: &mut Inner) -> bool {
        if self.failed.load(Ordering::Relaxed) {
            return false;
        }
        if !self.snap.install(encode_store(&inner.mem)) {
            // The install crashed or errored mid-way: same disk-died
            // semantics as a torn WAL append — stop persisting until
            // recovery (which also sweeps the orphaned staging image).
            self.failed.store(true, Ordering::Relaxed);
            return false;
        }
        // Truncation may tear (crash between install and truncate): safe,
        // because replaying already-applied records is a no-op.
        self.wal.medium().truncate();
        inner.ops_since_snapshot = 0;
        self.acked
            .store(self.appended.load(Ordering::Relaxed), Ordering::Relaxed);
        true
    }

    /// Log one op: apply to the shadow image, append + sync per policy,
    /// snapshot when due. Silently stops persisting after a crash — the
    /// calling collection keeps working in memory, exactly like a process
    /// whose disk died; the loss surfaces at recovery.
    fn record(&self, op: WalOp) {
        if self.replaying.load(Ordering::Relaxed) || self.failed.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        apply_op(&mut inner.mem, &op);
        let outcome = self.wal.append(&op);
        self.appends.inc();
        if !outcome.ok {
            self.failed.store(true, Ordering::Relaxed);
            return;
        }
        let appended = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
        if outcome.synced {
            self.synced_appends.inc();
            self.acked.store(appended, Ordering::Relaxed);
        }
        // Ship to the replication tap while still holding the write lock,
        // so replicas observe the exact primary WAL order.
        if let Some(observer) = self.observer.lock().clone() {
            observer.on_append(&op, outcome.synced);
        }
        inner.ops_since_snapshot += 1;
        if self.cfg.snapshot_every > 0 && inner.ops_since_snapshot >= self.cfg.snapshot_every {
            self.snapshot_locked(&mut inner);
        }
    }

    /// Reboot after a crash (or a clean shutdown): load the snapshot,
    /// replay the WAL up to the first torn record, revive the medium, and
    /// re-compact so the recovered state is immediately durable. The
    /// recovered image replaces the shadow store; feed it into a fresh
    /// [`Database`] with [`DurableBackend::restore_into`].
    pub fn recover(&self) -> RecoveryReport {
        let _span = self.tel.span(SpanKind::Db, "db:recover");
        // A crash inside a snapshot install leaves the staged image (the
        // `*.tmp` file) beside the WAL; it was never renamed into place, so
        // it is garbage — delete it before reading the published snapshot.
        let orphan_snapshots_removed = self.snap.discard_orphans();
        let mut image = StoreImage::new();
        let mut used_snapshot = false;
        if let Some(bytes) = self.snap.load() {
            if let Ok(base) = decode_store(&bytes) {
                image = base;
                used_snapshot = true;
            }
        }
        let wal_bytes = self.wal.medium().durable_image();
        let (ops, valid_wal_len, torn) = decode_records(&wal_bytes);
        for op in &ops {
            apply_op(&mut image, op);
        }
        if let Some(sim) = &self.sim {
            sim.revive();
        }
        self.failed.store(false, Ordering::Relaxed);
        self.appended.store(0, Ordering::Relaxed);
        self.acked.store(0, Ordering::Relaxed);
        let docs = image.values().map(|m| m.len()).sum();
        {
            let mut inner = self.inner.lock();
            inner.mem = image;
            self.snapshot_locked(&mut inner);
        }
        self.recoveries.inc();
        RecoveryReport {
            used_snapshot,
            wal_records_replayed: ops.len(),
            torn,
            valid_wal_len,
            docs,
            orphan_snapshots_removed,
        }
    }

    /// Replace the durable image wholesale and persist it as a snapshot.
    /// This is the replication promotion/rejoin seam: a freshly promoted
    /// primary installs the replica's converged image, and a demoted
    /// primary installs the truncated history it rejoined with — in both
    /// cases the new image must be immediately durable and must *not* be
    /// re-logged or re-shipped (it is already replicated state, not a
    /// client write). Returns `false` if the snapshot install failed.
    pub fn install_image(&self, image: StoreImage) -> bool {
        let mut inner = self.inner.lock();
        inner.mem = image;
        self.snapshot_locked(&mut inner)
    }

    /// Replay the recovered image into `db`'s collections (which should be
    /// backed by this very backend — the replay is not re-logged). Charged
    /// as ordinary inserts: recovery costs what the store says writes cost.
    pub fn restore_into(&self, db: &Database) {
        self.replaying.store(true, Ordering::Relaxed);
        let image = self.inner.lock().mem.clone();
        for (collection, docs) in image {
            let c = db.collection(&collection);
            for (key, doc) in docs {
                // A fresh database has no duplicates; ignore rather than
                // unwind half-restored.
                let _ = c.insert(&key, doc);
            }
        }
        self.replaying.store(false, Ordering::Relaxed);
    }
}

impl CustomBackend for DurableBackend {
    /// Durability does not change what an operation *costs* in virtual
    /// time: same calibrated SimDisk profile, so enabling the durable
    /// backend leaves every virtual-time figure bit-identical.
    fn cost_profile(&self, model: &CostModel) -> CostProfile {
        BackendKind::SimDisk.cost_profile(model)
    }

    fn on_write(&self, collection: &str, key: &str, doc: Option<&Element>) {
        let op = match doc {
            Some(doc) => WalOp::Put {
                collection: collection.to_owned(),
                key: key.to_owned(),
                doc: doc.clone(),
            },
            None => WalOp::Delete {
                collection: collection.to_owned(),
                key: key.to_owned(),
            },
        };
        self.record(op);
    }

    fn on_write_many(&self, collection: &str, entries: &[(String, Element)]) {
        // One record for the whole batch: all-or-nothing across a crash.
        self.record(WalOp::PutBatch {
            collection: collection.to_owned(),
            entries: entries.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::CrashPoint;
    use ogsa_sim::VirtualClock;

    fn doc(v: i64) -> Element {
        Element::new("counter").with_child(Element::text_element("value", v.to_string()))
    }

    fn durable_db(cfg: DurableConfig) -> (Database, Arc<DurableBackend>) {
        let backend = Arc::new(DurableBackend::sim(cfg));
        let db = Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(backend.clone()),
        );
        (db, backend)
    }

    fn no_snapshots() -> DurableConfig {
        DurableConfig {
            fsync: FsyncPolicy::PerWrite,
            snapshot_every: 0,
        }
    }

    #[test]
    fn writes_survive_recovery_into_a_fresh_database() {
        let (db, backend) = durable_db(no_snapshots());
        let c = db.collection("counters");
        c.insert("a", doc(1)).unwrap();
        c.insert("b", doc(2)).unwrap();
        c.update("a", doc(3)).unwrap();
        c.remove("b");
        assert_eq!(backend.acked_ops(), 4);

        let report = backend.recover();
        assert_eq!(report.wal_records_replayed, 4);
        assert_eq!(report.torn, None);
        assert_eq!(report.docs, 1);

        let (db2, _) = {
            let db2 = Database::new(
                VirtualClock::new(),
                Arc::new(CostModel::free()),
                BackendKind::Custom(backend.clone()),
            );
            backend.restore_into(&db2);
            (db2, ())
        };
        let c2 = db2.collection("counters");
        assert_eq!(c2.get("a").unwrap().child_parse::<i64>("value"), Some(3));
        assert!(c2.get("b").is_none());
    }

    #[test]
    fn restore_does_not_relog_the_replay() {
        let (db, backend) = durable_db(no_snapshots());
        db.collection("c").insert("k", doc(1)).unwrap();
        backend.recover();
        let wal_after_recovery = backend.wal_len();
        let db2 = Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(backend.clone()),
        );
        backend.restore_into(&db2);
        assert_eq!(
            backend.wal_len(),
            wal_after_recovery,
            "replayed inserts must not append to the WAL"
        );
        // New writes after the restore do log again.
        db2.collection("c").insert("k2", doc(2)).unwrap();
        assert!(backend.wal_len() > wal_after_recovery);
    }

    #[test]
    fn crash_then_recovery_loses_only_the_torn_tail() {
        let (db, backend) = durable_db(no_snapshots());
        let c = db.collection("counters");
        c.insert("a", doc(1)).unwrap();
        let safe_len = backend.wal_len();
        backend
            .sim_medium()
            .unwrap()
            .arm(CrashPoint::AtByte(safe_len + 10));
        c.insert("b", doc(2)).unwrap(); // tears mid-record
        assert!(backend.has_failed());
        c.insert("c", doc(3)).unwrap(); // after the crash: not persisted
        let report = backend.recover();
        assert_eq!(report.wal_records_replayed, 1);
        assert_eq!(report.docs, 1);
        assert!(!backend.has_failed());
    }

    #[test]
    fn snapshot_compacts_the_log_and_survives_recovery() {
        let (db, backend) = durable_db(DurableConfig {
            fsync: FsyncPolicy::PerWrite,
            snapshot_every: 4,
        });
        let c = db.collection("counters");
        for i in 0..10 {
            c.insert(&format!("k{i}"), doc(i)).unwrap();
        }
        // 10 ops, snapshots at 4 and 8: only 2 records remain in the log.
        let (ops, _, _) = decode_records(&backend.wal.medium().durable_image());
        assert_eq!(ops.len(), 2);
        let report = backend.recover();
        assert!(report.used_snapshot);
        assert_eq!(report.wal_records_replayed, 2);
        assert_eq!(report.docs, 10);
    }

    #[test]
    fn recovery_is_deterministic() {
        let build = || {
            let (db, backend) = durable_db(no_snapshots());
            let c = db.collection("counters");
            for i in 0..20 {
                c.insert(&format!("k{i}"), doc(i)).unwrap();
            }
            c.remove("k3");
            c.update("k4", doc(40)).unwrap();
            backend.recover();
            backend.encoded_image()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn cost_profile_mirrors_simdisk() {
        let backend = DurableBackend::sim(DurableConfig::default());
        let model = CostModel::calibrated_2005();
        assert_eq!(
            backend.cost_profile(&model),
            BackendKind::SimDisk.cost_profile(&model)
        );
    }

    #[test]
    fn never_policy_acks_only_via_snapshot() {
        let (db, backend) = durable_db(DurableConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        });
        let c = db.collection("counters");
        c.insert("a", doc(1)).unwrap();
        assert_eq!(backend.acked_ops(), 0);
        assert!(backend.snapshot_now());
        assert_eq!(backend.acked_ops(), 1);
    }

    #[test]
    fn file_backend_round_trips_through_real_files() {
        let dir = std::env::temp_dir().join(format!("ogsa-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let backend = Arc::new(DurableBackend::file(&dir, no_snapshots()).unwrap());
            let db = Database::new(
                VirtualClock::new(),
                Arc::new(CostModel::free()),
                BackendKind::Custom(backend.clone()),
            );
            db.collection("c").insert("k", doc(42)).unwrap();
        }
        // A brand-new backend over the same directory recovers the write.
        let backend = Arc::new(DurableBackend::file(&dir, no_snapshots()).unwrap());
        let report = backend.recover();
        assert_eq!(report.docs, 1);
        let db = Database::new(
            VirtualClock::new(),
            Arc::new(CostModel::free()),
            BackendKind::Custom(backend.clone()),
        );
        backend.restore_into(&db);
        assert_eq!(
            db.collection("c")
                .get("k")
                .unwrap()
                .child_parse::<i64>("value"),
            Some(42)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
