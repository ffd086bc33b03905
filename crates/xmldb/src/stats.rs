//! Operation counters, used by the ablation benches to show *why* one stack
//! is faster (e.g. counting the extra read WS-Transfer's Put performs), and
//! per-shard accounting used by the throughput harness to model how far the
//! store can be parallelised.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_telemetry::{Counter, MetricsRegistry};
use parking_lot::Mutex;

/// Upper bound on the shard count of any collection; the per-shard busy
/// accounting below is statically sized to it.
pub const MAX_SHARDS: usize = 64;

/// Shared, lock-free operation counters for a database.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    inner: Arc<Counters>,
}

#[derive(Debug)]
struct Counters {
    reads: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Each collection's contention cell: times a shard lock was found
    /// held and the caller had to wait.
    contention: Mutex<Vec<Counter>>,
    /// Virtual microseconds of database work attributed to each shard.
    /// Independent shards could serve this work in parallel, so
    /// `max(shard_busy)` lower-bounds the store's contribution to makespan.
    shard_busy_us: [AtomicU64; MAX_SHARDS],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            reads: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            contention: Mutex::new(Vec::new()),
            shard_busy_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

macro_rules! counter {
    ($bump:ident, $get:ident, $field:ident) => {
        pub fn $bump(&self) {
            self.inner.$field.fetch_add(1, Ordering::Relaxed);
        }
        pub fn $get(&self) -> u64 {
            self.inner.$field.load(Ordering::Relaxed)
        }
    };
}

impl DbStats {
    pub fn new() -> Self {
        Self::default()
    }

    counter!(bump_reads, reads, reads);
    counter!(bump_inserts, inserts, inserts);
    counter!(bump_updates, updates, updates);
    counter!(bump_deletes, deletes, deletes);
    counter!(bump_queries, queries, queries);
    counter!(bump_cache_hits, cache_hits, cache_hits);
    counter!(bump_cache_misses, cache_misses, cache_misses);

    /// Register a collection's `db.shard_contention{collection}` cell,
    /// counted into [`DbStats::lock_contentions`].
    pub(crate) fn contention_cell(&self, metrics: &MetricsRegistry, collection: &str) -> Counter {
        let cell = metrics.cell("db.shard_contention", &[("collection", collection)]);
        self.inner.contention.lock().push(cell.clone());
        cell
    }

    /// Contended shard-lock acquisitions, summed over the collections.
    pub fn lock_contentions(&self) -> u64 {
        self.inner.contention.lock().iter().map(Counter::get).sum()
    }

    /// Attribute `us` virtual microseconds of store work to `shard`.
    pub fn add_shard_busy(&self, shard: usize, us: u64) {
        self.inner.shard_busy_us[shard % MAX_SHARDS].fetch_add(us, Ordering::Relaxed);
    }

    /// Busy time attributed to one shard so far.
    pub fn shard_busy_us(&self, shard: usize) -> u64 {
        self.inner.shard_busy_us[shard % MAX_SHARDS].load(Ordering::Relaxed)
    }

    /// Busy time per shard for the first `shards` shards.
    pub fn shard_busy_snapshot(&self, shards: usize) -> Vec<u64> {
        (0..shards.min(MAX_SHARDS))
            .map(|i| self.shard_busy_us(i))
            .collect()
    }

    /// Total store busy time across all shards.
    pub fn total_busy_us(&self) -> u64 {
        self.inner
            .shard_busy_us
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero every counter, including the per-shard busy accounting. The
    /// clones-share-state property means one reset is visible to every
    /// holder — collections created before the reset keep accumulating
    /// into the freshly zeroed counters.
    pub fn reset(&self) {
        self.inner.reads.store(0, Ordering::Relaxed);
        self.inner.inserts.store(0, Ordering::Relaxed);
        self.inner.updates.store(0, Ordering::Relaxed);
        self.inner.deletes.store(0, Ordering::Relaxed);
        self.inner.queries.store(0, Ordering::Relaxed);
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.cache_misses.store(0, Ordering::Relaxed);
        for c in self.inner.contention.lock().iter() {
            c.reset();
        }
        for b in &self.inner.shard_busy_us {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot all scalar counters as (name, value) pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reads", self.reads()),
            ("inserts", self.inserts()),
            ("updates", self.updates()),
            ("deletes", self.deletes()),
            ("queries", self.queries()),
            ("cache_hits", self.cache_hits()),
            ("cache_misses", self.cache_misses()),
            ("lock_contentions", self.lock_contentions()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DbStats::new();
        s.bump_reads();
        s.bump_reads();
        s.bump_inserts();
        assert_eq!(s.reads(), 2);
        assert_eq!(s.inserts(), 1);
        assert_eq!(s.updates(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let s = DbStats::new();
        let t = s.clone();
        t.bump_queries();
        assert_eq!(s.queries(), 1);
    }

    #[test]
    fn snapshot_covers_everything() {
        let s = DbStats::new();
        s.bump_cache_hits();
        let snap = s.snapshot();
        assert_eq!(snap.len(), 8);
        assert!(snap.contains(&("cache_hits", 1)));
        assert!(snap.contains(&("lock_contentions", 0)));
    }

    #[test]
    fn shard_busy_accumulates_per_shard() {
        let s = DbStats::new();
        s.add_shard_busy(0, 100);
        s.add_shard_busy(3, 40);
        s.add_shard_busy(3, 2);
        assert_eq!(s.shard_busy_us(0), 100);
        assert_eq!(s.shard_busy_us(3), 42);
        assert_eq!(s.shard_busy_snapshot(4), vec![100, 0, 0, 42]);
        assert_eq!(s.total_busy_us(), 142);
    }

    #[test]
    fn reset_zeroes_every_counter_for_every_holder() {
        let s = DbStats::new();
        let clone = s.clone();
        s.bump_reads();
        s.bump_cache_hits();
        s.contention_cell(&MetricsRegistry::new(), "c").inc();
        assert_eq!(s.lock_contentions(), 1);
        s.add_shard_busy(2, 99);
        clone.reset();
        assert!(s.snapshot().iter().all(|(_, v)| *v == 0));
        assert_eq!(s.total_busy_us(), 0);
        // The shared counters keep working after the reset.
        s.bump_reads();
        assert_eq!(clone.reads(), 1);
    }

    #[test]
    fn shard_index_wraps_at_max() {
        let s = DbStats::new();
        s.add_shard_busy(MAX_SHARDS + 1, 7);
        assert_eq!(s.shard_busy_us(1), 7);
    }
}
