//! The metrics registry: monotonic counters and virtual-time latency
//! histograms, keyed by name plus sorted labels.
//!
//! Keys render to the conventional `name{k=v,...}` form and live in
//! `BTreeMap`s, so snapshots iterate in a deterministic order — two runs of
//! the same seed serialise to identical JSON.
//!
//! A counter series is the sum of its [`Counter`] cells. Typed stats
//! structs own cells resolved when they are built: per-object values
//! without a key or a lock per add, while the series keeps the total.
//! Cells are independent atomics, so a snapshot is exact once the writers
//! are done (threads joined, `Network::quiesce`/`drain` returned).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_sim::SimDuration;
use parking_lot::Mutex;

/// Histogram bucket upper bounds, in virtual microseconds. Chosen to bracket
/// the paper's operation range: sub-millisecond cache hits up to multi-second
/// X.509 grid steps.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// A fixed-bucket latency histogram over virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    /// One count per bound in [`LATENCY_BUCKETS_US`], plus an overflow slot.
    pub buckets: [u64; LATENCY_BUCKETS_US.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; LATENCY_BUCKETS_US.len() + 1],
        }
    }
}

impl Histogram {
    fn observe(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx] += 1;
    }

    /// Mean observation in virtual milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1000.0
        }
    }
}

/// A point-in-time copy of every counter and histogram.
///
/// `gauges` is populated only by [`MetricsRegistry::gather`] (set gauges +
/// registered collectors): the deterministic [`MetricsRegistry::snapshot`]
/// path never touches live-observability state, so same-seed metric dumps
/// stay byte-identical whether or not an admin plane is scraping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Value of one rendered counter key (`name{k=v,...}`), 0 if absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every counter series with this metric name, across all label
    /// sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| in_family(k, name))
            .map(|(_, v)| v)
            .sum()
    }

    /// Value of one rendered gauge key, 0 if absent (gauges only exist on
    /// [`MetricsRegistry::gather`] snapshots).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Record a gauge value directly on this snapshot — how registered
    /// collectors contribute.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.gauges.insert(series_key(name, labels), value);
    }
}

/// A scrape-time callback contributing gauges (or late counters) to a
/// [`MetricsRegistry::gather`] snapshot — the seam through which xmldb shard
/// stats and serve worker state appear in `/metrics` without those crates
/// depending on each other.
pub type Collector = Box<dyn Fn(&mut MetricsSnapshot) + Send + Sync>;

/// Is `key` a series of the metric `name` (bare, or with labels)?
fn in_family(key: &str, name: &str) -> bool {
    key.strip_prefix(name)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
}

/// One pre-resolved counter cell, summed into the series it was registered
/// under by [`MetricsRegistry::cell`]. Adding is one relaxed atomic add:
/// the count publishes no other data. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero this cell; its series drops by the cell's value. For typed
    /// stats that start a fresh measurement window.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A counter series: what the `inc`/`add` shortcut added, plus every cell
/// registered under the same key.
#[derive(Debug, Default)]
struct Series {
    shortcut: u64,
    cells: Vec<Counter>,
}

impl Series {
    fn value(&self) -> u64 {
        self.cells.iter().map(Counter::get).sum::<u64>() + self.shortcut
    }
}

/// Shared registry of counters and histograms. Cloning shares the store.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<MetricsInner>,
}

#[derive(Default)]
struct MetricsInner {
    counters: Mutex<BTreeMap<String, Series>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Last-write-wins point-in-time values; only surfaced by `gather`.
    gauges: Mutex<BTreeMap<String, u64>>,
    /// Scrape-time contributors; only run by `gather`.
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsInner")
            .field("counters", &self.counters)
            .field("histograms", &self.histograms)
            .field("gauges", &self.gauges)
            .field("collectors", &self.collectors.lock().len())
            .finish()
    }
}

/// `name{k=v,...}` with labels sorted by key — the canonical series key.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort();
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new cell under a counter series (which appears, at 0,
    /// from now on) and hand it to its owner.
    pub fn cell(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = Counter::default();
        self.inner
            .counters
            .lock()
            .entry(series_key(name, labels))
            .or_default()
            .cells
            .push(cell.clone());
        cell
    }

    /// Add 1 to a counter series.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Add `delta` to a counter series, resolving its key under the
    /// registry lock: for cold sites with dynamic labels.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.inner
            .counters
            .lock()
            .entry(series_key(name, labels))
            .or_default()
            .shortcut += delta;
    }

    /// Current value of a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.inner
            .counters
            .lock()
            .get(&series_key(name, labels))
            .map_or(0, Series::value)
    }

    /// Sum of every counter series with this metric name, across all label
    /// sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .iter()
            .filter(|(k, _)| in_family(k, name))
            .map(|(_, s)| s.value())
            .sum()
    }

    /// Record one virtual-time observation in a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        self.inner
            .histograms
            .lock()
            .entry(series_key(name, labels))
            .or_default()
            .observe(d.as_micros());
    }

    /// Current state of a histogram series, if it has observations.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        self.inner
            .histograms
            .lock()
            .get(&series_key(name, labels))
            .cloned()
    }

    /// Set a gauge series to a point-in-time value (last write wins).
    /// Gauges are live-observability state: they appear only on
    /// [`MetricsRegistry::gather`] snapshots, never on deterministic
    /// [`MetricsRegistry::snapshot`]s.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.inner
            .gauges
            .lock()
            .insert(series_key(name, labels), value);
    }

    /// Register a scrape-time collector run by every
    /// [`MetricsRegistry::gather`] call.
    pub fn register_collector(&self, f: impl Fn(&mut MetricsSnapshot) + Send + Sync + 'static) {
        self.inner.collectors.lock().push(Box::new(f));
    }

    /// A deterministic-order copy of every counter and histogram, exact
    /// once the writers are done (see the module docs).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|(k, s)| (k.clone(), s.value()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms: self.inner.histograms.lock().clone(),
            gauges: BTreeMap::new(),
        }
    }

    /// The scrape view: [`MetricsRegistry::snapshot`] plus set gauges plus
    /// every registered collector's contribution. This is what `/metrics`
    /// renders; the deterministic snapshot path is untouched by it.
    pub fn gather(&self) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        snap.gauges = self.inner.gauges.lock().clone();
        // Collectors run outside the data locks: they may read other
        // subsystems (db stats, worker state) and re-enter set_gauge.
        let collectors = self.inner.collectors.lock();
        for f in collectors.iter() {
            f(&mut snap);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keys_sort_labels() {
        assert_eq!(series_key("hits", &[]), "hits");
        assert_eq!(
            series_key("hits", &[("z", "1"), ("a", "2")]),
            "hits{a=2,z=1}"
        );
        assert_eq!(
            series_key("hits", &[("a", "2"), ("z", "1")]),
            "hits{a=2,z=1}"
        );
    }

    #[test]
    fn counters_accumulate_per_series() {
        let m = MetricsRegistry::new();
        m.inc("msgs", &[("stack", "wsrf")]);
        m.inc("msgs", &[("stack", "wsrf")]);
        m.add("msgs", &[("stack", "wxf")], 5);
        assert_eq!(m.counter("msgs", &[("stack", "wsrf")]), 2);
        assert_eq!(m.counter("msgs", &[("stack", "wxf")]), 5);
        assert_eq!(m.counter("msgs", &[]), 0);
        assert_eq!(m.snapshot().counter_total("msgs"), 7);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let m = MetricsRegistry::new();
        for us in [50, 900, 2_000_000] {
            m.observe("lat", &[], SimDuration::from_micros(us));
        }
        let h = m.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min_us, 50);
        assert_eq!(h.max_us, 2_000_000);
        assert_eq!(h.buckets[0], 1); // <=100
        assert_eq!(h.buckets[3], 1); // <=1000
        assert_eq!(h.buckets[LATENCY_BUCKETS_US.len()], 1); // overflow
        assert!((h.mean_ms() - (2_000_950.0 / 3.0 / 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let m = MetricsRegistry::new();
        m.inc("b", &[]);
        m.inc("a", &[("x", "1")]);
        let keys: Vec<_> = m.snapshot().counters.keys().cloned().collect();
        assert_eq!(keys, ["a{x=1}", "b"]);
    }

    #[test]
    fn a_series_is_the_sum_of_its_cells_and_shortcut_adds() {
        let m = MetricsRegistry::new();
        let a = m.cell("reqs", &[]);
        let b = m.cell("reqs", &[]);
        let other = m.cell("reqs", &[("status", "404")]);
        assert_eq!(m.snapshot().counter("reqs"), 0, "registered at 0");
        a.add(2);
        b.inc();
        m.inc("reqs", &[]);
        other.inc();
        assert_eq!((a.get(), b.get()), (2, 1), "each cell is per owner");
        assert_eq!(m.counter("reqs", &[]), 4);
        assert_eq!(m.counter_total("reqs"), 5);
        assert_eq!(m.snapshot().counter_total("reqs"), 5);
        assert_eq!(m.counter_total("req"), 0, "a prefix is not a family");
        a.reset();
        assert_eq!(m.counter("reqs", &[]), 2);
    }

    #[test]
    fn clones_share_state() {
        let m = MetricsRegistry::new();
        m.clone().inc("n", &[]);
        assert_eq!(m.counter("n", &[]), 1);
    }

    #[test]
    fn gauges_and_collectors_appear_only_on_gather() {
        let m = MetricsRegistry::new();
        m.inc("hits", &[]);
        m.set_gauge("queue.depth", &[("worker", "0")], 7);
        m.register_collector(|snap| snap.set_gauge("db.shards", &[], 4));

        let det = m.snapshot();
        assert!(
            det.gauges.is_empty(),
            "deterministic snapshot has no gauges"
        );

        let live = m.gather();
        assert_eq!(live.gauge("queue.depth{worker=0}"), 7);
        assert_eq!(live.gauge("db.shards"), 4);
        assert_eq!(live.counter("hits"), 1, "counters ride along");
        // Last write wins.
        m.set_gauge("queue.depth", &[("worker", "0")], 2);
        assert_eq!(m.gather().gauge("queue.depth{worker=0}"), 2);
    }
}
