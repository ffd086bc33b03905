//! The metrics registry: monotonic counters and latency histograms, keyed
//! by name plus sorted labels.
//!
//! Keys render to the conventional `name{k=v,...}` form and live in
//! `BTreeMap`s, so snapshots iterate in a deterministic order — two runs of
//! the same seed serialise to identical JSON.
//!
//! Both metric kinds follow one rule: a series is the sum of its cells
//! ([`Counter`]s, or [`Histogram`]s merged bucket-wise) plus what the
//! name-resolving shortcut (`inc`/`add`, `observe`) recorded. Typed stats
//! structs and serving workers own cells resolved when they are built:
//! per-owner values without a key or a lock per record, while the series
//! keeps the total. Cells are independent atomics, so a snapshot is exact
//! once the writers are done (threads joined, `Network::quiesce`/`drain`
//! returned).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_sim::SimDuration;
use parking_lot::Mutex;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::wallclock::Exemplar;

/// A point-in-time copy of every counter and histogram.
///
/// `gauges` is populated only by [`MetricsRegistry::gather`] (set gauges +
/// registered collectors) and `exemplars` only by the scraper: the
/// deterministic [`MetricsRegistry::snapshot`] path never touches
/// live-observability state, so same-seed metric dumps stay byte-identical
/// whether or not an admin plane is scraping. (A plane-enabled server does
/// register wall-clock `serve.request_wall_us` cells, so byte-identical
/// dumps come from testbeds without one.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub gauges: BTreeMap<String, u64>,
    /// Exemplars per histogram series key, one slot per coarse bucket
    /// (the [`crate::ExemplarStore::snapshot`] layout); set at scrape time
    /// only, like gauges.
    pub exemplars: BTreeMap<String, Vec<Option<Exemplar>>>,
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

/// A series: what the name-resolving shortcut recorded, plus every cell
/// registered under the same key.
#[derive(Debug, Default)]
struct Series<C> {
    shortcut: C,
    cells: Vec<C>,
}

impl<C> Series<C> {
    fn all(&self) -> impl Iterator<Item = &C> {
        std::iter::once(&self.shortcut).chain(&self.cells)
    }
}

impl Series<Counter> {
    fn value(&self) -> u64 {
        self.all().map(Counter::get).sum()
    }
}

impl Series<Histogram> {
    fn merged(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for h in self.all() {
            out.merge(&h.snapshot());
        }
        out
    }
}

type SeriesMap<C> = Mutex<BTreeMap<String, Series<C>>>;

/// Register a new cell under a series (which appears, empty, from now on).
fn register<C: Clone + Default>(map: &SeriesMap<C>, name: &str, labels: &[(&str, &str)]) -> C {
    let cell = C::default();
    map.lock()
        .entry(series_key(name, labels))
        .or_default()
        .cells
        .push(cell.clone());
    cell
}

/// Apply `f` to a series' shortcut cell, resolving its key under the
/// registry lock.
fn shortcut<C: Default>(
    map: &SeriesMap<C>,
    name: &str,
    labels: &[(&str, &str)],
    f: impl FnOnce(&C),
) {
    let mut series = map.lock();
    f(&series.entry(series_key(name, labels)).or_default().shortcut);
}

/// Shared registry of counters and histograms. Cloning shares the store.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<MetricsInner>,
}

#[derive(Default)]
struct MetricsInner {
    counters: SeriesMap<Counter>,
    histograms: SeriesMap<Histogram>,
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
        register(&self.inner.counters, name, labels)
    }

    /// Register a new cell under a histogram series (which appears, empty,
    /// from now on) and hand it to its owner.
    pub fn histogram_cell(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        register(&self.inner.histograms, name, labels)
    }

    /// Add 1 to a counter series.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Add `delta` to a counter series, resolving its key under the
    /// registry lock: for cold sites with dynamic labels.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        shortcut(&self.inner.counters, name, labels, |c| c.add(delta));
    }

    /// Record one virtual-time observation in a histogram series,
    /// resolving its key under the registry lock: for cold sites with
    /// dynamic labels.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        shortcut(&self.inner.histograms, name, labels, |h| {
            h.record(d.as_micros())
        });
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
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(k, s)| (k.clone(), s.merged()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            ..MetricsSnapshot::default()
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
    fn a_histogram_series_merges_its_cells_and_shortcut() {
        let m = MetricsRegistry::new();
        let a = m.histogram_cell("lat", &[]);
        let b = m.histogram_cell("lat", &[]);
        let other = m.histogram_cell("lat", &[("worker", "1")]);
        assert_eq!(m.snapshot().histograms["lat"].count, 0, "registered empty");
        a.record(50);
        b.record(900);
        m.observe("lat", &[], SimDuration::from_micros(2_000_000));
        other.record(7);
        assert_eq!((a.count(), b.count()), (1, 1), "each cell is per owner");

        let h = &m.snapshot().histograms["lat"];
        assert_eq!((h.count, h.sum_us, h.max_us), (3, 2_000_950, 2_000_000));
        let global = Histogram::default();
        for us in [50, 900, 2_000_000] {
            global.record(us);
        }
        assert_eq!(*h, global.snapshot());
        assert_eq!(m.snapshot().histograms["lat{worker=1}"].count, 1);
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
