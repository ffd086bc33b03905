//! The one histogram type, over microseconds of virtual or wall time.
//!
//! * [`bucket_of`]/[`bucket_floor`] — the log-bucket scheme (power-of-two
//!   groups split into 32 sub-buckets, ≤ ~3% relative error, 2048 fixed
//!   buckets).
//! * [`Histogram`] — one histogram cell: relaxed atomics, no locks on the
//!   record path. Bucket storage is allocated one 32-bucket group at a
//!   time, on the first record into that group, so a cold series costs
//!   about a kilobyte instead of 16 KB. The registry hands cells to their
//!   owners (each serving worker records into its own) and merges a
//!   series' cells only at snapshot time.
//! * [`HistogramSnapshot`] — a point-in-time copy of one cell or a merge.
//!   Merging cells is equivalent to having recorded every observation into
//!   a single histogram (the counts are per-bucket sums), a property the
//!   test suite checks for arbitrary splits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Sub-bucket bits of the log-bucket scheme: each power-of-two group is
/// split into `2^SUB_BITS` equal sub-buckets.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Fixed bucket count; everything above the last bucket clamps into it.
pub const WALL_BUCKETS: usize = 2048;
/// Lazily allocated bucket groups per cell.
const GROUPS: usize = WALL_BUCKETS >> SUB_BITS;

/// Coarse bucket upper bounds (microseconds) for the Prometheus exposition
/// and the metrics JSON of every histogram; an implicit `+Inf` bucket
/// follows. Exemplars attach at this granularity.
pub const WALL_PROM_BUCKETS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Index of the log bucket holding `us`.
pub fn bucket_of(us: u64) -> usize {
    let v = us.max(1);
    let msb = 63 - v.leading_zeros() as u64;
    if msb <= SUB_BITS as u64 {
        v as usize
    } else {
        let shift = msb - SUB_BITS as u64;
        let sub = (v >> shift) & (SUB - 1);
        (((msb - SUB_BITS as u64) << SUB_BITS) + SUB + sub) as usize
    }
}

/// Smallest value mapping to log bucket `idx` (quantiles report this
/// floor, ≤ ~3% below the true value).
///
/// Saturates at `u64::MAX` for the tail of the fixed bucket range that no
/// real value can reach: `bucket_of` tops out at bucket 1919 (the group of
/// `u64::MAX`), but callers iterate indices up to [`WALL_BUCKETS`], and
/// the unsaturated shift `(SUB + sub) << g` overflows from group 59
/// (idx ≥ 1920) — a debug-build panic in scrape paths that walk the whole
/// bucket array.
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < (2 * SUB as usize) {
        idx as u64
    } else {
        let g = ((idx >> SUB_BITS) - 1) as u32;
        let sub = (idx & (SUB as usize - 1)) as u64;
        let base = SUB + sub;
        // `base << g` fits iff the shift stays within base's leading
        // zeros; past that the true floor exceeds u64 — clamp.
        if g > base.leading_zeros() {
            u64::MAX
        } else {
            base << g
        }
    }
}

/// Index of the coarse Prometheus bucket holding `us`
/// (`WALL_PROM_BUCKETS_US.len()` = the `+Inf` bucket).
pub fn prom_bucket_of(us: u64) -> usize {
    WALL_PROM_BUCKETS_US
        .iter()
        .position(|&bound| us <= bound)
        .unwrap_or(WALL_PROM_BUCKETS_US.len())
}

type Group = [AtomicU64; SUB as usize];

/// One histogram cell, summed into the series it was registered under by
/// [`crate::MetricsRegistry::histogram_cell`] (or a private one, when
/// built with `default()`). `record` is the hot path: one group lookup (a
/// single acquire load once the group exists), then four relaxed atomic
/// RMWs; no locks. Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Histogram(Arc<Cell>);

struct Cell {
    /// Bucket storage, one group per slot, allocated by the first record
    /// into it. A record racing that first one on the same cell waits for
    /// the allocation; cells are per owner, so that race is rare.
    groups: [OnceLock<Box<Group>>; GROUPS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            groups: std::array::from_fn(|_| OnceLock::new()),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation. Safe from any thread.
    pub fn record(&self, us: u64) {
        let idx = bucket_of(us).min(WALL_BUCKETS - 1);
        let group = self.0.groups[idx >> SUB_BITS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        group[idx & (SUB as usize - 1)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
        self.0.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Copy the current state out (scrape time only — never on the
    /// request path).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = Vec::new();
        for (g, slot) in self.0.groups.iter().enumerate() {
            if let Some(group) = slot.get() {
                counts.resize(g << SUB_BITS, 0);
                counts.extend(group.iter().map(|c| c.load(Ordering::Relaxed)));
            }
        }
        while counts.last() == Some(&0) {
            counts.pop();
        }
        HistogramSnapshot {
            counts,
            count: self.0.count.load(Ordering::Relaxed),
            sum_us: self.0.sum_us.load(Ordering::Relaxed),
            max_us: self.0.max_us.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

/// A point-in-time copy of a histogram (one cell or a merged series).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per log bucket, trailing empty buckets trimmed, so equal
    /// contents compare equal however the cells were split.
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum_us: u64,
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Fold another snapshot in (bucket-wise sums, max of maxima). The
    /// sum is modular, matching the cells' relaxed `fetch_add`: a merge of
    /// wrapped cell sums equals the wrapped global sum, rather than
    /// panicking in debug builds on extreme observations.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.wrapping_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in [0, 1]: the floor of the bucket holding
    /// the q-th observation, capped at the maximum (0 shares bucket 1).
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Cumulative counts per coarse Prometheus bound, plus the `+Inf`
    /// total as the last element.
    pub fn prom_cumulative(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(WALL_PROM_BUCKETS_US.len() + 1);
        let mut acc = 0u64;
        let mut idx = 0usize;
        for &bound in WALL_PROM_BUCKETS_US.iter() {
            while idx < self.counts.len() && bucket_floor(idx) <= bound {
                // A log bucket belongs to the coarse bound its *floor*
                // falls under: the ≤3% skew is the histogram's documented
                // resolution (1001 µs counts under `le="1000"`).
                acc += self.counts[idx];
                idx += 1;
            }
            out.push(acc);
        }
        out.push(self.count);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_with_tight_floors() {
        let mut last = 0;
        for v in [1u64, 2, 31, 32, 63, 64, 100, 1000, 65_535, 1 << 20, 1 << 40] {
            let idx = bucket_of(v);
            assert!(idx >= last, "bucket_of not monotone at {v}");
            last = idx;
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert!(
                (v - floor) as f64 <= v as f64 / 32.0 + 1.0,
                "floor {floor} too far below {v}"
            );
        }
    }

    #[test]
    fn quantiles_come_from_the_right_tail() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile_us(0.50), 100);
        assert!(snap.quantile_us(0.99) <= 100_000);
        let p999 = snap.quantile_us(0.999);
        assert!(p999 > 90_000, "p999 {p999} missed the outlier");
        assert_eq!(snap.max_us, 100_000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.quantile_us(0.99), 0);
        assert_eq!(snap.mean_us(), 0);
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn groups_are_allocated_on_first_record_only() {
        let h = Histogram::default();
        let allocated = || h.0.groups.iter().filter(|g| g.get().is_some()).count();
        assert_eq!(allocated(), 0);
        h.record(40);
        h.record(41);
        assert_eq!(allocated(), 1);
        h.record(1_000_000);
        assert_eq!(allocated(), 2);
        // Counts stop at the last non-empty bucket.
        assert_eq!(h.snapshot().counts.len(), bucket_of(1_000_000) + 1);
    }

    #[test]
    fn extreme_values_record_without_panicking_or_aliasing() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_us, u64::MAX);
        // 0 clamps into the first real bucket; u64::MAX lands in the top
        // reachable bucket (1919), far from the 0 end — no aliasing.
        assert_ne!(bucket_of(0), bucket_of(u64::MAX));
        assert_eq!(bucket_of(u64::MAX), 1919);
        assert!(bucket_of(u64::MAX) < WALL_BUCKETS);
        // sum wraps (relaxed fetch_add is modular); the histogram must not
        // misreport count or buckets because of it.
        h.record(u64::MAX);
        assert_eq!(h.snapshot().count, 3);

        let zeros = Histogram::default();
        zeros.record(0);
        assert_eq!(zeros.snapshot().quantile_us(0.5), 0, "capped at the max");
    }

    #[test]
    fn top_bucket_round_trips_and_floor_saturates_past_it() {
        // The top reachable bucket round-trips exactly.
        let top = bucket_of(u64::MAX);
        let floor = bucket_floor(top);
        assert_eq!(bucket_of(floor), top);
        // Every index in the fixed range has a non-panicking floor, the
        // floors are monotone, and the unreachable tail saturates.
        let mut last = 0u64;
        for idx in 0..WALL_BUCKETS {
            let f = bucket_floor(idx);
            assert!(f >= last, "floor not monotone at {idx}");
            last = f;
        }
        assert_eq!(bucket_floor(WALL_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_floor(1920), u64::MAX, "first overflowing group");
        // The last non-saturated floor is the top bucket's.
        assert!(bucket_floor(1919) < u64::MAX);
    }

    #[test]
    fn cell_merge_equals_global() {
        let cells: Vec<Histogram> = (0..4).map(|_| Histogram::default()).collect();
        let global = Histogram::default();
        // A spread of values round-robined across cells.
        for (i, us) in [3u64, 50, 999, 1_000, 12_345, 1 << 22, 7, 7, 7, 250_001]
            .iter()
            .cycle()
            .take(1000)
            .enumerate()
        {
            cells[i % cells.len()].record(*us);
            global.record(*us);
        }
        let mut merged = HistogramSnapshot::default();
        for c in &cells {
            merged.merge(&c.snapshot());
        }
        assert_eq!(merged, global.snapshot());
    }

    #[test]
    fn prom_cumulative_is_monotone_and_totals() {
        let h = Histogram::default();
        for us in [10u64, 60, 600, 6_000, 60_000, 600_000, 6_000_000] {
            h.record(us);
        }
        let cum = h.snapshot().prom_cumulative();
        assert_eq!(cum.len(), WALL_PROM_BUCKETS_US.len() + 1);
        assert!(
            cum.windows(2).all(|w| w[0] <= w[1]),
            "not cumulative: {cum:?}"
        );
        assert_eq!(*cum.last().unwrap(), 7, "+Inf must count everything");
        // 10 ≤ 50, 60 ≤ 100, ..., 6_000_000 only in +Inf.
        assert_eq!(cum[0], 1);
        assert_eq!(cum[1], 2);
        assert_eq!(cum[WALL_PROM_BUCKETS_US.len() - 1], 6);
    }
}
