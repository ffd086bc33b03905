//! Property tests for histogram series made of registry cells: a series
//! snapshot — every cell merged, plus what the `observe` shortcut
//! recorded — must equal one histogram fed the same observations, for
//! **any** split of observations across owners. That is the claim that
//! lets each serving worker record into its own cell, lock-free, while
//! `/metrics` merges lazily at scrape time.

use ogsa_sim::SimDuration;
use ogsa_telemetry::prometheus::{parse_exposition, render};
use ogsa_telemetry::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Observed values over the full `u64` domain: 0 and `u64::MAX`
/// explicitly, and a random word shifted right by 0..64 bits, which lands
/// in every bucket group.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift),
    ]
}

/// Register `cells` cells under `lat_us`, then feed `obs`: owner `i`
/// records into cell `i` when it exists and through the `observe`
/// shortcut otherwise. Returns the registry and one histogram fed
/// everything.
fn feed(obs: &[(usize, u64)], cells: usize) -> (MetricsRegistry, Histogram) {
    let m = MetricsRegistry::new();
    let owned: Vec<Histogram> = (0..cells)
        .map(|_| m.histogram_cell("lat_us", &[]))
        .collect();
    let global = Histogram::default();
    for &(owner, us) in obs {
        match owned.get(owner) {
            Some(cell) => cell.record(us),
            None => m.observe("lat_us", &[], SimDuration::from_micros(us)),
        }
        global.record(us);
    }
    (m, global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_series_of_cells_and_shortcut_equals_one_histogram(
        // The relaxed `fetch_add` sum wraps modulo 2^64 on both sides
        // identically, so wrapped sums still compare equal; nothing may
        // panic or alias buckets.
        obs in proptest::collection::vec((0usize..9, value()), 0..400),
        cells in 1usize..8,
    ) {
        let (m, global) = feed(&obs, cells);
        prop_assert_eq!(&m.snapshot().histograms["lat_us"], &global.snapshot());
    }

    #[test]
    fn merge_is_order_independent(
        obs in proptest::collection::vec(0u64..10_000_000, 1..200),
    ) {
        // Forward vs reverse feed order, different owner assignment: the
        // series snapshot must be identical (counts are pure sums).
        let forward: Vec<_> = obs.iter().enumerate().map(|(i, us)| (i % 4, *us)).collect();
        let reverse: Vec<_> = obs.iter().rev().enumerate().map(|(i, us)| (i * 7 % 5, *us)).collect();
        let (a, _) = feed(&forward, 4);
        let (b, _) = feed(&reverse, 3);
        prop_assert_eq!(a.snapshot().histograms, b.snapshot().histograms);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max(
        obs in proptest::collection::vec((0usize..5, value()), 1..200),
        q_millis in 0u64..1001,
    ) {
        let q = q_millis as f64 / 1000.0;
        let (m, _) = feed(&obs, 3);
        let snap = &m.snapshot().histograms["lat_us"];
        let max = obs.iter().map(|(_, us)| *us).max().unwrap();
        prop_assert!(snap.quantile_us(q) <= max);
        prop_assert_eq!(snap.max_us, max);
    }

    #[test]
    fn the_series_renders_a_consistent_exposition(
        obs in proptest::collection::vec((0usize..5, value()), 0..200),
    ) {
        let (m, _) = feed(&obs, 3);
        let text = render(&m.gather());
        let exp = parse_exposition(&text).expect("exposition parses");
        exp.check_histograms().expect("cumulative + consistent");
        let count = exp.get("lat_us_count", &[]).expect("count sample");
        prop_assert_eq!(count.value as u64, obs.len() as u64);
    }
}
