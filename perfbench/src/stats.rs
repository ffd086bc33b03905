//! Latency summaries. A timing is reported as its median and the highest
//! requested percentile that still has at least [`MIN_BEYOND`] samples
//! beyond it, always with the sample count it came from.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile actually reported (may be lower than requested).
    pub pct: f64,
    pub value: f64,
}

/// The highest percentile `<= want` with at least [`MIN_BEYOND`] samples
/// beyond it, for `n` samples: `want` itself when `n * (1 - want/100) >=
/// MIN_BEYOND`, else the whole percentile `floor(100 - 100*MIN_BEYOND/n)`.
/// `None` when even the median has too few samples beyond it.
pub fn tail_pct(n: usize, want: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let beyond = |p: f64| n as f64 * (1.0 - p / 100.0);
    if beyond(want) >= MIN_BEYOND as f64 - 1e-9 {
        return Some(want);
    }
    let p = (100.0 - 100.0 * MIN_BEYOND as f64 / n as f64).floor();
    (p >= 50.0).then_some(p)
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1]
}

/// Median and tail of a sample set.
#[derive(Debug, Clone)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: Quantile,
}

impl Summary {
    /// Summarise `samples` with the tail percentile capped at `want`.
    /// An empty set summarises to zeros with `count == 0`.
    pub fn of(mut samples: Vec<f64>, want: f64) -> Summary {
        samples.sort_by(|a, b| a.total_cmp(b));
        let count = samples.len();
        if count == 0 {
            return Summary {
                count,
                p50: 0.0,
                tail: Quantile {
                    pct: want,
                    value: 0.0,
                },
            };
        }
        let p50 = nearest_rank(&samples, 50.0);
        let pct = tail_pct(count, want).unwrap_or(50.0);
        Summary {
            count,
            p50,
            tail: Quantile {
                pct,
                value: nearest_rank(&samples, pct),
            },
        }
    }
}

/// Summaries of `(time, value)` samples cut by time into `n` equal
/// windows over `[0, span)`; samples outside are dropped.
pub fn windows(samples: &[(f64, f64)], span: f64, n: usize, want: f64) -> Vec<Summary> {
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, v) in samples {
        let i = (at / span * n as f64).floor();
        if i >= 0.0 && (i as usize) < n {
            bins[i as usize].push(v);
        }
    }
    bins.into_iter().map(|b| Summary::of(b, want)).collect()
}

/// Median of a small set (set-up repetitions); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_pct(1000, 99.0), Some(99.0));
        // 999 samples: p99 would leave 9.99; fall back to p98.
        assert_eq!(tail_pct(999, 99.0), Some(98.0));
        assert_eq!(tail_pct(100, 99.0), Some(90.0));
        assert_eq!(tail_pct(100, 90.0), Some(90.0));
        assert_eq!(tail_pct(20, 99.0), Some(50.0));
        // Too few for even a median with ten beyond.
        assert_eq!(tail_pct(19, 99.0), None);
        assert_eq!(tail_pct(0, 99.0), None);
    }

    #[test]
    fn summary_reports_the_capped_percentile_with_its_count() {
        let s = Summary::of((1..=100).map(f64::from).collect(), 99.0);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail.pct, 90.0);
        assert_eq!(s.tail.value, 90.0);
        // With enough samples the requested percentile stands, and exactly
        // ten samples lie beyond it.
        let s = Summary::of((1..=2000).map(f64::from).collect(), 99.0);
        assert_eq!(s.tail.pct, 99.0);
        assert_eq!(s.tail.value, 1980.0);
        assert_eq!(
            (1..=2000).filter(|v| f64::from(*v) > s.tail.value).count(),
            20
        );
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
