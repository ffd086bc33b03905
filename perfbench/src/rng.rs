//! Seeded input generation. Every input of a run (counter picks, values,
//! stack order, file sizes, job runtimes) is drawn from a [`SplitMix64`]
//! stream keyed by the run's `--seed` and a fixed stream label, so the
//! same seed replays the same inputs.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `stream` (a thread index, a phase label hashed to a number).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64 {
            state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform index into a slice of length `n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_repeat_different_streams_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7, 1);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7, 1);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(7, 2);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1, 0);
        for n in [1u64, 2, 3, 10, 10_000] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
    }
}
