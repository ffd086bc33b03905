//! Wall-clock instrumentation that coexists with virtual time.
//!
//! Everything in this module reads the **host clock**, never the
//! virtual one, and none of it feeds the paper-invariant figures: they
//! and the deterministic JSONL span dumps are produced exclusively from
//! virtual-time state, so a run observed through this module is
//! byte-identical to one that is not.
//!
//! * [`wall_now_us`] — the monotonic host-clock stamp of spans and
//!   exemplars.
//! * [`ExemplarStore`] — latest slow-request exemplar per coarse
//!   Prometheus bucket, linking a histogram bucket to a flight-recorder
//!   trace.

use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::histogram::{prom_bucket_of, WALL_PROM_BUCKETS_US};

/// Microseconds of monotonic wall time since the first call in this
/// process. Monotonic and cheap; used to stamp spans and exemplars.
pub fn wall_now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One retained slow-request reference attached to a histogram bucket:
/// enough to find the full span tree in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Flight-recorder sequence number of the retained trace.
    pub seq: u64,
    pub latency_us: u64,
    /// [`wall_now_us`] stamp at retention time.
    pub at_wall_us: u64,
}

/// Latest exemplar per coarse Prometheus bucket (including `+Inf`).
/// Written only for slow requests — off the common hot path — so a tiny
/// mutex per slot is fine.
#[derive(Debug, Default)]
pub struct ExemplarStore {
    slots: [Mutex<Option<Exemplar>>; WALL_PROM_BUCKETS_US.len() + 1],
}

impl ExemplarStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach `seq` as the exemplar for the bucket holding `latency_us`.
    pub fn note(&self, latency_us: u64, seq: u64) {
        *self.slots[prom_bucket_of(latency_us)].lock() = Some(Exemplar {
            seq,
            latency_us,
            at_wall_us: wall_now_us(),
        });
    }

    /// Current exemplar per bucket, `+Inf` last.
    pub fn snapshot(&self) -> Vec<Option<Exemplar>> {
        self.slots.iter().map(|s| *s.lock()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplars_land_in_their_bucket() {
        let store = ExemplarStore::new();
        store.note(40, 1); // bucket 0 (≤50)
        store.note(999, 2); // ≤1000
        store.note(30_000_000, 3); // +Inf
        let snap = store.snapshot();
        assert_eq!(snap[0].unwrap().seq, 1);
        assert_eq!(snap[prom_bucket_of(999)].unwrap().seq, 2);
        assert_eq!(snap[WALL_PROM_BUCKETS_US.len()].unwrap().seq, 3);
        assert_eq!(snap.iter().flatten().count(), 3);
    }

    #[test]
    fn wall_now_is_monotone() {
        let a = wall_now_us();
        let b = wall_now_us();
        assert!(b >= a);
    }
}
