//! Round and byte accounting for protocol runs.
//!
//! A *round* is one client→server request plus its server→client response —
//! the unit Table 1 counts ("two rounds" for Scheme 1's search, "one round"
//! for Scheme 2's). Byte counters separate uplink (client→server) from
//! downlink traffic, which is what distinguishes the schemes' update
//! bandwidth (experiment E4).
//!
//! The meter is cheap, thread-safe and cloneable: clones share counters, so
//! a link and the experiment harness observe the same totals.

use parking_lot::Mutex;
use std::sync::Arc;

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Completed request/response rounds.
    pub rounds: u64,
    /// Bytes sent client→server.
    pub bytes_up: u64,
    /// Bytes sent server→client.
    pub bytes_down: u64,
}

impl MeterSnapshot {
    /// Counter deltas from `earlier` to `self`.
    #[must_use]
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            rounds: self.rounds - earlier.rounds,
            bytes_up: self.bytes_up - earlier.bytes_up,
            bytes_down: self.bytes_down - earlier.bytes_down,
        }
    }

    /// Total bytes in both directions.
    #[must_use]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

/// Shared round/byte counters.
#[derive(Clone, Default)]
pub struct Meter {
    inner: Arc<Mutex<MeterSnapshot>>,
}

impl Meter {
    /// A meter with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed round with the given request/response sizes.
    pub fn record_round(&self, request_bytes: usize, response_bytes: usize) {
        let mut m = self.inner.lock();
        m.rounds += 1;
        m.bytes_up += request_bytes as u64;
        m.bytes_down += response_bytes as u64;
    }

    /// Current counter values.
    #[must_use]
    pub fn snapshot(&self) -> MeterSnapshot {
        *self.inner.lock()
    }

    /// Zero the counters.
    pub fn reset(&self) {
        *self.inner.lock() = MeterSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_rounds_and_bytes() {
        let m = Meter::new();
        m.record_round(100, 2000);
        m.record_round(50, 10);
        let s = m.snapshot();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.bytes_up, 150);
        assert_eq!(s.bytes_down, 2010);
        assert_eq!(s.bytes_total(), 2160);
    }

    #[test]
    fn clones_share_counters() {
        let m = Meter::new();
        let m2 = m.clone();
        m2.record_round(1, 1);
        assert_eq!(m.snapshot().rounds, 1);
    }

    #[test]
    fn snapshot_diff() {
        let m = Meter::new();
        m.record_round(10, 10);
        let before = m.snapshot();
        m.record_round(5, 7);
        m.record_round(5, 7);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.rounds, 2);
        assert_eq!(delta.bytes_up, 10);
        assert_eq!(delta.bytes_down, 14);
    }

    #[test]
    fn reset_zeroes() {
        let m = Meter::new();
        m.record_round(9, 9);
        m.reset();
        assert_eq!(m.snapshot(), MeterSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let m = Meter::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_round(3, 5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.rounds, 8000);
        assert_eq!(s.bytes_up, 24_000);
        assert_eq!(s.bytes_down, 40_000);
    }
}
