//! Deterministic network fault injection for [`crate::link::Transport`]s.
//!
//! [`FaultyLink`] wraps any transport and perturbs whole protocol rounds on
//! a seeded schedule: a round can be **dropped** (request never sent),
//! **truncated** (request delivered and executed, response lost),
//! **duplicated** (response frame delivered twice; the copy is detected and
//! discarded) or **delayed** (bounded sleep, then delivered). The schedule
//! is a pure function of `(seed, round_number)`, so a failing test seed
//! reproduces exactly.
//!
//! Fault semantics respect the at-most-once transport contract: a faulty
//! round either surfaces a clean error to the caller or delivers the
//! correct response — never a silently wrong answer, and never a hidden
//! retransmission (the SSE index mutations are not idempotent; re-sending
//! an `ApplyUpdates` would XOR-cancel it).

use crate::link::Transport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One kind of injected network fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// The request is never sent; the peer sees nothing.
    Drop,
    /// The request is delivered and executed, but the response is lost in
    /// transit. The caller cannot know whether the operation applied.
    Truncate,
    /// The response frame arrives twice; the duplicate is discarded and
    /// counted. The caller sees the correct response.
    Duplicate,
    /// The response is delayed by a bounded sleep, then delivered intact.
    Delay,
}

/// Seeded schedule of which rounds fault and how.
#[derive(Clone, Debug, Default)]
pub struct NetFaultConfig {
    /// Seed for the per-round hash; same seed → same fault sequence.
    pub seed: u64,
    /// Out of 1000 rounds, how many are dropped.
    pub drop_per_mille: u16,
    /// Out of 1000 rounds, how many lose their response.
    pub truncate_per_mille: u16,
    /// Out of 1000 rounds, how many see a duplicated response.
    pub duplicate_per_mille: u16,
    /// Out of 1000 rounds, how many are delayed.
    pub delay_per_mille: u16,
    /// Length of an injected delay, in microseconds (bounded; keep small
    /// in tests).
    pub delay_micros: u64,
    /// Explicit overrides: fault exactly the given (1-based) rounds,
    /// regardless of the per-mille rates. Checked before the hash.
    pub forced: Vec<(u64, NetFault)>,
}

impl NetFaultConfig {
    /// A schedule that faults nothing (useful as a control).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        NetFaultConfig {
            seed,
            ..Self::default()
        }
    }

    /// Decide the fault for (1-based) round `n` — a pure function.
    #[must_use]
    pub fn fault_for_round(&self, n: u64) -> Option<NetFault> {
        if let Some((_, fault)) = self.forced.iter().find(|(at, _)| *at == n) {
            return Some(*fault);
        }
        let roll = (splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000) as u16;
        let mut floor = 0u16;
        for (rate, fault) in [
            (self.drop_per_mille, NetFault::Drop),
            (self.truncate_per_mille, NetFault::Truncate),
            (self.duplicate_per_mille, NetFault::Duplicate),
            (self.delay_per_mille, NetFault::Delay),
        ] {
            if roll < floor.saturating_add(rate) {
                return Some(fault);
            }
            floor = floor.saturating_add(rate);
        }
        None
    }
}

/// Counters for what the wrapper actually injected. Shareable: keep a
/// clone of the [`Arc`] to read them while the link is owned by a client.
#[derive(Debug, Default)]
pub struct NetFaultStats {
    /// Rounds attempted through the wrapper.
    pub rounds: AtomicU64,
    /// Requests dropped before transmission.
    pub drops: AtomicU64,
    /// Responses lost after execution.
    pub truncations: AtomicU64,
    /// Duplicate response frames discarded.
    pub duplicates_discarded: AtomicU64,
    /// Rounds delayed.
    pub delays: AtomicU64,
}

impl NetFaultStats {
    /// Total faults injected.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
            + self.truncations.load(Ordering::Relaxed)
            + self.duplicates_discarded.load(Ordering::Relaxed)
            + self.delays.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] wrapper injecting scheduled faults on whole rounds.
pub struct FaultyLink<T: Transport> {
    inner: T,
    config: NetFaultConfig,
    round: u64,
    stats: Arc<NetFaultStats>,
}

impl<T: Transport> FaultyLink<T> {
    /// Wrap `inner` under the given fault schedule.
    pub fn new(inner: T, config: NetFaultConfig) -> Self {
        FaultyLink {
            inner,
            config,
            round: 0,
            stats: Arc::new(NetFaultStats::default()),
        }
    }

    /// Shared handle to the injection counters.
    #[must_use]
    pub fn stats(&self) -> Arc<NetFaultStats> {
        Arc::clone(&self.stats)
    }
}

impl<T: Transport> Transport for FaultyLink<T> {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        use std::io::{Error, ErrorKind};
        self.round += 1;
        self.stats.rounds.fetch_add(1, Ordering::Relaxed);
        match self.config.fault_for_round(self.round) {
            None => self.inner.round_trip(request),
            Some(NetFault::Drop) => {
                self.stats.drops.fetch_add(1, Ordering::Relaxed);
                Err(Error::new(
                    ErrorKind::ConnectionReset,
                    "injected fault: request dropped before transmission",
                ))
            }
            Some(NetFault::Truncate) => {
                self.stats.truncations.fetch_add(1, Ordering::Relaxed);
                // The peer executes the request; only the response is lost.
                let _executed = self.inner.round_trip(request)?;
                Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "injected fault: response truncated in transit",
                ))
            }
            Some(NetFault::Duplicate) => {
                let response = self.inner.round_trip(request)?;
                // The duplicate frame would carry an already-consumed
                // sequence number; the receive path discards it.
                self.stats
                    .duplicates_discarded
                    .fetch_add(1, Ordering::Relaxed);
                Ok(response)
            }
            Some(NetFault::Delay) => {
                self.stats.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(self.config.delay_micros));
                self.inner.round_trip(request)
            }
        }
    }
}

/// SplitMix64 — the same tiny deterministic mixer the storage fault
/// injector uses.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::MeteredLink;
    use crate::meter::Meter;

    type EchoLink = MeteredLink<fn(&[u8]) -> Vec<u8>>;

    fn echo() -> EchoLink {
        MeteredLink::new(|req: &[u8]| req.to_vec(), Meter::new())
    }

    #[test]
    fn quiet_schedule_is_transparent() {
        let mut link = FaultyLink::new(echo(), NetFaultConfig::quiet(7));
        for i in 0..50u8 {
            assert_eq!(link.round_trip(&[i]).unwrap(), vec![i]);
        }
        assert_eq!(link.stats().injected(), 0);
    }

    #[test]
    fn forced_drop_fails_cleanly_without_delivery() {
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let service = move |req: &[u8]| {
            c.fetch_add(1, Ordering::Relaxed);
            req.to_vec()
        };
        let mut link = FaultyLink::new(
            MeteredLink::new(service, Meter::new()),
            NetFaultConfig {
                forced: vec![(2, NetFault::Drop)],
                ..NetFaultConfig::quiet(0)
            },
        );
        assert!(link.round_trip(b"a").is_ok());
        assert!(link.round_trip(b"b").is_err(), "round 2 drops");
        assert!(link.round_trip(b"c").is_ok());
        // The dropped request never reached the service.
        assert_eq!(counter.load(Ordering::Relaxed), 2);
        assert_eq!(link.stats().drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn forced_truncate_executes_but_loses_response() {
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let service = move |req: &[u8]| {
            c.fetch_add(1, Ordering::Relaxed);
            req.to_vec()
        };
        let mut link = FaultyLink::new(
            MeteredLink::new(service, Meter::new()),
            NetFaultConfig {
                forced: vec![(1, NetFault::Truncate)],
                ..NetFaultConfig::quiet(0)
            },
        );
        assert!(link.round_trip(b"x").is_err());
        // The request *was* executed — the in-doubt case.
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_and_delay_still_deliver_correct_response() {
        let mut link = FaultyLink::new(
            echo(),
            NetFaultConfig {
                forced: vec![(1, NetFault::Duplicate), (2, NetFault::Delay)],
                delay_micros: 50,
                ..NetFaultConfig::quiet(0)
            },
        );
        assert_eq!(link.round_trip(b"dup").unwrap(), b"dup");
        assert_eq!(link.round_trip(b"slow").unwrap(), b"slow");
        assert_eq!(link.stats().duplicates_discarded.load(Ordering::Relaxed), 1);
        assert_eq!(link.stats().delays.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = NetFaultConfig {
            seed: 42,
            drop_per_mille: 100,
            truncate_per_mille: 100,
            duplicate_per_mille: 100,
            delay_per_mille: 100,
            ..NetFaultConfig::default()
        };
        let a: Vec<_> = (1..=500).map(|n| cfg.fault_for_round(n)).collect();
        let b: Vec<_> = (1..=500).map(|n| cfg.fault_for_round(n)).collect();
        assert_eq!(a, b);
        // ~40% fault rate over 500 rounds: expect a healthy mix.
        assert!(a.iter().filter(|f| f.is_some()).count() > 100);
        assert!(a.iter().filter(|f| f.is_none()).count() > 100);
    }
}
