//! Daemon-wide serving statistics.
//!
//! Counters are plain atomics (incremented from reader and worker threads
//! alike); latency goes to a [`LatencySplit`] — the end-to-end histogram
//! decomposed into queue-wait and worker service time, so a saturated
//! run queue and a slow scheme handler are distinguishable in
//! `ADMIN_STATS`. A [`StatsSnapshot`] is taken on demand to answer
//! `ADMIN_STATS` requests.

use crate::histogram::LatencySplit;
use crate::proto::StatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Shared mutable serving counters. One instance per daemon.
#[derive(Default)]
pub struct ServingStats {
    requests_ok: AtomicU64,
    requests_busy: AtomicU64,
    requests_err: AtomicU64,
    requests_degraded: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    /// Hello frames that attached to an already-open tenant database —
    /// the server-side view of client reconnects.
    reconnects: AtomicU64,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    conns_rejected: AtomicU64,
    idle_reaped: AtomicU64,
    slow_reader_disconnects: AtomicU64,
    reactor_wakeups: AtomicU64,
    writes_deferred: AtomicU64,
    reactor_spurious_polls: AtomicU64,
    writev_calls: AtomicU64,
    writev_frames: AtomicU64,
    wakeups_coalesced: AtomicU64,
    inline_served: AtomicU64,
    inline_declined: AtomicU64,
    latency: LatencySplit,
}

impl ServingStats {
    /// New zeroed stats.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one served DATA request: payload sizes plus the two
    /// latency phases — `queue_wait` (accepted until a worker dequeued
    /// the job) and `service` (worker dequeue until the response was
    /// produced). The end-to-end latency is their sum, recorded as such.
    pub fn record_ok(
        &self,
        bytes_in: usize,
        bytes_out: usize,
        queue_wait: Duration,
        service: Duration,
    ) {
        self.requests_ok.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
        self.latency.record(queue_wait, service);
    }

    /// Record one BUSY rejection (queue full; request not executed).
    pub fn record_busy(&self) {
        self.requests_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one protocol error.
    pub fn record_err(&self) {
        self.requests_err.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one DEGRADED rejection (tenant read-only; mutation refused
    /// with a retry-after hint, not executed).
    pub fn record_degraded(&self) {
        self.requests_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a hello that re-attached to an already-open tenant database.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one accepted connection.
    pub fn record_conn_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one closed connection (any reason).
    pub fn record_conn_closed(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection refused at accept because the daemon is at its
    /// configured connection cap.
    pub fn record_conn_rejected(&self) {
        self.conns_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection reaped by the idle deadline.
    pub fn record_idle_reaped(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection disconnected because its outbound write queue
    /// exceeded the configured bound (a reader slower than its responses).
    pub fn record_slow_reader_disconnect(&self) {
        self.slow_reader_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one wakeup-pipe notification observed by the reactor.
    pub fn record_reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a response that could not be written synchronously and armed
    /// `EPOLLOUT` to finish later (kernel send buffer full).
    pub fn record_write_deferred(&self) {
        self.writes_deferred.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a readiness event that produced no progress (spurious
    /// wakeup; the reactor must tolerate them by design).
    pub fn record_reactor_spurious_poll(&self) {
        self.reactor_spurious_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `writev` syscall that fully flushed `frames` queued
    /// response frames — `writev_frames / writev_calls` is the mean
    /// syscall batch size.
    pub fn record_writev(&self, frames: u64) {
        self.writev_calls.fetch_add(1, Ordering::Relaxed);
        self.writev_frames.fetch_add(frames, Ordering::Relaxed);
    }

    /// Record worker-completion notifications absorbed by a wakeup that
    /// was already pending (one pipe drain delivered `extra + 1`
    /// completions).
    pub fn record_wakeups_coalesced(&self, extra: u64) {
        self.wakeups_coalesced.fetch_add(extra, Ordering::Relaxed);
    }

    /// Record a DATA request the reactor answered itself, run to
    /// completion with no worker hop (DESIGN.md §4n). The request is also
    /// recorded through [`Self::record_ok`] with zero queue wait.
    pub fn record_inline_served(&self) {
        self.inline_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a DATA request the reactor sent to the run queue instead:
    /// something of its connection was in flight, the burst bound was
    /// spent, or the tenant's never-wait rule said no.
    pub fn record_inline_declined(&self) {
        self.inline_declined.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot for the ADMIN protocol. The storage-side
    /// robustness counters (`faults_injected`, `wal_recoveries`,
    /// `torn_tails_truncated`) live with the tenant registry / fault VFS;
    /// the daemon overlays them before encoding the ADMIN response.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_busy: self.requests_busy.load(Ordering::Relaxed),
            requests_err: self.requests_err.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            p50_ns: self.latency.total.quantile_ns(0.50),
            p95_ns: self.latency.total.quantile_ns(0.95),
            p99_ns: self.latency.total.quantile_ns(0.99),
            faults_injected: 0,
            wal_recoveries: 0,
            torn_tails_truncated: 0,
            reconnects: self.reconnects.load(Ordering::Relaxed),
            shard_contention: Vec::new(),
            groups_committed: 0,
            ops_committed: 0,
            max_group_size: 0,
            fsyncs_saved: 0,
            snapshot_swaps: 0,
            search_cache_hits: 0,
            search_cache_misses: 0,
            walk_steps_saved: 0,
            backend_runs_flushed: 0,
            backend_runs_live: 0,
            backend_compactions: 0,
            backend_run_reads: 0,
            backend_bloom_checks: 0,
            backend_bloom_skips: 0,
            backend_bloom_false_positives: 0,
            requests_degraded: self.requests_degraded.load(Ordering::Relaxed),
            health_degradations: 0,
            health_recoveries: 0,
            health_quarantines: 0,
            tenants_degraded: 0,
            tenants_quarantined: 0,
            scrub_passes: 0,
            scrub_repairs: 0,
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_open: self
                .conns_accepted
                .load(Ordering::Relaxed)
                .saturating_sub(self.conns_closed.load(Ordering::Relaxed)),
            conns_idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            slow_reader_disconnects: self.slow_reader_disconnects.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            writes_deferred: self.writes_deferred.load(Ordering::Relaxed),
            reactor_spurious_polls: self.reactor_spurious_polls.load(Ordering::Relaxed),
            // The pool_* counters live with the BufPool; the daemon
            // overlays them (like the storage-side counters above).
            pool_hits: 0,
            pool_misses: 0,
            pool_recycles: 0,
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            writev_frames: self.writev_frames.load(Ordering::Relaxed),
            wakeups_coalesced: self.wakeups_coalesced.load(Ordering::Relaxed),
            // Nothing on the serving path copies a payload; the slot
            // stays because the snapshot is decoded by position.
            bytes_copied: 0,
            queue_p50_ns: self.latency.queue.quantile_ns(0.50),
            queue_p95_ns: self.latency.queue.quantile_ns(0.95),
            queue_p99_ns: self.latency.queue.quantile_ns(0.99),
            service_p50_ns: self.latency.service.quantile_ns(0.50),
            service_p95_ns: self.latency.service.quantile_ns(0.95),
            service_p99_ns: self.latency.service.quantile_ns(0.99),
            // The scheduler counters live with the Scheduler; the daemon
            // overlays them (like the storage-side counters above).
            sched_routed: 0,
            sched_local_hits: 0,
            sched_stolen: 0,
            sched_spilled: 0,
            sched_queue_depth_hw: 0,
            fanout_batches: 0,
            fanout_parts_helped: 0,
            inline_served: self.inline_served.load(Ordering::Relaxed),
            inline_declined: self.inline_declined.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_traffic() {
        let stats = ServingStats::new();
        stats.record_ok(
            100,
            300,
            Duration::from_micros(1),
            Duration::from_micros(10),
        );
        stats.record_ok(50, 150, Duration::from_micros(2), Duration::from_micros(20));
        stats.record_busy();
        stats.record_err();
        let s = stats.snapshot();
        assert_eq!(s.requests_ok, 2);
        assert_eq!(s.requests_busy, 1);
        assert_eq!(s.requests_err, 1);
        assert_eq!(s.bytes_in, 150);
        assert_eq!(s.bytes_out, 450);
        assert!(s.p50_ns > 0);
        // The split is populated and ordered: queue waits were an order
        // of magnitude below service times, and the total reflects both.
        assert!(s.queue_p50_ns > 0);
        assert!(s.service_p50_ns > s.queue_p50_ns);
        assert!(s.p50_ns >= s.service_p50_ns);
    }
}
