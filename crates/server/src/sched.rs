//! Affinity-sharded worker runtime: per-worker run queues and work
//! stealing.
//!
//! The daemon used to funnel every request through one shared MPMC
//! channel: correct, but at high concurrency all workers contend on the
//! same queue and a tenant's hot state (Scheme 2 chain-key memo, shard
//! snapshots, shard locks) bounces between whichever cores happen to pop
//! its jobs. This module replaces the channel with a [`Scheduler`]:
//!
//! * **Per-worker bounded run queues.** Worker `w` owns queue `w`; a
//!   submit routes to `hash(tenant) % workers` (the job's *home*), so one
//!   tenant's requests land on one worker and its state stays core-local.
//! * **Work stealing.** An idle worker first drains its own queue, then
//!   steals from the *front* of the busiest other queue — a hot tenant
//!   cannot starve the fleet, and FIFO pops (own or stolen) preserve each
//!   queue's dispatch order.
//! * **Bounded overflow, then BUSY.** A full home queue spills to the
//!   least-loaded queue with room (counted as `spilled`, still
//!   steal-eligible); only when *every* queue is full does the submit
//!   fail and the connection answer `BUSY` — total capacity matches the
//!   old global queue's, so backpressure semantics are unchanged.
//! * **Drain-on-close.** [`JobSender`] handles are counted; when the last
//!   one drops the scheduler is closed and workers exit only after every
//!   queue is empty — the same shutdown contract the crossbeam channel
//!   gave (queued work is served, never abandoned).
//!
//! Ordering note: responses are matched by echoed `seq`, so clients never
//! depend on dispatch order. Still, for one connection's pipelined
//! stream the scheduler dispatches in submit order whenever the stream's
//! jobs stay on one queue (the no-spill steady state): same home queue,
//! FIFO push, FIFO pop/steal. A spill can interleave *across* queues,
//! which the proptest below pins down precisely: no-spill ⇒ no reorder.

use crate::proto::{SchemeId, StatsSnapshot};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// Scheduler observability counters, surfaced through `ADMIN_STATS`.
/// One instance per [`Scheduler`], shared by handle.
#[derive(Default)]
pub struct SchedCounters {
    routed: AtomicU64,
    local_hits: AtomicU64,
    stolen: AtomicU64,
    spilled: AtomicU64,
    queue_depth_hw: AtomicU64,
}

impl SchedCounters {
    /// Add these counters to `snap`'s `sched_*` fields (the queue
    /// high-water mark takes the larger of the two).
    pub fn add_to(&self, snap: &mut StatsSnapshot) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        snap.sched_routed += load(&self.routed);
        snap.sched_local_hits += load(&self.local_hits);
        snap.sched_stolen += load(&self.stolen);
        snap.sched_spilled += load(&self.spilled);
        snap.sched_queue_depth_hw = snap.sched_queue_depth_hw.max(load(&self.queue_depth_hw));
    }

    fn note_depth(&self, depth: u64) {
        self.queue_depth_hw.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Route key for a connection: a stable FNV-1a hash of the tenant name
/// and scheme byte. Computed once at hello; `route % workers` is the
/// job's home queue, so one `(tenant, scheme)` database's requests keep
/// landing on one worker.
#[must_use]
pub fn route_hash(tenant: &str, scheme: SchemeId) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in tenant.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (h ^ u64::from(scheme.as_u8())).wrapping_mul(PRIME)
}

struct Entry<T> {
    item: T,
    /// The worker index the job was routed *for* (its affinity target),
    /// recorded so a pop can be classified as a local hit even when the
    /// job physically sat in a spill queue.
    home: usize,
}

struct Shard<T> {
    queue: Mutex<VecDeque<Entry<T>>>,
    /// Mirror of `queue.len()`, maintained under the queue lock but
    /// readable without it — the steal scan and the spill target scan
    /// are lock-free.
    depth: AtomicUsize,
}

/// The sharded run-queue scheduler. Generic over the queued item so the
/// deterministic test suite can drive it with plain tokens; the daemon
/// instantiates `Scheduler<Job>`.
pub struct Scheduler<T> {
    shards: Vec<Shard<T>>,
    /// Per-queue bound: `ceil(total_depth / workers)`, so the summed
    /// capacity matches the old single-queue daemon's `queue_depth`.
    per_queue: usize,
    /// `false` routes round-robin instead of by tenant hash, through
    /// this same code path. The daemon always passes `true`; the
    /// argument stays because `bench/src/layers.rs` calls the
    /// three-argument constructor (ROADMAP item 5).
    affinity: bool,
    rr: AtomicUsize,
    senders: AtomicUsize,
    /// Wakeup epoch: bumped (under the lock) on every submit and on
    /// close, so a worker that observed epoch `e` and found nothing
    /// runnable can park without racing a concurrent submit.
    epoch: Mutex<u64>,
    parked: Condvar,
    counters: Arc<SchedCounters>,
}

impl<T> Scheduler<T> {
    /// Build a scheduler with `workers` run queues and `total_depth`
    /// summed capacity. Returns the shared scheduler plus the first
    /// [`JobSender`]; workers hold the `Arc` and consume via
    /// [`Scheduler::try_next`], producers clone the sender.
    #[must_use]
    pub fn new(workers: usize, total_depth: usize, affinity: bool) -> (Arc<Self>, JobSender<T>) {
        let workers = workers.max(1);
        let sched = Arc::new(Scheduler {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    depth: AtomicUsize::new(0),
                })
                .collect(),
            per_queue: total_depth.div_ceil(workers).max(1),
            affinity,
            rr: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            epoch: Mutex::new(0),
            parked: Condvar::new(),
            counters: Arc::new(SchedCounters::default()),
        });
        let sender = JobSender {
            sched: sched.clone(),
        };
        (sched, sender)
    }

    /// Number of run queues (== worker threads).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The shared counters handle (cloned into `crate::daemon::Shared`
    /// for the `ADMIN_STATS` overlay).
    #[must_use]
    pub fn counters(&self) -> Arc<SchedCounters> {
        self.counters.clone()
    }

    /// Jobs currently queued across all shards.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum()
    }

    /// `true` once every [`JobSender`] has dropped. Workers exit when
    /// closed *and* drained — never before the backlog is served.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.senders.load(Ordering::Relaxed) == 0
    }

    /// Non-blocking dequeue for worker `me`: own queue front first (a
    /// local hit when the job was routed here), else steal from the
    /// front of the busiest other queue. `None` when nothing is
    /// runnable anywhere.
    #[must_use]
    pub fn try_next(&self, me: usize) -> Option<T> {
        let me = me % self.shards.len();
        {
            let shard = &self.shards[me];
            let mut q = shard.queue.lock();
            if let Some(e) = q.pop_front() {
                shard.depth.store(q.len(), Ordering::Relaxed);
                drop(q);
                if e.home == me {
                    self.counters.local_hits.fetch_add(1, Ordering::Relaxed);
                }
                return Some(e.item);
            }
        }
        loop {
            let mut busiest: Option<(usize, usize)> = None;
            for (i, s) in self.shards.iter().enumerate() {
                if i == me {
                    continue;
                }
                let d = s.depth.load(Ordering::Relaxed);
                if d > 0 && busiest.is_none_or(|(bd, _)| d > bd) {
                    busiest = Some((d, i));
                }
            }
            let (_, victim) = busiest?;
            let shard = &self.shards[victim];
            let mut q = shard.queue.lock();
            if let Some(e) = q.pop_front() {
                shard.depth.store(q.len(), Ordering::Relaxed);
                drop(q);
                self.counters.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(e.item);
            }
            // Raced the owner draining it; rescan (terminates: every
            // failed steal means that queue emptied).
        }
    }

    /// Read the wakeup epoch before probing the queues; pass it to
    /// [`Scheduler::park`] so a submit that lands between probe and park
    /// wakes the worker immediately instead of costing a timeout tick.
    #[must_use]
    pub fn idle_epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Park the calling worker until the epoch moves past `seen` or
    /// `timeout` elapses (the timeout is a liveness backstop, not the
    /// wakeup mechanism).
    pub fn park(&self, seen: u64, timeout: Duration) {
        let e = self.epoch.lock();
        if *e != seen {
            return;
        }
        // The vendored `parking_lot` shim's guard is a `std` guard, so the
        // `std` condvar pairs with it directly; a poisoned wait is treated
        // as a plain wakeup (the epoch re-check on the next loop is what
        // actually decides whether there is work).
        drop(
            self.parked
                .wait_timeout(e, timeout)
                .unwrap_or_else(|p| p.into_inner()),
        );
    }

    /// Bump the epoch and wake every parked worker (submits, sender
    /// disconnect).
    pub fn notify_all(&self) {
        let mut e = self.epoch.lock();
        *e = e.wrapping_add(1);
        drop(e);
        self.parked.notify_all();
    }

    fn push_at(&self, idx: usize, home: usize, item: T) -> Result<(), T> {
        let shard = &self.shards[idx];
        let mut q = shard.queue.lock();
        if q.len() >= self.per_queue {
            return Err(item);
        }
        q.push_back(Entry { item, home });
        let depth = q.len();
        shard.depth.store(depth, Ordering::Relaxed);
        drop(q);
        self.counters.note_depth(depth as u64);
        Ok(())
    }

    fn try_send(&self, route: u64, item: T) -> Result<(), T> {
        let n = self.shards.len();
        #[allow(clippy::cast_possible_truncation)]
        let home = if self.affinity {
            (route % n as u64) as usize
        } else {
            self.rr.fetch_add(1, Ordering::Relaxed) % n
        };
        let mut item = match self.push_at(home, home, item) {
            Ok(()) => {
                self.counters.routed.fetch_add(1, Ordering::Relaxed);
                self.notify_all();
                return Ok(());
            }
            Err(back) => back,
        };
        // Home full: spill to the least-loaded queue with room, trying
        // candidates in ascending depth so a racing fill falls through
        // to the next-best instead of bouncing straight to BUSY.
        let mut order: Vec<(usize, usize)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != home)
            .map(|(i, s)| (s.depth.load(Ordering::Relaxed), i))
            .collect();
        order.sort_unstable();
        for (_, i) in order {
            item = match self.push_at(i, home, item) {
                Ok(()) => {
                    self.counters.routed.fetch_add(1, Ordering::Relaxed);
                    self.counters.spilled.fetch_add(1, Ordering::Relaxed);
                    self.notify_all();
                    return Ok(());
                }
                Err(back) => back,
            };
        }
        // Every queue full: the caller answers BUSY, exactly as the old
        // global queue did at the same total depth.
        Err(item)
    }
}

/// Counted producer handle for a [`Scheduler`]. Cloning registers a
/// producer; dropping the last one closes the scheduler (workers drain
/// the backlog, then exit) — the disconnect contract the crossbeam
/// sender used to provide.
pub struct JobSender<T> {
    sched: Arc<Scheduler<T>>,
}

impl<T> JobSender<T> {
    /// Submit one item routed by `route`. On `Err` every queue was full;
    /// the item comes back so the caller can answer `BUSY` (or retry).
    ///
    /// # Errors
    /// The item itself, when all run queues are at capacity.
    pub fn try_send(&self, route: u64, item: T) -> Result<(), T> {
        self.sched.try_send(route, item)
    }
}

impl<T> Clone for JobSender<T> {
    fn clone(&self) -> Self {
        self.sched.senders.fetch_add(1, Ordering::Relaxed);
        JobSender {
            sched: self.sched.clone(),
        }
    }
}

impl<T> Drop for JobSender<T> {
    fn drop(&mut self) {
        if self.sched.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last producer gone: wake every parked worker so it can
            // observe closed+drained and exit.
            self.sched.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic tagging: each token remembers the route it was
    /// submitted under, so tests can verify affinity by worker id.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Tok {
        route: u64,
        seq: u32,
    }

    fn send(tx: &JobSender<Tok>, route: u64, seq: u32) {
        tx.try_send(route, Tok { route, seq }).expect("queue room");
    }

    /// The scheduler's counters, as `ADMIN_STATS` would report them.
    fn counts<T>(sched: &Scheduler<T>) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        sched.counters().add_to(&mut snap);
        snap
    }

    #[test]
    fn affinity_routes_a_tenant_to_one_worker() {
        let (sched, tx) = Scheduler::new(4, 64, true);
        // Worker-id tagging: route r lands on queue r % 4, and only
        // that worker sees it as a local pop.
        for r in 0..4u64 {
            send(&tx, r, 1);
        }
        for me in 0..4usize {
            let tok = sched.try_next(me).expect("one job per worker");
            assert_eq!(tok.route as usize % 4, me, "job served by its home");
        }
        assert_eq!(counts(&sched).sched_local_hits, 4);
        assert_eq!(counts(&sched).sched_stolen, 0);
        assert_eq!(counts(&sched).sched_routed, 4);
    }

    #[test]
    fn no_affinity_round_robins_across_queues() {
        let (sched, tx) = Scheduler::new(4, 64, false);
        // Same route every time; round-robin spreads it anyway.
        for seq in 0..8 {
            send(&tx, 7, seq);
        }
        for me in 0..4usize {
            assert_eq!(
                sched.shards[me].depth.load(Ordering::Relaxed),
                2,
                "round-robin balanced the single-tenant stream"
            );
        }
    }

    #[test]
    fn stalled_worker_has_its_backlog_stolen() {
        let (sched, tx) = Scheduler::new(4, 64, true);
        // Scripted stall: worker 1 never calls try_next. Route six jobs
        // home to it, then let worker 3 run.
        for seq in 0..6 {
            send(&tx, 1, seq);
        }
        let mut got = Vec::new();
        while let Some(tok) = sched.try_next(3) {
            got.push(tok.seq);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "stolen in FIFO order");
        assert_eq!(counts(&sched).sched_stolen, 6);
        assert_eq!(counts(&sched).sched_local_hits, 0);
    }

    #[test]
    fn steal_prefers_the_busiest_queue() {
        let (sched, tx) = Scheduler::new(3, 64, true);
        send(&tx, 0, 0); // one job home to worker 0
        for seq in 0..4 {
            send(&tx, 1, seq); // four jobs home to worker 1
        }
        // Worker 2 is idle: its first steal must come from queue 1.
        let tok = sched.try_next(2).expect("stealable work");
        assert_eq!(tok.route, 1, "stole from the deepest backlog");
    }

    #[test]
    fn overflow_spills_before_busy_and_busy_only_when_all_full() {
        // 2 workers, total depth 4 => per-queue bound 2.
        let (sched, tx) = Scheduler::new(2, 4, true);
        // Four jobs all routed to worker 0: two fit at home, two spill.
        for seq in 0..4 {
            send(&tx, 0, seq);
        }
        assert_eq!(counts(&sched).sched_spilled, 2);
        assert_eq!(sched.queued(), 4);
        // Fifth: every queue full => BUSY, and the item comes back.
        let back = tx.try_send(0, Tok { route: 0, seq: 4 }).unwrap_err();
        assert_eq!(back.seq, 4);
        // Capacity matches the old global queue: drain one, room returns.
        assert!(sched.try_next(0).is_some());
        assert!(tx.try_send(0, Tok { route: 0, seq: 5 }).is_ok());
        assert_eq!(counts(&sched).sched_queue_depth_hw, 2);
    }

    #[test]
    fn spilled_jobs_are_steal_eligible_and_fifo_per_queue() {
        let (sched, tx) = Scheduler::new(2, 4, true);
        for seq in 0..4 {
            send(&tx, 0, seq);
        }
        // Worker 1 drains its spill queue (seqs 2,3 in order), then
        // steals worker 0's backlog (seqs 0,1 in order).
        let order: Vec<u32> = std::iter::from_fn(|| sched.try_next(1).map(|t| t.seq)).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
        // Spill pops are neither local hits (home was 0) nor steals.
        assert_eq!(counts(&sched).sched_stolen, 2);
        assert_eq!(counts(&sched).sched_local_hits, 0);
    }

    #[test]
    fn close_drains_then_signals_empty() {
        let (sched, tx) = Scheduler::new(2, 8, true);
        send(&tx, 0, 0);
        send(&tx, 1, 1);
        let tx2 = tx.clone();
        drop(tx);
        assert!(!sched.is_closed(), "a clone still holds the scheduler open");
        drop(tx2);
        assert!(sched.is_closed());
        // Closed but not drained: the backlog is still served.
        assert_eq!(sched.queued(), 2);
        assert!(sched.try_next(0).is_some());
        assert!(sched.try_next(1).is_some());
        assert_eq!(sched.queued(), 0);
        assert!(sched.try_next(0).is_none());
    }

    #[test]
    fn park_returns_immediately_when_epoch_moved() {
        let (sched, tx) = Scheduler::new(1, 8, true);
        let seen = sched.idle_epoch();
        send(&tx, 0, 0); // bumps the epoch
        let started = std::time::Instant::now();
        sched.park(seen, Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stale epoch must not block"
        );
    }

    #[test]
    fn route_hash_is_stable_and_scheme_sensitive() {
        let a = route_hash("tenant-a", SchemeId::Scheme2);
        assert_eq!(a, route_hash("tenant-a", SchemeId::Scheme2));
        assert_ne!(a, route_hash("tenant-a", SchemeId::Scheme1));
        assert_ne!(a, route_hash("tenant-b", SchemeId::Scheme2));
    }

    proptest! {
        /// Tenant-affinity routing never reorders one connection's seq
        /// stream: under any interleaving of worker pops (own-queue pops
        /// and steals alike) with ample capacity (no spills), each
        /// connection's jobs are dispatched in submit order. Responses
        /// are additionally seq-matched on the wire; this pins down the
        /// stronger dispatch-order property.
        #[test]
        fn affinity_routing_preserves_per_connection_dispatch_order(
            conn_routes in proptest::collection::vec(0u64..6, 1..5),
            submits in proptest::collection::vec(0usize..5, 1..60),
            pops in proptest::collection::vec(0usize..4, 0..200),
        ) {
            let (sched, tx) = Scheduler::new(4, 1024, true);
            let mut next_seq = vec![0u32; conn_routes.len()];
            #[derive(Clone, Debug)]
            struct Item { conn: usize, seq: u32 }
            let mut submitted = 0usize;
            for &c in &submits {
                let conn = c % conn_routes.len();
                let seq = next_seq[conn];
                next_seq[conn] += 1;
                prop_assert!(tx
                    .try_send(conn_routes[conn], Item { conn, seq })
                    .is_ok());
                submitted += 1;
            }
            prop_assert_eq!(counts(&sched).sched_spilled, 0);
            // Random worker interleaving, then a full drain so every
            // job's dispatch position is observed.
            let mut dispatched: Vec<Item> = Vec::new();
            for &w in &pops {
                if let Some(item) = sched.try_next(w) {
                    dispatched.push(item);
                }
            }
            for w in 0..4 {
                while let Some(item) = sched.try_next(w) {
                    dispatched.push(item);
                }
            }
            prop_assert_eq!(dispatched.len(), submitted);
            let mut last_seen = vec![None::<u32>; conn_routes.len()];
            for item in &dispatched {
                if let Some(prev) = last_seen[item.conn] {
                    prop_assert!(
                        item.seq > prev,
                        "conn {} dispatched seq {} after {}",
                        item.conn, item.seq, prev
                    );
                }
                last_seen[item.conn] = Some(item.seq);
            }
        }
    }
}
