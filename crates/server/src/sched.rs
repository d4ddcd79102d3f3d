//! Affinity-sharded worker runtime: per-worker run queues, work
//! stealing, and the spawn-free `SEARCH_MANY` fan-out executor.
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
//!
//! The second half of the module is `SearchFanout`: the worker that
//! dequeued a `SEARCH_MANY` batch publishes it as claimable and *idle
//! pool workers* help execute its parts — no request starts a thread
//! (`crates/server/tests/invariants.rs` holds the process's thread count
//! equal across fan-out bursts).

use crate::proto::{SchemeId, StatsSnapshot};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
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
    fanout_batches: AtomicU64,
    fanout_parts_helped: AtomicU64,
}

impl SchedCounters {
    /// Add these counters to `snap`'s `sched_*` and `fanout_*` fields
    /// (the queue high-water mark takes the larger of the two).
    pub fn add_to(&self, snap: &mut StatsSnapshot) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        snap.sched_routed += load(&self.routed);
        snap.sched_local_hits += load(&self.local_hits);
        snap.sched_stolen += load(&self.stolen);
        snap.sched_spilled += load(&self.spilled);
        snap.sched_queue_depth_hw = snap.sched_queue_depth_hw.max(load(&self.queue_depth_hw));
        snap.fanout_batches += load(&self.fanout_batches);
        snap.fanout_parts_helped += load(&self.fanout_parts_helped);
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
    /// Wakeup epoch: bumped (under the lock) on every submit, fan-out
    /// publish and close, so a worker that observed epoch `e` and found
    /// nothing runnable can park without racing a concurrent submit.
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

    /// Bump the epoch and wake every parked worker (submits, fan-out
    /// publishes, sender disconnect).
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

// ---------------------------------------------------------------------
// The spawn-free SEARCH_MANY fan-out executor.
// ---------------------------------------------------------------------

use crate::daemon::Job;
use crate::tenant::{fanout_limit, TenantHandle};
use sse_net::pool::PooledBuf;

struct FanoutState {
    results: Vec<Vec<u8>>,
    done: usize,
}

/// One published `SEARCH_MANY` batch: parts are claimed by atomic
/// counter (owner and helpers alike), results land position-aligned,
/// and the owner condvar-waits for the last part.
struct FanoutBatch {
    tenant: TenantHandle,
    /// The whole request payload (a pooled zero-copy view); parts are
    /// sub-ranges of it, so helpers never copy bytes.
    payload: Arc<PooledBuf>,
    ranges: Vec<Range<usize>>,
    next: AtomicUsize,
    /// Concurrent helpers are capped at `fanout - 1`: the owner *is*
    /// participant number one, counted exactly once (see `fanout_limit`).
    max_helpers: usize,
    helpers: AtomicUsize,
    state: Mutex<FanoutState>,
    finished: Condvar,
}

impl FanoutBatch {
    /// Claim and execute one part. `false` when every part is claimed
    /// (the batch may still be finishing on other workers).
    fn claim_and_run(&self) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(range) = self.ranges.get(i) else {
            return false;
        };
        // Per-part panics become that part's protocol error inside
        // `handle_part_caught`, so `done` always reaches `len` and the
        // owner can never wait forever.
        let resp = self.tenant.handle_part_caught(&self.payload[range.clone()]);
        let mut st = self.state.lock();
        st.results[i] = resp;
        st.done += 1;
        if st.done == self.ranges.len() {
            drop(st);
            self.finished.notify_all();
        }
        true
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.ranges.len()
    }

    fn wait_done(&self) -> Vec<Vec<u8>> {
        let mut st = self.state.lock();
        while st.done < self.ranges.len() {
            st = self.finished.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        std::mem::take(&mut st.results)
    }
}

/// The persistent fan-out executor: `SEARCH_MANY` batches are published
/// here by the worker that dequeued them, and *idle* pool workers (no
/// runnable job anywhere) pick up parts, so a batch spawns nothing.
pub(crate) struct SearchFanout {
    sched: Arc<Scheduler<Job>>,
    active: Mutex<Vec<Arc<FanoutBatch>>>,
    counters: Arc<SchedCounters>,
}

impl SearchFanout {
    pub(crate) fn new(sched: Arc<Scheduler<Job>>) -> SearchFanout {
        let counters = sched.counters();
        SearchFanout {
            sched,
            active: Mutex::new(Vec::new()),
            counters,
        }
    }

    /// Serve one `SEARCH_MANY` payload on the calling worker, drawing
    /// idle pool workers in as helpers. Returns the position-aligned
    /// response batch, or `None` for a malformed batch envelope.
    pub(crate) fn search_many(&self, tenant: &TenantHandle, payload: PooledBuf) -> Option<Vec<u8>> {
        let ranges = crate::proto::decode_batch_ranges(&payload)?;
        // Participants are pool workers (the owner plus idle helpers),
        // not fresh threads, so the pool size — not the machine's core
        // count — is the honest cap: a 4-worker daemon on one core still
        // interleaves helpers.
        let fanout = fanout_limit(ranges.len(), self.sched.workers());
        if fanout <= 1 {
            // Single part (or single core): no parallelism to win, skip
            // the publish/claim machinery entirely.
            let responses: Vec<Vec<u8>> = ranges
                .iter()
                .map(|r| tenant.handle_part_caught(&payload[r.clone()]))
                .collect();
            return Some(crate::proto::encode_batch(&responses));
        }
        let len = ranges.len();
        let batch = Arc::new(FanoutBatch {
            tenant: tenant.clone(),
            payload: Arc::new(payload),
            ranges,
            next: AtomicUsize::new(0),
            max_helpers: fanout - 1,
            helpers: AtomicUsize::new(0),
            state: Mutex::new(FanoutState {
                results: vec![Vec::new(); len],
                done: 0,
            }),
            finished: Condvar::new(),
        });
        self.counters.fanout_batches.fetch_add(1, Ordering::Relaxed);
        self.active.lock().push(batch.clone());
        // Wake parked workers so they find the batch via `try_help`.
        self.sched.notify_all();
        // The owner participates in its own claim loop — one of the
        // `fanout` slots, occupied exactly once.
        while batch.claim_and_run() {}
        self.retire(&batch);
        let results = batch.wait_done();
        Some(crate::proto::encode_batch(&results))
    }

    /// Called by an idle worker (empty queues, nothing stealable): claim
    /// parts of the neediest active batch until none remain. `true` if
    /// any part was executed.
    pub(crate) fn try_help(&self) -> bool {
        let batch = {
            let active = self.active.lock();
            active
                .iter()
                .find(|b| b.has_unclaimed() && b.helpers.load(Ordering::Relaxed) < b.max_helpers)
                .cloned()
        };
        let Some(batch) = batch else {
            return false;
        };
        // Re-check the helper cap under a real reservation: the owner's
        // slot plus `max_helpers` concurrent helpers never exceeds the
        // batch's sized fan-out.
        if batch.helpers.fetch_add(1, Ordering::AcqRel) >= batch.max_helpers {
            batch.helpers.fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        let mut helped = false;
        while batch.claim_and_run() {
            helped = true;
            self.counters
                .fanout_parts_helped
                .fetch_add(1, Ordering::Relaxed);
        }
        batch.helpers.fetch_sub(1, Ordering::AcqRel);
        helped
    }

    fn retire(&self, batch: &Arc<FanoutBatch>) {
        self.active.lock().retain(|b| !Arc::ptr_eq(b, batch));
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

    /// Serve a `SEARCH_MANY` envelope of `[read, mutation]` through the
    /// fan-out executor — inline (one worker) and as a published batch
    /// (four) — on a fresh in-memory tenant. The read is served, the
    /// mutation part is answered with an error, and the tenant's documents
    /// and keywords are unchanged.
    fn search_many_refuses_the_mutation_part(scheme: SchemeId, read: Vec<u8>, mutation: Vec<u8>) {
        use crate::tenant::{TenantParams, TenantRegistry};
        use sse_core::proto_common::resp::ERROR;

        for workers in [1, 4] {
            let tenant = TenantRegistry::new(TenantParams::default())
                .get_or_create("t", scheme)
                .unwrap();
            let (sched, _tx) = Scheduler::new(workers, 8, false);
            let envelope = crate::proto::encode_batch(&[read.clone(), mutation.clone()]);
            let reply = SearchFanout::new(sched)
                .search_many(&tenant, PooledBuf::from_vec(envelope))
                .unwrap();
            let parts = crate::proto::decode_batch(&reply).unwrap();
            assert_ne!(
                parts[0][0], ERROR,
                "{scheme:?}/{workers}: the read is served"
            );
            assert_eq!(
                parts[1][0], ERROR,
                "{scheme:?}/{workers}: the mutation is refused"
            );
            assert_eq!(tenant.stored_docs(), 0, "{scheme:?}/{workers}");
            assert_eq!(tenant.unique_keywords(), 0, "{scheme:?}/{workers}");
        }
    }

    #[test]
    fn scheme2_search_many_serves_no_put_docs_part() {
        use sse_core::scheme2::protocol as s2;
        search_many_refuses_the_mutation_part(
            SchemeId::Scheme2,
            s2::encode_search(&[1; 32], &[2; 32]),
            s2::encode_put_docs(&[(7, b"doc".to_vec())]),
        );
    }

    #[test]
    fn scheme1_search_many_serves_no_apply_updates_part() {
        use sse_core::scheme1::protocol::{self as s1, UpdateEntry};
        let entry = UpdateEntry {
            tag: [3; 32],
            delta: vec![0; 4096 / 8],
            f_r: vec![4; 32],
        };
        search_many_refuses_the_mutation_part(
            SchemeId::Scheme1,
            s1::encode_search_find(&[3; 32]),
            s1::encode_apply_updates(&[entry]),
        );
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
