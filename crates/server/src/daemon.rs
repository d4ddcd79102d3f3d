//! The multi-tenant TCP daemon.
//!
//! Thread architecture:
//!
//! ```text
//!  reactor thread ── owns the listener and every socket ([`crate::reactor`])
//!        │  parse frames, answer ADMIN, memo-hit searches and small
//!        │  in-memory updates itself; try_send DATA jobs, routed by
//!        ▼  tenant hash │ all queues full ⇒ BUSY
//!                    sharded scheduler (one run queue per worker)
//!                      q0      q1      q2      q3
//!                      │       │       │       │   idle workers steal
//!                      ▼       ▼       ▼       ▼   from the busiest queue
//!                      w0      w1      w2      w3
//!                        lock tenant ▸ Service::handle ▸ post completion
//!                                          └▶ reactor writes the reply
//! ```
//!
//! Jobs are routed to `hash(tenant) % workers` ([`crate::sched`]), so a
//! tenant's hot state — Scheme 2 chain-key memo, shard snapshots, shard
//! locks — stays on one core instead of bouncing between whichever
//! workers happen to pop a shared queue; stealing keeps a skewed tenant
//! mix from idling the rest of the pool. No request ever starts a
//! thread.
//!
//! Backpressure is explicit: when every run queue is full the reactor
//! answers `BUSY` immediately instead of buffering unboundedly — the
//! client retries with backoff ([`crate::transport::TcpTransport`]).
//!
//! Graceful shutdown reuses [`sse_net::shutdown::ShutdownSignal`] (the
//! same primitive that stops [`sse_net::link::Duplex`]): the reactor
//! stops accepting and reading and drops its job sender, workers drain
//! every queued job before exiting, and the reactor flushes their last
//! responses. [`Daemon::shutdown`] joins all of them — no thread outlives
//! the call.

use crate::proto::{self, StatsSnapshot, KIND_UPDATE_MANY, STATUS_DEGRADED, STATUS_ERR, STATUS_OK};
use crate::reactor::{CompletionQueue, OutMsg, Reactor, ReactorOptions, Segment, POISON_TOKEN};
use crate::sched::{JobSender, SchedCounters, Scheduler};
use crate::scrub::{scrub_loop, scrub_pass, ScrubCounters};
use crate::stats::ServingStats;
use crate::tenant::{TenantHandle, TenantParams, TenantRegistry};
use sse_core::commit::Reply;
use sse_core::health::{HealthState, DEGRADED_RETRY_AFTER_MS};
use sse_net::frame::MAX_FRAME_LEN;
use sse_net::pool::{BufPool, PooledBuf};
use sse_net::shutdown::ShutdownSignal;
use sse_storage::{FaultConfig, FaultStats, FaultVfs, RealVfs, Vfs};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked threads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Default per-connection idle timeout (see [`ServerConfig::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default cap on concurrently open connections.
pub const DEFAULT_MAX_CONNS: usize = 100_000;

/// Default bound on a connection's queued-but-unwritten response bytes;
/// past it the peer is declared a slow reader and disconnected.
pub const DEFAULT_WRITE_QUEUE_LIMIT: usize = 64 * 1024 * 1024;

/// Acquire size for a worker's pooled response scratch buffer. One pool
/// class (4 KiB) covers typical search results; a bigger response grows
/// the buffer once and the pool re-files it under its new class when the
/// reactor retires it, so the high-water capacity is kept, not re-paid.
pub(crate) const RESPONSE_SCRATCH_CAPACITY: usize = 4096;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing scheme requests.
    pub workers: usize,
    /// Bounded job-queue depth; beyond it requests get `BUSY`.
    pub queue_depth: usize,
    /// Per-frame body limit enforced on client input (forged length
    /// prefixes are rejected before any allocation).
    pub max_frame_len: u32,
    /// Parameters for lazily created tenant databases.
    pub tenant_params: TenantParams,
    /// `Some` ⇒ durable mode: tenant databases persist under this
    /// directory, are recovered (WAL replay) at startup, and are
    /// checkpointed on graceful shutdown.
    pub data_dir: Option<PathBuf>,
    /// Close a connection that has completed no frame for this long.
    /// Without it an idle (or vanished, on a network that never RSTs)
    /// client holds its slot of `max_conns` forever.
    pub idle_timeout: Duration,
    /// `Some` ⇒ route all tenant file I/O through a seeded
    /// [`FaultVfs`] (torture testing only); injected-fault counts show up
    /// in `ADMIN_STATS`.
    pub fault: Option<FaultConfig>,
    /// `Some` ⇒ spawn a background scrub thread running one integrity
    /// pass (verify healthy tenants, repair degraded ones — see
    /// [`crate::scrub`]) per interval. `None` disables the thread; tests
    /// can still drive passes synchronously via [`Daemon::scrub_now`].
    pub scrub_interval: Option<Duration>,
    /// Connections accepted beyond this cap are dropped at accept (counted
    /// as `conns_rejected`).
    pub max_conns: usize,
    /// A connection whose queued-but-unwritten response bytes exceed this
    /// bound is disconnected as a slow reader.
    pub write_queue_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_frame_len: sse_net::frame::MAX_FRAME_LEN,
            tenant_params: TenantParams::default(),
            data_dir: None,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            fault: None,
            scrub_interval: None,
            max_conns: DEFAULT_MAX_CONNS,
            write_queue_limit: DEFAULT_WRITE_QUEUE_LIMIT,
        }
    }
}

/// State shared by the reactor, the scrub thread and the admin paths.
pub(crate) struct Shared {
    pub(crate) shutdown: ShutdownSignal,
    pub(crate) stats: Arc<ServingStats>,
    pub(crate) registry: Arc<TenantRegistry>,
    pub(crate) fault_stats: Option<Arc<FaultStats>>,
    pub(crate) scrub: Arc<ScrubCounters>,
    /// The serving-path buffer pool. The reactor holds a clone; this one
    /// lets `ADMIN_STATS` report the hit/miss/recycle counters.
    pub(crate) pool: BufPool,
    /// Scheduler observability counters (routed / local hits / steals /
    /// spills / queue high-water), overlaid into
    /// `ADMIN_STATS` like the pool and storage counters.
    pub(crate) sched: Arc<SchedCounters>,
}

impl Shared {
    /// The serving counters plus everything kept elsewhere: the tenant
    /// registry's, the scheduler's, the pool's, the fault VFS's and the
    /// scrub thread's.
    pub(crate) fn full_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        self.registry.add_counters(&mut snap);
        self.sched.add_to(&mut snap);
        if let Some(f) = &self.fault_stats {
            snap.faults_injected = f.injected();
        }
        snap.scrub_passes = self.scrub.passes();
        snap.scrub_repairs = self.scrub.repairs();
        let pool = self.pool.counters();
        snap.pool_hits = pool.hits;
        snap.pool_misses = pool.misses;
        snap.pool_recycles = pool.recycles;
        snap
    }
}

/// The ERR text for a request whose scheme handler panicked — the same
/// on a worker and on the reactor's run-to-completion path.
pub(crate) const HANDLER_PANICKED: &[u8] = b"internal error: request handler panicked";

/// The ERR text sent instead of a reply too large for one frame.
pub(crate) const RESPONSE_TOO_LARGE: &[u8] = b"response exceeds the frame limit";

/// Where a worker sends its response: back to the reactor, which owns
/// the socket and serializes all writes through the connection's bounded
/// write queue.
#[derive(Clone)]
pub(crate) struct Responder {
    pub(crate) token: u64,
    pub(crate) completions: Arc<CompletionQueue>,
    /// The response payload is sealed into the pool so its buffer
    /// recycles once the reactor's gather write finishes — steady-state,
    /// request-body acquires are served by retired response buffers
    /// instead of fresh allocations.
    pub(crate) pool: BufPool,
}

impl Responder {
    /// Post one response envelope to the reactor's completion queue,
    /// taking the payload **by value** so it is never copied: it moves
    /// into a scatter-gather [`OutMsg`] and goes to the kernel from where
    /// it sits. A connection that died meanwhile drops the completion by
    /// token mismatch.
    ///
    /// A payload whose envelope would exceed [`MAX_FRAME_LEN`] is dropped
    /// and answered with [`RESPONSE_TOO_LARGE`] as `STATUS_ERR`; `false`
    /// then tells the caller to count an error, not the reply it meant.
    pub(crate) fn send(&self, status: u8, seq: u32, payload: Vec<u8>) -> bool {
        let fits = proto::REQUEST_HEADER_LEN + payload.len() <= MAX_FRAME_LEN as usize;
        let (status, payload) = if fits {
            (status, payload)
        } else {
            (STATUS_ERR, RESPONSE_TOO_LARGE.to_vec())
        };
        let segment = Segment::Pooled(self.pool.seal(payload));
        self.completions
            .post(self.token, OutMsg::response(status, seq, segment));
        fits
    }
}

/// One queued DATA or UPDATE_MANY request.
pub(crate) struct Job {
    pub(crate) tenant: TenantHandle,
    /// [`KIND_DATA`] or [`KIND_UPDATE_MANY`] — decides how the worker
    /// interprets the payload.
    pub(crate) kind: u8,
    /// Client sequence number, echoed in the response so a pipelining
    /// client can match responses that workers complete out of order.
    pub(crate) seq: u32,
    /// The request payload: a sliced view of the frame's pool buffer
    /// (zero-copy from the socket read). Dropping it recycles the buffer.
    pub(crate) payload: PooledBuf,
    pub(crate) responder: Responder,
    pub(crate) accepted: Instant,
}

/// Counts reported by [`Daemon::shutdown`] — evidence that every spawned
/// thread was joined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Worker threads joined.
    pub workers_joined: usize,
    /// Connections the reactor accepted over the daemon's life, all of
    /// them closed by the time it was joined.
    pub connections_joined: usize,
    /// Tenant databases checkpointed to disk during the drain (always 0
    /// for an in-memory daemon).
    pub tenants_checkpointed: usize,
    /// Daemon threads that panicked instead of exiting cleanly. Shutdown
    /// still joins and counts them (a panicked worker must not abort the
    /// drain and strand the other tenants' checkpoints); nonzero means a
    /// bug worth reporting, not a reason to lose data.
    pub threads_panicked: usize,
    /// Statistics taken after the drain checkpoints, so counters the
    /// checkpoint itself advances (lsm runs flushed, compactions) are
    /// included — a pre-shutdown [`Daemon::stats`] call would miss them.
    pub final_stats: StatsSnapshot,
}

/// A running daemon. Dropping it without calling [`Daemon::shutdown`]
/// leaves the threads serving (the handle is not the lifecycle).
pub struct Daemon {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_join: JoinHandle<()>,
    /// Handle for waking the reactor from shutdown (and for the
    /// panic-injection test hook).
    completions: Arc<CompletionQueue>,
    /// Second-phase drain signal, requested after the workers are joined
    /// so the reactor flushes the final responses and exits.
    drain_done: ShutdownSignal,
    worker_joins: Vec<JoinHandle<()>>,
    scrub_join: Option<JoinHandle<()>>,
    job_tx: JobSender<Job>,
}

impl Daemon {
    /// Bind, spawn the thread pool, and start serving. In durable mode
    /// (`config.data_dir`) every tenant database already on disk is opened
    /// — and crash-recovered — before the listener accepts its first
    /// connection.
    ///
    /// # Errors
    /// I/O errors from binding the listener, or storage errors from
    /// recovering an existing tenant database.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Daemon> {
        // Every step that can fail comes before the first thread starts:
        // an `Err` from here must leave nothing running. (The scrub thread
        // exits only on `shutdown`, which nobody requests for a daemon
        // that was never returned.)
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (vfs, fault_stats): (Arc<dyn Vfs>, Option<Arc<FaultStats>>) = match config.fault {
            None => (RealVfs::arc(), None),
            Some(cfg) => {
                let fv = FaultVfs::new(RealVfs::arc(), cfg);
                let fstats = fv.stats();
                (Arc::new(fv), Some(fstats))
            }
        };
        let registry = Arc::new(match config.data_dir {
            None => TenantRegistry::new(config.tenant_params),
            Some(dir) => TenantRegistry::durable(config.tenant_params, dir, vfs),
        });
        registry.preopen_existing().map_err(std::io::Error::other)?;
        let (sched, job_tx) =
            Scheduler::<Job>::new(config.workers.max(1), config.queue_depth, true);

        let shared = Arc::new(Shared {
            shutdown: ShutdownSignal::new(),
            stats: Arc::new(ServingStats::new()),
            registry,
            fault_stats,
            scrub: Arc::new(ScrubCounters::new()),
            pool: BufPool::new(),
            sched: sched.counters(),
        });

        let drain_done = ShutdownSignal::new();
        let opts = ReactorOptions {
            max_frame_len: config.max_frame_len,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns,
            write_queue_limit: config.write_queue_limit,
            pool: shared.pool.clone(),
        };
        let (mut reactor, completions) = Reactor::new_real(
            listener,
            shared.clone(),
            job_tx.clone(),
            drain_done.clone(),
            opts,
        )?;

        let worker_joins: Vec<JoinHandle<()>> = (0..sched.workers())
            .map(|me| {
                let sched = sched.clone();
                let stats = shared.stats.clone();
                std::thread::spawn(move || worker_loop(me, &sched, &stats))
            })
            .collect();

        let scrub_join = config.scrub_interval.map(|interval| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                scrub_loop(&shared.registry, &shared.scrub, &shared.shutdown, interval);
            })
        });

        let shutdown = shared.shutdown.clone();
        let reactor_join = std::thread::spawn(move || {
            // Server-side thread: opt into the allocation meter, so a
            // process that installs `allocmeter::CountingAlloc` counts
            // what serving allocates and not what its clients do.
            allocmeter::track_current_thread();
            // A reactor panic (fatal accept error, poll failure,
            // poison) must start a graceful drain — a daemon without
            // its event loop can never serve again — and still count
            // as a panicked thread in the shutdown report.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reactor.run()));
            if let Err(payload) = outcome {
                shutdown.request();
                std::panic::resume_unwind(payload);
            }
        });

        Ok(Daemon {
            local_addr,
            shared,
            reactor_join,
            completions,
            drain_done,
            worker_joins,
            scrub_join,
            job_tx,
        })
    }

    /// Run one synchronous scrub pass (verify healthy tenants, repair
    /// degraded ones) on the caller's thread — the deterministic
    /// equivalent of waiting for the background scrub's next tick.
    pub fn scrub_now(&self) {
        scrub_pass(&self.shared.registry, &self.shared.scrub);
    }

    /// Test hook: kill the reactor thread by posting a poison completion.
    /// The panic trips the reactor's shutdown path and is counted in
    /// [`ShutdownReport::threads_panicked`] — this is how the
    /// "reactor dies mid-load" regression test exercises that accounting
    /// without reaching into thread internals.
    #[doc(hidden)]
    pub fn inject_reactor_panic(&self) {
        self.completions.post(POISON_TOKEN, OutMsg::raw(Vec::new()));
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The daemon's shutdown signal. Requesting it (from any thread, or via
    /// the `ADMIN_SHUTDOWN` command) starts a graceful drain.
    #[must_use]
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.shared.shutdown.clone()
    }

    /// Current serving statistics, including the robustness counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.full_snapshot()
    }

    /// Number of tenant databases created so far.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.shared.registry.tenant_count()
    }

    /// Block until the shutdown signal is requested (e.g. by an
    /// `ADMIN_SHUTDOWN` frame).
    pub fn wait_for_shutdown_request(&self) {
        while !self.shared.shutdown.is_requested() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Gracefully stop: request shutdown, drain queued requests, join every
    /// thread, then checkpoint every durable tenant so no WAL is left to
    /// replay (the checkpoint runs **after** the workers drain — queued
    /// mutations land in the snapshot, not just the log). In-flight
    /// requests get their responses; the listener socket closes.
    ///
    /// A daemon thread that panicked is logged and counted in the report
    /// ([`ShutdownReport::threads_panicked`]), never re-raised: aborting
    /// the drain on one bad thread would strand every other tenant's
    /// checkpoint and turn a bug into data loss.
    pub fn shutdown(self) -> ShutdownReport {
        let mut threads_panicked = 0;
        let mut join_counted = |handle: JoinHandle<()>, role: &str| {
            if handle.join().is_err() {
                threads_panicked += 1;
                eprintln!("sse-serverd: {role} thread panicked (continuing shutdown)");
            }
        };
        self.shared.shutdown.request();
        // Unpark the reactor from epoll_wait so it notices the flag now
        // rather than at its next timeout tick.
        self.completions.wake();
        // Dropping the daemon's own sender closes the scheduler (the
        // reactor drops its clone on its first post-shutdown turn), and
        // workers exit after draining every run queue.
        drop(self.job_tx);
        let workers_joined = self.worker_joins.len();
        for join in self.worker_joins {
            join_counted(join, "worker");
        }
        // Workers joined ⇒ every completion is posted. Tell the reactor
        // to flush the last responses and exit, then join it.
        self.drain_done.request();
        self.completions.wake();
        join_counted(self.reactor_join, "reactor");
        let connections_joined = self.shared.stats.snapshot().conns_accepted as usize;
        if let Some(join) = self.scrub_join {
            join_counted(join, "scrub");
        }
        // Workers have drained: every accepted mutation is at least in a
        // tenant WAL. Fold the WALs into snapshots so a daemon restart
        // starts clean. A checkpoint failure (e.g. disk full) is not fatal
        // here — the WALs themselves still replay on the next open.
        let tenants_checkpointed = self.shared.registry.checkpoint_all().unwrap_or(0);
        let final_stats = self.shared.full_snapshot();
        ShutdownReport {
            workers_joined,
            connections_joined,
            tenants_checkpointed,
            threads_panicked,
            final_stats,
        }
    }
}

/// Most jobs a worker runs after parking a mutation (that job included)
/// before it flushes anyway (DESIGN.md §4e). Without a bound, a worker
/// whose queue never empties would never reach the idle moment that
/// commits what it parked, and those replies would wait on traffic they
/// have nothing to do with. A head-of-line guard, not a tuned value: a
/// flush costs one fsync, so 32 jobs keeps the wait near the work of the
/// jobs themselves; no workload has a worker that stays busy that long
/// (`sse-perf` keeps 8 requests in flight), so nothing measures it.
const FLUSH_AFTER_JOBS: usize = 32;

/// The tenants a worker parked mutations on since its last flush.
#[derive(Default)]
struct Parked {
    tenants: Vec<TenantHandle>,
    /// Jobs run since the first of them parked.
    jobs: usize,
}

impl Parked {
    fn note(&mut self, tenant: &TenantHandle) {
        if !self.tenants.iter().any(|t| Arc::ptr_eq(t, tenant)) {
            self.tenants.push(Arc::clone(tenant));
        }
    }

    /// Count one job run, flushing once [`FLUSH_AFTER_JOBS`] is reached.
    fn ran_job(&mut self) {
        if !self.tenants.is_empty() {
            self.jobs += 1;
            if self.jobs >= FLUSH_AFTER_JOBS {
                self.flush();
            }
        }
    }

    /// Flush every noted tenant: what is parked on each of its journals,
    /// by this worker or any other, goes out as one group — or, on a
    /// journal another worker is writing, with that writer's next group.
    /// False when there was nothing to flush.
    fn flush(&mut self) -> bool {
        if self.tenants.is_empty() {
            return false;
        }
        for tenant in self.tenants.drain(..) {
            // A panicking flush costs the mutations it carried (each one
            // answers with an error as it drops), not this worker thread.
            let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tenant.flush()));
            if flushed.is_err() {
                eprintln!("sse-serverd: a flush panicked");
            }
        }
        self.jobs = 0;
        true
    }
}

fn worker_loop(me: usize, sched: &Arc<Scheduler<Job>>, stats: &Arc<ServingStats>) {
    // Server-side thread: opt into the allocation meter (see the reactor
    // thread).
    allocmeter::track_current_thread();
    // Worker w serves its own run queue first (its tenants' home), then
    // steals; when nothing is runnable it first commits what it parked —
    // every mutation that arrived while the last fsync ran goes out as one
    // group — and only then parks.
    // The epoch is read before the probes so a submit that lands between
    // probe and park wakes the worker instead of waiting out the timeout.
    // Workers exit only once the scheduler is closed AND drained and
    // nothing they parked is left — the same drain-the-backlog shutdown
    // contract the old channel's `recv`-until-disconnect loop provided.
    let mut parked = Parked::default();
    loop {
        let epoch = sched.idle_epoch();
        if let Some(job) = sched.try_next(me) {
            process_job(job, stats, &mut parked);
            parked.ran_job();
            continue;
        }
        if parked.flush() {
            continue;
        }
        if sched.is_closed() && sched.queued() == 0 {
            break;
        }
        sched.park(epoch, POLL_INTERVAL);
    }
}

/// What serving one job produced.
enum Served {
    /// The reply, to send now.
    Reply(Vec<u8>),
    /// The reply went, or will go, through the parked continuation.
    Parked,
    /// A batch envelope that did not decode.
    Malformed,
}

/// Serve `job` as a worker does, flushing whatever it parked.
#[cfg(test)]
pub(crate) fn run_job(job: Job, stats: &Arc<ServingStats>) {
    let mut parked = Parked::default();
    process_job(job, stats, &mut parked);
    parked.flush();
}

fn process_job(job: Job, stats: &Arc<ServingStats>, parked: &mut Parked) {
    // The split point between the two latency phases: everything before
    // this instant was run-queue wait, everything after is service.
    let queue_wait = job.accepted.elapsed();
    let service_start = Instant::now();
    // Health gate, checked lock-free before any work: a quarantined
    // tenant serves nothing; a degraded tenant serves reads from its
    // snapshots but rejects mutations with a typed retry-after hint so
    // clients back off instead of dropping the op.
    let health = job.tenant.health();
    match health.state() {
        HealthState::Quarantined => {
            stats.record_err();
            let msg = format!("tenant quarantined: {}", health.reason());
            job.responder.send(STATUS_ERR, job.seq, msg.into_bytes());
            return;
        }
        HealthState::Degraded if job.tenant.is_mutation(job.kind, &job.payload) => {
            stats.record_degraded();
            let payload = proto::encode_degraded(DEGRADED_RETRY_AFTER_MS, &health.reason());
            job.responder.send(STATUS_DEGRADED, job.seq, payload);
            return;
        }
        _ => {}
    }
    let Job {
        tenant,
        kind,
        seq,
        payload,
        responder,
        ..
    } = job;
    let bytes_in = payload.len();
    // A parked mutation's reply: sent and counted by the flush that
    // commits it, its service time running until then.
    let mut park = || -> Reply {
        let (responder, stats) = (responder.clone(), Arc::clone(stats));
        Box::new(move |response: Vec<u8>| {
            let bytes_out = response.len();
            if responder.send(STATUS_OK, seq, response) {
                stats.record_ok(bytes_in, bytes_out, queue_wait, service_start.elapsed());
            } else {
                stats.record_err();
            }
        })
    };
    // A panicking scheme handler must cost its request, not this worker
    // thread: an uncaught unwind here would shrink the pool until the
    // daemon deadlocks with jobs queued and no workers. parking_lot locks
    // release on unwind (no poisoning), so the tenant stays usable.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // A read sees every mutation staged before it: a search pipelined
        // behind its own connection's update must find it (DESIGN.md §4n).
        if !tenant.is_mutation(kind, &payload) {
            tenant.flush();
        }
        let now = |reply: Option<Vec<u8>>| reply.map_or(Served::Parked, Served::Reply);
        match kind {
            KIND_UPDATE_MANY => match proto::decode_batch(&payload) {
                Some(parts) => now(tenant.apply_batch_parked(&parts, &mut park)),
                None => Served::Malformed,
            },
            _ => {
                // The pool closes the loop on the response side too:
                // encode into a recycled buffer, which `send` seals so the
                // reactor's gather write recycles it again.
                let scratch = responder.pool.acquire(RESPONSE_SCRATCH_CAPACITY);
                now(tenant.handle_parked(&payload, scratch, &mut park))
            }
        }
    }));
    match outcome {
        Ok(Served::Reply(response)) => {
            let bytes_out = response.len();
            if responder.send(STATUS_OK, seq, response) {
                stats.record_ok(bytes_in, bytes_out, queue_wait, service_start.elapsed());
            } else {
                stats.record_err();
            }
        }
        Ok(Served::Parked) => parked.note(&tenant),
        Ok(Served::Malformed) => {
            stats.record_err();
            responder.send(STATUS_ERR, seq, b"malformed batch".to_vec());
        }
        Err(_) => {
            stats.record_err();
            responder.send(STATUS_ERR, seq, HANDLER_PANICKED.to_vec());
        }
    }
}
