//! The multi-tenant TCP daemon.
//!
//! Thread architecture:
//!
//! ```text
//!  listener thread ──accept──▶ connection threads (one per socket)
//!                                   │  parse frames, route ADMIN inline
//!                                   │  try_send DATA jobs, routed by
//!                                   ▼  tenant hash │ all queues full ⇒ BUSY
//!                    sharded scheduler (one run queue per worker)
//!                      q0      q1      q2      q3
//!                      │       │       │       │   idle workers steal
//!                      ▼       ▼       ▼       ▼   from the busiest queue
//!                      w0      w1      w2      w3
//!                        lock tenant ▸ Service::handle ▸ reply
//! ```
//!
//! Jobs are routed to `hash(tenant) % workers` ([`crate::sched`]), so a
//! tenant's hot state — Scheme 2 chain-key memo, shard snapshots, shard
//! locks — stays on one core instead of bouncing between whichever
//! workers happen to pop a shared queue; stealing keeps a skewed tenant
//! mix from idling the rest of the pool. `SEARCH_MANY` batches execute
//! on the same pool through the spawn-free fan-out executor instead of
//! spawning scoped threads per request.
//!
//! Backpressure is explicit: when every run queue is full the connection
//! thread answers `BUSY` immediately instead of buffering unboundedly —
//! the client retries with backoff ([`crate::transport::TcpTransport`]).
//!
//! Graceful shutdown reuses [`sse_net::shutdown::ShutdownSignal`] (the
//! same primitive that stops [`sse_net::link::Duplex`]): the listener
//! stops accepting, connection threads stop reading and hang up, the job
//! sender side drops, and workers drain every queued job before exiting.
//! [`Daemon::shutdown`] joins all of them — no thread outlives the call.

use crate::proto::{
    self, Hello, StatsSnapshot, ADMIN_SHUTDOWN, ADMIN_STATS, HELLO_SEQ, KIND_ADMIN, KIND_DATA,
    KIND_SEARCH_MANY, KIND_UPDATE_MANY, STATUS_BUSY, STATUS_DEGRADED, STATUS_ERR, STATUS_OK,
};
use crate::reactor::{CompletionQueue, OutMsg, Reactor, ReactorOptions, Segment, POISON_TOKEN};
use crate::sched::{route_hash, JobSender, SchedCounters, Scheduler, SearchFanout};
use crate::scrub::{scrub_loop, scrub_pass, ScrubCounters};
use crate::stats::ServingStats;
use crate::tenant::{TenantHandle, TenantParams, TenantRegistry};
use sse_core::health::{HealthState, DEGRADED_RETRY_AFTER_MS};
use sse_net::frame::FrameDecoder;
use sse_net::pool::{BufPool, PooledBuf};
use sse_net::shutdown::ShutdownSignal;
use sse_storage::{FaultConfig, FaultStats, FaultVfs, RealVfs, Vfs};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked threads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Default per-connection idle timeout (see [`ServerConfig::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default cap on concurrently open connections in reactor mode.
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
    /// Close a connection that has sent no bytes for this long. Without it
    /// an idle (or vanished, on a network that never RSTs) client pins a
    /// reader thread forever.
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
    /// `true` (the default) runs the epoll reactor: one event-loop thread
    /// owns every socket ([`crate::reactor`]). `false` falls back to the
    /// legacy thread-per-connection architecture.
    pub reactor: bool,
    /// Reactor mode: connections accepted beyond this cap are dropped at
    /// accept (counted as `conns_rejected`).
    pub max_conns: usize,
    /// Reactor mode: a connection whose queued-but-unwritten response
    /// bytes exceed this bound is disconnected as a slow reader.
    pub write_queue_limit: usize,
    /// `true` (the default) serves the zero-copy hot path: frame bodies
    /// are assembled into pooled buffers and request payloads reach the
    /// workers as sliced views of them. `false` (`--no-pool`) falls back
    /// to a fresh `Vec` per frame and a copied payload per job — the
    /// pre-pool behavior, kept as the benchmark baseline.
    pub pool: bool,
    /// `true` (the default) routes jobs to `hash(tenant) % workers`, so a
    /// tenant's hot state stays core-local and idle workers steal from
    /// the busiest queue. `false` (`--no-affinity`) routes round-robin
    /// through the same sharded scheduler — the global-queue-equivalent
    /// baseline the sched bench compares against.
    pub affinity: bool,
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
            reactor: true,
            max_conns: DEFAULT_MAX_CONNS,
            write_queue_limit: DEFAULT_WRITE_QUEUE_LIMIT,
            pool: true,
            affinity: true,
        }
    }
}

/// State shared by the listener/reactor, connection and admin paths.
pub(crate) struct Shared {
    pub(crate) shutdown: ShutdownSignal,
    pub(crate) stats: Arc<ServingStats>,
    pub(crate) registry: Arc<TenantRegistry>,
    pub(crate) fault_stats: Option<Arc<FaultStats>>,
    pub(crate) scrub: Arc<ScrubCounters>,
    pub(crate) max_frame_len: u32,
    pub(crate) idle_timeout: Duration,
    /// The serving-path buffer pool. Cloned into the reactor when pooled
    /// mode is on; kept here regardless so `ADMIN_STATS` can report the
    /// hit/miss/recycle counters.
    pub(crate) pool: BufPool,
    /// Scheduler observability counters (routed / local hits / steals /
    /// spills / queue high-water, fan-out batches), overlaid into
    /// `ADMIN_STATS` like the pool and storage counters.
    pub(crate) sched: Arc<SchedCounters>,
}

impl Shared {
    /// Serving counters plus the storage-side robustness counters that
    /// live with the registry / fault VFS.
    pub(crate) fn full_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.wal_recoveries = self.registry.wal_recoveries();
        snap.torn_tails_truncated = self.registry.torn_tails_truncated();
        snap.shard_contention = self.registry.shard_contention();
        let commit = self.registry.commit_counters();
        snap.groups_committed = commit.groups_committed;
        snap.ops_committed = commit.ops_committed;
        snap.max_group_size = commit.max_group;
        snap.fsyncs_saved = commit.fsyncs_saved;
        snap.snapshot_swaps = commit.snapshot_swaps;
        let cache = self.registry.search_cache_counters();
        snap.search_cache_hits = cache.hits;
        snap.search_cache_misses = cache.misses;
        snap.walk_steps_saved = cache.walk_steps_saved;
        let backend = self.registry.backend_counters();
        snap.backend_runs_flushed = backend.runs_flushed;
        snap.backend_runs_live = backend.runs_live;
        snap.backend_compactions = backend.compactions;
        snap.backend_run_reads = backend.run_reads;
        snap.backend_bloom_checks = backend.bloom_checks;
        snap.backend_bloom_skips = backend.bloom_skips;
        snap.backend_bloom_false_positives = backend.bloom_false_positives;
        if let Some(f) = &self.fault_stats {
            snap.faults_injected = f.injected();
        }
        let health = self.registry.health_counters();
        snap.health_degradations = health.degradations;
        snap.health_recoveries = health.recoveries;
        snap.health_quarantines = health.quarantines;
        snap.tenants_degraded = health.tenants_degraded;
        snap.tenants_quarantined = health.tenants_quarantined;
        snap.scrub_passes = self.scrub.passes();
        snap.scrub_repairs = self.scrub.repairs();
        let pool = self.pool.counters();
        snap.pool_hits = pool.hits;
        snap.pool_misses = pool.misses;
        snap.pool_recycles = pool.recycles;
        snap.sched_routed = self.sched.routed();
        snap.sched_local_hits = self.sched.local_hits();
        snap.sched_stolen = self.sched.stolen();
        snap.sched_spilled = self.sched.spilled();
        snap.sched_queue_depth_hw = self.sched.queue_depth_hw();
        snap.fanout_batches = self.sched.fanout_batches();
        snap.fanout_parts_helped = self.sched.fanout_parts_helped();
        snap
    }
}

/// The ERR text for a request whose scheme handler panicked — the same
/// on a worker and on the reactor's run-to-completion path.
pub(crate) const HANDLER_PANICKED: &[u8] = b"internal error: request handler panicked";

/// Where a worker sends its response: directly down the socket (legacy
/// thread-per-connection mode, under the connection's writer lock) or
/// back to the reactor as a pre-framed completion.
#[derive(Clone)]
pub(crate) enum Responder {
    /// Write under the connection's writer mutex (frames from the reader
    /// thread and from workers must not interleave).
    Direct(Arc<Mutex<TcpStream>>),
    /// Post to the reactor's completion queue; the reactor owns the
    /// socket and serializes all writes through the connection's bounded
    /// write queue.
    Reactor {
        token: u64,
        completions: Arc<CompletionQueue>,
        /// `Some` in pooled mode: the response payload is sealed into the
        /// pool so its buffer recycles once the reactor's gather write
        /// finishes — steady-state, request-body acquires are served by
        /// retired response buffers instead of fresh allocations.
        pool: Option<BufPool>,
    },
}

impl Responder {
    /// Send one response envelope, taking the payload **by value** so it
    /// is written exactly once: the old `&[u8]` signature forced both
    /// arms through `encode_frame(encode_response(..))` — one copy to
    /// build the envelope, a second into the framed buffer. Now the
    /// reactor arm moves the payload into a scatter-gather [`OutMsg`]
    /// and the direct arm hands it to the kernel from where it sits via
    /// a vectored write.
    ///
    /// Returns `false` only when a direct write fails (the reactor path
    /// always accepts; a dead connection drops the completion by token
    /// mismatch).
    pub(crate) fn send(&self, status: u8, seq: u32, payload: Vec<u8>) -> bool {
        match self {
            Responder::Direct(writer) => {
                let mut stream = writer
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                write_response_direct(&mut stream, status, seq, &payload).is_ok()
            }
            Responder::Reactor {
                token,
                completions,
                pool,
            } => {
                let segment = Segment::sealed(pool.as_ref(), payload);
                completions.post(*token, OutMsg::response(status, seq, segment));
                true
            }
        }
    }
}

/// Blocking vectored write of `prefix ‖ payload` under the connection's
/// writer lock — the threaded-mode half of the zero-copy encode (the
/// payload goes out as its own iovec, never copied into a contiguous
/// frame buffer).
fn write_response_direct(
    stream: &mut TcpStream,
    status: u8,
    seq: u32,
    payload: &[u8],
) -> std::io::Result<()> {
    let head = proto::response_prefix(status, seq, payload.len());
    let total = head.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let bufs = if written < head.len() {
            [IoSlice::new(&head[written..]), IoSlice::new(payload)]
        } else {
            [
                IoSlice::new(&payload[written - head.len()..]),
                IoSlice::new(&[]),
            ]
        };
        match stream.write_vectored(&bufs) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One queued DATA, UPDATE_MANY or SEARCH_MANY request.
pub(crate) struct Job {
    pub(crate) tenant: TenantHandle,
    /// [`KIND_DATA`], [`KIND_UPDATE_MANY`] or [`KIND_SEARCH_MANY`] —
    /// decides how the worker interprets the payload.
    pub(crate) kind: u8,
    /// Client sequence number, echoed in the response so a pipelining
    /// client can match responses that workers complete out of order.
    pub(crate) seq: u32,
    /// The request payload. In pooled reactor mode this is a sliced view
    /// of the frame's pool buffer (zero-copy from the socket read);
    /// elsewhere it wraps an owned `Vec`. Dropping it recycles a pooled
    /// buffer automatically.
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
    /// Connection threads joined.
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
    /// Threaded mode only.
    listener_join: Option<JoinHandle<()>>,
    /// Threaded mode only.
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Reactor mode only.
    reactor_join: Option<JoinHandle<()>>,
    /// Reactor mode only: handle for waking the reactor from shutdown
    /// (and for the panic-injection test hook).
    completions: Option<Arc<CompletionQueue>>,
    /// Reactor mode only: second-phase drain signal, requested after the
    /// workers are joined so the reactor flushes the final responses and
    /// exits.
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
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = ShutdownSignal::new();
        let stats = Arc::new(ServingStats::new());
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
            Scheduler::<Job>::new(config.workers.max(1), config.queue_depth, config.affinity);
        let fanout = Arc::new(SearchFanout::new(sched.clone()));

        let worker_joins: Vec<JoinHandle<()>> = (0..sched.workers())
            .map(|me| {
                let sched = sched.clone();
                let fanout = fanout.clone();
                let stats = stats.clone();
                std::thread::spawn(move || worker_loop(me, &sched, &fanout, &stats))
            })
            .collect();

        let shared = Arc::new(Shared {
            shutdown,
            stats,
            registry,
            fault_stats,
            scrub: Arc::new(ScrubCounters::new()),
            max_frame_len: config.max_frame_len,
            idle_timeout: config.idle_timeout,
            pool: BufPool::new(),
            sched: sched.counters(),
        });

        let scrub_join = config.scrub_interval.map(|interval| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                scrub_loop(&shared.registry, &shared.scrub, &shared.shutdown, interval);
            })
        });

        let conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let drain_done = ShutdownSignal::new();
        let mut listener_join = None;
        let mut reactor_join = None;
        let mut completions = None;
        if config.reactor {
            let opts = ReactorOptions {
                max_frame_len: config.max_frame_len,
                idle_timeout: config.idle_timeout,
                max_conns: config.max_conns,
                write_queue_limit: config.write_queue_limit,
                pool: config.pool.then(|| shared.pool.clone()),
            };
            let (mut reactor, queue) = Reactor::new_real(
                listener,
                shared.clone(),
                job_tx.clone(),
                drain_done.clone(),
                opts,
            )?;
            completions = Some(queue);
            let shutdown = shared.shutdown.clone();
            reactor_join = Some(std::thread::spawn(move || {
                // Server-side thread: opt into the allocation meter so
                // `--bench-mode hotpath` counts reactor allocations but
                // not the bench client's own.
                allocmeter::track_current_thread();
                // A reactor panic (fatal accept error, poll failure,
                // poison) must start a graceful drain — a daemon without
                // its event loop can never serve again — and still count
                // as a panicked thread in the shutdown report.
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reactor.run()));
                if let Err(payload) = outcome {
                    shutdown.request();
                    std::panic::resume_unwind(payload);
                }
            }));
        } else {
            let shared = shared.clone();
            let conn_joins = conn_joins.clone();
            let job_tx = job_tx.clone();
            listener_join = Some(std::thread::spawn(move || {
                listener_loop(&listener, &shared, &conn_joins, &job_tx);
            }));
        }

        Ok(Daemon {
            local_addr,
            shared,
            listener_join,
            conn_joins,
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
    /// without reaching into thread internals. No-op in threaded mode.
    #[doc(hidden)]
    pub fn inject_reactor_panic(&self) {
        if let Some(queue) = &self.completions {
            queue.post(POISON_TOKEN, OutMsg::raw(Vec::new()));
        }
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
        if let Some(queue) = &self.completions {
            // Unpark the reactor from epoll_wait so it notices the flag
            // now rather than at its next timeout tick.
            queue.wake();
        }
        if let Some(join) = self.listener_join {
            join_counted(join, "listener");
        }
        // The listener has stopped spawning; connection threads notice the
        // flag within one poll interval and hang up.
        let conns = std::mem::take(
            &mut *self
                .conn_joins
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let mut connections_joined = conns.len();
        for join in conns {
            join_counted(join, "connection");
        }
        // All request producers are gone: dropping the daemon's own sender
        // closes the scheduler (the reactor drops its own clone on its
        // first post-shutdown turn), and workers exit after draining every
        // run queue.
        drop(self.job_tx);
        let workers_joined = self.worker_joins.len();
        for join in self.worker_joins {
            join_counted(join, "worker");
        }
        // Workers joined ⇒ every completion is posted. Tell the reactor
        // to flush the last responses and exit, then join it.
        self.drain_done.request();
        if let Some(queue) = &self.completions {
            queue.wake();
        }
        if let Some(join) = self.reactor_join {
            join_counted(join, "reactor");
            // The reactor handled every connection on one thread; report
            // the connections it retired where the threaded daemon would
            // report joined reader threads.
            connections_joined = self.shared.stats.snapshot().conns_accepted as usize;
        }
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

fn listener_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_joins: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    job_tx: &JobSender<Job>,
) {
    while !shared.shutdown.is_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Same reasoning as the reactor's accept path: responses
                // to a pipelined burst must not wait on delayed ACKs.
                stream.set_nodelay(true).ok();
                let shared = shared.clone();
                let job_tx = job_tx.clone();
                let join = std::thread::spawn(move || {
                    connection_loop(stream, &shared, &job_tx);
                });
                conn_joins
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(join);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) => {
                // The listener socket died: without it the daemon can never
                // accept again, so start a graceful drain instead of
                // lingering as a server that silently refuses connections.
                // Panicking (after requesting shutdown) makes the failure
                // visible in ShutdownReport::threads_panicked rather than
                // reading as a clean exit.
                shared.shutdown.request();
                panic!("sse-serverd: fatal accept error: {e}");
            }
        }
    }
}

fn worker_loop(
    me: usize,
    sched: &Arc<Scheduler<Job>>,
    fanout: &Arc<SearchFanout>,
    stats: &Arc<ServingStats>,
) {
    // Server-side thread: opt into the allocation meter (see the reactor
    // thread) so hotpath bench numbers cover scheme work, not clients.
    allocmeter::track_current_thread();
    // Worker w serves its own run queue first (its tenants' home), then
    // steals, then helps an active search fan-out, and only then parks.
    // The epoch is read before the probes so a submit that lands between
    // probe and park wakes the worker instead of waiting out the timeout.
    // Workers exit only once the scheduler is closed AND drained — the
    // same drain-the-backlog shutdown contract the old channel's
    // `recv`-until-disconnect loop provided.
    loop {
        let epoch = sched.idle_epoch();
        if let Some(job) = sched.try_next(me) {
            process_job(job, fanout, stats);
            continue;
        }
        if fanout.try_help() {
            continue;
        }
        if sched.is_closed() && sched.queued() == 0 {
            break;
        }
        sched.park(epoch, POLL_INTERVAL);
    }
}

fn process_job(job: Job, fanout: &Arc<SearchFanout>, stats: &Arc<ServingStats>) {
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
    // A panicking scheme handler must cost its request, not this worker
    // thread: an uncaught unwind here would shrink the pool until the
    // daemon deadlocks with jobs queued and no workers. parking_lot locks
    // release on unwind (no poisoning), so the tenant stays usable.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
        KIND_UPDATE_MANY => proto::decode_batch(&payload).map(|parts| tenant.apply_batch(&parts)),
        // SEARCH_MANY takes the payload by value: the executor shares the
        // (pooled, zero-copy) buffer with helper workers via Arc instead
        // of spawning scoped threads that could borrow it.
        KIND_SEARCH_MANY => fanout.search_many(&tenant, payload),
        _ => {
            // Pooled mode closes the loop on the response side too:
            // encode into a recycled pool buffer, which `send` seals
            // so the reactor's gather write recycles it again.
            let scratch = match &responder {
                Responder::Reactor {
                    pool: Some(pool), ..
                } => pool.acquire(RESPONSE_SCRATCH_CAPACITY),
                _ => Vec::new(),
            };
            Some(tenant.handle_shared_with(&payload, scratch))
        }
    }));
    match outcome {
        Ok(Some(response)) => {
            let bytes_out = response.len();
            if responder.send(STATUS_OK, seq, response) {
                stats.record_ok(bytes_in, bytes_out, queue_wait, service_start.elapsed());
            }
        }
        Ok(None) => {
            stats.record_err();
            responder.send(STATUS_ERR, seq, b"malformed batch".to_vec());
        }
        Err(_) => {
            stats.record_err();
            responder.send(STATUS_ERR, seq, HANDLER_PANICKED.to_vec());
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>, job_tx: &JobSender<Job>) {
    // Server-side thread (legacy mode): opt into the allocation meter so
    // the hotpath bench's legacy arm measures this path's allocations.
    allocmeter::track_current_thread();
    let Shared {
        shutdown,
        stats,
        registry,
        ..
    } = &**shared;
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    stats.record_conn_accepted();
    // Counted on every exit path so `conns_open` balances in threaded
    // mode just as it does under the reactor.
    struct CloseGuard<'a>(&'a ServingStats);
    impl Drop for CloseGuard<'_> {
        fn drop(&mut self) {
            self.0.record_conn_closed();
        }
    }
    let _close_guard = CloseGuard(stats);
    let responder = Responder::Direct(writer);
    let mut reader = stream;
    let mut decoder = FrameDecoder::with_max_len(shared.max_frame_len);
    let mut tenant: Option<TenantHandle> = None;
    // Routing key for the scheduler, fixed at hello: every job from this
    // connection homes to the same worker queue (tenant affinity).
    let mut route: u64 = 0;
    let mut buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();

    'conn: while !shutdown.is_requested() {
        match reader.read(&mut buf) {
            Ok(0) => break, // peer hung up
            Ok(n) => {
                last_activity = Instant::now();
                decoder.push(&buf[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Poll tick: re-check the shutdown flag, and hang up on
                // clients that have gone silent — a vanished peer (or an
                // idle one) must not pin this reader thread forever.
                if last_activity.elapsed() >= shared.idle_timeout {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(too_large) => {
                    stats.record_err();
                    responder.send(STATUS_ERR, HELLO_SEQ, too_large.to_string().into_bytes());
                    break 'conn;
                }
            };
            // First frame must be the hello.
            let Some(current_tenant) = tenant.as_ref() else {
                match Hello::decode(&frame) {
                    Some(hello) => {
                        let existed = registry.contains(&hello.tenant, hello.scheme);
                        match registry.get_or_create(&hello.tenant, hello.scheme) {
                            Ok(handle) => {
                                if existed {
                                    stats.record_reconnect();
                                }
                                route = route_hash(&hello.tenant, hello.scheme);
                                tenant = Some(handle);
                                if !responder.send(STATUS_OK, HELLO_SEQ, Vec::new()) {
                                    break 'conn;
                                }
                            }
                            Err(e) => {
                                stats.record_err();
                                responder.send(
                                    STATUS_ERR,
                                    HELLO_SEQ,
                                    format!("tenant open failed: {e}").into_bytes(),
                                );
                                break 'conn;
                            }
                        }
                    }
                    None => {
                        stats.record_err();
                        responder.send(STATUS_ERR, HELLO_SEQ, b"malformed hello".to_vec());
                        break 'conn;
                    }
                }
                continue;
            };
            let Some((kind, seq, payload)) = proto::decode_request(&frame) else {
                stats.record_err();
                responder.send(STATUS_ERR, HELLO_SEQ, b"malformed request".to_vec());
                break 'conn;
            };
            match kind {
                KIND_DATA | KIND_UPDATE_MANY | KIND_SEARCH_MANY => {
                    // Threaded mode still copies the payload out of the
                    // decoder's frame; the copy is counted so the hotpath
                    // bench can show what pooled mode saves.
                    stats.record_bytes_copied(payload.len() as u64);
                    let job = Job {
                        tenant: current_tenant.clone(),
                        kind,
                        seq,
                        payload: PooledBuf::from_vec(payload.to_vec()),
                        responder: responder.clone(),
                        accepted: Instant::now(),
                    };
                    match job_tx.try_send(route, job) {
                        Ok(()) => {}
                        Err(_job) => {
                            // Every run queue is full (home and spill
                            // alike). Explicit backpressure: reject now,
                            // let the client retry, never queue
                            // unboundedly.
                            stats.record_busy();
                            if !responder.send(STATUS_BUSY, seq, Vec::new()) {
                                break 'conn;
                            }
                        }
                    }
                }
                KIND_ADMIN => match payload.first().copied() {
                    Some(ADMIN_STATS) => {
                        let snap = shared.full_snapshot().encode();
                        if !responder.send(STATUS_OK, seq, snap) {
                            break 'conn;
                        }
                    }
                    Some(ADMIN_SHUTDOWN) => {
                        responder.send(STATUS_OK, seq, Vec::new());
                        shutdown.request();
                        break 'conn;
                    }
                    _ => {
                        stats.record_err();
                        responder.send(STATUS_ERR, seq, b"unknown admin command".to_vec());
                        break 'conn;
                    }
                },
                _ => {
                    stats.record_err();
                    responder.send(STATUS_ERR, seq, b"unknown request kind".to_vec());
                    break 'conn;
                }
            }
        }
    }
}
