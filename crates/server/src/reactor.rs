//! Readiness-driven non-blocking event loop for the daemon's accept/IO
//! layer.
//!
//! One reactor thread owns the listener, a wakeup pipe, and every client
//! socket. Sockets are nonblocking; the reactor parks in `epoll_wait` and
//! only touches a connection when the kernel reports it ready. Frames are
//! assembled incrementally by [`StreamingDecoder`] — a connection that is
//! idle at a frame boundary holds **zero** buffered bytes, which is what
//! lets one thread hold tens of thousands of idle tenants at a flat
//! per-connection cost (a thread per connection would pay a stack per
//! idle socket).
//!
//! ```text
//!              epoll_wait ──▶ reactor thread
//!   listener ready ─▶ accept loop (cap: max_conns)
//!   socket readable ─▶ StreamingDecoder ─▶ frames ─▶ try_send job ─▶ workers
//!                        └ nothing in flight, tenant can answer without
//!                          waiting or running long ─▶ reply queued here
//!   socket writable ─▶ settle: flush the bounded write queue
//!   wake pipe ready ─▶ drain CompletionQueue (worker responses)
//! ```
//!
//! **One reply path.** Every reply — hello, `BUSY`, `ERR`, `ADMIN`, an
//! inline answer, a worker's completion — is only queued on its
//! connection's bounded write queue. One method, `Reactor::settle`,
//! writes: it flushes what the kernel takes in gather writes, arms
//! `EPOLLOUT` for the rest, disconnects a reader whose queue exceeds the
//! bound (`slow_reader_disconnects`), and closes a draining connection
//! once its queue is flushed and nothing of it is in flight. It runs at
//! the end of every read chunk, once per connection a completion drain
//! touched, on `EPOLLOUT`, on entering shutdown, and as soon as a queued
//! reply takes the queue past the bound — so the daemon's memory stays
//! bounded reply by reply, however slow the peer. `BUSY` remains the
//! job-queue backpressure signal; there is no BUSY-on-accept.
//!
//! **Workers.** CPU-bound scheme work still runs on the worker pool. The
//! reactor hands jobs over with a `Responder` handle; workers post
//! pre-framed responses to the `CompletionQueue` and nudge the reactor
//! through the wakeup pipe.
//!
//! **Run to completion.** The hand-off out and back costs more than a
//! memo-hit Scheme 2 search or a small in-memory Scheme 2 update does, so
//! a `KIND_DATA` frame on a connection with nothing in flight is first
//! offered to the tenant ([`TenantDb::try_handle_inline`]), which answers
//! only what can neither wait nor run long. A yes is queued here; a no
//! becomes a job with the frame untouched. At most `INLINE_BURST` frames
//! per readiness event are answered this way (DESIGN.md §4n).
//!
//! **Determinism.** Everything is generic over [`Poller`], so the unit
//! tests drive the exact production state machine with a scripted
//! [`MockPoller`](epoll::MockPoller) — spurious wakeups, out-of-order
//! readiness and stale tokens included — without opening a socket.

use crate::daemon::{Job, Responder, Shared, HANDLER_PANICKED};
use crate::proto::{
    self, Hello, ADMIN_SHUTDOWN, ADMIN_STATS, HELLO_SEQ, KIND_ADMIN, KIND_DATA, KIND_UPDATE_MANY,
    STATUS_BUSY, STATUS_ERR, STATUS_OK,
};
use crate::sched::{route_hash, JobSender};
use crate::stats::ServingStats;
use crate::tenant::{TenantDb, TenantHandle};
use epoll::{wake_pipe, Event, Interest, Poller, RealPoller, WakeReader, Waker};
use sse_net::frame::StreamingDecoder;
use sse_net::pool::PooledBuf;
use sse_net::shutdown::ShutdownSignal;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token carried by listener readiness events.
pub(crate) const LISTENER_TOKEN: u64 = u64::MAX;
/// Token carried by wakeup-pipe readiness events.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Completion token that panics the reactor thread — a test hook for the
/// "reactor dies mid-load" shutdown-accounting path. Never used by
/// production code paths.
pub(crate) const POISON_TOKEN: u64 = u64::MAX - 2;

/// How long the final drain waits for peers to accept queued response
/// bytes before giving up on them.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Read scratch buffer size (per reactor, not per connection).
const SCRATCH_LEN: usize = 64 * 1024;

/// Iovec slots per `writev` (the syscall-coalescing batch bound).
const WRITEV_BATCH: usize = epoll::IOV_MAX;

/// Most frames one readiness event may have answered on this thread
/// (DESIGN.md §4n). The rest of the frames it has read go to the run
/// queue and the event ends, so a connection pipelining memo hits cannot
/// hold the reactor. 64 is the default run-queue depth and four times the
/// deepest pipeline `sse-perf` and `sse-load` drive (16); the value is
/// not tuned, no workload having a second connection whose wait it would
/// shorten.
const INLINE_BURST: usize = 64;

#[cfg(test)]
thread_local! {
    /// Test hook: the next inline handler call on this thread panics.
    static PANIC_NEXT_INLINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Ask `tenant` to answer a `KIND_DATA` payload on this thread, which it
/// does only if that can neither wait nor run long
/// ([`TenantDb::try_handle_inline`]). `Ok(None)` declined and changed
/// nothing. `Err` is a panicking handler, contained as `process_job`
/// contains a worker's: it costs the request, not the thread.
fn try_inline(tenant: &TenantDb, payload: &[u8]) -> std::thread::Result<Option<Vec<u8>>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        if PANIC_NEXT_INLINE.with(|hook| hook.replace(false)) {
            panic!("test hook: inline handler panic");
        }
        tenant.try_handle_inline(payload)
    }))
}

/// Pack a slab index and generation into an epoll token.
fn make_token(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

/// Split an epoll token back into `(idx, gen)`.
fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// One outbound wire message held in scatter-gather form: the fixed
/// response prefix (frame length ‖ status ‖ seq) inline, the payload as
/// the handler's own buffer, freed once written. The two parts go to the
/// kernel as separate iovecs — the payload bytes are never memcpy'd into
/// a contiguous frame buffer.
pub(crate) struct OutMsg {
    head: [u8; 9],
    head_len: u8,
    payload: Vec<u8>,
}

impl OutMsg {
    /// A response envelope around `payload`.
    pub(crate) fn response(status: u8, seq: u32, payload: Vec<u8>) -> OutMsg {
        OutMsg {
            head: proto::response_prefix(status, seq, payload.len()),
            head_len: 9,
            payload,
        }
    }

    /// Pre-framed raw bytes (no prefix is added — test hooks only).
    pub(crate) fn raw(frame: Vec<u8>) -> OutMsg {
        OutMsg {
            head: [0; 9],
            head_len: 0,
            payload: frame,
        }
    }

    fn head(&self) -> &[u8] {
        &self.head[..usize::from(self.head_len)]
    }

    /// Total wire length.
    fn len(&self) -> usize {
        usize::from(self.head_len) + self.payload.len()
    }
}

/// One finished worker response, addressed by connection token.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) msg: OutMsg,
}

/// Worker → reactor handoff: a queue of responses plus the wakeup pipe
/// that unparks the reactor from `epoll_wait`.
pub(crate) struct CompletionQueue {
    queue: Mutex<VecDeque<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    pub(crate) fn new(waker: Waker) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    /// Post one response for the connection behind `token` and unpark the
    /// reactor.
    pub(crate) fn post(&self, token: u64, msg: OutMsg) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(Completion { token, msg });
        self.waker.notify();
    }

    /// Unpark the reactor without posting anything (shutdown nudges).
    pub(crate) fn wake(&self) {
        self.waker.notify();
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        let mut q = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.extend(q.drain(..));
    }
}

/// The socket side of a connection, abstracted so unit tests can script
/// reads and writes without a kernel socket.
pub(crate) trait ConnIo: Read + Write + Send {
    /// Raw fd for poller registration.
    fn fd(&self) -> RawFd;

    /// Gather-write `bufs` in order, returning bytes accepted (possibly a
    /// partial prefix of the total). The scripted test IO honors its
    /// write-capacity valve across segments so partial-`writev` resume is
    /// deterministic.
    fn writev(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize>;
}

impl ConnIo for TcpStream {
    fn fd(&self) -> RawFd {
        self.as_raw_fd()
    }

    fn writev(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        epoll::writev_fd(self.as_raw_fd(), bufs)
    }
}

/// Protocol position of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Nothing valid received yet; the first frame must be the hello.
    AwaitingHello,
    /// Hello accepted; serving requests for `tenant`.
    Established,
    /// A fatal protocol error was answered (or the envelope demands a
    /// close): stop reading, flush the write queue, then close.
    Draining,
}

/// Why a connection was closed — drives the per-reason counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CloseReason {
    /// Peer hung up (read returned 0) or reset.
    PeerClosed,
    /// A read or write failed with a real error.
    IoError,
    /// The draining write queue emptied after a protocol error or admin
    /// close.
    Drained,
    /// Reaped by the idle deadline.
    Idle,
    /// The bounded write queue overflowed: the peer reads slower than it
    /// triggers responses.
    SlowReader,
    /// Daemon shutdown closed the connection.
    Shutdown,
}

/// Per-connection state machine.
struct Conn {
    io: Box<dyn ConnIo>,
    state: ConnState,
    decoder: StreamingDecoder,
    tenant: Option<TenantHandle>,
    /// Responses not yet accepted by the kernel, oldest first, in
    /// scatter-gather form.
    write_queue: VecDeque<OutMsg>,
    /// Bytes of `write_queue.front()` already written. After a `writev`
    /// that spanned several messages this may transiently exceed the
    /// front's length; the flush loop normalizes it while popping.
    write_offset: usize,
    /// Total bytes across `write_queue` (the bound is checked against
    /// this sum).
    queued_bytes: usize,
    /// Jobs handed to workers whose responses have not come back yet. An
    /// in-flight connection is never idle-reaped.
    in_flight: u32,
    /// Scheduler routing key, fixed at hello from the tenant name and
    /// scheme: every job from this connection homes to one worker queue
    /// (tenant affinity).
    route: u64,
    /// Advanced only when a **complete** frame arrives — a slow-loris
    /// client dripping single header bytes stays eligible for the idle
    /// reaper.
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(io: Box<dyn ConnIo>, max_frame_len: u32) -> Conn {
        Conn {
            io,
            state: ConnState::AwaitingHello,
            decoder: StreamingDecoder::with_max_len(max_frame_len),
            tenant: None,
            write_queue: VecDeque::new(),
            write_offset: 0,
            queued_bytes: 0,
            in_flight: 0,
            route: 0,
            last_activity: Instant::now(),
            interest: Interest::READABLE,
        }
    }

    /// Unwritten response bytes still queued.
    fn pending_write_bytes(&self) -> usize {
        self.queued_bytes - self.write_offset
    }

    /// Append an outbound message to the write queue. Nothing is written
    /// here: [`Reactor::settle`] does that.
    fn queue(&mut self, msg: OutMsg) {
        self.queued_bytes += msg.len();
        self.write_queue.push_back(msg);
    }

    /// Queue one response envelope around an owned payload.
    fn reply(&mut self, status: u8, seq: u32, payload: Vec<u8>) {
        self.queue(OutMsg::response(status, seq, payload));
    }

    /// Answer a fatal protocol error: count it, stop reading and queue the
    /// ERR. The connection closes once that is flushed and nothing of it
    /// is in flight.
    fn reject(&mut self, stats: &ServingStats, seq: u32, msg: impl Into<Vec<u8>>) {
        stats.record_err();
        self.state = ConnState::Draining;
        self.reply(STATUS_ERR, seq, msg.into());
    }
}

/// Generation-checked connection slab. Slot indices are reused; the
/// generation in the token distinguishes the current occupant from a
/// late event for a closed predecessor.
struct ConnTable {
    slots: Vec<Option<(u32, Conn)>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u32,
}

impl ConnTable {
    fn new() -> ConnTable {
        ConnTable {
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            next_gen: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u32) {
        let gen = self.next_gen;
        // Skip u32::MAX so a token can never collide with the reserved
        // LISTENER/WAKE/POISON tokens.
        self.next_gen = self.next_gen.wrapping_add(1);
        if self.next_gen == u32::MAX {
            self.next_gen = 0;
        }
        self.open += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some((gen, conn));
                (idx, gen)
            }
            None => {
                self.slots.push(Some((gen, conn)));
                (self.slots.len() - 1, gen)
            }
        }
    }

    fn get_mut(&mut self, idx: usize, gen: u32) -> Option<&mut Conn> {
        match self.slots.get_mut(idx) {
            Some(Some((g, conn))) if *g == gen => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, idx: usize, gen: u32) -> Option<Conn> {
        match self.slots.get_mut(idx) {
            Some(slot @ Some(_)) if slot.as_ref().is_some_and(|(g, _)| *g == gen) => {
                let (_, conn) = slot.take()?;
                self.free.push(idx);
                self.open -= 1;
                Some(conn)
            }
            _ => None,
        }
    }

    fn tokens(&self) -> Vec<(usize, u32)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|(gen, _)| (idx, *gen)))
            .collect()
    }

    fn any_pending_writes(&self) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|(_, conn)| !conn.write_queue.is_empty())
    }
}

/// Reactor tunables, split from [`crate::daemon::ServerConfig`] so the
/// unit tests can construct them directly.
#[derive(Clone, Debug)]
pub(crate) struct ReactorOptions {
    pub(crate) max_frame_len: u32,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_conns: usize,
    pub(crate) write_queue_limit: usize,
}

/// The event loop. Generic over the poller so tests substitute a
/// scripted [`epoll::MockPoller`] for the kernel.
pub(crate) struct Reactor<P: Poller> {
    poller: P,
    listener: Option<TcpListener>,
    wake: WakeReader,
    completions: Arc<CompletionQueue>,
    conns: ConnTable,
    shared: Arc<Shared>,
    /// Dropped when shutdown begins so workers see the scheduler close
    /// once every producer is gone.
    job_tx: Option<JobSender<Job>>,
    /// Second-phase signal: workers have been joined, flush what remains
    /// and exit.
    drain_done: ShutdownSignal,
    opts: ReactorOptions,
    scratch: Vec<u8>,
    frames: Vec<PooledBuf>,
    completion_buf: Vec<Completion>,
    /// Deduped connections touched by the current completion batch —
    /// reused across drains so a steady-state drain allocates nothing.
    touched_buf: Vec<(usize, u32)>,
    accepting: bool,
    last_sweep: Instant,
    shutdown_entered: bool,
    drain_since: Option<Instant>,
    /// Set when accept hit fd exhaustion (EMFILE/ENFILE): the listener's
    /// read interest is parked until this instant so a full backlog does
    /// not spin the level-triggered poll hot while no fd can be accepted.
    accept_paused_until: Option<Instant>,
}

impl Reactor<RealPoller> {
    /// Build a kernel-backed reactor: epoll instance, wakeup pipe, and
    /// the listener registered. Returns the reactor plus the completion
    /// queue handle workers and [`crate::daemon::Daemon::shutdown`] use
    /// to unpark it.
    pub(crate) fn new_real(
        listener: TcpListener,
        shared: Arc<Shared>,
        job_tx: JobSender<Job>,
        drain_done: ShutdownSignal,
        opts: ReactorOptions,
    ) -> std::io::Result<(Reactor<RealPoller>, Arc<CompletionQueue>)> {
        let mut poller = RealPoller::new()?;
        let (waker, wake_rx) = wake_pipe()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READABLE)?;
        let reactor = Reactor::with_parts(
            poller,
            Some(listener),
            (waker, wake_rx),
            shared,
            job_tx,
            drain_done,
            opts,
        );
        let completions = reactor.completions.clone();
        Ok((reactor, completions))
    }
}

impl<P: Poller> Reactor<P> {
    /// `wake` is the wakeup pipe: workers post to a completion queue
    /// around its write end, the reactor reads the other.
    fn with_parts(
        poller: P,
        listener: Option<TcpListener>,
        (waker, wake): (Waker, WakeReader),
        shared: Arc<Shared>,
        job_tx: JobSender<Job>,
        drain_done: ShutdownSignal,
        opts: ReactorOptions,
    ) -> Reactor<P> {
        Reactor {
            poller,
            listener,
            wake,
            completions: Arc::new(CompletionQueue::new(waker)),
            conns: ConnTable::new(),
            shared,
            job_tx: Some(job_tx),
            drain_done,
            opts,
            scratch: vec![0; SCRATCH_LEN],
            frames: Vec::new(),
            completion_buf: Vec::new(),
            touched_buf: Vec::new(),
            accepting: true,
            last_sweep: Instant::now(),
            shutdown_entered: false,
            drain_since: None,
            accept_paused_until: None,
        }
    }

    /// Idle sweep cadence: a quarter of the deadline, bounded so short
    /// test timeouts sweep promptly and long production timeouts don't
    /// spin.
    fn sweep_period(&self) -> Duration {
        (self.opts.idle_timeout / 4).clamp(Duration::from_millis(5), Duration::from_secs(1))
    }

    /// Run until shutdown completes. Panics on unrecoverable reactor
    /// errors (poll failure, fatal accept error, poison) — the daemon
    /// wraps this thread in `catch_unwind` and turns a panic into a
    /// graceful drain plus a `threads_panicked` count.
    pub(crate) fn run(&mut self) {
        let mut events = Vec::new();
        while self.turn(&mut events) {}
        self.close_all(CloseReason::Shutdown);
    }

    /// One poll-dispatch-sweep cycle. Returns `false` when the final
    /// drain is complete and the loop should exit.
    pub(crate) fn turn(&mut self, events: &mut Vec<Event>) -> bool {
        self.maybe_resume_accepts();
        let timeout = self.sweep_period().min(Duration::from_millis(100));
        match self.poller.wait(events, Some(timeout)) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("reactor: poll failed: {e}"),
        }
        if events.iter().any(|ev| ev.token == WAKE_TOKEN) {
            // One pipe read per poll batch, no matter how many worker
            // notifications piled up while we were busy — every
            // notification beyond the first rode along for free. Read
            // before the queue is drained, so a completion posted after
            // the drain leaves a byte that wakes the next poll.
            let notifications = self.wake.drain();
            self.shared.stats.record_reactor_wakeup();
            self.shared
                .stats
                .record_wakeups_coalesced(notifications.saturating_sub(1) as u64);
        }
        // Completions first, then the connections' events: a connection
        // whose last reply arrived in this turn is back at `in_flight == 0`
        // when its next frame is read, so a memo hit there is answered
        // inline instead of hopping to a worker behind a reply that was
        // already here. Completions can arrive without a wake being
        // observed yet (the pipe write races the poll timeout), so drain
        // every turn.
        self.drain_completions();
        for &ev in events.iter() {
            match ev.token {
                LISTENER_TOKEN => self.accept_ready(),
                WAKE_TOKEN => {}
                _ => self.conn_event(ev),
            }
        }
        if self.shared.shutdown.is_requested() {
            self.enter_shutdown();
        } else {
            self.sweep_idle();
        }
        if self.drain_done.is_requested() {
            // Workers are joined: every completion is already posted.
            self.drain_completions();
            let deadline_passed = match self.drain_since {
                None => {
                    self.drain_since = Some(Instant::now());
                    false
                }
                Some(since) => since.elapsed() >= DRAIN_GRACE,
            };
            if !self.conns.any_pending_writes() || deadline_passed {
                return false;
            }
        }
        true
    }

    /// Accept every pending connection (level-triggered: stop at
    /// `WouldBlock`). A fatal listener error panics — the daemon's
    /// catch_unwind wrapper converts that into a graceful drain with the
    /// panic counted, because a daemon that can never accept again must
    /// not linger as a silent connection-refuser.
    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.open >= self.opts.max_conns {
                        // At capacity: shed at accept. Dropping the socket
                        // sends the peer a clean close; unlike the old
                        // BUSY-on-accept there is no thread to protect,
                        // only the conn-table bound.
                        self.shared.stats.record_conn_rejected();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Pipelined clients read several small responses per
                    // burst; Nagle would hold every response after the
                    // first until the peer's (delayed) ACK.
                    stream.set_nodelay(true).ok();
                    let fd = stream.as_raw_fd();
                    let (idx, gen) = self
                        .conns
                        .insert(Conn::new(Box::new(stream), self.opts.max_frame_len));
                    let token = make_token(idx, gen);
                    if self.poller.register(fd, token, Interest::READABLE).is_err() {
                        self.conns.remove(idx, gen);
                        continue;
                    }
                    self.shared.stats.record_conn_accepted();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                // EMFILE/ENFILE: fd exhaustion is load, not a broken
                // listener. Count the shed connection and park the
                // listener's read interest briefly — the pending sockets
                // stay in the backlog, and without the park a
                // level-triggered poll would spin hot on a listener that
                // cannot be accepted from.
                Err(e) if matches!(e.raw_os_error(), Some(23 | 24)) => {
                    self.shared.stats.record_conn_rejected();
                    let fd = listener.as_raw_fd();
                    let parked = Interest {
                        readable: false,
                        writable: false,
                    };
                    if self.poller.reregister(fd, LISTENER_TOKEN, parked).is_ok() {
                        self.accept_paused_until =
                            Some(Instant::now() + Duration::from_millis(100));
                    }
                    break;
                }
                Err(e) => {
                    self.shared.shutdown.request();
                    panic!("reactor: fatal accept error: {e}");
                }
            }
        }
    }

    /// Re-arm a listener parked by fd exhaustion once the pause expires
    /// (fds may have freed in the meantime; if not, the next accept just
    /// parks it again).
    fn maybe_resume_accepts(&mut self) {
        let due = matches!(self.accept_paused_until, Some(until) if Instant::now() >= until);
        if !due {
            return;
        }
        self.accept_paused_until = None;
        if !self.accepting {
            return;
        }
        if let Some(listener) = &self.listener {
            let fd = listener.as_raw_fd();
            let _ = self
                .poller
                .reregister(fd, LISTENER_TOKEN, Interest::READABLE);
        }
    }

    /// Dispatch one readiness event for a connection token. Stale tokens
    /// (the slot was reused or the conn closed) are ignored — epoll may
    /// deliver events queued before a deregister.
    fn conn_event(&mut self, ev: Event) {
        let (idx, gen) = split_token(ev.token);
        let Some(conn) = self.conns.get_mut(idx, gen) else {
            return;
        };
        if ev.error {
            self.close_conn(idx, gen, CloseReason::IoError);
            return;
        }
        // Writable first: draining the queue may free the bound before
        // new responses are queued by the readable half.
        if ev.writable {
            if conn.write_queue.is_empty() {
                self.shared.stats.record_reactor_spurious_poll();
            }
            if !self.settle(idx, gen) {
                return;
            }
        }
        if ev.readable {
            self.on_readable(idx, gen);
        }
    }

    /// Read until `WouldBlock`, feeding the streaming decoder and
    /// handling every completed frame in arrival order. Each chunk's
    /// replies are settled after its last frame, so they leave in one
    /// gather write.
    fn on_readable(&mut self, idx: usize, gen: u32) {
        let shutdown = self.shared.shutdown.is_requested();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut frames = std::mem::take(&mut self.frames);
        let mut close: Option<CloseReason> = None;
        let mut progressed = false;
        let mut inline_left = INLINE_BURST;
        while let Some(conn) = self.conns.get_mut(idx, gen) {
            if shutdown || conn.state == ConnState::Draining {
                break;
            }
            let n = match conn.io.read(&mut scratch) {
                Ok(0) => {
                    close = Some(CloseReason::PeerClosed);
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = Some(CloseReason::IoError);
                    break;
                }
            };
            progressed = true;
            frames.clear();
            if let Err(too_large) = conn.decoder.feed_pooled(&scratch[..n], &mut frames) {
                // Forged or oversized length prefix: a poisoned decoder
                // taints the whole chunk, so its frames go unanswered.
                frames.clear();
                conn.reject(&self.shared.stats, HELLO_SEQ, too_large.to_string());
            }
            for frame in frames.drain(..) {
                if !self.handle_frame(idx, gen, frame, &mut inline_left) {
                    break;
                }
            }
            if !self.settle(idx, gen) || inline_left == 0 {
                // Closed, or the burst is spent: a spent burst ends the
                // event here instead of reading on. Replies written above may already have drawn the
                // peer's next requests, and a peer that keeps its socket
                // non-empty that way would otherwise never let this loop
                // reach `WouldBlock`. What it sent stays in the socket;
                // the level-triggered poller reports it on the next turn,
                // after every other ready connection.
                break;
            }
        }
        self.scratch = scratch;
        self.frames = frames;
        match close {
            Some(reason) => self.close_conn(idx, gen, reason),
            // The kernel woke us for a socket with nothing to read — by
            // contract that must be harmless.
            None if !progressed => self.shared.stats.record_reactor_spurious_poll(),
            None => {}
        }
    }

    /// Interpret one complete frame according to the connection's state
    /// and queue its reply. Returns whether to handle the chunk's next
    /// frame: `false` once the connection is draining or closed.
    ///
    /// Takes the frame **by value**: the job payload is the frame's own
    /// buffer, advanced past the envelope (no copy).
    fn handle_frame(
        &mut self,
        idx: usize,
        gen: u32,
        frame: PooledBuf,
        inline_left: &mut usize,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(idx, gen) else {
            return false;
        };
        // Only complete frames count as activity: slow-loris drips never
        // reset the idle deadline.
        conn.last_activity = Instant::now();
        let shared = &*self.shared;
        let stats = &shared.stats;
        match conn.state {
            ConnState::AwaitingHello => match Hello::decode(&frame) {
                Some(hello) => {
                    let existed = shared.registry.contains(&hello.tenant, hello.scheme);
                    match shared.registry.get_or_create(&hello.tenant, hello.scheme) {
                        Ok(handle) => {
                            if existed {
                                stats.record_reconnect();
                            }
                            conn.route = route_hash(&hello.tenant, hello.scheme);
                            conn.tenant = Some(handle);
                            conn.state = ConnState::Established;
                            conn.reply(STATUS_OK, HELLO_SEQ, Vec::new());
                        }
                        Err(e) => conn.reject(stats, HELLO_SEQ, format!("tenant open failed: {e}")),
                    }
                }
                None => conn.reject(stats, HELLO_SEQ, "malformed hello"),
            },
            ConnState::Established => {
                let Some((kind, seq, _)) = proto::decode_request(&frame) else {
                    conn.reject(stats, HELLO_SEQ, "malformed request");
                    return false;
                };
                match kind {
                    KIND_DATA | KIND_UPDATE_MANY => 'job: {
                        if kind == KIND_DATA {
                            if Self::answer_inline(conn, stats, &frame, seq, inline_left) {
                                break 'job;
                            }
                            stats.record_inline_declined();
                        }
                        let tenant = conn
                            .tenant
                            .clone()
                            .expect("established connection has a tenant");
                        // The worker gets the frame's buffer past the
                        // 5-byte envelope — the request payload is never
                        // copied between the socket read and the scheme
                        // handler.
                        let mut payload = frame;
                        payload.advance(proto::REQUEST_HEADER_LEN);
                        let job = Job {
                            tenant,
                            kind,
                            seq,
                            payload,
                            responder: Responder {
                                token: make_token(idx, gen),
                                completions: self.completions.clone(),
                            },
                            accepted: Instant::now(),
                        };
                        // `None` (shutdown already began; workers are
                        // draining) is treated like a full queue.
                        let sent = match &self.job_tx {
                            Some(tx) => tx.try_send(conn.route, job).is_ok(),
                            None => false,
                        };
                        if sent {
                            conn.in_flight += 1;
                        } else {
                            // Explicit job-queue backpressure (every run
                            // queue full, home and spill alike): reject
                            // now, the client backs off and retries.
                            stats.record_busy();
                            conn.reply(STATUS_BUSY, seq, Vec::new());
                        }
                    }
                    KIND_ADMIN => match frame.get(proto::REQUEST_HEADER_LEN).copied() {
                        Some(ADMIN_STATS) => {
                            conn.reply(STATUS_OK, seq, shared.full_snapshot().encode());
                        }
                        Some(ADMIN_SHUTDOWN) => {
                            conn.reply(STATUS_OK, seq, Vec::new());
                            shared.shutdown.request();
                        }
                        _ => conn.reject(stats, seq, "unknown admin command"),
                    },
                    _ => conn.reject(stats, seq, "unknown request kind"),
                }
            }
            // Already draining: frames decoded after the fatal one are
            // ignored.
            ConnState::Draining => {}
        }
        // A reply that took the queue past the bound is settled at once,
        // so the bound holds reply by reply, not only per chunk.
        let serving = conn.state != ConnState::Draining;
        let over = conn.pending_write_bytes() > self.opts.write_queue_limit;
        serving && (!over || self.settle(idx, gen))
    }

    /// Run to completion (DESIGN.md §4n): answer a `KIND_DATA` frame here
    /// if the tenant can do that without waiting or running long, and
    /// queue the reply. With nothing of the connection in flight an
    /// answer given here cannot overtake an earlier request. `false`: the
    /// frame, untouched, still needs a worker.
    fn answer_inline(
        conn: &mut Conn,
        stats: &ServingStats,
        frame: &[u8],
        seq: u32,
        inline_left: &mut usize,
    ) -> bool {
        if conn.in_flight != 0 || *inline_left == 0 {
            return false;
        }
        let tenant = conn
            .tenant
            .as_deref()
            .expect("established connection has a tenant");
        let payload = &frame[proto::REQUEST_HEADER_LEN..];
        let started = Instant::now();
        match try_inline(tenant, payload) {
            Ok(None) => return false,
            Ok(Some(response)) => {
                stats.record_ok(
                    payload.len(),
                    response.len(),
                    Duration::ZERO,
                    started.elapsed(),
                );
                stats.record_inline_served();
                *inline_left -= 1;
                conn.reply(STATUS_OK, seq, response);
            }
            Err(_) => {
                stats.record_err();
                conn.reply(STATUS_ERR, seq, HANDLER_PANICKED.to_vec());
            }
        }
        true
    }

    /// The one place a connection's queued replies are written and its
    /// fate decided (DESIGN.md §4i). Flush what the kernel will take; cut
    /// a peer whose unwritten bytes exceed the write-queue bound; close a
    /// draining connection once its queue is flushed **and** nothing of
    /// it is in flight, so no reply owed to an earlier request is lost;
    /// otherwise register interest for what is left — readable while
    /// serving and not shut down, writable while bytes are queued.
    /// Returns whether the connection is still open.
    fn settle(&mut self, idx: usize, gen: u32) -> bool {
        let Some(conn) = self.conns.get_mut(idx, gen) else {
            return false;
        };
        let stats = &self.shared.stats;
        let close = match Self::flush_conn(conn, stats) {
            Err(reason) => Some(reason),
            // The peer is not draining its responses: cut it loose rather
            // than buffer without bound.
            Ok(()) if conn.pending_write_bytes() > self.opts.write_queue_limit => {
                Some(CloseReason::SlowReader)
            }
            Ok(())
                if conn.state == ConnState::Draining
                    && conn.write_queue.is_empty()
                    && conn.in_flight == 0 =>
            {
                Some(CloseReason::Drained)
            }
            Ok(()) => None,
        };
        if let Some(reason) = close {
            self.close_conn(idx, gen, reason);
            return false;
        }
        let want = Interest {
            readable: conn.state != ConnState::Draining && !self.shared.shutdown.is_requested(),
            writable: !conn.write_queue.is_empty(),
        };
        if want != conn.interest {
            if want.writable && !conn.interest.writable {
                stats.record_write_deferred();
            }
            let _ = self
                .poller
                .reregister(conn.io.fd(), make_token(idx, gen), want);
            conn.interest = want;
        }
        true
    }

    /// Write queued messages until the kernel pushes back, gathering up
    /// to [`WRITEV_BATCH`] segments per `writev` — every response queued
    /// behind a slow kernel buffer rides out in the same syscall once it
    /// opens, and each message's head and payload go out as separate
    /// iovecs (the payload is never copied into a contiguous frame).
    fn flush_conn(conn: &mut Conn, stats: &ServingStats) -> Result<(), CloseReason> {
        loop {
            // Normalize the cursor: a gather write may have completed
            // several messages at once, leaving `write_offset` past the
            // front. Pop every fully-written message.
            while let Some(front) = conn.write_queue.front() {
                let len = front.len();
                if conn.write_offset < len {
                    break;
                }
                conn.write_offset -= len;
                conn.queued_bytes -= len;
                conn.write_queue.pop_front();
            }
            if conn.write_queue.is_empty() {
                return Ok(());
            }
            // Gather: the front message from its cursor, later messages
            // whole, skipping empty parts so every iovec carries bytes.
            let mut iovs = [IoSlice::new(&[]); WRITEV_BATCH];
            let mut cnt = 0;
            let mut skip = conn.write_offset;
            'gather: for msg in &conn.write_queue {
                for part in [msg.head(), msg.payload.as_slice()] {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    if cnt == WRITEV_BATCH {
                        break 'gather;
                    }
                    iovs[cnt] = IoSlice::new(&part[skip..]);
                    skip = 0;
                    cnt += 1;
                }
            }
            let n = match conn.io.writev(&iovs[..cnt]) {
                Ok(0) => return Err(CloseReason::IoError),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::IoError),
            };
            conn.write_offset += n;
            // Credit this call with every message whose final byte it
            // wrote — `writev_frames / writev_calls` is then the true
            // mean syscall batch.
            let mut flushed = 0u64;
            let mut consumed = 0usize;
            for msg in &conn.write_queue {
                consumed += msg.len();
                if consumed > conn.write_offset {
                    break;
                }
                flushed += 1;
            }
            stats.record_writev(flushed);
        }
    }

    /// Deliver worker responses posted since the last turn, in two
    /// phases: queue every completion onto its connection first, then
    /// settle each touched connection once — responses that arrived in
    /// the same drain share gather-write syscalls instead of paying one
    /// `writev` each.
    fn drain_completions(&mut self) {
        let mut buf = std::mem::take(&mut self.completion_buf);
        self.completions.drain_into(&mut buf);
        let mut touched = std::mem::take(&mut self.touched_buf);
        touched.clear();
        for completion in buf.drain(..) {
            if completion.token == POISON_TOKEN {
                panic!("reactor: poisoned by test hook");
            }
            let (idx, gen) = split_token(completion.token);
            // Stale token: the connection closed while its job was in
            // flight; the response is dropped on the floor.
            if let Some(conn) = self.conns.get_mut(idx, gen) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                conn.queue(completion.msg);
                if !touched.contains(&(idx, gen)) {
                    touched.push((idx, gen));
                }
            }
        }
        self.completion_buf = buf;
        for &(idx, gen) in &touched {
            self.settle(idx, gen);
        }
        self.touched_buf = touched;
    }

    /// Reap connections quiescent past the idle deadline. A connection
    /// with a job in flight or bytes still to write is active no matter
    /// how old its last frame is.
    fn sweep_idle(&mut self) {
        if self.last_sweep.elapsed() < self.sweep_period() {
            return;
        }
        self.last_sweep = Instant::now();
        let idle_timeout = self.opts.idle_timeout;
        let stale: Vec<(usize, u32)> = self
            .conns
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let (gen, conn) = slot.as_ref()?;
                let quiescent = conn.in_flight == 0 && conn.write_queue.is_empty();
                (quiescent && conn.last_activity.elapsed() >= idle_timeout).then_some((idx, *gen))
            })
            .collect();
        for (idx, gen) in stale {
            self.close_conn(idx, gen, CloseReason::Idle);
        }
    }

    /// First shutdown phase: stop accepting, release the listener, stop
    /// reading, and drop the job sender so workers can drain out.
    fn enter_shutdown(&mut self) {
        if self.shutdown_entered {
            return;
        }
        self.shutdown_entered = true;
        self.accepting = false;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.job_tx = None;
        for (idx, gen) in self.conns.tokens() {
            self.settle(idx, gen);
        }
    }

    fn close_conn(&mut self, idx: usize, gen: u32, reason: CloseReason) {
        if let Some(conn) = self.conns.remove(idx, gen) {
            let _ = self.poller.deregister(conn.io.fd());
            let stats = &self.shared.stats;
            match reason {
                CloseReason::Idle => stats.record_idle_reaped(),
                CloseReason::SlowReader => stats.record_slow_reader_disconnect(),
                _ => {}
            }
            stats.record_conn_closed();
        }
    }

    fn close_all(&mut self, reason: CloseReason) {
        for (idx, gen) in self.conns.tokens() {
            self.close_conn(idx, gen, reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DEFAULT_WRITE_QUEUE_LIMIT;
    use crate::proto::{SchemeId, STATUS_DEGRADED};
    use crate::sched::{SchedCounters, Scheduler};
    use crate::scrub::ScrubCounters;
    use crate::tenant::{TenantParams, TenantRegistry};
    use epoll::MockPoller;
    use sse_core::health::HealthState;
    use sse_net::frame::encode_frame;
    use std::io;

    /// Scripted connection IO: reads come from a queue (`None` ⇒
    /// `WouldBlock`, empty vec ⇒ EOF), writes land in a shared buffer up
    /// to a shared "kernel send buffer" capacity so tests can force
    /// partial writes and then open the valve like an `EPOLLOUT`.
    struct ScriptIo {
        fd: RawFd,
        reads: VecDeque<Option<Vec<u8>>>,
        written: Arc<Mutex<Vec<u8>>>,
        write_cap: Arc<Mutex<usize>>,
    }

    impl ScriptIo {
        #[allow(clippy::type_complexity)]
        fn new(fd: RawFd) -> (ScriptIo, Arc<Mutex<Vec<u8>>>, Arc<Mutex<usize>>) {
            let written = Arc::new(Mutex::new(Vec::new()));
            let cap = Arc::new(Mutex::new(usize::MAX));
            let io = ScriptIo {
                fd,
                reads: VecDeque::new(),
                written: written.clone(),
                write_cap: cap.clone(),
            };
            (io, written, cap)
        }

        fn push_read(&mut self, bytes: &[u8]) {
            self.reads.push_back(Some(bytes.to_vec()));
        }

        fn push_eof(&mut self) {
            self.reads.push_back(Some(Vec::new()));
        }

        /// End one readiness event's reads: the chunks after this one
        /// arrive with the next event.
        fn push_would_block(&mut self) {
            self.reads.push_back(None);
        }
    }

    impl Read for ScriptIo {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Some(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk exceeds scratch");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) | None => Err(io::Error::from(ErrorKind::WouldBlock)),
            }
        }
    }

    impl Write for ScriptIo {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut cap = self.write_cap.lock().unwrap();
            let take = buf.len().min(*cap);
            if take == 0 {
                return Err(io::Error::from(ErrorKind::WouldBlock));
            }
            *cap -= take;
            self.written.lock().unwrap().extend_from_slice(&buf[..take]);
            Ok(take)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl ConnIo for ScriptIo {
        fn fd(&self) -> RawFd {
            self.fd
        }

        /// Honors the shared write-capacity valve **across** segments, so
        /// a partial gather write stops mid-message exactly like a full
        /// kernel send buffer would.
        fn writev(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut cap = self.write_cap.lock().unwrap();
            let mut sink = self.written.lock().unwrap();
            let mut total = 0;
            for buf in bufs {
                let take = buf.len().min(*cap);
                sink.extend_from_slice(&buf[..take]);
                *cap -= take;
                total += take;
                if take < buf.len() {
                    break;
                }
            }
            if total == 0 && bufs.iter().any(|b| !b.is_empty()) {
                return Err(io::Error::from(ErrorKind::WouldBlock));
            }
            Ok(total)
        }
    }

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared {
            shutdown: ShutdownSignal::new(),
            stats: Arc::new(ServingStats::new()),
            registry: Arc::new(TenantRegistry::new(TenantParams::default())),
            fault_stats: None,
            scrub: Arc::new(ScrubCounters::new()),
            sched: Arc::new(SchedCounters::default()),
        })
    }

    struct Rig {
        reactor: Reactor<MockPoller>,
        completions: Arc<CompletionQueue>,
        /// The consumer side of the scheduler the reactor submits into —
        /// tests pop it like the worker pool would (single queue, so
        /// `try_next(0)` observes submit order).
        sched: Arc<Scheduler<Job>>,
        shared: Arc<Shared>,
        events: Vec<Event>,
    }

    fn rig_with(idle_timeout: Duration, queue_depth: usize, write_queue_limit: usize) -> Rig {
        let shared = test_shared();
        let (sched, job_tx) = Scheduler::<Job>::new(1, queue_depth, true);
        let opts = ReactorOptions {
            max_frame_len: sse_net::frame::MAX_FRAME_LEN,
            idle_timeout,
            max_conns: 1024,
            write_queue_limit,
        };
        let reactor = Reactor::with_parts(
            MockPoller::new(),
            None,
            wake_pipe().expect("wake pipe"),
            shared.clone(),
            job_tx,
            ShutdownSignal::new(),
            opts,
        );
        Rig {
            completions: reactor.completions.clone(),
            reactor,
            sched,
            shared,
            events: Vec::new(),
        }
    }

    fn rig() -> Rig {
        // Generous idle timeout: nothing is reaped unless a test asks.
        rig_with(Duration::from_secs(60), 8, DEFAULT_WRITE_QUEUE_LIMIT)
    }

    impl Rig {
        fn add_conn(&mut self, io: ScriptIo) -> (usize, u32, u64) {
            let fd = io.fd();
            let (idx, gen) = self
                .reactor
                .conns
                .insert(Conn::new(Box::new(io), self.reactor.opts.max_frame_len));
            let token = make_token(idx, gen);
            self.reactor
                .poller
                .register(fd, token, Interest::READABLE)
                .unwrap();
            self.shared.stats.record_conn_accepted();
            (idx, gen, token)
        }

        /// Script one readiness batch and run one turn.
        fn turn_with(&mut self, batch: Vec<Event>) -> bool {
            self.reactor.poller.push_batch(batch);
            self.reactor.turn(&mut self.events)
        }

        fn conn(&mut self, idx: usize, gen: u32) -> &mut Conn {
            self.reactor.conns.get_mut(idx, gen).expect("conn live")
        }

        fn is_open(&mut self, idx: usize, gen: u32) -> bool {
            self.reactor.conns.get_mut(idx, gen).is_some()
        }
    }

    fn hello(tenant: &str, scheme: SchemeId) -> Vec<u8> {
        let tenant = tenant.into();
        encode_frame(&Hello { tenant, scheme }.encode())
    }

    fn hello_frame() -> Vec<u8> {
        hello("t1", SchemeId::Scheme1)
    }

    fn ok_response(seq: u32, payload: &[u8]) -> Vec<u8> {
        encode_frame(&proto::encode_response(STATUS_OK, seq, payload))
    }

    /// Post an OK completion the way a worker does: scatter-gather form,
    /// wire-identical to `ok_response(seq, payload)`.
    fn post_ok(completions: &CompletionQueue, token: u64, seq: u32, payload: &[u8]) {
        completions.post(token, OutMsg::response(STATUS_OK, seq, payload.to_vec()));
    }

    #[test]
    fn hello_then_data_round_trips_through_worker_completion() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);

        // Readable: hello decodes, tenant opens, OK is written straight
        // through (model: exactly the framed OK response bytes).
        rig.turn_with(vec![Event::readable(token)]);
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
        assert_eq!(rig.conn(idx, gen).state, ConnState::Established);

        // Readable again: a DATA request becomes exactly one job with
        // the envelope fields preserved.
        let req = encode_frame(&proto::encode_request(KIND_DATA, 9, b"query-bytes"));
        // Reach into the conn to append scripted input.
        // (ScriptIo moved into the conn; feed through a fresh event by
        // swapping bytes into the decoder is not possible — instead keep
        // a second scripted chunk pattern: new conns get all chunks up
        // front in other tests; here we exercise the two-step path.)
        // Simplest faithful route: close over a new conn.
        drop(req);
        let (mut io2, written2, _cap2) = ScriptIo::new(8);
        io2.push_read(&hello_frame());
        io2.push_read(&encode_frame(&proto::encode_request(
            KIND_DATA,
            9,
            b"query-bytes",
        )));
        let (idx2, gen2, token2) = rig.add_conn(io2);
        rig.turn_with(vec![Event::readable(token2)]);
        let job = rig.sched.try_next(0).expect("job queued");
        assert_eq!(job.kind, KIND_DATA);
        assert_eq!(job.seq, 9);
        assert_eq!(&job.payload[..], b"query-bytes");
        assert_eq!(rig.conn(idx2, gen2).in_flight, 1);

        // Worker completes: the framed response is delivered on the next
        // turn and in_flight returns to zero (the conn is reapable
        // again).
        let response = ok_response(9, b"result");
        post_ok(&rig.completions, token2, 9, b"result");
        rig.turn_with(vec![]);
        let got = written2.lock().unwrap().clone();
        assert_eq!(got, [ok_response(HELLO_SEQ, &[]), response].concat());
        assert_eq!(rig.conn(idx2, gen2).in_flight, 0);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn spurious_readable_wakeup_is_harmless_and_counted() {
        let mut rig = rig();
        let (io, written, _cap) = ScriptIo::new(7);
        // No scripted reads: the socket immediately WouldBlocks.
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        assert!(rig.is_open(idx, gen));
        assert!(written.lock().unwrap().is_empty());
        assert_eq!(rig.shared.stats.snapshot().reactor_spurious_polls, 1);
    }

    #[test]
    fn epollout_before_epollin_is_a_noop() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        // Writable readiness arrives before any readable readiness (the
        // kernel may report them in any order): with an empty write
        // queue it must be a counted no-op, then the hello proceeds.
        rig.turn_with(vec![Event::writable(token)]);
        assert_eq!(rig.conn(idx, gen).state, ConnState::AwaitingHello);
        assert_eq!(rig.shared.stats.snapshot().reactor_spurious_polls, 1);
        rig.turn_with(vec![Event::readable(token)]);
        assert_eq!(rig.conn(idx, gen).state, ConnState::Established);
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
    }

    #[test]
    fn readiness_for_a_closed_fd_is_ignored() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_eof();
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        assert!(!rig.is_open(idx, gen), "EOF closes the connection");
        // The kernel may still deliver queued events for the dead token;
        // and the slot may be reused by a new connection with a new
        // generation. Neither the stale readable nor a stale completion
        // may touch the new occupant.
        let (io2, written2, _cap2) = ScriptIo::new(8);
        let (idx2, gen2, _token2) = rig.add_conn(io2);
        assert_eq!(idx2, idx, "slot is reused");
        assert_ne!(gen2, gen, "generation advanced");
        post_ok(&rig.completions, token, 3, b"stale");
        rig.turn_with(vec![Event::readable(token), Event::writable(token)]);
        assert!(rig.is_open(idx2, gen2));
        assert!(written2.lock().unwrap().is_empty(), "stale frame dropped");
    }

    #[test]
    fn error_event_closes_the_connection() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::error(token)]);
        assert!(!rig.is_open(idx, gen));
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.conns_open, 0);
    }

    #[test]
    fn partial_write_arms_epollout_then_drains_and_disarms() {
        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        // Kernel accepts only 3 bytes of the hello response.
        *cap.lock().unwrap() = 3;
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let expected = ok_response(HELLO_SEQ, &[]);
        assert_eq!(*written.lock().unwrap(), expected[..3]);
        assert_eq!(
            rig.reactor.poller.interest_of(7),
            Some(Interest::READ_WRITE),
            "unwritten bytes arm EPOLLOUT"
        );
        assert_eq!(rig.shared.stats.snapshot().writes_deferred, 1);
        // The valve opens (EPOLLOUT): the tail flushes and interest
        // returns to read-only.
        *cap.lock().unwrap() = usize::MAX;
        rig.turn_with(vec![Event::writable(token)]);
        assert_eq!(*written.lock().unwrap(), expected);
        assert_eq!(rig.reactor.poller.interest_of(7), Some(Interest::READABLE));
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn never_draining_reader_hits_write_queue_bound_and_is_disconnected() {
        // Tiny bound so two queued responses overflow it.
        let mut rig = rig_with(Duration::from_secs(60), 8, 16);
        let (mut io, _written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        *cap.lock().unwrap() = 0; // peer never drains anything
        let (idx, gen, token) = rig.add_conn(io);
        // Hello response (11 bytes framed) queues under the 16-byte
        // bound; the connection survives but is deferred.
        rig.turn_with(vec![Event::readable(token)]);
        assert!(rig.is_open(idx, gen));
        // A worker completion pushes the queue past the bound: the slow
        // reader is disconnected, memory stays bounded.
        post_ok(&rig.completions, token, 1, b"big-response");
        rig.turn_with(vec![]);
        assert!(!rig.is_open(idx, gen));
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.slow_reader_disconnects, 1);
        assert_eq!(snap.conns_open, 0);
    }

    #[test]
    fn idle_reaper_skips_connections_with_work_in_flight() {
        let idle = Duration::from_millis(50);
        let mut rig = rig_with(idle, 8, DEFAULT_WRITE_QUEUE_LIMIT);
        let (mut io_a, _wa, _ca) = ScriptIo::new(7);
        io_a.push_read(&hello_frame());
        io_a.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 1, b"q")));
        let (idx_a, gen_a, token_a) = rig.add_conn(io_a);
        let (mut io_b, _wb, _cb) = ScriptIo::new(8);
        io_b.push_read(&hello_frame());
        let (idx_b, gen_b, token_b) = rig.add_conn(io_b);
        rig.turn_with(vec![Event::readable(token_a), Event::readable(token_b)]);
        assert_eq!(rig.conn(idx_a, gen_a).in_flight, 1);

        // Age both conns past the deadline and force a sweep.
        let past = Instant::now() - idle * 2;
        rig.conn(idx_a, gen_a).last_activity = past;
        rig.conn(idx_b, gen_b).last_activity = past;
        rig.reactor.last_sweep = past;
        rig.turn_with(vec![]);
        assert!(
            rig.is_open(idx_a, gen_a),
            "in-flight connection must not be reaped"
        );
        assert!(!rig.is_open(idx_b, gen_b), "quiescent connection reaped");
        assert_eq!(rig.shared.stats.snapshot().conns_idle_reaped, 1);

        // The completion lands, the conn quiesces — now it's reapable.
        post_ok(&rig.completions, token_a, 1, b"r");
        rig.turn_with(vec![]);
        rig.conn(idx_a, gen_a).last_activity = Instant::now() - idle * 2;
        rig.reactor.last_sweep = past;
        rig.turn_with(vec![]);
        assert!(!rig.is_open(idx_a, gen_a));
        assert_eq!(rig.shared.stats.snapshot().conns_idle_reaped, 2);
    }

    #[test]
    fn slow_loris_header_drips_do_not_reset_the_idle_clock() {
        let idle = Duration::from_millis(50);
        let mut rig = rig_with(idle, 8, DEFAULT_WRITE_QUEUE_LIMIT);
        let frame = hello_frame();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        // One byte of the length prefix per readiness event — never a
        // complete frame.
        io.push_read(&frame[..1]);
        io.push_read(&frame[1..2]);
        io.push_read(&frame[2..3]);
        let (idx, gen, token) = rig.add_conn(io);
        let past = Instant::now() - idle * 2;
        rig.conn(idx, gen).last_activity = past;
        // Drip a byte: last_activity must NOT advance (no complete
        // frame), so the next sweep reaps the connection even though the
        // socket was "active" moments ago.
        rig.turn_with(vec![Event::readable(token)]);
        assert!(rig.conn(idx, gen).last_activity <= past + idle);
        rig.reactor.last_sweep = past;
        rig.turn_with(vec![]);
        assert!(!rig.is_open(idx, gen), "slow-loris client reaped");
        assert_eq!(rig.shared.stats.snapshot().conns_idle_reaped, 1);
    }

    #[test]
    fn full_job_queue_answers_busy_without_losing_the_connection() {
        let mut rig = rig_with(Duration::from_secs(60), 1, DEFAULT_WRITE_QUEUE_LIMIT);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        io.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 1, b"a")));
        io.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 2, b"b")));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        // Depth-1 queue: the first job sits queued, the second gets BUSY
        // with its own seq echoed.
        assert_eq!(rig.sched.queued(), 1);
        let got = written.lock().unwrap().clone();
        let busy = encode_frame(&proto::encode_response(STATUS_BUSY, 2, &[]));
        assert_eq!(got, [ok_response(HELLO_SEQ, &[]), busy].concat());
        assert!(rig.is_open(idx, gen));
        assert_eq!(rig.shared.stats.snapshot().requests_busy, 1);
    }

    #[test]
    fn malformed_hello_answers_err_and_drains_closed() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&encode_frame(b"not a hello"));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let expected = encode_frame(&proto::encode_response(
            STATUS_ERR,
            HELLO_SEQ,
            b"malformed hello",
        ));
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(
            !rig.is_open(idx, gen),
            "drained connection closes once the ERR flushes"
        );
        assert_eq!(rig.shared.stats.snapshot().requests_err, 1);
    }

    #[test]
    fn hello_with_an_empty_tenant_answers_err_and_drains_closed() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello("", SchemeId::Scheme2));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let expected = encode_frame(&proto::encode_response(
            STATUS_ERR,
            HELLO_SEQ,
            b"malformed hello",
        ));
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(!rig.is_open(idx, gen));
        assert_eq!(rig.shared.registry.tenant_count(), 0, "nothing opened");
    }

    #[test]
    fn forged_length_prefix_answers_err_and_closes() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        let mut forged = hello_frame();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        io.push_read(&forged);
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        assert!(!rig.is_open(idx, gen));
        let got = written.lock().unwrap().clone();
        let (_, body) = got.split_at(4);
        let (status, seq, msg) = proto::decode_response(body).expect("framed ERR");
        assert_eq!((status, seq), (STATUS_ERR, HELLO_SEQ));
        assert!(std::str::from_utf8(msg).unwrap().contains("exceeds limit"));
    }

    /// One readiness event reads hello, then DATA seq 1, then a protocol
    /// error, split into the read chunks `chunks`. The DATA went to the
    /// run queue before the error was read: its reply must still reach
    /// the peer, after the ERR, and only then may the connection close.
    fn reply_in_flight_outlives_a_protocol_error(chunks: &[Vec<u8>], err: Vec<u8>) {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        for chunk in chunks {
            io.push_read(chunk);
        }
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let hello_ok = ok_response(HELLO_SEQ, &[]);
        assert_eq!(
            *written.lock().unwrap(),
            [hello_ok.clone(), err.clone()].concat()
        );
        assert!(rig.is_open(idx, gen), "seq 1 is still owed a reply");
        assert_eq!(rig.conn(idx, gen).state, ConnState::Draining);
        assert_eq!(
            rig.reactor.poller.interest_of(7),
            Some(Interest {
                readable: false,
                writable: false
            }),
            "a draining connection is not read"
        );

        let job = rig.sched.try_next(0).expect("seq 1 was queued");
        assert_eq!(job.seq, 1);
        post_ok(&rig.completions, token, 1, b"result");
        rig.turn_with(vec![]);
        assert_eq!(
            *written.lock().unwrap(),
            [hello_ok, err, ok_response(1, b"result")].concat()
        );
        assert!(!rig.is_open(idx, gen), "flushed and nothing in flight");
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.requests_err, snap.conns_open), (1, 0));
    }

    #[test]
    fn unknown_kind_after_a_pipelined_request_keeps_its_reply() {
        // Kind 3 was a batch-search envelope; a client still sending it
        // is refused like any other unknown kind.
        for kind in [3, 99] {
            let chunk = [
                hello_frame(),
                encode_frame(&proto::encode_request(KIND_DATA, 1, b"q")),
                encode_frame(&proto::encode_request(kind, 2, b"")),
            ]
            .concat();
            let err = proto::encode_response(STATUS_ERR, 2, b"unknown request kind");
            reply_in_flight_outlives_a_protocol_error(&[chunk], encode_frame(&err));
        }
    }

    #[test]
    fn forged_length_prefix_after_a_pipelined_request_keeps_its_reply() {
        // A poisoned decoder drops the frames of its own chunk, so the
        // DATA comes in the read before the forged prefix.
        let chunks = [
            [
                hello_frame(),
                encode_frame(&proto::encode_request(KIND_DATA, 1, b"q")),
            ]
            .concat(),
            u32::MAX.to_le_bytes().to_vec(),
        ];
        let too_large = sse_net::frame::FrameTooLarge { declared: u32::MAX };
        let err = proto::encode_response(STATUS_ERR, HELLO_SEQ, too_large.to_string().as_bytes());
        reply_in_flight_outlives_a_protocol_error(&chunks, encode_frame(&err));
    }

    #[test]
    fn write_queue_bound_holds_within_one_read_chunk() {
        // Depth-1 run queue, a 64-byte bound, and a peer that reads
        // nothing. One chunk: hello, DATA seq 1 (queued as a job), then 50
        // more DATA frames, each answered BUSY.
        let mut rig = rig_with(Duration::from_secs(60), 1, 64);
        let (mut io, written, cap) = ScriptIo::new(7);
        *cap.lock().unwrap() = 0;
        let chunk: Vec<u8> = std::iter::once(hello_frame())
            .chain((1..=51).map(|seq| encode_frame(&proto::encode_request(KIND_DATA, seq, b"q"))))
            .flatten()
            .collect();
        io.push_read(&chunk);
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);

        // An empty-payload reply is 9 bytes: the 9-byte hello plus seven
        // BUSYs is 72 > 64, so the seventh BUSY cuts the connection and
        // the other 43 frames are never answered.
        assert!(!rig.is_open(idx, gen));
        assert!(written.lock().unwrap().is_empty());
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.slow_reader_disconnects, 1);
        assert_eq!(snap.requests_busy, 7);
        assert_eq!(snap.conns_open, 0);
    }

    #[test]
    fn shutdown_stops_reads_flushes_and_exits_after_drain() {
        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        *cap.lock().unwrap() = 3; // force queued response bytes
        let (idx, gen, token) = rig.add_conn(io);
        assert!(rig.turn_with(vec![Event::readable(token)]));

        rig.shared.shutdown.request();
        assert!(rig.turn_with(vec![]), "drain not yet signalled");
        assert_eq!(
            rig.reactor.poller.interest_of(7),
            Some(Interest {
                readable: false,
                writable: true
            }),
            "shutdown stops reading but keeps flushing"
        );
        assert!(rig.reactor.job_tx.is_none(), "job sender dropped");

        // Peer drains; second shutdown phase: exit once queues empty.
        *cap.lock().unwrap() = usize::MAX;
        rig.reactor.drain_done.request();
        assert!(!rig.turn_with(vec![Event::writable(token)]));
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
        rig.reactor.close_all(CloseReason::Shutdown);
        assert!(!rig.is_open(idx, gen));
    }

    #[test]
    fn poison_completion_panics_the_reactor() {
        let mut rig = rig();
        rig.completions.post(POISON_TOKEN, OutMsg::raw(Vec::new()));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rig.reactor.poller.push_batch(vec![]);
            let mut events = Vec::new();
            rig.reactor.turn(&mut events)
        }));
        assert!(outcome.is_err(), "poison token must panic the loop");
    }

    #[test]
    fn conn_table_reuses_slots_with_fresh_generations() {
        let mut table = ConnTable::new();
        let (io_a, _, _) = ScriptIo::new(1);
        let (idx_a, gen_a) = table.insert(Conn::new(Box::new(io_a), 1024));
        assert!(table.remove(idx_a, gen_a).is_some());
        assert!(table.remove(idx_a, gen_a).is_none(), "double remove");
        let (io_b, _, _) = ScriptIo::new(2);
        let (idx_b, gen_b) = table.insert(Conn::new(Box::new(io_b), 1024));
        assert_eq!(idx_a, idx_b);
        assert_ne!(gen_a, gen_b);
        assert!(table.get_mut(idx_b, gen_a).is_none(), "stale gen rejected");
        assert!(table.get_mut(idx_b, gen_b).is_some());
        assert_eq!(table.open, 1);
    }

    #[test]
    fn partial_writev_resume_is_byte_identical_to_a_single_write() {
        // Reference stream: what the old contiguous-encode write path
        // would have produced for the same three responses.
        let expected = [
            ok_response(HELLO_SEQ, &[]),
            ok_response(1, b"first-result"),
            ok_response(2, b"second-response"),
        ]
        .concat();

        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        *cap.lock().unwrap() = 0; // kernel takes nothing yet
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        post_ok(&rig.completions, token, 1, b"first-result");
        post_ok(&rig.completions, token, 2, b"second-response");
        rig.turn_with(vec![]);
        assert!(written.lock().unwrap().is_empty());

        // Open the valve five bytes per EPOLLOUT: every resume lands at
        // an arbitrary split point — mid-head, mid-payload, across
        // message boundaries — and the cursor must carry over exactly.
        let mut guard = 0;
        while rig.conn(idx, gen).pending_write_bytes() > 0 {
            *cap.lock().unwrap() = 5;
            rig.turn_with(vec![Event::writable(token)]);
            guard += 1;
            assert!(guard < 100, "flush must make progress");
        }
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn queued_responses_flush_in_one_gather_write() {
        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        written.lock().unwrap().clear();

        // Valve shut: three completions pile up in the write queue.
        *cap.lock().unwrap() = 0;
        for seq in 1..=3 {
            post_ok(&rig.completions, token, seq, b"payload");
        }
        rig.turn_with(vec![]);
        assert!(written.lock().unwrap().is_empty());
        let before = rig.shared.stats.snapshot();

        // Valve opens: a single writev carries all three messages.
        *cap.lock().unwrap() = usize::MAX;
        rig.turn_with(vec![Event::writable(token)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.writev_calls, before.writev_calls + 1);
        assert_eq!(snap.writev_frames, before.writev_frames + 3);
        let expected: Vec<u8> = (1..=3).flat_map(|s| ok_response(s, b"payload")).collect();
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn completions_drained_together_share_one_writev() {
        // No kernel pushback needed: completions that arrive in the same
        // drain are queued first and flushed once, so an open valve still
        // sees a single gather write for the whole batch.
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        written.lock().unwrap().clear();
        let before = rig.shared.stats.snapshot();

        for seq in 1..=3 {
            post_ok(&rig.completions, token, seq, b"payload");
        }
        rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.writev_calls, before.writev_calls + 1);
        assert_eq!(snap.writev_frames, before.writev_frames + 3);
        let expected: Vec<u8> = (1..=3).flat_map(|s| ok_response(s, b"payload")).collect();
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn a_reply_over_the_frame_limit_is_an_err_and_the_connection_lives_on() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        io.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 1, b"q")));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let job = rig.sched.try_next(0).expect("job queued");
        assert_eq!(rig.conn(idx, gen).in_flight, 1);
        // The 5-byte envelope takes this payload past the frame limit.
        // `vec![0; n]` is calloc'd: no 64 MiB of writes.
        let too_big = vec![0u8; sse_net::frame::MAX_FRAME_LEN as usize];
        job.responder.send(STATUS_OK, job.seq, too_big);
        rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
        let err = proto::encode_response(STATUS_ERR, 1, crate::daemon::RESPONSE_TOO_LARGE);
        assert_eq!(
            *written.lock().unwrap(),
            [ok_response(HELLO_SEQ, &[]), encode_frame(&err)].concat()
        );
        assert!(rig.is_open(idx, gen));
        assert_eq!(rig.conn(idx, gen).in_flight, 0, "the job is answered");
    }

    #[test]
    fn worker_wakeups_coalesce_into_one_pipe_drain() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (_idx, _gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        // Three completions post three pipe notifications before the
        // reactor polls again; one WAKE readiness drains them with a
        // single read.
        for seq in 1..=3 {
            post_ok(&rig.completions, token, seq, b"r");
        }
        rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.reactor_wakeups, 1);
        assert_eq!(snap.wakeups_coalesced, 2);
    }

    #[test]
    fn request_payloads_are_zero_copy() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        // The frame as the decoder hands it over: its body in one buffer.
        let body = proto::encode_request(KIND_DATA, 1, b"needle");
        let body_start = body.as_ptr();
        let mut inline_left = INLINE_BURST;
        assert!(rig
            .reactor
            .handle_frame(idx, gen, PooledBuf::from_vec(body), &mut inline_left));
        let job = rig.sched.try_next(0).expect("job queued");
        assert_eq!(&job.payload[..], b"needle");
        assert_eq!(
            job.payload.as_ptr(),
            body_start.wrapping_add(proto::REQUEST_HEADER_LEN),
            "the payload is the frame's own buffer past the envelope — \
             nothing was memcpy'd on the request path"
        );
    }

    // ---- run to completion on the reactor (DESIGN.md §4n) ------------------

    fn hello2_frame() -> Vec<u8> {
        hello("t2", SchemeId::Scheme2)
    }

    fn data_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
        encode_frame(&proto::encode_request(KIND_DATA, seq, payload))
    }

    /// Open the Scheme 2 tenant `hello2_frame` names, store one document
    /// under one keyword and search it once, so the tenant's memo holds
    /// the answer. Returns the tenant, that search request, and its reply.
    fn warm_tenant(shared: &Shared) -> (TenantHandle, Vec<u8>, Vec<u8>) {
        use sse_core::scheme2::protocol::{self as s2, GenerationEntry};
        use sse_primitives::etm::EtmKey;
        use sse_primitives::hashchain::HashChain;

        let tenant = shared
            .registry
            .get_or_create("t2", SchemeId::Scheme2)
            .unwrap();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k1 = chain.key_for_counter(1).unwrap();
        let mut ids = sse_net::wire::WireWriter::new();
        ids.put_u64_vec(&[1]).put_u64_vec(&[]);
        let tag = [0x5Au8; 32];
        for request in [
            s2::encode_put_docs(&[(1, b"blob".to_vec())]),
            s2::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: EtmKey::new(&k1).seal(&ids.finish()),
                commitment: sse_core::scheme2::key_commitment(&k1),
            }]),
        ] {
            sse_core::proto_common::decode_ack(&tenant.handle_shared(&request)).unwrap();
        }
        let search = s2::encode_search(&tag, &chain.key_for_counter(2).unwrap());
        let reply = tenant.handle_shared(&search);
        let docs = sse_core::proto_common::decode_result(&reply).unwrap();
        assert_eq!(docs, vec![(1, &b"blob"[..])]);
        (tenant, search, reply)
    }

    /// A well-formed search nothing was ever filed under: a memo miss.
    fn miss_request() -> Vec<u8> {
        sse_core::scheme2::protocol::encode_search(&[0xA5u8; 32], &[0u8; 32])
    }

    #[test]
    fn memo_hit_search_is_answered_in_the_same_turn_without_a_job() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.push_read(&data_frame(9, &search));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);

        assert_eq!(
            *written.lock().unwrap(),
            [ok_response(HELLO_SEQ, &[]), ok_response(9, &reply)].concat(),
            "the reply left in the turn the request arrived in"
        );
        assert_eq!(rig.sched.queued(), 0, "no job was queued");
        assert_eq!(rig.conn(idx, gen).in_flight, 0);
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.inline_served, snap.inline_declined), (1, 0));
        assert_eq!(snap.requests_ok, 1, "counted like any served request");
        assert_eq!(snap.bytes_in, search.len() as u64);
        assert_eq!(snap.bytes_out, reply.len() as u64);
        assert!(snap.service_p50_ns > 0, "and timed");
        assert_eq!(snap.bytes_copied, 0);
    }

    #[test]
    fn memo_miss_is_queued_with_its_payload_intact() {
        let mut rig = rig();
        warm_tenant(&rig.shared);
        let miss = miss_request();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.push_read(&data_frame(4, &miss));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);

        let job = rig.sched.try_next(0).expect("the miss became a job");
        assert_eq!((job.kind, job.seq), (KIND_DATA, 4));
        assert_eq!(&job.payload[..], &miss[..]);
        assert_eq!(rig.conn(idx, gen).in_flight, 1);
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.inline_served, snap.inline_declined), (0, 1));
        assert_eq!(snap.requests_ok, 0);
    }

    #[test]
    fn hit_behind_an_in_flight_request_of_its_connection_is_queued() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        // One chunk: a miss, then a would-be hit. Served inline the hit's
        // reply would overtake the miss's.
        io.push_read(&[data_frame(1, &miss_request()), data_frame(2, &search)].concat());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);

        assert_eq!(rig.conn(idx, gen).in_flight, 2);
        let seqs: Vec<u32> = std::iter::from_fn(|| rig.sched.try_next(0))
            .map(|job| job.seq)
            .collect();
        assert_eq!(seqs, [1, 2], "both queued, in arrival order");
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
        assert_eq!(rig.shared.stats.snapshot().inline_served, 0);

        // Another connection of the same tenant has nothing in flight: it
        // is served while the first one's jobs still sit in the queue.
        let (mut io2, written2, _cap2) = ScriptIo::new(8);
        io2.push_read(&hello2_frame());
        io2.push_read(&data_frame(1, &search));
        let (_, _, token2) = rig.add_conn(io2);
        rig.turn_with(vec![Event::readable(token2)]);
        assert_eq!(
            *written2.lock().unwrap(),
            [ok_response(HELLO_SEQ, &[]), ok_response(1, &reply)].concat()
        );
    }

    #[test]
    fn a_reply_arriving_with_the_next_frame_frees_it_for_the_inline_path() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.push_read(&data_frame(1, &miss_request()));
        io.push_would_block();
        io.push_read(&data_frame(2, &search));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let miss = rig.sched.try_next(0).expect("the miss went to a worker");
        assert_eq!(rig.conn(idx, gen).in_flight, 1);

        // The worker's reply and the connection's next frame land in the
        // same turn: the reply is delivered first, so the hit behind it
        // finds nothing in flight and is answered right here.
        post_ok(&rig.completions, token, miss.seq, b"miss-reply");
        rig.turn_with(vec![Event::readable(token)]);
        assert_eq!(rig.sched.queued(), 0, "no job was queued for the hit");
        assert_eq!(rig.conn(idx, gen).in_flight, 0);
        assert_eq!(
            *written.lock().unwrap(),
            [
                ok_response(HELLO_SEQ, &[]),
                ok_response(1, b"miss-reply"),
                ok_response(2, &reply)
            ]
            .concat()
        );
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.inline_served, snap.inline_declined), (1, 1));
    }

    #[test]
    fn burst_beyond_inline_burst_spills_to_the_run_queue() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        let total = INLINE_BURST as u32 + 3;
        let burst: Vec<u8> = (1..=total).flat_map(|s| data_frame(s, &search)).collect();
        io.push_read(&burst);
        io.push_read(&data_frame(total + 1, &search));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);

        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.inline_served, INLINE_BURST as u64);
        assert_eq!(snap.inline_declined, 3);
        assert_eq!(rig.conn(idx, gen).in_flight, 3);
        let spilled: Vec<u32> = std::iter::from_fn(|| rig.sched.try_next(0))
            .map(|job| job.seq)
            .collect();
        assert_eq!(spilled, [total - 2, total - 1, total]);
        let mut expected = ok_response(HELLO_SEQ, &[]);
        for seq in 1..=INLINE_BURST as u32 {
            expected.extend(ok_response(seq, &reply));
        }
        assert_eq!(*written.lock().unwrap(), expected);

        // The spent burst ended the event: what the peer sent next is
        // still in the socket, and is the next event's to read.
        rig.turn_with(vec![Event::readable(token)]);
        let job = rig.sched.try_next(0).expect("read on the next event");
        assert_eq!(job.seq, total + 1);
        assert_eq!(
            rig.conn(idx, gen).in_flight,
            4,
            "queued: three are in flight"
        );
    }

    #[test]
    fn inline_replies_of_one_chunk_leave_in_one_writev() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.reads.push_back(None); // WouldBlock: the hello gets its own turn
        io.push_read(
            &(1..=3)
                .flat_map(|s| data_frame(s, &search))
                .collect::<Vec<u8>>(),
        );
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        written.lock().unwrap().clear();
        let before = rig.shared.stats.snapshot();

        rig.turn_with(vec![Event::readable(token)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.inline_served, 3);
        assert_eq!(snap.writev_calls, before.writev_calls + 1);
        assert_eq!(snap.writev_frames, before.writev_frames + 3);
        let expected: Vec<u8> = (1..=3).flat_map(|s| ok_response(s, &reply)).collect();
        assert_eq!(*written.lock().unwrap(), expected);
        assert_eq!(rig.conn(idx, gen).pending_write_bytes(), 0);
        assert_eq!(rig.reactor.poller.interest_of(7), Some(Interest::READABLE));
    }

    #[test]
    fn inline_replies_the_kernel_refuses_wait_for_epollout() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.reads.push_back(None);
        io.push_read(&[data_frame(1, &search), data_frame(2, &search)].concat());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        written.lock().unwrap().clear();

        // The kernel takes five bytes of the chunk's one gather write.
        *cap.lock().unwrap() = 5;
        rig.turn_with(vec![Event::readable(token)]);
        let expected = [ok_response(1, &reply), ok_response(2, &reply)].concat();
        assert_eq!(*written.lock().unwrap(), expected[..5]);
        assert_eq!(
            rig.reactor.poller.interest_of(7),
            Some(Interest::READ_WRITE)
        );
        *cap.lock().unwrap() = usize::MAX;
        rig.turn_with(vec![Event::writable(token)]);
        assert_eq!(*written.lock().unwrap(), expected);
        assert_eq!(rig.reactor.poller.interest_of(7), Some(Interest::READABLE));
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn panicking_inline_handler_costs_the_request_not_the_connection() {
        let mut rig = rig();
        let (_tenant, search, reply) = warm_tenant(&rig.shared);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.push_read(&[data_frame(1, &search), data_frame(2, &search)].concat());
        let (idx, gen, token) = rig.add_conn(io);
        PANIC_NEXT_INLINE.with(|hook| hook.set(true));
        rig.turn_with(vec![Event::readable(token)]);

        let err = encode_frame(&proto::encode_response(STATUS_ERR, 1, HANDLER_PANICKED));
        assert_eq!(
            *written.lock().unwrap(),
            [ok_response(HELLO_SEQ, &[]), err, ok_response(2, &reply)].concat(),
            "the panicked request gets the worker path's ERR, the next is served"
        );
        assert!(rig.is_open(idx, gen));
        assert_eq!(rig.conn(idx, gen).state, ConnState::Established);
        assert_eq!(rig.sched.queued(), 0);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.requests_err, 1);
        assert_eq!((snap.requests_ok, snap.inline_served), (1, 1));
    }

    #[test]
    fn a_search_pipelined_behind_inline_stores_sees_them() {
        use sse_core::proto_common::encode_ack;
        use sse_core::scheme2::protocol::{self as s2, GenerationEntry};
        use sse_primitives::etm::EtmKey;
        use sse_primitives::hashchain::HashChain;

        let mut rig = rig();
        let (tenant, _, _) = warm_tenant(&rig.shared);
        // The store's two requests and a search of its keyword, in one
        // chunk: the next generation (key 3) under warm_tenant's tag, and
        // the trapdoor that unlocks it (key 4).
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k3 = chain.key_for_counter(3).unwrap();
        let mut ids = sse_net::wire::WireWriter::new();
        ids.put_u64_vec(&[2]).put_u64_vec(&[]);
        let tag = [0x5Au8; 32];
        let put = s2::encode_put_docs(&[(2, b"two".to_vec())]);
        let append = s2::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: EtmKey::new(&k3).seal(&ids.finish()),
            commitment: sse_core::scheme2::key_commitment(&k3),
        }]);
        let search = s2::encode_search(&tag, &chain.key_for_counter(4).unwrap());
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello2_frame());
        io.push_read(
            &[
                data_frame(1, &put),
                data_frame(2, &append),
                data_frame(3, &search),
            ]
            .concat(),
        );
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);

        // Both store requests were applied on the reactor; the search,
        // whose memo entry they made stale, went to a worker behind them.
        let ack = encode_ack();
        let acks = [
            ok_response(HELLO_SEQ, &[]),
            ok_response(1, &ack),
            ok_response(2, &ack),
        ]
        .concat();
        assert_eq!(*written.lock().unwrap(), acks);
        let job = rig.sched.try_next(0).expect("the search went to a worker");
        assert_eq!((job.seq, rig.sched.queued()), (3, 0));
        crate::daemon::run_job(job, &rig.shared.stats);
        rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
        assert_eq!(rig.conn(idx, gen).in_flight, 0);

        let reply = tenant.handle_shared(&search);
        let docs = sse_core::proto_common::decode_result(&reply).unwrap();
        assert_eq!(
            docs,
            vec![(1, &b"blob"[..]), (2, &b"two"[..])],
            "the search saw the store"
        );
        assert_eq!(
            *written.lock().unwrap(),
            [acks, ok_response(3, &reply)].concat()
        );
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.inline_served, snap.inline_declined), (2, 1));
        assert_eq!(snap.requests_ok, 3);
    }

    #[test]
    fn a_degraded_or_quarantined_tenants_mutation_goes_to_the_workers_gate() {
        let mut rig = rig();
        let (tenant, _, _) = warm_tenant(&rig.shared);
        let put = sse_core::scheme2::protocol::encode_put_docs(&[(2, b"two".to_vec())]);
        let stored = tenant.stored_docs();
        let serve = |rig: &mut Rig, fd: RawFd| {
            let (mut io, written, _cap) = ScriptIo::new(fd);
            io.push_read(&hello2_frame());
            io.push_read(&data_frame(1, &put));
            let (_, _, token) = rig.add_conn(io);
            rig.turn_with(vec![Event::readable(token)]);
            let job = rig.sched.try_next(0).expect("declined to a worker");
            assert_eq!(&job.payload[..], &put[..], "untouched");
            crate::daemon::run_job(job, &rig.shared.stats);
            rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
            let got = written.lock().unwrap().clone();
            got
        };

        tenant.health().note_storage_error("disk full");
        let degraded = proto::encode_degraded(
            sse_core::health::DEGRADED_RETRY_AFTER_MS,
            &tenant.health().reason(),
        );
        assert_eq!(
            serve(&mut rig, 7),
            [
                ok_response(HELLO_SEQ, &[]),
                encode_frame(&proto::encode_response(STATUS_DEGRADED, 1, &degraded))
            ]
            .concat(),
            "a degraded tenant is read-only, and the worker says so"
        );

        tenant.health().note_corruption("checksum mismatch");
        let refusal = format!("tenant quarantined: {}", tenant.health().reason());
        assert_eq!(
            serve(&mut rig, 8),
            [
                ok_response(HELLO_SEQ, &[]),
                encode_frame(&proto::encode_response(STATUS_ERR, 1, refusal.as_bytes()))
            ]
            .concat(),
        );
        assert_eq!(tenant.stored_docs(), stored, "nothing was stored");
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.inline_served, snap.inline_declined), (0, 2));
        assert_eq!((snap.requests_degraded, snap.requests_err), (1, 1));
    }

    #[test]
    fn quarantined_tenants_are_never_served_inline_degraded_ones_are() {
        let mut rig = rig();
        let (tenant, search, reply) = warm_tenant(&rig.shared);
        let serve = |rig: &mut Rig, fd: RawFd| {
            let (mut io, written, _cap) = ScriptIo::new(fd);
            io.push_read(&hello2_frame());
            io.push_read(&data_frame(1, &search));
            let (_, _, token) = rig.add_conn(io);
            rig.turn_with(vec![Event::readable(token)]);
            written
        };

        tenant.health().note_storage_error("disk full");
        assert_eq!(tenant.health().state(), HealthState::Degraded);
        assert_eq!(
            *serve(&mut rig, 7).lock().unwrap(),
            [ok_response(HELLO_SEQ, &[]), ok_response(1, &reply)].concat(),
            "degraded tenants still serve reads, inline included"
        );

        tenant.health().note_corruption("checksum mismatch");
        assert_eq!(tenant.health().state(), HealthState::Quarantined);
        assert_eq!(
            *serve(&mut rig, 8).lock().unwrap(),
            ok_response(HELLO_SEQ, &[])
        );
        let job = rig.sched.try_next(0).expect("left to the worker's gate");
        assert_eq!(&job.payload[..], &search[..]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!((snap.inline_served, snap.inline_declined), (1, 1));
    }
}
