//! The load generator: raw-socket replay of a [`ConnTrace`] in three
//! phase shapes, verifying every reply.
//!
//! * `lat` — closed loop, one request in flight: SSE clients are callers
//!   that wait (Scheme 1 cannot even form round 2 without round 1's
//!   reply). Latency is send → verified reply.
//! * `sat` — closed loop, a fixed window in flight: throughput, server
//!   CPU per op, and the counter deltas. Only for order-independent
//!   traces, because the daemon may complete pipelined requests out of
//!   order.
//! * `open` — seeded Poisson arrivals at a fixed rate on a non-blocking
//!   socket; latency is charged from the time a request was *due*, and
//!   the generator's own lateness is reported. Diagnostic only.
//!
//! A phase is a fixed number of ops (identical work on both sides of any
//! later A/B) with a wall-clock cap, so a slow machine truncates the
//! phase instead of overrunning the driver's time budget.

use crate::calib::Calibrator;
use crate::quantile::Samples;
use crate::trace::{Class, ConnTrace, Req, SEQ_OFFSET};
use sse_server::proto::{self, Hello, SchemeId, HELLO_SEQ, STATUS_OK};
use std::io::{Error, ErrorKind, Read, Result, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A framed connection to one tenant, with just enough machinery to send
/// pre-encoded request frames and parse response envelopes in place.
pub struct RawConn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The one frame [`RawConn::round_trip`] is sending.
    out: Vec<u8>,
}

/// One parsed response envelope, borrowing the connection's buffer.
pub struct Response<'a> {
    pub status: u8,
    pub seq: u32,
    pub payload: &'a [u8],
}

impl RawConn {
    /// Connect and complete the hello handshake.
    ///
    /// # Errors
    /// Socket errors, or a daemon that rejects the hello.
    pub fn connect(addr: &str, tenant: &str, scheme: SchemeId) -> Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut conn = RawConn {
            stream,
            buf: vec![0; 256 * 1024],
            start: 0,
            end: 0,
            out: Vec::new(),
        };
        let hello = Hello {
            tenant: tenant.to_string(),
            scheme,
        };
        conn.stream
            .write_all(&sse_net::frame::encode_frame(&hello.encode()))?;
        let r = conn.recv()?;
        if (r.status, r.seq) != (STATUS_OK, HELLO_SEQ) {
            return Err(Error::other("daemon rejected the hello"));
        }
        Ok(conn)
    }

    /// Length of the complete frame at the head of the buffer, if any.
    fn frame_ready(&self) -> Option<usize> {
        let have = self.end - self.start;
        if have < 4 {
            return None;
        }
        let head: [u8; 4] = self.buf[self.start..self.start + 4].try_into().ok()?;
        let len = u32::from_le_bytes(head) as usize;
        (have >= 4 + len).then_some(len)
    }

    /// Make room for more bytes: compact, and grow for a frame larger
    /// than the buffer (Scheme 1 replies run to tens of KiB).
    fn make_room(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
    }

    /// One read into the buffer. `Ok(false)` only on a non-blocking
    /// socket with nothing to read.
    fn fill(&mut self) -> Result<bool> {
        self.make_room();
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(Error::new(
                ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Ok(n) => {
                self.end += n;
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// The next response already in the buffer, without touching the
    /// socket.
    fn try_recv(&mut self) -> Result<Option<Response<'_>>> {
        let Some(len) = self.frame_ready() else {
            return Ok(None);
        };
        let body = self.start + 4..self.start + 4 + len;
        self.start = body.end;
        let (status, seq, payload) = proto::decode_response(&self.buf[body])
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "malformed response frame"))?;
        Ok(Some(Response {
            status,
            seq,
            payload,
        }))
    }

    /// Block until one whole response is available.
    ///
    /// # Errors
    /// Socket errors, EOF, or a malformed envelope.
    pub fn recv(&mut self) -> Result<Response<'_>> {
        while self.frame_ready().is_none() {
            self.fill()?;
        }
        Ok(self.try_recv()?.expect("a frame is ready"))
    }

    /// Send one request frame under sequence number `seq` and wait for
    /// its response.
    ///
    /// # Errors
    /// Socket errors; a reply carrying another sequence number.
    pub fn round_trip(&mut self, req: &Req, seq: u32) -> Result<Response<'_>> {
        self.out.clear();
        enqueue(&mut self.out, req, seq);
        self.stream.write_all(&self.out)?;
        let r = self.recv()?;
        if r.seq != seq {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("sent seq {seq}, got {}", r.seq),
            ));
        }
        Ok(r)
    }
}

/// Append `req`'s frame to `out` under sequence number `seq`.
fn enqueue(out: &mut Vec<u8>, req: &Req, seq: u32) {
    let at = out.len();
    out.extend_from_slice(&req.wire);
    out[at + SEQ_OFFSET..at + SEQ_OFFSET + 4].copy_from_slice(&seq.to_le_bytes());
}

/// What one connection measured in one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub attempted: u64,
    /// Replies that were not `OK`, did not arrive, or differed from the
    /// oracle's by a byte.
    pub failed: u64,
    /// Client-observed search latencies at reference speed
    /// ([`crate::calib`]), in completion order.
    pub search: Samples,
    /// Client-observed latencies of index updates, likewise (blob puts
    /// are counted as ops, not timed: see [`PhaseResult::complete`]).
    pub update: Samples,
    /// `(time since the phase began, requests completed by then, mean
    /// host slowdown since the previous mark)`, one mark per
    /// [`RATE_BLOCK`] of wall time.
    pub marks: Vec<(u64, u64, f64)>,
    /// The host-speed clock every latency and rate of this phase is
    /// referred to.
    pub cal: Calibrator,
    /// Wall time of the whole phase on this connection.
    pub wall: Duration,
    /// Open loop only: how late the generator sent a request, worst case.
    pub late_max_ns: u64,
    /// Open loop only: most requests in flight or overdue at once.
    pub backlog_max: u64,
    /// First verification failure, for the error message.
    pub first_failure: Option<String>,
}

/// Wall time between two throughput marks. Throughput is reported as the
/// median rate over these blocks (`run::Phase::ops_per_s`), so that a
/// hypervisor stall or a checkpoint moves one block and not the result.
pub const RATE_BLOCK: Duration = Duration::from_millis(100);

impl PhaseResult {
    /// Requests that completed and verified.
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// A phase that is about to begin: room for `n` samples, and the
    /// host-speed clock's first reading taken.
    pub fn begin(n: usize) -> PhaseResult {
        PhaseResult {
            search: Samples::with_capacity(n),
            update: Samples::with_capacity(n),
            cal: Calibrator::started(),
            ..PhaseResult::default()
        }
    }

    /// Ops per second, at reference speed, of each block between two
    /// marks.
    pub fn block_rates(&self) -> Vec<f64> {
        let mut prev = (0u64, 0u64);
        self.marks
            .iter()
            .map(|&(t, ops, slowdown)| {
                let rate = (ops - prev.1) as f64 * 1e9 / (t - prev.0).max(1) as f64;
                prev = (t, ops);
                rate * slowdown
            })
            .collect()
    }

    /// Append what a later `lat` pass measured (its marks shifted behind
    /// this one's wall time).
    pub fn absorb(&mut self, later: PhaseResult) {
        let (t0, ops0) = (self.wall.as_nanos() as u64, self.attempted);
        self.marks.extend(
            later
                .marks
                .iter()
                .map(|&(t, ops, slow)| (t0 + t, ops0 + ops, slow)),
        );
        self.cal.absorb(&later.cal);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.search.extend(&later.search);
        self.update.extend(&later.update);
        self.wall += later.wall;
        if self.first_failure.is_none() {
            self.first_failure = later.first_failure;
        }
    }

    /// Account for one completed request: verify the reply (`corrupt`
    /// is the verifier's own fault injection), file its latency at
    /// reference speed, and
    /// drop a throughput mark every [`RATE_BLOCK`].
    pub fn complete(
        &mut self,
        req: &Req,
        (status, payload): (u8, &[u8]),
        corrupt: bool,
        latency_ns: u64,
        since_start: Duration,
    ) {
        self.attempted += 1;
        if status != STATUS_OK || corrupt || payload != req.expect.as_slice() {
            self.failed += 1;
            self.first_failure.get_or_insert_with(|| {
                if status != STATUS_OK {
                    format!(
                        "status {status}: {}",
                        String::from_utf8_lossy(&payload[..payload.len().min(120)])
                    )
                } else {
                    format!(
                        "{:?} reply differs from the oracle's ({} vs {} bytes)",
                        req.class,
                        payload.len(),
                        req.expect.len()
                    )
                }
            });
        }
        let at_ref = self.cal.at_ref(latency_ns);
        match req.class {
            Class::Search => self.search.push(at_ref),
            // A store is a blob put and then the index update that makes
            // the document findable; the update latency is the second's.
            // Filed together they are two classes in equal numbers (25 µs
            // and, behind an fsync, 75 µs), and the median of such a mix
            // reads one class or the other by the seed.
            Class::Update if req.doc == u64::MAX => self.update.push(at_ref),
            Class::Update | Class::Checkpoint => {}
        }
        self.mark(since_start);
    }

    /// Re-read the host's speed if that is due, and drop a throughput
    /// mark if [`RATE_BLOCK`] has passed since the last. The reading takes
    /// tens of µs: a caller timing the next request starts its clock
    /// after this returns.
    pub fn mark(&mut self, since_start: Duration) {
        let t = since_start.as_nanos() as u64;
        self.cal.tick(t);
        let last = self.marks.last().map_or(0, |m| m.0);
        if t - last >= RATE_BLOCK.as_nanos() as u64 {
            self.marks.push((t, self.attempted, self.cal.take_block()));
        }
    }
}

/// Where a phase reads its requests and how long it may run.
pub struct PhaseInput<'a> {
    pub trace: &'a ConnTrace,
    /// The slice of `trace.order` this phase consumes.
    pub range: std::ops::Range<usize>,
    /// Wall-clock cap; ops not sent by then are skipped, not failed.
    pub cap: Duration,
    /// Fault injection for the verifier's own test: treat the reply to
    /// this op (index within the phase) as corrupted.
    pub corrupt_at: Option<usize>,
}

impl PhaseInput<'_> {
    fn req(&self, k: usize) -> &Req {
        &self.trace.reqs[self.trace.order[self.range.start + k] as usize]
    }

    fn len(&self) -> usize {
        self.range.len()
    }
}

/// Closed loop, one in flight.
///
/// # Errors
/// Socket errors (a broken connection ends the phase; verification
/// failures do not, they are counted).
pub fn run_lat(conn: &mut RawConn, input: &PhaseInput<'_>) -> Result<PhaseResult> {
    let mut res = PhaseResult::begin(input.len());
    let start = Instant::now();
    let mut sent_at = start;
    for k in 0..input.len() {
        if sent_at - start > input.cap {
            break;
        }
        let req = input.req(k);
        let seq = 1 + k as u32;
        let r = conn.round_trip(req, seq)?;
        let now = Instant::now();
        res.complete(
            req,
            (r.status, r.payload),
            input.corrupt_at == Some(k),
            (now - sent_at).as_nanos() as u64,
            now - start,
        );
        sent_at = Instant::now();
    }
    res.wall = start.elapsed();
    Ok(res)
}

/// Closed loop, `window` in flight. Responses are matched to requests by
/// the echoed sequence number (`seq = 1 + slot + window × generation`),
/// because workers may complete pipelined requests out of order.
///
/// # Errors
/// Socket errors, or a sequence number the generator never sent.
pub fn run_sat(conn: &mut RawConn, input: &PhaseInput<'_>, window: usize) -> Result<PhaseResult> {
    struct Slot {
        k: usize,
        seq: u32,
        sent: Instant,
    }
    let n = input.len();
    let mut res = PhaseResult::begin(n);
    let start = Instant::now();
    let mut out = Vec::with_capacity(64 * 1024);
    let mut slots: Vec<Slot> = Vec::with_capacity(window);
    let mut next = 0usize;
    while next < n.min(window) {
        let seq = 1 + next as u32;
        enqueue(&mut out, input.req(next), seq);
        slots.push(Slot {
            k: next,
            seq,
            sent: start,
        });
        next += 1;
    }
    conn.stream.write_all(&out)?;
    let mut in_flight = slots.len();
    while in_flight > 0 {
        out.clear();
        conn.fill()?;
        let now = Instant::now();
        let capped = now - start > input.cap;
        while let Some(r) = conn.try_recv()? {
            let slot = (r.seq.wrapping_sub(1) as usize) % window;
            if slots[slot].seq != r.seq {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("reply for unknown seq {}", r.seq),
                ));
            }
            res.complete(
                input.req(slots[slot].k),
                (r.status, r.payload),
                input.corrupt_at == Some(res.attempted as usize),
                (now - slots[slot].sent).as_nanos() as u64,
                now - start,
            );
            if next < n && !capped {
                // Same slot, next generation.
                let seq = r.seq + window as u32;
                enqueue(&mut out, input.req(next), seq);
                slots[slot] = Slot {
                    k: next,
                    seq,
                    sent: now,
                };
                next += 1;
            } else {
                slots[slot].seq = 0;
                in_flight -= 1;
            }
        }
        if !out.is_empty() {
            conn.stream.write_all(&out)?;
        }
    }
    res.wall = start.elapsed();
    Ok(res)
}

/// Most requests the open loop keeps in flight; arrivals beyond it wait
/// (and are charged the wait, since latency runs from the due time).
const OPEN_MAX_IN_FLIGHT: usize = 16;

/// Open loop: request `k` is due at `start + Σ gaps[..=k]`, is sent as
/// soon after that as the single generator thread gets to it, and its
/// latency runs from the due time.
///
/// # Errors
/// Socket errors, or a sequence number the generator never sent.
pub fn run_open(
    conn: &mut RawConn,
    input: &PhaseInput<'_>,
    rate_per_s: f64,
    rng: &mut crate::rng::SplitMix64,
) -> Result<PhaseResult> {
    let n = input.len();
    let mut due_ns = Vec::with_capacity(n);
    let mut t = 0u64;
    for _ in 0..n {
        t += rng.exp_gap_ns(rate_per_s);
        due_ns.push(t);
    }
    let mut res = PhaseResult::begin(n);
    conn.stream.set_nonblocking(true)?;
    let outcome = open_loop(conn, input, &due_ns, &mut res);
    conn.stream.set_nonblocking(false)?;
    outcome?;
    Ok(res)
}

fn open_loop(
    conn: &mut RawConn,
    input: &PhaseInput<'_>,
    due_ns: &[u64],
    res: &mut PhaseResult,
) -> Result<()> {
    let n = input.len();
    let ring = OPEN_MAX_IN_FLIGHT * 2;
    // In-flight table indexed by `seq % ring`: the op index, or MAX.
    let mut table = vec![usize::MAX; ring];
    let start = Instant::now();
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out_pos = 0usize;
    let (mut next, mut in_flight) = (0usize, 0usize);
    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        // Past the cap: stop issuing, drain what is in flight.
        let issuing = next < n && Duration::from_nanos(now_ns) <= input.cap;
        if !issuing && in_flight == 0 {
            break;
        }
        let mut progressed = false;
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        while issuing
            && next < n
            && due_ns[next] <= now_ns
            && in_flight < OPEN_MAX_IN_FLIGHT
            && table[(1 + next) % ring] == usize::MAX
        {
            enqueue(&mut out, input.req(next), 1 + next as u32);
            table[(1 + next) % ring] = next;
            res.late_max_ns = res.late_max_ns.max(now_ns - due_ns[next]);
            next += 1;
            in_flight += 1;
        }
        let overdue = due_ns[next..].partition_point(|&d| d <= now_ns);
        res.backlog_max = res.backlog_max.max((in_flight + overdue) as u64);
        if out_pos < out.len() {
            match conn.stream.write(&out[out_pos..]) {
                Ok(w) => {
                    out_pos += w;
                    progressed |= w > 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        if in_flight > 0 && conn.fill()? {
            progressed = true;
        }
        let now_ns = start.elapsed().as_nanos() as u64;
        while let Some(r) = conn.try_recv()? {
            let k = std::mem::replace(&mut table[r.seq as usize % ring], usize::MAX);
            if k == usize::MAX || 1 + k as u32 != r.seq {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("reply for unknown seq {}", r.seq),
                ));
            }
            res.complete(
                input.req(k),
                (r.status, r.payload),
                false,
                now_ns.saturating_sub(due_ns[k]),
                Duration::from_nanos(now_ns),
            );
            in_flight -= 1;
        }
        if !progressed {
            // Nothing to send or read: sleep most of the way to the next
            // due time (sleep overshoots by tens of µs), yield for the rest.
            let wait_ns = if issuing {
                due_ns[next].saturating_sub(now_ns)
            } else {
                50_000
            };
            if wait_ns > 150_000 {
                std::thread::sleep(Duration::from_nanos((wait_ns - 100_000).min(500_000)));
            } else {
                std::thread::yield_now();
            }
        }
    }
    res.wall = start.elapsed();
    Ok(())
}

/// Send `reqs` one at a time and verify each reply — set-up traffic
/// (state load, memo warm-up) and the post-restart probes.
///
/// # Errors
/// Socket errors, or the first reply that is not the oracle's.
pub fn send_all_verified(conn: &mut RawConn, reqs: &[Req], first_seq: u32) -> Result<()> {
    for (i, req) in reqs.iter().enumerate() {
        let r = conn.round_trip(req, first_seq.wrapping_add(i as u32))?;
        if r.status != STATUS_OK || r.payload != req.expect.as_slice() {
            return Err(Error::other(format!(
                "set-up request {i} ({:?}): status {}, reply differs from the oracle's",
                req.class, r.status
            )));
        }
    }
    Ok(())
}
