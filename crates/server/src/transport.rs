//! [`TcpTransport`] — the daemon-backed implementation of
//! [`sse_net::link::Transport`].
//!
//! Existing scheme clients (`Scheme1Client<T>`, `Scheme2Client<T>`) are
//! generic over the transport, so handing them a `TcpTransport` moves them
//! from an in-process function call to a real socket **without changing a
//! byte of the scheme protocol**: the envelope wraps the same messages the
//! `MeteredLink` path exchanges.
//!
//! `BUSY` responses (bounded-queue backpressure) are retried here with
//! exponential backoff, so schemes never observe them. `DEGRADED`
//! responses (the tenant is read-only while a scrub repairs a storage
//! fault) are likewise retried, honoring the server's retry-after hint
//! bounded by `DEGRADED_BACKOFF_CAP` — operations are delayed, never
//! dropped, and both retry kinds share one total deadline.
//!
//! On a broken connection the transport **fails the in-flight operation**
//! (its server-side effect is unknown and the index mutations are not
//! idempotent, so retransmitting could corrupt the index) but re-dials the
//! daemon with bounded exponential backoff + jitter so *subsequent*
//! operations go through once the server is back. [`TcpTransport::reconnects`]
//! and [`TcpTransport::busy_retries`] expose what happened for reporting.

use crate::proto::{
    self, Hello, SchemeId, StatsSnapshot, ADMIN_SHUTDOWN, ADMIN_STATS, HELLO_SEQ, KIND_ADMIN,
    KIND_DATA, KIND_UPDATE_MANY, REQUEST_HEADER_LEN, STATUS_BUSY, STATUS_DEGRADED, STATUS_OK,
};
use sse_net::frame::{encode_frame, frame_header, read_frame, MAX_FRAME_LEN};
use sse_net::link::Transport;
use std::io::{Error, ErrorKind, Result, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Initial retry delay after a `BUSY` response.
const BUSY_BACKOFF_START: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const BUSY_BACKOFF_MAX: Duration = Duration::from_millis(64);
/// Default total time budget for `BUSY` retries of one request; past it
/// the request fails with [`ErrorKind::TimedOut`] instead of blocking
/// forever against a permanently saturated daemon. Measured on the
/// **monotonic clock** ([`Instant`]) — a wall-clock jump (NTP step,
/// suspend/resume) must neither cut the budget short nor extend it.
/// Override per transport with [`TcpTransport::with_busy_retry_deadline`].
pub const DEFAULT_BUSY_RETRY_DEADLINE: Duration = Duration::from_secs(10);
/// How many times a broken connection is re-dialed before giving up.
const RECONNECT_ATTEMPTS: u32 = 5;
/// First re-dial delay; doubles per attempt (plus jitter) up to the cap.
const RECONNECT_BACKOFF_START: Duration = Duration::from_millis(10);
/// Re-dial backoff ceiling.
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_millis(200);
/// Ceiling on honoring the server's `DEGRADED` retry-after hint: a
/// buggy or hostile hint must not park the client for minutes.
const DEGRADED_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A framed TCP connection to one tenant database on an `sse-serverd`.
pub struct TcpTransport {
    stream: TcpStream,
    /// Resolved peer address, kept for re-dialing after a broken pipe.
    peer: SocketAddr,
    /// Hello replayed on every (re)connection.
    hello: Hello,
    /// Sequence number for the next request; the server echoes it in the
    /// matching response ([`HELLO_SEQ`] is reserved for the handshake).
    next_seq: u32,
    reconnects: u64,
    busy_retries: u64,
    degraded_retries: u64,
    /// Total monotonic time budget for `BUSY` retries of one request.
    busy_retry_deadline: Duration,
}

impl TcpTransport {
    /// Connect and perform the hello handshake for `tenant` over `scheme`.
    ///
    /// # Errors
    /// Connection errors, or a rejected hello.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str, scheme: SchemeId) -> Result<Self> {
        let peer = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "address resolved to nothing"))?;
        let hello = Hello {
            tenant: tenant.to_string(),
            scheme,
        };
        let stream = Self::establish(peer, &hello)?;
        Ok(TcpTransport {
            stream,
            peer,
            hello,
            next_seq: HELLO_SEQ.wrapping_add(1),
            reconnects: 0,
            busy_retries: 0,
            degraded_retries: 0,
            busy_retry_deadline: DEFAULT_BUSY_RETRY_DEADLINE,
        })
    }

    /// Replace the `BUSY` retry budget (default
    /// [`DEFAULT_BUSY_RETRY_DEADLINE`]). Tests use a short budget to
    /// exercise the timeout path without waiting ten wall-clock seconds.
    #[must_use]
    pub fn with_busy_retry_deadline(mut self, deadline: Duration) -> Self {
        self.busy_retry_deadline = deadline;
        self
    }

    /// Dial `peer` and run the hello handshake, returning a ready stream.
    fn establish(peer: SocketAddr, hello: &Hello) -> Result<TcpStream> {
        let mut stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true).ok(); // latency over batching
        stream.write_all(&encode_frame(&hello.encode()))?;
        let (status, seq, _payload) = read_response(&mut stream)?;
        if status != STATUS_OK || seq != HELLO_SEQ {
            return Err(Error::new(
                ErrorKind::ConnectionRefused,
                "server rejected hello",
            ));
        }
        Ok(stream)
    }

    /// Re-dial the daemon with bounded exponential backoff + deterministic
    /// jitter, replaying the hello. On success the transport is usable for
    /// *new* requests; the request that exposed the broken connection has
    /// already been failed.
    fn reconnect(&mut self) -> Result<()> {
        let mut delay = RECONNECT_BACKOFF_START;
        let mut last_err = Error::new(ErrorKind::NotConnected, "no reconnect attempted");
        for attempt in 0..RECONNECT_ATTEMPTS {
            // Deterministic jitter (pure function of our own counters) so
            // a herd of clients doesn't re-dial in lock-step.
            let jitter = splitmix64(
                self.reconnects
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(attempt)),
            ) % 1_000;
            std::thread::sleep(delay + Duration::from_micros(jitter));
            delay = (delay * 2).min(RECONNECT_BACKOFF_MAX);
            match Self::establish(self.peer, &self.hello) {
                Ok(stream) => {
                    self.stream = stream;
                    // Fresh connection, fresh sequence space.
                    self.next_seq = HELLO_SEQ.wrapping_add(1);
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// How many times the transport re-established a broken connection.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many `BUSY` responses were absorbed by backoff-and-retry.
    #[must_use]
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// How many `DEGRADED` rejections were absorbed by backoff-and-retry
    /// (the tenant was read-only while a scrub repaired it; no operation
    /// was dropped).
    #[must_use]
    pub fn degraded_retries(&self) -> u64 {
        self.degraded_retries
    }

    /// Sever the underlying socket (both directions) without touching any
    /// client-side scheme state — the chaos harness's network fault. The
    /// next request fails like a real connection drop and the transport
    /// re-dials per its normal reconnect policy.
    pub fn inject_disconnect(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Frame `kind ‖ seq ‖ payload` in one buffer and send it in one
    /// write. The caller has checked the size against the frame limit.
    fn send_request(&mut self, kind: u8, seq: u32, payload: &[u8]) -> Result<()> {
        let body_len = REQUEST_HEADER_LEN + payload.len();
        let mut frame = Vec::with_capacity(4 + body_len);
        frame.extend_from_slice(&frame_header(body_len));
        frame.push(kind);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame)
    }

    /// One request/response exchange, transparently retrying `BUSY` up to
    /// a total deadline. The transport is closed-loop (one outstanding
    /// request), and the response's echoed sequence number is checked
    /// against the request's.
    ///
    /// If the connection breaks mid-round, the round **fails** (its effect
    /// on the server is unknown; `BUSY` is the only status safe to retry,
    /// because a `BUSY` request was never enqueued) but the transport
    /// re-dials in the background of the error path so the *next* request
    /// finds a live connection if the daemon recovered.
    ///
    /// # Errors
    /// I/O errors, a server-reported protocol error, a correlation
    /// mismatch, [`ErrorKind::TimedOut`] if the server stays `BUSY` past
    /// the retry deadline, or [`ErrorKind::InvalidInput`] for a request
    /// too large for one frame (nothing is sent, and the connection stays
    /// usable).
    pub fn request(&mut self, kind: u8, payload: &[u8]) -> Result<Vec<u8>> {
        if REQUEST_HEADER_LEN + payload.len() > MAX_FRAME_LEN as usize {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "request exceeds the frame limit",
            ));
        }
        match self.request_once(kind, payload) {
            Ok(body) => Ok(body),
            Err(e) => {
                if is_connection_error(&e) {
                    // Heal the link for subsequent requests; the in-flight
                    // one stays failed (at-most-once).
                    let _ = self.reconnect();
                }
                Err(e)
            }
        }
    }

    fn request_once(&mut self, kind: u8, payload: &[u8]) -> Result<Vec<u8>> {
        let mut backoff = BUSY_BACKOFF_START;
        // Monotonic deadline: `Instant` is immune to wall-clock steps, so
        // an NTP adjustment mid-retry can neither starve nor inflate the
        // budget (see `busy_deadline_is_monotonic_and_bounded` in
        // tests/tcp_server.rs).
        let started = Instant::now();
        loop {
            let seq = self.next_seq;
            // Skip the reserved hello sequence number on wrap-around.
            self.next_seq = match self.next_seq.wrapping_add(1) {
                HELLO_SEQ => HELLO_SEQ.wrapping_add(1),
                next => next,
            };
            self.send_request(kind, seq, payload)?;
            let (status, echoed, body) = read_response(&mut self.stream)?;
            if echoed != seq {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("response correlation mismatch: sent seq {seq}, got {echoed}"),
                ));
            }
            match status {
                STATUS_OK => return Ok(body),
                STATUS_BUSY => {
                    if started.elapsed() >= self.busy_retry_deadline {
                        return Err(Error::new(
                            ErrorKind::TimedOut,
                            "server still BUSY after the retry deadline",
                        ));
                    }
                    self.busy_retries += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BUSY_BACKOFF_MAX);
                }
                STATUS_DEGRADED => {
                    // A degraded rejection is issued *before* the request
                    // executes, so retrying is as safe as for BUSY. Honor
                    // the server's retry-after hint (bounded — a bad hint
                    // must not park us), under the same total deadline.
                    if started.elapsed() >= self.busy_retry_deadline {
                        return Err(Error::new(
                            ErrorKind::TimedOut,
                            "tenant still degraded after the retry deadline",
                        ));
                    }
                    let hint_ms = proto::decode_degraded(&body).map_or(0, |(ms, _reason)| ms);
                    let wait = Duration::from_millis(u64::from(hint_ms))
                        .max(BUSY_BACKOFF_START)
                        .min(DEGRADED_BACKOFF_CAP);
                    self.degraded_retries += 1;
                    std::thread::sleep(wait);
                }
                _ => {
                    return Err(Error::other(format!(
                        "server error: {}",
                        String::from_utf8_lossy(&body)
                    )))
                }
            }
        }
    }

    /// Query the daemon's serving statistics.
    ///
    /// # Errors
    /// I/O or decode errors.
    pub fn admin_stats(&mut self) -> Result<StatsSnapshot> {
        let body = self.request(KIND_ADMIN, &[ADMIN_STATS])?;
        StatsSnapshot::decode(&body)
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad stats payload"))
    }

    /// Ask the daemon to drain and exit.
    ///
    /// # Errors
    /// I/O errors.
    pub fn admin_shutdown(&mut self) -> Result<()> {
        self.request(KIND_ADMIN, &[ADMIN_SHUTDOWN]).map(|_| ())
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.request(KIND_DATA, request)
    }

    /// Ship all parts in one `UPDATE_MANY` round. The server decodes,
    /// validates, and applies the whole batch all-or-nothing with one
    /// journal append per affected index shard, then sends back a single
    /// response body valid for every part (batched mutations acknowledge
    /// identically), which is the one response returned.
    fn round_trip_batch(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        if parts.is_empty() {
            return Ok(Vec::new());
        }
        Ok(vec![
            self.request(KIND_UPDATE_MANY, &proto::encode_batch(parts))?
        ])
    }
}

/// Does this error mean the connection itself is suspect (worth re-dialing)
/// rather than a server-reported application failure?
fn is_connection_error(e: &Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected
            | ErrorKind::InvalidData // desynced framing: the stream is unusable
    )
}

/// Read one response frame as `(status, seq, payload)`. The body is read
/// straight into its buffer, and the payload is that buffer with the
/// envelope shifted out: one copy after the socket read. Shared by the
/// handshake (no `self` yet) and the request path.
fn read_response(stream: &mut TcpStream) -> Result<(u8, u32, Vec<u8>)> {
    let mut frame = read_frame(stream, MAX_FRAME_LEN)?;
    let (status, seq, _) = proto::decode_response(&frame)
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "malformed response frame"))?;
    frame.drain(..REQUEST_HEADER_LEN);
    Ok((status, seq, frame))
}

/// SplitMix64 — deterministic jitter source (no RNG dependency).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
