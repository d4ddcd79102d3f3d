//! The daemon's envelope protocol, layered over [`sse_net::frame`].
//!
//! Every connection starts with a **hello** frame naming the tenant and the
//! scheme, after which each request frame is an envelope around either a
//! scheme protocol message (DATA — the bytes the existing [`sse_net::link::
//! Service`] implementations already speak, unchanged) or a serving-layer
//! command (ADMIN). Responses carry a one-byte status so the server can
//! signal queue backpressure (`BUSY`) without touching the scheme payload.
//!
//! ## Request/response correlation
//!
//! Each request carries a client-chosen sequence number that the server
//! echoes in the response (including `BUSY` and `ERR`). DATA jobs from one
//! connection may execute on different worker threads, so a client that
//! pipelines several requests can receive the responses **out of order**;
//! the echoed sequence number is the correlation key. The hello response
//! uses the reserved [`HELLO_SEQ`]. [`crate::transport::TcpTransport`] is
//! closed-loop — one outstanding request per connection — and verifies the
//! echo, turning any mismatch into a hard error.
//!
//! Because DATA payloads are passed through byte-for-byte, the daemon adds
//! *no* scheme-visible state: the wire protocol (and therefore the leakage
//! profile analyzed in DESIGN.md) is exactly that of the in-process links.

use sse_net::wire::{WireError, WireReader, WireWriter};

/// Hello-frame magic: "SSE1".
pub const HELLO_MAGIC: u32 = 0x3145_5353;

/// Sequence number echoed in the hello response. Regular requests start
/// numbering above it.
pub const HELLO_SEQ: u32 = 0;

/// Request kind: scheme protocol payload for the tenant's server.
pub const KIND_DATA: u8 = 0;
/// Request kind: serving-layer command.
pub const KIND_ADMIN: u8 = 1;
/// Request kind: a batch of scheme mutation payloads applied atomically
/// (one journal append per affected index shard server-side). The
/// response carries a single scheme response body valid for every part —
/// batched mutations all acknowledge identically.
pub const KIND_UPDATE_MANY: u8 = 2;
/// Request kind: a batch of scheme **search** payloads fanned out across
/// the tenant's shard snapshots on a small worker pool. Unlike
/// `UPDATE_MANY` the parts produce distinct results, so the response is
/// itself a batch ([`encode_batch`]) of per-part scheme response bodies,
/// position-aligned with the request parts.
pub const KIND_SEARCH_MANY: u8 = 3;

/// ADMIN command: return a [`StatsSnapshot`].
pub const ADMIN_STATS: u8 = 0;
/// ADMIN command: begin graceful shutdown (drain and exit).
pub const ADMIN_SHUTDOWN: u8 = 1;

/// Response status: request served; payload is the scheme response (DATA)
/// or the encoded command result (ADMIN).
pub const STATUS_OK: u8 = 0;
/// Response status: the worker queue is full — retry after a backoff. The
/// request was **not** executed.
pub const STATUS_BUSY: u8 = 1;
/// Response status: protocol violation; payload is a UTF-8 message. The
/// connection is closed after an error.
pub const STATUS_ERR: u8 = 2;
/// Response status: the tenant is degraded (read-only after a storage
/// write failure) and this request was a mutation. The payload is
/// `[retry_after_ms u32][reason utf-8]` — clients should back off for the
/// hinted interval and retry; the request was **not** executed. Unlike
/// `ERR`, the connection stays usable.
pub const STATUS_DEGRADED: u8 = 3;

/// Build a `STATUS_DEGRADED` payload: `[retry_after_ms u32][reason]`.
#[must_use]
pub fn encode_degraded(retry_after_ms: u32, reason: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + reason.len());
    out.extend_from_slice(&retry_after_ms.to_le_bytes());
    out.extend_from_slice(reason.as_bytes());
    out
}

/// Split a `STATUS_DEGRADED` payload into `(retry_after_ms, reason)`.
#[must_use]
pub fn decode_degraded(payload: &[u8]) -> Option<(u32, String)> {
    let (ms, reason) = payload.split_first_chunk::<4>()?;
    Some((
        u32::from_le_bytes(*ms),
        String::from_utf8_lossy(reason).into_owned(),
    ))
}

/// Scheme selector carried in the hello frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// The paper's §5.2 computationally efficient scheme.
    Scheme1,
    /// The paper's §5.4 communication efficient scheme.
    Scheme2,
}

impl SchemeId {
    /// Wire byte for this scheme.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            SchemeId::Scheme1 => 1,
            SchemeId::Scheme2 => 2,
        }
    }

    /// Parse the wire byte.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(SchemeId::Scheme1),
            2 => Some(SchemeId::Scheme2),
            _ => None,
        }
    }
}

/// The parsed hello frame: which tenant's database, which scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Tenant identifier (routing key for the per-tenant scheme server).
    pub tenant: String,
    /// Scheme the connection will speak.
    pub scheme: SchemeId,
}

impl Hello {
    /// Encode as a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(HELLO_MAGIC)
            .put_u8(self.scheme.as_u8())
            .put_bytes(self.tenant.as_bytes());
        w.finish()
    }

    /// Decode a frame body.
    ///
    /// # Errors
    /// `None` on bad magic, unknown scheme, an empty or non-UTF-8 tenant,
    /// or trailing bytes.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Hello> {
        let mut r = WireReader::new(body);
        let ok = (|| -> Result<Hello, WireError> {
            let magic = r.get_u32()?;
            if magic != HELLO_MAGIC {
                return Err(WireError::UnknownTag(0));
            }
            let scheme = SchemeId::from_u8(r.get_u8()?).ok_or(WireError::UnknownTag(0))?;
            let tenant =
                String::from_utf8(r.get_bytes()?.to_vec()).map_err(|_| WireError::UnknownTag(0))?;
            // The tenant name is a directory name under the data dir; the
            // empty one would be the data dir itself.
            if tenant.is_empty() {
                return Err(WireError::UnknownTag(0));
            }
            Ok(Hello { tenant, scheme })
        })();
        let hello = ok.ok()?;
        r.finish().ok()?;
        Some(hello)
    }
}

/// Build a response frame body: `status ‖ seq ‖ payload`.
#[must_use]
pub fn encode_response(status: u8, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.push(status);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Everything that precedes a response payload on the wire, as one fixed
/// array: the 4-byte frame length prefix (covering the 5-byte envelope
/// header plus `payload_len`) followed by `status ‖ seq`. This is the
/// scatter-gather encode — the prefix and the payload travel as separate
/// iovecs through `writev`, so the payload bytes are never copied into a
/// contiguous `encode_frame(encode_response(..))` buffer.
///
/// # Panics
/// Panics if the envelope would exceed [`sse_net::frame::MAX_FRAME_LEN`].
#[must_use]
pub fn response_prefix(status: u8, seq: u32, payload_len: usize) -> [u8; 9] {
    let header = sse_net::frame::frame_header(5 + payload_len);
    let seq = seq.to_le_bytes();
    [
        header[0], header[1], header[2], header[3], status, seq[0], seq[1], seq[2], seq[3],
    ]
}

/// Split a response frame body into `(status, seq, payload)`.
#[must_use]
pub fn decode_response(body: &[u8]) -> Option<(u8, u32, &[u8])> {
    let (&status, rest) = body.split_first()?;
    let (seq, payload) = rest.split_first_chunk::<4>()?;
    Some((status, u32::from_le_bytes(*seq), payload))
}

/// Envelope header length shared by requests and responses:
/// kind-or-status (1) ‖ seq (4). A request payload is the frame body past
/// this prefix.
pub const REQUEST_HEADER_LEN: usize = 5;

/// Build a request frame body: `kind ‖ seq ‖ payload`.
#[must_use]
pub fn encode_request(kind: u8, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split a request frame body into `(kind, seq, payload)`.
#[must_use]
pub fn decode_request(body: &[u8]) -> Option<(u8, u32, &[u8])> {
    let (&kind, rest) = body.split_first()?;
    let (seq, payload) = rest.split_first_chunk::<4>()?;
    Some((kind, u32::from_le_bytes(*seq), payload))
}

/// Encode an `UPDATE_MANY` payload: `[count u32]` then, per part,
/// `[len u32][part bytes]`.
#[must_use]
pub fn encode_batch(parts: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + parts.iter().map(|p| 4 + p.len()).sum::<usize>());
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for part in parts {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(part);
    }
    out
}

/// Decode an `UPDATE_MANY` payload into its parts. `None` on any length
/// mismatch (truncated part, trailing bytes, or a forged count).
#[must_use]
pub fn decode_batch(payload: &[u8]) -> Option<Vec<&[u8]>> {
    let (count, mut rest) = payload.split_first_chunk::<4>()?;
    let count = u32::from_le_bytes(*count) as usize;
    // Each part costs at least its 4-byte length prefix.
    if count > rest.len() / 4 + 1 {
        return None;
    }
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        let (len, tail) = rest.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*len) as usize;
        if len > tail.len() {
            return None;
        }
        let (part, tail) = tail.split_at(len);
        parts.push(part);
        rest = tail;
    }
    if !rest.is_empty() {
        return None;
    }
    Some(parts)
}

/// [`decode_batch`] without borrowing the parts: the same validation,
/// returning each part's byte range *within* `payload`. The spawn-free
/// search fan-out executor ([`crate::sched`]) shares one pooled request
/// buffer across helper workers via `Arc`, so parts must be positions,
/// not borrows tied to a local slice. `None` exactly when
/// [`decode_batch`] returns `None`.
#[must_use]
pub fn decode_batch_ranges(payload: &[u8]) -> Option<Vec<std::ops::Range<usize>>> {
    let (count, rest) = payload.split_first_chunk::<4>()?;
    let count = u32::from_le_bytes(*count) as usize;
    // Each part costs at least its 4-byte length prefix.
    if count > rest.len() / 4 + 1 {
        return None;
    }
    let mut parts = Vec::with_capacity(count);
    let mut off = 4usize;
    for _ in 0..count {
        let len_bytes = payload.get(off..off + 4)?;
        let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
        off += 4;
        if payload.len() - off < len {
            return None;
        }
        parts.push(off..off + len);
        off += len;
    }
    if off != payload.len() {
        return None;
    }
    Some(parts)
}

/// Point-in-time serving statistics, as answered to [`ADMIN_STATS`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// DATA requests served successfully.
    pub requests_ok: u64,
    /// DATA requests rejected with `BUSY` (queue full).
    pub requests_busy: u64,
    /// Malformed requests answered with `ERR`.
    pub requests_err: u64,
    /// Request payload bytes received (framing and envelope excluded).
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
    /// Median service latency in nanoseconds (queue wait + handler).
    pub p50_ns: u64,
    /// 95th-percentile service latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile service latency in nanoseconds.
    pub p99_ns: u64,
    /// Storage faults injected by a configured fault VFS (0 unless the
    /// daemon was started with fault injection enabled).
    pub faults_injected: u64,
    /// Tenant database opens that performed WAL replay or torn-tail
    /// truncation (crash recoveries observed by this daemon).
    pub wal_recoveries: u64,
    /// Torn log-tail bytes truncated across all tenant opens.
    pub torn_tails_truncated: u64,
    /// Hello frames that re-attached to an already-open tenant database
    /// (client reconnects, as seen from the server).
    pub reconnects: u64,
    /// Contended shard-lock acquisitions per index shard, summed across
    /// all open tenant databases. Empty when no tenant is open.
    pub shard_contention: Vec<u64>,
    /// Journal groups committed (one vectored write + one fsync each),
    /// summed across all open tenant databases.
    pub groups_committed: u64,
    /// Mutations made durable through those groups.
    pub ops_committed: u64,
    /// Largest single commit group observed.
    pub max_group_size: u64,
    /// Fsyncs avoided versus one-fsync-per-op journaling.
    pub fsyncs_saved: u64,
    /// Immutable search-snapshot publications: one per shard a mutation
    /// was applied to, and nothing else — a search never publishes.
    pub snapshot_swaps: u64,
    /// Search-memo hits (repeat searches answered from the per-shard
    /// chain-key memo), summed across all open tenant databases.
    pub search_cache_hits: u64,
    /// Memo-eligible searches that took the cold path.
    pub search_cache_misses: u64,
    /// Forward hash-chain steps avoided by memo hits.
    pub walk_steps_saved: u64,
    /// Sorted runs written by lsm-backed tenants since open (flushes plus
    /// compaction outputs; 0 for btree-only daemons).
    pub backend_runs_flushed: u64,
    /// Sorted runs currently referenced by lsm manifests.
    pub backend_runs_live: u64,
    /// LSM compactions performed since open.
    pub backend_compactions: u64,
    /// Point reads that had to consult at least one run on disk.
    pub backend_run_reads: u64,
    /// Per-run bloom membership tests performed.
    pub backend_bloom_checks: u64,
    /// Run probes skipped because the bloom filter proved absence.
    pub backend_bloom_skips: u64,
    /// Run probes where the bloom said "maybe" but the key was absent.
    pub backend_bloom_false_positives: u64,
    /// Mutations rejected with `DEGRADED` (tenant read-only).
    pub requests_degraded: u64,
    /// `Healthy → Degraded` transitions across all open tenants.
    pub health_degradations: u64,
    /// `Degraded → Healthy` scrub recoveries across all open tenants.
    pub health_recoveries: u64,
    /// `→ Quarantined` transitions across all open tenants.
    pub health_quarantines: u64,
    /// Tenants currently in the `Degraded` state.
    pub tenants_degraded: u64,
    /// Tenants currently in the `Quarantined` state.
    pub tenants_quarantined: u64,
    /// Background scrub passes completed.
    pub scrub_passes: u64,
    /// Scrub repairs that promoted a tenant back to `Healthy`.
    pub scrub_repairs: u64,
    /// Connections accepted since startup.
    pub conns_accepted: u64,
    /// Connections currently open (accepted minus closed).
    pub conns_open: u64,
    /// Connections reaped by the idle deadline.
    pub conns_idle_reaped: u64,
    /// Connections refused at accept because the daemon was at its
    /// configured `max_conns` cap.
    pub conns_rejected: u64,
    /// Connections disconnected because their bounded outbound write
    /// queue overflowed (slow or never-draining readers).
    pub slow_reader_disconnects: u64,
    /// Wakeup-pipe notifications observed by the reactor (worker
    /// completions and shutdown nudges).
    pub reactor_wakeups: u64,
    /// Responses that could not be written synchronously and armed
    /// `EPOLLOUT` to finish later.
    pub writes_deferred: u64,
    /// Readiness events that produced no progress (spurious wakeups).
    pub reactor_spurious_polls: u64,
    /// Frame-buffer acquisitions served from the pool's free lists.
    pub pool_hits: u64,
    /// Frame-buffer acquisitions that had to allocate fresh.
    pub pool_misses: u64,
    /// Frame buffers returned to the pool's free lists.
    pub pool_recycles: u64,
    /// `writev` syscalls issued by the reactor's write path.
    pub writev_calls: u64,
    /// Response frames fully flushed by those calls — `writev_frames /
    /// writev_calls` is the mean syscall batch (1.0 for a closed-loop
    /// client, above it only when responses genuinely coalesce).
    pub writev_frames: u64,
    /// Worker-completion notifications absorbed by an already-pending
    /// reactor wakeup (the wake pipe is drained once per poll batch).
    pub wakeups_coalesced: u64,
    /// Payload bytes memcpy'd on the serving path. Always 0: request
    /// payloads reach the scheme handler as views of the buffer the socket
    /// read filled, and no other path exists. The slot stays on the wire
    /// because peers decode the snapshot by position.
    pub bytes_copied: u64,
    /// Median run-queue wait in nanoseconds (job accepted until a worker
    /// dequeued it) — the backpressure half of `p50_ns`.
    pub queue_p50_ns: u64,
    /// 95th-percentile run-queue wait in nanoseconds.
    pub queue_p95_ns: u64,
    /// 99th-percentile run-queue wait in nanoseconds.
    pub queue_p99_ns: u64,
    /// Median worker service time in nanoseconds (dequeue until the
    /// response was produced) — the compute half of `p50_ns`.
    pub service_p50_ns: u64,
    /// 95th-percentile worker service time in nanoseconds.
    pub service_p95_ns: u64,
    /// 99th-percentile worker service time in nanoseconds.
    pub service_p99_ns: u64,
    /// Jobs accepted into a worker run queue (home or spill).
    pub sched_routed: u64,
    /// Jobs popped by their home worker from its own queue —
    /// `sched_local_hits / sched_routed` is the affinity locality rate.
    pub sched_local_hits: u64,
    /// Jobs an idle worker took from another worker's queue.
    pub sched_stolen: u64,
    /// Jobs whose full home queue overflowed into another queue (still
    /// steal-eligible; only all-queues-full answers `BUSY`).
    pub sched_spilled: u64,
    /// High-water mark of any single run queue's depth.
    pub sched_queue_depth_hw: u64,
    /// `SEARCH_MANY` batches run through the persistent fan-out executor.
    pub fanout_batches: u64,
    /// Fan-out batch parts executed by an idle helper worker rather than
    /// the batch's owning worker — nonzero proves the spawn-free executor
    /// draws on the pool.
    pub fanout_parts_helped: u64,
    /// DATA requests the reactor answered itself, run to completion with
    /// no worker hop (memo-hit Scheme 2 searches; DESIGN.md §4n). Each is
    /// also in `requests_ok`, with zero queue wait.
    pub inline_served: u64,
    /// DATA requests the reactor sent to the run queue instead (reactor
    /// mode only): `inline_served + inline_declined` is every DATA frame
    /// it saw.
    pub inline_declined: u64,
}

impl StatsSnapshot {
    /// Fsyncs per committed mutation — `1.0` when every op pays its own
    /// fsync, approaching `1/k` when groups of `k` share one.
    #[must_use]
    pub fn fsyncs_per_op(&self) -> f64 {
        if self.ops_committed == 0 {
            0.0
        } else {
            self.groups_committed as f64 / self.ops_committed as f64
        }
    }

    /// Mean mutations per commit group (0 when nothing committed).
    #[must_use]
    pub fn mean_group_size(&self) -> f64 {
        if self.groups_committed == 0 {
            0.0
        } else {
            self.ops_committed as f64 / self.groups_committed as f64
        }
    }
    /// Encode as an ADMIN response payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(self.requests_ok)
            .put_u64(self.requests_busy)
            .put_u64(self.requests_err)
            .put_u64(self.bytes_in)
            .put_u64(self.bytes_out)
            .put_u64(self.p50_ns)
            .put_u64(self.p95_ns)
            .put_u64(self.p99_ns)
            .put_u64(self.faults_injected)
            .put_u64(self.wal_recoveries)
            .put_u64(self.torn_tails_truncated)
            .put_u64(self.reconnects)
            .put_u64_vec(&self.shard_contention)
            .put_u64(self.groups_committed)
            .put_u64(self.ops_committed)
            .put_u64(self.max_group_size)
            .put_u64(self.fsyncs_saved)
            .put_u64(self.snapshot_swaps)
            .put_u64(self.search_cache_hits)
            .put_u64(self.search_cache_misses)
            .put_u64(self.walk_steps_saved)
            .put_u64(self.backend_runs_flushed)
            .put_u64(self.backend_runs_live)
            .put_u64(self.backend_compactions)
            .put_u64(self.backend_run_reads)
            .put_u64(self.backend_bloom_checks)
            .put_u64(self.backend_bloom_skips)
            .put_u64(self.backend_bloom_false_positives)
            .put_u64(self.requests_degraded)
            .put_u64(self.health_degradations)
            .put_u64(self.health_recoveries)
            .put_u64(self.health_quarantines)
            .put_u64(self.tenants_degraded)
            .put_u64(self.tenants_quarantined)
            .put_u64(self.scrub_passes)
            .put_u64(self.scrub_repairs)
            .put_u64(self.conns_accepted)
            .put_u64(self.conns_open)
            .put_u64(self.conns_idle_reaped)
            .put_u64(self.conns_rejected)
            .put_u64(self.slow_reader_disconnects)
            .put_u64(self.reactor_wakeups)
            .put_u64(self.writes_deferred)
            .put_u64(self.reactor_spurious_polls)
            .put_u64(self.pool_hits)
            .put_u64(self.pool_misses)
            .put_u64(self.pool_recycles)
            .put_u64(self.writev_calls)
            .put_u64(self.writev_frames)
            .put_u64(self.wakeups_coalesced)
            .put_u64(self.bytes_copied)
            .put_u64s(&[
                self.queue_p50_ns,
                self.queue_p95_ns,
                self.queue_p99_ns,
                self.service_p50_ns,
                self.service_p95_ns,
                self.service_p99_ns,
                self.sched_routed,
                self.sched_local_hits,
                self.sched_stolen,
                self.sched_spilled,
                self.sched_queue_depth_hw,
                self.fanout_batches,
                self.fanout_parts_helped,
                self.inline_served,
                self.inline_declined,
            ]);
        w.finish()
    }

    /// Decode an ADMIN response payload.
    ///
    /// The `backend_*` counters were appended to the payload after the
    /// first release of the STATS command; a payload that ends before
    /// them is an older peer and decodes with those counters zero.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<StatsSnapshot> {
        let mut r = WireReader::new(body);
        let mut snap = StatsSnapshot {
            requests_ok: r.get_u64().ok()?,
            requests_busy: r.get_u64().ok()?,
            requests_err: r.get_u64().ok()?,
            bytes_in: r.get_u64().ok()?,
            bytes_out: r.get_u64().ok()?,
            p50_ns: r.get_u64().ok()?,
            p95_ns: r.get_u64().ok()?,
            p99_ns: r.get_u64().ok()?,
            faults_injected: r.get_u64().ok()?,
            wal_recoveries: r.get_u64().ok()?,
            torn_tails_truncated: r.get_u64().ok()?,
            reconnects: r.get_u64().ok()?,
            shard_contention: r.get_u64_vec().ok()?,
            groups_committed: r.get_u64().ok()?,
            ops_committed: r.get_u64().ok()?,
            max_group_size: r.get_u64().ok()?,
            fsyncs_saved: r.get_u64().ok()?,
            snapshot_swaps: r.get_u64().ok()?,
            search_cache_hits: r.get_u64().ok()?,
            search_cache_misses: r.get_u64().ok()?,
            walk_steps_saved: r.get_u64().ok()?,
            ..StatsSnapshot::default()
        };
        if r.remaining() > 0 {
            snap.backend_runs_flushed = r.get_u64().ok()?;
            snap.backend_runs_live = r.get_u64().ok()?;
            snap.backend_compactions = r.get_u64().ok()?;
            snap.backend_run_reads = r.get_u64().ok()?;
            snap.backend_bloom_checks = r.get_u64().ok()?;
            snap.backend_bloom_skips = r.get_u64().ok()?;
            snap.backend_bloom_false_positives = r.get_u64().ok()?;
        }
        if r.remaining() > 0 {
            snap.requests_degraded = r.get_u64().ok()?;
            snap.health_degradations = r.get_u64().ok()?;
            snap.health_recoveries = r.get_u64().ok()?;
            snap.health_quarantines = r.get_u64().ok()?;
            snap.tenants_degraded = r.get_u64().ok()?;
            snap.tenants_quarantined = r.get_u64().ok()?;
            snap.scrub_passes = r.get_u64().ok()?;
            snap.scrub_repairs = r.get_u64().ok()?;
        }
        if r.remaining() > 0 {
            snap.conns_accepted = r.get_u64().ok()?;
            snap.conns_open = r.get_u64().ok()?;
            snap.conns_idle_reaped = r.get_u64().ok()?;
            snap.conns_rejected = r.get_u64().ok()?;
            snap.slow_reader_disconnects = r.get_u64().ok()?;
            snap.reactor_wakeups = r.get_u64().ok()?;
            snap.writes_deferred = r.get_u64().ok()?;
            snap.reactor_spurious_polls = r.get_u64().ok()?;
        }
        if r.remaining() > 0 {
            snap.pool_hits = r.get_u64().ok()?;
            snap.pool_misses = r.get_u64().ok()?;
            snap.pool_recycles = r.get_u64().ok()?;
            snap.writev_calls = r.get_u64().ok()?;
            snap.writev_frames = r.get_u64().ok()?;
            snap.wakeups_coalesced = r.get_u64().ok()?;
            snap.bytes_copied = r.get_u64().ok()?;
        }
        if r.remaining() > 0 {
            snap.queue_p50_ns = r.get_u64().ok()?;
            snap.queue_p95_ns = r.get_u64().ok()?;
            snap.queue_p99_ns = r.get_u64().ok()?;
            snap.service_p50_ns = r.get_u64().ok()?;
            snap.service_p95_ns = r.get_u64().ok()?;
            snap.service_p99_ns = r.get_u64().ok()?;
            snap.sched_routed = r.get_u64().ok()?;
            snap.sched_local_hits = r.get_u64().ok()?;
            snap.sched_stolen = r.get_u64().ok()?;
            snap.sched_spilled = r.get_u64().ok()?;
            snap.sched_queue_depth_hw = r.get_u64().ok()?;
            snap.fanout_batches = r.get_u64().ok()?;
            snap.fanout_parts_helped = r.get_u64().ok()?;
        }
        if r.remaining() > 0 {
            snap.inline_served = r.get_u64().ok()?;
            snap.inline_declined = r.get_u64().ok()?;
        }
        r.finish().ok()?;
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trip() {
        let hello = Hello {
            tenant: "clinic-7".into(),
            scheme: SchemeId::Scheme2,
        };
        assert_eq!(Hello::decode(&hello.encode()), Some(hello));
    }

    #[test]
    fn hello_rejects_bad_magic() {
        let hello = Hello {
            tenant: "x".into(),
            scheme: SchemeId::Scheme1,
        };
        let mut body = hello.encode();
        body[0] ^= 0xFF;
        assert_eq!(Hello::decode(&body), None);
    }

    #[test]
    fn hello_rejects_an_empty_tenant() {
        let body = Hello {
            tenant: String::new(),
            scheme: SchemeId::Scheme2,
        }
        .encode();
        assert_eq!(Hello::decode(&body), None);
    }

    #[test]
    fn hello_rejects_trailing_bytes() {
        let mut body = Hello {
            tenant: "x".into(),
            scheme: SchemeId::Scheme1,
        }
        .encode();
        body.push(0);
        assert_eq!(Hello::decode(&body), None);
    }

    #[test]
    fn response_envelope_round_trip() {
        let body = encode_response(STATUS_BUSY, 7, b"payload");
        assert_eq!(
            decode_response(&body),
            Some((STATUS_BUSY, 7, &b"payload"[..]))
        );
        assert_eq!(decode_response(&[]), None);
        assert_eq!(decode_response(&[STATUS_OK, 1, 2]), None); // truncated seq
    }

    #[test]
    fn request_envelope_round_trip() {
        let body = encode_request(KIND_DATA, u32::MAX, b"msg");
        assert_eq!(
            decode_request(&body),
            Some((KIND_DATA, u32::MAX, &b"msg"[..]))
        );
        assert_eq!(decode_request(&[]), None);
        assert_eq!(decode_request(&[KIND_DATA, 0, 0]), None); // truncated seq
    }

    #[test]
    fn stats_round_trip() {
        let snap = StatsSnapshot {
            requests_ok: 10,
            requests_busy: 2,
            requests_err: 1,
            bytes_in: 4096,
            bytes_out: 8192,
            p50_ns: 1_000,
            p95_ns: 9_000,
            p99_ns: 20_000,
            faults_injected: 3,
            wal_recoveries: 2,
            torn_tails_truncated: 17,
            reconnects: 5,
            shard_contention: vec![3, 0, 7, 1],
            groups_committed: 40,
            ops_committed: 160,
            max_group_size: 9,
            fsyncs_saved: 120,
            snapshot_swaps: 165,
            search_cache_hits: 30,
            search_cache_misses: 11,
            walk_steps_saved: 90,
            backend_runs_flushed: 6,
            backend_runs_live: 4,
            backend_compactions: 1,
            backend_run_reads: 200,
            backend_bloom_checks: 340,
            backend_bloom_skips: 280,
            backend_bloom_false_positives: 3,
            requests_degraded: 4,
            health_degradations: 2,
            health_recoveries: 1,
            health_quarantines: 1,
            tenants_degraded: 1,
            tenants_quarantined: 1,
            scrub_passes: 12,
            scrub_repairs: 1,
            conns_accepted: 44,
            conns_open: 9,
            conns_idle_reaped: 6,
            conns_rejected: 2,
            slow_reader_disconnects: 1,
            reactor_wakeups: 210,
            writes_deferred: 13,
            reactor_spurious_polls: 5,
            pool_hits: 900,
            pool_misses: 40,
            pool_recycles: 890,
            writev_calls: 300,
            writev_frames: 520,
            wakeups_coalesced: 77,
            bytes_copied: 12_345,
            queue_p50_ns: 500,
            queue_p95_ns: 4_000,
            queue_p99_ns: 15_000,
            service_p50_ns: 800,
            service_p95_ns: 6_000,
            service_p99_ns: 18_000,
            sched_routed: 1_000,
            sched_local_hits: 940,
            sched_stolen: 45,
            sched_spilled: 15,
            sched_queue_depth_hw: 12,
            fanout_batches: 33,
            fanout_parts_helped: 88,
            inline_served: 700,
            inline_declined: 21,
        };
        assert_eq!(StatsSnapshot::decode(&snap.encode()), Some(snap.clone()));
        assert_eq!(StatsSnapshot::decode(b"short"), None);
        assert!((snap.fsyncs_per_op() - 0.25).abs() < 1e-9);
        assert!((snap.mean_group_size() - 4.0).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().fsyncs_per_op(), 0.0);
        assert_eq!(StatsSnapshot::default().mean_group_size(), 0.0);
    }

    #[test]
    fn stats_decode_tolerates_pre_backend_payload() {
        let snap = StatsSnapshot {
            requests_ok: 5,
            walk_steps_saved: 7,
            backend_runs_flushed: 9,
            ..StatsSnapshot::default()
        };
        // An older peer's payload ends before the backend_* counters
        // (and therefore before the health, reactor, hot-path, sched and
        // inline blocks appended after them).
        let mut body = snap.encode();
        body.truncate(body.len() - (7 + 8 + 8 + 7 + 13 + 2) * 8);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        assert_eq!(decoded.requests_ok, 5);
        assert_eq!(decoded.walk_steps_saved, 7);
        assert_eq!(decoded.backend_runs_flushed, 0);
        // A partially present trailing block is still malformed.
        let mut torn = snap.encode();
        torn.truncate(torn.len() - 4);
        assert_eq!(StatsSnapshot::decode(&torn), None);
    }

    #[test]
    fn stats_decode_tolerates_pre_health_payload() {
        let snap = StatsSnapshot {
            requests_ok: 5,
            backend_runs_flushed: 9,
            health_degradations: 3,
            scrub_passes: 4,
            ..StatsSnapshot::default()
        };
        // A peer from before the health block: payload ends after the
        // backend_* counters.
        let mut body = snap.encode();
        body.truncate(body.len() - (8 + 8 + 7 + 13 + 2) * 8);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        assert_eq!(decoded.requests_ok, 5);
        assert_eq!(decoded.backend_runs_flushed, 9);
        assert_eq!(decoded.health_degradations, 0);
        assert_eq!(decoded.scrub_passes, 0);
    }

    #[test]
    fn stats_decode_tolerates_pre_reactor_payload() {
        let snap = StatsSnapshot {
            requests_ok: 5,
            scrub_passes: 4,
            conns_accepted: 11,
            reactor_wakeups: 7,
            ..StatsSnapshot::default()
        };
        // A peer from before the reactor block: payload ends after the
        // health/scrub counters.
        let mut body = snap.encode();
        body.truncate(body.len() - (8 + 7 + 13 + 2) * 8);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        assert_eq!(decoded.requests_ok, 5);
        assert_eq!(decoded.scrub_passes, 4);
        assert_eq!(decoded.conns_accepted, 0);
        assert_eq!(decoded.reactor_wakeups, 0);
    }

    #[test]
    fn stats_decode_tolerates_pre_hotpath_payload() {
        let snap = StatsSnapshot {
            requests_ok: 5,
            reactor_wakeups: 7,
            pool_hits: 11,
            writev_calls: 13,
            bytes_copied: 17,
            ..StatsSnapshot::default()
        };
        // A peer from before the hot-path block: payload ends after the
        // reactor counters.
        let mut body = snap.encode();
        body.truncate(body.len() - (7 + 13 + 2) * 8);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        assert_eq!(decoded.requests_ok, 5);
        assert_eq!(decoded.reactor_wakeups, 7);
        assert_eq!(decoded.pool_hits, 0);
        assert_eq!(decoded.writev_calls, 0);
        assert_eq!(decoded.bytes_copied, 0);
    }

    #[test]
    fn stats_decode_tolerates_pre_sched_payload() {
        let snap = StatsSnapshot {
            requests_ok: 5,
            bytes_copied: 17,
            queue_p99_ns: 900,
            sched_routed: 31,
            fanout_batches: 2,
            ..StatsSnapshot::default()
        };
        // A peer from before the scheduler block: payload ends after the
        // hot-path counters.
        let mut body = snap.encode();
        body.truncate(body.len() - (13 + 2) * 8);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        assert_eq!(decoded.requests_ok, 5);
        assert_eq!(decoded.bytes_copied, 17);
        assert_eq!(decoded.queue_p99_ns, 0);
        assert_eq!(decoded.sched_routed, 0);
        assert_eq!(decoded.fanout_batches, 0);
    }

    #[test]
    fn stats_decode_tolerates_pre_inline_payload() {
        let snap = StatsSnapshot {
            requests_ok: 5,
            fanout_parts_helped: 3,
            inline_served: 4,
            inline_declined: 1,
            ..StatsSnapshot::default()
        };
        // A peer from before the inline block: payload ends after the
        // scheduler counters.
        let mut body = snap.encode();
        body.truncate(body.len() - 2 * 8);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        assert_eq!(decoded.requests_ok, 5);
        assert_eq!(decoded.fanout_parts_helped, 3);
        assert_eq!(decoded.inline_served, 0);
        assert_eq!(decoded.inline_declined, 0);
    }

    #[test]
    fn response_prefix_matches_the_contiguous_encoding() {
        let payload = b"scheme response bytes";
        let contiguous = sse_net::frame::encode_frame(&encode_response(STATUS_OK, 42, payload));
        let mut gathered = response_prefix(STATUS_OK, 42, payload.len()).to_vec();
        gathered.extend_from_slice(payload);
        assert_eq!(gathered, contiguous);
        // Empty payload: the prefix alone is the whole wire image.
        assert_eq!(
            response_prefix(STATUS_BUSY, 7, 0).to_vec(),
            sse_net::frame::encode_frame(&encode_response(STATUS_BUSY, 7, b""))
        );
    }

    #[test]
    fn degraded_payload_round_trip() {
        let body = encode_degraded(250, "journal fsync failed");
        assert_eq!(
            decode_degraded(&body),
            Some((250, "journal fsync failed".to_string()))
        );
        assert_eq!(decode_degraded(&[1, 2]), None); // truncated hint
    }

    #[test]
    fn batch_round_trip() {
        let parts = vec![b"first".to_vec(), Vec::new(), b"third-part".to_vec()];
        let payload = encode_batch(&parts);
        let decoded = decode_batch(&payload).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], b"first");
        assert_eq!(decoded[1], b"");
        assert_eq!(decoded[2], b"third-part");
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap().len(), 0);
    }

    #[test]
    fn batch_rejects_malformed_payloads() {
        let good = encode_batch(&[b"part".to_vec()]);
        assert!(decode_batch(&good[..good.len() - 1]).is_none(), "truncated");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_batch(&trailing).is_none(), "trailing bytes");
        let mut forged = good;
        forged[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch(&forged).is_none(), "forged count");
        assert!(decode_batch(&[1, 2]).is_none(), "short header");
    }

    #[test]
    fn batch_ranges_agree_with_decode_batch() {
        let parts = vec![b"first".to_vec(), Vec::new(), b"third-part".to_vec()];
        let payload = encode_batch(&parts);
        let ranges = decode_batch_ranges(&payload).unwrap();
        let borrowed = decode_batch(&payload).unwrap();
        assert_eq!(ranges.len(), borrowed.len());
        for (range, part) in ranges.iter().zip(&borrowed) {
            assert_eq!(&payload[range.clone()], *part);
        }
        assert_eq!(decode_batch_ranges(&encode_batch(&[])).unwrap().len(), 0);
    }

    #[test]
    fn batch_ranges_reject_exactly_what_decode_batch_rejects() {
        let good = encode_batch(&[b"part".to_vec()]);
        for bad in [
            &good[..good.len() - 1],               // truncated part
            &[good.clone(), vec![0]].concat()[..], // trailing bytes
            &{
                let mut forged = good.clone();
                forged[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                forged
            }[..], // forged count
            &[1, 2][..],                           // short header
        ] {
            assert_eq!(
                decode_batch_ranges(bad).is_none(),
                decode_batch(bad).is_none()
            );
            assert!(decode_batch_ranges(bad).is_none());
        }
    }
}
