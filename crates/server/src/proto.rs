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

/// Encode an `UPDATE_MANY` batch envelope: `[count u32]` then, per
/// part, `[len u32][part bytes]`.
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

/// Decode an `UPDATE_MANY` payload into its parts, each a slice of
/// `payload`. `None` on any length mismatch (truncated part, trailing
/// bytes, or a forged count).
#[must_use]
pub fn decode_batch(payload: &[u8]) -> Option<Vec<&[u8]>> {
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
        parts.push(&payload[off..off + len]);
        off += len;
    }
    if off != payload.len() {
        return None;
    }
    Some(parts)
}

/// Declares [`StatsSnapshot`]'s scalar counters once. The struct fields,
/// [`StatsSnapshot::NAMES`], [`StatsSnapshot::fields`] and
/// [`StatsSnapshot::field_mut`] all come from the one list below, and the
/// wire form names every value, so a new counter is one line in it plus
/// its row in DESIGN.md's ADMIN_STATS table (a test holds the two equal).
macro_rules! stats_snapshot {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// How many scalar counters a [`StatsSnapshot`] carries.
        const STAT_COUNT: usize = [$(stringify!($name),)*].len();

        /// Point-in-time serving statistics, as answered to [`ADMIN_STATS`]:
        /// one `u64` per named counter plus the per-shard contention vector.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Contended shard-lock acquisitions per index shard, summed across
            /// all open tenant databases. Empty when no tenant is open.
            pub shard_contention: Vec<u64>,
        }

        impl StatsSnapshot {
            /// Every scalar counter's name, in declaration order.
            pub const NAMES: [&'static str; STAT_COUNT] = [$(stringify!($name),)*];

            /// Every scalar counter as `(name, value)`, in [`Self::NAMES`] order.
            #[must_use]
            pub fn fields(&self) -> [(&'static str, u64); STAT_COUNT] {
                [$((stringify!($name), self.$name),)*]
            }

            /// The scalar counter called `name`, if there is one.
            pub fn field_mut(&mut self, name: &str) -> Option<&mut u64> {
                match name {
                    $(stringify!($name) => Some(&mut self.$name),)*
                    _ => None,
                }
            }
        }
    };
}

stats_snapshot! {
    /// DATA requests served successfully.
    requests_ok,
    /// DATA requests rejected with `BUSY` (queue full).
    requests_busy,
    /// Malformed requests answered with `ERR`.
    requests_err,
    /// Request payload bytes received (framing and envelope excluded).
    bytes_in,
    /// Response payload bytes sent.
    bytes_out,
    /// Median service latency in nanoseconds (queue wait + handler).
    p50_ns,
    /// 95th-percentile service latency in nanoseconds.
    p95_ns,
    /// 99th-percentile service latency in nanoseconds.
    p99_ns,
    /// Storage faults injected by a configured fault VFS (0 unless the
    /// daemon was started with fault injection enabled).
    faults_injected,
    /// Tenant database opens that performed WAL replay or torn-tail
    /// truncation (crash recoveries observed by this daemon).
    wal_recoveries,
    /// Torn log-tail bytes truncated across all tenant opens.
    torn_tails_truncated,
    /// Hello frames that re-attached to an already-open tenant database
    /// (client reconnects, as seen from the server).
    reconnects,
    /// Journal groups committed (one vectored write + one fsync each),
    /// summed across all open tenant databases.
    groups_committed,
    /// Mutations made durable through those groups.
    ops_committed,
    /// Largest single commit group observed.
    max_group_size,
    /// Fsyncs avoided versus one-fsync-per-op journaling.
    fsyncs_saved,
    /// Immutable search-snapshot publications: one per shard a mutation
    /// was applied to, and nothing else — a search never publishes.
    snapshot_swaps,
    /// Checkpoints completed, summed across all open tenant databases.
    checkpoints,
    /// Microseconds those checkpoints stalled their engine (quiesce to
    /// the last journal reset), summed.
    checkpoint_us,
    /// Longest single checkpoint stall, in microseconds.
    checkpoint_max_us,
    /// Search-memo hits (repeat searches answered from the per-shard
    /// chain-key memo), summed across all open tenant databases.
    search_cache_hits,
    /// Memo-eligible searches that took the cold path.
    search_cache_misses,
    /// Forward hash-chain steps avoided by memo hits.
    walk_steps_saved,
    /// Sorted runs written by lsm-backed tenants since open (flushes plus
    /// compaction outputs; 0 for btree-only daemons).
    backend_runs_flushed,
    /// Sorted runs currently referenced by lsm manifests.
    backend_runs_live,
    /// LSM compactions performed since open.
    backend_compactions,
    /// Point reads that had to consult at least one run on disk.
    backend_run_reads,
    /// Per-run bloom membership tests performed.
    backend_bloom_checks,
    /// Run probes skipped because the bloom filter proved absence.
    backend_bloom_skips,
    /// Run probes where the bloom said "maybe" but the key was absent.
    backend_bloom_false_positives,
    /// Mutations rejected with `DEGRADED` (tenant read-only).
    requests_degraded,
    /// `Healthy → Degraded` transitions across all open tenants.
    health_degradations,
    /// `Degraded → Healthy` scrub recoveries across all open tenants.
    health_recoveries,
    /// `→ Quarantined` transitions across all open tenants.
    health_quarantines,
    /// Tenants currently in the `Degraded` state.
    tenants_degraded,
    /// Tenants currently in the `Quarantined` state.
    tenants_quarantined,
    /// Background scrub passes completed.
    scrub_passes,
    /// Scrub repairs that promoted a tenant back to `Healthy`.
    scrub_repairs,
    /// Connections accepted since startup.
    conns_accepted,
    /// Connections currently open (accepted minus closed).
    conns_open,
    /// Connections reaped by the idle deadline.
    conns_idle_reaped,
    /// Connections refused at accept because the daemon was at its
    /// configured `max_conns` cap.
    conns_rejected,
    /// Connections disconnected because their bounded outbound write
    /// queue overflowed (slow or never-draining readers).
    slow_reader_disconnects,
    /// Wakeup-pipe notifications observed by the reactor (worker
    /// completions and shutdown nudges).
    reactor_wakeups,
    /// Responses that could not be written synchronously and armed
    /// `EPOLLOUT` to finish later.
    writes_deferred,
    /// Readiness events that produced no progress (spurious wakeups).
    reactor_spurious_polls,
    /// Frame-buffer acquisitions served from the pool's free lists.
    pool_hits,
    /// Frame-buffer acquisitions that had to allocate fresh.
    pool_misses,
    /// Frame buffers returned to the pool's free lists.
    pool_recycles,
    /// `writev` syscalls issued by the reactor's write path.
    writev_calls,
    /// Response frames fully flushed by those calls — `writev_frames /
    /// writev_calls` is the mean syscall batch (1.0 for a closed-loop
    /// client, above it only when responses genuinely coalesce).
    writev_frames,
    /// Worker-completion notifications absorbed by an already-pending
    /// reactor wakeup (the wake pipe is drained once per poll batch).
    wakeups_coalesced,
    /// Payload bytes memcpy'd on the serving path. Always 0: request
    /// payloads reach the scheme handler as views of the buffer the socket
    /// read filled, and no other path exists. The counter stays only
    /// because `bench/` reports it as `net.bytes_copied_per_op`.
    bytes_copied,
    /// Median run-queue wait in nanoseconds (job accepted until a worker
    /// dequeued it) — the backpressure half of `p50_ns`.
    queue_p50_ns,
    /// 95th-percentile run-queue wait in nanoseconds.
    queue_p95_ns,
    /// 99th-percentile run-queue wait in nanoseconds.
    queue_p99_ns,
    /// Median worker service time in nanoseconds (dequeue until the
    /// response was produced) — the compute half of `p50_ns`.
    service_p50_ns,
    /// 95th-percentile worker service time in nanoseconds.
    service_p95_ns,
    /// 99th-percentile worker service time in nanoseconds.
    service_p99_ns,
    /// Jobs accepted into a worker run queue (home or spill).
    sched_routed,
    /// Jobs popped by their home worker from its own queue —
    /// `sched_local_hits / sched_routed` is the affinity locality rate.
    sched_local_hits,
    /// Jobs an idle worker took from another worker's queue.
    sched_stolen,
    /// Jobs whose full home queue overflowed into another queue (still
    /// steal-eligible; only all-queues-full answers `BUSY`).
    sched_spilled,
    /// High-water mark of any single run queue's depth.
    sched_queue_depth_hw,
    /// DATA requests the reactor answered itself, run to completion with
    /// no worker hop (memo-hit Scheme 2 searches; DESIGN.md §4n). Each is
    /// also in `requests_ok`, with zero queue wait.
    inline_served,
    /// DATA requests the reactor sent to the run queue instead (reactor
    /// mode only): `inline_served + inline_declined` is every DATA frame
    /// it saw.
    inline_declined,
}

/// Longest counter name [`StatsSnapshot::decode`] accepts.
pub const MAX_STAT_NAME_LEN: usize = 64;

impl StatsSnapshot {
    /// Encode as an ADMIN response payload: the contention vector
    /// (`[count u64][u64 …]`), then `[count u64]` name-tagged counters,
    /// each `[name length u8][name][value u64]`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64_vec(&self.shard_contention)
            .put_u64(STAT_COUNT as u64);
        for (name, value) in self.fields() {
            w.put_u8(name.len() as u8)
                .put_array(name.as_bytes())
                .put_u64(value);
        }
        w.finish()
    }

    /// Decode an ADMIN response payload, filling counters by name: a name
    /// this build does not know is skipped and a name the payload lacks
    /// reads 0. `None` when a known name repeats (which value would be
    /// meant?), a name is longer than [`MAX_STAT_NAME_LEN`], a count
    /// exceeds what the payload could hold, or bytes trail the last
    /// counter. An unknown name may repeat: its values are never read, and
    /// catching it would cost a set of every name seen. Allocates at most
    /// the contention vector, whose count is checked against the payload
    /// first.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<StatsSnapshot> {
        let mut r = WireReader::new(body);
        let mut snap = StatsSnapshot::default();
        let shards = r.get_count(8).ok()?;
        snap.shard_contention.reserve_exact(shards);
        for _ in 0..shards {
            snap.shard_contention.push(r.get_u64().ok()?);
        }
        // A counter is at least its length byte and its value.
        let counters = r.get_count(1 + 8).ok()?;
        let mut seen = [false; STAT_COUNT];
        for _ in 0..counters {
            let len = usize::from(r.get_u8().ok()?);
            if len > MAX_STAT_NAME_LEN {
                return None;
            }
            let name = r.get_array(len).ok()?;
            let value = r.get_u64().ok()?;
            let Some(i) = Self::NAMES.iter().position(|n| n.as_bytes() == name) else {
                continue;
            };
            if std::mem::replace(&mut seen[i], true) {
                return None;
            }
            if let Some(slot) = snap.field_mut(Self::NAMES[i]) {
                *slot = value;
            }
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

    /// A snapshot with every counter set, each to a distinct nonzero value.
    fn every_counter_set() -> StatsSnapshot {
        let mut snap = StatsSnapshot {
            shard_contention: vec![3, 0, 7, 1],
            ..StatsSnapshot::default()
        };
        for (i, name) in StatsSnapshot::NAMES.iter().enumerate() {
            *snap.field_mut(name).unwrap() = 1000 + i as u64;
        }
        snap
    }

    /// An ADMIN_STATS payload built by hand: `contention`, then `pairs`
    /// declared as `count` name-tagged counters.
    fn stats_payload(contention: &[u64], count: u64, pairs: &[(&[u8], u64)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64_vec(contention).put_u64(count);
        for (name, value) in pairs {
            w.put_u8(name.len() as u8).put_array(name).put_u64(*value);
        }
        w.finish()
    }

    fn pairs_of(snap: &StatsSnapshot) -> Vec<(&'static [u8], u64)> {
        snap.fields()
            .iter()
            .map(|&(name, value)| (name.as_bytes(), value))
            .collect()
    }

    #[test]
    fn stats_round_trip() {
        let snap = every_counter_set();
        let fields = snap.fields();
        assert_eq!(fields.len(), StatsSnapshot::NAMES.len());
        for (i, (name, value)) in fields.iter().enumerate() {
            assert_eq!(*name, StatsSnapshot::NAMES[i]);
            assert_eq!(*value, 1000 + i as u64, "{name} is its own field");
        }
        assert_eq!(StatsSnapshot::decode(&snap.encode()), Some(snap.clone()));
        assert_eq!(
            StatsSnapshot::decode(&StatsSnapshot::default().encode()),
            Some(StatsSnapshot::default())
        );
        assert_eq!(StatsSnapshot::decode(b"short"), None);
        assert!(StatsSnapshot::NAMES
            .iter()
            .all(|n| !n.is_empty() && n.len() <= MAX_STAT_NAME_LEN));
        assert_eq!(StatsSnapshot::default().field_mut("no_such_counter"), None);
    }

    #[test]
    fn design_table_has_one_row_per_field() {
        let design = include_str!("../../../DESIGN.md");
        let section = design.split("\n## 4o.").nth(1).expect("DESIGN.md §4o");
        let section = section.split("\n## ").next().unwrap();
        let rows: Vec<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
            .collect();
        let mut fields = StatsSnapshot::NAMES.to_vec();
        fields.push("shard_contention");
        for name in &fields {
            assert!(rows.contains(name), "`{name}` has no row in DESIGN.md §4o");
        }
        for row in &rows {
            assert!(
                fields.contains(row),
                "DESIGN.md §4o row `{row}` names no field"
            );
        }
        assert_eq!(rows.len(), fields.len(), "a field has two rows");
    }

    #[test]
    fn stats_encoding_is_the_documented_layout() {
        let snap = every_counter_set();
        let pairs = pairs_of(&snap);
        let built = stats_payload(&snap.shard_contention, pairs.len() as u64, &pairs);
        assert_eq!(snap.encode(), built);
    }

    #[test]
    fn stats_decode_fills_by_name_in_any_order_and_zeroes_what_is_missing() {
        let snap = every_counter_set();
        let mut pairs = pairs_of(&snap);
        pairs.reverse();
        let missing = pairs.remove(5);
        let body = stats_payload(&[], pairs.len() as u64, &pairs);
        let decoded = StatsSnapshot::decode(&body).unwrap();
        let mut want = StatsSnapshot {
            shard_contention: Vec::new(),
            ..snap
        };
        *want
            .field_mut(std::str::from_utf8(missing.0).unwrap())
            .unwrap() = 0;
        assert_eq!(decoded, want);
    }

    #[test]
    fn stats_decode_skips_unknown_names() {
        let snap = every_counter_set();
        let mut pairs = pairs_of(&snap);
        pairs.insert(3, (b"from_a_newer_peer", 99));
        pairs.push((&[0xFF, 0xFE], 1)); // not even UTF-8
        pairs.push((b"", 2));
        let body = stats_payload(&snap.shard_contention, pairs.len() as u64, &pairs);
        assert_eq!(StatsSnapshot::decode(&body), Some(snap));
    }

    #[test]
    fn stats_decode_rejects_ambiguous_or_malformed_payloads() {
        let snap = every_counter_set();
        let pairs = pairs_of(&snap);
        let n = pairs.len() as u64;

        let mut twice = pairs.clone();
        twice.push((b"requests_ok", 1));
        let body = stats_payload(&[], n + 1, &twice);
        assert_eq!(StatsSnapshot::decode(&body), None, "duplicate name");

        let long = [b'x'; MAX_STAT_NAME_LEN + 1];
        let body = stats_payload(&[], 1, &[(&long, 1)]);
        assert_eq!(StatsSnapshot::decode(&body), None, "over-long name");
        let longest = [b'x'; MAX_STAT_NAME_LEN];
        let body = stats_payload(&[], 1, &[(&longest, 1)]);
        assert!(StatsSnapshot::decode(&body).is_some(), "longest name");

        let body = stats_payload(&[], n + 1, &pairs);
        assert_eq!(StatsSnapshot::decode(&body), None, "count past the end");
        let body = stats_payload(&[], u64::MAX, &pairs);
        assert_eq!(StatsSnapshot::decode(&body), None, "forged count");
        let mut forged = stats_payload(&[], 0, &[]);
        forged[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(StatsSnapshot::decode(&forged), None, "forged shard count");

        let mut trailing = snap.encode();
        trailing.push(0);
        assert_eq!(StatsSnapshot::decode(&trailing), None, "trailing bytes");
        let body = snap.encode();
        for cut in 0..body.len() {
            assert_eq!(StatsSnapshot::decode(&body[..cut]), None, "cut at {cut}");
        }
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
}
