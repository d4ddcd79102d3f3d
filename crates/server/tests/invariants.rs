//! Count invariants of the daemon's serving path: allocations and bytes
//! per warm search and per index update, bytes a forged length prefix
//! costs, gather-write batching, a thread count no request moves, and
//! fsync sharing between concurrent updaters and between one
//! connection's pipelined updates on one worker.
//! Every bound is a count read from one process, so none depends on how
//! fast the box is (EXPERIMENTS.md E12 and E15 list the readings they were
//! pinned from).
//!
//! One `#[test]`: the allocation counters and `Threads:` are process-wide,
//! and a second test running beside this one would move both.

use sse_core::proto_common::decode_result_many;
use sse_core::scheme2::protocol::{
    decode_request, encode_append_generations, encode_checkpoint, encode_put_docs,
    encode_search_many, GenerationEntry, Request,
};
use sse_core::scheme2::{Scheme2Client, Scheme2Config};
use sse_core::types::{Document, Keyword, MasterKey};
use sse_net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
use sse_net::link::Transport;
use sse_server::daemon::{Daemon, ServerConfig};
use sse_server::proto::{
    self, Hello, SchemeId, ADMIN_STATS, HELLO_SEQ, KIND_ADMIN, KIND_DATA, STATUS_OK,
};
use sse_server::tenant::TenantParams;
use sse_server::transport::TcpTransport;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Counts heap acquisitions of the daemon's reactor and worker threads,
/// which opt in at start; this test's own threads never do.
#[global_allocator]
static ALLOC: allocmeter::CountingAlloc = allocmeter::CountingAlloc;

const TENANT: &str = "invariants";
/// Requests per pipelined burst.
const DEPTH: usize = 16;
/// Warm searches per measured phase.
const OPS: u64 = 2048;
/// Trapdoors inside each Scheme 2 `SearchMany` request.
const BATCH_PARTS: usize = 4;
/// Server-thread allocations one warm search may cost: the reading taken
/// before this bound was written, closed-loop and pipelined alike. They
/// are the frame body (70 B), the reply (75 B, sized exactly), the result
/// list (32 B) and its blob copy (50 B). The first two are plain buffers
/// because recycling them won nothing on the benchmark (EXPERIMENTS.md
/// E26).
const ALLOCS_PER_WARM_SEARCH: u64 = 4;
/// Bytes those allocations may request per warm search: the reading (227)
/// plus a small margin. A reply buffer pre-sized to a fixed 4 KiB instead
/// of the reply's length reads ≈ 4 250.
const BYTES_PER_WARM_SEARCH: u64 = 256;

/// Remembers the bytes of the last single round trip, so the test can
/// replay one warm (read-only) search verbatim over a bare socket.
struct Capture {
    inner: TcpTransport,
    last: Vec<u8>,
}

impl Transport for Capture {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        self.last = request.to_vec();
        self.inner.round_trip(request)
    }
}

fn scheme2_client<T: Transport>(transport: T, seed: u64) -> Scheme2Client<T> {
    Scheme2Client::new_seeded(
        transport,
        MasterKey::from_seed(seed),
        Scheme2Config::standard().with_chain_length(64),
        seed,
    )
}

/// Store one document, search its keyword twice, and return the second
/// search's request: the tenant's memo now answers it.
fn warm_search_request(addr: SocketAddr) -> Vec<u8> {
    let transport = Capture {
        inner: TcpTransport::connect(addr, TENANT, SchemeId::Scheme2).unwrap(),
        last: Vec::new(),
    };
    let mut client = scheme2_client(transport, 7);
    let keyword = Keyword::new("needle");
    client
        .store(&[Document::new(1, b"record".to_vec(), [keyword.as_str()])])
        .unwrap();
    for _ in 0..2 {
        assert_eq!(client.search(&keyword).unwrap().len(), 1);
    }
    client.transport_mut().last.clone()
}

/// The next reply's `(status, seq, payload)`.
fn read_reply(stream: &mut TcpStream) -> (u8, u32, Vec<u8>) {
    let body = read_frame(stream, MAX_FRAME_LEN).unwrap();
    let (status, seq, payload) = proto::decode_response(&body).unwrap();
    (status, seq, payload.to_vec())
}

fn read_status(stream: &mut TcpStream) -> (u8, u32) {
    let (status, seq, _) = read_reply(stream);
    (status, seq)
}

/// A bare socket past its hello.
fn raw_connection(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let hello = Hello {
        tenant: TENANT.into(),
        scheme: SchemeId::Scheme2,
    };
    stream.write_all(&encode_frame(&hello.encode())).unwrap();
    assert_eq!(read_status(&mut stream), (STATUS_OK, HELLO_SEQ));
    stream
}

/// `DEPTH` request frames in one buffer: `request(slot)` gives each
/// slot's kind and payload.
fn burst<'a>(request: impl Fn(usize) -> (u8, &'a [u8])) -> Vec<u8> {
    (0..DEPTH)
        .flat_map(|slot| {
            let (kind, payload) = request(slot);
            encode_frame(&proto::encode_request(kind, slot as u32 + 1, payload))
        })
        .collect()
}

/// Send `bytes` (holding `replies` requests) `rounds` times, reading every
/// reply of a round before the next is sent.
fn replay(stream: &mut TcpStream, bytes: &[u8], replies: usize, rounds: u64) {
    for _ in 0..rounds {
        stream.write_all(bytes).unwrap();
        for _ in 0..replies {
            assert_eq!(read_status(stream).0, STATUS_OK);
        }
    }
}

/// What one measured phase moved.
#[derive(Debug)]
struct Moved {
    /// Heap acquisitions by the daemon's reactor and worker threads.
    allocs: u64,
    /// Bytes those acquisitions requested.
    bytes: u64,
    writev_calls: u64,
    writev_frames: u64,
}

fn measured(daemon: &Daemon, phase: impl FnOnce()) -> Moved {
    let before = daemon.stats();
    let allocs_before = allocmeter::counters();
    phase();
    let allocs = allocmeter::counters().since(&allocs_before);
    let after = daemon.stats();
    Moved {
        allocs: allocs.allocs,
        bytes: allocs.bytes,
        writev_calls: after.writev_calls - before.writev_calls,
        writev_frames: after.writev_frames - before.writev_frames,
    }
}

fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("/proc/self/status has a Threads: line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// The most threads the process had at any moment a sampler thread (one
/// of them) looked, while `phase` ran.
fn peak_threads_during(phase: impl FnOnce()) -> u64 {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = process_threads();
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(process_threads());
            }
            peak
        });
        phase();
        done.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    })
}

fn warm_searches_allocate_little_share_writes_and_spawn_nothing() {
    let daemon = Daemon::spawn(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();
    let search = warm_search_request(addr);
    // One connection per shape of traffic. The reactor answers at most 64
    // frames per readiness event itself (`INLINE_BURST`, a multiple of
    // `DEPTH`) and queues the rest of what it has read: a burst that
    // arrived in an event single requests had used part of would straddle
    // that bound, and its tail would cost a worker's allocations.
    let mut closed = raw_connection(addr);
    let mut stream = raw_connection(addr);
    let single = encode_frame(&proto::encode_request(KIND_DATA, 1, &search));
    let searches = burst(|_| (KIND_DATA, &search));
    let Ok(Request::Search { tag, t_prime }) = decode_request(&search) else {
        panic!("the captured request is a Scheme 2 search");
    };
    let batch = encode_search_many(&[(tag, t_prime); BATCH_PARTS]);
    let mixed = burst(|slot| match slot % 2 {
        0 => (KIND_DATA, &search[..]),
        _ => (KIND_DATA, &batch[..]),
    });
    // Grow every reused vector once.
    replay(&mut closed, &single, 1, 64);
    replay(&mut stream, &searches, DEPTH, 8);

    let closed_loop = measured(&daemon, || replay(&mut closed, &single, 1, OPS));
    assert!(
        closed_loop.allocs <= ALLOCS_PER_WARM_SEARCH * OPS
            && closed_loop.bytes <= BYTES_PER_WARM_SEARCH * OPS,
        "{OPS} closed-loop warm searches: {closed_loop:?}"
    );

    let rounds = OPS / DEPTH as u64;
    let pipelined = measured(&daemon, || replay(&mut stream, &searches, DEPTH, rounds));
    assert!(
        pipelined.allocs <= ALLOCS_PER_WARM_SEARCH * OPS
            && pipelined.bytes <= BYTES_PER_WARM_SEARCH * OPS,
        "{OPS} warm searches in {DEPTH}-deep bursts: {pipelined:?}"
    );
    assert!(
        pipelined.writev_frames > pipelined.writev_calls,
        "a burst's replies never shared a writev: {pipelined:?}"
    );

    // Any thread a request starts shows here, annotated or not: one that
    // outlives its request in the count afterwards, one that is joined
    // before the reply (a scoped helper per batch) in the peak.
    let threads = process_threads();
    let mut batches = 0;
    let peak = peak_threads_during(|| {
        for _ in 0..rounds {
            stream.write_all(&mixed).unwrap();
            for _ in 0..DEPTH {
                let (status, seq, payload) = read_reply(&mut stream);
                assert_eq!(status, STATUS_OK, "seq {seq}");
                // Odd slots, even sequence numbers, carry the batches.
                if seq % 2 == 0 {
                    let lists = decode_result_many(&payload).unwrap();
                    assert_eq!(lists.len(), BATCH_PARTS, "seq {seq}");
                    assert!(lists.iter().all(|hits| hits.len() == 1), "seq {seq}");
                    batches += 1;
                }
            }
        }
    });
    assert_eq!(
        (peak, process_threads()),
        (threads + 1, threads),
        "serving SearchMany batches changed the process's thread count \
         (peak while they ran, sampler included; count afterwards)"
    );
    assert_eq!(batches, rounds * DEPTH as u64 / 2);

    let stats = daemon.stats();
    assert_eq!((stats.requests_err, stats.requests_busy), (0, 0));
    drop((closed, stream));
    daemon.shutdown();
}

fn concurrent_updaters_share_fsyncs() {
    const UPDATERS: u64 = 8;
    const STORES: u64 = 64;
    let dir = std::env::temp_dir().join(format!("sse-invariants-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let daemon = Daemon::spawn(ServerConfig {
        // A flush group is the set of workers waiting on one journal, so
        // every updater needs a worker of its own to be able to join one.
        workers: UPDATERS as usize,
        // One shard, one journal: the updaters can only share that one.
        tenant_params: TenantParams {
            shards: 1,
            ..TenantParams::default()
        },
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();
    let start = std::sync::Barrier::new(UPDATERS as usize);
    std::thread::scope(|s| {
        for updater in 0..UPDATERS {
            let start = &start;
            s.spawn(move || {
                let transport = TcpTransport::connect(addr, TENANT, SchemeId::Scheme2).unwrap();
                // Distinct master keys give disjoint tags, so the clients
                // share the tenant without coordinating.
                let mut client = scheme2_client(transport, 100 + updater);
                start.wait();
                for n in 0..STORES {
                    let doc = Document::new(n * UPDATERS + updater, b"record".to_vec(), ["kw"]);
                    client.store_batch(&[doc]).unwrap();
                }
            });
        }
    });
    let stats = TcpTransport::connect(addr, TENANT, SchemeId::Scheme2)
        .unwrap()
        .admin_stats()
        .unwrap();
    assert!(
        stats.ops_committed >= UPDATERS * STORES,
        "every store is a journal record: {stats:?}"
    );
    assert!(
        stats.groups_committed < stats.ops_committed,
        "{UPDATERS} concurrent updaters never shared an fsync: {} op(s) in {} group(s)",
        stats.ops_committed,
        stats.groups_committed
    );
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One connection, one worker, one journal: a group can only form out of
/// the updates that wait in the worker's queue while the last fsync runs,
/// which is what parking the mutation instead of the worker lets them do
/// (DESIGN.md §4e). One fsync per update reads 64 groups for 64 ops; the
/// parked pipeline reads 8-10.
fn pipelined_updates_on_one_worker_share_fsyncs() {
    const UPDATES: u32 = 64;
    const WINDOW: u32 = 8;
    let dir = std::env::temp_dir().join(format!("sse-invariants-pipe-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let daemon = Daemon::spawn(ServerConfig {
        workers: 1,
        tenant_params: TenantParams {
            shards: 1,
            ..TenantParams::default()
        },
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = raw_connection(daemon.local_addr());
    // The server appends without decrypting: any bytes make a generation.
    let update = |n: u32| {
        let mut tag = [0u8; 32];
        tag[..4].copy_from_slice(&n.to_le_bytes());
        let append = encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: vec![0xA5; 48],
            commitment: [0x5A; 32],
        }]);
        encode_frame(&proto::encode_request(KIND_DATA, n, &append))
    };
    let first: Vec<u8> = (1..=WINDOW).flat_map(update).collect();
    stream.write_all(&first).unwrap();
    let mut sent = WINDOW;
    for _ in 0..UPDATES {
        assert_eq!(read_status(&mut stream).0, STATUS_OK);
        if sent < UPDATES {
            sent += 1;
            stream.write_all(&update(sent)).unwrap();
        }
    }
    let stats = daemon.stats();
    assert_eq!(stats.ops_committed, u64::from(UPDATES), "{stats:?}");
    assert!(
        stats.groups_committed < stats.ops_committed,
        "{WINDOW} pipelined updates on one worker never shared an fsync: {} op(s) in {} group(s)",
        stats.ops_committed,
        stats.groups_committed
    );
    drop(stream);
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An index update after a publish copies the nodes on its tag's path
/// and that one keyword's generation list, not the whole leaf's
/// (DESIGN.md §4e). 4 096 keywords of 16 generations in one in-memory shard, then
/// 256 closed-loop updates of two keywords each, every one published.
/// Server-thread allocations per update read 314 while a path copy cloned
/// every list in the leaf (about 9 lists of 17 allocations per keyword),
/// 75 once values were shared by `Arc` (a list copy was then 18: its
/// `Arc`, its `Vec` of generations and one `Vec` per generation), 41 when
/// a list became one block (a copy is its `Arc` and one allocation, and
/// the apply pushes each generation straight from the record; it later
/// read 42), and 35 since the server reads
/// an update once, in place, and cuts its shard's record from the
/// request's bytes instead of decoding owned entries (a `Vec` per
/// generation), grouping them and re-encoding each group. The rest per
/// keyword is about 10 for the path's nodes; the remainder is framing and
/// decode. The bound is that reading plus a small margin.
fn index_updates_copy_one_list_per_keyword() {
    const KEYWORDS: u32 = 4096;
    const GENERATIONS: u8 = 16;
    const UPDATES: u32 = 256;
    const ALLOCS_PER_UPDATE: u64 = 37;
    let daemon = Daemon::spawn(ServerConfig::default()).unwrap();
    let mut stream = raw_connection(daemon.local_addr());
    let tag = |k: u32| {
        let mut tag = [0u8; 32];
        tag[..4].copy_from_slice(&k.to_be_bytes());
        tag[4..].fill(0x3C);
        tag
    };
    // The server appends without decrypting: any bytes make a generation.
    let entry = |k: u32, g: u8| GenerationEntry {
        tag: tag(k),
        sealed_ids: vec![g; 48],
        commitment: [g; 32],
    };
    let mut seq = 0u32;
    let mut append = |stream: &mut TcpStream, entries: &[GenerationEntry]| {
        seq += 1;
        let request = proto::encode_request(KIND_DATA, seq, &encode_append_generations(entries));
        stream.write_all(&encode_frame(&request)).unwrap();
        assert_eq!(read_status(stream), (STATUS_OK, seq));
    };
    for g in 0..GENERATIONS {
        let round: Vec<GenerationEntry> = (0..KEYWORDS).map(|k| entry(k, g)).collect();
        append(&mut stream, &round);
    }
    let update = |n: u32| {
        [
            entry(n * 37 % KEYWORDS, 0xEE),
            entry((n * 37 + 2048) % KEYWORDS, 0xEF),
        ]
    };
    // Warm the connection's buffers with updates of their own.
    (UPDATES..UPDATES + 16).for_each(|n| append(&mut stream, &update(n)));
    let moved = measured(&daemon, || {
        (0..UPDATES).for_each(|n| append(&mut stream, &update(n)));
    });
    assert!(
        moved.allocs <= ALLOCS_PER_UPDATE * u64::from(UPDATES),
        "{UPDATES} two-keyword updates over {KEYWORDS} keywords x {GENERATIONS} generations: \
         {} allocation(s) per update; {moved:?}",
        moved.allocs / u64::from(UPDATES)
    );
    drop(stream);
    daemon.shutdown();
}

/// The durable twin of `index_updates_copy_one_list_per_keyword`: one
/// durable shard, and each update a `PutDocs` of one 256 B blob and an
/// `AppendGenerations` of two keywords, each acked after its fsync. Each
/// log record is framed once, from bytes the server already holds: the
/// document WAL frames the blob straight from the request, which the
/// server decoded in place, and the journal frames the shard record the
/// server cut, moved into the stage, behind its seq stamp. Server-thread
/// allocations per update read 46; 47 while the decode copied each blob
/// into a `Vec`, 48 while the flush also collected a shard list for every
/// queued record, and 50 while staging copied the record behind its stamp
/// and the store built each blob's record whole before framing it
/// (EXPERIMENTS.md E28, E29). The bound is the reading plus one.
fn durable_updates_frame_each_log_record_once() {
    const KEYWORDS: u32 = 256;
    const UPDATES: u32 = 256;
    const ALLOCS_PER_UPDATE: u64 = 47;
    let dir = std::env::temp_dir().join(format!("sse-invariants-frame-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let daemon = Daemon::spawn(ServerConfig {
        tenant_params: TenantParams {
            shards: 1,
            ..TenantParams::default()
        },
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = raw_connection(daemon.local_addr());
    let mut seq = 0u32;
    let mut send = |stream: &mut TcpStream, payload: &[u8]| {
        seq += 1;
        let request = proto::encode_request(KIND_DATA, seq, payload);
        stream.write_all(&encode_frame(&request)).unwrap();
        assert_eq!(read_status(stream), (STATUS_OK, seq));
    };
    // The server appends without decrypting: any bytes make a generation.
    let entry = |k: u32, g: u8| {
        let mut tag = [0x3C; 32];
        tag[..4].copy_from_slice(&(k % KEYWORDS).to_be_bytes());
        GenerationEntry {
            tag,
            sealed_ids: vec![g; 48],
            commitment: [g; 32],
        }
    };
    let mut update = |stream: &mut TcpStream, n: u32| {
        send(
            stream,
            &encode_put_docs(&[(u64::from(n), vec![n as u8; 256])]),
        );
        let entries = [entry(n * 37, n as u8), entry(n * 37 + 128, n as u8)];
        send(stream, &encode_append_generations(&entries));
    };
    // Every keyword holds a generation, and the connection's buffers and
    // the shard's tree are warm, before the measured updates.
    (0..KEYWORDS).for_each(|n| update(&mut stream, UPDATES + n));
    let moved = measured(&daemon, || {
        (0..UPDATES).for_each(|n| update(&mut stream, n));
    });
    assert!(
        moved.allocs <= ALLOCS_PER_UPDATE * u64::from(UPDATES),
        "{UPDATES} durable updates of one blob and two keywords: \
         {:.2} allocation(s) per update; {moved:?}",
        moved.allocs as f64 / f64::from(UPDATES)
    );
    drop(stream);
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The length of the one file named `name` under `dir`, at any depth.
fn file_len_under(dir: &std::path::Path, name: &str) -> u64 {
    let mut found = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(d).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                dirs.push(entry.path());
            } else if entry.file_name() == name {
                found.push(entry.metadata().unwrap().len());
            }
        }
    }
    assert_eq!(found.len(), 1, "one {name} under {}", dir.display());
    found[0]
}

/// A checkpoint writes each shard's index image through one fixed-size
/// chunk buffer instead of building the image whole (DESIGN.md §4m).
/// 4 096 keywords of 3 generations in one durable shard and no documents
/// make a 3.1 MB image; one checkpoint of it is measured. Server threads
/// request ≈ 140 KB for it (EXPERIMENTS.md E25); a checkpoint that builds
/// the image in one doubling buffer requests 8.7 MB, more than the image.
/// The bound is a quarter of the image.
fn a_checkpoint_streams_the_index_image() {
    const KEYWORDS: u32 = 4096;
    const GENERATIONS: u8 = 3;
    let dir = std::env::temp_dir().join(format!("sse-invariants-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let daemon = Daemon::spawn(ServerConfig {
        tenant_params: TenantParams {
            shards: 1,
            ..TenantParams::default()
        },
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = raw_connection(daemon.local_addr());
    let mut seq = 0u32;
    let mut send = |stream: &mut TcpStream, payload: &[u8]| {
        seq += 1;
        let request = proto::encode_request(KIND_DATA, seq, payload);
        stream.write_all(&encode_frame(&request)).unwrap();
        assert_eq!(read_status(stream), (STATUS_OK, seq));
    };
    // The server appends without decrypting: any bytes make a generation.
    for g in 0..GENERATIONS {
        let round: Vec<GenerationEntry> = (0..KEYWORDS)
            .map(|k| {
                let mut tag = [0x7E; 32];
                tag[..4].copy_from_slice(&k.to_be_bytes());
                GenerationEntry {
                    tag,
                    sealed_ids: vec![g; 200],
                    commitment: [g; 32],
                }
            })
            .collect();
        send(&mut stream, &encode_append_generations(&round));
    }
    let moved = measured(&daemon, || send(&mut stream, &encode_checkpoint()));
    let image = file_len_under(&dir, "scheme2.index");
    assert!(image >= 2 << 20, "a {image} B image");
    assert!(
        moved.bytes < image / 4,
        "one checkpoint of a {image} B index image: server threads requested {} B; {moved:?}",
        moved.bytes
    );
    drop(stream);
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A length prefix costs the server what arrives, not what it declares
/// (`StreamingDecoder`). A connection past its hello sends a prefix
/// declaring 32 MiB, under the daemon's 64 MiB frame limit, and 16 body
/// bytes; a round trip on a second connection then shows the reactor has
/// read them. A decoder that sizes the body from the prefix requests the
/// whole 32 MiB here.
fn a_forged_length_prefix_costs_what_arrives() {
    const DECLARED: u32 = 32 << 20;
    let daemon = Daemon::spawn(ServerConfig::default()).unwrap();
    let addr = daemon.local_addr();
    let mut forged = raw_connection(addr);
    let mut barrier = raw_connection(addr);
    let stats_request = encode_frame(&proto::encode_request(KIND_ADMIN, 1, &[ADMIN_STATS]));
    let moved = measured(&daemon, || {
        forged.write_all(&DECLARED.to_le_bytes()).unwrap();
        forged.write_all(&[0xAB; 16]).unwrap();
        barrier.write_all(&stats_request).unwrap();
        assert_eq!(read_status(&mut barrier), (STATUS_OK, 1));
    });
    assert!(
        moved.bytes < 1 << 20,
        "a {DECLARED} B prefix and 16 body bytes: server threads requested {} B; {moved:?}",
        moved.bytes
    );
    drop((forged, barrier));
    daemon.shutdown();
}

#[test]
fn serving_path_count_invariants() {
    warm_searches_allocate_little_share_writes_and_spawn_nothing();
    a_forged_length_prefix_costs_what_arrives();
    index_updates_copy_one_list_per_keyword();
    durable_updates_frame_each_log_record_once();
    concurrent_updaters_share_fsyncs();
    pipelined_updates_on_one_worker_share_fsyncs();
    a_checkpoint_streams_the_index_image();
}
