//! Deterministic fault-injection torture tests.
//!
//! Two fault surfaces, both on seeded schedules (`FAULT_SEED` env var
//! overrides the default so CI can sweep several schedules):
//!
//! * **Storage crashes** — a ~100-op trace per scheme is first run under a
//!   counting [`FaultVfs`] to enumerate every scheduled write point, then
//!   re-run once per write point with a hard crash (torn final write, all
//!   later I/O refused). After each crash the directory is reopened through
//!   the real filesystem and every keyword is probed: the observable state
//!   must equal the oracle after exactly `completed` or `completed + 1`
//!   ops — each op is atomically in or out, never half-applied.
//!
//! * **Network faults** — the same style of trace runs over a
//!   [`FaultyLink`] that drops, truncates (executed but response lost),
//!   duplicates, and delays whole rounds. Every op either returns the
//!   oracle answer or a clean error; a search may additionally see ops
//!   whose ack was lost (in-doubt), but never an id that was neither
//!   confirmed nor in-doubt — no silent wrong answers.
//!
//! Each surface runs twice per scheme: the classic single-shard trace,
//! and a batched trace (`store_batch` / `fake_update_many` — the client
//! paths behind the TCP `UPDATE_MANY` envelope) against a 4-shard server,
//! where multi-keyword mutations are journaled as cross-shard batch
//! slices and the prefix assertion demands op-atomicity across shards.
//!
//! Every storage sweep additionally runs once per storage backend
//! (`btree` and `lsm`) against the same oracle — the durability contract
//! is backend-independent. `FAULT_BACKEND=btree|lsm` narrows a run to one
//! backend so CI can matrix the suite.

use sse_repro::core::engine::DurableOptions;
use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_repro::core::scheme2::{Scheme2Client, Scheme2ClientState, Scheme2Config, Scheme2Server};
use sse_repro::core::types::{Document, Keyword, MasterKey, SearchHits};
use sse_repro::net::fault::{FaultyLink, NetFaultConfig};
use sse_repro::net::link::{MeteredLink, Transport};
use sse_repro::net::meter::Meter;
use sse_repro::storage::{BackendKind, FaultVfs, RealVfs};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

const KEYWORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
/// Scheme 1 document-id capacity (bit-array length per keyword).
const CAPACITY: u64 = 128;
/// Length of the torture trace.
const TRACE_OPS: usize = 100;

/// Seed for every schedule in this file. CI runs the suite under several
/// distinct `FAULT_SEED` values; locally it defaults to a fixed seed so
/// failures reproduce.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15A57E2)
}

/// Storage backends each crash sweep runs against. `FAULT_BACKEND` narrows
/// the list to one (CI matrixes the suite per backend); by default every
/// backend sweeps, so a plain `cargo test` exercises both.
fn fault_backends() -> Vec<BackendKind> {
    match std::env::var("FAULT_BACKEND") {
        Ok(s) => vec![s.parse().expect("FAULT_BACKEND must be btree or lsm")],
        Err(_) => BackendKind::all().to_vec(),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-fault-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

enum Op {
    Store(Document),
    /// Multi-document batched store, driven through the client's
    /// `store_batch` path. Its multi-keyword index mutation spans several
    /// shards on a sharded server, where it is journaled as batch slices —
    /// the crash sweep then checks op-atomicity *across* shards.
    StoreBatch(Vec<Document>),
    /// Batched fake updates (one shared counter value). Never changes any
    /// search result; only the fault behavior is interesting.
    FakeUpdateMany(Vec<Vec<Keyword>>),
    Search(Keyword),
}

fn doc_data(id: u64) -> Vec<u8> {
    format!("doc-{id}").into_bytes()
}

/// Seeded mixed trace: ~70% single-document stores (1–2 keywords from the
/// universe), ~30% searches. Ids are sequential so every doc fits the
/// scheme-1 capacity and data is reconstructible from the id alone.
fn build_trace(seed: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(TRACE_OPS);
    let mut next_id = 0u64;
    for i in 0..TRACE_OPS {
        let roll = splitmix64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        if roll % 10 < 3 && next_id > 0 {
            let kw = KEYWORDS[(roll >> 8) as usize % KEYWORDS.len()];
            ops.push(Op::Search(Keyword::new(kw)));
        } else {
            let id = next_id;
            next_id += 1;
            assert!(id < CAPACITY, "trace outgrew the scheme-1 capacity");
            let mut kws = BTreeSet::new();
            kws.insert(KEYWORDS[(roll >> 8) as usize % KEYWORDS.len()]);
            kws.insert(KEYWORDS[(roll >> 16) as usize % KEYWORDS.len()]);
            ops.push(Op::Store(Document::new(id, doc_data(id), kws)));
        }
    }
    ops
}

/// Length of the batched torture trace. Shorter than [`TRACE_OPS`]: the
/// sharded crash sweep reruns it once per scheduled write, and every
/// batch schedules several writes (one journal slice per touched shard).
const BATCH_TRACE_OPS: usize = 60;

/// Seeded batched trace: ~50% `StoreBatch` ops (1–2 documents with 2–3
/// keywords each, so index mutations routinely straddle shards), ~20%
/// `FakeUpdateMany`, ~30% searches.
fn build_batched_trace(seed: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(BATCH_TRACE_OPS);
    let mut next_id = 0u64;
    for i in 0..BATCH_TRACE_OPS {
        let roll = splitmix64(seed ^ (i as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        if roll % 10 < 3 && next_id > 0 {
            let kw = KEYWORDS[(roll >> 8) as usize % KEYWORDS.len()];
            ops.push(Op::Search(Keyword::new(kw)));
        } else if roll % 10 < 5 {
            let n_groups = (1 + (roll >> 8) % 2) as usize;
            let groups: Vec<Vec<Keyword>> = (0..n_groups)
                .map(|g| {
                    let n = (1 + (roll >> (16 + 8 * g)) % 2) as usize;
                    (0..n)
                        .map(|j| {
                            Keyword::new(
                                KEYWORDS[(roll >> (24 + 8 * g + j)) as usize % KEYWORDS.len()],
                            )
                        })
                        .collect()
                })
                .collect();
            ops.push(Op::FakeUpdateMany(groups));
        } else {
            let n_docs = 1 + (roll >> 4) % 2;
            let mut docs = Vec::new();
            for d in 0..n_docs as usize {
                let id = next_id;
                next_id += 1;
                assert!(id < CAPACITY, "trace outgrew the scheme-1 capacity");
                let mut kws = BTreeSet::new();
                for j in 0..3 {
                    kws.insert(KEYWORDS[(roll >> (8 + 8 * d + 4 * j)) as usize % KEYWORDS.len()]);
                }
                docs.push(Document::new(id, doc_data(id), kws));
            }
            ops.push(Op::StoreBatch(docs));
        }
    }
    ops
}

/// Keyword → set of matching doc ids: the observable state of an index.
type Index = BTreeMap<Keyword, BTreeSet<u64>>;

fn empty_index() -> Index {
    KEYWORDS
        .iter()
        .map(|k| (Keyword::new(*k), BTreeSet::new()))
        .collect()
}

/// `oracle[c]` = the true index after the first `c` ops of `trace`.
fn oracle_states(trace: &[Op]) -> Vec<Index> {
    let mut states = Vec::with_capacity(trace.len() + 1);
    let mut cur = empty_index();
    states.push(cur.clone());
    for op in trace {
        match op {
            Op::Store(doc) => {
                for kw in &doc.keywords {
                    cur.get_mut(kw).unwrap().insert(doc.id);
                }
            }
            Op::StoreBatch(docs) => {
                for doc in docs {
                    for kw in &doc.keywords {
                        cur.get_mut(kw).unwrap().insert(doc.id);
                    }
                }
            }
            Op::FakeUpdateMany(_) | Op::Search(_) => {}
        }
        states.push(cur.clone());
    }
    states
}

/// The keywords a mutation may touch, for in-doubt bookkeeping, paired
/// with the doc ids it may have landed (fake updates land nothing).
fn mutated_ids(op: &Op) -> Vec<(Keyword, u64)> {
    match op {
        Op::Store(doc) => doc.keywords.iter().map(|kw| (kw.clone(), doc.id)).collect(),
        Op::StoreBatch(docs) => docs
            .iter()
            .flat_map(|doc| doc.keywords.iter().map(|kw| (kw.clone(), doc.id)))
            .collect(),
        Op::FakeUpdateMany(_) | Op::Search(_) => Vec::new(),
    }
}

/// Collapse search hits to an id set, checking payload integrity on the
/// way: a durable (or faulty-network) server may omit documents, but it
/// must never return wrong bytes for an id it does return.
fn ids_checked(hits: &SearchHits) -> BTreeSet<u64> {
    for (id, data) in hits {
        assert_eq!(*data, doc_data(*id), "corrupt payload for doc {id}");
    }
    hits.iter().map(|(id, _)| *id).collect()
}

/// Probe every keyword through `search`, building the observable index.
fn observe(mut search: impl FnMut(&Keyword) -> SearchHits) -> Index {
    KEYWORDS
        .iter()
        .map(|k| {
            let kw = Keyword::new(*k);
            let ids = ids_checked(&search(&kw));
            (kw, ids)
        })
        .collect()
}

/// Assert the post-crash observable index matches the oracle after
/// `completed` ops, or after `completed + 1` (the crashed op's final
/// journal write may have survived intact even though the client saw an
/// error) — one consistent prefix, nothing in between.
fn assert_prefix(observed: &Index, oracle: &[Index], completed: usize, context: &str) {
    let lo = &oracle[completed];
    let hi = &oracle[(completed + 1).min(oracle.len() - 1)];
    assert!(
        observed == lo || observed == hi,
        "{context}: recovered state is not an op-atomic prefix \
         (completed {completed} ops)\nobserved: {observed:?}\nexpected: {lo:?}\n \
         or: {hi:?}"
    );
}

// ---------------------------------------------------------------------------
// Storage crash sweeps
// ---------------------------------------------------------------------------

/// Dispatch one trace op against a scheme-1 client.
fn drive_scheme1<T: sse_repro::net::link::Transport>(
    client: &mut Scheme1Client<T>,
    op: &Op,
) -> sse_repro::core::error::Result<()> {
    match op {
        Op::Store(doc) => client.store(std::slice::from_ref(doc)),
        Op::StoreBatch(docs) => client.store_batch(docs),
        // Scheme 1 has no counter to share across groups; the flattened
        // list re-randomizes the same entries (stateless, result-neutral).
        Op::FakeUpdateMany(groups) => client.fake_update(&groups.concat()),
        Op::Search(kw) => client.search(kw).map(|_| ()),
    }
}

/// Shared body of the scheme-1 crash sweeps. With `shards > 1` every
/// multi-keyword mutation is journaled as batch slices across several
/// independently fsynced shard journals, and [`assert_prefix`] then
/// demands op-atomicity *across* shards: a batch whose slices only partly
/// reached disk must roll back wholesale on recovery.
fn scheme1_crash_sweep(trace: &[Op], seed: u64, shards: usize, backend: BackendKind) {
    let oracle = oracle_states(trace);
    let config = Scheme1Config::fast_profile(CAPACITY);
    let key = MasterKey::from_seed(seed ^ 0x51);

    // Counting run: enumerate the workload's write points (the count
    // depends only on the op sequence, so it transfers to the crash runs).
    let count_dir = temp_dir("s1-count");
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    {
        let server = Scheme1Server::open_durable_with(
            CAPACITY,
            &count_dir,
            DurableOptions {
                vfs: Arc::new(counting),
                shards,
                backend,
            },
        )
        .unwrap();
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        for (i, op) in trace.iter().enumerate() {
            match op {
                Op::Search(kw) => {
                    // Fault-free runs must answer exactly.
                    let ids = ids_checked(&client.search(kw).unwrap());
                    assert_eq!(&ids, &oracle[i][kw], "fault-free search diverged at op {i}");
                }
                other => drive_scheme1(&mut client, other).unwrap(),
            }
        }
    }
    let write_points = stats.writes();
    let _ = std::fs::remove_dir_all(&count_dir);
    assert!(write_points > 0, "workload scheduled no writes");

    let mut recoveries = 0u64;
    for k in 1..=write_points {
        let dir = temp_dir("s1-crash");
        let vfs = FaultVfs::crashing_at(seed, k);
        // Drive until the crash kills the "process": the first error ends
        // the run, exactly like a real crash ends a real process.
        let completed = match Scheme1Server::open_durable_with(
            CAPACITY,
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards,
                backend,
            },
        ) {
            Err(_) => 0,
            Ok(server) => {
                let mut client = Scheme1Client::new_seeded(
                    MeteredLink::new(server, Meter::new()),
                    key.clone(),
                    config.clone(),
                    1,
                );
                let mut completed = 0usize;
                for op in trace {
                    if drive_scheme1(&mut client, op).is_err() {
                        break;
                    }
                    completed += 1;
                }
                completed
            }
        };

        // The crashed process is gone; recover through the real
        // filesystem, as a restart would. The shard manifest (not the
        // caller) dictates the shard count on reopen; the backend manifest
        // likewise pins the backend the restart must request.
        let server = Scheme1Server::open_durable_with(
            CAPACITY,
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards,
                backend,
            },
        )
        .unwrap();
        if server.recovery().recovered_anything() {
            recoveries += 1;
        }
        // If the crash hit the first open before the manifest's atomic
        // rename, the directory is still fresh and reopens single-shard;
        // any run that got past open must reopen at the manifest's count.
        assert!(
            completed == 0 || server.num_shards() == shards,
            "reopen must adopt the manifest's shard count (got {})",
            server.num_shards()
        );
        // Scheme 1 clients are stateless beyond the master key: a fresh
        // client (any rng seed) can search everything the dead one wrote.
        let mut probe = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            7,
        );
        let observed = observe(|kw| probe.search(kw).unwrap());
        assert_prefix(
            &observed,
            &oracle,
            completed,
            &format!("crash at write {k} ({shards} shard(s), {backend} backend)"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        recoveries > 0,
        "{write_points} crash points never exercised recovery ({backend} backend)"
    );
}

#[test]
fn scheme1_crash_at_every_write_point_is_op_atomic() {
    let seed = fault_seed();
    for backend in fault_backends() {
        scheme1_crash_sweep(&build_trace(seed), seed, 1, backend);
    }
}

#[test]
fn scheme1_sharded_batches_crash_op_atomically_across_shards() {
    let seed = fault_seed();
    for backend in fault_backends() {
        scheme1_crash_sweep(
            &build_batched_trace(seed ^ 0x4444),
            seed ^ 0x4444,
            4,
            backend,
        );
    }
}

/// Dispatch one trace op against a scheme-2 client. Every mutation
/// variant consumes exactly one counter value (`store_batch` and
/// `fake_update_many` share one across their parts by design), which the
/// crash sweep's write-ahead counter accounting relies on.
fn drive_scheme2<T: sse_repro::net::link::Transport>(
    client: &mut Scheme2Client<T>,
    op: &Op,
) -> sse_repro::core::error::Result<()> {
    match op {
        Op::Store(doc) => client.store(std::slice::from_ref(doc)),
        Op::StoreBatch(docs) => client.store_batch(docs),
        Op::FakeUpdateMany(groups) => client.fake_update_many(groups),
        Op::Search(kw) => client.search(kw).map(|_| ()),
    }
}

fn is_mutation(op: &Op) -> bool {
    matches!(op, Op::Store(_) | Op::StoreBatch(_) | Op::FakeUpdateMany(_))
}

/// Shared body of the scheme-2 crash sweeps (see [`scheme1_crash_sweep`]
/// for what `shards > 1` adds).
fn scheme2_crash_sweep(trace: &[Op], seed: u64, shards: usize, backend: BackendKind) {
    let oracle = oracle_states(trace);
    // CtrPolicy::Always (the base profile) makes the counter a pure
    // function of attempted updates, so crash recovery can restore it
    // without consulting the server.
    let config = Scheme2Config::base(512);
    let key = MasterKey::from_seed(seed ^ 0x52);

    let count_dir = temp_dir("s2-count");
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    {
        let server = Scheme2Server::open_durable_with(
            config.clone(),
            &count_dir,
            DurableOptions {
                vfs: Arc::new(counting),
                shards,
                backend,
            },
        )
        .unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        for (i, op) in trace.iter().enumerate() {
            match op {
                Op::Search(kw) => {
                    let ids = ids_checked(&client.search(kw).unwrap());
                    assert_eq!(&ids, &oracle[i][kw], "fault-free search diverged at op {i}");
                }
                other => drive_scheme2(&mut client, other).unwrap(),
            }
        }
    }
    let write_points = stats.writes();
    let _ = std::fs::remove_dir_all(&count_dir);
    assert!(write_points > 0, "workload scheduled no writes");

    let mut recoveries = 0u64;
    for k in 1..=write_points {
        let dir = temp_dir("s2-crash");
        let vfs = FaultVfs::crashing_at(seed, k);
        let (completed, attempted_updates) = match Scheme2Server::open_durable_with(
            config.clone(),
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards,
                backend,
            },
        ) {
            Err(_) => (0, 0),
            Ok(server) => {
                let mut client = Scheme2Client::new_seeded(
                    MeteredLink::new(server, Meter::new()),
                    key.clone(),
                    config.clone(),
                    1,
                );
                let mut completed = 0usize;
                let mut attempted = 0u64;
                for op in trace {
                    // Write-ahead: count the update before issuing it, so
                    // the restored counter is valid whether or not the
                    // crashed op's generations landed.
                    if is_mutation(op) {
                        attempted += 1;
                    }
                    if drive_scheme2(&mut client, op).is_err() {
                        break;
                    }
                    completed += 1;
                }
                (completed, attempted)
            }
        };

        let server = Scheme2Server::open_durable_with(
            config.clone(),
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards,
                backend,
            },
        )
        .unwrap();
        if server.recovery().recovered_anything() {
            recoveries += 1;
        }
        // If the crash hit the first open before the manifest's atomic
        // rename, the directory is still fresh and reopens single-shard;
        // any run that got past open must reopen at the manifest's count.
        assert!(
            completed == 0 || server.num_shards() == shards,
            "reopen must adopt the manifest's shard count (got {})",
            server.num_shards()
        );
        // Scheme 2 clients carry a counter; restore it at the attempted
        // count. If the crashed update never landed, the trapdoor is one
        // step ahead and the server's chain walk absorbs the gap.
        let mut probe = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            7,
        );
        probe.restore_state(Scheme2ClientState {
            ctr: attempted_updates,
            epoch: 0,
            searched_since_update: true,
        });
        let observed = observe(|kw| probe.search(kw).unwrap());
        assert_prefix(
            &observed,
            &oracle,
            completed,
            &format!("crash at write {k} ({shards} shard(s), {backend} backend)"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        recoveries > 0,
        "{write_points} crash points never exercised recovery ({backend} backend)"
    );
}

#[test]
fn scheme2_crash_at_every_write_point_is_op_atomic() {
    let seed = fault_seed();
    for backend in fault_backends() {
        scheme2_crash_sweep(&build_trace(seed ^ 0x2222), seed, 1, backend);
    }
}

#[test]
fn scheme2_sharded_batches_crash_op_atomically_across_shards() {
    let seed = fault_seed();
    for backend in fault_backends() {
        scheme2_crash_sweep(
            &build_batched_trace(seed ^ 0x6666),
            seed ^ 0x6666,
            4,
            backend,
        );
    }
}

// ---------------------------------------------------------------------------
// Multi-chunk checkpoint crash sweep
// ---------------------------------------------------------------------------

/// Bytes the index snapshot writer gathers before each write
/// (`SNAPSHOT_CHUNK` in `crates/core/src/engine.rs`).
const SNAPSHOT_CHUNK: u64 = 64 * 1024;
/// Documents each phase of the multi-chunk tenant stores in one update.
const PHASE_DOCS: u64 = 40;
/// Keywords every document of a phase carries; phase `p` takes keywords
/// `[p * PHASE_WINDOW / 2, p * PHASE_WINDOW / 2 + PHASE_WINDOW)`, so half
/// of them hold two generations after both phases.
const PHASE_WINDOW: usize = 400;

fn phase_keywords(phase: usize) -> std::ops::Range<usize> {
    let first = phase * PHASE_WINDOW / 2;
    first..first + PHASE_WINDOW
}

fn phase_ids(phase: usize) -> std::ops::Range<u64> {
    let first = phase as u64 * PHASE_DOCS;
    first..first + PHASE_DOCS
}

fn wide_keyword(j: usize) -> Keyword {
    Keyword::new(format!("kw{j:03}"))
}

fn phase_docs(phase: usize) -> Vec<Document> {
    phase_ids(phase)
        .map(|id| Document::new(id, doc_data(id), phase_keywords(phase).map(wide_keyword)))
        .collect()
}

/// A durable Scheme 2 btree tenant whose one index image spans several
/// snapshot chunks (40 ids sealed per generation, 600 keywords, about
/// 360 KiB): store phase 0, checkpoint, store phase 1, then crash at each
/// write point of the second checkpoint in turn — the document store's
/// rewrite, the placeholder header, every chunk, the tail, the header
/// back-patch and the journal reset. Both stores were acked before the
/// checkpoint began, so every reopen must serve both.
fn scheme2_multi_chunk_checkpoint_sweep(seed: u64) {
    let config = Scheme2Config::base(16);
    let key = MasterKey::from_seed(seed ^ 0xC4);
    let options = |vfs| DurableOptions {
        vfs,
        shards: 1,
        backend: BackendKind::Btree,
    };
    // Everything up to the checkpoint under test; its client, ready to
    // send that checkpoint.
    let prepare = |server: Scheme2Server| {
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        client.store(&phase_docs(0)).unwrap();
        client.request_checkpoint().unwrap();
        client.store(&phase_docs(1)).unwrap();
        client
    };

    let count_dir = temp_dir("s2-chunks-count");
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    let (first, last) = {
        let server = Scheme2Server::open_durable_with(
            config.clone(),
            &count_dir,
            options(Arc::new(counting)),
        )
        .unwrap();
        let mut client = prepare(server);
        let first = stats.writes() + 1;
        client.request_checkpoint().unwrap();
        (first, stats.writes())
    };
    let image = std::fs::metadata(count_dir.join("scheme2.index"))
        .unwrap()
        .len();
    let _ = std::fs::remove_dir_all(&count_dir);
    assert!(
        image >= 4 * SNAPSHOT_CHUNK,
        "the image spans fewer than 4 chunks: {image} B"
    );

    let probes: BTreeSet<usize> = (0..phase_keywords(1).end)
        .step_by(37)
        .chain([199, 200, 399, 400, 599])
        .collect();
    let mut mid_body = 0;
    for k in first..=last {
        let dir = temp_dir("s2-chunks-crash");
        let server = Scheme2Server::open_durable_with(
            config.clone(),
            &dir,
            options(Arc::new(FaultVfs::crashing_at(seed, k))),
        )
        .unwrap();
        let mut client = prepare(server);
        assert!(
            client.request_checkpoint().is_err(),
            "the checkpoint survived a crash at write {k}"
        );
        drop(client);
        // A crash after at least one chunk, before the back-patch: the
        // temporary file still holds the zero placeholder header.
        if let Ok(tmp) = std::fs::read(dir.join("scheme2.index.tmp")) {
            if tmp.len() as u64 > 12 + SNAPSHOT_CHUNK && tmp[..12] == [0; 12] {
                mid_body += 1;
            }
        }

        let server =
            Scheme2Server::open_durable_with(config.clone(), &dir, options(RealVfs::arc()))
                .unwrap();
        let mut probe = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            7,
        );
        probe.restore_state(Scheme2ClientState {
            ctr: 2,
            epoch: 0,
            searched_since_update: true,
        });
        for &j in &probes {
            let want: BTreeSet<u64> = (0..2)
                .filter(|&p| phase_keywords(p).contains(&j))
                .flat_map(phase_ids)
                .collect();
            let got = ids_checked(&probe.search(&wide_keyword(j)).unwrap());
            assert_eq!(
                got, want,
                "crash at write {k} of {first}..={last}: keyword {j}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        mid_body >= 3,
        "only {mid_body} crash(es) in {first}..={last} landed between two chunks"
    );
}

#[test]
fn scheme2_checkpoint_crash_between_chunks_keeps_every_acked_update() {
    // The chunked writer is the btree backend's; lsm flushes its keyword
    // map instead.
    if fault_backends().contains(&BackendKind::Btree) {
        scheme2_multi_chunk_checkpoint_sweep(fault_seed());
    }
}

// ---------------------------------------------------------------------------
// Network fault traces
// ---------------------------------------------------------------------------

fn torture_net_config(seed: u64) -> NetFaultConfig {
    NetFaultConfig {
        seed,
        drop_per_mille: 60,
        truncate_per_mille: 60,
        duplicate_per_mille: 40,
        delay_per_mille: 40,
        delay_micros: 50,
        forced: Vec::new(),
    }
}

/// Check one successful search against the confirmed/in-doubt ledgers:
/// everything acknowledged must be present, and nothing outside
/// `confirmed ∪ in-doubt` may ever appear.
fn assert_no_silent_lies(kw: &Keyword, ids: &BTreeSet<u64>, confirmed: &Index, indoubt: &Index) {
    let c = &confirmed[kw];
    let d = &indoubt[kw];
    assert!(
        c.is_subset(ids),
        "search {kw} lost acknowledged docs: expected ⊇ {c:?}, got {ids:?}"
    );
    for id in ids {
        assert!(
            c.contains(id) || d.contains(id),
            "search {kw} fabricated doc {id} (confirmed {c:?}, in-doubt {d:?})"
        );
    }
}

/// Shared body of the scheme-1 network-fault sweeps.
fn scheme1_network_sweep(trace: &[Op], seed: u64, shards: usize) {
    let config = Scheme1Config::fast_profile(CAPACITY);
    let key = MasterKey::from_seed(seed ^ 0x61);

    let server = Scheme1Server::new_in_memory_sharded(CAPACITY, shards);
    let link = FaultyLink::new(
        MeteredLink::new(server, Meter::new()),
        torture_net_config(seed),
    );
    let stats = link.stats();
    let mut client = Scheme1Client::new_seeded(link, key, config, 3);

    let mut confirmed = empty_index();
    let mut indoubt = empty_index();
    let (mut ok_ops, mut failed_ops) = (0u64, 0u64);
    for op in trace {
        if let Op::Search(kw) = op {
            match client.search(kw) {
                Ok(hits) => {
                    ok_ops += 1;
                    assert_no_silent_lies(kw, &ids_checked(&hits), &confirmed, &indoubt);
                }
                Err(_) => failed_ops += 1,
            }
        } else {
            match drive_scheme1(&mut client, op) {
                Ok(()) => {
                    ok_ops += 1;
                    for (kw, id) in mutated_ids(op) {
                        confirmed.get_mut(&kw).unwrap().insert(id);
                    }
                }
                Err(_) => {
                    // Clean failure; the op may or may not have landed
                    // (a lost response after execution). Track it as
                    // in-doubt — it may legitimately show up later.
                    failed_ops += 1;
                    for (kw, id) in mutated_ids(op) {
                        indoubt.get_mut(&kw).unwrap().insert(id);
                    }
                }
            }
        }
    }
    assert!(stats.injected() > 0, "schedule injected nothing — vacuous");
    assert!(failed_ops > 0, "no op ever failed — schedule too quiet");
    assert!(
        ok_ops > trace.len() as u64 / 2,
        "too few ops survived ({ok_ops} ok / {failed_ops} failed)"
    );
}

#[test]
fn scheme1_network_faults_fail_clean_or_answer_truthfully() {
    let seed = fault_seed();
    scheme1_network_sweep(&build_trace(seed ^ 0x1111), seed, 1);
}

#[test]
fn scheme1_batched_network_faults_over_sharded_server() {
    let seed = fault_seed();
    scheme1_network_sweep(&build_batched_trace(seed ^ 0x5555), seed ^ 0x5555, 4);
}

/// Shared body of the scheme-2 network-fault sweeps.
fn scheme2_network_sweep(trace: &[Op], seed: u64, shards: usize) {
    let config = Scheme2Config::base(512);
    let key = MasterKey::from_seed(seed ^ 0x62);

    let server = Scheme2Server::new_in_memory_sharded(config.clone(), shards);
    let link = FaultyLink::new(
        MeteredLink::new(server, Meter::new()),
        torture_net_config(seed ^ 0x9999),
    );
    let stats = link.stats();
    let mut client = Scheme2Client::new_seeded(link, key, config, 3);

    let mut confirmed = empty_index();
    let mut indoubt = empty_index();
    let (mut ok_ops, mut failed_ops) = (0u64, 0u64);
    for op in trace {
        if let Op::Search(kw) = op {
            match client.search(kw) {
                Ok(hits) => {
                    ok_ops += 1;
                    assert_no_silent_lies(kw, &ids_checked(&hits), &confirmed, &indoubt);
                }
                Err(_) => failed_ops += 1,
            }
        } else {
            match drive_scheme2(&mut client, op) {
                Ok(()) => {
                    ok_ops += 1;
                    for (kw, id) in mutated_ids(op) {
                        confirmed.get_mut(&kw).unwrap().insert(id);
                    }
                }
                Err(_) => {
                    failed_ops += 1;
                    for (kw, id) in mutated_ids(op) {
                        indoubt.get_mut(&kw).unwrap().insert(id);
                    }
                    // Write-ahead resync: advance the counter as if the
                    // lost update landed (every mutation variant consumes
                    // exactly one counter value). If it didn't land, the
                    // trapdoor is ahead and the server's chain walk
                    // unlocks the older generations anyway.
                    let mut st = client.state();
                    st.ctr += 1;
                    st.searched_since_update = true;
                    client.restore_state(st);
                }
            }
        }
    }
    assert!(stats.injected() > 0, "schedule injected nothing — vacuous");
    assert!(failed_ops > 0, "no op ever failed — schedule too quiet");
    assert!(
        ok_ops > trace.len() as u64 / 2,
        "too few ops survived ({ok_ops} ok / {failed_ops} failed)"
    );
}

// ---------------------------------------------------------------------------
// Mid-group crash sweeps (group commit)
// ---------------------------------------------------------------------------

/// In-process transport sharing one server among several client threads —
/// the shape a single-owner [`MeteredLink`] cannot express. This is what
/// makes flush *groups* form: concurrent mutations stage into the same
/// shard journal and one committer fsyncs for all of them.
struct SharedLink<S>(Arc<S>);

impl Transport for SharedLink<Scheme2Server> {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(self.0.handle_shared(request))
    }
}

impl Transport for SharedLink<Scheme1Server> {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(self.0.handle_shared(request))
    }
}

/// Concurrent writers in the mid-group sweeps.
const GROUP_WRITERS: usize = 3;
/// Stores attempted per writer before giving up.
const GROUP_OPS: usize = 10;
/// Sync points swept per crash mode. Covers the open-time syncs plus a
/// band of mid-workload syncs where several writers' records share one
/// flush group; points past the workload's total sync count simply run
/// crash-free (the contract assertions still apply).
const GROUP_SYNC_POINTS: u64 = 20;

/// One writer's trace: sequential doc ids in a private range, 1–2
/// keywords each, all derived from the seed.
fn writer_trace(seed: u64, writer: usize) -> Vec<Document> {
    (0..GROUP_OPS)
        .map(|i| {
            let roll = splitmix64(seed ^ ((writer as u64) << 24) ^ (i as u64));
            let id = (writer * GROUP_OPS + i) as u64;
            let mut kws = BTreeSet::new();
            kws.insert(KEYWORDS[(roll >> 8) as usize % KEYWORDS.len()]);
            kws.insert(KEYWORDS[(roll >> 16) as usize % KEYWORDS.len()]);
            Document::new(id, doc_data(id), kws)
        })
        .collect()
}

/// Check one recovered index against a writer's ledger:
///
/// * every **acked** store is fully present (ack came strictly after the
///   group fsync, so a crash later in the group must not lose it);
/// * the at-most-one **in-doubt** store (errored mid-crash; its journal
///   record may have reached disk before the failed fsync) is all-in or
///   all-out, never half a document;
/// * nothing else ever appears.
fn assert_acked_prefix(observed: &Index, trace: &[Document], acked: usize, context: &str) {
    for doc in &trace[..acked] {
        for kw in &doc.keywords {
            assert!(
                observed[kw].contains(&doc.id),
                "{context}: acked doc {} lost under {kw}",
                doc.id
            );
        }
    }
    if acked < trace.len() {
        let doc = &trace[acked];
        let present = doc
            .keywords
            .iter()
            .filter(|kw| observed[kw].contains(&doc.id))
            .count();
        assert!(
            present == 0 || present == doc.keywords.len(),
            "{context}: in-doubt doc {} recovered under {present} of {} keywords",
            doc.id,
            doc.keywords.len()
        );
    }
    let mut allowed = empty_index();
    for doc in &trace[..(acked + 1).min(trace.len())] {
        for kw in &doc.keywords {
            allowed.get_mut(kw).unwrap().insert(doc.id);
        }
    }
    for (kw, ids) in observed {
        assert!(
            ids.is_subset(&allowed[kw]),
            "{context}: fabricated ids under {kw}: {ids:?} ⊄ {:?}",
            allowed[kw]
        );
    }
}

/// Build the crashing VFS for one sweep point: `at_sync` crashes *before*
/// sync `n` runs (group written, never durable, never acked), the other
/// mode just *after* it completes (group durable, acks racing the crash).
fn group_crash_vfs(at_sync: bool, seed: u64, n: u64) -> FaultVfs {
    if at_sync {
        FaultVfs::crashing_at_sync(seed, n)
    } else {
        FaultVfs::crashing_after_sync(seed, n)
    }
}

/// Scheme-2 mid-group crash sweep: [`GROUP_WRITERS`] concurrent clients
/// store through one durable single-shard server (one shard journal ⇒
/// maximal grouping) while a crash is scheduled at or just after sync
/// point `n`; after recovery through the real filesystem, every writer's
/// ledger must hold the acked-prefix contract.
fn scheme2_mid_group_crash_sweep(at_sync: bool, seed: u64, backend: BackendKind) {
    let config = Scheme2Config::base(512);
    let traces: Vec<Vec<Document>> = (0..GROUP_WRITERS).map(|w| writer_trace(seed, w)).collect();

    let (mut crashed_runs, mut recoveries) = (0u64, 0u64);
    for n in 1..=GROUP_SYNC_POINTS {
        let dir = temp_dir("s2-group-crash");
        let vfs = group_crash_vfs(at_sync, seed ^ n, n);
        // acked[w] = stores writer w saw succeed (always a prefix: the
        // first error ends the writer, like a crash ends a process).
        let acked: Vec<usize> = match Scheme2Server::open_durable_with(
            config.clone(),
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards: 1,
                backend,
            },
        ) {
            Err(_) => vec![0; GROUP_WRITERS],
            Ok(server) => {
                let server = Arc::new(server);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..GROUP_WRITERS)
                        .map(|w| {
                            let server = server.clone();
                            let trace = &traces[w];
                            scope.spawn(move || {
                                let mut client = Scheme2Client::new_seeded(
                                    SharedLink(server),
                                    MasterKey::from_seed(seed ^ 0x52 ^ (w as u64)),
                                    Scheme2Config::base(512),
                                    w as u64,
                                );
                                let mut ok = 0usize;
                                for doc in trace {
                                    if client.store(std::slice::from_ref(doc)).is_err() {
                                        break;
                                    }
                                    ok += 1;
                                }
                                ok
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            }
        };
        if acked.iter().sum::<usize>() < GROUP_WRITERS * GROUP_OPS {
            crashed_runs += 1;
        }

        // The crashed process is gone; recover through the real filesystem.
        let server = Arc::new(
            Scheme2Server::open_durable_with(
                config.clone(),
                &dir,
                DurableOptions {
                    vfs: RealVfs::arc(),
                    shards: 1,
                    backend,
                },
            )
            .unwrap(),
        );
        if server.recovery().recovered_anything() {
            recoveries += 1;
        }
        for (w, trace) in traces.iter().enumerate() {
            let mut probe = Scheme2Client::new_seeded(
                SharedLink(server.clone()),
                MasterKey::from_seed(seed ^ 0x52 ^ (w as u64)),
                config.clone(),
                7,
            );
            // Write-ahead counter restore: the in-doubt store consumed a
            // counter value whether or not it landed.
            probe.restore_state(Scheme2ClientState {
                ctr: ((acked[w] + 1).min(trace.len())) as u64,
                epoch: 0,
                searched_since_update: true,
            });
            let observed = observe(|kw| probe.search(kw).unwrap());
            let mode = if at_sync { "at" } else { "after" };
            assert_acked_prefix(
                &observed,
                trace,
                acked[w],
                &format!("crash {mode} sync {n}, writer {w}, {backend} backend"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        crashed_runs > 0,
        "no sweep point crashed mid-workload — raise GROUP_SYNC_POINTS"
    );
    assert!(
        recoveries > 0,
        "{GROUP_SYNC_POINTS} crash points never exercised recovery ({backend} backend)"
    );
}

#[test]
fn scheme2_mid_group_crash_between_write_and_fsync_keeps_acked_prefix() {
    for backend in fault_backends() {
        scheme2_mid_group_crash_sweep(true, fault_seed() ^ 0x8888, backend);
    }
}

#[test]
fn scheme2_mid_group_crash_between_fsync_and_ack_keeps_acked_prefix() {
    for backend in fault_backends() {
        scheme2_mid_group_crash_sweep(false, fault_seed() ^ 0x9999, backend);
    }
}

/// Scheme-1 variant of the mid-group sweep: same concurrent-writer shape
/// over the bit-matrix scheme (both schemes share the commit pipeline, so
/// a regression in either integration shows up here).
fn scheme1_mid_group_crash_sweep(at_sync: bool, seed: u64, backend: BackendKind) {
    let config = Scheme1Config::fast_profile(CAPACITY);
    let traces: Vec<Vec<Document>> = (0..GROUP_WRITERS).map(|w| writer_trace(seed, w)).collect();

    let (mut crashed_runs, mut recoveries) = (0u64, 0u64);
    for n in 1..=GROUP_SYNC_POINTS {
        let dir = temp_dir("s1-group-crash");
        let vfs = group_crash_vfs(at_sync, seed ^ n, n);
        let acked: Vec<usize> = match Scheme1Server::open_durable_with(
            CAPACITY,
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards: 1,
                backend,
            },
        ) {
            Err(_) => vec![0; GROUP_WRITERS],
            Ok(server) => {
                let server = Arc::new(server);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..GROUP_WRITERS)
                        .map(|w| {
                            let server = server.clone();
                            let trace = &traces[w];
                            let config = config.clone();
                            scope.spawn(move || {
                                let mut client = Scheme1Client::new_seeded(
                                    SharedLink(server),
                                    MasterKey::from_seed(seed ^ 0x51 ^ (w as u64)),
                                    config,
                                    w as u64,
                                );
                                let mut ok = 0usize;
                                for doc in trace {
                                    if client.store(std::slice::from_ref(doc)).is_err() {
                                        break;
                                    }
                                    ok += 1;
                                }
                                ok
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            }
        };
        if acked.iter().sum::<usize>() < GROUP_WRITERS * GROUP_OPS {
            crashed_runs += 1;
        }

        let server = Arc::new(
            Scheme1Server::open_durable_with(
                CAPACITY,
                &dir,
                DurableOptions {
                    vfs: RealVfs::arc(),
                    shards: 1,
                    backend,
                },
            )
            .unwrap(),
        );
        if server.recovery().recovered_anything() {
            recoveries += 1;
        }
        for (w, trace) in traces.iter().enumerate() {
            let mut probe = Scheme1Client::new_seeded(
                SharedLink(server.clone()),
                MasterKey::from_seed(seed ^ 0x51 ^ (w as u64)),
                config.clone(),
                7,
            );
            let observed = observe(|kw| probe.search(kw).unwrap());
            let mode = if at_sync { "at" } else { "after" };
            assert_acked_prefix(
                &observed,
                trace,
                acked[w],
                &format!("crash {mode} sync {n}, writer {w}, {backend} backend"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        crashed_runs > 0,
        "no sweep point crashed mid-workload — raise GROUP_SYNC_POINTS"
    );
    assert!(
        recoveries > 0,
        "{GROUP_SYNC_POINTS} crash points never exercised recovery ({backend} backend)"
    );
}

#[test]
fn scheme1_mid_group_crash_between_write_and_fsync_keeps_acked_prefix() {
    for backend in fault_backends() {
        scheme1_mid_group_crash_sweep(true, fault_seed() ^ 0xAAAA, backend);
    }
}

#[test]
fn scheme1_mid_group_crash_between_fsync_and_ack_keeps_acked_prefix() {
    for backend in fault_backends() {
        scheme1_mid_group_crash_sweep(false, fault_seed() ^ 0xBBBB, backend);
    }
}

// ---------------------------------------------------------------------------
// Search-memo durability (there must be none)
// ---------------------------------------------------------------------------

/// The server-side search memo must be purely in-memory: it must not
/// change what reaches disk, it must not survive a crash, and recovery
/// must rebuild it from scratch off the recovered index.
///
/// Three assertions:
/// 1. an identical fault-free run schedules exactly the same writes with
///    the memo on and off (the memo never touches storage);
/// 2. immediately after crash recovery the memo counters are zero (no
///    memo state came back from disk);
/// 3. post-recovery probes first walk cold (misses) and then memo-serve
///    (hits), while still answering the op-atomic oracle prefix.
#[test]
fn scheme2_search_memo_is_purely_in_memory_across_crashes() {
    let seed = fault_seed() ^ 0xCAC4ED;
    let trace = build_trace(seed);
    let oracle = oracle_states(&trace);
    let cached = Scheme2Config::base(512).with_server_cache(true);
    let key = MasterKey::from_seed(seed ^ 0x52);

    // Fault-free counting runs, memo off vs on. Searches go out twice so
    // the cached run actually exercises memo hits.
    let mut writes = Vec::new();
    for config in [Scheme2Config::base(512), cached.clone()] {
        let dir = temp_dir("s2-memo-count");
        let counting = FaultVfs::counting();
        let stats = counting.stats();
        {
            let server = Arc::new(
                Scheme2Server::open_durable_with(
                    config.clone(),
                    &dir,
                    DurableOptions {
                        vfs: Arc::new(counting),
                        shards: 1,
                        ..DurableOptions::default()
                    },
                )
                .unwrap(),
            );
            let mut client = Scheme2Client::new_seeded(
                SharedLink(server.clone()),
                key.clone(),
                config.clone(),
                1,
            );
            for op in &trace {
                if let Op::Search(kw) = op {
                    let first = ids_checked(&client.search(kw).unwrap());
                    let second = ids_checked(&client.search(kw).unwrap());
                    assert_eq!(first, second, "repeat search diverged fault-free");
                } else {
                    drive_scheme2(&mut client, op).unwrap();
                }
            }
            if config.server_cache {
                assert!(
                    server.stats().cache_hits > 0,
                    "cached counting run never hit the memo — sweep is vacuous"
                );
            }
        }
        writes.push(stats.writes());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        writes[0], writes[1],
        "enabling the search memo changed the write schedule — it must never touch storage"
    );
    let write_points = writes[1];
    assert!(write_points > 0, "workload scheduled no writes");

    // Crash at a few points spread across the schedule (the exhaustive
    // per-point sweeps above already pin down op-atomicity; this sweep is
    // about what the memo does and does not survive).
    let mut recoveries = 0u64;
    let mut points: Vec<u64> = (1..=4).map(|q| (write_points * q / 4).max(1)).collect();
    points.dedup();
    for k in points {
        let dir = temp_dir("s2-memo-crash");
        let vfs = FaultVfs::crashing_at(seed, k);
        let (completed, attempted_updates) = match Scheme2Server::open_durable_with(
            cached.clone(),
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards: 1,
                ..DurableOptions::default()
            },
        ) {
            Err(_) => (0, 0),
            Ok(server) => {
                let mut client = Scheme2Client::new_seeded(
                    MeteredLink::new(server, Meter::new()),
                    key.clone(),
                    cached.clone(),
                    1,
                );
                let mut completed = 0usize;
                let mut attempted = 0u64;
                for op in trace.iter() {
                    if is_mutation(op) {
                        attempted += 1;
                    }
                    if drive_scheme2(&mut client, op).is_err() {
                        break;
                    }
                    completed += 1;
                }
                (completed, attempted)
            }
        };

        let server = Arc::new(Scheme2Server::open_durable(cached.clone(), &dir).unwrap());
        if server.recovery().recovered_anything() {
            recoveries += 1;
        }
        let fresh = server.stats();
        assert_eq!(
            (fresh.cache_hits, fresh.cache_misses),
            (0, 0),
            "crash at write {k}: memo state survived recovery — the cache must be in-memory only"
        );
        let mut probe =
            Scheme2Client::new_seeded(SharedLink(server.clone()), key.clone(), cached.clone(), 7);
        probe.restore_state(Scheme2ClientState {
            ctr: attempted_updates,
            epoch: 0,
            searched_since_update: true,
        });
        let observed = observe(|kw| probe.search(kw).unwrap());
        let warmed = observe(|kw| probe.search(kw).unwrap());
        assert_eq!(
            observed, warmed,
            "crash at write {k}: memo-served repeat probes diverged from the cold probes"
        );
        assert_prefix(
            &observed,
            &oracle,
            completed,
            &format!("memo crash sweep at write {k}"),
        );
        let stats = server.stats();
        assert!(
            stats.cache_misses > 0,
            "crash at write {k}: first post-recovery probes never walked cold"
        );
        assert!(
            stats.cache_hits > 0,
            "crash at write {k}: repeat probes never memo-served — recovery must rebuild the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(recoveries > 0, "no crash point exercised recovery");
}

#[test]
fn scheme2_network_faults_fail_clean_or_answer_truthfully() {
    let seed = fault_seed();
    scheme2_network_sweep(&build_trace(seed ^ 0x3333), seed, 1);
}

#[test]
fn scheme2_batched_network_faults_over_sharded_server() {
    let seed = fault_seed();
    scheme2_network_sweep(&build_batched_trace(seed ^ 0x7777), seed ^ 0x7777, 4);
}
