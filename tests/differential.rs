//! Differential testing: seeded random operation traces replayed against
//! three implementations that must agree on every search result —
//!
//! 1. the naive download-everything baseline (`sse_baselines::naive`), an
//!    oracle with no index at all,
//! 2. the real scheme over a single-shard in-memory server, and
//! 3. the same scheme over sharded servers (shard counts 4 and 16).
//!
//! A trace mixes adds, removes, leakage-hiding fake updates and searches.
//! Every search's hit list is compared oracle-vs-scheme and
//! shard-count-vs-shard-count, for both schemes, under three distinct
//! seeds. Any divergence in sharding (wrong shard routing, a mutation
//! applied to one shard twice, a search that misses a shard) surfaces as a
//! result mismatch here.

use sse_baselines::naive::NaiveClient;
use sse_core::engine::DurableOptions;
use sse_core::scheme::SseClientApi;
use sse_core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_core::scheme2::{Scheme2Client, Scheme2ClientState, Scheme2Config, Scheme2Server};
use sse_core::types::{Document, Keyword, MasterKey, SearchHits};
use sse_net::link::MeteredLink;
use sse_net::meter::Meter;
use sse_storage::{BackendKind, RealVfs};
use std::path::PathBuf;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const SEEDS: [u64; 3] = [11, 271_828, 3_141_592];
const CAPACITY: u64 = 256;

/// Deterministic trace generator (splitmix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
}

/// One step of a trace. Documents are identified by their position in the
/// add-order so every backend sees byte-identical documents.
#[derive(Clone, Debug)]
enum Op {
    Add(Document),
    /// Remove a previously added (and still live) document.
    Remove(Document),
    /// Leakage-hiding fake update: must not change any result.
    FakeUpdate(Vec<Keyword>),
    /// Epoch swap (§5.6): re-initialize under fresh chains from the live
    /// document set. Must not change any result — and must invalidate any
    /// server-side search memo keyed to the old epoch's trapdoors.
    Reinit(Vec<Document>),
    Search(Keyword),
}

fn keyword(i: usize) -> Keyword {
    Keyword::new(format!("diff-kw-{i}"))
}

/// Generate a seeded trace of `len` operations over a small keyword
/// universe. Removes only target live documents; ids are never reused
/// (Scheme 1's XOR semantics would otherwise toggle a dead id back in).
fn trace(seed: u64, len: usize, universe: usize) -> Vec<Op> {
    trace_with_epochs(seed, len, universe, false)
}

/// Like [`trace`], optionally inserting two [`Op::Reinit`] epoch swaps
/// (at one third and two thirds of the trace) carrying the then-live
/// document set.
fn trace_with_epochs(seed: u64, len: usize, universe: usize, epoch_swaps: bool) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    let mut next_id = 0u64;
    let mut live: Vec<Document> = Vec::new();
    let mut ops = Vec::with_capacity(len);
    for i in 0..len {
        if epoch_swaps && (i == len / 3 || i == 2 * len / 3) {
            ops.push(Op::Reinit(live.clone()));
        }
        let roll = rng.below(10);
        if roll < 4 || live.is_empty() {
            // Add a fresh document with 1–3 keywords.
            let n_kws = 1 + rng.below(3);
            let mut kws = Vec::with_capacity(n_kws);
            for _ in 0..n_kws {
                kws.push(keyword(rng.below(universe)));
            }
            kws.sort();
            kws.dedup();
            let id = next_id;
            next_id += 1;
            let doc = Document::new(
                id,
                format!("diff-doc-{id}").into_bytes(),
                kws.iter().map(Keyword::as_str),
            );
            live.push(doc.clone());
            ops.push(Op::Add(doc));
        } else if roll < 6 {
            let victim = live.swap_remove(rng.below(live.len()));
            ops.push(Op::Remove(victim));
        } else if roll < 7 {
            let n = 1 + rng.below(3);
            let kws: Vec<Keyword> = (0..n).map(|_| keyword(rng.below(universe))).collect();
            ops.push(Op::FakeUpdate(kws));
        } else {
            ops.push(Op::Search(keyword(rng.below(universe))));
        }
    }
    // Always end with a full sweep of the keyword universe.
    for i in 0..universe {
        ops.push(Op::Search(keyword(i)));
    }
    ops
}

/// Uniform driving surface over the three backends.
trait Backend {
    fn add(&mut self, doc: &Document);
    fn remove(&mut self, doc: &Document);
    fn fake_update(&mut self, kws: &[Keyword]);
    /// Epoch swap. No-op where the concept doesn't exist (the oracle has
    /// no index; Scheme 1's bit matrix has no chains to exhaust).
    fn reinit(&mut self, docs: &[Document]);
    fn search(&mut self, kw: &Keyword) -> SearchHits;
}

struct Oracle(NaiveClient);

impl Backend for Oracle {
    fn add(&mut self, doc: &Document) {
        self.0.add_documents(std::slice::from_ref(doc)).unwrap();
    }
    fn remove(&mut self, doc: &Document) {
        self.0.remove(&[doc.id]);
    }
    fn fake_update(&mut self, _kws: &[Keyword]) {
        // The oracle has no index to re-randomize.
    }
    fn reinit(&mut self, _docs: &[Document]) {}
    fn search(&mut self, kw: &Keyword) -> SearchHits {
        self.0.search(kw).unwrap()
    }
}

struct S1(Scheme1Client<MeteredLink<Scheme1Server>>);

impl Backend for S1 {
    fn add(&mut self, doc: &Document) {
        self.0.store(std::slice::from_ref(doc)).unwrap();
    }
    fn remove(&mut self, doc: &Document) {
        // Scheme 1 removal is XOR re-toggling the same document.
        self.0.store(std::slice::from_ref(doc)).unwrap();
    }
    fn fake_update(&mut self, kws: &[Keyword]) {
        self.0.fake_update(kws).unwrap();
    }
    fn reinit(&mut self, _docs: &[Document]) {
        // Scheme 1 has no chain epochs to swap.
    }
    fn search(&mut self, kw: &Keyword) -> SearchHits {
        self.0.search(kw).unwrap()
    }
}

struct S2(Scheme2Client<MeteredLink<Scheme2Server>>);

impl Backend for S2 {
    fn add(&mut self, doc: &Document) {
        self.0.store(std::slice::from_ref(doc)).unwrap();
    }
    fn remove(&mut self, doc: &Document) {
        self.0.remove(std::slice::from_ref(doc)).unwrap();
    }
    fn fake_update(&mut self, kws: &[Keyword]) {
        self.0.fake_update(kws).unwrap();
    }
    fn reinit(&mut self, docs: &[Document]) {
        self.0.reinitialize(docs).unwrap();
    }
    fn search(&mut self, kw: &Keyword) -> SearchHits {
        self.0.search(kw).unwrap()
    }
}

fn scheme1_backend(seed: u64, shards: usize) -> S1 {
    let server = Scheme1Server::new_in_memory_sharded(CAPACITY, shards);
    let link = MeteredLink::new(server, Meter::new());
    S1(Scheme1Client::new_seeded(
        link,
        MasterKey::from_seed(seed),
        Scheme1Config::fast_profile(CAPACITY),
        seed ^ 0xD1FF,
    ))
}

fn scheme2_backend(seed: u64, shards: usize) -> S2 {
    let config = Scheme2Config::standard();
    let server = Scheme2Server::new_in_memory_sharded(config.clone(), shards);
    let link = MeteredLink::new(server, Meter::new());
    S2(Scheme2Client::new_seeded(
        link,
        MasterKey::from_seed(seed),
        config,
        seed ^ 0xD1FF,
    ))
}

/// Replay a trace, collecting every search's hits sorted by doc id
/// (backends may order hits differently; the *set* must agree).
fn replay(backend: &mut dyn Backend, ops: &[Op]) -> Vec<SearchHits> {
    let mut results = Vec::new();
    for op in ops {
        match op {
            Op::Add(doc) => backend.add(doc),
            Op::Remove(doc) => backend.remove(doc),
            Op::FakeUpdate(kws) => backend.fake_update(kws),
            Op::Reinit(docs) => backend.reinit(docs),
            Op::Search(kw) => {
                let mut hits = backend.search(kw);
                hits.sort();
                results.push(hits);
            }
        }
    }
    results
}

fn assert_same(
    label: &str,
    seed: u64,
    shards: usize,
    ops: &[Op],
    expected: &[SearchHits],
    got: &[SearchHits],
) {
    assert_eq!(expected.len(), got.len(), "{label}: search count");
    let searches: Vec<&Keyword> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Search(kw) => Some(kw),
            _ => None,
        })
        .collect();
    for (i, (want, have)) in expected.iter().zip(got).enumerate() {
        assert_eq!(
            want, have,
            "{label}: seed {seed}, {shards} shard(s), search #{i} ({:?}) diverged",
            searches[i]
        );
    }
}

fn run_differential(scheme: &str) {
    for seed in SEEDS {
        let ops = trace(seed, 120, 10);
        let oracle_results = replay(
            &mut Oracle(NaiveClient::new(
                &MasterKey::from_seed(seed),
                Meter::new(),
                seed,
            )),
            &ops,
        );
        assert!(
            oracle_results.iter().any(|hits| !hits.is_empty()),
            "degenerate trace: the oracle never found anything (seed {seed})"
        );

        let mut per_shard_count = Vec::new();
        for shards in SHARD_COUNTS {
            let results = match scheme {
                "scheme1" => replay(&mut scheme1_backend(seed, shards), &ops),
                "scheme2" => replay(&mut scheme2_backend(seed, shards), &ops),
                other => panic!("unknown scheme {other}"),
            };
            assert_same(
                &format!("{scheme} vs oracle"),
                seed,
                shards,
                &ops,
                &oracle_results,
                &results,
            );
            per_shard_count.push((shards, results));
        }
        // Sharded vs unsharded: byte-identical result streams.
        let (_, baseline) = &per_shard_count[0];
        for (shards, results) in &per_shard_count[1..] {
            assert_same(
                &format!("{scheme} sharded vs unsharded"),
                seed,
                *shards,
                &ops,
                baseline,
                results,
            );
        }
    }
}

#[test]
fn scheme1_matches_oracle_across_shard_counts_and_seeds() {
    run_differential("scheme1");
}

#[test]
fn scheme2_matches_oracle_across_shard_counts_and_seeds() {
    run_differential("scheme2");
}

// ---------------------------------------------------------------------------
// Warm-cache vs cold-oracle differential (server-side search memo)
// ---------------------------------------------------------------------------

/// In-process transport over a shared server, kept so the test retains a
/// handle to the server and can read its memo counters after the replay
/// (a `MeteredLink` owns its server outright).
struct SharedLink<S>(Arc<S>);

impl sse_net::link::Transport for SharedLink<Scheme2Server> {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(self.0.handle_shared(request))
    }
}

/// Lockstep warm-vs-cold replay for Scheme 2: the *cold oracle* runs with
/// the server memo disabled (every search re-walks the chain), the *warm*
/// backend keeps it on. At every search point the warm side answers three
/// ways — a first (miss-then-fill) search, an immediate repeat (memo-
/// served), and periodically a `search_many` window — and each must be
/// byte-identical to the cold oracle, across interleaved single and
/// batched updates and two [`Op::Reinit`] epoch swaps (which must
/// invalidate the memo, not let it serve the dead epoch's results).
fn scheme2_warm_vs_cold(seed: u64, shards: usize) {
    let ops = trace_with_epochs(seed, 90, 10, true);
    let key = MasterKey::from_seed(seed);
    let cold_cfg = Scheme2Config::standard().with_server_cache(false);
    let warm_cfg = Scheme2Config::standard();
    let cold_srv = Arc::new(Scheme2Server::new_in_memory_sharded(
        cold_cfg.clone(),
        shards,
    ));
    let warm_srv = Arc::new(Scheme2Server::new_in_memory_sharded(
        warm_cfg.clone(),
        shards,
    ));
    let mut cold = Scheme2Client::new_seeded(
        SharedLink(cold_srv.clone()),
        key.clone(),
        cold_cfg,
        seed ^ 0xC07D,
    );
    let mut warm =
        Scheme2Client::new_seeded(SharedLink(warm_srv.clone()), key, warm_cfg, seed ^ 0x3A93);

    let sorted = |mut hits: SearchHits| {
        hits.sort();
        hits
    };
    let mut searches = 0usize;
    let mut nonempty = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Add(doc) => {
                cold.store(std::slice::from_ref(doc)).unwrap();
                warm.store(std::slice::from_ref(doc)).unwrap();
            }
            Op::Remove(doc) => {
                cold.remove(std::slice::from_ref(doc)).unwrap();
                warm.remove(std::slice::from_ref(doc)).unwrap();
            }
            Op::FakeUpdate(kws) => {
                // Single-keyword groups drive the batched `UPDATE_MANY`
                // client path, so the memo sees batched invalidations too.
                let groups: Vec<Vec<Keyword>> = kws.iter().map(|k| vec![k.clone()]).collect();
                cold.fake_update_many(&groups).unwrap();
                warm.fake_update_many(&groups).unwrap();
            }
            Op::Reinit(docs) => {
                cold.reinitialize(docs).unwrap();
                warm.reinitialize(docs).unwrap();
            }
            Op::Search(kw) => {
                searches += 1;
                let want = sorted(cold.search(kw).unwrap());
                let first = sorted(warm.search(kw).unwrap());
                assert_eq!(
                    first, want,
                    "seed {seed}, {shards} shard(s), op {i}: warm first search diverged on {kw:?}"
                );
                let repeat = sorted(warm.search(kw).unwrap());
                assert_eq!(
                    repeat, want,
                    "seed {seed}, {shards} shard(s), op {i}: memo-served repeat diverged on {kw:?}"
                );
                if !want.is_empty() {
                    nonempty += 1;
                }
                if searches.is_multiple_of(3) {
                    let window: Vec<Keyword> = (0..5).map(|j| keyword((i + j) % 10)).collect();
                    let want_window: Vec<SearchHits> = window
                        .iter()
                        .map(|w| sorted(cold.search(w).unwrap()))
                        .collect();
                    let many: Vec<SearchHits> = warm
                        .search_many(&window)
                        .unwrap()
                        .into_iter()
                        .map(sorted)
                        .collect();
                    assert_eq!(
                        many, want_window,
                        "seed {seed}, {shards} shard(s), op {i}: search_many diverged"
                    );
                }
            }
        }
    }
    assert!(nonempty > 0, "degenerate trace: every search came up empty");
    let warm_stats = warm_srv.stats();
    assert!(
        warm_stats.cache_hits > 0,
        "warm replay never hit the memo — the differential is vacuous"
    );
    assert_eq!(
        cold_srv.stats().cache_hits,
        0,
        "cache-disabled oracle must never serve from the memo"
    );
}

/// Scheme 1 has no server-side memo, but its batched search paths must be
/// just as result-stable: at every search point a repeat search and a
/// `search_many` window are compared against a cold lockstep replay under
/// interleaved updates.
fn scheme1_warm_vs_cold(seed: u64, shards: usize) {
    let ops = trace(seed, 90, 10);
    let mut cold = scheme1_backend(seed, shards);
    let mut warm = scheme1_backend(seed, shards);

    let sorted = |mut hits: SearchHits| {
        hits.sort();
        hits
    };
    let mut searches = 0usize;
    let mut nonempty = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Search(kw) => {
                searches += 1;
                let want = sorted(cold.search(kw));
                let first = sorted(warm.0.search(kw).unwrap());
                assert_eq!(
                    first, want,
                    "seed {seed}, {shards} shard(s), op {i}: first search diverged on {kw:?}"
                );
                let repeat = sorted(warm.0.search(kw).unwrap());
                assert_eq!(
                    repeat, want,
                    "seed {seed}, {shards} shard(s), op {i}: repeat search diverged on {kw:?}"
                );
                if !want.is_empty() {
                    nonempty += 1;
                }
                if searches.is_multiple_of(3) {
                    let window: Vec<Keyword> = (0..5).map(|j| keyword((i + j) % 10)).collect();
                    let want_window: Vec<SearchHits> =
                        window.iter().map(|w| sorted(cold.search(w))).collect();
                    let many: Vec<SearchHits> = warm
                        .0
                        .search_many(&window)
                        .unwrap()
                        .into_iter()
                        .map(sorted)
                        .collect();
                    assert_eq!(
                        many, want_window,
                        "seed {seed}, {shards} shard(s), op {i}: search_many diverged"
                    );
                }
            }
            other => {
                for b in [&mut cold as &mut dyn Backend, &mut warm] {
                    match other {
                        Op::Add(doc) => b.add(doc),
                        Op::Remove(doc) => b.remove(doc),
                        Op::FakeUpdate(kws) => b.fake_update(kws),
                        Op::Reinit(docs) => b.reinit(docs),
                        Op::Search(_) => unreachable!(),
                    }
                }
            }
        }
    }
    assert!(nonempty > 0, "degenerate trace: every search came up empty");
}

#[test]
fn scheme2_warm_cache_and_batches_match_cold_oracle_across_epoch_swaps() {
    for seed in [SEEDS[0], SEEDS[1]] {
        for shards in [1, 4] {
            scheme2_warm_vs_cold(seed, shards);
        }
    }
}

// ---------------------------------------------------------------------------
// Durable differential (storage backends)
// ---------------------------------------------------------------------------

/// Shard count of the durable replays: high enough that the lsm backend
/// runs one keyword map per shard and batched mutations straddle shards.
const DURABLE_SHARDS: usize = 4;

fn durable_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-diff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Split a trace into three segments for the restart schedule: the server
/// is dropped (journal intact) after segment one, checkpointed at the
/// start of segment two's server, and dropped again before segment three
/// — so the replay crosses a journal-only recovery, a checkpoint that
/// must flush journal-recovered state, and a recovery layered on top of
/// that checkpoint.
fn segments(ops: &[Op]) -> [&[Op]; 3] {
    let third = ops.len() / 3;
    [&ops[..third], &ops[third..2 * third], &ops[2 * third..]]
}

/// How segment `i`'s server opens the directory. The last reopen leaves
/// everything but the backend at its default: the directory's manifest,
/// not the caller, fixes the shard count.
fn durable_options(i: usize, backend: BackendKind) -> DurableOptions {
    if i == 2 {
        return DurableOptions {
            backend,
            ..DurableOptions::default()
        };
    }
    DurableOptions {
        vfs: RealVfs::arc(),
        shards: DURABLE_SHARDS,
        backend,
    }
}

/// Replay `ops` against a durable scheme-1 server on `backend`, restarting
/// the server between segments (see [`segments`]).
fn scheme1_durable_replay(seed: u64, backend: BackendKind, ops: &[Op]) -> Vec<SearchHits> {
    let dir = durable_dir(&format!("s1-{backend}"));
    let config = Scheme1Config::fast_profile(CAPACITY);
    let key = MasterKey::from_seed(seed);
    let mut results = Vec::new();
    for (i, segment) in segments(ops).into_iter().enumerate() {
        let server =
            Scheme1Server::open_durable_with(CAPACITY, &dir, durable_options(i, backend)).unwrap();
        assert_eq!(server.num_shards(), DURABLE_SHARDS);
        if i == 1 {
            server.checkpoint().unwrap();
        }
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            seed ^ (i as u64),
        );
        for op in segment {
            match op {
                // Scheme 1 removal is XOR re-toggling the same document;
                // reinit has no chain epochs to swap.
                Op::Add(doc) | Op::Remove(doc) => {
                    client.store(std::slice::from_ref(doc)).unwrap();
                }
                Op::FakeUpdate(kws) => client.fake_update(kws).unwrap(),
                Op::Reinit(_) => {}
                Op::Search(kw) => {
                    let mut hits = client.search(kw).unwrap();
                    hits.sort();
                    results.push(hits);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    results
}

/// Replay `ops` against a durable scheme-2 server on `backend` with the
/// same restart schedule; the client's chain counter carries across
/// restarts via [`Scheme2ClientState`].
fn scheme2_durable_replay(seed: u64, backend: BackendKind, ops: &[Op]) -> Vec<SearchHits> {
    let dir = durable_dir(&format!("s2-{backend}"));
    let config = Scheme2Config::standard();
    let key = MasterKey::from_seed(seed);
    let mut results = Vec::new();
    let mut state: Option<Scheme2ClientState> = None;
    for (i, segment) in segments(ops).into_iter().enumerate() {
        let server =
            Scheme2Server::open_durable_with(config.clone(), &dir, durable_options(i, backend))
                .unwrap();
        assert_eq!(server.num_shards(), DURABLE_SHARDS);
        if i == 1 {
            server.checkpoint().unwrap();
        }
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            seed ^ (i as u64),
        );
        if let Some(s) = state.take() {
            client.restore_state(s);
        }
        for op in segment {
            match op {
                Op::Add(doc) => client.store(std::slice::from_ref(doc)).unwrap(),
                Op::Remove(doc) => client.remove(std::slice::from_ref(doc)).unwrap(),
                Op::FakeUpdate(kws) => client.fake_update(kws).unwrap(),
                Op::Reinit(docs) => client.reinitialize(docs).unwrap(),
                Op::Search(kw) => {
                    let mut hits = client.search(kw).unwrap();
                    hits.sort();
                    results.push(hits);
                }
            }
        }
        state = Some(client.state());
    }
    let _ = std::fs::remove_dir_all(&dir);
    results
}

/// Durable differential: the same trace replayed against durable servers
/// on every storage backend — across two restarts and a checkpoint — must
/// produce byte-identical search results to the naive no-index oracle.
#[test]
fn durable_backends_match_oracle_across_restarts_and_checkpoints() {
    let seed = SEEDS[0];
    let ops = trace(seed, 80, 10);
    let oracle_results = replay(
        &mut Oracle(NaiveClient::new(
            &MasterKey::from_seed(seed),
            Meter::new(),
            seed,
        )),
        &ops,
    );
    assert!(
        oracle_results.iter().any(|hits| !hits.is_empty()),
        "degenerate trace: the oracle never found anything (seed {seed})"
    );
    for backend in BackendKind::all() {
        let s1 = scheme1_durable_replay(seed, backend, &ops);
        assert_same(
            &format!("scheme1 durable ({backend}) vs oracle"),
            seed,
            DURABLE_SHARDS,
            &ops,
            &oracle_results,
            &s1,
        );
        let s2 = scheme2_durable_replay(seed, backend, &ops);
        assert_same(
            &format!("scheme2 durable ({backend}) vs oracle"),
            seed,
            DURABLE_SHARDS,
            &ops,
            &oracle_results,
            &s2,
        );
    }
}

#[test]
fn scheme1_repeated_and_batched_searches_match_cold_replay() {
    for seed in [SEEDS[0], SEEDS[1]] {
        for shards in [1, 4] {
            scheme1_warm_vs_cold(seed, shards);
        }
    }
}
