//! The traced pass: where one request's nanoseconds go, layer by layer.
//!
//! A separate, in-process, single-threaded pass — end-to-end numbers
//! always come from the untraced child-daemon run. It rebuilds the
//! workload's state through `TenantRegistry` and pushes the first
//! [`TRACED_REQUESTS`] measured requests through the public call chain the
//! daemon runs — `feed_pooled` → `decode_request` → scheduler hop →
//! `handle_shared_with` → encode — with a span around each call.
//!
//! It cannot open spans *inside* `handle_shared_with` (in-program spans
//! are a later issue, and must reuse these names). So each request is
//! followed by **twin calls** into the lower crates' public functions,
//! sized from what that request did: the same tag looked up in a
//! same-size `BpTree`, `chain_step` for the same number of steps, an
//! EtM open per generation decrypted, the same blobs fetched from a twin
//! store, a journal append of the same record. Twins are attributed as
//! children of the request's `core.*` span, so a layer's self time is its
//! span minus the part its children cover.

use crate::catalogue;
use crate::child::ScratchDir;
use crate::json::Json;
use crate::report::Report;
use crate::run::{self, RunOpts, CONNS};
use crate::s1;
use crate::trace::{self, Class, ConnTrace, Req};
use sse_core::journal::IndexJournal;
use sse_core::proto_common;
use sse_core::scheme::SseClientApi;
use sse_core::scheme1::protocol as s1p;
use sse_core::scheme1::Scheme1Client;
use sse_core::scheme2::key_commitment;
use sse_core::scheme2::protocol as s2p;
use sse_core::types::{Document, Keyword, SearchHits};
use sse_index::bitset::DocBitSet;
use sse_index::bptree::BpTree;
use sse_net::frame::StreamingDecoder;
use sse_net::link::Transport;
use sse_net::pool::{BufPool, PooledBuf};
use sse_phr::system::PhrSystem;
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::elgamal::ElGamal;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::chain_step;
use sse_primitives::modp::ModpGroup;
use sse_primitives::prf::Prf;
use sse_primitives::prg::Prg;
use sse_server::proto::{
    self, SchemeId, KIND_DATA, KIND_UPDATE_MANY, REQUEST_HEADER_LEN, STATUS_OK,
};
use sse_server::sched::{route_hash, JobSender, Scheduler};
use sse_server::stats::ServingStats;
use sse_server::tenant::{TenantDb, TenantHandle, TenantParams, TenantRegistry};
use sse_storage::store::{DocStore, StoreOptions};
use sse_storage::{BackendKind, DocBlobStore, LsmDocStore, RealVfs};
use std::collections::BTreeMap;
use std::io::{Error, Result};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured requests the traced pass replays.
const TRACED_REQUESTS: usize = 5000;
/// `find_by_code` calls the traced pass makes for `s1_traveler`.
const TRACED_FINDS: usize = 300;

/// One span: a named interval, the span that caused it, the request it
/// belongs to. `twin` marks a child measured by a twin call after the
/// request and laid inside its parent's interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u32,
    pub twin: bool,
}

/// Spans stay in memory until the pass ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Where the next twin child of a parent starts: parent → offset.
    twin_offset: (u32, u64),
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(TRACED_REQUESTS * 12),
            twin_offset: (u32::MAX, 0),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>, request_id: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
            twin: false,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Time `f` as a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request_id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id);
        out
    }

    /// Time `f` now, and record it as a child of `parent` (a span that
    /// has already closed), placed after that parent's earlier twins.
    fn twin<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let entered = Instant::now();
        let out = std::hint::black_box(f());
        let ns = entered.elapsed().as_nanos() as u64;
        self.twin_of(name, parent, ns);
        (out, ns)
    }

    /// Record a twin child of `parent` lasting `ns`.
    fn twin_of(&mut self, name: &'static str, parent: u32, ns: u64) {
        if self.twin_offset.0 != parent {
            self.twin_offset = (parent, 0);
        }
        let p = &self.spans[parent as usize];
        let start_ns = p.start_ns + self.twin_offset.1;
        let request_id = p.request_id;
        self.twin_offset.1 += ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            request_id,
            twin: true,
        });
    }

    /// Drop every span recorded since there were `mark` of them.
    fn forget_since(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.twin_offset = (u32::MAX, 0);
    }

    /// Per span name: total self time (duration minus the part child
    /// spans cover, never below zero) and span count.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
            e.1 += 1;
        }
        out
    }
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request_id", Json::Num(f64::from(s.request_id))),
                ];
                if s.twin {
                    fields.push(("twin", Json::Bool(true)));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// What travels through the scheduler: the daemon's `Job`, minus the
/// responder (there is no socket here).
struct Job {
    kind: u8,
    seq: u32,
    payload: PooledBuf,
}

/// The daemon's per-request call chain, reassembled from the crates'
/// public functions.
struct Pipeline {
    pool: BufPool,
    decoder: StreamingDecoder,
    sched: Arc<Scheduler<Job>>,
    sender: JobSender<Job>,
    stats: ServingStats,
    frames: Vec<PooledBuf>,
}

/// What one served request produced.
struct Served {
    reply: Vec<u8>,
    /// The `core.*` span, parent of this request's twins.
    core: u32,
}

impl Pipeline {
    fn new() -> Pipeline {
        let pool = BufPool::new();
        let (sched, sender) = Scheduler::new(2, 64, true);
        Pipeline {
            decoder: StreamingDecoder::with_pool(sse_net::frame::MAX_FRAME_LEN, pool.clone()),
            pool,
            sched,
            sender,
            stats: ServingStats::new(),
            frames: Vec::with_capacity(1),
        }
    }

    /// Serve one wire frame the way the reactor and a worker do,
    /// recording a span per call.
    fn serve(
        &mut self,
        tr: &mut Tracer,
        parent: Option<u32>,
        rid: u32,
        (tenant, route): (&TenantHandle, u64),
        wire: &[u8],
        core_name: &'static str,
    ) -> Result<Served> {
        let root = tr.open("request", parent, rid);
        let at = Some(root);

        // Reactor: socket bytes → pooled frame body.
        let (decoder, frames) = (&mut self.decoder, &mut self.frames);
        tr.span("net.frame_decode", at, rid, || {
            decoder.feed_pooled(wire, frames)
        })
        .map_err(|e| Error::other(e.to_string()))?;
        let mut frame = self.frames.pop().ok_or_else(|| Error::other("no frame"))?;

        // Reactor: envelope → (kind, seq, payload view of the same buffer).
        let job = tr
            .span("server.proto_decode", at, rid, || {
                let (kind, seq, _) = proto::decode_request(&frame)?;
                let len = frame.len();
                Some(Job {
                    kind,
                    seq,
                    payload: frame.slice(REQUEST_HEADER_LEN..len),
                })
            })
            .ok_or_else(|| Error::other("malformed request envelope"))?;
        drop(frame);

        // Reactor → worker: one run-queue hop, uncontended.
        let (sender, sched) = (&self.sender, &self.sched);
        let job = tr
            .span("server.sched_hop", at, rid, || {
                sender.try_send(route, job).ok()?;
                sched.try_next((route % 2) as usize)
            })
            .ok_or_else(|| Error::other("run queue refused the job"))?;

        // Worker: health gate, scratch buffer, the scheme server, stats.
        let dispatch = tr.open("server.tenant_dispatch", at, rid);
        let accepted = Instant::now();
        let healthy = std::hint::black_box(tenant.health().state());
        let _ = healthy;
        let scratch = self.pool.acquire(4096);
        let core = tr.open(core_name, Some(dispatch), rid);
        let response = match job.kind {
            KIND_UPDATE_MANY => proto::decode_batch(&job.payload)
                .map(|parts| tenant.apply_batch(&parts))
                .ok_or_else(|| Error::other("malformed batch"))?,
            _ => tenant.handle_shared_with(&job.payload, scratch),
        };
        tr.close(core);
        self.stats.record_ok(
            job.payload.len(),
            response.len(),
            Duration::ZERO,
            accepted.elapsed(),
        );
        tr.close(dispatch);

        // Worker → reactor: scatter-gather encode (prefix + sealed payload).
        let pool = &self.pool;
        let (prefix, sealed) = tr.span("net.frame_encode", at, rid, || {
            (
                proto::response_prefix(STATUS_OK, job.seq, response.len()),
                pool.seal(response),
            )
        });
        std::hint::black_box(prefix);
        let reply = sealed.to_vec();

        // Both buffers go back to the pool's free lists.
        tr.span("net.pool_cycle", at, rid, || {
            drop(job);
            drop(sealed);
        });
        tr.close(root);
        Ok(Served { reply, core })
    }
}

/// Running totals the twins feed, beside the spans.
#[derive(Default)]
struct Tally {
    lookups: u64,
    lookup_ns: u64,
    lookup_nodes: u64,
    inserts: u64,
    insert_ns: u64,
    chain_steps: u64,
    chain_ns: u64,
    searches: u64,
    etm_bytes: u64,
    etm_ns: u64,
    prg_bytes: u64,
    prg_ns: u64,
    xors: u64,
    xor_ns: u64,
    blob_gets: u64,
    blob_get_ns: u64,
    blob_puts: u64,
    blob_put_ns: u64,
    wal_appends: u64,
    wal_append_ns: u64,
    wal_sync_ns: u64,
    elgamal_decrypts: u64,
    elgamal_decrypt_ns: u64,
    mismatches: u64,
}

fn per(total_ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64
    }
}

/// Twin data structures for Scheme 2: a `BpTree` holding the same tags,
/// a blob store holding the same blobs, two scratch journals.
struct S2Twins {
    tree: BpTree<[u8; 32], Vec<u8>>,
    store: Box<dyn DocBlobStore>,
    /// `(no fsync, fsync per append)` — durable workloads only. The
    /// fsync share of an append is the difference of the two.
    journals: Option<(IndexJournal, IndexJournal)>,
    /// A sealed posting entry of the size a store appends, and its key.
    sealed: ([u8; 32], Vec<u8>),
}

impl S2Twins {
    fn new(durable: Option<(&Path, BackendKind)>) -> Result<S2Twins> {
        let err = |e: sse_storage::StorageError| Error::other(e.to_string());
        let vfs = RealVfs::arc();
        let (store, journals): (Box<dyn DocBlobStore>, _) = match durable {
            None => (Box::new(DocStore::in_memory()), None),
            Some((dir, backend)) => {
                let blobs = dir.join("twin-blobs");
                std::fs::create_dir_all(&blobs)?;
                let opts = StoreOptions::default();
                let store: Box<dyn DocBlobStore> = match backend {
                    BackendKind::Btree => {
                        Box::new(DocStore::open_with_vfs(vfs.clone(), &blobs, opts).map_err(err)?)
                    }
                    BackendKind::Lsm => Box::new(
                        LsmDocStore::open_with_vfs(vfs.clone(), &blobs, opts).map_err(err)?,
                    ),
                };
                let open = |name: &str, sync: bool| {
                    IndexJournal::open_with_vfs(vfs.clone(), &dir.join(name), sync, 0)
                        .map(|(j, _)| j)
                        .map_err(|e| Error::other(e.to_string()))
                };
                (
                    store,
                    Some((
                        open("twin-nosync.wal", false)?,
                        open("twin-sync.wal", true)?,
                    )),
                )
            }
        };
        // What a one-document store seals: (adds = [id], dels = []).
        let key = [7u8; 32];
        let mut posting = sse_net::wire::WireWriter::new();
        posting.put_u64_vec(&[1 << 24]).put_u64_vec(&[]);
        let sealed = EtmKey::new(&key).seal(&posting.finish());
        Ok(S2Twins {
            tree: BpTree::new(),
            store,
            journals,
            sealed: (key, sealed),
        })
    }

    /// Mirror a request into the twins without timing it (state load).
    fn mirror(&mut self, req: &Req) {
        for part in req.parts() {
            match s2p::decode_request(part) {
                Ok(s2p::Request::PutDocs(docs)) => {
                    for (id, blob) in docs {
                        let _ = self.store.put(id, &blob);
                    }
                }
                Ok(s2p::Request::AppendGenerations(entries)) => {
                    append_to_twin(&mut self.tree, entries);
                }
                _ => {}
            }
        }
    }
}

/// What the server's `append_entry` does to its tree, on the twin: extend
/// the tag's list, or insert a new one.
fn append_to_twin(tree: &mut BpTree<[u8; 32], Vec<u8>>, entries: Vec<s2p::GenerationEntry>) {
    for e in entries {
        match tree.get_mut(&e.tag) {
            Some(list) => list.extend_from_slice(&e.sealed_ids),
            None => {
                tree.insert(e.tag, e.sealed_ids);
            }
        }
    }
}

/// The Scheme 2 server behind a tenant handle.
fn s2_stats(tenant: &TenantDb) -> sse_core::scheme2::Scheme2ServerStats {
    match tenant {
        TenantDb::S2(s) => s.stats(),
        TenantDb::S1(_) => Default::default(),
    }
}

/// What the Scheme 2 server's counters say one request did.
struct Did {
    tree_lookup: bool,
    chain_steps: u64,
    decrypted: u64,
}

impl Did {
    fn between(
        before: &sse_core::scheme2::Scheme2ServerStats,
        after: &sse_core::scheme2::Scheme2ServerStats,
    ) -> Did {
        Did {
            tree_lookup: after.tree_nodes_visited > before.tree_nodes_visited,
            chain_steps: after.chain_steps - before.chain_steps,
            decrypted: after.generations_decrypted - before.generations_decrypted,
        }
    }
}

/// The tag lookup, on a twin tree of the same size.
fn lookup_twin<V: Clone>(
    tr: &mut Tracer,
    tally: &mut Tally,
    core: u32,
    tree: &BpTree<[u8; 32], V>,
    tag: &[u8; 32],
) {
    let (nodes, ns) = tr.twin("index.lookup", core, || {
        tree.get_with_stats(tag).1.nodes_visited
    });
    tally.lookups += 1;
    tally.lookup_ns += ns;
    tally.lookup_nodes += nodes as u64;
}

/// Twin calls for one served Scheme 2 request, sized from the server's
/// stats delta and the reply.
fn s2_twins(
    tr: &mut Tracer,
    tally: &mut Tally,
    twins: &mut S2Twins,
    core: u32,
    req: &Req,
    reply: &[u8],
    did: &Did,
) {
    match s2p::decode_request(req.payload()) {
        Ok(s2p::Request::Search { tag, t_prime }) => {
            tally.searches += 1;
            if did.tree_lookup {
                lookup_twin(tr, tally, core, &twins.tree, &tag);
            }
            let steps = did.chain_steps;
            if steps > 0 {
                // The server takes one chain step and one commitment
                // check per step walked.
                let (_, ns) = tr.twin("primitives.chain_walk", core, || {
                    let mut element = t_prime;
                    for _ in 0..steps {
                        element = chain_step(&element);
                        std::hint::black_box(key_commitment(&element));
                    }
                    element
                });
                tally.chain_steps += steps;
                tally.chain_ns += ns;
            }
            let decrypted = did.decrypted;
            if decrypted > 0 {
                let (key, sealed) = &twins.sealed;
                let (_, ns) = tr.twin("primitives.etm_open", core, || {
                    for _ in 0..decrypted {
                        std::hint::black_box(EtmKey::new(key).open(sealed).ok());
                    }
                });
                tally.etm_bytes += decrypted * sealed.len() as u64;
                tally.etm_ns += ns;
            }
            let ids: Vec<u64> = proto_common::decode_result(reply)
                .map(|docs| docs.into_iter().map(|(id, _)| id).collect())
                .unwrap_or_default();
            if !ids.is_empty() {
                let store = &twins.store;
                let (_, ns) = tr.twin("storage.blob_get", core, || store.get_many(&ids));
                tally.blob_gets += ids.len() as u64;
                tally.blob_get_ns += ns;
            }
        }
        Ok(s2p::Request::PutDocs(docs)) => {
            let store = &mut twins.store;
            let (_, ns) = tr.twin("storage.blob_put", core, || {
                for (id, blob) in &docs {
                    let _ = store.put(*id, blob);
                }
            });
            tally.blob_puts += docs.len() as u64;
            tally.blob_put_ns += ns;
        }
        Ok(s2p::Request::AppendGenerations(entries)) => {
            if let Some((nosync, sync)) = &mut twins.journals {
                let (_, write_ns) = tr.twin("storage.wal_append", core, || {
                    nosync.append(req.payload()).ok()
                });
                // The second journal repeats the write and adds an fsync:
                // only its excess over the first is the fsync's.
                let entered = Instant::now();
                let _ = sync.append(req.payload());
                let fsync = (entered.elapsed().as_nanos() as u64).saturating_sub(write_ns);
                tr.twin_of("storage.wal_fsync", core, fsync);
                tally.wal_appends += 1;
                tally.wal_append_ns += write_ns;
                tally.wal_sync_ns += fsync;
            }
            let (tree, n) = (&mut twins.tree, entries.len() as u64);
            let (_, ns) = tr.twin("index.insert", core, || append_to_twin(tree, entries));
            tally.inserts += n;
            tally.insert_ns += ns;
        }
        _ => {}
    }
}

fn core_name_s2(class: Class) -> &'static str {
    match class {
        Class::Search => "core.s2_search",
        _ => "core.s2_update",
    }
}

fn backend_of(workload: &str) -> Option<BackendKind> {
    match workload {
        catalogue::UPD_BTREE => Some(BackendKind::Btree),
        catalogue::UPD_LSM => Some(BackendKind::Lsm),
        _ => None,
    }
}

/// Traced pass over a replay workload's captured trace.
fn trace_replay(
    opts: &RunOpts,
    traces: &[ConnTrace],
    daemon_dir: Option<&Path>,
    report: &mut Report,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<u64> {
    let backend = backend_of(opts.workload);
    let params = TenantParams {
        backend: backend.unwrap_or(BackendKind::Btree),
        ..TenantParams::default()
    };
    let scratch = ScratchDir(
        opts.out_dir
            .join(format!("trace-data-{}", std::process::id())),
    );
    let registry = match backend {
        Some(_) => {
            std::fs::create_dir_all(&scratch.0)?;
            TenantRegistry::durable(params, scratch.0.join("db"), RealVfs::arc())
        }
        None => TenantRegistry::new(params),
    };
    let tenant_of = |t: &ConnTrace| {
        registry
            .get_or_create(&t.tenant, SchemeId::Scheme2)
            .map_err(|e| Error::other(e.to_string()))
    };

    // State: the load requests, mirrored into each tenant's twins.
    let mut pipeline = Pipeline::new();
    let mut twins: BTreeMap<&str, S2Twins> = BTreeMap::new();
    for t in traces {
        let tenant = tenant_of(t)?;
        if !twins.contains_key(t.tenant.as_str()) {
            let durable = backend.map(|b| (scratch.0.as_path(), b));
            twins.insert(&t.tenant, S2Twins::new(durable)?);
        }
        let tw = twins.get_mut(t.tenant.as_str()).expect("just inserted");
        for req in &t.load {
            if req.class == Class::Checkpoint {
                let _ = tenant.checkpoint_home();
                continue;
            }
            req.apply_to(&tenant);
            tw.mirror(req);
        }
    }

    // The first measured requests, connections alternating.
    let per_conn = TRACED_REQUESTS / traces.len().max(1);
    let mut rid = 0u32;
    for k in 0..per_conn {
        for t in traces {
            let Some(&r) = t.order.get(k) else { continue };
            let req = &t.reqs[r as usize];
            if req.class == Class::Checkpoint {
                continue;
            }
            let tenant = tenant_of(t)?;
            let route = route_hash(&t.tenant, SchemeId::Scheme2);
            let before = s2_stats(&tenant);
            let mut wire = req.wire.clone();
            wire[trace::SEQ_OFFSET..trace::SEQ_OFFSET + 4]
                .copy_from_slice(&(rid + 1).to_le_bytes());
            let served = pipeline.serve(
                tr,
                None,
                rid,
                (&tenant, route),
                &wire,
                core_name_s2(req.class),
            )?;
            let after = s2_stats(&tenant);
            if served.reply != req.expect {
                tally.mismatches += 1;
            }
            let tw = twins.get_mut(t.tenant.as_str()).expect("twins per tenant");
            s2_twins(
                tr,
                tally,
                tw,
                served.core,
                req,
                &served.reply,
                &Did::between(&before, &after),
            );
            rid += 1;
        }
    }

    // The restart's leftovers: how much journal the kill left behind,
    // and what a checkpoint of the end-of-trace state costs.
    if let (Some(dir), Some(_)) = (daemon_dir, backend) {
        let reopened = TenantRegistry::durable(params, dir.to_path_buf(), RealVfs::arc());
        let db = reopened
            .get_or_create(&traces[0].tenant, SchemeId::Scheme2)
            .map_err(|e| Error::other(e.to_string()))?;
        let rec = db.recovery();
        report.set(
            "storage.wal_replayed_records",
            (rec.index_ops_replayed + rec.store_wal_records_replayed) as f64,
        );
        let entered = Instant::now();
        db.checkpoint_home()
            .map_err(|e| Error::other(e.to_string()))?;
        report.set(
            "storage.checkpoint_ms",
            entered.elapsed().as_secs_f64() * 1e3,
        );
    }
    Ok(u64::from(rid))
}

/// A `Transport` that serves each round trip through the traced
/// pipeline — how the real Scheme 1 client reaches the in-process server.
struct TracedTransport<'a> {
    pipeline: &'a mut Pipeline,
    tr: &'a mut Tracer,
    tally: &'a mut Tally,
    tenant: TenantHandle,
    route: u64,
    /// The client-side span the next round trip belongs under.
    parent: Option<u32>,
    /// The `phr.find_by_code` span the next client call belongs under.
    outer: Option<u32>,
    next_rid: u32,
    twins: S1Twins,
}

/// Twin structures for Scheme 1: a tree of as many tags, a bit array of
/// the configured capacity, a blob store with the same blobs.
struct S1Twins {
    tree: BpTree<[u8; 32], ()>,
    bits: DocBitSet,
    store: DocStore,
}

impl Transport for TracedTransport<'_> {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let rid = self.next_rid;
        self.next_rid += 1;
        let decoded = s1p::decode_request(request).ok();
        let core_name = match decoded {
            Some(s1p::Request::SearchFind(_)) => "core.s1_search_r1",
            Some(s1p::Request::SearchReveal { .. }) => "core.s1_search_r2",
            _ => "core.s1_update",
        };
        let wire =
            sse_net::frame::encode_frame(&proto::encode_request(KIND_DATA, rid + 1, request));
        let served = self.pipeline.serve(
            self.tr,
            self.parent,
            rid,
            (&self.tenant, self.route),
            &wire,
            core_name,
        )?;
        let (tr, tally, tw) = (&mut *self.tr, &mut *self.tally, &mut self.twins);
        match decoded {
            Some(s1p::Request::PutDocs(docs)) => {
                for (id, blob) in docs {
                    let _ = tw.store.put(id, &blob);
                }
            }
            Some(s1p::Request::ApplyUpdates(entries)) => {
                for e in entries {
                    tw.tree.insert(e.tag, ());
                }
            }
            Some(s1p::Request::SearchFind(tag)) => {
                lookup_twin(tr, tally, served.core, &tw.tree, &tag);
            }
            Some(s1p::Request::SearchReveal { tag, seed }) => {
                tally.searches += 1;
                lookup_twin(tr, tally, served.core, &tw.tree, &tag);
                // Unmask I(w) ⊕ G(r): one PRG expansion over the bit
                // array, one XOR of two arrays of the capacity.
                let mut masked = vec![0u8; tw.bits.byte_len()];
                let (_, ns) = tr.twin("primitives.prg_mask", served.core, || {
                    Prg::mask_in_place(&seed, &mut masked);
                });
                tally.prg_bytes += masked.len() as u64;
                tally.prg_ns += ns;
                let other = DocBitSet::from_bytes(tw.bits.capacity(), &masked);
                let bits = &mut tw.bits;
                let (_, ns) = tr.twin("index.bitset_xor", served.core, || bits.xor_with(&other));
                tally.xors += 1;
                tally.xor_ns += ns;
                let ids: Vec<u64> = s1p::decode_result(&served.reply)
                    .map(|docs| docs.into_iter().map(|(id, _)| id).collect())
                    .unwrap_or_default();
                if !ids.is_empty() {
                    let store = &tw.store;
                    let (_, ns) = tr.twin("storage.blob_get", served.core, || store.get_many(&ids));
                    tally.blob_gets += ids.len() as u64;
                    tally.blob_get_ns += ns;
                }
            }
            _ => {}
        }
        Ok(served.reply)
    }
}

/// The Scheme 1 client with a `core.client_search` span around each
/// search, so `phr.find_by_code`'s self time is what `PhrSystem` adds on
/// top (decoding the hits into records).
struct SpanClient<'a> {
    inner: Scheme1Client<TracedTransport<'a>>,
    /// The span of the most recent search.
    last: u32,
}

impl SseClientApi for SpanClient<'_> {
    fn add_documents(&mut self, docs: &[Document]) -> sse_core::Result<()> {
        self.inner.add_documents(docs)
    }

    fn search(&mut self, keyword: &Keyword) -> sse_core::Result<SearchHits> {
        let link = self.inner.transport_mut();
        let span = link
            .tr
            .open("core.client_search", link.outer, link.next_rid);
        link.parent = Some(span);
        let out = SseClientApi::search(&mut self.inner, keyword);
        let link = self.inner.transport_mut();
        link.tr.close(span);
        link.parent = None;
        self.last = span;
        out
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
}

/// Traced pass for `s1_traveler`: the real `PhrSystem` and Scheme 1
/// client over a [`TracedTransport`], so the client-side layers (`phr`,
/// the scheme client, ElGamal, EtM) get spans of their own above the
/// server pipeline's.
fn trace_s1(opts: &RunOpts, tr: &mut Tracer, tally: &mut Tally) -> Result<u64> {
    let params = TenantParams {
        scheme1_capacity: s1::CAPACITY,
        ..TenantParams::default()
    };
    let registry = TenantRegistry::new(params);
    let history = if opts.smoke { 500 } else { 2_000 };
    let mut pipeline = Pipeline::new();
    let mut finds = 0u64;
    for conn in 0..CONNS {
        let t = s1::gen_traveler(opts.seed, conn, history, TRACED_FINDS / CONNS);
        let tenant = registry
            .get_or_create(&t.tenant, SchemeId::Scheme1)
            .map_err(|e| Error::other(e.to_string()))?;
        let transport = TracedTransport {
            pipeline: &mut pipeline,
            tr: &mut *tr,
            tally: &mut *tally,
            tenant,
            route: route_hash(&t.tenant, SchemeId::Scheme1),
            parent: None,
            outer: None,
            next_rid: (conn * TRACED_FINDS * 2) as u32,
            twins: S1Twins {
                tree: BpTree::new(),
                bits: DocBitSet::new(s1::CAPACITY as usize),
                store: DocStore::in_memory(),
            },
        };
        let mut phr = PhrSystem::new(SpanClient {
            inner: s1::client_over(transport, &t),
            last: 0,
        });

        // The bulk store is set-up: served and mirrored into the twins,
        // but its spans and tallies are dropped again.
        let link = phr.client_mut().inner.transport_mut();
        let (mark, kept) = (link.tr.spans.len(), std::mem::take(link.tally));
        phr.add_records(&t.records)
            .map_err(|e| Error::other(e.to_string()))?;
        let link = phr.client_mut().inner.transport_mut();
        link.tr.forget_since(mark);
        *link.tally = kept;

        // Client-side twin inputs: an ElGamal ciphertext to decrypt, a
        // sealed record payload to open.
        let group = ModpGroup::modp_256();
        let elgamal = ElGamal::from_master_key(group, &[9u8; 32]);
        let mut drbg = HmacDrbg::from_u64(opts.seed);
        let ct = elgamal.encrypt_nonce(&[3u8; 32], &mut drbg);
        let etm = EtmKey::new(&[5u8; 32]);
        let sealed = etm.seal(&t.records[0].to_payload());

        for code in &t.lookups {
            let link = phr.client_mut().inner.transport_mut();
            let outer = link.tr.open("phr.find_by_code", None, link.next_rid);
            link.outer = Some(outer);
            let found = phr
                .find_by_code(code)
                .map_err(|e| Error::other(e.to_string()))?;
            let client = phr.client_mut().last;
            let link = phr.client_mut().inner.transport_mut();
            link.tr.close(outer);
            // The client's own crypto, by twins: one ElGamal decryption
            // between the rounds, one EtM open per hit.
            let (_, ns) = link.tr.twin("primitives.elgamal_decrypt", client, || {
                elgamal.decrypt_to_seed(&ct).ok()
            });
            link.tally.elgamal_decrypts += 1;
            link.tally.elgamal_decrypt_ns += ns;
            let hits = found.len() as u64;
            if hits > 0 {
                let (_, ns) = link.tr.twin("primitives.etm_open", client, || {
                    for _ in 0..hits {
                        std::hint::black_box(etm.open(&sealed).ok());
                    }
                });
                link.tally.etm_bytes += hits * sealed.len() as u64;
                link.tally.etm_ns += ns;
            }
            if !s1::hits_match(&t, code, &found) {
                link.tally.mismatches += 1;
            }
            finds += 1;
        }
    }
    Ok(finds)
}

/// Mean nanoseconds of a primitive over `n` calls.
fn micro(n: u32, mut f: impl FnMut()) -> f64 {
    let entered = Instant::now();
    for _ in 0..n {
        f();
    }
    entered.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Run the traced pass for `opts.workload`, fold its layer metrics into
/// `report`, and return the spans.
///
/// # Errors
/// I/O errors from the scratch directories, or a request the in-process
/// server refuses.
pub fn traced_pass(
    opts: &RunOpts,
    traces: &[ConnTrace],
    daemon_dir: Option<&Path>,
    report: &mut Report,
) -> Result<Vec<Span>> {
    run::progress("traced pass");
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let is_s1 = opts.workload == catalogue::S1;
    let ops = if is_s1 {
        trace_s1(opts, &mut tr, &mut tally)?
    } else {
        trace_replay(opts, traces, daemon_dir, report, &mut tr, &mut tally)?
    };
    if tally.mismatches > 0 {
        report.failed += tally.mismatches;
        report.fail(format!(
            "traced pass: {} replies differ from the oracle's",
            tally.mismatches
        ));
    }

    let selfs = tr.self_times();
    let mean = |name: &str| selfs.get(name).map_or(0.0, |&(ns, n)| per(ns, n));
    for (metric, span) in [
        ("net.frame_decode_ns", "net.frame_decode"),
        ("net.frame_encode_ns", "net.frame_encode"),
        ("net.pool_cycle_ns", "net.pool_cycle"),
        ("server.proto_decode_ns", "server.proto_decode"),
        ("server.sched_hop_ns", "server.sched_hop"),
        ("server.tenant_dispatch_ns", "server.tenant_dispatch"),
        ("core.s2_search_ns", "core.s2_search"),
        ("core.s2_update_ns", "core.s2_update"),
        ("core.s1_search_r1_ns", "core.s1_search_r1"),
        ("core.s1_search_r2_ns", "core.s1_search_r2"),
        ("phr.find_by_code_ns", "phr.find_by_code"),
    ] {
        report.set(metric, mean(span));
    }
    report.set("index.lookup_ns", per(tally.lookup_ns, tally.lookups));
    report.set(
        "index.nodes_per_lookup",
        per(tally.lookup_nodes, tally.lookups),
    );
    report.set("index.insert_ns", per(tally.insert_ns, tally.inserts));
    report.set("index.bitset_xor_ns", per(tally.xor_ns, tally.xors));
    report.set(
        "primitives.chain_steps_per_search",
        per(tally.chain_steps, tally.searches),
    );
    report.set(
        "primitives.chain_step_ns",
        per(tally.chain_ns, tally.chain_steps),
    );
    report.set(
        "primitives.etm_open_ns_per_kb",
        per(tally.etm_ns * 1024, tally.etm_bytes),
    );
    report.set(
        "primitives.prg_mask_ns_per_kb",
        per(tally.prg_ns * 1024, tally.prg_bytes),
    );
    report.set(
        "primitives.elgamal_decrypt_ns",
        per(tally.elgamal_decrypt_ns, tally.elgamal_decrypts),
    );
    report.set(
        "storage.wal_append_ns",
        per(tally.wal_append_ns, tally.wal_appends),
    );
    report.set(
        "storage.wal_fsync_ns",
        per(tally.wal_sync_ns, tally.wal_appends),
    );
    report.set(
        "storage.blob_put_ns",
        per(tally.blob_put_ns, tally.blob_puts),
    );
    report.set(
        "storage.blob_get_ns",
        per(tally.blob_get_ns, tally.blob_gets),
    );

    // Client-side costs. Replay workloads measured them while the trace
    // was generated; Scheme 1's come from the spans above.
    if is_s1 {
        report.set("core.client_search_ns", mean("core.client_search"));
        // ElGamal encryption and the PRF run in the client's store path
        // (set-up here), so they are timed as primitives.
        let group = ModpGroup::modp_256();
        let elgamal = ElGamal::from_master_key(group, &[9u8; 32]);
        let mut drbg = HmacDrbg::from_u64(opts.seed);
        report.set(
            "primitives.elgamal_encrypt_ns",
            micro(50, || {
                std::hint::black_box(elgamal.encrypt_nonce(&[3u8; 32], &mut drbg));
            }),
        );
    } else {
        let cost = traces
            .iter()
            .fold(trace::ClientCost::default(), |mut a, t| {
                a.search_ns += t.client.search_ns;
                a.searches += t.client.searches;
                a.update_ns += t.client.update_ns;
                a.updates += t.client.updates;
                a
            });
        report.set("core.client_search_ns", per(cost.search_ns, cost.searches));
        report.set("core.client_update_ns", per(cost.update_ns, cost.updates));
    }
    let prf = Prf::new([1u8; 32]);
    report.set(
        "primitives.prf_ns",
        micro(2000, || {
            std::hint::black_box(prf.eval(b"cond:influenza"));
        }),
    );

    // What the replay explains of the untraced run's server CPU per op:
    // every server-side span's self time, per op. The rest is syscalls,
    // kernel TCP and scheduling.
    let server_ns: u64 = selfs
        .iter()
        .filter(|(name, _)| {
            !matches!(
                **name,
                "phr.find_by_code"
                    | "core.client_search"
                    | "primitives.elgamal_decrypt"
                    // Waiting for the disk is not CPU.
                    | "storage.wal_fsync"
                    | "request"
            )
        })
        .map(|(name, &(ns, _))| {
            // Scheme 1's EtM opens happen in the client.
            if is_s1 && *name == "primitives.etm_open" {
                0
            } else {
                ns
            }
        })
        .sum();
    let explained_us = per(server_ns, ops) / 1e3;
    // The spans are raw time; the untraced CPU figure is at reference
    // speed, so put back the slowdown that was divided out of it.
    let slowdown = report.get("loadgen.host_slowdown").unwrap_or(1.0);
    if let Some(cpu) = report.get("server_cpu_us_per_op").filter(|c| *c > 0.0) {
        report.set("trace.coverage_ratio", explained_us / (cpu * slowdown));
    }
    run::progress("traced");
    Ok(tr.spans)
}

/// `sse-perf trace <workload>`: generate the trace and run the traced
/// pass alone (no child daemon, so no counter deltas, no coverage ratio).
///
/// # Errors
/// As [`traced_pass`].
pub fn trace_only(opts: &RunOpts) -> Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let traces = if run::is_replay(opts.workload) {
        run::generate_for(opts)
    } else {
        Vec::new()
    };
    let mut report = Report::new(opts.workload);
    report.trace_sha256 = trace::trace_sha256(&traces);
    let spans = traced_pass(opts, &traces, None, &mut report)?;
    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    std::fs::write(&path, spans_json(&spans).compact())?;
    report.print_lines();
    println!("wrote {} spans to {}", spans.len(), path.display());
    Ok(())
}
