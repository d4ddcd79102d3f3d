//! Scheme 2 server.
//!
//! Per keyword tag, the server keeps a [`GenerationList`] of masked
//! generations. On update it appends blindly (it cannot decrypt anything).
//! On search it receives `(t_w, t'_w)`, finds the tag in `O(log u)`, then
//! *walks the hash chain forward* from `t'_w`: at each element `e` it
//! checks `f'(e)` against the commitment of the next locked generation
//! (newest first), decrypting as commitments match. The walk length is the
//! measurable `l/2x`-style cost of Table 1 — exposed in
//! [`Scheme2ServerStats::chain_steps`].
//!
//! `Scheme2Server` is the [`crate::engine`]'s `IndexEngine` at Scheme 2:
//! sharding, journaling, group commit, snapshot reads, checkpointing,
//! recovery, the constructors, the library path, the `UPDATE_MANY` batch
//! and the `Service` impl are written there once for both schemes. This
//! module is what Scheme 2 plugs in — its `SchemeOps` impl — the paper's
//! request semantics and counters behind it, and the reactor's
//! never-wait path (`try_handle_inline`). A search resolves the tag — and
//! walks the whole chain — against the shard's snapshot, never taking the
//! shard mutex, never waiting on an fsync and never writing the index:
//! what a search learned (§5.6 Optimization 1's decrypted ids, the chain
//! key it walked from) is filed in one per-keyword cache in the engine's
//! per-shard sidecar ([`SearchMemo`]), so only a mutation ever publishes
//! a snapshot.
//!
//! The types `SchemeOps` names are `pub` in this private module: the
//! sealed trait is nominally public, so its associated types must be.

use super::protocol::{self, GenerationEntryRef, Request};
use super::Scheme2Config;
use crate::commit::Reply;
use crate::engine::{search_each, IndexEngine};
use crate::error::{Result, SseError};
use crate::ops::{BatchPart, SchemeOps, ShardData};
use crate::proto_common;
use parking_lot::Mutex;
use sse_index::bptree::BpTree;
use sse_index::postings::{GenerationList, GenerationRef};
use sse_net::wire::{WireReader, WireWriter};
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::ChainWalker;
use sse_storage::StorageError;
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Out-of-band observability counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Scheme2ServerStats {
    /// Searches served.
    pub searches: u64,
    /// Total forward hash-chain steps across all searches.
    pub chain_steps: u64,
    /// Generations decrypted across all searches.
    pub generations_decrypted: u64,
    /// Generations served straight from the Optimization-1 cache.
    pub generations_from_cache: u64,
    /// Generation entries appended (applied, not merely staged).
    pub generations_appended: u64,
    /// B+-tree nodes visited across lookups.
    pub tree_nodes_visited: u64,
    /// Searches answered entirely from the per-keyword search memo
    /// (no tree lookup, no decryption, at most a delta chain walk).
    pub cache_hits: u64,
    /// Cached-eligible searches that had to take the cold path (no memo
    /// entry, or the shard changed since it was recorded).
    pub cache_misses: u64,
    /// Chain steps memo hits avoided relative to an uncached walk.
    pub walk_steps_saved: u64,
}

/// Lock-free cells behind [`Scheme2ServerStats`], so concurrent requests
/// can count without taking any index lock.
#[derive(Default)]
struct StatsCells {
    searches: AtomicU64,
    chain_steps: AtomicU64,
    generations_decrypted: AtomicU64,
    generations_from_cache: AtomicU64,
    tree_nodes_visited: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    walk_steps_saved: AtomicU64,
}

/// The server's one plaintext cache, per keyword: what it learned from
/// serving the last search — §5.6 Optimization 1's decrypted ids and the
/// chain key the walk started from (DESIGN.md §4f). Purely in-memory —
/// never persisted, rebuilt by the first search after recovery.
///
/// Leakage note (DESIGN.md §4f): every field is a value the server
/// already computed while serving a search the client asked for — the
/// revealed trapdoor, the unlocked id set, the walk it performed, a
/// commitment it stores. The cache changes *when* the server
/// recomputes, never *what* it knows.
#[derive(Clone)]
struct SearchMemo {
    /// Shard `applied_seq` the answer was computed at: it is the whole
    /// answer (an exact hit) while the shard's snapshot still carries it.
    applied_seq: u64,
    /// Newest trapdoor seen for this tag (the walk start point).
    t_prime: [u8; 32],
    /// The unlocked document-id set, sorted. Shared, so a hit takes a
    /// reference under the sidecar mutex instead of copying the list there.
    ids: Arc<[u64]>,
    /// Chain steps a from-scratch walk from `t_prime` would cost — what an
    /// exact hit saves.
    walk_cost: u64,
    /// Generations `ids` covers (credited to `generations_from_cache`
    /// whenever the entry is used).
    gens: u64,
    /// Key commitment of generation `gens − 1`, the newest one covered:
    /// what makes `ids` a decrypted prefix of a list that has grown since.
    last_commitment: [u8; 32],
}

impl SearchMemo {
    /// The prefix rule: `ids` stands for `list[..gens]` iff the entry is
    /// no newer than the snapshot `list` came from and the newest covered
    /// generation is still the one recorded — lists only grow between
    /// resets, which [`ShardCache::reset_seq`] is for: re-appending under
    /// the same chain keys reproduces the commitment.
    fn covers_prefix_of(&self, list: &GenerationList, snap_seq: u64) -> bool {
        let newest = (self.gens as usize)
            .checked_sub(1)
            .and_then(|i| list.get(i));
        self.applied_seq <= snap_seq
            && newest.is_some_and(|g| *g.key_commitment == self.last_commitment)
    }
}

/// One shard's entries: only for tags found in its tree, and emptied by
/// a `ResetIndex` — so bounded by the index they shadow.
#[derive(Default)]
pub struct ShardCache {
    entries: HashMap<[u8; 32], SearchMemo>,
    /// Seq of the shard's last `ResetIndex`. An answer computed from an
    /// older snapshot describes an index that is gone, and is never filed.
    reset_seq: u64,
}

/// Most document ids a memo entry may hold and still be answered on the
/// caller's thread by [`Scheme2Server::try_handle_inline`]. A head-of-line
/// guard, not a break-even: a worker would copy the same blobs, but there
/// the copy holds up one worker, here every connection of the reactor.
/// 32 keeps the lookups near one hop's worth of time (hop ≈ 4.3 µs ÷
/// `storage.blob_get_ns` ≈ 0.16 µs ≈ 27) — an extrapolation: every
/// measured inline reply carries one document, over one connection
/// (DESIGN.md §4n, ROADMAP item 1).
const INLINE_MAX_DOCS: usize = 32;

/// Most blob bytes such an answer may copy, checked against the stored
/// lengths before the copy. Ids bound the lookups, this bounds the memcpy
/// and what the reply adds to the connection's write queue: blobs run to
/// megabytes (frames to 64 MiB), and one tenant's large documents must not
/// stall the others' connections. 4 KiB is an untuned placeholder
/// (ROADMAP 2A), unmeasured as above.
const INLINE_MAX_BYTES: usize = 4096;

/// What an `AppendGenerations` may cost, in bytes copied, to be applied
/// on the caller's thread. Every in-memory append publishes, so the next
/// append to a keyword copies its list (the snapshot still holds it) and
/// the path to it. A list is one block, so its copy is one `memcpy` of
/// its bytes: each keyword is charged its list's
/// [`GenerationList::stored_bytes`] (the block less 4 B a generation)
/// plus [`INLINE_PATH_BYTES`]. `harness p1`'s
/// `prim_bptree/append_after_publish` rows (116 B a generation) read
/// ≈ 1.1 µs at 32 generations, 1.4 at 64, 1.9 at 128 and 5.7 at 256
/// (2-vCPU Xeon VM): ≈ 0.8 µs for the path, then ≈ 75 ns a KiB up to
/// 15 KiB and ≈ 250 ns a KiB beyond. So 32 KiB is at most ≈ 5.5 µs of
/// copying, about 1.3 of the ≈ 4.3 µs hops a decline costs
/// before a worker does the same copy (DESIGN.md §4n): one keyword of
/// 28 KiB (≈ 270 generations of one id), two of 12 KiB, or eight new
/// ones; `INLINE_MAX_BYTES` alone would let it name 56.
const INLINE_MAX_COPY_BYTES: usize = 32 * 1024;

/// The root-to-leaf path copy an append pays per keyword, in list bytes
/// of about the same time (≈ 0.8 µs at 75–250 ns a KiB is 3–11 KiB; see
/// above). It is what bounds the new keywords one append may name.
const INLINE_PATH_BYTES: usize = 4 * 1024;

/// How far an exact hit may go to produce its answer.
#[derive(Clone, Copy)]
enum MemoMode {
    /// A worker's: wait for the store lock, walk the delta from a newer
    /// trapdoor (at most `max_walk` steps), fetch any number of blobs
    /// from either backend.
    Worker { max_walk: usize },
    /// The reactor's (DESIGN.md §4n): `try_` locks only, the memoized
    /// trapdoor only, at most [`INLINE_MAX_DOCS`] blobs of at most
    /// [`INLINE_MAX_BYTES`] together, from memory.
    Inline,
}

/// Scheme 2's plug into the engine, and its state: its config and
/// counters. Nothing but the quiescence lock itself needs guarding, so
/// the meta is `()`.
pub struct Scheme2 {
    config: Scheme2Config,
    stats: StatsCells,
}

/// The Scheme 2 server: the [`IndexEngine`] at Scheme 2, whose
/// constructors take a [`Scheme2Config`].
pub type Scheme2Server = IndexEngine<Scheme2>;

impl SchemeOps for Scheme2 {
    type Value = GenerationList;
    type Meta = ();
    /// The per-keyword search cache (see [`SearchMemo`]). A short-critical-
    /// section mutex: held only for a lookup or an insert, never across
    /// crypto or I/O, so the search path stays effectively lock-free.
    /// Lock order: a search takes it alone; applying a `ResetIndex` takes
    /// it under the shard's data lock.
    type Sidecar = Mutex<ShardCache>;
    type Config = Scheme2Config;
    type EntryRef<'a> = GenerationEntryRef<'a>;

    const STEM: &'static str = "scheme2";
    const MAGIC: &'static [u8; 8] = b"SSE2IDX2";
    const MIN_VALUE_BYTES: usize = 8;
    const BATCH_PARTS: &'static str = "batch parts must be mutations (PutDocs / AppendGenerations)";

    fn new(config: Scheme2Config) -> (Self, ()) {
        let stats = StatsCells::default();
        (Scheme2 { config, stats }, ())
    }

    fn encode_meta((): &()) -> Vec<u8> {
        Vec::new()
    }

    fn check_meta((): &(), _stored: &[u8]) -> Result<()> {
        Ok(())
    }

    /// The Optimization-1 plaintext cache is *not* persisted — it is an
    /// optimization the next search rebuilds, and keeping recovered state
    /// minimal follows the principle of storing only what is necessary.
    fn encode_value(list: &GenerationList, w: &mut WireWriter) {
        w.put_u64(list.len() as u64);
        for generation in list.iter() {
            w.put_bytes(generation.masked_ids);
            w.put_array(generation.key_commitment);
        }
    }

    /// One exact allocation per list: a first pass over a copy of the
    /// reader sizes the block (and finds any truncation before anything is
    /// built), the second copies each generation into it.
    fn decode_value(r: &mut WireReader<'_>, (): &()) -> Result<GenerationList> {
        let gens = r.get_count(40)?;
        let mut sizing = r.clone();
        let mut masked_bytes = 0;
        for _ in 0..gens {
            masked_bytes += sizing.get_bytes()?.len();
            sizing.get_array(32)?;
        }
        let mut list = GenerationList::with_capacity(gens, masked_bytes);
        for _ in 0..gens {
            let masked_ids = r.get_bytes()?;
            list.push(masked_ids, &r.get_array32()?);
        }
        Ok(list)
    }

    fn apply(
        data: &mut ShardData<Self>,
        cache: &Mutex<ShardCache>,
        (): &mut (),
        record: &[u8],
    ) -> Result<u64> {
        if record.first() == Some(&protocol::req::APPEND_GENERATIONS) {
            let entries = protocol::decode_append_generations(record)?;
            append_generations(data, &entries);
            return Ok(entries.len() as u64);
        }
        match protocol::decode_request(record)? {
            Request::ResetIndex => {
                reset_index(data);
                // The entries go with the tree they shadowed; the seq keeps
                // a search still on an older snapshot from filing one later.
                let mut cache = cache.lock();
                cache.entries = HashMap::new();
                cache.reset_seq = data.applying_seq();
                Ok(0)
            }
            _ => Err(SseError::Storage(StorageError::Corrupt {
                what: "scheme2 index journal",
                detail: "journal holds a non-mutating request".to_string(),
            })),
        }
    }

    fn is_read(tag: u8) -> bool {
        protocol::is_read(tag)
    }

    fn serve(
        server: &Scheme2Server,
        request: &[u8],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>> {
        if request.first() == Some(&protocol::req::APPEND_GENERATIONS) {
            return match protocol::decode_append_generations(request) {
                Ok(entries) => server.append_sharded(&entries, Some(park)),
                Err(e) => Some(proto_common::encode_error(&e.to_string())),
            };
        }
        let reply = match protocol::decode_request(request) {
            Ok(Request::Search { tag, t_prime }) => match server.search_one(tag, t_prime) {
                Ok(docs) => proto_common::encode_result(&docs),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Ok(Request::ResetIndex) => {
                // ResetIndex rewrites every shard, so the batch spans all N.
                let idxs: Vec<usize> = (0..server.num_shards()).collect();
                let resets = vec![protocol::encode_reset_index(); idxs.len()];
                return server.mutate(&server.pipeline(), &idxs, resets, park);
            }
            Ok(Request::PutDocs(docs)) => server.ack(server.put_docs(&docs)),
            Ok(Request::SearchMany(trapdoors)) => {
                search_each(trapdoors.into_iter(), |(tag, t)| server.search_one(tag, t))
            }
            Ok(Request::Checkpoint) => server.handle_checkpoint(),
            Ok(Request::RemoveDocs(ids)) => server.ack(server.remove_docs(&ids)),
            // An append never gets here: it is read in place above.
            Ok(_) => proto_common::encode_error("append served twice"),
            Err(e) => proto_common::encode_error(&e.to_string()),
        };
        Some(reply)
    }

    fn batch_part(part: &[u8]) -> Result<Option<BatchPart<'_, GenerationEntryRef<'_>>>> {
        if part.first() == Some(&protocol::req::APPEND_GENERATIONS) {
            let entries = protocol::decode_append_generations(part)?;
            return Ok(Some(BatchPart::Index(entries)));
        }
        Ok(match protocol::decode_request(part)? {
            Request::PutDocs(docs) => Some(BatchPart::Docs(docs)),
            _ => None,
        })
    }

    fn apply_batch(
        server: &Scheme2Server,
        docs: &[(u64, &[u8])],
        entries: &[GenerationEntryRef<'_>],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>> {
        if let Err(e) = server.put_docs(docs) {
            return Some(server.mutation_failed(&e));
        }
        server.append_sharded(entries, Some(park))
    }
}

/// Append generation entries to the shard tree, each copied from the
/// record straight into its keyword's list.
fn append_generations(data: &mut ShardData<Scheme2>, entries: &[GenerationEntryRef<'_>]) {
    for entry in entries {
        data.note_mutated(entry.tag);
        match data.tree.get_mut(&entry.tag) {
            Some(list) => list.push(entry.sealed_ids, &entry.commitment),
            None => {
                let mut list = GenerationList::new();
                list.push(entry.sealed_ids, &entry.commitment);
                data.tree.insert(entry.tag, list);
            }
        }
    }
}

/// Drop the shard's keyword index.
fn reset_index(data: &mut ShardData<Scheme2>) {
    data.note_cleared();
    data.tree = BpTree::new();
}

impl Scheme2Server {
    /// Observability counters.
    #[must_use]
    pub fn stats(&self) -> Scheme2ServerStats {
        Scheme2ServerStats {
            searches: self.scheme.stats.searches.load(Ordering::Relaxed),
            chain_steps: self.scheme.stats.chain_steps.load(Ordering::Relaxed),
            generations_decrypted: self
                .scheme
                .stats
                .generations_decrypted
                .load(Ordering::Relaxed),
            generations_from_cache: self
                .scheme
                .stats
                .generations_from_cache
                .load(Ordering::Relaxed),
            generations_appended: self.entries_applied().load(Ordering::Relaxed),
            tree_nodes_visited: self.scheme.stats.tree_nodes_visited.load(Ordering::Relaxed),
            cache_hits: self.scheme.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.scheme.stats.cache_misses.load(Ordering::Relaxed),
            walk_steps_saved: self.scheme.stats.walk_steps_saved.load(Ordering::Relaxed),
        }
    }

    /// Total stored index bytes across all generation lists (diagnostic).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.lock_all_data()
            .iter()
            .map(|s| s.tree.iter().map(|(_, l)| l.stored_bytes()).sum::<usize>())
            .sum()
    }

    /// Answer `request` on the calling thread **only if that can neither
    /// wait nor run long** — what lets the daemon's reactor skip the
    /// worker hop (DESIGN.md §4n). Two kinds of request qualify.
    ///
    /// A `Search`, when all of these hold:
    ///
    /// * its memo entry is current for the shard's published snapshot and
    ///   was filed under this exact trapdoor, so the answer needs no tree
    ///   lookup, no chain step and no decryption;
    /// * the entry holds at most `INLINE_MAX_DOCS` ids, whose blobs
    ///   total at most `INLINE_MAX_BYTES`;
    /// * the epoch seqlock, the snapshot cell, the memo mutex and the
    ///   document-store lock were each free on the first `try_`, and no
    ///   multi-shard swap window was open;
    /// * the document store reads from memory (in-memory and `btree`;
    ///   `lsm` reads run files and never qualifies).
    ///
    /// A `PutDocs`, `RemoveDocs` or `AppendGenerations`, when all of these
    /// hold:
    ///
    /// * the server is in memory (a durable mutation waits for an fsync);
    /// * the request is at most `INLINE_MAX_BYTES`;
    /// * the keywords an append touches cost at most
    ///   `INLINE_MAX_COPY_BYTES` together, each its list's stored bytes
    ///   plus `INLINE_PATH_BYTES`;
    /// * every lock it needs — the document-store lock, or the quiescence
    ///   lock, the shard data locks, the swap window and the snapshot
    ///   cells — was free on the first `try_`, all taken before anything
    ///   is applied, and the epoch is even.
    ///
    /// The reply is byte-identical to [`crate::engine::IndexAdmin::handle_shared`]'s and
    /// moves the same counters by the same amounts. `None` declines having
    /// changed nothing — no counter or seq moved — and the caller hands
    /// the untouched request to a worker.
    pub fn try_handle_inline(&self, request: &[u8]) -> Option<Vec<u8>> {
        match *request.first()? {
            protocol::req::SEARCH => self.try_search_inline(request),
            protocol::req::PUT_DOCS
            | protocol::req::REMOVE_DOCS
            | protocol::req::APPEND_GENERATIONS => self.try_mutate_inline(request),
            _ => None,
        }
    }

    /// The `Search` half of [`Self::try_handle_inline`].
    fn try_search_inline(&self, request: &[u8]) -> Option<Vec<u8>> {
        if !self.scheme.config.server_cache {
            return None;
        }
        let Ok(Request::Search { tag, t_prime }) = protocol::decode_request(request) else {
            return None; // malformed: the worker path words the error
        };
        let si = self.shard_of(&tag);
        let snap = self.try_snap(si)?;
        let sidecar = self.sidecar(si);
        let memo = sidecar.try_lock()?.entries.get(&tag).cloned()?;
        let docs = self.try_memo(snap.applied_seq, &tag, &t_prime, &memo, MemoMode::Inline)?;
        Some(proto_common::encode_result(&docs))
    }

    /// The mutation half of [`Self::try_handle_inline`]: the worker path's
    /// apply under `try_` locks (`IndexEngine::try_mutate`).
    fn try_mutate_inline(&self, request: &[u8]) -> Option<Vec<u8>> {
        if self.is_durable() || request.len() > INLINE_MAX_BYTES {
            return None;
        }
        if request.first() == Some(&protocol::req::APPEND_GENERATIONS) {
            let entries = protocol::decode_append_generations(request).ok()?;
            return self.append_sharded(&entries, None::<fn() -> Reply>);
        }
        let outcome = match protocol::decode_request(request).ok()? {
            Request::PutDocs(docs) => self.try_put_docs(&docs)?,
            Request::RemoveDocs(ids) => self.try_remove_docs(&ids)?,
            _ => return None,
        };
        Some(self.ack(outcome))
    }

    /// Append generation entries: cut each shard's record from their bytes
    /// and run the records as one mutation. With a worker's `park` it
    /// waits for its locks (and parks, when durable); `None` is the inline
    /// path ([`Self::try_handle_inline`]), which applies under `try_` locks
    /// only if the touched keywords fit the inline budget, and otherwise
    /// declines with `None`.
    fn append_sharded(
        &self,
        entries: &[GenerationEntryRef<'_>],
        park: Option<impl FnOnce() -> Reply>,
    ) -> Option<Vec<u8>> {
        if entries.is_empty() {
            return Some(proto_common::encode_ack());
        }
        let wire = entries.iter().map(|e| (e.tag, e.wire));
        let (idxs, records) = self.shard_records(&[protocol::req::APPEND_GENERATIONS], wire, false);
        let Some(park) = park else {
            // Charged against one budget as each shard's data lock is
            // taken; a tag named twice is charged twice.
            let budget = Cell::new(INLINE_MAX_COPY_BYTES);
            let admits = |i: usize, data: &ShardData<Scheme2>| {
                entries
                    .iter()
                    .filter(|e| self.shard_of(&e.tag) == i)
                    .all(|e| {
                        let held = data
                            .tree
                            .get(&e.tag)
                            .map_or(0, GenerationList::stored_bytes);
                        let left = budget.get().checked_sub(held + INLINE_PATH_BYTES);
                        left.inspect(|&left| budget.set(left)).is_some()
                    })
            };
            return self.try_mutate(&idxs, &records, &admits);
        };
        self.mutate(&self.pipeline(), &idxs, records, park)
    }

    /// Execute one Fig. 4 search, returning the matching encrypted
    /// documents or an error description. Lock-free against the index:
    /// the tag lookup and the entire chain walk run on the shard's
    /// immutable snapshot, never waiting on a shard mutex or an fsync, and
    /// what the search learned goes to the sidecar, never into the tree.
    fn search_one(
        &self,
        tag: [u8; 32],
        t_prime: [u8; 32],
    ) -> std::result::Result<Vec<(u64, Vec<u8>)>, String> {
        let max_walk = self.scheme.config.chain_length as usize + 1;
        let si = self.shard_of(&tag);
        let snap = self.snap(si);
        // The search's one sidecar read, for both uses below (empty with the
        // cache off: nothing is ever filed). The clone is the id list's
        // reference plus 88 bytes; no crypto or blob copy under the mutex.
        let memo = self.sidecar(si).lock().entries.get(&tag).cloned();

        // Exact hit: if this keyword was searched before and the shard
        // has not changed since, answer without touching the tree or the
        // chain (same trapdoor), or after walking only the delta between
        // the new trapdoor and the memoized one (newer trapdoor).
        if let Some(memo) = &memo {
            let mode = MemoMode::Worker { max_walk };
            if let Some(docs) = self.try_memo(snap.applied_seq, &tag, &t_prime, memo, mode) {
                return Ok(docs);
            }
        }

        let (found, tree_stats) = snap.tree.get_with_stats(&tag);
        self.scheme
            .stats
            .tree_nodes_visited
            .fetch_add(tree_stats.nodes_visited as u64, Ordering::Relaxed);
        let mut walker = ChainWalker::new(&t_prime);
        let outcome = match found {
            None => Ok(Vec::new()),
            Some(list) => {
                // Optimization 1: with the ids of a prefix of the list on
                // file, only what was appended since is walked and decrypted.
                let prefix = memo.filter(|m| m.covers_prefix_of(list, snap.applied_seq));
                if self.scheme.config.server_cache {
                    self.scheme
                        .stats
                        .cache_misses
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.unlock(list, prefix.as_ref(), &mut walker).map(|ids| {
                    if let Some(newest) = list.last() {
                        let memo = SearchMemo {
                            applied_seq: snap.applied_seq,
                            t_prime,
                            ids: Arc::clone(&ids),
                            walk_cost: walker.steps() as u64,
                            gens: list.len() as u64,
                            last_commitment: *newest.key_commitment,
                        };
                        self.store_memo(si, tag, memo);
                    }
                    self.get_many(&ids)
                })
            }
        };
        // The one exit of a search that missed the exact hit: it counts
        // whatever happened, and so do the steps it walked before a failure
        // — `chain_steps` must not read low exactly when something is wrong.
        self.scheme.stats.searches.fetch_add(1, Ordering::Relaxed);
        self.scheme
            .stats
            .chain_steps
            .fetch_add(walker.steps() as u64, Ordering::Relaxed);
        outcome
    }

    /// Unlock `list` with `walker`, which stands on the trapdoor: the sorted
    /// id set it holds. `prefix` holds the ids of its first `prefix.gens`.
    fn unlock(
        &self,
        list: &GenerationList,
        prefix: Option<&SearchMemo>,
        walker: &mut ChainWalker,
    ) -> std::result::Result<Arc<[u64]>, String> {
        let max_walk = self.scheme.config.chain_length as usize + 1;
        let (known_ids, covered): (&[u64], usize) =
            prefix.map_or((&[], 0), |m| (&m.ids, m.gens as usize));
        self.scheme
            .stats
            .generations_from_cache
            .fetch_add(covered as u64, Ordering::Relaxed);

        // Unlock the undecrypted suffix newest-to-oldest while walking the
        // chain forward from the trapdoor. Each generation decrypts to an
        // (added ids, deleted ids) pair; deletions are the beyond-paper
        // dynamic-SSE extension (an empty delete list is the paper's case).
        let locked: Vec<GenerationRef<'_>> = list.iter().skip(covered).collect();
        let mut decoded: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); locked.len()];
        for (pos, generation) in locked.iter().enumerate().rev() {
            // Advance until the commitment matches this generation's key.
            if !walker.seek_commitment(generation.key_commitment, max_walk) {
                return Err(format!(
                    "chain walk exceeded {max_walk} steps; client/server desync"
                ));
            }
            // The walker stands on the generation key: decrypt the posting
            // entry.
            let plain = EtmKey::new(walker.element())
                .open(generation.masked_ids)
                .map_err(|e| format!("generation decryption failed: {e}"))?;
            let mut r = WireReader::new(&plain);
            decoded[pos] = (|| {
                let adds = r.get_u64_vec()?;
                let dels = r.get_u64_vec()?;
                r.finish()?;
                Ok::<_, sse_net::wire::WireError>((adds, dels))
            })()
            .map_err(|e| format!("generation payload malformed: {e}"))?;
        }
        self.scheme
            .stats
            .generations_decrypted
            .fetch_add(locked.len() as u64, Ordering::Relaxed);

        // Apply generations in chronological order on top of the cached
        // prefix: adds union in, deletes remove.
        let mut id_set: BTreeSet<u64> = known_ids.iter().copied().collect();
        for (adds, dels) in &decoded {
            id_set.extend(adds);
            for id in dels {
                id_set.remove(id);
            }
        }
        // Sorted, as the reply and the cache want them; shared, so the
        // cache takes a reference.
        Ok(id_set.into_iter().collect())
    }

    /// Try to answer a search from `memo`, its keyword's entry, as an exact
    /// hit. Returns the documents on a hit, `None` on any miss (shard
    /// changed, or the delta walk from the new trapdoor never reaches the
    /// memoized one within the walk bound — the cold path then produces
    /// the correct answer or the correct desync error). Under
    /// [`MemoMode::Inline`] also `None` for anything that would wait or
    /// run long; no counter moves before the last thing that can decline.
    fn try_memo(
        &self,
        snap_seq: u64,
        tag: &[u8; 32],
        t_prime: &[u8; 32],
        memo: &SearchMemo,
        mode: MemoMode,
    ) -> Option<Vec<(u64, Vec<u8>)>> {
        if memo.applied_seq != snap_seq {
            return None;
        }
        let (delta, docs) = match mode {
            MemoMode::Worker { max_walk } => {
                // Walk forward from the (same or newer) trapdoor until it
                // meets the memoized one; the shard is unchanged, so the
                // id set is too.
                let mut walker = ChainWalker::new(t_prime);
                if !walker.seek_element(&memo.t_prime, max_walk) {
                    return None;
                }
                (walker.steps() as u64, self.get_many(&memo.ids))
            }
            MemoMode::Inline => {
                if memo.t_prime != *t_prime || memo.ids.len() > INLINE_MAX_DOCS {
                    return None;
                }
                let docs = self.try_get_many(&memo.ids, INLINE_MAX_BYTES)?;
                (0, docs)
            }
        };
        self.scheme.stats.searches.fetch_add(1, Ordering::Relaxed);
        self.scheme.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.scheme
            .stats
            .chain_steps
            .fetch_add(delta, Ordering::Relaxed);
        self.scheme
            .stats
            .walk_steps_saved
            .fetch_add(memo.walk_cost, Ordering::Relaxed);
        self.scheme
            .stats
            .generations_from_cache
            .fetch_add(memo.gens, Ordering::Relaxed);
        if delta > 0 {
            // Advance the entry to the newer trapdoor so the next repeat
            // of *this* trapdoor is a zero-walk hit.
            let mut cache = self.sidecar(self.shard_of(tag)).lock();
            if let Some(live) = cache.entries.get_mut(tag) {
                if live.applied_seq == memo.applied_seq && live.t_prime == memo.t_prime {
                    live.t_prime = *t_prime;
                    live.walk_cost = memo.walk_cost + delta;
                }
            }
        }
        Some(docs)
    }

    /// File a cold search's answer, unless the cache is off or the shard
    /// was reset since the snapshot it was computed from.
    fn store_memo(&self, si: usize, tag: [u8; 32], memo: SearchMemo) {
        let mut cache = self.sidecar(si).lock();
        if self.scheme.config.server_cache && memo.applied_seq >= cache.reset_seq {
            cache.entries.insert(tag, memo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DurableOptions;
    use crate::proto_common::{decode_ack, decode_result, decode_result_owned};
    use crate::scheme2::key_commitment;
    use crate::scheme2::protocol::GenerationEntry;
    use sse_net::link::Service;
    use sse_net::wire::WireWriter;
    use sse_primitives::hashchain::{walk_forward, HashChain};

    fn sealed_ids(key: &[u8; 32], ids: &[u64]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64_vec(ids);
        w.put_u64_vec(&[]); // no deletions
        EtmKey::new(key).seal(&w.finish())
    }

    fn server() -> Scheme2Server {
        Scheme2Server::new_in_memory(Scheme2Config::standard().with_chain_length(64))
    }

    /// The stored form of a generation list — snapshots, and the values
    /// an `lsm` run holds — is pinned byte for byte, whatever the list's
    /// layout in memory: `u64` count, then per generation a `u64`-length-
    /// prefixed `masked_ids` and the 32-byte commitment. One of three
    /// bytes, one empty and one of ten.
    #[test]
    fn value_encoding_is_pinned_and_decodes_exactly() {
        let mut list = GenerationList::new();
        let ten: Vec<u8> = (0..10).collect();
        for (masked_ids, c) in [(&[0xA1, 0xA2, 0xA3][..], 0x11), (&[], 0x22), (&ten, 0x33)] {
            list.push(masked_ids, &[c; 32]);
        }
        let mut w = WireWriter::new();
        Scheme2::encode_value(&list, &mut w);
        let encoded = w.finish();
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        let commitment = |c: &str| c.repeat(32);
        let want = [
            "0300000000000000",
            "0300000000000000a1a2a3",
            &commitment("11"),
            "0000000000000000",
            &commitment("22"),
            "0a0000000000000000010203040506070809",
            &commitment("33"),
        ]
        .concat();
        assert_eq!(hex, want);

        let mut r = WireReader::new(&encoded);
        let decoded = Scheme2::decode_value(&mut r, &()).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, list);
        // Every truncation is an error, never a panic or a shorter list.
        for cut in 0..encoded.len() {
            let mut r = WireReader::new(&encoded[..cut]);
            assert!(Scheme2::decode_value(&mut r, &()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn append_then_search_single_generation() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"one".to_vec()),
            (2, b"two".to_vec()),
        ]));

        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k1 = chain.key_for_counter(1).unwrap();
        let tag = [9u8; 32];
        let resp = s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1, 2]),
            commitment: key_commitment(&k1),
        }]));
        decode_ack(&resp).unwrap();

        // Trapdoor at the same counter: zero walk steps.
        let resp = s.handle(&protocol::encode_search(&tag, &k1));
        let docs = decode_result_owned(&resp).unwrap();
        assert_eq!(docs, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        assert_eq!(s.stats().chain_steps, 0);
        assert_eq!(s.stats().generations_decrypted, 1);
    }

    #[test]
    fn newer_trapdoor_unlocks_older_generations() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"a".to_vec()),
            (2, b"b".to_vec()),
        ]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [7u8; 32];
        // Two generations at counters 1 and 5.
        for (ctr, id) in [(1u64, 1u64), (5, 2)] {
            let k = chain.key_for_counter(ctr).unwrap();
            s.handle(&protocol::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k, &[id]),
                commitment: key_commitment(&k),
            }]));
        }
        // Trapdoor at counter 9: walk 4 steps to reach k(5), then 4 more to
        // k(1).
        let t9 = chain.key_for_counter(9).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t9));
        let docs = decode_result(&resp).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(s.stats().chain_steps, 8);
    }

    #[test]
    fn cache_skips_decrypted_generations() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"a".to_vec()),
            (2, b"b".to_vec()),
        ]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [3u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));

        let t = chain.key_for_counter(2).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        assert_eq!(s.stats().generations_decrypted, 1);

        // Second search: generation already cached, nothing to decrypt.
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        assert_eq!(s.stats().generations_decrypted, 1, "no re-decryption");
        assert_eq!(s.stats().generations_from_cache, 1);

        // Append another generation; only the new one is decrypted.
        let k3 = chain.key_for_counter(3).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k3, &[2]),
            commitment: key_commitment(&k3),
        }]));
        let t4 = chain.key_for_counter(4).unwrap();
        let docs = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(s.stats().generations_decrypted, 2);
    }

    #[test]
    fn cache_disabled_redecrypts_every_time() {
        let mut s = Scheme2Server::new_in_memory(
            Scheme2Config::standard()
                .with_chain_length(64)
                .with_server_cache(false),
        );
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [3u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t = chain.key_for_counter(2).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        assert_eq!(
            s.stats().generations_decrypted,
            2,
            "no cache: decrypt twice"
        );
    }

    #[test]
    fn memo_exact_hit_skips_walk_and_tree() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [5u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t3 = chain.key_for_counter(3).unwrap();
        let cold = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t3))).unwrap();
        let after_cold = s.stats();
        assert_eq!(after_cold.chain_steps, 2);
        assert_eq!(after_cold.cache_misses, 1);

        let warm = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t3))).unwrap();
        assert_eq!(warm, cold, "memo hit must be byte-identical");
        let after_warm = s.stats();
        assert_eq!(after_warm.cache_hits, 1);
        assert_eq!(after_warm.chain_steps, 2, "zero additional walk");
        assert_eq!(after_warm.walk_steps_saved, 2);
        assert_eq!(after_warm.tree_nodes_visited, after_cold.tree_nodes_visited);
        assert_eq!(after_warm.generations_decrypted, 1);
    }

    #[test]
    fn memo_delta_walk_only_covers_the_gap() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [6u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t2 = chain.key_for_counter(2).unwrap();
        let cold = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t2))).unwrap();
        assert_eq!(s.stats().chain_steps, 1);

        // A search from a *newer* trapdoor (fake updates advanced the
        // counter) walks only the 3-step delta down to the memoized one.
        let t5 = chain.key_for_counter(5).unwrap();
        let delta = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t5))).unwrap();
        assert_eq!(delta, cold);
        let st = s.stats();
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.chain_steps, 1 + 3);
        assert_eq!(st.walk_steps_saved, 1);

        // Repeating the newer trapdoor is now a zero-walk hit.
        decode_result(&s.handle(&protocol::encode_search(&tag, &t5))).unwrap();
        let st = s.stats();
        assert_eq!(st.cache_hits, 2);
        assert_eq!(st.chain_steps, 4, "no additional steps");
        assert_eq!(st.walk_steps_saved, 1 + 4);
    }

    #[test]
    fn memo_invalidated_by_append_and_reset() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"a".to_vec()),
            (2, b"b".to_vec()),
        ]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [7u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t2 = chain.key_for_counter(2).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t2))).unwrap();

        // Append invalidates: the next search must see the new generation.
        let k3 = chain.key_for_counter(3).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k3, &[2]),
            commitment: key_commitment(&k3),
        }]));
        let t4 = chain.key_for_counter(4).unwrap();
        let docs = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert_eq!(docs.len(), 2, "append visible despite memo");
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cache_misses, 2);

        // Reset invalidates: the tag is gone.
        decode_ack(&s.handle(&protocol::encode_reset_index())).unwrap();
        let docs = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert!(docs.is_empty(), "reset visible despite memo");
    }

    #[test]
    fn memo_declines_stale_trapdoors() {
        // A trapdoor *older* than the memoized one can never reach the
        // memo key by walking forward, so the memo declines and the cold
        // path answers — here from the Optimization-1 plaintext cache,
        // byte-identically to a server without the memo layer.
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [8u8; 32];
        let k5 = chain.key_for_counter(5).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k5, &[1]),
            commitment: key_commitment(&k5),
        }]));
        let t6 = chain.key_for_counter(6).unwrap();
        let cold = decode_result_owned(&s.handle(&protocol::encode_search(&tag, &t6))).unwrap();
        let t1 = chain.key_for_counter(1).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t1));
        assert_eq!(decode_result_owned(&resp).unwrap(), cold);
        assert_eq!(s.stats().cache_hits, 0, "memo must not hit");

        // With a still-locked newer generation the desync error is
        // preserved exactly as without the memo.
        let k10 = chain.key_for_counter(10).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k10, &[2]),
            commitment: key_commitment(&k10),
        }]));
        let t7 = chain.key_for_counter(7).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t7));
        assert!(decode_result(&resp).is_err(), "must not unlock the future");
    }

    /// Store `n` documents under `tag` in one generation and search it
    /// once, so the memo holds the answer; returns that search request.
    fn warm(s: &Scheme2Server, tag: [u8; 32], n: u64) -> Vec<u8> {
        warm_sized(s, tag, n, 5)
    }

    /// [`warm`] with blobs of `blob_len` bytes each.
    fn warm_sized(s: &Scheme2Server, tag: [u8; 32], n: u64, blob_len: usize) -> Vec<u8> {
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let ids: Vec<u64> = (1..=n).collect();
        let docs: Vec<(u64, Vec<u8>)> = ids
            .iter()
            .map(|&id| (id, vec![id as u8; blob_len]))
            .collect();
        decode_ack(&s.handle_shared(&protocol::encode_put_docs(&docs))).unwrap();
        let k1 = chain.key_for_counter(1).unwrap();
        let append = protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &ids),
            commitment: key_commitment(&k1),
        }]);
        decode_ack(&s.handle_shared(&append)).unwrap();
        let search = protocol::encode_search(&tag, &chain.key_for_counter(2).unwrap());
        assert_eq!(
            decode_result_owned(&s.handle_shared(&search)).unwrap(),
            docs
        );
        search
    }

    /// Everything a request can move: the scheme's counters, every
    /// shard's published seq, the snapshot swaps, the stored documents,
    /// the keywords and the contention counts.
    fn footprint(s: &Scheme2Server) -> impl PartialEq + std::fmt::Debug {
        let seqs: Vec<u64> = (0..s.num_shards())
            .map(|i| s.hold_snapshot_cell(i).applied_seq)
            .collect();
        (
            s.stats(),
            seqs,
            s.commit_counters(),
            s.stored_docs(),
            s.unique_keywords(),
            s.shard_contention(),
        )
    }

    /// The inline path must decline `request` while `hold`'s guard is
    /// held, having changed nothing at all and asked for no reply buffer.
    fn assert_declines_under<G>(
        s: &Scheme2Server,
        request: &[u8],
        why: &str,
        hold: impl FnOnce() -> G,
    ) {
        let before = footprint(s);
        let held = hold();
        let reply = s.try_handle_inline(request);
        drop(held);
        assert!(reply.is_none(), "must decline: {why}");
        assert!(footprint(s) == before, "a decline changes nothing: {why}");
    }

    fn assert_declines(s: &Scheme2Server, request: &[u8], why: &str) {
        assert_declines_under(s, request, why, || ());
    }

    #[test]
    fn inline_answer_is_the_worker_answer_in_bytes_and_counters() {
        let tag = [0x21u8; 32];
        let (worker, inline) = (server(), server());
        let request = warm(&worker, tag, 3);
        assert_eq!(warm(&inline, tag, 3), request);
        let before = inline.stats();
        assert_eq!(worker.stats(), before);

        let want = worker.handle_shared(&request);
        let got = inline
            .try_handle_inline(&request)
            .expect("a repeat of the memoized search is served inline");
        assert_eq!(got, want, "byte-identical reply");
        assert_eq!(decode_result(&got).unwrap().len(), 3);

        let after = inline.stats();
        assert_eq!(after, worker.stats(), "every counter moved alike");
        assert_eq!(after.searches, before.searches + 1);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(after.walk_steps_saved, 1, "the cold walk was one step");
        assert_eq!(
            after.generations_from_cache,
            before.generations_from_cache + 1
        );
        assert_eq!(after.chain_steps, before.chain_steps, "zero chain steps");
    }

    #[test]
    fn inline_declines_a_stale_memo_entry() {
        let s = server();
        let request = warm(&s, [0x22u8; 32], 1);
        // Another keyword of the same shard is appended to: `applied_seq`
        // moves and the entry no longer matches the published snapshot.
        let k = HashChain::new(&[b"kw", b"key"], 64)
            .key_for_counter(1)
            .unwrap();
        let append = protocol::encode_append_generations(&[GenerationEntry {
            tag: [0x23u8; 32],
            sealed_ids: sealed_ids(&k, &[1]),
            commitment: key_commitment(&k),
        }]);
        decode_ack(&s.handle_shared(&append)).unwrap();
        assert_declines(&s, &request, "stale applied_seq");
        // The worker path re-files the entry and the next repeat is inline.
        decode_result(&s.handle_shared(&request)).unwrap();
        assert!(s.try_handle_inline(&request).is_some());
    }

    #[test]
    fn inline_declines_a_newer_trapdoor_of_the_same_keyword() {
        let s = server();
        let tag = [0x24u8; 32];
        let request = warm(&s, tag, 1);
        let t5 = HashChain::new(&[b"kw", b"key"], 64)
            .key_for_counter(5)
            .unwrap();
        let newer = protocol::encode_search(&tag, &t5);
        assert_declines(&s, &newer, "a delta walk is a worker's job");
        // The worker walks the delta and advances the entry: the newer
        // trapdoor is now the exact one, the older no longer is.
        decode_result(&s.handle_shared(&newer)).unwrap();
        assert!(s.try_handle_inline(&newer).is_some());
        assert_declines(&s, &request, "older than the memoized trapdoor");
    }

    #[test]
    fn inline_declines_more_than_inline_max_docs_ids() {
        let s = server();
        let at_bound = warm(&s, [0x25u8; 32], INLINE_MAX_DOCS as u64);
        let reply = s.try_handle_inline(&at_bound).expect("at bound");
        assert_eq!(decode_result(&reply).unwrap().len(), INLINE_MAX_DOCS);
        let over = warm(&s, [0x26u8; 32], INLINE_MAX_DOCS as u64 + 1);
        assert_declines(&s, &over, "one id over INLINE_MAX_DOCS");
    }

    #[test]
    fn inline_declines_more_than_inline_max_bytes_of_blobs() {
        let s = server();
        let at_budget = warm_sized(&s, [0x2Cu8; 32], 2, INLINE_MAX_BYTES / 2);
        let reply = s.try_handle_inline(&at_budget).expect("at budget");
        assert_eq!(decode_result(&reply).unwrap().len(), 2);
        // One id, well inside INLINE_MAX_DOCS, whose blob alone is a byte
        // over: copying it would hold the caller's thread, so a worker does.
        let over = warm_sized(&s, [0x2Du8; 32], 1, INLINE_MAX_BYTES + 1);
        assert_declines(&s, &over, "one blob a byte over INLINE_MAX_BYTES");
        let docs = decode_result_owned(&s.handle_shared(&over)).unwrap();
        assert_eq!(docs[0].1.len(), INLINE_MAX_BYTES + 1);
    }

    #[test]
    fn inline_declines_on_the_lsm_backend() {
        let dir = std::env::temp_dir().join(format!("sse-s2-inline-lsm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (backend, serves) in [
            (sse_storage::BackendKind::Btree, true),
            (sse_storage::BackendKind::Lsm, false),
        ] {
            let home = dir.join(format!("{backend:?}"));
            std::fs::create_dir_all(&home).unwrap();
            let opts = DurableOptions {
                backend,
                ..DurableOptions::default()
            };
            let cfg = Scheme2Config::standard().with_chain_length(64);
            let s = Scheme2Server::open_durable_with(cfg, &home, opts).unwrap();
            let request = warm(&s, [0x27u8; 32], 2);
            if serves {
                assert!(s.try_handle_inline(&request).is_some());
            } else {
                assert_declines(&s, &request, "lsm blob reads go to files");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_declines_while_a_lock_it_needs_is_held() {
        let s = server();
        let request = warm(&s, [0x28u8; 32], 1);
        let cache = || s.sidecar(0).lock();
        assert_declines_under(&s, &request, "sidecar mutex held", cache);
        let store = || s.hold_store();
        assert_declines_under(&s, &request, "doc-store write lock held", store);
        s.toggle_swap_window();
        assert_declines(&s, &request, "odd epoch: a multi-shard swap is open");
        s.toggle_swap_window();
        assert!(s.try_handle_inline(&request).is_some());
    }

    #[test]
    fn inline_declines_without_the_server_cache() {
        let s = Scheme2Server::new_in_memory(
            Scheme2Config::standard()
                .with_chain_length(64)
                .with_server_cache(false),
        );
        let request = warm(&s, [0x29u8; 32], 1);
        assert_declines(&s, &request, "server_cache = false keeps no memo");
    }

    #[test]
    fn inline_declines_what_no_rule_admits() {
        let s = server();
        let request = warm(&s, [0x2Au8; 32], 1);
        assert_declines(&s, &[], "empty payload");
        assert_declines(&s, &request[..request.len() - 1], "truncated search");
        let put = protocol::encode_put_docs(&[(9, vec![1])]);
        assert_declines(&s, &put[..put.len() - 1], "truncated mutation");
        for request in [
            protocol::encode_reset_index(),
            protocol::encode_checkpoint(),
        ] {
            assert_declines(&s, &request, "ResetIndex and Checkpoint stay on the pool");
        }
        let many = protocol::encode_search_many(&[([0x2Au8; 32], [0u8; 32])]);
        assert_declines(&s, &many, "SEARCH_MANY stays on the pool");
        assert_declines(
            &s,
            &protocol::encode_search(&[0x2Bu8; 32], &[0u8; 32]),
            "never searched: no entry",
        );
    }

    /// One generation of `ids` under `tag`, sealed with key `ctr` of the
    /// test chain.
    fn entry(tag: [u8; 32], ctr: u64, ids: &[u64]) -> GenerationEntry {
        let k = HashChain::new(&[b"kw", b"key"], 64)
            .key_for_counter(ctr)
            .unwrap();
        GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k, ids),
            commitment: key_commitment(&k),
        }
    }

    /// Two tags of a sharded server that route to different shards.
    fn tags_on_two_shards(s: &Scheme2Server) -> ([u8; 32], [u8; 32]) {
        let a = [0x31u8; 32];
        let b = (0x32..=0xFFu8)
            .map(|x| [x; 32])
            .find(|b| s.shard_of(b) != s.shard_of(&a))
            .expect("some tag routes elsewhere");
        (a, b)
    }

    #[test]
    fn inline_mutation_is_the_worker_mutation_in_bytes_seqs_and_swaps() {
        let cfg = Scheme2Config::standard().with_chain_length(64);
        let (worker, inline) = (
            Scheme2Server::new_in_memory_sharded(cfg.clone(), 4),
            Scheme2Server::new_in_memory_sharded(cfg, 4),
        );
        let (a, b) = tags_on_two_shards(&worker);
        let requests = [
            protocol::encode_put_docs(&[(1, b"one".to_vec()), (2, b"two".to_vec())]),
            // One shard, then two inside one swap window.
            protocol::encode_append_generations(&[entry(a, 1, &[1])]),
            protocol::encode_append_generations(&[entry(a, 2, &[2]), entry(b, 1, &[1, 2])]),
            protocol::encode_remove_docs(&[1, 7]),
            protocol::encode_append_generations(&[]),
        ];
        for request in &requests {
            let want = worker.handle_shared(request);
            let got = inline
                .try_handle_inline(request)
                .expect("a small in-memory mutation is applied inline");
            assert_eq!(got, want, "byte-identical reply");
            assert!(
                footprint(&inline) == footprint(&worker),
                "same seqs, swaps, counters"
            );
        }
        assert_eq!(inline.stats().generations_appended, 3);
        assert_eq!(
            inline.commit_counters().snapshot_swaps,
            3,
            "one per shard an append applied to"
        );
        for (tag, ctr) in [(a, 3), (b, 2)] {
            let key = HashChain::new(&[b"kw", b"key"], 64)
                .key_for_counter(ctr)
                .unwrap();
            let search = protocol::encode_search(&tag, &key);
            let got = inline.handle_shared(&search);
            assert_eq!(
                got,
                worker.handle_shared(&search),
                "the later search agrees"
            );
            assert_eq!(decode_result(&got).unwrap(), vec![(2, &b"two"[..])]);
        }
    }

    #[test]
    fn inline_mutation_declines_over_a_bound() {
        let s = server();
        // The request size: a `PutDocs` of exactly INLINE_MAX_BYTES is
        // applied, one byte more is not.
        let sized = |len: usize| {
            let empty = protocol::encode_put_docs(&[(5, Vec::new())]).len();
            protocol::encode_put_docs(&[(5, vec![5; len - empty])])
        };
        let over = sized(INLINE_MAX_BYTES + 1);
        assert_declines(&s, &over, "a byte over INLINE_MAX_BYTES");
        let at_bound = sized(INLINE_MAX_BYTES);
        assert_eq!(at_bound.len(), INLINE_MAX_BYTES);
        decode_ack(&s.try_handle_inline(&at_bound).expect("at bound")).unwrap();

        // The budget: two keywords whose lists cost INLINE_MAX_COPY_BYTES
        // together are appended to, one generation more is not. The
        // server appends without decrypting: any bytes make a generation,
        // here 128 stored bytes each, which both budget lines divide.
        let (x, y) = ([0x41u8; 32], [0x42u8; 32]);
        const STORED: usize = 96 + 32;
        assert_eq!((INLINE_MAX_COPY_BYTES / 2 - INLINE_PATH_BYTES) % STORED, 0);
        assert_eq!((INLINE_MAX_COPY_BYTES - INLINE_PATH_BYTES) % STORED, 0);
        let raw = |tag, g: u8| GenerationEntry {
            tag,
            sealed_ids: vec![g; STORED - 32],
            commitment: [g; 32],
        };
        let stored = |tag| s.snap(0).tree.get(&tag).unwrap().stored_bytes();
        let both = |g| protocol::encode_append_generations(&[raw(x, g), raw(y, g)]);
        for g in 0..(INLINE_MAX_COPY_BYTES / 2 - INLINE_PATH_BYTES) / STORED {
            decode_ack(&s.handle_shared(&both(g as u8))).unwrap();
        }
        assert_eq!(2 * (stored(x) + INLINE_PATH_BYTES), INLINE_MAX_COPY_BYTES);
        let at_budget = s.try_handle_inline(&both(0xA0));
        decode_ack(&at_budget.expect("at budget")).unwrap();
        assert_declines(&s, &both(0xA1), "a generation over the budget");
        let one = |g| protocol::encode_append_generations(&[raw(x, g)]);
        let alone = s.try_handle_inline(&one(0xA2));
        decode_ack(&alone.expect("one list alone fits")).unwrap();
        // One list alone: at most INLINE_MAX_COPY_BYTES less its path.
        while stored(x) < INLINE_MAX_COPY_BYTES - INLINE_PATH_BYTES {
            decode_ack(&s.handle_shared(&one(0xB0))).unwrap();
        }
        assert_eq!(stored(x) + INLINE_PATH_BYTES, INLINE_MAX_COPY_BYTES);
        decode_ack(&s.try_handle_inline(&one(0xB1)).expect("at budget")).unwrap();
        assert_declines(&s, &one(0xB2), "one list a generation over the budget");
        // Keywords cost their paths too: no more new ones in one append
        // than the budget allows, however short the request.
        let fresh = |n: u8| {
            let entries: Vec<_> = (0..n).map(|k| raw([0x50 + k; 32], k)).collect();
            protocol::encode_append_generations(&entries)
        };
        let most = (INLINE_MAX_COPY_BYTES / INLINE_PATH_BYTES) as u8;
        assert!(
            fresh(most + 1).len() <= INLINE_MAX_BYTES,
            "the budget declines, not the size"
        );
        assert_declines(&s, &fresh(most + 1), "one new keyword over the budget");
        decode_ack(&s.try_handle_inline(&fresh(most)).expect("at budget")).unwrap();
    }

    #[test]
    fn inline_mutation_declines_on_a_durable_server() {
        let dir =
            std::env::temp_dir().join(format!("sse-s2-inline-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = Scheme2Config::standard().with_chain_length(64);
        let s = Scheme2Server::open_durable(cfg, &dir).unwrap();
        for request in [
            protocol::encode_put_docs(&[(9, vec![1])]),
            protocol::encode_remove_docs(&[9]),
            protocol::encode_append_generations(&[entry([0x43u8; 32], 1, &[9])]),
        ] {
            assert_declines(&s, &request, "a durable mutation waits for an fsync");
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inline_mutation_declines_while_a_lock_it_needs_is_held() {
        let s = Scheme2Server::new_in_memory_sharded(
            Scheme2Config::standard().with_chain_length(64),
            4,
        );
        let (a, b) = tags_on_two_shards(&s);
        let (sa, sb) = (s.shard_of(&a), s.shard_of(&b));
        let put = protocol::encode_put_docs(&[(3, b"three".to_vec())]);
        let remove = protocol::encode_remove_docs(&[3]);
        let one = protocol::encode_append_generations(&[entry(a, 1, &[3])]);
        let two = protocol::encode_append_generations(&[entry(a, 2, &[3]), entry(b, 1, &[3])]);
        let store = || s.hold_store();
        assert_declines_under(&s, &put, "doc-store lock held", store);
        assert_declines_under(&s, &remove, "doc-store lock held", store);
        let quiesced = || s.quiesce();
        assert_declines_under(&s, &one, "quiescence lock held", quiesced);
        let data = || s.lock_data(sb);
        assert_declines_under(&s, &two, "second shard's data lock held", data);
        let reader = || s.hold_snapshot_cell(sa);
        assert_declines_under(&s, &one, "a reader holds the snapshot cell", reader);
        assert_declines_under(&s, &two, "a reader holds one snapshot cell", reader);
        let window = || s.hold_swap_window();
        assert_declines_under(&s, &two, "the swap window is held", window);
        s.toggle_swap_window();
        assert_declines(&s, &one, "odd epoch: a multi-shard swap is open");
        assert_declines(&s, &two, "odd epoch: a multi-shard swap is open");
        s.toggle_swap_window();
        for request in [put, one, two, remove] {
            decode_ack(&s.try_handle_inline(&request).expect("all free")).unwrap();
        }
        assert_eq!(s.stats().generations_appended, 3);
    }

    #[test]
    fn unknown_tag_returns_empty() {
        let mut s = server();
        let resp = s.handle(&protocol::encode_search(&[1u8; 32], &[2u8; 32]));
        assert_eq!(decode_result(&resp).unwrap(), vec![]);
    }

    #[test]
    fn stale_trapdoor_cannot_unlock_newer_generation() {
        // One-wayness in action: a trapdoor issued at counter 1 cannot
        // unlock a generation keyed at counter 5 (the walk would need to go
        // backwards). The server reports desync after exhausting the bound.
        let mut s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [8u8; 32];
        let k5 = chain.key_for_counter(5).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k5, &[1]),
            commitment: key_commitment(&k5),
        }]));
        let t1 = chain.key_for_counter(1).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t1));
        assert!(decode_result(&resp).is_err(), "must not decrypt the future");
    }

    #[test]
    fn walk_bound_is_exact_and_the_desync_error_is_unchanged() {
        // chain_length 8 -> the walk may take at most 9 steps.
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [8u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        let fresh = || {
            let mut s =
                Scheme2Server::new_in_memory(Scheme2Config::standard().with_chain_length(8));
            s.handle(&protocol::encode_put_docs(&[(1, b"one".to_vec())]));
            s.handle(&protocol::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k1, &[1]),
                commitment: key_commitment(&k1),
            }]));
            s
        };
        // Nine steps away: found on the last step the bound allows.
        let mut s = fresh();
        let t10 = chain.key_for_counter(10).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t10));
        assert_eq!(
            decode_result_owned(&resp).unwrap(),
            vec![(1, b"one".to_vec())]
        );
        assert_eq!(s.stats().chain_steps, 9);
        // Ten steps away: the walk stops after nine and reports desync.
        let mut s = fresh();
        let t11 = chain.key_for_counter(11).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t11));
        let err = decode_result(&resp).unwrap_err().to_string();
        assert!(
            err.contains("chain walk exceeded 9 steps; client/server desync"),
            "{err}"
        );
        assert_eq!(s.stats().chain_steps, 9);
    }

    #[test]
    fn generations_merge_as_a_set_and_reply_in_id_order() {
        // Adds repeat ids across generations, arrive unsorted, and deletes
        // remove ids added earlier (or never added).
        let seal = |key: &[u8; 32], adds: &[u64], dels: &[u64]| {
            let mut w = WireWriter::new();
            w.put_u64_vec(adds);
            w.put_u64_vec(dels);
            EtmKey::new(key).seal(&w.finish())
        };
        let mut s = server();
        let docs: Vec<(u64, Vec<u8>)> = (1..=9u64).map(|id| (id, vec![id as u8])).collect();
        s.handle(&protocol::encode_put_docs(&docs));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [6u8; 32];
        let generations: [(u64, &[u64], &[u64]); 3] = [
            (1, &[9, 3, 5, 3], &[]),
            (2, &[7, 5, 1], &[3, 8]),
            (3, &[3, 2], &[9]),
        ];
        for (ctr, adds, dels) in generations {
            let k = chain.key_for_counter(ctr).unwrap();
            s.handle(&protocol::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: seal(&k, adds, dels),
                commitment: key_commitment(&k),
            }]));
        }
        let t = chain.key_for_counter(3).unwrap();
        let ids = |resp: &[u8]| -> Vec<u64> {
            decode_result(resp).unwrap().iter().map(|d| d.0).collect()
        };
        let want = vec![1, 2, 3, 5, 7];
        assert_eq!(ids(&s.handle(&protocol::encode_search(&tag, &t))), want);
        // Again, now from the cache.
        assert_eq!(ids(&s.handle(&protocol::encode_search(&tag, &t))), want);
    }

    #[test]
    fn reset_index_clears_keywords_keeps_docs() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"kept".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag: [1u8; 32],
            sealed_ids: sealed_ids(&k, &[1]),
            commitment: key_commitment(&k),
        }]));
        assert_eq!(s.unique_keywords(), 1);
        decode_ack(&s.handle(&protocol::encode_reset_index())).unwrap();
        assert_eq!(s.unique_keywords(), 0);
        assert_eq!(s.stored_docs(), 1);
    }

    #[test]
    fn corrupted_generation_yields_error_response() {
        let mut s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k = chain.key_for_counter(1).unwrap();
        let mut sealed = sealed_ids(&k, &[1]);
        let len = sealed.len();
        sealed[len / 2] ^= 0xFF;
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag: [1u8; 32],
            sealed_ids: sealed,
            commitment: key_commitment(&k),
        }]));
        let resp = s.handle(&protocol::encode_search(&[1u8; 32], &k));
        assert!(decode_result(&resp).is_err());

        // A failed search still counts, with the steps it walked before
        // the bad generation: 4 from the trapdoor to the sound generation
        // at counter 5, 4 more to the corrupted one at counter 1.
        let k5 = chain.key_for_counter(5).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag: [1u8; 32],
            sealed_ids: sealed_ids(&k5, &[2]),
            commitment: key_commitment(&k5),
        }]));
        let before = s.stats();
        let t9 = chain.key_for_counter(9).unwrap();
        let resp = s.handle(&protocol::encode_search(&[1u8; 32], &t9));
        let err = decode_result(&resp).unwrap_err().to_string();
        assert!(err.contains("generation decryption failed"), "{err}");
        let after = s.stats();
        assert_eq!(after.searches, before.searches + 1);
        assert_eq!(after.chain_steps, before.chain_steps + 8);
    }

    #[test]
    fn walk_costs_scale_with_counter_gap() {
        let mut s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [2u8; 32];
        let k10 = chain.key_for_counter(10).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k10, &[1]),
            commitment: key_commitment(&k10),
        }]));
        // Sanity: walking forward from counter 30's key passes counter 10's.
        let t30 = chain.key_for_counter(30).unwrap();
        assert_eq!(walk_forward(&t30, 20), k10);
        decode_result(&s.handle(&protocol::encode_search(&tag, &t30))).unwrap();
        assert_eq!(s.stats().chain_steps, 20);
    }

    #[test]
    fn sharded_server_answers_like_single_shard() {
        // The same append/search conversation against 1 and 5 shards must
        // be indistinguishable on the wire.
        let mut single = server();
        let mut sharded = Scheme2Server::new_in_memory_sharded(
            Scheme2Config::standard().with_chain_length(64),
            5,
        );
        assert_eq!(sharded.num_shards(), 5);
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let docs: Vec<(u64, Vec<u8>)> = (0..8u64).map(|i| (i, vec![i as u8; 4])).collect();
        let mut tags = Vec::new();
        let mut entries = Vec::new();
        for i in 0..16u8 {
            let mut tag = [0u8; 32];
            tag[0] = i.wrapping_mul(41);
            tag[1] = i;
            tags.push(tag);
            let k = chain.key_for_counter(1).unwrap();
            entries.push(GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k, &[u64::from(i % 8)]),
                commitment: key_commitment(&k),
            });
        }
        for s in [&mut single, &mut sharded] {
            decode_ack(&s.handle(&protocol::encode_put_docs(&docs))).unwrap();
            decode_ack(&s.handle(&protocol::encode_append_generations(&entries))).unwrap();
        }
        assert_eq!(single.unique_keywords(), sharded.unique_keywords());
        let t2 = chain.key_for_counter(2).unwrap();
        for tag in &tags {
            let a = single.handle(&protocol::encode_search(tag, &t2));
            let b = sharded.handle(&protocol::encode_search(tag, &t2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn apply_batch_combines_docs_and_generations() {
        let s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k = chain.key_for_counter(1).unwrap();
        let tag = [4u8; 32];
        let docs = protocol::encode_put_docs(&[(1, b"d".to_vec())]);
        let gens = protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k, &[1]),
            commitment: key_commitment(&k),
        }]);
        decode_ack(&s.apply_batch(&[&docs, &gens])).unwrap();
        assert_eq!(s.stored_docs(), 1);
        assert_eq!(s.unique_keywords(), 1);

        let resp = s.handle_shared(&protocol::encode_search(&tag, &k));
        assert_eq!(
            decode_result_owned(&resp).unwrap(),
            vec![(1, b"d".to_vec())]
        );
    }

    #[test]
    fn apply_batch_rejects_non_mutations() {
        let s = server();
        let resp = s.apply_batch(&[&protocol::encode_reset_index()]);
        assert!(decode_ack(&resp).is_err());
    }

    #[test]
    fn searches_see_acked_appends_through_snapshots() {
        // Read-your-writes through the snapshot path: an acked append is
        // immediately visible to a search, and what that search decrypted
        // is cached so the *next* search decrypts nothing.
        let s = Scheme2Server::new_in_memory_sharded(
            Scheme2Config::standard().with_chain_length(64),
            4,
        );
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        for i in 0..16u8 {
            let mut tag = [0u8; 32];
            tag[0] = i;
            tag[1] = i.wrapping_mul(59);
            let k = chain.key_for_counter(1).unwrap();
            s.handle_shared(&protocol::encode_put_docs(&[(u64::from(i), vec![i; 3])]));
            let resp = s.handle_shared(&protocol::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k, &[u64::from(i)]),
                commitment: key_commitment(&k),
            }]));
            decode_ack(&resp).unwrap();
            let docs =
                decode_result_owned(&s.handle_shared(&protocol::encode_search(&tag, &k))).unwrap();
            assert_eq!(docs, vec![(u64::from(i), vec![i; 3])]);
            // Repeat search hits the cache.
            decode_result(&s.handle_shared(&protocol::encode_search(&tag, &k))).unwrap();
        }
        assert_eq!(
            s.stats().generations_decrypted,
            16,
            "second searches cached"
        );
        assert_eq!(s.stats().generations_from_cache, 16);
        // 16 appends published snapshots; no search did.
        assert_eq!(s.commit_counters().snapshot_swaps, 16);
    }

    /// Counter `ctr`'s key on the tests' one chain.
    fn key(ctr: u64) -> [u8; 32] {
        HashChain::new(&[b"kw", b"key"], 64)
            .key_for_counter(ctr)
            .unwrap()
    }

    /// Append one generation holding `ids` to `tag` under counter `ctr`.
    fn append(s: &Scheme2Server, tag: [u8; 32], ctr: u64, ids: &[u64]) {
        let resp = s.handle_shared(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&key(ctr), ids),
            commitment: key_commitment(&key(ctr)),
        }]));
        decode_ack(&resp).unwrap();
    }

    /// Search `tag` with counter `ctr`'s trapdoor; the raw reply.
    fn search(s: &Scheme2Server, tag: [u8; 32], ctr: u64) -> Vec<u8> {
        s.handle_shared(&protocol::encode_search(&tag, &key(ctr)))
    }

    /// A cached server and its `server_cache = false` twin, both holding
    /// documents `1..=9`.
    fn twins(shards: usize) -> (Scheme2Server, Scheme2Server) {
        let cfg = Scheme2Config::standard().with_chain_length(64);
        let cached = Scheme2Server::new_in_memory_sharded(cfg.clone(), shards);
        let cold = Scheme2Server::new_in_memory_sharded(cfg.with_server_cache(false), shards);
        let docs: Vec<(u64, Vec<u8>)> = (1..=9u64).map(|id| (id, vec![id as u8; 3])).collect();
        for s in [&cached, &cold] {
            decode_ack(&s.handle_shared(&protocol::encode_put_docs(&docs))).unwrap();
        }
        (cached, cold)
    }

    fn cached_entries(s: &Scheme2Server) -> usize {
        (0..s.num_shards())
            .map(|i| s.sidecar(i).lock().entries.len())
            .sum()
    }

    #[test]
    fn searches_never_publish_a_snapshot() {
        // A snapshot changes only when a mutation is applied: N
        // single-shard appends interleaved with cold, prefix and exact-hit
        // searches end with exactly N publishes, on every kind of server.
        let dir = std::env::temp_dir().join(format!("sse-s2-nopublish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || Scheme2Config::standard().with_chain_length(64);
        let mut servers = Vec::new();
        for shards in [1, 4] {
            servers.push(Scheme2Server::new_in_memory_sharded(cfg(), shards));
            for backend in sse_storage::BackendKind::all() {
                let home = dir.join(format!("{backend}-{shards}"));
                let opts = DurableOptions {
                    shards,
                    backend,
                    ..DurableOptions::default()
                };
                servers.push(Scheme2Server::open_durable_with(cfg(), &home, opts).unwrap());
            }
        }
        const N: u64 = 12;
        for s in &servers {
            for n in 1..=N {
                let mut tag = [0u8; 32];
                tag[0] = (n % 3) as u8 * 67;
                append(s, tag, n, &[n]);
                // Cold the first time a keyword is searched, a prefix
                // search afterwards; then the same trapdoor again.
                decode_result(&search(s, tag, n)).unwrap();
                decode_result(&search(s, tag, n)).unwrap();
            }
            let st = s.stats();
            assert_eq!(st.cache_hits, N, "every repeat was an exact hit");
            assert_eq!(st.generations_decrypted, N, "each generation once");
            assert!(st.generations_from_cache > N, "prefixes were used");
            assert_eq!(s.commit_counters().snapshot_swaps, N);
        }
        drop(servers);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefix_search_decrypts_only_what_was_appended_since() {
        for shards in [1, 4] {
            let (cached, cold) = twins(shards);
            let (tag, other) = ([0x31u8; 32], [0x32u8; 32]);
            for s in [&cached, &cold] {
                // k = 3 generations, then a search that caches them.
                append(s, tag, 1, &[1, 2]);
                append(s, tag, 2, &[3]);
                append(s, tag, 3, &[4]);
                decode_result(&search(s, tag, 3)).unwrap();
            }
            let before = cached.stats();
            for s in [&cached, &cold] {
                // j = 2 more to the same keyword, 2 to another.
                append(s, other, 4, &[9]);
                append(s, tag, 4, &[5]);
                append(s, other, 5, &[8]);
                append(s, tag, 5, &[6]);
            }
            let reply = search(&cached, tag, 6);
            assert_eq!(reply, search(&cold, tag, 6), "bytes and order");
            assert_eq!(decode_result(&reply).unwrap().len(), 6);
            let after = cached.stats();
            assert_eq!(
                after.generations_decrypted,
                before.generations_decrypted + 2
            );
            assert_eq!(
                after.generations_from_cache,
                before.generations_from_cache + 3
            );
            assert_eq!(after.cache_hits, before.cache_hits, "not an exact hit");
            // One step to counter 5's key, one to counter 4's; the cached
            // prefix is not walked to.
            assert_eq!(after.chain_steps, before.chain_steps + 2);
        }
    }

    #[test]
    fn reset_then_the_same_keys_never_reuses_the_old_prefix() {
        // A client that resets and re-appends under the same chain key
        // reproduces tag, commitment and list length; only the reset
        // rule tells the old entry from the new index.
        let (cached, cold) = twins(1);
        let tag = [0x33u8; 32];
        for s in [&cached, &cold] {
            append(s, tag, 1, &[1, 2]);
            assert_eq!(decode_result(&search(s, tag, 1)).unwrap().len(), 2);
            decode_ack(&s.handle_shared(&protocol::encode_reset_index())).unwrap();
            append(s, tag, 1, &[3, 4]);
        }
        let before = cached.stats().generations_decrypted;
        let reply = search(&cached, tag, 1);
        assert_eq!(reply, search(&cold, tag, 1));
        let ids: Vec<u64> = decode_result(&reply).unwrap().iter().map(|d| d.0).collect();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(cached.stats().generations_decrypted, before + 1);
    }

    #[test]
    fn a_search_racing_a_reset_neither_files_nor_borrows_across_it() {
        let (s, cold) = twins(1);
        let tag = [0x34u8; 32];
        append(&s, tag, 1, &[1, 2]);
        // The racing search took its snapshot here and found this answer ...
        let old = s.snap(0);
        let stale = SearchMemo {
            applied_seq: old.applied_seq,
            t_prime: key(1),
            ids: Arc::from([1u64, 2]),
            walk_cost: 0,
            gens: 1,
            last_commitment: key_commitment(&key(1)),
        };
        for s in [&s, &cold] {
            decode_ack(&s.handle_shared(&protocol::encode_reset_index())).unwrap();
            append(s, tag, 1, &[3, 4]);
        }
        // ... and files it only after the reset was applied: nothing may
        // be left behind for the searches of the new index.
        s.store_memo(0, tag, stale);
        assert_eq!(cached_entries(&s), 0, "a pre-reset answer was filed");
        let before = s.stats().generations_decrypted;
        assert_eq!(search(&s, tag, 1), search(&cold, tag, 1));
        assert_eq!(s.stats().generations_decrypted, before + 1);

        // The other way round: the post-reset entry now on file is no
        // prefix for a search still reading the old snapshot, although
        // tag, list length and commitment all agree.
        let filed = s.sidecar(0).lock().entries[&tag].clone();
        let old_list = old.tree.get(&tag).unwrap();
        assert_eq!(
            filed.last_commitment,
            *old_list.get(0).unwrap().key_commitment
        );
        assert!(!filed.covers_prefix_of(old_list, old.applied_seq));
        let now = s.snap(0);
        assert!(filed.covers_prefix_of(now.tree.get(&tag).unwrap(), now.applied_seq));
    }

    #[test]
    fn the_cache_is_bounded_by_the_index_it_shadows() {
        let (s, _) = twins(4);
        for i in 0..10_000u32 {
            let mut tag = [0xEEu8; 32];
            tag[..4].copy_from_slice(&i.to_le_bytes());
            assert!(decode_result(&search(&s, tag, 1)).unwrap().is_empty());
        }
        assert_eq!(cached_entries(&s), 0, "an unknown tag files nothing");
        for i in 0..8u8 {
            let tag = [i; 32];
            append(&s, tag, 1, &[u64::from(i) + 1]);
            decode_result(&search(&s, tag, 2)).unwrap();
            decode_result(&search(&s, tag, 3)).unwrap();
        }
        assert_eq!(cached_entries(&s), 8, "one entry per searched keyword");
        decode_ack(&s.handle_shared(&protocol::encode_reset_index())).unwrap();
        for i in 0..s.num_shards() {
            assert!(s.sidecar(i).lock().entries.is_empty());
        }
        // DESIGN.md §4f's per-entry figure.
        assert_eq!(std::mem::size_of::<SearchMemo>(), 104);
    }
}
