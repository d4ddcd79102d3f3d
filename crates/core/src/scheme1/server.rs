//! Scheme 1 server.
//!
//! The honest-but-curious party. It holds, per unique keyword, the triple
//! `(f_kw(w), I(w) ⊕ G(r), F(r))` in a B+-tree keyed by the tag, plus the
//! encrypted document blobs. It never sees a keyword, a plaintext, or —
//! until a search reveals one — a PRG nonce. Every request is decoded
//! defensively; malformed input produces an error response, never a panic.
//!
//! `Scheme1Server` is the [`crate::engine`]'s `IndexEngine` at Scheme 1:
//! sharding, journaling, group commit, snapshot reads, checkpointing,
//! recovery, the constructors, the library path, the `UPDATE_MANY` batch
//! and the `Service` impl are written there once for both schemes. This
//! module is what Scheme 1 plugs in — its `SchemeOps` impl (codecs,
//! journal replay, request dispatch, batch parts) — and the paper's
//! request semantics and counters behind it. The engine's quiescence lock
//! guards the index [`Geometry`]: mutations validate widths against it
//! under the read lock, and `ReplaceIndex` rewrites it (and every shard)
//! under the write lock.
//!
//! The types `SchemeOps` names are `pub` in this private module: the
//! sealed trait is nominally public, so its associated types must be.

use super::protocol::{self, Request, UpdateEntryRef, REQ_TAGS};
use crate::commit::Reply;
use crate::engine::{search_each, IndexEngine};
use crate::error::{Result, SseError};
use crate::ops::{BatchPart, SchemeOps, ShardData};
use sse_index::bitset::DocBitSet;
use sse_index::bptree::BpTree;
use sse_net::wire::{WireReader, WireWriter};
use sse_primitives::prg::Prg;
use sse_storage::StorageError;
use std::collections::HashSet;
use std::result::Result as StdResult;
use std::sync::atomic::{AtomicU64, Ordering};

/// One searchable representation as stored by the server.
#[derive(Clone)]
pub struct Entry {
    /// `I(w) ⊕ G(r)`.
    masked_index: Vec<u8>,
    /// Serialized `F(r)`.
    f_r: Vec<u8>,
}

/// Index width geometry — read (and held) by every mutation pipeline,
/// rewritten only under full quiescence (`ReplaceIndex`). Every search
/// snapshot carries the geometry its tree was published under.
#[derive(Clone, Copy)]
pub struct Geometry {
    capacity_docs: u64,
    index_bytes: usize,
}

impl Geometry {
    fn new(capacity_docs: u64) -> Self {
        Geometry {
            capacity_docs,
            index_bytes: (capacity_docs as usize).div_ceil(8),
        }
    }
}

fn corrupt(what: &'static str, detail: String) -> SseError {
    SseError::Storage(StorageError::Corrupt { what, detail })
}

/// Scheme 1's plug into the engine, and its state: its counters, in
/// lock-free cells so concurrent requests can count without taking any
/// index lock.
#[derive(Default)]
pub struct Scheme1 {
    tree_lookups: AtomicU64,
    tree_nodes_visited: AtomicU64,
    searches: AtomicU64,
    docs_stored: AtomicU64,
}

/// The Scheme 1 server: the [`IndexEngine`] at Scheme 1, whose
/// constructors take the database's document capacity.
pub type Scheme1Server = IndexEngine<Scheme1>;

impl SchemeOps for Scheme1 {
    type Value = Entry;
    type Meta = Geometry;
    type Sidecar = ();
    type Config = u64;
    type EntryRef<'a> = UpdateEntryRef<'a>;

    const STEM: &'static str = "scheme1";
    const MAGIC: &'static [u8; 8] = b"SSE1IDX2";
    const MIN_VALUE_BYTES: usize = 16;
    const BATCH_PARTS: &'static str = "batch parts must be mutations (PutDocs / ApplyUpdates)";

    fn new(capacity_docs: u64) -> (Self, Geometry) {
        (Scheme1::default(), Geometry::new(capacity_docs))
    }

    fn encode_meta(geometry: &Geometry) -> Vec<u8> {
        geometry.capacity_docs.to_le_bytes().to_vec()
    }

    fn check_meta(geometry: &Geometry, stored: &[u8]) -> Result<()> {
        let capacity = u64::from_le_bytes(stored.try_into().map_err(|_| {
            corrupt(
                "scheme1 index geometry",
                format!("geometry meta is {} bytes, expected 8", stored.len()),
            )
        })?);
        if capacity != geometry.capacity_docs {
            return Err(corrupt(
                "scheme1 index geometry",
                format!(
                    "capacity {capacity} does not match server capacity {}",
                    geometry.capacity_docs
                ),
            ));
        }
        Ok(())
    }

    fn encode_value(entry: &Entry, w: &mut WireWriter) {
        w.put_bytes(&entry.masked_index);
        w.put_bytes(&entry.f_r);
    }

    fn decode_value(r: &mut WireReader<'_>, geometry: &Geometry) -> Result<Entry> {
        let masked_index = r.get_bytes()?.to_vec();
        if masked_index.len() != geometry.index_bytes {
            return Err(corrupt(
                "scheme1 index entry",
                format!(
                    "entry width {} != expected {}",
                    masked_index.len(),
                    geometry.index_bytes
                ),
            ));
        }
        let f_r = r.get_bytes()?.to_vec();
        Ok(Entry { masked_index, f_r })
    }

    /// Each shard's log is internally ordered across capacity migrations,
    /// so a replayed `ReplaceIndex` moves the geometry forward for the
    /// records behind it — and, applied live, for the server itself.
    fn apply(
        data: &mut ShardData<Self>,
        (): &(),
        geometry: &mut Geometry,
        record: &[u8],
    ) -> Result<u64> {
        match protocol::decode_request(record)? {
            Request::ApplyUpdates(entries) => {
                apply_updates(data, &entries);
                Ok(entries.len() as u64)
            }
            Request::ReplaceIndex { capacity, entries } => {
                replace_index(data, &entries);
                *geometry = Geometry::new(capacity);
                Ok(0)
            }
            _ => Err(corrupt(
                "scheme1 index journal",
                "journal holds a non-mutating request".to_string(),
            )),
        }
    }

    fn is_read(tag: u8) -> bool {
        protocol::is_read(tag)
    }

    fn serve(
        server: &Scheme1Server,
        request: &[u8],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>> {
        let reply = match protocol::decode_request(request) {
            Ok(Request::SearchReveal { tag, seed }) => match server.reveal_one(&tag, &seed) {
                Ok(docs) => protocol::encode_result(&docs),
                Err(msg) => protocol::encode_error(&msg),
            },
            Ok(Request::ApplyUpdates(entries)) => {
                return server.apply_updates_sharded(&entries, park);
            }
            Ok(Request::PutDocs(docs)) => match server.put_docs_checked(&docs) {
                Ok(()) => protocol::encode_ack(),
                Err(resp) => resp,
            },
            Ok(Request::GetNonces(tags)) => {
                let items: Vec<Option<Vec<u8>>> = tags
                    .iter()
                    .map(|tag| server.find_nonce(tag, |f_r| f_r.map(<[u8]>::to_vec)))
                    .collect();
                protocol::encode_nonces(&items)
            }
            Ok(Request::SearchFind(tag)) => server.find_nonce(&tag, protocol::encode_found),
            Ok(Request::SearchRevealMany(items)) => {
                search_each(items.iter(), |(tag, seed)| server.reveal_one(tag, seed))
            }
            Ok(Request::Checkpoint) => server.handle_checkpoint(),
            Ok(Request::ExportIndex) => {
                protocol::encode_index_dump(&server.export_representations())
            }
            Ok(Request::ReplaceIndex { capacity, entries }) => {
                server.handle_replace_index(capacity, &entries)
            }
            Err(e) => protocol::encode_error(&e.to_string()),
        };
        Some(reply)
    }

    /// Every part is decoded first, so a malformed one gets its wire
    /// error; a `ReplaceIndex` is then refused.
    fn batch_part(part: &[u8]) -> Result<Option<BatchPart<'_, UpdateEntryRef<'_>>>> {
        Ok(match protocol::decode_request(part)? {
            Request::PutDocs(docs) => Some(BatchPart::Docs(docs)),
            Request::ApplyUpdates(entries) => Some(BatchPart::Index(entries)),
            _ => None,
        })
    }

    fn apply_batch(
        server: &Scheme1Server,
        docs: &[(u64, &[u8])],
        entries: &[UpdateEntryRef<'_>],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>> {
        if let Err(resp) = server.put_docs_checked(docs) {
            return Some(resp);
        }
        server.apply_updates_sharded(entries, park)
    }
}

/// XOR-merge updates into the shard tree, each delta straight from the
/// record (or insert fresh keywords).
fn apply_updates(data: &mut ShardData<Scheme1>, entries: &[UpdateEntryRef<'_>]) {
    for update in entries {
        data.note_mutated(update.tag);
        match data.tree.get_mut(&update.tag) {
            Some(entry) => {
                // I(w)⊕G(r) ⊕ (U(w)⊕G(r)⊕G(r')) = I'(w)⊕G(r')
                for (d, s) in entry.masked_index.iter_mut().zip(update.delta) {
                    *d ^= s;
                }
                entry.f_r.clear();
                entry.f_r.extend_from_slice(update.f_r);
            }
            // Fresh keyword: I(w) = 0, so the delta *is* I'(w)⊕G(r').
            None => {
                let (masked_index, f_r) = (update.delta.to_vec(), update.f_r.to_vec());
                data.tree.insert(update.tag, Entry { masked_index, f_r });
            }
        }
    }
}

/// Replace the shard tree with `entries` (the delta field holds the
/// complete new masked array).
fn replace_index(data: &mut ShardData<Scheme1>, entries: &[UpdateEntryRef<'_>]) {
    data.note_cleared();
    let mut tree = BpTree::new();
    for update in entries {
        data.note_mutated(update.tag);
        let (masked_index, f_r) = (update.delta.to_vec(), update.f_r.to_vec());
        tree.insert(update.tag, Entry { masked_index, f_r });
    }
    data.tree = tree;
}

/// Counters the experiments read out-of-band (they are *not* part of the
/// protocol surface).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scheme1ServerStats {
    /// Tag lookups served (search round 1 + updates).
    pub tree_lookups: u64,
    /// Total B+-tree nodes visited across lookups.
    pub tree_nodes_visited: u64,
    /// Searches completed (round 2).
    pub searches: u64,
    /// Update entries applied.
    pub updates_applied: u64,
    /// Documents stored.
    pub docs_stored: u64,
}

impl Scheme1Server {
    /// Observability counters.
    #[must_use]
    pub fn stats(&self) -> Scheme1ServerStats {
        let cells = &self.scheme;
        Scheme1ServerStats {
            tree_lookups: cells.tree_lookups.load(Ordering::Relaxed),
            tree_nodes_visited: cells.tree_nodes_visited.load(Ordering::Relaxed),
            searches: cells.searches.load(Ordering::Relaxed),
            updates_applied: self.entries_applied().load(Ordering::Relaxed),
            docs_stored: cells.docs_stored.load(Ordering::Relaxed),
        }
    }

    /// Reset the observability counters.
    pub fn reset_stats(&self) {
        let cells = &self.scheme;
        cells.tree_lookups.store(0, Ordering::Relaxed);
        cells.tree_nodes_visited.store(0, Ordering::Relaxed);
        cells.searches.store(0, Ordering::Relaxed);
        self.entries_applied().store(0, Ordering::Relaxed);
        cells.docs_stored.store(0, Ordering::Relaxed);
    }

    /// Byte size of every (masked) index array.
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.pipeline().index_bytes
    }

    /// Export the stored searchable representations
    /// `(f_kw(w), I(w) ⊕ G(r), F(r))` — this *is* the set `S` in the
    /// adversary's view (Definition 2), merged across shards in tag order.
    /// Used by the security harness.
    #[must_use]
    pub fn export_representations(&self) -> Vec<([u8; 32], Vec<u8>, Vec<u8>)> {
        let guards = self.lock_all_data();
        let mut out: Vec<([u8; 32], Vec<u8>, Vec<u8>)> = guards
            .iter()
            .flat_map(|s| {
                s.tree
                    .iter()
                    .map(|(tag, e)| (*tag, e.masked_index.clone(), e.f_r.clone()))
            })
            .collect();
        out.sort_unstable_by_key(|a| a.0);
        out
    }

    /// Export the stored encrypted documents `(id, E_km(M_i))` in id order
    /// (the other half of the adversary's view).
    #[must_use]
    pub fn export_blobs(&self) -> Vec<(u64, Vec<u8>)> {
        self.all_docs()
    }

    /// Store `docs`, enforcing the capacity bound. The error is the
    /// response to send.
    fn put_docs_checked(&self, docs: &[(u64, &[u8])]) -> StdResult<(), Vec<u8>> {
        let geometry = self.pipeline();
        for (id, _) in docs {
            if *id >= geometry.capacity_docs {
                return Err(protocol::encode_error(&format!(
                    "doc id {id} exceeds capacity {}",
                    geometry.capacity_docs
                )));
            }
        }
        self.put_docs(docs).map_err(|e| self.mutation_failed(&e))?;
        self.scheme
            .docs_stored
            .fetch_add(docs.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Validate update entries against the geometry, cut each shard's
    /// record from their bytes and run the records as one mutation
    /// (parked, when durable). The quiescence read lock spans both, so no
    /// `ReplaceIndex` can change the widths in between.
    fn apply_updates_sharded(
        &self,
        entries: &[UpdateEntryRef<'_>],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>> {
        let geometry = self.pipeline();
        for entry in entries {
            if entry.delta.len() != geometry.index_bytes {
                return Some(protocol::encode_error(&format!(
                    "delta length {} != index width {}",
                    entry.delta.len(),
                    geometry.index_bytes
                )));
            }
        }
        if entries.is_empty() {
            return Some(protocol::encode_ack());
        }
        let wire = entries.iter().map(|e| (e.tag, e.wire));
        let (idxs, records) = self.shard_records(&[REQ_TAGS::APPLY_UPDATES], wire, false);
        self.mutate(&geometry, &idxs, records, park)
    }

    fn handle_replace_index(&self, capacity: u64, entries: &[UpdateEntryRef<'_>]) -> Vec<u8> {
        let new_geometry = Geometry::new(capacity);
        if let Some(bad) = entries
            .iter()
            .find(|e| e.delta.len() != new_geometry.index_bytes)
        {
            return protocol::encode_error(&format!(
                "entry width {} != new index width {}",
                bad.delta.len(),
                new_geometry.index_bytes
            ));
        }
        // Migration must not lose keywords: the replacement set must cover
        // every currently stored tag. The quiescence write lock stops
        // staging and waits out every flush in progress; a flush of its own
        // applies everything parked, so the data trees are complete and
        // stable while we validate and replace.
        let mut geometry = self.quiesce();
        self.flush_with(&mut geometry);
        let new_tags: HashSet<[u8; 32]> = entries.iter().map(|e| e.tag).collect();
        for i in 0..self.num_shards() {
            let data = self.lock_data(i);
            for (tag, _) in data.tree.iter() {
                if !new_tags.contains(tag) {
                    return protocol::encode_error(
                        "replacement index is missing a stored keyword tag",
                    );
                }
            }
        }
        // ReplaceIndex rewrites every shard (a shard with no entries must
        // still clear), so the batch spans all N shards. Applying it also
        // moves `geometry` to the new capacity.
        let head = [&[REQ_TAGS::REPLACE_INDEX][..], &capacity.to_le_bytes()].concat();
        let wire = entries.iter().map(|e| (e.tag, e.wire));
        let (idxs, records) = self.shard_records(&head, wire, true);
        self.mutate_quiesced(&mut geometry, &idxs, records)
    }

    /// Look `tag` up in its shard's snapshot and hand the stored `F(r)`
    /// (if any) to `then`.
    fn find_nonce<R>(&self, tag: &[u8; 32], then: impl FnOnce(Option<&[u8]>) -> R) -> R {
        let snap = self.snap(self.shard_of(tag));
        let (entry, s) = snap.tree.get_with_stats(tag);
        self.scheme.tree_lookups.fetch_add(1, Ordering::Relaxed);
        self.scheme
            .tree_nodes_visited
            .fetch_add(s.nodes_visited as u64, Ordering::Relaxed);
        then(entry.map(|e| e.f_r.as_slice()))
    }

    /// Unmask one posting array with the revealed seed and fetch matches.
    /// Lock-free against the index: resolves the tag on the shard's
    /// immutable snapshot, never waiting on a shard mutex or an fsync.
    ///
    /// # Errors
    /// A stored array whose width disagrees with the snapshot's document
    /// capacity (possible only through a corrupted or adversarial index
    /// import) is reported as a protocol-level error — it must never become
    /// a `DocBitSet` capacity panic on a worker thread.
    fn reveal_one(
        &self,
        tag: &[u8; 32],
        seed: &[u8; 32],
    ) -> StdResult<Vec<(u64, Vec<u8>)>, String> {
        let snap = self.snap(self.shard_of(tag));
        self.scheme.searches.fetch_add(1, Ordering::Relaxed);
        let Some(entry) = snap.tree.get(tag) else {
            return Ok(Vec::new());
        };
        // Unmask: (I(w) ⊕ G(r)) ⊕ G(r) = I(w).
        let plain = Prg::mask(seed, &entry.masked_index);
        let Geometry {
            capacity_docs,
            index_bytes,
        } = snap.meta;
        if plain.len() != index_bytes {
            return Err(format!(
                "index entry width {} does not match capacity {capacity_docs} ({index_bytes} bytes expected)",
                plain.len(),
            ));
        }
        let ids = DocBitSet::from_bytes(capacity_docs as usize, &plain).to_ids();
        Ok(self.get_many(&ids))
    }

    /// One shard's stored entry, exposed for in-crate tests.
    #[cfg(test)]
    fn entry_for(&self, tag: &[u8; 32]) -> Option<(Vec<u8>, Vec<u8>)> {
        let data = self.lock_data(self.shard_of(tag));
        data.tree
            .get(tag)
            .map(|e| (e.masked_index.clone(), e.f_r.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme1::protocol::{
        decode_ack, decode_found, decode_nonces, decode_result, encode_apply_updates,
        encode_get_nonces, encode_put_docs, encode_search_find, encode_search_reveal, UpdateEntry,
    };
    use sse_net::link::Service;

    fn server() -> Scheme1Server {
        Scheme1Server::new_in_memory(64)
    }

    #[test]
    fn put_docs_and_capacity_enforcement() {
        let mut s = server();
        let ok = s.handle(&encode_put_docs(&[(0, vec![1]), (63, vec![2])]));
        decode_ack(&ok).unwrap();
        assert_eq!(s.stored_docs(), 2);

        let too_big = s.handle(&encode_put_docs(&[(64, vec![3])]));
        assert!(decode_ack(&too_big).is_err());
    }

    #[test]
    fn nonces_for_unknown_tags_are_absent() {
        let mut s = server();
        let resp = s.handle(&encode_get_nonces(&[[1u8; 32], [2u8; 32]]));
        assert_eq!(decode_nonces(&resp).unwrap(), vec![None, None]);
    }

    #[test]
    fn update_insert_then_merge() {
        let mut s = server();
        let tag = [9u8; 32];
        // Fresh insert: delta is the initial masked array.
        let delta1 = vec![0x0Fu8; 8];
        let r = s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: delta1.clone(),
            f_r: vec![1],
        }]));
        decode_ack(&r).unwrap();
        assert_eq!(s.unique_keywords(), 1);

        // Merge: stored becomes XOR of both deltas.
        let delta2 = vec![0xFFu8; 8];
        let r = s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: delta2,
            f_r: vec![2],
        }]));
        decode_ack(&r).unwrap();
        assert_eq!(s.unique_keywords(), 1);
        let (masked, f_r) = s.entry_for(&tag).unwrap();
        assert_eq!(masked, vec![0xF0u8; 8]);
        assert_eq!(f_r, vec![2]);
    }

    #[test]
    fn update_rejects_wrong_width() {
        let mut s = server();
        let r = s.handle(&encode_apply_updates(&[UpdateEntry {
            tag: [1u8; 32],
            delta: vec![0u8; 7], // index width is 8
            f_r: vec![],
        }]));
        assert!(decode_ack(&r).is_err());
    }

    #[test]
    fn search_find_reports_presence() {
        let mut s = server();
        let tag = [5u8; 32];
        assert_eq!(
            decode_found(&s.handle(&encode_search_find(&tag))).unwrap(),
            None
        );
        s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: vec![0u8; 8],
            f_r: vec![0xAB, 0xCD],
        }]));
        assert_eq!(
            decode_found(&s.handle(&encode_search_find(&tag))).unwrap(),
            Some(vec![0xAB, 0xCD])
        );
    }

    #[test]
    fn search_reveal_unmasks_and_returns_docs() {
        let mut s = server();
        s.handle(&encode_put_docs(&[
            (3, b"three".to_vec()),
            (7, b"seven".to_vec()),
        ]));

        // Build I(w) = {3, 7} masked under a known seed.
        let seed = [0x42u8; 32];
        let ids = DocBitSet::from_ids(64, &[3, 7]);
        let masked = Prg::mask(&seed, ids.as_bytes());
        let tag = [6u8; 32];
        s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: masked,
            f_r: vec![],
        }]));

        let resp = s.handle(&encode_search_reveal(&tag, &seed));
        let docs = crate::proto_common::decode_result_owned(&resp).unwrap();
        assert_eq!(docs, vec![(3, b"three".to_vec()), (7, b"seven".to_vec())]);
    }

    #[test]
    fn search_reveal_unknown_tag_is_empty() {
        let mut s = server();
        let resp = s.handle(&encode_search_reveal(&[1u8; 32], &[0u8; 32]));
        assert_eq!(decode_result(&resp).unwrap(), vec![]);
    }

    #[test]
    fn corrupted_entry_width_is_a_protocol_error_not_a_panic() {
        let mut s = server();
        let tag = [0x6Bu8; 32];
        // Plant an entry whose array width disagrees with the capacity,
        // bypassing the update path's width validation (models a corrupted
        // or adversarially imported index, not reachable via ApplyUpdates).
        let bad = [UpdateEntry {
            tag,
            delta: vec![0u8; 3], // capacity 64 needs 8 bytes
            f_r: vec![],
        }];
        let applied = s.mutate(
            &s.pipeline(),
            &[0],
            vec![encode_apply_updates(&bad)],
            || unreachable!("in memory: applied at once"),
        );
        decode_ack(&applied.unwrap()).unwrap();
        let resp = s.handle(&encode_search_reveal(&tag, &[0u8; 32]));
        assert!(
            decode_result(&resp).is_err(),
            "width mismatch must surface as a protocol ERR"
        );

        // The batched reveal path must take the same guard.
        let resp = s.handle(&protocol::encode_search_reveal_many(&[(tag, [0u8; 32])]));
        assert!(crate::proto_common::decode_result_many(&resp).is_err());
    }

    #[test]
    fn garbage_request_yields_error_response_not_panic() {
        let mut s = server();
        let resp = s.handle(&[0xEE, 0xFF, 0x00]);
        assert!(decode_ack(&resp).is_err());
    }

    #[test]
    fn stats_track_lookups() {
        let mut s = server();
        s.handle(&encode_search_find(&[1u8; 32]));
        s.handle(&encode_get_nonces(&[[2u8; 32], [3u8; 32]]));
        let st = s.stats();
        assert_eq!(st.tree_lookups, 3);
        assert!(st.tree_nodes_visited >= 3);
        s.reset_stats();
        assert_eq!(s.stats().tree_lookups, 0);
    }

    #[test]
    fn sharded_server_answers_like_single_shard() {
        // The same update/search conversation against 1 and 5 shards must
        // be indistinguishable on the wire.
        let mut single = Scheme1Server::new_in_memory(64);
        let mut sharded = Scheme1Server::new_in_memory_sharded(64, 5);
        assert_eq!(sharded.num_shards(), 5);
        let docs: Vec<(u64, Vec<u8>)> = (0..10u64).map(|i| (i, vec![i as u8; 4])).collect();
        let seed = [0x21u8; 32];
        let mut tags = Vec::new();
        let mut updates = Vec::new();
        for i in 0..20u8 {
            let mut tag = [0u8; 32];
            tag[0] = i.wrapping_mul(37);
            tag[1] = i;
            tags.push(tag);
            let ids = DocBitSet::from_ids(64, &[u64::from(i % 10)]);
            updates.push(UpdateEntry {
                tag,
                delta: Prg::mask(&seed, ids.as_bytes()),
                f_r: vec![i],
            });
        }
        for s in [&mut single, &mut sharded] {
            decode_ack(&s.handle(&encode_put_docs(&docs))).unwrap();
            decode_ack(&s.handle(&encode_apply_updates(&updates))).unwrap();
        }
        assert_eq!(single.unique_keywords(), sharded.unique_keywords());
        for tag in &tags {
            let a = single.handle(&encode_search_reveal(tag, &seed));
            let b = sharded.handle(&encode_search_reveal(tag, &seed));
            assert_eq!(a, b);
        }
        assert_eq!(
            single.export_representations(),
            sharded.export_representations()
        );
    }

    #[test]
    fn apply_batch_is_all_or_nothing_on_validation() {
        let s = server();
        let good = encode_apply_updates(&[UpdateEntry {
            tag: [1u8; 32],
            delta: vec![0xFF; 8],
            f_r: vec![1],
        }]);
        let bad = encode_apply_updates(&[UpdateEntry {
            tag: [2u8; 32],
            delta: vec![0xFF; 3], // wrong width
            f_r: vec![2],
        }]);
        let resp = s.apply_batch(&[&good, &bad]);
        assert!(decode_ack(&resp).is_err());
        assert_eq!(s.unique_keywords(), 0, "no part of the batch applied");

        let resp = s.apply_batch(&[&good]);
        decode_ack(&resp).unwrap();
        assert_eq!(s.unique_keywords(), 1);
    }

    #[test]
    fn apply_batch_rejects_non_mutations() {
        let s = server();
        let resp = s.apply_batch(&[&encode_search_find(&[1u8; 32])]);
        assert!(decode_ack(&resp).is_err());
    }

    #[test]
    fn searches_see_acked_updates_through_snapshots() {
        // Read-your-writes through the snapshot path: an acked update is
        // immediately visible to GetNonces / SearchFind / reveal.
        let s = Scheme1Server::new_in_memory_sharded(64, 4);
        let seed = [0x37u8; 32];
        for i in 0..32u8 {
            let mut tag = [0u8; 32];
            tag[0] = i;
            tag[1] = i.wrapping_mul(101);
            let ids = DocBitSet::from_ids(64, &[u64::from(i % 16)]);
            let resp = s.handle_shared(&encode_apply_updates(&[UpdateEntry {
                tag,
                delta: Prg::mask(&seed, ids.as_bytes()),
                f_r: vec![i, 0xEE],
            }]));
            decode_ack(&resp).unwrap();
            let found = s.handle_shared(&encode_search_find(&tag));
            assert_eq!(decode_found(&found).unwrap(), Some(vec![i, 0xEE]));
        }
        let counters = s.commit_counters();
        assert_eq!(counters.snapshot_swaps, 32);
    }
}
