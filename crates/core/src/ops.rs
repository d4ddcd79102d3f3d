//! What a scheme plugs into the index engine.
//!
//! [`SchemeOps`] is the whole difference between the two schemes as the
//! server sees it: the value stored per tag, its codecs and journal
//! replay, and the scheme's request dispatch and batch parts. A module
//! private to the crate, so the trait stays sealed while the public
//! [`IndexEngine`] names it as a bound.

use crate::commit::Reply;
use crate::engine::IndexEngine;
use crate::error::Result;
use sse_index::bptree::BpTree;
use sse_net::wire::{WireReader, WireWriter};
use sse_storage::lsm::LsmKeywordMap;
use std::collections::HashSet;

/// What a scheme supplies to the engine. Statically dispatched: the
/// engine is monomorphized per scheme.
pub trait SchemeOps: Sized + Send + Sync + 'static {
    /// The searchable representation stored per tag.
    type Value: Clone + Send + Sync + 'static;
    /// State guarded by the quiescence lock, copied into every snapshot
    /// and persisted with every checkpoint (Scheme 1's index geometry).
    type Meta: Clone + Send + Sync + 'static;
    /// Per-shard in-memory state the engine carries but never reads, only
    /// hands to [`SchemeOps::apply`] (Scheme 2's per-keyword search cache).
    type Sidecar: Default + Send + Sync + 'static;
    /// What the server's constructors take: Scheme 1's document capacity,
    /// Scheme 2's config.
    type Config;
    /// One index update entry, borrowed from the request it arrived in.
    type EntryRef<'a>;

    /// File stem: `<stem>.index`, `<stem>.{i}.wal`, `<stem>.kw{i}`,
    /// `<stem>.meta`.
    const STEM: &'static str;
    /// Snapshot magic. The trailing version digit is 2: the body leads
    /// with the `last_op_seq` the snapshot covers, so journal replay can
    /// skip already-applied mutations.
    const MAGIC: &'static [u8; 8];
    /// Lower bound on one encoded value; with the 32-byte tag it bounds
    /// the entry count a snapshot may declare.
    const MIN_VALUE_BYTES: usize;
    /// The error an `UPDATE_MANY` part that is not a mutation gets.
    const BATCH_PARTS: &'static str;

    /// The scheme's per-server state and the index meta to start from.
    fn new(config: Self::Config) -> (Self, Self::Meta);

    /// The persisted form of `meta`, of a width that does not depend on
    /// its value: it follows `last_op_seq` in a btree snapshot and is the
    /// keyword map's `meta` blob under lsm.
    fn encode_meta(meta: &Self::Meta) -> Vec<u8>;

    /// Check persisted meta bytes against the server's own.
    ///
    /// # Errors
    /// [`sse_storage::StorageError::Corrupt`] on any disagreement.
    fn check_meta(meta: &Self::Meta, stored: &[u8]) -> Result<()>;

    /// Serialize one value: the per-tag body of a btree snapshot entry,
    /// and the whole keyword-map value under lsm.
    fn encode_value(value: &Self::Value, w: &mut WireWriter);

    /// Inverse of [`SchemeOps::encode_value`], validated against `meta`.
    ///
    /// # Errors
    /// Wire errors, or [`sse_storage::StorageError::Corrupt`] for a value
    /// `meta` rules out.
    fn decode_value(r: &mut WireReader<'_>, meta: &Self::Meta) -> Result<Self::Value>;

    /// Apply one shard-local mutation — the same bytes live (at once in
    /// memory; by a flush once the record is durable) and in recovery. No
    /// re-journaling, no re-validation: the record was cut from a request
    /// that decoded and validated whole before it was staged. Returns the
    /// entries it applied, for the scheme's counters.
    ///
    /// # Errors
    /// Wire errors, or [`sse_storage::StorageError::Corrupt`] if the
    /// record is not a mutation.
    fn apply(
        data: &mut ShardData<Self>,
        sidecar: &Self::Sidecar,
        meta: &mut Self::Meta,
        record: &[u8],
    ) -> Result<u64>;

    /// Whether the request whose tag (first byte) is `tag` only reads.
    fn is_read(tag: u8) -> bool;

    /// Serve one request: [`IndexEngine::handle_parked`]'s body.
    fn serve(
        engine: &IndexEngine<Self>,
        request: &[u8],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>>;

    /// Decode one `UPDATE_MANY` part, its blobs and index entries
    /// borrowed: `None` for a request that may not be one.
    ///
    /// # Errors
    /// The part does not decode.
    fn batch_part(part: &[u8]) -> Result<Option<BatchPart<'_, Self::EntryRef<'_>>>>;

    /// Run a batch's parts, merged: store `docs`, then apply `entries` as
    /// one index mutation, parked as [`SchemeOps::serve`] parks.
    fn apply_batch(
        engine: &IndexEngine<Self>,
        docs: &[(u64, &[u8])],
        entries: &[Self::EntryRef<'_>],
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>>;
}

/// One decoded part of an `UPDATE_MANY` batch, borrowed from the part.
pub enum BatchPart<'a, E> {
    /// A `PutDocs`, each blob in place in the part.
    Docs(Vec<(u64, &'a [u8])>),
    /// The scheme's index update, its entries borrowed from the part.
    Index(Vec<E>),
}

/// A shard's mutable state: the live tree plus the highest op-seq applied
/// to it. Records apply in seq order (`applied_seq + 1 == seq`).
pub struct ShardData<S: SchemeOps> {
    pub(crate) tree: BpTree<[u8; 32], S::Value>,
    pub(crate) applied_seq: u64,
    /// Tags mutated since the last checkpoint. Only tracked under the lsm
    /// backend, which flushes exactly these into its keyword map; the
    /// btree backend rewrites the whole snapshot file and never records.
    dirty: HashSet<[u8; 32]>,
    /// The whole index was replaced since the last checkpoint (lsm).
    cleared: bool,
    /// Durable per-shard keyword-map persistence (lsm backend only; the
    /// btree backend keeps the monolithic `<stem>.index` snapshot).
    pub(crate) kw_map: Option<LsmKeywordMap>,
}

impl<S: SchemeOps> ShardData<S> {
    pub(crate) fn new(
        tree: BpTree<[u8; 32], S::Value>,
        applied_seq: u64,
        kw_map: Option<LsmKeywordMap>,
    ) -> Self {
        ShardData {
            tree,
            applied_seq,
            dirty: HashSet::new(),
            cleared: false,
            kw_map,
        }
    }

    /// Inside [`SchemeOps::apply`] on the live path: the seq of the record
    /// being applied.
    pub(crate) fn applying_seq(&self) -> u64 {
        self.applied_seq + 1
    }

    /// Record a durable mutation of `tag` for the next checkpoint flush.
    pub(crate) fn note_mutated(&mut self, tag: [u8; 32]) {
        if self.kw_map.is_some() {
            self.dirty.insert(tag);
        }
    }

    /// Record a full index replacement for the next checkpoint flush.
    pub(crate) fn note_cleared(&mut self) {
        if self.kw_map.is_some() {
            self.dirty.clear();
            self.cleared = true;
        }
    }

    /// Flush an lsm-backed shard: clear if the index was replaced, write
    /// every dirty tag's current value (or a tombstone if it vanished),
    /// then commit one run carrying `applied_seq` and the encoded `meta`.
    /// No-op for btree shards.
    pub(crate) fn flush_kw_map(&mut self, meta: &S::Meta) -> Result<()> {
        let Some(map) = &mut self.kw_map else {
            return Ok(());
        };
        if self.cleared {
            map.clear();
        }
        for tag in &self.dirty {
            match self.tree.get(tag) {
                Some(value) => {
                    let mut w = WireWriter::new();
                    S::encode_value(value, &mut w);
                    map.put(*tag, w.finish());
                }
                None => map.delete(tag),
            }
        }
        map.flush(self.applied_seq, &S::encode_meta(meta))?;
        self.dirty.clear();
        self.cleared = false;
        Ok(())
    }
}
