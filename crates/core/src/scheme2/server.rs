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
//! ## Sharding, group commit and snapshot reads
//!
//! Like Scheme 1, the tag tree is partitioned into N shards by
//! [`crate::shard::shard_of`] (see DESIGN.md §4d/§4e — the shard id is a
//! public function of the already-revealed tag, so leakage is unchanged).
//! Each shard is a group-commit pipeline:
//!
//! * **Appends** stage their journal record into the shard's
//!   [`GroupCommitter`] (one vectored write + one fsync per *group* of
//!   concurrent mutations), apply to the live tree in seq order after the
//!   group fsync, then publish an immutable copy-on-write snapshot.
//! * **Searches** resolve the tag — and walk the whole chain — against
//!   the shard's snapshot, never taking the shard mutex and never waiting
//!   on an fsync. The Optimization-1 cache is written back opportunistically
//!   afterwards: a `try_lock` on the live shard that is simply skipped if
//!   the shard is busy or has changed since the snapshot (the next search
//!   rebuilds the cache — it is an optimization, not state).
//!
//! Mutations touching several shards (`ResetIndex`, batched appends) stage
//! [`crate::shard`] batch slices under every affected committer's stage
//! lock (ascending) and swap all touched snapshots inside one odd-epoch
//! window, so crash recovery and racing searches both see them
//! all-or-nothing. Mutations hold the barrier read lock across their whole
//! stage→apply pipeline, so checkpoints (barrier writers) run fully
//! quiesced. Lock order: barrier → stage locks ascending → data locks
//! ascending → document store.

use super::protocol::{self, GenerationEntry, Request};
use super::Scheme2Config;
use crate::commit::{CommitCounters, CommitStats, GroupCommitter};
use crate::error::{Result, SseError};
use crate::health::{ScrubFindings, TenantHealth};
use crate::journal::{IndexJournal, ServerRecovery};
use crate::proto_common;
use crate::shard::{self, shard_of, BatchId};
use parking_lot::{Mutex, MutexGuard, RwLock};
use sse_index::bptree::BpTree;
use sse_index::postings::{Generation, GenerationList};
use sse_net::link::Service;
use sse_net::wire::{WireReader, WireWriter};
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::ChainWalker;
use sse_storage::crc32::crc32;
use sse_storage::lsm::{LsmDocStore, LsmKeywordMap};
use sse_storage::store::DocStore;
use sse_storage::{
    resolve_backend, BackendCounters, BackendKind, DocBlobStore, KeywordMap, RealVfs, StorageError,
    Vfs,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

/// Snapshot magic, v2: the body leads with the `last_op_seq` covered by
/// the snapshot so journal replay can skip already-applied mutations.
const INDEX_MAGIC: &[u8; 8] = b"SSE2IDX2";
/// Shard manifest file inside the server's home directory.
const MANIFEST_FILE: &str = "scheme2.meta";

/// Index snapshot file for shard `i` (shard 0 keeps the pre-sharding name
/// so single-shard directories stay readable by and from older layouts).
fn index_file(i: usize) -> String {
    if i == 0 {
        "scheme2.index".to_string()
    } else {
        format!("scheme2.{i}.index")
    }
}

/// Journal file for shard `i` (same legacy-name rule as [`index_file`]).
fn journal_file(i: usize) -> String {
    if i == 0 {
        "scheme2.wal".to_string()
    } else {
        format!("scheme2.{i}.wal")
    }
}

/// LSM keyword-map file prefix for shard `i` (lsm backend only).
fn kw_prefix(i: usize) -> String {
    format!("scheme2.kw{i}")
}

/// Out-of-band observability counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scheme2ServerStats {
    /// Searches served.
    pub searches: u64,
    /// Total forward hash-chain steps across all searches.
    pub chain_steps: u64,
    /// Generations decrypted across all searches.
    pub generations_decrypted: u64,
    /// Generations served straight from the Optimization-1 cache.
    pub generations_from_cache: u64,
    /// Generation entries appended.
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
    generations_appended: AtomicU64,
    tree_nodes_visited: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    walk_steps_saved: AtomicU64,
}

/// A shard's mutable state: the live tree plus the highest op-seq applied
/// to it. Mutations apply in seq order (`applied_seq + 1 == my_seq`).
struct ShardData {
    tree: BpTree<[u8; 32], GenerationList>,
    applied_seq: u64,
    /// Tags mutated since the last checkpoint. Only tracked under the lsm
    /// backend, which flushes exactly these into its keyword map; the
    /// btree backend rewrites the whole snapshot file and never records.
    dirty: HashSet<[u8; 32]>,
    /// A `ResetIndex` happened since the last checkpoint (lsm backend).
    cleared: bool,
    /// Durable per-shard keyword-map persistence (lsm backend only; the
    /// btree backend keeps the monolithic `scheme2.index` snapshot).
    kw_map: Option<LsmKeywordMap>,
}

impl ShardData {
    /// Record a durable mutation of `tag` for the next checkpoint flush.
    fn note_mutated(&mut self, tag: [u8; 32]) {
        if self.kw_map.is_some() {
            self.dirty.insert(tag);
        }
    }

    /// Record a full index reset for the next checkpoint flush.
    fn note_cleared(&mut self) {
        if self.kw_map.is_some() {
            self.dirty.clear();
            self.cleared = true;
        }
    }
}

/// The immutable view searches resolve against.
struct SnapShard {
    tree: BpTree<[u8; 32], GenerationList>,
    /// The highest op-seq applied to the tree in this snapshot. Search
    /// memo entries are keyed on it: a memo recorded at seq S is valid
    /// exactly while the shard's snapshot still carries seq S.
    applied_seq: u64,
}

/// Per-keyword search memo: everything the server learned from serving a
/// prior search, so a repeat search answers without touching the tree or
/// re-walking the chain. Purely in-memory — never persisted, rebuilt by
/// the first search after recovery.
///
/// Leakage note (DESIGN.md §4f): every field is a value the server
/// already computed while serving a search the client asked for — the
/// revealed trapdoor, the unlocked id set, the walk it performed. The
/// memo changes *when* the server recomputes, never *what* it knows.
#[derive(Clone)]
struct SearchMemo {
    /// Shard `applied_seq` the memoized answer was computed at.
    applied_seq: u64,
    /// Newest trapdoor seen for this tag (the walk start point).
    t_prime: [u8; 32],
    /// The unlocked document-id set, sorted.
    ids: Vec<u64>,
    /// Chain steps a from-scratch walk from `t_prime` would cost — what a
    /// memo hit saves.
    walk_cost: u64,
    /// Generations the memoized answer covers (credited to
    /// `generations_from_cache` on a hit).
    gens: u64,
}

/// Per-shard memo capacity; crossing it clears the map (crude but bounded
/// — the memo is an optimization, not state).
const MEMO_CAP: usize = 4096;

/// One index shard: group-commit pipeline + live tree + search snapshot.
struct ShardSlot {
    data: Mutex<ShardData>,
    /// Signaled whenever `applied_seq` advances.
    applied: Condvar,
    committer: GroupCommitter,
    snap: RwLock<Arc<SnapShard>>,
    /// Per-keyword search memo (see [`SearchMemo`]). A short-critical-
    /// section mutex: held only for a lookup or an insert, never across
    /// crypto or I/O, so the search path stays effectively lock-free.
    memo: Mutex<HashMap<[u8; 32], SearchMemo>>,
}

/// The Scheme 2 server.
pub struct Scheme2Server {
    /// Read-held by every mutation pipeline, write-held by checkpoints —
    /// a checkpoint must see every staged record already applied before
    /// it may snapshot and reset journals.
    barrier: RwLock<()>,
    shards: Vec<ShardSlot>,
    /// Seqlock epoch: odd while a multi-shard batch swaps its snapshots.
    epoch: AtomicU64,
    /// Contended shard-lock acquisitions, per shard (served via STATS).
    contention: Vec<AtomicU64>,
    /// Group-commit pipeline counters, shared by every shard's committer.
    commit_stats: Arc<CommitStats>,
    store: RwLock<Box<dyn DocBlobStore>>,
    /// Which storage backend persists this server's state.
    backend: BackendKind,
    config: Scheme2Config,
    stats: StatsCells,
    /// Durable home directory (None for in-memory servers).
    dir: Option<std::path::PathBuf>,
    /// The VFS every index file goes through (real or fault-injecting).
    vfs: Arc<dyn Vfs>,
    /// What the last [`Scheme2Server::open_durable`] had to repair.
    recovery: ServerRecovery,
    /// Per-tenant health cell: storage write failures degrade the server
    /// to read-only until [`Scheme2Server::repair`] succeeds.
    health: Arc<TenantHealth>,
}

impl Scheme2Server {
    /// In-memory server with a single index shard.
    #[must_use]
    pub fn new_in_memory(config: Scheme2Config) -> Self {
        Self::new_in_memory_sharded(config, 1)
    }

    /// In-memory server with `shards` independently locked index shards.
    #[must_use]
    pub fn new_in_memory_sharded(config: Scheme2Config, shards: usize) -> Self {
        let n = shards.max(1);
        let commit_stats = Arc::new(CommitStats::default());
        Scheme2Server {
            barrier: RwLock::new(()),
            shards: (0..n)
                .map(|_| ShardSlot {
                    data: Mutex::new(ShardData {
                        tree: BpTree::new(),
                        applied_seq: 0,
                        dirty: HashSet::new(),
                        cleared: false,
                        kw_map: None,
                    }),
                    applied: Condvar::new(),
                    committer: GroupCommitter::new_in_memory(Arc::clone(&commit_stats)),
                    snap: RwLock::new(Arc::new(SnapShard {
                        tree: BpTree::new(),
                        applied_seq: 0,
                    })),
                    memo: Mutex::new(HashMap::new()),
                })
                .collect(),
            epoch: AtomicU64::new(0),
            contention: (0..n).map(|_| AtomicU64::new(0)).collect(),
            commit_stats,
            store: RwLock::new(Box::new(DocStore::in_memory())),
            backend: BackendKind::Btree,
            config,
            stats: StatsCells::default(),
            dir: None,
            vfs: RealVfs::arc(),
            recovery: ServerRecovery::default(),
            health: Arc::new(TenantHealth::new()),
        }
    }

    /// Durable server persisting document blobs under `dir`, single index
    /// shard. Recovery brings back everything acknowledged before a
    /// crash: the document store replays its WAL, each shard's index
    /// snapshot (if any) is loaded, and index mutations journaled after
    /// the snapshots are re-applied in order (incomplete cross-shard
    /// batches excluded).
    ///
    /// # Errors
    /// Storage errors while opening or recovering the document store, a
    /// corrupt index snapshot, or a corrupt journal record.
    pub fn open_durable(config: Scheme2Config, dir: &Path) -> Result<Self> {
        Self::open_durable_with_vfs(RealVfs::arc(), config, dir)
    }

    /// [`Scheme2Server::open_durable`] with an index sharded `shards`
    /// ways. The count is fixed at directory creation (recorded in the
    /// shard manifest); reopening adopts whatever the directory holds.
    ///
    /// # Errors
    /// As [`Scheme2Server::open_durable`].
    pub fn open_durable_sharded(config: Scheme2Config, dir: &Path, shards: usize) -> Result<Self> {
        Self::open_durable_with_vfs_sharded(RealVfs::arc(), config, dir, shards)
    }

    /// [`Scheme2Server::open_durable`] over an explicit [`Vfs`] (fault
    /// injection runs the whole server through a
    /// [`sse_storage::FaultVfs`]).
    ///
    /// # Errors
    /// As [`Scheme2Server::open_durable`], plus injected faults.
    pub fn open_durable_with_vfs(
        vfs: Arc<dyn Vfs>,
        config: Scheme2Config,
        dir: &Path,
    ) -> Result<Self> {
        Self::open_durable_with_vfs_sharded(vfs, config, dir, 1)
    }

    /// [`Scheme2Server::open_durable_sharded`] over an explicit [`Vfs`],
    /// with group commit enabled.
    ///
    /// # Errors
    /// As [`Scheme2Server::open_durable`], plus injected faults.
    pub fn open_durable_with_vfs_sharded(
        vfs: Arc<dyn Vfs>,
        config: Scheme2Config,
        dir: &Path,
        shards: usize,
    ) -> Result<Self> {
        Self::open_durable_with_vfs_opts(vfs, config, dir, shards, true)
    }

    /// [`Scheme2Server::open_durable_with_vfs_sharded`] with group commit
    /// switchable: when `group_commit` is false every journal record is
    /// flushed on its own (one fsync per op) — the benchmark's baseline
    /// arm. Durability and recovery semantics are identical either way.
    ///
    /// # Errors
    /// As [`Scheme2Server::open_durable`], plus injected faults.
    pub fn open_durable_with_vfs_opts(
        vfs: Arc<dyn Vfs>,
        config: Scheme2Config,
        dir: &Path,
        shards: usize,
        group_commit: bool,
    ) -> Result<Self> {
        Self::open_durable_with_backend(vfs, config, dir, shards, group_commit, BackendKind::Btree)
    }

    /// [`Scheme2Server::open_durable_with_vfs_opts`] with an explicit
    /// storage backend. The backend is fixed at directory creation
    /// (recorded in `backend.meta`); reopening under the other backend is
    /// a clean [`StorageError::BackendMismatch`], never silent corruption.
    /// Directories created before backend manifests existed are `btree`.
    ///
    /// Under [`BackendKind::Lsm`] the document store is an
    /// [`LsmDocStore`] and each shard's generation lists persist in an
    /// [`LsmKeywordMap`]: checkpoints flush only the tags mutated since
    /// the previous checkpoint as one new sorted run, instead of
    /// rewriting the whole index snapshot.
    ///
    /// # Errors
    /// As [`Scheme2Server::open_durable`], plus backend mismatch.
    pub fn open_durable_with_backend(
        vfs: Arc<dyn Vfs>,
        config: Scheme2Config,
        dir: &Path,
        shards: usize,
        group_commit: bool,
        backend: BackendKind,
    ) -> Result<Self> {
        let backend = resolve_backend(
            vfs.as_ref(),
            dir,
            backend,
            &[
                MANIFEST_FILE,
                "store.wal",
                "store.snapshot",
                &index_file(0),
                &journal_file(0),
            ],
        )?;
        let opts = sse_storage::store::StoreOptions::default();
        let store: Box<dyn DocBlobStore> = match backend {
            BackendKind::Btree => Box::new(DocStore::open_with_vfs(vfs.clone(), dir, opts)?),
            BackendKind::Lsm => Box::new(LsmDocStore::open_with_vfs(vfs.clone(), dir, opts)?),
        };
        let store_recovery = store.recovery_report();
        let n =
            shard::resolve_shard_count(vfs.as_ref(), dir, MANIFEST_FILE, &index_file(0), shards)?;
        let mut trees: Vec<BpTree<[u8; 32], GenerationList>> = Vec::with_capacity(n);
        let mut kw_maps: Vec<Option<LsmKeywordMap>> = Vec::with_capacity(n);
        let mut journals: Vec<IndexJournal> = Vec::with_capacity(n);
        let mut recoveries = Vec::with_capacity(n);
        for i in 0..n {
            let mut tree = BpTree::new();
            let mut snapshot_seq = 0u64;
            let mut kw_map = None;
            match backend {
                BackendKind::Btree => {
                    let index_path = dir.join(index_file(i));
                    if vfs.exists(&index_path) {
                        let bytes = vfs.read(&index_path).map_err(StorageError::Io)?;
                        snapshot_seq = load_shard_snapshot(&mut tree, &bytes)?;
                    }
                }
                BackendKind::Lsm => {
                    let map = LsmKeywordMap::open(vfs.clone(), dir, &kw_prefix(i))?;
                    snapshot_seq = map.last_seq();
                    for (tag, value) in map.iter_all()? {
                        tree.insert(tag, decode_generation_list(&value)?);
                    }
                    kw_map = Some(map);
                }
            }
            let (journal, recovery) = IndexJournal::open_with_vfs(
                vfs.clone(),
                &dir.join(journal_file(i)),
                true,
                snapshot_seq,
            )?;
            trees.push(tree);
            kw_maps.push(kw_map);
            journals.push(journal);
            recoveries.push(recovery);
        }
        let plan = shard::resolve_shard_recoveries(&recoveries)?;
        let mut replayed = 0u64;
        let mut dirty_sets: Vec<HashSet<[u8; 32]>> = vec![HashSet::new(); n];
        let mut cleared_flags = vec![false; n];
        for (si, (tree, apply)) in trees.iter_mut().zip(&plan.apply).enumerate() {
            for raw in apply {
                replay_into(tree, raw, &mut dirty_sets[si], &mut cleared_flags[si])?;
                replayed += 1;
            }
        }
        let commit_stats = Arc::new(CommitStats::default());
        let shards: Vec<ShardSlot> = trees
            .into_iter()
            .zip(journals)
            .zip(kw_maps)
            .zip(dirty_sets.into_iter().zip(cleared_flags))
            .map(|(((tree, journal), kw_map), (dirty, cleared))| {
                let applied_seq = journal.last_seq();
                // Replayed journal records are not yet in the keyword map;
                // keep their tags dirty so the next checkpoint flushes
                // them. Irrelevant for btree (whole-snapshot rewrites).
                let (dirty, cleared) = if kw_map.is_some() {
                    (dirty, cleared)
                } else {
                    (HashSet::new(), false)
                };
                ShardSlot {
                    snap: RwLock::new(Arc::new(SnapShard {
                        tree: tree.clone(),
                        applied_seq,
                    })),
                    data: Mutex::new(ShardData {
                        tree,
                        applied_seq,
                        dirty,
                        cleared,
                        kw_map,
                    }),
                    applied: Condvar::new(),
                    committer: GroupCommitter::new_durable(
                        journal,
                        group_commit,
                        Arc::clone(&commit_stats),
                    ),
                    memo: Mutex::new(HashMap::new()),
                }
            })
            .collect();
        Ok(Scheme2Server {
            barrier: RwLock::new(()),
            shards,
            epoch: AtomicU64::new(0),
            contention: (0..n).map(|_| AtomicU64::new(0)).collect(),
            commit_stats,
            store: RwLock::new(store),
            backend,
            config,
            stats: StatsCells::default(),
            dir: Some(dir.to_path_buf()),
            vfs,
            recovery: ServerRecovery {
                index_ops_replayed: replayed,
                index_torn_bytes: recoveries.iter().map(|r| r.torn_bytes_truncated).sum(),
                store_snapshot_loaded: store_recovery.snapshot_loaded,
                store_wal_records_replayed: store_recovery.wal_records_replayed,
                store_torn_bytes: store_recovery.torn_bytes_truncated,
            },
            health: Arc::new(TenantHealth::new()),
        })
    }

    /// This server's health cell, shared with the serving daemon's request
    /// router and the background scrub.
    #[must_use]
    pub fn health(&self) -> &Arc<TenantHealth> {
        &self.health
    }

    /// Report a failed mutation: storage-typed failures degrade the tenant
    /// to read-only (validation and protocol errors do not — they say
    /// nothing about the disk), then encode the protocol error response.
    fn mutation_failed(&self, e: &SseError) -> Vec<u8> {
        if matches!(e, SseError::Storage(_)) {
            self.health.note_storage_error(&e.to_string());
        }
        proto_common::encode_error(&e.to_string())
    }

    /// Attempt to repair a degraded server — the scrub's probe-write path.
    ///
    /// Under full quiescence (barrier write lock + all data locks, so no
    /// mutation is staging, flushing or applying), re-persist every
    /// shard's *applied* state — document-store checkpoint, then index
    /// snapshots (btree) or keyword-map flushes (lsm) — and then replace
    /// each shard's journal with a freshly opened empty one, clearing any
    /// group-commit poison. Seqs of failed groups are reclaimed: those
    /// records were never acknowledged and the fresh journal restarts
    /// densely at `applied_seq + 1`. The end-to-end write pass is itself
    /// the probe write: on success the health cell returns to Healthy.
    ///
    /// # Errors
    /// Filesystem errors (the disk is still bad); the server stays
    /// Degraded and the scrub retries later. In-memory servers have
    /// nothing to repair and always succeed.
    pub fn repair(&self) -> Result<()> {
        let Some(dir) = self.dir.clone() else {
            self.health.note_probe_ok();
            return Ok(());
        };
        let _quiesce = self.barrier.write();
        let mut datas = self.lock_all_data();
        self.store.write().checkpoint()?;
        match self.backend {
            BackendKind::Btree => {
                for (i, data) in datas.iter().enumerate() {
                    self.save_shard_snapshot(data, &dir.join(index_file(i)))?;
                }
                self.vfs.sync_dir(&dir).map_err(StorageError::Io)?;
            }
            BackendKind::Lsm => {
                for data in datas.iter_mut() {
                    flush_shard_kw_map(data)?;
                }
            }
        }
        for (i, data) in datas.iter().enumerate() {
            let path = dir.join(journal_file(i));
            let _ = self.vfs.remove_file(&path);
            let (journal, _) =
                IndexJournal::open_with_vfs(self.vfs.clone(), &path, true, data.applied_seq)?;
            self.shards[i].committer.replace_journal(journal);
        }
        self.health.note_probe_ok();
        Ok(())
    }

    /// Checksum-verify every on-disk artifact of this server (scrub
    /// integrity pass): WAL segments, index snapshots (btree) or LSM runs,
    /// and the document store's runs (lsm backend; heap pages carry no
    /// CRCs and are skipped).
    ///
    /// WAL segments and btree snapshots are prefix-stable / swapped by
    /// rename, so they are verified lock-free; LSM runs are swapped in
    /// place by flush/compaction and are verified under the shard data
    /// lock (store read lock for the doc store).
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on *confirmed* corruption — a bad-CRC
    /// record in the middle of a WAL (valid records follow it), a snapshot
    /// or run checksum mismatch. Torn WAL tails are repairable, counted in
    /// the findings, and never an error. I/O errors are transient.
    pub fn verify_files(&self) -> Result<ScrubFindings> {
        let mut findings = ScrubFindings::default();
        let Some(dir) = self.dir.clone() else {
            return Ok(findings);
        };
        let mut wal_paths: Vec<std::path::PathBuf> = (0..self.shards.len())
            .map(|i| dir.join(journal_file(i)))
            .collect();
        wal_paths.push(dir.join(if self.backend == BackendKind::Lsm {
            "doc.wal"
        } else {
            "store.wal"
        }));
        for path in &wal_paths {
            match sse_storage::wal::verify_file(self.vfs.as_ref(), path)? {
                sse_storage::wal::WalVerdict::Clean { .. } => findings.artifacts_verified += 1,
                sse_storage::wal::WalVerdict::TornTail { .. } => {
                    findings.artifacts_verified += 1;
                    findings.torn_tails_seen += 1;
                }
                sse_storage::wal::WalVerdict::Corrupt { at } => {
                    return Err(SseError::Storage(StorageError::Corrupt {
                        what: "wal segment",
                        detail: format!(
                            "scrub: mid-log checksum mismatch at byte {at} in {}",
                            path.display()
                        ),
                    }));
                }
            }
        }
        match self.backend {
            BackendKind::Btree => {
                for i in 0..self.shards.len() {
                    if verify_index_snapshot(self.vfs.as_ref(), &dir.join(index_file(i)))? {
                        findings.artifacts_verified += 1;
                    }
                }
            }
            BackendKind::Lsm => {
                for i in 0..self.shards.len() {
                    let data = self.lock_data(i);
                    if let Some(map) = &data.kw_map {
                        findings.artifacts_verified += map.verify_runs()?;
                    }
                }
            }
        }
        findings.artifacts_verified += self.store.read().verify()?;
        Ok(findings)
    }

    /// What the last [`Scheme2Server::open_durable`] had to repair.
    #[must_use]
    pub fn recovery(&self) -> ServerRecovery {
        self.recovery
    }

    /// Number of index shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Contended shard-lock acquisitions since startup, per shard.
    #[must_use]
    pub fn shard_contention(&self) -> Vec<u64> {
        self.contention
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Group-commit pipeline counters (groups, ops, fsyncs saved,
    /// snapshot swaps) since startup.
    #[must_use]
    pub fn commit_counters(&self) -> CommitCounters {
        self.commit_stats.counters()
    }

    /// The storage backend persisting this server's state.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Per-backend storage counters (runs, compactions, bloom hit rates):
    /// the document store's plus every shard keyword map's. All zero
    /// under the btree backend.
    #[must_use]
    pub fn backend_counters(&self) -> BackendCounters {
        let mut c = self.store.read().counters();
        for i in 0..self.shards.len() {
            let data = self.lock_data(i);
            if let Some(map) = &data.kw_map {
                c.merge(&map.counters());
            }
        }
        c
    }

    /// Checkpoint everything durable, in crash-safe order: document store
    /// snapshot, then every shard's index snapshot (each recording its
    /// `applied_seq` as `last_op_seq`), then every journal truncation.
    /// The barrier write lock quiesces the mutation pipeline first, so
    /// every staged record is both durable and applied — no journal may
    /// be reset while a group is in flight, and the snapshots-before-any-
    /// reset order keeps cross-shard batch slices resolvable.
    ///
    /// # Errors
    /// Filesystem errors. No-op index-wise for in-memory servers.
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        let _quiesce = self.barrier.write();
        let mut datas = self.lock_all_data();
        self.store.write().checkpoint()?;
        match self.backend {
            BackendKind::Btree => {
                for (i, data) in datas.iter().enumerate() {
                    self.save_shard_snapshot(data, &dir.join(index_file(i)))?;
                }
                // The snapshots committed via rename; one dir fsync makes
                // all the renames durable before any journal is reset.
                self.vfs.sync_dir(dir).map_err(StorageError::Io)?;
            }
            BackendKind::Lsm => {
                for data in datas.iter_mut() {
                    flush_shard_kw_map(data)?;
                }
            }
        }
        for slot in &self.shards {
            slot.committer.reset_journal()?;
        }
        Ok(())
    }

    /// Checkpoint into the server's own home directory; no-op for
    /// in-memory servers.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn checkpoint_home(&self) -> Result<()> {
        match self.dir.clone() {
            Some(dir) => self.checkpoint(&dir),
            None => Ok(()),
        }
    }

    /// Number of unique keywords indexed (`u`).
    #[must_use]
    pub fn unique_keywords(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_data(i).tree.len())
            .sum()
    }

    /// Number of stored documents.
    #[must_use]
    pub fn stored_docs(&self) -> usize {
        self.store.read().len()
    }

    /// Height of the tallest shard's tag tree.
    #[must_use]
    pub fn tree_height(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_data(i).tree.height())
            .max()
            .unwrap_or(0)
    }

    /// Observability counters.
    #[must_use]
    pub fn stats(&self) -> Scheme2ServerStats {
        Scheme2ServerStats {
            searches: self.stats.searches.load(Ordering::Relaxed),
            chain_steps: self.stats.chain_steps.load(Ordering::Relaxed),
            generations_decrypted: self.stats.generations_decrypted.load(Ordering::Relaxed),
            generations_from_cache: self.stats.generations_from_cache.load(Ordering::Relaxed),
            generations_appended: self.stats.generations_appended.load(Ordering::Relaxed),
            tree_nodes_visited: self.stats.tree_nodes_visited.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            walk_steps_saved: self.stats.walk_steps_saved.load(Ordering::Relaxed),
        }
    }

    /// Reset the observability counters.
    pub fn reset_stats(&self) {
        self.stats.searches.store(0, Ordering::Relaxed);
        self.stats.chain_steps.store(0, Ordering::Relaxed);
        self.stats.generations_decrypted.store(0, Ordering::Relaxed);
        self.stats
            .generations_from_cache
            .store(0, Ordering::Relaxed);
        self.stats.generations_appended.store(0, Ordering::Relaxed);
        self.stats.tree_nodes_visited.store(0, Ordering::Relaxed);
        self.stats.cache_hits.store(0, Ordering::Relaxed);
        self.stats.cache_misses.store(0, Ordering::Relaxed);
        self.stats.walk_steps_saved.store(0, Ordering::Relaxed);
    }

    /// Total stored index bytes across all generation lists (diagnostic).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.lock_all_data()
            .iter()
            .map(|s| s.tree.iter().map(|(_, l)| l.stored_bytes()).sum::<usize>())
            .sum()
    }

    /// Serve one request without exclusive access — the entry point the
    /// multi-tenant daemon's workers call concurrently. Searches run
    /// against immutable snapshots; mutations pipeline through the
    /// per-shard group committers.
    pub fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self.handle_shared_with(request, Vec::new())
    }

    /// [`Self::handle_shared`] with a recycled response buffer: the hot
    /// `Search` branch encodes its result into `scratch` (capacity
    /// reused, contents discarded) so a steady-state search response
    /// costs no allocation when the caller recycles buffers through a
    /// pool. Every other request kind ignores the scratch — mutations
    /// and admin requests are not on the serving hot path.
    pub fn handle_shared_with(&self, request: &[u8], scratch: Vec<u8>) -> Vec<u8> {
        match protocol::decode_request(request) {
            Ok(Request::Search { tag, t_prime }) => match self.search_one(tag, t_prime) {
                Ok(docs) => proto_common::encode_result_with(&docs, scratch),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Ok(req) => self.handle_request(req),
            Err(e) => proto_common::encode_error(&e.to_string()),
        }
    }

    /// Apply an `UPDATE_MANY` batch: every part must be a mutation
    /// (`PutDocs` or `AppendGenerations`). All parts are decoded first,
    /// then journaled as one cross-shard batch and applied all-or-nothing
    /// with respect to racing searches (all touched shards' snapshots swap
    /// inside one epoch window).
    pub fn apply_batch(&self, parts: &[&[u8]]) -> Vec<u8> {
        let mut docs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut entries: Vec<GenerationEntry> = Vec::new();
        for part in parts {
            match protocol::decode_request(part) {
                Ok(Request::PutDocs(d)) => docs.extend(d),
                Ok(Request::AppendGenerations(e)) => entries.extend(e),
                Ok(_) => {
                    return proto_common::encode_error(
                        "batch parts must be mutations (PutDocs / AppendGenerations)",
                    )
                }
                Err(e) => return proto_common::encode_error(&e.to_string()),
            }
        }
        if !docs.is_empty() {
            let mut store = self.store.write();
            for (id, blob) in &docs {
                if let Err(e) = store.put(*id, blob) {
                    drop(store);
                    return self.mutation_failed(&SseError::Storage(e));
                }
            }
        }
        self.append_sharded(entries)
    }

    /// Acquire shard `i`'s data lock, counting a contended acquisition
    /// when the lock was not immediately free.
    fn lock_data(&self, i: usize) -> MutexGuard<'_, ShardData> {
        match self.shards[i].data.try_lock() {
            Some(guard) => guard,
            None => {
                self.contention[i].fetch_add(1, Ordering::Relaxed);
                self.shards[i].data.lock()
            }
        }
    }

    /// Lock every shard's data in ascending order (checkpoint / export).
    fn lock_all_data(&self) -> Vec<MutexGuard<'_, ShardData>> {
        (0..self.shards.len()).map(|i| self.lock_data(i)).collect()
    }

    /// Fetch shard `i`'s search snapshot, retrying around multi-shard
    /// swap windows (odd epoch) so a reader never observes a half-swapped
    /// batch across shards.
    fn snap(&self, i: usize) -> Arc<SnapShard> {
        loop {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = Arc::clone(&self.shards[i].snap.read());
            if self.epoch.load(Ordering::Acquire) == before {
                return snap;
            }
        }
    }

    /// Publish shard `i`'s current tree as the immutable search snapshot.
    /// O(1): the tree clone shares all nodes copy-on-write.
    fn publish(&self, i: usize, data: &ShardData) {
        *self.shards[i].snap.write() = Arc::new(SnapShard {
            tree: data.tree.clone(),
            applied_seq: data.applied_seq,
        });
        self.commit_stats.note_swap();
    }

    /// Wait until shard `i` has applied every predecessor of `seq`, then
    /// run `apply`, advance `applied_seq`, publish the snapshot and wake
    /// successors. The caller must have made `seq` durable first.
    fn apply_at(&self, i: usize, seq: u64, apply: impl FnOnce(&mut ShardData)) {
        let slot = &self.shards[i];
        let mut data = self.lock_data(i);
        while data.applied_seq + 1 != seq {
            data = slot
                .applied
                .wait(data)
                .unwrap_or_else(PoisonError::into_inner);
        }
        apply(&mut data);
        data.applied_seq = seq;
        self.publish(i, &data);
        drop(data);
        slot.applied.notify_all();
    }

    /// Run one mutation through the full pipeline: stage its journal
    /// record(s) (one per affected shard, batch slices when several),
    /// wait for the group fsync(s), then apply in seq order and publish
    /// new snapshots. `idxs` must be ascending and non-empty. The caller
    /// must hold the barrier read lock.
    ///
    /// On partial durability (some shard's journal failed) nothing is
    /// applied anywhere: durable shards advance `applied_seq` without
    /// mutating (recovery's sibling-completeness check discards their
    /// on-disk slices too), failed shards are poisoned, and the client
    /// gets an error — the mutation is never acknowledged.
    fn commit_mutation(
        &self,
        idxs: &[usize],
        encode_for: impl Fn(usize) -> Vec<u8>,
        mut apply_for: impl FnMut(usize, &mut ShardData),
    ) -> Result<()> {
        debug_assert!(idxs.windows(2).all(|w| w[0] < w[1]));
        if idxs.len() == 1 {
            let i = idxs[0];
            let seq = self.shards[i].committer.stage(&encode_for(i))?;
            self.shards[i].committer.wait_durable(seq)?;
            self.apply_at(i, seq, |data| apply_for(i, data));
            return Ok(());
        }

        // Phase S — stage every slice atomically under all stage locks
        // (ascending), so the batch id (coordinator shard, coordinator
        // seq) is consistent and no foreign record interleaves.
        let shard_set: Vec<u32> = idxs.iter().map(|&i| i as u32).collect();
        let mut guards: Vec<_> = idxs
            .iter()
            .map(|&i| self.shards[i].committer.lock())
            .collect();
        if guards.iter().any(crate::commit::StageGuard::poisoned) {
            return Err(journal_unavailable());
        }
        let batch = BatchId {
            coordinator: shard_set[0],
            seq: guards[0].next_seq(),
        };
        let mut seqs = Vec::with_capacity(idxs.len());
        for (guard, &i) in guards.iter_mut().zip(idxs) {
            // Cannot fail: staging only errors on poison, checked above
            // while continuously holding every stage lock.
            seqs.push(guard.stage(&shard::encode_slice(batch, &shard_set, &encode_for(i)))?);
        }
        drop(guards);

        // Phase D — wait for every shard's group fsync.
        let mut durable = vec![false; idxs.len()];
        let mut first_err = None;
        for (k, &i) in idxs.iter().enumerate() {
            match self.shards[i].committer.wait_durable(seqs[k]) {
                Ok(()) => durable[k] = true,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        let apply = first_err.is_none();

        // Phase R — wait (one shard at a time, holding nothing else)
        // until each durable shard has applied all our predecessors.
        // Stable once reached: our seq is the only possible successor.
        for (k, &i) in idxs.iter().enumerate() {
            if !durable[k] {
                continue;
            }
            let slot = &self.shards[i];
            let mut data = self.lock_data(i);
            while data.applied_seq + 1 != seqs[k] {
                data = slot
                    .applied
                    .wait(data)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        // Phase A — lock all durable shards (ascending) and swap them
        // atomically inside an odd-epoch window so snapshot readers see
        // the batch all-or-nothing.
        if apply {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        let mut held: Vec<(usize, MutexGuard<'_, ShardData>)> = Vec::with_capacity(idxs.len());
        for (k, &i) in idxs.iter().enumerate() {
            if durable[k] {
                held.push((k, self.lock_data(i)));
            }
        }
        for (k, data) in &mut held {
            debug_assert_eq!(data.applied_seq + 1, seqs[*k], "readiness must be stable");
            if apply {
                apply_for(idxs[*k], data);
            }
            data.applied_seq = seqs[*k];
        }
        if apply {
            for (k, data) in &held {
                self.publish(idxs[*k], data);
            }
        }
        drop(held);
        if apply {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        for (k, &i) in idxs.iter().enumerate() {
            if durable[k] {
                self.shards[i].applied.notify_all();
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Append generation entries: group per shard (preserving input order
    /// within each shard), then run the group-commit pipeline. The
    /// barrier read lock is held across the whole pipeline so barrier
    /// writers (checkpoints) always see it quiesced.
    fn append_sharded(&self, entries: Vec<GenerationEntry>) -> Vec<u8> {
        if entries.is_empty() {
            return proto_common::encode_ack();
        }
        let _pipeline = self.barrier.read();
        let n = self.shards.len();
        let mut groups: BTreeMap<usize, Vec<GenerationEntry>> = BTreeMap::new();
        for entry in entries {
            groups
                .entry(shard_of(&entry.tag, n))
                .or_default()
                .push(entry);
        }
        let idxs: Vec<usize> = groups.keys().copied().collect();
        let result = self.commit_mutation(
            &idxs,
            |i| protocol::encode_append_generations(&groups[&i]),
            |i, data| {
                for entry in &groups[&i] {
                    data.note_mutated(entry.tag);
                    append_entry(&mut data.tree, entry.clone());
                    self.stats
                        .generations_appended
                        .fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        match result {
            Ok(()) => proto_common::encode_ack(),
            Err(e) => self.mutation_failed(&e),
        }
    }

    fn handle_reset_index(&self) -> Vec<u8> {
        // ResetIndex rewrites every shard, so the batch spans all N.
        let _pipeline = self.barrier.read();
        let idxs: Vec<usize> = (0..self.shards.len()).collect();
        let result = self.commit_mutation(
            &idxs,
            |_| protocol::encode_reset_index(),
            |_, data| {
                data.note_cleared();
                data.tree = BpTree::new();
            },
        );
        match result {
            Ok(()) => proto_common::encode_ack(),
            Err(e) => self.mutation_failed(&e),
        }
    }

    fn handle_request(&self, request: Request) -> Vec<u8> {
        match request {
            Request::PutDocs(docs) => {
                let mut store = self.store.write();
                for (id, blob) in docs {
                    if let Err(e) = store.put(id, &blob) {
                        drop(store);
                        return self.mutation_failed(&SseError::Storage(e));
                    }
                }
                proto_common::encode_ack()
            }
            Request::AppendGenerations(entries) => self.append_sharded(entries),
            Request::Search { tag, t_prime } => match self.search_one(tag, t_prime) {
                Ok(docs) => proto_common::encode_result(&docs),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Request::SearchMany(trapdoors) => {
                let mut results = Vec::with_capacity(trapdoors.len());
                for (tag, t_prime) in trapdoors {
                    match self.search_one(tag, t_prime) {
                        Ok(docs) => results.push(docs),
                        Err(msg) => return proto_common::encode_error(&msg),
                    }
                }
                proto_common::encode_result_many(&results)
            }
            Request::ResetIndex => self.handle_reset_index(),
            Request::Checkpoint => {
                let Some(dir) = self.dir.clone() else {
                    return proto_common::encode_error(
                        "checkpoint requested on an in-memory server",
                    );
                };
                match self.checkpoint(&dir) {
                    Ok(()) => proto_common::encode_ack(),
                    Err(e) => self.mutation_failed(&e),
                }
            }
            Request::RemoveDocs(ids) => {
                let mut store = self.store.write();
                for id in ids {
                    // Deleting an unknown id is a no-op, not an error: the
                    // posting-side delete entries may arrive first.
                    let _ = store.delete(id);
                }
                proto_common::encode_ack()
            }
        }
    }

    /// Execute one Fig. 4 search, returning the matching encrypted
    /// documents or an error description. Lock-free against the index:
    /// the tag lookup and the entire chain walk run on the shard's
    /// immutable snapshot, never waiting on a shard mutex or an fsync.
    /// The Optimization-1 cache write-back afterwards is opportunistic
    /// (see [`Scheme2Server::write_back_cache`]).
    fn search_one(
        &self,
        tag: [u8; 32],
        t_prime: [u8; 32],
    ) -> std::result::Result<Vec<(u64, Vec<u8>)>, String> {
        let max_walk = self.config.chain_length as usize + 1;
        let use_cache = self.config.server_cache;

        let si = shard_of(&tag, self.shards.len());
        let snap = self.snap(si);

        // Memo fast path: if this keyword was searched before and the
        // shard has not changed since, answer without touching the tree
        // or the chain (same trapdoor), or after walking only the delta
        // between the new trapdoor and the memoized one (newer trapdoor).
        if use_cache {
            if let Some(docs) = self.try_memo(si, snap.applied_seq, &tag, &t_prime, max_walk) {
                return Ok(docs);
            }
        }

        let (found, tree_stats) = snap.tree.get_with_stats(&tag);
        self.stats
            .tree_nodes_visited
            .fetch_add(tree_stats.nodes_visited as u64, Ordering::Relaxed);
        let Some(list) = found else {
            self.stats.searches.fetch_add(1, Ordering::Relaxed);
            return Ok(Vec::new());
        };
        if use_cache {
            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        }

        self.stats
            .generations_from_cache
            .fetch_add(list.cached_generations() as u64, Ordering::Relaxed);

        // Unlock the undecrypted suffix newest-to-oldest while walking the
        // chain forward from the trapdoor. Each generation decrypts to an
        // (added ids, deleted ids) pair; deletions are the beyond-paper
        // dynamic-SSE extension (an empty delete list is the paper's case).
        let locked: &[Generation] = list.undecrypted();
        let mut decoded: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); locked.len()];
        let mut walker = ChainWalker::new(&t_prime);
        for (pos, generation) in locked.iter().enumerate().rev() {
            // Advance until the commitment matches this generation's key.
            if !walker.seek_commitment(&generation.key_commitment, max_walk) {
                self.stats.searches.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .chain_steps
                    .fetch_add(walker.steps() as u64, Ordering::Relaxed);
                return Err(format!(
                    "chain walk exceeded {max_walk} steps; client/server desync"
                ));
            }
            // The walker stands on the generation key: decrypt the posting
            // entry.
            let etm = EtmKey::new(walker.element());
            let plain = match etm.open(&generation.masked_ids) {
                Ok(p) => p,
                Err(e) => {
                    self.stats.searches.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("generation decryption failed: {e}"));
                }
            };
            let mut r = WireReader::new(&plain);
            let parsed: std::result::Result<(Vec<u64>, Vec<u64>), _> = (|| {
                let adds = r.get_u64_vec()?;
                let dels = r.get_u64_vec()?;
                r.finish()?;
                Ok::<_, sse_net::wire::WireError>((adds, dels))
            })();
            match parsed {
                Ok(pair) => decoded[pos] = pair,
                Err(e) => {
                    self.stats.searches.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("generation payload malformed: {e}"));
                }
            }
        }
        let steps_used = walker.steps() as u64;
        self.stats
            .chain_steps
            .fetch_add(steps_used, Ordering::Relaxed);
        self.stats
            .generations_decrypted
            .fetch_add(locked.len() as u64, Ordering::Relaxed);
        self.stats.searches.fetch_add(1, Ordering::Relaxed);

        // Apply generations in chronological order on top of the
        // Optimization-1 cache: adds union in, deletes remove.
        let mut id_set: BTreeSet<u64> = list.cached_ids().iter().copied().collect();
        for (adds, dels) in &decoded {
            id_set.extend(adds);
            for id in dels {
                id_set.remove(id);
            }
        }
        // Sorted, as the reply and the memo want them.
        let all_ids: Vec<u64> = id_set.into_iter().collect();
        if use_cache && !locked.is_empty() {
            self.write_back_cache(si, &tag, list, all_ids.clone());
        }

        if use_cache {
            self.store_memo(
                si,
                SearchMemo {
                    applied_seq: snap.applied_seq,
                    t_prime,
                    ids: all_ids.clone(),
                    walk_cost: steps_used,
                    gens: list.len() as u64,
                },
                tag,
            );
        }
        Ok(self.store.read().get_many(&all_ids))
    }

    /// Try to answer a search from the per-keyword memo. Returns the
    /// documents on a hit, `None` on any miss (no entry, shard changed,
    /// or the delta walk from the new trapdoor never reaches the
    /// memoized one within the walk bound — the cold path then produces
    /// the correct answer or the correct desync error).
    fn try_memo(
        &self,
        si: usize,
        snap_seq: u64,
        tag: &[u8; 32],
        t_prime: &[u8; 32],
        max_walk: usize,
    ) -> Option<Vec<(u64, Vec<u8>)>> {
        let memo = self.shards[si].memo.lock().get(tag).cloned()?;
        if memo.applied_seq != snap_seq {
            return None;
        }
        // Walk forward from the (same or newer) trapdoor until it meets
        // the memoized one; the shard is unchanged, so the id set is too.
        let mut walker = ChainWalker::new(t_prime);
        if !walker.seek_element(&memo.t_prime, max_walk) {
            return None;
        }
        let delta = walker.steps() as u64;
        self.stats.searches.fetch_add(1, Ordering::Relaxed);
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.stats.chain_steps.fetch_add(delta, Ordering::Relaxed);
        self.stats
            .walk_steps_saved
            .fetch_add(memo.walk_cost, Ordering::Relaxed);
        self.stats
            .generations_from_cache
            .fetch_add(memo.gens, Ordering::Relaxed);
        if delta > 0 {
            // Advance the memo to the newer trapdoor so the next repeat
            // of *this* trapdoor is a zero-walk hit.
            let mut map = self.shards[si].memo.lock();
            if let Some(live) = map.get_mut(tag) {
                if live.applied_seq == memo.applied_seq && live.t_prime == memo.t_prime {
                    live.t_prime = *t_prime;
                    live.walk_cost = memo.walk_cost + delta;
                }
            }
        }
        Some(self.store.read().get_many(&memo.ids))
    }

    /// Record a cold search's answer in the shard's memo map.
    fn store_memo(&self, si: usize, memo: SearchMemo, tag: [u8; 32]) {
        let mut map = self.shards[si].memo.lock();
        if map.len() >= MEMO_CAP && !map.contains_key(&tag) {
            map.clear();
        }
        map.insert(tag, memo);
    }

    /// Opportunistically record the Optimization-1 plaintext cache
    /// computed by a snapshot search back into the live shard. Best
    /// effort by design — the search already has its answer, and the
    /// cache is a pure optimization the next search can rebuild:
    ///
    /// * `try_lock` only — a search must never queue behind a mutation
    ///   (that is the whole point of the snapshot read path);
    /// * skipped unless the live list is exactly the one the search saw
    ///   (same length, same cache point, same newest commitment) — a
    ///   racing append or reset invalidates the computed id set.
    fn write_back_cache(
        &self,
        si: usize,
        tag: &[u8; 32],
        seen: &GenerationList,
        all_ids: Vec<u64>,
    ) {
        let Some(mut data) = self.shards[si].data.try_lock() else {
            return;
        };
        let Some(live) = data.tree.get_mut(tag) else {
            return;
        };
        let unchanged = live.len() == seen.len()
            && live.cached_generations() == seen.cached_generations()
            && live.undecrypted().last().map(|g| g.key_commitment)
                == seen.undecrypted().last().map(|g| g.key_commitment);
        if !unchanged {
            return;
        }
        live.set_cached(all_ids);
        self.publish(si, &data);
    }

    /// Persist one shard's generation lists to a CRC-protected snapshot
    /// (carrying the shard's `applied_seq` as `last_op_seq`). The
    /// Optimization-1 plaintext cache is *not* persisted — it is an
    /// optimization the next search rebuilds, and keeping recovered state
    /// minimal follows the principle of storing only what is necessary.
    fn save_shard_snapshot(&self, data: &ShardData, path: &Path) -> Result<()> {
        let mut body = WireWriter::new();
        body.put_u64(data.applied_seq);
        body.put_u64(data.tree.len() as u64);
        for (tag, list) in data.tree.iter() {
            body.put_array(tag);
            body.put_u64(list.len() as u64);
            for generation in list.iter() {
                body.put_bytes(&generation.masked_ids);
                body.put_array(&generation.key_commitment);
            }
        }
        let body = body.finish();
        let tmp = path.with_extension("tmp");
        {
            let mut f = self.vfs.create(&tmp).map_err(StorageError::Io)?;
            let mut header = Vec::with_capacity(12);
            header.extend_from_slice(INDEX_MAGIC);
            header.extend_from_slice(&crc32(&body).to_le_bytes());
            f.write_all(&header).map_err(StorageError::Io)?;
            f.write_all(&body).map_err(StorageError::Io)?;
            f.sync_data().map_err(StorageError::Io)?;
        }
        self.vfs.rename(&tmp, path).map_err(StorageError::Io)?;
        Ok(())
    }
}

/// The error surfaced when a mutation reaches a shard whose journal was
/// disabled by an earlier failed group commit.
fn journal_unavailable() -> SseError {
    SseError::Storage(StorageError::Io(std::io::Error::other(
        "shard journal disabled by failed group commit",
    )))
}

/// Append one generation entry to the shard tree.
fn append_entry(tree: &mut BpTree<[u8; 32], GenerationList>, entry: GenerationEntry) {
    let GenerationEntry {
        tag,
        sealed_ids,
        commitment,
    } = entry;
    let generation = Generation {
        masked_ids: sealed_ids,
        key_commitment: commitment,
    };
    match tree.get_mut(&tag) {
        Some(list) => list.push(generation),
        None => {
            let mut list = GenerationList::new();
            list.push(generation);
            tree.insert(tag, list);
        }
    }
}

/// Re-apply one journaled shard-local mutation during recovery (no
/// re-journaling), recording the touched tags into `dirty` / `cleared` so
/// an lsm-backed server can flush the replayed state at its next
/// checkpoint.
fn replay_into(
    tree: &mut BpTree<[u8; 32], GenerationList>,
    raw: &[u8],
    dirty: &mut HashSet<[u8; 32]>,
    cleared: &mut bool,
) -> Result<()> {
    match protocol::decode_request(raw)? {
        Request::AppendGenerations(entries) => {
            for entry in entries {
                dirty.insert(entry.tag);
                append_entry(tree, entry);
            }
            Ok(())
        }
        Request::ResetIndex => {
            dirty.clear();
            *cleared = true;
            *tree = BpTree::new();
            Ok(())
        }
        _ => Err(SseError::Storage(StorageError::Corrupt {
            what: "scheme2 index journal",
            detail: "journal holds a non-mutating request".to_string(),
        })),
    }
}

/// Flush one lsm-backed shard: clear if the shard was reset, write every
/// dirty tag's current generation list (or a tombstone if it vanished),
/// then commit one run carrying `applied_seq`. No-op for btree shards.
fn flush_shard_kw_map(data: &mut ShardData) -> Result<()> {
    let ShardData {
        tree,
        applied_seq,
        dirty,
        cleared,
        kw_map,
    } = data;
    let Some(map) = kw_map else { return Ok(()) };
    if *cleared {
        map.clear()?;
    }
    for tag in dirty.iter() {
        match tree.get(tag) {
            Some(list) => map.put(*tag, encode_generation_list(list))?,
            None => map.delete(tag)?,
        }
    }
    map.flush(*applied_seq, &[])?;
    dirty.clear();
    *cleared = false;
    Ok(())
}

/// Serialize one generation list as a keyword-map value: the per-tag body
/// of the monolithic snapshot format, minus the tag itself.
fn encode_generation_list(list: &GenerationList) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(list.len() as u64);
    for generation in list.iter() {
        w.put_bytes(&generation.masked_ids);
        w.put_array(&generation.key_commitment);
    }
    w.finish()
}

/// Inverse of [`encode_generation_list`].
fn decode_generation_list(bytes: &[u8]) -> Result<GenerationList> {
    let mut r = WireReader::new(bytes);
    let gens = r.get_count(40)?;
    let mut list = GenerationList::new();
    for _ in 0..gens {
        let masked_ids = r.get_bytes()?.to_vec();
        let key_commitment = r.get_array32()?;
        list.push(Generation {
            masked_ids,
            key_commitment,
        });
    }
    r.finish()?;
    Ok(list)
}

/// Checksum-check one index snapshot without decoding it (scrub path).
/// Returns `Ok(false)` if the snapshot does not exist (a tenant that has
/// never checkpointed), `Ok(true)` if it verified.
fn verify_index_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<bool> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(SseError::Storage(StorageError::Io(e))),
    };
    if bytes.len() < 12 || &bytes[..8] != INDEX_MAGIC {
        return Err(SseError::Storage(StorageError::Corrupt {
            what: "index snapshot",
            detail: format!("scrub: bad magic or truncated in {}", path.display()),
        }));
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if crc32(&bytes[12..]) != stored_crc {
        return Err(SseError::Storage(StorageError::Corrupt {
            what: "index snapshot",
            detail: format!("scrub: checksum mismatch in {}", path.display()),
        }));
    }
    Ok(true)
}

/// Decode one shard snapshot into `tree`, returning the `last_op_seq` it
/// covers.
fn load_shard_snapshot(tree: &mut BpTree<[u8; 32], GenerationList>, bytes: &[u8]) -> Result<u64> {
    if bytes.len() < 12 || &bytes[..8] != INDEX_MAGIC {
        return Err(SseError::Storage(StorageError::Corrupt {
            what: "scheme2 index snapshot",
            detail: "bad magic or truncated".to_string(),
        }));
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    if crc32(body) != stored_crc {
        return Err(SseError::Storage(StorageError::Corrupt {
            what: "scheme2 index snapshot",
            detail: "checksum mismatch".to_string(),
        }));
    }
    let mut r = WireReader::new(body);
    let last_op_seq = r.get_u64()?;
    let n = r.get_count(40)?;
    let mut fresh = BpTree::new();
    for _ in 0..n {
        let tag = r.get_array32()?;
        let gens = r.get_count(40)?;
        let mut list = GenerationList::new();
        for _ in 0..gens {
            let masked_ids = r.get_bytes()?.to_vec();
            let key_commitment = r.get_array32()?;
            list.push(Generation {
                masked_ids,
                key_commitment,
            });
        }
        fresh.insert(tag, list);
    }
    r.finish()?;
    *tree = fresh;
    Ok(last_op_seq)
}

impl Service for Scheme2Server {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }

    fn on_shutdown(&mut self) {
        // Collapse the WAL + journal into snapshots so a clean shutdown
        // leaves nothing to replay. Best effort: a failing disk at
        // shutdown must not abort the process, and recovery replays the
        // logs anyway.
        let _ = self.checkpoint_home();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto_common::{decode_ack, decode_result};
    use crate::scheme2::key_commitment;
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
        let docs = decode_result(&resp).unwrap();
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
        let docs = decode_result(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
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
        let cold = decode_result(&s.handle(&protocol::encode_search(&tag, &t3))).unwrap();
        let after_cold = s.stats();
        assert_eq!(after_cold.chain_steps, 2);
        assert_eq!(after_cold.cache_misses, 1);

        let warm = decode_result(&s.handle(&protocol::encode_search(&tag, &t3))).unwrap();
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
        let cold = decode_result(&s.handle(&protocol::encode_search(&tag, &t2))).unwrap();
        assert_eq!(s.stats().chain_steps, 1);

        // A search from a *newer* trapdoor (fake updates advanced the
        // counter) walks only the 3-step delta down to the memoized one.
        let t5 = chain.key_for_counter(5).unwrap();
        let delta = decode_result(&s.handle(&protocol::encode_search(&tag, &t5))).unwrap();
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
        let docs = decode_result(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert_eq!(docs.len(), 2, "append visible despite memo");
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cache_misses, 2);

        // Reset invalidates: the tag is gone.
        decode_ack(&s.handle(&protocol::encode_reset_index())).unwrap();
        let docs = decode_result(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
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
        let cold = decode_result(&s.handle(&protocol::encode_search(&tag, &t6))).unwrap();
        let t1 = chain.key_for_counter(1).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t1));
        assert_eq!(decode_result(&resp).unwrap(), cold);
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
        assert_eq!(decode_result(&resp).unwrap(), vec![(1, b"one".to_vec())]);
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
        // Again, now from the written-back Optimization-1 cache / memo.
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
        assert_eq!(decode_result(&resp).unwrap(), vec![(1, b"d".to_vec())]);
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
        // immediately visible to a search, and the cache write-back
        // republishes so the *next* search decrypts nothing.
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
            let docs = decode_result(&s.handle_shared(&protocol::encode_search(&tag, &k))).unwrap();
            assert_eq!(docs, vec![(u64::from(i), vec![i; 3])]);
            // Repeat search hits the written-back cache.
            decode_result(&s.handle_shared(&protocol::encode_search(&tag, &k))).unwrap();
        }
        assert_eq!(
            s.stats().generations_decrypted,
            16,
            "second searches cached"
        );
        assert_eq!(s.stats().generations_from_cache, 16);
        // 16 appends + 16 cache write-backs published snapshots.
        assert_eq!(s.commit_counters().snapshot_swaps, 32);
    }
}
