//! The index engine: everything in a scheme server that does not depend
//! on which scheme it serves.
//!
//! The paper's §5.1 is one design — one searchable representation `S(w)`
//! per unique keyword, in a tree keyed by the tag `f_kw(w)` — and the two
//! schemes differ only in what `S(w)` holds and how search and update
//! read it. [`IndexEngine`] owns the shared part once: the sharded tag
//! trees, their journals and group committers, the epoch-snapshot read
//! path, the document store, checkpointing, recovery, scrub and health,
//! and the serving shell around them — the constructors, the library
//! path, the `UPDATE_MANY` batch, the `Deref` to [`IndexAdmin`] and the
//! `Service` impl. A scheme plugs in through `SchemeOps` (its value type,
//! its codecs, its journal replay, its request dispatch and batch parts)
//! and keeps only its request semantics: `Scheme1Server` and
//! `Scheme2Server` are `IndexEngine` at their scheme.
//!
//! ## Sharding, group commit and snapshot reads
//!
//! The keyword index is partitioned into N shards by
//! [`crate::shard::shard_of`] over the tag — a public function of data the
//! server already sees, so the leakage profile is unchanged (DESIGN.md
//! §4d/§4e). Each shard is a pipeline, not a single mutex:
//!
//! * **Durable mutations** stage their journal record into the shard's
//!   `GroupCommitter` together with their reply continuation and return:
//!   the staging thread is free, the record is *parked*. A **flush**
//!   (`IndexEngine::flush_with`) writes every shard nobody else is
//!   writing — one vectored write + one fsync per shard for everything
//!   parked there — then applies every record whose mutation is durable
//!   on all its shards, in sequence-number order, publishes each shard it
//!   changed once and only then replies. Every mutation that arrived
//!   while the previous fsync was in flight shares the next one, and
//!   threads flushing at once write different shards, so their fsyncs
//!   overlap. The journal-then-ack durability contract is exactly that of
//!   per-op journaling; the fsync is merely shared. Who flushes and when
//!   is the caller's business (DESIGN.md §4e): the library path on its
//!   own thread, the daemon's worker at its next idle moment.
//! * **In-memory mutations** are durable at once: they apply and publish
//!   under their own shards' data locks before returning, so mutations
//!   on different shards run in parallel and nothing parks. A caller that
//!   must never wait (the daemon's reactor, DESIGN.md §4n) runs the same
//!   apply under `try_` locks, all taken before the first record applies
//!   (`IndexEngine::try_mutate`), and declines having changed nothing
//!   when one is held.
//! * **Searches** never touch the shard mutex: every apply publishes an
//!   immutable copy-on-write snapshot of each shard it changed, and reads
//!   resolve tags against the snapshot. A [`sse_index::bptree::BpTree`]
//!   clone is one pointer copy; the shard's next mutation pays for it by
//!   copying its root-to-leaf path (keys and pointers) and the one value
//!   it changes, if the snapshot still holds them. A search therefore never
//!   queues behind an in-flight fsync. A global epoch seqlock makes
//!   multi-shard swaps atomic to readers: an apply publishes all the
//!   shards it changed inside one odd-epoch window and readers retry
//!   around it.
//!
//! Mutations touching several shards stage [`crate::shard`] batch slices
//! under every affected committer's stage lock (ascending), so every
//! batch has one place in each of its shards' orders; a batch applies only
//! once all its slices are durable, on all its shards inside one window,
//! and crash recovery keeps it all-or-nothing. Lock order everywhere:
//! quiescence lock → stage locks ascending → ready queues → data locks
//! ascending → swap window → snapshot cells ascending → document store;
//! a shard's journal lock is taken alone. Staging and flushes hold the
//! quiescence lock (`IndexEngine::pipeline`, read), so its writers —
//! checkpoint, repair and any scheme request that rewrites the guarded
//! `SchemeOps::Meta` — wait out every writer in progress, then flush
//! themselves and work fully quiesced.
//!
//! The data path is generic over the scheme, not `dyn`: a search costs
//! the same seqlock read and allocations as before the engine existed.
//! A router hosting both schemes (the daemon's tenant table) reaches a
//! server through the trait object [`IndexAdmin`]: one virtual call into
//! the monomorphized path per request, and the admin surface (scrub,
//! counters, checkpoint).

use crate::commit::{
    journal_dead, CommitCounters, CommitStats, GroupCommitter, Reply, ReplySlot, StageGuard, Staged,
};
use crate::error::{Result, SseError};
use crate::health::{ScrubFindings, TenantHealth};
use crate::journal::{IndexJournal, ServerRecovery};
use crate::ops::{BatchPart, SchemeOps, ShardData};
use crate::proto_common;
use crate::shard::{self, shard_of, BatchId};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use sse_index::bptree::BpTree;
use sse_net::link::Service;
use sse_net::wire::{WireReader, WireWriter};
use sse_storage::backend::read_backend_manifest;
use sse_storage::crc32::Crc32;
use sse_storage::durable::{self, commit_by_rename, sealed_header, unseal};
use sse_storage::lsm::{LsmDocStore, LsmKeywordMap};
use sse_storage::store::{DocStore, StoreOptions};
use sse_storage::wal::{self, WalVerdict};
use sse_storage::{
    resolve_backend, BackendCounters, BackendKind, DocBlobStore, RealVfs, StorageError, Vfs,
    VfsFile,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How to open a durable server. The defaults are what
/// `open_durable(cfg, dir)` uses.
#[derive(Clone)]
pub struct DurableOptions {
    /// The VFS every file goes through (fault injection runs the whole
    /// server through a [`sse_storage::FaultVfs`]).
    pub vfs: Arc<dyn Vfs>,
    /// Index shards. Fixed at directory creation (recorded in the shard
    /// manifest); reopening adopts whatever the directory holds.
    pub shards: usize,
    /// Storage backend. Fixed at directory creation (recorded in
    /// `backend.meta`); reopening under the other backend is a clean
    /// [`StorageError::BackendMismatch`], never silent corruption.
    /// Directories created before backend manifests existed are `btree`.
    pub backend: BackendKind,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            vfs: RealVfs::arc(),
            shards: 1,
            backend: BackendKind::Btree,
        }
    }
}

/// The immutable view searches resolve against.
pub(crate) struct SnapShard<S: SchemeOps> {
    pub(crate) tree: BpTree<[u8; 32], S::Value>,
    /// The highest op-seq applied to the tree in this snapshot.
    pub(crate) applied_seq: u64,
    /// The meta the tree was published under, so the read path needs no
    /// quiescence lock; a meta rewrite swaps tree and meta together.
    pub(crate) meta: S::Meta,
}

/// One index shard: live tree + search snapshot.
struct ShardSlot<S: SchemeOps> {
    data: Mutex<ShardData<S>>,
    snap: RwLock<Arc<SnapShard<S>>>,
    sidecar: S::Sidecar,
    /// Contended acquisitions of `data` (served via STATS).
    contention: AtomicU64,
}

impl<S: SchemeOps> ShardSlot<S> {
    fn new(data: ShardData<S>, meta: &S::Meta) -> Self {
        ShardSlot {
            snap: RwLock::new(Arc::new(SnapShard {
                tree: data.tree.clone(),
                applied_seq: data.applied_seq,
                meta: meta.clone(),
            })),
            data: Mutex::new(data),
            sidecar: S::Sidecar::default(),
            contention: AtomicU64::new(0),
        }
    }
}

/// How [`IndexEngine::apply_now`] takes its locks — the one difference
/// between its callers, as `MemoMode` is for a Scheme 2 memo hit.
pub(crate) enum ApplyMode<'a, S: SchemeOps> {
    /// A worker's: wait for each lock where it is needed; the publish
    /// takes the swap window and each snapshot cell in turn after the
    /// records apply.
    Worker,
    /// The reactor's (DESIGN.md §4n): `try_` every lock the apply and its
    /// publish need, all before the first record applies, and apply only
    /// if `admits` passes each locked shard's live data (the scheme's
    /// bound on how long the apply may run). A lock held or a shard
    /// refused declines having changed nothing.
    Inline {
        admits: &'a dyn Fn(usize, &ShardData<S>) -> bool,
    },
}

/// Why `ApplyMode::Worker`'s apply yields a reply: it waits for its
/// locks and never declines.
const WAITS: &str = "a worker waits for its locks and never declines";

/// What an `ApplyMode::Inline` apply holds for its publish, taken before
/// its first record applies: the swap window when there are several
/// shards, and each one's snapshot cell, ascending.
struct Publishing<'a, S: SchemeOps> {
    window: Option<MutexGuard<'a, ()>>,
    cells: Vec<RwLockWriteGuard<'a, Arc<SnapShard<S>>>>,
}

/// Where a durable engine lives, and its commit pipeline.
struct Home {
    dir: PathBuf,
    /// The VFS every index file goes through (real or fault-injecting).
    vfs: Arc<dyn Vfs>,
    /// Per shard: its journal and the records staged on it.
    committers: Vec<GroupCommitter>,
    /// Per shard: records written (durable, or failed) and not yet
    /// applied, in seq order. A batch slice waits here until every slice
    /// of its batch heads its own shard's queue. Held by an apply from
    /// its plan to its last publish, so applies run one at a time.
    ready: Mutex<Vec<VecDeque<Staged>>>,
    /// Records staged and not yet dropped — a record drops after its
    /// reply, so zero means every staged mutation has its reply.
    parked: Arc<AtomicUsize>,
}

/// Shard 0 keeps the pre-sharding name so single-shard directories stay
/// readable by (and from) older layouts.
fn shard_file<S: SchemeOps>(i: usize, ext: &str) -> String {
    if i == 0 {
        format!("{}.{ext}", S::STEM)
    } else {
        format!("{}.{i}.{ext}", S::STEM)
    }
}

/// Index snapshot file for shard `i` (btree backend).
fn index_file<S: SchemeOps>(i: usize) -> String {
    shard_file::<S>(i, "index")
}

/// Journal file for shard `i`.
fn journal_file<S: SchemeOps>(i: usize) -> String {
    shard_file::<S>(i, "wal")
}

/// The shard manifest (`SSESHRD1`).
fn manifest_file<S: SchemeOps>() -> String {
    format!("{}.meta", S::STEM)
}

/// LSM keyword-map file prefix for shard `i` (lsm backend).
fn kw_prefix<S: SchemeOps>(i: usize) -> String {
    format!("{}.kw{i}", S::STEM)
}

/// A scheme server with its scheme erased: its serving entry points and
/// its admin surface — what the daemon's tenant table, the scrub and the
/// tests reach without caring which scheme is underneath. Every
/// [`IndexEngine`] derefs to it, so none of it needs this trait in scope.
pub trait IndexAdmin {
    /// Serve one request without exclusive access, from any number of
    /// threads at once. Searches run against immutable snapshots; a
    /// durable index mutation is staged and then committed by a flush on
    /// this thread (DESIGN.md §4e), so the reply is final either way.
    fn handle_shared(&self, request: &[u8]) -> Vec<u8>;

    /// [`IndexAdmin::handle_shared`], its buffer dropped unused. A facade
    /// for `bench/src/layers.rs`; ROADMAP 2A-0 retires it.
    fn handle_shared_with(&self, request: &[u8], _unused: Vec<u8>) -> Vec<u8> {
        self.handle_shared(request)
    }

    /// [`IndexEngine::handle_parked`], its continuation borrowed rather
    /// than boxed.
    fn handle_parked(&self, request: &[u8], park: &mut dyn FnMut() -> Reply) -> Option<Vec<u8>>;

    /// Apply an `UPDATE_MANY` batch: every part must be a mutation
    /// (`PutDocs`, or the scheme's `ApplyUpdates` / `AppendGenerations`).
    /// All parts are decoded first (and Scheme 1's validated), then the
    /// documents stored and the index updates journaled as one cross-shard
    /// batch, applied all-or-nothing with respect to racing searches (all
    /// touched shards' snapshots swap inside one epoch window).
    fn apply_batch(&self, parts: &[&[u8]]) -> Vec<u8>;

    /// [`IndexAdmin::apply_batch`] that leaves the batch's index mutation
    /// parked, as [`IndexEngine::handle_parked`] does.
    fn apply_batch_parked(
        &self,
        parts: &[&[u8]],
        park: &mut dyn FnMut() -> Reply,
    ) -> Option<Vec<u8>>;

    /// Whether `request` only reads: its tag (first byte) is one of the
    /// scheme's reads (`scheme1::protocol::is_read`,
    /// `scheme2::protocol::is_read`). An empty request is not a read.
    fn is_read(&self, request: &[u8]) -> bool;

    /// Flush (DESIGN.md §4e): every mutation parked so far is made durable,
    /// applied and replied to — by this call, which writes every shard no
    /// other thread is writing, or by the writer of a shard it found busy,
    /// which takes everything staged before it steps down. So with no
    /// other flush in progress, everything is replied to before this
    /// returns. A no-op when nothing is parked, and always in memory.
    fn flush(&self);

    /// Checkpoint everything durable, in crash-safe order: document store
    /// snapshot, then every shard's index snapshot (each recording its
    /// `applied_seq` as `last_op_seq`), then every journal truncation.
    /// The quiescence write lock stops staging and waits out every flush
    /// in progress; a flush of its own then makes every parked record
    /// durable and applied (and replies to it) — no journal may be reset
    /// while a record is parked, and the snapshots-before-any-reset order
    /// keeps cross-shard batch slices resolvable.
    ///
    /// # Errors
    /// Filesystem errors. In-memory servers have nothing to checkpoint
    /// and always succeed.
    fn checkpoint(&self) -> Result<()>;

    /// Attempt to repair a degraded server — the scrub's probe-write path.
    ///
    /// Under full quiescence (quiescence write lock, a flush of its own,
    /// then all data locks, so no mutation is parked, being written or
    /// applying), re-persist every shard's *applied* state —
    /// document-store checkpoint, then index snapshots (btree) or
    /// keyword-map flushes (lsm) — and then replace each shard's journal
    /// with a freshly opened empty one, clearing any group-commit poison.
    /// Records parked behind a failed group get their error replies from
    /// that flush. Seqs of failed groups are reclaimed: those records were
    /// never acknowledged and the fresh journal restarts densely at
    /// `applied_seq + 1`. The end-to-end write pass is itself the probe
    /// write: on success the health cell returns to Healthy.
    ///
    /// # Errors
    /// Filesystem errors (the disk is still bad); the server stays
    /// Degraded and the scrub retries later. In-memory servers have
    /// nothing to repair and always succeed.
    fn repair(&self) -> Result<()>;

    /// Background integrity pass over this server's on-disk artifacts.
    ///
    /// Checks every checksum the storage formats carry: the per-shard
    /// index journals and the document store's WAL (CRC-framed records —
    /// append-only and prefix-stable, so scanning a live log is safe),
    /// the sealed files — btree index snapshots, the heap store's
    /// `store.snapshot` and the lsm manifests (magic + body CRC; replaced
    /// atomically by rename, so a concurrent checkpoint can never be seen
    /// half-written), the shard and backend manifests (`<stem>.meta`,
    /// `backend.meta`), and under the lsm backend every live run's index
    /// and value CRCs (under the shard/store lock, since flushes swap run
    /// files).
    ///
    /// A torn WAL tail is a *repairable* finding, not corruption — it is
    /// exactly what a crash (or a read racing an append) leaves behind.
    /// A checksum mismatch anywhere else is confirmed corruption.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] (wrapped) on confirmed corruption — the
    /// caller quarantines; plain I/O errors are transient and do not.
    fn verify_files(&self) -> Result<ScrubFindings>;

    /// This server's health cell, shared with the serving daemon's request
    /// router and the background scrub. Storage write failures degrade the
    /// server to read-only until [`IndexAdmin::repair`] succeeds.
    fn health(&self) -> &Arc<TenantHealth>;

    /// What the last durable open had to repair.
    fn recovery(&self) -> ServerRecovery;

    /// Number of index shards.
    fn num_shards(&self) -> usize;

    /// Contended shard-lock acquisitions since startup, per shard.
    fn shard_contention(&self) -> Vec<u64>;

    /// Group-commit pipeline counters (groups, ops, fsyncs saved,
    /// snapshot swaps) since startup.
    fn commit_counters(&self) -> CommitCounters;

    /// The storage backend persisting this server's state.
    fn backend(&self) -> BackendKind;

    /// Per-backend storage counters (runs, compactions, bloom hit rates):
    /// the document store's plus every shard keyword map's. All zero
    /// under the btree backend.
    fn backend_counters(&self) -> BackendCounters;

    /// Number of unique keywords indexed (`u`).
    fn unique_keywords(&self) -> usize;

    /// Number of stored documents.
    fn stored_docs(&self) -> usize;

    /// Height of the tallest shard's tag tree (the `O(log u)` factor,
    /// observable).
    fn tree_height(&self) -> usize;
}

/// A scheme server: the index engine (see the module docs) and the state
/// of the scheme `S` it serves — `Scheme1Server` and `Scheme2Server` are
/// this type at their scheme. Derefs to [`IndexAdmin`], its scheme-erased
/// surface, and is the [`Service`] a transport hosts.
pub struct IndexEngine<S: SchemeOps> {
    /// The quiescence lock: read-held while staging and by a flush,
    /// write-held by checkpoint, repair and meta rewrites — a checkpoint
    /// must see every staged record applied before it may snapshot and
    /// reset journals.
    meta: RwLock<S::Meta>,
    shards: Vec<ShardSlot<S>>,
    /// Entries applied live (recovery's replays not counted).
    entries_applied: AtomicU64,
    /// Seqlock epoch: odd while an apply swaps several snapshots.
    epoch: AtomicU64,
    /// Held across one multi-shard swap window: in-memory mutations on
    /// disjoint shards apply in parallel, and the seqlock has one writer.
    window: Mutex<()>,
    /// Group-commit pipeline counters, shared by every shard's committer.
    commit_stats: Arc<CommitStats>,
    store: RwLock<Box<dyn DocBlobStore>>,
    backend: BackendKind,
    /// `None` for in-memory servers.
    home: Option<Home>,
    recovery: ServerRecovery,
    health: Arc<TenantHealth>,
    /// The scheme's own state: its counters, and Scheme 2's config.
    pub(crate) scheme: S,
}

impl<S: SchemeOps> std::ops::Deref for IndexEngine<S> {
    type Target = dyn IndexAdmin;

    fn deref(&self) -> &Self::Target {
        self
    }
}

impl<S: SchemeOps> IndexEngine<S> {
    /// In-memory server with a single index shard.
    #[must_use]
    pub fn new_in_memory(config: S::Config) -> Self {
        Self::new_in_memory_sharded(config, 1)
    }

    /// In-memory server with `shards` independently locked index shards.
    #[must_use]
    pub fn new_in_memory_sharded(config: S::Config, shards: usize) -> Self {
        let (scheme, meta) = S::new(config);
        let shards = (0..shards.max(1))
            .map(|_| ShardSlot::new(ShardData::new(BpTree::new(), 0, None), &meta))
            .collect();
        IndexEngine {
            meta: RwLock::new(meta),
            shards,
            entries_applied: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            window: Mutex::new(()),
            commit_stats: Arc::default(),
            store: RwLock::new(Box::new(DocStore::in_memory())),
            backend: BackendKind::Btree,
            home: None,
            recovery: ServerRecovery::default(),
            health: Arc::new(TenantHealth::new()),
            scheme,
        }
    }

    /// Durable server persisting under `dir` with the default
    /// [`DurableOptions`]: real filesystem, one index shard, group commit,
    /// btree backend.
    ///
    /// # Errors
    /// As [`IndexEngine::open_durable_with`].
    pub fn open_durable(config: S::Config, dir: &Path) -> Result<Self> {
        Self::open_durable_with(config, dir, DurableOptions::default())
    }

    /// Durable server persisting under `dir`. Recovery brings back
    /// everything acknowledged before a crash: the document store replays
    /// its WAL, each shard's index snapshot (btree) or keyword map (lsm)
    /// is loaded and validated against the scheme's meta (Scheme 1's
    /// geometry: the snapshot must have been written at the same
    /// capacity), and index mutations journaled after them are re-applied
    /// in order (incomplete cross-shard batches excluded).
    ///
    /// Under [`BackendKind::Lsm`] the document store is an
    /// [`LsmDocStore`] and each shard's values persist in an
    /// [`LsmKeywordMap`]: checkpoints flush only the tags mutated since
    /// the previous checkpoint as one new sorted run, instead of
    /// rewriting the whole index snapshot.
    ///
    /// # Errors
    /// Storage errors while opening or recovering the document store, a
    /// corrupt or mismatching index snapshot, a corrupt journal record, a
    /// backend mismatch, or injected faults.
    pub fn open_durable_with(config: S::Config, dir: &Path, opts: DurableOptions) -> Result<Self> {
        let (scheme, mut meta) = S::new(config);
        let DurableOptions {
            vfs,
            shards,
            backend,
        } = opts;
        let manifest_file = manifest_file::<S>();
        let backend = resolve_backend(
            vfs.as_ref(),
            dir,
            backend,
            &[
                &manifest_file,
                "store.wal",
                "store.snapshot",
                &index_file::<S>(0),
                &journal_file::<S>(0),
            ],
        )?;
        let store_opts = StoreOptions::default();
        let store: Box<dyn DocBlobStore> = match backend {
            BackendKind::Btree => Box::new(DocStore::open_with_vfs(vfs.clone(), dir, store_opts)?),
            BackendKind::Lsm => Box::new(LsmDocStore::open_with_vfs(vfs.clone(), dir, store_opts)?),
        };
        let store_recovery = store.recovery_report();
        let n = shard::resolve_shard_count(
            vfs.as_ref(),
            dir,
            &manifest_file,
            &index_file::<S>(0),
            shards,
        )?;
        let mut datas: Vec<ShardData<S>> = Vec::with_capacity(n);
        let mut journals = Vec::with_capacity(n);
        let mut recoveries = Vec::with_capacity(n);
        for i in 0..n {
            let data = match backend {
                BackendKind::Btree => {
                    let path = dir.join(index_file::<S>(i));
                    match durable::read_if_exists(vfs.as_ref(), &path)? {
                        Some(bytes) => load_snapshot(&bytes, &meta, &path)?,
                        None => ShardData::new(BpTree::new(), 0, None),
                    }
                }
                BackendKind::Lsm => load_kw_map(
                    LsmKeywordMap::open(vfs.clone(), dir, &kw_prefix::<S>(i))?,
                    &meta,
                )?,
            };
            let (journal, recovery) = IndexJournal::open_with_vfs(
                vfs.clone(),
                &dir.join(journal_file::<S>(i)),
                true,
                data.applied_seq,
            )?;
            datas.push(data);
            journals.push(journal);
            recoveries.push(recovery);
        }
        // Replayed journal records are not yet in the keyword map; their
        // tags go dirty so the next checkpoint flushes them. Irrelevant
        // for btree (whole-snapshot rewrites).
        let plan = shard::resolve_shard_recoveries(&recoveries)?;
        // The shards' sidecars do not exist yet, and start empty anyway.
        let sidecar = S::Sidecar::default();
        let mut replayed = 0u64;
        for (data, apply) in datas.iter_mut().zip(&plan.apply) {
            for &record in apply {
                // Every journaled record was a valid mutation when it was
                // staged, so one that no longer applies is a damaged record.
                S::apply(data, &sidecar, &mut meta, record).map_err(|e| match e {
                    SseError::Storage(e) => SseError::Storage(e),
                    e => SseError::Storage(StorageError::Corrupt {
                        what: "index journal record",
                        detail: format!("replay: {e}"),
                    }),
                })?;
                replayed += 1;
            }
        }
        let commit_stats = Arc::new(CommitStats::default());
        let parked = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(n);
        let mut committers = Vec::with_capacity(n);
        for (mut data, journal) in datas.into_iter().zip(journals) {
            data.applied_seq = journal.last_seq();
            shards.push(ShardSlot::new(data, &meta));
            committers.push(GroupCommitter::new(
                journal,
                Arc::clone(&commit_stats),
                Arc::clone(&parked),
            ));
        }
        Ok(IndexEngine {
            meta: RwLock::new(meta),
            shards,
            entries_applied: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            window: Mutex::new(()),
            commit_stats,
            store: RwLock::new(store),
            backend,
            home: Some(Home {
                dir: dir.to_path_buf(),
                vfs,
                committers,
                ready: Mutex::new((0..n).map(|_| VecDeque::new()).collect()),
                parked,
            }),
            recovery: ServerRecovery {
                index_ops_replayed: replayed,
                index_slices_dropped: plan.incomplete_slices_dropped,
                index_torn_bytes: recoveries.iter().map(|r| r.torn_bytes_truncated).sum(),
                store_snapshot_loaded: store_recovery.snapshot_loaded,
                store_wal_records_replayed: store_recovery.wal_records_replayed,
                store_torn_bytes: store_recovery.torn_bytes_truncated,
            },
            health: Arc::new(TenantHealth::new()),
            scheme,
        })
    }

    /// [`IndexAdmin::handle_shared`] for a caller that does not wait
    /// for a durable index mutation (the daemon's worker, DESIGN.md §4e):
    /// the mutation is staged with the continuation `park` builds and left
    /// parked for a flush, which calls it — [`IndexAdmin::flush`], or any
    /// checkpoint or repair. `Some` is the reply to send now, and then
    /// `park` was not called; `None` means the reply went, or will go, to
    /// the continuation. Scheme 1's `ReplaceIndex` never parks: it runs to
    /// completion under the quiescence write lock. An in-memory server
    /// applies before returning and never leaves anything parked.
    pub fn handle_parked(&self, request: &[u8], park: impl FnOnce() -> Reply) -> Option<Vec<u8>> {
        S::serve(self, request, park)
    }

    // ---- locks and snapshots ------------------------------------------------

    /// Enter the mutation pipeline: the quiescence read lock, held while a
    /// mutation validates against the meta and stages.
    pub(crate) fn pipeline(&self) -> RwLockReadGuard<'_, S::Meta> {
        self.meta.read()
    }

    /// Quiesce the mutation pipeline, with write access to the meta.
    pub(crate) fn quiesce(&self) -> RwLockWriteGuard<'_, S::Meta> {
        self.meta.write()
    }

    /// Whether mutations wait for an fsync (the engine has a home).
    pub(crate) fn is_durable(&self) -> bool {
        self.home.is_some()
    }

    /// The shard `tag` routes to.
    pub(crate) fn shard_of(&self, tag: &[u8; 32]) -> usize {
        shard_of(tag, self.shards.len())
    }

    /// Shard `i`'s sidecar.
    pub(crate) fn sidecar(&self, i: usize) -> &S::Sidecar {
        &self.shards[i].sidecar
    }

    /// Acquire shard `i`'s data lock, counting a contended acquisition
    /// when the lock was not immediately free.
    pub(crate) fn lock_data(&self, i: usize) -> MutexGuard<'_, ShardData<S>> {
        match self.shards[i].data.try_lock() {
            Some(guard) => guard,
            None => {
                self.shards[i].contention.fetch_add(1, Ordering::Relaxed);
                self.shards[i].data.lock()
            }
        }
    }

    /// Lock every shard's data in ascending order (checkpoint / export).
    pub(crate) fn lock_all_data(&self) -> Vec<MutexGuard<'_, ShardData<S>>> {
        (0..self.shards.len()).map(|i| self.lock_data(i)).collect()
    }

    /// Fetch shard `i`'s search snapshot, retrying around multi-shard
    /// swap windows (odd epoch) so a reader never observes a half-swapped
    /// batch across shards.
    pub(crate) fn snap(&self, i: usize) -> Arc<SnapShard<S>> {
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

    /// One attempt at [`Self::snap`] that never waits: `None` inside a
    /// multi-shard swap window (the epoch is odd, or moved during the
    /// read) and while a publisher holds the snapshot cell.
    pub(crate) fn try_snap(&self, i: usize) -> Option<Arc<SnapShard<S>>> {
        let before = self.epoch.load(Ordering::Acquire);
        if before & 1 == 1 {
            return None;
        }
        let snap = Arc::clone(&*self.shards[i].snap.try_read()?);
        (self.epoch.load(Ordering::Acquire) == before).then_some(snap)
    }

    /// Take what publishing `idxs` (ascending) needs under `try_` only:
    /// `None` while any lock is held or a multi-shard swap window is open
    /// (odd epoch).
    fn try_publishing(&self, idxs: &[usize]) -> Option<Publishing<'_, S>> {
        let window = match idxs.len() > 1 {
            true => Some(self.window.try_lock()?),
            false => None,
        };
        if self.epoch.load(Ordering::Acquire) & 1 == 1 {
            return None;
        }
        let cells = idxs
            .iter()
            .map(|&i| self.shards[i].snap.try_write())
            .collect::<Option<_>>()?;
        Some(Publishing { window, cells })
    }

    /// Publish the current trees of `changed` as their immutable search
    /// snapshots, several inside one odd/even epoch window so a reader
    /// sees a multi-shard mutation whole. One pointer copy per shard: the
    /// tree clone shares its root, and through it every node and value.
    /// The shard's next mutation copies the nodes on its path and the
    /// value it changes, where this snapshot still holds them. Private to
    /// the apply paths: a snapshot changes only when a mutation is applied.
    ///
    /// `held` is what an inline apply took up front (`try_publishing`);
    /// without it the window is taken here and each cell in turn.
    fn publish(
        &self,
        changed: &[(usize, &ShardData<S>)],
        meta: &S::Meta,
        held: Option<Publishing<'_, S>>,
    ) {
        let (window, cells) = match held {
            Some(Publishing { window, cells }) => (window, cells),
            None => ((changed.len() > 1).then(|| self.window.lock()), Vec::new()),
        };
        debug_assert!(cells.is_empty() || cells.len() == changed.len());
        if window.is_some() {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        let mut cells = cells.into_iter();
        for &(i, data) in changed {
            let snap = Arc::new(SnapShard {
                tree: data.tree.clone(),
                applied_seq: data.applied_seq,
                meta: meta.clone(),
            });
            match cells.next() {
                Some(mut cell) => *cell = snap,
                None => *self.shards[i].snap.write() = snap,
            }
            self.commit_stats.note_swap();
        }
        if window.is_some() {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    // ---- the commit pipeline: stage, park, flush -----------------------------

    /// Run one index mutation: its shard-local records, `records[i]` for
    /// each shard `i` in `idxs` (ascending, non-empty), under the caller's
    /// quiescence lock, whose `meta` they were validated against.
    ///
    /// In memory the mutation is durable at once: it applies and publishes
    /// under its shards' data locks, and its reply is returned. Durable, it
    /// is staged — batch slices when several shards, under every affected
    /// stage lock at once — with the continuation `park` builds on its
    /// first record, and parked: `None`, and the flush that makes it
    /// durable calls the continuation. A poisoned shard refuses the whole
    /// mutation: its error is returned, and `park` is not called.
    pub(crate) fn mutate(
        &self,
        meta: &S::Meta,
        idxs: &[usize],
        mut records: Vec<Vec<u8>>,
        park: impl FnOnce() -> Reply,
    ) -> Option<Vec<u8>> {
        debug_assert!(!idxs.is_empty() && idxs.windows(2).all(|w| w[0] < w[1]));
        let Some(home) = &self.home else {
            let applied = self.apply_now(&mut meta.clone(), idxs, &records, ApplyMode::Worker);
            return Some(applied.expect(WAITS));
        };
        let mut guards: Vec<StageGuard<'_>> =
            idxs.iter().map(|&i| home.committers[i].lock()).collect();
        if let Some(msg) = guards.iter().find_map(StageGuard::poisoned) {
            let err = journal_dead(msg);
            drop(guards);
            return Some(self.mutation_failed(&err));
        }
        let batch = BatchId {
            coordinator: idxs[0] as u32,
            seq: guards[0].next_seq(),
        };
        let shards: Option<Arc<[u32]>> =
            (idxs.len() > 1).then(|| idxs.iter().map(|&i| i as u32).collect());
        let mut reply = Some(park());
        for (guard, &i) in guards.iter_mut().zip(idxs) {
            let record = std::mem::take(&mut records[i]);
            guard.stage(record, batch, shards.clone(), reply.take());
        }
        None
    }

    /// [`Self::mutate`] under the quiescence write lock, run to completion
    /// — what a meta rewrite (Scheme 1's `ReplaceIndex`) needs: applying
    /// it moves `meta`, the way recovery's replay of the same records does.
    /// The caller has flushed already.
    pub(crate) fn mutate_quiesced(
        &self,
        meta: &mut S::Meta,
        idxs: &[usize],
        records: Vec<Vec<u8>>,
    ) -> Vec<u8> {
        if self.home.is_none() {
            return self
                .apply_now(meta, idxs, &records, ApplyMode::Worker)
                .expect(WAITS);
        }
        let mut slot = ReplySlot::default();
        if let Some(refused) = self.mutate(meta, idxs, records, || slot.reply()) {
            return refused;
        }
        self.flush_with(meta);
        slot.wait()
            .expect("a flush under the write lock replies to everything staged")
    }

    /// [`Self::mutate`] on the caller's thread, only if that can neither
    /// wait nor run long (DESIGN.md §4n): the engine is in memory (a
    /// durable mutation waits for an fsync), the quiescence lock and every
    /// lock [`Self::apply_now`] takes are free on the first `try_`, and
    /// `admits` passes each touched shard's live data. `None` declines
    /// having changed nothing: no record applied, no seq or counter moved.
    pub(crate) fn try_mutate(
        &self,
        idxs: &[usize],
        records: &[Vec<u8>],
        admits: &dyn Fn(usize, &ShardData<S>) -> bool,
    ) -> Option<Vec<u8>> {
        if self.home.is_some() {
            return None;
        }
        let meta = self.meta.try_read()?;
        let mode = ApplyMode::Inline { admits };
        self.apply_now(&mut meta.clone(), idxs, records, mode)
    }

    /// An in-memory mutation, applied now: each record under its shard's
    /// data lock (ascending), then one publish. `mode` says how the locks
    /// are taken; only [`ApplyMode::Inline`] returns `None`, and only
    /// before the first record applies.
    fn apply_now(
        &self,
        meta: &mut S::Meta,
        idxs: &[usize],
        records: &[Vec<u8>],
        mode: ApplyMode<'_, S>,
    ) -> Option<Vec<u8>> {
        let mut datas: Vec<_> = match mode {
            ApplyMode::Worker => idxs.iter().map(|&i| self.lock_data(i)).collect(),
            ApplyMode::Inline { .. } => idxs
                .iter()
                .map(|&i| self.shards[i].data.try_lock())
                .collect::<Option<_>>()?,
        };
        // Inline, the publish's locks are taken now: once a record has
        // applied, a held lock could no longer decline.
        let mut held = None;
        if let ApplyMode::Inline { admits } = mode {
            if !idxs.iter().zip(&datas).all(|(&i, data)| admits(i, data)) {
                return None;
            }
            held = Some(self.try_publishing(idxs)?);
        }
        let mut outcome = Ok(());
        for (data, &i) in datas.iter_mut().zip(idxs) {
            if outcome.is_ok() {
                outcome = self.apply_record(i, data, meta, &records[i]);
            }
            data.applied_seq += 1;
        }
        let changed: Vec<_> = idxs.iter().zip(&datas).map(|(&i, d)| (i, &**d)).collect();
        self.publish(&changed, meta, held);
        drop(changed);
        drop(datas);
        Some(self.ack(outcome))
    }

    /// Apply one shard-local record to shard `i`. A record that does not
    /// decode, or whose apply panics, fails its mutation — and degrades
    /// the tenant, since the index no longer follows its journal — instead
    /// of unwinding through the flush that carries other mutations.
    fn apply_record(
        &self,
        i: usize,
        data: &mut ShardData<S>,
        meta: &mut S::Meta,
        record: &[u8],
    ) -> Result<()> {
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            S::apply(data, &self.shards[i].sidecar, meta, record)
        }));
        let n = applied.unwrap_or_else(|_| {
            Err(SseError::Storage(StorageError::Io(std::io::Error::other(
                "applying an index mutation panicked",
            ))))
        })?;
        self.entries_applied.fetch_add(n, Ordering::Relaxed);
        Ok(())
    }

    /// The library path (DESIGN.md §4e): serve one request on this thread
    /// with a [`ReplySlot`] as its continuation; if it parked, flush here
    /// and wait for the reply — sent by this flush, or by the writer of a
    /// shard this flush found busy.
    pub(crate) fn run_here(
        &self,
        serve: impl FnOnce(&mut ReplySlot) -> Option<Vec<u8>>,
    ) -> Vec<u8> {
        let mut slot = ReplySlot::default();
        serve(&mut slot).unwrap_or_else(|| {
            self.flush();
            slot.wait().expect("every staged record gets its reply")
        })
    }

    /// Flush under the caller's quiescence lock. `meta` is what snapshots
    /// are published under; a replayed meta rewrite lands in it.
    ///
    /// 1. Every shard with records staged and no writer is written, this
    ///    thread its writer ([`GroupCommitter::write_pending`]): one
    ///    vectored write and one fsync per cut, each written group queued
    ///    for apply. A shard another thread is writing is left to that
    ///    writer, which takes everything staged before it steps down — so
    ///    threads flushing at once fsync different journals in parallel.
    /// 2. Every queued mutation that is written on all its shards applies,
    ///    in seq order, through [`SchemeOps::apply`] — the function
    ///    recovery replays with — unless one of its slices failed: then
    ///    its durable shards advance `applied_seq` past their slices
    ///    without applying them (recovery's sibling-completeness check
    ///    discards those on disk) and a poisoned shard applies nothing.
    /// 3. Each shard that changed publishes once, several inside one
    ///    odd/even epoch window.
    /// 4. Every applied mutation gets its reply: `Ack`, or the failed
    ///    group's error (which degrades the tenant).
    ///
    /// Under the quiescence write lock no other writer is active, so a
    /// flush there takes and applies everything staged before it.
    pub(crate) fn flush_with(&self, meta: &mut S::Meta) {
        let Some(home) = &self.home else {
            return;
        };
        for (i, committer) in home.committers.iter().enumerate() {
            committer.write_pending(|group| home.ready.lock()[i].extend(group));
        }
        self.apply_ready(home, meta);
    }

    /// Steps 2–4 of [`Self::flush_with`] over everything queued so far.
    fn apply_ready(&self, home: &Home, meta: &mut S::Meta) {
        let mut applied: Vec<(Vec<Staged>, Result<()>)> = Vec::new();
        {
            let mut ready = home.ready.lock();
            let plan = take_ready(&mut ready);
            if plan.is_empty() {
                return;
            }
            // Every shard a durable slice applies to, locked ascending.
            let mut touched: Vec<usize> = plan
                .iter()
                .flatten()
                .filter(|(_, rec)| rec.failed.is_none())
                .map(|&(i, _)| i)
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let mut datas: Vec<_> = touched.iter().map(|&i| self.lock_data(i)).collect();
            let mut changed = vec![false; touched.len()];
            for mutation in plan {
                let mut outcome = mutation
                    .iter()
                    .find_map(|(_, rec)| rec.failed.as_deref())
                    .map_or(Ok(()), |msg| Err(journal_dead(msg)));
                for (i, rec) in &mutation {
                    if rec.failed.is_some() {
                        continue;
                    }
                    let k = touched.binary_search(i).expect("locked above");
                    let data = &mut datas[k];
                    debug_assert_eq!(data.applied_seq + 1, rec.seq, "records apply in seq order");
                    if outcome.is_ok() {
                        outcome = self.apply_record(*i, data, meta, &rec.record);
                        changed[k] = true;
                    }
                    data.applied_seq = rec.seq;
                }
                applied.push((mutation.into_iter().map(|(_, rec)| rec).collect(), outcome));
            }
            let changed: Vec<_> = touched
                .iter()
                .zip(&datas)
                .zip(&changed)
                .filter(|(_, &c)| c)
                .map(|((&i, data), _)| (i, &**data))
                .collect();
            self.publish(&changed, meta, None);
        }
        for (mut records, outcome) in applied {
            let reply = records.iter_mut().find_map(|rec| rec.reply.take());
            let response = self.ack(outcome);
            if let Some(send) = reply {
                send(response);
            }
        }
    }

    /// Entries applied live, for the scheme's counters.
    pub(crate) fn entries_applied(&self) -> &AtomicU64 {
        &self.entries_applied
    }

    /// Cut an index update into shard-local records from the bytes its
    /// entries (each its tag and wire bytes) arrived in: `records[i]` is
    /// `head` (the request's tag byte and header) ‖ the `u64` count of the
    /// entries routed to shard `i` ‖ their bytes in arrival order, sized
    /// exactly. `idxs` (ascending, as [`Self::mutate`] takes them): every
    /// shard an entry routes to, or all when `every_shard`; others stay empty.
    pub(crate) fn shard_records<'e>(
        &self,
        head: &[u8],
        entries: impl Iterator<Item = ([u8; 32], &'e [u8])> + Clone,
        every_shard: bool,
    ) -> (Vec<usize>, Vec<Vec<u8>>) {
        let mut sizes = vec![(0u64, 0); self.shards.len()];
        for (tag, wire) in entries.clone() {
            let size = &mut sizes[self.shard_of(&tag)];
            *size = (size.0 + 1, size.1 + wire.len());
        }
        let idxs: Vec<usize> = (0..sizes.len())
            .filter(|&i| every_shard || sizes[i].0 > 0)
            .collect();
        let mut records = vec![Vec::new(); sizes.len()];
        for &i in &idxs {
            let (count, len) = sizes[i];
            records[i] = Vec::with_capacity(head.len() + 8 + len);
            records[i].extend(head.iter().chain(&count.to_le_bytes()));
        }
        for (tag, wire) in entries {
            records[self.shard_of(&tag)].extend_from_slice(wire);
        }
        (idxs, records)
    }

    // ---- replies and health -------------------------------------------------

    /// Report a failed mutation: storage-typed failures degrade the tenant
    /// to read-only (validation and protocol errors do not — they say
    /// nothing about the disk), then encode the protocol error response.
    pub(crate) fn mutation_failed(&self, e: &SseError) -> Vec<u8> {
        if matches!(e, SseError::Storage(_)) {
            self.health.note_storage_error(&e.to_string());
        }
        proto_common::encode_error(&e.to_string())
    }

    /// The reply to a mutation: `Ack`, or [`Self::mutation_failed`].
    pub(crate) fn ack(&self, outcome: Result<()>) -> Vec<u8> {
        match outcome {
            Ok(()) => proto_common::encode_ack(),
            Err(e) => self.mutation_failed(&e),
        }
    }

    /// Serve the wire `Checkpoint` request.
    pub(crate) fn handle_checkpoint(&self) -> Vec<u8> {
        if self.home.is_none() {
            return proto_common::encode_error("checkpoint requested on an in-memory server");
        }
        self.ack(self.checkpoint())
    }

    // ---- the document store -------------------------------------------------

    /// Store document blobs.
    ///
    /// # Errors
    /// The first storage error; earlier blobs of the batch stay stored.
    pub(crate) fn put_docs(&self, docs: &[(u64, &[u8])]) -> Result<()> {
        if docs.is_empty() {
            return Ok(());
        }
        put_all(&mut **self.store.write(), docs)
    }

    /// [`Self::put_docs`] only if the store's write lock is free now:
    /// `None` declines having stored nothing.
    pub(crate) fn try_put_docs(&self, docs: &[(u64, &[u8])]) -> Option<Result<()>> {
        Some(put_all(&mut **self.store.try_write()?, docs))
    }

    /// Delete document blobs. Deleting an unknown id is a no-op, not an
    /// error: the posting-side delete entries may arrive first.
    ///
    /// # Errors
    /// Any other storage error — the delete never reached the log, so it
    /// must not be acknowledged.
    pub(crate) fn remove_docs(&self, ids: &[u64]) -> Result<()> {
        remove_all(&mut **self.store.write(), ids)
    }

    /// [`Self::remove_docs`] only if the store's write lock is free now:
    /// `None` declines having deleted nothing.
    pub(crate) fn try_remove_docs(&self, ids: &[u64]) -> Option<Result<()>> {
        Some(remove_all(&mut **self.store.try_write()?, ids))
    }

    /// Fetch the stored blobs among `ids` (missing ids are skipped).
    pub(crate) fn get_many(&self, ids: &[u64]) -> Vec<(u64, Vec<u8>)> {
        self.store.read().get_many(ids)
    }

    /// [`Self::get_many`] that never waits, never touches a file and
    /// copies at most `max_bytes`: `None` while a writer holds the store
    /// (`put_docs` appends to the store's WAL under that lock), when the
    /// blobs total more than `max_bytes` (known from their headers, before
    /// the copy), and always under the lsm backend, whose blob reads go
    /// to run files. The btree backend's blobs — and an in-memory
    /// server's — are served from the resident heap.
    pub(crate) fn try_get_many(
        &self,
        ids: &[u64],
        max_bytes: usize,
    ) -> Option<Vec<(u64, Vec<u8>)>> {
        self.store.try_read()?.get_many_resident(ids, max_bytes)
    }

    /// Every stored `(id, blob)`, in id order.
    pub(crate) fn all_docs(&self) -> Vec<(u64, Vec<u8>)> {
        let store = self.store.read();
        store.get_many(&store.doc_ids())
    }

    // ---- persistence --------------------------------------------------------

    /// Re-persist every shard's applied state: document-store checkpoint,
    /// then index snapshots (btree) or keyword-map flushes (lsm). The
    /// caller holds the quiescence write lock and every data lock.
    fn persist_applied(
        &self,
        home: &Home,
        meta: &S::Meta,
        datas: &mut [MutexGuard<'_, ShardData<S>>],
    ) -> Result<()> {
        self.store.write().checkpoint()?;
        match self.backend {
            BackendKind::Btree => {
                // One commit for every shard: its one dir fsync makes all
                // the renames durable before any journal is reset.
                let names: Vec<String> = (0..datas.len()).map(index_file::<S>).collect();
                commit_by_rename(home.vfs.as_ref(), &home.dir, &names, |i, f| {
                    write_snapshot(&datas[i], meta, f)
                })?;
            }
            BackendKind::Lsm => {
                for data in datas.iter_mut() {
                    data.flush_kw_map(meta)?;
                }
            }
        }
        Ok(())
    }
}

/// What the never-wait read path's tests need to hold against it.
#[cfg(test)]
impl<S: SchemeOps> IndexEngine<S> {
    /// The document store's write lock, as `put_docs` holds it.
    pub(crate) fn hold_store(&self) -> RwLockWriteGuard<'_, Box<dyn DocBlobStore>> {
        self.store.write()
    }

    /// A reader's hold on shard `i`'s snapshot cell, as `snap` takes it.
    pub(crate) fn hold_snapshot_cell(&self, i: usize) -> RwLockReadGuard<'_, Arc<SnapShard<S>>> {
        self.shards[i].snap.read()
    }

    /// The multi-shard swap window, as a publish holds it.
    pub(crate) fn hold_swap_window(&self) -> MutexGuard<'_, ()> {
        self.window.lock()
    }

    /// Open (first call) or close (second) a multi-shard swap window, as
    /// an apply does around its publishes.
    pub(crate) fn toggle_swap_window(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

impl<S: SchemeOps> IndexAdmin for IndexEngine<S> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self.run_here(|slot| self.handle_parked(request, || slot.reply()))
    }

    fn handle_parked(&self, request: &[u8], park: &mut dyn FnMut() -> Reply) -> Option<Vec<u8>> {
        S::serve(self, request, park)
    }

    fn apply_batch(&self, parts: &[&[u8]]) -> Vec<u8> {
        self.run_here(|slot| self.apply_batch_parked(parts, &mut || slot.reply()))
    }

    fn apply_batch_parked(
        &self,
        parts: &[&[u8]],
        park: &mut dyn FnMut() -> Reply,
    ) -> Option<Vec<u8>> {
        let mut docs = Vec::new();
        let mut entries = Vec::new();
        for part in parts {
            match S::batch_part(part) {
                Ok(Some(BatchPart::Docs(d))) => docs.extend(d),
                Ok(Some(BatchPart::Index(e))) => entries.extend(e),
                Ok(None) => return Some(proto_common::encode_error(S::BATCH_PARTS)),
                Err(e) => return Some(proto_common::encode_error(&e.to_string())),
            }
        }
        S::apply_batch(self, &docs, &entries, park)
    }

    fn is_read(&self, request: &[u8]) -> bool {
        request.first().is_some_and(|&tag| S::is_read(tag))
    }

    fn flush(&self) {
        let Some(home) = &self.home else {
            return;
        };
        if home.parked.load(Ordering::Acquire) == 0 {
            return;
        }
        // A flush under the read lock never rewrites the meta: the one
        // mutation that does runs to completion under the write lock.
        let meta = self.pipeline();
        self.flush_with(&mut (*meta).clone());
    }

    fn checkpoint(&self) -> Result<()> {
        let Some(home) = &self.home else {
            return Ok(());
        };
        let start = Instant::now();
        let mut meta = self.quiesce();
        self.flush_with(&mut meta);
        debug_assert_eq!(home.parked.load(Ordering::Acquire), 0, "quiesced flush");
        let mut datas = self.lock_all_data();
        self.persist_applied(home, &meta, &mut datas)?;
        for committer in &home.committers {
            committer.reset_journal()?;
        }
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.commit_stats.note_checkpoint(us);
        Ok(())
    }

    fn repair(&self) -> Result<()> {
        let Some(home) = &self.home else {
            self.health.note_probe_ok();
            return Ok(());
        };
        let mut meta = self.quiesce();
        self.flush_with(&mut meta);
        debug_assert_eq!(home.parked.load(Ordering::Acquire), 0, "quiesced flush");
        let mut datas = self.lock_all_data();
        self.persist_applied(home, &meta, &mut datas)?;
        for (i, data) in datas.iter().enumerate() {
            let path = home.dir.join(journal_file::<S>(i));
            let _ = home.vfs.remove_file(&path);
            let (journal, _) =
                IndexJournal::open_with_vfs(home.vfs.clone(), &path, true, data.applied_seq)?;
            home.committers[i].replace_journal(journal)?;
        }
        self.health.note_probe_ok();
        Ok(())
    }

    fn verify_files(&self) -> Result<ScrubFindings> {
        let mut findings = ScrubFindings::default();
        let Some(home) = &self.home else {
            return Ok(findings);
        };
        let mut wal_paths: Vec<PathBuf> = (0..self.shards.len())
            .map(|i| home.dir.join(journal_file::<S>(i)))
            .collect();
        wal_paths.push(home.dir.join(if self.backend == BackendKind::Lsm {
            "doc.wal"
        } else {
            "store.wal"
        }));
        for path in &wal_paths {
            match wal::verify_file(home.vfs.as_ref(), path)? {
                WalVerdict::Clean { .. } => findings.artifacts_verified += 1,
                WalVerdict::TornTail { .. } => {
                    findings.artifacts_verified += 1;
                    findings.torn_tails_seen += 1;
                }
                WalVerdict::Corrupt { at } => {
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
                    let path = home.dir.join(index_file::<S>(i));
                    if durable::verify_sealed(home.vfs.as_ref(), &path, S::MAGIC)? {
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
        // The two stamps, written once at open.
        let manifest = home.dir.join(manifest_file::<S>());
        if shard::read_manifest(home.vfs.as_ref(), &manifest)?.is_some() {
            findings.artifacts_verified += 1;
        }
        if read_backend_manifest(home.vfs.as_ref(), &home.dir)?.is_some() {
            findings.artifacts_verified += 1;
        }
        Ok(findings)
    }

    fn health(&self) -> &Arc<TenantHealth> {
        &self.health
    }

    fn recovery(&self) -> ServerRecovery {
        self.recovery
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_contention(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|slot| slot.contention.load(Ordering::Relaxed))
            .collect()
    }

    fn commit_counters(&self) -> CommitCounters {
        self.commit_stats.counters()
    }

    fn backend(&self) -> BackendKind {
        self.backend
    }

    fn backend_counters(&self) -> BackendCounters {
        let mut c = self.store.read().counters();
        for i in 0..self.shards.len() {
            let data = self.lock_data(i);
            if let Some(map) = &data.kw_map {
                c.merge(&map.counters());
            }
        }
        c
    }

    fn unique_keywords(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_data(i).tree.len())
            .sum()
    }

    fn stored_docs(&self) -> usize {
        self.store.read().len()
    }

    fn tree_height(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_data(i).tree.height())
            .max()
            .unwrap_or(0)
    }
}

impl<S: SchemeOps> Service for IndexEngine<S> {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }

    fn on_shutdown(&mut self) {
        // Collapse the WAL + journal into snapshots so a clean shutdown
        // leaves nothing to replay. Best effort: a failing disk at
        // shutdown must not abort the process, and recovery replays the
        // logs anyway.
        let _ = self.checkpoint();
    }
}

/// The reply to a batch of searches: every item's documents, or the
/// first error, after which no further item is searched.
pub(crate) fn search_each<T>(
    items: impl ExactSizeIterator<Item = T>,
    mut search: impl FnMut(T) -> std::result::Result<Vec<(u64, Vec<u8>)>, String>,
) -> Vec<u8> {
    let mut results = Vec::with_capacity(items.len());
    for item in items {
        match search(item) {
            Ok(docs) => results.push(docs),
            Err(msg) => return proto_common::encode_error(&msg),
        }
    }
    proto_common::encode_result_many(&results)
}

/// The body of [`IndexEngine::put_docs`], under the store lock.
fn put_all(store: &mut dyn DocBlobStore, docs: &[(u64, &[u8])]) -> Result<()> {
    for (id, blob) in docs {
        store.put(*id, blob)?;
    }
    Ok(())
}

/// The body of [`IndexEngine::remove_docs`], under the store lock.
fn remove_all(store: &mut dyn DocBlobStore, ids: &[u64]) -> Result<()> {
    for &id in ids {
        match store.delete(id) {
            Ok(()) | Err(StorageError::RecordNotFound) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Take every queued mutation that can apply now, each as its slices with
/// their shards, in an order that keeps every shard's seq order: a shard's
/// head record goes once its batch heads the queue of every shard it has a
/// slice on. Two batches are staged in the same order on every shard they
/// share (each holds all its stage locks at once), so heads never wait on
/// each other in a cycle: whatever stays queued waits for a slice that is
/// not written yet.
fn take_ready(ready: &mut [VecDeque<Staged>]) -> Vec<Vec<(usize, Staged)>> {
    let mut plan = Vec::new();
    let mut progress = true;
    while progress {
        progress = false;
        for i in 0..ready.len() {
            while let Some(head) = ready[i].front() {
                let mutation = match head.shards.clone() {
                    // A single-shard record is whole on its own.
                    None => vec![(i, ready[i].pop_front().expect("head checked"))],
                    Some(set) => {
                        let batch = head.batch;
                        let shards = set.iter().map(|&s| s as usize);
                        let heads = |s: usize| ready[s].front().is_some_and(|r| r.batch == batch);
                        if !shards.clone().all(heads) {
                            break;
                        }
                        let pop = |s: usize| (s, ready[s].pop_front().expect("heads checked"));
                        shards.map(pop).collect()
                    }
                };
                plan.push(mutation);
                progress = true;
            }
        }
    }
    plan
}

fn corrupt_snapshot(detail: String) -> SseError {
    SseError::Storage(StorageError::Corrupt {
        what: "index snapshot",
        detail,
    })
}

/// Bytes of encoded entries a snapshot writer gathers before it CRCs and
/// writes them.
const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// Write one shard's index snapshot to `f`: the sealed header, then the
/// body — its `applied_seq` (the `last_op_seq` a reopen skips the journal
/// to), the meta, then every entry in tree order. The body goes out in
/// chunks of about [`SNAPSHOT_CHUNK`] through one reused buffer, behind a
/// placeholder header that is overwritten with the real one once the
/// body's CRC is known, so the image is never whole in memory. The index
/// contains only what the server already sees, so persisting it leaks
/// nothing new.
fn write_snapshot<S: SchemeOps>(
    data: &ShardData<S>,
    meta: &S::Meta,
    f: &mut dyn VfsFile,
) -> sse_storage::Result<()> {
    f.write_all(&[0; 12])?;
    let mut crc = Crc32::new();
    let mut chunk = WireWriter::new();
    chunk.put_u64(data.applied_seq);
    chunk.put_array(&S::encode_meta(meta));
    chunk.put_u64(data.tree.len() as u64);
    for (tag, value) in data.tree.iter() {
        chunk.put_array(tag);
        S::encode_value(value, &mut chunk);
        if chunk.len() >= SNAPSHOT_CHUNK {
            let bytes = chunk.finish();
            crc.update(&bytes);
            f.write_all(&bytes)?;
            chunk = WireWriter::with_buf(bytes);
        }
    }
    let tail = chunk.finish();
    crc.update(&tail);
    f.write_all(&tail)?;
    f.seek_to(0)?;
    Ok(f.write_all(&sealed_header(S::MAGIC, crc.finalize()))?)
}

/// Decode one shard snapshot, validating it against `meta`. A body that
/// passes its CRC but does not decode is as corrupt as one that fails it.
fn load_snapshot<S: SchemeOps>(bytes: &[u8], meta: &S::Meta, path: &Path) -> Result<ShardData<S>> {
    let body = unseal(bytes, S::MAGIC, path)?;
    decode_snapshot::<S>(body, meta, path).map_err(|e| match e {
        SseError::Wire(e) => corrupt_snapshot(format!("{e} in {}", path.display())),
        e => e,
    })
}

/// The body decode of [`load_snapshot`], its errors as the reader gives them.
fn decode_snapshot<S: SchemeOps>(body: &[u8], meta: &S::Meta, path: &Path) -> Result<ShardData<S>> {
    let mut r = WireReader::new(body);
    let last_op_seq = r.get_u64()?;
    S::check_meta(meta, r.get_array(S::encode_meta(meta).len())?)?;
    let n = r.get_count(32 + S::MIN_VALUE_BYTES)?;
    let mut tree = BpTree::new();
    let mut prev: Option<[u8; 32]> = None;
    for _ in 0..n {
        let tag = r.get_array32()?;
        // `write_snapshot` writes tags in tree order: a repeated or
        // out-of-order tag would silently replace an entry.
        if prev.is_some_and(|p| p >= tag) {
            return Err(corrupt_snapshot(format!(
                "tags not strictly ascending in {}",
                path.display()
            )));
        }
        prev = Some(tag);
        tree.insert(tag, S::decode_value(&mut r, meta)?);
    }
    r.finish()?;
    Ok(ShardData::new(tree, last_op_seq, None))
}

/// Load one lsm-backed shard from its keyword map, validating the map's
/// `meta` blob against `meta` — same contract as the btree snapshot's
/// embedded meta. An empty blob means the map was never flushed.
fn load_kw_map<S: SchemeOps>(map: LsmKeywordMap, meta: &S::Meta) -> Result<ShardData<S>> {
    let stored = map.meta();
    if !stored.is_empty() {
        S::check_meta(meta, &stored)?;
    }
    let mut tree = BpTree::new();
    for (tag, value) in map.iter_all()? {
        let mut r = WireReader::new(&value);
        tree.insert(tag, S::decode_value(&mut r, meta)?);
        r.finish()?;
    }
    Ok(ShardData::new(tree, map.last_seq(), Some(map)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use crate::proto_common::decode_ack;
    use crate::scheme1::protocol::{self as s1p, UpdateEntry};
    use crate::scheme1::Scheme1Server;
    use crate::scheme2::protocol::{self as s2p, GenerationEntry};
    use crate::scheme2::{Scheme2Config, Scheme2Server};

    /// A scheme whose record `[b, ..]` stores itself under the tag
    /// `[b; 32]`, and whose record `panic` panics when applied.
    struct Toy;

    impl SchemeOps for Toy {
        type Value = Vec<u8>;
        type Meta = ();
        type Sidecar = ();
        type Config = ();
        type EntryRef<'a> = ();

        const STEM: &'static str = "toy";
        const MAGIC: &'static [u8; 8] = b"SSETOYI2";
        const MIN_VALUE_BYTES: usize = 8;
        const BATCH_PARTS: &'static str = "no batches";

        fn new((): ()) -> (Self, ()) {
            (Toy, ())
        }

        fn encode_meta((): &()) -> Vec<u8> {
            Vec::new()
        }

        fn check_meta((): &(), _: &[u8]) -> Result<()> {
            Ok(())
        }

        fn encode_value(value: &Vec<u8>, w: &mut WireWriter) {
            w.put_bytes(value);
        }

        fn decode_value(r: &mut WireReader<'_>, (): &()) -> Result<Vec<u8>> {
            Ok(r.get_bytes()?.to_vec())
        }

        fn apply(data: &mut ShardData<Self>, (): &(), (): &mut (), record: &[u8]) -> Result<u64> {
            assert_ne!(record, b"panic", "the test's poisoned record");
            data.tree.insert([record[0]; 32], record.to_vec());
            Ok(1)
        }

        fn is_read(_: u8) -> bool {
            false
        }

        fn serve(_: &IndexEngine<Self>, _: &[u8], _: impl FnOnce() -> Reply) -> Option<Vec<u8>> {
            unreachable!("the engine's tests serve no requests")
        }

        fn batch_part(_: &[u8]) -> Result<Option<crate::ops::BatchPart<'_, ()>>> {
            Ok(None)
        }

        fn apply_batch(
            _: &IndexEngine<Self>,
            _: &[(u64, &[u8])],
            _: &[()],
            _: impl FnOnce() -> Reply,
        ) -> Option<Vec<u8>> {
            unreachable!("the engine's tests serve no requests")
        }
    }

    type Sink = Arc<Mutex<Vec<Vec<u8>>>>;

    fn open(name: &str) -> (IndexEngine<Toy>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sse-engine-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (IndexEngine::open_durable((), &dir).unwrap(), dir)
    }

    /// Park `record` on shard 0, its reply going to `sink`.
    fn park(engine: &IndexEngine<Toy>, record: &[u8], sink: &Sink) {
        let sink = Arc::clone(sink);
        let reply = engine.mutate(
            &engine.pipeline(),
            &[0],
            vec![record.to_vec()],
            || -> Reply { Box::new(move |r| sink.lock().push(r)) },
        );
        assert!(reply.is_none(), "a durable mutation parks");
    }

    #[test]
    fn a_panicking_apply_fails_its_mutation_and_every_other_reply_arrives() {
        let (engine, dir) = open("panic");
        let sink = Sink::default();
        for record in [&b"a"[..], b"panic", b"b"] {
            park(&engine, record, &sink);
        }
        engine.flush();
        let got = std::mem::take(&mut *sink.lock());
        assert_eq!(got.len(), 3, "every parked mutation got its reply");
        decode_ack(&got[0]).unwrap();
        let err = decode_ack(&got[1]).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        decode_ack(&got[2]).unwrap();
        assert_eq!(engine.health().state(), HealthState::Degraded);
        let home = engine.home.as_ref().unwrap();
        assert_eq!(
            home.parked.load(Ordering::Acquire),
            0,
            "nothing left parked"
        );

        // The shard's order survived: the next record applies at seq 4.
        assert_eq!(engine.lock_data(0).applied_seq, 3);
        park(&engine, b"c", &sink);
        engine.flush();
        decode_ack(&sink.lock()[0]).unwrap();
        assert_eq!(engine.lock_data(0).applied_seq, 4);
        assert_eq!(engine.unique_keywords(), 3);
        // The journal holds the panicking record, so the directory is not
        // reopened.
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The one-buffer snapshot encoder `write_snapshot` replaced: the
    /// body it streams, built whole.
    fn reference_body<S: SchemeOps>(data: &ShardData<S>, meta: &S::Meta) -> Vec<u8> {
        let mut body = WireWriter::new();
        body.put_u64(data.applied_seq);
        body.put_array(&S::encode_meta(meta));
        body.put_u64(data.tree.len() as u64);
        for (tag, value) in data.tree.iter() {
            body.put_array(tag);
            S::encode_value(value, &mut body);
        }
        body.finish()
    }

    #[test]
    fn a_streamed_snapshot_is_the_sealed_reference_body_and_loads_back() {
        let mut tree = BpTree::new();
        for i in 0u32..300 {
            let mut tag = [0x5A; 32];
            tag[..4].copy_from_slice(&i.to_be_bytes());
            tree.insert(tag, vec![i as u8; 1000 + i as usize]);
        }
        let data = ShardData::<Toy>::new(tree, 42, None);
        let body = reference_body(&data, &());
        assert!(body.len() >= 4 * SNAPSHOT_CHUNK, "{} B", body.len());

        let dir = std::env::temp_dir().join(format!("sse-engine-{}-stream", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.index");
        write_snapshot(&data, &(), RealVfs.create(&path).unwrap().as_mut()).unwrap();
        let file = std::fs::read(&path).unwrap();
        let mut expected = sealed_header(Toy::MAGIC, sse_storage::crc32::crc32(&body)).to_vec();
        expected.extend_from_slice(&body);
        assert!(
            file == expected,
            "the streamed file differs from the reference"
        );

        let loaded = load_snapshot::<Toy>(&file, &(), &path).unwrap();
        assert_eq!(loaded.applied_seq, 42);
        assert!(
            loaded.tree.iter().eq(data.tree.iter()),
            "a different tree read back"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_engine_dropped_with_mutations_parked_answers_each_with_an_error() {
        let (engine, dir) = open("dropped");
        let sink = Sink::default();
        park(&engine, b"a", &sink);
        park(&engine, b"b", &sink);
        drop(engine);
        let got = std::mem::take(&mut *sink.lock());
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|r| decode_ack(r).is_err()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh durable `shards`-shard server in a directory of its own.
    fn durable<S: SchemeOps>(
        config: S::Config,
        name: &str,
        shards: usize,
    ) -> (IndexEngine<S>, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "sse-engine-{}-{name}-{}-{shards}",
            std::process::id(),
            S::STEM
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = DurableOptions {
            shards,
            ..DurableOptions::default()
        };
        (
            IndexEngine::open_durable_with(config, &dir, opts).unwrap(),
            dir,
        )
    }

    /// Shard `i`'s journal records, each without its seq stamp and, for a
    /// cross-shard mutation, its batch-slice header.
    fn journaled<S: SchemeOps>(dir: &Path, i: usize) -> Vec<Vec<u8>> {
        let records = wal::Wal::replay(&dir.join(journal_file::<S>(i))).unwrap();
        let strip = |record: &Vec<u8>| match shard::decode_slice(&record[8..]).unwrap() {
            Some(slice) => slice.inner.to_vec(),
            None => record[8..].to_vec(),
        };
        records.iter().map(strip).collect()
    }

    /// A tag that routes to `shard` of 4 (and to shard 0 of 1).
    fn tag_on(shard: u8, n: u8) -> [u8; 32] {
        let mut tag = [n; 32];
        tag[..2].copy_from_slice(&[0, shard]);
        tag
    }

    fn generation(shard: u8, n: u8) -> GenerationEntry {
        GenerationEntry {
            tag: tag_on(shard, n % 4),
            sealed_ids: vec![n; 40 + usize::from(n)],
            commitment: [n; 32],
        }
    }

    fn update(shard: u8, n: u8, width: usize) -> UpdateEntry {
        UpdateEntry {
            tag: tag_on(shard, n % 4),
            delta: vec![n; width],
            f_r: vec![!n; 3 + usize::from(n)],
        }
    }

    /// Serve `send` on `server`, a fresh durable one, and check each
    /// shard's journal against the client's encoder: one record, `encode`
    /// over the entries that route to the shard in arrival order, or none
    /// for a shard no entry routes to, unless `every_shard`.
    fn assert_records_cut<S: SchemeOps, E: Clone>(
        (server, dir): (IndexEngine<S>, PathBuf),
        send: impl FnOnce(&IndexEngine<S>) -> Vec<u8>,
        entries: &[E],
        tag_of: impl Fn(&E) -> [u8; 32],
        encode: impl Fn(&[E]) -> Vec<u8>,
        every_shard: bool,
    ) {
        decode_ack(&send(&server)).unwrap();
        let shards = server.num_shards();
        for i in 0..shards {
            let routed: Vec<E> = entries
                .iter()
                .filter(|e| shard_of(&tag_of(e), shards) == i)
                .cloned()
                .collect();
            let want = match routed.is_empty() && !every_shard {
                true => Vec::new(),
                false => vec![encode(&routed)],
            };
            assert!(
                journaled::<S>(&dir, i) == want,
                "{} shard {i} of {shards}: the record is not the client's encoding",
                S::STEM
            );
        }
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_shards_record_is_the_client_encoding_of_its_entries() {
        let s2 = Scheme2Config::standard;
        for shards in [1, 4] {
            // Scheme 2: one request, then an UPDATE_MANY whose parts mix
            // documents with appends and name tags again.
            let single = [generation(0, 1), generation(3, 2), generation(0, 5)];
            assert_records_cut(
                durable(s2(), "cut-one", shards),
                |s: &Scheme2Server| s.handle_shared(&s2p::encode_append_generations(&single)),
                &single,
                |e| e.tag,
                s2p::encode_append_generations,
                false,
            );
            let parts = [
                &[generation(1, 1), generation(0, 2)][..],
                &[generation(0, 6), generation(3, 7), generation(1, 5)],
                &[generation(1, 9)],
            ];
            let docs = s2p::encode_put_docs(&[(7, vec![7; 9])]);
            let [a, b, c] = parts.map(s2p::encode_append_generations);
            assert_records_cut(
                durable(s2(), "cut-many", shards),
                |s: &Scheme2Server| s.apply_batch(&[&a, &docs, &b, &c]),
                &parts.concat(),
                |e| e.tag,
                s2p::encode_append_generations,
                false,
            );

            // Scheme 1: the same two shapes, then a ReplaceIndex, whose
            // header every record repeats and which clears shard 2 of 4
            // with no entries.
            let single = [update(0, 1, 8), update(3, 2, 8), update(0, 5, 8)];
            assert_records_cut(
                durable(64, "cut-one", shards),
                |s: &Scheme1Server| s.handle_shared(&s1p::encode_apply_updates(&single)),
                &single,
                |e| e.tag,
                s1p::encode_apply_updates,
                false,
            );
            let parts = [
                &[update(1, 1, 8), update(0, 2, 8)][..],
                &[update(0, 6, 8), update(3, 7, 8), update(1, 5, 8)],
                &[update(1, 9, 8)],
            ];
            let docs = s1p::encode_put_docs(&[(7, vec![7; 9])]);
            let [a, b, c] = parts.map(s1p::encode_apply_updates);
            assert_records_cut(
                durable(64, "cut-many", shards),
                |s: &Scheme1Server| s.apply_batch(&[&a, &docs, &b, &c]),
                &parts.concat(),
                |e| e.tag,
                s1p::encode_apply_updates,
                false,
            );
            let replacement = [update(0, 1, 16), update(3, 2, 16), update(1, 3, 16)];
            assert_records_cut(
                durable(64, "cut-replace", shards),
                |s: &Scheme1Server| s.handle_shared(&s1p::encode_replace_index(128, &replacement)),
                &replacement,
                |e| e.tag,
                |routed| s1p::encode_replace_index(128, routed),
                true,
            );
        }
    }

    /// Every shard's tree, `applied_seq` and meta, as a snapshot holds them.
    fn index_image<S: SchemeOps>(server: &IndexEngine<S>) -> Vec<Vec<u8>> {
        let meta = server.meta.read();
        let shards = 0..server.num_shards();
        shards
            .map(|i| reference_body(&server.lock_data(i), &meta))
            .collect()
    }

    /// Serve the `UPDATE_MANY` `parts` on `server`, a fresh durable one,
    /// drop it without a checkpoint and reopen its directory under
    /// `config`: each of the `slices` shard records replays, through the
    /// cross-shard resolver, into the index the server held, so every
    /// search answers as before.
    fn assert_batch_replays<S: SchemeOps>(
        (server, dir): (IndexEngine<S>, PathBuf),
        config: S::Config,
        parts: &[&[u8]],
        slices: u64,
    ) {
        decode_ack(&server.apply_batch(parts)).unwrap();
        let image = index_image(&server);
        drop(server);
        let reopened = IndexEngine::<S>::open_durable(config, &dir).unwrap();
        let recovery = reopened.recovery();
        assert_eq!(
            (recovery.index_ops_replayed, recovery.index_slices_dropped),
            (slices, 0),
            "{}: {recovery:?}",
            S::STEM
        );
        assert!(
            index_image(&reopened) == image,
            "{}: replay rebuilt a different index",
            S::STEM
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_killed_three_shard_update_many_replays_every_slice() {
        // Entries on shards 0, 1 and 3 of 4, as in the cut-many input above.
        let parts = [
            &[generation(1, 1), generation(0, 2)][..],
            &[generation(0, 6), generation(3, 7), generation(1, 5)],
            &[generation(1, 9)],
        ];
        let docs = s2p::encode_put_docs(&[(7, vec![7; 9])]);
        let [a, b, c] = parts.map(s2p::encode_append_generations);
        let s2: (Scheme2Server, _) = durable(Scheme2Config::standard(), "replay-many", 4);
        assert_batch_replays(s2, Scheme2Config::standard(), &[&a, &docs, &b, &c], 3);
        let parts = [
            &[update(1, 1, 8), update(0, 2, 8)][..],
            &[update(0, 6, 8), update(3, 7, 8), update(1, 5, 8)],
            &[update(1, 9, 8)],
        ];
        let docs = s1p::encode_put_docs(&[(7, vec![7; 9])]);
        let [a, b, c] = parts.map(s1p::encode_apply_updates);
        let s1: (Scheme1Server, _) = durable(64, "replay-many", 4);
        assert_batch_replays(s1, 64, &[&a, &docs, &b, &c], 3);
    }

    #[test]
    fn a_rolled_back_batch_is_crash_evidence() {
        let (server, dir) = durable::<Toy>((), "rolled-back", 2);
        drop(server);
        // Shard 0 journaled its slice of a batch over shards 0 and 1; the
        // crash came before shard 1 journaled its own.
        let path = dir.join(journal_file::<Toy>(0));
        let (mut journal, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        let mut slice = Vec::new();
        let batch = BatchId {
            coordinator: 0,
            seq: 1,
        };
        shard::put_slice_header(&mut slice, batch, &[0, 1]);
        slice.push(b'a');
        journal.append(&slice).unwrap();
        drop(journal);

        let reopened = IndexEngine::<Toy>::open_durable((), &dir).unwrap();
        let recovery = reopened.recovery();
        assert_eq!(reopened.unique_keywords(), 0, "the batch rolled back");
        assert_eq!(recovery.index_slices_dropped, 1, "{recovery:?}");
        assert!(recovery.recovered_anything(), "{recovery:?}");
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The length of every file under `dir` (the index journals and the
    /// document store's log among them), in path order.
    fn file_lens(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut lens = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            match std::fs::metadata(&path).unwrap() {
                m if m.is_dir() => lens.extend(file_lens(&path)),
                m => lens.push((path, m.len())),
            }
        }
        lens.sort();
        lens
    }

    /// Every file's length, every shard's `applied_seq`, the tenant's
    /// health and its document count: what a refused update must leave
    /// alone.
    fn footprint<S: SchemeOps>(
        server: &IndexEngine<S>,
        dir: &Path,
    ) -> impl PartialEq + std::fmt::Debug {
        let seqs: Vec<u64> = (0..server.num_shards())
            .map(|i| server.lock_data(i).applied_seq)
            .collect();
        let state = server.health().state();
        (file_lens(dir), seqs, state, server.stored_docs())
    }

    /// The text of an ERR reply.
    fn err_text(reply: &[u8]) -> String {
        let mut r = WireReader::new(reply);
        assert_eq!(r.get_u8().unwrap(), proto_common::resp::ERROR, "not an ERR");
        String::from_utf8(r.get_bytes().unwrap().to_vec()).unwrap()
    }

    /// Every proper prefix of `valid`, `valid` with a trailing byte, and
    /// `valid` with its `u64` count (at `count_at`) forged one too high and
    /// to `u64::MAX`.
    fn malformed(valid: &[u8], count_at: usize) -> Vec<Vec<u8>> {
        let mut bad: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        bad.push([valid, &[0]].concat());
        let count = u64::from_le_bytes(valid[count_at..count_at + 8].try_into().unwrap());
        for forged in [count + 1, u64::MAX] {
            let mut bytes = valid.to_vec();
            bytes[count_at..count_at + 8].copy_from_slice(&forged.to_le_bytes());
            bad.push(bytes);
        }
        bad
    }

    /// Each of [`malformed`]'s inputs, alone and as the last part of an
    /// UPDATE_MANY behind `good` parts, is an ERR worded as `decode` words
    /// it that changes nothing; then `valid` applies.
    fn assert_malformed_change_nothing<S: SchemeOps>(
        (server, dir): (IndexEngine<S>, PathBuf),
        (valid, count_at): (&[u8], usize),
        good: &[&[u8]],
        decode: impl Fn(&[u8]) -> Option<String>,
    ) {
        decode_ack(&server.handle_shared(good[0])).unwrap();
        let before = footprint(&server, &dir);
        for bad in &malformed(valid, count_at) {
            let want = decode(bad).expect("malformed");
            assert_eq!(err_text(&server.handle_shared(bad)), want, "{bad:?}");
            let batch = [good, &[bad]].concat();
            assert_eq!(err_text(&server.apply_batch(&batch)), want, "{bad:?}");
            assert_eq!(footprint(&server, &dir), before, "{bad:?}");
        }
        decode_ack(&server.handle_shared(valid)).unwrap();
        assert_ne!(footprint(&server, &dir), before, "the valid update applies");
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A malformed index update or `PutDocs` (a truncated last blob, a
    /// forged count) stores nothing: blobs and entries are borrowed from
    /// the request, which is checked whole before anything is applied.
    #[test]
    fn a_malformed_update_is_an_err_that_changes_nothing() {
        let append = s2p::encode_append_generations(&[generation(0, 1), generation(3, 2)]);
        let put = s2p::encode_put_docs(&[(4, vec![4; 5]), (5, vec![5; 7])]);
        let docs = s2p::encode_put_docs(&[(3, vec![3; 5])]);
        let good = [
            &docs[..],
            &s2p::encode_append_generations(&[generation(1, 3)]),
        ];
        let decode = |bad: &[u8]| s2p::decode_request(bad).err().map(|e| e.to_string());
        for (name, valid) in [("malformed-append", &append), ("malformed-put-2", &put)] {
            let s2: (Scheme2Server, _) = durable(Scheme2Config::standard(), name, 4);
            assert_malformed_change_nothing(s2, (valid, 1), &good, decode);
        }
        // The reactor's never-wait path declines every one of them, and
        // the worker path then answers ERR.
        let inline = Scheme2Server::new_in_memory_sharded(Scheme2Config::standard(), 4);
        for bad in malformed(&append, 1).iter().chain(&malformed(&put, 1)) {
            assert!(inline.try_handle_inline(bad).is_none(), "{bad:?}");
            err_text(&inline.handle_shared(bad));
        }
        assert_eq!(inline.commit_counters().snapshot_swaps, 0);
        assert_eq!(inline.stored_docs(), 0);

        let apply = s1p::encode_apply_updates(&[update(0, 1, 8), update(3, 2, 8)]);
        let replace = s1p::encode_replace_index(128, &[update(0, 1, 16), update(3, 2, 16)]);
        let put = s1p::encode_put_docs(&[(4, vec![4; 5]), (5, vec![5; 7])]);
        let docs = s1p::encode_put_docs(&[(3, vec![3; 5])]);
        let good = [&docs[..], &s1p::encode_apply_updates(&[update(1, 3, 8)])];
        let decode = |bad: &[u8]| s1p::decode_request(bad).err().map(|e| e.to_string());
        for (name, valid, count_at) in [
            ("malformed-apply", &apply, 1),
            ("malformed-replace", &replace, 9),
            ("malformed-put-1", &put, 1),
        ] {
            let s1: (Scheme1Server, _) = durable(64, name, 4);
            assert_malformed_change_nothing(s1, (valid, count_at), &good, decode);
        }
    }
}
