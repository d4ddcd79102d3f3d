//! The pluggable storage-backend ADT.
//!
//! The paper's server is two abstract stores — a keyword index mapping PRF
//! tags to opaque per-keyword state, and the `(E_km(M_i), i)` DataStorage.
//! The second is the [`DocBlobStore`] trait — blob get/put/delete with
//! per-mutation durability, checkpointing and a [`RecoveryReport`] —
//! implemented by two genuinely different engines: the historical
//! B+-tree/heap/WAL engine ([`crate::store::DocStore`], the `btree`
//! backend) and the log-structured engine in [`crate::lsm`] (`lsm`), tuned
//! for update-heavy workloads. The keyword index persists per backend
//! without a trait between them: `btree` rewrites the index engine's own
//! snapshot file, `lsm` flushes changed tags into a
//! [`crate::lsm::LsmKeywordMap`].
//!
//! Every durable directory carries a tiny backend manifest
//! (`backend.meta`). A directory written by one backend refuses to open
//! under the other with [`StorageError::BackendMismatch`] — a clean error
//! instead of silent misreading.

use crate::durable::{read_stamp, write_stamp};
use crate::error::{Result, StorageError};
use crate::store::{DocStore, RecoveryReport};
use crate::vfs::Vfs;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// A 32-byte PRF tag: the key type of every keyword index in this repo.
pub type Tag = [u8; 32];

// ---------------------------------------------------------------------------
// Backend kind + manifest
// ---------------------------------------------------------------------------

/// Which storage engine a durable directory uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The historical engine: B+-tree index snapshots, slotted-page heap,
    /// WAL. Full index rewrite per checkpoint; compact on disk.
    #[default]
    Btree,
    /// Log-structured engine: append-only sorted runs, bloom-filtered
    /// point reads, tag-range compaction. Checkpoints write only what
    /// changed — tuned for update-heavy (GP) workloads.
    Lsm,
}

impl BackendKind {
    /// Stable lowercase name (CLI flag value, manifest, STATS).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Btree => "btree",
            BackendKind::Lsm => "lsm",
        }
    }

    /// All known kinds, for CLI help and test matrices.
    #[must_use]
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Btree, BackendKind::Lsm]
    }

    fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(BackendKind::Btree),
            1 => Some(BackendKind::Lsm),
            _ => None,
        }
    }

    fn code(self) -> u32 {
        match self {
            BackendKind::Btree => 0,
            BackendKind::Lsm => 1,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "btree" => Ok(BackendKind::Btree),
            "lsm" => Ok(BackendKind::Lsm),
            other => Err(format!("unknown backend `{other}` (expected btree|lsm)")),
        }
    }
}

/// File name of the per-directory backend manifest.
pub const BACKEND_MANIFEST_FILE: &str = "backend.meta";

const BACKEND_MAGIC: &[u8; 8] = b"SSEBKND1";

/// Read the backend manifest of `dir`, if present.
///
/// # Errors
/// I/O errors, or [`StorageError::Corrupt`] for a damaged manifest.
pub fn read_backend_manifest(vfs: &dyn Vfs, dir: &Path) -> Result<Option<BackendKind>> {
    let code = read_stamp(vfs, &dir.join(BACKEND_MANIFEST_FILE), BACKEND_MAGIC)?;
    code.map(|code| {
        BackendKind::from_code(code).ok_or(StorageError::Corrupt {
            what: "backend manifest",
            detail: format!("unknown backend code {code}"),
        })
    })
    .transpose()
}

/// Resolve which backend governs `dir` when the caller requests
/// `requested`:
///
/// * manifest present — it wins; a different `requested` is a
///   [`StorageError::BackendMismatch`];
/// * no manifest but one of `legacy_markers` exists — the directory
///   predates backend manifests and is `btree`; a manifest is written so
///   the next open is self-describing (non-btree requests mismatch);
/// * fresh directory — `requested` is recorded and returned.
///
/// # Errors
/// [`StorageError::BackendMismatch`] as above, I/O errors, or
/// [`StorageError::Corrupt`] for a damaged manifest.
pub fn resolve_backend(
    vfs: &dyn Vfs,
    dir: &Path,
    requested: BackendKind,
    legacy_markers: &[&str],
) -> Result<BackendKind> {
    vfs.create_dir_all(dir)?;
    let manifest = read_backend_manifest(vfs, dir)?;
    let legacy = || legacy_markers.iter().any(|m| vfs.exists(&dir.join(m)));
    let kind = manifest
        .or_else(|| legacy().then_some(BackendKind::Btree))
        .unwrap_or(requested);
    if kind != requested {
        return Err(StorageError::BackendMismatch {
            on_disk: kind.as_str(),
            requested: requested.as_str(),
        });
    }
    // Record a fresh directory's kind; self-describe a legacy one.
    if manifest.is_none() {
        write_stamp(vfs, dir, BACKEND_MANIFEST_FILE, BACKEND_MAGIC, kind.code())?;
    }
    Ok(kind)
}

// ---------------------------------------------------------------------------
// Per-backend counters
// ---------------------------------------------------------------------------

/// Point-in-time backend internals, surfaced through STATS. All zero for
/// engines without runs (the btree backend).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Sorted runs written since open (flushes + compaction outputs).
    pub runs_flushed: u64,
    /// Sorted runs currently referenced by the manifest.
    pub runs_live: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Point reads that had to consult at least one run on disk.
    pub run_reads: u64,
    /// Per-run bloom membership tests performed.
    pub bloom_checks: u64,
    /// Run probes skipped because the bloom filter proved absence.
    pub bloom_skips: u64,
    /// Run probes where the bloom said "maybe" but the key was absent.
    pub bloom_false_positives: u64,
}

impl BackendCounters {
    /// Accumulate another counter set (shards, doc store + keyword maps).
    pub fn merge(&mut self, other: &BackendCounters) {
        self.runs_flushed += other.runs_flushed;
        self.runs_live += other.runs_live;
        self.compactions += other.compactions;
        self.run_reads += other.run_reads;
        self.bloom_checks += other.bloom_checks;
        self.bloom_skips += other.bloom_skips;
        self.bloom_false_positives += other.bloom_false_positives;
    }
}

// ---------------------------------------------------------------------------
// DocBlobStore
// ---------------------------------------------------------------------------

/// The paper's DataStorage: opaque encrypted blobs keyed by document id.
///
/// Durability contract: every successful mutation is write-ahead logged
/// before it returns, so it survives a *process* crash from then on.
/// Against power loss it is durable only once fsynced, at the next
/// [`DocBlobStore::checkpoint`]: both stores open their WAL unsynced, so
/// a served document is power-loss durable only after the next
/// checkpoint (ROADMAP item 7).
pub trait DocBlobStore: Send + Sync {
    /// Store (or replace) the blob for `id`.
    ///
    /// # Errors
    /// I/O errors when durable.
    fn put(&mut self, id: u64, blob: &[u8]) -> Result<()>;

    /// Fetch the blob for `id`.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] when absent.
    fn get(&self, id: u64) -> Result<Vec<u8>>;

    /// Remove the blob for `id`.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] when absent; I/O errors.
    fn delete(&mut self, id: u64) -> Result<()>;

    /// True iff a blob exists for `id`.
    fn contains(&self, id: u64) -> bool;

    /// Fetch many blobs; missing ids are skipped (the index may lag
    /// deletions — the paper's honest-but-curious model).
    fn get_many(&self, ids: &[u64]) -> Vec<(u64, Vec<u8>)>;

    /// [`Self::get_many`] for a caller that can neither wait on a file nor
    /// run long: `None`, having copied less than `max_bytes`, unless every
    /// blob is resident in memory and together they fit `max_bytes`. An
    /// engine whose blob reads may go to a file (lsm) keeps this default.
    fn get_many_resident(&self, _ids: &[u64], _max_bytes: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        None
    }

    /// All stored ids in increasing order.
    fn doc_ids(&self) -> Vec<u64>;

    /// Number of stored documents.
    fn len(&self) -> usize;

    /// True iff the store holds no documents.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk (or in-memory) footprint in bytes, diagnostic.
    fn storage_bytes(&self) -> usize;

    /// Fold the log into the engine's compact durable form.
    ///
    /// # Errors
    /// I/O errors.
    fn checkpoint(&mut self) -> Result<()>;

    /// What recovery work the open performed.
    fn recovery_report(&self) -> RecoveryReport;

    /// Engine internals for STATS (zero for run-less engines).
    fn counters(&self) -> BackendCounters {
        BackendCounters::default()
    }

    /// Integrity scrub: re-verify whatever on-disk checksums the engine
    /// maintains besides its WAL (which the caller verifies), returning
    /// the number of artifacts verified: the heap store's snapshot, the
    /// lsm store's manifest and runs. Engines without checksummed
    /// artifacts keep this default.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on a confirmed mismatch; I/O errors.
    fn verify(&self) -> Result<u64> {
        Ok(0)
    }
}

impl DocBlobStore for DocStore {
    fn put(&mut self, id: u64, blob: &[u8]) -> Result<()> {
        DocStore::put(self, id, blob)
    }

    fn get(&self, id: u64) -> Result<Vec<u8>> {
        DocStore::get(self, id)
    }

    fn delete(&mut self, id: u64) -> Result<()> {
        DocStore::delete(self, id)
    }

    fn contains(&self, id: u64) -> bool {
        DocStore::contains(self, id)
    }

    fn get_many(&self, ids: &[u64]) -> Vec<(u64, Vec<u8>)> {
        DocStore::get_many(self, ids)
    }

    fn get_many_resident(&self, ids: &[u64], max_bytes: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        // The heap is in memory whether or not the store is durable.
        self.get_many_within(ids, max_bytes)
    }

    fn doc_ids(&self) -> Vec<u64> {
        self.ids().collect()
    }

    fn len(&self) -> usize {
        DocStore::len(self)
    }

    fn storage_bytes(&self) -> usize {
        self.heap_bytes()
    }

    fn checkpoint(&mut self) -> Result<()> {
        DocStore::checkpoint(self)
    }

    fn recovery_report(&self) -> RecoveryReport {
        DocStore::recovery_report(self)
    }

    fn verify(&self) -> Result<u64> {
        DocStore::verify(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sse-backend-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!("btree".parse::<BackendKind>().unwrap(), BackendKind::Btree);
        assert_eq!("lsm".parse::<BackendKind>().unwrap(), BackendKind::Lsm);
        assert!("mmap".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Lsm.to_string(), "lsm");
    }

    #[test]
    fn fresh_dir_records_requested_backend() {
        let dir = temp_dir("fresh");
        let vfs = RealVfs;
        let got = resolve_backend(&vfs, &dir, BackendKind::Lsm, &["store.wal"]).unwrap();
        assert_eq!(got, BackendKind::Lsm);
        // Recorded: a second open under the other kind must refuse.
        let err = resolve_backend(&vfs, &dir, BackendKind::Btree, &["store.wal"]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::BackendMismatch {
                on_disk: "lsm",
                requested: "btree"
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("lsm") && msg.contains("btree"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_dir_without_manifest_is_btree() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.wal"), b"").unwrap();
        let vfs = RealVfs;
        let err = resolve_backend(&vfs, &dir, BackendKind::Lsm, &["store.wal"]).unwrap_err();
        assert!(matches!(err, StorageError::BackendMismatch { .. }));
        let got = resolve_backend(&vfs, &dir, BackendKind::Btree, &["store.wal"]).unwrap();
        assert_eq!(got, BackendKind::Btree);
        // The legacy directory is now self-describing.
        assert_eq!(
            read_backend_manifest(&vfs, &dir).unwrap(),
            Some(BackendKind::Btree)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(BACKEND_MANIFEST_FILE), b"SSEBKND1garbage!").unwrap();
        assert!(matches!(
            read_backend_manifest(&RealVfs, &dir),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
