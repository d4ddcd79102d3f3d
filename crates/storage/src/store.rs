//! The encrypted-document blob store used by the SSE server.
//!
//! Stores opaque blobs (`E_km(M_i)`) keyed by document id, exactly the
//! `(E_km(M_i), i)` tuples of the paper's `DataStorage`. The store never
//! interprets blob contents — that is the whole point of the scheme.
//!
//! Durability: every mutation is appended to a [`crate::wal::Wal`] as a
//! `DocRecord` before being applied to the in-memory heap;
//! [`DocStore::checkpoint`] folds the log into a sealed `SSESNAP1` snapshot,
//! committed by [`crate::durable::commit_by_rename`], and resets the log.
//! [`DocStore::open`] recovers snapshot + log after a crash, reading the
//! log once. The append is never fsynced: a returned mutation survives a
//! process crash, but power loss can take it until the next checkpoint
//! (ROADMAP item 7).

use crate::crc32::Crc32;
use crate::durable::{self, commit_by_rename, sealed_header, unseal, DocRecord};
use crate::error::{Result, StorageError};
use crate::heap::{HeapFile, RecordId};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::Wal;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAPSHOT_MAGIC: &[u8; 8] = b"SSESNAP1";
const SNAPSHOT_FILE: &str = "store.snapshot";

/// Configuration for a [`DocStore`] or an [`crate::LsmDocStore`]. It has
/// no fields: both open their WAL unsynced.
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {}

/// What [`DocStore::open`] had to do to bring the store back: evidence of
/// crash recovery, surfaced up to the serving layer's robustness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file was loaded.
    pub snapshot_loaded: bool,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail truncated on open.
    pub torn_bytes_truncated: u64,
}

enum Backing {
    /// Durable: WAL + snapshot files live in a directory.
    Disk {
        wal: Wal,
        dir: PathBuf,
        vfs: Arc<dyn Vfs>,
    },
    /// Ephemeral: everything in memory (benchmarks, simulators).
    Memory,
}

/// Blob store keyed by document id.
pub struct DocStore {
    heap: HeapFile,
    index: BTreeMap<u64, RecordId>,
    backing: Backing,
    recovery: RecoveryReport,
}

impl DocStore {
    /// Purely in-memory store (no durability).
    #[must_use]
    pub fn in_memory() -> Self {
        DocStore {
            heap: HeapFile::new(),
            index: BTreeMap::new(),
            backing: Backing::Memory,
            recovery: RecoveryReport::default(),
        }
    }

    /// Open (or create) a durable store in `dir` on the real filesystem,
    /// recovering any existing snapshot and WAL.
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged files.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Self> {
        Self::open_with_vfs(RealVfs::arc(), dir, opts)
    }

    /// [`DocStore::open`] over an explicit [`Vfs`] (fault injection runs
    /// the whole store through a [`crate::vfs::FaultVfs`]).
    ///
    /// # Errors
    /// I/O errors (including injected faults), or [`StorageError::Corrupt`]
    /// for damaged files.
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, _opts: StoreOptions) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let mut store = DocStore {
            heap: HeapFile::new(),
            index: BTreeMap::new(),
            backing: Backing::Memory, // placeholder while recovering
            recovery: RecoveryReport::default(),
        };
        // 1. Load the snapshot, if any.
        let snap_path = dir.join(SNAPSHOT_FILE);
        if let Some(bytes) = durable::read_if_exists(vfs.as_ref(), &snap_path)? {
            store.load_snapshot(&bytes, &snap_path)?;
            store.recovery.snapshot_loaded = true;
        }
        // 2. Open the WAL (truncating any torn tail) and replay it on top.
        let (wal, replay) = Wal::open_with_vfs(vfs.clone(), &dir.join("store.wal"), false)?;
        for record in replay.records() {
            match DocRecord::decode(record)? {
                DocRecord::Put(id, blob) => store.apply_put(id, blob)?,
                // Deleting a missing id during replay is fine (idempotence).
                DocRecord::Delete(id) => {
                    let _ = store.apply_delete(id);
                }
            }
            store.recovery.wal_records_replayed += 1;
        }
        store.recovery.torn_bytes_truncated = wal.torn_bytes_truncated();
        store.backing = Backing::Disk {
            wal,
            dir: dir.to_path_buf(),
            vfs,
        };
        Ok(store)
    }

    /// What recovery work the open performed (all-zero for in-memory
    /// stores and clean opens).
    #[must_use]
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Number of stored documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True iff the store holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total heap footprint in bytes (diagnostic).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.heap.byte_size()
    }

    /// Store (or replace) the blob for `id`.
    ///
    /// # Errors
    /// I/O errors when durable.
    pub fn put(&mut self, id: u64, blob: &[u8]) -> Result<()> {
        if let Backing::Disk { wal, .. } = &mut self.backing {
            DocRecord::Put(id, blob).append_to(wal)?;
        }
        self.apply_put(id, blob)
    }

    /// Fetch the blob for `id`.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] when absent.
    pub fn get(&self, id: u64) -> Result<Vec<u8>> {
        let rid = self.index.get(&id).ok_or(StorageError::RecordNotFound)?;
        self.heap.get(*rid)
    }

    /// True iff a blob exists for `id`.
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    /// Remove the blob for `id`.
    ///
    /// # Errors
    /// [`StorageError::RecordNotFound`] when absent; I/O errors when durable.
    pub fn delete(&mut self, id: u64) -> Result<()> {
        if !self.index.contains_key(&id) {
            return Err(StorageError::RecordNotFound);
        }
        if let Backing::Disk { wal, .. } = &mut self.backing {
            DocRecord::Delete(id).append_to(wal)?;
        }
        self.apply_delete(id)
    }

    /// Iterate stored ids in increasing order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().copied()
    }

    /// Fetch many blobs (the "send back `{E(M_i) | i in I(w)}`" step of the
    /// paper's `Search`). Missing ids are skipped — the index may lag behind
    /// deletions, which is exactly the paper's honest-but-curious model.
    #[must_use]
    pub fn get_many(&self, ids: &[u64]) -> Vec<(u64, Vec<u8>)> {
        ids.iter()
            .filter_map(|&id| self.get(id).ok().map(|blob| (id, blob)))
            .collect()
    }

    /// [`Self::get_many`] for a caller that must not run long: `None` as
    /// soon as the blobs total more than `max_bytes`. Each length is read
    /// from the heap's record header before the blob is, so a `None` has
    /// copied less than `max_bytes`, however large the blob that tipped
    /// it.
    #[must_use]
    pub fn get_many_within(&self, ids: &[u64], max_bytes: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        let mut total = 0usize;
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let Some(&rid) = self.index.get(&id) else {
                continue;
            };
            total += self.heap.record_len(rid).ok()?;
            if total > max_bytes {
                return None;
            }
            if let Ok(blob) = self.heap.get(rid) {
                out.push((id, blob));
            }
        }
        Some(out)
    }

    fn apply_put(&mut self, id: u64, blob: &[u8]) -> Result<()> {
        if let Some(old) = self.index.remove(&id) {
            let _ = self.heap.delete(old);
        }
        let rid = self.heap.insert(blob)?;
        self.index.insert(id, rid);
        Ok(())
    }

    fn apply_delete(&mut self, id: u64) -> Result<()> {
        let rid = self.index.remove(&id).ok_or(StorageError::RecordNotFound)?;
        self.heap.delete(rid)
    }

    /// Fold the WAL into a fresh snapshot and reset the log. No-op for
    /// in-memory stores.
    ///
    /// # Errors
    /// I/O errors from the filesystem.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Backing::Disk { dir, vfs, .. } = &self.backing else {
            return Ok(());
        };
        let dir = dir.clone();
        let vfs = vfs.clone();
        // Compact first so the snapshot does not persist tombstones.
        self.heap.compact_all();

        // Snapshot body: index entries, heap length, then the heap pages.
        // The heap is streamed page-by-page (never materialized twice), so
        // the CRC is computed incrementally over the same byte sequence.
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        for (id, rid) in &self.index {
            meta.extend_from_slice(&id.to_le_bytes());
            meta.extend_from_slice(&rid.page.to_le_bytes());
            meta.extend_from_slice(&rid.slot.to_le_bytes());
        }
        meta.extend_from_slice(&(self.heap.byte_size() as u64).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&meta);
        for page in self.heap.page_images() {
            crc.update(page);
        }

        // The commit fsyncs the directory entry: without that the rename
        // itself can be lost on crash, resurrecting the old snapshot
        // *after* the WAL below has been reset — silent data loss.
        let header = sealed_header(SNAPSHOT_MAGIC, crc.finalize());
        commit_by_rename(vfs.as_ref(), &dir, &[SNAPSHOT_FILE], |_, f| {
            f.write_all(&header)?;
            f.write_all(&meta)?;
            Ok(self.heap.write_to(f)?)
        })?;

        if let Backing::Disk { wal, .. } = &mut self.backing {
            wal.reset()?;
        }
        Ok(())
    }

    /// Scrub check of the snapshot's framing: 1 when it exists and its
    /// CRC holds, 0 for an in-memory store or before the first checkpoint.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on a damaged snapshot; I/O errors.
    pub fn verify(&self) -> Result<u64> {
        let Backing::Disk { dir, vfs, .. } = &self.backing else {
            return Ok(0);
        };
        let path = dir.join(SNAPSHOT_FILE);
        let verified = durable::verify_sealed(vfs.as_ref(), &path, SNAPSHOT_MAGIC)?;
        Ok(u64::from(verified))
    }

    fn load_snapshot(&mut self, bytes: &[u8], path: &Path) -> Result<()> {
        let body = unseal(bytes, SNAPSHOT_MAGIC, path)?;
        let mut pos = 0usize;
        let read_u64 = |b: &[u8], p: &mut usize| -> Result<u64> {
            if *p + 8 > b.len() {
                return Err(StorageError::Corrupt {
                    what: "snapshot",
                    detail: "truncated".to_string(),
                });
            }
            let v = u64::from_le_bytes(b[*p..*p + 8].try_into().expect("8 bytes"));
            *p += 8;
            Ok(v)
        };
        let n = read_u64(body, &mut pos)? as usize;
        let mut index = BTreeMap::new();
        for _ in 0..n {
            let id = read_u64(body, &mut pos)?;
            if pos + 6 > body.len() {
                return Err(StorageError::Corrupt {
                    what: "snapshot index",
                    detail: "truncated entry".to_string(),
                });
            }
            let page = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4 bytes"));
            let slot = u16::from_le_bytes(body[pos + 4..pos + 6].try_into().expect("2 bytes"));
            pos += 6;
            index.insert(id, RecordId { page, slot });
        }
        let heap_len = read_u64(body, &mut pos)?;
        if (pos as u64).checked_add(heap_len) != Some(body.len() as u64) {
            return Err(StorageError::Corrupt {
                what: "snapshot heap",
                detail: format!("declared {heap_len}, available {}", body.len() - pos),
            });
        }
        self.heap = HeapFile::from_bytes(&body[pos..])?;
        self.index = index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sse-store-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn in_memory_crud() {
        let mut s = DocStore::in_memory();
        assert!(s.is_empty());
        s.put(1, b"alpha").unwrap();
        s.put(2, b"beta").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap(), b"alpha");
        s.put(1, b"alpha-v2").unwrap();
        assert_eq!(s.get(1).unwrap(), b"alpha-v2");
        assert_eq!(s.len(), 2);
        s.delete(2).unwrap();
        assert!(matches!(s.get(2), Err(StorageError::RecordNotFound)));
        assert!(matches!(s.delete(2), Err(StorageError::RecordNotFound)));
    }

    #[test]
    fn get_many_skips_missing() {
        let mut s = DocStore::in_memory();
        s.put(1, b"a").unwrap();
        s.put(3, b"c").unwrap();
        let got = s.get_many(&[1, 2, 3]);
        assert_eq!(got, vec![(1, b"a".to_vec()), (3, b"c".to_vec())]);
    }

    #[test]
    fn get_many_within_is_get_many_up_to_the_byte_budget() {
        let mut s = DocStore::in_memory();
        s.put(1, b"four").unwrap();
        s.put(3, &[7u8; 6]).unwrap();
        s.put(4, &vec![9u8; 100_000]).unwrap();
        assert_eq!(
            s.get_many_within(&[1, 2, 3], 10),
            Some(s.get_many(&[1, 2, 3]))
        );
        assert_eq!(s.get_many_within(&[1, 2, 3], 9), None, "4 + 6 > 9");
        assert_eq!(s.get_many_within(&[4], 99_999), None, "one blob over");
        assert_eq!(s.get_many_within(&[2], 0), Some(vec![]), "missing: skipped");
    }

    #[test]
    fn durable_recovery_from_wal_only() {
        let dir = temp_dir("wal-only");
        {
            let mut s = DocStore::open(&dir, StoreOptions::default()).unwrap();
            s.put(10, b"ten").unwrap();
            s.put(20, b"twenty").unwrap();
            s.delete(10).unwrap();
            // No checkpoint: recovery must come entirely from the WAL.
        }
        let s = DocStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(20).unwrap(), b"twenty");
        assert!(!s.contains(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_recovery_from_snapshot_plus_wal() {
        let dir = temp_dir("snap-wal");
        {
            let mut s = DocStore::open(&dir, StoreOptions::default()).unwrap();
            for i in 0..50u64 {
                s.put(i, format!("doc-{i}").as_bytes()).unwrap();
            }
            s.checkpoint().unwrap();
            // Post-checkpoint mutations land in the fresh WAL.
            s.put(100, b"after checkpoint").unwrap();
            s.delete(0).unwrap();
        }
        let s = DocStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.len(), 50); // 50 - 1 deleted + 1 added
        assert_eq!(s.get(100).unwrap(), b"after checkpoint");
        assert_eq!(s.get(49).unwrap(), b"doc-49");
        assert!(!s.contains(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_resets_wal() {
        let dir = temp_dir("ckpt");
        let mut s = DocStore::open(&dir, StoreOptions::default()).unwrap();
        s.put(1, &vec![7u8; 10_000]).unwrap();
        let wal_size_before = std::fs::metadata(dir.join("store.wal")).unwrap().len();
        assert!(wal_size_before > 10_000);
        s.checkpoint().unwrap();
        let wal_size_after = std::fs::metadata(dir.join("store.wal")).unwrap().len();
        assert_eq!(wal_size_after, 0);
        assert_eq!(s.get(1).unwrap(), vec![7u8; 10_000]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let dir = temp_dir("corrupt-snap");
        {
            let mut s = DocStore::open(&dir, StoreOptions::default()).unwrap();
            s.put(1, b"data").unwrap();
            s.checkpoint().unwrap();
        }
        // Flip a byte in the snapshot body.
        let snap = dir.join("store.snapshot");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            DocStore::open(&dir, StoreOptions::default()),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn large_blobs_survive_recovery() {
        let dir = temp_dir("large");
        let big: Vec<u8> = (0..60_000u32).map(|i| (i % 250) as u8).collect();
        {
            let mut s = DocStore::open(&dir, StoreOptions::default()).unwrap();
            s.put(7, &big).unwrap();
            s.checkpoint().unwrap();
        }
        let s = DocStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.get(7).unwrap(), big);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_iterate_sorted() {
        let mut s = DocStore::in_memory();
        for id in [5u64, 1, 9, 3] {
            s.put(id, b"x").unwrap();
        }
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn overwrite_reclaims_old_record() {
        let mut s = DocStore::in_memory();
        s.put(1, &vec![1u8; 4000]).unwrap();
        for _ in 0..100 {
            s.put(1, &vec![2u8; 4000]).unwrap();
        }
        // Tombstoned space should keep the heap from exploding: 100 puts of
        // 4 KB with reuse-after-compaction disabled still bounds pages by
        // inserts, but the index must stay size 1.
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).unwrap(), vec![2u8; 4000]);
    }
}
