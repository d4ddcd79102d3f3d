//! The log-structured (`lsm`) storage backend.
//!
//! A deliberately different engine from the B+-tree/heap pair, tuned for
//! the update-heavy GP workload: writes go to an in-memory memtable (made
//! durable by the caller's WAL — the group-commit machinery is the write
//! path), and every flush appends one immutable **sorted run** holding only
//! the keys that changed, instead of rewriting the whole index. Reads check
//! the memtable, then runs newest-first, skipping runs whose key range or
//! per-run Bloom filter ([`sse_index::bloom::BloomFilter`]) proves absence.
//! When the run count passes [`LSM_MAX_RUNS`], a full tag-range merge
//! compacts every run into one, dropping tombstones (only the bottom-most
//! run may drop them — the compaction invariant).
//!
//! Crash safety: a run file is written with a single `write_all` + fsync
//! and is *referenced only by the manifest*, a sealed file committed by
//! [`crate::durable::commit_by_rename`] (temp file + rename + parent-dir
//! fsync). A crash at any point leaves either the old manifest (new run is
//! unreferenced garbage, overwritten on generation reuse) or the new one —
//! never a half-state. File formats are documented in DESIGN.md §4g.

use crate::crc32::crc32;
use crate::durable::{self, commit_by_rename, unseal, DocRecord};
use crate::error::{Result, StorageError};
use crate::store::{RecoveryReport, StoreOptions};
use crate::vfs::Vfs;
use crate::wal::Wal;
use sse_index::bloom::BloomFilter;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const RUN_MAGIC: &[u8; 8] = b"SSERUN1\0";
const MANIFEST_MAGIC: &[u8; 8] = b"SSELSMM1";
/// Value-length sentinel marking a tombstone entry in a run index.
const TOMBSTONE: u32 = u32::MAX;
/// Bloom false-positive design rate per run.
const BLOOM_RATE: f64 = 0.01;

/// Compact when a flush leaves more than this many live runs.
pub const LSM_MAX_RUNS: usize = 6;

/// Read-path counters, atomics so `get` can count through `&self`.
#[derive(Default)]
struct CounterCells {
    runs_flushed: AtomicU64,
    compactions: AtomicU64,
    run_reads: AtomicU64,
    bloom_checks: AtomicU64,
    bloom_skips: AtomicU64,
    bloom_false_positives: AtomicU64,
}

/// One entry of a run's key index.
struct RunEntry {
    key: Vec<u8>,
    /// Absolute file offset of the value bytes (0 for tombstones).
    voff: u64,
    /// Value length, or [`TOMBSTONE`].
    vlen: u32,
    /// CRC-32 of the value bytes (0 for tombstones).
    vcrc: u32,
}

impl RunEntry {
    fn is_tombstone(&self) -> bool {
        self.vlen == TOMBSTONE
    }
}

/// In-memory metadata of one immutable sorted run file.
struct RunMeta {
    gen: u64,
    path: PathBuf,
    file_bytes: u64,
    bloom: BloomFilter,
    /// Key-sorted index (the file stores it in this order).
    index: Vec<RunEntry>,
}

impl RunMeta {
    /// Whether `key` can possibly live in this run's key range.
    fn covers(&self, key: &[u8]) -> bool {
        match (self.index.first(), self.index.last()) {
            (Some(lo), Some(hi)) => key >= lo.key.as_slice() && key <= hi.key.as_slice(),
            _ => false,
        }
    }

    fn find(&self, key: &[u8]) -> Option<&RunEntry> {
        self.index
            .binary_search_by(|e| e.key.as_slice().cmp(key))
            .ok()
            .map(|i| &self.index[i])
    }
}

/// The generic log-structured core: a memtable over immutable sorted runs,
/// keyed by arbitrary byte strings. [`LsmDocStore`] and [`LsmKeywordMap`]
/// are thin typed wrappers.
pub struct LsmCore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    prefix: String,
    /// `None` value = tombstone.
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Oldest first.
    runs: Vec<RunMeta>,
    next_gen: u64,
    last_seq: u64,
    user_meta: Vec<u8>,
    /// Set by [`LsmCore::clear`]: the next flush starts from zero runs.
    drop_runs: bool,
    manifest_loaded: bool,
    counters: CounterCells,
}

impl LsmCore {
    /// Open (or create) the run set `dir/<prefix>*` from its manifest.
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged files.
    pub fn open(vfs: Arc<dyn Vfs>, dir: &Path, prefix: &str) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let mut core = LsmCore {
            vfs,
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            memtable: BTreeMap::new(),
            runs: Vec::new(),
            next_gen: 1,
            last_seq: 0,
            user_meta: Vec::new(),
            drop_runs: false,
            manifest_loaded: false,
            counters: CounterCells::default(),
        };
        let manifest = core.manifest_path();
        if let Some(bytes) = durable::read_if_exists(core.vfs.as_ref(), &manifest)? {
            let gens = core.load_manifest(unseal(&bytes, MANIFEST_MAGIC, &manifest)?)?;
            for gen in gens {
                let meta = core.load_run(gen)?;
                core.runs.push(meta);
            }
            core.manifest_loaded = true;
        }
        Ok(core)
    }

    fn manifest_name(&self) -> String {
        format!("{}.manifest", self.prefix)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(self.manifest_name())
    }

    fn run_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("{}-{gen:08}.run", self.prefix))
    }

    /// Whether open found an existing manifest (recovery reporting).
    #[must_use]
    pub fn recovered_manifest(&self) -> bool {
        self.manifest_loaded
    }

    /// The `applied_seq` recorded by the last flush.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The caller meta blob recorded by the last flush.
    #[must_use]
    pub fn user_meta(&self) -> &[u8] {
        &self.user_meta
    }

    /// Number of live runs.
    #[must_use]
    pub fn runs_live(&self) -> usize {
        self.runs.len()
    }

    /// Buffer an insert/replace.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.memtable.insert(key, Some(value));
    }

    /// Buffer a delete (tombstone).
    pub fn delete(&mut self, key: Vec<u8>) {
        self.memtable.insert(key, None);
    }

    /// Drop everything: memtable now, runs at the next flush.
    pub fn clear(&mut self) {
        self.memtable.clear();
        self.drop_runs = true;
    }

    /// Point lookup: memtable, then runs newest-first with range + bloom
    /// gating.
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged values.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(v) = self.memtable.get(key) {
            return Ok(v.clone());
        }
        if self.drop_runs || self.runs.is_empty() {
            return Ok(None);
        }
        self.counters.run_reads.fetch_add(1, Ordering::Relaxed);
        for run in self.runs.iter().rev() {
            if !run.covers(key) {
                continue;
            }
            self.counters.bloom_checks.fetch_add(1, Ordering::Relaxed);
            if !run.bloom.contains(key) {
                self.counters.bloom_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match run.find(key) {
                Some(e) if e.is_tombstone() => return Ok(None),
                Some(e) => return self.read_value(run, e).map(Some),
                None => {
                    self.counters
                        .bloom_false_positives
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(None)
    }

    fn read_value(&self, run: &RunMeta, e: &RunEntry) -> Result<Vec<u8>> {
        let bytes = self.vfs.read_range(&run.path, e.voff, e.vlen as usize)?;
        if crc32(&bytes) != e.vcrc {
            return Err(StorageError::Corrupt {
                what: "lsm run value",
                detail: format!("checksum mismatch in {}", run.path.display()),
            });
        }
        Ok(bytes)
    }

    /// Every live `(key, value)` pair, key-sorted; tombstones resolved.
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged runs.
    pub fn iter_all(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut map = if self.drop_runs {
            BTreeMap::new()
        } else {
            self.merge_runs()?
        };
        for (k, v) in &self.memtable {
            match v {
                Some(val) => {
                    map.insert(k.clone(), val.clone());
                }
                None => {
                    map.remove(k);
                }
            }
        }
        Ok(map.into_iter().collect())
    }

    /// The set of live keys (no value reads — run indexes only).
    #[must_use]
    pub fn live_keys(&self) -> BTreeSet<Vec<u8>> {
        let mut keys = BTreeSet::new();
        if !self.drop_runs {
            for run in &self.runs {
                for e in &run.index {
                    if e.is_tombstone() {
                        keys.remove(&e.key);
                    } else {
                        keys.insert(e.key.clone());
                    }
                }
            }
        }
        for (k, v) in &self.memtable {
            if v.is_some() {
                keys.insert(k.clone());
            } else {
                keys.remove(k);
            }
        }
        keys
    }

    /// On-disk + memtable footprint in bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        let runs: u64 = self.runs.iter().map(|r| r.file_bytes).sum();
        let mem: usize = self
            .memtable
            .iter()
            .map(|(k, v)| k.len() + v.as_ref().map_or(0, Vec::len))
            .sum();
        runs as usize + mem
    }

    /// Snapshot of the engine counters.
    #[must_use]
    pub fn counters(&self) -> crate::backend::BackendCounters {
        let c = &self.counters;
        crate::backend::BackendCounters {
            runs_flushed: c.runs_flushed.load(Ordering::Relaxed),
            runs_live: self.runs.len() as u64,
            compactions: c.compactions.load(Ordering::Relaxed),
            run_reads: c.run_reads.load(Ordering::Relaxed),
            bloom_checks: c.bloom_checks.load(Ordering::Relaxed),
            bloom_skips: c.bloom_skips.load(Ordering::Relaxed),
            bloom_false_positives: c.bloom_false_positives.load(Ordering::Relaxed),
        }
    }

    /// Integrity scrub: re-check the manifest's framing, then re-read
    /// every live run file from disk and verify its magic, index checksum,
    /// and **every** value checksum against the manifest's view. Returns
    /// the number of files verified (manifest included). This is the
    /// background-scrub entry point — callers must hold whatever lock
    /// guards this engine, since a concurrent flush/compaction swaps run
    /// files.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on any mismatch (confirmed corruption —
    /// the run was fully written and synced when the manifest committed);
    /// I/O errors from the re-reads.
    pub fn verify_runs(&self) -> Result<u64> {
        let manifest =
            durable::verify_sealed(self.vfs.as_ref(), &self.manifest_path(), MANIFEST_MAGIC)?;
        for run in &self.runs {
            // Reload the header + index exactly as open would...
            let reloaded = self.load_run(run.gen)?;
            // ...then check every value body against its recorded CRC.
            for e in &reloaded.index {
                if e.is_tombstone() {
                    continue;
                }
                let bytes = self.vfs.read_range(&run.path, e.voff, e.vlen as usize)?;
                if crc32(&bytes) != e.vcrc {
                    return Err(StorageError::Corrupt {
                        what: "lsm run",
                        detail: format!("scrub: value checksum mismatch in {}", run.path.display()),
                    });
                }
            }
        }
        Ok(u64::from(manifest) + self.runs.len() as u64)
    }

    /// Durability point: persist the memtable as a new sorted run, commit
    /// the manifest (recording `applied_seq` + `meta`), garbage-collect
    /// dropped runs and compact if the run count passed [`LSM_MAX_RUNS`].
    ///
    /// # Errors
    /// I/O errors.
    pub fn flush(&mut self, applied_seq: u64, meta: &[u8]) -> Result<()> {
        // Stage the new run and commit the manifest BEFORE mutating any
        // in-memory state: callers treat a failed checkpoint as retryable,
        // so after an error every buffered entry must still be served from
        // the memtable and the old runs must stay live.
        let staged = if self.memtable.is_empty() {
            None
        } else {
            let entries = std::mem::take(&mut self.memtable);
            match self.write_run(&entries) {
                Ok(run) => Some((entries, run)),
                Err(e) => {
                    self.memtable = entries;
                    return Err(e);
                }
            }
        };
        let mut gens: Vec<u64> = if self.drop_runs {
            Vec::new()
        } else {
            self.runs.iter().map(|r| r.gen).collect()
        };
        if let Some((_, run)) = &staged {
            gens.push(run.gen);
        }
        if let Err(e) = self.write_manifest(&gens, applied_seq, meta) {
            // Un-stage: the run file is unreferenced garbage (overwritten
            // on generation reuse if the unlink also fails) and the
            // entries go back into the memtable, so nothing acked is lost.
            if let Some((entries, run)) = staged {
                let _ = self.vfs.remove_file(&run.path);
                self.memtable = entries;
            }
            return Err(e);
        }
        // Manifest committed — apply the new state in memory.
        let dropped: Vec<RunMeta> = if self.drop_runs {
            std::mem::take(&mut self.runs)
        } else {
            Vec::new()
        };
        if let Some((_, run)) = staged {
            self.runs.push(run);
            self.counters.runs_flushed.fetch_add(1, Ordering::Relaxed);
        }
        self.last_seq = applied_seq;
        self.user_meta = meta.to_vec();
        self.drop_runs = false;
        for run in dropped {
            // Post-commit GC: a crash here leaves unreferenced files that
            // are overwritten when their generation is reused.
            let _ = self.vfs.remove_file(&run.path);
        }
        if self.runs.len() > LSM_MAX_RUNS {
            self.compact()?;
        }
        Ok(())
    }

    /// Full tag-range merge: every run folds into one, tombstones dropped
    /// (safe because the output is the bottom-most run).
    fn compact(&mut self) -> Result<()> {
        let merged = self.merge_runs()?;
        // Same staging discipline as [`LsmCore::flush`]: the old run list
        // is swapped out only after the merged run and the manifest that
        // references it have both committed, so a failed compaction leaves
        // every pre-compaction run live, on disk and in memory.
        let new_run = if merged.is_empty() {
            None
        } else {
            let entries: BTreeMap<Vec<u8>, Option<Vec<u8>>> =
                merged.into_iter().map(|(k, v)| (k, Some(v))).collect();
            Some(self.write_run(&entries)?)
        };
        let gens: Vec<u64> = new_run.iter().map(|r| r.gen).collect();
        if let Err(e) = self.write_manifest(&gens, self.last_seq, &self.user_meta) {
            if let Some(run) = new_run {
                let _ = self.vfs.remove_file(&run.path);
            }
            return Err(e);
        }
        let old: Vec<RunMeta> = std::mem::take(&mut self.runs);
        if let Some(run) = new_run {
            self.runs.push(run);
            self.counters.runs_flushed.fetch_add(1, Ordering::Relaxed);
        }
        for run in old {
            let _ = self.vfs.remove_file(&run.path);
        }
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Merged view of the runs only (no memtable), oldest to newest.
    fn merge_runs(&self) -> Result<BTreeMap<Vec<u8>, Vec<u8>>> {
        let mut map = BTreeMap::new();
        for run in &self.runs {
            let bytes = self.vfs.read(&run.path)?;
            for e in &run.index {
                if e.is_tombstone() {
                    map.remove(&e.key);
                    continue;
                }
                let start = e.voff as usize;
                let end = start + e.vlen as usize;
                if end > bytes.len() {
                    return Err(StorageError::Corrupt {
                        what: "lsm run",
                        detail: format!("value past end of {}", run.path.display()),
                    });
                }
                let value = &bytes[start..end];
                if crc32(value) != e.vcrc {
                    return Err(StorageError::Corrupt {
                        what: "lsm run value",
                        detail: format!("checksum mismatch in {}", run.path.display()),
                    });
                }
                map.insert(e.key.clone(), value.to_vec());
            }
        }
        Ok(map)
    }

    /// Serialize `entries` as run file generation `next_gen` (one
    /// `write_all` + fsync; unreferenced until the manifest commits).
    fn write_run(&mut self, entries: &BTreeMap<Vec<u8>, Option<Vec<u8>>>) -> Result<RunMeta> {
        let gen = self.next_gen;
        self.next_gen += 1;
        let mut bloom = BloomFilter::with_rate(entries.len(), BLOOM_RATE);
        for key in entries.keys() {
            bloom.insert(key);
        }
        // Index size is deterministic, so value offsets can be computed
        // before serialization.
        let bloom_bits = bloom.bit_bytes();
        let index_len: usize = 4  // entry count
            + 4 + 4 + 4 + bloom_bits.len() // bloom: m_bits, k, bits_len, bits
            + entries
                .keys()
                .map(|k| 2 + k.len() + 4 + 8 + 4)
                .sum::<usize>();
        let values_base = 16 + index_len as u64;

        let mut index = Vec::with_capacity(index_len);
        index.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        index.extend_from_slice(&(bloom.m_bits() as u32).to_le_bytes());
        index.extend_from_slice(&bloom.k_hashes().to_le_bytes());
        index.extend_from_slice(&(bloom_bits.len() as u32).to_le_bytes());
        index.extend_from_slice(bloom_bits);

        let mut meta_entries = Vec::with_capacity(entries.len());
        let mut values = Vec::new();
        let mut voff = values_base;
        for (key, value) in entries {
            let len = u16::try_from(key.len()).map_err(|_| StorageError::RecordTooLarge {
                size: key.len(),
                max: usize::from(u16::MAX),
            })?;
            index.extend_from_slice(&len.to_le_bytes());
            index.extend_from_slice(key);
            let (vlen, this_off, vcrc) = match value {
                Some(v) => {
                    if v.len() as u64 >= u64::from(TOMBSTONE) {
                        return Err(StorageError::RecordTooLarge {
                            size: v.len(),
                            max: (TOMBSTONE - 1) as usize,
                        });
                    }
                    let off = voff;
                    voff += v.len() as u64;
                    values.extend_from_slice(v);
                    (v.len() as u32, off, crc32(v))
                }
                None => (TOMBSTONE, 0, 0),
            };
            index.extend_from_slice(&vlen.to_le_bytes());
            index.extend_from_slice(&this_off.to_le_bytes());
            index.extend_from_slice(&vcrc.to_le_bytes());
            meta_entries.push(RunEntry {
                key: key.clone(),
                voff: this_off,
                vlen,
                vcrc,
            });
        }
        debug_assert_eq!(index.len(), index_len);

        let mut file = Vec::with_capacity(16 + index.len() + values.len());
        file.extend_from_slice(RUN_MAGIC);
        file.extend_from_slice(&(index.len() as u32).to_le_bytes());
        file.extend_from_slice(&crc32(&index).to_le_bytes());
        file.extend_from_slice(&index);
        file.extend_from_slice(&values);

        let path = self.run_path(gen);
        {
            let mut f = self.vfs.create(&path)?;
            f.write_all(&file)?;
            f.sync_data()?;
        }
        Ok(RunMeta {
            gen,
            file_bytes: file.len() as u64,
            path,
            bloom,
            index: meta_entries,
        })
    }

    fn load_run(&self, gen: u64) -> Result<RunMeta> {
        let path = self.run_path(gen);
        let corrupt = |detail: String| StorageError::Corrupt {
            what: "lsm run",
            detail,
        };
        let file_bytes = self
            .vfs
            .file_len(&path)?
            .ok_or_else(|| corrupt(format!("missing run file {}", path.display())))?;
        let header = self.vfs.read_range(&path, 0, 16)?;
        if &header[..8] != RUN_MAGIC {
            return Err(corrupt(format!("bad magic in {}", path.display())));
        }
        let index_len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        let index_crc = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let index = self.vfs.read_range(&path, 16, index_len)?;
        if crc32(&index) != index_crc {
            return Err(corrupt(format!(
                "index checksum mismatch in {}",
                path.display()
            )));
        }
        let mut pos = 0usize;
        let take = |p: &mut usize, n: usize| -> Result<&[u8]> {
            if *p + n > index.len() {
                return Err(StorageError::Corrupt {
                    what: "lsm run",
                    detail: "truncated index".to_string(),
                });
            }
            let s = &index[*p..*p + n];
            *p += n;
            Ok(s)
        };
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let m_bits = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let k = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let bits_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let bits = take(&mut pos, bits_len)?.to_vec();
        let bloom = BloomFilter::from_parts(m_bits, k, bits)
            .ok_or_else(|| corrupt(format!("bad bloom parameters in {}", path.display())))?;
        let mut entries = Vec::with_capacity(count);
        let mut prev: Option<Vec<u8>> = None;
        for _ in 0..count {
            let klen = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
            let key = take(&mut pos, klen)?.to_vec();
            if let Some(p) = &prev {
                if *p >= key {
                    return Err(corrupt(format!("unsorted index in {}", path.display())));
                }
            }
            let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
            let voff = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            let vcrc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
            if vlen != TOMBSTONE && voff + u64::from(vlen) > file_bytes {
                return Err(corrupt(format!("value past end of {}", path.display())));
            }
            prev = Some(key.clone());
            entries.push(RunEntry {
                key,
                voff,
                vlen,
                vcrc,
            });
        }
        if pos != index.len() {
            return Err(corrupt(format!(
                "trailing index bytes in {}",
                path.display()
            )));
        }
        Ok(RunMeta {
            gen,
            path,
            file_bytes,
            bloom,
            index: entries,
        })
    }

    /// Decode an unsealed manifest body.
    fn load_manifest(&mut self, body: &[u8]) -> Result<Vec<u64>> {
        let mut pos = 0usize;
        let take = |p: &mut usize, n: usize| -> Result<&[u8]> {
            if *p + n > body.len() {
                return Err(StorageError::Corrupt {
                    what: "lsm manifest",
                    detail: "truncated".to_string(),
                });
            }
            let s = &body[*p..*p + n];
            *p += n;
            Ok(s)
        };
        self.last_seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        self.next_gen = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let meta_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        self.user_meta = take(&mut pos, meta_len)?.to_vec();
        let run_count =
            u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let mut gens = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            gens.push(u64::from_le_bytes(
                take(&mut pos, 8)?.try_into().expect("8 bytes"),
            ));
        }
        if pos != body.len() {
            return Err(StorageError::Corrupt {
                what: "lsm manifest",
                detail: format!("{} trailing bytes", body.len() - pos),
            });
        }
        Ok(gens)
    }

    /// Commit a manifest referencing exactly `gens` (by rename). Takes the
    /// target state as arguments so callers can stage the commit before
    /// mutating the in-memory run list.
    fn write_manifest(&self, gens: &[u64], last_seq: u64, user_meta: &[u8]) -> Result<()> {
        let mut body = Vec::new();
        body.extend_from_slice(&last_seq.to_le_bytes());
        body.extend_from_slice(&self.next_gen.to_le_bytes());
        body.extend_from_slice(&(user_meta.len() as u32).to_le_bytes());
        body.extend_from_slice(user_meta);
        body.extend_from_slice(&(gens.len() as u32).to_le_bytes());
        for gen in gens {
            body.extend_from_slice(&gen.to_le_bytes());
        }
        commit_by_rename(
            self.vfs.as_ref(),
            &self.dir,
            &[self.manifest_name()],
            |_, f| {
                f.write_all(MANIFEST_MAGIC)?;
                f.write_all(&crc32(&body).to_le_bytes())?;
                Ok(f.write_all(&body)?)
            },
        )
    }
}

// ---------------------------------------------------------------------------
// LsmDocStore
// ---------------------------------------------------------------------------

/// Log-structured [`crate::backend::DocBlobStore`]: per-mutation WAL
/// durability (the `DocRecord`s of [`crate::store::DocStore`]), blobs
/// in sorted runs instead of a heap file. Checkpoints flush only blobs
/// written since the last checkpoint.
pub struct LsmDocStore {
    core: LsmCore,
    wal: Wal,
    /// Live ids, maintained eagerly for O(log n) `contains`/`ids`.
    ids: BTreeSet<u64>,
    recovery: RecoveryReport,
}

impl LsmDocStore {
    /// Open (or create) a durable store in `dir` (files `doc.*`).
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged files.
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, _opts: StoreOptions) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let mut core = LsmCore::open(vfs.clone(), dir, "doc")?;
        let mut recovery = RecoveryReport {
            snapshot_loaded: core.recovered_manifest(),
            ..RecoveryReport::default()
        };
        // Live ids from the runs, then WAL replay on top.
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        for key in core.live_keys() {
            let id: [u8; 8] = key.try_into().map_err(|k: Vec<u8>| StorageError::Corrupt {
                what: "lsm doc store",
                detail: format!("run key of {} bytes is not an 8-byte doc id", k.len()),
            })?;
            ids.insert(u64::from_be_bytes(id));
        }
        let (wal, replay) = Wal::open_with_vfs(vfs, &dir.join("doc.wal"), false)?;
        for record in replay.records() {
            match DocRecord::decode(record)? {
                DocRecord::Put(id, blob) => {
                    core.put(Self::key(id), blob.to_vec());
                    ids.insert(id);
                }
                DocRecord::Delete(id) => {
                    core.delete(Self::key(id));
                    ids.remove(&id);
                }
            }
            recovery.wal_records_replayed += 1;
        }
        recovery.torn_bytes_truncated = wal.torn_bytes_truncated();
        Ok(LsmDocStore {
            core,
            wal,
            ids,
            recovery,
        })
    }

    fn key(id: u64) -> Vec<u8> {
        id.to_be_bytes().to_vec()
    }
}

impl crate::backend::DocBlobStore for LsmDocStore {
    fn put(&mut self, id: u64, blob: &[u8]) -> Result<()> {
        DocRecord::Put(id, blob).append_to(&mut self.wal)?;
        self.core.put(Self::key(id), blob.to_vec());
        self.ids.insert(id);
        Ok(())
    }

    fn get(&self, id: u64) -> Result<Vec<u8>> {
        if !self.ids.contains(&id) {
            return Err(StorageError::RecordNotFound);
        }
        self.core
            .get(&Self::key(id))?
            .ok_or(StorageError::RecordNotFound)
    }

    fn delete(&mut self, id: u64) -> Result<()> {
        if !self.ids.contains(&id) {
            return Err(StorageError::RecordNotFound);
        }
        DocRecord::Delete(id).append_to(&mut self.wal)?;
        self.core.delete(Self::key(id));
        self.ids.remove(&id);
        Ok(())
    }

    fn contains(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    fn get_many(&self, ids: &[u64]) -> Vec<(u64, Vec<u8>)> {
        ids.iter()
            .filter_map(|&id| {
                crate::backend::DocBlobStore::get(self, id)
                    .ok()
                    .map(|blob| (id, blob))
            })
            .collect()
    }

    fn doc_ids(&self) -> Vec<u64> {
        self.ids.iter().copied().collect()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn storage_bytes(&self) -> usize {
        self.core.storage_bytes()
    }

    fn checkpoint(&mut self) -> Result<()> {
        self.core.flush(0, &[])?;
        self.wal.reset()
    }

    fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    fn counters(&self) -> crate::backend::BackendCounters {
        self.core.counters()
    }

    fn verify(&self) -> Result<u64> {
        self.core.verify_runs()
    }
}

// ---------------------------------------------------------------------------
// LsmKeywordMap
// ---------------------------------------------------------------------------

use crate::backend::{BackendCounters, Tag};

/// The `lsm` backend's durable keyword map — the paper's keyword index as
/// a map from 32-byte PRF tags to opaque per-keyword state (scheme 1:
/// masked bit-array + `f_r`; scheme 2: generation lists). Flushes write
/// **only the tags that changed** since the last flush as one sorted run —
/// the low-write-amplification checkpoint target for update-heavy
/// workloads.
///
/// Durability contract: mutations become durable at
/// [`LsmKeywordMap::flush`], not before — pre-flush durability is the
/// caller's journal's job (the scheme servers' group-commit journal is the
/// write path; the map is the checkpoint target). After a crash, a
/// reopened map serves exactly the state of the last successful flush.
pub struct LsmKeywordMap {
    core: LsmCore,
}

impl LsmKeywordMap {
    /// Open (or create) the map stored as `dir/<prefix>*`.
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged files.
    pub fn open(vfs: Arc<dyn Vfs>, dir: &Path, prefix: &str) -> Result<Self> {
        Ok(LsmKeywordMap {
            core: LsmCore::open(vfs, dir, prefix)?,
        })
    }

    fn to_tag(key: &[u8]) -> Result<Tag> {
        key.try_into().map_err(|_| StorageError::Corrupt {
            what: "lsm keyword map",
            detail: format!("key of {} bytes is not a 32-byte tag", key.len()),
        })
    }

    /// Scrub entry point: re-verify every live run file's checksums.
    /// Returns the number of runs verified. See [`LsmCore::verify_runs`].
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on a mismatch; I/O errors.
    pub fn verify_runs(&self) -> Result<u64> {
        self.core.verify_runs()
    }

    /// Value stored for `tag`.
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged runs.
    pub fn get(&self, tag: &Tag) -> Result<Option<Vec<u8>>> {
        self.core.get(tag)
    }

    /// Insert or replace the value for `tag`.
    pub fn put(&mut self, tag: Tag, value: Vec<u8>) {
        self.core.put(tag.to_vec(), value);
    }

    /// Remove `tag` (absent tags are fine — idempotent).
    pub fn delete(&mut self, tag: &Tag) {
        self.core.delete(tag.to_vec());
    }

    /// Drop every tag (scheme re-initialization).
    pub fn clear(&mut self) {
        self.core.clear();
    }

    /// Durability point: persist all mutations since the last flush
    /// together with `applied_seq` (the journal sequence this state
    /// covers) and an opaque caller `meta` blob (scheme 1 stores its
    /// index geometry here).
    ///
    /// # Errors
    /// I/O errors.
    pub fn flush(&mut self, applied_seq: u64, meta: &[u8]) -> Result<()> {
        self.core.flush(applied_seq, meta)
    }

    /// The `applied_seq` recorded by the last flush (0: never flushed).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.core.last_seq()
    }

    /// The caller `meta` blob recorded by the last flush.
    #[must_use]
    pub fn meta(&self) -> Vec<u8> {
        self.core.user_meta().to_vec()
    }

    /// Every `(tag, value)` pair, tag-sorted (open-time tree rebuild).
    ///
    /// # Errors
    /// I/O errors, or [`StorageError::Corrupt`] for damaged runs.
    pub fn iter_all(&self) -> Result<Vec<(Tag, Vec<u8>)>> {
        self.core
            .iter_all()?
            .into_iter()
            .map(|(k, v)| Self::to_tag(&k).map(|t| (t, v)))
            .collect()
    }

    /// Engine internals for STATS.
    #[must_use]
    pub fn counters(&self) -> BackendCounters {
        self.core.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DocBlobStore;
    use crate::vfs::{FaultConfig, FaultVfs, RealVfs};

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sse-lsm-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn tag(b: u8) -> Tag {
        [b; 32]
    }

    #[test]
    fn core_round_trip_with_reopen() {
        let dir = temp_dir("core");
        {
            let mut c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
            c.put(b"alpha".to_vec(), b"1".to_vec());
            c.put(b"beta".to_vec(), b"2".to_vec());
            c.flush(7, b"m").unwrap();
            c.put(b"beta".to_vec(), b"2v2".to_vec());
            c.delete(b"alpha".to_vec());
            c.flush(9, b"m2").unwrap();
        }
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        assert_eq!(c.last_seq(), 9);
        assert_eq!(c.user_meta(), b"m2");
        assert_eq!(c.runs_live(), 2);
        assert_eq!(c.get(b"beta").unwrap(), Some(b"2v2".to_vec()));
        assert_eq!(c.get(b"alpha").unwrap(), None);
        assert_eq!(c.get(b"gamma").unwrap(), None);
        assert_eq!(
            c.iter_all().unwrap(),
            vec![(b"beta".to_vec(), b"2v2".to_vec())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_mutations_do_not_survive_reopen() {
        let dir = temp_dir("unflushed");
        {
            let mut c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
            c.put(b"kept".to_vec(), b"x".to_vec());
            c.flush(1, &[]).unwrap();
            c.put(b"lost".to_vec(), b"y".to_vec());
            // No flush: the durability point was never reached.
        }
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        assert_eq!(c.get(b"kept").unwrap(), Some(b"x".to_vec()));
        assert_eq!(c.get(b"lost").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_runs_and_drops_tombstones() {
        let dir = temp_dir("compact");
        let mut c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        for round in 0..(LSM_MAX_RUNS as u8 + 2) {
            c.put(vec![round], vec![round; 3]);
            c.put(b"hot".to_vec(), vec![round]); // rewritten every round
            if round == 2 {
                c.delete(vec![0]);
            }
            c.flush(u64::from(round) + 1, &[]).unwrap();
        }
        assert!(
            c.runs_live() <= LSM_MAX_RUNS,
            "compaction must bound live runs, got {}",
            c.runs_live()
        );
        assert!(c.counters().compactions >= 1);
        // Deleted key stays deleted, hot key has the last value.
        assert_eq!(c.get(&[0]).unwrap(), None);
        assert_eq!(c.get(b"hot").unwrap(), Some(vec![LSM_MAX_RUNS as u8 + 1]));
        // Reopen agrees.
        drop(c);
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        assert_eq!(c.get(&[0]).unwrap(), None);
        assert_eq!(c.get(b"hot").unwrap(), Some(vec![LSM_MAX_RUNS as u8 + 1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_drops_all_runs() {
        let dir = temp_dir("clear");
        let mut c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        c.put(b"a".to_vec(), b"1".to_vec());
        c.flush(1, &[]).unwrap();
        c.clear();
        assert_eq!(c.get(b"a").unwrap(), None);
        c.put(b"b".to_vec(), b"2".to_vec());
        c.flush(2, &[]).unwrap();
        drop(c);
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        assert_eq!(c.get(b"a").unwrap(), None);
        assert_eq!(c.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(c.runs_live(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bloom_skips_count_on_misses() {
        let dir = temp_dir("bloom");
        let mut c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        for i in (0..400u32).step_by(2) {
            c.put(i.to_be_bytes().to_vec(), vec![1]);
        }
        c.flush(1, &[]).unwrap();
        // Probe odd keys: inside the run's key range but never inserted,
        // so only the bloom filter can prove absence.
        for i in (1..399u32).step_by(2) {
            assert_eq!(c.get(&i.to_be_bytes()).unwrap(), None);
        }
        let counters = c.counters();
        assert!(counters.bloom_checks > 0);
        assert!(
            counters.bloom_skips > counters.bloom_checks / 2,
            "bloom should prove most absences: {counters:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doc_store_wal_recovery_and_checkpoint() {
        let dir = temp_dir("doc");
        {
            let mut s =
                LsmDocStore::open_with_vfs(RealVfs::arc(), &dir, StoreOptions::default()).unwrap();
            s.put(10, b"ten").unwrap();
            s.put(20, b"twenty").unwrap();
            s.delete(10).unwrap();
            // No checkpoint: recovery must come from the WAL alone.
        }
        {
            let s =
                LsmDocStore::open_with_vfs(RealVfs::arc(), &dir, StoreOptions::default()).unwrap();
            assert_eq!(s.recovery_report().wal_records_replayed, 3);
            assert_eq!(s.len(), 1);
            assert_eq!(DocBlobStore::get(&s, 20).unwrap(), b"twenty");
            assert!(!s.contains(10));
        }
        {
            let mut s =
                LsmDocStore::open_with_vfs(RealVfs::arc(), &dir, StoreOptions::default()).unwrap();
            s.put(30, b"thirty").unwrap();
            s.checkpoint().unwrap();
            s.put(40, b"forty").unwrap();
        }
        let s = LsmDocStore::open_with_vfs(RealVfs::arc(), &dir, StoreOptions::default()).unwrap();
        assert!(s.recovery_report().snapshot_loaded);
        assert_eq!(s.doc_ids(), vec![20, 30, 40]);
        assert_eq!(s.get_many(&[20, 30, 40, 99]).len(), 3);
        assert!(s.counters().runs_flushed == 0); // fresh open, no flush yet
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keyword_map_partial_flushes_accumulate() {
        let dir = temp_dir("kw");
        {
            let mut m = LsmKeywordMap::open(RealVfs::arc(), &dir, "kw0").unwrap();
            m.put(tag(1), b"one".to_vec());
            m.put(tag(2), b"two".to_vec());
            m.flush(5, b"meta-a").unwrap();
            // Second flush writes only the dirty tag.
            m.put(tag(2), b"two-v2".to_vec());
            m.flush(9, b"meta-b").unwrap();
            assert_eq!(m.counters().runs_live, 2);
        }
        let m = LsmKeywordMap::open(RealVfs::arc(), &dir, "kw0").unwrap();
        assert_eq!(m.last_seq(), 9);
        assert_eq!(m.meta(), b"meta-b");
        assert_eq!(m.get(&tag(1)).unwrap(), Some(b"one".to_vec()));
        assert_eq!(m.get(&tag(2)).unwrap(), Some(b"two-v2".to_vec()));
        assert_eq!(m.get(&tag(3)).unwrap(), None);
        let all = m.iter_all().unwrap();
        assert_eq!(all.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_run_write_keeps_memtable_and_retries() {
        let dir = temp_dir("fail-run");
        // Write 1 is the first flush's run file.
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                fail_write_at: Some(1),
                ..FaultConfig::default()
            },
        ));
        let mut c = LsmCore::open(vfs, &dir, "t").unwrap();
        c.put(b"k".to_vec(), b"v".to_vec());
        assert!(c.flush(1, &[]).is_err());
        // The entry is still served and a retry makes it durable.
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        c.flush(1, &[]).unwrap();
        drop(c);
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_manifest_write_keeps_memtable_and_retries() {
        let dir = temp_dir("fail-manifest");
        // Write 1 is the run file, write 2 the manifest temp file.
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                fail_write_at: Some(2),
                ..FaultConfig::default()
            },
        ));
        let mut c = LsmCore::open(vfs, &dir, "t").unwrap();
        c.put(b"k".to_vec(), b"v".to_vec());
        assert!(c.flush(1, &[]).is_err());
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(c.runs_live(), 0, "uncommitted run must not join the list");
        c.flush(1, &[]).unwrap();
        drop(c);
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        assert_eq!(c.last_seq(), 1);
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_compaction_keeps_old_runs() {
        // One flush per round; the last round pushes the run count past
        // LSM_MAX_RUNS and triggers a compaction.
        fn workload(c: &mut LsmCore) {
            for round in 0..=LSM_MAX_RUNS as u8 {
                c.put(vec![round], vec![round]);
                c.flush(u64::from(round) + 1, &[]).unwrap();
            }
        }
        // Counting pass to locate the compaction's merged-run write: it is
        // followed only by the manifest commit, so measure the manifest's
        // write cost from the first flush (total writes split evenly
        // across the flush rounds, each one run write plus one manifest).
        let dir0 = temp_dir("fail-compact-count");
        let counting = FaultVfs::counting();
        let stats = counting.stats();
        {
            let mut c = LsmCore::open(Arc::new(counting), &dir0, "t").unwrap();
            workload(&mut c);
            assert!(c.counters().compactions >= 1);
        }
        let rounds = LSM_MAX_RUNS as u64 + 1;
        let total = stats.writes();
        // rounds+1 run writes (one per flush + merged run), rounds+1
        // manifest commits of equal write cost.
        assert_eq!(total % (rounds + 1), 0, "unexpected write schedule");
        let manifest_writes = total / (rounds + 1) - 1;
        let merged_run_write = total - manifest_writes;
        std::fs::remove_dir_all(&dir0).unwrap();

        // Fault pass: fail exactly the merged-run write.
        let dir = temp_dir("fail-compact");
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                fail_write_at: Some(merged_run_write),
                ..FaultConfig::default()
            },
        ));
        let mut c = LsmCore::open(vfs, &dir, "t").unwrap();
        for round in 0..LSM_MAX_RUNS as u8 {
            c.put(vec![round], vec![round]);
            c.flush(u64::from(round) + 1, &[]).unwrap();
        }
        let last = LSM_MAX_RUNS as u8;
        c.put(vec![last], vec![last]);
        assert!(
            c.flush(u64::from(last) + 1, &[]).is_err(),
            "compaction write should fail"
        );
        // Every key is still served from the pre-compaction runs.
        for round in 0..=last {
            assert_eq!(c.get(&[round]).unwrap(), Some(vec![round]));
        }
        assert_eq!(c.runs_live(), LSM_MAX_RUNS + 1);
        // The next flush retries the compaction and succeeds.
        c.flush(100, &[]).unwrap();
        assert!(c.runs_live() <= LSM_MAX_RUNS);
        drop(c);
        let c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
        for round in 0..=last {
            assert_eq!(c.get(&[round]).unwrap(), Some(vec![round]));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doc_store_rejects_non_id_run_key() {
        let dir = temp_dir("bad-doc-key");
        {
            let mut c = LsmCore::open(RealVfs::arc(), &dir, "doc").unwrap();
            c.put(b"not-an-id".to_vec(), b"x".to_vec());
            c.flush(1, &[]).unwrap();
        }
        assert!(matches!(
            LsmDocStore::open_with_vfs(RealVfs::arc(), &dir, StoreOptions::default()),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_run_is_rejected_on_open() {
        let dir = temp_dir("corrupt-run");
        {
            let mut c = LsmCore::open(RealVfs::arc(), &dir, "t").unwrap();
            c.put(b"k".to_vec(), b"v".to_vec());
            c.flush(1, &[]).unwrap();
        }
        // Flip a byte in the run's index region.
        let run = dir.join("t-00000001.run");
        let mut bytes = std::fs::read(&run).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&run, &bytes).unwrap();
        assert!(matches!(
            LsmCore::open(RealVfs::arc(), &dir, "t"),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
