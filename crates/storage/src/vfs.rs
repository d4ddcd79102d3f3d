//! Virtual filesystem abstraction for deterministic fault injection.
//!
//! Every durable structure in this crate ([`crate::wal::Wal`],
//! [`crate::store::DocStore`], and through them the scheme servers) does its
//! file I/O through the [`Vfs`] trait instead of `std::fs` directly. Two
//! implementations exist:
//!
//! * [`RealVfs`] — a zero-cost passthrough to `std::fs`; the default.
//! * [`FaultVfs`] — wraps another `Vfs` and injects faults on a **seeded,
//!   deterministic schedule**: fail the N-th write, deliver a torn (partial)
//!   write, fail an `fsync`, or simulate a hard crash at any scheduled write
//!   point (the write is torn and every subsequent operation fails, exactly
//!   like a process that died mid-write).
//!
//! The fault model is *process-crash*, not power-loss: bytes handed to a
//! successful `write_all` are considered durable (no page-cache modeling).
//! `sync_data` failures are injectable separately so callers' error paths
//! are exercised, but a crash between write and sync does not lose the
//! write. DESIGN.md §"Fault model & durability contract" spells this out.

use std::io::{self, Error, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An open file handle, produced by a [`Vfs`].
///
/// `Send + Sync` so durable structures owning a handle can sit behind a
/// shared lock (the sharded scheme servers wrap their [`crate::store::DocStore`]
/// in an `RwLock` for concurrent reads).
pub trait VfsFile: Send + Sync {
    /// Write all of `buf` at the current position.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flush file contents to stable storage.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncate (or extend) the file to `len` bytes.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Seek to an absolute byte offset.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

/// A minimal filesystem: exactly the operations the storage engine needs.
pub trait Vfs: Send + Sync {
    /// Read a whole file.
    ///
    /// # Errors
    /// I/O errors ([`ErrorKind::NotFound`] when absent), or injected faults.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Length of the file in bytes, or `None` if it does not exist.
    ///
    /// # Errors
    /// I/O errors other than not-found, or injected faults.
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>>;

    /// Open a file for writing without truncating, creating it if missing.
    /// The position starts at 0; callers seek as needed.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Create (or truncate) a file for writing.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically rename `from` to `to` (the snapshot commit point).
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Create a directory and all its parents.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// fsync a **directory entry**: make a preceding [`Vfs::rename`] into
    /// `path` durable. A rename that is not followed by a parent-dir fsync
    /// may be lost on crash ([`FaultVfs`] models exactly that with
    /// [`FaultConfig::lose_unsynced_renames`]).
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// Delete a file (LSM run garbage collection after compaction).
    ///
    /// # Errors
    /// I/O errors ([`ErrorKind::NotFound`] when absent), or injected faults.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Random read: `len` bytes starting at byte `offset`. Short files
    /// return an [`ErrorKind::UnexpectedEof`] error rather than a short
    /// read. Default implementation reads the whole file and slices;
    /// backends with large immutable files override it.
    ///
    /// # Errors
    /// I/O errors, or injected faults.
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let bytes = self.read(path)?;
        let start = usize::try_from(offset).map_err(|_| Error::from(ErrorKind::UnexpectedEof))?;
        let end = start.checked_add(len).ok_or(ErrorKind::UnexpectedEof)?;
        if end > bytes.len() {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                format!("read_range {offset}+{len} past end {}", bytes.len()),
            ));
        }
        Ok(bytes[start..end].to_vec())
    }

    /// Hand the whole file at `path` to `each`, in order, in pieces of at
    /// most `chunk` (> 0) bytes, all read through one open handle, so a
    /// concurrent rename over `path` cannot splice two files into one
    /// read. The default reads the file whole and slices it; [`RealVfs`]
    /// holds one `chunk`-sized buffer instead.
    ///
    /// # Errors
    /// I/O errors ([`ErrorKind::NotFound`] when absent), or injected faults.
    fn read_chunks(
        &self,
        path: &Path,
        chunk: usize,
        each: &mut dyn FnMut(&[u8]),
    ) -> io::Result<()> {
        self.read(path)?.chunks(chunk).for_each(each);
        Ok(())
    }

    /// Whether a file exists (false on any probe error).
    fn exists(&self, path: &Path) -> bool {
        matches!(self.file_len(path), Ok(Some(_)))
    }
}

// ---------------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------------

/// Passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

impl RealVfs {
    /// A shared handle to the real filesystem.
    #[must_use]
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }
}

struct RealFile(std::fs::File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        use std::io::Seek;
        self.0.seek(std::io::SeekFrom::Start(pos)).map(|_| ())
    }
}

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the portable
        // (POSIX) way to make a rename of one of its entries durable.
        std::fs::File::open(path)?.sync_data()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek};
        let mut f = std::fs::File::open(path)?;
        f.seek(std::io::SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn read_chunks(
        &self,
        path: &Path,
        chunk: usize,
        each: &mut dyn FnMut(&[u8]),
    ) -> io::Result<()> {
        use std::io::Read;
        let mut f = std::fs::File::open(path)?;
        let mut buf = vec![0u8; chunk];
        loop {
            match f.read(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(n) => each(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

/// Which faults a [`FaultVfs`] injects, all on 1-based operation indices.
/// Every field is independent; `None` disables that fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Seed for the deterministic schedule (torn-prefix lengths).
    pub seed: u64,
    /// Fail the N-th `write_all` cleanly: no bytes reach the file.
    pub fail_write_at: Option<u64>,
    /// Tear the N-th `write_all`: a seeded strict prefix of the buffer is
    /// written, then the call fails.
    pub torn_write_at: Option<u64>,
    /// Fail the N-th `sync_data`.
    pub fail_sync_at: Option<u64>,
    /// Hard crash at the N-th `write_all`: the write is torn (seeded
    /// prefix) and **every** subsequent operation on this VFS fails.
    pub crash_at_write: Option<u64>,
    /// Hard crash **at** the N-th `sync_data`: the sync does not reach the
    /// inner file (under the process-crash model the preceding writes are
    /// still durable) and every subsequent operation fails — a crash
    /// between a group's write and its fsync.
    pub crash_at_sync: Option<u64>,
    /// Hard crash **after** the N-th `sync_data`: the inner sync succeeds
    /// (the group *is* durable), then every subsequent operation fails — a
    /// crash between a group's fsync and its acks.
    pub crash_after_sync: Option<u64>,
    /// Fail the N-th `sync_dir` (directory-entry fsync). Counted on a
    /// schedule separate from `sync_data` so existing fault schedules are
    /// unaffected by new dir-fsync call sites.
    pub fail_dir_sync_at: Option<u64>,
    /// Hard crash at the N-th `sync_dir`: the directory fsync never
    /// happens and every subsequent operation fails. Combine with
    /// [`FaultConfig::lose_unsynced_renames`] to simulate losing the
    /// rename itself.
    pub crash_at_dir_sync: Option<u64>,
    /// Model un-fsynced directory entries: every [`Vfs::rename`] is held
    /// *pending* until a `sync_dir` of its parent directory succeeds. If
    /// the VFS crashes first, pending renames are rolled back — the old
    /// destination file reappears and the renamed bytes go back to the
    /// source path, exactly as if the directory entry never hit disk.
    /// Off by default (renames are then durable at the rename call, the
    /// historical process-crash model).
    pub lose_unsynced_renames: bool,
    /// ENOSPC window: starting at the N-th `write_all` (1-based), fail
    /// writes with [`ErrorKind::StorageFull`] for [`FaultConfig::enospc_len`]
    /// scheduled write points, then let writes succeed again — a disk
    /// filling up and being cleared. Unlike the crash faults this never
    /// kills the VFS: the process keeps running on a full disk.
    pub enospc_start: Option<u64>,
    /// Width of the ENOSPC window in write points (0 behaves as 1).
    pub enospc_len: u64,
    /// When non-zero (and greater than `enospc_len`), the window recurs:
    /// every `enospc_period` writes after `enospc_start`, the first
    /// `enospc_len` of them fail with `StorageFull`. The chaos harness
    /// uses this to schedule repeated fault windows from one seed.
    pub enospc_period: u64,
}

/// Shared counters exposing what a [`FaultVfs`] saw and injected.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Total `write_all` calls observed (the crash-point count).
    pub writes_seen: AtomicU64,
    /// Total `sync_data` calls observed.
    pub syncs_seen: AtomicU64,
    /// Faults injected of any kind.
    pub injected_faults: AtomicU64,
    /// Writes delivered torn (partial prefix then failure).
    pub torn_writes: AtomicU64,
    /// `sync_data` calls failed.
    pub failed_syncs: AtomicU64,
    /// Writes failed cleanly (zero bytes written).
    pub failed_writes: AtomicU64,
    /// Total `sync_dir` calls observed (separate schedule from syncs).
    pub dir_syncs_seen: AtomicU64,
    /// `sync_dir` calls failed.
    pub failed_dir_syncs: AtomicU64,
    /// Renames rolled back at crash time (un-fsynced directory entries).
    pub renames_lost: AtomicU64,
    /// Writes failed with `StorageFull` inside an ENOSPC window.
    pub enospc_writes: AtomicU64,
    /// Whether the simulated hard crash has happened.
    pub crashed: AtomicBool,
}

impl FaultStats {
    /// Total faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected_faults.load(Ordering::Relaxed)
    }

    /// Total writes observed so far (use a fault-free counting run to
    /// enumerate the crash points of a workload).
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes_seen.load(Ordering::Relaxed)
    }

    /// Total directory fsyncs observed so far (the `sync_dir` crash-point
    /// count for rename-loss sweeps).
    #[must_use]
    pub fn dir_syncs(&self) -> u64 {
        self.dir_syncs_seen.load(Ordering::Relaxed)
    }
}

/// SplitMix64 — tiny, seedable, deterministic; used only to derive torn
/// prefix lengths, never for cryptography.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One rename whose directory entry has not yet been fsynced: enough state
/// to undo it if the VFS crashes first.
struct PendingRename {
    from: std::path::PathBuf,
    to: std::path::PathBuf,
    /// Content of `to` before the rename clobbered it (`None`: absent).
    old_to: Option<Vec<u8>>,
    /// The bytes that moved from `from` to `to`.
    new_bytes: Vec<u8>,
}

struct FaultState {
    cfg: FaultConfig,
    stats: Arc<FaultStats>,
    inner: Arc<dyn Vfs>,
    pending_renames: std::sync::Mutex<Vec<PendingRename>>,
}

impl FaultState {
    fn crashed_err() -> Error {
        Error::other("injected fault: simulated crash (all I/O dead)")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.stats.crashed.load(Ordering::SeqCst) {
            return Err(Self::crashed_err());
        }
        Ok(())
    }

    /// Mark the VFS crashed and, when `lose_unsynced_renames` is set, roll
    /// back every rename whose parent directory was never fsynced: the
    /// renamed bytes reappear at the source path and the old destination
    /// content (if any) is restored — the directory entry never hit disk.
    fn trigger_crash(&self) {
        self.stats.crashed.store(true, Ordering::SeqCst);
        if !self.cfg.lose_unsynced_renames {
            return;
        }
        let mut pending = self
            .pending_renames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for p in pending.drain(..).rev() {
            // Best-effort: the rollback itself uses the inner (real) VFS
            // because this VFS is already dead.
            if let Ok(mut f) = self.inner.create(&p.from) {
                let _ = f.write_all(&p.new_bytes);
            }
            match p.old_to {
                Some(old) => {
                    if let Ok(mut f) = self.inner.create(&p.to) {
                        let _ = f.write_all(&old);
                    }
                }
                None => {
                    let _ = self.inner.remove_file(&p.to);
                }
            }
            self.stats.renames_lost.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a completed rename as pending until its parent dir is synced.
    fn note_rename(&self, from: &Path, to: &Path, old_to: Option<Vec<u8>>, new_bytes: Vec<u8>) {
        let mut pending = self
            .pending_renames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A rename onto the destination of an earlier pending rename
        // supersedes it; keep the *original* old_to so rollback restores
        // the truly durable content.
        let prior_old = pending
            .iter()
            .position(|p| p.to == to)
            .map(|i| pending.remove(i).old_to);
        pending.push(PendingRename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            old_to: prior_old.unwrap_or(old_to),
            new_bytes,
        });
    }

    /// A successful directory fsync makes every pending rename inside that
    /// directory durable.
    fn settle_renames_in(&self, dir: &Path) {
        let mut pending = self
            .pending_renames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        pending.retain(|p| p.to.parent() != Some(dir));
    }

    /// Gate one write: returns `Ok(None)` to pass the full buffer through,
    /// `Ok(Some(prefix_len))` to write only a prefix then report failure —
    /// the caller must then return the supplied error.
    fn on_write(&self, buf_len: usize) -> Result<Option<usize>, Error> {
        self.check_alive()?;
        let n = self.stats.writes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let torn_prefix = |salt: u64| {
            if buf_len == 0 {
                0
            } else {
                (splitmix64(self.cfg.seed ^ n ^ salt) % buf_len as u64) as usize
            }
        };
        if self.cfg.crash_at_write == Some(n) {
            self.trigger_crash();
            self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(torn_prefix(0xC4A5)));
        }
        if self.cfg.torn_write_at == Some(n) {
            self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(torn_prefix(0x70BB)));
        }
        if self.cfg.fail_write_at == Some(n) {
            self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            self.stats.failed_writes.fetch_add(1, Ordering::Relaxed);
            return Err(Error::other(format!("injected fault: write {n} failed")));
        }
        if self.in_enospc_window(n) {
            self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            self.stats.enospc_writes.fetch_add(1, Ordering::Relaxed);
            return Err(Error::new(
                ErrorKind::StorageFull,
                format!("injected fault: write {n} hit ENOSPC window (disk full)"),
            ));
        }
        Ok(None)
    }

    /// Whether write point `n` falls inside the configured ENOSPC window
    /// (one-shot, or recurring when `enospc_period` is set).
    fn in_enospc_window(&self, n: u64) -> bool {
        let Some(start) = self.cfg.enospc_start else {
            return false;
        };
        if n < start {
            return false;
        }
        let len = self.cfg.enospc_len.max(1);
        let off = n - start;
        if self.cfg.enospc_period > len {
            off % self.cfg.enospc_period < len
        } else {
            off < len
        }
    }

    /// Gate one sync: `Pass` lets the inner `sync_data` run normally;
    /// `CrashAfter` asks the caller to run the inner sync, *then* mark the
    /// VFS crashed and report failure (the data is durable, the ack never
    /// happens).
    fn on_sync(&self) -> io::Result<SyncGate> {
        self.check_alive()?;
        let n = self.stats.syncs_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cfg.crash_at_sync == Some(n) {
            self.trigger_crash();
            self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            self.stats.failed_syncs.fetch_add(1, Ordering::Relaxed);
            return Err(Error::other(format!(
                "injected fault: crash at fsync {n} (sync never reached disk)"
            )));
        }
        if self.cfg.fail_sync_at == Some(n) {
            self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            self.stats.failed_syncs.fetch_add(1, Ordering::Relaxed);
            return Err(Error::other(format!("injected fault: fsync {n} failed")));
        }
        if self.cfg.crash_after_sync == Some(n) {
            return Ok(SyncGate::CrashAfter);
        }
        Ok(SyncGate::Pass)
    }
}

/// Outcome of [`FaultState::on_sync`] when the sync is allowed to proceed.
enum SyncGate {
    /// Run the inner sync normally.
    Pass,
    /// Run the inner sync, then crash (durable but never acknowledged).
    CrashAfter,
}

/// A [`Vfs`] that injects deterministic faults into an inner VFS.
///
/// One `FaultVfs` shares one schedule across every file opened through it,
/// so "the N-th write" counts globally — exactly what a crash-at-every-
/// write-point torture loop needs.
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// Wrap `inner` with the fault schedule in `cfg`.
    #[must_use]
    pub fn new(inner: Arc<dyn Vfs>, cfg: FaultConfig) -> Self {
        FaultVfs {
            inner: inner.clone(),
            state: Arc::new(FaultState {
                cfg,
                stats: Arc::new(FaultStats::default()),
                inner,
                pending_renames: std::sync::Mutex::new(Vec::new()),
            }),
        }
    }

    /// Fault-free wrapper over the real filesystem that only counts
    /// operations — the "counting run" enumerating a workload's write
    /// points.
    #[must_use]
    pub fn counting() -> Self {
        FaultVfs::new(RealVfs::arc(), FaultConfig::default())
    }

    /// Real-filesystem wrapper that hard-crashes at write point `n`
    /// (1-based), tearing that write on a schedule derived from `seed`.
    #[must_use]
    pub fn crashing_at(seed: u64, n: u64) -> Self {
        FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                seed,
                crash_at_write: Some(n),
                ..FaultConfig::default()
            },
        )
    }

    /// Real-filesystem wrapper whose writes fail with
    /// [`ErrorKind::StorageFull`] for `len` write points starting at write
    /// `start` (1-based), then succeed again — a transient full disk. The
    /// VFS never crashes; reads and syncs keep working throughout.
    #[must_use]
    pub fn enospc_window(seed: u64, start: u64, len: u64) -> Self {
        FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                seed,
                enospc_start: Some(start),
                enospc_len: len,
                ..FaultConfig::default()
            },
        )
    }

    /// Real-filesystem wrapper that hard-crashes at sync point `n`
    /// (1-based): the fsync never happens, all subsequent I/O fails.
    #[must_use]
    pub fn crashing_at_sync(seed: u64, n: u64) -> Self {
        FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                seed,
                crash_at_sync: Some(n),
                ..FaultConfig::default()
            },
        )
    }

    /// Real-filesystem wrapper that hard-crashes just *after* sync point
    /// `n` (1-based): the fsync completes (data durable), then all
    /// subsequent I/O fails — the acknowledgement is lost.
    #[must_use]
    pub fn crashing_after_sync(seed: u64, n: u64) -> Self {
        FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                seed,
                crash_after_sync: Some(n),
                ..FaultConfig::default()
            },
        )
    }

    /// The shared fault counters.
    #[must_use]
    pub fn stats(&self) -> Arc<FaultStats> {
        self.state.stats.clone()
    }

    /// Whether the simulated crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.stats.crashed.load(Ordering::SeqCst)
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.state.on_write(buf.len())? {
            None => self.inner.write_all(buf),
            Some(prefix) => {
                // Deliver the torn prefix through the inner file, then fail.
                self.inner.write_all(&buf[..prefix])?;
                Err(Error::other(format!(
                    "injected fault: torn write ({prefix} of {} bytes)",
                    buf.len()
                )))
            }
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.state.on_sync()? {
            SyncGate::Pass => self.inner.sync_data(),
            SyncGate::CrashAfter => {
                self.inner.sync_data()?;
                self.state.trigger_crash();
                self.state
                    .stats
                    .injected_faults
                    .fetch_add(1, Ordering::Relaxed);
                Err(Error::other(
                    "injected fault: crash after fsync (data durable, ack lost)",
                ))
            }
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.state.check_alive()?;
        self.inner.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.state.check_alive()?;
        self.inner.seek_to(pos)
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.state.check_alive()?;
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.state.check_alive()?;
        self.inner.file_len(path)
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.check_alive()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_write(path)?,
            state: self.state.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.check_alive()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            state: self.state.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state.check_alive()?;
        if self.state.cfg.lose_unsynced_renames {
            // Capture enough state to undo the rename if the crash fires
            // before the parent directory is fsynced.
            let old_to = self.inner.read(to).ok();
            let new_bytes = self.inner.read(from)?;
            self.inner.rename(from, to)?;
            self.state.note_rename(from, to, old_to, new_bytes);
            Ok(())
        } else {
            self.inner.rename(from, to)
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.state.check_alive()?;
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.state.check_alive()?;
        let stats = &self.state.stats;
        let n = stats.dir_syncs_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if self.state.cfg.crash_at_dir_sync == Some(n) {
            self.state.trigger_crash();
            stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            stats.failed_dir_syncs.fetch_add(1, Ordering::Relaxed);
            return Err(Error::other(format!(
                "injected fault: crash at dir fsync {n} (directory entry never durable)"
            )));
        }
        if self.state.cfg.fail_dir_sync_at == Some(n) {
            stats.injected_faults.fetch_add(1, Ordering::Relaxed);
            stats.failed_dir_syncs.fetch_add(1, Ordering::Relaxed);
            return Err(Error::other(format!(
                "injected fault: dir fsync {n} failed"
            )));
        }
        self.inner.sync_dir(path)?;
        self.state.settle_renames_in(path);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state.check_alive()?;
        self.inner.remove_file(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.state.check_alive()?;
        self.inner.read_range(path, offset, len)
    }

    fn read_chunks(
        &self,
        path: &Path,
        chunk: usize,
        each: &mut dyn FnMut(&[u8]),
    ) -> io::Result<()> {
        self.state.check_alive()?;
        self.inner.read_chunks(path, chunk, each)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sse-vfs-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    use std::path::PathBuf;

    #[test]
    fn real_vfs_round_trip() {
        let path = temp_file("real");
        let vfs = RealVfs;
        {
            let mut f = vfs.create(&path).unwrap();
            f.write_all(b"hello ").unwrap();
            f.write_all(b"world").unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        assert_eq!(vfs.file_len(&path).unwrap(), Some(11));
        assert!(vfs.exists(&path));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_vfs_counts_writes() {
        let path = temp_file("count");
        let vfs = FaultVfs::counting();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"a").unwrap();
        f.write_all(b"b").unwrap();
        f.sync_data().unwrap();
        assert_eq!(vfs.stats().writes(), 2);
        assert_eq!(vfs.stats().syncs_seen.load(Ordering::Relaxed), 1);
        assert_eq!(vfs.stats().injected(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fail_nth_write_writes_nothing() {
        let path = temp_file("failw");
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                fail_write_at: Some(2),
                ..FaultConfig::default()
            },
        );
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"one").unwrap();
        assert!(f.write_all(b"two").is_err());
        f.write_all(b"three").unwrap(); // only write 2 was scheduled
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"onethree");
        assert_eq!(vfs.stats().failed_writes.load(Ordering::Relaxed), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_delivers_strict_prefix() {
        let path = temp_file("torn");
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                seed: 7,
                torn_write_at: Some(1),
                ..FaultConfig::default()
            },
        );
        let mut f = vfs.create(&path).unwrap();
        assert!(f.write_all(b"0123456789").is_err());
        drop(f);
        let written = vfs.read(&path).unwrap();
        assert!(written.len() < 10, "torn write must be a strict prefix");
        assert_eq!(&written[..], &b"0123456789"[..written.len()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_length_is_deterministic_per_seed() {
        let lens: Vec<usize> = (0..2)
            .map(|_| {
                let path = temp_file("det");
                let vfs = FaultVfs::new(
                    RealVfs::arc(),
                    FaultConfig {
                        seed: 42,
                        torn_write_at: Some(1),
                        ..FaultConfig::default()
                    },
                );
                let mut f = vfs.create(&path).unwrap();
                let _ = f.write_all(&[0xAB; 100]);
                drop(f);
                let len = vfs.read(&path).unwrap().len();
                std::fs::remove_file(&path).unwrap();
                len
            })
            .collect();
        assert_eq!(lens[0], lens[1], "same seed, same torn length");
    }

    #[test]
    fn crash_kills_all_subsequent_io() {
        let path = temp_file("crash");
        let vfs = FaultVfs::crashing_at(3, 1);
        let mut f = vfs.create(&path).unwrap();
        assert!(f.write_all(b"doomed").is_err());
        assert!(vfs.crashed());
        // Everything after the crash fails: writes, syncs, opens, renames.
        assert!(f.write_all(b"more").is_err());
        assert!(f.sync_data().is_err());
        assert!(vfs.create(&temp_file("crash2")).is_err());
        assert!(vfs.read(&path).is_err());
        assert!(vfs.read_chunks(&path, 4, &mut |_| ()).is_err());
        assert!(vfs.rename(&path, &temp_file("crash3")).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_at_sync_keeps_writes_but_kills_io() {
        // Process-crash model: bytes from successful writes are durable
        // even though the scheduled fsync itself never ran.
        let path = temp_file("crash-at-sync");
        let vfs = FaultVfs::crashing_at_sync(5, 1);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"written before crash").unwrap();
        assert!(f.sync_data().is_err());
        assert!(vfs.crashed());
        assert!(f.write_all(b"more").is_err());
        assert!(vfs.read(&path).is_err());
        // The data is on disk (readable outside the crashed VFS).
        assert_eq!(RealVfs.read(&path).unwrap(), b"written before crash");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_after_sync_is_durable_but_dead() {
        let path = temp_file("crash-after-sync");
        let vfs = FaultVfs::crashing_after_sync(5, 1);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"durable payload").unwrap();
        // The sync itself succeeds on the inner file, then the crash fires.
        assert!(f.sync_data().is_err());
        assert!(vfs.crashed());
        assert!(f.sync_data().is_err());
        assert!(vfs.create(&temp_file("crash-after-sync-2")).is_err());
        assert_eq!(RealVfs.read(&path).unwrap(), b"durable payload");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_range_reads_middle_of_file() {
        let path = temp_file("range");
        let vfs = RealVfs;
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);
        assert_eq!(vfs.read_range(&path, 3, 4).unwrap(), b"3456");
        assert!(vfs.read_range(&path, 8, 4).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_chunks_hands_over_the_whole_file_in_bounded_pieces() {
        let path = temp_file("chunks");
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        for vfs in [&RealVfs as &dyn Vfs, &FaultVfs::counting()] {
            let mut got = Vec::new();
            vfs.read_chunks(&path, 64, &mut |piece| {
                assert!(!piece.is_empty() && piece.len() <= 64);
                got.extend_from_slice(piece);
            })
            .unwrap();
            assert_eq!(got, bytes);
        }
        std::fs::remove_file(&path).unwrap();
        let missing = RealVfs.read_chunks(&path, 64, &mut |_| ());
        assert_eq!(missing.unwrap_err().kind(), ErrorKind::NotFound);
    }

    #[test]
    fn dir_sync_fault_fires_on_its_own_schedule() {
        let dir = {
            let mut p = std::env::temp_dir();
            p.push(format!("sse-vfs-dirsync-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            p
        };
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                fail_dir_sync_at: Some(2),
                ..FaultConfig::default()
            },
        );
        vfs.sync_dir(&dir).unwrap();
        assert!(vfs.sync_dir(&dir).is_err());
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.stats().dir_syncs(), 3);
        assert_eq!(vfs.stats().failed_dir_syncs.load(Ordering::Relaxed), 1);
        // Data syncs are a separate schedule: none were consumed.
        assert_eq!(vfs.stats().syncs_seen.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_rename_is_lost_on_crash() {
        let dir = {
            let mut p = std::env::temp_dir();
            p.push(format!("sse-vfs-renameloss-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            p
        };
        let old = dir.join("file");
        let tmp = dir.join("file.tmp");
        std::fs::write(&old, b"old contents").unwrap();
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                lose_unsynced_renames: true,
                crash_at_dir_sync: Some(1),
                ..FaultConfig::default()
            },
        );
        std::fs::write(&tmp, b"new contents").unwrap();
        vfs.rename(&tmp, &old).unwrap();
        // Visible through the live VFS...
        assert_eq!(RealVfs.read(&old).unwrap(), b"new contents");
        // ...but the dir fsync crashes, so the rename rolls back.
        assert!(vfs.sync_dir(&dir).is_err());
        assert!(vfs.crashed());
        assert_eq!(RealVfs.read(&old).unwrap(), b"old contents");
        assert_eq!(RealVfs.read(&tmp).unwrap(), b"new contents");
        assert_eq!(vfs.stats().renames_lost.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synced_rename_survives_crash() {
        let dir = {
            let mut p = std::env::temp_dir();
            p.push(format!("sse-vfs-renamekeep-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            p
        };
        let old = dir.join("file");
        let tmp = dir.join("file.tmp");
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                lose_unsynced_renames: true,
                crash_at_write: Some(1),
                ..FaultConfig::default()
            },
        );
        std::fs::write(&tmp, b"new contents").unwrap();
        vfs.rename(&tmp, &old).unwrap();
        vfs.sync_dir(&dir).unwrap(); // settles the rename
        let mut f = vfs.create(&dir.join("other")).unwrap();
        assert!(f.write_all(b"boom").is_err());
        assert!(vfs.crashed());
        assert_eq!(RealVfs.read(&old).unwrap(), b"new contents");
        assert_eq!(vfs.stats().renames_lost.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_window_fails_then_recovers() {
        let path = temp_file("enospc");
        let vfs = FaultVfs::enospc_window(7, 2, 3);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"a").unwrap(); // write 1: before the window
        for i in 0..3 {
            // writes 2..=4: inside the window — StorageFull, zero bytes land
            let err = f.write_all(b"x").unwrap_err();
            assert_eq!(err.kind(), ErrorKind::StorageFull, "window write {i}");
        }
        f.write_all(b"b").unwrap(); // write 5: the disk "cleared"
        f.sync_data().unwrap(); // the VFS never crashed
        assert!(!vfs.crashed());
        assert_eq!(vfs.stats().enospc_writes.load(Ordering::Relaxed), 3);
        assert_eq!(RealVfs.read(&path).unwrap(), b"ab");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_period_recurs() {
        let path = temp_file("enospc-period");
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                enospc_start: Some(2),
                enospc_len: 1,
                enospc_period: 3,
                ..FaultConfig::default()
            },
        );
        let mut f = vfs.create(&path).unwrap();
        // Window of 1 recurring every 3 writes from write 2: 2, 5, 8 fail.
        let mut outcomes = Vec::new();
        for _ in 1..=8u64 {
            outcomes.push(f.write_all(b"y").is_ok());
        }
        assert_eq!(
            outcomes,
            vec![true, false, true, true, false, true, true, false]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_fault_fires_once() {
        let path = temp_file("sync");
        let vfs = FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                fail_sync_at: Some(1),
                ..FaultConfig::default()
            },
        );
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        assert!(f.sync_data().is_err());
        f.sync_data().unwrap();
        assert_eq!(vfs.stats().failed_syncs.load(Ordering::Relaxed), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
