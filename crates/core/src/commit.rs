//! Per-shard staging for the engine's flush: the shard journal, the
//! records parked on it, its writer and the group-commit counters.
//!
//! A durable mutation **stages** its shard-local record — moved in, not
//! copied; the journal adds the seq stamp and slice header as it frames
//! the group — into its shard's `GroupCommitter` together with its reply
//! continuation ([`Reply`]) and returns: nothing is durable, applied or
//! acknowledged yet, and the thread that staged it is free. A **flush**
//! (`IndexEngine::flush_with`) later asks every shard's committer to
//! `GroupCommitter::write_pending`: the first thread to ask becomes that
//! shard's *writer*, cuts everything staged, writes it with one vectored
//! `IndexJournal::append_group` — one `write` syscall and one
//! `sync_data` — and hands the group to the engine, which
//! applies it in seq order and only then calls its replies. So every
//! record staged while the previous fsync was in flight shares the next
//! one, whichever thread staged it, and writers of different shards —
//! different threads — fsync at the same time (DESIGN.md §4e).
//!
//! The durability contract is that of per-op journaling: a mutation is
//! acknowledged strictly after the fsync that covered its record. Sequence
//! numbers are assigned at stage time under the stage lock, so journal
//! order, group order and apply order are one order, and cross-shard batch
//! ids can embed the coordinator's seq before anything hits disk.
//!
//! Failure model: if a group's write or fsync fails, the committer is
//! **poisoned** — every record of that group and every record staged
//! behind it fails, and no further staging is accepted. This mirrors a
//! crash (the only source of sync failures in this workspace is injected
//! faults, which kill all subsequent I/O anyway): the journal's on-disk
//! state is an acked prefix plus at most one in-doubt unacked group.

use crate::error::{Result, SseError};
use crate::journal::IndexJournal;
use crate::proto_common;
use crate::shard::BatchId;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Where a mutation's reply goes once a flush knows its fate: the encoded
/// ack, or the encoded error. Called exactly once, on whichever thread
/// applied the mutation's last slice.
pub type Reply = Box<dyn FnOnce(Vec<u8>) + Send>;

/// A [`Reply`] for a caller that waits for the reply itself: the library
/// path (`handle_shared`, `apply_batch`, `Service::handle`). The reply may
/// come from another thread — the writer of a shard this caller's flush
/// found busy — so it travels through a channel.
#[derive(Default)]
pub(crate) struct ReplySlot(Option<mpsc::Receiver<Vec<u8>>>);

impl ReplySlot {
    /// The continuation to stage with.
    pub(crate) fn reply(&mut self) -> Reply {
        let (tx, rx) = mpsc::channel();
        self.0 = Some(rx);
        Box::new(move |reply| {
            let _ = tx.send(reply);
        })
    }

    /// Block until the reply arrives. `None` when [`Self::reply`] was
    /// never called: nothing was staged.
    pub(crate) fn wait(self) -> Option<Vec<u8>> {
        self.0?.recv().ok()
    }
}

/// Pipeline counters shared by every shard's committer in a server.
///
/// Consumers derive the headline ratios: mean group size is
/// `ops_committed / groups_committed` and fsyncs-per-op is its inverse
/// (`groups_committed / ops_committed`), since each group costs exactly
/// one fsync.
#[derive(Debug, Default)]
pub struct CommitStats {
    /// Groups flushed (each = one vectored write + one fsync).
    pub groups_committed: AtomicU64,
    /// Mutation records flushed across all groups.
    pub ops_committed: AtomicU64,
    /// Largest single group flushed.
    pub max_group: AtomicU64,
    /// Fsyncs avoided versus one-per-op journaling (`group_size - 1` per group).
    pub fsyncs_saved: AtomicU64,
    /// Immutable search-snapshot publications (one per shard an apply
    /// changed).
    pub snapshot_swaps: AtomicU64,
    /// Checkpoints completed.
    pub checkpoints: AtomicU64,
    /// Microseconds those checkpoints stalled the engine, summed.
    pub checkpoint_us: AtomicU64,
    /// Longest single checkpoint stall, in microseconds.
    pub checkpoint_max_us: AtomicU64,
}

/// A point-in-time copy of [`CommitStats`], cheap to aggregate and ship.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitCounters {
    /// Groups flushed (each = one fsync).
    pub groups_committed: u64,
    /// Mutation records flushed across all groups.
    pub ops_committed: u64,
    /// Largest single group flushed.
    pub max_group: u64,
    /// Fsyncs avoided versus one-per-op journaling.
    pub fsyncs_saved: u64,
    /// Immutable search-snapshot publications.
    pub snapshot_swaps: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Microseconds those checkpoints stalled the engine, summed.
    pub checkpoint_us: u64,
    /// Longest single checkpoint stall, in microseconds.
    pub checkpoint_max_us: u64,
}

impl CommitStats {
    /// Record one flushed group of `n` records.
    pub fn note_group(&self, n: u64) {
        self.groups_committed.fetch_add(1, Ordering::Relaxed);
        self.ops_committed.fetch_add(n, Ordering::Relaxed);
        self.max_group.fetch_max(n, Ordering::Relaxed);
        self.fsyncs_saved
            .fetch_add(n.saturating_sub(1), Ordering::Relaxed);
    }

    /// Record one search-snapshot publication.
    pub fn note_swap(&self) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed checkpoint that stalled the engine for `us`
    /// microseconds.
    pub fn note_checkpoint(&self, us: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_us.fetch_add(us, Ordering::Relaxed);
        self.checkpoint_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    #[must_use]
    pub fn counters(&self) -> CommitCounters {
        CommitCounters {
            groups_committed: self.groups_committed.load(Ordering::Relaxed),
            ops_committed: self.ops_committed.load(Ordering::Relaxed),
            max_group: self.max_group.load(Ordering::Relaxed),
            fsyncs_saved: self.fsyncs_saved.load(Ordering::Relaxed),
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_us: self.checkpoint_us.load(Ordering::Relaxed),
            checkpoint_max_us: self.checkpoint_max_us.load(Ordering::Relaxed),
        }
    }
}

/// One staged shard record: parked from its stage until it is dropped,
/// which is after its reply. Dropped with its reply unsent — a flush that
/// unwound, an engine dropped with records parked — it sends an error
/// reply itself, so no client waits forever.
pub(crate) struct Staged {
    pub(crate) seq: u64,
    /// The shard-local mutation: the bytes recovery replays.
    pub(crate) record: Vec<u8>,
    /// The mutation the record belongs to (for a single-shard mutation,
    /// its own shard and seq).
    pub(crate) batch: BatchId,
    /// Every shard the batch has a slice on; `None` for a single-shard
    /// mutation.
    pub(crate) shards: Option<Arc<[u32]>>,
    /// The mutation's reply, carried by its first slice only.
    pub(crate) reply: Option<Reply>,
    /// Why the record is not durable: its group's write failed, or the
    /// shard was poisoned before the cut.
    pub(crate) failed: Option<String>,
    /// The engine's count of records not yet dropped.
    parked: Arc<AtomicUsize>,
}

impl Drop for Staged {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            reply(proto_common::encode_error(
                "index mutation abandoned before its flush finished",
            ));
        }
        self.parked.fetch_sub(1, Ordering::AcqRel);
    }
}

struct CommitState {
    /// Seq the next `stage` call will assign.
    next_seq: u64,
    /// Staged records no writer has cut yet, in seq order.
    pending: Vec<Staged>,
    /// True while a thread is this shard's writer (see
    /// [`GroupCommitter::write_pending`]).
    writing: bool,
    /// Set when a group flush failed: the shard journal is dead, every
    /// staged-or-later mutation errors out.
    poisoned: Option<String>,
}

/// A per-shard journal wrapper that holds staged records until a writer
/// makes them durable as one single-fsync group. See the module docs.
pub(crate) struct GroupCommitter {
    state: Mutex<CommitState>,
    /// Held by the writer for its group's write and fsync, and by a
    /// journal reset or swap.
    journal: Mutex<IndexJournal>,
    stats: Arc<CommitStats>,
    /// Records staged on any of the engine's shards and not yet dropped.
    parked: Arc<AtomicUsize>,
}

impl GroupCommitter {
    /// Wrap a shard journal opened by the server; everything already on
    /// disk is trivially durable.
    pub(crate) fn new(
        journal: IndexJournal,
        stats: Arc<CommitStats>,
        parked: Arc<AtomicUsize>,
    ) -> Self {
        GroupCommitter {
            state: Mutex::new(CommitState {
                next_seq: journal.next_seq(),
                pending: Vec::new(),
                writing: false,
                poisoned: None,
            }),
            journal: Mutex::new(journal),
            stats,
            parked,
        }
    }

    /// Lock the stage queue. A cross-shard batch holds the [`StageGuard`]s
    /// of every affected shard (ascending) so its slices — whose batch id
    /// embeds the coordinator's seq — stage atomically, and the batch has
    /// one place in every affected shard's order.
    pub(crate) fn lock(&self) -> StageGuard<'_> {
        StageGuard {
            state: self.state.lock(),
            committer: self,
        }
    }

    /// Become this shard's writer and write everything staged: cut it, make
    /// it durable with one vectored write and one fsync (or mark it failed
    /// and poison the shard), hand the group to `done`, and repeat until a
    /// cut finds nothing staged; then step down. `done` therefore sees this
    /// shard's groups in seq order.
    ///
    /// Returns false, doing nothing, when nothing is staged or another
    /// thread is the writer. That writer takes what is staged now before
    /// it steps down — the check and the step-down share the stage lock —
    /// so a caller that finds the shard busy may leave its records to it.
    pub(crate) fn write_pending(&self, mut done: impl FnMut(Vec<Staged>)) -> bool {
        {
            let mut state = self.state.lock();
            if state.writing || state.pending.is_empty() {
                return false;
            }
            state.writing = true;
        }
        let mut writer = Writer(Some(self));
        loop {
            let (mut group, poisoned) = {
                let mut state = self.state.lock();
                if state.pending.is_empty() {
                    state.writing = false;
                    writer.0 = None;
                    return true;
                }
                (std::mem::take(&mut state.pending), state.poisoned.clone())
            };
            if let Some(msg) = poisoned.or_else(|| self.write(&group).err()) {
                for record in &mut group {
                    record.failed = Some(msg.clone());
                }
            }
            done(group);
        }
    }

    /// One group's vectored write and fsync. A failure — or a panic inside
    /// the journal — poisons the shard; records staged behind it fail at
    /// the next cut.
    fn write(&self, group: &[Staged]) -> std::result::Result<(), String> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.journal.lock().append_group(group)
        }));
        let msg = match outcome {
            Ok(Ok(())) => {
                self.stats.note_group(group.len() as u64);
                return Ok(());
            }
            Ok(Err(err)) => err.to_string(),
            Err(_) => "the journal write panicked".to_string(),
        };
        self.state.lock().poisoned = Some(msg.clone());
        Err(msg)
    }

    /// Truncate the journal after a checkpoint. Only call under full
    /// quiescence, after a flush; seqs keep increasing.
    ///
    /// # Errors
    /// [`SseError::Storage`] if the journal is poisoned, being written,
    /// has staged records, or the truncation itself fails.
    pub(crate) fn reset_journal(&self) -> Result<()> {
        let state = self.state.lock();
        if let Some(msg) = &state.poisoned {
            return Err(journal_dead(msg));
        }
        check_quiet(&state, "journal reset")?;
        self.journal.lock().reset()?;
        Ok(())
    }

    /// Replace the backing journal wholesale — the scrub's repair path.
    ///
    /// The caller must have quiesced the server and flushed (so nothing is
    /// staged or being written) and re-persisted the shard's applied
    /// state, so the fresh journal's contents are redundant. Clears any
    /// poison, installs `journal`, and resets the seq counter to the
    /// journal's own `next_seq` — per-shard applies require dense seqs, so
    /// the failed groups' seq numbers are reclaimed.
    ///
    /// # Errors
    /// [`SseError::Storage`] while a writer is active on this shard or
    /// records are staged: a swap under either would strand replies or
    /// split one order over two journals. Nothing is changed.
    pub(crate) fn replace_journal(&self, journal: IndexJournal) -> Result<()> {
        let mut state = self.state.lock();
        check_quiet(&state, "journal swap")?;
        state.next_seq = journal.next_seq();
        *self.journal.lock() = journal;
        state.poisoned = None;
        Ok(())
    }
}

/// Steps the writer down if [`GroupCommitter::write_pending`] unwinds, so
/// the shard is not left with a writer that never writes again.
struct Writer<'a>(Option<&'a GroupCommitter>);

impl Drop for Writer<'_> {
    fn drop(&mut self) {
        if let Some(committer) = self.0 {
            committer.state.lock().writing = false;
        }
    }
}

/// Refuse `what` while a writer is active or records are staged.
fn check_quiet(state: &CommitState, what: &str) -> Result<()> {
    if state.writing || !state.pending.is_empty() {
        return Err(SseError::Storage(sse_storage::StorageError::Io(
            std::io::Error::other(format!("{what} while mutations are in flight")),
        )));
    }
    Ok(())
}

/// Exclusive access to a committer's stage queue; see
/// [`GroupCommitter::lock`].
pub(crate) struct StageGuard<'a> {
    state: MutexGuard<'a, CommitState>,
    committer: &'a GroupCommitter,
}

impl StageGuard<'_> {
    /// The seq the next [`StageGuard::stage`] call will assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.state.next_seq
    }

    /// Why this shard's journal was disabled, if a group commit failed.
    /// Stable while the guard is held: poisoning requires the state lock.
    /// Coordinators check every affected shard before staging anything,
    /// so a dead shard never strands a half-staged batch.
    pub(crate) fn poisoned(&self) -> Option<&str> {
        self.state.poisoned.as_deref()
    }

    /// Stage one shard-local mutation, assigning and returning its seq.
    /// `record` is moved in, not copied; `shards` is the batch's shard set
    /// (`None`: a single-shard mutation).
    pub(crate) fn stage(
        &mut self,
        record: Vec<u8>,
        batch: BatchId,
        shards: Option<Arc<[u32]>>,
        reply: Option<Reply>,
    ) -> u64 {
        debug_assert!(self.state.poisoned.is_none(), "checked by the caller");
        let seq = self.state.next_seq;
        self.state.next_seq = seq + 1;
        // Raised under the stage lock, before any writer can cut it.
        self.committer.parked.fetch_add(1, Ordering::AcqRel);
        self.state.pending.push(Staged {
            seq,
            record,
            batch,
            shards,
            reply,
            failed: None,
            parked: Arc::clone(&self.committer.parked),
        });
        seq
    }
}

/// The error a mutation gets when its shard's journal is (or just went)
/// dead.
pub(crate) fn journal_dead(msg: &str) -> SseError {
    SseError::Storage(sse_storage::StorageError::Io(std::io::Error::other(
        format!("shard journal disabled by failed group commit: {msg}"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sse_storage::{FaultVfs, RealVfs, Vfs, VfsFile};
    use std::io;
    use std::path::{Path, PathBuf};

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sse-commit-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.wal")
    }

    fn committer(journal: IndexJournal) -> GroupCommitter {
        GroupCommitter::new(journal, Arc::default(), Arc::default())
    }

    fn durable_committer(path: &Path) -> GroupCommitter {
        let (journal, _) = IndexJournal::open_with_vfs(RealVfs::arc(), path, true, 0).unwrap();
        committer(journal)
    }

    /// Stage `requests` as single-shard records of shard 0.
    fn stage_all(c: &GroupCommitter, requests: &[&[u8]]) -> Vec<u64> {
        let mut guard = c.lock();
        requests
            .iter()
            .map(|r| {
                let batch = BatchId {
                    coordinator: 0,
                    seq: guard.next_seq(),
                };
                guard.stage(r.to_vec(), batch, None, None)
            })
            .collect()
    }

    /// Write everything staged; the groups, in the order written.
    fn flush(c: &GroupCommitter) -> Vec<Vec<Staged>> {
        let mut groups = Vec::new();
        c.write_pending(|group| groups.push(group));
        groups
    }

    #[test]
    fn a_cut_is_one_write_and_one_fsync_and_replays_in_order() {
        let path = temp_journal("group");
        let c = durable_committer(&path);
        assert_eq!(stage_all(&c, &[b"op-0", b"op-1", b"op-2"]), [1, 2, 3]);
        let groups = flush(&c);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
        assert!(groups[0].iter().all(|r| r.failed.is_none()));
        assert_eq!(groups[0][1].record, b"op-1");
        assert_eq!(stage_all(&c, &[b"op-3"]), [4]);
        flush(&c);
        assert!(flush(&c).is_empty(), "nothing left to cut");
        let counters = c.stats.counters();
        assert_eq!(counters.groups_committed, 2, "one fsync per non-empty cut");
        assert_eq!(counters.ops_committed, 4);
        assert_eq!(counters.max_group, 3);
        assert_eq!(counters.fsyncs_saved, 2);
        drop(groups);
        drop(c);

        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        let want: Vec<Vec<u8>> = (0..4).map(|i| format!("op-{i}").into_bytes()).collect();
        assert_eq!(rec.replay().collect::<Vec<_>>(), want);
    }

    #[test]
    fn a_group_is_the_bytes_of_one_append_per_record() {
        let path = temp_journal("bytes");
        let c = durable_committer(&path);
        let shards: Arc<[u32]> = Arc::from([0, 2]);
        let slice_of = BatchId {
            coordinator: 0,
            seq: 2,
        };
        {
            let mut guard = c.lock();
            let own = BatchId {
                coordinator: 0,
                seq: 1,
            };
            guard.stage(b"plain".to_vec(), own, None, None);
            guard.stage(b"slice".to_vec(), slice_of, Some(Arc::clone(&shards)), None);
        }
        assert_eq!(flush(&c).len(), 1, "one group");
        drop(c);

        let reference = temp_journal("bytes-reference");
        let (mut j, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &reference, true, 0).unwrap();
        j.append(b"plain").unwrap();
        let mut slice = Vec::new();
        crate::shard::put_slice_header(&mut slice, slice_of, &shards);
        slice.extend_from_slice(b"slice");
        j.append(&slice).unwrap();
        drop(j);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&reference).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "a group must start")]
    fn a_group_must_start_at_the_journals_next_seq() {
        let c = durable_committer(&temp_journal("first-seq"));
        stage_all(&c, &[b"seq 1"]);
        let groups = flush(&c);
        let other = temp_journal("first-seq-other");
        let (mut j, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &other, true, 0).unwrap();
        j.append(b"took seq 1").unwrap();
        let _ = j.append_group(&groups[0]);
    }

    #[test]
    fn the_writer_takes_what_was_staged_during_its_write_before_stepping_down() {
        let path = temp_journal("loop");
        let c = durable_committer(&path);
        stage_all(&c, &[b"first"]);
        let mut groups = Vec::new();
        assert!(c.write_pending(|group| {
            if groups.is_empty() {
                // Staged while this shard has a writer: another flush finds
                // it busy and leaves the record to the writer.
                stage_all(&c, &[b"behind-a", b"behind-b"]);
                assert!(!c.write_pending(|_| unreachable!()));
            }
            groups.push(group);
        }));
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, [1, 2]);
        assert_eq!(c.stats.counters().groups_committed, 2);
        assert!(!c.write_pending(|_| unreachable!()), "stepped down empty");
    }

    /// Runs once, on the thread that reached the armed sync.
    type SyncHook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

    /// `inner`, except that the first file sync after the hook is armed
    /// runs it first: mid-write, after the group's write and before its
    /// fsync, with the writer holding the journal but not the stage lock.
    struct SyncHookVfs {
        inner: FaultVfs,
        hook: SyncHook,
    }

    struct SyncHookFile {
        inner: Box<dyn VfsFile>,
        hook: SyncHook,
    }

    impl SyncHookVfs {
        fn wrap(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
            let hook = Arc::clone(&self.hook);
            Box::new(SyncHookFile { inner, hook })
        }
    }

    impl VfsFile for SyncHookFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.inner.write_all(buf)
        }

        fn sync_data(&mut self) -> io::Result<()> {
            let hook = self.hook.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            self.inner.sync_data()
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }

        fn seek_to(&mut self, pos: u64) -> io::Result<()> {
            self.inner.seek_to(pos)
        }
    }

    impl Vfs for SyncHookVfs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }

        fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
            self.inner.file_len(path)
        }

        fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            Ok(self.wrap(self.inner.open_write(path)?))
        }

        fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            Ok(self.wrap(self.inner.create(path)?))
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }

        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }

        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            self.inner.sync_dir(path)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
    }

    #[test]
    fn a_failed_write_poisons_the_group_and_everything_behind_it() {
        let path = temp_journal("poison");
        // First sync call dies (and all I/O after it).
        let hook = SyncHook::default();
        let vfs: Arc<dyn Vfs> = Arc::new(SyncHookVfs {
            inner: FaultVfs::crashing_at_sync(7, 1),
            hook: Arc::clone(&hook),
        });
        let (journal, _) = IndexJournal::open_with_vfs(vfs, &path, true, 0).unwrap();
        let c = Arc::new(committer(journal));
        stage_all(&c, &[b"doomed-a", b"doomed-b"]);
        // Staged while the failing group is in flight, before its failure
        // poisons the shard (as `IndexEngine::mutate` would, finding the
        // shard healthy): it fails at the next cut, without a write.
        let behind = Arc::clone(&c);
        *hook.lock() = Some(Box::new(move || {
            stage_all(&behind, &[b"behind"]);
        }));
        let groups = flush(&c);
        assert_eq!(groups.len(), 2);
        let msg = groups[0][0].failed.clone().expect("the group failed");
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(groups[0].iter().all(|r| r.failed.as_ref() == Some(&msg)));
        assert_eq!(groups[1][0].failed.as_ref(), Some(&msg));
        assert!(c.lock().poisoned().is_some());
        assert!(c.reset_journal().is_err());
        assert_eq!(c.stats.counters().groups_committed, 0);
    }

    #[test]
    fn replace_journal_clears_poison_and_resumes_dense_seqs() {
        let path = temp_journal("replace");
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::crashing_at_sync(7, 1));
        let (journal, _) = IndexJournal::open_with_vfs(vfs, &path, true, 0).unwrap();
        let c = committer(journal);
        stage_all(&c, &[b"doomed"]);
        assert!(flush(&c)[0][0].failed.is_some());

        // Repair: re-open a fresh journal (as if the applied state were
        // re-persisted with snapshot_seq = applied_seq) and install it.
        let _ = std::fs::remove_file(&path);
        let (fresh, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        c.replace_journal(fresh).unwrap();
        assert!(c.lock().poisoned().is_none());
        // The failed seq is reclaimed: staging resumes densely from 1.
        assert_eq!(stage_all(&c, &[b"after repair"]), [1]);
        assert!(flush(&c)[0][0].failed.is_none());
        drop(c);
        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        assert_eq!(rec.replay().collect::<Vec<_>>(), [b"after repair"]);
    }

    #[test]
    fn journal_swaps_and_resets_refuse_a_writer_in_progress() {
        let path = temp_journal("swap-mid-write");
        let c = durable_committer(&path);
        stage_all(&c, &[b"staged-not-flushed"]);
        let err = c.reset_journal().unwrap_err();
        assert!(err.to_string().contains("in flight"), "{err}");

        // Inside `done` the writer is still active: its group is written
        // and the next cut has not run.
        c.write_pending(|_| {
            let (other, _) = IndexJournal::open_with_vfs(
                RealVfs::arc(),
                &temp_journal("swap-mid-write-other"),
                true,
                0,
            )
            .unwrap();
            let err = c.replace_journal(other).unwrap_err();
            assert!(err.to_string().contains("in flight"), "{err}");
            assert!(c.reset_journal().is_err());
        });
        // Stepped down: the group went into the journal it was cut for.
        c.reset_journal().unwrap();
        drop(c);
        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        assert_eq!(rec.replay().count(), 0, "reset after the write");
    }

    #[test]
    fn a_record_dropped_unreplied_sends_an_error_and_unparks() {
        let c = durable_committer(&temp_journal("abandoned"));
        let mut slot = ReplySlot::default();
        {
            let mut guard = c.lock();
            let batch = BatchId {
                coordinator: 0,
                seq: guard.next_seq(),
            };
            guard.stage(b"never flushed".to_vec(), batch, None, Some(slot.reply()));
        }
        assert_eq!(c.parked.load(Ordering::Acquire), 1);
        drop(c);
        let reply = slot.wait().expect("the drop replied");
        assert!(proto_common::decode_ack(&reply).is_err());
    }

    #[test]
    fn reply_slots_hand_the_reply_to_the_waiting_caller() {
        let mut slot = ReplySlot::default();
        let reply = slot.reply();
        std::thread::spawn(move || reply(b"ack".to_vec()));
        assert_eq!(slot.wait(), Some(b"ack".to_vec()));
        assert_eq!(ReplySlot::default().wait(), None);
    }
}
