//! Index write-ahead journal: LSN-stamped protocol requests.
//!
//! Both schemes' index mutations are **not idempotent**: re-applying a
//! Scheme 1 `ApplyUpdates` XOR-cancels the delta back out, and re-applying
//! a Scheme 2 `AppendGenerations` duplicates generations. A plain redo log
//! would therefore corrupt the index whenever a crash lands between the
//! snapshot and the log reset. The journal solves this with log sequence
//! numbers: every record is `[op_seq: u64 LE][request bytes]`, the index
//! snapshot stores the last `op_seq` it covers, and recovery re-applies
//! only records *newer* than the snapshot.
//!
//! This module alone writes and reads the stamp. A record is framed once,
//! from segments its writer holds; recovery reads records in place from
//! the journal image the open read ([`JournalRecovery`]).
//!
//! Protocol: the server appends to the journal **before** mutating the
//! in-memory index, so an acknowledged mutation is always durable and a
//! crash mid-append tears inside one CRC-framed record (truncated on
//! reopen). Checkpointing writes the snapshot (carrying `last_op_seq`)
//! and then resets the journal; a crash between those two steps is safe
//! because replay skips everything the snapshot already covers.

use crate::commit::Staged;
use crate::error::Result;
use crate::shard;
use sse_storage::wal::{Replay, Wal};
use sse_storage::Vfs;
use std::path::Path;
use std::sync::Arc;

/// What [`IndexJournal::open_with_vfs`] found on disk: the journal image
/// it read, whose records are borrowed from it.
pub struct JournalRecovery {
    log: Replay,
    snapshot_seq: u64,
    /// Bytes of torn tail truncated from the journal file.
    pub torn_bytes_truncated: u64,
}

impl JournalRecovery {
    /// Every record on disk as `(op_seq, request bytes)`, in log order,
    /// the snapshot's too: a batch slice commits only if every sibling
    /// shard *journaled* its slice ([`crate::shard`]).
    pub fn records(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.log.records().map(|record| {
            let (seq, request) = record.split_first_chunk::<8>().expect("checked at open");
            (u64::from_le_bytes(*seq), request)
        })
    }

    /// The request bytes of the records newer than the snapshot, in log
    /// order — exactly the mutations the caller must re-apply.
    pub fn replay(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.records()
            .filter(|&(seq, _)| seq > self.snapshot_seq)
            .map(|(_, request)| request)
    }
}

/// Combined recovery evidence from a durable scheme server's open —
/// what the document store and the index journal each had to repair.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerRecovery {
    /// Index mutations re-applied from the journal.
    pub index_ops_replayed: u64,
    /// Batch slices rolled back: a sibling shard never journaled its own.
    pub index_slices_dropped: u64,
    /// Torn bytes truncated from the index journal's tail.
    pub index_torn_bytes: u64,
    /// Whether the document store loaded a snapshot.
    pub store_snapshot_loaded: bool,
    /// WAL records the document store re-applied.
    pub store_wal_records_replayed: u64,
    /// Torn bytes truncated from the document-store WAL's tail.
    pub store_torn_bytes: u64,
}

impl ServerRecovery {
    /// True when opening found crash evidence (replayed ops, a rolled-back
    /// batch or torn tails).
    #[must_use]
    pub fn recovered_anything(&self) -> bool {
        self.index_ops_replayed > 0
            || self.index_slices_dropped > 0
            || self.store_wal_records_replayed > 0
            || self.index_torn_bytes > 0
            || self.store_torn_bytes > 0
    }

    /// Total torn bytes truncated across both logs.
    #[must_use]
    pub fn torn_bytes(&self) -> u64 {
        self.index_torn_bytes + self.store_torn_bytes
    }
}

/// An append-only journal of index mutations, each stamped with a
/// monotonically increasing operation sequence number.
pub struct IndexJournal {
    wal: Wal,
    next_seq: u64,
}

impl IndexJournal {
    /// Open (or create) the journal at `path`, replaying records newer
    /// than `snapshot_seq` (the `last_op_seq` recorded by the index
    /// snapshot, or 0 when there is no snapshot).
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults), or a corrupt
    /// record shorter than its sequence-number header.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        sync_on_append: bool,
        snapshot_seq: u64,
    ) -> Result<(Self, JournalRecovery)> {
        let (wal, log) = Wal::open_with_vfs(vfs, path, sync_on_append)?;
        let mut max_seq = snapshot_seq;
        for record in log.records() {
            let Some((seq, _)) = record.split_first_chunk::<8>() else {
                return Err(sse_storage::StorageError::Corrupt {
                    what: "index journal record",
                    detail: format!("record of {} bytes lacks op_seq header", record.len()),
                }
                .into());
            };
            max_seq = max_seq.max(u64::from_le_bytes(*seq));
        }
        let recovery = JournalRecovery {
            log,
            snapshot_seq,
            torn_bytes_truncated: wal.torn_bytes_truncated(),
        };
        Ok((
            IndexJournal {
                wal,
                next_seq: max_seq + 1,
            },
            recovery,
        ))
    }

    /// Append one request, assigning and returning its sequence number.
    /// Durable on return (subject to the journal's sync policy).
    ///
    /// The seq stamp and request bytes are the frame's two segments, so
    /// the request is copied once, into the frame.
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults). On error the
    /// sequence number is *not* consumed.
    pub fn append(&mut self, request: &[u8]) -> Result<u64> {
        let seq = self.next_seq;
        let stamp = seq.to_le_bytes();
        self.wal.append_batch(&[[&stamp[..], request]])?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Append a group of staged records as one write + one fsync, each
    /// framed from its seq stamp and batch-slice header (one segment) and
    /// its staged bytes. Seqs are assigned at stage time (so cross-shard
    /// batch ids are known before the write); the group must start at
    /// this journal's `next_seq` — group order and journal order are one.
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults). On error no
    /// sequence number is consumed and nothing in the group is durable.
    ///
    /// # Panics
    /// Panics if the group is empty or does not start at the journal's
    /// `next_seq` — that is a committer bug, not a runtime condition.
    pub(crate) fn append_group(&mut self, group: &[Staged]) -> Result<()> {
        assert_eq!(
            group[0].seq, self.next_seq,
            "a group must start at the journal's next_seq"
        );
        let head_len = |r: &Staged| 8 + r.shards.as_deref().map_or(0, shard::slice_header_len);
        let mut heads = Vec::with_capacity(group.iter().map(head_len).sum());
        for r in group {
            heads.extend_from_slice(&r.seq.to_le_bytes());
            if let Some(shards) = &r.shards {
                shard::put_slice_header(&mut heads, r.batch, shards);
            }
        }
        let mut rest = heads.as_slice();
        let frames: Vec<[&[u8]; 2]> = group
            .iter()
            .map(|r| {
                let (head, tail) = rest.split_at(head_len(r));
                rest = tail;
                [head, r.record.as_slice()]
            })
            .collect();
        self.wal.append_batch(&frames)?;
        self.next_seq += group.len() as u64;
        Ok(())
    }

    /// The sequence number the next [`IndexJournal::append`] will assign.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the last appended record (what a snapshot
    /// taken *now* should record as `last_op_seq`).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Truncate the journal after a checkpoint. Sequence numbers keep
    /// increasing — they are never reused across a reset.
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults).
    pub fn reset(&mut self) -> Result<()> {
        self.wal.reset()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sse_storage::RealVfs;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sse-journal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("index.wal")
    }

    #[test]
    fn seq_numbers_are_monotonic_and_replay_skips_snapshot() {
        let path = temp_path("monotonic");
        let (mut j, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        assert_eq!(rec.records().count(), 0);
        assert_eq!(j.append(b"op-a").unwrap(), 1);
        assert_eq!(j.append(b"op-b").unwrap(), 2);
        assert_eq!(j.append(b"op-c").unwrap(), 3);
        drop(j);

        // Snapshot covered up to seq 2: only op-c replays.
        let (j2, rec2) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 2).unwrap();
        assert_eq!(rec2.replay().collect::<Vec<_>>(), [b"op-c"]);
        let seqs: Vec<u64> = rec2.records().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, [1, 2, 3], "the covered records stay readable");
        assert_eq!(j2.next_seq(), 4);
    }

    #[test]
    fn reset_preserves_seq_progression() {
        let path = temp_path("reset");
        let (mut j, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        j.reset().unwrap();
        assert_eq!(j.append(b"three").unwrap(), 3);
        drop(j);

        // Snapshot at seq 2 (taken just before the reset): only seq 3 replays.
        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 2).unwrap();
        assert_eq!(rec.replay().collect::<Vec<_>>(), [b"three"]);
        assert_eq!(rec.records().count(), 1);
    }

    #[test]
    fn short_record_is_corrupt() {
        let path = temp_path("short");
        {
            let mut wal = Wal::open(&path, true).unwrap();
            wal.append(b"tiny").unwrap(); // 4 bytes: no room for op_seq
        }
        assert!(IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).is_err());
    }
}
