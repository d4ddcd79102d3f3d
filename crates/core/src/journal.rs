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
//! Protocol: the server appends to the journal **before** mutating the
//! in-memory index, so an acknowledged mutation is always durable and a
//! crash mid-append tears inside one CRC-framed record (truncated on
//! reopen). Checkpointing writes the snapshot (carrying `last_op_seq`)
//! and then resets the journal; a crash between those two steps is safe
//! because replay skips everything the snapshot already covers.

use crate::error::Result;
use sse_storage::wal::Wal;
use sse_storage::Vfs;
use std::path::Path;
use std::sync::Arc;

/// What [`IndexJournal::open_with_vfs`] found on disk.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Request bytes with `op_seq` greater than the snapshot's, in log
    /// order — exactly the mutations the caller must re-apply.
    pub replay: Vec<Vec<u8>>,
    /// Records skipped because the snapshot already covered them.
    pub skipped: u64,
    /// The request bytes of the skipped records, in log order. Cross-shard
    /// batch recovery ([`crate::shard::resolve_shard_recoveries`]) needs
    /// these: a batch slice replayed on one shard commits only if every
    /// sibling shard *journaled* its slice — whether or not the sibling's
    /// snapshot has since absorbed it.
    pub skipped_raw: Vec<Vec<u8>>,
    /// Bytes of torn tail truncated from the journal file.
    pub torn_bytes_truncated: u64,
}

/// Combined recovery evidence from a durable scheme server's open —
/// what the document store and the index journal each had to repair.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerRecovery {
    /// Index mutations re-applied from the journal.
    pub index_ops_replayed: u64,
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
    /// True when opening found crash evidence (replayed ops or torn tails).
    #[must_use]
    pub fn recovered_anything(&self) -> bool {
        self.index_ops_replayed > 0
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
        let mut recovery = JournalRecovery {
            torn_bytes_truncated: wal.torn_bytes_truncated(),
            ..JournalRecovery::default()
        };
        let mut max_seq = snapshot_seq;
        for record in log.records() {
            let Some((seq, request)) = record.split_first_chunk::<8>() else {
                return Err(sse_storage::StorageError::Corrupt {
                    what: "index journal record",
                    detail: format!("record of {} bytes lacks op_seq header", record.len()),
                }
                .into());
            };
            let seq = u64::from_le_bytes(*seq);
            if seq > snapshot_seq {
                recovery.replay.push(request.to_vec());
            } else {
                recovery.skipped += 1;
                recovery.skipped_raw.push(request.to_vec());
            }
            max_seq = max_seq.max(seq);
        }
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
    /// The seq header and request bytes go through the WAL's scattered
    /// (iovec) batch path, so the record is assembled once, directly in
    /// the frame buffer — no intermediate `[seq][request]` copy.
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults). On error the
    /// sequence number is *not* consumed.
    pub fn append(&mut self, request: &[u8]) -> Result<u64> {
        let seq = self.next_seq;
        let header = seq.to_le_bytes();
        self.wal.append_batch(&[&[&header, request]])?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Append a group of records that are **already stamped** with their
    /// sequence numbers (`[op_seq: u64 LE][request bytes]` each), as one
    /// write + one fsync. The group committer assigns seqs at stage time
    /// (so cross-shard batch ids are known before the write); `first_seq`
    /// is the seq stamped into `records[0]` and must equal this journal's
    /// `next_seq` — group order and journal order are the same order.
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults). On error no
    /// sequence number is consumed and nothing in the group is durable.
    ///
    /// # Panics
    /// Panics if `first_seq` disagrees with the journal's `next_seq` —
    /// that is a committer bug, not a runtime condition.
    pub fn append_stamped_batch(&mut self, records: &[&[u8]], first_seq: u64) -> Result<()> {
        assert_eq!(
            first_seq, self.next_seq,
            "stamped group must start at the journal's next_seq"
        );
        if records.is_empty() {
            return Ok(());
        }
        let group: Vec<&[&[u8]]> = records.iter().map(std::slice::from_ref).collect();
        self.wal.append_batch(&group)?;
        self.next_seq += records.len() as u64;
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
        assert!(rec.replay.is_empty());
        assert_eq!(j.append(b"op-a").unwrap(), 1);
        assert_eq!(j.append(b"op-b").unwrap(), 2);
        assert_eq!(j.append(b"op-c").unwrap(), 3);
        drop(j);

        // Snapshot covered up to seq 2: only op-c replays.
        let (j2, rec2) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 2).unwrap();
        assert_eq!(rec2.replay, vec![b"op-c".to_vec()]);
        assert_eq!(rec2.skipped, 2);
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
        assert_eq!(rec.replay, vec![b"three".to_vec()]);
        assert_eq!(rec.skipped, 0);
    }

    #[test]
    fn stamped_batch_replays_like_individual_appends() {
        let path = temp_path("stamped");
        let (mut j, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        let first = j.next_seq();
        assert_eq!(first, 1);
        let records: Vec<Vec<u8>> = (0..3u64)
            .map(|i| {
                let mut rec = (first + i).to_le_bytes().to_vec();
                rec.extend_from_slice(format!("grouped-{i}").as_bytes());
                rec
            })
            .collect();
        let refs: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        j.append_stamped_batch(&refs, first).unwrap();
        assert_eq!(j.next_seq(), 4);
        assert_eq!(j.append(b"solo").unwrap(), 4);
        drop(j);

        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        assert_eq!(
            rec.replay,
            vec![
                b"grouped-0".to_vec(),
                b"grouped-1".to_vec(),
                b"grouped-2".to_vec(),
                b"solo".to_vec()
            ]
        );
    }

    #[test]
    #[should_panic(expected = "stamped group must start")]
    fn stamped_batch_rejects_wrong_first_seq() {
        let path = temp_path("stamped-wrong");
        let (mut j, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        let rec = 7u64.to_le_bytes().to_vec();
        let _ = j.append_stamped_batch(&[rec.as_slice()], 7);
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
