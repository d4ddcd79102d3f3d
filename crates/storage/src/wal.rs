//! Write-ahead log with CRC-framed records and torn-tail recovery.
//!
//! Record framing: `[len: u32][crc32(payload): u32][payload]`, written by
//! one loop, [`Wal::append_batch`], and parsed by one function, [`walk`].
//! The first record whose frame is incomplete or
//! whose checksum mismatches ends the valid prefix: everything before it
//! is durable, and [`Wal::open_with_vfs`] truncates the rest and replays
//! the prefix from its one read. This is the standard redo-log contract:
//! an operation is durable once `append` (with sync) returns.
//!
//! All file I/O goes through a [`crate::vfs::Vfs`], so the WAL can run over
//! the real filesystem or a fault-injecting one. Each `append` issues the
//! whole frame as **one** `write_all` — a single crash point per record —
//! so a torn append always tears inside one CRC-framed record and recovery
//! truncates exactly that record.

use crate::crc32::crc32;
use crate::durable::read_if_exists;
use crate::error::{Result, StorageError};
use crate::vfs::{RealVfs, Vfs, VfsFile};
use std::ops::Range;
use std::path::Path;
use std::path::PathBuf;
use std::sync::Arc;

/// Append-only write-ahead log backed by a file.
pub struct Wal {
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Durable length in bytes (end of the last valid record).
    len: u64,
    /// Bytes of torn tail truncated when this log was opened.
    torn_bytes_truncated: u64,
    /// Whether `append` fsyncs. Experiments disable it; the store's
    /// durability tests enable it.
    sync_on_append: bool,
}

impl Wal {
    /// [`Wal::open_with_vfs`] on the real filesystem, dropping the records.
    ///
    /// # Errors
    /// I/O errors from the filesystem.
    pub fn open(path: &Path, sync_on_append: bool) -> Result<Self> {
        Ok(Self::open_with_vfs(RealVfs::arc(), path, sync_on_append)?.0)
    }

    /// Open (or create) the log at `path`: read it once, truncate it to its
    /// valid prefix and hand back that prefix's records for replay.
    ///
    /// # Errors
    /// I/O errors from the VFS (including injected faults).
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        sync_on_append: bool,
    ) -> Result<(Self, Replay)> {
        let image = read_if_exists(vfs.as_ref(), path)?.unwrap_or_default();
        let WalWalk {
            records, valid_len, ..
        } = walk(&image);
        let mut file = vfs.open_write(path)?;
        file.set_len(valid_len)?;
        file.seek_to(valid_len)?;
        let wal = Wal {
            path: path.to_path_buf(),
            file,
            len: valid_len,
            torn_bytes_truncated: image.len() as u64 - valid_len,
            sync_on_append,
        };
        Ok((wal, Replay { image, records }))
    }

    /// Length in bytes of the durable prefix.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Bytes of torn tail discarded when this log was opened (0 for a
    /// cleanly closed log).
    #[must_use]
    pub fn torn_bytes_truncated(&self) -> u64 {
        self.torn_bytes_truncated
    }

    /// Append one record; durable on return when `sync_on_append` is set.
    /// The one-record case of [`Wal::append_batch`]: a single write.
    ///
    /// # Errors
    /// I/O errors from the filesystem.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.append_batch(&[[payload]])
    }

    /// Append a *group* of records as one write syscall (and, when
    /// `sync_on_append` is set, one `sync_data` for the whole group) — the
    /// group-commit fast path and this log's one framing loop. Each record
    /// is given as scattered segments (an iovec): the frame header and
    /// payload are assembled directly into the group buffer, so callers
    /// never concatenate per-record `Vec`s first.
    ///
    /// Every record keeps its own CRC frame, so a crash that tears the
    /// group write tears inside exactly one record and recovery truncates
    /// to a record-prefix of the group. Because the whole group is a
    /// single `write_all`, there is a single crash point per group.
    ///
    /// # Errors
    /// I/O errors from the filesystem. On error nothing in the group is
    /// considered durable (`len` does not advance).
    pub fn append_batch<'s, R: AsRef<[&'s [u8]]>>(&mut self, records: &[R]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut total = 0usize;
        for segments in records {
            total += 8 + segments.as_ref().iter().map(|s| s.len()).sum::<usize>();
        }
        let mut buf = Vec::with_capacity(total);
        for segments in records {
            let header_at = buf.len();
            buf.extend_from_slice(&[0u8; 8]);
            for segment in segments.as_ref() {
                buf.extend_from_slice(segment);
            }
            let payload = &buf[header_at + 8..];
            let len = u32::try_from(payload.len()).map_err(|_| StorageError::RecordTooLarge {
                size: buf.len() - header_at - 8,
                max: u32::MAX as usize,
            })?;
            let crc = crc32(payload);
            buf[header_at..header_at + 4].copy_from_slice(&len.to_le_bytes());
            buf[header_at + 4..header_at + 8].copy_from_slice(&crc.to_le_bytes());
        }
        self.file.write_all(&buf)?;
        if self.sync_on_append {
            self.file.sync_data()?;
        }
        self.len += buf.len() as u64;
        Ok(())
    }

    /// Read every valid record from the start of the log on the real
    /// filesystem, without opening it for appends.
    ///
    /// # Errors
    /// I/O errors from the filesystem. Torn tails are not errors; they
    /// simply end the iteration.
    pub fn replay(path: &Path) -> Result<Vec<Vec<u8>>> {
        let image = read_if_exists(&RealVfs, path)?.unwrap_or_default();
        Ok(walk(&image)
            .records
            .into_iter()
            .map(|r| image[r].to_vec())
            .collect())
    }

    /// Truncate the log to empty (after a checkpoint has made its contents
    /// redundant).
    ///
    /// # Errors
    /// I/O errors from the filesystem.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.seek_to(0)?;
        self.file.sync_data()?;
        self.len = 0;
        Ok(())
    }

    /// Path of the backing file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The records [`Wal::open_with_vfs`] recovered: the log image it read
/// and the payload ranges of the image's valid prefix.
pub struct Replay {
    image: Vec<u8>,
    records: Vec<Range<usize>>,
}

impl Replay {
    /// Every recovered record, in log order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.records.iter().map(|r| &self.image[r.clone()])
    }
}

/// What a [`walk`] found in a log image.
///
/// The distinction matters to a background scrub: a torn tail is the
/// normal residue of a crash (or of reading a live log mid-append) and is
/// *repairable* — recovery truncates it. A checksum mismatch **followed by
/// a valid record** can never be produced by a torn append (each record is
/// one `write_all`), so it is confirmed mid-log corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalVerdict {
    /// Every byte belongs to a CRC-valid record.
    Clean {
        /// Number of valid records.
        records: u64,
    },
    /// A valid prefix followed by an incomplete or checksum-failing final
    /// frame — repairable by truncation (and possibly just an append in
    /// progress when scanning a live log).
    TornTail {
        /// Number of valid records before the tear.
        records: u64,
        /// Bytes past the valid prefix.
        torn_bytes: u64,
    },
    /// A checksum-failing frame with a valid record after it: damage in
    /// the middle of the durable prefix. Recovery would silently drop the
    /// records behind it, so a scrub must quarantine, not truncate.
    Corrupt {
        /// Byte offset of the damaged frame.
        at: u64,
    },
}

/// What one [`walk`] over a log image found.
#[derive(Clone, Debug)]
pub struct WalWalk {
    /// Payload ranges of the valid prefix's records, in log order.
    pub records: Vec<Range<usize>>,
    /// Byte length of the valid prefix: where an open truncates.
    pub valid_len: u64,
    /// The scrub's verdict on the whole image.
    pub verdict: WalVerdict,
}

/// Walk a log image once, frame by frame. The valid prefix ends at the
/// first frame that is incomplete or fails its CRC. The walk goes on past
/// a complete frame that fails its CRC: a torn append tears inside ONE
/// record, so a valid record found *after* the bad frame proves mid-log
/// damage ([`WalVerdict::Corrupt`]) rather than a torn tail.
///
/// Safe to run against a live log: appends only extend the image, so a
/// concurrent writer can at worst make the final frame look torn — never
/// corrupt.
#[must_use]
pub fn walk(buf: &[u8]) -> WalWalk {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut first_bad: Option<usize> = None;
    let mut valid_after_bad = false;
    // Start of the incomplete final frame, or the end of the image.
    let end = loop {
        if pos + 8 > buf.len() {
            break pos;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let body = pos + 8..pos + 8 + len;
        if body.end > buf.len() {
            break pos;
        }
        if crc32(&buf[body.clone()]) != crc {
            first_bad.get_or_insert(pos);
        } else if first_bad.is_none() {
            records.push(body.clone());
        } else {
            valid_after_bad = true;
        }
        pos = body.end;
    };
    let valid_len = first_bad.unwrap_or(end);
    let n = records.len() as u64;
    let verdict = match first_bad {
        Some(at) if valid_after_bad => WalVerdict::Corrupt { at: at as u64 },
        _ if valid_len == buf.len() => WalVerdict::Clean { records: n },
        _ => WalVerdict::TornTail {
            records: n,
            torn_bytes: (buf.len() - valid_len) as u64,
        },
    };
    WalWalk {
        records,
        valid_len: valid_len as u64,
        verdict,
    }
}

/// The scrub's [`WalVerdict`] on a log image: [`walk`]'s verdict.
#[must_use]
pub fn verify_image(buf: &[u8]) -> WalVerdict {
    walk(buf).verdict
}

/// [`verify_image`] over a file. A missing file is clean (nothing has
/// been journaled yet).
///
/// # Errors
/// I/O errors from the VFS.
pub fn verify_file(vfs: &dyn Vfs, path: &Path) -> Result<WalVerdict> {
    Ok(verify_image(
        &read_if_exists(vfs, path)?.unwrap_or_default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultConfig, FaultVfs};
    use std::io::Write;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sse-wal-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_and_replay() {
        let path = temp_path("basic");
        {
            let mut wal = Wal::open(&path, false).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.append(b"").unwrap();
        }
        let records = Wal::replay(&path).unwrap();
        assert_eq!(records, vec![b"first".to_vec(), b"second".to_vec(), vec![]]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = temp_path("missing");
        assert_eq!(Wal::replay(&path).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated_on_open() {
        let path = temp_path("torn");
        {
            let mut wal = Wal::open(&path, false).unwrap();
            wal.append(b"durable").unwrap();
        }
        // Simulate a crash mid-write: append garbage that looks like the
        // start of a frame but is incomplete.
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap(); // len
            f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap(); // bogus crc
            f.write_all(b"only a few bytes").unwrap(); // short body
        }
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"durable".to_vec()]);
        // Re-opening truncates the tail and appending continues cleanly.
        {
            let mut wal = Wal::open(&path, false).unwrap();
            assert_eq!(wal.torn_bytes_truncated(), 24);
            wal.append(b"after recovery").unwrap();
        }
        assert_eq!(
            Wal::replay(&path).unwrap(),
            vec![b"durable".to_vec(), b"after recovery".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_record_stops_replay() {
        let path = temp_path("corrupt");
        {
            let mut wal = Wal::open(&path, false).unwrap();
            wal.append(b"good one").unwrap();
            wal.append(b"will be corrupted").unwrap();
            wal.append(b"unreachable").unwrap();
        }
        // Flip a byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload_start = 8 + b"good one".len() + 8;
        bytes[second_payload_start + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"good one".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_path("reset");
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(b"ephemeral").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        wal.append(b"fresh").unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"fresh".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn large_records_survive() {
        let path = temp_path("large");
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        {
            let mut wal = Wal::open(&path, false).unwrap();
            wal.append(&big).unwrap();
        }
        assert_eq!(Wal::replay(&path).unwrap(), vec![big]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_mode_appends_work() {
        let path = temp_path("sync");
        let mut wal = Wal::open(&path, true).unwrap();
        wal.append(b"synced").unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"synced".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_append_recovers_to_previous_record() {
        // A FaultVfs tears the second append mid-frame; reopening must
        // recover exactly the first record and report the torn bytes.
        let path = temp_path("fault-torn");
        let vfs = Arc::new(FaultVfs::new(
            RealVfs::arc(),
            FaultConfig {
                seed: 99,
                torn_write_at: Some(2),
                ..FaultConfig::default()
            },
        ));
        {
            let mut wal = Wal::open_with_vfs(vfs.clone(), &path, false).unwrap().0;
            wal.append(b"kept").unwrap();
            assert!(wal.append(b"torn away entirely").is_err());
        }
        let mut wal = Wal::open(&path, false).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![b"kept".to_vec()]);
        // Appending after recovery continues cleanly.
        wal.append(b"next").unwrap();
        drop(wal);
        assert_eq!(
            Wal::replay(&path).unwrap(),
            vec![b"kept".to_vec(), b"next".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_batch_round_trips_with_scattered_segments() {
        let path = temp_path("batch");
        {
            let mut wal = Wal::open(&path, false).unwrap();
            // Records assembled from multiple segments (header + body).
            let group: [&[&[u8]]; 3] = [
                &[b"alpha-".as_slice(), b"one".as_slice()],
                &[b"beta".as_slice()],
                &[b"".as_slice()],
            ];
            wal.append_batch(&group).unwrap();
            wal.append(b"tail").unwrap();
        }
        assert_eq!(
            Wal::replay(&path).unwrap(),
            vec![
                b"alpha-one".to_vec(),
                b"beta".to_vec(),
                vec![],
                b"tail".to_vec()
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_batch_matches_per_record_appends_byte_for_byte() {
        let a = temp_path("batch-eq-a");
        let b = temp_path("batch-eq-b");
        {
            let mut wal = Wal::open(&a, false).unwrap();
            wal.append_batch(&[&[b"first".as_slice()], &[b"second".as_slice()]])
                .unwrap();
        }
        {
            let mut wal = Wal::open(&b, false).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let path = temp_path("batch-empty");
        let mut wal = Wal::open(&path, true).unwrap();
        wal.append_batch::<&[&[u8]]>(&[]).unwrap();
        assert_eq!(wal.len_bytes(), 0);
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap(), Vec::<Vec<u8>>::new());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_group_write_recovers_to_a_record_prefix() {
        // A group of 4 records is one write; tearing it at every possible
        // seed must leave a valid *record prefix* of the group (never a
        // partially-applied record).
        let records: Vec<Vec<u8>> = (0..4)
            .map(|i| format!("group-record-{i}").into_bytes())
            .collect();
        for seed in 0..16u64 {
            let path = temp_path(&format!("batch-torn-{seed}"));
            let vfs = Arc::new(FaultVfs::new(
                RealVfs::arc(),
                FaultConfig {
                    seed,
                    torn_write_at: Some(2),
                    ..FaultConfig::default()
                },
            ));
            {
                let mut wal = Wal::open_with_vfs(vfs, &path, false).unwrap().0;
                wal.append(b"before-group").unwrap();
                let refs: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
                let group: Vec<&[&[u8]]> = refs.iter().map(std::slice::from_ref).collect();
                assert!(wal.append_batch(&group).is_err());
            }
            let replayed = Wal::replay(&path).unwrap();
            assert!(!replayed.is_empty() && replayed[0] == b"before-group");
            let group_part = &replayed[1..];
            assert!(group_part.len() <= records.len(), "seed {seed}");
            for (i, r) in group_part.iter().enumerate() {
                assert_eq!(r, &records[i], "seed {seed}: prefix property violated");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn verify_distinguishes_clean_torn_and_corrupt() {
        let path = temp_path("verify");
        {
            let mut wal = Wal::open(&path, false).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.append(b"third").unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(verify_image(&clean), WalVerdict::Clean { records: 3 });
        assert_eq!(verify_image(&[]), WalVerdict::Clean { records: 0 });

        // Truncate inside the last record: torn tail, repairable.
        let torn = &clean[..clean.len() - 3];
        assert_eq!(
            verify_image(torn),
            WalVerdict::TornTail {
                records: 2,
                torn_bytes: (torn.len() - (clean.len() - (8 + b"third".len()))) as u64,
            }
        );

        // Flip a byte inside the FINAL record's payload: structurally
        // complete but checksum-failing, with nothing valid after — still
        // only a torn tail (a torn overwrite can produce exactly this).
        let mut tail_bad = clean.clone();
        let third_body = clean.len() - b"third".len();
        tail_bad[third_body + 1] ^= 0x10;
        assert!(matches!(
            verify_image(&tail_bad),
            WalVerdict::TornTail { records: 2, .. }
        ));

        // Flip a byte inside the SECOND record's payload: a valid record
        // follows the damage, so this is confirmed mid-log corruption.
        let mut mid_bad = clean.clone();
        let second_body = 8 + b"first".len() + 8;
        mid_bad[second_body + 2] ^= 0x40;
        let first_frame_len = (8 + b"first".len()) as u64;
        assert_eq!(
            verify_image(&mid_bad),
            WalVerdict::Corrupt {
                at: first_frame_len
            }
        );

        // verify_file mirrors verify_image; a missing file is clean.
        assert_eq!(
            verify_file(&RealVfs, &path).unwrap(),
            WalVerdict::Clean { records: 3 }
        );
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            verify_file(&RealVfs, &path).unwrap(),
            WalVerdict::Clean { records: 0 }
        );
    }

    #[test]
    fn crash_at_every_append_point_preserves_prefix() {
        // For each k, crash at write k of a 5-record workload; replay must
        // yield exactly the first k-1 records (write k tears).
        for k in 1..=5u64 {
            let path = temp_path(&format!("crash-{k}"));
            let vfs = Arc::new(FaultVfs::crashing_at(k, k));
            let mut wal = Wal::open_with_vfs(vfs, &path, false).unwrap().0;
            let mut completed = 0u64;
            for i in 0..5u64 {
                match wal.append(format!("record-{i}").as_bytes()) {
                    Ok(()) => completed += 1,
                    Err(_) => break,
                }
            }
            assert_eq!(completed, k - 1);
            let records = Wal::replay(&path).unwrap();
            assert_eq!(records.len() as u64, completed, "crash point {k}");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r, format!("record-{i}").as_bytes());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
