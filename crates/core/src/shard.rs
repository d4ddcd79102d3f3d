//! Index sharding: tag-prefix shard routing, cross-shard batch journal
//! records, and the per-directory shard manifest.
//!
//! Both scheme servers partition their keyword index into N independently
//! locked shards so searches against distinct shards proceed in parallel
//! (and, in durable mode, so a search never queues behind another shard's
//! journal fsync). The shard of a keyword is a **public function of its
//! tag** `f_kw(w)`: the server only ever sees tags the client has already
//! revealed (in updates and trapdoors), so routing by tag prefix adds
//! nothing to the leakage profile — see DESIGN.md §4d.
//!
//! ## Cross-shard batches
//!
//! A batched mutation (`UPDATE_MANY`) that touches several shards must be
//! all-or-nothing across a crash even though each shard journals
//! independently. The journal records for such a batch are **slices**: each
//! affected shard journals `[SLICE_MAGIC][batch id][shard set][its own
//! sub-mutation]`, staged in ascending shard order with every affected
//! shard's stage lock held; this module alone writes and reads the header,
//! which the journal frames in front of the staged sub-mutation. On
//! recovery a replayed slice applies only if *every* shard in its set
//! journaled its slice (found in either the replay or the
//! already-snapshotted portion of that shard's journal) — a crash
//! mid-batch therefore rolls the whole batch back on every shard.
//!
//! `SLICE_MAGIC` (0x7E) is outside both schemes' request-tag ranges, so
//! plain journaled requests can never be misread as slices.

use crate::error::Result;
use crate::journal::JournalRecovery;
use sse_storage::durable::{read_stamp, write_stamp};
use sse_storage::{StorageError, Vfs};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// First byte of a batch-slice journal record. Chosen outside every
/// scheme-request tag range (Scheme 1 uses 0x01–0x09, Scheme 2 uses
/// 0x01 and 0x10–0x15).
pub const SLICE_MAGIC: u8 = 0x7E;

/// Route a 32-byte keyword tag to one of `shards` shards by its prefix.
///
/// The tag is PRF output, so any fixed prefix is uniformly distributed;
/// two bytes give even routing up to 65536 shards.
#[must_use]
pub fn shard_of(tag: &[u8; 32], shards: usize) -> usize {
    debug_assert!(shards >= 1);
    usize::from(u16::from_be_bytes([tag[0], tag[1]])) % shards.max(1)
}

/// Identity of one cross-shard batch: the coordinator shard (lowest
/// affected shard index) plus the journal sequence number the coordinator
/// assigned to its own slice. Unique because each shard's sequence numbers
/// are monotonic and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BatchId {
    /// Lowest affected shard index — the batch's coordinator.
    pub coordinator: u32,
    /// The coordinator's journal sequence number for its slice.
    pub seq: u64,
}

/// A decoded batch-slice journal record.
#[derive(Debug, PartialEq, Eq)]
pub struct SliceRecord<'a> {
    /// Which batch this slice belongs to.
    pub batch: BatchId,
    /// Every shard the batch touches (ascending, includes the coordinator).
    pub shards: Vec<u32>,
    /// The shard-local mutation request carried by this slice.
    pub inner: &'a [u8],
}

/// Bytes [`put_slice_header`] writes for a batch over `shard_set`.
#[must_use]
pub fn slice_header_len(shard_set: &[u32]) -> usize {
    17 + 4 * shard_set.len()
}

/// Write a batch slice's header, which its inner mutation follows:
/// `[SLICE_MAGIC][coordinator u32][seq u64][n_shards u32][shard u32 ...]`,
/// all little-endian.
pub fn put_slice_header(out: &mut Vec<u8>, batch: BatchId, shard_set: &[u32]) {
    out.push(SLICE_MAGIC);
    out.extend_from_slice(&batch.coordinator.to_le_bytes());
    out.extend_from_slice(&batch.seq.to_le_bytes());
    out.extend_from_slice(&(shard_set.len() as u32).to_le_bytes());
    for s in shard_set {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// Decode a journal record as a batch slice. Returns `Ok(None)` when the
/// record is a plain (non-slice) request.
///
/// # Errors
/// [`StorageError::Corrupt`] when the record starts with [`SLICE_MAGIC`]
/// but its header is malformed.
pub fn decode_slice(record: &[u8]) -> Result<Option<SliceRecord<'_>>> {
    if record.first() != Some(&SLICE_MAGIC) {
        return Ok(None);
    }
    let corrupt = |detail: &str| StorageError::Corrupt {
        what: "batch slice journal record",
        detail: detail.to_string(),
    };
    if record.len() < 17 {
        return Err(corrupt("header truncated").into());
    }
    let coordinator = u32::from_le_bytes(record[1..5].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(record[5..13].try_into().expect("8 bytes"));
    let n = u32::from_le_bytes(record[13..17].try_into().expect("4 bytes")) as usize;
    if n == 0 || n > (record.len() - 17) / 4 {
        return Err(corrupt("shard set exceeds record").into());
    }
    let mut shards = Vec::with_capacity(n);
    for i in 0..n {
        let at = 17 + 4 * i;
        shards.push(u32::from_le_bytes(
            record[at..at + 4].try_into().expect("4 bytes"),
        ));
    }
    Ok(Some(SliceRecord {
        batch: BatchId { coordinator, seq },
        shards,
        inner: &record[17 + 4 * n..],
    }))
}

/// Per-shard mutation replay lists after cross-shard batch resolution,
/// borrowed from the journal images.
#[derive(Debug, Default)]
pub struct ShardReplayPlan<'a> {
    /// For each shard, the shard-local request bytes to re-apply in log
    /// order (slices already unwrapped to their inner mutation).
    pub apply: Vec<Vec<&'a [u8]>>,
    /// Batch slices discarded because a sibling shard never journaled its
    /// slice — the crash landed mid-batch, so the whole batch rolls back.
    pub incomplete_slices_dropped: u64,
}

/// Resolve the per-shard [`JournalRecovery`] results of one server into
/// per-shard apply lists, discarding batch slices whose batch is
/// incomplete (some shard in the slice's set never journaled its slice).
///
/// # Errors
/// [`StorageError::Corrupt`] on a malformed slice record.
pub fn resolve_shard_recoveries(recoveries: &[JournalRecovery]) -> Result<ShardReplayPlan<'_>> {
    // Which shards are known to have journaled each batch — from replayed
    // records and from records the snapshot already covered.
    let mut present: HashMap<BatchId, HashSet<u32>> = HashMap::new();
    for (shard, rec) in recoveries.iter().enumerate() {
        for (_, record) in rec.records() {
            if let Some(slice) = decode_slice(record)? {
                present.entry(slice.batch).or_default().insert(shard as u32);
            }
        }
    }
    let mut plan = ShardReplayPlan::default();
    for rec in recoveries {
        let mut apply = Vec::new();
        for record in rec.replay() {
            match decode_slice(record)? {
                None => apply.push(record),
                Some(slice) => {
                    let complete = slice.shards.iter().all(|s| {
                        present
                            .get(&slice.batch)
                            .is_some_and(|seen| seen.contains(s))
                    });
                    if complete {
                        apply.push(slice.inner);
                    } else {
                        plan.incomplete_slices_dropped += 1;
                    }
                }
            }
        }
        plan.apply.push(apply);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Shard manifest
// ---------------------------------------------------------------------------

/// Magic prefix of the shard manifest file.
const MANIFEST_MAGIC: &[u8; 8] = b"SSESHRD1";

/// Most index shards a durable directory may have: the bound keeps a
/// damaged manifest from making an open create billions of journals.
pub(crate) const MAX_SHARDS: usize = 1024;

/// Read a shard manifest, returning the shard count, or `None` when the
/// file does not exist (a legacy or fresh directory).
///
/// # Errors
/// I/O errors, or [`StorageError::Corrupt`] on a damaged manifest.
pub fn read_manifest(vfs: &dyn Vfs, path: &Path) -> Result<Option<u32>> {
    match read_stamp(vfs, path, MANIFEST_MAGIC)? {
        Some(n) if n == 0 || n as usize > MAX_SHARDS => Err(StorageError::Corrupt {
            what: "shard manifest",
            detail: format!("shard count {n} outside 1..={MAX_SHARDS}"),
        }
        .into()),
        shards => Ok(shards),
    }
}

/// Decide how many shards a durable directory has. A manifest fixes the
/// count; otherwise a directory with legacy single-shard files stays
/// single-shard, and a fresh directory gets the requested count, clamped
/// to `1..=`[`MAX_SHARDS`] (recorded in a new manifest either way).
///
/// # Errors
/// I/O errors or a corrupt manifest.
pub(crate) fn resolve_shard_count(
    vfs: &dyn Vfs,
    dir: &Path,
    manifest_file: &str,
    legacy_index_file: &str,
    requested: usize,
) -> Result<usize> {
    if let Some(n) = read_manifest(vfs, &dir.join(manifest_file))? {
        return Ok(n as usize);
    }
    let legacy_wal = Path::new(legacy_index_file)
        .with_extension("wal")
        .to_string_lossy()
        .into_owned();
    let legacy = vfs.exists(&dir.join(legacy_index_file)) || vfs.exists(&dir.join(legacy_wal));
    let n = if legacy {
        1
    } else {
        requested.clamp(1, MAX_SHARDS)
    };
    write_stamp(vfs, dir, manifest_file, MANIFEST_MAGIC, n as u32)?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::IndexJournal;
    use sse_storage::RealVfs;

    /// A batch slice record: its header, then `inner`.
    fn encode_slice(batch: BatchId, shard_set: &[u32], inner: &[u8]) -> Vec<u8> {
        let mut record = Vec::new();
        put_slice_header(&mut record, batch, shard_set);
        assert_eq!(record.len(), slice_header_len(shard_set));
        record.extend_from_slice(inner);
        record
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let mut tag = [0u8; 32];
        for b in 0..=255u8 {
            tag[0] = b;
            tag[1] = b.wrapping_mul(31);
            for shards in [1usize, 2, 4, 16, 63] {
                let s = shard_of(&tag, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&tag, shards), "stable");
            }
            assert_eq!(shard_of(&tag, 1), 0);
        }
    }

    #[test]
    fn shard_of_spreads_tags() {
        // 256 random-ish tags over 4 shards: every shard gets some.
        let mut counts = [0usize; 4];
        for i in 0..256u32 {
            let mut tag = [0u8; 32];
            tag[0..4].copy_from_slice(&(i.wrapping_mul(0x9E37_79B9)).to_be_bytes());
            counts[shard_of(&tag, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 16), "skewed: {counts:?}");
    }

    #[test]
    fn slice_round_trip() {
        let batch = BatchId {
            coordinator: 1,
            seq: 42,
        };
        let rec = encode_slice(batch, &[1, 3, 7], b"inner request");
        let slice = decode_slice(&rec).unwrap().expect("is a slice");
        assert_eq!(slice.batch, batch);
        assert_eq!(slice.shards, vec![1, 3, 7]);
        assert_eq!(slice.inner, b"inner request");
    }

    #[test]
    fn plain_records_are_not_slices() {
        assert!(decode_slice(&[0x01, 2, 3]).unwrap().is_none());
        assert!(decode_slice(&[]).unwrap().is_none());
    }

    #[test]
    fn truncated_slice_is_corrupt() {
        assert!(decode_slice(&[SLICE_MAGIC, 0, 0]).is_err());
        // Claims 100 shards but carries none.
        let mut bad = encode_slice(
            BatchId {
                coordinator: 0,
                seq: 1,
            },
            &[0],
            b"",
        );
        bad[13..17].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode_slice(&bad).is_err());
    }

    /// What reopening a shard journal that holds `records` (seqs 1..)
    /// finds, under a snapshot that covers the first `covered`.
    fn recovery(name: &str, records: &[Vec<u8>], covered: u64) -> JournalRecovery {
        let dir = std::env::temp_dir().join(format!("sse-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.wal");
        let (mut journal, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        for record in records {
            journal.append(record).unwrap();
        }
        drop(journal);
        IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, covered)
            .unwrap()
            .1
    }

    #[test]
    fn complete_batches_apply_and_incomplete_drop() {
        let batch = BatchId {
            coordinator: 0,
            seq: 5,
        };
        let orphan = BatchId {
            coordinator: 0,
            seq: 6,
        };
        let shard0 = recovery(
            "complete-0",
            &[
                vec![0x01, 0xAA],
                encode_slice(batch, &[0, 1], b"s0-part"),
                // Orphan: shard 1 crashed before journaling its slice.
                encode_slice(orphan, &[0, 1], b"s0-lost"),
            ],
            0,
        );
        let shard1 = recovery("complete-1", &[encode_slice(batch, &[0, 1], b"s1-part")], 0);
        let recoveries = [shard0, shard1];
        let plan = resolve_shard_recoveries(&recoveries).unwrap();
        assert_eq!(
            plan.apply[0],
            [&[0x01, 0xAA][..], b"s0-part"],
            "plain op applies, complete slice unwraps, orphan drops"
        );
        assert_eq!(plan.apply[1], [b"s1-part"]);
        assert_eq!(plan.incomplete_slices_dropped, 1);
    }

    #[test]
    fn snapshotted_sibling_slice_still_completes_a_batch() {
        // Shard 1 checkpointed after the batch: its slice is in the
        // snapshot-covered (skipped) region, not the replay region. The
        // batch is still complete and shard 0 must re-apply its part.
        let batch = BatchId {
            coordinator: 0,
            seq: 9,
        };
        let shard0 = recovery(
            "snapshotted-0",
            &[encode_slice(batch, &[0, 1], b"s0-part")],
            0,
        );
        let shard1 = recovery(
            "snapshotted-1",
            &[encode_slice(batch, &[0, 1], b"s1-part")],
            1,
        );
        let recoveries = [shard0, shard1];
        let plan = resolve_shard_recoveries(&recoveries).unwrap();
        assert_eq!(plan.apply[0], [b"s0-part"]);
        assert!(plan.apply[1].is_empty());
        assert_eq!(plan.incomplete_slices_dropped, 0);
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("sse-shard-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scheme1.meta");
        let _ = std::fs::remove_file(&path);
        let vfs = RealVfs;
        assert_eq!(read_manifest(&vfs, &path).unwrap(), None);
        write_stamp(&vfs, &dir, "scheme1.meta", MANIFEST_MAGIC, 8).unwrap();
        assert_eq!(read_manifest(&vfs, &path).unwrap(), Some(8));
        // Flip a byte: corrupt, not silently wrong.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_manifest(&vfs, &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
