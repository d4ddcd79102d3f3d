//! Seeded fuzzing of the on-disk decoders: the WAL's record framing
//! (`wal::walk`) and the document store's `SSESNAP1` snapshot
//! plus the store's WAL record decoder (`DocStore::open` on a temp dir).
//!
//! Every truncation, every single-byte mutation and arbitrary bytes are
//! fed to each decoder. After each mutation the CRCs are recomputed, so
//! the mutation gets past the checksum and reaches the body decoder. Each
//! input must give a value or a `Corrupt`/`Io` error — never a panic —
//! and each sweep must finish within a time bound, so a decoder that
//! loops on some input fails the test instead of hanging it.

use proptest::prelude::*;
use sse_storage::crc32::crc32;
use sse_storage::store::{DocStore, StoreOptions};
use sse_storage::wal;
use sse_storage::StorageError;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Longest a whole sweep may take (debug builds included).
const SWEEP_BOUND: Duration = Duration::from_secs(240);

/// Run `f` on its own thread; fail if it panics or outlives `SWEEP_BOUND`.
fn bounded(name: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(SWEEP_BOUND) {
        Ok(()) => worker.join().expect("sweep thread"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the sweep panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: sweep did not finish within {SWEEP_BOUND:?}")
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "sse-disk-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// `Ok` or one of the two errors a damaged file may produce.
fn check_error<T>(what: &str, result: Result<T, StorageError>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(StorageError::Corrupt { .. } | StorageError::Io(_)) => None,
        Err(e) => panic!("{what}: unexpected error {e:?}"),
    }
}

/// Every truncation of `image`, then single-byte mutations: every other
/// value at each byte `structural` marks (magic, counts, lengths, offsets,
/// pointers), the low and the high bit flipped at the rest (payload bytes
/// no decoder interprets). Each input goes through `fix`, which
/// re-computes the CRCs, before `decode`.
fn sweep(
    image: &[u8],
    structural: &[bool],
    fix: impl Fn(&mut [u8]),
    mut decode: impl FnMut(&[u8]),
) {
    for len in 0..image.len() {
        let mut cut = image[..len].to_vec();
        fix(&mut cut);
        decode(&cut);
    }
    for (at, &every_value) in structural.iter().enumerate() {
        let values: Vec<u8> = if every_value {
            (0..=255).filter(|&v| v != image[at]).collect()
        } else {
            vec![image[at] ^ 0x01, image[at] ^ 0x80]
        };
        for value in values {
            let mut bytes = image.to_vec();
            bytes[at] = value;
            fix(&mut bytes);
            decode(&bytes);
        }
    }
}

fn u16_at(bytes: &[u8], at: usize) -> usize {
    usize::from(u16::from_le_bytes([bytes[at], bytes[at + 1]]))
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

/// Re-compute the CRC of every frame whose length fits in the image, so a
/// mutated length or payload is read as a valid record.
fn fix_wal_crcs(bytes: &mut [u8]) {
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let Some(end) = (pos + 8)
            .checked_add(u32_at(bytes, pos))
            .filter(|&e| e <= bytes.len())
        else {
            return;
        };
        let crc = crc32(&bytes[pos + 8..end]);
        bytes[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
        pos = end;
    }
}

/// A WAL frame: `[len u32][crc32 u32][payload]`.
fn wal_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Replay `image`; the records must tile a prefix of it exactly.
fn replay_checked(image: &[u8]) {
    let records = wal::walk(image).records;
    let framed: usize = records.iter().map(|r| 8 + r.len()).sum();
    assert!(
        framed <= image.len(),
        "{framed} framed bytes from {}",
        image.len()
    );
}

#[test]
fn wal_replay_survives_every_truncation_and_byte_mutation() {
    let mut image = Vec::new();
    for payload in [&b"first record"[..], b"", &[0xA5; 300], b"last"] {
        image.extend_from_slice(&wal_frame(payload));
    }
    bounded("wal replay", move || {
        sweep(
            &image,
            &vec![true; image.len()],
            fix_wal_crcs,
            replay_checked,
        )
    });
}

// ---------------------------------------------------------------------------
// The document store: SSESNAP1 snapshot and WAL records
// ---------------------------------------------------------------------------

/// Re-compute the snapshot's body CRC (`[SSESNAP1][crc32(body)][body]`).
fn fix_snapshot_crc(bytes: &mut [u8]) {
    if bytes.len() >= 12 {
        let crc = crc32(&bytes[12..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The structural bytes of a valid `SSESNAP1` image: header, index
/// entries, heap length, and in every page its header, slot directory and
/// the fragment header of each live slot.
fn snapshot_structure(image: &[u8]) -> Vec<bool> {
    let mut marks = vec![false; image.len()];
    let heap = 12 + 8 + 14 * u32_at(image, 12) + 8;
    marks[..heap].fill(true);
    for page in (heap..image.len()).step_by(8192) {
        let slots = u16_at(image, page);
        marks[page..page + 4 + 4 * slots].fill(true);
        for slot in 0..slots {
            let (off, len) = (
                u16_at(image, page + 4 + 4 * slot),
                u16_at(image, page + 6 + 4 * slot),
            );
            if off != usize::from(u16::MAX) {
                marks[page + off..page + off + len.min(10)].fill(true);
            }
        }
    }
    marks
}

/// The structural bytes of a valid store WAL: each frame header and the
/// record header after it (opcode, id, blob length).
fn store_wal_structure(image: &[u8]) -> Vec<bool> {
    let mut marks = vec![false; image.len()];
    let mut pos = 0;
    while pos < image.len() {
        let len = u32_at(image, pos);
        marks[pos..pos + 8 + len.min(13)].fill(true);
        pos += 8 + len;
    }
    marks
}

/// Write a store whose snapshot holds a small record, an empty one, a
/// record that spans two pages and a hole left by a delete, plus a WAL
/// with a put and a delete on top. Returns `(snapshot, wal)` images.
fn store_images(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let mut store = DocStore::open(dir, StoreOptions::default()).unwrap();
    store.put(1, b"alpha").unwrap();
    store.put(2, b"").unwrap();
    store.put(3, &vec![0x3C; 9_000]).unwrap();
    store.put(4, b"deleted").unwrap();
    store.delete(4).unwrap();
    store.checkpoint().unwrap();
    store.put(5, b"after the checkpoint").unwrap();
    store.delete(1).unwrap();
    drop(store);
    (
        std::fs::read(dir.join("store.snapshot")).unwrap(),
        std::fs::read(dir.join("store.wal")).unwrap(),
    )
}

/// Open the store in `dir` and touch everything an open store holds:
/// every record, an overwrite of each (which walks and deletes the old
/// chain) and,
/// when `checkpoint` is set, a checkpoint (which compacts loaded pages).
fn open_and_walk(dir: &Path, checkpoint: bool) {
    let Some(mut store) = check_error("open", DocStore::open(dir, StoreOptions::default())) else {
        return;
    };
    let ids: Vec<u64> = store.ids().collect();
    for &id in &ids {
        match store.get(id) {
            Ok(_) | Err(StorageError::RecordNotFound | StorageError::Corrupt { .. }) => {}
            Err(e) => panic!("get({id}): unexpected error {e:?}"),
        }
    }
    for &id in &ids {
        check_error("overwrite", store.put(id, b"overwritten"));
    }
    if checkpoint {
        check_error("checkpoint", store.checkpoint());
    }
}

/// Run `sweep` over one of the store's two files, every other file left
/// as `store_images` wrote it. Every 1024th input is also checkpointed.
fn sweep_store_file(
    tag: &'static str,
    file: &'static str,
    structure: fn(&[u8]) -> Vec<bool>,
    fix: fn(&mut [u8]),
) {
    bounded(tag, move || {
        let dir = temp_dir(tag);
        let (snapshot, wal) = store_images(&dir);
        let image = if file == "store.snapshot" {
            &snapshot
        } else {
            &wal
        };
        let mut case = 0u64;
        sweep(image, &structure(image), fix, |bytes| {
            std::fs::write(dir.join("store.snapshot"), &snapshot).unwrap();
            std::fs::write(dir.join("store.wal"), &wal).unwrap();
            std::fs::write(dir.join(file), bytes).unwrap();
            case += 1;
            open_and_walk(&dir, case.is_multiple_of(1024));
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn store_snapshot_survives_every_truncation_and_byte_mutation() {
    sweep_store_file(
        "snap",
        "store.snapshot",
        snapshot_structure,
        fix_snapshot_crc,
    );
}

#[test]
fn store_wal_records_survive_every_truncation_and_byte_mutation() {
    sweep_store_file("wal", "store.wal", store_wal_structure, fix_wal_crcs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wal_replay_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut bytes = bytes;
        replay_checked(&bytes);
        fix_wal_crcs(&mut bytes);
        replay_checked(&bytes);
    }

    #[test]
    fn store_survives_arbitrary_snapshot_and_wal_bytes(
        body in prop::collection::vec(any::<u8>(), 0..256),
        pages in prop::collection::vec(any::<u8>(), 0..2),
        wal in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // An SSESNAP1 header over arbitrary bytes, padded with whole
        // arbitrary pages so the heap decoder is reached too.
        let dir = temp_dir("arbitrary");
        std::fs::create_dir_all(&dir).unwrap();
        let mut snapshot = b"SSESNAP1\0\0\0\0".to_vec();
        snapshot.extend_from_slice(&body);
        for (i, &seed) in pages.iter().enumerate() {
            snapshot.extend((0..8192u32).map(|j| (j as u8).wrapping_mul(seed) ^ i as u8));
        }
        fix_snapshot_crc(&mut snapshot);
        let mut wal = wal;
        fix_wal_crcs(&mut wal);
        std::fs::write(dir.join("store.snapshot"), &snapshot).unwrap();
        std::fs::write(dir.join("store.wal"), &wal).unwrap();
        bounded("arbitrary store bytes", {
            let dir = dir.clone();
            move || open_and_walk(&dir, true)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
