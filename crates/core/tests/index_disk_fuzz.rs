//! Seeded fuzzing of the index engine's own on-disk decoders, through a
//! durable engine open: the index journal's records (the `op_seq` header,
//! `SLICE_MAGIC` batch slices and their cross-shard resolution, the
//! journaled requests a reopen replays) and the `SSESHRD1` shard manifest.
//!
//! In the style of `crates/storage/tests/disk_fuzz.rs`: every truncation,
//! every single-byte mutation and arbitrary bytes, with the CRCs
//! re-computed after each mutation so it reaches the decoder behind them.
//! Each reopen must give a server or a `Corrupt`/`Io` error — never a
//! panic — and each sweep must finish within a time bound.

use proptest::prelude::*;
use sse_core::engine::DurableOptions;
use sse_core::error::SseError;
use sse_core::proto_common::decode_ack;
use sse_core::scheme2::protocol::{self as p2, GenerationEntry};
use sse_core::scheme2::{Scheme2Config, Scheme2Server};
use sse_core::shard::SLICE_MAGIC;
use sse_storage::crc32::crc32;
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
    let dir = std::env::temp_dir().join(format!(
        "sse-index-disk-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every truncation of `image`, then single-byte mutations: every other
/// value at each byte `structural` marks, the low and the high bit flipped
/// at the rest. Each input goes through `fix`, which re-computes the CRCs,
/// before `decode`.
fn sweep(image: &[u8], structural: &[bool], fix: fn(&mut [u8]), mut decode: impl FnMut(&[u8])) {
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

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Re-compute the CRC of every WAL frame whose length fits in the image.
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

/// Re-compute a shard manifest's CRC (`[SSESHRD1][count][crc32(first 12)]`).
fn fix_stamp_crc(bytes: &mut [u8]) {
    if bytes.len() == 16 {
        let crc = crc32(&bytes[..12]);
        bytes[12..].copy_from_slice(&crc.to_le_bytes());
    }
}

fn options() -> DurableOptions {
    DurableOptions {
        shards: 2,
        ..DurableOptions::default()
    }
}

/// Reopen the tenant in `dir`: a server, or one of the two errors a
/// damaged file may produce.
fn reopen(dir: &Path) {
    match Scheme2Server::open_durable_with(Scheme2Config::standard(), dir, options()) {
        Ok(_) | Err(SseError::Storage(StorageError::Corrupt { .. } | StorageError::Io(_))) => {}
        Err(e) => panic!("reopen gave neither a server nor Corrupt/Io: {e}"),
    }
}

/// A tag that routes to `shard` of two.
fn tag(shard: u8, n: u8) -> [u8; 32] {
    let mut tag = [n; 32];
    tag[0] = 0;
    tag[1] = shard;
    tag
}

fn append(entries: &[(u8, u8)]) -> Vec<u8> {
    let entries: Vec<GenerationEntry> = entries
        .iter()
        .map(|&(shard, n)| GenerationEntry {
            tag: tag(shard, n),
            sealed_ids: vec![n; 8],
            commitment: [n ^ 0xFF; 32],
        })
        .collect();
    p2::encode_append_generations(&entries)
}

/// A two-shard tenant whose shard-0 journal holds records a reopen skips
/// (their `op_seq` is covered by the index snapshot, as after a crash
/// between the snapshot's rename and the journal's reset) and records it
/// replays: plain requests, batch slices whose sibling slice the other
/// shard journaled before or after the snapshot, and a reset. Returns the
/// shard-0 journal image, as written back before each reopen.
fn journal_image(dir: &Path) -> Vec<u8> {
    let server =
        Scheme2Server::open_durable_with(Scheme2Config::standard(), dir, options()).unwrap();
    let serve = |request: Vec<u8>| decode_ack(&server.handle_shared(&request)).unwrap();
    serve(append(&[(0, 1), (1, 2)]));
    serve(append(&[(0, 3)]));
    let covered = std::fs::read(dir.join("scheme2.wal")).unwrap();
    server.checkpoint().unwrap();
    serve(append(&[(0, 4), (1, 5)]));
    serve(p2::encode_reset_index());
    serve(append(&[(0, 6)]));
    drop(server);
    let mut image = covered;
    image.extend(std::fs::read(dir.join("scheme2.wal")).unwrap());
    std::fs::write(dir.join("scheme2.wal"), &image).unwrap();
    image
}

/// The structural bytes of the journal image: each frame's header, each
/// record's `op_seq`, slice header, request tag and entry count, and each
/// entry's id-list length.
fn journal_structure(image: &[u8]) -> Vec<bool> {
    let mut marks = vec![false; image.len()];
    let mut pos = 0;
    while pos < image.len() {
        let end = pos + 8 + u32_at(image, pos);
        let mut at = pos + 16;
        marks[pos..at].fill(true);
        if image[at] == SLICE_MAGIC {
            let header = 17 + 4 * u32_at(image, at + 13);
            marks[at..at + header].fill(true);
            at += header;
        }
        marks[at..(at + 9).min(end)].fill(true);
        if end - at > 9 {
            at += 9;
            while at < end {
                let ids = at + 32;
                marks[ids..ids + 8].fill(true);
                at = ids + 8 + u64_at(image, ids) + 32;
            }
        }
        pos = end;
    }
    marks
}

#[test]
fn index_journal_survives_every_truncation_and_byte_mutation() {
    bounded("index journal", || {
        let dir = temp_dir("journal");
        let image = journal_image(&dir);
        reopen(&dir);
        sweep(&image, &journal_structure(&image), fix_wal_crcs, |bytes| {
            std::fs::write(dir.join("scheme2.wal"), bytes).unwrap();
            reopen(&dir);
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn shard_manifest_survives_every_truncation_and_byte_mutation() {
    bounded("shard manifest", || {
        let dir = temp_dir("manifest");
        journal_image(&dir);
        let image = std::fs::read(dir.join("scheme2.meta")).unwrap();
        assert_eq!(image.len(), 16, "the layout this test mutates");
        sweep(&image, &[true; 16], fix_stamp_crc, |bytes| {
            std::fs::write(dir.join("scheme2.meta"), bytes).unwrap();
            reopen(&dir);
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_journal_survives_arbitrary_records(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 0..6),
        slice in any::<bool>(),
    ) {
        // Arbitrary record bodies behind valid frames and op_seqs, some
        // made to start like a batch slice.
        let dir = temp_dir("arbitrary");
        journal_image(&dir);
        let mut image = Vec::new();
        for (seq, mut body) in records.into_iter().enumerate() {
            if slice {
                body.insert(0, SLICE_MAGIC);
            }
            let mut record = (seq as u64 + 1).to_le_bytes().to_vec();
            record.extend(body);
            image.extend_from_slice(&(record.len() as u32).to_le_bytes());
            image.extend_from_slice(&crc32(&record).to_le_bytes());
            image.extend(record);
        }
        std::fs::write(dir.join("scheme2.wal"), &image).unwrap();
        bounded("arbitrary journal records", {
            let dir = dir.clone();
            move || reopen(&dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
