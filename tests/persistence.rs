//! Durability integration: scheme servers over the WAL-backed document
//! store, across process-style restarts and crash simulations.

use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_repro::core::scheme2::{Scheme2Client, Scheme2Config, Scheme2Server};
use sse_repro::core::types::{Document, Keyword, MasterKey};
use sse_repro::net::link::MeteredLink;
use sse_repro::net::meter::Meter;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-persist-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn docs() -> Vec<Document> {
    vec![
        Document::new(0, b"durable zero".to_vec(), ["alpha"]),
        Document::new(1, b"durable one".to_vec(), ["alpha", "beta"]),
        Document::new(2, b"durable two".to_vec(), ["beta"]),
    ]
}

#[test]
fn scheme2_blobs_survive_restart_and_reindex() {
    let dir = temp_dir("s2");
    let config = Scheme2Config::standard().with_chain_length(128);
    let key = MasterKey::from_seed(1);

    // Session 1.
    let saved_state = {
        let server = Scheme2Server::open_durable(config.clone(), &dir).unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        client.store(&docs()).unwrap();
        assert_eq!(client.search(&Keyword::new("alpha")).unwrap().len(), 2);
        client.state()
    };

    // Session 2: blobs recovered; metadata re-indexed client-side.
    {
        let server = Scheme2Server::open_durable(config.clone(), &dir).unwrap();
        assert_eq!(server.stored_docs(), 3, "blobs must survive restart");
        let mut client =
            Scheme2Client::new_seeded(MeteredLink::new(server, Meter::new()), key, config, 2);
        client.restore_state(saved_state);
        client.reinitialize(&docs()).unwrap();
        let hits = client.search(&Keyword::new("beta")).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].1, b"durable one".to_vec());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scheme1_durable_server_round_trip() {
    let dir = temp_dir("s1");
    let config = Scheme1Config::fast_profile(64);
    let key = MasterKey::from_seed(2);
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        client.store(&docs()).unwrap();
        assert_eq!(client.search(&Keyword::new("alpha")).unwrap().len(), 2);
    }
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        assert_eq!(server.stored_docs(), 3);
        // The index journal replays the first run's mutations on open, so
        // searches work immediately; re-storing would XOR-toggle the
        // recovered postings back off.
        let mut client =
            Scheme1Client::new_seeded(MeteredLink::new(server, Meter::new()), key, config, 2);
        assert_eq!(client.search(&Keyword::new("beta")).unwrap().len(), 2);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scheme1_index_snapshot_restores_search_without_reindex() {
    let dir = temp_dir("s1-idx");
    let config = Scheme1Config::fast_profile(64);
    let key = MasterKey::from_seed(3);
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        client.store(&docs()).unwrap();
        // Checkpoint both halves: blobs + keyword index.
        client.transport_mut().service_mut().checkpoint().unwrap();
        // Post-checkpoint update lands only in the WAL/live index.
        client
            .store(&[Document::new(3, b"late".to_vec(), ["alpha"])])
            .unwrap();
        client.transport_mut().service_mut().checkpoint().unwrap();
    }
    // Restart: searches work immediately, no client re-indexing.
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        assert_eq!(server.unique_keywords(), 2);
        let mut client =
            Scheme1Client::new_seeded(MeteredLink::new(server, Meter::new()), key, config, 2);
        let hits = client.search(&Keyword::new("alpha")).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(client.search(&Keyword::new("beta")).unwrap().len(), 2);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scheme2_index_snapshot_restores_search_without_reindex() {
    let dir = temp_dir("s2-idx");
    let config = Scheme2Config::standard().with_chain_length(128);
    let key = MasterKey::from_seed(4);
    let saved_state = {
        let server = Scheme2Server::open_durable(config.clone(), &dir).unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        client.store(&docs()).unwrap();
        client.search(&Keyword::new("alpha")).unwrap();
        client
            .store(&[Document::new(3, b"late".to_vec(), ["beta"])])
            .unwrap();
        client.transport_mut().service_mut().checkpoint().unwrap();
        client.state()
    };
    {
        let server = Scheme2Server::open_durable(config.clone(), &dir).unwrap();
        assert_eq!(server.unique_keywords(), 2);
        let mut client =
            Scheme2Client::new_seeded(MeteredLink::new(server, Meter::new()), key, config, 2);
        client.restore_state(saved_state);
        // All generations recovered: both the pre- and post-search ones.
        assert_eq!(client.search(&Keyword::new("beta")).unwrap().len(), 3);
        assert_eq!(client.search(&Keyword::new("alpha")).unwrap().len(), 2);
        // And the database keeps accepting updates.
        client
            .store(&[Document::new(9, b"post-restart".to_vec(), ["beta"])])
            .unwrap();
        assert_eq!(client.search(&Keyword::new("beta")).unwrap().len(), 4);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn remote_checkpoint_round_trips_both_schemes() {
    // Scheme 2.
    let dir = temp_dir("remote-ckpt-s2");
    let config = Scheme2Config::standard().with_chain_length(64);
    let key = MasterKey::from_seed(7);
    let state = {
        let server = Scheme2Server::open_durable(config.clone(), &dir).unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        client.store(&docs()).unwrap();
        client.request_checkpoint().unwrap();
        client.state()
    };
    {
        let server = Scheme2Server::open_durable(config.clone(), &dir).unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key,
            config.clone(),
            2,
        );
        client.restore_state(state);
        assert_eq!(client.search(&Keyword::new("alpha")).unwrap().len(), 2);
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // Scheme 1.
    let dir = temp_dir("remote-ckpt-s1");
    let s1_config = Scheme1Config::fast_profile(64);
    let key = MasterKey::from_seed(8);
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            s1_config.clone(),
            1,
        );
        client.store(&docs()).unwrap();
        client.request_checkpoint().unwrap();
    }
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        let mut client =
            Scheme1Client::new_seeded(MeteredLink::new(server, Meter::new()), key, s1_config, 2);
        assert_eq!(client.search(&Keyword::new("beta")).unwrap().len(), 2);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_on_in_memory_server_is_a_clean_error() {
    use sse_repro::core::scheme2::InMemoryScheme2Client;
    let mut client = InMemoryScheme2Client::new_in_memory(
        MasterKey::from_seed(9),
        Scheme2Config::standard().with_chain_length(16),
    );
    let err = client.request_checkpoint().unwrap_err();
    assert!(err.to_string().contains("in-memory"));
}

#[test]
fn corrupt_index_snapshot_is_rejected() {
    let dir = temp_dir("s1-idx-corrupt");
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            MasterKey::from_seed(5),
            Scheme1Config::fast_profile(64),
            1,
        );
        client.store(&docs()).unwrap();
        client.transport_mut().service_mut().checkpoint().unwrap();
    }
    let snap = dir.join("scheme1.index");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(Scheme1Server::open_durable(64, &dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The scrub checks every checksummed file, not only the logs and the
/// index snapshots: one flipped body byte in the store snapshot, a
/// manifest or a stamp makes `verify_files` report corruption while the
/// tenant is still serving, before any reopen trips over it.
#[test]
fn scrub_finds_a_flipped_byte_in_every_checksummed_file() {
    use sse_repro::core::engine::{DurableOptions, IndexAdmin};
    use sse_repro::core::error::SseError;
    use sse_repro::storage::{BackendKind, StorageError};
    for (backend, files) in [
        (
            BackendKind::Btree,
            &["store.snapshot", "scheme2.meta", "backend.meta"][..],
        ),
        (
            BackendKind::Lsm,
            &["doc.manifest", "scheme2.kw0.manifest"][..],
        ),
    ] {
        let dir = temp_dir(&format!("scrub-{backend}"));
        let server = Scheme2Server::open_durable_with(
            Scheme2Config::standard(),
            &dir,
            DurableOptions {
                backend,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            MasterKey::from_seed(3),
            Scheme2Config::standard(),
            3,
        );
        client.store(&docs()).unwrap();
        let server: &dyn IndexAdmin = &**client.transport_mut().service_mut();
        server.checkpoint().unwrap();
        server.verify_files().unwrap();
        for file in files {
            let path = dir.join(file);
            let clean = std::fs::read(&path).unwrap();
            let mut flipped = clean.clone();
            *flipped.last_mut().unwrap() ^= 0x01;
            std::fs::write(&path, &flipped).unwrap();
            match server.verify_files() {
                Err(SseError::Storage(StorageError::Corrupt { .. })) => {}
                other => panic!("{backend}: a flipped byte in {file} gave {other:?}"),
            }
            std::fs::write(&path, &clean).unwrap();
        }
        server.verify_files().unwrap();
        drop(client);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn snapshot_with_a_repeated_tag_is_corrupt_even_with_a_valid_crc() {
    use sse_repro::core::error::SseError;
    use sse_repro::core::scheme2::protocol::{encode_append_generations, GenerationEntry};
    use sse_repro::storage::{crc32::crc32, StorageError};
    let dir = temp_dir("s2-idx-repeat");
    {
        let server = Scheme2Server::open_durable(Scheme2Config::standard(), &dir).unwrap();
        let entries: Vec<GenerationEntry> = (1..=2u8)
            .map(|n| GenerationEntry {
                tag: [n; 32],
                sealed_ids: vec![n; 40],
                commitment: [n; 32],
            })
            .collect();
        server.handle_shared(&encode_append_generations(&entries));
        server.checkpoint().unwrap();
    }
    // `[magic 8][crc 4][applied_seq 8][count 8]` then, per tag, the tag,
    // its generation count and one `[len 8][40 B][commitment 32]`.
    let snap = dir.join("scheme2.index");
    let bytes = std::fs::read(&snap).unwrap();
    const ENTRY: usize = 32 + 8 + 8 + 40 + 32;
    let (head, entries) = bytes.split_at(28);
    assert_eq!(entries.len(), 2 * ENTRY, "the layout this test rewrites");
    let mut body = head[12..20].to_vec();
    body.extend_from_slice(&3u64.to_le_bytes());
    body.extend_from_slice(&entries[..ENTRY]);
    body.extend_from_slice(entries);
    let mut forged = head[..8].to_vec();
    forged.extend_from_slice(&crc32(&body).to_le_bytes());
    forged.extend_from_slice(&body);
    std::fs::write(&snap, &forged).unwrap();

    match Scheme2Server::open_durable(Scheme2Config::standard(), &dir) {
        Err(SseError::Storage(StorageError::Corrupt { .. })) => {}
        Err(e) => panic!("a repeated tag must be Corrupt, got {e}"),
        Ok(_) => panic!("a snapshot with a repeated tag opened"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn index_snapshot_survives_every_truncation_and_byte_mutation() {
    use sse_repro::core::error::SseError;
    use sse_repro::core::scheme2::protocol::{encode_append_generations, GenerationEntry};
    use sse_repro::storage::{crc32::crc32, StorageError};
    use std::sync::mpsc;
    use std::time::Duration;
    let dir = temp_dir("s2-idx-fuzz");
    {
        let server = Scheme2Server::open_durable(Scheme2Config::standard(), &dir).unwrap();
        let entries: Vec<GenerationEntry> = (1..=2u8)
            .map(|n| GenerationEntry {
                tag: [n; 32],
                sealed_ids: vec![n; 40],
                commitment: [n; 32],
            })
            .collect();
        server.handle_shared(&encode_append_generations(&entries));
        server.checkpoint().unwrap();
    }
    // The layout `snapshot_with_a_repeated_tag_is_corrupt_even_with_a_valid_crc`
    // spells out. Every value is tried at the header and at each entry's
    // generation count and id-list length; the tag, id and commitment
    // bytes only get their low and high bit flipped.
    let snap = dir.join("scheme2.index");
    let image = std::fs::read(&snap).unwrap();
    const ENTRY: usize = 32 + 8 + 8 + 40 + 32;
    assert_eq!(image.len(), 28 + 2 * ENTRY, "the layout this test mutates");
    let structural = |at: usize| at < 28 || (at - 28) % ENTRY >= 32 && (at - 28) % ENTRY < 48;
    let mut inputs: Vec<Vec<u8>> = (0..image.len()).map(|len| image[..len].to_vec()).collect();
    for at in 0..image.len() {
        let values: Vec<u8> = if structural(at) {
            (0..=255).filter(|&v| v != image[at]).collect()
        } else {
            vec![image[at] ^ 0x01, image[at] ^ 0x80]
        };
        for value in values {
            let mut bytes = image.clone();
            bytes[at] = value;
            inputs.push(bytes);
        }
    }

    // The CRC is re-computed after each mutation so the body decoder sees
    // it. Every reopen must give a server or a Corrupt/Io error, and the
    // whole sweep must end within the bound.
    let (tx, rx) = mpsc::channel();
    let sweep_dir = dir.clone();
    let sweep = std::thread::spawn(move || {
        for mut bytes in inputs {
            if bytes.len() >= 12 {
                let crc = crc32(&bytes[12..]);
                bytes[8..12].copy_from_slice(&crc.to_le_bytes());
            }
            std::fs::write(sweep_dir.join("scheme2.index"), &bytes).unwrap();
            match Scheme2Server::open_durable(Scheme2Config::standard(), &sweep_dir) {
                Ok(_)
                | Err(SseError::Storage(StorageError::Corrupt { .. } | StorageError::Io(_))) => {}
                Err(e) => panic!("reopen gave neither a server nor Corrupt/Io: {e}"),
            }
        }
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(240)) {
        Ok(()) => sweep.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(sweep.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("index snapshot sweep hung"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scheme1_index_capacity_mismatch_is_rejected() {
    let dir = temp_dir("s1-idx-cap");
    {
        let server = Scheme1Server::open_durable(64, &dir).unwrap();
        server.checkpoint().unwrap();
    }
    // Reopen with a different capacity: the snapshot must not silently load.
    assert!(Scheme1Server::open_durable(128, &dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_does_not_lose_acknowledged_docs() {
    use std::io::Write;
    let dir = temp_dir("torn");
    {
        let mut store = sse_repro::storage::store::DocStore::open(
            &dir,
            sse_repro::storage::store::StoreOptions::default(),
        )
        .unwrap();
        store.put(1, b"acked-one").unwrap();
        store.put(2, b"acked-two").unwrap();
    }
    // Crash mid-append: garbage frame at the tail.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("store.wal"))
            .unwrap();
        f.write_all(&999u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
    }
    let store = sse_repro::storage::store::DocStore::open(
        &dir,
        sse_repro::storage::store::StoreOptions::default(),
    )
    .unwrap();
    assert_eq!(store.get(1).unwrap(), b"acked-one");
    assert_eq!(store.get(2).unwrap(), b"acked-two");
    assert_eq!(store.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_then_more_updates_then_restart() {
    let dir = temp_dir("ckpt-mix");
    {
        let mut store = sse_repro::storage::store::DocStore::open(
            &dir,
            sse_repro::storage::store::StoreOptions::default(),
        )
        .unwrap();
        for i in 0..30u64 {
            store.put(i, format!("pre-{i}").as_bytes()).unwrap();
        }
        store.checkpoint().unwrap();
        for i in 30..40u64 {
            store.put(i, format!("post-{i}").as_bytes()).unwrap();
        }
        store.delete(5).unwrap();
    }
    let store = sse_repro::storage::store::DocStore::open(
        &dir,
        sse_repro::storage::store::StoreOptions::default(),
    )
    .unwrap();
    assert_eq!(store.len(), 39);
    assert_eq!(store.get(0).unwrap(), b"pre-0");
    assert_eq!(store.get(39).unwrap(), b"post-39");
    assert!(!store.contains(5));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- on-disk format pin -----------------------------------------------------
//
// Fixed requests straight through `handle_shared` (no client randomness),
// over two shards so cross-shard slice records are covered. Each digest is
// the SHA-256 of the named files, concatenated in order. The constants
// were recorded at the commit before the index-engine refactor; change
// them only with a deliberate on-disk format change.

use sse_repro::core::engine::{DurableOptions, IndexAdmin};
use sse_repro::core::proto_common::decode_ack;
use sse_repro::core::scheme1::protocol as s1p;
use sse_repro::core::scheme2::protocol as s2p;
use sse_repro::primitives::sha256::sha256;
use sse_repro::storage::BackendKind;

fn digest(dir: &std::path::Path, names: &[String]) -> String {
    let mut bytes = Vec::new();
    for name in names {
        bytes.extend(std::fs::read(dir.join(name)).unwrap());
    }
    sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// The pinned digests of one scheme's files.
struct Pins {
    journals: &'static str,
    btree_index: &'static str,
    lsm_index: &'static str,
}

/// Serve `requests` on a fresh two-shard `stem` server per backend and
/// compare the journals before the checkpoint, and the index artifacts
/// after it, with `pins`.
fn assert_format_pinned<S: std::ops::Deref<Target = dyn IndexAdmin>>(
    stem: &str,
    open: impl Fn(&std::path::Path, DurableOptions) -> S,
    serve: impl Fn(&S, &[u8]) -> Vec<u8>,
    requests: &[Vec<u8>],
    pins: &Pins,
) {
    for backend in BackendKind::all() {
        let dir = temp_dir(&format!("{stem}-pin-{backend}"));
        let opts = DurableOptions {
            shards: 2,
            backend,
            ..DurableOptions::default()
        };
        let server = open(&dir, opts);
        for request in requests {
            decode_ack(&serve(&server, request)).unwrap();
        }
        let journals = [format!("{stem}.wal"), format!("{stem}.1.wal")];
        assert_eq!(digest(&dir, &journals), pins.journals, "{backend} journals");
        server.checkpoint().unwrap();
        let (names, want) = match backend {
            BackendKind::Btree => (
                vec![
                    format!("{stem}.meta"),
                    format!("{stem}.index"),
                    format!("{stem}.1.index"),
                ],
                pins.btree_index,
            ),
            BackendKind::Lsm => (
                vec![
                    format!("{stem}.meta"),
                    format!("{stem}.kw0.manifest"),
                    format!("{stem}.kw0-00000001.run"),
                    format!("{stem}.kw1.manifest"),
                    format!("{stem}.kw1-00000001.run"),
                ],
                pins.lsm_index,
            ),
        };
        assert_eq!(digest(&dir, &names), want, "{backend} index artifacts");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A tag that routes to `shard` of two.
fn pin_tag(shard: u8, n: u8) -> [u8; 32] {
    let mut tag = [n; 32];
    tag[0] = 0;
    tag[1] = shard;
    tag
}

#[test]
fn scheme1_on_disk_format_is_pinned() {
    let entry = |shard, n: u8, width| s1p::UpdateEntry {
        tag: pin_tag(shard, n),
        delta: vec![n; width],
        f_r: vec![n ^ 0xFF; 12],
    };
    assert_format_pinned(
        "scheme1",
        |dir, opts| Scheme1Server::open_durable_with(64, dir, opts).unwrap(),
        |server, request| server.handle_shared(request),
        &[
            s1p::encode_put_docs(&[(1, b"one".to_vec()), (2, b"two".to_vec())]),
            s1p::encode_apply_updates(&[entry(0, 1, 8), entry(1, 2, 8)]),
            s1p::encode_apply_updates(&[entry(0, 1, 8)]),
            s1p::encode_replace_index(128, &[entry(0, 1, 16), entry(1, 2, 16)]),
            s1p::encode_apply_updates(&[entry(1, 6, 16)]),
        ],
        &Pins {
            journals: "956b2a50242957960c8e3d611b81db9511dea669a2e45674c72ca80aaefe3150",
            btree_index: "d416795533f6715f92762e0ee9fbf17dc74c4b8ae1b259f140689e5b7c2a3abf",
            lsm_index: "28da14ac666d0027364e7dc78fde74aebf3ba61288093cf3462877dd520cd9bd",
        },
    );
}

#[test]
fn scheme2_on_disk_format_is_pinned() {
    let entry = |shard, n: u8| s2p::GenerationEntry {
        tag: pin_tag(shard, n),
        sealed_ids: vec![n; 40],
        commitment: [n ^ 0xFF; 32],
    };
    assert_format_pinned(
        "scheme2",
        |dir, opts| Scheme2Server::open_durable_with(Scheme2Config::standard(), dir, opts).unwrap(),
        |server, request| server.handle_shared(request),
        &[
            s2p::encode_put_docs(&[(1, b"one".to_vec()), (2, b"two".to_vec())]),
            s2p::encode_append_generations(&[entry(0, 1), entry(1, 2)]),
            s2p::encode_reset_index(),
            s2p::encode_append_generations(&[entry(0, 3)]),
            s2p::encode_append_generations(&[entry(1, 4), entry(0, 3), entry(1, 5)]),
            s2p::encode_remove_docs(&[2]),
        ],
        &Pins {
            journals: "3166c3a37f722f281789620df986aaf9e9cdb76daa36a2fc505433c57f426f5f",
            btree_index: "af68c828b12afaf92579f53226817de70252532376a09b98ff28b602d0444ede",
            lsm_index: "12f82b5cefc390619ad09e4776e47d6a322a132534320a72c572eacafa0a0bc2",
        },
    );
}
