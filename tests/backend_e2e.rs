//! End-to-end behavior of the storage-backend ADT that the per-trait
//! conformance and crash sweeps don't cover:
//!
//! * a durable tenant written by one backend refuses to open under the
//!   other with a clean, actionable manifest error (both schemes, both
//!   directions);
//! * a checkpoint whose snapshot **rename** is lost to an un-fsynced
//!   directory entry (the `lose_unsynced_renames` fault model) never
//!   loses an acknowledged document — the WAL still covers everything —
//!   and a whole sharded tenant keeps its shard count and every
//!   acknowledged keyword;
//! * an `lsm`-backed daemon tenant surfaces its run/bloom internals
//!   through `STATS` after a wire-driven checkpoint.

use sse_repro::core::engine::DurableOptions;
use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_repro::core::scheme2::{Scheme2Client, Scheme2ClientState, Scheme2Config, Scheme2Server};
use sse_repro::core::types::{Document, Keyword, MasterKey};
use sse_repro::net::link::MeteredLink;
use sse_repro::net::meter::Meter;
use sse_repro::server::daemon::{Daemon, ServerConfig};
use sse_repro::server::proto::SchemeId;
use sse_repro::server::tenant::TenantParams;
use sse_repro::server::transport::TcpTransport;
use sse_repro::storage::lsm::LsmDocStore;
use sse_repro::storage::store::{DocStore, StoreOptions};
use sse_repro::storage::{BackendKind, DocBlobStore, FaultConfig, FaultVfs, RealVfs, Vfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CAPACITY: u64 = 128;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-bke2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn docs() -> Vec<Document> {
    vec![
        Document::new(1, b"alpha doc".to_vec(), ["alpha", "shared"]),
        Document::new(2, b"beta doc".to_vec(), ["beta", "shared"]),
    ]
}

/// Every (written, requested) backend pair with written != requested.
fn mismatched_pairs() -> Vec<(BackendKind, BackendKind)> {
    let mut pairs = Vec::new();
    for written in BackendKind::all() {
        for requested in BackendKind::all() {
            if written != requested {
                pairs.push((written, requested));
            }
        }
    }
    pairs
}

fn assert_mismatch_error(err: &str, written: BackendKind, requested: BackendKind, context: &str) {
    assert!(
        err.contains("backend mismatch")
            && err.contains(written.as_str())
            && err.contains(requested.as_str()),
        "{context}: expected a clean backend-mismatch error naming \
         `{written}` and `{requested}`, got: {err}"
    );
}

#[test]
fn durable_directory_refuses_the_other_backend() {
    for (written, requested) in mismatched_pairs() {
        // Scheme 1: write real data under `written`, reopen as `requested`.
        let dir = temp_dir(&format!("s1-mismatch-{written}-{requested}"));
        {
            let server = Scheme1Server::open_durable_with(
                CAPACITY,
                &dir,
                DurableOptions {
                    vfs: RealVfs::arc(),
                    shards: 1,
                    backend: written,
                },
            )
            .unwrap();
            let mut client = Scheme1Client::new_seeded(
                MeteredLink::new(server, Meter::new()),
                MasterKey::from_seed(7),
                Scheme1Config::fast_profile(CAPACITY),
                7,
            );
            client.store(&docs()).unwrap();
        }
        let err = match Scheme1Server::open_durable_with(
            CAPACITY,
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards: 1,
                backend: requested,
            },
        ) {
            Ok(_) => panic!("scheme 1 reopen under the wrong backend must fail"),
            Err(e) => e.to_string(),
        };
        assert_mismatch_error(&err, written, requested, "scheme 1");
        let _ = std::fs::remove_dir_all(&dir);

        // Scheme 2: same contract.
        let dir = temp_dir(&format!("s2-mismatch-{written}-{requested}"));
        {
            let server = Scheme2Server::open_durable_with(
                Scheme2Config::standard(),
                &dir,
                DurableOptions {
                    vfs: RealVfs::arc(),
                    shards: 1,
                    backend: written,
                },
            )
            .unwrap();
            let mut client = Scheme2Client::new_seeded(
                MeteredLink::new(server, Meter::new()),
                MasterKey::from_seed(7),
                Scheme2Config::standard(),
                7,
            );
            client.store(&docs()).unwrap();
        }
        let err = match Scheme2Server::open_durable_with(
            Scheme2Config::standard(),
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards: 1,
                backend: requested,
            },
        ) {
            Ok(_) => panic!("scheme 2 reopen under the wrong backend must fail"),
            Err(e) => e.to_string(),
        };
        assert_mismatch_error(&err, written, requested, "scheme 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The correct recovery suggestion — reopening under the recorded backend —
/// must actually work, data intact.
#[test]
fn reopening_under_the_recorded_backend_recovers_the_data() {
    for backend in BackendKind::all() {
        let dir = temp_dir(&format!("s2-recorded-{backend}"));
        let key = MasterKey::from_seed(11);
        let state = {
            let server = Scheme2Server::open_durable_with(
                Scheme2Config::standard(),
                &dir,
                DurableOptions {
                    vfs: RealVfs::arc(),
                    shards: 1,
                    backend,
                },
            )
            .unwrap();
            let mut client = Scheme2Client::new_seeded(
                MeteredLink::new(server, Meter::new()),
                key.clone(),
                Scheme2Config::standard(),
                11,
            );
            client.store(&docs()).unwrap();
            client.state()
        };
        let server = Scheme2Server::open_durable_with(
            Scheme2Config::standard(),
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards: 1,
                backend,
            },
        )
        .unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key,
            Scheme2Config::standard(),
            11,
        );
        client.restore_state(state);
        let mut hits = client.search(&Keyword::new("shared")).unwrap();
        hits.sort();
        assert_eq!(hits.len(), 2, "{backend}: both stored docs must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint rename loss
// ---------------------------------------------------------------------------

type DocOpener = fn(Arc<dyn Vfs>, &Path) -> sse_repro::storage::Result<Box<dyn DocBlobStore>>;

fn open_doc_btree(
    vfs: Arc<dyn Vfs>,
    dir: &Path,
) -> sse_repro::storage::Result<Box<dyn DocBlobStore>> {
    Ok(Box::new(DocStore::open_with_vfs(
        vfs,
        dir,
        StoreOptions::default(),
    )?))
}

fn open_doc_lsm(
    vfs: Arc<dyn Vfs>,
    dir: &Path,
) -> sse_repro::storage::Result<Box<dyn DocBlobStore>> {
    Ok(Box::new(LsmDocStore::open_with_vfs(
        vfs,
        dir,
        StoreOptions::default(),
    )?))
}

/// The workload whose checkpoint rename we lose: a batch of puts, a
/// checkpoint, more puts, a second checkpoint. Returns acked state.
fn drive_checkpoint_workload(store: &mut dyn DocBlobStore) -> BTreeMap<u64, Vec<u8>> {
    let mut acked = BTreeMap::new();
    for id in 0..8u64 {
        let blob = vec![id as u8 + 1; 20 + id as usize];
        if store.put(id, &blob).is_ok() {
            acked.insert(id, blob);
        } else {
            return acked; // crashed: nothing later can ack
        }
    }
    if store.checkpoint().is_err() {
        return acked;
    }
    for id in 8..12u64 {
        let blob = vec![id as u8 + 1; 20 + id as usize];
        if store.put(id, &blob).is_ok() {
            acked.insert(id, blob);
        } else {
            return acked;
        }
    }
    let _ = store.checkpoint();
    acked
}

/// Satellite crash test: crash at **every** directory-fsync point with
/// un-fsynced renames rolled back. The checkpoint's snapshot rename is
/// then lost exactly as if the directory entry never reached the platter;
/// because the WAL is only reset *after* the rename's dir fsync, recovery
/// must still reproduce every acknowledged put, for both engines.
#[test]
fn checkpoint_rename_loss_never_loses_acked_documents() {
    let seed = 0xC4E5;
    for (name, open) in [
        ("btree", open_doc_btree as DocOpener),
        ("lsm", open_doc_lsm as DocOpener),
    ] {
        // Counting run: how many dir fsyncs does the workload schedule?
        let count_dir = temp_dir(&format!("rl-{name}-count"));
        let counting = FaultVfs::counting();
        let stats = counting.stats();
        {
            let mut store = open(Arc::new(counting), &count_dir).unwrap();
            drive_checkpoint_workload(store.as_mut());
        }
        let dir_syncs = stats.dir_syncs();
        let _ = std::fs::remove_dir_all(&count_dir);
        assert!(
            dir_syncs > 0,
            "{name}: checkpoints must fsync the directory (satellite regression)"
        );

        for k in 1..=dir_syncs {
            let dir = temp_dir(&format!("rl-{name}-{k}"));
            let vfs = FaultVfs::new(
                RealVfs::arc(),
                FaultConfig {
                    seed,
                    crash_at_dir_sync: Some(k),
                    lose_unsynced_renames: true,
                    ..FaultConfig::default()
                },
            );
            let fault_stats = vfs.stats();
            let acked = match open(Arc::new(vfs), &dir) {
                Err(_) => BTreeMap::new(),
                Ok(mut store) => drive_checkpoint_workload(store.as_mut()),
            };
            assert!(
                fault_stats
                    .crashed
                    .load(std::sync::atomic::Ordering::SeqCst),
                "{name}: dir-fsync crash point {k} never fired"
            );
            let store = open(RealVfs::arc(), &dir).unwrap();
            let observed: BTreeMap<u64, Vec<u8>> = store
                .doc_ids()
                .into_iter()
                .map(|id| (id, store.get(id).unwrap()))
                .collect();
            assert_eq!(
                observed, acked,
                "{name}: crash at dir fsync {k} (renames rolled back) \
                 lost or invented documents"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The whole-tenant arm of the rename-loss sweep: a 4-shard durable
/// Scheme 2 tenant is crashed at every directory fsync of open → store →
/// checkpoint, un-fsynced renames rolled back, and must reopen with its 4
/// shards and every acknowledged keyword. The shard manifest is committed
/// at open: were its rename lost, the reopen would take the directory for
/// a legacy single-shard one and drop every cross-shard batch slice.
#[test]
fn checkpoint_rename_loss_keeps_a_sharded_tenant_whole() {
    const SHARDS: usize = 4;
    let config = Scheme2Config::standard();
    let key = MasterKey::from_seed(0x5EED);
    let docs: Vec<Document> = (0..8u64)
        .map(|i| {
            Document::new(
                i,
                format!("doc {i}").into_bytes(),
                [format!("kw-{i}-a"), format!("kw-{i}-b")].map(Keyword::new),
            )
        })
        .collect();
    let open = |vfs: Arc<dyn Vfs>, dir: &Path, backend| {
        Scheme2Server::open_durable_with(
            config.clone(),
            dir,
            DurableOptions {
                vfs,
                shards: SHARDS,
                backend,
            },
        )
    };
    let client = |server: Scheme2Server| {
        Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            5,
        )
    };
    // Store, then checkpoint: the client state when the store was acked.
    let drive = |server: Scheme2Server| -> Option<Scheme2ClientState> {
        let mut client = client(server);
        client.store(&docs).ok()?;
        let _ = client.transport_mut().service_mut().checkpoint();
        Some(client.state())
    };

    for backend in BackendKind::all() {
        let count_dir = temp_dir(&format!("rl-tenant-{backend}-count"));
        let counting = FaultVfs::counting();
        let stats = counting.stats();
        assert!(drive(open(Arc::new(counting), &count_dir, backend).unwrap()).is_some());
        let dir_syncs = stats.dir_syncs();
        let _ = std::fs::remove_dir_all(&count_dir);

        for k in 1..=dir_syncs {
            let dir = temp_dir(&format!("rl-tenant-{backend}-{k}"));
            let vfs = FaultVfs::new(
                RealVfs::arc(),
                FaultConfig {
                    seed: 0xC4E5,
                    crash_at_dir_sync: Some(k),
                    lose_unsynced_renames: true,
                    ..FaultConfig::default()
                },
            );
            let fault_stats = vfs.stats();
            let acked = open(Arc::new(vfs), &dir, backend).ok().and_then(drive);
            assert!(
                fault_stats
                    .crashed
                    .load(std::sync::atomic::Ordering::SeqCst),
                "{backend}: dir-fsync crash point {k} never fired"
            );
            let server = open(RealVfs::arc(), &dir, backend).unwrap();
            assert_eq!(
                server.num_shards(),
                SHARDS,
                "{backend}: crash at dir fsync {k} lost the shard manifest"
            );
            if let Some(state) = acked {
                let mut client = client(server);
                client.restore_state(state);
                for doc in &docs {
                    for keyword in &doc.keywords {
                        let hits = client.search(keyword).unwrap();
                        assert_eq!(
                            hits,
                            vec![(doc.id, doc.data.clone())],
                            "{backend}: crash at dir fsync {k} lost {keyword:?}"
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A *failed* (not crashed) directory fsync surfaces as a checkpoint
/// error, the store stays usable, and a later retry checkpoints cleanly.
#[test]
fn failed_dir_fsync_fails_the_checkpoint_but_not_the_store() {
    let dir = temp_dir("rl-fail");
    let vfs = FaultVfs::new(
        RealVfs::arc(),
        FaultConfig {
            seed: 1,
            fail_dir_sync_at: Some(1),
            ..FaultConfig::default()
        },
    );
    let mut store = DocStore::open_with_vfs(Arc::new(vfs), &dir, StoreOptions::default()).unwrap();
    store.put(1, b"first").unwrap();
    let err = DocBlobStore::checkpoint(&mut store)
        .expect_err("checkpoint must report the lost dir fsync");
    assert!(err.to_string().contains("dir fsync"), "got: {err}");
    // The store keeps serving and the next checkpoint (dir fsync 2) works.
    store.put(2, b"second").unwrap();
    DocBlobStore::checkpoint(&mut store).unwrap();
    drop(store);
    let store = DocStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(DocBlobStore::get(&store, 1).unwrap(), b"first".to_vec());
    assert_eq!(DocBlobStore::get(&store, 2).unwrap(), b"second".to_vec());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Backend counters over the wire
// ---------------------------------------------------------------------------

/// An `lsm` daemon tenant: updates + a wire CHECKPOINT must show up in the
/// STATS backend counters (runs flushed and live), and search traffic must
/// drive bloom checks. The same counters stay zero for a btree daemon.
#[test]
fn lsm_backend_surfaces_run_counters_through_stats() {
    let data_dir = temp_dir("stats-lsm");
    let daemon = Daemon::spawn(ServerConfig {
        workers: 2,
        data_dir: Some(data_dir.clone()),
        tenant_params: TenantParams {
            backend: BackendKind::Lsm,
            ..TenantParams::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let transport = TcpTransport::connect(addr, "stats-tenant", SchemeId::Scheme2).unwrap();
    let mut client = Scheme2Client::new_seeded(
        transport,
        MasterKey::from_seed(23),
        Scheme2Config::standard(),
        23,
    );
    client.store(&docs()).unwrap();
    client.request_checkpoint().unwrap();
    client
        .store(&[Document::new(3, b"gamma doc".to_vec(), ["gamma", "shared"])])
        .unwrap();
    client.request_checkpoint().unwrap();
    let mut hits = client.search(&Keyword::new("shared")).unwrap();
    hits.sort();
    assert_eq!(hits.len(), 3);

    let stats = daemon.stats();
    assert!(
        stats.backend_runs_flushed >= 2,
        "two checkpoints with dirty tags must flush runs: {stats:?}"
    );
    assert!(
        stats.backend_runs_live >= 1,
        "flushed runs must stay live in the manifest: {stats:?}"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
