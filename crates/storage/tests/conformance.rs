//! Backend conformance suite: one generic test body per storage
//! contract, run against **every** implementation.
//!
//! * [`DocBlobStore`] — `DocStore` (B+-tree-era heap + WAL) and
//!   `LsmDocStore` must behave identically against a map oracle under
//!   random put/delete/checkpoint traces, across clean restarts, and
//!   after a crash at every scheduled write point (durable-on-return:
//!   every acked op survives, the in-flight op is all-or-nothing).
//! * [`LsmKeywordMap`] — the one durable keyword map (the btree backend
//!   persists the index engine's own snapshot file instead) must agree
//!   with a map oracle on live reads, and reopen to exactly the last acked
//!   `flush` (or the in-flight one if the crash raced it), carrying
//!   `last_seq` and the `meta` blob with it.
//!
//! The doc-store bodies take an opener closure, so adding a third backend
//! means adding one opener, not a new test suite.

use proptest::prelude::*;
use sse_storage::lsm::{LsmDocStore, LsmKeywordMap};
use sse_storage::store::{DocStore, StoreOptions};
use sse_storage::{DocBlobStore, FaultVfs, RealVfs, Vfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

type DocOpener = fn(Arc<dyn Vfs>, &Path) -> sse_storage::error::Result<Box<dyn DocBlobStore>>;

fn open_doc_btree(
    vfs: Arc<dyn Vfs>,
    dir: &Path,
) -> sse_storage::error::Result<Box<dyn DocBlobStore>> {
    Ok(Box::new(DocStore::open_with_vfs(
        vfs,
        dir,
        StoreOptions::default(),
    )?))
}

fn open_doc_lsm(
    vfs: Arc<dyn Vfs>,
    dir: &Path,
) -> sse_storage::error::Result<Box<dyn DocBlobStore>> {
    Ok(Box::new(LsmDocStore::open_with_vfs(
        vfs,
        dir,
        StoreOptions::default(),
    )?))
}

fn open_map(vfs: Arc<dyn Vfs>, dir: &Path) -> sse_storage::error::Result<LsmKeywordMap> {
    LsmKeywordMap::open(vfs, dir, "conf")
}

const DOC_OPENERS: [(&str, DocOpener); 2] = [("btree", open_doc_btree), ("lsm", open_doc_lsm)];

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-conf-{tag}-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 32-byte tag from a one-byte key space (collisions across ops are the
/// interesting case for a keyword map).
fn tag_of(b: u8) -> [u8; 32] {
    [b; 32]
}

// ---------------------------------------------------------------------------
// DocBlobStore conformance
// ---------------------------------------------------------------------------

/// One random doc-store op: `(kind, id, blob)`; kind 0/2 = put, 1 = delete.
type DocOp = (u8, u64, Vec<u8>);

/// Fault-free conformance body: drive the trace with one mid-trace
/// checkpoint, restart, drive the rest, restart again, and compare every
/// observable accessor against the oracle.
fn doc_store_matches_oracle(
    name: &str,
    open: DocOpener,
    ops: &[DocOp],
    checkpoint_at: usize,
    case: u64,
) {
    let dir = temp_dir(&format!("doc-{name}"), case);
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let half = ops.len() / 2;
    for (round, segment) in [&ops[..half], &ops[half..]].into_iter().enumerate() {
        let mut store = open(RealVfs::arc(), &dir).unwrap();
        // Reopen must already agree before this round's ops apply.
        assert_eq!(store.len(), oracle.len(), "{name}: len diverged on reopen");
        for (i, (op, id, data)) in segment.iter().enumerate() {
            if *op == 1 {
                let expect = oracle.remove(id);
                let got = store.delete(*id);
                assert_eq!(expect.is_some(), got.is_ok(), "{name}: delete ack diverged");
            } else {
                store.put(*id, data).unwrap();
                oracle.insert(*id, data.clone());
            }
            if round == 0 && i == checkpoint_at % segment.len().max(1) {
                store.checkpoint().unwrap();
            }
            assert_eq!(
                store.contains(*id),
                oracle.contains_key(id),
                "{name}: contains diverged"
            );
        }
    }
    let store = open(RealVfs::arc(), &dir).unwrap();
    assert_eq!(store.len(), oracle.len(), "{name}: final len diverged");
    assert_eq!(store.is_empty(), oracle.is_empty());
    let mut ids = store.doc_ids();
    ids.sort_unstable();
    let want_ids: Vec<u64> = oracle.keys().copied().collect();
    assert_eq!(ids, want_ids, "{name}: doc_ids diverged");
    for (id, data) in &oracle {
        assert_eq!(&store.get(*id).unwrap(), data, "{name}: get({id}) diverged");
    }
    let got_many = store.get_many(&want_ids);
    assert_eq!(got_many.len(), oracle.len(), "{name}: get_many arity");
    for (id, data) in got_many {
        assert_eq!(
            oracle.get(&id),
            Some(&data),
            "{name}: get_many({id}) diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash conformance body: count the trace's write points, then crash at
/// every one. A [`DocBlobStore`] is durable on return, so after recovery
/// through the real filesystem the store must hold exactly the acked
/// prefix of ops — plus, at most, the op in flight when the crash hit.
fn doc_store_crash_sweep(name: &str, open: DocOpener, ops: &[DocOp], seed: u64) {
    // oracle_states[c] = map after the first c ops.
    let mut oracle_states: Vec<BTreeMap<u64, Vec<u8>>> = vec![BTreeMap::new()];
    for (op, id, data) in ops {
        let mut next = oracle_states.last().unwrap().clone();
        if *op == 1 {
            next.remove(id);
        } else {
            next.insert(*id, data.clone());
        }
        oracle_states.push(next);
    }

    let count_dir = temp_dir(&format!("docc-{name}-count"), seed);
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    {
        let mut store = open(Arc::new(counting), &count_dir).unwrap();
        for (i, (op, id, data)) in ops.iter().enumerate() {
            if *op == 1 {
                let _ = store.delete(*id);
            } else {
                store.put(*id, data).unwrap();
            }
            if i == ops.len() / 2 {
                store.checkpoint().unwrap();
            }
        }
    }
    let write_points = stats.writes();
    let _ = std::fs::remove_dir_all(&count_dir);
    assert!(write_points > 0, "{name}: trace scheduled no writes");

    for k in 1..=write_points {
        let dir = temp_dir(&format!("docc-{name}"), seed ^ k);
        let completed = match open(Arc::new(FaultVfs::crashing_at(seed, k)), &dir) {
            Err(_) => 0,
            Ok(mut store) => {
                let mut completed = 0usize;
                for (i, (op, id, data)) in ops.iter().enumerate() {
                    let result = if *op == 1 {
                        // A delete of an absent id is a clean Err even
                        // fault-free; only a *crashed* store stops the run.
                        match store.delete(*id) {
                            Ok(()) => Ok(()),
                            Err(_) if !oracle_states[completed].contains_key(id) => Ok(()),
                            Err(e) => Err(e),
                        }
                    } else {
                        store.put(*id, data)
                    };
                    if result.is_err() {
                        break;
                    }
                    completed += 1;
                    if i == ops.len() / 2 && store.checkpoint().is_err() {
                        break;
                    }
                }
                completed
            }
        };
        let store = open(RealVfs::arc(), &dir).unwrap();
        let observed: BTreeMap<u64, Vec<u8>> = store
            .doc_ids()
            .into_iter()
            .map(|id| (id, store.get(id).unwrap()))
            .collect();
        let lo = &oracle_states[completed];
        let hi = &oracle_states[(completed + 1).min(oracle_states.len() - 1)];
        assert!(
            &observed == lo || &observed == hi,
            "{name}: crash at write {k}: recovered state is not an op-atomic prefix \
             (completed {completed})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// LsmKeywordMap conformance
// ---------------------------------------------------------------------------

/// One random keyword-map op: `(kind, tag_byte, value)`; kind 0/3 = put,
/// 1 = delete, 2 = clear (sampled rarely by the generator range).
type MapOp = (u8, u8, Vec<u8>);

/// Advance the map-shaped oracle by one op.
fn advance_oracle(oracle: &mut BTreeMap<[u8; 32], Vec<u8>>, (op, key, value): &MapOp) {
    let tag = tag_of(*key);
    match op {
        1 => {
            oracle.remove(&tag);
        }
        2 => oracle.clear(),
        _ => {
            oracle.insert(tag, value.clone());
        }
    }
}

/// Apply one op to the real map (pre-flush mutations are in-memory and
/// cannot fail; `flush` is the only write point).
fn apply_to_map(map: &mut LsmKeywordMap, (op, key, value): &MapOp) {
    let tag = tag_of(*key);
    match op {
        1 => map.delete(&tag),
        2 => map.clear(),
        _ => map.put(tag, value.clone()),
    }
}

fn assert_map_matches(name: &str, map: &LsmKeywordMap, oracle: &BTreeMap<[u8; 32], Vec<u8>>) {
    let mut all = map.iter_all().unwrap();
    all.sort_by_key(|e| e.0);
    let want: Vec<([u8; 32], Vec<u8>)> = oracle.iter().map(|(t, v)| (*t, v.clone())).collect();
    assert_eq!(all, want, "{name}: iter_all diverged");
    for b in 0..=255u8 {
        let tag = tag_of(b);
        assert_eq!(
            map.get(&tag).unwrap(),
            oracle.get(&tag).cloned(),
            "{name}: get diverged on tag byte {b}"
        );
    }
}

/// Fault-free conformance body. Mutations only become durable at `flush`;
/// the reopened map must equal the *flushed* oracle snapshot (plus its
/// `applied_seq` and `meta`), never the unflushed tail.
fn keyword_map_matches_oracle(ops: &[MapOp], case: u64) {
    let name = "lsm";
    let dir = temp_dir("map-lsm", case);
    let mut oracle: BTreeMap<[u8; 32], Vec<u8>> = BTreeMap::new();
    let mut map = open_map(RealVfs::arc(), &dir).unwrap();
    assert_eq!(map.last_seq(), 0, "{name}: fresh map must start at seq 0");
    assert!(
        map.meta().is_empty(),
        "{name}: fresh map must carry no meta"
    );

    let half = ops.len() / 2;
    for op in &ops[..half] {
        apply_to_map(&mut map, op);
        advance_oracle(&mut oracle, op);
    }
    assert_map_matches(name, &map, &oracle);

    let flushed = oracle.clone();
    let meta = vec![0xAB, case as u8, 0xCD];
    map.flush(half as u64 + 1, &meta).unwrap();
    assert_eq!(
        map.last_seq(),
        half as u64 + 1,
        "{name}: last_seq after flush"
    );
    assert_eq!(map.meta(), meta, "{name}: meta after flush");

    for op in &ops[half..] {
        apply_to_map(&mut map, op);
        advance_oracle(&mut oracle, op);
    }
    assert_map_matches(name, &map, &oracle);

    drop(map);
    let reopened = open_map(RealVfs::arc(), &dir).unwrap();
    assert_map_matches("lsm (reopened)", &reopened, &flushed);
    assert_eq!(
        reopened.last_seq(),
        half as u64 + 1,
        "{name}: last_seq lost"
    );
    assert_eq!(reopened.meta(), meta, "{name}: meta lost");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One durable keyword-map state: the map contents plus the flush `seq`.
type FlushState = (BTreeMap<[u8; 32], Vec<u8>>, u64);

/// Crash conformance body for the durable keyword map: flush every few
/// ops, crash at every scheduled write point, reopen through the real
/// filesystem. The recovered state must be exactly the last acked flush —
/// or the one in flight when the crash hit — never a torn mix.
fn keyword_map_crash_sweep(ops: &[MapOp], seed: u64) {
    let name = "lsm";
    const FLUSH_EVERY: usize = 5;
    // flush_states[j] = (oracle, seq) as of the j-th flush; index 0 is the
    // never-flushed empty state.
    let mut flush_states: Vec<FlushState> = vec![(BTreeMap::new(), 0)];
    {
        let mut oracle = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            advance_oracle(&mut oracle, op);
            if (i + 1) % FLUSH_EVERY == 0 {
                flush_states.push((oracle.clone(), (i + 1) as u64));
            }
        }
    }

    let count_dir = temp_dir(&format!("mapc-{name}-count"), seed);
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    {
        let mut map = open_map(Arc::new(counting), &count_dir).unwrap();
        for (i, op) in ops.iter().enumerate() {
            apply_to_map(&mut map, op);
            if (i + 1) % FLUSH_EVERY == 0 {
                map.flush((i + 1) as u64, &[]).unwrap();
            }
        }
    }
    let write_points = stats.writes();
    let _ = std::fs::remove_dir_all(&count_dir);
    assert!(write_points > 0, "{name}: trace scheduled no writes");

    for k in 1..=write_points {
        let dir = temp_dir(&format!("mapc-{name}"), seed ^ k);
        let acked_flushes = match open_map(Arc::new(FaultVfs::crashing_at(seed, k)), &dir) {
            Err(_) => 0,
            Ok(mut map) => {
                let mut acked = 0usize;
                for (i, op) in ops.iter().enumerate() {
                    apply_to_map(&mut map, op);
                    if (i + 1) % FLUSH_EVERY == 0 {
                        // A failed flush is the crash: the "process" ends.
                        if map.flush((i + 1) as u64, &[]).is_err() {
                            break;
                        }
                        acked += 1;
                    }
                }
                acked
            }
        };
        let reopened = open_map(RealVfs::arc(), &dir).unwrap();
        let mut observed = reopened.iter_all().unwrap();
        observed.sort_by_key(|e| e.0);
        let observed_seq = reopened.last_seq();
        let lo = &flush_states[acked_flushes];
        let hi = &flush_states[(acked_flushes + 1).min(flush_states.len() - 1)];
        let matches = |(state, seq): &FlushState| {
            observed_seq == *seq
                && observed
                    == state
                        .iter()
                        .map(|(t, v)| (*t, v.clone()))
                        .collect::<Vec<_>>()
        };
        assert!(
            matches(lo) || matches(hi),
            "{name}: crash at write {k}: recovered map is not a flush-atomic state \
             ({acked_flushes} acked flushes, recovered seq {observed_seq})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Property wrappers
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_doc_blob_store_matches_the_oracle(
        ops in prop::collection::vec((0u8..3, 0u64..24, prop::collection::vec(any::<u8>(), 0..120)), 2..40),
        checkpoint_at in 0usize..40,
        case in any::<u64>(),
    ) {
        for (name, open) in DOC_OPENERS {
            doc_store_matches_oracle(name, open, &ops, checkpoint_at, case);
        }
    }

    #[test]
    fn the_lsm_keyword_map_matches_the_oracle(
        ops in prop::collection::vec((0u8..10, 0u8..12, prop::collection::vec(any::<u8>(), 0..60)), 2..40),
        case in any::<u64>(),
    ) {
        // Kind >= 3 folds to put; 1 = delete, 2 = clear (rare by weight).
        let ops: Vec<MapOp> = ops.into_iter().map(|(k, t, v)| (k.min(3), t, v)).collect();
        keyword_map_matches_oracle(&ops, case);
    }
}

/// Deterministic seeded trace for the crash sweeps (the sweeps re-run the
/// whole trace once per write point, so they use one fixed trace instead
/// of proptest sampling).
fn crash_trace(seed: u64, len: usize) -> Vec<MapOp> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let r = next();
            let kind = match r % 10 {
                0..=6 => 0u8,
                7..=8 => 1,
                _ => 2,
            };
            let tag = (r >> 8) as u8 % 8;
            let value = vec![(r >> 16) as u8; 1 + (r >> 24) as usize % 24];
            (kind, tag, value)
        })
        .collect()
}

#[test]
fn every_doc_blob_store_recovers_an_op_atomic_prefix_from_any_crash() {
    let ops: Vec<DocOp> = crash_trace(0xD0C, 30)
        .into_iter()
        .map(|(k, t, v)| (k.min(1), u64::from(t), v))
        .collect();
    for (name, open) in DOC_OPENERS {
        doc_store_crash_sweep(name, open, &ops, 0xD0C);
    }
}

#[test]
fn the_lsm_keyword_map_recovers_a_flush_atomic_state_from_any_crash() {
    keyword_map_crash_sweep(&crash_trace(0x3A9, 30), 0x3A9);
}
