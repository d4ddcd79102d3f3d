//! The park/flush contract of the commit pipeline (DESIGN.md §4e), held
//! against both schemes, 1 and 4 shards and both storage backends: a
//! mutation parked by `handle_parked` is neither durable, applied nor
//! acknowledged until a flush; one flush writes one group per touched
//! journal and publishes each touched shard once; its replies come after
//! the fsync or not at all; a cross-shard batch is whole to a racing
//! reader; a writer held on one shard holds up no other shard; and every
//! quiescer flushes first without deadlocking with a writer in progress.

use sse_core::commit::Reply;
use sse_core::engine::{DurableOptions, IndexAdmin};
use sse_core::health::HealthState;
use sse_core::proto_common::{decode_ack, decode_result};
use sse_core::scheme1::protocol::{self as p1, UpdateEntry};
use sse_core::scheme1::Scheme1Server;
use sse_core::scheme2::protocol::{self as p2, GenerationEntry};
use sse_core::scheme2::{key_commitment, Scheme2Config, Scheme2Server};
use sse_net::wire::WireWriter;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::HashChain;
use sse_storage::{BackendKind, FaultVfs, RealVfs, Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Scheme 1 capacity: 8-byte index arrays.
const CAPACITY: u64 = 64;
/// Records parked before a flush.
const K: u64 = 8;

#[derive(Clone, Copy, Debug)]
enum Scheme {
    One,
    Two,
}

enum Server {
    S1(Scheme1Server),
    S2(Scheme2Server),
}

/// Counter 1's key of the tests' one chain: every Scheme 2 generation is
/// sealed under it and every search starts from it (zero-step walks).
fn key() -> [u8; 32] {
    HashChain::new(&[b"kw", b"key"], 64)
        .key_for_counter(1)
        .unwrap()
}

/// A tag on shard `shard % n` of an `n`-shard server, distinct per `i`.
fn tag(shard: u8, i: u8) -> [u8; 32] {
    let mut tag = [0u8; 32];
    tag[1] = shard;
    tag[2] = i;
    tag
}

impl Server {
    /// Open a durable server. A Scheme 2 search returns documents, so the
    /// blob of every id a round names is stored up front.
    fn open(scheme: Scheme, dir: &Path, opts: DurableOptions) -> sse_core::Result<Server> {
        Ok(match scheme {
            Scheme::One => Server::S1(Scheme1Server::open_durable_with(CAPACITY, dir, opts)?),
            Scheme::Two => {
                let cfg = Scheme2Config::standard().with_chain_length(64);
                let server = Scheme2Server::open_durable_with(cfg, dir, opts)?;
                let docs: Vec<(u64, Vec<u8>)> = (1..=100).map(|id| (id, b"doc".to_vec())).collect();
                decode_ack(&server.handle_shared(&p2::encode_put_docs(&docs)))?;
                Server::S2(server)
            }
        })
    }

    fn admin(&self) -> &dyn IndexAdmin {
        match self {
            Server::S1(s) => &**s,
            Server::S2(s) => &**s,
        }
    }

    /// One mutation marking every tag in `tags` with `round`.
    fn update(&self, tags: &[[u8; 32]], round: u64) -> Vec<u8> {
        match self {
            Server::S1(_) => p1::encode_apply_updates(
                &tags
                    .iter()
                    .map(|&tag| UpdateEntry {
                        tag,
                        delta: vec![0; (CAPACITY / 8) as usize],
                        f_r: round.to_le_bytes().to_vec(),
                    })
                    .collect::<Vec<_>>(),
            ),
            Server::S2(_) => {
                let mut ids = WireWriter::new();
                ids.put_u64_vec(&[round]).put_u64_vec(&[]);
                let sealed = EtmKey::new(&key()).seal(&ids.finish());
                p2::encode_append_generations(
                    &tags
                        .iter()
                        .map(|&tag| GenerationEntry {
                            tag,
                            sealed_ids: sealed.clone(),
                            commitment: key_commitment(&key()),
                        })
                        .collect::<Vec<_>>(),
                )
            }
        }
    }

    fn handle(&self, request: &[u8]) -> Vec<u8> {
        match self {
            Server::S1(s) => s.handle_shared(request),
            Server::S2(s) => s.handle_shared(request),
        }
    }

    /// Stage `request` the way the daemon's worker does; `Some` is a reply
    /// that did not park.
    fn park(&self, request: &[u8], replies: &Replies) -> Option<Vec<u8>> {
        match self {
            Server::S1(s) => s.handle_parked(request, Vec::new(), || replies.reply()),
            Server::S2(s) => s.handle_parked(request, Vec::new(), || replies.reply()),
        }
    }

    /// The newest round a search sees under `tag` (`None`: not indexed).
    fn seen(&self, tag: &[u8; 32]) -> Option<u64> {
        match self {
            Server::S1(s) => {
                let found = p1::decode_found(&s.handle_shared(&p1::encode_search_find(tag)));
                let f_r = found.unwrap()?;
                Some(u64::from_le_bytes(f_r.try_into().unwrap()))
            }
            Server::S2(s) => {
                let reply = s.handle_shared(&p2::encode_search(tag, &key()));
                decode_result(&reply).unwrap().iter().map(|d| d.0).max()
            }
        }
    }
}

/// Replies the continuations delivered, in delivery order.
#[derive(Clone, Default)]
struct Replies(Arc<Mutex<Vec<Vec<u8>>>>);

impl Replies {
    fn reply(&self) -> Reply {
        let sink = Arc::clone(&self.0);
        Box::new(move |reply| sink.lock().unwrap().push(reply))
    }

    fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sse-park-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(vfs: Arc<dyn Vfs>, shards: usize, backend: BackendKind) -> DurableOptions {
    DurableOptions {
        vfs,
        shards,
        backend,
    }
}

/// Every case of the matrix.
fn matrix() -> Vec<(Scheme, usize, BackendKind)> {
    let mut cases = Vec::new();
    for scheme in [Scheme::One, Scheme::Two] {
        for shards in [1, 4] {
            for backend in BackendKind::all() {
                cases.push((scheme, shards, backend));
            }
        }
    }
    cases
}

/// The `K` single-tag records of the matrix tests: on shards 0 and 1 of a
/// 4-shard server, on the one shard of a 1-shard server.
fn parked_tags() -> Vec<[u8; 32]> {
    (0..K as u8).map(|i| tag(i % 2, i)).collect()
}

#[test]
fn parked_records_commit_as_one_group_and_one_publish_per_touched_shard() {
    for (scheme, shards, backend) in matrix() {
        let ctx = format!("{scheme:?}, {shards} shard(s), {backend}");
        let dir = temp_dir("one-group");
        let server = Server::open(scheme, &dir, opts(RealVfs::arc(), shards, backend)).unwrap();
        let admin = server.admin();
        let replies = Replies::default();
        let tags = parked_tags();
        let before = admin.commit_counters();
        for (round, tag) in (1..).zip(&tags) {
            assert_eq!(server.park(&server.update(&[*tag], round), &replies), None);
        }
        // Parked: nothing written, applied or acknowledged.
        assert!(replies.take().is_empty(), "{ctx}: a parked record replied");
        assert_eq!(admin.commit_counters(), before, "{ctx}");
        assert_eq!(admin.unique_keywords(), 0, "{ctx}: applied while parked");
        assert_eq!(server.seen(&tags[0]), None, "{ctx}");

        admin.flush();
        let acks = replies.take();
        assert_eq!(acks.len(), K as usize, "{ctx}: one reply per mutation");
        for ack in &acks {
            decode_ack(ack).unwrap();
        }
        let touched = shards.min(2) as u64;
        let after = admin.commit_counters();
        assert_eq!(
            after.groups_committed - before.groups_committed,
            touched,
            "{ctx}: one fsync per touched journal"
        );
        assert_eq!(after.ops_committed - before.ops_committed, K, "{ctx}");
        assert_eq!(
            after.snapshot_swaps - before.snapshot_swaps,
            touched,
            "{ctx}: one publish per touched shard"
        );
        for (round, tag) in (1..).zip(&tags) {
            assert_eq!(server.seen(tag), Some(round), "{ctx}");
        }
        admin.flush();
        assert_eq!(admin.commit_counters(), after, "{ctx}: nothing left");
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `sync_data` calls a fresh open makes on `shards` shards of `backend`.
fn syncs_to_open(scheme: Scheme, shards: usize, backend: BackendKind) -> u64 {
    let dir = temp_dir("count-syncs");
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    drop(Server::open(scheme, &dir, opts(Arc::new(counting), shards, backend)).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    stats.syncs_seen.load(Ordering::SeqCst)
}

#[test]
fn a_crash_between_the_group_write_and_its_fsync_acknowledges_nothing() {
    for (scheme, shards, backend) in matrix() {
        let ctx = format!("{scheme:?}, {shards} shard(s), {backend}");
        let dir = temp_dir("crash-at-sync");
        // The first sync after the open is the first group's fsync.
        let crash = FaultVfs::crashing_at_sync(7, syncs_to_open(scheme, shards, backend) + 1);
        let server = Server::open(scheme, &dir, opts(Arc::new(crash), shards, backend)).unwrap();
        let admin = server.admin();
        let replies = Replies::default();
        let tags = parked_tags();
        for (round, tag) in (1..).zip(&tags) {
            assert_eq!(server.park(&server.update(&[*tag], round), &replies), None);
        }
        admin.flush();
        let got = replies.take();
        assert_eq!(got.len(), K as usize, "{ctx}: every parked record replied");
        for reply in &got {
            let err = decode_ack(reply).expect_err("acked without a durable fsync");
            assert!(err.to_string().contains("injected fault"), "{ctx}: {err}");
        }
        assert_eq!(admin.health().state(), HealthState::Degraded, "{ctx}");
        assert_eq!(
            admin.unique_keywords(),
            0,
            "{ctx}: applied without an fsync"
        );
        assert_eq!(admin.commit_counters().groups_committed, 0, "{ctx}");
        // Behind the poison: refused at stage, the error returned at once
        // and no continuation built.
        let refused = server.park(&server.update(&[tags[0]], 99), &replies);
        assert!(decode_ack(&refused.expect("refused now")).is_err(), "{ctx}");
        assert!(replies.take().is_empty(), "{ctx}");
        drop(server);

        // The crashed directory reopens; the in-doubt group is all-or-nothing
        // per record (each record is one CRC frame of the group's write).
        let server = Server::open(scheme, &dir, opts(RealVfs::arc(), shards, backend)).unwrap();
        for (round, tag) in (1..).zip(&tags) {
            let seen = server.seen(tag);
            assert!(seen.is_none() || seen == Some(round), "{ctx}: {seen:?}");
        }
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_cross_shard_batch_is_whole_to_a_racing_reader() {
    const ROUNDS: u64 = 60;
    for scheme in [Scheme::One, Scheme::Two] {
        for backend in BackendKind::all() {
            let ctx = format!("{scheme:?}, {backend}");
            let dir = temp_dir("racing-reader");
            let server = Server::open(scheme, &dir, opts(RealVfs::arc(), 4, backend)).unwrap();
            // One tag per shard: every update is a four-slice batch.
            let tags: Vec<[u8; 32]> = (0..4).map(|s| tag(s, 0)).collect();
            let done = AtomicBool::new(false);
            let replies = Replies::default();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for round in 1..=ROUNDS {
                        assert_eq!(server.park(&server.update(&tags, round), &replies), None);
                        // Two batches per pass: each pass publishes four
                        // shards holding two rounds' slices each.
                        if round % 2 == 0 {
                            server.admin().flush();
                        }
                    }
                    server.admin().flush();
                    done.store(true, Ordering::SeqCst);
                });
                let mut passes = 0;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    // Read in shard order: a later read may only see the
                    // same round or a newer one.
                    let seen: Vec<u64> = tags.iter().map(|t| server.seen(t).unwrap_or(0)).collect();
                    assert!(
                        seen.windows(2).all(|w| w[0] <= w[1]),
                        "{ctx}: torn batch, rounds seen in shard order {seen:?}"
                    );
                    passes += 1;
                    if finished {
                        assert_eq!(seen, vec![ROUNDS; 4], "{ctx}: at rest");
                        break;
                    }
                }
                assert!(passes > 1, "{ctx}: the reader never raced");
            });
            let acks = replies.take();
            assert_eq!(acks.len(), ROUNDS as usize, "{ctx}");
            assert!(acks.iter().all(|a| decode_ack(a).is_ok()), "{ctx}");
            drop(server);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Which quiescer a test runs.
#[derive(Clone, Copy, Debug)]
enum Quiesce {
    Checkpoint,
    Repair,
}

impl Quiesce {
    fn run(self, admin: &dyn IndexAdmin) -> sse_core::Result<()> {
        match self {
            Quiesce::Checkpoint => admin.checkpoint(),
            Quiesce::Repair => admin.repair(),
        }
    }
}

#[test]
fn checkpoint_and_repair_flush_parked_records_first() {
    for (scheme, shards, backend) in matrix() {
        for quiesce in [Quiesce::Checkpoint, Quiesce::Repair] {
            let ctx = format!("{quiesce:?}, {scheme:?}, {shards} shard(s), {backend}");
            let dir = temp_dir("quiesce-flushes");
            let server = Server::open(scheme, &dir, opts(RealVfs::arc(), shards, backend)).unwrap();
            let replies = Replies::default();
            let tags = parked_tags();
            for (round, tag) in (1..).zip(&tags) {
                assert_eq!(server.park(&server.update(&[*tag], round), &replies), None);
            }
            quiesce.run(server.admin()).unwrap();
            let acks = replies.take();
            assert_eq!(acks.len(), K as usize, "{ctx}: the quiescer's pass replied");
            assert!(acks.iter().all(|a| decode_ack(a).is_ok()), "{ctx}");
            assert_eq!(server.admin().unique_keywords(), K as usize, "{ctx}");
            drop(server);

            // Persisted by the quiescer: the reopen replays no journal.
            let server = Server::open(scheme, &dir, opts(RealVfs::arc(), shards, backend)).unwrap();
            assert_eq!(server.admin().recovery().index_ops_replayed, 0, "{ctx}");
            for (round, tag) in (1..).zip(&tags) {
                assert_eq!(server.seen(tag), Some(round), "{ctx}");
            }
            drop(server);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn a_geometry_change_flushes_parked_updates_first() {
    let dir = temp_dir("replace-flushes");
    let server = Server::open(
        Scheme::One,
        &dir,
        opts(RealVfs::arc(), 1, BackendKind::Btree),
    )
    .unwrap();
    let replies = Replies::default();
    let parked = tag(0, 1);
    assert_eq!(server.park(&server.update(&[parked], 1), &replies), None);
    // A replacement that does not cover the parked keyword: it must see it
    // (applied by the pass the replacement runs first) and refuse.
    let replacement = p1::encode_replace_index(
        2 * CAPACITY,
        &[UpdateEntry {
            tag: tag(0, 2),
            delta: vec![0; (2 * CAPACITY / 8) as usize],
            f_r: vec![],
        }],
    );
    let err = decode_ack(&server.handle(&replacement)).unwrap_err();
    assert!(
        err.to_string().contains("missing a stored keyword"),
        "{err}"
    );
    let acks = replies.take();
    assert_eq!(acks.len(), 1);
    decode_ack(&acks[0]).unwrap();
    assert_eq!(server.seen(&parked), Some(1));
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A real filesystem whose shard-0 index-journal fsyncs wait at a gate
/// while it is closed: it holds that shard's writer between its group
/// write and its fsync. Every other shard's journal passes.
#[derive(Default)]
struct Gate {
    /// (closed, syncs waiting at it)
    state: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl Gate {
    fn set_closed(&self, closed: bool) {
        self.state.lock().unwrap().0 = closed;
        self.cv.notify_all();
    }

    /// Block until a sync waits at the (closed) gate.
    fn wait_until_held(&self) {
        let mut state = self.state.lock().unwrap();
        while state.1 == 0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if state.0 {
            state.1 += 1;
            self.cv.notify_all();
            while state.0 {
                state = self.cv.wait(state).unwrap();
            }
            state.1 -= 1;
        }
    }
}

struct GatedVfs(Arc<Gate>);

struct GatedFile {
    inner: Box<dyn VfsFile>,
    gate: Option<Arc<Gate>>,
}

impl GatedVfs {
    fn wrap(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let journal = name == "scheme1.wal" || name == "scheme2.wal";
        Box::new(GatedFile {
            inner,
            gate: journal.then(|| Arc::clone(&self.0)),
        })
    }
}

impl VfsFile for GatedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        if let Some(gate) = &self.gate {
            gate.pass();
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

impl Vfs for GatedVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        RealVfs.file_len(path)
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, RealVfs.open_write(path)?))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, RealVfs.create(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        RealVfs.sync_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        RealVfs.read_range(path, offset, len)
    }
}

/// The quiescers wait out a writer held between its write and its fsync
/// — repair must not swap the journal it is writing — and then flush
/// themselves, without deadlocking with it.
#[test]
fn quiescers_wait_out_a_flush_held_mid_write() {
    for scheme in [Scheme::One, Scheme::Two] {
        for quiesce in [Quiesce::Checkpoint, Quiesce::Repair] {
            let ctx = format!("{quiesce:?}, {scheme:?}");
            let dir = temp_dir("held-mid-write");
            let gate = Arc::new(Gate::default());
            let vfs = Arc::new(GatedVfs(Arc::clone(&gate)));
            let server = Server::open(scheme, &dir, opts(vfs, 1, BackendKind::Btree)).unwrap();
            let (first, second) = (tag(0, 1), tag(0, 2));
            let quiesced = AtomicBool::new(false);
            gate.set_closed(true);
            std::thread::scope(|s| {
                // The library path: stage, then a flush whose write blocks
                // in its group's fsync.
                let writer = s.spawn(|| server.handle(&server.update(&[first], 1)));
                gate.wait_until_held();
                // Parked behind the held writer.
                let replies = Replies::default();
                assert_eq!(server.park(&server.update(&[second], 2), &replies), None);
                let quiescer = s.spawn(|| {
                    let outcome = quiesce.run(server.admin());
                    quiesced.store(true, Ordering::SeqCst);
                    outcome
                });
                std::thread::sleep(Duration::from_millis(100));
                assert!(
                    !quiesced.load(Ordering::SeqCst),
                    "{ctx}: quiesced under a writer mid-write"
                );
                gate.set_closed(false);
                decode_ack(&writer.join().unwrap()).unwrap();
                quiescer.join().unwrap().unwrap();
                let acks = replies.take();
                assert_eq!(acks.len(), 1, "{ctx}: the quiescer flushed what was parked");
                decode_ack(&acks[0]).unwrap();
            });
            // Nothing was written to a journal that was swapped out from
            // under it: the next mutation and a reopen see everything.
            decode_ack(&server.handle(&server.update(&[tag(0, 3)], 3))).unwrap();
            drop(server);
            let server =
                Server::open(scheme, &dir, opts(RealVfs::arc(), 1, BackendKind::Btree)).unwrap();
            for (round, t) in [(1, first), (2, second), (3, tag(0, 3))] {
                assert_eq!(server.seen(&t), Some(round), "{ctx}");
            }
            drop(server);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Writers of different shards run at once: with shard 0's writer held in
/// its fsync, an update on shard 1 is written, applied and acknowledged on
/// its own thread. A batch with a slice on each waits for both: its caller
/// writes shard 1, leaves shard 0 to the held writer, and gets its reply
/// from that writer once the gate opens.
#[test]
fn a_writer_held_on_one_shard_holds_up_no_other() {
    for scheme in [Scheme::One, Scheme::Two] {
        let dir = temp_dir("held-other-shard");
        let gate = Arc::new(Gate::default());
        let vfs = Arc::new(GatedVfs(Arc::clone(&gate)));
        let server = Server::open(scheme, &dir, opts(vfs, 4, BackendKind::Btree)).unwrap();
        gate.set_closed(true);
        std::thread::scope(|s| {
            let held = s.spawn(|| server.handle(&server.update(&[tag(0, 1)], 1)));
            gate.wait_until_held();
            // Shard 1 only: done while shard 0's writer waits.
            decode_ack(&server.handle(&server.update(&[tag(1, 1)], 1))).unwrap();
            assert_eq!(server.seen(&tag(1, 1)), Some(1), "{scheme:?}");
            assert_eq!(server.seen(&tag(0, 1)), None, "{scheme:?}: not durable yet");

            let batch = s.spawn(|| server.handle(&server.update(&[tag(0, 2), tag(1, 2)], 2)));
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !batch.is_finished(),
                "{scheme:?}: acked before its shard-0 fsync"
            );
            assert_eq!(
                server.seen(&tag(1, 2)),
                None,
                "{scheme:?}: half a batch applied"
            );
            gate.set_closed(false);
            decode_ack(&held.join().unwrap()).unwrap();
            decode_ack(&batch.join().unwrap()).unwrap();
        });
        for t in [tag(0, 1), tag(1, 1)] {
            assert_eq!(server.seen(&t), Some(1), "{scheme:?}");
        }
        for t in [tag(0, 2), tag(1, 2)] {
            assert_eq!(server.seen(&t), Some(2), "{scheme:?}");
        }
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
