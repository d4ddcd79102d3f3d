//! The TCP daemon under concurrency: several clients on separate tenants
//! drive interleaved Scheme 2 updates and searches at once, and every
//! search result must equal what the same operation sequence produces
//! against a private in-memory server (the sequential oracle). Shutdown
//! must drain and join every daemon thread.

use sse_repro::core::scheme2::{Scheme2Client, Scheme2Config};
use sse_repro::core::types::{Document, Keyword, MasterKey, SearchHits};
use sse_repro::server::daemon::{Daemon, ServerConfig};
use sse_repro::server::proto::SchemeId;
use sse_repro::server::transport::TcpTransport;
use std::net::TcpStream;
use std::time::Duration;

const CLIENTS: usize = 4;
const ROUNDS: u64 = 4;

/// The deterministic op sequence client `i` runs: each round stores a
/// small batch, then searches two keywords (one shared hot keyword, one
/// per-client keyword).
fn round_docs(client: u64, round: u64) -> Vec<Document> {
    let base = round * 10;
    vec![
        Document::new(
            base,
            format!("c{client}-r{round}-a").into_bytes(),
            ["hot", "warm"],
        ),
        Document::new(
            base + 1,
            format!("c{client}-r{round}-b").into_bytes(),
            [format!("own-{client}").as_str(), "hot"],
        ),
    ]
}

fn sorted(mut hits: SearchHits) -> SearchHits {
    hits.sort();
    hits
}

/// Run the op sequence against any transport-backed client, returning the
/// transcript of all search results.
fn run_ops<T: sse_repro::net::link::Transport>(
    sse: &mut Scheme2Client<T>,
    client: u64,
) -> Vec<SearchHits> {
    let mut transcript = Vec::new();
    for round in 0..ROUNDS {
        sse.store(&round_docs(client, round)).unwrap();
        transcript.push(sorted(sse.search(&Keyword::new("hot")).unwrap()));
        transcript.push(sorted(
            sse.search(&Keyword::new(format!("own-{client}"))).unwrap(),
        ));
    }
    transcript
}

#[test]
fn concurrent_tenants_match_sequential_oracle() {
    let daemon = Daemon::spawn(ServerConfig {
        workers: 3,
        queue_depth: 4, // small on purpose: exercises BUSY + client retry
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let joins: Vec<_> = (0..CLIENTS as u64)
        .map(|client| {
            std::thread::spawn(move || {
                let transport =
                    TcpTransport::connect(addr, &format!("tenant-{client}"), SchemeId::Scheme2)
                        .unwrap();
                let mut sse = Scheme2Client::new_seeded(
                    transport,
                    MasterKey::from_seed(100 + client),
                    Scheme2Config::standard(),
                    client,
                );
                run_ops(&mut sse, client)
            })
        })
        .collect();
    let concurrent: Vec<Vec<SearchHits>> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    // Oracle: the same per-client sequences run sequentially, each against
    // its own in-memory server (what "separate tenants" must behave like).
    for (client, observed) in concurrent.iter().enumerate() {
        let client = client as u64;
        let mut oracle = Scheme2Client::new_in_memory(
            MasterKey::from_seed(100 + client),
            Scheme2Config::standard(),
        );
        let expected = run_ops(&mut oracle, client);
        assert_eq!(observed, &expected, "tenant-{client} diverged from oracle");
        // Shape sanity: round r's "hot" search sees both docs of every
        // round so far; the per-client keyword sees one per round.
        for round in 0..ROUNDS as usize {
            assert_eq!(observed[2 * round].len(), 2 * (round + 1));
            assert_eq!(observed[2 * round + 1].len(), round + 1);
        }
    }

    let stats = daemon.stats();
    assert!(
        stats.requests_ok >= (CLIENTS as u64) * ROUNDS * 3,
        "every store and search was served: {stats:?}"
    );
    assert_eq!(stats.requests_err, 0, "no protocol errors: {stats:?}");
    assert_eq!(daemon.tenant_count(), CLIENTS);

    // Graceful shutdown drains and joins every thread the daemon spawned.
    let report = daemon.shutdown();
    assert_eq!(report.workers_joined, 3);
    assert!(report.connections_joined >= CLIENTS);

    // The listener is gone: new connections are refused (or time out).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "listener still accepting after shutdown");
}

/// Each keyword searched twice back to back, then once more after an
/// update. With no update in between the second search repeats the
/// first's trapdoor and finds its memo entry current, which is what the
/// reactor answers itself (DESIGN.md §4n), as it applies the small
/// in-memory updates; the update makes the entry stale and the third
/// search is a worker's again.
fn repeat_ops<T: sse_repro::net::link::Transport>(
    sse: &mut Scheme2Client<T>,
    client: u64,
) -> Vec<SearchHits> {
    let keywords = [
        "hot".to_string(),
        "warm".to_string(),
        format!("own-{client}"),
    ];
    let mut transcript = Vec::new();
    sse.store(&round_docs(client, 0)).unwrap();
    for kw in &keywords {
        for _ in 0..2 {
            transcript.push(sorted(sse.search(&Keyword::new(kw.as_str())).unwrap()));
        }
    }
    sse.store(&round_docs(client, 1)).unwrap();
    for kw in &keywords {
        transcript.push(sorted(sse.search(&Keyword::new(kw.as_str())).unwrap()));
    }
    transcript
}

#[test]
fn repeat_searches_are_served_inline_and_match_the_sequential_oracle() {
    let daemon = Daemon::spawn(ServerConfig::default()).unwrap();
    let addr = daemon.local_addr();
    let joins: Vec<_> = (0..CLIENTS as u64)
        .map(|client| {
            std::thread::spawn(move || {
                let transport =
                    TcpTransport::connect(addr, &format!("repeat-{client}"), SchemeId::Scheme2)
                        .unwrap();
                let mut sse = Scheme2Client::new_seeded(
                    transport,
                    MasterKey::from_seed(200 + client),
                    Scheme2Config::standard(),
                    client,
                );
                repeat_ops(&mut sse, client)
            })
        })
        .collect();
    let observed: Vec<Vec<SearchHits>> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    for (client, observed) in observed.iter().enumerate() {
        let client = client as u64;
        let mut oracle = Scheme2Client::new_in_memory(
            MasterKey::from_seed(200 + client),
            Scheme2Config::standard(),
        );
        assert_eq!(
            observed,
            &repeat_ops(&mut oracle, client),
            "repeat-{client} diverged from the oracle"
        );
        // hot, hot, warm, warm, own, own, then hot, warm, own after round 1.
        let sizes: Vec<usize> = observed.iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, 2, 1, 1, 1, 1, 4, 2, 2]);
    }

    // The path is provably exercised: each tenant's three back-to-back
    // repeats and its four store requests (two stores, each a PutDocs and
    // an AppendGenerations, in memory and small) were answered by the
    // reactor, and nothing else was — every first search and every search
    // after the update needed a worker.
    let mut admin = TcpTransport::connect(addr, "repeat-0", SchemeId::Scheme2).unwrap();
    let stats = admin.admin_stats().unwrap();
    assert_eq!(stats.inline_served, CLIENTS as u64 * (3 + 4), "{stats:?}");
    assert!(stats.inline_declined >= CLIENTS as u64 * 6, "{stats:?}");
    assert_eq!(stats.search_cache_hits, CLIENTS as u64 * 3, "{stats:?}");
    assert_eq!(stats.requests_err, 0, "{stats:?}");
    drop(admin);
    daemon.shutdown();
}

#[test]
fn scheme1_and_scheme2_share_a_tenant_name_without_mixing() {
    use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config};

    let daemon = Daemon::spawn(ServerConfig::default()).unwrap();
    let addr = daemon.local_addr();

    // Same tenant string, different schemes: routed to different databases.
    let t1 = TcpTransport::connect(addr, "shared", SchemeId::Scheme1).unwrap();
    let t2 = TcpTransport::connect(addr, "shared", SchemeId::Scheme2).unwrap();
    let mut c1 = Scheme1Client::new_seeded(
        t1,
        MasterKey::from_seed(1),
        Scheme1Config::fast_profile(4096),
        7,
    );
    let mut c2 =
        Scheme2Client::new_seeded(t2, MasterKey::from_seed(1), Scheme2Config::standard(), 7);

    c1.store(&[Document::new(0, b"s1".to_vec(), ["alpha"])])
        .unwrap();
    c2.store(&[Document::new(0, b"s2".to_vec(), ["alpha"])])
        .unwrap();
    let h1 = c1.search(&Keyword::new("alpha")).unwrap();
    let h2 = c2.search(&Keyword::new("alpha")).unwrap();
    assert_eq!(h1, vec![(0, b"s1".to_vec())]);
    assert_eq!(h2, vec![(0, b"s2".to_vec())]);
    assert_eq!(daemon.tenant_count(), 2);
    daemon.shutdown();
}

#[test]
fn admin_stats_are_queryable_over_the_wire() {
    let daemon = Daemon::spawn(ServerConfig::default()).unwrap();
    let addr = daemon.local_addr();

    let transport = TcpTransport::connect(addr, "t", SchemeId::Scheme2).unwrap();
    let mut sse = Scheme2Client::new_seeded(
        transport,
        MasterKey::from_seed(3),
        Scheme2Config::standard(),
        3,
    );
    sse.store(&[Document::new(0, b"doc".to_vec(), ["kw"])])
        .unwrap();
    sse.search(&Keyword::new("kw")).unwrap();

    let mut admin = TcpTransport::connect(addr, "t", SchemeId::Scheme2).unwrap();
    let stats = admin.admin_stats().unwrap();
    assert!(stats.requests_ok >= 2, "{stats:?}");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0, "{stats:?}");
    assert!(
        stats.p50_ns > 0 && stats.p50_ns <= stats.p99_ns,
        "{stats:?}"
    );

    admin.admin_shutdown().unwrap();
    daemon.wait_for_shutdown_request();
    daemon.shutdown();
}

/// The acceptance round-trip for durable serving: two tenants populate
/// their databases over TCP, the daemon shuts down (checkpointing), a new
/// daemon reopens the same data directory, and both tenants' searches
/// return identical results over fresh connections — zero re-uploads.
#[test]
fn durable_daemon_restart_serves_identical_searches_without_reupload() {
    use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config};

    let data_dir = std::env::temp_dir().join(format!(
        "sse-daemon-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    };

    let alice_key = MasterKey::from_seed(11);
    let bob_key = MasterKey::from_seed(22);
    let s1_config = Scheme1Config::fast_profile(4096);
    let s2_config = Scheme2Config::standard();

    // Session 1: populate both tenants, remember what the searches said.
    let (expected_alice, expected_bob, bob_state) = {
        let daemon = Daemon::spawn(config.clone()).unwrap();
        let addr = daemon.local_addr();

        let t = TcpTransport::connect(addr, "alice", SchemeId::Scheme1).unwrap();
        let mut alice = Scheme1Client::new_seeded(t, alice_key.clone(), s1_config.clone(), 1);
        alice
            .store(&[
                Document::new(0, b"alice zero".to_vec(), ["alpha"]),
                Document::new(1, b"alice one".to_vec(), ["alpha", "beta"]),
            ])
            .unwrap();

        let t = TcpTransport::connect(addr, "bob", SchemeId::Scheme2).unwrap();
        let mut bob = Scheme2Client::new_seeded(t, bob_key.clone(), s2_config.clone(), 1);
        bob.store(&[
            Document::new(0, b"bob zero".to_vec(), ["gamma"]),
            Document::new(1, b"bob one".to_vec(), ["gamma", "delta"]),
        ])
        .unwrap();

        let expected_alice = sorted(alice.search(&Keyword::new("alpha")).unwrap());
        let expected_bob = sorted(bob.search(&Keyword::new("gamma")).unwrap());
        let bob_state = bob.state();

        let report = daemon.shutdown();
        assert_eq!(
            report.tenants_checkpointed, 2,
            "graceful shutdown checkpoints every tenant"
        );
        (expected_alice, expected_bob, bob_state)
    };
    assert_eq!(expected_alice.len(), 2);
    assert_eq!(expected_bob.len(), 2);

    // Session 2: a new daemon process over the same directory.
    let daemon = Daemon::spawn(config).unwrap();
    assert_eq!(
        daemon.tenant_count(),
        2,
        "both tenant databases reopen before the listener serves"
    );
    let addr = daemon.local_addr();

    // Scheme 1 clients are stateless beyond the key: a brand-new client
    // must see everything, with no re-upload.
    let t = TcpTransport::connect(addr, "alice", SchemeId::Scheme1).unwrap();
    let mut alice = Scheme1Client::new_seeded(t, alice_key, s1_config, 9);
    assert_eq!(
        sorted(alice.search(&Keyword::new("alpha")).unwrap()),
        expected_alice
    );

    // Scheme 2 restores its persisted counter state, nothing else.
    let t = TcpTransport::connect(addr, "bob", SchemeId::Scheme2).unwrap();
    let mut bob = Scheme2Client::new_seeded(t, bob_key, s2_config, 9);
    bob.restore_state(bob_state);
    assert_eq!(
        sorted(bob.search(&Keyword::new("gamma")).unwrap()),
        expected_bob
    );
    assert_eq!(sorted(bob.search(&Keyword::new("delta")).unwrap()).len(), 1);

    // Checkpointed shutdown means the restart replayed no WAL.
    let stats = daemon.stats();
    assert_eq!(
        stats.wal_recoveries, 0,
        "clean shutdown left nothing to recover: {stats:?}"
    );
    assert_eq!(stats.torn_tails_truncated, 0, "{stats:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A connection that goes quiet past the idle timeout is reaped by the
/// daemon; the client's next request fails cleanly and the transport
/// re-dials, so the connection after that succeeds.
#[test]
fn idle_connections_are_reaped_and_clients_reattach() {
    let daemon = Daemon::spawn(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let transport = TcpTransport::connect(addr, "sleepy", SchemeId::Scheme2).unwrap();
    let mut sse = Scheme2Client::new_seeded(
        transport,
        MasterKey::from_seed(5),
        Scheme2Config::standard(),
        5,
    );
    sse.store(&[Document::new(0, b"doc".to_vec(), ["kw"])])
        .unwrap();

    // Outlive the idle timeout; the server closes the connection.
    std::thread::sleep(Duration::from_millis(600));

    // The first post-idle op fails (its connection is gone — at-most-once
    // forbids a silent retry) but heals the transport for the next one.
    let first = sse.search(&Keyword::new("kw"));
    assert!(first.is_err(), "idle connection was not reaped");
    let second = sse.search(&Keyword::new("kw")).unwrap();
    assert_eq!(second, vec![(0, b"doc".to_vec())]);
    assert!(
        sse.transport_mut().reconnects() >= 1,
        "transport should have re-dialed after the reap"
    );

    let stats = daemon.stats();
    assert!(
        stats.reconnects >= 1,
        "daemon should count the re-attach: {stats:?}"
    );
    daemon.shutdown();
}

const SHARED_CLIENTS: u64 = 16;
const SHARED_SHARDS: usize = 8;
const SHARED_ROUNDS: u64 = 3;

/// The op sequence for the shared-tenant test: ids are strided by client
/// (the tenant's doc store is shared, so ids must be globally unique), and
/// keywords mix an overlapping string every client uses (`hot16`) with a
/// per-client disjoint one — under distinct master keys the shared string
/// still maps to distinct tags, so shard routing sees both patterns.
fn shared_round_docs(client: u64, round: u64) -> Vec<Document> {
    let base = (round * SHARED_CLIENTS + client) * 2;
    vec![
        Document::new(
            base,
            format!("s{client}-r{round}-a").into_bytes(),
            ["hot16", "warm16"],
        ),
        Document::new(
            base + 1,
            format!("s{client}-r{round}-b").into_bytes(),
            [format!("own16-{client}").as_str(), "hot16"],
        ),
    ]
}

/// Per-client sequence over the shared tenant. Odd clients ship their
/// stores through the batched `UPDATE_MANY` path, even clients through
/// plain per-message DATA requests, so both request kinds race on the
/// same shard locks.
fn shared_ops<T: sse_repro::net::link::Transport>(
    sse: &mut Scheme2Client<T>,
    client: u64,
) -> Vec<SearchHits> {
    let mut transcript = Vec::new();
    for round in 0..SHARED_ROUNDS {
        let docs = shared_round_docs(client, round);
        if client % 2 == 1 {
            sse.store_batch(&docs).unwrap();
        } else {
            sse.store(&docs).unwrap();
        }
        transcript.push(sorted(sse.search(&Keyword::new("hot16")).unwrap()));
        transcript.push(sorted(
            sse.search(&Keyword::new(format!("own16-{client}")))
                .unwrap(),
        ));
    }
    transcript
}

/// Sixteen clients hammer ONE sharded tenant database concurrently —
/// distinct master keys, so their keyword sets are disjoint as tags even
/// where the strings overlap — and every client's transcript must be
/// linearizable: identical to the same sequence run sequentially against
/// a private in-memory server. Any cross-shard routing error, lost update
/// under contention, or UPDATE_MANY/DATA interleaving bug diverges here.
#[test]
fn sixteen_clients_share_a_sharded_tenant_linearizably() {
    use sse_repro::server::tenant::TenantParams;

    let daemon = Daemon::spawn(ServerConfig {
        workers: SHARED_SHARDS,
        queue_depth: 64,
        tenant_params: TenantParams {
            shards: SHARED_SHARDS,
            ..TenantParams::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let joins: Vec<_> = (0..SHARED_CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let transport =
                    TcpTransport::connect(addr, "shared-shardy", SchemeId::Scheme2).unwrap();
                let mut sse = Scheme2Client::new_seeded(
                    transport,
                    MasterKey::from_seed(500 + client),
                    Scheme2Config::standard(),
                    client,
                );
                shared_ops(&mut sse, client)
            })
        })
        .collect();
    let concurrent: Vec<Vec<SearchHits>> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    for (client, observed) in concurrent.iter().enumerate() {
        let client = client as u64;
        let mut oracle = Scheme2Client::new_in_memory(
            MasterKey::from_seed(500 + client),
            Scheme2Config::standard(),
        );
        let expected = shared_ops(&mut oracle, client);
        assert_eq!(
            observed, &expected,
            "client {client} on the shared tenant diverged from its sequential oracle"
        );
        for round in 0..SHARED_ROUNDS as usize {
            assert_eq!(observed[2 * round].len(), 2 * (round + 1));
            assert_eq!(observed[2 * round + 1].len(), round + 1);
        }
    }

    let stats = daemon.stats();
    assert_eq!(stats.requests_err, 0, "no protocol errors: {stats:?}");
    assert!(stats.requests_ok >= SHARED_CLIENTS * SHARED_ROUNDS * 3);
    assert_eq!(daemon.tenant_count(), 1, "one shared tenant database");

    // The per-shard contention counters are live and sized to the tenant's
    // shard count (whether any acquisition contended is timing-dependent).
    let mut admin = TcpTransport::connect(addr, "shared-shardy", SchemeId::Scheme2).unwrap();
    let snap = admin.admin_stats().unwrap();
    assert_eq!(
        snap.shard_contention.len(),
        SHARED_SHARDS,
        "STATS exposes one contention counter per shard: {snap:?}"
    );

    daemon.shutdown();
}

/// An `UPDATE_MANY` envelope touching k keywords (k shards) is
/// all-or-nothing to racing searches. The writer stores documents tagged
/// with four keywords per envelope (one batched request, four shards);
/// a concurrent reader sharing the master key searches the keywords one
/// by one. Because the batch applies under the union of its shard locks,
/// any doc id visible under an earlier-read keyword must be visible under
/// every later-read one — a shard-by-shard (non-atomic) apply leaves a
/// window where the subset chain breaks.
#[test]
fn update_many_is_all_or_nothing_to_racing_searches() {
    use sse_repro::core::scheme2::Scheme2ClientState;
    use sse_repro::server::tenant::TenantParams;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const ENVELOPES: u64 = 200;
    const KWS: [&str; 4] = ["atom-0", "atom-1", "atom-2", "atom-3"];

    let daemon = Daemon::spawn(ServerConfig {
        workers: 4,
        queue_depth: 64,
        tenant_params: TenantParams {
            shards: 8,
            ..TenantParams::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();
    let key = MasterKey::from_seed(77);
    let done = Arc::new(AtomicBool::new(false));

    // Writer: every store_batch is one UPDATE_MANY envelope appending one
    // generation to each of the four keywords. It never searches, so under
    // CtrPolicy::OnSearchOnly every generation stays at counter 1 and the
    // reader below can unlock all of them with one restored counter.
    let writer = {
        let key = key.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let transport = TcpTransport::connect(addr, "atomic", SchemeId::Scheme2).unwrap();
            let mut sse = Scheme2Client::new_seeded(transport, key, Scheme2Config::standard(), 1);
            for n in 0..ENVELOPES {
                sse.store_batch(&[Document::new(n, format!("atomic-{n}").into_bytes(), KWS)])
                    .unwrap();
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    // Reader: same master key, counter pinned to the writer's value.
    let reader = {
        let done = done.clone();
        std::thread::spawn(move || {
            let transport = TcpTransport::connect(addr, "atomic", SchemeId::Scheme2).unwrap();
            let mut sse = Scheme2Client::new_seeded(transport, key, Scheme2Config::standard(), 2);
            sse.restore_state(Scheme2ClientState {
                ctr: 1,
                epoch: 0,
                searched_since_update: true,
            });
            let ids = |sse: &mut Scheme2Client<TcpTransport>, kw: &str| -> BTreeSet<u64> {
                sse.search(&Keyword::new(kw))
                    .unwrap()
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            };
            let mut passes = 0u64;
            loop {
                let finished = done.load(Ordering::SeqCst);
                let mut prev: Option<(usize, BTreeSet<u64>)> = None;
                for (i, kw) in KWS.iter().enumerate() {
                    let seen = ids(&mut sse, kw);
                    if let Some((j, earlier)) = &prev {
                        assert!(
                            earlier.is_subset(&seen),
                            "torn UPDATE_MANY: ids {:?} visible under {} but not under {} \
                             (read later)",
                            earlier.difference(&seen).collect::<Vec<_>>(),
                            KWS[*j],
                            kw,
                        );
                    }
                    prev = Some((i, seen));
                }
                passes += 1;
                if finished {
                    break;
                }
            }
            // Quiesced: every keyword sees every envelope.
            let full: BTreeSet<u64> = (0..ENVELOPES).collect();
            for kw in KWS {
                assert_eq!(ids(&mut sse, kw), full, "{kw} missing envelopes at rest");
            }
            passes
        })
    };

    writer.join().unwrap();
    let passes = reader.join().unwrap();
    assert!(
        passes >= 2,
        "reader never raced the writer ({passes} passes)"
    );

    let stats = daemon.stats();
    assert_eq!(stats.requests_err, 0, "no protocol errors: {stats:?}");
    daemon.shutdown();
}

/// Regression test for the BUSY retry budget: it is measured on the
/// monotonic clock and configurable. Against a server that answers BUSY
/// forever, a transport with a short budget must fail the request with
/// `TimedOut` no earlier than the budget and nowhere near the 10 s
/// default — i.e. the override is honored and the loop cannot spin
/// unbounded (or be starved/stretched by wall-clock steps, which the
/// monotonic `Instant` source is immune to by construction).
#[test]
fn busy_deadline_is_monotonic_and_bounded() {
    use sse_repro::net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
    use sse_repro::net::link::Transport;
    use sse_repro::server::proto::{self, HELLO_SEQ, STATUS_BUSY, STATUS_OK};
    use sse_repro::server::transport::DEFAULT_BUSY_RETRY_DEADLINE;
    use std::io::Write;
    use std::time::Instant;

    // A minimal daemon impostor: accept one connection, ack the hello,
    // then answer every request with BUSY (correctly correlated, so the
    // transport keeps retrying rather than erroring out).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut greeted = false;
        loop {
            let Ok(frame) = read_frame(&mut stream, MAX_FRAME_LEN) else {
                return; // client hung up: test over
            };
            let reply = if greeted {
                let (_, seq, _) = proto::decode_request(&frame).unwrap();
                proto::encode_response(STATUS_BUSY, seq, &[])
            } else {
                greeted = true;
                proto::encode_response(STATUS_OK, HELLO_SEQ, &[])
            };
            if stream.write_all(&encode_frame(&reply)).is_err() {
                return;
            }
        }
    });

    let deadline = Duration::from_millis(250);
    let mut transport = TcpTransport::connect(addr, "busy", SchemeId::Scheme2)
        .unwrap()
        .with_busy_retry_deadline(deadline);

    let started = Instant::now();
    let err = transport.round_trip(b"any scheme payload").unwrap_err();
    let elapsed = started.elapsed();

    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(
        elapsed >= deadline,
        "gave up after {elapsed:?}, before the {deadline:?} budget"
    );
    // Bounded: one more capped backoff past the budget at most, and far
    // from the default budget the override replaced.
    assert!(
        elapsed < DEFAULT_BUSY_RETRY_DEADLINE / 4,
        "spun for {elapsed:?} against a {deadline:?} budget"
    );
    assert!(
        transport.busy_retries() >= 2,
        "expected repeated BUSY retries, saw {}",
        transport.busy_retries()
    );

    drop(transport); // closes the socket; the impostor thread exits
    server.join().unwrap();
}

/// A daemon impostor: acks the hello, then answers every request OK with
/// the request's own payload. Returns the payloads it was sent once the
/// client hangs up.
fn spawn_echo_impostor() -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<Vec<u8>>>) {
    use sse_repro::net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
    use sse_repro::server::proto::{self, HELLO_SEQ, STATUS_OK};
    use std::io::Write;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_frame(&mut stream, MAX_FRAME_LEN).unwrap(); // the hello
        let hello_ok = proto::encode_response(STATUS_OK, HELLO_SEQ, &[]);
        stream.write_all(&encode_frame(&hello_ok)).unwrap();
        let mut seen = Vec::new();
        while let Ok(frame) = read_frame(&mut stream, MAX_FRAME_LEN) {
            let (_, seq, payload) = proto::decode_request(&frame).unwrap();
            let reply = proto::encode_response(STATUS_OK, seq, payload);
            stream.write_all(&encode_frame(&reply)).unwrap();
            seen.push(payload.to_vec());
        }
        seen
    });
    (addr, server)
}

#[test]
fn multi_mib_and_empty_replies_round_trip_byte_identically() {
    use sse_repro::net::link::Transport;

    let (addr, server) = spawn_echo_impostor();
    let mut transport = TcpTransport::connect(addr, "echo", SchemeId::Scheme2).unwrap();
    // Far past a socket buffer: the reply arrives over many reads.
    let big: Vec<u8> = (0..4u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    assert_eq!(transport.round_trip(&big).unwrap(), big);
    assert_eq!(transport.round_trip(&[]).unwrap(), Vec::<u8>::new());
    assert_eq!(transport.round_trip(b"small").unwrap(), b"small");
    drop(transport);
    assert_eq!(server.join().unwrap().len(), 3);
}

#[test]
fn an_oversized_request_is_invalid_input_and_sends_nothing() {
    use sse_repro::net::frame::MAX_FRAME_LEN;
    use sse_repro::net::link::Transport;

    let (addr, server) = spawn_echo_impostor();
    let mut transport = TcpTransport::connect(addr, "echo", SchemeId::Scheme2).unwrap();
    // The 5-byte envelope takes this payload past the frame limit.
    // `vec![0; n]` is calloc'd: no 64 MiB of writes.
    let too_big = vec![0u8; MAX_FRAME_LEN as usize];
    let err = transport.round_trip(&too_big).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert_eq!(
        transport.round_trip(b"still usable").unwrap(),
        b"still usable"
    );
    assert_eq!(transport.reconnects(), 0);
    drop(transport);
    assert_eq!(
        server.join().unwrap(),
        vec![b"still usable".to_vec()],
        "the oversized request sent nothing"
    );
}

/// Regression test for BUSY semantics under the per-worker run queues
/// (DESIGN.md §4k): when a connection pipelines more requests than the
/// scheduler can hold, the overflow must come back as cleanly correlated
/// BUSY responses — exactly one response per seq, the accepted subset
/// completing in dispatch order on a single worker (spill and steal may
/// not reorder one connection's stream), and every BUSY'd seq must
/// succeed when retried after the queue drains.
#[test]
fn pipelined_overflow_answers_busy_without_reordering_the_connection() {
    use sse_repro::core::scheme2::protocol::{decode_request, encode_search_many, Request};
    use sse_repro::net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
    use sse_repro::net::link::Transport;
    use sse_repro::server::proto::{self, Hello, HELLO_SEQ, KIND_DATA, STATUS_BUSY, STATUS_OK};
    use std::collections::BTreeMap;
    use std::io::Write;

    /// Remembers the bytes of the last single round trip, so the test can
    /// replay one warm (read-only) search verbatim over a bare socket.
    struct Capture {
        inner: TcpTransport,
        last: Vec<u8>,
    }
    impl Transport for Capture {
        fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
            self.last = request.to_vec();
            self.inner.round_trip(request)
        }
    }

    fn read_response(stream: &mut TcpStream) -> (u8, u32) {
        let body = read_frame(stream, MAX_FRAME_LEN).unwrap();
        let (status, seq, _) = proto::decode_response(&body).unwrap();
        (status, seq)
    }

    // One worker and a two-deep queue: with the worker chewing on a
    // batched search, a pipelined burst must overflow into BUSY.
    let daemon = Daemon::spawn(ServerConfig {
        workers: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr().to_string();

    // Warm the tenant and capture one memo-served search request.
    let transport = Capture {
        inner: TcpTransport::connect(&addr, "pipelined", SchemeId::Scheme2).unwrap(),
        last: Vec::new(),
    };
    let key = MasterKey::from_seed(0x91D);
    let mut sse = Scheme2Client::new_seeded(transport, key, Scheme2Config::standard(), 5);
    sse.store(&round_docs(0, 0)).unwrap();
    sse.search(&Keyword::new("hot")).unwrap();
    sse.search(&Keyword::new("hot")).unwrap();
    let search_request = sse.transport_mut().last.clone();
    drop(sse);
    assert!(!search_request.is_empty());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&encode_frame(
            &Hello {
                tenant: "pipelined".into(),
                scheme: SchemeId::Scheme2,
            }
            .encode(),
        ))
        .unwrap();
    assert_eq!(read_response(&mut stream), (STATUS_OK, HELLO_SEQ));

    // Each request is a Scheme 2 `SearchMany` of 8 copies of the warm
    // trapdoor, which the reactor never answers inline: the lone
    // worker's service time dwarfs the reactor's dispatch of the rest of
    // the burst.
    const BURST: u32 = 24;
    let Ok(Request::Search { tag, t_prime }) = decode_request(&search_request) else {
        panic!("the captured request is a Scheme 2 search");
    };
    let batch = encode_search_many(&[(tag, t_prime); 8]);
    let mut responded: BTreeMap<u32, u8> = BTreeMap::new();
    let mut busy_seqs: Vec<u32> = Vec::new();
    let mut rounds = 0u32;
    while busy_seqs.is_empty() {
        rounds += 1;
        assert!(rounds <= 10, "queue never overflowed into BUSY");
        let base = (rounds - 1) * BURST;
        let mut burst = Vec::new();
        for i in 0..BURST {
            burst.extend_from_slice(&encode_frame(&proto::encode_request(
                KIND_DATA,
                base + 1 + i,
                &batch,
            )));
        }
        stream.write_all(&burst).unwrap();
        let mut ok_order = Vec::new();
        let mut busy_order = Vec::new();
        for _ in 0..BURST {
            let (status, seq) = read_response(&mut stream);
            assert!(
                responded.insert(seq, status).is_none(),
                "seq {seq} answered twice"
            );
            match status {
                STATUS_OK => ok_order.push(seq),
                STATUS_BUSY => busy_order.push(seq),
                other => panic!("seq {seq}: unexpected status {other}"),
            }
        }
        // Exactly one response per pipelined seq, and each status
        // subsequence preserves the connection's dispatch order: the
        // single worker serves accepted jobs FIFO, and the reactor
        // answers overflow BUSY in receive order.
        assert_eq!(responded.len() as u32, rounds * BURST);
        assert!(ok_order.windows(2).all(|w| w[0] < w[1]), "{ok_order:?}");
        assert!(busy_order.windows(2).all(|w| w[0] < w[1]), "{busy_order:?}");
        busy_seqs = busy_order;
    }

    // Every rejected seq succeeds when retried closed-loop: BUSY told
    // the client to back off, not that the request was lost or the
    // connection poisoned.
    for &seq in &busy_seqs {
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(
                attempts <= 50,
                "seq {seq} still BUSY after {attempts} tries"
            );
            stream
                .write_all(&encode_frame(&proto::encode_request(
                    KIND_DATA, seq, &batch,
                )))
                .unwrap();
            let (status, got) = read_response(&mut stream);
            assert_eq!(got, seq);
            if status == STATUS_OK {
                break;
            }
            assert_eq!(status, STATUS_BUSY);
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let stats = daemon.stats();
    assert!(
        stats.requests_busy >= busy_seqs.len() as u64,
        "stats lost BUSY rejections: {stats:?}"
    );
    assert_eq!(stats.requests_err, 0, "no protocol errors: {stats:?}");
    drop(stream);
    daemon.shutdown();
}

/// Each scheme's own batched search over TCP (Scheme 2 `SearchMany`,
/// Scheme 1 `GetNonces` + `SearchRevealMany`): a batch over a sharded
/// tenant must return exactly what the same keywords yield one at a time,
/// with absent keywords coming back empty in position — and the Scheme 2
/// repeat searches must show up as memo hits in the daemon's STATS.
#[test]
fn search_many_envelope_matches_sequential_searches() {
    use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config};
    use sse_repro::server::tenant::TenantParams;

    let daemon = Daemon::spawn(ServerConfig {
        workers: 4,
        tenant_params: TenantParams {
            shards: 8,
            ..TenantParams::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = daemon.local_addr();

    let keywords: Vec<Keyword> = (0..8).map(|i| Keyword::new(format!("kw-{i}"))).collect();
    let mut with_absent = keywords.clone();
    with_absent.insert(3, Keyword::new("never-stored"));

    // Scheme 2: one SearchMany round.
    let t = TcpTransport::connect(addr, "many2", SchemeId::Scheme2).unwrap();
    let mut s2 =
        Scheme2Client::new_seeded(t, MasterKey::from_seed(41), Scheme2Config::standard(), 41);
    for round in 0..4u64 {
        let docs: Vec<Document> = keywords
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Document::new(
                    round * 100 + i as u64,
                    format!("s2-r{round}-k{i}").into_bytes(),
                    [w.as_str()],
                )
            })
            .collect();
        s2.store(&docs).unwrap();
    }
    let individual: Vec<SearchHits> = with_absent
        .iter()
        .map(|w| sorted(s2.search(w).unwrap()))
        .collect();
    let batched: Vec<SearchHits> = s2
        .search_many(&with_absent)
        .unwrap()
        .into_iter()
        .map(sorted)
        .collect();
    assert_eq!(batched, individual, "scheme 2 batch diverged");
    assert!(batched[3].is_empty(), "absent keyword must be empty");

    // Scheme 1: a GetNonces round + a SearchRevealMany round.
    let t = TcpTransport::connect(addr, "many1", SchemeId::Scheme1).unwrap();
    let mut s1 = Scheme1Client::new_seeded(
        t,
        MasterKey::from_seed(42),
        Scheme1Config::fast_profile(4096),
        42,
    );
    let docs: Vec<Document> = keywords
        .iter()
        .enumerate()
        .map(|(i, w)| Document::new(i as u64, format!("s1-k{i}").into_bytes(), [w.as_str()]))
        .collect();
    s1.store(&docs).unwrap();
    let individual: Vec<SearchHits> = with_absent
        .iter()
        .map(|w| sorted(s1.search(w).unwrap()))
        .collect();
    let batched: Vec<SearchHits> = s1
        .search_many(&with_absent)
        .unwrap()
        .into_iter()
        .map(sorted)
        .collect();
    assert_eq!(batched, individual, "scheme 1 batch diverged");
    assert!(batched[3].is_empty(), "absent keyword must be empty");

    // The Scheme 2 repeats above hit the server-side memo; the counters
    // surface through ADMIN_STATS.
    let mut admin = TcpTransport::connect(addr, "many2", SchemeId::Scheme2).unwrap();
    let stats = admin.admin_stats().unwrap();
    assert!(
        stats.search_cache_hits > 0,
        "repeat searches must hit the memo: {stats:?}"
    );
    assert!(stats.search_cache_misses > 0, "{stats:?}");
    assert_eq!(stats.requests_err, 0, "{stats:?}");

    daemon.shutdown();
}

// ---- parked mutations over the wire (DESIGN.md §4e) ---------------------

mod parked {
    use sse_repro::core::proto_common::{decode_ack, decode_result};
    use sse_repro::core::scheme2::key_commitment;
    use sse_repro::core::scheme2::protocol::{self as s2, GenerationEntry};
    use sse_repro::net::frame::{encode_frame, read_frame, MAX_FRAME_LEN};
    use sse_repro::net::wire::WireWriter;
    use sse_repro::primitives::etm::EtmKey;
    use sse_repro::primitives::hashchain::HashChain;
    use sse_repro::server::daemon::{Daemon, ServerConfig};
    use sse_repro::server::proto::{
        self, Hello, SchemeId, ADMIN_SHUTDOWN, HELLO_SEQ, KIND_ADMIN, KIND_DATA, STATUS_OK,
    };
    use sse_repro::server::tenant::TenantParams;
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::path::PathBuf;
    use std::time::Duration;

    /// Slow searches [`occupy_the_worker`] queues.
    const BLOCKERS: u32 = 32;

    /// Counter 1's key: every generation here is sealed under it and every
    /// matching search starts from it.
    fn key() -> [u8; 32] {
        HashChain::new(&[b"kw", b"key"], 64)
            .key_for_counter(1)
            .unwrap()
    }

    /// An `AppendGenerations` adding `ids` under `tag`.
    fn append(tag: [u8; 32], ids: &[u64]) -> Vec<u8> {
        let mut plain = WireWriter::new();
        plain.put_u64_vec(ids).put_u64_vec(&[]);
        s2::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: EtmKey::new(&key()).seal(&plain.finish()),
            commitment: key_commitment(&key()),
        }])
    }

    fn data_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
        encode_frame(&proto::encode_request(KIND_DATA, seq, payload))
    }

    /// A durable daemon with one worker in a fresh data directory. Its
    /// chain bound makes a search that never meets its generation walk
    /// 2^16 steps.
    fn one_worker_durable(name: &str) -> (Daemon, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sse-parked-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::spawn(ServerConfig {
            workers: 1,
            queue_depth: 1024,
            tenant_params: TenantParams {
                scheme2_chain_length: 1 << 16,
                ..TenantParams::default()
            },
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        (daemon, dir)
    }

    /// A bare Scheme 2 socket past its hello.
    fn connect(addr: SocketAddr, tenant: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let hello = Hello {
            tenant: tenant.into(),
            scheme: SchemeId::Scheme2,
        };
        stream.write_all(&encode_frame(&hello.encode())).unwrap();
        assert_eq!(read_reply(&mut stream).0, HELLO_SEQ);
        stream
    }

    /// One response frame: `(seq, payload)`.
    fn read_reply(stream: &mut TcpStream) -> (u32, Vec<u8>) {
        let body = read_frame(stream, MAX_FRAME_LEN).unwrap();
        let (status, seq, payload) = proto::decode_response(&body).unwrap();
        assert_eq!(status, STATUS_OK, "seq {seq}");
        (seq, payload.to_vec())
    }

    /// Store `ids` as documents, closed loop.
    fn put_docs(stream: &mut TcpStream, seq: u32, ids: impl Iterator<Item = u64>) {
        let docs: Vec<(u64, Vec<u8>)> = ids.map(|id| (id, id.to_le_bytes().to_vec())).collect();
        stream
            .write_all(&data_frame(seq, &s2::encode_put_docs(&docs)))
            .unwrap();
        let (got, payload) = read_reply(stream);
        assert_eq!(got, seq);
        decode_ack(&payload).unwrap();
    }

    /// The ids a search reply holds.
    fn ids(reply: &[u8]) -> Vec<u64> {
        decode_result(reply).unwrap().iter().map(|d| d.0).collect()
    }

    /// Hold the one worker: another tenant's [`BLOCKERS`] searches from a
    /// trapdoor that never reaches their generation, each a whole 2^16-step
    /// walk that fails (milliseconds no memo shortens). Returns once the
    /// first is answered: the worker is on the rest, so whatever is sent
    /// next queues behind them whole, in order, before it runs.
    fn occupy_the_worker(addr: SocketAddr) -> TcpStream {
        let mut busy = connect(addr, "busy");
        let tag = [0x42; 32];
        busy.write_all(&data_frame(1, &append(tag, &[1]))).unwrap();
        decode_ack(&read_reply(&mut busy).1).unwrap();
        let slow = s2::encode_search(&tag, &[0xEE; 32]);
        let burst: Vec<u8> = (2..2 + BLOCKERS)
            .flat_map(|seq| data_frame(seq, &slow))
            .collect();
        busy.write_all(&burst).unwrap();
        read_reply(&mut busy);
        busy
    }

    /// Read the rest of the blockers' replies.
    fn release(mut busy: TcpStream) {
        for _ in 1..BLOCKERS {
            read_reply(&mut busy);
        }
    }

    /// One worker, one connection: the search pipelined behind the
    /// connection's own unacked update reaches the worker while the update
    /// is parked, and must find it — the read flushes first, so the
    /// update's ack also leaves before the search's reply.
    #[test]
    fn a_search_pipelined_behind_its_own_unacked_update_sees_it() {
        let (daemon, dir) = one_worker_durable("read-your-write");
        let mut conn = connect(daemon.local_addr(), "read-your-write");
        put_docs(&mut conn, 1, 7..=7);
        let busy = occupy_the_worker(daemon.local_addr());
        let tag = [0x77; 32];
        let pipelined = [
            data_frame(2, &append(tag, &[7])),
            data_frame(3, &s2::encode_search(&tag, &key())),
        ]
        .concat();
        conn.write_all(&pipelined).unwrap();
        let (first, ack) = read_reply(&mut conn);
        let (second, found) = read_reply(&mut conn);
        assert_eq!((first, second), (2, 3), "the update is acked first");
        decode_ack(&ack).unwrap();
        assert_eq!(ids(&found), [7], "the search saw its connection's update");
        release(busy);
        assert_eq!(daemon.stats().ops_committed, 2);
        drop(conn);
        daemon.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A worker whose queue never empties never reaches the idle moment
    /// that flushes what it parked; the bound on the jobs it runs after
    /// parking flushes anyway. Behind the update go blob stores: not reads
    /// (a read of the tenant would flush it), not parked themselves, just
    /// jobs that keep the worker's queue from emptying.
    #[test]
    fn a_worker_that_never_idles_still_acks_a_parked_update_within_its_bound() {
        /// Stores behind the update: more than the bound.
        const STORES: u32 = 48;
        let (daemon, dir) = one_worker_durable("bounded");
        let mut conn = connect(daemon.local_addr(), "bounded");
        let busy = occupy_the_worker(daemon.local_addr());
        let mut pipelined = data_frame(1, &append([0x43; 32], &[1]));
        for seq in 2..2 + STORES {
            let store = s2::encode_put_docs(&[(u64::from(seq), vec![7; 16])]);
            pipelined.extend(data_frame(seq, &store));
        }
        conn.write_all(&pipelined).unwrap();
        let order: Vec<u32> = (0..=STORES).map(|_| read_reply(&mut conn).0).collect();
        let stores_first = order.iter().position(|&seq| seq == 1).unwrap();
        // FLUSH_AFTER_JOBS (daemon.rs) is 32: the update and 31 stores.
        assert!(
            stores_first <= 31,
            "acked after {stores_first} stores that came behind it: {order:?}"
        );
        release(busy);
        drop(conn);
        daemon.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `ADMIN_SHUTDOWN` read behind a pipeline of updates that the one
    /// worker has not reached: it drains its queue, parking every update,
    /// and commits them at its idle moment before it may exit — every
    /// update is acked, and all of them are there when the daemon comes
    /// back.
    #[test]
    fn admin_shutdown_acks_every_parked_update_before_the_daemon_exits() {
        const UPDATES: u32 = 16;
        let (daemon, dir) = one_worker_durable("drain");
        let mut conn = connect(daemon.local_addr(), "drain");
        put_docs(&mut conn, 100, 1..=u64::from(UPDATES));
        let busy = occupy_the_worker(daemon.local_addr());
        let tag = [0x5D; 32];
        let mut burst: Vec<u8> = (1..=UPDATES)
            .flat_map(|n| data_frame(n, &append(tag, &[u64::from(n)])))
            .collect();
        burst.extend(encode_frame(&proto::encode_request(
            KIND_ADMIN,
            UPDATES + 1,
            &[ADMIN_SHUTDOWN],
        )));
        conn.write_all(&burst).unwrap();
        let mut acked = 0;
        for _ in 0..=UPDATES {
            let (seq, payload) = read_reply(&mut conn);
            if seq <= UPDATES {
                decode_ack(&payload).unwrap();
                acked += 1;
            }
        }
        assert_eq!(acked, UPDATES);
        release(busy);
        daemon.wait_for_shutdown_request();
        let report = daemon.shutdown();
        assert_eq!(report.final_stats.ops_committed, u64::from(UPDATES) + 1);

        let daemon = Daemon::spawn(ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut conn = connect(daemon.local_addr(), "drain");
        conn.write_all(&data_frame(1, &s2::encode_search(&tag, &key())))
            .unwrap();
        let want: Vec<u64> = (1..=u64::from(UPDATES)).collect();
        assert_eq!(ids(&read_reply(&mut conn).1), want);
        drop(conn);
        daemon.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
