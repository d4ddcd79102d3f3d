//! Both schemes over the threaded duplex transport: the same client code
//! must work when the server lives on another thread behind framed
//! channels (the shape of a real network deployment).

use sse_repro::core::journal::ServerRecovery;
use sse_repro::core::query::{execute_query, Query};
use sse_repro::core::scheme::SseClientApi;
use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_repro::core::scheme2::{Scheme2Client, Scheme2Config, Scheme2Server};
use sse_repro::core::types::{Document, Keyword, MasterKey, SearchHits};
use sse_repro::net::link::{Duplex, MeteredLink};
use sse_repro::net::meter::Meter;

fn docs() -> Vec<Document> {
    vec![
        Document::new(0, b"zero".to_vec(), ["alpha", "beta"]),
        Document::new(1, b"one".to_vec(), ["beta"]),
        Document::new(2, b"two".to_vec(), ["gamma"]),
    ]
}

#[test]
fn scheme1_full_lifecycle_over_threads() {
    let config = Scheme1Config::fast_profile(64);
    let server = Scheme1Server::new_in_memory(64);
    let meter = Meter::new();
    let (duplex, handle) = Duplex::spawn(server, meter.clone());
    let mut client = Scheme1Client::new_seeded(duplex, MasterKey::from_seed(1), config, 7);

    client.store(&docs()).unwrap();
    let hits = client.search(&Keyword::new("beta")).unwrap();
    assert_eq!(hits.len(), 2);

    // Updates, batched search and boolean queries all flow over the wire.
    client
        .store(&[Document::new(9, b"nine".to_vec(), ["beta"])])
        .unwrap();
    let many = client
        .search_many(&[Keyword::new("alpha"), Keyword::new("beta")])
        .unwrap();
    assert_eq!(many[0].len(), 1);
    assert_eq!(many[1].len(), 3);
    let q = execute_query(&mut client, &Query::all_of(["alpha", "beta"])).unwrap();
    assert_eq!(q.len(), 1);

    assert!(meter.snapshot().rounds >= 6);
    drop(client);
    handle.join();
}

#[test]
fn scheme2_full_lifecycle_over_threads() {
    let config = Scheme2Config::standard().with_chain_length(128);
    let server = Scheme2Server::new_in_memory(config.clone());
    let meter = Meter::new();
    let (duplex, handle) = Duplex::spawn(server, meter.clone());
    let mut client = Scheme2Client::new_seeded(duplex, MasterKey::from_seed(2), config, 8);

    client.store(&docs()).unwrap();
    for round in 0u64..5 {
        client
            .store(&[Document::new(10 + round, vec![round as u8], ["beta"])])
            .unwrap();
        let hits = client.search(&Keyword::new("beta")).unwrap();
        assert_eq!(hits.len(), 3 + round as usize);
    }
    let many = client
        .search_many(&[Keyword::new("gamma"), Keyword::new("absent")])
        .unwrap();
    assert_eq!(many[0].len(), 1);
    assert!(many[1].is_empty());
    drop(client);
    handle.join();
}

#[test]
fn concurrent_clients_one_server_each() {
    // Multiple independent client/server pairs on threads at once — shakes
    // out any accidental global state.
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let config = Scheme2Config::standard().with_chain_length(64);
                let server = Scheme2Server::new_in_memory(config.clone());
                let (duplex, sh) = Duplex::spawn(server, Meter::new());
                let mut client =
                    Scheme2Client::new_seeded(duplex, MasterKey::from_seed(100 + i), config, i);
                client
                    .store(&[Document::new(0, vec![i as u8], ["kw"])])
                    .unwrap();
                let hits = client.search(&Keyword::new("kw")).unwrap();
                assert_eq!(hits, vec![(0, vec![i as u8])]);
                drop(client);
                sh.join();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// The keywords [`store_update_search`] searches, one of them absent.
const SEARCHED: [&str; 5] = ["alpha", "beta", "gamma", "delta", "absent"];

fn search_all<C: SseClientApi>(client: &mut C) -> Vec<SearchHits> {
    SEARCHED
        .iter()
        .map(|w| client.search(&Keyword::new(*w)).unwrap())
        .collect()
}

/// Store, update, then every search's hits.
fn store_update_search<C: SseClientApi>(client: &mut C) -> Vec<SearchHits> {
    client.add_documents(&docs()).unwrap();
    let nine = Document::new(9, b"nine".to_vec(), ["beta", "delta"]);
    client.add_documents(&[nine]).unwrap();
    let hits = search_all(client);
    assert_eq!(hits[1].len(), 3, "beta: docs 0, 1 and 9");
    hits
}

fn assert_nothing_replayed(recovery: ServerRecovery) {
    assert_eq!(recovery.index_ops_replayed, 0, "{recovery:?}");
    assert_eq!(recovery.store_wal_records_replayed, 0, "{recovery:?}");
}

/// A durable server behind a `Duplex` checkpoints when the link drops
/// (`Service::on_shutdown`): reopening its directory replays nothing, and
/// every search answers as before the drop.
#[test]
fn dropping_the_link_checkpoints_a_durable_server() {
    let dir = std::env::temp_dir().join(format!("sse-duplex-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = || MasterKey::from_seed(3);

    let (home, config) = (dir.join("s1"), Scheme1Config::fast_profile(64));
    std::fs::create_dir_all(&home).unwrap();
    let server = Scheme1Server::open_durable(64, &home).unwrap();
    let (duplex, handle) = Duplex::spawn(server, Meter::new());
    let mut client = Scheme1Client::new_seeded(duplex, key(), config.clone(), 7);
    let before = store_update_search(&mut client);
    drop(client);
    handle.join();
    let server = Scheme1Server::open_durable(64, &home).unwrap();
    assert_nothing_replayed(server.recovery());
    let link = MeteredLink::new(server, Meter::new());
    let mut client = Scheme1Client::new_seeded(link, key(), config, 7);
    assert_eq!(search_all(&mut client), before);

    let (home, config) = (
        dir.join("s2"),
        Scheme2Config::standard().with_chain_length(64),
    );
    std::fs::create_dir_all(&home).unwrap();
    let server = Scheme2Server::open_durable(config.clone(), &home).unwrap();
    let (duplex, handle) = Duplex::spawn(server, Meter::new());
    let mut client = Scheme2Client::new_seeded(duplex, key(), config.clone(), 8);
    let before = store_update_search(&mut client);
    // The client's counter outlives the link, as an application keeps it.
    let state = client.state();
    drop(client);
    handle.join();
    let server = Scheme2Server::open_durable(config.clone(), &home).unwrap();
    assert_nothing_replayed(server.recovery());
    let link = MeteredLink::new(server, Meter::new());
    let mut client = Scheme2Client::new_seeded(link, key(), config, 8);
    client.restore_state(state);
    assert_eq!(search_all(&mut client), before);
    std::fs::remove_dir_all(&dir).unwrap();
}
