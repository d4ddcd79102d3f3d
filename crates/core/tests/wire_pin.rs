//! Byte-level pin of every client request.
//!
//! Seeded clients of both schemes run every public update and search
//! method — including the failure paths (capacity, chain exhaustion) —
//! through a transport that records each request, and each
//! `round_trip_batch` as one unit. The test compares a SHA-256 of each
//! call's requests with a fixed table, so any change to what a client
//! sends, in what order, or how it draws from its DRBG shows here. The
//! serving benchmark's trace hash covers only `store`, `store_batch` and
//! `search`; this is the pin for the rest.
//!
//! A refactor of either client must leave the table as it is. A change
//! that alters the wire on purpose prints the new table on failure.

use sse_core::error::SseError;
use sse_core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_core::scheme2::{Scheme2Client, Scheme2Config, Scheme2Server};
use sse_core::types::{Document, Keyword, MasterKey};
use sse_net::link::{MeteredLink, Transport};
use sse_net::meter::Meter;
use sse_primitives::sha256::Sha256;

/// Forwards to an in-process server and hashes what the client sent since
/// the last [`Recording::take`].
struct Recording<L> {
    inner: L,
    log: Sha256,
}

impl<L: Transport> Recording<L> {
    fn new(inner: L) -> Self {
        Recording {
            inner,
            log: Sha256::new(),
        }
    }

    fn record(&mut self, kind: u8, parts: &[&[u8]]) {
        self.log.update(&[kind]);
        self.log.update(&(parts.len() as u64).to_le_bytes());
        for p in parts {
            self.log.update(&(p.len() as u64).to_le_bytes());
            self.log.update(p);
        }
    }

    /// Digest of the requests since the previous call (first 16 bytes, hex).
    fn take(&mut self) -> String {
        let digest = std::mem::replace(&mut self.log, Sha256::new()).finalize();
        digest[..16].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl<L: Transport> Transport for Recording<L> {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        self.record(b'R', &[request]);
        self.inner.round_trip(request)
    }

    fn round_trip_batch(&mut self, parts: &[Vec<u8>]) -> std::io::Result<Vec<Vec<u8>>> {
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        self.record(b'B', &refs);
        self.inner.round_trip_batch(parts)
    }
}

fn kw(w: &str) -> Keyword {
    Keyword::new(w)
}

fn kws(ws: &[&str]) -> Vec<Keyword> {
    ws.iter().map(|w| kw(w)).collect()
}

fn docs() -> Vec<Document> {
    vec![
        Document::new(0, b"doc zero".to_vec(), ["flu", "fever"]),
        Document::new(1, b"doc one".to_vec(), ["fever"]),
        Document::new(2, b"doc two".to_vec(), ["measles"]),
        Document::new(3, b"no keywords".to_vec(), Vec::<&str>::new()),
    ]
}

fn more_docs() -> Vec<Document> {
    vec![
        Document::new(5, b"doc five".to_vec(), ["fever", "cough"]),
        Document::new(6, b"doc six".to_vec(), ["measles", "rash", "flu"]),
    ]
}

/// Runs steps against one client and collects `(step, outcome, digest)`.
struct Log<'a>(Vec<(String, &'a str, String)>);

impl<'a> Log<'a> {
    fn step<L: Transport, R>(
        &mut self,
        name: &str,
        link: &mut Recording<L>,
        result: Result<R, SseError>,
    ) {
        let outcome = match result {
            Ok(_) => "ok",
            Err(SseError::ChainExhausted) => "exhausted",
            Err(SseError::DocIdOutOfRange { .. }) => "out-of-range",
            Err(e) => panic!("{name}: unexpected error {e}"),
        };
        self.0.push((name.to_string(), outcome, link.take()));
    }

    fn check(&self, expected: &[(&str, &str, &str)]) {
        let actual: Vec<(&str, &str, &str)> = self
            .0
            .iter()
            .map(|(n, o, d)| (n.as_str(), *o, d.as_str()))
            .collect();
        if actual != expected {
            let table: String = actual
                .iter()
                .map(|(n, o, d)| format!("        (\"{n}\", \"{o}\", \"{d}\"),\n"))
                .collect();
            panic!("client requests changed; the table now reads:\n{table}");
        }
    }
}

type S1 = Scheme1Client<Recording<MeteredLink<Scheme1Server>>>;
type S2 = Scheme2Client<Recording<MeteredLink<Scheme2Server>>>;

fn scheme1(config: Scheme1Config, seed: u64) -> S1 {
    let server = Scheme1Server::new_in_memory(config.capacity_docs);
    let link = Recording::new(MeteredLink::new(server, Meter::new()));
    Scheme1Client::new_seeded(link, MasterKey::from_seed(42), config, seed)
}

fn scheme2(config: Scheme2Config, seed: u64) -> S2 {
    let server = Scheme2Server::new_in_memory(config.clone());
    let link = Recording::new(MeteredLink::new(server, Meter::new()));
    Scheme2Client::new_seeded(link, MasterKey::from_seed(11), config, seed)
}

macro_rules! step {
    ($log:expr, $c:expr, $name:expr, $call:expr) => {{
        let r = $call;
        $log.step($name, $c.transport_mut(), r);
    }};
}

#[test]
fn scheme1_requests_are_pinned() {
    let mut log = Log(Vec::new());
    let mut c = scheme1(Scheme1Config::fast_profile(64), 7);
    step!(log, c, "store", c.store(&docs()));
    step!(log, c, "store/empty", c.store(&[]));
    step!(
        log,
        c,
        "store/out-of-range",
        c.store(&[Document::new(64, vec![], ["x"])])
    );
    step!(log, c, "store_batch", c.store_batch(&more_docs()));
    step!(
        log,
        c,
        "store_batch/toggle",
        c.store_batch(&[Document::new(1, b"doc one".to_vec(), ["fever"])])
    );
    step!(
        log,
        c,
        "store_batch/no-keywords",
        c.store_batch(&[Document::new(9, b"bare".to_vec(), Vec::<&str>::new())])
    );
    step!(
        log,
        c,
        "fake_update",
        c.fake_update(&kws(&["fever", "new"]))
    );
    step!(log, c, "fake_update/empty", c.fake_update(&[]));
    step!(log, c, "search", c.search(&kw("fever")));
    step!(log, c, "search/unknown", c.search(&kw("absent")));
    step!(
        log,
        c,
        "search_many",
        c.search_many(&kws(&["measles", "absent", "flu"]))
    );
    step!(
        log,
        c,
        "search_many/unknown",
        c.search_many(&kws(&["nope1", "nope2"]))
    );
    step!(log, c, "search_many/empty", c.search_many(&[]));
    step!(log, c, "migrate_capacity", c.migrate_capacity(128));
    step!(
        log,
        c,
        "store/after-migrate",
        c.store(&[Document::new(100, b"wide".to_vec(), ["rash"])])
    );
    step!(log, c, "search/after-migrate", c.search(&kw("rash")));

    let mut r = scheme1(Scheme1Config::fast_profile(64).with_remask(), 3);
    step!(log, r, "remask/store", r.store(&docs()));
    step!(log, r, "remask/search", r.search(&kw("fever")));
    step!(log, r, "remask/search/unknown", r.search(&kw("absent")));
    step!(
        log,
        r,
        "remask/search_many",
        r.search_many(&kws(&["flu", "absent", "fever", "measles"]))
    );
    step!(log, r, "remask/fake_update", r.fake_update(&kws(&["flu"])));
    step!(log, r, "remask/migrate_capacity", r.migrate_capacity(72));
    step!(log, r, "remask/search/after", r.search(&kw("fever")));

    log.check(&[
        ("store", "ok", "9e01b1c916d259d594121dc6c56626e6"),
        ("store/empty", "ok", "e3b0c44298fc1c149afbf4c8996fb924"),
        (
            "store/out-of-range",
            "out-of-range",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("store_batch", "ok", "82e6ec0539cca4491e31989ba3db73dc"),
        (
            "store_batch/toggle",
            "ok",
            "dddd97d1d6d8b08fbd4856d02a920b0a",
        ),
        (
            "store_batch/no-keywords",
            "ok",
            "8c15d54ac3df44bab6f50146f6b22275",
        ),
        ("fake_update", "ok", "82e52231762099590e7e2e28b1daa4d6"),
        (
            "fake_update/empty",
            "ok",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("search", "ok", "3ad784d724dc41c6e4f124faa19b6266"),
        ("search/unknown", "ok", "0b03dbaceecfaf8d0087797114d9e9dd"),
        ("search_many", "ok", "6b6dbe0faf55a543dbd352c1a96dcf7a"),
        (
            "search_many/unknown",
            "ok",
            "c99572f7d378bde369f30ee4da6fb4a7",
        ),
        (
            "search_many/empty",
            "ok",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("migrate_capacity", "ok", "15f3a39e8733f9b90c706bb31b33e9a7"),
        (
            "store/after-migrate",
            "ok",
            "e2cdf3cb442411513f6c8b931a35c8cd",
        ),
        (
            "search/after-migrate",
            "ok",
            "65efd49a528a40c767550283686fbe79",
        ),
        ("remask/store", "ok", "d420c85a500c88605291a0f1fa4b2cf2"),
        ("remask/search", "ok", "ee568348190fce4a79c089f9bd713cd5"),
        (
            "remask/search/unknown",
            "ok",
            "0b03dbaceecfaf8d0087797114d9e9dd",
        ),
        (
            "remask/search_many",
            "ok",
            "07c0df96c3dab3f4889feb1ec1e39d7d",
        ),
        (
            "remask/fake_update",
            "ok",
            "5c4e42bc6db91ee8a0488e02ff041b40",
        ),
        (
            "remask/migrate_capacity",
            "ok",
            "e5e4813b8473b91b59291d3652cc93b8",
        ),
        (
            "remask/search/after",
            "ok",
            "224cdbf273cf88dbefa640d8563ee768",
        ),
    ]);
}

#[test]
fn scheme2_requests_are_pinned() {
    let mut log = Log(Vec::new());
    let mut c = scheme2(Scheme2Config::standard().with_chain_length(64), 3);
    step!(log, c, "store", c.store(&docs()));
    step!(log, c, "store/empty", c.store(&[]));
    step!(log, c, "store_batch", c.store_batch(&more_docs()));
    step!(
        log,
        c,
        "store_batch/no-keywords",
        c.store_batch(&[Document::new(9, b"bare".to_vec(), Vec::<&str>::new())])
    );
    step!(log, c, "store_batch/empty", c.store_batch(&[]));
    step!(log, c, "search", c.search(&kw("fever")));
    step!(log, c, "search/unknown", c.search(&kw("absent")));
    step!(
        log,
        c,
        "search_many",
        c.search_many(&kws(&["measles", "absent", "flu"]))
    );
    step!(log, c, "search_many/empty", c.search_many(&[]));
    step!(
        log,
        c,
        "fake_update",
        c.fake_update(&kws(&["fever", "cough", "fever"]))
    );
    step!(log, c, "fake_update/empty", c.fake_update(&[]));
    step!(
        log,
        c,
        "fake_update_many",
        c.fake_update_many(&[kws(&["rash"]), vec![], kws(&["measles", "flu"])])
    );
    step!(
        log,
        c,
        "fake_update_many/empty",
        c.fake_update_many(&[vec![], vec![]])
    );
    step!(log, c, "remove", c.remove(&docs()[1..2]));
    step!(
        log,
        c,
        "remove/no-keywords",
        c.remove(&[Document::new(3, vec![], Vec::<&str>::new())])
    );
    step!(log, c, "remove/empty", c.remove(&[]));
    step!(log, c, "search/after-remove", c.search(&kw("fever")));
    step!(log, c, "reinitialize", c.reinitialize(&docs()));
    step!(
        log,
        c,
        "search_many/after-reinitialize",
        c.search_many(&kws(&["fever", "flu"]))
    );

    // A two-value chain: the failure paths of every update method.
    let mut x = scheme2(Scheme2Config::base(2), 5);
    step!(log, x, "short/store", x.store(&docs()[..1]));
    step!(log, x, "short/store_batch", x.store_batch(&docs()[1..2]));
    step!(log, x, "short/store/exhausted", x.store(&docs()[2..3]));
    step!(
        log,
        x,
        "short/store_batch/exhausted",
        x.store_batch(&docs()[2..3])
    );
    step!(
        log,
        x,
        "short/fake_update/exhausted",
        x.fake_update(&kws(&["flu"]))
    );
    step!(
        log,
        x,
        "short/fake_update_many/exhausted",
        x.fake_update_many(&[kws(&["flu"])])
    );
    step!(log, x, "short/remove/exhausted", x.remove(&docs()[..1]));
    step!(log, x, "short/reinitialize", x.reinitialize(&docs()[1..3]));
    step!(log, x, "short/search", x.search(&kw("fever")));
    step!(log, x, "short/remove", x.remove(&docs()[1..2]));
    step!(log, x, "short/reinitialize/empty", x.reinitialize(&[]));

    log.check(&[
        ("store", "ok", "4c90609b6fb7f387023eca27b3c6adb5"),
        ("store/empty", "ok", "e3b0c44298fc1c149afbf4c8996fb924"),
        ("store_batch", "ok", "99b1c1dda66e0d56f601b34be9665550"),
        (
            "store_batch/no-keywords",
            "ok",
            "765897243d0c09b76c5d9772f930f468",
        ),
        (
            "store_batch/empty",
            "ok",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("search", "ok", "7349b8d54b55c8b9203e35531f392824"),
        ("search/unknown", "ok", "b34c0d29bb3bcd2ae75c7a6ef50e373f"),
        ("search_many", "ok", "9eb20df6eecb14b20b1e65a3ffbff1ce"),
        (
            "search_many/empty",
            "ok",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("fake_update", "ok", "8eed010b8919f7489d2b10496beed0d5"),
        (
            "fake_update/empty",
            "ok",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("fake_update_many", "ok", "73e955c25cbcb33efa120982ef6aa0be"),
        (
            "fake_update_many/empty",
            "ok",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        ("remove", "ok", "fee3c665b131f6f9c8fb01756aa6a46c"),
        (
            "remove/no-keywords",
            "ok",
            "dc6b478588540f963964f1ae6edd044b",
        ),
        ("remove/empty", "ok", "e3b0c44298fc1c149afbf4c8996fb924"),
        (
            "search/after-remove",
            "ok",
            "4649adf387c58bf54b0b871cf2ef46ce",
        ),
        ("reinitialize", "ok", "c428c06cbdf9f950c0bd1136ec2c8127"),
        (
            "search_many/after-reinitialize",
            "ok",
            "40739dedcbef50d09142abccbabb5af4",
        ),
        ("short/store", "ok", "1ad2f7eadf1b2547f384e8682f8a1f44"),
        (
            "short/store_batch",
            "ok",
            "4a042cccd5a9dd3e76497bbc242fc41d",
        ),
        (
            "short/store/exhausted",
            "exhausted",
            "009657da21ae4ba63bb9b72520746889",
        ),
        (
            "short/store_batch/exhausted",
            "exhausted",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        (
            "short/fake_update/exhausted",
            "exhausted",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        (
            "short/fake_update_many/exhausted",
            "exhausted",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        (
            "short/remove/exhausted",
            "exhausted",
            "52f8e6eca926ff8b0f3d8c1641a654c3",
        ),
        (
            "short/reinitialize",
            "ok",
            "fb634e1bc09e018f08e53dc4865b493b",
        ),
        ("short/search", "ok", "232baaf6870e995471f9b522f0424e09"),
        ("short/remove", "ok", "5cb9b0800df15334ca032771fd28c9cc"),
        (
            "short/reinitialize/empty",
            "ok",
            "08e46608afb959ebe44d8fb74c281579",
        ),
    ]);
}

/// A Scheme 2 client call, for comparing what two of them send.
type Call = fn(&mut S2) -> Result<(), SseError>;

/// A keyword named twice in one fake update gets one generation: the
/// call sends what the call without the repeat sends, from equal client
/// states, and the server appends as many generations, whether the
/// repeat is in one group or across two (a group left empty sends
/// nothing).
#[test]
fn scheme2_fake_updates_send_one_generation_per_keyword() {
    let calls: [(&str, Call, Call); 2] = [
        (
            "fake_update",
            |c| c.fake_update(&kws(&["fever", "cough", "fever"])),
            |c| c.fake_update(&kws(&["fever", "cough"])),
        ),
        (
            "fake_update_many",
            |c| {
                c.fake_update_many(&[
                    kws(&["rash", "flu", "rash"]),
                    kws(&["flu"]),
                    kws(&["measles", "rash"]),
                ])
            },
            |c| c.fake_update_many(&[kws(&["rash", "flu"]), kws(&["measles"])]),
        ),
    ];
    for (name, repeated, once) in calls {
        let mut sent = Vec::new();
        for call in [repeated, once] {
            let mut c = scheme2(Scheme2Config::standard().with_chain_length(64), 3);
            c.store(&docs()).unwrap();
            c.transport_mut().take();
            call(&mut c).unwrap();
            let link = c.transport_mut();
            let appended = link.inner.service_mut().stats().generations_appended;
            sent.push((link.take(), appended));
        }
        assert_eq!(sent[0], sent[1], "{name}: a repeat changed the requests");
    }
}
