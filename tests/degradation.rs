//! Degradation round-trip tests: disk-full and failed-fsync faults must
//! degrade a tenant gracefully, never lose an acked write, and heal.
//!
//! Two layers, mirroring `fault_injection.rs`'s sweep style:
//!
//! * **Scheme-server sweeps** — a seeded trace is first run under a
//!   counting [`FaultVfs`] to enumerate every group-commit write point
//!   and every fsync point, then re-run once per point with a one-write
//!   ENOSPC window (or a one-shot `fail_sync_at`) parked on that point.
//!   The op that hits the fault must fail cleanly and flip the server to
//!   `Degraded`; every keyword must still answer with at least the acked
//!   prefix (and nothing beyond the one in-doubt op) while degraded;
//!   `repair()` must restore `Healthy`; the failed op retried plus the
//!   rest of the trace must then land; and a real-filesystem reopen must
//!   match the full oracle — zero acked writes lost.
//!
//! * **Daemon round trip** — a durable daemon runs over a [`FaultVfs`]
//!   with a seeded ENOSPC window and a fast background scrub. Stores are
//!   driven until one hits the full disk: the tenant must report
//!   `Degraded`, a search must return byte-identical results to its
//!   pre-degradation baseline, and re-issuing the failed store must
//!   succeed *through* the transport's `STATUS_DEGRADED` backoff (the op
//!   backs off, it is not dropped) once the scrub's probe write clears
//!   the window. Graceful shutdown then a fault-free restart must serve
//!   the same results to a fresh client.
//!
//! Both layers run per storage backend; `FAULT_BACKEND=btree|lsm`
//! narrows a run so CI can matrix the suite, and `FAULT_SEED` reseeds
//! the schedules.

use sse_repro::core::engine::DurableOptions;
use sse_repro::core::health::HealthState;
use sse_repro::core::scheme1::{Scheme1Client, Scheme1Config, Scheme1Server};
use sse_repro::core::scheme2::{Scheme2Client, Scheme2ClientState, Scheme2Config, Scheme2Server};
use sse_repro::core::types::{Document, Keyword, MasterKey, SearchHits};
use sse_repro::net::link::MeteredLink;
use sse_repro::net::meter::Meter;
use sse_repro::server::daemon::{Daemon, ServerConfig};
use sse_repro::server::proto::SchemeId;
use sse_repro::server::tenant::TenantParams;
use sse_repro::server::transport::TcpTransport;
use sse_repro::storage::{BackendKind, FaultConfig, FaultVfs, RealVfs};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYWORDS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Scheme 1 document-id capacity for the scheme-server sweeps.
const CAPACITY: u64 = 64;
/// Length of the sweep trace (short: the sweep reruns it once per write
/// point *and* once per sync point, per scheme, per backend).
const TRACE_OPS: usize = 24;

fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15A57E2)
}

fn fault_backends() -> Vec<BackendKind> {
    match std::env::var("FAULT_BACKEND") {
        Ok(s) => vec![s.parse().expect("FAULT_BACKEND must be btree or lsm")],
        Err(_) => BackendKind::all().to_vec(),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sse-degr-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

enum Op {
    Store(Document),
    Search(Keyword),
}

fn is_mutation(op: &Op) -> bool {
    matches!(op, Op::Store(_))
}

fn doc_data(id: u64) -> Vec<u8> {
    format!("doc-{id}").into_bytes()
}

/// Seeded mixed trace: ~70% single-document stores (1–2 keywords, so
/// mutations routinely straddle the 2-shard server's journals), ~30%
/// searches.
fn build_trace(seed: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(TRACE_OPS);
    let mut next_id = 0u64;
    for i in 0..TRACE_OPS {
        let roll = splitmix64(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        if roll % 10 < 3 && next_id > 0 {
            let kw = KEYWORDS[(roll >> 8) as usize % KEYWORDS.len()];
            ops.push(Op::Search(Keyword::new(kw)));
        } else {
            let id = next_id;
            next_id += 1;
            assert!(id < CAPACITY, "trace outgrew the scheme-1 capacity");
            let mut kws = BTreeSet::new();
            kws.insert(KEYWORDS[(roll >> 8) as usize % KEYWORDS.len()]);
            kws.insert(KEYWORDS[(roll >> 16) as usize % KEYWORDS.len()]);
            ops.push(Op::Store(Document::new(id, doc_data(id), kws)));
        }
    }
    ops
}

/// Keyword → set of matching doc ids: the observable state of an index.
type Index = BTreeMap<Keyword, BTreeSet<u64>>;

fn empty_index() -> Index {
    KEYWORDS
        .iter()
        .map(|k| (Keyword::new(*k), BTreeSet::new()))
        .collect()
}

/// `oracle[c]` = the true index after the first `c` ops of `trace`.
fn oracle_states(trace: &[Op]) -> Vec<Index> {
    let mut states = Vec::with_capacity(trace.len() + 1);
    let mut cur = empty_index();
    states.push(cur.clone());
    for op in trace {
        if let Op::Store(doc) = op {
            for kw in &doc.keywords {
                cur.get_mut(kw).unwrap().insert(doc.id);
            }
        }
        states.push(cur.clone());
    }
    states
}

fn ids_checked(hits: &SearchHits) -> BTreeSet<u64> {
    for (id, data) in hits {
        assert_eq!(*data, doc_data(*id), "corrupt payload for doc {id}");
    }
    hits.iter().map(|(id, _)| *id).collect()
}

fn observe(mut search: impl FnMut(&Keyword) -> SearchHits) -> Index {
    KEYWORDS
        .iter()
        .map(|k| {
            let kw = Keyword::new(*k);
            let ids = ids_checked(&search(&kw));
            (kw, ids)
        })
        .collect()
}

/// While degraded, the observable index must hold at least everything
/// acked before the failed op (`lo`) and nothing beyond the one in-doubt
/// op (`hi`) — per keyword, because a multi-shard mutation that failed
/// mid-commit may be visible for some of its keywords and not others
/// until the retry settles it.
fn assert_between(observed: &Index, lo: &Index, hi: &Index, context: &str) {
    for (kw, seen) in observed {
        assert!(
            lo[kw].is_subset(seen),
            "{context}: acked doc(s) missing under {kw:?}: acked {:?}, saw {seen:?}",
            lo[kw]
        );
        assert!(
            seen.is_subset(&hi[kw]),
            "{context}: phantom doc(s) under {kw:?}: saw {seen:?}, at most {:?}",
            hi[kw]
        );
    }
}

/// The fault a sweep iteration parks on one scheduled I/O point.
#[derive(Clone, Copy, Debug)]
enum FaultPoint {
    /// One-write ENOSPC window at the N-th `write_all` (stage/append —
    /// every buffer the group-commit path schedules).
    Enospc(u64),
    /// Failed fsync at the N-th `sync_data` (the group-commit barrier).
    FailedSync(u64),
}

impl FaultPoint {
    fn config(self, seed: u64) -> FaultConfig {
        match self {
            FaultPoint::Enospc(w) => FaultConfig {
                seed,
                enospc_start: Some(w),
                enospc_len: 1,
                ..FaultConfig::default()
            },
            FaultPoint::FailedSync(k) => FaultConfig {
                seed,
                fail_sync_at: Some(k),
                ..FaultConfig::default()
            },
        }
    }
}

/// Enumerate the trace's write and sync points with a fault-free
/// counting run (the counts depend only on the op sequence, so they
/// transfer to the fault runs).
fn count_points(writes: u64, syncs: u64) -> Vec<FaultPoint> {
    assert!(writes > 0, "workload scheduled no writes");
    assert!(syncs > 0, "workload scheduled no fsyncs");
    (1..=writes)
        .map(FaultPoint::Enospc)
        .chain((1..=syncs).map(FaultPoint::FailedSync))
        .collect()
}

// ---------------------------------------------------------------------------
// Scheme-server degradation sweeps
// ---------------------------------------------------------------------------

const SWEEP_SHARDS: usize = 2;

fn drive_scheme1<T: sse_repro::net::link::Transport>(
    client: &mut Scheme1Client<T>,
    op: &Op,
) -> sse_repro::core::error::Result<()> {
    match op {
        Op::Store(doc) => client.store(std::slice::from_ref(doc)),
        Op::Search(kw) => client.search(kw).map(|_| ()),
    }
}

fn drive_scheme2<T: sse_repro::net::link::Transport>(
    client: &mut Scheme2Client<T>,
    op: &Op,
) -> sse_repro::core::error::Result<()> {
    match op {
        Op::Store(doc) => client.store(std::slice::from_ref(doc)),
        Op::Search(kw) => client.search(kw).map(|_| ()),
    }
}

/// Shared body of the scheme-1 sweeps. For every enumerated fault point:
/// fail → assert Degraded + acked-prefix searches → `repair()` → assert
/// Healthy → retry the failed op → finish the trace → full-oracle check
/// in-process and again through a real-filesystem reopen.
fn scheme1_degradation_sweep(trace: &[Op], seed: u64, backend: BackendKind) {
    let oracle = oracle_states(trace);
    let config = Scheme1Config::fast_profile(CAPACITY);
    let key = MasterKey::from_seed(seed ^ 0xD1);

    let count_dir = temp_dir("s1-count");
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    {
        let server = Scheme1Server::open_durable_with(
            CAPACITY,
            &count_dir,
            DurableOptions {
                vfs: Arc::new(counting),
                shards: SWEEP_SHARDS,
                backend,
            },
        )
        .unwrap();
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        for op in trace {
            drive_scheme1(&mut client, op).unwrap();
        }
    }
    let points = count_points(stats.writes(), stats.syncs_seen.load(Ordering::Relaxed));
    let _ = std::fs::remove_dir_all(&count_dir);

    let mut degraded_points = 0u64;
    for point in points {
        let ctx = format!("{point:?} ({backend} backend)");
        let dir = temp_dir("s1-sweep");
        let vfs = FaultVfs::new(RealVfs::arc(), point.config(seed));
        let Ok(server) = Scheme1Server::open_durable_with(
            CAPACITY,
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards: SWEEP_SHARDS,
                backend,
            },
        ) else {
            // The fault landed inside the initial open; the "process"
            // never came up. Degradation starts from a live server only.
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        };
        let health = Arc::clone(server.health());
        let mut client = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );

        let mut failed_at: Option<usize> = None;
        for (i, op) in trace.iter().enumerate() {
            if drive_scheme1(&mut client, op).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        if let Some(f) = failed_at {
            degraded_points += 1;
            assert_eq!(
                health.state(),
                HealthState::Degraded,
                "{ctx}: failed op {f} must degrade the server"
            );
            assert!(
                !health.reason().is_empty(),
                "{ctx}: degraded without reason"
            );

            // Read-only serving while degraded: every acked doc, no
            // phantom beyond the one in-doubt op.
            let observed = observe(|kw| client.search(kw).unwrap());
            let hi = (f + 1).min(oracle.len() - 1);
            assert_between(&observed, &oracle[f], &oracle[hi], &ctx);

            // Scrub-style repair: the one-shot fault has passed, so the
            // probe write must land and promote the server back.
            client.transport_mut().service_mut().repair().unwrap();
            assert_eq!(health.state(), HealthState::Healthy, "{ctx}: repair");
            let (degradations, recoveries, quarantines) = health.transition_counts();
            assert!(degradations >= 1 && recoveries >= 1, "{ctx}: transitions");
            assert_eq!(quarantines, 0, "{ctx}: ENOSPC must never quarantine");

            // The client retries its in-doubt op, then finishes the
            // trace; the healed server must take all of it.
            for op in &trace[f..] {
                drive_scheme1(&mut client, op).unwrap();
            }
        } else {
            assert_eq!(
                health.state(),
                HealthState::Healthy,
                "{ctx}: no op failed, yet the server degraded"
            );
        }

        let observed = observe(|kw| client.search(kw).unwrap());
        assert_eq!(
            &observed,
            oracle.last().unwrap(),
            "{ctx}: post-recovery state diverged from the oracle"
        );
        drop(client);

        // Restart differential: reopen through the real filesystem — the
        // degradation episode must not have cost a single acked write.
        let server = Scheme1Server::open_durable_with(
            CAPACITY,
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards: SWEEP_SHARDS,
                backend,
            },
        )
        .unwrap();
        let mut probe = Scheme1Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            7,
        );
        let observed = observe(|kw| probe.search(kw).unwrap());
        assert_eq!(
            &observed,
            oracle.last().unwrap(),
            "{ctx}: reopened state diverged from the oracle"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        degraded_points > 0,
        "sweep never produced a degradation ({backend} backend)"
    );
}

/// Scheme-2 twin of [`scheme1_degradation_sweep`]. `CtrPolicy::Always`
/// (the base profile) makes the client counter a pure function of
/// attempted updates, so the restart probe can restore it blindly.
fn scheme2_degradation_sweep(trace: &[Op], seed: u64, backend: BackendKind) {
    let oracle = oracle_states(trace);
    let config = Scheme2Config::base(512);
    let key = MasterKey::from_seed(seed ^ 0xD2);

    let count_dir = temp_dir("s2-count");
    let counting = FaultVfs::counting();
    let stats = counting.stats();
    {
        let server = Scheme2Server::open_durable_with(
            config.clone(),
            &count_dir,
            DurableOptions {
                vfs: Arc::new(counting),
                shards: SWEEP_SHARDS,
                backend,
            },
        )
        .unwrap();
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );
        for op in trace {
            drive_scheme2(&mut client, op).unwrap();
        }
    }
    let points = count_points(stats.writes(), stats.syncs_seen.load(Ordering::Relaxed));
    let _ = std::fs::remove_dir_all(&count_dir);

    let mut degraded_points = 0u64;
    for point in points {
        let ctx = format!("{point:?} ({backend} backend)");
        let dir = temp_dir("s2-sweep");
        let vfs = FaultVfs::new(RealVfs::arc(), point.config(seed));
        let Ok(server) = Scheme2Server::open_durable_with(
            config.clone(),
            &dir,
            DurableOptions {
                vfs: Arc::new(vfs),
                shards: SWEEP_SHARDS,
                backend,
            },
        ) else {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        };
        let health = Arc::clone(server.health());
        let mut client = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            1,
        );

        let mut attempted_updates = 0u64;
        let mut failed_at: Option<usize> = None;
        for (i, op) in trace.iter().enumerate() {
            // Write-ahead counting, as in the crash sweeps: the restored
            // counter must be valid whether or not the op landed.
            if is_mutation(op) {
                attempted_updates += 1;
            }
            if drive_scheme2(&mut client, op).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        if let Some(f) = failed_at {
            degraded_points += 1;
            assert_eq!(
                health.state(),
                HealthState::Degraded,
                "{ctx}: failed op {f} must degrade the server"
            );
            assert!(
                !health.reason().is_empty(),
                "{ctx}: degraded without reason"
            );

            let observed = observe(|kw| client.search(kw).unwrap());
            let hi = (f + 1).min(oracle.len() - 1);
            assert_between(&observed, &oracle[f], &oracle[hi], &ctx);

            client.transport_mut().service_mut().repair().unwrap();
            assert_eq!(health.state(), HealthState::Healthy, "{ctx}: repair");
            let (degradations, recoveries, quarantines) = health.transition_counts();
            assert!(degradations >= 1 && recoveries >= 1, "{ctx}: transitions");
            assert_eq!(quarantines, 0, "{ctx}: ENOSPC must never quarantine");

            for op in &trace[f..] {
                if is_mutation(op) {
                    attempted_updates += 1;
                }
                drive_scheme2(&mut client, op).unwrap();
            }
        } else {
            assert_eq!(
                health.state(),
                HealthState::Healthy,
                "{ctx}: no op failed, yet the server degraded"
            );
        }

        let observed = observe(|kw| client.search(kw).unwrap());
        assert_eq!(
            &observed,
            oracle.last().unwrap(),
            "{ctx}: post-recovery state diverged from the oracle"
        );
        drop(client);

        let server = Scheme2Server::open_durable_with(
            config.clone(),
            &dir,
            DurableOptions {
                vfs: RealVfs::arc(),
                shards: SWEEP_SHARDS,
                backend,
            },
        )
        .unwrap();
        let mut probe = Scheme2Client::new_seeded(
            MeteredLink::new(server, Meter::new()),
            key.clone(),
            config.clone(),
            7,
        );
        probe.restore_state(Scheme2ClientState {
            ctr: attempted_updates,
            epoch: 0,
            searched_since_update: true,
        });
        let observed = observe(|kw| probe.search(kw).unwrap());
        assert_eq!(
            &observed,
            oracle.last().unwrap(),
            "{ctx}: reopened state diverged from the oracle"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        degraded_points > 0,
        "sweep never produced a degradation ({backend} backend)"
    );
}

// ---------------------------------------------------------------------------
// Daemon degradation round trip
// ---------------------------------------------------------------------------

/// One client of either scheme over the daemon's TCP transport.
enum DaemonClient {
    S1(Scheme1Client<TcpTransport>),
    S2(Scheme2Client<TcpTransport>),
}

impl DaemonClient {
    fn connect(
        addr: std::net::SocketAddr,
        scheme: SchemeId,
        key: &MasterKey,
        capacity: u64,
        rng_seed: u64,
    ) -> Self {
        let transport = TcpTransport::connect(addr, "degr", scheme).unwrap();
        match scheme {
            SchemeId::Scheme1 => DaemonClient::S1(Scheme1Client::new_seeded(
                transport,
                key.clone(),
                Scheme1Config::fast_profile(capacity),
                rng_seed,
            )),
            SchemeId::Scheme2 => DaemonClient::S2(Scheme2Client::new_seeded(
                transport,
                key.clone(),
                Scheme2Config::standard(),
                rng_seed,
            )),
        }
    }

    fn store(&mut self, doc: &Document) -> sse_repro::core::error::Result<()> {
        match self {
            DaemonClient::S1(c) => c.store(std::slice::from_ref(doc)),
            DaemonClient::S2(c) => c.store(std::slice::from_ref(doc)),
        }
    }

    fn search(&mut self, kw: &str) -> SearchHits {
        let kw = Keyword::new(kw);
        let mut hits = match self {
            DaemonClient::S1(c) => c.search(&kw).unwrap(),
            DaemonClient::S2(c) => c.search(&kw).unwrap(),
        };
        hits.sort();
        hits
    }

    fn degraded_retries(&mut self) -> u64 {
        match self {
            DaemonClient::S1(c) => c.transport_mut().degraded_retries(),
            DaemonClient::S2(c) => c.transport_mut().degraded_retries(),
        }
    }
}

/// The acceptance round trip: a durable daemon over a seeded ENOSPC
/// window with a fast background scrub.
///
/// 1. Stores under a `stable` keyword land, and its search is baselined.
/// 2. Churn stores run until one hits the full disk: the tenant must be
///    `Degraded`, and the `stable` search must be byte-identical to the
///    baseline while it is.
/// 3. The failed store is re-issued: the transport must absorb
///    `STATUS_DEGRADED` with backoff (retries counted, op not dropped)
///    until the scrub's probe write clears the window, then succeed.
/// 4. Stats must show the degradation, the scrub repair and the recovery;
///    shutdown must join every thread with zero panics.
/// 5. A fault-free restart must serve every acked doc to a fresh client.
fn daemon_degradation_round_trip(scheme: SchemeId, backend: BackendKind) {
    const STABLE_DOCS: u64 = 5;
    const MAX_CHURN: u64 = 250;

    let seed = fault_seed();
    let data_dir = temp_dir(&format!("daemon-{scheme:?}-{backend}"));
    let params = TenantParams {
        shards: 2,
        backend,
        ..TenantParams::default()
    };
    let capacity = params.scheme1_capacity;
    let key = MasterKey::from_seed(seed ^ 0xDAE);

    // The window opens well past tenant creation and the stable phase,
    // wide enough that recovery takes several scrub probe writes — the
    // degraded phase is long enough to observe, short enough to heal
    // within the transport's retry deadline.
    let fault = FaultConfig {
        seed,
        enospc_start: Some(300),
        enospc_len: 20,
        ..FaultConfig::default()
    };
    let config = ServerConfig {
        workers: 2,
        queue_depth: 32,
        tenant_params: params,
        data_dir: Some(data_dir.clone()),
        fault: Some(fault),
        scrub_interval: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let daemon = Daemon::spawn(config).unwrap();
    let addr = daemon.local_addr();
    let mut client = DaemonClient::connect(addr, scheme, &key, capacity, 1);

    // Keyword → acked doc ids, the differential oracle for every later
    // verification pass.
    let mut acked: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    for id in 0..STABLE_DOCS {
        client
            .store(&Document::new(id, doc_data(id), ["stable"]))
            .unwrap();
        acked.entry("stable".into()).or_default().insert(id);
    }
    let baseline = client.search("stable");
    assert_eq!(baseline.len(), STABLE_DOCS as usize);

    // Churn until a store hits the ENOSPC window. Each churn doc gets its
    // own keyword so the failed one is in-doubt for exactly one keyword.
    let mut failed: Option<(u64, String)> = None;
    for i in 0..MAX_CHURN {
        let id = 100 + i;
        let kw = format!("churn-{i}");
        match client.store(&Document::new(id, doc_data(id), [kw.as_str()])) {
            Ok(()) => {
                acked.entry(kw).or_default().insert(id);
            }
            Err(_) => {
                failed = Some((id, kw));
                break;
            }
        }
    }
    let (failed_id, failed_kw) = failed
        .unwrap_or_else(|| panic!("{MAX_CHURN} churn stores never reached the ENOSPC window"));

    // The failed write must have flipped the tenant before the error
    // reached the client.
    let stats = daemon.stats();
    assert_eq!(stats.tenants_degraded, 1, "store failed but no degradation");
    assert!(stats.health_degradations >= 1);

    // Read-only serving from the live epoch: byte-identical to the
    // pre-degradation baseline, twice.
    assert_eq!(
        client.search("stable"),
        baseline,
        "degraded search diverged"
    );
    assert_eq!(
        client.search("stable"),
        baseline,
        "degraded search unstable"
    );

    // Re-issue the failed store through the degraded tenant: the worker
    // answers STATUS_DEGRADED, the transport backs off and retries, the
    // background scrub's probe writes burn through the window, and the op
    // finally lands — backed off, never dropped.
    client
        .store(&Document::new(
            failed_id,
            doc_data(failed_id),
            [failed_kw.as_str()],
        ))
        .unwrap();
    acked
        .entry(failed_kw.clone())
        .or_default()
        .insert(failed_id);
    assert!(
        client.degraded_retries() >= 1,
        "the retried store never saw a DEGRADED response"
    );

    // The store's success implies the gate reopened; stats must agree.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = daemon.stats();
        if stats.tenants_degraded == 0 && stats.health_recoveries >= 1 {
            assert!(stats.scrub_passes >= 1, "no scrub pass recorded");
            assert!(stats.scrub_repairs >= 1, "no scrub repair recorded");
            assert!(
                stats.requests_degraded >= 1,
                "no degraded rejection recorded"
            );
            assert_eq!(stats.health_quarantines, 0, "ENOSPC must never quarantine");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stats never showed the recovery: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Healthy again: a fresh store lands first try, and every acked
    // keyword answers exactly.
    let retries_before = client.degraded_retries();
    client
        .store(&Document::new(900, doc_data(900), ["post-recovery"]))
        .unwrap();
    assert_eq!(
        client.degraded_retries(),
        retries_before,
        "post-recovery store still hit the degraded gate"
    );
    acked.entry("post-recovery".into()).or_default().insert(900);
    assert_eq!(client.search("stable"), baseline);
    for (kw, ids) in &acked {
        assert_eq!(
            &ids_checked(&client.search(kw)),
            ids,
            "healed search under {kw}"
        );
    }

    let saved_state = match &client {
        DaemonClient::S1(_) => None,
        DaemonClient::S2(c) => Some(c.state()),
    };
    drop(client);
    let report = daemon.shutdown();
    assert_eq!(report.threads_panicked, 0, "a daemon thread panicked");
    assert!(report.tenants_checkpointed >= 1);

    // Fault-free restart: a fresh client must see every acked doc — the
    // degradation episode lost nothing across the process boundary.
    let daemon = Daemon::spawn(ServerConfig {
        tenant_params: params,
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut probe = DaemonClient::connect(daemon.local_addr(), scheme, &key, capacity, 9);
    if let (DaemonClient::S2(c), Some(state)) = (&mut probe, saved_state) {
        c.restore_state(state);
    }
    assert_eq!(
        probe.search("stable"),
        baseline,
        "restart lost the baseline"
    );
    for (kw, ids) in &acked {
        assert_eq!(
            &ids_checked(&probe.search(kw)),
            ids,
            "restart search under {kw}"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn daemon_enospc_degradation_round_trip_scheme1() {
    for backend in fault_backends() {
        daemon_degradation_round_trip(SchemeId::Scheme1, backend);
    }
}

#[test]
fn daemon_enospc_degradation_round_trip_scheme2() {
    for backend in fault_backends() {
        daemon_degradation_round_trip(SchemeId::Scheme2, backend);
    }
}

#[test]
fn scheme1_enospc_and_failed_fsync_at_every_commit_point_degrade_and_recover() {
    let seed = fault_seed();
    for backend in fault_backends() {
        scheme1_degradation_sweep(&build_trace(seed), seed, backend);
    }
}

#[test]
fn scheme2_enospc_and_failed_fsync_at_every_commit_point_degrade_and_recover() {
    let seed = fault_seed();
    for backend in fault_backends() {
        scheme2_degradation_sweep(&build_trace(seed), seed, backend);
    }
}

/// A `RemoveDocs` whose document-WAL append fails never reached the log,
/// so it must be an ERR that degrades the server — not an ACK. The blob
/// is still served after the repair and after a reopen. Deleting an
/// unknown id stays an ACK: it logs nothing, and the posting-side delete
/// entries may legitimately arrive first.
#[test]
fn scheme2_remove_docs_on_a_failing_disk_is_an_error_not_an_ack() {
    use sse_repro::core::proto_common::{decode_ack, decode_result};
    use sse_repro::core::scheme2::protocol::{self as s2p, GenerationEntry};
    use sse_repro::net::wire::WireWriter;
    use sse_repro::primitives::etm::EtmKey;

    // One generation listing both documents, sealed under a key that is
    // also the search trapdoor (a zero-step chain walk).
    let (tag, chain_key) = ([3u8; 32], [7u8; 32]);
    let mut ids = WireWriter::new();
    ids.put_u64_vec(&[1, 2]).put_u64_vec(&[]);
    let docs = vec![(1, b"one".to_vec()), (2, b"two".to_vec())];
    let load = [
        s2p::encode_put_docs(&docs),
        s2p::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: EtmKey::new(&chain_key).seal(&ids.finish()),
            commitment: sse_repro::core::scheme2::key_commitment(&chain_key),
        }]),
    ];
    let search = s2p::encode_search(&tag, &chain_key);
    let want: Vec<(u64, &[u8])> = docs.iter().map(|(id, d)| (*id, d.as_slice())).collect();

    for backend in fault_backends() {
        let open = |vfs: Arc<dyn sse_repro::storage::Vfs>, dir: &PathBuf| {
            let opts = DurableOptions {
                vfs,
                backend,
                ..DurableOptions::default()
            };
            Scheme2Server::open_durable_with(Scheme2Config::standard(), dir, opts).unwrap()
        };

        // Counting run: the delete's WAL append is the next write after
        // the load is acknowledged.
        let count_dir = temp_dir("s2-rm-count");
        let counting = FaultVfs::counting();
        let stats = counting.stats();
        let server = open(Arc::new(counting), &count_dir);
        for request in &load {
            decode_ack(&server.handle_shared(request)).unwrap();
        }
        let delete_write = stats.writes() + 1;
        drop(server);
        let _ = std::fs::remove_dir_all(&count_dir);

        let dir = temp_dir("s2-rm");
        let full_disk = FaultVfs::enospc_window(fault_seed(), delete_write, 1);
        let server = open(Arc::new(full_disk), &dir);
        for request in &load {
            decode_ack(&server.handle_shared(request)).unwrap();
        }
        decode_ack(&server.handle_shared(&s2p::encode_remove_docs(&[99]))).unwrap();
        assert_eq!(server.health().state(), HealthState::Healthy, "{backend}");

        let reply = server.handle_shared(&s2p::encode_remove_docs(&[1]));
        assert!(
            decode_ack(&reply).is_err(),
            "{backend}: a delete that never reached the log was acknowledged"
        );
        assert_eq!(server.health().state(), HealthState::Degraded, "{backend}");
        server.repair().unwrap();
        assert_eq!(server.health().state(), HealthState::Healthy, "{backend}");
        assert_eq!(
            decode_result(&server.handle_shared(&search)).unwrap(),
            want,
            "{backend}"
        );
        drop(server);

        let server = open(RealVfs::arc(), &dir);
        assert_eq!(
            decode_result(&server.handle_shared(&search)).unwrap(),
            want,
            "{backend}: reopened"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Total bytes of every file under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                dir_bytes(&entry.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// Request kind 3 once carried a batch of scheme requests as one "read"
/// envelope, and the parts of one had to be kept from mutating a degraded
/// tenant. The kind is retired: a durable Scheme 2 tenant degraded by a
/// failed fsync (no scrub, so it stays degraded) refuses a kind-3 frame
/// holding `[Search, PutDocs, ResetIndex]` with an ERR, writes no byte to
/// its directory, and still answers the baseline search.
#[test]
fn degraded_tenant_stores_nothing_from_a_search_many_envelope() {
    use sse_repro::core::scheme2::protocol as s2p;
    use sse_repro::server::proto;
    /// The retired batch-search envelope kind.
    const RETIRED_SEARCH_MANY: u8 = 3;

    for backend in fault_backends() {
        let data_dir = temp_dir(&format!("search-many-{backend}"));
        let params = TenantParams {
            backend,
            ..TenantParams::default()
        };
        let daemon = Daemon::spawn(ServerConfig {
            workers: 2,
            tenant_params: params,
            data_dir: Some(data_dir.clone()),
            fault: Some(FaultConfig {
                seed: fault_seed(),
                fail_sync_at: Some(4),
                ..FaultConfig::default()
            }),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = daemon.local_addr();
        let key = MasterKey::from_seed(fault_seed() ^ 0x5EA);
        let mut client =
            DaemonClient::connect(addr, SchemeId::Scheme2, &key, params.scheme1_capacity, 1);
        let mut acked = 0;
        while client
            .store(&Document::new(acked, doc_data(acked), ["stable"]))
            .is_ok()
        {
            acked += 1;
            assert!(acked < 32, "{backend}: the failing fsync never came");
        }
        assert!(acked > 0, "{backend}: no store landed before the fault");
        assert_eq!(daemon.stats().tenants_degraded, 1, "{backend}");
        let baseline = client.search("stable");
        assert!(!baseline.is_empty(), "{backend}");

        let bytes_before = dir_bytes(&data_dir);
        let envelope = proto::encode_batch(&[
            s2p::encode_search(&[1; 32], &[2; 32]),
            s2p::encode_put_docs(&[(999, doc_data(999))]),
            s2p::encode_reset_index(),
        ]);
        let mut raw = TcpTransport::connect(addr, "degr", SchemeId::Scheme2).unwrap();
        let refused = raw.request(RETIRED_SEARCH_MANY, &envelope).unwrap_err();
        assert!(
            refused.to_string().contains("unknown request kind"),
            "{backend}: {refused}"
        );
        assert_eq!(client.search("stable"), baseline, "{backend}");
        assert_eq!(
            dir_bytes(&data_dir),
            bytes_before,
            "{backend}: bytes stored"
        );
        assert_eq!(daemon.stats().tenants_degraded, 1, "{backend}");

        drop((client, raw));
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}
