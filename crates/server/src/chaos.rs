//! Chaos-soak harness: a seeded storm of disk and network faults against
//! a live daemon, checked against three invariants.
//!
//! One durable daemon runs with its file I/O routed through a
//! [`FaultVfs`](sse_storage::FaultVfs) whose schedule (derived from the run seed) opens
//! recurring ENOSPC windows — writes fail with `StorageFull` for a few
//! scheduled write points, then succeed again, over and over. A fast
//! background scrub repairs tenants the windows degrade. Meanwhile
//! seeded clients hammer the daemon with stores and searches and
//! periodically sever their own sockets mid-run (the network fault);
//! the transport's reconnect and degraded-backoff machinery absorbs
//! both fault kinds.
//!
//! After a fixed wall-clock load window the harness waits (bounded) for
//! every tenant to scrub back to `Healthy`, then verifies and reports:
//!
//! 1. **The daemon never crashes** — every daemon thread joins cleanly
//!    at shutdown and the admin plane answers to the end.
//! 2. **Acked writes are never lost** — every store the client saw
//!    acknowledged is returned by a later search of its keyword. Ops
//!    that *errored* are in-doubt (their server-side effect is unknown)
//!    and may appear or not; ids that were never written must not.
//! 3. **Degraded tenants recover** — no tenant is left `Degraded` once
//!    the faults stop and the scrub catches up, and nothing was
//!    quarantined (ENOSPC is a clean fault, never corruption).
//!
//! Everything is a pure function of the seed except thread interleaving
//! and wall-clock pacing, so a failing seed reproduces cheaply.

use crate::daemon::{Daemon, ServerConfig};
use crate::proto::SchemeId;
use crate::tenant::TenantParams;
use crate::transport::TcpTransport;
use sse_core::scheme::SseClientApi;
use sse_core::scheme1::{Scheme1Client, Scheme1Config};
use sse_core::scheme2::{Scheme2Client, Scheme2Config};
use sse_core::types::{Document, Keyword, MasterKey};
use sse_storage::{BackendKind, FaultConfig};
use std::collections::BTreeSet;
use std::io::Result;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Scrub cadence during a chaos run: fast enough that a degraded window
/// resolves within a client's retry budget.
const SCRUB_INTERVAL: Duration = Duration::from_millis(25);
/// Keywords each client writes under (its private, namespaced universe).
const KEYWORDS_PER_CLIENT: usize = 4;
/// Poll cadence while waiting for tenants to recover.
const RECOVERY_POLL: Duration = Duration::from_millis(20);

/// Chaos-run parameters.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Seed for the fault schedule and the client workloads.
    pub seed: u64,
    /// Wall-clock load window (faults fire throughout).
    pub duration: Duration,
    /// How long after the load stops the tenants get to scrub back to
    /// `Healthy` before invariant 3 counts as violated.
    pub recovery_deadline: Duration,
    /// Concurrent closed-loop chaos clients.
    pub clients: usize,
    /// Tenants the clients are spread across (round-robin).
    pub tenants: usize,
    /// Storage backend for the daemon's durable tenants.
    pub backend: BackendKind,
    /// Daemon data directory; `None` picks a fresh temp directory that is
    /// removed after a clean run.
    pub data_dir: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 1,
            duration: Duration::from_millis(2000),
            recovery_deadline: Duration::from_secs(20),
            clients: 4,
            tenants: 2,
            backend: BackendKind::Btree,
            data_dir: None,
        }
    }
}

/// Outcome of one chaos run — counters plus the three invariant verdicts.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Seed the run used.
    pub seed: u64,
    /// Storage backend the daemon ran.
    pub backend: BackendKind,
    /// Load-window length in milliseconds.
    pub duration_ms: u64,
    /// Client operations attempted (stores + searches).
    pub ops_attempted: u64,
    /// Stores the clients saw acknowledged.
    pub stores_acked: u64,
    /// Stores that errored — effect unknown, tracked as in-doubt.
    pub stores_in_doubt: u64,
    /// Searches that completed.
    pub searches_ok: u64,
    /// Client-injected socket drops (the network fault).
    pub disconnects_injected: u64,
    /// `DEGRADED` rejections the transports absorbed by backoff-and-retry.
    pub degraded_retries: u64,
    /// `BUSY` rejections absorbed by backoff-and-retry.
    pub busy_retries: u64,
    /// Connections the transports re-dialed.
    pub reconnects: u64,
    /// Faults the storage layer injected.
    pub faults_injected: u64,
    /// `Healthy → Degraded` transitions across all tenants.
    pub degradations: u64,
    /// `Degraded → Healthy` scrub recoveries.
    pub recoveries: u64,
    /// `→ Quarantined` transitions (must be 0: ENOSPC never corrupts).
    pub quarantines: u64,
    /// Scrub passes completed.
    pub scrub_passes: u64,
    /// Successful scrub repairs.
    pub scrub_repairs: u64,
    /// Daemon threads that panicked (invariant 1 demands 0).
    pub threads_panicked: u64,
    /// Invariant 1: the daemon survived to a clean shutdown.
    pub invariant_daemon_alive: bool,
    /// Invariant 2: every acked store was found by a post-recovery search.
    pub invariant_no_acked_loss: bool,
    /// Invariant 3: every degraded tenant recovered; nothing quarantined.
    pub invariant_degraded_recovered: bool,
    /// Human-readable descriptions of every violation observed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did all three invariants hold?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.invariant_daemon_alive
            && self.invariant_no_acked_loss
            && self.invariant_degraded_recovered
    }

    /// Serialize as the `CHAOS_report.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!(
            "{{\n\"harness\":\"sse-chaos-soak\",\n\"seed\":{},\n\"backend\":\"{}\",\n\
             \"duration_ms\":{},\n\"ops_attempted\":{},\n\"stores_acked\":{},\n\
             \"stores_in_doubt\":{},\n\"searches_ok\":{},\n\"disconnects_injected\":{},\n\
             \"degraded_retries\":{},\n\"busy_retries\":{},\n\"reconnects\":{},\n\
             \"faults_injected\":{},\n\"degradations\":{},\n\"recoveries\":{},\n\
             \"quarantines\":{},\n\"scrub_passes\":{},\n\"scrub_repairs\":{},\n\
             \"threads_panicked\":{},\n\"invariant_daemon_alive\":{},\n\
             \"invariant_no_acked_loss\":{},\n\"invariant_degraded_recovered\":{},\n\
             \"passed\":{},\n\"violations\":[{}]\n}}\n",
            self.seed,
            self.backend,
            self.duration_ms,
            self.ops_attempted,
            self.stores_acked,
            self.stores_in_doubt,
            self.searches_ok,
            self.disconnects_injected,
            self.degraded_retries,
            self.busy_retries,
            self.reconnects,
            self.faults_injected,
            self.degradations,
            self.recoveries,
            self.quarantines,
            self.scrub_passes,
            self.scrub_repairs,
            self.threads_panicked,
            self.invariant_daemon_alive,
            self.invariant_no_acked_loss,
            self.invariant_degraded_recovered,
            self.passed(),
            violations.join(","),
        )
    }
}

/// SplitMix64 — the harness's only randomness source (seeded, portable).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded fault schedule: a recurring ENOSPC window. `start` leaves
/// room for tenant creation to succeed; `period` is much wider than
/// `len`, so scrub repairs (which write) land in good windows and
/// eventually succeed.
fn fault_schedule(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        enospc_start: Some(40 + splitmix64(seed) % 80),
        enospc_len: 2 + splitmix64(seed ^ 1) % 4,
        enospc_period: 80 + splitmix64(seed ^ 2) % 120,
        ..FaultConfig::default()
    }
}

/// One chaos client's scheme client, kept as an enum so the object can
/// move back to the coordinating thread for the verification phase.
enum ChaosClient {
    S1(Scheme1Client<TcpTransport>),
    S2(Scheme2Client<TcpTransport>),
}

impl ChaosClient {
    fn store(&mut self, docs: &[Document]) -> sse_core::error::Result<()> {
        match self {
            ChaosClient::S1(c) => c.add_documents(docs),
            ChaosClient::S2(c) => c.add_documents(docs),
        }
    }

    fn search(&mut self, kw: &Keyword) -> sse_core::error::Result<Vec<(u64, Vec<u8>)>> {
        match self {
            ChaosClient::S1(c) => c.search(kw),
            ChaosClient::S2(c) => c.search(kw),
        }
    }

    fn transport(&mut self) -> &mut TcpTransport {
        match self {
            ChaosClient::S1(c) => c.transport_mut(),
            ChaosClient::S2(c) => c.transport_mut(),
        }
    }
}

/// Everything one client thread brings home: its live scheme client (for
/// the verification phase) and its oracle of what was acked vs in-doubt.
struct ClientOutcome {
    client: ChaosClient,
    /// Keyword → ids whose store was acknowledged.
    acked: Vec<BTreeSet<u64>>,
    /// Keyword → ids whose store errored (effect unknown).
    in_doubt: Vec<BTreeSet<u64>>,
    keywords: Vec<Keyword>,
    ops_attempted: u64,
    stores_acked: u64,
    stores_in_doubt: u64,
    searches_ok: u64,
    disconnects_injected: u64,
    /// Mid-run search-consistency violations.
    violations: Vec<String>,
}

/// The per-keyword consistency check: a search must return every acked
/// id and nothing outside acked ∪ in-doubt.
fn check_hits(
    who: &str,
    kw_ix: usize,
    hits: &[(u64, Vec<u8>)],
    acked: &BTreeSet<u64>,
    in_doubt: &BTreeSet<u64>,
    violations: &mut Vec<String>,
) {
    let found: BTreeSet<u64> = hits.iter().map(|(id, _)| *id).collect();
    for id in acked {
        if !found.contains(id) {
            violations.push(format!(
                "{who}: acked doc {id} missing from keyword {kw_ix}"
            ));
        }
    }
    for id in &found {
        if !acked.contains(id) && !in_doubt.contains(id) {
            violations.push(format!("{who}: phantom doc {id} under keyword {kw_ix}"));
        }
    }
}

/// One client's load loop: seeded stores, searches and socket drops until
/// the deadline.
fn drive_client(
    mut client: ChaosClient,
    who: &str,
    seed: u64,
    stride: u64,
    offset: u64,
    capacity: u64,
    deadline: Instant,
) -> ClientOutcome {
    let keywords: Vec<Keyword> = (0..KEYWORDS_PER_CLIENT)
        .map(|j| Keyword::new(format!("{who}-kw{j}")))
        .collect();
    let mut acked = vec![BTreeSet::new(); KEYWORDS_PER_CLIENT];
    let mut in_doubt = vec![BTreeSet::new(); KEYWORDS_PER_CLIENT];
    let mut violations = Vec::new();
    let (mut ops_attempted, mut stores_acked, mut stores_in_doubt) = (0u64, 0u64, 0u64);
    let (mut searches_ok, mut disconnects_injected) = (0u64, 0u64);
    let mut next_doc = 0u64;
    let mut step = 0u64;
    while Instant::now() < deadline {
        step += 1;
        let roll = splitmix64(seed ^ step.wrapping_mul(0xA076_1D64_78BD_642F));
        let doc_id = next_doc * stride + offset;
        match roll % 10 {
            // ~10%: network fault — sever the socket between ops.
            0 => {
                client.transport().inject_disconnect();
                disconnects_injected += 1;
            }
            // ~30%: search a seeded keyword, checking consistency.
            1..=3 => {
                ops_attempted += 1;
                let kw_ix = usize::try_from(roll >> 8).unwrap_or(0) % KEYWORDS_PER_CLIENT;
                if let Ok(hits) = client.search(&keywords[kw_ix]) {
                    searches_ok += 1;
                    check_hits(
                        who,
                        kw_ix,
                        &hits,
                        &acked[kw_ix],
                        &in_doubt[kw_ix],
                        &mut violations,
                    );
                }
            }
            // ~60%: store one document under 1–2 seeded keywords.
            _ => {
                if doc_id >= capacity {
                    continue; // scheme-1 bit-array is full; keep searching
                }
                ops_attempted += 1;
                next_doc += 1;
                let k1 = usize::try_from(roll >> 8).unwrap_or(0) % KEYWORDS_PER_CLIENT;
                let k2 = usize::try_from(roll >> 24).unwrap_or(0) % KEYWORDS_PER_CLIENT;
                let mut kws = vec![keywords[k1].as_str()];
                if k2 != k1 {
                    kws.push(keywords[k2].as_str());
                }
                let doc = Document::new(doc_id, format!("doc-{doc_id}").into_bytes(), kws);
                let targets: Vec<usize> = if k2 == k1 { vec![k1] } else { vec![k1, k2] };
                match client.store(std::slice::from_ref(&doc)) {
                    Ok(()) => {
                        stores_acked += 1;
                        for t in targets {
                            acked[t].insert(doc_id);
                        }
                    }
                    Err(_) => {
                        stores_in_doubt += 1;
                        for t in targets {
                            in_doubt[t].insert(doc_id);
                        }
                    }
                }
            }
        }
    }
    ClientOutcome {
        client,
        acked,
        in_doubt,
        keywords,
        ops_attempted,
        stores_acked,
        stores_in_doubt,
        searches_ok,
        disconnects_injected,
        violations,
    }
}

/// Run one chaos soak. Blocks for roughly `duration + recovery wait +
/// verification`.
///
/// # Errors
/// Setup failures only (bind, tenant pre-open, client connect): once the
/// storm starts, faults are recorded in the report, never returned.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosReport> {
    let data_dir = opts.data_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sse-chaos-{}-{}", std::process::id(), opts.seed))
    });
    let _ = std::fs::remove_dir_all(&data_dir);
    let params = TenantParams {
        backend: opts.backend,
        shards: 2,
        ..TenantParams::default()
    };
    let capacity = params.scheme1_capacity;
    let daemon = Daemon::spawn(ServerConfig {
        tenant_params: params,
        data_dir: Some(data_dir.clone()),
        fault: Some(fault_schedule(opts.seed)),
        scrub_interval: Some(SCRUB_INTERVAL),
        ..ServerConfig::default()
    })?;
    let addr = daemon.local_addr().to_string();

    let clients = opts.clients.max(1);
    let tenants = opts.tenants.max(1);
    let deadline = Instant::now() + opts.duration;
    let joins: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.clone();
            let seed = opts.seed;
            std::thread::spawn(move || -> Result<ClientOutcome> {
                let tenant = format!("chaos-{}", i % tenants);
                let scheme = if i % 2 == 0 {
                    SchemeId::Scheme1
                } else {
                    SchemeId::Scheme2
                };
                // Tenant creation itself can land in an ENOSPC window and
                // reject the hello; retry until the window passes.
                let transport = loop {
                    match TcpTransport::connect(&addr, &tenant, scheme) {
                        Ok(t) => break t,
                        Err(e) if Instant::now() >= deadline => return Err(e),
                        Err(_) => std::thread::sleep(RECOVERY_POLL),
                    }
                };
                let key = MasterKey::from_seed(seed ^ ((i as u64) << 32) ^ 0xC4A05);
                let rng_seed = seed.wrapping_add(i as u64);
                let client = match scheme {
                    SchemeId::Scheme1 => ChaosClient::S1(Scheme1Client::new_seeded(
                        transport,
                        key,
                        Scheme1Config::fast_profile(capacity),
                        rng_seed,
                    )),
                    SchemeId::Scheme2 => ChaosClient::S2(Scheme2Client::new_seeded(
                        transport,
                        key,
                        Scheme2Config::standard(),
                        rng_seed,
                    )),
                };
                let who = format!("client-{i}");
                Ok(drive_client(
                    client,
                    &who,
                    seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                    clients as u64,
                    i as u64,
                    capacity,
                    deadline,
                ))
            })
        })
        .collect();

    let mut outcomes: Vec<ClientOutcome> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for join in joins {
        match join.join() {
            Ok(Ok(outcome)) => outcomes.push(outcome),
            Ok(Err(e)) => violations.push(format!("client setup failed: {e}")),
            Err(_) => violations.push("chaos client panicked".to_string()),
        }
    }

    // Recovery phase: the faults keep firing (the schedule is recurring),
    // but the windows are narrow — scrub repairs retry until one lands on
    // a good window. Drive extra synchronous passes to converge faster.
    let recovery_deadline = Instant::now() + opts.recovery_deadline;
    let mut recovered = false;
    while Instant::now() < recovery_deadline {
        let snap = daemon.stats();
        if snap.tenants_degraded == 0 && snap.tenants_quarantined == 0 {
            recovered = true;
            break;
        }
        daemon.scrub_now();
        std::thread::sleep(RECOVERY_POLL);
    }
    if !recovered {
        violations.push("tenants still degraded or quarantined after the recovery deadline".into());
    }

    // Verification phase: every acked store must be findable now that the
    // tenants are healthy again.
    let (mut ops_attempted, mut stores_acked, mut stores_in_doubt) = (0u64, 0u64, 0u64);
    let (mut searches_ok, mut disconnects_injected) = (0u64, 0u64);
    let mut degraded_retries = 0;
    let mut busy_retries = 0;
    let mut reconnects = 0;
    for (i, outcome) in outcomes.iter_mut().enumerate() {
        let who = format!("client-{i}");
        for kw_ix in 0..KEYWORDS_PER_CLIENT {
            let kw = outcome.keywords[kw_ix].clone();
            match outcome.client.search(&kw) {
                Ok(hits) => check_hits(
                    &who,
                    kw_ix,
                    &hits,
                    &outcome.acked[kw_ix],
                    &outcome.in_doubt[kw_ix],
                    &mut violations,
                ),
                Err(e) => {
                    violations.push(format!("{who}: verification search {kw_ix} failed: {e}"));
                }
            }
        }
        violations.append(&mut outcome.violations);
        ops_attempted += outcome.ops_attempted;
        stores_acked += outcome.stores_acked;
        stores_in_doubt += outcome.stores_in_doubt;
        searches_ok += outcome.searches_ok;
        disconnects_injected += outcome.disconnects_injected;
        let t = outcome.client.transport();
        degraded_retries += t.degraded_retries();
        busy_retries += t.busy_retries();
        reconnects += t.reconnects();
    }
    drop(outcomes); // hang up the client connections before the drain

    let final_stats = daemon.stats();
    let shutdown = daemon.shutdown();
    let threads_panicked = shutdown.threads_panicked as u64;
    #[allow(clippy::cast_possible_truncation)]
    let duration_ms = opts.duration.as_millis() as u64;
    if threads_panicked > 0 {
        violations.push(format!("{threads_panicked} daemon thread(s) panicked"));
    }
    if final_stats.health_quarantines > 0 {
        violations.push(format!(
            "{} tenant(s) quarantined on a clean-fault schedule",
            final_stats.health_quarantines
        ));
    }

    let invariant_no_acked_loss = !violations.iter().any(|v| {
        v.contains("acked doc") || v.contains("phantom doc") || v.contains("verification search")
    });
    let report = ChaosReport {
        seed: opts.seed,
        backend: opts.backend,
        duration_ms,
        ops_attempted,
        stores_acked,
        stores_in_doubt,
        searches_ok,
        disconnects_injected,
        degraded_retries,
        busy_retries,
        reconnects,
        faults_injected: final_stats.faults_injected,
        degradations: final_stats.health_degradations,
        recoveries: final_stats.health_recoveries,
        quarantines: final_stats.health_quarantines,
        scrub_passes: final_stats.scrub_passes,
        scrub_repairs: final_stats.scrub_repairs,
        threads_panicked,
        invariant_daemon_alive: threads_panicked == 0,
        invariant_no_acked_loss,
        invariant_degraded_recovered: recovered && final_stats.health_quarantines == 0,
        violations,
    };
    if report.passed() && opts.data_dir.is_none() {
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    Ok(report)
}
