//! Multi-tenant routing: one scheme server per `(tenant, scheme)` pair.
//!
//! The hello frame names a tenant; the registry lazily creates that
//! tenant's server-side state on first use and hands out a shared handle.
//! Requests for the same tenant serialize on the tenant's mutex (the
//! scheme servers are sequential state machines); requests for different
//! tenants run on different worker threads concurrently.
//!
//! With a data directory the registry becomes **durable**: each
//! `(tenant, scheme)` database lives under
//! `data_dir/<encoded-tenant>/s1|s2/`, is opened via
//! `open_durable_with` (replaying any WAL left by a crash), is
//! re-opened eagerly on daemon restart ([`TenantRegistry::preopen_existing`])
//! and is checkpointed by [`TenantRegistry::checkpoint_all`] on graceful
//! shutdown. Tenant names are arbitrary UTF-8; directory names use a
//! reversible percent-encoding restricted to `[A-Za-z0-9_-]`.

use crate::proto::{SchemeId, StatsSnapshot};
use parking_lot::Mutex;
use sse_core::engine::{DurableOptions, IndexAdmin};
use sse_core::error::SseError;
use sse_core::health::HealthState;
use sse_core::journal::ServerRecovery;
use sse_core::scheme1::Scheme1Server;
use sse_core::scheme2::{Scheme2Config, Scheme2Server};
use sse_storage::{BackendKind, RealVfs, Vfs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One tenant's scheme server. An enum, so callers can reach
/// scheme-specific state (Scheme 2's inline path and search-memo
/// counters); everything else — serving, batches, admin — goes through
/// its one dispatch, the `Deref` to the scheme-erased [`IndexAdmin`].
pub enum TenantDb {
    /// A Scheme 1 (XOR-masked bit-array index) server.
    S1(Scheme1Server),
    /// A Scheme 2 (hash-chain generation list) server.
    S2(Scheme2Server),
}

impl std::ops::Deref for TenantDb {
    type Target = dyn IndexAdmin;

    fn deref(&self) -> &Self::Target {
        match self {
            TenantDb::S1(s) => s,
            TenantDb::S2(s) => s,
        }
    }
}

impl TenantDb {
    /// Checkpoint to the database's home directory (no-op for in-memory
    /// tenants, which have no home): [`IndexAdmin::checkpoint`] under the
    /// name `bench/` calls it by.
    ///
    /// # Errors
    /// Storage errors from the snapshot write.
    pub fn checkpoint_home(&self) -> Result<(), SseError> {
        self.checkpoint()
    }

    /// Whether an envelope request would mutate this database — the
    /// routing predicate for degraded (read-only) serving. `UPDATE_MANY`
    /// is always a mutation; for `DATA` the scheme's [`IndexAdmin::is_read`]
    /// on the request decides. Unknown kinds and empty or unknown
    /// payloads classify as mutations: they are rejected anyway, and a
    /// degraded tenant must fail closed, not execute a request the
    /// classifier could not read.
    #[must_use]
    pub fn is_mutation(&self, kind: u8, payload: &[u8]) -> bool {
        kind != crate::proto::KIND_DATA || !self.is_read(payload)
    }

    /// Answer a `KIND_DATA` request on the calling thread **only if that
    /// can neither wait nor run long** — the reactor's run-to-completion
    /// path (DESIGN.md §4n). `None` declines having changed nothing; the
    /// request then goes to the worker pool untouched. The rule itself is
    /// [`Scheme2Server::try_handle_inline`]'s: a memo-hit search or a
    /// bounded in-memory mutation; no Scheme 1 request qualifies. The
    /// health gate is the worker's, kept by declining: a quarantined
    /// tenant declines everything and a degraded one every mutation, so
    /// the worker words the refusal (`ERR`, `DEGRADED`); a degraded
    /// tenant still serves reads, here too.
    pub fn try_handle_inline(
        &self,
        request: &[u8],
        scratch: impl FnOnce() -> Vec<u8>,
    ) -> Option<Vec<u8>> {
        let TenantDb::S2(server) = self else {
            return None;
        };
        match self.health().state() {
            HealthState::Healthy => {}
            HealthState::Degraded if self.is_read(request) => {}
            HealthState::Degraded | HealthState::Quarantined => return None,
        }
        server.try_handle_inline(request, scratch)
    }
}

/// Shared handle to one tenant's scheme server. No outer mutex: the scheme
/// servers synchronize internally per index shard, which is what lets the
/// daemon's workers execute requests for one tenant concurrently.
pub type TenantHandle = Arc<TenantDb>;

/// Server-side parameters for newly created tenant databases.
#[derive(Clone, Copy, Debug)]
pub struct TenantParams {
    /// Scheme 1 bit-array capacity in documents (fixed at setup by the
    /// paper's design; clients must encode against the same capacity).
    pub scheme1_capacity: u64,
    /// Scheme 2 hash-chain length `l`.
    pub scheme2_chain_length: u64,
    /// Index shards per tenant database (fixed at directory creation for
    /// durable tenants; see the shard manifest).
    pub shards: usize,
    /// Storage backend for durable tenants (fixed per tenant directory at
    /// creation, recorded in `backend.meta`; reopening an existing
    /// directory under a different backend is a clean error). Ignored in
    /// in-memory mode.
    pub backend: BackendKind,
}

impl Default for TenantParams {
    fn default() -> Self {
        TenantParams {
            scheme1_capacity: 4096,
            scheme2_chain_length: 4096,
            shards: 1,
            backend: BackendKind::Btree,
        }
    }
}

/// Lazily populated map from `(tenant, scheme)` to server state.
pub struct TenantRegistry {
    params: TenantParams,
    /// `Some` ⇒ durable mode: tenants live on disk under this directory.
    data_dir: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    tenants: Mutex<HashMap<(String, SchemeId), TenantHandle>>,
    /// Tenant opens that had to replay WAL records or truncate torn tails.
    wal_recoveries: AtomicU64,
    /// Total bytes of torn log tails truncated across all tenant opens.
    torn_tails_truncated: AtomicU64,
}

impl TenantRegistry {
    /// Empty in-memory registry creating tenants with `params`.
    #[must_use]
    pub fn new(params: TenantParams) -> Self {
        TenantRegistry {
            data_dir: None,
            ..Self::durable(params, PathBuf::new(), RealVfs::arc())
        }
    }

    /// Durable registry: tenants are opened from / persisted to
    /// `data_dir`, with all file I/O routed through `vfs` (pass a
    /// `FaultVfs` to torture-test the serving stack).
    #[must_use]
    pub fn durable(params: TenantParams, data_dir: PathBuf, vfs: Arc<dyn Vfs>) -> Self {
        TenantRegistry {
            params,
            data_dir: Some(data_dir),
            vfs,
            tenants: Mutex::new(HashMap::new()),
            wal_recoveries: AtomicU64::new(0),
            torn_tails_truncated: AtomicU64::new(0),
        }
    }

    /// Whether tenants persist to disk.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.data_dir.is_some()
    }

    /// Fetch a tenant's server, creating it (in-memory mode) or opening it
    /// from disk (durable mode, replaying any crash-left WAL) on first
    /// reference.
    ///
    /// # Errors
    /// An empty `tenant` (its directory would be the data directory
    /// itself, beside every other tenant's); in durable mode also storage
    /// errors from the open/recovery path.
    pub fn get_or_create(&self, tenant: &str, scheme: SchemeId) -> Result<TenantHandle, SseError> {
        if tenant.is_empty() {
            return Err(SseError::ProtocolViolation {
                expected: "a non-empty tenant name",
                got: "an empty one".to_string(),
            });
        }
        let mut map = self.tenants.lock();
        if let Some(handle) = map.get(&(tenant.to_string(), scheme)) {
            return Ok(handle.clone());
        }
        let db = self.open_tenant(tenant, scheme)?;
        self.note_recovery(&db.recovery());
        let handle = Arc::new(db);
        map.insert((tenant.to_string(), scheme), handle.clone());
        Ok(handle)
    }

    fn open_tenant(&self, tenant: &str, scheme: SchemeId) -> Result<TenantDb, SseError> {
        let shards = self.params.shards.max(1);
        let capacity = self.params.scheme1_capacity;
        let config = Scheme2Config::standard().with_chain_length(self.params.scheme2_chain_length);
        let Some(root) = &self.data_dir else {
            return Ok(match scheme {
                SchemeId::Scheme1 => {
                    TenantDb::S1(Scheme1Server::new_in_memory_sharded(capacity, shards))
                }
                SchemeId::Scheme2 => {
                    TenantDb::S2(Scheme2Server::new_in_memory_sharded(config, shards))
                }
            });
        };
        let dir = tenant_dir(root, tenant, scheme);
        self.vfs.create_dir_all(&dir)?;
        let opts = DurableOptions {
            vfs: Arc::clone(&self.vfs),
            shards,
            backend: self.params.backend,
        };
        Ok(match scheme {
            SchemeId::Scheme1 => {
                TenantDb::S1(Scheme1Server::open_durable_with(capacity, &dir, opts)?)
            }
            SchemeId::Scheme2 => {
                TenantDb::S2(Scheme2Server::open_durable_with(config, &dir, opts)?)
            }
        })
    }

    fn note_recovery(&self, recovery: &ServerRecovery) {
        if recovery.recovered_anything() {
            self.wal_recoveries.fetch_add(1, Ordering::Relaxed);
        }
        self.torn_tails_truncated
            .fetch_add(recovery.torn_bytes(), Ordering::Relaxed);
    }

    /// Durable mode: eagerly re-open every tenant database already present
    /// under the data directory, so recovery (and its cost) happens at
    /// daemon startup rather than on a client's first request. Returns how
    /// many databases were opened.
    ///
    /// # Errors
    /// Directory-scan I/O errors or storage errors from any open.
    pub fn preopen_existing(&self) -> Result<usize, SseError> {
        let Some(root) = self.data_dir.clone() else {
            return Ok(0);
        };
        let mut opened = 0;
        let entries = match std::fs::read_dir(&root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry.map_err(SseError::from)?;
            if !entry.file_type().map_err(SseError::from)?.is_dir() {
                continue;
            }
            let Some(tenant) = entry.file_name().to_str().and_then(decode_tenant_dir_name) else {
                continue; // not a name we wrote; skip
            };
            for scheme in [SchemeId::Scheme1, SchemeId::Scheme2] {
                if tenant_dir(&root, &tenant, scheme).is_dir() {
                    self.get_or_create(&tenant, scheme)?;
                    opened += 1;
                }
            }
        }
        Ok(opened)
    }

    /// Checkpoint every open tenant database to its home directory, so a
    /// graceful shutdown leaves no WAL to replay. In-memory tenants are
    /// no-ops. Returns how many databases checkpointed.
    ///
    /// # Errors
    /// The first storage error encountered (remaining tenants are still
    /// attempted — a failure on one tenant must not strand the others'
    /// unflushed WALs).
    pub fn checkpoint_all(&self) -> Result<usize, SseError> {
        let mut checkpointed = 0;
        let mut first_err = None;
        for handle in self.handles() {
            match handle.checkpoint_home() {
                Ok(()) => checkpointed += 1,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(checkpointed),
            Some(e) => Err(e),
        }
    }

    /// Whether a tenant database is already open.
    #[must_use]
    pub fn contains(&self, tenant: &str, scheme: SchemeId) -> bool {
        self.tenants
            .lock()
            .contains_key(&(tenant.to_string(), scheme))
    }

    /// Number of live tenant databases.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.lock().len()
    }

    /// Add every open tenant database's counters to `snap` in one pass:
    /// recoveries seen at open, group commit, checkpoints, the Scheme 2
    /// search memo, the storage backend, health, and per-shard lock
    /// contention. Each sums across tenants, except `max_group_size` and
    /// `checkpoint_max_us`, which take the largest.
    pub fn add_counters(&self, snap: &mut StatsSnapshot) {
        snap.wal_recoveries += self.wal_recoveries.load(Ordering::Relaxed);
        snap.torn_tails_truncated += self.torn_tails_truncated.load(Ordering::Relaxed);
        for db in self.handles() {
            let commit = db.commit_counters();
            snap.groups_committed += commit.groups_committed;
            snap.ops_committed += commit.ops_committed;
            snap.max_group_size = snap.max_group_size.max(commit.max_group);
            snap.fsyncs_saved += commit.fsyncs_saved;
            snap.snapshot_swaps += commit.snapshot_swaps;
            snap.checkpoints += commit.checkpoints;
            snap.checkpoint_us += commit.checkpoint_us;
            snap.checkpoint_max_us = snap.checkpoint_max_us.max(commit.checkpoint_max_us);
            if let TenantDb::S2(server) = &*db {
                let memo = server.stats();
                snap.search_cache_hits += memo.cache_hits;
                snap.search_cache_misses += memo.cache_misses;
                snap.walk_steps_saved += memo.walk_steps_saved;
            }
            let backend = db.backend_counters();
            snap.backend_runs_flushed += backend.runs_flushed;
            snap.backend_runs_live += backend.runs_live;
            snap.backend_compactions += backend.compactions;
            snap.backend_run_reads += backend.run_reads;
            snap.backend_bloom_checks += backend.bloom_checks;
            snap.backend_bloom_skips += backend.bloom_skips;
            snap.backend_bloom_false_positives += backend.bloom_false_positives;
            let health = db.health();
            let (degradations, recoveries, quarantines) = health.transition_counts();
            snap.health_degradations += degradations;
            snap.health_recoveries += recoveries;
            snap.health_quarantines += quarantines;
            match health.state() {
                HealthState::Healthy => {}
                HealthState::Degraded => snap.tenants_degraded += 1,
                HealthState::Quarantined => snap.tenants_quarantined += 1,
            }
            let contention = db.shard_contention();
            if contention.len() > snap.shard_contention.len() {
                snap.shard_contention.resize(contention.len(), 0);
            }
            for (acc, c) in snap.shard_contention.iter_mut().zip(contention) {
                *acc += c;
            }
        }
    }

    /// Every open tenant database. The registry lock is released before
    /// the caller touches any of them.
    fn handles(&self) -> Vec<TenantHandle> {
        self.tenants.lock().values().cloned().collect()
    }

    /// Every open tenant database with its routing key — the scrub
    /// thread's work list. Handles are clones; the registry lock is not
    /// held while the caller verifies or repairs.
    #[must_use]
    pub fn open_tenants(&self) -> Vec<((String, SchemeId), TenantHandle)> {
        self.tenants
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// On-disk directory for one `(tenant, scheme)` database.
fn tenant_dir(root: &Path, tenant: &str, scheme: SchemeId) -> PathBuf {
    let sub = match scheme {
        SchemeId::Scheme1 => "s1",
        SchemeId::Scheme2 => "s2",
    };
    root.join(encode_tenant_dir_name(tenant)).join(sub)
}

/// Reversible filesystem-safe encoding of a tenant name: `[A-Za-z0-9_-]`
/// pass through, everything else (including `%` itself) becomes `%XX`.
#[must_use]
pub fn encode_tenant_dir_name(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len());
    for b in tenant.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Inverse of [`encode_tenant_dir_name`]; `None` for names this daemon
/// could not have written (stray directories are skipped, not trusted).
#[must_use]
pub fn decode_tenant_dir_name(name: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(name.len());
    let mut chars = name.bytes();
    while let Some(b) = chars.next() {
        match b {
            b'%' => {
                let hi = chars.next()?;
                let lo = chars.next()?;
                let hex = [hi, lo];
                let hex = std::str::from_utf8(&hex).ok()?;
                bytes.push(u8::from_str_radix(hex, 16).ok()?);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => bytes.push(b),
            _ => return None,
        }
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_of_both_schemes_is_classified() {
        use crate::proto::{KIND_DATA, KIND_UPDATE_MANY};
        use sse_core::scheme1::REQ_TAGS as t1;
        use sse_core::scheme2::protocol::req as t2;

        let reg = TenantRegistry::new(TenantParams::default());
        let schemes = [
            (
                SchemeId::Scheme1,
                vec![
                    (t1::PUT_DOCS, false),
                    (t1::GET_NONCES, true),
                    (t1::APPLY_UPDATES, false),
                    (t1::SEARCH_FIND, true),
                    (t1::SEARCH_REVEAL, true),
                    (t1::SEARCH_REVEAL_MANY, true),
                    (t1::EXPORT_INDEX, true),
                    (t1::REPLACE_INDEX, false),
                    (t1::CHECKPOINT, false),
                ],
            ),
            (
                SchemeId::Scheme2,
                vec![
                    (t2::PUT_DOCS, false),
                    (t2::APPEND_GENERATIONS, false),
                    (t2::SEARCH, true),
                    (t2::RESET_INDEX, false),
                    (t2::SEARCH_MANY, true),
                    (t2::REMOVE_DOCS, false),
                    (t2::CHECKPOINT, false),
                ],
            ),
        ];
        for (scheme, opcodes) in schemes {
            let tenant = reg.get_or_create("t", scheme).unwrap();
            for tag in 0..=u8::MAX {
                // Every byte that is not one of the scheme's opcodes is
                // unknown, and an unknown request is a mutation.
                let read = opcodes.iter().any(|&(op, read)| op == tag && read);
                assert_eq!(
                    tenant.is_mutation(KIND_DATA, &[tag]),
                    !read,
                    "{scheme:?} tag {tag:#04x}"
                );
            }
            assert!(tenant.is_mutation(KIND_DATA, &[]), "{scheme:?}: empty");
            assert!(tenant.is_mutation(KIND_UPDATE_MANY, &[]));
            // Every other kind, the retired batch-search kind 3 included,
            // is unknown here whatever its payload.
            for kind in (0..=u8::MAX).filter(|&k| k != KIND_DATA && k != KIND_UPDATE_MANY) {
                assert!(tenant.is_mutation(kind, &[t1::GET_NONCES]), "kind {kind}");
                assert!(tenant.is_mutation(kind, &[t2::SEARCH]), "kind {kind}");
            }
        }
    }

    #[test]
    fn same_key_shares_state_different_key_does_not() {
        let reg = TenantRegistry::new(TenantParams::default());
        let a1 = reg.get_or_create("alice", SchemeId::Scheme2).unwrap();
        let a2 = reg.get_or_create("alice", SchemeId::Scheme2).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let b = reg.get_or_create("bob", SchemeId::Scheme2).unwrap();
        assert!(!Arc::ptr_eq(&a1, &b));
        let a_s1 = reg.get_or_create("alice", SchemeId::Scheme1).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a_s1));
        assert_eq!(reg.tenant_count(), 3);
    }

    #[test]
    fn tenant_dir_names_round_trip() {
        for name in ["alice", "weird name/with:stuff", "100%-sure", "著者", ""] {
            let encoded = encode_tenant_dir_name(name);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "unsafe byte in {encoded:?}"
            );
            assert_eq!(decode_tenant_dir_name(&encoded).as_deref(), Some(name));
        }
        // Names we did not write are rejected, not guessed at.
        assert_eq!(decode_tenant_dir_name("has space"), None);
        assert_eq!(decode_tenant_dir_name("trailing%4"), None);
        assert_eq!(decode_tenant_dir_name("bad%zz"), None);
    }

    #[test]
    fn durable_registry_recovers_tenants_across_reopen() {
        let dir = tempdir();
        let reg = TenantRegistry::durable(
            TenantParams::default(),
            dir.clone(),
            sse_storage::RealVfs::arc(),
        );
        assert_eq!(reg.preopen_existing().unwrap(), 0);
        reg.get_or_create("alice", SchemeId::Scheme2).unwrap();
        reg.get_or_create("bob", SchemeId::Scheme1).unwrap();
        assert_eq!(reg.checkpoint_all().unwrap(), 2);
        drop(reg);

        let reg2 = TenantRegistry::durable(
            TenantParams::default(),
            dir.clone(),
            sse_storage::RealVfs::arc(),
        );
        assert_eq!(reg2.preopen_existing().unwrap(), 2);
        assert_eq!(reg2.tenant_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_registry_refuses_the_empty_tenant_name() {
        // `tenant_dir(root, "", s)` is `root/s2`: the files would sit beside
        // every tenant's directory, start-up would read them as a tenant
        // *named* "s2", and a tenant really named "s2" would nest inside.
        let dir = tempdir();
        let reg = TenantRegistry::durable(
            TenantParams::default(),
            dir.clone(),
            sse_storage::RealVfs::arc(),
        );
        assert!(reg.get_or_create("", SchemeId::Scheme2).is_err());
        assert_eq!(reg.tenant_count(), 0);
        assert!(!dir.join("s2").exists(), "nothing was opened");
        reg.get_or_create("s2", SchemeId::Scheme2).unwrap();
        assert_eq!(reg.preopen_existing().unwrap(), 1);
        assert!(TenantRegistry::new(TenantParams::default())
            .get_or_create("", SchemeId::Scheme1)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sse-tenant-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
