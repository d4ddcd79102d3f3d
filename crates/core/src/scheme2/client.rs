//! Scheme 2 client.
//!
//! Unlike Scheme 1's stateless client, this client carries small mutable
//! state: the global update counter `ctr`, the current chain *epoch* (bumped
//! on re-initialization after exhaustion), and the Optimization-2 flag
//! "has a search happened since the last update". The state is exposed as
//! a serializable [`Scheme2ClientState`] so an application can persist it
//! between sessions (the GP's workstation in §6).

use super::protocol::{self, GenerationEntry};
use super::{key_commitment, CtrPolicy, Scheme2Config};
use crate::error::{Result, SseError};
use crate::proto_common;
use crate::scheme::SseClientApi;
use crate::types::{DocId, Document, Keyword, MasterKey, SearchHits};
use sse_net::link::{MeteredLink, Transport};
use sse_net::meter::Meter;
use sse_net::wire::WireWriter;
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::HashChain;
use sse_primitives::prf::Prf;
use std::collections::{BTreeMap, BTreeSet};

/// Persistable client state (beyond the master key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheme2ClientState {
    /// Global update counter `ctr` (paper §5.5).
    pub ctr: u64,
    /// Chain epoch: incremented on each re-initialization (§5.6).
    pub epoch: u64,
    /// Optimization 2: whether a search has happened since the last update.
    pub searched_since_update: bool,
}

impl Default for Scheme2ClientState {
    fn default() -> Self {
        Scheme2ClientState {
            ctr: 0,
            epoch: 0,
            searched_since_update: true, // first update must take a fresh key
        }
    }
}

/// The Scheme 2 client, generic over the transport.
pub struct Scheme2Client<T: Transport> {
    link: T,
    config: Scheme2Config,
    key: MasterKey,
    prf: Prf,
    etm: EtmKey,
    drbg: HmacDrbg,
    state: Scheme2ClientState,
    /// Per-keyword pebbled chains for the current epoch (see
    /// [`Scheme2Client::chain`]). Cleared on epoch change.
    chains: std::collections::HashMap<Keyword, HashChain>,
}

/// Convenience alias: client wired to an in-process server.
pub type InMemoryScheme2Client = Scheme2Client<MeteredLink<super::server::Scheme2Server>>;

impl InMemoryScheme2Client {
    /// Build client + in-memory server + metered link in one call.
    #[must_use]
    pub fn new_in_memory(key: MasterKey, config: Scheme2Config) -> Self {
        let server = super::server::Scheme2Server::new_in_memory(config.clone());
        let link = MeteredLink::new(server, Meter::new());
        Scheme2Client::new(link, key, config)
    }

    /// The traffic meter shared with the link.
    #[must_use]
    pub fn meter(&self) -> Meter {
        self.link.meter().clone()
    }

    /// Peek at the server (experiments read its counters).
    pub fn server_mut(&mut self) -> &mut super::server::Scheme2Server {
        self.link.service_mut()
    }
}

impl<T: Transport> Scheme2Client<T> {
    /// Construct a client over an established transport.
    #[must_use]
    pub fn new(link: T, key: MasterKey, config: Scheme2Config) -> Self {
        let prf = Prf::new(key.derive_w("scheme2/tag"));
        let etm = EtmKey::new(&key.derive_m("scheme2/data"));
        let mut seed_material = key.derive_w("scheme2/client-rng").to_vec();
        let mut os = [0u8; 32];
        sse_primitives::os_random(&mut os);
        seed_material.extend_from_slice(&os);
        let drbg = HmacDrbg::new(&seed_material);
        Scheme2Client {
            link,
            config,
            key,
            prf,
            etm,
            drbg,
            state: Scheme2ClientState::default(),
            chains: std::collections::HashMap::new(),
        }
    }

    /// Deterministic variant for tests and reproducible experiments.
    #[must_use]
    pub fn new_seeded(link: T, key: MasterKey, config: Scheme2Config, rng_seed: u64) -> Self {
        let mut c = Self::new(link, key, config);
        c.drbg = HmacDrbg::from_u64(rng_seed);
        c
    }

    /// Current persistable state.
    #[must_use]
    pub fn state(&self) -> Scheme2ClientState {
        self.state
    }

    /// Restore persisted state (e.g. a new session on the GP workstation).
    pub fn restore_state(&mut self, state: Scheme2ClientState) {
        self.state = state;
        self.chains.clear();
    }

    /// Remaining counter values before the chain is exhausted.
    #[must_use]
    pub fn chain_remaining(&self) -> u64 {
        self.config.chain_length.saturating_sub(self.state.ctr)
    }

    /// The PRF tag `f_kw(w)`.
    #[must_use]
    pub fn tag(&self, keyword: &Keyword) -> [u8; 32] {
        self.prf.eval(keyword.as_bytes()).0
    }

    /// The per-keyword hash chain for the current epoch (`w ‖ k_w`, plus
    /// the epoch for post-exhaustion re-initialization). Chains are built
    /// with √l checkpoints and cached per keyword, so deriving
    /// `h^{l-ctr}(w ‖ k_w)` costs O(l) once and O(√l) thereafter instead of
    /// O(l - ctr) on every operation.
    fn chain(&mut self, keyword: &Keyword) -> &HashChain {
        if !self.chains.contains_key(keyword) {
            let chain_key = self.key.derive_w("scheme2/chain");
            let chain = HashChain::with_checkpoints(
                &[
                    keyword.as_bytes(),
                    &chain_key,
                    &self.state.epoch.to_be_bytes(),
                ],
                self.config.chain_length as usize,
            );
            self.chains.insert(keyword.clone(), chain);
        }
        &self.chains[keyword]
    }

    /// Pick the counter value for the next update per the configured
    /// policy, and report whether it advances the global counter.
    fn next_update_counter(&self) -> Result<(u64, bool)> {
        let advance = match self.config.ctr_policy {
            CtrPolicy::Always => true,
            // Opt. 2: reuse the previous key while the server has not seen
            // it through a search. The very first update has no previous
            // key, so it must advance.
            CtrPolicy::OnSearchOnly => self.state.searched_since_update || self.state.ctr == 0,
        };
        let ctr = if advance {
            self.state.ctr + 1
        } else {
            self.state.ctr
        };
        if ctr > self.config.chain_length {
            return Err(SseError::ChainExhausted);
        }
        Ok((ctr, advance))
    }

    /// `Storage` / update (Fig. 3): upload documents and append one masked
    /// generation per touched keyword. One metadata round.
    ///
    /// # Errors
    /// [`SseError::ChainExhausted`] when the chain has no counter values
    /// left — call [`Scheme2Client::reinitialize`]; other protocol/crypto
    /// failures propagate.
    pub fn store(&mut self, docs: &[Document]) -> Result<()> {
        // DataStorage, then MetadataStorage.
        let put = self.put_docs(docs);
        self.update(put, &[postings(docs, false)], false)
    }

    /// [`Scheme2Client::store`] with the two protocol messages (`PutDocs`,
    /// `AppendGenerations`) shipped through
    /// [`Transport::round_trip_batch`]: over a batching transport (the TCP
    /// `UPDATE_MANY` envelope) the whole update becomes **one round** and
    /// the server applies it atomically — a racing search observes either
    /// none or all of the new generations, and each index shard takes a
    /// single journal append for the batch. On non-batching transports this
    /// degrades to exactly the message sequence of [`Scheme2Client::store`],
    /// except on chain exhaustion: this sends nothing, where `store` has
    /// already sent its `PutDocs`.
    ///
    /// # Errors
    /// Same failure modes as [`Scheme2Client::store`].
    pub fn store_batch(&mut self, docs: &[Document]) -> Result<()> {
        let put = self.put_docs(docs);
        self.update(put, &[postings(docs, false)], true)
    }

    /// `Trapdoor` + `Search` (Fig. 4): one round.
    ///
    /// # Errors
    /// Protocol and crypto failures; an unknown keyword returns empty hits.
    pub fn search(&mut self, keyword: &Keyword) -> Result<SearchHits> {
        let tag = self.tag(keyword);
        let ctr = self.state.ctr;
        let t_prime = self.chain(keyword).key_for_counter(ctr)?;
        let resp = self
            .link
            .round_trip(&protocol::encode_search(&tag, &t_prime))?;
        let hits = proto_common::open_hits(&self.etm, proto_common::decode_result(&resp)?)?;
        self.state.searched_since_update = true;
        Ok(hits)
    }

    /// Batched search (protocol extension): search `q` keywords in **one
    /// round total**. Returns one hit list per keyword, position-aligned.
    ///
    /// # Errors
    /// Protocol and crypto failures.
    pub fn search_many(&mut self, keywords: &[Keyword]) -> Result<Vec<SearchHits>> {
        if keywords.is_empty() {
            return Ok(Vec::new());
        }
        let ctr = self.state.ctr;
        let mut trapdoors = Vec::with_capacity(keywords.len());
        for w in keywords {
            let tag = self.tag(w);
            let t_prime = self.chain(w).key_for_counter(ctr)?;
            trapdoors.push((tag, t_prime));
        }
        let resp = self
            .link
            .round_trip(&protocol::encode_search_many(&trapdoors))?;
        let results = proto_common::decode_result_many(&resp)?;
        if results.len() != keywords.len() {
            return Err(SseError::ProtocolViolation {
                expected: "one result list per trapdoor",
                got: format!("{} lists for {} trapdoors", results.len(), keywords.len()),
            });
        }
        let out = results
            .into_iter()
            .map(|encrypted| proto_common::open_hits(&self.etm, encrypted))
            .collect::<Result<Vec<_>>>()?;
        self.state.searched_since_update = true;
        Ok(out)
    }

    /// §5.7 *fake update*: append empty-id generations for the given
    /// keywords, one per keyword however often it is named — the same
    /// message, round and counter step as a real update touching the same
    /// keyword count; posting sets are unchanged (empty lists add nothing). Not length-indistinguishable: a sealed
    /// generation carries 8 bytes per id it adds or removes, so an empty
    /// one is shorter than a real one by 8 bytes per id.
    ///
    /// # Errors
    /// Same failure modes as [`Scheme2Client::store`].
    pub fn fake_update(&mut self, keywords: &[Keyword]) -> Result<()> {
        self.update(None, &fakes([keywords]), false)
    }

    /// Batched [`Scheme2Client::fake_update`]: one `AppendGenerations`
    /// message per keyword group, all shipped through
    /// [`Transport::round_trip_batch`] — over TCP that is a single
    /// `UPDATE_MANY` envelope the server applies atomically with one journal
    /// append per touched shard. All groups share one counter value (they
    /// form a single logical update), which makes this pure index-write
    /// load.
    ///
    /// # Errors
    /// Same failure modes as [`Scheme2Client::fake_update`].
    pub fn fake_update_many(&mut self, keyword_groups: &[Vec<Keyword>]) -> Result<()> {
        let groups = fakes(keyword_groups.iter().map(Vec::as_slice));
        self.update(None, &groups, true)
    }

    /// Deletion extension (beyond the paper): remove documents from the
    /// database. Two one-round messages: blob removal, then one *delete
    /// generation* per touched keyword — on the wire indistinguishable from
    /// an ordinary update of the same shape, and subject to the same chain
    /// budget. The paper's Scheme 1 gets deletion for free from XOR
    /// toggling; this gives Scheme 2 the same capability.
    ///
    /// # Errors
    /// [`SseError::ChainExhausted`] and protocol/crypto failures.
    pub fn remove(&mut self, docs: &[Document]) -> Result<()> {
        if docs.is_empty() {
            return Ok(());
        }
        let ids: Vec<DocId> = docs.iter().map(|d| d.id).collect();
        let remove = protocol::encode_remove_docs(&ids);
        self.update(Some(remove), &[postings(docs, true)], false)
    }

    /// Ask a durable server to checkpoint its document store and keyword
    /// index to disk (one round). Errors if the server is in-memory.
    ///
    /// # Errors
    /// Protocol failures, or a server-side error for in-memory servers.
    pub fn request_checkpoint(&mut self) -> Result<()> {
        proto_common::send(&mut self.link, &protocol::encode_checkpoint())
    }

    /// Re-initialize after chain exhaustion (§5.6): bump the epoch, reset
    /// the counter, clear the server's keyword index and re-index the full
    /// document collection under fresh chains. Document blobs already on
    /// the server are kept; only metadata is rebuilt.
    ///
    /// # Errors
    /// Protocol/crypto failures during the rebuild.
    pub fn reinitialize(&mut self, all_docs: &[Document]) -> Result<()> {
        proto_common::send(&mut self.link, &protocol::encode_reset_index())?;
        self.state = Scheme2ClientState {
            epoch: self.state.epoch + 1,
            ..Scheme2ClientState::default()
        };
        self.chains.clear();
        // Re-run MetadataStorage only (blobs are still stored server-side).
        self.update(None, &[postings(all_docs, false)], false)
    }

    /// The one update body (Fig. 3 `MetadataStorage`; §5.7's batched and
    /// fake updates only change its input). Sends `lead` (`PutDocs` or
    /// `RemoveDocs`), then seals one generation per `(keyword, adds, dels)`
    /// item under the next counter value — one `AppendGenerations` per
    /// non-empty group — and sends those. With `batch` every message goes
    /// in one [`Transport::round_trip_batch`] after the counter check; else
    /// one round each, `lead` before it. The client state advances only
    /// once every message is acked, and not at all when every group is
    /// empty.
    fn update(
        &mut self,
        lead: Option<Vec<u8>>,
        groups: &[Vec<Posting<'_>>],
        batch: bool,
    ) -> Result<()> {
        let mut parts = Vec::with_capacity(groups.len() + 1);
        if let Some(lead) = lead {
            if batch {
                parts.push(lead);
            } else {
                proto_common::send(&mut self.link, &lead)?;
            }
        }
        let mut counter = None;
        if groups.iter().any(|g| !g.is_empty()) {
            let (ctr, advance) = self.next_update_counter()?;
            for group in groups.iter().filter(|g| !g.is_empty()) {
                let mut entries = Vec::with_capacity(group.len());
                for (w, adds, dels) in group {
                    let k = self.chain(w).key_for_counter(ctr)?;
                    entries.push(GenerationEntry {
                        tag: self.tag(w),
                        sealed_ids: self.seal_posting(&k, adds, dels),
                        commitment: key_commitment(&k),
                    });
                }
                parts.push(protocol::encode_append_generations(&entries));
            }
            counter = Some((ctr, advance));
        }
        proto_common::send_all(&mut self.link, &parts, batch)?;
        if let Some((ctr, advance)) = counter {
            if advance {
                self.state.ctr = ctr;
            }
            self.state.searched_since_update = false;
        }
        Ok(())
    }

    /// The `PutDocs` message for `docs` (`DataStorage`), none for no docs.
    fn put_docs(&mut self, docs: &[Document]) -> Option<Vec<u8>> {
        if docs.is_empty() {
            return None;
        }
        let blobs = proto_common::seal_blobs(&self.etm, &mut self.drbg, docs);
        Some(protocol::encode_put_docs(&blobs))
    }

    /// Seal one posting generation: the added ids plus (deletion
    /// extension) the removed ids, both under the generation key.
    fn seal_posting(&mut self, chain_key: &[u8; 32], adds: &[DocId], dels: &[DocId]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64_vec(adds);
        w.put_u64_vec(dels);
        let mut iv = [0u8; 12];
        self.drbg.fill(&mut iv);
        EtmKey::new(chain_key).seal_with_iv(&iv, &w.finish())
    }

    /// Access the underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.link
    }
}

/// One generation to seal: a keyword, the ids it adds and (deletion
/// extension) the ids it removes.
type Posting<'a> = (&'a Keyword, Vec<DocId>, Vec<DocId>);

/// One generation per unique keyword of `docs`, in keyword order, adding
/// the ids of the documents that carry it — or, for `delete`, removing
/// them.
fn postings(docs: &[Document], delete: bool) -> Vec<Posting<'_>> {
    let mut per_keyword: BTreeMap<&Keyword, Vec<DocId>> = BTreeMap::new();
    for d in docs {
        for w in &d.keywords {
            per_keyword.entry(w).or_default().push(d.id);
        }
    }
    let item = |(w, ids)| {
        if delete {
            (w, Vec::new(), ids)
        } else {
            (w, ids, Vec::new())
        }
    };
    per_keyword.into_iter().map(item).collect()
}

/// Empty generations for a fake update, one group per keyword group:
/// one generation per keyword, where it is first named. A keyword named
/// twice gets one generation — a second at the same counter would stay
/// under its tag for good — and the input order is kept.
fn fakes<'a>(groups: impl IntoIterator<Item = &'a [Keyword]>) -> Vec<Vec<Posting<'a>>> {
    let mut named = BTreeSet::new();
    groups
        .into_iter()
        .map(|group| {
            group
                .iter()
                .filter(|w| named.insert(*w))
                .map(|w| (w, Vec::new(), Vec::new()))
                .collect()
        })
        .collect()
}

impl<T: Transport> SseClientApi for Scheme2Client<T> {
    fn add_documents(&mut self, docs: &[Document]) -> Result<()> {
        self.store(docs)
    }

    fn search(&mut self, keyword: &Keyword) -> Result<SearchHits> {
        Scheme2Client::search(self, keyword)
    }

    fn search_many(&mut self, keywords: &[Keyword]) -> Result<Vec<SearchHits>> {
        Scheme2Client::search_many(self, keywords)
    }

    fn scheme_name(&self) -> &'static str {
        "scheme2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Document;

    fn client(config: Scheme2Config) -> InMemoryScheme2Client {
        let mut c = InMemoryScheme2Client::new_in_memory(MasterKey::from_seed(11), config);
        c.drbg = HmacDrbg::from_u64(3);
        c
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::new(0, b"doc zero".to_vec(), ["flu", "fever"]),
            Document::new(1, b"doc one".to_vec(), ["fever"]),
            Document::new(2, b"doc two".to_vec(), ["measles"]),
        ]
    }

    #[test]
    fn store_and_search_end_to_end() {
        let mut c = client(Scheme2Config::standard().with_chain_length(64));
        c.store(&docs()).unwrap();
        assert_eq!(
            c.search(&Keyword::new("fever")).unwrap(),
            vec![(0, b"doc zero".to_vec()), (1, b"doc one".to_vec())]
        );
        assert!(c.search(&Keyword::new("absent")).unwrap().is_empty());
    }

    #[test]
    fn interleaved_updates_and_searches() {
        let mut c = client(Scheme2Config::standard().with_chain_length(128));
        c.store(&docs()).unwrap();
        for round in 0u64..10 {
            let id = 10 + round;
            c.store(&[Document::new(
                id,
                format!("r{round}").into_bytes(),
                ["fever"],
            )])
            .unwrap();
            let hits = c.search(&Keyword::new("fever")).unwrap();
            assert_eq!(hits.len(), 3 + round as usize, "round {round}");
        }
    }

    #[test]
    fn one_round_per_operation() {
        let mut c = client(Scheme2Config::standard().with_chain_length(64));
        let meter = c.meter();
        c.store(&docs()).unwrap();
        // 1 PutDocs + 1 AppendGenerations.
        assert_eq!(meter.snapshot().rounds, 2);
        meter.reset();
        c.search(&Keyword::new("fever")).unwrap();
        assert_eq!(meter.snapshot().rounds, 1, "Table 1: one-round search");
        meter.reset();
        c.fake_update(&[Keyword::new("fever")]).unwrap();
        assert_eq!(meter.snapshot().rounds, 1, "Table 1: one-round update");
    }

    #[test]
    fn update_bandwidth_scales_with_batch_not_database() {
        // The contrast with Scheme 1: adding one doc to a huge database
        // costs O(1) bytes, not O(capacity).
        let mut c = client(Scheme2Config::standard().with_chain_length(512));
        // Large initial load.
        let initial: Vec<Document> = (0..200u64)
            .map(|i| Document::new(i, vec![0u8; 10], [format!("kw{}", i % 50)]))
            .collect();
        c.store(&initial).unwrap();
        let meter = c.meter();
        meter.reset();
        c.store(&[Document::new(400, b"tiny".to_vec(), ["kw1"])])
            .unwrap();
        let up = meter.snapshot().bytes_up;
        assert!(
            up < 400,
            "single-doc update should be small, got {up} bytes"
        );
    }

    #[test]
    fn ctr_policy_always_advances_every_update() {
        let mut c = client(Scheme2Config::base(64));
        assert_eq!(c.state().ctr, 0);
        c.store(&docs()).unwrap();
        assert_eq!(c.state().ctr, 1);
        c.store(&[Document::new(9, vec![], ["x"])]).unwrap();
        assert_eq!(c.state().ctr, 2);
    }

    #[test]
    fn opt2_reuses_counter_between_searches() {
        let mut c = client(
            Scheme2Config::standard()
                .with_chain_length(64)
                .with_ctr_policy(CtrPolicy::OnSearchOnly),
        );
        c.store(&docs()).unwrap();
        assert_eq!(c.state().ctr, 1);
        // No search since: three more updates reuse ctr = 1.
        for i in 0..3u64 {
            c.store(&[Document::new(10 + i, vec![], ["fever"])])
                .unwrap();
            assert_eq!(c.state().ctr, 1, "update {i} must reuse the counter");
        }
        // All four generations are still searchable.
        assert_eq!(c.search(&Keyword::new("fever")).unwrap().len(), 5);
        // After the search the next update advances.
        c.store(&[Document::new(20, vec![], ["fever"])]).unwrap();
        assert_eq!(c.state().ctr, 2);
        assert_eq!(c.search(&Keyword::new("fever")).unwrap().len(), 6);
    }

    #[test]
    fn chain_exhaustion_is_reported() {
        let mut c = client(Scheme2Config::base(2));
        c.store(&[Document::new(0, vec![], ["a"])]).unwrap();
        c.store(&[Document::new(1, vec![], ["a"])]).unwrap();
        let err = c.store(&[Document::new(2, vec![], ["a"])]).unwrap_err();
        assert!(matches!(err, SseError::ChainExhausted));
    }

    #[test]
    fn reinitialize_recovers_from_exhaustion() {
        let mut c = client(Scheme2Config::base(2));
        let mut all = vec![
            Document::new(0, b"zero".to_vec(), ["a"]),
            Document::new(1, b"one".to_vec(), ["a"]),
        ];
        c.store(&all[..1]).unwrap();
        c.store(&all[1..]).unwrap();
        assert!(matches!(
            c.store(&[Document::new(2, b"two".to_vec(), ["a"])]),
            Err(SseError::ChainExhausted)
        ));

        c.reinitialize(&all).unwrap();
        assert_eq!(c.state().epoch, 1);
        assert_eq!(c.search(&Keyword::new("a")).unwrap().len(), 2);

        // The fresh chain accepts new updates again.
        all.push(Document::new(2, b"two".to_vec(), ["a"]));
        c.store(&all[2..]).unwrap();
        assert_eq!(c.search(&Keyword::new("a")).unwrap().len(), 3);
    }

    #[test]
    fn state_round_trips_across_sessions() {
        let config = Scheme2Config::standard().with_chain_length(64);
        let mut c = client(config.clone());
        c.store(&docs()).unwrap();
        c.search(&Keyword::new("fever")).unwrap();
        let saved = c.state();

        // "New session": same key, same server, restored state.
        let server = std::mem::replace(
            c.server_mut(),
            super::super::server::Scheme2Server::new_in_memory(config.clone()),
        );
        let link = MeteredLink::new(server, Meter::new());
        let mut c2 = Scheme2Client::new_seeded(link, MasterKey::from_seed(11), config, 99);
        c2.restore_state(saved);
        assert_eq!(
            c2.search(&Keyword::new("fever")).unwrap().len(),
            2,
            "restored client must read existing data"
        );
        c2.store(&[Document::new(30, b"later".to_vec(), ["fever"])])
            .unwrap();
        assert_eq!(c2.search(&Keyword::new("fever")).unwrap().len(), 3);
    }

    #[test]
    fn search_many_matches_individual_searches_in_one_round() {
        let mut c = client(Scheme2Config::standard().with_chain_length(64));
        c.store(&docs()).unwrap();
        let kws = [
            Keyword::new("fever"),
            Keyword::new("absent"),
            Keyword::new("measles"),
        ];
        let individual: Vec<_> = kws.iter().map(|w| c.search(w).unwrap()).collect();
        let meter = c.meter();
        meter.reset();
        let batched = c.search_many(&kws).unwrap();
        assert_eq!(
            meter.snapshot().rounds,
            1,
            "batched search is 1 round total"
        );
        assert_eq!(batched, individual);
    }

    #[test]
    fn search_many_counts_as_search_for_opt2() {
        let mut c = client(
            Scheme2Config::standard()
                .with_chain_length(64)
                .with_ctr_policy(CtrPolicy::OnSearchOnly),
        );
        c.store(&docs()).unwrap();
        c.store(&[Document::new(9, vec![], ["fever"])]).unwrap();
        assert_eq!(c.state().ctr, 1, "no search yet: counter reused");
        c.search_many(&[Keyword::new("fever")]).unwrap();
        c.store(&[Document::new(10, vec![], ["fever"])]).unwrap();
        assert_eq!(c.state().ctr, 2, "batched search must trigger the advance");
    }

    #[test]
    fn remove_deletes_postings_and_blobs() {
        let mut c = client(Scheme2Config::standard().with_chain_length(64));
        let d = docs();
        c.store(&d).unwrap();
        assert_eq!(c.search(&Keyword::new("fever")).unwrap().len(), 2);

        // Remove doc 1 ("fever" only).
        c.remove(&d[1..2]).unwrap();
        let hits = c.search(&Keyword::new("fever")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        // Blob is gone from the store too.
        assert_eq!(c.server_mut().stored_docs(), 2);
        // Other keywords untouched.
        assert_eq!(c.search(&Keyword::new("measles")).unwrap().len(), 1);
    }

    #[test]
    fn remove_then_readd_cycles() {
        let mut c = client(Scheme2Config::standard().with_chain_length(256));
        let d = Document::new(5, b"cycled".to_vec(), ["kw"]);
        for round in 0..4 {
            c.store(std::slice::from_ref(&d)).unwrap();
            assert_eq!(
                c.search(&Keyword::new("kw")).unwrap().len(),
                1,
                "round {round}: present after add"
            );
            c.remove(std::slice::from_ref(&d)).unwrap();
            assert!(
                c.search(&Keyword::new("kw")).unwrap().is_empty(),
                "round {round}: gone after remove"
            );
        }
    }

    #[test]
    fn removal_works_with_cache_disabled_and_enabled() {
        for cache in [true, false] {
            let mut c = client(
                Scheme2Config::standard()
                    .with_chain_length(256)
                    .with_server_cache(cache),
            );
            c.store(&docs()).unwrap();
            // Prime the cache (when enabled) before the delete arrives.
            c.search(&Keyword::new("fever")).unwrap();
            c.remove(&docs()[..1]).unwrap();
            let ids: Vec<u64> = c
                .search(&Keyword::new("fever"))
                .unwrap()
                .iter()
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(ids, vec![1], "cache={cache}");
        }
    }

    #[test]
    fn remove_consumes_chain_budget_like_updates() {
        let mut c = client(Scheme2Config::base(2));
        let d = Document::new(0, vec![], ["kw"]);
        c.store(std::slice::from_ref(&d)).unwrap();
        c.remove(std::slice::from_ref(&d)).unwrap();
        assert!(matches!(
            c.store(&[Document::new(1, vec![], ["kw"])]),
            Err(SseError::ChainExhausted)
        ));
    }

    #[test]
    fn fake_updates_add_no_results() {
        let mut c = client(Scheme2Config::standard().with_chain_length(64));
        c.store(&docs()).unwrap();
        let before = c.search(&Keyword::new("fever")).unwrap();
        c.fake_update(&[Keyword::new("fever"), Keyword::new("measles")])
            .unwrap();
        assert_eq!(c.search(&Keyword::new("fever")).unwrap(), before);
    }

    #[test]
    fn store_batch_matches_store_results() {
        let mut a = client(Scheme2Config::standard().with_chain_length(64));
        let mut b = client(Scheme2Config::standard().with_chain_length(64));
        a.store(&docs()).unwrap();
        b.store_batch(&docs()).unwrap();
        assert_eq!(a.state(), b.state());
        for w in ["flu", "fever", "measles", "absent"] {
            assert_eq!(
                a.search(&Keyword::new(w)).unwrap(),
                b.search(&Keyword::new(w)).unwrap(),
                "keyword {w}"
            );
        }
    }

    #[test]
    fn fake_update_many_adds_no_results_and_uses_one_counter() {
        let mut c = client(Scheme2Config::base(64));
        c.store(&docs()).unwrap();
        let ctr_before = c.state().ctr;
        let before = c.search(&Keyword::new("fever")).unwrap();
        c.fake_update_many(&[
            vec![Keyword::new("fever")],
            vec![],
            vec![Keyword::new("measles"), Keyword::new("flu")],
        ])
        .unwrap();
        assert_eq!(
            c.state().ctr,
            ctr_before + 1,
            "all groups share one counter step"
        );
        assert_eq!(c.search(&Keyword::new("fever")).unwrap(), before);
    }

    #[test]
    fn chain_remaining_counts_down() {
        let mut c = client(Scheme2Config::base(10));
        assert_eq!(c.chain_remaining(), 10);
        c.store(&docs()).unwrap();
        assert_eq!(c.chain_remaining(), 9);
    }

    #[test]
    fn duplicate_doc_ids_across_generations_dedup_in_results() {
        let mut c = client(Scheme2Config::standard().with_chain_length(64));
        c.store(&[Document::new(0, b"v1".to_vec(), ["kw"])])
            .unwrap();
        c.search(&Keyword::new("kw")).unwrap();
        // Same doc id appears in a second generation (e.g. re-indexing).
        c.store(&[Document::new(0, b"v2".to_vec(), ["kw"])])
            .unwrap();
        let hits = c.search(&Keyword::new("kw")).unwrap();
        assert_eq!(hits.len(), 1, "dedup across generations");
        assert_eq!(hits[0].1, b"v2".to_vec(), "latest blob wins");
    }
}
