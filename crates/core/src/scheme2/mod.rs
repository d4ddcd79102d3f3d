//! Scheme 2 — the communication-efficient variant (§5.4–5.6).
//!
//! Instead of a fixed-width bit array, the posting set of a keyword is a
//! list of *generations*, one per update that touched the keyword:
//!
//! ```text
//! S(w) = ( f_kw(w),
//!          E_{k1(w)}(I_1(w)), f'(k_1(w)),
//!          ...,
//!          E_{kj(w)}(I_j(w)), f'(k_j(w)) )
//! ```
//!
//! Generation keys walk a Lamport hash chain *backwards*:
//! `k_j(w) = h^{l-ctr}(w ‖ k_w)` where `ctr` is a global update counter and
//! `l` the chain length. The client (knowing the seed) derives any key; the
//! server can only step *forward*, so a trapdoor
//! `T_w = (f_kw(w), h^{l-ctr}(w ‖ k_w))` unlocks every generation appended
//! so far — and, crucially, every *future* trapdoor unlocks them too, while
//! past trapdoors never unlock future generations.
//!
//! **Update** (Fig. 3): one message per batch — for each touched keyword,
//! `(f_kw(w), E_k(I_new), f'(k))`. The server appends blindly. One round,
//! bandwidth proportional to the batch, not the database.
//!
//! **Search** (Fig. 4): one message `(t_w, t'_w)`. The server finds the tag
//! in `O(log u)`, then walks `t'_w` forward matching key commitments to
//! unlock generations newest-to-oldest. The walk costs on average `l/2x`
//! hash steps when updates and searches interleave every `x` updates
//! (Table 1).
//!
//! **Optimization 1** (§5.6): the server caches plaintext ids after a
//! search, so repeat searches only decrypt generations added since.
//!
//! **Optimization 2** (§5.6): the client advances `ctr` only when a search
//! has happened since the last update, stretching chain lifetime from `l`
//! updates to `l` update/search alternations.

mod client;
pub mod protocol;
mod server;

pub use client::{InMemoryScheme2Client, Scheme2Client, Scheme2ClientState};
pub use server::{Scheme2Server, Scheme2ServerStats};

/// When the client advances the global update counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrPolicy {
    /// Advance on every update (the base scheme of §5.5).
    Always,
    /// Advance only if a search happened since the last update
    /// (Optimization 2, §5.6).
    OnSearchOnly,
}

/// Scheme 2 configuration shared by client and server.
#[derive(Clone, Debug)]
pub struct Scheme2Config {
    /// Hash-chain length `l`: the number of counter values available before
    /// the database must be re-initialized with a fresh epoch.
    pub chain_length: u64,
    /// Counter-advance policy (Optimization 2 toggle).
    pub ctr_policy: CtrPolicy,
    /// Server-side plaintext caching after searches (Optimization 1
    /// toggle).
    pub server_cache: bool,
}

impl Scheme2Config {
    /// Defaults used by the examples: both optimizations on, `l = 4096`.
    #[must_use]
    pub fn standard() -> Self {
        Scheme2Config {
            chain_length: 4096,
            ctr_policy: CtrPolicy::OnSearchOnly,
            server_cache: true,
        }
    }

    /// The base scheme exactly as §5.5 describes it (no optimizations).
    #[must_use]
    pub fn base(chain_length: u64) -> Self {
        Scheme2Config {
            chain_length,
            ctr_policy: CtrPolicy::Always,
            server_cache: false,
        }
    }

    /// Override the chain length.
    #[must_use]
    pub fn with_chain_length(mut self, l: u64) -> Self {
        self.chain_length = l;
        self
    }

    /// Toggle Optimization 1 (server cache).
    #[must_use]
    pub fn with_server_cache(mut self, on: bool) -> Self {
        self.server_cache = on;
        self
    }

    /// Toggle Optimization 2 (counter policy).
    #[must_use]
    pub fn with_ctr_policy(mut self, policy: CtrPolicy) -> Self {
        self.ctr_policy = policy;
        self
    }
}

/// The commitment PRF `f'`: publicly computable (the *server* evaluates it
/// while walking the chain), so it is an unkeyed domain-separated hash of
/// the chain element — `SHA-256("sse/scheme2-commit" ‖ k)`. The definition
/// lives beside the chain function so that the server's walk can evaluate
/// both on one element at once ([`sse_primitives::hashchain::ChainWalker`]).
#[must_use]
pub fn key_commitment(chain_key: &[u8; 32]) -> [u8; 32] {
    sse_primitives::hashchain::chain_commitment(chain_key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commitment_is_deterministic_and_injective_in_practice() {
        let a = key_commitment(&[1u8; 32]);
        let b = key_commitment(&[1u8; 32]);
        let c = key_commitment(&[2u8; 32]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn commitment_is_the_documented_hash() {
        let k = [7u8; 32];
        assert_eq!(
            key_commitment(&k),
            sse_primitives::sha256::sha256_concat(&[b"sse/scheme2-commit", &k])
        );
    }

    #[test]
    fn commitment_differs_from_chain_step() {
        // f'(k) must not collide with h(k), or the server's walk would
        // confuse commitments with chain elements.
        let k = [7u8; 32];
        assert_ne!(
            key_commitment(&k),
            sse_primitives::hashchain::chain_step(&k)
        );
    }

    #[test]
    fn config_builders() {
        let c = Scheme2Config::standard()
            .with_chain_length(64)
            .with_server_cache(false)
            .with_ctr_policy(CtrPolicy::Always);
        assert_eq!(c.chain_length, 64);
        assert!(!c.server_cache);
        assert_eq!(c.ctr_policy, CtrPolicy::Always);
        assert_eq!(Scheme2Config::base(10).ctr_policy, CtrPolicy::Always);
    }
}
