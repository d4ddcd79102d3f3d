//! Lamport hash chains (the paper's `h^l`, citing Lamport 1981).
//!
//! Scheme 2 keys its posting-list generations with
//! `k_j(w) = h^{l-ctr}(w || k_w)`: the *client* walks the chain backwards
//! (it knows the seed `w || k_w`), while the *server*, given some chain
//! element, can only walk *forwards* by re-applying `h`. This module
//! provides both walks plus the exhaustion bookkeeping of §5.6.

use crate::error::{CryptoError, Result};
use crate::sha256::{Kernel, Sha256, BLOCK_LEN};

/// A single chain element (32 bytes).
pub type ChainKey = [u8; 32];

/// The complete, padded SHA-256 input block of a `domain ‖ element`
/// message: `domain.len() + 32` bytes, which for both domains below fits one
/// block together with its padding. Built once (at compile time); per hash
/// only the 32 element bytes are rewritten.
#[derive(Clone, Copy)]
struct ElementBlock {
    block: [u8; BLOCK_LEN],
    /// Offset of the element, i.e. the domain's length.
    at: usize,
}

impl ElementBlock {
    const fn new(domain: &[u8]) -> Self {
        let msg_len = domain.len() + 32;
        // 0x80 and the 8-byte bit length must fit after the message.
        assert!(msg_len + 9 <= BLOCK_LEN);
        let mut block = [0u8; BLOCK_LEN];
        let mut i = 0;
        while i < domain.len() {
            block[i] = domain[i];
            i += 1;
        }
        block[msg_len] = 0x80;
        let bits = (msg_len as u64 * 8).to_be_bytes();
        let mut i = 0;
        while i < 8 {
            block[BLOCK_LEN - 8 + i] = bits[i];
            i += 1;
        }
        ElementBlock {
            block,
            at: domain.len(),
        }
    }

    /// The block for `element`.
    fn with(&mut self, element: &ChainKey) -> &[u8; BLOCK_LEN] {
        self.block[self.at..self.at + 32].copy_from_slice(element);
        &self.block
    }

    /// `SHA-256(domain ‖ element)`, one-shot: a single compression.
    fn digest(mut self, element: &ChainKey) -> [u8; 32] {
        Kernel::detect().digest_padded_block(self.with(element))
    }
}

/// `h`'s input: domain-separated from every other SHA-256 use in the
/// workspace.
const STEP_BLOCK: ElementBlock = ElementBlock::new(b"sse/chain-step");
/// `f'`'s input (Scheme 2's `key_commitment`). The domain lives here, next
/// to `h`'s, because the server's walk evaluates both on the same element
/// in one fused operation.
const COMMIT_BLOCK: ElementBlock = ElementBlock::new(b"sse/scheme2-commit");

/// One application of the chain function `h`.
#[must_use]
pub fn chain_step(element: &ChainKey) -> ChainKey {
    STEP_BLOCK.digest(element)
}

/// The commitment `f'(element)`: publicly computable (the *server*
/// evaluates it while walking the chain), so it is an unkeyed hash of the
/// element under its own domain — never equal to [`chain_step`] of it.
#[must_use]
pub fn chain_commitment(element: &ChainKey) -> [u8; 32] {
    COMMIT_BLOCK.digest(element)
}

/// Derive the chain's base element `h^0` from arbitrary seed material
/// (the paper's `w || k_w`).
#[must_use]
pub fn chain_seed(material: &[&[u8]]) -> ChainKey {
    // Stream the domain-separation prefix and each material part straight
    // into the hasher: same bytes as hashing the concatenation, but no
    // intermediate `Vec<&[u8]>` per call.
    let mut h = Sha256::new();
    h.update(b"sse/chain-seed");
    for part in material {
        h.update(part);
    }
    h.finalize()
}

/// Walk `steps` applications of `h` forward from `start`.
#[must_use]
pub fn walk_forward(start: &ChainKey, steps: usize) -> ChainKey {
    let mut walker = ChainWalker::new(start);
    walker.advance(steps);
    *walker.element()
}

/// A forward walk along the chain: the one place a run of `h` (and `f'`)
/// evaluations is carried out.
///
/// The walker keeps the two padded input blocks `"sse/chain-step" ‖ e` and
/// `"sse/scheme2-commit" ‖ e`, rewrites only the 32 element bytes per step,
/// and picks the SHA-256 kernel once for the whole walk. When the caller
/// needs commitments ([`ChainWalker::seek_commitment`]) each step is one
/// fused two-lane compression yielding `(h(e), f'(e))` together — on SHA-NI
/// hardware the second lane costs about half a hash. Element for element and
/// commitment for commitment it produces what [`chain_step`] and
/// [`chain_commitment`] produce.
pub struct ChainWalker {
    kernel: Kernel,
    step_block: ElementBlock,
    commit_block: ElementBlock,
    element: ChainKey,
    /// `(h(element), f'(element))` once a fused evaluation has produced
    /// them for the current element — so asking for a second commitment
    /// match on the same element (consecutive generations under one key)
    /// hashes nothing.
    ahead: Option<(ChainKey, [u8; 32])>,
    steps: usize,
}

impl ChainWalker {
    /// Start a walk at `start` (zero steps taken).
    #[must_use]
    pub fn new(start: &ChainKey) -> Self {
        Self::with_kernel(start, Kernel::detect())
    }

    pub(crate) fn with_kernel(start: &ChainKey, kernel: Kernel) -> Self {
        ChainWalker {
            kernel,
            step_block: STEP_BLOCK,
            commit_block: COMMIT_BLOCK,
            element: *start,
            ahead: None,
            steps: 0,
        }
    }

    /// The element the walk currently stands on.
    #[must_use]
    pub fn element(&self) -> &ChainKey {
        &self.element
    }

    /// Applications of `h` since [`ChainWalker::new`].
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Take `n` steps forward.
    pub fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// One step forward, reusing `h(element)` if a fused evaluation already
    /// produced it.
    fn step(&mut self) {
        self.element = match self.ahead.take() {
            Some((next, _)) => next,
            None => self
                .kernel
                .digest_padded_block(self.step_block.with(&self.element)),
        };
        self.steps += 1;
    }

    /// `(h(element), f'(element))` for the current element.
    fn fused(&mut self) -> (ChainKey, [u8; 32]) {
        if let Some(pair) = self.ahead {
            return pair;
        }
        let [next, commitment] = self.kernel.digest_padded_block2([
            self.step_block.with(&self.element),
            self.commit_block.with(&self.element),
        ]);
        self.ahead = Some((next, commitment));
        (next, commitment)
    }

    /// Step forward until `f'(element) == commitment` — zero steps if the
    /// current element already matches. Returns `false`, standing on the
    /// last element tried, once the walk's total reaches `max_steps`
    /// without a match: the walk never takes step `max_steps + 1`.
    pub fn seek_commitment(&mut self, commitment: &[u8; 32], max_steps: usize) -> bool {
        loop {
            if self.fused().1 == *commitment {
                return true;
            }
            if self.steps >= max_steps {
                return false;
            }
            self.step();
        }
    }

    /// Step forward until `element == target` — zero steps if it already
    /// is. Same bound as [`ChainWalker::seek_commitment`]; no commitments
    /// are computed.
    pub fn seek_element(&mut self, target: &ChainKey, max_steps: usize) -> bool {
        while self.element != *target {
            if self.steps >= max_steps {
                return false;
            }
            self.step();
        }
        true
    }
}

/// A hash chain of fixed length `l`, owned by the party that knows the seed
/// (the client). Element `i` is `h^i(seed)` for `i in 0..=l`.
///
/// The client hands out elements with *decreasing* index over time
/// (`l - ctr`), so anyone holding an older (higher-index) element can verify
/// forward but cannot derive the newer (lower-index) ones.
///
/// Deriving element `l - ctr` from the seed alone costs `l - ctr` hash
/// applications; [`HashChain::with_checkpoints`] trades `O(√l)` memory for
/// `O(√l)` derivation (the classic pebbling compromise — Lamport chains in
/// deployed one-time-password systems do the same).
#[derive(Clone)]
pub struct HashChain {
    seed: ChainKey,
    length: usize,
    /// Element at index `i * interval` for each `i` (empty = no pebbling).
    checkpoints: Vec<ChainKey>,
    interval: usize,
}

impl HashChain {
    /// Build a chain of `length` steps from seed material (no pebbling:
    /// O(1) memory, O(l - ctr) per derivation).
    #[must_use]
    pub fn new(material: &[&[u8]], length: usize) -> Self {
        HashChain {
            seed: chain_seed(material),
            length,
            checkpoints: Vec::new(),
            interval: 0,
        }
    }

    /// Build a chain with `√l`-spaced checkpoints: one O(l) precomputation,
    /// then O(√l) per derivation. This is what the Scheme 2 client uses for
    /// its per-keyword chain cache.
    #[must_use]
    pub fn with_checkpoints(material: &[&[u8]], length: usize) -> Self {
        let seed = chain_seed(material);
        let interval = ((length as f64).sqrt().ceil() as usize).max(1);
        let mut checkpoints = Vec::with_capacity(length / interval + 1);
        let mut walker = ChainWalker::new(&seed);
        checkpoints.push(seed);
        while walker.steps() + interval <= length {
            walker.advance(interval);
            checkpoints.push(*walker.element());
        }
        HashChain {
            seed,
            length,
            checkpoints,
            interval,
        }
    }

    /// Chain length `l`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Element at absolute index `idx` (`h^idx(seed)`).
    fn element_at(&self, idx: usize) -> ChainKey {
        debug_assert!(idx <= self.length);
        if self.checkpoints.is_empty() {
            return walk_forward(&self.seed, idx);
        }
        let cp = idx / self.interval;
        walk_forward(&self.checkpoints[cp], idx - cp * self.interval)
    }

    /// Element `h^{l - ctr}(seed)` — the key for counter value `ctr`
    /// (the paper's `k_j(w) = h^{l-ctr}(w || k_w)`).
    ///
    /// # Errors
    /// [`CryptoError::ChainExhausted`] once `ctr > l`: the chain cannot
    /// supply further keys and must be re-seeded (paper §5.6, Opt. 2
    /// discussion).
    pub fn key_for_counter(&self, ctr: u64) -> Result<ChainKey> {
        let ctr = usize::try_from(ctr).map_err(|_| CryptoError::ChainExhausted)?;
        if ctr > self.length {
            return Err(CryptoError::ChainExhausted);
        }
        Ok(self.element_at(self.length - ctr))
    }

    /// Remaining number of usable counter values after `ctr`.
    #[must_use]
    pub fn remaining(&self, ctr: u64) -> u64 {
        (self.length as u64).saturating_sub(ctr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_deterministic() {
        let c1 = HashChain::new(&[b"word", b"key"], 16);
        let c2 = HashChain::new(&[b"word", b"key"], 16);
        assert_eq!(
            c1.key_for_counter(3).unwrap(),
            c2.key_for_counter(3).unwrap()
        );
    }

    #[test]
    fn seed_material_is_unambiguous_enough() {
        // Different material gives different chains.
        let a = HashChain::new(&[b"w1", b"k"], 8);
        let b = HashChain::new(&[b"w2", b"k"], 8);
        assert_ne!(a.key_for_counter(0).unwrap(), b.key_for_counter(0).unwrap());
    }

    #[test]
    fn forward_step_links_consecutive_counters() {
        // key(ctr) steps forward to key(ctr - 1): the server can go from a
        // newer key to all older ones.
        let c = HashChain::new(&[b"w", b"k"], 32);
        for ctr in 1..=32u64 {
            let newer = c.key_for_counter(ctr).unwrap();
            let older = c.key_for_counter(ctr - 1).unwrap();
            assert_eq!(chain_step(&newer), older, "ctr {ctr}");
        }
    }

    #[test]
    fn exhaustion_is_detected() {
        let c = HashChain::new(&[b"w", b"k"], 4);
        assert!(c.key_for_counter(4).is_ok());
        assert_eq!(c.key_for_counter(5), Err(CryptoError::ChainExhausted));
        assert_eq!(c.remaining(1), 3);
        assert_eq!(c.remaining(9), 0);
    }

    /// The definitions the walker must reproduce, through the generic
    /// streaming hasher on the portable kernel.
    fn reference_step(e: &ChainKey) -> ChainKey {
        let mut h = Sha256::with_kernel(Kernel::Portable);
        h.update(b"sse/chain-step");
        h.update(e);
        h.finalize()
    }

    fn reference_commitment(e: &ChainKey) -> [u8; 32] {
        let mut h = Sha256::with_kernel(Kernel::Portable);
        h.update(b"sse/scheme2-commit");
        h.update(e);
        h.finalize()
    }

    #[test]
    fn one_block_step_and_commitment_match_the_streaming_definition() {
        let mut e = [0x5au8; 32];
        for _ in 0..50 {
            assert_eq!(chain_step(&e), reference_step(&e));
            assert_eq!(chain_commitment(&e), reference_commitment(&e));
            assert_ne!(chain_step(&e), chain_commitment(&e));
            e = reference_step(&e);
        }
    }

    #[test]
    fn walker_matches_step_and_commitment_at_every_step() {
        let start = chain_seed(&[b"w", b"k"]);
        for kernel in Kernel::all() {
            // Commitment seeks (fused steps): target each element in turn.
            let mut walker = ChainWalker::with_kernel(&start, kernel);
            let mut e = start;
            for i in 0..200usize {
                assert!(walker.seek_commitment(&reference_commitment(&e), 1_000));
                assert_eq!(walker.steps(), i, "{kernel:?}");
                assert_eq!(walker.element(), &e, "{kernel:?}, step {i}");
                e = reference_step(&e);
            }
            // Plain advance and element seeks (one-lane steps).
            let mut plain = ChainWalker::with_kernel(&start, kernel);
            plain.advance(199);
            assert_eq!(plain.element(), walker.element());
            let mut seeker = ChainWalker::with_kernel(&start, kernel);
            assert!(seeker.seek_element(walker.element(), 199));
            assert_eq!(seeker.steps(), 199);
        }
    }

    #[test]
    fn a_second_seek_on_the_matched_element_takes_no_step() {
        // Consecutive generations sealed under one key (Optimization 2).
        let c = HashChain::new(&[b"w", b"k"], 64);
        let mut walker = ChainWalker::new(&c.key_for_counter(40).unwrap());
        let target = chain_commitment(&c.key_for_counter(25).unwrap());
        assert!(walker.seek_commitment(&target, 64));
        assert!(walker.seek_commitment(&target, 64));
        assert_eq!(walker.steps(), 15);
        // ...and the walk continues from there.
        assert!(walker.seek_commitment(&chain_commitment(&c.key_for_counter(20).unwrap()), 64));
        assert_eq!(walker.steps(), 20);
    }

    #[test]
    fn seeks_stop_exactly_at_the_bound() {
        let c = HashChain::new(&[b"w", b"k"], 64);
        let newest = c.key_for_counter(40).unwrap();
        let older = c.key_for_counter(30).unwrap();
        for kernel in Kernel::all() {
            // Ten steps away: a bound of ten reaches it, nine does not.
            let mut w = ChainWalker::with_kernel(&newest, kernel);
            assert!(w.seek_commitment(&chain_commitment(&older), 10));
            assert_eq!((w.steps(), w.element()), (10, &older));
            let mut w = ChainWalker::with_kernel(&newest, kernel);
            assert!(!w.seek_commitment(&chain_commitment(&older), 9));
            assert_eq!(w.steps(), 9, "never takes step max_steps + 1");
            let mut w = ChainWalker::with_kernel(&newest, kernel);
            assert!(w.seek_element(&older, 10));
            let mut w = ChainWalker::with_kernel(&newest, kernel);
            assert!(!w.seek_element(&older, 9));
            assert_eq!(w.steps(), 9);
            // The bound is on the walk's total, across seeks.
            let mut w = ChainWalker::with_kernel(&newest, kernel);
            assert!(w.seek_element(&c.key_for_counter(35).unwrap(), 9));
            assert!(!w.seek_element(&older, 9));
        }
    }

    #[test]
    fn backward_is_infeasible_by_construction() {
        // Sanity statement of the one-wayness *interface*: stepping forward
        // from key(ctr) never reproduces key(ctr + 1).
        let c = HashChain::new(&[b"w", b"k"], 16);
        let newer = c.key_for_counter(10).unwrap();
        let older = c.key_for_counter(9).unwrap();
        assert!(!ChainWalker::new(&older).seek_element(&newer, 64));
    }

    #[test]
    fn checkpointed_chain_matches_plain_chain() {
        for l in [1usize, 2, 7, 16, 100, 1000] {
            let plain = HashChain::new(&[b"w", b"k"], l);
            let pebbled = HashChain::with_checkpoints(&[b"w", b"k"], l);
            for ctr in [0u64, 1, (l / 2) as u64, l as u64] {
                assert_eq!(
                    plain.key_for_counter(ctr).unwrap(),
                    pebbled.key_for_counter(ctr).unwrap(),
                    "l={l}, ctr={ctr}"
                );
            }
            assert_eq!(
                pebbled.key_for_counter(l as u64 + 1),
                Err(CryptoError::ChainExhausted)
            );
        }
    }

    #[test]
    fn checkpoint_memory_is_sublinear() {
        let l = 10_000usize;
        let pebbled = HashChain::with_checkpoints(&[b"w", b"k"], l);
        // interval = ceil(sqrt(10000)) = 100 -> ~101 checkpoints.
        assert!(
            pebbled.checkpoints.len() <= 110,
            "{}",
            pebbled.checkpoints.len()
        );
    }

    #[test]
    fn zero_counter_is_chain_tip() {
        let c = HashChain::new(&[b"w", b"k"], 8);
        assert_eq!(
            c.key_for_counter(0).unwrap(),
            walk_forward(&chain_seed(&[b"w", b"k"]), 8)
        );
    }
}
