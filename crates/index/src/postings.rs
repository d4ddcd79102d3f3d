//! Masked posting-list *generations* for Scheme 2.
//!
//! After `j` updates, the searchable representation of a keyword is
//! `S(w) = (f_kw(w), E_{k1}(I_1), f'(k_1), ..., E_{kj}(I_j), f'(k_j))`
//! (§5.5): an append-only list of encrypted document-id batches, each
//! accompanied by a *commitment* `f'(k_i)` to the key that masks it. The
//! server appends blindly on update, and on search walks the hash chain
//! forward (from the trapdoor's key) matching commitments to unlock each
//! generation.
//!
//! Optimization 1 (§5.6) — the plaintext ids a search decrypted, so a
//! later search only decrypts generations added since — is housed in the
//! Scheme 2 server's per-shard sidecar, not here: this list is exactly
//! what the server persists, and a search never writes it.

/// One masked generation: an encrypted batch of document ids plus the
/// commitment to its masking key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generation {
    /// `E_{k_i}(I_i(w))` — opaque to the server until a search reveals `k_i`.
    pub masked_ids: Vec<u8>,
    /// `f'(k_i)` — lets the server recognize `k_i` while walking the chain.
    pub key_commitment: [u8; 32],
}

/// The generation list for one keyword, oldest generation first.
///
/// Its capacity tracks its length instead of `Vec`'s doubling: the index
/// holds one list per keyword, and each is copied on its own whenever an
/// append finds it shared with a published snapshot (the B+-tree's
/// `Arc::make_mut`). So a new list has room for one generation, a copy
/// for exactly one more than it holds — the one that append pushes — and
/// a push onto a full list (journal replay, or a second append before the
/// next publish) grows it by exactly one.
#[derive(Debug)]
pub struct GenerationList {
    generations: Vec<Generation>,
}

impl Default for GenerationList {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for GenerationList {
    fn clone(&self) -> Self {
        let mut generations = Vec::with_capacity(self.generations.len() + 1);
        generations.extend_from_slice(&self.generations);
        GenerationList { generations }
    }
}

impl GenerationList {
    /// An empty list, with room for one generation.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// An empty list with room for exactly `generations` generations (a
    /// list decoded from its stored form).
    #[must_use]
    pub fn with_capacity(generations: usize) -> Self {
        GenerationList {
            generations: Vec::with_capacity(generations),
        }
    }

    /// Append a generation (server side of `MetadataStorage`).
    pub fn push(&mut self, generation: Generation) {
        self.generations.reserve_exact(1);
        self.generations.push(generation);
    }

    /// Total number of generations ever appended.
    #[must_use]
    pub fn len(&self) -> usize {
        self.generations.len()
    }

    /// True iff no generation has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.generations.is_empty()
    }

    /// All generations in append order: `[..n]` is the prefix a search
    /// that saw `n` generations covered, `[n..]` what was added since.
    #[must_use]
    pub fn as_slice(&self) -> &[Generation] {
        &self.generations
    }

    /// Iterate all generations (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Generation> {
        self.generations.iter()
    }

    /// Byte footprint of the stored representation (for storage accounting).
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.generations
            .iter()
            .map(|g| g.masked_ids.len() + g.key_commitment.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generation(tag: u8, len: usize) -> Generation {
        Generation {
            masked_ids: vec![tag; len],
            key_commitment: [tag; 32],
        }
    }

    #[test]
    fn push_and_len() {
        let mut l = GenerationList::new();
        assert!(l.is_empty());
        l.push(generation(1, 10));
        l.push(generation(2, 20));
        assert_eq!(l.len(), 2);
        assert_eq!(l.as_slice()[1], generation(2, 20));
        assert_eq!(l.stored_bytes(), 10 + 32 + 20 + 32);
    }

    #[test]
    fn capacity_follows_length_through_copy_then_push() {
        let mut l = GenerationList::new();
        l.push(generation(0, 4));
        assert_eq!(l.generations.capacity(), 1);
        for i in 1..20u8 {
            // What an append after a publish does: copy, then push once.
            l = l.clone();
            l.push(generation(i, 4));
            assert_eq!(l.generations.capacity(), l.len());
            // A second append before the next publish.
            l.push(generation(i, 4));
            assert_eq!(l.generations.capacity(), l.len());
        }
    }

    #[test]
    fn iter_yields_in_append_order() {
        let mut l = GenerationList::new();
        for i in 0..5u8 {
            l.push(generation(i, 2));
        }
        let tags: Vec<u8> = l.iter().map(|g| g.masked_ids[0]).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }
}
