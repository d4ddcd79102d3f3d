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

/// Bytes of the generation count at the head of a list's block.
const COUNT: usize = 4;
/// Bytes of the length prefix ahead of each generation's `masked_ids`.
const LEN: usize = 4;
/// Bytes of a key commitment.
const COMMITMENT: usize = 32;

/// One masked generation, borrowed from its list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerationRef<'a> {
    /// `E_{k_i}(I_i(w))` — opaque to the server until a search reveals `k_i`.
    pub masked_ids: &'a [u8],
    /// `f'(k_i)` — lets the server recognize `k_i` while walking the chain.
    pub key_commitment: &'a [u8; 32],
}

/// The generation list for one keyword, oldest generation first, stored
/// as `S(w)` is written: one contiguous block per keyword,
/// `count ‖ (len ‖ masked_ids ‖ key_commitment)*`, the count and each
/// length a little-endian `u32`. An empty list holds no block at all.
///
/// The index holds one list per keyword, and each is copied on its own
/// whenever an append finds it shared with a published snapshot (the
/// B+-tree's `Arc::make_mut`). So a copy is one allocation and one
/// `memcpy`, with room for exactly one more generation the size of the
/// newest — the one that append pushes. Rounding that room up (to 512 B)
/// pays only while a checkpoint builds its image in one large buffer that
/// fragments the heap; checkpoints stream, and exact copies hold less
/// (EXPERIMENTS.md E25). A push that does not fit (a first push, journal
/// replay, a second append before the next publish) grows the block by
/// exactly its generation. The struct itself is one `Vec`: a keyword
/// costs no more than its bytes.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct GenerationList {
    block: Vec<u8>,
}

impl Clone for GenerationList {
    fn clone(&self) -> Self {
        let spare = self
            .last()
            .map_or(0, |g| LEN + g.masked_ids.len() + COMMITMENT);
        let mut block = Vec::with_capacity(self.block.len() + spare);
        block.extend_from_slice(&self.block);
        GenerationList { block }
    }
}

impl GenerationList {
    /// An empty list; the first push allocates its block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty list whose block has room for exactly `generations`
    /// generations holding `masked_bytes` of `masked_ids` together (a list
    /// decoded from its stored form).
    #[must_use]
    pub fn with_capacity(generations: usize, masked_bytes: usize) -> Self {
        GenerationList {
            block: Vec::with_capacity(COUNT + generations * (LEN + COMMITMENT) + masked_bytes),
        }
    }

    /// Append a generation (server side of `MetadataStorage`), copying
    /// `masked_ids` into the block.
    ///
    /// # Panics
    /// Panics if `masked_ids` is 4 GiB or more, or the list already holds
    /// `u32::MAX` generations (the wire caps a field at 64 MiB).
    pub fn push(&mut self, masked_ids: &[u8], key_commitment: &[u8; 32]) {
        let len = u32::try_from(masked_ids.len()).expect("masked_ids under 4 GiB");
        let count = u32::try_from(self.len() + 1).expect("under 2^32 generations");
        let head = if self.block.is_empty() { COUNT } else { 0 };
        self.block
            .reserve_exact(head + LEN + masked_ids.len() + COMMITMENT);
        if head > 0 {
            self.block.extend_from_slice(&[0; COUNT]);
        }
        self.block[..COUNT].copy_from_slice(&count.to_le_bytes());
        self.block.extend_from_slice(&len.to_le_bytes());
        self.block.extend_from_slice(masked_ids);
        self.block.extend_from_slice(key_commitment);
    }

    /// Total number of generations ever appended.
    #[must_use]
    pub fn len(&self) -> usize {
        self.block
            .first_chunk::<COUNT>()
            .map_or(0, |count| u32::from_le_bytes(*count) as usize)
    }

    /// True iff no generation has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Generation `i` in append order: `..n` is the prefix a search that
    /// saw `n` generations covered, `n..` what was added since.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<GenerationRef<'_>> {
        self.iter().nth(i)
    }

    /// The newest generation.
    #[must_use]
    pub fn last(&self) -> Option<GenerationRef<'_>> {
        self.iter().last()
    }

    /// Iterate all generations in append order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rest: self.block.get(COUNT..).unwrap_or_default(),
            left: self.len(),
        }
    }

    /// Byte footprint of the stored representation (for storage accounting):
    /// every generation's `masked_ids` and commitment.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        self.block.len().saturating_sub(COUNT + LEN * self.len())
    }
}

/// The generations of a [`GenerationList`], oldest first.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = GenerationRef<'a>;

    fn next(&mut self) -> Option<GenerationRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        let (len, rest) = self.rest.split_first_chunk::<LEN>()?;
        let (masked_ids, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
        let (key_commitment, rest) = rest.split_first_chunk::<COMMITMENT>()?;
        self.rest = rest;
        Some(GenerationRef {
            masked_ids,
            key_commitment,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The list as plain owned generations: what every view must agree with.
    type Model = Vec<(Vec<u8>, [u8; 32])>;

    fn check_against(list: &GenerationList, model: &Model) {
        assert_eq!(list.len(), model.len());
        assert_eq!(list.is_empty(), model.is_empty());
        fn view((masked_ids, key_commitment): &(Vec<u8>, [u8; 32])) -> GenerationRef<'_> {
            GenerationRef {
                masked_ids,
                key_commitment,
            }
        }
        let want: Vec<GenerationRef<'_>> = model.iter().map(view).collect();
        assert_eq!(list.iter().collect::<Vec<_>>(), want);
        assert_eq!(list.iter().len(), model.len());
        for i in 0..=model.len() {
            assert_eq!(list.get(i), model.get(i).map(view), "get({i})");
        }
        assert_eq!(list.last(), model.last().map(view));
        let stored: usize = model.iter().map(|(m, _)| m.len() + 32).sum();
        assert_eq!(list.stored_bytes(), stored);
    }

    #[test]
    fn push_and_len() {
        let mut l = GenerationList::new();
        assert!(l.is_empty());
        l.push(&[1; 10], &[1; 32]);
        l.push(&[2; 20], &[2; 32]);
        assert_eq!(l.len(), 2);
        let second = l.get(1).unwrap();
        assert_eq!(
            (second.masked_ids, second.key_commitment),
            (&[2; 20][..], &[2; 32])
        );
        assert_eq!(l.stored_bytes(), 10 + 32 + 20 + 32);
    }

    #[test]
    fn a_copy_then_a_push_allocates_once() {
        let mut l = GenerationList::new();
        assert_eq!(l.block.capacity(), 0, "an empty list holds no block");
        l.push(&[0; 40], &[0; 32]);
        assert_eq!(l.block.capacity(), l.block.len());
        for i in 1..40u8 {
            // What an append after a publish does: copy, then push once —
            // into the copy's spare room, so the copy is the one
            // allocation.
            l = l.clone();
            let copied = l.block.as_ptr();
            l.push(&[i; 40], &[i; 32]);
            assert_eq!(l.block.as_ptr(), copied, "the push fit the copy");
            assert_eq!(l.block.capacity(), l.block.len(), "the copy is exact");
            // A second append before the next publish grows the block by
            // exactly one generation.
            l.push(&[i; 40], &[i; 32]);
            assert_eq!(l.block.capacity(), l.block.len());
        }
        assert_eq!(l.len(), 79);
    }

    #[test]
    fn with_capacity_is_exact() {
        let mut l = GenerationList::with_capacity(3, 10 + 70_000);
        let cap = l.block.capacity();
        for masked in [&[1u8; 10][..], &[], &[3; 70_000]] {
            l.push(masked, &[7; 32]);
        }
        assert_eq!(l.block.capacity(), cap, "no push grew the block");
        assert_eq!(l.block.len(), cap);
    }

    #[test]
    fn iter_yields_in_append_order() {
        let mut l = GenerationList::new();
        for i in 0..5u8 {
            l.push(&[i; 2], &[i; 32]);
        }
        let tags: Vec<u8> = l.iter().map(|g| g.masked_ids[0]).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pushes and copies, interleaved, against the owned model: every
        /// view agrees after each step, and a copy is independent of the
        /// list it was taken from. Lengths reach past 64 KiB (a `u16`
        /// would wrap) and down to an empty `masked_ids`.
        #[test]
        fn behaves_like_a_vec_of_generations(ops in prop::collection::vec(
            (0u8..8, 0usize..96, any::<u8>()), 1..40)) {
            let mut list = GenerationList::new();
            let mut model: Model = Vec::new();
            check_against(&list, &model);
            for (op, len, tag) in ops {
                match op {
                    0 => {
                        let (copy, kept) = (list.clone(), model.clone());
                        prop_assert_eq!(&copy, &list);
                        list.push(&[tag; 3], &[tag; 32]);
                        model.push((vec![tag; 3], [tag; 32]));
                        check_against(&copy, &kept);
                        list = copy;
                        model = kept;
                    }
                    1 => {
                        let big = 65_536 + len * 97;
                        list.push(&vec![tag; big], &[!tag; 32]);
                        model.push((vec![tag; big], [!tag; 32]));
                    }
                    2 => {
                        list.push(&[], &[tag; 32]);
                        model.push((Vec::new(), [tag; 32]));
                    }
                    _ => {
                        list = list.clone();
                        list.push(&vec![tag; len], &[tag; 32]);
                        model.push((vec![tag; len], [tag; 32]));
                    }
                }
                check_against(&list, &model);
            }
        }
    }
}
