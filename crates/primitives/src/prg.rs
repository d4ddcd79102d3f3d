//! The paper's pseudo-random generator `G : {0,1}^256 → {0,1}^*`.
//!
//! Scheme 1 masks the posting bit-array as `I(w) XOR G(r)` where the nonce
//! `r` is recoverable only by the client (via the trapdoor permutation `F`).
//! [`Prg`] wraps the ChaCha20 keystream with the exact interface the scheme
//! needs: deterministic expansion of a 32-byte seed to an arbitrary-length
//! mask, plus an XOR-mask convenience.

use crate::chacha20::{prg_expand, prg_stream};

/// A 32-byte PRG seed — the nonce `r` of Scheme 1.
pub type Seed = [u8; 32];

/// Deterministic pseudo-random generator (the paper's `G`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Prg;

impl Prg {
    /// Expand `seed` into `len` pseudo-random bytes: `G(r)`.
    #[must_use]
    pub fn expand(seed: &Seed, len: usize) -> Vec<u8> {
        prg_expand(seed, len)
    }

    /// Compute `data XOR G(seed)`, the masking operation of Scheme 1.
    ///
    /// Masking and unmasking are the same operation; applying twice with the
    /// same seed restores the input.
    #[must_use]
    pub fn mask(seed: &Seed, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        Self::mask_in_place(seed, &mut out);
        out
    }

    /// In-place variant of [`Prg::mask`].
    pub fn mask_in_place(seed: &Seed, data: &mut [u8]) {
        prg_stream(seed).apply(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_is_involutive() {
        let seed = [0x5au8; 32];
        let data: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        let masked = Prg::mask(&seed, &data);
        assert_ne!(masked, data);
        assert_eq!(Prg::mask(&seed, &masked), data);
    }

    #[test]
    fn different_seeds_produce_different_masks() {
        let d = vec![0u8; 64];
        assert_ne!(Prg::mask(&[1u8; 32], &d), Prg::mask(&[2u8; 32], &d));
    }

    #[test]
    fn expansion_is_length_exact() {
        for len in [0usize, 1, 63, 64, 65, 4096] {
            assert_eq!(Prg::expand(&[7u8; 32], len).len(), len);
        }
    }

    #[test]
    fn in_place_matches_copying() {
        let seed = [9u8; 32];
        let data = b"some plaintext bits".to_vec();
        let copied = Prg::mask(&seed, &data);
        let mut inplace = data.clone();
        Prg::mask_in_place(&seed, &mut inplace);
        assert_eq!(copied, inplace);
    }

    #[test]
    fn xor_homomorphism_enables_scheme1_update() {
        // The Scheme-1 update relies on:
        //   (I ^ G(r)) ^ (U ^ G(r) ^ G(r')) == (I ^ U) ^ G(r')
        let r = [1u8; 32];
        let r2 = [2u8; 32];
        let i_w = vec![0b1010_0001u8; 32];
        let u_w = vec![0b0100_0010u8; 32];
        let stored = Prg::mask(&r, &i_w);
        let update_msg = {
            let tmp = Prg::mask(&r, &u_w);
            Prg::mask(&r2, &tmp)
        };
        let server_result = crate::ct::xor(&stored, &update_msg);
        let expected = Prg::mask(&r2, &crate::ct::xor(&i_w, &u_w));
        assert_eq!(server_result, expected);
    }
}
