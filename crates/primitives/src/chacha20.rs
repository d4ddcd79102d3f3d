//! ChaCha20 stream cipher (RFC 8439), used as the pseudo-random generator
//! `G` of Scheme 1.
//!
//! The paper masks the posting bit-array as `I(w) XOR G(r)` where `r` is a
//! per-keyword nonce; here `G(r)` is a ChaCha20 keystream whose key is
//! derived from the 32-byte nonce and whose length matches `|I(w)|`.

const CONSTANTS: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// ChaCha20 block function state.
#[derive(Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

impl ChaCha20 {
    /// Create a cipher instance from a 32-byte key, 12-byte nonce and an
    /// initial 32-bit block counter (RFC 8439 layout).
    #[must_use]
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[4 * i],
                nonce[4 * i + 1],
                nonce[4 * i + 2],
                nonce[4 * i + 3],
            ]);
        }
        ChaCha20 { state }
    }

    #[inline]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] ^= s[a];
        s[d] = s[d].rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] ^= s[c];
        s[b] = s[b].rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] ^= s[a];
        s[d] = s[d].rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] ^= s[c];
        s[b] = s[b].rotate_left(7);
    }

    /// Produce the 64-byte keystream block for the current counter, then
    /// advance the counter.
    pub fn next_block(&mut self) -> [u8; 64] {
        let mut working = self.state;
        for _ in 0..10 {
            // column rounds
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            // diagonal rounds
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(self.state[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        out
    }

    /// Fill `out` with keystream bytes.
    pub fn keystream(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(64) {
            let block = self.next_block();
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
    }

    /// XOR the keystream into `data` in place (encrypt/decrypt).
    pub fn apply(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let block = self.next_block();
            for (d, k) in chunk.iter_mut().zip(block.iter()) {
                *d ^= k;
            }
        }
    }
}

/// The paper's PRG `G`: expand a 32-byte seed into `len` pseudo-random bytes.
///
/// Deterministic: the same seed always yields the same stream, which is what
/// lets the client re-derive `G(r)` during updates after recovering `r` from
/// `F(r)`.
#[must_use]
pub fn prg_expand(seed: &[u8; 32], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    prg_stream(seed).keystream(&mut out);
    out
}

/// The keystream `G(seed)` at its start, for callers that XOR it into data
/// in place ([`ChaCha20::apply`]) instead of materialising it.
pub(crate) fn prg_stream(seed: &[u8; 32]) -> ChaCha20 {
    // Fixed nonce: each seed is used for exactly one logical stream.
    ChaCha20::new(seed, &[0u8; 12], 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let block = c.next_block();
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let mut c = ChaCha20::new(&key, &nonce, 1);
        c.apply(&mut data);
        assert_eq!(
            hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn apply_is_an_involution() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        ChaCha20::new(&key, &nonce, 0).apply(&mut data);
        assert_ne!(data, orig);
        ChaCha20::new(&key, &nonce, 0).apply(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn prg_is_deterministic_and_seed_sensitive() {
        let s1 = [1u8; 32];
        let s2 = [2u8; 32];
        assert_eq!(prg_expand(&s1, 128), prg_expand(&s1, 128));
        assert_ne!(prg_expand(&s1, 128), prg_expand(&s2, 128));
        // Prefix property: a longer expansion starts with the shorter one.
        let long = prg_expand(&s1, 256);
        assert_eq!(&long[..128], &prg_expand(&s1, 128)[..]);
    }

    #[test]
    fn prg_output_looks_balanced() {
        // Crude sanity check: ones-density of a long stream is near 50%.
        let stream = prg_expand(&[9u8; 32], 1 << 16);
        let ones: u32 = stream.iter().map(|b| b.count_ones()).sum();
        let total = (stream.len() * 8) as f64;
        let density = f64::from(ones) / total;
        assert!((0.49..=0.51).contains(&density), "density {density}");
    }

    #[test]
    fn keystream_chunking_is_consistent() {
        let key = [5u8; 32];
        let nonce = [1u8; 12];
        let mut a = vec![0u8; 200];
        ChaCha20::new(&key, &nonce, 0).keystream(&mut a);
        // Same stream read as one 200-byte request must match 64-byte blocks.
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let mut b = Vec::new();
        while b.len() < 200 {
            b.extend_from_slice(&c.next_block());
        }
        assert_eq!(&a[..], &b[..200]);
    }
}
