//! Authenticated encryption: AES-128-CTR + HMAC-SHA-256, encrypt-then-MAC.
//!
//! This is the concrete `E_km` used to protect data items `M_i` before they
//! are shipped to the honest-but-curious server, and the `E_k` used to mask
//! posting-list generations in Scheme 2. The paper only requires IND-CPA
//! ("pseudo-random permutation") security from `E`; we add integrity because
//! any real deployment of the scheme would, and it costs nothing in the
//! reproduced measurements.
//!
//! Wire format: `IV (12 bytes) || ciphertext || tag (32 bytes)`.
//!
//! An [`EtmKey`] does its keying once, in [`EtmKey::new`]: subkey
//! derivation, the AES key schedule and the HMAC's two pad compressions.
//! Sealing or opening a message clones that state and pays only for the
//! message's own bytes, which is most of the saving for the Scheme 1
//! client's many ~100-byte records under one key. Opening verifies the tag
//! in constant time before it decrypts anything, and decrypts in place in
//! the one `Vec` it returns.

use crate::aes::Aes128;
use crate::ctr::{AesCtr, Kernel, IV_LEN};
use crate::error::{CryptoError, Result};
use crate::hmac::HmacSha256;
use crate::kdf::derive_subkeys;

/// Tag length in bytes.
pub const TAG_LEN: usize = 32;
/// Minimum valid ciphertext length (empty plaintext).
pub const MIN_CT_LEN: usize = IV_LEN + TAG_LEN;

/// An authenticated-encryption key: a 32-byte master secret from which the
/// CTR key and MAC key are derived by domain separation, held as the
/// expanded AES key and the keyed HMAC.
#[derive(Clone)]
pub struct EtmKey {
    aes: Aes128,
    mac: HmacSha256,
}

impl EtmKey {
    /// Derive the encryption and MAC subkeys from a 32-byte master key and
    /// key both primitives.
    #[must_use]
    pub fn new(master: &[u8; 32]) -> Self {
        let (enc, mac) = derive_subkeys(master);
        EtmKey {
            aes: Aes128::new(&enc),
            mac: HmacSha256::new(&mac),
        }
    }

    /// The CTR cipher for one message under `iv`.
    fn ctr(&self, iv: &[u8; IV_LEN]) -> AesCtr {
        AesCtr::with_cipher(self.aes.clone(), iv, Kernel::detect())
    }

    /// Encrypt `plaintext` with a caller-supplied IV (must be unique per
    /// message under this key). Prefer [`EtmKey::seal`] which draws the IV
    /// from OS entropy.
    #[must_use]
    pub fn seal_with_iv(&self, iv: &[u8; IV_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ciphertext_len(plaintext.len()));
        out.extend_from_slice(iv);
        out.extend_from_slice(plaintext);
        self.ctr(iv).apply(&mut out[IV_LEN..]);
        let mut mac = self.mac.clone();
        mac.update(&out);
        out.extend_from_slice(&mac.finalize());
        out
    }

    /// Encrypt `plaintext` under a fresh random IV.
    #[must_use]
    pub fn seal(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut iv = [0u8; IV_LEN];
        crate::os_random(&mut iv);
        self.seal_with_iv(&iv, plaintext)
    }

    /// Verify and decrypt a ciphertext produced by [`EtmKey::seal`].
    ///
    /// # Errors
    /// [`CryptoError::CiphertextTooShort`] if framing is impossible, and
    /// [`CryptoError::TagMismatch`] if authentication fails.
    pub fn open(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        if ciphertext.len() < MIN_CT_LEN {
            return Err(CryptoError::CiphertextTooShort {
                min: MIN_CT_LEN,
                got: ciphertext.len(),
            });
        }
        let (iv, rest) = ciphertext.split_at(IV_LEN);
        let (body, tag) = rest.split_at(rest.len() - TAG_LEN);

        let mut mac = self.mac.clone();
        mac.update(iv);
        mac.update(body);
        if !mac.verify(tag) {
            return Err(CryptoError::TagMismatch);
        }

        let iv: &[u8; IV_LEN] = iv.try_into().expect("split_at gives exact length");
        let mut plain = body.to_vec();
        self.ctr(iv).apply(&mut plain);
        Ok(plain)
    }

    /// Ciphertext length for a plaintext of `len` bytes.
    #[must_use]
    pub const fn ciphertext_len(len: usize) -> usize {
        IV_LEN + len + TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> EtmKey {
        EtmKey::new(&[0x42u8; 32])
    }

    #[test]
    fn seal_open_round_trip() {
        let k = key();
        for len in [0usize, 1, 16, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = k.seal(&pt);
            assert_eq!(ct.len(), EtmKey::ciphertext_len(len));
            assert_eq!(k.open(&ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tampered_body_rejected() {
        let k = key();
        let mut ct = k.seal(b"attack at dawn");
        ct[IV_LEN] ^= 0x01;
        assert_eq!(k.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn tampered_iv_rejected() {
        let k = key();
        let mut ct = k.seal(b"attack at dawn");
        ct[0] ^= 0x01;
        assert_eq!(k.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = key();
        let mut ct = k.seal(b"attack at dawn");
        let last = ct.len() - 1;
        ct[last] ^= 0x80;
        assert_eq!(k.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn truncated_ciphertext_rejected() {
        let k = key();
        let ct = k.seal(b"hello");
        assert!(matches!(
            k.open(&ct[..MIN_CT_LEN - 1]),
            Err(CryptoError::CiphertextTooShort { .. })
        ));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = key();
        let k2 = EtmKey::new(&[0x43u8; 32]);
        let ct = k1.seal(b"secret");
        assert_eq!(k2.open(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn random_ivs_randomize_ciphertexts() {
        let k = key();
        let c1 = k.seal(b"same plaintext");
        let c2 = k.seal(b"same plaintext");
        assert_ne!(c1, c2, "IND-CPA requires randomized encryption");
    }

    /// One key, many messages: every open starts from the same key state,
    /// so a forged blob in the middle of a run is refused and leaves that
    /// state as it was for every open after it.
    #[test]
    fn key_state_survives_interleaved_seals_and_a_forgery() {
        let k = key();
        let mut sealed: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..1_000usize {
            let pt: Vec<u8> = (0..i % 131).map(|j| (i + j) as u8).collect();
            sealed.push((k.seal(&pt), pt));
            // Open an earlier blob between seals.
            let (ct, pt) = &sealed[i / 2];
            assert_eq!(&k.open(ct).unwrap(), pt, "message {}", i / 2);
        }
        sealed[500].0[IV_LEN] ^= 0x01;
        for (i, (ct, pt)) in sealed.iter().enumerate() {
            if i == 500 {
                assert_eq!(k.open(ct), Err(CryptoError::TagMismatch));
            } else {
                assert_eq!(&k.open(ct).unwrap(), pt, "message {i}");
            }
        }
    }

    #[test]
    fn deterministic_with_fixed_iv() {
        let k = key();
        let iv = [7u8; IV_LEN];
        assert_eq!(k.seal_with_iv(&iv, b"x"), k.seal_with_iv(&iv, b"x"));
        // Sealed blobs sit on disk and on the wire: the bytes are pinned.
        let pt: Vec<u8> = (0..40u8).collect();
        let hex: String = k
            .seal_with_iv(&iv, &pt)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "070707070707070707070707\
             9e6916778b8c593e27de17ff658a3dd56b1102a5494cf747820180ae5b81a466cb1f1d274bc90039\
             4719dc6b1327e4590cd501eee70d513bd54fbcbce6ca280e1a03eb7e293dff0d"
        );
    }
}
