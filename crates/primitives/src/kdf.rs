//! HKDF-style key derivation (RFC 5869, extract+expand with HMAC-SHA-256).
//!
//! Used to split master keys into domain-separated subkeys: the paper's
//! `Keygen` produces `(k_m, k_w)`; this module additionally derives the
//! CTR/MAC split inside [`crate::etm::EtmKey`] and per-purpose keys in the
//! schemes (tag PRF vs. chain seed vs. masking keys).

use crate::hmac::{hmac_sha256, HmacSha256};
use std::sync::OnceLock;

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
#[must_use]
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derive `out.len()` bytes from `prk` and `info`.
///
/// # Panics
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit).
pub fn hkdf_expand(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    expand_keyed(&HmacSha256::new(prk), info, out);
}

/// HKDF-Expand from an HMAC already keyed under the PRK, so that several
/// expansions of one PRK share its two keying compressions.
fn expand_keyed(prk: &HmacSha256, info: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= 255 * 32,
        "HKDF-Expand output too long: {}",
        out.len()
    );
    // T(0) is empty; T(i) = HMAC(prk, T(i-1) ‖ info ‖ i).
    let mut prev = [0u8; 32];
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        let mut h = prk.clone();
        if i > 0 {
            h.update(&prev);
        }
        h.update(info);
        h.update(&[u8::try_from(i + 1).expect("at most 255 blocks, checked above")]);
        prev = h.finalize();
        chunk.copy_from_slice(&prev[..chunk.len()]);
    }
}

/// One-shot HKDF: extract with `salt` then expand with `info`.
#[must_use]
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    let mut out = vec![0u8; len];
    hkdf_expand(&prk, info, &mut out);
    out
}

/// Derive a 32-byte subkey from a master key under a textual domain label.
#[must_use]
pub fn derive_key32(master: &[u8; 32], label: &str) -> [u8; 32] {
    let prk = hkdf_extract(b"sse-repro/v1", master);
    let mut out = [0u8; 32];
    hkdf_expand(&prk, label.as_bytes(), &mut out);
    out
}

/// Derive the (AES-128, HMAC) subkey pair used by encrypt-then-MAC.
///
/// The Scheme 2 server derives one pair per generation it opens, so the
/// constant-salt extract starts from an HMAC keyed under the salt once per
/// process, and the PRK is keyed once for both expansions.
#[must_use]
pub fn derive_subkeys(master: &[u8; 32]) -> ([u8; 16], [u8; 32]) {
    static SALTED: OnceLock<HmacSha256> = OnceLock::new();
    let mut extract = SALTED
        .get_or_init(|| HmacSha256::new(b"sse-repro/etm"))
        .clone();
    extract.update(master);
    let prk = HmacSha256::new(&extract.finalize());
    let mut enc = [0u8; 16];
    expand_keyed(&prk, b"enc", &mut enc);
    let mut mac = [0u8; 32];
    expand_keyed(&prk, b"mac", &mut mac);
    (enc, mac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 5869 Appendix A.1 test case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        hkdf_expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// RFC 5869 Appendix A.2 test case 2 (longer inputs/outputs).
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm = hkdf(&salt, &ikm, &info, 82);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    /// RFC 5869 Appendix A.3 test case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let okm = hkdf(b"", &ikm, b"", 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn labels_are_domain_separated() {
        let master = [0x77u8; 32];
        assert_ne!(derive_key32(&master, "a"), derive_key32(&master, "b"));
        assert_eq!(derive_key32(&master, "a"), derive_key32(&master, "a"));
    }

    /// The shortcuts in `derive_subkeys` compute plain HKDF.
    #[test]
    fn subkeys_are_hkdf() {
        let master = [0x5au8; 32];
        let (enc, mac) = derive_subkeys(&master);
        assert_eq!(enc.to_vec(), hkdf(b"sse-repro/etm", &master, b"enc", 16));
        assert_eq!(mac.to_vec(), hkdf(b"sse-repro/etm", &master, b"mac", 32));
    }

    #[test]
    fn subkeys_differ_from_each_other_and_master() {
        let master = [0x10u8; 32];
        let (enc, mac) = derive_subkeys(&master);
        assert_ne!(&enc[..], &mac[..16]);
        assert_ne!(&mac[..], &master[..]);
    }
}
