//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC instantiates the paper's pseudo-random functions `f` (keyword →
//! searchable-representation tag) and `f'` (chain-key commitment in
//! Scheme 2). Keys longer than the 64-byte block are hashed first, exactly
//! per the RFC.
//!
//! Keying costs two compressions (`key ⊕ ipad` into the inner hash,
//! `key ⊕ opad` into the outer one), both done once in
//! [`HmacSha256::new`]. A caller that MACs many messages under one key
//! keeps a keyed instance and clones it per message, so each MAC pays only
//! for its own message and the two finishing compressions.

use crate::sha256::{Kernel, Sha256, BLOCK_LEN, DIGEST_LEN};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Incremental HMAC-SHA-256 computation.
///
/// A freshly keyed instance is the key's reusable state: clone it, feed
/// the clone one message, finalize the clone.
#[derive(Clone)]
pub struct HmacSha256 {
    /// The inner hash, `key ⊕ ipad` and the message so far absorbed.
    inner: Sha256,
    /// The outer hash with `key ⊕ opad` already absorbed.
    outer: Sha256,
}

impl HmacSha256 {
    /// Start an HMAC computation under `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        Self::with_kernel(key, Kernel::detect())
    }

    /// Like [`HmacSha256::new`], on a given SHA-256 compression kernel
    /// (inner hash, outer hash and long-key hash alike).
    pub(crate) fn with_kernel(key: &[u8], kernel: Kernel) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Sha256::with_kernel(kernel);
            h.update(key);
            block_key[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ IPAD;
            opad_key[i] = block_key[i] ^ OPAD;
        }

        let mut inner = Sha256::with_kernel(kernel);
        inner.update(&ipad_key);
        let mut outer = Sha256::with_kernel(kernel);
        outer.update(&opad_key);
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte MAC.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Verify `tag` against the absorbed message in constant time.
    #[must_use]
    pub fn verify(self, tag: &[u8]) -> bool {
        crate::ct::ct_eq(&self.finalize(), tag)
    }
}

/// One-shot HMAC-SHA-256.
#[must_use]
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    h.update(msg);
    h.finalize()
}

/// One-shot HMAC over the concatenation of several message parts.
#[must_use]
pub fn hmac_sha256_concat(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// Known-answer check on every SHA-256 kernel this machine can run,
    /// twice from one keyed instance: a clone's MAC must not disturb the
    /// key state the next clone starts from.
    fn assert_mac(key: &[u8], msg: &[u8], want: &str) {
        for kernel in Kernel::all() {
            let keyed = HmacSha256::with_kernel(key, kernel);
            for round in 0..2 {
                let mut h = keyed.clone();
                h.update(msg);
                assert_eq!(hex(&h.finalize()), want, "{kernel:?}, MAC {round}");
            }
        }
        assert_eq!(hex(&hmac_sha256(key, msg)), want);
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_mac(
            &key,
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_mac(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        assert_mac(
            &key,
            &msg,
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let msg = [0xcdu8; 50];
        assert_mac(
            &key,
            &msg,
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_msg() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_mac(
            &key,
            msg,
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key";
        let msg: Vec<u8> = (0..300u16).map(|i| (i & 0xff) as u8).collect();
        let want = hmac_sha256(key, &msg);
        let mut h = HmacSha256::new(key);
        for chunk in msg.chunks(11) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        let mut h = HmacSha256::new(b"k");
        h.update(b"m");
        assert!(h.clone().verify(&tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!h.verify(&bad));
    }

    #[test]
    fn different_keys_give_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn concat_matches_manual() {
        assert_eq!(
            hmac_sha256_concat(b"k", &[b"ab", b"cd"]),
            hmac_sha256(b"k", b"abcd")
        );
    }
}
