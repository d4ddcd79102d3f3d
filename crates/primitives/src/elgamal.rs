//! ElGamal encryption — the paper's IND-CPA "trapdoor permutation" `F`.
//!
//! Scheme 1 stores `F(r)` next to the masked posting array so that only the
//! client (who holds the trapdoor, i.e. the ElGamal secret key) can recover
//! the PRG nonce `r = F^{-1}(F(r))`. The paper names ElGamal explicitly as
//! the intended instantiation; we implement textbook multiplicative ElGamal
//! over a [`crate::modp::ModpGroup`], with the 32-byte nonce embedded into a
//! group element.
//!
//! Nonce embedding: for the 2048/1536-bit groups a 32-byte nonce `r`
//! interpreted as a big-endian integer is far below `p`, so `r + 2` (offset
//! avoids the degenerate values 0 and 1) is itself a valid plaintext group
//! element. For the 256-bit fast profile the nonce is reduced into the
//! group; the scheme keys the PRG off the *embedded* value so correctness
//! is preserved in every profile.

use crate::bignum::BigUint;
use crate::drbg::HmacDrbg;
use crate::error::{CryptoError, Result};
use crate::modp::ModpGroup;
use crate::sha256::sha256_concat;

/// An ElGamal ciphertext `(c1, c2) = (g^k, m * y^k)`.
#[derive(Clone, PartialEq, Eq)]
pub struct ElGamalCiphertext {
    /// `g^k mod p`.
    pub c1: BigUint,
    /// `m * y^k mod p`.
    pub c2: BigUint,
}

impl std::fmt::Debug for ElGamalCiphertext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ElGamalCiphertext(..)")
    }
}

impl ElGamalCiphertext {
    /// Serialize as two fixed-width big-endian elements.
    #[must_use]
    pub fn to_bytes(&self, group: &ModpGroup) -> Vec<u8> {
        let mut out = Vec::with_capacity(group.element_len * 2);
        out.extend_from_slice(
            &self
                .c1
                .to_bytes_be_padded(group.element_len)
                .expect("group element fits element_len"),
        );
        out.extend_from_slice(
            &self
                .c2
                .to_bytes_be_padded(group.element_len)
                .expect("group element fits element_len"),
        );
        out
    }

    /// Parse from the fixed-width serialization.
    ///
    /// # Errors
    /// [`CryptoError::InvalidLength`] on a wrong-size buffer and
    /// [`CryptoError::OutOfRange`] when a component is not a group element.
    pub fn from_bytes(group: &ModpGroup, bytes: &[u8]) -> Result<Self> {
        if bytes.len() != group.element_len * 2 {
            return Err(CryptoError::InvalidLength {
                what: "ElGamal ciphertext",
                expected: group.element_len * 2,
                got: bytes.len(),
            });
        }
        let (a, b) = bytes.split_at(group.element_len);
        let c1 = BigUint::from_bytes_be(a);
        let c2 = BigUint::from_bytes_be(b);
        if !group.contains(&c1) || !group.contains(&c2) {
            return Err(CryptoError::OutOfRange("ciphertext component"));
        }
        Ok(ElGamalCiphertext { c1, c2 })
    }
}

/// ElGamal key pair over a MODP group.
pub struct ElGamal {
    group: ModpGroup,
    /// The trapdoor, stored as the decryption exponent `p - 1 - x` for the
    /// secret exponent `x`: `c1^(p-1-x) = (c1^x)^{-1}` for every `c1` in
    /// `[1, p-1]` (Fermat, `c1^(p-1) = 1`), so decryption needs no inverse.
    decrypt_exp: BigUint,
    /// Public element `y = g^x`.
    public: BigUint,
}

impl ElGamal {
    /// Generate a key pair, drawing the secret exponent from `drbg`.
    #[must_use]
    pub fn keygen(group: ModpGroup, drbg: &mut HmacDrbg) -> Self {
        let secret = group.random_exponent(drbg);
        let public = group.pow_g(&secret);
        let decrypt_exp = group.p.sub(&BigUint::one()).sub(&secret);
        ElGamal {
            group,
            decrypt_exp,
            public,
        }
    }

    /// Deterministically derive a key pair from a 32-byte master secret.
    ///
    /// Both client sessions of the paper's protocols need the *same* `F`;
    /// deriving it from `k_w` lets the client be stateless across sessions.
    #[must_use]
    pub fn from_master_key(group: ModpGroup, master: &[u8; 32]) -> Self {
        let mut drbg = HmacDrbg::new(master);
        Self::keygen(group, &mut drbg)
    }

    /// The group this key pair lives in.
    #[must_use]
    pub fn group(&self) -> &ModpGroup {
        &self.group
    }

    /// The public element `y = g^x` (what a server could see; unused by it).
    #[must_use]
    pub fn public(&self) -> &BigUint {
        &self.public
    }

    /// Encrypt a group element `m` under fresh randomness from `drbg`.
    #[must_use]
    pub fn encrypt_element(&self, m: &BigUint, drbg: &mut HmacDrbg) -> ElGamalCiphertext {
        debug_assert!(self.group.contains(m), "plaintext must be a group element");
        let k = self.group.random_exponent(drbg);
        let c1 = self.group.pow_g(&k);
        let c2 = self.group.mul(m, &self.group.pow(&self.public, &k));
        ElGamalCiphertext { c1, c2 }
    }

    /// Decrypt to the group element: `m = c2 * (c1^x)^{-1}`, computed
    /// without an inverse as `c2 * c1^(p-1-x)`.
    ///
    /// The exponent is `p - 1 - x` rather than `q - x`: the latter inverts
    /// only elements of the order-`q` subgroup, while a ciphertext from an
    /// untrusted server may carry any `c1` in `[1, p-1]`.
    ///
    /// # Errors
    /// [`CryptoError::OutOfRange`] if a component is not a group element.
    pub fn decrypt_element(&self, ct: &ElGamalCiphertext) -> Result<BigUint> {
        if !self.group.contains(&ct.c1) || !self.group.contains(&ct.c2) {
            return Err(CryptoError::OutOfRange("ciphertext component"));
        }
        let s_inv = self.group.pow(&ct.c1, &self.decrypt_exp);
        Ok(self.group.mul(&ct.c2, &s_inv))
    }

    /// Embed a 32-byte nonce into a group element.
    ///
    /// The embedded element — not the raw nonce — is what the schemes feed
    /// to the PRG, so embedding need not be injective in the fast profile.
    #[must_use]
    pub fn embed_nonce(&self, nonce: &[u8; 32]) -> BigUint {
        let n = BigUint::from_bytes_be(nonce).add(&BigUint::from_u64(2));
        if n.cmp_big(&self.group.p) == std::cmp::Ordering::Less {
            n
        } else {
            // Fast profile: reduce into [2, p) to stay a valid element.
            let span = self.group.p.sub(&BigUint::from_u64(2));
            n.rem(&span).add(&BigUint::from_u64(2))
        }
    }

    /// Encrypt a 32-byte nonce: the scheme-level `F(r)`.
    #[must_use]
    pub fn encrypt_nonce(&self, nonce: &[u8; 32], drbg: &mut HmacDrbg) -> ElGamalCiphertext {
        let m = self.embed_nonce(nonce);
        self.encrypt_element(&m, drbg)
    }

    /// Decrypt `F(r)` and hash the recovered element down to the 32-byte
    /// PRG seed: the scheme-level `r = F^{-1}(F(r))`.
    ///
    /// # Errors
    /// Propagates decryption errors on malformed ciphertexts.
    pub fn decrypt_to_seed(&self, ct: &ElGamalCiphertext) -> Result<[u8; 32]> {
        let m = self.decrypt_element(ct)?;
        Ok(element_to_seed(&self.group, &m))
    }
}

/// Hash a group element to a uniform 32-byte PRG seed.
///
/// Both the client (after decrypting `F(r)`) and the scheme internals (when
/// first creating `r`) derive the mask seed through this single function, so
/// the two sides always agree.
#[must_use]
pub fn element_to_seed(group: &ModpGroup, element: &BigUint) -> [u8; 32] {
    let bytes = element
        .to_bytes_be_padded(group.element_len)
        .expect("group element fits element_len");
    sha256_concat(&[b"sse/elgamal-seed", group.name.as_bytes(), &bytes])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_keys(seed: u64) -> (ElGamal, HmacDrbg) {
        let mut drbg = HmacDrbg::from_u64(seed);
        let eg = ElGamal::keygen(ModpGroup::modp_256(), &mut drbg);
        (eg, drbg)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (eg, mut drbg) = fast_keys(1);
        for _ in 0..10 {
            let m = BigUint::random_range(&mut drbg, &BigUint::from_u64(2), &eg.group().p);
            let ct = eg.encrypt_element(&m, &mut drbg);
            assert_eq!(eg.decrypt_element(&ct).unwrap(), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (eg, mut drbg) = fast_keys(2);
        let m = BigUint::from_u64(42);
        let c1 = eg.encrypt_element(&m, &mut drbg);
        let c2 = eg.encrypt_element(&m, &mut drbg);
        assert_ne!(c1, c2, "IND-CPA requires fresh randomness per encryption");
        assert_eq!(eg.decrypt_element(&c1).unwrap(), m);
        assert_eq!(eg.decrypt_element(&c2).unwrap(), m);
    }

    #[test]
    fn nonce_round_trip_through_seed() {
        let (eg, mut drbg) = fast_keys(3);
        let nonce = [0xabu8; 32];
        let ct = eg.encrypt_nonce(&nonce, &mut drbg);
        let seed = eg.decrypt_to_seed(&ct).unwrap();
        // The seed equals hashing the embedded element directly.
        let expect = element_to_seed(eg.group(), &eg.embed_nonce(&nonce));
        assert_eq!(seed, expect);
    }

    #[test]
    fn distinct_nonces_give_distinct_seeds() {
        let (eg, mut drbg) = fast_keys(4);
        let ct1 = eg.encrypt_nonce(&[1u8; 32], &mut drbg);
        let ct2 = eg.encrypt_nonce(&[2u8; 32], &mut drbg);
        assert_ne!(
            eg.decrypt_to_seed(&ct1).unwrap(),
            eg.decrypt_to_seed(&ct2).unwrap()
        );
    }

    #[test]
    fn serialization_round_trip() {
        let (eg, mut drbg) = fast_keys(5);
        let ct = eg.encrypt_nonce(&[7u8; 32], &mut drbg);
        let bytes = ct.to_bytes(eg.group());
        assert_eq!(bytes.len(), eg.group().element_len * 2);
        let back = ElGamalCiphertext::from_bytes(eg.group(), &bytes).unwrap();
        assert_eq!(back, ct);
    }

    #[test]
    fn deserialization_rejects_bad_input() {
        let (eg, mut drbg) = fast_keys(6);
        let ct = eg.encrypt_nonce(&[7u8; 32], &mut drbg);
        let mut bytes = ct.to_bytes(eg.group());
        assert!(matches!(
            ElGamalCiphertext::from_bytes(eg.group(), &bytes[1..]),
            Err(CryptoError::InvalidLength { .. })
        ));
        // All-zero first component is not a group element.
        for b in bytes[..eg.group().element_len].iter_mut() {
            *b = 0;
        }
        assert!(matches!(
            ElGamalCiphertext::from_bytes(eg.group(), &bytes),
            Err(CryptoError::OutOfRange(_))
        ));
    }

    #[test]
    fn master_key_derivation_is_deterministic() {
        let g = ModpGroup::modp_256();
        let a = ElGamal::from_master_key(g.clone(), &[9u8; 32]);
        let b = ElGamal::from_master_key(g.clone(), &[9u8; 32]);
        let c = ElGamal::from_master_key(g, &[10u8; 32]);
        assert_eq!(a.public(), b.public());
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn cross_key_decryption_garbles() {
        let (eg1, mut drbg) = fast_keys(7);
        let (eg2, _) = fast_keys(8);
        let nonce = [3u8; 32];
        let ct = eg1.encrypt_nonce(&nonce, &mut drbg);
        let right = eg1.decrypt_to_seed(&ct).unwrap();
        let wrong = eg2.decrypt_to_seed(&ct).unwrap();
        assert_ne!(right, wrong);
    }

    /// The reference: textbook decryption `c2 * (c1^x)^{-1}`, by
    /// square-and-multiply and extended Euclid, off the product kernel.
    fn inverse_formula(group: &ModpGroup, x: &BigUint, ct: &ElGamalCiphertext) -> BigUint {
        let s = ct.c1.mod_pow_plain(x, &group.p);
        ct.c2.mod_mul(&s.mod_inverse(&group.p).unwrap(), &group.p)
    }

    /// A key pair from `seed` and its secret exponent, drawn the way
    /// [`ElGamal::keygen`] draws it.
    fn keys_and_secret(group: &ModpGroup, seed: u64) -> (ElGamal, BigUint) {
        let x = group.random_exponent(&mut HmacDrbg::from_u64(seed));
        let eg = ElGamal::keygen(group.clone(), &mut HmacDrbg::from_u64(seed));
        assert_eq!(eg.public(), &group.pow_g(&x));
        (eg, x)
    }

    #[test]
    fn decrypt_matches_inverse_formula_for_any_c1() {
        let group = ModpGroup::modp_256();
        let (eg, x) = keys_and_secret(&group, 12);
        let p_minus_1 = group.p.sub(&BigUint::one());
        // Smallest quadratic non-residue: outside the order-q subgroup, as
        // a malicious server's c1 may be (p - 1 is another).
        let non_residue = (2u64..)
            .map(BigUint::from_u64)
            .find(|a| a.mod_pow_plain(&group.q, &group.p) == p_minus_1)
            .unwrap();
        let mut drbg = HmacDrbg::from_u64(13);
        let mut c1s = vec![BigUint::one(), p_minus_1.clone(), non_residue];
        for _ in 0..8 {
            c1s.push(BigUint::random_range(&mut drbg, &BigUint::one(), &group.p));
        }
        for c1 in c1s {
            let c2 = BigUint::random_range(&mut drbg, &BigUint::one(), &group.p);
            let ct = ElGamalCiphertext { c1, c2 };
            assert_eq!(
                eg.decrypt_element(&ct).unwrap(),
                inverse_formula(&group, &x, &ct),
                "{:?}",
                ct.c1
            );
        }
    }

    #[test]
    fn decrypt_matches_inverse_formula_in_2048_bit_group() {
        let group = ModpGroup::modp_2048();
        let (eg, x) = keys_and_secret(&group, 14);
        let mut drbg = HmacDrbg::from_u64(15);
        let ct = ElGamalCiphertext {
            c1: BigUint::random_range(&mut drbg, &BigUint::one(), &group.p),
            c2: BigUint::random_range(&mut drbg, &BigUint::one(), &group.p),
        };
        assert_eq!(
            eg.decrypt_element(&ct).unwrap(),
            inverse_formula(&group, &x, &ct)
        );
    }

    #[test]
    fn works_in_2048_bit_group_smoke() {
        // One round trip in the security profile (slow; keep it single).
        let mut drbg = HmacDrbg::from_u64(11);
        let eg = ElGamal::keygen(ModpGroup::modp_2048(), &mut drbg);
        let nonce = [0x5au8; 32];
        let ct = eg.encrypt_nonce(&nonce, &mut drbg);
        let seed = eg.decrypt_to_seed(&ct).unwrap();
        assert_eq!(seed, element_to_seed(eg.group(), &eg.embed_nonce(&nonce)));
    }
}
