//! Property-based tests for the cryptographic primitives: algebraic laws
//! for the big-integer arithmetic, round-trip laws for every cipher layer,
//! and structural invariants of the chain/KDF machinery.

use proptest::prelude::*;
use sse_primitives::aes::Aes128;
use sse_primitives::bignum::{BigUint, FixedBase};
use sse_primitives::chacha20::prg_expand;
use sse_primitives::ct;
use sse_primitives::ctr::{ctr_decrypt, ctr_encrypt};
use sse_primitives::drbg::HmacDrbg;
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::{chain_commitment, chain_step, ChainWalker, HashChain};
use sse_primitives::hmac::hmac_sha256;
use sse_primitives::sha256::{sha256, Sha256};

fn biguint(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u8>(), 0..=max_bytes)
        .prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

/// The value of little-endian `u64` limbs.
fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

/// An odd modulus of `raw.len()` limbs whose top limb is nonzero, and all
/// ones when `all_ones_top` (the RFC 3526 primes' shape).
fn odd_modulus(raw: &[u64], all_ones_top: bool) -> BigUint {
    let mut limbs = raw.to_vec();
    let top = limbs.len() - 1;
    limbs[0] |= 1;
    if all_ones_top {
        limbs[top] = u64::MAX;
    } else if limbs[top] == 0 {
        limbs[top] = 1;
    }
    if top == 0 {
        limbs[0] = limbs[0].max(3);
    }
    from_limbs(&limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- big integers ------------------------------------------------------

    #[test]
    fn bytes_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(n, back);
    }

    #[test]
    fn addition_is_commutative_and_associative(
        a in biguint(48), b in biguint(48), c in biguint(48)
    ) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn subtraction_inverts_addition(a in biguint(48), b in biguint(48)) {
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.add(&b).sub(&a), b);
    }

    #[test]
    fn multiplication_laws(a in biguint(32), b in biguint(32), c in biguint(32)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        // Distributivity: a*(b+c) = a*b + a*c.
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.mul(&BigUint::one()), a.clone());
        prop_assert!(a.mul(&BigUint::zero()).is_zero());
    }

    #[test]
    fn division_reconstructs(a in biguint(48), b in biguint(24)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r.cmp_big(&b) == std::cmp::Ordering::Less);
    }

    #[test]
    fn shifts_are_mul_div_by_powers_of_two(a in biguint(32), s in 0usize..100) {
        let shifted = a.shl(s);
        prop_assert_eq!(shifted.shr(s), a.clone());
        // shl by s multiplies by 2^s.
        let two_s = BigUint::one().shl(s);
        prop_assert_eq!(shifted, a.mul(&two_s));
    }

    #[test]
    fn mod_pow_respects_exponent_addition(
        base in biguint(16), e1 in 0u64..300, e2 in 0u64..300, m in biguint(16)
    ) {
        prop_assume!(m.bit_len() >= 2);
        // base^(e1+e2) = base^e1 * base^e2 (mod m)
        let lhs = base.mod_pow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = base
            .mod_pow(&BigUint::from_u64(e1), &m)
            .mod_mul(&base.mod_pow(&BigUint::from_u64(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_is_inverse(a in biguint(24), seed in 0u64..1000) {
        // Work modulo a fixed odd prime (2^89 - 1 is prime).
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        let _ = seed;
        let a = a.rem(&p);
        prop_assume!(!a.is_zero());
        let inv = a.mod_inverse(&p).unwrap();
        prop_assert!(a.mod_mul(&inv, &p).is_one());
    }

    #[test]
    fn montgomery_and_plain_modmul_agree(
        a in biguint(32), b in biguint(32), m in biguint(32)
    ) {
        prop_assume!(m.bit_len() >= 2 && !m.is_even());
        // mod_pow with exponent 1 exercises the Montgomery path; multiply
        // manually for the reference.
        let prod_ref = a.rem(&m).mod_mul(&b.rem(&m), &m);
        // (a*b)^1 mod m via mod_pow:
        let prod_mont = a.mul(&b).mod_pow(&BigUint::from_u64(1), &m);
        prop_assert_eq!(prod_ref, prod_mont);
    }

    // ---- hashing -----------------------------------------------------------

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        split in 0usize..2048
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(
        k1 in prop::collection::vec(any::<u8>(), 1..64),
        k2 in prop::collection::vec(any::<u8>(), 1..64),
        msg in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    // ---- ciphers -----------------------------------------------------------

    #[test]
    fn aes_decrypt_inverts_encrypt(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt(&aes.encrypt(&block)), block);
    }

    #[test]
    fn ctr_round_trip(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 12]>(),
        pt in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert_eq!(ctr_decrypt(&key, &iv, &ctr_encrypt(&key, &iv, &pt)), pt);
    }

    #[test]
    fn etm_round_trip_and_tamper_detection(
        master in any::<[u8; 32]>(),
        pt in prop::collection::vec(any::<u8>(), 0..256),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let k = EtmKey::new(&master);
        let ct = k.seal(&pt);
        prop_assert_eq!(k.open(&ct).unwrap(), pt);
        // Any single bit flip anywhere must be rejected.
        let mut tampered = ct.clone();
        let pos = flip_byte % tampered.len();
        tampered[pos] ^= 1 << flip_bit;
        prop_assert!(k.open(&tampered).is_err());
    }

    #[test]
    fn prg_mask_is_involutive(
        seed in any::<[u8; 32]>(),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mask = prg_expand(&seed, data.len());
        let once = ct::xor(&data, &mask);
        let twice = ct::xor(&once, &mask);
        prop_assert_eq!(twice, data);
    }

    // ---- constant-time helpers ---------------------------------------------

    #[test]
    fn ct_eq_agrees_with_slice_eq(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(ct::ct_eq(&a, &b), a == b);
    }

    // ---- hash chains -------------------------------------------------------

    #[test]
    fn chain_checkpointing_is_transparent(
        material in prop::collection::vec(any::<u8>(), 1..32),
        length in 1usize..200,
        ctr in 0u64..200,
    ) {
        let ctr = ctr.min(length as u64);
        let plain = HashChain::new(&[&material], length);
        let pebbled = HashChain::with_checkpoints(&[&material], length);
        prop_assert_eq!(
            plain.key_for_counter(ctr).unwrap(),
            pebbled.key_for_counter(ctr).unwrap()
        );
    }

    #[test]
    fn walker_seeks_agree_with_step_by_step_hashing(
        start in any::<[u8; 32]>(),
        distance in 0usize..60,
        slack in 0usize..3,
    ) {
        let mut target = start;
        for _ in 0..distance {
            target = chain_step(&target);
        }
        // Found in exactly `distance` steps whenever the bound allows it...
        let mut w = ChainWalker::new(&start);
        prop_assert!(w.seek_commitment(&chain_commitment(&target), distance + slack));
        prop_assert_eq!((w.steps(), *w.element()), (distance, target));
        let mut w = ChainWalker::new(&start);
        prop_assert!(w.seek_element(&target, distance + slack));
        prop_assert_eq!(w.steps(), distance);
        // ...and refused, after exactly the bound, when it does not.
        if distance > 0 {
            let mut w = ChainWalker::new(&start);
            prop_assert!(!w.seek_commitment(&chain_commitment(&target), distance - 1));
            prop_assert_eq!(w.steps(), distance - 1);
        }
    }

    // ---- DRBG --------------------------------------------------------------

    #[test]
    fn drbg_streams_are_deterministic_and_seed_separated(s1 in any::<u64>(), s2 in any::<u64>()) {
        let mut a1 = HmacDrbg::from_u64(s1);
        let mut a2 = HmacDrbg::from_u64(s1);
        prop_assert_eq!(a1.gen_key(), a2.gen_key());
        if s1 != s2 {
            let mut b = HmacDrbg::from_u64(s2);
            let mut fresh = HmacDrbg::from_u64(s1);
            prop_assert_ne!(fresh.gen_key(), b.gen_key());
        }
    }
}

// ---- the Montgomery kernel against square-and-multiply ---------------------

proptest! {
    // Fewer cases: a 33-limb reference exponentiation is slow unoptimized.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn montgomery_ladder_and_fixed_base_match_plain_mod_pow(
        raw in prop::collection::vec(any::<u64>(), 1..=33),
        material in prop::collection::vec(any::<u64>(), 99),
        all_ones_top in any::<bool>(),
        exp_kind in 0usize..4,
        base_kind in 0usize..6,
    ) {
        let n = odd_modulus(&raw, all_ones_top);
        let k = raw.len();
        let exp = match exp_kind {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            // As wide as the modulus.
            2 => from_limbs(&material[..k]),
            // Wider than the modulus: one more limb, nonzero.
            _ => from_limbs(&material[..k]).add(&BigUint::one().shl(64 * k)),
        };
        let base = match base_kind {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            2 => n.sub(&BigUint::one()),
            // At or just above n: may still fit in k limbs.
            3 => n.add(&from_limbs(&material[k..k + 1])),
            // Twice the modulus's width.
            4 => from_limbs(&material[k..3 * k]),
            _ => from_limbs(&material[k..2 * k]).rem(&n),
        };
        let want = base.mod_pow_plain(&exp, &n);
        prop_assert_eq!(base.mod_pow(&exp, &n), want.clone());
        // A table sized for the modulus: wider exponents take the fallback.
        let fixed = FixedBase::new(&base, &n, n.bit_len());
        prop_assert_eq!(fixed.pow(&exp), want);
    }
}
