//! Arbitrary-precision unsigned integers.
//!
//! Implements exactly the operations the ElGamal trapdoor permutation needs:
//! comparison, add/sub/mul, Knuth Algorithm-D division, left/right shifts,
//! Montgomery-form modular exponentiation (for odd moduli — all our group
//! moduli are odd primes), extended-Euclid modular inverse, Miller–Rabin
//! primality testing, and big-endian (de)serialization.
//!
//! Representation: little-endian `u64` limbs, always *normalized* (no
//! most-significant zero limbs; zero is the empty limb vector).
//!
//! Modular exponentiation has one product kernel, [`Montgomery`]'s CIOS
//! product over fixed-width `k`-limb slices with caller-owned scratch. Both
//! [`Montgomery::pow`] (a fixed 4-bit-window ladder whose product sequence
//! does not depend on the exponent) and [`FixedBase::pow`] (one product per
//! nonzero nibble against a precomputed table) run on it, and each
//! allocates its workspace once per call rather than per product.
//! [`BigUint::mod_pow_plain`] stays outside it: it is the ablation baseline
//! and the even-modulus fallback.

use crate::drbg::HmacDrbg;
use crate::error::{CryptoError, Result};
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized.
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0x0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl BigUint {
    /// The value zero.
    #[must_use]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    #[must_use]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a machine word.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from a big-endian byte string (leading zeros allowed).
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Construct from a hex string (no `0x` prefix, whitespace ignored).
    ///
    /// # Errors
    /// Returns [`CryptoError::Malformed`] on any non-hex character.
    pub fn from_hex(s: &str) -> Result<Self> {
        let cleaned: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let mut bytes = Vec::with_capacity(cleaned.len() / 2 + 1);
        let chars: Vec<char> = cleaned.chars().collect();
        let mut i = 0;
        // Odd-length strings get an implicit leading zero nibble.
        if chars.len() % 2 == 1 {
            let hi = chars[0]
                .to_digit(16)
                .ok_or(CryptoError::Malformed("hex digit"))?;
            bytes.push(hi as u8);
            i = 1;
        }
        while i < chars.len() {
            let hi = chars[i]
                .to_digit(16)
                .ok_or(CryptoError::Malformed("hex digit"))?;
            let lo = chars[i + 1]
                .to_digit(16)
                .ok_or(CryptoError::Malformed("hex digit"))?;
            bytes.push(((hi << 4) | lo) as u8);
            i += 2;
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Minimal big-endian byte encoding (empty for zero).
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Trim leading zero bytes of the most-significant limb.
        let first_nonzero = out
            .iter()
            .position(|&b| b != 0)
            .expect("normalized nonzero value has a nonzero byte");
        out.drain(..first_nonzero);
        out
    }

    /// Big-endian encoding left-padded with zeros to exactly `len` bytes.
    ///
    /// # Errors
    /// Returns [`CryptoError::OutOfRange`] if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(CryptoError::OutOfRange("value too large for padding"));
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even.
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (little-endian bit numbering).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)]
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self` (callers guarantee the ordering).
    #[must_use]
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Three-way comparison.
    #[must_use]
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication `self * other`.
    #[must_use]
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = u128::from(out[k]) + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            for i in 0..out.len() {
                let hi = if i + 1 < out.len() {
                    out[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out[i] = (out[i] >> bit_shift) | hi;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor` (Knuth TAOCP 4.3.1 D).
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        // Single-limb fast path.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u64;
            for i in (0..self.limbs.len()).rev() {
                let cur = (u128::from(rem) << 64) | u128::from(self.limbs[i]);
                q[i] = (cur / u128::from(d)) as u64;
                rem = (cur % u128::from(d)) as u64;
            }
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_second = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current remainder.
            let numer = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut qhat = numer / u128::from(v_top);
            let mut rhat = numer % u128::from(v_top);
            // Correct qhat (at most twice).
            while qhat >= (1u128 << 64)
                || qhat * u128::from(v_second) > ((rhat << 64) | u128::from(un[j + n - 2]))
            {
                qhat -= 1;
                rhat += u128::from(v_top);
                if rhat >= (1u128 << 64) {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(un[j + i]) - ((p as u64) as i128) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = i128::from(un[j + n]) - (carry as i128) + borrow;
            un[j + n] = sub as u64;
            let went_negative = sub < 0;

            q[j] = qhat as u64;
            if went_negative {
                // Add back one multiple of v (D6).
                q[j] -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = un[j + i].overflowing_add(vn[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    un[j + i] = s2;
                    carry = u64::from(c1) + u64::from(c2);
                }
                un[j + n] = un[j + n].wrapping_add(carry);
            }
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod modulus`.
    #[must_use]
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus`.
    #[must_use]
    pub fn mod_mul(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses [`Montgomery::pow`]'s window ladder when the modulus is odd (all
    /// group moduli in this workspace are odd primes); falls back to
    /// square-and-multiply with division otherwise.
    ///
    /// # Panics
    /// Panics if `modulus` is zero or one.
    #[must_use]
    pub fn mod_pow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(
            !modulus.is_zero() && !modulus.is_one(),
            "mod_pow: modulus must exceed 1"
        );
        if modulus.is_even() {
            return self.mod_pow_plain(exp, modulus);
        }
        Montgomery::new(modulus).pow(self, exp)
    }

    /// Square-and-multiply *without* Montgomery reduction (any modulus).
    ///
    /// Public for the ablation benchmark (`harness p1`'s
    /// `prim_modexp_ablation` rows compare it against the Montgomery path)
    /// and used internally as the fallback for even moduli.
    ///
    /// # Panics
    /// Panics if `modulus` is zero or one.
    pub fn mod_pow_plain(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(
            !modulus.is_zero() && !modulus.is_one(),
            "mod_pow_plain: modulus must exceed 1"
        );
        let mut result = Self::one();
        let mut base = self.rem(modulus);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mod_mul(&base, modulus);
            }
            base = base.mod_mul(&base, modulus);
        }
        result
    }

    /// Modular inverse via extended Euclid.
    ///
    /// # Errors
    /// Returns [`CryptoError::NotInvertible`] when `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return Err(CryptoError::OutOfRange("modulus must exceed 1"));
        }
        // Extended Euclid with signed coefficients represented as
        // (magnitude, negative?) pairs.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        if r1.is_zero() {
            return Err(CryptoError::NotInvertible);
        }
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic)
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        let (mag, neg) = t0;
        Ok(if neg {
            modulus.sub(&mag.rem(modulus)).rem(modulus)
        } else {
            mag.rem(modulus)
        })
    }

    /// Uniform random value in `[0, bound)` from a DRBG, by rejection.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn random_below(drbg: &mut HmacDrbg, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below: bound must be positive");
        let bits = bound.bit_len();
        let bytes = bits.div_ceil(8);
        let excess_bits = bytes * 8 - bits;
        loop {
            let mut buf = vec![0u8; bytes];
            drbg.fill(&mut buf);
            // Mask the excess high bits so the rejection rate stays < 1/2.
            if excess_bits > 0 {
                buf[0] &= 0xffu8 >> excess_bits;
            }
            let candidate = BigUint::from_bytes_be(&buf);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Uniform random value in `[low, high)`.
    ///
    /// # Panics
    /// Panics unless `low < high`.
    #[must_use]
    pub fn random_range(drbg: &mut HmacDrbg, low: &BigUint, high: &BigUint) -> BigUint {
        assert!(
            low.cmp_big(high) == Ordering::Less,
            "random_range: empty range"
        );
        let span = high.sub(low);
        Self::random_below(drbg, &span).add(low)
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    #[must_use]
    pub fn is_probable_prime(&self, rounds: usize, drbg: &mut HmacDrbg) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self.cmp_big(&two) == Ordering::Equal {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Quick trial division by small primes.
        for &p in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
            let pb = BigUint::from_u64(p);
            match self.cmp_big(&pb) {
                Ordering::Equal => return true,
                Ordering::Less => return false,
                Ordering::Greater => {
                    if self.rem(&pb).is_zero() {
                        return false;
                    }
                }
            }
        }
        // Write self-1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        'witness: for _ in 0..rounds {
            let a = BigUint::random_range(drbg, &two, &n_minus_1);
            let mut x = a.mod_pow(&d, self);
            if x.is_one() || x.cmp_big(&n_minus_1) == Ordering::Equal {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.mod_mul(&x, self);
                if x.cmp_big(&n_minus_1) == Ordering::Equal {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

/// Signed subtraction helper for extended Euclid: `a - b` where each operand
/// is `(magnitude, is_negative)`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative
        (false, false) => {
            if a.0.cmp_big(&b.0) != Ordering::Less {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // (-a) - (-b) = b - a
        (true, true) => {
            if b.0.cmp_big(&a.0) != Ordering::Less {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

/// Montgomery-multiplication context for a fixed odd modulus.
///
/// Every product goes through one kernel, `Montgomery::product`, which
/// works on `k`-limb slices and writes into caller-owned scratch, so an
/// exponentiation allocates its workspace once instead of per product.
pub struct Montgomery {
    n: BigUint,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` where `R = 2^(64k)`, padded to `k` limbs — converts into
    /// Montgomery form.
    r2: Vec<u64>,
    /// `R mod n`, padded to `k` limbs: one in Montgomery form.
    one: Vec<u64>,
}

/// Exponent bits consumed per step of [`Montgomery::pow`]'s ladder.
const WINDOW: usize = 4;
/// Entries in the ladder's table: every `WINDOW`-bit digit.
const DIGITS: usize = 1 << WINDOW;

impl Montgomery {
    /// Build a context for odd `modulus`.
    ///
    /// # Panics
    /// Panics if the modulus is even or < 3.
    #[must_use]
    pub fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_even(), "Montgomery requires an odd modulus");
        assert!(modulus.bit_len() >= 2, "modulus too small");
        let k = modulus.limbs.len();
        // n' = -n^{-1} mod 2^64 via Newton–Hensel lifting.
        let n0 = modulus.limbs[0];
        let mut inv = 1u64; // inverse mod 2
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let padded = |v: BigUint| {
            let mut limbs = v.limbs;
            limbs.resize(k, 0);
            limbs
        };
        Montgomery {
            n: modulus.clone(),
            n_prime: inv.wrapping_neg(),
            r2: padded(BigUint::one().shl(64 * k * 2).rem(modulus)),
            one: padded(BigUint::one().shl(64 * k).rem(modulus)),
        }
    }

    /// Limbs in the modulus.
    fn k(&self) -> usize {
        self.n.limbs.len()
    }

    /// The product kernel (CIOS): `t[..k] = a * b * R^{-1} mod n`.
    ///
    /// `a` and `b` are `k` limbs with `a < R` and `b < n`; `t` is `k + 2`
    /// limbs of scratch whose contents are ignored. The running sum stays
    /// below `2n`, which needs the limb past `k` when the modulus's top limb
    /// is all ones (the RFC 3526 primes), and one more for the carry out of
    /// each row. The result is reduced below `n` by one conditional
    /// subtraction.
    fn product(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n.limbs[..];
        let k = n.len();
        let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 2]);
        t.fill(0);
        for &bi in b {
            // t += a * b_i
            let mut c = 0u64;
            for (tj, &aj) in t.iter_mut().zip(a) {
                let s = u128::from(aj) * u128::from(bi) + u128::from(*tj) + u128::from(c);
                *tj = s as u64;
                c = (s >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(c);
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // t = (t + m * n) / 2^64, with m chosen so the low limb cancels.
            let m = t[0].wrapping_mul(self.n_prime);
            let s = u128::from(m) * u128::from(n[0]) + u128::from(t[0]);
            let mut c = (s >> 64) as u64;
            for j in 1..k {
                let s = u128::from(m) * u128::from(n[j]) + u128::from(t[j]) + u128::from(c);
                t[j - 1] = s as u64;
                c = (s >> 64) as u64;
            }
            let s = u128::from(t[k]) + u128::from(c);
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
        }
        if t[k] != 0 || !limbs_lt(&t[..k], n) {
            let mut borrow = 0u64;
            for (tj, &nj) in t[..k].iter_mut().zip(n) {
                let (d1, b1) = tj.overflowing_sub(nj);
                let (d2, b2) = d1.overflowing_sub(borrow);
                *tj = d2;
                borrow = u64::from(b1 | b2);
            }
        }
    }

    /// Convert into Montgomery form, `a * R mod n`, as `k` limbs.
    fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let mut x = vec![0u64; self.k()];
        let mut t = vec![0u64; self.k() + 2];
        self.load(a, &mut x);
        self.product(&x, &self.r2, &mut t);
        t.truncate(self.k());
        t
    }

    /// Copy `a` into the `k`-limb slice `out`. The kernel accepts any value
    /// below `R`; a wider one (only a caller's unreduced base) is reduced
    /// first.
    fn load(&self, a: &BigUint, out: &mut [u64]) {
        out.fill(0);
        if a.limbs.len() <= out.len() {
            out[..a.limbs.len()].copy_from_slice(&a.limbs);
        } else {
            let r = a.rem(&self.n);
            out[..r.limbs.len()].copy_from_slice(&r.limbs);
        }
    }

    /// Convert `a` (Montgomery form) back out: `a * R^{-1} mod n`, using
    /// `unit` (`k` limbs) and `t` (`k + 2`) as scratch.
    fn to_plain(&self, a: &[u64], unit: &mut [u64], t: &mut [u64]) -> BigUint {
        unit.fill(0);
        unit[0] = 1;
        self.product(a, unit, t);
        let mut out = BigUint {
            limbs: t[..self.k()].to_vec(),
        };
        out.normalize();
        out
    }

    /// `base^exp mod n` for any `base` (it need not be reduced).
    ///
    /// A fixed 4-bit-window ladder: the table holds `base^d` for every
    /// digit `d in 0..16`, and each window costs four squarings and one
    /// product with the digit's entry, picked by a masked scan of all 16
    /// entries. The number of windows is set by the modulus's limb width
    /// (or the exponent's, when that is wider), not by the exponent's value,
    /// so the sequence of products is the same for every exponent below
    /// `R`, the secret ElGamal exponent included.
    #[must_use]
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.k();
        // One workspace: table | acc | sel | t.
        let mut buf = vec![0u64; DIGITS * k + k + k + (k + 2)];
        let (table, rest) = buf.split_at_mut(DIGITS * k);
        let (acc, rest) = rest.split_at_mut(k);
        let (sel, t) = rest.split_at_mut(k);
        table[..k].copy_from_slice(&self.one);
        self.load(base, sel);
        self.product(sel, &self.r2, t);
        table[k..2 * k].copy_from_slice(&t[..k]);
        for d in 2..DIGITS {
            let (done, next) = table.split_at_mut(d * k);
            self.product(&done[(d - 1) * k..], &done[k..2 * k], t);
            next[..k].copy_from_slice(&t[..k]);
        }
        let windows = 64 / WINDOW * k.max(exp.limbs.len());
        let digit = |i: usize| {
            let limb = exp.limbs.get(i * WINDOW / 64).copied().unwrap_or(0);
            (limb >> (i * WINDOW % 64)) & (DIGITS as u64 - 1)
        };
        select(table, digit(windows - 1), acc);
        for i in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.product(acc, acc, t);
                acc.copy_from_slice(&t[..k]);
            }
            select(table, digit(i), sel);
            self.product(acc, sel, t);
            acc.copy_from_slice(&t[..k]);
        }
        self.to_plain(acc, sel, t)
    }
}

/// `a < b` for two equal-length little-endian limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Copy entry `digit` of a table of equal-width entries into `out`,
/// reading every entry and keeping one by mask, so the memory access
/// pattern does not depend on `digit`.
fn select(table: &[u64], digit: u64, out: &mut [u64]) {
    out.fill(0);
    for (d, entry) in table.chunks_exact(out.len()).enumerate() {
        let mask = 0u64.wrapping_sub(u64::from(d as u64 == digit));
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

/// Fixed-base modular exponentiation with a precomputed window table.
///
/// For a base that is exponentiated many times against the same odd modulus
/// (the group generator `g` in ElGamal), precomputing
/// `base^(d * 16^i) mod n` for every window position `i` and digit
/// `d in 1..=15` turns each exponentiation into one Montgomery product per
/// nonzero exponent nibble — about `bits/4` products, against the
/// `5 * bits/4` (four squarings and one product per nibble) of
/// [`Montgomery::pow`]'s ladder. Unlike the ladder it skips zero digits
/// and indexes the table directly, so its work depends on the exponent.
pub struct FixedBase {
    ctx: Montgomery,
    /// The reduced base, kept for the rare fallback when an exponent
    /// exceeds the precomputed window count.
    base: BigUint,
    /// `base^(d * 16^i)` in Montgomery form for window `i` and digit
    /// `d in 1..=15`, `k` limbs each at offset `(15 * i + d - 1) * k`.
    /// Empty for a zero base.
    table: Vec<u64>,
    /// Windows in `table`.
    windows: usize,
}

impl FixedBase {
    /// Precompute the window table for `base` under odd `modulus`, sized
    /// for exponents up to `max_exp_bits` bits. Larger exponents still
    /// work via a non-precomputed fallback.
    ///
    /// # Panics
    /// Panics if the modulus is even or < 3 (same contract as
    /// [`Montgomery::new`]).
    #[must_use]
    pub fn new(base: &BigUint, modulus: &BigUint, max_exp_bits: usize) -> Self {
        let ctx = Montgomery::new(modulus);
        let base = base.rem(modulus);
        let k = ctx.k();
        let windows = max_exp_bits.div_ceil(WINDOW).max(1);
        let mut table = Vec::new();
        if !base.is_zero() {
            let row = DIGITS - 1;
            table = vec![0u64; windows * row * k];
            let mut t = vec![0u64; k + 2];
            // cur = base^(16^i) for the current window i.
            let mut cur = ctx.to_mont(&base);
            for w in table.chunks_exact_mut(row * k) {
                w[..k].copy_from_slice(&cur);
                for d in 1..row {
                    let (done, next) = w.split_at_mut(d * k);
                    ctx.product(&done[(d - 1) * k..], &cur, &mut t);
                    next[..k].copy_from_slice(&t[..k]);
                }
                // base^(16^(i+1)) = base^(15 * 16^i) * base^(16^i).
                ctx.product(&w[(row - 1) * k..], &cur, &mut t);
                cur.copy_from_slice(&t[..k]);
            }
        }
        FixedBase {
            ctx,
            base,
            table,
            windows,
        }
    }

    /// `base^exp mod n` using the precomputed table.
    #[must_use]
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        if self.base.is_zero() {
            return BigUint::zero();
        }
        let nibbles = exp.bit_len().div_ceil(WINDOW);
        if nibbles > self.windows {
            // Exponent exceeds the precomputed range; fall back to the
            // generic Montgomery ladder.
            return self.ctx.pow(&self.base, exp);
        }
        let k = self.ctx.k();
        // One workspace: acc | unit | t.
        let mut buf = vec![0u64; 3 * k + 2];
        let (acc, rest) = buf.split_at_mut(k);
        let (unit, t) = rest.split_at_mut(k);
        acc.copy_from_slice(&self.ctx.one);
        for i in 0..nibbles {
            let limb = exp.limbs[i * WINDOW / 64];
            let d = ((limb >> (i * WINDOW % 64)) & (DIGITS as u64 - 1)) as usize;
            if d != 0 {
                let at = ((DIGITS - 1) * i + d - 1) * k;
                self.ctx.product(acc, &self.table[at..at + k], t);
                acc.copy_from_slice(&t[..k]);
            }
        }
        self.ctx.to_plain(acc, unit, t)
    }
}

#[cfg(test)]
impl Montgomery {
    /// Allocating form of [`Montgomery::product`] for the tests below.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut t = vec![0u64; self.k() + 2];
        self.product(a, b, &mut t);
        t.truncate(self.k());
        t
    }

    /// Allocating form of `to_plain` for the tests below.
    fn redc(&self, a: &[u64]) -> BigUint {
        self.to_plain(a, &mut vec![0; self.k()], &mut vec![0; self.k() + 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_serialization() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_bytes_be(&[]).bit_len(), 0);
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 1, 2]).to_bytes_be(),
            vec![1, 2]
        );
        let x = BigUint::from_hex("0102030405060708090a").unwrap();
        assert_eq!(
            x.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a]
        );
        assert_eq!(x.to_bytes_be_padded(12).unwrap().len(), 12);
        assert!(x.to_bytes_be_padded(9).is_err());
        assert!(BigUint::from_hex("xyz").is_err());
        // Odd-length hex.
        assert_eq!(BigUint::from_hex("f").unwrap(), n(15));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("1").unwrap();
        let s = a.add(&b);
        assert_eq!(s.bit_len(), 129);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
        assert_eq!(n(5).add(&n(7)), n(12));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(3).sub(&n(4));
    }

    #[test]
    fn mul_matches_u128() {
        for (a, b) in [(0u64, 5u64), (1, 1), (u64::MAX, u64::MAX), (12345, 67890)] {
            let want = u128::from(a) * u128::from(b);
            let got = n(a).mul(&n(b));
            let mut bytes = [0u8; 16];
            let gb = got.to_bytes_be();
            bytes[16 - gb.len()..].copy_from_slice(&gb);
            assert_eq!(u128::from_be_bytes(bytes), want, "{a} * {b}");
        }
    }

    #[test]
    fn shifts() {
        let x = BigUint::from_hex("1234567890abcdef").unwrap();
        assert_eq!(x.shl(0), x);
        assert_eq!(x.shl(64).shr(64), x);
        assert_eq!(x.shl(3).shr(3), x);
        assert_eq!(x.shr(200), BigUint::zero());
        assert_eq!(n(1).shl(64).bit_len(), 65);
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = n(100).div_rem(&n(7));
        assert_eq!(q, n(14));
        assert_eq!(r, n(2));
        let (q, r) = n(5).div_rem(&n(10));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, n(5));
        let (q, r) = n(10).div_rem(&n(10));
        assert_eq!(q, BigUint::one());
        assert_eq!(r, BigUint::zero());
    }

    #[test]
    fn div_rem_multi_limb() {
        // (a*b + r) / b == a with remainder r, for multi-limb values.
        let a = BigUint::from_hex("deadbeefcafebabe1234567890abcdef00112233").unwrap();
        let b = BigUint::from_hex("fedcba9876543210ffffffff").unwrap();
        let r = BigUint::from_hex("1234").unwrap();
        let prod = a.mul(&b).add(&r);
        let (q, rem) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert_eq!(rem, r);
    }

    #[test]
    fn div_rem_exercises_add_back_path() {
        // Values engineered so Algorithm D's rare D6 "add back" step runs:
        // classic trigger is dividend 0x7fff...8000...0000 style patterns.
        let u = BigUint {
            limbs: vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff],
        };
        let v = BigUint {
            limbs: vec![1, 0, 0x8000_0000_0000_0000],
        };
        let (q, r) = u.div_rem(&v);
        // Verify by reconstruction.
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r.cmp_big(&v) == Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_small_cases() {
        assert_eq!(n(2).mod_pow(&n(10), &n(1000)), n(24));
        assert_eq!(n(3).mod_pow(&n(0), &n(7)), n(1));
        assert_eq!(n(0).mod_pow(&n(5), &n(7)), n(0));
        // Fermat: a^(p-1) = 1 mod p
        assert_eq!(n(5).mod_pow(&n(12), &n(13)), n(1));
        // Even modulus falls back to the plain path.
        assert_eq!(n(3).mod_pow(&n(4), &n(16)), n(1));
        assert_eq!(n(7).mod_pow(&n(3), &n(10)), n(3));
    }

    #[test]
    fn mod_pow_matches_plain_on_big_odd_modulus() {
        let m = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
020bbea63b139b22514a08798e3404dd",
        )
        .unwrap();
        let base = BigUint::from_hex("abcdef0123456789").unwrap();
        let exp = BigUint::from_hex("10001").unwrap();
        assert_eq!(base.mod_pow(&exp, &m), base.mod_pow_plain(&exp, &m));
    }

    #[test]
    fn montgomery_matches_naive_mod_mul() {
        let m = BigUint::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let ctx = Montgomery::new(&m);
        let a = BigUint::from_hex("1234567890").unwrap();
        let b = BigUint::from_hex("fedcba98765432100").unwrap();
        let am = ctx.to_mont(&a.rem(&m));
        let bm = ctx.to_mont(&b.rem(&m));
        let prod = ctx.redc(&ctx.mont_mul(&am, &bm));
        assert_eq!(prod, a.mod_mul(&b, &m));
    }

    #[test]
    fn ladder_matches_plain_at_the_edges_of_an_all_ones_top_limb() {
        // RFC 3526 1536-bit prime: top limb all ones, so the kernel's
        // running sum uses the limb past k.
        let m = BigUint::from_hex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D\
6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5\
AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8\
FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D670C354E4ABC9804\
F1746C08CA237327FFFFFFFFFFFFFFFF",
        )
        .unwrap();
        let k = m.limbs.len();
        let r_minus_1 = BigUint::one().shl(64 * k).sub(&BigUint::one());
        let m_minus_1 = m.sub(&BigUint::one());
        let bases = [
            BigUint::zero(),
            BigUint::one(),
            m_minus_1.clone(),
            m.clone(),
            m.add(&BigUint::one()),
            // The widest base the kernel takes without reducing it first.
            r_minus_1.clone(),
            // Wider than R: reduced before it reaches the kernel.
            r_minus_1.mul(&r_minus_1),
        ];
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            n(0xf),
            m_minus_1.clone(),
            // One limb wider than the modulus.
            BigUint::one().shl(64 * (k + 1)).sub(&BigUint::one()),
        ];
        let ctx = Montgomery::new(&m);
        for base in &bases {
            for exp in &exps {
                let want = base.mod_pow_plain(exp, &m);
                assert_eq!(ctx.pow(base, exp), want, "{base:?}^{exp:?}");
                assert_eq!(base.mod_pow(exp, &m), want, "{base:?}^{exp:?}");
            }
        }
    }

    #[test]
    fn product_kernel_reduces_a_sum_past_r() {
        // n = 2^128 - 1: every operand near n drives the CIOS sum past R.
        let m = BigUint::one().shl(128).sub(&BigUint::one());
        let ctx = Montgomery::new(&m);
        let top = m.sub(&BigUint::one());
        for (a, b) in [(top.clone(), top.clone()), (top.clone(), n(1)), (n(2), top)] {
            let prod = ctx.redc(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            assert_eq!(prod, a.mod_mul(&b, &m));
        }
    }

    #[test]
    fn fixed_base_matches_mod_pow() {
        let m = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
020bbea63b139b22514a08798e3404dd",
        )
        .unwrap();
        let g = n(2);
        let fb = FixedBase::new(&g, &m, m.bit_len());
        let mut drbg = HmacDrbg::from_u64(424242);
        for _ in 0..20 {
            let exp = BigUint::random_below(&mut drbg, &m);
            assert_eq!(fb.pow(&exp), g.mod_pow(&exp, &m));
        }
        // Edge exponents.
        assert_eq!(fb.pow(&BigUint::zero()), BigUint::one());
        assert_eq!(fb.pow(&BigUint::one()), n(2));
        assert_eq!(fb.pow(&n(16)), n(65536));
    }

    #[test]
    fn fixed_base_falls_back_past_table_size() {
        let m = BigUint::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let g = n(3);
        // Table sized for 16-bit exponents only.
        let fb = FixedBase::new(&g, &m, 16);
        let big_exp = BigUint::from_hex("123456789abcdef01").unwrap();
        assert_eq!(fb.pow(&big_exp), g.mod_pow(&big_exp, &m));
        // In-range exponents use the table.
        assert_eq!(fb.pow(&n(0xffff)), g.mod_pow(&n(0xffff), &m));
    }

    #[test]
    fn fixed_base_zero_base() {
        let m = BigUint::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let fb = FixedBase::new(&BigUint::zero(), &m, 64);
        assert_eq!(fb.pow(&BigUint::zero()), BigUint::one());
        assert_eq!(fb.pow(&n(5)), BigUint::zero());
    }

    #[test]
    fn mod_inverse_basics() {
        let inv = n(3).mod_inverse(&n(11)).unwrap();
        assert_eq!(inv, n(4)); // 3*4 = 12 = 1 mod 11
        assert_eq!(n(3).mul(&inv).rem(&n(11)), n(1));
        // Non-invertible.
        assert_eq!(n(6).mod_inverse(&n(9)), Err(CryptoError::NotInvertible));
        assert_eq!(n(0).mod_inverse(&n(7)), Err(CryptoError::NotInvertible));
    }

    #[test]
    fn mod_inverse_large() {
        let m = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
020bbea63b139b22514a08798e3404ddef9519b3cd3a431b",
        )
        .unwrap();
        let a = BigUint::from_hex("deadbeef12345678900987654321").unwrap();
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!(a.mod_mul(&inv, &m), BigUint::one());
    }

    #[test]
    fn random_below_is_in_range_and_varies() {
        let mut drbg = HmacDrbg::from_u64(99);
        let bound = BigUint::from_hex("10000000000000001").unwrap();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let v = BigUint::random_below(&mut drbg, &bound);
            assert!(v.cmp_big(&bound) == Ordering::Less);
            distinct.insert(v.to_bytes_be());
        }
        assert!(distinct.len() > 40, "RNG output should vary");
    }

    #[test]
    fn miller_rabin_classifies_known_values() {
        let mut drbg = HmacDrbg::from_u64(7);
        for p in [2u64, 3, 5, 7, 13, 61, 2147483647] {
            assert!(n(p).is_probable_prime(16, &mut drbg), "{p} is prime");
        }
        for c in [1u64, 4, 9, 15, 21, 561, 41041, 2147483645] {
            assert!(!n(c).is_probable_prime(16, &mut drbg), "{c} is composite");
        }
        // A 128-bit prime (2^127 - 1, a Mersenne prime).
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(m127.is_probable_prime(12, &mut drbg));
        // 2^128 - 1 is composite.
        let c128 = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!c128.is_probable_prime(12, &mut drbg));
    }

    #[test]
    fn bit_access() {
        let x = BigUint::from_hex("8000000000000001").unwrap();
        assert!(x.bit(0));
        assert!(x.bit(63));
        assert!(!x.bit(1));
        assert!(!x.bit(64));
        assert_eq!(x.bit_len(), 64);
    }
}
