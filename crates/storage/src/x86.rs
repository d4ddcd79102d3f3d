//! x86-64 hardware kernel: CRC-32 by carry-less multiplication
//! (PCLMULQDQ).
//!
//! This is the only module of the crate allowed to contain `unsafe`. Two
//! things need it: calling a `#[target_feature]` function from code
//! compiled without that feature, and the unaligned vector loads. Both are
//! confined here behind one *capability token*: a [`Clmul`] can only be
//! obtained from [`Clmul::detect`], which returns `Some` only when
//! `is_x86_feature_detected!` reports every instruction-set extension the
//! kernel is compiled for. Holding a token is the proof the kernel may
//! run, so its method is safe, and a checksum resolves the question once
//! instead of once per block.
//!
//! The kernel is the folding method of Gopal et al., "Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), for
//! the bit-reflected polynomial 0xEDB88320: four 128-bit lanes are folded
//! 64 bytes at a time, the lanes are folded into one, the 128-bit remainder
//! is folded to 64 bits and Barrett-reduced to the 32-bit CRC. It computes
//! exactly what the portable code in [`crate::crc32`] computes; that code is
//! the path on every other architecture and for short inputs, and the
//! oracle of the differential tests.

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
};

/// Bytes folded per iteration of the main loop (four 16-byte lanes), and
/// the shortest input the kernel takes.
pub(crate) const FOLD_BYTES: usize = 64;

/// Folding constants for 0xEDB88320, bit-reflected, as `(low, high)`
/// 64-bit halves: `x^(4·128+32) mod P`, `x^(4·128-32) mod P` (fold by four
/// lanes) …
const K1K2: (i64, i64) = (0x01_5444_2bd4, 0x01_c6e4_1596);
/// … `x^(128+32) mod P`, `x^(128-32) mod P` (fold by one lane) …
const K3K4: (i64, i64) = (0x01_7519_97d0, 0xccaa_009e);
/// … `x^64 mod P` (128 → 64 bits) …
const K5: i64 = 0x01_63cd_6124;
/// … and the Barrett pair: `P` itself and `floor(x^64 / P)`, both
/// bit-reflected with their implicit top bit.
const POLY_MU: (i64, i64) = (0x01_db71_0641, 0x01_f701_1641);

/// Proof that this CPU has PCLMULQDQ plus the SSE level the CRC kernel is
/// compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Clmul(());

impl Clmul {
    /// `Some` iff the carry-less-multiply kernel may run on this CPU.
    pub(crate) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
            .then_some(Clmul(()))
    }

    /// Advance the CRC register `state` (pre-inverted, as
    /// [`crate::crc32::Crc32`] keeps it) over `data`.
    ///
    /// # Panics
    /// Panics unless `data` is a whole number of 16-byte blocks and at
    /// least [`FOLD_BYTES`] long.
    pub(crate) fn update(self, state: u32, data: &[u8]) -> u32 {
        assert!(
            data.len() >= FOLD_BYTES && data.len().is_multiple_of(16),
            "whole 16-byte blocks, at least {FOLD_BYTES} bytes"
        );
        // SAFETY: a `Clmul` is only ever built by `detect`, which checked
        // every feature `clmul_update` enables.
        unsafe { clmul_update(state, data) }
    }
}

/// Unaligned load of the 16 bytes of `data` at `off`.
#[inline]
fn load(data: &[u8], off: usize) -> __m128i {
    let block: &[u8; 16] = data[off..off + 16]
        .try_into()
        .expect("a 16-byte range is a [u8; 16]");
    // SAFETY: `block` is a valid reference to 16 readable bytes and
    // `_mm_loadu_si128` has no alignment requirement. SSE2 is part of the
    // x86-64 baseline, so the instruction exists on every CPU this module
    // is compiled for.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Fold the 128-bit remainder `x` forward over one 16-byte distance set by
/// `k`, and absorb `next`.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(x, k);
    let hi = _mm_clmulepi64_si128::<0x11>(x, k);
    _mm_xor_si128(_mm_xor_si128(hi, lo), next)
}

#[target_feature(enable = "pclmulqdq,sse4.1")]
fn clmul_update(state: u32, data: &[u8]) -> u32 {
    let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
    let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);

    // Four lanes over the first 64 bytes, the register folded into lane 0.
    let mut x = [
        load(data, 0),
        load(data, 16),
        load(data, 32),
        load(data, 48),
    ];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let mut off = FOLD_BYTES;
    while off + FOLD_BYTES <= data.len() {
        for (lane, x) in x.iter_mut().enumerate() {
            *x = fold(*x, k1k2, load(data, off + 16 * lane));
        }
        off += FOLD_BYTES;
    }

    // Lanes 1..4 into lane 0, then whatever 16-byte blocks are left.
    let mut acc = fold(x[0], k3k4, x[1]);
    acc = fold(acc, k3k4, x[2]);
    acc = fold(acc, k3k4, x[3]);
    while off < data.len() {
        acc = fold(acc, k3k4, load(data, off));
        off += 16;
    }

    // 128 → 64 bits: the low half times x^64 into the high half, then the
    // low 32 bits of that times x^32.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let mut r = _mm_xor_si128(
        _mm_srli_si128::<8>(acc),
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
    );
    let k5 = _mm_set_epi64x(0, K5);
    r = _mm_xor_si128(
        _mm_srli_si128::<4>(r),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), k5),
    );

    // Barrett reduction to 32 bits.
    let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
    let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), poly_mu);
    t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
    _mm_extract_epi32::<1>(_mm_xor_si128(r, t)) as u32
}
