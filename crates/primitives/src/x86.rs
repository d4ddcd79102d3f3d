//! x86-64 hardware kernels: SHA-NI SHA-256 compression and AES-NI CTR
//! keystream.
//!
//! This is the only module of the crate allowed to contain `unsafe`. Two
//! things need it: calling a `#[target_feature]` function from code
//! compiled without that feature, and the unaligned vector loads and
//! stores. Both are confined here behind two *capability tokens*:
//! [`ShaNi`] and [`AesNi`] can only be obtained from their `detect`
//! constructors, which return `Some` only when `is_x86_feature_detected!`
//! reports every instruction-set extension the kernel behind the token is
//! compiled for. Holding a token is the proof the kernel may run, so the
//! token's methods are safe, and a caller resolves the question once (per
//! message, per chain walk) instead of once per block.
//!
//! The kernels compute exactly what the portable code in [`crate::sha256`]
//! and [`crate::aes`] computes — the portable code is the path on every
//! other architecture and the oracle of the differential tests.

use crate::sha256::{BLOCK_LEN, K};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_alignr_epi8,
    _mm_blend_epi16, _mm_insert_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

/// Unaligned 16-byte load.
#[inline]
fn load128(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a valid reference to 16 readable bytes and
    // `_mm_loadu_si128` has no alignment requirement. SSE2 is part of the
    // x86-64 baseline, so the instruction exists on every CPU this module
    // is compiled for.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned 16-byte store.
#[inline]
fn store128(out: &mut [u8; 16], v: __m128i) {
    // SAFETY: `out` is a valid exclusive reference to 16 writable bytes and
    // `_mm_storeu_si128` has no alignment requirement (SSE2, as above).
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
}

/// Load the four state words `state[off..off + 4]` into lanes 0..4.
#[inline]
fn load_words(state: &[u32; 8], off: usize) -> __m128i {
    let words = &state[off..off + 4];
    // SAFETY: `words` is a bounds-checked slice of four `u32`s, i.e. 16
    // readable bytes, and the load is unaligned.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

/// Store lanes 0..4 of `v` to `state[off..off + 4]`.
#[inline]
fn store_words(state: &mut [u32; 8], off: usize, v: __m128i) {
    let words = &mut state[off..off + 4];
    // SAFETY: `words` is a bounds-checked exclusive slice of four `u32`s,
    // i.e. 16 writable bytes, and the store is unaligned.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
}

/// The 16 bytes of `bytes` starting at `off`.
#[inline]
fn window(bytes: &[u8], off: usize) -> &[u8; 16] {
    bytes[off..off + 16]
        .try_into()
        .expect("a 16-byte range is a [u8; 16]")
}

/// Mutable variant of [`window`].
#[inline]
fn window_mut(bytes: &mut [u8], off: usize) -> &mut [u8; 16] {
    (&mut bytes[off..off + 16])
        .try_into()
        .expect("a 16-byte range is a [u8; 16]")
}

// ---------------------------------------------------------------------------
// SHA-256 (SHA-NI)
// ---------------------------------------------------------------------------

/// Proof that this CPU has the SHA extensions plus the SSE levels the
/// compression kernel is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` iff the SHA-NI kernels may run on this CPU.
    pub(crate) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Fold every 64-byte block of `blocks` into `state` (FIPS 180-4 §6.2.2).
    ///
    /// # Panics
    /// Panics if `blocks.len()` is not a multiple of 64.
    pub(crate) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        assert_eq!(blocks.len() % BLOCK_LEN, 0, "whole blocks only");
        // SAFETY: a `ShaNi` is only ever built by `detect`, which checked
        // every feature `sha_compress_blocks` enables.
        unsafe { sha_compress_blocks(state, blocks) }
    }

    /// Fold `blocks[i]` into `states[i]` for two independent lanes in
    /// lock-step: the two dependency chains interleave in the pipeline, so
    /// the pair costs little more than one compression.
    pub(crate) fn compress2(self, states: &mut [[u32; 8]; 2], blocks: [&[u8; BLOCK_LEN]; 2]) {
        // SAFETY: as in `compress_blocks`.
        unsafe { sha_compress2(states, blocks) }
    }
}

/// One SHA-256 state in the register layout `sha256rnds2` wants, plus the
/// rolling four-register message schedule.
struct Lane {
    abef: __m128i,
    cdgh: __m128i,
    m: [__m128i; 4],
}

impl Lane {
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn load(state: &[u32; 8]) -> Self {
        let lo = load_words(state, 0); // lanes a b c d
        let hi = load_words(state, 4); // lanes e f g h
        let cdab = _mm_shuffle_epi32::<0xB1>(lo);
        let efgh = _mm_shuffle_epi32::<0x1B>(hi);
        Lane {
            abef: _mm_alignr_epi8::<8>(cdab, efgh),
            cdgh: _mm_blend_epi16::<0xF0>(efgh, cdab),
            m: [_mm_set_epi32(0, 0, 0, 0); 4],
        }
    }

    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn store(&self, state: &mut [u32; 8]) {
        let feba = _mm_shuffle_epi32::<0x1B>(self.abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(self.cdgh);
        store_words(state, 0, _mm_blend_epi16::<0xF0>(feba, dchg));
        store_words(state, 4, _mm_alignr_epi8::<8>(dchg, feba));
    }

    /// Rounds `4·I .. 4·I+4` of one block. `I` is a constant so that the
    /// schedule bookkeeping (`I % 4`, which steps exist for which `I`)
    /// folds away and `m` stays in registers.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn group<const I: usize>(&mut self, block: &[u8; BLOCK_LEN]) {
        let cur = I % 4;
        let next = (I + 1) % 4;
        let prev = (I + 3) % 4;
        if I < 4 {
            // Big-endian message words.
            let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            self.m[cur] = _mm_shuffle_epi8(load128(window(block, 16 * I)), bswap);
        }
        let k = _mm_set_epi32(
            K[4 * I + 3] as i32,
            K[4 * I + 2] as i32,
            K[4 * I + 1] as i32,
            K[4 * I] as i32,
        );
        let wk = _mm_add_epi32(self.m[cur], k);
        self.cdgh = _mm_sha256rnds2_epu32(self.cdgh, self.abef, wk);
        if (3..15).contains(&I) {
            // Finish W[4(I+1) .. 4(I+1)+4]: add W[t-7], then σ1 of W[t-2].
            let w_minus_7 = _mm_alignr_epi8::<4>(self.m[cur], self.m[prev]);
            self.m[next] =
                _mm_sha256msg2_epu32(_mm_add_epi32(self.m[next], w_minus_7), self.m[cur]);
        }
        self.abef = _mm_sha256rnds2_epu32(self.abef, self.cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        if (1..13).contains(&I) {
            // Start W[4(I+3) ..]: W[t-16] + σ0(W[t-15]).
            self.m[prev] = _mm_sha256msg1_epu32(self.m[prev], self.m[cur]);
        }
    }
}

/// Expand `body` once per round group `0..16` (the kernels are straight-line
/// code: 64 rounds, no loop counter).
macro_rules! sixteen_groups {
    (|$i:ident| $body:block) => {
        sixteen_groups!(@ $i $body 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@ $i:ident $body:block $($n:literal)+) => {
        $({ const $i: usize = $n; $body })+
    };
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let mut lane = Lane::load(state);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let block: &[u8; BLOCK_LEN] = block.try_into().expect("chunks_exact(64)");
        let (abef, cdgh) = (lane.abef, lane.cdgh);
        sixteen_groups!(|I| {
            lane.group::<I>(block);
        });
        lane.abef = _mm_add_epi32(lane.abef, abef);
        lane.cdgh = _mm_add_epi32(lane.cdgh, cdgh);
    }
    lane.store(state);
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha_compress2(states: &mut [[u32; 8]; 2], blocks: [&[u8; BLOCK_LEN]; 2]) {
    let mut a = Lane::load(&states[0]);
    let mut b = Lane::load(&states[1]);
    let (a_abef, a_cdgh, b_abef, b_cdgh) = (a.abef, a.cdgh, b.abef, b.cdgh);
    sixteen_groups!(|I| {
        a.group::<I>(blocks[0]);
        b.group::<I>(blocks[1]);
    });
    a.abef = _mm_add_epi32(a.abef, a_abef);
    a.cdgh = _mm_add_epi32(a.cdgh, a_cdgh);
    b.abef = _mm_add_epi32(b.abef, b_abef);
    b.cdgh = _mm_add_epi32(b.cdgh, b_cdgh);
    a.store(&mut states[0]);
    b.store(&mut states[1]);
}

// ---------------------------------------------------------------------------
// AES-128-CTR (AES-NI)
// ---------------------------------------------------------------------------

/// Proof that this CPU has AES-NI plus SSE4.1 (for the counter insert).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AesNi(());

/// Blocks encrypted per pass, main loop and tail alike: enough
/// independent `aesenc` chains to cover the instruction's latency.
const CTR_LANES: usize = 8;

impl AesNi {
    /// `Some` iff the AES-NI kernel may run on this CPU.
    pub(crate) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1")).then_some(AesNi(()))
    }

    /// XOR the AES-128-CTR keystream into `data`: keystream block `i` is
    /// `E(iv ‖ be32(first_block + i))` under the expanded `round_keys`; a
    /// trailing partial block uses a prefix of its keystream block. The
    /// caller has already checked that the counter does not wrap.
    pub(crate) fn ctr_xor(
        self,
        round_keys: &[[u8; 16]; 11],
        iv: &[u8; 12],
        first_block: u32,
        data: &mut [u8],
    ) {
        // SAFETY: an `AesNi` is only ever built by `detect`, which checked
        // every feature `aes_ctr_xor` enables.
        unsafe { aes_ctr_xor(round_keys, iv, first_block, data) }
    }
}

/// Keystream blocks `ctr .. ctr + CTR_LANES` (counters wrap; the caller
/// discards any it does not need), as eight independent `aesenc` chains.
#[inline]
#[target_feature(enable = "aes,sse4.1")]
fn keystream8(rk: &[__m128i; 11], iv_block: __m128i, ctr: u32) -> [__m128i; CTR_LANES] {
    let mut b = [iv_block; CTR_LANES];
    for (x, i) in b.iter_mut().zip(0u32..) {
        // Counter in the last four bytes, big-endian; fold in round key 0.
        let counter = ctr.wrapping_add(i).swap_bytes() as i32;
        *x = _mm_xor_si128(_mm_insert_epi32::<3>(*x, counter), rk[0]);
    }
    for k in &rk[1..10] {
        for x in &mut b {
            *x = _mm_aesenc_si128(*x, *k);
        }
    }
    for x in &mut b {
        *x = _mm_aesenclast_si128(*x, rk[10]);
    }
    b
}

#[target_feature(enable = "aes,sse4.1")]
fn aes_ctr_xor(round_keys: &[[u8; 16]; 11], iv: &[u8; 12], first_block: u32, data: &mut [u8]) {
    let mut rk = [_mm_set_epi32(0, 0, 0, 0); 11];
    for (r, bytes) in rk.iter_mut().zip(round_keys) {
        *r = load128(bytes);
    }
    let mut iv_block = [0u8; 16];
    iv_block[..12].copy_from_slice(iv);
    let iv_block = load128(&iv_block);
    let mut ctr = first_block;

    let mut wide = data.chunks_exact_mut(16 * CTR_LANES);
    for chunk in &mut wide {
        for (j, ks) in keystream8(&rk, iv_block, ctr).into_iter().enumerate() {
            let out = window_mut(chunk, 16 * j);
            store128(out, _mm_xor_si128(load128(out), ks));
        }
        ctr = ctr.wrapping_add(CTR_LANES as u32);
    }

    // The 1-7 trailing blocks (all of a short message) in one eight-lane
    // pass: a serial chain per block would cost each block the full
    // `aesenc` latency.
    let tail = wide.into_remainder();
    if !tail.is_empty() {
        let mut ks = [0u8; 16 * CTR_LANES];
        for (j, block) in keystream8(&rk, iv_block, ctr).into_iter().enumerate() {
            store128(window_mut(&mut ks, 16 * j), block);
        }
        for (d, k) in tail.iter_mut().zip(ks) {
            *d ^= k;
        }
    }
}
