//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Provides both a one-shot [`sha256`] function and an incremental
//! [`Sha256`] hasher. This is the hash underlying the paper's PRF `f`
//! (via HMAC), the Lamport chain `h`, and the key-derivation function.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (also HMAC's block size for SHA-256).
pub const BLOCK_LEN: usize = 64;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which implementation of the compression function a hasher uses.
///
/// Resolved once per message (or per chain walk) by [`Kernel::detect`] from
/// what the CPU reports — there is no switch to set. Every kernel computes
/// the same function; `Portable` is the path on non-x86-64 targets and the
/// oracle the hardware path is tested against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The scalar code in this module.
    Portable,
    /// SHA-NI (see [`crate::x86`]).
    #[cfg(target_arch = "x86_64")]
    ShaNi(crate::x86::ShaNi),
}

impl Kernel {
    /// The fastest kernel this CPU supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::x86::ShaNi::detect() {
            return Kernel::ShaNi(hw);
        }
        Kernel::Portable
    }

    /// Every kernel that can run here, `Portable` first — what the
    /// known-answer and differential tests iterate over.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            all.push(Kernel::detect());
        }
        all
    }

    /// Fold each 64-byte block of `blocks` (a whole number of them) into
    /// `state`.
    pub(crate) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            Kernel::Portable => {
                debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
                for block in blocks.chunks_exact(BLOCK_LEN) {
                    compress(state, block.try_into().expect("chunks_exact(64)"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(hw) => hw.compress_blocks(state, blocks),
        }
    }

    /// Fold `blocks[i]` into `states[i]` for two independent hashes at
    /// once; the hardware kernel runs the two in lock-step.
    pub(crate) fn compress2(self, states: &mut [[u32; 8]; 2], blocks: [&[u8; BLOCK_LEN]; 2]) {
        match self {
            Kernel::Portable => {
                compress(&mut states[0], blocks[0]);
                compress(&mut states[1], blocks[1]);
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(hw) => hw.compress2(states, blocks),
        }
    }

    /// Digests of two messages that are each one already-padded block.
    pub(crate) fn digest_padded_block2(
        self,
        blocks: [&[u8; BLOCK_LEN]; 2],
    ) -> [[u8; DIGEST_LEN]; 2] {
        let mut states = [H0; 2];
        self.compress2(&mut states, blocks);
        [state_bytes(&states[0]), state_bytes(&states[1])]
    }

    /// Digest of a message that is one already-padded block.
    pub(crate) fn digest_padded_block(self, block: &[u8; BLOCK_LEN]) -> [u8; DIGEST_LEN] {
        let mut state = H0;
        self.compress_blocks(&mut state, block);
        state_bytes(&state)
    }
}

/// Big-endian serialisation of the hash state.
fn state_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use sse_primitives::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes absorbed so far (buffered included).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    /// A fresh hasher on a given compression kernel.
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            kernel,
        }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self
            .len
            .checked_add(data.len() as u64)
            .expect("SHA-256 message length overflow");
        // Top up a partially filled buffer first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            self.kernel.compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // The run of whole blocks, straight from the input.
        let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            self.kernel.compress_blocks(&mut self.state, blocks);
        }
        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding, in place: 0x80, zeros, then the 64-bit big-endian bit
        // length in the last eight bytes of a block — the next block if
        // fewer than eight are free in this one.
        const LEN_AT: usize = BLOCK_LEN - 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= LEN_AT {
            self.kernel.compress_blocks(&mut self.state, &self.buf);
            self.buf = [0u8; BLOCK_LEN];
        }
        let bit_len = self.len.wrapping_mul(8);
        self.buf[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress_blocks(&mut self.state, &self.buf);
        state_bytes(&self.state)
    }
}

/// The portable compression function (FIPS 180-4 §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several parts, without
/// materializing the concatenation.
#[must_use]
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn digest_on(kernel: Kernel, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    /// Known-answer check on every kernel this machine can run (the
    /// portable one always, the hardware one where detected).
    fn assert_digest(data: &[u8], want: &str) {
        for kernel in Kernel::all() {
            assert_eq!(hex(&digest_on(kernel, data)), want, "{kernel:?}");
        }
        assert_eq!(hex(&sha256(data)), want);
    }

    // FIPS 180-4 / NIST CAVP short-message vectors.
    #[test]
    fn empty_message() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn four_block_message() {
        let m = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_digest(
            m,
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        let m = vec![b'a'; 1_000_000];
        assert_digest(
            &m,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn exact_block_boundary() {
        // 64-byte message exercises the "padding needs a second block" path.
        let m = [0x61u8; 64];
        for kernel in Kernel::all() {
            let one_shot = digest_on(kernel, &m);
            let mut inc = Sha256::with_kernel(kernel);
            inc.update(&m[..1]);
            inc.update(&m[1..]);
            assert_eq!(inc.finalize(), one_shot, "{kernel:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_for_all_split_points() {
        let msg: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        for kernel in Kernel::all() {
            let want = digest_on(kernel, &msg);
            for split in 0..msg.len() {
                let mut h = Sha256::with_kernel(kernel);
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "{kernel:?}, split at {split}");
            }
        }
    }

    #[test]
    fn concat_helper_matches_manual_concat() {
        let a = b"hello ";
        let b = b"world";
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        assert_eq!(sha256_concat(&[a, b]), sha256(&joined));
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_messages() {
        // 55 bytes: padding fits in one block; 56 bytes: needs an extra block.
        for kernel in Kernel::all() {
            for n in [55usize, 56, 57, 63, 64, 65] {
                let m = vec![0xabu8; n];
                let d1 = digest_on(kernel, &m);
                let mut h = Sha256::with_kernel(kernel);
                for chunk in m.chunks(7) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), d1, "{kernel:?}, length {n}");
            }
        }
    }

    #[test]
    fn padded_block_digests_match_the_streaming_hasher() {
        // "abc" padded by hand: 0x80, zeros, bit length 24.
        let mut abc = [0u8; BLOCK_LEN];
        abc[..3].copy_from_slice(b"abc");
        abc[3] = 0x80;
        abc[63] = 24;
        let mut empty = [0u8; BLOCK_LEN];
        empty[0] = 0x80;
        for kernel in Kernel::all() {
            assert_eq!(
                kernel.digest_padded_block(&abc),
                sha256(b"abc"),
                "{kernel:?}"
            );
            assert_eq!(
                kernel.digest_padded_block2([&abc, &empty]),
                [sha256(b"abc"), sha256(b"")],
                "{kernel:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential: every kernel agrees with the portable one on
        /// random messages fed in two pieces at a random split point.
        #[test]
        fn kernels_agree_on_random_messages_and_splits(
            msg in prop::collection::vec(any::<u8>(), 0..700),
            split in any::<usize>(),
        ) {
            let split = split % (msg.len() + 1);
            let want = digest_on(Kernel::Portable, &msg);
            for kernel in Kernel::all() {
                let mut h = Sha256::with_kernel(kernel);
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                prop_assert_eq!(h.finalize(), want);
            }
        }

        /// Differential: the two-lane compression equals two one-lane
        /// portable compressions, from arbitrary states.
        #[test]
        fn two_lane_compress_matches_portable(
            a in any::<[u8; BLOCK_LEN]>(),
            b in any::<[u8; BLOCK_LEN]>(),
            start in any::<[[u32; 8]; 2]>(),
        ) {
            let blocks = [&a, &b];
            let mut want = start;
            Kernel::Portable.compress2(&mut want, blocks);
            for kernel in Kernel::all() {
                let mut got = start;
                kernel.compress2(&mut got, blocks);
                prop_assert_eq!(got, want);
            }
        }
    }
}
