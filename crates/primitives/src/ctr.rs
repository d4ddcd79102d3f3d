//! AES-128 in counter (CTR) mode — NIST SP 800-38A.
//!
//! CTR turns the block cipher into a stream cipher: data items `M_i` of any
//! length are encrypted as `M XOR E_k(counter-blocks)`. The IV occupies the
//! first 12 bytes of the counter block; the last 4 bytes are a big-endian
//! block counter starting at 0 (messages are therefore limited to
//! 2^32 blocks = 64 GiB, far above anything in this workspace).

use crate::aes::{Aes128, BLOCK_LEN};

/// Length of the per-message IV in bytes.
pub const IV_LEN: usize = 12;

/// Which implementation produces the keystream. Resolved once per message
/// from what the CPU reports; both produce the same bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// [`Aes128::encrypt`] block by block.
    Portable,
    /// AES-NI, eight blocks abreast (see [`crate::x86`]).
    #[cfg(target_arch = "x86_64")]
    AesNi(crate::x86::AesNi),
}

impl Kernel {
    /// The fastest kernel this CPU supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::x86::AesNi::detect() {
            return Kernel::AesNi(hw);
        }
        Kernel::Portable
    }

    /// Every kernel that can run here, `Portable` first (for the tests).
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            all.push(Kernel::detect());
        }
        all
    }
}

/// AES-128-CTR keystream generator / cipher.
pub struct AesCtr {
    aes: Aes128,
    iv: [u8; IV_LEN],
    next_block_index: u32,
    kernel: Kernel,
}

impl AesCtr {
    /// Create a CTR instance for one message under `key` and `iv`.
    #[must_use]
    pub fn new(key: &[u8; 16], iv: &[u8; IV_LEN]) -> Self {
        Self::with_kernel(key, iv, Kernel::detect())
    }

    pub(crate) fn with_kernel(key: &[u8; 16], iv: &[u8; IV_LEN], kernel: Kernel) -> Self {
        Self::with_cipher(Aes128::new(key), iv, kernel)
    }

    /// A CTR instance on an already expanded key, for callers that keep
    /// the key schedule across messages.
    pub(crate) fn with_cipher(aes: Aes128, iv: &[u8; IV_LEN], kernel: Kernel) -> Self {
        AesCtr {
            aes,
            iv: *iv,
            next_block_index: 0,
            kernel,
        }
    }

    /// XOR the keystream into `data` (encrypts or decrypts). Every call
    /// starts on a fresh keystream block: a trailing partial block uses up
    /// the whole of its keystream block.
    ///
    /// # Panics
    /// Panics if the message would need more than 2^32 keystream blocks.
    pub fn apply(&mut self, data: &mut [u8]) {
        let first = self.next_block_index;
        self.next_block_index = u32::try_from(data.len().div_ceil(BLOCK_LEN))
            .ok()
            .and_then(|blocks| first.checked_add(blocks))
            .expect("CTR counter overflow: message too long");
        match self.kernel {
            Kernel::Portable => {
                let mut counter_block = [0u8; BLOCK_LEN];
                counter_block[..IV_LEN].copy_from_slice(&self.iv);
                for (chunk, index) in data.chunks_mut(BLOCK_LEN).zip(first..) {
                    counter_block[IV_LEN..].copy_from_slice(&index.to_be_bytes());
                    let ks = self.aes.encrypt(&counter_block);
                    for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                        *d ^= k;
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::AesNi(hw) => hw.ctr_xor(self.aes.round_keys(), &self.iv, first, data),
        }
    }
}

/// Encrypt `plaintext` under (`key`, `iv`), returning a fresh ciphertext.
#[must_use]
pub fn ctr_encrypt(key: &[u8; 16], iv: &[u8; IV_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut data = plaintext.to_vec();
    AesCtr::new(key, iv).apply(&mut data);
    data
}

/// Decrypt is identical to encrypt in CTR mode; provided for readability.
#[must_use]
pub fn ctr_decrypt(key: &[u8; 16], iv: &[u8; IV_LEN], ciphertext: &[u8]) -> Vec<u8> {
    ctr_encrypt(key, iv, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// SP 800-38A F.5.1 CTR-AES128, all four blocks, on every kernel. The
    /// vector's 16-byte initial counter `f0f1..ff` splits into our IV (first
    /// 12 bytes) and an initial block counter of 0xfcfdfeff; the counter's
    /// low 32 bits increment just like the NIST one (…ff → …ff00 carries
    /// across two bytes on the way).
    #[test]
    fn sp800_38a_f51_all_four_blocks() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv: [u8; 12] = [
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb,
        ];
        let plaintext = unhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let want = "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
                    5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee";
        for kernel in Kernel::all() {
            let mut ctr = AesCtr::with_kernel(&key, &iv, kernel);
            ctr.next_block_index = 0xfcfd_feff;
            let mut data = plaintext.clone();
            ctr.apply(&mut data);
            assert_eq!(hex(&data), want, "{kernel:?}");
            // Block by block walks the same counters.
            let mut ctr = AesCtr::with_kernel(&key, &iv, kernel);
            ctr.next_block_index = 0xfcfd_feff;
            let mut data = plaintext.clone();
            for block in data.chunks_mut(BLOCK_LEN) {
                ctr.apply(block);
            }
            assert_eq!(hex(&data), want, "{kernel:?}, block by block");
        }
    }

    /// Every length through two 8-block strides, so every tail length
    /// 0-7 blocks with and without a partial last block, on every kernel.
    /// Starting at 0xfc puts the counter's byte carry (0xff -> 0x100)
    /// inside the tail of every message shorter than 8 blocks.
    #[test]
    fn kernels_agree_on_every_tail_length() {
        let key = [0x2bu8; 16];
        let iv = [0xf0u8; IV_LEN];
        let data: Vec<u8> = (0..=200u8).map(|i| i.wrapping_mul(37)).collect();
        for start in [0, 0x0000_00fc] {
            for len in 0..=200 {
                let mut want = data[..len].to_vec();
                let mut reference = AesCtr::with_kernel(&key, &iv, Kernel::Portable);
                reference.next_block_index = start;
                reference.apply(&mut want);
                for kernel in Kernel::all() {
                    let mut got = data[..len].to_vec();
                    let mut ctr = AesCtr::with_kernel(&key, &iv, kernel);
                    ctr.next_block_index = start;
                    ctr.apply(&mut got);
                    assert_eq!(got, want, "{kernel:?}, start {start:#x}, len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "CTR counter overflow")]
    fn counter_wrap_is_refused_up_front() {
        let mut ctr = AesCtr::new(&[1u8; 16], &[2u8; 12]);
        ctr.next_block_index = u32::MAX - 1;
        ctr.apply(&mut [0u8; 33]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential: every kernel produces the portable kernel's bytes
        /// for random keys, IVs, lengths (through the 8-block main loop,
        /// the block-at-a-time tail and a partial last block), starting
        /// block counters, and a block-aligned split into two calls.
        #[test]
        fn kernels_agree_on_random_messages_and_counters(
            key in any::<[u8; 16]>(),
            iv in any::<[u8; IV_LEN]>(),
            data in prop::collection::vec(any::<u8>(), 0..700),
            start in any::<u32>(),
            split_block in any::<usize>(),
        ) {
            // Leave room for the message below the 2^32-block limit.
            let start = start.min(u32::MAX - 64);
            let split = (split_block % (data.len() / BLOCK_LEN + 1)) * BLOCK_LEN;
            let mut want = data.clone();
            let mut reference = AesCtr::with_kernel(&key, &iv, Kernel::Portable);
            reference.next_block_index = start;
            reference.apply(&mut want);
            for kernel in Kernel::all() {
                let mut got = data.clone();
                let mut ctr = AesCtr::with_kernel(&key, &iv, kernel);
                ctr.next_block_index = start;
                let (a, b) = got.split_at_mut(split);
                ctr.apply(a);
                ctr.apply(b);
                prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    fn round_trip_various_lengths() {
        let key = [0x11u8; 16];
        let iv = [0x22u8; 12];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = ctr_encrypt(&key, &iv, &pt);
            assert_eq!(ct.len(), pt.len());
            if len > 0 {
                assert_ne!(ct, pt, "length {len}");
            }
            assert_eq!(ctr_decrypt(&key, &iv, &ct), pt, "length {len}");
        }
    }

    #[test]
    fn distinct_ivs_give_distinct_ciphertexts() {
        let key = [0x33u8; 16];
        let pt = vec![0u8; 64];
        let c1 = ctr_encrypt(&key, &[0u8; 12], &pt);
        let c2 = ctr_encrypt(&key, &[1u8; 12], &pt);
        assert_ne!(c1, c2);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [0x44u8; 16];
        let iv = [0x55u8; 12];
        let pt: Vec<u8> = (0..123u8).collect();
        let oneshot = ctr_encrypt(&key, &iv, &pt);
        // Applying in two chunks must give the same result only when chunk
        // sizes are multiples of the block size (CTR state is per block).
        let mut data = pt.clone();
        let mut c = AesCtr::new(&key, &iv);
        let (a, b) = data.split_at_mut(48);
        c.apply(a);
        c.apply(b);
        assert_eq!(data, oneshot);
    }
}
