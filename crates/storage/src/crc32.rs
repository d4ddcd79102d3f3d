//! CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320).
//!
//! Frames every WAL record and snapshot section so that torn writes and
//! bit rot are detected on replay instead of silently corrupting the
//! server's document store.
//!
//! Two kernels compute the same function. On x86-64 CPUs with PCLMULQDQ,
//! inputs of 64 bytes or more are folded by carry-less multiplication
//! (`crate::x86`, ~13-15 GB/s on a 2-vCPU Xeon host); everything else —
//! shorter inputs, the sub-16-byte tail of longer ones, and every other
//! CPU — goes through a slice-by-16 table loop that consumes 16 bytes per
//! step (~1.5-2 GB/s there; the byte-at-a-time loop it replaced ran at
//! 0.3 GB/s). The kernel is resolved once per checksum ([`Crc32::new`])
//! from what the CPU reports; there is no switch to set.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so sixteen lookups advance
/// the register over sixteen bytes at once.
static TABLES: [[u32; 256]; 16] = build_tables();

/// Build the slice-by-16 lookup tables at compile time.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Advance the register over `data` with the portable slice-by-16 loop.
fn update_portable(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let w = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        state = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &byte in blocks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(byte)) & 0xFF) as usize];
    }
    state
}

/// Which implementation advances a [`Crc32`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Slice-by-16 tables, every CPU.
    Portable,
    /// PCLMULQDQ folding (see `crate::x86`) for the 16-byte blocks of
    /// long inputs, slice-by-16 for the rest.
    #[cfg(target_arch = "x86_64")]
    Clmul(crate::x86::Clmul),
}

impl Kernel {
    /// The fastest kernel this CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::x86::Clmul::detect() {
            return Kernel::Clmul(hw);
        }
        Kernel::Portable
    }

    fn update(self, state: u32, data: &[u8]) -> u32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Clmul(hw) if data.len() >= crate::x86::FOLD_BYTES => {
                let (blocks, tail) = data.split_at(data.len() & !15);
                update_portable(hw.update(state, blocks), tail)
            }
            _ => update_portable(state, data),
        }
    }
}

/// Streaming CRC-32 state.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
    kernel: Kernel,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a new checksum.
    #[must_use]
    pub fn new() -> Self {
        Crc32 {
            state: 0xFFFF_FFFF,
            kernel: Kernel::detect(),
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = self.kernel.update(self.state, data);
    }

    /// Final checksum value.
    #[must_use]
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop both kernels replaced: the oracle.
    fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state
    }

    /// Every kernel that can run here, `Portable` first.
    fn kernels() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        if Kernel::detect() != Kernel::Portable {
            all.push(Kernel::detect());
        }
        all
    }

    /// The one-shot CRC of `data` through `kernel`.
    fn crc_on(kernel: Kernel, data: &[u8]) -> u32 {
        kernel.update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    fn oracle(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn check_value() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(oracle(b"123456789"), 0xCBF4_3926);
        for kernel in kernels() {
            assert_eq!(crc_on(kernel, b"123456789"), 0xCBF4_3926, "{kernel:?}");
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_strings() {
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for the hardware kernel's fold loop.
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let want = crc32(&data);
        let mut c = Crc32::new();
        for chunk in data.chunks(17) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), want);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x5Au8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn every_length_and_offset_matches_the_oracle() {
        // Lengths across every fold-loop, block-loop and tail shape of the
        // hardware kernel, at every 16-byte alignment of the start.
        let buf: Vec<u8> = (0..4160 + 16u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..16 {
            // The oracle's register after each prefix, one byte at a time.
            let mut state = 0xFFFF_FFFF;
            for len in 0..=4160 {
                let data = &buf[offset..offset + len];
                if len > 0 {
                    state = update_bytewise(state, &data[len - 1..]);
                }
                let want = state ^ 0xFFFF_FFFF;
                for kernel in kernels() {
                    assert_eq!(
                        crc_on(kernel, data),
                        want,
                        "{kernel:?} len {len} offset {offset}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_data_matches_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..9000),
        ) {
            let want = oracle(&data);
            for kernel in kernels() {
                prop_assert_eq!(crc_on(kernel, &data), want);
            }
            prop_assert_eq!(crc32(&data), want);
        }

        #[test]
        fn arbitrary_splits_match_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            cuts in proptest::collection::vec(any::<u16>(), 0..8),
        ) {
            let want = oracle(&data);
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| usize::from(c) % (data.len() + 1))
                .collect();
            cuts.sort_unstable();
            for kernel in kernels() {
                let mut c = Crc32 { state: 0xFFFF_FFFF, kernel };
                let mut at = 0;
                for &cut in &cuts {
                    c.update(&data[at..cut]);
                    at = cut;
                }
                c.update(&data[at..]);
                prop_assert_eq!(c.finalize(), want, "{:?} cuts {:?}", kernel, cuts);
            }
        }
    }
}
