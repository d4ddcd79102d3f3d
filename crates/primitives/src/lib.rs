//! # sse-primitives
//!
//! From-scratch cryptographic primitives backing the reproduction of
//! *Adaptively Secure Computationally Efficient Searchable Symmetric
//! Encryption* (Sedghi, van Liesdonk, Doumen, Hartel, Jonker — SDM@VLDB 2010).
//!
//! The paper's constructions are parameterised by five abstract primitives;
//! this crate provides a concrete, dependency-free instantiation of each:
//!
//! | Paper object | Instantiation here | Module |
//! |---|---|---|
//! | PRF `f`, `f'` | HMAC-SHA-256 | [`hmac`], [`prf`] |
//! | PRG `G` | ChaCha20 keystream | [`chacha20`], [`prg`] |
//! | PRP `E` (block cipher) | AES-128, plus AES-CTR + HMAC encrypt-then-MAC | [`aes`], [`ctr`], [`etm`] |
//! | IND-CPA trapdoor permutation `F` | ElGamal over RFC 3526 MODP groups | [`elgamal`], [`modp`], [`bignum`] |
//! | hash chain `h^l` (Lamport) | SHA-256 chain | [`hashchain`] |
//!
//! Supporting machinery: a deterministic HMAC-DRBG ([`drbg`]), an HKDF-style
//! key-derivation function ([`kdf`]) and constant-time helpers ([`ct`]).
//!
//! On x86-64 the SHA-256 compression function and the AES-CTR keystream run
//! on SHA-NI / AES-NI when the CPU reports them (runtime detection, no
//! switch; same bytes either way). The portable implementations remain the
//! path everywhere else and the oracle the hardware path is tested against.
//!
//! ## Security caveat
//!
//! These implementations follow the published algorithms (FIPS 180-4,
//! FIPS 197, RFC 2104, RFC 8439) and pass the official test vectors, but they
//! exist to reproduce a research paper's *cost model and functionality*, not
//! to protect production data. Use a vetted crypto library for real systems.

// `deny`, not `forbid`: the one exception is the hardware-kernel module
// below, which lifts the lint for itself and nothing else.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod ctr;
pub mod drbg;
pub mod elgamal;
pub mod error;
pub mod etm;
pub mod hashchain;
pub mod hmac;
pub mod kdf;
pub mod modp;
pub mod prf;
pub mod prg;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use error::{CryptoError, Result};

/// Number of bytes in the digest / PRF output used throughout the workspace.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte secret key, the unit of keying material in the paper
/// (`k_m`, `k_w` are each drawn from `{0,1}^s` with `s = 256`).
pub type Key256 = [u8; 32];

/// Fill a buffer with operating-system entropy.
///
/// This is the only place the crate touches an external randomness source;
/// everything else is deterministic given its inputs.
pub fn os_random(buf: &mut [u8]) {
    use rand::Rng;
    rand::rng().fill_bytes(buf);
}

/// Sample a fresh 32-byte key from OS entropy.
pub fn random_key() -> Key256 {
    let mut k = [0u8; 32];
    os_random(&mut k);
    k
}
