//! # sse-core
//!
//! Reproduction of the searchable symmetric encryption schemes of
//! *Adaptively Secure Computationally Efficient Searchable Symmetric
//! Encryption* (Sedghi, van Liesdonk, Doumen, Hartel, Jonker — SDM@VLDB
//! 2010).
//!
//! Both schemes share the paper's basic design (§5.1): every *unique
//! keyword* `w` gets one searchable representation `S(w)` stored in a
//! server-side tree keyed by the PRF tag `f_kw(w)`, so locating a keyword is
//! `O(log u)` in the number of unique keywords — not `O(n)` in the number
//! of documents as in prior linear-scan schemes.
//!
//! * [`scheme1`] — the *computationally efficient* variant (§5.2):
//!   `S(w) = (f_kw(w), I(w) ⊕ G(r), F(r))` with `I(w)` a document-id bit
//!   array, `G` a PRG and `F` an ElGamal trapdoor permutation. Search and
//!   update each take two communication rounds.
//! * [`scheme2`] — the *communication efficient* variant (§5.4–5.6):
//!   posting-id generations appended under keys walked backwards along a
//!   Lamport hash chain, `k_j(w) = h^{l-ctr}(w‖k_w)`. One round per
//!   operation; search pays a forward chain walk bounded by the number of
//!   updates since the last search. Includes both published optimizations.
//! * [`security`] — Definitions 1–4 made executable: history/view/trace
//!   extraction, the §5.3 simulator, and a statistical distinguishing game
//!   that validates Theorem 1 empirically (and catches deliberately broken
//!   schemes).
//! * [`leakage`] — the §5.7 update-leakage mitigations (batched updates,
//!   fake updates) and an adversary model that quantifies what updates
//!   reveal.
//!
//! ## Quick start
//!
//! ```
//! use sse_core::types::{Document, Keyword, MasterKey};
//! use sse_core::scheme1::{Scheme1Client, Scheme1Config};
//!
//! let key = MasterKey::from_seed(7);
//! let mut client = Scheme1Client::new_in_memory(key, Scheme1Config::fast_profile(1024));
//! let docs = vec![
//!     Document::new(0, b"visit notes".to_vec(), ["flu", "fever"]),
//!     Document::new(1, b"lab results".to_vec(), ["fever"]),
//! ];
//! client.store(&docs).unwrap();
//! let hits = client.search(&Keyword::new("fever")).unwrap();
//! assert_eq!(hits.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod engine;
pub mod error;
pub mod health;
pub mod journal;
pub mod leakage;
mod ops;
pub mod proto_common;
pub mod query;
pub mod scheme;
pub mod scheme1;
pub mod scheme2;
pub mod security;
pub mod shard;
pub mod types;

pub use error::{Result, SseError};
