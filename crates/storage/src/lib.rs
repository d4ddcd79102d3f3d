//! # sse-storage
//!
//! Durable server-side storage for the SSE reproduction.
//!
//! The paper's server stores tuples `(E_km(M_i), i)` — encrypted blobs keyed
//! by document id — and must survive restarts without learning anything from
//! what it stores. This crate provides that substrate as a small storage
//! engine:
//!
//! * [`crc32`] — CRC-32 (ISO-HDLC) used to frame and verify on-disk records
//!   (a PCLMULQDQ kernel on x86-64, slice-by-16 tables elsewhere);
//! * [`page`] — 8 KiB slotted pages;
//! * [`heap`] — a heap file of slotted pages with overflow-fragment chains
//!   for blobs larger than one page;
//! * [`wal`] — a CRC-framed append-only write-ahead log, parsed by one
//!   walk that yields the records to replay, the length to truncate to
//!   and the scrub's verdict;
//! * [`durable`] — every other framing decision (document records,
//!   snapshots, manifests) and the one commit-by-rename;
//! * [`store`] — [`store::DocStore`]: the blob store the SSE server uses,
//!   combining an in-memory id→record index, the heap, the WAL and
//!   checkpointing into a snapshot file;
//! * [`vfs`] — the file-I/O abstraction everything above runs on:
//!   [`vfs::RealVfs`] (plain `std::fs`) and [`vfs::FaultVfs`] (seeded,
//!   deterministic fault injection: failed/torn writes, failed fsyncs,
//!   failed dir fsyncs, lost renames, hard crash at any scheduled write
//!   point);
//! * [`backend`] — the pluggable backend ADT: the
//!   [`backend::DocBlobStore`] trait with its `btree` implementation, and
//!   the [`backend::BackendKind`] manifest that makes directories refuse
//!   to open under the wrong engine;
//! * [`lsm`] — the log-structured backend: append-only sorted runs,
//!   bloom-filtered point reads, tag-range compaction; its document store
//!   and the keyword map the index engine checkpoints into.
//!
//! Everything is plain `std::fs`; no external crates. The one `unsafe`
//! module is the x86-64 CRC kernel, entered through a capability token.

// `deny`, not `forbid`: the one exception is the CRC kernel module below,
// which lifts the lint for itself and nothing else.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod crc32;
pub mod durable;
pub mod error;
pub mod heap;
pub mod lsm;
pub mod page;
pub mod store;
pub mod vfs;
pub mod wal;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use backend::{resolve_backend, BackendCounters, BackendKind, DocBlobStore};
pub use error::{Result, StorageError};
pub use lsm::{LsmCore, LsmDocStore, LsmKeywordMap};
pub use vfs::{FaultConfig, FaultStats, FaultVfs, RealVfs, Vfs, VfsFile};
