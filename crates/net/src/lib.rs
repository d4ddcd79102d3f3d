//! # sse-net
//!
//! Client↔server transport simulation.
//!
//! The paper's two schemes differ in *communication rounds* (Table 1:
//! Scheme 1 needs two rounds per search/update, Scheme 2 one) and in
//! *bandwidth* (Scheme 1 ships a full bit-array per updated keyword). The
//! authors had no testbed; to turn their analytical claims into
//! measurements this crate provides:
//!
//! * [`wire`] — a compact, dependency-free binary codec for protocol
//!   messages;
//! * [`frame`] — length-prefixed framing: the blocking reader the TCP
//!   clients use and the reactor's streaming decoder;
//! * [`meter`] — round/byte accounting shared by all protocol runs — the
//!   data source for experiments E3 and E4;
//! * [`link`] — [`link::MeteredLink`], the synchronous request/response
//!   channel the schemes run over, and a threaded [`link::Duplex`] variant;
//! * [`latency`] — converts a metered transcript into simulated wall-clock
//!   time under a configurable RTT/bandwidth model;
//! * [`fault`] — [`fault::FaultyLink`], a transport wrapper that drops,
//!   truncates, duplicates or delays whole rounds on a seeded schedule;
//! * [`pool`] — [`pool::PooledBuf`], a frame body's `Vec` viewed past its
//!   envelope, and [`pool::BufPool`], a facade over `Vec` (nothing recycled).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod latency;
pub mod link;
pub mod meter;
pub mod pool;
pub mod shutdown;
pub mod wire;
