//! # sse-server
//!
//! A multi-tenant TCP serving layer for the paper's SSE schemes — the
//! step from "protocol implementation" to "system you can run": the same
//! [`sse_net::link::Service`] state machines that tests drive in-process
//! are served here over real sockets to many concurrent clients.
//!
//! * [`daemon`] — the TCP daemon: a readiness-driven epoll [`reactor`]
//!   owns every socket on one thread, feeding a bounded worker pool with
//!   explicit `BUSY` backpressure. Graceful draining shutdown,
//!   per-request serving stats.
//! * [`reactor`] — the non-blocking event loop: per-connection state
//!   machines over incremental frame decoding, bounded write queues with
//!   `EPOLLOUT`-driven draining, idle reaping, and a deterministic mock
//!   poller for unit tests (DESIGN.md §4i).
//! * [`proto`] — the connection envelope: a hello frame routes the
//!   connection to a `(tenant, scheme)` database; DATA frames carry the
//!   *unchanged* scheme wire messages; ADMIN frames expose stats and
//!   shutdown.
//! * [`sched`] — the affinity-sharded worker runtime: per-worker run
//!   queues routed by tenant hash and work stealing from the busiest
//!   queue (DESIGN.md §4k).
//! * [`tenant`] — lazy per-`(tenant, scheme)` server state.
//! * [`transport`] — [`transport::TcpTransport`], the
//!   [`sse_net::link::Transport`] impl that lets every existing scheme
//!   client run over the daemon unmodified.
//! * [`histogram`] / [`stats`] — lock-free latency histogram (p50/p95/p99)
//!   and serving counters.
//! * [`load`] — the closed-loop load generator driving §6 PHR workloads
//!   over N concurrent connections (the `sse-load` binary's engine).
//!
//! Because DATA payloads pass through byte-for-byte, the serving layer
//! changes nothing about what the server *learns*: the leakage profile is
//! that of the underlying scheme (see DESIGN.md §4b).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod histogram;
pub mod load;
pub mod proto;
pub mod reactor;
pub mod sched;
pub mod scrub;
pub mod stats;
pub mod tenant;
pub mod transport;

pub use daemon::{Daemon, ServerConfig, ShutdownReport};
pub use load::{run_load, LoadOptions, LoadReport, Profile};
pub use proto::{SchemeId, StatsSnapshot};
pub use transport::TcpTransport;
