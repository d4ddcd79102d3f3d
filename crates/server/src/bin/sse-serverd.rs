//! `sse-serverd` — the multi-tenant SSE TCP daemon.
//!
//! ```text
//! sse-serverd [--addr HOST:PORT] [--workers N] [--queue N]
//!             [--scheme1-capacity N] [--scheme2-chain N] [--shards N]
//!             [--data-dir DIR] [--backend btree|lsm] [--idle-timeout-ms N]
//!             [--scrub-interval-ms N] [--max-conns N]
//!             [--write-queue-limit BYTES]
//! ```
//!
//! Every socket is owned by the non-blocking epoll reactor (one
//! event-loop thread, bounded per-connection write queues, idle reaping
//! at `--idle-timeout-ms`; see DESIGN.md §4i). `--max-conns` caps
//! concurrent connections (accepts beyond it are dropped at the door)
//! and `--write-queue-limit` bounds the bytes buffered for a client that
//! stops reading before it is disconnected as a slow reader. Each frame
//! is one plain buffer, handed to its job without a copy (DESIGN.md §4j),
//! and jobs are routed to per-worker run queues by tenant hash
//! (DESIGN.md §4k).
//!
//! Serves until an `ADMIN_SHUTDOWN` frame arrives (e.g. `sse-load
//! --shutdown`, or any `TcpTransport::admin_shutdown` call), then drains
//! queued requests and exits, printing final serving stats.
//!
//! With `--data-dir` the daemon is **durable**: tenant databases persist
//! under the directory, WALs left by a crash are replayed before the
//! listener opens, and the drain checkpoints every tenant so a clean
//! restart has nothing to replay. `--backend` picks the storage engine
//! for newly created tenant directories: `btree` (default — monolithic
//! index snapshots rewritten per checkpoint) or `lsm` (append-only
//! sorted runs with bloom-filtered reads; checkpoints flush only the
//! tags mutated since the last one). Each tenant directory remembers its
//! backend and refuses to reopen under the other.
//!
//! A background scrub thread (default every 5000 ms; `--scrub-interval-ms
//! 0` disables it) checksum-verifies every tenant's on-disk artifacts,
//! repairs degraded tenants (storage write failures flip a tenant to
//! read-only serving until the repair's probe write succeeds) and
//! quarantines confirmed corruption. See the `sse_server::scrub` docs.

use sse_server::daemon::{Daemon, ServerConfig};
use sse_server::proto::StatsSnapshot;
use sse_server::tenant::TenantParams;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: sse-serverd [--addr HOST:PORT] [--workers N] [--queue N] \
         [--scheme1-capacity N] [--scheme2-chain N] [--shards N] \
         [--data-dir DIR] [--backend btree|lsm] [--idle-timeout-ms N] \
         [--scrub-interval-ms N] [--max-conns N] [--write-queue-limit BYTES]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value: {s}");
        usage()
    })
}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:4460".to_string(),
        // The daemon default is scrub-off (embedding tests drive passes
        // synchronously); the operator-facing binary scrubs by default.
        scrub_interval: Some(std::time::Duration::from_millis(5000)),
        ..ServerConfig::default()
    };
    let mut params = TenantParams::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--workers" => config.workers = parse(&value()),
            "--queue" => config.queue_depth = parse(&value()),
            "--scheme1-capacity" => params.scheme1_capacity = parse(&value()),
            "--scheme2-chain" => params.scheme2_chain_length = parse(&value()),
            "--shards" => params.shards = parse(&value()),
            "--data-dir" => config.data_dir = Some(std::path::PathBuf::from(value())),
            "--backend" => {
                params.backend = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(parse(&value()));
            }
            "--max-conns" => config.max_conns = parse(&value()),
            "--write-queue-limit" => config.write_queue_limit = parse(&value()),
            "--scrub-interval-ms" => {
                let ms: u64 = parse(&value());
                config.scrub_interval = if ms == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_millis(ms))
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    config.tenant_params = params;
    config
}

/// Print every counter of `stats` that `keep` accepts, one
/// `sse-serverd: name value` line each, then the per-shard contention
/// vector when any of its entries passes `keep`.
fn print_stats(stats: &StatsSnapshot, keep: impl Fn(u64) -> bool) {
    for (name, value) in stats.fields() {
        if keep(value) {
            println!("sse-serverd: {name} {value}");
        }
    }
    if stats.shard_contention.iter().any(|&c| keep(c)) {
        println!("sse-serverd: shard_contention {:?}", stats.shard_contention);
    }
}

fn main() -> ExitCode {
    let config = parse_args();
    // One fd per connection plus listener/pipe/worker headroom. Best
    // effort: unprivileged processes stop at their hard limit, and
    // connections beyond whatever was granted are refused at accept.
    let want = config.max_conns as u64 + 64;
    match epoll::raise_nofile_limit(want) {
        Ok(got) if got < want => {
            eprintln!(
                "sse-serverd: fd limit {got} below {want}; connections past it will be refused"
            );
        }
        Ok(_) => {}
        Err(e) => eprintln!("sse-serverd: could not raise fd limit: {e}"),
    }
    let daemon = match Daemon::spawn(config.clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sse-serverd: bind {} failed: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sse-serverd listening on {} (epoll-reactor mode, {} workers, queue depth {}, \
         {} index shard(s)/tenant, {} backend)",
        daemon.local_addr(),
        config.workers,
        config.queue_depth,
        config.tenant_params.shards.max(1),
        config.tenant_params.backend
    );
    println!(
        "sse-serverd: reactor limits: {} max conn(s), {} byte write queue/conn, \
         idle timeout {:?}",
        config.max_conns, config.write_queue_limit, config.idle_timeout
    );
    match &config.data_dir {
        Some(dir) => {
            println!(
                "sse-serverd: durable mode, data dir {} ({} tenant database(s) recovered)",
                dir.display(),
                daemon.tenant_count(),
            );
            // What opening them moved: WAL replays, torn bytes, live runs.
            print_stats(&daemon.stats(), |value| value != 0);
        }
        None => {
            println!("sse-serverd: in-memory mode (no --data-dir; state dies with the process)")
        }
    }
    daemon.wait_for_shutdown_request();
    println!("sse-serverd: shutdown requested, draining…");
    let tenants = daemon.tenant_count();
    let report = daemon.shutdown();
    println!(
        "sse-serverd: drained {} tenant database(s): joined {} workers and {} connections, \
         checkpointed {} tenant(s), {} thread(s) panicked",
        tenants,
        report.workers_joined,
        report.connections_joined,
        report.tenants_checkpointed,
        report.threads_panicked
    );
    // Taken after the drain and its checkpoint, so requests served and
    // runs flushed during either are counted.
    print_stats(&report.final_stats, |_| true);
    ExitCode::SUCCESS
}
