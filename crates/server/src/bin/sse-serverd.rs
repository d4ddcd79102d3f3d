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
//! stops reading before it is disconnected as a slow reader. Frames are
//! assembled in pooled buffers (DESIGN.md §4j) and jobs are routed to
//! per-worker run queues by tenant hash (DESIGN.md §4k).
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
            let startup = daemon.stats();
            println!(
                "sse-serverd: durable mode, data dir {} ({} tenant database(s) recovered; \
                 {} needed WAL replay, {} torn byte(s) truncated)",
                dir.display(),
                daemon.tenant_count(),
                startup.wal_recoveries,
                startup.torn_tails_truncated
            );
        }
        None => {
            println!("sse-serverd: in-memory mode (no --data-dir; state dies with the process)")
        }
    }
    daemon.wait_for_shutdown_request();
    println!("sse-serverd: shutdown requested, draining…");
    let stats = daemon.stats();
    let tenants = daemon.tenant_count();
    let report = daemon.shutdown();
    println!(
        "sse-serverd: served {} requests ({} busy, {} errors) for {} tenant database(s); \
         {} bytes in, {} bytes out; joined {} workers and {} connections; \
         checkpointed {} tenant(s)",
        stats.requests_ok,
        stats.requests_busy,
        stats.requests_err,
        tenants,
        stats.bytes_in,
        stats.bytes_out,
        report.workers_joined,
        report.connections_joined,
        report.tenants_checkpointed
    );
    println!(
        "sse-serverd: robustness: {} fault(s) injected, {} WAL recover(ies), \
         {} torn byte(s) truncated, {} client re-attach(es)",
        stats.faults_injected, stats.wal_recoveries, stats.torn_tails_truncated, stats.reconnects
    );
    println!(
        "sse-serverd: group commit: {} op(s) in {} flush group(s) (mean {:.2}, max {}), \
         {} fsync(s) saved ({:.3} fsyncs/op), {} snapshot swap(s)",
        stats.ops_committed,
        stats.groups_committed,
        stats.mean_group_size(),
        stats.max_group_size,
        stats.fsyncs_saved,
        stats.fsyncs_per_op(),
        stats.snapshot_swaps
    );
    println!(
        "sse-serverd: search cache: {} hit(s) / {} miss(es), {} chain step(s) saved",
        stats.search_cache_hits, stats.search_cache_misses, stats.walk_steps_saved
    );
    println!(
        "sse-serverd: reactor: {} conn(s) accepted ({} rejected at the door), \
         {} idle reap(s), {} slow-reader disconnect(s), {} deferred write(s), \
         {} wakeup(s), {} spurious poll(s), \
         {} request(s) served inline / {} sent to the workers",
        report.final_stats.conns_accepted,
        report.final_stats.conns_rejected,
        report.final_stats.conns_idle_reaped,
        report.final_stats.slow_reader_disconnects,
        report.final_stats.writes_deferred,
        report.final_stats.reactor_wakeups,
        report.final_stats.reactor_spurious_polls,
        report.final_stats.inline_served,
        report.final_stats.inline_declined
    );
    println!(
        "sse-serverd: hot path: pool {} hit(s) / {} miss(es) / {} recycle(s), \
         {} frame(s) in {} writev call(s) (mean batch {:.2}), \
         {} wakeup(s) coalesced",
        report.final_stats.pool_hits,
        report.final_stats.pool_misses,
        report.final_stats.pool_recycles,
        report.final_stats.writev_frames,
        report.final_stats.writev_calls,
        report.final_stats.writev_frames as f64 / (report.final_stats.writev_calls as f64).max(1.0),
        report.final_stats.wakeups_coalesced
    );
    println!(
        "sse-serverd: health: {} degradation(s) / {} recover(ies) / {} quarantine(s), \
         {} request(s) rejected degraded, {} scrub pass(es), {} repair(s); \
         {} thread(s) panicked",
        report.final_stats.health_degradations,
        report.final_stats.health_recoveries,
        report.final_stats.health_quarantines,
        report.final_stats.requests_degraded,
        report.final_stats.scrub_passes,
        report.final_stats.scrub_repairs,
        report.threads_panicked
    );
    println!(
        "sse-serverd: scheduler: {} job(s) routed, {} local hit(s), \
         {} stolen, {} spilled, high-water queue depth {}; \
         {} fan-out batch(es), {} part(s) helped; \
         queue-wait p50 {} ns p99 {} ns, service p50 {} ns p99 {} ns",
        report.final_stats.sched_routed,
        report.final_stats.sched_local_hits,
        report.final_stats.sched_stolen,
        report.final_stats.sched_spilled,
        report.final_stats.sched_queue_depth_hw,
        report.final_stats.fanout_batches,
        report.final_stats.fanout_parts_helped,
        report.final_stats.queue_p50_ns,
        report.final_stats.queue_p99_ns,
        report.final_stats.service_p50_ns,
        report.final_stats.service_p99_ns
    );
    // Backend counters come from the post-drain snapshot: the drain
    // checkpoint itself flushes lsm runs, which a pre-shutdown snapshot
    // would miss.
    println!(
        "sse-serverd: backend: {} run(s) flushed ({} live), {} compaction(s), \
         {} run read(s), bloom {} check(s) / {} skip(s) / {} false positive(s)",
        report.final_stats.backend_runs_flushed,
        report.final_stats.backend_runs_live,
        report.final_stats.backend_compactions,
        report.final_stats.backend_run_reads,
        report.final_stats.backend_bloom_checks,
        report.final_stats.backend_bloom_skips,
        report.final_stats.backend_bloom_false_positives
    );
    ExitCode::SUCCESS
}
