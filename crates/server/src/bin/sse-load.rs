//! `sse-load` — closed-loop load generator for `sse-serverd`.
//!
//! ```text
//! sse-load [--addr HOST:PORT | --spawn] [--clients N] [--tenants N]
//!          [--scheme 1|2|both] [--profile gp|traveler] [--events N]
//!          [--seed N] [--shutdown]
//! sse-load --chaos [--seed N] [--clients N] [--tenants N]
//!          [--backend btree|lsm] [--chaos-ms N] [--chaos-report PATH]
//! ```
//!
//! Drives N concurrent clients, each replaying a §6 PHR workload (Zipf
//! over medical codes) through a real scheme client over TCP, and prints
//! ops/sec plus client-observed p50/p95/p99 latency. `--spawn` starts an
//! in-process daemon on an ephemeral port (a one-command demo);
//! `--shutdown` sends `ADMIN_SHUTDOWN` to the target daemon after the run.
//!
//! `--chaos` runs the seeded chaos soak instead (see
//! [`sse_server::chaos`]): disk and network faults against a durable
//! in-process daemon, three invariants checked, a JSON report written to
//! `--chaos-report`. Measuring the daemon is `bench/`'s job (`bash
//! bench/run.sh`), not this binary's.

use sse_server::chaos::{run_chaos, ChaosOptions};
use sse_server::daemon::{Daemon, ServerConfig};
use sse_server::load::{run_load, LoadOptions, Profile};
use sse_server::proto::SchemeId;
use sse_server::transport::TcpTransport;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: sse-load [--addr HOST:PORT | --spawn] [--clients N] [--tenants N] \
         [--scheme 1|2|both] [--profile gp|traveler] [--events N] [--seed N] [--shutdown]\n\
         \x20      sse-load --chaos [--seed N] [--clients N] [--tenants N] \
         [--backend btree|lsm] [--chaos-ms N] [--chaos-report PATH]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value: {s}");
        usage()
    })
}

struct Cli {
    opts: LoadOptions,
    spawn: bool,
    shutdown: bool,
    chaos: bool,
    chaos_opts: ChaosOptions,
    chaos_report: std::path::PathBuf,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        opts: LoadOptions::default(),
        spawn: false,
        shutdown: false,
        chaos: false,
        chaos_opts: ChaosOptions::default(),
        chaos_report: std::path::PathBuf::from("CHAOS_report.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cli.opts.addr = value(),
            "--spawn" => cli.spawn = true,
            "--shutdown" => cli.shutdown = true,
            "--clients" => {
                cli.opts.clients = parse(&value());
                cli.chaos_opts.clients = cli.opts.clients;
            }
            "--tenants" => {
                cli.opts.tenants = parse(&value());
                cli.chaos_opts.tenants = cli.opts.tenants;
            }
            "--events" => cli.opts.events = parse(&value()),
            "--seed" => {
                cli.opts.seed = parse(&value());
                cli.chaos_opts.seed = cli.opts.seed;
            }
            "--chaos" => cli.chaos = true,
            "--chaos-ms" => {
                cli.chaos_opts.duration = std::time::Duration::from_millis(parse(&value()));
            }
            "--chaos-report" => cli.chaos_report = std::path::PathBuf::from(value()),
            "--backend" => {
                cli.chaos_opts.backend = value().parse().unwrap_or_else(|e| {
                    eprintln!("bad backend: {e}");
                    usage()
                })
            }
            "--scheme" => {
                cli.opts.schemes = match value().as_str() {
                    "1" => vec![SchemeId::Scheme1],
                    "2" => vec![SchemeId::Scheme2],
                    "both" => vec![SchemeId::Scheme1, SchemeId::Scheme2],
                    other => {
                        eprintln!("unknown scheme: {other}");
                        usage();
                    }
                }
            }
            "--profile" => {
                cli.opts.profile = match value().as_str() {
                    "gp" => Profile::Gp,
                    "traveler" => Profile::Traveler,
                    other => {
                        eprintln!("unknown profile: {other}");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    cli
}

/// Run the chaos-soak harness and write `CHAOS_report.json`. Exits
/// nonzero if any invariant was violated.
fn run_chaos_mode(path: &std::path::Path, opts: &ChaosOptions) -> ExitCode {
    println!(
        "sse-load: chaos soak: seed {}, {} clients x {} tenant(s), backend {}, {:?} storm",
        opts.seed, opts.clients, opts.tenants, opts.backend, opts.duration
    );
    let report = match run_chaos(opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sse-load: chaos setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sse-load: chaos: {} ops ({} stores acked, {} in doubt, {} searches), \
         {} socket drop(s), {} fault(s) injected",
        report.ops_attempted,
        report.stores_acked,
        report.stores_in_doubt,
        report.searches_ok,
        report.disconnects_injected,
        report.faults_injected
    );
    println!(
        "sse-load: health: {} degradation(s) / {} recover(ies) / {} quarantine(s), \
         {} scrub pass(es), {} repair(s), {} degraded retry(ies) absorbed client-side",
        report.degradations,
        report.recoveries,
        report.quarantines,
        report.scrub_passes,
        report.scrub_repairs,
        report.degraded_retries
    );
    for v in &report.violations {
        eprintln!("sse-load: INVARIANT VIOLATION: {v}");
    }
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("sse-load: writing {} failed: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("sse-load: wrote {}", path.display());
    if report.passed() {
        println!("sse-load: chaos soak PASSED (all three invariants held)");
        ExitCode::SUCCESS
    } else {
        eprintln!("sse-load: chaos soak FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut cli = parse_args();
    if cli.chaos {
        return run_chaos_mode(&cli.chaos_report, &cli.chaos_opts);
    }
    let daemon = if cli.spawn {
        match Daemon::spawn(ServerConfig::default()) {
            Ok(d) => {
                cli.opts.addr = d.local_addr().to_string();
                println!("sse-load: spawned in-process daemon on {}", cli.opts.addr);
                Some(d)
            }
            Err(e) => {
                eprintln!("sse-load: failed to spawn daemon: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    println!(
        "sse-load: {} clients x {:?} profile over {:?} scheme(s), {} tenant(s), target {}",
        cli.opts.clients, cli.opts.profile, cli.opts.schemes, cli.opts.tenants, cli.opts.addr
    );
    let report = match run_load(&cli.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sse-load: run failed: {e}");
            if let Some(d) = daemon {
                d.shutdown();
            }
            return ExitCode::FAILURE;
        }
    };
    println!("sse-load: {report}");

    // Pull the server-side view over the ADMIN protocol.
    match TcpTransport::connect(&cli.opts.addr, "admin", SchemeId::Scheme2).and_then(|mut t| {
        let stats = t.admin_stats()?;
        if cli.shutdown && daemon.is_none() {
            t.admin_shutdown()?;
        }
        Ok(stats)
    }) {
        Ok(stats) => {
            println!(
                "sse-load: server stats: {} ok / {} busy / {} err, {} bytes in, {} bytes out, \
                 server-side p50 {} ns p95 {} ns p99 {} ns",
                stats.requests_ok,
                stats.requests_busy,
                stats.requests_err,
                stats.bytes_in,
                stats.bytes_out,
                stats.p50_ns,
                stats.p95_ns,
                stats.p99_ns
            );
            println!(
                "sse-load: server robustness: {} fault(s) injected, {} WAL recover(ies), \
                 {} torn byte(s) truncated, {} client re-attach(es)",
                stats.faults_injected,
                stats.wal_recoveries,
                stats.torn_tails_truncated,
                stats.reconnects
            );
            println!(
                "sse-load: group commit: {} op(s) in {} flush group(s) \
                 (mean {:.2}, max {}), {} fsync(s) saved ({:.3} fsyncs/op), \
                 {} snapshot swap(s)",
                stats.ops_committed,
                stats.groups_committed,
                stats.mean_group_size(),
                stats.max_group_size,
                stats.fsyncs_saved,
                stats.fsyncs_per_op(),
                stats.snapshot_swaps
            );
            println!(
                "sse-load: search cache: {} hit(s) / {} miss(es), {} chain step(s) saved",
                stats.search_cache_hits, stats.search_cache_misses, stats.walk_steps_saved
            );
        }
        Err(e) => eprintln!("sse-load: stats query failed: {e}"),
    }

    if let Some(d) = daemon {
        let report = d.shutdown();
        println!(
            "sse-load: daemon drained ({} workers, {} connections joined)",
            report.workers_joined, report.connections_joined
        );
    }
    ExitCode::SUCCESS
}
