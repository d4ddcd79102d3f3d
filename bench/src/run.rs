//! The untraced run: set a workload up against a child `sse-serverd`,
//! drive its phases over one data connection, verify every answer, and
//! turn the measurements into the catalogue's metrics.

use crate::calib::Sampler;
use crate::catalogue::{self, GP, S1, UPD_BTREE, UPD_LSM, WARM};
use crate::child::{Daemon, ProcSnapshot, ScratchDir, Storage};
use crate::quantile::{self, Samples};
use crate::replay::{self, PhaseInput, PhaseResult, RawConn};
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::trace::{self, Class, ConnTrace, GpSizes, UpdateSizes, WarmSizes};
use sse_core::proto_common;
use sse_server::proto::{SchemeId, StatsSnapshot};
use sse_server::transport::TcpTransport;
use std::io::{Error, Result};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A deliberate fault, to show the verifier catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Treat one received search reply as if a byte had flipped.
    CorruptReply,
    /// Believe one store was acknowledged that the daemon never received
    /// (update workloads only): the restart check must miss its document.
    DropAcked,
}

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured seconds: the phases' op counts are sized to fill this
    /// long on the reference box, and it caps them on a slower one.
    pub seconds: f64,
    /// Also run the diagnostic open loop and the in-process traced pass.
    pub trace: bool,
    /// 1/20 op counts, small resident sets, one set-up.
    pub smoke: bool,
    pub serverd: PathBuf,
    /// Where data directories and output files go.
    pub out_dir: PathBuf,
    pub inject: Option<Inject>,
}

/// One progress line on stderr, stamped with the seconds since the first
/// one — a run is a quarter of a minute of silence otherwise.
pub(crate) fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("sse-perf: [{t:6.2}s] {what}");
}

/// One data connection, one generator thread (the main one), everything
/// pinned to one CPU (`affinity`): the sandbox is two vCPUs of a shared
/// host, and anything that can run more threads at once than that — the
/// issue's two connections, two generator threads and two workers beside
/// the reactor were five — measures the host's scheduler: ten same-code
/// runs spread 20–60 % between quartiles. The traces keep their
/// per-connection shape so a quieter box can raise this again.
pub const CONNS: usize = 1;
/// Set-ups per run; `setup_s` reports their median.
pub(crate) const SETUPS: usize = 3;
/// A phase may overrun its share of `--seconds` by this factor before
/// it is cut short.
pub(crate) const CAP_FACTOR: f64 = 1.25;

/// Op rates this box sustains on one CPU, rounded down: the fixed op
/// count of a phase is `rate × its share of --seconds`, so a phase lasts
/// about that long here and does identical work anywhere.
struct Rates {
    lat: f64,
    sat: f64,
    /// Offered rate of the open loop, well under `sat`.
    open: f64,
    /// Requests in flight in `sat` (0: no `sat` phase — the trace is
    /// stateful and pipelining would reorder dependent ops).
    window: usize,
    /// Shares of `--seconds` the `lat` and `sat` phases get.
    lat_share: f64,
    sat_share: f64,
    /// Times the `lat` slice of the trace is replayed, each time on a
    /// fresh tenant.
    passes: usize,
}

/// Passes of the GP trace. The oracle that generates a trace does the
/// work the daemon does replaying it, and the real client's crypto on
/// top, so a GP trace takes twice as long to generate as to replay; but
/// it is stateful only within its tenant, so the same requests replayed
/// on a fresh tenant get the same replies. Eight passes measure for
/// `--seconds` at a set-up cost of a quarter of that.
const GP_PASSES: usize = 8;

fn rates(workload: &str) -> Rates {
    match workload {
        WARM => Rates {
            lat: 65_000.0,
            sat: 330_000.0,
            open: 8_000.0,
            window: 16,
            lat_share: 0.5,
            sat_share: 0.5,
            passes: 1,
        },
        GP => Rates {
            lat: 15_000.0 / GP_PASSES as f64,
            sat: 0.0,
            open: 0.0,
            window: 0,
            lat_share: 1.0,
            sat_share: 0.0,
            passes: GP_PASSES,
        },
        // One search per eight updates: `lat` gets the larger share so
        // the search percentiles stand on enough samples. The phases
        // cover 0.8 of `--seconds`: generating a request through the real
        // client and replaying the acknowledged ones into the restart
        // check's oracle each cost a third of serving it, so the rest of
        // the run's budget is set-up and verification.
        _ => Rates {
            lat: 5_200.0,
            sat: 5_800.0,
            open: 1_500.0,
            window: 8,
            lat_share: 0.5,
            sat_share: 0.3,
            passes: 1,
        },
    }
}

/// How `--seconds` is split and what each phase sends per connection.
#[derive(Clone, Copy, Debug)]
struct Plan {
    lat_ops: usize,
    lat_cap: Duration,
    sat_ops: usize,
    sat_cap: Duration,
    open_ops: usize,
    open_cap: Duration,
    open_rate: f64,
    window: usize,
    passes: usize,
}

/// A phase may overrun its share of `--seconds` by [`CAP_FACTOR`] (plus
/// a constant for very short runs) before it is cut short.
pub(crate) fn cap(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * CAP_FACTOR + 0.25)
}

fn plan(opts: &RunOpts) -> Plan {
    let r = rates(opts.workload);
    let lat_s = opts.seconds * r.lat_share;
    let sat_s = opts.seconds * r.sat_share;
    // The open loop is diagnostic and runs only with the traced pass.
    let open_s = if opts.trace && r.window != 0 {
        (opts.seconds * 0.15).min(3.0)
    } else {
        0.0
    };
    Plan {
        lat_ops: (r.lat * lat_s) as usize,
        lat_cap: cap(lat_s / r.passes as f64),
        sat_ops: (r.sat * sat_s) as usize,
        sat_cap: cap(sat_s),
        open_ops: (r.open * open_s) as usize,
        open_cap: cap(open_s),
        open_rate: r.open,
        window: r.window,
        passes: r.passes,
    }
}

fn generate(opts: &RunOpts, plan: &Plan) -> Vec<ConnTrace> {
    let shrink = if opts.smoke { 8 } else { 1 };
    let measured = plan.lat_ops + plan.sat_ops + plan.open_ops;
    match opts.workload {
        WARM => {
            let sizes = WarmSizes {
                resident: 16_384 / shrink,
                hot: 1_024 / shrink as usize,
                ops: measured,
            };
            per_conn(|conn| trace::gen_warm(opts.seed, conn, sizes))
        }
        GP => {
            let sizes = GpSizes {
                vocab: 1_024,
                // One search and 2x requests per visit.
                visits: measured.div_ceil(9),
                x: 4,
                chain: trace::GP_CHAIN,
            };
            per_conn(|conn| trace::gen_gp(opts.seed, conn, sizes))
        }
        _ => {
            // Eight updates and one search per nine requests.
            // Sixteen spare: stores the fault-injection test can claim were
            // acknowledged although they were never sent.
            let updates = (measured * 8 / 9).next_multiple_of(8) + 16;
            let every = if opts.smoke { 64 } else { 4_096 };
            let sizes = UpdateSizes {
                resident: 16_384 / shrink,
                searched: 2_048 / shrink as usize,
                vocab: 2_048 / shrink as usize,
                updates,
                updates_per_search: 8,
                checkpoint_every: every,
                quiet_tail: every,
            };
            let shared = trace::gen_update_shared(opts.seed, sizes);
            per_conn(|conn| trace::gen_update(opts.seed, conn, CONNS, sizes, &shared))
        }
    }
}

/// The trace `opts` would replay (for `sse-perf trace`).
pub(crate) fn generate_for(opts: &RunOpts) -> Vec<ConnTrace> {
    generate(opts, &plan(opts))
}

/// Run `f(i, &mut items[i])` for every connection in turn on the calling
/// thread — the one generator thread — and collect the results.
pub(crate) fn each_conn<C, T>(items: &mut [C], mut f: impl FnMut(usize, &mut C) -> T) -> Vec<T> {
    items
        .iter_mut()
        .enumerate()
        .map(|(i, item)| f(i, item))
        .collect()
}

fn per_conn(gen: impl Fn(usize) -> ConnTrace) -> Vec<ConnTrace> {
    (0..CONNS).map(gen).collect()
}

fn storage(opts: &RunOpts, attempt: usize) -> Storage {
    let backend = match opts.workload {
        UPD_BTREE => "btree",
        UPD_LSM => "lsm",
        _ => return Storage::InMemory,
    };
    Storage::Durable {
        dir: opts.out_dir.join(format!(
            "data-{}-{}-{attempt}",
            opts.workload,
            std::process::id()
        )),
        backend,
    }
}

/// Daemon start → state loaded → memo warmed, once.
fn set_up(opts: &RunOpts, traces: &[ConnTrace], attempt: usize) -> Result<(Daemon, Vec<RawConn>)> {
    let daemon = Daemon::spawn(&opts.serverd, storage(opts, attempt))?;
    let mut conns = Vec::with_capacity(traces.len());
    for t in traces {
        conns.push(RawConn::connect(
            &daemon.addr,
            &t.tenant,
            SchemeId::Scheme2,
        )?);
    }
    each_conn(&mut conns, |i, conn| {
        replay::send_all_verified(conn, &traces[i].load, 1)
    })
    .into_iter()
    .collect::<Result<()>>()?;
    Ok((daemon, conns))
}

/// What one phase measured: every connection, and the child's counters.
pub(crate) struct Phase {
    pub(crate) conns: Vec<PhaseResult>,
    pub(crate) proc_before: ProcSnapshot,
    pub(crate) proc_after: ProcSnapshot,
    pub(crate) stats_before: StatsSnapshot,
    pub(crate) stats_after: StatsSnapshot,
    pub(crate) client_cpu_us: u64,
}

impl Phase {
    fn ok_ops(&self) -> u64 {
        self.conns.iter().map(PhaseResult::ok_ops).sum()
    }

    /// Ops per second: the median over [`replay::RATE_BLOCK`] blocks of
    /// the block's rate (the whole phase's rate when it was shorter than
    /// a block).
    fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self.conns.iter().flat_map(|c| c.block_rates()).collect();
        quantile::median(&mut rates).unwrap_or_else(|| {
            let wall: Duration = self.conns.iter().map(|c| c.wall).sum();
            self.ok_ops() as f64 / wall.as_secs_f64().max(1e-9)
        })
    }

    /// Mean host slowdown over the phase ([`crate::calib`]).
    fn host_slowdown(&self) -> f64 {
        let sum: f64 = self.conns.iter().map(|c| c.cal.phase_slowdown()).sum();
        sum / self.conns.len().max(1) as f64
    }

    /// Child CPU time per verified op, at reference speed.
    fn cpu_us_per_op(&self) -> f64 {
        (self.proc_after.cpu_us - self.proc_before.cpu_us) as f64
            / self.ok_ops().max(1) as f64
            / self.host_slowdown()
    }

    fn wire_bytes_per_op(&self) -> f64 {
        let (a, b) = (&self.stats_after, &self.stats_before);
        ((a.bytes_in - b.bytes_in) + (a.bytes_out - b.bytes_out)) as f64
            / self.ok_ops().max(1) as f64
    }
}

fn self_cpu_us() -> u64 {
    ProcSnapshot::read(std::process::id()).map_or(0, |s| s.cpu_us)
}

/// Run one phase on every connection, bracketed by `/proc` and
/// `ADMIN_STATS` snapshots.
pub(crate) fn run_phase<C, F>(
    daemon: &Daemon,
    admin: &mut TcpTransport,
    conns: &mut [C],
    body: F,
) -> Result<Phase>
where
    F: FnMut(usize, &mut C) -> Result<PhaseResult>,
{
    let stats_before = admin.admin_stats()?;
    let proc_before = daemon.proc_snapshot()?;
    let cpu_before = self_cpu_us();
    let results = each_conn(conns, body);
    let client_cpu_us = self_cpu_us().saturating_sub(cpu_before);
    let proc_after = daemon.proc_snapshot()?;
    let stats_after = admin.admin_stats()?;
    Ok(Phase {
        conns: results.into_iter().collect::<Result<_>>()?,
        proc_before,
        proc_after,
        stats_before,
        stats_after,
        client_cpu_us,
    })
}

/// Requests per stretch of the tail percentiles: ten lie beyond a
/// 1000-request stretch's 99th percentile, twenty beyond a 200-request
/// stretch's 90th. The 90th gets the shorter stretch because the gated
/// tail must hold on `s2_update_*`, whose `lat` phase has 5 000 searches:
/// the median of five stretches reads the speed of whichever the third
/// one ran at, the median of twenty-five moves with the run's mix.
const P99_BLOCK: usize = 1000;
const P90_BLOCK: usize = 200;

/// Latency quantiles of a class of request, in µs at reference speed.
///
/// The median is the exact median of the whole phase. The 90th and 99th
/// percentiles are the median over 200- and 1000-request stretches of each
/// stretch's own percentile: a hypervisor stall lands on a few hundred
/// consecutive requests and would otherwise *be* the whole phase's tail
/// (measured: the whole-phase p99 spread over ten runs was 105 % of its
/// median, the per-stretch median's 29 %), and where latency grows along
/// the trace (the GP profile's chain walks) the whole-phase tail is the
/// trace's last tenth rather than a property of the program.
fn set_quantiles(report: &mut Report, samples: &[&Samples], names: [&'static str; 3]) {
    let mut all = Samples::default();
    for s in samples {
        all.extend(s);
    }
    let n = Some(all.len() as u64);
    if let Some(ns) = all.quantile(0.50) {
        report.set_n(names[0], ns as f64 / 1e3, n);
    }
    for (name, q, block) in [(names[1], 0.90, P90_BLOCK), (names[2], 0.99, P99_BLOCK)] {
        let mut per_block: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.block_quantiles(block, q))
            .collect();
        if let Some(ns) = quantile::median(&mut per_block) {
            report.set_n(name, ns / 1e3, n);
        }
    }
}

pub(crate) fn set_latencies(report: &mut Report, lat: &Phase) {
    let search: Vec<&Samples> = lat.conns.iter().map(|c| &c.search).collect();
    let update: Vec<&Samples> = lat.conns.iter().map(|c| &c.update).collect();
    set_quantiles(
        report,
        &search,
        ["search_p50_us", "search_p90_us", "search_p99_us"],
    );
    set_quantiles(
        report,
        &update,
        ["update_p50_us", "update_p90_us", "update_p99_us"],
    );
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Source A layer metrics: `ADMIN_STATS` and `/proc` deltas from before
/// the first measured phase to after the last.
fn set_counter_layers(
    report: &mut Report,
    b: &StatsSnapshot,
    a: &StatsSnapshot,
    proc_before: &ProcSnapshot,
    proc_after: &ProcSnapshot,
) {
    let ok = a.requests_ok - b.requests_ok;
    let kop = |n: u64| ratio(n * 1000, ok);
    let pool = (a.pool_hits - b.pool_hits) + (a.pool_misses - b.pool_misses);
    report.set("net.pool_hit_ratio", ratio(a.pool_hits - b.pool_hits, pool));
    report.set(
        "net.bytes_copied_per_op",
        ratio(a.bytes_copied - b.bytes_copied, ok),
    );
    report.set("net.bytes_in_per_op", ratio(a.bytes_in - b.bytes_in, ok));
    report.set("net.bytes_out_per_op", ratio(a.bytes_out - b.bytes_out, ok));

    // The daemon's histograms are cumulative and 2x-bucketed: coarse.
    report.set("server.queue_wait_p50_ns", a.queue_p50_ns as f64);
    report.set("server.service_p50_ns", a.service_p50_ns as f64);
    report.set(
        "server.sched_local_ratio",
        ratio(
            a.sched_local_hits - b.sched_local_hits,
            a.sched_routed - b.sched_routed,
        ),
    );
    report.set(
        "server.sched_stolen_per_kop",
        kop(a.sched_stolen - b.sched_stolen),
    );
    report.set(
        "server.sched_spilled",
        (a.sched_spilled - b.sched_spilled) as f64,
    );
    report.set("server.queue_depth_hw", a.sched_queue_depth_hw as f64);
    let busy = a.requests_busy - b.requests_busy;
    report.set(
        "server.busy_ratio",
        ratio(busy, ok + busy + (a.requests_err - b.requests_err)),
    );
    report.set(
        "server.writev_batch",
        ratio(
            a.writev_frames - b.writev_frames,
            a.writev_calls - b.writev_calls,
        ),
    );
    report.set(
        "server.wakeups_per_op",
        ratio(a.reactor_wakeups - b.reactor_wakeups, ok),
    );
    report.set(
        "server.spurious_polls_per_kop",
        kop(a.reactor_spurious_polls - b.reactor_spurious_polls),
    );
    report.set(
        "server.ctx_switches_per_op",
        ratio(proc_after.ctx_switches - proc_before.ctx_switches, ok),
    );

    let (hits, misses) = (
        a.search_cache_hits - b.search_cache_hits,
        a.search_cache_misses - b.search_cache_misses,
    );
    report.set("core.memo_hit_ratio", ratio(hits, hits + misses));
    report.set(
        "core.walk_steps_saved_per_search",
        ratio(a.walk_steps_saved - b.walk_steps_saved, hits + misses),
    );
    let (groups, committed) = (
        a.groups_committed - b.groups_committed,
        a.ops_committed - b.ops_committed,
    );
    report.set("core.commit_group_mean", ratio(committed, groups));
    report.set("core.fsyncs_per_update", ratio(groups, committed));
    report.set(
        "core.snapshot_swaps_per_update",
        ratio(a.snapshot_swaps - b.snapshot_swaps, committed),
    );
    let contention = |s: &StatsSnapshot| s.shard_contention.iter().sum::<u64>();
    report.set(
        "core.shard_contention_per_kop",
        kop(contention(a).saturating_sub(contention(b))),
    );

    report.set(
        "storage.runs_flushed",
        (a.backend_runs_flushed - b.backend_runs_flushed) as f64,
    );
    report.set(
        "storage.compactions",
        (a.backend_compactions - b.backend_compactions) as f64,
    );
    report.set(
        "storage.run_reads_per_search",
        ratio(a.backend_run_reads - b.backend_run_reads, hits + misses),
    );
    let checks = a.backend_bloom_checks - b.backend_bloom_checks;
    report.set(
        "storage.bloom_skip_ratio",
        ratio(a.backend_bloom_skips - b.backend_bloom_skips, checks),
    );
    report.set(
        "storage.bloom_fp_ratio",
        ratio(
            a.backend_bloom_false_positives - b.backend_bloom_false_positives,
            checks,
        ),
    );
}

pub(crate) fn tally(report: &mut Report, phase: &Phase, name: &str) {
    for (i, c) in phase.conns.iter().enumerate() {
        report.attempted += c.attempted;
        report.failed += c.failed;
        if let Some(why) = &c.first_failure {
            report.fail(format!("{name} phase, connection {i}: {why}"));
        }
    }
}

/// Generate the trace, then set up several times and keep the last.
/// `setup_s` is the generation time plus the *median* set-up, so one slow
/// fsync burst or a cold page cache does not decide it — at reference
/// speed: a [`Sampler`] reads the host's speed throughout.
pub(crate) fn timed_set_up<G, T>(
    opts: &RunOpts,
    report: &mut Report,
    generate: impl FnOnce() -> G,
    mut set_up: impl FnMut(&G, usize) -> Result<T>,
) -> Result<(G, T)> {
    let sampler = Sampler::start();
    let started = Instant::now();
    let generated = generate();
    let gen_s = started.elapsed().as_secs_f64();
    progress("setting up");
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut load_s = Vec::with_capacity(setups);
    let mut live = None;
    for attempt in 0..setups {
        // The previous daemon goes first: two would share the CPU.
        drop(live.take());
        let t = Instant::now();
        live = Some(set_up(&generated, attempt)?);
        load_s.push(t.elapsed().as_secs_f64());
    }
    let slowdown = sampler.finish();
    let load_median = quantile::median(&mut load_s).expect("at least one set-up");
    report.set("setup_s", (gen_s + load_median) / slowdown);
    report.set("loadgen.trace_gen_s", gen_s / slowdown);
    report.set("loadgen.state_load_s", load_median / slowdown);
    report.set("loadgen.setup_host_slowdown", slowdown);
    Ok((generated, live.expect("at least one set-up")))
}

/// Throughput, server CPU and wire bytes come from one phase: `sat`, or
/// `lat` where the trace cannot be pipelined.
pub(crate) fn set_main(report: &mut Report, main: &Phase) {
    report.set("ops_s", main.ops_per_s());
    report.set("server_cpu_us_per_op", main.cpu_us_per_op());
    report.set("wire_bytes_per_op", main.wire_bytes_per_op());
    report.set("loadgen.host_slowdown", main.host_slowdown());
    report.set(
        "loadgen.client_cpu_us_per_op",
        main.client_cpu_us as f64 / main.ok_ops().max(1) as f64,
    );
}

/// Peak memory and the counter-delta layer metrics, first measured phase
/// to last.
pub(crate) fn set_totals(report: &mut Report, first: &Phase, last: &Phase) {
    report.set("server_rss_mb", last.proc_after.rss_hwm_kb as f64 / 1024.0);
    set_counter_layers(
        report,
        &first.stats_before,
        &last.stats_after,
        &first.proc_before,
        &last.proc_after,
    );
}

/// Everything the traced pass needs from the untraced run.
pub struct Measured {
    pub report: Report,
    pub traces: Vec<ConnTrace>,
    /// Data directory left by the restart check (update workloads), for
    /// the traced pass to reopen in-process; removed when dropped.
    pub data_dir: Option<ScratchDir>,
}

/// Run one replay workload (`s2_warm_search`, `s2_gp_mixed`,
/// `s2_update_*`) end to end.
///
/// # Errors
/// Anything that stops the run short of a report: the daemon would not
/// start, a socket broke, set-up traffic got a wrong answer. Wrong
/// answers in the measured phases do not error — they are counted, and
/// the report comes back with `correct() == false`.
pub fn run_replay(opts: &RunOpts) -> Result<Measured> {
    let plan = plan(opts);
    let mut report = Report::new(opts.workload);

    progress(&format!("{}: generating the trace", opts.workload));
    let (traces, (daemon, mut conns)) = timed_set_up(
        opts,
        &mut report,
        || generate(opts, &plan),
        |traces, attempt| set_up(opts, traces, attempt),
    )?;
    report.trace_sha256 = trace::trace_sha256(&traces);

    let mut admin = TcpTransport::connect(&daemon.addr, &traces[0].tenant, SchemeId::Scheme2)?;
    let corrupt = (opts.inject == Some(Inject::CorruptReply)).then_some(1);
    let input = |i: usize, range: std::ops::Range<usize>, cap: Duration, corrupt_at| PhaseInput {
        trace: &traces[i],
        range: range.start.min(traces[i].order.len())..range.end.min(traces[i].order.len()),
        cap,
        corrupt_at,
    };

    // lat
    progress("lat phase");
    let lat = run_phase(&daemon, &mut admin, &mut conns, |i, conn| {
        let first_search = traces[i].order[..plan.lat_ops.min(traces[i].order.len())]
            .iter()
            .position(|&r| traces[i].reqs[r as usize].class == Class::Search);
        let corrupt_at = corrupt.and(first_search).filter(|_| i == 0);
        let mut res = replay::run_lat(conn, &input(i, 0..plan.lat_ops, plan.lat_cap, corrupt_at))?;
        // Further passes: the same requests on a fresh tenant each.
        for pass in 1..plan.passes {
            let tenant = format!("{}-pass{pass}", traces[i].tenant);
            *conn = RawConn::connect(&daemon.addr, &tenant, SchemeId::Scheme2)?;
            replay::send_all_verified(conn, &traces[i].load, 1)?;
            res.absorb(replay::run_lat(
                conn,
                &input(i, 0..plan.lat_ops, plan.lat_cap, None),
            )?);
        }
        Ok(res)
    })?;
    tally(&mut report, &lat, "lat");
    set_latencies(&mut report, &lat);

    // sat
    let mut sent = plan.lat_ops;
    let sat = if plan.window > 0 {
        progress("sat phase");
        let range = sent..sent + plan.sat_ops;
        sent = range.end;
        let sat = run_phase(&daemon, &mut admin, &mut conns, |i, conn| {
            replay::run_sat(
                conn,
                &input(i, range.clone(), plan.sat_cap, None),
                plan.window,
            )
        })?;
        tally(&mut report, &sat, "sat");
        Some(sat)
    } else {
        None
    };
    set_main(&mut report, sat.as_ref().unwrap_or(&lat));

    // open (diagnostic, traced runs only)
    let open = if plan.open_ops > 0 {
        progress("open phase");
        let range = sent..sent + plan.open_ops;
        let open = run_phase(&daemon, &mut admin, &mut conns, |i, conn| {
            let mut rng = SplitMix64::fork(opts.seed, 0x900 + i as u64);
            replay::run_open(
                conn,
                &input(i, range.clone(), plan.open_cap, None),
                plan.open_rate,
                &mut rng,
            )
        })?;
        tally(&mut report, &open, "open");
        let mut all = Samples::default();
        for c in &open.conns {
            all.extend(&c.search);
            all.extend(&c.update);
        }
        let us = |q| all.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
        report.set_n("loadgen.open_p50_us", us(0.50), Some(all.len() as u64));
        report.set_n("loadgen.open_p99_us", us(0.99), Some(all.len() as u64));
        let late = open.conns.iter().map(|c| c.late_max_ns).max().unwrap_or(0);
        report.set("loadgen.open_late_max_us", late as f64 / 1e3);
        let backlog = open.conns.iter().map(|c| c.backlog_max).max().unwrap_or(0);
        report.set("loadgen.open_backlog_max", backlog as f64);
        Some(open)
    } else {
        None
    };

    let last = open.as_ref().or(sat.as_ref()).unwrap_or(&lat);
    set_totals(&mut report, &lat, last);

    let mut data_dir = None;
    if catalogue::is_update(opts.workload) {
        // What each connection was acknowledged: every phase sends a
        // prefix of its own slice of the trace.
        let starts = [0, plan.lat_ops, plan.lat_ops + plan.sat_ops];
        let phases = [Some(&lat), sat.as_ref(), open.as_ref()];
        let acked: Vec<Vec<usize>> = (0..CONNS)
            .map(|i| {
                let order = &traces[i].order;
                starts
                    .iter()
                    .zip(phases)
                    .filter_map(|(&start, p)| Some((start, p?.conns[i].attempted as usize)))
                    .flat_map(|(start, n)| order[start.min(order.len())..].iter().take(n))
                    .map(|&r| r as usize)
                    .collect()
            })
            .collect();
        let updates: u64 = traces
            .iter()
            .zip(&acked)
            .map(|(t, sent)| {
                sent.iter()
                    .filter(|&&r| t.reqs[r].class == Class::Update)
                    .count() as u64
            })
            .sum();
        report.set(
            "disk_bytes_per_update",
            ratio(
                last.proc_after.write_bytes - lat.proc_before.write_bytes,
                updates,
            ),
        );
        drop(admin);
        drop(conns);
        progress("kill, restart, verify");
        data_dir = Some(restart_check(opts, daemon, &traces, &acked, &mut report)?);
    }
    report.set("failed_ratio", ratio(report.failed, report.attempted));
    progress("measured");
    Ok(Measured {
        report,
        traces,
        data_dir,
    })
}

/// Kill the daemon without a drain, restart it on the same directory,
/// and hold it to the acked-prefix contract: a fresh oracle replays
/// exactly the requests that were acknowledged, and every probe search
/// must come back byte-identical from the restarted daemon — so every
/// acknowledged document is found and nothing else is.
fn restart_check(
    opts: &RunOpts,
    daemon: Daemon,
    traces: &[ConnTrace],
    acked: &[Vec<usize>],
    report: &mut Report,
) -> Result<ScratchDir> {
    let mut acked = acked.to_vec();
    if opts.inject == Some(Inject::DropAcked) {
        // Pretend one more store (its blob put and its index update) was
        // acknowledged. The daemon never saw it.
        let t = &traces[0];
        let put = (0..t.reqs.len())
            .find(|r| t.reqs[*r].doc != u64::MAX && !acked[0].contains(r))
            .ok_or_else(|| Error::other("no unsent store left to drop"))?;
        acked[0].extend([put, put + 1]);
    }

    std::thread::scope(|s| {
        // The oracle's half runs beside the restart: replay what was
        // acknowledged, then answer the probes.
        let oracle = s.spawn(|| {
            let oracle = trace::oracle_tenant();
            let mut docs = std::collections::BTreeSet::new();
            for (t, sent) in traces.iter().zip(&acked) {
                let mut mask = vec![false; t.reqs.len() + 1];
                for &r in sent {
                    mask[r] = true;
                }
                for &r in sent {
                    let req = &t.reqs[r];
                    if req.class != Class::Update {
                        continue;
                    }
                    let _ = req.apply_to(&oracle);
                    // A store is acknowledged once its index update is:
                    // the blob put alone makes nothing findable.
                    if req.doc != u64::MAX && mask[r + 1] {
                        docs.insert(req.doc);
                    }
                }
            }
            let replies: Vec<Vec<u8>> = traces
                .iter()
                .flat_map(|t| &t.probes)
                .map(|p| oracle.handle_shared(p.payload()))
                .collect();
            (docs, replies)
        });

        let killed = Instant::now();
        let storage = daemon.kill();
        let Storage::Durable { dir, .. } = storage.clone() else {
            return Err(Error::other("restart check needs a durable daemon"));
        };
        // From here the directory is ours: the traced pass reopens it
        // after the second daemon is gone.
        let dir = ScratchDir(dir);
        let mut daemon = Daemon::spawn(&opts.serverd, storage)?;
        daemon.remove_dir_on_drop = false;
        let mut conn = RawConn::connect(&daemon.addr, &traces[0].tenant, SchemeId::Scheme2)?;
        let mut recover_s = None;
        let mut replies = Vec::new();
        for (seq, probe) in traces.iter().flat_map(|t| &t.probes).enumerate() {
            replies.push(conn.round_trip(probe, 1 + seq as u32)?.payload.to_vec());
            recover_s.get_or_insert_with(|| killed.elapsed().as_secs_f64());
        }
        report.set("recover_s", recover_s.unwrap_or(0.0));

        let (acked_docs, want) = oracle.join().expect("oracle thread panicked");
        let mut found = std::collections::BTreeSet::new();
        for (got, want) in replies.iter().zip(&want) {
            report.attempted += 1;
            if got != want {
                report.failed += 1;
                report.fail(format!(
                    "after restart a probe search returned {} bytes, the acked-prefix oracle {} bytes",
                    got.len(),
                    want.len()
                ));
            }
            if let Ok(docs) = proto_common::decode_result(got) {
                found.extend(docs.into_iter().map(|(id, _)| id));
            }
        }
        let missing = acked_docs.difference(&found).count();
        if missing > 0 {
            report.failed += missing as u64;
            report.fail(format!(
                "after restart {missing} of {} acknowledged documents were not found",
                acked_docs.len()
            ));
        }
        Ok(dir)
    })
}

/// Which runner a workload uses.
pub fn is_replay(workload: &str) -> bool {
    workload != S1
}
