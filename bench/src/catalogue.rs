//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric
//! each should move. `BENCHMARK.json` is this file rendered as JSON (a
//! unit test holds the two together).

use crate::json::Json;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: what the workload stresses and why it exists.
    pub why: &'static str,
}

pub const WARM: &str = "s2_warm_search";
pub const GP: &str = "s2_gp_mixed";
pub const UPD_BTREE: &str = "s2_update_btree";
pub const UPD_LSM: &str = "s2_update_lsm";
pub const S1: &str = "s1_traveler";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: WARM,
        why: "memo-served 65 B searches, no crypto, no disk: net and server (frame decode, pool, reactor, scheduler, writev) do nearly all the work",
    },
    Workload {
        name: GP,
        why: "paper's GP profile, x=4: every search follows updates, so the memo is stale and tree lookup, chain walk, decrypt and snapshot swap dominate",
    },
    Workload {
        name: UPD_BTREE,
        why: "durable stores with interleaved searches and checkpoints on the btree backend, then SIGKILL and restart: journal, group commit, fsync, snapshot rewrite",
    },
    Workload {
        name: UPD_LSM,
        why: "byte-identical traffic to s2_update_btree on the lsm backend: run flush, compaction and bloom filters instead of snapshot rewrite",
    },
    Workload {
        name: S1,
        why: "paper's traveler profile through the real Scheme 1 client: two rounds, ElGamal between them, 50 KB replies; the one workload about client crypto",
    },
];

pub fn is_update(workload: &str) -> bool {
    workload == UPD_BTREE || workload == UPD_LSM
}

fn has_updates(workload: &str) -> bool {
    workload == GP || is_update(workload)
}

fn always(_: &str) -> bool {
    true
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `sse-perf compare` (and, where `gated`, the driver) calls
    /// it a regression. `0.0` means any rise regresses.
    pub bound: f64,
    /// Defined and nonzero on every workload, and therefore listed under
    /// `end_to_end` in `BENCHMARK.json`. The driver wants every such
    /// metric from every workload, so the metrics that only some
    /// workloads have (`—` in the issue's table) are listed under
    /// `per_layer` there and gated by `sse-perf compare` alone.
    pub gated: bool,
    /// Workloads that report it.
    pub applies: fn(&str) -> bool,
    pub meaning: &'static str,
}

/// Bound of every timing. Timings are reported at reference speed
/// (`calib`) from a run pinned to one CPU (`affinity`); ten runs on ten
/// seeds then spread 1–10 % between quartiles (13 % on one durable tail),
/// where the raw timings of the issue's two-connection shape spread
/// 20–60 %. The bound stays at the contract's maximum all the same: the
/// host's weather on the day of a check is not ours to promise, and a
/// change worth catching at 10 % is caught by `sse-perf compare` and ten
/// alternating pairs, not by one driver run.
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 14] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        gated: true,
        applies: always,
        meaning: "trace generated once, plus the median of three daemon start → state loaded → warmed cycles, at reference speed",
    },
    EndToEnd {
        name: "ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        gated: true,
        applies: always,
        meaning: "verified ops per second at reference speed, median over 100 ms blocks, sat phase (lat where there is no sat)",
    },
    EndToEnd {
        name: "search_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: true,
        applies: always,
        meaning: "client-observed search latency at reference speed, lat phase, exact median of all samples",
    },
    EndToEnd {
        name: "search_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: true,
        applies: always,
        meaning: "median over 200-request stretches of the stretch's 90th percentile, at reference speed — the highest percentile that repeats on this box",
    },
    EndToEnd {
        name: "search_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: false,
        applies: always,
        meaning: "as search_p90_us, 99th percentile of 1000-request stretches; spreads wider than any allowed bound here, so not driver-gated",
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: false,
        applies: has_updates,
        meaning: "client-observed latency of an index update (ack after fsync on durable workloads) at reference speed, lat phase; blob puts are ops but not timed",
    },
    EndToEnd {
        name: "update_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: false,
        applies: has_updates,
        meaning: "as search_p90_us, for index updates",
    },
    EndToEnd {
        name: "update_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: false,
        applies: has_updates,
        meaning: "as search_p99_us, for index updates",
    },
    EndToEnd {
        name: "server_cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: true,
        applies: always,
        meaning: "child utime+stime delta per verified op over sat (lat where there is no sat), at reference speed",
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // The lsm backend's peak depends on when flushes and compactions
        // land: 66–77 MiB over ten runs.
        bound: 0.25,
        gated: true,
        applies: always,
        meaning: "child VmHWM at the end of the measured phases",
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        // Exact for a given seed; across seeds the reply sizes of the GP
        // profile and of the traveler's procedure codes move it by 1–2 %.
        bound: 0.10,
        gated: true,
        applies: always,
        meaning: "request + response payload bytes per op over the same phase as ops_s — the paper's communication column",
    },
    EndToEnd {
        name: "disk_bytes_per_update",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
        gated: false,
        applies: is_update,
        meaning: "/proc/<pid>/io write_bytes delta per acknowledged update over all measured phases, checkpoints included",
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
        gated: false,
        applies: is_update,
        meaning: "SIGKILL → restarted daemon answers its first probe search",
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        gated: false,
        applies: always,
        meaning: "(ERR + BUSY + DEGRADED + wrong or missing answers) / attempted",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const NET: &str = "server_cpu_us_per_op, ops_s on s2_warm_search; search_p50_us on s1_traveler; none on s2_update_*";
const SERVER: &str = "ops_s, search_p99_us on s2_warm_search; at most 5% of s2_gp_mixed";
const CORE: &str =
    "search_p50_us, update_p50_us on s2_gp_mixed; ops_s, update_p50_us on s2_update_*";
const INDEX: &str = "search_p50_us on s2_gp_mixed and s1_traveler; bypassed by s2_warm_search";
const PRIM: &str =
    "search_p50_us, ops_s on s1_traveler and s2_gp_mixed; zero share on s2_warm_search";
const STORAGE: &str = "update_p50_us, ops_s, disk_bytes_per_update, recover_s on s2_update_btree vs s2_update_lsm; none in memory";
const PHR: &str = "search_p50_us on s1_traveler only";
const LOADGEN: &str = "none: the benchmark's own cost and its diagnostic open loop";

/// Per-layer metrics; a layer is a crate. Source A metrics are counter
/// deltas over the measured phases of the untraced child-daemon run;
/// source B metrics come from the in-process traced pass.
pub const LAYERS: &[Layer] = &[
    // net — A
    layer("net.pool_hit_ratio", "ratio", Higher, NET),
    layer("net.bytes_copied_per_op", "B", Lower, NET),
    layer("net.bytes_in_per_op", "B", Lower, NET),
    layer("net.bytes_out_per_op", "B", Lower, NET),
    // net — B
    layer("net.frame_decode_ns", "ns", Lower, NET),
    layer("net.frame_encode_ns", "ns", Lower, NET),
    layer("net.pool_cycle_ns", "ns", Lower, NET),
    // server — A
    layer("server.queue_wait_p50_ns", "ns", Lower, SERVER),
    layer("server.service_p50_ns", "ns", Lower, SERVER),
    layer("server.sched_local_ratio", "ratio", Higher, SERVER),
    layer("server.sched_stolen_per_kop", "1/kop", Lower, SERVER),
    layer("server.sched_spilled", "count", Lower, SERVER),
    layer("server.queue_depth_hw", "count", Lower, SERVER),
    layer("server.busy_ratio", "ratio", Lower, SERVER),
    layer("server.writev_batch", "frames", Higher, SERVER),
    layer("server.wakeups_per_op", "1/op", Lower, SERVER),
    layer("server.spurious_polls_per_kop", "1/kop", Lower, SERVER),
    layer("server.ctx_switches_per_op", "1/op", Lower, SERVER),
    // server — B
    layer("server.proto_decode_ns", "ns", Lower, SERVER),
    layer("server.sched_hop_ns", "ns", Lower, SERVER),
    layer("server.tenant_dispatch_ns", "ns", Lower, SERVER),
    // core — A
    layer("core.memo_hit_ratio", "ratio", Higher, CORE),
    layer("core.walk_steps_saved_per_search", "steps", Higher, CORE),
    layer("core.commit_group_mean", "ops", Higher, CORE),
    layer("core.fsyncs_per_update", "1/op", Lower, CORE),
    layer("core.snapshot_swaps_per_update", "1/op", Lower, CORE),
    layer("core.shard_contention_per_kop", "1/kop", Lower, CORE),
    // core — B
    layer("core.s2_search_ns", "ns", Lower, CORE),
    layer("core.s2_update_ns", "ns", Lower, CORE),
    layer("core.s1_search_r1_ns", "ns", Lower, CORE),
    layer("core.s1_search_r2_ns", "ns", Lower, CORE),
    layer("core.client_search_ns", "ns", Lower, CORE),
    layer("core.client_update_ns", "ns", Lower, CORE),
    // index — B
    layer("index.lookup_ns", "ns", Lower, INDEX),
    layer("index.nodes_per_lookup", "nodes", Lower, INDEX),
    layer("index.insert_ns", "ns", Lower, INDEX),
    layer("index.bitset_xor_ns", "ns", Lower, INDEX),
    // primitives — B
    layer("primitives.chain_steps_per_search", "steps", Lower, PRIM),
    layer("primitives.chain_step_ns", "ns", Lower, PRIM),
    layer("primitives.prf_ns", "ns", Lower, PRIM),
    layer("primitives.prg_mask_ns_per_kb", "ns/KiB", Lower, PRIM),
    layer("primitives.etm_open_ns_per_kb", "ns/KiB", Lower, PRIM),
    layer("primitives.elgamal_encrypt_ns", "ns", Lower, PRIM),
    layer("primitives.elgamal_decrypt_ns", "ns", Lower, PRIM),
    // storage — A
    layer("storage.runs_flushed", "count", Lower, STORAGE),
    layer("storage.compactions", "count", Lower, STORAGE),
    layer("storage.run_reads_per_search", "1/op", Lower, STORAGE),
    layer("storage.bloom_skip_ratio", "ratio", Higher, STORAGE),
    layer("storage.bloom_fp_ratio", "ratio", Lower, STORAGE),
    layer("storage.wal_replayed_records", "count", Lower, STORAGE),
    // storage — B
    layer("storage.wal_append_ns", "ns", Lower, STORAGE),
    layer("storage.wal_fsync_ns", "ns", Lower, STORAGE),
    layer("storage.blob_put_ns", "ns", Lower, STORAGE),
    layer("storage.blob_get_ns", "ns", Lower, STORAGE),
    layer("storage.checkpoint_ms", "ms", Lower, STORAGE),
    // phr — B
    layer("phr.find_by_code_ns", "ns", Lower, PHR),
    // loadgen — the benchmark itself
    layer("loadgen.open_p50_us", "us", Lower, LOADGEN),
    layer("loadgen.open_p99_us", "us", Lower, LOADGEN),
    layer("loadgen.open_late_max_us", "us", Lower, LOADGEN),
    layer("loadgen.open_backlog_max", "count", Lower, LOADGEN),
    layer("loadgen.client_cpu_us_per_op", "us", Lower, LOADGEN),
    layer("loadgen.host_slowdown", "ratio", Lower, LOADGEN),
    layer("loadgen.setup_host_slowdown", "ratio", Lower, LOADGEN),
    layer("loadgen.trace_gen_s", "s", Lower, LOADGEN),
    layer("loadgen.state_load_s", "s", Lower, LOADGEN),
    // trace
    layer(
        "trace.coverage_ratio",
        "ratio",
        Higher,
        "none: the share of untraced server_cpu_us_per_op that the replayed layer self times explain; the rest is syscalls, kernel TCP and scheduling",
    ),
];

/// `BENCHMARK.json`, rendered from this catalogue (`sse-perf catalogue`).
///
/// `per_layer` leads with the end-to-end metrics that only some workloads
/// report: the driver wants every `end_to_end` metric, nonzero, from every
/// workload, so those cannot be listed there. `sse-perf compare` still
/// applies their bounds.
pub fn benchmark_json(run_seconds: f64) -> Json {
    let gated = END_TO_END.iter().filter(|m| m.gated).map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let layer = |name: &str, unit: &str, better: Better| {
        Json::obj([
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ])
    };
    let per_layer = END_TO_END
        .iter()
        .filter(|m| !m.gated)
        .map(|m| layer(m.name, m.unit, m.better))
        .chain(LAYERS.iter().map(|m| layer(m.name, m.unit, m.better)));
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("bench/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("bench")])),
        ("run_seconds", Json::Num(run_seconds)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(gated.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

/// The catalogue as text: every metric with its unit, direction, bound,
/// meaning and the end-to-end metric it should move.
pub fn print_catalogue() {
    for w in &WORKLOADS {
        println!("workload {}: {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end-to-end {} [{}, {} is better, bound {:.0}%{}]: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            if m.gated {
                ""
            } else {
                ", sse-perf compare only"
            },
            m.meaning
        );
    }
    for m in LAYERS {
        println!(
            "layer {} [{}, {} is better] moves: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// Unit of a metric by name, end-to-end or per-layer.
///
/// # Panics
/// On a name the catalogue does not list — a metric must be declared
/// here before any code may report it.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| LAYERS.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The contract's lexical rules for names and units.
    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound <= 0.25);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in LAYERS {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(LAYERS.len() + END_TO_END.len() <= 128);
    }

    #[test]
    fn benchmark_json_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run_seconds = committed.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
        assert_eq!(committed, benchmark_json(run_seconds));
        // The contract's key set, in its order, and its size limit.
        let keys: Vec<&str> = committed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.pretty().len() < 64 * 1024);
        for m in committed.get("end_to_end").and_then(Json::as_arr).unwrap() {
            assert_eq!(m.as_obj().unwrap().len(), 4);
        }
        assert!(committed
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")));
    }
}
