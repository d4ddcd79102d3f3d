//! `sse-perf` — the repo's one benchmark.
//!
//! ```text
//! sse-perf run --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! sse-perf all [--seed N] [--seconds S] [--smoke]              the set; writes out/latest.json
//! sse-perf trace W [--seed N]                                  the in-process traced pass alone
//! sse-perf compare A.json B.json                               apply the bounds, exit 1 on regression
//! sse-perf repeat N [--seed N] [--seconds S]                   run the set N times, print spreads
//! sse-perf catalogue [json]                                    the metric catalogue (json: BENCHMARK.json)
//! ```
//!
//! See `bench/README.md` for the workload and metric catalogue.

mod affinity;
mod calib;
mod catalogue;
mod child;
mod compare;
mod json;
mod layers;
mod quantile;
mod replay;
mod report;
mod rng;
mod run;
mod s1;
mod trace;

use report::Report;
use run::{Inject, RunOpts};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: sse-perf run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--inject corrupt-reply|drop-acked]\n\
         \x20      sse-perf all [--seed N] [--seconds S] [--smoke]\n\
         \x20      sse-perf trace W [--seed N]\n\
         \x20      sse-perf compare A.json B.json\n\
         \x20      sse-perf repeat N [--seed N] [--seconds S] [--smoke]\n\
         \x20      sse-perf catalogue [json]\n\
         common: [--serverd PATH] [--out DIR]\n\
         workloads: {}",
        catalogue::WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

/// `BENCHMARK.json`'s `run_seconds`: what `all` and `repeat` measure for
/// when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke`: 1/20 of the op counts.
const SMOKE_SECONDS: f64 = DEFAULT_SECONDS / 20.0;

struct Args {
    positional: Vec<String>,
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    serverd: PathBuf,
    out_dir: PathBuf,
    inject: Option<Inject>,
}

fn workload_named(name: &str) -> &'static str {
    catalogue::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`");
            usage()
        })
}

fn parse_args(args: impl Iterator<Item = String>) -> Args {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut out = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        serverd: PathBuf::from(target).join("release/sse-serverd"),
        out_dir: PathBuf::from("bench/out"),
        inject: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {arg}");
                usage()
            })
        };
        fn num<T: std::str::FromStr>(s: &str) -> T {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad number `{s}`");
                usage()
            })
        }
        match arg.as_str() {
            "--workload" => out.workload = Some(workload_named(&value())),
            "--seed" => out.seed = num(&value()),
            "--seconds" => out.seconds = Some(num(&value())),
            "--trace" => out.trace = num::<u8>(&value()) != 0,
            "--smoke" => out.smoke = true,
            "--serverd" => out.serverd = PathBuf::from(value()),
            "--out" => out.out_dir = PathBuf::from(value()),
            "--inject" => {
                out.inject = Some(match value().as_str() {
                    "corrupt-reply" => Inject::CorruptReply,
                    "drop-acked" => Inject::DropAcked,
                    other => {
                        eprintln!("unknown fault `{other}`");
                        usage()
                    }
                })
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                usage()
            }
            _ => out.positional.push(arg),
        }
    }
    out
}

impl Args {
    fn opts(&self, workload: &'static str, trace: bool) -> RunOpts {
        let seconds = self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        });
        if !(seconds > 0.0 && seconds <= 60.0) {
            eprintln!("--seconds must be in (0, 60]");
            usage();
        }
        RunOpts {
            workload,
            seed: self.seed,
            seconds,
            trace,
            smoke: self.smoke,
            serverd: self.serverd.clone(),
            out_dir: self.out_dir.clone(),
            inject: self.inject,
        }
    }
}

/// Run one workload: the untraced child-daemon run, then (with `trace`)
/// the in-process traced pass, whose spans go to `trace-<workload>.json`.
fn run_one(opts: &RunOpts) -> std::io::Result<Report> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let measured = if run::is_replay(opts.workload) {
        run::run_replay(opts)?
    } else {
        s1::run(opts)?
    };
    let run::Measured {
        mut report,
        traces,
        data_dir,
    } = measured;
    if opts.trace {
        let spans = layers::traced_pass(
            opts,
            &traces,
            data_dir.as_ref().map(|d| d.0.as_path()),
            &mut report,
        )?;
        let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
        std::fs::write(&path, layers::spans_json(&spans).compact())?;
    }
    Ok(report)
}

/// The set, in catalogue order, as one `latest.json` document.
fn run_set(args: &Args) -> std::io::Result<(json::Json, bool)> {
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &catalogue::WORKLOADS {
        let opts = args.opts(w.name, true);
        let report = run_one(&opts)?;
        report.print_lines();
        all_correct &= report.correct();
        entries.push((w.name, report.to_json()));
    }
    let doc = json::Json::obj([
        ("seed", json::Json::Num(args.seed as f64)),
        (
            "seconds",
            json::Json::Num(args.opts(catalogue::WARM, true).seconds),
        ),
        (
            "parallelism",
            json::Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads", json::Json::obj(entries)),
    ]);
    Ok((doc, all_correct))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else { usage() };
    let args = parse_args(argv);
    // Before any thread or child exists, so all of them inherit it.
    if matches!(command.as_str(), "run" | "all" | "repeat" | "trace") {
        match affinity::pin_to_one_cpu() {
            Some(cpu) => run::progress(&format!("pinned to CPU {cpu}")),
            None => run::progress("could not pin to one CPU; timings will be noisier"),
        }
    }
    let outcome: std::io::Result<bool> = match command.as_str() {
        "run" => {
            let Some(workload) = args.workload else {
                usage()
            };
            run_one(&args.opts(workload, args.trace)).map(|report| {
                report.print_lines();
                println!("{}", report.result_line(args.trace));
                report.correct()
            })
        }
        "all" => run_set(&args).and_then(|(doc, ok)| {
            let path = args.out_dir.join("latest.json");
            std::fs::write(&path, doc.pretty())?;
            println!("wrote {}", path.display());
            Ok(ok)
        }),
        "trace" => {
            let [name] = args.positional.as_slice() else {
                usage()
            };
            layers::trace_only(&args.opts(workload_named(name), true)).map(|()| true)
        }
        "catalogue" => {
            if args.positional.first().map(String::as_str) == Some("json") {
                print!("{}", catalogue::benchmark_json(DEFAULT_SECONDS).pretty());
            } else {
                catalogue::print_catalogue();
            }
            Ok(true)
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                usage()
            };
            compare::compare_files(a.as_ref(), b.as_ref())
        }
        "repeat" => {
            let [n] = args.positional.as_slice() else {
                usage()
            };
            let Ok(n) = n.parse::<usize>() else { usage() };
            compare::repeat(n, |i| {
                println!("--- repeat {} of {n}", i + 1);
                run_set(&args)
            })
            .and_then(|(doc, ok)| {
                let path = args.out_dir.join("repeat.json");
                std::fs::write(&path, doc.pretty())?;
                println!("wrote {}", path.display());
                Ok(ok)
            })
        }
        _ => usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            // No result line: the driver must see this run as broken,
            // not as a measurement.
            eprintln!("sse-perf: {e}");
            ExitCode::from(3)
        }
    }
}
