//! Experiment harness: regenerates every reproduced paper artifact as a
//! printed table.
//!
//! ```sh
//! cargo run --release -p sse-bench --bin harness            # all, quick
//! cargo run --release -p sse-bench --bin harness -- --full  # all, full sweeps
//! cargo run --release -p sse-bench --bin harness -- e1 e4   # selected
//! cargo run --release -p sse-bench --bin harness -- p1      # primitive costs
//! ```

use sse_bench::experiments;
use sse_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    println!("SSE reproduction harness — Sedghi et al., SDM@VLDB 2010");
    println!(
        "scale: {:?}  (pass --full for the EXPERIMENTS.md sweeps)\n",
        scale
    );

    let tables = if ids.is_empty() {
        experiments::run_all(scale)
    } else {
        ids.iter()
            .map(|id| {
                experiments::by_id(id)
                    .unwrap_or_else(|| panic!("unknown experiment id: {id} (use e1..e8, t1, p1)"))(
                    scale,
                )
            })
            .collect()
    };

    for t in tables {
        println!("{}", t.render());
        println!();
    }
}
