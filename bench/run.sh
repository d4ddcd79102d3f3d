#!/usr/bin/env bash
# The repo's one benchmark: build `sse-serverd` and `sse-perf`, then run.
#
#   bench/run.sh [--seed N] [--seconds S] [--smoke]
#       all five workloads, every metric printed as
#       `workload metric value unit`, results in bench/out/latest.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of output is the result as JSON
#   bench/run.sh repeat N | compare A.json B.json | trace W | catalogue [json]
#       see bench/README.md
#
# Exits non-zero if any answer was wrong. On any way out — success, error,
# Ctrl-C — the child daemon is dead and its data directories are gone.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both binaries. The bench package is its own
# workspace (bench/Cargo.toml, bench/Cargo.lock), and the daemon is built
# through it as the `sse-server` path dependency's binary, so the root
# Cargo.toml and Cargo.lock are never touched.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml \
    -p sse-perf --bin sse-perf -p sse-server --bin sse-serverd

case "${1:-}" in
    repeat | compare | trace | catalogue) ;;
    --workload) set -- run "$@" ;;
    *)
        case " $* " in
            *" --workload "*) set -- run "$@" ;;
            *) set -- all "$@" ;;
        esac
        ;;
esac

out=bench/out
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    [[ "${args[i]}" == --out ]] && out="${args[i + 1]:-$out}"
done

# Job control gives the benchmark its own process group, so one signal
# reaches it and every daemon it started.
set -m
"$CARGO_TARGET_DIR/release/sse-perf" "$@" &
perf=$!
cleanup() {
    kill -KILL -- "-$perf" 2>/dev/null || true
    rm -rf "$out"/data-* "$out"/trace-data-*
}
trap 'cleanup; exit 130' INT TERM
status=0
wait "$perf" || status=$?
cleanup
exit "$status"
