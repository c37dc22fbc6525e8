#!/usr/bin/env bash
# The whole suite with one command: builds bench_e2e, then runs every
# workload in its own process, untraced (end-to-end metrics) and traced
# (per-layer metrics), printing every metric by name with its unit.
#
#   bench_e2e/run.sh [--seed N] [--seconds S] [--repeat N] [--out DIR] [--smoke]
#   bench_e2e/run.sh --compare DIR_A DIR_B
#
# --repeat N makes a set of N runs (seeds N, N+1, ...) under DIR/run-<i>/;
# --compare prints, per workload x end-to-end metric, both sets' medians,
# the ratio B/A, and ok / worse / unresolved against BENCHMARK.json's bounds.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1 seconds=10 repeat=1 out=bench_e2e/out smoke=()
while (($#)); do
    case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --repeat) repeat=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --compare) exec python3 bench_e2e/compare.py "$2" "$3" ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path bench_e2e/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench_e2e/target}/release/bench_e2e"

workloads=(ingest.durable ingest.memory analytics.batch kernels.gap
    serve.frozen serve.mixed recover.replay)
for ((i = 1; i <= repeat; i++)); do
    dir=$out
    ((repeat > 1)) && dir=$out/run-$i
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            "$bin" --workload "$w" --seed $((seed + i - 1)) --seconds "$seconds" \
                --trace "$trace" --out "$dir" "${smoke[@]}"
        done
    done
done
