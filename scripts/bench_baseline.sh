#!/usr/bin/env bash
# Record (or refresh) the benchmark baselines: one BENCH_<workload>.json
# per figure workload, written at the repo root (or into the directory
# given as $1). The simulation is deterministic, so re-running on the same
# commit reproduces the files byte-for-byte — scripts/ci.sh regenerates
# them into a temp dir and `cmp`s; commit a diff only when a change to
# the simulated clock is intentional.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p tvmnp-bench

RUNS="${RUNS:-5}"
OUT="${1:-.}"

for workload in fig4 fig5 fig6 sched serve; do
    target/release/tvmnp bench \
        --workload "$workload" --runs "$RUNS" \
        --bench-out "$OUT/BENCH_${workload}.json"
done
