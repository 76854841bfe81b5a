#!/usr/bin/env bash
# Record (or refresh) the benchmark baselines: one BENCH_<workload>.json
# per figure workload, one value per metric, written at the repo root (or
# into the directory given as $1). The simulation is deterministic, so one
# run is the whole measurement and re-running on the same commit
# reproduces the files byte-for-byte — scripts/ci.sh regenerates them into
# a temp dir and `cmp`s; commit a diff only when a change to the simulated
# clock is intentional.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p tvmnp-bench

OUT="${1:-.}"

for workload in fig4 fig5 fig6 sched serve; do
    target/release/tvmnp bench \
        --workload "$workload" --bench-out "$OUT/BENCH_${workload}.json"
done
