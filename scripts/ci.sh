#!/usr/bin/env bash
# Tier-1 CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo fmt --check
# clippy also holds crates/clippy.toml's one-site rules (a thread, a
# caught panic, the process arguments, a dispatch fault) and rustc's
# `dead_code` every crate-visible item.
cargo clippy -- -D warnings

# Kernel numerics gate (DESIGN.md "kernel numerics contract"). Hard step:
# the tensor kernels must reproduce, bit for bit, the direct loops kept as
# test-only references — in release, the profile the benchmark measures
# (`cargo test` above ran the same suite under the dev profile). The face
# matcher is held to its one-window loop the same way.
cargo test --release -q -p tvmnp-tensor --test kernel_identity
# The walk and `qnn.requantize` requantize through `requantize_block`'s
# lane arithmetic: gemmlowp's definition, in release.
cargo test --release -q -p tvmnp-tensor --test requant_reference
cargo test --release -q -p tvmnp-vision --test face_matcher_identity
# Listing 6 end to end (DESIGN.md "Compile products and the file
# boundary"): `cargo test` compiles the deploy example but runs none of
# it. Hard step: export on the host, `load_library` on a runtime-only
# phone, and the example asserts the phone's outputs bit-identical to the
# server's.
cargo run --release --offline --quiet --example deploy_android
# And they must not reach for what would break the contract or bring the
# per-element allocations back: fused multiply-add, boxed iterators,
# per-element index division. Only non-test source is checked.
for f in crates/tensor/src/kernels/*.rs crates/vision/src/detect.rs; do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -E 'mul_add|Box<dyn Iterator|\.unravel\('; then
        echo "kernel gate: forbidden construct in $f (see above)" >&2
        exit 1
    fi
done
# Likewise the run path must not grow its per-run value map back: both
# runtimes walk a step plan over slot indices (DESIGN.md "The execution
# plan"). The copies a grep cannot see are pinned by tests/run_path_allocs.rs.
for f in crates/runtime/src/executor.rs crates/relay/src/memory.rs; do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -F 'HashMap<NodeRef'; then
        echo "run-path gate: $f keys values by NodeRef again" >&2
        exit 1
    fi
done
# And the cache must not take a size by printing an entry (DESIGN.md
# "Compile products and the file boundary"): the LRU budget counts weight
# bytes. The serializations a grep cannot see — the discarded export in
# `relay_build` among them — are pinned by tests/run_path_allocs.rs.
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/byoc/src/cache.rs | grep -F 'to_string(self)'; then
    echo "file-boundary gate: crates/byoc/src/cache.rs sizes an entry by serializing it" >&2
    exit 1
fi
# And a compiled model has one file format (DESIGN.md "Compile products and
# the file boundary"): the disk tier writes the export's own schema, so the
# cache's products carry no serde schema of their own and no cache file
# wraps one in an `"entry"` member again.
byoc_code=$(for f in $(find crates/byoc/src -name '*.rs' | sort); do
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if awk '/#\[derive\(/ { derive = $0 }
        /(enum|struct) CachedArtifact[ {]/ && derive ~ /Serialize|Deserialize/ { print derive; bad = 1 }
        /: *(pub(\([a-z]+\))? )?(enum|struct|fn|impl|mod|use) / { derive = "" }
        END { exit !bad }' <<<"$byoc_code" ||
    grep -E '(Serialize|Deserialize) for CachedArtifact' <<<"$byoc_code" ||
    grep -E '^crates/byoc/src/cache\.rs:.*"entry"' <<<"$byoc_code"; then
    echo "one-file-format gate: the cache gives a compiled model a second file schema" >&2
    exit 1
fi

# And the harness must stay one binary (DESIGN.md, the `bench` crate row):
# no per-figure executable may grow back beside `tvmnp`. (Only its `main`
# reads the process arguments: crates/clippy.toml.)
if [ -e crates/bench/src/bin ]; then
    echo "one-binary gate: crates/bench/src/bin exists again" >&2
    exit 1
fi

# And faults strike at one layer (DESIGN.md "Faults: one layer"): the
# runtime that dispatches consults the injector (crates/clippy.toml allows
# `on_dispatch` only in `RunOptions::dispatch`), and the Neuron runtime,
# which only computes, must not know fault injection exists.
if grep -rnE 'FaultInjector|RetryPolicy' crates/neuropilot/src; then
    echo "one-fault-path gate: crates/neuropilot/src names the fault injector or the retry policy" >&2
    exit 1
fi

# And both runtimes call kernels through one op table (DESIGN.md "The
# execution plan"): the Neuron runtime lifts each op back to its Relay
# operator and evaluates it with `relay::interp::eval_op`, so a second
# op → kernel dispatch cannot grow back in the Neuron stack.
for f in $(find crates/neuropilot/src -name '*.rs' | sort); do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -F 'kernels::'; then
        echo "one-op-table gate: $f calls tensor kernels (only relay::interp::eval_op may)" >&2
        exit 1
    fi
done

# And an operator's attributes are one struct (DESIGN.md, the `tensor`,
# `relay` and `neuropilot` rows): Relay's conv and pool attributes are the
# kernels' parameter structs, and a Neuron opcode carries the Relay
# attribute struct of the op it converts from, so no second declaration,
# no conversion between two, and no opcode field restating one may grow
# back. The pools keep their own fields: Neuron IR has no
# `count_include_pad`.
relay_code=$(for f in $(find crates/relay/src -name '*.rs' | sort); do
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if grep -E 'struct (Conv2dAttrs|Pool2dAttrs)\b|fn to_kernel\b' <<<"$relay_code" ||
    awk '/enum NeuronOpKind[ {]/ { inside = 1; next }
        !inside { next }
        /^}/ { exit }
        { line = $0; sub(/\/\/.*/, "", line) }
        line ~ /(MaxPool2d|AvgPool2d) *\{/ { pool = line !~ /\}/; next }
        pool { if (line ~ /\}/) pool = 0; next }
        line ~ /(^|[^A-Za-z0-9_])(strides|dilation|groups|alpha|new_shape|axes|axis|pads) *:/ {
            print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }' crates/neuropilot/src/nir.rs; then
    echo "one-attribute-struct gate: relay restates the kernels' conv / pool parameters or a Neuron opcode restates a Relay attribute field" >&2
    exit 1
fi

# And a graph has one judge (DESIGN.md, the `conformance` row): the
# generator builds each drawn op with `relay::builder` and types it with
# Relay's checker, so no shape rule of its own may grow back beside it.
conformance_code=$(for f in $(find crates/conformance/src -name '*.rs' | sort); do
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if grep -E 'fn (shape_after|node_shapes)\b|type NodeShape\b' <<<"$conformance_code"; then
    echo "one-judge gate: crates/conformance/src restates Relay's shape rules" >&2
    exit 1
fi

# And a node is one span (DESIGN.md "The cost ledger"): a measured profile
# is read off the cost ledger, so no telemetry detail mode, per-kernel
# executor span or per-node series may grow back as a second copy of it.
if grep -rnE 'set_detail|detail_enabled|executor\.kernel|executor\.node_us|"executor\.nodes"' crates/*/src; then
    echo "one-span-per-node gate: crates/*/src restores profile detail spans or per-node series" >&2
    exit 1
fi

# And a profile cell is the ledger's sums (DESIGN.md "One registry, two
# instances"): a ledger entry holds what it charges and a cell its count,
# µs and µJ totals, so no unscaled copy of the charged time and no
# per-cell quantile sketch (nor its file format) may grow back.
if grep -rnE 'analytic_us|analytic_body_us|total_analytic|QuantileSketch|sketch' crates/profile/src crates/hwsim/src/ledger.rs; then
    echo "one-profile-cell gate: crates/profile/src or hwsim's ledger restores an analytic-us copy or a sketch" >&2
    exit 1
fi

# And a measured profile has one producer (DESIGN.md "One registry, two
# instances"): `tvmnp bench --profile-store` bins the ledgers of the
# workload's models into a profile keyed by the workload alone, so no
# multi-field key, content-addressed store or second recording site in the
# harness may grow back.
if grep -rnE 'ProfileKey|ProfileStore|fn canonical|fn hash' crates/profile/src crates/bench/src crates/core/src; then
    echo "one-profile-producer gate: a profile key, a profile store or a key hash is back" >&2
    exit 1
fi
for f in $(find crates/bench/src -name '*.rs' ! -name bench.rs | sort); do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -F 'record_ledger('; then
        echo "one-profile-producer gate: $f records a measured profile (only bench.rs may)" >&2
        exit 1
    fi
done

# And a schedule report is the schedule (DESIGN.md "Everything read off a
# schedule"): Fig. 5's metrics are `hwsim::Schedule` queries plus
# `report::utilization_from_schedule`, so no second model of placements,
# wait reasons or over-deadline frames may grow back beside it.
if grep -rnE 'ScheduleReport|WaitReason|PathStep|DeviceGaps|analyze_schedule|account_dropped_frames|FrameAccounting|scheduler\.frames_dropped' crates/*/src; then
    echo "one-schedule-model gate: crates/*/src restores a second model of a schedule" >&2
    exit 1
fi

# A Neuron plan is its placements: the device runs and crossings they imply
# are derived once, by the cost ledger (`neuropilot::runtime::build_ledger`),
# so no stored copy of them may grow back beside it.
if grep -rnE 'PlanSegment|op_indices|\.(segments|crossings)\b' crates/neuropilot/src crates/byoc/src examples; then
    echo "one-plan gate: a Neuron plan stores segments or crossings beside its placements" >&2
    exit 1
fi

# And an op is priced by one rule and its values freed by one liveness
# analysis (DESIGN.md "The execution plan"): `hwsim::WorkItem::price` is
# the only op -> work formula table and `relay::memory::plan_memory` plans
# storage for both runtimes, so no second table or last-reader map may grow
# back, and no non-test code outside hwsim writes a `WorkItem` literal.
if grep -rnE 'fn work_item|relay_work_item|last_reader' crates/*/src; then
    echo "one-cost-table gate: crates/*/src restores a second pricing table or liveness map" >&2
    exit 1
fi
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/hwsim/src/*' | sort); do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -F 'WorkItem {' | grep -vF -- '-> WorkItem {'; then
        echo "one-cost-table gate: $f builds a WorkItem (only WorkItem::price may)" >&2
        exit 1
    fi
done

# A Neuron placement is priced where it is charged: only the runtime's
# `build_ledger` asks the cost model for a kernel, dispatch or transfer
# time or energy, or builds a kernel or transfer ledger entry, so the
# op-level planner searches against the ledger that judges it.
for f in $(find crates/neuropilot/src -name '*.rs' -not -path crates/neuropilot/src/runtime.rs | sort); do
    if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -E '(kernel_(body_)?us|subgraph_dispatch_us|transfer_us|kernel_energy_uj|transfer_energy_uj|CostEntry::(kernel_body|transfer))\('; then
        echo "one-cost-table gate: $f prices placements outside runtime::build_ledger" >&2
        exit 1
    fi
done

# And `unsafe` stays where DESIGN.md "Kernel numerics contract" argues it:
# the one call of each SSE2 microkernel, the int8 `tile` in qconv.rs and
# the float `block` in conv.rs. Every other line of non-test source under
# crates/*/src is safe code.
unsafe_sites=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -w 'unsafe' || true)
if [ "$(grep -c . <<<"$unsafe_sites")" -ne 2 ] ||
    ! grep -qE '^crates/tensor/src/kernels/qconv\.rs:[0-9]+: .*unsafe \{ tile::<' <<<"$unsafe_sites" ||
    ! grep -qE '^crates/tensor/src/kernels/conv\.rs:[0-9]+: .*unsafe \{ block\(' <<<"$unsafe_sites"; then
    echo "$unsafe_sites" >&2
    echo "one-unsafe gate: non-test crates/*/src must say unsafe exactly twice, at the microkernel calls in crates/tensor/src/kernels/{qconv,conv}.rs" >&2
    exit 1
fi

# And what nothing calls stays deleted (ROADMAP north star: least code):
# every pub item in non-test source needs a non-test caller, or a reason in
# scripts/dead_pub.allow.
bash scripts/dead_pub.sh

# Tracked metric (ROADMAP north star), informational: non-test lines per crate.
bash scripts/loc.sh

# Simulated-clock gate: regenerating the five baselines must reproduce the
# checked-in files byte for byte. Every figure is a projection of one cost
# ledger per model, so any diff here is a change to the simulated clock —
# refresh deliberately with scripts/bench_baseline.sh and review the diff.
base_dir=$(mktemp -d)
trap 'rm -rf "$base_dir"' EXIT
bash scripts/bench_baseline.sh "$base_dir"
for f in "$base_dir"/BENCH_*.json; do
    cmp "$f" "$(basename "$f")"
done

# Wall-clock benchmark smoke (ROADMAP item 1: "so the ruler itself cannot
# rot"). Hard step: the standalone package under benchmark/ reaches the
# schedulers, the serving simulator and the device locks through the
# umbrella crate, and must keep compiling and checking its outputs with no
# edit under benchmark/. The lock check comes first because the smoke run
# is not `--locked`: a crate-graph change anywhere under crates/ would
# otherwise silently rewrite benchmark/Cargo.lock, a file only
# `benchmark`-archetype PRs may touch.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml >/dev/null
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

# int8-vs-f32 kernel gate (DESIGN.md "Kernel numerics contract"). Hard
# step: one traced run reports `tensor.qconv2d_ms` and `tensor.conv2d_f32_ms`
# — the same 2 097 152 MACs, in the same process, so their ratio is free of
# the runner's clock speed. 3.92 before the paired int8 walk, about 1.69
# with it, about 0.8 on the packed path with register-resident `pmaddwd`
# accumulators; past 1.25 the packed path has been lost.
ratio_out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload infer_zoo --seed 1 --seconds 5 --trace 1)
ratio=$(echo "$ratio_out" | awk '
    $1 == "tensor.qconv2d_ms" { q = $2 }
    $1 == "tensor.conv2d_f32_ms" { f = $2 }
    END { if (q > 0 && f > 0) printf "%.3f %.6f %.6f", q / f, q, f }')
if [ -z "$ratio" ]; then
    echo "int8 gate: the traced run printed no tensor.qconv2d_ms / tensor.conv2d_f32_ms" >&2
    exit 1
fi
echo "int8 gate: qconv2d / conv2d_f32 = ${ratio%% *} (qconv2d_ms, conv2d_f32_ms: ${ratio#* })"
if awk -v r="${ratio%% *}" 'BEGIN { exit !(r > 1.25) }'; then
    echo "int8 gate: tensor.qconv2d_ms is more than 1.25x tensor.conv2d_f32_ms" >&2
    exit 1
fi

# File-boundary gate (ROADMAP item 2's own criterion). Hard step: one traced
# `deploy_cache` run times a disk hit, a cold build, a library load and a
# library export in one process, so both ratios are free of the runner's
# clock speed. A disk hit parses one file and must beat compiling
# (6.98x before the parser and the triple serialization were fixed, about
# 0.6x after); loading a library must stay within 2x of writing it (3.7x
# before, about 1x after).
deploy_out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload deploy_cache --seed 1 --seconds 5 --trace 1)
deploy=$(echo "$deploy_out" | awk '
    $1 == "byoc.cache_disk_ms" { d = $2 }
    $1 == "byoc.cache_cold_ms" { c = $2 }
    $1 == "runtime.artifact_load_ms" { l = $2 }
    $1 == "runtime.artifact_export_ms" { e = $2 }
    END { if (d > 0 && c > 0 && l > 0 && e > 0) printf "%.3f %.3f %.4f %.4f %.4f %.4f", d / c, l / e, d, c, l, e }')
if [ -z "$deploy" ]; then
    echo "file-boundary gate: the traced run printed no cache / artifact timings" >&2
    exit 1
fi
read -r disk_cold load_export disk_ms cold_ms load_ms export_ms <<<"$deploy"
echo "file-boundary gate: cache_disk_ms / cache_cold_ms = $disk_cold ($disk_ms / $cold_ms)," \
    "artifact_load_ms / artifact_export_ms = $load_export ($load_ms / $export_ms)"
if awk -v r="$disk_cold" 'BEGIN { exit !(r >= 1.0) }'; then
    echo "file-boundary gate: a disk hit is no faster than a cold build" >&2
    exit 1
fi
if awk -v r="$load_export" 'BEGIN { exit !(r > 2.0) }'; then
    echo "file-boundary gate: runtime.artifact_load_ms is more than 2.0x runtime.artifact_export_ms" >&2
    exit 1
fi

# Bench gate: one workload against the checked-in baseline. Hard step:
# --check-against is exact, so a missing, new or moved metric fails and
# each is listed as `old -> new` in the CI log.
target/release/tvmnp bench --workload fig6 --check-against BENCH_fig6.json

# Serving-throughput gate: frames/sec + cache hit rate against the
# checked-in baseline, exact as above; the workload itself hard-fails if
# concurrent outputs diverge from sequential.
target/release/tvmnp bench --workload serve --check-against BENCH_serve.json

# Fault-injection smoke: seeded transient APU faults against the showcase.
# Must exit 0 (the fallback chain absorbs the faults) and the resilience
# report must show at least one recovered run.
sched_out=$(target/release/tvmnp sched \
    --inject-fault apu:dispatch:transient --fault-seed 7)
echo "$sched_out" | grep -q "recovered runs" || {
    echo "fault-injection smoke: no resilience report in sched output" >&2
    exit 1
}
recovered=$(echo "$sched_out" | sed -n 's/.*recovered runs: *\([0-9]*\).*/\1/p')
if [ -z "$recovered" ] || [ "$recovered" -lt 1 ]; then
    echo "fault-injection smoke: expected >=1 recovered run, got '${recovered:-none}'" >&2
    exit 1
fi
echo "fault-injection smoke: $recovered run(s) recovered under seeded faults"

# Device-lost smoke: a permanently lost APU fails every model run that
# dispatches to it. Hard step: the serve workload must exit 0 with the
# record written — the failed runs are dropped stages, not a panic — and
# it hard-fails itself if the concurrent pass disagrees with the
# sequential one on what was delivered and dropped.
lost_dir=$(mktemp -d)
trap 'rm -rf "$base_dir" "$lost_dir"' EXIT
target/release/tvmnp bench \
    --workload serve --bench-out "$lost_dir/serve-lost.json" \
    --inject-fault apu:dispatch:device-lost
[ -s "$lost_dir/serve-lost.json" ]

# Observability smoke: serve one observed run under seeded transient APU
# faults, streaming live stats and arming the flight recorder, then
# schema-check both artifacts. Hard gate: the stats JSONL must be valid
# (monotone seq, monotone quantiles, final flush) and the flight dumps
# must validate and carry the injected dispatch faults plus the
# SLO-breach trigger. The 50 ms SLO sits between the serve clip's
# deterministic p95 (~50.5 ms) and max (~53.5 ms) simulated frame
# latencies, so only the tail frames dump. (Fallback transitions inside a
# dump window are covered by the exhaustion path in tests/observe_flow.rs.)
obs_dir=$(mktemp -d)
trap 'rm -rf "$base_dir" "$lost_dir" "$obs_dir"' EXIT
target/release/tvmnp bench \
    --workload serve --bench-out "$obs_dir/serve-observed.json" \
    --inject-fault apu:dispatch:transient --fault-seed 7 \
    --stats-out "$obs_dir/stats.jsonl" --flight-out "$obs_dir/flight" \
    --slo-ms 50
target/release/tvmnp obs_check \
    --stats "$obs_dir/stats.jsonl" \
    --flight-dir "$obs_dir/flight" \
    --expect-kind fault.injected \
    --expect-kind slo.breach

# Observation-is-free gate. Hard step: tracing never charges simulated
# time, so the serve baseline written with the plane installed must be
# the same bytes as the one written without it — any difference is a
# bookkeeping bug. (What observing costs on the wall clock is
# `telemetry.overhead_frac` / `observe.overhead_frac` of the benchmark's
# `--trace 1` run, not a CI step: a shared runner is too noisy to gate.)
target/release/tvmnp bench \
    --workload serve --bench-out "$obs_dir/serve-plain.json"
target/release/tvmnp bench \
    --workload serve --bench-out "$obs_dir/serve-traced.json" \
    --stats-out "$obs_dir/stats-overhead.jsonl"
cmp "$obs_dir/serve-plain.json" "$obs_dir/serve-traced.json"

# Differential-profiling smoke: record a clean fig4 measured profile,
# re-run with a 2x injected slowdown on mac-heavy work, and diff against
# the clean store. Hard gate twice over: both profile files must pass the
# schema validator, and the diff's top attribution cell must name the
# injected kind — if the attribution pipeline ever stops pinning the
# regression on mac/* cells, CI fails here before a human reads a table.
target/release/tvmnp bench \
    --workload fig4 --bench-out "$obs_dir/fig4-clean.json" \
    --profile-store "$obs_dir/prof-base"
diff_out=$(target/release/tvmnp bench \
    --workload fig4 --bench-out "$obs_dir/fig4-slow.json" \
    --inject-slowdown mac=2 \
    --profile-store "$obs_dir/prof-slow" \
    --profile-diff "$obs_dir/prof-base")
echo "$diff_out"
echo "$diff_out" | grep -q "^top regression cell: mac/" || {
    echo "profile-diff smoke: injected mac slowdown not attributed to a mac/* cell" >&2
    exit 1
}
target/release/tvmnp obs_check \
    --profile "$obs_dir/prof-base/profile-fig4.json" \
    --profile "$obs_dir/prof-slow/profile-fig4.json"
# `Profile::read` is the one profile check, and obs_check runs it: the
# clean profile with one cell's count zeroed must be refused (nonzero
# exit).
sed -E 's/"count":[0-9]+/"count":0/' "$obs_dir/prof-base/profile-fig4.json" \
    > "$obs_dir/profile-zero-count.json"
if cmp -s "$obs_dir/prof-base/profile-fig4.json" "$obs_dir/profile-zero-count.json" ||
    target/release/tvmnp obs_check --profile "$obs_dir/profile-zero-count.json"; then
    echo "profile-reader gate: obs_check accepted a profile cell with count 0" >&2
    exit 1
fi

# Conformance smoke: fixed-seed differential run across the seven target
# permutations. Hard gate — any divergence from the interpreter or any
# invariant violation (quant params, partition shape, memory plan) fails
# the build. The 500-case property suite runs under `cargo test` above;
# this step additionally proves the CLI entry point works end to end.
target/release/tvmnp conformance --cases 200 --seed 1
