//! Benchmark baseline/regression harness.
//!
//! Runs one of the figure workloads N times, records median/p95/min/max
//! simulated latency plus report aggregates in a stable JSON schema, and
//! optionally gates against a checked-in baseline:
//!
//! ```text
//! cargo run --release -p tvmnp-bench --bin bench -- \
//!     --workload fig6 --runs 5 --bench-out BENCH_fig6.json
//! cargo run --release -p tvmnp-bench --bin bench -- \
//!     --workload fig6 --check-against BENCH_fig6.json [--threshold 0.05] [--warn-only]
//! ```
//!
//! The simulation is fully deterministic, so recording twice on the same
//! commit produces byte-identical `BENCH_*.json` files; `--check-against`
//! exits nonzero when any latency metric's median regresses beyond the
//! noise threshold (default 5%). `--inject-slowdown <kind>=<factor>`
//! scales one hwsim work kind (`mac`, `elementwise`, `data-movement`,
//! `reduction`) — the hook the regression-detection test uses.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, zoo, Model};
use tvm_neuropilot::observe::ObservePlane;
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::report::{self, BenchRecord};
use tvm_neuropilot::vision::{FrameResult, ShowcaseFaults};
use tvmnp_bench::profiling::{build_fault_plan, ObserveCli, ProfileCli};
use tvmnp_hwsim::WorkKind;

const WORKLOADS: &[&str] = &["fig4", "fig5", "fig6", "sched", "serve"];

struct Args {
    workload: String,
    runs: usize,
    bench_out: Option<PathBuf>,
    check_against: Option<PathBuf>,
    threshold: f64,
    warn_only: bool,
    inject: Option<(WorkKind, f64)>,
    fault_plan: Option<FaultPlan>,
    concurrency: usize,
    cache_dir: Option<PathBuf>,
    observe: ObserveCli,
    profile: ProfileCli,
    fail_on_missing: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench --workload <fig4|fig5|fig6|sched|serve> [--runs N] \
         [--bench-out <path>] [--check-against <baseline>] \
         [--threshold F] [--warn-only] [--fail-on-missing] \
         [--inject-slowdown <kind>=<factor>] \
         [--inject-fault <spec>]... [--fault-seed <n>] \
         [--concurrency N] [--cache-dir <path>] \
         [--stats-out <path>] [--flight-out <dir>] \
         [--flight-buffer <n>] [--slo-ms <f>] \
         [--profile-store <dir>] [--profile-diff <path>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut runs = 5usize;
    let mut bench_out = None;
    let mut check_against = None;
    let mut threshold = 0.05f64;
    let mut warn_only = false;
    let mut inject = None;
    let mut fault_specs: Vec<String> = Vec::new();
    let mut fault_seed = 0u64;
    let mut concurrency = 4usize;
    let mut cache_dir = None;
    let mut observe = ObserveCli::default();
    let mut profile = ProfileCli::default();
    let mut fail_on_missing = false;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} requires a value");
            usage();
        })
    };
    while let Some(a) = args.next() {
        if observe.consume(a.as_str(), &mut args) {
            continue;
        }
        if profile.consume(a.as_str(), &mut args) {
            continue;
        }
        match a.as_str() {
            "--workload" => workload = Some(value(&mut args, "--workload")),
            "--runs" => {
                let v = value(&mut args, "--runs");
                runs = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --runs expects a positive integer, got '{v}'");
                    usage();
                });
                if runs == 0 {
                    eprintln!("error: --runs must be at least 1");
                    usage();
                }
            }
            "--bench-out" => bench_out = Some(PathBuf::from(value(&mut args, "--bench-out"))),
            "--check-against" => {
                check_against = Some(PathBuf::from(value(&mut args, "--check-against")))
            }
            "--threshold" => {
                let v = value(&mut args, "--threshold");
                threshold = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --threshold expects a float, got '{v}'");
                    usage();
                });
            }
            "--warn-only" => warn_only = true,
            "--fail-on-missing" => fail_on_missing = true,
            "--inject-slowdown" => {
                let v = value(&mut args, "--inject-slowdown");
                let Some((kind, factor)) = v.split_once('=') else {
                    eprintln!("error: --inject-slowdown expects <kind>=<factor>, got '{v}'");
                    usage();
                };
                let Some(kind) = WorkKind::parse(kind) else {
                    eprintln!(
                        "error: unknown work kind '{kind}' (expected one of: {})",
                        WorkKind::ALL.map(WorkKind::name).join(", ")
                    );
                    usage();
                };
                let factor: f64 = factor.parse().unwrap_or_else(|_| {
                    eprintln!("error: --inject-slowdown factor must be a float, got '{factor}'");
                    usage();
                });
                inject = Some((kind, factor));
            }
            "--concurrency" => {
                let v = value(&mut args, "--concurrency");
                concurrency = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --concurrency expects a positive integer, got '{v}'");
                    usage();
                });
                if concurrency == 0 {
                    eprintln!("error: --concurrency must be at least 1");
                    usage();
                }
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(value(&mut args, "--cache-dir"))),
            "--inject-fault" => fault_specs.push(value(&mut args, "--inject-fault")),
            "--fault-seed" => {
                let v = value(&mut args, "--fault-seed");
                fault_seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --fault-seed expects an integer, got '{v}'");
                    usage();
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage();
            }
        }
    }
    let Some(workload) = workload else {
        eprintln!("error: --workload is required");
        usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!(
            "error: unknown workload '{workload}' (expected one of: {})",
            WORKLOADS.join(", ")
        );
        usage();
    }
    if bench_out.is_none() && check_against.is_none() && !profile.active() {
        eprintln!(
            "error: nothing to do — pass --bench-out, --check-against, \
             --profile-store, and/or --profile-diff"
        );
        usage();
    }
    Args {
        workload,
        runs,
        bench_out,
        check_against,
        threshold,
        warn_only,
        inject,
        fault_plan: build_fault_plan(&fault_specs, fault_seed),
        concurrency,
        cache_dir,
        observe,
        profile,
        fail_on_missing,
    }
}

/// Lowercase a label into a dotted-metric-safe key part.
fn key_part(s: &str) -> String {
    s.to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect::<String>()
        .split('-')
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

/// One repetition of a workload: `(metric key, sample)` pairs. Keys
/// ending in `.ms`/`.us` are latency metrics and gate regressions.
/// `plane` (serve only) routes the concurrent pass through
/// [`SessionPool::serve_observed`].
fn run_workload(
    args: &Args,
    cost: &CostModel,
    plane: Option<&Arc<ObservePlane>>,
) -> Vec<(String, f64)> {
    let workload = args.workload.as_str();
    let mut out = Vec::new();
    match workload {
        "fig4" | "sched" => {
            let seeds: [u64; 3] = if workload == "fig4" {
                [101, 102, 103]
            } else {
                [80, 81, 82]
            };
            let models = [
                anti_spoofing::anti_spoofing_model(seeds[0]),
                object_detection::mobilenet_ssd_model(seeds[1]),
                emotion::emotion_model(seeds[2]),
            ];
            for model in &models {
                let ms = measure_all(&model.module, cost).expect("measure");
                if workload == "sched" {
                    // §5.1 assignment quality: only the best target gates.
                    let best = ms
                        .iter()
                        .filter_map(|m| m.time_ms)
                        .fold(f64::INFINITY, f64::min);
                    out.push((format!("sched.{}.best.ms", key_part(&model.name)), best));
                } else {
                    permutation_metrics(&mut out, workload, model, &ms);
                }
            }
        }
        "fig6" => {
            for model in zoo::zoo(600) {
                let ms = measure_all(&model.module, cost).expect("measure");
                permutation_metrics(&mut out, workload, &model, &ms);
            }
        }
        "fig5" => {
            let showcase = Showcase::new(900, ShowcaseAssignment::paper_prototype(), cost);
            let stages = showcase.stage_profile(901);
            let frames = 8;
            let seq = simulate_sequential(&stages, frames);
            let pipe = simulate_pipelined(&stages, frames);
            out.push(("fig5.sequential.makespan.ms".into(), seq.makespan_us / 1e3));
            out.push(("fig5.pipelined.makespan.ms".into(), pipe.makespan_us / 1e3));
            out.push(("fig5.pipelined.period.ms".into(), pipe.period_us() / 1e3));
            let sched_report = report::analyze_schedule(&pipe);
            for d in &sched_report.utilization.devices {
                out.push((format!("fig5.util.{}", d.device), d.utilization()));
            }
            out.push((
                "fig5.overlap_frac".into(),
                sched_report.utilization.overlap_us / sched_report.makespan_us,
            ));
            out.push((
                "fig5.critical_path.steps".into(),
                sched_report.critical_path.len() as f64,
            ));
        }
        "serve" => {
            // Fresh in-memory cache per repetition (byte-determinism);
            // `--cache-dir` additionally spills artifacts to disk so a
            // later bench invocation starts warm.
            let mut cache = ArtifactCache::new(16 << 20);
            if let Some(dir) = &args.cache_dir {
                cache = cache.with_disk_dir(dir);
            }
            let cache = Arc::new(cache);
            // Stand the pool up twice: the second build exercises the
            // cache-hit path (zero recompilation) and is the pool that
            // serves.
            drop(SessionPool::new(
                910,
                &serving_rotation(),
                cost,
                cache.clone(),
            ));
            // With a fault plan, the pool itself is faulted: every model
            // dispatch consults the shared injector, so transient faults
            // hit the retry path (and the flight recorder) in-band.
            let pool = match &args.fault_plan {
                None => SessionPool::new(910, &serving_rotation(), cost, cache.clone()),
                Some(plan) => SessionPool::new_with_faults(
                    910,
                    &serving_rotation(),
                    cost,
                    cache.clone(),
                    ShowcaseFaults {
                        injector: Arc::new(FaultInjector::new(plan.clone())),
                        retry: RetryPolicy {
                            max_attempts: 3,
                            ..RetryPolicy::default()
                        },
                    },
                ),
            };
            let frames = SyntheticVideo::new(911, 64, 64).frames(64);
            let sequential = pool.serve(&frames, 1);
            let concurrent = match plane {
                None => pool.serve(&frames, args.concurrency),
                Some(plane) => pool.serve_observed(&frames, args.concurrency, plane),
            };
            if args.fault_plan.is_none() {
                if sequential != concurrent {
                    eprintln!(
                        "error: concurrent serving (concurrency {}) diverged from sequential",
                        args.concurrency
                    );
                    std::process::exit(1);
                }
            } else {
                // Under faults, retry backoff lands on whichever dispatch
                // consumed a fault (schedule-dependent), so only the
                // numeric outputs must agree; metrics below come from the
                // sequential pass, which is deterministic either way.
                let numerics = |r: &FrameResult| {
                    (
                        r.frame_index,
                        r.objects.clone(),
                        r.faces.clone(),
                        r.dropped.clone(),
                    )
                };
                if sequential
                    .iter()
                    .map(numerics)
                    .ne(concurrent.iter().map(numerics))
                {
                    eprintln!(
                        "error: concurrent serving (concurrency {}) changed numeric outputs \
                         under the fault plan",
                        args.concurrency
                    );
                    std::process::exit(1);
                }
            }
            let per_frame: Vec<_> = sequential
                .iter()
                .map(|r| frame_segments(pool.assignment_for(r.frame_index), r))
                .collect();
            let sim = simulate_serve(&per_frame, args.concurrency);
            out.push(("serve.sequential.total.ms".into(), sim.sequential_us / 1e3));
            out.push((
                "serve.concurrent.makespan.ms".into(),
                sim.concurrent_us / 1e3,
            ));
            out.push(("serve.speedup".into(), sim.speedup()));
            out.push(("serve.fps".into(), sim.fps_concurrent()));
            let stats = pool.cache().stats();
            out.push(("serve.cache.hit_rate".into(), stats.hit_rate()));
            out.push(("serve.cache.hits".into(), stats.hits as f64));
            out.push(("serve.cache.misses".into(), stats.misses as f64));
        }
        other => unreachable!("workload '{other}' validated in parse_args"),
    }
    out
}

fn permutation_metrics(
    out: &mut Vec<(String, f64)>,
    workload: &str,
    model: &Model,
    ms: &[Measurement],
) {
    let model_key = key_part(&model.name);
    for m in ms {
        if let Some(t) = m.time_ms {
            out.push((
                format!(
                    "{workload}.{model_key}.{}.ms",
                    key_part(m.permutation.label())
                ),
                t,
            ));
        }
    }
    let subgraphs = ms.iter().map(|m| m.subgraphs).max().unwrap_or(0);
    out.push((
        format!("{workload}.{model_key}.subgraphs"),
        subgraphs as f64,
    ));
}

/// Report-layer aggregates for one representative model: partition
/// coverage plus device utilization from a traced BYOC CPU+APU run.
/// Computed once per record (deterministic, so repetition buys nothing).
fn report_aggregates(workload: &str, cost: &CostModel) -> Vec<(String, f64)> {
    let representative = match workload {
        "fig4" => anti_spoofing::anti_spoofing_model(101),
        "sched" => anti_spoofing::anti_spoofing_model(80),
        "fig6" => zoo::mobilenet_v2(600),
        _ => return Vec::new(), // fig5 aggregates come from the schedule
    };
    let mut out = Vec::new();
    let prefix = format!("{workload}.report");
    let (partitioned, _) =
        nir::partition_for_nir(&representative.module).expect("partition representative");
    let cov = report::coverage(&partitioned);
    out.push((format!("{prefix}.offload_frac"), cov.offload_fraction()));
    out.push((format!("{prefix}.subgraphs"), cov.num_subgraphs as f64));
    out.push((
        format!("{prefix}.offloaded_calls"),
        cov.offloaded_calls as f64,
    ));
    out.push((format!("{prefix}.host_calls"), cov.host_calls as f64));

    tvm_neuropilot::telemetry::enable();
    tvm_neuropilot::telemetry::reset();
    let mut compiled = relay_build(
        &representative.module,
        TargetMode::Byoc(TargetPolicy::CpuApu),
        cost.clone(),
    )
    .expect("build representative");
    compiled
        .run(&representative.sample_inputs(7))
        .expect("run representative");
    tvm_neuropilot::telemetry::disable();
    let snap = tvm_neuropilot::telemetry::snapshot();
    let util = report::utilization_from_snapshot(&snap);
    for d in &util.devices {
        out.push((format!("{prefix}.util.{}", d.device), d.utilization()));
    }
    out
}

/// Deterministic resilience metrics: run the showcase models through
/// shared-injector resilient sessions under the fault plan and record the
/// outcome (final latency, fallback depth, injected faults). Computed
/// once per record — the plan is seeded, so repetition buys nothing and
/// re-running with the same seed is byte-identical.
fn resilience_metrics(plan: &FaultPlan, cost: &CostModel) -> Vec<(String, f64)> {
    let injector = Arc::new(FaultInjector::new(plan.clone()));
    let policy = ResiliencePolicy {
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..ResiliencePolicy::default()
    };
    let mut out = Vec::new();
    let models = [
        anti_spoofing::anti_spoofing_model(80),
        object_detection::mobilenet_ssd_model(81),
        emotion::emotion_model(82),
    ];
    let mut recovered = 0u64;
    for model in &models {
        let mut session = ResilientSession::with_injector(
            model.module.clone(),
            cost.clone(),
            injector.clone(),
            policy,
        );
        match session.run(&model.name, Permutation::NpApu, &model.sample_inputs(7)) {
            Ok(outcome) => {
                let key = key_part(&model.name);
                out.push((format!("resilience.{key}.final.us"), outcome.time_us));
                out.push((
                    format!("resilience.{key}.fallbacks"),
                    outcome.fallbacks.len() as f64,
                ));
                if outcome.degraded() {
                    recovered += 1;
                }
            }
            Err(e) => {
                eprintln!("error: resilience run of '{}' failed: {e}", model.name);
                std::process::exit(1);
            }
        }
    }
    out.push((
        "resilience.faults_injected".into(),
        injector.faults_injected() as f64,
    ));
    out.push(("resilience.recovered_models".into(), recovered as f64));
    out
}

/// Dedicated measured-profile pass: execute the workload's showcase
/// models once through the BYOC CPU+APU flow with telemetry detail mode
/// on, and bin the per-kernel executor spans into a [`Profile`]. Runs
/// after everything else so the detail spans cannot leak into the
/// report-layer utilization aggregates.
fn collect_profile(workload: &str, cost: &CostModel) -> Profile {
    tvm_neuropilot::telemetry::enable();
    tvm_neuropilot::telemetry::reset();
    tvm_neuropilot::telemetry::set_detail(true);
    let seeds: [u64; 3] = match workload {
        "fig4" | "fig6" => [101, 102, 103],
        "sched" => [80, 81, 82],
        "fig5" => [900, 901, 902],
        _ => [910, 911, 912], // serve
    };
    let models = [
        anti_spoofing::anti_spoofing_model(seeds[0]),
        object_detection::mobilenet_ssd_model(seeds[1]),
        emotion::emotion_model(seeds[2]),
    ];
    for model in &models {
        let mut compiled = relay_build(
            &model.module,
            TargetMode::Byoc(TargetPolicy::CpuApu),
            cost.clone(),
        )
        .expect("profile build");
        compiled.run(&model.sample_inputs(7)).expect("profile run");
    }
    tvm_neuropilot::telemetry::set_detail(false);
    tvm_neuropilot::telemetry::disable();
    let snap = tvm_neuropilot::telemetry::snapshot();
    let mut profile = Profile::new(ProfileKey {
        workload: workload.to_string(),
        permutation: "byoc-cpu-apu".to_string(),
        quant: "f32".to_string(),
        soc: "dimensity-800".to_string(),
    });
    profile.ingest_snapshot(&snap);
    profile
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut cost = CostModel::default();
    if let Some((kind, factor)) = args.inject {
        eprintln!(
            "note: injecting {factor}x slowdown into '{}' work",
            kind.name()
        );
        cost = cost.with_kind_scale(kind, factor);
    }

    // The observability plane (when any --stats-out/--flight-*/--slo-ms
    // flag is given) watches the serve workload live. Per-frame trace
    // ids repeat across repetitions, so trace trees are per-rep: use
    // `--runs 1` when inspecting traces; sketches and counters
    // accumulate across reps by design.
    let plane = args.observe.build_plane();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..args.runs {
        for (key, v) in run_workload(&args, &cost, plane.as_ref()) {
            samples.entry(key).or_default().push(v);
        }
    }
    for (key, v) in report_aggregates(&args.workload, &cost) {
        samples.entry(key).or_default().push(v);
    }
    if let Some(plan) = &args.fault_plan {
        eprintln!(
            "note: injecting seeded faults ({} rule(s))",
            plan.rules.len()
        );
        for (key, v) in resilience_metrics(plan, &cost) {
            samples.entry(key).or_default().push(v);
        }
    }

    if let Some(plane) = &plane {
        args.observe.finish_plane(plane);
        tvm_neuropilot::telemetry::disable();
    }

    // Measured-profile pass, after every analytic/aggregate pass so the
    // detail-mode spans stay confined to their own snapshot.
    let profile_diff = if args.profile.active() {
        let mut profile = collect_profile(&args.workload, &cost);
        args.profile.report(&mut profile)
    } else {
        None
    };

    let mut record = BenchRecord::new(args.workload.clone(), args.runs);
    for (key, vals) in &samples {
        record.insert(key.clone(), vals);
    }
    println!(
        "workload '{}': {} metrics over {} run(s)",
        args.workload,
        record.metrics.len(),
        args.runs
    );

    if let Some(path) = &args.bench_out {
        if let Err(e) = record.write(path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench record written to {}", path.display());
    }

    if let Some(path) = &args.check_against {
        let baseline = match BenchRecord::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cmp = report::compare(&baseline, &record, args.threshold);
        print!("{}", cmp.render());
        // Silently-dropped workload metrics must hard-fail even under
        // --warn-only: a baseline key the current run never produced is a
        // harness break, not a latency regression to be waved through.
        let missing_failure = args.fail_on_missing && cmp.missing() > 0;
        if !cmp.ok() || missing_failure {
            if args.warn_only && !missing_failure {
                println!(
                    "WARN: regressions beyond {:.1}% vs {} (ignored: --warn-only)",
                    args.threshold * 100.0,
                    path.display()
                );
            } else {
                if missing_failure {
                    eprintln!(
                        "error: {} baseline metric(s) missing from the current run \
                         (--fail-on-missing)",
                        cmp.missing()
                    );
                }
                if !cmp.regressions.is_empty() {
                    eprintln!(
                        "error: regression beyond {:.1}% vs {}",
                        args.threshold * 100.0,
                        path.display()
                    );
                    if let Some(top) = profile_diff.as_ref().and_then(|d| d.top()) {
                        eprintln!(
                            "likely cause: {} (ratio {:.2}x, {:+.1} us total)",
                            top.cell, top.ratio, top.delta_total_us
                        );
                    }
                }
                return ExitCode::FAILURE;
            }
        } else {
            println!(
                "OK: within {:.1}% of {}",
                args.threshold * 100.0,
                path.display()
            );
        }
    }
    ExitCode::SUCCESS
}
