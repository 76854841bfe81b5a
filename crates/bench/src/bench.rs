//! The `bench` subcommand.

use crate::cli::{fail, parse_or_exit, usage_error, Flag};
use crate::session::ServeCli;
use crate::workloads::{resilient_showcase, run_traced, serve_clip, showcase_models};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use tvm_neuropilot::models::{anti_spoofing, zoo, Model};
use tvm_neuropilot::observe::ObservePlane;
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::profile::profile_path;
use tvm_neuropilot::report::{self, BenchRecord};
use tvmnp_hwsim::WorkKind;

/// `(metric key, value)` pairs.
type Metrics = Vec<(String, f64)>;

fn metric(key: impl Into<String>, value: f64) -> (String, f64) {
    (key.into(), value)
}

/// One figure workload: what its run measures and which models stand in
/// for it.
struct Workload {
    name: &'static str,
    /// Seed of the workload's showcase-model triple: what `fig4` and
    /// `sched` measure and what `fig5` and `serve` build their application
    /// from.
    showcase_seed: u64,
    /// The workload's models, from its showcase seed: what `fig4`, `fig6`
    /// and `sched` measure, and what the measured-profile pass executes.
    models: fn(u64) -> Vec<Model>,
    /// The workload's run.
    run: fn(&Workload, &Run) -> Metrics,
    /// The model whose partition and traced run give the
    /// `<name>.report.*` aggregates; `None` where they come from the
    /// schedule (fig5) or there are none (serve).
    representative: Option<fn(u64) -> Model>,
}

const WORKLOAD_NAMES: &str = "fig4|fig5|fig6|sched|serve";
static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig4",
        showcase_seed: 101,
        models: |seed| showcase_models(seed).into(),
        run: permutation_metrics,
        representative: Some(anti_spoofing::anti_spoofing_model),
    },
    Workload {
        name: "fig5",
        showcase_seed: 900,
        models: |seed| showcase_models(seed).into(),
        run: run_fig5,
        representative: None,
    },
    Workload {
        name: "fig6",
        showcase_seed: 101,
        models: |_| zoo::zoo(600),
        run: permutation_metrics,
        representative: Some(|_| zoo::mobilenet_v2(600)),
    },
    Workload {
        name: "sched",
        showcase_seed: 80,
        models: |seed| showcase_models(seed).into(),
        run: |w, run| {
            (w.models)(w.showcase_seed)
                .iter()
                .map(|model| {
                    let ms = measure_all(&model.module, &run.cost).expect("measure");
                    // §5.1 assignment quality: the best target.
                    let best = ms
                        .iter()
                        .filter_map(|m| m.time_ms)
                        .fold(f64::INFINITY, f64::min);
                    metric(format!("sched.{}.best.ms", key_part(&model.name)), best)
                })
                .collect()
        },
        representative: Some(anti_spoofing::anti_spoofing_model),
    },
    Workload {
        name: "serve",
        showcase_seed: 910,
        models: |seed| showcase_models(seed).into(),
        run: run_serve,
        representative: None,
    },
];

impl FromStr for &'static Workload {
    type Err = ();
    fn from_str(name: &str) -> Result<Self, ()> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or(())
    }
}

/// `--inject-slowdown <kind>=<factor>`: scale one hwsim work kind.
struct Slowdown(WorkKind, f64);

impl FromStr for Slowdown {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        let (kind, factor) = s.split_once('=').ok_or(())?;
        let kind = WorkKind::parse(kind).ok_or(())?;
        Ok(Slowdown(kind, factor.parse().map_err(|_| ())?))
    }
}

/// The parsed `bench` flags.
#[derive(Default)]
pub(crate) struct BenchCli {
    workload: Option<&'static Workload>,
    bench_out: Option<PathBuf>,
    check_against: Option<PathBuf>,
    inject: Option<Slowdown>,
    serve: ServeCli,
    profile_store: Option<PathBuf>,
    profile_diff: Option<PathBuf>,
}

impl BenchCli {
    /// `bench`'s own four flags, then the serving flags, then the two
    /// measured-profile flags.
    pub(crate) fn flags(&mut self) -> Vec<Flag<'_>> {
        let mut flags = vec![
            Flag::value("--workload", WORKLOAD_NAMES, &mut self.workload, |_| true),
            Flag::path("--bench-out", "path", &mut self.bench_out),
            Flag::path("--check-against", "baseline", &mut self.check_against),
            // A factor <= 0 or NaN would write negative or NaN latencies
            // into a bench record.
            Flag::value("--inject-slowdown", "kind=factor", &mut self.inject, |s| {
                s.1.is_finite() && s.1 > 0.0
            }),
        ];
        flags.extend(self.serve.flags());
        flags.extend([
            Flag::path("--profile-store", "dir", &mut self.profile_store),
            Flag::path("--profile-diff", "path", &mut self.profile_diff),
        ]);
        flags
    }

    /// Whether a measured profile was requested.
    fn measuring(&self) -> bool {
        self.profile_store.is_some() || self.profile_diff.is_some()
    }

    /// Save and/or diff the measured profile per the flags, printing the
    /// path written, the ranked attribution table, and the greppable
    /// `top regression cell:` line. Returns the diff when one was made.
    fn measured_profile(&self, profile: &Profile) -> Option<ProfileDiff> {
        if let Some(dir) = &self.profile_store {
            let path = profile.write(dir).unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "measured profile written to {} ({} cells, {} samples)",
                path.display(),
                profile.cells.len(),
                profile.total_count()
            );
        }
        // A directory holds the workload's profile file; a file is one
        // profile.
        let base = self.profile_diff.as_ref()?;
        let base = if base.is_dir() {
            profile_path(base, &profile.workload)
        } else {
            base.clone()
        };
        let baseline = Profile::read(&base)
            .unwrap_or_else(|e| fail(&format!("cannot load the --profile-diff baseline: {e}")));
        let diff = diff_profiles(&baseline, profile);
        println!();
        print!("{}", diff.render());
        match diff.top() {
            Some(top) => println!(
                "top regression cell: {} (ratio {:.2}x, {:+.1} us total)",
                top.cell, top.ratio, top.delta_total_us
            ),
            None => println!("no significant cell movement vs baseline"),
        }
        Some(diff)
    }
}

/// What a workload's run needs beyond the workload.
struct Run {
    cost: CostModel,
    serve: ServeCli,
    fault_plan: Option<FaultPlan>,
    plane: Option<std::sync::Arc<ObservePlane>>,
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

/// Every compiling permutation's time plus the subgraph count, per model
/// of the workload.
fn permutation_metrics(w: &Workload, run: &Run) -> Metrics {
    let mut out = Vec::new();
    for model in &(w.models)(w.showcase_seed) {
        let ms = measure_all(&model.module, &run.cost).expect("measure");
        let model_key = key_part(&model.name);
        for m in &ms {
            if let Some(t) = m.time_ms {
                let permutation = key_part(m.permutation.label());
                out.push(metric(
                    format!("{}.{model_key}.{permutation}.ms", w.name),
                    t,
                ));
            }
        }
        let subgraphs = ms.iter().map(|m| m.subgraphs).max().unwrap_or(0);
        let key = format!("{}.{model_key}.subgraphs", w.name);
        out.push(metric(key, subgraphs as f64));
    }
    out
}

fn run_fig5(w: &Workload, run: &Run) -> Metrics {
    let showcase = Showcase::new(
        w.showcase_seed,
        ShowcaseAssignment::paper_prototype(),
        &run.cost,
    );
    let stages = showcase.stage_profile(w.showcase_seed + 1);
    let frames = 8;
    let seq = simulate_sequential(&stages, frames);
    let pipe = simulate_pipelined(&stages, frames);
    let mut out = vec![
        metric("fig5.sequential.makespan.ms", seq.makespan_us / 1e3),
        metric("fig5.pipelined.makespan.ms", pipe.makespan_us / 1e3),
        metric("fig5.pipelined.period.ms", pipe.period_us() / 1e3),
    ];
    let util = report::utilization_from_schedule(&pipe);
    for d in &util.devices {
        out.push(metric(format!("fig5.util.{}", d.device), d.utilization()));
    }
    let overlap = util.overlap_us / pipe.makespan_us;
    out.push(metric("fig5.overlap_frac", overlap));
    let steps = pipe.critical_path().len() as f64;
    out.push(metric("fig5.critical_path.steps", steps));
    out
}

fn run_serve(w: &Workload, run: &Run) -> Metrics {
    // Fresh in-memory cache (byte-determinism); `--cache-dir`
    // additionally spills artifacts to disk so a later bench invocation
    // starts warm.
    let cache = run.serve.cache();
    // Stand the pool up twice: the second build exercises the cache-hit
    // path (zero recompilation) and is the pool that serves.
    drop(SessionPool::new(
        w.showcase_seed,
        &serving_rotation(),
        &run.cost,
        cache.clone(),
    ));
    let (sim, cache) = serve_clip(
        w.showcase_seed,
        &run.cost,
        cache,
        run.serve.concurrency(),
        run.plane.as_deref(),
        run.fault_plan.as_ref(),
    )
    .unwrap_or_else(|e| fail(&e));
    vec![
        metric("serve.sequential.total.ms", sim.sequential_us / 1e3),
        metric("serve.concurrent.makespan.ms", sim.concurrent_us / 1e3),
        metric("serve.speedup", sim.speedup()),
        metric("serve.fps", sim.fps_concurrent()),
        metric("serve.cache.hit_rate", cache.hit_rate()),
        metric("serve.cache.hits", cache.hits as f64),
        metric("serve.cache.misses", cache.misses as f64),
    ]
}

/// Report-layer aggregates for one representative model: partition
/// coverage plus device utilization from a traced BYOC CPU+APU run.
fn report_aggregates(w: &Workload, cost: &CostModel) -> Metrics {
    let Some(representative) = w.representative else {
        return Vec::new();
    };
    let representative = representative(w.showcase_seed);
    let key = |name: &str| format!("{}.report.{name}", w.name);
    let (_, part) =
        nir::partition_for_nir(&representative.module).expect("partition representative");
    let mut out = vec![
        metric(key("offload_frac"), part.offload_fraction()),
        metric(key("subgraphs"), part.num_subgraphs as f64),
        metric(key("offloaded_calls"), part.offloaded_calls as f64),
        metric(key("host_calls"), part.host_calls as f64),
    ];

    tvm_neuropilot::telemetry::enable();
    tvm_neuropilot::telemetry::reset();
    run_traced(&representative, cost);
    tvm_neuropilot::telemetry::disable();
    let snap = tvm_neuropilot::telemetry::snapshot();
    let util = report::utilization_from_snapshot(&snap);
    for d in &util.devices {
        out.push(metric(key(&format!("util.{}", d.device)), d.utilization()));
    }
    out
}

/// Deterministic resilience metrics: run the showcase models through
/// shared-injector resilient sessions under the fault plan and record the
/// outcome (final latency, fallback depth, injected faults). The plan is
/// seeded, so re-running with the same seed is byte-identical.
fn resilience_metrics(plan: &FaultPlan, cost: &CostModel) -> Metrics {
    let mut out = Vec::new();
    let mut recovered = 0u64;
    let injected = resilient_showcase(plan, &showcase_models(80), cost, None, |model, outcome| {
        let key = key_part(&model.name);
        let fallbacks = outcome.fallbacks.len() as f64;
        out.push(metric(
            format!("resilience.{key}.final.us"),
            outcome.time_us,
        ));
        out.push(metric(format!("resilience.{key}.fallbacks"), fallbacks));
        if outcome.degraded() {
            recovered += 1;
        }
    })
    .unwrap_or_else(|e| fail(&e));
    out.push(metric("resilience.faults_injected", injected as f64));
    out.push(metric("resilience.recovered_models", recovered as f64));
    out
}

/// Benchmark baseline harness and exact gate.
///
/// Runs one of the figure workloads once, records its simulated latencies
/// plus report aggregates (and, under `--inject-fault`, resilience
/// metrics) as one value per metric in a stable JSON schema, and
/// optionally gates against a checked-in baseline:
///
/// ```text
/// tvmnp bench --workload fig6 --bench-out BENCH_fig6.json
/// tvmnp bench --workload fig6 --check-against BENCH_fig6.json
/// ```
///
/// The simulation is fully deterministic, so recording twice on the same
/// commit produces byte-identical `BENCH_*.json` files, and
/// `--check-against` exits 1 when any metric is missing, new, or not
/// bit-equal to the baseline's. `--inject-slowdown <kind>=<factor>`
/// scales one hwsim work kind (`mac`, `elementwise`, `data-movement`,
/// `reduction`) — the hook the gate's tests use.
///
/// `bench` is the one producer of a measured profile:
/// `--profile-store <dir>` executes the workload's models once through
/// the BYOC CPU+APU flow and saves their binned cost ledgers as
/// `<dir>/profile-<workload>.json`; `--profile-diff <path>` (that
/// directory, or one profile file) prints the ranked attribution against
/// it, and a failing `--check-against` names its top cell as the likely
/// cause.
pub(crate) fn bench(argv: &[String]) -> ExitCode {
    let mut args = BenchCli::default();
    let usage = parse_or_exit("bench", args.flags(), argv);
    let Some(workload) = args.workload else {
        usage_error("missing required --workload", &usage);
    };
    if let Some(flag) = args.serve.pool_flag().filter(|_| workload.name != "serve") {
        let message = format!("{flag} is read only by --workload serve");
        usage_error(&message, &usage);
    }
    if args.bench_out.is_none() && args.check_against.is_none() && !args.measuring() {
        usage_error(
            "nothing to do — pass --bench-out, --check-against, \
             --profile-store, and/or --profile-diff",
            &usage,
        );
    }
    let mut cost = CostModel::default();
    if let Some(Slowdown(kind, factor)) = args.inject {
        let name = kind.name();
        eprintln!("note: injecting {factor}x slowdown into '{name}' work");
        cost = cost.with_kind_scale(kind, factor);
    }

    // The observability plane (when any --stats-out/--flight-out/--slo-ms
    // flag is given) watches the serve workload live.
    let run = Run {
        cost,
        fault_plan: args.serve.fault_plan(&usage),
        plane: args.serve.build_plane(),
        serve: args.serve.clone(),
    };
    let mut record = BenchRecord::new(workload.name);
    let mut metrics = (workload.run)(workload, &run);
    metrics.extend(report_aggregates(workload, &run.cost));
    if let Some(plan) = &run.fault_plan {
        let rules = plan.rules.len();
        eprintln!("note: injecting seeded faults ({rules} rule(s))");
        metrics.extend(resilience_metrics(plan, &run.cost));
    }
    for (key, value) in metrics {
        record.insert(key, value);
    }

    if let Some(plane) = &run.plane {
        run.serve.finish_plane(plane);
        tvm_neuropilot::telemetry::disable();
    }

    // Measured-profile pass: execute the workload's models once through
    // the BYOC CPU+APU flow and bin their cost ledgers into a profile
    // keyed by the workload.
    let profile_diff = if args.measuring() {
        let mut profile = Profile::new(workload.name);
        for model in &(workload.models)(workload.showcase_seed) {
            profile.record_ledger(run_traced(model, &run.cost).0.estimate_breakdown());
        }
        args.measured_profile(&profile)
    } else {
        None
    };

    let count = record.metrics.len();
    println!("workload '{}': {count} metrics", workload.name);

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
        let mismatches = report::mismatches(&baseline, &record);
        if !mismatches.is_empty() {
            for m in &mismatches {
                println!("MISMATCH {m}");
            }
            eprintln!(
                "error: {} metric(s) differ from {}",
                mismatches.len(),
                path.display()
            );
            if let Some(top) = profile_diff.as_ref().and_then(|d| d.top()) {
                eprintln!(
                    "likely cause: {} (ratio {:.2}x, {:+.1} us total)",
                    top.cell, top.ratio, top.delta_total_us
                );
            }
            return ExitCode::FAILURE;
        }
        println!("OK: {count} metrics bit-equal to {}", path.display());
    }
    ExitCode::SUCCESS
}
