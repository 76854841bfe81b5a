//! The workload set-ups more than one subcommand runs, each written once:
//! `sched` prints what they return, `bench` records it.

use std::sync::Arc;
use tvm_neuropilot::byoc::cache::CacheStats;
use tvm_neuropilot::byoc::CompiledModel;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::observe::ObservePlane;
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::serving::ServeSim;
use tvm_neuropilot::vision::{FrameResult, ShowcaseFaults};

/// The three application-showcase models (anti-spoofing, object
/// detection, emotion) on consecutive seeds from `seed`.
pub(crate) fn showcase_models(seed: u64) -> [Model; 3] {
    [
        anti_spoofing::anti_spoofing_model(seed),
        object_detection::mobilenet_ssd_model(seed + 1),
        emotion::emotion_model(seed + 2),
    ]
}

/// Build `model` through the BYOC CPU+APU flow and run one inference on
/// its seed-7 sample inputs, returning the model that ran and the
/// simulated µs. With the telemetry collector enabled this is what gives
/// a trace its execute phase; the model's ledger is what a measured
/// profile records.
pub(crate) fn run_traced(model: &Model, cost: &CostModel) -> (CompiledModel, f64) {
    let mut compiled = relay_build(
        &model.module,
        TargetMode::Byoc(TargetPolicy::CpuApu),
        cost.clone(),
    )
    .expect("traced build");
    let (_, us) = compiled.run(&model.sample_inputs(7)).expect("traced run");
    (compiled, us)
}

/// Serve a 64-frame clip (video seed `seed + 1`) through a session pool
/// seeded `seed`, once sequentially and once at `concurrency`, and
/// simulate the concurrent schedule. With an observability plane the
/// concurrent pass runs observed (per-frame traces, live sketches). With
/// a fault plan the pool itself is faulted: its thermal throttles slow
/// the pool's cost model, and every model dispatch consults one shared
/// injector, so transient faults hit the retry path (and the flight
/// recorder) in-band. Returns the simulated sequential-versus-
/// concurrent timing of the clip and the pool's artifact-cache counters
/// after serving; `Err` says how the concurrent pass diverged from the
/// sequential one.
pub(crate) fn serve_clip(
    seed: u64,
    cost: &CostModel,
    cache: Arc<ArtifactCache>,
    concurrency: usize,
    plane: Option<&ObservePlane>,
    faults: Option<&FaultPlan>,
) -> Result<(ServeSim, CacheStats), String> {
    // No fault plan is the empty one: the injector never fires and the
    // cost model is unthrottled.
    let plan = faults.cloned().unwrap_or_default();
    let pool = SessionPool::new_with_faults(
        seed,
        &serving_rotation(),
        &plan.throttled_cost(cost.clone()),
        cache,
        ShowcaseFaults {
            injector: Arc::new(FaultInjector::new(plan)),
            retry: RetryPolicy { max_attempts: 3 },
        },
    );
    let frames = SyntheticVideo::new(seed + 1, 64, 64).frames(64);
    let sequential = pool.serve(&frames, 1);
    let concurrent = match plane {
        None => pool.serve(&frames, concurrency),
        Some(plane) => pool.serve_observed(&frames, concurrency, plane),
    };
    if faults.is_none() {
        if sequential != concurrent {
            return Err(format!(
                "concurrent serving (concurrency {concurrency}) diverged from sequential"
            ));
        }
    } else {
        // Under faults, retry backoff lands on whichever dispatch
        // consumed a fault (schedule-dependent), so only the numeric
        // outputs must agree; the timing below comes from the sequential
        // pass, which is deterministic either way.
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
            return Err(format!(
                "concurrent serving (concurrency {concurrency}) changed numeric outputs \
                 under the fault plan"
            ));
        }
    }
    let per_frame: Vec<_> = sequential
        .iter()
        .map(|r| frame_segments(pool.assignment_for(r.frame_index), r))
        .collect();
    Ok((
        simulate_serve(&per_frame, concurrency),
        pool.cache().stats(),
    ))
}

/// Run `models` through resilient sessions sharing one fault injector,
/// each starting at NP-only APU and degrading down the fallback chain as
/// the injected faults demand; `served` sees each outcome as it lands.
/// The plan's thermal throttles slow every session's cost model. The
/// injector is shared so fault history carries across models: a
/// device that died serving model 1 is known dead when models 2 and 3
/// plan. With a `cache`, fallback re-dispatch reuses any permutation
/// built before. Returns the number of faults injected; `Err` names the
/// model whose fallback chain was exhausted.
pub(crate) fn resilient_showcase(
    plan: &FaultPlan,
    models: &[Model],
    cost: &CostModel,
    cache: Option<&Arc<ArtifactCache>>,
    mut served: impl FnMut(&Model, &RunOutcome),
) -> Result<u64, String> {
    let injector = Arc::new(FaultInjector::new(plan.clone()));
    let cost = plan.throttled_cost(cost.clone());
    // Two dispatch attempts per segment: a single transient fault is
    // retried and absorbed, a burst exhausts the budget and degrades the
    // model down the fallback chain instead of failing the run.
    let retry = RetryPolicy { max_attempts: 2 };
    for model in models {
        let mut session = ResilientSession::with_injector(
            model.module.clone(),
            cost.clone(),
            injector.clone(),
            retry,
        );
        if let Some(cache) = cache {
            session =
                session.with_cache(cache.clone(), ArtifactCache::quant_label(model.input_quant));
        }
        let outcome = session
            .run(&model.name, Permutation::NpApu, &model.sample_inputs(7))
            .map_err(|e| format!("resilience run of '{}' failed: {e}", model.name))?;
        served(model, &outcome);
    }
    Ok(injector.faults_injected())
}
