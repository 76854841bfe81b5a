//! The `sched` subcommand.

use crate::session::Session;
use crate::workloads::{resilient_showcase, serve_clip, showcase_models};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::report::ResilienceReport;
use tvm_neuropilot::scheduler::computation::{best_assignment, ModelProfile};

/// §5.1 computation scheduling: measure the three showcase models under
/// all permutations and print the fastest-target assignment, then serve
/// a clip through the concurrent session pool and print simulated
/// throughput versus sequential plus artifact-cache statistics. With an
/// observability plane the concurrent pass runs observed and a p99
/// tail-attribution table follows the throughput lines.
///
/// `tvmnp sched [--profile] [--trace-out <path>]`
///
/// With `--inject-fault <spec>` (plus `--fault-seed <n>`) the subcommand
/// also runs the three models through a [`ResilientSession`] sharing one
/// fault injector, starting each at NP-only APU and degrading down the
/// fallback chain as the injected faults demand, then prints the
/// resilience report. Exit code 0 means every model was served (possibly
/// degraded); an exhausted fallback chain exits nonzero.
pub(crate) fn sched(telem: &mut Session) {
    let cost = CostModel::default();
    println!("== Computation scheduling (paper 5.1) ==\n");
    let models = showcase_models(80);
    let profiles: Vec<ModelProfile> = models
        .iter()
        .map(|m| ModelProfile {
            name: m.name.clone(),
            measurements: measure_all(&m.module, &cost).unwrap(),
        })
        .collect();

    for p in &profiles {
        let (best, t) = p.best().unwrap();
        println!("{:<22} -> {:<16} ({t:.3} ms)", p.name, best.label());
    }

    let assignment = best_assignment(&profiles);
    assert_eq!(assignment.len(), 3);
    println!("\nassignment complete; every model avoids TVM-only, as in the paper.");
    for p in &profiles {
        assert_ne!(assignment[&p.name], Permutation::TvmOnly);
    }

    println!("\n== Concurrent serving (session pool) ==\n");
    // The cache outlives the pool so the resilient section's fallback
    // re-dispatch reuses the compiled artifacts.
    let cache = telem.serve.cache();
    let concurrency = telem.serve.concurrency();
    let plane = telem.plane.as_deref();
    let (sim, pool_cache) = serve_clip(83, &cost, cache.clone(), concurrency, plane, None)
        .unwrap_or_else(|e| panic!("concurrent serving must match sequential bitwise: {e}"));
    println!(
        "{} frames at concurrency {concurrency}: {:.1} ms sequential -> {:.1} ms \
         ({:.2}x, {:.0} frames/s simulated)",
        sim.frames,
        sim.sequential_us / 1e3,
        sim.concurrent_us / 1e3,
        sim.speedup(),
        sim.fps_concurrent()
    );
    println!(
        "artifact cache: {} hit(s) / {} miss(es) ({:.0}% hit rate)",
        pool_cache.hits,
        pool_cache.misses,
        pool_cache.hit_rate() * 100.0
    );
    if let Some(plane) = plane {
        // Reassemble the per-frame trace trees recorded above and name
        // what the p99 tail frames actually spent their time on.
        let trees = tvm_neuropilot::observe::assemble(&tvm_neuropilot::telemetry::snapshot());
        if let Some(attribution) = tvm_neuropilot::observe::attribute(
            &plane.snapshot(),
            &trees,
            tvm_neuropilot::serving::PIPELINE,
        ) {
            println!("\n{}", attribution.render_text());
        }
    }

    if let Some(plan) = &telem.fault_plan {
        println!("\n== Resilient showcase under injected faults ==\n");
        resilient_showcase(plan, &models, &cost, Some(&cache), |model, out| {
            let via = if out.degraded() {
                format!(" via {} fallback step(s)", out.fallbacks.len())
            } else {
                String::new()
            };
            println!(
                "{:<22} served by {:<16} in {:>10.1} us{via}",
                model.name,
                out.permutation.label(),
                out.time_us
            );
        })
        .unwrap_or_else(|e| crate::cli::fail(&e));
        let report = ResilienceReport::from_snapshot(&tvm_neuropilot::telemetry::snapshot());
        println!();
        print!("{}", report.render_text());
        let stats = cache.stats();
        println!(
            "artifact cache after fallback re-dispatch: {} hit(s) / {} miss(es)",
            stats.hits, stats.misses
        );
    }

    for model in &models {
        telem.trace_model(model, &cost);
    }
}
