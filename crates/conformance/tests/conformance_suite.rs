//! Acceptance suite: ≥500 seeded cases with zero divergence across all
//! seven permutations, plus proof that the harness catches and shrinks a
//! deliberately injected quant-propagation bug.

use tvmnp_conformance::{
    case_spec, check_case, read_repro, run_suite, shrink, CheckOptions, Repro, SuiteConfig,
};

/// The headline property: 500 generated cases (float and QNN, with
/// branching and NP-unsupported ops mixed in), every compiled permutation
/// bit-identical to the Relay interpreter, every invariant holding.
#[test]
fn five_hundred_seeded_cases_zero_divergence() {
    let cfg = SuiteConfig {
        cases: 500,
        base_seed: 1000,
        quant_every: 3,
        options: CheckOptions::default(),
    };
    let report = run_suite(&cfg);
    assert_eq!(report.cases_run, 500);
    assert!(
        report.passed(),
        "{} failures, first: {}",
        report.failures.len(),
        report.failures[0].failure
    );
    // All seven permutations accounted for on every case; skips only come
    // from justified NP-only `Unsupported` bail-outs.
    assert_eq!(
        report.permutations_compared + report.permutations_skipped,
        500 * 7
    );
    assert!(
        report.permutations_compared >= 500 * 4,
        "BYOC/TVM modes never skip: at least four comparisons per case"
    );
    // The generator must produce non-trivial partitions, not single-op
    // toys: a healthy fraction of cases splits into multiple subgraphs.
    assert!(
        report.total_subgraphs > 500,
        "expected >1 external subgraph per case on average, got {}",
        report.total_subgraphs
    );
    // Quantized cases are a third of the mix.
    assert_eq!(report.quant_cases, 166);
}

/// A deliberately injected quant-propagation bug (test-only hook) is
/// caught by the `quant-params` invariant, shrunk below 10 nodes, and the
/// written `.repro` file replays to the same failure.
#[test]
fn injected_quant_bug_is_caught_shrunk_and_replayable() {
    let opts = CheckOptions {
        inject_quant_bug: true,
    };
    let cfg = SuiteConfig {
        cases: 60,
        base_seed: 9000,
        quant_every: 2,
        options: opts,
    };
    // The bugged harness must flag quantized cases that route parameters
    // through quantization-transparent ops.
    let mut caught = None;
    for i in 0..cfg.cases {
        let spec = case_spec(&cfg, i);
        if let Err(failure) = check_case(&spec, &opts) {
            assert_eq!(failure.kind(), "invariant:quant-params", "{failure}");
            caught = Some((spec, failure));
            break;
        }
    }
    let (spec, failure) = caught.expect("injected bug never fired across 60 cases");

    // Shrink: same failure kind, fewer than 10 nodes.
    let minimized = shrink(&spec, &failure, &opts);
    assert_eq!(minimized.failure.kind(), "invariant:quant-params");
    assert!(
        minimized.spec.num_nodes() < 10,
        "shrunk case still has {} nodes",
        minimized.spec.num_nodes()
    );
    assert!(minimized.spec.num_nodes() <= spec.num_nodes());

    // Capture to a .repro file and replay it from disk.
    let repro = Repro::capture(&minimized.spec, &minimized.failure, &opts);
    let dir = std::env::temp_dir().join(format!("tvmnp-conf-accept-{}", std::process::id()));
    let path = dir.join(format!("{}.repro", repro.file_stem()));
    tvmnp_conformance::write_repro(&path, &repro).unwrap();
    let loaded = read_repro(&path).unwrap();
    let replayed = loaded.replay().expect_err("repro must still fail");
    assert_eq!(replayed.kind(), "invariant:quant-params");

    // Without the hook, the same spec is clean — the failure really is
    // the injected bug, not a generator artifact.
    check_case(&minimized.spec, &CheckOptions::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaying a clean case through the repro machinery reports success —
/// the exit path the bench binary uses to tell "fixed" from "still
/// broken".
#[test]
fn clean_case_replays_as_fixed() {
    let spec = tvmnp_conformance::random_spec(4242, true);
    let repro = Repro {
        version: tvmnp_conformance::repro::REPRO_VERSION,
        kind: "divergence:example".to_string(),
        failure: "historical".to_string(),
        inject_quant_bug: false,
        spec,
    };
    let outcome = repro.replay().expect("case is clean on today's compiler");
    assert_eq!(
        outcome.permutations_compared + outcome.permutations_skipped,
        7
    );
}

/// The memory plan is what executes: on 200 generated graphs, TVM-only and
/// partitioned, the bytes the executor's slots hold between two steps never
/// exceed the plan's predicted peak. (The executor tracks its held bytes in
/// debug builds only.)
#[cfg(debug_assertions)]
#[test]
fn executor_never_holds_more_than_the_memory_plan_predicts() {
    use tvmnp_byoc::build::relay_build_with_artifact;
    use tvmnp_byoc::{CompiledModel, Permutation};
    use tvmnp_conformance::{build_case, random_spec};
    use tvmnp_hwsim::CostModel;
    use tvmnp_runtime::plan_memory;
    let mut checked = 0;
    for i in 0..200u64 {
        let case = build_case(&random_spec(5000 + i, i % 3 == 0)).expect("spec builds");
        for p in [Permutation::TvmOnly, Permutation::ByocCpuApu] {
            let (mut model, artifact) =
                relay_build_with_artifact(&case.module, p.mode(), CostModel::default()).unwrap();
            model.run(&case.inputs).unwrap();
            let (CompiledModel::Tvm { executor, .. }, Some(artifact)) = (&model, artifact) else {
                unreachable!("TVM-side modes build an executor and export its graph");
            };
            let plan = plan_memory(&artifact.graph);
            assert!(
                executor.peak_held_bytes() <= plan.peak_bytes,
                "case {i} / {p:?}: held {} B, planned peak {} B",
                executor.peak_held_bytes(),
                plan.peak_bytes
            );
            checked += usize::from(executor.peak_held_bytes() > 0);
        }
    }
    assert!(checked >= 300, "only {checked} runs held anything");
}

/// The generator's draws are pinned: the specs of both configurations
/// above — 500 from seed 1000, 60 from seed 9000 — hash, as JSON, to fixed
/// values, so a change to the draw sequence (which changes every case the
/// suite runs) is seen here, not as a silently different suite.
#[test]
fn the_suite_specs_are_pinned() {
    let digest = |cases, base_seed, quant_every| {
        let cfg = SuiteConfig {
            cases,
            base_seed,
            quant_every,
            options: CheckOptions::default(),
        };
        // FNV-1a over the specs' JSON.
        (0..cases)
            .flat_map(|i| {
                serde_json::to_string(&case_spec(&cfg, i))
                    .expect("a spec serializes")
                    .into_bytes()
            })
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    };
    assert_eq!(
        format!("{:#018x}", digest(500, 1000, 3)),
        "0x6fee53f422f0ab18"
    );
    assert_eq!(
        format!("{:#018x}", digest(60, 9000, 2)),
        "0x3afa793529f77182"
    );
}
