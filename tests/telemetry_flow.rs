//! End-to-end observability: push one showcase model through the full
//! BYOC flow with telemetry enabled and check that the collected spans
//! tell the whole story — compile, partition, codegen, and an execute
//! phase whose per-node profile accounts for ≥95% of the measured run.
//!
//! Kept as a single test function: the telemetry collector is
//! process-global, so concurrent tests in this binary would interleave
//! their spans.

use std::collections::HashSet;
use tvm_neuropilot::models::emotion;
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::telemetry;

#[test]
fn byoc_flow_is_fully_observable() {
    let model = emotion::emotion_model(41);
    let cost = CostModel::default();

    telemetry::enable();
    telemetry::reset();
    let mut compiled =
        relay_build(&model.module, TargetMode::Byoc(TargetPolicy::CpuApu), cost).unwrap();
    let (outputs, last_run_us) = compiled.run(&model.sample_inputs(2)).unwrap();
    telemetry::disable();
    let snap = telemetry::snapshot();

    assert_eq!(outputs[0].shape().dims(), &[1, 7]);

    // Every phase of the flow left spans behind.
    let names: HashSet<&str> = snap.events.iter().map(|e| e.name).collect();
    for phase in [
        "relay.pass",
        "byoc.build",
        "byoc.partition",
        "byoc.codegen",
        "neuropilot.compile",
        "executor.run",
        "executor.node",
    ] {
        assert!(names.contains(phase), "missing {phase} span in {names:?}");
    }

    // The per-node simulated spans account for (at least) 95% of the
    // executor's reported run time — nothing is unattributed.
    let node_us: f64 = snap
        .events
        .iter()
        .filter(|e| e.name == "executor.node")
        .map(|e| e.dur_us())
        .sum();
    assert!(
        node_us >= 0.95 * last_run_us,
        "per-node spans cover {node_us:.2} of {last_run_us:.2} us"
    );
    assert!(
        node_us <= last_run_us * 1.0001,
        "profile cannot exceed the run"
    );

    // Both exporters render from the same snapshot.
    let table = telemetry::profile_table(&snap, "executor.node", None);
    assert!(table.contains("% of run") && table.contains("apu"));
    let trace = telemetry::chrome_trace(&snap);
    let events = trace["traceEvents"].as_array().expect("trace array");
    assert!(events.len() > snap.events.len(), "trace = spans + metadata");
}
