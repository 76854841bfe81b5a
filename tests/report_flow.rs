//! Report-layer flow: device utilization reconciles with the executor's
//! measured run, bench records are byte-deterministic, and an injected
//! hwsim slowdown trips the exact bench gate.
//!
//! Kept as a single test function: the telemetry collector is
//! process-global, so a concurrent test's spans would pollute the
//! snapshot the utilization report is built from.

use tvm_neuropilot::hwsim::WorkKind;
use tvm_neuropilot::models::emotion;
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::report::{self, BenchRecord};
use tvm_neuropilot::telemetry;

#[test]
fn report_flow() {
    utilization_reconciles_with_executor();
    bench_records_are_byte_deterministic();
    injected_slowdown_trips_the_gate();
}

/// Trace one BYOC CPU+APU run and rebuild utilization from the
/// snapshot: busy + idle = span on every device by construction, and
/// the totals account for the executor's own `last_run_us`.
fn utilization_reconciles_with_executor() {
    let model = emotion::emotion_model(55);
    telemetry::enable();
    telemetry::reset();
    let mut compiled = relay_build(
        &model.module,
        TargetMode::Byoc(TargetPolicy::CpuApu),
        CostModel::default(),
    )
    .unwrap();
    let (_, last_run_us) = compiled.run(&model.sample_inputs(3)).unwrap();
    telemetry::disable();
    let snap = telemetry::snapshot();

    let util = report::utilization_from_snapshot(&snap);
    assert!(!util.devices.is_empty(), "no devices in snapshot");
    for d in &util.devices {
        assert!(
            (d.busy_us + d.idle_us - util.span_us).abs() < 1e-6,
            "{}: busy {:.3} + idle {:.3} != span {:.3}",
            d.device,
            d.busy_us,
            d.idle_us,
            util.span_us
        );
        assert!(
            d.busy_us > 0.0,
            "{}: device appears but never ran",
            d.device
        );
    }
    // Per-node spans are the executor's own attribution, so their total
    // busy time matches the reported run and the span cannot exceed it.
    let busy: f64 = util.devices.iter().map(|d| d.busy_us).sum();
    assert!(
        busy >= 0.95 * last_run_us && busy <= last_run_us * 1.0001,
        "busy {busy:.2} us does not reconcile with run {last_run_us:.2} us"
    );
    assert!(
        util.span_us <= last_run_us * 1.0001,
        "span {:.2} exceeds run {last_run_us:.2}",
        util.span_us
    );
}

/// Writing the same record twice yields byte-identical files — the
/// property that makes `BENCH_*.json` diffs trustworthy — and a record
/// survives a write → read → write round trip unchanged.
fn bench_records_are_byte_deterministic() {
    let dir = std::env::temp_dir();
    let a = dir.join("tvmnp_report_flow_a.json");
    let b = dir.join("tvmnp_report_flow_b.json");
    let c = dir.join("tvmnp_report_flow_c.json");
    let make = || {
        let mut r = BenchRecord::new("unit");
        r.insert("emotion.byoc-apu.ms", 1.25);
        r.insert("emotion.report.util.apu", 0.75);
        r
    };
    make().write(&a).unwrap();
    make().write(&b).unwrap();
    let bytes = std::fs::read(&a).unwrap();
    assert_eq!(
        bytes,
        std::fs::read(&b).unwrap(),
        "writes must be identical"
    );
    BenchRecord::read(&a).unwrap().write(&c).unwrap();
    assert_eq!(
        bytes,
        std::fs::read(&c).unwrap(),
        "round trip must be lossless"
    );
    for p in [&a, &b, &c] {
        let _ = std::fs::remove_file(p);
    }
}

/// A 2x slowdown injected into one hwsim work kind must fail the exact
/// gate against the unperturbed baseline, naming the moved key, while a
/// record always compares clean against a rebuild of itself.
fn injected_slowdown_trips_the_gate() {
    let model = emotion::emotion_model(55);
    let record = |cost: CostModel| {
        let compiled =
            relay_build(&model.module, TargetMode::Byoc(TargetPolicy::CpuApu), cost).unwrap();
        let mut r = BenchRecord::new("unit");
        r.insert("emotion.ms", compiled.estimate_us() / 1000.0);
        r
    };
    let baseline = record(CostModel::default());
    let slow = CostModel::default().with_kind_scale(WorkKind::parse("mac").unwrap(), 2.0);
    let found = report::mismatches(&baseline, &record(slow));
    assert_eq!(found.len(), 1, "2x mac slowdown must trip the gate");
    assert_eq!(found[0].key, "emotion.ms");
    assert!(found[0].new > found[0].old, "{}", found[0]);
    assert_eq!(
        report::mismatches(&baseline, &record(CostModel::default())),
        []
    );
}
