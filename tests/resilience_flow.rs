//! Resilient execution through the public API: seeded faults against the
//! paper's showcase models, exercising the fallback chain end to end.
//!
//! Pins down the three contract points of the resilience subsystem:
//!
//! 1. a degraded run is **bit-identical** to a fault-free run of the
//!    permutation it lands on (host kernels everywhere);
//! 2. an exhausted chain surfaces a **typed** error carrying the full
//!    per-permutation cause chain, not a panic or a stringly error;
//! 3. the same [`FaultPlan`] seed reproduces the same outcome, byte for
//!    byte.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use tvm_neuropilot::byoc::BuildError;
use tvm_neuropilot::models::emotion;
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::runtime::{ExecErrorKind, RunOptions};
use tvm_neuropilot::telemetry::{self, EventSink, Field, Record};

fn policy_with_breaker(threshold: u64) -> ResiliencePolicy {
    ResiliencePolicy {
        breaker_threshold: threshold,
        ..ResiliencePolicy::default()
    }
}

#[test]
fn apu_loss_degrades_bit_identical_to_fault_free_cpu_run() {
    let model = emotion::emotion_model(41);
    let inputs = model.sample_inputs(9);

    // Fault-free reference on the permutation the chain falls back to.
    let mut reference = relay_build(
        &model.module,
        Permutation::ByocCpu.mode(),
        CostModel::default(),
    )
    .expect("reference build");
    let (ref_outs, _) = reference.run(&inputs).expect("reference run");

    // Kill the APU; one loss trips its breaker so every APU-dependent
    // permutation is skipped.
    let mut session = ResilientSession::new(
        model.module.clone(),
        CostModel::default(),
        FaultPlan::seeded(7)
            .with_spec("apu:dispatch:device-lost")
            .unwrap(),
        policy_with_breaker(1),
    );
    let out = session
        .run(&model.name, Permutation::NpApu, &inputs)
        .expect("chain must recover on the CPU");

    assert!(out.degraded(), "APU loss must force a fallback");
    assert_eq!(out.permutation, Permutation::ByocCpu);
    assert_eq!(out.outputs.len(), ref_outs.len());
    for (got, want) in out.outputs.iter().zip(&ref_outs) {
        assert!(
            got.bit_eq(want),
            "degraded outputs must be bit-identical to the fault-free CPU run"
        );
    }
    assert!(
        out.fallbacks.iter().any(|c| c.detail.contains("apu")),
        "cause chain must name the lost device: {:?}",
        out.fallbacks
    );
}

#[test]
fn exhausted_chain_yields_typed_error_with_full_cause_chain() {
    let model = emotion::emotion_model(41);
    let inputs = model.sample_inputs(9);

    // Every device the chain can reach is gone.
    let mut session = ResilientSession::new(
        model.module.clone(),
        CostModel::default(),
        FaultPlan::seeded(3)
            .with_spec("apu:dispatch:device-lost")
            .unwrap()
            .with_spec("cpu:dispatch:device-lost")
            .unwrap(),
        ResiliencePolicy::default(),
    );
    let err = session
        .run(&model.name, Permutation::NpApu, &inputs)
        .expect_err("no device left to serve the run");

    let ResilienceError::Exhausted {
        model: label,
        causes,
    } = &err
    else {
        panic!("expected ResilienceError::Exhausted, got {err}");
    };
    assert_eq!(label, &model.name);
    assert_eq!(
        causes.len(),
        Permutation::FALLBACK_CHAIN.len(),
        "one cause per abandoned permutation"
    );
    for (cause, perm) in causes.iter().zip(Permutation::FALLBACK_CHAIN) {
        assert_eq!(cause.permutation, perm);
        assert!(!cause.detail.is_empty());
    }
    assert!(causes.iter().any(|c| c.detail.contains("apu")));
    assert!(causes.iter().any(|c| c.detail.contains("cpu")));
    // The rendered error narrates the whole chain.
    let msg = err.to_string();
    assert!(msg.contains("fallback chain exhausted"), "{msg}");
    assert!(msg.contains("apu") && msg.contains("cpu"), "{msg}");
}

#[test]
fn same_fault_seed_reproduces_the_same_outcome() {
    let model = emotion::emotion_model(41);
    let inputs = model.sample_inputs(9);
    let run = |seed: u64| {
        let mut session = ResilientSession::new(
            model.module.clone(),
            CostModel::default(),
            FaultPlan::seeded(seed)
                .with_spec("apu:dispatch:transient=3")
                .unwrap(),
            ResiliencePolicy::default(),
        );
        let out = session
            .run(&model.name, Permutation::NpApu, &inputs)
            .expect("transient faults must recover via retry");
        let faults = session.injector().faults_injected();
        (out, faults)
    };
    let (a, fa) = run(7);
    let (b, fb) = run(7);
    assert_eq!(a.permutation, b.permutation);
    assert_eq!(a.time_us, b.time_us, "retry backoff is simulated time");
    assert_eq!(a.fallbacks.len(), b.fallbacks.len());
    assert_eq!(fa, fb, "same seed must inject the same faults");
    assert!(fa >= 1, "seeded transient plan must actually fire");
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert!(x.bit_eq(y));
    }
}

/// Keeps the records emitted on the thread that made it: the sink is
/// process-global and the other tests of this binary inject faults too.
struct ThisThreadSink {
    thread: ThreadId,
    seen: Mutex<Vec<Record>>,
}

impl EventSink for ThisThreadSink {
    fn record(&self, record: &Record) {
        if thread::current().id() == self.thread {
            self.seen.lock().unwrap().push(record.clone());
        }
    }
}

/// An NP-only model has no graph executor under it, yet its dispatch
/// faults are announced like everyone else's: one `fault.injected` event
/// per consumed fault, and a lost device fails the run with the executor's
/// typed error.
#[test]
fn np_only_dispatch_faults_reach_the_event_sink() {
    let model = emotion::emotion_model(41);
    let inputs = model.sample_inputs(9);
    let mode = TargetMode::NeuroPilotOnly(TargetPolicy::ApuPrefer);
    let mut compiled = relay_build(&model.module, mode, CostModel::default()).expect("NP build");
    let sink = Arc::new(ThisThreadSink {
        thread: thread::current().id(),
        seen: Mutex::new(Vec::new()),
    });
    telemetry::set_event_sink(sink.clone());
    let mut run_under = |plan: FaultPlan| {
        let injector = FaultInjector::new(plan);
        let opts = RunOptions {
            injector: Some(&injector),
            ..RunOptions::default()
        };
        let ran = compiled.run_with(&inputs, &opts);
        let events: Vec<Record> = sink.seen.lock().unwrap().drain(..).collect();
        for e in &events {
            assert_eq!(e.name, "fault.injected");
            assert_eq!(e.str("stage"), Some("dispatch"));
            assert_eq!(e.str("device"), Some("apu"));
        }
        (ran, events, injector.faults_injected())
    };

    let (ran, events, faults) = run_under(
        FaultPlan::seeded(7)
            .with_spec("apu:dispatch:transient=2")
            .unwrap(),
    );
    ran.expect("retries absorb transient faults");
    assert!(faults >= 1, "seeded transient plan must actually fire");
    assert_eq!(events.len() as u64, faults, "one event per retry");
    assert!(events
        .iter()
        .all(|e| e.get("fatal") == Some(&Field::Bool(false))));

    let (ran, events, _) = run_under(
        FaultPlan::seeded(7)
            .with_spec("apu:dispatch:device-lost")
            .unwrap(),
    );
    telemetry::clear_event_sink();
    let Err(BuildError::Exec(err)) = ran else {
        panic!("a lost APU must fail the run with a typed executor error");
    };
    assert_eq!(err.kind(), ExecErrorKind::DeviceFault);
    assert_eq!(events.len(), 1, "a fatal fault is announced exactly once");
    assert_eq!(events[0].get("fatal"), Some(&Field::Bool(true)));
}
