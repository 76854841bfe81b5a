//! The run path at its edges: whatever the executors resolve operands to
//! (inputs, parameters, slots) and however early they drop a value, the
//! bits are the interpreter's, run after run, and a failed run leaves
//! nothing behind to read.

use std::collections::HashMap;
use tvm_neuropilot::byoc::{relay_build, NeuronModule, Permutation};
use tvm_neuropilot::hwsim::{CostModel, FaultInjector, FaultPlan};
use tvm_neuropilot::neuropilot::TargetPolicy;
use tvm_neuropilot::relay::builder;
use tvm_neuropilot::relay::expr::{
    call_global, constant, tuple, tuple_get, var, Expr, Function, Module,
};
use tvm_neuropilot::relay::interp::{Interpreter, Value};
use tvm_neuropilot::relay::{Conv2dAttrs, TensorType};
use tvm_neuropilot::runtime::{ExecutorGraph, GraphExecutor, ModuleRegistry, RunOptions};
use tvm_neuropilot::tensor::rng::TensorRng;
use tvm_neuropilot::tensor::Tensor;

const PERMUTATIONS: [Permutation; 3] = [
    Permutation::TvmOnly,
    Permutation::ByocCpuApu,
    Permutation::NpCpuApu,
];

fn x_var() -> Expr {
    var("x", TensorType::f32([1, 3, 8, 8]))
}

fn inputs(seed: u64) -> HashMap<String, Tensor> {
    let x = TensorRng::new(seed).uniform_f32([1, 3, 8, 8], -1.0, 1.0);
    HashMap::from([("x".to_string(), x)])
}

fn conv(x: Expr, seed: u64) -> Expr {
    let w = TensorRng::new(seed).uniform_f32([3, 3, 3, 3], -0.5, 0.5);
    builder::conv2d(x, w, Conv2dAttrs::same(1))
}

/// The interpreter's result, a tuple flattened to its fields.
fn reference(module: &Module, inputs: &HashMap<String, Tensor>) -> Vec<Tensor> {
    fn flatten(v: Value, out: &mut Vec<Tensor>) {
        match v {
            Value::Tensor(t) => out.push(t),
            Value::Tuple(vs) => vs.into_iter().for_each(|v| flatten(v, out)),
        }
    }
    let mut out = Vec::new();
    flatten(Interpreter::new(module).run(inputs).unwrap(), &mut out);
    out
}

#[track_caller]
fn assert_bits(got: &[Tensor], want: &[Tensor], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: output count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.bit_eq(w), "{what}: output {k} differs");
    }
}

/// The edge cases, by name.
fn edge_cases() -> Vec<(&'static str, Module)> {
    let x = x_var();
    let main = |body: Expr| Module::from_main(Function::new(vec![x.clone()], body));
    let weights = TensorRng::new(90).uniform_f32([1, 3, 8, 8], -1.0, 1.0);
    let a = builder::relu(conv(x.clone(), 91));
    vec![
        (
            "an input passed straight through",
            main(tuple(vec![x.clone(), builder::relu(x.clone())])),
        ),
        (
            "a parameter as an output",
            main(tuple(vec![
                constant(weights.clone()),
                builder::add(x.clone(), constant(weights)),
            ])),
        ),
        (
            "one value listed as two outputs",
            main(tuple(vec![a.clone(), a.clone()])),
        ),
        (
            "add(x, x): one value, two operands of one step",
            main(builder::add(a.clone(), a.clone())),
        ),
        (
            "a value that is an output and feeds a later op",
            main(tuple(vec![
                a.clone(),
                builder::sigmoid(conv(a.clone(), 92)),
            ])),
        ),
        (
            "a diamond: a value read again after its first reader",
            main(builder::add(builder::sigmoid(a.clone()), conv(a, 93))),
        ),
    ]
}

#[test]
fn edge_graphs_match_the_interpreter_under_every_permutation_twice() {
    let cost = CostModel::default();
    let mut compiled = 0;
    for (what, module) in edge_cases() {
        for p in PERMUTATIONS {
            let Ok(mut model) = relay_build(&module, p.mode(), cost.clone()) else {
                // NeuroPilot may refuse a graph; TVM-only may not.
                assert_ne!(p, Permutation::TvmOnly, "{what}: TVM-only must build");
                continue;
            };
            compiled += 1;
            for seed in [7, 8, 7] {
                let ins = inputs(seed);
                let (outs, us) = model.run(&ins).unwrap();
                assert_bits(&outs, &reference(&module, &ins), &format!("{what} / {p:?}"));
                assert_eq!(us, model.estimate_us(), "{what} / {p:?}: run is the ledger");
            }
        }
    }
    assert!(
        compiled >= 12,
        "only {compiled} (case, permutation) pairs built"
    );
}

/// An external call with two outputs of which the graph reads one: the
/// other is dropped as soon as it is produced.
#[test]
fn unused_external_output_is_dropped_and_the_used_one_is_right() {
    let p = var("nir_in0", TensorType::f32([1, 3, 8, 8]));
    let shared = conv(p.clone(), 94);
    let ext = Function::new(
        vec![p],
        tuple(vec![
            builder::sigmoid(shared.clone()),
            builder::relu(shared),
        ]),
    )
    .with_attr("Compiler", "neuropilot")
    .with_attr("global_symbol", "nir_0")
    .with_attr("Primitive", "1");
    let x = x_var();
    let body = builder::leaky_relu(tuple_get(call_global("nir_0", vec![x.clone()]), 1), 0.1);
    let mut module = Module::from_main(Function::new(vec![x], body));
    module.functions.insert("nir_0".into(), ext);

    let cost = CostModel::default();
    let graph = ExecutorGraph::build(&module).unwrap();
    let mut registry = ModuleRegistry::new();
    let ext = NeuronModule::codegen(
        "nir_0",
        &module.functions["nir_0"],
        TargetPolicy::CpuApu,
        cost.clone(),
    )
    .unwrap();
    registry.register(Box::new(ext));
    let mut ex = GraphExecutor::new(graph, registry, cost).unwrap();
    for seed in [3, 4, 3] {
        let ins = inputs(seed);
        ex.set_input("x", ins["x"].clone()).unwrap();
        ex.run().unwrap();
        let want = reference(&module, &ins);
        assert_bits(
            &[ex.get_output(0).unwrap()],
            &want,
            "unused external output",
        );
    }
}

fn small_executor() -> (GraphExecutor, Module) {
    let x = x_var();
    let body = tuple(vec![x.clone(), builder::relu(conv(x.clone(), 95))]);
    let module = Module::from_main(Function::new(vec![x], body));
    let graph = ExecutorGraph::build(&module).unwrap();
    let ex = GraphExecutor::new(graph, ModuleRegistry::new(), CostModel::default()).unwrap();
    (ex, module)
}

/// `get_output` before the first run and after a failed one is an error —
/// for every output, the passed-through input included — never the
/// previous run's tensor.
#[test]
fn outputs_exist_only_after_a_completed_run() {
    let (mut ex, _) = small_executor();
    ex.set_input("x", inputs(5)["x"].clone()).unwrap();
    for i in 0..ex.num_outputs() {
        assert!(ex.get_output(i).is_err(), "output {i} before the first run");
    }
    ex.run().unwrap();
    assert!(ex.get_output(0).is_ok() && ex.get_output(1).is_ok());

    let lost = FaultInjector::new(
        FaultPlan::seeded(1)
            .with_spec("cpu:dispatch:device-lost")
            .unwrap(),
    );
    let failed = ex.run_with(&RunOptions {
        injector: Some(&lost),
        ..RunOptions::default()
    });
    assert!(failed.is_err(), "a lost device fails the run");
    for i in 0..ex.num_outputs() {
        assert!(ex.get_output(i).is_err(), "output {i} after a failed run");
    }
    ex.run().unwrap();
    assert!(ex.get_output(1).is_ok(), "and a clean run brings them back");
}

/// A run that retries injected transient faults returns the fault-free
/// bits, and charges exactly the estimate plus, per retry, the wasted
/// launch and the policy's backoff.
#[test]
fn retried_run_keeps_the_bits_and_charges_estimate_plus_retries() {
    let (mut ex, module) = small_executor();
    let ins = inputs(6);
    ex.set_input("x", ins["x"].clone()).unwrap();
    let clean_us = ex.run().unwrap();
    assert_eq!(clean_us, ex.estimate_time_us());
    let want = reference(&module, &ins);

    let injector = FaultInjector::new(
        FaultPlan::seeded(7)
            .with_spec("cpu:dispatch:transient=2")
            .unwrap(),
    );
    let opts = RunOptions {
        injector: Some(&injector),
        ..RunOptions::default()
    };
    let faulted_us = ex.run_with(&opts).unwrap();
    assert_bits(
        &[ex.get_output(0).unwrap(), ex.get_output(1).unwrap()],
        &want,
        "retried run",
    );
    let retries = injector.faults_injected();
    assert!(retries >= 1, "the plan injects transient faults");
    // Each retry wastes the launch it aborted and backs off; the ledger is
    // charged in order on top, so the sum is exact, not approximate.
    let launch_us = ex.ledger()[0].us;
    let mut expect_us = 0.0;
    for attempt in 1..=retries as u32 {
        expect_us += launch_us + opts.retry.backoff_us(attempt);
    }
    for e in ex.ledger() {
        expect_us += e.us;
    }
    assert_eq!(faulted_us, expect_us, "estimate + retries, to the bit");
    assert!(faulted_us > clean_us);
}

/// The memory plan is what executes: on every zoo and showcase model,
/// TVM-only and partitioned, what the executor's slots hold between two
/// steps never exceeds `plan_memory`'s predicted peak. (Tracked in debug
/// builds only.)
#[cfg(debug_assertions)]
#[test]
fn executor_holds_no_more_than_the_memory_plan_predicts_on_every_model() {
    use tvm_neuropilot::byoc::build::relay_build_with_artifact;
    use tvm_neuropilot::byoc::CompiledModel;
    use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, zoo};
    use tvm_neuropilot::runtime::plan_memory;
    let mut models = zoo::zoo(42);
    models.extend([
        anti_spoofing::anti_spoofing_model(42),
        emotion::emotion_model(43),
        object_detection::mobilenet_ssd_model(44),
        object_detection::yolo_model(45),
    ]);
    for model in &models {
        for p in [Permutation::TvmOnly, Permutation::ByocCpuApu] {
            let (mut compiled, artifact) =
                relay_build_with_artifact(&model.module, p.mode(), CostModel::default()).unwrap();
            compiled.run(&model.sample_inputs(1)).unwrap();
            let (CompiledModel::Tvm { executor, .. }, Some(artifact)) = (&compiled, artifact)
            else {
                unreachable!("TVM-side modes build an executor and export its graph");
            };
            let (held, plan) = (executor.peak_held_bytes(), plan_memory(&artifact.graph));
            assert!(held > 0, "{} / {p:?} held nothing", model.name);
            assert!(
                held <= plan.peak_bytes,
                "{} / {p:?}: held {held} B, planned peak {} B",
                model.name,
                plan.peak_bytes
            );
        }
    }
}
