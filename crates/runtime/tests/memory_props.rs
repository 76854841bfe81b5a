//! Property tests for the storage planner and the executor's analytic
//! time estimate, and the planner on hand-built chains and diamonds.

use proptest::prelude::*;
use tvmnp_hwsim::CostModel;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::{Conv2dAttrs, OpKind, TensorType};
use tvmnp_runtime::{plan_memory, ExecutorGraph, GraphExecutor, ModuleRegistry};
use tvmnp_tensor::rng::TensorRng;

fn random_graph(choices: &[u8], seed: u64) -> Module {
    let mut rng = TensorRng::new(seed);
    let x = var("x", TensorType::f32([1, 4, 8, 8]));
    let mut nodes: Vec<Expr> = vec![x.clone()];
    for (i, &c) in choices.iter().enumerate() {
        let pick = |k: usize| nodes[(c as usize + k * 3 + i) % nodes.len()].clone();
        let new = match c % 6 {
            0 => builder::relu(pick(0)),
            1 => builder::sigmoid(pick(0)),
            2 => builder::add(pick(0), pick(1)),
            3 => builder::multiply(pick(0), pick(1)),
            4 => builder::conv2d(
                pick(0),
                rng.uniform_f32([4, 4, 3, 3], -0.3, 0.3),
                Conv2dAttrs::same(1),
            ),
            _ => call(OpKind::Tanh, vec![pick(0)]),
        };
        nodes.push(new);
    }
    Module::from_main(Function::new(vec![x], nodes.last().unwrap().clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The storage plan never aliases two simultaneously-live values, and
    /// peak memory is bounded by the no-reuse total.
    #[test]
    fn memory_plan_sound(choices in prop::collection::vec(0u8..=255, 1..24), seed in 0u64..10_000) {
        let m = random_graph(&choices, seed);
        let g = ExecutorGraph::build(&m).unwrap();
        let plan = plan_memory(&g);
        prop_assert!(plan.check_no_alias(&g).is_none());
        // Upper bound: sum of all op-output sizes (no reuse at all).
        let no_reuse: usize = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, tvmnp_runtime::NodeKind::Op { .. }))
            .flat_map(|n| n.out_types.iter().map(|t| t.size_bytes()))
            .sum();
        prop_assert!(plan.peak_bytes <= no_reuse.max(1));
        // Lower bound: at least the largest single output.
        let largest = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, tvmnp_runtime::NodeKind::Op { .. }))
            .flat_map(|n| n.out_types.iter().map(|t| t.size_bytes()))
            .max()
            .unwrap_or(0);
        prop_assert!(plan.peak_bytes >= largest);
    }

    /// The executor's analytic estimate equals the time accounted during a
    /// real run (one timing source of truth).
    #[test]
    fn estimate_matches_run(choices in prop::collection::vec(0u8..=255, 1..12), seed in 0u64..10_000) {
        let m = random_graph(&choices, seed);
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        let est = ex.estimate_time_us();
        let mut rng = TensorRng::new(seed);
        ex.set_input("x", rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0)).unwrap();
        let ran = ex.run().unwrap();
        prop_assert!((est - ran).abs() < 1e-6, "estimate {est} vs run {ran}");
    }

    /// What the executor holds in its slots between two steps never exceeds
    /// the plan's own prediction — the plan is what executes.
    #[cfg(debug_assertions)]
    #[test]
    fn held_bytes_stay_under_planned_peak(choices in prop::collection::vec(0u8..=255, 1..24), seed in 0u64..10_000) {
        let m = random_graph(&choices, seed);
        let g = ExecutorGraph::build(&m).unwrap();
        let plan = plan_memory(&g);
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        let mut rng = TensorRng::new(seed);
        ex.set_input("x", rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0)).unwrap();
        ex.run().unwrap();
        prop_assert!(ex.peak_held_bytes() > 0);
        prop_assert!(
            ex.peak_held_bytes() <= plan.peak_bytes,
            "held {} B, planned peak {} B", ex.peak_held_bytes(), plan.peak_bytes
        );
    }

    /// Lowering and executing equals the interpreter for random graphs.
    #[test]
    fn executor_matches_interpreter(choices in prop::collection::vec(0u8..=255, 1..12), seed in 0u64..10_000) {
        let m = random_graph(&choices, seed);
        let g = ExecutorGraph::build(&m).unwrap();
        let mut ex = GraphExecutor::new(g, ModuleRegistry::new(), CostModel::default()).unwrap();
        let mut rng = TensorRng::new(seed ^ 0xabcd);
        let input = rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0);
        ex.set_input("x", input.clone()).unwrap();
        ex.run().unwrap();
        let mut ins = std::collections::HashMap::new();
        ins.insert("x".to_string(), input);
        let reference = tvmnp_relay::interp::run_module(&m, &ins).unwrap();
        prop_assert!(ex.get_output(0).unwrap().bit_eq(&reference));
    }
}

fn chain(n: usize) -> ExecutorGraph {
    let x = var("x", TensorType::f32([64]));
    let mut e = x.clone();
    for _ in 0..n {
        e = builder::relu(e);
    }
    ExecutorGraph::build(&Module::from_main(Function::new(vec![x], e))).unwrap()
}

#[test]
fn chain_reuses_two_slots() {
    let g = chain(10);
    let plan = plan_memory(&g);
    // Ping-pong between two buffers regardless of depth.
    assert!(
        plan.slot_bytes.len() <= 2,
        "got {} slots",
        plan.slot_bytes.len()
    );
    assert!(plan.check_no_alias(&g).is_none());
}

#[test]
fn diamond_needs_extra_slot() {
    let x = var("x", TensorType::f32([64]));
    let a = builder::relu(x.clone());
    let b = builder::sigmoid(a.clone());
    let c = builder::add(a.clone(), b); // `a` stays live across `b`
    let g = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], c))).unwrap();
    let plan = plan_memory(&g);
    assert!(plan.slot_bytes.len() >= 2);
    assert!(plan.check_no_alias(&g).is_none());
}

#[test]
fn peak_bytes_positive_and_bounded() {
    // On a chain the planner ping-pongs two slots (pool = 2 buffers),
    // but only one value crosses any step boundary: the true live peak
    // is a single buffer, strictly below the pool size.
    let g = chain(5);
    let plan = plan_memory(&g);
    assert_eq!(plan.peak_bytes, 64 * 4, "one live buffer at a time");
    assert_eq!(plan.pool_bytes, 2 * 64 * 4, "two slots reserved");
    assert!(
        plan.peak_bytes < plan.pool_bytes,
        "peak must report live bytes, not pool size"
    );
}

#[test]
fn deep_chain_peak_stays_one_buffer() {
    let g = chain(10);
    let plan = plan_memory(&g);
    assert_eq!(plan.peak_bytes, 64 * 4);
    assert!(plan.peak_bytes < plan.pool_bytes);
}

#[test]
fn diamond_peak_counts_both_live_values() {
    // `a` stays live across `b`: two values genuinely coexist, so the
    // peak equals the pool (no reuse slack to reclaim).
    let x = var("x", TensorType::f32([64]));
    let a = builder::relu(x.clone());
    let b = builder::sigmoid(a.clone());
    let c = builder::add(a.clone(), b);
    let g = ExecutorGraph::build(&Module::from_main(Function::new(vec![x], c))).unwrap();
    let plan = plan_memory(&g);
    assert_eq!(plan.peak_bytes, 2 * 64 * 4);
    assert!(plan.peak_bytes <= plan.pool_bytes);
}

#[test]
fn peak_never_exceeds_pool() {
    for n in 1..12 {
        let plan = plan_memory(&chain(n));
        assert!(plan.peak_bytes <= plan.pool_bytes, "chain({n})");
        assert!(plan.peak_bytes > 0, "chain({n})");
    }
}

#[test]
fn outputs_never_recycled_early() {
    // The graph output must hold a slot to the very end.
    let g = chain(3);
    let plan = plan_memory(&g);
    let out_slot = plan.slot_of(g.outputs[0]).expect("an op output has a slot");
    assert!(out_slot < plan.slot_bytes.len());
    assert!(plan.check_no_alias(&g).is_none());
}
