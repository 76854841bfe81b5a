//! Property-based tests: BYOC partitioning and constant folding preserve
//! program semantics on randomly generated dataflow graphs.

use proptest::prelude::*;
use std::collections::HashMap;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::infer::infer_types;
use tvmnp_relay::interp::run_module;
use tvmnp_relay::passes::{fold_constants, partition_graph, CompilerSupport};
use tvmnp_relay::{OpKind, TensorType};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::Tensor;

/// Build a random DAG of unary/binary float ops over a `[1, 4, 6, 6]` input.
/// `choices` drives both topology and op selection, so proptest shrinks it.
fn random_graph(choices: &[u8], seed: u64) -> (Module, Tensor) {
    let mut rng = TensorRng::new(seed);
    let x = var("x", TensorType::f32([1, 4, 6, 6]));
    let mut nodes: Vec<Expr> = vec![x.clone()];
    for (i, &c) in choices.iter().enumerate() {
        let pick = |k: usize| nodes[(c as usize + k * 7 + i) % nodes.len()].clone();
        let new = match c % 8 {
            0 => call(OpKind::Relu, vec![pick(0)]),
            1 => call(OpKind::Sigmoid, vec![pick(0)]),
            2 => call(OpKind::Tanh, vec![pick(0)]),
            3 => call(OpKind::Add, vec![pick(0), pick(1)]),
            4 => call(OpKind::Multiply, vec![pick(0), pick(1)]),
            5 => call(OpKind::Maximum, vec![pick(0), pick(1)]),
            6 => builder::conv2d(
                pick(0),
                rng.uniform_f32([4, 4, 3, 3], -0.3, 0.3),
                tvmnp_relay::Conv2dAttrs::same(1),
            ),
            _ => call(OpKind::Negative, vec![pick(0)]),
        };
        nodes.push(new);
    }
    let body = nodes.last().unwrap().clone();
    let m = Module::from_main(Function::new(vec![x], body));
    let input = rng.uniform_f32([1, 4, 6, 6], -1.0, 1.0);
    (m, input)
}

/// Support oracle from a bitmask over the op vocabulary.
struct MaskSupport(u8);

impl CompilerSupport for MaskSupport {
    fn name(&self) -> &str {
        "neuropilot"
    }

    fn supported(&self, op: &OpKind) -> bool {
        let bit = match op {
            OpKind::Relu => 0,
            OpKind::Sigmoid => 1,
            OpKind::Tanh => 2,
            OpKind::Add => 3,
            OpKind::Multiply => 4,
            OpKind::Maximum => 5,
            OpKind::Conv2d(_) => 6,
            _ => 7,
        };
        (self.0 >> bit) & 1 == 1
    }
}

fn eval(m: &Module, input: &Tensor) -> Tensor {
    let mut ins = HashMap::new();
    ins.insert("x".to_string(), input.clone());
    run_module(m, &ins).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioning any random graph under any support mask yields a module
    /// that type checks and evaluates bit-identically to the original.
    #[test]
    fn partition_preserves_semantics(
        choices in prop::collection::vec(0u8..=255, 1..24),
        mask in 0u8..=255,
        seed in 0u64..10_000,
    ) {
        let (m, input) = random_graph(&choices, seed);
        let reference = eval(&m, &input);
        let (p, report) = partition_graph(&m, &MaskSupport(mask)).unwrap();
        prop_assert!(infer_types(&p).is_ok());
        prop_assert_eq!(p.num_subgraphs(), report.num_subgraphs);
        let out = eval(&p, &input);
        prop_assert!(reference.bit_eq(&out), "partitioned output diverged");
    }

    /// With full support the whole (connected) graph collapses into
    /// exactly one external subgraph and no host calls remain.
    #[test]
    fn full_support_offloads_everything(
        choices in prop::collection::vec(0u8..=255, 1..16),
        seed in 0u64..10_000,
    ) {
        let (m, input) = random_graph(&choices, seed);
        let (p, report) = partition_graph(&m, &MaskSupport(0xFF)).unwrap();
        prop_assert_eq!(report.host_calls, 0);
        prop_assert_eq!(report.num_subgraphs, 1);
        prop_assert!(eval(&m, &input).bit_eq(&eval(&p, &input)));
    }

    /// Constant folding preserves semantics.
    #[test]
    fn fold_constants_preserves_semantics(
        choices in prop::collection::vec(0u8..=255, 1..16),
        seed in 0u64..10_000,
    ) {
        let (m, input) = random_graph(&choices, seed);
        let folded = fold_constants(&m);
        prop_assert!(infer_types(&folded).is_ok());
        prop_assert!(eval(&m, &input).bit_eq(&eval(&folded, &input)));
    }

    /// Partitioning is idempotent on the host remainder: partitioning an
    /// already-partitioned module adds no new subgraphs when nothing is
    /// supported.
    #[test]
    fn repartition_with_empty_support_is_stable(
        choices in prop::collection::vec(0u8..=255, 1..12),
        mask in 0u8..=255,
        seed in 0u64..10_000,
    ) {
        let (m, _input) = random_graph(&choices, seed);
        let (p1, r1) = partition_graph(&m, &MaskSupport(mask)).unwrap();
        let (p2, r2) = partition_graph(&p1, &MaskSupport(0)).unwrap();
        prop_assert_eq!(r2.num_subgraphs, 0);
        prop_assert_eq!(p2.num_subgraphs(), r1.num_subgraphs);
    }
}
