//! Property tests: Relay→Neuron conversion and planned execution preserve
//! semantics on randomly generated NP-supported graphs, conversion and the
//! lift back to Relay are inverses, and the ledger pricing a plan always
//! satisfies its structural invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use tvmnp_hwsim::{CostEntry, CostModel, CostRole, DeviceKind};
use tvmnp_neuropilot::convert::relay_op;
use tvmnp_neuropilot::{convert_function, plan_op_level, CompiledNetwork, Planner, TargetPolicy};
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::interp::run_module;
use tvmnp_relay::visit::topo_order;
use tvmnp_relay::{
    Conv2dAttrs, DequantizeAttrs, OpKind, QnnConv2dAttrs, QuantizeAttrs, TensorType,
};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::{DType, QuantParams, Tensor};

/// Random graph over the NP-supported float op set.
fn random_supported_graph(choices: &[u8], seed: u64) -> (Function, Tensor) {
    let mut rng = TensorRng::new(seed);
    let x = var("x", TensorType::f32([1, 4, 8, 8]));
    let mut nodes: Vec<Expr> = vec![x.clone()];
    for (i, &c) in choices.iter().enumerate() {
        let pick = |k: usize| nodes[(c as usize + k * 5 + i) % nodes.len()].clone();
        let new = match c % 7 {
            0 => builder::relu(pick(0)),
            1 => builder::sigmoid(pick(0)),
            2 => call(OpKind::Tanh, vec![pick(0)]),
            3 => builder::add(pick(0), pick(1)),
            4 => builder::multiply(pick(0), pick(1)),
            5 => builder::conv2d(
                pick(0),
                rng.uniform_f32([4, 4, 3, 3], -0.3, 0.3),
                Conv2dAttrs::same(1),
            ),
            _ => builder::max_pool2d(
                pick(0),
                tvmnp_relay::Pool2dAttrs {
                    kernel: (3, 3),
                    strides: (1, 1),
                    padding: (1, 1, 1, 1),
                    count_include_pad: false,
                },
            ),
        };
        nodes.push(new);
    }
    let body = nodes.last().unwrap().clone();
    let input = rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0);
    (Function::new(vec![x], body), input)
}

/// quantize → `depth` × (qnn.conv2d → max_pool2d) → dequantize. The pool
/// between convs is quantization-transparent, so it exercises §3.3
/// propagation.
fn quantized_chain(depth: usize, seed: u64) -> Function {
    let mut rng = TensorRng::new(seed);
    let qp = QuantParams::new(0.03, 128);
    let qw = QuantParams::new(0.01, 128);
    let x = var("x", TensorType::f32([1, 4, 8, 8]));
    let mut e = call(
        OpKind::QnnQuantize(QuantizeAttrs {
            out: qp,
            out_dtype: DType::U8,
        }),
        vec![x.clone()],
    );
    for _ in 0..depth {
        let w = rng.uniform_quantized([4, 4, 3, 3], DType::U8, qw);
        e = call(
            OpKind::QnnConv2d(QnnConv2dAttrs {
                conv: Conv2dAttrs::same(1),
                input_q: qp,
                weight_q: qw,
                output_q: qp,
                out_dtype: DType::U8,
            }),
            vec![e, tvmnp_relay::expr::constant(w)],
        );
        e = builder::max_pool2d(
            e,
            tvmnp_relay::Pool2dAttrs {
                kernel: (3, 3),
                strides: (1, 1),
                padding: (1, 1, 1, 1),
                count_include_pad: false,
            },
        );
    }
    e = call(
        OpKind::QnnDequantize(DequantizeAttrs { input: qp }),
        vec![e],
    );
    Function::new(vec![x], e)
}

/// Every op of `convert_function(f)` lifts to exactly the `OpKind` of the
/// Relay call it came from, quantization parameters included. The Neuron
/// runtime evaluates the lifted ops with the interpreter's own `eval_op`,
/// so this — not a bit comparison — is what checks conversion, §3.3
/// propagation and the lift independently of the shared kernels.
fn lifts_back_to_its_calls(f: &Function) -> Result<(), TestCaseError> {
    let graph = convert_function(f).unwrap();
    let calls: Vec<OpKind> = (topo_order(&f.body).iter())
        .filter_map(|e| e.op().cloned())
        .collect();
    prop_assert_eq!(graph.ops.len(), calls.len());
    for (op, call) in graph.ops.iter().zip(&calls) {
        prop_assert_eq!(&relay_op(&graph, op).unwrap(), call);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conversion + any policy's planned execution is bit-identical to the
    /// Relay interpreter.
    #[test]
    fn conversion_roundtrip_bit_exact(
        choices in prop::collection::vec(0u8..=255, 1..16),
        seed in 0u64..10_000,
        policy_pick in 0usize..4,
    ) {
        let (f, input) = random_supported_graph(&choices, seed);
        let module = Module::from_main(Function::new(f.params.clone(), f.body.clone()));
        let mut ins = HashMap::new();
        ins.insert("x".to_string(), input.clone());
        let reference = run_module(&module, &ins).unwrap();

        let graph = convert_function(&f).unwrap();
        let policy = TargetPolicy::ALL[policy_pick];
        let net = CompiledNetwork::compile(graph, policy, CostModel::default()).unwrap();
        let (outs, t) = net.execute(&[input]).unwrap();
        prop_assert!(outs[0].bit_eq(&reference), "policy {policy} diverged");
        prop_assert!(t > 0.0);
    }

    /// Conversion then lift is the identity on the float op set.
    #[test]
    fn float_ops_lift_back_to_their_calls(
        choices in prop::collection::vec(0u8..=255, 1..16),
        seed in 0u64..10_000,
    ) {
        lifts_back_to_its_calls(&random_supported_graph(&choices, seed).0)?;
    }

    /// Conversion then lift is the identity on quantized chains: every
    /// `qnn.*` attribute comes back off the tensors it was stamped on.
    #[test]
    fn quantized_chains_lift_back_to_their_calls(depth in 1usize..6, seed in 0u64..10_000) {
        lifts_back_to_its_calls(&quantized_chain(depth, seed))?;
    }

    /// Plan invariants, read off the ledger that prices the plan: one
    /// kernel per op, in op order, on its placement's device (the CPU for
    /// fallbacks); one dispatch per maximal run of equal placement; one
    /// transfer per tensor that crosses devices, sized by that tensor.
    #[test]
    fn plan_structural_invariants(
        choices in prop::collection::vec(0u8..=255, 1..16),
        seed in 0u64..10_000,
        policy_pick in 0usize..4,
    ) {
        let (f, _) = random_supported_graph(&choices, seed);
        let graph = convert_function(&f).unwrap();
        let policy = TargetPolicy::ALL[policy_pick];
        let plan = Planner::plan(&graph, policy).unwrap();
        prop_assert_eq!(plan.placements.len(), graph.ops.len());
        let cost = CostModel::default();
        let net = CompiledNetwork::from_plan(graph.clone(), plan.clone(), cost.clone());
        let entries = |role| net.ledger().iter().filter(move |e| e.role == role);

        let kernels: Vec<_> = entries(CostRole::Kernel).collect();
        prop_assert_eq!(kernels.len(), graph.ops.len());
        for (i, (k, p)) in kernels.iter().zip(&plan.placements).enumerate() {
            prop_assert_eq!((k.node, k.label), (i, graph.ops[i].kind.name()));
            let device = if p.fallback { DeviceKind::Cpu } else { p.device };
            prop_assert_eq!(k.device, device);
        }

        let mut runs: Vec<DeviceKind> = Vec::new();
        for p in &plan.placements {
            if runs.last() != Some(&p.device) {
                runs.push(p.device);
            }
        }
        let dispatches: Vec<_> = entries(CostRole::Dispatch).map(|e| (e.node, e.device)).collect();
        prop_assert_eq!(dispatches, runs.into_iter().enumerate().collect::<Vec<_>>());

        // Producer/consumer mismatches in op order, then the host boundary:
        // graph inputs read off the CPU, graph outputs produced off it.
        let device = |i: usize| plan.placements[i].device;
        let producer = |t| graph.ops.iter().position(|op| op.outputs.contains(&t));
        let mut crossing = Vec::new();
        for (i, op) in graph.ops.iter().enumerate() {
            let crosses = |&&t: &&usize| producer(t).is_some_and(|p| device(p) != device(i));
            crossing.extend(op.inputs.iter().filter(crosses));
        }
        crossing.extend(graph.inputs.iter().filter(|&&t| {
            (0..graph.ops.len()).any(|i| graph.ops[i].inputs.contains(&t) && device(i) != DeviceKind::Cpu)
        }));
        crossing.extend(graph.outputs.iter().filter(|&&t| {
            producer(t).is_some_and(|p| device(p) != DeviceKind::Cpu)
        }));
        let bytes = |t: usize| graph.tensors[t].size_bytes();
        let want: Vec<CostEntry> = (crossing.iter().enumerate())
            .map(|(c, &t)| CostEntry::transfer(&cost, c, "transfer", CostRole::Transfer, DeviceKind::Cpu, bytes(t)))
            .collect();
        let got: Vec<CostEntry> = entries(CostRole::Transfer).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// The op-level search never plans worse than the fixed CPU/APU policies
    /// under the same cost model.
    #[test]
    fn op_level_dominates_fixed_policies(
        choices in prop::collection::vec(0u8..=255, 1..12),
        seed in 0u64..10_000,
    ) {
        let (f, _) = random_supported_graph(&choices, seed);
        let graph = convert_function(&f).unwrap();
        let cost = CostModel::default();
        let op_plan = plan_op_level(&graph, &cost).unwrap();
        let t_op = CompiledNetwork::from_plan(graph.clone(), op_plan, cost.clone())
            .estimate_time_us();
        for policy in [TargetPolicy::CpuOnly, TargetPolicy::ApuPrefer, TargetPolicy::CpuApu] {
            let fixed = Planner::plan(&graph, policy).unwrap();
            let t_fixed =
                CompiledNetwork::from_plan(graph.clone(), fixed, cost.clone()).estimate_time_us();
            prop_assert!(
                t_op <= t_fixed,
                "op-level {t_op:.1} vs {policy} {t_fixed:.1}"
            );
        }
    }

    /// Quant propagation totality: converting any quantized chain leaves no
    /// quantized tensor without parameters (validated inside convert).
    #[test]
    fn quantized_chains_validate(depth in 1usize..6, seed in 0u64..10_000) {
        let graph = convert_function(&quantized_chain(depth, seed)).unwrap();
        for t in &graph.tensors {
            if t.dtype.is_quantized() {
                prop_assert!(t.quant.is_some(), "tensor '{}' lost its params", t.name);
            }
        }
    }
}
