//! The QNN flow of paper §3.3: operator-oriented Relay QNN ↔
//! tensor-oriented Neuron IR, parameter propagation through non-QNN ops,
//! and the quantized showcase model end to end.

use tvm_neuropilot::models::{object_detection, zoo};
use tvm_neuropilot::neuropilot::{convert_function, NeuronOpKind};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::relay::passes::simplify;

/// Converting a partitioned quantized subgraph moves every quantization
/// parameter onto tensors: no Neuron op carries quant attributes, every
/// quantized tensor carries params.
#[test]
fn neuron_ir_is_tensor_oriented() {
    let model = zoo::mobilenet_v1_quant(70);
    let (partitioned, _) = tvm_neuropilot::nir::partition_for_nir(&model.module).unwrap();
    let externals = partitioned.external_functions();
    assert!(!externals.is_empty());
    for name in externals {
        let func = &partitioned.functions[name];
        let graph = convert_function(func).unwrap();
        for t in &graph.tensors {
            if t.dtype.is_quantized() {
                assert!(
                    t.quant.is_some(),
                    "{name}: quantized tensor '{}' lost its parameters",
                    t.name
                );
            }
        }
        // Opcode-level check: quantized conv is plain CONV_2D.
        assert!(graph
            .ops
            .iter()
            .any(|op| matches!(op.kind, NeuronOpKind::Conv2d(_))));
    }
}

/// Parameters survive the round trip numerically: the Neuron runtime and
/// the Relay interpreter agree bit-exactly on quantized models.
#[test]
fn quantized_roundtrip_bit_exact() {
    for model in [
        zoo::mobilenet_v1_quant(71),
        zoo::mobilenet_v2_quant(72),
        zoo::inception_v3_quant(73),
    ] {
        let inputs = model.sample_inputs(74);
        let reference = run_module(&model.module, &inputs).unwrap();
        let simplified = simplify(&model.module);
        let graph = convert_function(simplified.main()).unwrap();
        let network = tvm_neuropilot::neuropilot::CompiledNetwork::compile(
            graph,
            TargetPolicy::ApuPrefer,
            CostModel::default(),
        )
        .unwrap();
        let ordered: Vec<Tensor> = vec![inputs[&model.input_name].clone()];
        let (outs, _) = network.execute(&ordered).unwrap();
        assert!(outs[0].bit_eq(&reference), "{} diverged", model.name);
    }
}

/// §3.3's propagation: non-QNN ops inside a quantized graph (pools,
/// reshapes, clips) still end up with parameters on their tensors.
#[test]
fn propagation_covers_non_qnn_ops() {
    let model = object_detection::mobilenet_ssd_model(75);
    let (partitioned, _) = tvm_neuropilot::nir::partition_for_nir(&model.module).unwrap();
    for name in partitioned.external_functions() {
        let graph = convert_function(&partitioned.functions[name]).unwrap();
        // Find quant-transparent ops and check their outputs carry params
        // whenever the tensor is quantized.
        for op in &graph.ops {
            if matches!(op.kind, NeuronOpKind::Reshape(_) | NeuronOpKind::Clip(_)) {
                for &o in &op.outputs {
                    let t = &graph.tensors[o];
                    if t.dtype.is_quantized() {
                        assert!(t.quant.is_some(), "{name}: '{}' missing params", t.name);
                    }
                }
            }
        }
    }
}

/// Propagation chains: parameters must flow through *two* consecutive
/// non-QNN ops (reshape feeding concat), not just one hop from the
/// nearest QNN producer.
#[test]
fn propagation_chains_through_reshape_then_concat() {
    use tvm_neuropilot::relay::builder;
    use tvm_neuropilot::relay::expr::{var, Function, Module};
    use tvm_neuropilot::relay::passes::quantize_with_calibration;
    use tvm_neuropilot::relay::{Conv2dAttrs, TensorType};
    use tvm_neuropilot::tensor::rng::TensorRng;

    // conv → reshape (H/W swap) → concat(·,·) on the channel axis: after
    // quantization the reshape and the concat stay plain (non-QNN) ops, so
    // the concat's parameters can only arrive via the reshape's output.
    let mut rng = TensorRng::new(78);
    let x = var("x", TensorType::f32([1, 2, 4, 6]));
    let w = rng.uniform_f32([2, 2, 3, 3], -0.5, 0.5);
    let conv = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
    let reshaped = builder::reshape(conv, vec![1, 2, 6, 4]);
    let y = builder::concatenate(vec![reshaped.clone(), reshaped], 1);
    let module = Module::from_main(Function::new(vec![x], y));

    let calib: Vec<std::collections::HashMap<String, Tensor>> = (0..2)
        .map(|i| {
            let mut rng = TensorRng::new(79 + i);
            let mut m = std::collections::HashMap::new();
            m.insert("x".to_string(), rng.uniform_f32([1, 2, 4, 6], -1.0, 1.0));
            m
        })
        .collect();
    let quantized = quantize_with_calibration(&module, &calib).unwrap();

    let (partitioned, _) = tvm_neuropilot::nir::partition_for_nir(&quantized).unwrap();
    let externals = partitioned.external_functions();
    assert!(!externals.is_empty(), "quantized chain must be offloadable");
    let mut saw_reshape = false;
    let mut saw_concat = false;
    for name in externals {
        let graph = convert_function(&partitioned.functions[name]).unwrap();
        for op in &graph.ops {
            let relevant = match op.kind {
                NeuronOpKind::Reshape(_) => {
                    saw_reshape = true;
                    true
                }
                NeuronOpKind::Concat(_) => {
                    saw_concat = true;
                    true
                }
                _ => false,
            };
            if !relevant {
                continue;
            }
            for &o in &op.outputs {
                let t = &graph.tensors[o];
                assert!(t.dtype.is_quantized(), "'{}' should be quantized", t.name);
                assert!(
                    t.quant.is_some(),
                    "{name}: '{}' lost its parameters after two-hop propagation",
                    t.name
                );
            }
        }
    }
    assert!(saw_reshape, "reshape must survive into the Neuron graph");
    assert!(saw_concat, "concat must survive into the Neuron graph");
}

/// The quantized model's artifact is much smaller than its float
/// counterpart — §4.2's motivation for the quantized MobileNet.
#[test]
fn quantized_artifact_smaller_than_float() {
    let cost = CostModel::default();
    let fm = zoo::mobilenet_v1(76);
    let qm = zoo::mobilenet_v1_quant(76);
    let (_, fa) = tvm_neuropilot::byoc::build::relay_build_with_artifact(
        &fm.module,
        TargetMode::TvmOnly,
        cost.clone(),
    )
    .unwrap();
    let (_, qa) = tvm_neuropilot::byoc::build::relay_build_with_artifact(
        &qm.module,
        TargetMode::TvmOnly,
        cost,
    )
    .unwrap();
    let (fa, qa) = (fa.unwrap(), qa.unwrap());
    assert!(
        qa.size_bytes() < fa.size_bytes(),
        "quant artifact {} must be smaller than float {}",
        qa.size_bytes(),
        fa.size_bytes()
    );
}

/// "We found that the performance was similar to the original flow"
/// (§4.2): the QNN BYOC path is at least as fast as the float path for
/// the same architecture on every NeuroPilot-backed permutation.
#[test]
fn qnn_flow_performance_not_worse() {
    let cost = CostModel::default();
    let fm = zoo::mobilenet_v2(77);
    let qm = zoo::mobilenet_v2_quant(77);
    for p in [
        Permutation::ByocCpu,
        Permutation::ByocApu,
        Permutation::ByocCpuApu,
    ] {
        let tf = measure_one(&fm.module, p, &cost).unwrap().time_ms.unwrap();
        let tq = measure_one(&qm.module, p, &cost).unwrap().time_ms.unwrap();
        assert!(tq <= tf * 1.05, "{p}: quant {tq:.3} ms vs float {tf:.3} ms");
    }
}
