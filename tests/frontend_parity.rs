//! Cross-frontend parity: the same network authored in four different
//! frameworks (with the same weights, stored in each framework's own
//! conventions) must import to semantically identical Relay modules —
//! the "variety of machine learning frameworks" claim of the abstract,
//! made executable.
//!
//! Network: conv 3x3 (4 filters + bias, valid) → relu → maxpool 2x2 →
//! flatten → dense(5 + bias) → softmax, on 1×1×28×28 input.

use std::collections::HashMap;
use tvm_neuropilot::frontends::keras::{from_keras, Activation, KerasLayer, KerasModel};
use tvm_neuropilot::frontends::mxnet::{from_mxnet, MxnetNode, MxnetSymbol};
use tvm_neuropilot::frontends::onnx::{from_onnx, AttrValue, OnnxModel, OnnxNode, ValueInfo};
use tvm_neuropilot::frontends::pytorch::{from_pytorch, TorchNode, TracedModule};
use tvm_neuropilot::prelude::*;
use tvm_neuropilot::tensor::kernels::transpose;
use tvm_neuropilot::tensor::rng::TensorRng;

struct Weights {
    conv_w_oihw: Tensor, // [4, 1, 3, 3]
    conv_b: Tensor,      // [4]
    fc_w: Tensor,        // [5, 4*13*13] (units, in)
    fc_b: Tensor,        // [5]
}

fn weights(seed: u64) -> Weights {
    let mut rng = TensorRng::new(seed);
    Weights {
        conv_w_oihw: rng.uniform_f32([4, 1, 3, 3], -0.4, 0.4),
        conv_b: rng.uniform_f32([4], -0.1, 0.1),
        fc_w: rng.uniform_f32([5, 4 * 13 * 13], -0.05, 0.05),
        fc_b: rng.uniform_f32([5], -0.1, 0.1),
    }
}

fn via_pytorch(w: &Weights) -> Module {
    let mut state = HashMap::new();
    state.insert("conv.weight".to_string(), w.conv_w_oihw.clone());
    state.insert("conv.bias".to_string(), w.conv_b.clone());
    state.insert("fc.weight".to_string(), w.fc_w.clone());
    state.insert("fc.bias".to_string(), w.fc_b.clone());
    let traced = TracedModule {
        nodes: vec![
            TorchNode::new("aten::conv2d", &["%x", "conv.weight", "conv.bias"], "%1"),
            TorchNode::new("aten::relu", &["%1"], "%2"),
            TorchNode::new("aten::max_pool2d", &["%2"], "%3").with_ints("kernel_size", vec![2, 2]),
            TorchNode::new("aten::flatten", &["%3"], "%4"),
            TorchNode::new("aten::linear", &["%4", "fc.weight", "fc.bias"], "%5"),
            TorchNode::new("aten::softmax", &["%5"], "%out"),
        ],
        inputs: vec!["%x".into()],
        output: "%out".into(),
        state_dict: state,
    };
    from_pytorch(&traced, &[("%x".to_string(), vec![1, 1, 28, 28])]).unwrap()
}

fn via_keras(w: &Weights) -> Module {
    // Keras stores conv kernels HWIO and dense kernels [in, units].
    let kernel_hwio = transpose(&w.conv_w_oihw, &[2, 3, 1, 0]).unwrap();
    let fc_in_units = transpose(&w.fc_w, &[1, 0]).unwrap();
    let model = KerasModel {
        input_shape: (28, 28, 1),
        layers: vec![
            KerasLayer::Conv2D {
                filters: 4,
                kernel_size: (3, 3),
                activation: Activation::Relu,
                same_padding: false,
                kernel: kernel_hwio,
                bias: w.conv_b.clone(),
            },
            KerasLayer::MaxPooling2D { pool_size: (2, 2) },
            KerasLayer::Flatten,
            KerasLayer::Dense {
                units: 5,
                activation: Activation::Softmax,
                kernel: fc_in_units,
                bias: w.fc_b.clone(),
            },
        ],
    };
    from_keras(&model).unwrap()
}

fn via_onnx(w: &Weights) -> Module {
    let mut initializers = HashMap::new();
    initializers.insert("W".to_string(), w.conv_w_oihw.clone());
    initializers.insert("B".to_string(), w.conv_b.clone());
    initializers.insert("FC".to_string(), w.fc_w.clone());
    initializers.insert("FCB".to_string(), w.fc_b.clone());
    let model = OnnxModel {
        nodes: vec![
            OnnxNode::new("Conv", &["x", "W", "B"], &["c"])
                .with_attr("pads", AttrValue::Ints(vec![0, 0, 0, 0])),
            OnnxNode::new("Relu", &["c"], &["r"]),
            OnnxNode::new("MaxPool", &["r"], &["p"])
                .with_attr("kernel_shape", AttrValue::Ints(vec![2, 2])),
            OnnxNode::new("Flatten", &["p"], &["f"]),
            OnnxNode::new("Gemm", &["f", "FC", "FCB"], &["l"]),
            OnnxNode::new("Softmax", &["l"], &["s"]),
        ],
        inputs: vec![ValueInfo {
            name: "x".into(),
            shape: vec![1, 1, 28, 28],
        }],
        outputs: vec!["s".into()],
        initializers,
    };
    from_onnx(&model).unwrap()
}

fn via_mxnet(w: &Weights) -> Module {
    let mut params = HashMap::new();
    params.insert("conv_weight".to_string(), w.conv_w_oihw.clone());
    params.insert("conv_bias".to_string(), w.conv_b.clone());
    params.insert("fc_weight".to_string(), w.fc_w.clone());
    params.insert("fc_bias".to_string(), w.fc_b.clone());
    let symbol = MxnetSymbol {
        nodes: vec![
            MxnetNode::new("null", "data", vec![]),
            MxnetNode::new("null", "conv_weight", vec![]),
            MxnetNode::new("null", "conv_bias", vec![]),
            MxnetNode::new("Convolution", "conv", vec![[0, 0], [1, 0], [2, 0]])
                .with_attr("kernel", "(3, 3)"),
            MxnetNode::new("Activation", "relu", vec![[3, 0]]).with_attr("act_type", "relu"),
            MxnetNode::new("Pooling", "pool", vec![[4, 0]])
                .with_attr("kernel", "(2, 2)")
                .with_attr("pool_type", "max"),
            MxnetNode::new("null", "fc_weight", vec![]),
            MxnetNode::new("null", "fc_bias", vec![]),
            MxnetNode::new("FullyConnected", "fc", vec![[5, 0], [6, 0], [7, 0]]),
            MxnetNode::new("softmax", "probs", vec![[8, 0]]),
        ],
        heads: vec![[9, 0]],
    };
    from_mxnet(&symbol, &params, &[1, 1, 28, 28]).unwrap()
}

/// Run a module on the shared input, whatever its input name is.
fn run(m: &Module, input: &Tensor) -> Tensor {
    let name = match &m.main().params[0].kind {
        tvm_neuropilot::relay::ExprKind::Var(v) => v.name.clone(),
        _ => panic!("param is a var"),
    };
    let mut ins = HashMap::new();
    ins.insert(name, input.clone());
    run_module(m, &ins).unwrap()
}

#[test]
fn four_frontends_agree_numerically() {
    let w = weights(12345);
    let mut rng = TensorRng::new(999);
    let input = rng.uniform_f32([1, 1, 28, 28], -1.0, 1.0);

    let reference = run(&via_pytorch(&w), &input);
    assert_eq!(reference.shape().dims(), &[1, 5]);

    for (name, module) in [
        ("keras", via_keras(&w)),
        ("onnx", via_onnx(&w)),
        ("mxnet", via_mxnet(&w)),
    ] {
        let out = run(&module, &input);
        assert!(
            reference.max_abs_diff(&out) <= 1e-5,
            "{name} diverged from pytorch: max diff {}",
            reference.max_abs_diff(&out)
        );
        assert_eq!(reference.argmax(), out.argmax(), "{name} top-1 differs");
    }
}

#[test]
fn four_frontends_partition_identically() {
    // Structural parity survives the BYOC flow: all four importers yield
    // a fully NeuroPilot-supported module that partitions into exactly
    // one subgraph.
    let w = weights(54321);
    for (name, module) in [
        ("pytorch", via_pytorch(&w)),
        ("keras", via_keras(&w)),
        ("onnx", via_onnx(&w)),
        ("mxnet", via_mxnet(&w)),
    ] {
        let (_, report) = tvm_neuropilot::nir::partition_for_nir(&module).unwrap();
        assert_eq!(report.num_subgraphs, 1, "{name}");
        assert_eq!(report.host_calls, 0, "{name}: everything offloads");
    }
}

#[test]
fn all_permutations_agree_across_frontends() {
    let w = weights(777);
    let mut rng = TensorRng::new(778);
    let input = rng.uniform_f32([1, 1, 28, 28], -1.0, 1.0);
    let cost = CostModel::default();
    let reference = run(&via_pytorch(&w), &input);

    for module in [via_keras(&w), via_onnx(&w), via_mxnet(&w)] {
        for p in [
            Permutation::TvmOnly,
            Permutation::ByocCpuApu,
            Permutation::NpApu,
        ] {
            let mut compiled = relay_build(&module, p.mode(), cost.clone()).unwrap();
            let name = match &module.main().params[0].kind {
                tvm_neuropilot::relay::ExprKind::Var(v) => v.name.clone(),
                _ => unreachable!(),
            };
            let mut ins = HashMap::new();
            ins.insert(name, input.clone());
            let (outs, _) = compiled.run(&ins).unwrap();
            assert!(reference.max_abs_diff(&outs[0]) <= 1e-5, "{p} diverged");
        }
    }
}
