//! Seeded inputs shared by the workloads and the layer probes: the six
//! framework-side model descriptions (one per frontend) and the four
//! showcase models.

use std::collections::HashMap;
use tvm_neuropilot::frontends::darknet::{from_darknet, DarknetNet};
use tvm_neuropilot::frontends::keras::{from_keras, KerasModel};
use tvm_neuropilot::frontends::mxnet::{from_mxnet, MxnetNode, MxnetSymbol};
use tvm_neuropilot::frontends::onnx::{from_onnx, AttrValue, OnnxModel, OnnxNode, ValueInfo};
use tvm_neuropilot::frontends::pytorch::{from_pytorch, TracedModule};
use tvm_neuropilot::frontends::tflite::{from_tflite, TfliteModel};
use tvm_neuropilot::frontends::ImportError;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::relay::Module;
use tvm_neuropilot::tensor::rng::TensorRng;
use tvm_neuropilot::tensor::Tensor;

/// The four showcase models, in the order `expected.rs` lists them.
pub fn showcase_models(seed: u64) -> Vec<Model> {
    vec![
        anti_spoofing::anti_spoofing_model(seed),
        emotion::emotion_model(seed.wrapping_add(1)),
        object_detection::mobilenet_ssd_model(seed.wrapping_add(2)),
        object_detection::yolo_model(seed.wrapping_add(3)),
    ]
}

/// One framework-side description per frontend.
pub struct FrontendInputs {
    pub pytorch: TracedModule,
    pub keras: KerasModel,
    pub tflite: TfliteModel,
    pub darknet: DarknetNet,
    pub onnx: OnnxModel,
    pub mxnet: (MxnetSymbol, HashMap<String, Tensor>),
}

/// Frontend names in the order of [`FrontendInputs::import`]'s index.
pub const FRONTENDS: [&str; 6] = ["pytorch", "keras", "tflite", "darknet", "onnx", "mxnet"];

impl FrontendInputs {
    pub fn new(seed: u64) -> FrontendInputs {
        FrontendInputs {
            pytorch: anti_spoofing::traced_deepixbis(seed),
            keras: emotion::keras_emotion_model(seed.wrapping_add(1)),
            tflite: object_detection::tflite_mobilenet_ssd(seed.wrapping_add(2)),
            darknet: object_detection::darknet_yolo(seed.wrapping_add(3)),
            onnx: onnx_8_nodes(seed.wrapping_add(4)),
            mxnet: mxnet_8_nodes(seed.wrapping_add(5)),
        }
    }

    /// Run frontend `FRONTENDS[which]`.
    pub fn import(&self, which: usize) -> Result<Module, ImportError> {
        match which {
            0 => from_pytorch(&self.pytorch, &[("%x".to_string(), vec![1, 3, 32, 32])]),
            1 => from_keras(&self.keras),
            2 => from_tflite(&self.tflite),
            3 => from_darknet(&self.darknet),
            4 => from_onnx(&self.onnx),
            5 => from_mxnet(&self.mxnet.0, &self.mxnet.1, &[1, 3, 16, 16]),
            _ => unreachable!("six frontends"),
        }
    }
}

/// conv → relu → maxpool → conv → relu → global-avg-pool → flatten → gemm.
fn onnx_8_nodes(seed: u64) -> OnnxModel {
    let mut rng = TensorRng::new(seed);
    let mut initializers = HashMap::new();
    initializers.insert("w1".to_string(), rng.uniform_f32([8, 3, 3, 3], -0.4, 0.4));
    initializers.insert("b1".to_string(), rng.uniform_f32([8], -0.1, 0.1));
    initializers.insert("w2".to_string(), rng.uniform_f32([16, 8, 3, 3], -0.3, 0.3));
    initializers.insert("b2".to_string(), rng.uniform_f32([16], -0.1, 0.1));
    initializers.insert("fc".to_string(), rng.uniform_f32([10, 16], -0.3, 0.3));
    let pads = || AttrValue::Ints(vec![1, 1, 1, 1]);
    OnnxModel {
        nodes: vec![
            OnnxNode::new("Conv", &["x", "w1", "b1"], &["c1"]).with_attr("pads", pads()),
            OnnxNode::new("Relu", &["c1"], &["r1"]),
            OnnxNode::new("MaxPool", &["r1"], &["p1"])
                .with_attr("kernel_shape", AttrValue::Ints(vec![2, 2])),
            OnnxNode::new("Conv", &["p1", "w2", "b2"], &["c2"]).with_attr("pads", pads()),
            OnnxNode::new("Relu", &["c2"], &["r2"]),
            OnnxNode::new("GlobalAveragePool", &["r2"], &["g"]),
            OnnxNode::new("Flatten", &["g"], &["f"]),
            OnnxNode::new("Gemm", &["f", "fc"], &["y"]),
        ],
        inputs: vec![ValueInfo {
            name: "x".into(),
            shape: vec![1, 3, 16, 16],
        }],
        outputs: vec!["y".into()],
        initializers,
    }
}

/// The same shape of network as a `symbol.json` + params pair: eight
/// operator nodes over six `null` slots.
fn mxnet_8_nodes(seed: u64) -> (MxnetSymbol, HashMap<String, Tensor>) {
    let mut rng = TensorRng::new(seed);
    let mut params = HashMap::new();
    params.insert(
        "c1_weight".to_string(),
        rng.uniform_f32([8, 3, 3, 3], -0.4, 0.4),
    );
    params.insert("c1_bias".to_string(), rng.uniform_f32([8], -0.1, 0.1));
    params.insert(
        "c2_weight".to_string(),
        rng.uniform_f32([16, 8, 3, 3], -0.3, 0.3),
    );
    params.insert("c2_bias".to_string(), rng.uniform_f32([16], -0.1, 0.1));
    params.insert(
        "fc_weight".to_string(),
        rng.uniform_f32([10, 16], -0.3, 0.3),
    );
    let conv = |name: &str, inputs: Vec<[usize; 2]>, filters: &str| {
        MxnetNode::new("Convolution", name, inputs)
            .with_attr("kernel", "(3, 3)")
            .with_attr("pad", "(1, 1)")
            .with_attr("num_filter", filters)
    };
    let symbol = MxnetSymbol {
        nodes: vec![
            MxnetNode::new("null", "data", vec![]),
            MxnetNode::new("null", "c1_weight", vec![]),
            MxnetNode::new("null", "c1_bias", vec![]),
            conv("c1", vec![[0, 0], [1, 0], [2, 0]], "8"),
            MxnetNode::new("Activation", "r1", vec![[3, 0]]).with_attr("act_type", "relu"),
            MxnetNode::new("Pooling", "p1", vec![[4, 0]])
                .with_attr("kernel", "(2, 2)")
                .with_attr("pool_type", "max"),
            MxnetNode::new("null", "c2_weight", vec![]),
            MxnetNode::new("null", "c2_bias", vec![]),
            conv("c2", vec![[5, 0], [6, 0], [7, 0]], "16"),
            MxnetNode::new("Activation", "r2", vec![[8, 0]]).with_attr("act_type", "relu"),
            MxnetNode::new("Pooling", "gap", vec![[9, 0]])
                .with_attr("global_pool", "True")
                .with_attr("pool_type", "avg"),
            MxnetNode::new("null", "fc_weight", vec![]),
            MxnetNode::new("FullyConnected", "fc", vec![[10, 0], [11, 0]])
                .with_attr("num_hidden", "10")
                .with_attr("no_bias", "True"),
            MxnetNode::new("SoftmaxOutput", "softmax", vec![[12, 0]]),
        ],
        heads: vec![[13, 0]],
    };
    (symbol, params)
}
