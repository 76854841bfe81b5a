//! ONNX frontend: `relay.frontend.from_onnx(model, shape_dict)`.
//!
//! The input mirrors an ONNX protobuf: a graph of typed nodes over string
//! value names, with weights in an initializer table. ONNX is already
//! `NCHW`/`OIHW`, so no layout conversion is needed — the contrast with
//! the Keras/TFLite importers is itself framework-faithful.

use crate::{ierr, ImportError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::{ConcatAttrs, Conv2dAttrs, OpKind, Pool2dAttrs, TensorType};
use tvmnp_tensor::{DType, Tensor};

/// Attribute value of an ONNX node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Single integer.
    Int(i64),
    /// Integer list.
    Ints(Vec<i64>),
    /// Single float.
    Float(f32),
    /// String.
    Str(String),
}

/// One ONNX node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnnxNode {
    /// Operator type (`Conv`, `Relu`, `Gemm`, ...).
    pub op_type: String,
    /// Input value names (activations or initializer names).
    pub inputs: Vec<String>,
    /// Output value names.
    pub outputs: Vec<String>,
    /// Attributes.
    pub attrs: HashMap<String, AttrValue>,
}

impl OnnxNode {
    /// Convenience constructor.
    pub fn new(op_type: &str, inputs: &[&str], outputs: &[&str]) -> Self {
        OnnxNode {
            op_type: op_type.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
            attrs: HashMap::new(),
        }
    }

    /// Attach an attribute.
    pub fn with_attr(mut self, key: &str, v: AttrValue) -> Self {
        self.attrs.insert(key.into(), v);
        self
    }

    fn ints(&self, key: &str) -> Option<Vec<i64>> {
        match self.attrs.get(key) {
            Some(AttrValue::Ints(v)) => Some(v.clone()),
            Some(AttrValue::Int(v)) => Some(vec![*v]),
            _ => None,
        }
    }

    fn float(&self, key: &str, default: f32) -> f32 {
        match self.attrs.get(key) {
            Some(AttrValue::Float(v)) => *v,
            _ => default,
        }
    }
}

/// A typed graph input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueInfo {
    /// Value name.
    pub name: String,
    /// Static shape.
    pub shape: Vec<usize>,
}

/// An ONNX model (graph only; opset pinned by construction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnnxModel {
    /// Nodes in topological order.
    pub nodes: Vec<OnnxNode>,
    /// Graph inputs (excluding initializers).
    pub inputs: Vec<ValueInfo>,
    /// Graph output names.
    pub outputs: Vec<String>,
    /// Weight table.
    pub initializers: HashMap<String, Tensor>,
}

fn pair_attr(v: Option<Vec<i64>>, default: (usize, usize)) -> (usize, usize) {
    match v.as_deref() {
        Some([a]) => (*a as usize, *a as usize),
        Some([a, b]) => (*a as usize, *b as usize),
        _ => default,
    }
}

/// Import an ONNX model into Relay. Inputs are float32.
pub fn from_onnx(model: &OnnxModel) -> Result<Module, ImportError> {
    let _span = tvmnp_telemetry::span!("frontend.import", "framework" => "onnx");
    let mut env: HashMap<String, Expr> = HashMap::new();
    let mut params: Vec<Expr> = Vec::new();
    for vi in &model.inputs {
        let v = var(
            vi.name.clone(),
            TensorType::new(vi.shape.clone(), DType::F32),
        );
        env.insert(vi.name.clone(), v.clone());
        params.push(v);
    }

    let init = |name: &str| -> Result<Tensor, ImportError> {
        model
            .initializers
            .get(name)
            .cloned()
            .ok_or_else(|| ierr(format!("initializer '{name}' missing")))
    };

    for node in &model.nodes {
        let name = |i: usize| -> Result<&String, ImportError> {
            node.inputs
                .get(i)
                .ok_or_else(|| ierr(format!("{}: missing input {i}", node.op_type)))
        };
        let input = |i: usize| -> Result<Expr, ImportError> {
            let name = name(i)?;
            env.get(name)
                .cloned()
                .ok_or_else(|| ierr(format!("{}: unknown value '{name}'", node.op_type)))
        };
        let weight = |i: usize| init(name(i)?);

        let out: Expr = match node.op_type.as_str() {
            "Conv" => {
                let strides = pair_attr(node.ints("strides"), (1, 1));
                let dilation = pair_attr(node.ints("dilations"), (1, 1));
                let groups = node
                    .ints("group")
                    .and_then(|v| v.first().copied())
                    .unwrap_or(1) as usize;
                let pads = node.ints("pads").unwrap_or(vec![0, 0, 0, 0]);
                let padding = match pads.as_slice() {
                    [t, l, b, r] => (*t as usize, *l as usize, *b as usize, *r as usize),
                    [p] => (*p as usize, *p as usize, *p as usize, *p as usize),
                    _ => return Err(ierr("Conv: bad pads attribute")),
                };
                let attrs = Conv2dAttrs {
                    strides,
                    padding,
                    dilation,
                    groups,
                };
                let conv = builder::conv2d(input(0)?, weight(1)?, attrs);
                if node.inputs.len() > 2 {
                    builder::bias_add(conv, weight(2)?)
                } else {
                    conv
                }
            }
            "BatchNormalization" => {
                let eps = node.float("epsilon", 1e-5);
                builder::batch_norm(
                    input(0)?,
                    weight(1)?,
                    weight(2)?,
                    weight(3)?,
                    weight(4)?,
                    eps,
                )
            }
            "Relu" => builder::relu(input(0)?),
            "LeakyRelu" => builder::leaky_relu(input(0)?, node.float("alpha", 0.01)),
            "Sigmoid" => builder::sigmoid(input(0)?),
            "Tanh" => call(OpKind::Tanh, vec![input(0)?]),
            "Exp" => call(OpKind::Exp, vec![input(0)?]),
            "MaxPool" | "AveragePool" => {
                let kernel = pair_attr(node.ints("kernel_shape"), (2, 2));
                let strides = pair_attr(node.ints("strides"), kernel);
                let pads = node.ints("pads").unwrap_or(vec![0, 0, 0, 0]);
                let padding = match pads.as_slice() {
                    [t, l, b, r] => (*t as usize, *l as usize, *b as usize, *r as usize),
                    _ => (0, 0, 0, 0),
                };
                let attrs = Pool2dAttrs {
                    kernel,
                    strides,
                    padding,
                    count_include_pad: false,
                };
                if node.op_type == "MaxPool" {
                    builder::max_pool2d(input(0)?, attrs)
                } else {
                    builder::avg_pool2d(input(0)?, attrs)
                }
            }
            "GlobalAveragePool" => builder::global_avg_pool2d(input(0)?),
            "Concat" => {
                let axis = node
                    .ints("axis")
                    .and_then(|v| v.first().copied())
                    .unwrap_or(1) as usize;
                let parts = node
                    .inputs
                    .iter()
                    .map(|n| {
                        env.get(n)
                            .cloned()
                            .ok_or_else(|| ierr(format!("Concat: unknown value '{n}'")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                call(OpKind::Concatenate(ConcatAttrs { axis }), parts)
            }
            "Add" => builder::add(input(0)?, input(1)?),
            "Mul" => builder::multiply(input(0)?, input(1)?),
            "Flatten" => builder::batch_flatten(input(0)?),
            "Gemm" => {
                // y = x @ W^T + b; ONNX stores W as [units, in] with transB=1
                // (the standard classifier export).
                let d = builder::dense(input(0)?, weight(1)?);
                if node.inputs.len() > 2 {
                    builder::bias_add(d, weight(2)?)
                } else {
                    d
                }
            }
            "Softmax" => builder::softmax(input(0)?),
            "Dropout" => builder::dropout(input(0)?),
            other => return Err(ierr(format!("unmapped ONNX op '{other}'"))),
        };
        let output =
            (node.outputs.first()).ok_or_else(|| ierr(format!("{}: no output", node.op_type)))?;
        env.insert(output.clone(), out);
    }

    let outs = model
        .outputs
        .iter()
        .map(|n| {
            env.get(n)
                .cloned()
                .ok_or_else(|| ierr(format!("output '{n}' never produced")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let body = match <[_; 1]>::try_from(outs) {
        Ok([only]) => only,
        Err(outs) => tvmnp_relay::expr::tuple(outs),
    };
    let module = Module::from_main(Function::new(params, body));
    tvmnp_relay::infer_types(&module)
        .map_err(|e| ierr(format!("imported module ill-typed: {e}")))?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;
    use tvmnp_relay::interp::run_module;
    use tvmnp_tensor::rng::TensorRng;

    fn tiny_onnx() -> OnnxModel {
        let mut rng = TensorRng::new(91);
        let mut initializers = HashMap::new();
        initializers.insert("w1".to_string(), rng.uniform_f32([4, 3, 3, 3], -0.4, 0.4));
        initializers.insert("b1".to_string(), rng.uniform_f32([4], -0.1, 0.1));
        initializers.insert("fc_w".to_string(), rng.uniform_f32([5, 4], -0.3, 0.3));
        OnnxModel {
            nodes: vec![
                OnnxNode::new("Conv", &["x", "w1", "b1"], &["c1"])
                    .with_attr("pads", AttrValue::Ints(vec![1, 1, 1, 1])),
                OnnxNode::new("Relu", &["c1"], &["r1"]),
                OnnxNode::new("GlobalAveragePool", &["r1"], &["g1"]),
                OnnxNode::new("Flatten", &["g1"], &["f1"]),
                OnnxNode::new("Gemm", &["f1", "fc_w"], &["logits"]),
                OnnxNode::new("Softmax", &["logits"], &["probs"]),
            ],
            inputs: vec![ValueInfo {
                name: "x".into(),
                shape: vec![1, 3, 8, 8],
            }],
            outputs: vec!["probs".into()],
            initializers,
        }
    }

    #[test]
    fn imports_and_runs() {
        let m = from_onnx(&tiny_onnx()).unwrap();
        let mut rng = TensorRng::new(92);
        let mut inputs = Map::new();
        inputs.insert("x".to_string(), rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0));
        let out = run_module(&m, &inputs).unwrap();
        assert_eq!(out.shape().dims(), &[1, 5]);
        let s: f32 = out.as_f32().unwrap().iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn missing_initializer_rejected() {
        let mut m = tiny_onnx();
        m.initializers.remove("fc_w");
        assert!(from_onnx(&m).is_err());
    }

    #[test]
    fn a_node_short_of_operands_is_an_import_error() {
        let mut m = tiny_onnx();
        m.nodes[0] = OnnxNode::new("Conv", &["x"], &["c1"]);
        let err = from_onnx(&m).unwrap_err();
        assert!(err.0.contains("Conv: missing input 1"), "{err}");
        let mut m = tiny_onnx();
        m.nodes[1] = OnnxNode::new("Relu", &["c1"], &[]);
        assert!(from_onnx(&m).unwrap_err().0.contains("Relu: no output"));
    }

    #[test]
    fn unmapped_op_rejected() {
        let mut m = tiny_onnx();
        m.nodes.push(OnnxNode::new("LSTM", &["probs"], &["bad"]));
        m.outputs = vec!["bad".into()];
        assert!(from_onnx(&m).unwrap_err().0.contains("LSTM"));
    }

    #[test]
    fn single_output_graph_is_not_a_tuple() {
        let module = from_onnx(&tiny_onnx()).unwrap();
        let ty = tvmnp_relay::infer_types(&module).unwrap();
        assert!(matches!(
            ty[&module.main().body.id],
            tvmnp_relay::Type::Tensor(_)
        ));
    }

    #[test]
    fn multi_output_graph() {
        let mut m = tiny_onnx();
        m.outputs = vec!["logits".into(), "probs".into()];
        let module = from_onnx(&m).unwrap();
        let ty = tvmnp_relay::infer_types(&module).unwrap();
        assert!(matches!(
            ty[&module.main().body.id],
            tvmnp_relay::Type::Tuple(_)
        ));
    }
}
