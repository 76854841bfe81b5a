//! PyTorch frontend: `relay.frontend.from_pytorch(scripted_model, shape_list)`.
//!
//! The input is a TorchScript-style *traced graph*: a flat list of
//! `aten::*` nodes over `%value` names, with weights held in a state
//! dict — the artifact `torch.jit.trace` produces in the paper's
//! Listing 2 flow.

use crate::{ierr, ImportError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::{ConcatAttrs, Conv2dAttrs, LeakyReluAttrs, OpKind, Pool2dAttrs, TensorType};
use tvmnp_tensor::{DType, Tensor};

/// One traced `aten::*` node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TorchNode {
    /// Operator name (`aten::conv2d`, `aten::relu`, ...).
    pub op: String,
    /// Input value names (`%x`, `%1`, ...). Weight operands reference the
    /// state dict by parameter name instead (`conv1.weight`).
    pub inputs: Vec<String>,
    /// Output value name.
    pub output: String,
    /// Integer attributes (strides, padding, ...), op-specific.
    pub int_attrs: HashMap<String, Vec<i64>>,
    /// Float attributes (eps, negative_slope, ...).
    pub float_attrs: HashMap<String, f64>,
}

impl TorchNode {
    /// Convenience constructor.
    pub fn new(op: &str, inputs: &[&str], output: &str) -> Self {
        TorchNode {
            op: op.to_string(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            output: output.to_string(),
            int_attrs: HashMap::new(),
            float_attrs: HashMap::new(),
        }
    }

    /// Attach an integer-list attribute.
    pub fn with_ints(mut self, key: &str, v: Vec<i64>) -> Self {
        self.int_attrs.insert(key.to_string(), v);
        self
    }

    /// Attach a float attribute.
    pub fn with_float(mut self, key: &str, v: f64) -> Self {
        self.float_attrs.insert(key.to_string(), v);
        self
    }
}

/// A traced TorchScript module: graph + state dict.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TracedModule {
    /// Nodes in trace order.
    pub nodes: Vec<TorchNode>,
    /// Graph input value names.
    pub inputs: Vec<String>,
    /// Graph output value name.
    pub output: String,
    /// State dict: parameter name → tensor.
    pub state_dict: HashMap<String, Tensor>,
}

fn pair(v: &[i64], what: &str) -> Result<(usize, usize), ImportError> {
    match v {
        [a] => Ok((*a as usize, *a as usize)),
        [a, b] => Ok((*a as usize, *b as usize)),
        _ => Err(ierr(format!("expected 1 or 2 ints for {what}, got {v:?}"))),
    }
}

/// Import a traced module. `shape_list` gives `(input_name, shape)` pairs
/// as in TVM's `from_pytorch`; inputs are float32 `NCHW`.
pub fn from_pytorch(
    traced: &TracedModule,
    shape_list: &[(String, Vec<usize>)],
) -> Result<Module, ImportError> {
    let _span = tvmnp_telemetry::span!("frontend.import", "framework" => "pytorch");
    let mut env: HashMap<String, Expr> = HashMap::new();
    let mut params: Vec<Expr> = Vec::new();
    for name in &traced.inputs {
        let (_, shape) = shape_list
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| ierr(format!("no shape for input '{name}'")))?;
        let v = var(name.clone(), TensorType::new(shape.clone(), DType::F32));
        env.insert(name.clone(), v.clone());
        params.push(v);
    }

    let weight = |name: &str| -> Result<Tensor, ImportError> {
        traced
            .state_dict
            .get(name)
            .cloned()
            .ok_or_else(|| ierr(format!("state dict misses '{name}'")))
    };

    for node in &traced.nodes {
        let name = |i: usize| -> Result<&String, ImportError> {
            (node.inputs.get(i)).ok_or_else(|| ierr(format!("{}: missing input {i}", node.op)))
        };
        let input = |i: usize| -> Result<Expr, ImportError> {
            let name = name(i)?;
            env.get(name)
                .cloned()
                .ok_or_else(|| ierr(format!("{}: unknown value '{name}'", node.op)))
        };
        let param = |i: usize| weight(name(i)?);
        // The optional bias of conv2d and linear: absent or named "".
        let bias = node.inputs.get(2).filter(|n| !n.is_empty());
        let ints = |key: &str| node.int_attrs.get(key).cloned();

        let out: Expr = match node.op.as_str() {
            "aten::conv2d" => {
                let x = input(0)?;
                let w = param(1)?;
                let strides = pair(&ints("stride").unwrap_or(vec![1, 1]), "stride")?;
                let (ph, pw) = pair(&ints("padding").unwrap_or(vec![0, 0]), "padding")?;
                let dilation = pair(&ints("dilation").unwrap_or(vec![1, 1]), "dilation")?;
                let groups = ints("groups").and_then(|v| v.first().copied()).unwrap_or(1) as usize;
                let attrs = Conv2dAttrs {
                    strides,
                    padding: (ph, pw, ph, pw),
                    dilation,
                    groups,
                };
                let conv = builder::conv2d(x, w, attrs);
                match bias {
                    Some(b) => builder::bias_add(conv, weight(b)?),
                    None => conv,
                }
            }
            "aten::batch_norm" => {
                let x = input(0)?;
                let eps = node.float_attrs.get("eps").copied().unwrap_or(1e-5) as f32;
                builder::batch_norm(x, param(1)?, param(2)?, param(3)?, param(4)?, eps)
            }
            "aten::relu" => builder::relu(input(0)?),
            "aten::leaky_relu" => {
                let alpha = node
                    .float_attrs
                    .get("negative_slope")
                    .copied()
                    .unwrap_or(0.01) as f32;
                call(OpKind::LeakyRelu(LeakyReluAttrs { alpha }), vec![input(0)?])
            }
            "aten::sigmoid" => builder::sigmoid(input(0)?),
            "aten::tanh" => call(OpKind::Tanh, vec![input(0)?]),
            "aten::max_pool2d" => {
                let kernel = pair(
                    &ints("kernel_size").ok_or_else(|| ierr("max_pool2d needs kernel_size"))?,
                    "kernel",
                )?;
                let strides = match ints("stride") {
                    Some(v) if !v.is_empty() => pair(&v, "stride")?,
                    _ => kernel,
                };
                let (ph, pw) = pair(&ints("padding").unwrap_or(vec![0, 0]), "padding")?;
                let attrs = Pool2dAttrs {
                    kernel,
                    strides,
                    padding: (ph, pw, ph, pw),
                    count_include_pad: false,
                };
                builder::max_pool2d(input(0)?, attrs)
            }
            "aten::avg_pool2d" => {
                let kernel = pair(
                    &ints("kernel_size").ok_or_else(|| ierr("avg_pool2d needs kernel_size"))?,
                    "kernel",
                )?;
                let strides = match ints("stride") {
                    Some(v) if !v.is_empty() => pair(&v, "stride")?,
                    _ => kernel,
                };
                let (ph, pw) = pair(&ints("padding").unwrap_or(vec![0, 0]), "padding")?;
                let attrs = Pool2dAttrs {
                    kernel,
                    strides,
                    padding: (ph, pw, ph, pw),
                    count_include_pad: false,
                };
                builder::avg_pool2d(input(0)?, attrs)
            }
            "aten::adaptive_avg_pool2d" => {
                // Traces in the showcase always target (1, 1).
                builder::global_avg_pool2d(input(0)?)
            }
            "aten::cat" => {
                let dim = ints("dim").and_then(|v| v.first().copied()).unwrap_or(1) as usize;
                let parts = node
                    .inputs
                    .iter()
                    .map(|n| {
                        env.get(n)
                            .cloned()
                            .ok_or_else(|| ierr(format!("cat: unknown '{n}'")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                call(OpKind::Concatenate(ConcatAttrs { axis: dim }), parts)
            }
            "aten::add" => builder::add(input(0)?, input(1)?),
            "aten::mul" => builder::multiply(input(0)?, input(1)?),
            "aten::flatten" => builder::batch_flatten(input(0)?),
            "aten::linear" => {
                let x = input(0)?;
                let w = param(1)?;
                let d = builder::dense(x, w);
                match bias {
                    Some(b) => builder::bias_add(d, weight(b)?),
                    None => d,
                }
            }
            "aten::dropout" => builder::dropout(input(0)?),
            "aten::softmax" => builder::softmax(input(0)?),
            other => return Err(ierr(format!("unmapped aten op '{other}'"))),
        };
        env.insert(node.output.clone(), out);
    }

    let body = env
        .get(&traced.output)
        .cloned()
        .ok_or_else(|| ierr(format!("output value '{}' never produced", traced.output)))?;
    let module = Module::from_main(Function::new(params, body));
    tvmnp_relay::infer_types(&module)
        .map_err(|e| ierr(format!("imported module ill-typed: {e}")))?;
    Ok(module)
}

/// Sanity check: `nn.BatchNorm2d` parameters for one channel count.
pub fn batch_norm_entry(
    state: &mut HashMap<String, Tensor>,
    prefix: &str,
    gamma: Tensor,
    beta: Tensor,
    mean: Tensor,
    var: Tensor,
) {
    state.insert(format!("{prefix}.weight"), gamma);
    state.insert(format!("{prefix}.bias"), beta);
    state.insert(format!("{prefix}.running_mean"), mean);
    state.insert(format!("{prefix}.running_var"), var);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::interp::run_module;
    use tvmnp_tensor::rng::TensorRng;

    fn traced_cnn() -> TracedModule {
        let mut rng = TensorRng::new(51);
        let mut state = HashMap::new();
        state.insert(
            "conv1.weight".into(),
            rng.uniform_f32([4, 3, 3, 3], -0.4, 0.4),
        );
        state.insert("conv1.bias".into(), rng.uniform_f32([4], -0.1, 0.1));
        state.insert(
            "fc.weight".into(),
            rng.uniform_f32([7, 4 * 4 * 4], -0.2, 0.2),
        );
        TracedModule {
            nodes: vec![
                TorchNode::new("aten::conv2d", &["%x", "conv1.weight", "conv1.bias"], "%1")
                    .with_ints("stride", vec![1, 1])
                    .with_ints("padding", vec![1, 1]),
                TorchNode::new("aten::relu", &["%1"], "%2"),
                TorchNode::new("aten::max_pool2d", &["%2"], "%3")
                    .with_ints("kernel_size", vec![2, 2]),
                TorchNode::new("aten::flatten", &["%3"], "%4"),
                TorchNode::new("aten::linear", &["%4", "fc.weight"], "%5"),
                TorchNode::new("aten::softmax", &["%5"], "%out"),
            ],
            inputs: vec!["%x".into()],
            output: "%out".into(),
            state_dict: state,
        }
    }

    #[test]
    fn imports_and_runs() {
        let traced = traced_cnn();
        let m = from_pytorch(&traced, &[("%x".into(), vec![1, 3, 8, 8])]).unwrap();
        let mut rng = TensorRng::new(52);
        let mut inputs = HashMap::new();
        inputs.insert("%x".to_string(), rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0));
        let out = run_module(&m, &inputs).unwrap();
        assert_eq!(out.shape().dims(), &[1, 7]);
        let sum: f32 = out.as_f32().unwrap().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn a_node_short_of_operands_is_an_import_error() {
        let mut traced = traced_cnn();
        traced.nodes[0] = TorchNode::new("aten::conv2d", &["%x"], "%1");
        let err = from_pytorch(&traced, &[("%x".into(), vec![1, 3, 8, 8])]).unwrap_err();
        assert!(err.0.contains("aten::conv2d: missing input 1"), "{err}");
    }

    #[test]
    fn missing_weight_rejected() {
        let mut traced = traced_cnn();
        traced.state_dict.remove("fc.weight");
        assert!(from_pytorch(&traced, &[("%x".into(), vec![1, 3, 8, 8])]).is_err());
    }

    #[test]
    fn missing_shape_rejected() {
        let traced = traced_cnn();
        assert!(from_pytorch(&traced, &[]).is_err());
    }

    #[test]
    fn unmapped_op_rejected() {
        let mut traced = traced_cnn();
        traced
            .nodes
            .push(TorchNode::new("aten::einsum", &["%out"], "%bad"));
        traced.output = "%bad".into();
        let e = from_pytorch(&traced, &[("%x".into(), vec![1, 3, 8, 8])]).unwrap_err();
        assert!(e.0.contains("einsum"));
    }

    #[test]
    fn batch_norm_roundtrip() {
        let mut rng = TensorRng::new(53);
        let mut state = HashMap::new();
        state.insert("c.weight".into(), rng.uniform_f32([2, 2, 1, 1], -0.5, 0.5));
        batch_norm_entry(
            &mut state,
            "bn",
            rng.uniform_f32([2], 0.9, 1.1),
            rng.uniform_f32([2], -0.1, 0.1),
            rng.uniform_f32([2], -0.1, 0.1),
            rng.uniform_f32([2], 0.9, 1.1),
        );
        let traced = TracedModule {
            nodes: vec![
                TorchNode::new("aten::conv2d", &["%x", "c.weight"], "%1"),
                TorchNode::new(
                    "aten::batch_norm",
                    &[
                        "%1",
                        "bn.weight",
                        "bn.bias",
                        "bn.running_mean",
                        "bn.running_var",
                    ],
                    "%2",
                )
                .with_float("eps", 1e-5),
            ],
            inputs: vec!["%x".into()],
            output: "%2".into(),
            state_dict: state,
        };
        let m = from_pytorch(&traced, &[("%x".into(), vec![1, 2, 4, 4])]).unwrap();
        // Contains an unfused batch_norm — the op NeuroPilot lacks.
        assert!(tvmnp_relay::visit::topo_order(&m.main().body)
            .iter()
            .any(|e| e.op().map(|o| o.name() == "nn.batch_norm").unwrap_or(false)));
    }
}
