//! MXNet frontend: `relay.frontend.from_mxnet(sym, shape, arg_params, ...)`.
//!
//! The input mirrors MXNet's artifact pair: a `symbol.json` graph — a flat
//! node list where weights appear as `"op": "null"` entries and edges are
//! `[node, output]` index pairs — plus a params dictionary. Operator
//! names and string-typed attrs (`kernel="(3, 3)"`) follow MXNet's JSON
//! conventions.

use crate::{ierr, ImportError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, var, Expr, Function, Module};
use tvmnp_relay::{ConcatAttrs, Conv2dAttrs, OpKind, Pool2dAttrs, TensorType};
use tvmnp_tensor::{DType, Tensor};

/// One node of `symbol.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MxnetNode {
    /// Operator name; `"null"` marks an input or parameter slot.
    pub op: String,
    /// Node name (parameter slots are looked up in the params dict).
    pub name: String,
    /// String-typed attributes, MXNet style (`kernel = "(3, 3)"`).
    #[serde(default)]
    pub attrs: HashMap<String, String>,
    /// Edges: `[node_index, output_index]`.
    #[serde(default)]
    pub inputs: Vec<[usize; 2]>,
}

impl MxnetNode {
    /// Convenience constructor.
    pub fn new(op: &str, name: &str, inputs: Vec<[usize; 2]>) -> Self {
        MxnetNode {
            op: op.into(),
            name: name.into(),
            attrs: HashMap::new(),
            inputs,
        }
    }

    /// Attach an attribute.
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }
}

/// A `symbol.json` graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MxnetSymbol {
    /// Flat node list.
    pub nodes: Vec<MxnetNode>,
    /// Output heads: `[node_index, output_index]`.
    pub heads: Vec<[usize; 2]>,
}

/// Parse an MXNet tuple-string attribute: `"(3, 3)"` → `[3, 3]`.
pub(crate) fn parse_tuple(s: &str) -> Result<Vec<usize>, ImportError> {
    let trimmed = s.trim().trim_start_matches('(').trim_end_matches(')');
    trimmed
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| ierr(format!("bad tuple '{s}'")))
        })
        .collect()
}

fn pair(v: &[usize], default: (usize, usize)) -> (usize, usize) {
    match v {
        [a] => (*a, *a),
        [a, b] => (*a, *b),
        _ => default,
    }
}

/// Import a symbol + params pair. `data_shape` types the `data` input.
pub fn from_mxnet(
    symbol: &MxnetSymbol,
    params: &HashMap<String, Tensor>,
    data_shape: &[usize],
) -> Result<Module, ImportError> {
    let _span = tvmnp_telemetry::span!("frontend.import", "framework" => "mxnet");
    // Value per (node, output) — all our ops are single-output.
    let mut env: HashMap<usize, Expr> = HashMap::new();
    let mut fn_params: Vec<Expr> = Vec::new();

    // Weight lookup for a `null` node: params dict by node name.
    let weight = |name: &str| -> Result<Tensor, ImportError> {
        params
            .get(name)
            .cloned()
            .ok_or_else(|| ierr(format!("params dict misses '{name}'")))
    };

    for (idx, node) in symbol.nodes.iter().enumerate() {
        let input = |k: usize| -> Result<Expr, ImportError> {
            let edge = node
                .inputs
                .get(k)
                .ok_or_else(|| ierr(format!("{}: missing input {k}", node.op)))?;
            env.get(&edge[0])
                .cloned()
                .ok_or_else(|| ierr(format!("{}: node {} not materialized", node.op, edge[0])))
        };
        let weight_in = |k: usize| -> Result<Tensor, ImportError> {
            let edge = node
                .inputs
                .get(k)
                .ok_or_else(|| ierr(format!("{}: missing weight input {k}", node.op)))?;
            let src = &symbol.nodes[edge[0]];
            if src.op != "null" {
                return Err(ierr(format!(
                    "{}: weight operand is not a null node",
                    node.op
                )));
            }
            weight(&src.name)
        };

        let out: Option<Expr> = match node.op.as_str() {
            "null" => {
                if node.name == "data" {
                    let v = var("data", TensorType::new(data_shape.to_vec(), DType::F32));
                    fn_params.push(v.clone());
                    Some(v)
                } else {
                    // Parameter slot: consumed via weight_in by its users.
                    None
                }
            }
            "Convolution" => {
                let kernel = parse_tuple(node.attr("kernel").unwrap_or("(1, 1)"))?;
                let stride = parse_tuple(node.attr("stride").unwrap_or("(1, 1)"))?;
                let pad = parse_tuple(node.attr("pad").unwrap_or("(0, 0)"))?;
                let dilate = parse_tuple(node.attr("dilate").unwrap_or("(1, 1)"))?;
                let groups: usize = node
                    .attr("num_group")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| ierr("bad num_group"))?;
                let _ = kernel;
                let (ph, pw) = pair(&pad, (0, 0));
                let attrs = Conv2dAttrs {
                    strides: pair(&stride, (1, 1)),
                    padding: (ph, pw, ph, pw),
                    dilation: pair(&dilate, (1, 1)),
                    groups,
                };
                let no_bias = node.attr("no_bias").unwrap_or("False") == "True";
                let conv = builder::conv2d(input(0)?, weight_in(1)?, attrs);
                Some(if no_bias {
                    conv
                } else {
                    builder::bias_add(conv, weight_in(2)?)
                })
            }
            "BatchNorm" => {
                let eps: f32 = node
                    .attr("eps")
                    .unwrap_or("0.001")
                    .parse()
                    .map_err(|_| ierr("bad eps"))?;
                Some(builder::batch_norm(
                    input(0)?,
                    weight_in(1)?,
                    weight_in(2)?,
                    weight_in(3)?,
                    weight_in(4)?,
                    eps,
                ))
            }
            "Activation" => {
                let act = node.attr("act_type").unwrap_or("relu");
                Some(match act {
                    "relu" => builder::relu(input(0)?),
                    "sigmoid" => builder::sigmoid(input(0)?),
                    "tanh" => call(OpKind::Tanh, vec![input(0)?]),
                    other => return Err(ierr(format!("unmapped act_type '{other}'"))),
                })
            }
            "LeakyReLU" => {
                let slope: f32 = node
                    .attr("slope")
                    .unwrap_or("0.25")
                    .parse()
                    .map_err(|_| ierr("bad slope"))?;
                Some(builder::leaky_relu(input(0)?, slope))
            }
            "Pooling" => {
                let kernel = pair(
                    &parse_tuple(node.attr("kernel").unwrap_or("(2, 2)"))?,
                    (2, 2),
                );
                let stride = pair(
                    &parse_tuple(node.attr("stride").unwrap_or("(2, 2)"))?,
                    kernel,
                );
                let pad = pair(&parse_tuple(node.attr("pad").unwrap_or("(0, 0)"))?, (0, 0));
                let global = node.attr("global_pool").unwrap_or("False") == "True";
                let pool_type = node.attr("pool_type").unwrap_or("max");
                Some(if global {
                    builder::global_avg_pool2d(input(0)?)
                } else {
                    let attrs = Pool2dAttrs {
                        kernel,
                        strides: stride,
                        padding: (pad.0, pad.1, pad.0, pad.1),
                        count_include_pad: false,
                    };
                    match pool_type {
                        "max" => builder::max_pool2d(input(0)?, attrs),
                        "avg" => builder::avg_pool2d(input(0)?, attrs),
                        other => return Err(ierr(format!("unmapped pool_type '{other}'"))),
                    }
                })
            }
            "FullyConnected" => {
                // MXNet FC weights are [units, in]; input flattens implicitly.
                let x = builder::batch_flatten(input(0)?);
                let no_bias = node.attr("no_bias").unwrap_or("False") == "True";
                let d = builder::dense(x, weight_in(1)?);
                Some(if no_bias {
                    d
                } else {
                    builder::bias_add(d, weight_in(2)?)
                })
            }
            "Flatten" => Some(builder::batch_flatten(input(0)?)),
            "Concat" => {
                let dim: usize = node
                    .attr("dim")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| ierr("bad dim"))?;
                let parts = node
                    .inputs
                    .iter()
                    .map(|e| {
                        env.get(&e[0])
                            .cloned()
                            .ok_or_else(|| ierr(format!("Concat: node {} missing", e[0])))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(call(OpKind::Concatenate(ConcatAttrs { axis: dim }), parts))
            }
            "elemwise_add" | "_plus" => Some(builder::add(input(0)?, input(1)?)),
            "elemwise_mul" => Some(builder::multiply(input(0)?, input(1)?)),
            "softmax" | "SoftmaxOutput" => Some(builder::softmax(input(0)?)),
            "Dropout" => Some(builder::dropout(input(0)?)),
            other => return Err(ierr(format!("unmapped MXNet op '{other}'"))),
        };
        if let Some(e) = out {
            env.insert(idx, e);
        }
    }

    let mut outs = symbol
        .heads
        .iter()
        .map(|h| {
            env.get(&h[0])
                .cloned()
                .ok_or_else(|| ierr(format!("head {} missing", h[0])))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let body = match outs.len() {
        0 => return Err(ierr("MXNet symbol lists no heads (field 'heads' is empty)")),
        1 => outs
            .pop()
            .ok_or_else(|| ierr("MXNet head vanished while assembling outputs"))?,
        _ => tvmnp_relay::expr::tuple(outs),
    };
    let module = Module::from_main(Function::new(fn_params, body));
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

    fn lenet_style() -> (MxnetSymbol, HashMap<String, Tensor>) {
        let mut rng = TensorRng::new(201);
        let mut params = HashMap::new();
        params.insert(
            "conv0_weight".to_string(),
            rng.uniform_f32([8, 1, 3, 3], -0.4, 0.4),
        );
        params.insert("conv0_bias".to_string(), rng.uniform_f32([8], -0.1, 0.1));
        params.insert(
            "fc0_weight".to_string(),
            rng.uniform_f32([10, 8 * 13 * 13], -0.1, 0.1),
        );
        params.insert("fc0_bias".to_string(), rng.uniform_f32([10], -0.1, 0.1));
        let symbol = MxnetSymbol {
            nodes: vec![
                MxnetNode::new("null", "data", vec![]),
                MxnetNode::new("null", "conv0_weight", vec![]),
                MxnetNode::new("null", "conv0_bias", vec![]),
                MxnetNode::new("Convolution", "conv0", vec![[0, 0], [1, 0], [2, 0]])
                    .with_attr("kernel", "(3, 3)")
                    .with_attr("num_filter", "8"),
                MxnetNode::new("Activation", "relu0", vec![[3, 0]]).with_attr("act_type", "relu"),
                MxnetNode::new("Pooling", "pool0", vec![[4, 0]])
                    .with_attr("kernel", "(2, 2)")
                    .with_attr("pool_type", "max"),
                MxnetNode::new("null", "fc0_weight", vec![]),
                MxnetNode::new("null", "fc0_bias", vec![]),
                MxnetNode::new("FullyConnected", "fc0", vec![[5, 0], [6, 0], [7, 0]])
                    .with_attr("num_hidden", "10"),
                MxnetNode::new("SoftmaxOutput", "softmax", vec![[8, 0]]),
            ],
            heads: vec![[9, 0]],
        };
        (symbol, params)
    }

    #[test]
    fn imports_and_runs_lenet() {
        let (symbol, params) = lenet_style();
        let m = from_mxnet(&symbol, &params, &[1, 1, 28, 28]).unwrap();
        let mut rng = TensorRng::new(202);
        let mut inputs = Map::new();
        inputs.insert(
            "data".to_string(),
            rng.uniform_f32([1, 1, 28, 28], -1.0, 1.0),
        );
        let out = run_module(&m, &inputs).unwrap();
        assert_eq!(out.shape().dims(), &[1, 10]);
        let s: f32 = out.as_f32().unwrap().iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn tuple_attr_parsing() {
        assert_eq!(parse_tuple("(3, 3)").unwrap(), vec![3, 3]);
        assert_eq!(parse_tuple("(1,)").unwrap(), vec![1]);
        assert_eq!(parse_tuple("(2, 2, 2)").unwrap(), vec![2, 2, 2]);
        assert!(parse_tuple("(a, b)").is_err());
    }

    #[test]
    fn missing_param_rejected() {
        let (symbol, mut params) = lenet_style();
        params.remove("fc0_weight");
        assert!(from_mxnet(&symbol, &params, &[1, 1, 28, 28]).is_err());
    }

    #[test]
    fn global_pooling_maps() {
        let mut rng = TensorRng::new(203);
        let mut params = HashMap::new();
        params.insert("w".to_string(), rng.uniform_f32([4, 2, 1, 1], -0.5, 0.5));
        let symbol = MxnetSymbol {
            nodes: vec![
                MxnetNode::new("null", "data", vec![]),
                MxnetNode::new("null", "w", vec![]),
                MxnetNode::new("Convolution", "c", vec![[0, 0], [1, 0]])
                    .with_attr("no_bias", "True"),
                MxnetNode::new("Pooling", "gap", vec![[2, 0]])
                    .with_attr("global_pool", "True")
                    .with_attr("pool_type", "avg"),
            ],
            heads: vec![[3, 0]],
        };
        let m = from_mxnet(&symbol, &params, &[1, 2, 8, 8]).unwrap();
        let mut inputs = Map::new();
        inputs.insert("data".to_string(), Tensor::zeros_f32([1, 2, 8, 8]));
        let out = run_module(&m, &inputs).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 1, 1]);
    }

    #[test]
    fn unmapped_op_rejected() {
        let symbol = MxnetSymbol {
            nodes: vec![
                MxnetNode::new("null", "data", vec![]),
                MxnetNode::new("RNN", "r", vec![[0, 0]]),
            ],
            heads: vec![[1, 0]],
        };
        let e = from_mxnet(&symbol, &HashMap::new(), &[1, 4]).unwrap_err();
        assert!(e.0.contains("RNN"));
    }
}
