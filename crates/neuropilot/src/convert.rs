//! Relay → Neuron IR conversion (paper §3.2, Listing 1).
//!
//! The converter walks the Relay AST with a post-order DFS, keeps a
//! [`NodeEntry`] per visited expression in a `node_entry_dict`, and looks
//! up each call's conversion logic in an `op_handler_dict` keyed by the
//! Relay operator name — exactly the structure of the paper's listing:
//!
//! ```text
//! def visit_call(call):
//!     node_entry = NodeEntry()
//!     for arg in call.args: visit(arg); node_entry.inputs.add(arg.outputs)
//!     op_handler_dict[get_op_name(call)].create_op(call, node_entry)
//!     node_entry_dict[call] = node_entry
//! ```
//!
//! The §3.3 QNN flow is implemented in two parts: the `qnn.*` handlers
//! stamp the operator-declared parameters onto the operand/result tensors
//! (tensor-oriented form), and [`propagate_quant_params`] carries those
//! parameters forward *and backward* through quantization-transparent
//! non-QNN ops ("we pass the output quantization parameters directly to
//! the input and continue passing them").

use crate::error::NeuronError;
use crate::nir::{NeuronGraph, NeuronOp, NeuronOpKind, NeuronTensor, TensorId};
use crate::support::neuron_supported;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use tvmnp_relay::expr::{CallTarget, Expr, ExprKind, Function, Module};
use tvmnp_relay::infer::{infer_types, TypeMap};
use tvmnp_relay::visit::topo_order;
use tvmnp_relay::{
    ClipAttrs, ConcatAttrs, Conv2dAttrs, DequantizeAttrs, LeakyReluAttrs, OpKind, PadAttrs,
    Pool2dAttrs, QnnAddAttrs, QnnConcatAttrs, QnnConv2dAttrs, QnnDenseAttrs, QuantizeAttrs,
    RequantizeAttrs, ReshapeAttrs, TransposeAttrs,
};
use tvmnp_tensor::QuantParams;

/// Per-expression bookkeeping, as in paper Listing 1.
#[derive(Debug, Clone, Default)]
pub struct NodeEntry {
    /// Tensor ids feeding this node.
    pub inputs: Vec<TensorId>,
    /// Tensor ids this node produces.
    pub outputs: Vec<TensorId>,
}

/// Conversion context: the growing graph plus the node-entry dictionary.
struct Ctx<'a> {
    graph: NeuronGraph,
    node_entry_dict: HashMap<usize, NodeEntry>,
    types: &'a TypeMap,
}

impl Ctx<'_> {
    /// Tensor ids of each argument (first output of each arg's entry).
    fn arg_ids(&self, e: &Expr) -> Result<Vec<TensorId>, NeuronError> {
        e.args()
            .iter()
            .map(|a| {
                self.node_entry_dict
                    .get(&a.id)
                    .and_then(|en| en.outputs.first().copied())
                    .ok_or_else(|| {
                        NeuronError::Conversion(format!("argument {} not yet visited", a.label()))
                    })
            })
            .collect()
    }

    /// Allocate the activation tensor for `e`'s (single-tensor) result.
    fn new_output(
        &mut self,
        e: &Expr,
        quant: Option<QuantParams>,
    ) -> Result<TensorId, NeuronError> {
        let ty = self.types.get(&e.id).ok_or_else(|| {
            NeuronError::Conversion(format!("no inferred type for node {}", e.label()))
        })?;
        let tt = ty
            .tensor()
            .ok_or_else(|| NeuronError::Conversion(format!("{} yields a tuple", e.label())))?;
        Ok(self.graph.add_tensor(NeuronTensor {
            name: format!(
                "{}_{}",
                e.label().replace('.', "_"),
                self.graph.tensors.len()
            ),
            shape: tt.shape.clone(),
            dtype: tt.dtype,
            quant,
            data: None,
        }))
    }

    /// Set/overwrite quantization parameters of a tensor slot.
    fn set_quant(&mut self, id: TensorId, q: QuantParams) {
        let t = &mut self.graph.tensors[id];
        if t.quant.is_none() {
            t.quant = Some(q);
        }
    }

    /// Quant params currently on a slot.
    fn quant_of(&self, id: TensorId) -> Option<QuantParams> {
        self.graph.tensors[id].quant
    }

    /// Emit the op and record its entry.
    fn push(&mut self, e: &Expr, kind: NeuronOpKind, inputs: Vec<TensorId>, output: TensorId) {
        self.graph.add_op(NeuronOp {
            kind,
            inputs: inputs.clone(),
            outputs: vec![output],
        });
        self.node_entry_dict.insert(
            e.id,
            NodeEntry {
                inputs,
                outputs: vec![output],
            },
        );
    }
}

type Handler = fn(&mut Ctx, &Expr, &OpKind) -> Result<(), NeuronError>;

/// The op-handler dictionary of Listing 1: Relay op name → conversion
/// logic. Its key set, less the attributes Neuron IR cannot express, is
/// the NeuroPilot support matrix ([`neuron_supported`] asks it).
fn op_handler_dict() -> &'static HashMap<&'static str, Handler> {
    static DICT: OnceLock<HashMap<&'static str, Handler>> = OnceLock::new();
    DICT.get_or_init(|| {
        let mut d: HashMap<&'static str, Handler> = HashMap::new();
        d.insert("nn.conv2d", h_mac);
        d.insert("qnn.conv2d", h_mac);
        d.insert("nn.dense", h_mac);
        d.insert("qnn.dense", h_mac);
        d.insert("nn.bias_add", h_simple);
        d.insert("nn.relu", h_simple);
        d.insert("nn.leaky_relu", h_simple);
        d.insert("clip", h_simple);
        d.insert("sigmoid", h_simple);
        d.insert("tanh", h_simple);
        d.insert("nn.max_pool2d", h_simple);
        d.insert("nn.avg_pool2d", h_simple);
        d.insert("nn.global_avg_pool2d", h_simple);
        d.insert("nn.softmax", h_simple);
        d.insert("add", h_simple);
        d.insert("multiply", h_simple);
        d.insert("maximum", h_simple);
        d.insert("reshape", h_simple);
        d.insert("transpose", h_simple);
        d.insert("concatenate", h_simple);
        d.insert("nn.pad", h_simple);
        d.insert("nn.batch_flatten", h_simple);
        d.insert("qnn.quantize", h_qnn_unary);
        d.insert("qnn.dequantize", h_qnn_unary);
        d.insert("qnn.requantize", h_qnn_unary);
        d.insert("qnn.add", h_qnn_add);
        d.insert("qnn.concatenate", h_qnn_concat);
        d
    })
}

/// Whether the dictionary converts the Relay op named `op_name`.
pub(crate) fn has_op_handler(op_name: &str) -> bool {
    op_handler_dict().contains_key(op_name)
}

/// Map a Relay op to its Neuron opcode (attributes carried over; quant
/// attributes deliberately dropped — they move onto tensors).
fn neuron_kind(op: &OpKind) -> Result<NeuronOpKind, NeuronError> {
    Ok(match op {
        OpKind::Conv2d(a) => NeuronOpKind::Conv2d {
            strides: a.strides,
            padding: a.padding,
            dilation: a.dilation,
            groups: a.groups,
        },
        OpKind::QnnConv2d(a) => NeuronOpKind::Conv2d {
            strides: a.conv.strides,
            padding: a.conv.padding,
            dilation: a.conv.dilation,
            groups: a.conv.groups,
        },
        OpKind::Dense | OpKind::QnnDense(_) => NeuronOpKind::FullyConnected,
        OpKind::BiasAdd => NeuronOpKind::BiasAdd,
        OpKind::Relu => NeuronOpKind::Relu,
        OpKind::LeakyRelu(a) => NeuronOpKind::LeakyRelu { alpha: a.alpha },
        OpKind::Clip(a) => NeuronOpKind::Clip {
            min: a.min,
            max: a.max,
        },
        OpKind::Sigmoid => NeuronOpKind::Sigmoid,
        OpKind::Tanh => NeuronOpKind::Tanh,
        OpKind::MaxPool2d(a) => NeuronOpKind::MaxPool2d {
            kernel: a.kernel,
            strides: a.strides,
            padding: a.padding,
        },
        OpKind::AvgPool2d(a) => NeuronOpKind::AvgPool2d {
            kernel: a.kernel,
            strides: a.strides,
            padding: a.padding,
        },
        OpKind::GlobalAvgPool2d => NeuronOpKind::GlobalAvgPool2d,
        OpKind::Softmax => NeuronOpKind::Softmax,
        OpKind::Add => NeuronOpKind::Add,
        OpKind::QnnAdd(_) => NeuronOpKind::Add,
        OpKind::Multiply => NeuronOpKind::Mul,
        OpKind::Maximum => NeuronOpKind::Max,
        OpKind::Reshape(a) => NeuronOpKind::Reshape {
            new_shape: a.new_shape.clone(),
        },
        OpKind::Transpose(a) => NeuronOpKind::Transpose {
            axes: a.axes.clone(),
        },
        OpKind::Concatenate(a) => NeuronOpKind::Concat { axis: a.axis },
        OpKind::QnnConcatenate(a) => NeuronOpKind::Concat { axis: a.axis },
        OpKind::Pad(a) => NeuronOpKind::Pad {
            pads: a.pads.clone(),
            value: a.value,
        },
        OpKind::BatchFlatten => NeuronOpKind::BatchFlatten,
        OpKind::QnnQuantize(_) => NeuronOpKind::Quantize,
        OpKind::QnnDequantize(_) => NeuronOpKind::Dequantize,
        OpKind::QnnRequantize(_) => NeuronOpKind::Requantize,
        other => return Err(NeuronError::UnsupportedOp(other.name().to_string())),
    })
}

/// Lift a Neuron op back to the Relay operator it computes — the inverse
/// of the converter's opcode map. A quantized `Conv2d` / `FullyConnected` / `Add` /
/// `Concat` becomes its `qnn.*` form, and every quantization parameter is
/// read back off the operand and result tensors §3.3 stamped it on. Pools
/// average over valid taps only (`count_include_pad: false`), the one
/// behaviour Neuron IR expresses.
///
/// A graph this cannot express — an id out of range, a missing operand or
/// result, a quantized tensor without parameters — is an error.
pub fn relay_op(graph: &NeuronGraph, op: &NeuronOp) -> Result<OpKind, NeuronError> {
    let name = op.kind.name();
    let tensor = |id: &TensorId| {
        (graph.tensors.get(*id))
            .ok_or_else(|| NeuronError::Execution(format!("{name}: tensor {id} out of range")))
    };
    let operand = |i: usize| match op.inputs.get(i) {
        Some(id) => tensor(id),
        None => Err(NeuronError::Execution(format!("{name} misses operand {i}"))),
    };
    let quant = |t: &NeuronTensor| {
        t.quant.ok_or_else(|| {
            NeuronError::Execution(format!("tensor '{}' misses quant params", t.name))
        })
    };
    let out = match op.outputs.first() {
        Some(id) => tensor(id)?,
        None => return Err(NeuronError::Execution(format!("{name} has no result"))),
    };
    let pool = |kernel, strides, padding| Pool2dAttrs {
        kernel,
        strides,
        padding,
        count_include_pad: false,
    };
    Ok(match &op.kind {
        NeuronOpKind::Conv2d {
            strides,
            padding,
            dilation,
            groups,
        } => {
            let conv = Conv2dAttrs {
                strides: *strides,
                padding: *padding,
                dilation: *dilation,
                groups: *groups,
            };
            let x = operand(0)?;
            if x.dtype.is_quantized() {
                OpKind::QnnConv2d(QnnConv2dAttrs {
                    conv,
                    input_q: quant(x)?,
                    weight_q: quant(operand(1)?)?,
                    output_q: quant(out)?,
                    out_dtype: out.dtype,
                })
            } else {
                OpKind::Conv2d(conv)
            }
        }
        NeuronOpKind::FullyConnected => {
            let x = operand(0)?;
            if x.dtype.is_quantized() {
                OpKind::QnnDense(QnnDenseAttrs {
                    input_q: quant(x)?,
                    weight_q: quant(operand(1)?)?,
                    output_q: quant(out)?,
                    out_dtype: out.dtype,
                })
            } else {
                OpKind::Dense
            }
        }
        NeuronOpKind::BiasAdd => OpKind::BiasAdd,
        NeuronOpKind::MaxPool2d {
            kernel,
            strides,
            padding,
        } => OpKind::MaxPool2d(pool(*kernel, *strides, *padding)),
        NeuronOpKind::AvgPool2d {
            kernel,
            strides,
            padding,
        } => OpKind::AvgPool2d(pool(*kernel, *strides, *padding)),
        NeuronOpKind::GlobalAvgPool2d => OpKind::GlobalAvgPool2d,
        NeuronOpKind::Relu => OpKind::Relu,
        NeuronOpKind::LeakyRelu { alpha } => OpKind::LeakyRelu(LeakyReluAttrs { alpha: *alpha }),
        NeuronOpKind::Clip { min, max } => OpKind::Clip(ClipAttrs {
            min: *min,
            max: *max,
        }),
        NeuronOpKind::Sigmoid => OpKind::Sigmoid,
        NeuronOpKind::Tanh => OpKind::Tanh,
        NeuronOpKind::Softmax => OpKind::Softmax,
        NeuronOpKind::Add => {
            let a = operand(0)?;
            if a.dtype.is_quantized() {
                OpKind::QnnAdd(QnnAddAttrs {
                    lhs_q: quant(a)?,
                    rhs_q: quant(operand(1)?)?,
                    output_q: quant(out)?,
                    out_dtype: out.dtype,
                })
            } else {
                OpKind::Add
            }
        }
        NeuronOpKind::Mul => OpKind::Multiply,
        NeuronOpKind::Max => OpKind::Maximum,
        NeuronOpKind::Reshape { new_shape } => OpKind::Reshape(ReshapeAttrs {
            new_shape: new_shape.clone(),
        }),
        NeuronOpKind::Transpose { axes } => {
            OpKind::Transpose(TransposeAttrs { axes: axes.clone() })
        }
        NeuronOpKind::Concat { axis } if out.dtype.is_quantized() => {
            OpKind::QnnConcatenate(QnnConcatAttrs {
                axis: *axis,
                input_qs: (0..op.inputs.len())
                    .map(|i| quant(operand(i)?))
                    .collect::<Result<_, _>>()?,
                output_q: quant(out)?,
            })
        }
        NeuronOpKind::Concat { axis } => OpKind::Concatenate(ConcatAttrs { axis: *axis }),
        NeuronOpKind::Pad { pads, value } => OpKind::Pad(PadAttrs {
            pads: pads.clone(),
            value: *value,
        }),
        NeuronOpKind::BatchFlatten => OpKind::BatchFlatten,
        NeuronOpKind::Quantize => OpKind::QnnQuantize(QuantizeAttrs {
            out: quant(out)?,
            out_dtype: out.dtype,
        }),
        NeuronOpKind::Dequantize => OpKind::QnnDequantize(DequantizeAttrs {
            input: quant(operand(0)?)?,
        }),
        NeuronOpKind::Requantize => OpKind::QnnRequantize(RequantizeAttrs {
            input: quant(operand(0)?)?,
            output: quant(out)?,
            out_dtype: out.dtype,
        }),
    })
}

/// Generic handler: convert opcode, propagate input quant to the output
/// when the result stays quantized (§3.3 forward propagation).
fn h_simple(ctx: &mut Ctx, e: &Expr, op: &OpKind) -> Result<(), NeuronError> {
    let inputs = ctx.arg_ids(e)?;
    let out_quant = match ctx.types[&e.id].tensor() {
        Some(tt) if tt.dtype.is_quantized() => inputs.first().and_then(|&i| ctx.quant_of(i)),
        _ => None,
    };
    let out = ctx.new_output(e, out_quant)?;
    ctx.push(e, neuron_kind(op)?, inputs, out);
    Ok(())
}

/// conv2d / dense and their `qnn.*` forms: the QNN form stamps the
/// operator-declared params onto input/weight/output tensors.
fn h_mac(ctx: &mut Ctx, e: &Expr, op: &OpKind) -> Result<(), NeuronError> {
    let inputs = ctx.arg_ids(e)?;
    let qnn = match op {
        OpKind::QnnConv2d(a) => Some((a.input_q, a.weight_q, a.output_q)),
        OpKind::QnnDense(a) => Some((a.input_q, a.weight_q, a.output_q)),
        _ => None,
    };
    let out_quant = qnn.map(|(input_q, weight_q, output_q)| {
        ctx.set_quant(inputs[0], input_q);
        ctx.set_quant(inputs[1], weight_q);
        output_q
    });
    let out = ctx.new_output(e, out_quant)?;
    ctx.push(e, neuron_kind(op)?, inputs, out);
    Ok(())
}

/// qnn.quantize / qnn.dequantize / qnn.requantize.
fn h_qnn_unary(ctx: &mut Ctx, e: &Expr, op: &OpKind) -> Result<(), NeuronError> {
    let inputs = ctx.arg_ids(e)?;
    let out_quant = match op {
        OpKind::QnnQuantize(a) => Some(a.out),
        OpKind::QnnDequantize(a) => {
            ctx.set_quant(inputs[0], a.input);
            None
        }
        OpKind::QnnRequantize(a) => {
            ctx.set_quant(inputs[0], a.input);
            Some(a.output)
        }
        _ => None,
    };
    let out = ctx.new_output(e, out_quant)?;
    ctx.push(e, neuron_kind(op)?, inputs, out);
    Ok(())
}

/// qnn.add: both operand params and the result param come from the op.
fn h_qnn_add(ctx: &mut Ctx, e: &Expr, op: &OpKind) -> Result<(), NeuronError> {
    let inputs = ctx.arg_ids(e)?;
    let OpKind::QnnAdd(a) = op else {
        unreachable!("h_qnn_add on {}", op.name())
    };
    ctx.set_quant(inputs[0], a.lhs_q);
    ctx.set_quant(inputs[1], a.rhs_q);
    let out = ctx.new_output(e, Some(a.output_q))?;
    ctx.push(e, neuron_kind(op)?, inputs, out);
    Ok(())
}

/// qnn.concatenate: per-input params plus the result param.
fn h_qnn_concat(ctx: &mut Ctx, e: &Expr, op: &OpKind) -> Result<(), NeuronError> {
    let inputs = ctx.arg_ids(e)?;
    let OpKind::QnnConcatenate(a) = op else {
        unreachable!()
    };
    for (&id, &q) in inputs.iter().zip(&a.input_qs) {
        ctx.set_quant(id, q);
    }
    let out = ctx.new_output(e, Some(a.output_q))?;
    ctx.push(e, neuron_kind(op)?, inputs, out);
    Ok(())
}

/// Ops that neither create nor consume quantization information: their
/// input and output share parameters, in both directions.
pub fn quant_transparent(kind: &NeuronOpKind) -> bool {
    matches!(
        kind,
        NeuronOpKind::MaxPool2d { .. }
            | NeuronOpKind::AvgPool2d { .. }
            | NeuronOpKind::GlobalAvgPool2d
            | NeuronOpKind::Relu
            | NeuronOpKind::Clip { .. }
            | NeuronOpKind::Reshape { .. }
            | NeuronOpKind::Transpose { .. }
            | NeuronOpKind::Concat { .. }
            | NeuronOpKind::Pad { .. }
            | NeuronOpKind::BatchFlatten
    )
}

/// §3.3 propagation: sweep forward and backward, copying parameters across
/// quantization-transparent ops until no tensor changes. Bounded by the op
/// count, so it always terminates.
pub fn propagate_quant_params(graph: &mut NeuronGraph) {
    for _ in 0..graph.ops.len() + 1 {
        let mut changed = false;
        // Forward: input params flow to outputs.
        for i in 0..graph.ops.len() {
            if !quant_transparent(&graph.ops[i].kind) {
                continue;
            }
            let in_q = graph.ops[i]
                .inputs
                .first()
                .and_then(|&t| graph.tensors[t].quant);
            if let Some(q) = in_q {
                for &o in &graph.ops[i].outputs.clone() {
                    if graph.tensors[o].dtype.is_quantized() && graph.tensors[o].quant.is_none() {
                        graph.tensors[o].quant = Some(q);
                        changed = true;
                    }
                }
            }
        }
        // Backward: output params flow to inputs ("we pass the output
        // quantization parameters directly to the input").
        for i in (0..graph.ops.len()).rev() {
            if !quant_transparent(&graph.ops[i].kind) {
                continue;
            }
            let out_q = graph.ops[i]
                .outputs
                .first()
                .and_then(|&t| graph.tensors[t].quant);
            if let Some(q) = out_q {
                for &t in &graph.ops[i].inputs.clone() {
                    if graph.tensors[t].dtype.is_quantized() && graph.tensors[t].quant.is_none() {
                        graph.tensors[t].quant = Some(q);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Convert a (partitioned) Relay function into a Neuron graph.
pub fn convert_function(func: &Function) -> Result<NeuronGraph, NeuronError> {
    let _span = tvmnp_telemetry::span!("neuropilot.convert");
    // Type the function in isolation.
    let module = Module::from_main(Function::new(func.params.clone(), func.body.clone()));
    let types: TypeMap =
        infer_types(&module).map_err(|e| NeuronError::Conversion(e.to_string()))?;

    let mut ctx = Ctx {
        graph: NeuronGraph::default(),
        node_entry_dict: HashMap::new(),
        types: &types,
    };

    // Parameters become graph inputs, in declared order (paper visit_var).
    for p in &func.params {
        if let ExprKind::Var(v) = &p.kind {
            let id = ctx.graph.add_tensor(NeuronTensor {
                name: v.name.clone(),
                shape: v.ty.shape.clone(),
                dtype: v.ty.dtype,
                quant: None,
                data: None,
            });
            ctx.graph.inputs.push(id);
            ctx.node_entry_dict.insert(
                p.id,
                NodeEntry {
                    inputs: vec![id],
                    outputs: vec![id],
                },
            );
        } else {
            return Err(NeuronError::Conversion(
                "function parameter is not a Var".into(),
            ));
        }
    }

    // Post-order DFS over the AST (Listing 1's traversal).
    for e in topo_order(&func.body) {
        if ctx.node_entry_dict.contains_key(&e.id) {
            continue;
        }
        match &e.kind {
            ExprKind::Var(v) => {
                return Err(NeuronError::Conversion(format!(
                    "free variable '{}'",
                    v.name
                )));
            }
            ExprKind::Constant(c) => {
                let id = ctx.graph.add_tensor(NeuronTensor {
                    name: format!("const_{}", ctx.graph.tensors.len()),
                    shape: c.value.shape().clone(),
                    dtype: c.value.dtype(),
                    quant: c.value.quant(),
                    data: Some(Arc::new(c.value.clone())),
                });
                ctx.node_entry_dict.insert(
                    e.id,
                    NodeEntry {
                        inputs: vec![id],
                        outputs: vec![id],
                    },
                );
            }
            ExprKind::Tuple(fields) => {
                // visit_tuple: gather the fields' outputs.
                let mut outputs = Vec::new();
                for f in fields {
                    outputs.extend(ctx.node_entry_dict[&f.id].outputs.clone());
                }
                ctx.node_entry_dict.insert(
                    e.id,
                    NodeEntry {
                        inputs: outputs.clone(),
                        outputs,
                    },
                );
            }
            ExprKind::TupleGetItem(t, i) => {
                let outs = &ctx.node_entry_dict[&t.id].outputs;
                let picked = *outs.get(*i).ok_or_else(|| {
                    NeuronError::Conversion(format!("tuple index {i} out of range"))
                })?;
                ctx.node_entry_dict.insert(
                    e.id,
                    NodeEntry {
                        inputs: vec![picked],
                        outputs: vec![picked],
                    },
                );
            }
            ExprKind::Call(call) => match &call.target {
                CallTarget::Op(op) => {
                    let handler = (op_handler_dict().get(op.name()))
                        .filter(|_| neuron_supported(op))
                        .ok_or_else(|| NeuronError::UnsupportedOp(op.name().to_string()))?;
                    handler(&mut ctx, &e, op)?;
                }
                CallTarget::Global(g) => {
                    return Err(NeuronError::Conversion(format!(
                        "nested external call @{g} cannot be converted"
                    )));
                }
            },
        }
    }

    ctx.graph.outputs = ctx.node_entry_dict[&func.body.id].outputs.clone();
    propagate_quant_params(&mut ctx.graph);
    ctx.graph.validate().map_err(NeuronError::Conversion)?;
    Ok(ctx.graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::builder;
    use tvmnp_relay::expr::{call, var};
    use tvmnp_relay::{
        Conv2dAttrs, DequantizeAttrs, Pool2dAttrs, QnnConv2dAttrs, QuantizeAttrs, TensorType,
    };
    use tvmnp_tensor::rng::TensorRng;
    use tvmnp_tensor::DType;

    #[test]
    fn converts_small_cnn() {
        let mut rng = TensorRng::new(5);
        let x = var("x", TensorType::f32([1, 3, 8, 8]));
        let w = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let y = builder::softmax(builder::batch_flatten(builder::relu(builder::conv2d(
            x.clone(),
            w,
            Conv2dAttrs::same(1),
        ))));
        let f = Function::new(vec![x], y);
        let g = convert_function(&f).unwrap();
        assert_eq!(g.num_ops(), 4);
        assert_eq!(g.inputs.len(), 1);
        assert_eq!(g.outputs.len(), 1);
        assert_eq!(g.ops[0].kind.name(), "CONV_2D");
        assert_eq!(g.ops.last().unwrap().kind.name(), "SOFTMAX");
    }

    #[test]
    fn unsupported_op_rejected() {
        let x = var("x", TensorType::f32([1, 4]));
        let y = call(OpKind::Exp, vec![x.clone()]);
        let f = Function::new(vec![x], y);
        match convert_function(&f) {
            Err(NeuronError::UnsupportedOp(op)) => assert_eq!(op, "exp"),
            other => panic!("expected UnsupportedOp, got {other:?}"),
        }
    }

    #[test]
    fn qnn_conv_params_become_tensor_oriented() {
        let mut rng = TensorRng::new(6);
        let qx = QuantParams::new(0.02, 128);
        let qw = QuantParams::new(0.005, 0);
        let qy = QuantParams::new(0.05, 100);
        let x = var("x", TensorType::new([1, 3, 8, 8], DType::U8));
        let w = rng.uniform_quantized([4, 3, 3, 3], DType::I8, qw);
        let attrs = QnnConv2dAttrs {
            conv: Conv2dAttrs::same(1),
            input_q: qx,
            weight_q: qw,
            output_q: qy,
            out_dtype: DType::U8,
        };
        let y = call(
            OpKind::QnnConv2d(attrs),
            vec![x.clone(), tvmnp_relay::expr::constant(w)],
        );
        let f = Function::new(vec![x], y);
        let g = convert_function(&f).unwrap();
        // Input var tensor got the operator's input params.
        assert_eq!(g.tensors[g.inputs[0]].quant, Some(qx));
        // Output tensor carries the operator's output params.
        assert_eq!(g.tensors[g.outputs[0]].quant, Some(qy));
        // The op itself carries no quantization attributes at all.
        assert!(matches!(g.ops[0].kind, NeuronOpKind::Conv2d { .. }));
    }

    #[test]
    fn quant_propagates_through_non_qnn_ops() {
        // quantize -> max_pool2d (non-QNN) -> dequantize: the pool's output
        // tensor must inherit the params so dequantize's input matches.
        let qp = QuantParams::new(0.1, 3);
        let x = var("x", TensorType::f32([1, 1, 4, 4]));
        let q = call(
            OpKind::QnnQuantize(QuantizeAttrs {
                out: qp,
                out_dtype: DType::U8,
            }),
            vec![x.clone()],
        );
        let pool = call(OpKind::MaxPool2d(Pool2dAttrs::square(2)), vec![q]);
        let d = call(
            OpKind::QnnDequantize(DequantizeAttrs { input: qp }),
            vec![pool],
        );
        let f = Function::new(vec![x], d);
        let g = convert_function(&f).unwrap();
        // Every quantized tensor in the graph carries params (validated),
        // and the pool output specifically inherited qp.
        let pool_out = g.ops[1].outputs[0];
        assert_eq!(g.tensors[pool_out].quant, Some(qp));
    }

    #[test]
    fn backward_propagation_fills_quantized_graph_inputs() {
        // A quantized graph input flows through reshape before any QNN op
        // declares parameters; backward propagation must fill it.
        let qp = QuantParams::new(0.25, 10);
        let x = var("x", TensorType::new([1, 8], DType::U8));
        let r = builder::reshape(x.clone(), vec![1, 8]);
        let d = call(
            OpKind::QnnDequantize(DequantizeAttrs { input: qp }),
            vec![r],
        );
        let f = Function::new(vec![x], d);
        let g = convert_function(&f).unwrap();
        assert_eq!(g.tensors[g.inputs[0]].quant, Some(qp));
    }

    #[test]
    fn constants_are_captured_with_payload() {
        let mut rng = TensorRng::new(8);
        let x = var("x", TensorType::f32([1, 4]));
        let w = rng.uniform_f32([2, 4], -1.0, 1.0);
        let y = builder::dense(x.clone(), w.clone());
        let g = convert_function(&Function::new(vec![x], y)).unwrap();
        let weight_slot = g.ops[0].inputs[1];
        assert!(g.tensors[weight_slot].is_const());
        assert!(g.tensors[weight_slot].data.as_ref().unwrap().bit_eq(&w));
    }
}
