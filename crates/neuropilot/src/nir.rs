//! Neuron IR: the tensor-oriented graph NeuroPilot's compiler consumes.
//!
//! The representational contrast with Relay QNN is the point of paper
//! §3.3: in Relay, quantization parameters ride on `qnn.*` *operators*;
//! in Neuron IR **every tensor** carries its own `(scale, zero_point)`.
//! [`NeuronTensor::quant`] is therefore a first-class field here, and
//! [`NeuronOpKind`] has no quantization attributes at all — a quantized
//! convolution is just `Conv2d` whose operand tensors are quantized.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tvmnp_hwsim::{WorkItem, WorkKind};
use tvmnp_tensor::{DType, QuantParams, Shape, Tensor};

/// Index of a tensor within its [`NeuronGraph`].
pub type TensorId = usize;

/// One tensor slot of a Neuron network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuronTensor {
    /// Diagnostic name.
    pub name: String,
    /// Static shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
    /// Per-tensor quantization parameters (the tensor-oriented scheme).
    pub quant: Option<QuantParams>,
    /// Constant payload (weights/bias); `None` for activations. Serialized
    /// with the graph so exported artifacts carry their weights (§4.5);
    /// shared, so cloning a graph does not copy them.
    pub data: Option<Arc<Tensor>>,
}

impl NeuronTensor {
    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.shape.num_elements() * self.dtype.size_bytes()
    }

    /// Whether this slot is a baked-in constant.
    pub fn is_const(&self) -> bool {
        self.data.is_some()
    }
}

/// Operator vocabulary of Neuron IR.
///
/// Quantized and float variants share one opcode; the operand tensors'
/// dtypes/quant params select the arithmetic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NeuronOpKind {
    /// 2-D convolution.
    Conv2d {
        /// Stride (h, w).
        strides: (usize, usize),
        /// Padding (top, left, bottom, right).
        padding: (usize, usize, usize, usize),
        /// Dilation (h, w).
        dilation: (usize, usize),
        /// Feature groups.
        groups: usize,
    },
    /// Fully connected layer.
    FullyConnected,
    /// Per-channel bias add.
    BiasAdd,
    /// Max pooling.
    MaxPool2d {
        /// Window (h, w).
        kernel: (usize, usize),
        /// Stride (h, w).
        strides: (usize, usize),
        /// Padding (top, left, bottom, right).
        padding: (usize, usize, usize, usize),
    },
    /// Average pooling.
    AvgPool2d {
        /// Window (h, w).
        kernel: (usize, usize),
        /// Stride (h, w).
        strides: (usize, usize),
        /// Padding (top, left, bottom, right).
        padding: (usize, usize, usize, usize),
    },
    /// Global average pooling.
    GlobalAvgPool2d,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU.
    LeakyRelu {
        /// Negative slope.
        alpha: f32,
    },
    /// Clamp to `[min, max]`.
    Clip {
        /// Lower bound.
        min: f32,
        /// Upper bound.
        max: f32,
    },
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softmax over the last axis.
    Softmax,
    /// Element-wise add.
    Add,
    /// Element-wise multiply.
    Mul,
    /// Element-wise maximum.
    Max,
    /// Static reshape.
    Reshape {
        /// Target shape.
        new_shape: Vec<usize>,
    },
    /// Axis permutation.
    Transpose {
        /// Permutation.
        axes: Vec<usize>,
    },
    /// Concatenation.
    Concat {
        /// Join axis.
        axis: usize,
    },
    /// Constant padding.
    Pad {
        /// Per-dim (before, after).
        pads: Vec<(usize, usize)>,
        /// Fill value (real domain).
        value: f32,
    },
    /// Collapse all but the batch dim.
    BatchFlatten,
    /// Float → quantized.
    Quantize,
    /// Quantized → float.
    Dequantize,
    /// Quantized rescale.
    Requantize,
}

impl NeuronOpKind {
    /// Stable opcode name for diagnostics and support matrices.
    pub fn name(&self) -> &'static str {
        match self {
            NeuronOpKind::Conv2d { .. } => "CONV_2D",
            NeuronOpKind::FullyConnected => "FULLY_CONNECTED",
            NeuronOpKind::BiasAdd => "BIAS_ADD",
            NeuronOpKind::MaxPool2d { .. } => "MAX_POOL_2D",
            NeuronOpKind::AvgPool2d { .. } => "AVERAGE_POOL_2D",
            NeuronOpKind::GlobalAvgPool2d => "GLOBAL_AVERAGE_POOL_2D",
            NeuronOpKind::Relu => "RELU",
            NeuronOpKind::LeakyRelu { .. } => "LEAKY_RELU",
            NeuronOpKind::Clip { .. } => "CLIP",
            NeuronOpKind::Sigmoid => "LOGISTIC",
            NeuronOpKind::Tanh => "TANH",
            NeuronOpKind::Softmax => "SOFTMAX",
            NeuronOpKind::Add => "ADD",
            NeuronOpKind::Mul => "MUL",
            NeuronOpKind::Max => "MAXIMUM",
            NeuronOpKind::Reshape { .. } => "RESHAPE",
            NeuronOpKind::Transpose { .. } => "TRANSPOSE",
            NeuronOpKind::Concat { .. } => "CONCATENATION",
            NeuronOpKind::Pad { .. } => "PAD",
            NeuronOpKind::BatchFlatten => "FLATTEN",
            NeuronOpKind::Quantize => "QUANTIZE",
            NeuronOpKind::Dequantize => "DEQUANTIZE",
            NeuronOpKind::Requantize => "REQUANTIZE",
        }
    }

    /// Whether this op is MAC-dominated (for the planner's cost heuristic).
    pub fn is_mac_heavy(&self) -> bool {
        matches!(
            self,
            NeuronOpKind::Conv2d { .. } | NeuronOpKind::FullyConnected
        )
    }
}

/// One operation node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuronOp {
    /// Opcode + attributes.
    pub kind: NeuronOpKind,
    /// Input tensor ids, in operator order.
    pub inputs: Vec<TensorId>,
    /// Output tensor ids.
    pub outputs: Vec<TensorId>,
}

/// A complete Neuron network: tensors + ops in topological order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NeuronGraph {
    /// All tensor slots.
    pub tensors: Vec<NeuronTensor>,
    /// Ops in execution order.
    pub ops: Vec<NeuronOp>,
    /// Graph input tensor ids (activations fed by the caller).
    pub inputs: Vec<TensorId>,
    /// Graph output tensor ids.
    pub outputs: Vec<TensorId>,
}

impl NeuronGraph {
    /// Add a tensor slot, returning its id.
    pub fn add_tensor(&mut self, t: NeuronTensor) -> TensorId {
        self.tensors.push(t);
        self.tensors.len() - 1
    }

    /// Add an op node.
    pub fn add_op(&mut self, op: NeuronOp) {
        self.ops.push(op);
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Validate structural invariants: ids in range, ops topologically
    /// ordered (an op's activation inputs are graph inputs, constants, or
    /// outputs of earlier ops), one output per op, every quantized tensor
    /// carries params.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined: Vec<bool> = vec![false; self.tensors.len()];
        for &i in &self.inputs {
            if i >= self.tensors.len() {
                return Err(format!("input id {i} out of range"));
            }
            defined[i] = true;
        }
        for (i, t) in self.tensors.iter().enumerate() {
            if t.is_const() {
                defined[i] = true;
            }
            if t.dtype.is_quantized() && t.quant.is_none() {
                return Err(format!(
                    "tensor {i} ('{}') is {} but carries no quantization parameters",
                    t.name, t.dtype
                ));
            }
        }
        for (k, op) in self.ops.iter().enumerate() {
            for &i in &op.inputs {
                if i >= self.tensors.len() {
                    return Err(format!("op {k} input id {i} out of range"));
                }
                if !defined[i] {
                    return Err(format!(
                        "op {k} ({}) reads tensor {i} before it is defined",
                        op.kind.name()
                    ));
                }
            }
            if op.outputs.len() != 1 {
                let n = op.outputs.len();
                return Err(format!("op {k} ({}) has {n} outputs", op.kind.name()));
            }
            for &o in &op.outputs {
                if o >= self.tensors.len() {
                    return Err(format!("op {k} output id {o} out of range"));
                }
                defined[o] = true;
            }
        }
        for &o in &self.outputs {
            if o >= self.tensors.len() || !defined[o] {
                return Err(format!("graph output {o} is never defined"));
            }
        }
        Ok(())
    }
}

/// Estimate the device-neutral work of one Neuron op.
pub fn work_item(graph: &NeuronGraph, op: &NeuronOp) -> WorkItem {
    let out = &graph.tensors[op.outputs[0]];
    let out_elems = out.shape.num_elements() as u64;
    let bytes_in: u64 = op
        .inputs
        .iter()
        .map(|&i| graph.tensors[i].size_bytes() as u64)
        .sum();
    let bytes_out = out.size_bytes() as u64;
    let int8 = out.dtype.is_quantized()
        || op
            .inputs
            .first()
            .map(|&i| graph.tensors[i].dtype.is_quantized())
            .unwrap_or(false);
    let (macs, kind) = match &op.kind {
        NeuronOpKind::Conv2d { groups, .. } => {
            let w = &graph.tensors[op.inputs[1]];
            let wd = w.shape.dims();
            // per output element: (C/groups) * kh * kw MACs.
            let per = (wd[1] * wd[2] * wd[3]) as u64;
            let _ = groups;
            (out_elems * per, WorkKind::MacHeavy)
        }
        NeuronOpKind::FullyConnected => {
            let w = &graph.tensors[op.inputs[1]];
            (out_elems * w.shape.dims()[1] as u64, WorkKind::MacHeavy)
        }
        NeuronOpKind::MaxPool2d { kernel, .. } | NeuronOpKind::AvgPool2d { kernel, .. } => (
            out_elems * (kernel.0 * kernel.1) as u64,
            WorkKind::Reduction,
        ),
        NeuronOpKind::GlobalAvgPool2d => {
            let x = &graph.tensors[op.inputs[0]];
            (x.shape.num_elements() as u64, WorkKind::Reduction)
        }
        NeuronOpKind::Softmax => (4 * out_elems, WorkKind::Reduction),
        NeuronOpKind::Reshape { .. }
        | NeuronOpKind::Transpose { .. }
        | NeuronOpKind::Concat { .. }
        | NeuronOpKind::Pad { .. }
        | NeuronOpKind::BatchFlatten => (0, WorkKind::DataMovement),
        _ => (out_elems, WorkKind::Elementwise),
    };
    WorkItem {
        macs,
        bytes_in,
        bytes_out,
        int8,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(name: &str, shape: [usize; 2]) -> NeuronTensor {
        NeuronTensor {
            name: name.into(),
            shape: shape.into(),
            dtype: DType::F32,
            quant: None,
            data: None,
        }
    }

    #[test]
    fn build_and_validate() {
        let mut g = NeuronGraph::default();
        let x = g.add_tensor(act("x", [1, 4]));
        let y = g.add_tensor(act("y", [1, 4]));
        g.inputs = vec![x];
        g.outputs = vec![y];
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Relu,
            inputs: vec![x],
            outputs: vec![y],
        });
        assert!(g.validate().is_ok());
        assert_eq!(g.num_ops(), 1);
    }

    #[test]
    fn use_before_def_detected() {
        let mut g = NeuronGraph::default();
        let x = g.add_tensor(act("x", [1, 4]));
        let y = g.add_tensor(act("y", [1, 4]));
        g.inputs = vec![];
        g.outputs = vec![y];
        g.add_op(NeuronOp {
            kind: NeuronOpKind::Relu,
            inputs: vec![x],
            outputs: vec![y],
        });
        assert!(g.validate().is_err());
    }

    #[test]
    fn quantized_tensor_requires_params() {
        let mut g = NeuronGraph::default();
        let x = g.add_tensor(NeuronTensor {
            name: "x".into(),
            shape: [1, 4].into(),
            dtype: DType::U8,
            quant: None,
            data: None,
        });
        g.inputs = vec![x];
        g.outputs = vec![x];
        assert!(
            g.validate().is_err(),
            "tensor-oriented IR demands per-tensor params"
        );
    }

    #[test]
    fn opcode_names() {
        assert_eq!(NeuronOpKind::Sigmoid.name(), "LOGISTIC");
        assert!(NeuronOpKind::FullyConnected.is_mac_heavy());
        assert!(!NeuronOpKind::Relu.is_mac_heavy());
    }
}
