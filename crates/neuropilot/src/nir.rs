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
use tvmnp_hwsim::{WorkItem, WorkKey};
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

    /// The formula [`WorkItem::price`] prices this op by: the key of the
    /// Relay operator it lifts to ([`crate::convert::relay_op`]).
    pub fn work_key(&self) -> WorkKey {
        match self {
            NeuronOpKind::Conv2d { .. } | NeuronOpKind::FullyConnected => WorkKey::Mac,
            NeuronOpKind::MaxPool2d { kernel, .. } | NeuronOpKind::AvgPool2d { kernel, .. } => {
                WorkKey::Window(kernel.0, kernel.1)
            }
            NeuronOpKind::GlobalAvgPool2d => WorkKey::ReduceInput,
            NeuronOpKind::Softmax => WorkKey::Softmax,
            NeuronOpKind::Reshape { .. }
            | NeuronOpKind::Transpose { .. }
            | NeuronOpKind::Concat { .. }
            | NeuronOpKind::Pad { .. }
            | NeuronOpKind::BatchFlatten => WorkKey::DataMovement,
            _ => WorkKey::Elementwise(1),
        }
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

    /// Per tensor, the op that writes it; `None` for inputs and constants.
    /// A result id out of range names no tensor and is skipped.
    pub fn writers(&self) -> Vec<Option<usize>> {
        let mut writer = vec![None; self.tensors.len()];
        for (i, op) in self.ops.iter().enumerate() {
            for &o in &op.outputs {
                if let Some(w) = writer.get_mut(o) {
                    *w = Some(i);
                }
            }
        }
        writer
    }

    /// The device-neutral work of `op`, priced by its kind's key.
    pub fn work(&self, op: &NeuronOp) -> WorkItem {
        let operand = |&id: &TensorId| (&self.tensors[id].shape, self.tensors[id].dtype);
        let out = operand(&op.outputs[0]);
        WorkItem::price(op.kind.work_key(), op.inputs.iter().map(operand), out)
    }

    /// Validate structural invariants: ids in range, ops topologically
    /// ordered (an op's activation inputs are graph inputs, constants, or
    /// outputs of earlier ops), one output per op, no tensor written twice
    /// or written though it is an input or constant, every quantized tensor
    /// carries params, every tensor's byte size fits a `usize`, and a
    /// convolution or fully-connected op reads an input, a weight of the
    /// rank [`WorkItem::price`] multiplies out and an optional bias.
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
            let elems = t.shape.checked_num_elements();
            if elems
                .and_then(|n| n.checked_mul(t.dtype.size_bytes()))
                .is_none()
            {
                let (name, shape) = (&t.name, &t.shape);
                return Err(format!(
                    "tensor {i} ('{name}') of shape {shape} overflows a byte size"
                ));
            }
        }
        for (k, op) in self.ops.iter().enumerate() {
            let name = op.kind.name();
            let rank = match op.kind {
                NeuronOpKind::Conv2d { .. } => 4,
                NeuronOpKind::FullyConnected => 2,
                _ => 0,
            };
            let weight = match op.inputs[..] {
                _ if rank == 0 => None,
                [_, w] | [_, w, _] => self.tensors.get(w),
                ref inputs => {
                    let n = inputs.len();
                    return Err(format!("op {k} ({name}) has {n} operands, expects 2 or 3"));
                }
            };
            if let Some(got) = weight.map(|w| w.shape.rank()).filter(|&got| got != rank) {
                return Err(format!(
                    "op {k} ({name}) weight has rank {got}, expects {rank}"
                ));
            }
            for &i in &op.inputs {
                if i >= self.tensors.len() {
                    return Err(format!("op {k} input id {i} out of range"));
                }
                if !defined[i] {
                    return Err(format!(
                        "op {k} ({name}) reads tensor {i} before it is defined"
                    ));
                }
            }
            if op.outputs.len() != 1 {
                let n = op.outputs.len();
                return Err(format!("op {k} ({name}) has {n} outputs"));
            }
            for &o in &op.outputs {
                if o >= self.tensors.len() {
                    return Err(format!("op {k} output id {o} out of range"));
                }
                if defined[o] {
                    return Err(format!(
                        "op {k} ({name}) writes tensor {o}, already defined"
                    ));
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
    }
}
