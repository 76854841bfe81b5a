//! Operator attribute structs.
//!
//! QNN attributes deliberately follow Relay's *operator-oriented* scheme:
//! the quantization parameters of the inputs and output ride on the call
//! site of the `qnn.*` op, not on the tensors. The NeuroPilot converter
//! (paper §3.3) re-derives per-tensor parameters from these.

use serde::{Deserialize, Serialize};
use tvmnp_tensor::{DType, QuantParams};

/// `nn.conv2d` / `qnn.conv2d` spatial attributes and `nn.max_pool2d` /
/// `nn.avg_pool2d` attributes are the kernels' parameter structs: one
/// record from the call through Neuron IR to the kernel.
pub use tvmnp_tensor::kernels::{Conv2dParams as Conv2dAttrs, Pool2dParams as Pool2dAttrs};

/// `nn.batch_norm` attributes (inference form; returns a single tensor).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchNormAttrs {
    /// Variance stabilizer.
    pub epsilon: f32,
}

/// `nn.leaky_relu` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakyReluAttrs {
    /// Negative-slope coefficient.
    pub alpha: f32,
}

/// `clip` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClipAttrs {
    /// Lower bound.
    pub min: f32,
    /// Upper bound.
    pub max: f32,
}

/// `reshape` attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReshapeAttrs {
    /// Target shape (fully static).
    pub new_shape: Vec<usize>,
}

/// `transpose` attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransposeAttrs {
    /// Axis permutation.
    pub axes: Vec<usize>,
}

/// `concatenate` / `qnn.concatenate` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConcatAttrs {
    /// Axis to join along.
    pub axis: usize,
}

/// `nn.pad` attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PadAttrs {
    /// Per-dimension (before, after).
    pub pads: Vec<(usize, usize)>,
    /// Fill value (real domain).
    pub value: f32,
}

/// `strided_slice` attributes (unit strides).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceAttrs {
    /// Inclusive begin per dimension.
    pub begin: Vec<usize>,
    /// Exclusive end per dimension.
    pub end: Vec<usize>,
}

/// `image.resize2d` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resize2dAttrs {
    /// Target height.
    pub out_h: usize,
    /// Target width.
    pub out_w: usize,
    /// `true` = bilinear, `false` = nearest.
    pub bilinear: bool,
}

/// `mean` attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeanAttrs {
    /// Axes reduced away (keepdims = false).
    pub axes: Vec<usize>,
}

/// `qnn.quantize` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantizeAttrs {
    /// Output quantization parameters.
    pub out: QuantParams,
    /// Output storage type.
    pub out_dtype: DType,
}

/// `qnn.dequantize` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DequantizeAttrs {
    /// Input quantization parameters.
    pub input: QuantParams,
}

/// `qnn.requantize` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequantizeAttrs {
    /// Input quantization parameters.
    pub input: QuantParams,
    /// Output quantization parameters.
    pub output: QuantParams,
    /// Output storage type.
    pub out_dtype: DType,
}

/// `qnn.conv2d` attributes: spatial attrs + operator-oriented quant params.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QnnConv2dAttrs {
    /// Spatial attributes (shared with the float op).
    pub conv: Conv2dAttrs,
    /// Input activation quantization.
    pub input_q: QuantParams,
    /// Weight quantization.
    pub weight_q: QuantParams,
    /// Output activation quantization.
    pub output_q: QuantParams,
    /// Output storage type.
    pub out_dtype: DType,
}

/// `qnn.dense` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QnnDenseAttrs {
    /// Input activation quantization.
    pub input_q: QuantParams,
    /// Weight quantization.
    pub weight_q: QuantParams,
    /// Output activation quantization.
    pub output_q: QuantParams,
    /// Output storage type.
    pub out_dtype: DType,
}

/// `qnn.add` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QnnAddAttrs {
    /// Left operand quantization.
    pub lhs_q: QuantParams,
    /// Right operand quantization.
    pub rhs_q: QuantParams,
    /// Output quantization.
    pub output_q: QuantParams,
    /// Output storage type.
    pub out_dtype: DType,
}

/// `qnn.concatenate` attributes: per-input params plus output params.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QnnConcatAttrs {
    /// Join axis.
    pub axis: usize,
    /// Quantization of each input, in order.
    pub input_qs: Vec<QuantParams>,
    /// Output quantization.
    pub output_q: QuantParams,
}
