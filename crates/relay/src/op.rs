//! The operator vocabulary of the IR.
//!
//! Each [`OpKind`] variant carries its attributes inline, so a `Call` node is
//! self-describing. [`OpKind::name`] yields TVM's canonical operator string —
//! the key used by the NeuroPilot converter's `op_handler_dict` (Listing 1)
//! and by the per-backend support matrices.

use crate::attrs::*;
use serde::{Deserialize, Serialize};

/// A primitive Relay operator with attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    // ---- convolution / dense -------------------------------------------
    /// 2-D convolution.
    Conv2d(Conv2dAttrs),
    /// Fully connected.
    Dense,
    /// Per-channel bias add.
    BiasAdd,
    /// Inference batch normalization.
    BatchNorm(BatchNormAttrs),
    // ---- activations ----------------------------------------------------
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU.
    LeakyRelu(LeakyReluAttrs),
    /// Value clipping.
    Clip(ClipAttrs),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Exponential.
    Exp,
    /// Square root.
    Sqrt,
    /// Negation.
    Negative,
    // ---- pooling ----------------------------------------------------------
    /// Max pooling.
    MaxPool2d(Pool2dAttrs),
    /// Average pooling.
    AvgPool2d(Pool2dAttrs),
    /// Global average pooling to 1x1.
    GlobalAvgPool2d,
    // ---- classification heads ---------------------------------------------
    /// Softmax over the last axis.
    Softmax,
    /// Log-softmax over the last axis.
    LogSoftmax,
    // ---- broadcast binary --------------------------------------------------
    /// Element-wise add.
    Add,
    /// Element-wise subtract.
    Subtract,
    /// Element-wise multiply.
    Multiply,
    /// Element-wise divide.
    Divide,
    /// Element-wise maximum.
    Maximum,
    /// Element-wise minimum.
    Minimum,
    // ---- data movement -----------------------------------------------------
    /// Static reshape.
    Reshape(ReshapeAttrs),
    /// Axis permutation.
    Transpose(TransposeAttrs),
    /// Concatenation (single-tensor args form).
    Concatenate(ConcatAttrs),
    /// Constant padding.
    Pad(PadAttrs),
    /// Unit-stride slice.
    StridedSlice(SliceAttrs),
    /// Collapse all but the batch dimension.
    BatchFlatten,
    /// Spatial resize.
    Resize2d(Resize2dAttrs),
    /// Mean reduction.
    Mean(MeanAttrs),
    /// Inference dropout (identity).
    Dropout,
    // ---- QNN dialect ---------------------------------------------------------
    /// Float → quantized.
    QnnQuantize(QuantizeAttrs),
    /// Quantized → float.
    QnnDequantize(DequantizeAttrs),
    /// Quantized rescale.
    QnnRequantize(RequantizeAttrs),
    /// Quantized convolution.
    QnnConv2d(QnnConv2dAttrs),
    /// Quantized dense.
    QnnDense(QnnDenseAttrs),
    /// Quantized add.
    QnnAdd(QnnAddAttrs),
    /// Quantized concatenate.
    QnnConcatenate(QnnConcatAttrs),
}

impl OpKind {
    /// TVM-style canonical operator name.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Conv2d(_) => "nn.conv2d",
            OpKind::Dense => "nn.dense",
            OpKind::BiasAdd => "nn.bias_add",
            OpKind::BatchNorm(_) => "nn.batch_norm",
            OpKind::Relu => "nn.relu",
            OpKind::LeakyRelu(_) => "nn.leaky_relu",
            OpKind::Clip(_) => "clip",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::Exp => "exp",
            OpKind::Sqrt => "sqrt",
            OpKind::Negative => "negative",
            OpKind::MaxPool2d(_) => "nn.max_pool2d",
            OpKind::AvgPool2d(_) => "nn.avg_pool2d",
            OpKind::GlobalAvgPool2d => "nn.global_avg_pool2d",
            OpKind::Softmax => "nn.softmax",
            OpKind::LogSoftmax => "nn.log_softmax",
            OpKind::Add => "add",
            OpKind::Subtract => "subtract",
            OpKind::Multiply => "multiply",
            OpKind::Divide => "divide",
            OpKind::Maximum => "maximum",
            OpKind::Minimum => "minimum",
            OpKind::Reshape(_) => "reshape",
            OpKind::Transpose(_) => "transpose",
            OpKind::Concatenate(_) => "concatenate",
            OpKind::Pad(_) => "nn.pad",
            OpKind::StridedSlice(_) => "strided_slice",
            OpKind::BatchFlatten => "nn.batch_flatten",
            OpKind::Resize2d(_) => "image.resize2d",
            OpKind::Mean(_) => "mean",
            OpKind::Dropout => "nn.dropout",
            OpKind::QnnQuantize(_) => "qnn.quantize",
            OpKind::QnnDequantize(_) => "qnn.dequantize",
            OpKind::QnnRequantize(_) => "qnn.requantize",
            OpKind::QnnConv2d(_) => "qnn.conv2d",
            OpKind::QnnDense(_) => "qnn.dense",
            OpKind::QnnAdd(_) => "qnn.add",
            OpKind::QnnConcatenate(_) => "qnn.concatenate",
        }
    }

    /// Whether this op anchors a fusion group (convolution and dense; see
    /// [`crate::passes::fuse_analysis`]).
    pub fn is_compute_heavy(&self) -> bool {
        matches!(
            self,
            OpKind::Conv2d(_) | OpKind::Dense | OpKind::QnnConv2d(_) | OpKind::QnnDense(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_stable() {
        assert_eq!(OpKind::Conv2d(Conv2dAttrs::default()).name(), "nn.conv2d");
        assert_eq!(OpKind::Relu.name(), "nn.relu");
        assert_eq!(
            OpKind::QnnConv2d(QnnConv2dAttrs {
                conv: Conv2dAttrs::default(),
                input_q: tvmnp_tensor::QuantParams::identity(),
                weight_q: tvmnp_tensor::QuantParams::identity(),
                output_q: tvmnp_tensor::QuantParams::identity(),
                out_dtype: tvmnp_tensor::DType::U8,
            })
            .name(),
            "qnn.conv2d"
        );
    }
}
