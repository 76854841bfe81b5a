//! TFLite frontend: `relay.frontend.from_tflite(model, ...)`.
//!
//! The input mirrors a TFLite flatbuffer: a flat tensor table (each tensor
//! carrying its own `(scale, zero_point)` — TFLite is *tensor-oriented*
//! quantized) and an operator list over tensor indices, `NHWC` activations
//! and `OHWI` conv kernels. The importer synthesizes Relay's
//! *operator-oriented* QNN attributes from the producer/consumer tensors
//! and canonicalizes layouts to `NCHW`/`OIHW` (TVM's `ConvertLayout` step
//! for BYOC targets). Paper §3.3 later converts this operator-oriented
//! form back to tensor-oriented Neuron IR — the round trip the QNN flow
//! exists for.

use crate::{ierr, ImportError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tvmnp_relay::builder;
use tvmnp_relay::expr::{call, constant, var, Expr, Function, Module};
use tvmnp_relay::{
    ClipAttrs, Conv2dAttrs, DequantizeAttrs, OpKind, Pool2dAttrs, QnnAddAttrs, QnnConcatAttrs,
    QnnConv2dAttrs, QnnDenseAttrs, QuantizeAttrs, ReshapeAttrs, TensorType,
};
use tvmnp_tensor::kernels::transpose;
use tvmnp_tensor::{DType, QuantParams, Tensor};

/// One tensor slot of the flatbuffer. Shapes use TFLite's own layout
/// semantics (`NHWC` activations, `OHWI` conv filters).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfliteTensor {
    /// Diagnostic name.
    pub name: String,
    /// Shape in TFLite layout.
    pub shape: Vec<usize>,
    /// Element type.
    pub dtype: DType,
    /// Per-tensor quantization (TFLite's tensor-oriented scheme).
    pub quant: Option<QuantParams>,
    /// Constant payload (weights/bias), in TFLite layout.
    pub data: Option<Tensor>,
}

/// TFLite padding mode.
pub const PADDING_SAME: i64 = 0;
/// TFLite padding mode.
pub const PADDING_VALID: i64 = 1;
/// Fused activation: none.
pub const ACT_NONE: i64 = 0;
/// Fused activation: ReLU.
pub const ACT_RELU: i64 = 1;
/// Fused activation: ReLU6.
pub const ACT_RELU6: i64 = 3;

/// One operator over tensor indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfliteOp {
    /// Builtin opcode name (`CONV_2D`, `ADD`, ...).
    pub opcode: String,
    /// Input tensor indices.
    pub inputs: Vec<usize>,
    /// Output tensor indices.
    pub outputs: Vec<usize>,
    /// Builtin options (`stride_h`, `padding`, `fused_activation`, ...).
    pub options: HashMap<String, i64>,
}

impl TfliteOp {
    /// Convenience constructor.
    pub fn new(opcode: &str, inputs: Vec<usize>, outputs: Vec<usize>) -> Self {
        TfliteOp {
            opcode: opcode.into(),
            inputs,
            outputs,
            options: HashMap::new(),
        }
    }

    /// Attach a builtin option.
    pub fn with_opt(mut self, key: &str, v: i64) -> Self {
        self.options.insert(key.into(), v);
        self
    }

    fn opt(&self, key: &str, default: i64) -> i64 {
        self.options.get(key).copied().unwrap_or(default)
    }
}

/// A TFLite model: tensor table + operator list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfliteModel {
    /// All tensors.
    pub tensors: Vec<TfliteTensor>,
    /// Operators in execution order.
    pub ops: Vec<TfliteOp>,
    /// Graph input tensor indices.
    pub inputs: Vec<usize>,
    /// Graph output tensor indices.
    pub outputs: Vec<usize>,
}

/// NHWC shape → NCHW shape (rank-4 only; lower ranks pass through).
fn to_nchw(shape: &[usize]) -> Vec<usize> {
    match shape {
        [n, h, w, c] => vec![*n, *c, *h, *w],
        other => other.to_vec(),
    }
}

/// TFLite SAME padding for one spatial dim: `(before, after)`.
fn same_pad(input: usize, kernel: usize, stride: usize) -> (usize, usize) {
    let out = input.div_ceil(stride);
    let total = ((out - 1) * stride + kernel).saturating_sub(input);
    (total / 2, total - total / 2)
}

struct Importer<'m> {
    model: &'m TfliteModel,
    env: HashMap<usize, Expr>,
}

impl Importer<'_> {
    fn tensor(&self, i: usize) -> Result<&TfliteTensor, ImportError> {
        self.model
            .tensors
            .get(i)
            .ok_or_else(|| ierr(format!("tensor index {i} out of range")))
    }

    fn quant(&self, i: usize) -> Result<QuantParams, ImportError> {
        self.tensor(i)?
            .quant
            .ok_or_else(|| ierr(format!("tensor {i} has no quantization parameters")))
    }

    fn expr(&self, i: usize) -> Result<Expr, ImportError> {
        self.env
            .get(&i)
            .cloned()
            .ok_or_else(|| ierr(format!("tensor {i} not yet produced")))
    }

    /// Constant payload of tensor `i`, transposed by `perm` (empty = as-is).
    fn const_expr(&self, i: usize, perm: &[usize]) -> Result<Expr, ImportError> {
        let t = self.tensor(i)?;
        let data = t
            .data
            .clone()
            .ok_or_else(|| ierr(format!("tensor {i} is not constant")))?;
        let data = if perm.is_empty() {
            data
        } else {
            transpose(&data, perm).map_err(|e| ierr(e.to_string()))?
        };
        Ok(constant(data))
    }

    fn fused_activation(&self, e: Expr, act: i64) -> Result<Expr, ImportError> {
        Ok(match act {
            ACT_NONE => e,
            ACT_RELU => builder::relu(e),
            ACT_RELU6 => call(OpKind::Clip(ClipAttrs { min: 0.0, max: 6.0 }), vec![e]),
            other => return Err(ierr(format!("unknown fused activation {other}"))),
        })
    }

    fn conv2d(&mut self, op: &TfliteOp, depthwise: bool) -> Result<(), ImportError> {
        let x_idx = op.inputs[0];
        let f_idx = op.inputs[1];
        let x = self.expr(x_idx)?;
        let xt = self.tensor(x_idx)?;
        let ft = self.tensor(f_idx)?;
        let (in_h, in_w, in_c) = match xt.shape.as_slice() {
            [_, h, w, c] => (*h, *w, *c),
            other => return Err(ierr(format!("conv input must be NHWC, got {other:?}"))),
        };
        // OHWI (conv) or 1HWC (depthwise) filter.
        let fd = ft.shape.clone();
        let (kh, kw, filter, groups) = if depthwise {
            // [1, kh, kw, C] -> [C, 1, kh, kw]
            (fd[1], fd[2], self.const_expr(f_idx, &[3, 0, 1, 2])?, in_c)
        } else {
            // [O, kh, kw, I] -> [O, I, kh, kw]
            (fd[1], fd[2], self.const_expr(f_idx, &[0, 3, 1, 2])?, 1)
        };
        let sh = op.opt("stride_h", 1) as usize;
        let sw = op.opt("stride_w", 1) as usize;
        let padding = if op.opt("padding", PADDING_SAME) == PADDING_SAME {
            let (pt, pb) = same_pad(in_h, kh, sh);
            let (pl, pr) = same_pad(in_w, kw, sw);
            (pt, pl, pb, pr)
        } else {
            (0, 0, 0, 0)
        };
        let attrs = QnnConv2dAttrs {
            conv: Conv2dAttrs {
                strides: (sh, sw),
                padding,
                dilation: (1, 1),
                groups,
            },
            input_q: self.quant(x_idx)?,
            weight_q: self.quant(f_idx)?,
            output_q: self.quant(op.outputs[0])?,
            out_dtype: self.tensor(op.outputs[0])?.dtype,
        };
        let mut args = vec![x, filter];
        if let Some(&b_idx) = op.inputs.get(2) {
            args.push(self.const_expr(b_idx, &[])?);
        }
        let conv = call(OpKind::QnnConv2d(attrs), args);
        let out = self.fused_activation(conv, op.opt("fused_activation", ACT_NONE))?;
        self.env.insert(op.outputs[0], out);
        Ok(())
    }

    fn pool(&mut self, op: &TfliteOp, max: bool) -> Result<(), ImportError> {
        let x_idx = op.inputs[0];
        let x = self.expr(x_idx)?;
        let xt = self.tensor(x_idx)?;
        let (in_h, in_w) = match xt.shape.as_slice() {
            [_, h, w, _] => (*h, *w),
            other => return Err(ierr(format!("pool input must be NHWC, got {other:?}"))),
        };
        let kh = op.opt("filter_h", 2) as usize;
        let kw = op.opt("filter_w", 2) as usize;
        let sh = op.opt("stride_h", kh as i64) as usize;
        let sw = op.opt("stride_w", kw as i64) as usize;
        let padding = if op.opt("padding", PADDING_VALID) == PADDING_SAME {
            let (pt, pb) = same_pad(in_h, kh, sh);
            let (pl, pr) = same_pad(in_w, kw, sw);
            (pt, pl, pb, pr)
        } else {
            (0, 0, 0, 0)
        };
        let attrs = Pool2dAttrs {
            kernel: (kh, kw),
            strides: (sh, sw),
            padding,
            count_include_pad: false,
        };
        let out = if max {
            builder::max_pool2d(x, attrs)
        } else {
            builder::avg_pool2d(x, attrs)
        };
        let out = self.fused_activation(out, op.opt("fused_activation", ACT_NONE))?;
        self.env.insert(op.outputs[0], out);
        Ok(())
    }

    /// Dequantize → float op → requantize wrapper (TFLite kernels like
    /// SOFTMAX/LOGISTIC/EXP run with internal rescaling; the Relay frontend
    /// expresses them as a float island).
    fn float_island(
        &mut self,
        op: &TfliteOp,
        build: impl Fn(Expr) -> Expr,
    ) -> Result<(), ImportError> {
        let x_idx = op.inputs[0];
        let o_idx = op.outputs[0];
        let x = self.expr(x_idx)?;
        let deq = call(
            OpKind::QnnDequantize(DequantizeAttrs {
                input: self.quant(x_idx)?,
            }),
            vec![x],
        );
        let f = build(deq);
        let out_t = self.tensor(o_idx)?;
        let out = if out_t.dtype.is_quantized() {
            call(
                OpKind::QnnQuantize(QuantizeAttrs {
                    out: self.quant(o_idx)?,
                    out_dtype: out_t.dtype,
                }),
                vec![f],
            )
        } else {
            f
        };
        self.env.insert(o_idx, out);
        Ok(())
    }
}

/// Import a TFLite model into Relay. Inputs are named after their tensor
/// names; rank-4 activations become `NCHW`.
pub fn from_tflite(model: &TfliteModel) -> Result<Module, ImportError> {
    let _span = tvmnp_telemetry::span!("frontend.import", "framework" => "tflite");
    let mut imp = Importer {
        model,
        env: HashMap::new(),
    };
    let mut params: Vec<Expr> = Vec::new();
    for &i in &model.inputs {
        let t = imp.tensor(i)?;
        let v = var(t.name.clone(), TensorType::new(to_nchw(&t.shape), t.dtype));
        imp.env.insert(i, v.clone());
        params.push(v);
    }

    for op in &model.ops {
        match op.opcode.as_str() {
            "QUANTIZE" => {
                let o = op.outputs[0];
                let out_t = imp.tensor(o)?;
                let q = call(
                    OpKind::QnnQuantize(QuantizeAttrs {
                        out: imp.quant(o)?,
                        out_dtype: out_t.dtype,
                    }),
                    vec![imp.expr(op.inputs[0])?],
                );
                imp.env.insert(o, q);
            }
            "DEQUANTIZE" => {
                let q = call(
                    OpKind::QnnDequantize(DequantizeAttrs {
                        input: imp.quant(op.inputs[0])?,
                    }),
                    vec![imp.expr(op.inputs[0])?],
                );
                imp.env.insert(op.outputs[0], q);
            }
            "CONV_2D" => imp.conv2d(op, false)?,
            "DEPTHWISE_CONV_2D" => imp.conv2d(op, true)?,
            "MAX_POOL_2D" => imp.pool(op, true)?,
            "AVERAGE_POOL_2D" => imp.pool(op, false)?,
            "ADD" => {
                let attrs = QnnAddAttrs {
                    lhs_q: imp.quant(op.inputs[0])?,
                    rhs_q: imp.quant(op.inputs[1])?,
                    output_q: imp.quant(op.outputs[0])?,
                    out_dtype: imp.tensor(op.outputs[0])?.dtype,
                };
                let a = imp.expr(op.inputs[0])?;
                let b = imp.expr(op.inputs[1])?;
                let s = call(OpKind::QnnAdd(attrs), vec![a, b]);
                let out = imp.fused_activation(s, op.opt("fused_activation", ACT_NONE))?;
                imp.env.insert(op.outputs[0], out);
            }
            "CONCATENATION" => {
                // Axis arrives in NHWC terms; map to NCHW for rank-4.
                let axis_nhwc = op.opt("axis", 3) as usize;
                let rank = imp.tensor(op.inputs[0])?.shape.len();
                let axis = if rank == 4 {
                    match axis_nhwc {
                        0 => 0,
                        1 => 2,
                        2 => 3,
                        3 => 1,
                        other => return Err(ierr(format!("bad concat axis {other}"))),
                    }
                } else {
                    axis_nhwc
                };
                let input_qs = op
                    .inputs
                    .iter()
                    .map(|&i| imp.quant(i))
                    .collect::<Result<Vec<_>, _>>()?;
                let attrs = QnnConcatAttrs {
                    axis,
                    input_qs,
                    output_q: imp.quant(op.outputs[0])?,
                };
                let parts = op
                    .inputs
                    .iter()
                    .map(|&i| imp.expr(i))
                    .collect::<Result<Vec<_>, _>>()?;
                imp.env
                    .insert(op.outputs[0], call(OpKind::QnnConcatenate(attrs), parts));
            }
            "RESHAPE" => {
                let o = op.outputs[0];
                let new_shape = to_nchw(&imp.tensor(o)?.shape);
                let r = call(
                    OpKind::Reshape(ReshapeAttrs { new_shape }),
                    vec![imp.expr(op.inputs[0])?],
                );
                imp.env.insert(o, r);
            }
            "FULLY_CONNECTED" => {
                let attrs = QnnDenseAttrs {
                    input_q: imp.quant(op.inputs[0])?,
                    weight_q: imp.quant(op.inputs[1])?,
                    output_q: imp.quant(op.outputs[0])?,
                    out_dtype: imp.tensor(op.outputs[0])?.dtype,
                };
                // TFLite FC weights are already [units, in].
                let mut args = vec![imp.expr(op.inputs[0])?, imp.const_expr(op.inputs[1], &[])?];
                if let Some(&b) = op.inputs.get(2) {
                    args.push(imp.const_expr(b, &[])?);
                }
                let d = call(OpKind::QnnDense(attrs), args);
                let out = imp.fused_activation(d, op.opt("fused_activation", ACT_NONE))?;
                imp.env.insert(op.outputs[0], out);
            }
            "SOFTMAX" => imp.float_island(op, builder::softmax)?,
            "LOGISTIC" => imp.float_island(op, builder::sigmoid)?,
            "EXP" => imp.float_island(op, |e| call(OpKind::Exp, vec![e]))?,
            other => return Err(ierr(format!("unmapped TFLite opcode '{other}'"))),
        }
    }

    let body_parts = model
        .outputs
        .iter()
        .map(|&i| imp.expr(i))
        .collect::<Result<Vec<_>, _>>()?;
    let body = match <[_; 1]>::try_from(body_parts) {
        Ok([only]) => only,
        Err(body_parts) => tvmnp_relay::expr::tuple(body_parts),
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

    fn act(name: &str, shape: Vec<usize>, q: QuantParams) -> TfliteTensor {
        TfliteTensor {
            name: name.into(),
            shape,
            dtype: DType::U8,
            quant: Some(q),
            data: None,
        }
    }

    fn quantized_conv_model() -> TfliteModel {
        let mut rng = TensorRng::new(71);
        let qx = QuantParams::new(0.02, 128);
        let qw = QuantParams::new(0.01, 0);
        let qy = QuantParams::new(0.05, 128);
        let w = rng.uniform_quantized([4, 3, 3, 2], DType::U8, qw); // OHWI
        let b = Tensor::from_i32([4], vec![0; 4], None).unwrap();
        TfliteModel {
            tensors: vec![
                act("input", vec![1, 6, 6, 2], qx),
                TfliteTensor {
                    name: "filter".into(),
                    shape: vec![4, 3, 3, 2],
                    dtype: DType::U8,
                    quant: Some(qw),
                    data: Some(w),
                },
                TfliteTensor {
                    name: "bias".into(),
                    shape: vec![4],
                    dtype: DType::I32,
                    quant: None,
                    data: Some(b),
                },
                act("conv_out", vec![1, 6, 6, 4], qy),
            ],
            ops: vec![TfliteOp::new("CONV_2D", vec![0, 1, 2], vec![3])
                .with_opt("stride_h", 1)
                .with_opt("stride_w", 1)
                .with_opt("padding", PADDING_SAME)
                .with_opt("fused_activation", ACT_RELU6)],
            inputs: vec![0],
            outputs: vec![3],
        }
    }

    #[test]
    fn imports_quantized_conv() {
        let m = from_tflite(&quantized_conv_model()).unwrap();
        let mut rng = TensorRng::new(72);
        let qx = QuantParams::new(0.02, 128);
        let mut inputs = Map::new();
        inputs.insert(
            "input".to_string(),
            rng.uniform_quantized([1, 2, 6, 6], DType::U8, qx),
        );
        let out = run_module(&m, &inputs).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 6, 6]);
        assert_eq!(out.dtype(), DType::U8);
    }

    #[test]
    fn same_padding_math() {
        assert_eq!(same_pad(6, 3, 1), (1, 1));
        assert_eq!(same_pad(7, 3, 2), (1, 1)); // out=4, total=(3*2+3)-7=2
        assert_eq!(same_pad(6, 2, 2), (0, 0));
        // Asymmetric case: extra pad goes after.
        assert_eq!(same_pad(5, 2, 2), (0, 1));
    }

    #[test]
    fn depthwise_kernel_layout() {
        let mut rng = TensorRng::new(73);
        let q = QuantParams::new(0.02, 128);
        let qw = QuantParams::new(0.01, 0);
        let w = rng.uniform_quantized([1, 3, 3, 2], DType::U8, qw); // 1HWC
        let model = TfliteModel {
            tensors: vec![
                act("input", vec![1, 4, 4, 2], q),
                TfliteTensor {
                    name: "filter".into(),
                    shape: vec![1, 3, 3, 2],
                    dtype: DType::U8,
                    quant: Some(qw),
                    data: Some(w),
                },
                act("out", vec![1, 4, 4, 2], q),
            ],
            ops: vec![TfliteOp::new("DEPTHWISE_CONV_2D", vec![0, 1], vec![2])
                .with_opt("padding", PADDING_SAME)],
            inputs: vec![0],
            outputs: vec![2],
        };
        let m = from_tflite(&model).unwrap();
        let mut inputs = Map::new();
        inputs.insert(
            "input".to_string(),
            rng.uniform_quantized([1, 2, 4, 4], DType::U8, q),
        );
        let out = run_module(&m, &inputs).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn softmax_emits_float_island() {
        let q = QuantParams::new(1.0 / 256.0, 0);
        let model = TfliteModel {
            tensors: vec![act("input", vec![1, 10], q), act("probs", vec![1, 10], q)],
            ops: vec![TfliteOp::new("SOFTMAX", vec![0], vec![1])],
            inputs: vec![0],
            outputs: vec![1],
        };
        let m = from_tflite(&model).unwrap();
        let names: Vec<&str> = tvmnp_relay::visit::topo_order(&m.main().body)
            .iter()
            .filter_map(|e| e.op().map(|o| o.name()))
            .collect();
        assert_eq!(names, vec!["qnn.dequantize", "nn.softmax", "qnn.quantize"]);
    }

    /// One graph output is the body itself; two make a tuple, in order.
    #[test]
    fn outputs_shape_the_body() {
        let q = QuantParams::new(1.0 / 256.0, 0);
        let mut model = TfliteModel {
            tensors: vec![act("input", vec![1, 10], q), act("probs", vec![1, 10], q)],
            ops: vec![TfliteOp::new("SOFTMAX", vec![0], vec![1])],
            inputs: vec![0],
            outputs: vec![1],
        };
        let m = from_tflite(&model).unwrap();
        let ty = tvmnp_relay::infer_types(&m).unwrap();
        assert!(matches!(
            ty[&m.main().body.id],
            tvmnp_relay::Type::Tensor(_)
        ));
        model.outputs = vec![1, 0];
        let m = from_tflite(&model).unwrap();
        let ty = tvmnp_relay::infer_types(&m).unwrap();
        match &ty[&m.main().body.id] {
            tvmnp_relay::Type::Tuple(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected a tuple body, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_opcode_rejected() {
        let q = QuantParams::new(0.1, 0);
        let model = TfliteModel {
            tensors: vec![act("input", vec![1, 4], q), act("out", vec![1, 4], q)],
            ops: vec![TfliteOp::new("SVDF", vec![0], vec![1])],
            inputs: vec![0],
            outputs: vec![1],
        };
        assert!(from_tflite(&model).unwrap_err().0.contains("SVDF"));
    }

    #[test]
    fn missing_quant_rejected() {
        let mut model = quantized_conv_model();
        model.tensors[0].quant = None;
        assert!(from_tflite(&model).is_err());
    }
}
