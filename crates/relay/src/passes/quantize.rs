//! Post-training quantization (TVM's `relay.quantize`).
//!
//! The paper's quantized models arrive pre-quantized from TFLite; this
//! pass closes the loop for the *other* frontends: calibrate a float
//! module on sample inputs, then rewrite it into the QNN dialect — the
//! same operator-oriented representation §3.3 later converts to Neuron
//! IR. Scheme: uint8 activations with per-tensor affine parameters from
//! calibrated min/max, int8 symmetric per-tensor weights, int32 biases in
//! accumulator scale — the TFLite recipe.

use crate::attrs::*;
use crate::expr::{call, constant, var, CallTarget, Expr, ExprKind, Function, Module};
use crate::interp::{Interpreter, Value};
use crate::op::OpKind;
use crate::visit::topo_order;
use std::collections::HashMap;
use std::fmt;
use tvmnp_tensor::{DType, QuantParams, Tensor};

/// Quantization failure.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizeError {
    /// An op the quantizer does not map.
    Unsupported(String),
    /// Calibration produced no statistics for a node.
    MissingCalibration(String),
    /// Calibration saw no finite range for a node (an empty tensor, or
    /// an infinite or NaN value), so no scale quantizes it.
    NonFiniteRange(String),
    /// Structural problem.
    Other(String),
}

impl fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantizeError::Unsupported(op) => write!(f, "quantize: unsupported op '{op}'"),
            QuantizeError::MissingCalibration(n) => {
                write!(f, "quantize: no calibration statistics for {n}")
            }
            QuantizeError::NonFiniteRange(n) => {
                write!(f, "quantize: calibrated range of {n} is not finite")
            }
            QuantizeError::Other(m) => write!(f, "quantize: {m}"),
        }
    }
}

impl std::error::Error for QuantizeError {}

/// Per-node calibrated value ranges.
pub(crate) type Calibration = HashMap<usize, (f32, f32)>;

/// Run the module on each calibration input and record per-node min/max.
pub(crate) fn calibrate(
    module: &Module,
    calibration_inputs: &[HashMap<String, Tensor>],
) -> Result<Calibration, QuantizeError> {
    let interp = Interpreter::new(module);
    let mut ranges: Calibration = HashMap::new();
    for inputs in calibration_inputs {
        let (_, trace) = interp
            .run_with_trace(inputs)
            .map_err(|e| QuantizeError::Other(e.to_string()))?;
        for (id, v) in trace {
            let Value::Tensor(t) = v else { continue };
            if !t.dtype().is_float() {
                continue;
            }
            let data = t.as_f32().expect("float tensor");
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &x in data {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            let e = ranges.entry(id).or_insert((lo, hi));
            e.0 = e.0.min(lo);
            e.1 = e.1.max(hi);
        }
    }
    Ok(ranges)
}

struct Quantizer<'a> {
    calibration: &'a Calibration,
    /// Original node id → (quantized expr, its activation params).
    map: HashMap<usize, (Expr, QuantParams)>,
}

impl Quantizer<'_> {
    fn act_params(&self, e: &Expr) -> Result<QuantParams, QuantizeError> {
        let (lo, hi) = self
            .calibration
            .get(&e.id)
            .copied()
            .ok_or_else(|| QuantizeError::MissingCalibration(e.label()))?;
        if !(lo.is_finite() && hi.is_finite()) {
            return Err(QuantizeError::NonFiniteRange(e.label()));
        }
        Ok(QuantParams::from_range(lo, hi, DType::U8))
    }

    fn quantized(&self, e: &Expr) -> Result<(Expr, QuantParams), QuantizeError> {
        self.map
            .get(&e.id)
            .cloned()
            .ok_or_else(|| QuantizeError::Other(format!("{} not yet quantized", e.label())))
    }
}

/// Quantize weights symmetrically to i8.
fn quantize_weight(w: &Tensor) -> Result<(Tensor, QuantParams), QuantizeError> {
    let data = w
        .as_f32()
        .map_err(|e| QuantizeError::Other(e.to_string()))?;
    let absmax = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let qp = QuantParams::symmetric_from_absmax(absmax, DType::I8);
    let q = w
        .quantize(qp, DType::I8)
        .map_err(|e| QuantizeError::Other(e.to_string()))?;
    Ok((q, qp))
}

/// Quantize a bias to i32 in accumulator scale `s_in * s_w`.
fn quantize_bias(b: &Tensor, acc_scale: f32) -> Result<Tensor, QuantizeError> {
    let data = b
        .as_f32()
        .map_err(|e| QuantizeError::Other(e.to_string()))?;
    let q: Vec<i32> = data
        .iter()
        .map(|&v| (v / acc_scale).round() as i32)
        .collect();
    Tensor::from_i32([data.len()], q, None).map_err(|e| QuantizeError::Other(e.to_string()))
}

fn const_tensor(e: &Expr) -> Result<Tensor, QuantizeError> {
    match &e.kind {
        ExprKind::Constant(c) => Ok(c.value.clone()),
        other => Err(QuantizeError::Other(format!(
            "expected constant, found {other:?}"
        ))),
    }
}

/// Quantize `module` into the QNN dialect using calibrated statistics.
///
/// The result takes the *same float inputs* (a `qnn.quantize` is inserted
/// at each input) and produces the same float outputs (a `qnn.dequantize`
/// is appended), so it is a drop-in replacement for the float module.
pub(crate) fn quantize_module(
    module: &Module,
    calibration: &Calibration,
) -> Result<Module, QuantizeError> {
    let main = module.main();
    let mut q = Quantizer {
        calibration,
        map: HashMap::new(),
    };
    let mut new_params = Vec::new();

    for p in &main.params {
        let ExprKind::Var(v) = &p.kind else {
            return Err(QuantizeError::Other("param is not a var".into()));
        };
        let nv = var(v.name.clone(), v.ty.clone());
        new_params.push(nv.clone());
        let qp = q.act_params(p)?;
        let quantized = call(
            OpKind::QnnQuantize(QuantizeAttrs {
                out: qp,
                out_dtype: DType::U8,
            }),
            vec![nv],
        );
        q.map.insert(p.id, (quantized, qp));
    }

    let mut float_tail: Option<Expr> = None; // set when the output is already float

    for e in topo_order(&main.body) {
        if q.map.contains_key(&e.id) {
            continue;
        }
        let ExprKind::Call(c) = &e.kind else {
            match &e.kind {
                ExprKind::Constant(_) => continue, // handled at use sites
                other => {
                    return Err(QuantizeError::Unsupported(format!("{other:?}")));
                }
            }
        };
        let CallTarget::Op(op) = &c.target else {
            return Err(QuantizeError::Unsupported("global call".into()));
        };

        let out_qp = q.act_params(&e);
        let rewritten: (Expr, QuantParams) = match op {
            OpKind::Conv2d(attrs) => {
                let (x, x_qp) = q.quantized(&c.args[0])?;
                let (wq, w_qp) = quantize_weight(&const_tensor(&c.args[1])?)?;
                let out_qp = out_qp?;
                let mut args = vec![x, constant(wq)];
                if c.args.len() > 2 {
                    let acc = x_qp.scale * w_qp.scale;
                    args.push(constant(quantize_bias(&const_tensor(&c.args[2])?, acc)?));
                }
                let qc = call(
                    OpKind::QnnConv2d(QnnConv2dAttrs {
                        conv: *attrs,
                        input_q: x_qp,
                        weight_q: w_qp,
                        output_q: out_qp,
                        out_dtype: DType::U8,
                    }),
                    args,
                );
                (qc, out_qp)
            }
            OpKind::Dense => {
                let (x, x_qp) = q.quantized(&c.args[0])?;
                let (wq, w_qp) = quantize_weight(&const_tensor(&c.args[1])?)?;
                let out_qp = out_qp?;
                let mut args = vec![x, constant(wq)];
                if c.args.len() > 2 {
                    let acc = x_qp.scale * w_qp.scale;
                    args.push(constant(quantize_bias(&const_tensor(&c.args[2])?, acc)?));
                }
                let qd = call(
                    OpKind::QnnDense(QnnDenseAttrs {
                        input_q: x_qp,
                        weight_q: w_qp,
                        output_q: out_qp,
                        out_dtype: DType::U8,
                    }),
                    args,
                );
                (qd, out_qp)
            }
            OpKind::BiasAdd => {
                // bias_add over u8: requantize-free — fold the bias as a
                // qnn.add with a quantized constant broadcast per channel.
                let (x, x_qp) = q.quantized(&c.args[0])?;
                let b = const_tensor(&c.args[1])?;
                let out_qp = out_qp?;
                let c_len = b.num_elements();
                let bv = b
                    .as_f32()
                    .map_err(|e| QuantizeError::Other(e.to_string()))?;
                let b_qp = QuantParams::from_range(
                    bv.iter().fold(f32::INFINITY, |m, &v| m.min(v)),
                    bv.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)),
                    DType::U8,
                );
                let bq = b
                    .reshaped([1, c_len, 1, 1])
                    .and_then(|t| t.quantize(b_qp, DType::U8))
                    .map_err(|e| QuantizeError::Other(e.to_string()))?;
                let qa = call(
                    OpKind::QnnAdd(QnnAddAttrs {
                        lhs_q: x_qp,
                        rhs_q: b_qp,
                        output_q: out_qp,
                        out_dtype: DType::U8,
                    }),
                    vec![x, constant(bq)],
                );
                (qa, out_qp)
            }
            OpKind::Add => {
                let (a, a_qp) = q.quantized(&c.args[0])?;
                let (b, b_qp) = q.quantized(&c.args[1])?;
                let out_qp = out_qp?;
                let qa = call(
                    OpKind::QnnAdd(QnnAddAttrs {
                        lhs_q: a_qp,
                        rhs_q: b_qp,
                        output_q: out_qp,
                        out_dtype: DType::U8,
                    }),
                    vec![a, b],
                );
                (qa, out_qp)
            }
            OpKind::Concatenate(attrs) => {
                let out_qp = out_qp?;
                let mut parts = Vec::new();
                let mut input_qs = Vec::new();
                for a in &c.args {
                    let (pe, pq) = q.quantized(a)?;
                    // Align every input to the output scale first (our
                    // qnn.concatenate expects pre-aligned inputs).
                    let aligned = if pq == out_qp {
                        pe
                    } else {
                        call(
                            OpKind::QnnRequantize(RequantizeAttrs {
                                input: pq,
                                output: out_qp,
                                out_dtype: DType::U8,
                            }),
                            vec![pe],
                        )
                    };
                    parts.push(aligned);
                    input_qs.push(out_qp);
                }
                let qc = call(
                    OpKind::QnnConcatenate(QnnConcatAttrs {
                        axis: attrs.axis,
                        input_qs,
                        output_q: out_qp,
                    }),
                    parts,
                );
                (qc, out_qp)
            }
            // Quantization-transparent ops: same opcode over u8.
            OpKind::Relu
            | OpKind::Clip(_)
            | OpKind::MaxPool2d(_)
            | OpKind::AvgPool2d(_)
            | OpKind::GlobalAvgPool2d
            | OpKind::BatchFlatten
            | OpKind::Reshape(_)
            | OpKind::Transpose(_)
            | OpKind::Dropout => {
                let (x, x_qp) = q.quantized(&c.args[0])?;
                (call(op.clone(), vec![x]), x_qp)
            }
            // Heads that must stay float: dequantize, run float.
            OpKind::Softmax | OpKind::Sigmoid | OpKind::LogSoftmax => {
                let (x, x_qp) = q.quantized(&c.args[0])?;
                let deq = call(
                    OpKind::QnnDequantize(DequantizeAttrs { input: x_qp }),
                    vec![x],
                );
                let f = call(op.clone(), vec![deq]);
                float_tail = Some(f.clone());
                // Record with identity params; only valid as the output.
                (f, QuantParams::identity())
            }
            other => return Err(QuantizeError::Unsupported(other.name().to_string())),
        };
        q.map.insert(e.id, rewritten);
    }

    let (body_q, body_qp) = q.quantized(&main.body)?;
    let body = if float_tail.as_ref().map(|f| f.id) == Some(body_q.id) {
        body_q
    } else {
        // Quantized output: dequantize for drop-in float compatibility.
        call(
            OpKind::QnnDequantize(DequantizeAttrs { input: body_qp }),
            vec![body_q],
        )
    };
    let module = Module::from_main(Function::new(new_params, body));
    crate::infer::infer_types(&module).map_err(|e| QuantizeError::Other(e.to_string()))?;
    Ok(module)
}

/// Calibrate and quantize in one call.
pub fn quantize_with_calibration(
    module: &Module,
    calibration_inputs: &[HashMap<String, Tensor>],
) -> Result<Module, QuantizeError> {
    let _span = tvmnp_telemetry::span!("relay.pass", "pass" => "quantize_with_calibration");
    let cal = calibrate(module, calibration_inputs)?;
    quantize_module(module, &cal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::interp::run_module;
    use crate::ty::TensorType;
    use tvmnp_tensor::rng::TensorRng;

    fn small_classifier(seed: u64) -> Module {
        let mut rng = TensorRng::new(seed);
        let x = var("x", TensorType::f32([1, 3, 16, 16]));
        let w1 = rng.uniform_f32([8, 3, 3, 3], -0.4, 0.4);
        let b1 = rng.uniform_f32([8], -0.1, 0.1);
        let c1 = builder::relu(builder::conv2d_bias(
            x.clone(),
            w1,
            b1,
            Conv2dAttrs::same(1),
        ));
        let p = builder::max_pool2d(c1, Pool2dAttrs::square(2));
        let f = builder::batch_flatten(p);
        let w2 = rng.uniform_f32([5, 8 * 8 * 8], -0.2, 0.2);
        let d = builder::dense(f, w2);
        let s = builder::softmax(d);
        Module::from_main(Function::new(vec![x], s))
    }

    fn cal_inputs(n: usize, seed: u64) -> Vec<HashMap<String, Tensor>> {
        (0..n)
            .map(|i| {
                let mut rng = TensorRng::new(seed + i as u64);
                let mut m = HashMap::new();
                m.insert("x".to_string(), rng.uniform_f32([1, 3, 16, 16], -1.0, 1.0));
                m
            })
            .collect()
    }

    /// An empty activation calibrates to `(inf, -inf)`; it used to
    /// quantize with `scale: inf`.
    #[test]
    fn a_non_finite_calibrated_range_is_a_typed_error() {
        let x = var("x", TensorType::f32([1, 0, 4, 4]));
        let m = Module::from_main(Function::new(vec![x.clone()], builder::relu(x)));
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), Tensor::zeros_f32([1, 0, 4, 4]));
        let err = quantize_with_calibration(&m, &[inputs]).unwrap_err();
        assert!(matches!(err, QuantizeError::NonFiniteRange(_)), "{err}");
    }

    #[test]
    fn quantized_model_tracks_float_model() {
        let m = small_classifier(301);
        let cal = cal_inputs(4, 400);
        let qm = quantize_with_calibration(&m, &cal).unwrap();
        // Evaluate on fresh inputs.
        for seed in [500u64, 501, 502] {
            let mut rng = TensorRng::new(seed);
            let mut inputs = HashMap::new();
            inputs.insert("x".to_string(), rng.uniform_f32([1, 3, 16, 16], -1.0, 1.0));
            let float_out = run_module(&m, &inputs).unwrap();
            let quant_out = run_module(&qm, &inputs).unwrap();
            assert_eq!(quant_out.dtype(), DType::F32, "drop-in float output");
            assert_eq!(
                float_out.argmax(),
                quant_out.argmax(),
                "top-1 must survive quantization (seed {seed})"
            );
            // Naive min/max calibration on an untrained network keeps the
            // ranking but lets probabilities drift by a couple of 8-bit
            // steps through the sharpening softmax.
            assert!(
                float_out.max_abs_diff(&quant_out) <= 0.25,
                "probabilities drift too far: {}",
                float_out.max_abs_diff(&quant_out)
            );
        }
    }

    #[test]
    fn quantized_graph_uses_qnn_dialect() {
        let m = small_classifier(302);
        let qm = quantize_with_calibration(&m, &cal_inputs(2, 410)).unwrap();
        let names: Vec<&str> = topo_order(&qm.main().body)
            .iter()
            .filter_map(|e| e.op().map(|o| o.name()))
            .collect();
        assert!(names.contains(&"qnn.quantize"));
        assert!(names.contains(&"qnn.conv2d"));
        assert!(names.contains(&"qnn.dense"));
        assert!(names.contains(&"qnn.dequantize"));
        assert!(!names.contains(&"nn.conv2d"), "no float conv survives");
    }

    #[test]
    fn residual_add_quantizes() {
        let mut rng = TensorRng::new(303);
        let x = var("x", TensorType::f32([1, 4, 8, 8]));
        let w = rng.uniform_f32([4, 4, 3, 3], -0.3, 0.3);
        let c = builder::relu(builder::conv2d(x.clone(), w, Conv2dAttrs::same(1)));
        let r = builder::add(c, x.clone());
        let m = Module::from_main(Function::new(vec![x], r));
        let mut cal = Vec::new();
        for i in 0..3 {
            let mut rng = TensorRng::new(420 + i);
            let mut ins = HashMap::new();
            ins.insert("x".to_string(), rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0));
            cal.push(ins);
        }
        let qm = quantize_with_calibration(&m, &cal).unwrap();
        let mut ins = HashMap::new();
        let mut rng = TensorRng::new(430);
        ins.insert("x".to_string(), rng.uniform_f32([1, 4, 8, 8], -1.0, 1.0));
        let a = run_module(&m, &ins).unwrap();
        let b = run_module(&qm, &ins).unwrap();
        // Naive min/max calibration on random weights accumulates a few
        // int8 steps of error through the conv taps; the bound is
        // seed-stream dependent, so keep it loose enough for any RNG.
        assert!(a.max_abs_diff(&b) <= 0.2, "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn unsupported_op_reported() {
        let mut rng = TensorRng::new(304);
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let bn = builder::batch_norm(
            x.clone(),
            rng.uniform_f32([2], 0.9, 1.1),
            rng.uniform_f32([2], -0.1, 0.1),
            rng.uniform_f32([2], -0.1, 0.1),
            rng.uniform_f32([2], 0.9, 1.1),
            1e-5,
        );
        let m = Module::from_main(Function::new(vec![x], bn));
        let mut ins = HashMap::new();
        ins.insert("x".to_string(), Tensor::zeros_f32([1, 2, 4, 4]));
        match quantize_with_calibration(&m, &[ins]) {
            Err(QuantizeError::Unsupported(op)) => assert_eq!(op, "nn.batch_norm"),
            other => panic!("expected Unsupported, got ok={}", other.is_ok()),
        }
    }
}
