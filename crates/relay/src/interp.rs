//! Reference interpreter: the semantic ground truth.
//!
//! Every compiled artifact in the reproduction (TVM graph executor, Neuron
//! runtime, any target permutation) must produce outputs identical to this
//! interpreter — the analogue of the paper's practice of checking the BYOC
//! output against the origin framework's output.

use crate::expr::{CallTarget, Expr, ExprKind, Function, Module};
use crate::op::OpKind;
use crate::visit::topo_order;
use std::collections::HashMap;
use std::fmt;
use tvmnp_tensor::kernels::{self, BinaryOp, ResizeMethod, UnaryOp};
use tvmnp_tensor::Tensor;

/// A runtime evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A bound input tensor does not match the parameter's declared type.
    /// Surfaced as a typed error at binding time instead of a panic (or
    /// an opaque kernel failure) somewhere inside evaluation.
    ShapeMismatch {
        /// Parameter name the tensor was bound to.
        input: String,
        /// Declared parameter type.
        expected: String,
        /// Shape/dtype of the offered tensor.
        got: String,
    },
    /// A required input was not provided.
    MissingInput(String),
    /// Any other evaluation failure (kernel errors, malformed graphs).
    Eval(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ShapeMismatch {
                input,
                expected,
                got,
            } => write!(
                f,
                "runtime error: input '{input}' expects {expected}, got {got}"
            ),
            RunError::MissingInput(name) => write!(f, "runtime error: missing input '{name}'"),
            RunError::Eval(msg) => write!(f, "runtime error: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

fn rerr(msg: impl Into<String>) -> RunError {
    RunError::Eval(msg.into())
}

/// Bind named inputs to a function's parameters, validating each tensor
/// against the parameter's declared shape and dtype.
fn bind_inputs(
    func: &Function,
    inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<usize, Value>, RunError> {
    let mut env: HashMap<usize, Value> = HashMap::new();
    for p in &func.params {
        if let ExprKind::Var(v) = &p.kind {
            let t = inputs
                .get(&v.name)
                .ok_or_else(|| RunError::MissingInput(v.name.clone()))?;
            if t.shape().dims() != v.ty.shape.dims() || t.dtype() != v.ty.dtype {
                return Err(RunError::ShapeMismatch {
                    input: v.name.clone(),
                    expected: format!("{:?} {:?}", v.ty.shape, v.ty.dtype),
                    got: format!("{:?} {:?}", t.shape(), t.dtype()),
                });
            }
            env.insert(p.id, Value::Tensor(t.clone()));
        }
    }
    Ok(env)
}

/// A runtime value: tensor or tuple.
#[derive(Debug, Clone)]
pub enum Value {
    /// One tensor.
    Tensor(Tensor),
    /// Tuple of values.
    Tuple(Vec<Value>),
}

impl Value {
    /// Unwrap a tensor, erroring on tuples.
    pub fn tensor(&self) -> Result<&Tensor, RunError> {
        match self {
            Value::Tensor(t) => Ok(t),
            Value::Tuple(_) => Err(rerr("expected tensor value, found tuple")),
        }
    }

    /// Consume into a tensor.
    pub fn into_tensor(self) -> Result<Tensor, RunError> {
        match self {
            Value::Tensor(t) => Ok(t),
            Value::Tuple(_) => Err(rerr("expected tensor value, found tuple")),
        }
    }
}

/// Interpreter over a [`Module`].
pub struct Interpreter<'m> {
    module: &'m Module,
}

impl<'m> Interpreter<'m> {
    /// New interpreter for `module`.
    pub fn new(module: &'m Module) -> Self {
        Interpreter { module }
    }

    /// Evaluate `main` with inputs bound by parameter name.
    pub fn run(&self, inputs: &HashMap<String, Tensor>) -> Result<Value, RunError> {
        self.run_function(self.module.main(), inputs)
    }

    /// Evaluate `main` and unwrap a single tensor output.
    pub fn run_tensor(&self, inputs: &HashMap<String, Tensor>) -> Result<Tensor, RunError> {
        self.run(inputs)?.into_tensor()
    }

    /// Evaluate `main` and also return every intermediate value keyed by
    /// node id — the calibration hook used by post-training quantization.
    pub fn run_with_trace(
        &self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<(Value, HashMap<usize, Value>), RunError> {
        let func = self.module.main();
        let mut env = bind_inputs(func, inputs)?;
        let out = self.eval(&func.body, &mut env)?;
        Ok((out, env))
    }

    /// Evaluate a function with named inputs.
    pub fn run_function(
        &self,
        func: &Function,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Value, RunError> {
        let mut env = bind_inputs(func, inputs)?;
        self.eval(&func.body, &mut env)
    }

    fn eval(&self, root: &Expr, env: &mut HashMap<usize, Value>) -> Result<Value, RunError> {
        for e in topo_order(root) {
            if env.contains_key(&e.id) {
                continue;
            }
            let v = match &e.kind {
                ExprKind::Var(v) => {
                    return Err(rerr(format!("unbound variable '{}'", v.name)));
                }
                ExprKind::Constant(c) => Value::Tensor(c.value.clone()),
                ExprKind::Tuple(fs) => {
                    Value::Tuple(fs.iter().map(|f| env[&f.id].clone()).collect())
                }
                ExprKind::TupleGetItem(t, i) => match &env[&t.id] {
                    Value::Tuple(vs) => vs
                        .get(*i)
                        .cloned()
                        .ok_or_else(|| rerr(format!("tuple index {i} out of range")))?,
                    Value::Tensor(_) => return Err(rerr("TupleGetItem on tensor")),
                },
                ExprKind::Call(c) => {
                    let argv: Vec<&Tensor> = c
                        .args
                        .iter()
                        .map(|a| env[&a.id].tensor())
                        .collect::<Result<_, _>>()?;
                    match &c.target {
                        CallTarget::Op(op) => Value::Tensor(eval_op(op, &argv)?),
                        CallTarget::Global(g) => {
                            let callee = self
                                .module
                                .functions
                                .get(g)
                                .ok_or_else(|| rerr(format!("unknown global @{g}")))?;
                            let mut named = HashMap::new();
                            for (p, &a) in callee.params.iter().zip(&argv) {
                                if let ExprKind::Var(v) = &p.kind {
                                    named.insert(v.name.clone(), a.clone());
                                }
                            }
                            self.run_function(callee, &named)?
                        }
                    }
                }
            };
            env.insert(e.id, v);
        }
        Ok(env[&root.id].clone())
    }
}

/// Evaluate a primitive op on borrowed argument tensors.
pub fn eval_op(op: &OpKind, args: &[&Tensor]) -> Result<Tensor, RunError> {
    let t = |i: usize| -> Result<&Tensor, RunError> {
        args.get(i)
            .copied()
            .ok_or_else(|| rerr(format!("{}: missing arg {i}", op.name())))
    };
    let ok = |r: Result<Tensor, kernels::KernelError>| -> Result<Tensor, RunError> {
        r.map_err(|e| rerr(format!("{}: {e}", op.name())))
    };
    match op {
        OpKind::Conv2d(a) => {
            let bias = if args.len() > 2 { Some(t(2)?) } else { None };
            ok(kernels::conv2d_f32(t(0)?, t(1)?, bias, &a.to_kernel()))
        }
        OpKind::QnnConv2d(a) => {
            let bias = if args.len() > 2 { Some(t(2)?) } else { None };
            let q = kernels::QConvQuant {
                input: a.input_q,
                weight: a.weight_q,
                output: a.output_q,
                out_dtype: a.out_dtype,
            };
            ok(kernels::qconv2d(
                t(0)?,
                t(1)?,
                bias,
                &a.conv.to_kernel(),
                &q,
            ))
        }
        OpKind::Dense => {
            let bias = if args.len() > 2 { Some(t(2)?) } else { None };
            ok(kernels::dense_f32(t(0)?, t(1)?, bias))
        }
        OpKind::QnnDense(a) => {
            let bias = if args.len() > 2 { Some(t(2)?) } else { None };
            ok(kernels::qdense(
                t(0)?,
                t(1)?,
                bias,
                a.input_q,
                a.weight_q,
                a.output_q,
                a.out_dtype,
            ))
        }
        OpKind::BiasAdd => ok(kernels::bias_add(t(0)?, t(1)?)),
        OpKind::BatchNorm(a) => {
            let p = kernels::BatchNormParams {
                gamma: t(1)?.clone(),
                beta: t(2)?.clone(),
                mean: t(3)?.clone(),
                var: t(4)?.clone(),
                epsilon: a.epsilon,
            };
            ok(kernels::batch_norm_f32(t(0)?, &p))
        }
        OpKind::Relu => ok(kernels::unary(t(0)?, UnaryOp::Relu)),
        OpKind::LeakyRelu(a) => ok(kernels::unary(t(0)?, UnaryOp::LeakyRelu(a.alpha))),
        OpKind::Clip(a) => ok(kernels::unary(t(0)?, UnaryOp::Clip(a.min, a.max))),
        OpKind::Sigmoid => ok(kernels::unary(t(0)?, UnaryOp::Sigmoid)),
        OpKind::Tanh => ok(kernels::unary(t(0)?, UnaryOp::Tanh)),
        OpKind::Exp => ok(kernels::unary(t(0)?, UnaryOp::Exp)),
        OpKind::Sqrt => ok(kernels::unary(t(0)?, UnaryOp::Sqrt)),
        OpKind::Negative => ok(kernels::unary(t(0)?, UnaryOp::Neg)),
        OpKind::MaxPool2d(a) => ok(kernels::max_pool2d(t(0)?, &a.to_kernel())),
        OpKind::AvgPool2d(a) => ok(kernels::avg_pool2d(t(0)?, &a.to_kernel())),
        OpKind::GlobalAvgPool2d => ok(kernels::global_avg_pool2d(t(0)?)),
        OpKind::Softmax => ok(kernels::softmax_f32(t(0)?)),
        OpKind::LogSoftmax => ok(kernels::log_softmax_f32(t(0)?)),
        OpKind::Add => ok(kernels::binary_f32(t(0)?, t(1)?, BinaryOp::Add)),
        OpKind::Subtract => ok(kernels::binary_f32(t(0)?, t(1)?, BinaryOp::Sub)),
        OpKind::Multiply => ok(kernels::binary_f32(t(0)?, t(1)?, BinaryOp::Mul)),
        OpKind::Divide => ok(kernels::binary_f32(t(0)?, t(1)?, BinaryOp::Div)),
        OpKind::Maximum => ok(kernels::binary_f32(t(0)?, t(1)?, BinaryOp::Maximum)),
        OpKind::Minimum => ok(kernels::binary_f32(t(0)?, t(1)?, BinaryOp::Minimum)),
        OpKind::QnnAdd(a) => ok(kernels::qadd(
            t(0)?,
            t(1)?,
            a.lhs_q,
            a.rhs_q,
            a.output_q,
            a.out_dtype,
        )),
        OpKind::Reshape(a) => ok(t(0)?
            .reshaped(a.new_shape.clone())
            .map_err(|e| kernels::kerr(e.to_string()))),
        OpKind::Transpose(a) => ok(kernels::transpose(t(0)?, &a.axes)),
        OpKind::Concatenate(a) => ok(kernels::concat(args, a.axis)),
        OpKind::QnnConcatenate(a) => {
            // Inputs were pre-aligned to the output scale by the frontend;
            // the data-movement concat keeps the first input's params, then
            // we stamp the declared output params.
            let c = kernels::concat(args, a.axis).map_err(|e| rerr(e.to_string()))?;
            Ok(c.with_quant(a.output_q))
        }
        OpKind::Pad(a) => ok(kernels::pad(t(0)?, &a.pads, a.value)),
        OpKind::StridedSlice(a) => ok(kernels::slice(t(0)?, &a.begin, &a.end)),
        OpKind::BatchFlatten => ok(kernels::batch_flatten(t(0)?)),
        OpKind::Resize2d(a) => {
            let m = if a.bilinear {
                ResizeMethod::Bilinear
            } else {
                ResizeMethod::Nearest
            };
            ok(kernels::resize2d(t(0)?, a.out_h, a.out_w, m))
        }
        OpKind::Mean(a) => ok(kernels::mean_f32(t(0)?, &a.axes)),
        OpKind::Dropout => Ok(t(0)?.clone()),
        OpKind::QnnQuantize(a) => ok(t(0)?
            .quantize(a.out, a.out_dtype)
            .map_err(|e| kernels::kerr(e.to_string()))),
        // The declared (operator-oriented) params, not whatever the tensor
        // carries.
        OpKind::QnnDequantize(a) => ok(kernels::dequantize(t(0)?, a.input)),
        OpKind::QnnRequantize(a) => ok(kernels::requantize(t(0)?, a.input, a.output, a.out_dtype)),
    }
}

/// Convenience: run a single-output module on named inputs.
pub fn run_module(module: &Module, inputs: &HashMap<String, Tensor>) -> Result<Tensor, RunError> {
    Interpreter::new(module).run_tensor(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::*;
    use crate::expr::{call, call_global, constant, var, Function, Module};
    use crate::ty::TensorType;
    use tvmnp_tensor::DType;

    fn inputs(name: &str, t: Tensor) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert(name.to_string(), t);
        m
    }

    #[test]
    fn runs_relu_chain() {
        let x = var("x", TensorType::f32([4]));
        let y = call(OpKind::Relu, vec![x.clone()]);
        let m = Module::from_main(Function::new(vec![x], y));
        let out = run_module(
            &m,
            &inputs(
                "x",
                Tensor::from_f32([4], vec![-1.0, 2.0, -3.0, 4.0]).unwrap(),
            ),
        )
        .unwrap();
        assert_eq!(out.as_f32().unwrap(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn conv_bias_relu_pipeline() {
        let x = var("x", TensorType::f32([1, 1, 3, 3]));
        let w = constant(Tensor::from_f32([1, 1, 1, 1], vec![-1.0]).unwrap());
        let c = call(OpKind::Conv2d(Conv2dAttrs::default()), vec![x.clone(), w]);
        let b = constant(Tensor::from_f32([1], vec![1.0]).unwrap());
        let ba = call(OpKind::BiasAdd, vec![c, b]);
        let r = call(OpKind::Relu, vec![ba]);
        let m = Module::from_main(Function::new(vec![x], r));
        let out = run_module(
            &m,
            &inputs("x", Tensor::from_f32([1, 1, 3, 3], vec![2.0; 9]).unwrap()),
        )
        .unwrap();
        // -2 + 1 = -1 → relu → 0
        assert!(out.as_f32().unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn global_call_executes_callee() {
        let px = var("p", TensorType::f32([2]));
        let ext = Function::new(vec![px.clone()], call(OpKind::Negative, vec![px]))
            .with_attr("Compiler", "neuropilot");
        let x = var("x", TensorType::f32([2]));
        let y = call_global("nir_0", vec![x.clone()]);
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("nir_0".into(), ext);
        let out = run_module(
            &m,
            &inputs("x", Tensor::from_f32([2], vec![1.0, -2.0]).unwrap()),
        )
        .unwrap();
        assert_eq!(out.as_f32().unwrap(), &[-1.0, 2.0]);
    }

    #[test]
    fn missing_input_is_error() {
        let x = var("x", TensorType::f32([1]));
        let m = Module::from_main(Function::new(vec![x.clone()], x));
        assert_eq!(
            run_module(&m, &HashMap::new()),
            Err(RunError::MissingInput("x".into()))
        );
    }

    #[test]
    fn shape_mismatched_input_is_typed_error_not_panic() {
        let x = var("x", TensorType::f32([1, 2, 4, 4]));
        let y = call(OpKind::Relu, vec![x.clone()]);
        let m = Module::from_main(Function::new(vec![x], y));
        // Wrong shape.
        let err = run_module(
            &m,
            &inputs("x", Tensor::from_f32([4], vec![0.0; 4]).unwrap()),
        )
        .unwrap_err();
        match &err {
            RunError::ShapeMismatch { input, .. } => assert_eq!(input, "x"),
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("input 'x'"));
        // Wrong dtype, right shape.
        let bad_dtype = Tensor::from_f32([1, 2, 4, 4], vec![0.5; 32])
            .unwrap()
            .quantize(tvmnp_tensor::QuantParams::new(0.1, 0), DType::U8)
            .unwrap();
        let err = run_module(&m, &inputs("x", bad_dtype)).unwrap_err();
        assert!(matches!(err, RunError::ShapeMismatch { .. }));
    }

    #[test]
    fn tuple_projection() {
        let x = var("x", TensorType::f32([2]));
        let t = crate::expr::tuple(vec![
            call(OpKind::Relu, vec![x.clone()]),
            call(OpKind::Negative, vec![x.clone()]),
        ]);
        let g = crate::expr::tuple_get(t, 1);
        let m = Module::from_main(Function::new(vec![x], g));
        let out = run_module(
            &m,
            &inputs("x", Tensor::from_f32([2], vec![3.0, -4.0]).unwrap()),
        )
        .unwrap();
        assert_eq!(out.as_f32().unwrap(), &[-3.0, 4.0]);
    }

    #[test]
    fn qnn_quant_dequant_roundtrip() {
        use tvmnp_tensor::QuantParams;
        let qp = QuantParams::new(0.1, 0);
        let x = var("x", TensorType::f32([3]));
        let q = call(
            OpKind::QnnQuantize(QuantizeAttrs {
                out: qp,
                out_dtype: DType::I8,
            }),
            vec![x.clone()],
        );
        let d = call(
            OpKind::QnnDequantize(DequantizeAttrs { input: qp }),
            vec![q],
        );
        let m = Module::from_main(Function::new(vec![x], d));
        let input = Tensor::from_f32([3], vec![0.5, -0.5, 1.2]).unwrap();
        let out = run_module(&m, &inputs("x", input.clone())).unwrap();
        assert!(out.max_abs_diff(&input) <= 0.051);
    }
}
