//! Type (shape + dtype) inference over modules.
//!
//! Every node of every function gets a checked [`Type`]. Global calls are
//! typed against the callee's parameters and body, so a partitioned module
//! type-checks exactly like the unpartitioned one — the invariant the BYOC
//! flow rests on.
//!
//! An op's type has two halves. The dtype half is stated here: quantized
//! operands, equal dtypes, `out_dtype`. The shape half is not: each op's
//! output dims come from its kernel family's shape rule in
//! `tvmnp_tensor::kernels` ([`ConvGeom::new`], [`pool2d_dims`], ...), the
//! function the kernel sizes its output with, so a module that type-checks
//! runs.

use crate::attrs::*;
use crate::expr::{CallTarget, Expr, ExprKind, Module};
use crate::op::OpKind;
use crate::ty::{TensorType, Type};
use crate::visit::topo_order;
use std::collections::HashMap;
use std::fmt;
use tvmnp_tensor::kernels::{
    batch_flatten_dims, batch_norm_dims, bias_add_dims, concat_dims, dense_geom,
    global_pool2d_dims, kerr, mean_dims, pad_dims, pool2d_dims, resize2d_dims, slice_dims,
    softmax_dims, transpose_dims, ConvGeom, KernelError,
};
use tvmnp_tensor::{DType, Shape};

/// A type-checking failure with a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

fn terr(msg: impl Into<String>) -> TypeError {
    TypeError(msg.into())
}

/// Checked types for every node id in a module.
pub type TypeMap = HashMap<usize, Type>;

/// The functions `Global` calls of a body resolve to: the module's, and
/// the result type of each one typed so far.
pub(crate) struct Callees<'m> {
    module: &'m Module,
    results: HashMap<&'m str, Type>,
}

/// Infer types for all functions of `module`.
///
/// Functions are processed so callees are typed before callers (externals
/// before `main`).
pub fn infer_types(module: &Module) -> Result<TypeMap, TypeError> {
    let mut types: TypeMap = HashMap::new();
    let mut callees = Callees {
        module,
        results: HashMap::new(),
    };

    // Externals (and any non-main function) carry no cross-calls in this
    // reproduction, so typing them first resolves every Global target.
    let mut names: Vec<&String> = module.functions.keys().collect();
    names.sort_by_key(|n| (n.as_str() == "main") as u8);

    for name in names {
        let func = &module.functions[name];
        for p in &func.params {
            match &p.kind {
                ExprKind::Var(v) => types.insert(p.id, Type::Tensor(v.ty.clone())),
                _ => return Err(terr(format!("function @{name} parameter is not a Var"))),
            };
        }
        let result = type_body(&func.body, &mut types, Some(&callees))?;
        callees.results.insert(name, result);
    }
    Ok(types)
}

/// Type every node under `root` not yet in `types` and return the root's
/// type: the one walk behind [`infer_types`] and
/// [`crate::builder::expr_type`]. Vars take their declared types; a
/// `Global` call needs `callees`.
pub(crate) fn type_body(
    root: &Expr,
    types: &mut TypeMap,
    callees: Option<&Callees<'_>>,
) -> Result<Type, TypeError> {
    for e in topo_order(root) {
        if types.contains_key(&e.id) {
            continue;
        }
        let ty = match &e.kind {
            ExprKind::Var(v) => Type::Tensor(v.ty.clone()),
            ExprKind::Constant(c) => {
                Type::Tensor(TensorType::new(c.value.shape().clone(), c.value.dtype()))
            }
            ExprKind::Tuple(fs) => Type::Tuple(fs.iter().map(|f| types[&f.id].clone()).collect()),
            ExprKind::TupleGetItem(t, i) => match &types[&t.id] {
                Type::Tuple(ts) => ts
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| terr(format!("tuple index {i} out of range")))?,
                Type::Tensor(_) => return Err(terr("TupleGetItem on non-tuple".to_string())),
            },
            ExprKind::Call(c) => {
                let arg_tys: Vec<&Type> = c.args.iter().map(|a| &types[&a.id]).collect();
                match &c.target {
                    CallTarget::Op(op) => infer_op(op, &arg_tys)?,
                    CallTarget::Global(g) => match callees {
                        Some(callees) => callees.call(g, &arg_tys)?,
                        None => return Err(terr(format!("@{g} called outside a module"))),
                    },
                }
            }
        };
        types.insert(e.id, ty);
    }
    Ok(types[&root.id].clone())
}

impl Callees<'_> {
    /// The result type of calling `@g` on arguments of `arg_tys`, each of
    /// which must be its parameter's declared type.
    fn call(&self, g: &str, arg_tys: &[&Type]) -> Result<Type, TypeError> {
        let callee =
            (self.module.functions.get(g)).ok_or_else(|| terr(format!("unknown global @{g}")))?;
        if callee.params.len() != arg_tys.len() {
            return Err(terr(format!(
                "@{g} expects {} args, got {}",
                callee.params.len(),
                arg_tys.len()
            )));
        }
        for (i, (p, a)) in callee.params.iter().zip(arg_tys).enumerate() {
            let at = a
                .tensor()
                .ok_or_else(|| terr(format!("@{g} arg {i} is a tuple")))?;
            if let ExprKind::Var(v) = &p.kind {
                if at != &v.ty {
                    return Err(terr(format!("@{g} arg {i}: expected {}, got {at}", v.ty)));
                }
            }
        }
        (self.results.get(g).cloned()).ok_or_else(|| terr(format!("global @{g} not yet typed")))
    }
}

fn tensor_arg<'a>(args: &'a [&Type], i: usize, op: &str) -> Result<&'a TensorType, TypeError> {
    args.get(i)
        .ok_or_else(|| terr(format!("{op}: missing argument {i}")))?
        .tensor()
        .ok_or_else(|| terr(format!("{op}: argument {i} is a tuple")))
}

/// Infer the result type of one primitive op application: its dtype half
/// here, its dims from the op's shape rule in the kernel crate.
pub(crate) fn infer_op(op: &OpKind, args: &[&Type]) -> Result<Type, TypeError> {
    let name = op.name();
    let (min, max) = match op {
        OpKind::Conv2d(_) | OpKind::QnnConv2d(_) | OpKind::Dense | OpKind::QnnDense(_) => (2, 3),
        OpKind::BiasAdd
        | OpKind::Add
        | OpKind::Subtract
        | OpKind::Multiply
        | OpKind::Divide
        | OpKind::Maximum
        | OpKind::Minimum
        | OpKind::QnnAdd(_) => (2, 2),
        OpKind::BatchNorm(_) => (5, 5),
        OpKind::Concatenate(_) | OpKind::QnnConcatenate(_) => (1, usize::MAX),
        _ => (1, 1),
    };
    if !(min..=max).contains(&args.len()) {
        let n = args.len();
        return Err(terr(format!("{name}: {n} args, expects {min} to {max}")));
    }
    let x = tensor_arg(args, 0, name)?;
    let dims = |i: usize| tensor_arg(args, i, name).map(|t| t.shape.dims());
    let same_dtypes = || {
        (1..args.len()).try_for_each(|i| match tensor_arg(args, i, name)?.dtype {
            d if d == x.dtype => Ok(()),
            d => Err(terr(format!("{name}: dtype mismatch {} vs {d}", x.dtype))),
        })
    };

    let dtype = match op {
        OpKind::Clip(a) if a.min.is_nan() || a.max.is_nan() || a.min > a.max => {
            let (min, max) = (a.min, a.max);
            return Err(terr(format!(
                "{name}: bounds [{min}, {max}] are not a range"
            )));
        }
        OpKind::QnnConv2d(_)
            if !x.dtype.is_quantized() || !tensor_arg(args, 1, name)?.dtype.is_quantized() =>
        {
            return Err(terr(format!("{name}: operands must be quantized")));
        }
        OpKind::QnnConcatenate(a) if a.input_qs.len() != args.len() => {
            let (qs, n) = (a.input_qs.len(), args.len());
            return Err(terr(format!(
                "{name}: {qs} input quant params for {n} inputs"
            )));
        }
        OpKind::QnnQuantize(_) if !x.dtype.is_float() => {
            return Err(terr(format!("{name}: input must be float")));
        }
        OpKind::QnnDequantize(_) if !x.dtype.is_quantized() => {
            return Err(terr(format!("{name}: input must be quantized")));
        }
        OpKind::QnnRequantize(_) if x.dtype.is_float() => {
            return Err(terr(format!("{name}: input must be integer")));
        }
        OpKind::Add
        | OpKind::Subtract
        | OpKind::Multiply
        | OpKind::Divide
        | OpKind::Maximum
        | OpKind::Minimum
        | OpKind::Concatenate(_)
        | OpKind::QnnConcatenate(_) => {
            same_dtypes()?;
            x.dtype
        }
        OpKind::QnnConv2d(QnnConv2dAttrs { out_dtype, .. })
        | OpKind::QnnDense(QnnDenseAttrs { out_dtype, .. })
        | OpKind::QnnAdd(QnnAddAttrs { out_dtype, .. })
        | OpKind::QnnQuantize(QuantizeAttrs { out_dtype, .. })
        | OpKind::QnnRequantize(RequantizeAttrs { out_dtype, .. }) => *out_dtype,
        OpKind::QnnDequantize(_) => DType::F32,
        _ => x.dtype,
    };

    let d = x.shape.dims();
    let bias = || args.get(2).map(|_| dims(2)).transpose();
    let shape: Result<Shape, KernelError> = match op {
        OpKind::Conv2d(a) | OpKind::QnnConv2d(QnnConv2dAttrs { conv: a, .. }) => {
            ConvGeom::new(name, d, dims(1)?, bias()?, a).map(|g| g.output().into())
        }
        OpKind::Dense | OpKind::QnnDense(_) => {
            dense_geom(name, d, dims(1)?, bias()?).map(|g| g.output()[..2].into())
        }
        OpKind::BiasAdd => bias_add_dims(d, dims(1)?).map(Shape::from),
        OpKind::BatchNorm(_) => {
            let params = [dims(1)?, dims(2)?, dims(3)?, dims(4)?];
            batch_norm_dims(d, params).map(Shape::from)
        }
        OpKind::Relu
        | OpKind::LeakyRelu(_)
        | OpKind::Clip(_)
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Exp
        | OpKind::Sqrt
        | OpKind::Negative
        | OpKind::Dropout
        | OpKind::QnnQuantize(_)
        | OpKind::QnnDequantize(_)
        | OpKind::QnnRequantize(_) => Ok(x.shape.clone()),
        OpKind::Softmax | OpKind::LogSoftmax => softmax_dims(d).map(Shape::from),
        OpKind::MaxPool2d(a) => pool2d_dims(d, a, false).map(Shape::from),
        OpKind::AvgPool2d(a) => pool2d_dims(d, a, true).map(Shape::from),
        OpKind::GlobalAvgPool2d => global_pool2d_dims(d).map(Shape::from),
        OpKind::Add
        | OpKind::Subtract
        | OpKind::Multiply
        | OpKind::Divide
        | OpKind::Maximum
        | OpKind::Minimum
        | OpKind::QnnAdd(_) => {
            let b = &tensor_arg(args, 1, name)?.shape;
            let no = || kerr(format!("cannot broadcast {} with {b}", x.shape));
            x.shape.broadcast(b).ok_or_else(no)
        }
        OpKind::Reshape(a) => {
            let new = Shape::new(a.new_shape.clone());
            match x.shape.reshape_compatible(&new) {
                true => Ok(new),
                false => Err(kerr(format!("{} cannot reshape to {new}", x.shape))),
            }
        }
        OpKind::Transpose(a) => transpose_dims(d, &a.axes).map(Shape::from),
        OpKind::Concatenate(ConcatAttrs { axis })
        | OpKind::QnnConcatenate(QnnConcatAttrs { axis, .. }) => {
            let all = args.iter().filter_map(|a| a.tensor());
            concat_dims(all.map(|t| t.shape.dims()), *axis).map(Shape::from)
        }
        OpKind::Pad(a) => pad_dims(d, &a.pads).map(Shape::from),
        OpKind::StridedSlice(a) => slice_dims(d, &a.begin, &a.end).map(Shape::from),
        OpKind::BatchFlatten => batch_flatten_dims(d).map(Shape::from),
        OpKind::Resize2d(a) => resize2d_dims(d, a.out_h, a.out_w).map(Shape::from),
        OpKind::Mean(a) => mean_dims(d, &a.axes).map(Shape::from),
    };
    let shape = shape.map_err(|e| terr(format!("{name}: {e}")))?;
    Ok(Type::Tensor(TensorType { shape, dtype }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{call, call_global, constant, var, Function, Module};
    use tvmnp_tensor::Tensor;

    fn f32_var(name: &str, shape: &[usize]) -> crate::expr::Expr {
        var(name, TensorType::f32(shape))
    }

    #[test]
    fn conv_shape() {
        let x = f32_var("x", &[1, 3, 32, 32]);
        let w = constant(Tensor::zeros_f32([16, 3, 3, 3]));
        let y = call(OpKind::Conv2d(Conv2dAttrs::same(1)), vec![x.clone(), w]);
        let m = Module::from_main(Function::new(vec![x], y.clone()));
        let tys = infer_types(&m).unwrap();
        assert_eq!(tys[&y.id].as_tensor().shape.dims(), &[1, 16, 32, 32]);
    }

    #[test]
    fn bad_pool_geometry_is_a_type_error() {
        let pool = |kernel, strides| Pool2dAttrs {
            kernel,
            strides,
            ..Pool2dAttrs::square(2)
        };
        for (attrs, why) in [
            (pool((2, 2), (0, 1)), "non-zero"),
            (pool((2, 0), (1, 1)), "non-zero"),
            (pool((9, 2), (1, 1)), "larger than padded input"),
        ] {
            let x = f32_var("x", &[1, 3, 8, 8]);
            let y = call(OpKind::MaxPool2d(attrs), vec![x.clone()]);
            let m = Module::from_main(Function::new(vec![x], y));
            let err = infer_types(&m).unwrap_err().to_string();
            assert!(err.contains("nn.max_pool2d") && err.contains(why), "{err}");
        }
        let x = f32_var("x", &[1, 3, 8, 8]);
        let y = call(OpKind::AvgPool2d(pool((3, 3), (2, 2))), vec![x.clone()]);
        let m = Module::from_main(Function::new(vec![x], y.clone()));
        assert_eq!(
            infer_types(&m).unwrap()[&y.id].as_tensor().shape.dims(),
            &[1, 3, 3, 3]
        );
    }

    #[test]
    fn geometry_past_usize_is_a_type_error() {
        let conv = Conv2dAttrs {
            padding: (usize::MAX, 0, 1, 0),
            ..Default::default()
        };
        let dilated = Conv2dAttrs {
            dilation: (usize::MAX, 1),
            ..Default::default()
        };
        let pool = Pool2dAttrs {
            padding: (0, 3, 0, usize::MAX - 2),
            ..Pool2dAttrs::square(2)
        };
        for (op, name) in [
            (OpKind::Conv2d(conv), "nn.conv2d"),
            (OpKind::Conv2d(dilated), "nn.conv2d"),
            (OpKind::MaxPool2d(pool), "nn.max_pool2d"),
        ] {
            let x = f32_var("x", &[1, 3, 8, 8]);
            let mut args = vec![x.clone()];
            if name == "nn.conv2d" {
                args.push(constant(Tensor::zeros_f32([4, 3, 3, 3])));
            }
            let m = Module::from_main(Function::new(vec![x], call(op, args)));
            let err = infer_types(&m).unwrap_err().to_string();
            assert!(err.contains(name) && err.contains("overflows"), "{err}");
        }
    }

    #[test]
    fn clip_bounds_that_are_not_a_range_are_type_errors() {
        for (min, max) in [(6.0, 0.0), (f32::NAN, 1.0), (0.0, f32::NAN)] {
            let x = f32_var("x", &[4]);
            let y = call(OpKind::Clip(ClipAttrs { min, max }), vec![x.clone()]);
            let m = Module::from_main(Function::new(vec![x], y));
            let err = infer_types(&m).expect_err("bounds are not a range");
            assert!(err.0.contains("not a range"), "{err}");
        }
        let x = f32_var("x", &[4]);
        let attrs = ClipAttrs { min: 0.0, max: 0.0 };
        let y = call(OpKind::Clip(attrs), vec![x.clone()]);
        assert!(infer_types(&Module::from_main(Function::new(vec![x], y))).is_ok());
    }

    #[test]
    fn dense_mismatch_rejected() {
        let x = f32_var("x", &[1, 10]);
        let w = constant(Tensor::zeros_f32([4, 12]));
        let y = call(OpKind::Dense, vec![x.clone(), w]);
        let m = Module::from_main(Function::new(vec![x], y));
        assert!(infer_types(&m).is_err());
    }

    #[test]
    fn broadcast_add() {
        let a = f32_var("a", &[1, 4, 8, 8]);
        let b = f32_var("b", &[1, 4, 1, 1]);
        let y = call(OpKind::Add, vec![a.clone(), b.clone()]);
        let m = Module::from_main(Function::new(vec![a, b], y.clone()));
        let tys = infer_types(&m).unwrap();
        assert_eq!(tys[&y.id].as_tensor().shape.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn global_call_typed_from_callee() {
        // external: relu(x) over [1, 4]
        let px = f32_var("p", &[1, 4]);
        let ext = Function::new(vec![px.clone()], call(OpKind::Relu, vec![px]))
            .with_attr("Compiler", "neuropilot");
        let x = f32_var("x", &[1, 4]);
        let y = call_global("nir_0", vec![x.clone()]);
        let mut m = Module::from_main(Function::new(vec![x], y.clone()));
        m.functions.insert("nir_0".into(), ext);
        let tys = infer_types(&m).unwrap();
        assert_eq!(tys[&y.id].as_tensor().shape.dims(), &[1, 4]);
    }

    #[test]
    fn global_call_arg_mismatch() {
        let px = f32_var("p", &[1, 4]);
        let ext = Function::new(vec![px.clone()], call(OpKind::Relu, vec![px]));
        let x = f32_var("x", &[1, 5]);
        let y = call_global("nir_0", vec![x.clone()]);
        let mut m = Module::from_main(Function::new(vec![x], y));
        m.functions.insert("nir_0".into(), ext);
        assert!(infer_types(&m).is_err());
    }

    #[test]
    fn qnn_conv_out_dtype() {
        let x = var("x", TensorType::new([1, 3, 8, 8], DType::U8));
        let w = constant(
            Tensor::from_int_values(
                [8, 3, 3, 3],
                &vec![0; 8 * 27],
                DType::I8,
                Some(tvmnp_tensor::QuantParams::identity()),
            )
            .unwrap(),
        );
        let attrs = QnnConv2dAttrs {
            conv: Conv2dAttrs::same(1),
            input_q: tvmnp_tensor::QuantParams::identity(),
            weight_q: tvmnp_tensor::QuantParams::identity(),
            output_q: tvmnp_tensor::QuantParams::identity(),
            out_dtype: DType::U8,
        };
        let y = call(OpKind::QnnConv2d(attrs), vec![x.clone(), w]);
        let m = Module::from_main(Function::new(vec![x], y.clone()));
        let tys = infer_types(&m).unwrap();
        let t = tys[&y.id].as_tensor();
        assert_eq!(t.dtype, DType::U8);
        assert_eq!(t.shape.dims(), &[1, 8, 8, 8]);
    }

    #[test]
    fn tuple_roundtrip() {
        let x = f32_var("x", &[2, 2]);
        let t = crate::expr::tuple(vec![x.clone(), x.clone()]);
        let g = crate::expr::tuple_get(t, 1);
        let m = Module::from_main(Function::new(vec![x], g.clone()));
        let tys = infer_types(&m).unwrap();
        assert_eq!(tys[&g.id].as_tensor().shape.dims(), &[2, 2]);
    }

    #[test]
    fn softmax_preserves_shape() {
        let x = f32_var("x", &[1, 7]);
        let y = call(OpKind::Softmax, vec![x.clone()]);
        let m = Module::from_main(Function::new(vec![x], y.clone()));
        let tys = infer_types(&m).unwrap();
        assert_eq!(tys[&y.id].as_tensor().shape.dims(), &[1, 7]);
    }
}
