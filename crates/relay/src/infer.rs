//! Type (shape + dtype) inference over modules.
//!
//! Every node of every function gets a checked [`Type`]. Global calls are
//! typed against the callee's parameters and body, so a partitioned module
//! type-checks exactly like the unpartitioned one — the invariant the BYOC
//! flow rests on.

use crate::expr::{CallTarget, ExprKind, Module};
use crate::op::OpKind;
use crate::ty::{TensorType, Type};
use crate::visit::topo_order;
use std::collections::HashMap;
use std::fmt;
use tvmnp_tensor::kernels::{Conv2dParams, Pool2dParams};
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

/// Infer types for all functions of `module`.
///
/// Functions are processed so callees are typed before callers (externals
/// before `main`).
pub fn infer_types(module: &Module) -> Result<TypeMap, TypeError> {
    let mut types: TypeMap = HashMap::new();
    let mut fn_result: HashMap<String, Type> = HashMap::new();
    let mut fn_params: HashMap<String, Vec<TensorType>> = HashMap::new();

    // Externals (and any non-main function) carry no cross-calls in this
    // reproduction, so typing them first resolves every Global target.
    let mut names: Vec<&String> = module.functions.keys().collect();
    names.sort_by_key(|n| (n.as_str() == "main") as u8);

    for name in names {
        let func = &module.functions[name];
        let mut params = Vec::new();
        for p in &func.params {
            match &p.kind {
                ExprKind::Var(v) => {
                    types.insert(p.id, Type::Tensor(v.ty.clone()));
                    params.push(v.ty.clone());
                }
                _ => return Err(terr(format!("function @{name} parameter is not a Var"))),
            }
        }
        fn_params.insert(name.clone(), params);

        for e in topo_order(&func.body) {
            if types.contains_key(&e.id) {
                continue;
            }
            let ty = match &e.kind {
                ExprKind::Var(v) => Type::Tensor(v.ty.clone()),
                ExprKind::Constant(c) => {
                    Type::Tensor(TensorType::new(c.value.shape().clone(), c.value.dtype()))
                }
                ExprKind::Tuple(fs) => {
                    Type::Tuple(fs.iter().map(|f| types[&f.id].clone()).collect())
                }
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
                        CallTarget::Global(g) => {
                            let params = fn_params
                                .get(g)
                                .ok_or_else(|| terr(format!("unknown global @{g}")))?;
                            if params.len() != arg_tys.len() {
                                return Err(terr(format!(
                                    "@{g} expects {} args, got {}",
                                    params.len(),
                                    arg_tys.len()
                                )));
                            }
                            for (i, (p, a)) in params.iter().zip(&arg_tys).enumerate() {
                                let at = a
                                    .tensor()
                                    .ok_or_else(|| terr(format!("@{g} arg {i} is a tuple")))?;
                                if at != p {
                                    return Err(terr(format!(
                                        "@{g} arg {i}: expected {p}, got {at}"
                                    )));
                                }
                            }
                            fn_result
                                .get(g)
                                .cloned()
                                .ok_or_else(|| terr(format!("global @{g} not yet typed")))?
                        }
                    }
                }
            };
            types.insert(e.id, ty);
        }
        fn_result.insert(name.clone(), types[&func.body.id].clone());
    }
    Ok(types)
}

fn tensor_arg<'a>(args: &'a [&Type], i: usize, op: &str) -> Result<&'a TensorType, TypeError> {
    args.get(i)
        .ok_or_else(|| terr(format!("{op}: missing argument {i}")))?
        .tensor()
        .ok_or_else(|| terr(format!("{op}: argument {i} is a tuple")))
}

/// Infer the result type of one primitive op application.
pub fn infer_op(op: &OpKind, args: &[&Type]) -> Result<Type, TypeError> {
    let name = op.name();
    let expect_args = |n: usize| -> Result<(), TypeError> {
        if args.len() != n {
            Err(terr(format!(
                "{name}: expected {n} args, got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };

    match op {
        OpKind::Conv2d(a) => {
            expect_args(2).or_else(|_| expect_args(3))?;
            let x = tensor_arg(args, 0, name)?;
            let w = tensor_arg(args, 1, name)?;
            conv_out(x, w, &a.to_kernel(), x.dtype, name)
        }
        OpKind::QnnConv2d(a) => {
            expect_args(2).or_else(|_| expect_args(3))?;
            let x = tensor_arg(args, 0, name)?;
            let w = tensor_arg(args, 1, name)?;
            if !x.dtype.is_quantized() || !w.dtype.is_quantized() {
                return Err(terr(format!("{name}: operands must be quantized")));
            }
            conv_out(x, w, &a.conv.to_kernel(), a.out_dtype, name)
        }
        OpKind::Dense => {
            expect_args(2).or_else(|_| expect_args(3))?;
            let x = tensor_arg(args, 0, name)?;
            let w = tensor_arg(args, 1, name)?;
            dense_out(x, w, x.dtype, name)
        }
        OpKind::QnnDense(a) => {
            expect_args(2).or_else(|_| expect_args(3))?;
            let x = tensor_arg(args, 0, name)?;
            let w = tensor_arg(args, 1, name)?;
            dense_out(x, w, a.out_dtype, name)
        }
        OpKind::BiasAdd => {
            expect_args(2)?;
            let x = tensor_arg(args, 0, name)?;
            let b = tensor_arg(args, 1, name)?;
            if x.shape.rank() < 2 || b.shape.rank() != 1 || b.shape.dims()[0] != x.shape.dims()[1] {
                return Err(terr(format!(
                    "{name}: bias {} incompatible with input {}",
                    b.shape, x.shape
                )));
            }
            Ok(Type::Tensor(x.clone()))
        }
        OpKind::BatchNorm(_) => {
            expect_args(5)?;
            let x = tensor_arg(args, 0, name)?;
            if x.shape.rank() != 4 {
                return Err(terr(format!("{name}: expects NCHW input, got {}", x.shape)));
            }
            let c = x.shape.dims()[1];
            for i in 1..5 {
                let p = tensor_arg(args, i, name)?;
                if p.shape.dims() != [c] {
                    return Err(terr(format!(
                        "{name}: param {i} shape {} != [{c}]",
                        p.shape
                    )));
                }
            }
            Ok(Type::Tensor(x.clone()))
        }
        // Shape-preserving unaries.
        OpKind::Clip(a) if a.min.is_nan() || a.max.is_nan() || a.min > a.max => Err(terr(format!(
            "{name}: bounds [{}, {}] are not a range",
            a.min, a.max
        ))),
        OpKind::Relu
        | OpKind::LeakyRelu(_)
        | OpKind::Clip(_)
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Exp
        | OpKind::Sqrt
        | OpKind::Negative
        | OpKind::Softmax
        | OpKind::LogSoftmax
        | OpKind::Dropout => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            Ok(Type::Tensor(x.clone()))
        }
        OpKind::MaxPool2d(a) | OpKind::AvgPool2d(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            pool_out(x, &a.to_kernel(), name)
        }
        OpKind::GlobalAvgPool2d => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            if d.len() != 4 {
                return Err(terr(format!("{name}: expects rank-4 input")));
            }
            Ok(Type::Tensor(TensorType::new([d[0], d[1], 1, 1], x.dtype)))
        }
        OpKind::Add
        | OpKind::Subtract
        | OpKind::Multiply
        | OpKind::Divide
        | OpKind::Maximum
        | OpKind::Minimum => {
            expect_args(2)?;
            let a = tensor_arg(args, 0, name)?;
            let b = tensor_arg(args, 1, name)?;
            if a.dtype != b.dtype {
                return Err(terr(format!(
                    "{name}: dtype mismatch {} vs {}",
                    a.dtype, b.dtype
                )));
            }
            let shape = a.shape.broadcast(&b.shape).ok_or_else(|| {
                terr(format!(
                    "{name}: cannot broadcast {} with {}",
                    a.shape, b.shape
                ))
            })?;
            Ok(Type::Tensor(TensorType::new(shape, a.dtype)))
        }
        OpKind::QnnAdd(a) => {
            expect_args(2)?;
            let l = tensor_arg(args, 0, name)?;
            let r = tensor_arg(args, 1, name)?;
            let shape = l.shape.broadcast(&r.shape).ok_or_else(|| {
                terr(format!(
                    "{name}: cannot broadcast {} with {}",
                    l.shape, r.shape
                ))
            })?;
            Ok(Type::Tensor(TensorType::new(shape, a.out_dtype)))
        }
        OpKind::Reshape(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let new = Shape::new(a.new_shape.clone());
            if !x.shape.reshape_compatible(&new) {
                return Err(terr(format!("{name}: {} cannot reshape to {new}", x.shape)));
            }
            Ok(Type::Tensor(TensorType::new(new, x.dtype)))
        }
        OpKind::Transpose(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            if a.axes.len() != d.len() {
                return Err(terr(format!("{name}: axes rank mismatch")));
            }
            let mut seen = vec![false; d.len()];
            let mut out = Vec::with_capacity(d.len());
            for &ax in &a.axes {
                if ax >= d.len() || seen[ax] {
                    return Err(terr(format!("{name}: axes not a permutation")));
                }
                seen[ax] = true;
                out.push(d[ax]);
            }
            Ok(Type::Tensor(TensorType::new(out, x.dtype)))
        }
        OpKind::Concatenate(a) => concat_out(args, a.axis, None, name),
        OpKind::QnnConcatenate(a) => {
            if a.input_qs.len() != args.len() {
                return Err(terr(format!(
                    "{name}: {} input quant params for {} inputs",
                    a.input_qs.len(),
                    args.len()
                )));
            }
            concat_out(args, a.axis, None, name)
        }
        OpKind::Pad(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            if a.pads.len() != d.len() {
                return Err(terr(format!("{name}: pad spec rank mismatch")));
            }
            let out: Vec<usize> = d
                .iter()
                .zip(&a.pads)
                .map(|(&s, &(b, e))| s + b + e)
                .collect();
            Ok(Type::Tensor(TensorType::new(out, x.dtype)))
        }
        OpKind::StridedSlice(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            if a.begin.len() != d.len() || a.end.len() != d.len() {
                return Err(terr(format!("{name}: begin/end rank mismatch")));
            }
            let mut out = Vec::with_capacity(d.len());
            for (i, &dim) in d.iter().enumerate() {
                if a.begin[i] >= a.end[i] || a.end[i] > dim {
                    return Err(terr(format!("{name}: invalid range on dim {i}")));
                }
                out.push(a.end[i] - a.begin[i]);
            }
            Ok(Type::Tensor(TensorType::new(out, x.dtype)))
        }
        OpKind::BatchFlatten => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            if d.is_empty() {
                return Err(terr(format!("{name}: rank must be >= 1")));
            }
            Ok(Type::Tensor(TensorType::new(
                [d[0], d[1..].iter().product()],
                x.dtype,
            )))
        }
        OpKind::Resize2d(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            if d.len() != 4 {
                return Err(terr(format!("{name}: expects rank-4 input")));
            }
            Ok(Type::Tensor(TensorType::new(
                [d[0], d[1], a.out_h, a.out_w],
                x.dtype,
            )))
        }
        OpKind::Mean(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            let d = x.shape.dims();
            for &ax in &a.axes {
                if ax >= d.len() {
                    return Err(terr(format!("{name}: axis {ax} out of range")));
                }
            }
            let out: Vec<usize> = d
                .iter()
                .enumerate()
                .filter(|(i, _)| !a.axes.contains(i))
                .map(|(_, &s)| s)
                .collect();
            Ok(Type::Tensor(TensorType::new(out, x.dtype)))
        }
        OpKind::QnnQuantize(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            if !x.dtype.is_float() {
                return Err(terr(format!("{name}: input must be float")));
            }
            Ok(Type::Tensor(TensorType::new(x.shape.clone(), a.out_dtype)))
        }
        OpKind::QnnDequantize(_) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            if !x.dtype.is_quantized() {
                return Err(terr(format!("{name}: input must be quantized")));
            }
            Ok(Type::Tensor(TensorType::new(x.shape.clone(), DType::F32)))
        }
        OpKind::QnnRequantize(a) => {
            expect_args(1)?;
            let x = tensor_arg(args, 0, name)?;
            if x.dtype.is_float() {
                return Err(terr(format!("{name}: input must be integer")));
            }
            Ok(Type::Tensor(TensorType::new(x.shape.clone(), a.out_dtype)))
        }
    }
}

fn conv_out(
    x: &TensorType,
    w: &TensorType,
    p: &Conv2dParams,
    out_dtype: DType,
    name: &str,
) -> Result<Type, TypeError> {
    let xd = x.shape.dims();
    let wd = w.shape.dims();
    if xd.len() != 4 || wd.len() != 4 {
        return Err(terr(format!("{name}: expects rank-4 input/weight")));
    }
    if p.groups == 0
        || !xd[1].is_multiple_of(p.groups)
        || !wd[0].is_multiple_of(p.groups)
        || wd[1] != xd[1] / p.groups
    {
        return Err(terr(format!(
            "{name}: channel/group mismatch C={}, O={}, groups={}, w_ic={}",
            xd[1], wd[0], p.groups, wd[1]
        )));
    }
    let (oh, ow) = p
        .out_hw(xd[2], xd[3], wd[2], wd[3])
        .map_err(|e| terr(format!("{name}: {e}")))?;
    Ok(Type::Tensor(TensorType::new(
        [xd[0], wd[0], oh, ow],
        out_dtype,
    )))
}

fn dense_out(
    x: &TensorType,
    w: &TensorType,
    out_dtype: DType,
    name: &str,
) -> Result<Type, TypeError> {
    let xd = x.shape.dims();
    let wd = w.shape.dims();
    if xd.len() != 2 || wd.len() != 2 {
        return Err(terr(format!("{name}: expects rank-2 operands")));
    }
    if xd[1] != wd[1] {
        return Err(terr(format!(
            "{name}: reduction mismatch {} vs {}",
            xd[1], wd[1]
        )));
    }
    Ok(Type::Tensor(TensorType::new([xd[0], wd[0]], out_dtype)))
}

fn pool_out(x: &TensorType, p: &Pool2dParams, name: &str) -> Result<Type, TypeError> {
    let d = x.shape.dims();
    if d.len() != 4 {
        return Err(terr(format!("{name}: expects rank-4 input")));
    }
    let (oh, ow) = p
        .out_hw(d[2], d[3])
        .map_err(|e| terr(format!("{name}: {e}")))?;
    Ok(Type::Tensor(TensorType::new([d[0], d[1], oh, ow], x.dtype)))
}

fn concat_out(args: &[&Type], axis: usize, _qs: Option<()>, name: &str) -> Result<Type, TypeError> {
    if args.is_empty() {
        return Err(terr(format!("{name}: no inputs")));
    }
    let first = tensor_arg(args, 0, name)?;
    let rank = first.shape.rank();
    if axis >= rank {
        return Err(terr(format!("{name}: axis {axis} out of range")));
    }
    let mut out = first.shape.dims().to_vec();
    let mut total = 0usize;
    for i in 0..args.len() {
        let t = tensor_arg(args, i, name)?;
        if t.dtype != first.dtype || t.shape.rank() != rank {
            return Err(terr(format!("{name}: input {i} dtype/rank mismatch")));
        }
        for d in 0..rank {
            if d != axis && t.shape.dims()[d] != first.shape.dims()[d] {
                return Err(terr(format!("{name}: input {i} dim {d} mismatch")));
            }
        }
        total += t.shape.dims()[axis];
    }
    out[axis] = total;
    Ok(Type::Tensor(TensorType::new(out, first.dtype)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::*;
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
