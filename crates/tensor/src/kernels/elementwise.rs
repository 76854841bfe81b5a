//! Element-wise unary and (broadcasting) binary kernels, float and quantized.

use super::{kerr, KernelError};
use crate::dtype::DType;
use crate::quant::{requantize_block, round_to_i64, FixedPointMultiplier, QuantParams};
use crate::shape::{for_each_row, Shape};
use crate::tensor::{with_payload, Data, IntElem, Tensor};

/// Unary float op applied element-wise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `max(x, 0)`
    Relu,
    /// `min(max(x, 0), 6)`
    Relu6,
    /// `x if x > 0 else alpha * x`
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `clip(x, lo, hi)`
    Clip(f32, f32),
    /// `sqrt(x)`
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `-x`
    Neg,
}

impl UnaryOp {
    /// Evaluate on one float.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Relu6 => clamp(x, 0.0, 6.0),
            UnaryOp::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Clip(lo, hi) => clamp(x, lo, hi),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Neg => -x,
        }
    }
}

/// `f32::clamp` as the two compares it is (a NaN `x` stays NaN), without
/// the per-call bounds assertion: [`unary`] checks the bounds once.
#[inline]
fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    let v = if x < lo { lo } else { x };
    if v > hi {
        hi
    } else {
        v
    }
}

/// `op` over `x`, dispatching on the operator once: each arm's loop has a
/// constant operator, so `eval` inlines to its arithmetic and the loop into
/// the pre-sized output is branch-free.
fn map_f32(x: &[f32], op: UnaryOp) -> Vec<f32> {
    fn map(x: &[f32], f: impl Fn(f32) -> f32) -> Vec<f32> {
        x.iter().map(|&v| f(v)).collect()
    }
    match op {
        UnaryOp::Relu => map(x, |v| UnaryOp::Relu.eval(v)),
        UnaryOp::Relu6 => map(x, |v| UnaryOp::Relu6.eval(v)),
        UnaryOp::LeakyRelu(a) => map(x, |v| UnaryOp::LeakyRelu(a).eval(v)),
        UnaryOp::Sigmoid => map(x, |v| UnaryOp::Sigmoid.eval(v)),
        UnaryOp::Tanh => map(x, |v| UnaryOp::Tanh.eval(v)),
        UnaryOp::Clip(lo, hi) => map(x, |v| UnaryOp::Clip(lo, hi).eval(v)),
        UnaryOp::Sqrt => map(x, |v| UnaryOp::Sqrt.eval(v)),
        UnaryOp::Exp => map(x, |v| UnaryOp::Exp.eval(v)),
        UnaryOp::Neg => map(x, |v| UnaryOp::Neg.eval(v)),
    }
}

/// Apply a unary op.
///
/// Float tensors are mapped directly. Quantized tensors support the
/// clamp-family ops (`Relu`, `Relu6`, `Clip`) natively in the integer domain
/// (clamping at the quantized image of the real bound, like TFLite's fused
/// activations); other ops go through dequantize → op → requantize with the
/// same params — the lookup-table strategy integer runtimes use. Bounds
/// are checked once per call: NaN or inverted `Clip` bounds, and quantized
/// bounds no stored value lies between (a zero point past the storage
/// range), are errors.
pub fn unary(input: &Tensor, op: UnaryOp) -> Result<Tensor, KernelError> {
    if let UnaryOp::Clip(lo, hi) = op {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Err(kerr(format!("clip bounds [{lo}, {hi}] are not a range")));
        }
    }
    if let Ok(x) = input.as_f32() {
        return Tensor::from_f32(input.shape().clone(), map_f32(x, op))
            .map_err(|e| kerr(e.to_string()));
    }
    let dtype = input.dtype();
    let qp = input
        .quant()
        .ok_or_else(|| kerr("quantized unary requires quant params".to_string()))?;
    let (dlo, dhi) = dtype.int_range().expect("quantized dtype");
    let clamp_q = |lo: f32, hi: f32| {
        (
            qp.quantize(lo, dtype).max(dlo),
            qp.quantize(hi, dtype).min(dhi),
        )
    };
    let (qlo, qhi) = match op {
        UnaryOp::Relu => (qp.zero_point.max(dlo), dhi),
        UnaryOp::Relu6 => clamp_q(0.0, 6.0),
        UnaryOp::Clip(lo, hi) => clamp_q(lo, hi),
        _ => {
            let real = input.to_f32();
            let mapped = map_f32(real.as_f32().expect("dequantized"), op);
            let ints: Vec<i32> = mapped.iter().map(|&v| qp.quantize(v, dtype)).collect();
            return Tensor::from_int_values(input.shape().clone(), &ints, dtype, Some(qp))
                .map_err(|e| kerr(e.to_string()));
        }
    };
    if qlo > qhi {
        let zp = qp.zero_point;
        return Err(kerr(format!(
            "{op:?} on {dtype}, zero point {zp}: [{qlo}, {qhi}] is empty"
        )));
    }
    let data = with_payload!(
        input,
        [I8 U8 I32],
        |x| clamp_ints(x, qlo, qhi),
        else => unreachable!("float input handled above")
    );
    Tensor::from_data(input.shape().clone(), data, Some(qp)).map_err(|e| kerr(e.to_string()))
}

/// Clamp to `[lo, hi]` (non-empty) in the widened domain.
fn clamp_ints<T: IntElem>(x: &[T], lo: i32, hi: i32) -> Data {
    T::wrap(
        x.iter()
            .map(|v| T::narrow(v.widen().max(lo).min(hi)))
            .collect(),
    )
}

/// Binary float op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `max(a, b)`
    Maximum,
    /// `min(a, b)`
    Minimum,
}

impl BinaryOp {
    /// Evaluate on two floats.
    #[inline]
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Maximum => a.max(b),
            BinaryOp::Minimum => a.min(b),
        }
    }
}

/// Broadcasting float binary op; like [`unary`], one loop per operator.
pub fn binary_f32(a: &Tensor, b: &Tensor, op: BinaryOp) -> Result<Tensor, KernelError> {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .ok_or_else(|| kerr(format!("cannot broadcast {} with {}", a.shape(), b.shape())))?;
    let av = (a.as_f32().map_err(|e| kerr(e.to_string()))?, a.shape());
    let bv = (b.as_f32().map_err(|e| kerr(e.to_string()))?, b.shape());
    let s = &out_shape;
    let out = match op {
        BinaryOp::Add => broadcast_map(av, bv, s, |x, y| BinaryOp::Add.eval(x, y)),
        BinaryOp::Sub => broadcast_map(av, bv, s, |x, y| BinaryOp::Sub.eval(x, y)),
        BinaryOp::Mul => broadcast_map(av, bv, s, |x, y| BinaryOp::Mul.eval(x, y)),
        BinaryOp::Div => broadcast_map(av, bv, s, |x, y| BinaryOp::Div.eval(x, y)),
        BinaryOp::Maximum => broadcast_map(av, bv, s, |x, y| BinaryOp::Maximum.eval(x, y)),
        BinaryOp::Minimum => broadcast_map(av, bv, s, |x, y| BinaryOp::Minimum.eval(x, y)),
    };
    Tensor::from_f32(out_shape, out).map_err(|e| kerr(e.to_string()))
}

/// Quantized addition (`qnn.add`): rescale both operands into the output's
/// quantization and add, with saturation.
pub fn qadd(
    a: &Tensor,
    b: &Tensor,
    a_q: QuantParams,
    b_q: QuantParams,
    out_q: QuantParams,
    out_dtype: DType,
) -> Result<Tensor, KernelError> {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .ok_or_else(|| kerr(format!("cannot broadcast {} with {}", a.shape(), b.shape())))?;
    let (lo, hi) = out_dtype.int_range().ok_or_else(|| {
        kerr(format!(
            "qadd output dtype {out_dtype} is not an integer type"
        ))
    })?;
    let (lo, hi, zo) = (lo as i64, hi as i64, out_q.zero_point as i64);
    // Owns its few scalars, so the loop keeps them in registers.
    let add = move |qa: i32, qb: i32| {
        let (ra, rb) = (a_q.dequantize(qa), b_q.dequantize(qb));
        (round_to_i64((ra + rb) / out_q.scale) + zo).max(lo).min(hi) as i32
    };
    let not_q8 = || kerr("qadd expects quantized operands".to_string());
    let data = with_payload!(
        a,
        [I8 U8],
        |av| with_payload!(
            b,
            [I8 U8],
            |bv| {
                let (a, b) = ((&av[..], a.shape()), (&bv[..], b.shape()));
                match out_dtype {
                    DType::I8 => qadd_into::<_, _, i8>(a, b, &out_shape, add),
                    DType::U8 => qadd_into::<_, _, u8>(a, b, &out_shape, add),
                    _ => qadd_into::<_, _, i32>(a, b, &out_shape, add),
                }
            },
            else => return Err(not_q8())
        ),
        else => return Err(not_q8())
    );
    Tensor::from_data(out_shape, data, Some(out_q)).map_err(|e| kerr(e.to_string()))
}

fn qadd_into<A: IntElem, B: IntElem, O: IntElem>(
    a: (&[A], &Shape),
    b: (&[B], &Shape),
    out_shape: &Shape,
    add: impl Fn(i32, i32) -> i32,
) -> Data {
    O::wrap(broadcast_map(a, b, out_shape, move |x, y| {
        O::narrow(add(x.widen(), y.widen()))
    }))
}

/// `qnn.requantize`: `x` from `in_q` into `out_q` and `out_dtype`, through
/// the fixed-point multiplier `in_q.scale / out_q.scale`.
pub fn requantize(
    x: &Tensor,
    in_q: QuantParams,
    out_q: QuantParams,
    out_dtype: DType,
) -> Result<Tensor, KernelError> {
    let m = FixedPointMultiplier::from_real(in_q.scale as f64 / out_q.scale as f64);
    let (zx, zo) = (in_q.zero_point, out_q.zero_point);
    // Saturated to `i32` here, to `out_dtype` by the constructor.
    let mut wide = vec![0i32; x.num_elements()];
    with_payload!(
        x,
        [I8 U8 I32],
        |v| requantize_block(v, |q| q.widen() - zx, &mut wide, m, zo),
        else => return Err(kerr("requantize expects an integer tensor, got f32"))
    );
    Tensor::from_int_values(x.shape().clone(), &wide, out_dtype, Some(out_q))
        .map_err(|e| kerr(e.to_string()))
}

/// `qnn.dequantize`: the real values of `x` under `in_q` — the declared
/// params, not whatever the tensor carries.
pub fn dequantize(x: &Tensor, in_q: QuantParams) -> Result<Tensor, KernelError> {
    let vals: Vec<f32> = with_payload!(
        x,
        [I8 U8 I32],
        |v| v.iter().map(|q| in_q.dequantize(q.widen())).collect(),
        else => return Err(kerr("dequantize expects an integer tensor, got f32"))
    );
    Tensor::from_f32(x.shape().clone(), vals).map_err(|e| kerr(e.to_string()))
}

/// `f` over two operands broadcast to `out_shape`, in row-major output order.
fn broadcast_map<A: Copy, B: Copy, O>(
    (a, a_shape): (&[A], &Shape),
    (b, b_shape): (&[B], &Shape),
    out_shape: &Shape,
    f: impl Fn(A, B) -> O,
) -> Vec<O> {
    if a_shape == b_shape {
        return a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
    }
    let (sa, sb) = (
        broadcast_strides(a_shape, out_shape),
        broadcast_strides(b_shape, out_shape),
    );
    // Extent and operand steps along a row of the output (a scalar is one
    // row of one element); a step is 1, or 0 where the operand broadcasts.
    let len = out_shape.dims().last().copied().unwrap_or(1);
    let step_a = sa.last().copied().unwrap_or(0);
    let step_b = sb.last().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(out_shape.num_elements());
    for_each_row(out_shape.dims(), [&sa, &sb], &mut |[oa, ob]| {
        let (x0, y0) = (a[oa], b[ob]);
        // Both broadcasting along the row means a row of one element.
        match (step_a, step_b) {
            (0, _) => out.extend(b[ob..][..len].iter().map(|&y| f(x0, y))),
            (_, 0) => out.extend(a[oa..][..len].iter().map(|&x| f(x, y0))),
            _ => out.extend(
                a[oa..][..len]
                    .iter()
                    .zip(&b[ob..][..len])
                    .map(|(&x, &y)| f(x, y)),
            ),
        }
    });
    out
}

/// Stride per output dimension into an operand's buffer (0 where broadcast).
fn broadcast_strides(in_shape: &Shape, out_shape: &Shape) -> Vec<usize> {
    let in_dims = in_shape.dims();
    let offset = out_shape.rank() - in_dims.len();
    let in_strides = in_shape.strides();
    let mut strides = vec![0usize; out_shape.rank()];
    for i in 0..in_dims.len() {
        strides[offset + i] = if in_dims[i] == 1 { 0 } else { in_strides[i] };
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_float() {
        let x = Tensor::from_f32([4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = unary(&x, UnaryOp::Relu).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu6_and_clip() {
        let x = Tensor::from_f32([3], vec![-1.0, 3.0, 9.0]).unwrap();
        assert_eq!(
            unary(&x, UnaryOp::Relu6).unwrap().as_f32().unwrap(),
            &[0.0, 3.0, 6.0]
        );
        assert_eq!(
            unary(&x, UnaryOp::Clip(-0.5, 4.0))
                .unwrap()
                .as_f32()
                .unwrap(),
            &[-0.5, 3.0, 4.0]
        );
    }

    #[test]
    fn sigmoid_midpoint() {
        let x = Tensor::from_f32([1], vec![0.0]).unwrap();
        assert!((unary(&x, UnaryOp::Sigmoid).unwrap().as_f32().unwrap()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn quantized_relu_clamps_at_zero_point() {
        let qp = QuantParams::new(0.1, 100);
        let x = Tensor::from_int_values([4], &[50, 100, 150, 255], DType::U8, Some(qp)).unwrap();
        let y = unary(&x, UnaryOp::Relu).unwrap();
        // Values below zero_point (negative reals) clamp up to it.
        assert_eq!(y.iter_int().collect::<Vec<_>>(), vec![100, 100, 150, 255]);
        assert_eq!(y.quant(), Some(qp));
    }

    #[test]
    fn quantized_sigmoid_via_lut_path() {
        let qp = QuantParams::new(0.05, 0);
        let x = Tensor::from_int_values([1], &[0], DType::I8, Some(qp)).unwrap();
        let y = unary(&x, UnaryOp::Sigmoid).unwrap();
        // sigmoid(0) = 0.5 → 0.5/0.05 = 10.
        assert_eq!(y.int_at(0), 10);
    }

    #[test]
    fn binary_broadcast_add() {
        let a = Tensor::from_f32([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_f32([2], vec![10.0, 20.0]).unwrap();
        let y = binary_f32(&a, &b, BinaryOp::Add).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn binary_shape_error() {
        let a = Tensor::from_f32([3], vec![0.0; 3]).unwrap();
        let b = Tensor::from_f32([2], vec![0.0; 2]).unwrap();
        assert!(binary_f32(&a, &b, BinaryOp::Mul).is_err());
    }

    #[test]
    fn qadd_matches_real_sum() {
        let qa = QuantParams::new(0.1, 0);
        let qb = QuantParams::new(0.2, 5);
        let qo = QuantParams::new(0.25, 10);
        let a = Tensor::from_int_values([2], &[10, -10], DType::I8, Some(qa)).unwrap(); // 1.0, -1.0
        let b = Tensor::from_int_values([2], &[10, 10], DType::I8, Some(qb)).unwrap(); // 1.0, 1.0
        let y = qadd(&a, &b, qa, qb, qo, DType::I8).unwrap();
        // 2.0/0.25+10 = 18; 0.0/0.25+10 = 10.
        assert_eq!(y.iter_int().collect::<Vec<_>>(), vec![18, 10]);
    }

    #[test]
    fn qadd_saturates() {
        let q = QuantParams::new(1.0, 0);
        let a = Tensor::from_int_values([1], &[100], DType::I8, Some(q)).unwrap();
        let b = Tensor::from_int_values([1], &[100], DType::I8, Some(q)).unwrap();
        let y = qadd(&a, &b, q, q, q, DType::I8).unwrap();
        assert_eq!(y.int_at(0), 127);
    }

    /// What a file can hold and `f32::clamp` / `Ord::clamp` abort on.
    #[test]
    fn clip_bounds_that_are_not_a_range_are_errors_not_panics() {
        let x = Tensor::from_f32([3], vec![-1.0, 3.0, 9.0]).unwrap();
        assert!(unary(&x, UnaryOp::Clip(6.0, 0.0)).is_err());
        assert!(unary(&x, UnaryOp::Clip(f32::NAN, 1.0)).is_err());
        assert!(unary(&x, UnaryOp::Clip(0.0, f32::NAN)).is_err());
        let q =
            Tensor::from_int_values([1], &[7], DType::U8, Some(QuantParams::new(0.1, 3))).unwrap();
        assert!(unary(&q, UnaryOp::Clip(6.0, 0.0)).is_err());
    }

    #[test]
    fn zero_point_past_the_storage_range_is_an_error_not_a_panic() {
        let x = Tensor::from_int_values(
            [3],
            &[0, 100, 255],
            DType::U8,
            Some(QuantParams::new(0.1, 300)),
        )
        .unwrap();
        let err = unary(&x, UnaryOp::Relu).unwrap_err();
        assert!(err.0.contains("empty"), "{err}");
    }

    #[test]
    fn nan_elements_pass_through_a_clip() {
        let x = Tensor::from_f32([2], vec![f32::NAN, 7.0]).unwrap();
        let y = unary(&x, UnaryOp::Clip(0.0, 6.0)).unwrap();
        assert!(y.as_f32().unwrap()[0].is_nan());
        assert_eq!(y.as_f32().unwrap()[1], 6.0);
    }

    #[test]
    fn requantize_rescales_and_rejects_floats() {
        let qa = QuantParams::new(0.5, 10);
        let qb = QuantParams::new(0.25, 0);
        let x = Tensor::from_int_values([3], &[10, 12, 255], DType::U8, Some(qa)).unwrap();
        let y = requantize(&x, qa, qb, DType::I8).unwrap();
        // (q - 10) * 0.5 / 0.25 = 0, 4, 490 -> saturates.
        assert_eq!(y.iter_int().collect::<Vec<_>>(), vec![0, 4, 127]);
        assert_eq!(y.quant(), Some(qb));
        assert_eq!(
            dequantize(&x, qa).unwrap().as_f32().unwrap(),
            &[0.0, 1.0, 122.5]
        );
        let f = Tensor::zeros_f32([2]);
        assert!(requantize(&f, qa, qb, DType::I8).is_err());
        assert!(requantize(&x, qa, qb, DType::F32).is_err());
        assert!(dequantize(&f, qa).is_err());
    }
}
