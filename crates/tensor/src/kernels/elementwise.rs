//! Element-wise unary and (broadcasting) binary kernels, float and quantized.

use super::{kerr, KernelError};
use crate::dtype::DType;
use crate::quant::QuantParams;
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
    pub fn eval(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Relu6 => x.clamp(0.0, 6.0),
            UnaryOp::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Clip(lo, hi) => x.clamp(lo, hi),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Neg => -x,
        }
    }
}

/// Apply a unary op.
///
/// Float tensors are mapped directly. Quantized tensors support the
/// clamp-family ops (`Relu`, `Relu6`, `Clip`) natively in the integer domain
/// (clamping at the quantized image of the real bound, like TFLite's fused
/// activations); other ops go through dequantize → op → requantize.
pub fn unary(input: &Tensor, op: UnaryOp) -> Result<Tensor, KernelError> {
    if input.dtype().is_float() {
        let v: Vec<f32> = input
            .as_f32()
            .unwrap()
            .iter()
            .map(|&x| op.eval(x))
            .collect();
        return Tensor::from_f32(input.shape().clone(), v).map_err(|e| kerr(e.to_string()));
    }
    let qp = input
        .quant()
        .ok_or_else(|| kerr("quantized unary requires quant params".to_string()))?;
    let (dlo, dhi) = input.dtype().int_range().expect("quantized dtype");
    let clamp_q = |lo: f32, hi: f32| -> (i32, i32) {
        (
            qp.quantize(lo, input.dtype()).max(dlo),
            qp.quantize(hi, input.dtype()).min(dhi),
        )
    };
    // Clamp-family ops stay in the integer domain; the rest dequantize,
    // evaluate and requantize with the same params — the lookup-table
    // strategy integer runtimes use.
    let clamp = match op {
        UnaryOp::Relu => Some((qp.zero_point.max(dlo), dhi)),
        UnaryOp::Relu6 => Some(clamp_q(0.0, 6.0)),
        UnaryOp::Clip(lo, hi) => Some(clamp_q(lo, hi)),
        _ => None,
    };
    let eval = |q: i32| match clamp {
        Some((qlo, qhi)) => q.clamp(qlo, qhi),
        None => qp.quantize(op.eval(qp.dequantize(q)), input.dtype()),
    };
    let data = with_payload!(
        input,
        [I8 U8 I32],
        |x| map_ints(x, eval),
        else => unreachable!("float input handled above")
    );
    Tensor::from_data(input.shape().clone(), data, Some(qp)).map_err(|e| kerr(e.to_string()))
}

/// Apply `f` in the widened domain and saturate back into the storage type.
fn map_ints<T: IntElem>(x: &[T], f: impl Fn(i32) -> i32) -> Data {
    T::wrap(x.iter().map(|v| T::narrow(f(v.widen()))).collect())
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

/// Broadcasting float binary op.
pub fn binary_f32(a: &Tensor, b: &Tensor, op: BinaryOp) -> Result<Tensor, KernelError> {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .ok_or_else(|| kerr(format!("cannot broadcast {} with {}", a.shape(), b.shape())))?;
    let av = a.as_f32().map_err(|e| kerr(e.to_string()))?;
    let bv = b.as_f32().map_err(|e| kerr(e.to_string()))?;
    let out = broadcast_map((av, a.shape()), (bv, b.shape()), &out_shape, |x, y| {
        op.eval(x, y)
    });
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
    let add = |qa: i32, qb: i32| {
        let (ra, rb) = (a_q.dequantize(qa), b_q.dequantize(qb));
        let q = ((ra + rb) / out_q.scale).round() as i64 + out_q.zero_point as i64;
        q.clamp(lo as i64, hi as i64) as i32
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
    O::wrap(broadcast_map(a, b, out_shape, |x, y| {
        O::narrow(add(x.widen(), y.widen()))
    }))
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
    // row of one element).
    let len = out_shape.dims().last().copied().unwrap_or(1);
    let step_a = sa.last().copied().unwrap_or(0);
    let step_b = sb.last().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(out_shape.num_elements());
    for_each_row(out_shape.dims(), [&sa, &sb], &mut |[oa, ob]| {
        out.extend((0..len).map(|j| f(a[oa + j * step_a], b[ob + j * step_b])));
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
}
