//! The dense tensor value type shared by every layer of the stack.

use crate::dtype::DType;
use crate::quant::{QuantParams, Quantize};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised by tensor construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Element count does not match the shape.
    LengthMismatch { expected: usize, got: usize },
    /// An operation was asked to treat the tensor as the wrong dtype.
    DTypeMismatch { expected: DType, got: DType },
    /// Two shapes that had to agree did not.
    ShapeMismatch { left: Shape, right: Shape },
    /// The shape's element count does not fit a `usize`.
    TooManyElements { shape: Shape },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "data length {got} does not match shape element count {expected}"
                )
            }
            TensorError::DTypeMismatch { expected, got } => {
                write!(f, "expected dtype {expected}, got {got}")
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left} vs {right}")
            }
            TensorError::TooManyElements { shape } => {
                write!(f, "shape {shape} has more elements than a usize counts")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Backing storage, one dense row-major buffer per dtype.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Data {
    /// float32 elements.
    F32(Vec<f32>),
    /// int8 elements.
    I8(Vec<i8>),
    /// uint8 elements.
    U8(Vec<u8>),
    /// int32 elements.
    I32(Vec<i32>),
}

impl Data {
    fn len(&self) -> usize {
        match self {
            Data::F32(v) => v.len(),
            Data::I8(v) => v.len(),
            Data::U8(v) => v.len(),
            Data::I32(v) => v.len(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            Data::F32(_) => DType::F32,
            Data::I8(_) => DType::I8,
            Data::U8(_) => DType::U8,
            Data::I32(_) => DType::I32,
        }
    }
}

/// A storage element type, tied to its [`Data`] variant so a dtype-generic
/// kernel is written once and instantiated per type.
pub(crate) trait Elem: Copy + Send + Sync {
    /// Wrap a buffer of this type as tensor storage.
    fn wrap(v: Vec<Self>) -> Data;
    /// Borrow storage as this type, if that is its type.
    fn payload(data: &Data) -> Option<&[Self]>;
}

/// An integer storage element; arithmetic happens widened to `i32`.
pub(crate) trait IntElem: Elem + Ord {
    /// Smallest storable value.
    const MIN: i32;
    /// Largest storable value.
    const MAX: i32;
    /// Lossless widening.
    fn widen(self) -> i32;
    /// Saturating narrowing.
    fn narrow(v: i32) -> Self;
}

macro_rules! elem {
    ($t:ty, $variant:ident) => {
        impl Elem for $t {
            fn wrap(v: Vec<$t>) -> Data {
                Data::$variant(v)
            }
            fn payload(data: &Data) -> Option<&[$t]> {
                match data {
                    Data::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}
elem!(f32, F32);

macro_rules! int_elem {
    ($t:ty, $variant:ident) => {
        elem!($t, $variant);
        impl IntElem for $t {
            const MIN: i32 = <$t>::MIN as i32;
            const MAX: i32 = <$t>::MAX as i32;
            #[inline]
            fn widen(self) -> i32 {
                self as i32
            }
            #[inline]
            fn narrow(v: i32) -> $t {
                v.clamp(<$t as IntElem>::MIN, <$t as IntElem>::MAX) as $t
            }
        }
    };
}
int_elem!(i8, I8);
int_elem!(u8, U8);
int_elem!(i32, I32);

/// Evaluate `$body` with `$x` bound to the typed payload slice of tensor
/// `$t`, instantiated once per listed storage type (`[F32 I8 U8 I32]` or a
/// subset); `else =>` covers the types not listed.
macro_rules! with_payload {
    ($t:expr, [$($variant:ident)+], |$x:ident| $body:expr $(, else => $other:expr)?) => {
        match $t.data() {
            $($crate::tensor::Data::$variant($x) => $body,)+
            $(_ => $other,)?
        }
    };
}
pub(crate) use with_payload;

/// A dense row-major tensor.
///
/// Quantized tensors carry their affine [`QuantParams`] alongside the data;
/// this is exactly the *tensor-oriented* representation Neuron IR requires
/// and that §3.3 of the paper derives from Relay's operator-oriented QNN.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Shape,
    data: Data,
    /// Quantization parameters; `None` for float tensors and raw i32 indices.
    quant: Option<QuantParams>,
}

/// What a serialized tensor claims to be, before the invariant is checked.
#[derive(Deserialize)]
struct TensorRepr {
    shape: Shape,
    data: Data,
    quant: Option<QuantParams>,
}

impl Deserialize for Tensor {
    /// Through [`Tensor::from_data`]: a shape that lies about the payload
    /// length is an error here, not an out-of-bounds slice in a kernel.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let TensorRepr { shape, data, quant } = TensorRepr::from_value(v)?;
        Tensor::from_data(shape, data, quant).map_err(|e| serde::Error(e.to_string()))
    }
}

impl Tensor {
    /// Wrap typed storage: the one place the shape/length invariant is checked.
    pub(crate) fn from_data(
        shape: impl Into<Shape>,
        data: Data,
        quant: Option<QuantParams>,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        let Some(expected) = shape.checked_num_elements() else {
            return Err(TensorError::TooManyElements { shape });
        };
        if expected != data.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(Tensor { shape, data, quant })
    }

    /// Construct a float32 tensor.
    pub fn from_f32(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        Self::from_data(shape, Data::F32(data), None)
    }

    /// Construct an int32 tensor (bias/accumulator/index).
    pub fn from_i32(
        shape: impl Into<Shape>,
        data: Vec<i32>,
        quant: Option<QuantParams>,
    ) -> Result<Self, TensorError> {
        Self::from_data(shape, Data::I32(data), quant)
    }

    /// A float tensor of zeros.
    pub fn zeros_f32(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: Data::F32(vec![0.0; n]),
            quant: None,
        }
    }

    /// A float scalar.
    pub fn scalar_f32(v: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: Data::F32(vec![v]),
            quant: None,
        }
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Typed storage, for dtype-generic kernels (see [`with_payload`]).
    pub(crate) fn data(&self) -> &Data {
        &self.data
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Total elements.
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes of the payload.
    pub fn size_bytes(&self) -> usize {
        self.num_elements() * self.dtype().size_bytes()
    }

    /// Quantization parameters, if any.
    pub fn quant(&self) -> Option<QuantParams> {
        self.quant
    }

    /// Attach/replace quantization parameters (used by QNN propagation).
    pub fn with_quant(mut self, quant: QuantParams) -> Self {
        self.quant = Some(quant);
        self
    }

    /// Borrow the payload as `T`s, or report the tensor's actual dtype.
    fn typed<T: Elem>(&self, expected: DType) -> Result<&[T], TensorError> {
        T::payload(&self.data).ok_or(TensorError::DTypeMismatch {
            expected,
            got: self.dtype(),
        })
    }

    /// Borrow as `&[f32]`.
    pub fn as_f32(&self) -> Result<&[f32], TensorError> {
        self.typed(DType::F32)
    }

    /// Borrow as `&mut [f32]`.
    pub fn as_f32_mut(&mut self) -> Result<&mut [f32], TensorError> {
        match &mut self.data {
            Data::F32(v) => Ok(v),
            other => Err(TensorError::DTypeMismatch {
                expected: DType::F32,
                got: other.dtype(),
            }),
        }
    }

    /// Borrow as `&[i8]`.
    pub fn as_i8(&self) -> Result<&[i8], TensorError> {
        self.typed(DType::I8)
    }

    /// Borrow as `&[u8]`.
    pub fn as_u8(&self) -> Result<&[u8], TensorError> {
        self.typed(DType::U8)
    }

    /// Borrow as `&[i32]`.
    pub fn as_i32(&self) -> Result<&[i32], TensorError> {
        self.typed(DType::I32)
    }

    /// Iterate the integer payload widened to i32.
    pub fn iter_int(&self) -> Box<dyn Iterator<Item = i32> + '_> {
        with_payload!(
            self,
            [I8 U8 I32],
            |v| Box::new(v.iter().map(|x| x.widen())),
            else => panic!("iter_int on float tensor")
        )
    }

    /// Build an integer tensor of `dtype` from i32 values (saturating).
    pub fn from_int_values(
        shape: impl Into<Shape>,
        values: &[i32],
        dtype: DType,
        quant: Option<QuantParams>,
    ) -> Result<Self, TensorError> {
        let data = match dtype {
            DType::I8 => Data::I8(values.iter().map(|&v| i8::narrow(v)).collect()),
            DType::U8 => Data::U8(values.iter().map(|&v| u8::narrow(v)).collect()),
            DType::I32 => Data::I32(values.to_vec()),
            DType::F32 => {
                return Err(TensorError::DTypeMismatch {
                    expected: DType::I32,
                    got: DType::F32,
                })
            }
        };
        Self::from_data(shape, data, quant)
    }

    /// Dequantize (or pass through) to a float32 tensor.
    pub fn to_f32(&self) -> Tensor {
        let qp = self.quant.unwrap_or(QuantParams::identity());
        let vals: Vec<f32> = with_payload!(
            self,
            [I8 U8 I32],
            |x| x.iter().map(|q| qp.dequantize(q.widen())).collect(),
            else => return self.clone()
        );
        Tensor {
            shape: self.shape.clone(),
            data: Data::F32(vals),
            quant: None,
        }
    }

    /// Quantize a float tensor into `dtype` with the given params: each
    /// element [`QuantParams::quantize`]d, written as `dtype` in one pass.
    pub fn quantize(&self, qp: QuantParams, dtype: DType) -> Result<Tensor, TensorError> {
        fn into<T: IntElem>(x: &[f32], q: Quantize) -> Data {
            let mut out = vec![T::narrow(0); x.len()];
            q.block(x.iter().copied(), &mut out);
            T::wrap(out)
        }
        let x = self.as_f32()?;
        let mismatch = TensorError::DTypeMismatch {
            expected: DType::I32,
            got: DType::F32,
        };
        let q = Quantize::new(qp, dtype.int_range().ok_or(mismatch)?);
        let data = match dtype {
            DType::I8 => into::<i8>(x, q),
            DType::U8 => into::<u8>(x, q),
            _ => into::<i32>(x, q),
        };
        Tensor::from_data(self.shape.clone(), data, Some(qp))
    }

    /// Replace the shape without touching data (reshape).
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if !self.shape.reshape_compatible(&shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: shape,
            });
        }
        let mut t = self.clone();
        t.shape = shape;
        Ok(t)
    }

    /// Max absolute difference against another float tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        let a = self.to_f32();
        let b = other.to_f32();
        assert_eq!(a.shape, b.shape, "max_abs_diff shape mismatch");
        a.as_f32()
            .expect("to_f32 yields a float tensor")
            .iter()
            .zip(b.as_f32().expect("to_f32 yields a float tensor"))
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    /// Bit-exact equality of shape, dtype and payload.
    pub fn bit_eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.data == other.data
    }

    /// Index of the maximum element (float view), for classification heads.
    pub fn argmax(&self) -> usize {
        let f = self.to_f32();
        let v = f.as_f32().expect("to_f32 yields a float tensor");
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_f32([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.num_elements(), 4);
        assert_eq!(t.size_bytes(), 16);
        assert_eq!(t.as_f32().unwrap()[3], 4.0);
        assert!(t.as_i8().is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            Tensor::from_f32([2, 2], vec![1.0]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    /// The unchecked element count panicked here under overflow checks
    /// and, without them, wrapped `[2^63, 2]` to zero elements, so an
    /// empty buffer passed for it.
    #[test]
    fn element_count_past_usize_rejected() {
        let shape = [usize::MAX / 2 + 1, 2];
        assert!(matches!(
            Tensor::from_f32(shape, vec![]),
            Err(TensorError::TooManyElements { .. })
        ));
        assert!(matches!(
            Tensor::from_i32(shape, vec![], None),
            Err(TensorError::TooManyElements { .. })
        ));
    }

    #[test]
    fn quantize_roundtrip_within_half_scale() {
        let t = Tensor::from_f32([4], vec![-1.0, 0.0, 0.5, 1.0]).unwrap();
        let qp = QuantParams::from_range(-1.0, 1.0, DType::I8);
        let q = t.quantize(qp, DType::I8).unwrap();
        assert_eq!(q.dtype(), DType::I8);
        let back = q.to_f32();
        assert!(t.max_abs_diff(&back) <= qp.scale * 0.5 + 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_f32([2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshaped([3, 2]).unwrap();
        assert_eq!(r.as_f32().unwrap(), t.as_f32().unwrap());
        assert!(t.reshaped([4, 2]).is_err());
    }

    #[test]
    fn argmax_picks_peak() {
        let t = Tensor::from_f32([5], vec![0.1, 0.9, 0.3, 0.2, 0.05]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn argmax_reads_an_integer_tensor_through_its_params() {
        let qp = QuantParams::new(0.1, -3);
        let t = Tensor::from_int_values([4], &[-5, 3, -128, 2], DType::I8, Some(qp)).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn max_abs_diff_dequantizes_integer_operands() {
        let qp = QuantParams::new(0.25, 4);
        let q = Tensor::from_int_values([3], &[4, 8, 0], DType::U8, Some(qp)).unwrap();
        let f = Tensor::from_f32([3], vec![0.0, 1.0, -0.5]).unwrap();
        assert_eq!(q.max_abs_diff(&f), 0.5);
        assert_eq!(f.max_abs_diff(&q), 0.5);
        assert_eq!(q.max_abs_diff(&q), 0.0);
    }

    #[test]
    fn int_tensor_saturates() {
        let t = Tensor::from_int_values([3], &[300, -300, 7], DType::I8, None).unwrap();
        assert_eq!(t.as_i8().unwrap(), &[127, -128, 7]);
    }

    #[test]
    fn bit_eq_vs_approx_eq() {
        let a = Tensor::from_f32([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_f32([2], vec![1.0, 2.0 + 1e-6]).unwrap();
        assert!(!a.bit_eq(&b));
        assert!(a.max_abs_diff(&b) <= 1e-5);
    }

    /// Derived `Deserialize` would skip `from_data`; a lying shape then
    /// reaches a kernel as an out-of-bounds slice (conv.rs, reproduced
    /// with `{"data":{"F32":[..4 values..]},"quant":null,"shape":[1,1,64,64]}`).
    #[test]
    fn deserialize_checks_the_shape_against_the_payload() {
        let honest = Tensor::from_f32([1, 1, 2, 2], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let serde::Value::Object(mut fields) = honest.to_value() else {
            unreachable!("a tensor serializes as an object");
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["data", "quant", "shape"], "serialized form moved");
        assert_eq!(
            Tensor::from_value(&serde::Value::Object(fields.clone())),
            Ok(honest)
        );
        fields.insert("shape".into(), Shape::from([1, 1, 64, 64]).to_value());
        let err = Tensor::from_value(&serde::Value::Object(fields)).unwrap_err();
        assert!(
            err.0.contains("does not match shape element count 4096"),
            "{err}"
        );
    }
}
