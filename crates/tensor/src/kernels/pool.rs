//! 2-D pooling kernels over `NCHW` activations, float and quantized.
//!
//! A pooled element is *defined* as its window's reduction: a starting
//! value, then `+` (or the maximum) over the window's in-image elements
//! row-major, then a finish with their count. The walk blocks output
//! columns as the convolution walk does, so a block's partial results
//! advance through the window together in SIMD lanes while each element
//! keeps that sequence.

use super::conv::{f32_payload, padded, BLOCK};
use super::{kerr, KernelError};
use crate::tensor::{with_payload, Data, Elem, IntElem, Tensor};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Attributes of a 2-D pooling op, also Relay's `Pool2dAttrs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dParams {
    /// Pooling window (h, w).
    pub kernel: (usize, usize),
    /// Stride (h, w).
    pub strides: (usize, usize),
    /// Padding as (top, left, bottom, right).
    pub padding: (usize, usize, usize, usize),
    /// Whether average pooling divides by the full window size even when the
    /// window hangs over padding (TFLite: false).
    pub count_include_pad: bool,
}

impl Pool2dParams {
    /// Square window, stride = window, no padding (the common CNN reduction).
    pub fn square(k: usize) -> Self {
        Pool2dParams {
            kernel: (k, k),
            strides: (k, k),
            padding: (0, 0, 0, 0),
            count_include_pad: false,
        }
    }

    /// Output spatial size for an input `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize), KernelError> {
        let (pt, pl, pb, pr) = self.padding;
        if [self.strides.0, self.strides.1, self.kernel.0, self.kernel.1].contains(&0) {
            return Err(kerr(format!(
                "pool window {:?} and strides {:?} must be non-zero",
                self.kernel, self.strides
            )));
        }
        let (Some(ih), Some(iw)) = (padded(h, pt, pb), padded(w, pl, pr)) else {
            let padding = self.padding;
            return Err(kerr(format!("pool padding {padding:?} overflows")));
        };
        if ih < self.kernel.0 || iw < self.kernel.1 {
            return Err(kerr(format!(
                "pool window {:?} larger than padded input {ih}x{iw}",
                self.kernel
            )));
        }
        Ok((
            (ih - self.kernel.0) / self.strides.0 + 1,
            (iw - self.kernel.1) / self.strides.1 + 1,
        ))
    }
}

/// The shape rule of the 2-D pools: `input [n, c, h, w]` pools to
/// `[n, c, oh, ow]`. An average that leaves padding out of its count
/// (`avg` without `count_include_pad`) has nothing to divide in a window
/// wholly inside the padding, so that is refused; only the first or last
/// window along an axis can be one. A maximum over no element is defined.
pub fn pool2d_dims(
    input: &[usize],
    params: &Pool2dParams,
    avg: bool,
) -> Result<[usize; 4], KernelError> {
    let &[n, c, h, w] = input else {
        return Err(kerr(format!("pool2d expects rank-4 input, got {input:?}")));
    };
    let (oh, ow) = params.out_hw(h, w)?;
    if avg && !params.count_include_pad {
        let (pt, pl, _, _) = params.padding;
        let empty = |o: usize, stride: usize, k: usize, pad: usize, len: usize| {
            clip(0, stride, k, pad, len).is_empty() || clip(o - 1, stride, k, pad, len).is_empty()
        };
        let (kh, kw) = params.kernel;
        let (sh, sw) = params.strides;
        if empty(oh, sh, kh, pt, h) || empty(ow, sw, kw, pl, w) {
            return Err(kerr("avg_pool2d window lies wholly in padding"));
        }
    }
    Ok([n, c, oh, ow])
}

/// The shape rule of `nn.global_avg_pool2d`: `[n, c, h, w]` averages to
/// `[n, c, 1, 1]`, one window over the whole non-empty plane.
pub fn global_pool2d_dims(input: &[usize]) -> Result<[usize; 4], KernelError> {
    let &[_, _, h, w] = input else {
        return Err(kerr(format!(
            "global_avg_pool2d expects rank-4 input, got {input:?}"
        )));
    };
    pool2d_dims(input, &whole_plane(h, w), true)
}

/// The one window of a global pool over `h × w` planes.
fn whole_plane(h: usize, w: usize) -> Pool2dParams {
    Pool2dParams {
        kernel: (h, w),
        strides: (1, 1),
        padding: (0, 0, 0, 0),
        count_include_pad: false,
    }
}

/// `[lo, hi)` of the window starting at `o * stride - pad`, clipped to `len`.
fn clip(o: usize, stride: usize, k: usize, pad: usize, len: usize) -> Range<usize> {
    let start = o * stride;
    let lo = start.saturating_sub(pad).min(len);
    lo..(start + k).saturating_sub(pad).min(len).max(lo)
}

/// Reduce every window of `x`: `start`, then `step` over the window's
/// in-image elements row-major, then `finish` with their count. A block of
/// [`BLOCK`] adjacent output columns walks the window's rows and columns in
/// lock-step, so each element sees exactly that sequence while the inner
/// loop runs over contiguous partial sums.
fn pool<T: Elem + Default, A: Copy>(
    input: &Tensor,
    x: &[T],
    params: &Pool2dParams,
    avg: bool,
    start: A,
    step: impl Fn(A, T) -> A,
    finish: impl Fn(A, usize) -> T,
) -> Result<Tensor, KernelError> {
    let [n, c, oh, ow] = pool2d_dims(input.shape().dims(), params, avg)?;
    let (h, w) = (input.shape().dims()[2], input.shape().dims()[3]);
    let (pt, pl, _, _) = params.padding;
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.strides;
    // Output columns before input column `v`; no division at unit stride.
    let per_stride = |v: usize| if sw == 1 { v } else { v.div_ceil(sw) };
    let mut out = vec![T::default(); n * c * oh * ow];
    // `out_hw` made `oh · ow` non-zero.
    for (p, out) in out.chunks_exact_mut(oh * ow).enumerate() {
        let plane = &x[p * h * w..][..h * w];
        for ox0 in (0..ow).step_by(BLOCK) {
            let ox1 = (ox0 + BLOCK).min(ow);
            // In-image window columns of each output column of the block.
            let cols: [usize; BLOCK] = std::array::from_fn(|j| clip(ox0 + j, sw, kw, pl, w).len());
            for (oy, out) in out.chunks_exact_mut(ow).enumerate() {
                let rows = clip(oy, sh, kh, pt, h);
                let mut acc = [start; BLOCK];
                for iy in rows.clone() {
                    let row = &plane[iy * w..][..w];
                    for kx in 0..kw {
                        // Output column `ox` reads input column `ox·sw + kx − pl`.
                        let lo = per_stride(pl.saturating_sub(kx)).clamp(ox0, ox1);
                        let hi = per_stride((w + pl).saturating_sub(kx)).clamp(lo, ox1);
                        if lo == hi {
                            continue;
                        }
                        let acc = &mut acc[lo - ox0..hi - ox0];
                        let xs = &row[lo * sw + kx - pl..];
                        if sw == 1 {
                            for (a, &x) in acc.iter_mut().zip(xs) {
                                *a = step(*a, x);
                            }
                        } else {
                            for (a, &x) in acc.iter_mut().zip(xs.iter().step_by(sw)) {
                                *a = step(*a, x);
                            }
                        }
                    }
                }
                let sums = acc.iter().zip(&cols);
                for (o, (&acc, &cols)) in out[ox0..ox1].iter_mut().zip(sums) {
                    *o = finish(acc, rows.len() * cols);
                }
            }
        }
    }
    Tensor::from_data([n, c, oh, ow], T::wrap(out), input.quant()).map_err(|e| kerr(e.to_string()))
}

/// Max pooling. Works on float and quantized tensors (max commutes with the
/// affine map, so the output keeps the input's quantization parameters).
pub fn max_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor, KernelError> {
    fn int_max<T: IntElem + Default>(
        input: &Tensor,
        x: &[T],
        params: &Pool2dParams,
    ) -> Result<Tensor, KernelError> {
        // An empty window's maximum is 0.
        let finish = |m: T, taps: usize| if taps == 0 { T::narrow(0) } else { m };
        pool(input, x, params, false, T::narrow(T::MIN), Ord::max, finish)
    }
    with_payload!(
        input,
        [I8 U8 I32],
        |x| int_max(input, x, params),
        else => {
            let x = f32_payload(input)?;
            pool(input, x, params, false, f32::NEG_INFINITY, f32::max, |m, _| m)
        }
    )
}

/// Average pooling. For quantized input, averages in i32 with round-half-up,
/// keeping the input quantization parameters (TFLite semantics).
pub fn avg_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor, KernelError> {
    let full = params.kernel.0 * params.kernel.1;
    // Divisor of one window; [`pool2d_dims`] refused a window with no
    // element to divide by.
    let denom = |taps: usize| if params.count_include_pad { full } else { taps };
    fn int_sum<T: IntElem + Default>(
        input: &Tensor,
        x: &[T],
        params: &Pool2dParams,
        denom: impl Fn(usize) -> usize,
    ) -> Result<Tensor, KernelError> {
        let sum = |s: i64, v: T| s + v.widen() as i64;
        pool(input, x, params, true, 0, sum, |s, taps| {
            T::narrow(int_avg(s, denom(taps)))
        })
    }
    with_payload!(
        input,
        [I8 U8 I32],
        |x| int_sum(input, x, params, denom),
        else => {
            let x = f32_payload(input)?;
            let avg = |s: f32, taps: usize| s / denom(taps) as f32;
            pool(input, x, params, true, empty_sum(), |s, v| s + v, avg)
        }
    )
}

/// `sum / denom`, rounded half away from zero.
fn int_avg(sum: i64, denom: usize) -> i32 {
    let denom = denom as i64;
    (if sum >= 0 {
        (sum + denom / 2) / denom
    } else {
        (sum - denom / 2) / denom
    }) as i32
}

/// Where `Iterator::sum` of `f32`s starts, which the window sums keep.
fn empty_sum() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// Global average pooling to `[n, c, 1, 1]`: each float plane's elements
/// summed row-major from [`empty_sum`], then divided by their count, with
/// [`LANES`] planes advancing side by side; each integer plane's exact sum
/// averaged as [`avg_pool2d`] does.
pub fn global_avg_pool2d(input: &Tensor) -> Result<Tensor, KernelError> {
    fn int_planes<T: IntElem>(x: &[T], len: usize) -> Data {
        let avg = |p: &[T]| T::narrow(int_avg(p.iter().map(|v| v.widen() as i64).sum(), len));
        T::wrap(x.chunks_exact(len).map(avg).collect())
    }
    let d = input.shape().dims();
    let dims = global_pool2d_dims(d)?;
    // `global_pool2d_dims` made the plane non-empty.
    let len = d[2] * d[3];
    let x = with_payload!(
        input,
        [I8 U8 I32],
        |x| {
            let data = int_planes(x, len);
            return Tensor::from_data(dims, data, input.quant()).map_err(|e| kerr(e.to_string()));
        },
        else => f32_payload(input)?
    );
    let mut out = Vec::with_capacity(dims[0] * dims[1]);
    for planes in x.chunks(len * LANES) {
        if planes.len() == len * LANES {
            out.extend(plane_sums::<LANES>(planes, len));
        } else {
            for plane in planes.chunks_exact(len) {
                out.extend(plane_sums::<1>(plane, len));
            }
        }
    }
    for s in &mut out {
        *s /= len as f32;
    }
    Tensor::from_f32(dims, out).map_err(|e| kerr(e.to_string()))
}

/// The row-major sums of the `L` planes of `len` elements in `x`, side by
/// side.
fn plane_sums<const L: usize>(x: &[f32], len: usize) -> [f32; L] {
    let planes: [&[f32]; L] = std::array::from_fn(|p| &x[p * len..][..len]);
    let mut acc = [empty_sum(); L];
    for i in 0..len {
        for (a, plane) in acc.iter_mut().zip(&planes) {
            *a += plane[i];
        }
    }
    acc
}

/// Planes a global pool sums side by side.
const LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::quant::QuantParams;

    #[test]
    fn max_pool_2x2() {
        let x = Tensor::from_f32([1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let y = max_pool2d(&x, &Pool2dParams::square(2)).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let x = Tensor::from_f32([1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let y = avg_pool2d(&x, &Pool2dParams::square(2)).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[4.0]);
    }

    #[test]
    fn avg_pool_excludes_pad_by_default() {
        let mut p = Pool2dParams::square(2);
        p.padding = (1, 1, 0, 0);
        p.strides = (2, 2);
        let x = Tensor::from_f32([1, 1, 2, 2], vec![4.0, 4.0, 4.0, 4.0]).unwrap();
        let y = avg_pool2d(&x, &p).unwrap();
        // Top-left window covers only element (0,0): average is 4, not 1.
        assert_eq!(y.as_f32().unwrap()[0], 4.0);
    }

    #[test]
    fn global_avg() {
        let x = Tensor::from_f32(
            [1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        )
        .unwrap();
        let y = global_avg_pool2d(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(y.as_f32().unwrap(), &[2.5, 10.0]);
    }

    #[test]
    fn quantized_max_pool_keeps_params() {
        let qp = QuantParams::new(0.5, 3);
        let x = Tensor::from_int_values([1, 1, 2, 2], &[1, 9, 4, 2], DType::U8, Some(qp)).unwrap();
        let y = max_pool2d(&x, &Pool2dParams::square(2)).unwrap();
        assert_eq!(y.iter_int().next(), Some(9));
        assert_eq!(y.quant(), Some(qp));
    }

    #[test]
    fn quantized_avg_rounds() {
        let qp = QuantParams::new(1.0, 0);
        let x = Tensor::from_int_values([1, 1, 2, 2], &[1, 2, 2, 2], DType::U8, Some(qp)).unwrap();
        let y = avg_pool2d(&x, &Pool2dParams::square(2)).unwrap();
        // (1+2+2+2)/4 = 1.75 → rounds to 2.
        assert_eq!(y.iter_int().next(), Some(2));
    }

    #[test]
    fn window_too_large_rejected() {
        let x = Tensor::zeros_f32([1, 1, 2, 2]);
        assert!(max_pool2d(&x, &Pool2dParams::square(3)).is_err());
    }

    #[test]
    fn zero_stride_or_window_is_an_error() {
        let x = Tensor::zeros_f32([1, 1, 4, 4]);
        for (kernel, strides) in [((2, 2), (0, 1)), ((2, 2), (1, 0)), ((0, 2), (1, 1))] {
            let p = Pool2dParams {
                kernel,
                strides,
                ..Pool2dParams::square(2)
            };
            assert!(max_pool2d(&x, &p).is_err());
            assert!(avg_pool2d(&x, &p).is_err());
        }
    }

    #[test]
    fn padding_past_usize_is_an_error_not_an_overflow() {
        let x = Tensor::zeros_f32([1, 1, 4, 4]);
        for padding in [(usize::MAX, 0, 1, 0), (0, 2, 0, usize::MAX - 1)] {
            let p = Pool2dParams {
                padding,
                ..Pool2dParams::square(2)
            };
            let err = p.out_hw(4, 4).unwrap_err();
            assert!(err.0.contains("overflows"), "{err}");
            assert!(max_pool2d(&x, &p).is_err());
        }
    }

    #[test]
    fn avg_pool_window_in_padding_is_an_error() {
        // Two rows of top padding under a 2x2 window: the first output row
        // averages no element at all. The integer path used to divide by
        // zero and the float path to emit NaN.
        let p = Pool2dParams {
            padding: (2, 0, 0, 0),
            strides: (1, 1),
            ..Pool2dParams::square(2)
        };
        let xf = Tensor::from_f32([1, 1, 2, 2], vec![1.0; 4]).unwrap();
        let xq = Tensor::from_int_values([1, 1, 2, 2], &[1; 4], DType::U8, None).unwrap();
        assert!(avg_pool2d(&xf, &p).is_err());
        assert!(avg_pool2d(&xq, &p).is_err());
        // Counting the padding, or taking the maximum, stays defined.
        let counted = Pool2dParams {
            count_include_pad: true,
            ..p
        };
        assert_eq!(avg_pool2d(&xf, &counted).unwrap().as_f32().unwrap()[0], 0.0);
        assert_eq!(max_pool2d(&xq, &p).unwrap().iter_int().next(), Some(0));
    }
}
