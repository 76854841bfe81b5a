//! 2-D pooling kernels over `NCHW` activations, float and quantized.

use super::conv::padded;
use super::{kerr, KernelError};
use crate::tensor::{with_payload, Elem, IntElem, Tensor};
use std::ops::Range;

/// Attributes of a 2-D pooling op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The in-image part of one pooling window, row-major.
struct Window<'a, T> {
    plane: &'a [T],
    width: usize,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl<T: Copy> Window<'_, T> {
    fn taps(&self) -> impl Iterator<Item = T> + '_ {
        self.rows
            .clone()
            .flat_map(|iy| &self.plane[iy * self.width..][self.cols.clone()])
            .copied()
    }

    fn len(&self) -> usize {
        self.rows.len() * self.cols.len()
    }
}

/// `[lo, hi)` of the window starting at `o * stride - pad`, clipped to `len`.
fn clip(o: usize, stride: usize, k: usize, pad: usize, len: usize) -> Range<usize> {
    let start = o * stride;
    let lo = start.saturating_sub(pad).min(len);
    lo..(start + k).saturating_sub(pad).min(len).max(lo)
}

/// Reduce every window of `x` with `f`, in output order.
fn pool<T: Elem>(
    input: &Tensor,
    x: &[T],
    params: &Pool2dParams,
    f: impl Fn(Window<'_, T>) -> Result<T, KernelError>,
) -> Result<Tensor, KernelError> {
    let d = input.shape().dims();
    if d.len() != 4 {
        return Err(kerr(format!("pool2d expects rank-4 input, got {d:?}")));
    }
    let (h, w) = (d[2], d[3]);
    let (oh, ow) = params.out_hw(h, w)?;
    let (pt, pl, _, _) = params.padding;
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.strides;
    let mut out = Vec::with_capacity(d[0] * d[1] * oh * ow);
    for plane in x.chunks((h * w).max(1)) {
        for oy in 0..oh {
            let rows = clip(oy, sh, kh, pt, h);
            for ox in 0..ow {
                out.push(f(Window {
                    plane,
                    width: w,
                    rows: rows.clone(),
                    cols: clip(ox, sw, kw, pl, w),
                })?);
            }
        }
    }
    Tensor::from_data([d[0], d[1], oh, ow], T::wrap(out), input.quant())
        .map_err(|e| kerr(e.to_string()))
}

/// Max pooling. Works on float and quantized tensors (max commutes with the
/// affine map, so the output keeps the input's quantization parameters).
pub fn max_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor, KernelError> {
    fn int_max<T: IntElem>(win: Window<'_, T>) -> Result<T, KernelError> {
        Ok(win.taps().max().unwrap_or(T::narrow(0)))
    }
    with_payload!(
        input,
        [I8 U8 I32],
        |x| pool(input, x, params, int_max),
        else => pool(input, input.as_f32().unwrap(), params, |win| {
            Ok(win.taps().fold(f32::NEG_INFINITY, f32::max))
        })
    )
}

/// Average pooling. For quantized input, averages in i32 with round-half-up,
/// keeping the input quantization parameters (TFLite semantics).
pub fn avg_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor, KernelError> {
    let full = params.kernel.0 * params.kernel.1;
    // Divisor of one window; excluding padding, a window wholly inside the
    // padding has nothing to average.
    let denom = |taps: usize| match (params.count_include_pad, taps) {
        (true, _) => Ok(full),
        (false, 0) => Err(kerr("avg_pool2d window lies wholly in padding".to_string())),
        (false, taps) => Ok(taps),
    };
    let int_avg = |sum: i64, taps: usize| -> Result<i32, KernelError> {
        let denom = denom(taps)? as i64;
        // round-half-away-from-zero
        Ok(if sum >= 0 {
            (sum + denom / 2) / denom
        } else {
            (sum - denom / 2) / denom
        } as i32)
    };
    fn int_sum<T: IntElem>(win: &Window<'_, T>) -> i64 {
        win.taps().map(|v| v.widen() as i64).sum()
    }
    with_payload!(
        input,
        [I8 U8 I32],
        |x| pool(input, x, params, |win| {
            int_avg(int_sum(&win), win.len()).map(IntElem::narrow)
        }),
        else => pool(input, input.as_f32().unwrap(), params, |win| {
            Ok(win.taps().sum::<f32>() / denom(win.len())? as f32)
        })
    )
}

/// Global average pooling to `[n, c, 1, 1]`.
pub fn global_avg_pool2d(input: &Tensor) -> Result<Tensor, KernelError> {
    let d = input.shape().dims();
    if d.len() != 4 {
        return Err(kerr(format!(
            "global_avg_pool2d expects rank-4 input, got {d:?}"
        )));
    }
    let params = Pool2dParams {
        kernel: (d[2], d[3]),
        strides: (1, 1),
        padding: (0, 0, 0, 0),
        count_include_pad: false,
    };
    avg_pool2d(input, &params)
}

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
        assert_eq!(y.int_at(0), 9);
        assert_eq!(y.quant(), Some(qp));
    }

    #[test]
    fn quantized_avg_rounds() {
        let qp = QuantParams::new(1.0, 0);
        let x = Tensor::from_int_values([1, 1, 2, 2], &[1, 2, 2, 2], DType::U8, Some(qp)).unwrap();
        let y = avg_pool2d(&x, &Pool2dParams::square(2)).unwrap();
        // (1+2+2+2)/4 = 1.75 → rounds to 2.
        assert_eq!(y.int_at(0), 2);
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
        assert_eq!(max_pool2d(&xq, &p).unwrap().int_at(0), 0);
    }
}
