//! Data-movement kernels: transpose, concat, pad, slice, flatten, resize.
//!
//! These ops are dtype-generic: they move elements without arithmetic, so
//! quantized tensors keep their parameters.

use super::conv::padded;
use super::{kerr, KernelError};
use crate::dtype::DType;
use crate::shape::{for_each_row, Shape};
use crate::tensor::{with_payload, Data, Elem, IntElem, Tensor};

/// Gather `x[base + Σ idx[d] · strides[d]]` over the row-major `dims` space
/// into a tensor of `input`'s dtype and quant params.
fn gather(
    input: &Tensor,
    dims: Vec<usize>,
    strides: &[usize],
    base: usize,
) -> Result<Tensor, KernelError> {
    fn rows<T: Elem>(x: &[T], dims: &[usize], strides: &[usize], base: usize) -> Data {
        let len = dims.last().copied().unwrap_or(1);
        let step = strides.last().copied().unwrap_or(0);
        let mut out = Vec::with_capacity(dims.iter().product());
        for_each_row(dims, [strides], &mut |[o]| match step {
            1 => out.extend_from_slice(&x[base + o..][..len]),
            _ => out.extend((0..len).map(|j| x[base + o + j * step])),
        });
        T::wrap(out)
    }
    let data = with_payload!(input, [F32 I8 U8 I32], |x| rows(x, &dims, strides, base));
    Tensor::from_data(dims, data, input.quant()).map_err(|e| kerr(e.to_string()))
}

/// The shape rule of `transpose`: `axes` a permutation of the input's
/// axes; output dim `i` is input dim `axes[i]`.
pub fn transpose_dims(input: &[usize], axes: &[usize]) -> Result<Vec<usize>, KernelError> {
    if axes.len() != input.len() {
        return Err(kerr(format!(
            "transpose axes {axes:?} wrong rank for {input:?}"
        )));
    }
    let fresh = |(i, &a): (usize, &usize)| a < input.len() && !axes[..i].contains(&a);
    if !axes.iter().enumerate().all(fresh) {
        return Err(kerr(format!("transpose axes {axes:?} not a permutation")));
    }
    Ok(axes.iter().map(|&a| input[a]).collect())
}

/// Permute axes: `transpose(x, axes)`.
pub fn transpose(input: &Tensor, axes: &[usize]) -> Result<Tensor, KernelError> {
    let out_dims = transpose_dims(input.shape().dims(), axes)?;
    let in_strides = input.shape().strides();
    let src_strides: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
    gather(input, out_dims, &src_strides, 0)
}

/// The shape rule of `concatenate`: one or more inputs of one rank that
/// agree off `axis`; the output's `axis` dim is the sum of theirs.
pub fn concat_dims<'a>(
    inputs: impl IntoIterator<Item = &'a [usize]>,
    axis: usize,
) -> Result<Vec<usize>, KernelError> {
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Err(kerr("concat of zero tensors"));
    };
    let rank = first.len();
    if axis >= rank {
        return Err(kerr(format!(
            "concat axis {axis} out of range for rank {rank}"
        )));
    }
    let mut out = first.to_vec();
    for dims in inputs {
        if dims.len() != rank {
            return Err(kerr(format!("concat of ranks {rank} and {}", dims.len())));
        }
        for (d, (&a, &b)) in dims.iter().zip(first).enumerate() {
            if d != axis && a != b {
                return Err(kerr(format!(
                    "concat non-axis dim {d} mismatch: {a} vs {b}"
                )));
            }
        }
        out[axis] = (out[axis].checked_add(dims[axis]))
            .ok_or_else(|| kerr(format!("concat axis {axis} overflows")))?;
    }
    Ok(out)
}

/// Concatenate along `axis`. All inputs must share dtype and satisfy
/// [`concat_dims`]; quant params are taken from the first input (QNN
/// concat requires pre-aligned scales, which the frontends guarantee).
pub fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor, KernelError> {
    let out_shape = Shape::new(concat_dims(inputs.iter().map(|t| t.shape().dims()), axis)?);
    let first = inputs[0];
    if inputs.iter().any(|t| t.dtype() != first.dtype()) {
        return Err(kerr("concat dtype mismatch"));
    }

    // outer = product of dims before axis; inner = product after.
    let outer: usize = first.shape().dims()[..axis].iter().product();
    let inner: usize = first.shape().dims()[axis + 1..].iter().product();

    fn interleave<T: Elem>(inputs: &[&Tensor], axis: usize, outer: usize, inner: usize) -> Data {
        let parts: Vec<(&[T], usize)> = inputs
            .iter()
            .map(|t| {
                let x = T::payload(t.data()).expect("dtypes checked equal");
                (x, t.shape().dims()[axis] * inner)
            })
            .collect();
        let mut out = Vec::with_capacity(parts.iter().map(|(x, _)| x.len()).sum());
        for o in 0..outer {
            for (x, run) in &parts {
                out.extend_from_slice(&x[o * run..(o + 1) * run]);
            }
        }
        T::wrap(out)
    }
    let data = match first.dtype() {
        DType::F32 => interleave::<f32>(inputs, axis, outer, inner),
        DType::I8 => interleave::<i8>(inputs, axis, outer, inner),
        DType::U8 => interleave::<u8>(inputs, axis, outer, inner),
        DType::I32 => interleave::<i32>(inputs, axis, outer, inner),
    };
    Tensor::from_data(out_shape, data, first.quant()).map_err(|e| kerr(e.to_string()))
}

/// The shape rule of `nn.pad`: one (before, after) pair per input dim,
/// each added to it.
pub fn pad_dims(input: &[usize], pads: &[(usize, usize)]) -> Result<Vec<usize>, KernelError> {
    if pads.len() != input.len() {
        return Err(kerr(format!(
            "pad spec rank {} != tensor rank {}",
            pads.len(),
            input.len()
        )));
    }
    let overflow = || kerr(format!("pad {pads:?} of {input:?} overflows"));
    let pad = |(&d, &(b, a)): (&usize, &(usize, usize))| padded(d, b, a).ok_or_else(overflow);
    input.iter().zip(pads).map(pad).collect()
}

/// Constant-pad with per-dimension (before, after) amounts.
pub fn pad(input: &Tensor, pads: &[(usize, usize)], value: f32) -> Result<Tensor, KernelError> {
    let dims = input.shape().dims();
    let out_shape = Shape::new(pad_dims(dims, pads)?);
    let out_strides = out_shape.strides();
    // Where input element [0, .., 0] lands in the output.
    let base: usize = pads
        .iter()
        .zip(&out_strides)
        .map(|(&(b, _), &s)| b * s)
        .sum();

    /// Copy the rows of `x` into a buffer of `n` fill values.
    fn place<T: Elem>(
        x: &[T],
        dims: &[usize],
        out_strides: &[usize],
        base: usize,
        (fill, n): (T, usize),
    ) -> Data {
        let mut out = vec![fill; n];
        let len = dims.last().copied().unwrap_or(1);
        let mut rows = x.chunks(len.max(1));
        for_each_row(dims, [out_strides], &mut |[o]| {
            let row = rows.next().expect("one chunk per input row");
            out[base + o..][..len].copy_from_slice(row);
        });
        T::wrap(out)
    }
    let n = out_shape.num_elements();
    // For quantized tensors, the pad value is in the real domain; store
    // its quantized image (TFLite pads with the zero point for value 0).
    let qv = input
        .quant()
        .map(|q| q.quantize(value, input.dtype()))
        .unwrap_or(value as i32);
    let data = with_payload!(
        input,
        [I8 U8 I32],
        |x| place(x, dims, &out_strides, base, (IntElem::narrow(qv), n)),
        else => place(input.as_f32().unwrap(), dims, &out_strides, base, (value, n))
    );
    Tensor::from_data(out_shape, data, input.quant()).map_err(|e| kerr(e.to_string()))
}

/// The shape rule of `strided_slice` with unit strides: a non-empty
/// `[begin, end)` inside every input dim; the output dim is its length.
pub fn slice_dims(
    input: &[usize],
    begin: &[usize],
    end: &[usize],
) -> Result<Vec<usize>, KernelError> {
    if begin.len() != input.len() || end.len() != input.len() {
        return Err(kerr("slice begin/end rank mismatch"));
    }
    for d in 0..input.len() {
        if begin[d] >= end[d] || end[d] > input[d] {
            return Err(kerr(format!(
                "slice range [{}, {}) invalid for dim {d} of size {}",
                begin[d], end[d], input[d]
            )));
        }
    }
    Ok(begin.iter().zip(end).map(|(&b, &e)| e - b).collect())
}

/// `strided_slice(begin, end)` with unit strides.
pub fn slice(input: &Tensor, begin: &[usize], end: &[usize]) -> Result<Tensor, KernelError> {
    let out_dims = slice_dims(input.shape().dims(), begin, end)?;
    let strides = input.shape().strides();
    gather(input, out_dims, &strides, input.shape().offset(begin))
}

/// The shape rule of `nn.batch_flatten`: `[n, ...]` flattens to
/// `[n, prod(...)]`.
pub fn batch_flatten_dims(input: &[usize]) -> Result<[usize; 2], KernelError> {
    match input {
        [n, rest @ ..] => Ok([*n, rest.iter().product()]),
        [] => Err(kerr("batch_flatten needs rank >= 1")),
    }
}

/// `batch_flatten`: `[n, ...] → [n, prod(...)]`.
pub fn batch_flatten(input: &Tensor) -> Result<Tensor, KernelError> {
    let dims = batch_flatten_dims(input.shape().dims())?;
    input.reshaped(dims).map_err(|e| kerr(e.to_string()))
}

/// Interpolation used by [`resize2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeMethod {
    /// Nearest neighbour (asymmetric coordinates).
    Nearest,
    /// Bilinear (half-pixel coordinates).
    Bilinear,
}

/// The shape rule of `image.resize2d`: non-empty `NCHW` planes resized to
/// a non-empty `out_h × out_w`.
pub fn resize2d_dims(
    input: &[usize],
    out_h: usize,
    out_w: usize,
) -> Result<[usize; 4], KernelError> {
    let &[n, c, h, w] = input else {
        return Err(kerr(format!(
            "resize2d expects rank-4 input, got {input:?}"
        )));
    };
    if [h, w, out_h, out_w].contains(&0) {
        return Err(kerr(format!(
            "resize2d from {h}x{w} to {out_h}x{out_w}: both must be non-empty"
        )));
    }
    Ok([n, c, out_h, out_w])
}

/// Resize `NCHW` activations to `(out_h, out_w)`.
pub fn resize2d(
    input: &Tensor,
    out_h: usize,
    out_w: usize,
    method: ResizeMethod,
) -> Result<Tensor, KernelError> {
    let dims = input.shape().dims();
    let out_dims = resize2d_dims(dims, out_h, out_w)?;
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let fsrc = input.to_f32();
    let x = fsrc.as_f32().unwrap();
    let mut out = vec![0.0f32; n * c * out_h * out_w];
    let sy = h as f32 / out_h as f32;
    let sx = w as f32 / out_w as f32;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let obase = (ni * c + ci) * out_h * out_w;
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let v = match method {
                        ResizeMethod::Nearest => {
                            let iy = ((oy as f32 * sy) as usize).min(h - 1);
                            let ix = ((ox as f32 * sx) as usize).min(w - 1);
                            x[base + iy * w + ix]
                        }
                        ResizeMethod::Bilinear => {
                            let fy = ((oy as f32 + 0.5) * sy - 0.5).clamp(0.0, (h - 1) as f32);
                            let fx = ((ox as f32 + 0.5) * sx - 0.5).clamp(0.0, (w - 1) as f32);
                            let y0 = fy.floor() as usize;
                            let x0 = fx.floor() as usize;
                            let y1 = (y0 + 1).min(h - 1);
                            let x1 = (x0 + 1).min(w - 1);
                            let dy = fy - y0 as f32;
                            let dx = fx - x0 as f32;
                            let v00 = x[base + y0 * w + x0];
                            let v01 = x[base + y0 * w + x1];
                            let v10 = x[base + y1 * w + x0];
                            let v11 = x[base + y1 * w + x1];
                            v00 * (1.0 - dy) * (1.0 - dx)
                                + v01 * (1.0 - dy) * dx
                                + v10 * dy * (1.0 - dx)
                                + v11 * dy * dx
                        }
                    };
                    out[obase + oy * out_w + ox] = v;
                }
            }
        }
    }
    let result = Tensor::from_f32(out_dims, out).map_err(|e| kerr(e.to_string()))?;
    if input.dtype().is_float() {
        Ok(result)
    } else {
        // Requantize back into the source parameters to stay in the integer
        // domain end-to-end.
        let qp = input.quant().expect("quantized tensor has params");
        result
            .quantize(qp, input.dtype())
            .map_err(|e| kerr(e.to_string()))
    }
}

/// The shape rule of `mean` (keepdims = false): every axis inside the
/// input's rank; the output drops those dims.
pub fn mean_dims(input: &[usize], axes: &[usize]) -> Result<Vec<usize>, KernelError> {
    if let Some(a) = axes.iter().find(|&&a| a >= input.len()) {
        return Err(kerr(format!("mean axis {a} out of range")));
    }
    let kept = input.iter().enumerate().filter(|(d, _)| !axes.contains(d));
    Ok(kept.map(|(_, &s)| s).collect())
}

/// Mean over the given axes (keepdims = false), float only.
pub fn mean_f32(input: &Tensor, axes: &[usize]) -> Result<Tensor, KernelError> {
    let dims = input.shape().dims();
    let out_shape = Shape::new(mean_dims(dims, axes)?);
    let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
    // Output stride of every input dimension: 0 along the reduced axes.
    let mut out_strides = vec![0usize; dims.len()];
    let (mut stride, mut count) = (1usize, 1usize);
    for d in (0..dims.len()).rev() {
        if axes.contains(&d) {
            count *= dims[d];
        } else {
            out_strides[d] = stride;
            stride *= dims[d];
        }
    }
    // Each output sees its inputs in flat input order, one row at a time.
    let mut sums = vec![0.0f32; out_shape.num_elements()];
    let len = dims.last().copied().unwrap_or(1);
    let reduce_rows = out_strides.last() == Some(&0);
    let mut rows = x.chunks(len.max(1));
    for_each_row(dims, [&out_strides], &mut |[o]| {
        let row = rows.next().expect("one chunk per input row");
        if reduce_rows {
            row.iter().for_each(|&v| sums[o] += v);
        } else {
            sums[o..][..row.len()]
                .iter_mut()
                .zip(row)
                .for_each(|(s, &v)| *s += v);
        }
    });
    for s in sums.iter_mut() {
        *s /= count.max(1) as f32;
    }
    Tensor::from_f32(out_shape, sums).map_err(|e| kerr(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::quant::QuantParams;

    #[test]
    fn transpose_2d() {
        let x = Tensor::from_f32([2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let y = transpose(&x, &[1, 0]).unwrap();
        assert_eq!(y.shape().dims(), &[3, 2]);
        assert_eq!(y.as_f32().unwrap(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn transpose_nchw_to_nhwc_roundtrip() {
        let x = Tensor::from_f32([1, 2, 2, 3], (0..12).map(|v| v as f32).collect()).unwrap();
        let nhwc = transpose(&x, &[0, 2, 3, 1]).unwrap();
        let back = transpose(&nhwc, &[0, 3, 1, 2]).unwrap();
        assert!(x.bit_eq(&back));
    }

    #[test]
    fn transpose_rejects_non_permutation() {
        let x = Tensor::zeros_f32([2, 2]);
        assert!(transpose(&x, &[0, 0]).is_err());
        assert!(transpose(&x, &[0]).is_err());
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_f32([2, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_f32([2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = concat(&[&a, &b], 1).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.as_f32().unwrap(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_quantized_keeps_params() {
        let qp = QuantParams::new(0.5, 1);
        let a = Tensor::from_int_values([1, 2], &[1, 2], DType::U8, Some(qp)).unwrap();
        let b = Tensor::from_int_values([1, 2], &[3, 4], DType::U8, Some(qp)).unwrap();
        let y = concat(&[&a, &b], 0).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2]);
        assert_eq!(y.quant(), Some(qp));
    }

    #[test]
    fn concat_rejects_mismatch() {
        let a = Tensor::zeros_f32([2, 2]);
        let b = Tensor::zeros_f32([3, 3]);
        assert!(concat(&[&a, &b], 0).is_err());
    }

    #[test]
    fn pad_spatial() {
        let x = Tensor::from_f32([1, 1, 1, 1], vec![5.0]).unwrap();
        let y = pad(&x, &[(0, 0), (0, 0), (1, 1), (1, 1)], 0.0).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
        let v = y.as_f32().unwrap();
        assert_eq!(v[4], 5.0);
        assert_eq!(v.iter().filter(|&&e| e == 0.0).count(), 8);
    }

    #[test]
    fn pad_quantized_uses_zero_point() {
        let qp = QuantParams::new(1.0, 42);
        let x = Tensor::from_int_values([1], &[7], DType::U8, Some(qp)).unwrap();
        let y = pad(&x, &[(1, 1)], 0.0).unwrap();
        assert_eq!(y.iter_int().collect::<Vec<_>>(), vec![42, 7, 42]);
    }

    #[test]
    fn slice_middle() {
        let x = Tensor::from_f32([4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let y = slice(&x, &[1, 1], &[3, 3]).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2]);
        assert_eq!(y.as_f32().unwrap(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn slice_rejects_bad_range() {
        let x = Tensor::zeros_f32([2, 2]);
        assert!(slice(&x, &[0, 0], &[3, 2]).is_err());
        assert!(slice(&x, &[1, 0], &[1, 2]).is_err());
    }

    #[test]
    fn batch_flatten_shape() {
        let x = Tensor::zeros_f32([2, 3, 4, 5]);
        let y = batch_flatten(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 60]);
    }

    #[test]
    fn resize_nearest_doubles() {
        let x = Tensor::from_f32([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = resize2d(&x, 4, 4, ResizeMethod::Nearest).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        let v = y.as_f32().unwrap();
        assert_eq!(v[0], 1.0);
        assert_eq!(v[3], 2.0);
        assert_eq!(v[15], 4.0);
    }

    #[test]
    fn resize_bilinear_midpoint() {
        let x = Tensor::from_f32([1, 1, 1, 2], vec![0.0, 2.0]).unwrap();
        let y = resize2d(&x, 1, 4, ResizeMethod::Bilinear).unwrap();
        let v = y.as_f32().unwrap();
        // Half-pixel: values interpolate smoothly between 0 and 2.
        assert!(v[0] < v[1] && v[1] < v[2] && v[2] < v[3]);
    }

    #[test]
    fn mean_over_spatial_axes() {
        let x =
            Tensor::from_f32([1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 5.0]).unwrap();
        let y = mean_f32(&x, &[2, 3]).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.as_f32().unwrap(), &[2.5, 5.0]);
    }
}
