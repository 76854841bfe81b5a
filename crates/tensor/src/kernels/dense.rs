//! Fully-connected (dense / `nn.dense` / `qnn.dense`) kernels.
//!
//! A dense layer is a 1×1 convolution over 1×1 images: `input [n, k]` is `n`
//! images of `k` channels and `weight [units, k]` is `units` filters. Run
//! as that convolution — the float one on the packed dense path, the
//! quantized one through `qconv`'s — each unit's sum goes over `k` in
//! order and a few units advance side by side.

use super::conv::{f32_conv, f32_payload, Conv2dParams, ConvGeom};
use super::qconv::{quantized_planes, QConvQuant};
use super::{kerr, KernelError};
use crate::dtype::DType;
use crate::quant::QuantParams;
use crate::tensor::Tensor;

/// The shape rule of `nn.dense` and `qnn.dense`: `input [n, k]` and
/// `weight [units, k]` (and a bias of `units` elements) as the 1×1
/// convolution the kernels run; the output is `[n, units]`, the first two
/// of the geometry's output dims.
pub fn dense_geom(
    op: &str,
    ishape: &[usize],
    wshape: &[usize],
    bias: Option<&[usize]>,
) -> Result<ConvGeom, KernelError> {
    let (&[n, k], &[units, wk]) = (ishape, wshape) else {
        return Err(kerr(format!(
            "{op} expects rank-2 operands, got {ishape:?} / {wshape:?}"
        )));
    };
    let unit = Conv2dParams::default();
    ConvGeom::new(op, &[n, k, 1, 1], &[units, wk, 1, 1], bias, &unit)
}

/// Float dense: `input [n, k] × weight [units, k] (+ bias [units]) → [n, units]`.
pub fn dense_f32(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Tensor, KernelError> {
    let (ishape, wshape) = (input.shape().dims(), weight.shape().dims());
    let g = dense_geom("dense", ishape, wshape, bias.map(|b| b.shape().dims()))?;
    let (x, wt) = (f32_payload(input)?, f32_payload(weight)?);
    let b = bias.map(f32_payload).transpose()?;
    let out = f32_conv(&g, x, wt, b)?;
    Tensor::from_f32(&g.output[..2], out).map_err(|e| kerr(e.to_string()))
}

/// Quantized dense with i32 accumulation and requantization.
pub fn qdense(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    input_q: QuantParams,
    weight_q: QuantParams,
    output_q: QuantParams,
    out_dtype: DType,
) -> Result<Tensor, KernelError> {
    let (ishape, wshape) = (input.shape().dims(), weight.shape().dims());
    let g = dense_geom("qdense", ishape, wshape, bias.map(|b| b.shape().dims()))?;
    let quant = QConvQuant {
        input: input_q,
        weight: weight_q,
        output: output_q,
        out_dtype,
    };
    let data = quantized_planes("qdense", &g, input, weight, bias, &quant, true)?;
    Tensor::from_data(&g.output[..2], data, Some(output_q)).map_err(|e| kerr(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn dense_known_values() {
        let x = Tensor::from_f32([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let w = Tensor::from_f32([2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]).unwrap();
        let y = dense_f32(&x, &w, None).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[1.0, 5.0]);
    }

    #[test]
    fn dense_bias() {
        let x = Tensor::from_f32([2, 2], vec![1.0, 1.0, 2.0, 2.0]).unwrap();
        let w = Tensor::from_f32([1, 2], vec![1.0, 1.0]).unwrap();
        let b = Tensor::from_f32([1], vec![0.5]).unwrap();
        let y = dense_f32(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[2.5, 4.5]);
    }

    #[test]
    fn dense_rejects_mismatch() {
        let x = Tensor::from_f32([1, 3], vec![0.0; 3]).unwrap();
        let w = Tensor::from_f32([2, 4], vec![0.0; 8]).unwrap();
        assert!(dense_f32(&x, &w, None).is_err());
    }

    #[test]
    fn qdense_tracks_float() {
        let mut rng = TensorRng::new(5);
        let xf = rng.uniform_f32([2, 16], -1.0, 1.0);
        let wf = rng.uniform_f32([4, 16], -0.5, 0.5);
        let qx = QuantParams::from_range(-1.0, 1.0, DType::U8);
        let qw = QuantParams::symmetric_from_absmax(0.5, DType::I8);
        let xq = xf.quantize(qx, DType::U8).unwrap();
        let wq = wf.quantize(qw, DType::I8).unwrap();
        let yref = dense_f32(&xq.to_f32(), &wq.to_f32(), None).unwrap();
        let absmax = yref
            .as_f32()
            .unwrap()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()));
        let qy = QuantParams::from_range(-absmax, absmax, DType::I8);
        let yq = qdense(&xq, &wq, None, qx, qw, qy, DType::I8).unwrap();
        assert!(yq.to_f32().max_abs_diff(&yref) <= qy.scale * 1.01);
    }

    #[test]
    fn qdense_zero_maps_to_zero_point() {
        let q = QuantParams::new(0.1, 7);
        let x = Tensor::from_int_values([1, 4], &[7; 4], DType::I8, Some(q)).unwrap();
        let w =
            Tensor::from_int_values([3, 4], &[5; 12], DType::I8, Some(QuantParams::new(0.1, 0)))
                .unwrap();
        let qy = QuantParams::new(0.2, -3);
        let y = qdense(&x, &w, None, q, QuantParams::new(0.1, 0), qy, DType::I8).unwrap();
        assert!(y.iter_int().all(|v| v == -3));
    }

    #[test]
    fn qdense_rejects_float_output_dtype() {
        let q = QuantParams::new(0.1, 0);
        let x = Tensor::from_int_values([1, 2], &[1, 2], DType::I8, Some(q)).unwrap();
        let w = Tensor::from_int_values([1, 2], &[3, 4], DType::I8, Some(q)).unwrap();
        assert!(qdense(&x, &w, None, q, q, q, DType::F32).is_err());
    }
}
