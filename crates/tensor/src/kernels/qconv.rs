//! Affine-quantized 2-D convolution with 32-bit accumulation and
//! gemmlowp-style requantization — the arithmetic behind `qnn.conv2d` +
//! `qnn.requantize` in Relay and behind the APU's integer datapath.

use super::conv::{conv_planes, Arith, Conv2dParams, ConvGeom, Taps, BLOCK};
use super::{kerr, KernelError};
use crate::dtype::DType;
use crate::quant::{
    fits_i16, fits_i32, requantize_block, saturate, Acc, FixedPointMultiplier, QuantParams,
};
use crate::tensor::{with_payload, Data, IntElem, Tensor};
use std::marker::PhantomData;

/// Quantization attributes of a quantized convolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QConvQuant {
    /// Input activation quantization.
    pub input: QuantParams,
    /// Weight quantization (per-tensor, usually symmetric).
    pub weight: QuantParams,
    /// Output activation quantization.
    pub output: QuantParams,
    /// Output storage type (i8 or u8).
    pub out_dtype: DType,
}

impl QConvQuant {
    /// The real requantization multiplier `s_in * s_w / s_out`.
    pub fn real_multiplier(&self) -> f64 {
        self.input.scale as f64 * self.weight.scale as f64 / self.output.scale as f64
    }
}

/// Quantized `NCHW` × `OIHW` convolution.
///
/// `input` must be i8/u8 activations, `weight` i8/u8 weights, `bias` (when
/// present) an i32 tensor already scaled by `s_in * s_w`.
///
/// Runs the loop nest of [`super::conv2d_f32`] on the 8-bit operands in
/// place. Out-of-image taps read the input zero point, i.e. real value 0
/// (TFLite padding semantics), so they add nothing and are skipped.
pub fn qconv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
    quant: &QConvQuant,
) -> Result<Tensor, KernelError> {
    let (ishape, wshape) = (input.shape().dims(), weight.shape().dims());
    let g = ConvGeom::new("qconv2d", ishape, wshape, bias, params)?;
    let data = quantized_planes("qconv2d", &g, input, weight, bias, quant)?;
    Tensor::from_data(g.output, data, Some(quant.output)).map_err(|e| kerr(e.to_string()))
}

/// Run `g` in quantized arithmetic, picking the instantiation for the
/// operands' storage types, the accumulator width and the output type.
pub(super) fn quantized_planes(
    op: &str,
    g: &ConvGeom,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    quant: &QConvQuant,
) -> Result<Data, KernelError> {
    let b: Option<&[i32]> = match bias {
        Some(t) => Some(t.as_i32().map_err(|e| kerr(e.to_string()))?),
        None => None,
    };
    let out_dtype = quant.out_dtype;
    if out_dtype.is_float() {
        return Err(kerr(format!(
            "{op} output dtype {out_dtype} is not an integer type"
        )));
    }
    let q = QArith {
        bias: b,
        zx: quant.input.zero_point,
        zw: quant.weight.zero_point,
        multiplier: FixedPointMultiplier::from_real(quant.real_multiplier()),
        zo: quant.output.zero_point,
    };
    let not_q8 = || {
        kerr(format!(
            "{op} expects quantized operands, got {} / {}",
            input.dtype(),
            weight.dtype()
        ))
    };
    Ok(with_payload!(
        input,
        [I8 U8],
        |x| with_payload!(
            weight,
            [I8 U8],
            |w| {
                // Half-width operands need both proofs: every `q − zero`
                // fits an `i16` and every partial sum an `i32`.
                let (xr, wr) = ((range_of(x), q.zx), (range_of(w), q.zw));
                let narrow = fits_i16(xr.0, xr.1)
                    && fits_i16(wr.0, wr.1)
                    && fits_i32(g.taps(), xr, wr, b);
                match (narrow, out_dtype) {
                    (true, DType::I8) => q.run::<_, _, i32, i8>(g, x, w),
                    (true, DType::U8) => q.run::<_, _, i32, u8>(g, x, w),
                    (true, _) => q.run::<_, _, i32, i32>(g, x, w),
                    (false, DType::I8) => q.run::<_, _, i64, i8>(g, x, w),
                    (false, DType::U8) => q.run::<_, _, i64, u8>(g, x, w),
                    (false, _) => q.run::<_, _, i64, i32>(g, x, w),
                }
            },
            else => return Err(not_q8())
        ),
        else => return Err(not_q8())
    ))
}

/// Storage range of a slice's element type.
fn range_of<T: IntElem>(_: &[T]) -> (i32, i32) {
    (T::MIN, T::MAX)
}

/// The parameters of one quantized reduction.
struct QArith<'a> {
    bias: Option<&'a [i32]>,
    zx: i32,
    zw: i32,
    multiplier: FixedPointMultiplier,
    zo: i32,
}

/// [`QArith`] at operand types `X`, `W`, accumulator `A` and output `O`,
/// named by `T = (X, W, A, O)`.
struct Typed<'q, 'a, T>(&'q QArith<'a>, PhantomData<T>);

impl QArith<'_> {
    fn run<X: IntElem, W: IntElem, A: Acc, O: IntElem>(
        &self,
        g: &ConvGeom,
        x: &[X],
        w: &[W],
    ) -> Data {
        let typed = Typed(self, PhantomData::<(X, W, A, O)>);
        O::wrap(conv_planes(g, &typed, x, w, O::narrow(0)))
    }
}

impl<X: IntElem, W: IntElem, A: Acc, O: IntElem> Arith for Typed<'_, '_, (X, W, A, O)> {
    type X = X;
    type W = W;
    type Acc = A;
    type Out = O;
    fn start(&self, o: usize) -> A {
        A::from(self.0.bias.map_or(0, |b| b[o]))
    }
    /// Integer sums are exact, so the taps may be taken in any grouping:
    /// two `(ic, ky)` rows at a time, `acc += xa·wa + xb·wb` with both
    /// products at operand width (a lone last row pairs with itself under a
    /// zero weight). The zero-point-subtracted input pairs of a span are
    /// packed once and shared by the run's output channels.
    fn accumulate(&self, acc: &mut [[A; BLOCK]], taps: &Taps<'_, X, W>) {
        let (zx, zw) = (self.0.zx, self.0.zw);
        let zero = A::Operand::default();
        let (mut xp, mut wp) = ([[zero; 2]; BLOCK], [[zero; 2]; BLOCK]);
        let mut rows = taps.rows();
        while let Some((xa, wa)) = rows.next() {
            let b = rows.next();
            for (kx, s) in taps.spans.iter().enumerate() {
                let n = s.hi - s.lo;
                if n == 0 {
                    continue;
                }
                let xb = b.map_or(xa, |(xb, _)| xb);
                let (xa, xb) = (&taps.x[xa + s.x0..], &taps.x[xb + s.x0..]);
                pack::<X, A>(&mut xp[..n], xa, xb, taps.step, zx);
                for (r, acc) in acc.iter_mut().enumerate() {
                    let w_at =
                        |row: usize| A::operand(taps.w[r * taps.w_len + row + kx].widen() - zw);
                    // A row of the pair rather than a splat, so the loop
                    // below loads both of its operands.
                    wp[..n].fill([w_at(wa), b.map_or(zero, |(_, wb)| w_at(wb))]);
                    mac_pairs(&mut acc[s.lo..s.hi], &xp[..n], &wp[..n]);
                }
            }
        }
    }
    fn finish(&self, acc: &[A], out: &mut [O]) {
        requantize_block(acc, saturate, out, self.0.multiplier, self.0.zo);
    }
}

/// `xp[j] = [xa[j·step] − zx, xb[j·step] − zx]`.
#[inline]
fn pack<X: IntElem, A: Acc>(xp: &mut [[A::Operand; 2]], xa: &[X], xb: &[X], step: usize, zx: i32) {
    let sub = |x: X| A::operand(x.widen() - zx);
    if step == 1 {
        for ((p, &a), &b) in xp.iter_mut().zip(xa).zip(xb) {
            *p = [sub(a), sub(b)];
        }
    } else {
        let pairs = xa.iter().step_by(step).zip(xb.iter().step_by(step));
        for (p, (&a, &b)) in xp.iter_mut().zip(pairs) {
            *p = [sub(a), sub(b)];
        }
    }
}

/// `acc[j] = acc[j] + (xp[j][0] · wp[j][0] + xp[j][1] · wp[j][1])` — with
/// `i16` operands, the multiply-add-pairs instruction per lane.
#[inline]
fn mac_pairs<A: Acc>(acc: &mut [A], xp: &[[A::Operand; 2]], wp: &[[A::Operand; 2]]) {
    for ((sum, x), w) in acc.iter_mut().zip(xp).zip(wp) {
        *sum = *sum + (x[0].into() * w[0].into() + x[1].into() * w[1].into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::conv::conv2d_f32;
    use crate::rng::TensorRng;

    /// Reference check: quantized conv tracks float conv within ~1 output LSB.
    #[test]
    fn matches_float_reference_within_one_lsb() {
        let mut rng = TensorRng::new(11);
        let xf = rng.uniform_f32([1, 3, 8, 8], -1.0, 1.0);
        let wf = rng.uniform_f32([4, 3, 3, 3], -0.5, 0.5);
        let qp_x = QuantParams::from_range(-1.0, 1.0, DType::U8);
        let qp_w = QuantParams::symmetric_from_absmax(0.5, DType::I8);
        let xq = xf.quantize(qp_x, DType::U8).unwrap();
        let wq = wf.quantize(qp_w, DType::I8).unwrap();
        // Dequantized operands give the exact reference the int path targets.
        let yf = conv2d_f32(&xq.to_f32(), &wq.to_f32(), None, &Conv2dParams::same(1)).unwrap();
        let absmax = yf
            .as_f32()
            .unwrap()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()));
        let qp_y = QuantParams::from_range(-absmax, absmax, DType::U8);
        let quant = QConvQuant {
            input: qp_x,
            weight: qp_w,
            output: qp_y,
            out_dtype: DType::U8,
        };
        let yq = qconv2d(&xq, &wq, None, &Conv2dParams::same(1), &quant).unwrap();
        let diff = yq.to_f32().max_abs_diff(&yf);
        assert!(
            diff <= qp_y.scale * 1.01,
            "diff {diff} > 1 LSB {}",
            qp_y.scale
        );
    }

    #[test]
    fn zero_input_maps_to_output_zero_point() {
        let qp_x = QuantParams::new(0.05, 128);
        let qp_w = QuantParams::new(0.02, 0);
        let qp_y = QuantParams::new(0.1, 100);
        let x = Tensor::from_int_values([1, 1, 2, 2], &[128; 4], DType::U8, Some(qp_x)).unwrap();
        let w = Tensor::from_int_values([1, 1, 1, 1], &[37], DType::I8, Some(qp_w)).unwrap();
        let quant = QConvQuant {
            input: qp_x,
            weight: qp_w,
            output: qp_y,
            out_dtype: DType::U8,
        };
        let y = qconv2d(&x, &w, None, &Conv2dParams::default(), &quant).unwrap();
        assert!(y.iter_int().all(|v| v == 100));
    }

    #[test]
    fn bias_contributes_in_accumulator_scale() {
        let qp_x = QuantParams::new(0.1, 0);
        let qp_w = QuantParams::new(0.1, 0);
        let qp_y = QuantParams::new(0.01, 0);
        // bias of 100 in accumulator units = 100 * 0.01 real = 1.0 real.
        let x = Tensor::from_int_values([1, 1, 1, 1], &[0], DType::I8, Some(qp_x)).unwrap();
        let w = Tensor::from_int_values([1, 1, 1, 1], &[0], DType::I8, Some(qp_w)).unwrap();
        let b = Tensor::from_i32([1], vec![100], None).unwrap();
        let quant = QConvQuant {
            input: qp_x,
            weight: qp_w,
            output: qp_y,
            out_dtype: DType::I8,
        };
        let y = qconv2d(&x, &w, Some(&b), &Conv2dParams::default(), &quant).unwrap();
        // acc 100 * (0.1*0.1/0.01 = 1.0) = 100 quanta = 1.0 real.
        assert_eq!(y.int_at(0), 100);
    }

    #[test]
    fn padding_reads_zero_point() {
        // With a non-zero input zero point, padded taps must contribute
        // exactly zero real value.
        let qp_x = QuantParams::new(1.0, 10);
        let qp_w = QuantParams::new(1.0, 0);
        let qp_y = QuantParams::new(1.0, 0);
        let x = Tensor::from_int_values([1, 1, 1, 1], &[10], DType::U8, Some(qp_x)).unwrap();
        let w = Tensor::from_int_values([1, 1, 3, 3], &[1; 9], DType::I8, Some(qp_w)).unwrap();
        let quant = QConvQuant {
            input: qp_x,
            weight: qp_w,
            output: qp_y,
            out_dtype: DType::I8,
        };
        let y = qconv2d(&x, &w, None, &Conv2dParams::same(1), &quant).unwrap();
        assert!(y.iter_int().all(|v| v == 0));
    }

    #[test]
    fn rejects_float_input() {
        let x = Tensor::zeros_f32([1, 1, 2, 2]);
        let w = Tensor::from_int_values([1, 1, 1, 1], &[1], DType::I8, None).unwrap();
        let quant = QConvQuant {
            input: QuantParams::identity(),
            weight: QuantParams::identity(),
            output: QuantParams::identity(),
            out_dtype: DType::I8,
        };
        assert!(qconv2d(&x, &w, None, &Conv2dParams::default(), &quant).is_err());
    }

    #[test]
    fn rejects_float_output_dtype() {
        let qp = QuantParams::new(1.0, 0);
        let x = Tensor::from_int_values([1, 1, 1, 1], &[1], DType::U8, Some(qp)).unwrap();
        let w = Tensor::from_int_values([1, 1, 1, 1], &[1], DType::I8, Some(qp)).unwrap();
        let quant = QConvQuant {
            input: qp,
            weight: qp,
            output: qp,
            out_dtype: DType::F32,
        };
        assert!(qconv2d(&x, &w, None, &Conv2dParams::default(), &quant).is_err());
    }
}
