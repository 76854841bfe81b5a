//! Affine-quantized 2-D convolution with 32-bit accumulation and
//! gemmlowp-style requantization — the arithmetic behind `qnn.conv2d` +
//! `qnn.requantize` in Relay and behind the APU's integer datapath.
//!
//! Two paths compute the same exact integer sums: dense and depthwise
//! convolutions with `i16` operands take the packed SSE2 tile (`sse2`),
//! the rest — and operands past the `i16` / `i32` proofs — the portable
//! walk, which `qconv2d_with(.., false)` forces for comparison.

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
/// Out-of-image taps read the input zero point, i.e. real value 0 (TFLite
/// padding semantics), so they add nothing. Dense and depthwise
/// convolutions with `i16` operands run on a packed copy of the input
/// (see `sse2`); the rest runs the loop nest of [`super::conv2d_f32`] on
/// the 8-bit operands in place, skipping those taps.
pub fn qconv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
    quant: &QConvQuant,
) -> Result<Tensor, KernelError> {
    qconv2d_with(input, weight, bias, params, quant, true)
}

/// [`qconv2d`], on the portable walk alone unless `packed`: the walk `i64`
/// accumulators and non-SSE2 targets run, kept comparable bit for bit with
/// the packed path.
#[doc(hidden)]
pub fn qconv2d_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
    quant: &QConvQuant,
    packed: bool,
) -> Result<Tensor, KernelError> {
    let (ishape, wshape) = (input.shape().dims(), weight.shape().dims());
    let bias_dims = bias.map(|b| b.shape().dims());
    let g = ConvGeom::new("qconv2d", ishape, wshape, bias_dims, params)?;
    let data = quantized_planes("qconv2d", &g, input, weight, bias, quant, packed)?;
    Tensor::from_data(g.output, data, Some(quant.output)).map_err(|e| kerr(e.to_string()))
}

/// Run `g` in quantized arithmetic, picking the instantiation for the
/// operands' storage types, the accumulator width and the output type;
/// `packed` lets `i16` operands take the packed path where it applies.
pub(super) fn quantized_planes(
    op: &str,
    g: &ConvGeom,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    quant: &QConvQuant,
    packed: bool,
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
                    (true, DType::I8) => q.narrow::<_, _, i8>(g, x, w, packed)?,
                    (true, DType::U8) => q.narrow::<_, _, u8>(g, x, w, packed)?,
                    (true, _) => q.narrow::<_, _, i32>(g, x, w, packed)?,
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
    /// `i16` operands into an `i32` accumulator: the packed path where it
    /// covers `g`, the walk elsewhere.
    fn narrow<X: IntElem, W: IntElem, O: IntElem>(
        &self,
        g: &ConvGeom,
        x: &[X],
        w: &[W],
        packed: bool,
    ) -> Result<Data, KernelError> {
        if packed {
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            if let Some(out) = sse2::conv::<X, W, O>(self, g, x, w)? {
                return Ok(O::wrap(out));
            }
        }
        Ok(self.run::<X, W, i32, O>(g, x, w))
    }

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
    /// The float walk's taps, one product `(x − zx)·(w − zw)` each.
    fn accumulate(&self, acc: &mut [[A; BLOCK]], taps: &Taps<'_, X, W>) {
        let (zx, zw) = (self.0.zx, self.0.zw);
        for (x_row, w_row) in taps.rows() {
            for (kx, s) in taps.spans.iter().enumerate().filter(|(_, s)| s.lo < s.hi) {
                let xs = taps.x[x_row + s.x0..].iter().step_by(taps.step);
                for (r, acc) in acc.iter_mut().enumerate() {
                    let w = A::from(taps.w[r * taps.w_len + w_row + kx].widen() - zw);
                    for (sum, x) in acc[s.lo..s.hi].iter_mut().zip(xs.clone()) {
                        *sum = *sum + A::from(x.widen() - zx) * w;
                    }
                }
            }
        }
    }
    fn finish(&self, acc: &[A], out: &mut [O]) {
        requantize_block(acc, saturate, out, self.0.multiplier, self.0.zo);
    }
}

/// The packed path, for dense (`groups = 1`) and depthwise
/// (`groups = C = OC`) convolutions with `i16` operands and an `i32`
/// accumulator. Each call packs the input once: zero point subtracted,
/// spatial zero padding materialised (an exact integer sum gains exactly 0
/// from it), two `i16` operands per `i32` — two input channels of one
/// column (dense) or two kernel columns of one channel (depthwise, the
/// last odd column beside a zero weight). The weights are packed once per
/// call in the same pairing, each pair in all four lanes of an aligned
/// [`Splat`]. A register tile of [`R`] output channels ×
/// [`V`] output columns then runs the whole tap loop as one `pmaddwd` +
/// `paddd` per tap and register, and requantizes and narrows the sums in
/// those registers (`quant::sse2::Requantizer`, `requantize_block`'s
/// arithmetic four lanes at a time).
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{ConvGeom, IntElem, KernelError, QArith};
    use crate::kernels::kerr;
    use crate::quant::sse2::{lanes, Requantizer};
    use core::arch::x86_64::*;
    use rayon::prelude::*;
    use std::cell::RefCell;

    /// Output channels of a register tile.
    const R: usize = 4;
    /// Output columns of a register tile, four per xmm register.
    const V: usize = 8;
    /// Depthwise channels packed at a time: a block reads only its own
    /// planes, so the scratch need not hold them all.
    const DW_GROUP: usize = 32;

    /// A call's packed operands and the input offset of each tap.
    #[derive(Default)]
    struct Scratch {
        x: Vec<i32>,
        w: Vec<Splat>,
        taps: Vec<usize>,
    }

    /// One packed weight pair in all four lanes of a register, aligned so
    /// that `pmaddwd` can read it from memory as it is.
    #[derive(Clone, Copy, Default)]
    #[repr(align(16))]
    struct Splat([i32; 4]);

    thread_local! {
        /// Grown to the largest call of its thread and reused: a steady
        /// state run allocates nothing here.
        static SCRATCH: RefCell<Scratch> = RefCell::default();
    }

    /// Where the packed input of one image keeps a padded input element:
    /// `[plane][padded row][column phase][entry]`, padded column `cc` at
    /// phase `cc % sw`, entry `cc / sw`, so the columns a tap reads for
    /// adjacent outputs are adjacent at any stride.
    struct Layout {
        depthwise: bool,
        /// Entries per phase: the output columns rounded up to [`V`], plus
        /// the furthest kernel column.
        wq: usize,
        row: usize,
        plane: usize,
    }

    /// `a` and `b` as the low and high `i16` of one `pmaddwd` lane.
    fn pair(a: i32, b: i32) -> i32 {
        (a as u16 as u32 | (b as u32) << 16) as i32
    }

    /// The packed path's output, or `None` where it does not apply.
    pub(super) fn conv<X: IntElem, W: IntElem, O: IntElem>(
        q: &QArith<'_>,
        g: &ConvGeom,
        x: &[X],
        wt: &[W],
    ) -> Result<Option<Vec<O>>, KernelError> {
        let ([n, c, h, w], [oc, cg, kh, kw], [_, _, oh, ow]) = (g.input, g.weight, g.output);
        let ((sh, sw), (dh, dw)) = (g.params.strides, g.params.dilation);
        let depthwise = match g.params.groups {
            _ if x.is_empty() || oc == 0 => return Ok(None),
            1 => false,
            groups if groups == c && oc == c => true,
            _ => return Ok(None),
        };
        // Planes per pack; depthwise tiles read R channels' planes.
        let (planes, tap_planes, kstep) = if depthwise {
            (c.next_multiple_of(R).min(DW_GROUP), 1, 2)
        } else {
            (c.div_ceil(2), c.div_ceil(2), 1)
        };
        let wq = ow.next_multiple_of(V) + (kw - 1) * dw / sw;
        let rows = (oh - 1) * sh + (kh - 1) * dh + 1;
        let Some(x_len) = [wq, rows, planes]
            .into_iter()
            .try_fold(sw, usize::checked_mul)
        else {
            return Err(kerr("qconv2d packed input overflows usize"));
        };
        let (row, plane) = (sw * wq, rows * sw * wq);
        let lay = Layout {
            depthwise,
            wq,
            row,
            plane,
        };
        let plane_len = oh * ow;
        let mut out = vec![O::narrow(0); n * oc * plane_len];
        SCRATCH.with_borrow_mut(|s| {
            // Taps in `(plane, ky, kx)` order.
            s.taps.clear();
            for (i, ky) in (0..tap_planes).flat_map(|i| (0..kh).map(move |ky| (i, ky))) {
                s.taps.extend((0..kw).step_by(kstep).map(|kx| {
                    let col = kx * dw;
                    i * plane + ky * dh * row + col % sw * wq + col / sw
                }));
            }
            // Weights `[block][tap][r]`, each output channel's in tap order.
            let t_len = s.taps.len();
            s.w.clear();
            s.w.resize(oc.div_ceil(R) * t_len * R, Splat::default());
            let sub = |w: &W| w.widen() - q.zw;
            for (o, wo) in wt.chunks_exact(cg * kh * kw).enumerate() {
                let mut put = |t: usize, a: i32, b: i32| {
                    s.w[(o / R * t_len + t) * R + o % R] = Splat([pair(a, b); 4])
                };
                if depthwise {
                    for (t, p) in wo.chunks(kw).flat_map(|row| row.chunks(2)).enumerate() {
                        put(t, sub(&p[0]), p.get(1).map_or(0, sub));
                    }
                } else {
                    for (i, two) in wo.chunks(2 * kh * kw).enumerate() {
                        let (a, b) = two.split_at(kh * kw);
                        for (j, a) in a.iter().enumerate() {
                            put(i * kh * kw + j, sub(a), b.get(j).map_or(0, sub));
                        }
                    }
                }
            }
            if s.x.len() < x_len {
                s.x.resize(x_len, 0);
            }
            let (xp, taps, wp) = (&mut s.x[..x_len], &s.taps[..], &s.w[..]);
            let block_w = taps.len() * R;
            let images = x.chunks_exact(c * h * w);
            for (image, out) in images.zip(out.chunks_exact_mut(oc * plane_len)) {
                // The output planes that read one pack: all, or its channels.
                let per_pack = if depthwise { planes } else { oc } * plane_len;
                for (first, out) in (0..).step_by(planes).zip(out.chunks_mut(per_pack)) {
                    pack(xp, image, g, &lay, first, q.zx);
                    let xp = &*xp;
                    out.par_chunks_mut(R * plane_len)
                        .enumerate()
                        .for_each(|(b, out)| {
                            let xp = if depthwise { &xp[b * R * plane..] } else { xp };
                            let b = first / R + b;
                            let w = &wp[b * block_w..][..block_w];
                            if depthwise {
                                block::<true, O>(q, g, &lay, xp, taps, w, b, out)
                            } else {
                                block::<false, O>(q, g, &lay, xp, taps, w, b, out)
                            }
                        });
                }
            }
        });
        Ok(Some(out))
    }

    /// Pack the planes of one image `[c, h, w]` from plane `first` on into
    /// `xp` as [`Layout`] says, each pair straight from its source rows.
    fn pack<X: IntElem>(
        xp: &mut [i32],
        x: &[X],
        g: &ConvGeom,
        lay: &Layout,
        first: usize,
        zx: i32,
    ) {
        let ([_, c, h, w], (pt, pl, _, _)) = (g.input, g.params.padding);
        let (sw, dw, wq) = (g.params.strides.1, g.params.dilation.1, lay.wq);
        // The high lane reads `db` padded columns past the low one.
        let db = if lay.depthwise { dw } else { 0 };
        let sub = |x: &X| x.widen() - zx;
        // Padded column `cc` of an input row: 0 off the image.
        let at = |src: &[X], cc: usize| src.get(cc.wrapping_sub(pl)).map_or(0, sub);
        for phase in 0..sw {
            // Entry `e` of the phase pairs padded column `e·sw + phase` of
            // the low lane's row with that `+ db` of the high lane's; in
            // entries `lo..hi` both land in the image, the low one at `i`.
            let start = |d: usize| pl.saturating_sub(phase + d).div_ceil(sw);
            let stop = |d: usize| (pl + w).saturating_sub(phase + d).div_ceil(sw);
            let lo = start(0).max(start(db)).min(wq);
            let hi = stop(0).min(stop(db)).clamp(lo, wq);
            let i = (lo * sw + phase).saturating_sub(pl);
            for (k, plane) in (first..).zip(xp.chunks_exact_mut(lay.plane)) {
                let ca = if lay.depthwise { k } else { 2 * k };
                let cb = if lay.depthwise { k } else { ca + 1 };
                for (py, row) in plane.chunks_exact_mut(lay.row).enumerate() {
                    let run = &mut row[phase * wq..][..wq];
                    let iy = py.wrapping_sub(pt);
                    let src = |ch: usize| (ch < c && iy < h).then(|| &x[(ch * h + iy) * w..][..w]);
                    let Some(a) = src(ca) else {
                        run.fill(0);
                        continue;
                    };
                    // A dense pack's last odd channel pairs with zeros.
                    let b = src(cb);
                    let (left, rest) = run.split_at_mut(lo);
                    let (mid, right) = rest.split_at_mut(hi - lo);
                    let edge = |e: usize| {
                        let cc = e * sw + phase;
                        pair(at(a, cc), b.map_or(0, |b| at(b, cc + db)))
                    };
                    for (e, v) in left.iter_mut().enumerate() {
                        *v = edge(e);
                    }
                    for (e, v) in (hi..).zip(right) {
                        *v = edge(e);
                    }
                    let Some(last) = mid.len().checked_sub(1).map(|j| j * sw) else {
                        continue;
                    };
                    // Entry `lo + j` reads `a[j·sw]` and `b[j·sw]`.
                    let a = &a[i..][..=last];
                    match b.map(|b| &b[i + db..][..=last]) {
                        Some(b) if sw == 1 => mid
                            .iter_mut()
                            .zip(a.iter().zip(b))
                            .for_each(|(v, (a, b))| *v = pair(sub(a), sub(b))),
                        Some(b) => {
                            for (j, v) in mid.iter_mut().enumerate() {
                                *v = pair(sub(&a[j * sw]), sub(&b[j * sw]));
                            }
                        }
                        None => {
                            for (j, v) in mid.iter_mut().enumerate() {
                                *v = pair(sub(&a[j * sw]), 0);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every tile of output-channel block `b`, into its `out` planes;
    /// depthwise, `xp` starts at the block's first plane.
    #[allow(clippy::too_many_arguments)]
    fn block<const DW: bool, O: IntElem>(
        q: &QArith<'_>,
        g: &ConvGeom,
        lay: &Layout,
        xp: &[i32],
        taps: &[usize],
        w: &[Splat],
        b: usize,
        out: &mut [O],
    ) {
        let [_, _, oh, ow] = g.output;
        let bias = std::array::from_fn(|r| q.bias.and_then(|bias| bias.get(b * R + r)).copied());
        let bias = bias.map(|b| b.unwrap_or(0));
        let (plane_len, planes) = (oh * ow, out.len() / (oh * ow));
        for oy in 0..oh {
            let x_row = &xp[oy * g.params.strides.0 * lay.row..];
            for ox in (0..ow).step_by(V) {
                // SAFETY: `tile` enables SSE2 alone, which every x86_64
                // CPU has and this module is compiled only for.
                let tile = unsafe { tile::<DW, O>(&x_row[ox..], lay.plane, taps, w, bias, q) };
                for (r, sums) in tile.iter().enumerate().take(planes) {
                    let out = &mut out[r * plane_len + oy * ow + ox..];
                    // A whole tile is one fixed-size store.
                    match out.get_mut(..V) {
                        Some(out) if ow - ox >= V => out.copy_from_slice(sums),
                        _ => out[..ow - ox].copy_from_slice(&sums[..ow - ox]),
                    }
                }
            }
        }
    }

    /// `bias[r] + Σ x[tap + r·plane + v] ⋅ w[tap][r]` over every tap, a
    /// `pmaddwd` of `i16` pairs with the accumulators in xmm registers
    /// throughout, then requantized and narrowed to `O` in the same
    /// registers; dense tiles (`!DW`) read one input for all `r`.
    #[target_feature(enable = "sse2")]
    fn tile<const DW: bool, O: IntElem>(
        x: &[i32],
        plane: usize,
        taps: &[usize],
        w: &[Splat],
        bias: [i32; R],
        q: &QArith<'_>,
    ) -> [[O; V]; R] {
        let mut a = [[_mm_setzero_si128(); V / 4]; R];
        for (a, &b) in a.iter_mut().zip(&bias) {
            *a = [_mm_set1_epi32(b); V / 4];
        }
        for (&tap, w) in taps.iter().zip(w.chunks_exact(R)) {
            for (r, (a, Splat(w))) in a.iter_mut().zip(w).enumerate() {
                let xs = &x[tap + if DW { r * plane } else { 0 }..][..V];
                let w = _mm_setr_epi32(w[0], w[1], w[2], w[3]);
                for (a, s) in a.iter_mut().zip(xs.chunks_exact(4)) {
                    let xv = _mm_setr_epi32(s[0], s[1], s[2], s[3]);
                    *a = _mm_add_epi32(*a, _mm_madd_epi16(xv, w));
                }
            }
        }
        let rq = Requantizer::new(q.multiplier, q.zo);
        let mut sums = [[O::narrow(0); V]; R];
        for (sums, [a0, a1]) in sums.iter_mut().zip(a) {
            *sums = narrow(rq.apply(a0), rq.apply(a1));
        }
        sums
    }

    /// `O::narrow` of the eight lanes of `lo` then `hi`. For 8-bit `O`,
    /// `packssdw` saturates to `i16` and `packuswb` / `packsswb` to `O`'s
    /// range: the same clamp, eight lanes at a time.
    #[target_feature(enable = "sse2")]
    fn narrow<O: IntElem>(lo: __m128i, hi: __m128i) -> [O; V] {
        let bytes = |v: __m128i| (_mm_cvtsi128_si64(v) as u64).to_le_bytes();
        let words = _mm_packs_epi32(lo, hi);
        match (O::MIN, O::MAX) {
            (0, 255) => bytes(_mm_packus_epi16(words, words)).map(|b| O::narrow(b.into())),
            (-128, 127) => {
                bytes(_mm_packs_epi16(words, words)).map(|b| O::narrow((b as i8).into()))
            }
            _ => {
                let (l0, l1) = (lanes(lo), lanes(hi));
                std::array::from_fn(|v| O::narrow(if v < 4 { l0[v] } else { l1[v - 4] }))
            }
        }
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
        assert_eq!(y.iter_int().next(), Some(100));
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
