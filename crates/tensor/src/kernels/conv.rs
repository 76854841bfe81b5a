//! Float32 2-D convolution, blocked over output columns and Rayon-parallel
//! over the batch × output-channel dimension.
//!
//! The result is *defined* per output element: `acc = bias`, then
//! `acc += x · w` over `ic, ky, kx` ascending with out-of-image taps
//! skipped. The loop nest here keeps that sequence for every element and
//! only changes which elements advance together: a block of [`BLOCK`]
//! adjacent output columns walks the taps in lock-step, so the inner loop is
//! a contiguous multiply and add the compiler can put in SIMD lanes. A
//! vector multiply followed by a vector add rounds exactly like the scalar
//! pair, so the output bits are those of the one-pixel-at-a-time loop.

use super::{kerr, KernelError};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Spatial attributes of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Vertical/horizontal stride.
    pub strides: (usize, usize),
    /// Padding as (top, left, bottom, right).
    pub padding: (usize, usize, usize, usize),
    /// Kernel dilation.
    pub dilation: (usize, usize),
    /// Feature-group count; `groups == in_channels` is depthwise.
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            strides: (1, 1),
            padding: (0, 0, 0, 0),
            dilation: (1, 1),
            groups: 1,
        }
    }
}

impl Conv2dParams {
    /// Unit-stride convolution with symmetric "same"-style padding.
    pub fn same(pad: usize) -> Self {
        Conv2dParams {
            padding: (pad, pad, pad, pad),
            ..Default::default()
        }
    }

    /// Output spatial size for an input `(h, w)` and kernel `(kh, kw)`.
    pub fn out_hw(
        &self,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
    ) -> Result<(usize, usize), KernelError> {
        let (pt, pl, pb, pr) = self.padding;
        if kh == 0 || kw == 0 || self.strides.0 == 0 || self.strides.1 == 0 {
            return Err(kerr(format!(
                "conv2d kernel {kh}x{kw} and strides {:?} must be non-zero",
                self.strides
            )));
        }
        let extent = |k: usize, d: usize| (k - 1).checked_mul(d)?.checked_add(1);
        let (Some(eff_kh), Some(eff_kw), Some(ih), Some(iw)) = (
            extent(kh, self.dilation.0),
            extent(kw, self.dilation.1),
            padded(h, pt, pb),
            padded(w, pl, pr),
        ) else {
            let (p, d) = (self.padding, self.dilation);
            return Err(kerr(format!(
                "conv2d padding {p:?} or dilation {d:?} overflows"
            )));
        };
        if ih < eff_kh || iw < eff_kw {
            return Err(kerr(format!(
                "conv2d kernel {eff_kh}x{eff_kw} larger than padded input {ih}x{iw}"
            )));
        }
        Ok((
            (ih - eff_kh) / self.strides.0 + 1,
            (iw - eff_kw) / self.strides.1 + 1,
        ))
    }
}

/// `x + before + after`, or `None` past `usize`.
pub(super) fn padded(x: usize, before: usize, after: usize) -> Option<usize> {
    x.checked_add(before)?.checked_add(after)
}

/// Output columns that advance through the taps together; their partial
/// sums live in one stack array.
pub(super) const BLOCK: usize = 32;

/// Output channels computed in one pass over the input: each keeps its own
/// block of partial sums, all share the tap bounds and the input loads.
const OC_BLOCK: usize = 4;

/// The arithmetic of one convolution flavour. [`conv_planes`] owns the loop
/// nest over planes, rows and column blocks; an `Arith` says what a partial
/// sum is, how the taps of one block extend it — and with that the
/// per-element operation order — and how it is stored.
pub(super) trait Arith: Sync {
    type X: Copy + Sync;
    type W: Copy + Sync;
    type Acc: Copy;
    type Out: Copy + Send;
    /// The sum output channel `o` starts from.
    fn start(&self, o: usize) -> Self::Acc;
    /// Add every tap of `taps` to the partial sums of one column block,
    /// one row of `acc` per output channel of the run.
    fn accumulate(&self, acc: &mut [[Self::Acc; BLOCK]], taps: &Taps<'_, Self::X, Self::W>);
    /// Store a block of finished sums.
    fn finish(&self, acc: &[Self::Acc], out: &mut [Self::Out]);
}

/// A validated convolution problem (`NCHW` × `OIHW`, weight
/// `[oc, c/groups, kh, kw]`).
pub(super) struct ConvGeom {
    /// Input `[n, c, h, w]`.
    pub input: [usize; 4],
    /// Weight `[oc, c/groups, kh, kw]`.
    pub weight: [usize; 4],
    /// Output `[n, oc, oh, ow]`.
    pub output: [usize; 4],
    /// Strides, padding, dilation and groups.
    pub params: Conv2dParams,
}

impl ConvGeom {
    pub(super) fn new(
        op: &str,
        ishape: &[usize],
        wshape: &[usize],
        bias: Option<&Tensor>,
        params: &Conv2dParams,
    ) -> Result<Self, KernelError> {
        let (&[n, c, h, w], &[oc, wic, kh, kw]) = (ishape, wshape) else {
            return Err(kerr(format!(
                "{op} expects rank-4 input/weight, got {ishape:?} / {wshape:?}"
            )));
        };
        let groups = params.groups;
        if groups == 0 || c % groups != 0 || oc % groups != 0 || wic != c / groups {
            return Err(kerr(format!(
                "{op} group/channel mismatch: C={c}, O={oc}, groups={groups}, w_ic={wic}"
            )));
        }
        if bias.is_some_and(|b| b.num_elements() != oc) {
            return Err(kerr(format!("{op} bias length != out channels {oc}")));
        }
        let (oh, ow) = params.out_hw(h, w, kh, kw)?;
        Ok(ConvGeom {
            input: [n, c, h, w],
            weight: [oc, wic, kh, kw],
            output: [n, oc, oh, ow],
            params: *params,
        })
    }

    /// Multiply-accumulates behind one output element, padding included.
    pub(super) fn taps(&self) -> usize {
        self.weight[1..].iter().product()
    }
}

/// The part `[lo, hi)` of one column block whose tap through one kernel
/// column lands inside the image; `x0` is the input column `lo` reads.
pub(super) struct Span {
    pub lo: usize,
    pub hi: usize,
    pub x0: usize,
}

/// The in-image taps behind one column block of one output row, for every
/// output channel of a run.
pub(super) struct Taps<'a, X, W> {
    geom: &'a ConvGeom,
    oy: usize,
    /// The group's input image, `[cg, h, w]`.
    pub x: &'a [X],
    /// The run's weights, one output channel every `w_len`.
    pub w: &'a [W],
    pub w_len: usize,
    /// The block's in-image span per kernel column.
    pub spans: &'a [Span],
    /// Input columns between adjacent output columns.
    pub step: usize,
}

impl<X, W> Taps<'_, X, W> {
    /// `(offset into x, offset into one channel's weights)` of every
    /// in-image `(ic, ky)` row of taps, in `ic, ky` order; kernel column
    /// `kx` of a row reads `x[x_row + spans[kx].x0..]` and weight
    /// `w_row + kx`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ([_, _, h, w], [_, cg, kh, kw]) = (self.geom.input, self.geom.weight);
        let (pt, dh) = (self.geom.params.padding.0, self.geom.params.dilation.0);
        let top = self.oy * self.geom.params.strides.0;
        (0..cg).flat_map(move |ic| {
            (0..kh).filter_map(move |ky| {
                let iy = (top + ky * dh).checked_sub(pt).filter(|&iy| iy < h)?;
                Some(((ic * h + iy) * w, (ic * kh + ky) * kw))
            })
        })
    }
}

/// Run the convolution `g` over `x` and `wt`, one [`OC_BLOCK`] of output
/// planes per parallel task.
pub(super) fn conv_planes<A: Arith>(
    g: &ConvGeom,
    a: &A,
    x: &[A::X],
    wt: &[A::W],
    fill: A::Out,
) -> Vec<A::Out> {
    let ([_, c, h, w], [oc, cg, _, kw], [n, _, oh, ow]) = (g.input, g.weight, g.output);
    let (sw, dw, pl) = (g.params.strides.1, g.params.dilation.1, g.params.padding.1);
    let og = oc / g.params.groups;
    let (x_len, w_len, plane_len) = (cg * h * w, g.taps(), oh * ow);

    // The column test of the direct loop, done once per call: the in-image
    // span of every (column block, kernel column) pair, `kw` per block.
    let mut spans = Vec::with_capacity(ow.div_ceil(BLOCK) * kw);
    for ox0 in (0..ow).step_by(BLOCK) {
        let ox1 = (ox0 + BLOCK).min(ow);
        for kx in 0..kw {
            // Output column `ox` reads input column `ox·sw + off − pl`.
            let off = kx * dw;
            let lo = pl.saturating_sub(off).div_ceil(sw).clamp(ox0, ox1);
            let hi = (w + pl).saturating_sub(off).div_ceil(sw).clamp(lo, ox1);
            spans.push(Span {
                lo: lo - ox0,
                hi: hi - ox0,
                x0: (lo * sw + off).saturating_sub(pl),
            });
        }
    }

    let mut out = vec![fill; n * oc * plane_len];
    out.par_chunks_mut(plane_len * OC_BLOCK)
        .enumerate()
        .for_each(|(chunk, mut planes)| {
            // Split the chunk into runs of planes that read one input image
            // (same batch item, same group).
            let mut plane = chunk * OC_BLOCK;
            while !planes.is_empty() {
                let (ni, o) = (plane / oc, plane % oc);
                let run = (og - o % og).min(planes.len() / plane_len);
                let (head, tail) = std::mem::take(&mut planes).split_at_mut(run * plane_len);
                (plane, planes) = (plane + run, tail);
                let x_g = &x[(ni * c + o / og * cg) * h * w..][..x_len];
                let w_run = &wt[o * w_len..][..run * w_len];
                for oy in 0..oh {
                    for (blk, ox0) in (0..ow).step_by(BLOCK).enumerate() {
                        // Rows past `run` are never read.
                        let mut acc: [[A::Acc; BLOCK]; OC_BLOCK] =
                            std::array::from_fn(|r| [a.start(o + r.min(run - 1)); BLOCK]);
                        let taps = Taps {
                            geom: g,
                            oy,
                            x: x_g,
                            w: w_run,
                            w_len,
                            spans: &spans[blk * kw..][..kw],
                            step: sw,
                        };
                        a.accumulate(&mut acc[..run], &taps);
                        let cols = ox0..(ox0 + BLOCK).min(ow);
                        for (acc, plane) in acc.iter().zip(head.chunks_exact_mut(plane_len)) {
                            a.finish(&acc[..cols.len()], &mut plane[oy * ow..][cols.clone()]);
                        }
                    }
                }
            }
        });
    out
}

/// Float arithmetic: bias (or zero), then `acc + x · w` in f32 over
/// `ic, ky, kx` ascending — the order is the specification.
struct F32Arith<'a>(Option<&'a [f32]>);

impl Arith for F32Arith<'_> {
    type X = f32;
    type W = f32;
    type Acc = f32;
    type Out = f32;
    fn start(&self, o: usize) -> f32 {
        self.0.map_or(0.0, |b| b[o])
    }
    fn accumulate(&self, acc: &mut [[f32; BLOCK]], taps: &Taps<'_, f32, f32>) {
        for (x_row, w_row) in taps.rows() {
            for (kx, s) in taps.spans.iter().enumerate() {
                if s.lo == s.hi {
                    continue;
                }
                let xs = &taps.x[x_row + s.x0..];
                for (r, acc) in acc.iter_mut().enumerate() {
                    let w = taps.w[r * taps.w_len + w_row + kx];
                    mac_row(&mut acc[s.lo..s.hi], xs, taps.step, w);
                }
            }
        }
    }
    fn finish(&self, acc: &[f32], out: &mut [f32]) {
        out.copy_from_slice(acc);
    }
}

/// `acc[j] = acc[j] + xs[j · step] · w`, a rounded product then a rounded
/// sum: the one loop the vectoriser has to see through, kept behind a
/// signature that tells it the slices are disjoint.
#[inline]
fn mac_row(acc: &mut [f32], xs: &[f32], step: usize, w: f32) {
    if step == 1 {
        for (sum, &x) in acc.iter_mut().zip(xs) {
            *sum += x * w;
        }
    } else {
        for (sum, &x) in acc.iter_mut().zip(xs.iter().step_by(step)) {
            *sum += x * w;
        }
    }
}

/// Run `g` in float arithmetic.
pub(super) fn f32_planes(
    g: &ConvGeom,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<Vec<f32>, KernelError> {
    let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
    let wt = weight.as_f32().map_err(|e| kerr(e.to_string()))?;
    let b = match bias {
        Some(t) => Some(t.as_f32().map_err(|e| kerr(e.to_string()))?),
        None => None,
    };
    Ok(conv_planes(g, &F32Arith(b), x, wt, 0.0))
}

/// `NCHW` × `OIHW` float convolution.
///
/// `weight` has shape `[out_c, in_c/groups, kh, kw]`; `bias`, when present,
/// has shape `[out_c]`.
pub fn conv2d_f32(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor, KernelError> {
    let (ishape, wshape) = (input.shape().dims(), weight.shape().dims());
    let g = ConvGeom::new("conv2d", ishape, wshape, bias, params)?;
    let out = f32_planes(&g, input, weight, bias)?;
    Tensor::from_f32(g.output, out).map_err(|e| kerr(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t4(shape: [usize; 4], data: Vec<f32>) -> Tensor {
        Tensor::from_f32(shape, data).unwrap()
    }

    #[test]
    fn identity_kernel() {
        // 1x1 kernel of value 1 reproduces the input.
        let x = t4([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = t4([1, 1, 1, 1], vec![1.0]);
        let y = conv2d_f32(&x, &w, None, &Conv2dParams::default()).unwrap();
        assert_eq!(y.as_f32().unwrap(), x.as_f32().unwrap());
    }

    #[test]
    fn known_3x3_valid() {
        // 3x3 all-ones kernel over a 3x3 all-ones image = 9.
        let x = t4([1, 1, 3, 3], vec![1.0; 9]);
        let w = t4([1, 1, 3, 3], vec![1.0; 9]);
        let y = conv2d_f32(&x, &w, None, &Conv2dParams::default()).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_f32().unwrap()[0], 9.0);
    }

    #[test]
    fn same_padding_shape() {
        let x = t4([1, 1, 4, 4], vec![0.0; 16]);
        let w = t4([2, 1, 3, 3], vec![0.0; 18]);
        let y = conv2d_f32(&x, &w, None, &Conv2dParams::same(1)).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn stride_two() {
        let x = t4([1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = t4([1, 1, 1, 1], vec![1.0]);
        let p = Conv2dParams {
            strides: (2, 2),
            ..Default::default()
        };
        let y = conv2d_f32(&x, &w, None, &p).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_f32().unwrap(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn bias_added_per_channel() {
        let x = t4([1, 1, 2, 2], vec![1.0; 4]);
        let w = t4([2, 1, 1, 1], vec![1.0, 2.0]);
        let b = Tensor::from_f32([2], vec![10.0, 20.0]).unwrap();
        let y = conv2d_f32(&x, &w, Some(&b), &Conv2dParams::default()).unwrap();
        let v = y.as_f32().unwrap();
        assert!(v[..4].iter().all(|&e| e == 11.0));
        assert!(v[4..].iter().all(|&e| e == 22.0));
    }

    #[test]
    fn depthwise_groups() {
        // groups = C: each channel convolved independently.
        let x = t4([1, 2, 2, 2], vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
        let w = t4([2, 1, 2, 2], vec![1.0; 8]);
        let p = Conv2dParams {
            groups: 2,
            ..Default::default()
        };
        let y = conv2d_f32(&x, &w, None, &p).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[4.0, 8.0]);
    }

    #[test]
    fn dilation() {
        // Dilated 2x2 kernel with d=2 covers a 3x3 receptive field.
        let x = t4([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let w = t4([1, 1, 2, 2], vec![1.0; 4]);
        let p = Conv2dParams {
            dilation: (2, 2),
            ..Default::default()
        };
        let y = conv2d_f32(&x, &w, None, &p).unwrap();
        // Corners of the 3x3 image: 1 + 3 + 7 + 9 = 20.
        assert_eq!(y.as_f32().unwrap(), &[20.0]);
    }

    #[test]
    fn rejects_bad_groups() {
        let x = t4([1, 3, 2, 2], vec![0.0; 12]);
        let w = t4([4, 1, 1, 1], vec![0.0; 4]);
        let p = Conv2dParams {
            groups: 2,
            ..Default::default()
        };
        assert!(conv2d_f32(&x, &w, None, &p).is_err());
    }

    #[test]
    fn rejects_kernel_larger_than_input() {
        let x = t4([1, 1, 2, 2], vec![0.0; 4]);
        let w = t4([1, 1, 5, 5], vec![0.0; 25]);
        assert!(conv2d_f32(&x, &w, None, &Conv2dParams::default()).is_err());
    }

    #[test]
    fn zero_stride_is_an_error_not_a_division_by_zero() {
        let x = t4([1, 1, 4, 4], vec![0.0; 16]);
        let w = t4([1, 1, 1, 1], vec![1.0]);
        for strides in [(0, 1), (1, 0)] {
            let p = Conv2dParams {
                strides,
                ..Default::default()
            };
            assert!(p.out_hw(4, 4, 1, 1).is_err());
            assert!(conv2d_f32(&x, &w, None, &p).is_err());
        }
    }

    #[test]
    fn empty_kernel_is_an_error_not_an_underflow() {
        let p = Conv2dParams::default();
        assert!(p.out_hw(4, 4, 0, 1).is_err());
        assert!(p.out_hw(4, 4, 1, 0).is_err());
        let x = t4([1, 1, 4, 4], vec![0.0; 16]);
        let w = Tensor::from_f32([1, 1, 0, 3], vec![]).unwrap();
        assert!(conv2d_f32(&x, &w, None, &p).is_err());
    }

    /// Padding or dilation a file can hold used to overflow the padded
    /// extent: a panic under overflow checks, a wrong shape without them.
    #[test]
    fn geometry_past_usize_is_an_error_not_an_overflow() {
        let big = usize::MAX - 1;
        for p in [
            Conv2dParams {
                padding: (big, 0, 2, 0),
                ..Default::default()
            },
            Conv2dParams {
                padding: (0, 1, 0, big),
                ..Default::default()
            },
            Conv2dParams {
                dilation: (1, big),
                ..Default::default()
            },
        ] {
            let err = p.out_hw(4, 4, 3, 3).unwrap_err();
            assert!(err.0.contains("overflows"), "{err}");
            let x = t4([1, 1, 4, 4], vec![0.0; 16]);
            let w = t4([1, 1, 3, 3], vec![0.0; 9]);
            assert!(conv2d_f32(&x, &w, None, &p).is_err());
        }
    }
}
