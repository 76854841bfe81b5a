//! Float32 2-D convolution, blocked over output columns and Rayon-parallel
//! over the batch × output-channel dimension. Dense convolutions take a
//! packed SSE2 register tile on x86_64 (`sse2`) and depthwise ones a
//! register tile in plain Rust (`depthwise_planes`), both over the input's
//! column phases (`Phases`), under the same per-element specification;
//! the rest run the walk, `conv_planes`.
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
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

/// Spatial attributes of a 2-D convolution, also Relay's `Conv2dAttrs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// `[oc, c/groups, kh, kw]`): the shape rule of `nn.conv2d`, `qnn.conv2d`
/// and, through [`super::dense_geom`], of the dense ops — the type checker
/// and the kernels build the same one, only through [`ConvGeom::new`].
pub struct ConvGeom {
    /// Input `[n, c, h, w]`.
    pub(crate) input: [usize; 4],
    /// Weight `[oc, c/groups, kh, kw]`.
    pub(crate) weight: [usize; 4],
    /// Output `[n, oc, oh, ow]`.
    pub(crate) output: [usize; 4],
    /// Strides, padding, dilation and groups.
    pub(crate) params: Conv2dParams,
}

impl ConvGeom {
    /// Check input, weight and (when present) bias dims against `params`;
    /// `op` names the operator in the error.
    pub fn new(
        op: &str,
        ishape: &[usize],
        wshape: &[usize],
        bias: Option<&[usize]>,
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
        if bias.is_some_and(|b| b.iter().product::<usize>() != oc) {
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

    /// Output dims `[n, oc, oh, ow]`.
    pub fn output(&self) -> [usize; 4] {
        self.output
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
pub(super) struct F32Arith<'a>(pub Option<&'a [f32]>);

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

/// The `f32` payload of a float operand.
pub(super) fn f32_payload(t: &Tensor) -> Result<&[f32], KernelError> {
    t.as_f32().map_err(|e| kerr(e.to_string()))
}

/// `NCHW` × `OIHW` float convolution.
///
/// `weight` has shape `[out_c, in_c/groups, kh, kw]`; `bias`, when present,
/// has shape `[out_c]`. Dense (`groups = 1`) convolutions run the packed
/// SSE2 tile on x86_64 (see `sse2`) and depthwise (`in_c/groups = 1`) ones
/// the depthwise tile, both over the input's column phases; the rest run
/// the portable walk.
pub fn conv2d_f32(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor, KernelError> {
    conv2d_f32_with(input, weight, bias, params, true)
}

/// [`conv2d_f32`], on the portable walk alone unless `packed`: the walk
/// grouped convolutions between dense and depthwise, and dense ones off
/// SSE2, run — the reference the tiles are compared with bit for bit.
#[doc(hidden)]
pub fn conv2d_f32_with(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
    packed: bool,
) -> Result<Tensor, KernelError> {
    let (ishape, wshape) = (input.shape().dims(), weight.shape().dims());
    let bias_dims = bias.map(|b| b.shape().dims());
    let g = ConvGeom::new("conv2d", ishape, wshape, bias_dims, params)?;
    let (x, wt) = (f32_payload(input)?, f32_payload(weight)?);
    let b = bias.map(f32_payload).transpose()?;
    let out = if packed {
        f32_conv(&g, x, wt, b)?
    } else {
        conv_planes(&g, &F32Arith(b), x, wt, 0.0)
    };
    Tensor::from_f32(g.output, out).map_err(|e| kerr(e.to_string()))
}

/// The float convolution `g`: dense and depthwise ones on their tiles,
/// the rest on the walk.
pub(super) fn f32_conv(
    g: &ConvGeom,
    x: &[f32],
    wt: &[f32],
    bias: Option<&[f32]>,
) -> Result<Vec<f32>, KernelError> {
    let dense = g.params.groups == 1 && cfg!(all(target_arch = "x86_64", target_feature = "sse2"));
    let depthwise = g.params.groups > 1 && g.weight[1] == 1;
    if x.is_empty() || g.weight[0] == 0 || !(dense || depthwise) {
        return Ok(conv_planes(g, &F32Arith(bias), x, wt, 0.0));
    }
    SCRATCH.with_borrow_mut(|s| {
        let lay = Phases::new(g);
        let x = lay.fill(g, x, &mut s.x)?;
        let reads = lay.reads(g, &mut s.taps, &mut s.rows, &mut s.edges);
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if dense {
            return Ok(sse2::conv(g, &reads, x, wt, bias, &mut s.w));
        }
        Ok(if reads.width() == V {
            depthwise_conv::<V>(g, &reads, x, wt, bias)
        } else {
            depthwise_conv::<{ V / 2 }>(g, &reads, x, wt, bias)
        })
    })
}

/// A call's column phases, tap lists and packed weights.
#[derive(Default)]
struct Scratch {
    /// The input's column phases, at a stride above 1.
    x: Vec<f32>,
    taps: Vec<(usize, usize)>,
    rows: Vec<usize>,
    edges: Vec<(usize, Range<usize>)>,
    /// Dense weights, packed `[oc / R][tap][R]`.
    w: Vec<f32>,
}

thread_local! {
    /// Grown to the largest call of its thread and reused: a steady state
    /// run allocates nothing here.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Output columns of a register tile; a row with fewer than `V` interior
/// columns takes tiles half as wide.
const V: usize = 8;

/// Where a tile reads the input: each input row as `sw` column phases,
/// padded column `cc` at phase `cc % sw`, entry `cc / sw − lead`, so the
/// columns one tap reads for adjacent outputs are adjacent at any stride.
/// Only the image's columns are written — padding is never materialised,
/// and only in-image taps are read. At unit stride this is the image
/// itself.
struct Phases {
    /// Input columns between adjacent output columns.
    sw: usize,
    /// Entries per phase.
    wq: usize,
    /// Entries before the first one that holds an image column: `pl / sw`.
    lead: usize,
}

/// What the tiles and columns of one call read, listed once per call.
struct Reads<'a> {
    /// Entries of one input plane.
    plane: usize,
    /// [`Phases::lead`].
    lead: usize,
    /// `(offset into one image's phases, tap)` of every kernel column of
    /// every in-image `(ic, ky)` row of every output row, in `ic, ky, kx`
    /// order, `kw` per `(ic, ky)`, where a tap is `(ic·kh + ky)·kw + kx`.
    /// Kernel column `kx` of output column `ox` reads entry
    /// `offset + ox − lead`.
    taps: &'a [(usize, usize)],
    /// Where each output row's taps start in `taps`, and their end.
    rows: &'a [usize],
    /// Each column tiles do not cover, with its in-image kernel columns.
    edges: &'a [(usize, Range<usize>)],
    /// The columns tiles cover: those whose every kernel column lands
    /// inside the image, when there are at least `V / 2` of them.
    inner: Range<usize>,
}

impl Phases {
    fn new(g: &ConvGeom) -> Self {
        let (w, sw, pl) = (g.input[3], g.params.strides.1, g.params.padding.1);
        // `out_hw` checked that `w + pl` fits and that `sw > 0`.
        let lead = pl / sw;
        Phases {
            sw,
            wq: (w + pl).div_ceil(sw) - lead,
            lead,
        }
    }

    /// Entries per input row.
    fn row(&self) -> usize {
        self.sw * self.wq
    }

    /// The input `x` in this layout: `x` itself at unit stride, else its
    /// phases copied into `buf`.
    fn fill<'a>(
        &self,
        g: &ConvGeom,
        x: &'a [f32],
        buf: &'a mut Vec<f32>,
    ) -> Result<&'a [f32], KernelError> {
        let (w, pl, sw) = (g.input[3], g.params.padding.1, self.sw);
        if sw == 1 {
            return Ok(x);
        }
        let len = (x.len() / w)
            .checked_mul(self.row())
            .ok_or_else(|| kerr("conv2d column phases overflow usize"))?;
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        for (src, dst) in x.chunks_exact(w).zip(buf.chunks_exact_mut(self.row())) {
            for (ph, dst) in dst.chunks_exact_mut(self.wq).enumerate() {
                // The first entry of phase `ph` at or past column `pl`.
                let e = pl.saturating_sub(ph).div_ceil(sw);
                let src = src.iter().skip(e * sw + ph - pl).step_by(sw);
                dst[e - self.lead..]
                    .iter_mut()
                    .zip(src)
                    .for_each(|(d, &s)| *d = s);
            }
        }
        Ok(&buf[..len])
    }

    /// List what `g` reads in this layout into the three buffers.
    fn reads<'a>(
        &self,
        g: &ConvGeom,
        taps: &'a mut Vec<(usize, usize)>,
        rows: &'a mut Vec<usize>,
        edges: &'a mut Vec<(usize, Range<usize>)>,
    ) -> Reads<'a> {
        let ([_, _, h, w], [_, cg, kh, kw], [_, _, oh, ow]) = (g.input, g.weight, g.output);
        let ((sh, sw), (dh, dw)) = (g.params.strides, g.params.dilation);
        let (pt, pl) = (g.params.padding.0, g.params.padding.1);
        taps.clear();
        rows.clear();
        rows.push(0);
        for oy in 0..oh {
            // Row `oy` reads input row `oy·sh + ky·dh − pt`.
            let top = oy * sh;
            for ic in 0..cg {
                for ky in in_image(top, pt, h, kh, dh) {
                    let x_row = (ic * h + top + ky * dh - pt) * self.row();
                    let t_row = (ic * kh + ky) * kw;
                    taps.extend((0..kw).map(|kx| {
                        let off = kx * dw;
                        (x_row + off % sw * self.wq + off / sw, t_row + kx)
                    }));
                }
            }
            rows.push(taps.len());
        }
        // Output column `ox` reads input columns `ox·sw − pl` to
        // `ox·sw − pl + (kw − 1)·dw`; `out_hw` checked both sums.
        let lo = pl.div_ceil(sw).min(ow);
        let hi = (w + pl)
            .saturating_sub((kw - 1) * dw)
            .div_ceil(sw)
            .clamp(lo, ow);
        let inner = if hi - lo >= V / 2 { lo..hi } else { 0..0 };
        edges.clear();
        edges.extend(
            (0..inner.start)
                .chain(inner.end..ow)
                .map(|ox| (ox, in_image(ox * sw, pl, w, kw, dw))),
        );
        Reads {
            plane: h * self.row(),
            lead: self.lead,
            taps,
            rows,
            edges,
            inner,
        }
    }
}

impl Reads<'_> {
    /// Output columns of this call's tiles: [`V`], or `V / 2` when the
    /// interior is narrower than `V`.
    fn width(&self) -> usize {
        if self.inner.len() >= V {
            V
        } else {
            V / 2
        }
    }

    /// Where each tile of a row starts: [`Self::width`] apart, the last
    /// one ending at the interior's end.
    fn tiles(&self) -> impl Iterator<Item = usize> {
        let (Range { start, end }, v) = (self.inner.clone(), self.width());
        let last = end.saturating_sub(v);
        (start..last)
            .step_by(v)
            .chain((start < end).then_some(last))
    }
}

/// The kernel rows (or columns) of an output row (or column) whose input
/// row (or column) `start + k·d − pad` lies in `0..len`.
fn in_image(start: usize, pad: usize, len: usize, k: usize, d: usize) -> Range<usize> {
    let lo = pad.saturating_sub(start).div_ceil(d).min(k);
    lo..(len + pad).saturating_sub(start).div_ceil(d).clamp(lo, k)
}

/// The depthwise (`c / groups = 1`) convolution `g` over the column phases
/// `x`, one [`OC_BLOCK`] of output planes per parallel task, on tiles `C`
/// columns wide (`r`'s [`Reads::width`]).
fn depthwise_conv<const C: usize>(
    g: &ConvGeom,
    r: &Reads<'_>,
    x: &[f32],
    wt: &[f32],
    bias: Option<&[f32]>,
) -> Vec<f32> {
    debug_assert_eq!(r.width(), C);
    let [n, oc, oh, ow] = g.output;
    let plane_len = oh * ow;
    let mut out = vec![0.0; n * oc * plane_len];
    out.par_chunks_mut(plane_len * OC_BLOCK)
        .enumerate()
        .for_each(|(chunk, out)| {
            let first = chunk * OC_BLOCK;
            if out.len() == plane_len * OC_BLOCK {
                depthwise_planes::<OC_BLOCK, C>(g, r, x, wt, bias, first, out);
            } else {
                for (p, out) in (first..).zip(out.chunks_exact_mut(plane_len)) {
                    depthwise_planes::<1, C>(g, r, x, wt, bias, p, out);
                }
            }
        });
    out
}

/// Output planes `first..first + P` of the depthwise convolution `g`, into
/// `out`. Border columns run their in-image taps one column at a time;
/// interior columns run a tile of `P` planes × `C` columns whose sums
/// stay in registers, the last tile overlapping its neighbour. Every
/// element is `bias`, then `+ x·w` over its in-image taps in `ky, kx`
/// order — the walk's bits.
fn depthwise_planes<const P: usize, const C: usize>(
    g: &ConvGeom,
    r: &Reads<'_>,
    x: &[f32],
    wt: &[f32],
    bias: Option<&[f32]>,
    first: usize,
    out: &mut [f32],
) {
    let ([_, c, _, _], [oc, _, kh, kw], [_, _, oh, ow]) = (g.input, g.weight, g.output);
    let (og, plane_len, lead) = (oc / c, oh * ow, r.lead);
    // Plane `p` is output channel `p % oc` of image `p / oc`.
    let xs: [&[f32]; P] = std::array::from_fn(|i| {
        let p = first + i;
        &x[(p / oc * c + p % oc / og) * r.plane..][..r.plane]
    });
    let ws: [&[f32]; P] = std::array::from_fn(|i| &wt[(first + i) % oc * kh * kw..][..kh * kw]);
    let start: [f32; P] = std::array::from_fn(|i| bias.map_or(0.0, |b| b[(first + i) % oc]));
    for (oy, row) in r.rows.windows(2).enumerate() {
        let taps = &r.taps[row[0]..row[1]];
        let at = |i: usize, ox: usize| i * plane_len + oy * ow + ox;
        for (ox, kx) in r.edges {
            let mut acc = start;
            for row in taps.chunks_exact(kw) {
                for &(xo, t) in &row[kx.clone()] {
                    for (i, acc) in acc.iter_mut().enumerate() {
                        *acc += xs[i][xo + ox - lead] * ws[i][t];
                    }
                }
            }
            for (i, acc) in acc.into_iter().enumerate() {
                out[at(i, *ox)] = acc;
            }
        }
        for ox in r.tiles() {
            let mut acc = start.map(|s| [s; C]);
            for &(xo, t) in taps {
                for (i, acc) in acc.iter_mut().enumerate() {
                    let (x, w) = (&xs[i][xo + ox - lead..][..C], ws[i][t]);
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += x * w;
                    }
                }
            }
            for (i, acc) in acc.iter().enumerate() {
                out[at(i, ox)..][..C].copy_from_slice(acc);
            }
        }
    }
}

/// The dense (`groups = 1`) tile. Each call packs the weights
/// `[oc / R][tap][R]`, each output channel's taps in `ic, ky, kx` order
/// and zero past the last channel. A row's interior columns — those whose
/// every kernel column lands inside the image — run a register tile of
/// [`R`] output channels × [`V`] output columns over the column phases,
/// at any stride (`V / 2` columns when the row has fewer than `V`
/// interior ones); its eight (four) xmm accumulators start from the bias
/// and take one `mulps` + `addps` per tap and register, and the last tile
/// overlaps its neighbour and starts from the bias again, so no column is
/// left to a scalar loop. Every other column (all of them in a row with
/// fewer than `V / 2` interior columns) runs a column kernel over its own
/// in-image taps: one register of [`R`] output channels, the input
/// broadcast, the same packed weight quads. Each output element is thus
/// `bias`, then `+ x·w` over its in-image taps in the walk's order — the
/// walk's bits.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{ConvGeom, Reads, V};
    use core::arch::x86_64::*;
    use rayon::prelude::*;
    use std::ops::Range;

    /// Output channels of a tile or a column: the lanes of one register.
    const R: usize = 4;

    /// The dense convolution `g` over the column phases `x`, reading what
    /// `r` lists; the weights are packed into `wp`.
    pub(super) fn conv(
        g: &ConvGeom,
        r: &Reads<'_>,
        x: &[f32],
        wt: &[f32],
        bias: Option<&[f32]>,
        wp: &mut Vec<f32>,
    ) -> Vec<f32> {
        let ([n, c, _, _], [oc, cg, kh, kw], [_, _, oh, ow]) = (g.input, g.weight, g.output);
        let (t_len, plane_len) = (cg * kh * kw, oh * ow);
        wp.clear();
        wp.resize(oc.div_ceil(R) * t_len * R, 0.0);
        for (o, wo) in wt.chunks_exact(t_len).enumerate() {
            for (t, &v) in wo.iter().enumerate() {
                wp[(o / R * t_len + t) * R + o % R] = v;
            }
        }
        let mut out = vec![0.0; n * oc * plane_len];
        let images = x.chunks_exact(c * r.plane);
        for (image, out) in images.zip(out.chunks_exact_mut(oc * plane_len)) {
            out.par_chunks_mut(R * plane_len)
                .enumerate()
                .for_each(|(b, out)| {
                    let w = &wp[b * t_len * R..][..t_len * R];
                    let bias = std::array::from_fn(|r| {
                        bias.and_then(|bias| bias.get(b * R + r).copied())
                            .unwrap_or(0.0)
                    });
                    // SAFETY: `block` enables SSE2 alone, which every
                    // x86_64 CPU has and this module is compiled only for.
                    unsafe { block(g, r, image, w, bias, out) }
                });
        }
        out
    }

    /// Every output row of one block of [`R`] channels, into its `out`
    /// planes: border columns one at a time, interior columns by tiles.
    #[target_feature(enable = "sse2")]
    fn block(g: &ConvGeom, r: &Reads<'_>, x: &[f32], w: &[f32], bias: [f32; R], out: &mut [f32]) {
        let ([_, _, _, kw], [_, _, oh, ow], lead) = (g.weight, g.output, r.lead);
        let bias = _mm_setr_ps(bias[0], bias[1], bias[2], bias[3]);
        for (oy, row) in r.rows.windows(2).enumerate() {
            let taps = &r.taps[row[0]..row[1]];
            let at = |ox: usize| oy * ow + ox;
            for (ox, kx) in r.edges {
                let sums = column(x, taps, kw, kx.clone(), *ox, lead, w, bias);
                for (plane, s) in out.chunks_exact_mut(oh * ow).zip(sums) {
                    plane[at(*ox)] = s;
                }
            }
            for ox in r.tiles() {
                let x = &x[ox - lead..];
                if r.width() == V {
                    tile::<{ V / 4 }>(x, taps, w, bias, out, oh * ow, at(ox));
                } else {
                    tile::<{ V / 8 }>(x, taps, w, bias, out, oh * ow, at(ox));
                }
            }
        }
    }

    /// Each lane of `v`, broadcast to a register.
    #[target_feature(enable = "sse2")]
    fn splats(v: __m128) -> [__m128; 4] {
        [
            _mm_shuffle_ps::<0x00>(v, v),
            _mm_shuffle_ps::<0x55>(v, v),
            _mm_shuffle_ps::<0xAA>(v, v),
            _mm_shuffle_ps::<0xFF>(v, v),
        ]
    }

    /// The four lanes of `v`.
    #[target_feature(enable = "sse2")]
    fn lanes(v: __m128) -> [f32; 4] {
        splats(v).map(|v| _mm_cvtss_f32(v))
    }

    /// The packed weight quad of tap `t`.
    #[target_feature(enable = "sse2")]
    fn quad(w: &[f32], t: usize) -> __m128 {
        let q = &w[t * R..][..R];
        _mm_setr_ps(q[0], q[1], q[2], q[3])
    }

    /// `bias[r] + Σ x[offset + ox − lead] ⋅ w[tap][r]` over the taps of
    /// kernel columns `kx` of every `(ic, ky)` row of `taps`, the [`R`]
    /// channels one per lane.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    fn column(
        x: &[f32],
        taps: &[(usize, usize)],
        kw: usize,
        kx: Range<usize>,
        ox: usize,
        lead: usize,
        w: &[f32],
        bias: __m128,
    ) -> [f32; R] {
        let mut a = bias;
        for row in taps.chunks_exact(kw) {
            for &(xo, t) in &row[kx.clone()] {
                let xv = _mm_set1_ps(x[xo + ox - lead]);
                a = _mm_add_ps(a, _mm_mul_ps(xv, quad(w, t)));
            }
        }
        lanes(a)
    }

    /// `bias[r] + Σ x[offset + v] ⋅ w[tap][r]` over every tap for the
    /// `4·Q` columns `v` and [`R`] channels `r` of a tile, the accumulators
    /// in xmm registers throughout (`Q` per channel), stored at `at` of
    /// each of `out`'s planes of `plane` elements.
    #[target_feature(enable = "sse2")]
    fn tile<const Q: usize>(
        x: &[f32],
        taps: &[(usize, usize)],
        w: &[f32],
        bias: __m128,
        out: &mut [f32],
        plane: usize,
        at: usize,
    ) {
        let mut a = splats(bias).map(|b| [b; Q]);
        for &(xo, t) in taps {
            let xs = &x[xo..][..4 * Q];
            let xv: [__m128; Q] = std::array::from_fn(|q| {
                let s = &xs[4 * q..][..4];
                _mm_setr_ps(s[0], s[1], s[2], s[3])
            });
            for (a, w) in a.iter_mut().zip(splats(quad(w, t))) {
                for (a, &x) in a.iter_mut().zip(&xv) {
                    *a = _mm_add_ps(*a, _mm_mul_ps(x, w));
                }
            }
        }
        for (plane, a) in out.chunks_exact_mut(plane).zip(a) {
            for (out, a) in plane[at..][..4 * Q].chunks_exact_mut(4).zip(a) {
                out.copy_from_slice(&lanes(a));
            }
        }
    }
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
