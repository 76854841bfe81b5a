//! Bit-identity of the tensor kernels against the direct loops they
//! replaced.
//!
//! The kernel numerics contract (DESIGN.md) is "per-output-element
//! operation order is the specification". The [`reference`] module below is
//! the pre-vectorisation implementation of each kernel, copied verbatim
//! from `src/kernels` at the commit before the restructuring (rayon's
//! `par_chunks_mut` spelled `chunks_mut`, otherwise untouched), so nothing
//! here shares code with what it checks. Every comparison is on `to_bits`.

mod gemmlowp;

use tvmnp_models::{anti_spoofing, emotion, object_detection, zoo};
use tvmnp_relay::{infer_types, visit::topo_order, ExprKind, OpKind};
use tvmnp_tensor::kernels::conv::conv2d_f32_with;
use tvmnp_tensor::kernels::qconv::qconv2d_with;
use tvmnp_tensor::kernels::{
    self, BinaryOp, Conv2dParams, KernelError, Pool2dParams, QConvQuant, UnaryOp,
};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::{DType, QuantParams, Tensor};

/// The direct loops, verbatim.
mod reference {
    use tvmnp_tensor::kernels::{
        kerr, BinaryOp, Conv2dParams, KernelError, Pool2dParams, QConvQuant, UnaryOp,
    };
    use tvmnp_tensor::quant::{FixedPointMultiplier, QuantParams};
    use tvmnp_tensor::{DType, Shape, Tensor};

    pub fn conv2d_f32(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        params: &Conv2dParams,
    ) -> Result<Tensor, KernelError> {
        let ishape = input.shape().dims();
        let wshape = weight.shape().dims();
        if ishape.len() != 4 || wshape.len() != 4 {
            return Err(kerr(format!(
                "conv2d expects rank-4 input/weight, got {:?} / {:?}",
                ishape, wshape
            )));
        }
        let (n, c, h, w) = (ishape[0], ishape[1], ishape[2], ishape[3]);
        let (oc, wic, kh, kw) = (wshape[0], wshape[1], wshape[2], wshape[3]);
        let groups = params.groups;
        if groups == 0 || c % groups != 0 || oc % groups != 0 {
            return Err(kerr(format!(
                "conv2d groups {groups} incompatible with C={c}, O={oc}"
            )));
        }
        if wic != c / groups {
            return Err(kerr(format!(
                "conv2d weight in-channels {wic} != input C/groups {}",
                c / groups
            )));
        }
        let (oh, ow) = params.out_hw(h, w, kh, kw)?;
        let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
        let wt = weight.as_f32().map_err(|e| kerr(e.to_string()))?;
        let b = match bias {
            Some(t) => Some(t.as_f32().map_err(|e| kerr(e.to_string()))?),
            None => None,
        };
        if let Some(b) = b {
            if b.len() != oc {
                return Err(kerr(format!(
                    "conv2d bias length {} != out channels {oc}",
                    b.len()
                )));
            }
        }

        let (pt, pl, _, _) = params.padding;
        let (sh, sw) = params.strides;
        let (dh, dw) = params.dilation;
        let cg = c / groups; // channels per group
        let og = oc / groups; // output channels per group

        let mut out = vec![0.0f32; n * oc * oh * ow];
        // One output image plane (fixed n, fixed oc) per parallel task.
        out.chunks_mut(oh * ow)
            .enumerate()
            .for_each(|(plane, out_plane)| {
                let ni = plane / oc;
                let o = plane % oc;
                let g = o / og;
                let bias_v = b.map(|b| b[o]).unwrap_or(0.0);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias_v;
                        for ic in 0..cg {
                            let in_c = g * cg + ic;
                            let x_base = ((ni * c + in_c) * h) * w;
                            let w_base = ((o * cg + ic) * kh) * kw;
                            for ky in 0..kh {
                                let iy = (oy * sh + ky * dh) as isize - pt as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = (ox * sw + kx * dw) as isize - pl as isize;
                                    if ix < 0 || ix as usize >= w {
                                        continue;
                                    }
                                    acc += x[x_base + iy as usize * w + ix as usize]
                                        * wt[w_base + ky * kw + kx];
                                }
                            }
                        }
                        out_plane[oy * ow + ox] = acc;
                    }
                }
            });

        Tensor::from_f32([n, oc, oh, ow], out).map_err(|e| kerr(e.to_string()))
    }

    pub fn qconv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        params: &Conv2dParams,
        quant: &QConvQuant,
    ) -> Result<Tensor, KernelError> {
        let ishape = input.shape().dims();
        let wshape = weight.shape().dims();
        if ishape.len() != 4 || wshape.len() != 4 {
            return Err(kerr("qconv2d expects rank-4 input and weight".to_string()));
        }
        if !input.dtype().is_quantized() || !weight.dtype().is_quantized() {
            return Err(kerr(format!(
                "qconv2d expects quantized operands, got {} / {}",
                input.dtype(),
                weight.dtype()
            )));
        }
        let (n, c, h, w) = (ishape[0], ishape[1], ishape[2], ishape[3]);
        let (oc, wic, kh, kw) = (wshape[0], wshape[1], wshape[2], wshape[3]);
        let groups = params.groups;
        if groups == 0 || c % groups != 0 || oc % groups != 0 || wic != c / groups {
            return Err(kerr(format!(
                "qconv2d group/channel mismatch: C={c}, O={oc}, groups={groups}, w_ic={wic}"
            )));
        }
        let (oh, ow) = params.out_hw(h, w, kh, kw)?;

        let x: Vec<i32> = input.iter_int().collect();
        let wt: Vec<i32> = weight.iter_int().collect();
        let b: Option<&[i32]> = match bias {
            Some(t) => Some(t.as_i32().map_err(|e| kerr(e.to_string()))?),
            None => None,
        };
        if let Some(b) = b {
            if b.len() != oc {
                return Err(kerr(format!(
                    "qconv2d bias length {} != out channels {oc}",
                    b.len()
                )));
            }
        }

        let zx = quant.input.zero_point;
        let zw = quant.weight.zero_point;
        let fpm = FixedPointMultiplier::from_real(quant.real_multiplier());
        let zo = quant.output.zero_point;
        let out_dtype = quant.out_dtype;

        let (pt, pl, _, _) = params.padding;
        let (sh, sw) = params.strides;
        let (dh, dw) = params.dilation;
        let cg = c / groups;
        let og = oc / groups;

        let mut out = vec![0i32; n * oc * oh * ow];
        out.chunks_mut(oh * ow)
            .enumerate()
            .for_each(|(plane, out_plane)| {
                let ni = plane / oc;
                let o = plane % oc;
                let g = o / og;
                let bias_v = b.map(|b| b[o]).unwrap_or(0);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc: i64 = bias_v as i64;
                        for ic in 0..cg {
                            let in_c = g * cg + ic;
                            let x_base = ((ni * c + in_c) * h) * w;
                            let w_base = ((o * cg + ic) * kh) * kw;
                            for ky in 0..kh {
                                let iy = (oy * sh + ky * dh) as isize - pt as isize;
                                for kx in 0..kw {
                                    let ix = (ox * sw + kx * dw) as isize - pl as isize;
                                    // Out-of-bounds taps read the input zero point,
                                    // i.e. real value 0 (TFLite padding semantics).
                                    let xv =
                                        if iy < 0 || iy as usize >= h || ix < 0 || ix as usize >= w
                                        {
                                            0i64
                                        } else {
                                            (x[x_base + iy as usize * w + ix as usize] - zx) as i64
                                        };
                                    let wv = (wt[w_base + ky * kw + kx] - zw) as i64;
                                    acc += xv * wv;
                                }
                            }
                        }
                        let acc32 = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                        out_plane[oy * ow + ox] =
                            requantize_value_scalar(acc32, fpm, zo, out_dtype);
                    }
                }
            });

        Tensor::from_int_values([n, oc, oh, ow], &out, out_dtype, Some(quant.output))
            .map_err(|e| kerr(e.to_string()))
    }

    pub fn dense_f32(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
    ) -> Result<Tensor, KernelError> {
        let ishape = input.shape().dims();
        let wshape = weight.shape().dims();
        if ishape.len() != 2 || wshape.len() != 2 {
            return Err(kerr(format!(
                "dense expects rank-2 operands, got {ishape:?} / {wshape:?}"
            )));
        }
        let (n, k) = (ishape[0], ishape[1]);
        let (units, wk) = (wshape[0], wshape[1]);
        if k != wk {
            return Err(kerr(format!(
                "dense reduction mismatch: input k={k}, weight k={wk}"
            )));
        }
        let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
        let wt = weight.as_f32().map_err(|e| kerr(e.to_string()))?;
        let b = match bias {
            Some(t) => {
                let b = t.as_f32().map_err(|e| kerr(e.to_string()))?;
                if b.len() != units {
                    return Err(kerr(format!(
                        "dense bias length {} != units {units}",
                        b.len()
                    )));
                }
                Some(b)
            }
            None => None,
        };
        let mut out = vec![0.0f32; n * units];
        out.chunks_mut(units)
            .enumerate()
            .for_each(|(row, out_row)| {
                let x_row = &x[row * k..(row + 1) * k];
                for (u, o) in out_row.iter_mut().enumerate() {
                    let w_row = &wt[u * k..(u + 1) * k];
                    let mut acc = b.map(|b| b[u]).unwrap_or(0.0);
                    for i in 0..k {
                        acc += x_row[i] * w_row[i];
                    }
                    *o = acc;
                }
            });
        Tensor::from_f32([n, units], out).map_err(|e| kerr(e.to_string()))
    }

    pub fn qdense(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        input_q: QuantParams,
        weight_q: QuantParams,
        output_q: QuantParams,
        out_dtype: DType,
    ) -> Result<Tensor, KernelError> {
        let ishape = input.shape().dims();
        let wshape = weight.shape().dims();
        if ishape.len() != 2 || wshape.len() != 2 {
            return Err(kerr("qdense expects rank-2 operands".to_string()));
        }
        if !input.dtype().is_quantized() || !weight.dtype().is_quantized() {
            return Err(kerr("qdense expects quantized operands".to_string()));
        }
        let (n, k) = (ishape[0], ishape[1]);
        let (units, wk) = (wshape[0], wshape[1]);
        if k != wk {
            return Err(kerr(format!("qdense reduction mismatch: {k} vs {wk}")));
        }
        let x: Vec<i32> = input.iter_int().collect();
        let wt: Vec<i32> = weight.iter_int().collect();
        let b: Option<&[i32]> = match bias {
            Some(t) => Some(t.as_i32().map_err(|e| kerr(e.to_string()))?),
            None => None,
        };
        let zx = input_q.zero_point;
        let zw = weight_q.zero_point;
        let fpm = FixedPointMultiplier::from_real(
            input_q.scale as f64 * weight_q.scale as f64 / output_q.scale as f64,
        );
        let zo = output_q.zero_point;
        let mut out = vec![0i32; n * units];
        out.chunks_mut(units)
            .enumerate()
            .for_each(|(row, out_row)| {
                let x_row = &x[row * k..(row + 1) * k];
                for (u, o) in out_row.iter_mut().enumerate() {
                    let w_row = &wt[u * k..(u + 1) * k];
                    let mut acc: i64 = b.map(|b| b[u]).unwrap_or(0) as i64;
                    for i in 0..k {
                        acc += (x_row[i] - zx) as i64 * (w_row[i] - zw) as i64;
                    }
                    let acc32 = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                    *o = requantize_value_scalar(acc32, fpm, zo, out_dtype);
                }
            });
        Tensor::from_int_values([n, units], &out, out_dtype, Some(output_q))
            .map_err(|e| kerr(e.to_string()))
    }

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
        match op {
            UnaryOp::Relu | UnaryOp::Relu6 | UnaryOp::Clip(..) => {
                let (qlo, qhi) = match op {
                    UnaryOp::Relu => (qp.zero_point.max(dlo), dhi),
                    UnaryOp::Relu6 => clamp_q(0.0, 6.0),
                    UnaryOp::Clip(lo, hi) => clamp_q(lo, hi),
                    _ => unreachable!(),
                };
                let vals: Vec<i32> = input.iter_int().map(|v| v.clamp(qlo, qhi)).collect();
                Tensor::from_int_values(input.shape().clone(), &vals, input.dtype(), Some(qp))
                    .map_err(|e| kerr(e.to_string()))
            }
            _ => {
                // Dequantize, evaluate, requantize with the same params — the
                // lookup-table strategy integer runtimes use.
                let f = input.to_f32();
                let vals: Vec<i32> = f
                    .as_f32()
                    .unwrap()
                    .iter()
                    .map(|&x| qp.quantize(op.eval(x), input.dtype()))
                    .collect();
                Tensor::from_int_values(input.shape().clone(), &vals, input.dtype(), Some(qp))
                    .map_err(|e| kerr(e.to_string()))
            }
        }
    }

    pub fn binary_f32(a: &Tensor, b: &Tensor, op: BinaryOp) -> Result<Tensor, KernelError> {
        let out_shape = a
            .shape()
            .broadcast(b.shape())
            .ok_or_else(|| kerr(format!("cannot broadcast {} with {}", a.shape(), b.shape())))?;
        let av = a.as_f32().map_err(|e| kerr(e.to_string()))?;
        let bv = b.as_f32().map_err(|e| kerr(e.to_string()))?;
        let n = out_shape.num_elements();
        let mut out = vec![0.0f32; n];
        let a_idx = BroadcastIndexer::new(a.shape(), &out_shape);
        let b_idx = BroadcastIndexer::new(b.shape(), &out_shape);
        for (i, o) in out.iter_mut().enumerate() {
            *o = op.eval(av[a_idx.map(i, &out_shape)], bv[b_idx.map(i, &out_shape)]);
        }
        Tensor::from_f32(out_shape, out).map_err(|e| kerr(e.to_string()))
    }

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
        if !a.dtype().is_quantized() || !b.dtype().is_quantized() {
            return Err(kerr("qadd expects quantized operands".to_string()));
        }
        let av: Vec<i32> = a.iter_int().collect();
        let bv: Vec<i32> = b.iter_int().collect();
        let a_idx = BroadcastIndexer::new(a.shape(), &out_shape);
        let b_idx = BroadcastIndexer::new(b.shape(), &out_shape);
        let (lo, hi) = out_dtype.int_range().expect("quantized out dtype");
        let n = out_shape.num_elements();
        let mut out = vec![0i32; n];
        for (i, o) in out.iter_mut().enumerate() {
            let ra = a_q.dequantize(av[a_idx.map(i, &out_shape)]);
            let rb = b_q.dequantize(bv[b_idx.map(i, &out_shape)]);
            let q = ((ra + rb) / out_q.scale).round() as i64 + out_q.zero_point as i64;
            *o = q.clamp(lo as i64, hi as i64) as i32;
        }
        Tensor::from_int_values(out_shape, &out, out_dtype, Some(out_q))
            .map_err(|e| kerr(e.to_string()))
    }

    /// `FixedPointMultiplier::apply` + `requantize_value`, one value at a
    /// time, as gemmlowp defines them (`gemmlowp/mod.rs`).
    pub fn requantize_value_scalar(
        acc: i32,
        m: FixedPointMultiplier,
        out_zero_point: i32,
        out_dtype: DType,
    ) -> i32 {
        let range = out_dtype
            .int_range()
            .expect("requantize target must be integer");
        crate::gemmlowp::requantize(acc, (m.multiplier, m.shift), out_zero_point, range)
    }

    /// `qnn.requantize` as the interpreter and the Neuron runtime each
    /// spelled it.
    pub fn requantize(
        x: &Tensor,
        in_q: QuantParams,
        out_q: QuantParams,
        out_dtype: DType,
    ) -> Result<Tensor, KernelError> {
        let fpm = FixedPointMultiplier::from_real(in_q.scale as f64 / out_q.scale as f64);
        let vals: Vec<i32> = x
            .iter_int()
            .map(|q| requantize_value_scalar(q - in_q.zero_point, fpm, out_q.zero_point, out_dtype))
            .collect();
        Tensor::from_int_values(x.shape().clone(), &vals, out_dtype, Some(out_q))
            .map_err(|e| kerr(e.to_string()))
    }

    /// `qnn.dequantize`, likewise.
    pub fn dequantize(x: &Tensor, in_q: QuantParams) -> Result<Tensor, KernelError> {
        let vals: Vec<f32> = x.iter_int().map(|q| in_q.dequantize(q)).collect();
        Tensor::from_f32(x.shape().clone(), vals).map_err(|e| kerr(e.to_string()))
    }

    /// Maps a flat output index back to a flat input index under broadcasting.
    struct BroadcastIndexer {
        /// Stride per output dimension into the input buffer (0 where broadcast).
        strides: Vec<usize>,
    }

    impl BroadcastIndexer {
        fn new(in_shape: &Shape, out_shape: &Shape) -> Self {
            let in_dims = in_shape.dims();
            let out_rank = out_shape.rank();
            let offset = out_rank - in_dims.len();
            let in_strides = in_shape.strides();
            let mut strides = vec![0usize; out_rank];
            for i in 0..in_dims.len() {
                strides[offset + i] = if in_dims[i] == 1 { 0 } else { in_strides[i] };
            }
            BroadcastIndexer { strides }
        }

        fn map(&self, flat_out: usize, out_shape: &Shape) -> usize {
            let idx = out_shape.unravel(flat_out);
            idx.iter().zip(&self.strides).map(|(&i, &s)| i * s).sum()
        }
    }

    /// Gather elements of `input` at flat source offsets into a new tensor of
    /// `out_shape`, preserving dtype and quant params.
    fn gather_by_offsets(
        input: &Tensor,
        out_shape: Shape,
        offsets: &[usize],
    ) -> Result<Tensor, KernelError> {
        debug_assert_eq!(out_shape.num_elements(), offsets.len());
        if input.dtype().is_float() {
            let x = input.as_f32().unwrap();
            let out: Vec<f32> = offsets.iter().map(|&o| x[o]).collect();
            Tensor::from_f32(out_shape, out).map_err(|e| kerr(e.to_string()))
        } else {
            let x: Vec<i32> = input.iter_int().collect();
            let out: Vec<i32> = offsets.iter().map(|&o| x[o]).collect();
            Tensor::from_int_values(out_shape, &out, input.dtype(), input.quant())
                .map_err(|e| kerr(e.to_string()))
        }
    }

    pub fn transpose(input: &Tensor, axes: &[usize]) -> Result<Tensor, KernelError> {
        let dims = input.shape().dims();
        if axes.len() != dims.len() {
            return Err(kerr(format!(
                "transpose axes {axes:?} wrong rank for {dims:?}"
            )));
        }
        let mut seen = vec![false; dims.len()];
        for &a in axes {
            if a >= dims.len() || seen[a] {
                return Err(kerr(format!("transpose axes {axes:?} not a permutation")));
            }
            seen[a] = true;
        }
        let out_dims: Vec<usize> = axes.iter().map(|&a| dims[a]).collect();
        let out_shape = Shape::new(out_dims);
        let in_strides = input.shape().strides();
        let n = out_shape.num_elements();
        let mut offsets = Vec::with_capacity(n);
        for flat in 0..n {
            let oidx = out_shape.unravel(flat);
            let src: usize = oidx
                .iter()
                .zip(axes)
                .map(|(&i, &a)| i * in_strides[a])
                .sum();
            offsets.push(src);
        }
        gather_by_offsets(input, out_shape, &offsets)
    }

    pub fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor, KernelError> {
        if inputs.is_empty() {
            return Err(kerr("concat of zero tensors".to_string()));
        }
        let first = inputs[0];
        let rank = first.shape().rank();
        if axis >= rank {
            return Err(kerr(format!(
                "concat axis {axis} out of range for rank {rank}"
            )));
        }
        let mut out_dims = first.shape().dims().to_vec();
        let mut axis_total = 0usize;
        for t in inputs {
            if t.dtype() != first.dtype() || t.shape().rank() != rank {
                return Err(kerr("concat dtype/rank mismatch".to_string()));
            }
            for (d, (&a, &b)) in t
                .shape()
                .dims()
                .iter()
                .zip(first.shape().dims())
                .enumerate()
            {
                if d != axis && a != b {
                    return Err(kerr(format!(
                        "concat non-axis dim {d} mismatch: {a} vs {b}"
                    )));
                }
            }
            axis_total += t.shape().dims()[axis];
        }
        out_dims[axis] = axis_total;
        let out_shape = Shape::new(out_dims);

        // outer = product of dims before axis; inner = product after.
        let outer: usize = first.shape().dims()[..axis].iter().product();
        let inner: usize = first.shape().dims()[axis + 1..].iter().product();

        if first.dtype().is_float() {
            let mut out = Vec::with_capacity(out_shape.num_elements());
            for o in 0..outer {
                for t in inputs {
                    let ax = t.shape().dims()[axis];
                    let x = t.as_f32().unwrap();
                    out.extend_from_slice(&x[o * ax * inner..(o + 1) * ax * inner]);
                }
            }
            Tensor::from_f32(out_shape, out).map_err(|e| kerr(e.to_string()))
        } else {
            let mut out: Vec<i32> = Vec::with_capacity(out_shape.num_elements());
            let ints: Vec<Vec<i32>> = inputs.iter().map(|t| t.iter_int().collect()).collect();
            for o in 0..outer {
                for (t, x) in inputs.iter().zip(&ints) {
                    let ax = t.shape().dims()[axis];
                    out.extend_from_slice(&x[o * ax * inner..(o + 1) * ax * inner]);
                }
            }
            Tensor::from_int_values(out_shape, &out, first.dtype(), first.quant())
                .map_err(|e| kerr(e.to_string()))
        }
    }

    pub fn pad(input: &Tensor, pads: &[(usize, usize)], value: f32) -> Result<Tensor, KernelError> {
        let dims = input.shape().dims();
        if pads.len() != dims.len() {
            return Err(kerr(format!(
                "pad spec rank {} != tensor rank {}",
                pads.len(),
                dims.len()
            )));
        }
        let out_dims: Vec<usize> = dims
            .iter()
            .zip(pads)
            .map(|(&d, &(b, a))| d + b + a)
            .collect();
        let out_shape = Shape::new(out_dims);
        let n = out_shape.num_elements();

        if input.dtype().is_float() {
            let x = input.as_f32().unwrap();
            let mut out = vec![value; n];
            for (flat, o) in out.iter_mut().enumerate() {
                let oidx = out_shape.unravel(flat);
                let mut in_idx = Vec::with_capacity(dims.len());
                let mut inside = true;
                for (d, &i) in oidx.iter().enumerate() {
                    let (b, _) = pads[d];
                    if i < b || i >= b + dims[d] {
                        inside = false;
                        break;
                    }
                    in_idx.push(i - b);
                }
                if inside {
                    *o = x[input.shape().offset(&in_idx)];
                }
            }
            Tensor::from_f32(out_shape, out).map_err(|e| kerr(e.to_string()))
        } else {
            let qp = input.quant();
            // For quantized tensors, the pad value is in the real domain; store
            // its quantized image (TFLite pads with the zero point for value 0).
            let qv = qp
                .map(|q| q.quantize(value, input.dtype()))
                .unwrap_or(value as i32);
            let x: Vec<i32> = input.iter_int().collect();
            let mut out = vec![qv; n];
            for (flat, o) in out.iter_mut().enumerate() {
                let oidx = out_shape.unravel(flat);
                let mut in_idx = Vec::with_capacity(dims.len());
                let mut inside = true;
                for (d, &i) in oidx.iter().enumerate() {
                    let (b, _) = pads[d];
                    if i < b || i >= b + dims[d] {
                        inside = false;
                        break;
                    }
                    in_idx.push(i - b);
                }
                if inside {
                    *o = x[input.shape().offset(&in_idx)];
                }
            }
            Tensor::from_int_values(out_shape, &out, input.dtype(), qp)
                .map_err(|e| kerr(e.to_string()))
        }
    }

    pub fn slice(input: &Tensor, begin: &[usize], end: &[usize]) -> Result<Tensor, KernelError> {
        let dims = input.shape().dims();
        if begin.len() != dims.len() || end.len() != dims.len() {
            return Err(kerr("slice begin/end rank mismatch".to_string()));
        }
        for d in 0..dims.len() {
            if begin[d] >= end[d] || end[d] > dims[d] {
                return Err(kerr(format!(
                    "slice range [{}, {}) invalid for dim {d} of size {}",
                    begin[d], end[d], dims[d]
                )));
            }
        }
        let out_dims: Vec<usize> = begin.iter().zip(end).map(|(&b, &e)| e - b).collect();
        let out_shape = Shape::new(out_dims);
        let n = out_shape.num_elements();
        let mut offsets = Vec::with_capacity(n);
        for flat in 0..n {
            let oidx = out_shape.unravel(flat);
            let src_idx: Vec<usize> = oidx.iter().zip(begin).map(|(&i, &b)| i + b).collect();
            offsets.push(input.shape().offset(&src_idx));
        }
        gather_by_offsets(input, out_shape, &offsets)
    }

    pub fn mean_f32(input: &Tensor, axes: &[usize]) -> Result<Tensor, KernelError> {
        let dims = input.shape().dims();
        for &a in axes {
            if a >= dims.len() {
                return Err(kerr(format!("mean axis {a} out of range")));
            }
        }
        let out_dims: Vec<usize> = dims
            .iter()
            .enumerate()
            .filter(|(d, _)| !axes.contains(d))
            .map(|(_, &s)| s)
            .collect();
        let out_shape = Shape::new(out_dims);
        let x = input.as_f32().map_err(|e| kerr(e.to_string()))?;
        let mut sums = vec![0.0f32; out_shape.num_elements().max(1)];
        let mut counts = vec![0usize; sums.len()];
        for (flat, &v) in x.iter().enumerate() {
            let idx = input.shape().unravel(flat);
            let out_idx: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|(d, _)| !axes.contains(d))
                .map(|(_, &i)| i)
                .collect();
            let o = if out_idx.is_empty() {
                0
            } else {
                out_shape.offset(&out_idx)
            };
            sums[o] += v;
            counts[o] += 1;
        }
        for (s, &c) in sums.iter_mut().zip(&counts) {
            *s /= c.max(1) as f32;
        }
        Tensor::from_f32(out_shape, sums).map_err(|e| kerr(e.to_string()))
    }

    fn pool_out_hw(p: &Pool2dParams, h: usize, w: usize) -> Result<(usize, usize), KernelError> {
        let (pt, pl, pb, pr) = p.padding;
        let ih = h + pt + pb;
        let iw = w + pl + pr;
        if ih < p.kernel.0 || iw < p.kernel.1 {
            return Err(kerr(format!(
                "pool window {:?} larger than padded input {ih}x{iw}",
                p.kernel
            )));
        }
        Ok((
            (ih - p.kernel.0) / p.strides.0 + 1,
            (iw - p.kernel.1) / p.strides.1 + 1,
        ))
    }

    fn pool_shape(
        input: &Tensor,
        params: &Pool2dParams,
    ) -> Result<(usize, usize, usize, usize, usize, usize), KernelError> {
        let d = input.shape().dims();
        if d.len() != 4 {
            return Err(kerr(format!("pool2d expects rank-4 input, got {d:?}")));
        }
        let (oh, ow) = pool_out_hw(params, d[2], d[3])?;
        Ok((d[0], d[1], d[2], d[3], oh, ow))
    }

    pub fn max_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor, KernelError> {
        let (n, c, h, w, oh, ow) = pool_shape(input, params)?;
        let (pt, pl, _, _) = params.padding;
        let (kh, kw) = params.kernel;
        let (sh, sw) = params.strides;

        if input.dtype().is_float() {
            let x = input.as_f32().unwrap();
            let mut out = vec![0.0f32; n * c * oh * ow];
            pool_loop(
                n,
                c,
                h,
                w,
                oh,
                ow,
                kh,
                kw,
                sh,
                sw,
                pt,
                pl,
                |plane_base, taps, oi| {
                    out[oi] = taps
                        .iter()
                        .map(|&t| x[plane_base + t])
                        .fold(f32::NEG_INFINITY, f32::max);
                },
            );
            Tensor::from_f32([n, c, oh, ow], out).map_err(|e| kerr(e.to_string()))
        } else {
            let x: Vec<i32> = input.iter_int().collect();
            let mut out = vec![0i32; n * c * oh * ow];
            pool_loop(
                n,
                c,
                h,
                w,
                oh,
                ow,
                kh,
                kw,
                sh,
                sw,
                pt,
                pl,
                |plane_base, taps, oi| {
                    out[oi] = taps.iter().map(|&t| x[plane_base + t]).max().unwrap_or(0);
                },
            );
            Tensor::from_int_values([n, c, oh, ow], &out, input.dtype(), input.quant())
                .map_err(|e| kerr(e.to_string()))
        }
    }

    pub fn avg_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor, KernelError> {
        let (n, c, h, w, oh, ow) = pool_shape(input, params)?;
        let (pt, pl, _, _) = params.padding;
        let (kh, kw) = params.kernel;
        let (sh, sw) = params.strides;
        let full = (kh * kw) as f32;

        if input.dtype().is_float() {
            let x = input.as_f32().unwrap();
            let mut out = vec![0.0f32; n * c * oh * ow];
            pool_loop(
                n,
                c,
                h,
                w,
                oh,
                ow,
                kh,
                kw,
                sh,
                sw,
                pt,
                pl,
                |plane_base, taps, oi| {
                    let sum: f32 = taps.iter().map(|&t| x[plane_base + t]).sum();
                    let denom = if params.count_include_pad {
                        full
                    } else {
                        taps.len() as f32
                    };
                    out[oi] = sum / denom;
                },
            );
            Tensor::from_f32([n, c, oh, ow], out).map_err(|e| kerr(e.to_string()))
        } else {
            let x: Vec<i32> = input.iter_int().collect();
            let mut out = vec![0i32; n * c * oh * ow];
            pool_loop(
                n,
                c,
                h,
                w,
                oh,
                ow,
                kh,
                kw,
                sh,
                sw,
                pt,
                pl,
                |plane_base, taps, oi| {
                    let sum: i64 = taps.iter().map(|&t| x[plane_base + t] as i64).sum();
                    let denom = if params.count_include_pad {
                        (kh * kw) as i64
                    } else {
                        taps.len() as i64
                    };
                    // round-half-away-from-zero
                    let v = if sum >= 0 {
                        (sum + denom / 2) / denom
                    } else {
                        (sum - denom / 2) / denom
                    };
                    out[oi] = v as i32;
                },
            );
            Tensor::from_int_values([n, c, oh, ow], &out, input.dtype(), input.quant())
                .map_err(|e| kerr(e.to_string()))
        }
    }

    /// Shared window iteration: calls `f(plane_base, in_window_offsets, out_index)`.
    #[allow(clippy::too_many_arguments)]
    fn pool_loop(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        kh: usize,
        kw: usize,
        sh: usize,
        sw: usize,
        pt: usize,
        pl: usize,
        mut f: impl FnMut(usize, &[usize], usize),
    ) {
        let mut taps = Vec::with_capacity(kh * kw);
        for ni in 0..n {
            for ci in 0..c {
                let plane_base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        taps.clear();
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as isize - pt as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as isize - pl as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                taps.push(iy as usize * w + ix as usize);
                            }
                        }
                        let oi = ((ni * c + ci) * oh + oy) * ow + ox;
                        f(plane_base, &taps, oi);
                    }
                }
            }
        }
    }
}

/// Small seeded picker for geometry choices.
struct Pick(TensorRng);

impl Pick {
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.0.next_seed() % (hi - lo + 1) as u64) as usize
    }

    fn of<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }

    fn coin(&mut self) -> bool {
        self.range(0, 1) == 1
    }

    fn int(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.0.next_seed() % (hi - lo + 1) as u64) as i32
    }

    /// Float tensor over `[-1, 1)` with a few signed zeros mixed in.
    fn f32s(&mut self, shape: &[usize]) -> Tensor {
        let mut t = self.0.uniform_f32(shape, -1.0, 1.0);
        for (i, v) in t.as_f32_mut().unwrap().iter_mut().enumerate() {
            match i % 11 {
                3 => *v = -0.0,
                7 => *v = 0.0,
                _ => {}
            }
        }
        t
    }

    fn ints(&mut self, shape: &[usize], dtype: DType, qp: QuantParams) -> Tensor {
        if dtype == DType::I32 {
            let n: usize = shape.iter().product();
            let vals: Vec<i32> = (0..n).map(|_| self.int(-100_000, 100_000)).collect();
            Tensor::from_i32(shape, vals, Some(qp)).unwrap()
        } else {
            self.0.uniform_quantized(shape, dtype, qp)
        }
    }
}

/// Shape, dtype, quantization and every payload bit agree.
#[track_caller]
fn assert_same_bits(
    got: Result<Tensor, KernelError>,
    want: Result<Tensor, KernelError>,
    what: &str,
) {
    let (got, want) = match (got, want) {
        (Ok(g), Ok(w)) => (g, w),
        (Err(_), Err(_)) => return,
        (g, w) => panic!("{what}: kernel {g:?} vs reference {w:?}"),
    };
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(got.dtype(), want.dtype(), "{what}: dtype");
    assert_eq!(got.quant(), want.quant(), "{what}: quant params");
    let same = match want.dtype() {
        DType::F32 => got
            .as_f32()
            .unwrap()
            .iter()
            .zip(want.as_f32().unwrap())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        DType::I8 => got.as_i8().unwrap() == want.as_i8().unwrap(),
        DType::U8 => got.as_u8().unwrap() == want.as_u8().unwrap(),
        DType::I32 => got.as_i32().unwrap() == want.as_i32().unwrap(),
    };
    assert!(same, "{what}: payload bits differ");
}

/// `qconv2d` against the direct loop, and the portable walk, forced, against
/// `qconv2d`: the packed path bypasses the walk on x86_64, and the walk is
/// what `i64` accumulators, grouped convolutions and other targets run.
#[track_caller]
fn assert_qconv(
    (x, w, b): (&Tensor, &Tensor, Option<&Tensor>),
    params: &Conv2dParams,
    quant: &QConvQuant,
    what: &str,
) {
    let got = kernels::qconv2d(x, w, b, params, quant);
    assert_same_bits(
        qconv2d_with(x, w, b, params, quant, false),
        got.clone(),
        &format!("{what}: portable walk vs qconv2d"),
    );
    assert_same_bits(got, reference::qconv2d(x, w, b, params, quant), what);
}

/// A random convolution geometry whose output is non-empty:
/// `(input dims, weight dims, params)`.
fn conv_geometry(p: &mut Pick) -> ([usize; 4], [usize; 4], Conv2dParams) {
    loop {
        let cg = p.range(1, 4);
        let groups = p.of(&[1, 1, 2, 3, 5]);
        // Dense convolutions reach past three 4-channel blocks.
        let og = p.range(1, if groups == 1 { 13 } else { 6 });
        let (kh, kw) = (p.range(1, 5), p.range(1, 5));
        let params = Conv2dParams {
            strides: (p.range(1, 3), p.range(1, 3)),
            padding: (p.range(0, 3), p.range(0, 3), p.range(0, 3), p.range(0, 3)),
            dilation: (p.of(&[1, 1, 2]), p.of(&[1, 1, 2, 3])),
            groups,
        };
        let h = p.range(1, 12);
        // Widths around the accumulator block and its multiples.
        let w = p.of(&[1, 2, 3, 5, 8, 13, 16, 31, 32, 33, 34, 63, 64, 65, 97]);
        if params.out_hw(h, w, kh, kw).is_ok() {
            let n = p.of(&[1, 1, 2]);
            return ([n, cg * groups, h, w], [og * groups, cg, kh, kw], params);
        }
    }
}

/// `conv2d_f32` against the direct loop, and the portable walk, forced,
/// against `conv2d_f32`: dense convolutions bypass the walk on x86_64, and
/// the walk is what grouped convolutions, dense layers and other targets
/// run.
#[track_caller]
fn assert_conv_f32(
    (x, w, b): (&Tensor, &Tensor, Option<&Tensor>),
    params: &Conv2dParams,
    what: &str,
) {
    let got = kernels::conv2d_f32(x, w, b, params);
    assert_same_bits(
        conv2d_f32_with(x, w, b, params, false),
        got.clone(),
        &format!("{what}: portable walk vs conv2d_f32"),
    );
    assert_same_bits(got, reference::conv2d_f32(x, w, b, params), what);
}

#[test]
fn conv2d_f32_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xC0));
    for case in 0..700 {
        let (xs, ws, params) = conv_geometry(&mut p);
        let x = p.f32s(&xs);
        let w = p.f32s(&ws);
        let b = p.coin().then(|| p.f32s(&[ws[0]]));
        let what = format!("conv2d_f32 case {case}: {xs:?} * {ws:?} {params:?}");
        assert_conv_f32((&x, &w, b.as_ref()), &params, &what);
    }
}

/// The packed float path's edges: every output width around the 8-column
/// tile (a row narrower than one tile, one tile, overlapping last tiles),
/// channel counts around the 4-channel block, no left padding (the first
/// tile starts at column 0), dilation, and stride 2 beside stride 1.
#[test]
fn conv2d_f32_packed_path_edges_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xC8));
    // (padding, strides, dilation)
    let shapes = [
        ((1, 1, 1, 1), (1, 1), (1, 1)),
        ((0, 0, 0, 0), (1, 1), (1, 1)),
        ((1, 0, 2, 2), (1, 1), (1, 1)),
        ((2, 2, 2, 2), (1, 1), (2, 2)),
        ((0, 0, 1, 1), (2, 2), (1, 1)),
        ((1, 1, 1, 1), (2, 1), (1, 2)),
    ];
    for ow in (1..=9).chain([15, 16, 17, 31, 33]) {
        for oc in [4, 5, 8, 12, 33] {
            for (padding, strides, dilation) in shapes {
                let params = Conv2dParams {
                    strides,
                    padding,
                    dilation,
                    groups: 1,
                };
                // The input width that gives `ow` output columns of a 3×3.
                let w = (ow - 1) * strides.1 + 2 * dilation.1 + 1 - padding.1 - padding.3;
                let (xs, ws) = ([p.of(&[1, 2]), 3, p.range(3, 6), w], [oc, 3, 3, 3]);
                assert_eq!(params.out_hw(xs[2], w, 3, 3).map(|(_, w)| w), Ok(ow));
                let (x, wt, b) = (p.f32s(&xs), p.f32s(&ws), p.f32s(&[oc]));
                for b in [None, Some(&b)] {
                    let what = format!("{xs:?} * {ws:?} {params:?}");
                    assert_conv_f32((&x, &wt, b), &params, &what);
                }
            }
        }
    }
}

/// Signed zeros, infinities and NaNs through the packed float path: a zero
/// input times a negative weight is `−0.0`, which a `+0.0` start absorbs
/// and a `−0.0` bias keeps; `∞ · 0` and `∞ − ∞` are NaN. A NaN's payload
/// is not specified by IEEE 754 or Rust, so NaN outputs need only agree in
/// being NaN; every other output agrees bit for bit.
#[test]
fn conv2d_f32_special_values_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xC9));
    let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let same = |a: &Tensor, b: &Tensor| {
        let (a, b) = (a.as_f32().unwrap(), b.as_f32().unwrap());
        a.iter()
            .zip(b)
            .all(|(a, b)| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan())
    };
    for (params, width) in [(Conv2dParams::same(1), 19), (Conv2dParams::default(), 5)] {
        let (xs, ws) = ([1, 3, 4, width], [6, 3, 3, 3]);
        // All-zero inputs against negative weights, with and without a
        // `−0.0` bias: every sum is a signed zero.
        let zeros = Tensor::from_f32(xs, vec![0.0; 3 * 4 * width]).unwrap();
        let negative = Tensor::from_f32(ws, vec![-0.5; 162]).unwrap();
        let minus_zero = Tensor::from_f32([6], vec![-0.0; 6]).unwrap();
        for b in [None, Some(&minus_zero)] {
            assert_conv_f32((&zeros, &negative, b), &params, "zeros * negative weights");
        }
        // Special values sprinkled through x, w and the bias, a few at a
        // time so that most outputs stay finite.
        for case in 0..40 {
            let (mut x, mut w, mut b) = (p.f32s(&xs), p.f32s(&ws), p.f32s(&[6]));
            for t in [&mut x, &mut w, &mut b] {
                let v = t.as_f32_mut().unwrap();
                for _ in 0..p.range(0, 2) {
                    let i = p.range(0, v.len() - 1);
                    v[i] = p.of(&special);
                }
            }
            let got = kernels::conv2d_f32(&x, &w, Some(&b), &params).unwrap();
            let walk = conv2d_f32_with(&x, &w, Some(&b), &params, false).unwrap();
            let want = reference::conv2d_f32(&x, &w, Some(&b), &params).unwrap();
            assert!(same(&got, &walk), "special values case {case}: walk");
            assert!(same(&got, &want), "special values case {case}: direct loop");
        }
    }
}

/// Bit-equal, except that a NaN need only meet a NaN: IEEE 754 and Rust
/// leave a NaN's payload unspecified.
#[track_caller]
fn assert_same_or_nan(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let (g, w) = (got.as_f32().unwrap(), want.as_f32().unwrap());
    let same = g
        .iter()
        .zip(w)
        .all(|(a, b)| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan());
    assert!(same, "{what}: payload bits differ");
}

/// `t` with `0..=2` of its elements replaced by a signed zero, an
/// infinity or a NaN.
fn sprinkle(p: &mut Pick, t: &mut Tensor) {
    let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let v = t.as_f32_mut().unwrap();
    for _ in 0..p.range(0, 2) {
        let i = p.range(0, v.len() - 1);
        v[i] = p.of(&special);
    }
}

/// The depthwise float tile's edges: channel counts off the 4-plane block
/// (so the last task runs planes one at a time) and a channel multiplier
/// of 2; output widths around the 8-column tile; stride 2 and 3, dilation
/// 2, and left padding 0 to 2.
#[test]
fn conv2d_f32_depthwise_edges_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xCA));
    for c in [2, 3, 5, 9] {
        for mult in [1, 2] {
            for ((sh, sw), (dh, dw)) in [
                ((1, 1), (1, 1)),
                ((2, 2), (1, 1)),
                ((1, 3), (1, 1)),
                ((1, 1), (2, 2)),
                ((2, 2), (1, 2)),
            ] {
                for pl in 0..=2 {
                    for ow in [1usize, 2, 7, 8, 9, 15, 16, 17] {
                        let pr = 2 - pl;
                        let k = p.of(&[1, 3, 3, 5]);
                        // The input width that gives `ow` output columns.
                        let w = ((ow - 1) * sw + (k - 1) * dw + 1).checked_sub(pl + pr);
                        let Some(w) = w.filter(|&w| w > 0) else {
                            continue;
                        };
                        let params = Conv2dParams {
                            strides: (sh, sw),
                            padding: (1, pl, 1, pr),
                            dilation: (dh, dw),
                            groups: c,
                        };
                        let (xs, ws) = ([p.of(&[1, 2]), c, p.range(2, 5), w], [c * mult, 1, k, k]);
                        // Too short for the kernel's dilated height.
                        let Ok((_, got)) = params.out_hw(xs[2], w, k, k) else {
                            continue;
                        };
                        assert_eq!(got, ow);
                        let (x, wt, b) = (p.f32s(&xs), p.f32s(&ws), p.f32s(&[c * mult]));
                        for b in [None, Some(&b)] {
                            let what = format!("depthwise {xs:?} * {ws:?} {params:?}");
                            assert_conv_f32((&x, &wt, b), &params, &what);
                        }
                    }
                }
            }
        }
    }
}

/// Signed zeros, infinities and NaNs through the depthwise tile, at unit
/// stride and at stride 2 with dilation 2: all-zero inputs against
/// negative weights with a `−0.0` bias or none, then special values
/// sprinkled through x, w and the bias.
#[test]
fn conv2d_f32_depthwise_special_values_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xCB));
    let strided = Conv2dParams {
        strides: (2, 2),
        padding: (2, 2, 2, 2),
        dilation: (2, 2),
        groups: 6,
    };
    let unit = Conv2dParams {
        groups: 6,
        ..Conv2dParams::same(1)
    };
    for params in [unit, strided] {
        let (xs, ws) = ([1, 6, 5, 21], [6, 1, 3, 3]);
        let zeros = Tensor::from_f32(xs, vec![0.0; 6 * 5 * 21]).unwrap();
        let negative = Tensor::from_f32(ws, vec![-0.5; 54]).unwrap();
        let minus_zero = Tensor::from_f32([6], vec![-0.0; 6]).unwrap();
        for b in [None, Some(&minus_zero)] {
            assert_conv_f32(
                (&zeros, &negative, b),
                &params,
                "depthwise zeros * negative weights",
            );
        }
        for case in 0..40 {
            let (mut x, mut w, mut b) = (p.f32s(&xs), p.f32s(&ws), p.f32s(&[6]));
            for t in [&mut x, &mut w, &mut b] {
                sprinkle(&mut p, t);
            }
            let got = kernels::conv2d_f32(&x, &w, Some(&b), &params).unwrap();
            let walk = conv2d_f32_with(&x, &w, Some(&b), &params, false).unwrap();
            let want = reference::conv2d_f32(&x, &w, Some(&b), &params).unwrap();
            let what = format!("depthwise special values case {case} {params:?}");
            assert_same_or_nan(&got, &walk, &format!("{what}: walk"));
            assert_same_or_nan(&got, &want, &format!("{what}: direct loop"));
        }
    }
}

/// The dense float tile at strides 2 and 3, where it reads the input's
/// column phases: output widths around the 8-column tile, left padding 0
/// to 2, channel counts on and off the 4-channel block.
#[test]
fn conv2d_f32_strided_dense_edges_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xCC));
    for sw in [2usize, 3] {
        for pl in 0..=2 {
            for ow in (1usize..=9).chain([15, 16, 17]) {
                for oc in [4, 5] {
                    let dw = p.of(&[1, 1, 2]);
                    let params = Conv2dParams {
                        strides: (p.range(1, 3), sw),
                        padding: (1, pl, 0, 1),
                        dilation: (1, dw),
                        groups: 1,
                    };
                    // The input width that gives `ow` output columns of a 3×3.
                    let Some(w) = ((ow - 1) * sw + 2 * dw + 1).checked_sub(pl + 1) else {
                        continue;
                    };
                    let xs = [p.of(&[1, 2]), p.range(1, 3), p.range(3, 6), w];
                    let ws = [oc, xs[1], 3, 3];
                    assert_eq!(params.out_hw(xs[2], w, 3, 3).map(|(_, w)| w), Ok(ow));
                    let (x, wt, b) = (p.f32s(&xs), p.f32s(&ws), p.f32s(&[oc]));
                    for b in [None, Some(&b)] {
                        let what = format!("strided dense {xs:?} * {ws:?} {params:?}");
                        assert_conv_f32((&x, &wt, b), &params, &what);
                    }
                }
            }
        }
    }
}

/// Rows with 4 to 7 interior columns — too few for the 8-column tile, so
/// they take the 4-column one, its last tile overlapping — through the
/// dense and the depthwise float tiles: a 3×3 "same" convolution on 8×8,
/// 16 → 8 at stride 2, and widths 5 to 11 with left and right padding 0
/// to 2 at dilation 1 and 2; 5 and 6 channels (off the 4-channel block);
/// each geometry with random values and with signed zeros, infinities and
/// NaNs sprinkled in.
#[test]
fn conv2d_f32_narrow_rows_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xCD));
    // (width, stride, left and right padding, dilation)
    let mut geometries = vec![(8usize, 1usize, 1usize, 1usize, 1usize), (16, 2, 1, 1, 1)];
    for w in 5..=11 {
        for (pl, pr) in (0..=2).flat_map(|pl| (0..=2).map(move |pr| (pl, pr))) {
            for dw in [1, 2] {
                geometries.push((w, 1, pl, pr, dw));
            }
        }
    }
    let mut interiors = std::collections::BTreeSet::new();
    for (w, sw, pl, pr, dw) in geometries {
        // The columns whose every kernel column lands in the image.
        let Some(ow) = (w + pl + pr).checked_sub(2 * dw + 1).map(|e| e / sw + 1) else {
            continue;
        };
        let lo = pl.div_ceil(sw).min(ow);
        let hi = (w + pl).saturating_sub(2 * dw).div_ceil(sw).clamp(lo, ow);
        interiors.insert(hi - lo);
        for (c, groups, oc) in [(3, 1, 5), (6, 6, 6), (5, 5, 10)] {
            let params = Conv2dParams {
                strides: (sw, sw),
                padding: (1, pl, 1, pr),
                dilation: (p.of(&[1, dw]), dw),
                groups,
            };
            let (xs, ws) = ([1, c, p.range(5, 8), w], [oc, c / groups, 3, 3]);
            let Ok((_, got)) = params.out_hw(xs[2], w, 3, 3) else {
                continue;
            };
            assert_eq!(got, ow);
            let (mut x, mut wt, mut b) = (p.f32s(&xs), p.f32s(&ws), p.f32s(&[oc]));
            let what = format!("narrow row {xs:?} * {ws:?} {params:?}");
            assert_conv_f32((&x, &wt, Some(&b)), &params, &what);
            for t in [&mut x, &mut wt, &mut b] {
                sprinkle(&mut p, t);
            }
            let got = kernels::conv2d_f32(&x, &wt, Some(&b), &params).unwrap();
            let walk = conv2d_f32_with(&x, &wt, Some(&b), &params, false).unwrap();
            let want = reference::conv2d_f32(&x, &wt, Some(&b), &params).unwrap();
            assert_same_or_nan(&got, &walk, &format!("{what}, special values: walk"));
            assert_same_or_nan(&got, &want, &format!("{what}, special values: direct loop"));
        }
    }
    for n in 4..=7 {
        assert!(interiors.contains(&n), "no row with {n} interior columns");
    }
}

#[test]
fn conv2d_kernel_covering_the_padded_input() {
    // Kernel extent == padded input edge: a single output pixel, most taps
    // in padding; and a 1-wide image wider than nothing.
    let mut p = Pick(TensorRng::new(0xC1));
    for (h, w, kh, kw, pad) in [(3, 3, 5, 5, 1), (1, 1, 3, 3, 1), (2, 33, 4, 35, 1)] {
        let params = Conv2dParams::same(pad);
        let x = p.f32s(&[2, 2, h, w]);
        let wt = p.f32s(&[3, 2, kh, kw]);
        assert_same_bits(
            kernels::conv2d_f32(&x, &wt, None, &params),
            reference::conv2d_f32(&x, &wt, None, &params),
            &format!("edge conv {h}x{w} k{kh}x{kw}"),
        );
    }
}

fn qconv_quant(p: &mut Pick, xd: DType, wd: DType) -> QConvQuant {
    let zp = |p: &mut Pick, d: DType| {
        let (lo, hi) = d.int_range().unwrap();
        p.int(lo, hi)
    };
    QConvQuant {
        input: QuantParams::new(0.02, zp(p, xd)),
        weight: QuantParams::new(0.01, if p.coin() { 0 } else { zp(p, wd) }),
        output: QuantParams::new(0.05, p.int(-10, 140)),
        out_dtype: p.of(&[DType::I8, DType::U8]),
    }
}

#[test]
fn qconv2d_matches_direct_loop_for_every_operand_pairing() {
    let mut p = Pick(TensorRng::new(0xC2));
    for (xd, wd) in [
        (DType::U8, DType::I8),
        (DType::I8, DType::I8),
        (DType::U8, DType::U8),
        (DType::I8, DType::U8),
    ] {
        for case in 0..250 {
            let (xs, ws, params) = conv_geometry(&mut p);
            let quant = qconv_quant(&mut p, xd, wd);
            let x = p.ints(&xs, xd, quant.input);
            let w = p.ints(&ws, wd, quant.weight);
            let b = p
                .coin()
                .then(|| p.ints(&[ws[0]], DType::I32, QuantParams::identity()));
            assert_qconv(
                (&x, &w, b.as_ref()),
                &params,
                &quant,
                &format!("qconv2d {xd}/{wd} case {case}: {xs:?} * {ws:?} {params:?} {quant:?}"),
            );
        }
    }
}

/// Zero points and biases far outside the storage range push the exact sum
/// past `i32`: the kernel must take its wide accumulator and clamp exactly
/// like the reference's `i64`.
#[test]
fn qconv2d_and_qdense_wide_accumulator() {
    let mut p = Pick(TensorRng::new(0xC3));
    for (zx, zw, bias) in [
        (-40_000, -40_000, 0),
        (40_000, -40_000, 0),
        (0, 0, i32::MAX - 3),
        (255, 127, i32::MIN + 3),
        (-1_000_000, 1_000, 17),
    ] {
        let quant = QConvQuant {
            input: QuantParams::new(0.02, zx),
            weight: QuantParams::new(0.01, zw),
            output: QuantParams::new(2000.0, 3),
            out_dtype: DType::I8,
        };
        let x = p.ints(&[1, 4, 6, 35], DType::U8, quant.input);
        let w = p.ints(&[3, 4, 3, 3], DType::I8, quant.weight);
        let b = Tensor::from_i32([3], vec![bias, -bias / 2, 5], None).unwrap();
        let params = Conv2dParams::same(1);
        assert_qconv(
            (&x, &w, Some(&b)),
            &params,
            &quant,
            &format!("wide qconv2d zx={zx} zw={zw} bias={bias}"),
        );
        let xd = p.ints(&[2, 300], DType::U8, quant.input);
        let wd = p.ints(&[3, 300], DType::I8, quant.weight);
        assert_same_bits(
            kernels::qdense(
                &xd,
                &wd,
                Some(&b),
                quant.input,
                quant.weight,
                quant.output,
                DType::U8,
            ),
            reference::qdense(
                &xd,
                &wd,
                Some(&b),
                quant.input,
                quant.weight,
                quant.output,
                DType::U8,
            ),
            &format!("wide qdense zx={zx} zw={zw} bias={bias}"),
        );
    }
}

#[test]
fn dense_kernels_match_direct_loop() {
    let mut p = Pick(TensorRng::new(0xD0));
    for case in 0..120 {
        let n = p.range(1, 3);
        let k = p.of(&[1, 2, 7, 16, 31, 64, 129]);
        let units = p.of(&[1, 2, 3, 4, 5, 7, 8, 10, 17]);
        let x = p.f32s(&[n, k]);
        let w = p.f32s(&[units, k]);
        let b = p.coin().then(|| p.f32s(&[units]));
        assert_same_bits(
            kernels::dense_f32(&x, &w, b.as_ref()),
            reference::dense_f32(&x, &w, b.as_ref()),
            &format!("dense_f32 case {case}: [{n},{k}] x [{units},{k}]"),
        );
        let (xd, wd) = (p.of(&[DType::I8, DType::U8]), p.of(&[DType::I8, DType::U8]));
        let q = qconv_quant(&mut p, xd, wd);
        let xq = p.ints(&[n, k], xd, q.input);
        let wq = p.ints(&[units, k], wd, q.weight);
        let bq = p
            .coin()
            .then(|| p.ints(&[units], DType::I32, QuantParams::identity()));
        assert_same_bits(
            kernels::qdense(
                &xq,
                &wq,
                bq.as_ref(),
                q.input,
                q.weight,
                q.output,
                q.out_dtype,
            ),
            reference::qdense(
                &xq,
                &wq,
                bq.as_ref(),
                q.input,
                q.weight,
                q.output,
                q.out_dtype,
            ),
            &format!("qdense case {case}: {xd}/{wd} [{n},{k}] x [{units},{k}]"),
        );
    }
}

/// The integer kernels at their seams: odd channel counts, `cg = 1`
/// depthwise, grouped convolutions, stride 2, dilation, and zero points at
/// both ends of the storage range — the widest operands the half-width
/// path takes.
#[test]
fn qconv2d_paired_walk_edges_match_direct_loop() {
    let mut p = Pick(TensorRng::new(0xC4));
    for (xd, wd) in [(DType::U8, DType::I8), (DType::I8, DType::U8)] {
        let (xlo, xhi) = xd.int_range().unwrap();
        let (wlo, whi) = wd.int_range().unwrap();
        for (zx, zw) in [(xlo, wlo), (xhi, whi), (xlo, whi), (xhi, wlo)] {
            let quant = QConvQuant {
                input: QuantParams::new(0.02, zx),
                weight: QuantParams::new(0.01, zw),
                output: QuantParams::new(40.0, p.int(-10, 140)),
                out_dtype: p.of(&[DType::I8, DType::U8]),
            };
            for (cg, groups, og) in [
                (1, 6, 1),
                (1, 3, 2),
                (3, 1, 5),
                (5, 2, 3),
                (7, 1, 4),
                (2, 1, 1),
            ] {
                for (kh, kw) in [(1, 1), (3, 3), (2, 3), (1, 4)] {
                    for (strides, dilation) in
                        [((1, 1), (1, 1)), ((2, 2), (1, 1)), ((1, 2), (2, 2))]
                    {
                        let params = Conv2dParams {
                            strides,
                            padding: (p.range(0, 2), p.range(0, 2), p.range(0, 2), p.range(0, 2)),
                            dilation,
                            groups,
                        };
                        let (h, w) = (p.range(5, 9), p.of(&[7, 32, 33, 40]));
                        let (xs, ws) = ([1, cg * groups, h, w], [og * groups, cg, kh, kw]);
                        let x = p.ints(&xs, xd, quant.input);
                        let wt = p.ints(&ws, wd, quant.weight);
                        let b = p
                            .coin()
                            .then(|| p.ints(&[ws[0]], DType::I32, QuantParams::identity()));
                        assert_qconv(
                            (&x, &wt, b.as_ref()),
                            &params,
                            &quant,
                            &format!(
                                "qconv2d {xd}/{wd} zx={zx} zw={zw}: {xs:?} * {ws:?} {params:?}"
                            ),
                        );
                    }
                }
            }
        }
    }
    // A zero point the sum survives in `i32` but an operand does not in
    // `i16`: the wide path, same bits.
    let quant = QConvQuant {
        input: QuantParams::new(0.02, 40_000),
        weight: QuantParams::new(0.01, -3),
        output: QuantParams::new(900.0, 7),
        out_dtype: DType::U8,
    };
    let x = p.ints(&[1, 3, 5, 34], DType::U8, quant.input);
    let wt = p.ints(&[2, 3, 3, 3], DType::I8, quant.weight);
    let params = Conv2dParams::same(1);
    assert_qconv(
        (&x, &wt, None),
        &params,
        &quant,
        "qconv2d with an operand past i16",
    );
}

/// The packed path at its seams: odd `C` and `C = 1`; `OC` off the
/// 4-channel tile and `OW` off the 8-column tile; asymmetric padding, some
/// wider than the kernel; stride 2 and dilation 2; depthwise kernel widths
/// 1, 3 and 5, and a channel multiplier of 2, which takes the walk — every
/// operand pairing into every output type, with and without bias.
#[test]
fn qconv2d_packed_path_edges_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xC7));
    // (C, OC, groups, (kh, kw), strides, dilation, padding, W)
    type Case = (
        usize,
        usize,
        usize,
        (usize, usize),
        (usize, usize),
        (usize, usize),
        (usize, usize, usize, usize),
        usize,
    );
    let cases: [Case; 10] = [
        (3, 5, 1, (3, 3), (1, 1), (1, 1), (1, 1, 1, 1), 9),
        (1, 6, 1, (3, 3), (2, 2), (1, 1), (0, 2, 1, 0), 17),
        (5, 1, 1, (1, 1), (1, 1), (1, 1), (0, 3, 0, 4), 7),
        (7, 9, 1, (2, 3), (1, 2), (2, 2), (3, 1, 0, 2), 13),
        (2, 3, 1, (1, 1), (2, 2), (1, 1), (4, 4, 4, 4), 1),
        (6, 6, 6, (3, 1), (1, 1), (1, 1), (1, 0, 1, 0), 9),
        (5, 5, 5, (3, 3), (2, 2), (1, 1), (0, 1, 1, 0), 17),
        (3, 3, 3, (1, 5), (1, 2), (1, 2), (0, 4, 2, 7), 13),
        (4, 4, 4, (3, 3), (1, 1), (2, 2), (2, 2, 2, 2), 8),
        (3, 6, 3, (3, 3), (1, 1), (1, 1), (1, 1, 1, 1), 9),
    ];
    let ints = [DType::I8, DType::U8];
    for (xd, wd) in ints.into_iter().flat_map(|x| ints.map(|w| (x, w))) {
        for (c, oc, groups, (kh, kw), strides, dilation, padding, width) in cases {
            for out_dtype in [DType::I8, DType::U8, DType::I32] {
                let mut quant = qconv_quant(&mut p, xd, wd);
                quant.output = QuantParams::new(1.0, p.int(-10, 140));
                quant.out_dtype = out_dtype;
                let params = Conv2dParams {
                    strides,
                    padding,
                    dilation,
                    groups,
                };
                let (xs, ws) = (
                    [p.of(&[1, 2]), c, p.range(4, 9), width],
                    [oc, c / groups, kh, kw],
                );
                let x = p.ints(&xs, xd, quant.input);
                let w = p.ints(&ws, wd, quant.weight);
                let b = p.ints(&[oc], DType::I32, QuantParams::identity());
                for b in [None, Some(&b)] {
                    let what = format!("{xd}/{wd} -> {out_dtype}: {xs:?} * {ws:?} {params:?}");
                    assert_qconv((&x, &w, b), &params, &quant, &what);
                }
            }
        }
    }
    // Zero points at the edge of the `i16` proof, `|q − zero| = 32767`, and
    // one past it, which must take the `i64` walk: there a `u8` 255 or an
    // `i8` 127 is 32768 from its zero point, and an `i16` lane holding it
    // would wrap to −32768. I32 outputs show every bit of the sum.
    let (x_edge, w_edge) = (255 - 32767, 127 - 32767);
    for (zx, zw) in [(x_edge, 0), (x_edge - 1, 0), (3, w_edge), (3, w_edge - 1)] {
        let quant = QConvQuant {
            input: QuantParams::new(0.02, zx),
            weight: QuantParams::new(0.01, zw),
            output: QuantParams::new(0.05, -7),
            out_dtype: DType::I32,
        };
        let (xs, ws) = ([1, 3, 6, 11], [5, 3, 3, 3]);
        let n: usize = xs.iter().product();
        let xv: Vec<i32> = (0..n).map(|i| [255, 0, 254, 1][i % 4]).collect();
        let x = Tensor::from_int_values(xs, &xv, DType::U8, Some(quant.input)).unwrap();
        let w = Tensor::from_int_values(ws, &[127, -128, 3].repeat(45), DType::I8, None).unwrap();
        let dw_w = Tensor::from_int_values([3, 1, 3, 3], &[127; 27], DType::I8, None).unwrap();
        let depthwise = Conv2dParams {
            groups: 3,
            ..Conv2dParams::same(1)
        };
        let what = format!("zero points {zx} / {zw}");
        assert_qconv((&x, &w, None), &Conv2dParams::same(1), &quant, &what);
        assert_qconv((&x, &dw_w, None), &depthwise, &quant, &what);
    }
}

/// The int8 pack, which pairs each word straight from its source rows:
/// dense and depthwise at strides 1 to 3 and dilation 1 and 2, left and
/// right padding 0 to 2, 3, 5 and 33 channels (a dense pack's last odd
/// channel pairs with zeros), widths around the 8-column tile, and input
/// zero points away from 0 (so a wrong padding word shows).
#[test]
fn qconv2d_pack_geometries_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xCE));
    for c in [3, 5, 33] {
        for groups in [1, c] {
            for (sw, dw) in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)] {
                let (pl, pr) = (p.range(0, 2), p.range(0, 2));
                let k = p.of(&[1, 3, 3, 5]);
                let width = p.of(&[(k - 1) * dw + 1, 7, 9, 16, 17, 23]);
                let params = Conv2dParams {
                    strides: (p.range(1, 2), sw),
                    padding: (1, pl, 1, pr),
                    dilation: (1, dw),
                    groups,
                };
                let oc = if groups == 1 { c.min(7) } else { c };
                let (xs, ws) = ([1, c, p.range(3, 6), width], [oc, c / groups, 3, k]);
                if params.out_hw(xs[2], width, 3, k).is_err() {
                    continue;
                }
                let mut quant = qconv_quant(&mut p, DType::U8, DType::I8);
                quant.input = QuantParams::new(0.02, p.int(1, 255));
                let x = p.ints(&xs, DType::U8, quant.input);
                let w = p.ints(&ws, DType::I8, quant.weight);
                let b = p.ints(&[ws[0]], DType::I32, QuantParams::identity());
                let what = format!("pack {xs:?} * {ws:?} {params:?}");
                assert_qconv((&x, &w, Some(&b)), &params, &quant, &what);
            }
        }
    }
}

/// The block requantizer against the one-value-at-a-time arithmetic on 10^5
/// seeded accumulators per multiplier, the `i32` extremes among them:
/// right shifts, left shifts (multipliers >= 1), a left shift that leaves
/// `i32`, and multiplier 0.
#[test]
fn block_requantizer_matches_scalar_arithmetic() {
    use tvmnp_tensor::quant::FixedPointMultiplier;
    let mut p = Pick(TensorRng::new(0xC5));
    let n = 100_000;
    let mut accs: Vec<i32> = (0..n)
        .map(|i| match i % 4 {
            0 => p.int(-300, 300),
            1 => p.int(-100_000, 100_000),
            _ => p.0.next_seed() as i32,
        })
        .collect();
    accs[..6].copy_from_slice(&[i32::MIN, i32::MAX, i32::MIN + 1, -1, 0, 1]);
    let x = Tensor::from_i32([n], accs.clone(), None).unwrap();
    // (in scale, out scale): the multiplier is their ratio.
    for (s_in, s_out) in [
        (0.05f32, 0.07f32),
        (1.0, 3.0),
        (0.001, 1.7),
        (1.0, 1.0),
        (3.0, 1.0),
        (37.2, 0.4),
        (1.0e9, 0.25),
        (0.0, 1.0),
    ] {
        for (zo, od) in [
            (3, DType::U8),
            (-128, DType::I8),
            (127, DType::I8),
            (1_000, DType::I32),
        ] {
            // Built field by field: a zero scale is the multiplier-0 case.
            let in_q = QuantParams {
                scale: s_in,
                zero_point: 0,
            };
            let out_q = QuantParams {
                scale: s_out,
                zero_point: zo,
            };
            let fpm = FixedPointMultiplier::from_real(s_in as f64 / s_out as f64);
            let got = kernels::requantize(&x, in_q, out_q, od).unwrap();
            let want: Vec<i32> = accs
                .iter()
                .map(|&a| reference::requantize_value_scalar(a, fpm, zo, od))
                .collect();
            assert_eq!(
                got.iter_int().collect::<Vec<_>>(),
                want,
                "multiplier {s_in}/{s_out} = {fpm:?}, zero point {zo}, {od}"
            );
            // And the public one-value entry point is the same arithmetic.
            for &a in &accs[..64] {
                assert_eq!(
                    tvmnp_tensor::quant::requantize_value(a, fpm, zo, od),
                    reference::requantize_value_scalar(a, fpm, zo, od)
                );
                assert_eq!(
                    fpm.apply(a),
                    reference::requantize_value_scalar(a, fpm, 0, DType::I32)
                );
            }
        }
    }
}

#[test]
fn requantize_and_dequantize_match_direct_loop() {
    let mut p = Pick(TensorRng::new(0xC6));
    for case in 0..40 {
        let shape = random_shape(&mut p);
        let in_q = QuantParams::new(p.of(&[0.02, 0.5, 1.0, 3.0]), p.int(-20, 150));
        let out_q = QuantParams::new(p.of(&[0.01, 0.5, 1.0, 7.0]), p.int(-20, 150));
        for x in each_dtype(&mut p, &shape) {
            for od in [DType::I8, DType::U8, DType::I32] {
                if x.dtype().is_float() {
                    // The direct loop panics on a float tensor; the kernel
                    // reports it.
                    assert!(kernels::requantize(&x, in_q, out_q, od).is_err());
                    continue;
                }
                assert_same_bits(
                    kernels::requantize(&x, in_q, out_q, od),
                    reference::requantize(&x, in_q, out_q, od),
                    &format!("requantize case {case} {} -> {od} {shape:?}", x.dtype()),
                );
            }
            if x.dtype().is_float() {
                assert!(kernels::dequantize(&x, in_q).is_err());
            } else {
                assert_same_bits(
                    kernels::dequantize(&x, in_q),
                    reference::dequantize(&x, in_q),
                    &format!("dequantize case {case} {} {shape:?}", x.dtype()),
                );
            }
        }
    }
    let x = p.ints(&[4], DType::U8, QuantParams::identity());
    let q = QuantParams::identity();
    assert!(kernels::requantize(&x, q, q, DType::F32).is_err());
}

/// Operand shape pairs covering equal shapes, per-channel, scalar, rank
/// extension and two-sided broadcasting.
const BROADCAST_PAIRS: [(&[usize], &[usize]); 10] = [
    (&[2, 3, 4, 5], &[2, 3, 4, 5]),
    (&[2, 3, 4, 5], &[1, 3, 1, 1]),
    (&[1, 3, 1, 1], &[2, 3, 4, 5]),
    (&[2, 3, 4, 5], &[]),
    (&[], &[7]),
    (&[4, 1], &[1, 5]),
    (&[2, 3], &[3]),
    (&[3, 1, 2], &[2, 1, 4, 1]),
    (&[1, 1], &[1]),
    (&[6, 33], &[6, 33]),
];

#[test]
fn binary_f32_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xE0));
    for (sa, sb) in BROADCAST_PAIRS {
        let (a, b) = (p.f32s(sa), p.f32s(sb));
        for op in [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Maximum,
            BinaryOp::Minimum,
        ] {
            assert_same_bits(
                kernels::binary_f32(&a, &b, op),
                reference::binary_f32(&a, &b, op),
                &format!("binary_f32 {op:?} {sa:?} vs {sb:?}"),
            );
        }
    }
}

#[test]
fn qadd_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xE1));
    for (sa, sb) in BROADCAST_PAIRS {
        for (ad, bd, od) in [
            (DType::U8, DType::U8, DType::U8),
            (DType::I8, DType::U8, DType::I8),
            (DType::I8, DType::I8, DType::U8),
        ] {
            let (qa, qb, qo) = (
                QuantParams::new(0.031, p.int(-5, 130)),
                QuantParams::new(0.017, p.int(-128, 127)),
                QuantParams::new(0.04, p.int(-20, 20)),
            );
            let (a, b) = (p.ints(sa, ad, qa), p.ints(sb, bd, qb));
            assert_same_bits(
                kernels::qadd(&a, &b, qa, qb, qo, od),
                reference::qadd(&a, &b, qa, qb, qo, od),
                &format!("qadd {ad}/{bd}->{od} {sa:?} vs {sb:?}"),
            );
        }
    }
}

#[test]
fn unary_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xE2));
    let ops = [
        UnaryOp::Relu,
        UnaryOp::Relu6,
        UnaryOp::Clip(-0.3, 0.4),
        UnaryOp::LeakyRelu(0.1),
        UnaryOp::Sigmoid,
        UnaryOp::Neg,
    ];
    for dtype in [DType::I8, DType::U8] {
        let qp = QuantParams::new(0.05, p.int(-3, 100));
        let x = p.ints(&[2, 3, 5, 7], dtype, qp);
        for op in ops {
            assert_same_bits(
                kernels::unary(&x, op),
                reference::unary(&x, op),
                &format!("unary {op:?} on {dtype}"),
            );
        }
    }
    let x = p.f32s(&[3, 37]);
    for op in ops {
        assert_same_bits(
            kernels::unary(&x, op),
            reference::unary(&x, op),
            &format!("unary {op:?} on f32"),
        );
    }
}

/// One random tensor per storage type.
fn each_dtype(p: &mut Pick, shape: &[usize]) -> Vec<Tensor> {
    let qp = QuantParams::new(0.25, p.int(-7, 90));
    vec![
        p.f32s(shape),
        p.ints(shape, DType::I8, qp),
        p.ints(shape, DType::U8, qp),
        p.ints(shape, DType::I32, qp),
        // An index tensor: i32 without quantization parameters.
        Tensor::from_i32(
            shape,
            p.ints(shape, DType::I32, qp).as_i32().unwrap().to_vec(),
            None,
        )
        .unwrap(),
    ]
}

fn random_shape(p: &mut Pick) -> Vec<usize> {
    let rank = p.range(1, 4);
    (0..rank).map(|_| p.range(1, 6)).collect()
}

#[test]
fn pad_slice_transpose_concat_match_direct_loop() {
    let mut p = Pick(TensorRng::new(0xF0));
    for case in 0..60 {
        let shape = random_shape(&mut p);
        let rank = shape.len();
        let pads: Vec<(usize, usize)> = (0..rank).map(|_| (p.range(0, 2), p.range(0, 2))).collect();
        let begin: Vec<usize> = shape.iter().map(|&d| p.range(0, d - 1)).collect();
        let end: Vec<usize> = shape
            .iter()
            .zip(&begin)
            .map(|(&d, &b)| p.range(b + 1, d))
            .collect();
        let mut axes: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            axes.swap(i, p.range(0, i));
        }
        let cat_axis = p.range(0, rank - 1);
        let mut other = shape.clone();
        other[cat_axis] = p.range(1, 4);
        let value = p.of(&[0.0, 1.5, -2.0]);
        for (x, y) in each_dtype(&mut p, &shape)
            .iter()
            .zip(&each_dtype(&mut p, &other))
        {
            let what = format!("case {case} {} {shape:?}", x.dtype());
            assert_same_bits(
                kernels::pad(x, &pads, value),
                reference::pad(x, &pads, value),
                &format!("pad {pads:?} {what}"),
            );
            assert_same_bits(
                kernels::slice(x, &begin, &end),
                reference::slice(x, &begin, &end),
                &format!("slice {begin:?}..{end:?} {what}"),
            );
            assert_same_bits(
                kernels::transpose(x, &axes),
                reference::transpose(x, &axes),
                &format!("transpose {axes:?} {what}"),
            );
            assert_same_bits(
                kernels::concat(&[x, y, x], cat_axis),
                reference::concat(&[x, y, x], cat_axis),
                &format!("concat axis {cat_axis} {what}"),
            );
        }
    }
}

#[test]
fn mean_f32_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xF1));
    for case in 0..80 {
        let shape = random_shape(&mut p);
        let axes: Vec<usize> = (0..shape.len()).filter(|_| p.coin()).collect();
        let x = p.f32s(&shape);
        assert_same_bits(
            kernels::mean_f32(&x, &axes),
            reference::mean_f32(&x, &axes),
            &format!("mean case {case}: {shape:?} over {axes:?}"),
        );
    }
    // The reductions the zoo runs: NCHW spatial mean, wide rows.
    let x = p.f32s(&[2, 5, 9, 33]);
    for axes in [&[2usize, 3][..], &[1], &[0, 3], &[3, 2], &[]] {
        assert_same_bits(
            kernels::mean_f32(&x, axes),
            reference::mean_f32(&x, axes),
            &format!("mean over {axes:?}"),
        );
    }
}

#[test]
fn pooling_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xF2));
    for case in 0..300 {
        let kernel = (p.range(1, 4), p.range(1, 4));
        let count_include_pad = p.coin();
        // A window wholly inside padding is an error for exclude-pad
        // averaging (see `avg_pool_window_in_padding_is_an_error`) but a
        // defined value for max and include-pad averaging, so only the
        // latter sweep pads past the window size.
        let pad = |p: &mut Pick, k: usize, wide: bool| p.range(0, if wide { k + 1 } else { k - 1 });
        let params = |p: &mut Pick, wide: bool| Pool2dParams {
            kernel,
            strides: (p.range(1, 3), p.range(1, 3)),
            padding: (
                pad(p, kernel.0, wide),
                pad(p, kernel.1, wide),
                pad(p, kernel.0, wide),
                pad(p, kernel.1, wide),
            ),
            count_include_pad,
        };
        let shape = [
            p.range(1, 2),
            p.range(1, 3),
            p.range(1, 9),
            p.of(&[1, 2, 5, 8, 33]),
        ];
        let narrow = params(&mut p, false);
        let wide = params(&mut p, true);
        let mut inputs = each_dtype(&mut p, &shape);
        inputs.truncate(3);
        // A plane of negative zeros pins the sign of an all-zero sum.
        inputs.push(Tensor::from_f32(shape, vec![-0.0; shape.iter().product()]).unwrap());
        for x in &inputs {
            let what = format!("case {case} {} {shape:?}", x.dtype());
            assert_same_bits(
                kernels::avg_pool2d(x, &narrow),
                reference::avg_pool2d(x, &narrow),
                &format!("avg_pool2d {narrow:?} {what}"),
            );
            assert_same_bits(
                kernels::max_pool2d(x, &wide),
                reference::max_pool2d(x, &wide),
                &format!("max_pool2d {wide:?} {what}"),
            );
            if count_include_pad {
                assert_same_bits(
                    kernels::avg_pool2d(x, &wide),
                    reference::avg_pool2d(x, &wide),
                    &format!("avg_pool2d {wide:?} {what}"),
                );
            }
        }
        let x = &inputs[0];
        assert_same_bits(
            kernels::global_avg_pool2d(x),
            reference::avg_pool2d(
                x,
                &Pool2dParams {
                    kernel: (shape[2], shape[3]),
                    strides: (1, 1),
                    padding: (0, 0, 0, 0),
                    count_include_pad: false,
                },
            ),
            &format!("global_avg_pool2d case {case} {shape:?}"),
        );
    }
}

/// Pooling over widths that span several 32-column blocks, on windows
/// that mix signed zeros, NaNs and infinities: the float max ignores a NaN
/// and the float sum propagates it, so each element's sequence shows.
#[test]
fn pooling_across_column_blocks_with_special_values_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xF3));
    for w in [33, 65] {
        for case in 0..12 {
            let kernel = (p.range(1, 3), p.range(1, 4));
            let params = Pool2dParams {
                kernel,
                strides: (p.range(1, 2), p.range(1, 3)),
                padding: (p.range(0, kernel.0 - 1), p.range(0, kernel.1 - 1), 0, 0),
                count_include_pad: p.coin(),
            };
            let shape = [p.range(1, 2), p.range(1, 3), p.range(3, 5), w];
            let mut x = p.f32s(&shape);
            for _ in 0..8 {
                sprinkle(&mut p, &mut x);
            }
            let what = format!("case {case} {shape:?} {params:?}");
            let pairs = [
                (
                    kernels::max_pool2d(&x, &params),
                    reference::max_pool2d(&x, &params),
                ),
                (
                    kernels::avg_pool2d(&x, &params),
                    reference::avg_pool2d(&x, &params),
                ),
            ];
            for (got, want) in pairs {
                assert_same_or_nan(&got.unwrap(), &want.unwrap(), &what);
            }
        }
    }
}

/// The global pool sums eight planes side by side: plane counts off and
/// past that, over two images, with special values among the elements.
#[test]
fn global_avg_pool_over_many_planes_matches_direct_loop() {
    let mut p = Pick(TensorRng::new(0xF4));
    for c in [1, 7, 8, 9, 17, 20] {
        let shape = [2, c, p.range(1, 6), p.of(&[1, 3, 8, 33])];
        let mut x = p.f32s(&shape);
        sprinkle(&mut p, &mut x);
        let full = Pool2dParams {
            kernel: (shape[2], shape[3]),
            strides: (1, 1),
            padding: (0, 0, 0, 0),
            count_include_pad: false,
        };
        let got = kernels::global_avg_pool2d(&x).unwrap();
        let want = reference::avg_pool2d(&x, &full).unwrap();
        assert_same_or_nan(&got, &want, &format!("global_avg_pool2d {shape:?}"));
    }
}

/// Every convolution and dense call of the ten zoo and four showcase
/// modules — the geometries the benchmark actually runs — with the
/// module's own weights and a seeded input of the argument's type.
#[test]
fn every_model_geometry_matches_direct_loop() {
    let mut models = zoo::zoo(42);
    models.extend([
        anti_spoofing::anti_spoofing_model(42),
        emotion::emotion_model(43),
        object_detection::mobilenet_ssd_model(44),
        object_detection::yolo_model(45),
    ]);
    let mut p = Pick(TensorRng::new(0xAB));
    let (mut convs, mut denses) = (0, 0);
    for model in &models {
        let types = infer_types(&model.module).expect("model type-checks");
        for e in topo_order(&model.module.main().body) {
            let ExprKind::Call(call) = &e.kind else {
                continue;
            };
            let Some(op) = e.op() else { continue };
            let constant = |i: usize| match call.args.get(i).map(|a| &a.kind) {
                Some(ExprKind::Constant(c)) => Some(c.value.clone()),
                _ => None,
            };
            let what = format!("{} node {} ({})", model.name, e.id, op.name());
            let in_ty = types[&call.args[0].id].as_tensor();
            let dims = in_ty.shape.dims();
            match op {
                OpKind::Conv2d(a) => {
                    let (x, w, b) = (p.f32s(dims), constant(1).expect("weights"), constant(2));
                    assert_same_bits(
                        kernels::conv2d_f32(&x, &w, b.as_ref(), a),
                        reference::conv2d_f32(&x, &w, b.as_ref(), a),
                        &what,
                    );
                    convs += 1;
                }
                OpKind::QnnConv2d(a) => {
                    let x = p.ints(dims, in_ty.dtype, a.input_q);
                    let (w, b) = (constant(1).expect("weights"), constant(2));
                    let q = QConvQuant {
                        input: a.input_q,
                        weight: a.weight_q,
                        output: a.output_q,
                        out_dtype: a.out_dtype,
                    };
                    assert_same_bits(
                        kernels::qconv2d(&x, &w, b.as_ref(), &a.conv, &q),
                        reference::qconv2d(&x, &w, b.as_ref(), &a.conv, &q),
                        &what,
                    );
                    convs += 1;
                }
                OpKind::Dense => {
                    let (x, w, b) = (p.f32s(dims), constant(1).expect("weights"), constant(2));
                    assert_same_bits(
                        kernels::dense_f32(&x, &w, b.as_ref()),
                        reference::dense_f32(&x, &w, b.as_ref()),
                        &what,
                    );
                    denses += 1;
                }
                OpKind::QnnDense(a) => {
                    let x = p.ints(dims, in_ty.dtype, a.input_q);
                    let (w, b) = (constant(1).expect("weights"), constant(2));
                    let (qi, qw, qo, od) = (a.input_q, a.weight_q, a.output_q, a.out_dtype);
                    assert_same_bits(
                        kernels::qdense(&x, &w, b.as_ref(), qi, qw, qo, od),
                        reference::qdense(&x, &w, b.as_ref(), qi, qw, qo, od),
                        &what,
                    );
                    denses += 1;
                }
                _ => {}
            }
        }
    }
    assert!(
        convs > 100 && denses >= 10,
        "walked {convs} convs, {denses} denses"
    );
}

/// `qnn.add`'s scalar formula, one element: both operands dequantized,
/// added, divided by the output scale and rounded half away from zero,
/// then the zero point added and saturated.
fn qadd_formula(
    qa: i32,
    qb: i32,
    (a_q, b_q, o_q): (QuantParams, QuantParams, QuantParams),
    od: DType,
) -> i32 {
    let (lo, hi) = od.int_range().unwrap();
    let real = a_q.dequantize(qa) + b_q.dequantize(qb);
    let q = ((real / o_q.scale) as f64).round() as i64;
    q.saturating_add(o_q.zero_point as i64)
        .clamp(lo as i64, hi as i64) as i32
}

/// Every `(qa, qb)` pair of every 8-bit operand pairing, under three
/// parameter sets, against the scalar formula; and a broadcast.
#[test]
fn qadd_matches_the_scalar_formula_on_every_operand_pair() {
    let params = [
        (
            QuantParams::new(0.031, 128),
            QuantParams::new(0.017, 3),
            QuantParams::new(0.04, 7),
        ),
        (
            QuantParams::new(1.0, 0),
            QuantParams::new(1.0, 0),
            QuantParams::new(1.0, 0),
        ),
        (
            QuantParams::new(0.5, -128),
            QuantParams::new(0.25, 255),
            QuantParams::new(0.003, 127),
        ),
    ];
    let ints = [DType::I8, DType::U8];
    for q in params {
        for (ad, bd) in ints.into_iter().flat_map(|a| ints.map(|b| (a, b))) {
            let (alo, ahi) = ad.int_range().unwrap();
            let (blo, bhi) = bd.int_range().unwrap();
            let pairs: Vec<(i32, i32)> = (alo..=ahi)
                .flat_map(|a| (blo..=bhi).map(move |b| (a, b)))
                .collect();
            let a: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let a = Tensor::from_int_values([pairs.len()], &a, ad, Some(q.0)).unwrap();
            let b = Tensor::from_int_values([pairs.len()], &b, bd, Some(q.1)).unwrap();
            for od in [DType::I8, DType::U8] {
                let got = kernels::qadd(&a, &b, q.0, q.1, q.2, od).unwrap();
                let want: Vec<i32> = pairs
                    .iter()
                    .map(|&(x, y)| qadd_formula(x, y, q, od))
                    .collect();
                assert_eq!(
                    got.iter_int().collect::<Vec<_>>(),
                    want,
                    "{ad}/{bd} -> {od} {q:?}"
                );
            }
        }
    }
    let (q, mut p) = (params[0], Pick(TensorRng::new(0xE5)));
    let (a, b) = (
        p.ints(&[2, 3, 4, 5], DType::U8, q.0),
        p.ints(&[1, 3, 1, 1], DType::I8, q.1),
    );
    let got = kernels::qadd(&a, &b, q.0, q.1, q.2, DType::U8).unwrap();
    let bv: Vec<i32> = b.iter_int().collect();
    let want: Vec<i32> = a
        .iter_int()
        .enumerate()
        .map(|(i, x)| qadd_formula(x, bv[i / 20 % 3], q, DType::U8))
        .collect();
    assert_eq!(got.iter_int().collect::<Vec<_>>(), want, "broadcast");
}

/// `qnn.quantize` against its scalar formula — `real / scale` in `f32`,
/// rounded half away from zero, plus the zero point, saturated — on the
/// values a lane gets wrong first: signed zeros, infinities, NaN, halves,
/// the largest `f32` below one half, and values past the 8-bit range.
#[test]
fn quantize_matches_the_scalar_formula_on_special_values() {
    let mut vals = vec![
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.49999997,
        -0.49999997,
        1e30,
        -1e30,
        f32::MAX,
        f32::MIN,
        8388607.5,
        -8388607.5,
    ];
    for k in -300..300 {
        vals.extend([k as f32 + 0.5, k as f32 - 0.5, k as f32]);
    }
    let mut p = Pick(TensorRng::new(0xE6));
    vals.extend(p.f32s(&[4000]).as_f32().unwrap().iter().map(|v| v * 300.0));
    let n = vals.len();
    let x = Tensor::from_f32([n], vals.clone()).unwrap();
    for scale in [1.0f32, 0.5, 0.02, 3.0] {
        for (zp, dtype) in [
            (0, DType::U8),
            (255, DType::U8),
            (128, DType::U8),
            (-128, DType::I8),
            (127, DType::I8),
            (0, DType::I8),
            (300, DType::U8),
            (5_000_000, DType::I8),
            (7, DType::I32),
        ] {
            let qp = QuantParams::new(scale, zp);
            let (lo, hi) = dtype.int_range().unwrap();
            let want: Vec<i32> = vals
                .iter()
                .map(|&v| {
                    let q = if v.is_nan() {
                        0
                    } else {
                        ((v / scale) as f64).round() as i64
                    };
                    q.saturating_add(zp as i64).clamp(lo as i64, hi as i64) as i32
                })
                .collect();
            let got = x.quantize(qp, dtype).unwrap();
            assert_eq!(
                got.iter_int().collect::<Vec<_>>(),
                want,
                "scale {scale} zero point {zp} {dtype}"
            );
            for (&v, &w) in vals.iter().zip(&want) {
                assert_eq!(
                    qp.quantize(v, dtype),
                    w,
                    "{v:e} scale {scale} zero point {zp} {dtype}"
                );
            }
        }
    }
}

/// The integer global pool (exact plane sums) and `clip` / `relu` (a
/// byte-wide clamp) at zero points on both ends of both storage ranges.
#[test]
fn int_global_pool_and_clip_match_direct_loop_at_extreme_zero_points() {
    let mut p = Pick(TensorRng::new(0xE7));
    for (dtype, zp) in [
        (DType::U8, 0),
        (DType::U8, 255),
        (DType::I8, -128),
        (DType::I8, 127),
    ] {
        let qp = QuantParams::new(0.05, zp);
        for shape in [[1, 3, 1, 1], [2, 5, 7, 9], [1, 64, 16, 16]] {
            let x = p.ints(&shape, dtype, qp);
            assert_same_bits(
                kernels::global_avg_pool2d(&x),
                reference::avg_pool2d(
                    &x,
                    &Pool2dParams {
                        kernel: (shape[2], shape[3]),
                        strides: (1, 1),
                        padding: (0, 0, 0, 0),
                        count_include_pad: false,
                    },
                ),
                &format!("global_avg_pool2d {dtype} zero point {zp} {shape:?}"),
            );
            for op in [
                UnaryOp::Relu,
                UnaryOp::Relu6,
                UnaryOp::Clip(-0.3, 0.4),
                UnaryOp::Clip(-100.0, 100.0),
            ] {
                assert_same_bits(
                    kernels::unary(&x, op),
                    reference::unary(&x, op),
                    &format!("{op:?} {dtype} zero point {zp}"),
                );
            }
        }
    }
}

/// Int8 depthwise on the packed path against the walk and the direct
/// loop: channel counts off the 4-channel tile, strides 2 and 3, dilation
/// 2, every operand pairing, zero points at both ends of the storage
/// range, and widths around the 8-column tile.
#[test]
fn qconv2d_depthwise_edges_match_walk_and_direct_loop() {
    let mut p = Pick(TensorRng::new(0xE8));
    let ints = [DType::I8, DType::U8];
    for (xd, wd) in ints.into_iter().flat_map(|x| ints.map(|w| (x, w))) {
        let (xlo, xhi) = xd.int_range().unwrap();
        let (wlo, whi) = wd.int_range().unwrap();
        for (zx, zw) in [(xlo, wlo), (xhi, whi), (xlo, whi), (p.int(xlo, xhi), 0)] {
            for (c, (sh, sw), (dh, dw)) in [
                (1, (1, 1), (1, 1)),
                (3, (2, 2), (1, 1)),
                (5, (3, 3), (1, 1)),
                (6, (1, 2), (2, 2)),
                (9, (2, 1), (1, 2)),
            ] {
                let width = p.of(&[3, 4, 7, 8, 9, 12, 16, 17, 33]);
                let k = p.of(&[1, 3, 5]);
                let params = Conv2dParams {
                    strides: (sh, sw),
                    padding: (k / 2, k / 2, k / 2, p.range(0, 2)),
                    dilation: (dh, dw),
                    groups: c,
                };
                let xs = [p.of(&[1, 2]), c, p.range(3, 9), width];
                if params.out_hw(xs[2], width, k, k).is_err() {
                    continue;
                }
                let quant = QConvQuant {
                    input: QuantParams::new(0.02, zx),
                    weight: QuantParams::new(0.01, zw),
                    output: QuantParams::new(p.of(&[0.05, 1.0, 40.0]), p.int(-10, 140)),
                    out_dtype: p.of(&[DType::I8, DType::U8, DType::I32]),
                };
                let x = p.ints(&xs, xd, quant.input);
                let w = p.ints(&[c, 1, k, k], wd, quant.weight);
                let b = p
                    .coin()
                    .then(|| p.ints(&[c], DType::I32, QuantParams::identity()));
                let what = format!("depthwise {xd}/{wd} zx={zx} zw={zw}: {xs:?} k={k} {params:?}");
                assert_qconv((&x, &w, b.as_ref()), &params, &quant, &what);
            }
        }
    }
}
