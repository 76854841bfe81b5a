//! Each op's shape rule is stated once, by its kernel family: for every
//! `OpKind` variant, on drawn operand dims and attributes, valid and
//! invalid, `expr_type` accepts exactly what `eval_op` runs on zero
//! tensors of those dims, and on success both give one type.

use proptest::prelude::*;
use tvmnp_relay::builder::expr_type;
use tvmnp_relay::expr::{call, var};
use tvmnp_relay::interp::eval_op;
use tvmnp_relay::*;
use tvmnp_tensor::{DType, QuantParams, Tensor};

/// Number of `OpKind` variants; [`family`] numbers them.
const VARIANTS: usize = 39;

/// The index [`draw`] builds each variant under. No wildcard arm: a new
/// variant does not compile until it is drawn too.
fn family(op: &OpKind) -> usize {
    match op {
        OpKind::Conv2d(_) => 0,
        OpKind::QnnConv2d(_) => 1,
        OpKind::Dense => 2,
        OpKind::QnnDense(_) => 3,
        OpKind::BiasAdd => 4,
        OpKind::BatchNorm(_) => 5,
        OpKind::Relu => 6,
        OpKind::LeakyRelu(_) => 7,
        OpKind::Clip(_) => 8,
        OpKind::Sigmoid => 9,
        OpKind::Tanh => 10,
        OpKind::Exp => 11,
        OpKind::Sqrt => 12,
        OpKind::Negative => 13,
        OpKind::Dropout => 14,
        OpKind::MaxPool2d(_) => 15,
        OpKind::AvgPool2d(_) => 16,
        OpKind::GlobalAvgPool2d => 17,
        OpKind::Softmax => 18,
        OpKind::LogSoftmax => 19,
        OpKind::Add => 20,
        OpKind::Subtract => 21,
        OpKind::Multiply => 22,
        OpKind::Divide => 23,
        OpKind::Maximum => 24,
        OpKind::Minimum => 25,
        OpKind::QnnAdd(_) => 26,
        OpKind::Reshape(_) => 27,
        OpKind::Transpose(_) => 28,
        OpKind::Concatenate(_) => 29,
        OpKind::QnnConcatenate(_) => 30,
        OpKind::Pad(_) => 31,
        OpKind::StridedSlice(_) => 32,
        OpKind::BatchFlatten => 33,
        OpKind::Resize2d(_) => 34,
        OpKind::Mean(_) => 35,
        OpKind::QnnQuantize(_) => 36,
        OpKind::QnnDequantize(_) => 37,
        OpKind::QnnRequantize(_) => 38,
    }
}

/// A deterministic stream of small choices (splitmix64).
struct Pick(u64);

impl Pick {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// `v` seven times in eight, else a neighbour: the draws that make an
    /// operand disagree with the one it must match.
    fn near(&mut self, v: usize) -> usize {
        match self.below(16) {
            0 => v + 1,
            1 => v.saturating_sub(1),
            _ => v,
        }
    }

    /// `1..=hi`, now and then 0.
    fn size(&mut self, hi: usize) -> usize {
        match self.below(10) {
            0 => 0,
            _ => self.range(1, hi),
        }
    }

    /// A dim: mostly 1..=4, now and then empty.
    fn dim(&mut self) -> usize {
        match self.below(12) {
            0 => 0,
            _ => self.range(1, 4),
        }
    }

    fn dims(&mut self, rank: usize) -> Vec<usize> {
        (0..rank).map(|_| self.dim()).collect()
    }

    /// Mostly rank 4, sometimes 3 or 5.
    fn nchw(&mut self) -> Vec<usize> {
        let rank = match self.below(8) {
            0 => 3,
            1 => 5,
            _ => 4,
        };
        self.dims(rank)
    }

    fn pair(&mut self, hi: usize) -> (usize, usize) {
        (self.range(0, hi), self.range(0, hi))
    }
}

fn q() -> QuantParams {
    QuantParams::identity()
}

fn f32t(dims: Vec<usize>) -> TensorType {
    TensorType::f32(dims)
}

fn u8t(dims: Vec<usize>) -> TensorType {
    TensorType::new(dims, DType::U8)
}

/// A float or a quantized activation of `dims`.
fn either(p: &mut Pick, dims: Vec<usize>) -> TensorType {
    if p.coin() {
        u8t(dims)
    } else {
        f32t(dims)
    }
}

/// The zero tensor of `t` (quantized ones with identity params).
fn zero(t: &TensorType) -> Tensor {
    let n = t.shape.num_elements();
    let quant = match t.dtype {
        DType::F32 => return Tensor::zeros_f32(t.shape.clone()),
        DType::I32 => None,
        _ => Some(q()),
    };
    Tensor::from_int_values(t.shape.clone(), &vec![0; n], t.dtype, quant).expect("zeros")
}

/// Convolution operands: data `[n, c, h, w]`, weight `[oc, c/groups, kh,
/// kw]`, maybe a bias of `oc` elements, each dim now and then off.
fn conv(p: &mut Pick) -> (Conv2dAttrs, Vec<Vec<usize>>) {
    let c = p.range(1, 4);
    let groups = [1, 1, 1, c, c, 2, 0][p.below(7)];
    let per_group = p.range(1, 2);
    let oc = p.near(groups.max(1) * per_group);
    let mut x = p.nchw();
    if x.len() > 1 {
        x[1] = c;
    }
    let w = vec![oc, p.near(c / groups.max(1)), p.size(3), p.range(1, 3)];
    let attrs = Conv2dAttrs {
        strides: (p.size(2), p.range(1, 2)),
        padding: (p.range(0, 2), p.range(0, 2), p.range(0, 2), p.range(0, 2)),
        dilation: (p.range(1, 2), p.range(1, 2)),
        groups,
    };
    let mut operands = vec![x, w];
    match p.below(4) {
        0 => operands.push(vec![p.near(oc)]),
        1 => operands.push(vec![1, oc]),
        _ => {}
    }
    (attrs, operands)
}

/// Dense operands: `[n, k]`, `[units, k]`, maybe a bias of `units`.
fn dense(p: &mut Pick) -> Vec<Vec<usize>> {
    let (k, units) = (p.range(1, 4), p.range(1, 4));
    let x = match p.below(8) {
        0 => p.dims(3),
        _ => vec![p.dim(), k],
    };
    let mut operands = vec![x, vec![units, p.near(k)]];
    if p.coin() {
        operands.push(vec![p.near(units)]);
    }
    operands
}

/// A pool window over the first rows and columns, padding up to past it.
fn pool(p: &mut Pick) -> Pool2dAttrs {
    Pool2dAttrs {
        kernel: (p.size(3), p.range(1, 3)),
        strides: (p.size(2), p.range(1, 2)),
        padding: (p.range(0, 3), p.range(0, 3), p.range(0, 3), p.range(0, 3)),
        count_include_pad: p.coin(),
    }
}

/// A broadcast partner of `a`: `a` with some dims 1, one changed, or a
/// shorter suffix.
fn partner(p: &mut Pick, a: &[usize]) -> Vec<usize> {
    let mut b: Vec<usize> = a.iter().map(|&d| if p.coin() { 1 } else { d }).collect();
    match p.below(4) {
        0 if !b.is_empty() => {
            let i = p.below(b.len());
            b[i] += 1;
        }
        1 => b.drain(..p.range(0, b.len())).for_each(drop),
        _ => {}
    }
    b
}

/// `count` concatenation inputs agreeing off `axis` (now and then not).
fn concat_inputs(p: &mut Pick, count: usize) -> (usize, Vec<Vec<usize>>) {
    let rank = p.range(0, 3);
    let base = p.dims(rank);
    let axis = p.range(0, base.len());
    let inputs = (0..count)
        .map(|_| {
            let mut d = base.clone();
            if axis < d.len() {
                d[axis] = p.dim();
            }
            match p.below(10) {
                0 if !d.is_empty() => {
                    let i = p.below(d.len());
                    d[i] = p.near(d[i]);
                }
                1 => d.push(1),
                _ => {}
            }
            d
        })
        .collect();
    (axis, inputs)
}

/// Draw an application of the op [`family`] numbers `k`: its attributes
/// and its operands' types.
fn draw(p: &mut Pick, k: usize) -> (OpKind, Vec<TensorType>) {
    let unary = |p: &mut Pick, op| {
        let rank = p.range(0, 4);
        let x = p.dims(rank);
        (op, vec![either(p, x)])
    };
    match k {
        0 => {
            let (attrs, dims) = conv(p);
            (OpKind::Conv2d(attrs), dims.into_iter().map(f32t).collect())
        }
        1 => {
            let (conv, dims) = conv(p);
            let dtypes = [DType::U8, DType::I8, DType::I32];
            let ops = dims.into_iter().zip(dtypes);
            let attrs = QnnConv2dAttrs {
                conv,
                input_q: q(),
                weight_q: q(),
                output_q: q(),
                out_dtype: [DType::U8, DType::I8][p.below(2)],
            };
            let ops = ops.map(|(d, t)| TensorType::new(d, t)).collect();
            (OpKind::QnnConv2d(attrs), ops)
        }
        2 => (OpKind::Dense, dense(p).into_iter().map(f32t).collect()),
        3 => {
            let dtypes = [DType::U8, DType::I8, DType::I32];
            let ops = dense(p).into_iter().zip(dtypes);
            let attrs = QnnDenseAttrs {
                input_q: q(),
                weight_q: q(),
                output_q: q(),
                out_dtype: DType::U8,
            };
            let ops = ops.map(|(d, t)| TensorType::new(d, t)).collect();
            (OpKind::QnnDense(attrs), ops)
        }
        4 => {
            let rank = p.range(0, 4);
            let x = p.dims(rank);
            let c = x.get(1).copied().unwrap_or(2);
            let bias = match p.below(4) {
                0 => vec![1, c],
                1 => vec![],
                _ => vec![p.near(c)],
            };
            (OpKind::BiasAdd, vec![f32t(x), f32t(bias)])
        }
        5 => {
            let x = p.nchw();
            let c = x.get(1).copied().unwrap_or(2);
            let mut ops = vec![f32t(x)];
            for _ in 0..4 {
                let d = match p.below(12) {
                    0 => vec![1, c],
                    _ => vec![p.near(c)],
                };
                ops.push(f32t(d));
            }
            (OpKind::BatchNorm(BatchNormAttrs { epsilon: 1e-5 }), ops)
        }
        6 => unary(p, OpKind::Relu),
        7 => unary(p, OpKind::LeakyRelu(LeakyReluAttrs { alpha: 0.1 })),
        8 => {
            let (min, max) = [(0.0, 6.0), (1.0, -1.0), (f32::NAN, 1.0)][p.below(3)];
            unary(p, OpKind::Clip(ClipAttrs { min, max }))
        }
        9 => unary(p, OpKind::Sigmoid),
        10 => unary(p, OpKind::Tanh),
        11 => unary(p, OpKind::Exp),
        12 => unary(p, OpKind::Sqrt),
        13 => unary(p, OpKind::Negative),
        14 => unary(p, OpKind::Dropout),
        15 | 16 => {
            let attrs = pool(p);
            let op = match k {
                15 => OpKind::MaxPool2d(attrs),
                _ => OpKind::AvgPool2d(attrs),
            };
            let x = p.nchw();
            (op, vec![either(p, x)])
        }
        17 => {
            let x = p.nchw();
            (OpKind::GlobalAvgPool2d, vec![either(p, x)])
        }
        18 | 19 => {
            let op = [OpKind::Softmax, OpKind::LogSoftmax][k - 18].clone();
            let rank = p.range(0, 3);
            (op, vec![f32t(p.dims(rank))])
        }
        20..=26 => {
            let rank = p.range(0, 4);
            let a = p.dims(rank);
            let b = partner(p, &a);
            let (a, b) = if p.coin() { (a, b) } else { (b, a) };
            let op = match k {
                20 => OpKind::Add,
                21 => OpKind::Subtract,
                22 => OpKind::Multiply,
                23 => OpKind::Divide,
                24 => OpKind::Maximum,
                25 => OpKind::Minimum,
                _ => {
                    let attrs = QnnAddAttrs {
                        lhs_q: q(),
                        rhs_q: q(),
                        output_q: q(),
                        out_dtype: DType::U8,
                    };
                    return (OpKind::QnnAdd(attrs), vec![u8t(a), u8t(b)]);
                }
            };
            (op, vec![f32t(a), f32t(b)])
        }
        27 => {
            let rank = p.range(0, 4);
            let x = p.dims(rank);
            let n: usize = x.iter().product();
            let new_shape = match p.below(3) {
                0 => vec![n],
                1 => vec![1, n, 1],
                _ => p.dims(2),
            };
            (
                OpKind::Reshape(ReshapeAttrs { new_shape }),
                vec![either(p, x)],
            )
        }
        28 => {
            let rank = p.range(0, 4);
            let x = p.dims(rank);
            let mut axes: Vec<usize> = (0..rank).rev().collect();
            match p.below(4) {
                0 => axes.push(0),
                1 if rank > 1 => axes[0] = axes[1],
                2 if rank > 0 => axes[0] = rank,
                _ => {}
            }
            (
                OpKind::Transpose(TransposeAttrs { axes }),
                vec![either(p, x)],
            )
        }
        29 | 30 => {
            let count = p.range(0, 3);
            let (axis, inputs) = concat_inputs(p, count);
            if k == 29 {
                let ops = inputs.into_iter().map(f32t).collect();
                return (OpKind::Concatenate(ConcatAttrs { axis }), ops);
            }
            let attrs = QnnConcatAttrs {
                axis,
                input_qs: vec![q(); count],
                output_q: q(),
            };
            let ops = inputs.into_iter().map(u8t).collect();
            (OpKind::QnnConcatenate(attrs), ops)
        }
        31 => {
            let rank = p.range(0, 4);
            let x = p.dims(rank);
            let pads = (0..p.near(rank)).map(|_| p.pair(2)).collect();
            let attrs = PadAttrs { pads, value: 0.0 };
            (OpKind::Pad(attrs), vec![either(p, x)])
        }
        32 => {
            let rank = p.range(0, 4);
            let x = p.dims(rank);
            let (mut begin, mut end) = (Vec::new(), Vec::new());
            for &d in &x {
                let b = p.range(0, d);
                begin.push(b);
                end.push(p.range(b, d + 1));
            }
            if p.below(8) == 0 {
                begin.push(0);
            }
            let attrs = SliceAttrs { begin, end };
            (OpKind::StridedSlice(attrs), vec![either(p, x)])
        }
        33 => unary(p, OpKind::BatchFlatten),
        34 => {
            let (out_h, out_w) = (p.dim(), p.dim());
            let attrs = Resize2dAttrs {
                out_h,
                out_w,
                bilinear: p.coin(),
            };
            let x = p.nchw();
            (OpKind::Resize2d(attrs), vec![either(p, x)])
        }
        35 => {
            let rank = p.range(0, 4);
            let axes = (0..p.range(0, 3)).map(|_| p.range(0, rank)).collect();
            (OpKind::Mean(MeanAttrs { axes }), vec![f32t(p.dims(rank))])
        }
        36 => {
            let rank = p.range(0, 4);
            let attrs = QuantizeAttrs {
                out: q(),
                out_dtype: DType::I8,
            };
            (OpKind::QnnQuantize(attrs), vec![f32t(p.dims(rank))])
        }
        37 => {
            let rank = p.range(0, 4);
            let attrs = DequantizeAttrs { input: q() };
            (OpKind::QnnDequantize(attrs), vec![u8t(p.dims(rank))])
        }
        _ => {
            let rank = p.range(0, 4);
            let attrs = RequantizeAttrs {
                input: q(),
                output: q(),
                out_dtype: DType::I8,
            };
            (OpKind::QnnRequantize(attrs), vec![u8t(p.dims(rank))])
        }
    }
}

/// `expr_type` of `op` applied to vars of `types`.
fn type_of(op: &OpKind, types: &[TensorType]) -> Result<Type, TypeError> {
    let args = types.iter().enumerate();
    let args = args.map(|(i, t)| var(format!("x{i}"), t.clone())).collect();
    expr_type(&call(op.clone(), args))
}

/// Whether the type checker and the kernel agree on `op` over operands of
/// `types`: both refuse, or both accept with one type.
fn agree(op: &OpKind, types: &[TensorType]) -> Result<(), String> {
    let typed = type_of(op, types);
    let zeros: Vec<Tensor> = types.iter().map(zero).collect();
    let ran = eval_op(op, &zeros.iter().collect::<Vec<_>>());
    let name = op.name();
    match (typed, ran) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(Type::Tensor(t)), Ok(v)) if t.shape == *v.shape() && t.dtype == v.dtype() => Ok(()),
        (Ok(t), Ok(v)) => Err(format!("{name} types as {t}, runs to {:?}", v.shape())),
        (Ok(t), Err(e)) => Err(format!("{name} types as {t} but does not run: {e}")),
        (Err(e), Ok(v)) => Err(format!("{name} runs to {:?} but {e}", v.shape())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every variant, on drawn operands: accepted iff it runs.
    fn type_checking_accepts_what_runs(seed in 0u64..1_000_000) {
        let mut p = Pick(seed);
        for k in 0..VARIANTS {
            let (op, types) = draw(&mut p, k);
            prop_assert_eq!(family(&op), k);
            if let Err(e) = agree(&op, &types) {
                prop_assert!(false, "{e}\n  operands: {types:?}\n  op: {op:?}");
            }
        }
    }
}

/// Both rules refuse `op` over `types`.
#[track_caller]
fn assert_refused(op: OpKind, types: &[TensorType]) {
    agree(&op, types).unwrap();
    assert!(type_of(&op, types).is_err());
}

#[test]
fn a_conv_bias_of_another_length_than_the_out_channels_is_refused() {
    let (x, w) = (f32t(vec![1, 3, 4, 4]), f32t(vec![8, 3, 3, 3]));
    assert_refused(OpKind::Conv2d(Conv2dAttrs::same(1)), &[x, w, f32t(vec![4])]);
}

#[test]
fn a_dense_bias_of_another_length_than_the_units_is_refused() {
    let (x, w) = (f32t(vec![1, 10]), f32t(vec![4, 10]));
    assert_refused(OpKind::Dense, &[x, w, f32t(vec![5])]);
}

#[test]
fn a_resize_to_an_empty_plane_is_refused() {
    let attrs = Resize2dAttrs {
        out_h: 0,
        out_w: 4,
        bilinear: false,
    };
    assert_refused(OpKind::Resize2d(attrs), &[f32t(vec![1, 2, 4, 4])]);
}

#[test]
fn a_softmax_of_a_scalar_is_refused() {
    assert_refused(OpKind::Softmax, &[f32t(vec![])]);
}

#[test]
fn an_average_over_a_window_wholly_in_padding_is_refused() {
    let attrs = Pool2dAttrs {
        padding: (2, 0, 0, 0),
        strides: (1, 1),
        ..Pool2dAttrs::square(2)
    };
    assert_refused(OpKind::AvgPool2d(attrs), &[f32t(vec![1, 1, 2, 2])]);
    // Counting the padding, or taking the maximum, is defined.
    let counted = Pool2dAttrs {
        count_include_pad: true,
        ..attrs
    };
    let x = [f32t(vec![1, 1, 2, 2])];
    for op in [OpKind::AvgPool2d(counted), OpKind::MaxPool2d(attrs)] {
        agree(&op, &x).unwrap();
        assert!(type_of(&op, &x).is_ok());
    }
}

#[test]
fn a_bias_add_bias_of_rank_2_is_refused() {
    assert_refused(OpKind::BiasAdd, &[f32t(vec![2, 4]), f32t(vec![1, 4])]);
}
