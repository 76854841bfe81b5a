//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use tvmnp_tensor::kernels::{
    batch_flatten, binary_f32, concat, conv2d_f32, dense_f32, max_pool2d, softmax_f32, transpose,
    unary, BinaryOp, Conv2dParams, Pool2dParams, UnaryOp,
};
use tvmnp_tensor::quant::FixedPointMultiplier;
use tvmnp_tensor::{DType, QuantParams, Shape, Tensor};

fn small_f32() -> impl Strategy<Value = f32> {
    (-1000i32..1000).prop_map(|v| v as f32 / 10.0)
}

proptest! {
    /// Quantize→dequantize error is bounded by half a scale step for values
    /// inside the representable range.
    #[test]
    fn quant_roundtrip_error_bounded(v in -10.0f32..10.0, zp in -20i32..20) {
        let qp = QuantParams::new(0.1, zp);
        // Only check values that stay inside the int8 window for this zp.
        let q = qp.quantize(v, DType::I8);
        if q > i8::MIN as i32 && q < i8::MAX as i32 {
            let back = qp.dequantize(q);
            prop_assert!((back - v).abs() <= 0.05 + 1e-6);
        }
    }

    /// The fixed-point decomposition approximates any positive real
    /// multiplier to within 1e-6 relative error.
    #[test]
    fn fixed_point_decomposition_accurate(m in 1e-6f64..100.0) {
        let fpm = FixedPointMultiplier::from_real(m);
        let back = fpm.multiplier as f64 / (1i64 << 31) as f64 * 2f64.powi(fpm.shift);
        prop_assert!(((back - m) / m).abs() < 1e-6);
    }

    /// from_range always makes zero exactly representable (zp in range) and
    /// keeps scale positive.
    #[test]
    fn from_range_valid(lo in -100.0f32..100.0, hi in -100.0f32..100.0) {
        let qp = QuantParams::from_range(lo, hi, DType::U8);
        prop_assert!(qp.scale > 0.0);
        prop_assert!((0..=255).contains(&qp.zero_point));
    }

    /// offset/unravel are inverse bijections over the whole index space.
    #[test]
    fn shape_offset_unravel_bijection(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5) {
        let s = Shape::from([d0, d1, d2]);
        for off in 0..s.num_elements() {
            prop_assert_eq!(s.offset(&s.unravel(off)), off);
        }
    }

    /// Broadcasting is commutative.
    #[test]
    fn broadcast_commutative(a in prop::collection::vec(1usize..4, 0..4),
                             b in prop::collection::vec(1usize..4, 0..4)) {
        let sa = Shape::new(a);
        let sb = Shape::new(b);
        prop_assert_eq!(sa.broadcast(&sb), sb.broadcast(&sa));
    }

    /// Softmax outputs are a probability distribution for any finite input.
    #[test]
    fn softmax_is_distribution(v in prop::collection::vec(small_f32(), 1..16)) {
        let n = v.len();
        let t = Tensor::from_f32([1, n], v).unwrap();
        let s = softmax_f32(&t).unwrap();
        let row = s.as_f32().unwrap();
        prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let sum: f32 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// ReLU is idempotent.
    #[test]
    fn relu_idempotent(v in prop::collection::vec(small_f32(), 1..32)) {
        let n = v.len();
        let t = Tensor::from_f32([n], v).unwrap();
        let once = unary(&t, UnaryOp::Relu).unwrap();
        let twice = unary(&once, UnaryOp::Relu).unwrap();
        prop_assert!(once.bit_eq(&twice));
    }

    /// Transposing twice with the inverse permutation is the identity.
    #[test]
    fn transpose_involution(d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4) {
        let n = d0 * d1 * d2;
        let t = Tensor::from_f32([d0, d1, d2], (0..n).map(|i| i as f32).collect()).unwrap();
        let perm = [2usize, 0, 1];
        let mut inv = [0usize; 3];
        for (i, &p) in perm.iter().enumerate() { inv[p] = i; }
        let y = transpose(&transpose(&t, &perm).unwrap(), &inv).unwrap();
        prop_assert!(t.bit_eq(&y));
    }

    /// concat along axis 0 preserves total element count and order of parts.
    #[test]
    fn concat_preserves_parts(a in prop::collection::vec(small_f32(), 1..8),
                              b in prop::collection::vec(small_f32(), 1..8)) {
        let ta = Tensor::from_f32([a.len()], a.clone()).unwrap();
        let tb = Tensor::from_f32([b.len()], b.clone()).unwrap();
        let y = concat(&[&ta, &tb], 0).unwrap();
        let v = y.as_f32().unwrap();
        prop_assert_eq!(&v[..a.len()], &a[..]);
        prop_assert_eq!(&v[a.len()..], &b[..]);
    }

    /// Addition via the broadcasting kernel is commutative.
    #[test]
    fn binary_add_commutative(v in prop::collection::vec(small_f32(), 4),
                              w in prop::collection::vec(small_f32(), 4)) {
        let a = Tensor::from_f32([2, 2], v).unwrap();
        let b = Tensor::from_f32([2, 2], w).unwrap();
        let ab = binary_f32(&a, &b, BinaryOp::Add).unwrap();
        let ba = binary_f32(&b, &a, BinaryOp::Add).unwrap();
        prop_assert!(ab.bit_eq(&ba));
    }

    /// conv2d is linear: conv(x, w1 + w2) == conv(x, w1) + conv(x, w2).
    #[test]
    fn conv_linear_in_weights(seed in 0u64..1000) {
        let mut rng = tvmnp_tensor::rng::TensorRng::new(seed);
        let x = rng.uniform_f32([1, 2, 5, 5], -1.0, 1.0);
        let w1 = rng.uniform_f32([3, 2, 3, 3], -1.0, 1.0);
        let w2 = rng.uniform_f32([3, 2, 3, 3], -1.0, 1.0);
        let wsum = binary_f32(&w1, &w2, BinaryOp::Add).unwrap();
        let p = Conv2dParams::same(1);
        let y_sum = conv2d_f32(&x, &wsum, None, &p).unwrap();
        let y1 = conv2d_f32(&x, &w1, None, &p).unwrap();
        let y2 = conv2d_f32(&x, &w2, None, &p).unwrap();
        let y12 = binary_f32(&y1, &y2, BinaryOp::Add).unwrap();
        prop_assert!(y_sum.max_abs_diff(&y12) <= 1e-3);
    }

    /// Max pooling never produces a value absent from the input window set.
    #[test]
    fn max_pool_subset_of_input(seed in 0u64..1000) {
        let mut rng = tvmnp_tensor::rng::TensorRng::new(seed);
        let x = rng.uniform_f32([1, 1, 4, 4], -1.0, 1.0);
        let y = max_pool2d(&x, &Pool2dParams::square(2)).unwrap();
        let xv = x.as_f32().unwrap();
        for v in y.as_f32().unwrap() {
            prop_assert!(xv.contains(v));
        }
    }

    /// dense(x, W) row count equals input rows, and batch_flatten keeps
    /// element count.
    #[test]
    fn dense_and_flatten_shapes(n in 1usize..4, k in 1usize..8, u in 1usize..8) {
        let x = Tensor::zeros_f32([n, k]);
        let w = Tensor::zeros_f32([u, k]);
        let y = dense_f32(&x, &w, None).unwrap();
        prop_assert_eq!(y.shape().dims(), &[n, u]);
        let t = Tensor::zeros_f32([n, k, 2]);
        let f = batch_flatten(&t).unwrap();
        prop_assert_eq!(f.num_elements(), t.num_elements());
    }
}
