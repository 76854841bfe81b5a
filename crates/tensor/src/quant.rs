//! Affine quantization: parameters, conversion, and fixed-point requantize.
//!
//! Relay QNN attaches these parameters to *operators* (`qnn.conv2d` carries
//! input/kernel scales); Neuron IR attaches them to *tensors*. Both sides of
//! the paper's §3.3 conversion therefore share this module.

use crate::dtype::DType;
use crate::tensor::IntElem;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul};

/// Affine quantization parameters: `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Positive real scale.
    pub scale: f32,
    /// Zero point in the quantized domain.
    pub zero_point: i32,
}

impl QuantParams {
    /// New parameter pair.
    pub fn new(scale: f32, zero_point: i32) -> Self {
        debug_assert!(scale > 0.0, "quantization scale must be positive");
        QuantParams { scale, zero_point }
    }

    /// The identity mapping for already-real values (`scale=1, zp=0`).
    pub fn identity() -> Self {
        QuantParams {
            scale: 1.0,
            zero_point: 0,
        }
    }

    /// Quantize one real value into the given integer dtype with saturation.
    pub fn quantize(&self, real: f32, dtype: DType) -> i32 {
        let (lo, hi) = dtype
            .int_range()
            .expect("quantize target must be an integer type");
        let q = round_to_i64(real / self.scale) + self.zero_point as i64;
        q.clamp(lo as i64, hi as i64) as i32
    }

    /// Dequantize one stored value back to real.
    pub fn dequantize(&self, q: i32) -> f32 {
        self.scale * (q - self.zero_point) as f32
    }

    /// Choose parameters covering `[min, max]` for the given dtype, the way
    /// TFLite's post-training quantizer does (range widened to include 0).
    pub fn from_range(mut min: f32, mut max: f32, dtype: DType) -> Self {
        if min > max {
            std::mem::swap(&mut min, &mut max);
        }
        min = min.min(0.0);
        max = max.max(0.0);
        let (qlo, qhi) = dtype
            .int_range()
            .expect("from_range target must be an integer type");
        let span = (max - min).max(f32::EPSILON);
        let scale = span / (qhi - qlo) as f32;
        let zero_point = (qlo as f32 - min / scale)
            .round()
            .clamp(qlo as f32, qhi as f32) as i32;
        QuantParams { scale, zero_point }
    }

    /// Symmetric per-tensor parameters for weights (`zero_point = 0`).
    pub fn symmetric_from_absmax(absmax: f32, dtype: DType) -> Self {
        let (_, qhi) = dtype
            .int_range()
            .expect("symmetric target must be an integer type");
        let scale = (absmax.max(f32::EPSILON)) / qhi as f32;
        QuantParams {
            scale,
            zero_point: 0,
        }
    }
}

/// `v.round() as i64` — half away from zero, NaN to 0, saturating — without
/// the libm call a baseline x86-64 `round` is: `v` widens exactly to `f64`,
/// where adding ±0.5 is exact below 2^52 and rounds back to `v` above, and
/// the cast truncates toward zero.
#[inline]
pub(crate) fn round_to_i64(v: f32) -> i64 {
    let v = v as f64;
    (v + if v < 0.0 { -0.5 } else { 0.5 }) as i64
}

/// A requantization multiplier in fixed point, as used by integer-only
/// inference runtimes (gemmlowp-style): `real_multiplier = m0 * 2^shift`
/// with `m0` a Q31 value in `[0.5, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointMultiplier {
    /// Q31 significand in `[2^30, 2^31)` (or 0 when the multiplier is 0).
    pub multiplier: i32,
    /// Base-2 exponent applied after the Q31 multiply.
    pub shift: i32,
}

impl FixedPointMultiplier {
    /// Decompose a positive real multiplier into Q31 significand + shift.
    pub fn from_real(real: f64) -> Self {
        assert!(real >= 0.0, "requantize multiplier must be non-negative");
        if real == 0.0 {
            return FixedPointMultiplier {
                multiplier: 0,
                shift: 0,
            };
        }
        let mut shift = 0i32;
        let mut m = real;
        while m < 0.5 {
            m *= 2.0;
            shift -= 1;
        }
        while m >= 1.0 {
            m /= 2.0;
            shift += 1;
        }
        let mut q = (m * (1i64 << 31) as f64).round() as i64;
        if q == (1i64 << 31) {
            q /= 2;
            shift += 1;
        }
        FixedPointMultiplier {
            multiplier: q as i32,
            shift,
        }
    }

    /// Saturating rounding doubling high multiply followed by
    /// rounding-divide-by-power-of-two: `round(x * multiplier * 2^shift)`.
    #[inline]
    pub fn apply(&self, x: i32) -> i32 {
        let v = saturating_rounding_doubling_high_mul(x, self.multiplier);
        rounding_divide_by_pot(v, -self.shift)
    }
}

/// gemmlowp `SaturatingRoundingDoublingHighMul`.
#[inline]
fn saturating_rounding_doubling_high_mul(a: i32, b: i32) -> i32 {
    if a == i32::MIN && b == i32::MIN {
        return i32::MAX;
    }
    let ab = a as i64 * b as i64;
    // The nudge is `2^30` for `ab >= 0` and `1 - 2^30` below, i.e.
    // `2^30 + s - s·2^31` with `s` the sign bit — written as adds and shifts
    // because accumulator signs are data, and a branch on them would be a
    // coin toss.
    let s = (ab as u64 >> 63) as i64;
    (((ab + (1i64 << 30) + s) >> 31) - s) as i32
}

/// gemmlowp `RoundingDivideByPOT` (round-half-away-from-zero).
#[inline]
fn rounding_divide_by_pot(x: i32, exponent: i32) -> i32 {
    if exponent <= 0 {
        // A negative exponent means a left shift (multiplier >= 1).
        return x.checked_shl((-exponent) as u32).unwrap_or(if x >= 0 {
            i32::MAX
        } else {
            i32::MIN
        });
    }
    let mask = (1i64 << exponent) - 1;
    let remainder = (x as i64) & mask;
    let threshold = (mask >> 1) + i64::from(x < 0);
    (x >> exponent).wrapping_add(i32::from(remainder > threshold))
}

/// Requantize a raw i32 accumulator from (`in_params`) to (`out_params`,
/// `out_dtype`), the core of `qnn.requantize`.
pub fn requantize_value(
    acc: i32,
    real_multiplier: FixedPointMultiplier,
    out_zero_point: i32,
    out_dtype: DType,
) -> i32 {
    let (lo, hi) = out_dtype
        .int_range()
        .expect("requantize target must be integer");
    let v = real_multiplier.apply(acc) as i64 + out_zero_point as i64;
    v.clamp(lo as i64, hi as i64) as i32
}

/// [`requantize_value`] of `acc(x[i])` over a block, into storage type `O`
/// — the only ordered step of a quantized reduction. Everything that
/// depends only on the multiplier (the shift direction, the rounding mask,
/// its `i32::MIN` corner) is loop-invariant once `apply` is inlined. Two
/// passes over a few lanes at a time: the fixed-point arithmetic saturating
/// to `i32`, then the saturating narrow to `O`, which on its own is a
/// vector loop.
pub(crate) fn requantize_block<X: Copy, O: IntElem>(
    x: &[X],
    acc: impl Fn(X) -> i32,
    out: &mut [O],
    multiplier: FixedPointMultiplier,
    zero_point: i32,
) {
    const LANES: usize = 32;
    let mut wide = [0i32; LANES];
    for (x, out) in x.chunks(LANES).zip(out.chunks_mut(LANES)) {
        for (w, &q) in wide.iter_mut().zip(x) {
            *w = multiplier.apply(acc(q)).saturating_add(zero_point);
        }
        for (o, &w) in out.iter_mut().zip(&wide) {
            *o = O::narrow(w);
        }
    }
}

/// [`requantize_block`]'s fixed-point step on four `i32` lanes at once, for
/// a packed kernel whose sums are still in a register.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) mod sse2 {
    use super::FixedPointMultiplier;
    use core::arch::x86_64::*;

    /// `multiplier.apply(v).saturating_add(zero_point)` per lane, with every
    /// constant of the multiplier and zero point in a register. The vector
    /// arithmetic covers a positive significand with an exponent that
    /// shifts right by at most 31 — every non-zero multiplier `from_real`
    /// makes below 1 — and other multipliers go lane by lane through
    /// `apply`.
    pub(crate) struct Requantizer {
        multiplier: FixedPointMultiplier,
        zero_point: i32,
        vector: bool,
        /// Whether `saturating_add` can saturate: not once the rounding
        /// shift has halved the range and the zero point is small.
        saturate: bool,
        m: __m128i,
        nudge: __m128i,
        /// What a negative lane adds to the nudge: `1 − 2^30` less `2^30`.
        nudge_neg: __m128i,
        mask: __m128i,
        half: __m128i,
        exponent: __m128i,
        zero: __m128i,
        /// The last lane value `saturating_add` leaves alone, above a
        /// non-negative zero point or below a negative one.
        bound: __m128i,
        limit: __m128i,
    }

    impl Requantizer {
        #[inline]
        #[target_feature(enable = "sse2")]
        pub(crate) fn new(multiplier: FixedPointMultiplier, zero_point: i32) -> Self {
            let (m, exponent) = (multiplier.multiplier, -multiplier.shift);
            let vector = m > 0 && (0..=31).contains(&exponent);
            let small = (-(1 << 30)..(1 << 30)).contains(&zero_point);
            let mask = ((1i64 << exponent.clamp(0, 31)) - 1) as i32;
            let (bound, limit) = if zero_point >= 0 {
                (i32::MAX - zero_point, i32::MAX)
            } else {
                (i32::MIN - zero_point, i32::MIN)
            };
            Requantizer {
                multiplier,
                zero_point,
                vector,
                saturate: exponent < 1 || !small,
                m: _mm_set1_epi32(m),
                nudge: _mm_set1_epi64x(1 << 30),
                nudge_neg: _mm_set1_epi64x(1 - (1 << 31)),
                mask: _mm_set1_epi32(mask),
                half: _mm_set1_epi32(mask >> 1),
                exponent: _mm_cvtsi32_si128(exponent.clamp(0, 31)),
                zero: _mm_set1_epi32(zero_point),
                bound: _mm_set1_epi32(bound),
                limit: _mm_set1_epi32(limit),
            }
        }

        /// The requantized lanes of `v`, saturated to `i32`.
        #[inline]
        #[target_feature(enable = "sse2")]
        pub(crate) fn apply(&self, v: __m128i) -> __m128i {
            if !self.vector {
                let [a, b, c, d] =
                    lanes(v).map(|v| self.multiplier.apply(v).saturating_add(self.zero_point));
                return _mm_setr_epi32(a, b, c, d);
            }
            // `saturating_rounding_doubling_high_mul`: with `u = x + 2^31`
            // as an unsigned lane, `x·m + nudge = u·m + nudge − m·2^31`, so
            // the high half is that of the unsigned product plus the nudge,
            // less `m`. Only bits 31 to 62 of the 64-bit sum are kept, and
            // a logical shift leaves them as an arithmetic one would. Even
            // lanes sit in the low half of each 64-bit lane, odd lanes are
            // shifted there.
            let sign = _mm_srai_epi32::<31>(v);
            let u = _mm_xor_si128(v, _mm_set1_epi32(i32::MIN));
            let even = self.high(_mm_mul_epu32(u, self.m), _mm_shuffle_epi32::<0xA0>(sign));
            let odd = _mm_mul_epu32(_mm_srli_epi64::<32>(u), self.m);
            let odd = self.high(odd, _mm_shuffle_epi32::<0xF5>(sign));
            let high = _mm_set_epi32(-1, 0, -1, 0);
            let v = _mm_or_si128(_mm_andnot_si128(high, even), _mm_slli_epi64::<32>(odd));
            let v = _mm_sub_epi32(v, self.m);
            // `rounding_divide_by_pot`: round half away from zero.
            let threshold = _mm_sub_epi32(self.half, _mm_srai_epi32::<31>(v));
            let up = _mm_cmpgt_epi32(_mm_and_si128(v, self.mask), threshold);
            let v = _mm_sub_epi32(_mm_sra_epi32(v, self.exponent), up);
            let sum = _mm_add_epi32(v, self.zero);
            if !self.saturate {
                return sum;
            }
            // `saturating_add`: only one end can be passed, by the zero
            // point's sign.
            let past = if self.zero_point >= 0 {
                _mm_cmpgt_epi32(v, self.bound)
            } else {
                _mm_cmplt_epi32(v, self.bound)
            };
            _mm_or_si128(_mm_and_si128(past, self.limit), _mm_andnot_si128(past, sum))
        }

        /// Bits 31 to 62 of `product + nudge`, the nudge taken for the
        /// lanes whose 64-bit `sign` is set, in the low half of each 64-bit
        /// lane.
        #[inline]
        #[target_feature(enable = "sse2")]
        fn high(&self, product: __m128i, sign: __m128i) -> __m128i {
            let nudge = _mm_add_epi64(self.nudge, _mm_and_si128(sign, self.nudge_neg));
            _mm_srli_epi64::<31>(_mm_add_epi64(product, nudge))
        }
    }

    /// The four lanes of `v`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn lanes(v: __m128i) -> [i32; 4] {
        [
            _mm_cvtsi128_si32(v),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<0x55>(v)),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<0xAA>(v)),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<0xFF>(v)),
        ]
    }
}

/// Accumulator of a quantized reduction `bias + Σ (x − zx)·(w − zw)`: `i32`
/// when [`fits_i32`] and [`fits_i16`] prove it cannot overflow over
/// half-width operands, `i64` otherwise.
///
/// Integer sums are exact, so the order and grouping of the additions is
/// free and both widths give the same value; only the final [`saturate`] +
/// [`requantize_block`] is ordered.
pub(crate) trait Acc:
    Copy + Send + Sync + From<i32> + TryInto<i32> + PartialOrd + Add<Output = Self> + Mul<Output = Self>
{
}
impl Acc for i32 {}
impl Acc for i64 {}

/// The sum, saturated to the `i32` the requantizer takes.
pub(crate) fn saturate<A: Acc>(acc: A) -> i32 {
    let limit = if acc < A::from(0) { i32::MIN } else { i32::MAX };
    acc.try_into().unwrap_or(limit)
}

/// `max|q − zero|` over the stored range of an operand.
fn spread((lo, hi): (i32, i32), zero: i32) -> i128 {
    let z = zero as i128;
    (lo as i128 - z).abs().max((hi as i128 - z).abs())
}

/// Whether `max|bias| + taps · max|x − zx| · max|w − zw|` — a bound on every
/// partial sum of the reduction, in any order — fits an `i32`, for operands
/// stored in the given `(min, max)` ranges.
pub(crate) fn fits_i32(
    taps: usize,
    (x_range, zx): ((i32, i32), i32),
    (w_range, zw): ((i32, i32), i32),
    bias: Option<&[i32]>,
) -> bool {
    let bias = bias
        .into_iter()
        .flatten()
        .map(|&b| (b as i128).abs())
        .max()
        .unwrap_or(0);
    bias + taps as i128 * spread(x_range, zx) * spread(w_range, zw) <= i32::MAX as i128
}

/// Whether every `q − zero` of an operand stored in `range` fits an `i16`
/// with `i16::MIN` to spare, so a sum of two products of such operands
/// cannot leave `i32`.
pub(crate) fn fits_i16(range: (i32, i32), zero: i32) -> bool {
    spread(range, zero) <= i16::MAX as i128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_dequantize_identity_scale() {
        let qp = QuantParams::new(1.0, 0);
        assert_eq!(qp.quantize(5.0, DType::I8), 5);
        assert_eq!(qp.dequantize(5), 5.0);
    }

    #[test]
    fn quantize_saturates() {
        let qp = QuantParams::new(1.0, 0);
        assert_eq!(qp.quantize(1000.0, DType::I8), 127);
        assert_eq!(qp.quantize(-1000.0, DType::I8), -128);
        assert_eq!(qp.quantize(1000.0, DType::U8), 255);
    }

    #[test]
    fn from_range_covers_zero() {
        let qp = QuantParams::from_range(0.5, 6.0, DType::U8);
        // The range must widen to include zero so zero is exactly representable.
        let zq = qp.quantize(0.0, DType::U8);
        assert!((qp.dequantize(zq)).abs() < qp.scale * 0.51);
        let top = qp.quantize(6.0, DType::U8);
        assert!((qp.dequantize(top) - 6.0).abs() < qp.scale);
    }

    #[test]
    fn symmetric_weights() {
        let qp = QuantParams::symmetric_from_absmax(2.54, DType::I8);
        assert_eq!(qp.zero_point, 0);
        assert!((qp.dequantize(127) - 2.54).abs() < 1e-4);
    }

    #[test]
    fn fixed_point_roundtrip() {
        for real in [0.00037_f64, 0.25, 0.4999, 0.75, 1.0, 1.5, 37.2] {
            let fpm = FixedPointMultiplier::from_real(real);
            let back = fpm.multiplier as f64 / (1i64 << 31) as f64 * 2f64.powi(fpm.shift);
            assert!(
                (back - real).abs() / real < 1e-6,
                "real {real} decomposed to {back}"
            );
        }
    }

    #[test]
    fn fixed_point_apply_matches_float() {
        let fpm = FixedPointMultiplier::from_real(0.007_812_5); // 1/128, exact
        assert_eq!(fpm.apply(1280), 10);
        assert_eq!(fpm.apply(-1280), -10);
        // Rounding: 0.0078125 * 192 = 1.5 rounds away from zero to 2.
        assert_eq!(fpm.apply(192), 2);
    }

    #[test]
    fn requantize_clamps_to_dtype() {
        let fpm = FixedPointMultiplier::from_real(1.0);
        assert_eq!(requantize_value(300, fpm, 0, DType::I8), 127);
        assert_eq!(requantize_value(-300, fpm, 0, DType::I8), -128);
        assert_eq!(requantize_value(100, fpm, 50, DType::U8), 150);
    }

    #[test]
    fn zero_multiplier() {
        let fpm = FixedPointMultiplier::from_real(0.0);
        assert_eq!(fpm.apply(12345), 0);
    }

    /// `round_to_i64` was checked against `f32::round` on all 2^32 bit
    /// patterns when it was written; this keeps the corners in the suite.
    #[test]
    fn round_to_i64_is_round_then_cast() {
        let mut cases = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999997,
            -0.49999997,
            0.50000006,
            8388607.5,
            -8388607.5,
            8388608.0,
            16777216.0,
            4.5e15,
            -4.5e15,
            9.3e18,
            -9.3e18,
            1e30,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut bits = 0x9E37_79B9u32;
        for _ in 0..20_000 {
            bits = bits.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            cases.push(f32::from_bits(bits));
            cases.push((bits >> 8) as f32 / 512.0 - 16_000.0);
        }
        for v in cases {
            assert_eq!(round_to_i64(v), v.round() as i64, "{v:e}");
        }
    }

    /// The packed kernels' four-lane requantizer against `apply` then
    /// `saturating_add`: every multiplier kind (vector, left shift, zero),
    /// the `i32` ends, rounding ties, and both signs of zero point.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn sse2_requantizer_matches_the_scalar_one() {
        use super::sse2::{lanes, Requantizer};
        use core::arch::x86_64::_mm_setr_epi32;
        let mut multipliers: Vec<_> = [
            0.0, 4.7e-10, 1e-6, 0.0004, 0.02, 0.25, 0.3333, 0.4999, 0.5, 0.75, 0.999_999, 1.0, 1.5,
            3.0, 1e5,
        ]
        .into_iter()
        .map(FixedPointMultiplier::from_real)
        .collect();
        multipliers.extend([
            FixedPointMultiplier {
                multiplier: i32::MAX,
                shift: -31,
            },
            FixedPointMultiplier {
                multiplier: 1 << 30,
                shift: 0,
            },
            FixedPointMultiplier {
                multiplier: -7,
                shift: -3,
            },
        ]);
        let mut xs = vec![i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX, i32::MAX - 1];
        for k in [1 << 30, (1 << 30) - 1, (1 << 30) + 1, 1 << 15, 3 << 20] {
            xs.extend([k, -k]);
        }
        let mut bits = 0x2545_F491u32;
        for shift in (0..32).step_by(4) {
            for _ in 0..64 {
                bits = bits.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                xs.push(bits as i32 >> shift);
            }
        }
        while xs.len() % 4 != 0 {
            xs.push(0);
        }
        for m in multipliers {
            for zo in [0, 1, -1, 128, -128, 255, i32::MAX, i32::MIN] {
                // SAFETY: SSE2 is part of every x86_64 target.
                let rq = unsafe { Requantizer::new(m, zo) };
                for x in xs.chunks_exact(4) {
                    // SAFETY: as above.
                    let got = unsafe { lanes(rq.apply(_mm_setr_epi32(x[0], x[1], x[2], x[3]))) };
                    let want = [0, 1, 2, 3].map(|i| m.apply(x[i]).saturating_add(zo));
                    assert_eq!(got, want, "{m:?} zero point {zo} on {x:?}");
                }
            }
        }
    }
}
