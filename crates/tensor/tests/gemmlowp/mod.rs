//! gemmlowp's fixed-point requantization and TFLite's multiplier
//! decomposition, written from their definitions (`fixedpoint.h`,
//! `QuantizeMultiplier`) in `i128` with Rust's truncating `/`. Nothing here
//! uses `tvmnp_tensor::quant`: it is the reference that code is held to.

#![allow(dead_code)] // each test binary uses its own part

/// `SaturatingRoundingDoublingHighMul(a, b)`: `(ab + nudge) / 2^31`, the
/// nudge `2^30` for `ab >= 0` and `1 − 2^30` below.
pub fn doubling_high_mul(a: i32, b: i32) -> i32 {
    if a == i32::MIN && b == i32::MIN {
        return i32::MAX;
    }
    let ab = a as i128 * b as i128;
    let nudge = if ab >= 0 { 1 << 30 } else { 1 - (1 << 30) };
    ((ab + nudge) / (1 << 31)) as i32
}

/// `RoundingDivideByPOT(x, exponent)`: `x / 2^exponent` rounded half away
/// from zero. A negative exponent multiplies by `2^−exponent`, saturating
/// to `i32`.
pub fn divide_by_pot(x: i32, exponent: i32) -> i32 {
    let x = x as i128;
    let places = exponent.unsigned_abs().min(64);
    let v = if exponent >= 0 {
        let d = 1i128 << places;
        let (q, r) = (x / d, x % d);
        if 2 * r.abs() >= d {
            q + x.signum()
        } else {
            q
        }
    } else {
        x << places
    };
    v.clamp(i32::MIN as i128, i32::MAX as i128) as i32
}

/// `round(x · multiplier · 2^(shift − 31))`: the doubling high multiply,
/// then the rounding shift.
pub fn apply(x: i32, multiplier: i32, shift: i32) -> i32 {
    divide_by_pot(doubling_high_mul(x, multiplier), -shift)
}

/// [`apply`] plus the zero point, clamped to `[lo, hi]`.
pub fn requantize(
    acc: i32,
    (multiplier, shift): (i32, i32),
    zero: i32,
    (lo, hi): (i32, i32),
) -> i32 {
    let v = apply(acc, multiplier, shift) as i128 + zero as i128;
    v.clamp(lo as i128, hi as i128) as i32
}

/// TFLite `QuantizeMultiplier` for a positive normal `real`: `frexp` gives
/// `real = q · 2^shift` with `q` in `[0.5, 1)`, the significand is
/// `round(q · 2^31)`, and one that rounds up to `2^31` is halved with the
/// shift one up. Zero is `(0, 0)`.
pub fn quantize_multiplier(real: f64) -> (i32, i32) {
    if real == 0.0 {
        return (0, 0);
    }
    // `frexp` from the bits: the biased exponent of `[0.5, 1)` is 1022.
    let bits = real.to_bits();
    let mut shift = ((bits >> 52) & 0x7ff) as i32 - 1022;
    let q = f64::from_bits((bits & !(0x7ff << 52)) | (1022 << 52));
    let mut fixed = (q * (1u64 << 31) as f64).round() as i64;
    if fixed == 1 << 31 {
        fixed /= 2;
        shift += 1;
    }
    (fixed as i32, shift)
}
