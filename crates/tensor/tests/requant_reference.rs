//! Requantization against gemmlowp's definition (`gemmlowp/mod.rs`), which
//! shares no code with `tvmnp_tensor::quant`: the one-value `apply` and
//! `requantize_value`, the block requantizer behind `kernels::requantize`,
//! and `FixedPointMultiplier::from_real` against TFLite's
//! `QuantizeMultiplier`. (The packed kernels' four-lane requantizer is
//! held to `apply` by the `quant` unit test and by `kernel_identity`.)

mod gemmlowp;

use tvmnp_tensor::kernels;
use tvmnp_tensor::quant::{requantize_value, FixedPointMultiplier};
use tvmnp_tensor::{DType, QuantParams, Tensor};

/// A splitmix64 stream.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The `i32` ends, the rounding ties of the doubling multiply, and the
/// powers of two with their neighbours.
fn edges() -> Vec<i32> {
    let mut xs = vec![i32::MIN, i32::MIN + 1, i32::MAX - 1, i32::MAX];
    for k in 0..31 {
        let p = 1i32 << k;
        xs.extend([p, p - 1, p + 1, -p, 1 - p, -p - 1]);
    }
    xs.extend([
        3 << 29,
        -(3 << 29),
        (1 << 30) + (1 << 29),
        -(1 << 30) - (1 << 29),
    ]);
    xs
}

/// The significands `from_real` makes for reals in `[2^-32, 2)`: every
/// octave, at its start, its end (which carries into the next octave) and
/// points between.
fn reals() -> Vec<f64> {
    let mut out = Vec::new();
    for e in -32..=0 {
        let base = 2f64.powi(e);
        for frac in [
            1.0,
            1.0 + 2f64.powi(-40),
            1.1,
            4.0 / 3.0,
            1.5,
            1.999,
            2.0 - 2f64.powi(-33),
        ] {
            out.push(base * frac);
        }
    }
    out
}

fn check_apply(m: FixedPointMultiplier, x: i32) {
    let want = gemmlowp::apply(x, m.multiplier, m.shift);
    assert_eq!(m.apply(x), want, "{m:?} applied to {x}");
}

/// The case the flooring multiply got wrong: a half-step below zero
/// rounds to 0, as gemmlowp's truncating division gives.
#[test]
fn a_negative_half_step_rounds_to_zero() {
    let m = FixedPointMultiplier {
        multiplier: 1 << 30,
        shift: 0,
    };
    assert_eq!(m.apply(-1), 0);
    assert_eq!(gemmlowp::apply(-1, 1 << 30, 0), 0);
    // And one below a tie stays below it.
    assert_eq!(m.apply(-3), -1);
    assert_eq!(m.apply(-4), -2);
}

/// Every edge value, under every shift from −31 to 31, for the significand
/// ends and the significands `from_real` makes.
#[test]
fn apply_matches_gemmlowp_on_every_edge_and_shift() {
    let mut significands = vec![0, 1, 1 << 30, (1 << 30) + 1, 3 << 29, i32::MAX];
    significands.extend(
        reals()
            .into_iter()
            .map(|r| FixedPointMultiplier::from_real(r).multiplier),
    );
    significands.sort_unstable();
    significands.dedup();
    let xs = edges();
    for &multiplier in &significands {
        for shift in -31..=31 {
            let m = FixedPointMultiplier { multiplier, shift };
            for &x in &xs {
                check_apply(m, x);
            }
        }
    }
}

/// `from_real` is TFLite's `QuantizeMultiplier` over `[2^-32, 2)`, carry
/// included, and its multipliers requantize every edge as gemmlowp does.
#[test]
fn from_real_matches_quantize_multiplier() {
    let xs = edges();
    let mut carried = 0;
    for real in reals() {
        let m = FixedPointMultiplier::from_real(real);
        let (multiplier, shift) = gemmlowp::quantize_multiplier(real);
        assert_eq!(
            (m.multiplier, m.shift),
            (multiplier, shift),
            "from_real({real:e})"
        );
        assert!(
            (-31..=2).contains(&m.shift),
            "from_real({real:e}) shifts {}",
            m.shift
        );
        carried += usize::from(multiplier == 1 << 30 && real.log2().fract() != 0.0);
        for &x in &xs {
            check_apply(m, x);
        }
    }
    assert!(carried > 0, "no real exercised the carry to 2^30");
    assert_eq!(FixedPointMultiplier::from_real(0.0).apply(i32::MAX), 0);
}

/// 10^6 seeded (value, significand, shift) triples, and `requantize_value`
/// on each into the three integer dtypes.
#[test]
fn apply_matches_gemmlowp_on_seeded_pairs() {
    let mut rng = Seeded(0x5EED_CAFE);
    let dtypes = [
        (DType::I8, (-128, 127)),
        (DType::U8, (0, 255)),
        (DType::I32, (i32::MIN, i32::MAX)),
    ];
    for i in 0..1_000_000u32 {
        let bits = rng.next();
        // Narrow now and then, so small accumulators (and ties) are common.
        let x = (bits as i32) >> (bits >> 59);
        let multiplier = ((bits >> 32) as i32) & i32::MAX;
        let shift = ((bits >> 40) % 63) as i32 - 31;
        let m = FixedPointMultiplier { multiplier, shift };
        check_apply(m, x);
        let (dtype, range) = dtypes[i as usize % 3];
        let zero = ((bits >> 48) as i32 & 0xff) - 128;
        assert_eq!(
            requantize_value(x, m, zero, dtype),
            gemmlowp::requantize(x, (multiplier, shift), zero, range),
            "{m:?} requantizing {x} to {dtype} at zero point {zero}"
        );
    }
}

/// `kernels::requantize` — the block requantizer — on the edges and on
/// seeded accumulators, for multipliers both sides of 1.
#[test]
fn the_block_requantizer_matches_gemmlowp() {
    let mut rng = Seeded(0xB10C);
    let mut accs = edges();
    accs.extend((0..4096).map(|_| rng.next() as i32 >> (rng.next() % 24)));
    let x = Tensor::from_i32([accs.len()], accs.clone(), None).unwrap();
    for (s_in, s_out) in [
        (0.05f32, 0.07f32),
        (0.001, 1.7),
        (1.0, 1.0),
        (37.2, 0.4),
        (1e-9, 1.0),
    ] {
        for (zero, dtype, range) in [(3, DType::U8, (0, 255)), (-5, DType::I8, (-128, 127))] {
            let in_q = QuantParams::new(s_in, 0);
            let out_q = QuantParams::new(s_out, zero);
            let m = FixedPointMultiplier::from_real(s_in as f64 / s_out as f64);
            let got = kernels::requantize(&x, in_q, out_q, dtype).unwrap();
            let want: Vec<i32> = (accs.iter())
                .map(|&a| gemmlowp::requantize(a, (m.multiplier, m.shift), zero, range))
                .collect();
            assert_eq!(
                got.iter_int().collect::<Vec<_>>(),
                want,
                "{s_in}/{s_out} {dtype}"
            );
        }
    }
}
