//! Timing at a reference core speed.
//!
//! The runner's cores alternate between two clock speeds about 1.3x apart,
//! for seconds to minutes at a time (README.md, "Noise study"): the same
//! code, measured on the wall clock, reads 20–25 % apart in two runs that
//! each fell wholly inside one phase, and nothing inside a run can tell
//! which phase it saw. So every timed call is bracketed by a short
//! calibration spin — a dependent multiply chain whose cost in core cycles
//! is fixed — and its duration is also reported *at the reference speed*:
//! scaled by how fast the spin ran beside it. What the guest cannot count
//! (cycles), it estimates.

use std::time::Instant;

/// Iterations of one calibration spin (~60 µs).
const SPIN_ITERS: u64 = 50_000;
/// The reference speed: the spin takes this long. A convention, not a
/// measurement — 1.2 ns per iteration, the faster of this runner's two
/// phases — so that reference-speed times read like this runner's best
/// wall-clock times. Changing it rescales every time metric.
const SPIN_REF_NS: f64 = 60_000.0;
/// The spins before and after a call must agree this closely for the
/// speed to count as steady during the call.
const STEADY_WITHIN: f64 = 0.05;

/// The calibration loop: `iters` steps of a dependent xor-multiply-rotate
/// chain, so its cost is latency-bound — a fixed number of core cycles
/// that neither an SMT sibling nor the memory system changes. Returns ns.
pub fn spin(iters: u64) -> u64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = (x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(23);
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as u64
}

/// Floor of two spins, ns. Two short spins rather than one long: an
/// interrupt lands in at most one.
fn spin_ns() -> u64 {
    spin(SPIN_ITERS).min(spin(SPIN_ITERS))
}

/// One timed call: its wall time and the spins around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub ns: u64,
    spin_before_ns: u64,
    spin_after_ns: u64,
}

impl Timed {
    pub fn new(ns: u64, spin_before_ns: u64, spin_after_ns: u64) -> Timed {
        Timed {
            ns,
            spin_before_ns,
            spin_after_ns,
        }
    }

    /// Whether the core speed was the same before and after the call.
    pub fn steady(&self) -> bool {
        let (lo, hi) = (
            self.spin_before_ns.min(self.spin_after_ns) as f64,
            self.spin_before_ns.max(self.spin_after_ns) as f64,
        );
        hi <= lo * (1.0 + STEADY_WITHIN)
    }

    /// The call's duration at the reference speed, ns.
    pub fn ref_ns(&self) -> f64 {
        let spin = (self.spin_before_ns + self.spin_after_ns) as f64 / 2.0;
        self.ns as f64 * SPIN_REF_NS / spin
    }
}

/// Time `f` between two spins.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let spin_before_ns = spin_ns();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    (r, Timed::new(ns, spin_before_ns, spin_ns()))
}

/// Floor of the samples at the reference speed, ns: over the steady
/// samples, or over all of them when the speed never held still.
pub fn ref_floor_ns(samples: impl Iterator<Item = Timed> + Clone) -> Option<f64> {
    let floor = |it: &mut dyn Iterator<Item = Timed>| it.map(|t| t.ref_ns()).min_by(f64::total_cmp);
    floor(&mut samples.clone().filter(Timed::steady)).or_else(|| floor(&mut samples.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_work_reads_the_same_at_either_speed() {
        // 1 ms of work at the reference speed; 1.29 ms when the core (and
        // with it the spin) runs 1.29x slower.
        let fast = Timed::new(1_000_000, 60_000, 60_000);
        let slow = Timed::new(1_290_000, 77_400, 77_400);
        assert_eq!(fast.ref_ns(), 1_000_000.0);
        assert!((slow.ref_ns() - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn a_call_that_straddles_a_speed_change_is_not_steady() {
        assert!(Timed::new(1, 60_000, 62_900).steady());
        assert!(!Timed::new(1, 60_000, 77_400).steady());
        assert!(!Timed::new(1, 77_400, 60_000).steady());
    }

    #[test]
    fn the_floor_prefers_steady_samples_and_falls_back_to_all() {
        let steady = Timed::new(2_000_000, 60_000, 60_000);
        // Unsteady and misleadingly cheap once scaled.
        let straddler = Timed::new(1_000_000, 60_000, 77_400);
        assert_eq!(
            ref_floor_ns([steady, straddler].into_iter()),
            Some(2_000_000.0)
        );
        assert_eq!(
            ref_floor_ns([straddler].into_iter()),
            Some(straddler.ref_ns())
        );
        assert_eq!(ref_floor_ns(std::iter::empty()), None);
    }

    #[test]
    fn timed_brackets_the_call_with_spins() {
        let (v, t) = timed(|| std::hint::black_box(7));
        assert_eq!(v, 7);
        assert!(t.spin_before_ns > 0 && t.spin_after_ns > 0 && t.ref_ns() > 0.0);
    }
}
