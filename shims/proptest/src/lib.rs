//! Minimal proptest shim (see `shims/README.md`).
//!
//! Runs each property as `cases` deterministic random trials seeded from
//! the test's name, so failures reproduce exactly across runs. Failing
//! inputs are printed in full; there is no shrinking — with seeded,
//! moderately sized strategies the raw counterexample is already small.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Per-property configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` trials.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Failure of a single test case (produced by `prop_assert!`).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// A failed case with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic generator for one named test.
pub fn test_rng(test_name: &str) -> SmallRng {
    // FNV-1a over the name — stable across runs and platforms.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    SmallRng::seed_from_u64(h)
}

/// A value generator (shrinking-free analogue of `proptest::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{SmallRng, Strategy};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec`] (proptest's `SizeRange`).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: r.end() + 1,
            }
        }
    }

    /// `Vec` strategy: length drawn from `size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything tests import, mirroring `proptest::prelude`.
pub mod prelude {
    /// Alias so `prop::collection::vec(...)` resolves, as with real
    /// proptest's prelude.
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Property-test entry point; see the crate docs for the differences from
/// real proptest (fixed seed, no shrinking). As with real proptest, each
/// property carries its own `#[test]`: the macro adds none.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                let mut desc = ::std::string::String::new();
                $(
                    desc.push_str(&format!("\n  {} = {:?}", stringify!($arg), &$arg));
                )*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest '{}' failed at case {}/{}: {}\ninputs:{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e,
                        desc
                    );
                }
            }
        }
    )*};
}

/// `assert!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// `assert_ne!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Ranges stay in bounds; vec lengths respect the size range.
        #[test]
        fn generated_values_in_bounds(
            xs in prop::collection::vec(0u8..=255, 1..16),
            n in 0u64..10_000,
            f in (-1000i32..1000).prop_map(|v| v as f32 / 10.0),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 16);
            prop_assert!(n < 10_000);
            prop_assert!((-100.0..100.0).contains(&f));
        }
    }

    thread_local! {
        static CASES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]
        /// No `#[test]`: a plain function the tests below call.
        fn counted(n in 0u8..4) {
            CASES.with(|c| c.set(c.get() + 1));
            prop_assert!(n < 4);
        }

        /// Fails on its first case.
        fn fails_at_once(n in 5u32..6) {
            prop_assert!(n < 5, "n is {}", n);
        }
    }

    /// The macro adds no `#[test]`: a property without one is a plain
    /// function, and a call runs its configured number of cases.
    #[test]
    fn a_property_without_test_runs_its_cases_when_called() {
        CASES.with(|c| c.set(0));
        counted();
        assert_eq!(CASES.with(|c| c.get()), 17);
    }

    #[test]
    fn a_failing_case_reports_its_number_and_inputs() {
        let err = std::panic::catch_unwind(fails_at_once).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("proptest 'fails_at_once' failed at case 1/17: n is 5")
                && msg.contains("n = 5"),
            "{msg}"
        );
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = crate::test_rng("alpha");
        let mut b = crate::test_rng("alpha");
        let s = 0u64..100;
        for _ in 0..10 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
