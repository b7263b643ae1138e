//! Offline drop-in subset of the `proptest` crate.
//!
//! Implements the slice of proptest's API this workspace's property tests
//! use: the [`proptest!`] macro, range/tuple/`any`/vec strategies, the
//! `prop_assert_*` macros, and `prop_assume!`. Differences from upstream:
//!
//! * **Deterministic cases.** Each test function derives its case RNG from
//!   a fixed seed and the case index — no env-dependent entropy, so a
//!   failing case reproduces unconditionally. (Upstream persists failing
//!   seeds to a regressions file instead.)
//! * **No shrinking.** A failing case reports its values via `Debug` in
//!   the assertion message where the test supplies one.

#![forbid(unsafe_code)]

/// Deterministic per-case random source (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator for one test case.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, bound)`; panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Test-runner configuration.
pub mod test_runner {
    /// How many cases each property runs (upstream `proptest::test_runner::Config`).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 64 }
        }
    }
}

/// Generation strategies.
pub mod strategy {
    use super::TestRng;

    /// A value generator (upstream `proptest::strategy::Strategy`, minus
    /// shrinking).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "the draw is below `end - start`, so it fits `$t`; an `expect` \
                              would go unfulfilled in the u64 expansion"
                )]
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }

    int_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range");
            let v = self.start + rng.unit_f64() * (self.end - self.start);
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

/// Whole-type generation ([`any`]).
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "keeping the low bits of a uniform u64 is a uniform `$t`; an \
                              `expect` would go unfulfilled in the u64 expansion"
                )]
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeping the low byte of a uniform u64 is a uniform u8"
        )]
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in &mut out {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }

    /// Strategy over a type's full value range.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T> {
        _marker: core::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T` (upstream `proptest::prelude::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy for `Vec<T>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// Generates vectors whose length is uniform in `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy {
            element,
            lo: len.start,
            hi: len.end - 1,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the draw is at most `hi - lo`, a usize"
        )]
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Upstream-compatible `prop::` paths (`prop::collection::vec`, ...).
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Sentinel message marking a rejected (assumed-away) case.
#[doc(hidden)]
pub const REJECT_SENTINEL: &str = "__proptest_compat_reject__";

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} != {:?}", a, b);
    }};
}

/// Discards the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::REJECT_SENTINEL.to_string());
        }
    };
}

/// Declares property tests (upstream `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (@impl $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                // Stable per-test seed: the function name hashed FNV-1a.
                let mut seed = 0xcbf2_9ce4_8422_2325u64;
                for b in stringify!($name).bytes() {
                    seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                let mut rejected = 0u32;
                let mut case = 0u32;
                while case < config.cases {
                    let mut proptest_rng =
                        $crate::TestRng::new(seed ^ ((case as u64 + rejected as u64) << 32));
                    $(let $arg = $crate::strategy::Strategy::sample(&$strat, &mut proptest_rng);)+
                    let outcome: ::core::result::Result<(), String> = (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match outcome {
                        Ok(()) => case += 1,
                        Err(e) if e == $crate::REJECT_SENTINEL => {
                            rejected += 1;
                            assert!(
                                rejected < 1_000,
                                "{}: too many rejected cases (prop_assume)",
                                stringify!($name)
                            );
                        }
                        Err(e) => panic!("{} failed at case {case}: {e}", stringify!($name)),
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl $crate::test_runner::Config::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(x in 3u32..10, v in prop::collection::vec(0u64..5, 1..8)) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn assume_rejects(n in 0u64..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    fn runs_the_generated_tests() {
        ranges_and_vecs();
        assume_rejects();
    }
}
