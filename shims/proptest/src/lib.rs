//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The real proptest crate cannot be vendored in this offline environment. This shim
//! keeps the same testing shape — [`Strategy`] values sampled per case, the
//! [`proptest!`] macro generating `#[test]` functions, [`prop_assume!`] rejecting cases
//! and [`prop_assert!`]/[`prop_assert_eq!`] failing them — but drops shrinking: a failing
//! case reports its values (via the assertion message) without minimization. Sampling is
//! deterministic per test function (the RNG is seeded from the test name), so failures
//! reproduce across runs.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// The per-test deterministic random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates a generator seeded from the test name, so every test has a distinct but
    /// reproducible stream.
    pub fn deterministic(test_name: &str) -> Self {
        // FNV-1a over the name.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in test_name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self(StdRng::seed_from_u64(hash))
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was rejected by [`prop_assume!`]; the runner draws a fresh one.
    Reject,
    /// An assertion failed; the runner panics with this message.
    Fail(String),
}

/// Runner configuration (subset of proptest's `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A recipe for generating random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Builds a dependent strategy from each sampled value (e.g. pick a dimension, then
    /// vectors of that dimension).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Maps each sampled value through a function.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let intermediate = self.inner.sample(rng);
        (self.f)(intermediate).sample(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f32, f64, usize, u64, u32, i64, i32);

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

/// A constant "strategy" wrapping an already-known value (the `Just` of proptest).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Sizes accepted by [`vec()`]: a fixed length or a half-open range of lengths.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.0.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// The strategy type returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a test module needs: traits, config, and the macros.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Rejects the current case (the runner draws a fresh one) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        // `match` instead of `if !cond` keeps clippy's neg_cmp_op_on_partial_ord quiet
        // at every expansion site (float comparisons are the common case here).
        match $cond {
            true => {}
            false => return ::std::result::Result::Err($crate::TestCaseError::Reject),
        }
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        match $cond {
            true => {}
            false => {
                return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                    "assertion failed: {}",
                    stringify!($cond)
                )))
            }
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        match $cond {
            true => {}
            false => {
                return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                    $($fmt)*
                )))
            }
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                left,
                right
            )));
        }
    }};
}

/// Declares property tests: each function samples its arguments from the given
/// strategies and runs the body for the configured number of accepted cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = config.cases.saturating_mul(50).max(2_000);
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "proptest shim: too many cases rejected by prop_assume \
                     ({accepted}/{} accepted after {attempts} attempts)",
                    config.cases
                );
                let ($($pat,)+) = ($($crate::Strategy::sample(&($strategy), &mut rng),)+);
                let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(message)) => {
                        panic!("proptest case #{accepted} failed: {message}");
                    }
                }
            }
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_sample_in_bounds() {
        let mut rng = super::TestRng::deterministic("bounds");
        for _ in 0..500 {
            let f = (0.5f32..2.0).sample(&mut rng);
            assert!((0.5..2.0).contains(&f));
            let v = collection::vec(-1.0f64..1.0, 3..7).sample(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
            let (a, b) = ((0usize..4), (10u32..12)).sample(&mut rng);
            assert!(a < 4 && (10..12).contains(&b));
        }
    }

    #[test]
    fn flat_map_feeds_dependent_strategies() {
        let strategy = (2usize..5).prop_flat_map(|n| collection::vec(0.0f32..1.0, n));
        let mut rng = super::TestRng::deterministic("flat_map");
        for _ in 0..100 {
            let v = strategy.sample(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_working_tests(x in 0.0f32..1.0, n in 1usize..5) {
            prop_assume!(x > 0.01);
            prop_assert!(x < 1.0, "x was {}", x);
            prop_assert_eq!(n * 2 / 2, n);
        }
    }
}
