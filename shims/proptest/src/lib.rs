//! Offline shim for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace ships
//! a minimal property-testing engine exposing the subset of proptest's API
//! that the workspace's property tests use:
//!
//! - [`Strategy`] with `prop_map`/`boxed`, [`any`], integer ranges,
//!   tuples, [`collection::vec()`], [`strategy::Just`] and the [`prop_oneof!`] macro;
//! - the [`proptest!`] macro generating `#[test]` functions that run a
//!   configurable number of random cases ([`ProptestConfig::with_cases`]);
//! - [`prop_assert!`]/[`prop_assert_eq!`] returning
//!   [`test_runner::TestCaseError`].
//!
//! Differences from real proptest: **no shrinking** (failures print the
//! full generated inputs instead), no persistence files, and a fixed
//! deterministic seed derived from the test name so failures reproduce.

use std::fmt::Debug;

pub mod test_runner {
    //! Case execution plumbing used by the generated tests.

    /// A failed property case.
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Creates a failure with a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }

        /// The failure message.
        pub fn message(&self) -> &str {
            &self.0
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Result type of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic SplitMix64 generator seeding each test from its name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name (stable across runs).
        pub fn deterministic(name: &str) -> TestRng {
            let mut h = 0xcbf29ce484222325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "empty draw");
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

pub mod strategy {
    //! Value-generation strategies (no shrinking).

    use super::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Generates random values of an associated type.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Types with a canonical uniform strategy (see [`super::any`]).
    pub trait Arbitrary: Debug + Sized {
        /// Draws a uniformly distributed value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy produced by [`super::any`].
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    assert!(span > 0, "empty range strategy");
                    self.start + ((rng.next_u64() as u128 * span) >> 64) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($n:ident . $idx:tt),+ )),+ $(;)?) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy!(
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
        (A.0, B.1, C.2, D.3, E.4, F.5)
    );

    /// Weighted union used by [`prop_oneof!`](crate::prop_oneof).
    pub struct OneOf<T> {
        choices: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T: Debug> OneOf<T> {
        /// Builds from `(weight, strategy)` pairs.
        pub fn new(choices: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
            let total = choices.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one weighted arm");
            OneOf { choices, total }
        }
    }

    impl<T: Debug> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.choices {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

/// The canonical strategy for `T` (uniform over the whole domain).
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::fmt::Debug;

    /// Element-count bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.end > r.start, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy yielding `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{any, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Builds a weighted union of strategies: `prop_oneof![s1, s2]` or
/// `prop_oneof![3 => s1, 1 => s2]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fails the current case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares property tests. Each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running [`ProptestConfig::cases`] random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // Eagerly rendered so the body may move the inputs.
                let mut shown = ::std::string::String::new();
                $(shown.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}: {}\ninputs:\n{}",
                        stringify!($name), case + 1, config.cases, e, shown
                    );
                }
            }
        }
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
}

/// Re-exported so fully-qualified `proptest::strategy::Strategy` paths work.
pub use strategy::Strategy;

// Debug is re-exported indirectly through generated format!(); keep the
// import referenced so it is not flagged as unused.
#[allow(unused_imports)]
use Debug as _Debug;

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Put(u16, Vec<u8>),
        Del(u16),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (any::<u16>(), collection::vec(any::<u8>(), 0..16)).prop_map(|(k, v)| Op::Put(k, v)),
            1 => any::<u16>().prop_map(Op::Del),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_in_range(v in collection::vec(any::<u8>(), 3..7)) {
            prop_assert!(v.len() >= 3 && v.len() < 7, "len = {}", v.len());
        }

        /// Doc comments on property tests must parse.
        #[test]
        fn ranges_respect_bounds(x in 64usize..1024) {
            prop_assert!((64..1024).contains(&x));
            if x == 64 {
                return Ok(());
            }
            prop_assert!(x > 64);
        }

        #[test]
        fn oneof_generates_both_arms(ops in collection::vec(op(), 32..64)) {
            let puts = ops.iter().filter(|o| matches!(o, Op::Put(..))).count();
            prop_assert!(puts > 0, "no puts in {ops:?}");
            prop_assert_eq!(ops.len(), ops.len());
        }
    }

    #[test]
    fn deterministic_rng_is_stable() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
