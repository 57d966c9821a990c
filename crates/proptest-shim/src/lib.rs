//! Offline shim for the subset of the [`proptest`] API used by this
//! workspace's property tests.
//!
//! The build environment cannot reach crates.io, so the real crate is
//! unavailable; this shim implements the same surface — the [`proptest!`]
//! macro, [`Strategy`](strategy::Strategy) with `prop_map`, range/tuple/collection strategies,
//! [`prop_oneof!`], `any::<T>()`, `prop::sample::Index`, the assertion
//! macros and [`test_runner::Config`] — over a deterministic splitmix64
//! generator. Differences from upstream: no shrinking (a failing case is
//! reported unshrunk), no failure persistence, and a fixed default seed —
//! runs are fully reproducible, so set `PROPTEST_SEED=<u64>` to explore a
//! fresh case set. Swap the path dependency for the registry crate to
//! restore the upstream behaviours.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod test_runner {
    //! Deterministic case generation and test-failure reporting.

    /// Random-number source behind every strategy: splitmix64, seeded from
    //  the test name so each test function explores its own sequence.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// A generator seeded from `tag`, so each test function explores
        /// its own sequence. The default seed is fixed (fully
        /// reproducible runs); set `PROPTEST_SEED=<u64>` to explore a
        /// different case set — without it, repeated CI runs re-test the
        /// same frozen sequence, which reproduces failures but never
        /// widens coverage.
        pub fn deterministic(tag: &str) -> Self {
            // FNV-1a over the tag, folded into a non-zero seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in tag.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            if let Some(seed) = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
            {
                h ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            TestRng(h | 1)
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..n`. `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0, "empty sample range");
            self.next_u64() % n
        }
    }

    /// Per-test configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Accepted for upstream compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
        /// Accepted for upstream compatibility; the shim never rejects
        /// cases, so the limit is never reached.
        pub max_global_rejects: u32,
        /// Accepted for upstream compatibility; the shim prints nothing
        /// beyond the failure report.
        pub verbose: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 1024,
                max_global_rejects: 1024,
                verbose: 0,
            }
        }
    }

    /// Why a generated case failed.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion in the test body failed.
        Fail(String),
        /// The case asked to be discarded (unused by this workspace).
        Reject(String),
    }

    impl TestCaseError {
        /// A failed assertion with `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejected (discarded) case.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    /// Helper used by [`prop_oneof!`](crate::prop_oneof) to unify arm types.
    pub fn boxed_strategy<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

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

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A value drawn verbatim every time.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64) - (lo as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    /// Weighted choice between type-erased arms
    /// (built by [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
    }

    impl<V> std::fmt::Debug for Union<V> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Union")
                .field("arms", &self.arms.len())
                .finish()
        }
    }

    impl<V> Union<V> {
        /// A union of `(weight, strategy)` arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total: u64 = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one weighted arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let total: u64 = self.arms.iter().map(|&(w, _)| w as u64).sum();
            let mut pick = rng.below(total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — canonical strategies per type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(std::marker::PhantomData)
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive range of collection sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Generates `Vec`s whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling helpers (`prop::sample::Index`).

    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// An index into a slice whose length is only known at use site.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(usize);

    impl Index {
        /// This index reduced to `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on an empty collection");
            self.0 % len
        }

        /// The element of `slice` this index selects.
        ///
        /// # Panics
        ///
        /// Panics if `slice` is empty.
        pub fn get<'a, T>(&self, slice: &'a [T]) -> &'a T {
            &slice[self.index(slice.len())]
        }
    }

    impl Arbitrary for Index {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            Index(rng.next_u64() as usize)
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Module alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the upstream forms used in this workspace: an optional leading
/// `#![proptest_config(expr)]`, then any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest case {case} of {} failed: {e}\n(inputs: {})",
                        stringify!($name),
                        stringify!($($arg),+),
                    );
                }
            }
        }
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr);) => {};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()); $($rest)*);
    };
}

/// `assert!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// `assert_ne!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed_strategy($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed_strategy($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let v = (3u32..7).generate(&mut rng);
            assert!((3..7).contains(&v));
            let w = (1u64..=4).generate(&mut rng);
            assert!((1..=4).contains(&w));
        }
    }

    #[test]
    fn vec_sizes_respect_range() {
        let mut rng = crate::test_runner::TestRng::deterministic("vec");
        for _ in 0..200 {
            let v = prop::collection::vec(0u8..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let fixed = prop::collection::vec(any::<u8>(), 16).generate(&mut rng);
        assert_eq!(fixed.len(), 16);
    }

    #[test]
    fn union_honours_weights_roughly() {
        let mut rng = crate::test_runner::TestRng::deterministic("union");
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let trues = (0..1000).filter(|_| s.generate(&mut rng)).count();
        assert!(trues > 800, "expected ~900 trues, got {trues}");
    }

    #[test]
    fn index_selects_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("index");
        let data = [10, 20, 30];
        for _ in 0..100 {
            let idx = any::<prop::sample::Index>().generate(&mut rng);
            assert!(data.contains(idx.get(&data)));
        }
    }

    proptest! {
        #[test]
        fn macro_generates_cases(x in 0u8..16, v in prop::collection::vec(0u32..4, 0..3)) {
            prop_assert!(x < 16);
            prop_assert!(v.len() < 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn config_is_respected(pair in ((0u16..3), (0u16..3))) {
            prop_assert!(pair.0 < 3 && pair.1 < 3);
        }
    }
}
