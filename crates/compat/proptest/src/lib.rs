//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the subset its property tests use: composable [`Strategy`] values
//! (ranges, tuples, [`Just`], [`strategy::Union`], `collection::vec`,
//! [`arbitrary::any`], `.prop_map`) and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_oneof!`] macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its generated inputs (via
//!   the assertion message) but is not minimized.
//! * **Deterministic seeding.** Each test derives its RNG seed from the
//!   test's name, so failures reproduce exactly across runs and `--jobs`
//!   levels.
//! * Unconfigured tests run [`ProptestConfig::default`] (64) cases rather
//!   than upstream's 256, keeping `cargo test` fast on small hosts.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Per-test configuration (subset: case count only).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic test RNG handed to strategies.
#[derive(Clone, Debug)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// Seeds from a test name (FNV-1a), so every test has a stable,
    /// distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(SmallRng::seed_from_u64(h))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A generator of values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Debug)]
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
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + unit * (self.end - self.start)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                // 2^53 mantissa grid; the endpoint is reachable.
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + unit * (hi - lo)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($t:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($t,)+) = self;
                ($($t.generate(rng),)+)
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

/// Strategy combinators referenced by macro expansions.
pub mod strategy {
    use super::{Strategy, TestRng};

    /// Uniform choice between boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Wraps the alternative list.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Boxes a strategy for use in a [`Union`] (monomorphization helper
    /// for `prop_oneof!`).
    pub fn boxed<T, S: Strategy<Value = T> + 'static>(s: S) -> Box<dyn Strategy<Value = T>> {
        Box::new(s)
    }
}

/// `proptest::collection` — sized containers of generated elements.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The result of [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::generate(&self.size, rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::arbitrary` — full-domain generation per type.
pub mod arbitrary {
    use super::{Strategy, TestRng};

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t { rng.next_u64() as $t }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The full-domain strategy for `T` (`any::<T>()`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    /// The result of [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Everything tests import (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident( $($args:tt)* ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $crate::__proptest_bind!{ rng; $($args)* }
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}:\n{}",
                        stringify!($name), case + 1, config.cases, message
                    );
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
}

/// Internal argument binder for [`proptest!`]: accepts both the
/// `arg in strategy` and `arg: Type` (via [`arbitrary::any`]) forms, in any
/// order. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; ) => {};
    ($rng:ident; $arg:ident in $strat:expr) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident; $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!{ $rng; $($rest)* }
    };
    ($rng:ident; $arg:ident : $ty:ty) => {
        let $arg: $ty =
            $crate::Strategy::generate(&$crate::arbitrary::any::<$ty>(), &mut $rng);
    };
    ($rng:ident; $arg:ident : $ty:ty, $($rest:tt)*) => {
        let $arg: $ty =
            $crate::Strategy::generate(&$crate::arbitrary::any::<$ty>(), &mut $rng);
        $crate::__proptest_bind!{ $rng; $($rest)* }
    };
}

/// Property assertion: on failure the current case returns an error
/// (reported with case number) instead of panicking mid-closure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Equality property assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "{}\n  left: {:?}\n right: {:?}",
                ::std::format!($($fmt)+), l, r,
            ));
        }
    }};
}

/// Inequality property assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l,
            ));
        }
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_streams() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds, tuples compose, maps apply.
        #[test]
        fn strategies_compose(
            x in 1u8..32,
            pair in (0u64..100, any::<bool>()),
            v in crate::collection::vec(0usize..8, 0..20),
            mapped in (0u32..10).prop_map(|n| n * 2),
            choice in prop_oneof![Just(1u32), Just(2u32), 5u32..7],
        ) {
            prop_assert!((1..32).contains(&x));
            prop_assert!(pair.0 < 100);
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|&e| e < 8));
            prop_assert_eq!(mapped % 2, 0);
            prop_assert!(choice == 1 || choice == 2 || (5..7).contains(&choice));
        }
    }
}
