//! Offline shim for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! Supports the subset of the proptest 1.x surface used by Concealer's unit
//! tests: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` header), `prop_assert*` / `prop_assume!`,
//! [`any`], integer-range strategies, and
//! [`collection::vec`] / [`collection::btree_map`] / [`collection::btree_set`].
//!
//! Differences from upstream, by design:
//!
//! * cases are generated from a **fixed deterministic seed** per test run
//!   (no persisted failure seeds, no env-var overrides);
//! * failing inputs are **not shrunk** — the panic message reports the
//!   assertion only, so re-run with the deterministic seed to reproduce;
//! * `prop_assume!` skips the offending case without replacement rather
//!   than resampling until the assumption holds.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use arbitrary::any;

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert a condition inside a property test (panics on failure, like a
/// plain `assert!` — the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Skip the current generated case when `cond` does not hold.
///
/// Expands to a `continue` targeting the per-case loop generated by
/// [`proptest!`], so it must appear at the top level of the test body (not
/// inside a nested loop) — which is how Concealer's tests use it.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
    ($cond:expr,) => {
        $crate::prop_assume!($cond)
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }` item
/// becomes a `#[test]` (the attribute is written explicitly inside the
/// block, as with upstream proptest) that runs the body over
/// `ProptestConfig::cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let __config = $cfg;
            // Seed folds in the test name so sibling tests draw distinct
            // streams while staying reproducible run-to-run.
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}
