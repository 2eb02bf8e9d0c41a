//! Seeded property testing with bounded shrinking (the workspace's
//! `proptest` replacement).
//!
//! A property test draws `cases` random inputs from a [`Strategy`], runs
//! the body on each, and on failure greedily shrinks the input before
//! panicking with the failing seed and the shrunk input. Runs are fully
//! deterministic: every suite has a fixed default seed, overridable with
//! `TROUT_PROPTEST_SEED` (and `TROUT_PROPTEST_CASES` for the case count).
//! The failure message names the exact seed that reproduces the case.
//!
//! ```ignore
//! proptest_lite! {
//!     #[cases(256)]
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

use crate::rng::SplitMix64;
use std::panic::{self, AssertUnwindSafe};

/// Default number of cases when `#[cases(..)]` is omitted.
pub const DEFAULT_CASES: u32 = 256;

/// Default base seed for every suite (override with `TROUT_PROPTEST_SEED`).
pub const DEFAULT_SEED: u64 = 0x7260_7574_7465_7374; // "trouttest"

/// Upper bound on shrink candidates evaluated per failure.
const MAX_SHRINK_STEPS: usize = 512;

/// Outcome of a single test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// The property does not hold for this input.
    Fail(String),
    /// The input does not satisfy a `prop_assume!` precondition; the case
    /// is skipped without counting as a failure.
    Reject,
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Result type of a property body.
pub type CaseResult = Result<(), TestCaseError>;

/// A generator of random test inputs with optional shrinking.
///
/// `shrink` returns candidate simplifications of a failing value, simplest
/// first; every candidate must stay inside the strategy's domain so
/// shrinking never manufactures inputs the generator could not produce.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value;

    /// Candidate simplifications of `value` (may be empty).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

macro_rules! impl_int_range_strategy {
    ($($ty:ty),+) => {
        $(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut SplitMix64) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128) - (self.start as i128);
                    let off = rng.next_below(span as u64) as i128;
                    ((self.start as i128) + off) as $ty
                }

                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    let mut out = Vec::new();
                    let lo = self.start;
                    let v = *value;
                    if v > lo {
                        out.push(lo);
                        let mid = lo + (v - lo) / 2;
                        if mid != lo && mid != v {
                            out.push(mid);
                        }
                        if v - 1 != lo && (out.is_empty() || *out.last().unwrap() != v - 1) {
                            out.push(v - 1);
                        }
                    }
                    out
                }
            }

            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut SplitMix64) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128) - (lo as i128) + 1;
                    let off = rng.next_below(span as u64) as i128;
                    ((lo as i128) + off) as $ty
                }

                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    (*self.start()..value.wrapping_add(1).max(*value)).shrink(value)
                }
            }
        )+
    };
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

macro_rules! impl_float_range_strategy {
    ($($ty:ty),+) => {
        $(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;

                fn generate(&self, rng: &mut SplitMix64) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * (rng.next_f64() as $ty)
                }

                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    let lo = self.start;
                    let v = *value;
                    let mut out = Vec::new();
                    if v > lo {
                        out.push(lo);
                        let mid = lo + (v - lo) / 2.0;
                        if mid > lo && mid < v {
                            out.push(mid);
                        }
                    }
                    out
                }
            }
        )+
    };
}

impl_float_range_strategy!(f32, f64);

/// A strategy that always yields the same value.
#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SplitMix64) -> T {
        self.0.clone()
    }
}

/// A strategy built from a closure; no shrinking.
pub struct FromFn<F>(F);

/// Wraps a closure as a [`Strategy`] (for domain-specific generators).
pub fn from_fn<T, F>(f: F) -> FromFn<F>
where
    T: Clone + std::fmt::Debug,
    F: Fn(&mut SplitMix64) -> T,
{
    FromFn(f)
}

impl<T, F> Strategy for FromFn<F>
where
    T: Clone + std::fmt::Debug,
    F: Fn(&mut SplitMix64) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut SplitMix64) -> T {
        (self.0)(rng)
    }
}

/// A strategy for `Vec<T>` with a length drawn from `len`.
pub struct VecStrategy<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

/// Vectors of `elem`-generated values with length in `len` (inclusive of
/// the start, exclusive of the end, like `proptest::collection::vec`).
pub fn vec_of<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy {
        elem,
        min_len: len.start,
        max_len: len.end - 1,
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SplitMix64) -> Vec<S::Value> {
        let len = self.min_len + rng.next_below((self.max_len - self.min_len + 1) as u64) as usize;
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // Structural shrinks first: halves, then dropping single elements.
        if n > self.min_len {
            let half = (n / 2).max(self.min_len);
            if half < n {
                out.push(value[..half].to_vec());
                out.push(value[n - half..].to_vec());
            }
            for i in 0..n.min(8) {
                let mut smaller = value.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        // Element-wise shrinks on a few positions.
        for i in 0..n.min(8) {
            for cand in self.elem.shrink(&value[i]).into_iter().take(2) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident / $idx:tt),+)),+ $(,)?) => {
        $(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);

                fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }

                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&value.$idx).into_iter().take(3) {
                            let mut v = value.clone();
                            v.$idx = cand;
                            out.push(v);
                        }
                    )+
                    out
                }
            }
        )+
    };
}

impl_tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4)
);

/// Resolves the case count: env override, then the macro's `#[cases(..)]`
/// attribute, then [`DEFAULT_CASES`].
pub fn resolve_cases(attr: Option<u32>) -> u32 {
    std::env::var("TROUT_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .or(attr)
        .unwrap_or(DEFAULT_CASES)
}

fn base_seed() -> u64 {
    std::env::var("TROUT_PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Seed for case `i` of a run with base seed `base`. Case 0 uses the base
/// seed itself, so rerunning with `TROUT_PROPTEST_SEED=<reported seed>`
/// replays a reported failure as the first case.
fn case_seed(base: u64, i: u32) -> u64 {
    base.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn run_case<V>(test: &impl Fn(&V) -> CaseResult, value: &V) -> CaseResult {
    match panic::catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            Err(TestCaseError::fail(format!("panic: {msg}")))
        }
    }
}

/// Runs a property test: `cases` seeded inputs from `strategy` through
/// `test`, shrinking the first failure and panicking with a reproducible
/// report. This is the engine behind [`proptest_lite!`](crate::proptest_lite).
pub fn run_test<S: Strategy>(
    name: &str,
    cases: u32,
    strategy: &S,
    test: impl Fn(&S::Value) -> CaseResult,
) {
    let base = base_seed();
    let mut rejected = 0u32;
    for i in 0..cases {
        let seed = case_seed(base, i);
        let mut rng = SplitMix64::new(seed);
        let value = strategy.generate(&mut rng);
        match run_case(&test, &value) {
            Ok(()) => {}
            Err(TestCaseError::Reject) => {
                rejected += 1;
                continue;
            }
            Err(TestCaseError::Fail(msg)) => {
                let (shrunk, steps) = shrink_failure(strategy, &test, value);
                panic!(
                    "property `{name}` failed (case {i}/{cases}, seed {seed})\n\
                     \x20 cause: {msg}\n\
                     \x20 shrunk input ({steps} shrink steps): {shrunk:?}\n\
                     \x20 reproduce with: TROUT_PROPTEST_SEED={seed} TROUT_PROPTEST_CASES=1 cargo test {name}"
                );
            }
        }
    }
    assert!(
        rejected < cases,
        "property `{name}`: every case rejected by prop_assume! (seed {base})"
    );
}

fn shrink_failure<S: Strategy>(
    strategy: &S,
    test: &impl Fn(&S::Value) -> CaseResult,
    mut current: S::Value,
) -> (S::Value, usize) {
    let mut evaluated = 0usize;
    loop {
        let mut improved = false;
        for cand in strategy.shrink(&current) {
            if evaluated >= MAX_SHRINK_STEPS {
                return (current, evaluated);
            }
            evaluated += 1;
            if matches!(run_case(test, &cand), Err(TestCaseError::Fail(_))) {
                current = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return (current, evaluated);
        }
    }
}

/// Declares property tests. Each entry becomes a `#[test]` that draws
/// inputs from the listed strategies; `#[cases(N)]` sets the case count.
#[macro_export]
macro_rules! proptest_lite {
    ($( $(#[cases($cases:expr)])? fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+) => {
        $(
            #[test]
            fn $name() {
                let __attr_cases: Option<u32> = $crate::proptest_lite::__first(&[$($cases as u32,)?]);
                let __cases = $crate::proptest_lite::resolve_cases(__attr_cases);
                let __strategy = ($($strat,)+);
                $crate::proptest_lite::run_test(
                    stringify!($name),
                    __cases,
                    &__strategy,
                    |__value| {
                        #[allow(unused_parens, unused_variables, unused_mut)]
                        let ($(mut $arg,)+) = __value.clone();
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// Macro support: first element of a zero-or-one element list.
pub fn __first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}

/// Asserts a condition inside a property body, recording the failing
/// expression (and optional formatted message) without unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::proptest_lite::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::proptest_lite::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::proptest_lite::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::proptest_lite::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::proptest_lite::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = (0u64..1000, vec_of(0i64..100, 1..10));
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn int_range_stays_in_bounds() {
        let strat = 10u32..20;
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = strat.generate(&mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn float_range_stays_in_bounds() {
        let strat = -1.0f32..1.0;
        let mut rng = SplitMix64::new(2);
        for _ in 0..1000 {
            let v = strat.generate(&mut rng);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let strat = vec_of(0u64..5, 2..6);
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn shrinking_reaches_a_small_counterexample() {
        // Failure condition v >= 10 over 0..1000 should shrink to exactly 10.
        let strat = 0u64..1000;
        let test = |v: &u64| -> CaseResult {
            if *v >= 10 {
                Err(TestCaseError::fail("too big"))
            } else {
                Ok(())
            }
        };
        let (shrunk, _) = shrink_failure(&strat, &test, 937);
        assert_eq!(shrunk, 10);
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let strat = vec_of(0u64..10, 3..8);
        let value = vec![1, 2, 3, 4, 5];
        for cand in strat.shrink(&value) {
            assert!(cand.len() >= 3, "shrank below min length: {cand:?}");
        }
    }

    #[test]
    fn failing_property_reports_seed_and_shrunk_input() {
        let err = std::panic::catch_unwind(|| {
            run_test("demo_prop", 64, &(0u64..100), |v| {
                if *v > 50 {
                    Err(TestCaseError::fail("v too large"))
                } else {
                    Ok(())
                }
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("TROUT_PROPTEST_SEED="), "{msg}");
        assert!(msg.contains("shrunk input"), "{msg}");
        assert!(
            msg.contains("51"),
            "expected minimal counterexample 51 in: {msg}"
        );
    }

    #[test]
    fn panicking_property_is_caught_and_reported() {
        let err = std::panic::catch_unwind(|| {
            run_test("panic_prop", 16, &(0u64..10), |v| panic!("boom {v}"))
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("panic: boom"), "{msg}");
    }

    proptest_lite! {
        #[cases(64)]
        fn macro_harness_runs(a in 0u64..100, b in 0u64..100) {
            prop_assert_eq!(a + b, b + a);
            prop_assert!(a < 100 && b < 100, "out of range: {a} {b}");
        }

        fn macro_assume_skips(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }
}
