//! A minimal property-testing harness (proptest-shaped, std-only).
//!
//! Design goals, in order:
//!
//! 1. **Hermetic** — no crates.io dependency; works on a network-isolated
//!    machine.
//! 2. **Deterministic** — every case derives from a base seed mixed with
//!    the test name and case index. A failure report prints the base seed
//!    and the failing case, and `QNN_TEST_SEED=<seed>` reproduces the
//!    exact run.
//! 3. **Mechanical porting** — the [`props!`](crate::props) macro accepts
//!    `name(arg in strategy, ...) { body }` blocks whose bodies use
//!    `prop_assert!` / `prop_assert_eq!` / `prop_assume!` and may
//!    `return Ok(());`, exactly like the `proptest!` suites this replaced.
//!
//! Environment knobs:
//!
//! * `QNN_TEST_CASES` — cases per property (default 64; per-property
//!   overrides via `#![cases = N]` in the macro lose to the env var).
//! * `QNN_TEST_SEED` — base seed (decimal or `0x…` hex).

use crate::rng::{splitmix64, Rng};
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Default cases per property (the acceptance floor for the repro suites).
pub const DEFAULT_CASES: u32 = 64;
/// Default base seed: any fixed value works; this one is arbitrary.
pub const DEFAULT_SEED: u64 = 0x51EA_D5EE_DC0F_FEE5;
/// Cap on greedy shrink steps (each step re-runs the property once per
/// candidate, so the worst case is bounded and fast).
const MAX_SHRINK_STEPS: u32 = 1024;
/// Retry budget multiplier for `prop_assume!` rejections.
const REJECT_FACTOR: u32 = 64;

/// Why a single case did not pass.
#[derive(Debug)]
pub enum CaseError {
    /// The property is false for this input (assertion text + location).
    Fail(String),
    /// The input does not satisfy a `prop_assume!` precondition; the case
    /// is discarded and regenerated, not counted as a failure.
    Reject(&'static str),
}

/// Result type the property bodies produce.
pub type CaseResult = Result<(), CaseError>;

/// A generator of test inputs with optional shrinking.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug + PartialEq;

    /// Draw one input.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of a failing input, simplest first.
    /// Default: no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Keep only inputs satisfying `pred`; `reason` labels rejections.
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, reason, pred }
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = self.start;
                let v = *value;
                let mut out = Vec::new();
                if v != lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo && mid != v {
                        out.push(mid);
                    }
                    let prev = v - 1;
                    if prev != lo && !out.contains(&prev) {
                        out.push(prev);
                    }
                }
                out
            }
        }
    )+};
}

impl_int_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut Rng) -> f32 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f32) -> Vec<f32> {
        // Toward the low bound, then toward zero if it is in range.
        let mut out = Vec::new();
        for cand in [self.start, (self.start + value) / 2.0, 0.0] {
            if cand != *value && self.contains(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.clone())
    }
}

/// Strategy for "any value of `T`" — see [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// `any::<T>()` — the full domain of `T` (uniform).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any { _marker: std::marker::PhantomData }
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value { vec![false] } else { Vec::new() }
    }
}

macro_rules! impl_any_uint {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    if v / 2 != 0 {
                        out.push(v / 2);
                    }
                }
                out
            }
        }
    )+};
}

impl_any_uint!(u8, u16, u32, u64, usize);

/// `vec(element, len_range)` — a `Vec` with length drawn from `len_range`
/// and elements from `element` (mirrors `proptest::collection::vec`).
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// See [`fn@vec`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        // Shorter prefixes first (halving), as long as they stay in range.
        for target in [self.len.start, value.len() / 2, value.len().saturating_sub(1)] {
            if target < value.len() && self.len.contains(&target) {
                let cand: Vec<_> = value[..target].to_vec();
                if !out.contains(&cand) {
                    out.push(cand);
                }
            }
        }
        // Element-wise shrinks only for short vectors (cost control).
        if value.len() <= 16 {
            for (i, v) in value.iter().enumerate() {
                for s in self.element.shrink(v) {
                    let mut cand = value.clone();
                    cand[i] = s;
                    if !out.contains(&cand) {
                        out.push(cand);
                    }
                }
            }
        }
        out
    }
}

/// `map(inner, f, inv)` — generate by applying `f` to `inner`'s values,
/// shrink *through* the mapping: a failing mapped value is inverted back
/// into the inner domain with `inv`, shrunk there, and re-mapped.
///
/// Plain proptest-style `map` loses shrinking because the mapped domain
/// has no strategy to ask for candidates; supplying the (partial) inverse
/// restores it. `inv` may return `None` for values it cannot invert
/// (e.g. a constructor that rejected the parameters) — those simply don't
/// shrink. The composite generators in the end-to-end property suites
/// (random network specs built from geometry tuples) use this so that a
/// failing spec minimizes toward small sides/kernels/channels instead of
/// being frozen at whatever geometry first failed.
pub fn map<S, T, F, I>(inner: S, f: F, inv: I) -> Map<S, F, I>
where
    S: Strategy,
    T: Clone + Debug + PartialEq,
    F: Fn(S::Value) -> T,
    I: Fn(&T) -> Option<S::Value>,
{
    Map { inner, f, inv }
}

/// See [`map`].
#[derive(Clone, Debug)]
pub struct Map<S, F, I> {
    inner: S,
    f: F,
    inv: I,
}

impl<S, T, F, I> Strategy for Map<S, F, I>
where
    S: Strategy,
    T: Clone + Debug + PartialEq,
    F: Fn(S::Value) -> T,
    I: Fn(&T) -> Option<S::Value>,
{
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        (self.f)(self.inner.generate(rng))
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let Some(source) = (self.inv)(value) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for cand in self.inner.shrink(&source) {
            let mapped = (self.f)(cand);
            if mapped != *value && !out.contains(&mapped) {
                out.push(mapped);
            }
        }
        out
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone, Debug)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter '{}' rejected 1000 consecutive draws", self.reason);
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        self.inner.shrink(value).into_iter().filter(|v| (self.pred)(v)).collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for s in self.$idx.shrink(&value.$idx) {
                        let mut cand = value.clone();
                        cand.$idx = s;
                        out.push(cand);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A / 0)
    (A / 0, B / 1)
    (A / 0, B / 1, C / 2)
    (A / 0, B / 1, C / 2, D / 3)
    (A / 0, B / 1, C / 2, D / 3, E / 4)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7, I / 8)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7, I / 8, J / 9)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7, I / 8, J / 9, K / 10)
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7, I / 8, J / 9, K / 10, L / 11)
);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Install (once) a panic hook that suppresses printing while the runner
/// probes candidate inputs — shrinking re-runs the failing body dozens of
/// times and the default hook would flood the output. The final, reported
/// failure panics with the hook un-suppressed.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw:?} is not a u64"),
    }
}

/// FNV-1a over the test name, to give each property its own stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn case_rng(base_seed: u64, name_hash: u64, case: u32) -> Rng {
    let mut s = base_seed ^ name_hash;
    let a = splitmix64(&mut s);
    let mut s = a ^ u64::from(case);
    Rng::seed_from_u64(splitmix64(&mut s))
}

/// Run one case, translating panics inside the body into `Fail`.
fn run_case<V, F>(f: &F, value: V) -> CaseResult
where
    F: Fn(V) -> CaseResult,
{
    let was_quiet = QUIET_PANICS.with(|q| q.replace(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(value)));
    QUIET_PANICS.with(|q| q.set(was_quiet));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panic with non-string payload".into());
            Err(CaseError::Fail(format!("panicked: {msg}")))
        }
    }
}

/// Execute `cases` seeded cases of the property `f` over inputs from
/// `strat`, shrinking on failure. Panics with a reproduction recipe on the
/// first (shrunk) counterexample. This is the engine behind
/// [`props!`](crate::props); call it directly for one-off properties.
pub fn run<S, F>(name: &str, cases_override: Option<u32>, strat: S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    install_quiet_hook();
    let base_seed = env_u64("QNN_TEST_SEED").unwrap_or(DEFAULT_SEED);
    let cases = env_u64("QNN_TEST_CASES")
        .map(|v| u32::try_from(v).expect("QNN_TEST_CASES too large"))
        .or(cases_override)
        .unwrap_or(DEFAULT_CASES);
    let name_hash = fnv1a(name);
    let max_rejects = cases.saturating_mul(REJECT_FACTOR);

    let mut rejects = 0u32;
    let mut case = 0u32;
    let mut executed = 0u32;
    while executed < cases {
        let mut rng = case_rng(base_seed, name_hash, case);
        case += 1;
        let value = strat.generate(&mut rng);
        match run_case(&f, value.clone()) {
            Ok(()) => executed += 1,
            Err(CaseError::Reject(reason)) => {
                rejects += 1;
                assert!(
                    rejects <= max_rejects,
                    "property '{name}': {rejects} rejections (last: '{reason}') \
                     exceeded the budget of {max_rejects}; loosen the \
                     prop_assume!/filter or widen the strategy"
                );
            }
            Err(CaseError::Fail(first_msg)) => {
                let (shrunk, final_msg, steps) = shrink_failure(&strat, &f, value.clone(), first_msg);
                panic!(
                    "property '{name}' falsified\n\
                     \x20 case index : {idx} (of {cases} requested)\n\
                     \x20 base seed  : {base_seed:#018x}\n\
                     \x20 original   : {value:?}\n\
                     \x20 shrunk     : {shrunk:?}  ({steps} shrink steps)\n\
                     \x20 error      : {final_msg}\n\
                     reproduce with: QNN_TEST_SEED={base_seed:#x} \
                     QNN_TEST_CASES={cases} cargo test -q {name}",
                    idx = case - 1,
                );
            }
        }
    }
}

/// Greedy shrink: repeatedly adopt the first simpler candidate that still
/// fails, until no candidate fails or the step budget runs out.
fn shrink_failure<S, F>(
    strat: &S,
    f: &F,
    mut current: S::Value,
    mut msg: String,
    // Returns (shrunk value, its failure message, steps taken).
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    let mut steps = 0u32;
    'outer: while steps < MAX_SHRINK_STEPS {
        for cand in strat.shrink(&current) {
            if cand == current {
                continue;
            }
            if let Err(CaseError::Fail(m)) = run_case(f, cand.clone()) {
                current = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, msg, steps)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Assert inside a property body; fails the case (triggering shrinking)
/// instead of aborting the whole runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::CaseError::Fail(format!(
                "{} at {}:{}",
                format_args!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// `assert_eq!` for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?} ({})",
            l,
            r,
            format_args!($($fmt)*)
        );
    }};
}

/// `assert_ne!` for property bodies (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Discard the current case when a precondition does not hold; the runner
/// draws a replacement (bounded by the rejection budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::CaseError::Reject(stringify!(
                $cond
            )));
        }
    };
}

/// Define property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a function running seeded cases with shrink-on-failure; mark it
/// `#[test]` (as the ported suites do) to hand it to the test harness.
///
/// ```
/// qnn_testkit::props! {
///     #![cases = 128] // optional; QNN_TEST_CASES env overrides
///     /// Attach `#[test]` here when inside a test module.
///     fn addition_commutes(a in 0i32..1000, b in 0i32..1000) {
///         qnn_testkit::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes(); // 128 seeded cases
/// ```
#[macro_export]
macro_rules! props {
    ( #![cases = $cases:expr] $($rest:tt)* ) => {
        $crate::__props_impl! { ::std::option::Option::Some($cases); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__props_impl! { ::std::option::Option::None; $($rest)* }
    };
}

/// Implementation detail of [`props!`]; do not invoke directly.
#[doc(hidden)]
#[macro_export]
macro_rules! __props_impl {
    (
        $cases:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases_override: Option<u32> = $cases;
                let strategy = ($($strat,)+);
                $crate::prop::run(
                    stringify!($name),
                    cases_override,
                    strategy,
                    |($($arg,)+)| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_range_shrinks_toward_start() {
        let s = 3usize..50;
        let cands = s.shrink(&40);
        assert!(cands.contains(&3));
        assert!(cands.iter().all(|&c| (3..40).contains(&c)));
        assert!(s.shrink(&3).is_empty());
    }

    #[test]
    fn tuple_shrinks_one_component_at_a_time() {
        let s = (1usize..10, 0i32..100);
        let cands = s.shrink(&(7, 50));
        assert!(cands.contains(&(1, 50)));
        assert!(cands.contains(&(7, 0)));
        assert!(!cands.contains(&(1, 0)), "must not shrink both at once");
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        // Count via a cell captured by the closure.
        let counter = std::cell::Cell::new(0u32);
        run("tk_passing", Some(32), (0u32..10,), |(_v,)| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 32);
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        let report = panic::catch_unwind(|| {
            run("tk_failing", Some(64), (0u64..1000,), |(v,)| {
                crate::prop_assert!(v < 200, "too big: {v}");
                Ok(())
            });
        })
        .expect_err("must fail");
        let msg = report.downcast_ref::<String>().expect("string panic");
        // Greedy shrink on `v >= 200` must land exactly on 200.
        assert!(msg.contains("shrunk     : (200,)"), "report was:\n{msg}");
        assert!(msg.contains("QNN_TEST_SEED="), "report was:\n{msg}");
    }

    #[test]
    fn panicking_body_is_caught_and_shrunk() {
        let report = panic::catch_unwind(|| {
            run("tk_panicking", Some(64), (0i32..100,), |(v,)| {
                assert!(v < 30, "plain assert, not prop_assert: {v}");
                Ok(())
            });
        })
        .expect_err("must fail");
        let msg = report.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("shrunk     : (30,)"), "report was:\n{msg}");
    }

    #[test]
    fn rejection_budget_is_enforced() {
        let report = panic::catch_unwind(|| {
            run("tk_rejecting", Some(4), (0u32..10,), |(_v,)| {
                Err(CaseError::Reject("always"))
            });
        })
        .expect_err("must exhaust rejections");
        let msg = report.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("rejections"), "report was:\n{msg}");
    }

    #[test]
    fn map_generates_through_the_function() {
        run(
            "tk_map_gen",
            Some(64),
            (map(0u32..10, |v| v * 2 + 1, |t: &u32| Some((t - 1) / 2)),),
            |(v,)| {
                crate::prop_assert!(v % 2 == 1 && v < 21);
                Ok(())
            },
        );
    }

    #[test]
    fn map_shrinks_through_the_inverse() {
        // Property fails for mapped values >= 800, i.e. inner >= 400.
        // Inverse-aware shrinking must walk the inner domain down to the
        // boundary and land exactly on 800.
        let report = panic::catch_unwind(|| {
            run(
                "tk_map_shrink",
                Some(64),
                (map(0u64..1000, |v| v * 2, |t: &u64| Some(t / 2)),),
                |(v,)| {
                    crate::prop_assert!(v < 800, "too big: {v}");
                    Ok(())
                },
            );
        })
        .expect_err("must fail");
        let msg = report.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("shrunk     : (800,)"), "report was:\n{msg}");
    }

    #[test]
    fn unmappable_values_do_not_shrink() {
        let s = map(0u32..100, |v| v + 1, |_t: &u32| None::<u32>);
        assert!(s.shrink(&50).is_empty());
        // And with a working inverse the candidates pass back through f.
        let s = map(0u32..100, |v| v + 1, |t: &u32| t.checked_sub(1));
        let cands = s.shrink(&51);
        assert!(cands.contains(&1), "inner 50 -> 0 -> mapped 1, got {cands:?}");
        assert!(!cands.contains(&51));
    }

    #[test]
    fn filter_keeps_only_matching_values() {
        run("tk_filter", Some(64), ((-8i32..8).prop_filter("nonzero", |v| *v != 0),), |(v,)| {
            crate::prop_assert!(v != 0);
            Ok(())
        });
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        run("tk_vec", Some(64), (vec(any::<bool>(), 1..30),), |(v,)| {
            crate::prop_assert!(!v.is_empty() && v.len() < 30);
            Ok(())
        });
    }

    props! {
        #![cases = 16]
        #[test]
        fn props_macro_compiles_and_runs(a in 0u8..20, flip in any::<bool>()) {
            let b = if flip { a } else { 0 };
            crate::prop_assert!(b <= a);
        }
    }
}
