//! Offline drop-in replacement for the subset of `proptest` 1.x used by
//! this workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! `[patch.crates-io]` table substitutes this crate for the real
//! `proptest`. It implements the pieces the workspace's property tests
//! actually exercise:
//!
//! * the [`Strategy`] trait with `prop_map`,
//! * strategies for integer ranges, tuples, `&str` character-class
//!   patterns, [`Just`], [`any`], `collection::{vec, btree_set}`,
//!   `sample::select`, and `bool::weighted`,
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`], and
//!   [`prop_assert_eq!`] macros,
//! * [`ProptestConfig`] with `with_cases`.
//!
//! Semantic differences from the real crate: cases are generated from a
//! fixed per-test seed (deterministic across runs, no `PROPTEST_*` env
//! handling), there is **no shrinking** (a failing case prints its inputs
//! and panics as-is), and `proptest-regressions` files are ignored.

#![forbid(unsafe_code)]

use std::fmt::Debug;

/// The deterministic generator behind every strategy (xoshiro256++).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds the generator (SplitMix64 expansion).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform draw in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of test inputs.
///
/// Unlike real proptest there is no value tree and no shrinking:
/// `generate` produces the final value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: Debug, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
    U: Debug,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always produces a clone of the same value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Any value of `T`: `any::<u16>()`.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                let off = ((u128::from(rng.next_u64()) * span as u128) >> 64) as i128;
                ((self.start as i128) + off) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi as i128) - (lo as i128) + 1;
                assert!(span > 0, "empty range strategy");
                let off = ((u128::from(rng.next_u64()) * span as u128) >> 64) as i128;
                ((lo as i128) + off) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// `&str` strategies interpret the string as a small regex-like pattern:
/// literal characters, `[a-z08]` character classes, and `{m}` / `{m,n}`
/// repetition of the preceding atom. This covers the patterns the
/// workspace's tests use (e.g. `"[a-d]{1,2}"`); anything richer panics.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for (chars, lo, hi) in atoms {
            let reps = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..reps {
                out.push(chars[rng.below(chars.len() as u64) as usize]);
            }
        }
        out
    }
}

/// Parses a pattern into `(choices, min_reps, max_reps)` atoms.
fn parse_pattern(pattern: &str) -> Vec<(Vec<char>, usize, usize)> {
    let mut atoms: Vec<(Vec<char>, usize, usize)> = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '[' => {
                let mut class = Vec::new();
                let mut prev: Option<char> = None;
                loop {
                    match chars.next() {
                        Some(']') => break,
                        Some('-') => {
                            let lo = prev.unwrap_or_else(|| {
                                panic!("unsupported pattern {pattern:?}: leading '-' in class")
                            });
                            let hi = chars
                                .next()
                                .unwrap_or_else(|| panic!("unterminated class in {pattern:?}"));
                            for v in (lo as u32 + 1)..=(hi as u32) {
                                class.push(char::from_u32(v).expect("valid char range"));
                            }
                            prev = None;
                        }
                        Some(ch) => {
                            class.push(ch);
                            prev = Some(ch);
                        }
                        None => panic!("unterminated class in {pattern:?}"),
                    }
                }
                atoms.push((class, 1, 1));
            }
            '{' => {
                let spec: String = chars.by_ref().take_while(|c| *c != '}').collect();
                let (lo, hi) = match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("repetition bound"),
                        hi.trim().parse().expect("repetition bound"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("repetition bound");
                        (n, n)
                    }
                };
                let atom = atoms
                    .last_mut()
                    .unwrap_or_else(|| panic!("unsupported pattern {pattern:?}: dangling {{}}"));
                atom.1 = lo;
                atom.2 = hi;
            }
            '.' | '*' | '+' | '?' | '(' | ')' | '|' | '\\' => {
                panic!("unsupported pattern {pattern:?}: this stub only handles classes and {{m,n}}")
            }
            ch => atoms.push((vec![ch], 1, 1)),
        }
    }
    atoms
}

/// A size specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.end > r.start, "empty size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

/// Collection strategies: `vec` and `btree_set`.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// A strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `BTreeSet<S::Value>` aiming for a size in `size`
    /// (bounded retries — a small value universe may yield fewer
    /// elements, matching real proptest's best-effort behavior).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord + Debug,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            for _ in 0..(target * 20).max(20) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// `true` with probability `p`.
    #[must_use]
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "weight out of range: {p}");
        Weighted { p }
    }

    /// See [`weighted`].
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted {
        p: f64,
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.unit() < self.p
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;

    /// Picks uniformly from a fixed set of options.
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() needs at least one option");
        Select { options }
    }

    /// See [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// The weighted union behind [`prop_oneof!`].
pub struct Union<T> {
    branches: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u64,
}

impl<T: Debug> Union<T> {
    /// Builds a union from `(weight, strategy)` branches.
    #[must_use]
    pub fn new(branches: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
        assert!(!branches.is_empty(), "prop_oneof! needs at least one branch");
        let total = branches.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! weights sum to zero");
        Union { branches, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.branches {
            if pick < u64::from(*w) {
                return s.generate(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weighted pick out of range")
    }
}

/// Boxes a strategy for use in [`Union`]. (Macro plumbing.)
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// FNV-1a of the test name: a stable per-test seed.
#[must_use]
pub fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Module-path aliases matching `proptest::prelude::prop::*`.
pub mod prop {
    pub use crate::{bool, collection, sample};
}

/// The usual imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Defines property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg($cfg) $($rest)*);
    };
    (@cfg($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::seed_of(stringify!($name)));
                for case in 0..config.cases {
                    let values = ($( $crate::Strategy::generate(&($strat), &mut rng) ,)+);
                    let shown = format!("{values:#?}");
                    let ($($arg,)+) = values;
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| { $body })
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest case {case}/{} of `{}` failed for inputs:\n{shown}",
                            config.cases,
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Picks among strategies, optionally weighted: `prop_oneof![a, b]` or
/// `prop_oneof![2 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( (($weight) as u32, $crate::boxed($strat)) ),+ ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( (1u32, $crate::boxed($strat)) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_maps_compose() {
        let mut rng = crate::TestRng::new(1);
        let s = (0..10usize, 5u64..=6).prop_map(|(a, b)| a as u64 + b);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((5..16).contains(&v));
        }
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let mut rng = crate::TestRng::new(2);
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let trues = (0..1000).filter(|_| s.generate(&mut rng)).count();
        assert!(trues > 800, "weighted union drifted: {trues}/1000 true");
    }

    #[test]
    fn pattern_strategy_generates_matching_strings() {
        let mut rng = crate::TestRng::new(3);
        for _ in 0..200 {
            let s = "[a-d]{1,2}".generate(&mut rng);
            assert!((1..=2).contains(&s.len()), "bad length: {s:?}");
            assert!(s.chars().all(|c| ('a'..='d').contains(&c)), "bad chars: {s:?}");
        }
    }

    #[test]
    fn collections_honor_size_ranges() {
        let mut rng = crate::TestRng::new(4);
        let v = crate::collection::vec(0..100u64, 3..7);
        let b = crate::collection::btree_set(0u64..4, 1..=3);
        for _ in 0..100 {
            let xs = v.generate(&mut rng);
            assert!((3..7).contains(&xs.len()));
            let set = b.generate(&mut rng);
            assert!((1..=3).contains(&set.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_drives_cases(x in 0..50usize, ys in prop::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(x < 50);
            prop_assert!(ys.len() < 4);
            prop_assert_eq!(x + 1, 1 + x);
        }
    }
}
