//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim implements
//! the strategy/runner subset the workspace's property tests use:
//!
//! * the [`proptest!`] macro with optional `#![proptest_config(..)]`,
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * integer-range, tuple, regex-string, [`collection::vec`],
//!   [`sample::select`] and [`arbitrary::any`] strategies,
//! * [`strategy::Strategy::prop_map`],
//!   [`strategy::Strategy::prop_recursive`] and
//!   [`strategy::Strategy::boxed`].
//!
//! Cases are generated from a seed derived from the test's module path
//! and name, so runs are fully deterministic. There is no shrinking: a
//! failing case reports its case index, which is enough to reproduce it
//! under the same binary.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 48 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A failed property assertion.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure carrying `message`.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic per-case RNG (SplitMix64 with a depth counter used
    /// by recursive strategies to bound tree height).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
        /// Current recursion depth of `prop_recursive` sampling.
        pub depth: u32,
    }

    impl TestRng {
        /// RNG for case `case` of the property named `name`.
        pub fn for_case(name: &str, case: u32) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                depth: 0,
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// True with probability `num/den`.
        pub fn chance(&mut self, num: u64, den: u64) -> bool {
            self.below(den) < num
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy::new(move |rng| self.sample(rng))
        }

        /// Recursive strategy: `self` generates leaves, `recurse` builds
        /// branches from the recursive handle. `depth` bounds nesting;
        /// the `desired_size`/`expected_branch_size` hints are ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
        {
            let leaf = self.boxed();
            let branch: Rc<RefCell<Option<BoxedStrategy<Self::Value>>>> =
                Rc::new(RefCell::new(None));
            let branch_in_handle = branch.clone();
            let handle = BoxedStrategy::new(move |rng: &mut TestRng| {
                // Lean towards branching near the root, leaves at depth.
                if rng.depth >= depth || rng.chance(1, 3) {
                    leaf.sample(rng)
                } else {
                    let b = branch_in_handle
                        .borrow()
                        .clone()
                        .expect("recursive strategy used before initialization");
                    rng.depth += 1;
                    let v = b.sample(rng);
                    rng.depth -= 1;
                    v
                }
            });
            *branch.borrow_mut() = Some(recurse(handle.clone()).boxed());
            handle
        }
    }

    /// Type-erased strategy (cheaply cloneable).
    pub struct BoxedStrategy<T> {
        gen: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                gen: self.gen.clone(),
            }
        }
    }

    impl<T> BoxedStrategy<T> {
        /// Wraps a generation closure.
        pub fn new(gen: impl Fn(&mut TestRng) -> T + 'static) -> BoxedStrategy<T> {
            BoxedStrategy { gen: Rc::new(gen) }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.gen)(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % width;
                    (self.start as i128 + offset as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let width = (end as i128 - start as i128) as u128 + 1;
                    let offset = (rng.next_u64() as u128) % width;
                    (start as i128 + offset as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);

    /// String literals act as regex strategies, like upstream proptest.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let compiled = crate::string::string_regex(self)
                .unwrap_or_else(|e| panic!("bad regex strategy {self:?}: {e}"));
            compiled.sample(rng)
        }
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical arbitrary generator.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
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

    impl<T: Arbitrary> Arbitrary for Option<T> {
        fn arbitrary(rng: &mut TestRng) -> Option<T> {
            if rng.chance(1, 4) {
                None
            } else {
                Some(T::arbitrary(rng))
            }
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Element-count range for collection strategies (max exclusive).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Uniformly selects one of `items`.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select from empty list");
        Select { items }
    }

    /// See [`select`].
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }
}

pub mod string {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy generating strings matching a (subset) regular
    /// expression. Supported: literal characters, `\x` escapes,
    /// character classes `[a-z_0-9…]` with ranges, `\PC` (printable,
    /// non-control), and postfix `{m}` / `{m,n}` / `?` / `*` / `+`.
    pub fn string_regex(pattern: &str) -> Result<RegexStrategy, String> {
        Ok(RegexStrategy {
            pieces: parse(pattern)?,
        })
    }

    /// See [`string_regex`].
    #[derive(Debug, Clone)]
    pub struct RegexStrategy {
        pieces: Vec<Piece>,
    }

    impl Strategy for RegexStrategy {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for piece in &self.pieces {
                let span = (piece.max - piece.min + 1) as u64;
                let reps = piece.min + rng.below(span) as usize;
                for _ in 0..reps {
                    out.push(piece.class.sample(rng));
                }
            }
            out
        }
    }

    #[derive(Debug, Clone)]
    enum Class {
        /// Union of inclusive character ranges.
        Ranges(Vec<(char, char)>),
        /// `\PC`: any printable, non-control character.
        NotControl,
    }

    impl Class {
        fn sample(&self, rng: &mut TestRng) -> char {
            // A spread of printable ASCII, Latin-1/Extended and a few
            // symbols — enough to exercise escaping and multi-byte
            // handling without generating unassigned code points.
            const PRINTABLE: &[(char, char)] = &[(' ', '~'), ('¡', 'ÿ'), ('Ā', 'ʯ'), ('✁', '✒')];
            let ranges = match self {
                Class::Ranges(r) => r.as_slice(),
                Class::NotControl => PRINTABLE,
            };
            let total: u64 = ranges
                .iter()
                .map(|&(lo, hi)| hi as u64 - lo as u64 + 1)
                .sum();
            let mut offset = rng.below(total);
            for &(lo, hi) in ranges {
                let size = hi as u64 - lo as u64 + 1;
                if offset < size {
                    return char::from_u32(lo as u32 + offset as u32)
                        .expect("range endpoints are valid chars");
                }
                offset -= size;
            }
            unreachable!("offset within total")
        }
    }

    #[derive(Debug, Clone)]
    struct Piece {
        class: Class,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Result<Vec<Piece>, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut pieces = Vec::new();
        while i < chars.len() {
            let class = match chars[i] {
                '[' => {
                    let (class, next) = parse_class(&chars, i + 1)?;
                    i = next;
                    class
                }
                '\\' => {
                    i += 1;
                    match chars.get(i) {
                        Some('P') => {
                            let cat = chars.get(i + 1).ok_or_else(|| "dangling \\P".to_string())?;
                            if *cat != 'C' {
                                return Err(format!("unsupported category \\P{cat}"));
                            }
                            i += 2;
                            Class::NotControl
                        }
                        Some(&c) => {
                            i += 1;
                            Class::Ranges(vec![(c, c)])
                        }
                        None => return Err("dangling backslash".into()),
                    }
                }
                c @ (']' | '{' | '}' | '?' | '*' | '+' | '(' | ')' | '|' | '.') => {
                    return Err(format!("unsupported regex construct {c:?}"))
                }
                c => {
                    i += 1;
                    Class::Ranges(vec![(c, c)])
                }
            };
            let (min, max, next) = parse_quantifier(&chars, i)?;
            i = next;
            pieces.push(Piece { class, min, max });
        }
        Ok(pieces)
    }

    /// Parses a `[...]` body starting just after the `[`; returns the
    /// class and the index just after the closing `]`.
    fn parse_class(chars: &[char], mut i: usize) -> Result<(Class, usize), String> {
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut pending: Option<char> = None;
        loop {
            let c = *chars
                .get(i)
                .ok_or_else(|| "unterminated character class".to_string())?;
            match c {
                ']' => {
                    if let Some(p) = pending {
                        ranges.push((p, p));
                    }
                    return Ok((Class::Ranges(ranges), i + 1));
                }
                '-' if pending.is_some() && chars.get(i + 1).is_some_and(|&n| n != ']') => {
                    let lo = pending.take().expect("pending set");
                    let hi = chars[i + 1];
                    if hi < lo {
                        return Err(format!("inverted range {lo}-{hi}"));
                    }
                    ranges.push((lo, hi));
                    i += 2;
                }
                '\\' => {
                    if let Some(p) = pending.replace(
                        *chars
                            .get(i + 1)
                            .ok_or_else(|| "dangling backslash in class".to_string())?,
                    ) {
                        ranges.push((p, p));
                    }
                    i += 2;
                }
                c => {
                    if let Some(p) = pending.replace(c) {
                        ranges.push((p, p));
                    }
                    i += 1;
                }
            }
        }
    }

    /// Parses an optional quantifier at `i`; returns (min, max, next).
    fn parse_quantifier(chars: &[char], i: usize) -> Result<(usize, usize, usize), String> {
        match chars.get(i) {
            Some('?') => Ok((0, 1, i + 1)),
            Some('*') => Ok((0, 8, i + 1)),
            Some('+') => Ok((1, 8, i + 1)),
            Some('{') => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .ok_or_else(|| "unterminated quantifier".to_string())?
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                let (min, max) = match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse::<usize>().map_err(|e| e.to_string())?,
                        hi.trim().parse::<usize>().map_err(|e| e.to_string())?,
                    ),
                    None => {
                        let n = body.trim().parse::<usize>().map_err(|e| e.to_string())?;
                        (n, n)
                    }
                };
                if max < min {
                    return Err(format!("inverted quantifier {{{body}}}"));
                }
                Ok((min, max, close + 1))
            }
            _ => Ok((1, 1, i)),
        }
    }
}

pub mod prelude {
    //! The glob-import surface, mirroring upstream's `prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The `prop::` namespace (`prop::sample::select`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::string;
    }
}

/// Declares deterministic property tests. Mirrors upstream syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn prop(x in 0u32..10, v in proptest::collection::vec(0u8..5, 0..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __proptest_rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::sample(
                        &($strat),
                        &mut __proptest_rng,
                    );
                )+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {case}: {e}",
                        stringify!($name),
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside a [`proptest!`] body, failing the case
/// (not the process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{:?}` == `{:?}`", l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)+);
            }
        }
    };
}

/// Inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_vecs_respect_bounds() {
        let mut rng = TestRng::for_case("shim::bounds", 0);
        let strat = crate::collection::vec(2u32..9, 3..7);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|x| (2..9).contains(x)));
        }
    }

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = TestRng::for_case("shim::regex", 0);
        let name = crate::string::string_regex("[A-Za-z_][A-Za-z0-9_.-]{0,12}").unwrap();
        for _ in 0..200 {
            let s = name.sample(&mut rng);
            assert!(!s.is_empty() && s.len() <= 13);
            let first = s.chars().next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_', "{s:?}");
        }
        let printable = crate::string::string_regex("\\PC{0,20}").unwrap();
        for _ in 0..100 {
            let s = printable.sample(&mut rng);
            assert!(s.chars().all(|c| !c.is_control()), "{s:?}");
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(n) => {
                    assert!(*n < 10, "leaf strategy range violated");
                    1
                }
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 24, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        let mut rng = TestRng::for_case("shim::recursive", 1);
        for _ in 0..100 {
            let t = strat.sample(&mut rng);
            assert!(depth(&t) <= 8, "runaway recursion: {t:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u64..100, v in crate::collection::vec(0u8..3, 0..5)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 100);
        }
    }
}
