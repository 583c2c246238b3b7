//! Offline shim for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate implements the proptest 1.x API subset the workspace's property
//! tests use: the `proptest!` / `prop_assert*` / `prop_assume!` /
//! `prop_oneof!` macros, the [`strategy::Strategy`] trait with `prop_map`
//! and tuple/range/`Just` strategies, `any::<T>()` for primitives and
//! arrays, `prop::collection::vec`, `prop::sample::select`, and
//! [`test_runner::ProptestConfig`].
//!
//! Unlike upstream, generation is plain pseudo-random (no size ramping), and
//! a failing case is shrunk through the random words its strategies drew,
//! not through per-strategy value trees: each recorded word is rewritten to
//! the smallest value that still fails (a range's draw of 0 is its start,
//! `any`'s is zero, a collection's is its shortest length), and the report
//! names the minimal failing input along with the case seed. A panic in the
//! body counts as a failure. Runs are fully deterministic per test name.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Per-`proptest!`-block configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
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

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed: the property does not hold.
        Fail(String),
        /// `prop_assume!` rejected the input; it is regenerated.
        Reject(String),
    }

    impl TestCaseError {
        /// Construct a failure.
        pub fn fail<S: Into<String>>(msg: S) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Construct a rejection.
        pub fn reject<S: Into<String>>(msg: S) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
            }
        }
    }

    impl<E: std::error::Error> From<E> for TestCaseError {
        fn from(e: E) -> Self {
            TestCaseError::Fail(e.to_string())
        }
    }

    /// Deterministic generator handed to strategies (xoshiro256**), or a
    /// replay of recorded words when a failing case is shrunk.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
        /// The words to hand out instead of the generator's; past their
        /// end every draw is 0.
        replay: Option<Vec<u64>>,
        /// Every word handed out so far.
        tape: Vec<u64>,
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Expand one seed word into full generator state.
        pub fn from_seed(seed: u64) -> Self {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
                replay: None,
                tape: Vec::new(),
            }
        }

        /// Hand out `words`, then zeros.
        fn replaying(words: Vec<u64>) -> Self {
            TestRng {
                s: [0; 4],
                replay: Some(words),
                tape: Vec::new(),
            }
        }

        /// Next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            let word = match &self.replay {
                Some(words) => words.get(self.tape.len()).copied().unwrap_or(0),
                None => self.step(),
            };
            self.tape.push(word);
            word
        }

        fn step(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, 1)` with 53-bit resolution.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform index in `[0, bound)`; `bound` must be nonzero.
        pub fn index(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// Drive one `proptest!`-generated test: run cases until `config.cases`
    /// succeed, regenerating rejected inputs, panicking on the first failure
    /// with the case seed and the shrunk failing input for reproduction.
    /// `describe` generates a case's inputs from a generator and prints
    /// them.
    pub fn run<F, D>(config: &ProptestConfig, name: &str, mut case: F, describe: D)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        D: Fn(&mut TestRng) -> String,
    {
        // Deterministic per test name (FNV-1a) so CI runs are reproducible.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut master = TestRng::from_seed(seed);
        let mut passed = 0u32;
        let mut rejected = 0u32;
        while passed < config.cases {
            let case_seed = master.next_u64();
            let mut rng = TestRng::from_seed(case_seed);
            match attempt(&mut case, &mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    assert!(
                        rejected <= config.cases.saturating_mul(256),
                        "proptest '{name}': too many inputs rejected by prop_assume! \
                         ({rejected} rejections for {passed} passes)"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    let (tape, msg) = shrink(&mut case, rng.tape, msg);
                    let input = describe(&mut TestRng::replaying(tape));
                    panic!(
                        "proptest '{name}' failed after {passed} passing case(s) \
                         [case seed {case_seed:#018x}]\nminimal failing input: {input}\n{msg}"
                    );
                }
            }
        }
    }

    /// Run one case; a panic is a failure carrying the panic's text.
    fn attempt<F>(case: &mut F, rng: &mut TestRng) -> Result<(), TestCaseError>
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(rng))).unwrap_or_else(|e| {
            let text = e
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            Err(TestCaseError::Fail(format!("panicked: {text}")))
        })
    }

    /// Shrink a failing case by its recorded words: rewrite one word at a
    /// time to the smallest of `0..min(word, 64)` that still fails, and
    /// repeat until no word shrinks or 1024 cases have run. Every accepted
    /// tape is smaller than the last, word by word, so this ends.
    fn shrink<F>(case: &mut F, mut tape: Vec<u64>, mut msg: String) -> (Vec<u64>, String)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut budget = 1024u32;
        let mut shrunk = true;
        while shrunk {
            shrunk = false;
            let mut i = 0;
            while i < tape.len() {
                for word in 0..tape[i].min(64) {
                    if budget == 0 {
                        return (tape, msg);
                    }
                    budget -= 1;
                    let mut trial = tape.clone();
                    trial[i] = word;
                    let mut rng = TestRng::replaying(trial);
                    if let Err(TestCaseError::Fail(m)) = attempt(case, &mut rng) {
                        (tape, msg, shrunk) = (rng.tape, m, true);
                        break;
                    }
                }
                i += 1;
            }
        }
        (tape, msg)
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe core (`generate`) plus builder conveniences; upstream
    /// proptest's shrinking machinery is intentionally absent.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Type-erase into a [`BoxedStrategy`].
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy, as produced by [`Strategy::boxed`].
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

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

    /// Always produce a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Uniform choice among same-valued strategies (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from the already-boxed arms; panics if empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.index(self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() as f32 * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
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

    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generate an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<fn() -> T>,
    }

    /// The canonical strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any { _marker: std::marker::PhantomData }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Like upstream's default f64 strategy, skip NaN/infinities but
            // cover the full finite bit-pattern space (incl. subnormals).
            loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    return v;
                }
            }
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            loop {
                let v = f32::from_bits(rng.next_u64() as u32);
                if v.is_finite() {
                    return v;
                }
            }
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A `Vec` of `len`-range length with elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end - self.len.start;
            let n = self.len.start + rng.index(span);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    /// Pick uniformly from a fixed list of values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty list");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.index(self.options.len())].clone()
        }
    }
}

/// Declare property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a test running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)*
                    let __out: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    __out
                }, |__rng| {
                    let __input: ::std::vec::Vec<::std::string::String> = vec![$(
                        format!("{} = {:?}", stringify!($arg),
                            $crate::strategy::Strategy::generate(&($strat), __rng)),
                    )*];
                    __input.join(", ")
                });
            }
        )*
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), __l, __r
        );
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($left), stringify!($right), __l
        );
    }};
}

/// Discard the current case (regenerated, does not count toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(format!($($fmt)*)),
            );
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` paths (`prop::collection`, `prop::sample`) that upstream
    /// re-exports through its prelude.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        A(u64),
        B(Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..100).prop_map(Op::A),
            prop::collection::vec(any::<u8>(), 0..8).prop_map(Op::B),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(
            a in 3u32..17,
            f in -2.0f64..5.0,
            pick in prop::sample::select(vec![10usize, 20, 30]),
        ) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-2.0..5.0).contains(&f));
            prop_assert!(pick % 10 == 0 && pick <= 30);
        }

        #[test]
        fn vec_lengths_and_tuples(
            v in prop::collection::vec((any::<bool>(), 0u8..4), 2..6),
            ops in prop::collection::vec(op_strategy(), 1..5),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!((1..5).contains(&ops.len()));
            for (_, small) in &v {
                prop_assert!(*small < 4);
            }
            for op in &ops {
                match op {
                    Op::A(x) => prop_assert!((1..100).contains(x)),
                    Op::B(b) => prop_assert!(b.len() < 8),
                }
            }
        }

        #[test]
        fn arrays_and_assume(xs in any::<[f64; 3]>(), n in 0u64..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
            for x in xs {
                prop_assert!(x.is_finite());
            }
        }

        #[test]
        fn just_clones(v in Just(vec![1u8, 2, 3])) {
            prop_assert_eq!(v, vec![1u8, 2, 3]);
        }

        #[test]
        #[should_panic(expected = "minimal failing input: n = 10, seed = 0\n")]
        fn failure_shrinks_to_the_smallest_input(n in 0u64..1000, seed in any::<u64>()) {
            prop_assert!(n < 10 || seed == u64::MAX);
        }

        #[test]
        #[should_panic(expected = "minimal failing input: v = [0, 0, 7]\npanicked: too big")]
        fn a_panic_shrinks_too(v in prop::collection::vec(0u8..100, 0..20)) {
            assert!(v.len() < 3 || v[2] < 7, "too big");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        use crate::strategy::Strategy as _;
        use crate::test_runner::TestRng;
        let s = prop::collection::vec(0u32..1000, 1..10);
        let a: Vec<Vec<u32>> = {
            let mut rng = TestRng::from_seed(9);
            (0..5).map(|_| s.generate(&mut rng)).collect()
        };
        let b: Vec<Vec<u32>> = {
            let mut rng = TestRng::from_seed(9);
            (0..5).map(|_| s.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "case seed")]
    fn failure_reports_seed() {
        crate::test_runner::run(
            &ProptestConfig::with_cases(4),
            "always_fails",
            |_rng| Err(TestCaseError::fail("nope")),
            |_rng| String::new(),
        );
    }
}
