//! Integration tests of the static analysis crate against the rest of the
//! stack:
//!
//! * **Static/dynamic dependency differential** (proptest): the syntactic
//!   dependency graph [`Dataflow`](mcversi::analysis::Dataflow) computes from
//!   the IR alone must equal the graph the simulator's `ExecObserver` records
//!   while executing — for arbitrary generated tests under both the strong
//!   and the relaxed operation mix.  The static graph is a function of the
//!   program only, so one differential covers every `CoreStrength`: the
//!   observer allocates events and records dependencies before the core model
//!   is even chosen.
//! * **Corpus gate**: for every test of the enumerated litmus corpus, the
//!   static classifier run on the *lowered program* rediscovers the source
//!   critical cycle and reproduces the enumerator's per-model verdict row
//!   for it.

use mcversi::analysis::{classify, ClassifyBounds, Dataflow};
use mcversi::core::lowering::lower;
use mcversi::mcm::Address;
use mcversi::sim::observer::ExecObserver;
use mcversi::testgen::enumerate::{enumerate, EnumerationBounds};
use mcversi::testgen::{OperationBias, RandomTestGenerator, TestGenParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Distinct cache lines, enough for every corpus bound (cycles of up to
/// eight edges use at most four location classes).
const LOCATIONS: [Address; 4] = [
    Address(0x10_0000),
    Address(0x10_0040),
    Address(0x10_0080),
    Address(0x10_00c0),
];

fn params(test_size: usize, bias: OperationBias) -> TestGenParams {
    let mut params = TestGenParams::small()
        .with_test_size(test_size)
        .with_threads(4);
    params.bias = bias;
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The static dependency graph equals the observer's dynamic one for
    /// arbitrary generated tests, under both operation mixes.
    #[test]
    fn static_deps_equal_dynamic_deps(seed in 0u64..5000, size in 8usize..96) {
        let bias = if seed % 2 == 0 {
            OperationBias::paper_default()
        } else {
            OperationBias::relaxed_default()
        };
        let generator = RandomTestGenerator::new(params(size, bias));
        let test = generator.generate(&mut StdRng::seed_from_u64(seed));
        let program = lower(&test);
        let df = Dataflow::new(&program);
        let dynamic = ExecObserver::new(&program).finish();
        prop_assert_eq!(
            df.deps(),
            dynamic.deps(),
            "seed {}: static and dynamic dependency graphs diverge",
            seed
        );
        // Event allocation mirrors the observer too (initial writes are
        // created by `finish` with ids above the program events).
        let dynamic_events = dynamic.events().iter().filter(|e| !e.is_initial()).count();
        prop_assert_eq!(df.accesses().len() + df.fences().len(), dynamic_events);
    }

    /// Sampled corpus gate at the default enumeration bound (the toy-scale
    /// bound is swept exhaustively below): the classifier rediscovers the
    /// source cycle with the enumerator's verdict row.
    #[test]
    fn classifier_rediscovers_sampled_default_corpus_cycles(pick in 0usize..10_000) {
        let corpus = enumerate(&EnumerationBounds::default());
        let test = &corpus[pick % corpus.len()];
        let program = lower(&test.litmus(&LOCATIONS).test);
        let df = Dataflow::new(&program);
        let bounds = ClassifyBounds {
            max_edges: test.cycle.len(),
            ..ClassifyBounds::default()
        };
        let disc = classify(&df, &bounds);
        prop_assert!(!disc.truncated, "{}: classification truncated", test.name);
        prop_assert_eq!(
            disc.verdict_of(&test.cycle),
            Some(test.forbidden),
            "{}: source cycle missing or misjudged",
            &test.name
        );
    }
}

/// Exhaustive corpus gate at the toy-scale bound: every enumerated test's
/// static cycle set contains its source cycle with the right verdicts.  A
/// cycle in the set implies a cross-thread conflict and a statically
/// reachable outcome, so this is CI's static gate on the `2x4` corpus (it
/// replaced linting that corpus for conflict-free tests and unreachable
/// outcomes).
#[test]
fn every_toy_corpus_test_statically_contains_its_source_cycle() {
    let corpus = enumerate(&EnumerationBounds::new(2, 4));
    assert!(corpus.len() >= 50, "toy corpus too small: {}", corpus.len());
    let bounds = ClassifyBounds::default();
    for test in corpus.iter() {
        let program = lower(&test.litmus(&LOCATIONS).test);
        let df = Dataflow::new(&program);
        let disc = classify(&df, &bounds);
        assert!(!disc.truncated, "{}: classification truncated", test.name);
        assert_eq!(
            disc.verdict_of(&test.cycle),
            Some(test.forbidden),
            "{}: source cycle missing from the static cycle set or misjudged",
            test.name
        );
    }
}
