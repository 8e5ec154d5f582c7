//! Integration test: the full x86-TSO litmus suite on both correct protocols.
//!
//! Every shape of the diy-style suite must satisfy TSO on the correct MESI and
//! TSO-CC designs — this is the strongest "no false positives" statement the
//! repository makes, and it runs the complete simulator + observer + checker
//! path for every shape.  One test also shows the other side for a
//! single-thread shape: `CoWW` catches an injected store-buffer bug.

use mcversi::core::{McVerSiConfig, RunVerdict, TestRunner};
use mcversi::mcm::Address;
use mcversi::sim::{Bug, BugConfig, ProtocolKind};
use mcversi::testgen::litmus::{self, LitmusTest};

/// The x86-TSO suite over three line-separated addresses.
fn x86_tso_suite() -> Vec<LitmusTest> {
    litmus::x86_tso_suite(&[Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)])
}

fn run_suite(protocol: ProtocolKind, repeats: usize, seed: u64) {
    let suite = x86_tso_suite();
    let mut config = McVerSiConfig::small().with_iterations(2).with_seed(seed);
    config.system.protocol = protocol;
    let mut runner = TestRunner::new(config, BugConfig::none());
    for t in &suite {
        let test = litmus::repeat_test(&t.test, repeats);
        let result = runner.run_test(&test);
        assert!(
            !result.verdict.is_bug(),
            "{} violated TSO on correct {}: {:?}",
            t.name,
            protocol.name(),
            result.verdict
        );
    }
    assert!(
        runner.total_coverage() > 0.2,
        "suite exercised little of the protocol"
    );
}

#[test]
fn litmus_suite_passes_on_correct_mesi() {
    run_suite(ProtocolKind::Mesi, 4, 21);
}

#[test]
fn litmus_suite_passes_on_correct_tsocc() {
    run_suite(ProtocolKind::TsoCc, 4, 22);
}

#[test]
fn suite_has_the_paper_size() {
    assert!(x86_tso_suite().len() >= 38);
}

/// A one-thread test can still break coherence: `CoWW` (`W x; W x` on one
/// thread) repeated eight times catches `SQ+no-FIFO`, whose store buffer
/// drains same-address stores out of order, as an `sc-per-location`
/// violation, and is silent on the bug-free design.
#[test]
fn one_thread_coww_catches_an_out_of_order_store_buffer() {
    let coww = x86_tso_suite()
        .into_iter()
        .find(|t| t.name == "CoWW")
        .expect("the suite has CoWW");
    assert_eq!(coww.test.num_threads(), 1);
    let test = litmus::repeat_test(&coww.test, 8);
    let config = McVerSiConfig::small().with_iterations(10).with_seed(1);

    let mut buggy = TestRunner::new(config.clone(), BugConfig::single(Bug::SqNoFifo));
    let violation = (0..3)
        .find_map(|_| match buggy.run_test(&test).verdict {
            RunVerdict::McmViolation(v) => Some(v),
            other => {
                assert!(!other.is_bug(), "CoWW on SQ+no-FIFO: {other:?}");
                None
            }
        })
        .expect("SQ+no-FIFO escaped three test-runs of CoWW");
    assert_eq!(violation.axiom, "sc-per-location");

    let mut correct = TestRunner::new(config, BugConfig::none());
    for run in 0..50 {
        let verdict = correct.run_test(&test).verdict;
        assert!(
            !verdict.is_bug(),
            "test-run {run} of CoWW on the correct design: {verdict:?}"
        );
    }
}

/// End-to-end oracle cross-check (sound-by-construction): run the toy-scale
/// enumerated corpus through the simulator on both core strengths and every
/// model, and assert the checker verdict never contradicts the enumerator's
/// "forbidden" prediction.
///
/// The contract: correct hardware of strength `H` only produces executions
/// its architectural contract allows (strong core: TSO and weaker; relaxed
/// core: ARMish/POWERish/RMO).  A cycle the enumerator marks *forbidden*
/// under such a model is therefore unreachable on the correct design — if
/// the checker nevertheless reports a violation, either the oracle, the
/// checker or the lowering is wrong.  For models *stronger* than the
/// hardware (SC everywhere; TSO on the relaxed core) violations are
/// architecturally expected; those pairs still run (exercising checker and
/// corpus) and must at least stay free of protocol faults and hangs.
#[test]
fn enumerated_corpus_oracle_cross_check_at_toy_scale() {
    use mcversi::mcm::ModelKind;
    use mcversi::sim::CoreStrength;
    use mcversi::testgen::enumerate::{enumerate, EnumerationBounds};

    let corpus = enumerate(&EnumerationBounds::new(2, 4));
    assert!(corpus.len() >= 50, "toy corpus too small: {}", corpus.len());
    let locations = [
        mcversi::mcm::Address(0x10_0000),
        mcversi::mcm::Address(0x10_0040),
        mcversi::mcm::Address(0x10_0080),
    ];
    let sound = |core: CoreStrength, model: ModelKind| match core {
        CoreStrength::Strong => model != ModelKind::Sc,
        CoreStrength::Relaxed => model.is_relaxed(),
    };

    let mut expected_violations = 0usize;
    for core in CoreStrength::ALL {
        for model in ModelKind::ALL {
            let mut config = McVerSiConfig::small().with_iterations(1).with_seed(97);
            config.system.core_strength = core;
            let config = config.retarget(model);
            let mut runner = TestRunner::new(config, BugConfig::none());
            for test in corpus.iter() {
                let lowered = test.litmus(&locations);
                let repeated = litmus::repeat_test(&lowered.test, 4);
                let result = runner.run_test(&repeated);
                match &result.verdict {
                    v if !v.is_bug() => {}
                    mcversi::core::RunVerdict::McmViolation(violation) => {
                        assert!(
                            !sound(core, model),
                            "{} on the correct {core} core violated {model} \
                             (axiom {}), contradicting the enumerator's prediction \
                             (forbidden={})",
                            test.name,
                            violation.axiom,
                            test.forbidden_under(model),
                        );
                        expected_violations += 1;
                    }
                    other => panic!("{} under {model}/{core}: {other:?}", test.name),
                }
            }
        }
    }
    // The sweep must bite: hardware weaker than the model does get flagged
    // (the strong core's store buffer alone breaks SC), otherwise the
    // soundness half of the check would be vacuous.
    assert!(
        expected_violations > 0,
        "no architecturally-expected violation observed — toy runs too short?"
    );
}
