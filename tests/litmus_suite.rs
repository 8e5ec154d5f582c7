//! Integration test: the full x86-TSO litmus suite on both correct protocols.
//!
//! Every shape of the diy-style suite must satisfy TSO on the correct MESI and
//! TSO-CC designs — this is the strongest "no false positives" statement the
//! repository makes, and it runs the complete simulator + observer + checker
//! path for every shape.

use mcversi::core::{McVerSiConfig, TestRunner};
use mcversi::mcm::Address;
use mcversi::sim::{BugConfig, ProtocolKind};
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
