//! Pins the verdict of every golden trace fixture through the library path
//! (parse → lower → infer coherence → `VcChecker`), and — for the fixtures a
//! complete execution exists for — cross-checks against the axiomatic
//! checker.  The `mcversi-check` binary round-trips the same fixtures in
//! `crates/core/tests/check_traces.rs`.

use mcversi_conformance::{
    infer_coherence, parse, AbstainReason, CoherenceInference, VcChecker, VcVerdict,
};
use mcversi_mcm::{Checker, ModelKind};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses and lowers a fixture and infers its coherence order; returns the
/// trace's model (TSO when it declares none) and the inference outcome.
fn infer(name: &str) -> (ModelKind, CoherenceInference) {
    let program = parse(&fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let model = program.model.unwrap_or(ModelKind::Tso);
    let lowered = program.lower().unwrap_or_else(|e| panic!("{name}: {e}"));
    (model, infer_coherence(&lowered.exec, &lowered.finals))
}

/// (fixture, expected verdict) — the binary's exit-code pins mirror these.
const EXPECTATIONS: [(&str, Expected); 8] = [
    ("sc_valid.trace", Expected::Valid),
    ("sc_violation.trace", Expected::Violation),
    ("tso_valid.trace", Expected::Valid),
    ("tso_violation.trace", Expected::Violation),
    ("armish_valid.trace", Expected::ValidViaFallback),
    ("rmo_violation.trace", Expected::Violation),
    ("tso_undecided.trace", Expected::Undecided),
    ("final_unwritten.trace", Expected::FinalMismatch),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    /// `VcChecker` alone certifies the trace.
    Valid,
    /// The trace violates its model (in `VcChecker`, or as a coherence
    /// contradiction before it runs).
    Violation,
    /// `VcChecker` abstains; the axiomatic checker certifies.
    ValidViaFallback,
    /// The observations underdetermine the coherence order.
    Undecided,
    /// The final state names a value no store wrote.
    FinalMismatch,
}

#[test]
fn golden_fixtures_produce_their_pinned_verdicts() {
    for (name, expected) in EXPECTATIONS {
        let (model, inference) = infer(name);
        let exec = match inference {
            CoherenceInference::Complete(exec) => exec,
            CoherenceInference::Contradiction { .. } => {
                assert_eq!(expected, Expected::Violation, "{name}: contradiction");
                continue;
            }
            CoherenceInference::FinalMismatch { .. } => {
                assert_eq!(expected, Expected::FinalMismatch, "{name}: final mismatch");
                continue;
            }
            CoherenceInference::Underdetermined { .. } => {
                assert_eq!(expected, Expected::Undecided, "{name}: underdetermined");
                continue;
            }
        };
        let verdict = VcChecker::new(model).check(&exec);
        match expected {
            Expected::Valid => {
                assert!(verdict.is_valid(), "{name}: expected valid, got {verdict}");
            }
            Expected::Violation => {
                assert!(
                    verdict.is_violation(),
                    "{name}: expected violation, got {verdict}"
                );
            }
            Expected::ValidViaFallback => {
                assert!(
                    matches!(verdict, VcVerdict::Abstain(AbstainReason::WeakModel(_))),
                    "{name}: expected a weak-model abstention, got {verdict}"
                );
                let axiomatic = Checker::new(model.instance()).check(&exec);
                assert!(
                    !axiomatic.is_violation(),
                    "{name}: axiomatic fallback must certify the trace"
                );
            }
            Expected::Undecided | Expected::FinalMismatch => {
                panic!("{name}: inference completed, got {verdict}");
            }
        }
        // Wherever a complete execution exists, the axiomatic checker must
        // agree with the decided verdicts.
        if verdict.is_valid() || verdict.is_violation() {
            let axiomatic = Checker::new(model.instance()).check(&exec);
            assert_eq!(
                verdict.is_violation(),
                axiomatic.is_violation(),
                "{name}: VcChecker and axiomatic verdicts disagree"
            );
        }
    }
}

#[test]
fn model_override_changes_the_verdict_of_the_sb_shape() {
    // The SB fixture is TSO-valid but SC-forbidden: the same trace checked
    // against SC must flip to a violation (this is what `--model` does).
    let (_, inference) = infer("tso_valid.trace");
    let CoherenceInference::Complete(exec) = inference else {
        panic!("SB's coherence order is determined: {inference:?}");
    };
    assert!(VcChecker::new(ModelKind::Tso).check(&exec).is_valid());
    assert!(VcChecker::new(ModelKind::Sc).check(&exec).is_violation());
}
