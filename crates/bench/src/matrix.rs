//! Cross-model litmus verdict matrix.
//!
//! For every weak-model litmus shape the subsystem supports, this module
//! builds the *canonical weak outcome* — the candidate execution a maximally
//! relaxed machine could produce, with its dependency edges and fence events
//! recorded exactly as the simulator's observer would record them — and pins
//! the expected checker verdict under every [`ModelKind`].
//!
//! The matrix is printed by the `table4_bug_coverage` binary (demonstrating
//! that the dependency/fence machinery changes verdicts across models, e.g.
//! `MP` is forbidden under TSO but allowed under the ARM-ish model) and the
//! expectations double as differential regression tests.

use mcversi_mcm::checker::Checker;
use mcversi_mcm::signature::{classify_execution, OracleVerdict};
use mcversi_mcm::{
    Address, CandidateExecution, DepKind, ExecutionBuilder, FenceKind, ModelKind, ProcessorId,
    Value,
};
use mcversi_testgen::enumerate::{enumerate, EnumerationBounds};

/// One row of the matrix: a named weak outcome and, for every model in
/// [`ModelKind::ALL`] order, whether that outcome is expected to be forbidden.
#[derive(Debug)]
pub struct ShapeExpectation {
    /// Litmus shape name (herd-style, flavours inline).
    pub name: &'static str,
    /// The canonical weak-outcome execution.
    pub exec: CandidateExecution,
    /// Expected "forbidden" verdict per model, in [`ModelKind::ALL`] order.
    pub forbidden: [bool; 5],
}

struct Mp {
    writer_fence: Option<FenceKind>,
    reader_dep: bool,
    reader_fence: Option<FenceKind>,
}

fn mp(cfg: Mp) -> CandidateExecution {
    let mut b = ExecutionBuilder::new();
    let (p0, p1) = (ProcessorId(0), ProcessorId(1));
    let (x, y) = (Address(0x100), Address(0x200));
    let wx = b.write(p0, x, Value(1));
    if let Some(kind) = cfg.writer_fence {
        b.fence(p0, kind);
    }
    let wy = b.write(p0, y, Value(2));
    let ry = b.read(p1, y, Value(2));
    if let Some(kind) = cfg.reader_fence {
        b.fence(p1, kind);
    }
    let rx = b.read(p1, x, Value(0));
    if cfg.reader_dep {
        b.dependency(DepKind::Addr, ry, rx);
    }
    b.reads_from(wy, ry);
    b.reads_from_initial(rx);
    b.coherence_after_initial(wx);
    b.coherence_after_initial(wy);
    b.build()
}

fn sb(fence: Option<FenceKind>) -> CandidateExecution {
    let mut b = ExecutionBuilder::new();
    let (p0, p1) = (ProcessorId(0), ProcessorId(1));
    let (x, y) = (Address(0x100), Address(0x200));
    let wx = b.write(p0, x, Value(1));
    if let Some(kind) = fence {
        b.fence(p0, kind);
    }
    let ry = b.read(p0, y, Value(0));
    let wy = b.write(p1, y, Value(2));
    if let Some(kind) = fence {
        b.fence(p1, kind);
    }
    let rx = b.read(p1, x, Value(0));
    b.reads_from_initial(ry);
    b.reads_from_initial(rx);
    b.coherence_after_initial(wx);
    b.coherence_after_initial(wy);
    b.build()
}

fn lb(dep: Option<DepKind>, fence: Option<FenceKind>) -> CandidateExecution {
    let mut b = ExecutionBuilder::new();
    let (p0, p1) = (ProcessorId(0), ProcessorId(1));
    let (x, y) = (Address(0x100), Address(0x200));
    let rx = b.read(p0, x, Value(2));
    if let Some(kind) = fence {
        b.fence(p0, kind);
    }
    let wy = b.write(p0, y, Value(1));
    let ry = b.read(p1, y, Value(1));
    if let Some(kind) = fence {
        b.fence(p1, kind);
    }
    let wx = b.write(p1, x, Value(2));
    if let Some(kind) = dep {
        b.dependency(kind, rx, wy);
        b.dependency(kind, ry, wx);
    }
    b.reads_from(wx, rx);
    b.reads_from(wy, ry);
    b.coherence_after_initial(wx);
    b.coherence_after_initial(wy);
    b.build()
}

fn wrc(middle: Option<FenceKind>, deps: bool) -> CandidateExecution {
    let mut b = ExecutionBuilder::new();
    let (x, y) = (Address(0x100), Address(0x200));
    let wx = b.write(ProcessorId(0), x, Value(1));
    let r1x = b.read(ProcessorId(1), x, Value(1));
    if let Some(kind) = middle {
        b.fence(ProcessorId(1), kind);
    }
    let w1y = b.write(ProcessorId(1), y, Value(2));
    if deps && middle.is_none() {
        b.dependency(DepKind::Data, r1x, w1y);
    }
    let r2y = b.read(ProcessorId(2), y, Value(2));
    let r2x = b.read(ProcessorId(2), x, Value(0));
    if deps || middle.is_some() {
        b.dependency(DepKind::Addr, r2y, r2x);
    }
    b.reads_from(wx, r1x);
    b.reads_from(w1y, r2y);
    b.reads_from_initial(r2x);
    b.coherence_after_initial(wx);
    b.coherence_after_initial(w1y);
    b.build()
}

fn iriw(deps: bool, fence: Option<FenceKind>) -> CandidateExecution {
    let mut b = ExecutionBuilder::new();
    let (x, y) = (Address(0x100), Address(0x200));
    let wx = b.write(ProcessorId(0), x, Value(1));
    let wy = b.write(ProcessorId(1), y, Value(2));
    let r2x = b.read(ProcessorId(2), x, Value(1));
    if let Some(kind) = fence {
        b.fence(ProcessorId(2), kind);
    }
    let r2y = b.read(ProcessorId(2), y, Value(0));
    let r3y = b.read(ProcessorId(3), y, Value(2));
    if let Some(kind) = fence {
        b.fence(ProcessorId(3), kind);
    }
    let r3x = b.read(ProcessorId(3), x, Value(0));
    if deps {
        b.dependency(DepKind::Addr, r2x, r2y);
        b.dependency(DepKind::Addr, r3y, r3x);
    }
    b.reads_from(wx, r2x);
    b.reads_from_initial(r2y);
    b.reads_from(wy, r3y);
    b.reads_from_initial(r3x);
    b.coherence_after_initial(wx);
    b.coherence_after_initial(wy);
    b.build()
}

fn s_shape() -> CandidateExecution {
    // T0: W x=2; W y=1.  T1: R y=1; W x=1.  Weak outcome: T1's write to x is
    // coherence-ordered before T0's.
    let mut b = ExecutionBuilder::new();
    let (p0, p1) = (ProcessorId(0), ProcessorId(1));
    let (x, y) = (Address(0x100), Address(0x200));
    let wx0 = b.write(p0, x, Value(2));
    let wy = b.write(p0, y, Value(1));
    let ry = b.read(p1, y, Value(1));
    let wx1 = b.write(p1, x, Value(1));
    b.reads_from(wy, ry);
    b.coherence_after_initial(wx1);
    b.coherence(wx1, wx0);
    b.coherence_after_initial(wy);
    b.build()
}

/// Builds every pinned shape with its expected per-model verdicts.
///
/// Columns follow [`ModelKind::ALL`]: `[SC, TSO, ARMish, POWERish, RMO]`;
/// `true` means the weak outcome is forbidden (checker reports a violation).
pub fn shape_expectations() -> Vec<ShapeExpectation> {
    use FenceKind::*;
    let full = Some(Full);
    vec![
        ShapeExpectation {
            name: "MP",
            exec: mp(Mp {
                writer_fence: None,
                reader_dep: false,
                reader_fence: None,
            }),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "MP+addr",
            exec: mp(Mp {
                writer_fence: None,
                reader_dep: true,
                reader_fence: None,
            }),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "MP+mfence+addr",
            exec: mp(Mp {
                writer_fence: full,
                reader_dep: true,
                reader_fence: None,
            }),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "MP+lwsync+addr",
            exec: mp(Mp {
                writer_fence: Some(LightweightSync),
                reader_dep: true,
                reader_fence: None,
            }),
            forbidden: [true, true, false, true, false],
        },
        ShapeExpectation {
            name: "MP+rel+addr",
            exec: mp(Mp {
                writer_fence: Some(Release),
                reader_dep: true,
                reader_fence: None,
            }),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "MP+mfences",
            exec: mp(Mp {
                writer_fence: full,
                reader_dep: false,
                reader_fence: full,
            }),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "SB",
            exec: sb(None),
            forbidden: [true, false, false, false, false],
        },
        ShapeExpectation {
            name: "SB+mfences",
            exec: sb(full),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "SB+lwsyncs",
            exec: sb(Some(LightweightSync)),
            forbidden: [true, false, false, false, false],
        },
        ShapeExpectation {
            name: "LB",
            exec: lb(None, None),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "LB+datas",
            exec: lb(Some(DepKind::Data), None),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "LB+mfences",
            exec: lb(None, full),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "WRC+data+addr",
            exec: wrc(None, true),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "WRC+mfence+addr",
            exec: wrc(full, true),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "IRIW",
            exec: iriw(false, None),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "IRIW+addrs",
            exec: iriw(true, None),
            forbidden: [true, true, false, false, false],
        },
        ShapeExpectation {
            name: "IRIW+mfences",
            exec: iriw(false, full),
            forbidden: [true, true, true, true, true],
        },
        ShapeExpectation {
            name: "S",
            exec: s_shape(),
            forbidden: [true, true, false, false, false],
        },
    ]
}

/// Checks one shape under one model; returns `true` when forbidden.
pub fn is_forbidden(exec: &CandidateExecution, model: ModelKind) -> bool {
    Checker::new(model.instance()).check(exec).is_violation()
}

/// Verifies the enumerated corpus against the axiomatic checker: for every
/// enumerated test × model, the closed-form oracle's verdict must equal the
/// checker's verdict on the cycle's canonical weak-outcome execution.
///
/// This is the corpus-wide independent-oracle guarantee the litmus
/// enumeration subsystem rests on (the pinned [`shape_expectations`] cover
/// the classic shapes by hand; this covers *all* of them mechanically).
/// Returns `(summary, mismatches)`.
pub fn verify_enumerated_corpus(bounds: &EnumerationBounds) -> (String, usize) {
    use std::fmt::Write as _;
    let corpus = enumerate(bounds);
    let mut mismatches = 0usize;
    let mut per_model_forbidden = [0usize; ModelKind::ALL.len()];
    let mut out = String::new();
    for test in corpus.iter() {
        match verify_one(test) {
            Err(diagnostics) => {
                out.push_str(&diagnostics);
                mismatches += diagnostics.lines().count();
            }
            Ok(checker_forbidden) => {
                for (count, forbidden) in per_model_forbidden.iter_mut().zip(checker_forbidden) {
                    *count += forbidden as usize;
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "{} enumerated tests at {}x{}; forbidden per model:",
        corpus.len(),
        bounds.max_threads,
        bounds.max_edges
    );
    for (i, model) in ModelKind::ALL.into_iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>9}: {:>5} forbidden / {:>5} allowed",
            model.name(),
            per_model_forbidden[i],
            corpus.len() - per_model_forbidden[i]
        );
    }
    (out, mismatches)
}

/// Verifies one enumerated test: builds the canonical weak-outcome execution
/// and compares the checker's verdict with the oracle's under every model.
///
/// Returns the checker's per-model verdict row on success (it then equals
/// the test's `forbidden` row), or the newline-separated mismatch
/// diagnostics.  Shared by [`verify_enumerated_corpus`] and the test-suite
/// samples so the comparison contract has exactly one implementation.
pub fn verify_one(test: &mcversi_testgen::EnumeratedTest) -> Result<[bool; 5], String> {
    use std::fmt::Write as _;
    let exec = test.cycle.canonical_execution();
    if let Err(e) = exec.validate() {
        return Err(format!(
            "{}: malformed canonical execution: {e:?}\n",
            test.name
        ));
    }
    let mut row = [false; ModelKind::ALL.len()];
    let mut diagnostics = String::new();
    for (i, model) in ModelKind::ALL.into_iter().enumerate() {
        row[i] = is_forbidden(&exec, model);
        if row[i] != test.forbidden[i] {
            let _ = writeln!(
                diagnostics,
                "{} under {}: oracle says forbidden={}, checker says {}",
                test.name, model, test.forbidden[i], row[i]
            );
        }
    }
    if diagnostics.is_empty() {
        Ok(row)
    } else {
        Err(diagnostics)
    }
}

/// Verifies the cycle oracle (a zero-checker engine the benchmark prices,
/// off the campaign path) against the axiomatic checker over the enumerated
/// corpus: for every test × model, an oracle verdict that certifies validity
/// must coincide with a passing `Checker::check`, a forbidden-cycle verdict
/// with a violation, and the oracle must never abstain — these canonical
/// weak-outcome executions are exactly the critical cycles the oracle is
/// built to classify.  Returns `(summary, mismatches)`.
pub fn verify_oracle_conformance(bounds: &EnumerationBounds) -> (String, usize) {
    use std::fmt::Write as _;
    let corpus = enumerate(bounds);
    let mut mismatches = 0usize;
    let mut certified_valid = 0usize;
    let mut forbidden = 0usize;
    let mut out = String::new();
    for test in corpus.iter() {
        let exec = test.cycle.canonical_execution();
        for model in ModelKind::ALL {
            let oracle = classify_execution(&exec, model);
            let checker_forbids = is_forbidden(&exec, model);
            let agrees = match oracle {
                OracleVerdict::Undecided => false,
                OracleVerdict::ForbiddenCycle => checker_forbids,
                OracleVerdict::ScConsistent | OracleVerdict::AllowedCycles => !checker_forbids,
            };
            if !agrees {
                mismatches += 1;
                let _ = writeln!(
                    out,
                    "{} under {}: oracle says {:?}, checker says forbidden={}",
                    test.name, model, oracle, checker_forbids
                );
            } else if checker_forbids {
                forbidden += 1;
            } else {
                certified_valid += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "{} enumerated tests x {} models: {} oracle-certified valid, \
         {} forbidden, {} mismatches",
        corpus.len(),
        ModelKind::ALL.len(),
        certified_valid,
        forbidden,
        mismatches
    );
    (out, mismatches)
}

/// Verifies `VcChecker` (`mcversi-conformance`), which runs SC's axioms for
/// the dependency-ordered models, against the axiomatic checker of each
/// model over the enumerated corpus: for every test × model, a decided vc
/// verdict must equal the checker's, and vc may abstain only under the
/// dependency-ordered models (it decides SC and TSO exactly).  Returns
/// `(summary, mismatches)`.
pub fn verify_vc_conformance(bounds: &EnumerationBounds) -> (String, usize) {
    use mcversi_conformance::VcChecker;
    use std::fmt::Write as _;
    let corpus = enumerate(bounds);
    let mut mismatches = 0usize;
    let mut decided_valid = 0usize;
    let mut decided_forbidden = 0usize;
    let mut abstained = 0usize;
    let mut out = String::new();
    for test in corpus.iter() {
        let exec = test.cycle.canonical_execution();
        for model in ModelKind::ALL {
            let vc = VcChecker::new(model).check(&exec);
            let checker_forbids = is_forbidden(&exec, model);
            let agrees = if vc.is_abstain() {
                model.is_relaxed()
            } else {
                vc.is_violation() == checker_forbids
            };
            if !agrees {
                mismatches += 1;
                let _ = writeln!(
                    out,
                    "{} under {}: vc says {vc}, checker says forbidden={}",
                    test.name, model, checker_forbids
                );
            } else if vc.is_abstain() {
                abstained += 1;
            } else if checker_forbids {
                decided_forbidden += 1;
            } else {
                decided_valid += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "{} enumerated tests x {} models: {} vc-certified valid, \
         {} forbidden, {} abstained, {} mismatches",
        corpus.len(),
        ModelKind::ALL.len(),
        decided_valid,
        decided_forbidden,
        abstained,
        mismatches
    );
    (out, mismatches)
}

/// Renders the verdict matrix and compares live checker verdicts against the
/// pinned expectations.  Returns `(rendered table, mismatches)`.
pub fn render_matrix() -> (String, usize) {
    use std::fmt::Write as _;
    let shapes = shape_expectations();
    let name_w = shapes
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(8)
        .max("Shape".len());
    let mut out = String::new();
    let _ = write!(out, "{:<name_w$}", "Shape");
    for model in ModelKind::ALL {
        let _ = write!(out, "  {:>9}", model.name());
    }
    let _ = writeln!(out);
    let mut mismatches = 0usize;
    for shape in &shapes {
        let _ = write!(out, "{:<name_w$}", shape.name);
        for (i, model) in ModelKind::ALL.into_iter().enumerate() {
            let got = is_forbidden(&shape.exec, model);
            let cell = match (got, got == shape.forbidden[i]) {
                (true, true) => "forbid",
                (false, true) => "allow",
                (true, false) => "forbid!?",
                (false, false) => "allow!?",
            };
            if got != shape.forbidden[i] {
                mismatches += 1;
            }
            let _ = write!(out, "  {cell:>9}");
        }
        let _ = writeln!(out);
    }
    (out, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The differential pin: every shape × model verdict matches the table.
    #[test]
    fn pinned_verdicts_hold_for_every_shape_and_model() {
        for shape in shape_expectations() {
            assert!(
                shape.exec.validate().is_ok(),
                "{} outcome is malformed: {:?}",
                shape.name,
                shape.exec.validate()
            );
            for (i, model) in ModelKind::ALL.into_iter().enumerate() {
                assert_eq!(
                    is_forbidden(&shape.exec, model),
                    shape.forbidden[i],
                    "{} under {}",
                    shape.name,
                    model
                );
            }
        }
    }

    /// The headline acceptance criterion: `MP` without fences gets a
    /// different verdict under TSO vs. the ARM-ish model.
    #[test]
    fn mp_differs_between_tso_and_armish() {
        let mp = shape_expectations()
            .into_iter()
            .find(|s| s.name == "MP")
            .unwrap();
        assert!(is_forbidden(&mp.exec, ModelKind::Tso));
        assert!(!is_forbidden(&mp.exec, ModelKind::Armish));
    }

    /// Model strength is monotone on the pinned outcomes: a shape allowed by
    /// a stronger model is allowed by every weaker one (columns ordered
    /// strongest → weakest except the ARMish/POWERish siblings).
    #[test]
    fn pinned_matrix_is_monotone() {
        for shape in shape_expectations() {
            let [sc, tso, armish, powerish, rmo] = shape.forbidden;
            // forbidden may only *decrease* down the chain.
            assert!(sc >= tso, "{}: SC weaker than TSO?", shape.name);
            assert!(tso >= armish, "{}: TSO weaker than ARMish?", shape.name);
            assert!(tso >= powerish, "{}: TSO weaker than POWERish?", shape.name);
            assert!(armish >= rmo, "{}: ARMish weaker than RMO?", shape.name);
            assert!(powerish >= rmo, "{}: POWERish weaker than RMO?", shape.name);
        }
    }

    #[test]
    fn render_matrix_reports_no_mismatches() {
        let (table, mismatches) = render_matrix();
        assert_eq!(mismatches, 0, "matrix:\n{table}");
        assert!(table.contains("MP+mfence+addr"));
        for model in ModelKind::ALL {
            assert!(table.contains(model.name()));
        }
    }

    /// The enumerated corpus subsumes every hand-pinned shape *with the same
    /// verdict row*: the closed-form oracle reproduces the expectations this
    /// module pins by hand (`SB+lwsyncs` is one canonical name shift away:
    /// the hand row spells it the same).
    #[test]
    fn enumerated_corpus_subsumes_the_pinned_expectations() {
        let corpus = enumerate(&EnumerationBounds::default());
        for shape in shape_expectations() {
            let test = corpus
                .iter()
                .find(|t| t.name == shape.name)
                .unwrap_or_else(|| panic!("pinned shape {} not enumerated", shape.name));
            assert_eq!(
                test.forbidden, shape.forbidden,
                "{}: oracle verdicts differ from the pinned row",
                shape.name
            );
        }
    }

    /// The corpus-wide oracle guarantee at the toy bound (fast; the default
    /// bound runs in the release-mode table4 binary and a strided sample in
    /// the workspace property tests).
    #[test]
    fn enumerated_toy_corpus_verifies_against_the_checker() {
        let (summary, mismatches) = verify_enumerated_corpus(&EnumerationBounds::new(2, 4));
        assert_eq!(mismatches, 0, "{summary}");
        assert!(summary.contains("enumerated tests"));
    }

    /// Conformance pin for the cycle oracle: its short-circuit decisions
    /// agree with `Checker::check` on every enumerated `2x4` test under
    /// every model, and it never abstains there.
    #[test]
    fn oracle_conforms_to_the_checker_on_the_toy_corpus() {
        let (summary, mismatches) = verify_oracle_conformance(&EnumerationBounds::new(2, 4));
        assert_eq!(mismatches, 0, "{summary}");
        assert!(summary.contains("0 mismatches"));
    }

    /// Conformance pin for the vector-clock first pass: its decided verdicts
    /// agree with `Checker::check` on every enumerated `2x4` test under every
    /// model, it never abstains under SC/TSO, and it decides at least some
    /// tests in both directions.
    #[test]
    fn vc_conforms_to_the_checker_on_the_toy_corpus() {
        let (summary, mismatches) = verify_vc_conformance(&EnumerationBounds::new(2, 4));
        assert_eq!(mismatches, 0, "{summary}");
        assert!(summary.contains("0 mismatches"));
    }

    /// And a deterministic stride of the default bound, so three-and
    /// four-thread cycles get checker-verified in tier-1 as well.
    #[test]
    fn enumerated_default_corpus_sample_verifies_against_the_checker() {
        let corpus = enumerate(&EnumerationBounds::default());
        for test in corpus.iter().step_by(7) {
            if let Err(diagnostics) = verify_one(test) {
                panic!("{diagnostics}");
            }
        }
    }
}
