//! The polynomial-time execution checker.
//!
//! In simulation all conflict orders (`rf`, `co`) are visible, so checking a
//! candidate execution against an axiomatic model reduces to a handful of
//! cycle searches over derived relations (paper §4.1).  The checker first
//! validates well-formedness of the recorded execution object (a malformed
//! object indicates an observer bug, reported distinctly), then evaluates
//! every [`Axiom`] of the target [`Architecture`] and reports the first
//! violated one together with a witness cycle for debugging.

use crate::event::EventId;
use crate::execution::{CandidateExecution, WellFormednessError};
use crate::model::{Architecture, Axiom};
use mcversi_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Executions checked (`try_check` invocations).
static CHECKS: telemetry::Counter = telemetry::Counter::new("mcm.checks");
/// Axioms evaluated across all checks.
static AXIOM_EVALS: telemetry::Counter = telemetry::Counter::new("mcm.axiom_evals");
/// Size (pair count) of each axiom's derived relation at evaluation time.
static RELATION_SIZE: telemetry::Histogram = telemetry::Histogram::new("mcm.relation.size");

/// A consistency violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Name of the model that was checked (e.g. `"TSO"`).
    pub model: String,
    /// Name of the violated axiom (e.g. `"ghb"`).
    pub axiom: String,
    /// Witness: a cycle (for acyclicity axioms) or the offending pairs
    /// flattened into a list (for emptiness axioms).
    pub witness: Vec<EventId>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violation of axiom '{}' (witness: {} events)",
            self.model,
            self.axiom,
            self.witness.len()
        )
    }
}

/// Result of checking one candidate execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The execution is allowed by the model.
    Valid,
    /// The execution violates the model.
    Invalid(Violation),
}

impl Verdict {
    /// Returns `true` if the execution was found valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }

    /// Returns `true` if the execution violates the model.
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Invalid(_))
    }

    /// Returns the violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Valid => None,
            Verdict::Invalid(v) => Some(v),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Valid => write!(f, "valid"),
            Verdict::Invalid(v) => write!(f, "invalid: {v}"),
        }
    }
}

/// Errors returned by [`Checker::try_check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The execution object itself is malformed (observer bug, not an MCM bug).
    MalformedExecution(WellFormednessError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::MalformedExecution(e) => write!(f, "malformed execution: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<WellFormednessError> for CheckError {
    fn from(e: WellFormednessError) -> Self {
        CheckError::MalformedExecution(e)
    }
}

/// Checks candidate executions against a target model.
///
/// The checker borrows the model so one checker can be reused across the many
/// test-run iterations of a verification campaign.
#[derive(Debug, Clone, Copy)]
pub struct Checker<'m> {
    model: &'m dyn Architecture,
}

impl<'m> Checker<'m> {
    /// Creates a checker for the given model.
    pub fn new(model: &'m dyn Architecture) -> Self {
        Checker { model }
    }

    /// The model this checker verifies against.
    pub fn model(&self) -> &dyn Architecture {
        self.model
    }

    /// Checks an execution, panicking if the execution object is malformed.
    ///
    /// # Panics
    ///
    /// Panics if the execution fails well-formedness validation; use
    /// [`try_check`](Self::try_check) to handle that case gracefully.
    pub fn check(&self, exec: &CandidateExecution) -> Verdict {
        self.try_check(exec)
            .expect("execution object must be well formed")
    }

    /// Checks an execution.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::MalformedExecution`] if the recorded execution
    /// object is not well formed (e.g. a read with no reads-from source).
    pub fn try_check(&self, exec: &CandidateExecution) -> Result<Verdict, CheckError> {
        exec.validate()?;
        CHECKS.incr();
        for axiom in self.model.axioms(exec) {
            AXIOM_EVALS.incr();
            match axiom {
                Axiom::Acyclic { name, relation } => {
                    RELATION_SIZE.record(relation.len() as u64);
                    if let Some(cycle) = relation.find_cycle() {
                        return Ok(Verdict::Invalid(Violation {
                            model: self.model.name().to_string(),
                            axiom: name.to_string(),
                            witness: cycle,
                        }));
                    }
                }
                Axiom::Empty { name, relation } => {
                    RELATION_SIZE.record(relation.len() as u64);
                    if !relation.is_empty() {
                        let witness = relation.iter().flat_map(|(a, b)| [a, b]).collect();
                        return Ok(Verdict::Invalid(Violation {
                            model: self.model.name().to_string(),
                            axiom: name.to_string(),
                            witness,
                        }));
                    }
                }
            }
        }
        Ok(Verdict::Valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Address, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;
    use crate::model::sc::Sc;
    use crate::model::tso::Tso;

    fn mp_violation() -> CandidateExecution {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        let rx = b.read(p1, x, Value(0));
        b.reads_from(wy, ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        b.build()
    }

    #[test]
    fn violation_carries_model_axiom_and_witness() {
        let exec = mp_violation();
        let verdict = Checker::new(&Tso).check(&exec);
        let violation = verdict.violation().expect("must be a violation");
        assert_eq!(violation.model, "TSO");
        assert!(!violation.witness.is_empty());
        assert!(!format!("{violation}").is_empty());
        assert!(format!("{verdict}").starts_with("invalid"));
    }

    #[test]
    fn valid_verdict_display() {
        let v = Verdict::Valid;
        assert!(v.is_valid());
        assert!(!v.is_violation());
        assert_eq!(v.violation(), None);
        assert_eq!(format!("{v}"), "valid");
    }

    #[test]
    fn malformed_execution_reported_as_error() {
        let mut b = ExecutionBuilder::new();
        b.read(ProcessorId(0), Address(0x10), Value(0));
        let exec = b.build();
        let err = Checker::new(&Tso).try_check(&exec).unwrap_err();
        assert!(matches!(err, CheckError::MalformedExecution(_)));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn checker_is_model_relative() {
        // SB outcome: valid under TSO, invalid under SC.
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let w0 = b.write(p0, x, Value(1));
        let r0 = b.read(p0, y, Value(0));
        let w1 = b.write(p1, y, Value(1));
        let r1 = b.read(p1, x, Value(0));
        b.reads_from_initial(r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        let exec = b.build();
        assert!(Checker::new(&Tso).check(&exec).is_valid());
        assert!(Checker::new(&Sc).check(&exec).is_violation());
    }

    #[test]
    fn empty_execution_is_valid() {
        let exec = ExecutionBuilder::new().build();
        assert!(Checker::new(&Tso).check(&exec).is_valid());
        assert!(exec.is_empty());
    }
}
