//! Polynomial-time conformance checking for McVerSi.
//!
//! Two halves, both motivated by the cost profile of the axiomatic checker
//! in `mcversi-mcm`:
//!
//! * [`vc`] — a vector-clock/frontier checker.  Per-location coherence
//!   order is inferred from the observed reads-from relation and the final
//!   memory state, then per-thread frontiers are propagated monotonically
//!   over the model's happens-before union.  The result is a three-valued
//!   [`VcVerdict`]: `Valid` and `Violation` are *exact* for SC and TSO,
//!   while the relaxed models abstain to the axiomatic checker whenever
//!   the cheap SC-shaped argument does not already certify the execution.
//!   `mcversi-check` uses this as its first pass; campaigns do not.
//!
//! * [`trace`] — black-box trace ingestion.  A versioned Axe-style
//!   `load/store/resp/fence` text format parsed by hand and lowered into a
//!   [`mcversi_mcm::CandidateExecution`], so traces
//!   from *external* simulators or RTL testbenches flow through the same
//!   checker stack via the `mcversi-check` binary.
//!
//! The glue between the halves is [`check_lowered`]: lower a trace, infer
//! the coherence order it left implicit, and run the vector-clock decision.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod trace;
pub mod vc;

pub use trace::{parse, LoweredTrace, TraceError, TraceOp, TraceProgram, TRACE_MAGIC_V1};
pub use vc::{
    frontier_acyclic, infer_coherence, AbstainReason, CoherenceInference, VcChecker, VcVerdict,
    VcWitness,
};

use mcversi_mcm::execution::CandidateExecution;
use mcversi_mcm::ModelKind;

/// Checks a lowered trace end to end: coherence inference first, then the
/// vector-clock decision for `model`.
///
/// Returns the completed execution alongside the verdict when inference
/// succeeded, so callers needing an authoritative diagnosis can hand the
/// same execution to the axiomatic [`Checker`](mcversi_mcm::Checker).
/// Inference outcomes map onto the verdict lattice:
///
/// * a coherence *contradiction* (the observations admit no coherence
///   order) violates sc-per-location under every model;
/// * a *final-state mismatch* (no store produced the observed final value)
///   is reported as a `final-state` violation;
/// * an *underdetermined* order abstains — only the axiomatic checker can
///   enumerate the completions.
pub fn check_lowered(
    lowered: &LoweredTrace,
    model: ModelKind,
) -> (VcVerdict, Option<CandidateExecution>) {
    match infer_coherence(&lowered.exec, &lowered.finals) {
        CoherenceInference::Complete(exec) => {
            let verdict = VcChecker::new(model).check(&exec);
            (verdict, Some(*exec))
        }
        CoherenceInference::Contradiction { witness, .. } => (
            VcVerdict::Violation(VcWitness {
                axiom: "sc-per-location",
                cycle: witness,
            }),
            None,
        ),
        CoherenceInference::FinalMismatch { .. } => (
            VcVerdict::Violation(VcWitness {
                axiom: "final-state",
                cycle: Vec::new(),
            }),
            None,
        ),
        CoherenceInference::Underdetermined { addr } => (
            VcVerdict::Abstain(AbstainReason::CoherenceUnderdetermined(addr)),
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trace_flows_from_text_to_verdict() {
        let text = "\
mcversi-trace v1
model sc
store 0 0x100 1
store 0 0x140 1
load 1 0x140
resp 1 1
load 1 0x100
resp 1 0
final 0x100 1
final 0x140 1
";
        let lowered = parse(text).expect("parses").lower().expect("lowers");
        let (verdict, exec) = check_lowered(&lowered, ModelKind::Sc);
        assert!(verdict.is_violation(), "MP with stale data is SC-forbidden");
        let exec = exec.expect("inference completed");
        let axiomatic = mcversi_mcm::Checker::new(ModelKind::Sc.instance()).check(&exec);
        assert!(axiomatic.is_violation(), "vc and axiomatic verdicts agree");
    }
}
