//! Conformance checking of black-box traces for McVerSi.
//!
//! Two halves:
//!
//! * [`vc`] — a three-valued checker over the axiomatic
//!   [`Checker`](mcversi_mcm::Checker), and coherence inference.  Per-location
//!   coherence order is inferred from the observed reads-from relation and
//!   the final memory state.  [`VcChecker`] returns a [`VcVerdict`]: `Valid`
//!   and `Violation` are *exact* for SC and TSO (it runs their own axioms),
//!   while the relaxed models are checked against SC's axioms and abstain
//!   whenever those do not settle the execution for the weaker model.
//!
//! * [`trace`] — black-box trace ingestion.  A versioned Axe-style
//!   `load/store/resp/fence` text format parsed by hand and lowered into a
//!   [`mcversi_mcm::CandidateExecution`], so traces
//!   from *external* simulators or RTL testbenches flow through the same
//!   checker stack via the `mcversi-check` binary: parse, lower,
//!   [`infer_coherence`], then the axiomatic checker for the trace's model.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod trace;
pub mod vc;

pub use trace::{parse, LoweredTrace, TraceError, TraceOp, TraceProgram, TRACE_MAGIC_V1};
pub use vc::{infer_coherence, AbstainReason, CoherenceInference, VcChecker, VcVerdict, VcWitness};
