//! Static analysis over the lowered [`TestProgram`] IR.
//!
//! McVerSi spends nearly all wall-clock simulating candidate tests, yet much
//! of a test's discriminating power is decidable without running it.  This
//! crate reasons about programs *before* (and independently of) simulation,
//! in three layers:
//!
//! 1. **Dataflow** ([`dataflow`]) — per-thread def-use chains, address/value
//!    flow, and the syntactic dependency graph (addr/data/ctrl) reconstructed
//!    from the IR alone.  The reconstruction mirrors the simulator's
//!    [`ExecObserver`](mcversi_sim::observer::ExecObserver) exactly (same
//!    event-id allocation, same dependency-degradation semantics), so the
//!    static graph is differential-checked against the dynamic
//!    `CandidateExecution::deps` in the test suite.
//! 2. **Lints** ([`lint`]) — a fixed table of checks over the dataflow facts
//!    with severities and machine-readable [`Diagnostic`] output (JSON via
//!    serde): dead values, ineffective/shadowed fences, tests with no
//!    cross-thread conflict, unreachable `exists` clauses, dependencies on
//!    thread-private locations.
//! 3. **Discrimination classifier** ([`mod@classify`]) — derives the program's
//!    candidate critical-cycle set from its conflict graph and queries
//!    [`ModelKind::cycle_verdicts`](mcversi_mcm::ModelKind::cycle_verdicts)
//!    to predict whether the test can distinguish models on the strength
//!    chain, or produce a violation under one target model at all.
//!
//! The `mcversi-lint` binary (in `mcversi-core`) runs the lints (the
//! `unreachable-exists` lint through the classifier) over corpora and
//! scenario-generated programs; the campaign loop never consults them.
//!
//! [`TestProgram`]: mcversi_sim::TestProgram
//! [`Diagnostic`]: lint::Diagnostic

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classify;
pub mod dataflow;
pub mod lint;

pub use classify::{classify, ClassifyBounds, Discrimination};
pub use dataflow::{Access, Dataflow, FencePoint};
pub use lint::{run_lints, Diagnostic, Severity};
