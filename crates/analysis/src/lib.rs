//! Static analysis over the lowered [`TestProgram`] IR.
//!
//! McVerSi spends nearly all wall-clock simulating candidate tests, yet much
//! of a test's discriminating power is decidable without running it.  This
//! crate reasons about programs *before* (and independently of) simulation,
//! in two layers:
//!
//! 1. **Dataflow** ([`dataflow`]) — the concrete accesses and fences with
//!    their event ids and the syntactic dependency graph (addr/data/ctrl)
//!    reconstructed from the IR alone.  The reconstruction mirrors the
//!    simulator's [`ExecObserver`](mcversi_sim::observer::ExecObserver)
//!    exactly (same event-id allocation, same dependency-degradation
//!    semantics), so the static graph is differential-checked against the
//!    dynamic `CandidateExecution::deps` in the test suite.
//! 2. **Discrimination classifier** ([`mod@classify`]) — derives the program's
//!    candidate critical-cycle set from its conflict graph and queries
//!    [`ModelKind::cycle_verdicts`](mcversi_mcm::ModelKind::cycle_verdicts)
//!    to predict whether the test can distinguish models on the strength
//!    chain, or produce a violation under one target model at all.
//!
//! The campaign loop never consults either: every generated test is
//! simulated and checked.  The benchmark times one classification per
//! generated test, and the corpus gate in `tests/static_analysis.rs` pins
//! the classifier against the enumerator.
//!
//! [`TestProgram`]: mcversi_sim::TestProgram

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classify;
pub mod dataflow;

pub use classify::{classify, ClassifyBounds, Discrimination};
pub use dataflow::{Access, Dataflow, FencePoint};
