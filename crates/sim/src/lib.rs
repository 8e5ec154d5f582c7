//! A functionally accurate multicore memory-system simulator.
//!
//! This crate is the *substrate* of the McVerSi reproduction: it stands in for
//! gem5 (full-system, Ruby, GARNET) as the system-under-verification.  It
//! simulates, at cycle granularity:
//!
//! * out-of-order cores with a load queue, a store queue and a store buffer
//!   ([`core`], [`lsq`]) in two pipeline strengths
//!   ([`config::CoreStrength`]): a strong x86-ish pipeline (speculative loads
//!   with squash on forwarded invalidations, FIFO store buffer) and a relaxed
//!   ARM/Power-ish pipeline that genuinely reorders (out-of-order load
//!   performance, early store commit, fence-epoch-bounded out-of-order store
//!   drain);
//! * private L1 caches and a shared, banked (NUCA) L2 directory connected by a
//!   2D-mesh on-chip network ([`network`], [`cache`]);
//! * two cache coherence protocols, modelled functionally so that stale data
//!   affects architectural values: a two-level MESI directory protocol
//!   ([`protocol::mesi`]) and the lazy, timestamp-based TSO-CC protocol
//!   ([`protocol::tsocc`]);
//! * main memory ([`memory`]).
//!
//! On top of the functional model the simulator provides the three hooks
//! McVerSi needs (paper §3–§4):
//!
//! * an [`observer`] that records the conflict orders (`rf`, `co`) of each
//!   test iteration and produces an [`mcversi_mcm::CandidateExecution`];
//! * a [`coverage`] recorder counting coherence-protocol state transitions
//!   (the structural coverage used as GP fitness);
//! * a [`bugs`] registry that injects the 11 bugs studied in the paper's
//!   evaluation (§5.3) into specific protocol/pipeline transitions.
//!
//! The top-level entry point is [`system::System`], which executes a
//! [`program::TestProgram`] and returns an [`system::IterationOutcome`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bugs;
pub mod cache;
pub mod config;
pub mod core;
pub mod coverage;
pub mod lsq;
pub mod memory;
pub mod msg;
pub mod network;
pub mod observer;
pub mod program;
pub mod protocol;
pub mod system;
pub mod types;

pub use bugs::{Bug, BugConfig};
pub use config::{CoreStrength, ProtocolKind, SystemConfig};
pub use core::ObservedOp;
pub use coverage::{CoverageRecorder, Transition};
pub use program::{TestOp, TestOpKind, TestProgram, ThreadProgram};
pub use system::{IterationOutcome, Mark, ProtocolError, System};
pub use types::{Cycle, LineAddr, NodeId};

#[cfg(test)]
mod smoke {
    use crate::{BugConfig, ProtocolKind, System, SystemConfig, TestOp, TestProgram};
    use mcversi_mcm::Address;

    /// Crate-level smoke test: one simulated iteration makes cycles progress.
    #[test]
    fn one_iteration_ticks() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 1);
        let program = TestProgram::new(vec![vec![
            TestOp::write(Address(0x100), 1),
            TestOp::read(Address(0x100)),
        ]]);
        let outcome = sys.run_iteration(&program);
        assert!(sys.cycle() > 0, "simulation must consume cycles");
        assert!(
            outcome.protocol_errors.is_empty() && !outcome.hung,
            "correct design must not fault"
        );
    }
}
