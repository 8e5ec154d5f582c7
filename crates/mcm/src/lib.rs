//! Axiomatic memory consistency model (MCM) framework and checker.
//!
//! This crate provides the formal machinery McVerSi uses to decide whether an
//! observed execution of a multiprocessor memory system is allowed by a target
//! memory consistency model.  It follows the "herding cats" style of axiomatic
//! modelling (Alglave et al., TOPLAS 2014): an execution is a set of [`Event`]s
//! together with the program order (`po`) and the *conflict orders* — reads-from
//! (`rf`) and coherence order (`co`).  A model ([`model::Architecture`]) derives
//! further relations (preserved program order, fence order, from-reads) and
//! demands that certain unions of these relations are acyclic.
//!
//! In a pre-silicon (simulation) environment all conflict orders are visible,
//! so checking is a polynomial-time graph search ([`checker`]), unlike the
//! NP-complete post-silicon problem.
//!
//! # Quick example
//!
//! ```
//! use mcversi_mcm::execution::ExecutionBuilder;
//! use mcversi_mcm::event::{Address, ProcessorId, Value};
//! use mcversi_mcm::model::tso::Tso;
//! use mcversi_mcm::checker::Checker;
//!
//! // Message passing: T0 writes x then y; T1 reads y==1 then x==0.
//! let mut b = ExecutionBuilder::new();
//! let p0 = ProcessorId(0);
//! let p1 = ProcessorId(1);
//! let x = Address(0x100);
//! let y = Address(0x140);
//! let wx = b.write(p0, x, Value(1));
//! let wy = b.write(p0, y, Value(1));
//! let ry = b.read(p1, y, Value(1));
//! let rx = b.read(p1, x, Value(0));
//! b.reads_from(wy, ry);
//! b.reads_from_initial(rx);
//! b.coherence_after_initial(wx);
//! b.coherence_after_initial(wy);
//! let exec = b.build();
//! let verdict = Checker::new(&Tso::default()).check(&exec);
//! assert!(verdict.is_violation(), "MP with r1=1, r2=0 is forbidden under TSO");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod cycle;
pub mod event;
pub mod execution;
pub mod model;
pub mod program;
pub mod relation;
pub mod signature;

pub use checker::{Checker, Verdict, Violation};
pub use cycle::{CriticalCycle, CycleEdge, CycleError, Dir};
pub use event::{Address, DepKind, Event, EventId, EventKind, FenceKind, Iiid, ProcessorId, Value};
pub use execution::{CandidateExecution, DependencySet, ExecutionBuilder};
pub use model::{Architecture, ModelKind};
pub use relation::{EventSet, Relation};
pub use signature::{classify_execution, ExecutionSignature, OracleVerdict};

#[cfg(test)]
mod smoke {
    use crate::checker::Checker;
    use crate::event::{Address, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;
    use crate::model::tso::Tso;

    /// Crate-level smoke test: event insertion and one checker pass.
    #[test]
    fn event_insertion_and_check() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(ProcessorId(0), Address(0x100), Value(1));
        let r = b.read(ProcessorId(1), Address(0x100), Value(1));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let exec = b.build();
        // Two inserted events plus the materialized initial write.
        assert_eq!(exec.len(), 3);
        assert_eq!(exec.writes().count(), 2);
        assert_eq!(exec.reads().count(), 1);
        let verdict = Checker::new(&Tso).check(&exec);
        assert!(
            !verdict.is_violation(),
            "rf-only execution is TSO-consistent"
        );
    }
}
