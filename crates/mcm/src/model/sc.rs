//! Sequential Consistency (Lamport 1979).
//!
//! The strictest model: nothing is reordered, every reads-from edge is global.
//! Under SC an execution is valid iff `po ∪ rf ∪ co ∪ fr` is acyclic, which is
//! exactly what the generic axiom assembly yields with `ppo = po` (restricted
//! to memory accesses) and `grf = rf`.

use crate::execution::CandidateExecution;
use crate::model::{
    assembled_fence_order, fence_separated, po_mem, static_ppo, Architecture, ModelKind,
    StaticOrders,
};
use crate::program::StaticPart;
use crate::relation::Relation;

/// Sequential Consistency.
///
/// ```
/// use mcversi_mcm::model::sc::Sc;
/// use mcversi_mcm::model::Architecture;
/// assert_eq!(Sc::default().name(), "SC");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sc;

impl Architecture for Sc {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn ppo(&self, exec: &CandidateExecution) -> Relation {
        static_ppo(exec, ModelKind::Sc)
    }

    fn fence_order(&self, exec: &CandidateExecution) -> Relation {
        assembled_fence_order(exec, ModelKind::Sc)
    }

    fn global_rf(&self, exec: &CandidateExecution) -> Relation {
        exec.rf().clone()
    }
}

/// SC's static orders: all of program order, and every fence.
pub(crate) fn static_orders(program: &StaticPart) -> StaticOrders {
    StaticOrders {
        ppo: po_mem(program),
        cumulative_fences: Relation::new(),
        // All fences are no-ops under SC (everything already ordered), but we
        // still report the pairs for uniform diagnostics.
        plain_fences: fence_separated(program, |_| true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::event::{Address, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;

    /// Store buffering (SB): forbidden outcome under SC.
    #[test]
    fn sc_forbids_store_buffering() {
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
        assert!(exec.validate().is_ok());
        let verdict = Checker::new(&Sc).check(&exec);
        assert!(verdict.is_violation());
    }

    /// The same SB test where one read observes the other thread's write is
    /// allowed under SC.
    #[test]
    fn sc_allows_interleaved_store_buffering() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let w0 = b.write(p0, x, Value(1));
        let r0 = b.read(p0, y, Value(1));
        let w1 = b.write(p1, y, Value(1));
        let r1 = b.read(p1, x, Value(0));
        b.reads_from(w1, r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        let exec = b.build();
        // r1 reads 0 while w0 already happened in p0's program order, but that
        // is fine under SC as long as the interleaving puts r1 before w0... it
        // does not here: w0 -> po -> r0 reads w1, so w1 before r0; r1 reads
        // init so r1 before w0.  Interleaving: w1, r1?, ... Check with the
        // checker rather than hand-reasoning:
        let verdict = Checker::new(&Sc).check(&exec);
        assert!(verdict.is_valid(), "unexpected violation: {verdict:?}");
    }

    /// Message passing with both reads observing the writes is fine.
    #[test]
    fn sc_allows_message_passing_success() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        let rx = b.read(p1, x, Value(1));
        b.reads_from(wy, ry);
        b.reads_from(wx, rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        let verdict = Checker::new(&Sc).check(&exec);
        assert!(verdict.is_valid());
    }

    /// Same-address write-read reordering is forbidden even under weaker
    /// models; certainly under SC.
    #[test]
    fn sc_forbids_reading_overwritten_value_in_program_order() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let x = Address(0x100);
        let w1 = b.write(p0, x, Value(1));
        let r = b.read(p0, x, Value(0));
        b.reads_from_initial(r);
        b.coherence_after_initial(w1);
        let exec = b.build();
        let verdict = Checker::new(&Sc).check(&exec);
        assert!(verdict.is_violation());
    }
}
