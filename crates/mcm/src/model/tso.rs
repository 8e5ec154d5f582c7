//! Total Store Order (x86-TSO), the target model of the paper's evaluation.
//!
//! Under TSO a core may delay its stores in a FIFO store buffer, so the only
//! program-order relaxation is write→read: `ppo = po \ (W × R)`.  Store
//! forwarding means a load may read its own core's buffered store early, so
//! only *external* reads-from edges are globally ordering.  `MFENCE` and
//! locked read-modify-writes drain the store buffer and restore the W→R
//! ordering across them.

use crate::event::FenceKind;
use crate::execution::CandidateExecution;
use crate::model::{
    assembled_fence_order, drop_write_read, fence_separated, po_mem, static_ppo, Architecture,
    ModelKind, StaticOrders,
};
use crate::program::StaticPart;
use crate::relation::Relation;

/// The x86-TSO memory consistency model.
///
/// ```
/// use mcversi_mcm::model::tso::Tso;
/// use mcversi_mcm::model::Architecture;
/// assert_eq!(Tso::default().name(), "TSO");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tso;

impl Architecture for Tso {
    fn name(&self) -> &'static str {
        "TSO"
    }

    fn ppo(&self, exec: &CandidateExecution) -> Relation {
        static_ppo(exec, ModelKind::Tso)
    }

    fn fence_order(&self, exec: &CandidateExecution) -> Relation {
        assembled_fence_order(exec, ModelKind::Tso)
    }

    fn global_rf(&self, exec: &CandidateExecution) -> Relation {
        exec.rf_external()
    }
}

/// TSO's static orders.
pub(crate) fn static_orders(program: &StaticPart) -> StaticOrders {
    StaticOrders {
        // Program order between memory accesses, minus write -> read pairs.
        ppo: drop_write_read(program.masks(), &po_mem(program)),
        cumulative_fences: Relation::new(),
        // Only MFENCE (and fence-implying RMWs, handled by `fence_separated`)
        // restore W -> R ordering under TSO; SFENCE/LFENCE order nothing that
        // ppo does not already order.
        plain_fences: fence_separated(program, |k| k == FenceKind::Full),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::event::{Address, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;

    fn checker() -> Checker<'static> {
        Checker::new(&Tso)
    }

    /// Store buffering (SB) with both reads observing zero is *allowed* under
    /// TSO — this is the classic TSO litmus result.
    #[test]
    fn tso_allows_store_buffering() {
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
        assert!(checker().check(&exec).is_valid());
    }

    /// SB with MFENCE between each write and read is forbidden.
    #[test]
    fn tso_forbids_fenced_store_buffering() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let w0 = b.write(p0, x, Value(1));
        b.fence(p0, FenceKind::Full);
        let r0 = b.read(p0, y, Value(0));
        let w1 = b.write(p1, y, Value(1));
        b.fence(p1, FenceKind::Full);
        let r1 = b.read(p1, x, Value(0));
        b.reads_from_initial(r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        let exec = b.build();
        let verdict = checker().check(&exec);
        assert!(verdict.is_violation());
    }

    /// Message passing: stale read of `x` after observing the `y` flag is a
    /// read→read (or write→write) reordering, forbidden under TSO.
    #[test]
    fn tso_forbids_message_passing_violation() {
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
        let exec = b.build();
        assert!(checker().check(&exec).is_violation());
    }

    /// Load buffering (LB) outcome is forbidden under TSO (loads are not
    /// reordered after program-order-later stores).
    #[test]
    fn tso_forbids_load_buffering() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let r0 = b.read(p0, x, Value(1));
        let w0 = b.write(p0, y, Value(1));
        let r1 = b.read(p1, y, Value(1));
        let w1 = b.write(p1, x, Value(1));
        b.reads_from(w1, r0);
        b.reads_from(w0, r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        let exec = b.build();
        assert!(checker().check(&exec).is_violation());
    }

    /// Store forwarding: a core reading its own buffered store before it is
    /// globally visible is allowed (internal rf is not global).
    #[test]
    fn tso_allows_store_forwarding() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        // P0: W x=1; R x=1 (forwarded); R y=0
        let wx = b.write(p0, x, Value(1));
        let rx = b.read(p0, x, Value(1));
        let ry = b.read(p0, y, Value(0));
        // P1: W y=1; R y=1 (forwarded); R x=0
        let wy = b.write(p1, y, Value(1));
        let ry1 = b.read(p1, y, Value(1));
        let rx1 = b.read(p1, x, Value(0));
        b.reads_from(wx, rx);
        b.reads_from(wy, ry1);
        b.reads_from_initial(ry);
        b.reads_from_initial(rx1);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        assert!(
            checker().check(&exec).is_valid(),
            "SB+forwarded reads is allowed under TSO"
        );
    }

    /// Write→write reordering observed through another thread is forbidden.
    #[test]
    fn tso_forbids_write_write_reordering() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        // P0: W x=1; W y=1.  P1: R y=1; R x=0.  (Same shape as MP.)
        let wx = b.write(p0, x, Value(1));
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        let rx = b.read(p1, x, Value(0));
        b.reads_from(wy, ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        assert!(checker().check(&exec).is_violation());
    }

    /// Atomic RMWs act as fences: SB with RMWs instead of plain writes is
    /// forbidden.
    #[test]
    fn tso_forbids_store_buffering_with_rmw() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let (r0x, w0x) = b.rmw(p0, x, Value(0), Value(1));
        let r0 = b.read(p0, y, Value(0));
        let (r1y, w1y) = b.rmw(p1, y, Value(0), Value(1));
        let r1 = b.read(p1, x, Value(0));
        b.reads_from_initial(r0x);
        b.reads_from_initial(r1y);
        b.reads_from_initial(r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w0x);
        b.coherence_after_initial(w1y);
        let exec = b.build();
        assert!(checker().check(&exec).is_violation());
    }

    /// IRIW (independent reads of independent writes) is forbidden under TSO
    /// because TSO is multi-copy atomic.
    #[test]
    fn tso_forbids_iriw() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let p2 = ProcessorId(2);
        let p3 = ProcessorId(3);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        let wy = b.write(p1, y, Value(1));
        // P2 sees x then not y; P3 sees y then not x.
        let r2x = b.read(p2, x, Value(1));
        let r2y = b.read(p2, y, Value(0));
        let r3y = b.read(p3, y, Value(1));
        let r3x = b.read(p3, x, Value(0));
        b.reads_from(wx, r2x);
        b.reads_from_initial(r2y);
        b.reads_from(wy, r3y);
        b.reads_from_initial(r3x);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        assert!(checker().check(&exec).is_violation());
    }

    /// Read→read reordering to the *same* address is forbidden (this is the
    /// shape produced by the MESI,LQ+*,Inv bugs in the paper).
    #[test]
    fn tso_forbids_same_address_read_read_reordering() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        // P0: W x=1.  P1: R x=1; R x=0 (older value after newer).
        let wx = b.write(p0, x, Value(1));
        let r1 = b.read(p1, x, Value(1));
        let r2 = b.read(p1, x, Value(0));
        b.reads_from(wx, r1);
        b.reads_from_initial(r2);
        b.coherence_after_initial(wx);
        let exec = b.build();
        let verdict = checker().check(&exec);
        assert!(verdict.is_violation());
    }
}
