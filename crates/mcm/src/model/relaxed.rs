//! A deliberately weak, RMO-like model — the weakest of the suite.
//!
//! The paper notes (§5.2.1) that for more relaxed target MCMs the operation
//! set generated by the framework would need to grow (dependencies, more fence
//! flavours).  This model exists to exercise that axis: beyond same-address
//! program order it preserves only syntactic dependencies (SPARC RMO orders a
//! load against accesses that depend on its result, which plain `ReadAddrDp`
//! chains rely on) and orders nothing else without a fence, so many executions
//! that TSO — or the ARM/Power-flavoured models — reject are accepted here.
//!
//! Unlike real SPARC RMO the model is *not* store-atomic: `global_rf` is
//! empty and the full fence is cumulative instead, which places the model
//! strictly below [`Armish`] and [`Powerish`] in the strength chain
//! (`SC ⇒ TSO ⇒ {ARMish, POWERish} ⇒ RMO` on every execution).  It is used in
//! tests to show that verdicts are model-relative, as the weak end of the
//! cross-model bug-coverage tables, and by users who want to target a
//! maximally permissive machine.
//!
//! [`Armish`]: crate::model::armish::Armish
//! [`Powerish`]: crate::model::powerish::Powerish

use crate::event::FenceKind;
use crate::execution::CandidateExecution;
use crate::model::{
    assembled_fence_order, fence_separated, narrow_fences, no_thin_air_axiom, relaxed_ppo,
    static_ppo, Architecture, Axiom, ModelKind, StaticOrders,
};
use crate::program::StaticPart;
use crate::relation::Relation;

/// A relaxed memory order model (all four plain-access reorderings allowed;
/// only same-address order, dependencies and fences are preserved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rmo;

impl Architecture for Rmo {
    fn name(&self) -> &'static str {
        "RMO"
    }

    fn ppo(&self, exec: &CandidateExecution) -> Relation {
        static_ppo(exec, ModelKind::Rmo)
    }

    fn fence_order(&self, exec: &CandidateExecution) -> Relation {
        assembled_fence_order(exec, ModelKind::Rmo)
    }

    fn global_rf(&self, _exec: &CandidateExecution) -> Relation {
        // Not multi-copy atomic: no reads-from edge is globally ordering.
        Relation::new()
    }

    fn extra_axioms(&self, exec: &CandidateExecution, fence_order: &Relation) -> Vec<Axiom> {
        vec![no_thin_air_axiom(exec, fence_order)]
    }
}

/// RMO's static orders.
pub(crate) fn static_orders(program: &StaticPart) -> StaticOrders {
    StaticOrders {
        // Same-address program order plus syntactic dependencies: RMO orders
        // a load before any access whose address, data or execution depends
        // on it, so `ReadAddrDp` chains are no longer free to reorder.
        ppo: relaxed_ppo(program),
        // The full fence orders everything across it, cumulatively; the
        // weaker fences order their respective kinds.  Acquire/release and
        // lwsync flavours are foreign and order nothing.
        cumulative_fences: fence_separated(program, |k| k == FenceKind::Full),
        plain_fences: narrow_fences(program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::event::{Address, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;
    use crate::model::tso::Tso;

    /// The MP violation outcome is allowed under RMO but forbidden under TSO:
    /// verdicts are model-relative.
    #[test]
    fn message_passing_is_model_relative() {
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
        assert!(Checker::new(&Tso).check(&exec).is_violation());
        assert!(Checker::new(&Rmo).check(&exec).is_valid());
    }

    /// Same-address coherence is still enforced under RMO.
    #[test]
    fn rmo_still_enforces_coherence() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let wx = b.write(p0, x, Value(1));
        let r1 = b.read(p1, x, Value(1));
        let r2 = b.read(p1, x, Value(0));
        b.reads_from(wx, r1);
        b.reads_from_initial(r2);
        b.coherence_after_initial(wx);
        let exec = b.build();
        assert!(Checker::new(&Rmo).check(&exec).is_violation());
    }

    /// The bugfix this module's issue tracked: an address-dependent load is
    /// ordered after the load it depends on, so `MP` with a fence on the
    /// writer and a `ReadAddrDp`-style chain on the reader is forbidden —
    /// previously the dependency was ignored and the outcome accepted.
    #[test]
    fn rmo_orders_dependent_loads() {
        use crate::event::DepKind;
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        b.fence(p0, FenceKind::Full);
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        let rx = b.read(p1, x, Value(0));
        b.dependency(DepKind::Addr, ry, rx);
        b.reads_from(wy, ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        assert!(
            Checker::new(&Rmo).check(&exec).is_violation(),
            "address dependency must be preserved program order under RMO"
        );
        assert!(exec.deps().of(DepKind::Addr).contains(ry, rx));
    }

    /// Full fences restore ordering under RMO.
    #[test]
    fn rmo_fenced_message_passing_forbidden() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        b.fence(p0, FenceKind::Full);
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        b.fence(p1, FenceKind::Full);
        let rx = b.read(p1, x, Value(0));
        b.reads_from(wy, ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        assert!(Checker::new(&Rmo).check(&exec).is_violation());
    }
}
