//! An ARMv8-flavoured relaxed model with dependency ordering.
//!
//! The model keeps the shape the paper sketches for weaker-than-TSO targets
//! (§5.2.1): plain accesses to different addresses are freely reordered, but
//!
//! * syntactic **dependencies** (address/data/control) are preserved program
//!   order — `MP+dmb+addr` is forbidden while plain `MP` is allowed;
//! * the full **`dmb`-style fence** ([`FenceKind::Full`]) orders everything
//!   across it and is *cumulative* (closed with external reads-from), so
//!   orderings propagate through message-passing chains;
//! * **acquire/release-style fences** give one-directional ordering:
//!   [`FenceKind::Acquire`] orders earlier reads against everything after it,
//!   [`FenceKind::Release`] orders everything before it against later writes;
//! * the x86-style store-store / load-load fences are honoured conservatively
//!   (`DMB ST` / `DMB LD`-like);
//! * reads-from is **not** globally ordering (`global_rf` is empty): stores
//!   are not multi-copy atomic, so `IRIW` without fences is allowed;
//! * a **no-thin-air** axiom (`deps ∪ fence ∪ rfe` acyclic) keeps
//!   `LB+deps`-style causality cycles forbidden despite the non-MCA `rf`.
//!
//! The model is deliberately "ARM-ish", not ARMv8-faithful: real ARMv8 is
//! other-multi-copy-atomic (it forbids `WRC+addrs`), which a single
//! global-happens-before axiom cannot express without making `rfe` global.
//! The simplification keeps the model strictly between TSO and [`Rmo`] in
//! strength, which the monotonicity property tests rely on.
//!
//! [`Rmo`]: crate::model::relaxed::Rmo

use crate::event::FenceKind;
use crate::execution::CandidateExecution;
use crate::model::{
    assembled_fence_order, fence_separated, narrow_fences, no_thin_air_axiom, ordered_by_fence,
    relaxed_ppo, static_ppo, Architecture, Axiom, ModelKind, StaticOrders,
};
use crate::program::StaticPart;
use crate::relation::Relation;

/// The ARMv8-flavoured relaxed memory model.
///
/// ```
/// use mcversi_mcm::model::armish::Armish;
/// use mcversi_mcm::model::Architecture;
/// assert_eq!(Armish::default().name(), "ARMish");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Armish;

impl Architecture for Armish {
    fn name(&self) -> &'static str {
        "ARMish"
    }

    fn ppo(&self, exec: &CandidateExecution) -> Relation {
        static_ppo(exec, ModelKind::Armish)
    }

    fn fence_order(&self, exec: &CandidateExecution) -> Relation {
        assembled_fence_order(exec, ModelKind::Armish)
    }

    fn global_rf(&self, _exec: &CandidateExecution) -> Relation {
        // Non-multi-copy-atomic: no reads-from edge is globally ordering on
        // its own; ordering only propagates through cumulative fences.
        Relation::new()
    }

    fn extra_axioms(&self, exec: &CandidateExecution, fence_order: &Relation) -> Vec<Axiom> {
        vec![no_thin_air_axiom(exec, fence_order)]
    }
}

/// ARMish's static orders.
pub(crate) fn static_orders(program: &StaticPart) -> StaticOrders {
    let m = program.masks();
    let mut plain = narrow_fences(program);
    plain.union_with(&ordered_by_fence(
        program,
        FenceKind::Acquire,
        &m.reads,
        &m.memory,
    ));
    plain.union_with(&ordered_by_fence(
        program,
        FenceKind::Release,
        &m.memory,
        &m.writes,
    ));
    StaticOrders {
        ppo: relaxed_ppo(program),
        // Fence-implying RMWs order like a full fence: they are part of the
        // cumulative base, which covers whatever a narrower kind would make
        // of them.
        cumulative_fences: fence_separated(program, |k| k == FenceKind::Full),
        plain_fences: plain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::event::{Address, DepKind, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;
    use crate::model::tso::Tso;

    fn checker() -> Checker<'static> {
        Checker::new(&Armish)
    }

    /// Builds the weak MP outcome, optionally with a writer-side full fence
    /// and a reader-side address dependency.
    fn mp(writer_fence: Option<FenceKind>, reader_dep: bool) -> crate::CandidateExecution {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        if let Some(kind) = writer_fence {
            b.fence(p0, kind);
        }
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        let rx = b.read(p1, x, Value(0));
        if reader_dep {
            b.dependency(DepKind::Addr, ry, rx);
        }
        b.reads_from(wy, ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        b.build()
    }

    /// Plain MP is allowed (no dependencies, no fences) — but forbidden under
    /// TSO: the headline cross-model verdict difference.
    #[test]
    fn plain_mp_differs_between_tso_and_armish() {
        let exec = mp(None, false);
        assert!(Checker::new(&Tso).check(&exec).is_violation());
        assert!(checker().check(&exec).is_valid());
    }

    /// A reader-side dependency alone does not forbid MP (the writer side is
    /// still unordered).
    #[test]
    fn mp_with_only_reader_dep_is_allowed() {
        assert!(checker().check(&mp(None, true)).is_valid());
    }

    /// The classic ARM recipe — dmb on the writer, address dependency on the
    /// reader — forbids the weak MP outcome, via fence cumulativity.
    #[test]
    fn mp_with_dmb_and_addr_dep_is_forbidden() {
        let verdict = checker().check(&mp(Some(FenceKind::Full), true));
        assert!(verdict.is_violation(), "{verdict:?}");
    }

    /// A writer fence without a reader dependency leaves the reader free to
    /// reorder its loads.
    #[test]
    fn mp_with_only_writer_fence_is_allowed() {
        assert!(checker()
            .check(&mp(Some(FenceKind::Full), false))
            .is_valid());
    }

    /// A release fence upstream orders the two writes, but without
    /// cumulativity towards the reader the weak outcome stays allowed.
    #[test]
    fn mp_with_release_writer_and_dep_is_allowed() {
        assert!(checker()
            .check(&mp(Some(FenceKind::Release), true))
            .is_valid());
    }

    /// LB with data dependencies on both threads is a causality cycle and is
    /// rejected by the no-thin-air axiom.
    #[test]
    fn lb_with_deps_is_forbidden() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let rx = b.read(p0, x, Value(2));
        let wy = b.write(p0, y, Value(1));
        b.dependency(DepKind::Data, rx, wy);
        let ry = b.read(p1, y, Value(1));
        let wx = b.write(p1, x, Value(2));
        b.dependency(DepKind::Data, ry, wx);
        b.reads_from(wx, rx);
        b.reads_from(wy, ry);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        let verdict = checker().check(&exec);
        assert!(verdict.is_violation());
        assert_eq!(verdict.violation().unwrap().axiom, "no-thin-air");
        // Without the dependencies the same outcome is plain LB: allowed.
        let mut b = ExecutionBuilder::new();
        let rx = b.read(p0, x, Value(2));
        let wy = b.write(p0, y, Value(1));
        let ry = b.read(p1, y, Value(1));
        let wx = b.write(p1, x, Value(2));
        b.reads_from(wx, rx);
        b.reads_from(wy, ry);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        assert!(checker().check(&b.build()).is_valid());
    }

    /// IRIW without fences is allowed: stores are not multi-copy atomic.
    #[test]
    fn iriw_is_allowed_without_fences() {
        let mut b = ExecutionBuilder::new();
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(ProcessorId(0), x, Value(1));
        let wy = b.write(ProcessorId(1), y, Value(1));
        let r2x = b.read(ProcessorId(2), x, Value(1));
        let r2y = b.read(ProcessorId(2), y, Value(0));
        let r3y = b.read(ProcessorId(3), y, Value(1));
        let r3x = b.read(ProcessorId(3), x, Value(0));
        b.dependency(DepKind::Addr, r2x, r2y);
        b.dependency(DepKind::Addr, r3y, r3x);
        b.reads_from(wx, r2x);
        b.reads_from_initial(r2y);
        b.reads_from(wy, r3y);
        b.reads_from_initial(r3x);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        assert!(checker().check(&exec).is_valid());
        // The same outcome is forbidden under TSO (multi-copy atomicity).
        assert!(Checker::new(&Tso).check(&exec).is_violation());
    }

    /// Acquire/release fences give one-directional ordering: SB stays allowed
    /// with them, but full fences forbid it.
    #[test]
    fn sb_requires_full_fences() {
        let build = |kind: FenceKind| {
            let mut b = ExecutionBuilder::new();
            let p0 = ProcessorId(0);
            let p1 = ProcessorId(1);
            let x = Address(0x100);
            let y = Address(0x200);
            let wx = b.write(p0, x, Value(1));
            b.fence(p0, kind);
            let ry = b.read(p0, y, Value(0));
            let wy = b.write(p1, y, Value(1));
            b.fence(p1, kind);
            let rx = b.read(p1, x, Value(0));
            b.reads_from_initial(ry);
            b.reads_from_initial(rx);
            b.coherence_after_initial(wx);
            b.coherence_after_initial(wy);
            b.build()
        };
        assert!(checker().check(&build(FenceKind::Full)).is_violation());
        assert!(checker().check(&build(FenceKind::Release)).is_valid());
        assert!(checker().check(&build(FenceKind::Acquire)).is_valid());
    }

    /// Same-address ordering (coherence) still holds without any fences.
    #[test]
    fn corr_still_forbidden() {
        let mut b = ExecutionBuilder::new();
        let x = Address(0x100);
        let wx = b.write(ProcessorId(0), x, Value(1));
        let r1 = b.read(ProcessorId(1), x, Value(1));
        let r2 = b.read(ProcessorId(1), x, Value(0));
        b.reads_from(wx, r1);
        b.reads_from_initial(r2);
        b.coherence_after_initial(wx);
        assert!(checker().check(&b.build()).is_violation());
    }
}
