//! A Power-flavoured relaxed model with cumulative `sync`/`lwsync` fences.
//!
//! Like [`Armish`] the model preserves dependency order and same-address
//! program order, is not multi-copy atomic (`global_rf` is empty) and adds a
//! no-thin-air axiom.  The fence repertoire is Power's instead of ARM's:
//!
//! * **`sync`** ([`FenceKind::Full`]) orders everything across it,
//!   cumulatively — `SB+syncs` and `IRIW+syncs` are forbidden;
//! * **`lwsync`** ([`FenceKind::LightweightSync`]) orders every pair *except*
//!   write→read, also cumulatively — `MP+lwsync+addr` is forbidden but
//!   `SB+lwsyncs` stays allowed, the classic Power distinction;
//! * the store-store / load-load fences act as `eieio`-like narrow barriers.
//!
//! Acquire/release fences are foreign to this model and are ignored (they
//! order nothing beyond what `ppo` already gives), which keeps the model
//! weaker than [`Armish`] on acquire/release programs and stronger than
//! [`Rmo`] everywhere.
//!
//! [`Armish`]: crate::model::armish::Armish
//! [`Rmo`]: crate::model::relaxed::Rmo

use crate::event::FenceKind;
use crate::execution::CandidateExecution;
use crate::model::{
    assembled_fence_order, drop_write_read, fence_separated, narrow_fences, no_thin_air_axiom,
    ordered_by_fence, relaxed_ppo, static_ppo, Architecture, Axiom, ModelKind, StaticOrders,
};
use crate::program::StaticPart;
use crate::relation::Relation;

/// The Power-flavoured relaxed memory model.
///
/// ```
/// use mcversi_mcm::model::powerish::Powerish;
/// use mcversi_mcm::model::Architecture;
/// assert_eq!(Powerish::default().name(), "POWERish");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Powerish;

impl Architecture for Powerish {
    fn name(&self) -> &'static str {
        "POWERish"
    }

    fn ppo(&self, exec: &CandidateExecution) -> Relation {
        static_ppo(exec, ModelKind::Powerish)
    }

    fn fence_order(&self, exec: &CandidateExecution) -> Relation {
        assembled_fence_order(exec, ModelKind::Powerish)
    }

    fn global_rf(&self, _exec: &CandidateExecution) -> Relation {
        // Non-multi-copy-atomic, like the pre-v8 ARM and Power machines.
        Relation::new()
    }

    fn extra_axioms(&self, exec: &CandidateExecution, fence_order: &Relation) -> Vec<Axiom> {
        vec![no_thin_air_axiom(exec, fence_order)]
    }
}

/// POWERish's static orders.
pub(crate) fn static_orders(program: &StaticPart) -> StaticOrders {
    let m = program.masks();
    // `cumulative` distributes over union, so sync (with the fence-implying
    // RMWs, which lwsync's narrower order adds nothing to) and lwsync share
    // one cumulative closure.
    let mut base = fence_separated(program, |k| k == FenceKind::Full);
    let lwsync = ordered_by_fence(program, FenceKind::LightweightSync, &m.memory, &m.memory);
    base.union_with(&drop_write_read(m, &lwsync));
    StaticOrders {
        ppo: relaxed_ppo(program),
        cumulative_fences: base,
        plain_fences: narrow_fences(program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::event::{Address, DepKind, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;

    fn checker() -> Checker<'static> {
        Checker::new(&Powerish)
    }

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

    fn sb(fence: Option<FenceKind>) -> crate::CandidateExecution {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(p0, x, Value(1));
        if let Some(kind) = fence {
            b.fence(p0, kind);
        }
        let ry = b.read(p0, y, Value(0));
        let wy = b.write(p1, y, Value(1));
        if let Some(kind) = fence {
            b.fence(p1, kind);
        }
        let rx = b.read(p1, x, Value(0));
        b.reads_from_initial(ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        b.build()
    }

    /// The classic Power distinction: `lwsync` is enough for MP (with a
    /// dependency on the reader) but not for SB.
    #[test]
    fn lwsync_orders_mp_but_not_sb() {
        assert!(checker().check(&mp(None, true)).is_valid());
        assert!(checker()
            .check(&mp(Some(FenceKind::LightweightSync), true))
            .is_violation());
        assert!(checker()
            .check(&sb(Some(FenceKind::LightweightSync)))
            .is_valid());
        assert!(checker().check(&sb(Some(FenceKind::Full))).is_violation());
        assert!(checker().check(&sb(None)).is_valid());
    }

    /// A full `sync` on the writer with a plain (dependency-free) reader still
    /// leaves the reader's loads unordered.
    #[test]
    fn sync_alone_does_not_order_the_reader() {
        assert!(checker()
            .check(&mp(Some(FenceKind::Full), false))
            .is_valid());
        assert!(checker()
            .check(&mp(Some(FenceKind::Full), true))
            .is_violation());
    }

    /// Acquire/release fences are foreign to the Power-flavoured model: they
    /// do not strengthen MP even with a reader dependency.
    #[test]
    fn acquire_release_are_ignored() {
        assert!(checker()
            .check(&mp(Some(FenceKind::Release), true))
            .is_valid());
        assert!(checker()
            .check(&mp(Some(FenceKind::Acquire), true))
            .is_valid());
    }

    /// WRC with dependencies is allowed: the model is not multi-copy atomic,
    /// and neither dependency chain makes the initial write globally visible.
    #[test]
    fn wrc_with_deps_is_allowed() {
        let mut b = ExecutionBuilder::new();
        let x = Address(0x100);
        let y = Address(0x200);
        let wx = b.write(ProcessorId(0), x, Value(1));
        let r1x = b.read(ProcessorId(1), x, Value(1));
        let w1y = b.write(ProcessorId(1), y, Value(2));
        b.dependency(DepKind::Data, r1x, w1y);
        let r2y = b.read(ProcessorId(2), y, Value(2));
        let r2x = b.read(ProcessorId(2), x, Value(0));
        b.dependency(DepKind::Addr, r2y, r2x);
        b.reads_from(wx, r1x);
        b.reads_from(w1y, r2y);
        b.reads_from_initial(r2x);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(w1y);
        let exec = b.build();
        assert!(checker().check(&exec).is_valid());
        // With a cumulative sync in the middle thread the outcome is
        // forbidden: the fence propagates P0's write.
        let mut b = ExecutionBuilder::new();
        let wx = b.write(ProcessorId(0), x, Value(1));
        let r1x = b.read(ProcessorId(1), x, Value(1));
        b.fence(ProcessorId(1), FenceKind::Full);
        let w1y = b.write(ProcessorId(1), y, Value(2));
        let r2y = b.read(ProcessorId(2), y, Value(2));
        let r2x = b.read(ProcessorId(2), x, Value(0));
        b.dependency(DepKind::Addr, r2y, r2x);
        b.reads_from(wx, r1x);
        b.reads_from(w1y, r2y);
        b.reads_from_initial(r2x);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(w1y);
        assert!(checker().check(&b.build()).is_violation());
    }
}
