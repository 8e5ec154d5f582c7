//! The bug registry: the 11 bugs studied in the paper's evaluation (§5.3),
//! plus the dependency-ordering corpus for the relaxed simulator core.
//!
//! Each [`Bug`] is injected by suppressing or corrupting one specific piece of
//! logic in the pipeline or coherence protocol.  Bugs are *injected*, never
//! present by default: a [`BugConfig`] with no bugs enabled is the correct
//! design, and the test suite asserts that the correct design never produces
//! consistency violations.
//!
//! Beyond the paper's Table 4 rows ([`Bug::ALL`]), [`Bug::DEPENDENCY`] holds
//! bugs that violate *dependency ordering* — precisely the class TriCheck
//! locates in the gap between what the implementation reorders and what the
//! model permits.  They suppress one relaxed-pipeline stall each, so they are
//! architecturally invisible on the strong core (whose Peekaboo squash and
//! in-order retirement mask them) and only light up when a
//! [`CoreStrength::Relaxed`] core runs a campaign against a
//! dependency-ordered model (ARMish/POWERish/RMO).
//!
//! [`CoreStrength::Relaxed`]: crate::config::CoreStrength::Relaxed
//!
//! # Adding an injected bug
//!
//! (This mirrors the "adding a model" guide in `mcversi-mcm`'s `model/mod.rs`;
//! a bug is the microarchitectural dual of a model axiom.)
//!
//! 1. Add the variant here with a rustdoc sentence naming the *exact* piece of
//!    logic it suppresses or corrupts, and give it a Table-4-style
//!    [`paper_name`](Bug::paper_name) (`<structure>+<defect>`).
//! 2. Register it in the right corpus constant: [`Bug::ALL`] is pinned to the
//!    paper's 11 rows, so new bugs go into [`Bug::DEPENDENCY`] (or a new
//!    corpus) and automatically into [`Bug::ALL_EXTENDED`], which the
//!    `table4_bug_coverage` experiment sweeps.
//! 3. Declare its preconditions: [`required_protocol`](Bug::required_protocol)
//!    if only one coherence protocol contains the affected logic, and
//!    [`required_core`](Bug::required_core) if only one pipeline strength
//!    exercises it.  Campaigns use these to pick a system configuration in
//!    which the bug is *observable* — an injected bug that the configuration
//!    masks measures nothing.
//! 4. Hook the injection into the component, always as a *suppression or
//!    corruption of existing correct logic* guarded by
//!    `bugs.has(Bug::YourBug)` — never as new behaviour of its own — so the
//!    correct design stays the no-bug fixed point.  A protocol bug's hook
//!    lives in its protocol's files (`protocol/{mesi,tsocc}/{l1,l2}.rs`):
//!    in one of its transition arms, or in its override of a bug hook of
//!    `L1Protocol` / `L2Protocol` (such as `hides_shared_eviction` or
//!    `stale_putx_faults`) when the shared skeleton runs the logic it
//!    corrupts.  The skeletons (`protocol/l1.rs`, `protocol/l2.rs`) name no
//!    bug: if the logic is theirs and no hook fits, add a hook whose default
//!    is the correct behaviour.
//! 5. Pin the expectation end to end: extend the detectability matrix in
//!    `mcversi-bench`'s `core_matrix.rs` (which core strengths and models
//!    catch it, which provably do not) and add a differential test driving a
//!    directed litmus program at it.
//!
//! The corpus-level invariant to preserve: every bug must be *caught* by at
//! least one (generator, model, core) cell and *provably hidden* in at least
//! one other, otherwise it adds no discriminating power to the evaluation.

use crate::config::CoreStrength;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the studied injected bugs.
///
/// The first seven affect the MESI protocol (or its interaction with the load
/// queue), the next two affect TSO-CC, the next two affect the core's
/// load/store queues independently of the protocol (the paper's Table 4 set),
/// and the final four are the dependency-ordering corpus for the relaxed
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Bug {
    /// `MESI,LQ+IS,Inv`: the L1 sinks an invalidation received in the IS
    /// transient state but fails to forward the invalidation to the load queue
    /// when the data later arrives (IS_I), allowing read→read reordering.
    MesiLqIsInv,
    /// `MESI,LQ+SM,Inv`: invalidation received in SM is not forwarded to the
    /// load/store queue.
    MesiLqSmInv,
    /// `MESI,LQ+E,Inv`: invalidation (ownership-stripping forward) received in
    /// E is not forwarded to the load queue.
    MesiLqEInv,
    /// `MESI,LQ+M,Inv`: invalidation received in M is not forwarded to the
    /// load queue.
    MesiLqMInv,
    /// `MESI,LQ+S,Replacement`: replacement of a Shared line does not notify
    /// the load queue.
    MesiLqSReplacement,
    /// `MESI+PUTX-Race`: the L2 mishandles the race between an owner's
    /// writeback (PUTX) and an in-flight forwarded request, resulting in an
    /// invalid transition (caught by the protocol monitor, as in Ruby).
    MesiPutxRace,
    /// `MESI+Replace-Race`: on an L2 replacement of a block it believes clean
    /// (granted Exclusive, silently modified), the dirty writeback data is
    /// dropped, losing the modification.
    MesiReplaceRace,
    /// `TSO-CC+no-epoch-ids`: epoch identifiers are ignored when comparing
    /// timestamps, so timestamp resets lead to missed self-invalidations.
    TsoCcNoEpochIds,
    /// `TSO-CC+compare`: the self-invalidation comparison uses `>` instead of
    /// `>=`, missing self-invalidations for writes in the same timestamp group.
    TsoCcCompare,
    /// `LQ+no-TSO`: the load queue does not squash younger performed loads on
    /// a forwarded invalidation.
    LqNoTso,
    /// `SQ+no-FIFO`: the store buffer drains out of order.
    SqNoFifo,
    /// `LQ+no-addr-dep`: the relaxed LSQ issues an address-dependent load
    /// without waiting for its source load to perform.  The strong core's
    /// invalidation squash masks it; on the relaxed core it produces
    /// `MP+dmb+addr`-style dependency-ordering violations.
    LqNoAddrDep,
    /// `SQ+no-data-dep`: the relaxed store queue early-commits a
    /// data-dependent store before its source load performs, enabling
    /// `LB+data` causality cycles (caught by the relaxed models' no-thin-air
    /// axiom).  In-order retirement masks it on the strong core.
    SqNoDataDep,
    /// `SQ+no-ctrl-dep`: like [`Bug::SqNoDataDep`] for control-dependent
    /// stores — the guarding branch is speculated through and never rolled
    /// back.
    SqNoCtrlDep,
    /// `Fence+no-acquire`: the relaxed core lets younger loads issue past a
    /// pending acquire fence (the fence "completes" without flushing the load
    /// queue), breaking read→read ordering through the fence.  Only models
    /// that give acquire fences ordering semantics (the ARM-ish one) can see
    /// it.
    FenceNoAcquire,
}

impl Bug {
    /// All bugs, in the order of the paper's Table 4.
    pub const ALL: [Bug; 11] = [
        Bug::MesiLqIsInv,
        Bug::MesiLqSmInv,
        Bug::MesiLqEInv,
        Bug::MesiLqMInv,
        Bug::MesiLqSReplacement,
        Bug::MesiPutxRace,
        Bug::MesiReplaceRace,
        Bug::TsoCcNoEpochIds,
        Bug::TsoCcCompare,
        Bug::LqNoTso,
        Bug::SqNoFifo,
    ];

    /// The dependency-ordering corpus: bugs invisible to the strong x86-ish
    /// core, detectable only when a relaxed core runs against a
    /// dependency-ordered model.
    pub const DEPENDENCY: [Bug; 4] = [
        Bug::LqNoAddrDep,
        Bug::SqNoDataDep,
        Bug::SqNoCtrlDep,
        Bug::FenceNoAcquire,
    ];

    /// Every injected bug: the paper's Table 4 set followed by the
    /// dependency-ordering corpus.
    pub const ALL_EXTENDED: [Bug; 15] = [
        Bug::MesiLqIsInv,
        Bug::MesiLqSmInv,
        Bug::MesiLqEInv,
        Bug::MesiLqMInv,
        Bug::MesiLqSReplacement,
        Bug::MesiPutxRace,
        Bug::MesiReplaceRace,
        Bug::TsoCcNoEpochIds,
        Bug::TsoCcCompare,
        Bug::LqNoTso,
        Bug::SqNoFifo,
        Bug::LqNoAddrDep,
        Bug::SqNoDataDep,
        Bug::SqNoCtrlDep,
        Bug::FenceNoAcquire,
    ];

    /// The paper's name for the bug (Table 4 row label), or the Table-4-style
    /// name for the extended corpus.
    pub fn paper_name(self) -> &'static str {
        match self {
            Bug::MesiLqIsInv => "MESI,LQ+IS,Inv",
            Bug::MesiLqSmInv => "MESI,LQ+SM,Inv",
            Bug::MesiLqEInv => "MESI,LQ+E,Inv",
            Bug::MesiLqMInv => "MESI,LQ+M,Inv",
            Bug::MesiLqSReplacement => "MESI,LQ+S,Replacement",
            Bug::MesiPutxRace => "MESI+PUTX-Race",
            Bug::MesiReplaceRace => "MESI+Replace-Race",
            Bug::TsoCcNoEpochIds => "TSO-CC+no-epoch-ids",
            Bug::TsoCcCompare => "TSO-CC+compare",
            Bug::LqNoTso => "LQ+no-TSO",
            Bug::SqNoFifo => "SQ+no-FIFO",
            Bug::LqNoAddrDep => "LQ+no-addr-dep",
            Bug::SqNoDataDep => "SQ+no-data-dep",
            Bug::SqNoCtrlDep => "SQ+no-ctrl-dep",
            Bug::FenceNoAcquire => "Fence+no-acquire",
        }
    }

    /// Which protocol the system must run for the bug to be applicable.
    ///
    /// `None` means the bug is protocol-independent (pipeline bugs); the
    /// paper evaluates those on the MESI configuration.
    pub fn required_protocol(self) -> Option<crate::config::ProtocolKind> {
        use crate::config::ProtocolKind::*;
        match self {
            Bug::MesiLqIsInv
            | Bug::MesiLqSmInv
            | Bug::MesiLqEInv
            | Bug::MesiLqMInv
            | Bug::MesiLqSReplacement
            | Bug::MesiPutxRace
            | Bug::MesiReplaceRace => Some(Mesi),
            Bug::TsoCcNoEpochIds | Bug::TsoCcCompare => Some(TsoCc),
            Bug::LqNoTso
            | Bug::SqNoFifo
            | Bug::LqNoAddrDep
            | Bug::SqNoDataDep
            | Bug::SqNoCtrlDep
            | Bug::FenceNoAcquire => None,
        }
    }

    /// Which core pipeline strength the system must run for the bug to be
    /// *observable*.
    ///
    /// `None` means the bug manifests on any core.  The dependency-ordering
    /// corpus returns [`CoreStrength::Relaxed`]: each of those bugs suppresses
    /// a stall that only the relaxed pipeline relies on — on the strong core
    /// the invalidation squash and in-order retirement reestablish the
    /// ordering, so the injection has no architecturally visible effect.
    /// Conversely `LQ+no-TSO` suppresses the Peekaboo squash, which the
    /// relaxed pipeline does not have in the first place, so it is observable
    /// only on the strong core.
    pub fn required_core(self) -> Option<CoreStrength> {
        match self {
            Bug::LqNoAddrDep | Bug::SqNoDataDep | Bug::SqNoCtrlDep | Bug::FenceNoAcquire => {
                Some(CoreStrength::Relaxed)
            }
            Bug::LqNoTso => Some(CoreStrength::Strong),
            _ => None,
        }
    }

    /// Returns `true` for bugs that were real (pre-existing) gem5 bugs in the
    /// paper (marked `*` in §5.3), as opposed to artificially injected ones.
    pub fn real_in_gem5(self) -> bool {
        matches!(
            self,
            Bug::MesiLqIsInv | Bug::MesiLqSmInv | Bug::MesiPutxRace | Bug::LqNoTso
        )
    }
}

impl fmt::Display for Bug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The set of bugs injected into a simulated system.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugConfig {
    enabled: Vec<Bug>,
}

impl BugConfig {
    /// The correct design: no bugs injected.
    pub fn none() -> Self {
        BugConfig::default()
    }

    /// A configuration with exactly one bug injected.
    pub fn single(bug: Bug) -> Self {
        BugConfig { enabled: vec![bug] }
    }

    /// Returns `true` if `bug` is injected.
    pub fn has(&self, bug: Bug) -> bool {
        self.enabled.contains(&bug)
    }

    /// Returns `true` if no bug is injected.
    pub fn is_correct_design(&self) -> bool {
        self.enabled.is_empty()
    }

    /// Iterates over the injected bugs.
    pub fn iter(&self) -> impl Iterator<Item = Bug> + '_ {
        self.enabled.iter().copied()
    }
}

impl fmt::Display for BugConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled.is_empty() {
            return write!(f, "correct design (no bugs)");
        }
        for (i, b) in self.enabled.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    #[test]
    fn all_bugs_have_distinct_paper_names() {
        let mut names: Vec<&str> = Bug::ALL_EXTENDED.iter().map(|b| b.paper_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn extended_corpus_is_table4_plus_dependency_bugs() {
        assert_eq!(Bug::ALL.len(), 11, "the paper's Table 4 set is pinned");
        assert_eq!(
            Bug::ALL_EXTENDED.to_vec(),
            Bug::ALL
                .iter()
                .chain(Bug::DEPENDENCY.iter())
                .copied()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn dependency_bugs_require_the_relaxed_core() {
        for bug in Bug::DEPENDENCY {
            assert_eq!(bug.required_core(), Some(CoreStrength::Relaxed), "{bug}");
            assert_eq!(bug.required_protocol(), None, "{bug}");
            assert!(!bug.real_in_gem5(), "{bug}");
        }
        for bug in Bug::ALL {
            // The squash LQ+no-TSO disables only exists in the strong
            // pipeline; every other Table 4 bug is core-agnostic.
            let expected = (bug == Bug::LqNoTso).then_some(CoreStrength::Strong);
            assert_eq!(bug.required_core(), expected, "{bug}");
        }
    }

    #[test]
    fn protocol_requirements() {
        assert_eq!(
            Bug::MesiLqIsInv.required_protocol(),
            Some(ProtocolKind::Mesi)
        );
        assert_eq!(
            Bug::TsoCcCompare.required_protocol(),
            Some(ProtocolKind::TsoCc)
        );
        assert_eq!(Bug::LqNoTso.required_protocol(), None);
        assert_eq!(Bug::SqNoFifo.required_protocol(), None);
    }

    #[test]
    fn real_gem5_bugs_are_the_starred_ones() {
        let real: Vec<Bug> = Bug::ALL
            .iter()
            .copied()
            .filter(|b| b.real_in_gem5())
            .collect();
        assert_eq!(
            real,
            vec![
                Bug::MesiLqIsInv,
                Bug::MesiLqSmInv,
                Bug::MesiPutxRace,
                Bug::LqNoTso
            ]
        );
    }

    #[test]
    fn bug_config_membership() {
        let cfg = BugConfig::single(Bug::LqNoTso);
        assert!(cfg.has(Bug::LqNoTso));
        assert!(!cfg.has(Bug::SqNoFifo));
        assert!(!cfg.is_correct_design());
        assert!(BugConfig::none().is_correct_design());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(format!("{}", Bug::MesiPutxRace), "MESI+PUTX-Race");
        assert_eq!(format!("{}", BugConfig::none()), "correct design (no bugs)");
        let two = BugConfig {
            enabled: vec![Bug::LqNoTso, Bug::SqNoFifo],
        };
        assert!(format!("{two}").contains(","));
    }
}
