//! Axiomatic consistency models in the herding-cats style.
//!
//! A model ([`Architecture`]) is characterised by three ingredients (paper
//! §2.1 and Alglave et al.):
//!
//! * the *preserved program order* `ppo` — the subset of program order the
//!   hardware promises to maintain;
//! * the *fence order* — pairs of memory accesses ordered by fences or
//!   fence-implying instructions (e.g. x86 locked RMWs);
//! * the *global reads-from* `grf` — which reads-from edges participate in the
//!   global happens-before (for multi-copy-atomic models such as TSO only
//!   external reads-from is global).
//!
//! From these, validity of a candidate execution is expressed as a set of
//! [`Axiom`]s:
//!
//! 1. **sc-per-location** (a.k.a. uniproc / coherence): `po-loc ∪ com` acyclic;
//! 2. **ghb** (global happens-before): `ppo ∪ fence ∪ grf ∪ co ∪ fr` acyclic;
//! 3. **rmw-atomicity**: no write intervenes (in coherence order) between the
//!    read and write halves of an atomic read-modify-write;
//! 4. optionally, model-specific [`Architecture::extra_axioms`] — the relaxed
//!    models add a **no-thin-air** axiom (`deps ∪ fence ∪ rfe` acyclic) so
//!    that load-buffering cycles through dependencies stay forbidden even when
//!    reads-from is not globally ordering.
//!
//! Models provided, strongest first: [`sc::Sc`], [`tso::Tso`], the
//! ARMv8-flavoured [`armish::Armish`], the Power-flavoured
//! [`powerish::Powerish`] and the deliberately weakest [`relaxed::Rmo`].
//! [`ModelKind`] enumerates them for configuration plumbing.  The suite forms
//! a strength chain — every execution accepted by a stronger model is accepted
//! by the weaker ones (`SC ⇒ TSO ⇒ {ARMish, POWERish} ⇒ RMO`) — which the
//! workspace-level property tests exercise on random executions.
//!
//! # Adding a model
//!
//! 1. Create `model/<name>.rs` with a unit struct implementing
//!    [`Architecture`]: provide `name`, `ppo`, `fence_order` and `global_rf`,
//!    and override `extra_axioms` if the model needs constraints beyond the
//!    standard three (see [`no_thin_air_axiom`] for the relaxed-model pattern).
//!    Split what the program alone determines from what an execution adds: a
//!    `static_orders(program: &StaticPart) -> StaticOrders` function derives
//!    `ppo` and the fence orders from the shared combinators below
//!    ([`po_mem`], [`po_loc_preserved`], [`dependency_order`],
//!    [`fence_separated`], [`ordered_by_fence`]) — restricting by the static
//!    part's [`masks`](StaticPart::masks), not by a closure per pair: the
//!    relations are bit rows and a mask is one AND per word — and `ppo` /
//!    `fence_order` read the memo the static part keeps of it (`static_ppo`,
//!    `assembled_fence_order`), which closes the cumulative part with the
//!    execution's external reads-from ([`cumulative`]).  The iterations of a
//!    test then pay for the static orders once.
//! 2. Register the model in [`ModelKind`] (variant, `ALL`, `instance`,
//!    `static_orders`, `parse`) so campaigns, litmus suites and the
//!    experiment binaries can select it.
//! 3. Keep the strength chain honest: if the model slots between two existing
//!    ones, every relation it feeds into `ghb` must be contained in the
//!    transitive closure of the stronger neighbour's `ghb` (and vice versa for
//!    the weaker neighbour).  Add it to the monotonicity property test and pin
//!    its litmus verdicts in the differential tests.
//! 4. Give the model its fence/dependency flavours (`model_flavours` in
//!    `mcversi-testgen`'s litmus module) if it benefits from dedicated ones.

pub mod armish;
pub mod powerish;
pub mod relaxed;
pub mod sc;
pub mod tso;

use crate::event::{EventId, EventKind, FenceKind, Iiid};
use crate::execution::CandidateExecution;
use crate::program::{EventMasks, StaticPart};
use crate::relation::{EventSet, Relation};
use mcversi_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Enumeration of the built-in models, strongest first.
///
/// This is the configuration-level handle used to select the target model of
/// a verification campaign; [`instance`](ModelKind::instance) yields the
/// actual [`Architecture`] implementation.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum ModelKind {
    /// Sequential Consistency ([`sc::Sc`]).
    Sc,
    /// x86 Total Store Order ([`tso::Tso`]), the paper's target model.
    #[default]
    Tso,
    /// ARMv8-flavoured relaxed model ([`armish::Armish`]).
    Armish,
    /// Power-flavoured relaxed model ([`powerish::Powerish`]).
    Powerish,
    /// The weakest model in the suite ([`relaxed::Rmo`]).
    Rmo,
}

impl ModelKind {
    /// Every built-in model, strongest first.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Sc,
        ModelKind::Tso,
        ModelKind::Armish,
        ModelKind::Powerish,
        ModelKind::Rmo,
    ];

    /// The shared instance implementing this model.
    pub fn instance(self) -> &'static dyn Architecture {
        static SC: sc::Sc = sc::Sc;
        static TSO: tso::Tso = tso::Tso;
        static ARMISH: armish::Armish = armish::Armish;
        static POWERISH: powerish::Powerish = powerish::Powerish;
        static RMO: relaxed::Rmo = relaxed::Rmo;
        match self {
            ModelKind::Sc => &SC,
            ModelKind::Tso => &TSO,
            ModelKind::Armish => &ARMISH,
            ModelKind::Powerish => &POWERISH,
            ModelKind::Rmo => &RMO,
        }
    }

    /// Derives the model's static orders from a program (what
    /// [`StaticPart::model_orders`] memoises).
    pub(crate) fn static_orders(self, program: &StaticPart) -> StaticOrders {
        match self {
            ModelKind::Sc => sc::static_orders(program),
            ModelKind::Tso => tso::static_orders(program),
            ModelKind::Armish => armish::static_orders(program),
            ModelKind::Powerish => powerish::static_orders(program),
            ModelKind::Rmo => relaxed::static_orders(program),
        }
    }

    /// The model's display name (same as [`Architecture::name`]).
    pub fn name(self) -> &'static str {
        self.instance().name()
    }

    /// Parses a model name case-insensitively (e.g. `"tso"`, `"ARMish"`).
    pub fn parse(s: &str) -> Option<ModelKind> {
        ModelKind::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(s.trim()))
    }

    /// Returns `true` for the dependency-ordered models weaker than TSO
    /// (ARMish/POWERish/RMO) — the targets that benefit from the
    /// dependency-carrying operation mix and weak fence flavours.
    pub fn is_relaxed(self) -> bool {
        matches!(
            self,
            ModelKind::Armish | ModelKind::Powerish | ModelKind::Rmo
        )
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::parse(s).ok_or_else(|| format!("unknown model '{s}'"))
    }
}

/// Fence orders assembled over static orders an earlier check of the same
/// test derived (memo hits, one per check).
static STATIC_ORDERS_REUSED: telemetry::Counter =
    telemetry::Counter::new("mcm.static_orders.reused");

/// The orders of one model that the test program alone determines (paper
/// §4.1: "All static orders required to compute the preserved program order
/// (ppo) are gathered before first execution of a test").
///
/// `ppo` is static in all five built-in models, and every fence order is
/// `cumulative(rfe, cumulative_fences) ∪ plain_fences`: only the closure with
/// the execution's external reads-from is left to do per execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticOrders {
    /// The preserved program order.
    pub ppo: Relation,
    /// The fence-separated pairs each execution closes cumulatively with its
    /// external reads-from (see [`cumulative`]).
    pub cumulative_fences: Relation,
    /// The fence-separated pairs ordered as they are.
    pub plain_fences: Relation,
}

/// The preserved program order of a built-in model: a copy of the memoised
/// static order.
fn static_ppo(exec: &CandidateExecution, kind: ModelKind) -> Relation {
    exec.static_part().model_orders(kind).ppo.clone()
}

/// The fence order of a built-in model: its static fence orders, the
/// cumulative part closed with `exec`'s external reads-from.
fn assembled_fence_order(exec: &CandidateExecution, kind: ModelKind) -> Relation {
    let program = exec.static_part();
    if program.has_model_orders(kind) {
        STATIC_ORDERS_REUSED.incr();
    }
    let orders = program.model_orders(kind);
    if orders.cumulative_fences.is_empty() {
        return orders.plain_fences.clone();
    }
    let mut out = cumulative(exec, &orders.cumulative_fences);
    out.union_with(&orders.plain_fences);
    out
}

/// A single named constraint over derived relations of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Axiom {
    /// The relation must be acyclic.
    Acyclic {
        /// Human-readable axiom name (e.g. `"ghb"`).
        name: &'static str,
        /// The relation that must contain no cycle.
        relation: Relation,
    },
    /// The relation must be empty.
    Empty {
        /// Human-readable axiom name (e.g. `"rmw-atomicity"`).
        name: &'static str,
        /// The relation that must contain no pair.
        relation: Relation,
    },
}

impl Axiom {
    /// The axiom's name.
    pub fn name(&self) -> &'static str {
        match self {
            Axiom::Acyclic { name, .. } | Axiom::Empty { name, .. } => name,
        }
    }

    /// The relation the axiom constrains.
    pub fn relation(&self) -> &Relation {
        match self {
            Axiom::Acyclic { relation, .. } | Axiom::Empty { relation, .. } => relation,
        }
    }
}

impl fmt::Display for Axiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axiom::Acyclic { name, .. } => write!(f, "acyclic({name})"),
            Axiom::Empty { name, .. } => write!(f, "empty({name})"),
        }
    }
}

/// An axiomatic memory consistency model.
///
/// Implementations provide the model-specific derived relations; the default
/// [`axioms`](Architecture::axioms) method assembles the standard constraint
/// set from them.  The checker only consumes `axioms`, so exotic models may
/// override it entirely.
pub trait Architecture: fmt::Debug + Send + Sync {
    /// Short human-readable model name, e.g. `"TSO"`.
    fn name(&self) -> &'static str;

    /// Preserved program order: the subset of `po` (restricted to memory
    /// accesses) that the hardware guarantees to maintain globally.
    fn ppo(&self, exec: &CandidateExecution) -> Relation;

    /// Pairs of memory accesses ordered by fences or fence-implying
    /// instructions.
    fn fence_order(&self, exec: &CandidateExecution) -> Relation;

    /// The reads-from edges that are globally ordering (for store-atomic
    /// models all of `rf`; for TSO-like models only external `rf`; for
    /// non-multi-copy-atomic models none).
    fn global_rf(&self, exec: &CandidateExecution) -> Relation;

    /// Additional model-specific axioms appended to the standard three.
    ///
    /// `fence_order` is the relation [`axioms`](Architecture::axioms) already
    /// derived via [`fence_order`](Architecture::fence_order), passed in so
    /// implementations do not recompute it (fence derivation is the most
    /// expensive part of a relaxed model's check).  The default is none; the
    /// relaxed models add the no-thin-air axiom here (see
    /// [`no_thin_air_axiom`]).
    fn extra_axioms(&self, exec: &CandidateExecution, fence_order: &Relation) -> Vec<Axiom> {
        let _ = (exec, fence_order);
        Vec::new()
    }

    /// Assembles the axioms to check for `exec`.
    fn axioms(&self, exec: &CandidateExecution) -> Vec<Axiom> {
        let fr = exec.fr();

        // 1. SC per location: po-loc ∪ com, with com = rf ∪ co ∪ fr.
        let mut sc_per_loc = exec.po_loc();
        sc_per_loc.union_with(exec.rf());
        sc_per_loc.union_with(exec.co());
        sc_per_loc.union_with(&fr);

        // 2. Global happens-before.  The fence order is derived once and also
        //    handed to `extra_axioms` (the relaxed models reuse it for the
        //    no-thin-air axiom).
        let fence_order = self.fence_order(exec);
        let mut ghb = self.ppo(exec);
        ghb.union_with(&fence_order);
        ghb.union_with(&self.global_rf(exec));
        ghb.union_with(exec.co());
        ghb.union_with(&fr);

        // 3. RMW atomicity: for an atomic pair (r, w), no other write w' may
        //    satisfy fr(r, w') and co(w', w).
        let atomicity_violations = rmw_atomicity_violations(exec, &fr);

        let mut axioms = vec![
            Axiom::Acyclic {
                name: "sc-per-location",
                relation: sc_per_loc,
            },
            Axiom::Acyclic {
                name: "ghb",
                relation: ghb,
            },
            Axiom::Empty {
                name: "rmw-atomicity",
                relation: atomicity_violations,
            },
        ];
        axioms.extend(self.extra_axioms(exec, &fence_order));
        axioms
    }
}

/// Computes the set of RMW pairs whose atomicity is violated.
///
/// Returns a relation containing `(read_half, write_half)` for every atomic
/// read-modify-write where some other write to the same address is coherence
/// ordered after the read's source but before the write half.
pub fn rmw_atomicity_violations(exec: &CandidateExecution, fr: &Relation) -> Relation {
    // The write halves of each RMW instruction, keyed by the iiid both halves
    // share.
    let mut write_halves: BTreeMap<Iiid, Vec<EventId>> = BTreeMap::new();
    for w in exec.events() {
        if let (EventKind::RmwWrite, Some(iiid)) = (w.kind, w.iiid) {
            write_halves.entry(iiid).or_default().push(w.id);
        }
    }
    let mut violations = Relation::new();
    for r in exec.events() {
        let (EventKind::RmwRead, Some(iiid)) = (r.kind, r.iiid) else {
            continue;
        };
        for &w in write_halves.get(&iiid).into_iter().flatten() {
            // fr(r, w') and co(w', w) for some w' != w means a write intervened.
            if fr
                .successors(r.id)
                .any(|w_prime| w_prime != w && exec.co().contains(w_prime, w))
            {
                violations.insert(r.id, w);
            }
        }
    }
    violations
}

/// Combinator: program order restricted to memory accesses (fences removed),
/// as a relation between memory events only.
///
/// Like every combinator over `impl AsRef<StaticPart>`, it is a function of
/// the program alone and accepts an execution or its static part.
pub fn po_mem(program: &(impl AsRef<StaticPart> + ?Sized)) -> Relation {
    let program = program.as_ref();
    let memory = &program.masks().memory;
    program.po().restrict(memory, memory)
}

/// `rel` minus its write→read pairs (the store-buffer relaxation).
fn drop_write_read(masks: &EventMasks, rel: &Relation) -> Relation {
    rel.subtract_rows(|a| masks.writes.contains(a).then_some(&masks.reads))
}

/// Combinator: same-address program order minus write→read pairs — the
/// portion of `po-loc` the relaxed models preserve in `ppo`.
///
/// Same-address write→read ordering is deliberately excluded: it is already
/// enforced (together with value agreement) by the **sc-per-location** axiom,
/// and excluding it from `ppo` keeps every relaxed model's `ghb` inside TSO's,
/// which is what makes model strength monotone (TSO's `ppo` drops all W→R
/// pairs, same-address or not).
pub fn po_loc_preserved(program: &(impl AsRef<StaticPart> + ?Sized)) -> Relation {
    let program = program.as_ref();
    drop_write_read(program.masks(), program.po_loc())
}

/// Combinator: the union of all recorded syntactic dependencies
/// (address, data and control edges), i.e. the dependency-ordered part of the
/// preserved program order of the relaxed models.
pub fn dependency_order(program: &(impl AsRef<StaticPart> + ?Sized)) -> Relation {
    program.as_ref().dependency_order().clone()
}

/// The preserved program order the three relaxed models share: syntactic
/// dependencies plus the preserved part of `po-loc`.
fn relaxed_ppo(program: &StaticPart) -> Relation {
    let mut ppo = dependency_order(program);
    ppo.union_with(&po_loc_preserved(program));
    ppo
}

/// The store-store and load-load fence orders (`DMB ST` / `DMB LD`,
/// `eieio`-like): narrow barriers no model closes cumulatively.
fn narrow_fences(program: &StaticPart) -> Relation {
    let m = program.masks();
    let mut out = ordered_by_fence(program, FenceKind::StoreStore, &m.writes, &m.writes);
    out.union_with(&ordered_by_fence(
        program,
        FenceKind::LoadLoad,
        &m.reads,
        &m.reads,
    ));
    out
}

/// Combinator: closes a fence order cumulatively with external reads-from.
///
/// Returns `base ∪ (rfe ; base) ∪ (base ; rfe) ∪ (rfe ; base ; rfe)`: writes
/// propagated to a thread before its fence (A-cumulativity) and reads that
/// observe a write ordered by the fence (B-cumulativity) inherit the fence's
/// ordering.  This is what makes `MP+sync+addr`-style shapes forbidden under
/// the non-multi-copy-atomic models, where `rfe` itself is not global.
pub fn cumulative(exec: &CandidateExecution, base: &Relation) -> Relation {
    let rfe = exec.rf_external();
    let mut out = base.clone();
    let before = rfe.compose(base);
    out.union_with(&before.compose(&rfe));
    out.union_with(&before);
    out.union_with(&base.compose(&rfe));
    out
}

/// Builds the relaxed models' **no-thin-air** axiom: `deps ∪ fence ∪ rfe`
/// must be acyclic.
///
/// Without reads-from in the global happens-before, a load-buffering cycle
/// through dependencies (`LB+deps`) would go unnoticed; this axiom restores
/// the causality requirement without making the model multi-copy-atomic
/// (IRIW-style shapes stay allowed because `co`/`fr` are not part of it).
pub fn no_thin_air_axiom(exec: &CandidateExecution, fence_order: &Relation) -> Axiom {
    let mut hb = dependency_order(exec);
    hb.union_with(fence_order);
    hb.union_with(&exec.rf_external());
    Axiom::Acyclic {
        name: "no-thin-air",
        relation: hb,
    }
}

/// The fence events of `program` whose kind satisfies `matches`.
fn fences<F: Fn(FenceKind) -> bool>(program: &StaticPart, matches: F) -> EventSet {
    program
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fence(kind) if matches(kind)))
        .map(|e| e.id)
        .collect()
}

/// Pairs `(a, b)` of distinct events, `a` in `sources` and `b` in
/// `targets`, with a member of `barriers` between them in program order —
/// `po|sources→barriers ; po|barriers→targets`, one row OR per pair of the
/// left factor.  A barrier that is itself a source or target (an RMW half
/// among the memory accesses) counts as being on both sides of itself.
fn ordered_across(
    program: &StaticPart,
    barriers: &EventSet,
    sources: &EventSet,
    targets: &EventSet,
) -> Relation {
    let mut before = program.po().restrict(sources, barriers);
    let mut after = program.po().restrict(barriers, targets);
    for f in barriers.iter() {
        if sources.contains(f) {
            before.insert(f, f);
        }
        if targets.contains(f) {
            after.insert(f, f);
        }
    }
    let mut out = before.compose(&after);
    for a in sources.iter() {
        out.remove(a, a);
    }
    out
}

/// Combinator: pairs `(a, b)`, `a` in `sources` and `b` in `targets`,
/// separated in program order by a fence of exactly `kind` — a fence flavour
/// that orders only some access kinds across it (fence-implying RMWs not
/// included: they order like a full fence, see [`fence_separated`]).
pub fn ordered_by_fence(
    program: &(impl AsRef<StaticPart> + ?Sized),
    kind: FenceKind,
    sources: &EventSet,
    targets: &EventSet,
) -> Relation {
    let program = program.as_ref();
    ordered_across(program, &fences(program, |k| k == kind), sources, targets)
}

/// Combinator: pairs of memory accesses separated (in program order) by a
/// fence satisfying `matches`, or by a fence-implying RMW.
pub fn fence_separated<F>(program: &(impl AsRef<StaticPart> + ?Sized), matches: F) -> Relation
where
    F: Fn(FenceKind) -> bool,
{
    // x86 locked RMWs drain the store buffer: they order everything before
    // them against everything after them — and, being memory accesses, are
    // themselves ordered against both sides (a locked instruction's write is
    // globally performed before any later read of the same core).
    let program = program.as_ref();
    let mut barriers = fences(program, matches);
    for e in program.events().iter().filter(|e| e.kind.is_rmw()) {
        barriers.insert(e.id);
    }
    let memory = &program.masks().memory;
    ordered_across(program, &barriers, memory, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Address, FenceKind, ProcessorId, Value};
    use crate::execution::ExecutionBuilder;

    #[test]
    fn axiom_accessors() {
        let a = Axiom::Acyclic {
            name: "ghb",
            relation: Relation::new(),
        };
        assert_eq!(a.name(), "ghb");
        assert!(a.relation().is_empty());
        assert_eq!(format!("{a}"), "acyclic(ghb)");
        let e = Axiom::Empty {
            name: "rmw-atomicity",
            relation: Relation::new(),
        };
        assert_eq!(format!("{e}"), "empty(rmw-atomicity)");
    }

    #[test]
    fn fence_separated_orders_across_mfence() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let w = b.write(p0, Address(0x10), Value(1));
        b.fence(p0, FenceKind::Full);
        let r = b.read(p0, Address(0x20), Value(0));
        b.reads_from_initial(r);
        b.coherence_after_initial(w);
        let exec = b.build();
        let fo = fence_separated(&exec, |k| k == FenceKind::Full);
        assert!(fo.contains(w, r));
    }

    #[test]
    fn fence_separated_ignores_non_matching_fences() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let w = b.write(p0, Address(0x10), Value(1));
        b.fence(p0, FenceKind::StoreStore);
        let r = b.read(p0, Address(0x20), Value(0));
        b.reads_from_initial(r);
        b.coherence_after_initial(w);
        let exec = b.build();
        let fo = fence_separated(&exec, |k| k == FenceKind::Full);
        assert!(!fo.contains(w, r));
    }

    #[test]
    fn rmw_implies_fence_order() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let w = b.write(p0, Address(0x10), Value(1));
        let (rr, rw) = b.rmw(p0, Address(0x30), Value(0), Value(7));
        let r = b.read(p0, Address(0x20), Value(0));
        b.reads_from_initial(rr);
        b.reads_from_initial(r);
        b.coherence_after_initial(w);
        b.coherence_after_initial(rw);
        let exec = b.build();
        let fo = fence_separated(&exec, |k| k == FenceKind::Full);
        assert!(fo.contains(w, r), "W -> RMW -> R must be ordered");
    }

    #[test]
    fn model_kind_registry_is_consistent() {
        assert_eq!(ModelKind::ALL.len(), 5);
        let mut names: Vec<&str> = ModelKind::ALL.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5, "model names must be unique");
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
            assert_eq!(
                ModelKind::parse(&kind.name().to_lowercase()),
                Some(kind),
                "parsing is case-insensitive"
            );
            assert_eq!(format!("{kind}"), kind.instance().name());
        }
        assert_eq!(ModelKind::parse("no-such-model"), None);
        assert_eq!(ModelKind::default(), ModelKind::Tso);
        assert!("tso".parse::<ModelKind>().is_ok());
        assert!("bogus".parse::<ModelKind>().is_err());
    }

    #[test]
    fn po_loc_preserved_drops_write_read_pairs() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let x = Address(0x10);
        let w = b.write(p0, x, Value(1));
        let r = b.read(p0, x, Value(1));
        let w2 = b.write(p0, x, Value(2));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        b.coherence(w, w2);
        let exec = b.build();
        let ppo = po_loc_preserved(&exec);
        assert!(!ppo.contains(w, r), "W->R same-address is not in ppo");
        assert!(ppo.contains(r, w2), "R->W same-address is preserved");
        assert!(ppo.contains(w, w2), "W->W same-address is preserved");
    }

    #[test]
    fn cumulative_closes_fence_order_with_rfe() {
        // P0: W x; F; W y.  P1: R y (reads wy).
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let wx = b.write(p0, Address(0x10), Value(1));
        b.fence(p0, FenceKind::Full);
        let wy = b.write(p0, Address(0x20), Value(2));
        let ry = b.read(p1, Address(0x20), Value(2));
        b.reads_from(wy, ry);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        let exec = b.build();
        let base = fence_separated(&exec, |k| k == FenceKind::Full);
        let cum = cumulative(&exec, &base);
        assert!(base.contains(wx, wy));
        assert!(!base.contains(wx, ry));
        assert!(cum.contains(wx, wy), "cumulative contains the base");
        assert!(cum.contains(wx, ry), "B-cumulativity: fence ; rfe");
    }

    #[test]
    fn dependency_order_unions_all_kinds() {
        use crate::event::DepKind;
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let r = b.read(p0, Address(0x10), Value(0));
        let r2 = b.read(p0, Address(0x20), Value(0));
        let w = b.write(p0, Address(0x30), Value(1));
        b.reads_from_initial(r);
        b.reads_from_initial(r2);
        b.coherence_after_initial(w);
        b.dependency(DepKind::Addr, r, r2);
        b.dependency(DepKind::Ctrl, r2, w);
        let exec = b.build();
        let deps = dependency_order(&exec);
        assert!(deps.contains(r, r2));
        assert!(deps.contains(r2, w));
        assert_eq!(deps.len(), 2);
    }

    #[test]
    fn atomicity_violation_detected() {
        // RMW reads from init, but another write is co-between init and the
        // RMW's write half.
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let p1 = ProcessorId(1);
        let (rr, rw) = b.rmw(p0, Address(0x10), Value(0), Value(7));
        let intruder = b.write(p1, Address(0x10), Value(3));
        b.reads_from_initial(rr);
        b.coherence_after_initial(intruder);
        b.coherence(intruder, rw);
        let exec = b.build();
        let fr = exec.fr();
        let v = rmw_atomicity_violations(&exec, &fr);
        assert!(v.contains(rr, rw));
    }

    #[test]
    fn atomicity_ok_when_no_intervening_write() {
        let mut b = ExecutionBuilder::new();
        let p0 = ProcessorId(0);
        let (rr, rw) = b.rmw(p0, Address(0x10), Value(0), Value(7));
        b.reads_from_initial(rr);
        b.coherence_after_initial(rw);
        let exec = b.build();
        let fr = exec.fr();
        let v = rmw_atomicity_violations(&exec, &fr);
        assert!(v.is_empty());
    }
}
