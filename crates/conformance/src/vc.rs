//! The three-valued conformance checker and coherence inference for traces.
//!
//! In simulation every conflict order is observed, so checking an execution
//! comes down to a few cycle searches over the model's derived relations
//! (paper §4.1) — the axiomatic [`Checker`]'s job.  [`VcChecker`] runs that
//! checker and reads its verdict three ways.  Under SC and TSO it runs the
//! model's own axioms and decides exactly.  The dependency-ordered models are
//! checked against SC's axioms instead: an SC-consistent execution is
//! consistent under every weaker model (the strength chain is monotone), and a
//! breach of sc-per-location or rmw-atomicity violates every model of the
//! suite; any other SC cycle proves nothing about them, so the checker
//! [abstains](VcVerdict::Abstain) and leaves the verdict to the model's own
//! axioms.
//!
//! The second half, [`infer_coherence`], reconstructs per-location coherence
//! order for black-box traces where `co` is unobserved: the saturation rules
//! forced by sc-per-location (write→write, write→read, read→write and
//! read→read program order, plus the observed final state) either complete
//! `co`, contradict each other (a definite violation), or leave writes
//! unordered (the caller reports the trace undecided rather than search
//! totalisations).

use mcversi_mcm::checker::{CheckError, Checker, Verdict};
use mcversi_mcm::event::{Address, EventId, Value};
use mcversi_mcm::execution::CandidateExecution;
use mcversi_mcm::model::{self, ModelKind};
use mcversi_mcm::relation::Relation;
use std::fmt;

/// A violation witnessed by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcWitness {
    /// Name of the violated axiom (the axiomatic checker's axiom names).
    pub axiom: String,
    /// The witnessing cycle (or offending pairs flattened, for emptiness
    /// axioms), as event ids of the checked execution.
    pub cycle: Vec<EventId>,
}

impl fmt::Display for VcWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "axiom '{}' violated ({} events)",
            self.axiom,
            self.cycle.len()
        )
    }
}

/// Why the checker abstained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstainReason {
    /// The target model is weaker than TSO and the execution breaks SC's
    /// happens-before, which proves nothing about the target.
    WeakModel(ModelKind),
    /// The execution object is malformed; the axiomatic checker reports this
    /// case authoritatively.
    Malformed(String),
}

impl fmt::Display for AbstainReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstainReason::WeakModel(m) => {
                write!(
                    f,
                    "model {m} is weaker than TSO and no decided axiom settled it"
                )
            }
            AbstainReason::Malformed(e) => write!(f, "malformed execution: {e}"),
        }
    }
}

/// The three-valued verdict of [`VcChecker`].
///
/// `Valid` is always sound (the axiomatic checker would also accept);
/// `Violation` is always sound for SC and TSO and, for weaker models, only
/// produced from axioms every model shares; `Abstain` means the checker
/// could not decide and the caller must consult the model's own axioms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcVerdict {
    /// The execution conforms to the model.
    Valid,
    /// The execution violates the model; the witness names the broken axiom.
    Violation(VcWitness),
    /// The checker could not decide; consult the axiomatic checker.
    Abstain(AbstainReason),
}

impl VcVerdict {
    /// Returns `true` when the checker certified the execution valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, VcVerdict::Valid)
    }

    /// Returns `true` when the checker witnessed a violation.
    pub fn is_violation(&self) -> bool {
        matches!(self, VcVerdict::Violation(_))
    }

    /// Returns `true` when the checker abstained.
    pub fn is_abstain(&self) -> bool {
        matches!(self, VcVerdict::Abstain(_))
    }
}

impl fmt::Display for VcVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcVerdict::Valid => write!(f, "valid"),
            VcVerdict::Violation(w) => write!(f, "violation: {w}"),
            VcVerdict::Abstain(r) => write!(f, "abstain: {r}"),
        }
    }
}

/// The three-valued conformance checker for one target model.
#[derive(Debug, Clone, Copy)]
pub struct VcChecker {
    model: ModelKind,
}

impl VcChecker {
    /// Creates a checker deciding conformance to `model`.
    pub fn new(model: ModelKind) -> Self {
        VcChecker { model }
    }

    /// The model this checker decides against.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// Checks one execution (complete conflict orders required; use
    /// [`infer_coherence`] first for trace-derived executions without `co`).
    pub fn check(&self, exec: &CandidateExecution) -> VcVerdict {
        let weak = self.model.is_relaxed();
        let axioms = if weak { ModelKind::Sc } else { self.model };
        let mut violation = match Checker::new(axioms.instance()).try_check(exec) {
            Ok(Verdict::Valid) => return VcVerdict::Valid,
            Ok(Verdict::Invalid(v)) => v,
            Err(CheckError::MalformedExecution(e)) => {
                return VcVerdict::Abstain(AbstainReason::Malformed(e.to_string()))
            }
        };
        // SC's axioms stop at the first broken one, so a ghb cycle may hide
        // an atomicity breach, which every model forbids.
        if weak && violation.axiom == "ghb" {
            let atomicity = model::rmw_atomicity_violations(exec, &exec.fr());
            if atomicity.is_empty() {
                return VcVerdict::Abstain(AbstainReason::WeakModel(self.model));
            }
            violation.axiom = "rmw-atomicity".to_string();
            violation.witness = atomicity.iter().flat_map(|(a, b)| [a, b]).collect();
        }
        VcVerdict::Violation(VcWitness {
            axiom: violation.axiom,
            cycle: violation.witness,
        })
    }
}

/// Result of per-location coherence-order inference over a trace-derived
/// execution (see [`infer_coherence`]).
#[derive(Debug, Clone)]
pub enum CoherenceInference {
    /// Every address's writes are totally ordered by the forced edges; the
    /// returned execution carries the completed coherence order.  (Boxed:
    /// an execution is much larger than the other variants' payloads.)
    Complete(Box<CandidateExecution>),
    /// The forced edges contradict each other: no coherence order satisfies
    /// sc-per-location, so the trace violates every model of the suite.
    Contradiction {
        /// The address whose forced coherence edges form a cycle.
        addr: Address,
        /// The witnessing cycle of write events.
        witness: Vec<EventId>,
    },
    /// The observed final value of this address matches no write of the
    /// trace: the final state is unreachable under any coherence order.
    FinalMismatch {
        /// The address whose final value is unaccounted for.
        addr: Address,
        /// The observed final value.
        value: Value,
    },
    /// Some pair of writes to this address is unordered after saturation; the
    /// trace admits several coherence orders.
    Underdetermined {
        /// The address whose writes the trace leaves partially ordered.
        addr: Address,
    },
}

/// Infers each location's coherence order from observed reads-from, program
/// order and (optionally) the final memory state.
///
/// The rules are exactly the orderings sc-per-location forces for
/// same-address events (writes `w`, reads `r`, `src(r)` the rf-source):
///
/// * the initial write precedes every other write;
/// * `w1 →po w2` forces `w1 →co w2`;
/// * `w →po r` forces `w →co src(r)` (when `src(r) ≠ w`);
/// * `r →po w` forces `src(r) →co w`;
/// * `r1 →po r2` forces `src(r1) →co src(r2)` (when the sources differ);
/// * a final value selects its write as coherence-maximal.
///
/// Any coherence order satisfying sc-per-location extends the transitive
/// closure of these edges, so a total closure is *the* coherence order, a
/// cycle among them refutes all of them, and an incomplete one is reported
/// as [`Underdetermined`](CoherenceInference::Underdetermined) rather than
/// searched.  A final value other than the initial one that no write to its
/// address stored is a [`FinalMismatch`](CoherenceInference::FinalMismatch),
/// whether or not the address was touched.
pub fn infer_coherence(
    exec: &CandidateExecution,
    finals: &[(Address, Value)],
) -> CoherenceInference {
    for &(addr, value) in finals {
        if value != Value::INITIAL && !exec.writes_to(addr).any(|w| w.value == value) {
            return CoherenceInference::FinalMismatch { addr, value };
        }
    }
    let mut co = Relation::new();
    for addr in exec.addresses() {
        let writes: Vec<EventId> = exec.writes_to(addr).map(|e| e.id).collect();
        if writes.len() <= 1 {
            continue;
        }
        let mut forced = Relation::new();
        // Already-known edges (initial-write ordering recorded at lowering).
        for (a, b) in exec.co_observed().iter() {
            if exec.event(a).addr == Some(addr) {
                forced.insert(a, b);
            }
        }
        let src_of = |r: EventId| -> Option<EventId> {
            exec.rf().iter().find(|&(_, rd)| rd == r).map(|(w, _)| w)
        };
        for &a in &writes {
            if exec.event(a).is_initial() {
                for &b in &writes {
                    if a != b {
                        forced.insert(a, b);
                    }
                }
            }
        }
        let same_addr_events: Vec<EventId> = exec
            .events()
            .iter()
            .filter(|e| e.addr == Some(addr) && e.kind.is_memory_access())
            .map(|e| e.id)
            .collect();
        for &a in &same_addr_events {
            for &b in &same_addr_events {
                if a == b || !exec.po().contains(a, b) {
                    continue;
                }
                let ea = exec.event(a);
                let eb = exec.event(b);
                let wa = if ea.is_write() { Some(a) } else { src_of(a) };
                let wb = if eb.is_write() { Some(b) } else { src_of(b) };
                if let (Some(wa), Some(wb)) = (wa, wb) {
                    if wa != wb {
                        forced.insert(wa, wb);
                    }
                }
            }
        }
        if let Some(&(_, value)) = finals.iter().find(|&&(a, _)| a == addr) {
            let last = writes.iter().copied().find(|&w| {
                exec.event(w).value == value
                    && (value != Value::INITIAL || exec.event(w).is_initial())
            });
            let Some(last) = last else {
                return CoherenceInference::FinalMismatch { addr, value };
            };
            for &w in &writes {
                if w != last {
                    forced.insert(w, last);
                }
            }
        }
        // On `forced` itself, not its closure: there every event on a cycle
        // has a self-loop, which would witness the cycle by one event.
        if let Some(witness) = forced.find_cycle() {
            return CoherenceInference::Contradiction { addr, witness };
        }
        let closed = forced.transitive_closure();
        for (i, &a) in writes.iter().enumerate() {
            for &b in writes.iter().skip(i + 1) {
                if !closed.contains(a, b) && !closed.contains(b, a) {
                    return CoherenceInference::Underdetermined { addr };
                }
            }
        }
        co.union_with(&closed);
    }
    CoherenceInference::Complete(Box::new(CandidateExecution::from_parts_with_deps(
        exec.events().to_vec(),
        exec.po().clone(),
        exec.rf().clone(),
        co,
        exec.deps().clone(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_mcm::checker::Checker;
    use mcversi_mcm::event::{ProcessorId, Value};
    use mcversi_mcm::execution::ExecutionBuilder;

    fn p(n: u32) -> ProcessorId {
        ProcessorId(n)
    }

    /// SB without fences: two threads store then load the other's location,
    /// both loads observing the initial value.
    fn store_buffer_weak() -> CandidateExecution {
        let mut b = ExecutionBuilder::new();
        let (x, y) = (Address(0x100), Address(0x200));
        let w0 = b.write(p(0), x, Value(1));
        let r0 = b.read(p(0), y, Value(0));
        let w1 = b.write(p(1), y, Value(1));
        let r1 = b.read(p(1), x, Value(0));
        b.reads_from_initial(r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        b.build()
    }

    /// Message passing with the consumer observing the flag but stale data.
    fn mp_violation() -> CandidateExecution {
        let mut b = ExecutionBuilder::new();
        let (x, y) = (Address(0x100), Address(0x200));
        let wx = b.write(p(0), x, Value(1));
        let wy = b.write(p(0), y, Value(1));
        let ry = b.read(p(1), y, Value(1));
        let rx = b.read(p(1), x, Value(0));
        b.reads_from(wy, ry);
        b.reads_from_initial(rx);
        b.coherence_after_initial(wx);
        b.coherence_after_initial(wy);
        b.build()
    }

    #[test]
    fn sb_is_tso_valid_but_sc_invalid() {
        let exec = store_buffer_weak();
        assert!(VcChecker::new(ModelKind::Tso).check(&exec).is_valid());
        let sc = VcChecker::new(ModelKind::Sc).check(&exec);
        assert!(sc.is_violation(), "{sc:?}");
    }

    #[test]
    fn mp_is_a_tso_violation_with_a_real_cycle_witness() {
        let exec = mp_violation();
        let verdict = VcChecker::new(ModelKind::Tso).check(&exec);
        let VcVerdict::Violation(w) = verdict else {
            panic!("expected violation, got {verdict:?}");
        };
        assert_eq!(w.axiom, "ghb");
        assert!(w.cycle.len() >= 2);
        assert!(!format!("{w}").is_empty());
    }

    #[test]
    fn weak_models_accept_sc_valid_and_abstain_on_sc_cycles() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r = b.read(p(1), Address(0x10), Value(1));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let simple = b.build();
        for weak in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
            assert!(VcChecker::new(weak).check(&simple).is_valid());
            let verdict = VcChecker::new(weak).check(&store_buffer_weak());
            assert_eq!(
                verdict,
                VcVerdict::Abstain(AbstainReason::WeakModel(weak)),
                "SB has an SC cycle, so the weak-model pass must abstain"
            );
        }
    }

    #[test]
    fn coherence_cycle_is_a_violation_for_every_model() {
        // CoRR inversion: same thread reads x=2 then x=1 while co orders
        // w1 before w2 — a po-loc ∪ com cycle.
        let mut b = ExecutionBuilder::new();
        let x = Address(0x10);
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(0), x, Value(2));
        let ra = b.read(p(1), x, Value(2));
        let rb = b.read(p(1), x, Value(1));
        b.reads_from(w2, ra);
        b.reads_from(w1, rb);
        b.coherence_after_initial(w1);
        b.coherence(w1, w2);
        let exec = b.build();
        for model in ModelKind::ALL {
            let verdict = VcChecker::new(model).check(&exec);
            let VcVerdict::Violation(w) = verdict else {
                panic!("{model}: expected violation, got {verdict:?}");
            };
            assert_eq!(w.axiom, "sc-per-location");
        }
    }

    #[test]
    fn rmw_atomicity_breach_is_reported() {
        let mut b = ExecutionBuilder::new();
        let x = Address(0x10);
        let (rr, rw) = b.rmw(p(0), x, Value(0), Value(7));
        let intruder = b.write(p(1), x, Value(3));
        b.reads_from_initial(rr);
        b.coherence_after_initial(intruder);
        b.coherence(intruder, rw);
        let exec = b.build();
        let verdict = VcChecker::new(ModelKind::Tso).check(&exec);
        let VcVerdict::Violation(w) = verdict else {
            panic!("expected violation, got {verdict:?}");
        };
        assert_eq!(w.axiom, "rmw-atomicity");
    }

    #[test]
    fn malformed_executions_abstain_to_the_axiomatic_checker() {
        let mut b = ExecutionBuilder::new();
        b.read(p(0), Address(0x10), Value(0));
        let exec = b.build();
        let verdict = VcChecker::new(ModelKind::Tso).check(&exec);
        assert!(
            matches!(verdict, VcVerdict::Abstain(AbstainReason::Malformed(_))),
            "{verdict:?}"
        );
    }

    #[test]
    fn vc_verdict_agrees_with_the_axiomatic_checker_on_litmus_shapes() {
        for exec in [store_buffer_weak(), mp_violation()] {
            for model in [ModelKind::Sc, ModelKind::Tso] {
                let vc = VcChecker::new(model).check(&exec);
                let axiomatic = Checker::new(model.instance()).check(&exec);
                assert_eq!(
                    vc.is_valid(),
                    axiomatic.is_valid(),
                    "{model}: vc={vc:?} axiomatic={axiomatic:?}"
                );
                assert!(!vc.is_abstain(), "SC/TSO decisions are exact");
            }
        }
    }

    fn strip_co(exec: &CandidateExecution) -> CandidateExecution {
        // Keep only initial-write ordering, as trace lowering would.
        let co = exec.co_observed().filter(|a, _| exec.event(a).is_initial());
        CandidateExecution::from_parts_with_deps(
            exec.events().to_vec(),
            exec.po().clone(),
            exec.rf().clone(),
            co,
            exec.deps().clone(),
        )
    }

    #[test]
    fn coherence_inference_recovers_the_unique_order() {
        // One thread writes x=1 then x=2; a reader sees 1 then 2.  The final
        // state pins nothing extra — po alone orders the writes.
        let mut b = ExecutionBuilder::new();
        let x = Address(0x10);
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(0), x, Value(2));
        let r = b.read(p(1), x, Value(2));
        b.reads_from(w2, r);
        b.coherence_after_initial(w1);
        b.coherence(w1, w2);
        let full = b.build();
        let stripped = strip_co(&full);
        match infer_coherence(&stripped, &[]) {
            CoherenceInference::Complete(exec) => {
                assert!(exec.co().contains(w1, w2));
                assert!(!exec.co().contains(w2, w1));
                assert!(exec.validate().is_ok());
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn final_state_orders_otherwise_incomparable_writes() {
        // Two threads each write x once; nothing reads.  Without the final
        // state the order is underdetermined; with it, pinned.
        let mut b = ExecutionBuilder::new();
        let x = Address(0x10);
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(1), x, Value(2));
        b.coherence_after_initial(w1);
        b.coherence_after_initial(w2);
        let exec = strip_co(&b.build());
        assert!(matches!(
            infer_coherence(&exec, &[]),
            CoherenceInference::Underdetermined { addr } if addr == x
        ));
        match infer_coherence(&exec, &[(x, Value(2))]) {
            CoherenceInference::Complete(done) => {
                assert!(done.co().contains(w1, w2));
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        assert!(matches!(
            infer_coherence(&exec, &[(x, Value(9))]),
            CoherenceInference::FinalMismatch { addr, value } if addr == x && value == Value(9)
        ));
    }

    #[test]
    fn contradictory_observations_are_refuted() {
        // Reader thread sees x=2 then x=1 (CoRR), but po orders w1 before w2:
        // the forced edges w1→w2 (po) and w2→w1 (read order) collide.
        let mut b = ExecutionBuilder::new();
        let x = Address(0x10);
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(0), x, Value(2));
        let ra = b.read(p(1), x, Value(2));
        let rb = b.read(p(1), x, Value(1));
        b.reads_from(w2, ra);
        b.reads_from(w1, rb);
        b.coherence_after_initial(w1);
        b.coherence(w1, w2);
        let exec = strip_co(&b.build());
        assert!(matches!(
            infer_coherence(&exec, &[]),
            CoherenceInference::Contradiction { addr, .. } if addr == x
        ));
    }

    #[test]
    fn a_contradiction_is_witnessed_by_the_writes_on_its_cycle() {
        // CoRR against the initial value: the reader sees x=1 and then 0,
        // so w1 must precede the initial write, which precedes every write.
        let mut b = ExecutionBuilder::new();
        let x = Address(0x10);
        let w1 = b.write(p(0), x, Value(1));
        let ra = b.read(p(1), x, Value(1));
        let rb = b.read(p(1), x, Value(0));
        b.reads_from(w1, ra);
        b.reads_from_initial(rb);
        b.coherence_after_initial(w1);
        let exec = strip_co(&b.build());
        let CoherenceInference::Contradiction { witness, .. } = infer_coherence(&exec, &[]) else {
            panic!("CoRR must contradict every coherence order");
        };
        let mut distinct = witness.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() >= 2, "{witness:?}");
        assert!(distinct.iter().all(|&e| exec.event(e).is_write()));
    }

    #[test]
    fn a_final_value_no_store_wrote_is_a_mismatch() {
        // A load-only address and an address nothing touches: neither has a
        // write to order, so the final value must still be checked.
        let mut b = ExecutionBuilder::new();
        let (x, y) = (Address(0x140), Address(0x180));
        let r = b.read(p(1), x, Value(0));
        b.reads_from_initial(r);
        let exec = b.build();
        for addr in [x, y] {
            assert!(matches!(
                infer_coherence(&exec, &[(addr, Value(7))]),
                CoherenceInference::FinalMismatch { addr: a, value } if a == addr && value == Value(7)
            ));
            assert!(matches!(
                infer_coherence(&exec, &[(addr, Value::INITIAL)]),
                CoherenceInference::Complete(_)
            ));
        }
    }

    #[test]
    fn inference_matches_observed_coherence_on_simulator_style_executions() {
        // When inference completes on a stripped execution, the recovered co
        // must order every pair exactly as the original did.
        let execs = [store_buffer_weak(), mp_violation()];
        for orig in execs {
            match infer_coherence(&strip_co(&orig), &[]) {
                CoherenceInference::Complete(inferred) => {
                    for (a, b) in orig.co().iter() {
                        assert!(inferred.co().contains(a, b), "lost co edge {a} -> {b}");
                    }
                }
                CoherenceInference::Underdetermined { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
