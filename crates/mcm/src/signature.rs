//! Execution signatures and the cycle oracle: two engines the benchmark
//! measures, off the campaign path.
//!
//! Every campaign checks each execution with the axiomatic checker as it is
//! observed (Algorithm 2).  MTraceCheck (Lustig et al., ISCA'17) instead
//! deduplicates executions by a compact signature and verifies only the novel
//! outcomes; this module keeps the two pieces such a flow would need, so the
//! benchmark can price them against a plain check:
//!
//! 1. [`ExecutionSignature`] — a canonical digest of one observed
//!    [`CandidateExecution`]: per-load reads-from attribution, the observed
//!    coherence edges and the final memory state, all keyed by instruction
//!    identity ([`Iiid`]) so the signature is invariant under event-id
//!    renaming, and scoped by a caller-chosen program identity.  For a
//!    fixed staged program the static event structure (events, `po`, fences,
//!    dependencies) repeats every iteration, so the signature *determines*
//!    the candidate execution up to checker equivalence: two complete
//!    executions with equal signatures always receive the same checker
//!    verdict.
//! 2. [`classify_execution`] — a zero-checker oracle built on the PR 5
//!    critical-cycle relaxation tables ([`ModelKind::forbids_cycle`]): an
//!    execution whose `po ∪ rf ∪ co ∪ fr` union is acyclic is
//!    SC-consistent and therefore valid under *every* supported model (all
//!    acyclicity axioms constrain subsets of that union), and a small cyclic
//!    execution can often be classified outright by extracting its critical
//!    cycles and consulting the closed-form oracle.

use crate::cycle::{CriticalCycle, CycleEdge, Dir};
use crate::event::{Address, DepKind, EventId, FenceKind, Iiid, Value};
use crate::execution::CandidateExecution;
use crate::model::{rmw_atomicity_violations, ModelKind};
use crate::relation::Relation;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// The attributed source of one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RfSource {
    /// The load observed the initial (pre-test) value of its address.
    Initial,
    /// The load observed the write issued by this instruction instance.
    Write(Iiid),
    /// The observer recorded no source for the load (partial observation).
    Unattributed,
}

/// The identity of one write in a coherence chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WriteTag {
    /// The synthetic initial write of the given address.
    Initial(Address),
    /// The write issued by this instruction instance.
    Instr(Iiid),
}

/// A canonical signature of one observed execution.
///
/// The signature captures, keyed by instruction identity rather than event
/// id (so it is invariant under the order in which the observer happened to
/// record events):
///
/// * `rf` — for every load, which write it observed;
/// * `co` — the observed immediate coherence edges (which write each write
///   directly overwrote);
/// * `finals` — the final memory state: per address, the value of the
///   coherence-maximal write;
/// * `program` — the staged program's identity hash, so signatures of
///   different tests never compare equal.
///
/// Equality is exact, not probabilistic: two executions with different
/// reads-from attribution, coherence order or final state always produce
/// unequal signatures (the components are canonical encodings, not lossy
/// hashes).  [`ExecutionSignature::digest`] additionally provides a compact
/// 64-bit digest for display and telemetry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExecutionSignature {
    program: u64,
    rf: Vec<(Iiid, RfSource)>,
    co: Vec<(WriteTag, WriteTag)>,
    finals: Vec<(Address, Value)>,
}

impl ExecutionSignature {
    /// Computes the signature of `exec` under the given staged-program
    /// identity hash.
    pub fn of(exec: &CandidateExecution, program: u64) -> Self {
        let tag_of = |id: EventId| -> WriteTag {
            let ev = exec.event(id);
            match ev.iiid {
                Some(iiid) => WriteTag::Instr(iiid),
                None => WriteTag::Initial(ev.addr.unwrap_or(Address(0))),
            }
        };

        // Per-load reads-from attribution, keyed by the reader's iiid: the
        // first (smallest-id) source of each read, found in one pass over
        // `rf` instead of a column scan per read.
        let mut first_source: Vec<Option<EventId>> = vec![None; exec.len()];
        for (w, r) in exec.rf().iter() {
            if let Some(source) = first_source.get_mut(r.index()) {
                source.get_or_insert(w);
            }
        }
        let mut rf: Vec<(Iiid, RfSource)> = Vec::new();
        for read in exec.reads() {
            let Some(iiid) = read.iiid else { continue };
            let source = match first_source[read.id.index()] {
                Some(w) => match exec.event(w).iiid {
                    Some(src) => RfSource::Write(src),
                    None => RfSource::Initial,
                },
                None => RfSource::Unattributed,
            };
            rf.push((iiid, source));
        }
        rf.sort_unstable();

        // Observed immediate coherence edges.
        let mut co: Vec<(WriteTag, WriteTag)> = exec
            .co_observed()
            .iter()
            .map(|(a, b)| (tag_of(a), tag_of(b)))
            .collect();
        co.sort_unstable();

        // Final memory state: per address, the value of the write with no
        // coherence successor (deterministically tie-broken by tag when the
        // observed order is partial).
        let mut finals: Vec<(Address, Value)> = Vec::new();
        for addr in exec.addresses() {
            let writes: Vec<&crate::event::Event> = exec.writes_to(addr).collect();
            if writes.is_empty() {
                continue;
            }
            let maximal = writes
                .iter()
                .filter(|w| {
                    !exec
                        .co()
                        .successors(w.id)
                        .any(|s| exec.event(s).addr == Some(addr))
                })
                .max_by_key(|w| tag_of(w.id));
            if let Some(w) = maximal {
                finals.push((addr, w.value));
            }
        }
        finals.sort_unstable();

        ExecutionSignature {
            program,
            rf,
            co,
            finals,
        }
    }

    /// The staged-program identity hash this signature was computed under.
    pub fn program(&self) -> u64 {
        self.program
    }

    /// A compact 64-bit digest of the signature (for display and telemetry;
    /// equality compares the full structure, not this digest).
    pub fn digest(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// Largest execution (event count) the cycle-extraction tier of the oracle
/// attempts; bigger executions fall back to [`OracleVerdict::Undecided`]
/// after the (cheap) SC-consistency test.
const ORACLE_EVENT_CAP: usize = 48;
/// Simple-cycle enumeration bounds: beyond any of these the oracle abstains.
const ORACLE_MAX_CYCLES: usize = 128;
const ORACLE_MAX_STEPS: usize = 50_000;
const ORACLE_MAX_CYCLE_LEN: usize = 16;

/// The cycle oracle's classification of one execution (see
/// [`classify_execution`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleVerdict {
    /// `po ∪ rf ∪ co ∪ fr` is acyclic (and RMW atomicity holds): the
    /// execution is SC-consistent, hence valid under every supported model.
    ScConsistent,
    /// Every simple communication/program-order cycle of the execution was
    /// extracted, classified as a critical cycle and found *allowed* by the
    /// model's relaxation tables: the execution is valid, with zero checker
    /// runs.
    AllowedCycles,
    /// Some extracted critical cycle is forbidden by the model.  The caller
    /// should run the full checker to obtain the authoritative
    /// [`Violation`](crate::checker::Violation) witness.
    ForbiddenCycle,
    /// The oracle makes no claim (large execution, enumeration bounds hit,
    /// an unclassifiable cycle, RMW events on a cycle, …); the caller must
    /// fall back to the full checker.
    Undecided,
}

impl OracleVerdict {
    /// Returns `true` when the oracle certifies the execution valid with
    /// zero checker invocations.
    pub fn certifies_valid(self) -> bool {
        matches!(
            self,
            OracleVerdict::ScConsistent | OracleVerdict::AllowedCycles
        )
    }
}

/// Classifies an execution against `model` using only the PR 5 closed-form
/// cycle oracle — no axiomatic checker run.
///
/// Soundness rests on two facts about the supported model family:
///
/// * every acyclicity axiom of every [`ModelKind`] constrains a subset of
///   `po ∪ rf ∪ co ∪ fr` (ppo and fence order are subsets of `po`, global
///   rf a subset of `rf`), so an execution whose union relation is acyclic
///   satisfies them all;
/// * the only emptiness axiom is RMW atomicity, which is tested directly
///   via [`rmw_atomicity_violations`].
///
/// A claim of [`OracleVerdict::ForbiddenCycle`] is *advisory*: callers
/// re-run the checker for the authoritative witness, so a misclassified
/// cycle can cost a checker run but never an incorrect verdict.  The
/// conformance gate in `mcversi-bench` pins the oracle's agreement with the
/// checker over the whole enumerated litmus corpus.
pub fn classify_execution(exec: &CandidateExecution, model: ModelKind) -> OracleVerdict {
    let fr = exec.fr();
    if !rmw_atomicity_violations(exec, &fr).is_empty() {
        return OracleVerdict::Undecided;
    }
    let mut union = exec.po().clone();
    union.union_with(exec.rf());
    union.union_with(exec.co());
    union.union_with(&fr);
    if union.is_acyclic() {
        return OracleVerdict::ScConsistent;
    }
    if exec.len() > ORACLE_EVENT_CAP {
        return OracleVerdict::Undecided;
    }
    let Some(cycles) = simple_cycles(&union) else {
        return OracleVerdict::Undecided;
    };
    let mut all_classified = true;
    let mut seen: BTreeSet<CriticalCycle> = BTreeSet::new();
    for cycle in &cycles {
        match extract_critical_cycle(exec, &fr, cycle) {
            Some(critical) => {
                let canonical = critical.canonicalize();
                if seen.insert(canonical.clone()) && model.forbids_cycle(&canonical) {
                    return OracleVerdict::ForbiddenCycle;
                }
            }
            None => all_classified = false,
        }
    }
    if all_classified {
        OracleVerdict::AllowedCycles
    } else {
        OracleVerdict::Undecided
    }
}

/// Enumerates every simple cycle of `rel` (each reported once, starting at
/// its smallest event id), or `None` when the bounds are exceeded.
fn simple_cycles(rel: &Relation) -> Option<Vec<Vec<EventId>>> {
    let nodes: Vec<EventId> = rel.nodes().into_iter().collect();
    let mut cycles: Vec<Vec<EventId>> = Vec::new();
    let mut steps = 0usize;
    for &root in &nodes {
        let mut path = vec![root];
        let mut on_path: BTreeSet<EventId> = BTreeSet::new();
        on_path.insert(root);
        if !dfs_cycles(rel, root, &mut path, &mut on_path, &mut cycles, &mut steps) {
            return None;
        }
    }
    Some(cycles)
}

/// Depth-first enumeration of simple cycles through `root` using only nodes
/// `>= root`; returns `false` when a bound is exceeded.
fn dfs_cycles(
    rel: &Relation,
    root: EventId,
    path: &mut Vec<EventId>,
    on_path: &mut BTreeSet<EventId>,
    cycles: &mut Vec<Vec<EventId>>,
    steps: &mut usize,
) -> bool {
    let current = *path.last().expect("path is never empty");
    for next in rel.successors(current) {
        *steps += 1;
        if *steps > ORACLE_MAX_STEPS {
            return false;
        }
        if next == root {
            cycles.push(path.clone());
            if cycles.len() > ORACLE_MAX_CYCLES {
                return false;
            }
        } else if next > root && !on_path.contains(&next) && path.len() < ORACLE_MAX_CYCLE_LEN {
            path.push(next);
            on_path.insert(next);
            let ok = dfs_cycles(rel, root, path, on_path, cycles, steps);
            path.pop();
            on_path.remove(&next);
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Attempts to reconstruct a validated [`CriticalCycle`] from a raw simple
/// cycle of `po ∪ rf ∪ co ∪ fr`; returns `None` whenever any step is
/// ambiguous, so a `Some` classification is always faithful.
fn extract_critical_cycle(
    exec: &CandidateExecution,
    fr: &Relation,
    cycle: &[EventId],
) -> Option<CriticalCycle> {
    // Drop fence events from the cycle (program order is transitive, so the
    // detour through a fence implies the direct po edge); reject cycles
    // through RMW halves or initial writes — the critical-cycle vocabulary
    // does not model them.
    let mut accesses: Vec<EventId> = Vec::new();
    for &id in cycle {
        let ev = exec.event(id);
        if ev.is_fence() {
            continue;
        }
        if ev.kind.is_rmw() || ev.iiid.is_none() || ev.addr.is_none() {
            return None;
        }
        accesses.push(id);
    }
    let n = accesses.len();
    if n < 4 {
        return None;
    }

    let mut edges: Vec<CycleEdge> = Vec::with_capacity(n);
    for i in 0..n {
        let a = accesses[i];
        let b = accesses[(i + 1) % n];
        edges.push(classify_edge(exec, fr, a, b)?);
    }

    // Collapse composable external runs (`ws;ws = ws`, `fr;ws = fr`,
    // `rf;fr ⊆ ws`): the raw cycle may take a long way around a coherence
    // chain where the critical cycle uses the single composed edge.
    loop {
        let n = accesses.len();
        if n < 4 {
            return None;
        }
        let composed = (0..n).find_map(|i| {
            let j = (i + 1) % n;
            match (edges[i], edges[j]) {
                (CycleEdge::Ws, CycleEdge::Ws) => Some((i, CycleEdge::Ws)),
                (CycleEdge::Fr, CycleEdge::Ws) => Some((i, CycleEdge::Fr)),
                (CycleEdge::Rf, CycleEdge::Fr) => Some((i, CycleEdge::Ws)),
                _ => None,
            }
        });
        match composed {
            Some((i, merged)) => {
                let j = (i + 1) % n;
                edges[i] = merged;
                edges.remove(j);
                accesses.remove(j);
            }
            None => break,
        }
    }

    // Faithfulness guards the validator cannot express: external edges must
    // connect same-address accesses of different threads, internal edges
    // different-address accesses of the same thread.
    let n = accesses.len();
    let mut dirs: Vec<Dir> = Vec::with_capacity(n);
    for &id in &accesses {
        let ev = exec.event(id);
        dirs.push(if ev.is_read() { Dir::R } else { Dir::W });
    }
    for i in 0..n {
        let a = exec.event(accesses[i]);
        let b = exec.event(accesses[(i + 1) % n]);
        let same_thread = a.iiid.map(|x| x.pid) == b.iiid.map(|x| x.pid);
        let same_addr = a.addr == b.addr;
        if edges[i].is_external() {
            if same_thread || !same_addr {
                return None;
            }
        } else if !same_thread || same_addr {
            return None;
        }
    }

    CriticalCycle::new(edges, dirs).ok()
}

/// Classifies the edge `a → b` of a raw cycle, or `None` when ambiguous.
fn classify_edge(
    exec: &CandidateExecution,
    fr: &Relation,
    a: EventId,
    b: EventId,
) -> Option<CycleEdge> {
    let ea = exec.event(a);
    let eb = exec.event(b);
    let same_thread = ea.iiid.zip(eb.iiid).is_some_and(|(x, y)| x.pid == y.pid);
    if !same_thread {
        return match (ea.is_write(), eb.is_write()) {
            (true, false) if exec.rf().contains(a, b) => Some(CycleEdge::Rf),
            (true, true) if exec.co().contains(a, b) => Some(CycleEdge::Ws),
            (false, true) if fr.contains(a, b) => Some(CycleEdge::Fr),
            _ => None,
        };
    }
    if !exec.po().contains(a, b) {
        return None;
    }
    // Fences separating the pair: exactly one flavour is expressible.
    let kinds: BTreeSet<FenceKind> = exec
        .fences()
        .filter_map(|f| match f.kind {
            crate::event::EventKind::Fence(kind)
                if exec.po().contains(a, f.id) && exec.po().contains(f.id, b) =>
            {
                Some(kind)
            }
            _ => None,
        })
        .collect();
    // Dependencies carried by the pair.
    let dep_kinds: Vec<DepKind> = DepKind::ALL
        .into_iter()
        .filter(|&k| exec.deps().of(k).contains(a, b))
        .collect();
    match (kinds.len(), dep_kinds.len()) {
        (0, 0) => Some(CycleEdge::Po),
        (1, 0) => kinds.first().copied().map(CycleEdge::Fenced),
        (0, 1) => Some(CycleEdge::Dep(dep_kinds[0])),
        // A pair ordered by several flavours at once cannot be expressed as
        // one critical-cycle edge; abstain rather than under-approximate.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::event::ProcessorId;
    use crate::execution::ExecutionBuilder;

    fn p(i: u32) -> ProcessorId {
        ProcessorId(i)
    }

    /// SB with both reads observing the initial values (the weak outcome).
    fn sb_weak() -> CandidateExecution {
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

    /// SB with one read observing the other thread's write (SC-consistent).
    fn sb_strong() -> CandidateExecution {
        let mut b = ExecutionBuilder::new();
        let (x, y) = (Address(0x100), Address(0x200));
        let w0 = b.write(p(0), x, Value(1));
        let r0 = b.read(p(0), y, Value(1));
        let w1 = b.write(p(1), y, Value(1));
        let r1 = b.read(p(1), x, Value(0));
        b.reads_from(w1, r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        b.build()
    }

    #[test]
    fn signature_is_invariant_under_insertion_order() {
        // The same abstract execution built in two different event orders.
        let mut b = ExecutionBuilder::new();
        let (x, y) = (Address(0x100), Address(0x200));
        let w1 = b.write(p(1), y, Value(1));
        let r1 = b.read(p(1), x, Value(0));
        let w0 = b.write(p(0), x, Value(1));
        let r0 = b.read(p(0), y, Value(0));
        b.reads_from_initial(r0);
        b.reads_from_initial(r1);
        b.coherence_after_initial(w1);
        b.coherence_after_initial(w0);
        let permuted = b.build();
        let a = ExecutionSignature::of(&sb_weak(), 7);
        let b = ExecutionSignature::of(&permuted, 7);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn signature_distinguishes_rf_attribution() {
        let weak = ExecutionSignature::of(&sb_weak(), 7);
        let strong = ExecutionSignature::of(&sb_strong(), 7);
        assert_ne!(weak, strong);
    }

    #[test]
    fn signature_distinguishes_final_state_and_program() {
        let mut b = ExecutionBuilder::new();
        let x = Address(0x100);
        let w0 = b.write(p(0), x, Value(1));
        let w1 = b.write(p(1), x, Value(2));
        b.coherence_after_initial(w0);
        b.coherence(w0, w1);
        let one = b.build();

        let mut b = ExecutionBuilder::new();
        let w0 = b.write(p(0), x, Value(1));
        let w1 = b.write(p(1), x, Value(2));
        b.coherence_after_initial(w1);
        b.coherence(w1, w0);
        let two = b.build();

        let sig_one = ExecutionSignature::of(&one, 7);
        let sig_two = ExecutionSignature::of(&two, 7);
        assert_ne!(sig_one, sig_two, "reversed coherence must not collide");
        assert_ne!(
            ExecutionSignature::of(&one, 7),
            ExecutionSignature::of(&one, 8),
            "different staged programs must not collide"
        );
        assert_eq!(sig_one.program(), 7);
    }

    #[test]
    fn oracle_certifies_sc_consistent_executions_for_every_model() {
        let exec = sb_strong();
        for model in ModelKind::ALL {
            assert_eq!(
                classify_execution(&exec, model),
                OracleVerdict::ScConsistent
            );
            assert!(Checker::new(model.instance()).check(&exec).is_valid());
        }
    }

    #[test]
    fn oracle_matches_checker_on_the_sb_weak_outcome() {
        let exec = sb_weak();
        for model in ModelKind::ALL {
            let oracle = classify_execution(&exec, model);
            let checker = Checker::new(model.instance()).check(&exec);
            match oracle {
                OracleVerdict::ForbiddenCycle => assert!(
                    checker.is_violation(),
                    "{model:?}: oracle forbids but checker allows"
                ),
                OracleVerdict::ScConsistent | OracleVerdict::AllowedCycles => assert!(
                    checker.is_valid(),
                    "{model:?}: oracle allows but checker forbids"
                ),
                OracleVerdict::Undecided => {}
            }
            // SB without fences: forbidden under SC only.
            if model == ModelKind::Sc {
                assert_eq!(oracle, OracleVerdict::ForbiddenCycle);
            } else {
                assert_eq!(oracle, OracleVerdict::AllowedCycles, "{model:?}");
            }
        }
    }

    #[test]
    fn oracle_abstains_on_rmw_atomicity_violations() {
        // An atomic pair broken by an intervening write: no cycle, but the
        // execution is invalid — the oracle must not certify it.
        let mut b = ExecutionBuilder::new();
        let x = Address(0x100);
        let (r, w) = b.rmw(p(0), x, Value(0), Value(1));
        let intruder = b.write(p(1), x, Value(7));
        b.reads_from_initial(r);
        b.coherence_after_initial(intruder);
        b.coherence(intruder, w);
        let exec = b.build();
        for model in ModelKind::ALL {
            assert_eq!(classify_execution(&exec, model), OracleVerdict::Undecided);
            assert!(
                Checker::new(model.instance()).check(&exec).is_violation(),
                "{model:?}: atomicity violation must be flagged"
            );
        }
    }
}
