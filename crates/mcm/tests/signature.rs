//! Property tests for execution signatures and the cycle oracle.
//!
//! Deduplicating executions by signature is sound only if the signature is a
//! *canonical* encoding of the observable outcome:
//!
//! * two observations of the same abstract execution — same per-thread
//!   programs, same reads-from attribution, same coherence order — must
//!   produce identical signatures no matter in which order the observer
//!   recorded the events;
//! * two executions that differ in rf attribution, coherence order or final
//!   memory state must never collide.
//!
//! The cycle oracle must additionally never certify an execution the
//! axiomatic checker rejects (and never hint "forbidden" on one it accepts).

use mcversi_mcm::checker::Checker;
use mcversi_mcm::execution::ExecutionBuilder;
use mcversi_mcm::signature::{classify_execution, ExecutionSignature, OracleVerdict};
use mcversi_mcm::{
    Address, CandidateExecution, DepKind, EventId, FenceKind, ModelKind, ProcessorId, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One abstract (builder-independent) memory operation.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Read(u64),
    Write(u64, u64),
}

/// A `(thread, index)` operation slot, the event key a [`Plan`] uses instead
/// of builder-assigned event ids.
type Slot = (usize, usize);

/// An abstract execution: per-thread programs plus attribution choices,
/// all keyed by `(thread, index)` rather than event id, so it can be
/// replayed into an `ExecutionBuilder` in any cross-thread interleaving.
#[derive(Debug, Clone)]
struct Plan {
    threads: Vec<Vec<OpKind>>,
    /// For each read slot: the write slot it observes, or `None` for the
    /// initial value.
    rf: Vec<(Slot, Option<Slot>)>,
    /// Per address: the coherence order over its writes.
    co: Vec<(u64, Vec<Slot>)>,
}

fn addr(i: u64) -> Address {
    Address(0x1000 + i * 0x40)
}

fn gen_plan(seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_threads = rng.gen_range(2..4usize);
    let num_addrs = rng.gen_range(2..4u64);
    let mut threads: Vec<Vec<OpKind>> = Vec::new();
    let mut next_value = 1u64;
    let mut reads: Vec<(usize, usize)> = Vec::new();
    let mut writes_by_addr: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
    for t in 0..num_threads {
        let mut ops: Vec<OpKind> = Vec::new();
        for i in 0..rng.gen_range(2..6usize) {
            let a = rng.gen_range(0..num_addrs);
            if rng.gen_bool(0.45) {
                reads.push((t, i));
                ops.push(OpKind::Read(a));
            } else {
                writes_by_addr.entry(a).or_default().push((t, i));
                ops.push(OpKind::Write(a, next_value));
                next_value += 1;
            }
        }
        threads.push(ops);
    }
    // Attribute each read to a random same-address write or the initial value.
    let rf = reads
        .iter()
        .map(|&(t, i)| {
            let OpKind::Read(a) = threads[t][i] else {
                unreachable!("reads list only holds reads")
            };
            let candidates = writes_by_addr.get(&a).cloned().unwrap_or_default();
            let source = if candidates.is_empty() || rng.gen_bool(0.25) {
                None
            } else {
                Some(candidates[rng.gen_range(0..candidates.len())])
            };
            ((t, i), source)
        })
        .collect();
    // Random per-address coherence permutation.
    let co = writes_by_addr
        .into_iter()
        .map(|(a, mut order)| {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                order.swap(i, j);
            }
            (a, order)
        })
        .collect();
    Plan { threads, rf, co }
}

/// Replays a plan into a concrete execution.  With `interleave` the threads
/// are recorded round-robin (as a parallel observer would see them); without
/// it, thread by thread.  Event ids differ between the two; instruction ids
/// and all attributed relations do not.
fn build(plan: &Plan, interleave: bool) -> CandidateExecution {
    let mut b = ExecutionBuilder::new();
    let mut ids: BTreeMap<(usize, usize), EventId> = BTreeMap::new();
    let value_of = |key: (usize, usize)| -> u64 {
        match plan.threads[key.0][key.1] {
            OpKind::Write(_, v) => v,
            OpKind::Read(_) => unreachable!("rf source must be a write"),
        }
    };
    let mut order: Vec<(usize, usize)> = Vec::new();
    if interleave {
        let longest = plan.threads.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (t, ops) in plan.threads.iter().enumerate() {
                if i < ops.len() {
                    order.push((t, i));
                }
            }
        }
    } else {
        for (t, ops) in plan.threads.iter().enumerate() {
            for i in 0..ops.len() {
                order.push((t, i));
            }
        }
    }
    for (t, i) in order {
        let pid = ProcessorId(t as u32);
        let id = match plan.threads[t][i] {
            OpKind::Read(a) => b.read(pid, addr(a), Value(0)),
            OpKind::Write(a, v) => b.write(pid, addr(a), Value(v)),
        };
        ids.insert((t, i), id);
    }
    for &(reader, source) in &plan.rf {
        match source {
            Some(writer) => {
                b.set_event_value(ids[&reader], Value(value_of(writer)));
                b.reads_from(ids[&writer], ids[&reader]);
            }
            None => b.reads_from_initial(ids[&reader]),
        }
    }
    for (_, chain) in &plan.co {
        if let Some(&first) = chain.first() {
            b.coherence_after_initial(ids[&first]);
        }
        for pair in chain.windows(2) {
            b.coherence(ids[&pair[0]], ids[&pair[1]]);
        }
    }
    b.build()
}

/// Arbitrary well-formed execution with fences, dependencies and RMWs (the
/// oracle must stay sound on all of them).
fn random_execution(seed: u64) -> CandidateExecution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ExecutionBuilder::new();
    let threads = rng.gen_range(2..5u32);
    let num_addrs = rng.gen_range(2..4u64);
    let mut reads: Vec<(EventId, Address)> = Vec::new();
    let mut writes: Vec<(EventId, Address, Value)> = Vec::new();
    let mut next_value = 1u64;
    for t in 0..threads {
        let pid = ProcessorId(t);
        let mut last_load: Option<EventId> = None;
        for _ in 0..rng.gen_range(2..6usize) {
            let a = addr(rng.gen_range(0..num_addrs));
            match rng.gen_range(0..100u32) {
                0..=34 => {
                    let r = b.read(pid, a, Value(0));
                    if rng.gen_bool(0.3) {
                        if let Some(src) = last_load {
                            b.dependency(DepKind::Addr, src, r);
                        }
                    }
                    reads.push((r, a));
                    last_load = Some(r);
                }
                35..=69 => {
                    let w = b.write(pid, a, Value(next_value));
                    if rng.gen_bool(0.3) {
                        if let Some(src) = last_load {
                            b.dependency(DepKind::Data, src, w);
                        }
                    }
                    writes.push((w, a, Value(next_value)));
                    next_value += 1;
                }
                70..=84 => {
                    let kind = FenceKind::ALL[rng.gen_range(0..FenceKind::ALL.len())];
                    b.fence(pid, kind);
                }
                _ => {
                    let (r, w) = b.rmw(pid, a, Value(0), Value(next_value));
                    reads.push((r, a));
                    writes.push((w, a, Value(next_value)));
                    next_value += 1;
                    last_load = None;
                }
            }
        }
    }
    for &(r, a) in &reads {
        let candidates: Vec<(EventId, Value)> = writes
            .iter()
            .filter(|&&(_, wa, _)| wa == a)
            .map(|&(w, _, v)| (w, v))
            .collect();
        if candidates.is_empty() || rng.gen_bool(0.25) {
            b.reads_from_initial(r);
        } else {
            let (w, v) = candidates[rng.gen_range(0..candidates.len())];
            b.set_event_value(r, v);
            b.reads_from(w, r);
        }
    }
    for i in 0..num_addrs {
        let a = addr(i);
        let mut order: Vec<EventId> = writes
            .iter()
            .filter(|&&(_, wa, _)| wa == a)
            .map(|&(w, _, _)| w)
            .collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            order.swap(i, j);
        }
        if let Some(&first) = order.first() {
            b.coherence_after_initial(first);
        }
        for pair in order.windows(2) {
            b.coherence(pair[0], pair[1]);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recording the same abstract execution in a different cross-thread
    /// interleaving (different event ids throughout) yields the identical
    /// signature and digest.
    #[test]
    fn permuted_observations_hash_identically(seed in 0u64..5000) {
        let plan = gen_plan(seed);
        let sequential = ExecutionSignature::of(&build(&plan, false), seed);
        let interleaved = ExecutionSignature::of(&build(&plan, true), seed);
        prop_assert_eq!(&sequential, &interleaved);
        prop_assert_eq!(sequential.digest(), interleaved.digest());
    }

    /// Re-attributing any single read to a different source changes the
    /// signature: rf attribution can never silently collide.
    #[test]
    fn different_rf_attribution_never_collides(seed in 0u64..5000, pick in 0usize..64) {
        let plan = gen_plan(seed);
        // Candidate re-attributions for some read: to-initial if attributed,
        // or to the first write if reading the initial value.
        let attributed: Vec<usize> = (0..plan.rf.len())
            .filter(|&i| {
                let ((t, idx), src) = plan.rf[i];
                let OpKind::Read(a) = plan.threads[t][idx] else { return false };
                match src {
                    Some(_) => true,
                    // Only flippable when some write to `a` exists.
                    None => plan.co.iter().any(|&(ca, ref chain)| ca == a && !chain.is_empty()),
                }
            })
            .collect();
        if !attributed.is_empty() {
            let i = attributed[pick % attributed.len()];
            let mut mutated = plan.clone();
            let ((t, idx), src) = plan.rf[i];
            let OpKind::Read(a) = plan.threads[t][idx] else { unreachable!() };
            mutated.rf[i].1 = match src {
                Some(_) => None,
                None => Some(
                    plan.co
                        .iter()
                        .find(|&&(ca, _)| ca == a)
                        .map(|(_, chain)| chain[0])
                        .expect("guarded by `attributed` filter"),
                ),
            };
            let original = ExecutionSignature::of(&build(&plan, false), seed);
            let changed = ExecutionSignature::of(&build(&mutated, false), seed);
            prop_assert_ne!(original, changed);
        }
    }

    /// Reversing the coherence order of any multi-write address changes the
    /// signature: coherence/final-state differences can never collide.
    #[test]
    fn different_coherence_order_never_collides(seed in 0u64..5000) {
        let plan = gen_plan(seed);
        if let Some(target) = plan.co.iter().position(|(_, chain)| chain.len() >= 2) {
            let mut mutated = plan.clone();
            mutated.co[target].1.reverse();
            let original = ExecutionSignature::of(&build(&plan, false), seed);
            let changed = ExecutionSignature::of(&build(&mutated, false), seed);
            prop_assert_ne!(original, changed);
        }
    }

    /// The oracle is sound against the axiomatic checker on arbitrary
    /// well-formed executions: a zero-checker "valid" certificate is never
    /// wrong, and a forbidden-cycle hint always corresponds to a real
    /// violation.
    #[test]
    fn oracle_never_contradicts_the_checker(seed in 0u64..2000) {
        let exec = random_execution(seed);
        prop_assert!(exec.validate().is_ok(), "malformed: {:?}", exec.validate());
        for model in ModelKind::ALL {
            let checker = Checker::new(model.instance()).check(&exec);
            match classify_execution(&exec, model) {
                OracleVerdict::ScConsistent | OracleVerdict::AllowedCycles => prop_assert!(
                    checker.is_valid(),
                    "seed {seed}, {model}: oracle certifies but checker rejects"
                ),
                OracleVerdict::ForbiddenCycle => prop_assert!(
                    checker.is_violation(),
                    "seed {seed}, {model}: oracle hints forbidden but checker accepts"
                ),
                OracleVerdict::Undecided => {}
            }
        }
    }
}
