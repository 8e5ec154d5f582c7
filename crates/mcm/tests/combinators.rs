//! The mask-based model combinators against their per-pair originals.
//!
//! `same_address`, `po_mem`, `po_loc_preserved`, `fence_separated`,
//! `cumulative`, `rf_external` and `rmw_atomicity_violations` used to filter
//! relations pair by pair through closures; they are now row ANDs against
//! per-execution event masks, and the relaxed models derive their fence order
//! from one pass over the fence sites instead of one `fence_separated` call
//! per fence kind.  The `reference` module keeps the per-pair code verbatim —
//! combinators, the five models' `ppo` / `fence_order` / `global_rf`, and the
//! axiom assembly — and every test asserts equality against it on random
//! executions with fences of all six kinds, RMWs and dependencies: relation
//! by relation, and as whole verdicts (axiom name and witness included).

use mcversi_mcm::checker::Checker;
use mcversi_mcm::execution::ExecutionBuilder;
use mcversi_mcm::model::{self, Architecture};
use mcversi_mcm::{
    Address, CandidateExecution, DepKind, EventId, FenceKind, ModelKind, ProcessorId, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The closure-based combinators and models as they were before the dense
/// `Relation`, built only on its pair-level API.
mod reference {
    use mcversi_mcm::event::{Event, EventKind};
    use mcversi_mcm::model::{Architecture, Axiom};
    use mcversi_mcm::relation::Relation;
    use mcversi_mcm::{CandidateExecution, EventId, FenceKind, ModelKind};
    use std::collections::BTreeMap;

    pub fn same_address(rel: &Relation, events: &[Event]) -> Relation {
        let addr_of: BTreeMap<EventId, _> = events
            .iter()
            .filter_map(|e| e.addr.map(|a| (e.id, a)))
            .collect();
        rel.filter(|a, b| match (addr_of.get(&a), addr_of.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        })
    }

    pub fn rf_external(exec: &CandidateExecution) -> Relation {
        exec.rf().filter(|w, r| {
            let we = exec.event(w);
            let re = exec.event(r);
            we.pid() != re.pid() || we.pid().is_none()
        })
    }

    pub fn rf_internal(exec: &CandidateExecution) -> Relation {
        exec.rf().filter(|w, r| {
            let we = exec.event(w);
            let re = exec.event(r);
            we.pid().is_some() && we.pid() == re.pid()
        })
    }

    pub fn po_mem(exec: &CandidateExecution) -> Relation {
        exec.po().filter(|a, b| {
            exec.event(a).kind.is_memory_access() && exec.event(b).kind.is_memory_access()
        })
    }

    pub fn po_loc_preserved(exec: &CandidateExecution) -> Relation {
        same_address(exec.po(), exec.events())
            .filter(|a, b| !(exec.event(a).is_write() && exec.event(b).is_read()))
    }

    pub fn cumulative(exec: &CandidateExecution, base: &Relation) -> Relation {
        let rfe = rf_external(exec);
        let mut out = base.clone();
        let before = rfe.compose(base);
        out.union_with(&before.compose(&rfe));
        out.union_with(&before);
        out.union_with(&base.compose(&rfe));
        out
    }

    pub fn fence_separated<F>(exec: &CandidateExecution, matches: F) -> Relation
    where
        F: Fn(FenceKind) -> bool,
    {
        let po = exec.po();
        let mut out = Relation::new();
        let fencelike: Vec<_> = exec
            .events()
            .iter()
            .filter(|e| match e.kind {
                EventKind::Fence(k) => matches(k),
                EventKind::RmwRead | EventKind::RmwWrite => true,
                _ => false,
            })
            .map(|e| e.id)
            .collect();
        for f in fencelike {
            let f_is_mem = exec.event(f).kind.is_memory_access();
            let mut before: Vec<_> = exec
                .events()
                .iter()
                .filter(|e| e.kind.is_memory_access() && po.contains(e.id, f))
                .map(|e| e.id)
                .collect();
            let mut after: Vec<_> = exec
                .events()
                .iter()
                .filter(|e| e.kind.is_memory_access() && po.contains(f, e.id))
                .map(|e| e.id)
                .collect();
            if f_is_mem {
                before.push(f);
                after.push(f);
            }
            for &a in &before {
                for &b in &after {
                    if a != b {
                        out.insert(a, b);
                    }
                }
            }
        }
        out
    }

    pub fn rmw_atomicity_violations(exec: &CandidateExecution, fr: &Relation) -> Relation {
        let mut violations = Relation::new();
        let mut rmw_pairs = Vec::new();
        for r in exec
            .events()
            .iter()
            .filter(|e| e.kind.is_rmw() && e.is_read())
        {
            for w in exec
                .events()
                .iter()
                .filter(|e| e.kind.is_rmw() && e.is_write())
            {
                if r.iiid.is_some() && r.iiid == w.iiid {
                    rmw_pairs.push((r.id, w.id));
                }
            }
        }
        for (r, w) in rmw_pairs {
            for w_prime in fr.successors(r) {
                if w_prime != w && exec.co().contains(w_prime, w) {
                    violations.insert(r, w);
                    break;
                }
            }
        }
        violations
    }

    fn relaxed_ppo(exec: &CandidateExecution) -> Relation {
        let mut ppo = exec.deps().union_all();
        ppo.union_with(&po_loc_preserved(exec));
        ppo
    }

    /// A built-in model with its relations derived the per-pair way.
    #[derive(Debug)]
    pub struct Model(pub ModelKind);

    impl Architecture for Model {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn ppo(&self, exec: &CandidateExecution) -> Relation {
            match self.0 {
                ModelKind::Sc => po_mem(exec),
                ModelKind::Tso => po_mem(exec)
                    .filter(|a, b| !(exec.event(a).is_write() && exec.event(b).is_read())),
                ModelKind::Armish | ModelKind::Powerish | ModelKind::Rmo => relaxed_ppo(exec),
            }
        }

        fn fence_order(&self, exec: &CandidateExecution) -> Relation {
            let ss = || {
                fence_separated(exec, |k| k == FenceKind::StoreStore)
                    .filter(|a, b| exec.event(a).is_write() && exec.event(b).is_write())
            };
            let ll = || {
                fence_separated(exec, |k| k == FenceKind::LoadLoad)
                    .filter(|a, b| exec.event(a).is_read() && exec.event(b).is_read())
            };
            match self.0 {
                ModelKind::Sc => fence_separated(exec, |_| true),
                ModelKind::Tso => fence_separated(exec, |k| k == FenceKind::Full),
                ModelKind::Armish => {
                    let full = fence_separated(exec, |k| k == FenceKind::Full);
                    let mut out = cumulative(exec, &full);
                    let acq = fence_separated(exec, |k| k == FenceKind::Acquire)
                        .filter(|a, _| exec.event(a).is_read());
                    let rel = fence_separated(exec, |k| k == FenceKind::Release)
                        .filter(|_, b| exec.event(b).is_write());
                    out.union_with(&acq);
                    out.union_with(&rel);
                    out.union_with(&ss());
                    out.union_with(&ll());
                    out
                }
                ModelKind::Powerish => {
                    let sync = fence_separated(exec, |k| k == FenceKind::Full);
                    let lwsync = fence_separated(exec, |k| k == FenceKind::LightweightSync)
                        .filter(|a, b| !(exec.event(a).is_write() && exec.event(b).is_read()));
                    let mut out = cumulative(exec, &sync);
                    out.union_with(&cumulative(exec, &lwsync));
                    out.union_with(&ss());
                    out.union_with(&ll());
                    out
                }
                ModelKind::Rmo => {
                    let full = fence_separated(exec, |k| k == FenceKind::Full);
                    let mut out = cumulative(exec, &full);
                    out.union_with(&ss());
                    out.union_with(&ll());
                    out
                }
            }
        }

        fn global_rf(&self, exec: &CandidateExecution) -> Relation {
            match self.0 {
                ModelKind::Sc => exec.rf().clone(),
                ModelKind::Tso => rf_external(exec),
                ModelKind::Armish | ModelKind::Powerish | ModelKind::Rmo => Relation::new(),
            }
        }

        fn axioms(&self, exec: &CandidateExecution) -> Vec<Axiom> {
            let fr = exec.rf().inverse().compose(exec.co());
            let mut com = exec.rf().union(exec.co());
            com.union_with(&fr);

            let mut sc_per_loc = same_address(exec.po(), exec.events());
            sc_per_loc.union_with(&com);

            let fence_order = self.fence_order(exec);
            let mut ghb = self.ppo(exec);
            ghb.union_with(&fence_order);
            ghb.union_with(&self.global_rf(exec));
            ghb.union_with(exec.co());
            ghb.union_with(&fr);

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
                    relation: rmw_atomicity_violations(exec, &fr),
                },
            ];
            if self.0.is_relaxed() {
                let mut hb = exec.deps().union_all();
                hb.union_with(&fence_order);
                hb.union_with(&rf_external(exec));
                axioms.push(Axiom::Acyclic {
                    name: "no-thin-air",
                    relation: hb,
                });
            }
            axioms
        }
    }
}

/// A random well-formed execution: up to four threads of reads, writes,
/// dependency-carrying accesses, RMWs and fences of every kind — long enough
/// that event ids cross the 64-bit word boundary — with random reads-from and
/// random per-address coherence orders.  Most are wildly weak, so every axiom
/// gets violated somewhere in the sample.
fn random_execution(seed: u64) -> CandidateExecution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ExecutionBuilder::new();
    let threads = rng.gen_range(2..5u32);
    let num_addrs = rng.gen_range(2..6u64);
    let ops = rng.gen_range(3..40usize);
    let addr = |i: u64| Address(0x1000 + i * 0x40);
    let mut reads: Vec<(EventId, Address)> = Vec::new();
    let mut writes: Vec<(EventId, Address, Value)> = Vec::new();
    let mut next_value = 1u64;

    for t in 0..threads {
        let pid = ProcessorId(t);
        let mut last_load: Option<EventId> = None;
        for _ in 0..ops {
            let a = addr(rng.gen_range(0..num_addrs));
            match rng.gen_range(0..100u32) {
                0..=29 => {
                    let r = b.read(pid, a, Value(0));
                    if let (true, Some(src)) = (rng.gen_bool(0.4), last_load) {
                        b.dependency(DepKind::Addr, src, r);
                    }
                    reads.push((r, a));
                    last_load = Some(r);
                }
                30..=59 => {
                    let w = b.write(pid, a, Value(next_value));
                    if let (true, Some(src)) = (rng.gen_bool(0.4), last_load) {
                        let kind = [DepKind::Data, DepKind::Ctrl][rng.gen_range(0..2usize)];
                        b.dependency(kind, src, w);
                    }
                    writes.push((w, a, Value(next_value)));
                    next_value += 1;
                }
                60..=84 => {
                    b.fence(pid, FenceKind::ALL[rng.gen_range(0..FenceKind::ALL.len())]);
                }
                _ => {
                    let (r, w) = b.rmw(pid, a, Value(0), Value(next_value));
                    reads.push((r, a));
                    writes.push((w, a, Value(next_value)));
                    next_value += 1;
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
        // Mostly the latest write so far, so a good share of executions is
        // consistent and reaches the later axioms.
        if candidates.is_empty() || rng.gen_bool(0.3) {
            b.reads_from_initial(r);
        } else {
            let (w, v) = candidates[rng.gen_range(0..candidates.len())];
            b.set_event_value(r, v);
            b.reads_from(w, r);
        }
    }
    for i in 0..num_addrs {
        let mut order: Vec<EventId> = writes
            .iter()
            .filter(|&&(_, wa, _)| wa == addr(i))
            .map(|&(w, _, _)| w)
            .collect();
        if rng.gen_bool(0.5) {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
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

/// `r` observes the latest write to its location (or the initial value).
fn observe(b: &mut ExecutionBuilder, latest: Option<(EventId, Value)>, r: EventId) {
    match latest {
        Some((w, v)) => {
            b.set_event_value(r, v);
            b.reads_from(w, r);
        }
        None => b.reads_from_initial(r),
    }
}

/// `w` becomes the latest write to its location.
fn overwrite(
    b: &mut ExecutionBuilder,
    latest: &mut Option<(EventId, Value)>,
    w: EventId,
    v: Value,
) {
    match *latest {
        Some((prev, _)) => b.coherence(prev, w),
        None => b.coherence_after_initial(w),
    }
    *latest = Some((w, v));
}

/// A consistent single-copy interleaving of the same kind of program: ops are
/// executed one at a time against a flat memory, so every model accepts it and
/// the checker runs through all of its axioms.
fn sequential_execution(seed: u64) -> CandidateExecution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ExecutionBuilder::new();
    let threads = rng.gen_range(2..5u32);
    let mut last_write: Vec<Option<(EventId, Value)>> = vec![None; 4];
    let mut last_load: Vec<Option<EventId>> = vec![None; threads as usize];
    let mut next_value = 1u64;
    for _ in 0..rng.gen_range(8..120usize) {
        let t = rng.gen_range(0..threads);
        let pid = ProcessorId(t);
        let loc = rng.gen_range(0..last_write.len());
        let a = Address(0x2000 + loc as u64 * 8);
        let slot = &mut last_write[loc];
        match rng.gen_range(0..100u32) {
            0..=34 => {
                let r = b.read(pid, a, Value(0));
                if let (true, Some(src)) = (rng.gen_bool(0.3), last_load[t as usize]) {
                    b.dependency(DepKind::Addr, src, r);
                }
                observe(&mut b, *slot, r);
                last_load[t as usize] = Some(r);
            }
            35..=64 => {
                let w = b.write(pid, a, Value(next_value));
                if let (true, Some(src)) = (rng.gen_bool(0.3), last_load[t as usize]) {
                    b.dependency(DepKind::Data, src, w);
                }
                overwrite(&mut b, slot, w, Value(next_value));
                next_value += 1;
            }
            65..=84 => {
                b.fence(pid, FenceKind::ALL[rng.gen_range(0..FenceKind::ALL.len())]);
            }
            _ => {
                let (r, w) = b.rmw(pid, a, Value(0), Value(next_value));
                observe(&mut b, *slot, r);
                overwrite(&mut b, slot, w, Value(next_value));
                next_value += 1;
            }
        }
    }
    b.build()
}

fn assert_combinators_match(exec: &CandidateExecution, what: &str) {
    assert!(exec.validate().is_ok(), "{what}: {:?}", exec.validate());
    assert_eq!(
        mcversi_mcm::program::same_address(exec.po(), exec.events()),
        reference::same_address(exec.po(), exec.events()),
        "{what}: same_address"
    );
    assert_eq!(
        exec.po_loc(),
        reference::same_address(exec.po(), exec.events()),
        "{what}: po_loc"
    );
    assert_eq!(
        mcversi_mcm::program::same_address(exec.co(), exec.events()),
        *exec.co(),
        "{what}: co is same-address"
    );
    assert_eq!(
        model::po_mem(exec),
        reference::po_mem(exec),
        "{what}: po_mem"
    );
    assert_eq!(
        model::po_loc_preserved(exec),
        reference::po_loc_preserved(exec),
        "{what}: po_loc_preserved"
    );
    assert_eq!(
        exec.rf_external(),
        reference::rf_external(exec),
        "{what}: rf_external"
    );
    assert_eq!(
        exec.rf_internal(),
        reference::rf_internal(exec),
        "{what}: rf_internal"
    );
    let fr = exec.fr();
    assert_eq!(
        model::rmw_atomicity_violations(exec, &fr),
        reference::rmw_atomicity_violations(exec, &fr),
        "{what}: rmw_atomicity_violations"
    );
    let every_kind = FenceKind::ALL.map(|kind| move |k: FenceKind| k == kind);
    for (kind, matches) in FenceKind::ALL.into_iter().zip(every_kind) {
        let separated = model::fence_separated(exec, matches);
        assert_eq!(
            separated,
            reference::fence_separated(exec, matches),
            "{what}: fence_separated({kind})"
        );
        assert_eq!(
            model::cumulative(exec, &separated),
            reference::cumulative(exec, &separated),
            "{what}: cumulative({kind})"
        );
    }
    assert_eq!(
        model::fence_separated(exec, |_| true),
        reference::fence_separated(exec, |_| true),
        "{what}: fence_separated(any)"
    );
    assert_eq!(
        model::fence_separated(exec, |_| false),
        reference::fence_separated(exec, |_| false),
        "{what}: fence_separated(RMWs only)"
    );
}

fn assert_models_match(exec: &CandidateExecution, what: &str) -> [bool; 5] {
    ModelKind::ALL.map(|kind| {
        let shipped = kind.instance();
        let reference = reference::Model(kind);
        assert_eq!(shipped.ppo(exec), reference.ppo(exec), "{what}: {kind} ppo");
        assert_eq!(
            shipped.fence_order(exec),
            reference.fence_order(exec),
            "{what}: {kind} fence_order"
        );
        assert_eq!(
            shipped.global_rf(exec),
            reference.global_rf(exec),
            "{what}: {kind} global_rf"
        );
        assert_eq!(
            shipped.axioms(exec),
            reference.axioms(exec),
            "{what}: {kind} axioms"
        );
        let verdict = Checker::new(shipped).check(exec);
        assert_eq!(
            verdict,
            Checker::new(&reference).check(exec),
            "{what}: {kind} verdict"
        );
        verdict.is_valid()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn mask_combinators_equal_the_per_pair_reference(seed in 0u64..1_000_000) {
        assert_combinators_match(&random_execution(seed), &format!("random {seed}"));
        assert_combinators_match(&sequential_execution(seed), &format!("sequential {seed}"));
    }

    #[test]
    fn models_and_verdicts_equal_the_per_pair_reference(seed in 0u64..1_000_000) {
        assert_models_match(&random_execution(seed), &format!("random {seed}"));
        let valid = assert_models_match(&sequential_execution(seed), &format!("sequential {seed}"));
        prop_assert_eq!(valid, [true; 5], "a single-copy interleaving is valid everywhere");
    }
}

/// The verdicts random executions rarely end on — the two axioms evaluated
/// after `ghb` — on directed executions, so witness equality is exercised for
/// every axiom name.
#[test]
fn directed_executions_reach_the_late_axioms() {
    let (p0, p1) = (ProcessorId(0), ProcessorId(1));
    let (x, y) = (Address(0x10), Address(0x20));

    // LB+datas: each thread's write depends on its read, each read observes
    // the other thread's write.  Not a ghb cycle once rf is not global.
    let mut b = ExecutionBuilder::new();
    let r0 = b.read(p0, x, Value(2));
    let w0 = b.write(p0, y, Value(1));
    let r1 = b.read(p1, y, Value(1));
    let w1 = b.write(p1, x, Value(2));
    b.dependency(DepKind::Data, r0, w0);
    b.dependency(DepKind::Data, r1, w1);
    b.reads_from(w1, r0);
    b.reads_from(w0, r1);
    b.coherence_after_initial(w0);
    b.coherence_after_initial(w1);
    let lb = b.build();
    assert_combinators_match(&lb, "LB+datas");
    assert_models_match(&lb, "LB+datas");
    for kind in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
        let verdict = Checker::new(kind.instance()).check(&lb);
        assert_eq!(verdict.violation().unwrap().axiom, "no-thin-air", "{kind}");
    }

    // An RMW that reads the initial value while another thread's write is
    // coherence-ordered between that and the RMW's own write.
    let mut b = ExecutionBuilder::new();
    let (rr, rw) = b.rmw(p0, x, Value(0), Value(7));
    let intruder = b.write(p1, x, Value(3));
    b.reads_from_initial(rr);
    b.coherence_after_initial(intruder);
    b.coherence(intruder, rw);
    let torn = b.build();
    assert_combinators_match(&torn, "torn RMW");
    assert_models_match(&torn, "torn RMW");
    for kind in ModelKind::ALL {
        let verdict = Checker::new(kind.instance()).check(&torn);
        let violation = verdict.violation().unwrap();
        assert_eq!(violation.axiom, "rmw-atomicity", "{kind}");
        assert_eq!(violation.witness, [rr, rw], "{kind}");
    }
}
