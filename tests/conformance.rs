//! Differential conformance sweep for `VcChecker`.
//!
//! `VcChecker` (`mcversi-conformance`) reads the axiomatic checker three
//! ways, and promises:
//!
//! * under SC and TSO it **decides** every well-formed execution (never
//!   abstains) and its verdict is exactly the axiomatic checker's;
//! * under the dependency-ordered models it runs SC's axioms and may
//!   abstain, but a decided verdict never contradicts the checker of the
//!   target model.
//!
//! The benchmark's `conformance.vc_certified_share` counts on this contract.

use mcversi::conformance::VcChecker;
use mcversi::core::lowering::lower;
use mcversi::mcm::checker::Checker;
use mcversi::mcm::execution::ExecutionBuilder;
use mcversi::mcm::{
    Address, CandidateExecution, DepKind, EventId, FenceKind, ModelKind, ProcessorId, Value,
};
use mcversi::sim::{BugConfig, CoreStrength, ProtocolKind, System, SystemConfig};
use mcversi::testgen::{OperationBias, RandomTestGenerator, TestGenParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arbitrary well-formed candidate execution (same shape as the generator in
/// `tests/properties.rs`, seeded from a disjoint range): random threads of
/// reads, writes, dependency-carrying ops, RMWs and every fence flavour, with
/// random reads-from choices and random per-address coherence permutations.
fn random_execution(seed: u64) -> CandidateExecution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ExecutionBuilder::new();
    let threads = rng.gen_range(2..5u32);
    let num_addrs = rng.gen_range(2..4u64);
    let addr = |i: u64| Address(0x1000 + i * 0x40);
    let mut reads: Vec<(EventId, Address)> = Vec::new();
    let mut writes: Vec<(EventId, Address, Value)> = Vec::new();
    let mut next_value = 1u64;

    for t in 0..threads {
        let pid = ProcessorId(t);
        let mut last_load: Option<EventId> = None;
        for _ in 0..rng.gen_range(2..7usize) {
            let a = addr(rng.gen_range(0..num_addrs));
            match rng.gen_range(0..100u32) {
                0..=29 => {
                    let r = b.read(pid, a, Value(0));
                    if rng.gen_bool(0.4) {
                        if let Some(src) = last_load {
                            b.dependency(DepKind::Addr, src, r);
                        }
                    }
                    reads.push((r, a));
                    last_load = Some(r);
                }
                30..=64 => {
                    let w = b.write(pid, a, Value(next_value));
                    if rng.gen_bool(0.4) {
                        if let Some(src) = last_load {
                            let kind = if rng.gen_bool(0.5) {
                                DepKind::Data
                            } else {
                                DepKind::Ctrl
                            };
                            b.dependency(kind, src, w);
                        }
                    }
                    writes.push((w, a, Value(next_value)));
                    next_value += 1;
                }
                65..=79 => {
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

/// Asserts the conformance contract of one (execution, model) pair.
fn assert_conforms(exec: &CandidateExecution, model: ModelKind, context: &str) -> bool {
    let vc = VcChecker::new(model).check(exec);
    let axiomatic = Checker::new(model.instance()).check(exec);
    if model.is_relaxed() {
        if vc.is_abstain() {
            return false;
        }
    } else {
        assert!(
            !vc.is_abstain(),
            "{context}: vc abstained under {model} (SC/TSO must decide): {vc}"
        );
    }
    assert_eq!(
        vc.is_violation(),
        axiomatic.is_violation(),
        "{context}: vc ({vc}) contradicts the axiomatic checker under {model}"
    );
    vc.is_violation()
}

/// 500 random executions × SC and TSO: vc decides every one of them with the
/// axiomatic checker's verdict; under the three dependency-ordered models a
/// decided vc verdict never contradicts the checker.
#[test]
fn vc_matches_the_axiomatic_checker_on_500_random_executions() {
    let mut valid = 0usize;
    let mut violating = 0usize;
    let mut weak_decided = 0usize;
    for seed in 20_000..20_500u64 {
        let exec = random_execution(seed);
        assert!(exec.validate().is_ok(), "seed {seed} malformed");
        for model in [ModelKind::Sc, ModelKind::Tso] {
            if assert_conforms(&exec, model, &format!("seed {seed}")) {
                violating += 1;
            } else {
                valid += 1;
            }
        }
        for model in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
            let vc = VcChecker::new(model).check(&exec);
            if !vc.is_abstain() {
                weak_decided += 1;
                let axiomatic = Checker::new(model.instance()).check(&exec);
                assert_eq!(
                    vc.is_violation(),
                    axiomatic.is_violation(),
                    "seed {seed}: decided vc verdict contradicts the checker under {model}"
                );
            }
        }
    }
    // The sweep must discriminate, otherwise the property is vacuous.
    assert!(
        valid > 0 && violating > 0,
        "sweep saw {valid} valid / {violating} violating SC+TSO verdicts"
    );
    assert!(
        weak_decided > 0,
        "vc must decide at least some executions under the weak models"
    );
}

/// Simulator-produced executions at both core strengths, checked under every
/// model: the vc verdict never contradicts the axiomatic checker, and under
/// SC/TSO it always decides.
#[test]
fn vc_conforms_on_simulator_executions_at_both_core_strengths() {
    for strength in CoreStrength::ALL {
        let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
        cfg.core_strength = strength;
        let mut sys = System::new(cfg, BugConfig::none(), 23);
        let mut params = TestGenParams::small().with_threads(4).with_test_size(40);
        if strength == CoreStrength::Relaxed {
            params.bias = OperationBias::relaxed_default();
        }
        let gen = RandomTestGenerator::new(params);
        let mut complete = 0usize;
        for seed in 0..15u64 {
            let program = lower(&gen.generate(&mut StdRng::seed_from_u64(seed)));
            let outcome = sys.run_iteration(&program);
            assert!(
                outcome.protocol_errors.is_empty() && !outcome.hung,
                "seed {seed} ({strength:?}): hung {}, {:?}",
                outcome.hung,
                outcome.protocol_errors
            );
            if !outcome.complete {
                continue;
            }
            complete += 1;
            for model in ModelKind::ALL {
                assert_conforms(
                    &outcome.execution,
                    model,
                    &format!("seed {seed} ({strength:?})"),
                );
            }
        }
        assert!(
            complete > 5,
            "too few complete runs under {strength:?}: {complete}"
        );
    }
}
