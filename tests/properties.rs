//! Property-based integration tests (proptest) over the whole stack.
//!
//! These check the invariants the rest of the framework relies on:
//!
//! * lowering always produces programs with unique, non-zero write values;
//! * both crossover operators preserve test size and thread validity for
//!   arbitrary parents and fit-address sets;
//! * the simulator is deterministic per seed and the correct design never
//!   produces a TSO violation, for arbitrary generated tests;
//! * relation algebra: transitive closure is idempotent and topological sort
//!   exists exactly for acyclic relations;
//! * model strength is monotone: on arbitrary well-formed candidate
//!   executions (with dependencies and every fence flavour), acceptance
//!   implies acceptance down the chain `SC ⇒ TSO ⇒ {ARMish, POWERish} ⇒ RMO`;
//! * the relaxed simulator core is *sound* for the dependency-ordered models
//!   (arbitrary generated tests never produce an ARMish/POWERish/RMO
//!   violation on the correct design) while being *genuinely weaker* than
//!   SC/TSO (sampled runs exhibit forbidden reorderings).

use mcversi::core::lowering::lower;
use mcversi::core::{McVerSiConfig, TestRunner};
use mcversi::mcm::checker::Checker;
use mcversi::mcm::execution::ExecutionBuilder;
use mcversi::mcm::relation::Relation;
use mcversi::mcm::{
    Address, CandidateExecution, DepKind, EventId, FenceKind, ModelKind, ProcessorId, Value,
};
use mcversi::sim::BugConfig;
use mcversi::testgen::ndt::NdtAnalysis;
use mcversi::testgen::{
    selective_crossover_mutate, single_point_crossover_mutate, RandomTestGenerator, TestGenParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn small_params(test_size: usize) -> TestGenParams {
    TestGenParams::small()
        .with_test_size(test_size)
        .with_threads(4)
}

/// Generates an arbitrary *well-formed* candidate execution: random threads
/// of reads, writes, dependency-carrying ops, RMWs and fences of every
/// flavour; each read observes a randomly chosen same-address write (or the
/// initial value) and the per-address coherence orders are random
/// permutations.  Most of these executions are wildly weak — exactly the
/// input the monotonicity property needs.
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
                    last_load = None; // RMW reads are not forwarding sources here
                }
            }
        }
    }

    // Reads-from: every read picks a random same-address write or the
    // initial value; the read's value is patched to match.
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

    // Coherence: a random permutation per address, chained.
    for i in 0..num_addrs {
        let a = addr(i);
        let mut order: Vec<EventId> = writes
            .iter()
            .filter(|&&(_, wa, _)| wa == a)
            .map(|&(w, _, _)| w)
            .collect();
        // Fisher–Yates with the test's RNG.
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lowering_always_produces_unique_nonzero_write_values(seed in 0u64..1000, size in 8usize..96) {
        let params = small_params(size);
        let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(seed));
        let program = lower(&test);
        prop_assert!(program.written_values_unique());
        prop_assert_eq!(program.total_ops(), size);
    }

    #[test]
    fn crossover_preserves_size_and_threads(
        seed in 0u64..1000,
        size in 8usize..64,
        fit_count in 0usize..6,
    ) {
        let params = small_params(size);
        let gen = RandomTestGenerator::new(params.clone());
        let t1 = gen.generate(&mut StdRng::seed_from_u64(seed));
        let t2 = gen.generate(&mut StdRng::seed_from_u64(seed + 1));
        let mut a1 = NdtAnalysis::empty();
        a1.ndt = 1.5;
        a1.fitaddrs = t1.addresses().into_iter().take(fit_count).collect();
        let mut a2 = NdtAnalysis::empty();
        a2.ndt = 2.5;
        a2.fitaddrs = t2.addresses().into_iter().take(fit_count).collect();
        let mut rng = StdRng::seed_from_u64(seed + 2);

        let child = selective_crossover_mutate(&t1, &t2, &a1, &a2, &params, &mut rng);
        prop_assert_eq!(child.len(), size);
        prop_assert_eq!(child.num_threads(), t1.num_threads());
        prop_assert!(child.genes().iter().all(|g| (g.pid as usize) < child.num_threads()));

        let child = single_point_crossover_mutate(&t1, &t2, &params, &mut rng);
        prop_assert_eq!(child.len(), size);
        prop_assert!(child.genes().iter().all(|g| (g.pid as usize) < child.num_threads()));
    }

    /// Model strength is monotone: on arbitrary well-formed executions, an
    /// execution accepted by a stronger model is accepted by every weaker
    /// model in the chain `SC ⇒ TSO ⇒ {ARMish, POWERish} ⇒ RMO`.
    #[test]
    fn model_strength_is_monotone_on_random_executions(seed in 0u64..2000) {
        let exec = random_execution(seed);
        prop_assert!(exec.validate().is_ok(), "malformed: {:?}", exec.validate());
        let accepted = |model: ModelKind| Checker::new(model.instance()).check(&exec).is_valid();
        let chain: &[(ModelKind, ModelKind)] = &[
            (ModelKind::Sc, ModelKind::Tso),
            (ModelKind::Tso, ModelKind::Armish),
            (ModelKind::Tso, ModelKind::Powerish),
            (ModelKind::Armish, ModelKind::Rmo),
            (ModelKind::Powerish, ModelKind::Rmo),
        ];
        for &(stronger, weaker) in chain {
            if accepted(stronger) {
                prop_assert!(
                    accepted(weaker),
                    "seed {seed}: accepted by {stronger} but rejected by {weaker}"
                );
            }
        }
    }

    /// Enumerated-corpus verdicts are monotone along the strength chain: a
    /// cycle forbidden under a weak model is forbidden under every stronger
    /// one — and the closed-form oracle agrees with the axiomatic checker on
    /// the cycle's canonical weak-outcome execution, for every model.
    /// (Proptest samples the default-bound corpus; the full sweep runs in
    /// `mcversi-bench`'s enumerated matrix.)
    #[test]
    fn enumerated_verdicts_are_monotone_and_checker_backed(pick in 0usize..10_000) {
        use mcversi::testgen::enumerate::{enumerate, EnumerationBounds};
        let corpus = enumerate(&EnumerationBounds::default());
        let test = &corpus[pick % corpus.len()];
        let [sc, tso, armish, powerish, rmo] = test.forbidden;
        let chain = [(sc, tso), (tso, armish), (tso, powerish), (armish, rmo), (powerish, rmo)];
        for (stronger, weaker) in chain {
            prop_assert!(
                stronger || !weaker,
                "{}: forbidden under the weaker model only", test.name
            );
        }
        prop_assert!(sc, "{}: SC forbids every critical cycle", test.name);
        let exec = test.cycle.canonical_execution();
        prop_assert!(exec.validate().is_ok(), "{}: {:?}", test.name, exec.validate());
        for (i, model) in ModelKind::ALL.into_iter().enumerate() {
            let checker = Checker::new(model.instance()).check(&exec).is_violation();
            prop_assert_eq!(
                test.forbidden[i], checker,
                "{} under {}: oracle vs checker", &test.name, model
            );
        }
    }

    #[test]
    fn closure_is_idempotent_and_topo_sort_matches_acyclicity(
        edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40)
    ) {
        let rel = Relation::from_pairs(edges.iter().map(|&(a, b)| (EventId(a), EventId(b))));
        let closed = rel.transitive_closure();
        prop_assert_eq!(closed.transitive_closure(), closed.clone());
        prop_assert_eq!(rel.is_acyclic(), rel.topological_sort().is_some());
        // Closure preserves acyclicity.
        prop_assert_eq!(rel.is_acyclic(), closed.is_acyclic());
        // Any reported cycle really is a cycle.
        if let Some(cycle) = rel.find_cycle() {
            prop_assert!(!cycle.is_empty());
            for w in cycle.windows(2) {
                prop_assert!(rel.contains(w[0], w[1]));
            }
            prop_assert!(rel.contains(*cycle.last().unwrap(), cycle[0]));
        }
    }
}

proptest! {
    // The simulator properties run fewer cases: each case simulates a full
    // test-run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn correct_design_satisfies_tso_for_arbitrary_tests(seed in 0u64..500) {
        let config = McVerSiConfig::small().with_iterations(2).with_test_size(40).with_seed(seed);
        let params = config.testgen.clone().with_test_size(40);
        let mut runner = TestRunner::new(config, BugConfig::none());
        let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(seed));
        let result = runner.run_test(&test);
        prop_assert!(!result.verdict.is_bug(), "verdict: {:?}", result.verdict);
        prop_assert!(result.analysis.ndt >= 0.0);
    }

    /// Soundness of the relaxed pipeline: for arbitrary generated tests
    /// (relaxed operation mix: dependency-carrying ops and weak fence
    /// flavours), the correct relaxed-core design never violates the
    /// dependency-ordered model it is checked against.
    #[test]
    fn relaxed_core_correct_design_satisfies_its_own_models(seed in 0u64..500) {
        use mcversi::sim::CoreStrength;
        let model = [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo][(seed % 3) as usize];
        let mut config = McVerSiConfig::small()
            .with_iterations(2)
            .with_test_size(40)
            .with_seed(seed);
        config.model = model;
        config.system.core_strength = CoreStrength::Relaxed;
        config.testgen.bias = mcversi::testgen::OperationBias::relaxed_default();
        let params = config.testgen.clone();
        let mut runner = TestRunner::new(config, BugConfig::none());
        let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(seed));
        let result = runner.run_test(&test);
        prop_assert!(
            !result.verdict.is_bug(),
            "relaxed core violated {model}: {:?}",
            result.verdict
        );
    }

    #[test]
    fn simulation_is_deterministic_per_seed(seed in 0u64..500) {
        let run = |sim_seed: u64| {
            let config = McVerSiConfig::small()
                .with_iterations(2)
                .with_test_size(32)
                .with_seed(sim_seed);
            let params = config.testgen.clone().with_test_size(32);
            let mut runner = TestRunner::new(config, BugConfig::none());
            let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(7));
            let result = runner.run_test(&test);
            (result.cycles, result.analysis.ndt.to_bits(), result.covered.len())
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b, "same seed must reproduce the same run");
    }
}

/// Deterministic wide sweep backing the sampled monotonicity property: 500
/// random executions, every chain pair checked.
#[test]
fn model_strength_monotone_wide_sweep() {
    let chain: &[(ModelKind, ModelKind)] = &[
        (ModelKind::Sc, ModelKind::Tso),
        (ModelKind::Tso, ModelKind::Armish),
        (ModelKind::Tso, ModelKind::Powerish),
        (ModelKind::Armish, ModelKind::Rmo),
        (ModelKind::Powerish, ModelKind::Rmo),
    ];
    let mut accepted_counts = vec![0usize; ModelKind::ALL.len()];
    for seed in 10_000..10_500u64 {
        let exec = random_execution(seed);
        assert!(exec.validate().is_ok(), "seed {seed} malformed");
        let accepted = |model: ModelKind| Checker::new(model.instance()).check(&exec).is_valid();
        for (i, model) in ModelKind::ALL.into_iter().enumerate() {
            if accepted(model) {
                accepted_counts[i] += 1;
            }
        }
        for &(stronger, weaker) in chain {
            if accepted(stronger) {
                assert!(
                    accepted(weaker),
                    "seed {seed}: accepted by {stronger} but rejected by {weaker}"
                );
            }
        }
    }
    // The sweep must actually discriminate: weaker models accept strictly
    // more of the random executions than SC does, and some executions are
    // rejected even by RMO (coherence violations), otherwise the property
    // would be vacuous.
    assert!(
        accepted_counts[4] > accepted_counts[0],
        "RMO should accept more executions than SC: {accepted_counts:?}"
    );
    assert!(
        accepted_counts[4] < 500,
        "some executions must violate even RMO: {accepted_counts:?}"
    );
}

/// Deterministic sweep backing the relaxed-core properties: on generated
/// tests with the relaxed operation mix, every complete execution of the
/// correct relaxed core is accepted by all three dependency-ordered models,
/// while at least one sampled run exhibits a reordering that SC and TSO
/// forbid — the core is genuinely weaker than the strong models, not merely
/// differently configured.
#[test]
fn relaxed_core_weaker_than_tso_but_sound_for_weak_models() {
    use mcversi::core::lowering::lower;
    use mcversi::mcm::checker::Checker;
    use mcversi::sim::{
        BugConfig as SimBugConfig, CoreStrength, ProtocolKind, System, SystemConfig,
    };
    use mcversi::testgen::OperationBias;

    let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
    cfg.core_strength = CoreStrength::Relaxed;
    let mut sys = System::new(cfg, SimBugConfig::none(), 17);
    let mut params = TestGenParams::small().with_threads(4).with_test_size(48);
    params.bias = OperationBias::relaxed_default();
    let gen = RandomTestGenerator::new(params);
    let mut tso_broken = 0usize;
    let mut sc_broken = 0usize;
    let mut complete = 0usize;
    for seed in 0..40u64 {
        let program = lower(&gen.generate(&mut StdRng::seed_from_u64(seed)));
        let outcome = sys.run_iteration(&program);
        assert!(
            outcome.protocol_errors.is_empty(),
            "seed {seed}: {:?}",
            outcome.protocol_errors
        );
        if !outcome.complete {
            continue;
        }
        complete += 1;
        for model in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
            assert!(
                Checker::new(model.instance())
                    .check(&outcome.execution)
                    .is_valid(),
                "seed {seed}: correct relaxed core violated {model}"
            );
        }
        if Checker::new(ModelKind::Tso.instance())
            .check(&outcome.execution)
            .is_violation()
        {
            tso_broken += 1;
        }
        if Checker::new(ModelKind::Sc.instance())
            .check(&outcome.execution)
            .is_violation()
        {
            sc_broken += 1;
        }
    }
    assert!(complete > 20, "too few complete runs: {complete}");
    assert!(
        tso_broken > 0,
        "no sampled run exhibited a TSO-forbidden reordering"
    );
    assert!(
        sc_broken >= tso_broken,
        "every TSO violation is an SC violation (monotonicity)"
    );
}

/// Builds a pseudo-random but fully-populated [`ScenarioSpec`] from a seed.
fn arbitrary_spec(seed: u64) -> mcversi::core::ScenarioSpec {
    use mcversi::core::{GeneratorKind, ScenarioSpec};
    use mcversi::sim::{Bug, CoreStrength, ProtocolKind};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pick = |n: usize| rng.gen_range(0..n);
    ScenarioSpec {
        generator: GeneratorKind::ALL[pick(4)],
        bug: match pick(4) {
            0 => None,
            i => Some(Bug::ALL_EXTENDED[(i * 5) % Bug::ALL_EXTENDED.len()]),
        },
        model: ModelKind::ALL[pick(5)],
        core_strength: CoreStrength::ALL[pick(2)],
        cores: 1 + pick(8),
        protocol: [ProtocolKind::Mesi, ProtocolKind::TsoCc][pick(2)],
        test_memory_bytes: [256, 1024, 8192][pick(3)],
        test_size: 8 + pick(1000),
        iterations: 1 + pick(10),
        samples: 1 + pick(10),
        max_test_runs: 1 + pick(2000),
        wall_secs: 1 + pick(100_000) as u64,
        parallelism: pick(16),
        base_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        full: pick(2) == 1,
        litmus: match pick(3) {
            0 => None,
            1 => Some(mcversi::testgen::LitmusCorpus::Handpicked),
            _ => Some(mcversi::testgen::LitmusCorpus::Enumerated {
                max_threads: 2 + pick(3),
                max_edges: 4 + pick(4),
            }),
        },
        metrics: match pick(3) {
            0 => None,
            1 => Some(0),
            _ => Some(1 + pick(100)),
        },
        checking: match pick(2) {
            0 => None,
            _ => Some(mcversi::core::CheckingMode::PerExec),
        },
        label: if pick(2) == 0 {
            None
        } else {
            Some(format!("label \"{}\"\n[{seed}]", pick(100)))
        },
    }
}

proptest! {
    /// The declarative spec round-trips through JSON exactly: spec → JSON →
    /// spec is the identity for arbitrary axis combinations, budgets, seeds
    /// and labels (including labels that need JSON string escaping).
    #[test]
    fn scenario_spec_round_trips_through_json(seed in 0u64..300) {
        use mcversi::core::ScenarioSpec;
        let spec = arbitrary_spec(seed);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{json}"));
        prop_assert_eq!(back, spec);
    }
}

/// The grid-driven declarative path reproduces the *exact* campaign results
/// of a configuration assembled by hand from the config structs — for 20
/// seeds across a strong-core TSO cell and a relaxed-core ARMish cell.
/// (Everything except wall-clock time must match bit-for-bit; this is the
/// compatibility contract of the `ScenarioSpec` redesign, kept after the
/// deprecated setter shims were deleted.)
#[test]
fn grid_cells_reproduce_field_built_campaigns() {
    use mcversi::core::{
        run_campaign, CampaignConfig, CampaignResult, GeneratorKind, ScenarioGrid, ScenarioSpec,
    };
    use mcversi::mcm::ModelKind;
    use mcversi::sim::{Bug, CoreStrength, ProtocolKind, SystemConfig};
    use std::time::Duration;

    fn fingerprint(r: &CampaignResult) -> (u64, bool, Option<String>, usize, Option<usize>, u64) {
        (
            r.seed,
            r.found,
            r.detail.clone(),
            r.test_runs,
            r.found_at_run,
            r.simulated_cycles,
        )
    }

    /// The imperative construction path: config structs assembled field by
    /// field (plus the `retarget` bias policy), exactly what the deleted
    /// `with_model`/`with_core_strength` shims used to do.
    fn field_built(
        generator: GeneratorKind,
        bug: Bug,
        memory: u64,
        model: ModelKind,
        core: CoreStrength,
    ) -> CampaignConfig {
        let mut system = SystemConfig::small(ProtocolKind::Mesi);
        system.num_cores = 4;
        let mut testgen = TestGenParams::small();
        testgen.test_memory_bytes = memory;
        testgen.population_size = 24;
        let testgen = testgen.with_threads(4).with_test_size(24);
        let mut mcversi = McVerSiConfig::small();
        mcversi.system = system;
        mcversi.testgen = testgen;
        mcversi.testgen.iterations = 2;
        let mut mcversi = mcversi.retarget(model);
        mcversi.system.core_strength = core;
        CampaignConfig::new(generator, Some(bug), mcversi, 6, Duration::from_secs(60))
    }

    let mut base = ScenarioSpec::small();
    base.cores = 4;
    base.test_size = 24;
    base.iterations = 2;
    base.max_test_runs = 6;
    base.wall_secs = 60;

    let cells = [
        (
            GeneratorKind::McVerSiRand,
            Bug::LqNoTso,
            1024u64,
            ModelKind::Tso,
            CoreStrength::Strong,
        ),
        (
            GeneratorKind::DiyLitmus,
            Bug::SqNoDataDep,
            8 * 1024,
            ModelKind::Armish,
            CoreStrength::Relaxed,
        ),
    ];

    for (generator, bug, memory, model, core) in cells {
        let old_config = field_built(generator, bug, memory, model, core);
        let grid = ScenarioGrid::new(
            base.clone()
                .generator(generator)
                .bug(Some(bug))
                .test_memory(memory),
        )
        .models([model])
        .core_strengths([core]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 1);
        let new_config = cells[0].campaign();

        assert_eq!(
            old_config.effective_mcversi(),
            new_config.effective_mcversi(),
            "configs must agree for {generator}/{bug}"
        );
        for seed in 0..10u64 {
            let old_result = run_campaign(&old_config, seed);
            let new_result = run_campaign(&new_config, seed);
            assert_eq!(
                fingerprint(&old_result),
                fingerprint(&new_result),
                "seed {seed}, {generator}/{bug}"
            );
        }
    }
}

#[test]
fn different_seeds_perturb_executions() {
    // Complements the determinism property: across many seeds the cycle counts
    // must not all be identical (otherwise there would be no non-determinism
    // for NDT to measure).
    let mut cycle_counts = BTreeSet::new();
    for seed in 0..6u64 {
        let config = McVerSiConfig::small()
            .with_iterations(1)
            .with_test_size(32)
            .with_seed(seed);
        let params = config.testgen.clone().with_test_size(32);
        let mut runner = TestRunner::new(config, BugConfig::none());
        let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(7));
        let result = runner.run_test(&test);
        cycle_counts.insert(result.cycles);
    }
    assert!(
        cycle_counts.len() > 1,
        "different seeds should give different timings"
    );
}

/// The distributed-fabric differential sweep: a 20-seed grid of small cells
/// (rotating models, cores, generators and bugs) run through the
/// multi-process coordinator — with 2 workers and again with 4, work
/// stealing on — reaches exactly the verdicts of the in-process path: same
/// `found`, same `detail`, same `found_at_run`, for every sample of every
/// cell.
#[test]
fn fabric_coordinator_is_verdict_equivalent_across_a_20_seed_sweep() {
    use mcversi::core::sink::NullSink;
    use mcversi::core::{CampaignResult, GeneratorKind, ScenarioSpec};
    use mcversi::fabric::{run_grid, FabricOptions};
    use mcversi::sim::{Bug, CoreStrength};

    /// Locates (building on demand) the `mcversi-work` binary.  The root
    /// test harness only builds this package's targets, so the fabric worker
    /// may not exist yet — one `cargo build` fixes that, cheaply when the
    /// workspace is already compiled.
    fn worker_binary() -> std::path::PathBuf {
        use std::sync::OnceLock;
        static WORKER: OnceLock<std::path::PathBuf> = OnceLock::new();
        WORKER
            .get_or_init(|| {
                let exe = std::env::current_exe().expect("test executable path");
                // `target/<profile>/deps/<test>` → `target/<profile>/`.
                let profile_dir = exe
                    .parent()
                    .and_then(std::path::Path::parent)
                    .expect("test executable in target/<profile>/deps")
                    .to_path_buf();
                let worker =
                    profile_dir.join(format!("mcversi-work{}", std::env::consts::EXE_SUFFIX));
                if !worker.is_file() {
                    let cargo = option_env!("CARGO").unwrap_or("cargo");
                    let mut build = std::process::Command::new(cargo);
                    build.args(["build", "-p", "mcversi-fabric", "--bin", "mcversi-work"]);
                    if profile_dir.file_name().is_some_and(|n| n == "release") {
                        build.arg("--release");
                    }
                    let status = build.status().expect("spawn cargo build for mcversi-work");
                    assert!(status.success(), "cargo build for mcversi-work failed");
                }
                assert!(
                    worker.is_file(),
                    "worker binary not found at {}",
                    worker.display()
                );
                worker
            })
            .clone()
    }

    type Verdict = (u64, bool, Option<String>, Option<usize>);

    fn verdicts(results: &[CampaignResult]) -> Vec<Verdict> {
        results
            .iter()
            .map(|r| (r.seed, r.found, r.detail.clone(), r.found_at_run))
            .collect()
    }

    let cells: Vec<ScenarioSpec> = (0..20u64)
        .map(|i| {
            let mut cell = ScenarioSpec::small();
            cell.base_seed = 1 + i * 1000;
            cell.samples = 2;
            cell.test_size = 16;
            cell.iterations = 1;
            cell.max_test_runs = 2;
            cell.model = ModelKind::ALL[(i % 5) as usize];
            cell.core_strength = [CoreStrength::Strong, CoreStrength::Relaxed][(i % 2) as usize];
            cell.generator = GeneratorKind::ALL[(i % 4) as usize];
            cell.bug = if (i / 2) % 2 == 0 {
                None
            } else {
                Some(Bug::LqNoTso)
            };
            cell
        })
        .collect();

    let baseline: Vec<Vec<CampaignResult>> =
        cells.iter().map(|cell| cell.run(&mut NullSink)).collect();

    for workers in [2usize, 4] {
        let mut options = FabricOptions::new(worker_binary());
        options.workers = workers;
        options.shards = 8; // more shards than workers: stealing has spares
        let report = run_grid(&cells, &options, &mut NullSink)
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert_eq!(report.cells.len(), cells.len());
        for ((cell, fabric_results), in_process) in report.cells.iter().zip(&baseline) {
            assert_eq!(
                verdicts(fabric_results),
                verdicts(in_process),
                "{workers} workers, cell {}",
                cell.display_label()
            );
        }
    }
}
