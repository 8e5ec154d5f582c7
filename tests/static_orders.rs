//! Executions that share a static part against their private rebuilds.
//!
//! The observer finishes the iterations of one test over one shared
//! [`StaticPart`](mcversi::mcm::program::StaticPart): program order,
//! dependencies and — memoised by the first check — each model's static
//! orders.  Sharing must be invisible: an execution finished by a reused
//! observer gives, under every model, the verdict, axiom name and witness of
//! a deep copy rebuilt through `from_parts_with_deps` (which owns a static
//! part of its own with a cold memo); its text forms are the copy's; a host
//! that stages one program after another never checks against the wrong
//! program's orders; and the conflict-order accumulator that rides the same
//! loop analyses a run as its pair-set original did.
//!
//! `crates/mcm/tests/combinators.rs` remains the per-pair reference for the
//! models themselves; this file needs the simulator and the checker together.

use mcversi::core::host::{HostInterface, SimHost};
use mcversi::core::McVerSiConfig;
use mcversi::mcm::checker::{CheckError, Checker, Verdict};
use mcversi::mcm::{Address, CandidateExecution, ModelKind};
use mcversi::sim::{Bug, BugConfig, CoreStrength, ProtocolKind};
use mcversi::telemetry;
use mcversi::testgen::enumerate::{enumerate, EnumerationBounds};
use mcversi::testgen::ndt::EventKey;
use mcversi::testgen::{
    litmus, OpKind, OperationBias, RandomTestGenerator, RunConflicts, Test, TestGenParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const ITERATIONS: usize = 4;

/// A deep copy of `exec` that shares nothing with it: the same six recorded
/// fields over a static part of its own.
fn rebuilt(exec: &CandidateExecution) -> CandidateExecution {
    CandidateExecution::from_parts_with_deps(
        exec.events().to_vec(),
        exec.po().clone(),
        exec.rf().clone(),
        exec.co_observed().clone(),
        exec.deps().clone(),
    )
}

fn check(exec: &CandidateExecution, model: ModelKind) -> Result<Verdict, CheckError> {
    Checker::new(model.instance()).try_check(exec)
}

/// Checks `shared` against all five models in turn, each against a fresh
/// private rebuild, and returns how many verdicts were violations.
fn assert_verdicts_match_private_rebuilds(shared: &CandidateExecution, what: &str) -> usize {
    let private = rebuilt(shared);
    assert!(!Arc::ptr_eq(shared.static_part(), private.static_part()));
    assert_eq!(
        format!("{shared:?}"),
        format!("{private:?}"),
        "{what}: {{:?}} text"
    );
    assert_eq!(
        serde_json::to_string(shared).expect("serializes"),
        serde_json::to_string(&private).expect("serializes"),
        "{what}: serde text"
    );
    let mut violations = 0;
    for model in ModelKind::ALL {
        let verdict = check(shared, model);
        assert_eq!(
            verdict,
            check(&rebuilt(shared), model),
            "{what}: {model} verdict"
        );
        assert_eq!(
            shared.static_part().model_orders(model),
            private.static_part().model_orders(model),
            "{what}: {model} static orders"
        );
        violations += usize::from(matches!(verdict, Ok(Verdict::Invalid(_))));
    }
    violations
}

/// The pair-set accumulator `RunConflicts` replaced, and its analysis.
#[derive(Default)]
struct ReferenceConflicts(BTreeSet<(EventKey, EventKey)>);

impl ReferenceConflicts {
    fn add_iteration(&mut self, exec: &CandidateExecution) {
        let key = |id| {
            let event = exec.event(id);
            match event.iiid {
                Some(iiid) => EventKey::Op {
                    pid: iiid.pid.0,
                    poi: iiid.poi,
                    write: event.is_write(),
                },
                None => EventKey::Initial {
                    addr: event.addr.unwrap_or(Address(0)),
                },
            }
        };
        for (a, b) in exec.rf().iter().chain(exec.co_observed().iter()) {
            self.0.insert((key(a), key(b)));
        }
    }

    fn analyze(&self, test: &Test) -> (f64, BTreeMap<EventKey, usize>, BTreeSet<Address>) {
        let ndt = self.0.len() as f64 / test.num_events().max(1) as f64;
        let mut nde: BTreeMap<EventKey, usize> = BTreeMap::new();
        for (_, b) in &self.0 {
            if matches!(b, EventKey::Op { .. }) {
                *nde.entry(*b).or_insert(0) += 1;
            }
        }
        let threshold = ndt.round() as usize;
        let threads = test.threads();
        let mut fitaddrs = BTreeSet::new();
        for (key, count) in &nde {
            let EventKey::Op { pid, poi, .. } = key else {
                continue;
            };
            let op = threads
                .get(*pid as usize)
                .and_then(|ops| ops.get(*poi as usize));
            if let Some(op) = op.filter(|op| *count > threshold && op.is_memop()) {
                if op.kind != OpKind::Delay {
                    fitaddrs.insert(op.addr);
                }
            }
        }
        (ndt, nde, fitaddrs)
    }
}

/// What a sweep saw, so that it can assert it was not vacuous.
#[derive(Default)]
struct Seen {
    executions: usize,
    violations: usize,
    valid: usize,
}

/// One test-run on `host`: four iterations finished by one reused observer.
fn run_and_compare(host: &mut SimHost, test: &Test, what: &str, seen: &mut Seen) {
    host.make_test_thread(test);
    let mut conflicts = RunConflicts::new();
    let mut reference = ReferenceConflicts::default();
    let mut first: Option<CandidateExecution> = None;
    for iteration in 0..ITERATIONS {
        host.reset_test_mem();
        let outcome = host.execute_test();
        let exec = outcome.execution;
        let what = format!("{what}, iteration {iteration}");
        match &first {
            Some(first) => assert!(
                Arc::ptr_eq(first.static_part(), exec.static_part()),
                "{what}: the iterations of one test share one static part"
            ),
            None => first = Some(exec.clone()),
        }
        conflicts.add_iteration(&exec);
        reference.add_iteration(&exec);
        let violations = assert_verdicts_match_private_rebuilds(&exec, &what);
        seen.executions += 1;
        seen.violations += violations;
        seen.valid += ModelKind::ALL.len() - violations;
    }
    let analysis = conflicts.analyze(test);
    let (ndt, nde, fitaddrs) = reference.analyze(test);
    assert_eq!(conflicts.len(), reference.0.len(), "{what}: |rfcoRUN|");
    assert_eq!(analysis.ndt, ndt, "{what}: ndt");
    assert_eq!(analysis.nde, nde, "{what}: nde");
    assert_eq!(analysis.fitaddrs, fitaddrs, "{what}: fitaddrs");
}

/// A host for `bug` (or the bug-free design), on the protocol and core the
/// bug needs to be observable.
fn host_for(bug: Option<Bug>, fallback_core: CoreStrength, seed: u64) -> SimHost {
    let mut system = McVerSiConfig::small().system;
    system.protocol = bug
        .and_then(Bug::required_protocol)
        .unwrap_or(ProtocolKind::Mesi);
    system.core_strength = bug.and_then(Bug::required_core).unwrap_or(fallback_core);
    let bugs = bug.map_or_else(BugConfig::none, BugConfig::single);
    SimHost::with_model(system, bugs, seed, ModelKind::Armish)
}

fn random_tests(count: usize, size: usize) -> Vec<Test> {
    let mut params = TestGenParams::small().with_threads(4).with_test_size(size);
    params.bias = OperationBias::relaxed_default();
    let generator = RandomTestGenerator::new(params);
    let mut rng = StdRng::seed_from_u64(0x16);
    (0..count).map(|_| generator.generate(&mut rng)).collect()
}

#[test]
fn enumerated_corpus_verdicts_equal_their_private_rebuilds() {
    let corpus = enumerate(&EnumerationBounds::new(2, 4));
    assert!(corpus.len() >= 50, "toy corpus too small: {}", corpus.len());
    let locations = [Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)];
    let mut seen = Seen::default();
    let cores = [CoreStrength::Strong, CoreStrength::Relaxed];
    for (i, case) in corpus.iter().enumerate() {
        let test = litmus::repeat_test(&case.litmus(&locations).test, 4);
        let bug = Bug::ALL_EXTENDED[i % Bug::ALL_EXTENDED.len()];
        for bug in [None, Some(bug)] {
            let mut host = host_for(bug, cores[i % 2], 16 + i as u64);
            let what = format!("{} under {bug:?}", case.name);
            run_and_compare(&mut host, &test, &what, &mut seen);
        }
    }
    assert!(seen.executions >= 2 * ITERATIONS * corpus.len());
    assert!(seen.valid > 0 && seen.violations > 0, "both verdicts occur");
}

#[test]
fn random_test_verdicts_equal_their_private_rebuilds() {
    let tests = random_tests(200, 64);
    let mut seen = Seen::default();
    let cores = [CoreStrength::Strong, CoreStrength::Relaxed];
    // One host per design, reused across its tests as a campaign reuses it:
    // every test replaces the cached observer and its static part.
    let mut bug_free = cores.map(|core| host_for(None, core, 160));
    let mut buggy = Bug::ALL_EXTENDED.map(|bug| host_for(Some(bug), CoreStrength::Relaxed, 161));
    for (i, test) in tests.iter().enumerate() {
        let what = format!("random test {i}");
        run_and_compare(&mut bug_free[i % 2], test, &what, &mut seen);
        let bug = i % buggy.len();
        let what = format!("random test {i} under {:?}", Bug::ALL_EXTENDED[bug]);
        run_and_compare(&mut buggy[bug], test, &what, &mut seen);
    }
    assert_eq!(seen.executions, 2 * ITERATIONS * tests.len());
    assert!(seen.valid > 0 && seen.violations > 0, "both verdicts occur");
}

/// One host staging program A, then B, then A again: every execution is
/// checked against the static orders of its own program, and one execution
/// checked against two models in turn gets each model's own.
#[test]
fn restaging_never_checks_against_another_programs_static_orders() {
    let tests = random_tests(2, 96);
    let (a, b) = (&tests[0], &tests[1]);
    let mut host = host_for(None, CoreStrength::Relaxed, 7);
    let mut parts = Vec::new();
    for (name, test) in [("A", a), ("B", b), ("A again", a)] {
        host.make_test_thread(test);
        for iteration in 0..2 {
            host.reset_test_mem();
            let exec = host.execute_test().execution;
            let private = rebuilt(&exec);
            // Two models in turn on one execution, the second first on the
            // copy: neither order of asking may leak one model's orders into
            // the other's.
            for model in [ModelKind::Armish, ModelKind::Tso] {
                assert_eq!(check(&exec, model), check(&private, model));
            }
            for model in [ModelKind::Tso, ModelKind::Armish, ModelKind::Sc] {
                assert_eq!(
                    exec.static_part().model_orders(model),
                    rebuilt(&exec).static_part().model_orders(model),
                    "{name}, iteration {iteration}: {model} orders are this program's"
                );
            }
            assert_ne!(
                exec.static_part().model_orders(ModelKind::Armish).ppo,
                exec.static_part().model_orders(ModelKind::Tso).ppo,
                "{name}: the two models' memos are distinct"
            );
            assert_eq!(
                exec.po(),
                &mcversi::mcm::program::program_order(exec.events())
            );
            parts.push(Arc::clone(exec.static_part()));
        }
    }
    // Shared within a staging, never across programs.
    for staging in parts.chunks(2) {
        assert!(Arc::ptr_eq(&staging[0], &staging[1]));
    }
    assert!(!Arc::ptr_eq(&parts[0], &parts[2]));
    assert!(!Arc::ptr_eq(&parts[2], &parts[4]));
    assert_ne!(parts[0].events(), parts[2].events());
    assert_eq!(parts[0].events(), parts[4].events());
}

/// The telemetry that makes sharing visible: four checked iterations of one
/// test derive the static orders once and reuse them three times.
#[test]
fn four_iterations_build_the_static_orders_once() {
    let test = &random_tests(1, 64)[0];
    let mut host = host_for(None, CoreStrength::Relaxed, 3);
    host.make_test_thread(test);
    telemetry::enable();
    telemetry::reset_local();
    for _ in 0..ITERATIONS {
        host.reset_test_mem();
        let outcome = host.execute_test();
        assert!(host.verify_reset_conflict(&outcome).is_valid());
    }
    let counters = telemetry::local_snapshot().counters;
    assert_eq!(counters.get("mcm.static_orders.built"), Some(&1));
    assert_eq!(counters.get("mcm.static_orders.reused"), Some(&3));
    assert_eq!(counters.get("mcm.malformed_executions"), None);
}
