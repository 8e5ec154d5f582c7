//! The test-run executor (the guest workload kernel, Algorithm 2).
//!
//! A *test-run* executes one test for several iterations.  Per iteration the
//! runner resets the test memory, executes the staged code on all threads in
//! lock step, verifies the observed candidate execution against the target
//! MCM (x86-TSO by default; any [`ModelKind`] via
//! [`McVerSiConfig::model`]) and accumulates the conflict orders for the NDT
//! analysis.
//! After the last iteration the per-run coverage is turned into the adaptive
//! fitness.  The correspondence with Algorithm 2 is one-to-one:
//!
//! | Algorithm 2                      | Runner                                   | Thread   |
//! |----------------------------------|------------------------------------------|----------|
//! | `barrier_wait_coarse()`          | [`HostInterface::barrier_wait_coarse`]   | caller   |
//! | `make_test_thread(code)`         | [`HostInterface::make_test_thread`]      | caller   |
//! | `barrier_wait_precise(); execute`| [`HostInterface::execute_test`]          | caller   |
//! | `verify_reset_conflict()`        | per-iteration check + conflict recording | verifier |
//! | `reset_test_mem()`               | [`HostInterface::reset_test_mem`]        | caller   |
//! | `verify_reset_all()`             | final check + fitness evaluation         | caller   |
//!
//! A check is a pure function of an execution that is already complete, so
//! the runner overlaps it with the simulation of the next iteration: each
//! runner owns a verifier thread, which folds iteration k's conflict orders
//! into the run's and checks k against the model while the calling thread
//! marks the system ([`System::mark`](mcversi_sim::System::mark)) and
//! simulates k+1.  The commit rule keeps the outcome that of the sequential
//! loop: k+1 counts only once k's verdict has come back valid.  If k violates
//! the model, the system is rewound to the mark and k+1 is dropped as if it
//! had never run; a protocol fault or hang of k+1 is decided only after k's
//! verdict.  The last iteration has nothing to overlap with and is checked
//! inline, so a one-iteration run never involves the verifier.  Verdicts,
//! iteration counts, cycles, coverage, fitness, NDT and the deterministic
//! part of the telemetry are exactly those of checking each iteration before
//! the next one starts.

use crate::config::McVerSiConfig;
use crate::coverage::AdaptiveCoverage;
use crate::host::{self, HostInterface, SimHost};
use mcversi_mcm::checker::Verdict;
use mcversi_mcm::{CandidateExecution, ModelKind, Violation};
use mcversi_sim::{BugConfig, Mark, ProtocolError, Transition};
use mcversi_telemetry::{self as telemetry, LocalMetrics, Stopwatch};
use mcversi_testgen::{NdtAnalysis, RunConflicts, Test};
use serde::{DeError, Deserialize, Serialize, Value};
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Phase timer: lowering the test into its executable program.
static PHASE_LOWER: telemetry::Timer = telemetry::Timer::new("phase.lower");
/// Phase timer: resetting the test memory between iterations.
static PHASE_RESET: telemetry::Timer = telemetry::Timer::new("phase.reset");
/// Phase timer: the per-iteration MCM check (`verify_reset_conflict`), on
/// the verifier thread for every iteration but the last.
static PHASE_CHECK: telemetry::Timer = telemetry::Timer::new("phase.check");
/// Phase timer: the calling thread waiting for the verifier's verdict.
static PHASE_VERDICT_WAIT: telemetry::Timer = telemetry::Timer::new("phase.verdict_wait");
/// Phase timer: end-of-run fitness evaluation and NDT analysis.
static PHASE_FITNESS: telemetry::Timer = telemetry::Timer::new("phase.fitness");
/// Test-runs whose verdict is [`RunVerdict::Hang`].
static SIM_HANG: telemetry::Counter = telemetry::Counter::new("sim.hang");
/// Test-runs whose verdict is [`RunVerdict::ProtocolFault`].
static SIM_FAULT: telemetry::Counter = telemetry::Counter::new("sim.fault");

/// How the runner verifies observed executions against the target MCM.
///
/// Every iteration's execution is checked as it is observed (the paper's
/// Algorithm 2 flow); this is the only mode.  The type survives because
/// `ScenarioSpec.checking` keeps its key, which the benchmark package's
/// workload test reads.  The `collective` and `vc` modes were removed; specs
/// naming them are rejected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum CheckingMode {
    /// Check every iteration's execution as it is observed.
    #[default]
    PerExec,
}

impl Serialize for CheckingMode {
    fn to_value(&self) -> Value {
        Value::Str("per_exec".to_string())
    }
}

impl Deserialize for CheckingMode {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_str() {
            Some("per_exec") | Some("PerExec") => Ok(CheckingMode::PerExec),
            Some(removed @ ("collective" | "Collective" | "vc" | "Vc")) => Err(DeError(format!(
                "checking mode \"{removed}\" was removed: every execution is checked \
                 per iteration (\"per_exec\")"
            ))),
            _ => Err(DeError::expected("\"per_exec\"", "CheckingMode")),
        }
    }
}

/// The verdict of one test-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunVerdict {
    /// Every iteration satisfied the target MCM.
    Passed,
    /// An iteration's candidate execution violated the MCM.
    McmViolation(Violation),
    /// The protocol monitor flagged an invalid transition (as Ruby would).
    ProtocolFault(ProtocolError),
    /// An iteration did not complete within its cycle budget.
    Hang,
}

impl RunVerdict {
    /// Returns `true` if the run exposed a bug of any kind.
    pub fn is_bug(&self) -> bool {
        !matches!(self, RunVerdict::Passed)
    }
}

/// The outcome of one test-run.
#[derive(Debug, Clone)]
pub struct TestRunResult {
    /// Pass/fail verdict.
    pub verdict: RunVerdict,
    /// Adaptive-coverage fitness of the run (the GP fitness signal).
    pub fitness: f64,
    /// Non-determinism analysis of the run (NDT, NDe, fit addresses).
    pub analysis: NdtAnalysis,
    /// Transitions covered by this run.
    pub covered: BTreeSet<Transition>,
    /// Number of iterations actually executed (may be fewer than configured if
    /// a bug was found early).
    pub iterations_run: usize,
    /// Simulated cycles consumed by the run.
    pub cycles: u64,
    /// Test operations retired during the run.
    pub retired_ops: usize,
}

/// What happens to one iteration's execution in `verify_reset_conflict`:
/// its conflict orders are folded into the run's, then it is checked
/// against the model.
type Verify = fn(ModelKind, &mut RunConflicts, &CandidateExecution) -> Verdict;

/// The [`Verify`] of every runner.
fn verify(
    model: ModelKind,
    conflicts: &mut RunConflicts,
    execution: &CandidateExecution,
) -> Verdict {
    conflicts.add_iteration(execution);
    let _span = PHASE_CHECK.span();
    host::check_execution(model, execution)
}

/// An iteration's execution on its way to the verifier, with the run's
/// conflict orders so far.
#[derive(Debug)]
struct Job {
    execution: CandidateExecution,
    conflicts: RunConflicts,
}

/// The answer to a [`Job`]: the verdict, the job back (its conflict orders
/// with the iteration's folded in; the execution, so that the thread that
/// allocated it frees it) and, while telemetry is on, what the check
/// recorded.
#[derive(Debug)]
struct Reply {
    verdict: Verdict,
    job: Job,
    metrics: Option<LocalMetrics>,
}

/// What the caller and the verifier thread hand each other.
#[derive(Debug, Default)]
enum Slot {
    /// Nothing in flight, or a job being checked.
    #[default]
    Empty,
    /// A job the verifier has not started on.
    Job(Job),
    /// The answer to the last job.
    Reply(Reply),
    /// The verifier thread has ended, or is to end.
    Closed,
}

/// One [`Slot`] and the condition both sides wait on.
#[derive(Debug)]
struct Handoff {
    slot: Mutex<Slot>,
    changed: Condvar,
}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // Every critical section is a single move in or out of the slot, so
        // a panic elsewhere cannot leave it half-updated.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts `new` in the slot, unless the slot is closed, and wakes the
    /// other side.
    fn put(&self, new: Slot) {
        let mut slot = self.lock();
        if !matches!(*slot, Slot::Closed) {
            *slot = new;
        }
        self.changed.notify_all();
    }

    /// Waits until `ready` holds for the slot's content, then takes it out.
    fn take(&self, ready: impl Fn(&Slot) -> bool) -> Slot {
        let mut slot = self
            .changed
            .wait_while(self.lock(), |slot| !ready(slot))
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *slot)
    }
}

/// Closes the slot when the verifier thread ends, however it ends, so a
/// caller waiting for a reply learns that none will come.
struct Hangup(Arc<Handoff>);

impl Drop for Hangup {
    fn drop(&mut self) {
        self.0.put(Slot::Closed);
    }
}

/// The thread that checks iteration k while the caller simulates k+1.  At
/// most one job is in flight.
#[derive(Debug)]
struct Verifier {
    handoff: Arc<Handoff>,
    thread: Option<JoinHandle<()>>,
}

impl Verifier {
    fn spawn(model: ModelKind, verify: Verify) -> Self {
        let handoff = Arc::new(Handoff {
            slot: Mutex::new(Slot::Empty),
            changed: Condvar::new(),
        });
        let hangup = Hangup(Arc::clone(&handoff));
        let thread = std::thread::Builder::new()
            .name("mcversi-verifier".to_string())
            .spawn(move || {
                let handoff = &hangup.0;
                while let Slot::Job(mut job) =
                    handoff.take(|slot| matches!(slot, Slot::Job(_) | Slot::Closed))
                {
                    let verdict = verify(model, &mut job.conflicts, &job.execution);
                    // What the check recorded goes back with the verdict,
                    // leaving this thread's metrics empty for the next job.
                    let metrics = telemetry::enabled().then(telemetry::take_local);
                    handoff.put(Slot::Reply(Reply {
                        verdict,
                        job,
                        metrics,
                    }));
                }
            })
            .expect("the verifier thread spawns");
        Verifier {
            handoff,
            thread: Some(thread),
        }
    }

    fn submit(&self, job: Job) {
        self.handoff.put(Slot::Job(job));
    }

    /// The answer to the job in flight and how long the caller waited for
    /// it, or — if the verifier panicked — the panic's payload.
    fn reply(&mut self) -> Result<(Reply, Duration), Box<dyn Any + Send>> {
        let waiting = Stopwatch::start();
        let taken = self
            .handoff
            .take(|slot| matches!(slot, Slot::Reply(_) | Slot::Closed));
        let waited = waiting.elapsed();
        match taken {
            Slot::Reply(reply) => Ok((reply, waited)),
            Slot::Closed => {
                let thread = self.thread.take().expect("a dead verifier is joined once");
                Err(thread
                    .join()
                    .expect_err("the verifier ends only when its runner drops it"))
            }
            Slot::Empty | Slot::Job(_) => unreachable!("only a reply or a hang-up is taken here"),
        }
    }
}

impl Drop for Verifier {
    fn drop(&mut self) {
        self.handoff.put(Slot::Closed);
        if let Some(thread) = self.thread.take() {
            // A panic payload here belongs to a run that is already unwinding.
            let _ = thread.join();
        }
    }
}

/// Executes test-runs against one simulated system instance.
///
/// The runner owns the simulation; consecutive test-runs share the simulator
/// state that the paper deliberately does not reset (RNG, cumulative coverage,
/// protocol-persistent state), so repeated executions are perturbed
/// differently.
#[derive(Debug)]
pub struct TestRunner {
    host: SimHost,
    config: McVerSiConfig,
    adaptive: AdaptiveCoverage,
    total_test_runs: u64,
    total_cycles: u64,
    /// Spawned on the first iteration that has a successor, joined on drop.
    verifier: Option<Verifier>,
}

impl TestRunner {
    /// Creates a runner for the given configuration and injected bugs; the
    /// checker verifies against `config.model`.
    pub fn new(config: McVerSiConfig, bugs: BugConfig) -> Self {
        let host = SimHost::with_model(config.system.clone(), bugs, config.seed, config.model);
        let adaptive = AdaptiveCoverage::new(config.adaptive);
        TestRunner {
            host,
            adaptive,
            total_test_runs: 0,
            total_cycles: 0,
            config,
            verifier: None,
        }
    }

    /// The framework configuration.
    pub fn config(&self) -> &McVerSiConfig {
        &self.config
    }

    /// Total number of test-runs executed.
    pub fn total_test_runs(&self) -> u64 {
        self.total_test_runs
    }

    /// Total simulated cycles across all test-runs.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Maximum total transition coverage achieved so far (Table 6 metric).
    pub fn total_coverage(&self) -> f64 {
        let system = self.host.system();
        system.coverage().total_coverage(system.coverage_universe())
    }

    /// Access to the underlying host (e.g. for inspecting the system).
    pub fn host(&self) -> &SimHost {
        &self.host
    }

    /// Executes one test-run (Algorithm 2) and evaluates it.
    ///
    /// # Panics
    ///
    /// A panic on the verifier thread resurfaces here with its payload.  A
    /// runner whose `run_test` panicked is left mid-run (as the simulator
    /// always was) and is not to be used again.
    pub fn run_test(&mut self, test: &Test) -> TestRunResult {
        self.total_test_runs += 1;
        let iterations = self.config.testgen.iterations.max(1);
        let mut conflicts = RunConflicts::new();
        let mut verdict = RunVerdict::Passed;
        let mut cycles = 0u64;
        let mut retired_ops = 0usize;
        let mut iterations_run = 0usize;
        // The system as it was before the iteration being simulated, while
        // the verifier checks its predecessor.
        let mut speculating: Option<Mark> = None;

        self.host.barrier_wait_coarse();
        {
            let _span = PHASE_LOWER.span();
            self.host.make_test_thread(test);
        }
        for iteration in 0..iterations {
            self.host.barrier_wait_precise();
            {
                let _span = PHASE_RESET.span();
                self.host.reset_test_mem();
            }
            let outcome = self.host.execute_test();
            // The commit rule: this iteration counts only once its
            // predecessor has been found valid.
            if let Some(mark) = speculating.take() {
                let checked;
                (checked, conflicts) = self.settle(mark);
                if let Verdict::Invalid(v) = checked {
                    verdict = RunVerdict::McmViolation(v);
                    break;
                }
            }
            iterations_run += 1;
            cycles += outcome.cycles;
            retired_ops += outcome.retired_ops;

            // `run_iteration` appends its cycle-budget record after any
            // invalid transition it saw, so the first error decides: the
            // budget record alone is a hang, anything earlier a protocol fault.
            match outcome.protocol_errors.as_slice() {
                [] => {}
                [_budget] if outcome.hung => {
                    SIM_HANG.incr();
                    verdict = RunVerdict::Hang;
                    break;
                }
                [first, ..] => {
                    SIM_FAULT.incr();
                    verdict = RunVerdict::ProtocolFault(first.clone());
                    break;
                }
            }
            if iteration + 1 == iterations {
                if let Verdict::Invalid(v) =
                    verify(self.config.model, &mut conflicts, &outcome.execution)
                {
                    verdict = RunVerdict::McmViolation(v);
                }
            } else {
                let model = self.config.model;
                let verifier = self
                    .verifier
                    .get_or_insert_with(|| Verifier::spawn(model, verify));
                verifier.submit(Job {
                    execution: outcome.execution,
                    conflicts: std::mem::take(&mut conflicts),
                });
                speculating = Some(self.host.system().mark());
            }
        }

        // End of test-run bookkeeping (verify_reset_all): fitness from the
        // run's coverage, NDT analysis from the accumulated conflict orders.
        let fitness_span = PHASE_FITNESS.span();
        let covered = self.host.system_mut().finish_coverage_run();
        let system = self.host.system();
        let universe = system.coverage_universe();
        let fitness = self.adaptive.fitness(&covered, system.coverage(), universe);
        let analysis = conflicts.analyze(test);
        drop(fitness_span);
        self.total_cycles += cycles;

        TestRunResult {
            verdict,
            fitness,
            analysis,
            covered,
            iterations_run,
            cycles,
            retired_ops,
        }
    }

    /// Waits for the verdict on the iteration checked while its successor
    /// ran from `mark`, and drops that successor if the verdict is a
    /// violation.  Returns the verdict and the run's conflict orders.
    fn settle(&mut self, mark: Mark) -> (Verdict, RunConflicts) {
        let verifier = self
            .verifier
            .as_mut()
            .expect("an iteration is being checked");
        let (reply, waited) = verifier.reply().unwrap_or_else(|payload| {
            self.verifier = None;
            std::panic::resume_unwind(payload)
        });
        if reply.verdict.is_violation() {
            self.host.system_mut().rewind(mark);
        }
        // After the rewind, which puts this thread's metrics back to the mark.
        if let Some(metrics) = &reply.metrics {
            telemetry::absorb(metrics);
        }
        PHASE_VERDICT_WAIT.record(waited);
        (reply.verdict, reply.job.conflicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_mcm::Address;
    use mcversi_sim::Bug;
    use mcversi_testgen::litmus;
    use mcversi_testgen::{RandomTestGenerator, TestGenParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_runner(bugs: BugConfig) -> TestRunner {
        let cfg = McVerSiConfig::small().with_iterations(3).with_test_size(32);
        TestRunner::new(cfg, bugs)
    }

    #[test]
    fn random_tests_pass_on_the_correct_design() {
        let mut runner = small_runner(BugConfig::none());
        let params = TestGenParams::small()
            .with_threads(runner.config().system.num_cores)
            .with_test_size(32);
        let gen = RandomTestGenerator::new(params);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let test = gen.generate(&mut rng);
            let result = runner.run_test(&test);
            assert!(
                !result.verdict.is_bug(),
                "correct design flagged: {:?}",
                result.verdict
            );
            assert!(result.iterations_run >= 3);
            assert!(result.analysis.ndt >= 0.0);
            assert!(result.fitness >= 0.0 && result.fitness <= 1.0);
            assert!(!result.covered.is_empty());
        }
        assert_eq!(runner.total_test_runs(), 5);
        assert!(runner.total_cycles() > 0);
        assert!(runner.total_coverage() > 0.0);
    }

    #[test]
    fn litmus_suite_passes_on_the_correct_design() {
        // The correct design must never trip any litmus shape, even when the
        // shapes are repeated within one test (as the diy runner's size
        // parameter effectively does).  Bug-finding ability of the litmus
        // baseline is exercised by the campaign tests and the experiment
        // binaries: as in the paper, litmus tests need far more executions
        // than the GP/random generators to hit a timing window.
        let locations = [Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)];
        let suite = litmus::x86_tso_suite(&locations);
        let shapes: Vec<_> = suite
            .iter()
            .filter(|t| ["MP", "CoRR", "SB", "LB", "WRC", "IRIW"].contains(&t.name.as_str()))
            .map(|t| (t.name.clone(), litmus::repeat_test(&t.test, 12)))
            .collect();

        let mut correct = small_runner(BugConfig::none());
        for (name, test) in &shapes {
            for _ in 0..3 {
                let result = correct.run_test(test);
                assert!(
                    !result.verdict.is_bug(),
                    "correct design failed {}: {:?}",
                    name,
                    result.verdict
                );
            }
        }
    }

    #[test]
    fn random_tests_expose_lq_no_tso() {
        // Table 4: LQ+no-TSO is found almost immediately by every McVerSi
        // generator (0.00–0.08 hours); random generation with a small address
        // range reproduces that here.
        let mut runner = small_runner(BugConfig::single(Bug::LqNoTso));
        let params = TestGenParams::small()
            .with_threads(runner.config().system.num_cores)
            .with_test_size(48);
        let gen = RandomTestGenerator::new(params);
        let mut rng = StdRng::seed_from_u64(17);
        let mut found = false;
        for _ in 0..80 {
            let result = runner.run_test(&gen.generate(&mut rng));
            if result.verdict.is_bug() {
                found = true;
                break;
            }
        }
        assert!(found, "LQ+no-TSO not exposed by random tests");
    }

    #[test]
    fn protocol_fault_is_reported_for_putx_race() {
        // The PUTX race needs replacements; drive it with a flush-heavy test.
        let cfg = McVerSiConfig::small().with_iterations(2).with_test_size(48);
        let mut params = TestGenParams::small()
            .with_threads(cfg.system.num_cores)
            .with_test_size(48);
        params.bias.cache_flush = 30;
        params.bias.write = 50;
        params.bias.read = 20;
        params.bias.read_addr_dp = 0;
        params.bias.read_modify_write = 0;
        params.bias.delay = 0;
        let gen = RandomTestGenerator::new(params);
        let mut runner = TestRunner::new(cfg, BugConfig::single(Bug::MesiPutxRace));
        let mut rng = StdRng::seed_from_u64(11);
        let mut protocol_fault = false;
        for _ in 0..60 {
            let result = runner.run_test(&gen.generate(&mut rng));
            if matches!(result.verdict, RunVerdict::ProtocolFault(_)) {
                protocol_fault = true;
                break;
            }
        }
        assert!(protocol_fault, "PUTX race never triggered a protocol fault");
    }

    // ---- The pipeline against the sequential loop ----

    /// Algorithm 2 one iteration after the other over `HostInterface`, each
    /// execution checked before the next one starts: what `run_test` must
    /// not be told apart from.
    fn sequential_run_test(
        host: &mut SimHost,
        adaptive: &mut AdaptiveCoverage,
        iterations: usize,
        test: &Test,
    ) -> TestRunResult {
        let mut conflicts = RunConflicts::new();
        let mut verdict = RunVerdict::Passed;
        let (mut cycles, mut retired_ops, mut iterations_run) = (0, 0, 0);
        host.barrier_wait_coarse();
        host.make_test_thread(test);
        for _ in 0..iterations {
            host.barrier_wait_precise();
            host.reset_test_mem();
            let outcome = host.execute_test();
            iterations_run += 1;
            cycles += outcome.cycles;
            retired_ops += outcome.retired_ops;
            match outcome.protocol_errors.as_slice() {
                [] => {}
                [_budget] if outcome.hung => {
                    SIM_HANG.incr();
                    verdict = RunVerdict::Hang;
                    break;
                }
                [first, ..] => {
                    SIM_FAULT.incr();
                    verdict = RunVerdict::ProtocolFault(first.clone());
                    break;
                }
            }
            conflicts.add_iteration(&outcome.execution);
            if let Verdict::Invalid(v) = host.verify_reset_conflict(&outcome) {
                verdict = RunVerdict::McmViolation(v);
                break;
            }
        }
        let covered = host.system_mut().finish_coverage_run();
        let universe = host.system().coverage_universe().to_vec();
        let fitness = adaptive.fitness(&covered, host.system().coverage(), &universe);
        TestRunResult {
            verdict,
            fitness,
            analysis: conflicts.analyze(test),
            covered,
            iterations_run,
            cycles,
            retired_ops,
        }
    }

    /// A pipelined runner and the sequential loop, on twin systems.
    struct Twins {
        runner: TestRunner,
        host: SimHost,
        adaptive: AdaptiveCoverage,
    }

    impl Twins {
        fn new(config: McVerSiConfig, bugs: BugConfig) -> Self {
            let host = SimHost::with_model(
                config.system.clone(),
                bugs.clone(),
                config.seed,
                config.model,
            );
            Twins {
                adaptive: AdaptiveCoverage::new(config.adaptive),
                runner: TestRunner::new(config, bugs),
                host,
            }
        }

        /// Runs `test` on both and asserts that nothing tells them apart:
        /// the result, the deterministic telemetry (on, in every test that
        /// uses twins) and the host.
        fn run(&mut self, test: &Test, what: &str) -> TestRunResult {
            let iterations = self.runner.config.testgen.iterations.max(1);
            telemetry::reset_local();
            let want = sequential_run_test(&mut self.host, &mut self.adaptive, iterations, test);
            let want_metrics = telemetry::local_snapshot();
            telemetry::reset_local();
            let got = self.runner.run_test(test);
            let got_metrics = telemetry::local_snapshot();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: result");
            assert_eq!(
                got_metrics.deterministic_part(),
                want_metrics.deterministic_part(),
                "{what}: telemetry"
            );
            let counted = |name| got_metrics.counters.get(name).copied().unwrap_or(0);
            let faulted = matches!(got.verdict, RunVerdict::ProtocolFault(_));
            assert_eq!(counted("sim.fault"), u64::from(faulted), "{what}");
            let hung = got.verdict == RunVerdict::Hang;
            assert_eq!(counted("sim.hang"), u64::from(hung), "{what}");
            // The next test-run starts with a reset of the test memory; the
            // rewind of a dropped iteration has done it already.
            self.host.reset_test_mem();
            self.runner.host.reset_test_mem();
            assert_eq!(
                format!("{:?}", self.runner.host),
                format!("{:?}", self.host),
                "{what}: host"
            );
            got
        }
    }

    /// A small random-test configuration for `protocol`, `strength` and
    /// `model`, with enough flushes and writes to provoke protocol races.
    fn grid_config(
        protocol: mcversi_sim::ProtocolKind,
        strength: mcversi_sim::CoreStrength,
        model: ModelKind,
        iterations: usize,
        seed: u64,
    ) -> McVerSiConfig {
        let mut cfg = McVerSiConfig::small()
            .retarget(model)
            .with_iterations(iterations)
            .with_test_size(24)
            .with_seed(seed);
        cfg.system.protocol = protocol;
        cfg.system.core_strength = strength;
        cfg.testgen.bias.cache_flush = 10;
        cfg
    }

    /// What the tests drive the twins with.
    fn generator(cfg: &McVerSiConfig) -> RandomTestGenerator {
        RandomTestGenerator::new(cfg.testgen.clone())
    }

    /// Every iteration that follows another one is simulated while its
    /// predecessor is checked, and dropped when that one fails: on every
    /// design, with and without each injected bug, at 1, 2 and 4 iterations,
    /// the pipelined runner reads exactly like the sequential loop.
    #[test]
    fn the_pipelined_runner_matches_the_sequential_loop_over_the_design_grid() {
        use mcversi_sim::{CoreStrength, ProtocolKind};
        telemetry::enable();
        let mut rewound = 0;
        for protocol in [ProtocolKind::Mesi, ProtocolKind::TsoCc] {
            for (strength, model) in [
                (CoreStrength::Strong, ModelKind::Tso),
                (CoreStrength::Relaxed, ModelKind::Tso),
                (CoreStrength::Relaxed, ModelKind::Armish),
            ] {
                let bug_sets = std::iter::once(BugConfig::none())
                    .chain(Bug::ALL_EXTENDED.into_iter().map(BugConfig::single));
                for bugs in bug_sets {
                    for iterations in [1, 2, 4] {
                        for seed in [1, 2] {
                            let cfg = grid_config(protocol, strength, model, iterations, seed);
                            let gen = generator(&cfg);
                            let mut rng = StdRng::seed_from_u64(seed);
                            let mut twins = Twins::new(cfg, bugs.clone());
                            for run in 0..2 {
                                let what = format!(
                                    "{protocol:?}/{strength:?}/{model}/{bugs:?} \
                                     {iterations} iterations, seed {seed}, run {run}"
                                );
                                let result = twins.run(&gen.generate(&mut rng), &what);
                                if matches!(result.verdict, RunVerdict::McmViolation(_))
                                    && result.iterations_run < iterations
                                {
                                    rewound += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(rewound > 0, "no dropped iteration in the grid");
    }

    /// Whether the iteration the pipelined runner dropped after a violation
    /// faulted.  The sequential side stopped where that iteration started,
    /// so running one more iteration there reproduces it — after which the
    /// twins are no longer twins.
    fn dropped_iteration_faults(mut twins: Twins) -> bool {
        twins.host.reset_test_mem();
        !twins.host.execute_test().protocol_errors.is_empty()
    }

    /// Violations at the first, second, second-to-last and last iteration,
    /// and a protocol fault in an iteration simulated while its predecessor
    /// awaited its verdict — once a valid predecessor (the fault stands),
    /// once an invalid one (the violation stands, the fault never happened).
    /// The relaxed core breaks TSO often enough to find each case within a
    /// few dozen test-runs; the PUTX race brings the faults.
    #[test]
    fn directed_violations_and_faults_around_a_pending_verdict() {
        use mcversi_sim::{CoreStrength, ProtocolKind};
        telemetry::enable();
        let iterations = 5;
        let mut violated_at = BTreeSet::new();
        let (mut fault_after_valid, mut fault_after_invalid) = (false, false);
        for seed in 0..100 {
            if violated_at.len() == 4 && fault_after_valid && fault_after_invalid {
                break;
            }
            let cfg = grid_config(
                ProtocolKind::Mesi,
                CoreStrength::Relaxed,
                ModelKind::Tso,
                iterations,
                seed,
            )
            .with_test_size(32);
            let gen = generator(&cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut twins = Twins::new(cfg, BugConfig::single(Bug::MesiPutxRace));
            for run in 0..12 {
                let what = format!("seed {seed} run {run}");
                let result = twins.run(&gen.generate(&mut rng), &what);
                let last = result.iterations_run - 1;
                match result.verdict {
                    RunVerdict::McmViolation(_) if last + 1 == iterations => {
                        violated_at.insert(last);
                    }
                    RunVerdict::McmViolation(_) => {
                        if [0, 1, iterations - 2].contains(&last) {
                            violated_at.insert(last);
                        }
                        fault_after_invalid |= dropped_iteration_faults(twins);
                        break;
                    }
                    RunVerdict::ProtocolFault(_) if last > 0 => fault_after_valid = true,
                    _ => {}
                }
            }
        }
        assert_eq!(
            violated_at,
            BTreeSet::from([0, 1, iterations - 2, iterations - 1]),
            "first violations found"
        );
        assert!(fault_after_valid, "no fault after a valid predecessor");
        assert!(fault_after_invalid, "no fault after an invalid predecessor");
    }

    /// The verdict of the test below: a panic with a `String` payload.
    fn verify_panics(_: ModelKind, _: &mut RunConflicts, _: &CandidateExecution) -> Verdict {
        std::panic::panic_any("verifier failed on a check".to_string())
    }

    #[test]
    fn a_panic_on_the_verifier_resurfaces_with_its_payload() {
        // A verifier that has already died on a job of its own, so that the
        // run's first hand-off finds the thread gone rather than racing it.
        let mut runner = small_runner(BugConfig::none());
        let verifier = Verifier::spawn(runner.config.model, verify_panics);
        verifier.submit(Job {
            execution: mcversi_mcm::execution::ExecutionBuilder::new().build(),
            conflicts: RunConflicts::new(),
        });
        let mut slot = verifier.handoff.lock();
        while !matches!(*slot, Slot::Closed) {
            slot = verifier.handoff.changed.wait(slot).expect("not poisoned");
        }
        drop(slot);
        runner.verifier = Some(verifier);
        let params = runner.config.testgen.clone();
        let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(3));
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run_test(&test)))
                .expect_err("the verifier's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("verifier failed on a check")
        );
        // What a campaign sample reports as `SampleOutcome::Panicked`.
        assert_eq!(
            crate::campaign::panic_message(payload),
            "verifier failed on a check"
        );
        // The dead thread has been joined.
        assert!(runner.verifier.is_none());
    }

    #[test]
    fn a_hang_is_counted_as_in_the_sequential_loop() {
        telemetry::enable();
        let mut cfg = McVerSiConfig::small().with_iterations(3).with_test_size(16);
        cfg.system.max_cycles_per_iteration = 10;
        let test = generator(&cfg).generate(&mut StdRng::seed_from_u64(1));
        let mut twins = Twins::new(cfg, BugConfig::none());
        let result = twins.run(&test, "hang");
        assert_eq!(result.verdict, RunVerdict::Hang);
        assert_eq!(result.iterations_run, 1);
    }
}
