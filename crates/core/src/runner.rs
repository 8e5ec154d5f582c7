//! The test-run executor (the guest workload kernel, Algorithm 2).
//!
//! A *test-run* executes one test for several iterations.  Per iteration the
//! runner resets the test memory, executes the staged code on all threads in
//! lock step, verifies the observed candidate execution against the target
//! MCM (x86-TSO by default; any [`ModelKind`](mcversi_mcm::ModelKind) via
//! [`McVerSiConfig::model`]) and accumulates the conflict orders for the NDT
//! analysis.
//! After the last iteration the per-run coverage is turned into the adaptive
//! fitness.  The correspondence with Algorithm 2 is one-to-one:
//!
//! | Algorithm 2                      | Runner                                   |
//! |----------------------------------|------------------------------------------|
//! | `barrier_wait_coarse()`          | [`HostInterface::barrier_wait_coarse`]   |
//! | `make_test_thread(code)`         | [`HostInterface::make_test_thread`]      |
//! | `barrier_wait_precise(); execute`| [`HostInterface::execute_test`]          |
//! | `verify_reset_conflict()`        | per-iteration check + conflict recording |
//! | `reset_test_mem()`               | [`HostInterface::reset_test_mem`]        |
//! | `verify_reset_all()`             | final check + fitness evaluation         |

use crate::config::McVerSiConfig;
use crate::coverage::AdaptiveCoverage;
use crate::host::{HostInterface, SimHost};
use mcversi_mcm::checker::Verdict;
use mcversi_mcm::Violation;
use mcversi_sim::{BugConfig, ProtocolError, Transition};
use mcversi_telemetry as telemetry;
use mcversi_testgen::{NdtAnalysis, RunConflicts, Test};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeSet;

/// Phase timer: lowering the test into its executable program.
static PHASE_LOWER: telemetry::Timer = telemetry::Timer::new("phase.lower");
/// Phase timer: resetting the test memory between iterations.
static PHASE_RESET: telemetry::Timer = telemetry::Timer::new("phase.reset");
/// Phase timer: the per-iteration MCM check (`verify_reset_conflict`).
static PHASE_CHECK: telemetry::Timer = telemetry::Timer::new("phase.check");
/// Phase timer: end-of-run fitness evaluation and NDT analysis.
static PHASE_FITNESS: telemetry::Timer = telemetry::Timer::new("phase.fitness");

/// How the runner verifies observed executions against the target MCM.
///
/// Every iteration's execution is checked as it is observed (the paper's
/// Algorithm 2 flow); this is the only mode.  The type survives for two
/// reasons: `ScenarioSpec.checking` keeps its key, so the canonical spec
/// JSON — and with it every `cell_id` and journal key — stays byte-identical,
/// and the benchmark package's workload tests read that field.  The
/// `collective` and `vc` modes were removed; specs naming them are rejected.
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
        let universe = self.host.system().coverage_universe().to_vec();
        self.host.system().coverage().total_coverage(&universe)
    }

    /// Access to the underlying host (e.g. for inspecting the system).
    pub fn host(&self) -> &SimHost {
        &self.host
    }

    /// Executes one test-run (Algorithm 2) and evaluates it.
    pub fn run_test(&mut self, test: &Test) -> TestRunResult {
        self.total_test_runs += 1;
        let iterations = self.config.testgen.iterations.max(1);
        let mut conflicts = RunConflicts::new();
        let mut verdict = RunVerdict::Passed;
        let mut cycles = 0u64;
        let mut retired_ops = 0usize;
        let mut iterations_run = 0usize;

        self.host.barrier_wait_coarse();
        {
            let _span = PHASE_LOWER.span();
            self.host.make_test_thread(test);
        }
        for _ in 0..iterations {
            self.host.barrier_wait_precise();
            {
                let _span = PHASE_RESET.span();
                self.host.reset_test_mem();
            }
            let outcome = self.host.execute_test();
            iterations_run += 1;
            cycles += outcome.cycles;
            retired_ops += outcome.retired_ops;

            // `run_iteration` appends its cycle-budget record after any
            // invalid transition it saw, so the first error decides: the
            // budget record alone is a hang, anything earlier a protocol fault.
            match outcome.protocol_errors.as_slice() {
                [] => {}
                [_budget] if outcome.hung => {
                    verdict = RunVerdict::Hang;
                    break;
                }
                [first, ..] => {
                    verdict = RunVerdict::ProtocolFault(first.clone());
                    break;
                }
            }
            conflicts.add_iteration(&outcome.execution);
            let _span = PHASE_CHECK.span();
            if let Verdict::Invalid(v) = self.host.verify_reset_conflict(&outcome) {
                verdict = RunVerdict::McmViolation(v);
                break;
            }
        }

        // End of test-run bookkeeping (verify_reset_all): fitness from the
        // run's coverage, NDT analysis from the accumulated conflict orders.
        let fitness_span = PHASE_FITNESS.span();
        let covered = self.host.system_mut().finish_coverage_run();
        let universe = self.host.system().coverage_universe().to_vec();
        let fitness = self
            .adaptive
            .fitness(&covered, self.host.system().coverage(), &universe);
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let suite = litmus::default_suite();
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
}
