//! The guest–host interface (paper Table 1).
//!
//! In the paper, a minimal *guest workload* runs inside the simulated system
//! and drives the generate–execute–verify–reset cycle; the listed functions
//! are implemented either inside the guest or — for speed — with host
//! assistance.  In this reproduction the "guest" is the set of simulated
//! cores executing a [`TestProgram`] and the "host" is the [`System`] object
//! itself, so every function is host-assisted (the configuration the paper
//! found mandatory for very short tests).  The trait keeps the interface
//! explicit so the correspondence with Table 1 and Algorithm 2 is visible,
//! and so alternative simulators could be slotted in behind it.

use crate::lowering::lower;
use mcversi_mcm::checker::{Checker, Verdict};
use mcversi_mcm::{Address, CandidateExecution, ModelKind};
use mcversi_sim::{BugConfig, IterationOutcome, System, TestProgram};
use mcversi_telemetry as telemetry;
use mcversi_testgen::Test;

/// Executions the checker rejected as malformed — an observer bug, not a
/// consistency violation — and the host therefore reported as `Valid`.
static MALFORMED_EXECUTIONS: telemetry::Counter =
    telemetry::Counter::new("mcm.malformed_executions");

/// The functions the simulation host provides to the guest workload
/// (paper Table 1).
pub trait HostInterface {
    /// Coarse barrier: threads need not be precisely synchronised.
    fn barrier_wait_coarse(&mut self);

    /// Precise (host-assisted) barrier: on return all threads start the test
    /// in lock step.  The paper found host assistance mandatory here.
    fn barrier_wait_precise(&mut self);

    /// The host writes the code for the current test of every thread
    /// (on-the-fly code emission).
    fn make_test_thread(&mut self, test: &Test);

    /// Declares the test generator's usable address range.
    fn mark_test_mem_range(&mut self, start: Address, end: Address);

    /// Resets (writes initial values to) the locations used by the test and
    /// flushes cache lines and other structures affecting following
    /// executions.
    fn reset_test_mem(&mut self);

    /// Executes the staged test once (one iteration).  This stands in for the
    /// guest's `execute code` step between the barriers in Algorithm 2.
    fn execute_test(&mut self) -> IterationOutcome;

    /// Verifies the last execution against the target MCM and clears only the
    /// conflict orders of the candidate execution object (between iterations
    /// of one test-run).
    fn verify_reset_conflict(&mut self, outcome: &IterationOutcome) -> Verdict;

    /// Verifies the last execution, clears the entire candidate execution
    /// object and sets up for the next test (end of a test-run).
    fn verify_reset_all(&mut self, outcome: &IterationOutcome) -> Verdict;
}

/// The host implementation backed by the cycle-level simulator.
#[derive(Debug)]
pub struct SimHost {
    system: System,
    staged: Option<TestProgram>,
    test_mem_range: Option<(Address, Address)>,
    model: ModelKind,
}

impl SimHost {
    /// Creates a host around a freshly constructed system, verifying
    /// executions against the given target model.
    pub fn with_model(
        cfg: mcversi_sim::SystemConfig,
        bugs: BugConfig,
        seed: u64,
        model: ModelKind,
    ) -> Self {
        SimHost {
            system: System::new(cfg, bugs, seed),
            staged: None,
            test_mem_range: None,
            model,
        }
    }

    /// The target consistency model this host checks against.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The pipeline strength of the simulated cores behind this host.
    pub fn core_strength(&self) -> mcversi_sim::CoreStrength {
        self.system.config().core_strength
    }

    /// Access to the underlying system (coverage, statistics).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The declared test memory range, if any.
    pub fn test_mem_range(&self) -> Option<(Address, Address)> {
        self.test_mem_range
    }

    /// Checks a single recorded execution against the target model.  A
    /// malformed execution is vacuously valid — it says nothing about the
    /// design under test — but is counted in `mcm.malformed_executions`, so
    /// that an observer bug does not read as a pass.
    pub fn check_execution(&self, exec: &CandidateExecution) -> Verdict {
        check_execution(self.model, exec)
    }
}

/// [`SimHost::check_execution`] against `model`, for a thread that has no
/// host.
pub(crate) fn check_execution(model: ModelKind, exec: &CandidateExecution) -> Verdict {
    Checker::new(model.instance())
        .try_check(exec)
        .unwrap_or_else(|_malformed| {
            MALFORMED_EXECUTIONS.incr();
            Verdict::Valid
        })
}

impl HostInterface for SimHost {
    fn barrier_wait_coarse(&mut self) {
        // All simulated threads are stepped by the same clock, so the coarse
        // barrier has nothing to do.
    }

    fn barrier_wait_precise(&mut self) {
        // Host-assisted precise barrier: `execute_test` starts all threads at
        // cycle 0 of the iteration, which is exactly the lock-step start the
        // paper's host barrier provides.
    }

    fn make_test_thread(&mut self, test: &Test) {
        self.staged = Some(lower(test));
    }

    fn mark_test_mem_range(&mut self, start: Address, end: Address) {
        self.test_mem_range = Some((start, end));
    }

    fn reset_test_mem(&mut self) {
        self.system.reset_test_state();
    }

    fn execute_test(&mut self) -> IterationOutcome {
        let program = self
            .staged
            .as_ref()
            .expect("make_test_thread must be called before execute_test");
        self.system.run_iteration(program)
    }

    fn verify_reset_conflict(&mut self, outcome: &IterationOutcome) -> Verdict {
        // The per-iteration execution object is already a fresh object per
        // iteration in this implementation, so "clearing conflict orders"
        // amounts to simply dropping it after checking.
        self.check_execution(&outcome.execution)
    }

    fn verify_reset_all(&mut self, outcome: &IterationOutcome) -> Verdict {
        self.check_execution(&outcome.execution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::McVerSiConfig;
    use mcversi_testgen::{RandomTestGenerator, TestGenParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn host_executes_staged_tests_and_verifies_them() {
        let cfg = McVerSiConfig::small();
        let mut host = SimHost::with_model(cfg.system.clone(), BugConfig::none(), 3, cfg.model);
        let params = TestGenParams::small().with_threads(cfg.system.num_cores);
        let test = RandomTestGenerator::new(params.clone()).generate(&mut StdRng::seed_from_u64(1));
        host.mark_test_mem_range(
            params.offset_to_address(0),
            params.offset_to_address(params.test_memory_bytes - params.stride_bytes),
        );
        assert!(host.test_mem_range().is_some());
        host.barrier_wait_coarse();
        host.make_test_thread(&test);
        host.barrier_wait_precise();
        let outcome = host.execute_test();
        assert!(outcome.complete, "{outcome:?}");
        let verdict = host.verify_reset_conflict(&outcome);
        assert!(verdict.is_valid());
        host.reset_test_mem();
        let outcome2 = host.execute_test();
        assert!(host.verify_reset_all(&outcome2).is_valid());
        assert!(host.system().coverage().distinct_covered() > 0);
    }

    /// A hand-broken execution — a read whose reads-from edge is gone — is
    /// still reported `Valid`, but no longer silently.
    #[test]
    fn malformed_executions_stay_valid_and_are_counted() {
        use mcversi_mcm::execution::ExecutionBuilder;
        use mcversi_mcm::{ProcessorId, Relation, Value};

        let mut b = ExecutionBuilder::new();
        let w = b.write(ProcessorId(0), Address(0x100), Value(1));
        let r = b.read(ProcessorId(1), Address(0x100), Value(1));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let sound = b.build();
        let broken = CandidateExecution::from_parts(
            sound.events().to_vec(),
            sound.po().clone(),
            Relation::new(),
            sound.co_observed().clone(),
        );
        assert!(broken.validate().is_err());

        let cfg = McVerSiConfig::small();
        let mut host = SimHost::with_model(cfg.system, BugConfig::none(), 3, cfg.model);
        let malformed = || {
            telemetry::local_snapshot()
                .counters
                .get("mcm.malformed_executions")
                .copied()
                .unwrap_or(0)
        };
        telemetry::enable();
        telemetry::reset_local();
        assert!(host.check_execution(&sound).is_valid());
        assert_eq!(malformed(), 0);
        assert!(host.check_execution(&broken).is_valid());
        assert_eq!(malformed(), 1);
        let outcome = IterationOutcome {
            execution: broken,
            protocol_errors: Vec::new(),
            hung: false,
            complete: true,
            cycles: 0,
            retired_ops: 0,
        };
        assert!(host.verify_reset_conflict(&outcome).is_valid());
        assert!(host.verify_reset_all(&outcome).is_valid());
        assert_eq!(malformed(), 3);
    }

    #[test]
    #[should_panic(expected = "make_test_thread")]
    fn executing_without_staging_panics() {
        let cfg = McVerSiConfig::small();
        let mut host = SimHost::with_model(cfg.system, BugConfig::none(), 3, cfg.model);
        host.execute_test();
    }
}
