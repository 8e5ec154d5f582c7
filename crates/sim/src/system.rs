//! The full simulated system: cores, L1s, L2 banks, memory, network.
//!
//! [`System`] owns every component and advances them in lock step, one cycle
//! at a time.  One call to [`System::run_iteration`] executes a complete
//! [`TestProgram`] once (one iteration of a test-run in the paper's
//! terminology) and returns the observed [`CandidateExecution`], any protocol
//! errors, and whether the iteration hung.  The host-assisted reset between
//! iterations (paper Table 1, `reset_test_mem`) is implemented by
//! [`System::reset_test_state`]: caches and the network are cleared and the
//! test memory re-zeroed, while simulation-persistent state (RNG, coverage
//! counts, TSO-CC timestamps) is retained so consecutive executions of the
//! same test are perturbed differently (§5.1).
//!
//! In most simulated cycles most components have nothing to do: every
//! message is in flight or waiting out a latency, and a core or controller
//! that re-evaluates the same blocked head-of-line work gets the same result.
//! A component whose tick left it nothing it can do, or only work that
//! cannot proceed, is therefore put to *sleep* and not ticked again until
//! something can change its answer: a message or a core request pushed to
//! it, a response or notice from its L1, or its own deadline.  Its skipped
//! ticks would have done nothing, coverage records included (a transition is
//! recorded when it is taken, not when it is tried), so a sleeping component
//! owes nothing; when nobody is awake the loop jumps straight to the
//! earliest wake time.  Outcomes, coverage counts, the RNG stream and
//! telemetry counters are exactly those of ticking every component every
//! cycle (`ARCHITECTURE.md`, "The simulation loop and the inertness
//! contract").

use crate::bugs::BugConfig;
use crate::config::{ProtocolKind, SystemConfig};
use crate::core::{cores_for_program, CoreModel};
use crate::coverage::{CoverageMark, CoverageRecorder, Transition};
use crate::memory::MemoryController;
use crate::msg::Msg;
use crate::network::Network;
use crate::observer::ExecObserver;
use crate::program::TestProgram;
use crate::protocol::{mesi, tsocc, L1Controller, L1Output, L2Controller, TickCtx};
use crate::types::{Cycle, LineAddr};
use mcversi_mcm::execution::CandidateExecution;
use mcversi_telemetry::{self as telemetry, LocalMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeSet;
use std::fmt;

/// Phase timer: the cycle-by-cycle simulation loop of one iteration.
static PHASE_SIMULATE: telemetry::Timer = telemetry::Timer::new("phase.simulate");
/// Phase timer: assembling the candidate execution from the observer.
static PHASE_OBSERVE: telemetry::Timer = telemetry::Timer::new("phase.observe");
/// Simulated cycles per iteration (distribution), skipped ones included.
static ITERATION_CYCLES: telemetry::Histogram = telemetry::Histogram::new("sim.iteration.cycles");
/// Fast-forward jumps taken (each skips one run of cycles nobody is awake in).
static FF_SEGMENTS: telemetry::Counter = telemetry::Counter::new("sim.ff.segments");
/// Simulated cycles skipped as a whole rather than stepped through.
static FF_SKIPPED_CYCLES: telemetry::Counter = telemetry::Counter::new("sim.ff.skipped_cycles");
/// Length of each fast-forward jump in cycles (distribution).
static FF_SKIP_LEN: telemetry::Histogram = telemetry::Histogram::new("sim.ff.skip_len");
/// Component ticks executed.
static FF_COMPONENT_TICKS: telemetry::Counter = telemetry::Counter::new("sim.ff.component_ticks");
/// Component ticks executed, by kind of component (they add up to
/// `sim.ff.component_ticks`).
static FF_MEMORY_TICKS: telemetry::Counter =
    telemetry::Counter::new("sim.ff.component_ticks.memory");
static FF_L2_TICKS: telemetry::Counter = telemetry::Counter::new("sim.ff.component_ticks.l2");
static FF_L1_TICKS: telemetry::Counter = telemetry::Counter::new("sim.ff.component_ticks.l1");
static FF_CORE_TICKS: telemetry::Counter = telemetry::Counter::new("sim.ff.component_ticks.core");
/// Component ticks avoided: slept through, which owes nothing.
static FF_COMPONENT_NAPS: telemetry::Counter = telemetry::Counter::new("sim.ff.component_naps");

/// A protocol-level error detected by the simulator's monitor (the analogue of
/// Ruby aborting on an invalid transition).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolError {
    /// Cycle at which the error was detected.
    pub cycle: Cycle,
    /// Which controller detected it (e.g. `"L2[3]"`).
    pub controller: String,
    /// The line involved.
    pub line: LineAddr,
    /// The state the controller was in.
    pub state: String,
    /// The event that had no legal transition.
    pub event: String,
}

impl ProtocolError {
    /// Creates an invalid-transition error.
    pub fn invalid_transition(
        cycle: Cycle,
        controller: String,
        line: LineAddr,
        state: &str,
        event: &str,
    ) -> Self {
        ProtocolError {
            cycle,
            controller,
            line,
            state: state.to_string(),
            event: event.to_string(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {} has no transition for {} in state {} (line {})",
            self.cycle, self.controller, self.event, self.state, self.line
        )
    }
}

impl std::error::Error for ProtocolError {}

/// The outcome of one test iteration.
#[derive(Debug)]
pub struct IterationOutcome {
    /// The recorded candidate execution (partial if the iteration hung).
    pub execution: CandidateExecution,
    /// Invalid transitions detected during the iteration, which ends in the
    /// cycle of the first.
    pub protocol_errors: Vec<ProtocolError>,
    /// `true` if the iteration ran out of its cycle budget without a
    /// protocol error; a hang is this flag only, never an error record.
    pub hung: bool,
    /// `true` if every memory operation completed and was observed.
    pub complete: bool,
    /// Number of cycles the iteration took.
    pub cycles: Cycle,
    /// Number of operations retired during the iteration.
    pub retired_ops: usize,
}

/// Everything a [`System`] keeps across [`System::reset_test_state`], as it
/// was when [`System::mark`] copied it; [`System::rewind`] puts it back.
#[derive(Debug)]
pub struct Mark {
    rng: StdRng,
    cycle: Cycle,
    total_instructions: u64,
    coverage: CoverageMark,
    l1s: Vec<Box<dyn Any>>,
    metrics: Option<LocalMetrics>,
}

/// The full simulated system.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    bugs: BugConfig,
    l1s: Vec<Box<dyn L1Controller>>,
    l2s: Vec<Box<dyn L2Controller>>,
    memory: MemoryController,
    network: Network,
    coverage: CoverageRecorder,
    rng: StdRng,
    cycle: Cycle,
    total_instructions: u64,
    coverage_universe: Vec<Transition>,
    /// What was built for the last program run, reused when the same program
    /// runs again (the common case: every iteration of a test-run).
    program_cache: Option<ProgramState>,
    /// Whether nothing has run since the last
    /// [`reset_test_state`](Self::reset_test_state), so that another one
    /// has nothing to do (the host resets before every iteration, and so
    /// does [`run_iteration`](Self::run_iteration)).
    test_state_reset: bool,
    /// Per-cycle buffers, owned here so executed cycles reuse them.
    msgs: Vec<Msg>,
    l1_outs: Vec<L1Output>,
    naps: Naps,
    /// Whether a component that has nothing to do sleeps.  Always on; only
    /// the lockstep tests of this module turn it off, to obtain the reference
    /// that ticks every component every cycle.
    components_sleep: bool,
}

/// `wake_at` of a component that is awake: its next tick is executed.
const AWAKE: Cycle = 0;
/// `wake_at` of a sleeping component that has no deadline of its own.
const NEVER: Cycle = Cycle::MAX;

/// Component ticks executed, by kind of component.
#[derive(Debug, Default, Clone, Copy)]
struct Ticks {
    memory: u64,
    l2: u64,
    l1: u64,
    core: u64,
}

impl Ticks {
    fn total(&self) -> u64 {
        self.memory + self.l2 + self.l1 + self.core
    }
}

/// Who sleeps and until when: the `wake_at` of every component, the earliest
/// cycle whose tick must be executed.  That is [`AWAKE`] after a tick that
/// leaves a controller busy or a core not quiescent, and whenever something
/// is pushed to a controller; after any other tick it is the component's
/// deadline (a controller's `next_release`, a core's `next_delay_expiry`) or
/// [`NEVER`].  A response or notice in an L1's output wakes its core without
/// going through here.
#[derive(Debug)]
struct Naps {
    memory: Cycle,
    l2s: Vec<Cycle>,
    l1s: Vec<Cycle>,
    cores: Vec<Cycle>,
    /// Component ticks executed in the current iteration.
    ticks: Ticks,
}

impl Naps {
    fn new(cfg: &SystemConfig) -> Self {
        Naps {
            memory: AWAKE,
            l2s: vec![AWAKE; cfg.l2_banks],
            l1s: vec![AWAKE; cfg.num_cores],
            cores: vec![AWAKE; cfg.num_cores],
            ticks: Ticks::default(),
        }
    }

    fn components(&self) -> usize {
        1 + self.l2s.len() + self.l1s.len() + self.cores.len()
    }

    /// Wakes every component.
    fn wake_all(&mut self) {
        self.memory = AWAKE;
        self.l2s.fill(AWAKE);
        self.l1s.fill(AWAKE);
        self.cores.fill(AWAKE);
        self.ticks = Ticks::default();
    }

    /// The earliest cycle in which some component's tick must be executed.
    fn earliest_wake(&self) -> Cycle {
        [&self.l2s, &self.l1s, &self.cores]
            .into_iter()
            .flatten()
            .copied()
            .fold(self.memory, Cycle::min)
    }
}

/// `wake_at` after a tick: awake if it must tick again, else asleep until
/// `deadline`.
fn wake_after(awake: bool, deadline: impl FnOnce() -> Option<Cycle>) -> Cycle {
    if awake {
        AWAKE
    } else {
        deadline().unwrap_or(NEVER)
    }
}

/// Everything derived from a test program alone.  Validating the program and
/// building this costs a clone of every thread and the observer's static
/// event set, so it is kept alongside a copy of the program: reuse then costs
/// one comparison and a reset.
#[derive(Debug)]
struct ProgramState {
    program: TestProgram,
    observer: ExecObserver,
    cores: Vec<CoreModel>,
}

impl System {
    /// Builds a system with the given configuration, injected bugs and RNG
    /// seed.
    pub fn new(cfg: SystemConfig, bugs: BugConfig, seed: u64) -> Self {
        let l1s: Vec<Box<dyn L1Controller>> = (0..cfg.num_cores)
            .map(|c| match cfg.protocol {
                ProtocolKind::Mesi => Box::new(mesi::MesiL1::new(c, &cfg)) as Box<dyn L1Controller>,
                ProtocolKind::TsoCc => {
                    Box::new(tsocc::TsoCcL1::new(c, &cfg)) as Box<dyn L1Controller>
                }
            })
            .collect();
        let l2s: Vec<Box<dyn L2Controller>> = (0..cfg.l2_banks)
            .map(|b| match cfg.protocol {
                ProtocolKind::Mesi => Box::new(mesi::MesiL2::new(b, &cfg)) as Box<dyn L2Controller>,
                ProtocolKind::TsoCc => {
                    Box::new(tsocc::TsoCcL2::new(b, &cfg)) as Box<dyn L2Controller>
                }
            })
            .collect();
        let memory = MemoryController::new(&cfg);
        let coverage_universe = match cfg.protocol {
            ProtocolKind::Mesi => mesi::all_transitions(),
            ProtocolKind::TsoCc => tsocc::all_transitions(),
        };
        System {
            bugs,
            l1s,
            l2s,
            memory,
            network: Network::new(&cfg),
            coverage: CoverageRecorder::new(),
            rng: StdRng::seed_from_u64(seed),
            cycle: 0,
            total_instructions: 0,
            coverage_universe,
            program_cache: None,
            test_state_reset: false,
            msgs: Vec::new(),
            l1_outs: (0..cfg.num_cores).map(|_| L1Output::default()).collect(),
            naps: Naps::new(&cfg),
            components_sleep: true,
            cfg,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The injected bugs.
    pub fn bugs(&self) -> &BugConfig {
        &self.bugs
    }

    /// The coverage recorder (cumulative since system construction).
    pub fn coverage(&self) -> &CoverageRecorder {
        &self.coverage
    }

    /// Ends the current test-run for coverage purposes and returns the set of
    /// transitions it covered (the fitness signal).
    pub fn finish_coverage_run(&mut self) -> BTreeSet<Transition> {
        self.coverage.finish_run()
    }

    /// The coverage universe (all transitions defined by the active protocol).
    pub fn coverage_universe(&self) -> &[Transition] {
        &self.coverage_universe
    }

    /// The current global cycle count.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Total instructions (test operations) retired since construction.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Host-assisted reset between test executions: drop all cached lines and
    /// in-flight messages and zero the memory.  Coverage, the RNG and other
    /// simulation-persistent state are retained ([`System::mark`] lists it).
    /// Every component is awake afterwards, and the cores and observer of the
    /// last program are back at its start.
    pub fn reset_test_state(&mut self) {
        if self.test_state_reset {
            return;
        }
        self.test_state_reset = true;
        for l1 in &mut self.l1s {
            l1.hard_reset();
        }
        for l2 in &mut self.l2s {
            l2.hard_reset();
        }
        self.network.clear();
        self.memory.reset();
        self.naps.wake_all();
        if let Some(state) = &mut self.program_cache {
            state.observer.reset();
            state.cores.iter_mut().for_each(CoreModel::reset);
        }
    }

    /// Copies everything [`reset_test_state`](Self::reset_test_state) keeps:
    /// the RNG, the global cycle and instruction count, the coverage counts
    /// and per-run bits, the L1s' architectural state (TSO-CC's timestamps,
    /// epoch and last-seen table) and, while telemetry is on, this thread's
    /// metrics.  What the system does after the mark can then be undone by
    /// [`rewind`](Self::rewind).
    pub fn mark(&self) -> Mark {
        Mark {
            rng: self.rng.clone(),
            cycle: self.cycle,
            total_instructions: self.total_instructions,
            coverage: self.coverage.mark(),
            l1s: self.l1s.iter().map(|l1| l1.save()).collect(),
            metrics: telemetry::enabled().then(telemetry::local_metrics),
        }
    }

    /// Undoes everything since `mark` was taken: what the mark copied is put
    /// back, then the test state is reset.  The system is then exactly as it
    /// would be had it been reset at the mark instead, so the next iteration
    /// runs, and draws, as it would have run there.
    pub fn rewind(&mut self, mark: Mark) {
        self.rng = mark.rng;
        self.cycle = mark.cycle;
        self.total_instructions = mark.total_instructions;
        self.coverage.rewind(mark.coverage);
        for (l1, saved) in self.l1s.iter_mut().zip(mark.l1s) {
            l1.restore(saved);
        }
        if let Some(metrics) = mark.metrics {
            telemetry::reset_local();
            telemetry::absorb(&metrics);
        }
        self.reset_test_state();
    }

    /// The state derived from `program`: the cached one if `program` is the
    /// program of the last iteration, otherwise built afresh.
    ///
    /// # Panics
    ///
    /// Panics on a program that was not just run and has more threads than
    /// the system has cores, or whose written values are not unique and
    /// non-zero.
    fn program_state_for(&mut self, program: &TestProgram) -> ProgramState {
        match self.program_cache.take() {
            Some(state) if &state.program == program => state,
            _ => {
                assert!(
                    program.num_threads() <= self.cfg.num_cores,
                    "program has {} threads but the system has {} cores",
                    program.num_threads(),
                    self.cfg.num_cores
                );
                assert!(
                    program.written_values_unique(),
                    "test programs must use unique non-zero write values"
                );
                ProgramState {
                    program: program.clone(),
                    observer: ExecObserver::new(program),
                    cores: cores_for_program(program, &self.cfg),
                }
            }
        }
    }

    /// Executes one cycle: network delivery, memory, L2 banks, L1s, cores.
    ///
    /// Only the components that are awake or due are ticked.  A controller
    /// whose tick leaves it not busy, or a core whose tick is quiescent,
    /// goes to sleep until its own deadline; being handed something wakes it
    /// — a message in stage 1, a core request in stage 5 (for the L1's tick
    /// of the next cycle), a response or notice in the L1's output.
    fn step(&mut self, state: &mut ProgramState, errors: &mut Vec<ProtocolError>) {
        let System {
            cfg,
            bugs,
            l1s,
            l2s,
            memory,
            network,
            coverage,
            rng,
            msgs,
            l1_outs,
            naps,
            ..
        } = self;
        let cycle = self.cycle;
        // The reference never lets a component sleep.
        let stay_awake = !self.components_sleep;

        // 1. Network delivery.
        network.deliver_due(cycle, msgs);
        for msg in msgs.drain(..) {
            let dst = msg.dst;
            if let Some(core) = cfg.l1_index(dst) {
                l1s[core].push_msg(msg);
                naps.l1s[core] = AWAKE;
            } else if let Some(bank) = cfg.l2_index(dst) {
                l2s[bank].push_msg(msg);
                naps.l2s[bank] = AWAKE;
            } else if dst == cfg.node_of_memory() {
                memory.push_msg(msg);
                naps.memory = AWAKE;
            } else {
                unreachable!("message routed to unknown node {dst}");
            }
        }
        let mut route = |msgs: &mut Vec<Msg>, rng: &mut StdRng| {
            for msg in msgs.drain(..) {
                network.send(msg, cycle, cfg, rng);
            }
        };
        let mut ctx = TickCtx {
            cycle,
            cfg,
            bugs,
            coverage,
            rng,
            errors,
        };

        // 2. Memory controller.  It accepts every request in the tick it
        // arrives, so it is idle after every tick.
        if naps.memory <= cycle {
            naps.ticks.memory += 1;
            memory.tick(cycle, cfg, ctx.rng, msgs);
            naps.memory = wake_after(stay_awake, || memory.next_release());
            route(msgs, ctx.rng);
        }

        // 3. L2 banks.
        for (l2, wake_at) in l2s.iter_mut().zip(&mut naps.l2s) {
            if *wake_at > cycle {
                continue;
            }
            naps.ticks.l2 += 1;
            let busy = l2.tick(&mut ctx, msgs);
            *wake_at = wake_after(busy || stay_awake, || l2.next_release());
            route(msgs, ctx.rng);
        }

        // 4. L1 caches.  Responses and notices stay in the L1's output until
        // its core has consumed them in stage 5.
        for ((l1, out), wake_at) in l1s.iter_mut().zip(l1_outs.iter_mut()).zip(&mut naps.l1s) {
            if *wake_at > cycle {
                continue;
            }
            naps.ticks.l1 += 1;
            let busy = l1.tick(&mut ctx, out);
            *wake_at = wake_after(busy || stay_awake, || l1.next_release());
            route(&mut out.to_network, ctx.rng);
        }

        // 5. Cores.
        let rng = ctx.rng;
        for (core_idx, core) in state.cores.iter_mut().enumerate() {
            let from_l1 = &mut l1_outs[core_idx];
            let wake_at = &mut naps.cores[core_idx];
            if *wake_at > cycle && from_l1.responses.is_empty() && from_l1.lq_notices.is_empty() {
                continue;
            }
            naps.ticks.core += 1;
            let out = core.tick(cycle, bugs, &from_l1.responses, &from_l1.lq_notices, rng);
            from_l1.responses.clear();
            from_l1.lq_notices.clear();
            *wake_at = wake_after(!out.quiescent || stay_awake, || core.next_delay_expiry());
            if !out.requests.is_empty() {
                naps.l1s[core_idx] = AWAKE;
            }
            for req in out.requests {
                l1s[core_idx].push_core_request(req);
            }
            for obs in out.observed {
                self.total_instructions += 1;
                state.observer.record(core_idx, obs);
            }
        }
    }

    /// After a cycle that left nobody awake: jumps to one cycle before the
    /// earliest at which anything can happen.
    ///
    /// That is the earliest of: a network delivery, a sleeping component's
    /// deadline (a memory, L2 or L1 release, a `Delay` op expiring), and
    /// `budget_end` (the cycle in which the hang check fires).  Between them
    /// these must cover every time-dependent condition in the system: waking
    /// early only costs an executed cycle, waking late would change
    /// behaviour.  The cycles jumped over are cycles every component sleeps
    /// through, and sleeping owes nothing: no coverage record, no counter,
    /// no draw from the RNG.
    fn skip_to_next_wake(&mut self, budget_end: Cycle) {
        let wake = self
            .network
            .next_delivery()
            .into_iter()
            .fold(self.naps.earliest_wake().min(budget_end), Cycle::min);
        let skipped = wake.saturating_sub(self.cycle + 1);
        if skipped == 0 {
            return;
        }
        self.cycle += skipped;
        FF_SEGMENTS.incr();
        FF_SKIPPED_CYCLES.add(skipped);
        FF_SKIP_LEN.record(skipped);
    }

    /// Runs one complete iteration of `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program has more threads than the system has cores, or if
    /// its written values are not unique and non-zero.
    pub fn run_iteration(&mut self, program: &TestProgram) -> IterationOutcome {
        self.reset_test_state();
        let mut state = self.program_state_for(program);
        self.test_state_reset = false;

        let mut errors: Vec<ProtocolError> = Vec::new();
        let start_cycle = self.cycle;
        let budget_end = start_cycle + self.cfg.max_cycles_per_iteration + 1;
        let instructions_before = self.total_instructions;

        let simulate_span = PHASE_SIMULATE.span();
        // An invalid transition aborts the iteration, as Ruby would abort the
        // simulation, before the cycle budget is looked at: an iteration that
        // faults in its last budgeted cycle faulted, it did not hang.
        let hung = loop {
            if !errors.is_empty() || state.cores.iter().all(|c| c.is_finished()) {
                break false;
            }
            if self.cycle >= budget_end {
                break true;
            }
            self.cycle += 1;
            self.step(&mut state, &mut errors);
            // The iteration ends in the cycle of a protocol error, even if
            // that left everybody asleep.
            if errors.is_empty() {
                self.skip_to_next_wake(budget_end);
            }
        };

        drop(simulate_span);
        let cycles = self.cycle - start_cycle;
        ITERATION_CYCLES.record(cycles);
        let ticks = self.naps.ticks;
        FF_COMPONENT_TICKS.add(ticks.total());
        FF_MEMORY_TICKS.add(ticks.memory);
        FF_L2_TICKS.add(ticks.l2);
        FF_L1_TICKS.add(ticks.l1);
        FF_CORE_TICKS.add(ticks.core);
        FF_COMPONENT_NAPS.add(cycles * self.naps.components() as u64 - ticks.total());

        let observe_span = PHASE_OBSERVE.span();
        let complete = state.observer.is_complete() && !hung && errors.is_empty();
        let execution = state.observer.finish();
        drop(observe_span);
        self.program_cache = Some(state);
        IterationOutcome {
            execution,
            protocol_errors: errors,
            hung,
            complete,
            cycles,
            retired_ops: (self.total_instructions - instructions_before) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::Bug;
    use crate::program::TestOp;
    use crate::types::NodeId;
    use mcversi_mcm::checker::Checker;
    use mcversi_mcm::model::tso::Tso;
    use mcversi_mcm::Address;

    fn mp_program() -> TestProgram {
        TestProgram::new(vec![
            vec![
                TestOp::write(Address(0x1000), 1),
                TestOp::write(Address(0x2000), 2),
            ],
            vec![TestOp::read(Address(0x2000)), TestOp::read(Address(0x1000))],
        ])
    }

    #[test]
    fn single_thread_program_runs_to_completion_mesi() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 1);
        let program = TestProgram::new(vec![vec![
            TestOp::write(Address(0x1000), 1),
            TestOp::read(Address(0x1000)),
            TestOp::write(Address(0x1008), 2),
            TestOp::read(Address(0x1008)),
        ]]);
        let outcome = sys.run_iteration(&program);
        assert!(outcome.complete, "outcome: {outcome:?}");
        assert!(!outcome.hung);
        assert!(outcome.protocol_errors.is_empty());
        assert_eq!(outcome.retired_ops, 4);
        assert!(outcome.execution.validate().is_ok());
        assert!(Checker::new(&Tso).check(&outcome.execution).is_valid());
        assert!(sys.coverage().distinct_covered() > 0);
    }

    #[test]
    fn single_thread_program_runs_to_completion_tsocc() {
        let cfg = SystemConfig::small(ProtocolKind::TsoCc);
        let mut sys = System::new(cfg, BugConfig::none(), 1);
        let program = TestProgram::new(vec![vec![
            TestOp::write(Address(0x1000), 1),
            TestOp::read(Address(0x1000)),
            TestOp::rmw(Address(0x1040), 3),
            TestOp::read(Address(0x1040)),
        ]]);
        let outcome = sys.run_iteration(&program);
        assert!(outcome.complete, "outcome: {outcome:?}");
        assert!(outcome.protocol_errors.is_empty());
        assert!(Checker::new(&Tso).check(&outcome.execution).is_valid());
    }

    #[test]
    fn correct_mesi_system_satisfies_tso_on_message_passing() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 7);
        let checker = Checker::new(&Tso);
        for _ in 0..20 {
            let outcome = sys.run_iteration(&mp_program());
            assert!(outcome.complete);
            assert!(outcome.protocol_errors.is_empty());
            assert!(
                checker.check(&outcome.execution).is_valid(),
                "correct MESI produced a TSO violation"
            );
        }
    }

    #[test]
    fn correct_tsocc_system_satisfies_tso_on_message_passing() {
        let cfg = SystemConfig::small(ProtocolKind::TsoCc);
        let mut sys = System::new(cfg, BugConfig::none(), 7);
        let checker = Checker::new(&Tso);
        for _ in 0..20 {
            let outcome = sys.run_iteration(&mp_program());
            assert!(outcome.complete);
            assert!(outcome.protocol_errors.is_empty());
            assert!(
                checker.check(&outcome.execution).is_valid(),
                "correct TSO-CC produced a TSO violation"
            );
        }
    }

    #[test]
    fn sq_no_fifo_bug_eventually_produces_a_violation() {
        // Writer publishes data then flag out of order; reader spins-ish.
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::single(Bug::SqNoFifo), 3);
        let checker = Checker::new(&Tso);
        let program = TestProgram::new(vec![
            vec![
                TestOp::write(Address(0x1000), 1),
                TestOp::write(Address(0x2000), 2),
                TestOp::write(Address(0x3000), 3),
                TestOp::write(Address(0x4000), 4),
            ],
            vec![
                TestOp::read(Address(0x4000)),
                TestOp::read(Address(0x3000)),
                TestOp::read(Address(0x2000)),
                TestOp::read(Address(0x1000)),
            ],
        ]);
        let mut found = false;
        for _ in 0..200 {
            let outcome = sys.run_iteration(&program);
            if !outcome.complete {
                continue;
            }
            if checker.check(&outcome.execution).is_violation() {
                found = true;
                break;
            }
        }
        assert!(found, "SQ+no-FIFO never produced an observable violation");
    }

    #[test]
    fn relaxed_core_satisfies_the_relaxed_models_and_breaks_tso() {
        use crate::config::CoreStrength;
        use mcversi_mcm::ModelKind;
        let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
        cfg.core_strength = CoreStrength::Relaxed;
        let mut sys = System::new(cfg, BugConfig::none(), 11);
        let mut tso_violations = 0usize;
        // Overlap several MP instances so the weak timing window is hit.
        let program = TestProgram::new(vec![
            vec![
                TestOp::write(Address(0x1000), 1),
                TestOp::write(Address(0x2000), 2),
                TestOp::write(Address(0x3000), 3),
                TestOp::write(Address(0x4000), 4),
            ],
            vec![
                TestOp::read(Address(0x4000)),
                TestOp::read(Address(0x3000)),
                TestOp::read(Address(0x2000)),
                TestOp::read(Address(0x1000)),
            ],
        ]);
        for _ in 0..60 {
            let outcome = sys.run_iteration(&program);
            assert!(outcome.complete, "outcome: {outcome:?}");
            for model in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
                assert!(
                    Checker::new(model.instance())
                        .check(&outcome.execution)
                        .is_valid(),
                    "correct relaxed core violated {model}"
                );
            }
            if Checker::new(&Tso).check(&outcome.execution).is_violation() {
                tso_violations += 1;
            }
        }
        assert!(
            tso_violations > 0,
            "the relaxed core never exhibited a TSO-forbidden reordering"
        );
    }

    #[test]
    fn reset_between_iterations_restores_initial_values() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 5);
        let writer = TestProgram::new(vec![vec![TestOp::write(Address(0x1000), 9)]]);
        let outcome = sys.run_iteration(&writer);
        assert!(outcome.complete);
        // A later iteration that only reads must observe the initial value.
        let reader = TestProgram::new(vec![vec![TestOp::read(Address(0x1000))]]);
        let outcome = sys.run_iteration(&reader);
        assert!(outcome.complete);
        let read_event = outcome
            .execution
            .events()
            .iter()
            .find(|e| e.is_read())
            .expect("read event exists");
        assert_eq!(read_event.value.0, 0, "reset must restore initial values");
    }

    #[test]
    fn coverage_accumulates_across_runs_and_run_set_resets() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 5);
        sys.run_iteration(&mp_program());
        let run1 = sys.finish_coverage_run();
        assert!(!run1.is_empty());
        let cumulative_after_run1 = sys.coverage().distinct_covered();
        sys.run_iteration(&mp_program());
        let run2 = sys.finish_coverage_run();
        assert!(!run2.is_empty());
        assert!(sys.coverage().distinct_covered() >= cumulative_after_run1);
        let universe = sys.coverage_universe().to_vec();
        let frac = sys.coverage().total_coverage(&universe);
        assert!(frac > 0.0 && frac <= 1.0);
    }

    #[test]
    fn stale_memory_responses_do_not_leak_across_resets() {
        // A fetch can still be in flight at the memory controller when an
        // iteration finishes; the host reset must drop it, otherwise the next
        // iteration's L2 receives a MemData with no matching transaction.
        // Flush-heavy single-op-per-core programs maximise that window.
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 123);
        let program = TestProgram::new(vec![
            vec![
                TestOp::read(Address(0x10_0000)),
                TestOp::flush(Address(0x10_0000)),
                TestOp::read(Address(0x12_0000)),
            ],
            vec![
                TestOp::write(Address(0x11_0000), 1),
                TestOp::read(Address(0x13_0000)),
            ],
        ]);
        for _ in 0..50 {
            let outcome = sys.run_iteration(&program);
            assert!(
                outcome.protocol_errors.is_empty(),
                "spurious protocol error: {:?}",
                outcome.protocol_errors
            );
            assert!(outcome.complete);
        }
    }

    #[test]
    fn too_many_threads_is_rejected() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let threads = cfg.num_cores + 1;
        let mut sys = System::new(cfg, BugConfig::none(), 5);
        let program = TestProgram::new(
            (0..threads)
                .map(|i| vec![TestOp::write(Address(0x1000 + i as u64 * 8), i as u64 + 1)])
                .collect(),
        );
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run_iteration(&program)));
        assert!(result.is_err());
    }

    // ---- Sleep/wake: lockstep against the reference that never sleeps ----

    use crate::config::CoreStrength;
    use mcversi_mcm::FenceKind;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeMap;

    /// A random program of up to `max_threads` threads over a footprint that
    /// conflicts in the small configuration's L1 sets and L2 banks, using
    /// every operation kind.
    fn random_program(rng: &mut StdRng, next_value: &mut u64, max_threads: usize) -> TestProgram {
        const FENCES: [FenceKind; 6] = [
            FenceKind::Full,
            FenceKind::Acquire,
            FenceKind::Release,
            FenceKind::LoadLoad,
            FenceKind::StoreStore,
            FenceKind::LightweightSync,
        ];
        let threads = (0..rng.gen_range(2..=max_threads))
            .map(|_| {
                (0..rng.gen_range(6..20usize))
                    .map(|_| {
                        let set_alias = rng.gen_range(0..5u64);
                        let line = rng.gen_range(0..3u64);
                        let word = rng.gen_range(0..2u64);
                        let addr = Address(0x1_0000 * set_alias + 0x40 * line + 8 * word);
                        let mut value = || {
                            *next_value += 1;
                            *next_value
                        };
                        match rng.gen_range(0..100u32) {
                            0..=29 => TestOp::read(addr),
                            30..=35 => TestOp::read_addr_dp(addr),
                            36..=59 => TestOp::write(addr, value()),
                            60..=64 => TestOp::write_data_dp(addr, value()),
                            65..=69 => TestOp::write_ctrl_dp(addr, value()),
                            70..=77 => TestOp::rmw(addr, value()),
                            78..=84 => TestOp::flush(addr),
                            85..=91 => TestOp::delay(rng.gen_range(1..300u32)),
                            _ => TestOp::fence_of(FENCES[rng.gen_range(0..FENCES.len())]),
                        }
                    })
                    .collect()
            })
            .collect();
        TestProgram::new(threads)
    }

    /// A system whose components sleep and its reference twin, which ticks
    /// every component every cycle.
    fn twins(cfg: &SystemConfig, bugs: &BugConfig, seed: u64) -> (System, System) {
        let fast = System::new(cfg.clone(), bugs.clone(), seed);
        let mut reference = System::new(cfg.clone(), bugs.clone(), seed);
        reference.components_sleep = false;
        (fast, reference)
    }

    /// Runs `program` on both twins and asserts that nothing observable
    /// tells them apart afterwards.
    fn assert_lockstep(
        fast: &mut System,
        reference: &mut System,
        program: &TestProgram,
        what: &str,
    ) -> IterationOutcome {
        let got = fast.run_iteration(program);
        let want = reference.run_iteration(program);
        assert_eq!(got.cycles, want.cycles, "{what}: cycles");
        assert_eq!(got.retired_ops, want.retired_ops, "{what}: retired ops");
        assert_eq!(got.hung, want.hung, "{what}: hung");
        assert_eq!(got.complete, want.complete, "{what}: complete");
        assert_eq!(got.protocol_errors, want.protocol_errors, "{what}: errors");
        assert_eq!(
            format!("{:?}", got.execution),
            format!("{:?}", want.execution),
            "{what}: execution"
        );
        assert_eq!(fast.cycle(), reference.cycle(), "{what}: global cycle");
        assert_eq!(
            fast.total_instructions(),
            reference.total_instructions(),
            "{what}: instructions"
        );
        assert_eq!(
            fast.coverage().iter_cumulative().collect::<Vec<_>>(),
            reference.coverage().iter_cumulative().collect::<Vec<_>>(),
            "{what}: cumulative coverage counts"
        );
        assert_eq!(
            fast.coverage().current_run_covered(),
            reference.coverage().current_run_covered(),
            "{what}: per-run coverage"
        );
        assert_eq!(
            fast.rng.gen::<u64>(),
            reference.rng.gen::<u64>(),
            "{what}: next RNG draw"
        );
        got
    }

    /// Every (protocol, core strength, bug set) the lockstep tests cover:
    /// the correct design and each single bug of the extended corpus on the
    /// small system, and the correct design on the paper's 8-core one, whose
    /// 25 components exercise the sleep bookkeeping beyond index 3.
    fn design_grid() -> Vec<(SystemConfig, BugConfig)> {
        let mut grid = Vec::new();
        for protocol in [ProtocolKind::Mesi, ProtocolKind::TsoCc] {
            for strength in [CoreStrength::Strong, CoreStrength::Relaxed] {
                let mut cfg = SystemConfig::small(protocol);
                cfg.core_strength = strength;
                grid.push((cfg.clone(), BugConfig::none()));
                for bug in Bug::ALL_EXTENDED {
                    grid.push((cfg.clone(), BugConfig::single(bug)));
                }
            }
        }
        let mut large = SystemConfig::paper_default();
        large.protocol = ProtocolKind::TsoCc;
        large.core_strength = CoreStrength::Relaxed;
        grid.push((large, BugConfig::none()));
        grid
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// Sleeping is invisible: on every design of the grid, random
        /// programs (one run twice, so the cached set-up path runs, then a
        /// new one) leave the fast system and the reference in lockstep
        /// after every iteration.
        #[test]
        fn fast_forward_is_in_lockstep_with_the_cycle_by_cycle_reference(
            seed in 0u64..1_000_000,
            jitter_choice in 0usize..3,
        ) {
            let jitter = [0u16, 2048, 30_000][jitter_choice];
            for (mut cfg, bugs) in design_grid() {
                cfg.issue_jitter = jitter;
                let (mut fast, mut reference) = twins(&cfg, &bugs, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
                let mut next_value = 0u64;
                for (program_idx, iterations) in [2, 1].into_iter().enumerate() {
                    let program = random_program(&mut rng, &mut next_value, cfg.num_cores);
                    for iteration in 0..iterations {
                        let what = format!(
                            "{:?}/{:?}/{bugs:?} seed {seed} jitter {jitter} \
                             program {program_idx} iteration {iteration}",
                            cfg.protocol, cfg.core_strength
                        );
                        assert_lockstep(&mut fast, &mut reference, &program, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn fast_forward_replays_the_sim_telemetry_counters() {
        // Telemetry storage is thread-local, so the two runs can be measured
        // one after the other on this thread; `enable` is sticky and
        // behaviour-neutral, so other tests are unaffected.
        telemetry::enable();
        let sim_metrics = |system: &mut System, programs: &[TestProgram]| {
            telemetry::reset_local();
            for program in programs {
                for _ in 0..3 {
                    system.run_iteration(program);
                }
            }
            let snapshot = telemetry::local_snapshot();
            let counters: Vec<(String, u64)> = snapshot
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("sim.") && !name.starts_with("sim.ff."))
                .collect();
            let skipped = snapshot
                .histograms
                .get("sim.ff.skip_len")
                .map_or(0, |h| h.sum);
            (
                counters,
                snapshot.histograms["sim.iteration.cycles"].clone(),
                skipped,
            )
        };
        for (design, (mut cfg, bugs)) in design_grid().into_iter().enumerate() {
            let (seed, jitter) = [(3u64, 2048u16), (4, 0), (5, 40_000)][design % 3];
            cfg.issue_jitter = jitter;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next_value = 0u64;
            let programs = [
                random_program(&mut rng, &mut next_value, cfg.num_cores),
                random_program(&mut rng, &mut next_value, cfg.num_cores),
            ];
            let (mut fast, mut reference) = twins(&cfg, &bugs, seed);
            let (got, got_cycles, skipped) = sim_metrics(&mut fast, &programs);
            let (want, want_cycles, none_skipped) = sim_metrics(&mut reference, &programs);
            let what = format!("{:?}/{:?}/{bugs:?}", cfg.protocol, cfg.core_strength);
            assert_eq!(got, want, "{what}: sim.* counters");
            assert_eq!(got_cycles, want_cycles, "{what}: sim.iteration.cycles");
            assert!(got
                .iter()
                .any(|(name, _)| name.starts_with("sim.core.stall.")));
            assert!(skipped > 0, "{what}: nothing was fast-forwarded");
            assert_eq!(none_skipped, 0, "{what}: the reference skipped cycles");
        }
    }

    #[test]
    fn component_ticks_and_naps_account_for_every_component_of_every_cycle() {
        telemetry::enable();
        let cfg = SystemConfig::small(ProtocolKind::TsoCc);
        let components = 1 + cfg.l2_banks + 2 * cfg.num_cores;
        let (mut fast, mut reference) = twins(&cfg, &BugConfig::none(), 2);
        let ticks_and_naps = |system: &mut System| {
            telemetry::reset_local();
            let cycles = system.run_iteration(&mp_program()).cycles;
            let counters = telemetry::local_snapshot().counters;
            let get = |name: &str| counters.get(name).copied().unwrap_or(0);
            let (ticks, naps) = (get("sim.ff.component_ticks"), get("sim.ff.component_naps"));
            assert_eq!(ticks + naps, cycles * components as u64);
            let by_kind = ["memory", "l2", "l1", "core"]
                .map(|kind| get(&format!("sim.ff.component_ticks.{kind}")));
            assert_eq!(by_kind.iter().sum::<u64>(), ticks, "{by_kind:?}");
            assert!(by_kind.iter().all(|&ticks| ticks > 0), "{by_kind:?}");
            (ticks, naps)
        };
        let (ticks, naps) = ticks_and_naps(&mut fast);
        assert!(naps > 4 * ticks, "{ticks} ticks executed, {naps} avoided");
        let (_, naps) = ticks_and_naps(&mut reference);
        assert_eq!(naps, 0, "the reference never sleeps");
    }

    #[test]
    fn fast_forward_replays_a_miss_that_stalls_on_a_busy_victim() {
        // A MESI L1 miss whose LRU victim is mid-transaction stalls, and its
        // transition is recorded, and counted as a miss, only once its MSHR
        // opens.  Lines A, B and C share an L1 set (2 ways).  Core 0 holds A
        // (Shared, least recently used) and B, upgrades A (S -> SM:
        // resident, with an MSHR), and a window full of delays later loads
        // C, which is retried every cycle until the upgrade completes (the
        // MESI L1 test `a_miss_behind_a_busy_victim_records_nothing_until_it_starts`
        // steps through such a stall).
        let (a, b, c) = (Address(0x1000), Address(0x1400), Address(0x1800));
        let mut thread0 = vec![
            TestOp::delay(600),
            TestOp::fence(),
            TestOp::read(a),
            TestOp::read(b),
            TestOp::fence(),
            TestOp::read(Address(b.0 + 8)),
            TestOp::fence(),
            TestOp::write(a, 1),
        ];
        thread0.extend([TestOp::delay(60); 17]);
        thread0.push(TestOp::read(c));
        let program = TestProgram::new(vec![thread0, vec![TestOp::read(a)]]);

        telemetry::enable();
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let (mut fast, mut reference) = twins(&cfg, &BugConfig::none(), 1);
        let misses = |system: &mut System| {
            telemetry::reset_local();
            assert!(system.run_iteration(&program).complete);
            telemetry::local_snapshot().counters["sim.l1.mesi.miss"]
        };
        let (got, want) = (misses(&mut fast), misses(&mut reference));
        // The loads of A (one per core), B and C, and the upgrade of A.
        assert_eq!(want, 5, "a retried miss counts once");
        assert_eq!(got, want);
        // Core 0's loads of A, B and C and core 1's load of A, all from I.
        let loads_from_i = |system: &System| system.coverage().count(Transition::l1("I", "Load"));
        assert_eq!(
            loads_from_i(&reference),
            4,
            "a retried miss is recorded once"
        );
        assert_eq!(loads_from_i(&fast), 4);
    }

    #[test]
    fn a_wedged_iteration_reports_the_same_hang_as_the_reference() {
        // A budget far below one memory round trip wedges every iteration
        // that misses; the jump must land exactly on the hang check.
        let program = TestProgram::new(vec![
            vec![
                TestOp::read(Address(0x1000)),
                TestOp::write(Address(0x2000), 1),
            ],
            vec![TestOp::delay(5_000), TestOp::read(Address(0x2000))],
        ]);
        for (mut cfg, bugs) in design_grid() {
            for budget in [40u64, 1_000] {
                cfg.max_cycles_per_iteration = budget;
                let (mut fast, mut reference) = twins(&cfg, &bugs, 17);
                for iteration in 0..3 {
                    let what = format!(
                        "{:?}/{:?}/{bugs:?} budget {budget} iteration {iteration}",
                        cfg.protocol, cfg.core_strength
                    );
                    let outcome = assert_lockstep(&mut fast, &mut reference, &program, &what);
                    assert!(outcome.hung, "{what}: must hang");
                    assert!(outcome.protocol_errors.is_empty(), "{what}");
                    assert!(!outcome.complete);
                    assert_eq!(outcome.cycles, budget + 1, "{what}");
                }
            }
        }
    }

    // ---- One directed test per wake source ----

    /// How often which wake source ended a sleep of which component, e.g.
    /// `("L1[0]", "core request")`.
    type WakeCensus = BTreeMap<(String, &'static str), u32>;

    /// `(name, node, wake_at)` of every controller.
    fn controller_naps(sys: &System) -> Vec<(String, NodeId, Cycle)> {
        let (cfg, naps) = (&sys.cfg, &sys.naps);
        let mut all = vec![("memory".to_string(), cfg.node_of_memory(), naps.memory)];
        let l2s = naps.l2s.iter().enumerate();
        all.extend(l2s.map(|(i, &wake_at)| (format!("L2[{i}]"), cfg.node_of_l2(i), wake_at)));
        let l1s = naps.l1s.iter().enumerate();
        all.extend(l1s.map(|(i, &wake_at)| (format!("L1[{i}]"), cfg.node_of_l1(i), wake_at)));
        all
    }

    /// Steps a system whose components sleep through `program` one cycle at
    /// a time (never jumping, which changes nothing a component does) and
    /// classifies every wake from the sleep bookkeeping before the step and
    /// the messages the step delivers.
    fn wake_census(cfg: &SystemConfig, seed: u64, program: &TestProgram) -> WakeCensus {
        let mut sys = System::new(cfg.clone(), BugConfig::none(), seed);
        let mut state = sys.program_state_for(program);
        sys.reset_test_state();
        let mut errors = Vec::new();
        let mut census = WakeCensus::new();
        // Whether each controller ticked in the last cycle; after the reset
        // every one is awake.
        let mut ticked_last = vec![true; controller_naps(&sys).len()];
        while !state.cores.iter().all(CoreModel::is_finished) {
            assert!(errors.is_empty(), "{errors:?}");
            assert!(sys.cycle < 100_000, "the directed program does not finish");
            sys.cycle += 1;
            let cycle = sys.cycle;
            let controllers = controller_naps(&sys);
            let delivered = sys.network.due_destinations(cycle);
            let cores = sys.naps.cores.clone();
            sys.step(&mut state, &mut errors);
            for ((name, node, wake_at), ticked_last) in
                controllers.into_iter().zip(&mut ticked_last)
            {
                // Due, or woken in stage 1 by a message.
                let ticked = wake_at <= cycle || delivered.contains(&node);
                let slept_last = !std::mem::replace(ticked_last, ticked);
                let cause = if !ticked {
                    continue;
                } else if wake_at == AWAKE && slept_last {
                    // Slept through the last cycle, yet was awake at its end:
                    // woken after its own stage.
                    "core request"
                } else if wake_at == AWAKE {
                    continue;
                } else if wake_at <= cycle {
                    "release"
                } else {
                    "message"
                };
                *census.entry((name, cause)).or_default() += 1;
            }
            for (core, (wake_at, now)) in cores.into_iter().zip(&sys.naps.cores).enumerate() {
                let cause = if wake_at != AWAKE && wake_at <= cycle {
                    "delay"
                } else if wake_at > cycle && *now == AWAKE {
                    // A tick that received something is not quiescent.
                    "L1 output"
                } else {
                    continue;
                };
                *census.entry((format!("core[{core}]"), cause)).or_default() += 1;
            }
        }
        census
    }

    /// Runs `program` in lockstep on both protocols (twice, so that the
    /// second iteration starts from whatever sleep state the first left) and
    /// returns the wake census of each.
    fn directed(program: &TestProgram) -> Vec<WakeCensus> {
        [ProtocolKind::Mesi, ProtocolKind::TsoCc]
            .into_iter()
            .map(|protocol| {
                let cfg = SystemConfig::small(protocol);
                let (mut fast, mut reference) = twins(&cfg, &BugConfig::none(), 1);
                for iteration in 0..2 {
                    let what = format!("{protocol:?} iteration {iteration}");
                    let outcome = assert_lockstep(&mut fast, &mut reference, program, &what);
                    assert!(outcome.complete, "{what}: {outcome:?}");
                }
                wake_census(&cfg, 1, program)
            })
            .collect()
    }

    fn woken(census: &WakeCensus, component: &str, cause: &'static str) -> u32 {
        census
            .get(&(component.to_string(), cause))
            .copied()
            .unwrap_or(0)
    }

    /// One cold load: the request finds the L2 bank asleep, the bank's fetch
    /// the memory, the data the bank and then the L1, the response the core;
    /// in between each of them sleeps until its own latency has passed.
    fn cold_load() -> TestProgram {
        TestProgram::new(vec![vec![TestOp::read(Address(0x1000))]])
    }

    /// A store held back by a delay: by the time it retires into the store
    /// buffer and drains, core and L1 have long been asleep.
    fn delayed_store() -> TestProgram {
        TestProgram::new(vec![vec![
            TestOp::delay(200),
            TestOp::write(Address(0x1000), 1),
        ]])
    }

    #[test]
    fn a_delivered_message_wakes_a_sleeping_memory_l2_and_l1() {
        for census in directed(&cold_load()) {
            assert_eq!(woken(&census, "L2[0]", "message"), 2, "{census:?}");
            assert_eq!(woken(&census, "memory", "message"), 1, "{census:?}");
            assert_eq!(woken(&census, "L1[0]", "message"), 1, "{census:?}");
        }
    }

    #[test]
    fn its_own_release_deadline_wakes_a_sleeping_memory_l2_and_l1() {
        for census in directed(&cold_load()) {
            assert_eq!(woken(&census, "L2[0]", "release"), 2, "{census:?}");
            assert_eq!(woken(&census, "memory", "release"), 1, "{census:?}");
            assert_eq!(woken(&census, "L1[0]", "release"), 1, "{census:?}");
        }
    }

    #[test]
    fn a_core_request_wakes_a_sleeping_l1() {
        for census in directed(&delayed_store()) {
            assert_eq!(woken(&census, "L1[0]", "core request"), 1, "{census:?}");
        }
    }

    #[test]
    fn an_expiring_delay_wakes_a_sleeping_core() {
        for census in directed(&delayed_store()) {
            assert_eq!(woken(&census, "core[0]", "delay"), 1, "{census:?}");
        }
    }

    #[test]
    fn a_response_wakes_a_sleeping_core() {
        for census in directed(&cold_load()) {
            assert_eq!(woken(&census, "core[0]", "L1 output"), 1, "{census:?}");
        }
    }

    #[test]
    fn an_invalidation_notice_wakes_a_sleeping_core() {
        // Core 0 becomes the owner of the line and sits out a long delay
        // with nothing outstanding; core 1's store then takes the line away.
        let line = Address(0x1000);
        let program = TestProgram::new(vec![
            vec![TestOp::write(line, 1), TestOp::delay(2_000)],
            vec![TestOp::delay(800), TestOp::write(line, 2)],
        ]);
        for census in directed(&program) {
            // Its own store's response, then the notice.
            assert_eq!(woken(&census, "core[0]", "L1 output"), 2, "{census:?}");
        }
    }

    #[test]
    fn a_sleeping_core_counts_the_stalls_of_the_reference() {
        // Every tick the core sleeps through would have run the issue stage
        // and found the load still stalled behind the atomic: one stall
        // episode, counted when it started, on either system.
        telemetry::enable();
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let program = TestProgram::new(vec![vec![
            TestOp::rmw(Address(0x1000), 1),
            TestOp::read(Address(0x2000)),
        ]]);
        let (mut fast, mut reference) = twins(&cfg, &BugConfig::none(), 1);
        let stalls = |system: &mut System| {
            telemetry::reset_local();
            assert!(system.run_iteration(&program).complete);
            let mut counters = telemetry::local_snapshot().counters;
            counters.retain(|name, _| name.starts_with("sim.core.stall."));
            counters
        };
        let (got, want) = (stalls(&mut fast), stalls(&mut reference));
        assert_eq!(
            want.get("sim.core.stall.fence"),
            Some(&1),
            "the load did not stall behind the atomic once: {want:?}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn a_jump_leaves_the_rng_untouched() {
        // Core 0 waits out an atomic's miss with a load stalled behind it,
        // core 1 a long delay; core 2 finishes within a few cycles and core 3
        // has no thread.  The system is stepped to a cycle that leaves
        // everybody asleep for a while, and then jumps over it.
        let program = TestProgram::new(vec![
            vec![
                TestOp::rmw(Address(0x1000), 1),
                TestOp::read(Address(0x2000)),
            ],
            vec![TestOp::delay(5_000)],
            vec![TestOp::delay(1)],
        ]);
        for jitter in [0u16, 2048, 30_000] {
            let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
            cfg.issue_jitter = jitter;
            let mut sys = System::new(cfg, BugConfig::none(), 7);
            let mut state = sys.program_state_for(&program);
            sys.reset_test_state();
            let mut errors = Vec::new();
            let asleep_for = |system: &System| {
                let next_delivery = system.network.next_delivery().into_iter();
                let wake = next_delivery.fold(system.naps.earliest_wake(), Cycle::min);
                wake.saturating_sub(system.cycle + 1)
            };
            while asleep_for(&sys) < 20 {
                assert!(sys.cycle < 10_000, "jitter {jitter}: nobody sleeps");
                sys.cycle += 1;
                sys.step(&mut state, &mut errors);
                assert!(errors.is_empty(), "{errors:?}");
            }
            assert!(!state.cores[0].is_finished() && !state.cores[1].is_finished());
            let (from, cycles) = (sys.cycle, asleep_for(&sys));
            let next_draw = sys.rng.clone().gen::<u64>();
            sys.skip_to_next_wake(Cycle::MAX);
            assert_eq!(sys.cycle, from + cycles, "jitter {jitter}");
            assert_eq!(
                sys.rng.gen::<u64>(),
                next_draw,
                "jitter {jitter}: a jump drew"
            );
        }
    }

    #[test]
    fn however_an_iteration_ends_a_stalled_l2_request_counts_like_the_reference() {
        // Fetches an L2 took (`NP+GetS`, `NP+GetX`): a request stalled on
        // one counts when it proceeds, never while it waits.
        let fetches = |system: &System| {
            system.coverage().count(Transition::l2("NP", "GetS"))
                + system.coverage().count(Transition::l2("NP", "GetX"))
        };
        // Two loads to one L2 set: the second request is retried for as long
        // as the first one's fetch takes, while the bank sleeps.
        let two_fetches = TestProgram::new(vec![vec![
            TestOp::read(Address(0x1_0080)),
            TestOp::read(Address(0x2_0080)),
        ]]);
        let mut cfg = SystemConfig::small(ProtocolKind::Mesi);

        // The iteration completes: each request counts once.
        let (mut fast, mut reference) = twins(&cfg, &BugConfig::none(), 1);
        let outcome = assert_lockstep(&mut fast, &mut reference, &two_fetches, "completes");
        assert!(outcome.complete);
        assert_eq!(fetches(&reference), 2);

        // The budget runs out mid-stall: only the first fetch was taken.
        cfg.max_cycles_per_iteration = 100;
        let (mut fast, mut reference) = twins(&cfg, &BugConfig::none(), 1);
        let outcome = assert_lockstep(&mut fast, &mut reference, &two_fetches, "hangs");
        assert!(outcome.hung);
        assert_eq!(fetches(&reference), 1);

        // A protocol error elsewhere ends the iteration mid-stall: bank 1
        // faults on the late-PUTX race (the flush of 0x40 against the recall
        // that the third line of its L2 set causes) while bank 0 sleeps on a
        // stalled request.  The race is a matter of timing; simulated
        // behaviour is pinned per seed (`tests/sim_golden.rs`), and should it
        // ever change the assertions below say that this scenario needs
        // finding again.
        let race = TestProgram::new(vec![
            vec![TestOp::read(Address(0x80))],
            vec![
                TestOp::read(Address(0x40)),
                TestOp::read(Address(0x4_0088)),
                TestOp::write(Address(0x3_0088), 7),
                TestOp::read(Address(0x3_0048)),
                TestOp::flush(Address(0x40)),
            ],
            vec![
                TestOp::write_ctrl_dp(Address(0x4_0008), 10),
                TestOp::read(Address(0x4_0048)),
            ],
        ]);
        let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
        cfg.core_strength = CoreStrength::Relaxed;
        let bugs = BugConfig::single(Bug::MesiPutxRace);
        let (mut fast, mut reference) = twins(&cfg, &bugs, 9);
        let outcome = assert_lockstep(&mut fast, &mut reference, &race, "faults");
        assert_eq!(outcome.protocol_errors.len(), 1, "{outcome:?}");
        assert_eq!(outcome.protocol_errors[0].controller, "L2[1]");
        assert_eq!(fetches(&reference), 6);
    }

    #[test]
    fn an_iteration_ends_in_the_cycle_of_its_protocol_error() {
        // The late-PUTX race faults at an L2 bank in the tick that takes the
        // stale PutX, which may leave the bank, and everybody else, asleep:
        // the iteration still ends in that cycle, as the reference's does.
        let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
        cfg.core_strength = CoreStrength::Relaxed;
        let bugs = BugConfig::single(Bug::MesiPutxRace);
        let mut faults = 0;
        for seed in 0..12 {
            let (mut fast, mut reference) = twins(&cfg, &bugs, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let program = random_program(&mut rng, &mut 0, cfg.num_cores);
            for iteration in 0..10 {
                let what = format!("seed {seed} iteration {iteration}");
                let outcome = assert_lockstep(&mut fast, &mut reference, &program, &what);
                if let Some(error) = outcome.protocol_errors.first() {
                    assert_eq!(error.cycle, fast.cycle(), "{what}: {error}");
                    faults += 1;
                }
            }
        }
        assert!(faults >= 10, "only {faults} iterations faulted");
    }

    // ---- Mark and rewind ----

    /// A system that ran iteration k, marked, ran k+1 and rewound against a
    /// twin that ran k only and was then reset, as the next iteration would
    /// reset it: the same `{:?}` (so any state `reset_test_state` keeps and
    /// the mark forgets shows up here), the same deterministic telemetry, and
    /// the same next iteration and RNG draw.  Returns whether k+1 recorded a
    /// transition for the first time.
    fn assert_rewind_is_exact(cfg: &SystemConfig, seed: u64, program: &TestProgram) -> bool {
        let what = format!("{:?}/{:?} seed {seed}", cfg.protocol, cfg.core_strength);
        let mut twin = System::new(cfg.clone(), BugConfig::none(), seed);
        telemetry::reset_local();
        twin.run_iteration(program);
        twin.reset_test_state();
        let want_metrics = telemetry::local_snapshot();

        let mut sys = System::new(cfg.clone(), BugConfig::none(), seed);
        telemetry::reset_local();
        sys.run_iteration(program);
        let mark = sys.mark();
        let distinct = sys.coverage().distinct_covered();
        let dropped = sys.run_iteration(program);
        assert!(dropped.cycles > 0, "{what}");
        let interned = sys.coverage().distinct_covered() > distinct;
        sys.rewind(mark);
        let got_metrics = telemetry::local_snapshot();

        assert_eq!(format!("{sys:?}"), format!("{twin:?}"), "{what}: system");
        assert_eq!(
            got_metrics.deterministic_part(),
            want_metrics.deterministic_part(),
            "{what}: telemetry"
        );
        let (got, want) = (sys.run_iteration(program), twin.run_iteration(program));
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{what}: next iteration"
        );
        assert_eq!(
            format!("{sys:?}"),
            format!("{twin:?}"),
            "{what}: system after it"
        );
        assert_eq!(
            sys.rng.gen::<u64>(),
            twin.rng.gen::<u64>(),
            "{what}: next draw"
        );
        interned
    }

    #[test]
    fn a_rewind_leaves_the_system_as_a_twin_that_never_ran_the_dropped_iteration() {
        telemetry::enable();
        for protocol in [ProtocolKind::Mesi, ProtocolKind::TsoCc] {
            for strength in [CoreStrength::Strong, CoreStrength::Relaxed] {
                let mut cfg = SystemConfig::small(protocol);
                cfg.core_strength = strength;
                // At least four seeds, and on until one dropped iteration has
                // recorded a transition for the first time.
                let mut interned = false;
                for seed in 0.. {
                    if seed >= 4 && interned {
                        break;
                    }
                    assert!(
                        seed < 64,
                        "{protocol:?}/{strength:?}: no dropped iteration interned a transition"
                    );
                    let mut rng = StdRng::seed_from_u64(seed);
                    let program = random_program(&mut rng, &mut 0, cfg.num_cores);
                    interned |= assert_rewind_is_exact(&cfg, seed, &program);
                }
            }
        }
    }

    #[test]
    fn a_new_program_is_validated_even_after_a_cached_one_ran() {
        let cfg = SystemConfig::small(ProtocolKind::Mesi);
        let mut sys = System::new(cfg, BugConfig::none(), 5);
        for _ in 0..2 {
            assert!(sys.run_iteration(&mp_program()).complete);
        }
        let duplicate_values = TestProgram::new(vec![
            vec![TestOp::write(Address(0x1000), 1)],
            vec![TestOp::write(Address(0x2000), 1)],
        ]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run_iteration(&duplicate_values)
        }));
        assert!(result.is_err(), "non-unique write values must be rejected");
        // The rejected program left nothing behind.
        assert!(sys.run_iteration(&mp_program()).complete);
    }
}
