//! Verification campaigns: generator × bug runs and coverage runs.
//!
//! A *campaign* corresponds to one cell of the paper's Table 4: a particular
//! test generator attacking a particular (injected) bug with a bounded budget.
//! The paper's budget is 24 hours of host wall-clock time per sample; this
//! reproduction expresses the budget both as wall-clock time and as a maximum
//! number of test-runs, so experiments can be scaled to the available compute
//! while keeping the comparison between generators fair (every generator gets
//! the same budget).  Multiple samples (different seeds) run in parallel.

use crate::config::McVerSiConfig;
use crate::generator::{GeneratorKind, TestSource};
use crate::runner::{RunVerdict, TestRunner};
use crate::sink::{CampaignEvent, CampaignSink};
use mcversi_mcm::ModelKind;
use mcversi_sim::{Bug, BugConfig, CoreStrength};
use mcversi_telemetry as telemetry;
use mcversi_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Events buffered per worker before the bounded channel applies
/// backpressure to the sample workers.
const EVENT_CHANNEL_DEPTH: usize = 64;

/// Phase timer: generating the next candidate test.
static PHASE_GENERATE: telemetry::Timer = telemetry::Timer::new("phase.generate");
/// Phase timer: generator feedback (fitness accounting, GP evolution).
static PHASE_FITNESS: telemetry::Timer = telemetry::Timer::new("phase.fitness");
/// Sample panics observed while draining a streamed batch (countable even
/// when the panic messages themselves scroll past in a sink).
static EVT_SAMPLE_PANIC: telemetry::Counter = telemetry::Counter::new("events.sample_panic");

/// Configuration of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The test generator under evaluation.
    pub generator: GeneratorKind,
    /// The injected bug (or `None` for a coverage campaign on the correct
    /// design, as used for Table 6).
    pub bug: Option<Bug>,
    /// Framework configuration (system, test generation, fitness).
    pub mcversi: McVerSiConfig,
    /// Maximum number of test-runs per sample.
    pub max_test_runs: usize,
    /// Maximum wall-clock time per sample.
    pub max_wall_time: Duration,
    /// Number of worker threads used by [`run_sample_subset`].  `0` (the default)
    /// means one worker per available hardware thread, capped at the number
    /// of samples.
    pub parallelism: usize,
    /// Telemetry cadence. `None` (the default) leaves metric recording off;
    /// `Some(0)` records metrics and snapshots them once into
    /// [`CampaignResult::metrics`]; `Some(n)` additionally emits a cumulative
    /// [`CampaignEvent::Metrics`] record every `n` test-runs.  Metrics never
    /// affect campaign behaviour, only what is recorded and reported.
    pub metrics: Option<usize>,
}

impl CampaignConfig {
    /// Creates a campaign configuration with the given budget.
    pub fn new(
        generator: GeneratorKind,
        bug: Option<Bug>,
        mcversi: McVerSiConfig,
        max_test_runs: usize,
        max_wall_time: Duration,
    ) -> Self {
        CampaignConfig {
            generator,
            bug,
            mcversi,
            max_test_runs,
            max_wall_time,
            parallelism: 0,
            metrics: None,
        }
    }

    /// The campaign's target consistency model.
    pub fn model(&self) -> ModelKind {
        self.mcversi.model
    }

    /// The campaign's core pipeline strength (before any per-bug override;
    /// see [`CampaignConfig::effective_mcversi`]).
    pub fn core_strength(&self) -> CoreStrength {
        self.mcversi.system.core_strength
    }

    /// The effective number of worker threads for a batch of `samples`.
    fn effective_parallelism(&self, samples: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = if self.parallelism == 0 {
            hw
        } else {
            self.parallelism
        };
        workers.clamp(1, samples.max(1))
    }

    fn bug_config(&self) -> BugConfig {
        match self.bug {
            Some(bug) => BugConfig::single(bug),
            None => BugConfig::none(),
        }
    }

    /// Adjusts the system protocol to the one the bug requires (if any),
    /// returning the effective framework configuration.
    ///
    /// The core strength is deliberately *not* forced from
    /// [`Bug::required_core`]: a protocol bug does not exist in the other
    /// protocol's logic, but a dependency-ordering bug's hook is present in
    /// both pipelines — the strong core merely masks it.  Running such a bug
    /// on the strong core is exactly the (model × core) cell that
    /// demonstrates the gap, so the caller's choice stands.
    pub fn effective_mcversi(&self) -> McVerSiConfig {
        let mut cfg = self.mcversi.clone();
        if let Some(protocol) = self.bug.and_then(|b| b.required_protocol()) {
            cfg.system.protocol = protocol;
        }
        cfg
    }
}

/// The result of one campaign sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The generator that ran.
    pub generator: GeneratorKind,
    /// The targeted bug, if any.
    pub bug: Option<Bug>,
    /// The consistency model the checker verified against.
    pub model: ModelKind,
    /// The core pipeline strength the simulated system ran with (after any
    /// per-bug override).
    pub core: CoreStrength,
    /// Sample seed.
    pub seed: u64,
    /// Whether the bug was found within the budget.
    pub found: bool,
    /// Human-readable description of how the bug manifested.
    pub detail: Option<String>,
    /// Number of test-runs executed.
    pub test_runs: usize,
    /// Test-run index (1-based) at which the bug was found, if found.
    pub found_at_run: Option<usize>,
    /// Simulated cycles consumed.
    pub simulated_cycles: u64,
    /// Wall-clock time consumed.
    pub wall_time: Duration,
    /// Maximum total transition coverage reached (Table 6 metric).
    pub max_total_coverage: f64,
    /// Mean NDT of the GP population at the end (0 for stateless generators).
    pub final_mean_ndt: f64,
    /// Final cumulative telemetry snapshot of the sample (present only when
    /// [`CampaignConfig::metrics`] was set; absent in older serialized
    /// results, which deserialize to `None`).
    pub metrics: Option<MetricsSnapshot>,
}

impl CampaignResult {
    /// Fraction of the test-run budget used before the bug was found (1.0 if
    /// not found).  This is the scaled analogue of the paper's
    /// "hours to find the bug" column.
    pub fn normalized_time_to_bug(&self, budget: usize) -> f64 {
        match self.found_at_run {
            Some(run) if budget > 0 => run as f64 / budget as f64,
            _ => 1.0,
        }
    }
}

/// A wall-clock deadline a sample polls between test-runs, on top of its
/// per-sample `max_wall_time`; once it passes, the sample winds down at the
/// next test-run boundary.
#[derive(Debug, Clone, Copy)]
pub struct WallBudget {
    deadline: Option<Instant>,
}

impl WallBudget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        WallBudget { deadline: None }
    }

    /// A budget expiring `limit` from now.
    pub fn starting_now(limit: Duration) -> Self {
        WallBudget {
            deadline: Some(Instant::now() + limit),
        }
    }

    /// Whether the budget has expired.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Runs one campaign sample with the given seed.
pub fn run_campaign(config: &CampaignConfig, seed: u64) -> CampaignResult {
    run_campaign_observed(config, seed, &WallBudget::unlimited(), &mut |_| {})
}

/// Runs one campaign sample until its budget, a found bug, or the `budget`
/// deadline ends it: generate a test, run it, feed the run back to the
/// generator.  Every test-run (and any violation) is reported through `emit`
/// as it happens.  The emitted stream is the per-sample slice of the
/// [`CampaignSink`] event protocol; `emit` is called on the worker thread
/// executing the sample.
pub fn run_campaign_observed(
    config: &CampaignConfig,
    seed: u64,
    budget: &WallBudget,
    emit: &mut dyn FnMut(CampaignEvent),
) -> CampaignResult {
    if config.metrics.is_some() {
        telemetry::enable();
    }
    // Start every sample from a clean thread-local slate so its final
    // snapshot attributes exactly this sample's work (each sample runs
    // entirely on one worker thread).
    telemetry::reset_local();

    let mcversi = config.effective_mcversi().with_seed(seed);
    let model = mcversi.model;
    let core = mcversi.system.core_strength;
    let params = mcversi.testgen.clone();
    let mut runner = TestRunner::new(mcversi, config.bug_config());
    let mut source = TestSource::for_model(
        config.generator,
        params,
        seed.wrapping_add(0x9e37_79b9),
        model,
    );
    let start = Instant::now();

    let mut found = false;
    let mut detail = None;
    let mut found_at_run = None;
    let mut test_runs = 0usize;

    while test_runs < config.max_test_runs
        && start.elapsed() < config.max_wall_time
        && !budget.expired()
    {
        let (id, test, name) = {
            let _span = PHASE_GENERATE.span();
            source.next_test()
        };
        let result = runner.run_test(&test);
        test_runs += 1;
        {
            let _span = PHASE_FITNESS.span();
            source.feedback(id, &result);
        }
        emit(CampaignEvent::TestRun {
            seed,
            run: test_runs,
            found: result.verdict.is_bug(),
            fitness: result.fitness,
            cycles: result.cycles,
        });
        if let Some(cadence) = config.metrics {
            if cadence > 0 && test_runs.is_multiple_of(cadence) {
                emit(CampaignEvent::Metrics {
                    seed,
                    run: test_runs,
                    snapshot: telemetry::local_snapshot(),
                });
            }
        }
        if result.verdict.is_bug() {
            found = true;
            found_at_run = Some(test_runs);
            let description = match &result.verdict {
                RunVerdict::McmViolation(v) => match name {
                    Some(n) => format!("MCM violation ({}) in litmus test {n}", v.axiom),
                    None => format!("MCM violation of axiom '{}'", v.axiom),
                },
                RunVerdict::ProtocolFault(e) => format!("protocol fault: {e}"),
                RunVerdict::Hang => "iteration hang (cycle budget exceeded)".to_string(),
                RunVerdict::Passed => unreachable!(),
            };
            emit(CampaignEvent::Violation {
                seed,
                run: test_runs,
                detail: description.clone(),
            });
            detail = Some(description);
            break;
        }
    }

    CampaignResult {
        generator: config.generator,
        bug: config.bug,
        model,
        core,
        seed,
        found,
        detail,
        test_runs,
        found_at_run,
        simulated_cycles: runner.total_cycles(),
        wall_time: start.elapsed(),
        max_total_coverage: runner.total_coverage(),
        final_mean_ndt: source.population_mean_ndt(),
        metrics: config.metrics.map(|_| telemetry::local_snapshot()),
    }
}

/// The outcome of one scheduled sample: either a completed campaign result or
/// an isolated panic (a poisoned sample must not abort the rest of the batch).
///
/// One outcome exists per sample, so the size skew between the two variants
/// (a full result vs. a panic message) costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SampleOutcome {
    /// The sample ran to completion.
    Completed(CampaignResult),
    /// The sample panicked; the batch continued without it.
    Panicked {
        /// The seed of the panicked sample.
        seed: u64,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl SampleOutcome {
    /// Converts the outcome into a [`CampaignResult`], mapping panics to a
    /// sentinel "not found" result whose `detail` records the panic.
    pub fn into_result(self, config: &CampaignConfig) -> CampaignResult {
        match self {
            SampleOutcome::Completed(result) => result,
            SampleOutcome::Panicked { seed, message } => {
                // Surface the crash: callers of `ScenarioSpec::run` (the
                // experiment binaries) would otherwise average this sentinel
                // into their tables with no visible trace.  Match on the
                // outcomes of `run_sample_subset` to handle panics
                // programmatically instead.
                eprintln!(
                    "warning: campaign sample (generator {}, seed {seed}) panicked: {message}",
                    config.generator
                );
                CampaignResult {
                    generator: config.generator,
                    bug: config.bug,
                    model: config.model(),
                    core: config.effective_mcversi().system.core_strength,
                    seed,
                    found: false,
                    detail: Some(format!("sample panicked: {message}")),
                    test_runs: 0,
                    found_at_run: None,
                    simulated_cycles: 0,
                    wall_time: Duration::ZERO,
                    max_total_coverage: 0.0,
                    final_mean_ndt: 0.0,
                    metrics: None,
                }
            }
        }
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the samples `indices` of a campaign batch (different seeds) on a
/// bounded worker pool, streaming [`CampaignEvent`]s into `sink` *while the
/// batch runs*, and returns the outcomes in `indices` order.
///
/// A whole batch of `n` samples is `0..n` (what
/// [`ScenarioSpec::run`](crate::ScenarioSpec::run) passes); the distributed
/// fabric resumes a batch by passing the indices a journal does *not*
/// already hold.
///
/// * The pool size is `config.parallelism` (or the host's available
///   parallelism when `0`), capped at the number of samples, so the batch
///   never oversubscribes the host with one thread per sample.
/// * Index `i` always runs with seed `base_seed + i` regardless of which
///   worker picks it up or in which order, so results are reproducible for a
///   fixed `base_seed` (provided the wall-clock budgets do not bind), and a
///   batch split into "journaled" and "re-run" halves merges back into
///   results bit-identical to an uninterrupted run of the whole batch.
/// * A panicking sample is isolated and returned as
///   [`SampleOutcome::Panicked`]; the remaining samples still run.
///
/// Workers push events through a bounded channel (a fixed number of slots
/// per worker); the calling thread drains the channel and dispatches to
/// the sink, so sink implementations need no synchronisation.  Per-sample
/// event order is preserved (`SampleStart`, then `TestRun`/`Violation`
/// interleavings, then `SampleDone`/`SamplePanic`); events of concurrently
/// running samples interleave in arrival order.  The bounded channel applies
/// backpressure: a sink that cannot keep up slows the workers down instead of
/// buffering the whole campaign in memory.
pub fn run_sample_subset(
    config: &CampaignConfig,
    indices: &[usize],
    base_seed: u64,
    sink: &mut dyn CampaignSink,
) -> Vec<SampleOutcome> {
    if indices.is_empty() {
        return Vec::new();
    }
    let workers = config.effective_parallelism(indices.len());
    let next_job = AtomicUsize::new(0);
    let (sender, receiver) =
        mpsc::sync_channel::<(usize, CampaignEvent)>(workers * EVENT_CHANNEL_DEPTH);
    let mut outcomes: Vec<Option<SampleOutcome>> = (0..indices.len()).map(|_| None).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, indices.len()) {
            let sender = sender.clone();
            let next_job = &next_job;
            scope.spawn(move || loop {
                let slot = next_job.fetch_add(1, Ordering::Relaxed);
                if slot >= indices.len() {
                    break;
                }
                let i = indices[slot];
                let seed = base_seed.wrapping_add(i as u64);
                // A send only fails once the receiver is gone, i.e. the batch
                // is being torn down — then dropping events is the right call.
                let _ = sender.send((slot, CampaignEvent::SampleStart { seed, index: i }));
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_campaign_observed(config, seed, &WallBudget::unlimited(), &mut |event| {
                        let _ = sender.send((slot, event));
                    })
                }));
                let final_event = match run {
                    Ok(result) => CampaignEvent::SampleDone { result },
                    Err(payload) => CampaignEvent::SamplePanic {
                        seed,
                        message: panic_message(payload),
                    },
                };
                let _ = sender.send((slot, final_event));
            });
        }
        drop(sender);

        // Drain on the calling thread while the workers run: this is what
        // makes the sink live rather than post-hoc.
        for (slot, event) in receiver {
            match &event {
                CampaignEvent::SampleDone { result } => {
                    outcomes[slot] = Some(SampleOutcome::Completed(result.clone()));
                }
                CampaignEvent::SamplePanic { seed, message } => {
                    EVT_SAMPLE_PANIC.incr();
                    outcomes[slot] = Some(SampleOutcome::Panicked {
                        seed: *seed,
                        message: message.clone(),
                    });
                }
                _ => {}
            }
            sink.on_event(&event);
        }
    });

    outcomes
        .into_iter()
        .map(|slot| slot.expect("every scheduled sample reports a final event"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, NullSink};
    use mcversi_sim::ProtocolKind;

    fn quick_config(generator: GeneratorKind, bug: Option<Bug>) -> CampaignConfig {
        let mcversi = McVerSiConfig::small().with_test_size(32).with_iterations(3);
        CampaignConfig::new(generator, bug, mcversi, 40, Duration::from_secs(60))
    }

    /// A quick config retargeted at a (model, core strength) cell — the
    /// in-process equivalent of the `ScenarioSpec` axes (pinned equal to the
    /// spec path by the workspace-level differential test).
    fn quick_cell(
        generator: GeneratorKind,
        bug: Option<Bug>,
        model: ModelKind,
        core: CoreStrength,
    ) -> CampaignConfig {
        let mut cfg = quick_config(generator, bug);
        cfg.mcversi = cfg.mcversi.retarget(model);
        cfg.mcversi.system.core_strength = core;
        cfg
    }

    #[test]
    fn correct_design_campaign_finds_nothing() {
        let cfg = quick_config(GeneratorKind::McVerSiRand, None);
        let result = run_campaign(&cfg, 1);
        assert!(!result.found);
        assert_eq!(result.test_runs, 40);
        assert!(result.max_total_coverage > 0.0);
        assert!(result.found_at_run.is_none());
        assert_eq!(result.normalized_time_to_bug(40), 1.0);
    }

    #[test]
    fn lq_no_tso_is_found_by_random_generation() {
        let cfg = quick_config(GeneratorKind::McVerSiRand, Some(Bug::LqNoTso));
        let result = run_campaign(&cfg, 3);
        assert!(result.found, "LQ+no-TSO should be easy to find: {result:?}");
        assert!(result.detail.is_some());
        assert!(result.normalized_time_to_bug(40) <= 1.0);
    }

    #[test]
    fn bug_protocol_requirement_overrides_system_protocol() {
        let cfg = quick_config(GeneratorKind::McVerSiRand, Some(Bug::TsoCcCompare));
        assert_eq!(cfg.effective_mcversi().system.protocol, ProtocolKind::TsoCc);
        let cfg = quick_config(GeneratorKind::McVerSiRand, Some(Bug::MesiLqEInv));
        assert_eq!(cfg.effective_mcversi().system.protocol, ProtocolKind::Mesi);
    }

    /// Cross-model bug coverage: the LQ+no-TSO bug produces read→read
    /// reorderings that TSO forbids, but a relaxed model with no dependency
    /// chains in play accepts the same executions — the bug hides when the
    /// target model is weak enough.
    #[test]
    fn lq_no_tso_hides_under_the_relaxed_models() {
        let tso = quick_config(GeneratorKind::McVerSiRand, Some(Bug::LqNoTso));
        assert_eq!(tso.model(), ModelKind::Tso);
        let found_tso = run_campaign(&tso, 3).found;
        assert!(found_tso, "TSO campaign must find LQ+no-TSO");

        // Same budget and seed, weakest model: plain-read reorderings are
        // architecturally allowed, so the verdict machinery must stay quiet
        // unless a dependency chain is violated (which the correct-by-
        // construction dependency stalls in the core prevent).
        let rmo = quick_cell(
            GeneratorKind::McVerSiRand,
            Some(Bug::LqNoTso),
            ModelKind::Rmo,
            CoreStrength::Strong,
        );
        assert_eq!(rmo.model(), ModelKind::Rmo);
        let result = run_campaign(&rmo, 3);
        assert!(
            !result.found,
            "RMO accepts the TSO-buggy executions: {result:?}"
        );
        assert_eq!(result.model, ModelKind::Rmo);
        assert_eq!(result.test_runs, 40, "budget exhausted without a find");
    }

    /// The headline (model × core) differential: a dependency-ordering bug is
    /// found by the litmus baseline when a *relaxed* core runs an ARM-ish
    /// campaign, and the identical campaign on the *strong* core exhausts its
    /// budget without a verdict change — the strong pipeline's squash and
    /// in-order retirement mask the injection entirely.
    #[test]
    fn dependency_bug_detectable_on_relaxed_core_only() {
        assert_eq!(
            Bug::SqNoDataDep.required_core(),
            Some(CoreStrength::Relaxed)
        );

        let relaxed = quick_cell(
            GeneratorKind::DiyLitmus,
            Some(Bug::SqNoDataDep),
            ModelKind::Armish,
            CoreStrength::Relaxed,
        );
        assert_eq!(relaxed.core_strength(), CoreStrength::Relaxed);
        let result = run_campaign(&relaxed, 3);
        assert!(
            result.found,
            "SQ+no-data-dep must be found on the relaxed core: {result:?}"
        );
        assert_eq!(result.core, CoreStrength::Relaxed);
        assert_eq!(result.model, ModelKind::Armish);

        let strong = quick_cell(
            GeneratorKind::DiyLitmus,
            Some(Bug::SqNoDataDep),
            ModelKind::Armish,
            CoreStrength::Strong,
        );
        let result = run_campaign(&strong, 3);
        assert!(
            !result.found,
            "the strong core must mask SQ+no-data-dep: {result:?}"
        );
        assert_eq!(result.core, CoreStrength::Strong);
        assert_eq!(result.test_runs, 40, "budget exhausted without a find");
    }

    /// The correct relaxed-core design passes a weak-model campaign (no false
    /// positives from the reordering pipeline) but is flagged under TSO, where
    /// the hardware is weaker than the model.
    #[test]
    fn relaxed_core_correct_design_is_model_relative() {
        let armish = quick_cell(
            GeneratorKind::DiyLitmus,
            None,
            ModelKind::Armish,
            CoreStrength::Relaxed,
        );
        let result = run_campaign(&armish, 2);
        assert!(
            !result.found,
            "correct relaxed design flagged under ARMish: {result:?}"
        );

        let tso = quick_cell(
            GeneratorKind::DiyLitmus,
            None,
            ModelKind::Tso,
            CoreStrength::Relaxed,
        );
        assert_eq!(tso.model(), ModelKind::Tso);
        let result = run_campaign(&tso, 2);
        assert!(
            result.found,
            "a relaxed core must be flagged by a TSO campaign: {result:?}"
        );
    }

    #[test]
    fn retargeting_switches_bias_and_result_records_model() {
        let cfg = quick_cell(
            GeneratorKind::McVerSiRand,
            None,
            ModelKind::Armish,
            CoreStrength::Strong,
        );
        assert_eq!(cfg.model(), ModelKind::Armish);
        assert!(
            cfg.mcversi.testgen.bias.write_data_dp > 0,
            "relaxed targets default to the relaxed operation bias"
        );
        let result = run_campaign(&cfg, 1);
        assert_eq!(result.model, ModelKind::Armish);
        assert!(!result.found, "correct design under a weaker model");
    }

    #[test]
    fn parallel_samples_use_distinct_seeds() {
        let cfg = quick_config(GeneratorKind::DiyLitmus, Some(Bug::LqNoTso));
        let seeds: Vec<u64> = run_sample_subset(&cfg, &[0, 1, 2], 10, &mut NullSink)
            .into_iter()
            .map(|outcome| outcome.into_result(&cfg).seed)
            .collect();
        assert_eq!(seeds, vec![10, 11, 12]);
    }

    /// The deterministic portion of a result (everything except wall time).
    fn fingerprint(
        r: &CampaignResult,
    ) -> (
        u64,
        bool,
        Option<String>,
        usize,
        Option<usize>,
        u64,
        u64,
        u64,
    ) {
        (
            r.seed,
            r.found,
            r.detail.clone(),
            r.test_runs,
            r.found_at_run,
            r.simulated_cycles,
            r.max_total_coverage.to_bits(),
            r.final_mean_ndt.to_bits(),
        )
    }

    #[test]
    fn sample_batches_are_deterministic_across_parallelism() {
        let batch = |cfg: &CampaignConfig| -> Vec<_> {
            run_sample_subset(cfg, &[0, 1, 2, 3], 7, &mut NullSink)
                .into_iter()
                .map(|outcome| fingerprint(&outcome.into_result(cfg)))
                .collect()
        };
        let mut cfg = quick_config(GeneratorKind::McVerSiRand, Some(Bug::LqNoTso));
        cfg.parallelism = 1;
        let serial = batch(&cfg);
        cfg.parallelism = 4;
        for _ in 0..2 {
            assert_eq!(serial, batch(&cfg), "scheduling must not affect results");
        }
    }

    #[test]
    fn streamed_batch_isolates_panicking_samples() {
        // A test source generating more threads than the system has cores
        // makes every sample panic inside `run_iteration`; the batch must
        // report each as a `Panicked` outcome (and stream the panic event)
        // without aborting.
        let mut cfg = quick_config(GeneratorKind::McVerSiRand, None);
        cfg.mcversi.testgen.num_threads = cfg.mcversi.system.num_cores + 1;
        cfg.parallelism = 2;
        let mut sink = CollectSink::new();
        let outcomes = run_sample_subset(&cfg, &[0, 1, 2], 5, &mut sink);
        assert_eq!(outcomes.len(), 3);
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                SampleOutcome::Panicked { seed, message } => {
                    assert_eq!(*seed, 5 + i as u64);
                    assert!(message.contains("threads"), "unexpected panic: {message}");
                }
                other => panic!("expected a panic outcome, got {other:?}"),
            }
        }
        assert!(sink.results().is_empty(), "no sample completed");
    }

    #[test]
    fn streamed_events_arrive_in_per_sample_order() {
        use crate::sink::CampaignEvent;

        #[derive(Debug, Default)]
        struct Recorder(Vec<CampaignEvent>);
        impl CampaignSink for Recorder {
            fn on_event(&mut self, event: &CampaignEvent) {
                self.0.push(event.clone());
            }
        }

        let cfg = quick_config(GeneratorKind::McVerSiRand, Some(Bug::LqNoTso));
        let mut recorder = Recorder::default();
        let outcomes = run_sample_subset(&cfg, &[0, 1], 3, &mut recorder);
        assert_eq!(outcomes.len(), 2);

        for seed in [3u64, 4] {
            let events: Vec<&CampaignEvent> = recorder
                .0
                .iter()
                .filter(|e| match e {
                    CampaignEvent::SampleStart { seed: s, .. }
                    | CampaignEvent::TestRun { seed: s, .. }
                    | CampaignEvent::Violation { seed: s, .. }
                    | CampaignEvent::SamplePanic { seed: s, .. }
                    | CampaignEvent::Metrics { seed: s, .. } => *s == seed,
                    CampaignEvent::SampleDone { result } => result.seed == seed,
                    _ => false,
                })
                .collect();
            assert!(
                matches!(events.first(), Some(CampaignEvent::SampleStart { .. })),
                "first event of seed {seed} must be SampleStart"
            );
            assert!(
                matches!(events.last(), Some(CampaignEvent::SampleDone { .. })),
                "last event of seed {seed} must be SampleDone"
            );
            // Test-run indices are strictly increasing within the sample.
            let runs: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    CampaignEvent::TestRun { run, .. } => Some(*run),
                    _ => None,
                })
                .collect();
            assert!(!runs.is_empty());
            assert!(runs.windows(2).all(|w| w[0] < w[1]), "runs: {runs:?}");
            // The collected SampleDone result matches the returned outcome,
            // and a found bug was announced through a Violation event.
            let done_found = events
                .iter()
                .any(|e| matches!(e, CampaignEvent::SampleDone { result } if result.found));
            let violated = events
                .iter()
                .any(|e| matches!(e, CampaignEvent::Violation { .. }));
            assert_eq!(done_found, violated);
        }
    }

    /// The telemetry differential: metric recording must never change what a
    /// campaign does.  A metrics-enabled run (with the global telemetry flag
    /// forced on) produces the same deterministic result fields as a
    /// metrics-off run — i.e. results are bit-identical to the pre-telemetry
    /// behaviour.
    #[test]
    fn metrics_do_not_change_campaign_results() {
        let base = quick_config(GeneratorKind::McVerSiRand, Some(Bug::LqNoTso));
        let off = run_campaign(&base, 11);
        assert!(off.metrics.is_none(), "metrics off leaves no snapshot");
        let mut on = base.clone();
        on.metrics = Some(0);
        let on = run_campaign(&on, 11);
        assert_eq!(fingerprint(&off), fingerprint(&on));
        let snapshot = on.metrics.expect("metrics on yields a snapshot");
        assert!(
            snapshot.timers.contains_key("phase.generate"),
            "phase timers recorded: {:?}",
            snapshot.timers.keys().collect::<Vec<_>>()
        );
    }

    /// Counters and histograms (the deterministic part of a snapshot) are
    /// identical across repeated runs with the same seed; wall-clock timers
    /// are exempt.
    #[test]
    fn metrics_snapshots_are_deterministic_under_a_fixed_seed() {
        let mut cfg = quick_config(GeneratorKind::McVerSiRand, Some(Bug::LqNoTso));
        cfg.metrics = Some(0);
        let first = run_campaign(&cfg, 13).metrics.unwrap();
        let second = run_campaign(&cfg, 13).metrics.unwrap();
        assert!(!first.counters.is_empty(), "simulator counters recorded");
        assert_eq!(first.deterministic_part(), second.deterministic_part());
    }

    /// A correct design whose cycle budget no test can meet hangs on the
    /// first iteration, and the hang is reported as a hang — not as the
    /// protocol fault the simulator's budget record would otherwise read as.
    #[test]
    fn exceeded_cycle_budget_is_reported_as_a_hang() {
        let mut cfg = quick_config(GeneratorKind::McVerSiRand, None);
        cfg.mcversi.system.max_cycles_per_iteration = 10;
        let (_, test, _) =
            TestSource::for_model(cfg.generator, cfg.mcversi.testgen.clone(), 1, cfg.model())
                .next_test();
        let mut runner = TestRunner::new(cfg.effective_mcversi(), BugConfig::none());
        let result = runner.run_test(&test);
        assert_eq!(result.verdict, RunVerdict::Hang);
        assert_eq!(result.iterations_run, 1);

        let result = run_campaign(&cfg, 1);
        assert!(result.found, "a hang is a caught bug: {result:?}");
        assert_eq!(result.found_at_run, Some(1));
        assert_eq!(
            result.detail.as_deref(),
            Some("iteration hang (cycle budget exceeded)")
        );
    }

    /// With a streaming cadence, cumulative `Metrics` events arrive inside
    /// the sample's event window, at exactly the configured run indices.
    #[test]
    fn metrics_events_stream_at_the_configured_cadence() {
        #[derive(Debug, Default)]
        struct Recorder(Vec<CampaignEvent>);
        impl CampaignSink for Recorder {
            fn on_event(&mut self, event: &CampaignEvent) {
                self.0.push(event.clone());
            }
        }

        let mut cfg = quick_config(GeneratorKind::McVerSiRand, None);
        cfg.metrics = Some(2);
        cfg.max_test_runs = 6;
        let mut recorder = Recorder::default();
        let outcomes = run_sample_subset(&cfg, &[0], 21, &mut recorder);
        assert_eq!(outcomes.len(), 1);

        let metric_runs: Vec<usize> = recorder
            .0
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Metrics { run, .. } => Some(*run),
                _ => None,
            })
            .collect();
        assert_eq!(metric_runs, vec![2, 4, 6]);
        // Cumulative: later snapshots dominate earlier ones counter-wise.
        let snapshots: Vec<&MetricsSnapshot> = recorder
            .0
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Metrics { snapshot, .. } => Some(snapshot),
                _ => None,
            })
            .collect();
        for pair in snapshots.windows(2) {
            for (name, count) in &pair[0].counters {
                assert!(
                    pair[1].counters.get(name).is_some_and(|c| c >= count),
                    "counter {name} must be cumulative"
                );
            }
        }
        // The metrics events sit between SampleStart and SampleDone.
        let start = recorder
            .0
            .iter()
            .position(|e| matches!(e, CampaignEvent::SampleStart { .. }))
            .unwrap();
        let done = recorder
            .0
            .iter()
            .position(|e| matches!(e, CampaignEvent::SampleDone { .. }))
            .unwrap();
        for (i, event) in recorder.0.iter().enumerate() {
            if matches!(event, CampaignEvent::Metrics { .. }) {
                assert!(start < i && i < done, "metrics inside the sample window");
            }
        }
    }

    /// Panic isolation holds with metrics enabled, and the drained panics are
    /// countable through the telemetry event counter.
    #[test]
    fn panicking_samples_are_isolated_and_counted_with_metrics_enabled() {
        let mut cfg = quick_config(GeneratorKind::McVerSiRand, None);
        cfg.metrics = Some(1);
        cfg.mcversi.testgen.num_threads = cfg.mcversi.system.num_cores + 1;
        telemetry::enable();
        telemetry::reset_local();
        cfg.parallelism = 2;
        let mut sink = CollectSink::new();
        let outcomes = run_sample_subset(&cfg, &[0, 1, 2], 5, &mut sink);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, SampleOutcome::Panicked { .. })));
        assert!(sink.results().is_empty(), "no sample completed");
        // The drain loop runs on this thread, so its counter is visible here.
        let snapshot = telemetry::local_snapshot();
        assert_eq!(snapshot.counters["events.sample_panic"], 3);
    }

    #[test]
    fn panicked_sample_becomes_sentinel_result() {
        let cfg = quick_config(GeneratorKind::McVerSiRand, None);
        let outcome = SampleOutcome::Panicked {
            seed: 9,
            message: "boom".to_string(),
        };
        let result = outcome.into_result(&cfg);
        assert!(!result.found);
        assert_eq!(result.seed, 9);
        assert_eq!(result.detail.as_deref(), Some("sample panicked: boom"));
        assert_eq!(result.test_runs, 0);
    }

    #[test]
    fn effective_parallelism_is_bounded() {
        let mut cfg = quick_config(GeneratorKind::McVerSiRand, None);
        assert!(cfg.effective_parallelism(64) >= 1);
        cfg.parallelism = 8;
        assert_eq!(cfg.effective_parallelism(3), 3);
        cfg.parallelism = 2;
        assert_eq!(cfg.effective_parallelism(3), 2);
    }
}
