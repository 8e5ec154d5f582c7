//! The traced run: per-layer metrics of one workload.
//!
//! The workload's *pinned* samples (the first of each of its cells) run
//! three times in this process.  Untraced through `run_campaign_observed`,
//! as a user runs them.  Then through [`traced_sample`], a hand-written copy
//! of the campaign loop and of Algorithm 2 over `HostInterface` with a span
//! around every call into a layer; the ratio of the two, test-run by
//! test-run, is the tracing overhead.  Last with the program's own telemetry
//! on, for its counters — last and in a process of its own because
//! `telemetry::enable()` is sticky.  All three must agree on the
//! `sim_fingerprint`, which is what makes the copy a faithful one.  Exact
//! counts come from the pinned samples only; timings also from further
//! traced samples until the measuring time is used.

use crate::metrics::Report;
use crate::run::{same_result, Plan};
use crate::spans::{totals, Recorder, Totals};
use crate::stats::median;
use crate::workload::{run_sample, Fabric, FabricShape, Fingerprint, Workload};
use mcversi_analysis::{classify, ClassifyBounds, Dataflow};
use mcversi_conformance::VcChecker;
use mcversi_core::host::{HostInterface, SimHost};
use mcversi_core::lowering::lower;
use mcversi_core::{
    run_campaign_observed, AdaptiveCoverage, CampaignEvent, CampaignResult, NullSink, RunVerdict,
    ScenarioSpec, TestRunResult, TestSource, WallBudget,
};
use mcversi_mcm::checker::Verdict;
use mcversi_mcm::{classify_execution, CandidateExecution, ExecutionSignature, ModelKind};
use mcversi_sim::observer::ExecObserver;
use mcversi_sim::BugConfig;
use mcversi_telemetry::{MetricsSnapshot, Stopwatch};
use mcversi_testgen::{RunConflicts, Test};
use std::collections::{BTreeMap, BTreeSet};

/// Share of the measuring time after which no further traced sample starts
/// (the engine and fabric passes need the rest).
const TRACED_SHARE: f64 = 0.6;
/// Executions kept for the engine pass.
const MAX_EXECUTIONS: usize = 400;
/// Tests kept for the lowering-side engines (observer, static classifier).
const MAX_TESTS: usize = 48;

/// What the engine pass needs from the pinned traced samples.
#[derive(Default)]
struct Captured {
    /// `(test-run scope, model, execution)`; the scope is unique per
    /// test-run, which is the lifetime of a signature cache in the runner.
    executions: Vec<(u64, ModelKind, CandidateExecution)>,
    tests: Vec<Test>,
}

/// The simulated statistics of one traced sample: what `CampaignResult`
/// holds for an untraced one, plus the retired operations.
struct Facts {
    seed: u64,
    test_runs: usize,
    found_at_run: Option<usize>,
    simulated_cycles: u64,
    coverage: f64,
    retired_ops: u64,
}

/// One sample through the benchmark's own copy of `run_campaign_observed`
/// and `TestRunner::run_test` (per-execution checking, pruning off — what
/// every workload spec selects).
fn traced_sample(
    spec: &ScenarioSpec,
    rec: &mut Recorder,
    mut capture: Option<&mut Captured>,
) -> Facts {
    rec.run = 0;
    rec.enter("core.sample");
    let config = spec.campaign();
    let seed = spec.base_seed;
    let mcversi = config.effective_mcversi().with_seed(seed);
    let model = mcversi.model;
    let iterations = mcversi.testgen.iterations.max(1);
    let bugs = config.bug.map_or_else(BugConfig::none, BugConfig::single);
    let mut host = SimHost::with_model(mcversi.system.clone(), bugs, seed, model);
    let mut adaptive = AdaptiveCoverage::new(mcversi.adaptive);
    let mut source = TestSource::for_model(
        config.generator,
        mcversi.testgen.clone(),
        seed.wrapping_add(0x9e37_79b9),
        model,
    );
    let mut facts = Facts {
        seed,
        test_runs: 0,
        found_at_run: None,
        simulated_cycles: 0,
        coverage: 0.0,
        retired_ops: 0,
    };

    while facts.test_runs < config.max_test_runs {
        rec.run = facts.test_runs + 1;
        rec.enter("core.test_run");
        let (id, test, _name) = rec.time("testgen.generate", || source.next_test());
        host.barrier_wait_coarse();
        rec.time("core.lower", || host.make_test_thread(&test));
        let mut conflicts = RunConflicts::new();
        let mut verdict = RunVerdict::Passed;
        let mut cycles = 0u64;
        let mut retired_ops = 0usize;
        let mut iterations_run = 0usize;
        for _ in 0..iterations {
            host.barrier_wait_precise();
            rec.time("sim.reset", || host.reset_test_mem());
            let outcome = rec.time("sim.run_iteration", || host.execute_test());
            iterations_run += 1;
            cycles += outcome.cycles;
            retired_ops += outcome.retired_ops;
            if let Some(err) = outcome.protocol_errors.first() {
                verdict = RunVerdict::ProtocolFault(err.clone());
                break;
            }
            if outcome.hung {
                verdict = RunVerdict::Hang;
                break;
            }
            rec.time("testgen.ndt", || {
                conflicts.add_iteration(&outcome.execution)
            });
            let checked = rec.time("mcm.check", || host.verify_reset_conflict(&outcome));
            if let Some(captured) = capture.as_deref_mut() {
                if captured.executions.len() < MAX_EXECUTIONS {
                    let scope = seed.wrapping_mul(1 << 20).wrapping_add(rec.run as u64);
                    captured.executions.push((scope, model, outcome.execution));
                }
            }
            if let Verdict::Invalid(violation) = checked {
                verdict = RunVerdict::McmViolation(violation);
                break;
            }
        }
        let (covered, fitness) = rec.time("core.fitness", || {
            let covered = host.system_mut().finish_coverage_run();
            let universe = host.system().coverage_universe().to_vec();
            let fitness = adaptive.fitness(&covered, host.system().coverage(), &universe);
            (covered, fitness)
        });
        let analysis = rec.time("testgen.ndt", || conflicts.analyze(&test));
        let result = TestRunResult {
            verdict,
            fitness,
            analysis,
            covered,
            iterations_run,
            cycles,
            retired_ops,
        };
        facts.test_runs += 1;
        facts.simulated_cycles += cycles;
        facts.retired_ops += retired_ops as u64;
        rec.time("testgen.feedback", || source.feedback(id, &result));
        if let Some(captured) = capture.as_deref_mut() {
            if captured.tests.len() < MAX_TESTS {
                captured.tests.push(test);
            }
        }
        rec.exit();
        if result.verdict.is_bug() {
            facts.found_at_run = Some(facts.test_runs);
            break;
        }
    }
    let universe = host.system().coverage_universe().to_vec();
    facts.coverage = host.system().coverage().total_coverage(&universe);
    rec.exit();
    facts
}

/// Median time in µs of `f` over `items`, and the share of items it returns
/// `true` for.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T) -> bool) -> (f64, f64) {
    if items.is_empty() {
        return (0.0, 0.0);
    }
    let mut yes = 0usize;
    let mut each_us = Vec::with_capacity(items.len());
    for item in items {
        let clock = Stopwatch::start();
        if std::hint::black_box(f(std::hint::black_box(item))) {
            yes += 1;
        }
        each_us.push(clock.elapsed().as_secs_f64() * 1e6);
    }
    (median(&each_us), yes as f64 / items.len() as f64)
}

/// Each verdict engine on the same captured executions, and the
/// lowering-side engines on the captured tests — outside the loop spans, so
/// none of it counts as loop time.
fn engines(captured: &Captured, report: &mut Report) {
    let execs = &captured.executions;
    let mut seen: BTreeSet<(u64, ExecutionSignature)> = BTreeSet::new();
    let (signature_us, fresh_share) = time_each(execs, |(scope, _, exec)| {
        seen.insert((*scope, ExecutionSignature::of(exec, *scope)))
    });
    let (oracle_us, oracle_share) = time_each(execs, |(_, model, exec)| {
        classify_execution(exec, *model).certifies_valid()
    });
    let (vc_us, vc_share) = time_each(execs, |(_, model, exec)| {
        VcChecker::new(*model).check(exec).is_valid()
    });
    let events: usize = execs.iter().map(|(_, _, exec)| exec.len()).sum();
    report.set(
        "mcm.events_per_exec",
        events as f64 / execs.len().max(1) as f64,
    );
    report.set(
        "mcm.dup_exec_share",
        if execs.is_empty() {
            0.0
        } else {
            1.0 - fresh_share
        },
    );
    report.set("mcm.signature_us", signature_us);
    report.set("mcm.cycle_oracle_us", oracle_us);
    report.set("mcm.cycle_oracle_certified_share", oracle_share);
    report.set("conformance.vc_us", vc_us);
    report.set("conformance.vc_certified_share", vc_share);

    let programs: Vec<_> = captured.tests.iter().map(lower).collect();
    let (observer_us, _) = time_each(&programs, |p| ExecObserver::new(p).expected_count() > 0);
    let bounds = ClassifyBounds::default();
    let (classify_us, _) = time_each(&programs, |p| {
        !classify(&Dataflow::new(p), &bounds).is_empty()
    });
    report.set("sim.observer_new_us", observer_us);
    report.set("analysis.classify_us", classify_us);
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The simulator's and the checker's own counters over the pinned samples:
/// exact for a seed.
fn counters(snapshot: &MetricsSnapshot, cycles: u64, ops: u64, report: &mut Report) {
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let hits = counter("sim.l1.mesi.hit") + counter("sim.l1.tsocc.hit");
    let misses = counter("sim.l1.mesi.miss") + counter("sim.l1.tsocc.miss");
    let messages = counter("sim.net.msg.request")
        + counter("sim.net.msg.forward")
        + counter("sim.net.msg.response");
    let checks = counter("mcm.checks");
    report.set("sim.cycles_total", cycles as f64);
    report.set("sim.ops_total", ops as f64);
    report.set("sim.cycles_per_op", ratio(cycles, ops));
    report.set("sim.l1_miss_ratio", ratio(misses, hits + misses));
    report.set("sim.net_msgs_per_op", ratio(messages, ops));
    report.set(
        "sim.squashes_per_kop",
        1e3 * ratio(counter("sim.core.squashes"), ops),
    );
    report.set(
        "mcm.axiom_evals_per_check",
        ratio(counter("mcm.axiom_evals"), checks),
    );
    report.set(
        "mcm.closure_row_sweeps_per_check",
        ratio(counter("mcm.closure.row_sweeps"), checks),
    );
    // `phase.observe` is the simulator's own timer inside `run_iteration`.
    let observe = snapshot.timers.get("phase.observe");
    report.set(
        "sim.observe_us",
        observe.map_or(0.0, |t| ratio(t.sum, t.count) / 1e3),
    );
}

/// Host-time metrics from the spans of every traced sample.
fn timings(by_name: &BTreeMap<&'static str, Totals>, simulated_cycles: u64, report: &mut Report) {
    let span = |name: &str| by_name.get(name).copied().unwrap_or_default();
    for (metric, name) in [
        ("sim.run_iteration_us", "sim.run_iteration"),
        ("sim.reset_us", "sim.reset"),
        ("mcm.check_us", "mcm.check"),
        ("testgen.generate_us", "testgen.generate"),
        ("testgen.feedback_us", "testgen.feedback"),
        ("testgen.ndt_us", "testgen.ndt"),
        ("core.fitness_us", "core.fitness"),
        ("core.lower_us", "core.lower"),
    ] {
        report.set(metric, span(name).median_us);
    }
    report.set(
        "sim.host_ns_per_cycle",
        ratio(span("sim.run_iteration").total_ns, simulated_cycles),
    );
    let wall = span("core.sample").total_ns;
    let unattributed = span("core.sample").self_ns + span("core.test_run").self_ns;
    report.set("core.loop_other_share", ratio(unattributed, wall));
    let shares: Vec<String> = by_name
        .iter()
        .filter(|(name, _)| !["core.sample", "core.test_run"].contains(name))
        .map(|(name, t)| format!("{name} {:.1} %", 100.0 * ratio(t.self_ns, wall)))
        .collect();
    report.note(format!("self time of traced wall: {}", shares.join(", ")));
}

/// The multi-process path against the same cells in process.
fn fabric_layer(
    workload: &Workload,
    shape: FabricShape,
    plan: &Plan,
    report: &mut Report,
) -> Result<(), String> {
    let fabric = Fabric::locate()?;
    let in_process = |cells: &[ScenarioSpec]| -> (Vec<CampaignResult>, f64) {
        let clock = Stopwatch::start();
        let results = cells.iter().map(run_sample).collect();
        (results, clock.elapsed().as_secs_f64())
    };

    // Scaling, and the bit-identical check: the first half of the first grid.
    let cells: Vec<ScenarioSpec> = (0..shape.cells / 2)
        .map(|k| workload.sample(plan.seed, k, plan.scale))
        .collect();
    let clock = Stopwatch::start();
    let (grid, journal_bytes) = fabric.run(&cells, shape.workers, shape.shards, &mut NullSink)?;
    let fabric_s = clock.elapsed().as_secs_f64();
    let (expected, in_process_s) = in_process(&cells);
    let mut runs = 0usize;
    for ((_, results), expected) in grid.cells.iter().zip(&expected) {
        runs += expected.test_runs;
        match results.as_slice() {
            [result] => report.check(same_result(workload.name, result, expected)),
            _ => report.check(Err(format!(
                "{}: seed {} returned {} results",
                workload.name,
                expected.seed,
                results.len()
            ))),
        }
    }
    report.set("fabric.scaling", in_process_s / fabric_s);
    report.set("fabric.dispatches", grid.stats.dispatched as f64);
    report.set("fabric.steals", grid.stats.stolen as f64);
    report.set(
        "fabric.journal_bytes_per_run",
        ratio(journal_bytes, runs as u64),
    );

    // Dispatch cost: cells of one test-run (the first of a vetted sample),
    // a shard each, one worker, so that every cell pays one spawn, one shard
    // encode, one event stream and one journal round.
    let one_run: Vec<ScenarioSpec> = (0..32)
        .map(|k| {
            let mut spec = workload.sample(plan.seed, 500 + k, plan.scale);
            spec.max_test_runs = 1;
            spec
        })
        .collect();
    let clock = Stopwatch::start();
    fabric.run(&one_run, 1, one_run.len(), &mut NullSink)?;
    let dispatched_s = clock.elapsed().as_secs_f64();
    let (_, direct_s) = in_process(&one_run);
    report.set(
        "fabric.dispatch_ms",
        (dispatched_s - direct_s) * 1e3 / one_run.len() as f64,
    );
    Ok(())
}

fn same_fingerprint(
    workload: &Workload,
    pass: &str,
    got: Fingerprint,
    untraced: Fingerprint,
) -> Result<(), String> {
    if got == untraced {
        Ok(())
    } else {
        Err(format!(
            "{}: {pass} fingerprint {} differs from untraced {}",
            workload.name,
            got.hex(),
            untraced.hex()
        ))
    }
}

pub fn measure(
    workload: &Workload,
    plan: &Plan,
    spans_path: Option<&str>,
) -> Result<Report, String> {
    workload.set_up(plan.seed, plan.scale)?;
    let mut report = Report::default();
    let clock = Stopwatch::start();
    let pinned_specs: Vec<ScenarioSpec> = (0..workload.cells.len())
        .map(|index| workload.sample(plan.seed, index, plan.scale))
        .collect();

    // Sample by sample: untraced as a user runs it, then at once — so that
    // a slow phase of the host is likely to hit both or neither — through
    // the benchmark's copy of the loop, spans on, telemetry still off.  The
    // pinned samples first, then further ones for steadier timings.
    let mut rec = Recorder::new();
    let mut captured = Captured::default();
    let (mut untraced, mut traced) = (Fingerprint::new(), Fingerprint::new());
    let mut norm_time = 0.0;
    let mut detect_s = 0.0;
    let (mut pinned_cycles, mut pinned_ops, mut pinned_runs) = (0u64, 0u64, 0usize);
    let (mut simulated_cycles, mut test_runs) = (0u64, 0usize);
    let mut untraced_run_ns: Vec<f64> = Vec::new();
    for index in 0.. {
        let pinned = index < pinned_specs.len();
        if !pinned && clock.elapsed().as_secs_f64() >= plan.seconds * TRACED_SHARE {
            break;
        }
        let spec = workload.sample(plan.seed, index, plan.scale);
        let sample_clock = Stopwatch::start();
        let mut last = sample_clock.elapsed();
        let result = run_campaign_observed(
            &spec.campaign(),
            spec.base_seed,
            &WallBudget::unlimited(),
            &mut |event| {
                if let CampaignEvent::TestRun { .. } = event {
                    let now = sample_clock.elapsed();
                    untraced_run_ns.push((now - last).as_nanos() as f64);
                    last = now;
                }
            },
        );
        let untraced_s = sample_clock.elapsed().as_secs_f64();
        report.check(workload.check(&spec, &result, false));
        rec.sample = index;
        let facts = traced_sample(&spec, &mut rec, pinned.then_some(&mut captured));
        simulated_cycles += facts.simulated_cycles;
        test_runs += facts.test_runs;
        if pinned {
            detect_s += untraced_s;
            norm_time += result.normalized_time_to_bug(spec.max_test_runs);
            untraced.add_result(&result);
            traced.add(
                facts.seed,
                facts.test_runs,
                facts.found_at_run,
                facts.simulated_cycles,
                facts.coverage,
            );
            pinned_cycles += facts.simulated_cycles;
            pinned_ops += facts.retired_ops;
            pinned_runs += facts.test_runs;
        }
    }
    report.check(same_fingerprint(workload, "traced", traced, untraced));
    report.fingerprint = untraced.hex();
    report.set("testgen.detect_s", detect_s);
    report.set(
        "testgen.detect_norm_time",
        norm_time / pinned_specs.len() as f64,
    );
    // Test-run by test-run, traced over untraced: both ran the same tests,
    // and the median of the ratios ignores the test-runs that a slow phase
    // hit in one of the two only.
    let ratios: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|span| span.name == "core.test_run")
        .zip(&untraced_run_ns)
        .map(|(span, untraced_ns)| (span.end_ns - span.start_ns) as f64 / untraced_ns)
        .collect();
    report.set("telemetry.trace_overhead_share", median(&ratios) - 1.0);
    timings(&totals(rec.spans()), simulated_cycles, &mut report);
    report.attempted += test_runs as u64;
    report.note(format!(
        "{test_runs} traced test-runs ({pinned_runs} pinned) in {} samples, {} spans; {} executions and {} tests captured",
        rec.sample + 1,
        rec.spans().len(),
        captured.executions.len(),
        captured.tests.len()
    ));

    // The program's own telemetry on: the pinned samples once more for
    // their counters.  Last, because `telemetry::enable()` is sticky and
    // its counters cost the simulator 5-10 % — which is why the spans above
    // were timed without them.
    let mut snapshot = MetricsSnapshot::default();
    let mut counted = Fingerprint::new();
    for spec in &pinned_specs {
        let result = run_sample(&spec.clone().metrics(0));
        counted.add_result(&result);
        if let Some(metrics) = &result.metrics {
            snapshot.merge(metrics);
        }
    }
    report.check(same_fingerprint(
        workload,
        "telemetry-on",
        counted,
        untraced,
    ));
    counters(&snapshot, pinned_cycles, pinned_ops, &mut report);

    engines(&captured, &mut report);
    match workload.fabric {
        Some(shape) => fabric_layer(workload, shape, plan, &mut report)?,
        None => {
            for name in [
                "fabric.dispatch_ms",
                "fabric.scaling",
                "fabric.dispatches",
                "fabric.steals",
                "fabric.journal_bytes_per_run",
            ] {
                report.set(name, 0.0);
            }
        }
    }
    if let Some(path) = spans_path {
        let json = serde_json::to_string(rec.spans()).expect("serialization is infallible");
        std::fs::write(path, json).map_err(|e| format!("cannot write spans to `{path}`: {e}"))?;
    }
    Ok(report)
}
