//! Regenerates the §6.1 NDT analysis: how the average non-determinism of the
//! GP population evolves over test-runs, for 1 KB and 8 KB test memories and
//! for the selective vs. standard crossover.
//!
//! The paper's finding: with 1 KB of test memory the initial random population
//! already exceeds NDT 2.0; with 8 KB it starts around 1.1 and only
//! McVerSi-ALL (selective crossover) pushes it to 2.0 or above.  The four
//! traced configurations form the generator axis of one declarative
//! [`mcversi_core::ScenarioGrid`]; the per-test-run NDT samples
//! are this binary's own trace (it observes the generator, not a campaign).

use mcversi_bench::{banner, write_artifact};
use mcversi_core::{ScenarioGrid, ScenarioSpec, TestRunner, TestSource};
use mcversi_sim::BugConfig;
use mcversi_telemetry as telemetry;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct NdtTracePoint {
    test_run: usize,
    mean_population_ndt: f64,
    run_ndt: f64,
}

#[derive(Debug, Serialize)]
struct NdtTrace {
    label: String,
    points: Vec<NdtTracePoint>,
}

fn main() {
    use mcversi_core::GeneratorKind::*;
    let base = ScenarioSpec::from_env().seed(7);
    banner("NDT evolution (paper §6.1)", &base);
    // This binary drives the runner directly (no campaign loop), so the
    // telemetry opt-in and the final snapshot are handled here.
    if base.metrics.is_some() {
        telemetry::enable();
    }
    telemetry::reset_local();
    let grid = ScenarioGrid::new(base).generator_columns([
        (McVerSiAll, 1024, None),
        (McVerSiAll, 8 * 1024, None),
        (McVerSiStdXo, 8 * 1024, None),
        (McVerSiRand, 8 * 1024, None),
    ]);
    let mut traces = Vec::new();

    for cell in grid.cells() {
        let label = cell.display_label();
        println!("{label} ...");
        let cfg = cell.mcversi();
        let params = cfg.testgen.clone();
        let mut runner = TestRunner::new(cfg, BugConfig::none());
        let mut source = TestSource::for_model(cell.generator, params, cell.base_seed, cell.model);
        let mut points = Vec::new();
        for run in 1..=cell.max_test_runs {
            let (id, test, _) = source.next_test();
            let result = runner.run_test(&test);
            source.feedback(id, &result);
            points.push(NdtTracePoint {
                test_run: run,
                mean_population_ndt: source.population_mean_ndt(),
                run_ndt: result.analysis.ndt,
            });
        }
        let first = points.first().map(|p| p.run_ndt).unwrap_or(0.0);
        let last_mean = points.last().map(|p| p.mean_population_ndt).unwrap_or(0.0);
        let max_run = points.iter().map(|p| p.run_ndt).fold(0.0f64, f64::max);
        println!(
            "  initial run NDT {:.2}, final population mean NDT {:.2}, max run NDT {:.2}",
            first, last_mean, max_run
        );
        traces.push(NdtTrace { label, points });
    }

    println!("\nSeries (test-run index vs population mean NDT):");
    for trace in &traces {
        print!("{:<22}", trace.label);
        let step = (trace.points.len() / 10).max(1);
        for p in trace.points.iter().step_by(step) {
            print!(" {:.2}", p.mean_population_ndt);
        }
        println!();
    }

    let snapshot = telemetry::local_snapshot();
    if !snapshot.is_empty() {
        println!(
            "\ntelemetry: {} counter(s), {} ns in phase timers",
            snapshot.counters.len(),
            snapshot.timer_sum_ns("phase.")
        );
    }

    if let Ok(path) = write_artifact("ndt_evolution.json", &traces) {
        println!("\nartifact: {}", path.display());
    }
}
