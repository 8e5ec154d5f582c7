//! The untraced run: end-to-end metrics of one workload.
//!
//! Closed loop, one client: samples run one after another on the calling
//! thread through `run_campaign_observed` (the fabric workload: grids one
//! after another through `run_grid`, the only parallel part).  The first
//! sample of each cell is *pinned*: it runs to its budget whatever
//! `--seconds` says, and the pinned samples alone make the
//! `sim_fingerprint`; every later sample shares the measuring deadline,
//! which cuts the last one at a test-run boundary.
//! Modelled caches start empty on every iteration (`reset_test_mem`).

use crate::metrics::Report;
use crate::stats::{median, tail_percentile};
use crate::workload::{run_sample, Fabric, FabricShape, Fingerprint, Workload};
use mcversi_core::{
    run_campaign_observed, CampaignEvent, CampaignResult, CampaignSink, ScenarioSpec, WallBudget,
};
use mcversi_telemetry::Stopwatch;
use std::collections::BTreeMap;
use std::time::Duration;

/// How often a run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Share of each cell's test-run budget to use (1 except in smoke tests).
    pub scale: f64,
}

/// Per-test-run observations of the measured part of a run.
struct Observed {
    clock: Stopwatch,
    /// Host time at which each test-run completed, its simulated cycles and
    /// the seed of its sample.
    test_runs: Vec<(Duration, u64, u64)>,
}

impl Observed {
    fn start() -> Self {
        Observed {
            clock: Stopwatch::start(),
            test_runs: Vec::new(),
        }
    }

    fn test_run(&mut self, seed: u64, cycles: u64) {
        self.test_runs.push((self.clock.elapsed(), cycles, seed));
    }

    fn remaining(&self, seconds: f64) -> Duration {
        Duration::from_secs_f64((seconds - self.clock.elapsed().as_secs_f64()).max(0.0))
    }

    /// Host time of each test-run in ms: the time since the previous
    /// test-run of the same sample completed.  A sample's first test-run is
    /// not timed.  (On the fabric workload two workers' samples interleave;
    /// the time between any two events would be half a test-run or less.)
    fn run_ms(&self) -> Vec<f64> {
        let mut last_of_sample: BTreeMap<u64, Duration> = BTreeMap::new();
        self.test_runs
            .iter()
            .filter_map(|&(at, _, seed)| {
                let last = last_of_sample.insert(seed, at)?;
                Some((at - last).as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Test-runs per second and simulated cycles per second, each the median
    /// over windows of `window_runs` consecutive test-runs.
    ///
    /// The sandbox slows down by up to 1.5x for seconds at a time; a median
    /// over short windows reads the rate between those phases where a mean
    /// over the run reads their mixture.
    fn rates(&self, window_runs: usize) -> (f64, f64) {
        let per_window = window_runs.clamp(1, self.test_runs.len().max(1));
        let mut run_rates = Vec::new();
        let mut cycle_rates = Vec::new();
        let mut window_start = Duration::ZERO;
        for window in self.test_runs.chunks_exact(per_window) {
            let window_end = window[per_window - 1].0;
            let seconds = (window_end - window_start).as_secs_f64();
            let cycles: u64 = window.iter().map(|&(_, cycles, _)| cycles).sum();
            run_rates.push(per_window as f64 / seconds);
            cycle_rates.push(cycles as f64 / seconds);
            window_start = window_end;
        }
        (median(&run_rates), median(&cycle_rates))
    }
}

impl CampaignSink for Observed {
    fn on_test_run(&mut self, seed: u64, _run: usize, _found: bool, _fitness: f64, cycles: u64) {
        self.test_run(seed, cycles);
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up [`SETUPS`] times and returns the median time in seconds.
fn timed_set_up(workload: &Workload, plan: &Plan) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..SETUPS {
        let clock = Stopwatch::start();
        workload.set_up(plan.seed, plan.scale)?;
        times.push(clock.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

pub fn measure(workload: &Workload, plan: &Plan) -> Result<Report, String> {
    let setup_s = timed_set_up(workload, plan)?;
    let mut report = Report::default();
    let mut fingerprint = Fingerprint::new();
    let mut observed = Observed::start();
    match workload.fabric {
        None => in_process(workload, plan, &mut observed, &mut fingerprint, &mut report),
        Some(shape) => fabric(
            workload,
            shape,
            plan,
            &mut observed,
            &mut fingerprint,
            &mut report,
        )?,
    }
    if observed.test_runs.is_empty() {
        return Err(format!("{}: no test-run completed", workload.name));
    }
    let run_ms = observed.run_ms();
    let (runs_per_s, sim_cycles_per_s) = observed.rates(workload.window_runs);
    let (tail, percentile) = tail_percentile(&run_ms, 95.0);
    report.attempted += observed.test_runs.len() as u64;
    report.fingerprint = fingerprint.hex();
    report.note(format!(
        "{} test-runs measured; run_ms p{percentile:.1} = {tail:.3} ms over {} of them (not bounded: the tail follows the sandbox's slow phases)",
        observed.test_runs.len(),
        run_ms.len()
    ));
    report.set("runs_per_s", runs_per_s);
    report.set("sim_cycles_per_s", sim_cycles_per_s);
    report.set("run_ms_p50", median(&run_ms));
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

fn in_process(
    workload: &Workload,
    plan: &Plan,
    observed: &mut Observed,
    fingerprint: &mut Fingerprint,
    report: &mut Report,
) {
    for index in 0.. {
        let pinned = index < workload.cells.len();
        let remaining = observed.remaining(plan.seconds);
        if !pinned && remaining.is_zero() {
            break;
        }
        let budget = if pinned {
            WallBudget::unlimited()
        } else {
            WallBudget::starting_now(remaining)
        };
        let spec = workload.sample(plan.seed, index, plan.scale);
        let result = run_campaign_observed(&spec.campaign(), spec.base_seed, &budget, &mut |e| {
            if let CampaignEvent::TestRun { seed, cycles, .. } = e {
                observed.test_run(seed, cycles);
            }
        });
        if pinned {
            fingerprint.add_result(&result);
        }
        let cut = !pinned && observed.remaining(plan.seconds).is_zero();
        report.check(workload.check(&spec, &result, cut));
    }
}

/// The fabric workload: whole grids until the next one would end further
/// past the deadline than it starts before it.
fn fabric(
    workload: &Workload,
    shape: FabricShape,
    plan: &Plan,
    observed: &mut Observed,
    fingerprint: &mut Fingerprint,
    report: &mut Report,
) -> Result<(), String> {
    let fabric = Fabric::locate()?;
    let mut first_grid: Vec<(ScenarioSpec, CampaignResult)> = Vec::new();
    let mut grid_s = 0.0;
    for grid in 0.. {
        if grid > 0 && observed.remaining(plan.seconds).as_secs_f64() < grid_s / 2.0 {
            break;
        }
        let started = observed.clock.elapsed();
        let cells: Vec<ScenarioSpec> = (0..shape.cells)
            .map(|k| workload.sample(plan.seed, grid * shape.cells + k, plan.scale))
            .collect();
        let (fabric_report, _) = fabric.run(&cells, shape.workers, shape.shards, observed)?;
        grid_s = (observed.clock.elapsed() - started).as_secs_f64();
        for (spec, results) in &fabric_report.cells {
            match results.as_slice() {
                [result] => report.check(workload.check(spec, result, false)),
                other => report.check(Err(format!(
                    "{}: cell {} returned {} results",
                    workload.name,
                    spec.base_seed,
                    other.len()
                ))),
            }
        }
        if grid == 0 {
            first_grid = fabric_report
                .cells
                .into_iter()
                .take(2)
                .filter_map(|(spec, mut results)| Some((spec, results.pop()?)))
                .collect();
        }
    }
    // Not timed: the first two cells again, in process.  The fabric must
    // return exactly what `run_campaign_observed` does.
    for (index, (spec, from_fabric)) in first_grid.iter().enumerate() {
        let in_process = run_sample(spec);
        report.check(same_result(workload.name, from_fabric, &in_process));
        if index < workload.cells.len() {
            fingerprint.add_result(from_fabric);
        }
    }
    Ok(())
}

/// Compares what the fabric returned for a cell with the in-process result.
pub fn same_result(
    workload: &str,
    from_fabric: &CampaignResult,
    in_process: &CampaignResult,
) -> Result<(), String> {
    let facts = |r: &CampaignResult| {
        let mut f = Fingerprint::new();
        f.add_result(r);
        (f, r.found, r.detail.clone())
    };
    if facts(from_fabric) == facts(in_process) {
        Ok(())
    } else {
        Err(format!(
            "{workload}: seed {} differs between fabric and in-process",
            in_process.seed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_medians_read_the_rate_between_slow_phases() {
        // 100 test-runs of 1000 cycles, 10 ms each, except a slow phase of
        // thirty 15-ms runs in the middle.
        let mut observed = Observed::start();
        let mut at = Duration::ZERO;
        for run in 0..100 {
            at += Duration::from_millis(if (40..70).contains(&run) { 15 } else { 10 });
            observed.test_runs.push((at, 1000, run / 50));
        }
        let (runs_per_s, cycles_per_s) = observed.rates(10);
        assert!((runs_per_s - 100.0).abs() < 1e-9, "{runs_per_s}");
        assert!((cycles_per_s - 100_000.0).abs() < 1e-6, "{cycles_per_s}");
        let mean = 100.0 / at.as_secs_f64();
        assert!(mean < 90.0, "the mean reads the mixture: {mean}");
        // Two samples of 50: the first test-run of each is not timed.
        assert_eq!(observed.run_ms().len(), 98);
        assert_eq!(median(&observed.run_ms()), 10.0);
        // Fewer runs than a window: one window of what there is.
        observed.test_runs.truncate(4);
        assert!((observed.rates(10).0 - 100.0).abs() < 1e-9);
    }
}
