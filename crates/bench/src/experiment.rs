//! Shared plumbing for the experiment binaries.
//!
//! Every experiment binary regenerates one table or figure of the paper's
//! evaluation.  Sweeps are described declaratively: the binaries build a
//! [`mcversi_core::ScenarioGrid`] around the base spec that `MCVERSI_SPEC`
//! names (a JSON [`ScenarioSpec`] file such as `examples/scenario.json`,
//! `examples/smoke.json` or `examples/paper.json`; unset means
//! [`ScenarioSpec::small`]), with the model and core-strength axes from
//! `MCVERSI_MODELS` / `MCVERSI_CORES` (see the `mcversi_core::scenario`
//! module documentation for the variable table), and report through
//! `mcversi_core::sink::CampaignSink` implementations; no binary reads the
//! environment directly.
//!
//! Results are printed as plain-text tables and also written as JSON under
//! `target/experiments/` so EXPERIMENTS.md can reference machine-readable
//! artifacts; setting `MCVERSI_JSONL` additionally streams every campaign
//! event to a JSONL file while the sweep runs.

use mcversi_core::scenario::GeneratorColumn;
use mcversi_core::{CampaignResult, GeneratorKind, ScenarioSpec};
use mcversi_telemetry::MetricsSnapshot;
use serde::Serialize;
use std::path::PathBuf;

/// The seven generator configurations compared in Table 4 / Table 6, as a
/// [`mcversi_core::ScenarioGrid`] generator axis.
pub fn table_columns() -> Vec<GeneratorColumn> {
    let kib = 1024u64;
    vec![
        (GeneratorKind::McVerSiAll, kib, None),
        (GeneratorKind::McVerSiAll, 8 * kib, None),
        (GeneratorKind::McVerSiStdXo, kib, None),
        (GeneratorKind::McVerSiStdXo, 8 * kib, None),
        (GeneratorKind::McVerSiRand, kib, None),
        (GeneratorKind::McVerSiRand, 8 * kib, None),
        (GeneratorKind::DiyLitmus, 8 * kib, None),
    ]
}

/// Writes a JSON artifact under `target/experiments/`.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// One-line telemetry summary over a sweep's collected results, or `None`
/// when the campaign ran without telemetry (the spec's `metrics` unset).
///
/// The line reports how many per-sample snapshots were collected, the
/// counter-name count, and the share of sample wall time the `phase.*`
/// timers attribute — the quantity the acceptance bar of the telemetry layer
/// is phrased in (full per-counter tables come from `mcversi-report` over a
/// `MCVERSI_JSONL` stream).
pub fn metrics_summary(results: &[CampaignResult]) -> Option<String> {
    let mut total = MetricsSnapshot::default();
    let mut snapshots = 0usize;
    for result in results {
        if let Some(snapshot) = &result.metrics {
            total.merge(snapshot);
            snapshots += 1;
        }
    }
    if snapshots == 0 || total.is_empty() {
        return None;
    }
    let phase_ns = total.timer_sum_ns("phase.");
    let wall_ns: u64 = results
        .iter()
        .filter(|r| r.metrics.is_some())
        .map(|r| r.wall_time.as_nanos() as u64)
        .sum();
    let share = if wall_ns > 0 {
        100.0 * phase_ns as f64 / wall_ns as f64
    } else {
        0.0
    };
    Some(format!(
        "telemetry: {snapshots} sample snapshot(s), {} counter(s), \
         phase timers cover {share:.1}% of sample wall time",
        total.counters.len()
    ))
}

/// Prints the standard experiment banner for a sweep's base spec.
pub fn banner(title: &str, spec: &ScenarioSpec) {
    println!("=== {title} ===");
    println!(
        "scale: {} samples, {} test-runs/sample, {} ops/test, {} iterations, {} cores, {}",
        spec.samples,
        spec.max_test_runs,
        spec.test_size,
        spec.iterations,
        spec.cores,
        if spec.full {
            "FULL (paper) system"
        } else {
            "scaled-down system"
        },
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_core::{grid_from_env, ScenarioGrid};
    use mcversi_mcm::ModelKind;
    use mcversi_sim::CoreStrength;

    #[test]
    fn default_scale_is_small_and_columns_cover_the_paper() {
        let spec = ScenarioSpec::from_env();
        assert!(spec.samples >= 1);
        assert!(spec.max_test_runs >= 1);
        let grid = ScenarioGrid::new(spec).generator_columns(table_columns());
        assert_eq!(grid.column_labels().len(), 7);
        assert!(grid.column_labels().iter().any(|l| l == "diy-litmus"));
    }

    #[test]
    fn default_models_cover_at_least_four_architectures() {
        if std::env::var("MCVERSI_MODELS").is_ok() {
            return; // respect an explicit override in the environment
        }
        let models: Vec<ModelKind> = grid_from_env().cells().iter().map(|c| c.model).collect();
        assert!(models.len() >= 4);
        for model in [
            ModelKind::Sc,
            ModelKind::Tso,
            ModelKind::Armish,
            ModelKind::Rmo,
        ] {
            assert!(models.contains(&model), "{model} missing");
        }
    }

    #[test]
    fn default_core_strength_is_strong_and_cells_compose() {
        if std::env::var("MCVERSI_CORES").is_ok() {
            return; // respect an explicit override in the environment
        }
        assert!(grid_from_env()
            .cells()
            .iter()
            .all(|c| c.core_strength == CoreStrength::Strong));
        let cell = ScenarioSpec::from_env()
            .model(ModelKind::Armish)
            .core_strength(CoreStrength::Relaxed);
        assert_eq!(cell.campaign().core_strength(), CoreStrength::Relaxed);
        assert_eq!(cell.campaign().model(), ModelKind::Armish);
    }

    #[test]
    fn config_builder_respects_memory_and_threads() {
        let spec = ScenarioSpec::from_env().test_memory(1024);
        let cfg = spec.mcversi();
        assert_eq!(cfg.testgen.test_memory_bytes, 1024);
        assert_eq!(cfg.testgen.num_threads, cfg.system.num_cores);
        let campaign = spec.test_memory(8192).campaign();
        assert_eq!(campaign.mcversi.testgen.test_memory_bytes, 8192);
    }
}
