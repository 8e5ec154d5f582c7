//! Benchmark harness and experiment support for the McVerSi reproduction.
//!
//! The `benches/` directory contains micro-benchmarks, on the [`timing`]
//! loop, of the costs the benchmark (`benchmark/`) has no per-layer metric
//! for — relation closure and cycle search, coverage fitness and recording,
//! crossover, and a test-run's four checks over one static part — and
//! `src/bin/` contains one binary per table or figure of the paper's
//! evaluation (README.md has the index).

#![forbid(unsafe_code)]

pub mod core_matrix;
pub mod experiment;
pub mod matrix;
pub mod timing;

pub use core_matrix::{core_matrix_rows, run_core_matrix};
pub use experiment::{banner, metrics_summary, table_columns, write_artifact};

pub use matrix::{render_matrix, shape_expectations, verify_enumerated_corpus};

#[cfg(test)]
mod smoke {
    use mcversi_core::{GeneratorKind, ScenarioSpec};

    /// Crate-level smoke test: experiment scaffolding builds a campaign and
    /// the vendored serde stack round-trips a spec through JSON.
    #[test]
    fn scaffolding_and_artifacts() {
        let spec = ScenarioSpec::from_env()
            .generator(GeneratorKind::McVerSiRand)
            .test_memory(1024);
        let campaign = spec.campaign();
        assert!(campaign.max_test_runs >= 1);
        let json = serde_json::to_string_pretty(&campaign.mcversi.system)
            .expect("system config serializes");
        assert!(json.contains("\"num_cores\""), "json was: {json}");
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("spec round trip");
        assert_eq!(back, spec);
    }
}
