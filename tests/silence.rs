//! The silence gate: a bug-free design reports nothing.
//!
//! McVerSi's verdicts are only worth something if the correct design is
//! silent: no MCM violation, no protocol fault (an invalid transition) and no
//! hang, at every shape the tables and the benchmark run.  Each cell below is
//! random testing (`McVerSiRand`) of the bug-free system on a few fixed
//! seeds, and every sample must use up its test-run budget without a finding.
//!
//! The grid crosses both protocols, both core strengths (each checked
//! against the model it implements), two test-memory sizes and two test
//! sizes on the 4-core system, plus a slice of the paper's 8-core,
//! 1000-operation shape.  A MESI L1 that keeps no line for an exclusive
//! grant after a sunk invalidation fails here within a few test-runs.  A
//! core that forwards from a write that already reached its L1 goes wrong
//! too rarely for a gate of this size; the directed tests in
//! `crates/sim/src/core.rs` pin that fix.

use mcversi::core::{run_campaign, ScenarioSpec};
use mcversi::mcm::ModelKind;
use mcversi::sim::{CoreStrength, ProtocolKind};

/// Test-runs per sample of the 4-core cells.
const RUNS: usize = 12;
/// Sample seeds of each 4-core cell.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=4;

/// Runs `spec` on every seed of `seeds` and panics naming each sample that
/// found something or stopped short of its budget.
fn assert_silent(spec: &ScenarioSpec, seeds: impl IntoIterator<Item = u64>) {
    let config = spec.campaign();
    let findings: Vec<String> = seeds
        .into_iter()
        .map(|seed| (seed, run_campaign(&config, seed)))
        .filter(|(_, result)| result.found || result.test_runs != spec.max_test_runs)
        .map(|(seed, result)| {
            format!(
                "{} seed {seed}: run {:?} of {}: {}",
                spec.display_label(),
                result.found_at_run,
                result.test_runs,
                result.detail.unwrap_or_default()
            )
        })
        .collect();
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

/// The 4-core cells of `protocol` at one core strength, checked against the
/// model that strength implements.
fn small_cells(protocol: ProtocolKind, strength: CoreStrength) {
    let model = match strength {
        CoreStrength::Strong => ModelKind::Tso,
        CoreStrength::Relaxed => ModelKind::Armish,
    };
    for test_memory in [1024, 8 * 1024] {
        for test_size in [64, 256] {
            let mut spec = ScenarioSpec::small()
                .protocol(protocol)
                .core_strength(strength)
                .model(model)
                .test_memory(test_memory);
            spec.test_size = test_size;
            spec.max_test_runs = RUNS;
            assert_silent(&spec, SEEDS);
        }
    }
}

#[test]
fn mesi_strong_core_is_silent_under_tso() {
    small_cells(ProtocolKind::Mesi, CoreStrength::Strong);
}

#[test]
fn mesi_relaxed_core_is_silent_under_armish() {
    small_cells(ProtocolKind::Mesi, CoreStrength::Relaxed);
}

#[test]
fn tsocc_strong_core_is_silent_under_tso() {
    small_cells(ProtocolKind::TsoCc, CoreStrength::Strong);
}

#[test]
fn tsocc_relaxed_core_is_silent_under_armish() {
    small_cells(ProtocolKind::TsoCc, CoreStrength::Relaxed);
}

#[test]
fn the_paper_shape_is_silent() {
    // 8 cores, 1000-op tests, 10 iterations per test-run.
    for protocol in [ProtocolKind::Mesi, ProtocolKind::TsoCc] {
        let mut spec = ScenarioSpec::paper().protocol(protocol).test_memory(1024);
        spec.max_test_runs = 2;
        assert_silent(&spec, [1]);
    }
}
