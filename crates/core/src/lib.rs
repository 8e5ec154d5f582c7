//! The McVerSi framework: coverage-directed MCM test generation in simulation.
//!
//! This crate ties the three lower layers together into the verification flow
//! of the paper:
//!
//! * [`lowering`] turns a generated [`mcversi_testgen::Test`] into an
//!   executable [`mcversi_sim::TestProgram`] (the analogue of on-the-fly code
//!   emission to the target ISA), assigning globally unique write values;
//! * [`host`] is the guest–host interface of Table 1 and [`runner`] is the
//!   guest workload kernel of Algorithm 2: it executes a test-run (several
//!   iterations of one test), checks every iteration against the target MCM,
//!   and accumulates the observed conflict orders for the NDT analysis;
//! * [`coverage`] implements the adaptive structural-coverage fitness of
//!   §3.2 (rare-transition coverage with an exponentially increasing cut-off);
//! * [`generator`] wraps the four test sources compared in the evaluation
//!   (McVerSi-ALL, McVerSi-Std.XO, McVerSi-RAND, diy-litmus);
//! * [`scenario`] is the declarative campaign description: one serializable
//!   [`ScenarioSpec`] per sweep cell, [`ScenarioGrid`] for cartesian sweeps,
//!   and the consolidated `MCVERSI_*` environment parsing;
//! * [`campaign`] runs generator × bug verification campaigns and the
//!   coverage campaigns behind Tables 4, 5 and 6, streaming events through
//!   [`sink`] implementations (whose JSONL writer and reader every event
//!   stream and fabric journal shares); [`report`] renders them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod config;
pub mod coverage;
pub mod generator;
pub mod host;
pub mod lowering;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sink;

pub use campaign::{
    run_campaign, run_campaign_observed, run_sample_subset, run_samples, run_samples_streamed,
    CampaignConfig, CampaignResult, SampleOutcome, WallBudget,
};
pub use config::McVerSiConfig;
pub use coverage::{AdaptiveCoverage, AdaptiveCoverageConfig};
pub use generator::{GeneratorKind, TestSource};
pub use runner::{CheckingMode, RunVerdict, TestRunResult, TestRunner};
pub use scenario::{
    fabric_from_env, grid_from_env, FabricEnv, ScenarioGrid, ScenarioSpec, SeedPolicy, SpecError,
};
pub use sink::{CampaignEvent, CampaignSink, CollectSink, JsonlSink, NullSink, ProgressSink};

#[cfg(test)]
mod smoke {
    use crate::lowering::lower;
    use mcversi_testgen::{RandomTestGenerator, TestGenParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Crate-level smoke test: a generated test lowers to a valid program.
    #[test]
    fn program_build() {
        let params = TestGenParams::small().with_test_size(16).with_threads(2);
        let test = RandomTestGenerator::new(params).generate(&mut StdRng::seed_from_u64(1));
        let program = lower(&test);
        assert_eq!(program.total_ops(), 16);
        assert!(program.written_values_unique());
    }
}
