//! Coverage explorer: watch the adaptive coverage fitness drive the GP search.
//!
//! ```text
//! cargo run --example coverage_explorer --release
//! ```
//!
//! Runs the McVerSi-ALL generator on the correct MESI design (no bug) and
//! prints, every few test-runs, the cumulative transition coverage, the
//! current rare-transition cut-off, the population's mean NDT and the best
//! fitness — the quantities §3.2 and §6 of the paper reason about.

use mcversi::core::{GeneratorKind, McVerSiConfig, TestRunner, TestSource};
use mcversi::sim::BugConfig;

fn main() {
    let config = McVerSiConfig::small().with_iterations(3).with_test_size(64);
    let params = config.testgen.clone().with_test_size(64);
    let model = config.model;
    let mut runner = TestRunner::new(config, BugConfig::none());
    let mut source = TestSource::for_model(GeneratorKind::McVerSiAll, params, 99, model);

    println!("run   coverage   distinct   mean-NDT   run-fitness");
    let total_runs = 60;
    for run in 1..=total_runs {
        let (id, test, _) = source.next_test();
        let result = runner.run_test(&test);
        source.feedback(id, &result);
        if run % 5 == 0 {
            println!(
                "{run:>3}   {:>7.1}%   {:>8}   {:>8.2}   {:>11.3}",
                runner.total_coverage() * 100.0,
                runner.host().system().coverage().distinct_covered(),
                source.population_mean_ndt(),
                result.fitness,
            );
        }
        assert!(!result.verdict.is_bug(), "correct design must not fail");
    }
    println!("\ncoverage plateaus as the common transitions saturate; the adaptive");
    println!("cut-off then retargets fitness at the remaining rare transitions.");
}
