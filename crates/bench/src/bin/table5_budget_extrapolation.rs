//! Regenerates paper Table 5: bugs found within growing budgets.
//!
//! The paper observes that the stateless generators (pseudo-random, litmus) do
//! not improve over time, so running ten 24-hour samples is equivalent to one
//! 10-day run; Table 5 reports the fraction of bugs found within 1, 5 and 10
//! budget units.  This binary performs the same extrapolation over the scaled
//! budgets: one [`mcversi_core::ScenarioGrid`] per generator
//! row sweeps the paper's Table 4 bug corpus, and the fraction of bugs found
//! within 1×, 5× and 10× the per-sample budget is reported.

use mcversi_bench::{banner, metrics_summary, write_artifact};
use mcversi_core::report::{aggregate_cell, budget_extrapolation};
use mcversi_core::scenario::jsonl_sink_from_env;
use mcversi_core::sink::NullSink;
use mcversi_core::{GeneratorKind, ScenarioGrid, ScenarioSpec, SeedPolicy};
use mcversi_sim::Bug;
use std::collections::BTreeMap;

fn main() {
    let base = ScenarioSpec::from_env();
    let mut jsonl = jsonl_sink_from_env();
    banner("Table 5: bugs found within growing budgets", &base);
    let rows: Vec<(GeneratorKind, u64)> = vec![
        (GeneratorKind::McVerSiAll, 8 * 1024),
        (GeneratorKind::McVerSiRand, 1024),
        (GeneratorKind::McVerSiRand, 8 * 1024),
        (GeneratorKind::DiyLitmus, 8 * 1024),
    ];
    let multiples = [1usize, 5, 10];
    let mut report: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
    let mut all_raw = Vec::new();

    for (generator, memory) in rows {
        let grid = ScenarioGrid::new(base.clone().generator(generator).test_memory(memory))
            .bugs(Bug::ALL)
            .seed_policy(SeedPolicy::Strided {
                base: 500,
                bug_weight: 37,
                model_weight: 0,
                core_weight: 0,
            });
        let label = grid.base().display_label();
        println!("{label} ...");
        let mut cells = Vec::new();
        for cell in grid.cells() {
            let results = match &mut jsonl {
                Some(sink) => cell.run(sink),
                None => cell.run(&mut NullSink),
            };
            let bug = cell
                .bug
                .expect("the table-5 bug axis has no correct-design cells");
            cells.push((
                bug,
                aggregate_cell(cell.generator, &label, &results, cell.max_test_runs),
            ));
            all_raw.extend(results);
        }
        let table = budget_extrapolation(&cells, &multiples);
        report.insert(label, table);
    }

    println!();
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "Bugs found within", "1 budget", "5 budgets", "10 budgets"
    );
    for (label, row) in &report {
        println!(
            "{:<22} {:>9.0}% {:>9.0}% {:>9.0}%",
            label,
            row[&1] * 100.0,
            row[&5] * 100.0,
            row[&10] * 100.0
        );
    }
    println!("\n(The GP-based McVerSi-ALL row is only meaningful at 1 budget: its state");
    println!(" does not compose across independent samples, matching the paper's N/A cells.)");

    if let Some(line) = metrics_summary(&all_raw) {
        println!("\n{line}");
    }
    if let Some(sink) = &jsonl {
        println!("\nevent stream: {} JSONL lines", sink.lines());
    }
    if let Ok(path) = write_artifact("table5_budget_extrapolation.json", &report) {
        println!("\nartifact: {}", path.display());
    }
}
