//! Regenerates paper Table 4 — bug coverage per generator configuration —
//! across target consistency models and simulated core strengths.
//!
//! The sweep is one declarative [`mcversi_core::ScenarioGrid`]: the base spec is the JSON
//! file `MCVERSI_SPEC` names, the model / core-strength axes come from
//! `MCVERSI_MODELS` / `MCVERSI_CORES` (see `mcversi_core::scenario`), the bug
//! axis is the extended corpus restricted to observable (bug × core) pairs,
//! and the generator axis is the paper's seven columns.  Every cell runs
//! `samples` campaign samples; when `MCVERSI_JSONL` is set,
//! every campaign event additionally streams to a JSONL log
//! ([`mcversi_core::JsonlSink`]) while the tables accumulate.
//!
//! The (model × core) sweep is the cross-model extension of the paper's
//! TSO-only table: under SC the (TSO-correct) design itself is flagged
//! immediately — the hardware is weaker than the model — while under the
//! relaxed models the TSO bugs progressively disappear, because the weak
//! executions they produce become architecturally allowed.  Sweeping the
//! *relaxed* core adds the other half of the picture: the dependency-ordering
//! bug corpus (`Bug::DEPENDENCY`) only exists in the relaxed pipeline's
//! stalls, so those rows light up under ARMish/POWERish/RMO on the relaxed
//! core and are provably invisible on the strong one.  The run starts with
//! two pinned matrices: the checker-level litmus verdict matrix
//! (`crates/bench/src/matrix.rs`) and the end-to-end (core × model)
//! bug-detectability matrix (`crates/bench/src/core_matrix.rs`).

use mcversi_bench::core_matrix::{run_core_matrix, PINNED_RUNS};
use mcversi_bench::matrix::{render_matrix, verify_enumerated_corpus};
use mcversi_bench::{banner, metrics_summary, table_columns, write_artifact};
use mcversi_core::report::{aggregate_cell, BugCoverageTable};
use mcversi_core::scenario::jsonl_sink_from_env;
use mcversi_core::sink::NullSink;
use mcversi_core::{fabric_from_env, grid_from_env, CampaignResult, ScenarioSpec, SeedPolicy};
use mcversi_fabric::{locate_worker, run_grid, FabricOptions};
use mcversi_sim::Bug;

fn main() {
    let grid = grid_from_env()
        .generator_columns(table_columns())
        .bugs(Bug::ALL_EXTENDED)
        .observable_bugs_only()
        .seed_policy(SeedPolicy::table4());
    banner(
        "Table 4: bug coverage (per model and core strength)",
        grid.base(),
    );

    println!("Cross-model litmus verdict matrix (canonical weak outcomes):");
    let (matrix, mismatches) = render_matrix();
    println!("{matrix}");
    if mismatches > 0 {
        eprintln!("error: {mismatches} verdicts deviate from the pinned expectations");
        std::process::exit(1);
    }
    println!("all verdicts match the pinned expectations\n");

    // The corpus-wide independent oracle: every enumerated test × model, the
    // closed-form cycle verdict against the axiomatic checker on the
    // canonical weak-outcome execution.  Bounds follow the corpus the cells
    // will actually run (the spec's `litmus`); a handpicked-corpus run skips
    // the sweep — its cells never touch the enumerated tests.
    match grid.base().litmus_corpus().bounds() {
        None => println!("litmus corpus: handpicked (enumerated-corpus cross-check skipped)\n"),
        Some(bounds) => {
            println!("Enumerated corpus vs checker (independent oracle cross-check):");
            let (summary, corpus_mismatches) = verify_enumerated_corpus(&bounds);
            println!("{summary}");
            if corpus_mismatches > 0 {
                eprintln!("error: {corpus_mismatches} enumerated verdicts contradict the checker");
                std::process::exit(1);
            }
            println!("oracle and checker agree on the whole corpus\n");
        }
    }

    println!("(core strength × model) bug-detectability matrix (directed probes):");
    let (core_matrix, core_mismatches) = run_core_matrix(PINNED_RUNS);
    println!("{core_matrix}");
    if core_mismatches > 0 {
        eprintln!("error: {core_mismatches} cells deviate from the pinned expectations");
        std::process::exit(1);
    }
    println!("all cells match the pinned expectations\n");

    let mut jsonl = jsonl_sink_from_env();
    let column_labels = grid.column_labels();
    let cells = grid.cells();
    // With MCVERSI_FABRIC set, the whole sweep runs through the multi-process
    // coordinator up front; the per-cell loop below then only aggregates.
    let fabric_results = fabric_from_env().map(|env| run_fabric_sweep(&cells, &env, &mut jsonl));
    let mut all_raw = Vec::new();
    // (core, model) groups arrive in grid order; tables render when a group
    // closes so long sweeps report incrementally.
    let mut open_group: Option<(String, String, BugCoverageTable)> = None;
    let mut current_bug: Option<Option<Bug>> = None;

    for (cell_idx, cell) in cells.iter().enumerate() {
        let group_key = (cell.core_strength.to_string(), cell.model.to_string());
        match &open_group {
            Some((core, model, _)) if (core, model) == (&group_key.0, &group_key.1) => {}
            _ => {
                if let Some(group) = open_group.take() {
                    render_group(group);
                }
                println!(
                    "=== core: {}, target model: {} ===",
                    group_key.0, group_key.1
                );
                open_group = Some((
                    group_key.0,
                    group_key.1,
                    BugCoverageTable::new(column_labels.clone()),
                ));
                current_bug = None;
            }
        }
        if current_bug != Some(cell.bug) {
            let bug = cell
                .bug
                .expect("the table-4 bug axis has no correct-design cells");
            println!("bug {bug} ...");
            current_bug = Some(cell.bug);
        }

        let label = cell.display_label();
        let results = match &fabric_results {
            Some(all) => all[cell_idx].1.clone(),
            None => match &mut jsonl {
                Some(sink) => cell.run(sink),
                None => cell.run(&mut NullSink),
            },
        };
        let table_cell = aggregate_cell(cell.generator, &label, &results, cell.max_test_runs);
        println!(
            "  {:<22} found {}/{} (mean time {:.2})",
            label, table_cell.found, table_cell.samples, table_cell.mean_time
        );
        all_raw.extend(results);
        let bug = cell.bug.expect("checked above");
        if let Some((_, _, table)) = &mut open_group {
            table.insert(bug, &label, table_cell);
        }
    }
    if let Some(group) = open_group.take() {
        render_group(group);
    }

    if let Some(line) = metrics_summary(&all_raw) {
        println!("{line}");
    }
    if let Some(sink) = &jsonl {
        println!("event stream: {} JSONL lines", sink.lines());
    }
    if let Ok(path) = write_artifact("table4_raw_results.json", &all_raw) {
        println!("raw results: {}", path.display());
    }
}

/// Runs the whole sweep through the distributed-fabric coordinator
/// (`MCVERSI_FABRIC` worker processes, optional `MCVERSI_JOURNAL`
/// checkpoint/resume), returning per-cell results in grid order.  Any fabric
/// failure, a lost worker included, aborts the run with exit status 4 — the
/// journal keeps its progress for a later resume.
fn run_fabric_sweep(
    cells: &[ScenarioSpec],
    env: &mcversi_core::FabricEnv,
    jsonl: &mut Option<mcversi_core::JsonlSink<std::fs::File>>,
) -> Vec<(ScenarioSpec, Vec<CampaignResult>)> {
    let Some(worker) = locate_worker() else {
        eprintln!(
            "error: mcversi-work binary not found next to this executable \
             (build it with `cargo build -p mcversi-fabric --bin mcversi-work`)"
        );
        std::process::exit(4);
    };
    let mut options = FabricOptions::new(worker);
    options.workers = env.workers;
    options.journal = env.journal.clone();
    println!(
        "distributed fabric: {} worker(s){}",
        options.workers,
        match &options.journal {
            Some(path) => format!(", journal {path}"),
            None => String::new(),
        },
    );
    let report = match jsonl {
        Some(sink) => run_grid(cells, &options, sink),
        None => run_grid(cells, &options, &mut NullSink),
    };
    match report {
        Ok(report) => {
            println!(
                "fabric: {} dispatch(es), {} stolen, \
                 {} journaled sample(s) skipped{}\n",
                report.stats.dispatched,
                report.stats.stolen,
                report.stats.resume_skipped,
                if report.resumed { " (resumed)" } else { "" },
            );
            report.cells
        }
        Err(e) => {
            eprintln!("error: fabric campaign failed: {e}");
            std::process::exit(4);
        }
    }
}

/// Renders one finished (core, model) group and writes its artifact.
fn render_group((core, model, table): (String, String, BugCoverageTable)) {
    println!();
    println!("{}", table.render());
    println!(
        "'N (t)' = found by N samples, mean normalised time t; 'NF' = not found within the budget."
    );
    let summary = table.summary();
    println!("\n[{core}/{model}] all-bugs summary (found samples, mean normalised time):");
    for (col, (found, time)) in &summary {
        println!("  {col:<22} {found:>3} ({time:.2})");
    }
    println!();

    let artifact = format!("table4_bug_coverage_{}_{}.json", core, model.to_lowercase());
    if let Ok(path) = write_artifact(&artifact, &table) {
        println!("artifact: {}", path.display());
    }
}
