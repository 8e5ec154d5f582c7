//! Integration tests of the distributed fabric: coordinator vs. in-process
//! differentials, fault-injected worker loss, and checkpoint/resume.
//!
//! These spawn real `mcversi-work` child processes (the binary Cargo builds
//! alongside this test), so they cover the full wire path: shard JSON on
//! stdin, JSONL events on stdout, journal on disk.

use mcversi_core::sink::{read_stream, CampaignEvent, CampaignSink, JsonlSink, NullSink};
use mcversi_core::{CampaignResult, ScenarioSpec};
use mcversi_fabric::{
    merge_results, run_grid, shard_cells, FabricOptions, GridShard, JournalReplay, WorkerFault,
};
use mcversi_mcm::ModelKind;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Duration;

fn worker_program() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mcversi-work"))
}

/// A campaign cell small enough that a whole grid of them runs in well under
/// a second, yet large enough to stream several events per sample.
fn tiny_cell(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small();
    spec.base_seed = seed;
    spec.samples = 2;
    spec.test_size = 16;
    spec.iterations = 1;
    spec.max_test_runs = 2;
    spec
}

/// A small grid with distinct cell identities (distinct seeds and models).
fn tiny_grid() -> Vec<ScenarioSpec> {
    let models = [ModelKind::Tso, ModelKind::Sc, ModelKind::Armish];
    (0..3)
        .map(|i| {
            let mut cell = tiny_cell(100 * (i as u64 + 1));
            cell.model = models[i];
            cell
        })
        .collect()
}

/// Every deterministic field of a result — everything except wall-clock time
/// (and derived metrics snapshots, which embed wall time).
fn fingerprint(
    r: &CampaignResult,
) -> (
    u64,
    bool,
    Option<String>,
    usize,
    Option<usize>,
    u64,
    u64,
    u64,
) {
    (
        r.seed,
        r.found,
        r.detail.clone(),
        r.test_runs,
        r.found_at_run,
        r.simulated_cycles,
        r.max_total_coverage.to_bits(),
        r.final_mean_ndt.to_bits(),
    )
}

type GridFingerprint = Vec<(
    u64,
    Vec<(
        u64,
        bool,
        Option<String>,
        usize,
        Option<usize>,
        u64,
        u64,
        u64,
    )>,
)>;

fn grid_fingerprint(cells: &[(ScenarioSpec, Vec<CampaignResult>)]) -> GridFingerprint {
    cells
        .iter()
        .map(|(cell, results)| (cell.cell_id(), results.iter().map(fingerprint).collect()))
        .collect()
}

/// The in-process ground truth: each cell run straight through
/// `run_samples_streamed`, no processes, no journal.
fn in_process_baseline(cells: &[ScenarioSpec]) -> GridFingerprint {
    cells
        .iter()
        .map(|cell| {
            let results = cell.run(&mut NullSink);
            (cell.cell_id(), results.iter().map(fingerprint).collect())
        })
        .collect()
}

fn temp_journal(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("mcversi-fabric-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path.to_str().unwrap().to_owned()
}

#[test]
fn coordinator_matches_the_in_process_baseline() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);

    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    let report = run_grid(&cells, &options, &mut NullSink).unwrap();

    assert_eq!(grid_fingerprint(&report.cells), baseline);
    assert!(!report.resumed);
    assert!(report.stats.dispatched >= 1);
    assert_eq!(report.stats.redispatched, 0);
    assert_eq!(report.stats.resume_skipped, 0);
}

#[test]
fn killed_workers_are_redispatched_to_completion() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);
    let journal = temp_journal("kill-redispatch");

    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    options.journal = Some(journal.clone());
    options.fault = Some(WorkerFault::KillAfter { events: 3 });
    options.max_redispatch = 3;
    let report = run_grid(&cells, &options, &mut NullSink).unwrap();

    assert_eq!(grid_fingerprint(&report.cells), baseline);
    assert!(
        report.stats.redispatched >= 1,
        "the injected kill must cost at least one re-dispatch"
    );

    // The journal survived the worker loss without duplicate records.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_no_duplicate_checkpoints(&text);
}

#[test]
fn hung_workers_are_detected_by_heartbeat_and_redispatched() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);

    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    options.fault = Some(WorkerFault::HangAfter { events: 2 });
    options.heartbeat_timeout = Duration::from_millis(500);
    options.max_redispatch = 3;
    let report = run_grid(&cells, &options, &mut NullSink).unwrap();

    assert_eq!(grid_fingerprint(&report.cells), baseline);
    assert!(
        report.stats.redispatched >= 1,
        "the hung worker must be presumed dead and its shard re-dispatched"
    );
}

#[test]
fn torn_worker_output_never_reaches_the_journal() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);
    let journal = temp_journal("corrupt-tail");

    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    options.journal = Some(journal.clone());
    options.fault = Some(WorkerFault::CorruptTail { events: 4 });
    options.max_redispatch = 3;
    let report = run_grid(&cells, &options, &mut NullSink).unwrap();

    assert_eq!(grid_fingerprint(&report.cells), baseline);

    // Every journal line parses: the torn line the worker wrote before dying
    // was dropped at the coordinator, not forwarded.
    let text = std::fs::read_to_string(&journal).unwrap();
    let replay = JournalReplay::replay(&text).unwrap();
    assert!(!replay.truncated_tail, "no torn line may be journaled");
    assert_no_duplicate_checkpoints(&text);
}

/// The headline acceptance criterion: a campaign killed mid-run (worker loss
/// with no re-dispatch budget, as after a coordinator crash) and resumed from
/// its journal finishes with a final result fingerprint identical to an
/// uninterrupted run — across three distinct kill points.
#[test]
fn killed_campaigns_resume_to_the_uninterrupted_fingerprint() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);

    for kill_after in [2u64, 7, 15] {
        let journal = temp_journal(&format!("kill-point-{kill_after}"));

        // Phase 1: the campaign dies mid-run.  max_redispatch = 0 makes the
        // injected worker loss fatal, like a coordinator crash.  One shard
        // holds the whole grid, so every kill point falls inside the shard
        // the fault is injected into, whichever way the cell ids hash.
        let mut options = FabricOptions::new(worker_program());
        options.workers = 2;
        options.shards = 1;
        options.journal = Some(journal.clone());
        options.fault = Some(WorkerFault::KillAfter { events: kill_after });
        options.max_redispatch = 0;
        let err = run_grid(&cells, &options, &mut NullSink)
            .expect_err("a kill with no re-dispatch budget must fail the campaign");
        assert!(err.0.contains("resume from the journal"), "{err}");

        // Phase 2: resume from the journal, no fault this time.
        options.fault = None;
        options.max_redispatch = 2;
        let report = run_grid(&cells, &options, &mut NullSink).unwrap();
        assert!(
            report.resumed,
            "kill point {kill_after}: journal must resume"
        );
        assert_eq!(
            grid_fingerprint(&report.cells),
            baseline,
            "kill point {kill_after}: resumed fingerprint diverges"
        );

        let text = std::fs::read_to_string(&journal).unwrap();
        assert_no_duplicate_checkpoints(&text);
        assert_eq!(
            count_events(&text, |e| matches!(e, CampaignEvent::Schema { .. })),
            1,
            "kill point {kill_after}: one appended journal, one schema header"
        );
        assert!(
            count_events(&text, |e| matches!(e, CampaignEvent::Resume { .. })) >= 1,
            "kill point {kill_after}: the resume must be journaled"
        );
    }
}

/// A journal cut inside a line resumes any number of times: the first resume
/// truncates the torn fragment before it appends its `Resume` record, so the
/// fragment cannot turn into a corrupt line in the middle of the journal.
#[test]
fn a_journal_torn_mid_line_resumes_any_number_of_times() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);
    let path = temp_journal("torn-mid-line");
    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    options.journal = Some(path.clone());
    run_grid(&cells, &options, &mut NullSink).unwrap();

    // Cut the finished journal inside its third `SampleResult` line.
    let text = std::fs::read_to_string(&path).unwrap();
    let (third, _) = text.match_indices("{\"SampleResult\"").nth(2).unwrap();
    std::fs::write(&path, &text[..third + 20]).unwrap();

    for resume in 1..=2 {
        let report = run_grid(&cells, &options, &mut NullSink)
            .unwrap_or_else(|e| panic!("resume {resume}: {e}"));
        assert!(report.resumed, "resume {resume}");
        assert_eq!(grid_fingerprint(&report.cells), baseline, "resume {resume}");
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!read_stream(&text).unwrap().torn_tail);
    assert_eq!(
        count_events(&text, |e| matches!(e, CampaignEvent::Schema { .. })),
        1
    );
    assert_no_duplicate_checkpoints(&text);
}

/// Resume is prefix-insensitive: *every* line-prefix of a golden journal —
/// from the empty file to the complete journal — resumes to the identical
/// final fingerprint.
#[test]
fn every_journal_prefix_resumes_to_the_identical_fingerprint() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);

    // Produce the golden journal with an uninterrupted coordinated run.
    let golden_path = temp_journal("golden");
    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    options.journal = Some(golden_path.clone());
    let golden = run_grid(&cells, &options, &mut NullSink).unwrap();
    assert_eq!(grid_fingerprint(&golden.cells), baseline);
    let golden_text = std::fs::read_to_string(&golden_path).unwrap();
    let lines: Vec<&str> = golden_text.lines().collect();
    assert!(lines.len() >= 8, "golden journal is implausibly short");

    for prefix_len in 0..=lines.len() {
        let path = temp_journal(&format!("prefix-{prefix_len}"));
        let mut prefix = lines[..prefix_len].join("\n");
        if prefix_len > 0 {
            prefix.push('\n');
        }
        std::fs::write(&path, prefix).unwrap();

        let mut options = FabricOptions::new(worker_program());
        options.workers = 2;
        options.journal = Some(path.clone());
        let report = run_grid(&cells, &options, &mut NullSink).unwrap();
        assert_eq!(
            grid_fingerprint(&report.cells),
            baseline,
            "prefix of {prefix_len}/{} lines diverges",
            lines.len()
        );
        assert_eq!(
            report.resumed,
            prefix_len > 0,
            "prefix of {prefix_len} lines"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_no_duplicate_checkpoints(&text);
    }
}

/// A journal written before the collective and vc checking modes were
/// removed carries a `"dedup"` object at the end of every sample result.
/// Such a journal still replays, and a resume from it skips every journaled
/// sample and reproduces the uninterrupted results.
#[test]
fn journals_whose_results_carry_dedup_stats_still_resume() {
    let cells = tiny_grid();
    let baseline = in_process_baseline(&cells);
    let path = temp_journal("dedup");
    let mut options = FabricOptions::new(worker_program());
    options.workers = 2;
    options.journal = Some(path.clone());
    run_grid(&cells, &options, &mut NullSink).unwrap();

    // Rewrite each sample result the way the earlier build encoded it.
    let text = std::fs::read_to_string(&path).unwrap();
    let dedup = r#""metrics": null, "dedup": {"executions": 4, "cache_hits": 1, "cache_misses": 3, "oracle_valid": 3, "checker_calls": 0}}"#;
    let old: String = text
        .lines()
        .map(|line| {
            if line.starts_with("{\"SampleResult\"") {
                line.replacen("\"metrics\": null}", dedup, 1) + "\n"
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let samples: usize = cells.iter().map(|c| c.samples).sum();
    assert_eq!(old.matches("\"dedup\"").count(), samples, "{old}");
    std::fs::write(&path, &old).unwrap();

    let replay = JournalReplay::replay(&old).unwrap();
    assert_eq!(replay.total_samples(), samples);
    let report = run_grid(&cells, &options, &mut NullSink).unwrap();
    assert!(report.resumed);
    assert_eq!(report.stats.resume_skipped, samples as u64);
    assert_eq!(report.stats.dispatched, 0, "nothing was left to run");
    assert_eq!(grid_fingerprint(&report.cells), baseline);
}

/// A journal that names a cell outside the grid (another campaign's, or one
/// written while the spec had other keys, which changes every cell id) is
/// refused before any worker is spawned.
#[test]
fn a_journal_naming_a_foreign_cell_is_refused_before_any_spawn() {
    let cells = tiny_grid();
    let foreign = tiny_cell(999);
    assert!(cells.iter().all(|c| c.cell_id() != foreign.cell_id()));
    let path = temp_journal("foreign-cell");
    let mut journal = JsonlSink::create(&path).unwrap();
    journal.on_event(&CampaignEvent::SampleResult {
        cell: foreign.cell_id(),
        result: synthetic_result(&foreign, foreign.base_seed),
    });
    drop(journal);

    // A spawn attempt fails with a different error.
    let missing = std::env::temp_dir().join("mcversi-fabric-it-no-such-worker");
    let mut options = FabricOptions::new(missing);
    let err = run_grid(&cells, &options, &mut NullSink).unwrap_err();
    assert!(err.0.contains("cannot spawn worker"), "{err}");

    options.journal = Some(path);
    let err = run_grid(&cells, &options, &mut NullSink).unwrap_err();
    let id = format!("{:#018x}", foreign.cell_id());
    assert!(err.0.contains("not in this grid"), "{err}");
    assert!(err.0.contains(&id), "{err}");
}

/// How many events of a journal `kind` accepts.
fn count_events(journal_text: &str, kind: fn(&CampaignEvent) -> bool) -> usize {
    let events = read_stream(journal_text).unwrap().events;
    events.iter().filter(|(_, event)| kind(event)).count()
}

/// No `(cell, seed)` sample checkpoint and no `CellDone` cell may appear
/// twice in a journal, whatever faults and resumes produced it.
fn assert_no_duplicate_checkpoints(journal_text: &str) {
    let mut samples = BTreeSet::new();
    let mut done = BTreeSet::new();
    for (line, event) in read_stream(journal_text).unwrap().events {
        match event {
            CampaignEvent::SampleResult { cell, result } => {
                assert!(
                    samples.insert((cell, result.seed)),
                    "line {line}: duplicate sample checkpoint for cell {cell:#018x} seed {}",
                    result.seed
                );
            }
            CampaignEvent::CellDone { cell, .. } => {
                assert!(
                    done.insert(cell),
                    "line {line}: duplicate CellDone for cell {cell:#018x}"
                );
            }
            _ => {}
        }
    }
}

// ---- shard → merge round trip (pure data; no processes) ----

/// An arbitrary grid: `n` cells with distinct seeds, rotating models and
/// sample counts.
fn arbitrary_grid(seed: u64, n: usize) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|i| {
            let mut cell = ScenarioSpec::small();
            cell.base_seed = seed * 10_000 + i as u64 * 100;
            cell.samples = 1 + (i % 3);
            cell.model = ModelKind::ALL[i % ModelKind::ALL.len()];
            cell
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharding loses no cell, invents none, and `merge_results` restores
    /// exactly the unsharded grid order — for arbitrary grids and shard
    /// counts.
    #[test]
    fn shard_then_merge_is_the_identity(seed in 0u64..200, n in 1usize..12, shards in 1usize..9) {
        let cells = arbitrary_grid(seed, n);
        let sharded = shard_cells(&cells, shards).unwrap();
        prop_assert!(sharded.len() <= shards.max(1));
        prop_assert!(sharded.iter().all(|s| !s.cells.is_empty()));

        // Union of shard members == the input grid (as id sets).
        let mut input_ids: Vec<u64> = cells.iter().map(ScenarioSpec::cell_id).collect();
        input_ids.sort_unstable();
        let mut shard_ids: Vec<u64> = sharded.iter().flat_map(|s| s.cell_ids()).collect();
        shard_ids.sort_unstable();
        prop_assert_eq!(&input_ids, &shard_ids);

        // Membership is content-derived: re-sharding a shuffled grid gives
        // the same id → shard-id assignment.
        let mut reversed = cells.clone();
        reversed.reverse();
        let resharded = shard_cells(&reversed, shards).unwrap();
        let assignment = |shards: &[GridShard]| -> BTreeMap<u64, u64> {
            shards
                .iter()
                .flat_map(|s| s.cell_ids().into_iter().map(move |c| (c, s.id)))
                .collect()
        };
        prop_assert_eq!(assignment(&sharded), assignment(&resharded));

        // Synthesize per-cell results (one per sample, keyed by seed) and
        // merge: the output must pair every input cell, in input order, with
        // its results in seed order.
        let mut per_cell: BTreeMap<u64, Vec<CampaignResult>> = BTreeMap::new();
        for shard in &sharded {
            for cell in &shard.cells {
                let results: Vec<CampaignResult> = (0..cell.samples as u64)
                    .map(|i| synthetic_result(cell, cell.base_seed + i))
                    .collect();
                per_cell.insert(cell.cell_id(), results);
            }
        }
        let merged = merge_results(&cells, &per_cell).unwrap();
        prop_assert_eq!(merged.len(), cells.len());
        for ((cell, results), original) in merged.iter().zip(&cells) {
            prop_assert_eq!(cell, original);
            prop_assert_eq!(results.len(), original.samples);
            for (i, result) in results.iter().enumerate() {
                prop_assert_eq!(result.seed, original.base_seed + i as u64);
            }
        }

        // A missing cell is an error, not silent truncation.
        per_cell.remove(&cells[0].cell_id());
        prop_assert!(merge_results(&cells, &per_cell).is_err());
    }
}

fn synthetic_result(cell: &ScenarioSpec, seed: u64) -> CampaignResult {
    CampaignResult {
        generator: cell.generator,
        bug: cell.bug,
        model: cell.model,
        core: cell.core_strength,
        seed,
        found: false,
        detail: None,
        test_runs: 1,
        found_at_run: None,
        simulated_cycles: 1,
        wall_time: Duration::from_millis(1),
        max_total_coverage: 0.0,
        final_mean_ndt: 0.0,
        metrics: None,
    }
}
