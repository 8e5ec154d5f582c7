//! The multi-process coordinator: dispatches [`GridShard`]s to a pool of
//! `mcversi-work` child processes with work stealing across campaigns, and
//! journal-backed checkpoint/resume.
//!
//! Every worker's stdout is a campaign-event JSONL stream.  The coordinator
//! forwards all events to the caller's live sink, journals the *checkpoint*
//! records (`CellStart`, `SampleResult`, `CellDone`, plus its own `Resume`
//! and `FabricStats`) through [`JsonlSink::append`], and deduplicates by
//! `(cell, seed)` so no sample is journaled twice.
//!
//! A worker whose stream ends before its shard is complete fails the
//! campaign: the journal keeps every sample that finished, and rerunning
//! with the same journal resumes from there.  There is no liveness timeout:
//! every run has a cycle budget, which turns a livelock into a `Hang`.

use crate::journal::JournalReplay;
use crate::shard::{shard_cells, FabricError, GridShard};
use mcversi_core::sink::{check_schema, CampaignEvent, CampaignSink, JsonlSink};
use mcversi_core::{CampaignResult, ScenarioSpec};
use mcversi_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;

/// Shard dispatches to worker processes.
static DISPATCHES: telemetry::Counter = telemetry::Counter::new("fabric.dispatch");
/// Dispatches taken from another worker's queue.
static STEALS: telemetry::Counter = telemetry::Counter::new("fabric.steal");
/// Samples skipped because a resume journal already held their results.
static RESUME_SKIPS: telemetry::Counter = telemetry::Counter::new("fabric.resume_skip");

/// How the coordinator runs a campaign.
#[derive(Debug, Clone)]
pub struct FabricOptions {
    /// Worker child processes to keep busy.
    pub workers: usize,
    /// Shards to split the grid into (`0` = twice the worker count, so work
    /// stealing has spare shards to take).
    pub shards: usize,
    /// Path of the `mcversi-work` binary (see [`locate_worker`]).
    pub worker_program: PathBuf,
    /// Checkpoint journal path; an existing journal is resumed.
    pub journal: Option<String>,
}

impl FabricOptions {
    /// Defaults: 2 workers, auto shard count, no journal.
    pub fn new(worker_program: PathBuf) -> Self {
        FabricOptions {
            workers: 2,
            shards: 0,
            worker_program,
            journal: None,
        }
    }
}

/// Coordinator activity counts, mirrored into the `fabric.*` telemetry
/// counters and the journal's final [`CampaignEvent::FabricStats`] record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStatsCounts {
    /// Shard dispatches to worker processes.
    pub dispatched: u64,
    /// Dispatches stolen from another worker's queue.
    pub stolen: u64,
    /// Samples skipped thanks to the resume journal.
    pub resume_skipped: u64,
}

/// The outcome of a coordinated campaign.
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// Per-cell results in original grid order, each cell's results in seed
    /// order — bit-identical to an uninterrupted in-process run.
    pub cells: Vec<(ScenarioSpec, Vec<CampaignResult>)>,
    /// Coordinator activity counts.
    pub stats: FabricStatsCounts,
    /// Whether a non-empty journal was resumed.
    pub resumed: bool,
}

/// Locates the `mcversi-work` binary next to the current executable (same
/// directory, or up to two levels up — covering `target/<profile>/` and
/// `target/<profile>/deps/` layouts).
pub fn locate_worker() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("mcversi-work{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?;
    for _ in 0..3 {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

/// A line-level message from one worker's stdout reader thread.
enum WorkerMsg {
    /// A parsed event line (boxed: events carry full result payloads).
    Event(Box<CampaignEvent>),
    /// An unparseable line (torn write or corruption); never journaled.
    BadLine,
    /// The worker's stdout closed: it exited or was killed.
    Eof,
}

/// Per-cell bookkeeping the coordinator accumulates.
#[derive(Default)]
struct Progress {
    /// Completed (and journaled) results per cell, keyed
    /// `cell id → seed → result`.
    results: BTreeMap<u64, BTreeMap<u64, CampaignResult>>,
    /// Cells whose `CellStart` was already journaled.
    started: BTreeSet<u64>,
    /// Cells whose `CellDone` was already journaled.
    closed: BTreeSet<u64>,
}

impl Progress {
    /// Whether every sample of `cell` has a result.
    fn complete(&self, cell: &ScenarioSpec) -> bool {
        self.results.get(&cell.cell_id()).map_or(0, BTreeMap::len) >= cell.samples
    }
}

/// Runs `cells` through the worker pool and reassembles their results.
///
/// Events stream into `sink` as they arrive (worker `Schema` headers are
/// verified and dropped); when `options.journal` is set, checkpoint records
/// are appended there and an existing journal is replayed first — completed
/// cells are skipped entirely, partially-complete cells re-run only their
/// missing samples, and the merged final results are bit-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// Fails when the journal is unusable or names cells outside this grid, when
/// a worker cannot be spawned, or when a worker's stream ends before its
/// shard is complete ("resume from the journal to continue").
pub fn run_grid(
    cells: &[ScenarioSpec],
    options: &FabricOptions,
    sink: &mut dyn CampaignSink,
) -> Result<FabricReport, FabricError> {
    let mut stats = FabricStatsCounts::default();
    let by_id: BTreeMap<u64, &ScenarioSpec> =
        cells.iter().map(|cell| (cell.cell_id(), cell)).collect();
    if by_id.len() != cells.len() {
        // Delegate the error message to the sharder, which names the twins.
        shard_cells(cells, 1)?;
    }

    // ---- replay-to-resume ----
    // Opening the journal first repairs a torn tail, so the replay below
    // reads exactly what later appends continue.
    let mut journal = match &options.journal {
        Some(path) => Some(JsonlSink::append(path)?),
        None => None,
    };
    let replay = match &options.journal {
        Some(path) => JournalReplay::load(path)?,
        None => JournalReplay::default(),
    };
    let mut progress = Progress::default();
    let resumed = replay.events > 0;
    let mut cells_skipped = 0usize;
    let mut samples_skipped = 0usize;
    for (&cell_id, state) in &replay.cells {
        let Some(spec) = by_id.get(&cell_id) else {
            return Err(FabricError(format!(
                "journal names cell {cell_id:#018x}, which is not in this grid \
                 (resuming a different campaign?)"
            )));
        };
        progress.started.insert(cell_id);
        let mut kept = 0usize;
        for (&seed, result) in &state.samples {
            // Only seeds of this cell's sample range count; anything else in
            // the journal would be a corrupted record.
            let index = seed.wrapping_sub(spec.base_seed);
            if index < spec.samples as u64 {
                progress
                    .results
                    .entry(cell_id)
                    .or_default()
                    .insert(seed, result.clone());
                kept += 1;
            }
        }
        samples_skipped += kept;
        if kept >= spec.samples {
            cells_skipped += 1;
            progress.closed.insert(cell_id);
        }
    }
    if resumed {
        RESUME_SKIPS.add(samples_skipped as u64);
        stats.resume_skipped = samples_skipped as u64;
        let event = CampaignEvent::Resume {
            cells_skipped,
            samples_skipped,
        };
        if let Some(journal) = journal.as_mut() {
            journal.on_event(&event);
        }
        sink.on_event(&event);
    }

    // ---- shard the remaining work ----
    let pending: Vec<ScenarioSpec> = cells
        .iter()
        .filter(|cell| !progress.complete(cell))
        .cloned()
        .collect();
    if !pending.is_empty() {
        let shard_count = if options.shards > 0 {
            options.shards
        } else {
            (options.workers * 2).max(1)
        }
        .min(pending.len());
        let mut shards = shard_cells(&pending, shard_count)?;
        shards.sort_by_key(|shard| shard.id);
        for shard in &mut shards {
            for (cell, skip) in shard.cells.iter().zip(shard.skip.iter_mut()) {
                let id = cell.cell_id();
                if let Some(done) = progress.results.get(&id) {
                    *skip = done
                        .keys()
                        .map(|seed| seed.wrapping_sub(cell.base_seed) as usize)
                        .filter(|&index| index < cell.samples)
                        .collect();
                }
            }
        }
        run_pool(
            &mut shards,
            options,
            sink,
            &mut journal,
            &mut progress,
            &mut stats,
            &by_id,
        )?;
    }

    // ---- final stats and merge ----
    let event = CampaignEvent::FabricStats {
        dispatched: stats.dispatched,
        stolen: stats.stolen,
        resume_skipped: stats.resume_skipped,
    };
    if let Some(journal) = journal.as_mut() {
        journal.on_event(&event);
    }
    sink.on_event(&event);

    let per_cell: BTreeMap<u64, Vec<CampaignResult>> = progress
        .results
        .into_iter()
        .map(|(cell, by_seed)| (cell, by_seed.into_values().collect()))
        .collect();
    let merged = crate::shard::merge_results(cells, &per_cell)?;
    Ok(FabricReport {
        cells: merged,
        stats,
        resumed,
    })
}

/// Runs the dispatch/steal loop until every pending shard's worker has
/// finished (see [`run_grid`]).
#[allow(clippy::too_many_arguments)]
fn run_pool(
    shards: &mut Vec<GridShard>,
    options: &FabricOptions,
    sink: &mut dyn CampaignSink,
    journal: &mut Option<JsonlSink<std::fs::File>>,
    progress: &mut Progress,
    stats: &mut FabricStatsCounts,
    by_id: &BTreeMap<u64, &ScenarioSpec>,
) -> Result<(), FabricError> {
    let workers = options.workers.max(1).min(shards.len().max(1));
    // Round-robin the shards over the worker slots' queues; an idle slot
    // drains its own queue first and steals from the fullest other queue
    // once it runs dry.
    let mut queues: Vec<VecDeque<GridShard>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (idx, shard) in shards.drain(..).enumerate() {
        queues[idx % workers].push_back(shard);
    }

    let (sender, receiver) = mpsc::channel::<(usize, WorkerMsg)>();
    // Each busy slot holds its running child and the shard it runs.
    let mut slots: Vec<Option<(Child, GridShard)>> = (0..workers).map(|_| None).collect();

    let outcome = loop {
        // Keep every idle slot fed: own queue first, then steal.
        let mut spawn_error = None;
        for slot_idx in 0..workers {
            if slots[slot_idx].is_some() {
                continue;
            }
            let work = queues[slot_idx].pop_front().or_else(|| {
                let victim = (0..workers)
                    .filter(|&other| other != slot_idx)
                    .max_by_key(|&other| queues[other].len())
                    .filter(|&other| !queues[other].is_empty())?;
                let stolen = queues[victim].pop_back();
                if stolen.is_some() {
                    STEALS.incr();
                    stats.stolen += 1;
                }
                stolen
            });
            let Some(shard) = work else {
                continue;
            };
            match spawn_worker(&options.worker_program, &shard, slot_idx, &sender) {
                Ok(child) => {
                    DISPATCHES.incr();
                    stats.dispatched += 1;
                    slots[slot_idx] = Some((child, shard));
                }
                Err(e) => {
                    // Abort the campaign (the journal keeps its progress for
                    // a later resume).
                    spawn_error = Some(FabricError(format!(
                        "cannot spawn worker `{}`: {e}",
                        options.worker_program.display()
                    )));
                    break;
                }
            }
        }
        if let Some(err) = spawn_error {
            break Err(err);
        }

        // Done when no queued work and no busy slot remains.
        if slots.iter().all(Option::is_none) && queues.iter().all(VecDeque::is_empty) {
            break Ok(());
        }

        // `sender` lives as long as this loop, so `recv` cannot disconnect.
        let (slot_idx, msg) = receiver.recv().expect("the pool holds a sender");
        match msg {
            WorkerMsg::Event(event) => {
                if let Err(e) = handle_event(*event, sink, journal, progress, by_id) {
                    break Err(e);
                }
            }
            WorkerMsg::BadLine => {
                // Torn or corrupt worker output: ignore the line; the
                // completion check at the stream's end decides whether
                // anything was lost.
            }
            WorkerMsg::Eof => {
                // A reader thread sends its `Eof` last, and the slot takes
                // new work only after it, so the slot is busy here.
                let (mut child, shard) = slots[slot_idx].take().expect("busy slot");
                let _ = child.wait();
                if !shard.cells.iter().all(|cell| progress.complete(cell)) {
                    break Err(FabricError(format!(
                        "worker lost shard {:#018x}; resume from the journal to continue",
                        shard.id
                    )));
                }
            }
        }
    };

    // Tear down whatever is still running (error paths; on success the pool
    // is already empty).
    for (mut child, _) in slots.into_iter().flatten() {
        let _ = child.kill();
        let _ = child.wait();
    }
    outcome
}

/// Spawns one `mcversi-work` process for `shard` and its stdout reader
/// thread.
fn spawn_worker(
    program: &std::path::Path,
    shard: &GridShard,
    slot_idx: usize,
    sender: &mpsc::Sender<(usize, WorkerMsg)>,
) -> std::io::Result<Child> {
    let mut child = Command::new(program)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(shard.to_json().as_bytes());
        // Dropping stdin closes the pipe: the worker sees EOF and starts.
    }
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("worker stdout not captured"))?;
    let sender = sender.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let msg = match CampaignEvent::from_line(&line) {
                Ok(event) => WorkerMsg::Event(Box::new(event)),
                Err(_) => WorkerMsg::BadLine,
            };
            if sender.send((slot_idx, msg)).is_err() {
                return;
            }
        }
        let _ = sender.send((slot_idx, WorkerMsg::Eof));
    });
    Ok(child)
}

/// Routes one worker event: live sink always (except verified `Schema`
/// headers), journal only for novel checkpoint records.
///
/// # Errors
///
/// Fails on a worker `Schema` header of another version (see
/// [`check_schema`]): a worker binary from another build.
fn handle_event(
    event: CampaignEvent,
    sink: &mut dyn CampaignSink,
    journal: &mut Option<JsonlSink<std::fs::File>>,
    progress: &mut Progress,
    by_id: &BTreeMap<u64, &ScenarioSpec>,
) -> Result<(), FabricError> {
    match &event {
        CampaignEvent::Schema { version } => {
            // Worker streams carry their own header; verified here, not
            // forwarded (the journal and the live stream have their own).
            return check_schema(*version).map_err(|e| FabricError(format!("worker stream: {e}")));
        }
        CampaignEvent::CellStart { cell, .. } => {
            if !progress.started.insert(*cell) {
                return Ok(()); // a resumed cell's start is already journaled
            }
        }
        CampaignEvent::SampleResult { cell, result } => {
            let by_seed = progress.results.entry(*cell).or_default();
            if by_seed.contains_key(&result.seed) {
                return Ok(()); // already journaled
            }
            by_seed.insert(result.seed, result.clone());
        }
        CampaignEvent::CellDone { cell, .. } => {
            // Re-synthesized below once the cell is globally complete; the
            // worker's own record covers only the samples it ran.
            let complete = by_id.get(cell).is_some_and(|spec| progress.complete(spec));
            if !complete || !progress.closed.insert(*cell) {
                return Ok(());
            }
            let done = CampaignEvent::CellDone {
                cell: *cell,
                samples: progress.results.get(cell).map_or(0, BTreeMap::len),
            };
            if let Some(journal) = journal.as_mut() {
                journal.on_event(&done);
            }
            sink.on_event(&done);
            return Ok(());
        }
        _ => {
            // Progress events (SampleStart/TestRun/Violation/Metrics/
            // SamplePanic): live sink only, the journal stays compact.
            sink.on_event(&event);
            return Ok(());
        }
    }
    if let Some(journal) = journal.as_mut() {
        journal.on_event(&event);
    }
    sink.on_event(&event);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_core::sink::{NullSink, EVENT_SCHEMA_VERSION};

    #[test]
    fn a_worker_stream_of_another_schema_version_fails_the_campaign() {
        let mut progress = Progress::default();
        let mut route = |version| {
            let header = CampaignEvent::Schema { version };
            handle_event(
                header,
                &mut NullSink,
                &mut None,
                &mut progress,
                &BTreeMap::new(),
            )
        };
        assert!(route(EVENT_SCHEMA_VERSION).is_ok());
        let err = route(99).unwrap_err();
        assert!(err.0.contains("worker stream: schema version 99"), "{err}");
    }
}
