//! Streaming campaign reporting: [`CampaignSink`] and its implementations.
//!
//! Long campaigns used to be observable only through the final result vector
//! of `run_samples`; a sink receives events *as they happen* — workers push
//! them through a bounded channel and the calling thread dispatches them in
//! arrival order (per-sample order is preserved; events of concurrent samples
//! interleave).  The bounded channel applies backpressure: a slow sink slows
//! the workers down rather than buffering without limit.
//!
//! * [`CollectSink`] — gathers completed results (the old behaviour);
//! * [`ProgressSink`] — live progress lines on stderr (or any writer);
//! * [`JsonlSink`] — one JSON line per event: the machine-readable stream,
//!   and (opened with [`JsonlSink::append`]) the fabric's resumable journal;
//! * [`NullSink`] — discards everything;
//! * sinks compose: a `(&mut a, &mut b)` tuple fans events out to both.
//!
//! [`JsonlSink`] is the one writer of the event schema, and
//! [`CampaignEvent::from_line`] / [`read_stream`] its one reader: the metrics
//! report, the journal replay and the fabric coordinator's worker-stream
//! decode all go through them, so they agree on what a torn line is.

use crate::campaign::CampaignResult;
use mcversi_telemetry::{MetricsSnapshot, Stopwatch};
use serde::{Deserialize, Serialize};
use std::io::{Read as _, Write};

/// Version of the JSONL event format. Bumped whenever a [`CampaignEvent`]
/// variant changes incompatibly; [`JsonlSink`] writes it as a
/// [`CampaignEvent::Schema`] header line so downstream tooling (and the
/// future distributed fabric) can detect event-format drift.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// One event of a streaming campaign run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CampaignEvent {
    /// Stream header identifying the event-format version (first line of
    /// every [`JsonlSink`] stream; never emitted by campaign workers).
    Schema {
        /// The [`EVENT_SCHEMA_VERSION`] the stream was written with.
        version: u32,
    },
    /// A sample was claimed by a worker and is about to run.
    SampleStart {
        /// The sample's seed.
        seed: u64,
        /// The sample's index within the batch.
        index: usize,
    },
    /// One test-run of a sample completed.
    TestRun {
        /// The sample's seed.
        seed: u64,
        /// 1-based test-run index within the sample.
        run: usize,
        /// Whether the run exposed a bug.
        found: bool,
        /// Adaptive-coverage fitness of the run.
        fitness: f64,
        /// Simulated cycles consumed by the run.
        cycles: u64,
    },
    /// A test-run exposed a violation (emitted in addition to its
    /// [`CampaignEvent::TestRun`] event).
    Violation {
        /// The sample's seed.
        seed: u64,
        /// 1-based test-run index at which the violation surfaced.
        run: usize,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A sample ran to completion.
    SampleDone {
        /// The completed result.
        result: CampaignResult,
    },
    /// A sample panicked; the batch continues without it.
    SamplePanic {
        /// The sample's seed.
        seed: u64,
        /// The panic payload rendered as text.
        message: String,
    },
    /// A cumulative telemetry snapshot of one sample, emitted at the cadence
    /// configured by `CampaignConfig::metrics` (see `MCVERSI_METRICS`).
    Metrics {
        /// The sample's seed.
        seed: u64,
        /// 1-based test-run index after which the snapshot was taken.
        run: usize,
        /// Cumulative metrics since the sample started.
        snapshot: MetricsSnapshot,
    },
    /// A fabric worker started a grid cell (distributed campaigns only).
    CellStart {
        /// Stable cell identity (`ScenarioSpec::cell_id`).
        cell: u64,
        /// The cell's human-readable label.
        label: String,
    },
    /// A sample of a grid cell ran to completion on a fabric worker.  This is
    /// the cell-attributed form of [`CampaignEvent::SampleDone`]: workers
    /// rewrite `SampleDone` into `SampleResult` so a journal merging several
    /// cells (and several workers) stays unambiguous.
    SampleResult {
        /// Stable cell identity (`ScenarioSpec::cell_id`).
        cell: u64,
        /// The completed result.
        result: CampaignResult,
    },
    /// A fabric worker finished every requested sample of a grid cell.
    CellDone {
        /// Stable cell identity (`ScenarioSpec::cell_id`).
        cell: u64,
        /// How many samples the worker ran for this cell (excluding samples
        /// skipped because a resume journal already had their results).
        samples: usize,
    },
    /// The coordinator resumed a campaign from a partial journal; appended to
    /// the journal itself so the resume is visible downstream.
    Resume {
        /// Cells skipped entirely because the journal marked them done.
        cells_skipped: usize,
        /// Individual samples skipped inside partially-complete cells.
        samples_skipped: usize,
    },
    /// End-of-campaign coordinator statistics (distributed campaigns only).
    FabricStats {
        /// Shard dispatches to worker processes.
        dispatched: u64,
        /// Dispatches stolen from another worker's queue.
        stolen: u64,
        /// Shards re-dispatched after a worker died or went silent.
        redispatched: u64,
        /// Samples skipped thanks to a resume journal.
        resume_skipped: u64,
    },
}

impl CampaignEvent {
    /// Decodes one line of a campaign-event stream.  This is the only place
    /// an event is read back from text.
    pub fn from_line(line: &str) -> serde_json::Result<Self> {
        serde_json::from_str(line)
    }
}

/// Rejects a [`CampaignEvent::Schema`] header of a version this build does
/// not read.
pub fn check_schema(version: u32) -> Result<(), String> {
    if version == EVENT_SCHEMA_VERSION {
        Ok(())
    } else {
        Err(format!(
            "schema version {version} (this build reads {EVENT_SCHEMA_VERSION})"
        ))
    }
}

/// A campaign-event stream decoded by [`read_stream`].
#[derive(Debug, Clone, Default)]
pub struct EventStream {
    /// The events with their 1-based line numbers, in stream order (the
    /// `Schema` header included).
    pub events: Vec<(usize, CampaignEvent)>,
    /// The version its `Schema` header declared, if it has one.
    pub version: Option<u32>,
    /// Whether an unterminated final line that does not decode — a write
    /// cut short — was dropped.
    pub torn_tail: bool,
}

/// Reads a campaign-event JSONL stream.
///
/// Blank lines are skipped and a header-less stream is accepted.  An
/// unterminated final line that does not decode is a torn tail: it is
/// dropped and reported in [`EventStream::torn_tail`].
///
/// # Errors
///
/// A `\n`-terminated line that does not decode, or a `Schema` header of
/// another version (see [`check_schema`]); the message names the line.
pub fn read_stream(text: &str) -> Result<EventStream, String> {
    let mut stream = EventStream::default();
    for (idx, raw) in text.split_inclusive('\n').enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let event = match CampaignEvent::from_line(line) {
            Ok(event) => event,
            // Only the final piece of the split can lack its newline.
            Err(_) if !raw.ends_with('\n') => {
                stream.torn_tail = true;
                break;
            }
            Err(e) => return Err(format!("line {}: {e}", idx + 1)),
        };
        if let CampaignEvent::Schema { version } = event {
            check_schema(version).map_err(|e| format!("line {}: {e}", idx + 1))?;
            stream.version = Some(version);
        }
        stream.events.push((idx + 1, event));
    }
    Ok(stream)
}

/// A consumer of streaming campaign events.
///
/// All methods default to no-ops, so implementations override only what they
/// observe.  Methods take `&mut self` and are invoked from the thread that
/// called `run_samples_streamed` — sinks need `Send` only because campaign
/// configs may cross threads, not for concurrent dispatch.
pub trait CampaignSink: Send {
    /// A sample is about to run.
    fn on_sample_start(&mut self, _seed: u64, _index: usize) {}

    /// One test-run of a sample completed.
    fn on_test_run(&mut self, _seed: u64, _run: usize, _found: bool, _fitness: f64, _cycles: u64) {}

    /// A test-run exposed a violation.
    fn on_violation(&mut self, _seed: u64, _run: usize, _detail: &str) {}

    /// A sample ran to completion.
    fn on_sample_done(&mut self, _result: &CampaignResult) {}

    /// A sample panicked.
    fn on_sample_panic(&mut self, _seed: u64, _message: &str) {}

    /// A stream schema header was observed.
    fn on_schema(&mut self, _version: u32) {}

    /// A telemetry snapshot arrived.
    fn on_metrics(&mut self, _seed: u64, _run: usize, _snapshot: &MetricsSnapshot) {}

    /// A fabric worker started a grid cell.
    fn on_cell_start(&mut self, _cell: u64, _label: &str) {}

    /// A cell-attributed sample completed on a fabric worker.  Defaults to
    /// forwarding the result to [`CampaignSink::on_sample_done`], so
    /// collectors and progress reporters see distributed completions without
    /// fabric-specific code.
    fn on_sample_result(&mut self, _cell: u64, result: &CampaignResult) {
        self.on_sample_done(result);
    }

    /// A fabric worker finished a grid cell.
    fn on_cell_done(&mut self, _cell: u64, _samples: usize) {}

    /// The coordinator resumed from a partial journal.
    fn on_resume(&mut self, _cells_skipped: usize, _samples_skipped: usize) {}

    /// End-of-campaign coordinator statistics arrived.
    fn on_fabric_stats(
        &mut self,
        _dispatched: u64,
        _stolen: u64,
        _redispatched: u64,
        _resume_skipped: u64,
    ) {
    }

    /// Dispatches one event to the matching method (the channel-drain entry
    /// point; implementations normally override the specific methods).
    fn on_event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::Schema { version } => self.on_schema(*version),
            CampaignEvent::SampleStart { seed, index } => self.on_sample_start(*seed, *index),
            CampaignEvent::TestRun {
                seed,
                run,
                found,
                fitness,
                cycles,
            } => self.on_test_run(*seed, *run, *found, *fitness, *cycles),
            CampaignEvent::Violation { seed, run, detail } => {
                self.on_violation(*seed, *run, detail)
            }
            CampaignEvent::SampleDone { result } => self.on_sample_done(result),
            CampaignEvent::SamplePanic { seed, message } => self.on_sample_panic(*seed, message),
            CampaignEvent::Metrics {
                seed,
                run,
                snapshot,
            } => self.on_metrics(*seed, *run, snapshot),
            CampaignEvent::CellStart { cell, label } => self.on_cell_start(*cell, label),
            CampaignEvent::SampleResult { cell, result } => self.on_sample_result(*cell, result),
            CampaignEvent::CellDone { cell, samples } => self.on_cell_done(*cell, *samples),
            CampaignEvent::Resume {
                cells_skipped,
                samples_skipped,
            } => self.on_resume(*cells_skipped, *samples_skipped),
            CampaignEvent::FabricStats {
                dispatched,
                stolen,
                redispatched,
                resume_skipped,
            } => self.on_fabric_stats(*dispatched, *stolen, *redispatched, *resume_skipped),
        }
    }
}

/// Discards every event.
#[derive(Debug, Default)]
pub struct NullSink;

impl CampaignSink for NullSink {}

/// Collects completed sample results, in arrival order (the old
/// `run_samples` behaviour expressed as a sink).
#[derive(Debug, Default)]
pub struct CollectSink {
    results: Vec<CampaignResult>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The collected results, in arrival order.
    pub fn results(&self) -> &[CampaignResult] {
        &self.results
    }

    /// Consumes the sink, returning the collected results.
    pub fn into_results(self) -> Vec<CampaignResult> {
        self.results
    }
}

impl CampaignSink for CollectSink {
    fn on_sample_done(&mut self, result: &CampaignResult) {
        self.results.push(result.clone());
    }
}

/// How many test-runs pass between `ProgressSink` throughput lines.
const PROGRESS_RATE_EVERY: u64 = 100;

/// Live progress reporting: one line per sample start/finish and per
/// violation, written as events arrive, plus a rolling runs/sec throughput
/// line every `PROGRESS_RATE_EVERY` (100) test-runs.
pub struct ProgressSink<W: Write + Send> {
    out: W,
    prefix: String,
    /// Started at sink construction; basis of the rolling runs/sec line.
    clock: Stopwatch,
    /// Test-run events observed so far, across all samples.
    runs: u64,
}

impl ProgressSink<std::io::Stderr> {
    /// Progress lines on stderr.
    pub fn stderr() -> Self {
        ProgressSink::new(std::io::stderr())
    }
}

impl<W: Write + Send> ProgressSink<W> {
    /// Progress lines on an arbitrary writer.
    pub fn new(out: W) -> Self {
        ProgressSink {
            out,
            prefix: String::new(),
            clock: Stopwatch::start(),
            runs: 0,
        }
    }

    /// Prefixes every line (e.g. with the campaign cell's label).
    pub fn with_prefix(mut self, prefix: &str) -> Self {
        self.prefix = format!("{prefix} ");
        self
    }

    /// Test-runs per second since the sink was constructed.
    fn runs_per_sec(&self) -> f64 {
        self.runs as f64 / self.clock.elapsed().as_secs_f64().max(1e-9)
    }
}

impl<W: Write + Send> std::fmt::Debug for ProgressSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl<W: Write + Send> CampaignSink for ProgressSink<W> {
    fn on_sample_start(&mut self, seed: u64, index: usize) {
        let _ = writeln!(
            self.out,
            "{}sample #{index} (seed {seed}) started",
            self.prefix
        );
    }

    fn on_test_run(&mut self, _seed: u64, _run: usize, _found: bool, _fitness: f64, _cycles: u64) {
        self.runs += 1;
        if self.runs.is_multiple_of(PROGRESS_RATE_EVERY) {
            let rate = self.runs_per_sec();
            let _ = writeln!(
                self.out,
                "{}{} runs, {rate:.1} runs/s",
                self.prefix, self.runs
            );
        }
    }

    fn on_violation(&mut self, seed: u64, run: usize, detail: &str) {
        let _ = writeln!(
            self.out,
            "{}! seed {seed}: {detail} (test-run {run})",
            self.prefix
        );
    }

    fn on_sample_done(&mut self, result: &CampaignResult) {
        let verdict = if result.found {
            format!("FOUND at run {}", result.found_at_run.unwrap_or(0))
        } else {
            "not found".to_string()
        };
        let rate = self.runs_per_sec();
        let _ = writeln!(
            self.out,
            "{}sample seed {} done: {verdict} after {} runs ({} cycles, {rate:.1} runs/s overall)",
            self.prefix, result.seed, result.test_runs, result.simulated_cycles
        );
    }

    fn on_sample_panic(&mut self, seed: u64, message: &str) {
        let _ = writeln!(
            self.out,
            "{}sample seed {seed} PANICKED: {message}",
            self.prefix
        );
    }
}

/// Machine-readable event stream: one JSON object per line (JSONL), flushed
/// per event so a consumer can tail the file while the campaign runs, and
/// once more on drop (so a buffered writer wrapped in the sink cannot lose
/// its tail when a campaign binary returns early).
///
/// The first line of every stream is a [`CampaignEvent::Schema`] header
/// carrying [`EVENT_SCHEMA_VERSION`], written lazily just before the first
/// event (not at all when [`JsonlSink::append`] continues a non-empty file).
pub struct JsonlSink<W: Write + Send> {
    /// `None` only after [`JsonlSink::into_inner`] moved the writer out.
    out: Option<W>,
    lines: u64,
    /// Whether the schema header line has been written yet.
    header_written: bool,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncates) a JSONL file at `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        create_parent_dir(path)?;
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }

    /// Opens `path` for appending, creating it (and its parent directories)
    /// as needed: the fabric's journal, which a killed campaign resumes in
    /// place.
    ///
    /// The schema header is written only when the file is empty.  A file
    /// whose last byte is not `\n` was cut mid-write and is repaired first:
    /// an unterminated tail that decodes as an event is terminated, one that
    /// does not is truncated away — exactly the line [`read_stream`] drops
    /// as torn.  So a journal cut at any byte resumes any number of times.
    pub fn append(path: &str) -> std::io::Result<Self> {
        create_parent_dir(path)?;
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut text = Vec::new();
        out.read_to_end(&mut text)?;
        let complete = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let tail = &text[complete..];
        if !tail.is_empty() {
            let decodes =
                std::str::from_utf8(tail).is_ok_and(|line| CampaignEvent::from_line(line).is_ok());
            if decodes {
                out.write_all(b"\n")?;
            } else {
                out.set_len(complete as u64)?;
            }
        }
        let header_written = out.metadata()?.len() > 0;
        let mut sink = JsonlSink::new(out);
        sink.header_written = header_written;
        Ok(sink)
    }
}

/// Creates the parent directories of `path`, if it names any.
fn create_parent_dir(path: &str) -> std::io::Result<()> {
    match std::path::Path::new(path).parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Streams events into an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            lines: 0,
            header_written: false,
        }
    }

    /// Number of lines this sink has written, including the schema header.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consumes the sink, returning the (flushed) writer.
    pub fn into_inner(mut self) -> W {
        let mut out = self.out.take().expect("writer present until into_inner");
        let _ = out.flush();
        out
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl<W: Write + Send> CampaignSink for JsonlSink<W> {
    fn on_event(&mut self, event: &CampaignEvent) {
        let Some(out) = self.out.as_mut() else {
            return;
        };
        if !self.header_written {
            self.header_written = true;
            if !matches!(event, CampaignEvent::Schema { .. }) {
                let header = CampaignEvent::Schema {
                    version: EVENT_SCHEMA_VERSION,
                };
                if let Ok(line) = serde_json::to_string(&header) {
                    if writeln!(out, "{line}").is_ok() {
                        self.lines += 1;
                    }
                }
            }
        }
        if let Ok(line) = serde_json::to_string(event) {
            debug_assert!(!line.contains('\n'), "events must be single-line");
            if writeln!(out, "{line}").is_ok() {
                self.lines += 1;
            }
            let _ = out.flush();
        }
    }
}

/// Fan-out: both sinks receive every event, in order.
impl<A: CampaignSink, B: CampaignSink> CampaignSink for (A, B) {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }
}

/// A mutable reference forwards to the sink it borrows, so sinks that
/// outlive one batch (e.g. a JSONL stream spanning a whole sweep) compose
/// with per-cell sinks: `(&mut progress, &mut jsonl)`.
impl<S: CampaignSink + ?Sized> CampaignSink for &mut S {
    fn on_event(&mut self, event: &CampaignEvent) {
        (**self).on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorKind;
    use mcversi_mcm::ModelKind;
    use mcversi_sim::CoreStrength;
    use std::time::Duration;

    fn result(seed: u64, found: bool) -> CampaignResult {
        CampaignResult {
            generator: GeneratorKind::McVerSiRand,
            bug: None,
            model: ModelKind::Tso,
            core: CoreStrength::Strong,
            seed,
            found,
            detail: found.then(|| "MCM violation of axiom 'ghb'".to_string()),
            test_runs: 5,
            found_at_run: found.then_some(5),
            simulated_cycles: 1234,
            wall_time: Duration::from_millis(10),
            max_total_coverage: 0.25,
            final_mean_ndt: 1.5,
            metrics: None,
        }
    }

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::SampleStart { seed: 7, index: 0 },
            CampaignEvent::TestRun {
                seed: 7,
                run: 1,
                found: false,
                fitness: 0.5,
                cycles: 100,
            },
            CampaignEvent::Violation {
                seed: 7,
                run: 2,
                detail: "MCM violation of axiom 'ghb'".to_string(),
            },
            CampaignEvent::SampleDone {
                result: result(7, true),
            },
            CampaignEvent::SamplePanic {
                seed: 8,
                message: "boom".to_string(),
            },
            CampaignEvent::Metrics {
                seed: 7,
                run: 2,
                snapshot: {
                    let mut snapshot = MetricsSnapshot::default();
                    snapshot.counters.insert("sim.l1.hit".to_string(), 11);
                    snapshot
                },
            },
        ]
    }

    #[test]
    fn collect_sink_gathers_sample_results() {
        let mut sink = CollectSink::new();
        for event in sample_events() {
            sink.on_event(&event);
        }
        assert_eq!(sink.results().len(), 1);
        assert_eq!(sink.into_results()[0].seed, 7);
    }

    #[test]
    fn jsonl_sink_emits_one_valid_json_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = sample_events();
        for event in &events {
            sink.on_event(event);
        }
        // One line per event, plus the lazily written schema header.
        assert_eq!(sink.lines(), events.len() as u64 + 1);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len() + 1);
        for line in &lines {
            let value = serde_json::value_from_str(line)
                .unwrap_or_else(|e| panic!("invalid JSONL line `{line}`: {e}"));
            assert!(value.as_object().is_some(), "events render as objects");
        }
        // The stream starts with the schema header and round-trips back into
        // events.
        let header = CampaignEvent::from_line(lines[0]).unwrap();
        assert!(matches!(
            header,
            CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION
            }
        ));
        let first = CampaignEvent::from_line(lines[1]).unwrap();
        assert!(matches!(
            first,
            CampaignEvent::SampleStart { seed: 7, index: 0 }
        ));
        let done = CampaignEvent::from_line(lines[4]).unwrap();
        match done {
            CampaignEvent::SampleDone { result } => {
                assert_eq!(result.seed, 7);
                assert!(result.found);
            }
            other => panic!("expected SampleDone, got {other:?}"),
        }
        let metrics = CampaignEvent::from_line(lines[6]).unwrap();
        match metrics {
            CampaignEvent::Metrics {
                seed,
                run,
                snapshot,
            } => {
                assert_eq!((seed, run), (7, 2));
                assert_eq!(snapshot.counters["sim.l1.hit"], 11);
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_sink_writes_the_schema_header_exactly_once() {
        let mut sink = JsonlSink::new(Vec::new());
        for event in sample_events().iter().take(2) {
            sink.on_event(event);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let headers = text
            .lines()
            .filter(|line| line.contains("\"Schema\""))
            .count();
        assert_eq!(headers, 1);
        assert!(text.lines().next().unwrap().contains("\"Schema\""));
    }

    #[test]
    fn jsonl_sink_append_reopens_without_a_second_header() {
        let dir = std::env::temp_dir().join(format!("mcversi-sink-{}", std::process::id()));
        let path = dir.join("append.jsonl").to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = JsonlSink::append(&path).unwrap();
            sink.on_event(&CampaignEvent::CellStart {
                cell: 1,
                label: "a".into(),
            });
            assert_eq!(sink.lines(), 2, "header + event");
        }
        {
            let mut sink = JsonlSink::append(&path).unwrap();
            sink.on_event(&CampaignEvent::CellDone {
                cell: 1,
                samples: 0,
            });
            assert_eq!(sink.lines(), 1, "append run writes no second header");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let headers = text.lines().filter(|l| l.contains("\"Schema\"")).count();
        assert_eq!(headers, 1);
        let stream = read_stream(&text).unwrap();
        assert_eq!(stream.version, Some(EVENT_SCHEMA_VERSION));
        assert!(matches!(
            stream.events.last(),
            Some((3, CampaignEvent::CellDone { cell: 1, .. }))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_stream_drops_only_an_unterminated_undecodable_tail() {
        let header = format!("{{\"Schema\":{{\"version\":{EVENT_SCHEMA_VERSION}}}}}");
        let event = "{\"CellDone\":{\"cell\":1,\"samples\":0}}";

        let torn = read_stream(&format!("{header}\n{event}\n{{\"CellDo")).unwrap();
        assert!(torn.torn_tail);
        assert_eq!(torn.version, Some(EVENT_SCHEMA_VERSION));
        assert_eq!(torn.events.len(), 2);

        // An unterminated final line that decodes is an event like any other.
        let whole = read_stream(&format!("{header}\n\n{event}")).unwrap();
        assert!(!whole.torn_tail);
        assert!(matches!(
            whole.events[1],
            (3, CampaignEvent::CellDone { cell: 1, .. })
        ));

        // A terminated line that does not decode is corruption, wherever it is.
        let err = read_stream(&format!("{header}\n{{\"CellDo\n")).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        let err = read_stream(&format!("{header}\nnot json\n{event}\n")).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");

        // Header-less streams are accepted; foreign versions are not.
        let headerless = read_stream(event).unwrap();
        assert_eq!((headerless.version, headerless.events.len()), (None, 1));
        let err = read_stream(&format!("{event}\n{{\"Schema\":{{\"version\":99}}}}")).unwrap_err();
        assert_eq!(
            err,
            format!("line 2: schema version 99 (this build reads {EVENT_SCHEMA_VERSION})")
        );
    }

    #[test]
    fn jsonl_sink_flushes_on_drop_and_on_into_inner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Counts `flush` calls so the test can observe the drop-time flush.
        struct FlushProbe(Arc<AtomicUsize>);
        impl Write for FlushProbe {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = Arc::new(AtomicUsize::new(0));
        {
            let mut sink = JsonlSink::new(FlushProbe(Arc::clone(&flushes)));
            sink.on_event(&sample_events()[0]);
            assert_eq!(flushes.load(Ordering::SeqCst), 1, "one flush per event");
        }
        assert_eq!(
            flushes.load(Ordering::SeqCst),
            2,
            "dropping the sink flushes the writer once more"
        );

        // `into_inner` flushes too, and taking the writer out means the
        // subsequent drop of the (now writer-less) sink cannot flush again.
        let probe = JsonlSink::new(FlushProbe(Arc::clone(&flushes))).into_inner();
        assert_eq!(flushes.load(Ordering::SeqCst), 3);
        drop(probe);
        assert_eq!(flushes.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn progress_sink_reports_lifecycle_lines() {
        let mut out = Vec::new();
        {
            let mut sink = ProgressSink::new(&mut out).with_prefix("[cell]");
            for event in sample_events() {
                sink.on_event(&event);
            }
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("[cell] sample #0 (seed 7) started"));
        assert!(text.contains("FOUND at run 5"));
        assert!(text.contains("MCM violation"));
        assert!(text.contains("PANICKED: boom"));
    }

    #[test]
    fn tuple_sink_fans_out_to_both() {
        let mut pair = (CollectSink::new(), JsonlSink::new(Vec::new()));
        for event in sample_events() {
            pair.on_event(&event);
        }
        assert_eq!(pair.0.results().len(), 1);
        // Six events plus the JSONL schema header.
        assert_eq!(pair.1.lines(), 7);
    }

    #[test]
    fn progress_sink_reports_rolling_runs_per_sec() {
        let mut out = Vec::new();
        {
            let mut sink = ProgressSink::new(&mut out);
            for run in 1..=(PROGRESS_RATE_EVERY as usize) {
                sink.on_event(&CampaignEvent::TestRun {
                    seed: 7,
                    run,
                    found: false,
                    fitness: 0.5,
                    cycles: 100,
                });
            }
        }
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains(&format!("{PROGRESS_RATE_EVERY} runs, ")) && text.contains(" runs/s"),
            "expected a rolling throughput line, got: {text}"
        );
    }
}
