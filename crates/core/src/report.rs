//! Experiment reporting: the rows behind Tables 4, 5 and 6.
//!
//! Campaign results are aggregated per (bug, generator) pair into the same
//! quantities the paper reports: how many of the samples found the bug, and
//! the mean (normalised) time to find it.  The budget-extrapolation view of
//! Table 5 treats the stateless generators' independent samples as one longer
//! run, exactly as §6.1 argues.

use crate::campaign::CampaignResult;
use crate::generator::GeneratorKind;
use crate::sink::{read_stream, CampaignEvent};
use mcversi_sim::Bug;
use mcversi_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One cell of Table 4: a generator attacking a bug.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BugCoverageCell {
    /// The generator.
    pub generator: GeneratorKind,
    /// Label distinguishing configurations of the same generator (e.g. the
    /// test-memory size "1KB" / "8KB").
    pub config_label: String,
    /// Number of samples that found the bug.
    pub found: usize,
    /// Total number of samples.
    pub samples: usize,
    /// Mean normalised time-to-bug over all samples (1.0 = budget exhausted).
    pub mean_time: f64,
}

impl BugCoverageCell {
    /// Returns `true` if every sample found the bug (the paper's bold cells).
    pub fn consistent(&self) -> bool {
        self.samples > 0 && self.found == self.samples
    }

    /// Formats the cell in the paper's style: `found (mean time)` or `NF`.
    pub fn render(&self) -> String {
        if self.found == 0 {
            "NF".to_string()
        } else {
            format!("{} ({:.2})", self.found, self.mean_time)
        }
    }
}

/// Aggregates the samples of one (bug, generator-config) cell.
pub fn aggregate_cell(
    generator: GeneratorKind,
    config_label: &str,
    results: &[CampaignResult],
    budget: usize,
) -> BugCoverageCell {
    let samples = results.len();
    let found = results.iter().filter(|r| r.found).count();
    let mean_time = if samples == 0 {
        1.0
    } else {
        results
            .iter()
            .map(|r| r.normalized_time_to_bug(budget))
            .sum::<f64>()
            / samples as f64
    };
    BugCoverageCell {
        generator,
        config_label: config_label.to_string(),
        found,
        samples,
        mean_time,
    }
}

/// A full Table-4-style report: per bug, per generator configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BugCoverageTable {
    /// Column labels in display order.
    pub columns: Vec<String>,
    /// Rows: bug → column label → cell.
    pub rows: BTreeMap<String, BTreeMap<String, BugCoverageCell>>,
}

impl BugCoverageTable {
    /// Creates an empty table with the given column order.
    pub fn new(columns: Vec<String>) -> Self {
        BugCoverageTable {
            columns,
            rows: BTreeMap::new(),
        }
    }

    /// Inserts one cell.
    pub fn insert(&mut self, bug: Bug, column: &str, cell: BugCoverageCell) {
        self.rows
            .entry(bug.paper_name().to_string())
            .or_default()
            .insert(column.to_string(), cell);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bug_width = self
            .rows
            .keys()
            .map(|b| b.len())
            .max()
            .unwrap_or(10)
            .max("Bug".len());
        let col_width = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(12)
            .max(12);
        let _ = write!(out, "{:<bug_width$}", "Bug");
        for c in &self.columns {
            let _ = write!(out, "  {c:>col_width$}");
        }
        out.push('\n');
        for (bug, cells) in &self.rows {
            let _ = write!(out, "{bug:<bug_width$}");
            for c in &self.columns {
                let rendered = match cells.get(c) {
                    Some(cell) => cell.render(),
                    None => "-".to_string(),
                };
                let _ = write!(out, "  {rendered:>col_width$}");
            }
            out.push('\n');
        }
        out
    }

    /// Summary row: per column, the number of (bug, sample) pairs that found
    /// their bug and the mean time (the paper's "All" row).
    pub fn summary(&self) -> BTreeMap<String, (usize, f64)> {
        let mut out = BTreeMap::new();
        for column in &self.columns {
            let mut found = 0usize;
            let mut times = Vec::new();
            for cells in self.rows.values() {
                if let Some(cell) = cells.get(column) {
                    found += cell.found;
                    times.push(cell.mean_time);
                }
            }
            let mean = if times.is_empty() {
                1.0
            } else {
                times.iter().sum::<f64>() / times.len() as f64
            };
            out.insert(column.clone(), (found, mean));
        }
        out
    }
}

/// A Table-5-style budget extrapolation: the fraction of bugs found within
/// multiples of the base budget, exploiting that stateless generators'
/// independent samples compose into one longer run.
pub fn budget_extrapolation(
    cells: &[(Bug, BugCoverageCell)],
    multiples: &[usize],
) -> BTreeMap<usize, f64> {
    let mut out = BTreeMap::new();
    let num_bugs = cells.len().max(1);
    for &m in multiples {
        let mut found_bugs = 0usize;
        for (_, cell) in cells {
            // Within m times the budget, a stateless generator effectively
            // gets m * samples attempts; the bug counts as found if any sample
            // found it... within one budget each sample is an independent
            // 1-budget attempt, so "found within m budgets" means at least one
            // of the first min(m, samples) samples found it.
            let attempts = m.min(cell.samples.max(1));
            let any_found = cell.found > 0 && {
                // Conservative: assume the successful samples are uniformly
                // spread; with `found` successes out of `samples`, the chance
                // that `attempts` attempts contain a success is high once
                // attempts >= samples / found.
                attempts * cell.found >= cell.samples || cell.found >= cell.samples
            };
            if any_found {
                found_bugs += 1;
            }
        }
        out.insert(m, found_bugs as f64 / num_bugs as f64);
    }
    out
}

/// One row of Table 6: maximum total transition coverage per generator
/// configuration for one protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Protocol name ("MESI" or "TSO-CC").
    pub protocol: String,
    /// Column label → maximum coverage fraction observed across samples.
    pub coverage: BTreeMap<String, f64>,
}

impl CoverageRow {
    /// Renders the row as plain text percentages.
    pub fn render(&self, columns: &[String]) -> String {
        let mut out = format!("{:<8}", self.protocol);
        for c in columns {
            match self.coverage.get(c) {
                Some(v) => {
                    let _ = write!(out, "  {:>12}", format!("{:.1}%", v * 100.0));
                }
                None => {
                    let _ = write!(out, "  {:>12}", "-");
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Telemetry reporting (`mcversi-report`)
// ---------------------------------------------------------------------------

/// An error interpreting a campaign-event JSONL stream as a metrics report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReportError(pub String);

impl std::fmt::Display for MetricsReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MetricsReportError {}

/// Distributed-fabric activity observed in a journal or worker stream:
/// [`CampaignEvent::FabricStats`] totals plus resume/cell bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricTotals {
    /// Shard dispatches to worker processes.
    pub dispatched: u64,
    /// Dispatches stolen from another worker's queue.
    pub stolen: u64,
    /// Shards re-dispatched after worker loss.
    pub redispatched: u64,
    /// Samples skipped thanks to a resume journal.
    pub resume_skipped: u64,
    /// [`CampaignEvent::Resume`] records observed.
    pub resumes: usize,
    /// [`CampaignEvent::CellDone`] records observed.
    pub cells_done: usize,
}

impl FabricTotals {
    /// Returns `true` when no fabric activity was observed at all.
    pub fn is_empty(&self) -> bool {
        *self == FabricTotals::default()
    }
}

/// The telemetry of one or more campaign-event JSONL streams (see
/// [`crate::sink::JsonlSink`]), reduced to one final snapshot per sample.
///
/// A [`CampaignEvent::SampleDone`] (or its cell-attributed fabric form,
/// [`CampaignEvent::SampleResult`]) closes its sample with the result's final
/// snapshot; a sample that never completed (crashed or still running) is
/// represented by its last streamed [`CampaignEvent::Metrics`] snapshot,
/// which is cumulative by construction.  Samples are kept individually —
/// sweep streams interleave many cells whose seeds repeat, so keying by seed
/// alone would silently drop data.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// One `(seed, final snapshot)` entry per completed sample, in stream
    /// order.
    pub completed: Vec<(u64, MetricsSnapshot)>,
    /// Last streamed snapshot of each sample that never reported done.
    pub unfinished: BTreeMap<u64, MetricsSnapshot>,
    /// Total wall time over all completed samples, in nanoseconds.
    pub wall_ns: u64,
    /// Total number of events in the stream (including the schema header).
    pub events: usize,
    /// Distributed-fabric activity, if the streams carried any.
    pub fabric: FabricTotals,
}

impl MetricsReport {
    /// Parses a campaign-event JSONL stream.
    ///
    /// # Errors
    ///
    /// Fails on a complete line that does not decode or a
    /// [`CampaignEvent::Schema`] header whose version differs from this
    /// build's [`crate::sink::EVENT_SCHEMA_VERSION`] (see [`read_stream`]).
    /// A stream without a header (pre-versioning producer) is accepted, and
    /// so is one whose writer was killed mid-line: its torn final fragment is
    /// dropped and every complete event counts.
    pub fn from_jsonl(text: &str) -> Result<Self, MetricsReportError> {
        let mut report = MetricsReport::default();
        report.ingest(text, "")?;
        Ok(report)
    }

    /// Parses and merges several campaign-event JSONL streams — e.g. one
    /// journal per fabric worker — into one report.
    ///
    /// Every stream must carry the same schema version (in practice this
    /// build's [`crate::sink::EVENT_SCHEMA_VERSION`]); a mix of versions is rejected with
    /// the offending stream named, so a worker left behind by a format bump
    /// cannot silently corrupt a merged report.  Error messages are prefixed
    /// with the 1-based stream index.
    pub fn from_jsonl_streams(streams: &[&str]) -> Result<Self, MetricsReportError> {
        let mut report = MetricsReport::default();
        for (idx, text) in streams.iter().enumerate() {
            let prefix = if streams.len() > 1 {
                format!("stream {}: ", idx + 1)
            } else {
                String::new()
            };
            report.ingest(text, &prefix)?;
        }
        Ok(report)
    }

    /// Folds one JSONL stream into the report (see [`Self::from_jsonl`]).
    fn ingest(&mut self, text: &str, prefix: &str) -> Result<(), MetricsReportError> {
        let stream = read_stream(text).map_err(|e| MetricsReportError(format!("{prefix}{e}")))?;
        self.events += stream.events.len();
        // Streamed snapshots are subsumed per stream: a `SampleDone` in one
        // worker's stream must not cancel another worker's live snapshot.
        let mut streamed: BTreeMap<u64, MetricsSnapshot> = BTreeMap::new();
        for (_, event) in stream.events {
            match event {
                CampaignEvent::Metrics { seed, snapshot, .. } => {
                    streamed.insert(seed, snapshot);
                }
                CampaignEvent::SampleDone { result }
                | CampaignEvent::SampleResult { cell: _, result } => {
                    self.wall_ns += result.wall_time.as_nanos() as u64;
                    // The final snapshot subsumes the sample's streamed ones
                    // (all snapshots are cumulative).
                    let last_streamed = streamed.remove(&result.seed);
                    if let Some(snapshot) = result.metrics.or(last_streamed) {
                        self.completed.push((result.seed, snapshot));
                    }
                }
                CampaignEvent::CellDone { .. } => {
                    self.fabric.cells_done += 1;
                }
                CampaignEvent::Resume {
                    cells_skipped: _,
                    samples_skipped,
                } => {
                    self.fabric.resumes += 1;
                    self.fabric.resume_skipped += samples_skipped as u64;
                }
                CampaignEvent::FabricStats {
                    dispatched,
                    stolen,
                    redispatched,
                    resume_skipped,
                } => {
                    self.fabric.dispatched += dispatched;
                    self.fabric.stolen += stolen;
                    self.fabric.redispatched += redispatched;
                    // `FabricStats.resume_skipped` restates the per-`Resume`
                    // counts already folded in above; keep the larger so a
                    // journal carrying both records is not double-counted.
                    self.fabric.resume_skipped = self.fabric.resume_skipped.max(resume_skipped);
                }
                _ => {}
            }
        }
        for (seed, snapshot) in streamed {
            match self.unfinished.entry(seed) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(snapshot);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().merge(&snapshot);
                }
            }
        }
        Ok(())
    }

    /// Number of samples represented (completed plus unfinished).
    pub fn samples(&self) -> usize {
        self.completed.len() + self.unfinished.len()
    }

    /// Returns `true` if the stream carried no telemetry at all.
    pub fn is_empty(&self) -> bool {
        self.completed.iter().all(|(_, s)| s.is_empty())
            && self.unfinished.values().all(|s| s.is_empty())
    }

    /// Folds the per-sample snapshots into one campaign-wide snapshot.
    pub fn aggregate(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for (_, snapshot) in &self.completed {
            total.merge(snapshot);
        }
        for snapshot in self.unfinished.values() {
            total.merge(snapshot);
        }
        total
    }

    /// Total wall time across all completed samples, in nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Renders the aggregated telemetry as aligned plain text: the phase
    /// timers with their share of sample wall time, then every counter, then
    /// every histogram.
    pub fn render(&self) -> String {
        let total = self.aggregate();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Telemetry report: {} sample(s), {} event(s)",
            self.samples(),
            self.events
        );
        if total.is_empty() {
            out.push_str("no telemetry recorded (run with MCVERSI_METRICS=sample or a cadence)\n");
            self.render_fabric(&mut out);
            return out;
        }

        let wall = self.total_wall_ns();
        let phase_total = total.timer_sum_ns("phase.");
        out.push('\n');
        if wall > 0 {
            let _ = writeln!(
                out,
                "Phase timers ({:.1}% of {} ns sample wall time):",
                100.0 * phase_total as f64 / wall as f64,
                wall
            );
        } else {
            let _ = writeln!(out, "Phase timers ({phase_total} ns total):");
        }
        let name_width = column_width(total.timers.keys().chain(total.counters.keys()));
        let pipelined = total.timers.contains_key(VERDICT_WAIT);
        for (name, hist) in &total.timers {
            let share = if name.starts_with("phase.") && phase_total > 0 {
                format!("{:>5.1}%", 100.0 * hist.sum as f64 / phase_total as f64)
            } else {
                format!("{:>6}", "-")
            };
            let off_thread = if pipelined && name == CHECK {
                "  off-thread"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {name:<name_width$}  {share}  {:>14} ns  {:>10} spans{off_thread}",
                hist.sum, hist.count
            );
        }
        render_verifier(&total, &mut out);

        out.push('\n');
        out.push_str("Counters:\n");
        for (name, value) in &total.counters {
            let _ = writeln!(out, "  {name:<name_width$}  {value:>14}");
        }

        self.render_fabric(&mut out);
        render_sleep(&total, &mut out);
        render_checker(&total, &mut out);
        render_simulator_verdicts(&total, &mut out);

        if !total.histograms.is_empty() {
            out.push('\n');
            out.push_str("Histograms:\n");
            let hist_width = column_width(total.histograms.keys());
            for (name, hist) in &total.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<hist_width$}  count {:>10}  sum {:>14}  mean {:>10.1}",
                    hist.count,
                    hist.sum,
                    hist.mean()
                );
            }
        }
        out
    }

    /// Appends the distributed-fabric summary line when the streams carried
    /// coordinator activity (`fabric.*` counters, resume or cell records).
    fn render_fabric(&self, out: &mut String) {
        if self.fabric.is_empty() {
            return;
        }
        let f = &self.fabric;
        out.push('\n');
        let _ = writeln!(
            out,
            "Distributed fabric: {} shard dispatch(es) ({} stolen, \
             {} re-dispatched after worker loss), {} cell(s) completed, \
             {} resume(s) skipping {} journaled sample(s)",
            f.dispatched, f.stolen, f.redispatched, f.cells_done, f.resumes, f.resume_skipped,
        );
    }
}

/// The check phase, and the caller's wait for the verifier that runs it.
const CHECK: &str = "phase.check";
const VERDICT_WAIT: &str = "phase.verdict_wait";

/// Appends what the phase table cannot say by itself once the runner checks
/// on its verifier thread: `phase.check` then runs while `phase.simulate`
/// does — all but the last check of a test-run — so phase shares may add up
/// to more than the wall time, and what the checks cost the sample thread is
/// `phase.verdict_wait`.
fn render_verifier(total: &MetricsSnapshot, out: &mut String) {
    let timer = |name: &str| total.timers.get(name).map_or(0, |t| t.sum);
    if let Some(wait) = total.timers.get(VERDICT_WAIT) {
        let check = timer(CHECK);
        let share = if check > 0 {
            format!(
                " ({:.1}% of {CHECK})",
                100.0 * wait.sum as f64 / check as f64
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {CHECK} ran off-thread, on the verifier, except for the last check of \
             each test-run, so phase shares may sum past 100%; the sample thread \
             waited {} ns for {} verdict(s){share}",
            wait.sum, wait.count
        );
    }
}

/// Appends how many test-runs the simulator ended — a protocol fault
/// (`sim.fault`) or a hang (`sim.hang`) rather than a checked verdict —
/// when any did.
fn render_simulator_verdicts(total: &MetricsSnapshot, out: &mut String) {
    let get = |name: &str| total.counters.get(name).copied().unwrap_or(0);
    let (faults, hangs) = (get("sim.fault"), get("sim.hang"));
    if faults + hangs > 0 {
        let _ = writeln!(
            out,
            "\nEnded by the simulator: {faults} test-run(s) with a protocol fault, \
             {hangs} with a hang"
        );
    }
}

/// Appends the simulator's sleep/wake summary line when the aggregated
/// counters carry `sim.ff.*`: how many component ticks the simulation loop
/// executed (and, where the stream carries the split, by which kind of
/// component) and how many it avoided by letting components sleep.
fn render_sleep(total: &MetricsSnapshot, out: &mut String) {
    let get = |name: &str| total.counters.get(name).copied().unwrap_or(0);
    let (ticks, naps) = (get("sim.ff.component_ticks"), get("sim.ff.component_naps"));
    if ticks + naps == 0 {
        return;
    }
    let _ = write!(
        out,
        "\nComponent sleep: {ticks} component tick(s) executed, {naps} slept through \
         ({:.1}% avoided), {} whole-cycle jump(s) over {} cycle(s)",
        100.0 * naps as f64 / (ticks + naps) as f64,
        get("sim.ff.segments"),
        get("sim.ff.skipped_cycles"),
    );
    let by_kind = ["memory", "l2", "l1", "core"]
        .map(|kind| (kind, get(&format!("sim.ff.component_ticks.{kind}"))));
    if by_kind.iter().any(|&(_, ticks)| ticks > 0) {
        let split = by_kind.map(|(kind, ticks)| format!("{kind} {ticks}"));
        let _ = write!(out, "; ticks by component: {}", split.join(", "));
    }
    out.push('\n');
}

/// Appends the checker's summary lines when the aggregated counters carry
/// them: how often a check found its model's static orders already derived
/// by an earlier check of the same test (about three in four at four
/// iterations per test-run — a campaign that stops sharing shows here), and
/// how many executions the checker rejected as malformed, which the host
/// reports as valid.
fn render_checker(total: &MetricsSnapshot, out: &mut String) {
    let get = |name: &str| total.counters.get(name).copied().unwrap_or(0);
    let (built, reused) = (
        get("mcm.static_orders.built"),
        get("mcm.static_orders.reused"),
    );
    if built + reused > 0 {
        let _ = writeln!(
            out,
            "\nStatic orders: derived {built} time(s), reused by {reused} check(s) \
             ({:.1}% of checks reused them)",
            100.0 * reused as f64 / (built + reused) as f64,
        );
    }
    let malformed = get("mcm.malformed_executions");
    if malformed > 0 {
        let _ = writeln!(
            out,
            "\nMalformed executions: {malformed} execution(s) failed well-formedness \
             validation and were reported valid unchecked (an observer bug, not a pass)"
        );
    }
}

/// Column width fitting every name in `names`.
fn column_width<'a>(names: impl Iterator<Item = &'a String>) -> usize {
    names.map(|n| n.len()).max().unwrap_or(8).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EVENT_SCHEMA_VERSION;
    use std::time::Duration;

    fn result(found: bool, found_at: Option<usize>) -> CampaignResult {
        CampaignResult {
            generator: GeneratorKind::McVerSiRand,
            bug: Some(Bug::LqNoTso),
            model: mcversi_mcm::ModelKind::Tso,
            core: mcversi_sim::CoreStrength::Strong,
            seed: 0,
            found,
            detail: None,
            test_runs: 40,
            found_at_run: found_at,
            simulated_cycles: 1000,
            wall_time: Duration::from_secs(1),
            max_total_coverage: 0.5,
            final_mean_ndt: 1.0,
            metrics: None,
        }
    }

    #[test]
    fn cell_aggregation_counts_and_averages() {
        let results = vec![
            result(true, Some(10)),
            result(true, Some(30)),
            result(false, None),
        ];
        let cell = aggregate_cell(GeneratorKind::McVerSiRand, "8KB", &results, 40);
        assert_eq!(cell.found, 2);
        assert_eq!(cell.samples, 3);
        assert!(!cell.consistent());
        // (10/40 + 30/40 + 1.0) / 3 = (0.25 + 0.75 + 1.0)/3
        assert!((cell.mean_time - 2.0 / 3.0).abs() < 1e-9);
        assert!(cell.render().starts_with("2 ("));
        let nf = aggregate_cell(GeneratorKind::DiyLitmus, "", &[result(false, None)], 40);
        assert_eq!(nf.render(), "NF");
    }

    #[test]
    fn table_renders_all_columns_and_summary() {
        let mut table = BugCoverageTable::new(vec!["A".to_string(), "B".to_string()]);
        let cell_a = aggregate_cell(GeneratorKind::McVerSiAll, "A", &[result(true, Some(5))], 40);
        let cell_b = aggregate_cell(GeneratorKind::McVerSiRand, "B", &[result(false, None)], 40);
        table.insert(Bug::LqNoTso, "A", cell_a);
        table.insert(Bug::LqNoTso, "B", cell_b);
        let text = table.render();
        assert!(text.contains("LQ+no-TSO"));
        assert!(text.contains("NF"));
        let summary = table.summary();
        assert_eq!(summary["A"].0, 1);
        assert_eq!(summary["B"].0, 0);
    }

    #[test]
    fn budget_extrapolation_grows_with_budget() {
        let cell_found_half = aggregate_cell(
            GeneratorKind::McVerSiRand,
            "8KB",
            &[result(true, Some(10)), result(false, None)],
            40,
        );
        let cell_never = aggregate_cell(
            GeneratorKind::McVerSiRand,
            "8KB",
            &[result(false, None)],
            40,
        );
        let cells = vec![(Bug::LqNoTso, cell_found_half), (Bug::SqNoFifo, cell_never)];
        let table = budget_extrapolation(&cells, &[1, 2, 10]);
        assert!(table[&1] <= table[&2]);
        assert!(table[&2] <= table[&10]);
        assert!(table[&10] <= 1.0);
    }

    fn snapshot(hits: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("sim.l1.mesi.hit".to_string(), hits);
        let spans = mcversi_telemetry::HistogramSnapshot {
            count: 1,
            sum: 900,
            ..Default::default()
        };
        s.timers.insert("phase.simulate".to_string(), spans);
        s
    }

    fn jsonl(events: &[CampaignEvent]) -> String {
        events
            .iter()
            .map(|e| serde_json::to_string(e).expect("events serialize"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn metrics_report_prefers_final_snapshots_and_keeps_streamed_fallbacks() {
        let mut done = result(true, Some(10));
        done.seed = 1;
        done.metrics = Some(snapshot(10));
        let text = jsonl(&[
            CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION,
            },
            CampaignEvent::Metrics {
                seed: 1,
                run: 2,
                snapshot: snapshot(5),
            },
            CampaignEvent::SampleDone { result: done },
            // Seed 2 never completed: its last streamed snapshot stands in.
            CampaignEvent::Metrics {
                seed: 2,
                run: 2,
                snapshot: snapshot(7),
            },
        ]);
        let report = MetricsReport::from_jsonl(&text).expect("stream parses");
        assert_eq!(report.events, 4);
        assert_eq!(report.samples(), 2);
        assert_eq!(report.completed, vec![(1, snapshot(10))]);
        assert_eq!(report.unfinished[&2].counters["sim.l1.mesi.hit"], 7);
        assert_eq!(report.total_wall_ns(), 1_000_000_000);
        let total = report.aggregate();
        assert_eq!(total.counters["sim.l1.mesi.hit"], 17);
        assert_eq!(total.timer_sum_ns("phase."), 1800);
        let rendered = report.render();
        assert!(rendered.contains("phase.simulate"));
        assert!(rendered.contains("sim.l1.mesi.hit"));
        assert!(rendered.contains("Counters:"));
    }

    #[test]
    fn metrics_report_rejects_future_schemas_and_bad_lines() {
        let future = jsonl(&[CampaignEvent::Schema { version: 99 }]);
        let err = MetricsReport::from_jsonl(&future).unwrap_err();
        assert!(format!("{err}").contains("schema version 99"));
        assert!(MetricsReport::from_jsonl("not json\n").is_err());
        // A header-less stream (pre-versioning producer) still parses.
        let headerless = jsonl(&[CampaignEvent::Metrics {
            seed: 3,
            run: 1,
            snapshot: snapshot(1),
        }]);
        let report = MetricsReport::from_jsonl(&headerless).expect("headerless parses");
        assert_eq!(report.samples(), 1);
    }

    /// A writer killed mid-line leaves an unterminated fragment — the stream
    /// a fabric journal resumes from.  The report renders every complete
    /// event before it; a `\n`-terminated bad line stays corruption.
    #[test]
    fn metrics_report_renders_a_killed_writers_stream() {
        let mut done = result(true, Some(10));
        done.metrics = Some(snapshot(10));
        let mut text = jsonl(&[
            CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION,
            },
            CampaignEvent::SampleResult {
                cell: 7,
                result: done,
            },
        ]);
        text.push_str("\n{\"SampleResult\":{\"cell\":7,\"resu");
        let report = MetricsReport::from_jsonl(&text).expect("a torn tail is dropped");
        assert_eq!(report.events, 2);
        assert_eq!(report.completed, vec![(0, snapshot(10))]);
        assert!(report.render().contains("sim.l1.mesi.hit"));

        text.push('\n');
        let err = MetricsReport::from_jsonl(&text).unwrap_err();
        assert!(format!("{err}").starts_with("line 3: "), "{err}");
    }

    #[test]
    fn metrics_report_keeps_samples_whose_seeds_repeat_across_cells() {
        // Sweep streams interleave cells that reuse seeds; every sample must
        // still count.
        let mut first = result(true, Some(1));
        first.seed = 1;
        first.metrics = Some(snapshot(3));
        let mut second = result(false, None);
        second.seed = 1;
        second.metrics = Some(snapshot(4));
        let text = jsonl(&[
            CampaignEvent::SampleDone { result: first },
            CampaignEvent::SampleDone { result: second },
        ]);
        let report = MetricsReport::from_jsonl(&text).expect("stream parses");
        assert_eq!(report.samples(), 2);
        assert_eq!(report.aggregate().counters["sim.l1.mesi.hit"], 7);
        assert_eq!(report.total_wall_ns(), 2_000_000_000);
    }

    /// Streams and journals written before the collective and vc checking
    /// modes were removed carry a `"dedup"` object in each sample result.
    /// They still parse — the derived deserializer ignores unknown keys —
    /// and render like any other sample.
    #[test]
    fn results_recorded_with_a_dedup_object_still_parse_and_render() {
        // A `SampleDone` line as the last build with collective checking
        // wrote it.
        let result = r#"{"generator": "McVerSiAll", "bug": "MesiLqIsInv", "model": "Tso", "core": "Strong", "seed": 1000, "found": false, "detail": null, "test_runs": 2, "found_at_run": null, "simulated_cycles": 8535, "wall_time": {"secs": 0, "nanos": 938666}, "max_total_coverage": 0.37209302325581395, "final_mean_ndt": 1.0625, "pruned": 0, "metrics": null, "dedup": {"executions": 4, "cache_hits": 1, "cache_misses": 3, "oracle_valid": 3, "checker_calls": 0}}"#;
        let text = format!(
            "{{\"Schema\": {{\"version\": {EVENT_SCHEMA_VERSION}}}}}\n\
             {{\"SampleDone\": {{\"result\": {result}}}}}\n\
             {{\"SampleResult\": {{\"cell\": 7, \"result\": {result}}}}}\n"
        );
        let report = MetricsReport::from_jsonl(&text).expect("old results parse");
        assert_eq!(report.events, 3);
        assert_eq!(report.total_wall_ns(), 2 * 938_666);
        let rendered = report.render();
        assert!(rendered.contains("Telemetry report: 0 sample(s), 3 event(s)"));
        assert!(!rendered.contains("Collective checking"), "{rendered}");

        let CampaignEvent::SampleDone { result } =
            CampaignEvent::from_line(&format!("{{\"SampleDone\": {{\"result\": {result}}}}}"))
                .expect("old SampleDone parses")
        else {
            panic!("not a SampleDone");
        };
        assert_eq!((result.seed, result.simulated_cycles), (1000, 8535));
        assert_eq!(result.bug, Some(Bug::MesiLqIsInv));
    }

    #[test]
    fn metrics_report_renders_the_component_sleep_line() {
        let mut sample = result(false, None);
        let mut metrics = snapshot(1);
        for (name, value) in [
            ("sim.ff.component_ticks", 50),
            ("sim.ff.component_naps", 950),
            ("sim.ff.segments", 7),
            ("sim.ff.skipped_cycles", 80),
        ] {
            metrics.counters.insert(name.to_string(), value);
        }
        sample.metrics = Some(metrics);
        let text = jsonl(&[CampaignEvent::SampleDone { result: sample }]);
        let rendered = MetricsReport::from_jsonl(&text)
            .expect("stream parses")
            .render();
        assert!(
            rendered.contains(
                "Component sleep: 50 component tick(s) executed, 950 slept through \
                 (95.0% avoided), 7 whole-cycle jump(s) over 80 cycle(s)"
            ),
            "sleep summary rendered: {rendered}"
        );
        assert!(!rendered.contains("ticks by component"), "{rendered}");
        // With the per-kind counters the line ends with the split.
        let mut split = result(false, None);
        let mut metrics = snapshot(1);
        for (name, value) in [
            ("sim.ff.component_ticks", 50),
            ("sim.ff.component_naps", 950),
            ("sim.ff.component_ticks.memory", 4),
            ("sim.ff.component_ticks.l2", 10),
            ("sim.ff.component_ticks.l1", 16),
            ("sim.ff.component_ticks.core", 20),
        ] {
            metrics.counters.insert(name.to_string(), value);
        }
        split.metrics = Some(metrics);
        let text = jsonl(&[CampaignEvent::SampleDone { result: split }]);
        let rendered = MetricsReport::from_jsonl(&text)
            .expect("stream parses")
            .render();
        assert!(
            rendered.contains("; ticks by component: memory 4, l2 10, l1 16, core 20\n"),
            "split rendered: {rendered}"
        );
        // Without the counters the line is absent.
        let mut plain = result(false, None);
        plain.metrics = Some(snapshot(1));
        let text = jsonl(&[CampaignEvent::SampleDone { result: plain }]);
        let report = MetricsReport::from_jsonl(&text).expect("stream parses");
        assert!(!report.render().contains("Component sleep"));
    }

    #[test]
    fn metrics_report_renders_the_checker_lines() {
        let render = |counters: &[(&str, u64)]| {
            let mut sample = result(false, None);
            let mut metrics = snapshot(1);
            for &(name, value) in counters {
                metrics.counters.insert(name.to_string(), value);
            }
            sample.metrics = Some(metrics);
            let text = jsonl(&[CampaignEvent::SampleDone { result: sample }]);
            MetricsReport::from_jsonl(&text)
                .expect("stream parses")
                .render()
        };
        let rendered = render(&[
            ("mcm.static_orders.built", 10),
            ("mcm.static_orders.reused", 30),
            ("mcm.malformed_executions", 2),
        ]);
        assert!(
            rendered.contains(
                "Static orders: derived 10 time(s), reused by 30 check(s) \
                 (75.0% of checks reused them)\n"
            ),
            "static orders rendered: {rendered}"
        );
        assert!(
            rendered.contains("Malformed executions: 2 execution(s) failed"),
            "malformed executions rendered: {rendered}"
        );
        // Without the counters — and with no malformed execution — no line.
        let rendered = render(&[("mcm.static_orders.built", 4)]);
        assert!(rendered.contains("Static orders: derived 4 time(s), reused by 0"));
        assert!(!rendered.contains("Malformed executions"));
        assert!(!render(&[]).contains("Static orders"));
    }

    #[test]
    fn metrics_report_renders_the_verifier_and_simulator_verdict_lines() {
        let mut metrics = snapshot(1);
        let timer = |sum, count| mcversi_telemetry::HistogramSnapshot {
            count,
            sum,
            ..Default::default()
        };
        metrics
            .timers
            .insert("phase.check".to_string(), timer(800, 4));
        metrics.counters.insert("sim.fault".to_string(), 2);
        metrics.counters.insert("sim.hang".to_string(), 1);
        let render = |metrics: &MetricsSnapshot| {
            let mut sample = result(true, Some(3));
            sample.metrics = Some(metrics.clone());
            let text = jsonl(&[CampaignEvent::SampleDone { result: sample }]);
            MetricsReport::from_jsonl(&text)
                .expect("stream parses")
                .render()
        };
        // Checked inline only: no verifier line.
        let rendered = render(&metrics);
        assert!(!rendered.contains("off-thread"), "{rendered}");
        assert!(
            rendered.contains(
                "Ended by the simulator: 2 test-run(s) with a protocol fault, 1 with a hang\n"
            ),
            "{rendered}"
        );

        metrics
            .timers
            .insert("phase.verdict_wait".to_string(), timer(200, 3));
        let rendered = render(&metrics);
        let check_row = rendered
            .lines()
            .find(|line| line.trim_start().starts_with("phase.check"))
            .expect("a phase.check row");
        assert!(check_row.ends_with("4 spans  off-thread"), "{check_row}");
        assert!(
            rendered.contains(
                "so phase shares may sum past 100%; the sample thread waited 200 ns \
                 for 3 verdict(s) (25.0% of phase.check)\n"
            ),
            "{rendered}"
        );
        // Phase timers are still shares of all phase time.
        assert!(rendered.contains("phase.simulate"), "{rendered}");

        metrics.counters.clear();
        assert!(!render(&metrics).contains("Ended by the simulator"));
    }

    #[test]
    fn empty_metrics_report_renders_a_hint() {
        let report = MetricsReport::from_jsonl("").expect("empty stream parses");
        assert!(report.is_empty());
        assert!(report.render().contains("MCVERSI_METRICS"));
    }

    #[test]
    fn metrics_report_merges_per_worker_streams() {
        // Two fabric worker journals: each stream's own SampleDone subsumes
        // its streamed snapshots, but a live snapshot in one stream must not
        // be cancelled by a completion in the other.
        let mut done = result(true, Some(2));
        done.seed = 1;
        done.metrics = Some(snapshot(10));
        let stream_a = jsonl(&[
            CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION,
            },
            CampaignEvent::SampleResult {
                cell: 7,
                result: done,
            },
            CampaignEvent::CellDone {
                cell: 7,
                samples: 1,
            },
        ]);
        let stream_b = jsonl(&[
            CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION,
            },
            CampaignEvent::Metrics {
                seed: 1,
                run: 1,
                snapshot: snapshot(4),
            },
        ]);
        let report =
            MetricsReport::from_jsonl_streams(&[&stream_a, &stream_b]).expect("streams parse");
        assert_eq!(report.completed, vec![(1, snapshot(10))]);
        assert_eq!(
            report.unfinished[&1].counters["sim.l1.mesi.hit"], 4,
            "stream B's live sample survives stream A's completion of seed 1"
        );
        assert_eq!(report.samples(), 2);
        assert_eq!(report.fabric.cells_done, 1);
    }

    #[test]
    fn metrics_report_rejects_mixed_schema_versions_naming_the_stream() {
        let v1 = jsonl(&[CampaignEvent::Schema {
            version: EVENT_SCHEMA_VERSION,
        }]);
        let foreign = "{\"Schema\":{\"version\":2}}".to_string();
        let err = MetricsReport::from_jsonl_streams(&[&v1, &foreign]).unwrap_err();
        assert!(
            format!("{err}").contains("stream 2"),
            "the offending stream is named: {err}"
        );
        assert!(format!("{err}").contains("schema version 2"));
    }

    #[test]
    fn sample_results_count_exactly_like_sample_dones() {
        let mut done = result(true, Some(3));
        done.metrics = Some(snapshot(5));
        let plain = jsonl(&[CampaignEvent::SampleDone {
            result: done.clone(),
        }]);
        let attributed = jsonl(&[CampaignEvent::SampleResult {
            cell: 42,
            result: done,
        }]);
        let a = MetricsReport::from_jsonl(&plain).unwrap();
        let b = MetricsReport::from_jsonl(&attributed).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.total_wall_ns(), b.total_wall_ns());
    }

    #[test]
    fn metrics_report_renders_the_fabric_summary_line() {
        let text = jsonl(&[
            CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION,
            },
            CampaignEvent::Resume {
                cells_skipped: 1,
                samples_skipped: 3,
            },
            CampaignEvent::CellDone {
                cell: 1,
                samples: 2,
            },
            CampaignEvent::CellDone {
                cell: 2,
                samples: 2,
            },
            // FabricStats restates the Resume's skip count: no double count.
            CampaignEvent::FabricStats {
                dispatched: 5,
                stolen: 2,
                redispatched: 1,
                resume_skipped: 3,
            },
        ]);
        let report = MetricsReport::from_jsonl(&text).expect("stream parses");
        assert_eq!(
            report.fabric,
            FabricTotals {
                dispatched: 5,
                stolen: 2,
                redispatched: 1,
                resume_skipped: 3,
                resumes: 1,
                cells_done: 2,
            }
        );
        let rendered = report.render();
        assert!(
            rendered.contains(
                "Distributed fabric: 5 shard dispatch(es) (2 stolen, \
                 1 re-dispatched after worker loss), 2 cell(s) completed, \
                 1 resume(s) skipping 3 journaled sample(s)"
            ),
            "fabric summary rendered: {rendered}"
        );
        // A stream with no fabric records renders no fabric line.
        let plain = MetricsReport::from_jsonl("").unwrap();
        assert!(plain.fabric.is_empty());
        assert!(!plain.render().contains("Distributed fabric"));
    }

    #[test]
    fn coverage_row_renders_percentages() {
        let mut row = CoverageRow {
            protocol: "MESI".to_string(),
            coverage: BTreeMap::new(),
        };
        row.coverage.insert("A".to_string(), 0.823);
        let text = row.render(&["A".to_string(), "B".to_string()]);
        assert!(text.contains("82.3%"));
        assert!(text.contains('-'));
    }
}
