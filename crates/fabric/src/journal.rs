//! Checkpointing: the append-only journal and its replay-to-resume loader.
//!
//! The journal is an ordinary campaign-event JSONL stream (the same format
//! `MCVERSI_JSONL` produces) with the fabric's cell-attributed records:
//! `CellStart` / `SampleResult` / `CellDone` checkpoints from workers, plus
//! `Resume` and `FabricStats` records from the coordinator.  Because every
//! line is self-contained, a journal cut off at an arbitrary byte loses at
//! most its torn final line — [`JournalReplay`] drops exactly that line and
//! treats everything before it as completed work.

use crate::shard::FabricError;
use mcversi_core::sink::{CampaignEvent, CampaignSink, EVENT_SCHEMA_VERSION};
use mcversi_core::CampaignResult;
use std::collections::BTreeMap;
use std::io::Write;

/// Journals every campaign event to an append-only JSONL file, flushed per
/// event so a killed process loses at most one torn line.
///
/// Opening an empty (or new) file writes the schema header; opening a
/// non-empty file appends without a second header, so an interrupted journal
/// resumes in place.
pub struct CheckpointSink {
    out: std::fs::File,
    lines: u64,
    header_needed: bool,
}

impl CheckpointSink {
    /// Opens `path` for appending, creating parent directories as needed.
    pub fn append(path: &str) -> std::io::Result<Self> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let header_needed = out.metadata()?.len() == 0;
        Ok(CheckpointSink {
            out,
            lines: 0,
            header_needed,
        })
    }

    /// Lines written by this sink instance (not counting pre-existing ones).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Appends one event (plus the schema header first, when the file was
    /// empty at open).
    pub fn record(&mut self, event: &CampaignEvent) {
        if self.header_needed {
            self.header_needed = false;
            if !matches!(event, CampaignEvent::Schema { .. }) {
                let header = CampaignEvent::Schema {
                    version: EVENT_SCHEMA_VERSION,
                };
                self.write_line(&header);
            }
        }
        self.write_line(event);
        let _ = self.out.flush();
    }

    fn write_line(&mut self, event: &CampaignEvent) {
        if let Ok(line) = serde_json::to_string(event) {
            debug_assert!(!line.contains('\n'), "events must be single-line");
            if writeln!(self.out, "{line}").is_ok() {
                self.lines += 1;
            }
        }
    }
}

impl std::fmt::Debug for CheckpointSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSink")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl CampaignSink for CheckpointSink {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.record(event);
    }
}

/// Replay state of one grid cell, accumulated from journal records.
#[derive(Debug, Clone, Default)]
pub struct CellProgress {
    /// The cell's label, if a `CellStart` record carried one.
    pub label: Option<String>,
    /// Completed samples, keyed by seed.
    pub samples: BTreeMap<u64, CampaignResult>,
    /// Whether a `CellDone` record closed the cell.
    pub done: bool,
}

/// A partial journal reloaded for resumption: which cells completed, which
/// samples of partially-run cells already have results, and how often the
/// campaign has been resumed before.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Schema version declared by the journal header, if present.
    pub version: Option<u32>,
    /// Per-cell progress, keyed by cell id.
    pub cells: BTreeMap<u64, CellProgress>,
    /// Parsed event lines.
    pub events: usize,
    /// `Resume` records observed (prior resumptions of this journal).
    pub resumes: usize,
    /// Whether an unparseable final line was dropped (torn write).
    pub truncated_tail: bool,
}

impl JournalReplay {
    /// Loads and replays the journal at `path`.  A missing file replays as
    /// empty (a fresh campaign).
    pub fn load(path: &str) -> Result<Self, FabricError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::replay(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(JournalReplay::default()),
            Err(e) => Err(FabricError(format!("cannot read journal `{path}`: {e}"))),
        }
    }

    /// Replays a journal text.
    ///
    /// # Errors
    ///
    /// Fails on a schema version this build does not read, or on an
    /// unparseable line that is *not* the final one — a torn tail is expected
    /// after a kill, corruption in the middle of the journal is not.
    pub fn replay(text: &str) -> Result<Self, FabricError> {
        let mut replay = JournalReplay::default();
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .collect();
        for (pos, &(idx, line)) in lines.iter().enumerate() {
            let event: CampaignEvent = match serde_json::from_str(line) {
                Ok(event) => event,
                Err(e) if pos + 1 == lines.len() => {
                    // Torn final line: the worker or coordinator died mid-write.
                    let _ = e;
                    replay.truncated_tail = true;
                    break;
                }
                Err(e) => {
                    return Err(FabricError(format!(
                        "journal line {}: {e} (corruption before the final line)",
                        idx + 1
                    )));
                }
            };
            replay.events += 1;
            match event {
                CampaignEvent::Schema { version } => {
                    if version != EVENT_SCHEMA_VERSION {
                        return Err(FabricError(format!(
                            "journal line {}: schema version {version} (this build reads \
                             {EVENT_SCHEMA_VERSION})",
                            idx + 1
                        )));
                    }
                    replay.version = Some(version);
                }
                CampaignEvent::CellStart { cell, label } => {
                    replay.cells.entry(cell).or_default().label = Some(label);
                }
                CampaignEvent::SampleResult { cell, result } => {
                    replay
                        .cells
                        .entry(cell)
                        .or_default()
                        .samples
                        .insert(result.seed, result);
                }
                CampaignEvent::CellDone { cell, .. } => {
                    replay.cells.entry(cell).or_default().done = true;
                }
                CampaignEvent::Resume { .. } => replay.resumes += 1,
                _ => {}
            }
        }
        Ok(replay)
    }

    /// Seeds of the journaled samples of `cell`, in ascending order.
    pub fn sample_seeds(&self, cell: u64) -> Vec<u64> {
        self.cells
            .get(&cell)
            .map(|c| c.samples.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Whether `cell` was closed by a `CellDone` record.
    pub fn is_cell_done(&self, cell: u64) -> bool {
        self.cells.get(&cell).is_some_and(|c| c.done)
    }

    /// Total journaled sample results across all cells.
    pub fn total_samples(&self) -> usize {
        self.cells.values().map(|c| c.samples.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_core::GeneratorKind;
    use mcversi_mcm::ModelKind;
    use mcversi_sim::CoreStrength;
    use std::time::Duration;

    fn result(seed: u64) -> CampaignResult {
        CampaignResult {
            generator: GeneratorKind::McVerSiRand,
            bug: None,
            model: ModelKind::Tso,
            core: CoreStrength::Strong,
            seed,
            found: false,
            detail: None,
            test_runs: 4,
            found_at_run: None,
            simulated_cycles: 100,
            wall_time: Duration::from_millis(1),
            max_total_coverage: 0.5,
            final_mean_ndt: 1.0,
            pruned: 0,
            metrics: None,
        }
    }

    fn journal_text(events: &[CampaignEvent]) -> String {
        let mut text = serde_json::to_string(&CampaignEvent::Schema {
            version: EVENT_SCHEMA_VERSION,
        })
        .unwrap();
        for event in events {
            text.push('\n');
            text.push_str(&serde_json::to_string(event).unwrap());
        }
        text.push('\n');
        text
    }

    #[test]
    fn replay_accumulates_cells_samples_and_resumes() {
        let text = journal_text(&[
            CampaignEvent::CellStart {
                cell: 10,
                label: "a".into(),
            },
            CampaignEvent::SampleResult {
                cell: 10,
                result: result(100),
            },
            CampaignEvent::SampleResult {
                cell: 10,
                result: result(101),
            },
            CampaignEvent::CellDone {
                cell: 10,
                samples: 2,
            },
            CampaignEvent::SampleResult {
                cell: 11,
                result: result(200),
            },
            CampaignEvent::Resume {
                cells_skipped: 1,
                samples_skipped: 1,
            },
        ]);
        let replay = JournalReplay::replay(&text).unwrap();
        assert_eq!(replay.version, Some(EVENT_SCHEMA_VERSION));
        assert!(replay.is_cell_done(10));
        assert!(!replay.is_cell_done(11));
        assert_eq!(replay.sample_seeds(10), vec![100, 101]);
        assert_eq!(replay.sample_seeds(11), vec![200]);
        assert_eq!(replay.total_samples(), 3);
        assert_eq!(replay.resumes, 1);
        assert_eq!(replay.cells[&10].label.as_deref(), Some("a"));
        assert!(!replay.truncated_tail);
    }

    #[test]
    fn replay_tolerates_a_torn_final_line_only() {
        let mut text = journal_text(&[CampaignEvent::SampleResult {
            cell: 1,
            result: result(5),
        }]);
        text.push_str("{\"SampleResult\":{\"cell\":1,\"resu");
        let replay = JournalReplay::replay(&text).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.total_samples(), 1);

        // The same garbage *before* valid lines is corruption, not a torn
        // tail.
        let corrupt = format!(
            "{}\nnot json\n{}\n",
            serde_json::to_string(&CampaignEvent::Schema {
                version: EVENT_SCHEMA_VERSION
            })
            .unwrap(),
            serde_json::to_string(&CampaignEvent::CellDone {
                cell: 1,
                samples: 0
            })
            .unwrap()
        );
        let err = JournalReplay::replay(&corrupt).unwrap_err();
        assert!(err.0.contains("corruption before the final line"), "{err}");
    }

    #[test]
    fn replay_rejects_foreign_schema_versions() {
        let text = "{\"Schema\":{\"version\":99}}\n";
        let err = JournalReplay::replay(text).unwrap_err();
        assert!(err.0.contains("schema version 99"), "{err}");
    }

    #[test]
    fn missing_journal_replays_as_empty() {
        let replay = JournalReplay::load("/nonexistent/journal.jsonl").unwrap();
        assert_eq!(replay.events, 0);
        assert!(replay.cells.is_empty());
    }

    #[test]
    fn checkpoint_sink_appends_without_a_second_header() {
        let dir =
            std::env::temp_dir().join(format!("mcversi-fabric-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.jsonl");
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);

        {
            let mut sink = CheckpointSink::append(path_str).unwrap();
            sink.record(&CampaignEvent::CellStart {
                cell: 1,
                label: "a".into(),
            });
            assert_eq!(sink.lines(), 2, "header + event");
        }
        {
            let mut sink = CheckpointSink::append(path_str).unwrap();
            sink.record(&CampaignEvent::CellDone {
                cell: 1,
                samples: 0,
            });
            assert_eq!(sink.lines(), 1, "append run writes no second header");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let headers = text.lines().filter(|l| l.contains("\"Schema\"")).count();
        assert_eq!(headers, 1);
        let replay = JournalReplay::replay(&text).unwrap();
        assert!(replay.is_cell_done(1));
        let _ = std::fs::remove_file(&path);
    }
}
