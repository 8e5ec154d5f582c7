//! Checkpointing: the journal's replay-to-resume loader.
//!
//! The journal is an ordinary campaign-event JSONL stream (the same format
//! `MCVERSI_JSONL` produces), written by [`JsonlSink::append`], with the
//! fabric's cell-attributed records: `CellStart` / `SampleResult` /
//! `CellDone` checkpoints from workers, plus `Resume` and `FabricStats`
//! records from the coordinator.  Because every line is self-contained, a
//! journal cut off at an arbitrary byte loses at most its torn final line:
//! [`read_stream`] drops exactly that line, [`JournalReplay`] treats
//! everything before it as completed work, and the next
//! [`JsonlSink::append`] truncates it away before appending.
//!
//! [`JsonlSink::append`]: mcversi_core::sink::JsonlSink::append

use crate::shard::FabricError;
use mcversi_core::sink::{read_stream, CampaignEvent};
use mcversi_core::CampaignResult;
use std::collections::BTreeMap;

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
    /// Fails on a schema version this build does not read, or on a complete
    /// (`\n`-terminated) line that does not decode — a torn tail is expected
    /// after a kill, a corrupt complete line is not (see [`read_stream`]).
    pub fn replay(text: &str) -> Result<Self, FabricError> {
        let stream = read_stream(text).map_err(|e| FabricError(format!("journal {e}")))?;
        let mut replay = JournalReplay {
            version: stream.version,
            events: stream.events.len(),
            truncated_tail: stream.torn_tail,
            ..JournalReplay::default()
        };
        for (_, event) in stream.events {
            match event {
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
    use mcversi_core::sink::{CampaignSink, JsonlSink, EVENT_SCHEMA_VERSION};
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
        assert!(err.0.starts_with("journal line 2: "), "{err}");
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

    /// A kill between an event's text and its newline leaves a complete
    /// but unterminated final line: the next append terminates it instead of
    /// truncating it, so the event is still replayed.
    #[test]
    fn append_terminates_an_unterminated_tail_that_decodes() {
        let dir =
            std::env::temp_dir().join(format!("mcversi-fabric-journal-{}", std::process::id()));
        let path = dir.join("unterminated.jsonl");
        let path = path.to_str().unwrap();
        let mut text = journal_text(&[]);
        text.push_str(
            &serde_json::to_string(&CampaignEvent::SampleResult {
                cell: 1,
                result: result(5),
            })
            .unwrap(),
        );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(path, &text).unwrap();

        let mut sink = JsonlSink::append(path).unwrap();
        sink.on_event(&CampaignEvent::CellDone {
            cell: 1,
            samples: 1,
        });
        drop(sink);
        let appended = std::fs::read_to_string(path).unwrap();
        assert!(appended.starts_with(&format!("{text}\n")), "{appended}");
        let replay = JournalReplay::replay(&appended).unwrap();
        assert!(!replay.truncated_tail);
        assert_eq!(replay.sample_seeds(1), vec![5]);
        assert!(replay.is_cell_done(1));
        let _ = std::fs::remove_file(path);
    }
}
