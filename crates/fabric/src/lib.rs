//! Distributed campaign fabric: sharded grids, worker processes and
//! replay-to-resume checkpointing.
//!
//! A verification sweep expands to independent [`mcversi_core::ScenarioSpec`]
//! cells; this crate turns that independence into a long-running service
//! shape:
//!
//! * [`shard`] splits a grid's cells into serialized [`GridShard`]s whose ids
//!   derive from cell *content* (never enumeration order) and merges per-cell
//!   results back deterministically;
//! * [`worker`] is the library half of the `mcversi-work` binary: it runs one
//!   shard and streams cell-attributed JSONL events;
//! * [`coordinator`] dispatches shards to a pool of worker child processes
//!   with work stealing across campaigns; a worker that dies before its
//!   shard is complete ends the campaign, and the journal resumes it;
//! * [`journal`] is the checkpoint layer: the coordinator appends
//!   checkpoint records to a JSONL journal through
//!   [`mcversi_core::JsonlSink::append`], and [`JournalReplay`] reloads a
//!   partial journal so a resumed campaign skips completed work and still
//!   produces a final result bit-identical to an uninterrupted run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coordinator;
pub mod journal;
pub mod shard;
pub mod worker;

pub use coordinator::{locate_worker, run_grid, FabricOptions, FabricReport, FabricStatsCounts};
pub use journal::JournalReplay;
pub use shard::{merge_results, shard_cells, FabricError, GridShard};
pub use worker::{run_shard, CellScopeSink};
