//! Grid sharding: stable-identity [`GridShard`]s and the deterministic merge.
//!
//! A shard is a serialized sub-grid: a subset of a sweep's cells plus the
//! resume bookkeeping a worker needs (per-cell sample indices to *skip*).
//! Identity is content-derived end to end — a cell's id is
//! [`mcversi_core::ScenarioSpec::cell_id`] (a hash of its canonical JSON) and
//! a shard's id folds its members' sorted cell ids — so re-expanding a grid
//! in a different order, filtering it, or resuming from a journal never
//! changes which shard a cell belongs to or how its results are keyed.

use mcversi_core::{CampaignResult, ScenarioSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An error sharding a grid, merging results, or running the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricError(pub String);

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FabricError {}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError(format!("i/o error: {e}"))
    }
}

/// A serialized sub-grid: the unit of dispatch between the coordinator and a
/// `mcversi-work` process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridShard {
    /// Content-derived shard identity (see [`shard_cells`]).
    pub id: u64,
    /// The member cells, in original grid order.
    pub cells: Vec<ScenarioSpec>,
    /// Per-cell sample indices to *skip* (parallel to `cells`): samples whose
    /// results a resume journal already holds.  All-empty on a fresh run.
    pub skip: Vec<Vec<usize>>,
}

impl GridShard {
    /// Renders the shard as JSON (the `mcversi-work` wire format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("shard serialization is infallible")
    }

    /// Parses a shard from JSON.
    pub fn from_json(json: &str) -> Result<Self, FabricError> {
        serde_json::from_str(json).map_err(|e| FabricError(format!("invalid grid shard: {e}")))
    }

    /// The member cell ids, in member order.
    pub fn cell_ids(&self) -> Vec<u64> {
        self.cells.iter().map(ScenarioSpec::cell_id).collect()
    }
}

/// FNV-1a (64-bit) over a byte stream; the same function
/// `ScenarioSpec::cell_id` uses over canonical JSON.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A shard's identity: FNV-1a over its members' *sorted* cell ids, so the id
/// depends on which cells the shard holds and on nothing else.
fn shard_id(cell_ids: &[u64]) -> u64 {
    let mut sorted = cell_ids.to_vec();
    sorted.sort_unstable();
    fnv1a(sorted.iter().flat_map(|id| id.to_le_bytes()))
}

/// Splits `cells` into at most `shards` sub-grids.
///
/// Membership is `cell_id % shards` — a pure function of cell content — so a
/// cell lands in the same shard regardless of enumeration order or of which
/// other cells the sweep happens to include in its bucket.  Buckets that end
/// up empty are dropped (the returned vector can be shorter than `shards`).
///
/// # Errors
///
/// Fails when two cells hash to the same id (two *identical* specs in one
/// grid): their results would be indistinguishable in the journal.
pub fn shard_cells(cells: &[ScenarioSpec], shards: usize) -> Result<Vec<GridShard>, FabricError> {
    let shards = shards.max(1);
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for (idx, cell) in cells.iter().enumerate() {
        if let Some(first) = seen.insert(cell.cell_id(), idx) {
            return Err(FabricError(format!(
                "duplicate cell identity {:#018x}: cells #{first} and #{idx} are identical \
                 ({}); give them distinct labels or seeds",
                cell.cell_id(),
                cell.display_label(),
            )));
        }
    }
    let mut buckets: BTreeMap<usize, Vec<ScenarioSpec>> = BTreeMap::new();
    for cell in cells {
        let bucket = (cell.cell_id() % shards as u64) as usize;
        buckets.entry(bucket).or_default().push(cell.clone());
    }
    Ok(buckets
        .into_values()
        .map(|cells| {
            let ids: Vec<u64> = cells.iter().map(ScenarioSpec::cell_id).collect();
            let skip = vec![Vec::new(); cells.len()];
            GridShard {
                id: shard_id(&ids),
                cells,
                skip,
            }
        })
        .collect())
}

/// Reassembles per-cell results into the original grid order.
///
/// `per_cell` keys results by cell id (as the journal and the coordinator
/// accumulate them); the output pairs every cell of `cells` with its results,
/// in `cells` order — the deterministic inverse of [`shard_cells`].
///
/// # Errors
///
/// Fails when a cell has no results (the campaign did not finish).
pub fn merge_results(
    cells: &[ScenarioSpec],
    per_cell: &BTreeMap<u64, Vec<CampaignResult>>,
) -> Result<Vec<(ScenarioSpec, Vec<CampaignResult>)>, FabricError> {
    cells
        .iter()
        .map(|cell| {
            let id = cell.cell_id();
            match per_cell.get(&id) {
                Some(results) => Ok((cell.clone(), results.clone())),
                None => Err(FabricError(format!(
                    "no results for cell {:#018x} ({})",
                    id,
                    cell.display_label()
                ))),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::small();
        spec.base_seed = seed;
        spec
    }

    #[test]
    fn cell_ids_are_stable_and_content_derived() {
        let a = cell(1);
        let b = cell(2);
        assert_ne!(a.cell_id(), b.cell_id());
        assert_eq!(a.cell_id(), cell(1).cell_id());
        // Identity survives a JSON round trip (canonical rendering).
        let back = ScenarioSpec::from_json(&a.to_json()).unwrap();
        assert_eq!(a.cell_id(), back.cell_id());
    }

    #[test]
    fn shard_membership_ignores_enumeration_order() {
        let cells: Vec<ScenarioSpec> = (0..10).map(cell).collect();
        let mut reversed = cells.clone();
        reversed.reverse();
        for shards in [1, 2, 3, 7, 16] {
            let forward = shard_cells(&cells, shards).unwrap();
            let backward = shard_cells(&reversed, shards).unwrap();
            let mut forward_ids: Vec<u64> = forward.iter().map(|s| s.id).collect();
            let mut backward_ids: Vec<u64> = backward.iter().map(|s| s.id).collect();
            forward_ids.sort_unstable();
            backward_ids.sort_unstable();
            assert_eq!(forward_ids, backward_ids, "{shards} shard(s)");
            // Same membership per shard id, cell order inside a shard aside.
            for shard in &forward {
                let twin = backward.iter().find(|s| s.id == shard.id).unwrap();
                let mut ours = shard.cell_ids();
                let mut theirs = twin.cell_ids();
                ours.sort_unstable();
                theirs.sort_unstable();
                assert_eq!(ours, theirs);
            }
        }
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let cells = vec![cell(1), cell(1)];
        let err = shard_cells(&cells, 2).unwrap_err();
        assert!(err.0.contains("duplicate cell identity"), "{err}");
    }

    #[test]
    fn shards_round_trip_through_json() {
        let mut shards = shard_cells(&(0..4).map(cell).collect::<Vec<_>>(), 2).unwrap();
        shards[0].skip[0] = vec![1, 3];
        for shard in &shards {
            let back = GridShard::from_json(&shard.to_json()).unwrap();
            assert_eq!(*shard, back);
        }
    }
}
