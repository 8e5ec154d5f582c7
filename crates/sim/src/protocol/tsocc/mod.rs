//! TSO-CC: a lazy, consistency-directed coherence protocol for TSO.
//!
//! TSO-CC (Elver & Nagarajan, HPCA 2014) deliberately violates the
//! Single-Writer–Multiple-Reader invariant: writers obtain exclusive
//! ownership from the directory, but existing Shared copies at other cores
//! are *not* invalidated.  Consistency is instead maintained at the readers:
//!
//! * every Shared line carries the writing core's (group) timestamp and epoch;
//! * when a core *acquires* data written by another core with a timestamp
//!   greater than or equal to the last timestamp it has seen from that writer,
//!   it self-invalidates all of its Shared lines (the transitive-reduction
//!   rule) — the `>=` comparison is exactly what the `TSO-CC+compare` bug
//!   weakens to `>`;
//! * timestamps reset after a small maximum; epoch ids disambiguate
//!   comparisons across resets — ignoring them is the `TSO-CC+no-epoch-ids`
//!   bug;
//! * Shared lines additionally expire after a bounded number of accesses;
//! * fences and atomic read-modify-writes self-invalidate all Shared lines.
//!
//! The L2 (`l2`) tracks only the exclusive owner (no sharer lists) plus the
//! last writer's timestamp metadata per line.
//!
//! Both controllers are the shared skeletons of `crate::protocol::l1` and
//! `crate::protocol::l2` instantiated with `TsoCc`, which supplies the
//! states, transitions and the timestamp logic.  The skeletons serve the
//! rows both protocols share: the L1's `Load` and `Store` misses from `I`
//! and its flushes, and the L2's memory fetch (`NP` + `GetS` / `GetX`
//! through `U_S_Mem` / `U_X_Mem` + `MemData`), for which `TsoCc` only says
//! what the fetched line is and how it is granted.

mod l1;
mod l2;

pub(crate) use l1::TsoCcL1;
pub(crate) use l2::TsoCcL2;

use crate::coverage::Transition;

/// The TSO-CC protocol: the transitions of [`TsoCcL1`] and [`TsoCcL2`].
#[derive(Debug)]
pub(crate) struct TsoCc;

/// All transitions defined by the TSO-CC L1 controller (coverage universe).
pub fn l1_transitions() -> Vec<Transition> {
    let mut v = Vec::new();
    for state in ["I", "S", "E", "M"] {
        for event in [
            "Load",
            "Store",
            "Rmw",
            "Flush",
            "Replacement",
            "Expired",
            "SelfInvalidate",
        ] {
            v.push(Transition::l1(state, event));
        }
    }
    for state in ["I", "S", "E", "M", "IS", "IM", "MI"] {
        for event in ["Recall", "Downgrade"] {
            v.push(Transition::l1(state, event));
        }
    }
    for (state, event) in [
        ("IS", "DataS"),
        ("IS", "DataE"),
        ("IM", "DataX"),
        ("MI", "WbAck"),
        ("MI", "WbStale"),
        ("S", "TimestampReset"),
        ("M", "TimestampReset"),
    ] {
        v.push(Transition::l1(state, event));
    }
    v
}

/// All transitions defined by the TSO-CC L2 controller (coverage universe).
pub fn l2_transitions() -> Vec<Transition> {
    let mut v = Vec::new();
    for state in ["NP", "U", "EX"] {
        for event in ["GetS", "GetX", "PutX", "PutXStale", "Replacement"] {
            v.push(Transition::l2(state, event));
        }
    }
    for (state, event) in [
        ("U_S_Mem", "MemData"),
        ("U_X_Mem", "MemData"),
        ("EX_S_Down", "WbData"),
        ("EX_X_Recall", "WbData"),
        ("EX_Evict", "WbData"),
    ] {
        v.push(Transition::l2(state, event));
    }
    v
}

/// The full coverage universe of the TSO-CC protocol.
pub fn all_transitions() -> Vec<Transition> {
    let mut v = l1_transitions();
    v.extend(l2_transitions());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_unique_and_contains_bug_relevant_transitions() {
        let all = all_transitions();
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(all.contains(&Transition::l1("S", "SelfInvalidate")));
        assert!(all.contains(&Transition::l1("S", "TimestampReset")));
        assert!(all.contains(&Transition::l2("EX", "GetX")));
    }
}
