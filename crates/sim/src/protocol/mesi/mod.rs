//! A two-level MESI directory protocol (gem5 Ruby `MESI_Two_Level` analogue).
//!
//! * `l1` — private L1 controllers with stable states I, S, E, M and
//!   transient states IS, IS_I, IM, SM, MI.  The L1 is responsible for
//!   forwarding invalidations (and any other loss of read permission) to the
//!   core's load queue; four of the paper's bugs suppress exactly that
//!   forwarding in specific states.
//! * `l2` — shared, banked L2 acting as an inclusive blocking directory with
//!   states NP, SS, MT plus per-transaction transient states.  Two of the
//!   paper's bugs live here (the PUTX race and the replacement race).
//!
//! Both controllers are the shared skeletons of `crate::protocol::l1` and
//! `crate::protocol::l2` instantiated with `Mesi`, which supplies the
//! states and transitions.  The skeletons serve the rows both protocols
//! share: the L1's `Load` and `Store` misses from `I` and its flushes, and
//! the L2's memory fetch (`NP` + `GetS` / `GetX` through `I_S_Mem` /
//! `I_X_Mem` + `MemData`), for which `Mesi` only says what the fetched line
//! is and how it is granted.
//!
//! The protocol is *functionally accurate*: all data flows through the
//! messages and cache arrays, so a protocol bug results in stale architectural
//! values, which is what the McVerSi checker detects.

mod l1;
mod l2;

pub(crate) use l1::MesiL1;
pub(crate) use l2::MesiL2;

use crate::coverage::Transition;

/// The MESI protocol: the transitions of [`MesiL1`] and [`MesiL2`].
#[derive(Debug)]
pub(crate) struct Mesi;

/// All transitions defined by the MESI L1 controller.
///
/// This is the coverage universe used as the denominator for Table 6's
/// "maximum total transition coverage".  It deliberately includes transitions
/// that are extremely unlikely to be exercised (the paper notes the same about
/// its Ruby protocols, which is why reported coverage never reaches 100%).
pub fn l1_transitions() -> Vec<Transition> {
    let mut v = Vec::new();
    // Core-initiated events per stable state.
    for state in ["I", "S", "E", "M"] {
        for event in ["Load", "Store", "Rmw", "Flush", "Replacement"] {
            v.push(Transition::l1(state, event));
        }
    }
    // Network events per state (stable and transient).
    for state in ["I", "S", "E", "M", "IS", "IS_I", "IM", "SM", "MI"] {
        for event in ["Inv", "FwdGetS", "FwdGetX", "Recall"] {
            v.push(Transition::l1(state, event));
        }
    }
    // Data / ack deliveries into transient states.
    for (state, event) in [
        ("IS", "DataS"),
        ("IS", "DataE"),
        ("IS_I", "DataS"),
        ("IS_I", "DataE"),
        ("IM", "DataX"),
        ("SM", "DataX"),
        ("MI", "WbAck"),
        ("MI", "WbStale"),
    ] {
        v.push(Transition::l1(state, event));
    }
    v
}

/// All transitions defined by the MESI L2 controller.
pub fn l2_transitions() -> Vec<Transition> {
    let mut v = Vec::new();
    for state in ["NP", "SS", "MT"] {
        for event in ["GetS", "GetX", "PutX", "PutXStale", "Replacement"] {
            v.push(Transition::l2(state, event));
        }
    }
    for (state, event) in [
        ("I_S_Mem", "MemData"),
        ("I_X_Mem", "MemData"),
        ("SS_X_Inv", "InvAck"),
        ("MT_S_Fwd", "WbData"),
        ("MT_X_Fwd", "WbData"),
        ("SS_Evict", "InvAck"),
        ("MT_Evict", "WbData"),
    ] {
        v.push(Transition::l2(state, event));
    }
    v
}

/// The full coverage universe of the MESI protocol (L1 plus L2 transitions).
pub fn all_transitions() -> Vec<Transition> {
    let mut v = l1_transitions();
    v.extend(l2_transitions());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_universe_is_nonempty_and_unique() {
        let all = all_transitions();
        assert!(all.len() > 50);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate transitions in universe");
    }

    #[test]
    fn universe_contains_the_bug_relevant_transitions() {
        let all = all_transitions();
        for t in [
            Transition::l1("IS", "Inv"),
            Transition::l1("SM", "Inv"),
            Transition::l1("E", "FwdGetX"),
            Transition::l1("M", "FwdGetX"),
            Transition::l1("S", "Replacement"),
            Transition::l2("MT", "PutX"),
            Transition::l2("MT_Evict", "WbData"),
        ] {
            assert!(all.contains(&t), "{t} missing from universe");
        }
    }
}
