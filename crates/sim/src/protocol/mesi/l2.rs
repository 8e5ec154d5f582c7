//! The MESI shared L2 bank (inclusive blocking directory).
//!
//! Stable states per resident line: `SS` (present, zero or more L1 sharers)
//! and `MT` (owned exclusively by one L1).  Lines not resident are `NP` (data
//! lives in memory).  The directory is *blocking*: while a transaction on a
//! line is in flight (fetch from memory, invalidation collection, forward to
//! owner, eviction), further requests for that line stall in the request
//! queue; responses are never stalled.  The bank itself is the shared
//! [`L2`] skeleton; this file holds MESI's states and transitions.
//!
//! Two of the paper's bugs live here:
//!
//! * [`Bug::MesiPutxRace`] — a writeback (PutX) arriving from a core that is
//!   no longer the owner (the classic late-PUTX race) is reported as an
//!   invalid transition instead of being answered with `WbStale`.
//! * [`Bug::MesiReplaceRace`] — on an L2 replacement of a line the directory
//!   believes is clean (granted Exclusive, silently modified by the owner),
//!   dirty recall data is dropped instead of written back to memory.
//!
//! [`Bug::MesiPutxRace`]: crate::bugs::Bug::MesiPutxRace
//! [`Bug::MesiReplaceRace`]: crate::bugs::Bug::MesiReplaceRace

use super::Mesi;
use crate::bugs::{Bug, BugConfig};
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload};
use crate::protocol::l2::{L2Protocol, L2};
use crate::protocol::TickCtx;
use crate::types::{LineAddr, LineData};
use std::collections::BTreeSet;

/// The MESI L2 bank controller.
pub(crate) type MesiL2 = L2<Mesi>;

/// Stable directory states of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L2State {
    /// Present, possibly shared by L1s; the L2 copy is up to date.
    Shared,
    /// Owned exclusively by one L1; the L2 copy may be stale.
    Owned,
}

impl L2State {
    fn name(self) -> &'static str {
        match self {
            L2State::Shared => "SS",
            L2State::Owned => "MT",
        }
    }
}

/// A resident MESI L2 line.
#[derive(Debug, Clone)]
pub(crate) struct L2Line {
    state: L2State,
    data: LineData,
    /// Dirty relative to main memory.
    dirty: bool,
    sharers: BTreeSet<usize>,
    owner: Option<usize>,
    /// Whether the directory expects the owner to have modified the line
    /// (ownership granted through GetX rather than an exclusive GetS grant).
    dirty_expected: bool,
}

impl L2Line {
    /// Makes `requestor` the exclusive owner.
    fn grant_owned(&mut self, requestor: usize, dirty_expected: bool) {
        self.state = L2State::Owned;
        self.owner = Some(requestor);
        self.sharers.clear();
        self.dirty_expected = dirty_expected;
    }

    /// Takes the owner's (writeback) data if it modified the line.
    fn absorb(&mut self, data: &LineData, dirty: bool) {
        if dirty {
            self.data = data.clone();
            self.dirty = true;
        }
    }
}

/// In-flight MESI directory transaction states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Trans {
    /// Collecting invalidation acks to satisfy a GetX.
    InvForX {
        /// The requesting core.
        requestor: usize,
        /// Acks still to come.
        acks_left: usize,
    },
    /// Waiting for the owner's data to satisfy a GetS.
    FwdForS {
        /// The requesting core.
        requestor: usize,
    },
    /// Waiting for the owner's data to satisfy a GetX.
    FwdForX {
        /// The requesting core.
        requestor: usize,
    },
    /// Evicting a Shared line: collecting invalidation acks.
    EvictInv {
        /// Acks still to come.
        acks_left: usize,
    },
    /// Evicting an owned line: waiting for the owner's recall data.
    EvictRecall,
}

impl Trans {
    fn name(&self) -> &'static str {
        match self {
            Trans::InvForX { .. } => "SS_X_Inv",
            Trans::FwdForS { .. } => "MT_S_Fwd",
            Trans::FwdForX { .. } => "MT_X_Fwd",
            Trans::EvictInv { .. } => "SS_Evict",
            Trans::EvictRecall => "MT_Evict",
        }
    }
}

impl L2Protocol for Mesi {
    const COMPONENT: &'static str = "L2";
    type Line = L2Line;
    type Trans = Trans;

    fn state_name(line: &L2Line) -> &'static str {
        line.state.name()
    }

    const FETCHING: [&'static str; 2] = ["I_S_Mem", "I_X_Mem"];

    fn fetched(
        line: LineAddr,
        data: LineData,
        requestor: usize,
        exclusive: bool,
    ) -> (L2Line, MsgPayload) {
        // The requestor owns the line either way: a GetS is granted
        // Exclusive, which it may modify silently (dirty_expected = false).
        let entry = L2Line {
            state: L2State::Owned,
            data: data.clone(),
            dirty: false,
            sharers: BTreeSet::new(),
            owner: Some(requestor),
            dirty_expected: exclusive,
        };
        let grant = if exclusive {
            MsgPayload::DataX {
                line,
                data,
                ts: None,
            }
        } else {
            MsgPayload::DataE {
                line,
                data,
                ts: None,
            }
        };
        (entry, grant)
    }

    fn evict(l2: &mut L2<Mesi>, ctx: &mut TickCtx<'_>, victim: LineAddr, entry: L2Line) -> bool {
        match entry.state {
            L2State::Shared if entry.sharers.is_empty() => {
                if entry.dirty {
                    let data = entry.data;
                    l2.send_mem(ctx, MsgPayload::MemWrite { line: victim, data });
                }
                l2.cache.remove(victim);
                // A way is free immediately.
                true
            }
            L2State::Shared => {
                for &s in &entry.sharers {
                    let dst = ctx.cfg.node_of_l1(s);
                    l2.send_forward(ctx, dst, MsgPayload::Inv { line: victim });
                }
                let acks_left = entry.sharers.len();
                l2.trans.insert(victim, Trans::EvictInv { acks_left });
                false
            }
            L2State::Owned => {
                let owner = entry.owner.expect("owned line has owner");
                let dst = ctx.cfg.node_of_l1(owner);
                l2.send_forward(ctx, dst, MsgPayload::Recall { line: victim });
                l2.trans.insert(victim, Trans::EvictRecall);
                false
            }
        }
    }

    fn request(
        l2: &mut L2<Mesi>,
        ctx: &mut TickCtx<'_>,
        msg: &Msg,
        src_core: Option<usize>,
    ) -> bool {
        let line = msg.payload.line();
        let resident = l2.cache.get(line).expect("resident");
        let (state, owner) = (resident.state, resident.owner);
        match (&msg.payload, state) {
            // ---------------- GetS ----------------
            (MsgPayload::GetS { .. }, L2State::Shared) => {
                ctx.coverage.record(Transition::l2("SS", "GetS"));
                let requestor = src_core.expect("GetS comes from an L1");
                let entry = l2.cache.get_mut(line).expect("resident");
                let payload = if entry.sharers.is_empty() {
                    // No other copies: grant Exclusive (clean); the owner may
                    // silently modify it, which the directory will not know
                    // about (dirty_expected = false) — the precondition of the
                    // Replace-Race bug.
                    entry.state = L2State::Owned;
                    entry.owner = Some(requestor);
                    entry.dirty_expected = false;
                    let data = entry.data.clone();
                    MsgPayload::DataE {
                        line,
                        data,
                        ts: None,
                    }
                } else {
                    entry.sharers.insert(requestor);
                    let data = entry.data.clone();
                    MsgPayload::DataS {
                        line,
                        data,
                        ts: None,
                    }
                };
                l2.send_response(ctx, msg.src, payload);
                true
            }
            (MsgPayload::GetS { .. }, L2State::Owned) => {
                ctx.coverage.record(Transition::l2("MT", "GetS"));
                let requestor = src_core.expect("GetS comes from an L1");
                let owner = owner.expect("owner");
                if owner == requestor {
                    // The owner re-requesting: grant exclusive again from the
                    // L2 copy (defensive; should not occur with a correct L1).
                    let data = l2.cache.get(line).expect("resident").data.clone();
                    l2.send_response(
                        ctx,
                        msg.src,
                        MsgPayload::DataE {
                            line,
                            data,
                            ts: None,
                        },
                    );
                    return true;
                }
                let dst = ctx.cfg.node_of_l1(owner);
                l2.send_forward(ctx, dst, MsgPayload::FwdGetS { line });
                l2.trans.insert(line, Trans::FwdForS { requestor });
                true
            }

            // ---------------- GetX ----------------
            (MsgPayload::GetX { .. }, L2State::Shared) => {
                ctx.coverage.record(Transition::l2("SS", "GetX"));
                let requestor = src_core.expect("GetX comes from an L1");
                let entry = l2.cache.get_mut(line).expect("resident");
                let others: Vec<usize> = entry
                    .sharers
                    .iter()
                    .copied()
                    .filter(|&s| s != requestor)
                    .collect();
                if others.is_empty() {
                    entry.grant_owned(requestor, true);
                    let data = entry.data.clone();
                    l2.send_response(
                        ctx,
                        msg.src,
                        MsgPayload::DataX {
                            line,
                            data,
                            ts: None,
                        },
                    );
                } else {
                    for s in &others {
                        let dst = ctx.cfg.node_of_l1(*s);
                        l2.send_forward(ctx, dst, MsgPayload::Inv { line });
                    }
                    let acks_left = others.len();
                    l2.trans.insert(
                        line,
                        Trans::InvForX {
                            requestor,
                            acks_left,
                        },
                    );
                }
                true
            }
            (MsgPayload::GetX { .. }, L2State::Owned) => {
                ctx.coverage.record(Transition::l2("MT", "GetX"));
                let requestor = src_core.expect("GetX comes from an L1");
                let owner = owner.expect("owner");
                if owner == requestor {
                    let data = l2.cache.get(line).expect("resident").data.clone();
                    l2.send_response(
                        ctx,
                        msg.src,
                        MsgPayload::DataX {
                            line,
                            data,
                            ts: None,
                        },
                    );
                    return true;
                }
                let dst = ctx.cfg.node_of_l1(owner);
                l2.send_forward(ctx, dst, MsgPayload::FwdGetX { line });
                l2.trans.insert(line, Trans::FwdForX { requestor });
                true
            }

            // ---------------- PutX ----------------
            (MsgPayload::PutX { data, dirty, .. }, L2State::Owned)
                if src_core.is_some() && owner == src_core =>
            {
                ctx.coverage.record(Transition::l2("MT", "PutX"));
                let entry = l2.cache.get_mut(line).expect("resident");
                entry.absorb(data, *dirty);
                entry.state = L2State::Shared;
                entry.owner = None;
                entry.sharers.clear();
                entry.dirty_expected = false;
                l2.send_response(ctx, msg.src, MsgPayload::WbAck { line });
                true
            }
            (MsgPayload::PutX { .. }, state) => l2.stale_putx(ctx, msg, state.name()),

            (payload, state) => {
                l2.invalid(ctx, line, state.name(), payload.event_name());
                true
            }
        }
    }

    fn response(l2: &mut L2<Mesi>, ctx: &mut TickCtx<'_>, msg: Msg, trans: Trans) {
        let line = msg.payload.line();
        match (&msg.payload, trans) {
            // ---- Invalidation acks ----
            (
                MsgPayload::InvAck { .. },
                Trans::InvForX {
                    requestor,
                    acks_left,
                },
            ) => {
                ctx.coverage.record(Transition::l2("SS_X_Inv", "InvAck"));
                if acks_left > 1 {
                    let acks_left = acks_left - 1;
                    l2.trans.insert(
                        line,
                        Trans::InvForX {
                            requestor,
                            acks_left,
                        },
                    );
                } else {
                    l2.trans.remove(&line);
                    let entry = l2.cache.get_mut(line).expect("resident during InvForX");
                    entry.grant_owned(requestor, true);
                    let data = entry.data.clone();
                    let dst = ctx.cfg.node_of_l1(requestor);
                    l2.send_response(
                        ctx,
                        dst,
                        MsgPayload::DataX {
                            line,
                            data,
                            ts: None,
                        },
                    );
                }
            }
            (MsgPayload::InvAck { .. }, Trans::EvictInv { acks_left }) => {
                ctx.coverage.record(Transition::l2("SS_Evict", "InvAck"));
                if acks_left > 1 {
                    let acks_left = acks_left - 1;
                    l2.trans.insert(line, Trans::EvictInv { acks_left });
                } else {
                    l2.trans.remove(&line);
                    let entry = l2.cache.remove(line).expect("resident during eviction");
                    if entry.dirty {
                        let data = entry.data;
                        l2.send_mem(ctx, MsgPayload::MemWrite { line, data });
                    }
                }
            }

            // ---- Owner writeback data for forwards ----
            (MsgPayload::WbData { data, dirty, .. }, Trans::FwdForS { requestor }) => {
                ctx.coverage.record(Transition::l2("MT_S_Fwd", "WbData"));
                l2.trans.remove(&line);
                let old_owner = l2.cache.get(line).and_then(|l| l.owner);
                let entry = l2.cache.get_mut(line).expect("resident during FwdForS");
                entry.absorb(data, *dirty);
                entry.state = L2State::Shared;
                entry.owner = None;
                entry.sharers.clear();
                if let Some(o) = old_owner {
                    entry.sharers.insert(o);
                }
                entry.sharers.insert(requestor);
                entry.dirty_expected = false;
                let data = entry.data.clone();
                let dst = ctx.cfg.node_of_l1(requestor);
                l2.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataS {
                        line,
                        data,
                        ts: None,
                    },
                );
            }
            (MsgPayload::WbData { data, dirty, .. }, Trans::FwdForX { requestor }) => {
                ctx.coverage.record(Transition::l2("MT_X_Fwd", "WbData"));
                l2.trans.remove(&line);
                let entry = l2.cache.get_mut(line).expect("resident during FwdForX");
                entry.absorb(data, *dirty);
                entry.grant_owned(requestor, true);
                let data = entry.data.clone();
                let dst = ctx.cfg.node_of_l1(requestor);
                l2.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataX {
                        line,
                        data,
                        ts: None,
                    },
                );
            }
            (MsgPayload::WbData { data, dirty, .. }, Trans::EvictRecall) => {
                ctx.coverage.record(Transition::l2("MT_Evict", "WbData"));
                l2.trans.remove(&line);
                let entry = l2.cache.remove(line).expect("resident during eviction");
                let drop_dirty_data = ctx.bugs.has(Bug::MesiReplaceRace) && !entry.dirty_expected;
                // With the Replace-Race bug and an unexpectedly dirty block,
                // the modified data is silently lost.
                if *dirty && !drop_dirty_data {
                    let data = data.clone();
                    l2.send_mem(ctx, MsgPayload::MemWrite { line, data });
                } else if entry.dirty && !drop_dirty_data {
                    let data = entry.data;
                    l2.send_mem(ctx, MsgPayload::MemWrite { line, data });
                }
            }

            (payload, trans) => l2.invalid(ctx, line, trans.name(), payload.event_name()),
        }
    }

    fn stale_putx_faults(bugs: &BugConfig) -> bool {
        // The injected bug treats the late PutX as an invalid transition, as
        // Ruby did.
        bugs.has(Bug::MesiPutxRace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugConfig;
    use crate::config::ProtocolKind;
    use crate::protocol::harness::Harness;
    use crate::protocol::L2Controller;
    use crate::types::NodeId;

    fn l1_node(h: &Harness, core: usize) -> NodeId {
        h.cfg.node_of_l1(core)
    }

    fn gets(h: &Harness, core: usize, line: u64) -> Msg {
        Msg::new(
            l1_node(h, core),
            h.cfg.node_of_l2(0),
            MsgPayload::GetS {
                line: LineAddr(line),
            },
        )
    }

    fn getx(h: &Harness, core: usize, line: u64) -> Msg {
        Msg::new(
            l1_node(h, core),
            h.cfg.node_of_l2(0),
            MsgPayload::GetX {
                line: LineAddr(line),
            },
        )
    }

    fn mem_data(h: &Harness, line: u64, word0: u64) -> Msg {
        let mut data = LineData::zeroed(64);
        data.set_word(0, word0);
        Msg::new(
            h.cfg.node_of_memory(),
            h.cfg.node_of_l2(0),
            MsgPayload::MemData {
                line: LineAddr(line),
                data,
            },
        )
    }

    #[test]
    fn first_gets_fetches_from_memory_and_grants_exclusive() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        l2.push_msg(gets(&h, 0, 0x1000));
        let out = h.run(&mut l2, 100);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::MemRead { .. })));
        l2.push_msg(mem_data(&h, 0x1000, 7));
        let out = h.run(&mut l2, 200);
        let data = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::DataE { .. }))
            .expect("exclusive grant");
        assert_eq!(data.dst, l1_node(&h, 0));
        assert!(l2.is_idle());
        assert_eq!(l2.resident_lines(), 1);
        assert!(h.errors.is_empty());
    }

    #[test]
    fn second_gets_forwards_to_owner_then_shares() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        // Core 0 becomes owner.
        l2.push_msg(gets(&h, 0, 0x1000));
        h.run(&mut l2, 50);
        l2.push_msg(mem_data(&h, 0x1000, 7));
        h.run(&mut l2, 200);
        // Core 1 requests the same line.
        l2.push_msg(gets(&h, 1, 0x1000));
        let out = h.run(&mut l2, 100);
        let fwd = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::FwdGetS { .. }))
            .expect("forward to owner");
        assert_eq!(fwd.dst, l1_node(&h, 0));
        // Owner responds with (dirty) data.
        let mut data = LineData::zeroed(64);
        data.set_word(0, 42);
        l2.push_msg(Msg::new(
            l1_node(&h, 0),
            h.cfg.node_of_l2(0),
            MsgPayload::WbData {
                line: LineAddr(0x1000),
                data,
                dirty: true,
                ts: None,
            },
        ));
        let out = h.run(&mut l2, 200);
        let resp = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::DataS { .. }))
            .expect("shared data to requestor");
        assert_eq!(resp.dst, l1_node(&h, 1));
        match &resp.payload {
            MsgPayload::DataS { data, .. } => assert_eq!(data.word(0), 42),
            _ => unreachable!(),
        }
        assert!(l2.is_idle());
        assert!(h.errors.is_empty());
    }

    #[test]
    fn getx_invalidates_sharers_before_granting() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        // Two sharers: core 0 (exclusive first, downgraded) and core 1.
        l2.push_msg(gets(&h, 0, 0x1000));
        h.run(&mut l2, 50);
        l2.push_msg(mem_data(&h, 0x1000, 1));
        h.run(&mut l2, 200);
        l2.push_msg(gets(&h, 1, 0x1000));
        h.run(&mut l2, 100);
        l2.push_msg(Msg::new(
            l1_node(&h, 0),
            h.cfg.node_of_l2(0),
            MsgPayload::WbData {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                dirty: false,
                ts: None,
            },
        ));
        h.run(&mut l2, 200);
        // Core 2 wants exclusive access.
        l2.push_msg(getx(&h, 2, 0x1000));
        let out = h.run(&mut l2, 100);
        let invs: Vec<&Msg> = out
            .iter()
            .filter(|m| matches!(m.payload, MsgPayload::Inv { .. }))
            .collect();
        assert_eq!(invs.len(), 2, "both sharers are invalidated");
        assert!(
            !out.iter()
                .any(|m| matches!(m.payload, MsgPayload::DataX { .. })),
            "no grant before acks"
        );
        // Both sharers ack.
        for core in [0, 1] {
            l2.push_msg(Msg::new(
                l1_node(&h, core),
                h.cfg.node_of_l2(0),
                MsgPayload::InvAck {
                    line: LineAddr(0x1000),
                },
            ));
        }
        let out = h.run(&mut l2, 200);
        let grant = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::DataX { .. }))
            .expect("exclusive grant after all acks");
        assert_eq!(grant.dst, l1_node(&h, 2));
        assert!(l2.is_idle());
        assert!(h.errors.is_empty());
    }

    #[test]
    fn putx_from_owner_accepted_with_ack() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        l2.push_msg(getx(&h, 0, 0x1000));
        h.run(&mut l2, 50);
        l2.push_msg(mem_data(&h, 0x1000, 0));
        h.run(&mut l2, 200);
        let mut data = LineData::zeroed(64);
        data.set_word(0, 99);
        l2.push_msg(Msg::new(
            l1_node(&h, 0),
            h.cfg.node_of_l2(0),
            MsgPayload::PutX {
                line: LineAddr(0x1000),
                data,
                dirty: true,
                ts: None,
            },
        ));
        let out = h.run(&mut l2, 200);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::WbAck { .. })));
        // Data is now served from the L2 without recalling anyone.
        l2.push_msg(gets(&h, 1, 0x1000));
        let out = h.run(&mut l2, 200);
        let resp = out
            .iter()
            .find(|m| {
                matches!(
                    m.payload,
                    MsgPayload::DataE { .. } | MsgPayload::DataS { .. }
                )
            })
            .expect("data served from L2 copy");
        match &resp.payload {
            MsgPayload::DataE { data, .. } | MsgPayload::DataS { data, .. } => {
                assert_eq!(data.word(0), 99)
            }
            _ => unreachable!(),
        }
        assert!(h.errors.is_empty());
    }

    #[test]
    fn stale_putx_gets_wbstale_or_invalid_transition_with_bug() {
        for (bugs, expect_error) in [
            (BugConfig::none(), false),
            (BugConfig::single(Bug::MesiPutxRace), true),
        ] {
            let mut h = Harness::new(ProtocolKind::Mesi, bugs);
            let mut l2 = MesiL2::new(0, &h.cfg);
            // A PutX for a line nobody owns is the stale-PutX shape.
            l2.push_msg(Msg::new(
                l1_node(&h, 0),
                h.cfg.node_of_l2(0),
                MsgPayload::PutX {
                    line: LineAddr(0x1000),
                    data: LineData::zeroed(64),
                    dirty: true,
                    ts: None,
                },
            ));
            let out = h.run(&mut l2, 200);
            if expect_error {
                assert_eq!(h.errors.len(), 1, "PUTX race must be an invalid transition");
                assert!(!out
                    .iter()
                    .any(|m| matches!(m.payload, MsgPayload::WbStale { .. })));
            } else {
                assert!(h.errors.is_empty());
                assert!(out
                    .iter()
                    .any(|m| matches!(m.payload, MsgPayload::WbStale { .. })));
            }
        }
    }

    #[test]
    fn l2_eviction_recalls_owner_and_replace_race_bug_drops_dirty_data() {
        for (bugs, expect_memwrite) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::MesiReplaceRace), false),
        ] {
            let mut h = Harness::new(ProtocolKind::Mesi, bugs);
            let mut l2 = MesiL2::new(0, &h.cfg);
            let sets = h.cfg.l2_sets() as u64;
            let ways = h.cfg.l2_ways;
            let stride = sets * h.cfg.line_bytes * (h.cfg.l2_banks as u64);
            // Fill one set with exclusively granted (GetS -> DataE) lines; the
            // directory believes them clean.
            for i in 0..ways as u64 {
                let line = 0x1000 + i * stride;
                l2.push_msg(gets(&h, 0, line));
                h.run(&mut l2, 50);
                l2.push_msg(mem_data(&h, line, 0));
                h.run(&mut l2, 200);
            }
            assert_eq!(l2.resident_lines(), ways);
            // One more allocation forces an eviction of the LRU victim, which
            // is owned: the L2 must recall it.
            let extra = 0x1000 + ways as u64 * stride;
            l2.push_msg(gets(&h, 1, extra));
            let out = h.run(&mut l2, 100);
            let recall = out
                .iter()
                .find(|m| matches!(m.payload, MsgPayload::Recall { .. }))
                .expect("recall sent to owner");
            assert_eq!(recall.dst, l1_node(&h, 0));
            let victim = recall.payload.line();
            // The owner silently modified the line (E -> M), so the recall
            // data comes back dirty even though the directory expected clean.
            let mut data = LineData::zeroed(64);
            data.set_word(0, 1234);
            l2.push_msg(Msg::new(
                l1_node(&h, 0),
                h.cfg.node_of_l2(0),
                MsgPayload::WbData {
                    line: victim,
                    data,
                    dirty: true,
                    ts: None,
                },
            ));
            let out = h.run(&mut l2, 300);
            let wrote = out.iter().any(|m| {
                matches!(&m.payload, MsgPayload::MemWrite { line, data } if *line == victim && data.word(0) == 1234)
            });
            assert_eq!(
                wrote, expect_memwrite,
                "Replace-Race bug must drop the dirty recall data"
            );
            assert!(h.errors.is_empty());
        }
    }

    #[test]
    fn requests_to_busy_line_stall_until_transaction_completes() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        l2.push_msg(gets(&h, 0, 0x1000));
        h.run(&mut l2, 50);
        // While the fetch is outstanding, another GetS arrives.
        l2.push_msg(gets(&h, 1, 0x1000));
        let out = h.run(&mut l2, 50);
        assert!(
            !out.iter().any(|m| matches!(
                m.payload,
                MsgPayload::DataS { .. } | MsgPayload::DataE { .. }
            )),
            "no grant while the line is busy"
        );
        l2.push_msg(mem_data(&h, 0x1000, 5));
        let out = h.run(&mut l2, 100);
        // Core 0 granted exclusive; core 1's request now forwards to core 0.
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::DataE { .. }) && m.dst == l1_node(&h, 0)));
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::FwdGetS { .. }) && m.dst == l1_node(&h, 0)));
        assert!(h.errors.is_empty());
    }

    #[test]
    fn a_fetch_in_flight_stalls_the_next_fetch_into_its_set() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        let stride = h.cfg.l2_sets() as u64 * h.cfg.line_bytes * h.cfg.l2_banks as u64;
        let np_gets = Transition::l2("NP", "GetS");
        let mem_reads = |out: &[Msg]| {
            out.iter()
                .filter(|m| matches!(m.payload, MsgPayload::MemRead { .. }))
                .count()
        };
        l2.push_msg(gets(&h, 0, 0x1000));
        assert_eq!(mem_reads(&h.run(&mut l2, 50)), 1);
        // Another line of the set is not present either, and the set has a
        // free way, but the fetch in flight has reserved it.
        l2.push_msg(gets(&h, 1, 0x1000 + stride));
        assert_eq!(mem_reads(&h.run(&mut l2, 100)), 0);
        assert_eq!(h.coverage.count(np_gets), 1);
        l2.push_msg(mem_data(&h, 0x1000, 0));
        assert_eq!(mem_reads(&h.run(&mut l2, 100)), 1);
        assert_eq!(h.coverage.count(np_gets), 2);
        assert!(h.errors.is_empty());
    }

    #[test]
    fn a_stalled_tick_is_inert_but_starting_an_eviction_is_progress() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        let stride = h.cfg.l2_sets() as u64 * h.cfg.line_bytes * h.cfg.l2_banks as u64;
        for i in 0..h.cfg.l2_ways as u64 {
            l2.push_msg(gets(&h, 0, 0x1000 + i * stride));
            h.run(&mut l2, 50);
            l2.push_msg(mem_data(&h, 0x1000 + i * stride, 0));
            h.run(&mut l2, 200);
        }
        let np_gets = Transition::l2("NP", "GetS");
        let replacement = Transition::l2("MT", "Replacement");
        let recorded = |h: &Harness| (h.coverage.count(np_gets), h.coverage.count(replacement));
        let counts = |h: &Harness| h.coverage.iter_cumulative().collect::<Vec<_>>();
        let before = recorded(&h);
        // The set is full of owned lines: the request stalls, but the recall
        // it queues for the victim is a state change.
        l2.push_msg(gets(&h, 1, 0x1000 + h.cfg.l2_ways as u64 * stride));
        let mut out = Vec::new();
        assert!(h.tick_l2(&mut l2, &mut out), "queued a recall");
        // The fetch has not been taken yet, the replacement has.
        assert_eq!(recorded(&h), (before.0, before.1 + 1));
        let release = l2.next_release().expect("the recall is waiting");
        // Until the recall is released every tick retries the request and
        // changes nothing, coverage counts included.
        while h.cycle + 1 < release {
            let retried = counts(&h);
            assert!(!h.tick_l2(&mut l2, &mut out), "cycle {}", h.cycle);
            assert_eq!(counts(&h), retried, "cycle {}", h.cycle);
            assert_eq!(l2.next_release(), Some(release));
            assert!(out.is_empty());
        }
        assert!(h.tick_l2(&mut l2, &mut out), "released the recall");
        assert!(matches!(
            out[..],
            [Msg {
                payload: MsgPayload::Recall { .. },
                ..
            }]
        ));
        assert_eq!(l2.next_release(), None);
        let retried = counts(&h);
        assert!(!h.tick_l2(&mut l2, &mut out), "still waiting for the owner");
        assert_eq!(counts(&h), retried);
    }

    #[test]
    fn hard_reset_clears_state() {
        let mut h = Harness::new(ProtocolKind::Mesi, BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        l2.push_msg(gets(&h, 0, 0x1000));
        h.run(&mut l2, 10);
        assert!(!l2.is_idle());
        l2.hard_reset();
        assert!(l2.is_idle());
        assert_eq!(l2.resident_lines(), 0);
    }
}
