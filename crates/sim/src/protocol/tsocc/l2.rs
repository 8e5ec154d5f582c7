//! The TSO-CC shared L2 bank / directory.
//!
//! Unlike the MESI directory, the TSO-CC L2 keeps *no sharer lists*: it only
//! tracks the exclusive owner of a line (if any) and the last writer's
//! timestamp metadata, which it attaches to every data response so readers can
//! apply the acquire rule.  Reads of an exclusively owned line downgrade the
//! owner; writes recall it; Shared copies elsewhere are never invalidated —
//! this is the deliberate SWMR violation that makes TSO-CC an interesting
//! verification case study (paper §5.3).  The bank itself is the shared
//! [`L2`] skeleton; this file holds TSO-CC's states and transitions.

use super::TsoCc;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload, TsInfo};
use crate::protocol::l2::{L2Protocol, L2};
use crate::protocol::TickCtx;
use crate::types::{LineAddr, LineData};

/// The TSO-CC L2 bank controller.
pub(crate) type TsoCcL2 = L2<TsoCc>;

/// Stable directory states of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L2State {
    /// Present, not exclusively owned; the L2 copy is authoritative.
    Uncached,
    /// Exclusively owned by one L1; the L2 copy may be stale.
    Exclusive,
}

impl L2State {
    fn name(self) -> &'static str {
        match self {
            L2State::Uncached => "U",
            L2State::Exclusive => "EX",
        }
    }
}

/// A resident TSO-CC L2 line.
#[derive(Debug, Clone)]
pub(crate) struct L2Line {
    state: L2State,
    data: LineData,
    dirty: bool,
    owner: Option<usize>,
    ts: Option<TsInfo>,
}

impl L2Line {
    /// Takes the owner's writeback: its data if it modified the line, and
    /// its timestamp metadata if it sent any.
    fn absorb(&mut self, data: &LineData, dirty: bool, ts: Option<TsInfo>) {
        if dirty {
            self.data = data.clone();
            self.dirty = true;
        }
        if ts.is_some() {
            self.ts = ts;
        }
    }
}

/// In-flight TSO-CC directory transaction states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Trans {
    /// Waiting for the downgraded owner's data to satisfy a GetS.
    DownForS {
        /// The requesting core.
        requestor: usize,
    },
    /// Waiting for the recalled owner's data to satisfy a GetX.
    RecallForX {
        /// The requesting core.
        requestor: usize,
    },
    /// Evicting an owned line: waiting for the owner's recall data.
    EvictRecall,
}

impl Trans {
    fn name(&self) -> &'static str {
        match self {
            Trans::DownForS { .. } => "EX_S_Down",
            Trans::RecallForX { .. } => "EX_X_Recall",
            Trans::EvictRecall => "EX_Evict",
        }
    }
}

impl L2Protocol for TsoCc {
    const COMPONENT: &'static str = "TSO-CC L2";
    type Line = L2Line;
    type Trans = Trans;

    fn state_name(line: &L2Line) -> &'static str {
        line.state.name()
    }

    const FETCHING: [&'static str; 2] = ["U_S_Mem", "U_X_Mem"];

    fn fetched(
        line: LineAddr,
        data: LineData,
        requestor: usize,
        exclusive: bool,
    ) -> (L2Line, MsgPayload) {
        let entry = L2Line {
            state: if exclusive {
                L2State::Exclusive
            } else {
                L2State::Uncached
            },
            data: data.clone(),
            dirty: false,
            owner: exclusive.then_some(requestor),
            ts: None,
        };
        let grant = if exclusive {
            MsgPayload::DataX {
                line,
                data,
                ts: None,
            }
        } else {
            MsgPayload::DataS {
                line,
                data,
                ts: None,
            }
        };
        (entry, grant)
    }

    fn evict(l2: &mut L2<TsoCc>, ctx: &mut TickCtx<'_>, victim: LineAddr, entry: L2Line) -> bool {
        match entry.state {
            L2State::Uncached => {
                if entry.dirty {
                    let data = entry.data;
                    l2.send_mem(ctx, MsgPayload::MemWrite { line: victim, data });
                }
                l2.cache.remove(victim);
                true
            }
            L2State::Exclusive => {
                let owner = entry.owner.expect("exclusive line has owner");
                let dst = ctx.cfg.node_of_l1(owner);
                l2.send_forward(ctx, dst, MsgPayload::Recall { line: victim });
                l2.trans.insert(victim, Trans::EvictRecall);
                false
            }
        }
    }

    fn request(
        l2: &mut L2<TsoCc>,
        ctx: &mut TickCtx<'_>,
        msg: &Msg,
        src_core: Option<usize>,
    ) -> bool {
        let line = msg.payload.line();
        let resident = l2.cache.get(line).expect("resident");
        let (state, owner) = (resident.state, resident.owner);
        match (&msg.payload, state) {
            (MsgPayload::GetS { .. }, L2State::Uncached) => {
                ctx.coverage.record(Transition::l2("U", "GetS"));
                let entry = l2.cache.get_mut(line).expect("resident");
                let (data, ts) = (entry.data.clone(), entry.ts);
                l2.send_response(ctx, msg.src, MsgPayload::DataS { line, data, ts });
                true
            }
            (MsgPayload::GetS { .. }, L2State::Exclusive) => {
                ctx.coverage.record(Transition::l2("EX", "GetS"));
                let requestor = src_core.expect("GetS from an L1");
                let owner = owner.expect("owner");
                if owner == requestor {
                    let entry = l2.cache.get(line).expect("resident");
                    let (data, ts) = (entry.data.clone(), entry.ts);
                    l2.send_response(ctx, msg.src, MsgPayload::DataX { line, data, ts });
                    return true;
                }
                let dst = ctx.cfg.node_of_l1(owner);
                l2.send_forward(ctx, dst, MsgPayload::Downgrade { line });
                l2.trans.insert(line, Trans::DownForS { requestor });
                true
            }

            (MsgPayload::GetX { .. }, L2State::Uncached) => {
                ctx.coverage.record(Transition::l2("U", "GetX"));
                let requestor = src_core.expect("GetX from an L1");
                let entry = l2.cache.get_mut(line).expect("resident");
                entry.state = L2State::Exclusive;
                entry.owner = Some(requestor);
                let (data, ts) = (entry.data.clone(), entry.ts);
                l2.send_response(ctx, msg.src, MsgPayload::DataX { line, data, ts });
                true
            }
            (MsgPayload::GetX { .. }, L2State::Exclusive) => {
                ctx.coverage.record(Transition::l2("EX", "GetX"));
                let requestor = src_core.expect("GetX from an L1");
                let owner = owner.expect("owner");
                if owner == requestor {
                    let entry = l2.cache.get(line).expect("resident");
                    let (data, ts) = (entry.data.clone(), entry.ts);
                    l2.send_response(ctx, msg.src, MsgPayload::DataX { line, data, ts });
                    return true;
                }
                let dst = ctx.cfg.node_of_l1(owner);
                l2.send_forward(ctx, dst, MsgPayload::Recall { line });
                l2.trans.insert(line, Trans::RecallForX { requestor });
                true
            }

            (
                MsgPayload::PutX {
                    data, dirty, ts, ..
                },
                L2State::Exclusive,
            ) if owner == src_core && src_core.is_some() => {
                ctx.coverage.record(Transition::l2("EX", "PutX"));
                let entry = l2.cache.get_mut(line).expect("resident");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                    entry.ts = *ts;
                }
                entry.state = L2State::Uncached;
                entry.owner = None;
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

    fn response(l2: &mut L2<TsoCc>, ctx: &mut TickCtx<'_>, msg: Msg, trans: Trans) {
        let line = msg.payload.line();
        match (&msg.payload, trans) {
            (
                MsgPayload::WbData {
                    data, dirty, ts, ..
                },
                Trans::DownForS { requestor },
            ) => {
                ctx.coverage.record(Transition::l2("EX_S_Down", "WbData"));
                l2.trans.remove(&line);
                let entry = l2.cache.get_mut(line).expect("resident");
                entry.absorb(data, *dirty, *ts);
                entry.state = L2State::Uncached;
                entry.owner = None;
                let (data, ts) = (entry.data.clone(), entry.ts);
                let dst = ctx.cfg.node_of_l1(requestor);
                l2.send_response(ctx, dst, MsgPayload::DataS { line, data, ts });
            }
            (
                MsgPayload::WbData {
                    data, dirty, ts, ..
                },
                Trans::RecallForX { requestor },
            ) => {
                ctx.coverage.record(Transition::l2("EX_X_Recall", "WbData"));
                l2.trans.remove(&line);
                let entry = l2.cache.get_mut(line).expect("resident");
                entry.absorb(data, *dirty, *ts);
                entry.state = L2State::Exclusive;
                entry.owner = Some(requestor);
                let (data, ts) = (entry.data.clone(), entry.ts);
                let dst = ctx.cfg.node_of_l1(requestor);
                l2.send_response(ctx, dst, MsgPayload::DataX { line, data, ts });
            }
            (MsgPayload::WbData { data, dirty, .. }, Trans::EvictRecall) => {
                ctx.coverage.record(Transition::l2("EX_Evict", "WbData"));
                l2.trans.remove(&line);
                let entry = l2.cache.remove(line).expect("resident");
                if *dirty {
                    let data = data.clone();
                    l2.send_mem(ctx, MsgPayload::MemWrite { line, data });
                } else if entry.dirty {
                    let data = entry.data;
                    l2.send_mem(ctx, MsgPayload::MemWrite { line, data });
                }
            }
            (payload, trans) => l2.invalid(ctx, line, trans.name(), payload.event_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugConfig;
    use crate::config::ProtocolKind;
    use crate::protocol::harness::Harness;
    use crate::protocol::L2Controller;

    fn msg_from_l1(h: &Harness, core: usize, payload: MsgPayload) -> Msg {
        Msg::new(h.cfg.node_of_l1(core), h.cfg.node_of_l2(0), payload)
    }

    #[test]
    fn gets_miss_fetches_and_serves_shared() {
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
        let mut l2 = TsoCcL2::new(0, &h.cfg);
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::GetS {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.run(&mut l2, 50);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::MemRead { .. })));
        l2.push_msg(Msg::new(
            h.cfg.node_of_memory(),
            h.cfg.node_of_l2(0),
            MsgPayload::MemData {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
            },
        ));
        let out = h.run(&mut l2, 200);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::DataS { .. })));
        assert!(l2.is_idle());
        assert!(h.errors.is_empty());
    }

    #[test]
    fn getx_to_owned_line_recalls_owner_and_transfers_ownership() {
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
        let mut l2 = TsoCcL2::new(0, &h.cfg);
        // Core 0 takes ownership.
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::GetX {
                line: LineAddr(0x1000),
            },
        ));
        h.run(&mut l2, 50);
        l2.push_msg(Msg::new(
            h.cfg.node_of_memory(),
            h.cfg.node_of_l2(0),
            MsgPayload::MemData {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
            },
        ));
        h.run(&mut l2, 200);
        // Core 1 wants to write too.
        l2.push_msg(msg_from_l1(
            &h,
            1,
            MsgPayload::GetX {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.run(&mut l2, 100);
        let recall = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::Recall { .. }))
            .expect("owner recalled");
        assert_eq!(recall.dst, h.cfg.node_of_l1(0));
        // Core 0 writes back with its timestamp.
        let mut data = LineData::zeroed(64);
        data.set_word(0, 77);
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::WbData {
                line: LineAddr(0x1000),
                data,
                dirty: true,
                ts: Some(TsInfo {
                    writer: 0,
                    ts: 3,
                    epoch: 0,
                }),
            },
        ));
        let out = h.run(&mut l2, 200);
        let grant = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::DataX { .. }))
            .expect("grant to the new owner");
        assert_eq!(grant.dst, h.cfg.node_of_l1(1));
        match &grant.payload {
            MsgPayload::DataX { data, ts, .. } => {
                assert_eq!(data.word(0), 77);
                assert_eq!(ts.map(|t| t.ts), Some(3), "timestamp metadata propagated");
            }
            _ => unreachable!(),
        }
        assert!(h.errors.is_empty());
    }

    #[test]
    fn gets_to_owned_line_downgrades_owner_and_keeps_metadata() {
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
        let mut l2 = TsoCcL2::new(0, &h.cfg);
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::GetX {
                line: LineAddr(0x2000),
            },
        ));
        h.run(&mut l2, 50);
        l2.push_msg(Msg::new(
            h.cfg.node_of_memory(),
            h.cfg.node_of_l2(0),
            MsgPayload::MemData {
                line: LineAddr(0x2000),
                data: LineData::zeroed(64),
            },
        ));
        h.run(&mut l2, 200);
        l2.push_msg(msg_from_l1(
            &h,
            1,
            MsgPayload::GetS {
                line: LineAddr(0x2000),
            },
        ));
        let out = h.run(&mut l2, 100);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::Downgrade { .. })));
        let mut data = LineData::zeroed(64);
        data.set_word(0, 5);
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::WbData {
                line: LineAddr(0x2000),
                data,
                dirty: true,
                ts: Some(TsInfo {
                    writer: 0,
                    ts: 9,
                    epoch: 2,
                }),
            },
        ));
        let out = h.run(&mut l2, 200);
        let resp = out
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::DataS { .. }))
            .expect("shared data");
        match &resp.payload {
            MsgPayload::DataS { ts, data, .. } => {
                assert_eq!(ts.map(|t| (t.ts, t.epoch)), Some((9, 2)));
                assert_eq!(data.word(0), 5);
            }
            _ => unreachable!(),
        }
        // Another reader is served straight from the (now Uncached) L2 line
        // with the same metadata — no sharer tracking involved.
        l2.push_msg(msg_from_l1(
            &h,
            2,
            MsgPayload::GetS {
                line: LineAddr(0x2000),
            },
        ));
        let out = h.run(&mut l2, 200);
        assert!(
            out.iter()
                .any(|m| matches!(m.payload, MsgPayload::DataS { .. })
                    && m.dst == h.cfg.node_of_l1(2))
        );
        assert!(h.errors.is_empty());
    }

    #[test]
    fn a_fetch_in_flight_stalls_the_next_fetch_into_its_set() {
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
        let mut l2 = TsoCcL2::new(0, &h.cfg);
        let stride = h.cfg.l2_sets() as u64 * h.cfg.line_bytes * h.cfg.l2_banks as u64;
        let line = |i: u64| LineAddr(0x1000 + i * stride);
        let np_gets = Transition::l2("NP", "GetS");
        let mem_reads = |out: &[Msg]| {
            out.iter()
                .filter(|m| matches!(m.payload, MsgPayload::MemRead { .. }))
                .count()
        };
        l2.push_msg(msg_from_l1(&h, 0, MsgPayload::GetS { line: line(0) }));
        assert_eq!(mem_reads(&h.run(&mut l2, 50)), 1);
        // Another line of the set is not present either, and the set has a
        // free way, but the fetch in flight has reserved it.
        l2.push_msg(msg_from_l1(&h, 1, MsgPayload::GetS { line: line(1) }));
        assert_eq!(mem_reads(&h.run(&mut l2, 100)), 0);
        assert_eq!(h.coverage.count(np_gets), 1);
        l2.push_msg(Msg::new(
            h.cfg.node_of_memory(),
            h.cfg.node_of_l2(0),
            MsgPayload::MemData {
                line: line(0),
                data: LineData::zeroed(64),
            },
        ));
        assert_eq!(mem_reads(&h.run(&mut l2, 100)), 1);
        assert_eq!(h.coverage.count(np_gets), 2);
        assert!(h.errors.is_empty());
    }

    #[test]
    fn a_stalled_tick_is_inert_but_starting_an_eviction_is_progress() {
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
        let mut l2 = TsoCcL2::new(0, &h.cfg);
        let stride = h.cfg.l2_sets() as u64 * h.cfg.line_bytes * h.cfg.l2_banks as u64;
        let line = |i: u64| LineAddr(0x1000 + i * stride);
        for i in 0..h.cfg.l2_ways as u64 {
            l2.push_msg(msg_from_l1(&h, 0, MsgPayload::GetX { line: line(i) }));
            h.run(&mut l2, 50);
            l2.push_msg(Msg::new(
                h.cfg.node_of_memory(),
                h.cfg.node_of_l2(0),
                MsgPayload::MemData {
                    line: line(i),
                    data: LineData::zeroed(64),
                },
            ));
            h.run(&mut l2, 200);
        }
        let np_gets = Transition::l2("NP", "GetS");
        let replacement = Transition::l2("EX", "Replacement");
        let recorded = |h: &Harness| (h.coverage.count(np_gets), h.coverage.count(replacement));
        let counts = |h: &Harness| h.coverage.iter_cumulative().collect::<Vec<_>>();
        let before = recorded(&h);
        // The set is full of owned lines: the request stalls, but the recall
        // it queues for the victim is a state change.
        let extra = line(h.cfg.l2_ways as u64);
        l2.push_msg(msg_from_l1(&h, 1, MsgPayload::GetS { line: extra }));
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
    fn putx_from_owner_accepted_and_stale_putx_nacked() {
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
        let mut l2 = TsoCcL2::new(0, &h.cfg);
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::GetX {
                line: LineAddr(0x1000),
            },
        ));
        h.run(&mut l2, 50);
        l2.push_msg(Msg::new(
            h.cfg.node_of_memory(),
            h.cfg.node_of_l2(0),
            MsgPayload::MemData {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
            },
        ));
        h.run(&mut l2, 200);
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::PutX {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                dirty: true,
                ts: Some(TsInfo {
                    writer: 0,
                    ts: 1,
                    epoch: 0,
                }),
            },
        ));
        let out = h.run(&mut l2, 200);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::WbAck { .. })));
        // A second PutX (now stale — the line is Uncached) is nacked.
        l2.push_msg(msg_from_l1(
            &h,
            0,
            MsgPayload::PutX {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                dirty: false,
                ts: None,
            },
        ));
        let out = h.run(&mut l2, 200);
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::WbStale { .. })));
        assert!(h.errors.is_empty());
    }
}
