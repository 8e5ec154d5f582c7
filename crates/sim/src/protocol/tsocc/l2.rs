//! The TSO-CC shared L2 bank / directory.
//!
//! Unlike the MESI directory, the TSO-CC L2 keeps *no sharer lists*: it only
//! tracks the exclusive owner of a line (if any) and the last writer's
//! timestamp metadata, which it attaches to every data response so readers can
//! apply the acquire rule.  Reads of an exclusively owned line downgrade the
//! owner; writes recall it; Shared copies elsewhere are never invalidated —
//! this is the deliberate SWMR violation that makes TSO-CC an interesting
//! verification case study (paper §5.3).

use crate::cache::CacheArray;
use crate::config::SystemConfig;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload, TsInfo};
use crate::protocol::{earliest_release, release_due, L2Controller, LineTable, TickCtx};
use crate::system::ProtocolError;
use crate::types::{Cycle, LineAddr, LineData, NodeId};
use rand::Rng;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2State {
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

#[derive(Debug, Clone)]
struct L2Line {
    state: L2State,
    data: LineData,
    dirty: bool,
    owner: Option<usize>,
    ts: Option<TsInfo>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Trans {
    FetchForS { requestor: usize },
    FetchForX { requestor: usize },
    DownForS { requestor: usize },
    RecallForX { requestor: usize },
    EvictRecall,
}

impl Trans {
    fn name(&self) -> &'static str {
        match self {
            Trans::FetchForS { .. } => "U_S_Mem",
            Trans::FetchForX { .. } => "U_X_Mem",
            Trans::DownForS { .. } => "EX_S_Down",
            Trans::RecallForX { .. } => "EX_X_Recall",
            Trans::EvictRecall => "EX_Evict",
        }
    }
}

/// The TSO-CC L2 bank controller.
#[derive(Debug)]
pub struct TsoCcL2 {
    bank: usize,
    node: NodeId,
    cache: CacheArray<L2Line>,
    trans: LineTable<Trans>,
    /// Per-set count of outstanding memory fetches (`FetchForS`/`FetchForX`
    /// entries in `trans`), so [`Self::set_has_pending_fetch`] is O(1) instead
    /// of a scan over every in-flight transaction.  Maintained exclusively by
    /// [`Self::trans_insert`] / [`Self::trans_remove`].
    pending_fetches: Vec<u32>,
    requests: VecDeque<Msg>,
    responses: VecDeque<Msg>,
    pending_out: Vec<(Cycle, Msg)>,
}

impl TsoCcL2 {
    /// Creates the controller for L2 bank `bank`.
    pub fn new(bank: usize, cfg: &SystemConfig) -> Self {
        TsoCcL2 {
            bank,
            node: cfg.node_of_l2(bank),
            cache: CacheArray::new(cfg.l2_sets(), cfg.l2_ways, cfg.line_bytes),
            trans: LineTable::new(),
            pending_fetches: vec![0; cfg.l2_sets()],
            requests: VecDeque::new(),
            responses: VecDeque::new(),
            pending_out: Vec::new(),
        }
    }

    /// Number of resident lines (used by tests).
    pub fn resident_lines(&self) -> usize {
        self.cache.len()
    }

    fn send_response(&mut self, ctx: &mut TickCtx<'_>, dst: NodeId, payload: MsgPayload) {
        let latency = ctx
            .rng
            .gen_range(ctx.cfg.latency.l2_min..=ctx.cfg.latency.l2_max);
        self.pending_out
            .push((ctx.cycle + latency, Msg::new(self.node, dst, payload)));
    }

    fn send_forward(&mut self, ctx: &mut TickCtx<'_>, dst: NodeId, payload: MsgPayload) {
        let latency = ctx.cfg.latency.l2_min / 2;
        self.pending_out
            .push((ctx.cycle + latency, Msg::new(self.node, dst, payload)));
    }

    fn send_mem(&mut self, ctx: &mut TickCtx<'_>, payload: MsgPayload) {
        let latency = ctx.cfg.latency.l2_min / 2;
        self.pending_out.push((
            ctx.cycle + latency,
            Msg::new(self.node, ctx.cfg.node_of_memory(), payload),
        ));
    }

    fn is_fetch(trans: &Trans) -> bool {
        matches!(trans, Trans::FetchForS { .. } | Trans::FetchForX { .. })
    }

    /// Starts (or replaces) an in-flight transaction, keeping the per-set
    /// pending-fetch counters in sync.  A replacement may retire a fetch (the
    /// old entry counts down before the new one counts up).
    fn trans_insert(&mut self, line: LineAddr, trans: Trans) {
        let set = self.cache.set_index(line);
        if Self::is_fetch(&trans) {
            self.pending_fetches[set] += 1;
        }
        if let Some(old) = self.trans.insert(line, trans) {
            if Self::is_fetch(&old) {
                self.pending_fetches[set] = self.pending_fetches[set].saturating_sub(1);
            }
        }
    }

    /// Retires an in-flight transaction, keeping the per-set pending-fetch
    /// counters in sync.
    fn trans_remove(&mut self, line: LineAddr) -> Option<Trans> {
        let old = self.trans.remove(&line)?;
        if Self::is_fetch(&old) {
            let set = self.cache.set_index(line);
            self.pending_fetches[set] = self.pending_fetches[set].saturating_sub(1);
        }
        Some(old)
    }

    /// Returns `true` if a memory fetch is already outstanding for a line in
    /// the same cache set (the fetch has reserved the set's free way).
    fn set_has_pending_fetch(&self, line: LineAddr) -> bool {
        self.pending_fetches[self.cache.set_index(line)] > 0
    }

    fn make_room(&mut self, ctx: &mut TickCtx<'_>, line: LineAddr) -> bool {
        if !self.cache.needs_eviction(line) {
            return true;
        }
        let victim = self.cache.victim_for(line).expect("set full");
        if self.trans.contains_key(&victim) {
            return false;
        }
        let entry = self.cache.get(victim).expect("resident").clone();
        ctx.coverage
            .record(Transition::l2(entry.state.name(), "Replacement"));
        match entry.state {
            L2State::Uncached => {
                if entry.dirty {
                    self.send_mem(
                        ctx,
                        MsgPayload::MemWrite {
                            line: victim,
                            data: entry.data,
                        },
                    );
                }
                self.cache.remove(victim);
                true
            }
            L2State::Exclusive => {
                let owner = entry.owner.expect("exclusive line has owner");
                let dst = ctx.cfg.node_of_l1(owner);
                self.send_forward(ctx, dst, MsgPayload::Recall { line: victim });
                self.trans_insert(victim, Trans::EvictRecall);
                false
            }
        }
    }

    fn process_request(&mut self, ctx: &mut TickCtx<'_>, msg: &Msg) -> bool {
        let line = msg.payload.line();
        if self.trans.contains_key(&line) {
            return false;
        }
        let src_core = ctx.cfg.l1_index(msg.src);
        let resident = self.cache.get(line).map(|l| l.state);
        match (&msg.payload, resident) {
            (MsgPayload::GetS { .. }, Some(L2State::Uncached)) => {
                ctx.coverage.record(Transition::l2("U", "GetS"));
                let entry = self.cache.get_mut(line).expect("resident");
                let (data, ts) = (entry.data.clone(), entry.ts);
                self.send_response(ctx, msg.src, MsgPayload::DataS { line, data, ts });
                true
            }
            (MsgPayload::GetS { .. }, Some(L2State::Exclusive)) => {
                ctx.coverage.record(Transition::l2("EX", "GetS"));
                let requestor = src_core.expect("GetS from an L1");
                let owner = self.cache.get(line).and_then(|l| l.owner).expect("owner");
                if owner == requestor {
                    let entry = self.cache.get(line).expect("resident");
                    let (data, ts) = (entry.data.clone(), entry.ts);
                    self.send_response(ctx, msg.src, MsgPayload::DataX { line, data, ts });
                    return true;
                }
                let dst = ctx.cfg.node_of_l1(owner);
                self.send_forward(ctx, dst, MsgPayload::Downgrade { line });
                self.trans_insert(line, Trans::DownForS { requestor });
                true
            }
            (MsgPayload::GetS { .. }, None) => {
                ctx.coverage.record(Transition::l2("NP", "GetS"));
                if self.set_has_pending_fetch(line) || !self.make_room(ctx, line) {
                    return false;
                }
                let requestor = src_core.expect("GetS from an L1");
                self.trans_insert(line, Trans::FetchForS { requestor });
                self.send_mem(ctx, MsgPayload::MemRead { line });
                true
            }

            (MsgPayload::GetX { .. }, Some(L2State::Uncached)) => {
                ctx.coverage.record(Transition::l2("U", "GetX"));
                let requestor = src_core.expect("GetX from an L1");
                let entry = self.cache.get_mut(line).expect("resident");
                entry.state = L2State::Exclusive;
                entry.owner = Some(requestor);
                let (data, ts) = (entry.data.clone(), entry.ts);
                self.send_response(ctx, msg.src, MsgPayload::DataX { line, data, ts });
                true
            }
            (MsgPayload::GetX { .. }, Some(L2State::Exclusive)) => {
                ctx.coverage.record(Transition::l2("EX", "GetX"));
                let requestor = src_core.expect("GetX from an L1");
                let owner = self.cache.get(line).and_then(|l| l.owner).expect("owner");
                if owner == requestor {
                    let entry = self.cache.get(line).expect("resident");
                    let (data, ts) = (entry.data.clone(), entry.ts);
                    self.send_response(ctx, msg.src, MsgPayload::DataX { line, data, ts });
                    return true;
                }
                let dst = ctx.cfg.node_of_l1(owner);
                self.send_forward(ctx, dst, MsgPayload::Recall { line });
                self.trans_insert(line, Trans::RecallForX { requestor });
                true
            }
            (MsgPayload::GetX { .. }, None) => {
                ctx.coverage.record(Transition::l2("NP", "GetX"));
                if self.set_has_pending_fetch(line) || !self.make_room(ctx, line) {
                    return false;
                }
                let requestor = src_core.expect("GetX from an L1");
                self.trans_insert(line, Trans::FetchForX { requestor });
                self.send_mem(ctx, MsgPayload::MemRead { line });
                true
            }

            (
                MsgPayload::PutX {
                    data, dirty, ts, ..
                },
                Some(L2State::Exclusive),
            ) if self.cache.get(line).and_then(|l| l.owner) == src_core && src_core.is_some() => {
                ctx.coverage.record(Transition::l2("EX", "PutX"));
                let entry = self.cache.get_mut(line).expect("resident");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                    entry.ts = *ts;
                }
                entry.state = L2State::Uncached;
                entry.owner = None;
                self.send_response(ctx, msg.src, MsgPayload::WbAck { line });
                true
            }
            (MsgPayload::PutX { .. }, state) => {
                let state_name = state.map_or("NP", |s| s.name());
                ctx.coverage.record(Transition::l2(state_name, "PutXStale"));
                self.send_response(ctx, msg.src, MsgPayload::WbStale { line });
                true
            }

            (payload, state) => {
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("TSO-CC L2[{}]", self.bank),
                    line,
                    state.map_or("NP", |s| s.name()),
                    payload.event_name(),
                ));
                true
            }
        }
    }

    fn process_response(&mut self, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        let Some(trans) = self.trans.get(&line).cloned() else {
            ctx.errors.push(ProtocolError::invalid_transition(
                ctx.cycle,
                format!("TSO-CC L2[{}]", self.bank),
                line,
                "no-transaction",
                msg.payload.event_name(),
            ));
            return;
        };
        match (&msg.payload, trans) {
            (MsgPayload::MemData { data, .. }, Trans::FetchForS { requestor }) => {
                ctx.coverage.record(Transition::l2("U_S_Mem", "MemData"));
                self.trans_remove(line);
                self.cache.insert(
                    line,
                    L2Line {
                        state: L2State::Uncached,
                        data: data.clone(),
                        dirty: false,
                        owner: None,
                        ts: None,
                    },
                );
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataS {
                        line,
                        data: data.clone(),
                        ts: None,
                    },
                );
            }
            (MsgPayload::MemData { data, .. }, Trans::FetchForX { requestor }) => {
                ctx.coverage.record(Transition::l2("U_X_Mem", "MemData"));
                self.trans_remove(line);
                self.cache.insert(
                    line,
                    L2Line {
                        state: L2State::Exclusive,
                        data: data.clone(),
                        dirty: false,
                        owner: Some(requestor),
                        ts: None,
                    },
                );
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataX {
                        line,
                        data: data.clone(),
                        ts: None,
                    },
                );
            }
            (
                MsgPayload::WbData {
                    data, dirty, ts, ..
                },
                Trans::DownForS { requestor },
            ) => {
                ctx.coverage.record(Transition::l2("EX_S_Down", "WbData"));
                self.trans_remove(line);
                let entry = self.cache.get_mut(line).expect("resident");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                }
                if ts.is_some() {
                    entry.ts = *ts;
                }
                entry.state = L2State::Uncached;
                entry.owner = None;
                let (out_data, out_ts) = (entry.data.clone(), entry.ts);
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataS {
                        line,
                        data: out_data,
                        ts: out_ts,
                    },
                );
            }
            (
                MsgPayload::WbData {
                    data, dirty, ts, ..
                },
                Trans::RecallForX { requestor },
            ) => {
                ctx.coverage.record(Transition::l2("EX_X_Recall", "WbData"));
                self.trans_remove(line);
                let entry = self.cache.get_mut(line).expect("resident");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                }
                if ts.is_some() {
                    entry.ts = *ts;
                }
                entry.state = L2State::Exclusive;
                entry.owner = Some(requestor);
                let (out_data, out_ts) = (entry.data.clone(), entry.ts);
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataX {
                        line,
                        data: out_data,
                        ts: out_ts,
                    },
                );
            }
            (MsgPayload::WbData { data, dirty, .. }, Trans::EvictRecall) => {
                ctx.coverage.record(Transition::l2("EX_Evict", "WbData"));
                self.trans_remove(line);
                let entry = self.cache.remove(line).expect("resident");
                if *dirty {
                    self.send_mem(
                        ctx,
                        MsgPayload::MemWrite {
                            line,
                            data: data.clone(),
                        },
                    );
                } else if entry.dirty {
                    self.send_mem(
                        ctx,
                        MsgPayload::MemWrite {
                            line,
                            data: entry.data,
                        },
                    );
                }
            }
            (payload, trans) => {
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("TSO-CC L2[{}]", self.bank),
                    line,
                    trans.name(),
                    payload.event_name(),
                ));
            }
        }
    }
}

impl L2Controller for TsoCcL2 {
    fn push_msg(&mut self, msg: Msg) {
        match msg.payload.vnet() {
            crate::msg::VirtualNetwork::Request => self.requests.push_back(msg),
            _ => self.responses.push_back(msg),
        }
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>, out: &mut Vec<Msg>) -> bool {
        let queued = self.pending_out.len();
        // Responses first: they unblock transactions and are never stalled.
        let mut progress = !self.responses.is_empty();
        while let Some(msg) = self.responses.pop_front() {
            self.process_response(ctx, msg);
        }
        // Requests: head-of-line blocking per bank.  The head is taken out
        // while it is processed and put back if it must stall, so a blocked
        // request costs no copy of its payload.
        let mut budget = 8usize;
        while budget > 0 {
            let Some(msg) = self.requests.pop_front() else {
                break;
            };
            if self.process_request(ctx, &msg) {
                budget -= 1;
                progress = true;
            } else {
                self.requests.push_front(msg);
                break;
            }
        }
        // A stalled request may still have started an eviction.
        progress |= self.pending_out.len() != queued;
        // Release delayed outgoing messages.
        progress |= release_due(&mut self.pending_out, ctx.cycle, out);
        progress
    }

    fn next_release(&self) -> Option<Cycle> {
        earliest_release(&self.pending_out)
    }

    fn is_idle(&self) -> bool {
        self.trans.is_empty()
            && self.requests.is_empty()
            && self.responses.is_empty()
            && self.pending_out.is_empty()
    }

    fn hard_reset(&mut self) {
        self.cache.drain_all();
        self.trans.clear();
        self.pending_fetches.fill(0);
        self.requests.clear();
        self.responses.clear();
        self.pending_out.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugConfig;
    use crate::config::ProtocolKind;
    use crate::coverage::CoverageRecorder;
    use crate::protocol::{TickCoverage, TickLog};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Harness {
        cfg: SystemConfig,
        bugs: BugConfig,
        coverage: CoverageRecorder,
        rng: StdRng,
        errors: Vec<ProtocolError>,
        log: TickLog,
        cycle: Cycle,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                cfg: SystemConfig::small(ProtocolKind::TsoCc),
                bugs: BugConfig::none(),
                coverage: CoverageRecorder::new(),
                rng: StdRng::seed_from_u64(11),
                errors: Vec::new(),
                log: TickLog::default(),
                cycle: 0,
            }
        }

        fn tick(&mut self, l2: &mut TsoCcL2, out: &mut Vec<Msg>) -> bool {
            self.cycle += 1;
            let mut ctx = TickCtx {
                cycle: self.cycle,
                cfg: &self.cfg,
                bugs: &self.bugs,
                coverage: TickCoverage::new(&mut self.coverage, &mut self.log),
                rng: &mut self.rng,
                errors: &mut self.errors,
            };
            l2.tick(&mut ctx, out)
        }

        fn run(&mut self, l2: &mut TsoCcL2, cycles: u64) -> Vec<Msg> {
            let mut out = Vec::new();
            for _ in 0..cycles {
                self.tick(l2, &mut out);
            }
            out
        }
    }

    fn msg_from_l1(h: &Harness, core: usize, payload: MsgPayload) -> Msg {
        Msg::new(h.cfg.node_of_l1(core), h.cfg.node_of_l2(0), payload)
    }

    #[test]
    fn gets_miss_fetches_and_serves_shared() {
        let mut h = Harness::new();
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
        let mut h = Harness::new();
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
        let mut h = Harness::new();
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
    fn a_stalled_tick_is_inert_but_starting_an_eviction_is_progress() {
        let mut h = Harness::new();
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
        let before = recorded(&h);
        // The set is full of owned lines: the request stalls, but the recall
        // it queues for the victim is a state change.
        let extra = line(h.cfg.l2_ways as u64);
        l2.push_msg(msg_from_l1(&h, 1, MsgPayload::GetS { line: extra }));
        let mut out = Vec::new();
        assert!(h.tick(&mut l2, &mut out), "queued a recall");
        assert_eq!(recorded(&h), (before.0 + 1, before.1 + 1));
        let release = l2.next_release().expect("the recall is waiting");
        // Until the recall is released every tick retries the request,
        // records the same transition and changes nothing.
        while h.cycle + 1 < release {
            let retried = recorded(&h);
            assert!(!h.tick(&mut l2, &mut out), "cycle {}", h.cycle);
            assert_eq!(recorded(&h), (retried.0 + 1, retried.1));
            assert_eq!(l2.next_release(), Some(release));
            assert!(out.is_empty());
        }
        assert!(h.tick(&mut l2, &mut out), "released the recall");
        assert!(matches!(
            out[..],
            [Msg {
                payload: MsgPayload::Recall { .. },
                ..
            }]
        ));
        assert_eq!(l2.next_release(), None);
        assert!(!h.tick(&mut l2, &mut out), "still waiting for the owner");
    }

    #[test]
    fn putx_from_owner_accepted_and_stale_putx_nacked() {
        let mut h = Harness::new();
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
