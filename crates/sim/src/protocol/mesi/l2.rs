//! The MESI shared L2 bank (inclusive blocking directory).
//!
//! Stable states per resident line: `SS` (present, zero or more L1 sharers)
//! and `MT` (owned exclusively by one L1).  Lines not resident are `NP` (data
//! lives in memory).  The directory is *blocking*: while a transaction on a
//! line is in flight (fetch from memory, invalidation collection, forward to
//! owner, eviction), further requests for that line stall in the request
//! queue; responses are never stalled.
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

use crate::bugs::Bug;
use crate::cache::CacheArray;
use crate::config::SystemConfig;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload};
use crate::protocol::{earliest_release, release_due, L2Controller, LineTable, TickCtx};
use crate::system::ProtocolError;
use crate::types::{Cycle, LineAddr, LineData, NodeId};
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};

/// Stable directory states of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2State {
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

#[derive(Debug, Clone)]
struct L2Line {
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

/// In-flight directory transaction states.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trans {
    /// Fetching from memory to satisfy a GetS.
    FetchForS { requestor: usize },
    /// Fetching from memory to satisfy a GetX.
    FetchForX { requestor: usize },
    /// Collecting invalidation acks to satisfy a GetX.
    InvForX { requestor: usize, acks_left: usize },
    /// Waiting for the owner's data to satisfy a GetS.
    FwdForS { requestor: usize },
    /// Waiting for the owner's data to satisfy a GetX.
    FwdForX { requestor: usize },
    /// Evicting a Shared line: collecting invalidation acks.
    EvictInv { acks_left: usize },
    /// Evicting an owned line: waiting for the owner's recall data.
    EvictRecall,
}

impl Trans {
    fn name(&self) -> &'static str {
        match self {
            Trans::FetchForS { .. } => "I_S_Mem",
            Trans::FetchForX { .. } => "I_X_Mem",
            Trans::InvForX { .. } => "SS_X_Inv",
            Trans::FwdForS { .. } => "MT_S_Fwd",
            Trans::FwdForX { .. } => "MT_X_Fwd",
            Trans::EvictInv { .. } => "SS_Evict",
            Trans::EvictRecall => "MT_Evict",
        }
    }
}

/// The MESI L2 bank controller.
#[derive(Debug)]
pub struct MesiL2 {
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

impl MesiL2 {
    /// Creates the controller for L2 bank `bank`.
    pub fn new(bank: usize, cfg: &SystemConfig) -> Self {
        MesiL2 {
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

    fn core_of(&self, node: NodeId, cfg: &SystemConfig) -> Option<usize> {
        cfg.l1_index(node)
    }

    fn send_response(&mut self, ctx: &mut TickCtx<'_>, dst: NodeId, payload: MsgPayload) {
        let latency = ctx
            .rng
            .gen_range(ctx.cfg.latency.l2_min..=ctx.cfg.latency.l2_max);
        self.pending_out
            .push((ctx.cycle + latency, Msg::new(self.node, dst, payload)));
    }

    fn send_forward(&mut self, ctx: &mut TickCtx<'_>, dst: NodeId, payload: MsgPayload) {
        // Control messages take only the tag-lookup portion of the bank
        // latency.
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
    /// the same cache set.  Such a fetch has reserved the set's free way, so
    /// further allocations into the set must wait (otherwise the data arriving
    /// from memory would find the set full again).
    fn set_has_pending_fetch(&self, line: LineAddr) -> bool {
        self.pending_fetches[self.cache.set_index(line)] > 0
    }

    /// Attempts to start an eviction to make room for `line`.  Returns `true`
    /// if a way is free (the caller may allocate), `false` if it must retry
    /// later (an eviction is now, or was already, in flight).
    fn make_room(&mut self, ctx: &mut TickCtx<'_>, line: LineAddr) -> bool {
        if !self.cache.needs_eviction(line) {
            return true;
        }
        let victim = self.cache.victim_for(line).expect("set full");
        if self.trans.contains_key(&victim) {
            // Already evicting (or otherwise busy); wait.
            return false;
        }
        let entry = self.cache.get(victim).expect("victim resident").clone();
        ctx.coverage
            .record(Transition::l2(entry.state.name(), "Replacement"));
        match entry.state {
            L2State::Shared => {
                let sharers: Vec<usize> = entry.sharers.iter().copied().collect();
                if sharers.is_empty() {
                    if entry.dirty {
                        self.send_mem(
                            ctx,
                            MsgPayload::MemWrite {
                                line: victim,
                                data: entry.data.clone(),
                            },
                        );
                    }
                    self.cache.remove(victim);
                    // A way is free immediately.
                    return true;
                }
                for s in &sharers {
                    let dst = ctx.cfg.node_of_l1(*s);
                    self.send_forward(ctx, dst, MsgPayload::Inv { line: victim });
                }
                self.trans_insert(
                    victim,
                    Trans::EvictInv {
                        acks_left: sharers.len(),
                    },
                );
                false
            }
            L2State::Owned => {
                let owner = entry.owner.expect("owned line has owner");
                let dst = ctx.cfg.node_of_l1(owner);
                self.send_forward(ctx, dst, MsgPayload::Recall { line: victim });
                self.trans_insert(victim, Trans::EvictRecall);
                false
            }
        }
    }

    /// Processes one request message.  Returns `false` if it must stall.
    fn process_request(&mut self, ctx: &mut TickCtx<'_>, msg: &Msg) -> bool {
        let line = msg.payload.line();
        if self.trans.contains_key(&line) {
            // Blocking directory: the line is busy.
            return false;
        }
        let src_core = self.core_of(msg.src, ctx.cfg);
        let resident = self.cache.get(line).map(|l| l.state);
        match (&msg.payload, resident) {
            // ---------------- GetS ----------------
            (MsgPayload::GetS { .. }, Some(L2State::Shared)) => {
                ctx.coverage.record(Transition::l2("SS", "GetS"));
                let requestor = src_core.expect("GetS comes from an L1");
                let entry = self.cache.get_mut(line).expect("resident");
                if entry.sharers.is_empty() {
                    // No other copies: grant Exclusive (clean); the owner may
                    // silently modify it, which the directory will not know
                    // about (dirty_expected = false) — the precondition of the
                    // Replace-Race bug.
                    entry.state = L2State::Owned;
                    entry.owner = Some(requestor);
                    entry.dirty_expected = false;
                    let data = entry.data.clone();
                    self.send_response(
                        ctx,
                        msg.src,
                        MsgPayload::DataE {
                            line,
                            data,
                            ts: None,
                        },
                    );
                } else {
                    entry.sharers.insert(requestor);
                    let data = entry.data.clone();
                    self.send_response(
                        ctx,
                        msg.src,
                        MsgPayload::DataS {
                            line,
                            data,
                            ts: None,
                        },
                    );
                }
                true
            }
            (MsgPayload::GetS { .. }, Some(L2State::Owned)) => {
                ctx.coverage.record(Transition::l2("MT", "GetS"));
                let requestor = src_core.expect("GetS comes from an L1");
                let owner = self.cache.get(line).and_then(|l| l.owner).expect("owner");
                if owner == requestor {
                    // The owner re-requesting: grant exclusive again from the
                    // L2 copy (defensive; should not occur with a correct L1).
                    let data = self.cache.get(line).expect("resident").data.clone();
                    self.send_response(
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
                self.send_forward(ctx, dst, MsgPayload::FwdGetS { line });
                self.trans_insert(line, Trans::FwdForS { requestor });
                true
            }
            (MsgPayload::GetS { .. }, None) => {
                ctx.coverage.record(Transition::l2("NP", "GetS"));
                if self.set_has_pending_fetch(line) || !self.make_room(ctx, line) {
                    return false;
                }
                let requestor = src_core.expect("GetS comes from an L1");
                self.trans_insert(line, Trans::FetchForS { requestor });
                self.send_mem(ctx, MsgPayload::MemRead { line });
                true
            }

            // ---------------- GetX ----------------
            (MsgPayload::GetX { .. }, Some(L2State::Shared)) => {
                ctx.coverage.record(Transition::l2("SS", "GetX"));
                let requestor = src_core.expect("GetX comes from an L1");
                let entry = self.cache.get_mut(line).expect("resident");
                let others: Vec<usize> = entry
                    .sharers
                    .iter()
                    .copied()
                    .filter(|&s| s != requestor)
                    .collect();
                if others.is_empty() {
                    entry.state = L2State::Owned;
                    entry.owner = Some(requestor);
                    entry.sharers.clear();
                    entry.dirty_expected = true;
                    let data = entry.data.clone();
                    self.send_response(
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
                        self.send_forward(ctx, dst, MsgPayload::Inv { line });
                    }
                    self.trans_insert(
                        line,
                        Trans::InvForX {
                            requestor,
                            acks_left: others.len(),
                        },
                    );
                }
                true
            }
            (MsgPayload::GetX { .. }, Some(L2State::Owned)) => {
                ctx.coverage.record(Transition::l2("MT", "GetX"));
                let requestor = src_core.expect("GetX comes from an L1");
                let owner = self.cache.get(line).and_then(|l| l.owner).expect("owner");
                if owner == requestor {
                    let data = self.cache.get(line).expect("resident").data.clone();
                    self.send_response(
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
                self.send_forward(ctx, dst, MsgPayload::FwdGetX { line });
                self.trans_insert(line, Trans::FwdForX { requestor });
                true
            }
            (MsgPayload::GetX { .. }, None) => {
                ctx.coverage.record(Transition::l2("NP", "GetX"));
                if self.set_has_pending_fetch(line) || !self.make_room(ctx, line) {
                    return false;
                }
                let requestor = src_core.expect("GetX comes from an L1");
                self.trans_insert(line, Trans::FetchForX { requestor });
                self.send_mem(ctx, MsgPayload::MemRead { line });
                true
            }

            // ---------------- PutX ----------------
            (MsgPayload::PutX { data, dirty, .. }, Some(L2State::Owned))
                if src_core.is_some() && self.cache.get(line).and_then(|l| l.owner) == src_core =>
            {
                ctx.coverage.record(Transition::l2("MT", "PutX"));
                let entry = self.cache.get_mut(line).expect("resident");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                }
                entry.state = L2State::Shared;
                entry.owner = None;
                entry.sharers.clear();
                entry.dirty_expected = false;
                self.send_response(ctx, msg.src, MsgPayload::WbAck { line });
                true
            }
            (MsgPayload::PutX { .. }, state) => {
                // Writeback from a core that is not (or is no longer) the
                // owner: the late-PUTX race.  The correct design acknowledges
                // it as stale; the injected bug treats it as an invalid
                // transition, as Ruby did.
                let state_name = state.map_or("NP", |s| s.name());
                if ctx.bugs.has(Bug::MesiPutxRace) {
                    ctx.errors.push(ProtocolError::invalid_transition(
                        ctx.cycle,
                        format!("L2[{}]", self.bank),
                        line,
                        state_name,
                        "PutX",
                    ));
                    return true;
                }
                ctx.coverage.record(Transition::l2(state_name, "PutXStale"));
                self.send_response(ctx, msg.src, MsgPayload::WbStale { line });
                true
            }

            (payload, state) => {
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("L2[{}]", self.bank),
                    line,
                    state.map_or("NP", |s| s.name()),
                    payload.event_name(),
                ));
                true
            }
        }
    }

    /// Processes one response message (never stalled).
    fn process_response(&mut self, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        let Some(trans) = self.trans.get(&line).cloned() else {
            ctx.errors.push(ProtocolError::invalid_transition(
                ctx.cycle,
                format!("L2[{}]", self.bank),
                line,
                "no-transaction",
                msg.payload.event_name(),
            ));
            return;
        };
        let event = msg.payload.event_name();
        match (&msg.payload, trans) {
            // ---- Memory data for fetches ----
            (MsgPayload::MemData { data, .. }, Trans::FetchForS { requestor }) => {
                ctx.coverage.record(Transition::l2("I_S_Mem", "MemData"));
                self.trans_remove(line);
                self.cache.insert(
                    line,
                    L2Line {
                        state: L2State::Owned,
                        data: data.clone(),
                        dirty: false,
                        sharers: BTreeSet::new(),
                        owner: Some(requestor),
                        dirty_expected: false,
                    },
                );
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataE {
                        line,
                        data: data.clone(),
                        ts: None,
                    },
                );
            }
            (MsgPayload::MemData { data, .. }, Trans::FetchForX { requestor }) => {
                ctx.coverage.record(Transition::l2("I_X_Mem", "MemData"));
                self.trans_remove(line);
                self.cache.insert(
                    line,
                    L2Line {
                        state: L2State::Owned,
                        data: data.clone(),
                        dirty: false,
                        sharers: BTreeSet::new(),
                        owner: Some(requestor),
                        dirty_expected: true,
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
                    self.trans_insert(
                        line,
                        Trans::InvForX {
                            requestor,
                            acks_left: acks_left - 1,
                        },
                    );
                } else {
                    self.trans_remove(line);
                    let entry = self.cache.get_mut(line).expect("resident during InvForX");
                    entry.state = L2State::Owned;
                    entry.owner = Some(requestor);
                    entry.sharers.clear();
                    entry.dirty_expected = true;
                    let data = entry.data.clone();
                    let dst = ctx.cfg.node_of_l1(requestor);
                    self.send_response(
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
                    self.trans_insert(
                        line,
                        Trans::EvictInv {
                            acks_left: acks_left - 1,
                        },
                    );
                } else {
                    self.trans_remove(line);
                    let entry = self.cache.remove(line).expect("resident during eviction");
                    if entry.dirty {
                        self.send_mem(
                            ctx,
                            MsgPayload::MemWrite {
                                line,
                                data: entry.data,
                            },
                        );
                    }
                }
            }

            // ---- Owner writeback data for forwards ----
            (MsgPayload::WbData { data, dirty, .. }, Trans::FwdForS { requestor }) => {
                ctx.coverage.record(Transition::l2("MT_S_Fwd", "WbData"));
                self.trans_remove(line);
                let old_owner = self.cache.get(line).and_then(|l| l.owner);
                let entry = self.cache.get_mut(line).expect("resident during FwdForS");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                }
                entry.state = L2State::Shared;
                entry.owner = None;
                entry.sharers.clear();
                if let Some(o) = old_owner {
                    entry.sharers.insert(o);
                }
                entry.sharers.insert(requestor);
                entry.dirty_expected = false;
                let out_data = entry.data.clone();
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataS {
                        line,
                        data: out_data,
                        ts: None,
                    },
                );
            }
            (MsgPayload::WbData { data, dirty, .. }, Trans::FwdForX { requestor }) => {
                ctx.coverage.record(Transition::l2("MT_X_Fwd", "WbData"));
                self.trans_remove(line);
                let entry = self.cache.get_mut(line).expect("resident during FwdForX");
                if *dirty {
                    entry.data = data.clone();
                    entry.dirty = true;
                }
                entry.state = L2State::Owned;
                entry.owner = Some(requestor);
                entry.sharers.clear();
                entry.dirty_expected = true;
                let out_data = entry.data.clone();
                let dst = ctx.cfg.node_of_l1(requestor);
                self.send_response(
                    ctx,
                    dst,
                    MsgPayload::DataX {
                        line,
                        data: out_data,
                        ts: None,
                    },
                );
            }
            (MsgPayload::WbData { data, dirty, .. }, Trans::EvictRecall) => {
                ctx.coverage.record(Transition::l2("MT_Evict", "WbData"));
                self.trans_remove(line);
                let entry = self.cache.remove(line).expect("resident during eviction");
                let drop_dirty_data = ctx.bugs.has(Bug::MesiReplaceRace) && !entry.dirty_expected;
                if *dirty && !drop_dirty_data {
                    self.send_mem(
                        ctx,
                        MsgPayload::MemWrite {
                            line,
                            data: data.clone(),
                        },
                    );
                } else if entry.dirty && !drop_dirty_data {
                    self.send_mem(
                        ctx,
                        MsgPayload::MemWrite {
                            line,
                            data: entry.data,
                        },
                    );
                }
                // With the Replace-Race bug and an unexpectedly dirty block,
                // the modified data is silently lost.
            }

            (payload, trans) => {
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("L2[{}]", self.bank),
                    line,
                    trans.name(),
                    payload.event_name(),
                ));
                let _ = event;
            }
        }
    }
}

impl L2Controller for MesiL2 {
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
        fn new(bugs: BugConfig) -> Self {
            Harness {
                cfg: SystemConfig::small(ProtocolKind::Mesi),
                bugs,
                coverage: CoverageRecorder::new(),
                rng: StdRng::seed_from_u64(3),
                errors: Vec::new(),
                log: TickLog::default(),
                cycle: 0,
            }
        }

        fn tick(&mut self, l2: &mut MesiL2, out: &mut Vec<Msg>) -> bool {
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

        fn run(&mut self, l2: &mut MesiL2, cycles: u64) -> Vec<Msg> {
            let mut out = Vec::new();
            for _ in 0..cycles {
                self.tick(l2, &mut out);
            }
            out
        }
    }

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
        let mut h = Harness::new(BugConfig::none());
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
        let mut h = Harness::new(BugConfig::none());
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
        let mut h = Harness::new(BugConfig::none());
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
        let mut h = Harness::new(BugConfig::none());
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
            let mut h = Harness::new(bugs);
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
            let mut h = Harness::new(bugs);
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
        let mut h = Harness::new(BugConfig::none());
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
    fn a_stalled_tick_is_inert_but_starting_an_eviction_is_progress() {
        let mut h = Harness::new(BugConfig::none());
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
        let before = recorded(&h);
        // The set is full of owned lines: the request stalls, but the recall
        // it queues for the victim is a state change.
        l2.push_msg(gets(&h, 1, 0x1000 + h.cfg.l2_ways as u64 * stride));
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
    fn hard_reset_clears_state() {
        let mut h = Harness::new(BugConfig::none());
        let mut l2 = MesiL2::new(0, &h.cfg);
        l2.push_msg(gets(&h, 0, 0x1000));
        h.run(&mut l2, 10);
        assert!(!l2.is_idle());
        l2.hard_reset();
        assert!(l2.is_idle());
        assert_eq!(l2.resident_lines(), 0);
    }
}
