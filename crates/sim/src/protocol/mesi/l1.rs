//! The MESI private L1 cache controller.
//!
//! Stable states: `I` (not present), `S`, `E`, `M`.  Transient states (one
//! MSHR per line): `IS` (GetS outstanding), `IS_I` (GetS outstanding, an
//! invalidation was sunk while waiting), `IM` (GetX outstanding from I), `SM`
//! (GetX outstanding from S), `MI` (writeback outstanding).
//!
//! The controller forwards a *load-queue notice* to the core whenever the core
//! loses read permission on a line: external invalidation, ownership-stripping
//! forward, recall, replacement, flush, or stale data delivered in `IS_I`.
//! Four of the paper's bugs ([`Bug::MesiLqIsInv`], [`Bug::MesiLqSmInv`],
//! [`Bug::MesiLqEInv`], [`Bug::MesiLqMInv`]) and the replacement bug
//! ([`Bug::MesiLqSReplacement`]) suppress this notice on specific transitions.
//!
//! [`Bug::MesiLqIsInv`]: crate::bugs::Bug::MesiLqIsInv
//! [`Bug::MesiLqSmInv`]: crate::bugs::Bug::MesiLqSmInv
//! [`Bug::MesiLqEInv`]: crate::bugs::Bug::MesiLqEInv
//! [`Bug::MesiLqMInv`]: crate::bugs::Bug::MesiLqMInv
//! [`Bug::MesiLqSReplacement`]: crate::bugs::Bug::MesiLqSReplacement

use crate::bugs::Bug;
use crate::cache::CacheArray;
use crate::config::SystemConfig;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload};
use crate::protocol::{
    earliest_release, release_due, CoreReqKind, CoreRequest, CoreRespKind, CoreResponse,
    L1Controller, L1Output, LineTable, TickCtx,
};
use crate::system::ProtocolError;
use crate::types::{Cycle, LineAddr, LineData, NodeId};
use mcversi_telemetry as telemetry;
use std::collections::VecDeque;

/// Core requests served from a resident line with sufficient permission.
static L1_HITS: telemetry::Counter = telemetry::Counter::new("sim.l1.mesi.hit");
/// Core requests needing a coherence transaction (fill or upgrade).
static L1_MISSES: telemetry::Counter = telemetry::Counter::new("sim.l1.mesi.miss");

/// Stable states of a resident L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    Shared,
    Exclusive,
    Modified,
}

impl L1State {
    fn name(self) -> &'static str {
        match self {
            L1State::Shared => "S",
            L1State::Exclusive => "E",
            L1State::Modified => "M",
        }
    }
}

/// A resident L1 line.
#[derive(Debug, Clone)]
struct L1Line {
    state: L1State,
    data: LineData,
    dirty: bool,
}

/// Transient (MSHR) states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transient {
    /// GetS outstanding.
    IS,
    /// GetS outstanding, invalidation sunk while waiting.
    IsI,
    /// GetX outstanding (from I).
    IM,
    /// GetX outstanding (from S, line still resident until invalidated).
    SM,
    /// PutX outstanding.
    MI,
}

impl Transient {
    fn name(self) -> &'static str {
        match self {
            Transient::IS => "IS",
            Transient::IsI => "IS_I",
            Transient::IM => "IM",
            Transient::SM => "SM",
            Transient::MI => "MI",
        }
    }
}

/// A core operation waiting on an outstanding transaction.
#[derive(Debug, Clone, Copy)]
struct PendingOp {
    tag: u64,
    word: usize,
    kind: CoreReqKind,
}

/// An outstanding transaction (one per line).
#[derive(Debug)]
struct Mshr {
    tstate: Transient,
    pending: Vec<PendingOp>,
    /// Forwards/invalidations received before the data arrived; replayed once
    /// the line is installed.
    deferred: Vec<Msg>,
    /// For MI: the data being written back (needed to answer forwards that
    /// race with the writeback).
    wb_data: Option<(LineData, bool)>,
    /// Flush requests waiting for the writeback acknowledgement.
    pending_flush: Vec<u64>,
}

impl Mshr {
    fn new(tstate: Transient) -> Self {
        Mshr {
            tstate,
            pending: Vec::new(),
            deferred: Vec::new(),
            wb_data: None,
            pending_flush: Vec::new(),
        }
    }
}

/// The MESI L1 controller for one core.
#[derive(Debug)]
pub struct MesiL1 {
    core: usize,
    node: NodeId,
    cache: CacheArray<L1Line>,
    mshrs: LineTable<Mshr>,
    core_requests: VecDeque<CoreRequest>,
    msg_inbox: VecDeque<Msg>,
    ready_responses: Vec<(Cycle, CoreResponse)>,
    line_bytes: u64,
}

impl MesiL1 {
    /// Creates the L1 for core `core`.
    pub fn new(core: usize, cfg: &SystemConfig) -> Self {
        MesiL1 {
            core,
            node: cfg.node_of_l1(core),
            cache: CacheArray::new(cfg.l1_sets(), cfg.l1_ways, cfg.line_bytes),
            mshrs: LineTable::new(),
            core_requests: VecDeque::new(),
            msg_inbox: VecDeque::new(),
            ready_responses: Vec::new(),
            line_bytes: cfg.line_bytes,
        }
    }

    /// Number of resident lines (used by tests).
    pub fn resident_lines(&self) -> usize {
        self.cache.len()
    }

    fn home_bank(&self, cfg: &SystemConfig, line: LineAddr) -> NodeId {
        cfg.node_of_l2(cfg.bank_of_line(line))
    }

    fn line_of(&self, addr: mcversi_mcm::Address) -> (LineAddr, usize) {
        let line = LineAddr::containing(addr, self.line_bytes);
        let word = line.word_index(addr, self.line_bytes);
        (line, word)
    }

    fn respond(&mut self, ctx: &TickCtx<'_>, tag: u64, kind: CoreRespKind) {
        self.ready_responses.push((
            ctx.cycle + ctx.cfg.latency.l1_hit,
            CoreResponse { tag, kind },
        ));
    }

    /// Emits an LQ notice unless the bug governing this (state, event) pair is
    /// injected.
    fn notify_lq(
        &self,
        out: &mut L1Output,
        ctx: &TickCtx<'_>,
        line: LineAddr,
        suppressed_by: Option<Bug>,
    ) {
        if let Some(bug) = suppressed_by {
            if ctx.bugs.has(bug) {
                return;
            }
        }
        out.lq_notices.push(line);
    }

    /// Evicts a resident line, producing the writeback transaction if needed.
    /// Returns `true` if the line was (or is being) evicted.
    fn evict_line(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        reason: &'static str,
    ) -> bool {
        let Some(entry) = self.cache.get(line) else {
            return true;
        };
        let state = entry.state;
        ctx.coverage.record(Transition::l1(state.name(), reason));
        match state {
            L1State::Shared => {
                // Silent drop; the directory keeps a stale sharer entry and a
                // later Inv is simply acknowledged from I.
                self.cache.remove(line);
                let bug = if reason == "Replacement" || reason == "Flush" {
                    Some(Bug::MesiLqSReplacement)
                } else {
                    None
                };
                self.notify_lq(out, ctx, line, bug);
                true
            }
            L1State::Exclusive | L1State::Modified => {
                let entry = self.cache.remove(line).expect("checked resident");
                let dirty = entry.dirty || state == L1State::Modified;
                let mut mshr = Mshr::new(Transient::MI);
                mshr.wb_data = Some((entry.data.clone(), dirty));
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::PutX {
                        line,
                        data: entry.data,
                        dirty,
                        ts: None,
                    },
                ));
                // Losing the line means later invalidations for it can no
                // longer be observed; the LQ must be told (never a bug point
                // for E/M in the paper's set).
                self.notify_lq(out, ctx, line, None);
                true
            }
        }
    }

    /// Makes room for `line` if its set is full.  Returns `false` if the
    /// victim is itself in a transaction (caller must retry later).
    fn make_room(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, line: LineAddr) -> bool {
        if !self.cache.needs_eviction(line) {
            return true;
        }
        let victim = self.cache.victim_for(line).expect("set is full");
        if self.mshrs.contains_key(&victim) {
            return false;
        }
        self.evict_line(out, ctx, victim, "Replacement")
    }

    /// Attempts to process one core request.  Returns `false` if the request
    /// must stall (left at the head of the queue).
    fn process_core_request(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        req: CoreRequest,
    ) -> bool {
        let (line, word) = self.line_of(req.addr);

        // Attach to an existing transaction when possible.
        if let Some(mshr) = self.mshrs.get_mut(&line) {
            match (mshr.tstate, req.kind) {
                (
                    Transient::IS | Transient::IsI | Transient::IM | Transient::SM,
                    CoreReqKind::Load,
                ) => {
                    mshr.pending.push(PendingOp {
                        tag: req.tag,
                        word,
                        kind: req.kind,
                    });
                    return true;
                }
                (
                    Transient::IM | Transient::SM,
                    CoreReqKind::Store { .. } | CoreReqKind::Rmw { .. },
                ) => {
                    mshr.pending.push(PendingOp {
                        tag: req.tag,
                        word,
                        kind: req.kind,
                    });
                    return true;
                }
                // Everything else waits for the transaction to finish.
                _ => return false,
            }
        }

        let resident_state = self.cache.get(line).map(|l| l.state);
        match (req.kind, resident_state) {
            // ---- Loads ----
            (CoreReqKind::Load, Some(state)) => {
                ctx.coverage.record(Transition::l1(state.name(), "Load"));
                L1_HITS.incr();
                let value = self.cache.get_mut(line).expect("resident").data.word(word);
                self.respond(ctx, req.tag, CoreRespKind::LoadDone { value });
                true
            }
            (CoreReqKind::Load, None) => {
                ctx.coverage.record(Transition::l1("I", "Load"));
                ctx.count_on_stall_path(&L1_MISSES);
                if !self.make_room(out, ctx, line) {
                    return false;
                }
                let mut mshr = Mshr::new(Transient::IS);
                mshr.pending.push(PendingOp {
                    tag: req.tag,
                    word,
                    kind: req.kind,
                });
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::GetS { line },
                ));
                true
            }

            // ---- Stores ----
            (CoreReqKind::Store { value }, Some(L1State::Modified)) => {
                ctx.coverage.record(Transition::l1("M", "Store"));
                L1_HITS.incr();
                let entry = self.cache.get_mut(line).expect("resident");
                let overwritten = entry.data.set_word(word, value);
                entry.dirty = true;
                self.respond(ctx, req.tag, CoreRespKind::StoreDone { overwritten });
                true
            }
            (CoreReqKind::Store { value }, Some(L1State::Exclusive)) => {
                ctx.coverage.record(Transition::l1("E", "Store"));
                L1_HITS.incr();
                let entry = self.cache.get_mut(line).expect("resident");
                let overwritten = entry.data.set_word(word, value);
                entry.dirty = true;
                entry.state = L1State::Modified;
                self.respond(ctx, req.tag, CoreRespKind::StoreDone { overwritten });
                true
            }
            (CoreReqKind::Store { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Store"));
                ctx.count_on_stall_path(&L1_MISSES);
                let mut mshr = Mshr::new(Transient::SM);
                mshr.pending.push(PendingOp {
                    tag: req.tag,
                    word,
                    kind: req.kind,
                });
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::GetX { line },
                ));
                true
            }
            (CoreReqKind::Store { .. }, None) => {
                ctx.coverage.record(Transition::l1("I", "Store"));
                ctx.count_on_stall_path(&L1_MISSES);
                if !self.make_room(out, ctx, line) {
                    return false;
                }
                let mut mshr = Mshr::new(Transient::IM);
                mshr.pending.push(PendingOp {
                    tag: req.tag,
                    word,
                    kind: req.kind,
                });
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::GetX { line },
                ));
                true
            }

            // ---- RMWs ----
            (CoreReqKind::Rmw { write_value }, Some(L1State::Modified | L1State::Exclusive)) => {
                let state = resident_state.expect("resident");
                ctx.coverage.record(Transition::l1(state.name(), "Rmw"));
                L1_HITS.incr();
                let entry = self.cache.get_mut(line).expect("resident");
                let read_value = entry.data.set_word(word, write_value);
                entry.dirty = true;
                entry.state = L1State::Modified;
                self.respond(ctx, req.tag, CoreRespKind::RmwDone { read_value });
                true
            }
            (CoreReqKind::Rmw { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Rmw"));
                ctx.count_on_stall_path(&L1_MISSES);
                let mut mshr = Mshr::new(Transient::SM);
                mshr.pending.push(PendingOp {
                    tag: req.tag,
                    word,
                    kind: req.kind,
                });
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::GetX { line },
                ));
                true
            }
            (CoreReqKind::Rmw { .. }, None) => {
                ctx.coverage.record(Transition::l1("I", "Rmw"));
                ctx.count_on_stall_path(&L1_MISSES);
                if !self.make_room(out, ctx, line) {
                    return false;
                }
                let mut mshr = Mshr::new(Transient::IM);
                mshr.pending.push(PendingOp {
                    tag: req.tag,
                    word,
                    kind: req.kind,
                });
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::GetX { line },
                ));
                true
            }

            // ---- Flushes ----
            (CoreReqKind::Flush, Some(state)) => {
                ctx.coverage.record(Transition::l1(state.name(), "Flush"));
                self.evict_line(out, ctx, line, "Flush");
                if let Some(mshr) = self.mshrs.get_mut(&line) {
                    // E/M flush: completion deferred until the writeback acks.
                    mshr.pending_flush.push(req.tag);
                } else {
                    self.respond(ctx, req.tag, CoreRespKind::FlushDone);
                }
                true
            }
            (CoreReqKind::Flush, None) => {
                ctx.coverage.record(Transition::l1("I", "Flush"));
                self.respond(ctx, req.tag, CoreRespKind::FlushDone);
                true
            }

            // ---- Fences ----
            // Under MESI, ordering across a fence is enforced by the core
            // (store buffer drain); the cache has nothing to do.
            (CoreReqKind::Fence, _) => {
                self.respond(ctx, req.tag, CoreRespKind::FenceDone);
                true
            }
        }
    }

    /// Serves the operations queued on an MSHR against a just-installed (or
    /// transiently available) line value.
    fn serve_pending(
        &mut self,
        ctx: &TickCtx<'_>,
        pending: Vec<PendingOp>,
        data: &mut LineData,
    ) -> bool {
        let mut wrote = false;
        for op in pending {
            match op.kind {
                CoreReqKind::Load => {
                    let value = data.word(op.word);
                    self.respond(ctx, op.tag, CoreRespKind::LoadDone { value });
                }
                CoreReqKind::Store { value } => {
                    let overwritten = data.set_word(op.word, value);
                    wrote = true;
                    self.respond(ctx, op.tag, CoreRespKind::StoreDone { overwritten });
                }
                CoreReqKind::Rmw { write_value } => {
                    let read_value = data.set_word(op.word, write_value);
                    wrote = true;
                    self.respond(ctx, op.tag, CoreRespKind::RmwDone { read_value });
                }
                CoreReqKind::Flush => {
                    self.respond(ctx, op.tag, CoreRespKind::FlushDone);
                }
                CoreReqKind::Fence => {
                    self.respond(ctx, op.tag, CoreRespKind::FenceDone);
                }
            }
        }
        wrote
    }

    /// Handles a protocol message for a line with no outstanding transaction.
    fn handle_msg_stable(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        let state = self.cache.get(line).map(|l| l.state);
        let state_name = state.map_or("I", |s| s.name());
        let event = msg.payload.event_name();
        match (&msg.payload, state) {
            (MsgPayload::Inv { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Inv"));
                self.cache.remove(line);
                out.to_network
                    .push(Msg::new(self.node, msg.src, MsgPayload::InvAck { line }));
                self.notify_lq(out, ctx, line, None);
            }
            (MsgPayload::Inv { .. }, None) => {
                // Stale invalidation after a silent S replacement.
                ctx.coverage.record(Transition::l1("I", "Inv"));
                out.to_network
                    .push(Msg::new(self.node, msg.src, MsgPayload::InvAck { line }));
            }
            (MsgPayload::FwdGetS { .. }, Some(L1State::Exclusive | L1State::Modified)) => {
                ctx.coverage.record(Transition::l1(state_name, "FwdGetS"));
                let entry = self.cache.get_mut(line).expect("resident");
                let dirty = entry.dirty;
                let data = entry.data.clone();
                entry.state = L1State::Shared;
                entry.dirty = false;
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts: None,
                    },
                ));
                // Read permission is retained; no LQ notice.
            }
            (
                MsgPayload::FwdGetX { .. } | MsgPayload::Recall { .. },
                Some(L1State::Exclusive | L1State::Modified),
            ) => {
                ctx.coverage.record(Transition::l1(state_name, event));
                let entry = self.cache.remove(line).expect("resident");
                let dirty = entry.dirty;
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data: entry.data,
                        dirty,
                        ts: None,
                    },
                ));
                let bug = match entry.state {
                    L1State::Exclusive => Some(Bug::MesiLqEInv),
                    L1State::Modified => Some(Bug::MesiLqMInv),
                    L1State::Shared => None,
                };
                self.notify_lq(out, ctx, line, bug);
            }
            _ => {
                // Any other (state, message) combination indicates the
                // directory and this cache disagree about ownership.
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("L1[{}]", self.core),
                    line,
                    state_name,
                    event,
                ));
            }
        }
    }

    /// Handles a protocol message for a line with an outstanding transaction.
    fn handle_msg_transient(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        let tstate = self.mshrs.get(&line).expect("mshr exists").tstate;
        let event = msg.payload.event_name();
        match (&msg.payload, tstate) {
            // ---- Invalidations racing with our own requests ----
            (MsgPayload::Inv { .. }, Transient::IS) => {
                ctx.coverage.record(Transition::l1("IS", "Inv"));
                out.to_network
                    .push(Msg::new(self.node, msg.src, MsgPayload::InvAck { line }));
                self.mshrs.get_mut(&line).expect("mshr").tstate = Transient::IsI;
            }
            (MsgPayload::Inv { .. }, Transient::IsI | Transient::IM | Transient::MI) => {
                ctx.coverage.record(Transition::l1(tstate.name(), "Inv"));
                out.to_network
                    .push(Msg::new(self.node, msg.src, MsgPayload::InvAck { line }));
            }
            (MsgPayload::Inv { .. }, Transient::SM) => {
                ctx.coverage.record(Transition::l1("SM", "Inv"));
                // Our Shared copy loses the race against another writer.
                self.cache.remove(line);
                out.to_network
                    .push(Msg::new(self.node, msg.src, MsgPayload::InvAck { line }));
                self.notify_lq(out, ctx, line, Some(Bug::MesiLqSmInv));
                self.mshrs.get_mut(&line).expect("mshr").tstate = Transient::IM;
            }

            // ---- Forwards racing with our writeback ----
            (MsgPayload::FwdGetS { .. }, Transient::MI) => {
                ctx.coverage.record(Transition::l1("MI", "FwdGetS"));
                let (data, dirty) = self
                    .mshrs
                    .get(&line)
                    .and_then(|m| m.wb_data.clone())
                    .expect("MI transaction carries writeback data");
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts: None,
                    },
                ));
            }
            (MsgPayload::FwdGetX { .. } | MsgPayload::Recall { .. }, Transient::MI) => {
                ctx.coverage.record(Transition::l1("MI", event));
                let (data, dirty) = self
                    .mshrs
                    .get(&line)
                    .and_then(|m| m.wb_data.clone())
                    .expect("MI transaction carries writeback data");
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts: None,
                    },
                ));
            }

            // ---- Forwards arriving before our data: defer ----
            (
                MsgPayload::FwdGetS { .. } | MsgPayload::FwdGetX { .. } | MsgPayload::Recall { .. },
                Transient::IS | Transient::IsI | Transient::IM | Transient::SM,
            ) => {
                ctx.coverage.record(Transition::l1(tstate.name(), event));
                self.mshrs.get_mut(&line).expect("mshr").deferred.push(msg);
            }

            // ---- Data responses ----
            (MsgPayload::DataS { data, .. } | MsgPayload::DataE { data, .. }, Transient::IS) => {
                let exclusive = matches!(msg.payload, MsgPayload::DataE { .. });
                ctx.coverage.record(Transition::l1(
                    "IS",
                    if exclusive { "DataE" } else { "DataS" },
                ));
                let mut mshr = self.mshrs.remove(&line).expect("mshr");
                let mut data = data.clone();
                self.serve_pending(ctx, std::mem::take(&mut mshr.pending), &mut data);
                self.install_line(
                    out,
                    ctx,
                    line,
                    data,
                    if exclusive {
                        L1State::Exclusive
                    } else {
                        L1State::Shared
                    },
                );
                self.replay_deferred(out, ctx, mshr.deferred);
            }
            (MsgPayload::DataS { data, .. } | MsgPayload::DataE { data, .. }, Transient::IsI) => {
                let exclusive = matches!(msg.payload, MsgPayload::DataE { .. });
                ctx.coverage.record(Transition::l1(
                    "IS_I",
                    if exclusive { "DataE" } else { "DataS" },
                ));
                // Use the data once for the pending loads, do not install, and
                // (in the correct design) tell the load queue about the sunk
                // invalidation so speculative loads get squashed.
                let mut mshr = self.mshrs.remove(&line).expect("mshr");
                let mut data = data.clone();
                self.serve_pending(ctx, std::mem::take(&mut mshr.pending), &mut data);
                self.notify_lq(out, ctx, line, Some(Bug::MesiLqIsInv));
                self.replay_deferred(out, ctx, mshr.deferred);
            }
            (MsgPayload::DataX { data, .. }, Transient::IM | Transient::SM) => {
                ctx.coverage.record(Transition::l1(tstate.name(), "DataX"));
                let mut mshr = self.mshrs.remove(&line).expect("mshr");
                // Start from the freshly granted data (the SM case may still
                // have a stale Shared copy resident; the granted data wins).
                self.cache.remove(line);
                let mut data = data.clone();
                let wrote = self.serve_pending(ctx, std::mem::take(&mut mshr.pending), &mut data);
                self.install_line_modified(out, ctx, line, data, wrote);
                self.replay_deferred(out, ctx, mshr.deferred);
            }

            // ---- Writeback acknowledgements ----
            (MsgPayload::WbAck { .. }, Transient::MI) => {
                ctx.coverage.record(Transition::l1("MI", "WbAck"));
                let mshr = self.mshrs.remove(&line).expect("mshr");
                for tag in mshr.pending_flush {
                    self.respond(ctx, tag, CoreRespKind::FlushDone);
                }
            }
            (MsgPayload::WbStale { .. }, Transient::MI) => {
                ctx.coverage.record(Transition::l1("MI", "WbStale"));
                let mshr = self.mshrs.remove(&line).expect("mshr");
                for tag in mshr.pending_flush {
                    self.respond(ctx, tag, CoreRespKind::FlushDone);
                }
            }

            _ => {
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("L1[{}]", self.core),
                    line,
                    tstate.name(),
                    event,
                ));
            }
        }
    }

    fn install_line(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        data: LineData,
        state: L1State,
    ) {
        if !self.make_room(out, ctx, line) {
            // The victim has an outstanding transaction; extremely rare.  Fall
            // back to not caching the data (it has already served its pending
            // operations), which is always safe: we notify the LQ as the line
            // is immediately "lost".
            self.notify_lq(out, ctx, line, None);
            return;
        }
        self.cache.insert(
            line,
            L1Line {
                state,
                data,
                dirty: false,
            },
        );
    }

    fn install_line_modified(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        data: LineData,
        dirty: bool,
    ) {
        if !self.make_room(out, ctx, line) {
            // Cannot cache: immediately write the line back so the data (and
            // any stores just performed into it) are not lost.
            out.to_network.push(Msg::new(
                self.node,
                self.home_bank(ctx.cfg, line),
                MsgPayload::PutX {
                    line,
                    data: data.clone(),
                    dirty: true,
                    ts: None,
                },
            ));
            let mut mshr = Mshr::new(Transient::MI);
            mshr.wb_data = Some((data, true));
            self.mshrs.insert(line, mshr);
            self.notify_lq(out, ctx, line, None);
            return;
        }
        self.cache.insert(
            line,
            L1Line {
                state: L1State::Modified,
                data,
                dirty,
            },
        );
    }

    fn replay_deferred(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, deferred: Vec<Msg>) {
        for msg in deferred {
            let line = msg.payload.line();
            if self.mshrs.contains_key(&line) {
                self.handle_msg_transient(out, ctx, msg);
            } else {
                self.handle_msg_stable(out, ctx, msg);
            }
        }
    }
}

impl L1Controller for MesiL1 {
    fn push_core_request(&mut self, req: CoreRequest) {
        self.core_requests.push_back(req);
    }

    fn push_msg(&mut self, msg: Msg) {
        self.msg_inbox.push_back(msg);
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>, out: &mut L1Output) -> bool {
        let emitted = (out.to_network.len(), out.lq_notices.len());

        // Protocol messages are never stalled.
        let mut progress = !self.msg_inbox.is_empty();
        while let Some(msg) = self.msg_inbox.pop_front() {
            let line = msg.payload.line();
            if self.mshrs.contains_key(&line) {
                self.handle_msg_transient(out, ctx, msg);
            } else {
                self.handle_msg_stable(out, ctx, msg);
            }
        }

        // Core requests: process until one stalls (head-of-line blocking keeps
        // the per-core request stream ordered at the cache).
        let mut budget = 8usize;
        while budget > 0 {
            let Some(req) = self.core_requests.front().copied() else {
                break;
            };
            if self.process_core_request(out, ctx, req) {
                self.core_requests.pop_front();
                budget -= 1;
                progress = true;
            } else {
                break;
            }
        }

        // Release responses whose hit latency has elapsed.
        progress |= release_due(&mut self.ready_responses, ctx.cycle, &mut out.responses);

        progress || emitted != (out.to_network.len(), out.lq_notices.len())
    }

    fn next_release(&self) -> Option<Cycle> {
        earliest_release(&self.ready_responses)
    }

    fn is_idle(&self) -> bool {
        self.mshrs.is_empty()
            && self.core_requests.is_empty()
            && self.msg_inbox.is_empty()
            && self.ready_responses.is_empty()
    }

    fn hard_reset(&mut self) {
        self.cache.drain_all();
        self.mshrs.clear();
        self.core_requests.clear();
        self.msg_inbox.clear();
        self.ready_responses.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugConfig;
    use crate::coverage::CoverageRecorder;
    use crate::protocol::{TickCoverage, TickLog};
    use mcversi_mcm::Address;
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
                cfg: SystemConfig::small(crate::config::ProtocolKind::Mesi),
                bugs,
                coverage: CoverageRecorder::new(),
                rng: StdRng::seed_from_u64(7),
                errors: Vec::new(),
                log: TickLog::default(),
                cycle: 0,
            }
        }

        fn tick(&mut self, l1: &mut MesiL1) -> L1Output {
            self.cycle += 1;
            let mut ctx = TickCtx {
                cycle: self.cycle,
                cfg: &self.cfg,
                bugs: &self.bugs,
                coverage: TickCoverage::new(&mut self.coverage, &mut self.log),
                rng: &mut self.rng,
                errors: &mut self.errors,
            };
            let mut out = L1Output::default();
            l1.tick(&mut ctx, &mut out);
            out
        }

        /// Ticks until the given predicate yields a value or `max` cycles pass.
        fn tick_until<T>(
            &mut self,
            l1: &mut MesiL1,
            max: u64,
            mut f: impl FnMut(&L1Output) -> Option<T>,
        ) -> T {
            for _ in 0..max {
                let out = self.tick(l1);
                if let Some(v) = f(&out) {
                    return v;
                }
            }
            panic!("condition not reached within {max} cycles");
        }
    }

    fn l1_with_harness(bugs: BugConfig) -> (MesiL1, Harness) {
        let h = Harness::new(bugs);
        (MesiL1::new(0, &h.cfg), h)
    }

    fn data_with(word: usize, value: u64) -> LineData {
        let mut d = LineData::zeroed(64);
        d.set_word(word, value);
        d
    }

    #[test]
    fn load_miss_sends_gets_and_hits_after_fill() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1008),
            kind: CoreReqKind::Load,
        });
        let out = h.tick(&mut l1);
        assert_eq!(out.to_network.len(), 1);
        assert!(matches!(out.to_network[0].payload, MsgPayload::GetS { .. }));
        let l2 = out.to_network[0].dst;

        // Deliver shared data.
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataS {
                line: LineAddr(0x1000),
                data: data_with(1, 77),
                ts: None,
            },
        ));
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 77 });

        // A second load to the same line now hits.
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x1008),
            kind: CoreReqKind::Load,
        });
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 77 });
        assert!(l1.is_idle());
    }

    #[test]
    fn store_to_exclusive_upgrades_silently_and_reports_overwritten() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Load,
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataE {
                line: LineAddr(0x1000),
                data: data_with(0, 5),
                ts: None,
            },
        ));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());

        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 9 },
        });
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::StoreDone { overwritten: 5 });
        // No GetX was needed (silent E -> M upgrade).
        assert!(h.coverage.count(Transition::l1("E", "Store")) > 0);
    }

    #[test]
    fn store_miss_gets_exclusive_data_and_performs() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x2010),
            kind: CoreReqKind::Store { value: 42 },
        });
        let out = h.tick(&mut l1);
        assert!(matches!(out.to_network[0].payload, MsgPayload::GetX { .. }));
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x2000),
                data: data_with(2, 3),
                ts: None,
            },
        ));
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::StoreDone { overwritten: 3 });
    }

    #[test]
    fn shared_invalidation_acks_and_notifies_lq() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        // Fill a line in S.
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Load,
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataS {
                line: LineAddr(0x1000),
                data: data_with(0, 1),
                ts: None,
            },
        ));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());

        // Invalidate it.
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::Inv {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.tick(&mut l1);
        assert!(out
            .to_network
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::InvAck { .. })));
        assert_eq!(out.lq_notices, vec![LineAddr(0x1000)]);
        assert_eq!(l1.resident_lines(), 0);
    }

    #[test]
    fn is_i_race_notifies_lq_unless_bug_injected() {
        for (bugs, expect_notice) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::MesiLqIsInv), false),
        ] {
            let (mut l1, mut h) = l1_with_harness(bugs);
            l1.push_core_request(CoreRequest {
                tag: 1,
                addr: Address(0x1000),
                kind: CoreReqKind::Load,
            });
            let out = h.tick(&mut l1);
            let l2 = out.to_network[0].dst;
            // The invalidation overtakes the data: IS -> IS_I.
            l1.push_msg(Msg::new(
                l2,
                NodeId(0),
                MsgPayload::Inv {
                    line: LineAddr(0x1000),
                },
            ));
            let out = h.tick(&mut l1);
            assert!(out
                .to_network
                .iter()
                .any(|m| matches!(m.payload, MsgPayload::InvAck { .. })));
            // Data arrives afterwards; the load is served once with it.
            l1.push_msg(Msg::new(
                l2,
                NodeId(0),
                MsgPayload::DataS {
                    line: LineAddr(0x1000),
                    data: data_with(0, 11),
                    ts: None,
                },
            ));
            let mut saw_notice = false;
            let resp = h.tick_until(&mut l1, 20, |o| {
                saw_notice |= o.lq_notices.contains(&LineAddr(0x1000));
                o.responses.first().copied()
            });
            assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 11 });
            assert_eq!(l1.resident_lines(), 0, "IS_I data must not be cached");
            assert_eq!(
                saw_notice, expect_notice,
                "LQ notice presence must track the MESI,LQ+IS,Inv bug"
            );
            assert!(h.errors.is_empty());
        }
    }

    #[test]
    fn sm_invalidation_notifies_lq_unless_bug_injected() {
        for (bugs, expect_notice) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::MesiLqSmInv), false),
        ] {
            let (mut l1, mut h) = l1_with_harness(bugs);
            // Line in S.
            l1.push_core_request(CoreRequest {
                tag: 1,
                addr: Address(0x1000),
                kind: CoreReqKind::Load,
            });
            let out = h.tick(&mut l1);
            let l2 = out.to_network[0].dst;
            l1.push_msg(Msg::new(
                l2,
                NodeId(0),
                MsgPayload::DataS {
                    line: LineAddr(0x1000),
                    data: data_with(0, 1),
                    ts: None,
                },
            ));
            h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
            // Store -> SM (GetX outstanding).
            l1.push_core_request(CoreRequest {
                tag: 2,
                addr: Address(0x1000),
                kind: CoreReqKind::Store { value: 5 },
            });
            let out = h.tick(&mut l1);
            assert!(matches!(out.to_network[0].payload, MsgPayload::GetX { .. }));
            // Invalidation wins the race.
            l1.push_msg(Msg::new(
                l2,
                NodeId(0),
                MsgPayload::Inv {
                    line: LineAddr(0x1000),
                },
            ));
            let out = h.tick(&mut l1);
            assert_eq!(out.lq_notices.contains(&LineAddr(0x1000)), expect_notice);
            // Exclusive data eventually arrives and the store performs.
            l1.push_msg(Msg::new(
                l2,
                NodeId(0),
                MsgPayload::DataX {
                    line: LineAddr(0x1000),
                    data: data_with(0, 3),
                    ts: None,
                },
            ));
            let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
            assert_eq!(resp.kind, CoreRespKind::StoreDone { overwritten: 3 });
            assert!(h.errors.is_empty());
        }
    }

    #[test]
    fn ownership_stripping_forward_notifies_lq_by_state() {
        // E state governed by MesiLqEInv, M state by MesiLqMInv.
        for (bug, make_modified, expect_notice_when_bug) in [
            (Bug::MesiLqEInv, false, false),
            (Bug::MesiLqMInv, true, false),
        ] {
            for bugs in [BugConfig::none(), BugConfig::single(bug)] {
                let expect_notice = bugs.is_correct_design() || expect_notice_when_bug;
                let (mut l1, mut h) = l1_with_harness(bugs);
                l1.push_core_request(CoreRequest {
                    tag: 1,
                    addr: Address(0x1000),
                    kind: CoreReqKind::Load,
                });
                let out = h.tick(&mut l1);
                let l2 = out.to_network[0].dst;
                l1.push_msg(Msg::new(
                    l2,
                    NodeId(0),
                    MsgPayload::DataE {
                        line: LineAddr(0x1000),
                        data: data_with(0, 1),
                        ts: None,
                    },
                ));
                h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
                if make_modified {
                    l1.push_core_request(CoreRequest {
                        tag: 2,
                        addr: Address(0x1000),
                        kind: CoreReqKind::Store { value: 9 },
                    });
                    h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
                }
                l1.push_msg(Msg::new(
                    l2,
                    NodeId(0),
                    MsgPayload::FwdGetX {
                        line: LineAddr(0x1000),
                    },
                ));
                let out = h.tick(&mut l1);
                assert!(out
                    .to_network
                    .iter()
                    .any(|m| matches!(m.payload, MsgPayload::WbData { .. })));
                assert_eq!(out.lq_notices.contains(&LineAddr(0x1000)), expect_notice);
                assert_eq!(l1.resident_lines(), 0);
            }
        }
    }

    #[test]
    fn fwd_gets_downgrades_without_lq_notice() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 4 },
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x1000),
                data: data_with(0, 0),
                ts: None,
            },
        ));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::FwdGetS {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.tick(&mut l1);
        let wb = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::WbData { .. }))
            .expect("WbData sent");
        match &wb.payload {
            MsgPayload::WbData { dirty, data, .. } => {
                assert!(*dirty);
                assert_eq!(data.word(0), 4);
            }
            _ => unreachable!(),
        }
        assert!(out.lq_notices.is_empty(), "downgrade keeps read permission");
        assert_eq!(l1.resident_lines(), 1);
    }

    #[test]
    fn shared_replacement_notice_suppressed_by_bug() {
        for (bugs, expect_notice) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::MesiLqSReplacement), false),
        ] {
            let (mut l1, mut h) = l1_with_harness(bugs);
            let sets = h.cfg.l1_sets() as u64;
            let ways = h.cfg.l1_ways;
            let line_bytes = h.cfg.line_bytes;
            let l2 = h.cfg.node_of_l2(0);
            // Fill (ways + 1) lines mapping to the same set, all in S.
            let mut notices = Vec::new();
            for i in 0..=(ways as u64) {
                let addr = Address(i * sets * line_bytes);
                l1.push_core_request(CoreRequest {
                    tag: i,
                    addr,
                    kind: CoreReqKind::Load,
                });
                let out = h.tick(&mut l1);
                notices.extend(out.lq_notices.clone());
                if let Some(req) = out
                    .to_network
                    .iter()
                    .find(|m| matches!(m.payload, MsgPayload::GetS { .. }))
                {
                    let line = req.payload.line();
                    l1.push_msg(Msg::new(
                        l2,
                        NodeId(0),
                        MsgPayload::DataS {
                            line,
                            data: LineData::zeroed(64),
                            ts: None,
                        },
                    ));
                }
                h.tick_until(&mut l1, 30, |o| {
                    notices.extend(o.lq_notices.clone());
                    o.responses.first().copied()
                });
            }
            assert_eq!(
                !notices.is_empty(),
                expect_notice,
                "S replacement notice must track the MESI,LQ+S,Replacement bug"
            );
        }
    }

    #[test]
    fn modified_replacement_writes_back_and_completes_on_ack() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        // Get a line into M, then flush it.
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 5 },
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                ts: None,
            },
        ));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x1000),
            kind: CoreReqKind::Flush,
        });
        let out = h.tick(&mut l1);
        let putx = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::PutX { .. }))
            .expect("PutX sent on flush of M line");
        match &putx.payload {
            MsgPayload::PutX { dirty, data, .. } => {
                assert!(dirty);
                assert_eq!(data.word(0), 5);
            }
            _ => unreachable!(),
        }
        assert!(out.lq_notices.contains(&LineAddr(0x1000)));
        assert!(!l1.is_idle(), "flush completion waits for the WbAck");
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::WbAck {
                line: LineAddr(0x1000),
            },
        ));
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::FlushDone);
        assert!(l1.is_idle());
    }

    #[test]
    fn forward_during_writeback_served_from_mshr_data() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 8 },
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                ts: None,
            },
        ));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x1000),
            kind: CoreReqKind::Flush,
        });
        h.tick(&mut l1);
        // A FwdGetX races with the PutX: the MI transaction must answer it.
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::FwdGetX {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.tick(&mut l1);
        let wb = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::WbData { .. }))
            .expect("MI answers forwards with its writeback data");
        match &wb.payload {
            MsgPayload::WbData { data, dirty, .. } => {
                assert!(*dirty);
                assert_eq!(data.word(0), 8);
            }
            _ => unreachable!(),
        }
        // The directory will answer the stale PutX with WbStale.
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::WbStale {
                line: LineAddr(0x1000),
            },
        ));
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::FlushDone);
        assert!(l1.is_idle());
        assert!(h.errors.is_empty());
    }

    #[test]
    fn forward_before_data_is_deferred_and_replayed() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 6 },
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        // FwdGetX arrives before our DataX (forward overtakes response).
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::FwdGetX {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.tick(&mut l1);
        assert!(out.to_network.is_empty(), "forward must be deferred");
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                ts: None,
            },
        ));
        let mut wb_seen = false;
        let resp = h.tick_until(&mut l1, 20, |o| {
            wb_seen |= o
                .to_network
                .iter()
                .any(|m| matches!(m.payload, MsgPayload::WbData { .. }));
            o.responses.first().copied()
        });
        assert_eq!(resp.kind, CoreRespKind::StoreDone { overwritten: 0 });
        assert!(wb_seen, "deferred forward replayed after install");
        assert_eq!(l1.resident_lines(), 0, "line handed over to the requestor");
        assert!(h.errors.is_empty());
    }

    #[test]
    fn rmw_returns_read_value_and_installs_modified() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x3000),
            kind: CoreReqKind::Rmw { write_value: 50 },
        });
        let out = h.tick(&mut l1);
        let l2 = out.to_network[0].dst;
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x3000),
                data: data_with(0, 20),
                ts: None,
            },
        ));
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::RmwDone { read_value: 20 });
        // The written value is visible to a subsequent load.
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x3000),
            kind: CoreReqKind::Load,
        });
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 50 });
    }

    #[test]
    fn hard_reset_clears_everything() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Load,
        });
        h.tick(&mut l1);
        assert!(!l1.is_idle());
        l1.hard_reset();
        assert!(l1.is_idle());
        assert_eq!(l1.resident_lines(), 0);
    }

    #[test]
    fn unexpected_message_reports_protocol_error() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        // A FwdGetS to a line we do not own at all is a protocol error.
        l1.push_msg(Msg::new(
            NodeId(4),
            NodeId(0),
            MsgPayload::FwdGetS {
                line: LineAddr(0x9000),
            },
        ));
        h.tick(&mut l1);
        assert_eq!(h.errors.len(), 1);
        assert!(h.errors[0].to_string().contains("FwdGetS"));
    }
}
