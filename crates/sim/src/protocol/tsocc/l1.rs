//! The TSO-CC private L1 cache controller.
//!
//! Besides the cache array, the controller keeps the per-core TSO-CC state:
//! the core's own (group) timestamp and epoch, and the last-seen timestamp per
//! remote writer.  Shared lines carry the writer's timestamp metadata and an
//! access budget; acquiring newer data from a writer self-invalidates all
//! Shared lines (the paper's transitive-reduction rule), as do fences and
//! atomics.  The two TSO-CC bugs of the evaluation weaken the timestamp
//! comparison ([`Bug::TsoCcCompare`]) or ignore epoch ids across timestamp
//! resets ([`Bug::TsoCcNoEpochIds`]).
//!
//! [`Bug::TsoCcCompare`]: crate::bugs::Bug::TsoCcCompare
//! [`Bug::TsoCcNoEpochIds`]: crate::bugs::Bug::TsoCcNoEpochIds

use crate::bugs::Bug;
use crate::cache::CacheArray;
use crate::config::SystemConfig;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload, TsInfo};
use crate::protocol::{
    earliest_release, release_due, CoreReqKind, CoreRequest, CoreRespKind, CoreResponse,
    L1Controller, L1Output, LineTable, TickCtx,
};
use crate::system::ProtocolError;
use crate::types::{Cycle, LineAddr, LineData, NodeId};
use mcversi_telemetry as telemetry;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Core requests served from a resident line with sufficient permission.
static L1_HITS: telemetry::Counter = telemetry::Counter::new("sim.l1.tsocc.hit");
/// Core requests needing a coherence transaction (fill, upgrade, or expired
/// staleness budget).
static L1_MISSES: telemetry::Counter = telemetry::Counter::new("sim.l1.tsocc.miss");

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

#[derive(Debug, Clone)]
struct L1Line {
    state: L1State,
    data: LineData,
    dirty: bool,
    /// Last writer metadata (carried on writebacks so readers can compare).
    ts: Option<TsInfo>,
    /// Remaining accesses before a Shared line expires.
    accesses_left: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transient {
    /// GetS outstanding.
    IS,
    /// GetX outstanding.
    IM,
    /// PutX outstanding.
    MI,
}

impl Transient {
    fn name(self) -> &'static str {
        match self {
            Transient::IS => "IS",
            Transient::IM => "IM",
            Transient::MI => "MI",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingOp {
    tag: u64,
    word: usize,
    kind: CoreReqKind,
}

#[derive(Debug)]
struct Mshr {
    tstate: Transient,
    pending: Vec<PendingOp>,
    deferred: Vec<Msg>,
    wb_data: Option<(LineData, bool, Option<TsInfo>)>,
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

/// The TSO-CC L1 controller for one core.
#[derive(Debug)]
pub struct TsoCcL1 {
    core: usize,
    node: NodeId,
    cache: CacheArray<L1Line>,
    mshrs: LineTable<Mshr>,
    core_requests: VecDeque<CoreRequest>,
    msg_inbox: VecDeque<Msg>,
    ready_responses: Vec<(Cycle, CoreResponse)>,
    line_bytes: u64,
    // ---- TSO-CC per-core state ----
    local_ts: u64,
    writes_in_group: u64,
    epoch: u64,
    last_seen: BTreeMap<u32, (u64, u64)>, // writer -> (epoch, ts)
}

impl TsoCcL1 {
    /// Creates the L1 for core `core`.
    pub fn new(core: usize, cfg: &SystemConfig) -> Self {
        TsoCcL1 {
            core,
            node: cfg.node_of_l1(core),
            cache: CacheArray::new(cfg.l1_sets(), cfg.l1_ways, cfg.line_bytes),
            mshrs: LineTable::new(),
            core_requests: VecDeque::new(),
            msg_inbox: VecDeque::new(),
            ready_responses: Vec::new(),
            line_bytes: cfg.line_bytes,
            local_ts: 1,
            writes_in_group: 0,
            epoch: 0,
            last_seen: BTreeMap::new(),
        }
    }

    /// Number of resident lines (used by tests).
    pub fn resident_lines(&self) -> usize {
        self.cache.len()
    }

    /// The core's current epoch (used by tests to confirm resets happen).
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Advances the core's write timestamp (one write); returns the metadata
    /// to tag the written line with.
    fn bump_write_ts(&mut self, ctx: &mut TickCtx<'_>) -> TsInfo {
        self.writes_in_group += 1;
        if self.writes_in_group >= ctx.cfg.tsocc_ts_group {
            self.writes_in_group = 0;
            self.local_ts += 1;
            if self.local_ts > ctx.cfg.tsocc_ts_max {
                // Timestamp reset: a new epoch begins.
                self.local_ts = 1;
                self.epoch += 1;
                ctx.coverage.record(Transition::l1("M", "TimestampReset"));
            }
        }
        TsInfo {
            writer: self.core as u32,
            ts: self.local_ts,
            epoch: self.epoch,
        }
    }

    /// Applies the acquire rule for data whose last writer is `ts`.
    ///
    /// Returns `true` if all Shared lines must be self-invalidated.  The two
    /// TSO-CC bugs weaken this decision.
    fn acquire_decision(&mut self, ctx: &TickCtx<'_>, ts: Option<TsInfo>) -> bool {
        let Some(info) = ts else {
            // No metadata (data came straight from memory): be conservative.
            return true;
        };
        if info.writer as usize == self.core {
            return false;
        }
        let decision = match self.last_seen.get(&info.writer) {
            None => true,
            Some(&(seen_epoch, seen_ts)) => {
                if ctx.bugs.has(Bug::TsoCcNoEpochIds) {
                    // Epochs ignored: compare raw timestamps across resets.
                    if ctx.bugs.has(Bug::TsoCcCompare) {
                        info.ts > seen_ts
                    } else {
                        info.ts >= seen_ts
                    }
                } else if info.epoch != seen_epoch {
                    true
                } else if ctx.bugs.has(Bug::TsoCcCompare) {
                    info.ts > seen_ts
                } else {
                    info.ts >= seen_ts
                }
            }
        };
        // Track the newest observation of this writer.
        let entry = self
            .last_seen
            .entry(info.writer)
            .or_insert((info.epoch, info.ts));
        if info.epoch != entry.0 {
            *entry = (info.epoch, info.ts);
        } else if info.ts > entry.1 {
            entry.1 = info.ts;
        }
        decision
    }

    /// Self-invalidates every Shared line (except `keep`), notifying the LQ.
    fn self_invalidate_shared(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        keep: Option<LineAddr>,
    ) {
        let victims: Vec<LineAddr> = self
            .cache
            .iter()
            .filter(|(addr, l)| l.state == L1State::Shared && Some(*addr) != keep)
            .map(|(addr, _)| addr)
            .collect();
        for v in victims {
            ctx.coverage.record(Transition::l1("S", "SelfInvalidate"));
            self.cache.remove(v);
            out.lq_notices.push(v);
        }
    }

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
                self.cache.remove(line);
                out.lq_notices.push(line);
                true
            }
            L1State::Exclusive | L1State::Modified => {
                let entry = self.cache.remove(line).expect("resident");
                let dirty = entry.dirty || state == L1State::Modified;
                let ts = entry.ts;
                let mut mshr = Mshr::new(Transient::MI);
                mshr.wb_data = Some((entry.data.clone(), dirty, ts));
                self.mshrs.insert(line, mshr);
                out.to_network.push(Msg::new(
                    self.node,
                    self.home_bank(ctx.cfg, line),
                    MsgPayload::PutX {
                        line,
                        data: entry.data,
                        dirty,
                        ts,
                    },
                ));
                out.lq_notices.push(line);
                true
            }
        }
    }

    fn make_room(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, line: LineAddr) -> bool {
        if !self.cache.needs_eviction(line) {
            return true;
        }
        let victim = self.cache.victim_for(line).expect("set full");
        if self.mshrs.contains_key(&victim) {
            return false;
        }
        self.evict_line(out, ctx, victim, "Replacement")
    }

    fn send_gets(&mut self, out: &mut L1Output, ctx: &TickCtx<'_>, line: LineAddr) {
        out.to_network.push(Msg::new(
            self.node,
            self.home_bank(ctx.cfg, line),
            MsgPayload::GetS { line },
        ));
    }

    fn send_getx(&mut self, out: &mut L1Output, ctx: &TickCtx<'_>, line: LineAddr) {
        out.to_network.push(Msg::new(
            self.node,
            self.home_bank(ctx.cfg, line),
            MsgPayload::GetX { line },
        ));
    }

    fn process_core_request(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        req: CoreRequest,
    ) -> bool {
        let (line, word) = self.line_of(req.addr);

        if let Some(mshr) = self.mshrs.get_mut(&line) {
            match (mshr.tstate, req.kind) {
                (Transient::IS | Transient::IM, CoreReqKind::Load) => {
                    mshr.pending.push(PendingOp {
                        tag: req.tag,
                        word,
                        kind: req.kind,
                    });
                    return true;
                }
                (Transient::IM, CoreReqKind::Store { .. } | CoreReqKind::Rmw { .. }) => {
                    mshr.pending.push(PendingOp {
                        tag: req.tag,
                        word,
                        kind: req.kind,
                    });
                    return true;
                }
                _ => return false,
            }
        }

        let state = self.cache.get(line).map(|l| l.state);
        match (req.kind, state) {
            // ---- Loads ----
            (CoreReqKind::Load, Some(L1State::Shared)) => {
                let expired = self
                    .cache
                    .get(line)
                    .map(|l| l.accesses_left == 0)
                    .unwrap_or(false);
                if expired {
                    // The staleness budget is exhausted: re-fetch.
                    ctx.coverage.record(Transition::l1("S", "Expired"));
                    ctx.count_on_stall_path(&L1_MISSES);
                    self.cache.remove(line);
                    out.lq_notices.push(line);
                    let mut mshr = Mshr::new(Transient::IS);
                    mshr.pending.push(PendingOp {
                        tag: req.tag,
                        word,
                        kind: req.kind,
                    });
                    self.mshrs.insert(line, mshr);
                    self.send_gets(out, ctx, line);
                    return true;
                }
                ctx.coverage.record(Transition::l1("S", "Load"));
                L1_HITS.incr();
                let entry = self.cache.get_mut(line).expect("resident");
                entry.accesses_left = entry.accesses_left.saturating_sub(1);
                let value = entry.data.word(word);
                self.respond(ctx, req.tag, CoreRespKind::LoadDone { value });
                true
            }
            (CoreReqKind::Load, Some(st @ (L1State::Exclusive | L1State::Modified))) => {
                ctx.coverage.record(Transition::l1(st.name(), "Load"));
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
                self.send_gets(out, ctx, line);
                true
            }

            // ---- Stores ----
            (CoreReqKind::Store { value }, Some(st @ (L1State::Exclusive | L1State::Modified))) => {
                ctx.coverage.record(Transition::l1(st.name(), "Store"));
                L1_HITS.incr();
                let ts = self.bump_write_ts(ctx);
                let entry = self.cache.get_mut(line).expect("resident");
                let overwritten = entry.data.set_word(word, value);
                entry.dirty = true;
                entry.state = L1State::Modified;
                entry.ts = Some(ts);
                self.respond(ctx, req.tag, CoreRespKind::StoreDone { overwritten });
                true
            }
            (CoreReqKind::Store { .. }, Some(L1State::Shared)) => {
                // The stale Shared copy is dropped; exclusive ownership is
                // requested.  Dropping the copy is a loss of read permission.
                ctx.coverage.record(Transition::l1("S", "Store"));
                ctx.count_on_stall_path(&L1_MISSES);
                self.cache.remove(line);
                out.lq_notices.push(line);
                let mut mshr = Mshr::new(Transient::IM);
                mshr.pending.push(PendingOp {
                    tag: req.tag,
                    word,
                    kind: req.kind,
                });
                self.mshrs.insert(line, mshr);
                self.send_getx(out, ctx, line);
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
                self.send_getx(out, ctx, line);
                true
            }

            // ---- RMWs (imply a fence: self-invalidate Shared lines) ----
            (CoreReqKind::Rmw { write_value }, st) => {
                self.self_invalidate_shared(out, ctx, None);
                match st {
                    Some(s @ (L1State::Exclusive | L1State::Modified)) => {
                        ctx.coverage.record(Transition::l1(s.name(), "Rmw"));
                        L1_HITS.incr();
                        let ts = self.bump_write_ts(ctx);
                        let entry = self.cache.get_mut(line).expect("resident");
                        let read_value = entry.data.set_word(word, write_value);
                        entry.dirty = true;
                        entry.state = L1State::Modified;
                        entry.ts = Some(ts);
                        self.respond(ctx, req.tag, CoreRespKind::RmwDone { read_value });
                        true
                    }
                    Some(L1State::Shared) | None => {
                        // (The Shared copy, if any, was just self-invalidated.)
                        ctx.coverage
                            .record(Transition::l1(st.map_or("I", |s| s.name()), "Rmw"));
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
                        self.send_getx(out, ctx, line);
                        true
                    }
                }
            }

            // ---- Flushes ----
            (CoreReqKind::Flush, Some(state)) => {
                ctx.coverage.record(Transition::l1(state.name(), "Flush"));
                self.evict_line(out, ctx, line, "Flush");
                if let Some(mshr) = self.mshrs.get_mut(&line) {
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

            // ---- Fences: self-invalidate all Shared lines ----
            (CoreReqKind::Fence, _) => {
                self.self_invalidate_shared(out, ctx, None);
                self.respond(ctx, req.tag, CoreRespKind::FenceDone);
                true
            }
        }
    }

    fn serve_pending(
        &mut self,
        ctx: &mut TickCtx<'_>,
        pending: Vec<PendingOp>,
        data: &mut LineData,
        line_ts: &mut Option<TsInfo>,
    ) -> bool {
        let mut wrote = false;
        for op in pending {
            match op.kind {
                CoreReqKind::Load => {
                    let value = data.word(op.word);
                    self.respond(ctx, op.tag, CoreRespKind::LoadDone { value });
                }
                CoreReqKind::Store { value } => {
                    let ts = self.bump_write_ts(ctx);
                    let overwritten = data.set_word(op.word, value);
                    *line_ts = Some(ts);
                    wrote = true;
                    self.respond(ctx, op.tag, CoreRespKind::StoreDone { overwritten });
                }
                CoreReqKind::Rmw { write_value } => {
                    let ts = self.bump_write_ts(ctx);
                    let read_value = data.set_word(op.word, write_value);
                    *line_ts = Some(ts);
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

    fn handle_msg(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        let event = msg.payload.event_name();
        if let Some(tstate) = self.mshrs.get(&line).map(|m| m.tstate) {
            match (&msg.payload, tstate) {
                (MsgPayload::Downgrade { .. } | MsgPayload::Recall { .. }, Transient::MI) => {
                    ctx.coverage.record(Transition::l1("MI", event));
                    let (data, dirty, ts) = self
                        .mshrs
                        .get(&line)
                        .and_then(|m| m.wb_data.clone())
                        .expect("MI carries writeback data");
                    out.to_network.push(Msg::new(
                        self.node,
                        msg.src,
                        MsgPayload::WbData {
                            line,
                            data,
                            dirty,
                            ts,
                        },
                    ));
                }
                (
                    MsgPayload::Downgrade { .. } | MsgPayload::Recall { .. },
                    Transient::IS | Transient::IM,
                ) => {
                    ctx.coverage.record(Transition::l1(tstate.name(), event));
                    self.mshrs.get_mut(&line).expect("mshr").deferred.push(msg);
                }
                (
                    MsgPayload::DataS { data, ts, .. } | MsgPayload::DataE { data, ts, .. },
                    Transient::IS,
                ) => {
                    let exclusive = matches!(msg.payload, MsgPayload::DataE { .. });
                    ctx.coverage.record(Transition::l1(
                        "IS",
                        if exclusive { "DataE" } else { "DataS" },
                    ));
                    // Acquire first, so the LQ sees the self-invalidation
                    // notices before the pending loads complete.
                    if self.acquire_decision(ctx, *ts) {
                        self.self_invalidate_shared(out, ctx, None);
                    }
                    let mut mshr = self.mshrs.remove(&line).expect("mshr");
                    let mut data = data.clone();
                    let mut line_ts = *ts;
                    self.serve_pending(
                        ctx,
                        std::mem::take(&mut mshr.pending),
                        &mut data,
                        &mut line_ts,
                    );
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
                        line_ts,
                    );
                    self.replay_deferred(out, ctx, mshr.deferred);
                }
                (MsgPayload::DataX { data, ts, .. }, Transient::IM) => {
                    ctx.coverage.record(Transition::l1("IM", "DataX"));
                    if self.acquire_decision(ctx, *ts) {
                        self.self_invalidate_shared(out, ctx, None);
                    }
                    let mut mshr = self.mshrs.remove(&line).expect("mshr");
                    self.cache.remove(line);
                    let mut data = data.clone();
                    let mut line_ts = *ts;
                    let wrote = self.serve_pending(
                        ctx,
                        std::mem::take(&mut mshr.pending),
                        &mut data,
                        &mut line_ts,
                    );
                    self.install_modified(out, ctx, line, data, wrote, line_ts);
                    self.replay_deferred(out, ctx, mshr.deferred);
                }
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
                        format!("TSO-CC L1[{}]", self.core),
                        line,
                        tstate.name(),
                        event,
                    ));
                }
            }
            return;
        }

        // No outstanding transaction for the line.
        let state = self.cache.get(line).map(|l| l.state);
        match (&msg.payload, state) {
            (MsgPayload::Downgrade { .. }, Some(L1State::Exclusive | L1State::Modified)) => {
                let st = state.expect("resident");
                ctx.coverage.record(Transition::l1(st.name(), "Downgrade"));
                let cfg_budget = ctx.cfg.tsocc_max_accesses;
                let entry = self.cache.get_mut(line).expect("resident");
                let dirty = entry.dirty;
                let data = entry.data.clone();
                let ts = entry.ts;
                entry.state = L1State::Shared;
                entry.dirty = false;
                entry.accesses_left = cfg_budget;
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts,
                    },
                ));
            }
            (MsgPayload::Downgrade { .. }, Some(L1State::Shared)) => {
                // A downgrade that raced with our own silent downgrade: answer
                // with the Shared copy (clean).
                ctx.coverage.record(Transition::l1("S", "Downgrade"));
                let entry = self.cache.get(line).expect("resident");
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data: entry.data.clone(),
                        dirty: false,
                        ts: entry.ts,
                    },
                ));
            }
            (MsgPayload::Recall { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Recall"));
                let entry = self.cache.remove(line).expect("resident");
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data: entry.data,
                        dirty: false,
                        ts: entry.ts,
                    },
                ));
                out.lq_notices.push(line);
            }
            (MsgPayload::Recall { .. }, Some(L1State::Exclusive | L1State::Modified)) => {
                let st = state.expect("resident");
                ctx.coverage.record(Transition::l1(st.name(), "Recall"));
                let entry = self.cache.remove(line).expect("resident");
                out.to_network.push(Msg::new(
                    self.node,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data: entry.data,
                        dirty: entry.dirty,
                        ts: entry.ts,
                    },
                ));
                out.lq_notices.push(line);
            }
            _ => {
                ctx.errors.push(ProtocolError::invalid_transition(
                    ctx.cycle,
                    format!("TSO-CC L1[{}]", self.core),
                    line,
                    state.map_or("I", |s| s.name()),
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
        ts: Option<TsInfo>,
    ) {
        if !self.make_room(out, ctx, line) {
            out.lq_notices.push(line);
            return;
        }
        self.cache.insert(
            line,
            L1Line {
                state,
                data,
                dirty: false,
                ts,
                accesses_left: ctx.cfg.tsocc_max_accesses,
            },
        );
    }

    fn install_modified(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        data: LineData,
        dirty: bool,
        ts: Option<TsInfo>,
    ) {
        if !self.make_room(out, ctx, line) {
            out.to_network.push(Msg::new(
                self.node,
                self.home_bank(ctx.cfg, line),
                MsgPayload::PutX {
                    line,
                    data: data.clone(),
                    dirty: true,
                    ts,
                },
            ));
            let mut mshr = Mshr::new(Transient::MI);
            mshr.wb_data = Some((data, true, ts));
            self.mshrs.insert(line, mshr);
            out.lq_notices.push(line);
            return;
        }
        self.cache.insert(
            line,
            L1Line {
                state: L1State::Modified,
                data,
                dirty,
                ts,
                accesses_left: ctx.cfg.tsocc_max_accesses,
            },
        );
    }

    fn replay_deferred(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, deferred: Vec<Msg>) {
        for msg in deferred {
            self.handle_msg(out, ctx, msg);
        }
    }
}

impl L1Controller for TsoCcL1 {
    fn push_core_request(&mut self, req: CoreRequest) {
        self.core_requests.push_back(req);
    }

    fn push_msg(&mut self, msg: Msg) {
        self.msg_inbox.push_back(msg);
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>, out: &mut L1Output) -> bool {
        let emitted = (out.to_network.len(), out.lq_notices.len());
        let mut progress = !self.msg_inbox.is_empty();
        while let Some(msg) = self.msg_inbox.pop_front() {
            self.handle_msg(out, ctx, msg);
        }
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
        // The per-core timestamp state is architectural and survives resets of
        // the test memory (matching how a real core's counters would behave).
    }

    fn save(&self) -> Option<Box<dyn Any>> {
        let kept: Timestamps = (
            self.local_ts,
            self.writes_in_group,
            self.epoch,
            self.last_seen.clone(),
        );
        Some(Box::new(kept))
    }

    fn restore(&mut self, saved: Box<dyn Any>) {
        let saved = saved
            .downcast::<Timestamps>()
            .expect("restores what this L1 saved");
        (
            self.local_ts,
            self.writes_in_group,
            self.epoch,
            self.last_seen,
        ) = *saved;
    }
}

/// What [`TsoCcL1::hard_reset`] keeps: `local_ts`, `writes_in_group`, `epoch`
/// and `last_seen`.
type Timestamps = (u64, u64, u64, BTreeMap<u32, (u64, u64)>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugConfig;
    use crate::config::ProtocolKind;
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
                cfg: SystemConfig::small(ProtocolKind::TsoCc),
                bugs,
                coverage: CoverageRecorder::new(),
                rng: StdRng::seed_from_u64(5),
                errors: Vec::new(),
                log: TickLog::default(),
                cycle: 0,
            }
        }

        fn tick(&mut self, l1: &mut TsoCcL1) -> L1Output {
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

        fn tick_until<T>(
            &mut self,
            l1: &mut TsoCcL1,
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

    fn data_with(word: usize, value: u64) -> LineData {
        let mut d = LineData::zeroed(64);
        d.set_word(word, value);
        d
    }

    fn fill_shared(
        h: &mut Harness,
        l1: &mut TsoCcL1,
        tag: u64,
        addr: u64,
        value: u64,
        ts: Option<TsInfo>,
    ) {
        l1.push_core_request(CoreRequest {
            tag,
            addr: Address(addr),
            kind: CoreReqKind::Load,
        });
        let out = h.tick(l1);
        let gets = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::GetS { .. }))
            .expect("GetS sent");
        let line = gets.payload.line();
        let word = line.word_index(Address(addr), 64);
        l1.push_msg(Msg::new(
            gets.dst,
            NodeId(0),
            MsgPayload::DataS {
                line,
                data: data_with(word, value),
                ts,
            },
        ));
        h.tick_until(l1, 20, |o| o.responses.first().copied());
    }

    #[test]
    fn shared_hit_decrements_access_budget_and_expires() {
        let mut h = Harness::new(BugConfig::none());
        let mut l1 = TsoCcL1::new(0, &h.cfg);
        let ts = Some(TsInfo {
            writer: 1,
            ts: 1,
            epoch: 0,
        });
        fill_shared(&mut h, &mut l1, 1, 0x1000, 5, ts);
        // Exhaust the budget with hits.
        for i in 0..h.cfg.tsocc_max_accesses {
            l1.push_core_request(CoreRequest {
                tag: 100 + i as u64,
                addr: Address(0x1000),
                kind: CoreReqKind::Load,
            });
            let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
            assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 5 });
        }
        // The next access must re-fetch.
        l1.push_core_request(CoreRequest {
            tag: 999,
            addr: Address(0x1000),
            kind: CoreReqKind::Load,
        });
        let out = h.tick(&mut l1);
        assert!(
            out.to_network
                .iter()
                .any(|m| matches!(m.payload, MsgPayload::GetS { .. })),
            "expired Shared line must be re-fetched"
        );
        assert!(h.coverage.count(Transition::l1("S", "Expired")) > 0);
    }

    #[test]
    fn acquire_of_newer_timestamp_self_invalidates_shared_lines() {
        let mut h = Harness::new(BugConfig::none());
        let mut l1 = TsoCcL1::new(0, &h.cfg);
        // A stale Shared line written by core 1 at ts=1.
        fill_shared(
            &mut h,
            &mut l1,
            1,
            0x1000,
            5,
            Some(TsInfo {
                writer: 1,
                ts: 1,
                epoch: 0,
            }),
        );
        assert_eq!(l1.resident_lines(), 1);
        // Acquire data written by core 1 at ts=3 (newer): the stale line must
        // be self-invalidated and the LQ notified.
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x2000),
            kind: CoreReqKind::Load,
        });
        let out = h.tick(&mut l1);
        let gets = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::GetS { .. }))
            .expect("GetS");
        l1.push_msg(Msg::new(
            gets.dst,
            NodeId(0),
            MsgPayload::DataS {
                line: LineAddr(0x2000),
                data: data_with(0, 9),
                ts: Some(TsInfo {
                    writer: 1,
                    ts: 3,
                    epoch: 0,
                }),
            },
        ));
        let mut notices = Vec::new();
        h.tick_until(&mut l1, 20, |o| {
            notices.extend(o.lq_notices.clone());
            o.responses.first().copied()
        });
        assert!(notices.contains(&LineAddr(0x1000)));
        assert!(h.coverage.count(Transition::l1("S", "SelfInvalidate")) > 0);
        assert_eq!(l1.resident_lines(), 1, "only the new line remains");
    }

    #[test]
    fn compare_bug_misses_equal_timestamp_self_invalidation() {
        for (bugs, expect_selfinv) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::TsoCcCompare), false),
        ] {
            let mut h = Harness::new(bugs);
            let mut l1 = TsoCcL1::new(0, &h.cfg);
            // First acquire from writer 1 at ts=2: establishes last_seen = 2.
            fill_shared(
                &mut h,
                &mut l1,
                1,
                0x3000,
                1,
                Some(TsInfo {
                    writer: 1,
                    ts: 2,
                    epoch: 0,
                }),
            );
            // A stale Shared line (from writer 2, unrelated).
            fill_shared(
                &mut h,
                &mut l1,
                2,
                0x1000,
                5,
                Some(TsInfo {
                    writer: 2,
                    ts: 1,
                    epoch: 0,
                }),
            );
            // Acquire data from writer 1 in the *same* timestamp group (ts=2):
            // the correct `>=` comparison self-invalidates, `>` does not.
            l1.push_core_request(CoreRequest {
                tag: 3,
                addr: Address(0x4000),
                kind: CoreReqKind::Load,
            });
            let out = h.tick(&mut l1);
            let gets = out
                .to_network
                .iter()
                .find(|m| matches!(m.payload, MsgPayload::GetS { .. }))
                .expect("GetS");
            l1.push_msg(Msg::new(
                gets.dst,
                NodeId(0),
                MsgPayload::DataS {
                    line: LineAddr(0x4000),
                    data: data_with(0, 7),
                    ts: Some(TsInfo {
                        writer: 1,
                        ts: 2,
                        epoch: 0,
                    }),
                },
            ));
            let mut notices = Vec::new();
            h.tick_until(&mut l1, 20, |o| {
                notices.extend(o.lq_notices.clone());
                o.responses.first().copied()
            });
            assert_eq!(
                notices.contains(&LineAddr(0x1000)),
                expect_selfinv,
                "TSO-CC+compare bug must suppress the equal-timestamp self-invalidation"
            );
        }
    }

    #[test]
    fn epoch_bug_misses_self_invalidation_after_timestamp_reset() {
        for (bugs, expect_selfinv) in [
            (BugConfig::none(), true),
            (BugConfig::single(Bug::TsoCcNoEpochIds), false),
        ] {
            let mut h = Harness::new(bugs);
            let mut l1 = TsoCcL1::new(0, &h.cfg);
            // Observe writer 1 late in its epoch 0 (large timestamp).
            fill_shared(
                &mut h,
                &mut l1,
                1,
                0x3000,
                1,
                Some(TsInfo {
                    writer: 1,
                    ts: 14,
                    epoch: 0,
                }),
            );
            // A stale Shared line from another writer.
            fill_shared(
                &mut h,
                &mut l1,
                2,
                0x1000,
                5,
                Some(TsInfo {
                    writer: 2,
                    ts: 1,
                    epoch: 0,
                }),
            );
            // Writer 1 resets: epoch 1, small timestamp.  With epoch ids the
            // acquire self-invalidates; ignoring them the timestamp looks old.
            l1.push_core_request(CoreRequest {
                tag: 3,
                addr: Address(0x4000),
                kind: CoreReqKind::Load,
            });
            let out = h.tick(&mut l1);
            let gets = out
                .to_network
                .iter()
                .find(|m| matches!(m.payload, MsgPayload::GetS { .. }))
                .expect("GetS");
            l1.push_msg(Msg::new(
                gets.dst,
                NodeId(0),
                MsgPayload::DataS {
                    line: LineAddr(0x4000),
                    data: data_with(0, 7),
                    ts: Some(TsInfo {
                        writer: 1,
                        ts: 2,
                        epoch: 1,
                    }),
                },
            ));
            let mut notices = Vec::new();
            h.tick_until(&mut l1, 20, |o| {
                notices.extend(o.lq_notices.clone());
                o.responses.first().copied()
            });
            assert_eq!(
                notices.contains(&LineAddr(0x1000)),
                expect_selfinv,
                "TSO-CC+no-epoch-ids bug must suppress the post-reset self-invalidation"
            );
        }
    }

    #[test]
    fn rmw_and_fence_self_invalidate_shared_lines() {
        let mut h = Harness::new(BugConfig::none());
        let mut l1 = TsoCcL1::new(0, &h.cfg);
        fill_shared(
            &mut h,
            &mut l1,
            1,
            0x1000,
            5,
            Some(TsInfo {
                writer: 1,
                ts: 1,
                epoch: 0,
            }),
        );
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0),
            kind: CoreReqKind::Fence,
        });
        let mut notices = Vec::new();
        let resp = h.tick_until(&mut l1, 20, |o| {
            notices.extend(o.lq_notices.clone());
            o.responses.first().copied()
        });
        assert_eq!(resp.kind, CoreRespKind::FenceDone);
        assert!(notices.contains(&LineAddr(0x1000)));
        assert_eq!(l1.resident_lines(), 0);
    }

    #[test]
    fn writes_advance_timestamps_and_reset_into_new_epoch() {
        let mut h = Harness::new(BugConfig::none());
        let mut l1 = TsoCcL1::new(0, &h.cfg);
        // Acquire exclusive ownership once, then hammer stores.
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 1 },
        });
        let out = h.tick(&mut l1);
        let getx = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::GetX { .. }))
            .expect("GetX");
        l1.push_msg(Msg::new(
            getx.dst,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(0x1000),
                data: LineData::zeroed(64),
                ts: None,
            },
        ));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(l1.epoch(), 0);
        let writes_needed = h.cfg.tsocc_ts_group * (h.cfg.tsocc_ts_max + 2);
        for i in 0..writes_needed {
            l1.push_core_request(CoreRequest {
                tag: 100 + i,
                addr: Address(0x1000),
                kind: CoreReqKind::Store { value: i + 2 },
            });
            h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        }
        assert!(
            l1.epoch() >= 1,
            "enough writes must trigger a timestamp reset"
        );
        assert!(h.coverage.count(Transition::l1("M", "TimestampReset")) > 0);
    }

    #[test]
    fn downgrade_provides_data_and_keeps_shared_copy() {
        let mut h = Harness::new(BugConfig::none());
        let mut l1 = TsoCcL1::new(0, &h.cfg);
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Store { value: 42 },
        });
        let out = h.tick(&mut l1);
        let getx = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::GetX { .. }))
            .expect("GetX");
        let l2 = getx.dst;
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
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::Downgrade {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.tick(&mut l1);
        let wb = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::WbData { .. }))
            .expect("WbData");
        match &wb.payload {
            MsgPayload::WbData {
                data, dirty, ts, ..
            } => {
                assert!(*dirty);
                assert_eq!(data.word(0), 42);
                assert!(ts.is_some(), "writebacks carry the writer timestamp");
            }
            _ => unreachable!(),
        }
        assert!(out.lq_notices.is_empty(), "downgrade keeps read permission");
        assert_eq!(l1.resident_lines(), 1);
        // Recall, by contrast, strips the line and notifies the LQ.
        l1.push_msg(Msg::new(
            l2,
            NodeId(0),
            MsgPayload::Recall {
                line: LineAddr(0x1000),
            },
        ));
        let out = h.tick(&mut l1);
        assert!(out.lq_notices.contains(&LineAddr(0x1000)));
        assert_eq!(l1.resident_lines(), 0);
        assert!(h.errors.is_empty());
    }
}
