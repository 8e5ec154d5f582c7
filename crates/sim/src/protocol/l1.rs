//! The L1 controller skeleton both protocols share.
//!
//! [`L1`] is a private L1 cache controller: it owns the cache array, one MSHR
//! per line with a transaction in flight, the core-request and message queues
//! and the responses waiting out the hit latency.  It serves what MESI and
//! TSO-CC do alike: the tick (messages first, then core requests with
//! head-of-line blocking), attaching a core request to a transaction already
//! in flight, the `Load` and `Store` misses from `I` (into `IS` and `IM`),
//! every `Flush`, starting a miss, replacement (the writeback transaction
//! `MI`, including its `WbAck` / `WbStale` and the forwards that race with
//! it), serving the requests an MSHR collected once the data arrives,
//! installing lines, replaying the messages deferred meanwhile, and the
//! reporting of invalid transitions.  A protocol ([`L1Protocol`]) supplies
//! its transient states, what its lines carry, the per-core state it keeps
//! across resets and its per-(state, event) arms: hits, upgrades, RMWs,
//! fences and messages.  Nothing here branches on the protocol.

use crate::bugs::BugConfig;
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
use std::collections::VecDeque;
use std::fmt;

/// What a coherence protocol supplies to the shared [`L1`] controller.
pub(crate) trait L1Protocol: Sized + fmt::Debug {
    /// The L1's name in protocol errors: `L1` reports as `L1[core]`.
    const COMPONENT: &'static str;
    /// Counts core requests that needed a coherence transaction, once each,
    /// when [`L1::start_miss`] opens its MSHR.
    const MISSES: &'static telemetry::Counter;
    /// The transient (MSHR) states.
    type Transient: Transient;
    /// What a resident line carries besides its state, data and dirtiness.
    type Meta: LineMeta;
    /// Per-core protocol state that survives
    /// [`hard_reset`](L1Controller::hard_reset) (a [`System::mark`] copies
    /// it).
    ///
    /// [`System::mark`]: crate::system::System::mark
    type Kept: Clone + Default + fmt::Debug + 'static;

    /// Processes a core request for `line` (in `state`, `None` if not
    /// present), which has no transaction in flight and which the skeleton
    /// does not serve itself (a `Load` or `Store` from `I`, a `Flush`).
    /// Returns `false` if it must stall.
    fn core_request(
        l1: &mut L1<Self>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        op: PendingOp,
        line: LineAddr,
        state: Option<L1State>,
    ) -> bool;

    /// Handles a protocol message for a line (in `state`, `None` if not
    /// present) with no transaction in flight.
    fn stable(
        l1: &mut L1<Self>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: Msg,
        state: Option<L1State>,
    );

    /// Handles a protocol message for a line whose transaction is in
    /// `tstate` (the skeleton closes a writeback on `WbAck` / `WbStale`).
    fn transient(
        l1: &mut L1<Self>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: Msg,
        tstate: Self::Transient,
    );

    /// Hook: the writer stamp a store or RMW served from an MSHR gives its
    /// line, if the protocol keeps one.
    fn stamp_write(_l1: &mut L1<Self>, _ctx: &mut TickCtx<'_>) -> Option<TsInfo> {
        None
    }

    /// Bug hook: whether evicting (replacing or flushing) a Shared line
    /// skips the load-queue notice.
    fn hides_shared_eviction(_bugs: &BugConfig) -> bool {
        false
    }
}

/// A protocol's transient (MSHR) states.
pub(crate) trait Transient: Copy + PartialEq + fmt::Debug {
    /// A load's miss from `I`: `GetS` outstanding.
    const IS: Self;
    /// A store's miss from `I`: `GetX` outstanding.
    const IM: Self;
    /// The writeback transaction: `PutX` outstanding.
    const MI: Self;

    /// The state's name, as coverage names it.
    fn name(self) -> &'static str;

    /// Whether a core request of `kind` waits on a transaction in this state
    /// (and is served when it completes) rather than stalling until it ends.
    fn takes(self, kind: CoreReqKind) -> bool;
}

/// What a protocol's resident L1 lines carry besides state, data and
/// dirtiness.
pub(crate) trait LineMeta: Clone + fmt::Debug {
    /// The metadata of a line installed with writer stamp `ts`.
    fn installed(ts: Option<TsInfo>, cfg: &SystemConfig) -> Self;

    /// The writer stamp the line's writebacks carry.
    fn ts(&self) -> Option<TsInfo>;
}

/// Lines that carry nothing more.
impl LineMeta for () {
    fn installed(_ts: Option<TsInfo>, _cfg: &SystemConfig) {}

    fn ts(&self) -> Option<TsInfo> {
        None
    }
}

/// Stable states of a resident L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L1State {
    /// Readable, possibly shared with other L1s.
    Shared,
    /// Exclusively held, clean.
    Exclusive,
    /// Exclusively held, modified.
    Modified,
}

impl L1State {
    /// The state's name, as coverage names it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            L1State::Shared => "S",
            L1State::Exclusive => "E",
            L1State::Modified => "M",
        }
    }
}

/// A resident L1 line.
#[derive(Debug, Clone)]
pub(super) struct L1Line<M> {
    pub(super) state: L1State,
    pub(super) data: LineData,
    pub(super) dirty: bool,
    pub(super) meta: M,
}

/// A core operation: served at once or waiting on an outstanding
/// transaction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingOp {
    pub(super) tag: u64,
    pub(super) word: usize,
    pub(super) kind: CoreReqKind,
}

/// An outstanding transaction (one per line).
#[derive(Debug)]
pub(super) struct Mshr<T> {
    pub(super) tstate: T,
    pub(super) pending: Vec<PendingOp>,
    /// Forwards/invalidations received before the data arrived; replayed once
    /// the line is installed.
    pub(super) deferred: Vec<Msg>,
    /// For MI: the data being written back, its dirtiness and writer stamp
    /// (needed to answer forwards that race with the writeback).
    wb_data: Option<(LineData, bool, Option<TsInfo>)>,
    /// Flush requests waiting for the writeback acknowledgement.
    pending_flush: Vec<u64>,
}

impl<T> Mshr<T> {
    fn new(tstate: T) -> Self {
        Mshr {
            tstate,
            pending: Vec::new(),
            deferred: Vec::new(),
            wb_data: None,
            pending_flush: Vec::new(),
        }
    }
}

/// A private L1 cache controller of protocol `P`.
#[derive(Debug)]
pub(crate) struct L1<P: L1Protocol> {
    pub(super) core: usize,
    node: NodeId,
    pub(super) cache: CacheArray<L1Line<P::Meta>>,
    pub(super) mshrs: LineTable<Mshr<P::Transient>>,
    core_requests: VecDeque<CoreRequest>,
    msg_inbox: VecDeque<Msg>,
    ready_responses: Vec<(Cycle, CoreResponse)>,
    line_bytes: u64,
    pub(super) kept: P::Kept,
}

impl<P: L1Protocol> L1<P> {
    /// Creates the L1 for core `core`.
    pub(crate) fn new(core: usize, cfg: &SystemConfig) -> Self {
        L1 {
            core,
            node: cfg.node_of_l1(core),
            cache: CacheArray::new(cfg.l1_sets(), cfg.l1_ways, cfg.line_bytes),
            mshrs: LineTable::new(),
            core_requests: VecDeque::new(),
            msg_inbox: VecDeque::new(),
            ready_responses: Vec::new(),
            line_bytes: cfg.line_bytes,
            kept: P::Kept::default(),
        }
    }

    /// Sends `payload` to `dst`.
    pub(super) fn reply(&self, out: &mut L1Output, dst: NodeId, payload: MsgPayload) {
        out.to_network.push(Msg::new(self.node, dst, payload));
    }

    /// Sends `payload` to the L2 bank that is home to `line`.
    fn send_home(
        &self,
        out: &mut L1Output,
        ctx: &TickCtx<'_>,
        line: LineAddr,
        payload: MsgPayload,
    ) {
        let home = ctx.cfg.node_of_l2(ctx.cfg.bank_of_line(line));
        self.reply(out, home, payload);
    }

    /// Answers the core after the hit latency.
    pub(super) fn respond(&mut self, ctx: &TickCtx<'_>, tag: u64, kind: CoreRespKind) {
        self.ready_responses.push((
            ctx.cycle + ctx.cfg.latency.l1_hit,
            CoreResponse { tag, kind },
        ));
    }

    /// Reports that this L1 has no transition for `event` in `state`.
    pub(super) fn invalid(
        &self,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        state: &'static str,
        event: &'static str,
    ) {
        ctx.errors.push(ProtocolError::invalid_transition(
            ctx.cycle,
            format!("{}[{}]", P::COMPONENT, self.core),
            line,
            state,
            event,
        ));
    }

    /// Opens a `tstate` transaction for `line` with `op` waiting on it and
    /// asks the directory for the line: `GetX` if `exclusive`, else `GetS`.
    pub(super) fn start_miss(
        &mut self,
        out: &mut L1Output,
        ctx: &TickCtx<'_>,
        line: LineAddr,
        tstate: P::Transient,
        op: PendingOp,
        exclusive: bool,
    ) {
        P::MISSES.incr();
        let mut mshr = Mshr::new(tstate);
        mshr.pending.push(op);
        self.mshrs.insert(line, mshr);
        let payload = if exclusive {
            MsgPayload::GetX { line }
        } else {
            MsgPayload::GetS { line }
        };
        self.send_home(out, ctx, line, payload);
    }

    /// Defers a message that arrived before the data of the line's
    /// transaction (in `tstate`); it is replayed once the line is installed.
    pub(super) fn defer(&mut self, ctx: &mut TickCtx<'_>, msg: Msg, tstate: P::Transient) {
        ctx.coverage
            .record(Transition::l1(tstate.name(), msg.payload.event_name()));
        let line = msg.payload.line();
        self.mshrs.get_mut(&line).expect("mshr").deferred.push(msg);
    }

    /// Opens the writeback transaction (`MI`) of `line` and sends the `PutX`.
    fn write_back(
        &mut self,
        out: &mut L1Output,
        ctx: &TickCtx<'_>,
        line: LineAddr,
        data: LineData,
        dirty: bool,
        ts: Option<TsInfo>,
    ) {
        let mut mshr = Mshr::new(P::Transient::MI);
        mshr.wb_data = Some((data.clone(), dirty, ts));
        self.mshrs.insert(line, mshr);
        self.send_home(
            out,
            ctx,
            line,
            MsgPayload::PutX {
                line,
                data,
                dirty,
                ts,
            },
        );
    }

    /// Evicts `line` if it is resident, starting its writeback if it is held
    /// exclusively.  The caller records why.
    fn evict_line(&mut self, out: &mut L1Output, ctx: &TickCtx<'_>, line: LineAddr) {
        let Some(entry) = self.cache.remove(line) else {
            return;
        };
        let state = entry.state;
        match state {
            L1State::Shared => {
                // Silent drop; a directory that tracks sharers keeps a stale
                // entry, and a later Inv is simply acknowledged from I.
                if !P::hides_shared_eviction(ctx.bugs) {
                    out.lq_notices.push(line);
                }
            }
            L1State::Exclusive | L1State::Modified => {
                let dirty = entry.dirty || state == L1State::Modified;
                let ts = entry.meta.ts();
                self.write_back(out, ctx, line, entry.data, dirty, ts);
                // Losing the line means later invalidations for it can no
                // longer be observed; the LQ must be told.
                out.lq_notices.push(line);
            }
        }
    }

    /// Makes room for `line` if its set is full.  Returns `false` if the
    /// victim is itself in a transaction (caller must retry later).
    pub(super) fn make_room(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
    ) -> bool {
        if !self.cache.needs_eviction(line) {
            return true;
        }
        let victim = self.cache.victim_for(line).expect("set is full");
        if self.mshrs.contains_key(&victim) {
            return false;
        }
        let state = self.cache.get(victim).expect("victim resident").state;
        ctx.coverage
            .record(Transition::l1(state.name(), "Replacement"));
        self.evict_line(out, ctx, victim);
        true
    }

    /// Flushes `line` from this L1; the flush completes when its writeback,
    /// if any, is acknowledged.
    fn flush(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, tag: u64, line: LineAddr) {
        let state = self.cache.get(line).map(|l| l.state);
        ctx.coverage
            .record(Transition::l1(state.map_or("I", L1State::name), "Flush"));
        self.evict_line(out, ctx, line);
        if let Some(mshr) = self.mshrs.get_mut(&line) {
            // E/M flush: completion deferred until the writeback acks.
            mshr.pending_flush.push(tag);
        } else {
            self.respond(ctx, tag, CoreRespKind::FlushDone);
        }
    }

    /// Serves the operations queued on an MSHR against a just-arrived line
    /// value, stamping `line_ts` for every write.  Returns whether any of
    /// them wrote.
    pub(super) fn serve(
        &mut self,
        ctx: &mut TickCtx<'_>,
        pending: Vec<PendingOp>,
        data: &mut LineData,
        line_ts: &mut Option<TsInfo>,
    ) -> bool {
        let mut wrote = false;
        for op in pending {
            let kind = match op.kind {
                CoreReqKind::Load => CoreRespKind::LoadDone {
                    value: data.word(op.word),
                },
                CoreReqKind::Store { value } => {
                    self.stamp(ctx, line_ts);
                    wrote = true;
                    CoreRespKind::StoreDone {
                        overwritten: data.set_word(op.word, value),
                    }
                }
                CoreReqKind::Rmw { write_value } => {
                    self.stamp(ctx, line_ts);
                    wrote = true;
                    CoreRespKind::RmwDone {
                        read_value: data.set_word(op.word, write_value),
                    }
                }
                CoreReqKind::Flush => CoreRespKind::FlushDone,
                CoreReqKind::Fence => CoreRespKind::FenceDone,
            };
            self.respond(ctx, op.tag, kind);
        }
        wrote
    }

    /// Stamps `line_ts` with one more write, if the protocol keeps stamps.
    fn stamp(&mut self, ctx: &mut TickCtx<'_>, line_ts: &mut Option<TsInfo>) {
        if let Some(ts) = P::stamp_write(self, ctx) {
            *line_ts = Some(ts);
        }
    }

    /// Completes a fill of `line` in `state` (a `GetS` answered): serves the
    /// waiting operations, installs the line and replays deferred messages.
    pub(super) fn fill(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        mut data: LineData,
        mut ts: Option<TsInfo>,
        state: L1State,
    ) {
        let mshr = self.mshrs.remove(&line).expect("mshr");
        self.serve(ctx, mshr.pending, &mut data, &mut ts);
        if !self.make_room(out, ctx, line) {
            // The victim has an outstanding transaction; extremely rare.  Fall
            // back to not caching the data (it has already served its pending
            // operations): the LQ is notified as the line is immediately
            // "lost", and an exclusive grant is written back (clean) first, so
            // the directory does not keep an owner that holds nothing.
            if state == L1State::Exclusive {
                self.write_back(out, ctx, line, data, false, ts);
            }
            out.lq_notices.push(line);
        } else {
            let meta = P::Meta::installed(ts, ctx.cfg);
            self.cache.insert(
                line,
                L1Line {
                    state,
                    data,
                    dirty: false,
                    meta,
                },
            );
        }
        self.replay_deferred(out, ctx, mshr.deferred);
    }

    /// Completes an exclusive fill of `line` (a `GetX` answered): serves the
    /// waiting operations into the granted data and installs it Modified.
    pub(super) fn fill_modified(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        mut data: LineData,
        mut ts: Option<TsInfo>,
    ) {
        let mshr = self.mshrs.remove(&line).expect("mshr");
        // Start from the freshly granted data (a line upgraded from Shared may
        // still have a stale copy resident; the granted data wins).
        self.cache.remove(line);
        let wrote = self.serve(ctx, mshr.pending, &mut data, &mut ts);
        if !self.make_room(out, ctx, line) {
            // Cannot cache: immediately write the line back so the data (and
            // any stores just performed into it) are not lost.
            self.write_back(out, ctx, line, data, true, ts);
            out.lq_notices.push(line);
        } else {
            let meta = P::Meta::installed(ts, ctx.cfg);
            let state = L1State::Modified;
            self.cache.insert(
                line,
                L1Line {
                    state,
                    data,
                    dirty: wrote,
                    meta,
                },
            );
        }
        self.replay_deferred(out, ctx, mshr.deferred);
    }

    /// Answers a forward that raced with this L1's writeback (`MI`) with the
    /// data being written back.
    pub(super) fn answer_from_writeback(
        &self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: &Msg,
    ) {
        let line = msg.payload.line();
        ctx.coverage
            .record(Transition::l1("MI", msg.payload.event_name()));
        let (data, dirty, ts) = self
            .mshrs
            .get(&line)
            .and_then(|m| m.wb_data.clone())
            .expect("MI transaction carries writeback data");
        self.reply(
            out,
            msg.src,
            MsgPayload::WbData {
                line,
                data,
                dirty,
                ts,
            },
        );
    }

    /// Replays the messages an MSHR deferred, in arrival order.
    pub(super) fn replay_deferred(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        deferred: Vec<Msg>,
    ) {
        for msg in deferred {
            self.handle_msg(out, ctx, msg);
        }
    }

    /// Handles one protocol message.
    fn handle_msg(&mut self, out: &mut L1Output, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        let Some(tstate) = self.mshrs.get(&line).map(|m| m.tstate) else {
            let state = self.cache.get(line).map(|l| l.state);
            return P::stable(self, out, ctx, msg, state);
        };
        let acked = matches!(
            msg.payload,
            MsgPayload::WbAck { .. } | MsgPayload::WbStale { .. }
        );
        if !(acked && tstate == P::Transient::MI) {
            return P::transient(self, out, ctx, msg, tstate);
        }
        // The writeback is acknowledged: waiting flushes complete.
        ctx.coverage
            .record(Transition::l1(tstate.name(), msg.payload.event_name()));
        let mshr = self.mshrs.remove(&line).expect("mshr");
        for tag in mshr.pending_flush {
            self.respond(ctx, tag, CoreRespKind::FlushDone);
        }
    }

    /// Attempts to process one core request.  Returns `false` if the request
    /// must stall (left at the head of the queue).
    fn process_core_request(
        &mut self,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        req: CoreRequest,
    ) -> bool {
        let line = LineAddr::containing(req.addr, self.line_bytes);
        let op = PendingOp {
            tag: req.tag,
            word: line.word_index(req.addr, self.line_bytes),
            kind: req.kind,
        };
        // Attach to an existing transaction when possible; everything else
        // waits for the transaction to finish.
        if let Some(mshr) = self.mshrs.get_mut(&line) {
            if !mshr.tstate.takes(req.kind) {
                return false;
            }
            mshr.pending.push(op);
            return true;
        }
        let state = self.cache.get(line).map(|l| l.state);
        match (req.kind, state) {
            (CoreReqKind::Load | CoreReqKind::Store { .. }, None) => {
                if !self.make_room(out, ctx, line) {
                    return false;
                }
                let exclusive = req.kind != CoreReqKind::Load;
                let (tstate, event) = if exclusive {
                    (P::Transient::IM, "Store")
                } else {
                    (P::Transient::IS, "Load")
                };
                ctx.coverage.record(Transition::l1("I", event));
                self.start_miss(out, ctx, line, tstate, op, exclusive);
                true
            }
            (CoreReqKind::Flush, _) => {
                self.flush(out, ctx, req.tag, line);
                true
            }
            _ => P::core_request(self, out, ctx, op, line, state),
        }
    }
}

impl<P: L1Protocol> L1Controller for L1<P> {
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
            self.handle_msg(out, ctx, msg);
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

        progress |= emitted != (out.to_network.len(), out.lq_notices.len());
        progress && !self.core_requests.is_empty()
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
        // `kept` is architectural and survives resets of the test memory
        // (matching how a real core's counters would behave).
    }

    fn save(&self) -> Box<dyn Any> {
        Box::new(self.kept.clone())
    }

    fn restore(&mut self, saved: Box<dyn Any>) {
        self.kept = *saved
            .downcast::<P::Kept>()
            .expect("restores what this L1 saved");
    }
}
