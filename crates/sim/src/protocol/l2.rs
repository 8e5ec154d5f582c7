//! The L2 bank skeleton both protocols share.
//!
//! [`L2`] is a blocking directory bank: it owns the cache array, the in-flight
//! transactions (one per line, in a `LineTable`), the memory fetches in
//! flight (in a `LineTable` of their own), the request and response queues
//! and the delayed outgoing messages.  It serves what MESI and TSO-CC do
//! alike: the tick (responses first, then requests with head-of-line
//! blocking), the memory fetch of a line that is not present from the `NP` +
//! `GetS` / `GetX` that starts it to the `MemData` that installs the line and
//! grants it, the replacement that makes room for it, the stale-`PutX` answer
//! and the reporting of invalid transitions.  A protocol ([`L2Protocol`])
//! supplies its line and transaction types, what a fetched line is and how it
//! is granted, and its per-(state, event) arms.  Nothing here branches on the
//! protocol.

use crate::bugs::BugConfig;
use crate::cache::CacheArray;
use crate::config::SystemConfig;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload, VirtualNetwork};
use crate::protocol::{earliest_release, release_due, L2Controller, LineTable, TickCtx};
use crate::system::ProtocolError;
use crate::types::{Cycle, LineAddr, LineData, NodeId};
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// What a coherence protocol supplies to the shared [`L2`] bank.
pub(crate) trait L2Protocol: Sized + fmt::Debug {
    /// The bank's name in protocol errors: `L2` reports as `L2[bank]`.
    const COMPONENT: &'static str;
    /// A resident line.
    type Line: Clone + fmt::Debug;
    /// An in-flight directory transaction.
    type Trans: Clone + fmt::Debug;

    /// The directory state of a resident line, as coverage names it.
    fn state_name(line: &Self::Line) -> &'static str;

    /// The transient states of a memory fetch for a `GetS` and for a `GetX`,
    /// as coverage names them.
    const FETCHING: [&'static str; 2];

    /// The line that memory's `data` installs for `requestor`'s `GetS`, or
    /// its `GetX` if `exclusive`, and the grant that answers the request.
    fn fetched(
        line: LineAddr,
        data: LineData,
        requestor: usize,
        exclusive: bool,
    ) -> (Self::Line, MsgPayload);

    /// Starts evicting the resident line `victim` (its `Replacement` is
    /// already recorded).  Returns `true` if its way is free now, `false` if
    /// the eviction is in flight.
    fn evict(l2: &mut L2<Self>, ctx: &mut TickCtx<'_>, victim: LineAddr, entry: Self::Line)
        -> bool;

    /// Processes a request for a resident line with no transaction in
    /// flight, from core `src_core` if an L1 sent it.  Returns `false` if it
    /// must stall.
    fn request(
        l2: &mut L2<Self>,
        ctx: &mut TickCtx<'_>,
        msg: &Msg,
        src_core: Option<usize>,
    ) -> bool;

    /// Processes a response to `trans`, the transaction in flight on its
    /// line.
    fn response(l2: &mut L2<Self>, ctx: &mut TickCtx<'_>, msg: Msg, trans: Self::Trans);

    /// Bug hook: whether a stale `PutX` is reported as an invalid transition
    /// instead of being answered with `WbStale`.
    fn stale_putx_faults(_bugs: &BugConfig) -> bool {
        false
    }
}

/// A memory fetch in flight for `requestor`'s `GetS`, or its `GetX` if
/// `exclusive`.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    requestor: usize,
    exclusive: bool,
}

/// A shared L2 bank (directory) of protocol `P`.
#[derive(Debug)]
pub(crate) struct L2<P: L2Protocol> {
    bank: usize,
    node: NodeId,
    pub(super) cache: CacheArray<P::Line>,
    /// The protocol's transactions in flight on resident lines.
    pub(super) trans: LineTable<P::Trans>,
    fetches: LineTable<Fetch>,
    requests: VecDeque<Msg>,
    responses: VecDeque<Msg>,
    pending_out: Vec<(Cycle, Msg)>,
    protocol: PhantomData<P>,
}

impl<P: L2Protocol> L2<P> {
    /// Creates the controller for L2 bank `bank`.
    pub(crate) fn new(bank: usize, cfg: &SystemConfig) -> Self {
        L2 {
            bank,
            node: cfg.node_of_l2(bank),
            cache: CacheArray::new(cfg.l2_sets(), cfg.l2_ways, cfg.line_bytes),
            trans: LineTable::new(),
            fetches: LineTable::new(),
            requests: VecDeque::new(),
            responses: VecDeque::new(),
            pending_out: Vec::new(),
            protocol: PhantomData,
        }
    }

    /// Sends a data or acknowledgement response after the bank's access
    /// latency, drawn from the RNG.
    pub(super) fn send_response(
        &mut self,
        ctx: &mut TickCtx<'_>,
        dst: NodeId,
        payload: MsgPayload,
    ) {
        let latency = ctx
            .rng
            .gen_range(ctx.cfg.latency.l2_min..=ctx.cfg.latency.l2_max);
        self.pending_out
            .push((ctx.cycle + latency, Msg::new(self.node, dst, payload)));
    }

    /// Sends a control message to an L1.
    pub(super) fn send_forward(&mut self, ctx: &mut TickCtx<'_>, dst: NodeId, payload: MsgPayload) {
        // Control messages take only the tag-lookup portion of the bank
        // latency.
        let latency = ctx.cfg.latency.l2_min / 2;
        self.pending_out
            .push((ctx.cycle + latency, Msg::new(self.node, dst, payload)));
    }

    /// Sends a request to the memory controller.
    pub(super) fn send_mem(&mut self, ctx: &mut TickCtx<'_>, payload: MsgPayload) {
        let latency = ctx.cfg.latency.l2_min / 2;
        self.pending_out.push((
            ctx.cycle + latency,
            Msg::new(self.node, ctx.cfg.node_of_memory(), payload),
        ));
    }

    /// Returns `true` if a memory fetch is already outstanding for a line in
    /// the same cache set.  Such a fetch has reserved the set's free way, so
    /// further allocations into the set must wait (otherwise the data arriving
    /// from memory would find the set full again).
    fn set_has_pending_fetch(&self, line: LineAddr) -> bool {
        let set = self.cache.set_index(line);
        self.fetches
            .lines()
            .any(|fetching| self.cache.set_index(fetching) == set)
    }

    /// Reports that this bank has no transition for `event` in `state`.
    pub(super) fn invalid(
        &self,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        state: &'static str,
        event: &'static str,
    ) {
        ctx.errors.push(ProtocolError::invalid_transition(
            ctx.cycle,
            format!("{}[{}]", P::COMPONENT, self.bank),
            line,
            state,
            event,
        ));
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
            .record(Transition::l2(P::state_name(&entry), "Replacement"));
        P::evict(self, ctx, victim, entry)
    }

    /// `NP` + `GetS` / `GetX` (`exclusive`): fetches `line` from memory once
    /// its set has a way for it.  Returns `false` if the request must stall.
    fn fetch(
        &mut self,
        ctx: &mut TickCtx<'_>,
        line: LineAddr,
        src_core: Option<usize>,
        exclusive: bool,
    ) -> bool {
        if self.set_has_pending_fetch(line) || !self.make_room(ctx, line) {
            return false;
        }
        let event = if exclusive { "GetX" } else { "GetS" };
        ctx.coverage.record(Transition::l2("NP", event));
        let requestor = src_core.expect("GetS and GetX come from an L1");
        self.fetches.insert(
            line,
            Fetch {
                requestor,
                exclusive,
            },
        );
        self.send_mem(ctx, MsgPayload::MemRead { line });
        true
    }

    /// `FETCHING` + `MemData`: installs the fetched line and grants it.
    fn complete_fetch(&mut self, ctx: &mut TickCtx<'_>, msg: Msg, fetch: Fetch) {
        let state = P::FETCHING[usize::from(fetch.exclusive)];
        let MsgPayload::MemData { line, data } = msg.payload else {
            let line = msg.payload.line();
            return self.invalid(ctx, line, state, msg.payload.event_name());
        };
        ctx.coverage.record(Transition::l2(state, "MemData"));
        self.fetches.remove(&line);
        let (entry, grant) = P::fetched(line, data, fetch.requestor, fetch.exclusive);
        self.cache.insert(line, entry);
        let dst = ctx.cfg.node_of_l1(fetch.requestor);
        self.send_response(ctx, dst, grant);
    }

    /// A writeback (`PutX`) from a core that is not (or is no longer) the
    /// owner of a line in `state`: the late-PUTX race.  The correct design
    /// acknowledges it as stale.
    pub(super) fn stale_putx(
        &mut self,
        ctx: &mut TickCtx<'_>,
        msg: &Msg,
        state: &'static str,
    ) -> bool {
        let line = msg.payload.line();
        if P::stale_putx_faults(ctx.bugs) {
            self.invalid(ctx, line, state, "PutX");
            return true;
        }
        ctx.coverage.record(Transition::l2(state, "PutXStale"));
        self.send_response(ctx, msg.src, MsgPayload::WbStale { line });
        true
    }

    /// Processes one request message.  Returns `false` if it must stall.
    fn process_request(&mut self, ctx: &mut TickCtx<'_>, msg: &Msg) -> bool {
        let line = msg.payload.line();
        if self.trans.contains_key(&line) || self.fetches.contains_key(&line) {
            // Blocking directory: the line is busy.
            return false;
        }
        let src_core = ctx.cfg.l1_index(msg.src);
        if self.cache.contains(line) {
            return P::request(self, ctx, msg, src_core);
        }
        match &msg.payload {
            MsgPayload::GetS { .. } => self.fetch(ctx, line, src_core, false),
            MsgPayload::GetX { .. } => self.fetch(ctx, line, src_core, true),
            MsgPayload::PutX { .. } => self.stale_putx(ctx, msg, "NP"),
            payload => {
                self.invalid(ctx, line, "NP", payload.event_name());
                true
            }
        }
    }

    /// Processes one response message (never stalled).
    fn process_response(&mut self, ctx: &mut TickCtx<'_>, msg: Msg) {
        let line = msg.payload.line();
        if let Some(&fetch) = self.fetches.get(&line) {
            return self.complete_fetch(ctx, msg, fetch);
        }
        match self.trans.get(&line).cloned() {
            Some(trans) => P::response(self, ctx, msg, trans),
            None => self.invalid(ctx, line, "no-transaction", msg.payload.event_name()),
        }
    }
}

impl<P: L2Protocol> L2Controller for L2<P> {
    fn push_msg(&mut self, msg: Msg) {
        match msg.payload.vnet() {
            VirtualNetwork::Request => self.requests.push_back(msg),
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
        progress && !self.requests.is_empty()
    }

    fn next_release(&self) -> Option<Cycle> {
        earliest_release(&self.pending_out)
    }

    fn is_idle(&self) -> bool {
        self.trans.is_empty()
            && self.fetches.is_empty()
            && self.requests.is_empty()
            && self.responses.is_empty()
            && self.pending_out.is_empty()
    }

    fn hard_reset(&mut self) {
        self.cache.drain_all();
        self.trans.clear();
        self.fetches.clear();
        self.requests.clear();
        self.responses.clear();
        self.pending_out.clear();
    }
}
