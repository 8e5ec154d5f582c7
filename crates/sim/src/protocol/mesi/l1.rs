//! The MESI private L1 cache controller.
//!
//! Stable states: `I` (not present), `S`, `E`, `M`.  Transient states (one
//! MSHR per line): `IS` (GetS outstanding), `IS_I` (GetS outstanding, an
//! invalidation was sunk while waiting), `IM` (GetX outstanding from I), `SM`
//! (GetX outstanding from S), `MI` (writeback outstanding).  The controller
//! itself is the shared [`L1`] skeleton; this file holds MESI's transitions.
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

use super::Mesi;
use crate::bugs::{Bug, BugConfig};
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload};
use crate::protocol::l1::Transient as _;
use crate::protocol::l1::{self, L1Protocol, L1State, PendingOp, L1};
use crate::protocol::{CoreReqKind, CoreRespKind, L1Output, TickCtx};
use crate::types::LineAddr;
use mcversi_telemetry as telemetry;

/// Core requests served from a resident line with sufficient permission.
static L1_HITS: telemetry::Counter = telemetry::Counter::new("sim.l1.mesi.hit");
/// Core requests needing a coherence transaction (fill or upgrade).
static L1_MISSES: telemetry::Counter = telemetry::Counter::new("sim.l1.mesi.miss");

/// The MESI L1 controller for one core.
pub(crate) type MesiL1 = L1<Mesi>;

/// MESI's transient (MSHR) states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transient {
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

impl l1::Transient for Transient {
    const IS: Self = Transient::IS;
    const IM: Self = Transient::IM;
    const MI: Self = Transient::MI;

    fn name(self) -> &'static str {
        match self {
            Transient::IS => "IS",
            Transient::IsI => "IS_I",
            Transient::IM => "IM",
            Transient::SM => "SM",
            Transient::MI => "MI",
        }
    }

    fn takes(self, kind: CoreReqKind) -> bool {
        use Transient::*;
        matches!(
            (self, kind),
            (IS | IsI | IM | SM, CoreReqKind::Load)
                | (IM | SM, CoreReqKind::Store { .. } | CoreReqKind::Rmw { .. })
        )
    }
}

/// Emits an LQ notice unless `suppressed_by`, the bug governing this (state,
/// event) pair, is injected.
fn notify_lq(out: &mut L1Output, ctx: &TickCtx<'_>, line: LineAddr, suppressed_by: Bug) {
    if !ctx.bugs.has(suppressed_by) {
        out.lq_notices.push(line);
    }
}

impl L1Protocol for Mesi {
    const COMPONENT: &'static str = "L1";
    const MISSES: &'static telemetry::Counter = &L1_MISSES;
    type Transient = Transient;
    type Meta = ();
    type Kept = ();

    fn core_request(
        l1: &mut L1<Mesi>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        op: PendingOp,
        line: LineAddr,
        state: Option<L1State>,
    ) -> bool {
        match (op.kind, state) {
            // ---- Loads ----
            (CoreReqKind::Load, Some(state)) => {
                ctx.coverage.record(Transition::l1(state.name(), "Load"));
                L1_HITS.incr();
                let value = l1.cache.get_mut(line).expect("resident").data.word(op.word);
                l1.respond(ctx, op.tag, CoreRespKind::LoadDone { value });
                true
            }

            // ---- Stores ----
            (CoreReqKind::Store { value }, Some(L1State::Modified)) => {
                ctx.coverage.record(Transition::l1("M", "Store"));
                L1_HITS.incr();
                let entry = l1.cache.get_mut(line).expect("resident");
                let overwritten = entry.data.set_word(op.word, value);
                entry.dirty = true;
                l1.respond(ctx, op.tag, CoreRespKind::StoreDone { overwritten });
                true
            }
            (CoreReqKind::Store { value }, Some(L1State::Exclusive)) => {
                ctx.coverage.record(Transition::l1("E", "Store"));
                L1_HITS.incr();
                let entry = l1.cache.get_mut(line).expect("resident");
                let overwritten = entry.data.set_word(op.word, value);
                entry.dirty = true;
                entry.state = L1State::Modified;
                l1.respond(ctx, op.tag, CoreRespKind::StoreDone { overwritten });
                true
            }
            (CoreReqKind::Store { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Store"));
                l1.start_miss(out, ctx, line, Transient::SM, op, true);
                true
            }

            // ---- RMWs ----
            (
                CoreReqKind::Rmw { write_value },
                Some(state @ (L1State::Modified | L1State::Exclusive)),
            ) => {
                ctx.coverage.record(Transition::l1(state.name(), "Rmw"));
                L1_HITS.incr();
                let entry = l1.cache.get_mut(line).expect("resident");
                let read_value = entry.data.set_word(op.word, write_value);
                entry.dirty = true;
                entry.state = L1State::Modified;
                l1.respond(ctx, op.tag, CoreRespKind::RmwDone { read_value });
                true
            }
            (CoreReqKind::Rmw { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Rmw"));
                l1.start_miss(out, ctx, line, Transient::SM, op, true);
                true
            }
            (CoreReqKind::Rmw { .. }, None) => {
                if !l1.make_room(out, ctx, line) {
                    return false;
                }
                ctx.coverage.record(Transition::l1("I", "Rmw"));
                l1.start_miss(out, ctx, line, Transient::IM, op, true);
                true
            }

            // ---- Fences ----
            // Under MESI, ordering across a fence is enforced by the core
            // (store buffer drain); the cache has nothing to do.
            (CoreReqKind::Fence, _) => {
                l1.respond(ctx, op.tag, CoreRespKind::FenceDone);
                true
            }

            (CoreReqKind::Load | CoreReqKind::Store { .. }, None) | (CoreReqKind::Flush, _) => {
                unreachable!("the skeleton serves misses from I and flushes")
            }
        }
    }

    fn stable(
        l1: &mut L1<Mesi>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: Msg,
        state: Option<L1State>,
    ) {
        let line = msg.payload.line();
        let state_name = state.map_or("I", L1State::name);
        let event = msg.payload.event_name();
        match (&msg.payload, state) {
            (MsgPayload::Inv { .. }, Some(L1State::Shared)) => {
                ctx.coverage.record(Transition::l1("S", "Inv"));
                l1.cache.remove(line);
                l1.reply(out, msg.src, MsgPayload::InvAck { line });
                out.lq_notices.push(line);
            }
            (MsgPayload::Inv { .. }, None) => {
                // Stale invalidation after a silent S replacement.
                ctx.coverage.record(Transition::l1("I", "Inv"));
                l1.reply(out, msg.src, MsgPayload::InvAck { line });
            }
            (MsgPayload::FwdGetS { .. }, Some(L1State::Exclusive | L1State::Modified)) => {
                ctx.coverage.record(Transition::l1(state_name, "FwdGetS"));
                let entry = l1.cache.get_mut(line).expect("resident");
                let (data, dirty) = (entry.data.clone(), entry.dirty);
                entry.state = L1State::Shared;
                entry.dirty = false;
                l1.reply(
                    out,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts: None,
                    },
                );
                // Read permission is retained; no LQ notice.
            }
            (
                MsgPayload::FwdGetX { .. } | MsgPayload::Recall { .. },
                Some(L1State::Exclusive | L1State::Modified),
            ) => {
                ctx.coverage.record(Transition::l1(state_name, event));
                let entry = l1.cache.remove(line).expect("resident");
                let (data, dirty) = (entry.data, entry.dirty);
                l1.reply(
                    out,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts: None,
                    },
                );
                let bug = match entry.state {
                    L1State::Exclusive => Bug::MesiLqEInv,
                    _ => Bug::MesiLqMInv,
                };
                notify_lq(out, ctx, line, bug);
            }
            // Any other (state, message) combination indicates the directory
            // and this cache disagree about ownership.
            _ => l1.invalid(ctx, line, state_name, event),
        }
    }

    fn transient(
        l1: &mut L1<Mesi>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: Msg,
        tstate: Transient,
    ) {
        let line = msg.payload.line();
        let event = msg.payload.event_name();
        match (&msg.payload, tstate) {
            // ---- Invalidations racing with our own requests ----
            (MsgPayload::Inv { .. }, Transient::IS) => {
                ctx.coverage.record(Transition::l1("IS", "Inv"));
                l1.reply(out, msg.src, MsgPayload::InvAck { line });
                l1.mshrs.get_mut(&line).expect("mshr").tstate = Transient::IsI;
            }
            (MsgPayload::Inv { .. }, Transient::IsI | Transient::IM | Transient::MI) => {
                ctx.coverage.record(Transition::l1(tstate.name(), "Inv"));
                l1.reply(out, msg.src, MsgPayload::InvAck { line });
            }
            (MsgPayload::Inv { .. }, Transient::SM) => {
                ctx.coverage.record(Transition::l1("SM", "Inv"));
                // Our Shared copy loses the race against another writer.
                l1.cache.remove(line);
                l1.reply(out, msg.src, MsgPayload::InvAck { line });
                notify_lq(out, ctx, line, Bug::MesiLqSmInv);
                l1.mshrs.get_mut(&line).expect("mshr").tstate = Transient::IM;
            }

            // ---- Forwards racing with our writeback ----
            (
                MsgPayload::FwdGetS { .. } | MsgPayload::FwdGetX { .. } | MsgPayload::Recall { .. },
                Transient::MI,
            ) => l1.answer_from_writeback(out, ctx, &msg),

            // ---- Forwards arriving before our data: defer ----
            (
                MsgPayload::FwdGetS { .. } | MsgPayload::FwdGetX { .. } | MsgPayload::Recall { .. },
                Transient::IS | Transient::IsI | Transient::IM | Transient::SM,
            ) => l1.defer(ctx, msg, tstate),

            // ---- Data responses ----
            (MsgPayload::DataS { data, .. } | MsgPayload::DataE { data, .. }, Transient::IS) => {
                ctx.coverage.record(Transition::l1("IS", event));
                let state = match msg.payload {
                    MsgPayload::DataE { .. } => L1State::Exclusive,
                    _ => L1State::Shared,
                };
                l1.fill(out, ctx, line, data.clone(), None, state);
            }
            (MsgPayload::DataS { data, .. }, Transient::IsI) => {
                ctx.coverage.record(Transition::l1("IS_I", event));
                // Use the data once for the pending loads, do not install, and
                // (in the correct design) tell the load queue about the sunk
                // invalidation so speculative loads get squashed.
                let mshr = l1.mshrs.remove(&line).expect("mshr");
                l1.serve(ctx, mshr.pending, &mut data.clone(), &mut None);
                notify_lq(out, ctx, line, Bug::MesiLqIsInv);
                l1.replay_deferred(out, ctx, mshr.deferred);
            }
            (MsgPayload::DataE { data, .. }, Transient::IsI) => {
                ctx.coverage.record(Transition::l1("IS_I", event));
                // The sunk invalidation was for a stale sharer entry: an
                // exclusive grant makes this L1 the directory's owner, so the
                // line must be installed for the forwards that follow.  The
                // load queue still hears of the invalidation.
                notify_lq(out, ctx, line, Bug::MesiLqIsInv);
                l1.fill(out, ctx, line, data.clone(), None, L1State::Exclusive);
            }
            (MsgPayload::DataX { data, .. }, Transient::IM | Transient::SM) => {
                ctx.coverage.record(Transition::l1(tstate.name(), "DataX"));
                l1.fill_modified(out, ctx, line, data.clone(), None);
            }

            _ => l1.invalid(ctx, line, tstate.name(), event),
        }
    }

    fn hides_shared_eviction(bugs: &BugConfig) -> bool {
        bugs.has(Bug::MesiLqSReplacement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugConfig;
    use crate::config::ProtocolKind;
    use crate::protocol::harness::Harness;
    use crate::protocol::{CoreRequest, L1Controller};
    use crate::types::{LineData, NodeId};
    use mcversi_mcm::Address;

    fn l1_with_harness(bugs: BugConfig) -> (MesiL1, Harness) {
        let h = Harness::new(ProtocolKind::Mesi, bugs);
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
    fn an_exclusive_grant_after_a_sunk_invalidation_is_installed() {
        // IS -> Inv -> IS_I -> DataE: the Inv was for a stale sharer entry,
        // and the directory now records this L1 as the owner, so the forward
        // that follows must find the line.
        let line = LineAddr(0x1000);
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        l1.push_core_request(CoreRequest {
            tag: 1,
            addr: Address(0x1000),
            kind: CoreReqKind::Load,
        });
        let l2 = h.tick(&mut l1).to_network[0].dst;
        l1.push_msg(Msg::new(l2, NodeId(0), MsgPayload::Inv { line }));
        h.tick(&mut l1);
        let data_e = MsgPayload::DataE {
            line,
            data: data_with(0, 11),
            ts: None,
        };
        l1.push_msg(Msg::new(l2, NodeId(0), data_e));
        let out = h.tick(&mut l1);
        assert_eq!(
            out.lq_notices,
            vec![line],
            "the sunk Inv still reaches the LQ"
        );
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 11 });
        assert_eq!(l1.resident_lines(), 1, "the exclusive grant is installed");

        l1.push_msg(Msg::new(l2, NodeId(0), MsgPayload::FwdGetS { line }));
        let out = h.tick(&mut l1);
        assert!(h.errors.is_empty(), "{:?}", h.errors);
        let answered = |m: &Msg| match &m.payload {
            MsgPayload::WbData { data, dirty, .. } => m.dst == l2 && !dirty && data.word(0) == 11,
            _ => false,
        };
        assert!(out.to_network.iter().any(answered), "{:?}", out.to_network);
        assert!(h.coverage.count(Transition::l1("E", "FwdGetS")) > 0);
    }

    #[test]
    fn an_exclusive_fill_that_finds_no_room_is_written_back_clean() {
        // Four lines of one set (2 ways).  A and B fill it; C's miss evicts
        // A; D takes the free way; B starts an upgrade (SM), which pins it
        // as the LRU victim.  C's exclusive data then finds no evictable way:
        // the line is not cached, and the grant goes back to the directory.
        let [a, b, c, d] = [0x1000u64, 0x1400, 0x1800, 0x1c00].map(Address);
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        let mut tag = 0;
        let mut request = |l1: &mut MesiL1, h: &mut Harness, addr: Address, kind| {
            tag += 1;
            l1.push_core_request(CoreRequest { tag, addr, kind });
            h.tick(l1).to_network.first().map(|m| m.dst)
        };
        let data_s = |addr: Address| MsgPayload::DataS {
            line: LineAddr(addr.0),
            data: data_with(0, 1),
            ts: None,
        };
        for addr in [a, b] {
            let home = request(&mut l1, &mut h, addr, CoreReqKind::Load).expect("GetS");
            l1.push_msg(Msg::new(home, NodeId(0), data_s(addr)));
            h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        }
        let c_home = request(&mut l1, &mut h, c, CoreReqKind::Load).expect("GetS");
        let d_home = request(&mut l1, &mut h, d, CoreReqKind::Load).expect("GetS");
        l1.push_msg(Msg::new(d_home, NodeId(0), data_s(d)));
        h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        request(&mut l1, &mut h, b, CoreReqKind::Store { value: 5 }).expect("GetX");

        let line = LineAddr(c.0);
        let data_e = MsgPayload::DataE {
            line,
            data: data_with(0, 7),
            ts: None,
        };
        l1.push_msg(Msg::new(c_home, NodeId(0), data_e));
        let out = h.tick(&mut l1);
        let written_back = |m: &Msg| match m.payload {
            MsgPayload::PutX { line: l, dirty, .. } => m.dst == c_home && l == line && !dirty,
            _ => false,
        };
        assert!(
            out.to_network.iter().any(written_back),
            "{:?}",
            out.to_network
        );
        assert!(out.lq_notices.contains(&line));
        let resp = h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        assert_eq!(resp.kind, CoreRespKind::LoadDone { value: 7 });
        // A forward that races with the writeback is answered from it.
        l1.push_msg(Msg::new(c_home, NodeId(0), MsgPayload::FwdGetS { line }));
        let out = h.tick(&mut l1);
        assert!(out
            .to_network
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::WbData { dirty: false, .. })));
        assert!(h.errors.is_empty(), "{:?}", h.errors);
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
    fn a_miss_behind_a_busy_victim_records_nothing_until_it_starts() {
        // Lines A, B and C share a set (2 ways).  A (Shared, least recently
        // used) is being upgraded when the load of C needs its way.
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        let stride = h.cfg.l1_sets() as u64 * h.cfg.line_bytes;
        let [a, b, c] = [0, 1, 2].map(|i| LineAddr(0x1000 + i * stride));
        let mut l2 = NodeId(0);
        for (tag, line) in [(1, a), (2, b)] {
            l1.push_core_request(CoreRequest {
                tag,
                addr: Address(line.0),
                kind: CoreReqKind::Load,
            });
            l2 = h.tick(&mut l1).to_network[0].dst;
            let data = LineData::zeroed(64);
            let payload = MsgPayload::DataS {
                line,
                data,
                ts: None,
            };
            l1.push_msg(Msg::new(l2, NodeId(0), payload));
            h.tick_until(&mut l1, 20, |o| o.responses.first().copied());
        }
        l1.push_core_request(CoreRequest {
            tag: 3,
            addr: Address(a.0),
            kind: CoreReqKind::Store { value: 1 },
        });
        assert!(matches!(
            h.tick(&mut l1).to_network[..],
            [Msg {
                payload: MsgPayload::GetX { .. },
                ..
            }]
        ));
        let load_c = CoreRequest {
            tag: 4,
            addr: Address(c.0),
            kind: CoreReqKind::Load,
        };
        l1.push_core_request(load_c);
        let counts = |h: &Harness| h.coverage.iter_cumulative().collect::<Vec<_>>();
        let loads_from_i = h.coverage.count(Transition::l1("I", "Load"));
        for _ in 0..20 {
            let stalled = counts(&h);
            let out = h.tick(&mut l1);
            assert!(out.to_network.is_empty() && out.lq_notices.is_empty());
            assert_eq!(counts(&h), stalled, "cycle {}", h.cycle);
        }
        // Once the upgrade completes no line of the set is mid-transaction,
        // and the load of C starts.
        let data = LineData::zeroed(64);
        let payload = MsgPayload::DataX {
            line: a,
            data,
            ts: None,
        };
        l1.push_msg(Msg::new(l2, NodeId(0), payload));
        let out = h.tick(&mut l1);
        assert!(out
            .to_network
            .iter()
            .any(|m| matches!(m.payload, MsgPayload::GetS { line } if line == c)));
        assert_eq!(
            h.coverage.count(Transition::l1("I", "Load")),
            loads_from_i + 1
        );
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

    /// Stores `tag` to `line`, which is not present, and grants it: the
    /// line ends Modified.
    fn store_from_i(l1: &mut MesiL1, h: &mut Harness, tag: u64, line: u64) {
        l1.push_core_request(CoreRequest {
            tag,
            addr: Address(line),
            kind: CoreReqKind::Store { value: tag },
        });
        let out = h.tick(l1);
        let getx = out
            .to_network
            .iter()
            .find(|m| matches!(m.payload, MsgPayload::GetX { .. }))
            .expect("GetX sent");
        l1.push_msg(Msg::new(
            getx.dst,
            NodeId(0),
            MsgPayload::DataX {
                line: LineAddr(line),
                data: LineData::zeroed(64),
                ts: None,
            },
        ));
        h.tick_until(l1, 20, |o| o.responses.first().copied());
    }

    #[test]
    fn a_flush_and_a_replacement_are_each_recorded_once() {
        let (mut l1, mut h) = l1_with_harness(BugConfig::none());
        let flush = Transition::l1("M", "Flush");
        let replacement = Transition::l1("M", "Replacement");
        store_from_i(&mut l1, &mut h, 1, 0x1000);
        l1.push_core_request(CoreRequest {
            tag: 2,
            addr: Address(0x1000),
            kind: CoreReqKind::Flush,
        });
        h.tick(&mut l1);
        assert_eq!(h.coverage.count(flush), 1);
        assert_eq!(h.coverage.count(replacement), 0);
        // Fill the set again, then miss on one more line of it: the miss
        // replaces a Modified line.
        let stride = h.cfg.l1_sets() as u64 * h.cfg.line_bytes;
        for i in 1..=h.cfg.l1_ways as u64 + 1 {
            store_from_i(&mut l1, &mut h, 2 + i, 0x1000 + i * stride);
        }
        assert_eq!(h.coverage.count(replacement), 1);
        assert_eq!(h.coverage.count(flush), 1);
        assert!(h.errors.is_empty());
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
