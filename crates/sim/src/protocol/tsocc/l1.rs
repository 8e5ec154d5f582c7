//! The TSO-CC private L1 cache controller.
//!
//! Besides the cache array, the controller keeps the per-core TSO-CC state
//! ([`Timestamps`]): the core's own (group) timestamp and epoch, and the
//! last-seen timestamp per remote writer.  Shared lines carry the writer's
//! timestamp metadata and an access budget ([`Stamp`]); acquiring newer data
//! from a writer self-invalidates all Shared lines (the paper's
//! transitive-reduction rule), as do fences and atomics.  The two TSO-CC bugs
//! of the evaluation weaken the timestamp comparison ([`Bug::TsoCcCompare`])
//! or ignore epoch ids across timestamp resets ([`Bug::TsoCcNoEpochIds`]).
//! The controller itself is the shared [`L1`] skeleton; this file holds
//! TSO-CC's transitions.
//!
//! [`Bug::TsoCcCompare`]: crate::bugs::Bug::TsoCcCompare
//! [`Bug::TsoCcNoEpochIds`]: crate::bugs::Bug::TsoCcNoEpochIds

use super::TsoCc;
use crate::bugs::{Bug, BugConfig};
use crate::config::SystemConfig;
use crate::coverage::Transition;
use crate::msg::{Msg, MsgPayload, TsInfo};
use crate::protocol::l1::Transient as _;
use crate::protocol::l1::{self, L1Protocol, L1State, LineMeta, PendingOp, L1};
use crate::protocol::{CoreReqKind, CoreRespKind, L1Output, TickCtx};
use crate::types::LineAddr;
use mcversi_telemetry as telemetry;
use std::collections::BTreeMap;

/// Core requests served from a resident line with sufficient permission.
static L1_HITS: telemetry::Counter = telemetry::Counter::new("sim.l1.tsocc.hit");
/// Core requests needing a coherence transaction (fill, upgrade, or expired
/// staleness budget).
static L1_MISSES: telemetry::Counter = telemetry::Counter::new("sim.l1.tsocc.miss");

/// The TSO-CC L1 controller for one core.
pub(crate) type TsoCcL1 = L1<TsoCc>;

/// What a TSO-CC line carries besides state, data and dirtiness.
#[derive(Debug, Clone)]
pub(crate) struct Stamp {
    /// Last writer metadata (carried on writebacks so readers can compare).
    ts: Option<TsInfo>,
    /// Remaining accesses before a Shared line expires.
    accesses_left: u32,
}

impl LineMeta for Stamp {
    fn installed(ts: Option<TsInfo>, cfg: &SystemConfig) -> Self {
        Stamp {
            ts,
            accesses_left: cfg.tsocc_max_accesses,
        }
    }

    fn ts(&self) -> Option<TsInfo> {
        self.ts
    }
}

/// The per-core TSO-CC state.  It is architectural and survives resets of the
/// test memory (matching how a real core's counters would behave).
#[derive(Debug, Clone)]
pub(crate) struct Timestamps {
    local_ts: u64,
    writes_in_group: u64,
    epoch: u64,
    /// Writer -> (epoch, ts) of the newest data seen from it.
    last_seen: BTreeMap<u32, (u64, u64)>,
}

impl Default for Timestamps {
    fn default() -> Self {
        Timestamps {
            local_ts: 1,
            writes_in_group: 0,
            epoch: 0,
            last_seen: BTreeMap::new(),
        }
    }
}

impl Timestamps {
    /// Advances core `core`'s write timestamp (one write); returns the
    /// metadata to tag the written line with.
    fn bump(&mut self, core: usize, ctx: &mut TickCtx<'_>) -> TsInfo {
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
            writer: core as u32,
            ts: self.local_ts,
            epoch: self.epoch,
        }
    }

    /// Applies core `core`'s acquire rule for data whose last writer is `ts`.
    ///
    /// Returns `true` if all Shared lines must be self-invalidated.  The two
    /// TSO-CC bugs weaken this decision.
    fn acquire(&mut self, core: usize, bugs: &BugConfig, ts: Option<TsInfo>) -> bool {
        let Some(info) = ts else {
            // No metadata (data came straight from memory): be conservative.
            return true;
        };
        if info.writer as usize == core {
            return false;
        }
        let decision = match self.last_seen.get(&info.writer) {
            None => true,
            Some(&(seen_epoch, seen_ts)) => {
                if bugs.has(Bug::TsoCcNoEpochIds) {
                    // Epochs ignored: compare raw timestamps across resets.
                    if bugs.has(Bug::TsoCcCompare) {
                        info.ts > seen_ts
                    } else {
                        info.ts >= seen_ts
                    }
                } else if info.epoch != seen_epoch {
                    true
                } else if bugs.has(Bug::TsoCcCompare) {
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
}

/// TSO-CC's transient (MSHR) states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transient {
    /// GetS outstanding.
    IS,
    /// GetX outstanding.
    IM,
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
            Transient::IM => "IM",
            Transient::MI => "MI",
        }
    }

    fn takes(self, kind: CoreReqKind) -> bool {
        use Transient::*;
        matches!(
            (self, kind),
            (IS | IM, CoreReqKind::Load)
                | (IM, CoreReqKind::Store { .. } | CoreReqKind::Rmw { .. })
        )
    }
}

/// Self-invalidates every Shared line, notifying the LQ.
fn self_invalidate_shared(l1: &mut L1<TsoCc>, out: &mut L1Output, ctx: &mut TickCtx<'_>) {
    let victims: Vec<LineAddr> = l1
        .cache
        .iter()
        .filter(|(_, l)| l.state == L1State::Shared)
        .map(|(addr, _)| addr)
        .collect();
    for v in victims {
        ctx.coverage.record(Transition::l1("S", "SelfInvalidate"));
        l1.cache.remove(v);
        out.lq_notices.push(v);
    }
}

/// Acquires data whose last writer is `ts`: self-invalidates the Shared
/// lines if the acquire rule says so.
fn acquire(l1: &mut L1<TsoCc>, out: &mut L1Output, ctx: &mut TickCtx<'_>, ts: Option<TsInfo>) {
    if l1.kept.acquire(l1.core, ctx.bugs, ts) {
        self_invalidate_shared(l1, out, ctx);
    }
}

impl L1Protocol for TsoCc {
    const COMPONENT: &'static str = "TSO-CC L1";
    const MISSES: &'static telemetry::Counter = &L1_MISSES;
    type Transient = Transient;
    type Meta = Stamp;
    type Kept = Timestamps;

    fn core_request(
        l1: &mut L1<TsoCc>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        op: PendingOp,
        line: LineAddr,
        state: Option<L1State>,
    ) -> bool {
        match (op.kind, state) {
            // ---- Loads ----
            (CoreReqKind::Load, Some(L1State::Shared)) => {
                let expired = l1
                    .cache
                    .get(line)
                    .map(|l| l.meta.accesses_left == 0)
                    .unwrap_or(false);
                if expired {
                    // The staleness budget is exhausted: re-fetch.
                    ctx.coverage.record(Transition::l1("S", "Expired"));
                    l1.cache.remove(line);
                    out.lq_notices.push(line);
                    l1.start_miss(out, ctx, line, Transient::IS, op, false);
                    return true;
                }
                ctx.coverage.record(Transition::l1("S", "Load"));
                L1_HITS.incr();
                let entry = l1.cache.get_mut(line).expect("resident");
                entry.meta.accesses_left = entry.meta.accesses_left.saturating_sub(1);
                let value = entry.data.word(op.word);
                l1.respond(ctx, op.tag, CoreRespKind::LoadDone { value });
                true
            }
            (CoreReqKind::Load, Some(st @ (L1State::Exclusive | L1State::Modified))) => {
                ctx.coverage.record(Transition::l1(st.name(), "Load"));
                L1_HITS.incr();
                let value = l1.cache.get_mut(line).expect("resident").data.word(op.word);
                l1.respond(ctx, op.tag, CoreRespKind::LoadDone { value });
                true
            }

            // ---- Stores ----
            (CoreReqKind::Store { value }, Some(st @ (L1State::Exclusive | L1State::Modified))) => {
                ctx.coverage.record(Transition::l1(st.name(), "Store"));
                L1_HITS.incr();
                let ts = l1.kept.bump(l1.core, ctx);
                let entry = l1.cache.get_mut(line).expect("resident");
                let overwritten = entry.data.set_word(op.word, value);
                entry.dirty = true;
                entry.state = L1State::Modified;
                entry.meta.ts = Some(ts);
                l1.respond(ctx, op.tag, CoreRespKind::StoreDone { overwritten });
                true
            }
            (CoreReqKind::Store { .. }, Some(L1State::Shared)) => {
                // The stale Shared copy is dropped; exclusive ownership is
                // requested.  Dropping the copy is a loss of read permission.
                ctx.coverage.record(Transition::l1("S", "Store"));
                l1.cache.remove(line);
                out.lq_notices.push(line);
                l1.start_miss(out, ctx, line, Transient::IM, op, true);
                true
            }

            // ---- RMWs (imply a fence: self-invalidate Shared lines) ----
            (CoreReqKind::Rmw { write_value }, st) => {
                self_invalidate_shared(l1, out, ctx);
                match st {
                    Some(s @ (L1State::Exclusive | L1State::Modified)) => {
                        ctx.coverage.record(Transition::l1(s.name(), "Rmw"));
                        L1_HITS.incr();
                        let ts = l1.kept.bump(l1.core, ctx);
                        let entry = l1.cache.get_mut(line).expect("resident");
                        let read_value = entry.data.set_word(op.word, write_value);
                        entry.dirty = true;
                        entry.state = L1State::Modified;
                        entry.meta.ts = Some(ts);
                        l1.respond(ctx, op.tag, CoreRespKind::RmwDone { read_value });
                        true
                    }
                    Some(L1State::Shared) | None => {
                        // (The Shared copy, if any, was just self-invalidated.)
                        if !l1.make_room(out, ctx, line) {
                            return false;
                        }
                        ctx.coverage
                            .record(Transition::l1(st.map_or("I", L1State::name), "Rmw"));
                        l1.start_miss(out, ctx, line, Transient::IM, op, true);
                        true
                    }
                }
            }

            // ---- Fences: self-invalidate all Shared lines ----
            (CoreReqKind::Fence, _) => {
                self_invalidate_shared(l1, out, ctx);
                l1.respond(ctx, op.tag, CoreRespKind::FenceDone);
                true
            }

            (CoreReqKind::Load | CoreReqKind::Store { .. }, None) | (CoreReqKind::Flush, _) => {
                unreachable!("the skeleton serves misses from I and flushes")
            }
        }
    }

    fn stable(
        l1: &mut L1<TsoCc>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: Msg,
        state: Option<L1State>,
    ) {
        let line = msg.payload.line();
        match (&msg.payload, state) {
            (MsgPayload::Downgrade { .. }, Some(st @ (L1State::Exclusive | L1State::Modified))) => {
                ctx.coverage.record(Transition::l1(st.name(), "Downgrade"));
                let budget = ctx.cfg.tsocc_max_accesses;
                let entry = l1.cache.get_mut(line).expect("resident");
                let (data, dirty, ts) = (entry.data.clone(), entry.dirty, entry.meta.ts);
                entry.state = L1State::Shared;
                entry.dirty = false;
                entry.meta.accesses_left = budget;
                l1.reply(
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
            (MsgPayload::Downgrade { .. }, Some(L1State::Shared)) => {
                // A downgrade that raced with our own silent downgrade: answer
                // with the Shared copy (clean).
                ctx.coverage.record(Transition::l1("S", "Downgrade"));
                let entry = l1.cache.get(line).expect("resident");
                let (data, ts) = (entry.data.clone(), entry.meta.ts);
                l1.reply(
                    out,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty: false,
                        ts,
                    },
                );
            }
            (MsgPayload::Recall { .. }, Some(st)) => {
                // A Shared line is always clean, so it answers clean.
                ctx.coverage.record(Transition::l1(st.name(), "Recall"));
                let entry = l1.cache.remove(line).expect("resident");
                let (data, dirty, ts) = (entry.data, entry.dirty, entry.meta.ts);
                l1.reply(
                    out,
                    msg.src,
                    MsgPayload::WbData {
                        line,
                        data,
                        dirty,
                        ts,
                    },
                );
                out.lq_notices.push(line);
            }
            _ => l1.invalid(
                ctx,
                line,
                state.map_or("I", L1State::name),
                msg.payload.event_name(),
            ),
        }
    }

    fn transient(
        l1: &mut L1<TsoCc>,
        out: &mut L1Output,
        ctx: &mut TickCtx<'_>,
        msg: Msg,
        tstate: Transient,
    ) {
        let line = msg.payload.line();
        let event = msg.payload.event_name();
        match (&msg.payload, tstate) {
            (MsgPayload::Downgrade { .. } | MsgPayload::Recall { .. }, Transient::MI) => {
                l1.answer_from_writeback(out, ctx, &msg)
            }
            (
                MsgPayload::Downgrade { .. } | MsgPayload::Recall { .. },
                Transient::IS | Transient::IM,
            ) => l1.defer(ctx, msg, tstate),
            (
                MsgPayload::DataS { data, ts, .. } | MsgPayload::DataE { data, ts, .. },
                Transient::IS,
            ) => {
                ctx.coverage.record(Transition::l1("IS", event));
                // Acquire first, so the LQ sees the self-invalidation notices
                // before the pending loads complete.
                acquire(l1, out, ctx, *ts);
                let state = match msg.payload {
                    MsgPayload::DataE { .. } => L1State::Exclusive,
                    _ => L1State::Shared,
                };
                l1.fill(out, ctx, line, data.clone(), *ts, state);
            }
            (MsgPayload::DataX { data, ts, .. }, Transient::IM) => {
                ctx.coverage.record(Transition::l1("IM", "DataX"));
                acquire(l1, out, ctx, *ts);
                l1.fill_modified(out, ctx, line, data.clone(), *ts);
            }
            _ => l1.invalid(ctx, line, tstate.name(), event),
        }
    }

    fn stamp_write(l1: &mut L1<TsoCc>, ctx: &mut TickCtx<'_>) -> Option<TsInfo> {
        Some(l1.kept.bump(l1.core, ctx))
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

    impl L1<TsoCc> {
        /// The core's current epoch, to confirm resets happen.
        fn epoch(&self) -> u64 {
            self.kept.epoch
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
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
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
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
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
            let mut h = Harness::new(ProtocolKind::TsoCc, bugs);
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
            let mut h = Harness::new(ProtocolKind::TsoCc, bugs);
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
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
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
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
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
        let mut h = Harness::new(ProtocolKind::TsoCc, BugConfig::none());
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
