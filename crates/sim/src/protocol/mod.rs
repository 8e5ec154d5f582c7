//! Coherence protocol controllers and the core↔L1 interface.
//!
//! Two protocols are provided:
//!
//! * [`mesi`] — a two-level MESI directory protocol in the style of gem5
//!   Ruby's `MESI_Two_Level` (private L1s, shared banked L2 acting as an
//!   inclusive directory, blocking per-line transactions, transient states
//!   `IS`, `IS_I`, `IM`, `SM`, `MI`);
//! * [`tsocc`] — the lazy, timestamp-based TSO-CC protocol (no sharer
//!   tracking; Shared lines self-invalidate on timestamp acquisition, access
//!   budgets bound staleness).
//!
//! Both are implemented behind the [`L1Controller`] and [`L2Controller`]
//! traits, so the [`crate::system::System`] is protocol-agnostic.  Each trait
//! has one implementation, a skeleton generic over the protocol:
//!
//! * `l1::L1` — queues, MSHRs, misses, replacement, flush and writeback,
//!   fills and deferred replay, the tick; a protocol supplies an
//!   `l1::L1Protocol`;
//! * `l2::L2` — queues, transactions, the memory fetch from the request
//!   that starts it to the grant, replacement, stale writebacks, the tick; a
//!   protocol supplies an `l2::L2Protocol`.
//!
//! A protocol's files keep only its own states, transitions, bug hooks and
//! transition universe; the skeletons never branch on the protocol.

mod l1;
mod l2;
pub mod mesi;
pub mod tsocc;

use crate::bugs::BugConfig;
use crate::config::SystemConfig;
use crate::coverage::CoverageRecorder;
use crate::msg::Msg;
use crate::system::ProtocolError;
use crate::types::{Cycle, LineAddr};
use mcversi_mcm::Address;
use rand::rngs::StdRng;
use std::any::Any;
use std::fmt;

/// A memory request issued by a core to its L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Core-local tag used to match the response.
    pub tag: u64,
    /// The accessed (8-byte aligned) address.
    pub addr: Address,
    /// What to do.
    pub kind: CoreReqKind,
}

/// The kind of a core request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreReqKind {
    /// Read an 8-byte word.
    Load,
    /// Write an 8-byte word.
    Store {
        /// Value to write.
        value: u64,
    },
    /// Atomically read and write an 8-byte word.
    Rmw {
        /// Value to write.
        write_value: u64,
    },
    /// Flush the containing line from this L1.
    Flush,
    /// A full memory fence reached the head of the core's pipeline.  MESI
    /// treats this as a no-op (ordering is the core's job); TSO-CC
    /// self-invalidates all Shared lines, which is part of how it enforces
    /// TSO across fences and atomics.
    Fence,
}

/// A response from the L1 back to its core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreResponse {
    /// The tag of the request this responds to.
    pub tag: u64,
    /// The result.
    pub kind: CoreRespKind,
}

/// The kind of a core response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRespKind {
    /// The load's value.
    LoadDone {
        /// Value read.
        value: u64,
    },
    /// The store has been performed in the cache.
    StoreDone {
        /// The value the store overwrote (used to construct coherence order).
        overwritten: u64,
    },
    /// The RMW has been performed atomically.
    RmwDone {
        /// The value read (and overwritten) by the RMW.
        read_value: u64,
    },
    /// The flush has completed.
    FlushDone,
    /// The fence has been processed by the cache.
    FenceDone,
}

/// Everything an L1 produces in one cycle.  The system owns one per L1 and
/// reuses it: [`L1Controller::tick`] appends, the system drains.
#[derive(Debug, Default)]
pub struct L1Output {
    /// Messages to inject into the network.
    pub to_network: Vec<Msg>,
    /// Responses to the core.
    pub responses: Vec<CoreResponse>,
    /// Invalidation notices forwarded to the core's load queue: the core lost
    /// read permission on these lines (invalidation, ownership transfer,
    /// recall, replacement or flush).
    pub lq_notices: Vec<LineAddr>,
}

/// Mutable context shared by all controllers during one tick.
#[derive(Debug)]
pub struct TickCtx<'a> {
    /// Current cycle.
    pub cycle: Cycle,
    /// System configuration.
    pub cfg: &'a SystemConfig,
    /// Injected bugs.
    pub bugs: &'a BugConfig,
    /// Transition coverage recorder.
    pub coverage: &'a mut CoverageRecorder,
    /// Seeded simulation RNG (latency jitter).
    pub rng: &'a mut StdRng,
    /// Sink for protocol errors (invalid transitions).
    pub errors: &'a mut Vec<ProtocolError>,
}

/// Moves every entry of `pending` whose release time has come into `out`,
/// in place and keeping the order on both sides.  Returns `true` if any
/// entry was due.
pub(crate) fn release_due<T>(
    pending: &mut Vec<(Cycle, T)>,
    cycle: Cycle,
    out: &mut Vec<T>,
) -> bool {
    if !pending.iter().any(|&(ready, _)| ready <= cycle) {
        return false;
    }
    out.extend(
        pending
            .extract_if(.., |&mut (ready, _)| ready <= cycle)
            .map(|(_, item)| item),
    );
    true
}

/// The earliest release time among `pending`, if any.
pub(crate) fn earliest_release<T>(pending: &[(Cycle, T)]) -> Option<Cycle> {
    pending.iter().map(|&(ready, _)| ready).min()
}

/// What a controller has in flight (MSHRs, directory transactions, memory
/// fetches), by line.  That is a handful of entries at a time, so they sit in
/// a `Vec` in no particular order and a lookup scans it.  The methods are
/// those of the map this stands in for.
#[derive(Debug)]
pub(crate) struct LineTable<T> {
    entries: Vec<(LineAddr, T)>,
}

impl<T> LineTable<T> {
    pub(crate) fn new() -> Self {
        LineTable {
            entries: Vec::new(),
        }
    }

    fn position(&self, line: &LineAddr) -> Option<usize> {
        self.entries
            .iter()
            .position(|(resident, _)| resident == line)
    }

    pub(crate) fn get(&self, line: &LineAddr) -> Option<&T> {
        self.position(line).map(|at| &self.entries[at].1)
    }

    pub(crate) fn get_mut(&mut self, line: &LineAddr) -> Option<&mut T> {
        self.position(line).map(|at| &mut self.entries[at].1)
    }

    pub(crate) fn contains_key(&self, line: &LineAddr) -> bool {
        self.position(line).is_some()
    }

    /// The lines with an entry, in no particular order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries.iter().map(|&(line, _)| line)
    }

    /// Puts `value` in `line`'s entry and returns what was there.
    pub(crate) fn insert(&mut self, line: LineAddr, value: T) -> Option<T> {
        match self.get_mut(&line) {
            Some(resident) => Some(std::mem::replace(resident, value)),
            None => {
                self.entries.push((line, value));
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, line: &LineAddr) -> Option<T> {
        self.position(line).map(|at| self.entries.swap_remove(at).1)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A private L1 cache controller.
pub trait L1Controller: fmt::Debug {
    /// Queues a request from the core.
    fn push_core_request(&mut self, req: CoreRequest);

    /// Queues an incoming protocol message.
    fn push_msg(&mut self, msg: Msg);

    /// Advances the controller by one cycle, appending what it produces to
    /// `out`.  *Progress* is consuming a message, accepting a core request,
    /// releasing a response or emitting anything.  Returns whether the
    /// controller is *busy*: it made progress and left a core request
    /// queued, which its next tick may make progress on too.
    ///
    /// The inertness contract: a tick that made no progress has left the
    /// controller exactly as it found it, has recorded no coverage, has drawn
    /// nothing from the RNG and has bumped no telemetry counter (a transition
    /// is recorded in the arm that takes it, after its stall check).  What a
    /// tick does may depend only on the controller's own state, on what was
    /// pushed to it and, through [`next_release`](Self::next_release), on
    /// the cycle.  So a controller that is not busy would tick with nothing
    /// to show for it until a message or a core request is pushed or
    /// `next_release` comes; the system does not execute those ticks, and
    /// the controller owes nothing for them (`ARCHITECTURE.md`, "The
    /// simulation loop and the inertness contract").
    fn tick(&mut self, ctx: &mut TickCtx<'_>, out: &mut L1Output) -> bool;

    /// The earliest cycle at which a held-back core response is released.
    fn next_release(&self) -> Option<Cycle>;

    /// Returns `true` when no transactions, queued requests or queued messages
    /// are outstanding.
    fn is_idle(&self) -> bool;

    /// Drops all cached lines and transaction state without writebacks
    /// (host-assisted reset between tests).
    fn hard_reset(&mut self);

    /// A copy of the state [`hard_reset`](Self::hard_reset) keeps, for
    /// `System::mark`.
    fn save(&self) -> Box<dyn Any>;

    /// Puts back the state [`save`](Self::save) copied.
    fn restore(&mut self, saved: Box<dyn Any>);
}

/// A shared L2 bank / directory controller.
pub trait L2Controller: fmt::Debug {
    /// Queues an incoming protocol message.
    fn push_msg(&mut self, msg: Msg);

    /// Advances the controller by one cycle, appending the messages it
    /// injects into the network to `out`.  Progress is consuming a
    /// response, accepting a request, queueing or releasing a message.
    /// Returns whether the bank is busy: it made progress and left a request
    /// queued.  The inertness contract of [`L1Controller::tick`] holds: a
    /// bank that is not busy sleeps until a message is pushed or
    /// [`next_release`](Self::next_release) comes, and owes nothing for it.
    fn tick(&mut self, ctx: &mut TickCtx<'_>, out: &mut Vec<Msg>) -> bool;

    /// The earliest cycle at which a delayed outgoing message is released.
    fn next_release(&self) -> Option<Cycle>;

    /// Returns `true` when no transactions or queued messages are outstanding.
    fn is_idle(&self) -> bool;

    /// Drops all cached lines and transaction state without writebacks
    /// (host-assisted reset between tests).
    fn hard_reset(&mut self);
}

/// The one harness every controller test ticks its controller with.
#[cfg(test)]
pub(crate) mod harness {
    use super::*;
    use crate::config::ProtocolKind;
    use rand::SeedableRng;

    impl<P: l1::L1Protocol> l1::L1<P> {
        /// Number of resident lines.
        pub(crate) fn resident_lines(&self) -> usize {
            self.cache.len()
        }
    }

    impl<P: l2::L2Protocol> l2::L2<P> {
        /// Number of resident lines.
        pub(crate) fn resident_lines(&self) -> usize {
            self.cache.len()
        }
    }

    /// What a tick context borrows: configuration, injected bugs, coverage,
    /// RNG, protocol errors and the cycle.
    pub(crate) struct Harness {
        pub(crate) cfg: SystemConfig,
        bugs: BugConfig,
        pub(crate) coverage: CoverageRecorder,
        rng: StdRng,
        pub(crate) errors: Vec<ProtocolError>,
        pub(crate) cycle: Cycle,
    }

    impl Harness {
        /// A harness for the small configuration of `protocol`.
        pub(crate) fn new(protocol: ProtocolKind, bugs: BugConfig) -> Self {
            Harness {
                cfg: SystemConfig::small(protocol),
                bugs,
                coverage: CoverageRecorder::new(),
                rng: StdRng::seed_from_u64(7),
                errors: Vec::new(),
                cycle: 0,
            }
        }

        /// Advances to the next cycle and lends out its tick context.
        fn next(&mut self) -> TickCtx<'_> {
            self.cycle += 1;
            TickCtx {
                cycle: self.cycle,
                cfg: &self.cfg,
                bugs: &self.bugs,
                coverage: &mut self.coverage,
                rng: &mut self.rng,
                errors: &mut self.errors,
            }
        }

        /// Ticks `l1` once; returns what it produced.
        pub(crate) fn tick(&mut self, l1: &mut impl L1Controller) -> L1Output {
            let mut out = L1Output::default();
            l1.tick(&mut self.next(), &mut out);
            out
        }

        /// Ticks `l1` until `f` yields a value from a tick's output, for at
        /// most `max` cycles.
        pub(crate) fn tick_until<T>(
            &mut self,
            l1: &mut impl L1Controller,
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

        /// Ticks `l2` once, appending its messages to `out`; returns whether
        /// the bank is busy.
        pub(crate) fn tick_l2(&mut self, l2: &mut impl L2Controller, out: &mut Vec<Msg>) -> bool {
            l2.tick(&mut self.next(), out)
        }

        /// Ticks `l2` for `cycles` cycles; returns every message it sent.
        pub(crate) fn run(&mut self, l2: &mut impl L2Controller, cycles: u64) -> Vec<Msg> {
            let mut out = Vec::new();
            for _ in 0..cycles {
                self.tick_l2(l2, &mut out);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_response_shapes() {
        let req = CoreRequest {
            tag: 7,
            addr: Address(0x100),
            kind: CoreReqKind::Store { value: 3 },
        };
        assert_eq!(req.tag, 7);
        let resp = CoreResponse {
            tag: 7,
            kind: CoreRespKind::StoreDone { overwritten: 0 },
        };
        assert_eq!(resp.tag, req.tag);
        let out = L1Output::default();
        assert!(out.to_network.is_empty());
        assert!(out.responses.is_empty());
        assert!(out.lq_notices.is_empty());
    }

    #[test]
    fn release_due_keeps_order_on_both_sides() {
        let mut pending = vec![(5, 'a'), (2, 'b'), (9, 'c'), (3, 'd'), (5, 'e')];
        let mut out = vec!['z'];
        assert!(!release_due(&mut pending, 1, &mut out));
        assert_eq!(earliest_release(&pending), Some(2));
        assert!(release_due(&mut pending, 5, &mut out));
        assert_eq!(out, vec!['z', 'a', 'b', 'd', 'e']);
        assert_eq!(pending, vec![(9, 'c')]);
        assert_eq!(earliest_release(&pending), Some(9));
        assert!(release_due(&mut pending, 9, &mut out));
        assert_eq!(earliest_release(&pending), None);
    }

    #[test]
    fn release_due_with_nothing_due_touches_neither_side() {
        let mut pending = vec![(7, 'a'), (5, 'b'), (9, 'c')];
        let mut out = vec!['z'];
        let (pending_at, out_at) = (pending.as_ptr(), out.as_ptr());
        assert!(!release_due(&mut pending, 4, &mut out));
        assert_eq!(pending, vec![(7, 'a'), (5, 'b'), (9, 'c')]);
        assert_eq!(out, vec!['z']);
        assert_eq!((pending.as_ptr(), out.as_ptr()), (pending_at, out_at));
        // Nor does an empty list.
        let mut nothing: Vec<(Cycle, char)> = Vec::new();
        assert!(!release_due(&mut nothing, 4, &mut out));
        assert_eq!(out, vec!['z']);
    }

    #[test]
    fn a_line_table_reads_like_a_map() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(5);
        let mut table = LineTable::new();
        let mut map = BTreeMap::new();
        for step in 0..2_000u32 {
            let line = LineAddr(64 * rng.gen_range(0..12u64));
            match rng.gen_range(0..10u32) {
                0..=3 => assert_eq!(table.insert(line, step), map.insert(line, step)),
                4..=6 => assert_eq!(table.remove(&line), map.remove(&line)),
                7 => {
                    let (got, want) = (table.get_mut(&line), map.get_mut(&line));
                    assert_eq!(got, want);
                    if let (Some(got), Some(want)) = (got, want) {
                        *got += 1;
                        *want += 1;
                    }
                }
                8 if step % 97 == 0 => {
                    table.clear();
                    map.clear();
                }
                _ => assert_eq!(table.get(&line), map.get(&line)),
            }
            assert_eq!(table.contains_key(&line), map.contains_key(&line));
            assert_eq!(table.is_empty(), map.is_empty());
        }
    }
}
