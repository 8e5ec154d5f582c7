//! Static per-thread structure of a test: program order and fence placement.
//!
//! The test generator lowers each test into a per-thread sequence of events;
//! this module derives the *static orders* the checker needs before the test
//! executes (paper §4.1: "All static orders required to compute the preserved
//! program order (ppo) are gathered before first execution of a test").

use crate::event::{Address, Event, EventId, ProcessorId};
use crate::execution::DependencySet;
use crate::model::{ModelKind, StaticOrders};
use crate::relation::{EventSet, Relation};
use mcversi_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The events of each thread, sorted by program-order index (ties — the
/// halves of one instruction — by event id).
fn threads(events: &[Event]) -> BTreeMap<ProcessorId, Vec<&Event>> {
    let mut per_thread: BTreeMap<ProcessorId, Vec<&Event>> = BTreeMap::new();
    for ev in events {
        if let Some(iiid) = ev.iiid {
            per_thread.entry(iiid.pid).or_default().push(ev);
        }
    }
    for thread in per_thread.values_mut() {
        thread.sort_by_key(|ev| (ev.iiid.expect("thread event has iiid").poi, ev.id));
    }
    per_thread
}

/// Builds the program order (`po`) relation from events.
///
/// `po` totally orders the events of each thread by their program-order index;
/// events of different threads and initial writes are unrelated.
///
/// The relation returned is the *transitive* program order (every pair of
/// same-thread events in order), which is what axiomatic models quantify over.
/// It is filled a row at a time, last event of a thread first: an event's row
/// is the set of events of later instructions, one OR per word.
pub fn program_order(events: &[Event]) -> Relation {
    let bound = events.iter().map(|e| e.id.index() + 1).max().unwrap_or(0);
    let mut po = Relation::with_nodes(bound);
    for thread in threads(events).values() {
        let poi = |ev: &Event| ev.iiid.map(|x| x.poi);
        // The events of the instructions after the one being filled in.
        let mut later = EventSet::new();
        for instruction in thread.chunk_by(|a, b| poi(a) == poi(b)).rev() {
            for (i, a) in instruction.iter().enumerate() {
                po.insert_row(a.id, &later);
                // Events from the same instruction (same poi, e.g. the two
                // halves of an RMW) are ordered read -> write.
                for b in &instruction[i + 1..] {
                    if a.is_read() && b.is_write() {
                        po.insert(a.id, b.id);
                    }
                }
            }
            for ev in instruction {
                later.insert(ev.id);
            }
        }
    }
    po
}

/// Dense classification masks of an event list: which events read, write or
/// access memory at all, and for each event the events sharing its address or
/// its thread.
///
/// `events[i]` must be the event with id `i` — the dense-id convention of
/// [`CandidateExecution::events`](crate::execution::CandidateExecution::events).
/// The checker's restrictions of `po`, `rf` and the fence orders ("memory
/// accesses only", "same address", "external") are row ANDs against these
/// masks (see [`Relation::intersect_rows`]).
#[derive(Debug, Clone, Default)]
pub struct EventMasks {
    /// Read events (including RMW read halves).
    pub reads: EventSet,
    /// Write events (including RMW write halves and initial writes).
    pub writes: EventSet,
    /// Memory accesses: every event that is not a fence.
    pub memory: EventSet,
    /// One set per distinct address, and per event the index of its set.
    address_sets: Vec<EventSet>,
    address_of: Vec<Option<u32>>,
    /// One set per thread, and per event the index of its set.
    thread_sets: Vec<EventSet>,
    thread_of: Vec<Option<u32>>,
    /// The writes to each address.
    writes_to: BTreeMap<Address, EventSet>,
}

impl EventMasks {
    /// Classifies `events` in one pass.
    pub fn of(events: &[Event]) -> Self {
        /// Adds `id` to the set `key` maps to, allocating the set on first use.
        fn classify<K: Ord>(
            index: &mut BTreeMap<K, u32>,
            sets: &mut Vec<EventSet>,
            key: K,
            id: EventId,
        ) -> u32 {
            let class = *index.entry(key).or_insert_with(|| {
                sets.push(EventSet::new());
                sets.len() as u32 - 1
            });
            sets[class as usize].insert(id);
            class
        }
        let mut masks = EventMasks::default();
        let mut addresses = BTreeMap::new();
        let mut threads = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            let id = EventId(i as u32);
            if ev.is_read() {
                masks.reads.insert(id);
            }
            if ev.is_write() {
                masks.writes.insert(id);
                if let Some(addr) = ev.addr {
                    masks.writes_to.entry(addr).or_default().insert(id);
                }
            }
            if ev.kind.is_memory_access() {
                masks.memory.insert(id);
            }
            masks.address_of.push(
                ev.addr
                    .map(|a| classify(&mut addresses, &mut masks.address_sets, a, id)),
            );
            masks.thread_of.push(
                ev.pid()
                    .map(|p| classify(&mut threads, &mut masks.thread_sets, p, id)),
            );
        }
        masks
    }

    /// The events accessing the same address as `id` (itself included), or
    /// `None` if `id` has no address.
    pub fn same_address_as(&self, id: EventId) -> Option<&EventSet> {
        let class = (*self.address_of.get(id.index())?)?;
        Some(&self.address_sets[class as usize])
    }

    /// The writes to `addr`, or `None` if there is none.
    pub fn writes_to(&self, addr: Address) -> Option<&EventSet> {
        self.writes_to.get(&addr)
    }

    /// The events of the same thread as `id` (itself included), or `None` for
    /// an initial write.
    pub fn same_thread_as(&self, id: EventId) -> Option<&EventSet> {
        let class = (*self.thread_of.get(id.index())?)?;
        Some(&self.thread_sets[class as usize])
    }
}

/// Static orders derived (memo misses): once per model per [`StaticPart`].
static STATIC_ORDERS_BUILT: telemetry::Counter = telemetry::Counter::new("mcm.static_orders.built");

/// What a test program alone determines about its executions: the events the
/// program issues, their program order and syntactic dependencies, and —
/// derived on first use and then kept — everything the checker computes from
/// those alone: the classification masks, `po-loc`, the dependency order and
/// each model's [`StaticOrders`] (paper §4.1: "All static orders required to
/// compute the preserved program order (ppo) are gathered before first
/// execution of a test").
///
/// One static part is shared, behind an `Arc`, by every execution an observer
/// finishes for the iterations of one test, so a check pays for the static
/// orders once per test and per iteration only for what `rf` and `co` change.
/// An execution built any other way owns a static part of its own.  The part
/// is immutable; the memoised orders are functions of it alone, so sharing
/// them between executions (and threads) cannot change a verdict.
#[derive(Debug)]
pub struct StaticPart {
    events: Vec<Event>,
    po: Relation,
    deps: DependencySet,
    masks: OnceLock<EventMasks>,
    po_loc: OnceLock<Relation>,
    dependency_order: OnceLock<Relation>,
    malformed_dependency: OnceLock<Option<(EventId, EventId)>>,
    model_orders: [OnceLock<StaticOrders>; ModelKind::ALL.len()],
}

impl StaticPart {
    /// The static part of executions over `events` (`events[i]` must be the
    /// event with id `i`) with program order `po` and dependencies `deps`.
    pub fn new(events: Vec<Event>, po: Relation, deps: DependencySet) -> Self {
        StaticPart {
            events,
            po,
            deps,
            masks: OnceLock::new(),
            po_loc: OnceLock::new(),
            dependency_order: OnceLock::new(),
            malformed_dependency: OnceLock::new(),
            model_orders: Default::default(),
        }
    }

    /// The events known before execution.  An execution's event list starts
    /// with these (with the values its reads observed) and may continue with
    /// initial writes, which take part in no static order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The (transitive) program order.
    pub fn po(&self) -> &Relation {
        &self.po
    }

    /// The syntactic dependencies.
    pub fn deps(&self) -> &DependencySet {
        &self.deps
    }

    /// The classification masks of [`events`](Self::events).
    pub fn masks(&self) -> &EventMasks {
        self.masks.get_or_init(|| EventMasks::of(&self.events))
    }

    /// Program order restricted to same-address pairs (`po-loc`).
    pub fn po_loc(&self) -> &Relation {
        self.po_loc.get_or_init(|| {
            let masks = self.masks();
            self.po.intersect_rows(|a| masks.same_address_as(a))
        })
    }

    /// The union of the address, data and control dependencies.
    pub fn dependency_order(&self) -> &Relation {
        self.dependency_order.get_or_init(|| self.deps.union_all())
    }

    /// The first dependency pair, in pair order across all three kinds, whose
    /// source is not a read or that program order does not contain.
    pub fn malformed_dependency(&self) -> Option<(EventId, EventId)> {
        *self.malformed_dependency.get_or_init(|| {
            self.dependency_order()
                .iter()
                .find(|&(a, b)| !self.events[a.index()].is_read() || !self.po.contains(a, b))
        })
    }

    /// Returns `true` once `kind`'s static orders have been derived.
    pub fn has_model_orders(&self, kind: ModelKind) -> bool {
        self.model_orders[kind as usize].get().is_some()
    }

    /// The static orders of the built-in model `kind`, derived on first use.
    pub fn model_orders(&self, kind: ModelKind) -> &StaticOrders {
        self.model_orders[kind as usize].get_or_init(|| {
            STATIC_ORDERS_BUILT.incr();
            kind.static_orders(self)
        })
    }
}

impl AsRef<StaticPart> for StaticPart {
    fn as_ref(&self) -> &StaticPart {
        self
    }
}

/// Restriction of a relation to pairs of events accessing the same address
/// (`po-loc` when applied to `po`): each row ANDed with the address mask of
/// its source.  `events[i]` must be the event with id `i`.
pub fn same_address(rel: &Relation, events: &[Event]) -> Relation {
    let masks = EventMasks::of(events);
    rel.intersect_rows(|a| masks.same_address_as(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Address, EventKind, Iiid, Value};

    fn mk(id: u32, pid: u32, poi: u32, kind: EventKind, addr: u64) -> Event {
        Event {
            id: EventId(id),
            iiid: Some(Iiid {
                pid: ProcessorId(pid),
                poi,
            }),
            kind,
            addr: Some(Address(addr)),
            value: Value(0),
        }
    }

    #[test]
    fn po_orders_within_thread_only() {
        let events = vec![
            mk(0, 0, 0, EventKind::Write, 0x10),
            mk(1, 0, 1, EventKind::Write, 0x20),
            mk(2, 1, 0, EventKind::Read, 0x20),
            mk(3, 1, 1, EventKind::Read, 0x10),
        ];
        let po = program_order(&events);
        assert!(po.contains(EventId(0), EventId(1)));
        assert!(po.contains(EventId(2), EventId(3)));
        assert!(!po.contains(EventId(0), EventId(2)));
        assert!(!po.contains(EventId(1), EventId(0)));
        assert_eq!(po.len(), 2);
    }

    #[test]
    fn po_is_transitive() {
        let events = vec![
            mk(0, 0, 0, EventKind::Write, 0x10),
            mk(1, 0, 1, EventKind::Write, 0x20),
            mk(2, 0, 2, EventKind::Read, 0x30),
        ];
        let po = program_order(&events);
        assert!(po.contains(EventId(0), EventId(2)));
        assert_eq!(po.len(), 3);
    }

    #[test]
    fn rmw_halves_ordered_read_before_write() {
        let events = vec![
            mk(0, 0, 0, EventKind::RmwRead, 0x10),
            mk(1, 0, 0, EventKind::RmwWrite, 0x10),
            mk(2, 0, 1, EventKind::Read, 0x20),
        ];
        let po = program_order(&events);
        assert!(po.contains(EventId(0), EventId(1)));
        assert!(!po.contains(EventId(1), EventId(0)));
        assert!(po.contains(EventId(0), EventId(2)));
        assert!(po.contains(EventId(1), EventId(2)));
    }

    #[test]
    fn initial_events_not_in_po() {
        let mut events = vec![mk(1, 0, 0, EventKind::Read, 0x10)];
        events.push(Event {
            id: EventId(0),
            iiid: None,
            kind: EventKind::Write,
            addr: Some(Address(0x10)),
            value: Value::INITIAL,
        });
        let po = program_order(&events);
        assert!(po.is_empty());
    }

    #[test]
    fn thread_sequences_sorted_by_poi() {
        let events = vec![
            mk(5, 0, 2, EventKind::Read, 0x10),
            mk(3, 0, 0, EventKind::Write, 0x10),
            mk(4, 0, 1, EventKind::Write, 0x20),
            mk(6, 1, 0, EventKind::Read, 0x20),
        ];
        let ids = |evs: &Vec<&Event>| evs.iter().map(|e| e.id).collect::<Vec<_>>();
        let seqs: BTreeMap<_, _> = threads(&events)
            .iter()
            .map(|(&p, evs)| (p, ids(evs)))
            .collect();
        assert_eq!(
            seqs[&ProcessorId(0)],
            vec![EventId(3), EventId(4), EventId(5)]
        );
        assert_eq!(seqs[&ProcessorId(1)], vec![EventId(6)]);
    }

    #[test]
    fn same_address_restriction() {
        let events = vec![
            mk(0, 0, 0, EventKind::Write, 0x10),
            mk(1, 0, 1, EventKind::Write, 0x20),
            mk(2, 0, 2, EventKind::Read, 0x10),
        ];
        let po = program_order(&events);
        let poloc = same_address(&po, &events);
        assert!(poloc.contains(EventId(0), EventId(2)));
        assert!(!poloc.contains(EventId(0), EventId(1)));
        assert!(!poloc.contains(EventId(1), EventId(2)));
    }
}
