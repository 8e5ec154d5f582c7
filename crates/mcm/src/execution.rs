//! Candidate executions: events plus program order and conflict orders.
//!
//! A *candidate execution* (paper §2.1) is the object the checker decides
//! about: the set of events executed by a test, their per-thread program order
//! (`po`), and the dynamically observed conflict orders — reads-from (`rf`,
//! relating each write to the reads it supplies) and coherence order (`co`,
//! serialising writes to the same address).  In simulation both conflict
//! orders are fully visible, so the execution object is complete and the
//! from-reads relation (`fr`) can be derived exactly.

use crate::event::{
    Address, DepKind, Event, EventId, EventKind, FenceKind, Iiid, ProcessorId, Value,
};
use crate::program::{self, EventMasks, StaticPart};
use crate::relation::Relation;
use serde::{DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The syntactic dependencies of an execution, one relation per [`DepKind`].
///
/// Every edge goes from a read event to a program-order-later event of the
/// same thread (the builder's [`dependency`](ExecutionBuilder::dependency)
/// documents this contract).  Relaxed models fold these into their preserved
/// program order; SC and TSO already order every dependency pair through plain
/// program order, so they ignore this structure.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencySet {
    /// Address dependencies (read value feeds a later access's address).
    pub addr: Relation,
    /// Data dependencies (read value feeds a later write's data).
    pub data: Relation,
    /// Control dependencies (a branch on the read value precedes the target).
    pub ctrl: Relation,
}

impl DependencySet {
    /// Creates an empty dependency set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The relation for one dependency kind.
    pub fn of(&self, kind: DepKind) -> &Relation {
        match kind {
            DepKind::Addr => &self.addr,
            DepKind::Data => &self.data,
            DepKind::Ctrl => &self.ctrl,
        }
    }

    /// Mutable access to the relation for one dependency kind.
    pub fn of_mut(&mut self, kind: DepKind) -> &mut Relation {
        match kind {
            DepKind::Addr => &mut self.addr,
            DepKind::Data => &mut self.data,
            DepKind::Ctrl => &mut self.ctrl,
        }
    }

    /// The union of all three dependency relations.
    pub fn union_all(&self) -> Relation {
        let mut out = self.addr.clone();
        out.union_with(&self.data);
        out.union_with(&self.ctrl);
        out
    }

    /// Total number of dependency edges.
    pub fn len(&self) -> usize {
        self.addr.len() + self.data.len() + self.ctrl.len()
    }

    /// Returns `true` if no dependencies are recorded.
    pub fn is_empty(&self) -> bool {
        self.addr.is_empty() && self.data.is_empty() && self.ctrl.is_empty()
    }
}

/// Errors produced when an execution object is not well formed.
///
/// A malformed execution indicates a bug in whatever recorded it (the
/// simulator's observer), not a consistency violation, so these are reported
/// separately from checker verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormednessError {
    /// A read has no reads-from source.
    ReadWithoutSource(EventId),
    /// A read has more than one reads-from source.
    MultipleSources(EventId),
    /// An `rf` pair whose source is not a write or whose target is not a read.
    MalformedRf(EventId, EventId),
    /// An `rf` pair relating events with different addresses.
    RfAddressMismatch(EventId, EventId),
    /// An `rf` pair where the value read differs from the value written.
    RfValueMismatch(EventId, EventId),
    /// A `co` pair relating non-writes or writes to different addresses.
    MalformedCo(EventId, EventId),
    /// The coherence order for one address contains a cycle.
    CyclicCoherence(Address),
    /// A dependency pair whose source is not a read, or that is not ordered by
    /// program order (dependencies are intra-thread, read → later access).
    MalformedDependency(EventId, EventId),
}

impl fmt::Display for WellFormednessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormednessError::ReadWithoutSource(e) => {
                write!(f, "read {e} has no reads-from source")
            }
            WellFormednessError::MultipleSources(e) => {
                write!(f, "read {e} has multiple reads-from sources")
            }
            WellFormednessError::MalformedRf(a, b) => {
                write!(f, "rf pair ({a},{b}) does not relate a write to a read")
            }
            WellFormednessError::RfAddressMismatch(a, b) => {
                write!(f, "rf pair ({a},{b}) relates different addresses")
            }
            WellFormednessError::RfValueMismatch(a, b) => {
                write!(f, "rf pair ({a},{b}) value mismatch")
            }
            WellFormednessError::MalformedCo(a, b) => {
                write!(f, "co pair ({a},{b}) does not relate same-address writes")
            }
            WellFormednessError::CyclicCoherence(a) => {
                write!(f, "coherence order for {a} is cyclic")
            }
            WellFormednessError::MalformedDependency(a, b) => {
                write!(
                    f,
                    "dependency pair ({a},{b}) is not read -> po-later access"
                )
            }
        }
    }
}

impl std::error::Error for WellFormednessError {}

/// A complete candidate execution ready to be checked against a model.
///
/// The execution owns what an iteration can change — the event list (its
/// reads carry the values observed, and initial writes may follow the
/// program's events) and the conflict orders — and shares the
/// [`StaticPart`] of its test: program order, dependencies and every order
/// derived from those alone.
#[derive(Clone)]
pub struct CandidateExecution {
    program: Arc<StaticPart>,
    events: Vec<Event>,
    rf: Relation,
    co: Relation,
    co_observed: Relation,
    /// Classification masks of `events` when initial writes follow the
    /// program's events (otherwise the static part's masks are these),
    /// derived on first use.  Not part of the `{:?}` or serialized form.
    masks: OnceLock<EventMasks>,
}

/// Prints the six recorded fields in the derived shape, wherever they are
/// stored; everything else is derived state, and golden digests hash this
/// text.
impl fmt::Debug for CandidateExecution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CandidateExecution")
            .field("events", &self.events)
            .field("po", self.po())
            .field("rf", &self.rf)
            .field("co", &self.co)
            .field("co_observed", &self.co_observed)
            .field("deps", self.deps())
            .finish()
    }
}

impl Serialize for CandidateExecution {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("events".to_string(), self.events.to_value()),
            ("po".to_string(), self.po().to_value()),
            ("rf".to_string(), self.rf.to_value()),
            ("co".to_string(), self.co.to_value()),
            ("co_observed".to_string(), self.co_observed.to_value()),
            ("deps".to_string(), self.deps().to_value()),
        ])
    }
}

impl Deserialize for CandidateExecution {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        const TY: &str = "CandidateExecution";
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", TY))?;
        let events: Vec<Event> = serde::__field(fields, "events", TY)?;
        Ok(CandidateExecution {
            program: Arc::new(StaticPart::new(
                events.clone(),
                serde::__field(fields, "po", TY)?,
                serde::__field(fields, "deps", TY)?,
            )),
            events,
            rf: serde::__field(fields, "rf", TY)?,
            co: serde::__field(fields, "co", TY)?,
            co_observed: serde::__field(fields, "co_observed", TY)?,
            masks: OnceLock::new(),
        })
    }
}

impl AsRef<StaticPart> for CandidateExecution {
    fn as_ref(&self) -> &StaticPart {
        &self.program
    }
}

impl CandidateExecution {
    /// Constructs an execution from raw parts (no dependencies).
    ///
    /// Prefer [`ExecutionBuilder`] which also derives `po` and keeps event ids
    /// dense; this constructor exists for deserialisation and tests.
    pub fn from_parts(events: Vec<Event>, po: Relation, rf: Relation, co: Relation) -> Self {
        Self::from_parts_with_deps(events, po, rf, co, DependencySet::default())
    }

    /// Constructs an execution from raw parts including its dependency set.
    /// The execution owns a static part of its own.
    pub fn from_parts_with_deps(
        events: Vec<Event>,
        po: Relation,
        rf: Relation,
        co: Relation,
        deps: DependencySet,
    ) -> Self {
        let program = Arc::new(StaticPart::new(events.clone(), po, deps));
        Self::over(program, events, rf, co)
    }

    /// An execution of the test `program` describes: `events` are the
    /// program's events with the values observed, followed by any initial
    /// writes; `co` is the observed coherence order, closed here.
    fn over(program: Arc<StaticPart>, events: Vec<Event>, rf: Relation, co: Relation) -> Self {
        let co_observed = co;
        let co = co_observed.transitive_closure();
        CandidateExecution {
            program,
            events,
            rf,
            co,
            co_observed,
            masks: OnceLock::new(),
        }
    }

    /// The part of the execution its test program alone determines, shared
    /// with the other executions finished by the same observer.
    pub fn static_part(&self) -> &Arc<StaticPart> {
        &self.program
    }

    /// All events of the execution, ordered by event id.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Looks up an event by id.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Number of events, including synthetic initial writes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The (transitive) program order.
    pub fn po(&self) -> &Relation {
        self.program.po()
    }

    /// Read / write / memory-access masks and the same-address and
    /// same-thread sets of the events.  The static part's masks cover the
    /// program's events; only an execution with initial writes after those
    /// classifies its own event list, once, when asked.
    pub fn masks(&self) -> &EventMasks {
        if self.events.len() == self.program.events().len() {
            self.program.masks()
        } else {
            self.masks.get_or_init(|| EventMasks::of(&self.events))
        }
    }

    /// Program order restricted to same-address pairs (`po-loc`).
    pub fn po_loc(&self) -> Relation {
        self.program.po_loc().clone()
    }

    /// The reads-from relation (write → read).
    pub fn rf(&self) -> &Relation {
        &self.rf
    }

    /// The syntactic dependencies recorded for this execution.
    pub fn deps(&self) -> &DependencySet {
        self.program.deps()
    }

    /// The coherence order (write → write, same address), transitively closed.
    pub fn co(&self) -> &Relation {
        &self.co
    }

    /// The coherence order as observed (immediate edges only: each write
    /// related to the write it directly overwrote).  This is the relation the
    /// NDT/NDe non-determinism metrics are computed over, so that a fully
    /// deterministic test-run has exactly one conflict predecessor per event.
    pub fn co_observed(&self) -> &Relation {
        &self.co_observed
    }

    /// External reads-from: pairs whose write and read are on different
    /// processors (or whose write is an initial write).
    pub fn rf_external(&self) -> Relation {
        // An initial write after the program's events has no thread in the
        // static masks either.
        let masks = self.program.masks();
        self.rf.subtract_rows(|w| masks.same_thread_as(w))
    }

    /// Internal reads-from: same-processor pairs.
    pub fn rf_internal(&self) -> Relation {
        let masks = self.program.masks();
        self.rf.intersect_rows(|w| masks.same_thread_as(w))
    }

    /// Derives the from-reads relation `fr = rf⁻¹ ; co`.
    ///
    /// A read `r` is from-read before a write `w'` when `r` reads from a write
    /// that is coherence-ordered before `w'`: the read observed a value that
    /// `w'` later (in coherence order) overwrote.
    pub fn fr(&self) -> Relation {
        self.rf.inverse().compose(&self.co)
    }

    /// All read events (including RMW read halves).
    pub fn reads(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.is_read())
    }

    /// All write events (including RMW write halves and initial writes).
    pub fn writes(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.is_write())
    }

    /// All fence events.
    pub fn fences(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.is_fence())
    }

    /// Writes to a particular address.
    pub fn writes_to(&self, addr: Address) -> impl Iterator<Item = &Event> {
        self.writes_iter_to(addr)
    }

    fn writes_iter_to(&self, addr: Address) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(move |e| e.is_write() && e.addr == Some(addr))
    }

    /// The set of distinct addresses accessed by memory events.
    pub fn addresses(&self) -> Vec<Address> {
        let mut addrs: Vec<Address> = self.events.iter().filter_map(|e| e.addr).collect();
        addrs.sort();
        addrs.dedup();
        addrs
    }

    /// Checks structural well-formedness of the execution object.
    ///
    /// # Errors
    ///
    /// Returns the first [`WellFormednessError`] found: reads without (or with
    /// multiple) sources, `rf`/`co` pairs with mismatched kinds, addresses or
    /// values, or a cyclic per-address coherence order.
    pub fn validate(&self) -> Result<(), WellFormednessError> {
        // rf shape checks, counting each target's sources on the way.
        let mut sources = vec![0u32; self.events.len()];
        for (w, r) in self.rf.iter() {
            let we = self.event(w);
            let re = self.event(r);
            if !we.is_write() || !re.is_read() {
                return Err(WellFormednessError::MalformedRf(w, r));
            }
            if we.addr != re.addr {
                return Err(WellFormednessError::RfAddressMismatch(w, r));
            }
            if we.value != re.value {
                return Err(WellFormednessError::RfValueMismatch(w, r));
            }
            sources[r.index()] += 1;
        }
        // Every read has exactly one source.
        for read in self.reads() {
            match sources.get(read.id.index()) {
                None | Some(0) => return Err(WellFormednessError::ReadWithoutSource(read.id)),
                Some(1) => {}
                Some(_) => return Err(WellFormednessError::MultipleSources(read.id)),
            }
        }
        // co shape checks: every pair relates two writes to one address.  The
        // closed order has thousands of pairs, so whole rows are cleared
        // against the static part's per-address write sets first; only what
        // those do not cover (a pair into an initial write that follows the
        // program's events, or a defect) is looked at pair by pair.
        let masks = self.program.masks();
        let uncleared = self.co.subtract_rows(|a| {
            let source = self.event(a);
            source
                .addr
                .filter(|_| source.is_write())
                .and_then(|addr| masks.writes_to(addr))
        });
        for (a, b) in uncleared.iter() {
            let ae = self.event(a);
            let be = self.event(b);
            if !ae.is_write() || !be.is_write() || ae.addr != be.addr || ae.addr.is_none() {
                return Err(WellFormednessError::MalformedCo(a, b));
            }
        }
        // Per-address acyclicity of co.  Every co pair is same-address (just
        // checked), so a cycle lies within one address and the whole order is
        // acyclic iff each per-address order is; the per-address search only
        // runs to name the first offending address.
        if !self.co.is_acyclic() {
            for addr in self.addresses() {
                let per_addr = self.co.filter(|a, _| self.event(a).addr == Some(addr));
                if !per_addr.is_acyclic() {
                    return Err(WellFormednessError::CyclicCoherence(addr));
                }
            }
        }
        // Dependency shape checks: read source, program-order before target.
        match self.program.malformed_dependency() {
            Some((a, b)) => Err(WellFormednessError::MalformedDependency(a, b)),
            None => Ok(()),
        }
    }
}

/// Incrementally constructs a [`CandidateExecution`].
///
/// The builder allocates dense event ids, tracks per-processor program-order
/// indices, creates initial-value writes on demand, and derives the transitive
/// program order at [`build`](ExecutionBuilder::build) time.
///
/// A caller that builds many executions of one program (the simulator's
/// observer, once per iteration) adds the program's events and dependencies
/// once, turns them into a shared static part with
/// [`into_static_part`](Self::into_static_part), and starts each execution
/// with [`over`](Self::over): such a builder records values, `rf` and `co`
/// only, and the executions it builds share the program order and every
/// order derived from it.
#[derive(Debug, Clone, Default)]
pub struct ExecutionBuilder {
    /// The static part the execution is built over; `None` until
    /// [`build`](Self::build) derives a private one.
    program: Option<Arc<StaticPart>>,
    events: Vec<Event>,
    rf: Relation,
    co: Relation,
    deps: DependencySet,
    next_poi: BTreeMap<ProcessorId, u32>,
    init_writes: BTreeMap<Address, EventId>,
}

impl ExecutionBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes the events and dependencies added so far as the static part
    /// of a test: derives their program order, once for every execution
    /// later built [`over`](Self::over) it.
    ///
    /// # Panics
    ///
    /// Panics if conflict orders were recorded: they belong to one execution,
    /// not to the program.
    pub fn into_static_part(self) -> Arc<StaticPart> {
        assert!(
            self.program.is_none() && self.rf.is_empty() && self.co.is_empty(),
            "a static part holds no conflict orders"
        );
        let po = program::program_order(&self.events);
        Arc::new(StaticPart::new(self.events, po, self.deps))
    }

    /// A builder for one execution of the test `program` describes, holding
    /// a copy of the program's events: set the values read, record `rf` and
    /// `co` (initial writes are created after the program's events as
    /// needed), and [`build`](Self::build).
    pub fn over(program: &Arc<StaticPart>) -> Self {
        let events = program.events().to_vec();
        ExecutionBuilder {
            program: Some(Arc::clone(program)),
            rf: Relation::with_nodes(events.len()),
            co: Relation::with_nodes(events.len()),
            init_writes: events
                .iter()
                .filter(|e| e.is_initial())
                .filter_map(|e| e.addr.map(|a| (a, e.id)))
                .collect(),
            events,
            ..ExecutionBuilder::default()
        }
    }

    fn alloc(
        &mut self,
        iiid: Option<Iiid>,
        kind: EventKind,
        addr: Option<Address>,
        value: Value,
    ) -> EventId {
        assert!(
            self.program.is_none() || iiid.is_none(),
            "the events of a program are fixed once it has a static part"
        );
        let id = EventId(self.events.len() as u32);
        self.events.push(Event {
            id,
            iiid,
            kind,
            addr,
            value,
        });
        id
    }

    fn next_iiid(&mut self, pid: ProcessorId) -> Iiid {
        let poi = self.next_poi.entry(pid).or_insert(0);
        let iiid = Iiid { pid, poi: *poi };
        *poi += 1;
        iiid
    }

    /// Appends a read event to processor `pid`'s program.
    pub fn read(&mut self, pid: ProcessorId, addr: Address, value: Value) -> EventId {
        let iiid = self.next_iiid(pid);
        self.alloc(Some(iiid), EventKind::Read, Some(addr), value)
    }

    /// Appends a write event to processor `pid`'s program.
    pub fn write(&mut self, pid: ProcessorId, addr: Address, value: Value) -> EventId {
        let iiid = self.next_iiid(pid);
        self.alloc(Some(iiid), EventKind::Write, Some(addr), value)
    }

    /// Appends a fence event to processor `pid`'s program.
    pub fn fence(&mut self, pid: ProcessorId, kind: FenceKind) -> EventId {
        let iiid = self.next_iiid(pid);
        self.alloc(Some(iiid), EventKind::Fence(kind), None, Value::INITIAL)
    }

    /// Appends an atomic read-modify-write: returns `(read_event, write_event)`
    /// sharing one instruction id.
    pub fn rmw(
        &mut self,
        pid: ProcessorId,
        addr: Address,
        read_value: Value,
        write_value: Value,
    ) -> (EventId, EventId) {
        let iiid = self.next_iiid(pid);
        let r = self.alloc(Some(iiid), EventKind::RmwRead, Some(addr), read_value);
        let w = self.alloc(Some(iiid), EventKind::RmwWrite, Some(addr), write_value);
        (r, w)
    }

    /// Appends a read event with an explicit program-order index.
    ///
    /// Useful when the caller (e.g. the simulator's observer) already knows
    /// each instruction's position in its thread.
    pub fn read_at(&mut self, iiid: Iiid, addr: Address, value: Value) -> EventId {
        self.bump_poi(iiid);
        self.alloc(Some(iiid), EventKind::Read, Some(addr), value)
    }

    /// Appends a write event with an explicit program-order index.
    pub fn write_at(&mut self, iiid: Iiid, addr: Address, value: Value) -> EventId {
        self.bump_poi(iiid);
        self.alloc(Some(iiid), EventKind::Write, Some(addr), value)
    }

    /// Appends a fence event with an explicit program-order index.
    pub fn fence_at(&mut self, iiid: Iiid, kind: FenceKind) -> EventId {
        self.bump_poi(iiid);
        self.alloc(Some(iiid), EventKind::Fence(kind), None, Value::INITIAL)
    }

    /// Appends an RMW with an explicit program-order index.
    pub fn rmw_at(
        &mut self,
        iiid: Iiid,
        addr: Address,
        read_value: Value,
        write_value: Value,
    ) -> (EventId, EventId) {
        self.bump_poi(iiid);
        let r = self.alloc(Some(iiid), EventKind::RmwRead, Some(addr), read_value);
        let w = self.alloc(Some(iiid), EventKind::RmwWrite, Some(addr), write_value);
        (r, w)
    }

    fn bump_poi(&mut self, iiid: Iiid) {
        let next = self.next_poi.entry(iiid.pid).or_insert(0);
        if iiid.poi >= *next {
            *next = iiid.poi + 1;
        }
    }

    /// Overrides the value of an already-added event.
    ///
    /// Observers that create read events before execution (when the value is
    /// not yet known) use this to patch in the observed value afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to an event added to this builder.
    pub fn set_event_value(&mut self, id: EventId, value: Value) {
        self.events[id.index()].value = value;
    }

    /// Returns (creating if necessary) the initial-value write event for `addr`.
    ///
    /// Initial writes carry [`Value::INITIAL`] and are coherence-ordered before
    /// every other write to the same address once [`build`](Self::build) runs.
    pub fn initial_write(&mut self, addr: Address) -> EventId {
        if let Some(&id) = self.init_writes.get(&addr) {
            return id;
        }
        let id = self.alloc(None, EventKind::Write, Some(addr), Value::INITIAL);
        self.init_writes.insert(addr, id);
        id
    }

    /// Records that `read` observes the value written by `write`.
    pub fn reads_from(&mut self, write: EventId, read: EventId) {
        self.rf.insert(write, read);
    }

    /// Records that `read` observes the initial (zero) value of its address.
    ///
    /// # Panics
    ///
    /// Panics if `read` is not a read event with an address.
    pub fn reads_from_initial(&mut self, read: EventId) {
        let addr = self.events[read.index()]
            .addr
            .expect("read event must have an address");
        assert!(
            self.events[read.index()].is_read(),
            "reads_from_initial target must be a read"
        );
        let init = self.initial_write(addr);
        self.rf.insert(init, read);
    }

    /// Records that `before` is coherence-ordered before `after`.
    pub fn coherence(&mut self, before: EventId, after: EventId) {
        self.co.insert(before, after);
    }

    /// Records a syntactic dependency from read `source` to the program-order
    /// later event `target` of the same thread.
    ///
    /// The caller must uphold the dependency contract (`source` is a read and
    /// precedes `target` in its thread's program order);
    /// [`CandidateExecution::validate`] rejects executions that break it.
    ///
    /// # Panics
    ///
    /// Panics on a builder started [`over`](Self::over) a static part, whose
    /// dependencies are fixed.
    pub fn dependency(&mut self, kind: DepKind, source: EventId, target: EventId) {
        assert!(
            self.program.is_none(),
            "the dependencies of a program are fixed once it has a static part"
        );
        self.deps.of_mut(kind).insert(source, target);
    }

    /// Records that the initial write of `write`'s address is coherence-ordered
    /// before `write`.
    ///
    /// # Panics
    ///
    /// Panics if `write` is not a write event with an address.
    pub fn coherence_after_initial(&mut self, write: EventId) {
        let addr = self.events[write.index()]
            .addr
            .expect("write event must have an address");
        assert!(
            self.events[write.index()].is_write(),
            "coherence_after_initial target must be a write"
        );
        let init = self.initial_write(addr);
        self.co.insert(init, write);
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Access to the events added so far (primarily for observers that need to
    /// inspect what they have recorded).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Finalises the execution: derives program order (unless the builder
    /// was started [`over`](Self::over) a static part, which has it), closes
    /// the coherence order transitively, and orders every initial write
    /// before all other writes to its address.
    pub fn build(mut self) -> CandidateExecution {
        // Initial writes are co-before every other write to the same address.
        for w in self
            .events
            .iter()
            .filter(|e| e.is_write() && !e.is_initial())
        {
            if let Some(&init) = w.addr.and_then(|addr| self.init_writes.get(&addr)) {
                self.co.insert(init, w.id);
            }
        }
        let program = self.program.unwrap_or_else(|| {
            let po = program::program_order(&self.events);
            Arc::new(StaticPart::new(self.events.clone(), po, self.deps))
        });
        CandidateExecution::over(program, self.events, self.rf, self.co)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> ProcessorId {
        ProcessorId(n)
    }

    #[test]
    fn builder_allocates_dense_ids_and_pois() {
        let mut b = ExecutionBuilder::new();
        let a = b.write(p(0), Address(0x10), Value(1));
        let c = b.read(p(0), Address(0x10), Value(1));
        let d = b.read(p(1), Address(0x10), Value(1));
        assert_eq!(a, EventId(0));
        assert_eq!(c, EventId(1));
        assert_eq!(d, EventId(2));
        b.reads_from(a, c);
        b.reads_from(a, d);
        b.coherence_after_initial(a);
        let exec = b.build();
        assert_eq!(exec.event(a).iiid.unwrap().poi, 0);
        assert_eq!(exec.event(c).iiid.unwrap().poi, 1);
        assert_eq!(exec.event(d).iiid.unwrap().poi, 0);
        assert!(exec.validate().is_ok());
    }

    #[test]
    fn initial_write_created_once() {
        let mut b = ExecutionBuilder::new();
        let r1 = b.read(p(0), Address(0x10), Value(0));
        let r2 = b.read(p(1), Address(0x10), Value(0));
        b.reads_from_initial(r1);
        b.reads_from_initial(r2);
        let exec = b.build();
        let inits: Vec<&Event> = exec.events().iter().filter(|e| e.is_initial()).collect();
        assert_eq!(inits.len(), 1);
        assert!(exec.validate().is_ok());
    }

    #[test]
    fn fr_derivation() {
        // w_init -> co -> w1; r reads from init; so fr(r, w1).
        let mut b = ExecutionBuilder::new();
        let r = b.read(p(0), Address(0x10), Value(0));
        let w1 = b.write(p(1), Address(0x10), Value(1));
        b.reads_from_initial(r);
        b.coherence_after_initial(w1);
        let exec = b.build();
        let fr = exec.fr();
        assert!(fr.contains(r, w1));
        assert_eq!(fr.len(), 1);
    }

    #[test]
    fn rf_external_vs_internal() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r_same = b.read(p(0), Address(0x10), Value(1));
        let r_other = b.read(p(1), Address(0x10), Value(1));
        b.reads_from(w, r_same);
        b.reads_from(w, r_other);
        b.coherence_after_initial(w);
        let exec = b.build();
        assert!(exec.rf_internal().contains(w, r_same));
        assert!(!exec.rf_internal().contains(w, r_other));
        assert!(exec.rf_external().contains(w, r_other));
        assert!(!exec.rf_external().contains(w, r_same));
    }

    #[test]
    fn validate_detects_missing_source() {
        let mut b = ExecutionBuilder::new();
        b.read(p(0), Address(0x10), Value(0));
        let exec = b.build();
        assert_eq!(
            exec.validate(),
            Err(WellFormednessError::ReadWithoutSource(EventId(0)))
        );
    }

    #[test]
    fn validate_detects_value_mismatch() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r = b.read(p(1), Address(0x10), Value(2));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let exec = b.build();
        assert_eq!(
            exec.validate(),
            Err(WellFormednessError::RfValueMismatch(w, r))
        );
    }

    #[test]
    fn validate_detects_address_mismatch() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r = b.read(p(1), Address(0x20), Value(1));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let exec = b.build();
        assert_eq!(
            exec.validate(),
            Err(WellFormednessError::RfAddressMismatch(w, r))
        );
    }

    #[test]
    fn validate_detects_cyclic_coherence() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write(p(0), Address(0x10), Value(1));
        let w2 = b.write(p(1), Address(0x10), Value(2));
        b.coherence(w1, w2);
        b.coherence(w2, w1);
        let exec = b.build();
        assert_eq!(
            exec.validate(),
            Err(WellFormednessError::CyclicCoherence(Address(0x10)))
        );
    }

    /// `validate` reports the *first* defect in a fixed order — rf shape pair
    /// by pair, then source counts read by read, then co shape, then cyclic
    /// addresses in ascending order, then dependencies pair by pair — and
    /// callers print it, so which of two simultaneous defects wins is pinned
    /// here once per variant.
    #[test]
    fn validate_reports_the_first_of_two_defects() {
        use WellFormednessError::*;
        let (x, y) = (Address(0x10), Address(0x20));

        // ReadWithoutSource on the earlier read beats MultipleSources later.
        let mut b = ExecutionBuilder::new();
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(0), x, Value(1));
        let orphan = b.read(p(1), x, Value(0));
        let twice = b.read(p(1), x, Value(1));
        b.reads_from(w1, twice);
        b.reads_from(w2, twice);
        assert_eq!(b.build().validate(), Err(ReadWithoutSource(orphan)));

        // ... and the other way round when the doubly-sourced read is first.
        let mut b = ExecutionBuilder::new();
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(0), x, Value(1));
        let twice = b.read(p(1), x, Value(1));
        b.read(p(1), x, Value(0));
        b.reads_from(w1, twice);
        b.reads_from(w2, twice);
        assert_eq!(b.build().validate(), Err(MultipleSources(twice)));

        // MalformedRf on an early pair beats a value mismatch on a later one
        // and the unsourced read it leaves behind.
        let mut b = ExecutionBuilder::new();
        let r0 = b.read(p(0), x, Value(0));
        let r1 = b.read(p(0), x, Value(0));
        let w = b.write(p(1), x, Value(1));
        let r2 = b.read(p(1), x, Value(2));
        b.reads_from(r0, r1);
        b.reads_from(w, r2);
        assert_eq!(b.build().validate(), Err(MalformedRf(r0, r1)));

        // A pair wrong in address and value is an address mismatch; the
        // cyclic coherence next to it is checked later.
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), x, Value(1));
        let w2 = b.write(p(0), x, Value(2));
        let r = b.read(p(1), y, Value(3));
        b.reads_from(w, r);
        b.coherence(w, w2);
        b.coherence(w2, w);
        assert_eq!(b.build().validate(), Err(RfAddressMismatch(w, r)));

        // RfValueMismatch beats the read without a source (counted after
        // every rf pair has been shape-checked).
        let mut b = ExecutionBuilder::new();
        b.read(p(0), x, Value(0));
        let w = b.write(p(0), x, Value(1));
        let r = b.read(p(1), x, Value(2));
        b.reads_from(w, r);
        assert_eq!(b.build().validate(), Err(RfValueMismatch(w, r)));

        // MalformedCo beats a cyclic coherence order, even at a smaller
        // address and between smaller ids.
        let mut b = ExecutionBuilder::new();
        let w1 = b.write(p(0), x, Value(1));
        let w2 = b.write(p(1), x, Value(2));
        let wy = b.write(p(0), y, Value(3));
        let ry = b.read(p(1), y, Value(3));
        b.reads_from(wy, ry);
        b.coherence(w1, w2);
        b.coherence(w2, w1);
        b.coherence(wy, ry);
        assert_eq!(b.build().validate(), Err(MalformedCo(wy, ry)));

        // Of two cyclic addresses the smaller address is named, although its
        // writes have the larger ids; the malformed dependency comes later.
        let mut b = ExecutionBuilder::new();
        let wy1 = b.write(p(0), y, Value(1));
        let wy2 = b.write(p(1), y, Value(2));
        let wx1 = b.write(p(0), x, Value(3));
        let wx2 = b.write(p(1), x, Value(4));
        b.coherence(wy1, wy2);
        b.coherence(wy2, wy1);
        b.coherence(wx1, wx2);
        b.coherence(wx2, wx1);
        b.dependency(DepKind::Addr, wy1, wx1);
        assert_eq!(b.build().validate(), Err(CyclicCoherence(x)));

        // Dependencies are checked in pair order across all three kinds, not
        // kind by kind.
        let mut b = ExecutionBuilder::new();
        let w0 = b.write(p(0), x, Value(1));
        let w1 = b.write(p(0), y, Value(2));
        let r0 = b.read(p(1), x, Value(1));
        let r1 = b.read(p(2), y, Value(2));
        b.reads_from(w0, r0);
        b.reads_from(w1, r1);
        b.coherence_after_initial(w0);
        b.coherence_after_initial(w1);
        b.dependency(DepKind::Addr, r0, r1);
        b.dependency(DepKind::Ctrl, w0, w1);
        assert_eq!(b.build().validate(), Err(MalformedDependency(w0, w1)));
    }

    /// The mask cache is derived state: it shows in neither text form, and a
    /// deserialized execution rebuilds it on demand.
    #[test]
    fn text_forms_carry_the_six_recorded_fields_only() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r = b.read(p(1), Address(0x10), Value(1));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let exec = b.build();
        let before = format!("{exec:?}");
        assert!(exec.masks().reads.contains(r));
        assert_eq!(format!("{exec:?}"), before);
        assert!(before.starts_with("CandidateExecution { events: [Event { id: EventId(0)"));
        assert!(before.ends_with(
            "deps: DependencySet { addr: Relation { edges: {}, len: 0 }, \
             data: Relation { edges: {}, len: 0 }, ctrl: Relation { edges: {}, len: 0 } } }"
        ));

        let value = exec.to_value();
        let keys: Vec<&str> = value
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["events", "po", "rf", "co", "co_observed", "deps"]);
        let back = CandidateExecution::from_value(&value).expect("round trips");
        assert_eq!(format!("{back:?}"), before);
        assert!(back.masks().writes.contains(w));
        assert!(back.validate().is_ok());
    }

    /// Executions cross threads (the fabric, parallel samples) and are cloned
    /// into caches; the shared static part must not take that away.  A
    /// builder over a static part records conflict orders only.
    #[test]
    fn executions_over_a_shared_static_part() {
        fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
        assert_send_sync_clone::<CandidateExecution>();

        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r = b.read(p(1), Address(0x10), Value(0));
        let program = b.into_static_part();
        let mut first = ExecutionBuilder::over(&program);
        first.reads_from_initial(r);
        first.coherence_after_initial(w);
        let first = first.build();
        let mut second = ExecutionBuilder::over(&program);
        second.set_event_value(r, Value(1));
        second.reads_from(w, r);
        second.coherence_after_initial(w);
        let second = second.build();
        assert!(Arc::ptr_eq(first.static_part(), second.static_part()));
        assert!(first.validate().is_ok() && second.validate().is_ok());
        // The initial write follows the program's events; the masks of the
        // execution include it, the static part's do not.
        assert_eq!(first.len(), 3);
        assert!(first.event(EventId(2)).is_initial());
        assert!(first.masks().writes.contains(EventId(2)));
        assert!(!program.masks().writes.contains(EventId(2)));
        assert_eq!(second.event(r).value, Value(1));
        assert_eq!(program.events()[r.index()].value, Value(0));
        assert_eq!(first.rf_external().len(), 1);
    }

    #[test]
    #[should_panic(expected = "fixed once it has a static part")]
    fn a_builder_over_a_static_part_takes_no_program_events() {
        let mut b = ExecutionBuilder::new();
        b.write(p(0), Address(0x10), Value(1));
        let program = b.into_static_part();
        ExecutionBuilder::over(&program).read(p(0), Address(0x10), Value(1));
    }

    #[test]
    fn build_closes_coherence_transitively() {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write(p(0), Address(0x10), Value(1));
        let w2 = b.write(p(0), Address(0x10), Value(2));
        let w3 = b.write(p(1), Address(0x10), Value(3));
        b.coherence(w1, w2);
        b.coherence(w2, w3);
        b.coherence_after_initial(w1);
        let exec = b.build();
        assert!(exec.co().contains(w1, w3));
        // Initial write ordered before all three.
        let init = exec
            .events()
            .iter()
            .find(|e| e.is_initial())
            .expect("init write exists")
            .id;
        assert!(exec.co().contains(init, w1));
        assert!(exec.co().contains(init, w2));
        assert!(exec.co().contains(init, w3));
    }

    #[test]
    fn rmw_shares_iiid() {
        let mut b = ExecutionBuilder::new();
        let (r, w) = b.rmw(p(0), Address(0x10), Value(0), Value(7));
        let next = b.read(p(0), Address(0x20), Value(0));
        b.reads_from_initial(r);
        b.reads_from_initial(next);
        b.coherence_after_initial(w);
        let exec = b.build();
        assert_eq!(exec.event(r).iiid, exec.event(w).iiid);
        assert!(exec.po().contains(r, w));
        assert!(exec.po().contains(w, next));
        assert!(exec.validate().is_ok());
    }

    #[test]
    fn addresses_and_processors_are_sorted_unique() {
        let mut b = ExecutionBuilder::new();
        b.write(p(1), Address(0x20), Value(1));
        b.write(p(0), Address(0x10), Value(2));
        b.write(p(1), Address(0x10), Value(3));
        let exec = b.build();
        assert_eq!(exec.addresses(), vec![Address(0x10), Address(0x20)]);
    }

    #[test]
    fn dependencies_are_recorded_per_kind_and_validated() {
        let mut b = ExecutionBuilder::new();
        let r = b.read(p(0), Address(0x10), Value(0));
        let r2 = b.read(p(0), Address(0x20), Value(0));
        let w = b.write(p(0), Address(0x30), Value(1));
        b.reads_from_initial(r);
        b.reads_from_initial(r2);
        b.coherence_after_initial(w);
        b.dependency(DepKind::Addr, r, r2);
        b.dependency(DepKind::Data, r2, w);
        let exec = b.build();
        assert!(exec.validate().is_ok());
        assert!(exec.deps().of(DepKind::Addr).contains(r, r2));
        assert!(exec.deps().of(DepKind::Data).contains(r2, w));
        assert!(exec.deps().of(DepKind::Ctrl).is_empty());
        assert_eq!(exec.deps().len(), 2);
        assert!(!exec.deps().is_empty());
        let all = exec.deps().union_all();
        assert!(all.contains(r, r2) && all.contains(r2, w));
    }

    #[test]
    fn validate_rejects_dependency_from_write() {
        let mut b = ExecutionBuilder::new();
        let w = b.write(p(0), Address(0x10), Value(1));
        let r = b.read(p(0), Address(0x20), Value(0));
        b.reads_from_initial(r);
        b.coherence_after_initial(w);
        b.dependency(DepKind::Addr, w, r);
        let exec = b.build();
        assert_eq!(
            exec.validate(),
            Err(WellFormednessError::MalformedDependency(w, r))
        );
    }

    #[test]
    fn validate_rejects_cross_thread_dependency() {
        let mut b = ExecutionBuilder::new();
        let r0 = b.read(p(0), Address(0x10), Value(0));
        let r1 = b.read(p(1), Address(0x20), Value(0));
        b.reads_from_initial(r0);
        b.reads_from_initial(r1);
        b.dependency(DepKind::Ctrl, r0, r1);
        let exec = b.build();
        assert_eq!(
            exec.validate(),
            Err(WellFormednessError::MalformedDependency(r0, r1))
        );
    }

    #[test]
    fn explicit_poi_variants() {
        let mut b = ExecutionBuilder::new();
        let iiid0 = Iiid { pid: p(0), poi: 5 };
        let iiid1 = Iiid { pid: p(0), poi: 9 };
        let w = b.write_at(iiid0, Address(0x10), Value(1));
        let r = b.read_at(iiid1, Address(0x10), Value(1));
        b.reads_from(w, r);
        b.coherence_after_initial(w);
        let exec = b.build();
        assert!(exec.po().contains(w, r));
        assert!(exec.validate().is_ok());
    }
}
