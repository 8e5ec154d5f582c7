//! Events and their identifying metadata.
//!
//! An *event* is a single memory-model-visible action: a read, a write, a
//! fence, or one half of a read-modify-write.  Each memory instruction of a
//! test maps to one event, except read-modify-write instructions which map to
//! a read event and a write event sharing the same instruction identifier
//! ([`Iiid`]).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a hardware thread / processor (0-based).
///
/// A newtype so processor ids cannot be confused with addresses or values.
///
/// ```
/// use mcversi_mcm::event::ProcessorId;
/// let p = ProcessorId(3);
/// assert_eq!(p.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessorId(pub u32);

impl ProcessorId {
    /// Returns the processor id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A byte address in the simulated physical address space.
///
/// Conflict order relations only relate events with equal addresses, so the
/// granularity at which addresses are compared matters: McVerSi relates events
/// at the granularity of the access (all test accesses are aligned and of
/// equal size), which this newtype models directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Address(pub u64);

impl Address {
    /// Returns the cache-line-aligned address for a given line size.
    ///
    /// ```
    /// use mcversi_mcm::event::Address;
    /// assert_eq!(Address(0x1234).line(64), Address(0x1200));
    /// ```
    pub fn line(self, line_bytes: u64) -> Address {
        Address(self.0 / line_bytes * line_bytes)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A data value read or written by an event.
///
/// McVerSi assigns each dynamic write a globally unique value before the test
/// executes, so any observed read value maps back to exactly one producing
/// write ("write unique ID" scheme, §4.1 of the paper).  The initial value of
/// every location is zero.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Value(pub u64);

impl Value {
    /// The initial (pre-test) value of every memory location.
    pub const INITIAL: Value = Value(0);

    /// Returns `true` if this is the initial value.
    pub fn is_initial(self) -> bool {
        self == Self::INITIAL
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Instruction instance identifier: which processor issued the instruction and
/// at which program-order index.
///
/// Events originating from the same instruction (e.g. the read and write halves
/// of an atomic read-modify-write) share the same `Iiid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Iiid {
    /// Issuing processor.
    pub pid: ProcessorId,
    /// Program-order index within the issuing processor's instruction stream.
    pub poi: u32,
}

impl fmt::Display for Iiid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.pid, self.poi)
    }
}

/// Dense identifier of an event within one [`CandidateExecution`].
///
/// Event ids are allocated contiguously from zero by [`ExecutionBuilder`],
/// which lets relations index events cheaply.
///
/// [`CandidateExecution`]: crate::execution::CandidateExecution
/// [`ExecutionBuilder`]: crate::execution::ExecutionBuilder
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId(pub u32);

impl EventId {
    /// Returns the event id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Kinds of memory fences that can appear in a test.
///
/// The first three are the x86 flavours the original evaluation uses; the
/// remaining three exist for the relaxed (ARM/Power-style) target models:
/// acquire/release-style one-directional fences and a Power `lwsync`-style
/// lightweight fence that orders everything except write→read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FenceKind {
    /// A full fence ordering all memory operations across it (x86 `MFENCE`,
    /// ARM `DMB SY`, Power `sync`).  Cumulative under the relaxed models.
    Full,
    /// A store-store fence (x86 `SFENCE`, ARM `DMB ST`).
    StoreStore,
    /// A load-load fence (x86 `LFENCE`, ARM `DMB LD` restricted to loads).
    LoadLoad,
    /// An acquire-style fence: program-order-earlier *reads* are ordered
    /// against everything after the fence (ARM `LDAR`-like, C11 acquire).
    Acquire,
    /// A release-style fence: everything before the fence is ordered against
    /// program-order-later *writes* (ARM `STLR`-like, C11 release).
    Release,
    /// A Power `lwsync`-style lightweight fence: orders all pairs except
    /// write→read, cumulatively.
    LightweightSync,
}

impl FenceKind {
    /// Every fence kind, strongest first.
    pub const ALL: [FenceKind; 6] = [
        FenceKind::Full,
        FenceKind::LightweightSync,
        FenceKind::Acquire,
        FenceKind::Release,
        FenceKind::StoreStore,
        FenceKind::LoadLoad,
    ];
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FenceKind::Full => write!(f, "mfence"),
            FenceKind::StoreStore => write!(f, "sfence"),
            FenceKind::LoadLoad => write!(f, "lfence"),
            FenceKind::Acquire => write!(f, "acq"),
            FenceKind::Release => write!(f, "rel"),
            FenceKind::LightweightSync => write!(f, "lwsync"),
        }
    }
}

/// The syntactic dependency kinds a test can carry between a read and a
/// program-order-later access (paper §5.2.1: targeting MCMs weaker than TSO
/// requires growing the operation set with dependencies).
///
/// A dependency edge always goes from a read to a program-order-later access
/// of the *same* thread; relaxed models include these edges in their
/// preserved program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// The address of the target access is computed from the read's value.
    Addr,
    /// The data written by the target write is computed from the read's value.
    Data,
    /// The target access is control-dependent on the read (a branch on the
    /// read's value precedes it).
    Ctrl,
}

impl DepKind {
    /// All dependency kinds.
    pub const ALL: [DepKind; 3] = [DepKind::Addr, DepKind::Data, DepKind::Ctrl];
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Addr => write!(f, "addr"),
            DepKind::Data => write!(f, "data"),
            DepKind::Ctrl => write!(f, "ctrl"),
        }
    }
}

/// The kind of action an event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A read of a memory location.
    Read,
    /// A write to a memory location.
    Write,
    /// The read half of an atomic read-modify-write.
    RmwRead,
    /// The write half of an atomic read-modify-write.
    RmwWrite,
    /// A memory fence.
    Fence(FenceKind),
}

impl EventKind {
    /// Returns `true` for reads (including the read half of an RMW).
    pub fn is_read(self) -> bool {
        matches!(self, EventKind::Read | EventKind::RmwRead)
    }

    /// Returns `true` for writes (including the write half of an RMW).
    pub fn is_write(self) -> bool {
        matches!(self, EventKind::Write | EventKind::RmwWrite)
    }

    /// Returns `true` for fences.
    pub fn is_fence(self) -> bool {
        matches!(self, EventKind::Fence(_))
    }

    /// Returns `true` for either half of an atomic read-modify-write.
    pub fn is_rmw(self) -> bool {
        matches!(self, EventKind::RmwRead | EventKind::RmwWrite)
    }

    /// Returns `true` if the event accesses memory (read or write).
    pub fn is_memory_access(self) -> bool {
        self.is_read() || self.is_write()
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Read => write!(f, "R"),
            EventKind::Write => write!(f, "W"),
            EventKind::RmwRead => write!(f, "R*"),
            EventKind::RmwWrite => write!(f, "W*"),
            EventKind::Fence(k) => write!(f, "F[{k}]"),
        }
    }
}

/// A memory-model event.
///
/// Events are created through [`ExecutionBuilder`] which allocates their ids;
/// they are immutable thereafter.
///
/// [`ExecutionBuilder`]: crate::execution::ExecutionBuilder
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Dense identifier within the execution.
    pub id: EventId,
    /// Issuing instruction; `None` for synthetic initial-value writes.
    pub iiid: Option<Iiid>,
    /// What the event does.
    pub kind: EventKind,
    /// Accessed address; `None` for fences.
    pub addr: Option<Address>,
    /// Value read or written; [`Value::INITIAL`] for fences.
    pub value: Value,
}

impl Event {
    /// Returns `true` if the event is a synthetic initial-value write.
    pub fn is_initial(&self) -> bool {
        self.iiid.is_none() && self.kind.is_write()
    }

    /// Returns the issuing processor, if the event belongs to a real thread.
    pub fn pid(&self) -> Option<ProcessorId> {
        self.iiid.map(|i| i.pid)
    }

    /// Returns `true` if the event is a read (including the read half of a RMW).
    pub fn is_read(&self) -> bool {
        self.kind.is_read()
    }

    /// Returns `true` if the event is a write (including the write half of a RMW).
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }

    /// Returns `true` if the event is a fence.
    pub fn is_fence(&self) -> bool {
        self.kind.is_fence()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.iiid, self.addr) {
            (Some(iiid), Some(addr)) => {
                write!(f, "{}[{} {}={}]", self.id, iiid, addr, self.value)?;
                write!(f, " {}", self.kind)
            }
            (Some(iiid), None) => write!(f, "{}[{}] {}", self.id, iiid, self.kind),
            (None, Some(addr)) => write!(f, "{}[init {}]", self.id, addr),
            (None, None) => write!(f, "{}[?]", self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_line_alignment() {
        assert_eq!(Address(0).line(64), Address(0));
        assert_eq!(Address(63).line(64), Address(0));
        assert_eq!(Address(64).line(64), Address(64));
        assert_eq!(Address(0x12345).line(64), Address(0x12340));
    }

    #[test]
    fn value_initial() {
        assert!(Value::INITIAL.is_initial());
        assert!(!Value(7).is_initial());
        assert_eq!(Value::default(), Value::INITIAL);
    }

    #[test]
    fn event_kind_predicates() {
        assert!(EventKind::Read.is_read());
        assert!(EventKind::RmwRead.is_read());
        assert!(!EventKind::Write.is_read());
        assert!(EventKind::Write.is_write());
        assert!(EventKind::RmwWrite.is_write());
        assert!(!EventKind::Read.is_write());
        assert!(EventKind::Fence(FenceKind::Full).is_fence());
        assert!(!EventKind::Fence(FenceKind::Full).is_memory_access());
        assert!(EventKind::RmwWrite.is_rmw());
        assert!(EventKind::Read.is_memory_access());
    }

    #[test]
    fn display_formats_are_informative() {
        let e = Event {
            id: EventId(3),
            iiid: Some(Iiid {
                pid: ProcessorId(1),
                poi: 9,
            }),
            kind: EventKind::Write,
            addr: Some(Address(0x40)),
            value: Value(5),
        };
        let s = format!("{e}");
        assert!(s.contains("e3"));
        assert!(s.contains("P1"));
        assert!(s.contains("0x40"));
        assert!(!format!("{:?}", e).is_empty());
    }

    #[test]
    fn initial_event_detection() {
        let init = Event {
            id: EventId(0),
            iiid: None,
            kind: EventKind::Write,
            addr: Some(Address(0)),
            value: Value::INITIAL,
        };
        assert!(init.is_initial());
        assert_eq!(init.pid(), None);
    }

    #[test]
    fn fence_and_dep_kinds_display_uniquely() {
        let mut names: Vec<String> = FenceKind::ALL.iter().map(|k| k.to_string()).collect();
        names.extend(DepKind::ALL.iter().map(|k| k.to_string()));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "fence/dep display names collide");
        assert_eq!(FenceKind::ALL.len(), 6);
        assert_eq!(DepKind::ALL.len(), 3);
    }

    #[test]
    fn ordering_of_ids_is_numeric() {
        assert!(EventId(2) < EventId(10));
        assert!(ProcessorId(0) < ProcessorId(1));
        assert!(Address(0x10) < Address(0x20));
    }
}
