//! Static dataflow over a lowered test program.
//!
//! [`Dataflow`] walks the [`TestProgram`] IR once and produces the facts the
//! discrimination classifier consumes: the concrete memory accesses with
//! their event ids and the unique value each write stores (the
//! write-unique-ID scheme of the paper's §4.1 makes value flow exact), the
//! fence placements, and the per-thread def-use (dependency) edges.
//!
//! The walk mirrors the simulator's
//! [`ExecObserver`](mcversi_sim::observer::ExecObserver) event construction
//! *exactly* — same thread-major event-id allocation (reads, writes and
//! fences allocate one event, RMWs two, cache flushes and delays none), same
//! "most recent load" dependency source, and the same degradation rule (a
//! dependency-carrying op with no prior load in its thread records no edge).
//! This is what makes the static dependency graph directly comparable with
//! the dynamic `CandidateExecution::deps`: the test suite asserts equality on
//! random chromosomes.

use mcversi_mcm::{Address, DepKind, DependencySet, Dir, EventId, FenceKind};
use mcversi_sim::{TestOpKind, TestProgram};
use std::collections::BTreeSet;

/// One concrete memory access of the program (an event-in-waiting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The event id the observer will allocate for this access.
    pub id: EventId,
    /// Issuing thread (0-based).
    pub thread: usize,
    /// Index of the originating op within its thread's program (the
    /// observer's program-order index; flushes and delays consume an index
    /// but produce no access).
    pub poi: u32,
    /// Access direction (read or write).
    pub dir: Dir,
    /// Accessed location.
    pub addr: Address,
    /// The syntactic dependency kind the op carries, if any (`ReadAddrDp`,
    /// `WriteDataDp`, `WriteCtrlDp`).
    pub dep_kind: Option<DepKind>,
    /// The load event feeding the carried dependency, when one exists: the
    /// thread's most recent load before this op.  `None` for plain accesses
    /// *and* for dependency-carrying ops with no prior load (which degrade
    /// to plain accesses, as in the observer).
    pub dep_source: Option<EventId>,
    /// The globally unique value a write stores (`None` for reads, whose
    /// values are dynamic).
    pub value: Option<u64>,
}

/// One fence of the program, with its position in the event-id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FencePoint {
    /// The event id the observer will allocate for this fence.
    pub id: EventId,
    /// Issuing thread.
    pub thread: usize,
    /// Op index within the thread's program.
    pub poi: u32,
    /// Fence flavour.
    pub kind: FenceKind,
}

/// The static dataflow facts of one lowered program.
#[derive(Debug, Clone)]
pub struct Dataflow {
    num_threads: usize,
    accesses: Vec<Access>,
    fences: Vec<FencePoint>,
    deps: DependencySet,
}

impl Dataflow {
    /// Analyzes a lowered program.
    pub fn new(program: &TestProgram) -> Self {
        let mut accesses = Vec::new();
        let mut fences = Vec::new();
        let mut deps = DependencySet::new();
        let mut next_event = 0u32;
        let mut alloc = || {
            let id = EventId(next_event);
            next_event += 1;
            id
        };
        for (t, thread) in program.threads().iter().enumerate() {
            // The most recent load of this thread: the def every carried
            // dependency uses (mirrors the observer and the core model).
            let mut last_load: Option<EventId> = None;
            for (poi, op) in thread.iter().enumerate() {
                let poi = poi as u32;
                let dep = op.kind.dep_kind();
                match op.kind {
                    TestOpKind::Read | TestOpKind::ReadAddrDp => {
                        let id = alloc();
                        let source = record_dep(&mut deps, dep, last_load, id);
                        accesses.push(Access {
                            id,
                            thread: t,
                            poi,
                            dir: Dir::R,
                            addr: op.addr,
                            dep_kind: dep,
                            dep_source: source,
                            value: None,
                        });
                        last_load = Some(id);
                    }
                    TestOpKind::Write { value }
                    | TestOpKind::WriteDataDp { value }
                    | TestOpKind::WriteCtrlDp { value } => {
                        let id = alloc();
                        let source = record_dep(&mut deps, dep, last_load, id);
                        accesses.push(Access {
                            id,
                            thread: t,
                            poi,
                            dir: Dir::W,
                            addr: op.addr,
                            dep_kind: dep,
                            dep_source: source,
                            value: Some(value),
                        });
                    }
                    TestOpKind::ReadModifyWrite { value } => {
                        // RMWs allocate a read and a write event, carry no
                        // syntactic dependency, and do not become a later
                        // op's dependency source (the observer mirrors the
                        // core model here).
                        let r = alloc();
                        let w = alloc();
                        accesses.push(Access {
                            id: r,
                            thread: t,
                            poi,
                            dir: Dir::R,
                            addr: op.addr,
                            dep_kind: None,
                            dep_source: None,
                            value: None,
                        });
                        accesses.push(Access {
                            id: w,
                            thread: t,
                            poi,
                            dir: Dir::W,
                            addr: op.addr,
                            dep_kind: None,
                            dep_source: None,
                            value: Some(value),
                        });
                    }
                    TestOpKind::Fence { kind } => {
                        fences.push(FencePoint {
                            id: alloc(),
                            thread: t,
                            poi,
                            kind,
                        });
                    }
                    TestOpKind::CacheFlush | TestOpKind::Delay { .. } => {}
                }
            }
        }
        Dataflow {
            num_threads: program.num_threads(),
            accesses,
            fences,
            deps,
        }
    }

    /// Number of threads of the analyzed program.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// All memory accesses, in event-id order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// All fences, in event-id order.
    pub fn fences(&self) -> &[FencePoint] {
        &self.fences
    }

    /// The static syntactic dependency graph, one relation per
    /// [`DepKind`] — the def-use chains of the program.  Matches the
    /// observer-recorded `CandidateExecution::deps` edge for edge.
    pub fn deps(&self) -> &DependencySet {
        &self.deps
    }

    /// The distinct fence kinds strictly between op indices `lo` and `hi`
    /// (exclusive on both sides) of one thread, in [`FenceKind::ALL`]
    /// (strongest-first) order.
    pub fn fence_kinds_between(&self, thread: usize, lo: u32, hi: u32) -> Vec<FenceKind> {
        let present: BTreeSet<FenceKind> = self
            .fences
            .iter()
            .filter(|f| f.thread == thread && f.poi > lo && f.poi < hi)
            .map(|f| f.kind)
            .collect();
        FenceKind::ALL
            .into_iter()
            .filter(|k| present.contains(k))
            .collect()
    }
}

/// Records a dependency edge if the op carries one and a source load exists,
/// returning the source used (mirrors `ExecObserver::record_dep`).
fn record_dep(
    deps: &mut DependencySet,
    dep: Option<DepKind>,
    last_load: Option<EventId>,
    target: EventId,
) -> Option<EventId> {
    if let (Some(kind), Some(source)) = (dep, last_load) {
        deps.of_mut(kind).insert(source, target);
        Some(source)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_sim::observer::ExecObserver;
    use mcversi_sim::TestOp;

    fn x() -> Address {
        Address(0x100)
    }
    fn y() -> Address {
        Address(0x140)
    }
    fn z() -> Address {
        Address(0x180)
    }

    /// The observer's pinned dependency-chain example: deps flow from the
    /// most recent load, across fences, and the leading dependent op records
    /// nothing.
    #[test]
    fn dependency_chain_matches_the_observer_pin() {
        let program = TestProgram::new(vec![vec![
            TestOp::read(x()),
            TestOp::read_addr_dp(y()),
            TestOp::write_data_dp(z(), 1),
            TestOp::fence(),
            TestOp::write_ctrl_dp(x(), 2),
        ]]);
        let df = Dataflow::new(&program);
        assert!(df.deps().of(DepKind::Addr).contains(EventId(0), EventId(1)));
        assert!(df.deps().of(DepKind::Data).contains(EventId(1), EventId(2)));
        assert!(df.deps().of(DepKind::Ctrl).contains(EventId(1), EventId(4)));
        assert_eq!(df.deps().len(), 3);
        // Event ids skip nothing: the fence is event 3.
        assert_eq!(df.fences()[0].id, EventId(3));
        assert_eq!(df.fences()[0].kind, FenceKind::Full);
    }

    /// The static graph equals the dynamic one on a program exercising every
    /// op kind, including the RMW and flush/delay allocation rules.
    #[test]
    fn deps_and_event_ids_match_the_observer() {
        let program = TestProgram::new(vec![
            vec![
                TestOp::read(x()),
                TestOp::rmw(y(), 7),
                TestOp::write_data_dp(z(), 1),
                TestOp::flush(x()),
                TestOp::delay(3),
                TestOp::read_addr_dp(y()),
            ],
            vec![
                TestOp::write_ctrl_dp(x(), 2),
                TestOp::read(z()),
                TestOp::fence_of(FenceKind::LightweightSync),
                TestOp::write_data_dp(y(), 3),
            ],
        ]);
        let df = Dataflow::new(&program);
        let dynamic = ExecObserver::new(&program).finish();
        assert_eq!(df.deps(), dynamic.deps());
        // The RMW neither records a dependency nor feeds later ones: the
        // data dep of thread 0 is sourced at the plain read, not the RMW.
        assert!(df.deps().of(DepKind::Data).contains(EventId(0), EventId(3)));
        // Thread 1's leading ctrl-dep write has no prior load: degraded.
        let t1_first = df.accesses().iter().find(|a| a.thread == 1);
        let t1_first = t1_first.expect("thread 1 has accesses");
        assert_eq!(t1_first.dep_kind, Some(DepKind::Ctrl));
        assert_eq!(t1_first.dep_source, None);
        // Static event count matches the observer's (initial writes are
        // created later, during `finish`, with higher ids).
        let static_events = dynamic.events().iter().filter(|e| !e.is_initial()).count();
        assert_eq!(
            df.accesses().len() + df.fences().len(),
            static_events,
            "event allocation must mirror the observer"
        );
        // Each write's unique value names it; the RMW's is on its write half.
        let write_of = |v| {
            df.accesses()
                .iter()
                .find(|a| a.value == Some(v))
                .map(|a| a.id)
        };
        assert_eq!(write_of(7), Some(EventId(2)));
        assert_eq!(write_of(2), Some(EventId(5)));
        assert_eq!(write_of(9), None);
        assert_eq!(df.num_threads(), 2);
    }

    #[test]
    fn fence_kinds_between_is_exclusive_and_ordered() {
        let program = TestProgram::new(vec![vec![
            TestOp::write(x(), 1),
            TestOp::fence_of(FenceKind::Release),
            TestOp::fence(),
            TestOp::write(y(), 2),
        ]]);
        let df = Dataflow::new(&program);
        // Strongest-first order regardless of program position.
        assert_eq!(
            df.fence_kinds_between(0, 0, 3),
            vec![FenceKind::Full, FenceKind::Release]
        );
        assert!(df.fence_kinds_between(0, 1, 2).is_empty());
        assert!(df.fence_kinds_between(1, 0, 3).is_empty());
    }
}
