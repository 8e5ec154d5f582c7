//! The execution observer: turns architecturally performed operations into a
//! candidate execution object.
//!
//! Following the paper's §4.1, every dynamic write of a test is assigned a
//! globally unique value before execution, so the observer can reconstruct
//! both conflict orders purely from data values, without influencing the
//! functional execution:
//!
//! * **reads-from** (`rf`): the value a load observed maps to exactly one
//!   producing write (zero means the initial value);
//! * **coherence order** (`co`): the value a store *overwrote* maps to the
//!   write that is coherence-ordered immediately before it.
//!
//! Program order, the static event set and the syntactic dependency edges
//! (address/data/control; paper §5.2.1's dependency-carrying operations) are
//! derived from the test program itself before execution.
//!
//! Observation is identical for both core pipeline strengths
//! ([`CoreStrength`](crate::config::CoreStrength)): the dependency edges are
//! recorded from program *structure* whether or not the pipeline honoured
//! them, which is what makes a dependency-ordering bug (a relaxed core
//! ignoring a carried edge) visible — the checker sees the edge the hardware
//! dropped.

use crate::core::ObservedOp;
use crate::program::{TestOpKind, TestProgram};
use mcversi_mcm::execution::{CandidateExecution, ExecutionBuilder};
use mcversi_mcm::program::StaticPart;
use mcversi_mcm::{DepKind, EventId, Iiid, ProcessorId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Records performed operations of one test iteration and builds the
/// candidate execution.
///
/// The static portion (event set, program order, dependency edges, the
/// value→write and (thread, poi)→read maps) depends only on the program, so
/// an observer is reusable across the iterations of a test-run: call
/// [`reset`](ExecObserver::reset) between iterations instead of
/// reconstructing it — the per-iteration cost is then just clearing (and
/// reusing the capacity of) the two observation buffers.  The simulator
/// caches the observer per staged program for exactly this reason (see
/// `System::run_iteration`).
///
/// Every execution the observer finishes shares its [`StaticPart`]: the
/// program's events, program order and dependencies, and the orders the
/// checker derives from those on the first check of the test.  An iteration
/// owns only its copy of the events (with the values its reads observed and
/// the initial writes it needed appended) and its conflict orders.
#[derive(Debug)]
pub struct ExecObserver {
    /// The program's events (reads carrying value 0), their program order
    /// and dependencies.  Initial-value writes created while finalising carry
    /// no program point, so the part is identical for every iteration.
    program: Arc<StaticPart>,
    /// Write value -> write event (unique-value scheme).
    writes_by_value: BTreeMap<u64, EventId>,
    /// (thread, poi) -> read event awaiting its observed value.
    reads: BTreeMap<(usize, u32), EventId>,
    /// Observed read values, indexed densely by event id (event ids are
    /// allocated contiguously by the builder).  `0` doubles as "initial
    /// value" and "not observed" — both resolve to the initial write.
    read_values: Vec<u64>,
    /// Writes and the values they overwrote.
    observed_writes: Vec<(EventId, u64)>,
    /// Number of operations that reported completion.
    observed_count: usize,
    expected_count: usize,
}

impl ExecObserver {
    /// Prepares the observer for one iteration of `program`, creating the
    /// static event set (paper: static orders are gathered before execution).
    pub fn new(program: &TestProgram) -> Self {
        let mut builder = ExecutionBuilder::new();
        let mut writes_by_value = BTreeMap::new();
        let mut reads = BTreeMap::new();
        let mut expected_count = 0usize;
        for (t, thread) in program.threads().iter().enumerate() {
            let pid = ProcessorId(t as u32);
            // The most recent load event of this thread, the source of any
            // dependency carried by a later op (mirrors the core model, which
            // stalls dependent ops on the youngest prior *load*).
            let mut last_load: Option<EventId> = None;
            for (poi, op) in thread.iter().enumerate() {
                let iiid = Iiid {
                    pid,
                    poi: poi as u32,
                };
                let dep = op.kind.dep_kind();
                match op.kind {
                    TestOpKind::Read | TestOpKind::ReadAddrDp => {
                        // The value is filled in when the load retires.
                        let id = builder.read_at(iiid, op.addr, Value(0));
                        Self::record_dep(&mut builder, dep, last_load, id);
                        reads.insert((t, poi as u32), id);
                        last_load = Some(id);
                        expected_count += 1;
                    }
                    TestOpKind::Write { value }
                    | TestOpKind::WriteDataDp { value }
                    | TestOpKind::WriteCtrlDp { value } => {
                        let id = builder.write_at(iiid, op.addr, Value(value));
                        Self::record_dep(&mut builder, dep, last_load, id);
                        writes_by_value.insert(value, id);
                        expected_count += 1;
                    }
                    TestOpKind::ReadModifyWrite { value } => {
                        let (r, w) = builder.rmw_at(iiid, op.addr, Value(0), Value(value));
                        reads.insert((t, poi as u32), r);
                        writes_by_value.insert(value, w);
                        expected_count += 1;
                    }
                    TestOpKind::Fence { kind } => {
                        builder.fence_at(iiid, kind);
                        expected_count += 1;
                    }
                    TestOpKind::CacheFlush | TestOpKind::Delay { .. } => {}
                }
            }
        }
        let read_values = vec![0u64; builder.len()];
        ExecObserver {
            program: builder.into_static_part(),
            writes_by_value,
            reads,
            read_values,
            observed_writes: Vec::new(),
            observed_count: 0,
            expected_count,
        }
    }

    /// Records a dependency edge if the op carries one and a source load
    /// exists (a dependent op with no prior read degrades to a plain access,
    /// matching the core model's execution semantics).
    fn record_dep(
        builder: &mut ExecutionBuilder,
        dep: Option<DepKind>,
        last_load: Option<EventId>,
        target: EventId,
    ) {
        if let (Some(kind), Some(source)) = (dep, last_load) {
            builder.dependency(kind, source, target);
        }
    }

    /// Clears the dynamic observation state so the observer can record the
    /// next iteration of the *same* program.  The static event set and maps
    /// are untouched; the observation buffers keep their capacity.
    pub fn reset(&mut self) {
        self.read_values.fill(0);
        self.observed_writes.clear();
        self.observed_count = 0;
    }

    /// Number of memory-model-relevant operations expected to complete.
    pub fn expected_count(&self) -> usize {
        self.expected_count
    }

    /// Number of operations observed so far.
    pub fn observed_count(&self) -> usize {
        self.observed_count
    }

    /// Returns `true` once every expected operation has been observed.
    pub fn is_complete(&self) -> bool {
        self.observed_count >= self.expected_count
    }

    /// Records one performed operation of thread `thread`.
    pub fn record(&mut self, thread: usize, op: ObservedOp) {
        match op {
            ObservedOp::Load { poi, value, .. } => {
                if let Some(&ev) = self.reads.get(&(thread, poi)) {
                    self.read_values[ev.0 as usize] = value;
                    self.observed_count += 1;
                }
            }
            ObservedOp::Store {
                poi: _,
                value,
                overwritten,
                ..
            } => {
                if let Some(&ev) = self.writes_by_value.get(&value) {
                    self.observed_writes.push((ev, overwritten));
                    self.observed_count += 1;
                }
            }
            ObservedOp::Rmw {
                poi,
                write_value,
                read_value,
                ..
            } => {
                if let Some(&rev) = self.reads.get(&(thread, poi)) {
                    self.read_values[rev.0 as usize] = read_value;
                }
                if let Some(&wev) = self.writes_by_value.get(&write_value) {
                    self.observed_writes.push((wev, read_value));
                }
                self.observed_count += 1;
            }
            ObservedOp::Fence { .. } => {
                self.observed_count += 1;
            }
        }
    }

    /// Finalises the candidate execution for this iteration.
    ///
    /// Reads that never completed (e.g. because the iteration deadlocked) are
    /// given a reads-from edge to the initial write so the execution object
    /// stays well formed; callers should treat incomplete iterations
    /// separately (see [`is_complete`](Self::is_complete)).
    ///
    /// The observer itself is untouched (the iteration's values and conflict
    /// orders go into a builder over the shared static part), so after a
    /// [`reset`](Self::reset) it can observe the next iteration.
    pub fn finish(&self) -> CandidateExecution {
        let mut builder = ExecutionBuilder::over(&self.program);
        for &read_ev in self.reads.values() {
            let value = self.read_values[read_ev.0 as usize];
            builder.set_event_value(read_ev, Value(value));
            if value == 0 {
                builder.reads_from_initial(read_ev);
            } else if let Some(&w) = self.writes_by_value.get(&value) {
                builder.reads_from(w, read_ev);
            } else {
                // A value that no write of this test produced: treat it as an
                // unknown (initial) value; the checker will flag the mismatch
                // through coherence if it matters.
                builder.reads_from_initial(read_ev);
            }
        }
        // Coherence order from overwritten values.
        for &(write_ev, overwritten) in &self.observed_writes {
            if overwritten == 0 {
                builder.coherence_after_initial(write_ev);
            } else if let Some(&prev) = self.writes_by_value.get(&overwritten) {
                if prev != write_ev {
                    builder.coherence(prev, write_ev);
                }
                builder.coherence_after_initial(write_ev);
            } else {
                builder.coherence_after_initial(write_ev);
            }
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TestOp;
    use mcversi_mcm::checker::Checker;
    use mcversi_mcm::model::tso::Tso;
    use mcversi_mcm::Address;

    fn mp_program() -> TestProgram {
        TestProgram::new(vec![
            vec![
                TestOp::write(Address(0x100), 1),
                TestOp::write(Address(0x200), 2),
            ],
            vec![TestOp::read(Address(0x200)), TestOp::read(Address(0x100))],
        ])
    }

    #[test]
    fn static_events_created_for_all_memory_ops() {
        let obs = ExecObserver::new(&mp_program());
        assert_eq!(obs.expected_count(), 4);
        assert_eq!(obs.observed_count(), 0);
        assert!(!obs.is_complete());
    }

    #[test]
    fn valid_message_passing_execution_passes_tso() {
        let mut obs = ExecObserver::new(&mp_program());
        obs.record(
            0,
            ObservedOp::Store {
                poi: 0,
                addr: Address(0x100),
                value: 1,
                overwritten: 0,
            },
        );
        obs.record(
            0,
            ObservedOp::Store {
                poi: 1,
                addr: Address(0x200),
                value: 2,
                overwritten: 0,
            },
        );
        obs.record(
            1,
            ObservedOp::Load {
                poi: 0,
                addr: Address(0x200),
                value: 2,
            },
        );
        obs.record(
            1,
            ObservedOp::Load {
                poi: 1,
                addr: Address(0x100),
                value: 1,
            },
        );
        assert!(obs.is_complete());
        let exec = obs.finish();
        assert!(exec.validate().is_ok());
        assert!(Checker::new(&Tso).check(&exec).is_valid());
    }

    #[test]
    fn stale_read_after_flag_is_a_tso_violation() {
        let mut obs = ExecObserver::new(&mp_program());
        obs.record(
            0,
            ObservedOp::Store {
                poi: 0,
                addr: Address(0x100),
                value: 1,
                overwritten: 0,
            },
        );
        obs.record(
            0,
            ObservedOp::Store {
                poi: 1,
                addr: Address(0x200),
                value: 2,
                overwritten: 0,
            },
        );
        // Reader sees the flag but then the stale x.
        obs.record(
            1,
            ObservedOp::Load {
                poi: 0,
                addr: Address(0x200),
                value: 2,
            },
        );
        obs.record(
            1,
            ObservedOp::Load {
                poi: 1,
                addr: Address(0x100),
                value: 0,
            },
        );
        let exec = obs.finish();
        assert!(exec.validate().is_ok());
        assert!(Checker::new(&Tso).check(&exec).is_violation());
    }

    #[test]
    fn rmw_produces_paired_events_and_atomicity_holds() {
        let program = TestProgram::new(vec![vec![TestOp::rmw(Address(0x100), 5)]]);
        let mut obs = ExecObserver::new(&program);
        obs.record(
            0,
            ObservedOp::Rmw {
                poi: 0,
                addr: Address(0x100),
                write_value: 5,
                read_value: 0,
            },
        );
        assert!(obs.is_complete());
        let exec = obs.finish();
        assert!(exec.validate().is_ok());
        assert!(Checker::new(&Tso).check(&exec).is_valid());
        assert_eq!(exec.events().iter().filter(|e| e.kind.is_rmw()).count(), 2);
    }

    #[test]
    fn lost_update_detected_via_coherence() {
        // Two writes to the same address; the second overwrites the *initial*
        // value (the first write was lost); a later read of the first value is
        // then coherence-inconsistent on the writer's own thread.
        let program = TestProgram::new(vec![
            vec![
                TestOp::write(Address(0x100), 1),
                TestOp::read(Address(0x100)),
            ],
            vec![TestOp::write(Address(0x100), 2)],
        ]);
        let mut obs = ExecObserver::new(&program);
        obs.record(
            0,
            ObservedOp::Store {
                poi: 0,
                addr: Address(0x100),
                value: 1,
                overwritten: 0,
            },
        );
        obs.record(
            1,
            ObservedOp::Store {
                poi: 0,
                addr: Address(0x100),
                value: 2,
                overwritten: 1,
            },
        );
        // The writer later reads the initial value: its own write was lost.
        obs.record(
            0,
            ObservedOp::Load {
                poi: 1,
                addr: Address(0x100),
                value: 0,
            },
        );
        let exec = obs.finish();
        assert!(exec.validate().is_ok());
        assert!(Checker::new(&Tso).check(&exec).is_violation());
    }

    #[test]
    fn incomplete_iterations_are_reported() {
        let mut obs = ExecObserver::new(&mp_program());
        obs.record(
            0,
            ObservedOp::Store {
                poi: 0,
                addr: Address(0x100),
                value: 1,
                overwritten: 0,
            },
        );
        assert!(!obs.is_complete());
        assert_eq!(obs.observed_count(), 1);
    }

    #[test]
    fn dependencies_and_fence_flavours_reach_the_execution() {
        use mcversi_mcm::{DepKind, EventKind, FenceKind};
        // T0: R x; Rdep y; Wdata z; lwsync; Wctrl x.
        let program = TestProgram::new(vec![vec![
            TestOp::read(Address(0x100)),
            TestOp::read_addr_dp(Address(0x200)),
            TestOp::write_data_dp(Address(0x300), 7),
            TestOp::fence_of(FenceKind::LightweightSync),
            TestOp::write_ctrl_dp(Address(0x100), 8),
        ]]);
        let mut obs = ExecObserver::new(&program);
        assert_eq!(obs.expected_count(), 5);
        obs.record(
            0,
            ObservedOp::Load {
                poi: 0,
                addr: Address(0x100),
                value: 0,
            },
        );
        obs.record(
            0,
            ObservedOp::Load {
                poi: 1,
                addr: Address(0x200),
                value: 0,
            },
        );
        obs.record(
            0,
            ObservedOp::Store {
                poi: 2,
                addr: Address(0x300),
                value: 7,
                overwritten: 0,
            },
        );
        obs.record(0, ObservedOp::Fence { poi: 3 });
        obs.record(
            0,
            ObservedOp::Store {
                poi: 4,
                addr: Address(0x100),
                value: 8,
                overwritten: 0,
            },
        );
        assert!(obs.is_complete());
        let exec = obs.finish();
        assert!(exec.validate().is_ok(), "{:?}", exec.validate());
        let events = exec.events();
        let ev = |poi: u32| {
            events
                .iter()
                .find(|e| e.iiid.map(|i| i.poi) == Some(poi))
                .expect("event exists")
                .id
        };
        // Rdep y depends (addr) on R x; Wdata z on Rdep y; Wctrl x also on
        // Rdep y (the most recent load, despite the fence in between).
        assert!(exec.deps().of(DepKind::Addr).contains(ev(0), ev(1)));
        assert!(exec.deps().of(DepKind::Data).contains(ev(1), ev(2)));
        assert!(exec.deps().of(DepKind::Ctrl).contains(ev(1), ev(4)));
        assert_eq!(exec.deps().len(), 3);
        // The fence keeps its flavour.
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Fence(FenceKind::LightweightSync)));
    }

    #[test]
    fn leading_dependent_op_degrades_to_plain_access() {
        // A dependent read with no prior load records no dependency.
        let program = TestProgram::new(vec![vec![TestOp::read_addr_dp(Address(0x100))]]);
        let mut obs = ExecObserver::new(&program);
        obs.record(
            0,
            ObservedOp::Load {
                poi: 0,
                addr: Address(0x100),
                value: 0,
            },
        );
        let exec = obs.finish();
        assert!(exec.validate().is_ok());
        assert!(exec.deps().is_empty());
    }

    /// A reused (reset) observer reproduces exactly the execution a freshly
    /// constructed one builds — the reuse is a pure allocation optimisation.
    #[test]
    fn reset_observer_rebuilds_identical_executions() {
        let program = mp_program();
        let record_iteration = |obs: &mut ExecObserver, stale: bool| {
            obs.record(
                0,
                ObservedOp::Store {
                    poi: 0,
                    addr: Address(0x100),
                    value: 1,
                    overwritten: 0,
                },
            );
            obs.record(
                0,
                ObservedOp::Store {
                    poi: 1,
                    addr: Address(0x200),
                    value: 2,
                    overwritten: 0,
                },
            );
            obs.record(
                1,
                ObservedOp::Load {
                    poi: 0,
                    addr: Address(0x200),
                    value: 2,
                },
            );
            obs.record(
                1,
                ObservedOp::Load {
                    poi: 1,
                    addr: Address(0x100),
                    value: if stale { 0 } else { 1 },
                },
            );
        };

        let mut reused = ExecObserver::new(&program);
        for &stale in &[false, true, false] {
            reused.reset();
            assert_eq!(reused.observed_count(), 0);
            record_iteration(&mut reused, stale);
            assert!(reused.is_complete());
            let from_reused = reused.finish();

            let mut fresh = ExecObserver::new(&program);
            record_iteration(&mut fresh, stale);
            let from_fresh = fresh.finish();

            assert_eq!(from_reused.events(), from_fresh.events());
            assert_eq!(from_reused.po(), from_fresh.po());
            assert_eq!(from_reused.rf(), from_fresh.rf());
            assert_eq!(from_reused.co(), from_fresh.co());
            assert_eq!(from_reused.deps(), from_fresh.deps());
            assert_eq!(
                Checker::new(&Tso).check(&from_reused).is_violation(),
                stale,
                "stale={stale}"
            );
        }
    }

    #[test]
    fn fences_count_towards_completion() {
        let program = TestProgram::new(vec![vec![TestOp::fence()]]);
        let mut obs = ExecObserver::new(&program);
        assert_eq!(obs.expected_count(), 1);
        obs.record(0, ObservedOp::Fence { poi: 0 });
        assert!(obs.is_complete());
        let exec = obs.finish();
        assert!(Checker::new(&Tso).check(&exec).is_valid());
    }
}
