//! Executable test programs: the simulator-side representation of a test.
//!
//! The test generator (crate `mcversi-testgen`) produces tests as DAGs of
//! high-level operations; the McVerSi framework lowers each test into a
//! [`TestProgram`] — one [`ThreadProgram`] per core, each a sequence of
//! [`TestOp`]s in program order — and hands it to the guest workload for
//! execution (the analogue of the paper's on-the-fly code emission to the
//! target ISA).
//!
//! Every dynamic write carries a globally unique value (the "write unique ID"
//! scheme of §4.1) so the observer can map any read value back to exactly one
//! producing write.

use mcversi_mcm::{Address, DepKind, FenceKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a test operation (paper Table 3's operation set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestOpKind {
    /// Read into a register.
    Read,
    /// Read into a register with an address dependency on the previous read.
    ///
    /// The address itself is static (the dependency is modelled as an issue
    /// dependency on the previous read's completion), which preserves the
    /// timing behaviour relevant to TSO without dynamic address computation.
    ReadAddrDp,
    /// Write the given unique value from a register.
    Write {
        /// The globally unique value written.
        value: u64,
    },
    /// Write whose data is computed from the previous read's value.
    ///
    /// The written value is still the statically assigned unique value (the
    /// dependency is modelled as an issue dependency on the previous read's
    /// completion, like [`TestOpKind::ReadAddrDp`]), so the observer's
    /// value-based conflict-order reconstruction is unaffected.
    WriteDataDp {
        /// The globally unique value written.
        value: u64,
    },
    /// Write control-dependent on the previous read (a branch on the read's
    /// value precedes it); execution-wise identical to
    /// [`TestOpKind::WriteDataDp`] but recorded as a control dependency.
    WriteCtrlDp {
        /// The globally unique value written.
        value: u64,
    },
    /// Atomic read-modify-write writing the given unique value (on x86 this
    /// also implies a full fence).
    ReadModifyWrite {
        /// The globally unique value written.
        value: u64,
    },
    /// Flush the accessed line from the local cache (`clflush`).
    CacheFlush,
    /// A constant delay of the given number of cycles (NOPs).
    Delay {
        /// Number of cycles to stall.
        cycles: u32,
    },
    /// A memory fence of the given flavour.  Not part of the default Table 3
    /// mix (RMWs already imply fences on x86) but available to litmus tests
    /// and relaxed-model campaigns.  The simulated core conservatively treats
    /// every flavour like a full fence — legal for any weaker fence — while
    /// the observer records the precise flavour for the checker.
    Fence {
        /// The fence flavour.
        kind: FenceKind,
    },
}

impl TestOpKind {
    /// Returns `true` if the operation reads memory.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            TestOpKind::Read | TestOpKind::ReadAddrDp | TestOpKind::ReadModifyWrite { .. }
        )
    }

    /// Returns `true` if the operation writes memory.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            TestOpKind::Write { .. }
                | TestOpKind::WriteDataDp { .. }
                | TestOpKind::WriteCtrlDp { .. }
                | TestOpKind::ReadModifyWrite { .. }
        )
    }

    /// Returns `true` if the operation accesses memory at all.
    pub fn is_memory_access(self) -> bool {
        self.is_read() || self.is_write() || matches!(self, TestOpKind::CacheFlush)
    }

    /// The value written by the operation, if it writes.
    pub fn written_value(self) -> Option<u64> {
        match self {
            TestOpKind::Write { value }
            | TestOpKind::WriteDataDp { value }
            | TestOpKind::WriteCtrlDp { value }
            | TestOpKind::ReadModifyWrite { value } => Some(value),
            _ => None,
        }
    }

    /// The dependency the operation carries on the previous read, if any.
    pub fn dep_kind(self) -> Option<DepKind> {
        match self {
            TestOpKind::ReadAddrDp => Some(DepKind::Addr),
            TestOpKind::WriteDataDp { .. } => Some(DepKind::Data),
            TestOpKind::WriteCtrlDp { .. } => Some(DepKind::Ctrl),
            _ => None,
        }
    }
}

/// One operation of a thread program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestOp {
    /// What the operation does.
    pub kind: TestOpKind,
    /// The (8-byte aligned) address accessed; ignored for `Delay` and `Fence`.
    pub addr: Address,
}

impl TestOp {
    /// Creates a read operation.
    pub fn read(addr: Address) -> Self {
        TestOp {
            kind: TestOpKind::Read,
            addr,
        }
    }

    /// Creates an address-dependent read operation.
    pub fn read_addr_dp(addr: Address) -> Self {
        TestOp {
            kind: TestOpKind::ReadAddrDp,
            addr,
        }
    }

    /// Creates a write operation with the given unique value.
    pub fn write(addr: Address, value: u64) -> Self {
        TestOp {
            kind: TestOpKind::Write { value },
            addr,
        }
    }

    /// Creates a data-dependent write operation.
    pub fn write_data_dp(addr: Address, value: u64) -> Self {
        TestOp {
            kind: TestOpKind::WriteDataDp { value },
            addr,
        }
    }

    /// Creates a control-dependent write operation.
    pub fn write_ctrl_dp(addr: Address, value: u64) -> Self {
        TestOp {
            kind: TestOpKind::WriteCtrlDp { value },
            addr,
        }
    }

    /// Creates an atomic read-modify-write operation.
    pub fn rmw(addr: Address, value: u64) -> Self {
        TestOp {
            kind: TestOpKind::ReadModifyWrite { value },
            addr,
        }
    }

    /// Creates a cache-flush operation.
    pub fn flush(addr: Address) -> Self {
        TestOp {
            kind: TestOpKind::CacheFlush,
            addr,
        }
    }

    /// Creates a delay operation.
    pub fn delay(cycles: u32) -> Self {
        TestOp {
            kind: TestOpKind::Delay { cycles },
            addr: Address(0),
        }
    }

    /// Creates a full-fence operation.
    pub fn fence() -> Self {
        Self::fence_of(FenceKind::Full)
    }

    /// Creates a fence operation of the given flavour.
    pub fn fence_of(kind: FenceKind) -> Self {
        TestOp {
            kind: TestOpKind::Fence { kind },
            addr: Address(0),
        }
    }
}

impl fmt::Display for TestOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TestOpKind::Read => write!(f, "R {}", self.addr),
            TestOpKind::ReadAddrDp => write!(f, "Rdep {}", self.addr),
            TestOpKind::Write { value } => write!(f, "W {} = {}", self.addr, value),
            TestOpKind::WriteDataDp { value } => write!(f, "Wdata {} = {}", self.addr, value),
            TestOpKind::WriteCtrlDp { value } => write!(f, "Wctrl {} = {}", self.addr, value),
            TestOpKind::ReadModifyWrite { value } => write!(f, "RMW {} = {}", self.addr, value),
            TestOpKind::CacheFlush => write!(f, "FLUSH {}", self.addr),
            TestOpKind::Delay { cycles } => write!(f, "DELAY {cycles}"),
            TestOpKind::Fence { kind } => write!(f, "FENCE[{kind}]"),
        }
    }
}

/// The program-ordered operation sequence of one thread.
pub type ThreadProgram = Vec<TestOp>;

/// A whole multi-threaded test program, indexed by core id.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestProgram {
    threads: Vec<ThreadProgram>,
}

impl TestProgram {
    /// Creates a program from per-thread operation sequences.
    pub fn new(threads: Vec<ThreadProgram>) -> Self {
        TestProgram { threads }
    }

    /// Number of threads (must not exceed the simulated core count).
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The operations of thread `t`.
    pub fn thread(&self, t: usize) -> &[TestOp] {
        &self.threads[t]
    }

    /// All thread programs.
    pub fn threads(&self) -> &[ThreadProgram] {
        &self.threads
    }

    /// Total number of operations across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }

    /// All distinct (8-byte) addresses accessed by memory operations.
    pub fn addresses(&self) -> Vec<Address> {
        let mut addrs: Vec<Address> = self
            .threads
            .iter()
            .flatten()
            .filter(|op| op.kind.is_memory_access())
            .map(|op| op.addr)
            .collect();
        addrs.sort();
        addrs.dedup();
        addrs
    }

    /// Verifies that every written value is unique and non-zero.
    ///
    /// The observer relies on this to map read values back to producing
    /// writes; zero is reserved for the initial value.
    pub fn written_values_unique(&self) -> bool {
        let mut values: Vec<u64> = self
            .threads
            .iter()
            .flatten()
            .filter_map(|op| op.kind.written_value())
            .collect();
        if values.contains(&0) {
            return false;
        }
        let before = values.len();
        values.sort_unstable();
        values.dedup();
        values.len() == before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_mcm::EventKind;

    #[test]
    fn op_kind_predicates() {
        assert!(TestOpKind::Read.is_read());
        assert!(!TestOpKind::Read.is_write());
        assert!(TestOpKind::Write { value: 1 }.is_write());
        assert!(TestOpKind::ReadModifyWrite { value: 2 }.is_read());
        assert!(TestOpKind::ReadModifyWrite { value: 2 }.is_write());
        assert!(TestOpKind::CacheFlush.is_memory_access());
        assert!(!TestOpKind::Delay { cycles: 5 }.is_memory_access());
        assert_eq!(TestOpKind::Write { value: 3 }.written_value(), Some(3));
        assert_eq!(TestOpKind::Read.written_value(), None);
        assert!(TestOpKind::WriteDataDp { value: 4 }.is_write());
        assert!(TestOpKind::WriteCtrlDp { value: 5 }.is_write());
        assert_eq!(
            TestOpKind::WriteDataDp { value: 4 }.written_value(),
            Some(4)
        );
        assert_eq!(TestOpKind::ReadAddrDp.dep_kind(), Some(DepKind::Addr));
        assert_eq!(
            TestOpKind::WriteDataDp { value: 4 }.dep_kind(),
            Some(DepKind::Data)
        );
        assert_eq!(
            TestOpKind::WriteCtrlDp { value: 5 }.dep_kind(),
            Some(DepKind::Ctrl)
        );
        assert_eq!(TestOpKind::Write { value: 3 }.dep_kind(), None);
    }

    /// The kinds of the events the observer gives `op`, run on its own.
    fn event_kinds(op: TestOp) -> Vec<EventKind> {
        let observer = crate::observer::ExecObserver::new(&TestProgram::new(vec![vec![op]]));
        let events = observer.finish().events().to_vec();
        let of_the_op = events.into_iter().filter(|e| e.iiid.is_some());
        of_the_op.map(|e| e.kind).collect()
    }

    #[test]
    fn fence_flavours_map_to_event_kinds() {
        for kind in FenceKind::ALL {
            assert_eq!(
                event_kinds(TestOp::fence_of(kind)),
                vec![EventKind::Fence(kind)]
            );
        }
        assert_eq!(
            event_kinds(TestOp::write_data_dp(Address(8), 1)),
            vec![EventKind::Write]
        );
        assert_eq!(
            event_kinds(TestOp::write_ctrl_dp(Address(8), 2)),
            vec![EventKind::Write]
        );
    }

    #[test]
    fn event_kind_mapping() {
        assert_eq!(event_kinds(TestOp::read(Address(8))), vec![EventKind::Read]);
        assert_eq!(
            event_kinds(TestOp::rmw(Address(8), 1)),
            vec![EventKind::RmwRead, EventKind::RmwWrite]
        );
        assert!(event_kinds(TestOp::delay(3)).is_empty());
        assert!(event_kinds(TestOp::flush(Address(8))).is_empty());
    }

    #[test]
    fn program_accessors() {
        let prog = TestProgram::new(vec![
            vec![
                TestOp::write(Address(0x100), 1),
                TestOp::read(Address(0x200)),
            ],
            vec![
                TestOp::write(Address(0x200), 2),
                TestOp::read(Address(0x100)),
            ],
        ]);
        assert_eq!(prog.num_threads(), 2);
        assert_eq!(prog.total_ops(), 4);
        assert_eq!(prog.thread(0).len(), 2);
        assert_eq!(prog.addresses(), vec![Address(0x100), Address(0x200)]);
        assert!(prog.written_values_unique());
    }

    #[test]
    fn duplicate_or_zero_values_rejected() {
        let dup = TestProgram::new(vec![vec![
            TestOp::write(Address(0x100), 1),
            TestOp::write(Address(0x200), 1),
        ]]);
        assert!(!dup.written_values_unique());
        let zero = TestProgram::new(vec![vec![TestOp::write(Address(0x100), 0)]]);
        assert!(!zero.written_values_unique());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TestOp::read(Address(0x8))), "R 0x8");
        assert_eq!(format!("{}", TestOp::write(Address(0x8), 5)), "W 0x8 = 5");
        assert_eq!(format!("{}", TestOp::fence()), "FENCE[mfence]");
        assert_eq!(
            format!("{}", TestOp::fence_of(FenceKind::LightweightSync)),
            "FENCE[lwsync]"
        );
    }
}
