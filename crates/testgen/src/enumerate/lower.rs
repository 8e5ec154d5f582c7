//! Lowering a critical cycle to a runnable [`LitmusTest`].
//!
//! Each thread segment becomes one thread's operation list: writes and reads
//! over the cycle's locations, with fenced internal edges inserting the fence
//! operation and dependency edges turning the target access into its
//! dependent form (`ReadAddrDp` / `WriteDataDp` / `WriteCtrlDp` — the same
//! operations the hand-written suites use, so dependencies flow through
//! lowering, the core's issue stalls and the observer identically).  The
//! genes interleave the threads round-robin, mirroring the hand-written
//! builder, so the flat list mixes threads while preserving per-thread
//! program order.

use crate::litmus::LitmusTest;
use crate::ops::{Op, OpKind};
use crate::test::{Gene, Test};
use mcversi_mcm::cycle::{CriticalCycle, CycleEdge, Dir};
use mcversi_mcm::{Address, DepKind};

/// Lowers a cycle to a litmus test over the given location addresses.
///
/// # Panics
///
/// Panics when fewer locations than the cycle's distinct location classes
/// are supplied.
pub fn lower_cycle(cycle: &CriticalCycle, name: &str, locations: &[Address]) -> LitmusTest {
    assert!(
        locations.len() >= cycle.num_locations(),
        "cycle {name} uses {} locations, only {} supplied",
        cycle.num_locations(),
        locations.len()
    );
    let n = cycle.len();
    let loc_of = cycle.location_of();
    let num_threads = cycle.num_threads();

    let mut threads: Vec<Vec<Op>> = Vec::with_capacity(num_threads);
    for t in 0..num_threads {
        let mut ops = Vec::new();
        for &i in &cycle.segment_events(t) {
            let incoming = cycle.edges()[(i + n - 1) % n];
            let kind = match (cycle.dirs()[i], incoming) {
                (Dir::R, CycleEdge::Dep(DepKind::Addr)) => OpKind::ReadAddrDp,
                (Dir::R, _) => OpKind::Read,
                (Dir::W, CycleEdge::Dep(DepKind::Data)) => OpKind::WriteDataDp,
                (Dir::W, CycleEdge::Dep(DepKind::Ctrl)) => OpKind::WriteCtrlDp,
                (Dir::W, _) => OpKind::Write,
            };
            ops.push(Op::new(kind, locations[loc_of[i]]));
            if let CycleEdge::Fenced(fence) = cycle.edges()[i] {
                let kind = OpKind::for_fence(fence)
                    .expect("enumeration only emits fences with operation forms");
                ops.push(Op::new(kind, Address(0)));
            }
        }
        threads.push(ops);
    }

    // Round-robin interleave, as in the hand-written builder.
    let mut genes = Vec::new();
    let max_len = threads.iter().map(|t| t.len()).max().unwrap_or(0);
    for slot in 0..max_len {
        for (pid, ops) in threads.iter().enumerate() {
            if let Some(&op) = ops.get(slot) {
                genes.push(Gene {
                    pid: pid as u32,
                    op,
                });
            }
        }
    }
    LitmusTest {
        name: name.to_string(),
        test: Test::new(genes, num_threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_mcm::FenceKind;

    fn locs() -> [Address; 3] {
        [Address(0x1000), Address(0x2000), Address(0x3000)]
    }

    fn mp_flavoured() -> CriticalCycle {
        use CycleEdge::*;
        use Dir::*;
        CriticalCycle::new(
            vec![Fenced(FenceKind::Full), Rf, Dep(DepKind::Addr), Fr],
            vec![W, W, R, R],
        )
        .unwrap()
        .canonicalize()
    }

    #[test]
    fn lowering_mirrors_the_hand_written_shapes() {
        let t = lower_cycle(&mp_flavoured(), "MP+mfence+addr", &locs());
        assert_eq!(t.name, "MP+mfence+addr");
        assert_eq!(t.test.num_threads(), 2);
        let writer = t.test.thread_ops(0);
        let reader = t.test.thread_ops(1);
        assert_eq!(
            writer.iter().map(|o| o.kind).collect::<Vec<_>>(),
            vec![OpKind::Write, OpKind::Fence, OpKind::Write]
        );
        assert_eq!(
            reader.iter().map(|o| o.kind).collect::<Vec<_>>(),
            vec![OpKind::Read, OpKind::ReadAddrDp]
        );
        // The reader reads the writer's locations in the opposite order.
        assert_eq!(reader[0].addr, writer[2].addr);
        assert_eq!(reader[1].addr, writer[0].addr);
    }

    #[test]
    fn lowering_rejects_too_few_locations() {
        let cycle = mp_flavoured();
        let result = std::panic::catch_unwind(|| {
            lower_cycle(&cycle, "MP", &[Address(0x1000)]);
        });
        assert!(result.is_err());
    }
}
