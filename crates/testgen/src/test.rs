//! The test (chromosome) representation.
//!
//! A test is a constant-size flat list of ⟨pid, op⟩ tuples (paper §3.3).  The
//! order of the list determines the relative position of operations, and the
//! per-thread projection of the list gives each thread's program order, which
//! is why crossover over the flat list preserves "relative scheduling
//! properties" of operations.  The number of genes is constant across
//! crossover, but the number of operations per thread is not.

use crate::ops::{Op, OpKind};
use mcversi_mcm::Address;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One gene: which thread the operation belongs to and the operation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Gene {
    /// Thread (processor) id in `[0, num_threads)`.
    pub pid: u32,
    /// The operation.
    pub op: Op,
}

impl fmt::Display for Gene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}: {}", self.pid, self.op)
    }
}

/// A test: a constant-size list of genes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Test {
    genes: Vec<Gene>,
    num_threads: usize,
}

impl Test {
    /// Creates a test from genes.
    ///
    /// # Panics
    ///
    /// Panics if any gene's pid is outside `[0, num_threads)`.
    pub fn new(genes: Vec<Gene>, num_threads: usize) -> Self {
        assert!(
            genes.iter().all(|g| (g.pid as usize) < num_threads),
            "gene pid out of range"
        );
        Test { genes, num_threads }
    }

    /// Number of genes (constant across crossover).
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Returns `true` if the test has no genes.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Number of threads the test may use.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The flat gene list.
    pub fn genes(&self) -> &[Gene] {
        &self.genes
    }

    /// Replaces one gene (used by crossover).
    pub fn set_gene(&mut self, index: usize, gene: Gene) {
        assert!((gene.pid as usize) < self.num_threads);
        self.genes[index] = gene;
    }

    /// The per-thread operation sequences (the DAG's disjoint sub-graphs), in
    /// program order.
    pub fn thread_ops(&self, pid: u32) -> Vec<Op> {
        self.genes
            .iter()
            .filter(|g| g.pid == pid)
            .map(|g| g.op)
            .collect()
    }

    /// All per-thread operation sequences indexed by pid.
    pub fn threads(&self) -> Vec<Vec<Op>> {
        (0..self.num_threads as u32)
            .map(|pid| self.thread_ops(pid))
            .collect()
    }

    /// Number of memory-model events the test gives rise to (RMWs count as
    /// two events; flushes and delays as none).
    pub fn num_events(&self) -> usize {
        self.genes
            .iter()
            .map(|g| match g.op.kind {
                OpKind::Read
                | OpKind::ReadAddrDp
                | OpKind::Write
                | OpKind::WriteDataDp
                | OpKind::WriteCtrlDp => 1,
                OpKind::ReadModifyWrite => 2,
                OpKind::CacheFlush
                | OpKind::Delay
                | OpKind::Fence
                | OpKind::FenceAcquire
                | OpKind::FenceRelease
                | OpKind::FenceLw => 0,
            })
            .sum()
    }

    /// The set of distinct addresses accessed by memory operations.
    pub fn addresses(&self) -> BTreeSet<Address> {
        self.genes
            .iter()
            .filter(|g| g.op.is_memop())
            .map(|g| g.op.addr)
            .collect()
    }

    /// The fraction of memory operations whose address is in `fitaddrs`
    /// (Algorithm 1's `fitaddr_fraction`).
    pub fn fitaddr_fraction(&self, fitaddrs: &BTreeSet<Address>) -> f64 {
        let mem_ops: Vec<&Gene> = self.genes.iter().filter(|g| g.op.is_memop()).collect();
        if mem_ops.is_empty() {
            return 0.0;
        }
        let hits = mem_ops
            .iter()
            .filter(|g| fitaddrs.contains(&g.op.addr))
            .count();
        hits as f64 / mem_ops.len() as f64
    }

    /// Number of operations per thread (for diagnostics; not constant).
    pub fn ops_per_thread(&self) -> Vec<usize> {
        (0..self.num_threads as u32)
            .map(|pid| self.genes.iter().filter(|g| g.pid == pid).count())
            .collect()
    }
}

impl fmt::Display for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "test with {} genes, {} threads:",
            self.len(),
            self.num_threads
        )?;
        for (pid, ops) in self.threads().iter().enumerate() {
            write!(f, "  P{pid}:")?;
            for op in ops {
                write!(f, " [{op}]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;

    fn gene(pid: u32, kind: OpKind, addr: u64) -> Gene {
        Gene {
            pid,
            op: Op::new(kind, Address(addr)),
        }
    }

    fn sample() -> Test {
        Test::new(
            vec![
                gene(0, OpKind::Write, 0x100),
                gene(1, OpKind::Read, 0x100),
                gene(0, OpKind::Write, 0x200),
                gene(1, OpKind::Read, 0x200),
                gene(0, OpKind::Delay, 8),
                gene(1, OpKind::ReadModifyWrite, 0x300),
            ],
            2,
        )
    }

    #[test]
    fn thread_projection_preserves_order() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.num_threads(), 2);
        let t0 = t.thread_ops(0);
        assert_eq!(t0.len(), 3);
        assert_eq!(t0[0].addr, Address(0x100));
        assert_eq!(t0[1].addr, Address(0x200));
        let t1 = t.thread_ops(1);
        assert_eq!(t1.len(), 3);
        assert_eq!(t.ops_per_thread(), vec![3, 3]);
    }

    #[test]
    fn event_and_memory_op_counts() {
        let t = sample();
        // Delay is not a memory op; RMW counts as one memory op, two events.
        let memory_ops = t.genes().iter().filter(|g| g.op.is_memop()).count();
        assert_eq!(memory_ops, 5);
        assert_eq!(t.num_events(), 6);
    }

    #[test]
    fn addresses_are_deduplicated() {
        let t = sample();
        let addrs = t.addresses();
        assert_eq!(
            addrs.len(),
            3,
            "0x100, 0x200 and 0x300; the delay is not a memory op"
        );
    }

    #[test]
    fn fitaddr_fraction_counts_memory_ops_only() {
        let t = sample();
        let fit: BTreeSet<Address> = [Address(0x100)].into_iter().collect();
        // Two of the five memory ops touch 0x100.
        assert!((t.fitaddr_fraction(&fit) - 0.4).abs() < 1e-9);
        assert_eq!(t.fitaddr_fraction(&BTreeSet::new()), 0.0);
    }

    #[test]
    #[should_panic(expected = "pid out of range")]
    fn out_of_range_pid_rejected() {
        Test::new(vec![gene(5, OpKind::Read, 0x100)], 2);
    }

    #[test]
    fn set_gene_replaces_in_place() {
        let mut t = sample();
        t.set_gene(0, gene(1, OpKind::Read, 0x400));
        assert_eq!(t.genes()[0].pid, 1);
        assert_eq!(t.genes()[0].op.addr, Address(0x400));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn display_lists_threads() {
        let t = sample();
        let s = format!("{t}");
        assert!(s.contains("P0:"));
        assert!(s.contains("P1:"));
    }
}
