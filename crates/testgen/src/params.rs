//! Test generation parameters (paper Table 3).

use crate::enumerate::LitmusCorpus;
use crate::ops::OpKind;
use mcversi_mcm::ModelKind;
use serde::{Deserialize, Serialize};

/// Selection bias (in percent-like weights) over the operation kinds.
///
/// The default mirrors Table 3: Read 50 %, ReadAddrDp 5 %, Write 42 %,
/// ReadModifyWrite 1 %, CacheFlush 1 %, Delay 1 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperationBias {
    /// Weight of plain reads.
    pub read: u32,
    /// Weight of address-dependent reads.
    pub read_addr_dp: u32,
    /// Weight of writes.
    pub write: u32,
    /// Weight of atomic read-modify-writes.
    pub read_modify_write: u32,
    /// Weight of cache flushes.
    pub cache_flush: u32,
    /// Weight of delays.
    pub delay: u32,
    /// Weight of explicit full fences (0 in the paper's Table 3 mix; RMWs
    /// already imply fences on x86).
    pub fence: u32,
    /// Weight of data-dependent writes (0 in the Table 3 mix; used when
    /// targeting relaxed models).
    pub write_data_dp: u32,
    /// Weight of control-dependent writes (0 in the Table 3 mix).
    pub write_ctrl_dp: u32,
    /// Weight of acquire fences (0 in the Table 3 mix).
    pub fence_acquire: u32,
    /// Weight of release fences (0 in the Table 3 mix).
    pub fence_release: u32,
    /// Weight of lightweight (`lwsync`-style) fences (0 in the Table 3 mix).
    pub fence_lw: u32,
}

impl OperationBias {
    /// The paper's Table 3 bias (the relaxed-model-only operations get zero
    /// weight: x86-TSO neither needs nor benefits from them).
    pub fn paper_default() -> Self {
        OperationBias {
            read: 50,
            read_addr_dp: 5,
            write: 42,
            read_modify_write: 1,
            cache_flush: 1,
            delay: 1,
            fence: 0,
            write_data_dp: 0,
            write_ctrl_dp: 0,
            fence_acquire: 0,
            fence_release: 0,
            fence_lw: 0,
        }
    }

    /// A bias tilted towards the dependency-carrying operations and relaxed
    /// fence flavours, for campaigns targeting models weaker than TSO.
    pub fn relaxed_default() -> Self {
        OperationBias {
            read: 34,
            read_addr_dp: 10,
            write: 32,
            read_modify_write: 1,
            cache_flush: 1,
            delay: 1,
            fence: 3,
            write_data_dp: 6,
            write_ctrl_dp: 4,
            fence_acquire: 2,
            fence_release: 2,
            fence_lw: 4,
        }
    }

    /// The default bias for a campaign targeting `model`: the relaxed mix
    /// ([`Self::relaxed_default`]) for models weaker than TSO, the paper's
    /// Table 3 mix ([`Self::paper_default`]) for the strong ones.
    pub fn for_model(model: ModelKind) -> Self {
        if model.is_relaxed() {
            OperationBias::relaxed_default()
        } else {
            OperationBias::paper_default()
        }
    }

    /// Total weight (must be positive).
    pub fn total(&self) -> u32 {
        OpKind::ALL.iter().map(|&k| self.weight(k)).sum()
    }

    /// Weight of one kind.
    pub fn weight(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::Read => self.read,
            OpKind::ReadAddrDp => self.read_addr_dp,
            OpKind::Write => self.write,
            OpKind::WriteDataDp => self.write_data_dp,
            OpKind::WriteCtrlDp => self.write_ctrl_dp,
            OpKind::ReadModifyWrite => self.read_modify_write,
            OpKind::CacheFlush => self.cache_flush,
            OpKind::Delay => self.delay,
            OpKind::Fence => self.fence,
            OpKind::FenceAcquire => self.fence_acquire,
            OpKind::FenceRelease => self.fence_release,
            OpKind::FenceLw => self.fence_lw,
        }
    }

    /// Picks a kind given a roll in `[0, total())`.
    pub fn pick(&self, roll: u32) -> OpKind {
        let mut acc = 0;
        for kind in OpKind::ALL {
            acc += self.weight(kind);
            if roll < acc {
                return kind;
            }
        }
        OpKind::Read
    }
}

impl Default for OperationBias {
    fn default() -> Self {
        OperationBias::paper_default()
    }
}

/// Parameters of the test generator and GP engine (paper Table 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestGenParams {
    /// Total number of operations per test (across all threads).
    pub test_size: usize,
    /// Number of executions of each test per test-run.
    pub iterations: usize,
    /// Number of threads a test may use.
    pub num_threads: usize,
    /// Usable test memory in bytes (the paper evaluates 1 KB and 8 KB).
    pub test_memory_bytes: u64,
    /// Address stride in bytes (base addresses are multiples of this).
    pub stride_bytes: u64,
    /// Size of each contiguous partition of test memory.
    pub partition_bytes: u64,
    /// Separation between the starting addresses of consecutive partitions.
    pub partition_separation_bytes: u64,
    /// Base physical address of the test memory region.
    pub base_address: u64,
    /// Operation selection bias.
    pub bias: OperationBias,
    /// Maximum delay (cycles) of a `Delay` operation.
    pub max_delay_cycles: u32,
    /// Which corpus the `diy-litmus` baseline draws from (the spec's
    /// `litmus` key; defaults to the enumerated corpus at the default
    /// bound).
    pub litmus: LitmusCorpus,
    // ---- GP parameters ----
    /// Population size.
    pub population_size: usize,
    /// Tournament size for selection.
    pub tournament_size: usize,
    /// Mutation probability (PMUT).
    pub mutation_probability: f64,
    /// Crossover probability.
    pub crossover_probability: f64,
    /// Unconditional memory-operation selection probability (PUSEL).
    pub p_usel: f64,
    /// Bias with which a mutated operation draws its address from the parents'
    /// fit-address set (PBFA).
    pub p_bfa: f64,
}

impl TestGenParams {
    /// The paper's Table 3 parameters with the given test-memory size.
    pub fn paper_default(test_memory_bytes: u64) -> Self {
        TestGenParams {
            test_size: 1000,
            iterations: 10,
            num_threads: 8,
            test_memory_bytes,
            stride_bytes: 16,
            partition_bytes: 512,
            partition_separation_bytes: 1 << 20,
            base_address: 0x10_0000,
            bias: OperationBias::paper_default(),
            max_delay_cycles: 32,
            litmus: LitmusCorpus::enumerated_default(),
            population_size: 100,
            tournament_size: 2,
            mutation_probability: 0.005,
            crossover_probability: 1.0,
            p_usel: 0.2,
            p_bfa: 0.05,
        }
    }

    /// A scaled-down configuration for unit tests and quick examples.
    pub fn small() -> Self {
        TestGenParams {
            test_size: 48,
            iterations: 4,
            num_threads: 4,
            test_memory_bytes: 256,
            stride_bytes: 16,
            partition_bytes: 128,
            partition_separation_bytes: 1 << 16,
            base_address: 0x10_0000,
            bias: OperationBias::paper_default(),
            max_delay_cycles: 16,
            litmus: LitmusCorpus::enumerated_default(),
            population_size: 16,
            tournament_size: 2,
            mutation_probability: 0.02,
            crossover_probability: 1.0,
            p_usel: 0.2,
            p_bfa: 0.05,
        }
    }

    /// Overrides the total test size, returning a modified copy.
    pub fn with_test_size(mut self, size: usize) -> Self {
        self.test_size = size;
        self
    }

    /// Overrides the thread count, returning a modified copy.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Number of distinct (stride-aligned) logical offsets in the test memory.
    pub fn num_slots(&self) -> u64 {
        self.test_memory_bytes / self.stride_bytes
    }

    /// Maps a logical byte offset in `[0, test_memory_bytes)` to a physical
    /// address, applying the partitioning scheme of §5.2.1: the memory is cut
    /// into `partition_bytes` blocks whose starting addresses are
    /// `partition_separation_bytes` apart, so that cache-capacity evictions
    /// occur even for small test memories.
    pub fn offset_to_address(&self, offset: u64) -> mcversi_mcm::Address {
        debug_assert!(offset < self.test_memory_bytes);
        let partition = offset / self.partition_bytes;
        let within = offset % self.partition_bytes;
        mcversi_mcm::Address(
            self.base_address + partition * self.partition_separation_bytes + within,
        )
    }

    /// All addressable (stride-aligned) slot addresses.
    pub fn all_slot_addresses(&self) -> Vec<mcversi_mcm::Address> {
        (0..self.num_slots())
            .map(|i| self.offset_to_address(i * self.stride_bytes))
            .collect()
    }
}

impl Default for TestGenParams {
    fn default() -> Self {
        TestGenParams::paper_default(8 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table3() {
        let p = TestGenParams::paper_default(8 * 1024);
        assert_eq!(p.test_size, 1000);
        assert_eq!(p.iterations, 10);
        assert_eq!(p.test_memory_bytes, 8 * 1024);
        assert_eq!(p.stride_bytes, 16);
        assert_eq!(p.population_size, 100);
        assert_eq!(p.tournament_size, 2);
        assert!((p.mutation_probability - 0.005).abs() < 1e-12);
        assert!((p.crossover_probability - 1.0).abs() < 1e-12);
        assert!((p.p_usel - 0.2).abs() < 1e-12);
        assert!((p.p_bfa - 0.05).abs() < 1e-12);
        let b = p.bias;
        assert_eq!(b.total(), 100);
        assert_eq!(b.read, 50);
        assert_eq!(b.write, 42);
    }

    #[test]
    fn bias_pick_covers_all_kinds() {
        let b = OperationBias::paper_default();
        assert_eq!(b.pick(0), OpKind::Read);
        assert_eq!(b.pick(49), OpKind::Read);
        assert_eq!(b.pick(50), OpKind::ReadAddrDp);
        assert_eq!(b.pick(54), OpKind::ReadAddrDp);
        assert_eq!(b.pick(55), OpKind::Write);
        assert_eq!(b.pick(96), OpKind::Write);
        assert_eq!(b.pick(97), OpKind::ReadModifyWrite);
        assert_eq!(b.pick(98), OpKind::CacheFlush);
        assert_eq!(b.pick(99), OpKind::Delay);
    }

    #[test]
    fn relaxed_bias_reaches_dependency_ops_and_fences() {
        let b = OperationBias::relaxed_default();
        assert_eq!(b.total(), 100);
        for kind in [
            OpKind::WriteDataDp,
            OpKind::WriteCtrlDp,
            OpKind::FenceAcquire,
            OpKind::FenceRelease,
            OpKind::FenceLw,
        ] {
            assert!(b.weight(kind) > 0, "{kind} has zero weight");
        }
        // Every kind with weight is reachable through pick().
        let mut seen = std::collections::BTreeSet::new();
        for roll in 0..b.total() {
            seen.insert(format!("{}", b.pick(roll)));
        }
        for kind in OpKind::ALL {
            assert_eq!(
                seen.contains(&format!("{kind}")),
                b.weight(kind) > 0,
                "{kind} reachability mismatch"
            );
        }
    }

    #[test]
    fn partitioning_spreads_offsets_one_mib_apart() {
        let p = TestGenParams::paper_default(8 * 1024);
        // 8 KB / 512 B = 16 partitions.
        let a0 = p.offset_to_address(0);
        let a511 = p.offset_to_address(511);
        let a512 = p.offset_to_address(512);
        assert_eq!(a511.0 - a0.0, 511);
        assert_eq!(a512.0 - a0.0, 1 << 20);
        let last = p.offset_to_address(8 * 1024 - 16);
        assert_eq!(last.0 - a0.0, 15 * (1 << 20) + 496);
    }

    #[test]
    fn slot_addresses_are_unique_and_aligned() {
        let p = TestGenParams::paper_default(1024);
        let slots = p.all_slot_addresses();
        assert_eq!(slots.len(), 64);
        let mut dedup = slots.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), slots.len());
        assert!(slots.iter().all(|a| a.0 % 8 == 0));
    }
}
