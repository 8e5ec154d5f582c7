//! System configuration (paper Table 2) and protocol selection.

use crate::types::NodeId;
use serde::{Deserialize, Serialize};

/// Which cache coherence protocol the simulated system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Two-level MESI directory protocol (gem5 Ruby `MESI_Two_Level` analogue).
    Mesi,
    /// Lazy, timestamp-based consistency-directed protocol (TSO-CC, HPCA'14).
    TsoCc,
}

impl ProtocolKind {
    /// Short display name used in coverage reports and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::TsoCc => "TSO-CC",
        }
    }
}

/// How aggressively the simulated cores reorder memory operations.
///
/// The strength selects between the two pipeline implementations in
/// [`crate::core`]:
///
/// * [`CoreStrength::Strong`] — the x86-ish pipeline: loads issue
///   speculatively but the Peekaboo invalidation squash restores load→load
///   ordering, the store buffer drains in FIFO order, and every fence flavour
///   is executed like a full fence.  Its executions satisfy x86-TSO.
/// * [`CoreStrength::Relaxed`] — an ARM/Power-ish pipeline: loads issue and
///   *perform* out of order past older loads and stores to different
///   addresses (with dependency-respecting stalls and fence-kind-aware
///   flushes), stores may commit into the store buffer past incomplete older
///   loads, and the store buffer drains out of program order unless fenced.
///   Its executions satisfy the dependency-ordered relaxed models
///   (ARMish/POWERish/RMO) but generally violate SC and TSO.
///
/// See `ARCHITECTURE.md` for the core-strength × model support matrix.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum CoreStrength {
    /// The x86-ish strong pipeline (the paper's configuration).
    #[default]
    Strong,
    /// The weakly-ordered pipeline that actually reorders.
    Relaxed,
}

impl CoreStrength {
    /// Both strengths, strongest first.
    pub const ALL: [CoreStrength; 2] = [CoreStrength::Strong, CoreStrength::Relaxed];

    /// Short display name used in experiment tables (`strong` / `relaxed`).
    pub fn name(self) -> &'static str {
        match self {
            CoreStrength::Strong => "strong",
            CoreStrength::Relaxed => "relaxed",
        }
    }

    /// Parses a strength name case-insensitively.
    pub fn parse(s: &str) -> Option<CoreStrength> {
        CoreStrength::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(s.trim()))
    }
}

impl std::fmt::Display for CoreStrength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Latency parameters, all in core cycles.
///
/// Latencies with a `min`/`max` range are drawn per access from the seeded
/// simulation RNG; the resulting jitter is one of the sources of
/// non-determinism across iterations (paper §5.1: L2 hit 30–80 cycles,
/// memory 120–230 cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// Minimum L2 bank access latency.
    pub l2_min: u64,
    /// Maximum L2 bank access latency.
    pub l2_max: u64,
    /// Minimum main-memory access latency.
    pub mem_min: u64,
    /// Maximum main-memory access latency.
    pub mem_max: u64,
    /// Per-hop link latency on the mesh.
    pub link_hop: u64,
    /// Maximum random extra delay added to each network message (models
    /// contention in the routers without simulating flits individually).
    pub network_jitter: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 3,
            l2_min: 30,
            l2_max: 80,
            mem_min: 120,
            mem_max: 230,
            link_hop: 2,
            network_jitter: 6,
        }
    }
}

/// Full system configuration (paper Table 2 by default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores (each with a private L1).
    pub num_cores: usize,
    /// Load-queue entries per core.
    pub lq_entries: usize,
    /// Store-queue (plus store-buffer) entries per core.
    pub sq_entries: usize,
    /// Reorder-buffer entries per core (bounds in-flight operations).
    pub rob_entries: usize,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// L1 data cache size in bytes (per core).
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Number of shared L2 (NUCA) banks.
    pub l2_banks: usize,
    /// Size of each L2 bank in bytes.
    pub l2_bank_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Mesh rows (the paper uses a 2-row mesh).
    pub mesh_rows: usize,
    /// Latency parameters.
    pub latency: LatencyConfig,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Pipeline strength of the simulated cores (see [`CoreStrength`]).
    pub core_strength: CoreStrength,
    /// TSO-CC: number of writes sharing one timestamp (timestamp group size).
    pub tsocc_ts_group: u64,
    /// TSO-CC: maximum timestamp value before a reset (kept small so resets —
    /// and therefore the epoch-id machinery — are exercised within a test).
    pub tsocc_ts_max: u64,
    /// TSO-CC: number of accesses allowed to a Shared line before it must be
    /// re-fetched (staleness bound).
    pub tsocc_max_accesses: u32,
    /// Probability (in 1/65536 units, per cycle in which the issue stage would
    /// act) of a one-cycle issue stall, decorrelating the cores' relative
    /// progress across iterations.  A core with nothing to complete or issue
    /// draws nothing.
    pub issue_jitter: u16,
    /// Upper bound on cycles per iteration before the run is declared hung
    /// (deadlock detection).
    pub max_cycles_per_iteration: u64,
}

impl SystemConfig {
    /// The configuration used throughout the paper's evaluation (Table 2),
    /// adapted to this simulator: 8 out-of-order cores, 32 KB 4-way L1s,
    /// 8 × 128 KB 4-way shared L2 banks, 64 B lines, 2-row mesh.
    pub fn paper_default() -> Self {
        SystemConfig {
            num_cores: 8,
            lq_entries: 16,
            sq_entries: 16,
            rob_entries: 40,
            line_bytes: 64,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l2_banks: 8,
            l2_bank_bytes: 128 * 1024,
            l2_ways: 4,
            mesh_rows: 2,
            latency: LatencyConfig::default(),
            protocol: ProtocolKind::Mesi,
            core_strength: CoreStrength::Strong,
            tsocc_ts_group: 4,
            tsocc_ts_max: 48,
            tsocc_max_accesses: 16,
            issue_jitter: 2048,
            max_cycles_per_iteration: 2_000_000,
        }
    }

    /// A small configuration for unit tests and quick examples: 4 cores, tiny
    /// caches (so replacements happen with very small address ranges), same
    /// protocol structure.
    pub fn small(protocol: ProtocolKind) -> Self {
        SystemConfig {
            num_cores: 4,
            lq_entries: 8,
            sq_entries: 8,
            rob_entries: 16,
            line_bytes: 64,
            l1_bytes: 2 * 1024,
            l1_ways: 2,
            l2_banks: 2,
            l2_bank_bytes: 4 * 1024,
            l2_ways: 2,
            mesh_rows: 2,
            latency: LatencyConfig::default(),
            protocol,
            core_strength: CoreStrength::Strong,
            tsocc_ts_group: 2,
            tsocc_ts_max: 16,
            tsocc_max_accesses: 8,
            issue_jitter: 2048,
            max_cycles_per_iteration: 2_000_000,
        }
    }

    /// Number of sets in each L1.
    pub fn l1_sets(&self) -> usize {
        (self.l1_bytes / self.line_bytes) as usize / self.l1_ways
    }

    /// Number of sets in each L2 bank.
    pub fn l2_sets(&self) -> usize {
        (self.l2_bank_bytes / self.line_bytes) as usize / self.l2_ways
    }

    /// Total number of network nodes (L1s + L2 banks + memory controller).
    pub fn num_nodes(&self) -> usize {
        self.num_cores + self.l2_banks + 1
    }

    /// Network node of core `core`'s L1.
    pub fn node_of_l1(&self, core: usize) -> NodeId {
        debug_assert!(core < self.num_cores);
        NodeId(core as u32)
    }

    /// Network node of L2 bank `bank`.
    pub fn node_of_l2(&self, bank: usize) -> NodeId {
        debug_assert!(bank < self.l2_banks);
        NodeId((self.num_cores + bank) as u32)
    }

    /// Network node of the memory controller.
    pub fn node_of_memory(&self) -> NodeId {
        NodeId((self.num_cores + self.l2_banks) as u32)
    }

    /// Returns the L2 bank responsible for a line address (static NUCA
    /// interleaving by line index).
    pub fn bank_of_line(&self, line: crate::types::LineAddr) -> usize {
        ((line.0 / self.line_bytes) % self.l2_banks as u64) as usize
    }

    /// Returns `true` if `node` is an L1 node and gives its core index.
    pub fn l1_index(&self, node: NodeId) -> Option<usize> {
        let i = node.index();
        (i < self.num_cores).then_some(i)
    }

    /// Returns `true` if `node` is an L2 node and gives its bank index.
    pub fn l2_index(&self, node: NodeId) -> Option<usize> {
        let i = node.index();
        (i >= self.num_cores && i < self.num_cores + self.l2_banks).then(|| i - self.num_cores)
    }

    /// Mesh (x, y) coordinate of a node: nodes are laid out row-major across
    /// `mesh_rows` rows.
    pub fn mesh_coord(&self, node: NodeId) -> (usize, usize) {
        let cols = self.num_nodes().div_ceil(self.mesh_rows);
        let i = node.index();
        (i % cols, i / cols)
    }

    /// Manhattan hop distance between two nodes on the mesh.
    pub fn mesh_hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.mesh_coord(a);
        let (bx, by) = self.mesh_coord(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LineAddr;

    #[test]
    fn paper_default_matches_table2() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.line_bytes, 64);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_ways, 4);
        assert_eq!(c.l1_sets(), 128);
        assert_eq!(c.l2_banks, 8);
        assert_eq!(c.l2_bank_bytes, 128 * 1024);
        assert_eq!(c.l2_sets(), 512);
        assert_eq!(c.latency.l1_hit, 3);
        assert_eq!(c.latency.l2_min, 30);
        assert_eq!(c.latency.l2_max, 80);
        assert_eq!(c.latency.mem_min, 120);
        assert_eq!(c.latency.mem_max, 230);
        assert_eq!(c.mesh_rows, 2);
        assert_eq!(c.protocol, ProtocolKind::Mesi);
    }

    #[test]
    fn node_numbering_is_disjoint_and_complete() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.num_nodes(), 8 + 8 + 1);
        assert_eq!(c.node_of_l1(0), NodeId(0));
        assert_eq!(c.node_of_l1(7), NodeId(7));
        assert_eq!(c.node_of_l2(0), NodeId(8));
        assert_eq!(c.node_of_l2(7), NodeId(15));
        assert_eq!(c.node_of_memory(), NodeId(16));
        assert_eq!(c.l1_index(NodeId(3)), Some(3));
        assert_eq!(c.l1_index(NodeId(8)), None);
        assert_eq!(c.l2_index(NodeId(8)), Some(0));
        assert_eq!(c.l2_index(NodeId(16)), None);
    }

    #[test]
    fn bank_interleaving_covers_all_banks() {
        let c = SystemConfig::paper_default();
        let mut seen = vec![false; c.l2_banks];
        for i in 0..c.l2_banks as u64 {
            let bank = c.bank_of_line(LineAddr(i * c.line_bytes));
            seen[bank] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mesh_hops_symmetric_and_zero_on_self() {
        let c = SystemConfig::paper_default();
        for a in 0..c.num_nodes() as u32 {
            for b in 0..c.num_nodes() as u32 {
                assert_eq!(
                    c.mesh_hops(NodeId(a), NodeId(b)),
                    c.mesh_hops(NodeId(b), NodeId(a))
                );
            }
            assert_eq!(c.mesh_hops(NodeId(a), NodeId(a)), 0);
        }
    }

    #[test]
    fn small_config_has_few_sets() {
        let c = SystemConfig::small(ProtocolKind::Mesi);
        assert_eq!(c.l1_sets(), 16);
        assert!(c.num_cores >= 2);
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolKind::Mesi.name(), "MESI");
        assert_eq!(ProtocolKind::TsoCc.name(), "TSO-CC");
    }

    #[test]
    fn core_strength_registry_and_builder() {
        assert_eq!(CoreStrength::default(), CoreStrength::Strong);
        assert_eq!(CoreStrength::ALL.len(), 2);
        for strength in CoreStrength::ALL {
            assert_eq!(CoreStrength::parse(strength.name()), Some(strength));
            assert_eq!(
                CoreStrength::parse(&strength.name().to_uppercase()),
                Some(strength),
                "parsing is case-insensitive"
            );
            assert_eq!(format!("{strength}"), strength.name());
        }
        assert_eq!(CoreStrength::parse("bogus"), None);
        let mut cfg = SystemConfig::small(ProtocolKind::Mesi);
        assert_eq!(cfg.core_strength, CoreStrength::Strong);
        cfg.core_strength = CoreStrength::Relaxed;
        assert_eq!(cfg.core_strength, CoreStrength::Relaxed);
    }
}
