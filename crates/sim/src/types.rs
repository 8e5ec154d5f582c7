//! Basic simulator-wide types: cycles, node identifiers, line addresses.

use mcversi_mcm::Address;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simulation cycle count (the global clock).
pub type Cycle = u64;

/// Identifier of a node on the on-chip network.
///
/// Node numbering convention (see [`crate::config::SystemConfig::node_of_l1`]
/// and friends): cores/L1s occupy `0..num_cores`, L2 banks occupy
/// `num_cores..num_cores+l2_banks`, and the memory controller is the last
/// node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A cache-line-aligned address.
///
/// All coherence-protocol state is keyed by line address; word addresses
/// within the line are only used when reading or writing data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Computes the line address containing `addr` for the given line size.
    pub fn containing(addr: Address, line_bytes: u64) -> Self {
        LineAddr(addr.0 / line_bytes * line_bytes)
    }

    /// Index of the 8-byte word within the line that `addr` refers to.
    pub fn word_index(self, addr: Address, line_bytes: u64) -> usize {
        debug_assert_eq!(self.0, addr.0 / line_bytes * line_bytes);
        ((addr.0 - self.0) / 8) as usize
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L:0x{:x}", self.0)
    }
}

/// The data payload of one cache line, stored as 8-byte words.
///
/// Every access performed by a test is an aligned 8-byte access, so word
/// granularity is sufficient and keeps value tracking exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineData {
    words: Vec<u64>,
}

impl LineData {
    /// A zero-initialised line of `line_bytes` bytes.
    pub fn zeroed(line_bytes: u64) -> Self {
        LineData {
            words: vec![0; (line_bytes / 8) as usize],
        }
    }

    /// Reads the word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the line.
    pub fn word(&self, index: usize) -> u64 {
        self.words[index]
    }

    /// Writes `value` at `index` and returns the overwritten value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the line.
    pub fn set_word(&mut self, index: usize, value: u64) -> u64 {
        std::mem::replace(&mut self.words[index], value)
    }

    /// Number of 8-byte words in the line.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_containing() {
        assert_eq!(LineAddr::containing(Address(0x1234), 64), LineAddr(0x1200));
        assert_eq!(LineAddr::containing(Address(0x1200), 64), LineAddr(0x1200));
        assert_eq!(LineAddr::containing(Address(0x123f), 64), LineAddr(0x1200));
    }

    #[test]
    fn word_index_within_line() {
        let line = LineAddr(0x1200);
        assert_eq!(line.word_index(Address(0x1200), 64), 0);
        assert_eq!(line.word_index(Address(0x1208), 64), 1);
        assert_eq!(line.word_index(Address(0x1238), 64), 7);
    }

    #[test]
    fn line_data_read_write() {
        let mut d = LineData::zeroed(64);
        assert_eq!(d.num_words(), 8);
        assert_eq!(d.word(3), 0);
        let old = d.set_word(3, 42);
        assert_eq!(old, 0);
        assert_eq!(d.word(3), 42);
        let old = d.set_word(3, 7);
        assert_eq!(old, 42);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", LineAddr(0x40)), "L:0x40");
    }
}
