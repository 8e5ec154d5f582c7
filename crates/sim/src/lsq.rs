//! Store buffer (and store-queue forwarding) model.
//!
//! Under TSO a core's committed stores sit in a FIFO store buffer until they
//! are written to the cache; loads of the same core may read ("forward") the
//! newest buffered value for their address.  The `SQ+no-FIFO` bug drains the
//! buffer out of order, which is directly observable as write→write
//! reordering by other cores.
//!
//! The relaxed core ([`CoreStrength::Relaxed`]) uses the same buffer but
//! drains it through [`StoreBuffer::begin_drain_relaxed`]: any entry may
//! drain next as long as no older entry targets the same address (coherence)
//! and no store-ordering fence separates it from an older entry.  Fences are
//! tracked as *epochs* ([`StoreBufferEntry::epoch`]): the core bumps its
//! epoch counter whenever a store-ordering fence retires, so entries of a
//! newer epoch may never overtake entries of an older one.
//!
//! [`CoreStrength::Relaxed`]: crate::config::CoreStrength::Relaxed

use mcversi_mcm::Address;
use rand::Rng;
use std::collections::VecDeque;

/// One committed store waiting to be written to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBufferEntry {
    /// Program-order index of the store instruction.
    pub poi: u32,
    /// Written address.
    pub addr: Address,
    /// Written (globally unique) value.
    pub value: u64,
    /// Store-ordering epoch: entries of a newer (larger) epoch are separated
    /// from older entries by a store-ordering fence and may not overtake them
    /// in the relaxed drain.  The strong core leaves this at 0 (FIFO drain
    /// ignores it).
    pub epoch: u32,
}

impl StoreBufferEntry {
    /// Creates an epoch-0 entry (the strong core's FIFO drain never consults
    /// the epoch).
    pub fn new(poi: u32, addr: Address, value: u64) -> Self {
        StoreBufferEntry {
            poi,
            addr,
            value,
            epoch: 0,
        }
    }
}

/// A bounded store buffer: FIFO for the strong core, epoch/address-constrained
/// out-of-order for the relaxed core.
#[derive(Debug, Clone, Default)]
pub struct StoreBuffer {
    entries: VecDeque<StoreBufferEntry>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a store buffer holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        StoreBuffer {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if no further store can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a committed store.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full; callers must check [`is_full`](Self::is_full)
    /// before retiring a store.
    pub fn push(&mut self, entry: StoreBufferEntry) {
        assert!(!self.is_full(), "store buffer overflow");
        debug_assert!(
            self.entries.back().is_none_or(|e| e.epoch <= entry.epoch),
            "store buffer epochs must be nondecreasing in commit order"
        );
        self.entries.push_back(entry);
    }

    /// Store-to-load forwarding bounded by program order: the newest buffered
    /// entry for `addr` among entries with `poi < before_poi`.  The whole
    /// entry is returned so callers can compare its program-order index
    /// against other forwarding sources.
    ///
    /// The relaxed core commits stores into the buffer past incomplete older
    /// loads, so — unlike under the strong core's in-order commit — the buffer
    /// may hold stores that are program-order *younger* than a load looking
    /// for a forwarding source; those must not be forwarded.
    pub fn forward_entry_before(&self, addr: Address, before_poi: u32) -> Option<StoreBufferEntry> {
        self.entries
            .iter()
            .filter(|e| e.addr == addr && e.poi < before_poi)
            .max_by_key(|e| e.poi)
            .copied()
    }

    /// Removes and returns the next store to drain to the cache.
    ///
    /// The correct design drains in FIFO order; with `out_of_order` set (the
    /// `SQ+no-FIFO` bug) a random entry is chosen instead.
    pub fn begin_drain<R: Rng>(
        &mut self,
        out_of_order: bool,
        rng: &mut R,
    ) -> Option<StoreBufferEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let idx = if out_of_order && self.entries.len() > 1 {
            rng.gen_range(0..self.entries.len())
        } else {
            0
        };
        self.entries.remove(idx)
    }

    /// Removes and returns the next store to drain under the relaxed core's
    /// ordering rules: a uniformly random entry among those that
    ///
    /// * share the buffer's oldest epoch (no store-ordering fence separates
    ///   them from any older entry), and
    /// * have no older entry to the same address (per-address program order —
    ///   coherence — is preserved).
    pub fn begin_drain_relaxed<R: Rng>(&mut self, rng: &mut R) -> Option<StoreBufferEntry> {
        let oldest_epoch = self.entries.front()?.epoch;
        let eligible: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.epoch == oldest_epoch
                    && !self
                        .entries
                        .iter()
                        .take(*i)
                        .any(|older| older.addr == e.addr)
            })
            .map(|(i, _)| i)
            .collect();
        debug_assert!(!eligible.is_empty(), "the oldest entry is always eligible");
        let idx = eligible[rng.gen_range(0..eligible.len())];
        self.entries.remove(idx)
    }

    /// Drops all buffered stores (used when a test iteration is abandoned).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(poi: u32, addr: u64, value: u64) -> StoreBufferEntry {
        StoreBufferEntry::new(poi, Address(addr), value)
    }

    fn entry_at(poi: u32, addr: u64, value: u64, epoch: u32) -> StoreBufferEntry {
        StoreBufferEntry {
            epoch,
            ..entry(poi, addr, value)
        }
    }

    #[test]
    fn fifo_drain_preserves_program_order() {
        let mut sb = StoreBuffer::new(8);
        for i in 0..5 {
            sb.push(entry(i, 0x100 + i as u64 * 8, i as u64 + 1));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut drained = Vec::new();
        while let Some(e) = sb.begin_drain(false, &mut rng) {
            drained.push(e.poi);
        }
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(sb.is_empty());
    }

    #[test]
    fn out_of_order_drain_eventually_reorders() {
        // With many trials the buggy drain must produce at least one
        // non-FIFO order (statistically certain with this seed count).
        let mut rng = StdRng::seed_from_u64(2);
        let mut reordered = false;
        for _ in 0..50 {
            let mut sb = StoreBuffer::new(8);
            for i in 0..4 {
                sb.push(entry(i, 0x100 + i as u64 * 8, i as u64 + 1));
            }
            let mut drained = Vec::new();
            while let Some(e) = sb.begin_drain(true, &mut rng) {
                drained.push(e.poi);
            }
            assert_eq!(drained.len(), 4);
            if drained != vec![0, 1, 2, 3] {
                reordered = true;
            }
        }
        assert!(reordered, "SQ+no-FIFO drain never reordered");
    }

    #[test]
    fn relaxed_drain_reorders_within_an_epoch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut reordered = false;
        for _ in 0..50 {
            let mut sb = StoreBuffer::new(8);
            for i in 0..4 {
                sb.push(entry(i, 0x100 + i as u64 * 64, i as u64 + 1));
            }
            let mut drained = Vec::new();
            while let Some(e) = sb.begin_drain_relaxed(&mut rng) {
                drained.push(e.poi);
            }
            assert_eq!(drained.len(), 4);
            if drained != vec![0, 1, 2, 3] {
                reordered = true;
            }
        }
        assert!(reordered, "relaxed drain never reordered unfenced stores");
    }

    #[test]
    fn relaxed_drain_respects_epochs_and_addresses() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut sb = StoreBuffer::new(8);
            // Epoch 0: two stores, one address repeated; epoch 1: one store.
            sb.push(entry_at(0, 0x100, 1, 0));
            sb.push(entry_at(1, 0x200, 2, 0));
            sb.push(entry_at(2, 0x100, 3, 0));
            sb.push(entry_at(3, 0x300, 4, 1));
            let mut drained = Vec::new();
            while let Some(e) = sb.begin_drain_relaxed(&mut rng) {
                drained.push(e.poi);
            }
            // Same-address stores (poi 0 and 2) stay ordered; the fenced
            // store (poi 3) drains last.
            let pos = |poi: u32| drained.iter().position(|&p| p == poi).expect("drained");
            assert!(pos(0) < pos(2), "same-address order violated: {drained:?}");
            assert_eq!(drained.len(), 4);
            assert_eq!(drained[3], 3, "newer epoch overtook a fence: {drained:?}");
        }
    }

    #[test]
    fn forwarding_returns_newest_matching_value() {
        let mut sb = StoreBuffer::new(8);
        sb.push(entry(0, 0x100, 1));
        sb.push(entry(1, 0x200, 2));
        sb.push(entry(2, 0x100, 3));
        let forward = |addr| {
            sb.forward_entry_before(Address(addr), u32::MAX)
                .map(|e| e.value)
        };
        assert_eq!(forward(0x100), Some(3));
        assert_eq!(forward(0x200), Some(2));
        assert_eq!(forward(0x300), None);
    }

    #[test]
    fn poi_bounded_forwarding_ignores_younger_stores() {
        let mut sb = StoreBuffer::new(8);
        sb.push(entry(1, 0x100, 1));
        sb.push(entry(5, 0x100, 5));
        // A load at poi 3 sees only the poi-1 store; a load at poi 7 sees the
        // newest one; a load at poi 0 sees nothing.
        let value_before = |poi| {
            sb.forward_entry_before(Address(0x100), poi)
                .map(|e| e.value)
        };
        assert_eq!(value_before(3), Some(1));
        assert_eq!(value_before(7), Some(5));
        assert_eq!(value_before(0), None);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut sb = StoreBuffer::new(2);
        sb.push(entry(0, 0x100, 1));
        assert!(!sb.is_full());
        sb.push(entry(1, 0x108, 2));
        assert!(sb.is_full());
        assert_eq!(sb.len(), 2);
        sb.clear();
        assert!(sb.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn pushing_into_full_buffer_panics() {
        let mut sb = StoreBuffer::new(1);
        sb.push(entry(0, 0x100, 1));
        sb.push(entry(1, 0x108, 2));
    }
}
