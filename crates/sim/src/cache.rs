//! A generic set-associative cache array with LRU replacement.
//!
//! Both protocols' L1 and L2 controllers store their per-line state and data
//! in a [`CacheArray`]; the array only manages placement (set indexing,
//! associativity, LRU victims) and leaves all coherence semantics to the
//! controller.
//!
//! A lookup computes the set and scans it: a set holds at most `ways` lines,
//! so that is a handful of address comparisons on memory the lookup touches
//! anyway, and there is nothing beside the sets to keep in step with them.

use crate::types::LineAddr;
use std::fmt;

/// One resident cache line: the protocol-specific payload plus LRU bookkeeping.
#[derive(Debug, Clone)]
struct Entry<L> {
    addr: LineAddr,
    last_use: u64,
    line: L,
}

/// A set-associative cache array with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheArray<L> {
    sets: Vec<Vec<Entry<L>>>,
    /// Number of resident lines, over all sets.
    resident: usize,
    ways: usize,
    line_bytes: u64,
    use_counter: u64,
}

impl<L> CacheArray<L> {
    /// Creates an array with `sets` sets of `ways` ways and the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `sets`, `ways` or `line_bytes` is zero.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Self {
        assert!(sets > 0 && ways > 0 && line_bytes > 0);
        CacheArray {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            resident: 0,
            ways,
            line_bytes,
            use_counter: 0,
        }
    }

    /// The set index a line address maps to.
    pub fn set_index(&self, addr: LineAddr) -> usize {
        ((addr.0 / self.line_bytes) % self.sets.len() as u64) as usize
    }

    /// The set `addr` maps to.
    fn set_of(&self, addr: LineAddr) -> &[Entry<L>] {
        &self.sets[self.set_index(addr)]
    }

    /// Returns a reference to a resident line.
    pub fn get(&self, addr: LineAddr) -> Option<&L> {
        let entry = self.set_of(addr).iter().find(|e| e.addr == addr)?;
        Some(&entry.line)
    }

    /// Returns a mutable reference to a resident line and touches its LRU state.
    pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut L> {
        self.use_counter += 1;
        let counter = self.use_counter;
        let idx = self.set_index(addr);
        let entry = self.sets[idx].iter_mut().find(|e| e.addr == addr)?;
        entry.last_use = counter;
        Some(&mut entry.line)
    }

    /// Returns `true` if the line is resident.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.set_of(addr).iter().any(|e| e.addr == addr)
    }

    /// Returns `true` if inserting `addr` would require evicting another line.
    pub fn needs_eviction(&self, addr: LineAddr) -> bool {
        if self.contains(addr) {
            return false;
        }
        self.set_of(addr).len() >= self.ways
    }

    /// The LRU victim of `addr`'s set (the line that should be evicted to make
    /// room for `addr`), if the set is full.
    pub fn victim_for(&self, addr: LineAddr) -> Option<LineAddr> {
        if !self.needs_eviction(addr) {
            return None;
        }
        self.set_of(addr)
            .iter()
            .min_by_key(|e| e.last_use)
            .map(|e| e.addr)
    }

    /// Inserts a line.
    ///
    /// # Panics
    ///
    /// Panics if the set is already full (the controller must evict the victim
    /// first) or if the line is already resident.
    pub fn insert(&mut self, addr: LineAddr, line: L) {
        assert!(!self.contains(addr), "line {addr} already resident");
        self.use_counter += 1;
        let counter = self.use_counter;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        assert!(set.len() < self.ways, "set for {addr} is full; evict first");
        self.resident += 1;
        set.push(Entry {
            addr,
            last_use: counter,
            line,
        });
    }

    /// Removes a line and returns its payload.
    pub fn remove(&mut self, addr: LineAddr) -> Option<L> {
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|e| e.addr == addr)?;
        self.resident -= 1;
        Some(set.swap_remove(pos).line)
    }

    /// Removes every resident line, returning them (used by the host-assisted
    /// reset between tests).  The LRU clock starts over: only the order of
    /// the uses of resident lines matters, and there are none.
    pub fn drain_all(&mut self) -> Vec<(LineAddr, L)> {
        self.resident = 0;
        self.use_counter = 0;
        let mut out = Vec::new();
        for set in &mut self.sets {
            for e in set.drain(..) {
                out.push((e.addr, e.line));
            }
        }
        out
    }

    /// Iterates over resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &L)> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|e| (e.addr, &e.line)))
    }

    /// Iterates mutably over resident lines.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut L)> {
        self.sets
            .iter_mut()
            .flat_map(|s| s.iter_mut().map(|e| (e.addr, &mut e.line)))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }
}

impl<L> fmt::Display for CacheArray<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache({} sets x {} ways, {} resident)",
            self.sets.len(),
            self.ways,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The array as it was while it kept a keyed index next to its sets:
    /// resident address → way position, fixed up after every `swap_remove`.
    mod reference {
        use super::super::Entry;
        use crate::types::LineAddr;
        use std::collections::BTreeMap;

        pub struct CacheArray<L> {
            sets: Vec<Vec<Entry<L>>>,
            index: BTreeMap<LineAddr, usize>,
            ways: usize,
            line_bytes: u64,
            use_counter: u64,
        }

        impl<L> CacheArray<L> {
            pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Self {
                CacheArray {
                    sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
                    index: BTreeMap::new(),
                    ways,
                    line_bytes,
                    use_counter: 0,
                }
            }

            pub fn set_index(&self, addr: LineAddr) -> usize {
                ((addr.0 / self.line_bytes) % self.sets.len() as u64) as usize
            }

            pub fn get(&self, addr: LineAddr) -> Option<&L> {
                let pos = *self.index.get(&addr)?;
                self.sets[self.set_index(addr)].get(pos).map(|e| &e.line)
            }

            pub fn get_mut(&mut self, addr: LineAddr) -> Option<&mut L> {
                self.use_counter += 1;
                let counter = self.use_counter;
                let pos = *self.index.get(&addr)?;
                let idx = self.set_index(addr);
                self.sets[idx].get_mut(pos).map(|e| {
                    e.last_use = counter;
                    &mut e.line
                })
            }

            pub fn contains(&self, addr: LineAddr) -> bool {
                self.index.contains_key(&addr)
            }

            pub fn needs_eviction(&self, addr: LineAddr) -> bool {
                if self.contains(addr) {
                    return false;
                }
                self.sets[self.set_index(addr)].len() >= self.ways
            }

            pub fn victim_for(&self, addr: LineAddr) -> Option<LineAddr> {
                if !self.needs_eviction(addr) {
                    return None;
                }
                self.sets[self.set_index(addr)]
                    .iter()
                    .min_by_key(|e| e.last_use)
                    .map(|e| e.addr)
            }

            pub fn insert(&mut self, addr: LineAddr, line: L) {
                assert!(!self.contains(addr), "line {addr} already resident");
                self.use_counter += 1;
                let counter = self.use_counter;
                let idx = self.set_index(addr);
                let set = &mut self.sets[idx];
                assert!(set.len() < self.ways, "set for {addr} is full; evict first");
                self.index.insert(addr, set.len());
                set.push(Entry {
                    addr,
                    last_use: counter,
                    line,
                });
            }

            pub fn remove(&mut self, addr: LineAddr) -> Option<L> {
                let pos = self.index.remove(&addr)?;
                let idx = self.set_index(addr);
                let set = &mut self.sets[idx];
                let entry = set.swap_remove(pos);
                if let Some(moved) = set.get(pos) {
                    self.index.insert(moved.addr, pos);
                }
                Some(entry.line)
            }

            pub fn drain_all(&mut self) -> Vec<(LineAddr, L)> {
                self.index.clear();
                let mut out = Vec::new();
                for set in &mut self.sets {
                    for e in set.drain(..) {
                        out.push((e.addr, e.line));
                    }
                }
                out
            }

            pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &L)> {
                self.sets
                    .iter()
                    .flat_map(|s| s.iter().map(|e| (e.addr, &e.line)))
            }

            pub fn len(&self) -> usize {
                self.index.len()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Scanning the set finds what the index found: random operations on
        /// arrays of random geometry (power-of-two and not) read the same as
        /// on the indexed array, victims and `iter()` order included.
        #[test]
        fn set_scans_read_like_the_keyed_index(
            geometry in (1usize..7, 1usize..5),
            ops in collection::vec((0u32..100, 0u64..40), 1..400),
        ) {
            let (sets, ways) = geometry;
            let mut scanned: CacheArray<u64> = CacheArray::new(sets, ways, 64);
            let mut indexed: reference::CacheArray<u64> = reference::CacheArray::new(sets, ways, 64);
            for (step, (op, line_no)) in ops.into_iter().enumerate() {
                let addr = line(line_no);
                let payload = step as u64;
                match op {
                    0..=39 => {
                        // What a controller does: evict the victim, then insert.
                        let victim = scanned.victim_for(addr);
                        prop_assert_eq!(victim, indexed.victim_for(addr));
                        if let Some(victim) = victim {
                            prop_assert_eq!(scanned.remove(victim), indexed.remove(victim));
                        }
                        if !scanned.contains(addr) {
                            scanned.insert(addr, payload);
                            indexed.insert(addr, payload);
                        }
                    }
                    40..=64 => {
                        let (got, want) = (scanned.get_mut(addr), indexed.get_mut(addr));
                        prop_assert_eq!(got.as_deref(), want.as_deref());
                        if let (Some(got), Some(want)) = (got, want) {
                            *got = payload;
                            *want = payload;
                        }
                    }
                    65..=89 => prop_assert_eq!(scanned.remove(addr), indexed.remove(addr)),
                    90..=97 => prop_assert_eq!(scanned.victim_for(addr), indexed.victim_for(addr)),
                    _ => prop_assert_eq!(scanned.drain_all(), indexed.drain_all()),
                }
                for probe in (0..40).map(line) {
                    prop_assert_eq!(scanned.get(probe), indexed.get(probe));
                    prop_assert_eq!(scanned.contains(probe), indexed.contains(probe));
                    prop_assert_eq!(scanned.needs_eviction(probe), indexed.needs_eviction(probe));
                }
                prop_assert_eq!(
                    scanned.iter().collect::<Vec<_>>(),
                    indexed.iter().collect::<Vec<_>>()
                );
                prop_assert_eq!(scanned.len(), indexed.len());
                prop_assert_eq!(scanned.is_empty(), indexed.len() == 0);
            }
        }
    }

    fn line(n: u64) -> LineAddr {
        LineAddr(n * 64)
    }

    #[test]
    fn insert_get_remove() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 2, 64);
        assert!(c.is_empty());
        c.insert(line(1), 10);
        assert!(c.contains(line(1)));
        assert_eq!(c.get(line(1)), Some(&10));
        *c.get_mut(line(1)).unwrap() = 11;
        assert_eq!(c.get(line(1)), Some(&11));
        assert_eq!(c.remove(line(1)), Some(11));
        assert!(!c.contains(line(1)));
        assert_eq!(c.remove(line(1)), None);
    }

    #[test]
    fn set_indexing_is_modulo_sets() {
        let c: CacheArray<u32> = CacheArray::new(4, 2, 64);
        assert_eq!(c.set_index(line(0)), 0);
        assert_eq!(c.set_index(line(1)), 1);
        assert_eq!(c.set_index(line(4)), 0);
        assert_eq!(c.set_index(line(7)), 3);
    }

    #[test]
    fn eviction_needed_when_set_full() {
        let mut c: CacheArray<u32> = CacheArray::new(2, 2, 64);
        // Lines 0, 2, 4 all map to set 0.
        c.insert(line(0), 0);
        assert!(!c.needs_eviction(line(2)));
        c.insert(line(2), 2);
        assert!(c.needs_eviction(line(4)));
        assert!(
            !c.needs_eviction(line(0)),
            "resident line needs no eviction"
        );
        assert_eq!(c.victim_for(line(4)), Some(line(0)), "LRU is the victim");
        // Touching line 0 makes line 2 the LRU victim.
        c.get_mut(line(0));
        assert_eq!(c.victim_for(line(4)), Some(line(2)));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn inserting_into_full_set_panics() {
        let mut c: CacheArray<u32> = CacheArray::new(1, 1, 64);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut c: CacheArray<u32> = CacheArray::new(1, 2, 64);
        c.insert(line(0), 0);
        c.insert(line(0), 1);
    }

    #[test]
    fn drain_all_empties_the_cache() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 2, 64);
        for i in 0..6 {
            c.insert(line(i), i as u32);
        }
        assert_eq!(c.len(), 6);
        let drained = c.drain_all();
        assert_eq!(drained.len(), 6);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 2, 64);
        for i in 0..5 {
            c.insert(line(i), i as u32);
        }
        let mut seen: Vec<u64> = c.iter().map(|(a, _)| a.0 / 64).collect();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        for (_, v) in c.iter_mut() {
            *v += 100;
        }
        assert!(c.iter().all(|(_, &v)| v >= 100));
    }

    #[test]
    fn lookups_survive_swap_remove_churn() {
        // All lines map to set 0; removing a middle entry swap-moves the last
        // entry into its slot, where the scan must still find it.
        let mut c: CacheArray<u32> = CacheArray::new(1, 4, 64);
        for i in 0..4 {
            c.insert(line(i), i as u32);
        }
        assert_eq!(c.remove(line(1)), Some(1));
        for i in [0u64, 2, 3] {
            assert_eq!(c.get(line(i)), Some(&(i as u32)), "line {i} after churn");
            assert_eq!(c.remove(line(i)), Some(i as u32));
        }
        assert!(c.is_empty());
        // Reinsertion after churn still round-trips.
        c.insert(line(5), 55);
        assert_eq!(c.get(line(5)), Some(&55));
        assert_eq!(c.get_mut(line(5)).copied(), Some(55));
    }

    #[test]
    fn display_reports_occupancy() {
        let mut c: CacheArray<u32> = CacheArray::new(4, 2, 64);
        c.insert(line(0), 0);
        assert!(format!("{c}").contains("1 resident"));
    }
}
