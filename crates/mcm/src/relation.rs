//! Binary relations over events and the graph algorithms used by the checker.
//!
//! A [`Relation`] is a finite set of ordered pairs of [`EventId`]s, stored as
//! a dense bit matrix: row `a` is a vector of 64-bit words whose bit `b` is
//! set iff `(a, b)` is in the relation.  Event ids are dense indices (see
//! [`EventId::index`]), so a relation over the ~256 events of one candidate
//! execution is a few kilobytes and the relational algebra the checker needs
//! — union, composition, restriction, transitive closure — runs as word-wise
//! ORs and ANDs over whole rows instead of pair by pair.  Axiomatic
//! consistency models are phrased as constraints (acyclicity, irreflexivity)
//! over unions and compositions of such relations; this module provides that
//! algebra plus acyclicity with cycle extraction and topological ordering.
//! An [`EventSet`] is the matching dense set of events, used as a row mask.
//!
//! Storage is quadratic in the largest id a relation mentions, which is the
//! right trade for the dense ids of an execution and the wrong one for
//! arbitrary sparse `u32`s: do not use ids as hashes.

use crate::event::EventId;
use mcversi_telemetry as telemetry;
use serde::{DeError, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;

/// Transitive-closure computations.
static CLOSURE_CALLS: telemetry::Counter = telemetry::Counter::new("mcm.closure.calls");
/// Word-wise bitset row ORs performed inside closure sweeps (hot path).
static CLOSURE_ROW_SWEEPS: telemetry::Counter = telemetry::Counter::new("mcm.closure.row_sweeps");

/// Iterator over the set bits of a word slice, ascending.
#[derive(Debug, Clone)]
struct BitIter<'a> {
    words: &'a [u64],
    /// Index of the word `current` was loaded from.
    index: usize,
    /// Bits of `words[index]` not yet yielded.
    current: u64,
}

impl<'a> BitIter<'a> {
    fn new(words: &'a [u64]) -> Self {
        BitIter {
            words,
            index: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = EventId;

    fn next(&mut self) -> Option<EventId> {
        while self.current == 0 {
            self.index += 1;
            self.current = *self.words.get(self.index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(EventId((self.index * 64 + bit) as u32))
    }
}

/// A dense set of events: one bit per [`EventId::index`].
///
/// Used as a row mask for [`Relation`]s — "all reads", "every access to the
/// address of event `a`" — so that restricting a relation is one AND per row
/// word instead of a predicate call per pair.
#[derive(Clone, Default)]
pub struct EventSet {
    words: Vec<u64>,
}

impl EventSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id` to the set.
    pub fn insert(&mut self, id: EventId) {
        let word = id.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (id.index() % 64);
    }

    /// Returns `true` if `id` is in the set.
    pub fn contains(&self, id: EventId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Iterates over the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        BitIter::new(&self.words)
    }
}

impl FromIterator<EventId> for EventSet {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut set = EventSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl fmt::Debug for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A binary relation over [`EventId`]s.
///
/// The representation is a row-major bit matrix (see the module
/// documentation).  All operations are deterministic — iteration is in
/// ascending `(from, to)` order — which keeps checker output and test failures
/// reproducible; that order, and the `{:?}` and serialized text (an adjacency
/// map `{from: {to, ..}}` plus the pair count), are part of the contract:
/// witness cycles, golden digests and journals depend on them.
///
/// ```
/// use mcversi_mcm::relation::Relation;
/// use mcversi_mcm::event::EventId;
///
/// let mut r = Relation::new();
/// r.insert(EventId(0), EventId(1));
/// r.insert(EventId(1), EventId(2));
/// assert!(r.contains(EventId(0), EventId(1)));
/// assert!(!r.contains(EventId(0), EventId(2)));
/// assert!(r.transitive_closure().contains(EventId(0), EventId(2)));
/// ```
#[derive(Clone, Default)]
pub struct Relation {
    /// `rows() * words` words; bit `b % 64` of word `a * words + b / 64` is
    /// set iff `(a, b)` is in the relation.
    bits: Vec<u64>,
    /// Words per row (0 only while `bits` is empty).
    words: usize,
    /// Number of set bits in `bits`.
    len: usize,
}

impl Relation {
    /// The largest event id [`Deserialize`] accepts.  The matrix is allocated
    /// for the largest id mentioned, so an unchecked id read from a file
    /// would size the allocation; this bound caps it at 32 MiB per relation.
    pub const MAX_DESERIALIZED_ID: u32 = (1 << 14) - 1;

    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty relation with storage for `rows` sources and `words * 64`
    /// targets.
    fn zeroed(rows: usize, words: usize) -> Self {
        Relation {
            bits: vec![0; rows * words],
            words,
            len: 0,
        }
    }

    /// An empty relation with storage for every pair of ids below `nodes`,
    /// so that filling it never regrows the matrix.
    pub fn with_nodes(nodes: usize) -> Self {
        Relation::zeroed(nodes, nodes.div_ceil(64))
    }

    /// Creates a relation from an iterator of pairs.
    pub fn from_pairs<I: IntoIterator<Item = (EventId, EventId)>>(pairs: I) -> Self {
        let mut r = Relation::new();
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// Number of allocated rows (sources `>= rows()` have no successors).
    fn rows(&self) -> usize {
        self.bits.len().checked_div(self.words).unwrap_or(0)
    }

    /// The words of row `a`; empty when the row is not allocated.
    fn row(&self, a: usize) -> &[u64] {
        self.bits
            .get(a * self.words..(a + 1) * self.words)
            .unwrap_or(&[])
    }

    /// The non-empty rows with their sources, ascending: the adjacency-map
    /// view both text forms print.
    fn adjacency(&self) -> impl Iterator<Item = (EventId, BitIter<'_>)> {
        (0..self.rows())
            .filter(|&a| self.row(a).iter().any(|&w| w != 0))
            .map(|a| (EventId(a as u32), BitIter::new(self.row(a))))
    }

    /// One past the largest id that can appear as source or target.
    fn node_bound(&self) -> usize {
        self.rows().max(self.words * 64)
    }

    /// Grows the matrix to at least `rows` rows of `words` words.
    fn reserve(&mut self, rows: usize, words: usize) {
        if words > self.words {
            let mut bits = vec![0; rows.max(self.rows()) * words];
            if self.words > 0 {
                for (new, old) in bits
                    .chunks_exact_mut(words)
                    .zip(self.bits.chunks_exact(self.words))
                {
                    new[..self.words].copy_from_slice(old);
                }
            }
            self.bits = bits;
            self.words = words;
        } else if rows * self.words > self.bits.len() {
            self.bits.resize(rows * self.words, 0);
        }
    }

    /// Recomputes `len` after a bulk word operation.
    fn recount(&mut self) {
        self.len = self.bits.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Inserts the pair `(from, to)`. Returns `true` if it was not already present.
    pub fn insert(&mut self, from: EventId, to: EventId) -> bool {
        self.reserve(from.index() + 1, to.index() / 64 + 1);
        let word = &mut self.bits[from.index() * self.words + to.index() / 64];
        let bit = 1u64 << (to.index() % 64);
        let inserted = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(inserted);
        inserted
    }

    /// Inserts `(from, to)` for every `to` in `targets`: one OR per word.
    pub fn insert_row(&mut self, from: EventId, targets: &EventSet) {
        self.reserve(from.index() + 1, targets.words.len());
        let row = &mut self.bits[from.index() * self.words..][..targets.words.len()];
        for (mine, theirs) in row.iter_mut().zip(&targets.words) {
            self.len += (theirs & !*mine).count_ones() as usize;
            *mine |= theirs;
        }
    }

    /// Removes the pair `(from, to)`. Returns `true` if it was present.
    pub fn remove(&mut self, from: EventId, to: EventId) -> bool {
        if !self.contains(from, to) {
            return false;
        }
        self.bits[from.index() * self.words + to.index() / 64] &= !(1u64 << (to.index() % 64));
        self.len -= 1;
        true
    }

    /// Returns `true` if the pair `(from, to)` is in the relation.
    pub fn contains(&self, from: EventId, to: EventId) -> bool {
        self.row(from.index())
            .get(to.index() / 64)
            .is_some_and(|w| w & (1u64 << (to.index() % 64)) != 0)
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the relation contains no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all pairs in ascending `(from, to)` order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        (0..self.rows())
            .flat_map(move |a| BitIter::new(self.row(a)).map(move |to| (EventId(a as u32), to)))
    }

    /// Successors of `from` (events ordered after it by one step of the
    /// relation), ascending.
    pub fn successors(&self, from: EventId) -> impl Iterator<Item = EventId> + '_ {
        BitIter::new(self.row(from.index()))
    }

    /// All events that appear as source or target of at least one pair.
    pub fn nodes(&self) -> BTreeSet<EventId> {
        let mut nodes = BTreeSet::new();
        for (a, b) in self.iter() {
            nodes.insert(a);
            nodes.insert(b);
        }
        nodes
    }

    /// In-place union with another relation: one OR per word.
    pub fn union_with(&mut self, other: &Relation) {
        if other.is_empty() {
            return;
        }
        self.reserve(other.rows(), other.words);
        let mut added = 0;
        for (mine, theirs) in self
            .bits
            .chunks_exact_mut(self.words)
            .zip(other.bits.chunks_exact(other.words))
        {
            for (m, t) in mine.iter_mut().zip(theirs) {
                added += (t & !*m).count_ones() as usize;
                *m |= t;
            }
        }
        self.len += added;
    }

    /// Union of `self` and `other`.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// Union of an iterator of relations.
    pub fn union_all<'a, I: IntoIterator<Item = &'a Relation>>(rels: I) -> Relation {
        let mut out = Relation::new();
        for r in rels {
            out.union_with(r);
        }
        out
    }

    /// A relation of `self`'s shape whose row `a` is `op(a, row a of self)`
    /// applied word by word against `mask(a)` (missing mask words read as 0).
    fn map_rows<'a, M, O>(&self, mask: M, op: O) -> Relation
    where
        M: Fn(usize) -> &'a [u64],
        O: Fn(u64, u64) -> u64,
    {
        let mut out = Relation::zeroed(self.rows(), self.words);
        if self.words == 0 {
            return out;
        }
        for (a, (new, old)) in out
            .bits
            .chunks_exact_mut(self.words)
            .zip(self.bits.chunks_exact(self.words))
            .enumerate()
        {
            if old.iter().all(|&w| w == 0) {
                continue;
            }
            let mask = mask(a);
            for (i, (n, &o)) in new.iter_mut().zip(old).enumerate() {
                *n = op(o, mask.get(i).copied().unwrap_or(0));
            }
        }
        out.recount();
        out
    }

    /// [`map_rows`](Self::map_rows) against the set `targets` picks per source
    /// (no set: an all-zero mask).
    fn mask_rows<'a, F, O>(&self, targets: F, op: O) -> Relation
    where
        F: Fn(EventId) -> Option<&'a EventSet>,
        O: Fn(u64, u64) -> u64,
    {
        self.map_rows(
            |a| targets(EventId(a as u32)).map_or(&[][..], |set| set.words.as_slice()),
            op,
        )
    }

    /// Row-wise restriction: keeps `(a, b)` iff `targets(a)` is a set
    /// containing `b`; a source mapped to `None` loses its whole row.
    /// `targets` is only asked about sources that have successors.
    pub fn intersect_rows<'a, F>(&self, targets: F) -> Relation
    where
        F: Fn(EventId) -> Option<&'a EventSet>,
    {
        self.mask_rows(targets, |mine, mask| mine & mask)
    }

    /// Row-wise exclusion: drops `(a, b)` iff `targets(a)` is a set
    /// containing `b`; a source mapped to `None` keeps its whole row.
    pub fn subtract_rows<'a, F>(&self, targets: F) -> Relation
    where
        F: Fn(EventId) -> Option<&'a EventSet>,
    {
        self.mask_rows(targets, |mine, mask| mine & !mask)
    }

    /// Restriction to `sources × targets`: keeps `(a, b)` iff `a` is in
    /// `sources` and `b` is in `targets`.
    pub fn restrict(&self, sources: &EventSet, targets: &EventSet) -> Relation {
        self.intersect_rows(|a| sources.contains(a).then_some(targets))
    }

    /// Inverse relation: contains `(b, a)` for every `(a, b)` in `self`.
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::new();
        if let Some(max_target) = self.iter().map(|(_, b)| b.index()).max() {
            out.reserve(max_target + 1, self.rows().div_ceil(64));
        }
        for (a, b) in self.iter() {
            out.insert(b, a);
        }
        out
    }

    /// Relational composition `self ; other`: `(a, c)` whenever `(a, b)` in
    /// `self` and `(b, c)` in `other` for some `b`.  One row OR per pair of
    /// `self` whose target has successors in `other`.
    pub fn compose(&self, other: &Relation) -> Relation {
        let mut out = Relation::zeroed(self.rows(), other.words);
        if other.is_empty() {
            return out;
        }
        // The sources of `other`, as a mask over the targets of `self`.
        let mut joinable = vec![0u64; self.words];
        for (b, row) in other.bits.chunks_exact(other.words).enumerate() {
            if b / 64 < joinable.len() && row.iter().any(|&w| w != 0) {
                joinable[b / 64] |= 1u64 << (b % 64);
            }
        }
        let mut via = vec![0u64; self.words];
        for (a, new) in out.bits.chunks_exact_mut(other.words).enumerate() {
            for ((v, mine), j) in via.iter_mut().zip(self.row(a)).zip(&joinable) {
                *v = mine & j;
            }
            for b in BitIter::new(&via) {
                for (n, o) in new.iter_mut().zip(other.row(b.index())) {
                    *n |= o;
                }
            }
        }
        out.recount();
        out
    }

    /// Restriction of the relation to pairs satisfying `keep` (one call per
    /// pair; prefer [`intersect_rows`](Self::intersect_rows) /
    /// [`subtract_rows`](Self::subtract_rows) when the predicate is a set
    /// membership).
    pub fn filter<F: Fn(EventId, EventId) -> bool>(&self, keep: F) -> Relation {
        let mut out = Relation::zeroed(self.rows(), self.words);
        for (a, b) in self.iter().filter(|&(a, b)| keep(a, b)) {
            out.bits[a.index() * self.words + b.index() / 64] |= 1u64 << (b.index() % 64);
            out.len += 1;
        }
        out
    }

    /// `self.bits[dst row] |= self.bits[src row]` for two distinct rows.
    fn or_row(&mut self, dst: usize, src: usize) {
        debug_assert_ne!(dst, src);
        let words = self.words;
        let (dst_row, src_row) = if dst < src {
            let (lo, hi) = self.bits.split_at_mut(src * words);
            (&mut lo[dst * words..(dst + 1) * words], &hi[..words])
        } else {
            let (lo, hi) = self.bits.split_at_mut(dst * words);
            (&mut hi[..words], &lo[src * words..(src + 1) * words])
        };
        for (d, s) in dst_row.iter_mut().zip(src_row) {
            *d |= *s;
        }
    }

    /// Transitive closure, computed on the rows.
    ///
    /// For acyclic relations (the common case: `co` is validated acyclic
    /// before closure) one sweep in reverse topological order suffices,
    /// `reach[a] = row[a] ∪ ⋃ reach[succ]`: one row OR per pair — `O(E·V/64)`
    /// word operations.  Cyclic relations fall back to a per-node search with
    /// the node's own row as the visited set (so a node on a cycle reaches
    /// itself).
    pub fn transitive_closure(&self) -> Relation {
        CLOSURE_CALLS.incr();
        if self.is_empty() {
            return Relation::new();
        }
        let mut reach = self.clone();
        match self.kahn_order() {
            Some(order) => {
                CLOSURE_ROW_SWEEPS.add(self.len as u64);
                for a in order.into_iter().rev() {
                    for succ in BitIter::new(self.row(a.index())) {
                        // A successor without an allocated row reaches nothing.
                        if succ.index() < reach.rows() {
                            reach.or_row(a.index(), succ.index());
                        }
                    }
                }
            }
            None => {
                let mut stack: Vec<EventId> = Vec::new();
                for (a, seen) in reach.bits.chunks_exact_mut(self.words).enumerate() {
                    seen.fill(0);
                    stack.clear();
                    stack.extend(BitIter::new(self.row(a)));
                    while let Some(n) = stack.pop() {
                        let bit = 1u64 << (n.index() % 64);
                        if seen[n.index() / 64] & bit == 0 {
                            seen[n.index() / 64] |= bit;
                            stack.extend(BitIter::new(self.row(n.index())));
                        }
                    }
                }
            }
        }
        reach.recount();
        reach
    }

    /// Returns `true` if the relation is irreflexive after taking its
    /// transitive closure (i.e. no event reaches itself).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Finds a cycle if one exists and returns it as a list of events forming
    /// the cycle (each adjacent pair, and the last-to-first pair, are related).
    ///
    /// Uses an iterative depth-first search — roots and successors both in
    /// ascending id order, so the witness is a function of the pair set alone.
    /// The stack is the path from the root, so a successor found on it closes
    /// a cycle with the part of the stack above it.
    ///
    /// A frame's next successor is the first bit of `row & !finished` at or
    /// after the word the frame stopped in: every successor it has already
    /// examined is finished by the time the frame resumes (a finished one
    /// stays finished, an unvisited one was descended into and has returned,
    /// one on the stack ended the search).  The search therefore costs one
    /// step per node plus one pass over each row's words, not one step per
    /// pair.
    pub fn find_cycle(&self) -> Option<Vec<EventId>> {
        let words = self.node_bound().div_ceil(64);
        let mut finished = vec![0u64; words];
        let mut on_stack = vec![0u64; words];
        // Stack frames: (node, the word of its row to resume scanning at).
        let mut stack: Vec<(usize, usize)> = Vec::new();

        for root in 0..self.rows() {
            if finished[root / 64] & (1u64 << (root % 64)) != 0 {
                continue;
            }
            on_stack[root / 64] |= 1u64 << (root % 64);
            stack.push((root, 0));
            while let Some(frame) = stack.last_mut() {
                let (node, from) = *frame;
                let row = self.row(node);
                let next = (from..row.len()).find_map(|word| {
                    let open = row[word] & !finished[word];
                    (open != 0).then(|| (word, word * 64 + open.trailing_zeros() as usize))
                });
                match next {
                    Some((word, succ)) => {
                        let bit = 1u64 << (succ % 64);
                        if on_stack[succ / 64] & bit != 0 {
                            // Back-edge node -> succ closes a cycle.
                            let start = stack
                                .iter()
                                .position(|&(n, _)| n == succ)
                                .expect("a node marked on the stack is on it");
                            return Some(
                                stack[start..]
                                    .iter()
                                    .map(|&(n, _)| EventId(n as u32))
                                    .collect(),
                            );
                        }
                        frame.1 = word;
                        on_stack[succ / 64] |= bit;
                        stack.push((succ, 0));
                    }
                    None => {
                        on_stack[node / 64] &= !(1u64 << (node % 64));
                        finished[node / 64] |= 1u64 << (node % 64);
                        stack.pop();
                    }
                }
            }
        }
        None
    }

    /// Returns a topological ordering of all nodes participating in the
    /// relation, or `None` if the relation is cyclic.
    ///
    /// Kahn's algorithm; ties are broken by event id so the result is
    /// deterministic.
    pub fn topological_sort(&self) -> Option<Vec<EventId>> {
        self.kahn_order()
    }

    /// Kahn's algorithm over the participating nodes, smallest ready id
    /// first; `None` when the relation is cyclic.
    fn kahn_order(&self) -> Option<Vec<EventId>> {
        let mut indegree = vec![0u32; self.node_bound()];
        let mut participates = vec![false; self.node_bound()];
        for (a, b) in self.iter() {
            indegree[b.index()] += 1;
            participates[a.index()] = true;
            participates[b.index()] = true;
        }
        let nodes = participates.iter().filter(|&&p| p).count();
        let mut ready: BinaryHeap<Reverse<EventId>> = (0..self.node_bound())
            .filter(|&n| participates[n] && indegree[n] == 0)
            .map(|n| Reverse(EventId(n as u32)))
            .collect();
        let mut out = Vec::with_capacity(nodes);
        while let Some(Reverse(n)) = ready.pop() {
            out.push(n);
            for s in self.successors(n) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.push(Reverse(s));
                }
            }
        }
        (out.len() == nodes).then_some(out)
    }
}

/// Equality of the pair sets; allocated capacity is not observable.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.len == other.len
            && (0..self.rows().max(other.rows())).all(|a| {
                let (mine, theirs) = (self.row(a), other.row(a));
                let common = mine.len().min(theirs.len());
                mine[..common] == theirs[..common]
                    && mine[common..].iter().all(|&w| w == 0)
                    && theirs[common..].iter().all(|&w| w == 0)
            })
    }
}

impl Eq for Relation {}

/// `Debug` of a relation's adjacency-map view: `{from: {to, ..}, ..}`.
struct Adjacency<'a>(&'a Relation);

impl fmt::Debug for Adjacency<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Row<'a>(BitIter<'a>);
        impl fmt::Debug for Row<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.clone()).finish()
            }
        }
        f.debug_map()
            .entries(self.0.adjacency().map(|(from, tos)| (from, Row(tos))))
            .finish()
    }
}

/// Prints the adjacency-map shape `Relation { edges: {from: {to, ..}}, len }`
/// whatever the storage, because golden digests hash this text.
impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("edges", &Adjacency(self))
            .field("len", &self.len)
            .finish()
    }
}

/// Serializes as `{"edges": {"<from>": [<to>, ..], ..}, "len": <pairs>}`.
impl Serialize for Relation {
    fn to_value(&self) -> serde::Value {
        let edges = self
            .adjacency()
            .map(|(from, tos)| {
                let targets = tos.map(|to| to.to_value()).collect();
                (from.0.to_string(), serde::Value::Array(targets))
            })
            .collect();
        serde::Value::Object(vec![
            ("edges".to_string(), serde::Value::Object(edges)),
            ("len".to_string(), self.len.to_value()),
        ])
    }
}

/// Accepts the shape [`Serialize`] writes.  Ids above
/// [`Relation::MAX_DESERIALIZED_ID`] and a `len` that disagrees with the
/// pairs listed are errors.
impl Deserialize for Relation {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Relation"))?;
        let edges = v
            .get("edges")
            .and_then(serde::Value::as_object)
            .ok_or_else(|| DeError::expected("object", "field `edges` of `Relation`"))?;
        let len: usize = serde::__field(fields, "len", "Relation")?;
        let bounded = |id: EventId| {
            if id.0 <= Relation::MAX_DESERIALIZED_ID {
                Ok(id)
            } else {
                Err(DeError(format!(
                    "event id {} in `Relation` exceeds the supported maximum {}",
                    id.0,
                    Relation::MAX_DESERIALIZED_ID
                )))
            }
        };
        let mut out = Relation::new();
        for (from, targets) in edges {
            let from = bounded(serde::from_key(from)?)?;
            for to in Vec::<EventId>::from_value(targets)? {
                out.insert(from, bounded(to)?);
            }
        }
        if out.len != len {
            return Err(DeError(format!(
                "`Relation` lists {} pairs but records len {len}",
                out.len
            )));
        }
        Ok(out)
    }
}

impl FromIterator<(EventId, EventId)> for Relation {
    fn from_iter<I: IntoIterator<Item = (EventId, EventId)>>(iter: I) -> Self {
        Relation::from_pairs(iter)
    }
}

impl Extend<(EventId, EventId)> for Relation {
    fn extend<I: IntoIterator<Item = (EventId, EventId)>>(&mut self, iter: I) {
        for (a, b) in iter {
            self.insert(a, b);
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({a},{b})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new();
        assert!(r.is_empty());
        assert!(r.insert(e(0), e(1)));
        assert!(!r.insert(e(0), e(1)));
        assert_eq!(r.len(), 1);
        assert!(r.contains(e(0), e(1)));
        assert!(!r.contains(e(1), e(0)));
        assert!(r.remove(e(0), e(1)));
        assert!(!r.remove(e(0), e(1)));
        assert!(r.is_empty());
    }

    #[test]
    fn union_intersection_difference() {
        let a = Relation::from_pairs([(e(0), e(1)), (e(1), e(2))]);
        let b = Relation::from_pairs([(e(1), e(2)), (e(2), e(3))]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        let i = a.filter(|x, y| b.contains(x, y));
        assert_eq!(i.len(), 1);
        assert!(i.contains(e(1), e(2)));
        let d = a.filter(|x, y| !b.contains(x, y));
        assert_eq!(d.len(), 1);
        assert!(d.contains(e(0), e(1)));
    }

    #[test]
    fn inverse_and_compose() {
        let r = Relation::from_pairs([(e(0), e(1)), (e(1), e(2))]);
        let inv = r.inverse();
        assert!(inv.contains(e(1), e(0)));
        assert!(inv.contains(e(2), e(1)));
        let comp = r.compose(&r);
        assert_eq!(comp.len(), 1);
        assert!(comp.contains(e(0), e(2)));
    }

    #[test]
    fn transitive_closure_chain() {
        let r = Relation::from_pairs([(e(0), e(1)), (e(1), e(2)), (e(2), e(3))]);
        let tc = r.transitive_closure();
        assert!(tc.contains(e(0), e(3)));
        assert!(tc.contains(e(0), e(2)));
        assert!(tc.contains(e(1), e(3)));
        assert_eq!(tc.len(), 6);
    }

    /// Reference closure (the original BTree-based BFS) for differential
    /// testing of the bitset implementation.
    fn reference_closure(rel: &Relation) -> Relation {
        let mut out = Relation::new();
        for start in rel.nodes() {
            let mut stack: Vec<EventId> = rel.successors(start).collect();
            let mut seen: BTreeSet<EventId> = BTreeSet::new();
            while let Some(n) = stack.pop() {
                if seen.insert(n) {
                    out.insert(start, n);
                    stack.extend(rel.successors(n));
                }
            }
        }
        out
    }

    #[test]
    fn bitset_closure_matches_reference_on_random_graphs() {
        // Deterministic pseudo-random graphs: mixes of DAGs, cycles,
        // self-loops, sparse and dense regions, and node ids above 64 so
        // multi-word rows are exercised.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..60 {
            let nodes = 1 + (next() % 90) as u32;
            let edges = next() % (2 * nodes as u64 + 1);
            let mut rel = Relation::new();
            for _ in 0..edges {
                let a = (next() % nodes as u64) as u32;
                let b = (next() % nodes as u64) as u32;
                // Spread ids so dense indices differ from raw ids.
                rel.insert(e(a * 3 + 1), e(b * 3 + 1));
            }
            assert_eq!(
                rel.transitive_closure(),
                reference_closure(&rel),
                "case {case}: closure mismatch for {rel}"
            );
        }
    }

    #[test]
    fn closure_is_idempotent() {
        let r = Relation::from_pairs([(e(0), e(1)), (e(1), e(2)), (e(3), e(0))]);
        let tc = r.transitive_closure();
        assert_eq!(tc.transitive_closure(), tc);
    }

    #[test]
    fn acyclic_detection() {
        let dag = Relation::from_pairs([(e(0), e(1)), (e(0), e(2)), (e(1), e(3)), (e(2), e(3))]);
        assert!(dag.is_acyclic());
        assert!(dag.find_cycle().is_none());

        let cyc = Relation::from_pairs([(e(0), e(1)), (e(1), e(2)), (e(2), e(0))]);
        assert!(!cyc.is_acyclic());
        let cycle = cyc.find_cycle().expect("cycle exists");
        assert!(cycle.len() >= 2);
        // Every adjacent pair in the reported cycle must be an edge.
        for w in cycle.windows(2) {
            assert!(cyc.contains(w[0], w[1]), "cycle edge {:?} missing", w);
        }
        assert!(cyc.contains(*cycle.last().unwrap(), cycle[0]));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let r = Relation::from_pairs([(e(5), e(5))]);
        assert!(!r.is_acyclic());
        assert_eq!(r.find_cycle().unwrap(), vec![e(5)]);
    }

    #[test]
    fn two_node_cycle() {
        let r = Relation::from_pairs([(e(0), e(1)), (e(1), e(0))]);
        let cycle = r.find_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn topological_sort_dag() {
        let r = Relation::from_pairs([(e(2), e(1)), (e(1), e(0)), (e(3), e(0))]);
        let order = r.topological_sort().expect("acyclic");
        let pos = |x: EventId| order.iter().position(|&n| n == x).unwrap();
        assert!(pos(e(2)) < pos(e(1)));
        assert!(pos(e(1)) < pos(e(0)));
        assert!(pos(e(3)) < pos(e(0)));
    }

    #[test]
    fn topological_sort_rejects_cycles() {
        let r = Relation::from_pairs([(e(0), e(1)), (e(1), e(0))]);
        assert!(r.topological_sort().is_none());
    }

    #[test]
    fn disconnected_components() {
        let r = Relation::from_pairs([(e(0), e(1)), (e(10), e(11)), (e(11), e(10))]);
        assert!(!r.is_acyclic());
        // The cycle reported must come from the cyclic component.
        let cycle = r.find_cycle().unwrap();
        assert!(cycle.contains(&e(10)) || cycle.contains(&e(11)));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut r: Relation = [(e(0), e(1))].into_iter().collect();
        r.extend([(e(1), e(2)), (e(0), e(1))]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn display_lists_pairs() {
        let r = Relation::from_pairs([(e(0), e(1))]);
        assert_eq!(format!("{r}"), "{(e0,e1)}");
    }

    #[test]
    fn predecessors_and_nodes() {
        let r = Relation::from_pairs([(e(0), e(2)), (e(1), e(2))]);
        let preds: Vec<EventId> = r.inverse().successors(e(2)).collect();
        assert_eq!(preds, vec![e(0), e(1)]);
        assert_eq!(r.nodes().len(), 3);
    }

    #[test]
    fn large_chain_acyclic_and_sorted() {
        let r = Relation::from_pairs((0..500u32).map(|i| (e(i), e(i + 1))));
        assert!(r.is_acyclic());
        let order = r.topological_sort().unwrap();
        assert_eq!(order.len(), 501);
        assert_eq!(order[0], e(0));
        assert_eq!(order[500], e(500));
    }

    #[test]
    fn large_cycle_detected() {
        let mut pairs: Vec<(EventId, EventId)> = (0..500u32).map(|i| (e(i), e(i + 1))).collect();
        pairs.push((e(500), e(0)));
        let r = Relation::from_pairs(pairs);
        assert!(!r.is_acyclic());
    }
}
