//! Structural (state-transition) coverage of the coherence protocol.
//!
//! The paper uses the covered logic of the coherence protocol — concretely,
//! (state, event) transition pairs of the L1 and L2 controllers — as the GP
//! fitness signal (§3.2).  Identical controllers are not distinguished: the
//! transition `L1: S + Inv` counts once no matter which L1 took it.
//!
//! The recorder keeps two views:
//!
//! * *cumulative* counts since the simulation (campaign) started, used by the
//!   adaptive-coverage fitness to identify frequent transitions;
//! * the set covered by the *current test-run only*, so each test's fitness is
//!   independent of previously run tests.
//!
//! A transition is recorded once each time it is taken: a controller records
//! it in the arm that takes it, after the arm's stall check, so a request
//! retried while it stalls is counted when it finally proceeds, not once per
//! cycle it waited.  A controller that sleeps therefore owes the recorder
//! nothing.
//!
//! Recording is on the path of every controller tick, so it costs a constant
//! number of array operations: each transition recorded so far owns a dense
//! *slot* (count, "seen in this test-run" bit), and a record finds the slot
//! from the *addresses* of the transition's two `&'static str` names through
//! a hash map keyed by them, comparing no strings and walking no tree.
//! Names at a new address (the first record of a transition, or a second copy
//! of equal names elsewhere in the binary) take the miss path once, through
//! the content-keyed index that also keeps the sorted order the cumulative
//! view is read in.  The per-run set is only touched by the first record of
//! a transition in a test-run.

use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Which controller type a transition belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum ControllerKind {
    /// A private L1 cache controller.
    L1,
    /// A shared L2 bank / directory controller.
    L2,
}

impl fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerKind::L1 => write!(f, "L1"),
            ControllerKind::L2 => write!(f, "L2"),
        }
    }
}

/// One protocol state transition: controller type, source state and event.
///
/// States and events are identified by their static names, mirroring how a
/// table-driven protocol implementation (e.g. Ruby SLICC) enumerates its
/// transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Transition {
    /// The controller type taking the transition.
    pub controller: ControllerKind,
    /// The state the controller's line was in.
    pub state: &'static str,
    /// The event that triggered the transition.
    pub event: &'static str,
}

impl Transition {
    /// Convenience constructor for an L1 transition.
    pub fn l1(state: &'static str, event: &'static str) -> Self {
        Transition {
            controller: ControllerKind::L1,
            state,
            event,
        }
    }

    /// Convenience constructor for an L2 transition.
    pub fn l2(state: &'static str, event: &'static str) -> Self {
        Transition {
            controller: ControllerKind::L2,
            state,
            event,
        }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}+{}", self.controller, self.state, self.event)
    }
}

/// The number of a transition's slot in a [`CoverageRecorder`], handed out in
/// the order transitions are first recorded and valid for as long as the
/// recorder lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u32);

/// What the recorder keeps per transition recorded at least once.
#[derive(Debug, Clone)]
struct Covered {
    transition: Transition,
    /// Records since simulation start.
    count: u64,
    /// Whether the current test-run has recorded it.
    in_run: bool,
}

/// Where the two names of a [`Transition`] live, which identifies it without
/// looking at them: names at the same address and of the same length are the
/// same names.  (The converse does not hold: equal names may live at several
/// addresses, which then share a slot through the content-keyed index.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NameKey {
    controller: ControllerKind,
    state: (usize, usize),
    event: (usize, usize),
}

impl NameKey {
    fn of(transition: &Transition) -> Self {
        let place = |name: &'static str| (name.as_ptr() as usize, name.len());
        NameKey {
            controller: transition.controller,
            state: place(transition.state),
            event: place(transition.event),
        }
    }
}

/// The two addresses, multiplied apart and folded so that the low bits (the
/// bucket) and the high bits (the tag) of the hash both depend on both: the
/// names of a protocol sit side by side in the binary, so the addresses differ
/// in their low bits only.  Lengths and controller rarely tell two keys with
/// equal addresses apart and are left to `==`.
impl Hash for NameKey {
    fn hash<H: Hasher>(&self, hasher: &mut H) {
        let state = (self.state.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let event = (self.event.0 as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mixed = state ^ event.rotate_left(32);
        hasher.write_u64(mixed ^ (mixed >> 29));
    }
}

/// Passes the one word [`NameKey`] hashes to through: the keys are addresses
/// of the program's own statics, so there is nothing to defend against and
/// the default hasher would cost more than the tree walk it replaces.
#[derive(Debug, Clone, Copy, Default)]
struct OneWordHasher(u64);

impl Hasher for OneWordHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a NameKey hashes to one u64");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// From [`NameKey`] to [`Slot`]: the hit path of a record.
type NameMemo = HashMap<NameKey, Slot, BuildHasherDefault<OneWordHasher>>;

/// Records transition coverage for a whole simulation and for the test-run in
/// progress.
///
/// Counts live in dense slots, one per transition recorded so far.  A record
/// finds its slot from the addresses of the transition's names, without
/// comparing them; only the first record through a
/// given pair of addresses walks the content-keyed index, which also gives
/// the sorted order the cumulative view is read in.
#[derive(Clone, Default)]
pub struct CoverageRecorder {
    slots: Vec<Covered>,
    /// Every slot by the content of its transition.
    index: BTreeMap<Transition, Slot>,
    memo: NameMemo,
    /// The transitions whose slot has `in_run` set.
    current_run: BTreeSet<Transition>,
}

/// A [`CoverageRecorder`]'s counts and per-run bits at one moment
/// ([`CoverageRecorder::mark`]).  Slots are only ever appended, so the
/// slots past the marked ones are the transitions first recorded since.
#[derive(Debug)]
pub(crate) struct CoverageMark {
    slots: Vec<Covered>,
}

/// The two views, not how they are stored (slot order and name addresses
/// differ between runs of the program).
impl fmt::Debug for CoverageRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoverageRecorder")
            .field("cumulative", &self.cumulative())
            .field("current_run", &self.current_run)
            .finish()
    }
}

impl Serialize for CoverageRecorder {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cumulative".to_string(), self.cumulative().to_value()),
            ("current_run".to_string(), self.current_run.to_value()),
        ])
    }
}

impl CoverageRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        CoverageRecorder::default()
    }

    /// The cumulative view as the map it used to be stored in, which is what
    /// the text forms show.
    fn cumulative(&self) -> BTreeMap<Transition, u64> {
        self.iter_cumulative().collect()
    }

    /// The slot of a transition that has been recorded.  The readers come
    /// with names from the protocol's universe, whose addresses are not those
    /// of the controllers' records, so they go by content.
    fn slot_of(&self, transition: &Transition) -> Option<Slot> {
        self.index.get(transition).copied()
    }

    /// Records that `transition` was taken once.
    pub fn record(&mut self, transition: Transition) {
        let key = NameKey::of(&transition);
        let slot = match self.memo.get(&key) {
            Some(&slot) => slot,
            None => self.intern(key, transition),
        };
        let covered = &mut self.slots[slot.0 as usize];
        covered.count += 1;
        if !covered.in_run {
            covered.in_run = true;
            self.current_run.insert(covered.transition);
        }
    }

    /// The miss path of a record: names not seen at these addresses before.
    /// They share the slot of a transition equal in content, if there is one.
    #[cold]
    fn intern(&mut self, key: NameKey, transition: Transition) -> Slot {
        let slot = *self.index.entry(transition).or_insert_with(|| {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 transitions");
            self.slots.push(Covered {
                transition,
                count: 0,
                in_run: false,
            });
            Slot(slot)
        });
        self.memo.insert(key, slot);
        slot
    }

    /// Cumulative count of a transition since simulation start.
    pub fn count(&self, transition: Transition) -> u64 {
        self.slot_of(&transition)
            .map_or(0, |slot| self.slots[slot.0 as usize].count)
    }

    /// Number of distinct transitions observed since simulation start.
    pub fn distinct_covered(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over all transitions observed so far with their counts.
    pub fn iter_cumulative(&self) -> impl Iterator<Item = (Transition, u64)> + '_ {
        self.index
            .iter()
            .map(|(&t, &slot)| (t, self.slots[slot.0 as usize].count))
    }

    /// The set of transitions covered by the current test-run.
    pub fn current_run_covered(&self) -> &BTreeSet<Transition> {
        &self.current_run
    }

    /// Ends the current test-run: returns the set of transitions it covered
    /// and clears the per-run set (cumulative counts are retained).
    pub fn finish_run(&mut self) -> BTreeSet<Transition> {
        for covered in &mut self.slots {
            covered.in_run = false;
        }
        std::mem::take(&mut self.current_run)
    }

    /// The counts and per-run bits as they are now, for
    /// [`rewind`](Self::rewind).
    pub(crate) fn mark(&self) -> CoverageMark {
        CoverageMark {
            slots: self.slots.clone(),
        }
    }

    /// Puts the recorder back to `mark`: counts and per-run bits as they
    /// were, and transitions first recorded since then recorded no more.
    pub(crate) fn rewind(&mut self, mark: CoverageMark) {
        let kept = mark.slots.len();
        for covered in &self.slots[kept..] {
            self.index.remove(&covered.transition);
        }
        self.memo.retain(|_, slot| (slot.0 as usize) < kept);
        self.slots = mark.slots;
        self.current_run = self
            .slots
            .iter()
            .filter(|covered| covered.in_run)
            .map(|covered| covered.transition)
            .collect();
    }

    /// Fraction of `universe` transitions that have been covered cumulatively.
    ///
    /// Used for the "maximum total transition coverage" reported in Table 6.
    pub fn total_coverage(&self, universe: &[Transition]) -> f64 {
        if universe.is_empty() {
            return 0.0;
        }
        let covered = universe
            .iter()
            .filter(|t| self.slot_of(t).is_some())
            .count();
        covered as f64 / universe.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The recorder as it was before it kept slots: the two views stored as
    /// the map and the set they are read as.
    mod reference {
        use super::super::Transition;
        use serde::Serialize;
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Debug, Clone, Default, Serialize)]
        pub struct CoverageRecorder {
            cumulative: BTreeMap<Transition, u64>,
            current_run: BTreeSet<Transition>,
        }

        impl CoverageRecorder {
            pub fn record(&mut self, transition: Transition) {
                *self.cumulative.entry(transition).or_insert(0) += 1;
                self.current_run.insert(transition);
            }

            pub fn count(&self, transition: Transition) -> u64 {
                self.cumulative.get(&transition).copied().unwrap_or(0)
            }

            pub fn distinct_covered(&self) -> usize {
                self.cumulative.len()
            }

            pub fn iter_cumulative(&self) -> impl Iterator<Item = (Transition, u64)> + '_ {
                self.cumulative.iter().map(|(&t, &c)| (t, c))
            }

            pub fn current_run_covered(&self) -> &BTreeSet<Transition> {
                &self.current_run
            }

            pub fn finish_run(&mut self) -> BTreeSet<Transition> {
                std::mem::take(&mut self.current_run)
            }

            pub fn total_coverage(&self, universe: &[Transition]) -> f64 {
                if universe.is_empty() {
                    return 0.0;
                }
                let covered = universe
                    .iter()
                    .filter(|t| self.cumulative.contains_key(t))
                    .count();
                covered as f64 / universe.len() as f64
            }
        }
    }

    /// A copy of `name` at an address of its own.
    fn leaked(name: &str) -> &'static str {
        Box::leak(name.to_string().into_boxed_str())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Slots, the address-keyed table and the `in_run` bits are invisible:
        /// any sequence of calls reads the same as on the map-and-set
        /// recorder, over the MESI universe, a twin of one of its transitions
        /// whose names are equal in content but live elsewhere, and a
        /// transition outside it.
        #[test]
        fn slots_read_like_the_map_and_set_recorder(
            ops in collection::vec((0u32..100, 0usize..1_000), 1..600),
        ) {
            let universe = crate::protocol::mesi::all_transitions();
            let twin_of = universe[7];
            let twin = Transition {
                controller: twin_of.controller,
                state: leaked(twin_of.state),
                event: leaked(twin_of.event),
            };
            assert_eq!(twin, twin_of);
            assert_ne!(twin.state.as_ptr(), twin_of.state.as_ptr());
            let outside = Transition::l2("Nowhere", "Nothing");
            assert!(!universe.contains(&outside));
            // Few enough that repeats, twins and the outsider all come up.
            let mut pool = vec![twin, outside, twin_of];
            pool.extend(universe.iter().copied().step_by(5));

            let mut slots = CoverageRecorder::new();
            let mut model = reference::CoverageRecorder::default();
            for (op, pick) in ops {
                let transition = pool[pick % pool.len()];
                match op {
                    0..=59 => {
                        slots.record(transition);
                        model.record(transition);
                    }
                    80..=89 => prop_assert_eq!(slots.finish_run(), model.finish_run()),
                    _ => prop_assert_eq!(slots.count(transition), model.count(transition)),
                }
                prop_assert_eq!(
                    slots.iter_cumulative().collect::<Vec<_>>(),
                    model.iter_cumulative().collect::<Vec<_>>()
                );
                prop_assert_eq!(slots.current_run_covered(), model.current_run_covered());
                prop_assert_eq!(slots.distinct_covered(), model.distinct_covered());
                prop_assert_eq!(
                    slots.total_coverage(&universe),
                    model.total_coverage(&universe)
                );
                prop_assert_eq!(
                    serde_json::to_string(&slots).expect("serializes"),
                    serde_json::to_string(&model).expect("serializes")
                );
            }
            prop_assert_eq!(format!("{slots:?}"), format!("{model:?}"));
        }
    }

    #[test]
    fn names_at_many_addresses_share_the_slot_of_their_content() {
        let mut c = CoverageRecorder::new();
        let transitions: Vec<Transition> = (0..800)
            .map(|i| Transition::l2(leaked(&format!("S{}", i % 40)), leaked("E")))
            .collect();
        for (i, &t) in transitions.iter().enumerate() {
            c.record(t);
            assert_eq!(c.count(t), 1 + (i / 40) as u64);
        }
        assert_eq!(c.distinct_covered(), 40);
        assert_eq!(c.memo.len(), transitions.len());
        for &t in &transitions {
            assert_eq!(c.memo[&NameKey::of(&t)], c.index[&t]);
        }
    }

    #[test]
    fn a_rewind_forgets_counts_bits_and_slots_since_the_mark() {
        let mut c = CoverageRecorder::new();
        let (old, new) = (Transition::l1("S", "Inv"), Transition::l2("MT", "PutX"));
        c.record(old);
        c.finish_run();
        c.record(Transition::l1("I", "Load"));
        let twin = c.clone();
        let mark = c.mark();

        for _ in 0..5 {
            c.record(old);
        }
        c.record(new);
        let elsewhere = Transition::l1(leaked("I"), leaked("Load"));
        c.record(elsewhere);
        assert_eq!(c.distinct_covered(), 3);
        c.rewind(mark);

        assert_eq!(format!("{c:?}"), format!("{twin:?}"));
        assert_eq!(c.distinct_covered(), twin.distinct_covered());
        assert_eq!(c.count(new), 0);
        // Recording goes on as on the twin: the forgotten transition takes
        // a new slot, the names at a new address the slot of their content.
        let mut twin = twin;
        for recorder in [&mut c, &mut twin] {
            recorder.record(new);
            recorder.record(elsewhere);
        }
        assert_eq!(format!("{c:?}"), format!("{twin:?}"));
        assert_eq!(c.memo[&NameKey::of(&new)], c.index[&new]);
    }

    #[test]
    fn record_and_count() {
        let mut c = CoverageRecorder::new();
        let t = Transition::l1("S", "Inv");
        assert_eq!(c.count(t), 0);
        c.record(t);
        c.record(t);
        assert_eq!(c.count(t), 2);
        assert_eq!(c.distinct_covered(), 1);
    }

    #[test]
    fn finish_run_clears_per_run_set_only() {
        let mut c = CoverageRecorder::new();
        let t1 = Transition::l1("I", "Load");
        let t2 = Transition::l2("NP", "GetS");
        c.record(t1);
        c.record(t2);
        let run = c.finish_run();
        assert_eq!(run.len(), 2);
        assert!(c.current_run_covered().is_empty());
        assert_eq!(c.distinct_covered(), 2);
        // A new run starts fresh.
        c.record(t1);
        assert_eq!(c.current_run_covered().len(), 1);
        assert_eq!(c.count(t1), 2);
    }

    #[test]
    fn total_coverage_fraction() {
        let mut c = CoverageRecorder::new();
        let universe = vec![
            Transition::l1("I", "Load"),
            Transition::l1("S", "Inv"),
            Transition::l2("NP", "GetS"),
            Transition::l2("SS", "GetX"),
        ];
        assert_eq!(c.total_coverage(&universe), 0.0);
        c.record(universe[0]);
        c.record(universe[2]);
        assert!((c.total_coverage(&universe) - 0.5).abs() < 1e-9);
        // Transitions outside the universe do not inflate coverage.
        c.record(Transition::l1("M", "Load"));
        assert!((c.total_coverage(&universe) - 0.5).abs() < 1e-9);
        assert_eq!(c.total_coverage(&[]), 0.0);
    }

    #[test]
    fn transition_display() {
        assert_eq!(format!("{}", Transition::l1("IS", "Data")), "L1:IS+Data");
        assert_eq!(format!("{}", Transition::l2("MT", "PutX")), "L2:MT+PutX");
    }

    #[test]
    fn identical_controllers_not_distinguished() {
        // Recording the "same" transition from two different L1 instances is
        // indistinguishable by design: Transition has no controller index.
        let mut c = CoverageRecorder::new();
        c.record(Transition::l1("S", "Inv"));
        c.record(Transition::l1("S", "Inv"));
        assert_eq!(c.distinct_covered(), 1);
        assert_eq!(c.count(Transition::l1("S", "Inv")), 2);
    }
}
