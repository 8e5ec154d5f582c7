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
//! A third, transient view — the records of the *current cycle* — exists for
//! the simulation loop: a stalled request re-records its transition every
//! cycle it is retried, so when the loop fast-forwards `k` cycles in which
//! nothing else happens it replays the certifying cycle's records `k` times
//! ([`CoverageRecorder::replay_cycle`]) and the cumulative counts come out as
//! if every cycle had been simulated.

use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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

/// Records transition coverage for a whole simulation and for the test-run in
/// progress.
#[derive(Debug, Clone, Default)]
pub struct CoverageRecorder {
    cumulative: BTreeMap<Transition, u64>,
    current_run: BTreeSet<Transition>,
    /// Every record since the last [`begin_cycle`](Self::begin_cycle), in
    /// order and with repeats.
    cycle_log: Vec<Transition>,
}

/// The two durable views; the per-cycle log is loop-internal scratch.
impl Serialize for CoverageRecorder {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cumulative".to_string(), self.cumulative.to_value()),
            ("current_run".to_string(), self.current_run.to_value()),
        ])
    }
}

impl CoverageRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        CoverageRecorder::default()
    }

    /// Records that `transition` was taken once.
    pub fn record(&mut self, transition: Transition) {
        *self.cumulative.entry(transition).or_insert(0) += 1;
        self.current_run.insert(transition);
        self.cycle_log.push(transition);
    }

    /// Starts a new simulated cycle: forgets the previous cycle's records.
    pub fn begin_cycle(&mut self) {
        self.cycle_log.clear();
    }

    /// Counts every record of the current cycle `times` more, as `times`
    /// further cycles that record exactly the same would have.
    pub fn replay_cycle(&mut self, times: u64) {
        for transition in &self.cycle_log {
            *self
                .cumulative
                .get_mut(transition)
                .expect("a logged transition has been counted") += times;
        }
    }

    /// Cumulative count of a transition since simulation start.
    pub fn count(&self, transition: Transition) -> u64 {
        self.cumulative.get(&transition).copied().unwrap_or(0)
    }

    /// Number of distinct transitions observed since simulation start.
    pub fn distinct_covered(&self) -> usize {
        self.cumulative.len()
    }

    /// Iterates over all transitions observed so far with their counts.
    pub fn iter_cumulative(&self) -> impl Iterator<Item = (Transition, u64)> + '_ {
        self.cumulative.iter().map(|(&t, &c)| (t, c))
    }

    /// The set of transitions covered by the current test-run.
    pub fn current_run_covered(&self) -> &BTreeSet<Transition> {
        &self.current_run
    }

    /// Ends the current test-run: returns the set of transitions it covered
    /// and clears the per-run set (cumulative counts are retained).
    pub fn finish_run(&mut self) -> BTreeSet<Transition> {
        std::mem::take(&mut self.current_run)
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
            .filter(|t| self.cumulative.contains_key(t))
            .count();
        covered as f64 / universe.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn replay_multiplies_the_current_cycle_only() {
        let mut c = CoverageRecorder::new();
        let stalled = Transition::l2("NP", "GetS");
        let earlier = Transition::l1("I", "Load");
        c.record(earlier);
        c.begin_cycle();
        c.record(stalled);
        c.record(stalled);
        c.replay_cycle(10);
        assert_eq!(c.count(stalled), 22, "2 records x (1 + 10) cycles");
        assert_eq!(c.count(earlier), 1, "earlier cycles are not replayed");
        c.begin_cycle();
        c.replay_cycle(5);
        assert_eq!(c.count(stalled), 22, "an empty cycle replays nothing");
        // The transient log is not part of the serialized form.
        let Value::Object(fields) = c.to_value() else {
            panic!("recorder serializes as an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["cumulative", "current_run"]);
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
