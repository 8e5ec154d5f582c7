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
//! A stalled request re-records its transition every cycle it is retried.  The
//! simulation loop does not execute those retries: it keeps what the stalled
//! controller's last tick recorded and adds it once per tick slept through
//! ([`CoverageRecorder::record_repeats`]), so the cumulative counts come out
//! as if every cycle had been simulated.

use serde::Serialize;
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
#[derive(Debug, Clone, Default, Serialize)]
pub struct CoverageRecorder {
    cumulative: BTreeMap<Transition, u64>,
    current_run: BTreeSet<Transition>,
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
    }

    /// Counts a transition that has been [recorded](Self::record) `times`
    /// more, as `times` repeats of that record would have.
    pub fn record_repeats(&mut self, transition: Transition, times: u64) {
        *self
            .cumulative
            .get_mut(&transition)
            .expect("a repeated transition has been recorded") += times;
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
