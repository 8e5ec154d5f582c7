//! Static discrimination classifier: candidate critical cycles from the
//! conflict graph.
//!
//! A test can only produce a consistency violation (or distinguish two
//! models) if some execution of it witnesses a critical cycle — and which
//! cycles are *reachable* is decidable statically: the communication edges a
//! run can produce are exactly the cross-thread same-location conflicts of
//! the program, and the internal edges are its program-order pairs with
//! their fence/dependency flavours.  This module enumerates that candidate
//! cycle set with a bounded DFS over the [`Dataflow`] facts and evaluates
//! each cycle against the whole model chain via
//! [`ModelKind::cycle_verdicts`]: one verdict row per candidate cycle, which
//! [`Discrimination::verdict_of`] looks up.  A row mixing `true` and `false`
//! means the test can tell models apart; a `true` under one model means the
//! test can produce a violation under that model at all.
//!
//! The classifier is deliberately a *may* analysis of the critical-cycle
//! vocabulary: same-location (coherence) violations and protocol faults are
//! outside it.  Its one consumer is the benchmark, which times one
//! classification per generated test; `tests/static_analysis.rs` pins it
//! against the enumerator's verdicts.

use crate::dataflow::{Access, Dataflow};
use mcversi_mcm::{CriticalCycle, CycleEdge, Dir, ModelKind};
use mcversi_telemetry as telemetry;
use std::collections::BTreeSet;

/// Full classifications performed ([`classify`] calls).
static CLASSIFY_CALLS: telemetry::Counter = telemetry::Counter::new("analysis.classify.calls");
/// Candidate cycles visited by the bounded DFS (pre-dedup).
static CYCLES_VISITED: telemetry::Counter = telemetry::Counter::new("analysis.cycles.visited");
/// Searches that exhausted the step budget.
static SEARCH_TRUNCATED: telemetry::Counter = telemetry::Counter::new("analysis.search.truncated");

/// Search bounds of the candidate-cycle enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifyBounds {
    /// Maximum number of cycle edges (diy's `-len`); the enumerated corpus
    /// default is 6.
    pub max_edges: usize,
    /// DFS step budget; the search reports `truncated` when exhausted so
    /// callers can distinguish "no cycle" from "gave up".
    pub max_steps: usize,
}

impl Default for ClassifyBounds {
    fn default() -> Self {
        ClassifyBounds {
            max_edges: 6,
            max_steps: 200_000,
        }
    }
}

/// The classifier's result: the candidate cycles with their per-model
/// verdicts.
#[derive(Debug, Clone)]
pub struct Discrimination {
    /// The canonicalized candidate critical cycles, deduplicated and sorted.
    pub cycles: Vec<CriticalCycle>,
    /// Per-cycle verdicts over [`ModelKind::ALL`] (`true` = forbidden),
    /// parallel to `cycles`.
    pub verdicts: Vec<[bool; ModelKind::ALL.len()]>,
    /// `true` when the step budget ran out before the search completed; the
    /// cycle set is then a lower bound.
    pub truncated: bool,
}

impl Discrimination {
    /// Number of candidate cycles found.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Returns `true` if no candidate cycle was found.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The verdict vector recorded for `cycle`, if it is in the set.
    pub fn verdict_of(&self, cycle: &CriticalCycle) -> Option<[bool; ModelKind::ALL.len()]> {
        let canon = cycle.canonicalize();
        self.cycles
            .iter()
            .position(|c| *c == canon)
            .map(|i| self.verdicts[i])
    }
}

/// Enumerates the candidate critical cycles of a program and classifies each
/// against the model chain.
pub fn classify(df: &Dataflow, bounds: &ClassifyBounds) -> Discrimination {
    CLASSIFY_CALLS.incr();
    let mut seen: BTreeSet<CriticalCycle> = BTreeSet::new();
    let truncated = search(df, bounds, |cycle| {
        seen.insert(cycle);
    });
    let cycles: Vec<CriticalCycle> = seen.into_iter().collect();
    let verdicts = cycles.iter().map(ModelKind::cycle_verdicts).collect();
    Discrimination {
        cycles,
        verdicts,
        truncated,
    }
}

/// The flavour options of one same-thread program-order pair: plain `po`,
/// one `Fenced` per distinct fence kind strictly between the accesses, and
/// the carried dependency when the later access's recorded source is the
/// earlier access.
fn internal_flavours(df: &Dataflow, a: &Access, b: &Access) -> Vec<CycleEdge> {
    let mut flavours = vec![CycleEdge::Po];
    for kind in df.fence_kinds_between(a.thread, a.poi, b.poi) {
        flavours.push(CycleEdge::Fenced(kind));
    }
    if b.dep_source == Some(a.id) {
        if let Some(kind) = b.dep_kind {
            flavours.push(CycleEdge::Dep(kind));
        }
    }
    flavours
}

/// The communication edge a conflict pair can produce, from the access
/// directions (`rf: W→R`, `fr: R→W`, `ws: W→W`; read→read conflicts produce
/// no edge).
fn external_kind(a: &Access, b: &Access) -> Option<CycleEdge> {
    match (a.dir, b.dir) {
        (Dir::W, Dir::R) => Some(CycleEdge::Rf),
        (Dir::R, Dir::W) => Some(CycleEdge::Fr),
        (Dir::W, Dir::W) => Some(CycleEdge::Ws),
        (Dir::R, Dir::R) => None,
    }
}

/// Bounded DFS over the access graph.  `visit` receives canonicalized
/// cycles (the same canonical cycle can arrive more than once when distinct
/// access sets realize it — [`classify`] deduplicates).  Returns `true`
/// when the step budget was exhausted.
fn search(df: &Dataflow, bounds: &ClassifyBounds, mut visit: impl FnMut(CriticalCycle)) -> bool {
    let mut visit = |cycle: CriticalCycle| {
        CYCLES_VISITED.incr();
        visit(cycle)
    };
    let nodes = df.accesses();
    let n = nodes.len();
    // Candidate edges between every ordered node pair, computed once:
    // internal pairs are same-thread po-forward different-location, external
    // pairs cross-thread same-location.
    let mut adj: Vec<Vec<(usize, Vec<CycleEdge>)>> = vec![Vec::new(); n];
    for (i, a) in nodes.iter().enumerate() {
        for (j, b) in nodes.iter().enumerate() {
            if i == j {
                continue;
            }
            if a.thread == b.thread {
                if b.id > a.id && a.addr != b.addr {
                    let flavours = internal_flavours(df, a, b);
                    adj[i].push((j, flavours));
                }
            } else if a.addr == b.addr {
                if let Some(kind) = external_kind(a, b) {
                    adj[i].push((j, vec![kind]));
                }
            }
        }
    }

    let mut state = SearchState {
        nodes,
        adj: &adj,
        max_edges: bounds.max_edges,
        steps_left: bounds.max_steps,
        truncated: false,
        path: Vec::new(),
        edges: Vec::new(),
        on_path: vec![false; n],
        threads_used: BTreeSet::new(),
        visit: &mut visit,
    };
    for (start, node) in nodes.iter().enumerate() {
        if state.truncated {
            break;
        }
        state.path.push(start);
        state.on_path[start] = true;
        state.threads_used.insert(node.thread);
        state.extend(start);
        state.threads_used.remove(&node.thread);
        state.on_path[start] = false;
        state.path.pop();
    }
    if state.truncated {
        SEARCH_TRUNCATED.incr();
    }
    state.truncated
}

/// Mutable state of one DFS, split out so the recursion borrows cleanly.
struct SearchState<'a, F: FnMut(CriticalCycle)> {
    nodes: &'a [Access],
    adj: &'a [Vec<(usize, Vec<CycleEdge>)>],
    max_edges: usize,
    steps_left: usize,
    truncated: bool,
    path: Vec<usize>,
    edges: Vec<CycleEdge>,
    on_path: Vec<bool>,
    threads_used: BTreeSet<usize>,
    visit: &'a mut F,
}

impl<F: FnMut(CriticalCycle)> SearchState<'_, F> {
    /// Whether appending `edge` after the current last edge keeps the path a
    /// potential critical cycle (the cheap incremental subset of
    /// [`CriticalCycle::new`]'s conditions).
    fn admissible(&self, edge: CycleEdge) -> bool {
        let len = self.edges.len();
        if len == 0 {
            return true;
        }
        let prev = self.edges[len - 1];
        if prev.is_internal() && edge.is_internal() {
            return false;
        }
        if prev.is_external() && edge.is_external() {
            // External runs have length at most two and only the
            // non-collapsing compositions.
            if len >= 2 && self.edges[len - 2].is_external() {
                return false;
            }
            let pair = (prev, edge);
            if pair != (CycleEdge::Ws, CycleEdge::Rf) && pair != (CycleEdge::Fr, CycleEdge::Rf) {
                return false;
            }
        }
        true
    }

    fn extend(&mut self, current: usize) {
        if self.truncated {
            return;
        }
        let start = self.path[0];
        let adj = self.adj;
        for &(next, ref flavours) in &adj[current] {
            for &edge in flavours {
                if self.truncated {
                    return;
                }
                if self.steps_left == 0 {
                    self.truncated = true;
                    return;
                }
                self.steps_left -= 1;
                if !self.admissible(edge) {
                    continue;
                }
                if next == start {
                    if self.edges.len() + 1 >= 4 {
                        self.edges.push(edge);
                        self.close();
                        self.edges.pop();
                    }
                    continue;
                }
                // Rotation canonicalization: every non-start node of a cycle
                // has a larger index than the start, so each cyclic node
                // sequence is enumerated from exactly one start.
                if next < start || self.on_path[next] {
                    continue;
                }
                if self.edges.len() + 1 >= self.max_edges {
                    continue;
                }
                // A cycle visits each thread once; external edges must land
                // on fresh threads.
                let thread = self.nodes[next].thread;
                if edge.is_external() && self.threads_used.contains(&thread) {
                    continue;
                }
                self.path.push(next);
                self.on_path[next] = true;
                let fresh_thread = self.threads_used.insert(thread);
                self.edges.push(edge);
                self.extend(next);
                self.edges.pop();
                if fresh_thread {
                    self.threads_used.remove(&thread);
                }
                self.on_path[next] = false;
                self.path.pop();
            }
        }
    }

    /// The path plus the just-pushed closing edge forms a candidate cycle:
    /// validate it structurally and check that distinct location classes map
    /// to distinct concrete addresses (the wrap-around conditions the
    /// incremental checks cannot see are validated by `CriticalCycle::new`).
    fn close(&mut self) {
        let dirs: Vec<Dir> = self.path.iter().map(|&i| self.nodes[i].dir).collect();
        let Ok(cycle) = CriticalCycle::new(self.edges.clone(), dirs) else {
            return;
        };
        let locations = cycle.location_of();
        let classes: BTreeSet<usize> = locations.iter().copied().collect();
        let addrs: BTreeSet<_> = self.path.iter().map(|&i| self.nodes[i].addr).collect();
        if addrs.len() != classes.len() {
            // Two location classes collide on one concrete address: the
            // "cycle" is degenerate in this program.
            return;
        }
        (self.visit)(cycle.canonicalize());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_mcm::{Address, DepKind, FenceKind};
    use mcversi_sim::{TestOp, TestProgram};

    fn x() -> Address {
        Address(0x100)
    }
    fn y() -> Address {
        Address(0x140)
    }

    fn mp_program() -> TestProgram {
        TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::write(y(), 2)],
            vec![TestOp::read(y()), TestOp::read(x())],
        ])
    }

    fn classify_program(program: &TestProgram) -> Discrimination {
        classify(&Dataflow::new(program), &ClassifyBounds::default())
    }

    #[test]
    fn mp_yields_the_mp_cycle_with_the_chain_verdicts() {
        let result = classify_program(&mp_program());
        assert!(!result.truncated);
        let mp = CriticalCycle::new(
            vec![CycleEdge::Po, CycleEdge::Rf, CycleEdge::Po, CycleEdge::Fr],
            vec![Dir::W, Dir::W, Dir::R, Dir::R],
        )
        .expect("MP is a valid cycle");
        let verdict = result.verdict_of(&mp).expect("MP cycle found");
        // MP: forbidden under SC and TSO, allowed under the relaxed models.
        assert_eq!(verdict, [true, true, false, false, false]);
    }

    #[test]
    fn fenced_mp_separates_the_relaxed_models() {
        // mfence on the writer, addr dependency on the reader: forbidden
        // everywhere, so it no longer discriminates by itself.
        let program = TestProgram::new(vec![
            vec![
                TestOp::write(x(), 1),
                TestOp::fence(),
                TestOp::write(y(), 2),
            ],
            vec![TestOp::read(y()), TestOp::read_addr_dp(x())],
        ]);
        let result = classify_program(&program);
        let strongest = CriticalCycle::new(
            vec![
                CycleEdge::Fenced(FenceKind::Full),
                CycleEdge::Rf,
                CycleEdge::Dep(DepKind::Addr),
                CycleEdge::Fr,
            ],
            vec![Dir::W, Dir::W, Dir::R, Dir::R],
        )
        .expect("MP+mfence+addr is a valid cycle");
        assert_eq!(
            result.verdict_of(&strongest),
            Some([true, true, true, true, true])
        );
        // The plain-po weakenings are enumerated alongside.
        assert!(result.len() >= 4, "po/fence × po/dep variants expected");
    }

    #[test]
    fn private_and_read_only_programs_have_no_cycles() {
        // No cross-thread conflict: nothing to order.
        let private = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::read(x())],
            vec![TestOp::write(y(), 2), TestOp::read(y())],
        ]);
        let result = classify_program(&private);
        assert!(result.is_empty());
        // A single conflict with no second location cannot form a cycle.
        let single = TestProgram::new(vec![vec![TestOp::write(x(), 1)], vec![TestOp::read(x())]]);
        assert!(classify_program(&single).is_empty());
    }

    #[test]
    fn exhausted_step_budget_reports_truncation_and_stays_safe() {
        let df = Dataflow::new(&mp_program());
        let bounds = ClassifyBounds {
            max_edges: 6,
            max_steps: 1,
        };
        let result = classify(&df, &bounds);
        assert!(result.truncated);
    }

    #[test]
    fn write_only_programs_yield_the_2_plus_2w_cycle() {
        let program = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::write(y(), 2)],
            vec![TestOp::write(y(), 3), TestOp::write(x(), 4)],
        ]);
        let result = classify_program(&program);
        let two_two_w = CriticalCycle::new(
            vec![CycleEdge::Po, CycleEdge::Ws, CycleEdge::Po, CycleEdge::Ws],
            vec![Dir::W, Dir::W, Dir::W, Dir::W],
        )
        .expect("2+2W is a valid cycle");
        assert_eq!(
            result.verdict_of(&two_two_w),
            Some([true, true, false, false, false])
        );
        // Same-location pairs never form internal edges.
        let same_loc = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::write(x(), 2)],
            vec![TestOp::read(x()), TestOp::read(x())],
        ]);
        assert!(classify_program(&same_loc).is_empty());
    }
}
