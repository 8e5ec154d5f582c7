//! Auto-enumerated litmus corpus: a diy-style critical-cycle enumerator.
//!
//! Instead of hand-picking weak shapes, this module *walks* the space of
//! critical cycles over the relaxation-edge vocabulary
//! ([`mcversi_mcm::cycle`]): `po` / fenced / dependency internal edges times
//! `rf` / `fr` / `ws` external edges, bounded by a thread and edge budget
//! ([`EnumerationBounds`]).  Each cycle is canonicalized up to rotation,
//! assigned a herd-style name (`MP+mfence+addr`, `SB+lwsyncs`, `IRIW`, …; see
//! [`name`]), given a per-[`ModelKind`] expected verdict by the closed-form
//! oracle ([`ModelKind::forbids_cycle`]) and lowered to a runnable
//! [`LitmusTest`] ([`lower`]).
//!
//! The enumerated corpus *subsumes* the hand-written suites (every named
//! shape of `litmus::x86_tso_suite` /
//! `litmus::handwritten_weak_suite_flavoured` / `litmus::acquire_suite`
//! reappears under the same canonical name, except
//! the RMW variants and the `2T-*` systematic filler, which live outside the
//! cycle vocabulary) and extends them to hundreds of discriminating tests per
//! bound.  It is the default corpus of every campaign; the hand-written
//! suites are retained as the golden reference the conformance tests compare
//! against.

pub mod lower;
pub mod name;

use crate::litmus::LitmusTest;
use mcversi_mcm::cycle::{CriticalCycle, CycleEdge, Dir};
use mcversi_mcm::{Address, DepKind, FenceKind, ModelKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// The search bounds of one enumeration run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EnumerationBounds {
    /// Maximum number of threads (= external edges) per cycle.
    pub max_threads: usize,
    /// Maximum number of edges (= events) per cycle.
    pub max_edges: usize,
    /// Fence flavours an internal edge may carry.  Only flavours with a
    /// test-operation form are eligible ([`crate::ops::OpKind::for_fence`]);
    /// others are skipped.
    pub fences: Vec<FenceKind>,
    /// Dependency flavours an internal edge may carry (placement is further
    /// constrained by typing: read-sourced, `addr` read-borne, `data`/`ctrl`
    /// write-borne).
    pub deps: Vec<DepKind>,
}

impl EnumerationBounds {
    /// The default corpus bound: up to four threads and six edges — enough to
    /// reach `IRIW`, `ISA2` and the whole classic catalogue — over every
    /// fence flavour with an operation form and every dependency kind.
    pub fn new(max_threads: usize, max_edges: usize) -> Self {
        EnumerationBounds {
            max_threads,
            max_edges,
            fences: vec![
                FenceKind::Full,
                FenceKind::LightweightSync,
                FenceKind::Acquire,
                FenceKind::Release,
            ],
            deps: DepKind::ALL.to_vec(),
        }
    }
}

impl Default for EnumerationBounds {
    fn default() -> Self {
        EnumerationBounds::new(4, 6)
    }
}

/// Which litmus corpus a campaign's `diy-litmus` baseline draws from.
///
/// Selected by the `ScenarioSpec` `litmus` key: `Handpicked` is the original
/// hand-written suite, `Enumerated` the auto-enumerated corpus bounded at
/// `max_threads` threads and `max_edges` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LitmusCorpus {
    /// The hand-written golden suites (`litmus::handpicked_suite_for`).
    Handpicked,
    /// The enumerated corpus at the given bound.
    Enumerated {
        /// Maximum threads per cycle.
        max_threads: usize,
        /// Maximum edges per cycle.
        max_edges: usize,
    },
}

impl LitmusCorpus {
    /// The default corpus: enumerated at the default bound.
    pub fn enumerated_default() -> Self {
        let bounds = EnumerationBounds::default();
        LitmusCorpus::Enumerated {
            max_threads: bounds.max_threads,
            max_edges: bounds.max_edges,
        }
    }

    /// The largest bound the corpus selection accepts: the flavour product
    /// grows combinatorially with the edge budget, so anything past six
    /// threads / eight edges would stall every campaign at start-up for a
    /// corpus no budget could ever traverse.
    pub const MAX_THREADS: usize = 6;
    /// See [`LitmusCorpus::MAX_THREADS`].
    pub const MAX_EDGES: usize = 8;

    /// Parses a corpus name (case-insensitively): `handpicked`,
    /// `enumerated`, or `enumerated:<threads>x<edges>` (e.g.
    /// `enumerated:2x4`).  Bounds outside `2..=6` threads / `4..=8` edges
    /// are rejected (see [`LitmusCorpus::MAX_THREADS`]); a scenario spec's
    /// litmus bound and the `corpus_stats` example go through this check.
    pub fn parse(raw: &str) -> Option<LitmusCorpus> {
        let raw = raw.trim().to_ascii_lowercase();
        if raw == "handpicked" {
            return Some(LitmusCorpus::Handpicked);
        }
        if raw == "enumerated" {
            return Some(LitmusCorpus::enumerated_default());
        }
        let rest = raw.strip_prefix("enumerated:")?;
        let (threads, edges) = rest.split_once('x')?;
        let max_threads: usize = threads.trim().parse().ok()?;
        let max_edges: usize = edges.trim().parse().ok()?;
        if !(2..=Self::MAX_THREADS).contains(&max_threads)
            || !(4..=Self::MAX_EDGES).contains(&max_edges)
        {
            return None;
        }
        Some(LitmusCorpus::Enumerated {
            max_threads,
            max_edges,
        })
    }

    /// The bounds of the enumerated variant, `None` for the hand-picked one.
    ///
    /// Bounds are clamped to [`LitmusCorpus::MAX_THREADS`] /
    /// [`LitmusCorpus::MAX_EDGES`] — [`parse`](Self::parse) and
    /// `ScenarioSpec::from_json` already reject larger values, but a
    /// `ScenarioSpec` built in code must not be able to stall a campaign
    /// with an astronomically large enumeration either.
    pub fn bounds(&self) -> Option<EnumerationBounds> {
        match *self {
            LitmusCorpus::Handpicked => None,
            LitmusCorpus::Enumerated {
                max_threads,
                max_edges,
            } => Some(EnumerationBounds::new(
                max_threads.clamp(2, Self::MAX_THREADS),
                max_edges.clamp(4, Self::MAX_EDGES),
            )),
        }
    }
}

impl Default for LitmusCorpus {
    fn default() -> Self {
        LitmusCorpus::enumerated_default()
    }
}

impl fmt::Display for LitmusCorpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LitmusCorpus::Handpicked => f.write_str("handpicked"),
            LitmusCorpus::Enumerated {
                max_threads,
                max_edges,
            } => write!(f, "enumerated:{max_threads}x{max_edges}"),
        }
    }
}

/// One enumerated test: the canonical cycle, its herd-style name and the
/// per-model verdict predicted by the closed-form oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumeratedTest {
    /// The canonical critical cycle.
    pub cycle: CriticalCycle,
    /// Canonical herd-style name (base shape + flavour suffix).
    pub name: String,
    /// Expected "weak outcome forbidden" verdict per model, in
    /// [`ModelKind::ALL`] order — the independent oracle the checker is
    /// cross-checked against.
    pub forbidden: [bool; ModelKind::ALL.len()],
}

impl EnumeratedTest {
    /// Whether the model forbids this test's weak outcome.
    pub fn forbidden_under(&self, model: ModelKind) -> bool {
        let idx = ModelKind::ALL
            .iter()
            .position(|&m| m == model)
            .expect("model registered");
        self.forbidden[idx]
    }

    /// Lowers the cycle to a runnable litmus test over the given locations
    /// (see [`lower::lower_cycle`]).
    pub fn litmus(&self, locations: &[Address]) -> LitmusTest {
        lower::lower_cycle(&self.cycle, &self.name, locations)
    }
}

/// Enumerates the canonical corpus for the given bounds.
///
/// Results are cached per bound (the corpus is deterministic), so repeated
/// campaign samples share one enumeration.  The corpus is sorted by
/// (threads, edges, flavour count, name) — small, plain shapes first.
pub fn enumerate(bounds: &EnumerationBounds) -> Arc<Vec<EnumeratedTest>> {
    static CACHE: OnceLock<Mutex<BTreeMap<EnumerationBounds, Arc<Vec<EnumeratedTest>>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut cache = cache.lock().expect("corpus cache lock");
    if let Some(hit) = cache.get(bounds) {
        return Arc::clone(hit);
    }
    let corpus = Arc::new(enumerate_uncached(bounds));
    cache.insert(bounds.clone(), Arc::clone(&corpus));
    corpus
}

fn enumerate_uncached(bounds: &EnumerationBounds) -> Vec<EnumeratedTest> {
    let mut seen: BTreeMap<CriticalCycle, ()> = BTreeMap::new();
    let fences: Vec<FenceKind> = bounds
        .fences
        .iter()
        .copied()
        .filter(|&k| crate::ops::OpKind::for_fence(k).is_some())
        .collect();

    // Skeleton search: number of threads, events per thread (1 or 2),
    // external edge kinds.  Event directions are fully determined by the
    // external edges, so the skeleton space is tiny; the flavour assignment
    // of the internal edges is the cartesian product of the per-edge options.
    for n_ext in 2..=bounds.max_threads {
        for sizes_mask in 0u32..(1 << n_ext) {
            let sizes: Vec<usize> = (0..n_ext)
                .map(|k| if sizes_mask & (1 << k) != 0 { 2 } else { 1 })
                .collect();
            let n_int: usize = sizes.iter().filter(|&&s| s == 2).count();
            if n_int < 2 || n_ext + n_int > bounds.max_edges {
                continue;
            }
            let mut exts = vec![CycleEdge::Rf; n_ext];
            enumerate_externals(bounds, &fences, &sizes, &mut exts, 0, &mut seen);
        }
    }

    let mut corpus: Vec<EnumeratedTest> = {
        let named = name::assign_names(seen.into_keys().collect());
        named
            .into_iter()
            .map(|(cycle, name)| {
                let forbidden = ModelKind::cycle_verdicts(&cycle);
                EnumeratedTest {
                    cycle,
                    name,
                    forbidden,
                }
            })
            .collect()
    };
    corpus.sort_by(|a, b| {
        (
            a.cycle.num_threads(),
            a.cycle.len(),
            a.cycle.num_flavoured(),
            &a.name,
        )
            .cmp(&(
                b.cycle.num_threads(),
                b.cycle.len(),
                b.cycle.num_flavoured(),
                &b.name,
            ))
    });
    corpus
}

const EXTERNALS: [CycleEdge; 3] = [CycleEdge::Rf, CycleEdge::Fr, CycleEdge::Ws];

fn enumerate_externals(
    bounds: &EnumerationBounds,
    fences: &[FenceKind],
    sizes: &[usize],
    exts: &mut Vec<CycleEdge>,
    at: usize,
    seen: &mut BTreeMap<CriticalCycle, ()>,
) {
    if at == sizes.len() {
        flavour_product(bounds, fences, sizes, exts, seen);
        return;
    }
    for ext in EXTERNALS {
        exts[at] = ext;
        enumerate_externals(bounds, fences, sizes, exts, at + 1, seen);
    }
}

/// Builds the skeleton for one (sizes, external kinds) choice and walks every
/// flavour assignment of its internal edges.
fn flavour_product(
    bounds: &EnumerationBounds,
    fences: &[FenceKind],
    sizes: &[usize],
    exts: &[CycleEdge],
    seen: &mut BTreeMap<CriticalCycle, ()>,
) {
    let n_ext = sizes.len();
    // Event directions are dictated by the external edges: a segment starts
    // with the incoming edge's target and ends with the outgoing edge's
    // source; single-event segments need the two to agree.
    let mut dirs: Vec<Dir> = Vec::new();
    let mut edges: Vec<CycleEdge> = Vec::new();
    let mut internal_positions: Vec<usize> = Vec::new();
    for k in 0..n_ext {
        let incoming = exts[(k + n_ext - 1) % n_ext];
        let outgoing = exts[k];
        let start = incoming.external_dirs().expect("external").1;
        let end = outgoing.external_dirs().expect("external").0;
        if sizes[k] == 1 {
            if start != end {
                return;
            }
            dirs.push(start);
        } else {
            dirs.push(start);
            internal_positions.push(edges.len());
            edges.push(CycleEdge::Po);
            dirs.push(end);
        }
        edges.push(outgoing);
    }
    // Validate the plain skeleton once; flavouring cannot invalidate the
    // structural conditions, only the per-edge typing handled below.
    if CriticalCycle::new(edges.clone(), dirs.clone()).is_err() {
        return;
    }

    // Per internal edge, the legal flavour options.
    let n = edges.len();
    let options: Vec<Vec<CycleEdge>> = internal_positions
        .iter()
        .map(|&pos| {
            let (src, dst) = (dirs[pos], dirs[(pos + 1) % n]);
            let mut opts = vec![CycleEdge::Po];
            opts.extend(fences.iter().map(|&k| CycleEdge::Fenced(k)));
            if src == Dir::R {
                for &dep in &bounds.deps {
                    let ok = match dep {
                        DepKind::Addr => dst == Dir::R,
                        DepKind::Data | DepKind::Ctrl => dst == Dir::W,
                    };
                    if ok {
                        opts.push(CycleEdge::Dep(dep));
                    }
                }
            }
            opts
        })
        .collect();

    let mut assignment = vec![0usize; internal_positions.len()];
    loop {
        let mut flavoured = edges.clone();
        for (slot, &pos) in internal_positions.iter().enumerate() {
            flavoured[pos] = options[slot][assignment[slot]];
        }
        if let Ok(cycle) = CriticalCycle::new(flavoured, dirs.clone()) {
            seen.entry(cycle.canonicalize()).or_insert(());
        }
        // Odometer increment over the option indices.
        let mut slot = 0;
        loop {
            if slot == assignment.len() {
                return;
            }
            assignment[slot] += 1;
            if assignment[slot] < options[slot].len() {
                break;
            }
            assignment[slot] = 0;
            slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parse_and_display_round_trip() {
        assert_eq!(
            LitmusCorpus::parse("handpicked"),
            Some(LitmusCorpus::Handpicked)
        );
        assert_eq!(
            LitmusCorpus::parse("enumerated"),
            Some(LitmusCorpus::enumerated_default())
        );
        assert_eq!(
            LitmusCorpus::parse("enumerated:2x4"),
            Some(LitmusCorpus::Enumerated {
                max_threads: 2,
                max_edges: 4
            })
        );
        assert_eq!(LitmusCorpus::parse("enumerated:1x4"), None);
        assert_eq!(LitmusCorpus::parse("bogus"), None);
        // Case-insensitive, including the bounded spelling.
        assert_eq!(
            LitmusCorpus::parse("Enumerated:2X4"),
            Some(LitmusCorpus::Enumerated {
                max_threads: 2,
                max_edges: 4
            })
        );
        // Oversized bounds are rejected at parse time and clamped when a
        // hand-built spec smuggles them in.
        assert_eq!(LitmusCorpus::parse("enumerated:7x6"), None);
        assert_eq!(LitmusCorpus::parse("enumerated:4x9"), None);
        assert_eq!(
            LitmusCorpus::Enumerated {
                max_threads: 64,
                max_edges: 64
            }
            .bounds(),
            Some(EnumerationBounds::new(
                LitmusCorpus::MAX_THREADS,
                LitmusCorpus::MAX_EDGES
            ))
        );
        for corpus in [
            LitmusCorpus::Handpicked,
            LitmusCorpus::enumerated_default(),
            LitmusCorpus::Enumerated {
                max_threads: 3,
                max_edges: 5,
            },
        ] {
            assert_eq!(LitmusCorpus::parse(&corpus.to_string()), Some(corpus));
        }
    }

    #[test]
    fn default_bound_yields_a_rich_canonical_corpus() {
        let corpus = enumerate(&EnumerationBounds::default());
        assert!(
            corpus.len() >= 50,
            "only {} canonical tests at the default bound",
            corpus.len()
        );
        // Names are unique (canonicalization + collision resolution).
        let mut names: Vec<&str> = corpus.iter().map(|t| t.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate canonical names");
        // Cycles are canonical and unique.
        let mut cycles: Vec<_> = corpus.iter().map(|t| t.cycle.clone()).collect();
        for c in &cycles {
            assert_eq!(*c, c.canonicalize());
        }
        cycles.sort();
        cycles.dedup();
        assert_eq!(cycles.len(), before);
    }

    #[test]
    fn classic_names_appear_in_the_default_corpus() {
        let corpus = enumerate(&EnumerationBounds::default());
        let has = |name: &str| corpus.iter().any(|t| t.name == name);
        for name in [
            "MP",
            "SB",
            "LB",
            "S",
            "R",
            "2+2W",
            "WRC",
            "ISA2",
            "RWC",
            "WWC",
            "W+RWC",
            "Z6.3",
            "3.2W",
            "3.SB",
            "3.LB",
            "IRIW",
            "IRRWIW",
            "MP+addr",
            "MP+mfence+addr",
            "MP+lwsync+addr",
            "MP+rel+addr",
            "MP+mfences",
            "MP+mfence+acq",
            "LB+datas",
            "LB+ctrls",
            "LB+mfences",
            "SB+mfences",
            "SB+lwsyncs",
            "SB+mfence+po",
            "R+mfences",
            "WRC+data+addr",
            "WRC+mfence+addr",
            "WRC+mfences",
            "IRIW+addrs",
            "IRIW+mfences",
            "S+mfence+data",
        ] {
            assert!(has(name), "{name} missing from the enumerated corpus");
        }
    }

    #[test]
    fn toy_bound_stays_small_but_covers_the_two_thread_catalogue() {
        let corpus = enumerate(&EnumerationBounds::new(2, 4));
        assert!(corpus.len() >= 20, "{}", corpus.len());
        assert!(corpus.iter().all(|t| t.cycle.num_threads() <= 2));
        assert!(corpus.iter().all(|t| t.cycle.len() <= 4));
        for name in ["MP", "SB", "LB", "S", "R", "2+2W", "LB+datas", "SB+mfences"] {
            assert!(
                corpus.iter().any(|t| t.name == name),
                "{name} missing at the 2x4 bound"
            );
        }
        // The toy corpus is a subset (by name) of the default corpus.
        let full = enumerate(&EnumerationBounds::default());
        for t in corpus.iter() {
            assert!(
                full.iter().any(|f| f.name == t.name),
                "{} not in 4x6",
                t.name
            );
        }
    }

    #[test]
    fn verdicts_match_the_oracle_and_are_monotone() {
        let corpus = enumerate(&EnumerationBounds::default());
        for t in corpus.iter() {
            assert_eq!(t.forbidden, ModelKind::cycle_verdicts(&t.cycle));
            let [sc, tso, armish, powerish, rmo] = t.forbidden;
            assert!(sc >= tso, "{}: SC weaker than TSO", t.name);
            assert!(tso >= armish, "{}: TSO weaker than ARMish", t.name);
            assert!(tso >= powerish, "{}: TSO weaker than POWERish", t.name);
            assert!(armish >= rmo, "{}: ARMish weaker than RMO", t.name);
            assert!(powerish >= rmo, "{}: POWERish weaker than RMO", t.name);
            // SC forbids every critical cycle.
            assert!(sc, "{}: SC must forbid every critical cycle", t.name);
        }
        // The corpus discriminates: some tests are TSO-only, some reach RMO.
        assert!(corpus
            .iter()
            .any(|t| t.forbidden_under(ModelKind::Tso) && !t.forbidden_under(ModelKind::Armish)));
        assert!(corpus.iter().any(|t| t.forbidden_under(ModelKind::Rmo)));
    }

    #[test]
    fn enumeration_is_cached() {
        let a = enumerate(&EnumerationBounds::default());
        let b = enumerate(&EnumerationBounds::default());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
