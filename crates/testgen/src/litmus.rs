//! The diy-style litmus corpora (the non-GP baseline, §5.2.2).
//!
//! The diy tool generates short tests from critical cycles of the target
//! model.  This module provides two corpora:
//!
//! * the **hand-written golden suites** — the classic named x86-TSO shapes
//!   ([`x86_tso_suite`]: SB, MP, LB, S, R, 2+2W, fence/RMW variants, WRC,
//!   ISA2, IRIW, …, 38+ tests matching the paper's "all 38 tests available"),
//!   the flavoured weak shapes ([`handwritten_weak_suite_flavoured`]) and the
//!   acquire probe ([`acquire_suite`]).  These are kept verbatim as the
//!   reference the enumerator conformance tests compare against, and as the
//!   `"litmus": "Handpicked"` corpus ([`handpicked_suite_for`]);
//! * the **auto-enumerated corpus** ([`crate::enumerate`]) — critical cycles
//!   walked mechanically over the relaxation-edge vocabulary.  The default
//!   campaign suite ([`suite_for_bounded`]) is a thin filter over it that
//!   orders the whole corpus with the target model's forbidden cycles first.
//!
//! Unlike diy's self-checking tests (which encode one forbidden outcome), the
//! McVerSi checker validates every observed execution against the full
//! axiomatic model, which is strictly stronger; the role of the suite — short
//! shaped tests exercising the critical cycles — is preserved, and each
//! enumerated test additionally carries its forbidden outcome and expected
//! per-model verdict ([`crate::enumerate::EnumeratedTest`]).

use crate::enumerate::{self, EnumerationBounds};
use crate::ops::{Op, OpKind};
use crate::test::{Gene, Test};
use mcversi_mcm::{Address, DepKind, FenceKind, ModelKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named litmus test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LitmusTest {
    /// The conventional name of the shape (e.g. `"SB"`, `"IRIW"`).
    pub name: String,
    /// The test body.
    pub test: Test,
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.test)
    }
}

/// Shorthand for building per-thread op lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum A {
    /// Read location `usize`.
    R(usize),
    /// Read location `usize` with an address dependency on the previous read.
    D(usize),
    /// Write location `usize`.
    W(usize),
    /// Write location `usize` with a data dependency on the previous read.
    Wd(usize),
    /// Write location `usize` with a control dependency on the previous read.
    Wc(usize),
    /// Atomic RMW on location `usize`.
    U(usize),
    /// Full fence.
    F,
    /// A fence of the given flavour.
    Fl(FenceKind),
}

impl A {
    /// The dependent-write shorthand for a dependency flavour (`Data` and
    /// `Ctrl` are write-borne; `Addr` has no write form and is rejected by
    /// [`handwritten_weak_suite_flavoured`] before this is reached).
    fn dep_write(dep: DepKind, loc: usize) -> A {
        match dep {
            DepKind::Data => A::Wd(loc),
            DepKind::Ctrl => A::Wc(loc),
            DepKind::Addr => unreachable!("write-borne dependencies are data or ctrl"),
        }
    }
}

/// Builds a litmus test from per-thread access lists over numbered locations.
fn build(name: &str, threads: &[&[A]], locations: &[Address]) -> LitmusTest {
    let num_threads = threads.len();
    let mut genes = Vec::new();
    // Interleave the threads' operations round-robin so the flat list mixes
    // threads (the order within each thread is preserved, which is all that
    // matters for program order).
    let max_len = threads.iter().map(|t| t.len()).max().unwrap_or(0);
    for slot in 0..max_len {
        for (pid, thread) in threads.iter().enumerate() {
            if let Some(access) = thread.get(slot) {
                let op = match access {
                    A::R(l) => Op::new(OpKind::Read, locations[*l]),
                    A::D(l) => Op::new(OpKind::ReadAddrDp, locations[*l]),
                    A::W(l) => Op::new(OpKind::Write, locations[*l]),
                    A::Wd(l) => Op::new(OpKind::WriteDataDp, locations[*l]),
                    A::Wc(l) => Op::new(OpKind::WriteCtrlDp, locations[*l]),
                    A::U(l) => Op::new(OpKind::ReadModifyWrite, locations[*l]),
                    A::F => Op::new(OpKind::Fence, Address(0)),
                    A::Fl(kind) => Op::new(
                        OpKind::for_fence(*kind).expect("litmus fences have op kinds"),
                        Address(0),
                    ),
                };
                genes.push(Gene {
                    pid: pid as u32,
                    op,
                });
            }
        }
    }
    LitmusTest {
        name: name.to_string(),
        test: Test::new(genes, num_threads),
    }
}

/// Generates the full x86-TSO litmus suite over the given location addresses.
///
/// At least three distinct addresses must be provided (tests use up to three
/// locations); the same suite shape is produced regardless of the concrete
/// addresses.
///
/// # Panics
///
/// Panics if fewer than three addresses are supplied.
pub fn x86_tso_suite(locations: &[Address]) -> Vec<LitmusTest> {
    assert!(
        locations.len() >= 3,
        "litmus suite needs at least 3 locations"
    );
    let l = locations;
    let shapes: &[(&str, &[&[A]])] = &[
        // ---- Classic named two-thread shapes ----
        ("SB", &[&[A::W(0), A::R(1)], &[A::W(1), A::R(0)]]),
        ("MP", &[&[A::W(0), A::W(1)], &[A::R(1), A::R(0)]]),
        ("LB", &[&[A::R(0), A::W(1)], &[A::R(1), A::W(0)]]),
        ("S", &[&[A::W(0), A::W(1)], &[A::R(1), A::W(0)]]),
        ("R", &[&[A::W(0), A::W(1)], &[A::W(1), A::R(0)]]),
        ("2+2W", &[&[A::W(0), A::W(1)], &[A::W(1), A::W(0)]]),
        ("CoRR", &[&[A::W(0)], &[A::R(0), A::R(0)]]),
        ("CoWW", &[&[A::W(0), A::W(0)]]),
        ("CoRW", &[&[A::R(0), A::W(0)], &[A::W(0)]]),
        ("CoWR", &[&[A::W(0), A::R(0)], &[A::W(0)]]),
        // ---- Fence / locked variants ----
        (
            "SB+mfences",
            &[&[A::W(0), A::F, A::R(1)], &[A::W(1), A::F, A::R(0)]],
        ),
        (
            "SB+mfence+po",
            &[&[A::W(0), A::F, A::R(1)], &[A::W(1), A::R(0)]],
        ),
        ("SB+rmws", &[&[A::U(0), A::R(1)], &[A::U(1), A::R(0)]]),
        (
            "MP+mfences",
            &[&[A::W(0), A::F, A::W(1)], &[A::R(1), A::F, A::R(0)]],
        ),
        (
            "R+mfences",
            &[&[A::W(0), A::F, A::W(1)], &[A::W(1), A::F, A::R(0)]],
        ),
        (
            "LB+mfences",
            &[&[A::R(0), A::F, A::W(1)], &[A::R(1), A::F, A::W(0)]],
        ),
        // ---- Three-thread shapes ----
        (
            "WRC",
            &[&[A::W(0)], &[A::R(0), A::W(1)], &[A::R(1), A::R(0)]],
        ),
        (
            "WRC+mfences",
            &[
                &[A::W(0)],
                &[A::R(0), A::F, A::W(1)],
                &[A::R(1), A::F, A::R(0)],
            ],
        ),
        (
            "ISA2",
            &[
                &[A::W(0), A::W(1)],
                &[A::R(1), A::W(2)],
                &[A::R(2), A::R(0)],
            ],
        ),
        (
            "RWC",
            &[&[A::W(0)], &[A::R(0), A::R(1)], &[A::W(1), A::R(0)]],
        ),
        (
            "WWC",
            &[&[A::W(0)], &[A::R(0), A::W(1)], &[A::W(1), A::W(0)]],
        ),
        (
            "W+RWC",
            &[
                &[A::W(0), A::W(2)],
                &[A::R(2), A::R(1)],
                &[A::W(1), A::R(0)],
            ],
        ),
        (
            "Z6.3",
            &[
                &[A::W(0), A::W(1)],
                &[A::W(1), A::W(2)],
                &[A::W(2), A::R(0)],
            ],
        ),
        (
            "3.2W",
            &[
                &[A::W(0), A::W(1)],
                &[A::W(1), A::W(2)],
                &[A::W(2), A::W(0)],
            ],
        ),
        (
            "3.SB",
            &[
                &[A::W(0), A::R(1)],
                &[A::W(1), A::R(2)],
                &[A::W(2), A::R(0)],
            ],
        ),
        (
            "3.LB",
            &[
                &[A::R(0), A::W(1)],
                &[A::R(1), A::W(2)],
                &[A::R(2), A::W(0)],
            ],
        ),
        // ---- Four-thread shapes ----
        (
            "IRIW",
            &[
                &[A::W(0)],
                &[A::W(1)],
                &[A::R(0), A::R(1)],
                &[A::R(1), A::R(0)],
            ],
        ),
        (
            "IRIW+mfences",
            &[
                &[A::W(0)],
                &[A::W(1)],
                &[A::R(0), A::F, A::R(1)],
                &[A::R(1), A::F, A::R(0)],
            ],
        ),
        (
            "IRRWIW",
            &[
                &[A::W(0)],
                &[A::R(0), A::R(1)],
                &[A::W(1)],
                &[A::R(1), A::W(0)],
            ],
        ),
    ];
    let mut suite: Vec<LitmusTest> = shapes
        .iter()
        .map(|&(name, threads)| build(name, threads, l))
        .collect();

    // ---- Systematic two-thread enumeration (diy-style) ----
    // Every combination of {R, W} × {R, W} per thread over two locations,
    // skipping shapes already present under a classic name.
    let choices = [A::R(0), A::W(0)];
    let choices2 = [A::R(1), A::W(1)];
    for &a0 in &choices {
        for &a1 in &choices2 {
            for &b1 in &choices2 {
                for &b0 in &choices {
                    let name = format!("2T-{}{}-{}{}", short(a0), short(a1), short(b1), short(b0));
                    suite.push(build(&name, &[&[a0, a1], &[b1, b0]], l));
                }
            }
        }
    }

    suite
}

fn short(a: A) -> String {
    match a {
        A::R(l) => format!("R{l}"),
        A::D(l) => format!("D{l}"),
        A::W(l) => format!("W{l}"),
        A::Wd(l) => format!("Wd{l}"),
        A::Wc(l) => format!("Wc{l}"),
        A::U(l) => format!("U{l}"),
        A::F => "F".to_string(),
        A::Fl(k) => format!("F[{k}]"),
    }
}

/// The classic weak-model litmus shapes (`MP`, `LB`, `SB`, `WRC`, `IRIW`,
/// `S`), spelled out access by access and parameterized by the fence flavour
/// used at the "strong" sites and the dependency flavour carried by the
/// dependent writes.  The corpus conformance tests assert the enumerator
/// regenerates all seventeen of them (matched by canonical name, with
/// identical thread structure).
///
/// Dependent *reads* always use address dependencies (the only read-borne
/// flavour); `write_dep` selects between data and control dependencies for
/// the dependent writes (`LB+deps`, `WRC`, `S`).  Names follow the herd
/// convention, with the fence's display name inline (e.g. `MP+lwsync+addr`).
///
/// # Panics
///
/// Panics if fewer than three locations are supplied, if `fence` has no
/// operation form ([`FenceKind::StoreStore`] / [`FenceKind::LoadLoad`] exist
/// only as checker-level event kinds), or if `write_dep` is
/// [`DepKind::Addr`] (address dependencies are read-borne; pick `Data` or
/// `Ctrl` for the dependent writes).
pub fn handwritten_weak_suite_flavoured(
    locations: &[Address],
    fence: FenceKind,
    write_dep: DepKind,
) -> Vec<LitmusTest> {
    assert!(
        locations.len() >= 3,
        "litmus suite needs at least 3 locations"
    );
    assert!(
        OpKind::for_fence(fence).is_some(),
        "fence flavour {fence} has no test-operation form"
    );
    assert!(
        write_dep != DepKind::Addr,
        "write-borne dependencies are data or ctrl"
    );
    let l = locations;
    let f = A::Fl(fence);
    let wd = |loc: usize| A::dep_write(write_dep, loc);
    let fname = fence.to_string();
    let dname = write_dep.to_string();
    let named = |shape: &str, parts: &[&str]| -> String {
        let mut name = shape.to_string();
        for part in parts {
            name.push('+');
            name.push_str(part);
        }
        name
    };

    let shapes: Vec<(String, Vec<Vec<A>>)> = vec![
        // ---- Message passing ----
        (
            "MP".into(),
            vec![vec![A::W(0), A::W(1)], vec![A::R(1), A::R(0)]],
        ),
        (
            named("MP", &["addr"]),
            vec![vec![A::W(0), A::W(1)], vec![A::R(1), A::D(0)]],
        ),
        (
            named("MP", &[&fname, "addr"]),
            vec![vec![A::W(0), f, A::W(1)], vec![A::R(1), A::D(0)]],
        ),
        (
            named("MP", &[&format!("{fname}s")]),
            vec![vec![A::W(0), f, A::W(1)], vec![A::R(1), f, A::R(0)]],
        ),
        // ---- Load buffering ----
        (
            "LB".into(),
            vec![vec![A::R(0), A::W(1)], vec![A::R(1), A::W(0)]],
        ),
        (
            named("LB", &[&format!("{dname}s")]),
            vec![vec![A::R(0), wd(1)], vec![A::R(1), wd(0)]],
        ),
        (
            named("LB", &[&format!("{fname}s")]),
            vec![vec![A::R(0), f, A::W(1)], vec![A::R(1), f, A::W(0)]],
        ),
        // ---- Store buffering ----
        (
            "SB".into(),
            vec![vec![A::W(0), A::R(1)], vec![A::W(1), A::R(0)]],
        ),
        (
            named("SB", &[&format!("{fname}s")]),
            vec![vec![A::W(0), f, A::R(1)], vec![A::W(1), f, A::R(0)]],
        ),
        // ---- Write-to-read causality ----
        (
            "WRC".into(),
            vec![
                vec![A::W(0)],
                vec![A::R(0), A::W(1)],
                vec![A::R(1), A::R(0)],
            ],
        ),
        (
            named("WRC", &[&dname, "addr"]),
            vec![vec![A::W(0)], vec![A::R(0), wd(1)], vec![A::R(1), A::D(0)]],
        ),
        (
            named("WRC", &[&fname, "addr"]),
            vec![
                vec![A::W(0)],
                vec![A::R(0), f, A::W(1)],
                vec![A::R(1), A::D(0)],
            ],
        ),
        // ---- Independent reads of independent writes ----
        (
            "IRIW".into(),
            vec![
                vec![A::W(0)],
                vec![A::W(1)],
                vec![A::R(0), A::R(1)],
                vec![A::R(1), A::R(0)],
            ],
        ),
        (
            named("IRIW", &["addrs"]),
            vec![
                vec![A::W(0)],
                vec![A::W(1)],
                vec![A::R(0), A::D(1)],
                vec![A::R(1), A::D(0)],
            ],
        ),
        (
            named("IRIW", &[&format!("{fname}s")]),
            vec![
                vec![A::W(0)],
                vec![A::W(1)],
                vec![A::R(0), f, A::R(1)],
                vec![A::R(1), f, A::R(0)],
            ],
        ),
        // ---- Store-to-read causality (S) ----
        (
            "S".into(),
            vec![vec![A::W(0), A::W(1)], vec![A::R(1), A::W(0)]],
        ),
        (
            named("S", &[&fname, &dname]),
            vec![vec![A::W(0), f, A::W(1)], vec![A::R(1), wd(0)]],
        ),
    ];

    shapes
        .into_iter()
        .map(|(name, threads)| {
            let views: Vec<&[A]> = threads.iter().map(|t| t.as_slice()).collect();
            build(&name, &views, l)
        })
        .collect()
}

/// Mixed-flavour message passing: a full fence on the writer side and an
/// acquire fence on the reader side (`MP+mfence+acq`).
///
/// This is the shape that distinguishes an acquire fence that flushes the
/// load queue from one that does not (the `Fence+no-acquire` injected bug):
/// the writer's cumulative fence orders the data before the flag everywhere,
/// so a stale data read can only come from the reader's loads performing out
/// of order *through* the acquire fence.  Only models that give acquire
/// fences ordering semantics (the ARM-ish one) forbid the weak outcome.
///
/// # Panics
///
/// Panics if fewer than two locations are supplied.
pub fn acquire_suite(locations: &[Address]) -> Vec<LitmusTest> {
    assert!(
        locations.len() >= 2,
        "acquire suite needs at least 2 locations"
    );
    vec![build(
        "MP+mfence+acq",
        &[
            &[A::W(0), A::Fl(FenceKind::Full), A::W(1)],
            &[A::R(1), A::Fl(FenceKind::Acquire), A::R(0)],
        ],
        locations,
    )]
}

/// The fence/dependency flavours a relaxed model's suite instantiates the
/// weak shapes with (empty for the strong models).
pub fn model_flavours(model: ModelKind) -> &'static [(FenceKind, DepKind)] {
    match model {
        ModelKind::Sc | ModelKind::Tso => &[],
        ModelKind::Armish => &[
            (FenceKind::Full, DepKind::Data),
            (FenceKind::Release, DepKind::Ctrl),
        ],
        ModelKind::Powerish => &[
            (FenceKind::Full, DepKind::Data),
            (FenceKind::LightweightSync, DepKind::Data),
        ],
        ModelKind::Rmo => &[
            (FenceKind::Full, DepKind::Data),
            (FenceKind::Full, DepKind::Ctrl),
        ],
    }
}

/// The single-location coherence anchors (`CoRR`, `CoWW`, `CoRW`, `CoWR`).
///
/// These are the cycles of `po-loc ∪ com` — outside the critical-cycle
/// vocabulary (their communication edges can stay inside one thread), but
/// forbidden under *every* model by the sc-per-location axiom, so they anchor
/// the enumerated suites: any corpus family starts with them.
///
/// # Panics
///
/// Panics if no location is supplied.
pub fn coherence_suite(locations: &[Address]) -> Vec<LitmusTest> {
    assert!(!locations.is_empty(), "coherence suite needs a location");
    let l = locations;
    vec![
        build("CoRR", &[&[A::W(0)], &[A::R(0), A::R(0)]], l),
        build("CoWW", &[&[A::W(0), A::W(0)]], l),
        build("CoRW", &[&[A::R(0), A::W(0)], &[A::W(0)]], l),
        build("CoWR", &[&[A::W(0), A::R(0)], &[A::W(0)]], l),
    ]
}

/// [`suite_for_bounded`] behind a shared per-(model, bounds, locations)
/// cache: campaign samples re-create their litmus test sources with
/// identical parameters, and lowering the whole corpus (~2000 tests at the
/// default bound) per sample would dominate small-budget start-up.
pub fn shared_suite_for_bounded(
    model: ModelKind,
    locations: &[Address],
    bounds: &EnumerationBounds,
) -> std::sync::Arc<Vec<LitmusTest>> {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex, OnceLock};
    type Key = (ModelKind, EnumerationBounds, Vec<Address>);
    static CACHE: OnceLock<Mutex<BTreeMap<Key, Arc<Vec<LitmusTest>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = (model, bounds.clone(), locations.to_vec());
    let mut cache = cache.lock().expect("suite cache lock");
    if let Some(hit) = cache.get(&key) {
        return Arc::clone(hit);
    }
    let suite = Arc::new(suite_for_bounded(model, locations, bounds));
    cache.insert(key, Arc::clone(&suite));
    suite
}

/// The litmus corpus for a target model over the given locations: the
/// coherence anchors followed by the *entire enumerated corpus* at `bounds`
/// (a spec's `"litmus": {"Enumerated": …}`; the default bound is the
/// default corpus), with the cycles whose weak outcome the model
/// **forbids** first.
///
/// A campaign's test-run budget may be far smaller than the corpus, and the
/// forbidden cycles are the discriminating ones — the shapes a bug in the
/// model's ordering machinery hides behind — so the diy round-robin reaches
/// them before the architecturally-allowed remainder.
///
/// Ordering is deterministic: coherence anchors, then the model-forbidden
/// cycles, then the allowed ones; within each group the corpus order (thread
/// count, edge count, flavour count, name) puts small plain shapes first.
pub fn suite_for_bounded(
    model: ModelKind,
    locations: &[Address],
    bounds: &EnumerationBounds,
) -> Vec<LitmusTest> {
    let corpus = enumerate::enumerate(bounds);
    // Cycles at larger bounds may use more locations than the caller
    // provides; extend with line-separated addresses past the last one.
    let mut locs = locations.to_vec();
    let needed = corpus
        .iter()
        .map(|t| t.cycle.num_locations())
        .max()
        .unwrap_or(0);
    let top = locs.iter().map(|a| a.0).max().unwrap_or(0x10_0000);
    for extra in 0..needed.saturating_sub(locs.len()) {
        locs.push(Address(top + 0x40 * (extra as u64 + 1)));
    }

    let mut suite = coherence_suite(&locs);
    let (forbidden, allowed): (Vec<_>, Vec<_>) =
        corpus.iter().partition(|t| t.forbidden_under(model));
    suite.extend(forbidden.iter().map(|t| t.litmus(&locs)));
    suite.extend(allowed.iter().map(|t| t.litmus(&locs)));
    dedup_by_name(suite)
}

/// The original hand-picked corpus (`"litmus": "Handpicked"`): the x86-TSO
/// suite for the strong models, extended with the model's natural weak-shape
/// flavours (see [`model_flavours`]) for the relaxed ones, weak shapes first.
pub fn handpicked_suite_for(model: ModelKind, locations: &[Address]) -> Vec<LitmusTest> {
    let mut suite = Vec::new();
    for &(fence, dep) in model_flavours(model) {
        suite.extend(handwritten_weak_suite_flavoured(locations, fence, dep));
    }
    if model == ModelKind::Armish {
        // The only model with acquire-fence semantics also tests them.
        suite.extend(acquire_suite(locations));
    }
    suite.extend(x86_tso_suite(locations));
    dedup_by_name(suite)
}

/// Removes tests whose name already appeared earlier in the list.
fn dedup_by_name(suite: Vec<LitmusTest>) -> Vec<LitmusTest> {
    let mut seen = std::collections::BTreeSet::new();
    suite
        .into_iter()
        .filter(|t| seen.insert(t.name.clone()))
        .collect()
}

/// Repeats a test's per-thread programs `times` times (concatenation).
///
/// The diy litmus runner executes each test body in a tight loop (its `-s`
/// size parameter is in the thousands); repeating the body within one test
/// reproduces that behaviour: consecutive instances of the shape overlap in
/// the pipeline and memory system, which is what gives the short shapes a
/// realistic chance of hitting a timing window.
pub fn repeat_test(test: &Test, times: usize) -> Test {
    let times = times.max(1);
    let mut genes = Vec::with_capacity(test.len() * times);
    for _ in 0..times {
        genes.extend_from_slice(test.genes());
    }
    Test::new(genes, test.num_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three line-separated addresses for the suites.
    const LOCATIONS: [Address; 3] = [Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)];

    #[test]
    fn suite_has_at_least_38_tests() {
        let suite = x86_tso_suite(&LOCATIONS);
        assert!(suite.len() >= 38, "only {} litmus tests", suite.len());
    }

    #[test]
    fn classic_shapes_are_present_and_well_formed() {
        let suite = x86_tso_suite(&LOCATIONS);
        for name in ["SB", "MP", "LB", "IRIW", "WRC", "2+2W", "SB+mfences"] {
            let t = suite
                .iter()
                .find(|t| t.name == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(t.test.len() >= 2);
            assert!(t.test.num_threads() >= 1);
        }
    }

    #[test]
    fn mp_shape_has_expected_structure() {
        let suite = x86_tso_suite(&LOCATIONS);
        let mp = suite.iter().find(|t| t.name == "MP").unwrap();
        assert_eq!(mp.test.num_threads(), 2);
        let t0 = mp.test.thread_ops(0);
        let t1 = mp.test.thread_ops(1);
        assert_eq!(t0.len(), 2);
        assert!(t0.iter().all(|op| op.kind == OpKind::Write));
        assert_eq!(t1.len(), 2);
        assert!(t1.iter().all(|op| op.kind == OpKind::Read));
        // Reads in the opposite order of the writes (flag first).
        assert_eq!(t1[0].addr, t0[1].addr);
        assert_eq!(t1[1].addr, t0[0].addr);
    }

    #[test]
    fn iriw_uses_four_threads() {
        let suite = x86_tso_suite(&LOCATIONS);
        let iriw = suite.iter().find(|t| t.name == "IRIW").unwrap();
        assert_eq!(iriw.test.num_threads(), 4);
        assert_eq!(iriw.test.ops_per_thread(), vec![1, 1, 2, 2]);
    }

    #[test]
    fn fence_variants_contain_fences() {
        let suite = x86_tso_suite(&LOCATIONS);
        let fenced = suite.iter().find(|t| t.name == "MP+mfences").unwrap();
        assert!(fenced
            .test
            .genes()
            .iter()
            .any(|g| g.op.kind == OpKind::Fence));
        let rmw = suite.iter().find(|t| t.name == "SB+rmws").unwrap();
        assert!(rmw
            .test
            .genes()
            .iter()
            .any(|g| g.op.kind == OpKind::ReadModifyWrite));
    }

    #[test]
    fn suite_names_are_unique() {
        let suite = x86_tso_suite(&LOCATIONS);
        let mut names: Vec<&str> = suite.iter().map(|t| t.name.as_str()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate litmus names");
    }

    #[test]
    #[should_panic(expected = "at least 3 locations")]
    fn too_few_locations_rejected() {
        x86_tso_suite(&[Address(0x100)]);
    }

    #[test]
    fn repeat_test_concatenates_thread_programs() {
        let suite = x86_tso_suite(&LOCATIONS);
        let mp = suite.iter().find(|t| t.name == "MP").unwrap();
        let repeated = repeat_test(&mp.test, 5);
        assert_eq!(repeated.len(), mp.test.len() * 5);
        assert_eq!(repeated.num_threads(), mp.test.num_threads());
        assert_eq!(
            repeated.thread_ops(0).len(),
            mp.test.thread_ops(0).len() * 5
        );
        // Repeating once (or zero times) is the identity.
        assert_eq!(repeat_test(&mp.test, 1).genes(), mp.test.genes());
        assert_eq!(repeat_test(&mp.test, 0).genes(), mp.test.genes());
    }

    #[test]
    fn dependent_variants_carry_dependency_ops() {
        let suite = default_bound_suite(ModelKind::Powerish);
        let mp_dep = suite.iter().find(|t| t.name == "MP+addr").unwrap();
        assert!(mp_dep
            .test
            .genes()
            .iter()
            .any(|g| g.op.kind == OpKind::ReadAddrDp));
        let lb_dep = suite.iter().find(|t| t.name == "LB+datas").unwrap();
        assert_eq!(
            lb_dep
                .test
                .genes()
                .iter()
                .filter(|g| g.op.kind == OpKind::WriteDataDp)
                .count(),
            2
        );
        let mp_lw = suite.iter().find(|t| t.name == "MP+lwsync+addr").unwrap();
        assert!(mp_lw
            .test
            .genes()
            .iter()
            .any(|g| g.op.kind == OpKind::FenceLw));
        let lb_ctrl = suite.iter().find(|t| t.name == "LB+ctrls").unwrap();
        assert!(lb_ctrl
            .test
            .genes()
            .iter()
            .any(|g| g.op.kind == OpKind::WriteCtrlDp));
    }

    #[test]
    #[should_panic(expected = "no test-operation form")]
    fn weak_suite_rejects_event_only_fence_flavours() {
        let locs = [Address(0x1000), Address(0x2000), Address(0x3000)];
        handwritten_weak_suite_flavoured(&locs, FenceKind::StoreStore, DepKind::Data);
    }

    #[test]
    #[should_panic(expected = "data or ctrl")]
    fn weak_suite_rejects_addr_write_deps() {
        let locs = [Address(0x1000), Address(0x2000), Address(0x3000)];
        handwritten_weak_suite_flavoured(&locs, FenceKind::Full, DepKind::Addr);
    }

    #[test]
    fn per_model_default_suites_cover_the_corpus_forbidden_first() {
        use crate::enumerate::{enumerate, EnumerationBounds};
        let corpus_len = enumerate(&EnumerationBounds::default()).len();
        for model in ModelKind::ALL {
            let suite = default_bound_suite(model);
            // Coherence anchors plus the whole enumerated corpus.
            assert_eq!(suite.len(), corpus_len + 4, "{model} suite size");
            let mut names: Vec<&str> = suite.iter().map(|t| t.name.as_str()).collect();
            let before = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), before, "{model} suite has duplicate names");
            assert!(suite.iter().any(|t| t.name == "MP+mfence+addr"));
            assert_eq!(suite[0].name, "CoRR", "coherence anchors lead the suite");
        }
        // Forbidden-first ordering: the first post-anchor tests of a relaxed
        // campaign exercise that model's critical cycles (`LB+datas`-style
        // shapes sit inside any realistic test-run budget), while the plain
        // TSO-only shapes front the TSO suite.
        let armish = default_bound_suite(ModelKind::Armish);
        let pos = |suite: &[LitmusTest], name: &str| {
            suite
                .iter()
                .position(|t| t.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert!(
            pos(&armish, "LB+datas") < 40,
            "LB+datas out of budget reach"
        );
        assert!(pos(&armish, "MP+mfence+acq") < 40);
        assert!(
            pos(&armish, "LB+datas") < pos(&armish, "MP"),
            "allowed MP sorts later"
        );
        let tso = default_bound_suite(ModelKind::Tso);
        assert!(pos(&tso, "MP") < 10, "plain MP fronts the TSO suite");
        assert!(
            pos(&tso, "SB") > pos(&tso, "MP"),
            "TSO-allowed SB sorts later"
        );
        // The Power and ARM flavours stay reachable.
        assert!(default_bound_suite(ModelKind::Powerish)
            .iter()
            .any(|t| t.name == "SB+lwsyncs"));
        assert!(default_bound_suite(ModelKind::Armish)
            .iter()
            .any(|t| t.name == "MP+rel+addr"));
    }

    #[test]
    fn handpicked_suites_keep_the_original_composition() {
        let strong = handpicked_suite_for(ModelKind::Tso, &locs3());
        assert_eq!(strong.len(), x86_tso_suite(&locs3()).len());
        for model in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
            let suite = handpicked_suite_for(model, &locs3());
            assert!(
                suite.len() > strong.len(),
                "{model} handpicked suite should add weak shapes"
            );
            assert!(suite.iter().any(|t| t.name == "MP+mfence+addr"));
        }
        assert!(handpicked_suite_for(ModelKind::Armish, &locs3())
            .iter()
            .any(|t| t.name == "MP+rel+addr"));
    }

    fn locs3() -> [Address; 3] {
        [Address(0x1000), Address(0x2000), Address(0x3000)]
    }

    /// A model's campaign suite over the default enumeration bound.
    fn default_bound_suite(model: ModelKind) -> Vec<LitmusTest> {
        suite_for_bounded(model, &locs3(), &EnumerationBounds::default())
    }

    #[test]
    fn coherence_suite_is_the_sc_per_location_family() {
        let suite = coherence_suite(&locs3());
        let names: Vec<&str> = suite.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["CoRR", "CoWW", "CoRW", "CoWR"]);
        for t in &suite {
            // Single location throughout.
            assert_eq!(t.test.addresses().len(), 1, "{}", t.name);
        }
    }

    #[test]
    fn addresses_come_from_the_provided_locations() {
        let locs = [Address(0x1000), Address(0x2000), Address(0x3000)];
        let suite = x86_tso_suite(&locs);
        for t in &suite {
            for g in t.test.genes() {
                if g.op.is_memop() {
                    assert!(locs.contains(&g.op.addr), "{} uses {}", t.name, g.op.addr);
                }
            }
        }
    }
}
