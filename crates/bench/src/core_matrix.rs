//! Pinned (core strength × model) bug-detectability matrix.
//!
//! The companion of [`crate::matrix`]: where that module pins *checker*
//! verdicts on hand-built executions, this one pins what the whole
//! simulate-and-check flow detects when a directed test program is driven at
//! an injected bug under every combination of simulated core strength and
//! target model.  It is the end-to-end encoding of the paper's point extended
//! across the (model × core) plane:
//!
//! * the **correct design** is flagged exactly when the core is weaker than
//!   the model (strong core under SC; relaxed core under SC and TSO) and is
//!   clean under every model it was built for;
//! * every **dependency-ordering bug** ([`Bug::DEPENDENCY`]) is caught on the
//!   relaxed core by the models that give the violated ordering semantics,
//!   and is *invisible* on the strong core under every model — the strong
//!   pipeline's invalidation squash and in-order retirement mask the
//!   injection, which is precisely the implementation/model gap TriCheck
//!   describes;
//! * `Fence+no-acquire` is additionally invisible to POWERish/RMO even on the
//!   relaxed core, because only the ARM-ish model gives acquire fences
//!   ordering semantics: detectability is a property of the *pair*, not of
//!   the bug.
//!
//! The directed programs interleave several instances of the classic shapes
//! with cache flushes so every instance races through the memory system
//! rather than hitting in the L1 — the timing windows the short litmus forms
//! only hit after many more executions.

use mcversi_core::{ScenarioGrid, ScenarioSpec, TestRunner};
use mcversi_mcm::{Address, ModelKind};
use mcversi_sim::{Bug, BugConfig, CoreStrength};
use mcversi_testgen::{Gene, Op, OpKind, Test};

fn gene(pid: u32, kind: OpKind, addr: Address) -> Gene {
    Gene {
        pid,
        op: Op::new(kind, addr),
    }
}

/// `MP+mfence+<reader>`: writer publishes data then flag behind a full
/// fence; the reader picks the flag up through `reader_tail` (an
/// address-dependent load, or an acquire fence and a plain load).
///
/// The reader flushes the *flag* each instance (so every flag read races
/// through the memory system) but deliberately keeps the *data* line cached:
/// the stale data then sits in the reader's L1 as an instant hit — the
/// Peekaboo window.  The strong core squashes the hit when the writer's
/// invalidation arrives; the relaxed core keeps it, and only the
/// dependency/acquire stall stands between the stale value and the weak
/// outcome.
fn mp_mfence(reader_tail: &[OpKind], instances: usize) -> Test {
    let x = Address(0x10_0000);
    let y = Address(0x10_0040);
    let mut genes = Vec::new();
    for _ in 0..instances {
        genes.push(gene(0, OpKind::Write, x));
        genes.push(gene(0, OpKind::Fence, Address(0)));
        genes.push(gene(0, OpKind::Write, y));
        genes.push(gene(1, OpKind::Read, y));
        for &kind in reader_tail {
            let addr = match kind {
                OpKind::Read | OpKind::ReadAddrDp => x,
                _ => Address(0),
            };
            genes.push(gene(1, kind, addr));
        }
        genes.push(gene(1, OpKind::CacheFlush, y));
    }
    Test::new(genes, 2)
}

/// `LB+deps`: both threads load one location and then write the other
/// through a dependent store; each instance uses a fresh address pair so the
/// instances race independently.  The weak outcome (both loads observe the
/// other thread's store) is a causality cycle the relaxed models' no-thin-air
/// axiom forbids — reachable only when a dependent store commits before its
/// source load performs.
fn lb_dep(write_kind: OpKind, instances: usize) -> Test {
    let mut genes = Vec::new();
    for i in 0..instances as u64 {
        let x = Address(0x20_0000 + i * 0x80);
        let y = Address(0x20_0040 + i * 0x80);
        genes.push(gene(0, OpKind::Read, x));
        genes.push(gene(0, write_kind, y));
        genes.push(gene(1, OpKind::Read, y));
        genes.push(gene(1, write_kind, x));
    }
    Test::new(genes, 2)
}

/// The correct-design probe: overlapping store-buffering and message-passing
/// shapes.  SB catches any store buffer at all (strong and relaxed cores
/// violate SC); MP catches the relaxed core's load/store reordering under
/// TSO.
fn correct_design_probe() -> Test {
    let a = |i: u64| Address(0x30_0000 + i * 0x40);
    // SB: W x; R y || W y; R x.
    let mut genes = vec![
        gene(0, OpKind::Write, a(0)),
        gene(0, OpKind::Read, a(1)),
        gene(1, OpKind::Write, a(1)),
        gene(1, OpKind::Read, a(0)),
    ];
    // Overlapping MP chains: one writer stream, reversed reader.
    for i in 2..6 {
        genes.push(gene(0, OpKind::Write, a(i)));
    }
    for i in (2..6).rev() {
        genes.push(gene(1, OpKind::Read, a(i)));
    }
    for i in 0..6 {
        genes.push(gene(1, OpKind::CacheFlush, a(i)));
    }
    Test::new(genes, 2)
}

/// The directed programs used to probe a bug (or the correct design).
pub fn probe_programs(bug: Option<Bug>) -> Vec<Test> {
    match bug {
        None => vec![correct_design_probe()],
        Some(Bug::LqNoAddrDep) => vec![mp_mfence(&[OpKind::ReadAddrDp], 12)],
        Some(Bug::FenceNoAcquire) => vec![mp_mfence(&[OpKind::FenceAcquire, OpKind::Read], 12)],
        Some(Bug::SqNoDataDep) => vec![lb_dep(OpKind::WriteDataDp, 6)],
        Some(Bug::SqNoCtrlDep) => vec![lb_dep(OpKind::WriteCtrlDp, 6)],
        Some(other) => panic!("no directed probe for {other}"),
    }
}

/// The declarative description of one probe cell: the scaled-down system at
/// the given (core strength × model) coordinates, 3 executions per test-run.
pub fn probe_spec(bug: Option<Bug>, core: CoreStrength, model: ModelKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::small()
        .bug(bug)
        .model(model)
        .core_strength(core);
    spec.iterations = 3;
    spec.cores = 4;
    spec
}

/// Runs up to `runs` test-runs of the directed probe for `bug` on a system
/// with the given core strength, checking against `model`; returns `true` as
/// soon as any run reports a bug.
pub fn detect(
    bug: Option<Bug>,
    core: CoreStrength,
    model: ModelKind,
    runs: usize,
    seed: u64,
) -> bool {
    detect_cell(&probe_spec(bug, core, model).seed(seed), runs)
}

/// Runs the directed probe described by a [`ScenarioSpec`] cell (bug, core
/// strength, model and seed are all read from the spec).
pub fn detect_cell(cell: &ScenarioSpec, runs: usize) -> bool {
    let bugs = cell.bug.map(BugConfig::single).unwrap_or_default();
    let mut runner = TestRunner::new(cell.mcversi(), bugs);
    let programs = probe_programs(cell.bug);
    (0..runs).any(|i| {
        runner
            .run_test(&programs[i % programs.len()])
            .verdict
            .is_bug()
    })
}

/// One pinned row: a bug (or the correct design), the models probed, and the
/// expected detection outcome per (core strength, model).
#[derive(Debug)]
pub struct CoreMatrixRow {
    /// The injected bug, or `None` for the correct design.
    pub bug: Option<Bug>,
    /// The target models probed, one column each.
    pub models: &'static [ModelKind],
    /// Expected detection per model on the strong core.
    pub strong: &'static [bool],
    /// Expected detection per model on the relaxed core.
    pub relaxed: &'static [bool],
}

/// The pinned matrix.
///
/// The correct design is probed under every model; the dependency bugs are
/// probed under the three dependency-ordered models (their SC/TSO columns
/// would be dominated by the relaxed core's architectural weakness rather
/// than the injected bug).
pub fn core_matrix_rows() -> Vec<CoreMatrixRow> {
    use ModelKind::*;
    const WEAK: &[ModelKind] = &[Armish, Powerish, Rmo];
    vec![
        CoreMatrixRow {
            bug: None,
            models: &[Sc, Tso, Armish, Powerish, Rmo],
            strong: &[true, false, false, false, false],
            relaxed: &[true, true, false, false, false],
        },
        CoreMatrixRow {
            bug: Some(Bug::LqNoAddrDep),
            models: WEAK,
            strong: &[false, false, false],
            relaxed: &[true, true, true],
        },
        CoreMatrixRow {
            bug: Some(Bug::SqNoDataDep),
            models: WEAK,
            strong: &[false, false, false],
            relaxed: &[true, true, true],
        },
        CoreMatrixRow {
            bug: Some(Bug::SqNoCtrlDep),
            models: WEAK,
            strong: &[false, false, false],
            relaxed: &[true, true, true],
        },
        CoreMatrixRow {
            bug: Some(Bug::FenceNoAcquire),
            models: WEAK,
            strong: &[false, false, false],
            // Only the ARM-ish model gives acquire fences semantics, so only
            // it can see the bug: detectability is a (bug, model) pair
            // property.
            relaxed: &[true, false, false],
        },
    ]
}

/// The test-run budget of each cell of the pinned matrix.  On seeds 1–30 the
/// slowest expected detections (`SQ+no-data-dep` / `SQ+no-ctrl-dep` on the
/// relaxed core) take up to 28 runs, and the expected-quiet cells stay quiet
/// for the whole budget.
pub const PINNED_RUNS: usize = 48;

/// Runs every pinned cell and renders the matrix; returns
/// `(rendered table, mismatches)`.
///
/// `runs` bounds the test-run budget per cell (expected-found cells normally
/// stop after a handful).
pub fn run_core_matrix(runs: usize) -> (String, usize) {
    use std::fmt::Write as _;
    let rows = core_matrix_rows();
    let label = |bug: Option<Bug>| {
        bug.map_or_else(
            || "correct design".to_string(),
            |b| b.paper_name().to_string(),
        )
    };
    let name_w = rows
        .iter()
        .map(|r| label(r.bug).len())
        .max()
        .unwrap_or(8)
        .max("Bug".len());
    let mut out = String::new();
    let mut mismatches = 0usize;
    for core in CoreStrength::ALL {
        let _ = writeln!(out, "core: {core}");
        for row in &rows {
            let _ = write!(out, "  {:<name_w$}", label(row.bug));
            let expectations = match core {
                CoreStrength::Strong => row.strong,
                CoreStrength::Relaxed => row.relaxed,
            };
            // One row of the sweep = one single-axis grid over the row's
            // models at this core strength.
            let cells = ScenarioGrid::new(probe_spec(row.bug, core, row.models[0]))
                .models(row.models.iter().copied())
                .cells();
            for (i, probe) in cells.iter().enumerate() {
                let got = detect_cell(&probe.clone().seed(7 + i as u64), runs);
                let cell = match (got, got == expectations[i]) {
                    (true, true) => "found",
                    (false, true) => "quiet",
                    (true, false) => "found!?",
                    (false, false) => "quiet!?",
                };
                if got != expectations[i] {
                    mismatches += 1;
                }
                let _ = write!(out, "  {}:{cell:<8}", probe.model);
            }
            let _ = writeln!(out);
        }
    }
    (out, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end differential pin: every (bug × core × model) cell
    /// matches the expectation — each dependency bug is caught on the relaxed
    /// core under its models and masked everywhere on the strong core, and
    /// the correct design is flagged exactly when the core is weaker than
    /// the model.
    #[test]
    fn pinned_core_matrix_holds() {
        let (table, mismatches) = run_core_matrix(PINNED_RUNS);
        assert_eq!(mismatches, 0, "matrix:\n{table}");
        assert!(table.contains("LQ+no-addr-dep"));
    }

    /// The acceptance-criterion cell in isolation: `LQ+no-addr-dep` under
    /// ARMish is detected by the relaxed core and not by the strong one.
    #[test]
    fn addr_dep_bug_is_relaxed_core_only_under_armish() {
        assert!(detect(
            Some(Bug::LqNoAddrDep),
            CoreStrength::Relaxed,
            ModelKind::Armish,
            24,
            1,
        ));
        assert!(!detect(
            Some(Bug::LqNoAddrDep),
            CoreStrength::Strong,
            ModelKind::Armish,
            24,
            1,
        ));
    }
}
