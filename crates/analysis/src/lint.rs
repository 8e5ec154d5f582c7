//! The lints: static checks over [`Dataflow`] facts with machine-readable
//! diagnostics.
//!
//! Each lint inspects one program's dataflow and emits [`Diagnostic`]s with
//! a fixed [`Severity`].  Six lints run, in a fixed reporting order;
//! [`run_lints`] runs them all.  Diagnostics serialize to JSON (via the
//! vendored serde) so the `mcversi-lint` binary can feed CI gates and
//! external tooling.
//!
//! Every lint is *conservative on the enumerated corpus*: a program lowered
//! from a valid critical cycle triggers none of them (the corpus-wide CI
//! gate runs `mcversi-lint` over `enumerated:2x4` expecting zero
//! error-severity diagnostics, and the test suite pins each lint on minimal
//! positive/negative programs).

use crate::classify::{classify, ClassifyBounds};
use crate::dataflow::Dataflow;
use mcversi_sim::TestProgram;
use mcversi_telemetry as telemetry;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Programs linted ([`run_lints`] calls).
static LINT_RUNS: telemetry::Counter = telemetry::Counter::new("analysis.lint.runs");
/// Diagnostics emitted across all lint runs.
static LINT_DIAGNOSTICS: telemetry::Counter = telemetry::Counter::new("analysis.lint.diagnostics");

/// How serious a diagnostic is.
///
/// `Error` means the test is statically incapable of its purpose (it cannot
/// exhibit any memory-model violation); `Warning` flags ops whose effect is
/// dead or degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// The op is dead, degraded or redundant; the test still works.
    Warning,
    /// The test cannot serve its purpose.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding of one lint, with an optional program location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Name of the emitting lint (kebab-case, stable).
    pub lint: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// Thread the finding is about, if location-specific.
    pub thread: Option<usize>,
    /// Op index within the thread, if location-specific.
    pub poi: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.thread, self.poi) {
            (Some(t), Some(p)) => {
                write!(
                    f,
                    "{}: [{}] t{}:{}: {}",
                    self.severity, self.lint, t, p, self.message
                )
            }
            _ => write!(f, "{}: [{}] {}", self.severity, self.lint, self.message),
        }
    }
}

/// A finding before its lint's name and severity are attached: thread, op
/// index within the thread, message.
type Finding = (Option<usize>, Option<u32>, String);

/// A lint's check: appends its findings on one program's dataflow.
type Check = fn(&Dataflow, &mut Vec<Finding>);

/// The lints in reporting order: stable kebab-case name (appears in
/// diagnostics and JSON output), the severity every finding carries, and
/// the check.
const LINTS: [(&str, Severity, Check); 6] = [
    ("no-conflict", Severity::Error, no_conflict),
    ("unreachable-exists", Severity::Warning, unreachable_exists),
    ("dead-value", Severity::Warning, dead_value),
    ("ineffective-fence", Severity::Warning, ineffective_fence),
    ("private-dep", Severity::Warning, private_dep),
    ("degraded-dep", Severity::Warning, degraded_dep),
];

/// `dead-value`: a read of a location no op of the program writes.  Such a
/// read can only ever observe the initial value — its result is a constant,
/// so the op contributes nothing to the test's discriminating power.
fn dead_value(df: &Dataflow, out: &mut Vec<Finding>) {
    for access in df.accesses() {
        if access.is_read() && !access.rmw && !df.is_written(access.addr) {
            out.push((
                Some(access.thread),
                Some(access.poi),
                format!(
                    "read of {} which no op writes: it always observes the initial value",
                    access.addr
                ),
            ));
        }
    }
}

/// `ineffective-fence`: a fence with no memory access on one side of it in
/// its thread (it orders nothing), or a fence shadowed by an adjacent
/// equal-or-stronger fence with no access in between.
fn ineffective_fence(df: &Dataflow, out: &mut Vec<Finding>) {
    for fence in df.fences() {
        let before = df.thread_accesses(fence.thread).any(|a| a.poi < fence.poi);
        let after = df.thread_accesses(fence.thread).any(|a| a.poi > fence.poi);
        if !before || !after {
            out.push((
                Some(fence.thread),
                Some(fence.poi),
                format!(
                    "{} fence with no memory access {} it in its thread orders nothing",
                    fence.kind,
                    if before { "after" } else { "before" }
                ),
            ));
            continue;
        }
        // Shadowing: an earlier fence of the same thread with no access
        // between them, of equal kind or a full fence, already orders
        // every pair this one could.
        let shadowed = df.fences().iter().any(|g| {
            g.thread == fence.thread
                && g.poi < fence.poi
                && (g.kind == fence.kind || g.kind == mcversi_mcm::FenceKind::Full)
                && !df
                    .thread_accesses(fence.thread)
                    .any(|a| a.poi > g.poi && a.poi < fence.poi)
        });
        if shadowed {
            out.push((
                Some(fence.thread),
                Some(fence.poi),
                format!(
                    "{} fence is shadowed by an adjacent equal-or-stronger fence",
                    fence.kind
                ),
            ));
        }
    }
}

/// `no-conflict`: no location is accessed by two threads with at least one
/// write.  Without a cross-thread conflict there is no communication edge,
/// hence no candidate cycle and no observable violation — the whole test is
/// wasted simulation time.
fn no_conflict(df: &Dataflow, out: &mut Vec<Finding>) {
    if df.conflict_addresses().is_empty() {
        out.push((
            None,
            None,
            "no cross-thread conflict: every location is thread-private or read-only, \
             so the test cannot exhibit a memory-model violation"
                .to_string(),
        ));
    }
}

/// `unreachable-exists`: the program has cross-thread conflicts but its
/// candidate critical-cycle set is empty — no weak outcome is reachable, so
/// the `exists` clause such a test would check for can never be satisfied.
fn unreachable_exists(df: &Dataflow, out: &mut Vec<Finding>) {
    if df.conflict_addresses().is_empty() {
        // `no-conflict` already reports the stronger finding.
        return;
    }
    let result = classify(df, &ClassifyBounds::default());
    if result.is_empty() && !result.truncated {
        out.push((
            None,
            None,
            "cross-thread conflicts exist but no candidate critical cycle: the weak \
             `exists` outcome is unreachable"
                .to_string(),
        ));
    }
}

/// `private-dep`: a dependency-carrying op whose own location no other
/// thread accesses.  The ordering the dependency preserves can never appear
/// in a communication edge, so it constrains nothing observable.
fn private_dep(df: &Dataflow, out: &mut Vec<Finding>) {
    for access in df.accesses() {
        if access.dep_kind.is_some() && df.accessors_of(access.addr).len() < 2 {
            out.push((
                Some(access.thread),
                Some(access.poi),
                format!(
                    "dependency-carrying op targets thread-private location {}: the \
                     preserved order is unobservable",
                    access.addr
                ),
            ));
        }
    }
}

/// `degraded-dep`: a dependency-carrying op with no prior load in its
/// thread.  The carried dependency has no source and the op degrades to a
/// plain access (the observer records no edge, the relaxed core does not
/// stall) — usually a sign the generator placed the op badly.
fn degraded_dep(df: &Dataflow, out: &mut Vec<Finding>) {
    for access in df.accesses() {
        if access.dep_kind.is_some() && access.dep_source.is_none() {
            out.push((
                Some(access.thread),
                Some(access.poi),
                "dependency-carrying op has no prior load in its thread: it degrades \
                 to a plain access"
                    .to_string(),
            ));
        }
    }
}

/// Analyzes `program` and runs every lint over it, in reporting order.
pub fn run_lints(program: &TestProgram) -> Vec<Diagnostic> {
    LINT_RUNS.incr();
    let df = Dataflow::new(program);
    let mut out = Vec::new();
    let mut findings = Vec::new();
    for (lint, severity, check) in LINTS {
        check(&df, &mut findings);
        out.extend(findings.drain(..).map(|(thread, poi, message)| Diagnostic {
            lint: lint.to_string(),
            severity,
            thread,
            poi,
            message,
        }));
    }
    LINT_DIAGNOSTICS.add(out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcversi_mcm::{Address, FenceKind};
    use mcversi_sim::{TestOp, TestProgram};

    fn x() -> Address {
        Address(0x100)
    }
    fn y() -> Address {
        Address(0x140)
    }
    fn z() -> Address {
        Address(0x180)
    }

    fn names(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.lint.as_str()).collect()
    }

    /// A clean MP-with-dependency program triggers nothing.
    #[test]
    fn clean_program_is_diagnostic_free() {
        let program = TestProgram::new(vec![
            vec![
                TestOp::write(x(), 1),
                TestOp::fence(),
                TestOp::write(y(), 2),
            ],
            vec![TestOp::read(y()), TestOp::read_addr_dp(x())],
        ]);
        assert!(run_lints(&program).is_empty());
    }

    #[test]
    fn dead_value_fires_on_never_written_reads_only() {
        let positive = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::read(z())],
            vec![TestOp::read(x())],
        ]);
        let diags = run_lints(&positive);
        assert!(names(&diags).contains(&"dead-value"));
        let dead: Vec<_> = diags.iter().filter(|d| d.lint == "dead-value").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].thread, dead[0].poi), (Some(0), Some(1)));
        assert_eq!(dead[0].severity, Severity::Warning);
        // Negative: an RMW write makes its own location written.
        let negative = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::rmw(z(), 2)],
            vec![TestOp::read(x()), TestOp::read(z())],
        ]);
        assert!(!names(&run_lints(&negative)).contains(&"dead-value"));
    }

    #[test]
    fn ineffective_fence_fires_on_one_sided_and_shadowed_fences() {
        // Trailing fence: nothing after it.
        let trailing = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::fence()],
            vec![TestOp::read(x())],
        ]);
        let diags = run_lints(&trailing);
        assert!(names(&diags).contains(&"ineffective-fence"));
        // Shadowed: two full fences with no access between them.
        let shadowed = TestProgram::new(vec![
            vec![
                TestOp::write(x(), 1),
                TestOp::fence(),
                TestOp::fence_of(FenceKind::Release),
                TestOp::write(y(), 2),
            ],
            vec![TestOp::read(y()), TestOp::read(x())],
        ]);
        let diags = run_lints(&shadowed);
        let fences: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == "ineffective-fence")
            .collect();
        assert_eq!(fences.len(), 1, "only the second fence is shadowed");
        assert_eq!(fences[0].poi, Some(2));
        // Negative: one fence between two accesses.
        let clean = TestProgram::new(vec![
            vec![
                TestOp::write(x(), 1),
                TestOp::fence(),
                TestOp::write(y(), 2),
            ],
            vec![TestOp::read(y()), TestOp::read(x())],
        ]);
        assert!(!names(&run_lints(&clean)).contains(&"ineffective-fence"));
    }

    #[test]
    fn no_conflict_is_an_error_and_suppresses_unreachable_exists() {
        let private = TestProgram::new(vec![
            vec![TestOp::write(x(), 1)],
            vec![TestOp::write(y(), 2)],
        ]);
        let diags = run_lints(&private);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].lint, "no-conflict");
        assert!(!names(&diags).contains(&"unreachable-exists"));
        // Negative: one shared written location.
        let shared = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::write(y(), 2)],
            vec![TestOp::read(y()), TestOp::read(x())],
        ]);
        assert!(!names(&run_lints(&shared)).contains(&"no-conflict"));
    }

    #[test]
    fn unreachable_exists_fires_on_cycle_free_conflicts() {
        // A single conflict location: communication edges exist but no
        // second location closes a cycle.
        let positive = TestProgram::new(vec![vec![TestOp::write(x(), 1)], vec![TestOp::read(x())]]);
        let diags = run_lints(&positive);
        assert!(names(&diags).contains(&"unreachable-exists"));
        // Negative: MP reaches its weak outcome.
        let mp = TestProgram::new(vec![
            vec![TestOp::write(x(), 1), TestOp::write(y(), 2)],
            vec![TestOp::read(y()), TestOp::read(x())],
        ]);
        assert!(!names(&run_lints(&mp)).contains(&"unreachable-exists"));
    }

    #[test]
    fn private_dep_fires_on_thread_private_targets() {
        let positive = TestProgram::new(vec![
            vec![TestOp::read(x()), TestOp::write_data_dp(z(), 1)],
            vec![TestOp::write(x(), 2), TestOp::read(z())],
        ]);
        // z is shared here; make it private instead.
        assert!(!names(&run_lints(&positive)).contains(&"private-dep"));
        let private = TestProgram::new(vec![
            vec![TestOp::read(x()), TestOp::write_data_dp(z(), 1)],
            vec![TestOp::write(x(), 2)],
        ]);
        let diags = run_lints(&private);
        let hits: Vec<_> = diags.iter().filter(|d| d.lint == "private-dep").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].thread, hits[0].poi), (Some(0), Some(1)));
    }

    #[test]
    fn degraded_dep_fires_on_sourceless_dependencies() {
        let positive = TestProgram::new(vec![
            vec![TestOp::write_ctrl_dp(x(), 1), TestOp::read(y())],
            vec![TestOp::read(x()), TestOp::write(y(), 2)],
        ]);
        let diags = run_lints(&positive);
        let hits: Vec<_> = diags.iter().filter(|d| d.lint == "degraded-dep").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].thread, hits[0].poi), (Some(0), Some(0)));
        // Negative: a load precedes the dependent op.
        let sourced = TestProgram::new(vec![
            vec![TestOp::read(y()), TestOp::write_ctrl_dp(x(), 1)],
            vec![TestOp::read(x()), TestOp::write(y(), 2)],
        ]);
        assert!(!names(&run_lints(&sourced)).contains(&"degraded-dep"));
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let program = TestProgram::new(vec![
            vec![TestOp::write(x(), 1)],
            vec![TestOp::write(y(), 2)],
        ]);
        let diags = run_lints(&program);
        let json = serde_json::to_string(&diags[0]).expect("diagnostics serialize");
        assert!(json.contains("\"no-conflict\""));
        assert!(json.contains("Error"));
        let display = diags[0].to_string();
        assert!(display.starts_with("error: [no-conflict]"));
    }
}
