//! `mcversi-check`: conformance-check black-box trace files.
//!
//! Parses version-1 trace files (see the `mcversi_conformance::trace` wire
//! format), lowers them into candidate executions, infers the per-location
//! coherence order from the observed reads-from and final state, and checks
//! each execution: the polynomial-time vector-clock pass first, the axiomatic
//! checker — the one every campaign runs — when that pass reports a
//! violation (for the authoritative witness) or abstains.
//!
//! ```text
//! mcversi-check [--json] [--model <name>] <file...>
//! ```
//!
//! `-` reads a trace from stdin.  `--model` overrides the trace's own
//! `model` directive (default when neither is present: TSO).  `--json`
//! emits one JSON object per input file (JSONL) instead of prose.
//!
//! Exit status: `0` when every trace conforms, `1` when at least one trace
//! violates its model, `2` on usage, parse or I/O errors, `3` when at least
//! one verdict is undecided (the observations underdetermine the coherence
//! order).  Errors dominate violations dominate undecided.

use mcversi_conformance::{check_lowered, parse, AbstainReason, VcVerdict};
use mcversi_mcm::checker::Verdict;
use mcversi_mcm::{Checker, ModelKind};
use serde::Serialize;
use std::io::Read;
use std::process::ExitCode;

/// One trace's outcome, as serialized in `--json` mode.
#[derive(Debug, Serialize)]
struct Report {
    /// Input file name (`-` for stdin).
    file: String,
    /// The model the trace was checked against.
    model: String,
    /// `valid`, `violation` or `undecided`.
    verdict: String,
    /// The violated axiom, when `verdict` is `violation`.
    axiom: Option<String>,
    /// The witness cycle's events, when one exists.
    witness: Vec<String>,
    /// Human-readable detail (undecided reason, fallback notes).
    detail: Option<String>,
    /// Whether the axiomatic checker ran (`false` = the first pass or the
    /// coherence inference alone decided).
    checker_ran: bool,
}

/// A verdict's contribution to the process exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Valid,
    Undecided,
    Violation,
    Error,
}

impl Outcome {
    fn exit_code(self) -> ExitCode {
        match self {
            Outcome::Valid => ExitCode::SUCCESS,
            Outcome::Violation => ExitCode::from(1),
            Outcome::Error => ExitCode::from(2),
            Outcome::Undecided => ExitCode::from(3),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcversi-check [--json] [--model <sc|tso|armish|powerish|rmo>] <file...>\n\
         \x20  - reads a trace from stdin; exit 0 valid, 1 violation, 2 error, 3 undecided"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut model_override: Option<ModelKind> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--model" => {
                let Some(model) = args.next().as_deref().and_then(ModelKind::parse) else {
                    eprintln!("mcversi-check: --model needs a model name");
                    return usage();
                };
                model_override = Some(model);
            }
            "--help" | "-h" => return usage(),
            other if other.starts_with("--") => {
                eprintln!("mcversi-check: unknown option {other:?}");
                return usage();
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage();
    }

    let mut worst = Outcome::Valid;
    for file in &files {
        let outcome = match read_input(file) {
            Ok(text) => check_one(file, &text, model_override, json),
            Err(e) => {
                eprintln!("mcversi-check: {file}: {e}");
                Outcome::Error
            }
        };
        worst = worst.max(outcome);
    }
    worst.exit_code()
}

fn read_input(file: &str) -> Result<String, std::io::Error> {
    if file == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        std::fs::read_to_string(file)
    }
}

/// Parses, lowers and checks one trace; prints its report.
fn check_one(file: &str, text: &str, model_override: Option<ModelKind>, json: bool) -> Outcome {
    let program = match parse(text) {
        Ok(program) => program,
        Err(e) => {
            eprintln!("mcversi-check: {file}: {e}");
            return Outcome::Error;
        }
    };
    let model = model_override.or(program.model).unwrap_or(ModelKind::Tso);
    let lowered = match program.lower() {
        Ok(lowered) => lowered,
        Err(e) => {
            eprintln!("mcversi-check: {file}: {e}");
            return Outcome::Error;
        }
    };

    // The vector-clock front half always runs: it owns coherence inference,
    // and its verdict is final wherever no complete execution exists.
    let (vc_verdict, exec) = check_lowered(&lowered, model);
    let mut report = Report {
        file: file.to_string(),
        model: model.name().to_string(),
        verdict: "undecided".to_string(),
        axiom: None,
        witness: Vec::new(),
        detail: None,
        checker_ran: false,
    };
    let outcome = match (&exec, &vc_verdict) {
        (None, _) => settle_without_execution(&vc_verdict, &mut report),
        (Some(_), VcVerdict::Valid) => {
            report.verdict = "valid".to_string();
            Outcome::Valid
        }
        // Violation: rerun axiomatically for the authoritative witness.
        // Abstain: the first pass cannot decide this model/shape.
        (Some(exec), VcVerdict::Violation(_) | VcVerdict::Abstain(_)) => {
            report.detail = Some(format!("vc first pass: {vc_verdict}"));
            axiomatic(exec, model, &mut report)
        }
    };
    if json {
        println!(
            "{}",
            serde_json::to_string(&report).expect("reports serialize")
        );
    } else {
        let axiom = report
            .axiom
            .as_deref()
            .map(|a| format!(" ({a})"))
            .unwrap_or_default();
        let detail = report
            .detail
            .as_deref()
            .map(|d| format!(" — {d}"))
            .unwrap_or_default();
        println!(
            "{file}: {} under {}{axiom}{detail}",
            report.verdict, report.model
        );
    }
    outcome
}

/// Settles a verdict the coherence inference produced without a complete
/// execution: contradictions and final-state mismatches are violations; an
/// underdetermined order is undecided (there is no execution the axiomatic
/// checker could refute).
fn settle_without_execution(vc_verdict: &VcVerdict, report: &mut Report) -> Outcome {
    match vc_verdict {
        VcVerdict::Violation(w) => {
            report.verdict = "violation".to_string();
            report.axiom = Some(w.axiom.to_string());
            report.witness = w.cycle.iter().map(|e| e.to_string()).collect();
            Outcome::Violation
        }
        VcVerdict::Abstain(reason) => {
            report.detail = Some(reason.to_string());
            match reason {
                AbstainReason::Malformed(_) => Outcome::Error,
                _ => Outcome::Undecided,
            }
        }
        VcVerdict::Valid => {
            report.verdict = "valid".to_string();
            Outcome::Valid
        }
    }
}

/// Runs the axiomatic checker and fills the report from its verdict.
fn axiomatic(
    exec: &mcversi_mcm::CandidateExecution,
    model: ModelKind,
    report: &mut Report,
) -> Outcome {
    report.checker_ran = true;
    match Checker::new(model.instance()).try_check(exec) {
        Ok(Verdict::Valid) => {
            report.verdict = "valid".to_string();
            Outcome::Valid
        }
        Ok(Verdict::Invalid(v)) => {
            report.verdict = "violation".to_string();
            report.axiom = Some(v.axiom.clone());
            report.witness = v.witness.iter().map(|e| e.to_string()).collect();
            Outcome::Violation
        }
        Err(e) => {
            report.detail = Some(format!("malformed execution: {e:?}"));
            Outcome::Error
        }
    }
}
