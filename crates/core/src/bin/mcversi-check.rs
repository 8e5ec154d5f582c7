//! `mcversi-check`: conformance-check black-box trace files.
//!
//! Parses version-1 trace files (see the `mcversi_conformance::trace` wire
//! format), lowers them into candidate executions, infers the per-location
//! coherence order from the observed reads-from and final state, and checks
//! each completed execution with the axiomatic checker every campaign runs.
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
//! violates its model (a coherence contradiction violates `sc-per-location`,
//! a final value no store wrote violates `final-state`), `2` on usage, parse
//! or I/O errors, `3` when at least one verdict is undecided (the
//! observations underdetermine the coherence order).  Errors dominate
//! violations dominate undecided.

use mcversi_conformance::{infer_coherence, parse, CoherenceInference};
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
    /// Human-readable detail (why the trace is undecided or malformed, or
    /// which final value no store wrote).
    detail: Option<String>,
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

    let (outcome, violated, detail) = match infer_coherence(&lowered.exec, &lowered.finals) {
        CoherenceInference::Complete(exec) => match Checker::new(model.instance()).try_check(&exec)
        {
            Ok(Verdict::Valid) => (Outcome::Valid, None, None),
            Ok(Verdict::Invalid(v)) => (Outcome::Violation, Some((v.axiom, v.witness)), None),
            Err(e) => (Outcome::Error, None, Some(e.to_string())),
        },
        CoherenceInference::Contradiction { witness, .. } => (
            Outcome::Violation,
            Some(("sc-per-location".to_string(), witness)),
            None,
        ),
        CoherenceInference::FinalMismatch { addr, value } => (
            Outcome::Violation,
            Some(("final-state".to_string(), Vec::new())),
            Some(format!("no store to {addr} wrote its final value {value}")),
        ),
        CoherenceInference::Underdetermined { addr } => (
            Outcome::Undecided,
            None,
            Some(format!(
                "coherence order for {addr} is underdetermined by the trace"
            )),
        ),
    };
    let (axiom, witness) = violated.unzip();
    let report = Report {
        file: file.to_string(),
        model: model.name().to_string(),
        verdict: match outcome {
            Outcome::Valid => "valid",
            Outcome::Violation => "violation",
            Outcome::Undecided | Outcome::Error => "undecided",
        }
        .to_string(),
        axiom,
        witness: witness
            .unwrap_or_default()
            .iter()
            .map(|e| e.to_string())
            .collect(),
        detail,
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
