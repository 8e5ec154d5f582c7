//! `mcversi-report`: renders campaign-event JSONL telemetry.
//!
//! Reads the JSONL a campaign wrote via `MCVERSI_JSONL` (with telemetry
//! enabled through the spec's `metrics` key, see [`mcversi_core::ScenarioSpec`])
//! and prints per-phase wall-time attribution plus every counter and
//! histogram, aggregated across samples.  Several streams — e.g. one journal
//! per fabric worker — merge into one report; streams whose schema versions
//! differ are rejected.
//!
//! ```text
//! mcversi-report <events.jsonl> [more.jsonl ...]
//! mcversi-report -          # read a stream from stdin
//! ```
//!
//! Exit status: `0` on success, `1` when a stream cannot be read or parsed,
//! `2` on usage errors.

use mcversi_core::report::MetricsReport;
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: mcversi-report <events.jsonl | -> [more.jsonl ...]");
        return ExitCode::from(2);
    }
    let mut texts = Vec::with_capacity(args.len());
    for path in &args {
        let text = if path == "-" {
            let mut buf = String::new();
            match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => buf,
                Err(e) => {
                    eprintln!("mcversi-report: cannot read stdin: {e}");
                    return ExitCode::from(1);
                }
            }
        } else {
            match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("mcversi-report: cannot read `{path}`: {e}");
                    return ExitCode::from(1);
                }
            }
        };
        texts.push(text);
    }
    let streams: Vec<&str> = texts.iter().map(String::as_str).collect();
    match MetricsReport::from_jsonl_streams(&streams) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mcversi-report: {e}");
            ExitCode::from(1)
        }
    }
}
