//! `mcversi-work`: runs one [`GridShard`] and streams JSONL events on stdout.
//!
//! The worker half of the distributed fabric (see `mcversi_fabric`): the
//! coordinator pipes a shard's JSON to stdin (or names a file) and tails
//! stdout for the cell-attributed campaign-event stream — `Schema` header,
//! then per cell `CellStart`, the sample events (`SampleDone` rewritten to
//! `SampleResult`), and `CellDone`.  A stream that ends before the shard is
//! complete fails the coordinator's campaign; its journal resumes it.
//!
//! ```text
//! mcversi-work <shard.json | ->
//! ```
//!
//! Exit status: `0` on success, `1` on a shard error, `2` on usage errors.

use mcversi_core::sink::JsonlSink;
use mcversi_fabric::{run_shard, GridShard};
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: mcversi-work <shard.json | ->");
        return ExitCode::from(2);
    };
    let json = if path == "-" {
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => {
                eprintln!("mcversi-work: cannot read stdin: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("mcversi-work: cannot read `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let shard = match GridShard::from_json(&json) {
        Ok(shard) => shard,
        Err(e) => {
            eprintln!("mcversi-work: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sink = JsonlSink::new(std::io::stdout());
    match run_shard(&shard, &mut sink) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mcversi-work: {e}");
            ExitCode::from(1)
        }
    }
}
