//! `bench_snapshot`: the repo's benchmark.
//!
//! ```text
//! bench_snapshot --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_snapshot all [--seed <n>] [--seconds <s>] [--out <snapshot.json>]
//! bench_snapshot diff <base.json[:set]> <new.json[:set]>
//! bench_snapshot list [--json]
//! bench_snapshot vet --workload <name>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, untraced
//! (`--trace 0`, the end-to-end metrics) or traced (`--trace 1`, the
//! per-layer metrics), one JSON object as the last line of standard output.
//! See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod metrics;
mod run;
mod snapshot;
mod spans;
mod stats;
mod trace;
mod workload;

use metrics::{Report, END_TO_END, PER_LAYER, RUN_SECONDS};
use run::Plan;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench_snapshot --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--spans <file>]
  bench_snapshot all [--seed <n>] [--seconds <s>] [--scale <f>] [--out <snapshot.json>]
  bench_snapshot diff <base.json[:set]> <new.json[:set]>
  bench_snapshot list [--json]
  bench_snapshot vet --workload <name>";

/// The `--flag value` arguments every form shares.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    plan: Plan,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        plan: Plan {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            scale: 1.0,
        },
        trace: false,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => {
                flags.plan.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a whole number"))?;
            }
            "--seconds" => flags.plan.seconds = number()?,
            "--scale" => flags.plan.scale = number()?.clamp(0.001, 1.0),
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is neither 0 nor 1")),
                }
            }
            "--spans" => flags.spans = Some(value.clone()),
            "--out" => flags.out = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(flags)
}

/// One workload, one mode: the form the benchmark contract runs.
fn one_run(flags: &Flags) -> Result<Report, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    if flags.trace {
        trace::measure(workload, &flags.plan, flags.spans.as_deref())
    } else {
        run::measure(workload, &flags.plan)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") if args.get(1).map(String::as_str) == Some("--json") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("list") => {
            print!("{}", metrics::list());
            Ok(true)
        }
        Some("diff") => match &args[1..] {
            [base, new] => snapshot::diff(base, new),
            _ => Err("diff takes two snapshots".to_string()),
        },
        Some("vet") => parse_flags(&args[1..]).and_then(|flags| {
            let name = flags.workload.as_deref().ok_or("--workload is required")?;
            let workload =
                workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            println!("{name}: failing: &{:?}", workload.vet());
            Ok(true)
        }),
        Some("all") => parse_flags(&args[1..])
            .and_then(|flags| snapshot::all(&flags.plan, flags.out.as_deref())),
        _ => parse_flags(&args).and_then(|flags| {
            let report = one_run(&flags)?;
            let table = if flags.trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let result = report.result_value(table)?;
            println!("{}", snapshot::detail_line(&flags, &report));
            println!(
                "{}",
                serde_json::to_string(&result).expect("serialization is infallible")
            );
            // A failed check is in the result line (`correct`), not in the
            // exit code: the contract wants 0 whenever a result is printed.
            Ok(true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("bench_snapshot: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_checked_where_they_enter() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let flags = parse_flags(&args("--workload hit --seed 7 --seconds 3 --trace 1"))
            .expect("the contract's arguments parse");
        assert_eq!(flags.workload.as_deref(), Some("hit"));
        assert_eq!(
            (flags.plan.seed, flags.plan.seconds, flags.trace),
            (7, 3.0, true)
        );
        assert!(parse_flags(&args("--seed -1")).is_err());
        assert!(parse_flags(&args("--seconds inf")).is_err());
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--bogus 1")).is_err());
    }
}
