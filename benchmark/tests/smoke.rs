//! Every workload through the built binaries, untraced and traced, at a
//! fiftieth of its test-run budget: each must pass its own checks and print
//! its whole metric table in the contract's shape.  An integration test, so
//! that cargo builds `mcversi-work` next to `bench_snapshot` first.

use serde::Value;
use std::process::Command;

fn run(workload: &str, trace: &str) -> (Value, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
        .args(["--scale", "0.02", "--trace", trace])
        .output()
        .expect("bench_snapshot runs");
    assert!(output.status.success(), "{workload}: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let mut lines = stdout.lines().rev();
    let mut next = || serde_json::value_from_str(lines.next().expect("two lines")).expect("JSON");
    (next(), next())
}

fn keys(value: &Value) -> Vec<&str> {
    let entries = value.as_object().expect("object");
    entries.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn scaled_down_smoke_of_every_workload_passes_its_checks() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let spec = serde_json::value_from_str(&spec).expect("JSON");
    let names = |key: &str| -> Vec<String> {
        let list = spec.get(key).and_then(Value::as_array).expect(key);
        list.iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    for workload in names("workloads") {
        let mut fingerprints = Vec::new();
        for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, detail) = run(&workload, trace);
            assert_eq!(
                keys(&result),
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} trace {trace}: {detail:?}"
            );
            assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{workload}");
            let metrics = result.get("metrics").expect("metrics");
            assert_eq!(keys(metrics), names(table), "{workload} trace {trace}");
            let detail = detail.get("detail").expect("detail line");
            fingerprints.push(detail.get("sim_fingerprint").cloned());
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{workload}: both runs simulate the pinned samples alike"
        );
    }
}

#[test]
fn a_run_without_a_result_exits_with_another_code_than_0() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
            .args(args)
            .output()
            .expect("bench_snapshot runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
