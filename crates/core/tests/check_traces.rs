//! Round-trips the golden trace fixtures through the `mcversi-check` binary,
//! pinning exit codes, `--json` output shape and the `--model` flag.  The
//! library-path verdicts for the same fixtures are pinned in
//! `crates/conformance/tests/golden.rs`.

use mcversi_conformance::TRACE_MAGIC_V1;
use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../conformance/tests/golden")
        .join(name)
}

fn run_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcversi-check"))
        .args(args)
        .output()
        .expect("mcversi-check runs")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

#[test]
fn golden_fixtures_return_their_pinned_exit_codes() {
    let pins: [(&str, i32); 8] = [
        ("sc_valid.trace", 0),
        ("sc_violation.trace", 1),
        ("tso_valid.trace", 0),
        ("tso_violation.trace", 1),
        ("armish_valid.trace", 0),
        ("rmo_violation.trace", 1),
        ("tso_undecided.trace", 3),
        ("final_unwritten.trace", 1),
    ];
    for (name, expected) in pins {
        let path = fixture(name);
        let out = run_check(&[path.to_str().expect("utf-8 path")]);
        assert_eq!(
            exit_code(&out),
            expected,
            "{name}: stdout={} stderr={}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn json_mode_emits_one_parseable_object_per_file() {
    let valid = fixture("tso_valid.trace");
    let violating = fixture("tso_violation.trace");
    let out = run_check(&[
        "--json",
        valid.to_str().expect("utf-8 path"),
        violating.to_str().expect("utf-8 path"),
    ]);
    // A violation anywhere dominates the valid file.
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one JSONL object per input file");
    let first = serde_json::value_from_str(lines[0]).expect("valid JSON");
    assert_eq!(first.get("verdict").and_then(|v| v.as_str()), Some("valid"));
    assert_eq!(first.get("model").and_then(|v| v.as_str()), Some("TSO"));
    let second = serde_json::value_from_str(lines[1]).expect("valid JSON");
    assert_eq!(
        second.get("verdict").and_then(|v| v.as_str()),
        Some("violation")
    );
    assert!(
        second.get("axiom").and_then(|v| v.as_str()).is_some(),
        "violations name the broken axiom"
    );
}

#[test]
fn model_flag_overrides_the_trace_directive() {
    // The SB fixture declares TSO (valid); forcing SC flips it.
    let path = fixture("tso_valid.trace");
    let out = run_check(&["--model", "sc", path.to_str().expect("utf-8 path")]);
    assert_eq!(exit_code(&out), 1);
}

/// The golden verdicts through the tool's one checking flow (coherence
/// inference, then the axiomatic checker), in prose and as `--json`
/// reports, which carry no `mode` field.
#[test]
fn golden_verdicts_in_prose_and_json() {
    let pins = [
        ("sc_valid", "valid", 0),
        ("sc_violation", "violation", 1),
        ("tso_valid", "valid", 0),
        ("tso_violation", "violation", 1),
        ("armish_valid", "valid", 0),
        ("rmo_violation", "violation", 1),
        ("tso_undecided", "undecided", 3),
        ("final_unwritten", "violation", 1),
    ];
    for (name, verdict, code) in pins {
        let path = fixture(&format!("{name}.trace"));
        let path = path.to_str().expect("utf-8 path");

        let out = run_check(&[path]);
        assert_eq!(exit_code(&out), code, "{name}");
        let prose = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(
            prose.contains(&format!(": {verdict} under ")),
            "{name}: {prose}"
        );

        let out = run_check(&["--json", path]);
        assert_eq!(exit_code(&out), code, "{name} --json");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let report = serde_json::value_from_str(stdout.trim()).expect("valid JSON");
        assert_eq!(
            report.get("verdict").and_then(|v| v.as_str()),
            Some(verdict),
            "{name}: {stdout}"
        );
        assert!(report.get("mode").is_none(), "{name}: {stdout}");
    }
}

#[test]
fn usage_and_parse_errors_exit_2() {
    let out = run_check(&[]);
    assert_eq!(exit_code(&out), 2, "no input files is a usage error");
    // The checking-mode flag was removed: it is an unknown option now.
    let path = fixture("tso_valid.trace");
    let out = run_check(&["--mode", "vc", path.to_str().expect("utf-8 path")]);
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option \"--mode\""), "{stderr}");
    let out = run_check(&["/nonexistent/definitely-missing.trace"]);
    assert_eq!(exit_code(&out), 2, "unreadable input is an I/O error");
}

#[test]
fn conflicting_final_lines_are_a_parse_error() {
    let trace = format!(
        "{TRACE_MAGIC_V1}\nstore 0 0x100 1\nstore 0 0x100 2\nfinal 0x100 2\nfinal 0x100 1\n"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcversi-check"))
        .arg("-")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("mcversi-check runs");
    std::io::Write::write_all(&mut child.stdin.take().expect("stdin"), trace.as_bytes())
        .expect("trace written");
    let out = child.wait_with_output().expect("mcversi-check exits");
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 5: duplicate 'final' for 0x100"),
        "{stderr}"
    );
}

/// What `mcversi-check --json` prints for every golden fixture, field for
/// field, as recorded in `reports.jsonl` (one line per fixture, `file` the
/// fixture's name).  `detail` is prose and is left out of the record.
/// The `rmo_violation` witness lists both writes on its coherence cycle.
/// Every fixture in the directory must have a recorded line.
#[test]
fn json_reports_match_the_recorded_ones() {
    let dir = fixture("");
    let recorded = std::fs::read_to_string(dir.join("reports.jsonl")).expect("reports.jsonl");
    let mut pinned = Vec::new();
    for line in recorded.lines() {
        let expected = serde_json::value_from_str(line).expect("recorded line is JSON");
        let name = expected
            .get("file")
            .and_then(|f| f.as_str())
            .expect("recorded line names its file")
            .to_string();
        let out = Command::new(env!("CARGO_BIN_EXE_mcversi-check"))
            .current_dir(&dir)
            .args(["--json", &name])
            .output()
            .expect("mcversi-check runs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let report = serde_json::value_from_str(stdout.trim()).expect("valid JSON");
        let fields = report.as_object().expect("report is an object");
        let kept: Vec<(String, serde::Value)> = fields
            .iter()
            .filter(|(key, _)| key != "detail")
            .cloned()
            .collect();
        assert_eq!(serde::Value::Object(kept), expected, "{name}: {stdout}");
        pinned.push(name);
    }
    let mut fixtures: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden directory")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name.ends_with(".trace"))
        .collect();
    fixtures.sort();
    pinned.sort();
    assert_eq!(
        pinned, fixtures,
        "every fixture has exactly one recorded report"
    );
}
