//! Repo-level static checks, run by CI next to `fmt`/`clippy`
//! (`cargo run -p xtask`).
//!
//! Four source-hygiene rules the compiler cannot express, checked textually
//! over the *production* portion of every `crates/*/src/**.rs` file (each
//! file is truncated at its first line starting with `TEST_MODULE`, so test
//! modules are exempt):
//!
//! 1. **Environment reads are centralised**: `env::var` may appear only in
//!    `crates/core/src/scenario.rs`.  All `MCVERSI_*` parsing lives there so
//!    experiment binaries cannot grow divergent environment handling.
//! 2. **No `.unwrap()` / `.expect()` in the simulator hot paths**
//!    (`crates/sim/src/{core,lsq,cache}.rs`): a poisoned `Option` in the
//!    pipeline or cache must surface as an explicit `unreachable!` with a
//!    documented invariant, not as a generic panic.
//! 3. **Wall-clock reads go through the telemetry crate**: `Instant::now`
//!    may appear only inside `crates/telemetry/` (whose `Span`/`Stopwatch`
//!    keep the disabled path free of syscalls) and in the campaign deadline
//!    logic of `crates/core/src/campaign.rs`.  Scattered ad-hoc timing would
//!    bypass the metrics facade and its disabled-path cost guarantee.
//! 4. **Trace parsing lives in one place**: the `mcversi-trace` wire-format
//!    magic may appear only under `crates/conformance/`.  Everything else
//!    (including `mcversi-check`) must go through
//!    `mcversi_conformance::trace` rather than growing a second parser or
//!    hand-rolled emitter for the format.
//!
//! It also prints the number of *production lines*, the measure of code size
//! the change log quotes: non-blank lines not starting with `//`, up to the
//! first line containing `TEST_CODE`, in every `.rs` file under `crates/`,
//! `src/` and `xtask/` outside `tests/`, `benches/` and `examples/`, in
//! total and per crate.
//!
//! Exit status: `0` when clean, `1` with `file:line` diagnostics otherwise.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The single file allowed to read the environment.
const ENV_ALLOWED: &str = "crates/core/src/scenario.rs";

/// Simulator hot paths in which `.unwrap()` / `.expect()` are banned.
const NO_PANIC_HELPERS: [&str; 3] = [
    "crates/sim/src/core.rs",
    "crates/sim/src/lsq.rs",
    "crates/sim/src/cache.rs",
];

/// The places allowed to read the wall clock directly: the telemetry crate
/// (prefix) and the campaign deadline logic (exact file).
const CLOCK_ALLOWED_PREFIX: &str = "crates/telemetry/";
const CLOCK_ALLOWED_FILE: &str = "crates/core/src/campaign.rs";

/// The only crate allowed to name the trace wire-format magic.
const TRACE_ALLOWED_PREFIX: &str = "crates/conformance/";

/// The `mcversi-trace` header magic, spelled so this file passes its own
/// rule.
const TRACE_MAGIC: &str = concat!("mcversi", "-trace");

/// The directories whose files hold production lines.
const PRODUCTION_ROOTS: [&str; 3] = ["crates", "src", "xtask"];

/// Directories whose files are not production code, wherever they sit.
const NOT_PRODUCTION: [&str; 3] = ["tests", "benches", "examples"];

/// The attribute of a test module, where the rules stop checking a file.
/// This and [`TEST_CODE`] are spelled in pieces so that neither stops the
/// checks or the count of this file.
const TEST_MODULE: &str = concat!("#[cfg", "(test)]");

/// Where a file's production lines end: the first line containing this.
const TEST_CODE: &str = concat!("cfg", "(test");

fn main() -> std::process::ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    match collect_rust_files(&root.join("crates"), &mut files) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("xtask: cannot walk crates/: {e}");
            return std::process::ExitCode::from(1);
        }
    }
    files.sort();

    let mut violations = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            violations.push(format!("{}: unreadable", path.display()));
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        check_file(&rel, &text, &mut violations);
    }

    match production_lines(&root) {
        Ok(lines) => print_production_lines(&lines),
        Err(e) => violations.push(format!("cannot count production lines: {e}")),
    }

    if violations.is_empty() {
        println!("xtask: OK ({} files checked)", files.len());
        std::process::ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("xtask: {violation}");
        }
        eprintln!("xtask: {} violation(s)", violations.len());
        std::process::ExitCode::from(1)
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `<root>/xtask`.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Collects `.rs` files under `dir`, recursively.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Production lines per crate (`crates/<name>`, `src`, `xtask`).
fn production_lines(root: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut lines = BTreeMap::new();
    for dir in PRODUCTION_ROOTS {
        let mut files = Vec::new();
        collect_rust_files(&root.join(dir), &mut files)?;
        for path in files {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let parts: Vec<String> = rel
                .components()
                .map(|part| part.as_os_str().to_string_lossy().into_owned())
                .collect();
            if parts
                .iter()
                .any(|part| NOT_PRODUCTION.contains(&part.as_str()))
            {
                continue;
            }
            let krate = match parts.as_slice() {
                [first, name, _, ..] if first == "crates" => format!("{first}/{name}"),
                _ => parts[0].clone(),
            };
            *lines.entry(krate).or_default() +=
                count_production_lines(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(lines)
}

/// The production lines of one file's text.
fn count_production_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.contains(TEST_CODE))
        .filter(|line| {
            let line = line.trim();
            !line.is_empty() && !line.starts_with("//")
        })
        .count()
}

/// Prints the total, then one line per crate.
fn print_production_lines(lines: &BTreeMap<String, usize>) {
    let total: usize = lines.values().sum();
    println!("xtask: {total} production lines");
    for (krate, count) in lines {
        println!("xtask:   {count:>6} {krate}");
    }
}

/// Applies all four rules to one file's production lines.
fn check_file(rel: &str, text: &str, violations: &mut Vec<String>) {
    let no_panic = NO_PANIC_HELPERS.contains(&rel);
    let env_allowed = rel == ENV_ALLOWED;
    let clock_allowed = rel.starts_with(CLOCK_ALLOWED_PREFIX) || rel == CLOCK_ALLOWED_FILE;
    let trace_allowed = rel.starts_with(TRACE_ALLOWED_PREFIX);
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with(TEST_MODULE) {
            break; // test code below this point is exempt
        }
        if !env_allowed && line.contains("env::var") {
            violations.push(format!(
                "{rel}:{}: environment read outside {ENV_ALLOWED} \
                 (route it through ScenarioSpec::from_env)",
                idx + 1
            ));
        }
        if no_panic && (line.contains(".unwrap(") || line.contains(".expect(")) {
            violations.push(format!(
                "{rel}:{}: .unwrap()/.expect() in a simulator hot path \
                 (use let-else with unreachable! and a documented invariant)",
                idx + 1
            ));
        }
        if !clock_allowed && line.contains("Instant::now(") {
            violations.push(format!(
                "{rel}:{}: direct wall-clock read outside {CLOCK_ALLOWED_PREFIX} \
                 (use a telemetry Timer span or Stopwatch)",
                idx + 1
            ));
        }
        if !trace_allowed && line.contains(TRACE_MAGIC) {
            violations.push(format!(
                "{rel}:{}: trace wire-format magic outside {TRACE_ALLOWED_PREFIX} \
                 (parse and emit traces through mcversi_conformance::trace)",
                idx + 1
            ));
        }
    }
}
