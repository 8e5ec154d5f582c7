//! Documentation freshness: every workspace path referenced by the
//! architecture docs must exist.
//!
//! `cargo doc -D warnings` (run in CI) already catches stale *rustdoc* links;
//! this test covers the Markdown side, so a refactor that moves or deletes a
//! file fails tier-1 until `ARCHITECTURE.md` / `README.md` are updated.  The
//! checked-in scenario specs must stay parseable as well.

use std::path::Path;

/// Extracts workspace-relative path candidates from a Markdown document:
/// inline-code spans that look like paths (contain a `/` or end in a known
/// extension) and the targets of relative Markdown links.
fn referenced_paths(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    // `code span` references.
    for piece in markdown.split('`').skip(1).step_by(2) {
        let candidate = piece.trim().trim_end_matches('/');
        let path_like = candidate.contains('/')
            || Path::new(candidate)
                .extension()
                .is_some_and(|e| ["rs", "md", "toml", "yml", "lock"].iter().any(|x| e == *x));
        if path_like
            && !candidate.is_empty()
            && candidate
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "._-/".contains(c))
        {
            out.push(candidate.to_string());
        }
    }
    // [text](target) links to workspace files (skip URLs and anchors).
    for (i, _) in markdown.match_indices("](") {
        let rest = &markdown[i + 2..];
        if let Some(end) = rest.find(')') {
            let target = rest[..end].trim();
            if !target.is_empty()
                && !target.starts_with("http")
                && !target.starts_with('#')
                && !target.contains(' ')
            {
                out.push(target.split('#').next().unwrap_or(target).to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn check_doc(doc: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| {
        panic!("{doc} must exist and be readable: {e}");
    });
    let mut stale = Vec::new();
    for path in referenced_paths(&text) {
        if !root.join(&path).exists() {
            stale.push(path);
        }
    }
    assert!(
        stale.is_empty(),
        "{doc} references paths that no longer exist: {stale:?}"
    );
}

#[test]
fn architecture_doc_links_are_live() {
    check_doc("ARCHITECTURE.md");
}

/// The checked-in example spec the docs and CI point at must stay parseable
/// (and must describe the documented cell).
#[test]
fn example_scenario_spec_is_valid() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("examples/scenario.json");
    let text = std::fs::read_to_string(&path).expect("examples/scenario.json must exist");
    let spec = mcversi::core::ScenarioSpec::from_json(&text)
        .unwrap_or_else(|e| panic!("examples/scenario.json is stale: {e}"));
    assert_eq!(spec.generator, mcversi::core::GeneratorKind::McVerSiAll);
    assert!(!spec.full, "the example describes the scaled-down system");
    // And it round-trips: re-serialising reproduces an equivalent spec.
    let again = mcversi::core::ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(again, spec);
}

/// Every checked-in spec, the example and each benchmark workload, parses
/// and derives its campaign.  The benchmark package is not a workspace
/// member, so without this a spec change that breaks a workload file would
/// still pass the workspace tests.
#[test]
fn checked_in_specs_parse_and_build_their_campaign() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workloads = std::fs::read_dir(root.join("benchmark/workloads"))
        .expect("benchmark/workloads must exist")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"));
    let mut paths: Vec<_> = workloads.collect();
    assert!(!paths.is_empty(), "no benchmark workload files");
    paths.push(root.join("examples/scenario.json"));
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable spec file");
        let at = path.display();
        let spec =
            mcversi::core::ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{at}: {e}"));
        let campaign = spec.campaign();
        assert_eq!(campaign.generator, spec.generator, "{at}");
        assert_eq!(campaign.max_test_runs, spec.max_test_runs, "{at}");
    }
}

#[test]
fn readme_doc_links_are_live() {
    check_doc("README.md");
}

#[test]
fn path_extraction_finds_code_spans_and_links() {
    let md = "see `crates/sim/src/core.rs` and [the readme](README.md), \
              not `just code` or [a site](https://example.com) or [anchor](#x)";
    let paths = referenced_paths(md);
    assert!(paths.contains(&"crates/sim/src/core.rs".to_string()));
    assert!(paths.contains(&"README.md".to_string()));
    assert!(!paths.iter().any(|p| p.contains("example.com")));
    assert!(!paths.iter().any(|p| p.starts_with('#')));
}
