//! Corpus conformance: the enumerator regenerates the hand-written suites.
//!
//! The hand-written shapes (`x86_tso_suite`, the flavoured weak suites and
//! the acquire probe) are the golden reference; this suite asserts that the
//! auto-enumerated corpus subsumes every one of them — matched by canonical
//! name, with the identical thread structure — so replacing the hand-picked
//! corpus with the enumerated one cannot silently drop a shape.
//!
//! Two families are exempt, with a pinned skip list so additions to the
//! hand-written suite fail loudly:
//!
//! * `SB+rmws` — atomic read-modify-writes are events outside the
//!   critical-cycle edge vocabulary (`po`/fenced/dep × `rf`/`fr`/`ws`);
//! * `2T-*` — the systematic two-thread filler of the x86 suite enumerates
//!   *all* access pairs, most of which form no cycle at all (they exist to
//!   pad the paper's "38 tests", not as critical shapes).

use mcversi_mcm::{Address, DepKind, FenceKind, ModelKind};
use mcversi_testgen::litmus::{
    self, acquire_suite, handwritten_weak_suite_flavoured, x86_tso_suite, LitmusTest,
};
use mcversi_testgen::{EnumerationBounds, OpKind, Test};
use std::collections::BTreeMap;

fn locations() -> [Address; 3] {
    [Address(0x10_0000), Address(0x10_0040), Address(0x10_0080)]
}

/// The multiset of per-thread operation-kind sequences — the
/// location-and-thread-order-independent structure of a test.
fn structure(test: &Test) -> Vec<Vec<OpKind>> {
    let mut threads: Vec<Vec<OpKind>> = test
        .threads()
        .into_iter()
        .map(|ops| ops.into_iter().map(|op| op.kind).collect())
        .collect();
    threads.sort();
    threads
}

/// Every hand-written shape the conformance contract covers.
fn golden_reference() -> Vec<LitmusTest> {
    let locs = locations();
    let mut golden = x86_tso_suite(&locs);
    for (fence, dep) in [
        (FenceKind::Full, DepKind::Data),
        (FenceKind::LightweightSync, DepKind::Data),
        (FenceKind::Release, DepKind::Ctrl),
    ] {
        golden.extend(handwritten_weak_suite_flavoured(&locs, fence, dep));
    }
    golden.extend(acquire_suite(&locs));
    golden
}

fn is_exempt(name: &str) -> bool {
    name == "SB+rmws" || name.starts_with("2T-")
}

#[test]
fn enumerator_regenerates_every_handwritten_shape() {
    let locs = locations();
    // The enumerated suite of any model carries the whole corpus (plus the
    // coherence anchors); ordering differs per model, names do not.
    let enumerated: BTreeMap<String, LitmusTest> =
        litmus::suite_for_bounded(ModelKind::Tso, &locs, &EnumerationBounds::default())
            .into_iter()
            .map(|t| (t.name.clone(), t))
            .collect();

    let mut covered = 0usize;
    for hand in golden_reference() {
        if is_exempt(&hand.name) {
            continue;
        }
        let regenerated = enumerated.get(&hand.name).unwrap_or_else(|| {
            panic!(
                "enumerator does not regenerate hand-written shape {}",
                hand.name
            )
        });
        assert_eq!(
            structure(&hand.test),
            structure(&regenerated.test),
            "{}: thread structure differs between hand-written and enumerated",
            hand.name
        );
        assert_eq!(
            hand.test.num_threads(),
            regenerated.test.num_threads(),
            "{}: thread count differs",
            hand.name
        );
        covered += 1;
    }
    assert!(
        covered >= 40,
        "only {covered} hand-written shapes covered — the golden reference shrank?"
    );
}

/// The skip list is exact: every exempt name is actually hand-written (no
/// stale entries) and everything outside it was matched above.
#[test]
fn exemptions_are_pinned() {
    let golden = golden_reference();
    assert!(
        golden.iter().any(|t| t.name == "SB+rmws"),
        "SB+rmws left the hand-written suite; drop it from the skip list"
    );
    let systematic = golden.iter().filter(|t| t.name.starts_with("2T-")).count();
    assert_eq!(
        systematic, 16,
        "the 2T-* systematic block changed size; re-check the exemption"
    );
}

/// The per-model expected verdicts of the enumerated corpus agree with the
/// hand-pinned ones for every shape both sides name (the full pinned matrix
/// lives in `mcversi-bench`; this covers the subset visible from testgen).
#[test]
fn enumerated_verdicts_match_the_handwritten_flavour_intent() {
    use mcversi_testgen::enumerate::{enumerate, EnumerationBounds};
    let corpus = enumerate(&EnumerationBounds::default());
    let verdict = |name: &str, model: ModelKind| -> bool {
        corpus
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .forbidden_under(model)
    };
    // The flavour table the hand-written suites encode implicitly:
    // model_flavours pairs each relaxed model with the fence that restores
    // ordering under it — so the flavoured MP must be forbidden under the
    // model whose flavour it is.
    for model in [ModelKind::Armish, ModelKind::Powerish, ModelKind::Rmo] {
        for &(fence, _dep) in litmus::model_flavours(model) {
            let name = format!("MP+{fence}+addr");
            if fence == FenceKind::Full || fence == FenceKind::LightweightSync {
                assert!(
                    verdict(&name, model),
                    "{name} must be forbidden under {model}"
                );
            }
        }
        // Plain MP is allowed under every relaxed model.
        assert!(!verdict("MP", model), "plain MP forbidden under {model}");
    }
    // The acquire probe discriminates exactly the ARM-ish model among the
    // relaxed ones.
    assert!(verdict("MP+mfence+acq", ModelKind::Armish));
    assert!(!verdict("MP+mfence+acq", ModelKind::Powerish));
    assert!(!verdict("MP+mfence+acq", ModelKind::Rmo));
}
