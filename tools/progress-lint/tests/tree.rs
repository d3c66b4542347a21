//! The progress contract against the real tree: the checked-in `BOUND`
//! comments must be clean, and the failure modes the CI gate exists for —
//! a loop whose `BOUND` is removed, a bound class outside the taxonomy,
//! and a `wait-edge` with no prose — must be demonstrably fatal on real
//! source text, not theoretical.

use progress_lint::{check_source, check_tree, Tally};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/progress-lint sits two levels under the workspace root")
        .to_path_buf()
}

/// The real wCQ ring, with one loop class of each kind the tests need.
const RING: &str = "crates/core/src/wcq/ring.rs";

fn ring_errors(edit: impl Fn(&str) -> String) -> Vec<String> {
    let text = std::fs::read_to_string(root().join(RING)).expect(RING);
    let edited = edit(&text);
    assert_ne!(edited, text, "the edit must change {RING}");
    let mut tally = Tally::default();
    check_source(RING, &edited, &mut tally);
    tally.errors
}

#[test]
fn checked_in_contract_is_clean() {
    let t = check_tree(&root()).expect("scan crates/*/src");
    assert!(
        t.loops > 80,
        "scanner regression: only {} loop sites found",
        t.loops
    );
    assert_eq!(t.loops, t.bounded);
    assert!(
        t.errors.is_empty(),
        "progress-lint dirty:\n{}",
        t.errors.join("\n")
    );
}

#[test]
fn injected_unlisted_loop_fails() {
    // The first bound comment loses its tag, as if the loop were new.
    let errors = ring_errors(|t| t.replacen("// BOUND(", "// (", 1));
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("loop without BOUND"), "{}", errors[0]);
}

#[test]
fn bound_class_outside_the_taxonomy_fails() {
    let errors = ring_errors(|t| t.replacen("BOUND(const)", "BOUND(bogus)", 1));
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("unclassified loop"), "{}", errors[0]);
    assert!(errors[0].contains("`bogus`"), "{}", errors[0]);
}

#[test]
fn blanking_a_wait_edge_justification_fails() {
    let errors = ring_errors(|t| {
        let at = t
            .find("BOUND(wait-edge):")
            .expect("ring has a wait-edge loop");
        let eol = at + t[at..].find('\n').unwrap();
        format!("{}BOUND(wait-edge):{}", &t[..at], &t[eol..])
    });
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("unjustified wait-edge"), "{}", errors[0]);
}
