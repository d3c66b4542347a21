//! The unsafety contract against the real tree: the checked-in `SAFETY`
//! comments must be clean, and the failure modes the CI gate exists for —
//! a bare `unsafe {}`, an empty `SAFETY:`, a stripped safety comment, and
//! a crate root without `#![deny(unsafe_op_in_unsafe_fn)]` — must be
//! demonstrably fatal on real source text, not theoretical.

use std::path::{Path, PathBuf};
use unsafe_lint::{check_crate_root, check_source, check_tree, Tally, DENY_ATTR};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/unsafe-lint sits two levels under the workspace root")
        .to_path_buf()
}

const HAZARD: &str = "crates/hazard/src/lib.rs";

fn hazard_errors(edit: impl Fn(&str) -> String) -> Vec<String> {
    let text = std::fs::read_to_string(root().join(HAZARD)).expect(HAZARD);
    let edited = edit(&text);
    assert_ne!(edited, text, "the edit must change {HAZARD}");
    let mut tally = Tally::default();
    check_source(HAZARD, &edited, &mut tally);
    tally.errors
}

#[test]
fn checked_in_contract_is_clean() {
    let t = check_tree(&root()).expect("scan crates/*/src");
    assert!(
        t.sites > 100,
        "scanner regression: only {} unsafe sites found",
        t.sites
    );
    assert_eq!(t.sites, t.documented);
    assert!(
        t.errors.is_empty(),
        "unsafe-lint dirty:\n{}",
        t.errors.join("\n")
    );
}

#[test]
fn injected_bare_unsafe_block_fails() {
    let errors = hazard_errors(|t| format!("{t}\nfn injected() {{\n    unsafe {{}}\n}}\n"));
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("undocumented unsafe site"),
        "{}",
        errors[0]
    );
}

#[test]
fn blanking_an_invariant_fails() {
    let errors = hazard_errors(|t| {
        t.replacen(
            "// SAFETY: unlinked (retire contract) and unprotected now.",
            "// SAFETY:",
            1,
        )
    });
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("unargued unsafe site"), "{}", errors[0]);
}

#[test]
fn stripping_a_safety_comment_fails() {
    let errors = hazard_errors(|t| {
        t.replacen(
            "// SAFETY: unlinked (retire contract) and unprotected now.",
            "",
            1,
        )
    });
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("undocumented unsafe site"),
        "{}",
        errors[0]
    );
}

#[test]
fn missing_deny_attribute_fails() {
    let lib_rs = std::fs::read_to_string(root().join(HAZARD)).expect(HAZARD);
    assert_eq!(check_crate_root("crates/hazard", &lib_rs), None);
    let err = check_crate_root("crates/hazard", &lib_rs.replace(DENY_ATTR, ""))
        .expect("the missing attribute must be reported");
    assert!(
        err.contains("missing #![deny(unsafe_op_in_unsafe_fn)]"),
        "{err}"
    );
}
