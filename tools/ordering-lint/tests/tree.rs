//! The contract lint against the real tree: the checked-in comments must
//! be clean, and the failure modes the CI gate exists for — a site whose
//! comment is stripped, a blanked module note, a new unannotated `SeqCst`
//! op — must be demonstrably fatal on real source text, not theoretical.

use ordering_lint::{check_source, check_tree, Tally};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/ordering-lint sits two levels under the workspace root")
        .to_path_buf()
}

fn read(file: &str) -> String {
    std::fs::read_to_string(root().join(file)).expect(file)
}

fn check(file: &str, text: &str) -> Tally {
    let mut tally = Tally::default();
    check_source(file, text, &mut tally);
    tally
}

/// A file with site comments only, no module note.
const NO_NOTE: &str = "crates/core/src/wcq/queue.rs";
/// A file whose module note carries the paper's SC argument.
const RING: &str = "crates/core/src/wcq/ring.rs";

#[test]
fn checked_in_contract_is_clean() {
    let t = check_tree(&root()).expect("scan crates/*/src");
    assert!(
        t.sites > 300,
        "scanner regression: only {} sites found",
        t.sites
    );
    assert_eq!(t.sites, t.under_notes + t.commented);
    assert!(
        t.errors.is_empty(),
        "ordering-lint dirty:\n{}",
        t.errors.join("\n")
    );
}

#[test]
fn stripping_a_site_comment_fails() {
    let text = read(NO_NOTE);
    assert!(check(NO_NOTE, &text).errors.is_empty());
    let stripped = text.replacen("// ORDERING: slot claim", "// slot claim", 1);
    assert_ne!(stripped, text, "{NO_NOTE} lost its slot-claim comment");
    let errors = check(NO_NOTE, &stripped).errors;
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("unannotated atomic site"),
        "{}",
        errors[0]
    );
    assert!(
        errors[0].contains("compare_exchange(Acquire, Relaxed)"),
        "{}",
        errors[0]
    );
}

#[test]
fn blanking_a_seqcst_justification_fails() {
    let text = read(RING);
    let clean = check(RING, &text);
    assert!(
        clean.errors.is_empty() && clean.under_notes > 40,
        "{clean:?}"
    );
    // Blank the module note's argument: every site it covered fails.
    let at = text.find("//! ORDERING:").expect("ring has a module note");
    let eol = at + text[at..].find('\n').unwrap();
    let blank = format!("{}//! ORDERING:{}", &text[..at], &text[eol..]);
    let errors = check(RING, &blank).errors;
    assert_eq!(errors.len(), clean.under_notes, "{errors:?}");
    assert!(errors
        .iter()
        .all(|e| e.contains("placeholder ORDERING module note")));
}

#[test]
fn injected_unannotated_seqcst_load_fails() {
    let text = read(NO_NOTE) + "\nfn injected(a: &AtomicUsize) -> usize {\n    a.load(SeqCst)\n}\n";
    let errors = check(NO_NOTE, &text).errors;
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("unannotated atomic site"),
        "{}",
        errors[0]
    );
    assert!(errors[0].contains("load(SeqCst)"), "{}", errors[0]);
}
