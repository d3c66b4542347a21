//! Atomic-ordering contract lint (DESIGN.md §13).
//!
//! Scans every `.rs` file under `crates/*/src` for atomic operations and
//! fences — method calls like `.load(..)`, `.store(..)`, `.fetch_add(..)`,
//! `.compare_exchange(..)` and free `fence(..)` calls that name at least
//! one `Ordering` variant — and checks that each site argues its
//! orderings in a comment:
//!
//! * a site comment, `// ORDERING: <why>`, in the comment block directly
//!   above the site or trailing on its line. A run of consecutive
//!   atomic-site lines shares the comment above the run, and a site on a
//!   method-chain line (`.load(..)` under its receiver) shares the comment
//!   above the statement head;
//! * otherwise the file's module note, a `//! ORDERING: <why>` paragraph
//!   in its module docs, which covers every site in the file without a
//!   comment of its own — the shared argument of a file whose sites all
//!   keep one ordering for one reason (a baseline kept at its paper's SC
//!   presentation, the wCQ ring's SC protocol).
//!
//! A site with neither, or whose comment or note is a placeholder (empty,
//! `TODO`, `-`), fails. A downgrade is therefore a one-line diff plus its
//! site comment, which then overrides the module note.
//!
//! The scanner is deliberately textual, not syntactic: zero dependencies,
//! no macro expansion, no cfg evaluation — which means it sees *every*
//! branch of cfg-gated code (both DWCAS backends, the `wcq_dst` seam) in
//! one pass. The trade-off: an atomic op whose ordering is a variable
//! rather than a literal `Ordering::*` token is invisible. The workspace
//! has no such site; keep it that way.

use lint_core::{LineIndex, Site};
use std::collections::HashSet;
use std::path::Path;

/// Atomic method names the scanner recognizes (matched as `.name(`).
pub const OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange_weak",
    "compare_exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

const ORDERING_TOKENS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// The comment tag, in site comments and module notes alike.
pub const TAG: &str = "ORDERING:";

/// Scans one file's text. `file` is the label recorded in the sites,
/// whose sigs read `op(orderings)` with the orderings in argument order.
pub fn scan_source(file: &str, text: &str) -> Vec<Site> {
    let idx = LineIndex::new(text);
    let bytes = text.as_bytes();
    let mut sites: Vec<(usize, Site)> = Vec::new(); // (offset, site) for ordering
    let mut needles: Vec<(String, &str)> = OPS.iter().map(|op| (format!(".{op}("), *op)).collect();
    needles.push(("fence(".to_string(), "fence"));

    for (needle, op) in &needles {
        let mut from = 0;
        while let Some(rel) = text[from..].find(needle.as_str()) {
            let at = from + rel;
            from = at + needle.len();
            // Word boundaries: `.load(` must not be the tail of `.payload(`,
            // and free `fence(` must not be the tail of another identifier
            // (`asymfence` has no call-form, but stay strict anyway).
            let tok_start = if *op == "fence" { at } else { at + 1 };
            if tok_start > 0 && lint_core::is_ident(bytes[tok_start - 1]) {
                continue;
            }
            let line = idx.line_of(at);
            if idx.is_comment_line(line) {
                continue;
            }
            // `.compare_exchange(` never fires inside `.compare_exchange_weak(`
            // because the needle requires the literal `(` right after the name.
            let open = at + needle.len() - 1;
            let Some(span) = lint_core::call_span(text, open) else {
                continue;
            };
            let orderings = lint_core::word_tokens_in(&text[open + 1..span], ORDERING_TOKENS);
            if orderings.is_empty() {
                // Not an atomic op (`Vec::swap`, shim plumbing without a
                // literal ordering, ...) — out of the lint's jurisdiction.
                continue;
            }
            let sig = format!("{op}({})", orderings.join(", "));
            sites.push((
                at,
                Site {
                    file: file.to_string(),
                    line,
                    sig,
                },
            ));
        }
    }
    sites.sort_by_key(|a| (a.1.line, a.0));
    sites.into_iter().map(|(_, s)| s).collect()
}

/// Coverage counts and errors accumulated over the checked files.
#[derive(Debug, Default)]
pub struct Tally {
    pub sites: usize,
    /// Sites argued by their own (or their run's) comment.
    pub commented: usize,
    /// Sites argued by their file's module note.
    pub under_notes: usize,
    /// Module notes that cover at least one site.
    pub notes: usize,
    pub errors: Vec<String>,
}

/// The argument a line carries after [`TAG`].
fn ordering_tag(line: &str) -> Option<&str> {
    line.split_once(TAG).map(|(_, why)| why)
}

/// Checks one file's sites against its comments and module note.
pub fn check_source(file: &str, text: &str, tally: &mut Tally) {
    let sites = scan_source(file, text);
    let idx = LineIndex::new(text);
    let site_lines: HashSet<usize> = sites.iter().map(|s| s.line).collect();
    // A run of atomic-site lines shares the comment above it, and so does
    // a method chain continued on the line below.
    let step_over =
        |l: usize| site_lines.contains(&l) || idx.line_text(l + 1).trim_start().starts_with('.');
    let note = lint_core::module_note(text, TAG);
    let mut note_used = false;
    tally.sites += sites.len();
    for s in &sites {
        let own = idx.annotation(s.line, ordering_tag, step_over);
        let Some(why) = own.or(note) else {
            tally.errors.push(lint_core::error(
                "unannotated atomic site",
                s,
                "argue the orderings in an `// ORDERING: <why>` comment above the site, or in a `//! ORDERING: <why>` module note covering the file (DESIGN.md §13)",
            ));
            continue;
        };
        if lint_core::is_placeholder(why) {
            let form = if own.is_some() {
                "comment"
            } else {
                "module note"
            };
            tally.errors.push(lint_core::error(
                &format!("placeholder ORDERING {form}"),
                s,
                "the text after `ORDERING:` must argue why these orderings suffice",
            ));
        } else if own.is_some() {
            tally.commented += 1;
        } else {
            tally.under_notes += 1;
            note_used = true;
        }
    }
    tally.notes += usize::from(note_used);
}

/// Checks every file under `root/crates/*/src`.
pub fn check_tree(root: &Path) -> std::io::Result<Tally> {
    let mut tally = Tally::default();
    for (file, text) in lint_core::read_tree(root)? {
        check_source(&file, &text, &mut tally);
    }
    Ok(tally)
}

/// The [`lint_core::LintSpec`] wiring this lint into the shared CLI.
pub fn spec() -> lint_core::LintSpec {
    lint_core::LintSpec {
        name: "ordering-lint",
        about: "check that every atomic op under crates/*/src argues its orderings in an `ORDERING:` comment",
        run: |root| {
            let t = check_tree(root)?;
            Ok(lint_core::Report {
                coverage: format!(
                    "{} atomic sites: {} under {} module notes, {} with site comments",
                    t.sites, t.under_notes, t.notes, t.commented
                ),
                errors: t.errors,
            })
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
use std::sync::atomic::{fence, AtomicUsize, Ordering::{Acquire, Release, SeqCst}};
fn f(a: &AtomicUsize) {
    a.store(1, Release);
    let _ = a.load(Acquire);
    // a.load(SeqCst) in a comment is not a site
    let _ = a.compare_exchange(0, 1, SeqCst, Ordering::Relaxed);
    fence(SeqCst);
    let mut v = vec![1, 2];
    v.swap(0, 1); // no ordering token: not a site
}
"#;

    fn check(text: &str) -> Tally {
        let mut tally = Tally::default();
        check_source("x.rs", text, &mut tally);
        tally
    }

    #[test]
    fn scanner_finds_ops_and_orderings_in_argument_order() {
        let sites = scan_source("x.rs", SRC);
        let got: Vec<String> = sites.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            got,
            [
                "x.rs:4 store(Release)",
                "x.rs:5 load(Acquire)",
                "x.rs:7 compare_exchange(SeqCst, Relaxed)",
                "x.rs:8 fence(SeqCst)",
            ]
        );
    }

    #[test]
    fn scanner_walks_multiline_calls() {
        let src = "a.compare_exchange(\n  0, 1,\n  Ordering::AcqRel,\n  Ordering::Acquire,\n);\n";
        let sites = scan_source("y.rs", src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].line, 1);
        assert_eq!(sites[0].sig, "compare_exchange(AcqRel, Acquire)");
    }

    #[test]
    fn clean_contract_passes() {
        // A module note covers the file; the CAS argues its own orderings,
        // and the fence on the next line shares that comment as a run.
        let src = SRC
            .replacen("\nuse", "//! ORDERING: argued once for the file\nuse", 1)
            .replace(
                "    let _ = a.compare_exchange",
                "    // ORDERING: own argument\n    let _ = a.compare_exchange",
            );
        let t = check(&src);
        assert_eq!(t.errors, Vec::<String>::new());
        assert_eq!((t.sites, t.under_notes, t.commented, t.notes), (4, 2, 2, 1));
    }

    #[test]
    fn unlisted_site_fails() {
        let src = SRC.replace(
            "    let _ = a.compare_exchange",
            "    // ORDERING: own argument\n    let _ = a.compare_exchange",
        );
        let t = check(&src);
        // No module note: the store and the load above the comment fail.
        assert_eq!(t.errors.len(), 2, "{:?}", t.errors);
        assert!(t
            .errors
            .iter()
            .all(|e| e.contains("unannotated atomic site")));
        assert!(
            t.errors[0].contains("x.rs:4 store(Release)"),
            "{}",
            t.errors[0]
        );
    }

    #[test]
    fn placeholder_ordering_comment_fails() {
        let src = SRC.replace(
            "    fence(SeqCst);",
            "    // ORDERING: TODO\n    fence(SeqCst);",
        );
        let src = format!("//! ORDERING:\n{src}");
        let t = check(&src);
        // The fence's own comment and the blank module note under the other
        // three sites are all placeholders.
        assert_eq!(t.errors.len(), 4, "{:?}", t.errors);
        assert_eq!(
            t.errors
                .iter()
                .filter(|e| e.contains("placeholder ORDERING module note"))
                .count(),
            3
        );
    }

    #[test]
    fn method_chain_sites_share_the_statement_comment() {
        let src = "// ORDERING: argued\nlet x = self\n    .head\n    .load(Acquire);\n";
        assert!(check(src).errors.is_empty());
    }
}
