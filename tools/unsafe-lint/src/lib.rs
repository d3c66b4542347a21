//! Unsafety contract lint (DESIGN.md §15).
//!
//! Scans every `.rs` file under `crates/*/src` for `unsafe` sites —
//! blocks, `unsafe fn` declarations, `unsafe impl`s, `unsafe trait`s, and
//! `unsafe fn(..)` pointer types — and checks:
//!
//! * every site has an **adjacent safety comment** — a `// SAFETY: <why>`
//!   line in the contiguous comment/attribute block above it (or trailing
//!   on the same line), or a `# Safety` doc section for an `unsafe fn`.
//!   The comment is the site's only unsafety record: the invariant that
//!   makes the site sound, stated where an edit to the site sees it. A
//!   placeholder (empty, `TODO`, `-`) after `SAFETY:` fails. A stacked
//!   `unsafe impl` pair (`Send` + `Sync`) may share the comment above it;
//! * every crate under `crates/*` whose sources contain an `unsafe` site
//!   declares `#![deny(unsafe_op_in_unsafe_fn)]` at its root, so an
//!   `unsafe fn` body cannot silently perform unsafe operations outside
//!   an explicit, commented `unsafe {}` block — the compiler then
//!   enforces what this lint cannot see syntactically.
//!
//! The scanner is textual and cfg-blind like its siblings: both DWCAS
//! backends and the `wcq_dst` seam are audited in one pass.

use lint_core::{LineIndex, Site};
use std::collections::BTreeSet;
use std::path::Path;

/// The crate-root attribute every unsafe-bearing crate must declare.
pub const DENY_ATTR: &str = "#![deny(unsafe_op_in_unsafe_fn)]";

/// Scans one file's text for `unsafe` sites. Returned sigs are
/// `"unsafe(block)"`, `"unsafe(fn)"`, `"unsafe(impl)"`,
/// `"unsafe(trait)"`, or `"unsafe(fn-ptr)"`.
pub fn scan_source(file: &str, text: &str) -> Vec<Site> {
    let idx = LineIndex::new(text);
    let mut sites = Vec::new();
    for at in lint_core::find_word(text, "unsafe") {
        let line = idx.line_of(at);
        if idx.is_comment_line(line) || idx.in_string(at) {
            continue;
        }
        let kind = classify(text[at + 6..].trim_start());
        sites.push(Site {
            file: file.to_string(),
            line,
            sig: format!("unsafe({kind})"),
        });
    }
    sites
}

/// What follows the `unsafe` keyword decides the site kind.
fn classify(rest: &str) -> &'static str {
    let next_word_is = |w: &str| {
        rest.starts_with(w)
            && !rest
                .as_bytes()
                .get(w.len())
                .copied()
                .is_some_and(lint_core::is_ident)
    };
    if next_word_is("fn") {
        // `unsafe fn name(..)` declares; `unsafe fn(..)` is a pointer type.
        if rest[2..].trim_start().starts_with('(') {
            "fn-ptr"
        } else {
            "fn"
        }
    } else if next_word_is("impl") {
        "impl"
    } else if next_word_is("trait") {
        "trait"
    } else {
        "block"
    }
}

/// The safety argument a comment line carries: the text after `SAFETY`'s
/// colon (`// SAFETY: ..`, `// SAFETY (to call): ..`), or the heading of
/// an `unsafe fn`'s `# Safety` doc section.
fn safety_tag(line: &str) -> Option<&str> {
    match line.split_once("SAFETY") {
        Some((_, rest)) => Some(rest.split_once(':').map_or(rest, |(_, why)| why)),
        None => line.contains("# Safety").then_some("# Safety"),
    }
}

/// Site counts and errors accumulated over the checked files.
#[derive(Debug, Default)]
pub struct Tally {
    pub sites: usize,
    /// Sites whose `SAFETY` comment checked clean.
    pub documented: usize,
    /// Crate directories (`crates/<name>`) that contain an unsafe site.
    pub crates: BTreeSet<String>,
    pub errors: Vec<String>,
}

/// Checks one file's unsafe sites against their `SAFETY` comments.
pub fn check_source(file: &str, text: &str, tally: &mut Tally) {
    let idx = LineIndex::new(text);
    // A stacked `Send`/`Sync` pair argues one invariant; duplicating the
    // comment between them would only invite drift.
    let step_over = |l: usize| idx.line_text(l).trim_start().starts_with("unsafe impl");
    for s in scan_source(file, text) {
        tally.sites += 1;
        if let Some(dir) = crate_dir(&s.file) {
            tally.crates.insert(dir.to_string());
        }
        match idx.annotation(s.line, safety_tag, step_over) {
            None => tally.errors.push(lint_core::error(
                "undocumented unsafe site",
                &s,
                "add a `// SAFETY:` comment (or a `# Safety` doc section for an `unsafe fn`) directly above the site",
            )),
            Some(why) if lint_core::is_placeholder(why) => tally.errors.push(lint_core::error(
                "unargued unsafe site",
                &s,
                "state the invariant that makes this site sound after `SAFETY:`",
            )),
            Some(_) => tally.documented += 1,
        }
    }
}

/// `"crates/<name>"` for a path under it.
fn crate_dir(file: &str) -> Option<&str> {
    let name = file.strip_prefix("crates/")?.split('/').next()?;
    Some(&file[..7 + name.len()])
}

/// The error for an unsafe-bearing crate whose `lib.rs` text lacks
/// [`DENY_ATTR`], if it does.
pub fn check_crate_root(dir: &str, lib_rs: &str) -> Option<String> {
    (!lib_rs.contains(DENY_ATTR)).then(|| {
        format!(
            "error: missing {DENY_ATTR}\n  --> {dir}/src/lib.rs\n  = note: this crate contains unsafe sites; the attribute makes every unsafe op inside an `unsafe fn` require its own commented `unsafe {{}}` block"
        )
    })
}

/// Checks every file under `root/crates/*/src`, then the roots of the
/// crates that contain unsafe sites.
pub fn check_tree(root: &Path) -> std::io::Result<Tally> {
    let mut tally = Tally::default();
    for (file, text) in lint_core::read_tree(root)? {
        check_source(&file, &text, &mut tally);
    }
    for dir in &tally.crates {
        // A bin-only crate has no lib.rs to pin the attribute on.
        if let Ok(lib_rs) = std::fs::read_to_string(root.join(dir).join("src/lib.rs")) {
            tally.errors.extend(check_crate_root(dir, &lib_rs));
        }
    }
    Ok(tally)
}

/// The [`lint_core::LintSpec`] wiring this lint into the shared CLI.
pub fn spec() -> lint_core::LintSpec {
    lint_core::LintSpec {
        name: "unsafe-lint",
        about: "check that every unsafe site under crates/*/src has an adjacent `SAFETY:` comment and its crate denies unsafe_op_in_unsafe_fn",
        run: |root| {
            let t = check_tree(root)?;
            Ok(lint_core::Report {
                coverage: format!(
                    "{} unsafe sites: {} with SAFETY comments, in {} crates checked for {DENY_ATTR}",
                    t.sites,
                    t.documented,
                    t.crates.len()
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
// SAFETY: the pointer is owned and non-null for the struct's lifetime.
unsafe impl Send for X {}
unsafe impl Sync for X {}

/// Frobnicates.
///
/// # Safety
/// `p` must point to a live allocation of at least `n` bytes.
pub unsafe fn frob(p: *mut u8, n: usize) {
    // SAFETY: caller contract (see above) guarantees the range is live.
    unsafe { std::ptr::write_bytes(p, 0, n) };
    unsafe { *p = 1 };
}

// SAFETY: called once per value, on the pointer it was stored with.
struct Y { f: unsafe fn(*mut u8) }
// "unsafe" in a string is not a site:
const S: &str = "unsafe { nope }";
// unsafe { in a comment is not a site either
"#;

    fn check(text: &str) -> Tally {
        let mut tally = Tally::default();
        check_source("x.rs", text, &mut tally);
        tally
    }

    #[test]
    fn scanner_classifies_kinds_and_documentedness() {
        let got: Vec<String> = scan_source("x.rs", SRC)
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            got,
            [
                "x.rs:3 unsafe(impl)",
                "x.rs:4 unsafe(impl)", // stacked pair shares the comment
                "x.rs:10 unsafe(fn)",  // doc # Safety section
                "x.rs:12 unsafe(block)",
                "x.rs:13 unsafe(block)",
                "x.rs:17 unsafe(fn-ptr)",
            ]
        );
        let t = check(SRC);
        assert_eq!((t.sites, t.documented), (6, 5));
        assert_eq!(t.errors.len(), 1, "{:?}", t.errors);
        assert!(
            t.errors[0].contains("x.rs:13 unsafe(block)"),
            "{}",
            t.errors[0]
        );
    }

    #[test]
    fn undocumented_sites_and_todo_invariants_fail() {
        let t = check(&SRC.replace(
            ": caller contract (see above) guarantees the range is live.",
            ": TODO",
        ));
        assert_eq!(t.errors.len(), 2, "{:?}", t.errors);
        assert!(t.errors.iter().any(|e| e.contains("unargued unsafe site")));
        assert!(t
            .errors
            .iter()
            .any(|e| e.contains("undocumented unsafe site")));
        // A pointer type gets no exemption.
        let t = check(&SRC.replace("// SAFETY: called once", "// called once"));
        assert!(
            t.errors
                .iter()
                .any(|e| e.contains("x.rs:17 unsafe(fn-ptr)")),
            "{:?}",
            t.errors
        );
    }

    #[test]
    fn missing_deny_attribute_fails_for_unsafe_bearing_crates() {
        let err = check_crate_root("crates/demo", "pub fn ok() {}\n").expect("missing attr");
        assert!(
            err.contains("missing #![deny(unsafe_op_in_unsafe_fn)]"),
            "{err}"
        );
        assert!(err.contains("crates/demo/src/lib.rs"), "{err}");
        assert_eq!(
            check_crate_root(
                "crates/demo",
                "#![deny(unsafe_op_in_unsafe_fn)]\npub fn ok() {}\n"
            ),
            None
        );
    }
}
