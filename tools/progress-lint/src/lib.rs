//! Progress contract lint (DESIGN.md §15).
//!
//! The paper's headline claim is *wait-freedom with bounded memory*: every
//! loop on the hot path must terminate in a bounded number of steps. This
//! lint makes that claim line-by-line accountable. It scans every `.rs`
//! file under `crates/*/src` for loop heads — `loop {`, `while`, and
//! `while let` — and checks that each one carries a bound comment,
//! `// BOUND(<class>): <why>`, in the comment block directly above it or
//! trailing on its line:
//!
//! * a loop with no `BOUND` comment fails;
//! * the class must come from the taxonomy below — an unknown class is an
//!   *unclassified loop* and fails, so a new loop cannot land unaudited;
//! * the text after the colon must argue the bound; a placeholder (empty,
//!   `TODO`, `-`) fails. This matters most for [`WAIT_EDGE`], the one
//!   class that declares the loop intentionally unbounded: its prose must
//!   say why waiting forever is the *intended* semantics there (parking
//!   facades, helper hand-off edges, test harnesses).
//!
//! # Bound-class taxonomy
//!
//! | class | meaning |
//! |---|---|
//! | `const` | iteration count is a compile-time or configured constant (patience, spin budgets, `TAG` wrap) |
//! | `capacity` | bounded by a queue/ring/buffer capacity or an input's length |
//! | `threshold` | bounded by the §3.2 threshold argument: the counter strictly decreases or the loop exits |
//! | `helping-bounded` | bounded by the §3.4 helping protocol: a stalled op is finished by helpers within a bounded number of passes |
//! | `retry-budget` | bounded by an explicit retry/attempt budget that is checked each round |
//! | `finite-iter` | drains a finite collection/iterator/range that no concurrent actor refills |
//! | `wait-edge` | intentionally unbounded wait on an external event (park/yield edges, shutdown joins, test barriers) — justification mandatory |
//!
//! The scanner is textual and cfg-blind like its siblings: both DWCAS
//! backends and the `wcq_dst` seam are audited in one pass, and `#[cfg]`
//! tricks cannot hide a loop. `for` loops are deliberately out of scope:
//! iterating a finite iterator is `finite-iter` by construction, and the
//! tree's hot paths use explicit `loop`/`while` forms everywhere
//! unboundedness could arise.

use lint_core::{LineIndex, Site};
use std::path::Path;

/// The recognized bound classes (see the module docs for semantics).
pub const BOUND_CLASSES: &[&str] = &[
    "const",
    "capacity",
    "threshold",
    "helping-bounded",
    "retry-budget",
    "finite-iter",
    "wait-edge",
];

/// The one class that declares a loop intentionally unbounded.
pub const WAIT_EDGE: &str = "wait-edge";

/// Scans one file's text for loop heads. `file` is the label recorded in
/// the sites. Returned sigs are `"loop"`, `"while"`, or `"while-let"`.
pub fn scan_source(file: &str, text: &str) -> Vec<Site> {
    let idx = LineIndex::new(text);
    let mut sites: Vec<(usize, Site)> = Vec::new();
    let site = |line, sig: &str| Site {
        file: file.to_string(),
        line,
        sig: sig.to_string(),
    };

    for at in lint_core::find_word(text, "loop") {
        let line = idx.line_of(at);
        if idx.is_comment_line(line) || idx.in_string(at) {
            continue;
        }
        // The `loop` keyword is always directly followed by its block;
        // anything else (`spin_loop` is already excluded by the word
        // boundary) is prose or an identifier fragment.
        if text[at + 4..].trim_start().as_bytes().first() != Some(&b'{') {
            continue;
        }
        sites.push((at, site(line, "loop")));
    }

    for at in lint_core::find_word(text, "while") {
        let line = idx.line_of(at);
        if idx.is_comment_line(line) || idx.in_string(at) {
            continue;
        }
        let rest = text[at + 5..].trim_start();
        // `while` with no condition is prose (doc text already filtered by
        // the comment check; string text by the quote check).
        if rest.is_empty() {
            continue;
        }
        let kind = if rest.starts_with("let")
            && !rest
                .as_bytes()
                .get(3)
                .copied()
                .is_some_and(lint_core::is_ident)
        {
            "while-let"
        } else {
            "while"
        };
        sites.push((at, site(line, kind)));
    }

    sites.sort_by_key(|a| (a.1.line, a.0));
    sites.into_iter().map(|(_, s)| s).collect()
}

/// Loop counts and errors accumulated over the checked files.
#[derive(Debug, Default)]
pub struct Tally {
    pub loops: usize,
    /// Loops whose `BOUND` comment checked clean.
    pub bounded: usize,
    /// Of those, the ones claiming [`WAIT_EDGE`].
    pub wait_edges: usize,
    pub errors: Vec<String>,
}

/// What a line carries after `BOUND(`: `<class>): <why>`.
fn bound_tag(line: &str) -> Option<&str> {
    line.split_once("BOUND(").map(|(_, rest)| rest)
}

/// Checks one file's loop heads against their `BOUND` comments.
pub fn check_source(file: &str, text: &str, tally: &mut Tally) {
    let idx = LineIndex::new(text);
    for s in scan_source(file, text) {
        tally.loops += 1;
        let Some(rest) = idx.annotation(s.line, bound_tag, |_| false) else {
            tally.errors.push(lint_core::error(
                "loop without BOUND",
                &s,
                "every loop must claim a bound class in a `// BOUND(<class>): <why>` comment directly above it — an unaudited loop is an unproven progress claim (DESIGN.md §15)",
            ));
            continue;
        };
        let (class, why) = rest.split_once("):").unwrap_or((rest.trim_end(), ""));
        if !BOUND_CLASSES.contains(&class) {
            tally.errors.push(lint_core::error(
                "unclassified loop",
                &s,
                &format!(
                    "bound class `{class}` is not in the taxonomy ({})",
                    BOUND_CLASSES.join("/")
                ),
            ));
        } else if lint_core::is_placeholder(why) {
            let note = if class == WAIT_EDGE {
                "`wait-edge` declares the loop intentionally unbounded — argue why waiting is the intended semantics here"
            } else {
                "the text after `BOUND(..):` must argue why the loop is bounded"
            };
            tally
                .errors
                .push(lint_core::error(&format!("unjustified {class}"), &s, note));
        } else {
            tally.bounded += 1;
            tally.wait_edges += usize::from(class == WAIT_EDGE);
        }
    }
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
        name: "progress-lint",
        about: "check that every loop/while under crates/*/src claims a bound class in a `BOUND(<class>):` comment",
        run: |root| {
            let t = check_tree(root)?;
            Ok(lint_core::Report {
                coverage: format!(
                    "{} loop sites: {} with BOUND comments ({} wait-edge)",
                    t.loops, t.bounded, t.wait_edges
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
fn f(n: usize) {
    loop {
        break;
    }
    'outer: loop { break 'outer; }
    while n > 0 { }
    while let Some(x) = it.next() { let _ = x; }
    // a comment saying loop { and while this
    let s = "prose: loop { while waiting";
    std::hint::spin_loop();
    let whiled = 1; let looper = 2; // identifiers, not keywords
}
"#;

    #[test]
    fn scanner_classifies_loop_kinds() {
        let sites = scan_source("x.rs", SRC);
        let got: Vec<String> = sites.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            got,
            [
                "x.rs:3 loop",
                "x.rs:6 loop",
                "x.rs:7 while",
                "x.rs:8 while-let",
            ]
        );
    }

    /// `SRC` with `// BOUND(<class>): <why>` above every loop head.
    fn bounded(class: &str, why: &str) -> String {
        let mut out = String::new();
        for l in SRC.lines() {
            let t = l.trim_start();
            if t.starts_with("loop") || t.starts_with("'outer") || t.starts_with("while") {
                out.push_str(&format!("    // BOUND({class}): {why}\n"));
            }
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    fn check(text: &str) -> Tally {
        let mut tally = Tally::default();
        check_source("x.rs", text, &mut tally);
        tally
    }

    #[test]
    fn classified_contract_passes() {
        let t = check(&bounded("const", "breaks at once"));
        assert_eq!(t.errors, Vec::<String>::new());
        assert_eq!((t.loops, t.bounded, t.wait_edges), (4, 4, 0));
    }

    #[test]
    fn todo_bound_class_fails_as_unclassified() {
        let t = check(&bounded("TODO", "-"));
        assert_eq!(t.errors.len(), 4, "{:?}", t.errors);
        assert!(t.errors.iter().all(|e| e.contains("unclassified loop")));
    }

    #[test]
    fn wait_edge_requires_justification() {
        let t = check(&bounded("wait-edge", "parks on the empty edge"));
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(t.wait_edges, 4);
        let src = bounded("wait-edge", "parks on the empty edge").replacen(
            "parks on the empty edge",
            "",
            1,
        );
        let t = check(&src);
        assert_eq!(t.errors.len(), 1, "{:?}", t.errors);
        assert!(
            t.errors[0].contains("unjustified wait-edge"),
            "{}",
            t.errors[0]
        );
    }

    #[test]
    fn loop_without_bound_fails() {
        let t = check(SRC);
        assert_eq!(t.errors.len(), 4, "{:?}", t.errors);
        assert!(t.errors.iter().all(|e| e.contains("loop without BOUND")));
    }
}
