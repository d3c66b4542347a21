//! Shared engine for the contract lints (DESIGN.md §15).
//!
//! Three lints ride this crate — `ordering-lint` (atomic orderings),
//! `progress-lint` (loop bounds), and `unsafe-lint` (`unsafe` sites). They
//! share one methodology: a deliberately **textual** scanner walks every
//! `.rs` file under `crates/*/src` — zero dependencies, no macro
//! expansion, no cfg evaluation, so every branch of cfg-gated code (both
//! DWCAS backends, the `wcq_dst` seam) is seen in one pass — and each
//! discovered site must carry its argument in a tagged comment next to it
//! (`// ORDERING:`, `// BOUND(<class>):`, `// SAFETY:`). The contract lives
//! at the code, so an edit that moves a site moves its argument with it.
//!
//! What lives here: the line/comment/string indexing, the cross-line
//! balanced-paren walk, word-boundary token search, the `crates/*/src`
//! tree walk, the adjacent-annotation finder, workspace-root discovery,
//! and the clippy-style CLI protocol (exit 0 clean, 1 contract violations,
//! 2 usage/IO error). What lives in each lint: its needle set, its tag
//! grammar, and which lines its annotations may step over.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Longest argument list (in bytes) [`call_span`] will walk looking for
/// the closing paren; calls longer than this are ill-formed for our
/// purposes.
pub const MAX_CALL_SPAN: usize = 2000;

/// One discovered site (an atomic op, a loop head, an `unsafe` token).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the site's token.
    pub line: usize,
    /// What the site is, for diagnostics (`"load(Acquire)"`,
    /// `"while-let"`, `"unsafe(block)"`).
    pub sig: String,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.file, self.line, self.sig)
    }
}

/// A clippy-style error about `site`.
pub fn error(headline: &str, site: &Site, note: &str) -> String {
    format!("error: {headline}\n  --> {site}\n  = note: {note}")
}

// ===================================================================
// Text scanning
// ===================================================================

/// `true` for bytes that extend an identifier (used for the word-boundary
/// checks on every needle match).
pub fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte-offset → line-number index over one file's text, plus the
/// comment/string classification every scanner needs.
pub struct LineIndex<'t> {
    text: &'t str,
    starts: Vec<usize>,
}

impl<'t> LineIndex<'t> {
    /// Indexes `text`'s line starts.
    pub fn new(text: &'t str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { text, starts }
    }

    /// 1-based line number of byte offset `off`.
    pub fn line_of(&self, off: usize) -> usize {
        self.starts.partition_point(|&s| s <= off)
    }

    /// The text of 1-based `line`, including its newline; empty past the
    /// end of the file.
    pub fn line_text(&self, line: usize) -> &'t str {
        let Some(&start) = self.starts.get(line.wrapping_sub(1)) else {
            return "";
        };
        let end = self.starts.get(line).copied().unwrap_or(self.text.len());
        &self.text[start..end]
    }

    /// Whether 1-based `line` is a comment line (`//`, `///`, `//!` after
    /// leading whitespace).
    pub fn is_comment_line(&self, line: usize) -> bool {
        self.line_text(line).trim_start().starts_with("//")
    }

    /// Whether byte offset `off` falls inside a string literal *on its own
    /// line* — the crude single-line heuristic the textual scanners use:
    /// count unescaped, non-char-literal `"` between the line start and
    /// `off`; an odd count means `off` is inside a string. Multi-line
    /// string literals defeat it; the tree has none containing lint
    /// needles, and the against-the-tree tests would catch one appearing.
    pub fn in_string(&self, off: usize) -> bool {
        let start = self.starts[self.line_of(off) - 1];
        let bytes = self.text.as_bytes();
        let mut quotes = 0usize;
        let mut i = start;
        while i < off {
            match bytes[i] {
                b'\\' => i += 1, // skip the escaped byte
                b'"' => {
                    // `'"'` is a char literal, not a string delimiter.
                    let char_lit =
                        i > start && bytes[i - 1] == b'\'' && bytes.get(i + 1) == Some(&b'\'');
                    if !char_lit {
                        quotes += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        quotes % 2 == 1
    }

    /// The annotation argued for the site on `line`: the text `tag` finds
    /// on the site's own line (the trailing-comment form), or in the
    /// contiguous block of comment and attribute lines directly above it.
    /// The upward walk also steps over lines `step_over` accepts — each
    /// lint's rule for lines that share the comment above them (a run of
    /// atomic ops, a stacked `unsafe impl` pair). `tag` returns the text
    /// after the lint's tag when a line carries it.
    pub fn annotation(
        &self,
        line: usize,
        tag: impl Fn(&'t str) -> Option<&'t str>,
        step_over: impl Fn(usize) -> bool,
    ) -> Option<&'t str> {
        if let Some(why) = tag(self.line_text(line)) {
            return Some(why);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let t = self.line_text(l).trim_start();
            if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") {
                if let Some(why) = tag(t) {
                    return Some(why);
                }
            } else if !step_over(l) {
                break;
            }
        }
        None
    }
}

/// The text after `tag` in the file's module-doc (`//!`) paragraph that
/// starts with it, if the file has one.
pub fn module_note<'t>(text: &'t str, tag: &str) -> Option<&'t str> {
    text.lines().find_map(|l| {
        l.trim_start()
            .strip_prefix("//!")?
            .trim_start()
            .strip_prefix(tag)
    })
}

/// `true` for annotation text that does not count as an argument.
pub fn is_placeholder(why: &str) -> bool {
    let j = why.trim();
    j.is_empty() || j == "-" || j.eq_ignore_ascii_case("todo")
}

/// Byte offset of the `)` closing the call whose `(` is at `open`, walking
/// nested parens across lines; `None` if unbalanced within
/// [`MAX_CALL_SPAN`].
pub fn call_span(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate().skip(open).take(MAX_CALL_SPAN) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Occurrences of `tokens` appearing as whole words in `span`, in byte
/// order (the ordering-token extractor, reusable for any keyword set).
pub fn word_tokens_in<'t>(span: &str, tokens: &[&'t str]) -> Vec<&'t str> {
    let mut found: Vec<(usize, &'t str)> = tokens
        .iter()
        .flat_map(|tok| find_word(span, tok).into_iter().map(move |at| (at, *tok)))
        .collect();
    found.sort_by_key(|&(at, _)| at);
    found.into_iter().map(|(_, t)| t).collect()
}

/// Byte offsets of whole-word occurrences of `word` in `text` (both
/// neighbors must be non-identifier bytes).
pub fn find_word(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let at = from + rel;
        from = at + word.len();
        let pre_ok = at == 0 || !is_ident(bytes[at - 1]);
        let post = at + word.len();
        let post_ok = post >= bytes.len() || !is_ident(bytes[post]);
        if pre_ok && post_ok {
            out.push(at);
        }
    }
    out
}

// ===================================================================
// Tree walk
// ===================================================================

/// Every `.rs` file under `root/crates/*/src`, sorted, as
/// `(workspace-relative path with forward slashes, text)`.
pub fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path);
            Ok((rel.to_string_lossy().replace('\\', "/"), text))
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ===================================================================
// Workspace root + CLI protocol
// ===================================================================

/// Locates the workspace root: the nearest ancestor of `start` containing
/// a `Cargo.toml` with a `[workspace]` section.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if let Ok(text) = std::fs::read_to_string(d.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// A lint's verdict over the tree.
pub struct Report {
    /// How the sites are covered, for the summary line (e.g. `"427 atomic
    /// sites: 360 under 26 module notes, 67 with site comments"`).
    pub coverage: String,
    /// Clippy-style error strings; empty means clean.
    pub errors: Vec<String>,
}

/// Everything a lint binary needs to speak the shared CLI protocol:
/// `[--root <dir>]`, exit 0 clean / 1 violations / 2 usage-or-IO.
pub struct LintSpec {
    /// Binary name, e.g. `"ordering-lint"`.
    pub name: &'static str,
    /// One line for `--help`: what the lint checks.
    pub about: &'static str,
    /// Scans and checks the tree under the workspace root.
    pub run: fn(&Path) -> std::io::Result<Report>,
}

/// Runs a lint's CLI: parses arguments, locates the root, checks, and
/// prints the errors plus one summary line. The shared exit-code protocol
/// lives here so all three lints behave identically in CI.
pub fn run_cli(spec: &LintSpec) -> ExitCode {
    let usage = |msg: &str| -> ExitCode {
        eprintln!(
            "error: {msg}\nusage: {} [--root <workspace-root>]",
            spec.name
        );
        ExitCode::from(2)
    };

    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "-h" | "--help" => {
                eprintln!(
                    "{}: {}\nusage: {} [--root <workspace-root>]",
                    spec.name, spec.about, spec.name
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => return usage("could not locate the workspace root (pass --root)"),
    };

    let report = match (spec.run)(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let mut errors = report.errors;
    errors.sort();
    for e in &errors {
        eprintln!("{e}\n");
    }
    eprintln!(
        "{}: {}: {}",
        spec.name,
        report.coverage,
        if errors.is_empty() {
            "clean".to_string()
        } else {
            format!("{} error(s)", errors.len())
        }
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_index_maps_offsets_comments_and_strings() {
        let text = "let a = 1;\n// comment .load(\nlet s = \"x while y\"; while t {}\n";
        let idx = LineIndex::new(text);
        assert_eq!(idx.line_of(0), 1);
        assert_eq!(idx.line_of(text.find("comment").unwrap()), 2);
        assert!(idx.is_comment_line(2));
        assert!(!idx.is_comment_line(3));
        let in_str = text.find("x while").unwrap() + 2;
        assert!(idx.in_string(in_str));
        let while_stmt = text.rfind("while").unwrap();
        assert!(!idx.in_string(while_stmt));
    }

    #[test]
    fn in_string_ignores_escapes_and_char_literals() {
        let text = r#"let c = '"'; let s = "a\"b"; while x {}"#;
        let idx = LineIndex::new(text);
        let at = text.rfind("while").unwrap();
        assert!(!idx.in_string(at), "char-literal quote must not count");
    }

    #[test]
    fn call_span_walks_nested_parens_across_lines() {
        let text = "f(\n  g(1, 2),\n  h(3),\n)";
        assert_eq!(call_span(text, 1), Some(text.len() - 1));
        assert_eq!(call_span("f(", 1), None);
    }

    #[test]
    fn word_tokens_respect_boundaries_and_order() {
        let toks = ["Acquire", "Release"];
        assert_eq!(
            word_tokens_in("Release, PreAcquirePost, Acquire", &toks),
            ["Release", "Acquire"]
        );
        assert_eq!(find_word("spin_loop loop looped", "loop"), vec![10]);
    }

    fn tag(l: &str) -> Option<&str> {
        l.split_once("NOTE:").map(|(_, why)| why.trim())
    }

    #[test]
    fn annotation_is_trailing_or_in_the_block_above() {
        let text = "\
// NOTE: above
#[inline]
site();
other(); // NOTE: trailing
x();

// NOTE: stale
y();
site();
";
        let idx = LineIndex::new(text);
        let never = |_| false;
        assert_eq!(idx.annotation(3, tag, never), Some("above"));
        assert_eq!(idx.annotation(4, tag, never), Some("trailing"));
        // A code line ends the block; a blank line ends it too.
        assert_eq!(idx.annotation(5, tag, never), None);
        assert_eq!(idx.annotation(9, tag, never), None);
        // Unless the lint lets its walk step over that code line.
        assert_eq!(idx.annotation(9, tag, |l| l == 8), Some("stale"));
    }

    #[test]
    fn module_note_reads_the_tagged_doc_paragraph() {
        let text = "//! Intro.\n//!\n//! NOTE: shared argument\n\nfn f() {} // NOTE: site\n";
        assert_eq!(module_note(text, "NOTE:"), Some(" shared argument"));
        assert_eq!(module_note("// NOTE: plain comment\n", "NOTE:"), None);
    }

    #[test]
    fn placeholder_cells_are_recognized() {
        assert!(is_placeholder(" todo "));
        assert!(is_placeholder("-"));
        assert!(is_placeholder(""));
        assert!(!is_placeholder("bounded by capacity"));
    }
}
