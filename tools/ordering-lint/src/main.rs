//! CLI for the atomic-ordering contract lint. Clippy-style exit codes:
//! 0 clean, 1 contract violations, 2 usage/IO error.
//!
//! ```text
//! cargo run -p ordering-lint   # check crates/*/src
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    lint_core::run_cli(&ordering_lint::spec())
}
