//! CLI for the progress contract lint. Clippy-style exit codes: 0 clean,
//! 1 contract violations, 2 usage/IO error.
//!
//! ```text
//! cargo run -p progress-lint   # check crates/*/src
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    lint_core::run_cli(&progress_lint::spec())
}
