//! m3-lint: first-party static analysis for the M3 reproduction.
//!
//! A zero-third-party-dependency analyzer built on a spanned-token Rust
//! lexer ([`lexer`]) and a brace-matched block tree ([`tree`]). It enforces
//! the methodology invariants only this repo can state (see DESIGN.md,
//! "Static analysis & invariants" and §5g):
//!
//! 1. **cost-citation** — every numeric constant in a cost/timing module
//!    cites the paper section it came from;
//! 2. **isolation** — the `KernelToken`-gated DTU configuration surface is
//!    reachable only from `crates/kernel` and sanctioned test code
//!    (use-graph check, including pub wrappers and in-dtu backdoors);
//! 3. **cycle-accounting** — `pub` fns in dtu/noc/sched that write
//!    architectural state must reach a cycle-charging call.
//!
//! Determinism, no-unwrap and borrow-across-await are clippy's job: the
//! root `clippy.toml`, `#![warn(clippy::unwrap_used, clippy::expect_used)]`
//! in `kernel`, `dtu` and `fs`, and the default `await_holding_refcell_ref`.
//!
//! Violations can be suppressed inline with a mandatory justification:
//!
//! ```text
//! pub fn admit(&mut self, v: VpeId) { // m3lint: allow(cycle-accounting): the kernel charges the switch protocol
//! ```
//!
//! Run it with `cargo run -p m3-lint` (add `--json` for the machine-readable
//! findings document); it exits nonzero on any unsuppressed finding, so it
//! can gate CI.

pub mod cycles;
pub mod isolation;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod tree;

use std::fs;
use std::path::{Path, PathBuf};

pub use json::findings_to_json;
pub use rules::{check_file, classify, Finding, RULES};

/// Recursively collects the `.rs` files under `root`, skipping build
/// output, dot-directories, and the lint corpus (whose files are
/// deliberately full of violations and are checked by their own harness).
///
/// Returned paths keep `root` as their prefix; entries are sorted so runs
/// are reproducible.
pub fn collect_rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "lint_corpus" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lints every `.rs` file under the given roots (repo-relative paths).
///
/// Unreadable files are skipped: the build will report them more usefully.
pub fn run(repo_root: &Path, roots: &[&str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for root in roots {
        for path in collect_rust_files(&repo_root.join(root)) {
            let Ok(source) = fs::read_to_string(&path) else {
                continue;
            };
            let rel = path.strip_prefix(repo_root).unwrap_or(&path);
            findings.extend(check_file(rel, &source));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_is_sorted_and_skips_hidden_and_corpus() {
        let dir = std::env::temp_dir().join("m3lint-collect-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("b")).unwrap();
        fs::create_dir_all(dir.join(".git")).unwrap();
        fs::create_dir_all(dir.join("target")).unwrap();
        fs::create_dir_all(dir.join("lint_corpus")).unwrap();
        fs::write(dir.join("b/z.rs"), "").unwrap();
        fs::write(dir.join("a.rs"), "").unwrap();
        fs::write(dir.join(".git/c.rs"), "").unwrap();
        fs::write(dir.join("target/d.rs"), "").unwrap();
        fs::write(dir.join("lint_corpus/e.rs"), "").unwrap();
        let files = collect_rust_files(&dir);
        let names: Vec<String> = files
            .iter()
            .map(|p| p.strip_prefix(&dir).unwrap().display().to_string())
            .collect();
        assert_eq!(names, vec!["a.rs".to_string(), "b/z.rs".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
