//! The repo-specific rule set and the per-file checking engine.
//!
//! The rules clippy cannot express (DESIGN.md "Static analysis &
//! invariants" and §5g; determinism, no-unwrap and borrow-across-await are
//! clippy's, configured in `clippy.toml` and crate attributes):
//!
//! - **cost-citation** — every numeric constant in a cost/timing module must
//!   cite the paper section it was taken from (§4.2).
//! - **isolation** — the kernel-only DTU configuration surface (the
//!   `KernelToken`-gated setters) may only be *reached* from `crates/kernel`
//!   and test code, mirroring the paper's §4.4 isolation argument. Checked
//!   as a use-graph: naming a gated setter, wrapping one in a `pub` fn, or
//!   (inside `crates/dtu`) exposing a non-token path to one all count.
//! - **cycle-accounting** — `pub` fns in dtu/noc/sched that write
//!   architectural state must reach a cycle-charging call; see
//!   [`crate::cycles`].
//! - **suppression** — pseudo-rule for malformed suppressions themselves.
//!
//! All checks run on the spanned token stream from [`crate::lexer`] and the
//! block tree from [`crate::tree`], so string literals, comments, raw
//! strings and char literals can never confuse an identifier match.

use std::path::Path;

use crate::lexer::{lex, Kind, Token};
use crate::tree::Tree;
use crate::{cycles, isolation};

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to [`check_file`].
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (usable in a suppression).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule identifiers, as accepted by `// m3lint: allow(<rule>): <why>`.
pub const RULES: &[&str] = &["cost-citation", "isolation", "cycle-accounting"];

/// How a path is classified for rule scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// The crate the file belongs to (`"repro"` for the workspace root).
    pub krate: String,
    /// Sanctioned harness code (under `tests/`, `benches/` or `examples/`)
    /// rather than simulation source.
    pub is_harness: bool,
}

/// Classifies a repo-relative path like `crates/dtu/src/dtu.rs`.
pub fn classify(path: &Path) -> FileClass {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    let krate = if comps.first() == Some(&"crates") && comps.len() > 1 {
        comps[1].to_string()
    } else {
        "repro".to_string()
    };
    FileClass {
        krate,
        is_harness: comps
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples")),
    }
}

/// A parsed `m3lint: allow(...)` suppression.
#[derive(Debug, Clone)]
struct Suppression {
    rules: Vec<String>,
    justified: bool,
    /// Line the suppression was written on.
    line: usize,
    /// Whether the comment shares its line with code (suppresses that line)
    /// or stands alone (suppresses the next line).
    trailing: bool,
}

/// The suppression-relevant text of a comment token: the text after `//`
/// (doc comments keep their extra slash/bang, so they never suppress), or
/// the interior of a block comment.
fn comment_payload<'s>(tok: &Token, src: &'s str) -> &'s str {
    let text = tok.text(src);
    if let Some(rest) = text.strip_prefix("//") {
        rest
    } else {
        text.strip_prefix("/*")
            .map(|t| t.strip_suffix("*/").unwrap_or(t))
            .unwrap_or(text)
    }
}

fn parse_suppression(tree: &Tree, tok: &Token) -> Option<Suppression> {
    // Only a comment that *starts* with the marker is a suppression; prose
    // that merely mentions the syntax (like this crate's docs) is not.
    let text = comment_payload(tok, tree.src).trim();
    let rest = text.strip_prefix("m3lint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let open = rest.strip_prefix('(')?;
    let close = open.find(')')?;
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = open[close + 1..].trim_start();
    let justified = match after.strip_prefix(':') {
        Some(just) => !just.trim().is_empty(),
        None => false,
    };
    let trailing = tree
        .lines
        .get(&tok.line)
        .map(|l| l.has_code)
        .unwrap_or(false);
    Some(Suppression {
        rules,
        justified,
        line: tok.line,
        trailing,
    })
}

/// Checks one file's source against every applicable rule.
///
/// `path` must be repo-relative (used for rule scoping and reporting).
pub fn check_file(path: &Path, source: &str) -> Vec<Finding> {
    let class = classify(path);
    let toks = lex(source);
    let tree = Tree::build(source, &toks);
    let file = path.display().to_string();

    // Collect suppressions first: map line number -> suppressed rules.
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for tok in &tree.comments {
        if let Some(sup) = parse_suppression(&tree, tok) {
            if !sup.justified {
                findings.push(Finding {
                    file: file.clone(),
                    line: sup.line,
                    rule: "suppression",
                    message: "m3lint suppression lacks a justification: write \
                              `// m3lint: allow(<rule>): <why this is sound>`"
                        .to_string(),
                });
            }
            for r in &sup.rules {
                if !RULES.contains(&r.as_str()) {
                    findings.push(Finding {
                        file: file.clone(),
                        line: sup.line,
                        rule: "suppression",
                        message: format!(
                            "unknown rule `{r}` in m3lint suppression (known: {})",
                            RULES.join(", ")
                        ),
                    });
                }
            }
            suppressions.push(sup);
        }
    }
    let allowed = |rule: &str, line_no: usize| -> bool {
        suppressions.iter().any(|s| {
            s.justified
                && s.rules.iter().any(|r| r == rule)
                && ((s.trailing && s.line == line_no) || (!s.trailing && s.line + 1 == line_no))
        })
    };
    let mut push = |rule: &'static str, line_no: usize, message: String| {
        if !allowed(rule, line_no) {
            findings.push(Finding {
                file: file.clone(),
                line: line_no,
                rule,
                message,
            });
        }
    };

    // Cost accounting: every cost/timing module holds model constants.
    let file_name = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
    if matches!(file_name, "costs.rs" | "timing.rs") {
        check_cost_citations(&tree, &mut push);
    }
    isolation::check(&tree, &class, &mut push);
    cycles::check(&tree, &class, &mut push);

    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
    findings
}

/// Every `const` with a numeric initializer in a costs module must carry a
/// `§`-citation in a comment on the same line or in the doc block above.
fn check_cost_citations(tree: &Tree, push: &mut impl FnMut(&'static str, usize, String)) {
    for i in 0..tree.code.len() {
        if tree.test_mask[i] || !tree.is_ident(i, "const") {
            continue;
        }
        let line_no = tree.code[i].line;
        // Only `const` at the start of its line (optionally behind `pub`)
        // declares a cost constant; a `const` in an expression does not.
        let leading = tree.code[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == line_no)
            .all(|t| matches!(t.text(tree.src), "pub" | "(" | "crate" | ")"));
        if !leading {
            continue;
        }
        // `const fn` is a function, not a constant.
        if i + 1 < tree.code.len() && tree.is_ident(i + 1, "fn") {
            continue;
        }
        // Scan the declaration: `const NAME: Ty = init;` — a citation is
        // required only when the initializer contains a numeric literal
        // (re-exports and derived constants inherit theirs).
        let mut j = i + 1;
        let mut saw_eq = false;
        let mut numeric = false;
        while j < tree.code.len() {
            let t = &tree.code[j];
            if t.kind == Kind::Punct && t.text(tree.src) == ";" {
                break;
            }
            if t.kind == Kind::Punct && t.text(tree.src) == "=" {
                saw_eq = true;
            } else if saw_eq && t.kind == Kind::Num {
                numeric = true;
            }
            j += 1;
        }
        if !saw_eq || !numeric {
            continue;
        }
        if cited(tree, line_no) {
            continue;
        }
        push(
            "cost-citation",
            line_no,
            "numeric cost constant without a paper citation: add a \
             `§x.y` reference in its doc comment"
                .to_string(),
        );
    }
}

/// Whether the constant on `line_no` carries a `§` citation: in a trailing
/// comment on its own line, or in the contiguous comment/attribute block
/// directly above it.
fn cited(tree: &Tree, line_no: usize) -> bool {
    if let Some(info) = tree.lines.get(&line_no) {
        if info.comment.contains('§') {
            return true;
        }
    }
    let mut j = line_no;
    while j > 1 {
        j -= 1;
        let Some(info) = tree.lines.get(&j) else {
            return false; // fully blank line ends the doc block
        };
        if info.has_code && !info.starts_with_attr {
            return false;
        }
        if info.comment.contains('§') {
            return true;
        }
        if !info.has_code && info.comment.is_empty() {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&PathBuf::from(path), src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    /// A user-level crate, where naming the kernel surface is a finding.
    const USER: &str = "crates/libos/src/gate.rs";

    // ---------------- token-level matching ----------------

    #[test]
    fn rules_ignore_strings_and_comments() {
        let f = check(
            USER,
            "// KernelToken would be wrong here\nlet s = \"KernelToken\"; /* set_privileged */\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rules_ignore_raw_strings_and_byte_chars() {
        // Lexer edge cases: a raw string with a `#`-count mismatch inside,
        // and byte-char literals, must not leak identifiers into the rules.
        let src =
            "let a = r##\"KernelToken \"# refill_credits\"##;\nlet b = b'K'; let c = b'\\n';\n";
        let f = check(USER, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rules_ignore_nested_block_comments() {
        let src = "/* outer /* KernelToken inner */ set_privileged still comment */ fn f() {}\n";
        let f = check(USER, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rules_skip_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    use m3_dtu::KernelToken;\n}\n";
        assert!(check(USER, src).is_empty());
    }

    // ---------------- cost-citation ----------------

    #[test]
    fn cost_citation_requires_section_mark() {
        let src = "/// DRAM access latency.\npub const DRAM: u64 = 40;\n";
        let f = check("crates/kernel/src/costs.rs", src);
        assert_eq!(rules_of(&f), vec!["cost-citation"]);
    }

    #[test]
    fn cost_citation_satisfied_by_doc_block() {
        let src = "/// DRAM access latency (paper §4.2, Table 1).\npub const DRAM: u64 = 40;\n";
        assert!(check("crates/kernel/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_satisfied_by_trailing_comment() {
        let src = "pub const DRAM: u64 = 40; // §4.2\n";
        assert!(check("crates/lx/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_ignores_non_numeric_consts() {
        let src = "pub const NAME: &str = \"m3\";\npub const ALIAS: u64 = OTHER;\n";
        assert!(check("crates/kernel/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_ignores_digits_in_identifiers() {
        // `X2` contains a digit but is an identifier, not a literal: the
        // old line scanner flagged this; the token engine must not.
        let src = "pub const ALIAS: u64 = OTHER_V2;\n";
        assert!(check("crates/kernel/src/costs.rs", src).is_empty());
    }

    #[test]
    fn cost_citation_only_in_cost_modules() {
        let src = "pub const SLOTS: usize = 8;\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
    }

    // ---------------- isolation ----------------

    #[test]
    fn isolation_allows_kernel_dtu_and_tests() {
        let src = "let t = dtu.claim_kernel_token();\n";
        assert!(check("crates/kernel/src/kernel.rs", src).is_empty());
        assert!(check("crates/dtu/src/dtu.rs", src).is_empty());
        assert!(check("tests/system_integration.rs", src).is_empty());
        assert!(check("crates/bench/benches/micro.rs", src).is_empty());
    }

    // ---------------- reporting ----------------

    #[test]
    fn finding_display_format() {
        let f = check(USER, "use m3_dtu::KernelToken;\n");
        let s = f[0].to_string();
        assert!(s.contains("crates/libos/src/gate.rs:1:"));
        assert!(s.contains("[isolation]"));
    }
}
