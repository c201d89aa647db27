//! The brace-matched block tree: items, functions, and test regions.
//!
//! Built on the token stream from [`crate::lexer`], this module recovers
//! just enough structure for per-function dataflow:
//!
//! - every `fn` with its name, visibility, enclosing `impl` type, and the
//!   token span of its body;
//! - which tokens sit inside `#[cfg(test)]`-gated items or `#[test]` fns;
//! - a per-line summary (code present? comment text?) that the suppression
//!   and cost-citation passes read.
//!
//! It is deliberately not a parser: it walks the token stream recursively,
//! matching delimiters, and recognizes item heads (`fn`, `mod`, `impl`,
//! `trait`) wherever they occur. Everything else is skipped.

use std::collections::BTreeMap;

use crate::lexer::{Kind, Token};

/// One function (or method) found in the file.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword (where fn-level findings are reported and
    /// fn-level suppressions attach).
    pub sig_line: usize,
    /// `pub`, `pub(crate)`, … — any visibility beyond private.
    pub is_pub: bool,
    /// Inside `#[cfg(test)]` code or itself a `#[test]`.
    pub in_test: bool,
    /// The `impl` type the method belongs to, if any.
    pub impl_of: Option<String>,
    /// Token index range of the body: `code[open]` is the `{` and
    /// `code[close]` the matching `}`. `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
}

/// Per-line facts used by line-oriented passes (suppressions, citations).
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Whether any non-comment token starts on this line.
    pub has_code: bool,
    /// Whether the first non-comment token on this line is `#` (attribute).
    pub starts_with_attr: bool,
    /// Concatenated comment text attributed to this line. Multi-line block
    /// comments contribute each of their lines to the matching entry.
    pub comment: String,
}

/// The analyzed file: code tokens, functions, and line summaries.
pub struct Tree<'s> {
    /// The source text (for token text lookups).
    pub src: &'s str,
    /// Non-comment tokens, in source order.
    pub code: Vec<Token>,
    /// Comment tokens, in source order.
    pub comments: Vec<Token>,
    /// Parallel to `code`: token sits inside test-gated code.
    pub test_mask: Vec<bool>,
    /// Every function found, in source order.
    pub functions: Vec<Function>,
    /// Facts per 1-based line number.
    pub lines: BTreeMap<usize, LineInfo>,
}

impl<'s> Tree<'s> {
    /// Builds the tree from a lexed token stream.
    pub fn build(src: &'s str, toks: &[Token]) -> Tree<'s> {
        let mut code = Vec::with_capacity(toks.len());
        let mut comments = Vec::new();
        let mut lines: BTreeMap<usize, LineInfo> = BTreeMap::new();
        for t in toks {
            if t.kind.is_comment() {
                // Attribute each line of the comment's text to its line
                // entry, so `§` citations inside block comments resolve.
                for (off, text_line) in t.text(src).lines().enumerate() {
                    let entry = lines.entry(t.line + off).or_default();
                    if !entry.comment.is_empty() {
                        entry.comment.push(' ');
                    }
                    entry.comment.push_str(text_line);
                }
                comments.push(*t);
            } else {
                let entry = lines.entry(t.line).or_default();
                if !entry.has_code {
                    entry.has_code = true;
                    entry.starts_with_attr = t.kind == Kind::Punct && t.text(src) == "#";
                }
                code.push(*t);
            }
        }
        let mut tree = Tree {
            src,
            code,
            comments,
            test_mask: Vec::new(),
            functions: Vec::new(),
            lines,
        };
        tree.test_mask = vec![false; tree.code.len()];
        let end = tree.code.len();
        let mut walker = Walker { tree: &mut tree };
        walker.walk(0, end, &Scope::default());
        tree
    }

    /// The text of code token `i`.
    pub fn text(&self, i: usize) -> &'s str {
        self.code[i].text(self.src)
    }

    /// The identifiers in `f`'s body, in source order.
    pub fn body_idents(&self, f: &Function) -> Vec<&'s str> {
        let Some((open, close)) = f.body else {
            return Vec::new();
        };
        (open..=close.min(self.code.len().saturating_sub(1)))
            .filter(|&i| self.code[i].kind == Kind::Ident)
            .map(|i| self.text(i))
            .collect()
    }

    /// Closes `marked` over same-file calls, to a fixpoint: function `i`
    /// becomes marked when it is not `blocked` and its body (`bodies[i]`,
    /// from [`Tree::body_idents`]) names a marked function.
    pub fn reach_through_calls(
        &self,
        bodies: &[Vec<&str>],
        mut marked: Vec<bool>,
        blocked: impl Fn(usize) -> bool,
    ) -> Vec<bool> {
        loop {
            let mut changed = false;
            for i in 0..self.functions.len() {
                if marked[i] || blocked(i) {
                    continue;
                }
                let calls_marked = bodies[i].iter().any(|id| {
                    self.functions
                        .iter()
                        .zip(&marked)
                        .any(|(g, &m)| m && g.name == *id)
                });
                if calls_marked {
                    marked[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return marked;
            }
        }
    }

    /// Whether code token `i` is the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.code[i].kind == Kind::Ident && self.text(i) == name
    }

    /// Whether code token `i` is the punctuation character `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.code[i].kind == Kind::Punct && self.text(i).as_bytes() == [c as u8]
    }

    /// The index of the delimiter closing the one at `open`, or `end` if
    /// unbalanced. `open` must be an Open* token.
    pub fn matching(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < end {
            match self.code[i].kind {
                Kind::OpenParen | Kind::OpenBracket | Kind::OpenBrace => depth += 1,
                Kind::CloseParen | Kind::CloseBracket | Kind::CloseBrace => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }
}

/// Lexical context inherited while walking nested items.
#[derive(Debug, Clone, Default)]
struct Scope {
    in_test: bool,
    impl_of: Option<String>,
}

/// Modifiers collected since the last item head / statement boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    test_attr: bool,
    is_pub: bool,
}

struct Walker<'t, 's> {
    tree: &'t mut Tree<'s>,
}

impl Walker<'_, '_> {
    /// Walks `code[start..end]` collecting items; `scope` is inherited.
    fn walk(&mut self, start: usize, end: usize, scope: &Scope) {
        let mut i = start;
        let mut pending = Pending::default();
        while i < end {
            let t = self.tree.code[i];
            match t.kind {
                Kind::Punct if self.tree.text(i) == "#" => {
                    // `#[...]` / `#![...]`: scan the attribute, note test
                    // gating. `#[cfg(not(test))]` is explicitly NOT a test
                    // gate; `#[cfg(test)]`, `#[cfg(all(test, ...))]` and the
                    // bare `#[test]` marker are.
                    let mut j = i + 1;
                    if j < end && self.tree.text(j) == "!" {
                        j += 1;
                    }
                    if j < end && self.tree.code[j].kind == Kind::OpenBracket {
                        let close = self.tree.matching(j, end);
                        let idents: Vec<&str> = (j..close.min(end))
                            .filter(|&k| self.tree.code[k].kind == Kind::Ident)
                            .map(|k| self.tree.text(k))
                            .collect();
                        let is_test = idents.as_slice() == ["test"]
                            || (idents.contains(&"cfg")
                                && idents.contains(&"test")
                                && !idents.contains(&"not"));
                        pending.test_attr |= is_test;
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                Kind::Ident => match self.tree.text(i) {
                    "pub" => {
                        pending.is_pub = true;
                        i += 1;
                        if i < end && self.tree.code[i].kind == Kind::OpenParen {
                            i = self.tree.matching(i, end) + 1;
                        }
                    }
                    "fn" => {
                        i = self.item_fn(i, end, scope, pending);
                        pending = Pending::default();
                    }
                    "mod" => {
                        i = self.item_braced(i, end, scope, pending, None);
                        pending = Pending::default();
                    }
                    "impl" => {
                        let name = self.impl_type_name(i + 1, end);
                        i = self.item_braced(i, end, scope, pending, name);
                        pending = Pending::default();
                    }
                    "trait" => {
                        i = self.item_braced(i, end, scope, pending, None);
                        pending = Pending::default();
                    }
                    "async" | "unsafe" | "const" | "extern" | "default" => {
                        // Possible fn qualifiers; keep pending modifiers.
                        i += 1;
                    }
                    _ => {
                        i += 1;
                        pending = Pending::default();
                    }
                },
                Kind::OpenBrace => {
                    // A stray block (fn body statement, match arm, …):
                    // recurse so nested items are still found.
                    let close = self.tree.matching(i, end);
                    self.walk(i + 1, close, scope);
                    i = close + 1;
                    pending = Pending::default();
                }
                Kind::OpenParen | Kind::OpenBracket => {
                    let close = self.tree.matching(i, end);
                    self.walk(i + 1, close, scope);
                    i = close + 1;
                }
                Kind::Punct if self.tree.text(i) == ";" => {
                    // Statement boundary: modifiers do not carry over.
                    // (`#[cfg(test)] use ...;` is gated forward, below.)
                    i += 1;
                    pending = Pending::default();
                }
                _ => {
                    i += 1;
                }
            }
            // A pending test attribute followed by a non-item statement
            // (e.g. `#[cfg(test)] use super::oracle;`) gates up to the next
            // `;`. Handled here: if the attribute survived to a plain token
            // run, mark until the statement ends.
            if pending.test_attr && i < end {
                let t = self.tree.code[i];
                let is_item_head = t.kind == Kind::Ident
                    && matches!(
                        t.text(self.tree.src),
                        "pub"
                            | "async"
                            | "fn"
                            | "mod"
                            | "impl"
                            | "trait"
                            | "unsafe"
                            | "const"
                            | "extern"
                            | "default"
                            | "static"
                            | "struct"
                            | "enum"
                            | "union"
                            | "type"
                            | "use"
                    );
                let is_attr = t.kind == Kind::Punct && t.text(self.tree.src) == "#";
                if !is_item_head && !is_attr {
                    // Not something an attribute can gate an item through;
                    // drop the pending state to avoid leaking it.
                    pending.test_attr = false;
                }
                if t.kind == Kind::Ident
                    && matches!(
                        t.text(self.tree.src),
                        "static" | "struct" | "enum" | "union" | "type" | "use"
                    )
                {
                    // Simple items: gate until `;` or a braced body.
                    let stop = self.gate_simple_item(i, end);
                    i = stop;
                    pending = Pending::default();
                }
            }
        }
        // Inherited test scope: mark the whole range.
        if scope.in_test {
            for k in start..end {
                self.tree.test_mask[k] = true;
            }
        }
    }

    /// Marks a `static`/`struct`/`use`/… item under `#[cfg(test)]` as test
    /// code; returns the index just past it.
    fn gate_simple_item(&mut self, i: usize, end: usize) -> usize {
        let mut j = i;
        while j < end {
            match self.tree.code[j].kind {
                Kind::OpenBrace => {
                    let close = self.tree.matching(j, end);
                    for k in i..=close.min(end - 1) {
                        self.tree.test_mask[k] = true;
                    }
                    return close + 1;
                }
                Kind::Punct if self.tree.text(j) == ";" => {
                    for k in i..=j {
                        self.tree.test_mask[k] = true;
                    }
                    return j + 1;
                }
                _ => j += 1,
            }
        }
        for k in i..end {
            self.tree.test_mask[k] = true;
        }
        end
    }

    /// An `fn` item at `i`; returns the index just past it.
    fn item_fn(&mut self, i: usize, end: usize, scope: &Scope, pending: Pending) -> usize {
        let sig_line = self.tree.code[i].line;
        // `fn` in a function-pointer type (`fn(u32) -> u32`) has no name.
        let Some(&name_tok) = Some(&(i + 1)).filter(|&&j| j < end) else {
            return i + 1;
        };
        if !matches!(self.tree.code[name_tok].kind, Kind::Ident | Kind::RawIdent) {
            return i + 1;
        }
        let name = self
            .tree
            .text(name_tok)
            .trim_start_matches("r#")
            .to_string();
        let in_test = scope.in_test || pending.test_attr;
        // Find the body `{` (or `;` for a bodyless declaration), skipping
        // parenthesized/bracketed groups in the signature.
        let mut j = name_tok + 1;
        let mut body = None;
        while j < end {
            match self.tree.code[j].kind {
                Kind::OpenParen | Kind::OpenBracket => j = self.tree.matching(j, end) + 1,
                Kind::OpenBrace => {
                    let close = self.tree.matching(j, end);
                    body = Some((j, close));
                    break;
                }
                Kind::Punct if self.tree.text(j) == ";" => break,
                _ => j += 1,
            }
        }
        self.tree.functions.push(Function {
            name,
            sig_line,
            is_pub: pending.is_pub,
            in_test,
            impl_of: scope.impl_of.clone(),
            body,
        });
        match body {
            Some((open, close)) => {
                if in_test {
                    for k in i..=close.min(end.saturating_sub(1)) {
                        self.tree.test_mask[k] = true;
                    }
                }
                let inner = Scope {
                    in_test,
                    impl_of: None,
                };
                self.walk(open + 1, close, &inner);
                close + 1
            }
            None => j + 1,
        }
    }

    /// A braced item (`mod`/`impl`/`trait`) at `i`; recurses into the body.
    fn item_braced(
        &mut self,
        i: usize,
        end: usize,
        scope: &Scope,
        pending: Pending,
        impl_of: Option<String>,
    ) -> usize {
        let in_test = scope.in_test || pending.test_attr;
        let mut j = i + 1;
        while j < end {
            match self.tree.code[j].kind {
                Kind::OpenBrace => {
                    let close = self.tree.matching(j, end);
                    if in_test {
                        for k in i..=close.min(end.saturating_sub(1)) {
                            self.tree.test_mask[k] = true;
                        }
                    }
                    let inner = Scope { in_test, impl_of };
                    self.walk(j + 1, close, &inner);
                    return close + 1;
                }
                Kind::Punct if self.tree.text(j) == ";" => {
                    // `mod name;` — nothing to recurse into.
                    if in_test {
                        for k in i..=j {
                            self.tree.test_mask[k] = true;
                        }
                    }
                    return j + 1;
                }
                Kind::OpenParen | Kind::OpenBracket => j = self.tree.matching(j, end) + 1,
                _ => j += 1,
            }
        }
        end
    }

    /// The self-type name of an `impl` header starting at `i` (just past
    /// the `impl` keyword): `impl Foo`, `impl<T> Foo<T>`,
    /// `impl Trait for Foo` — returns `Foo`.
    fn impl_type_name(&self, i: usize, end: usize) -> Option<String> {
        // Skip generic parameters directly after `impl`.
        let mut j = i;
        if j < end && self.tree.text(j) == "<" {
            let mut depth = 0i64;
            while j < end {
                match self.tree.text(j) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Collect the header up to `{` or `where`; if a `for` appears, the
        // self type is the path after it.
        let mut after_for: Option<usize> = None;
        let mut k = j;
        let mut stop = end;
        while k < end {
            let t = self.tree.code[k];
            if t.kind == Kind::OpenBrace {
                stop = k;
                break;
            }
            if t.kind == Kind::Ident && t.text(self.tree.src) == "where" {
                stop = k;
                break;
            }
            if t.kind == Kind::Ident && t.text(self.tree.src) == "for" {
                after_for = Some(k + 1);
            }
            k += 1;
        }
        let path_start = after_for.unwrap_or(j);
        // First path segment run: idents joined by `::`; the self type is
        // the last segment before generics or the end of the path.
        let mut last = None;
        let mut m = path_start;
        while m < stop {
            let t = self.tree.code[m];
            match t.kind {
                Kind::Ident => {
                    last = Some(t.text(self.tree.src).to_string());
                    m += 1;
                }
                Kind::Punct if t.text(self.tree.src) == ":" || t.text(self.tree.src) == "&" => {
                    m += 1;
                }
                _ => break,
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> Tree<'_> {
        let toks = lex(src);
        // The tokens are consumed by value into the tree's filtered lists.
        let t = Tree::build(src, &toks);
        t
    }

    #[test]
    fn finds_functions_with_modifiers() {
        let src = "pub async fn go(x: u32) -> u32 { x }\nfn helper() {}\n";
        let t = tree(src);
        assert_eq!(t.functions.len(), 2);
        assert_eq!(t.functions[0].name, "go");
        assert!(t.functions[0].is_pub);
        assert_eq!(t.functions[0].sig_line, 1);
        assert_eq!(t.functions[1].name, "helper");
        assert!(!t.functions[1].is_pub);
    }

    #[test]
    fn pub_crate_counts_as_pub() {
        let t = tree("pub(crate) fn f() {}");
        assert!(t.functions[0].is_pub);
    }

    #[test]
    fn impl_methods_know_their_type() {
        let src = "impl KernelToken { pub fn configure(&self) {} }\n\
                   impl<T> Stack<T> { fn push(&mut self, v: T) {} }\n\
                   impl fmt::Debug for DtuSystem { fn fmt(&self) {} }\n";
        let t = tree(src);
        let of: Vec<_> = t
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.impl_of.as_deref()))
            .collect();
        assert_eq!(
            of,
            vec![
                ("configure", Some("KernelToken")),
                ("push", Some("Stack")),
                ("fmt", Some("DtuSystem")),
            ]
        );
    }

    #[test]
    fn cfg_test_mod_gates_tokens_and_functions() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn prod2() { z.unwrap(); }\n";
        let t = tree(src);
        let by_name = |n: &str| t.functions.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").in_test);
        assert!(by_name("t").in_test);
        assert!(!by_name("prod2").in_test);
        // Token-level mask: the unwrap inside the test mod is gated.
        let gated: Vec<_> = (0..t.code.len())
            .filter(|&i| t.test_mask[i] && t.is_ident(i, "unwrap"))
            .collect();
        assert_eq!(gated.len(), 1);
        assert_eq!(t.code[gated[0]].line, 4);
    }

    #[test]
    fn test_attr_gates_single_fn() {
        let src = "#[test]\nfn check() { body(); }\nfn prod() {}\n";
        let t = tree(src);
        assert!(t.functions[0].in_test);
        assert!(!t.functions[1].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_gated() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let t = tree(src);
        assert!(!t.functions[0].in_test);
    }

    #[test]
    fn nested_fn_inherits_test_scope() {
        let src = "#[cfg(test)]\nmod tests {\n  fn outer() { fn inner() {} }\n}\n";
        let t = tree(src);
        assert!(t.functions.iter().all(|f| f.in_test));
        assert_eq!(t.functions.len(), 2);
    }

    #[test]
    fn fn_pointer_type_is_not_a_function() {
        let src = "fn real(cb: fn(u32) -> u32) -> u32 { cb(1) }";
        let t = tree(src);
        assert_eq!(t.functions.len(), 1);
        assert_eq!(t.functions[0].name, "real");
    }

    #[test]
    fn bodyless_trait_method() {
        let src = "trait T { fn must(&self); fn given(&self) {} }";
        let t = tree(src);
        assert_eq!(t.functions.len(), 2);
        assert!(t.functions[0].body.is_none());
        assert!(t.functions[1].body.is_some());
    }

    #[test]
    fn line_info_tracks_code_comments_and_attrs() {
        let src = "/// cited §4.2\n#[inline]\npub const X: u64 = 3; // §9.9\n";
        let t = tree(src);
        assert!(t.lines[&1].comment.contains('§'));
        assert!(!t.lines[&1].has_code);
        assert!(t.lines[&2].starts_with_attr);
        assert!(t.lines[&3].has_code);
        assert!(t.lines[&3].comment.contains("§9.9"));
    }

    #[test]
    fn multiline_block_comment_lines_each_get_text() {
        let src = "a();\n/* one\n two §3.1\n three */\nb();\n";
        let t = tree(src);
        assert!(t.lines[&3].comment.contains("§3.1"));
        assert!(!t.lines[&3].has_code);
    }

    #[test]
    fn cfg_test_use_statement_is_gated() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() {}\n";
        let t = tree(src);
        let hash: Vec<_> = (0..t.code.len())
            .filter(|&i| t.is_ident(i, "HashMap"))
            .collect();
        assert_eq!(hash.len(), 1);
        assert!(t.test_mask[hash[0]]);
    }
}
