//! A small item-level Rust parser on top of [`crate::lex`].
//!
//! The analysis engine needs *structure*, not full syntax: which
//! functions exist (and inside which `impl` block), where their bodies
//! begin and end in the token stream, and which lines are test code.
//! Everything else — expressions, statements, calls — is recovered
//! per-function by [`crate::taint`]'s body scanner.
//!
//! Like the lexer, the parser is forgiving by construction: it never
//! panics on code it does not understand, it just records less. A lint
//! must keep working while the code it audits is mid-refactor.

use crate::lex::{tokenize, Comment, Token};

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// The binding name (patterns contribute their first identifier).
    pub name: String,
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The `impl` type the function is defined on, if any
    /// (`impl World { fn dispatch.. }` ⇒ `Some("World")`).
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Token-index range of the body: `(open_brace, close_brace)`
    /// inclusive. `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// 1-based first line of the item (the `fn` keyword's line).
    pub start_line: u32,
    /// 1-based last line of the body (or the signature, if bodiless).
    pub end_line: u32,
    /// Declared parameters, in order. `self` receivers are not listed.
    pub params: Vec<Param>,
    /// Whether the item sits inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// The parsed model of one source file.
#[derive(Clone, Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The token stream (owned here; every later pass borrows it).
    pub toks: Vec<Token>,
    /// All comments, for suppression and `SAFETY:` matching.
    pub comments: Vec<Comment>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnDef>,
    /// Line ranges (inclusive) of `#[cfg(test)]`/`#[test]`-gated items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileModel {
    /// The function whose body contains token index `i`, if any.
    /// Nested items resolve to the innermost enclosing function.
    pub fn fn_at(&self, i: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (k, f) in self.fns.iter().enumerate() {
            if let Some((a, b)) = f.body {
                if i >= a && i <= b {
                    let tighter = match best {
                        None => true,
                        Some(prev) => {
                            let (pa, _) = self.fns[prev].body.unwrap_or((0, usize::MAX));
                            a >= pa
                        }
                    };
                    if tighter {
                        best = Some(k);
                    }
                }
            }
        }
        best
    }
}

/// Token index of the `}` matching the `{` at `open`, if balanced.
pub fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skip a balanced generic argument list starting at `toks[i] == '<'`.
/// Returns the index just past the matching `>`. `->` never appears
/// inside the generics we care about at item level, but a stray `-`
/// before `>` is tolerated by not counting that `>` as a closer.
fn skip_generics(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') {
            let after_dash = i > 0 && toks[i - 1].is_punct('-');
            if !after_dash {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        } else if depth > 0 && (toks[i].is_punct(';') || toks[i].is_punct('{')) {
            // Unbalanced — bail out rather than swallowing the file.
            return i;
        }
        i += 1;
    }
    i
}

/// Parse the header of an `impl` item starting at `toks[i] == "impl"`.
/// Returns `(type_name, index_of_open_brace)` when recognizable.
fn parse_impl_header(toks: &[Token], mut i: usize) -> Option<(String, usize)> {
    i += 1; // past `impl`
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_generics(toks, i);
    }
    // Collect path segments until `{`, `for`, or `where`; on a trait
    // impl (`impl Trait for Type`) the part after `for` names the type.
    let mut last_ident: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            return last_ident.map(|n| (n, i));
        }
        if t.is_punct('<') {
            i = skip_generics(toks, i);
            continue;
        }
        match t.ident() {
            Some("for") => {
                saw_for = true;
                last_ident = None;
            }
            Some("where") => {
                // Skip the where-clause to the opening brace.
                while i < toks.len() && !toks[i].is_punct('{') {
                    i += 1;
                }
                continue;
            }
            Some(id) => {
                let _ = saw_for;
                last_ident = Some(id.to_string());
            }
            None => {}
        }
        i += 1;
    }
    None
}

/// Parse a `fn` item starting at `toks[i] == "fn"`. Returns the def and
/// the token index to resume scanning from (just past the signature —
/// the body is scanned inline so nested items are still found).
fn parse_fn(toks: &[Token], i: usize, qual: Option<&str>) -> Option<(FnDef, usize)> {
    let name = toks.get(i + 1)?.ident()?.to_string();
    let sig_line = toks[i].line;
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_generics(toks, j);
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // Parameters: at paren depth 1, each `ident :` introduces one.
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut close = j;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                close = j;
                break;
            }
        } else if depth == 1
            && t.ident().is_some()
            && t.ident() != Some("mut")
            && t.ident() != Some("self")
            && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            params.push(Param {
                name: t.ident().unwrap_or_default().to_string(),
            });
        }
        j += 1;
    }
    // The body is the first `{` after the parameters (past any return
    // type and where clause); a `;` first means a bodiless declaration.
    let mut body = None;
    let mut end_line = toks[close.min(toks.len() - 1)].line;
    for (k, t) in toks.iter().enumerate().skip(close + 1) {
        if t.is_punct('{') {
            if let Some(cb) = matching_brace(toks, k) {
                body = Some((k, cb));
                end_line = toks[cb].line;
            }
            break;
        }
        if t.is_punct(';') {
            end_line = t.line;
            break;
        }
    }
    Some((
        FnDef {
            name,
            qual: qual.map(String::from),
            sig_line,
            body,
            start_line: sig_line,
            end_line,
            params,
            in_test: false,
        },
        close + 1,
    ))
}

/// Line ranges (inclusive) of `#[cfg(test)]`/`#[test]`-gated items.
fn test_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let start_line = toks[i].line;
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                } else if let Some(id) = toks[j].ident() {
                    if id == "test" {
                        has_test = true;
                    }
                    if id == "not" {
                        has_not = true;
                    }
                }
                j += 1;
            }
            // `cfg(not(test))` code is compiled in production: keep it.
            if has_test && !has_not {
                if let Some(end_line) = item_end_line(toks, j) {
                    out.push((start_line, end_line));
                    i = j;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// The last line of the item starting at token `i` (skipping any further
/// attributes): either the `;` that ends a braceless item or the
/// matching close of its first `{` block.
fn item_end_line(toks: &[Token], mut i: usize) -> Option<u32> {
    while i + 1 < toks.len() && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
        let mut depth = 0i32;
        loop {
            if i >= toks.len() {
                return None;
            }
            if toks[i].is_punct('[') {
                depth += 1;
            } else if toks[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            return Some(t.line);
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            return matching_brace(toks, i).map(|j| toks[j].line);
        }
        i += 1;
    }
    None
}

/// Parse `src` into a [`FileModel`]. `path` must be workspace-relative.
pub fn parse_file(path: &str, src: &str) -> FileModel {
    let (toks, comments) = tokenize(src);
    let excluded = test_ranges(&toks);
    let mut model = FileModel {
        path: path.to_string(),
        fns: Vec::new(),
        test_ranges: excluded.clone(),
        toks: Vec::new(),
        comments,
    };

    // Impl contexts as a stack of (type name, brace depth at open).
    let mut impls: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            while impls.last().is_some_and(|&(_, d)| d >= depth) {
                impls.pop();
            }
        }
        match t.ident() {
            Some("impl") => {
                if let Some((name, open)) = parse_impl_header(&toks, i) {
                    // The impl body opens one level deeper than here.
                    impls.push((name, depth));
                    i = open; // continue at `{` so depth tracking sees it
                    continue;
                }
            }
            Some("fn") => {
                if let Some((mut f, resume)) =
                    parse_fn(&toks, i, impls.last().map(|(n, _)| n.as_str()))
                {
                    f.in_test = excluded
                        .iter()
                        .any(|&(a, b)| f.sig_line >= a && f.sig_line <= b);
                    model.fns.push(f);
                    i = resume;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    model.toks = toks;
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_and_impls_are_itemized() {
        let src = r#"
            fn free(a: u32, b: &str) -> u64 { a as u64 }
            impl World {
                fn dispatch(&mut self, t: u64) { self.step(t); }
                fn step(&mut self, t: u64) {}
            }
            impl Default for World {
                fn default() -> Self { World }
            }
        "#;
        let m = parse_file("crates/core/src/world.rs", src);
        let names: Vec<_> = m
            .fns
            .iter()
            .map(|f| (f.qual.clone(), f.name.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free".to_string()),
                (Some("World".to_string()), "dispatch".to_string()),
                (Some("World".to_string()), "step".to_string()),
                (Some("World".to_string()), "default".to_string()),
            ]
        );
        assert_eq!(m.fns[0].params.len(), 2);
        assert!(m.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn generic_fns_and_trait_impls_parse() {
        let src = r#"
            impl<T: Clone> Classifier<T> {
                fn classify<'a>(&'a mut self, cell: &[u8]) -> Option<&'a T> { None }
            }
        "#;
        let m = parse_file("crates/pathfinder/src/classifier.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].qual.as_deref(), Some("Classifier"));
        assert_eq!(m.fns[0].params.len(), 1);
        assert_eq!(m.fns[0].params[0].name, "cell");
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let src = r#"
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
            }
        "#;
        let m = parse_file("crates/sim/src/fixture.rs", src);
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn fn_at_resolves_innermost() {
        let src = "fn outer() { let f = |x: u32| x + 1; inner_call(); }";
        let m = parse_file("crates/sim/src/fixture.rs", src);
        let idx = m
            .toks
            .iter()
            .position(|t| t.ident() == Some("inner_call"))
            .unwrap();
        assert_eq!(m.fn_at(idx), Some(0));
    }
}
