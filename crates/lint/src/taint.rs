//! Per-function fact extraction: the dataflow half of the engine.
//!
//! For every function body the scanner derives a [`FnFacts`] set: where
//! it can panic and which calls it makes, with enough receiver/path
//! context for [`crate::callgraph`] to resolve them. Rule P1 is then
//! evaluated over facts and the call graph, not raw tokens, which is
//! what makes it interprocedural. The determinism rules need no facts:
//! they are presence rules over the token stream (see
//! [`crate::rules`]).

use crate::lex::Token;
use crate::parse::{FileModel, FnDef};

/// One location-plus-description fact.
#[derive(Clone, Debug)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short description of what was found there.
    pub what: String,
}

/// One call site, with the context needed to resolve it.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The called name (`ingest_frame`, `now`, ...).
    pub callee: String,
    /// For `Path::method(..)` calls, the last path segment before the
    /// method (`Instant::now` ⇒ `Instant`). For `self.method(..)`,
    /// the literal `"self"`. `None` for bare calls and field-receiver
    /// method calls.
    pub qual: Option<String>,
    /// For method calls on something other than a plain `self`
    /// receiver: the receiver's root name (`self.dsm[p].handle(..)` ⇒
    /// `dsm`; `w.entry(..)` ⇒ `w`).
    pub recv_root: Option<String>,
    /// True for `.method(..)` calls (any receiver, including `self`).
    pub is_method: bool,
}

/// Everything the rules need to know about one function body.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// `.unwrap()` / `.expect(..)` sites.
    pub panic_unwraps: Vec<Site>,
    /// Panic-family macro invocations (`panic!`, `assert!`, ...).
    pub panic_macros: Vec<Site>,
    /// Range-slice indexing sites (`buf[a..b]`).
    pub range_slices: Vec<Site>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
}

/// Identifiers that, invoked as macros, abort on the spot.
pub const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn is_keyword(id: &str) -> bool {
    matches!(
        id,
        "fn" | "let"
            | "if"
            | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "in"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "impl"
            | "struct"
            | "enum"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "unsafe"
            | "self"
            | "Self"
            | "super"
            | "crate"
            | "dyn"
            | "box"
            | "const"
            | "static"
            | "type"
            | "trait"
    )
}

/// Extract [`FnFacts`] for `f` in `file`, in one pass over its body.
pub fn fn_facts(file: &FileModel, f: &FnDef) -> FnFacts {
    let mut facts = FnFacts::default();
    let Some((lo, hi)) = f.body else {
        return facts;
    };
    let toks = &file.toks;
    for i in lo..=hi {
        let t = &toks[i];
        let Some(id) = t.ident() else {
            // Range-slice indexing: `expr[a..b]`.
            if t.is_punct('[')
                && i > 0
                && (toks[i - 1].ident().is_some()
                    || toks[i - 1].is_punct(')')
                    || toks[i - 1].is_punct(']'))
                && index_has_range(toks, i)
            {
                facts.range_slices.push(Site {
                    line: t.line,
                    col: t.col,
                    what: "range-slice indexing (panics on short input)".to_string(),
                });
            }
            continue;
        };
        let after_dot = i > 0 && toks[i - 1].is_punct('.');
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if matches!(id, "unwrap" | "expect") && after_dot && called {
            facts.panic_unwraps.push(Site {
                line: t.line,
                col: t.col,
                what: format!("`.{id}()`"),
            });
        } else if PANIC_MACROS.contains(&id) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            facts.panic_macros.push(Site {
                line: t.line,
                col: t.col,
                what: format!("`{id}!`"),
            });
        }
        // `name!(..)` macros and `fn name(..)` definitions are not calls.
        if !called
            || is_keyword(id)
            || (i > 0 && (toks[i - 1].ident() == Some("fn") || toks[i - 1].is_punct('!')))
        {
            continue;
        }
        let (qual, recv_root, is_method) = call_context(toks, i);
        facts.calls.push(CallSite {
            line: t.line,
            col: t.col,
            callee: id.to_string(),
            qual,
            recv_root,
            is_method,
        });
    }
    facts
}

/// Classify the tokens before the callee ident at `i`.
fn call_context(toks: &[Token], i: usize) -> (Option<String>, Option<String>, bool) {
    if i >= 1 && toks[i - 1].is_punct('.') {
        // Method call: walk the receiver back.
        let mut j = i - 2;
        // Skip a balanced `[..]` index segment.
        if toks.get(j).is_some_and(|t| t.is_punct(']')) {
            let mut depth = 0i32;
            loop {
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return (None, None, true);
                }
                j -= 1;
            }
            if j == 0 {
                return (None, None, true);
            }
            j -= 1;
        }
        let Some(recv) = toks.get(j).and_then(|t| t.ident()) else {
            return (None, None, true);
        };
        if recv == "self" {
            return (Some("self".to_string()), None, true);
        }
        // `self.field.m(..)` / `self.field[..].m(..)`: root is the field.
        if j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].ident() == Some("self") {
            return (None, Some(recv.to_string()), true);
        }
        (None, Some(recv.to_string()), true)
    } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        // `Path::method(..)`: the segment right before the `::`.
        let qual = toks.get(i.wrapping_sub(3)).and_then(|t| t.ident());
        (qual.map(String::from), None, false)
    } else {
        (None, None, false)
    }
}

/// Does `toks[i]` (an ident) begin `Ident::method(`?
pub fn follows_path_call(toks: &[Token], i: usize, method: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).and_then(|t| t.ident()) == Some(method)
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
}

/// Does the index expression opening at `toks[open] == '['` contain a
/// `..` at bracket depth 1 (i.e. is it a range slice)?
pub fn index_has_range(toks: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if depth == 1 && t.is_punct('.') && toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
        {
            return true;
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn facts_of(src: &str) -> FnFacts {
        let m = parse_file("crates/dsm/src/fixture.rs", src);
        fn_facts(&m, &m.fns[0])
    }

    #[test]
    fn panic_sites_are_collected() {
        let f = facts_of(
            "fn f(x: Option<u32>, b: &[u8]) {\n\
             let _ = x.unwrap();\n\
             let _ = &b[1..];\n\
             panic!(\"boom\");\n\
             }",
        );
        assert_eq!(f.panic_unwraps.len(), 1);
        assert_eq!(f.range_slices.len(), 1);
        assert_eq!(f.panic_macros.len(), 1);
    }

    #[test]
    fn path_calls_match_only_the_named_method() {
        // D2's `Instant::now()` and T1's `thread::spawn(..)` both rest on
        // this token test.
        let (toks, _) = crate::lex::tokenize(
            "let a = Instant::now();\n\
             let b = Instant::elapsed();\n\
             let c: Instant = x;\n\
             let d = Instant::now;\n\
             thread::spawn(f);",
        );
        let at = |name: &str| -> Vec<usize> {
            (0..toks.len())
                .filter(|&i| toks[i].ident() == Some(name))
                .collect()
        };
        let instants: Vec<bool> = at("Instant")
            .into_iter()
            .map(|i| follows_path_call(&toks, i, "now"))
            .collect();
        assert_eq!(instants, vec![true, false, false, false]);
        let thread = at("thread")[0];
        assert!(follows_path_call(&toks, thread, "spawn"));
        assert!(!follows_path_call(&toks, thread, "now"));
    }

    #[test]
    fn method_calls_carry_receiver_context() {
        let f = facts_of(
            "fn f(&mut self, p: usize) {\n\
             self.step(p);\n\
             self.dsm[p].handle_msg(p);\n\
             free_fn(p);\n\
             Instant::now();\n\
             }",
        );
        let kinds: Vec<_> = f
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.qual.as_deref(), c.recv_root.as_deref()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("step", Some("self"), None),
                ("handle_msg", None, Some("dsm")),
                ("free_fn", None, None),
                ("now", Some("Instant"), None),
            ]
        );
    }
}
