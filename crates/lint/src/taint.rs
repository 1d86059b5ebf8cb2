//! Per-function fact extraction: the dataflow half of the engine.
//!
//! For every function body the scanner derives a [`FnFacts`] set:
//! where it can panic, where it reads host time or ambient randomness,
//! which calls it makes (with enough receiver/path context for
//! [`crate::callgraph`] to resolve them), how it uses hash-ordered
//! collections (tracked through locals, fields, parameters and
//! returns). The rules in
//! [`crate::rules`] are then evaluated over facts, not raw tokens —
//! which is what makes them flow-sensitive (a keyed-only `HashMap`
//! produces no facts worth flagging) and interprocedural (facts
//! propagate over the call graph).
//!
//! The tracking is deliberately conservative: an operation on a
//! hash-ordered value that the scanner cannot prove order-free is
//! reported as unvetted rather than ignored.

use crate::lex::Token;
use crate::parse::{FileModel, FnDef};
use std::collections::BTreeSet;

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

/// How a hash-ordered collection value was used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HashUseKind {
    /// An operation that observes the hashed iteration order
    /// (`iter`, `keys`, `drain`, `for .. in`, ...).
    OrderObserving,
    /// An operation the scanner cannot prove order-free.
    Unvetted,
}

/// One use of a hash-ordered collection value.
#[derive(Clone, Debug)]
pub struct HashUse {
    /// Location and description.
    pub site: Site,
    /// The variable/field name the use was tracked from.
    pub name: String,
    /// What kind of use it was.
    pub kind: HashUseKind,
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
    /// Hash-tainted names passed as arguments.
    pub hash_args: Vec<String>,
    /// Hash-tainted *parameters of the enclosing function* passed as
    /// arguments (the escape set for the param-leak fixpoint).
    pub hash_param_args: Vec<String>,
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
    /// `Instant::now()` / `SystemTime::now()` reads.
    pub time_now: Vec<Site>,
    /// Any mention of a host-time type (for the stricter snapshot rule).
    pub time_idents: Vec<Site>,
    /// Ambient randomness sources.
    pub rng: Vec<Site>,
    /// Uses of hash-ordered collection values.
    pub hash_uses: Vec<HashUse>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// The function observes the hashed order of one of its own
    /// hash-typed parameters (directly; the transitive closure is
    /// computed over the call graph).
    pub observes_hash_param: bool,
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

/// Hash-map/set operations that cannot observe iteration order.
pub const KEYED_SAFE: &[&str] = &[
    "get",
    "get_mut",
    "get_key_value",
    "contains_key",
    "contains",
    "insert",
    "remove",
    "remove_entry",
    "entry",
    "len",
    "is_empty",
    "clear",
    "reserve",
    "shrink_to_fit",
    "with_capacity",
    "capacity",
    "new",
    "default",
    "extend",
];

/// Operations that observe the hashed iteration order.
pub const ORDER_OBSERVING: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Wrapper hops that forward the underlying collection (taint flows
/// through them to the next chain segment or the assigned local).
pub const PASSTHROUGH: &[&str] = &[
    "read",
    "write",
    "lock",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
    "unwrap",
    "expect",
];

/// Ambient randomness identifiers.
const RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "RandomState", "OsRng"];

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

/// Scan context shared by the passes over one function body.
struct Scan<'a> {
    toks: &'a [Token],
    /// Body token range (inclusive of braces).
    lo: usize,
    hi: usize,
    /// Hash-tainted names visible in the body: parameters, locals, and
    /// (via a `self.` prefix) fields of the impl type.
    hash_names: BTreeSet<String>,
    /// Hash-typed fields reachable as `self.<name>` / `<recv>.<name>`.
    hash_fields: BTreeSet<String>,
    /// Hash-typed parameter names of this function.
    hash_params: BTreeSet<String>,
    /// Token positions consumed as call arguments (classified at the
    /// call site, not re-reported as bare uses).
    arg_positions: BTreeSet<usize>,
}

/// Extract [`FnFacts`] for `f` in `file`. `hash_fields` lists every
/// hash-typed field name visible to this file (own structs plus any
/// same-named field in the workspace — conservative on collisions) and
/// `returns_hash_fns` the names of first-party functions returning
/// hash-ordered collections.
pub fn fn_facts(
    file: &FileModel,
    f: &FnDef,
    hash_fields: &BTreeSet<String>,
    returns_hash_fns: &BTreeSet<String>,
) -> FnFacts {
    let mut facts = FnFacts::default();
    let Some((lo, hi)) = f.body else {
        return facts;
    };
    let mut scan = Scan {
        toks: &file.toks,
        lo,
        hi,
        hash_names: f
            .params
            .iter()
            .filter(|p| p.hash_typed)
            .map(|p| p.name.clone())
            .collect(),
        hash_fields: hash_fields.clone(),
        hash_params: f
            .params
            .iter()
            .filter(|p| p.hash_typed)
            .map(|p| p.name.clone())
            .collect(),
        arg_positions: BTreeSet::new(),
    };
    collect_locals(&mut scan, returns_hash_fns);
    collect_calls(&mut scan, &mut facts);
    collect_sites(&mut scan, &mut facts);
    facts
}

/// Pass 1: `let` bindings — hash taint through ascriptions and
/// initializers.
fn collect_locals(scan: &mut Scan<'_>, returns_hash_fns: &BTreeSet<String>) {
    let toks = scan.toks;
    let mut i = scan.lo;
    while i <= scan.hi {
        if toks[i].ident() == Some("let") {
            let mut j = i + 1;
            while toks.get(j).and_then(|t| t.ident()) == Some("mut") {
                j += 1;
            }
            let Some(name) = toks.get(j).and_then(|t| t.ident()) else {
                i += 1;
                continue;
            };
            let name = name.to_string();
            let mut k = j + 1;
            let mut hash = false;
            // Type ascription up to `=` or `;`.
            if toks.get(k).is_some_and(|t| t.is_punct(':')) {
                let ty_start = k + 1;
                let mut depth = 0i32;
                while k <= scan.hi {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                        break;
                    }
                    k += 1;
                }
                hash |= toks[ty_start..k.min(scan.hi + 1)]
                    .iter()
                    .any(|t| matches!(t.ident(), Some("HashMap" | "HashSet")));
            }
            // Initializer chain.
            if toks.get(k).is_some_and(|t| t.is_punct('=')) {
                let mut m = k + 1;
                while toks.get(m).is_some_and(|t| t.is_punct('&'))
                    || toks.get(m).and_then(|t| t.ident()) == Some("mut")
                {
                    m += 1;
                }
                if let Some(first) = toks.get(m).and_then(|t| t.ident()) {
                    if matches!(first, "HashMap" | "HashSet")
                        || (returns_hash_fns.contains(first)
                            && toks.get(m + 1).is_some_and(|t| t.is_punct('(')))
                    {
                        hash = true;
                    } else {
                        // `let w = self.pages.write();`
                        let (root, stop) = chain_root(scan, m);
                        if root.is_some_and(|r| scan.is_hash_name(&r))
                            && chain_is_passthrough(scan, m, stop)
                        {
                            hash = true;
                        }
                    }
                }
            }
            if hash {
                scan.hash_names.insert(name);
            }
            i = k;
            continue;
        }
        i += 1;
    }
}

/// The root name of the expression chain starting at `m` (`self.pages`
/// ⇒ `pages`; `dst` ⇒ `dst`), and the index just past the leading
/// name tokens.
fn chain_root(scan: &Scan<'_>, m: usize) -> (Option<String>, usize) {
    let toks = scan.toks;
    match toks.get(m).and_then(|t| t.ident()) {
        Some("self") => {
            if toks.get(m + 1).is_some_and(|t| t.is_punct('.')) {
                if let Some(field) = toks.get(m + 2).and_then(|t| t.ident()) {
                    return (Some(field.to_string()), m + 3);
                }
            }
            (None, m + 1)
        }
        Some(id) if !is_keyword(id) => (Some(id.to_string()), m + 1),
        _ => (None, m),
    }
}

/// From `stop` (just past the chain's leading name) follow `.method(..)`
/// segments; true when every hop is a passthrough up to the terminating
/// `;`/`=` — i.e. the assigned value is still the tainted collection.
fn chain_is_passthrough(scan: &Scan<'_>, _m: usize, mut k: usize) -> bool {
    let toks = scan.toks;
    loop {
        if !toks.get(k).is_some_and(|t| t.is_punct('.')) {
            // End of chain: fine if the statement ends here.
            return toks
                .get(k)
                .is_some_and(|t| t.is_punct(';') || t.is_punct('='));
        }
        let Some(m_name) = toks.get(k + 1).and_then(|t| t.ident()) else {
            return false;
        };
        if !PASSTHROUGH.contains(&m_name) {
            return false;
        }
        k += 2;
        if toks.get(k).is_some_and(|t| t.is_punct('(')) {
            let mut depth = 0i32;
            while k < toks.len() {
                if toks[k].is_punct('(') {
                    depth += 1;
                } else if toks[k].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
    }
}

impl Scan<'_> {
    fn is_hash_name(&self, name: &str) -> bool {
        self.hash_names.contains(name) || self.hash_fields.contains(name)
    }
}

/// Pass 2: call sites, with receiver/path context and hash-arg roots.
fn collect_calls(scan: &mut Scan<'_>, facts: &mut FnFacts) {
    let toks = scan.toks;
    for i in scan.lo..=scan.hi {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if is_keyword(name) || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // `name!(..)` macros and `fn name(..)` definitions are not calls.
        if i > 0 && (toks[i - 1].ident() == Some("fn") || toks[i - 1].is_punct('!')) {
            continue;
        }
        let (qual, recv_root, is_method) = call_context(toks, i);
        let (hash_args, hash_param_args, arg_positions) = call_args(scan, i + 1);
        scan.arg_positions.extend(arg_positions);
        facts.calls.push(CallSite {
            line: toks[i].line,
            col: toks[i].col,
            callee: name.to_string(),
            qual,
            recv_root,
            is_method,
            hash_args,
            hash_param_args,
        });
    }
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

/// Scan the argument list opening at `open == '('`: hash-tainted arg
/// roots, the subset that are parameters, and consumed token positions.
fn call_args(scan: &Scan<'_>, open: usize) -> (Vec<String>, Vec<String>, Vec<usize>) {
    let toks = scan.toks;
    let mut hash_args = Vec::new();
    let mut hash_param_args = Vec::new();
    let mut positions = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    let mut arg_lead = true; // at the start of an argument expression
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            arg_lead = true;
            j += 1;
            continue;
        } else if depth == 1 && arg_lead {
            if t.is_punct('&') || t.ident() == Some("mut") {
                j += 1;
                continue;
            }
            let (root, _stop) = chain_root_at(toks, j);
            if let Some(root) = root {
                if scan.is_hash_name(&root) {
                    hash_args.push(root.clone());
                    positions.push(j);
                    if toks[j].ident() == Some("self") {
                        positions.push(j + 2);
                    }
                    if scan.hash_params.contains(&root) {
                        hash_param_args.push(root);
                    }
                }
            }
            arg_lead = false;
        }
        j += 1;
    }
    (hash_args, hash_param_args, positions)
}

/// `chain_root` without a `Scan` borrow.
fn chain_root_at(toks: &[Token], m: usize) -> (Option<String>, usize) {
    match toks.get(m).and_then(|t| t.ident()) {
        Some("self") => {
            if toks.get(m + 1).is_some_and(|t| t.is_punct('.')) {
                if let Some(field) = toks.get(m + 2).and_then(|t| t.ident()) {
                    return (Some(field.to_string()), m + 3);
                }
            }
            (None, m + 1)
        }
        Some(id) if !is_keyword(id) => (Some(id.to_string()), m + 1),
        _ => (None, m),
    }
}

/// Pass 3: panic, host-time, randomness, hash-use, and index sites.
fn collect_sites(scan: &mut Scan<'_>, facts: &mut FnFacts) {
    let toks = scan.toks;
    let mut i = scan.lo;
    while i <= scan.hi {
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
            i += 1;
            continue;
        };
        match id {
            "unwrap" | "expect"
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                facts.panic_unwraps.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("`.{id}()`"),
                });
            }
            m if PANIC_MACROS.contains(&m) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
                facts.panic_macros.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("`{m}!`"),
                });
            }
            "Instant" | "SystemTime" | "UNIX_EPOCH" => {
                facts.time_idents.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("host-time type `{id}`"),
                });
                if follows_path_call(toks, i, "now") {
                    facts.time_now.push(Site {
                        line: t.line,
                        col: t.col,
                        what: format!("`{id}::now()`"),
                    });
                }
            }
            r if RNG_IDENTS.contains(&r) => {
                facts.rng.push(Site {
                    line: t.line,
                    col: t.col,
                    what: format!("ambient randomness source `{r}`"),
                });
            }
            "self" if toks.get(i + 1).is_some_and(|n| n.is_punct('.')) => {
                // `self.field` hash uses.
                if let Some(field) = toks.get(i + 2).and_then(|n| n.ident()) {
                    if scan.hash_fields.contains(field) && !scan.arg_positions.contains(&(i + 2)) {
                        classify_hash_use(scan, facts, field, i + 2, i + 3);
                    }
                    i += 3;
                    continue;
                }
            }
            name if scan.hash_names.contains(name) => {
                // A bare tainted local/param: skip field positions
                // (`x.name`), declarations (`name:`), and call-arg
                // positions already classified at the call site.
                let preceded_by_dot = i > 0 && toks[i - 1].is_punct('.');
                let declares = toks.get(i + 1).is_some_and(|n| n.is_punct(':'));
                if !preceded_by_dot && !declares && !scan.arg_positions.contains(&i) {
                    classify_hash_use(scan, facts, name, i, i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Classify the use of hash-tainted `name` whose chain continues at
/// `next` (the token right after the name). `at` is the name token.
fn classify_hash_use(scan: &Scan<'_>, facts: &mut FnFacts, name: &str, at: usize, next: usize) {
    let toks = scan.toks;
    // `for x in name` / `for x in &name` / `for x in &mut name`.
    let mut back = at;
    while back > 0 && (toks[back - 1].is_punct('&') || toks[back - 1].ident() == Some("mut")) {
        back -= 1;
    }
    if back > 0 && toks[back - 1].ident() == Some("in") {
        push_hash_use(
            facts,
            name,
            toks[at].line,
            toks[at].col,
            HashUseKind::OrderObserving,
            "`for .. in` iteration",
        );
        return;
    }
    // Follow the method/index chain.
    let mut k = next;
    loop {
        if toks.get(k).is_some_and(|t| t.is_punct('[')) {
            // Keyed index: fine, and the chain result is a value.
            return;
        }
        if toks.get(k).is_some_and(|t| t.is_punct('='))
            && !toks.get(k + 1).is_some_and(|t| t.is_punct('='))
        {
            // Assignment target: fine.
            return;
        }
        if !toks.get(k).is_some_and(|t| t.is_punct('.')) {
            // Statement end: a `let` destination is tracked by the
            // local pass, and a tail expression is covered by the
            // function's declared (hash-mentioning) return type.
            if toks
                .get(k)
                .is_some_and(|t| t.is_punct(';') || t.is_punct('}'))
            {
                return;
            }
            // Any other bare position (struct literal, tuple, cast):
            // the collection escapes where the scanner can no longer
            // follow it.
            push_hash_use(
                facts,
                name,
                toks[at].line,
                toks[at].col,
                HashUseKind::Unvetted,
                "hash-ordered value escapes into an untracked position",
            );
            return;
        }
        let Some(m) = toks.get(k + 1).and_then(|t| t.ident()) else {
            // `.0` tuple projection or similar: treat as escape-free.
            return;
        };
        if ORDER_OBSERVING.contains(&m) {
            push_hash_use(
                facts,
                name,
                toks[k + 1].line,
                toks[k + 1].col,
                HashUseKind::OrderObserving,
                &format!("`.{m}()` observes hashed iteration order"),
            );
            return;
        }
        if KEYED_SAFE.contains(&m) {
            return;
        }
        if PASSTHROUGH.contains(&m) {
            // Skip the method's argument list and continue the chain.
            k += 2;
            if toks.get(k).is_some_and(|t| t.is_punct('(')) {
                let mut depth = 0i32;
                while k < toks.len() {
                    if toks[k].is_punct('(') {
                        depth += 1;
                    } else if toks[k].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
            continue;
        }
        push_hash_use(
            facts,
            name,
            toks[k + 1].line,
            toks[k + 1].col,
            HashUseKind::Unvetted,
            &format!("`.{m}()` is not on the keyed-safe operation list"),
        );
        return;
    }
}

fn push_hash_use(
    facts: &mut FnFacts,
    name: &str,
    line: u32,
    col: u32,
    kind: HashUseKind,
    what: &str,
) {
    // One fact per (name, line): a chain can hit several detectors.
    if facts
        .hash_uses
        .iter()
        .any(|u| u.name == name && u.site.line == line)
    {
        return;
    }
    facts.hash_uses.push(HashUse {
        site: Site {
            line,
            col,
            what: what.to_string(),
        },
        name: name.to_string(),
        kind,
    });
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

/// Mark `observes_hash_param` when any order-observing or unvetted use
/// tracks back to one of the function's own hash-typed parameters.
pub fn finalize_param_observation(facts: &mut FnFacts, f: &FnDef) {
    let params: BTreeSet<&str> = f
        .params
        .iter()
        .filter(|p| p.hash_typed)
        .map(|p| p.name.as_str())
        .collect();
    facts.observes_hash_param = facts
        .hash_uses
        .iter()
        .any(|u| params.contains(u.name.as_str()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn facts_of(src: &str) -> FnFacts {
        let m = parse_file("crates/dsm/src/fixture.rs", src);
        let qual = m.fns[0].qual.clone();
        let hash_fields: BTreeSet<String> = m
            .fields
            .iter()
            .filter(|f| f.hash_typed && Some(&f.owner) == qual.as_ref())
            .map(|f| f.name.clone())
            .collect();
        let returns_hash: BTreeSet<String> = m
            .fns
            .iter()
            .filter(|f| f.returns_hash)
            .map(|f| f.name.clone())
            .collect();
        let mut out = fn_facts(&m, &m.fns[0], &hash_fields, &returns_hash);
        finalize_param_observation(&mut out, &m.fns[0]);
        out
    }

    #[test]
    fn keyed_ops_produce_no_hash_facts() {
        let f = facts_of(
            "fn keyed(m: &mut HashMap<u64, u32>) {\n\
             m.insert(1, 2);\n\
             let _ = m.get(&1);\n\
             if m.contains_key(&1) { m.remove(&1); }\n\
             }",
        );
        assert!(f.hash_uses.is_empty(), "{:?}", f.hash_uses);
        assert!(!f.observes_hash_param);
    }

    #[test]
    fn iteration_is_order_observing() {
        let f = facts_of(
            "fn leak(m: &HashMap<u64, u32>) -> u64 {\n\
             m.iter().map(|(k, _)| k).sum()\n\
             }",
        );
        assert_eq!(f.hash_uses.len(), 1);
        assert_eq!(f.hash_uses[0].kind, HashUseKind::OrderObserving);
        assert!(f.observes_hash_param);
    }

    #[test]
    fn for_in_is_order_observing() {
        let f = facts_of(
            "fn leak(m: &HashMap<u64, u32>) {\n\
             for (k, v) in m { let _ = (k, v); }\n\
             }",
        );
        assert_eq!(f.hash_uses.len(), 1);
        assert_eq!(f.hash_uses[0].kind, HashUseKind::OrderObserving);
    }

    #[test]
    fn taint_flows_through_locals_and_guards() {
        let f = facts_of(
            "struct S { pages: RwLock<HashMap<u32, u32>> }\n\
             impl S {\n\
             fn touch(&self) {\n\
             let w = self.pages.write();\n\
             for x in w.keys() { let _ = x; }\n\
             }\n\
             }",
        );
        assert_eq!(f.hash_uses.len(), 1, "{:?}", f.hash_uses);
        assert_eq!(f.hash_uses[0].kind, HashUseKind::OrderObserving);
        assert_eq!(f.hash_uses[0].name, "w");
    }

    #[test]
    fn hash_args_are_recorded_on_calls() {
        let f = facts_of(
            "fn pass(m: &HashMap<u64, u32>) {\n\
             helper(m);\n\
             }",
        );
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].hash_args, vec!["m"]);
        assert_eq!(f.calls[0].hash_param_args, vec!["m"]);
        assert!(f.hash_uses.is_empty(), "{:?}", f.hash_uses);
    }

    #[test]
    fn panic_and_time_sites_are_collected() {
        let f = facts_of(
            "fn f(x: Option<u32>) {\n\
             let _ = x.unwrap();\n\
             let _t = Instant::now();\n\
             panic!(\"boom\");\n\
             }",
        );
        assert_eq!(f.panic_unwraps.len(), 1);
        assert_eq!(f.time_now.len(), 1);
        assert_eq!(f.panic_macros.len(), 1);
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
