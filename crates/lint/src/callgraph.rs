//! Workspace model and call graph.
//!
//! [`Workspace::build`] takes every parsed file in the repository,
//! extracts per-function facts via [`crate::taint`], and resolves call
//! sites to workspace functions under a deliberately strict policy —
//! a wrong edge in a panic-reachability analysis produces a false
//! diagnostic two files away from its cause, so unresolvable calls stay
//! unresolved:
//!
//! * `self.m(..)` resolves within the caller's `impl` type;
//! * `Type::m(..)` resolves by `(type, method)`; a lowercase path
//!   qualifier (`aal5::push(..)`) falls back to a module-file match;
//! * `recv.m(..)` on any other receiver resolves only when `m` is
//!   unique across the workspace **and** not a common std method name
//!   ([`STD_METHODS`]) — `vec.push(..)` must never resolve to a
//!   first-party `push`;
//! * bare `f(..)` resolves same-file first, then same-crate, then
//!   workspace-wide, in each ring only when unique; uppercase names
//!   (tuple-struct and enum constructors) never resolve.
//!
//! On top of the graph the module provides deterministic BFS with
//! parent links, for the call chains in P1 diagnostics.

use crate::parse::FileModel;
use crate::taint::{fn_facts, FnFacts};
use std::collections::{BTreeMap, VecDeque};

/// Common std/alloc method names that must never resolve to a
/// first-party function through the unique-name fallback.
pub const STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "new",
    "clone",
    "iter",
    "iter_mut",
    "next",
    "send",
    "recv",
    "write",
    "read",
    "push_back",
    "pop_front",
    "contains",
    "extend",
    "clear",
    "take",
    "replace",
    "map",
    "and_then",
    "unwrap_or",
    "min",
    "max",
    "sum",
    "count",
    "collect",
    "drain",
    "entry",
    "last",
    "first",
    "sort",
    "sort_by",
    "split",
    "join",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "into",
    "from",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "abs",
    "lock",
    "borrow",
    "borrow_mut",
    "contains_key",
    "default",
    "clamp",
    "rotate",
    "swap",
    "resize",
    "fill",
    "chunks",
    "windows",
    "wrapping_add",
    "saturating_sub",
    "checked_sub",
    "min_by_key",
    "max_by_key",
];

/// One function in the workspace: indices into
/// [`Workspace::files`] and that file's `fns` list.
#[derive(Clone, Copy, Debug)]
pub struct FnNode {
    /// Index of the defining file.
    pub file: usize,
    /// Index of the [`crate::parse::FnDef`] within that file.
    pub def: usize,
}

/// The analyzed workspace: parsed files, per-function facts, and the
/// resolved call graph.
pub struct Workspace {
    /// Every parsed file, in deterministic (path-sorted) order.
    pub files: Vec<FileModel>,
    /// Every function, file-major in source order.
    pub nodes: Vec<FnNode>,
    /// Facts for each node (same indexing as `nodes`).
    pub facts: Vec<FnFacts>,
    /// Resolved call edges per node (sorted, deduplicated). The edge
    /// `caller → callee` exists once per pair regardless of call count.
    pub edges: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qual_name: BTreeMap<(String, String), Vec<usize>>,
}

/// The crate-name component of a workspace-relative path:
/// `crates/core/src/world.rs` ⇒ `core`; the root `src/` tree ⇒ `cni`.
pub fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else if path.starts_with("src/") {
        "cni"
    } else {
        ""
    }
}

/// The file stem (`crates/atm/src/aal5.rs` ⇒ `aal5`), used to resolve
/// lowercase path qualifiers as module names.
fn stem_of(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

impl Workspace {
    /// Build the workspace model from parsed files: facts, name tables,
    /// and the resolved call graph.
    pub fn build(files: Vec<FileModel>) -> Workspace {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for di in 0..f.fns.len() {
                nodes.push(FnNode { file: fi, def: di });
            }
        }

        let facts: Vec<FnFacts> = nodes
            .iter()
            .map(|n| fn_facts(&files[n.file], &files[n.file].fns[n.def]))
            .collect();

        // Name tables over non-test functions.
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            let def = &files[n.file].fns[n.def];
            if def.in_test {
                continue;
            }
            by_name.entry(def.name.clone()).or_default().push(i);
            if let Some(q) = &def.qual {
                by_qual_name
                    .entry((q.clone(), def.name.clone()))
                    .or_default()
                    .push(i);
            }
        }

        let mut ws = Workspace {
            files,
            nodes,
            facts,
            edges: Vec::new(),
            by_name,
            by_qual_name,
        };
        ws.resolve_all();
        ws
    }

    fn resolve_all(&mut self) {
        let mut edges = vec![Vec::new(); self.nodes.len()];
        for (i, out) in edges.iter_mut().enumerate() {
            for call in &self.facts[i].calls {
                if let Some(callee) =
                    self.resolve(i, call.qual.as_deref(), &call.callee, call.is_method)
                {
                    out.push(callee);
                }
            }
            out.sort_unstable();
            out.dedup();
        }
        self.edges = edges;
    }

    /// Resolve one call from node `caller` under the strict policy.
    pub fn resolve(
        &self,
        caller: usize,
        qual: Option<&str>,
        callee: &str,
        is_method: bool,
    ) -> Option<usize> {
        let caller_node = self.nodes[caller];
        let caller_def = &self.files[caller_node.file].fns[caller_node.def];
        match qual {
            Some("self") => {
                let q = caller_def.qual.as_deref()?;
                let hits = self
                    .by_qual_name
                    .get(&(q.to_string(), callee.to_string()))?;
                (hits.len() == 1).then(|| hits[0])
            }
            Some(q) => {
                if let Some(hits) = self.by_qual_name.get(&(q.to_string(), callee.to_string())) {
                    if hits.len() == 1 {
                        return Some(hits[0]);
                    }
                }
                // Lowercase qualifier: module path like `aal5::push`.
                if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                    let hits: Vec<usize> = self
                        .by_name
                        .get(callee)?
                        .iter()
                        .copied()
                        .filter(|&n| stem_of(&self.files[self.nodes[n].file].path) == q)
                        .collect();
                    return (hits.len() == 1).then(|| hits[0]);
                }
                None
            }
            None if is_method => {
                // Field/local receiver: unique name, never a std method.
                if STD_METHODS.contains(&callee) {
                    return None;
                }
                let hits = self.by_name.get(callee)?;
                (hits.len() == 1).then(|| hits[0])
            }
            None => {
                // Bare call: constructors never resolve.
                if callee.chars().next().is_some_and(|c| c.is_uppercase()) {
                    return None;
                }
                let hits = self.by_name.get(callee)?;
                let same_file: Vec<usize> = hits
                    .iter()
                    .copied()
                    .filter(|&n| {
                        self.nodes[n].file == caller_node.file
                            && self.files[self.nodes[n].file].fns[self.nodes[n].def]
                                .qual
                                .is_none()
                    })
                    .collect();
                if same_file.len() == 1 {
                    return Some(same_file[0]);
                }
                let caller_crate = crate_of(&self.files[caller_node.file].path).to_string();
                let same_crate: Vec<usize> = hits
                    .iter()
                    .copied()
                    .filter(|&n| {
                        crate_of(&self.files[self.nodes[n].file].path) == caller_crate
                            && self.files[self.nodes[n].file].fns[self.nodes[n].def]
                                .qual
                                .is_none()
                    })
                    .collect();
                if same_crate.len() == 1 {
                    return Some(same_crate[0]);
                }
                (hits.len() == 1).then(|| hits[0])
            }
        }
    }

    /// All non-test nodes named `name` on impl type `qual` in `file`
    /// (path suffix match). Used to seed root sets from a registry.
    pub fn find(&self, path_suffix: &str, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                let f = &self.files[n.file];
                let d = &f.fns[n.def];
                d.name == name && !d.in_test && f.path.ends_with(path_suffix)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The defining file path of node `i`.
    pub fn path(&self, i: usize) -> &str {
        &self.files[self.nodes[i].file].path
    }

    /// The [`crate::parse::FnDef`] of node `i`.
    pub fn def(&self, i: usize) -> &crate::parse::FnDef {
        let n = self.nodes[i];
        &self.files[n.file].fns[n.def]
    }

    /// Display name for diagnostics: `World::dispatch` or `route`.
    pub fn name(&self, i: usize) -> String {
        let d = self.def(i);
        match &d.qual {
            Some(q) => format!("{}::{}", q, d.name),
            None => d.name.clone(),
        }
    }

    /// Deterministic BFS from `roots` following edges, descending only
    /// into nodes accepted by `descend`. Returns parent links
    /// (`parent[n] = Some(caller)` on the shortest discovery path,
    /// roots map to `None`) for every visited node.
    pub fn bfs(
        &self,
        roots: &[usize],
        mut descend: impl FnMut(usize) -> bool,
    ) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            parent.insert(r, None);
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if parent.contains_key(&m) || !descend(m) {
                    continue;
                }
                parent.insert(m, Some(n));
                queue.push_back(m);
            }
        }
        parent
    }

    /// The call chain `root → .. → n` as display names, following the
    /// BFS parent links.
    pub fn chain(&self, parents: &BTreeMap<usize, Option<usize>>, n: usize) -> Vec<String> {
        let mut rev = vec![n];
        let mut cur = n;
        while let Some(Some(p)) = parents.get(&cur) {
            rev.push(*p);
            cur = *p;
        }
        rev.reverse();
        rev.into_iter().map(|i| self.name(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    fn node(ws: &Workspace, name: &str) -> usize {
        (0..ws.nodes.len())
            .find(|&i| ws.def(i).name == name)
            .unwrap()
    }

    #[test]
    fn self_calls_resolve_within_impl() {
        let w = ws(&[(
            "crates/core/src/world.rs",
            "impl World {\n\
             fn dispatch(&mut self) { self.step(); }\n\
             fn step(&mut self) {}\n\
             }",
        )]);
        let d = node(&w, "dispatch");
        let s = node(&w, "step");
        assert_eq!(w.edges[d], vec![s]);
    }

    #[test]
    fn std_method_names_never_resolve() {
        let w = ws(&[(
            "crates/atm/src/aal5.rs",
            "impl Aal5 { fn push(&mut self, b: u8) {} }\n\
             fn caller(v: &mut Vec<u8>) { v.push(1); }",
        )]);
        let c = node(&w, "caller");
        assert!(w.edges[c].is_empty());
    }

    #[test]
    fn unique_method_names_resolve_across_files() {
        let w = ws(&[
            (
                "crates/nic/src/device.rs",
                "impl Nic { fn ingest_frame(&mut self, f: u32) {} }",
            ),
            (
                "crates/core/src/world.rs",
                "impl World { fn on_frame_rx(&mut self, f: u32) { self.nic.ingest_frame(f); } }",
            ),
        ]);
        let c = node(&w, "on_frame_rx");
        let t = node(&w, "ingest_frame");
        assert_eq!(w.edges[c], vec![t]);
    }

    #[test]
    fn bare_calls_prefer_same_file() {
        let w = ws(&[
            (
                "crates/atm/src/topology.rs",
                "fn helper() {}\nfn route() { helper(); }",
            ),
            ("crates/dsm/src/msgcache.rs", "fn helper() {}"),
        ]);
        let r = node(&w, "route");
        let same_file = w
            .find("crates/atm/src/topology.rs", "helper")
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(w.edges[r], vec![same_file]);
    }

    #[test]
    fn module_path_calls_resolve_by_file_stem() {
        let w = ws(&[
            (
                "crates/atm/src/aal5.rs",
                "pub fn finish(x: u32) -> u32 { x }",
            ),
            (
                "crates/core/src/world.rs",
                "fn caller() { let _ = aal5::finish(1); }",
            ),
        ]);
        let c = node(&w, "caller");
        let f = node(&w, "finish");
        assert_eq!(w.edges[c], vec![f]);
    }

    #[test]
    fn bfs_reconstructs_chains() {
        let w = ws(&[(
            "crates/core/src/world.rs",
            "impl World {\n\
             fn on_frame_rx(&mut self) { self.a(); }\n\
             fn a(&mut self) { self.b(); }\n\
             fn b(&mut self) { let x: Option<u32> = None; let _ = x.unwrap(); }\n\
             }",
        )]);
        let root = node(&w, "on_frame_rx");
        let b = node(&w, "b");
        let parents = w.bfs(&[root], |_| true);
        assert_eq!(
            w.chain(&parents, b),
            vec!["World::on_frame_rx", "World::a", "World::b"]
        );
    }

    #[test]
    fn bfs_crosses_crates_only_where_descend_allows() {
        // P1's walk: transitive across sim crates, never into a host crate.
        let w = ws(&[
            (
                "crates/atm/src/aal5.rs",
                "pub fn finish(x: u32) -> u32 { checksum(x) }\n\
                 fn checksum(x: u32) -> u32 { x }",
            ),
            ("crates/batch/src/lib.rs", "pub fn host_helper() {}"),
            (
                "crates/core/src/world.rs",
                "fn on_frame_rx() { let _ = aal5::finish(1); host_helper(); }",
            ),
        ]);
        let root = node(&w, "on_frame_rx");
        let host = node(&w, "host_helper");
        assert!(w.edges[root].contains(&host));
        let parents = w.bfs(&[root], |m| !w.path(m).starts_with("crates/batch/"));
        assert_eq!(
            w.chain(&parents, node(&w, "checksum")),
            vec!["on_frame_rx", "finish", "checksum"]
        );
        assert!(!parents.contains_key(&host));
    }
}
