//! Rule definitions and the workspace analysis pass.
//!
//! Every rule starts from **crate classification**: each file's
//! workspace-relative path decides which rules apply at all (D1/D3/T1
//! only bite in the determinism-sensitive simulation crates; D2 exempts
//! the designated host-timing modules; D4 covers snapshot paths).
//! Then:
//!
//! * **Presence rules** (D1–D4, T1) match identifiers in the token
//!   stream. Each needs only the file it is in: the sim crates depend
//!   only on each other, so every function they can call is scanned
//!   under the same rules.
//! * **P1** is interprocedural: panic-reachability is a BFS from the
//!   protocol receive roots over the workspace call graph of
//!   [`crate::callgraph`], using the per-function panic facts of
//!   [`crate::taint`]. Its findings carry the full call chain, so the
//!   diagnostic explains *why* the flagged line is on a receive path
//!   two files away from the root.

use crate::callgraph::Workspace;
use crate::parse::{parse_file, FileModel};
use std::collections::BTreeSet;

/// The crates whose iteration order, randomness, and clocks can reach
/// `RunReport`, trace output, or protocol decisions.
pub const SIM_CRATES: &[&str] = &[
    "sim",
    "core",
    "nic",
    "atm",
    "pathfinder",
    "dsm",
    "faults",
    "trace",
    "obs",
];

/// Files allowed to read host clocks: the designated host-timing
/// modules (`cni-batch`'s `JobTiming`, which is explicitly kept out of
/// `RunReport`, and the figure harnesses in `cni-figures`, which time
/// each experiment for their progress lines).
pub const HOST_TIME_EXEMPT: &[&str] = &["crates/batch/src/lib.rs", "crates/figures/"];

/// Snapshot encode/decode paths (D4): a checkpoint written twice from
/// the same state must be byte-identical, so these files must not
/// iterate hashed collections or embed host timestamps in any form.
const SNAPSHOT_PATHS: &[&str] = &["crates/snap/", "crates/core/src/snapshot.rs"];

/// Files allowed to use host threading primitives (T1): the thread-backed
/// co-thread runtime the benchmark's probe still times. Everywhere else in
/// the sim crates, the program runtime (`task.rs`) included, a mutex or
/// channel is either dead weight on the serial loop or an invitation to
/// leak host scheduling order into results.
pub const THREAD_EXEMPT: &[&str] = &["crates/sim/src/cothread.rs"];

/// Protocol receive/reassembly roots: (file suffix, function names).
/// Corrupt input is expected on these paths post-PR2; P1 bans
/// panicking operators in them **and in everything they transitively
/// call** inside the sim crates.
pub const PANIC_PATH_REGIONS: &[(&str, &[&str])] = &[
    // Cell-by-cell and whole-train reassembly share the trailer check.
    (
        "crates/atm/src/aal5.rs",
        &["push", "push_train", "complete", "finish"],
    ),
    // PduBuf view/split methods: every received cell's payload flows
    // through these, so a panicking index here is reachable from the wire.
    (
        "crates/atm/src/buf.rs",
        &["as_slice", "view", "chunks", "xor_bit"],
    ),
    // Topology routing decides the path of every cell; it runs under the
    // fabric's per-cell forwarding, so a panicking index would be
    // reachable from any send.
    (
        "crates/atm/src/topology.rs",
        &["route", "leaf_of", "hosts", "validate"],
    ),
    // Multi-switch forwarding walks the routed path per cell head.
    ("crates/atm/src/fabric.rs", &["forward_head"]),
    // Go-back-N frame and acknowledgement receive.
    ("crates/core/src/gbn.rs", &["on_frame_rx", "on_ack_rx"]),
    // Span-recording helpers run inside the frame/ack receive paths, so
    // they inherit the same corrupt-input exposure; arrive_proto hosts
    // the NIC-collective dispatch on the message receive path.
    (
        "crates/core/src/node.rs",
        &["record_rx_span", "close_span", "arrive_proto"],
    ),
    (
        "crates/pathfinder/src/classifier.rs",
        &[
            "classify",
            "classify_traced",
            "walk",
            "bind_flow",
            "lookup_flow",
            "unbind_flow",
        ],
    ),
    ("crates/nic/src/device.rs", &["ingest_frame"]),
];

/// Functions the P1 reachability walk does not descend through:
/// resuming a program is a scheduling boundary — a panic inside
/// resumed application code is an application bug, not a protocol
/// receive-path hazard. Documented in LINT.md.
const P1_BOUNDARY_FNS: &[&str] = &["resume", "wake"];

/// A lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: unordered hash collections (`HashMap`/`HashSet`) in
    /// determinism-sensitive crates.
    NondetMap,
    /// D2: host clock reads outside designated host-timing modules.
    HostTime,
    /// D3: ambient (non-`Config`-seeded) randomness in sim crates.
    AmbientRng,
    /// D4: hash collections or host timestamps on snapshot
    /// encode/decode paths.
    SnapNondet,
    /// P1: panicking operators reachable from protocol receive roots.
    PanicPath,
    /// T1: host threading primitives outside the co-thread runtime.
    HostThread,
    /// A malformed suppression comment (unknown rule, missing `--`
    /// justification).
    BadSuppression,
    /// A suppression that waives nothing (stale waiver).
    UnusedSuppression,
}

impl Rule {
    /// Short diagnostic id (`D1`...).
    pub fn id(self) -> &'static str {
        match self {
            Rule::NondetMap => "D1",
            Rule::HostTime => "D2",
            Rule::AmbientRng => "D3",
            Rule::SnapNondet => "D4",
            Rule::PanicPath => "P1",
            Rule::HostThread => "T1",
            Rule::BadSuppression => "S1",
            Rule::UnusedSuppression => "S2",
        }
    }

    /// Suppression-comment slug (`nondet-map`...).
    pub fn slug(self) -> &'static str {
        match self {
            Rule::NondetMap => "nondet-map",
            Rule::HostTime => "host-time",
            Rule::AmbientRng => "ambient-rng",
            Rule::SnapNondet => "snap-nondet",
            Rule::PanicPath => "panic-path",
            Rule::HostThread => "host-thread",
            Rule::BadSuppression => "bad-suppression",
            Rule::UnusedSuppression => "unused-suppression",
        }
    }

    /// Every rule, in diagnostic-id order (for `--explain` listings).
    pub fn all() -> &'static [Rule] {
        &[
            Rule::NondetMap,
            Rule::HostTime,
            Rule::AmbientRng,
            Rule::SnapNondet,
            Rule::PanicPath,
            Rule::HostThread,
            Rule::BadSuppression,
            Rule::UnusedSuppression,
        ]
    }

    /// The slugs a suppression comment may name (meta rules S1/S2 are
    /// not suppressible — waivers of the waiver system would defeat it).
    pub fn suppressible_from_slug(slug: &str) -> Option<Rule> {
        match slug {
            "nondet-map" => Some(Rule::NondetMap),
            "host-time" => Some(Rule::HostTime),
            "ambient-rng" => Some(Rule::AmbientRng),
            "snap-nondet" => Some(Rule::SnapNondet),
            "panic-path" => Some(Rule::PanicPath),
            "host-thread" => Some(Rule::HostThread),
            _ => None,
        }
    }

    /// One-line `help:` text shown under a diagnostic.
    pub fn help(self) -> &'static str {
        match self {
            Rule::NondetMap => {
                "use BTreeMap/BTreeSet, or add \
                 `// cni-lint: allow(nondet-map) -- <why iteration order cannot leak>`"
            }
            Rule::HostTime => {
                "derive time from SimTime; host clocks live only in batch::JobTiming and cni-figures"
            }
            Rule::AmbientRng => "derive all randomness from Config seeds (SimRng/Pcg32)",
            Rule::SnapNondet => {
                "snapshot bytes must be reproducible: use BTree collections, never hashed \
                 ones, and never embed Instant/SystemTime values in a checkpoint"
            }
            Rule::PanicPath => {
                "corrupt input is expected here: return an error or count-and-drop instead of \
                 panicking"
            }
            Rule::HostThread => {
                "host threading primitives live only in the co-thread runtime (sim::cothread); \
                 share state through Rc and Cell/RefCell, effects through the event queue"
            }
            Rule::BadSuppression => {
                "grammar: `// cni-lint: allow(<rule-slug>) -- <non-empty justification>`"
            }
            Rule::UnusedSuppression => "the waiver matches no finding; delete it",
        }
    }

    /// Long-form explanation for `cni-lint --explain <rule>`, mirroring
    /// the DESIGN.md §4.7 invariant table and LINT.md rule catalog.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NondetMap => {
                "D1 nondet-map — hash collections in sim crates.\n\
                 \n\
                 `HashMap`/`HashSet` iteration order depends on the hasher and on\n\
                 insertion/capacity history, so any observed iteration order is a\n\
                 nondeterminism source that can leak into RunReport, traces, or\n\
                 protocol decisions. A BTree collection iterates in key order, so\n\
                 the rule is a presence rule: any `HashMap` or `HashSet`\n\
                 identifier in non-test code of a sim crate is a finding, whether\n\
                 or not the code iterates it. The sim crates depend only on each\n\
                 other, so no helper outside them can iterate one of their maps on\n\
                 their behalf. Fix: use BTreeMap or BTreeSet."
            }
            Rule::HostTime => {
                "D2 host-time — wall-clock reads outside the designated modules.\n\
                 \n\
                 Simulation time is SimTime, advanced by the event queue. A host\n\
                 clock read (`Instant::now`, `SystemTime::now`) anywhere else can\n\
                 leak scheduling jitter into results. Reads are flagged in every\n\
                 first-party file except the designated host-timing modules\n\
                 (batch::JobTiming, cni-figures). The sim crates cannot call into\n\
                 those modules: they depend only on each other."
            }
            Rule::AmbientRng => {
                "D3 ambient-rng — randomness not derived from Config seeds.\n\
                 \n\
                 All randomness must flow from the run's seeds (SimRng/Pcg32) so\n\
                 a seed fully determines the run. Ambient sources (`thread_rng`,\n\
                 `from_entropy`, `RandomState`, `OsRng`) are flagged wherever they\n\
                 appear in sim crates, which depend only on each other."
            }
            Rule::SnapNondet => {
                "D4 snap-nondet — nondeterministic bytes on snapshot paths.\n\
                 \n\
                 A checkpoint written twice from the same state must be\n\
                 byte-identical (deterministic restore, CI torn-write checks).\n\
                 On snapshot encode/decode paths the rule therefore bans the\n\
                 *presence* of host-time types (`Instant`, `SystemTime`,\n\
                 `UNIX_EPOCH` — even stored or formatted) and of hash collections\n\
                 (`HashMap`, `HashSet`). On `crates/core/src/snapshot.rs`, which\n\
                 is also in a sim crate, D4 takes the place of D1."
            }
            Rule::PanicPath => {
                "P1 panic-path — panics reachable from protocol receive roots.\n\
                 \n\
                 Corrupt or truncated input is *expected* on receive paths\n\
                 (AAL5 reassembly, go-back-N frame/ack receive, PATHFINDER\n\
                 classification, topology routing, NIC ingest, collective\n\
                 dispatch). The v2 rule computes panic-reachability as a BFS\n\
                 over the workspace call graph from the receive roots: `.unwrap()`,\n\
                 `.expect()`, and panic-family macros are flagged in every\n\
                 sim-crate function reachable from a root, with the full call\n\
                 chain in the diagnostic. Range-slice indexing (`buf[a..b]`) is\n\
                 flagged in the roots themselves. The walk does not descend\n\
                 through program resumption (`resume`, `wake`): panics in\n\
                 resumed application code are application bugs, not\n\
                 receive-path hazards. Fix: validate lengths, return\n\
                 Result/Option, count-and-drop."
            }
            Rule::HostThread => {
                "T1 host-thread — host threading primitives outside the co-thread runtime.\n\
                 \n\
                 Every run is one serial event loop on one host thread: the\n\
                 engine dispatches one event at a time and polls each\n\
                 processor's program in place (sim::task). What a run shares\n\
                 (the task mailbox, the DSM page table, the trace ring) is\n\
                 Rc/Cell/RefCell, so the compiler keeps it on that thread. Only\n\
                 sim::cothread, the thread-backed runtime the benchmark still\n\
                 probes, may use host threads. A `Mutex`, `RwLock`, `Condvar`,\n\
                 `mpsc` channel or `thread::spawn` anywhere else in the sim\n\
                 crates either does nothing on the serial loop or — worse —\n\
                 invites ad-hoc communication whose ordering depends on the\n\
                 host scheduler, silently breaking byte-identity across reruns.\n\
                 Route cross-node effects through the event queue and\n\
                 `SendIntent` commits."
            }
            Rule::BadSuppression => {
                "S1 bad-suppression — malformed waiver comment.\n\
                 \n\
                 The waiver grammar is `// cni-lint: allow(<rule-slug>) -- \n\
                 <non-empty justification>`. Unknown slugs, missing `--`, and\n\
                 empty justifications are findings. S1/S2 themselves are not\n\
                 suppressible."
            }
            Rule::UnusedSuppression => {
                "S2 unused-suppression — stale waiver.\n\
                 \n\
                 A suppression that no longer matches any finding is itself a\n\
                 finding, reported at the waiver comment's own line, so waivers\n\
                 cannot rot silently after the code they excused is fixed."
            }
        }
    }
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
}

/// A parsed, well-formed suppression comment.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line the comment *starts* on — where diagnostics about
    /// the suppression itself (S2) point.
    pub line: u32,
    /// 1-based line the comment ends on — findings on this line or the
    /// next are waived (differs from `line` for block comments).
    pub match_line: u32,
    /// The waived rule.
    pub rule: Rule,
    /// The mandatory justification text.
    pub justification: String,
    /// Whether the suppression waived at least one finding.
    pub used: bool,
}

/// Result of analyzing one file (compatibility shape for single-file
/// callers; the engine itself is workspace-scoped).
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// All well-formed suppressions (used or not).
    pub suppressions: Vec<Suppression>,
}

/// Result of analyzing a set of files as one workspace.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceAnalysis {
    /// Unsuppressed findings, sorted by (path, line, col).
    pub findings: Vec<Finding>,
    /// All well-formed suppressions (used or not), in file order.
    pub suppressions: Vec<Suppression>,
}

/// Which crate (by directory name under `crates/`) a path belongs to.
fn crate_dir(path: &str) -> Option<&str> {
    let rest = path.split("crates/").nth(1)?;
    rest.split('/').next()
}

fn is_sim_crate(path: &str) -> bool {
    crate_dir(path).is_some_and(|c| SIM_CRATES.contains(&c))
}

fn is_host_time_exempt(path: &str) -> bool {
    HOST_TIME_EXEMPT
        .iter()
        .any(|e| path.contains(e) || path.ends_with(e.trim_end_matches('/')))
}

fn is_snapshot_path(path: &str) -> bool {
    SNAPSHOT_PATHS
        .iter()
        .any(|e| path.contains(e) || path.ends_with(e.trim_end_matches('/')))
}

/// Test-only file trees (integration tests, benches, examples) are out
/// of scope for every rule.
fn is_test_path(path: &str) -> bool {
    let markers = ["/tests/", "/benches/", "/examples/"];
    markers.iter().any(|m| path.contains(m))
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Parse one comment as a suppression. `None`: not a suppression
/// comment at all. `Some(Err(msg))`: malformed.
fn parse_suppression(text: &str) -> Option<Result<(Rule, String), String>> {
    let idx = text.find("cni-lint:")?;
    let rest = text[idx + "cni-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err(
            "expected `allow(<rule-slug>)` after `cni-lint:`".to_string()
        ));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed `allow(` in suppression".to_string()));
    };
    let slug = rest[..close].trim();
    let Some(rule) = Rule::suppressible_from_slug(slug) else {
        return Some(Err(format!("unknown or unsuppressible rule `{slug}`")));
    };
    let after = rest[close + 1..].trim_start();
    let Some(justification) = after.strip_prefix("--") else {
        return Some(Err(
            "missing ` -- <justification>` after `allow(..)`".to_string()
        ));
    };
    let justification = justification.trim();
    if justification.is_empty() {
        return Some(Err("empty justification".to_string()));
    }
    Some(Ok((rule, justification.to_string())))
}

/// The candidate accumulator: dedup one finding per (rule, path, line).
struct Candidates {
    findings: Vec<Finding>,
}

impl Candidates {
    fn push(&mut self, rule: Rule, path: &str, line: u32, col: u32, message: String) {
        if self
            .findings
            .iter()
            .any(|f| f.rule == rule && f.path == path && f.line == line)
        {
            return;
        }
        self.findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            message,
        });
    }
}

/// Analyze a set of `(workspace-relative path, source)` pairs as one
/// workspace: parse, build the call graph, evaluate every rule, then
/// match suppressions per file.
pub fn analyze_sources(inputs: &[(String, String)]) -> WorkspaceAnalysis {
    let models: Vec<FileModel> = inputs
        .iter()
        .filter(|(p, _)| !is_test_path(p))
        .map(|(p, s)| parse_file(p, s))
        .collect();
    let ws = Workspace::build(models);

    let mut cand = Candidates {
        findings: Vec::new(),
    };
    direct_token_rules(&ws, &mut cand);
    rule_p1(&ws, &mut cand);

    // Drop candidates that land inside test-gated ranges (facts are
    // computed per fn and already skip `in_test` fns; the token pass
    // filters by line — this is the common net for both).
    let mut out = WorkspaceAnalysis::default();
    let mut findings = Vec::new();

    for file in &ws.files {
        // Suppressions for this file.
        let mut sups: Vec<Suppression> = Vec::new();
        for c in &file.comments {
            if in_ranges(&file.test_ranges, c.line) {
                continue;
            }
            // Doc comments (`///`, `//!`, `/** */`) never carry live
            // suppressions — they may quote the grammar as documentation.
            if matches!(c.text.as_bytes().first(), Some(b'/' | b'!' | b'*')) {
                continue;
            }
            match parse_suppression(&c.text) {
                None => {}
                Some(Err(msg)) => {
                    findings.push(Finding {
                        rule: Rule::BadSuppression,
                        path: file.path.clone(),
                        line: c.line,
                        col: 1,
                        message: msg,
                    });
                }
                Some(Ok((rule, justification))) => {
                    sups.push(Suppression {
                        path: file.path.clone(),
                        line: c.line,
                        match_line: c.end_line,
                        rule,
                        justification,
                        used: false,
                    });
                }
            }
        }
        for f in cand
            .findings
            .iter()
            .filter(|f| f.path == file.path && !in_ranges(&file.test_ranges, f.line))
        {
            let waived = sups.iter_mut().find(|s| {
                s.rule == f.rule && (s.match_line == f.line || s.match_line + 1 == f.line)
            });
            match waived {
                Some(s) => s.used = true,
                None => findings.push(f.clone()),
            }
        }
        for s in &sups {
            if !s.used {
                findings.push(Finding {
                    rule: Rule::UnusedSuppression,
                    path: file.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!("suppression for `{}` waives nothing", s.rule.slug()),
                });
            }
        }
        out.suppressions.extend(sups);
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out.findings = findings;
    out
}

/// Single-file compatibility wrapper over [`analyze_sources`].
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let r = analyze_sources(&[(path.to_string(), src.to_string())]);
    FileAnalysis {
        findings: r.findings,
        suppressions: r.suppressions,
    }
}

/// The presence rules, which need no dataflow: D1 hash collections in
/// sim crates, D2 clock reads, D3 ambient randomness, D4 hash
/// collections and host-time types on snapshot paths, T1 host threading.
fn direct_token_rules(ws: &Workspace, cand: &mut Candidates) {
    for file in &ws.files {
        let path = file.path.as_str();
        let sim = is_sim_crate(path);
        let time_exempt = is_host_time_exempt(path);
        let snap = is_snapshot_path(path);
        let thread_exempt = THREAD_EXEMPT.iter().any(|e| path.ends_with(e));
        for (i, t) in file.toks.iter().enumerate() {
            if in_ranges(&file.test_ranges, t.line) {
                continue;
            }
            let Some(id) = t.ident() else { continue };
            match id {
                "HashMap" | "HashSet" if snap || sim => {
                    // D4 outranks D1 on snapshot paths: same hazard,
                    // stricter contract.
                    let (rule, place) = if snap {
                        (Rule::SnapNondet, "on a snapshot encode/decode path")
                    } else {
                        (Rule::NondetMap, "in a sim crate")
                    };
                    let message = format!("hash collection `{id}` {place}");
                    cand.push(rule, path, t.line, t.col, message);
                }
                // On snapshot paths any host-time type is banned outright —
                // even stored or formatted, not just `::now()` reads.
                "Instant" | "SystemTime" | "UNIX_EPOCH" if snap => {
                    cand.push(
                        Rule::SnapNondet,
                        path,
                        t.line,
                        t.col,
                        format!("host timestamp `{id}` on a snapshot encode/decode path"),
                    );
                }
                "Instant" | "SystemTime"
                    if !time_exempt && crate::taint::follows_path_call(&file.toks, i, "now") =>
                {
                    cand.push(
                        Rule::HostTime,
                        path,
                        t.line,
                        t.col,
                        format!("`{id}::now()` outside the designated host-timing modules"),
                    );
                }
                "Mutex" | "RwLock" | "Condvar" | "mpsc" if sim && !thread_exempt => {
                    cand.push(
                        Rule::HostThread,
                        path,
                        t.line,
                        t.col,
                        format!("host threading primitive `{id}` outside the co-thread runtime"),
                    );
                }
                "thread"
                    if sim
                        && !thread_exempt
                        && crate::taint::follows_path_call(&file.toks, i, "spawn") =>
                {
                    cand.push(
                        Rule::HostThread,
                        path,
                        t.line,
                        t.col,
                        "`thread::spawn` outside the co-thread runtime".to_string(),
                    );
                }
                "thread_rng" | "from_entropy" | "RandomState" | "OsRng" if sim => {
                    cand.push(
                        Rule::AmbientRng,
                        path,
                        t.line,
                        t.col,
                        format!("ambient randomness source `{id}` in a sim crate"),
                    );
                }
                _ => {}
            }
        }
    }
}

/// P1: interprocedural panic-reachability from the receive roots.
fn rule_p1(ws: &Workspace, cand: &mut Candidates) {
    let mut roots = Vec::new();
    for (suffix, names) in PANIC_PATH_REGIONS {
        for name in *names {
            roots.extend(ws.find(suffix, name));
        }
    }
    let parents = ws.bfs(&roots, |m| {
        is_sim_crate(ws.path(m))
            && !ws.def(m).in_test
            && !P1_BOUNDARY_FNS.contains(&ws.def(m).name.as_str())
    });
    let root_set: BTreeSet<usize> = roots.iter().copied().collect();
    // Visit in deterministic node order.
    for (&n, _) in parents.iter() {
        let path = ws.path(n).to_string();
        let facts = &ws.facts[n];
        let is_root = root_set.contains(&n);
        let chain = ws.chain(&parents, n);
        let root_name = chain.first().cloned().unwrap_or_default();
        let via = chain.join(" → ");
        for site in facts.panic_unwraps.iter().chain(&facts.panic_macros) {
            let message = if is_root {
                format!("{} on a protocol receive path", site.what)
            } else {
                format!(
                    "{} reachable from receive root `{root_name}` (via {via})",
                    site.what
                )
            };
            cand.push(Rule::PanicPath, &path, site.line, site.col, message);
        }
        if is_root {
            for site in &facts.range_slices {
                cand.push(
                    Rule::PanicPath,
                    &path,
                    site.line,
                    site.col,
                    "range-slice indexing on a protocol receive path (panics on short input)"
                        .to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_grammar() {
        assert!(parse_suppression("ordinary comment").is_none());
        let ok = parse_suppression("cni-lint: allow(nondet-map) -- keyed lookups only");
        assert!(matches!(ok, Some(Ok((Rule::NondetMap, _)))));
        assert!(matches!(
            parse_suppression("cni-lint: allow(host-thread) -- shared read-only"),
            Some(Ok((Rule::HostThread, _)))
        ));
        assert!(matches!(
            parse_suppression("cni-lint: allow(nondet-map)"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_suppression("cni-lint: allow(nondet-map) -- "),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_suppression("cni-lint: allow(made-up-rule) -- why"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_suppression("cni-lint: allow(unused-suppression) -- meta"),
            Some(Err(_))
        ));
    }

    #[test]
    fn crate_classification() {
        assert!(is_sim_crate("crates/dsm/src/node.rs"));
        assert!(is_sim_crate("crates/trace/src/lib.rs"));
        assert!(!is_sim_crate("crates/apps/src/lib.rs"));
        assert!(!is_sim_crate("crates/batch/src/lib.rs"));
        assert!(is_host_time_exempt("crates/batch/src/lib.rs"));
        assert!(is_host_time_exempt("crates/figures/src/lib.rs"));
        assert!(!is_host_time_exempt("crates/sim/src/time.rs"));
        assert!(is_snapshot_path("crates/snap/src/lib.rs"));
        assert!(is_snapshot_path("crates/core/src/snapshot.rs"));
        assert!(!is_snapshot_path("crates/core/src/world.rs"));
        assert!(is_test_path("crates/nic/tests/msgcache_model.rs"));
        assert!(is_test_path("tests/byte_identity.rs"));
        assert!(!is_test_path("crates/nic/src/msgcache.rs"));
    }

    #[test]
    fn every_rule_has_explain_text() {
        for r in Rule::all() {
            assert!(!r.explain().is_empty());
            assert!(r.explain().contains(r.slug()), "{}", r.slug());
        }
    }
}
