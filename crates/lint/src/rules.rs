//! Rule definitions and the workspace analysis pass.
//!
//! v2 of the engine evaluates rules over three layers of context
//! instead of raw tokens:
//!
//! 1. **Crate classification** from each file's workspace-relative
//!    path: which rules apply at all (D1/D3 only bite in the
//!    determinism-sensitive simulation crates; D2 exempts the
//!    designated host-timing modules; D4 covers snapshot paths).
//! 2. **Per-function fact sets** from [`crate::taint`]: panic sites,
//!    host-time and randomness sources, hash-ordered collection uses
//!    tracked through locals/fields/params, and call sites.
//! 3. **The workspace call graph** from [`crate::callgraph`]: P1
//!    panic-reachability is a BFS from the protocol receive roots; the
//!    D-family rules propagate source facts along call edges so a
//!    helper cannot launder a clock read or a hash iteration.
//!
//! Findings carry the full call chain in their message when the
//! violation is interprocedural, so the diagnostic explains *why* the
//! flagged line is on a hot path two files away from the root.

use crate::callgraph::{Reach, Workspace, STD_METHODS};
use crate::parse::{parse_file, FileModel};
use crate::taint::{KEYED_SAFE, ORDER_OBSERVING, PASSTHROUGH};
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
/// `RunReport`, and the wall-clock measurement harness in `cni-bench`).
const HOST_TIME_EXEMPT: &[&str] = &["crates/batch/src/lib.rs", "crates/bench/"];

/// Snapshot encode/decode paths (D4): a checkpoint written twice from
/// the same state must be byte-identical, so these files must not
/// iterate hashed collections or embed host timestamps in any form.
const SNAPSHOT_PATHS: &[&str] = &["crates/snap/", "crates/core/src/snapshot.rs"];

/// Files allowed to use host threading primitives (T1): the parallel
/// executor and the co-thread runtime — the two places where the engine
/// deliberately meets the host's scheduler. Everywhere else in the sim
/// crates, a mutex or channel is either dead weight on the serial path
/// or an invitation to leak host scheduling order into results.
pub const THREAD_EXEMPT: &[&str] = &["crates/sim/src/pdes.rs", "crates/sim/src/cothread.rs"];

/// Protocol receive/reassembly roots: (file suffix, function names).
/// Corrupt input is expected on these paths post-PR2; P1 bans
/// panicking operators in them **and in everything they transitively
/// call** inside the sim crates.
pub const PANIC_PATH_REGIONS: &[(&str, &[&str])] = &[
    ("crates/atm/src/aal5.rs", &["push", "finish"]),
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
/// co-thread resumption is a scheduling boundary — a panic inside
/// resumed application code is an application bug, not a protocol
/// receive-path hazard. Documented in LINT.md.
const P1_BOUNDARY_FNS: &[&str] = &["resume", "wake"];

/// A lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: observed iteration order of unordered hash collections in
    /// determinism-sensitive crates (flow-sensitive).
    NondetMap,
    /// D2: host clock reads outside designated host-timing modules,
    /// directly or through calls out of the sim crates.
    HostTime,
    /// D3: ambient (non-`Config`-seeded) randomness in sim crates,
    /// directly or through calls out of the sim crates.
    AmbientRng,
    /// D4: hashed-order iteration or host timestamps on snapshot
    /// encode/decode paths.
    SnapNondet,
    /// P1: panicking operators reachable from protocol receive roots.
    PanicPath,
    /// T1: host threading primitives outside the designated executor
    /// modules.
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
                "use BTreeMap/BTreeSet (or keyed-only access), or add \
                 `// cni-lint: allow(nondet-map) -- <why iteration order cannot leak>`"
            }
            Rule::HostTime => {
                "derive time from SimTime; host clocks live only in batch::JobTiming and cni-bench"
            }
            Rule::AmbientRng => "derive all randomness from Config seeds (SimRng/Pcg32)",
            Rule::SnapNondet => {
                "snapshot bytes must be reproducible: iterate BTree/sorted orders, never hashed \
                 ones, and never embed Instant/SystemTime values in a checkpoint"
            }
            Rule::PanicPath => {
                "corrupt input is expected here: return an error or count-and-drop instead of \
                 panicking"
            }
            Rule::HostThread => {
                "host threading primitives live only in the designated executor modules \
                 (sim::pdes, sim::cothread); route cross-shard effects through the event queue"
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
                "D1 nondet-map — hash-order observation in sim crates.\n\
                 \n\
                 `HashMap`/`HashSet` iteration order depends on the hasher and on\n\
                 insertion/capacity history, so any observed iteration order is a\n\
                 nondeterminism source that can leak into RunReport, traces, or\n\
                 protocol decisions. The v2 rule is flow-sensitive: declaring or\n\
                 storing a hash collection is fine; the finding fires where its\n\
                 order is *observed*. Tracked through locals (`let w = self.pages\n\
                 .write()`), struct fields, parameters, and returns. Flagged\n\
                 operations: `iter`, `keys`, `values`, `into_iter`, `drain`,\n\
                 `retain`, `for .. in`, plus any operation not on the keyed-safe\n\
                 list (conservative), plus passing the collection to a function\n\
                 that transitively observes its parameter's order. Keyed-only\n\
                 access (`get`/`insert`/`remove`/`contains_key`/`len`/..) never\n\
                 fires. Fix: iterate a BTree collection or a sorted key vector,\n\
                 or keep access keyed."
            }
            Rule::HostTime => {
                "D2 host-time — wall-clock reads outside the designated modules.\n\
                 \n\
                 Simulation time is SimTime, advanced by the event queue. A host\n\
                 clock read (`Instant::now`, `SystemTime::now`) anywhere else can\n\
                 leak scheduling jitter into results. Direct reads are flagged in\n\
                 every first-party file except the designated host-timing modules\n\
                 (batch::JobTiming, cni-bench). The v2 rule is also\n\
                 interprocedural: a sim-crate function that calls out of the sim\n\
                 crates into something that transitively reads the host clock is\n\
                 flagged at the call site, with the laundering chain in the\n\
                 message."
            }
            Rule::AmbientRng => {
                "D3 ambient-rng — randomness not derived from Config seeds.\n\
                 \n\
                 All randomness must flow from the run's seeds (SimRng/Pcg32) so\n\
                 a seed fully determines the run. Ambient sources (`thread_rng`,\n\
                 `from_entropy`, `RandomState`, `OsRng`) are flagged directly in\n\
                 sim crates, and interprocedurally when a sim-crate function\n\
                 calls out to a function that transitively draws ambient\n\
                 randomness."
            }
            Rule::SnapNondet => {
                "D4 snap-nondet — nondeterministic bytes on snapshot paths.\n\
                 \n\
                 A checkpoint written twice from the same state must be\n\
                 byte-identical (deterministic restore, CI torn-write checks).\n\
                 On snapshot encode/decode paths the rule therefore bans\n\
                 *presence* of host-time types (`Instant`, `SystemTime`,\n\
                 `UNIX_EPOCH` — even stored or formatted), flags hash-order\n\
                 observation with the same flow-sensitive engine as D1, and\n\
                 flags calls into functions that transitively reach host time."
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
                 through co-thread resumption (`resume`, `wake`): panics in\n\
                 resumed application code are application bugs, not\n\
                 receive-path hazards. Fix: validate lengths, return\n\
                 Result/Option, count-and-drop."
            }
            Rule::HostThread => {
                "T1 host-thread — host threading primitives outside the executor.\n\
                 \n\
                 The parallel engine's determinism rests on exactly one piece of\n\
                 host concurrency: the conservative-lookahead executor and its\n\
                 replay barrier (sim::pdes), plus the co-thread runtime that\n\
                 implements execution-driven processors (sim::cothread). The\n\
                 executor hands each worker its shards' nodes by `&mut`, so the\n\
                 borrow checker keeps dispatches apart. A `Mutex`, `RwLock`,\n\
                 `Condvar`, `mpsc` channel or `thread::spawn` anywhere else in\n\
                 the sim crates either does\n\
                 nothing on the serial path or — worse — invites ad-hoc\n\
                 cross-shard communication whose ordering depends on the host\n\
                 scheduler, silently breaking byte-identity at worker counts\n\
                 above one. Route cross-shard effects through the event queue\n\
                 and `SendIntent` commits; shared read-only state may be waived\n\
                 with a justification."
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
    rule_hash_flow(&ws, &mut cand);
    rule_cross_crate_sources(&ws, &mut cand);

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

/// The token-level direct rules that need no dataflow: D2 direct clock
/// reads, D3 direct randomness, D4 host-time presence on snapshot
/// paths, T1 host threading.
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
                        format!("host threading primitive `{id}` outside the executor modules"),
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
                        "`thread::spawn` outside the executor modules".to_string(),
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

/// D1/D4 hash part: flow-sensitive order-observation findings plus
/// interprocedural escapes into order-observing callees.
fn rule_hash_flow(ws: &Workspace, cand: &mut Candidates) {
    // Transitive "observes the order of its hash-typed params" with
    // witness edges for chain reconstruction.
    let mut obs: Vec<Reach> = (0..ws.nodes.len())
        .map(|i| {
            if ws.facts[i].observes_hash_param {
                Reach::Direct
            } else {
                Reach::No
            }
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..ws.nodes.len() {
            if obs[i].holds() {
                continue;
            }
            for &(ci, c) in &ws.resolved_calls[i] {
                if obs[c].holds() && !ws.facts[i].calls[ci].hash_param_args.is_empty() {
                    obs[i] = Reach::Via(c);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    for n in 0..ws.nodes.len() {
        let path = ws.path(n).to_string();
        if ws.def(n).in_test {
            continue;
        }
        let sim = is_sim_crate(&path);
        let snap = is_snapshot_path(&path);
        if !sim && !snap {
            continue;
        }
        // D4 outranks D1 on snapshot paths: same hazard, stricter contract.
        let rule = if snap {
            Rule::SnapNondet
        } else {
            Rule::NondetMap
        };
        for u in &ws.facts[n].hash_uses {
            cand.push(
                rule,
                &path,
                u.site.line,
                u.site.col,
                format!("hash-ordered `{}`: {}", u.name, u.site.what),
            );
        }
        // Escapes through calls.
        let resolved: BTreeSet<usize> = ws.resolved_calls[n].iter().map(|&(ci, _)| ci).collect();
        for &(ci, c) in &ws.resolved_calls[n] {
            let call = &ws.facts[n].calls[ci];
            if call.hash_args.is_empty() {
                continue;
            }
            let cpath = ws.path(c);
            // A callee in a guarded crate gets flagged at its own
            // observation site; flagging the caller too is noise.
            if obs[c].holds() && !is_sim_crate(cpath) && !is_snapshot_path(cpath) {
                let chain = ws.reach_chain(&obs, c).join(" → ");
                cand.push(
                    rule,
                    &path,
                    call.line,
                    call.col,
                    format!(
                        "hash-ordered `{}` passed to `{}`, which observes its iteration order \
                         (via {chain})",
                        call.hash_args.join("`, `"),
                        ws.name(c)
                    ),
                );
            }
        }
        for (ci, call) in ws.facts[n].calls.iter().enumerate() {
            if resolved.contains(&ci) || call.hash_args.is_empty() {
                continue;
            }
            // Constructors and vetted std operations are order-free or
            // covered by the chain classifier; anything else unresolved
            // is conservatively flagged.
            if call.callee.chars().next().is_some_and(|c| c.is_uppercase())
                || STD_METHODS.contains(&call.callee.as_str())
                || KEYED_SAFE.contains(&call.callee.as_str())
                || PASSTHROUGH.contains(&call.callee.as_str())
                || ORDER_OBSERVING.contains(&call.callee.as_str())
            {
                continue;
            }
            cand.push(
                rule,
                &path,
                call.line,
                call.col,
                format!(
                    "hash-ordered `{}` passed to unresolved call `{}`; order-freedom cannot \
                     be proven",
                    call.hash_args.join("`, `"),
                    call.callee
                ),
            );
        }
    }
}

/// D2/D3/D4 interprocedural: calls from guarded functions out of the
/// guarded crates into functions that transitively reach a host clock
/// or ambient randomness.
fn rule_cross_crate_sources(ws: &Workspace, cand: &mut Candidates) {
    let time_reach = ws.reaches(|i| !ws.facts[i].time_now.is_empty());
    let rng_reach = ws.reaches(|i| !ws.facts[i].rng.is_empty());
    for n in 0..ws.nodes.len() {
        let path = ws.path(n).to_string();
        if ws.def(n).in_test {
            continue;
        }
        let sim = is_sim_crate(&path);
        let snap = is_snapshot_path(&path);
        if !sim && !snap {
            continue;
        }
        let caller_name = ws.name(n);
        for &(ci, c) in &ws.resolved_calls[n] {
            let cpath = ws.path(c);
            // Inside the guarded crates the callee is flagged at its own
            // site (directly or by this same rule one level down).
            if is_sim_crate(cpath) || is_snapshot_path(cpath) {
                continue;
            }
            let call = &ws.facts[n].calls[ci];
            if time_reach[c].holds() {
                let chain = ws.reach_chain(&time_reach, c).join(" → ");
                let rule = if snap {
                    Rule::SnapNondet
                } else {
                    Rule::HostTime
                };
                cand.push(
                    rule,
                    &path,
                    call.line,
                    call.col,
                    format!(
                        "call into `{}` transitively reads the host clock \
                         (via {caller_name} → {chain})",
                        ws.name(c)
                    ),
                );
            }
            if sim && rng_reach[c].holds() {
                let chain = ws.reach_chain(&rng_reach, c).join(" → ");
                cand.push(
                    Rule::AmbientRng,
                    &path,
                    call.line,
                    call.col,
                    format!(
                        "call into `{}` transitively draws ambient randomness \
                         (via {caller_name} → {chain})",
                        ws.name(c)
                    ),
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
        assert!(is_host_time_exempt("crates/bench/src/lib.rs"));
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
