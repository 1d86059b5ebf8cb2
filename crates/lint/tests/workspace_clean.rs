//! The lint's own acceptance gate, as a test: the real workspace must
//! be clean, with every suppression both used and justified. This is
//! what CI's `cargo run -p cni-lint -- --check` enforces; keeping it in
//! `cargo test` too means a violation fails the ordinary test run even
//! where the CI step is skipped.

use std::path::Path;

/// Collect every first-party source file under `crates/*/src`, the way
/// the walker does, as `(workspace-relative path, source)` pairs.
fn workspace_inputs(root: &Path) -> Vec<(String, String)> {
    fn collect(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                collect(&p, root, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let rel = p
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, std::fs::read_to_string(&p).expect("read source")));
            }
        }
    }
    let mut inputs = Vec::new();
    for e in std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .flatten()
    {
        let src = e.path().join("src");
        if src.is_dir() {
            collect(&src, root, &mut inputs);
        }
    }
    inputs.sort();
    inputs
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

/// The lint's path-keyed configuration must point at real code. P1 names
/// its receive roots by file suffix and function name and silently skips
/// a root that no longer resolves, so moving a handler to another module
/// would otherwise turn its panic check off without a finding. Likewise
/// a `THREAD_EXEMPT` or `HOST_TIME_EXEMPT` entry for a deleted or renamed
/// path is dead configuration.
#[test]
fn lint_roots_and_exemptions_resolve() {
    use cni_lint::callgraph::Workspace;
    use cni_lint::parse::parse_file;
    use cni_lint::rules::{HOST_TIME_EXEMPT, PANIC_PATH_REGIONS, THREAD_EXEMPT};

    let root = workspace_root();
    let files: Vec<_> = workspace_inputs(&root)
        .iter()
        .map(|(p, s)| parse_file(p, s))
        .collect();
    let ws = Workspace::build(files);
    for (suffix, names) in PANIC_PATH_REGIONS {
        for name in *names {
            assert!(
                !ws.find(suffix, name).is_empty(),
                "P1 receive root `{name}` in `{suffix}` resolves to no function"
            );
        }
    }
    for path in THREAD_EXEMPT {
        assert!(
            root.join(path).is_file(),
            "THREAD_EXEMPT names `{path}`, which does not exist"
        );
    }
    for path in HOST_TIME_EXEMPT {
        assert!(
            root.join(path).exists(),
            "HOST_TIME_EXEMPT names `{path}`, which does not exist"
        );
    }
}

/// Require P1's walk from the receive roots to reach each `(file, name)`
/// function, each one non-test function of its file.
fn assert_p1_reaches(fns: &[(&str, &str)]) {
    use cni_lint::callgraph::Workspace;
    use cni_lint::parse::parse_file;
    use cni_lint::rules::panic_path_reach;

    let files: Vec<_> = workspace_inputs(&workspace_root())
        .iter()
        .map(|(p, s)| parse_file(p, s))
        .collect();
    let ws = Workspace::build(files);
    let reach = panic_path_reach(&ws);
    for &(file, name) in fns {
        let found = ws.find(file, name);
        assert_eq!(found.len(), 1, "`{name}` is not one function of {file}");
        assert!(
            reach.contains_key(&found[0]),
            "P1's walk from the receive roots misses `{}`",
            ws.name(found[0])
        );
    }
}

/// The DSM's shared write-notice log is read on protocol receive paths:
/// a grant copies notices out of it, a barrier release checks the
/// segment, and a page reply asks it for the page's writers. P1 resolves
/// a call on a field (`self.log.m(..)`) only through a method name no
/// other workspace function has, so a log method that shared a name
/// (`known` beside `DsmNode::known`) would leave P1's walk without a
/// finding. The walk from the receive roots must reach each read.
#[test]
fn p1_walks_into_the_shared_notice_log() {
    let log = "crates/dsm/src/notices.rs";
    assert_p1_reaches(&[
        (log, "segment_pages"),
        (log, "writer_notices_through"),
        (log, "last_write_through"),
        (log, "page_writers_through"),
        (log, "latest_through"),
    ]);
}

/// Receive paths send: an AIH reply leaves `arrive_proto` through
/// `Node::transport`, the one send path of every message, and a go-back-N
/// acknowledgement leaves `on_frame_rx` through `commit_faulty`. So P1's
/// walk must reach the NIC transmit, both fabric sends and the
/// segmenter's cell train behind them. A call whose method name another
/// workspace function shares resolves to nothing, so a rename here would
/// cut the walk without a finding.
#[test]
fn p1_walks_the_send_path() {
    let fabric = "crates/atm/src/fabric.rs";
    assert_p1_reaches(&[
        ("crates/nic/src/device.rs", "transmit"),
        (fabric, "send_pdu"),
        (fabric, "send_pdu_faulty"),
        ("crates/atm/src/aal5.rs", "train"),
        ("crates/core/src/gbn.rs", "commit_faulty"),
        ("crates/core/src/node.rs", "transport"),
    ]);
}

/// The analyzer runs on every push and is meant to be cheap enough for
/// an editor save hook, so a whole-workspace pass has a budget of 3 s.
/// The scan runs on a worker thread and the test waits for it with a
/// timeout, so the budget is checked without reading a host clock.
#[test]
fn a_workspace_scan_fits_its_three_second_budget() {
    let root = workspace_root();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(cni_lint::walk::analyze_workspace(&root)));
    let report = rx
        .recv_timeout(std::time::Duration::from_secs(3))
        .expect("the workspace scan panicked or took over 3 s")
        .expect("workspace scan");
    assert!(
        report.files_scanned > 40,
        "scanned only {} files",
        report.files_scanned
    );
}

/// The program runtime, the DSM page table and the trace ring run on the
/// engine's one thread and say so by type: they share state through `Rc`
/// and cells. A lock, a poisoning path, an `Arc` or an atomic in them
/// would be thread-safety nothing uses, so none may come back. T1 covers
/// the locks; this covers the rest, test code included.
#[test]
fn the_single_thread_runtime_holds_no_thread_safe_plumbing() {
    let root = workspace_root();
    for path in [
        "crates/sim/src/task.rs",
        "crates/dsm/src/space.rs",
        "crates/trace/src/lib.rs",
    ] {
        let src = std::fs::read_to_string(root.join(path)).expect("read source");
        let (tokens, _) = cni_lint::lex::tokenize(&src);
        for t in &tokens {
            let Some(id) = t.ident() else { continue };
            assert!(
                !matches!(id, "Mutex" | "RwLock" | "PoisonError" | "Arc" | "atomic")
                    && !id.starts_with("Atomic"),
                "{path}:{}: `{id}` in the single-thread runtime",
                t.line
            );
        }
    }
}

/// Only the thread-backed co-thread runtime may use host threads, and
/// it needs no waiver to do so: no `host-thread` suppression remains.
#[test]
fn host_threads_need_no_waiver() {
    use cni_lint::rules::{Rule, THREAD_EXEMPT};

    assert_eq!(THREAD_EXEMPT, ["crates/sim/src/cothread.rs"]);
    let report = cni_lint::walk::analyze_workspace(&workspace_root()).expect("workspace scan");
    let waivers: Vec<_> = report
        .suppressions
        .iter()
        .filter(|s| s.rule == Rule::HostThread)
        .map(|s| format!("{}:{}", s.path, s.line))
        .collect();
    assert!(waivers.is_empty(), "host-thread waivers: {waivers:?}");
}

/// The DSM engine drops a message it is not waiting for, or one whose
/// fields do not fit its state, so no waiver remains under `crates/dsm/`.
#[test]
fn the_dsm_engine_needs_no_waiver() {
    let report = cni_lint::walk::analyze_workspace(&workspace_root()).expect("workspace scan");
    let waivers: Vec<_> = report
        .suppressions
        .iter()
        .filter(|s| s.path.starts_with("crates/dsm/"))
        .map(|s| format!("{}:{}", s.path, s.line))
        .collect();
    assert!(waivers.is_empty(), "DSM waivers: {waivers:?}");
}

/// The entries of one `[table]` of a Cargo manifest, as `(key, value)`
/// lines with comments and blank lines dropped.
fn manifest_table<'a>(manifest: &'a str, table: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

/// Package name -> crate directory, for every first-party crate.
fn first_party_crates(root: &Path) -> std::collections::BTreeMap<String, String> {
    let mut dir_of = std::collections::BTreeMap::new();
    for e in std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .flatten()
    {
        let Ok(manifest) = std::fs::read_to_string(e.path().join("Cargo.toml")) else {
            continue;
        };
        let name = manifest_table(&manifest, "package")
            .into_iter()
            .find(|(k, _)| *k == "name")
            .map(|(_, v)| v.trim_matches('"').to_string())
            .expect("every crate manifest names its package");
        dir_of.insert(name, e.file_name().to_string_lossy().into_owned());
    }
    dir_of
}

/// The packages a crate's manifest depends on, outside dev-dependencies.
fn dependencies(root: &Path, c: &str) -> Vec<String> {
    let path = root.join("crates").join(c).join("Cargo.toml");
    let manifest = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("crate `{c}` has no manifest at {}: {e}", path.display()));
    // Dependencies must sit in the one table read below, not in
    // `[dependencies.<name>]` or `[target.'..'.dependencies]` tables.
    for l in manifest.lines().filter(|l| l.starts_with('[')) {
        assert!(
            !l.contains("dependencies") || l == "[dependencies]" || l == "[dev-dependencies]",
            "crates/{c}/Cargo.toml: unsupported dependency table `{l}`"
        );
    }
    manifest_table(&manifest, "dependencies")
        .into_iter()
        .map(|(key, value)| {
            // A renamed dependency names its package in the value.
            value
                .split_once("package")
                .and_then(|(_, rest)| rest.trim_start().strip_prefix('='))
                .and_then(|rest| rest.split('"').nth(1))
                .unwrap_or(key)
                .to_string()
        })
        .collect()
}

/// The determinism rules D1–D4 are presence rules: each checks only
/// the file it is in. That misses nothing only while a guarded crate
/// cannot call into unguarded first-party code, where a clock read, an
/// ambient RNG or a hash iteration would go unseen. So every first-party
/// package a sim crate depends on must itself be a sim crate. The same
/// holds for `cni-snap`, which D4 guards. Dev-dependencies are test
/// code, which no rule covers.
#[test]
fn sim_crates_depend_only_on_sim_crates() {
    use cni_lint::rules::SIM_CRATES;

    let root = workspace_root();
    let dir_of = first_party_crates(&root);
    assert_eq!(dir_of.get("cni").map(String::as_str), Some("core"));
    for c in SIM_CRATES.iter().chain(&["snap"]) {
        for package in dependencies(&root, c) {
            if let Some(dep) = dir_of.get(&package) {
                assert!(
                    SIM_CRATES.contains(&dep.as_str()),
                    "crate `{c}` depends on `{package}` (crates/{dep}), which is not a sim \
                     crate: the determinism rules would not see what it does on `{c}`'s behalf"
                );
            }
        }
    }
}

/// The lint must stay buildable while the rest of the workspace is
/// mid-refactor, so it depends on no first-party crate; its JSON goes
/// through the vendored `serde_json`.
#[test]
fn the_lint_depends_on_no_first_party_crate() {
    let root = workspace_root();
    let dir_of = first_party_crates(&root);
    let deps = dependencies(&root, "lint");
    for package in &deps {
        assert!(
            !dir_of.contains_key(package),
            "cni-lint depends on first-party `{package}`"
        );
    }
    assert!(deps.iter().any(|d| d == "serde_json"), "{deps:?}");
}

#[test]
fn the_workspace_honors_the_determinism_contract() {
    let report = cni_lint::walk::analyze_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.files_scanned > 40,
        "scanned only {} files",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "determinism contract violated:\n{}",
        cni_lint::report::render_text(&report)
    );
    for s in &report.suppressions {
        assert!(s.used, "stale suppression {}:{}", s.path, s.line);
        assert!(
            !s.justification.is_empty(),
            "unjustified suppression {}:{}",
            s.path,
            s.line
        );
    }
}
