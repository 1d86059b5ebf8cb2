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
/// a `THREAD_EXEMPT` entry for a deleted file is dead configuration.
#[test]
fn lint_roots_and_exemptions_resolve() {
    use cni_lint::callgraph::Workspace;
    use cni_lint::parse::parse_file;
    use cni_lint::rules::{PANIC_PATH_REGIONS, THREAD_EXEMPT};

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
