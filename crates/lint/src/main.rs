//! The `cni-lint` binary: walk the workspace, enforce the determinism
//! contract, print diagnostics.
//!
//! ```text
//! cni-lint [--root <dir>] [--json | --sarif] [--check] [--explain <rule>]
//! ```
//!
//! * `--root <dir>` — workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` with a `[workspace]` section).
//! * `--json` — machine-readable schema-versioned report on stdout.
//! * `--sarif` — SARIF 2.1.0 report on stdout (for code-scanning UIs).
//! * `--check` — exit non-zero when any unsuppressed finding exists
//!   (the CI gate mode). A finding is fixed or waived in place.
//! * `--explain <rule>` — print the long-form rationale for a rule (by
//!   id `P1` or slug `panic-path`) and exit.

use cni_lint::walk::find_workspace_root;
use cni_lint::{analyze_workspace, render_json, render_text};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut sarif = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--check" => check = true,
            "--explain" => {
                let Some(name) = args.next() else {
                    eprintln!("--explain needs a rule id or slug (try `--explain P1`)");
                    return ExitCode::from(2);
                };
                match cni_lint::report::render_explain(&name) {
                    Some(text) => {
                        print!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "unknown rule `{name}`; known: {}",
                            cni_lint::Rule::all()
                                .iter()
                                .map(|r| format!("{} ({})", r.id(), r.slug()))
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: cni-lint [--root <dir>] [--json | --sarif] [--check] [--explain <rule>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("could not locate a workspace root; pass --root <dir>");
            return ExitCode::from(2);
        }
    };
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cni-lint: I/O error while scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", render_json(&report));
    } else if sarif {
        print!("{}", cni_lint::report::render_sarif(&report));
    } else {
        print!("{}", render_text(&report));
    }
    if check && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
