//! `cni-lint`: the workspace static-analysis engine that enforces the
//! determinism contract (DESIGN.md §4.7, LINT.md).
//!
//! The whole evaluation methodology — execution-driven simulation with
//! byte-identical `RunReport`s for a given seed, at any worker count —
//! is only as strong as the absence of hidden nondeterminism sources.
//! The engine analyzes every first-party source file in three layers
//! (no network, no syn: consistent with the vendored `third_party/`
//! policy):
//!
//! 1. [`lex`]/[`parse`] — a lightweight tokenizer and item-level parser
//!    producing per-file token, function, and comment models; the
//!    presence rules (D1–D4, T1) run on these tokens directly;
//! 2. [`taint`] — per-function fact sets for P1: panic sites and call
//!    sites;
//! 3. [`callgraph`] — a workspace call graph over which P1 runs
//!    interprocedurally, with full call chains in the diagnostics.
//!
//! | ID | slug               | rule |
//! |----|--------------------|------|
//! | D1 | `nondet-map`       | no `HashMap`/`HashSet` in determinism-sensitive crates |
//! | D2 | `host-time`        | no `Instant::now`/`SystemTime::now` outside host-timing modules |
//! | D3 | `ambient-rng`      | no `thread_rng`/`from_entropy`/`RandomState` in sim crates |
//! | D4 | `snap-nondet`      | no hash collections or host timestamps on snapshot encode/decode paths |
//! | P1 | `panic-path`       | no panicking operators reachable from protocol receive roots (BFS over the call graph) |
//! | T1 | `host-thread`      | no `Mutex`/`RwLock`/`Condvar`/`mpsc`/`thread::spawn` in sim crates outside the co-thread runtime (`sim::cothread`) |
//! | S1 | `bad-suppression`  | malformed waiver comments |
//! | S2 | `unused-suppression` | stale waiver comments |
//!
//! A finding is waived with a suppression comment on the same line or
//! the line directly above:
//!
//! ```text
//! // cni-lint: allow(panic-path) -- engine invariant, not wire data
//! ```
//!
//! The justification is mandatory; suppressions without one, and
//! suppressions that no longer match a finding, are themselves findings
//! (`bad-suppression`, `unused-suppression`) so waivers cannot rot
//! silently. Test code (`#[cfg(test)]` modules, `tests/`,
//! `benches/`, `examples/`) is exempt: determinism of the simulation,
//! not of test scaffolding, is the contract.
//!
//! The binary adds CI plumbing: `--json` (schema-versioned envelope),
//! `--sarif` (SARIF 2.1.0), `--baseline`/`--write-baseline` (committed
//! findings baseline; CI fails only on *new* findings), and
//! `--explain <rule>`.

#![deny(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod lex;
pub mod parse;
pub mod report;
pub mod rules;
pub mod taint;
pub mod walk;

pub use report::{render_explain, render_json, render_sarif, render_text};
pub use rules::{
    analyze_source, analyze_sources, FileAnalysis, Finding, Rule, Suppression, WorkspaceAnalysis,
};
pub use walk::{analyze_workspace, WorkspaceReport};
