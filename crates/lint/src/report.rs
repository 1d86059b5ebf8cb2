//! Diagnostic rendering: rustc-style text, the `--json` envelope and
//! SARIF.
//!
//! The two JSON reports are built as `serde_json::Value`s and printed
//! pretty by the vendored `serde_json`, the workspace's one JSON codec.
//! The lint depends on no first-party crate, so it stays buildable even
//! when the rest of the workspace is mid-refactor.

use crate::rules::{Finding, Rule};
use crate::walk::WorkspaceReport;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// Render one finding rustc-style.
fn render_finding(out: &mut String, f: &Finding) {
    let _ = writeln!(
        out,
        "error[{}/{}]: {}",
        f.rule.id(),
        f.rule.slug(),
        f.message
    );
    let _ = writeln!(out, "  --> {}:{}:{}", f.path, f.line, f.col);
    let _ = writeln!(out, "   = help: {}", f.rule.help());
}

/// Render the full human-readable report: findings, the suppression
/// summary table (waivers stay visible), and a one-line verdict.
pub fn render_text(r: &WorkspaceReport) -> String {
    let mut out = String::new();
    for f in &r.findings {
        render_finding(&mut out, f);
        out.push('\n');
    }
    if !r.suppressions.is_empty() {
        let _ = writeln!(out, "suppressions ({}):", r.suppressions.len());
        let width = r
            .suppressions
            .iter()
            .map(|s| s.path.len() + 6)
            .max()
            .unwrap_or(20);
        for s in &r.suppressions {
            let loc = format!("{}:{}", s.path, s.line);
            let _ = writeln!(
                out,
                "  {loc:<width$}  {:<18} {}",
                s.rule.slug(),
                s.justification
            );
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} finding(s), {} suppression(s)",
        r.files_scanned,
        r.findings.len(),
        r.suppressions.len()
    );
    if r.is_clean() {
        let _ = writeln!(out, "determinism contract: clean");
    } else {
        let by_rule = count_by_rule(r);
        let _ = writeln!(out, "determinism contract: VIOLATED ({by_rule})");
    }
    out
}

fn count_by_rule(r: &WorkspaceReport) -> String {
    let mut parts = Vec::new();
    for rule in Rule::all() {
        let n = r.findings.iter().filter(|f| f.rule == *rule).count();
        if n > 0 {
            parts.push(format!("{}: {n}", rule.id()));
        }
    }
    parts.join(", ")
}

/// `v` as pretty JSON (two-space indents) and a final newline.
fn pretty(v: &Value) -> String {
    let mut out = serde_json::to_string_pretty(v).expect("the vendored serializer cannot fail");
    out.push('\n');
    out
}

/// Render the machine-readable `--json` report: a schema-versioned
/// envelope (like `RunReport`) so CI tooling can detect format drift.
pub fn render_json(r: &WorkspaceReport) -> String {
    let findings: Vec<Value> = r
        .findings
        .iter()
        .map(|f| {
            json!({
                "rule": f.rule.id(),
                "slug": f.rule.slug(),
                "path": &f.path,
                "line": f.line,
                "col": f.col,
                "message": &f.message,
            })
        })
        .collect();
    let suppressions: Vec<Value> = r
        .suppressions
        .iter()
        .map(|s| {
            json!({
                "rule": s.rule.id(),
                "slug": s.rule.slug(),
                "path": &s.path,
                "line": s.line,
                "justification": &s.justification,
                "used": s.used,
            })
        })
        .collect();
    pretty(&json!({
        "schema": 2u64,
        "tool": json!({"name": "cni-lint", "version": env!("CARGO_PKG_VERSION")}),
        "files_scanned": r.files_scanned,
        "clean": r.is_clean(),
        "findings": findings,
        "suppressions": suppressions,
    }))
}

/// Render the report as minimal SARIF 2.1.0 — enough for code-scanning
/// UIs and diff tooling: one run, one driver, a rule table, and one
/// result per finding with a physical location.
pub fn render_sarif(r: &WorkspaceReport) -> String {
    let rules: Vec<Value> = Rule::all()
        .iter()
        .map(|rule| {
            json!({
                "id": rule.id(),
                "name": rule.slug(),
                "shortDescription": json!({"text": rule.help()}),
            })
        })
        .collect();
    let results: Vec<Value> = r
        .findings
        .iter()
        .map(|f| {
            let region = json!({"startLine": f.line, "startColumn": f.col});
            let location = json!({
                "artifactLocation": json!({"uri": &f.path}),
                "region": region,
            });
            json!({
                "ruleId": f.rule.id(),
                "level": "error",
                "message": json!({"text": &f.message}),
                "locations": json!([json!({"physicalLocation": location})]),
            })
        })
        .collect();
    let driver = json!({
        "name": "cni-lint",
        "version": env!("CARGO_PKG_VERSION"),
        "rules": rules,
    });
    pretty(&json!({
        "version": "2.1.0",
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "runs": json!([json!({"tool": json!({"driver": driver}), "results": results})]),
    }))
}

/// Render the `--explain <rule>` text for a rule named by id (`P1`) or
/// slug (`panic-path`). `None` when the name matches no rule.
pub fn render_explain(name: &str) -> Option<String> {
    let want = name.to_ascii_lowercase();
    let rule = Rule::all()
        .iter()
        .find(|r| r.id().to_ascii_lowercase() == want || r.slug() == want)?;
    Some(format!(
        "{} ({})\n\n{}\n\nhelp: {}\n",
        rule.id(),
        rule.slug(),
        rule.explain(),
        rule.help()
    ))
}
