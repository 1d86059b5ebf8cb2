//! The `--json` and `--sarif` envelopes are built as `serde_json` values
//! and printed by the vendored `serde_json`. These tests read both back
//! and pin the schema-versioned envelope shape CI tooling keys on: every
//! key, value and schema number they check.

use cni_lint::rules::analyze_sources;
use cni_lint::walk::WorkspaceReport;
use cni_lint::{render_json, Rule};
use serde_json::Value;

/// A small workspace with two D1 findings and a used suppression that
/// waives a P1 finding one call below a receive root.
fn sample_report() -> WorkspaceReport {
    let caller = r#"
use std::collections::HashMap;

pub struct T {
    m: HashMap<u32, u64>,
}

impl T {
    pub fn on_frame_rx(&self) -> Vec<u64> {
        self.helper()
    }

    fn helper(&self) -> Vec<u64> {
        let v: Vec<u64> = self.m.values().copied().collect();
        // cni-lint: allow(panic-path) -- fixture: "quoted" justification with back\slash
        v.first().copied().unwrap();
        v
    }
}
"#;
    let analysis = analyze_sources(&[("crates/core/src/gbn.rs".to_string(), caller.to_string())]);
    WorkspaceReport {
        findings: analysis.findings,
        suppressions: analysis.suppressions,
        files_scanned: 1,
    }
}

#[test]
fn json_envelope_parses_and_is_schema_versioned() {
    let report = sample_report();
    let hits: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(hits, vec![(Rule::NondetMap, 2), (Rule::NondetMap, 5)]);
    assert!(
        !report.suppressions.is_empty(),
        "sample must use its waiver"
    );
    let text = render_json(&report);
    let v: Value = serde_json::from_str(&text).expect("hand-rolled JSON must parse");
    assert_eq!(v.get("schema").and_then(Value::as_u64), Some(2));
    let tool = v.get("tool").expect("tool object");
    assert_eq!(
        tool.get("name").and_then(Value::as_str),
        Some("cni-lint"),
        "{text}"
    );
    assert!(tool.get("version").and_then(Value::as_str).is_some());
    assert_eq!(v.get("files_scanned").and_then(Value::as_u64), Some(1));
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
    let findings = v
        .get("findings")
        .and_then(Value::as_array)
        .expect("findings");
    assert_eq!(findings.len(), report.findings.len());
    for (fv, f) in findings.iter().zip(&report.findings) {
        assert_eq!(fv.get("rule").and_then(Value::as_str), Some(f.rule.id()));
        assert_eq!(fv.get("slug").and_then(Value::as_str), Some(f.rule.slug()));
        assert_eq!(
            fv.get("path").and_then(Value::as_str),
            Some(f.path.as_str())
        );
        assert_eq!(
            fv.get("line").and_then(Value::as_u64),
            Some(u64::from(f.line))
        );
        assert_eq!(
            fv.get("message").and_then(Value::as_str),
            Some(f.message.as_str())
        );
    }
    let supps = v
        .get("suppressions")
        .and_then(Value::as_array)
        .expect("suppressions");
    assert_eq!(supps.len(), report.suppressions.len());
    // The justification deliberately contains a quote and a backslash:
    // escaping must survive the round trip byte-for-byte.
    assert_eq!(
        supps[0].get("justification").and_then(Value::as_str),
        Some(report.suppressions[0].justification.as_str())
    );
    assert_eq!(supps[0].get("used").and_then(Value::as_bool), Some(true));
}

#[test]
fn sarif_envelope_parses_with_locations() {
    let report = sample_report();
    let text = cni_lint::report::render_sarif(&report);
    let v: Value = serde_json::from_str(&text).expect("hand-rolled SARIF must parse");
    assert_eq!(v.get("version").and_then(Value::as_str), Some("2.1.0"));
    let runs = v.get("runs").and_then(Value::as_array).expect("runs");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("driver");
    assert_eq!(driver.get("name").and_then(Value::as_str), Some("cni-lint"));
    let rules = driver
        .get("rules")
        .and_then(Value::as_array)
        .expect("rules");
    assert_eq!(rules.len(), Rule::all().len());
    let results = runs[0]
        .get("results")
        .and_then(Value::as_array)
        .expect("results");
    assert_eq!(results.len(), report.findings.len());
    for (rv, f) in results.iter().zip(&report.findings) {
        assert_eq!(rv.get("ruleId").and_then(Value::as_str), Some(f.rule.id()));
        let region = rv
            .get("locations")
            .and_then(Value::as_array)
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .expect("region");
        assert_eq!(
            region.get("startLine").and_then(Value::as_u64),
            Some(u64::from(f.line))
        );
    }
}
