//! Findings baseline: CI fails only on *new* findings.
//!
//! A baseline is the committed set of accepted findings, keyed by
//! `(rule slug, path, message)` — deliberately **not** by line, so pure
//! code motion (imports added above, functions reordered) never
//! invalidates it. `--write-baseline` snapshots the current findings;
//! `--baseline <file>` filters them out of `--check`. On a clean
//! workspace the committed baseline is the empty set, and stays that
//! way: the file exists so the CI diff step has a fixed anchor, not as
//! a parking lot for violations.
//!
//! The format is JSON, `{"schema": 1, "tool": "cni-lint", "entries":
//! [{"rule", "path", "message"}, ...]}`, written and read through the
//! derived serde form of one record and the vendored `serde_json`.

use crate::rules::Finding;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The only baseline schema this lint reads and writes.
const SCHEMA: u64 = 1;

/// A baseline file as stored.
#[derive(Serialize, Deserialize)]
struct File {
    schema: u64,
    tool: String,
    entries: Vec<Entry>,
}

/// One accepted finding key.
#[derive(Serialize, Deserialize)]
struct Entry {
    rule: String,
    path: String,
    message: String,
}

/// A parsed baseline: the set of accepted finding keys.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    keys: BTreeSet<(String, String, String)>,
}

impl Baseline {
    /// Does the baseline accept this finding?
    pub fn accepts(&self, f: &Finding) -> bool {
        self.keys
            .contains(&(f.rule.slug().to_string(), f.path.clone(), f.message.clone()))
    }

    /// The findings in `all` that the baseline does not accept.
    pub fn new_findings<'a>(&self, all: &'a [Finding]) -> Vec<&'a Finding> {
        all.iter().filter(|f| !self.accepts(f)).collect()
    }

    /// Number of accepted keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the baseline accepts nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Serialize the given findings as a baseline file.
pub fn render(findings: &[Finding]) -> String {
    let keys: BTreeSet<(String, String, String)> = findings
        .iter()
        .map(|f| (f.rule.slug().to_string(), f.path.clone(), f.message.clone()))
        .collect();
    let file = File {
        schema: SCHEMA,
        tool: "cni-lint".to_string(),
        entries: keys
            .into_iter()
            .map(|(rule, path, message)| Entry {
                rule,
                path,
                message,
            })
            .collect(),
    };
    crate::report::pretty(&file)
}

/// Parse a baseline file. Rejects text that is not JSON and files whose
/// `schema` is missing or unknown.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let file: File = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if file.schema != SCHEMA {
        return Err(format!("unsupported baseline schema {}", file.schema));
    }
    let keys = file
        .entries
        .into_iter()
        .map(|e| (e.rule, e.path, e.message))
        .collect();
    Ok(Baseline { keys })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding(slug_rule: Rule, path: &str, msg: &str) -> Finding {
        Finding {
            rule: slug_rule,
            path: path.to_string(),
            line: 10,
            col: 3,
            message: msg.to_string(),
        }
    }

    #[test]
    fn round_trip_ignores_lines() {
        let f = finding(
            Rule::NondetMap,
            "crates/dsm/src/space.rs",
            "iter on `pages`",
        );
        let text = render(std::slice::from_ref(&f));
        let b = parse(&text).unwrap();
        let mut moved = f.clone();
        moved.line = 999;
        assert!(b.accepts(&moved));
        let other = finding(Rule::NondetMap, "crates/dsm/src/space.rs", "other message");
        assert_eq!(b.new_findings(&[f, other.clone()]).len(), 1);
        assert_eq!(b.new_findings(&[other])[0].message, "other message");
    }

    #[test]
    fn empty_baseline_accepts_nothing() {
        let text = render(&[]);
        let b = parse(&text).unwrap();
        assert!(b.is_empty());
        assert!(!b.accepts(&finding(Rule::HostTime, "src/lib.rs", "m")));
    }

    #[test]
    fn bad_schema_is_rejected() {
        let unknown = parse(r#"{"schema": 9, "tool": "cni-lint", "entries": []}"#);
        assert!(unknown.unwrap_err().contains("schema 9"));
        let missing = parse(r#"{"tool": "cni-lint", "entries": []}"#);
        assert!(missing.unwrap_err().contains("schema"));
        assert!(parse("not json").is_err());
    }

    /// Both are malformed JSON: a missing comma, and a `\u` escape with
    /// a sign in its four hex digits.
    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse(r#"{"schema": 1 "entries": []}"#).is_err());
        let signed = r#"{"schema": 1, "tool": "cni-lint",
            "entries": [{"rule": "a\u+041", "path": "p", "message": "m"}]}"#;
        assert!(parse(signed).is_err());
    }

    #[test]
    fn the_committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint-baseline.json");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(parse(&text).unwrap().is_empty());
    }

    #[test]
    fn escapes_round_trip() {
        let f = finding(
            Rule::NondetMap,
            "src/a.rs",
            "msg with \"quotes\" and\nnewline",
        );
        let b = parse(&render(std::slice::from_ref(&f))).unwrap();
        assert!(b.accepts(&f));
        assert_eq!(b.len(), 1);
    }
}
