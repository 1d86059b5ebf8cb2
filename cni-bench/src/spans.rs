//! Bench-owned host-time spans: set-up, run and each probe batch, with
//! the span that caused each. Kept in memory and written out as JSONL
//! when a traced workload ends; a span's self time is its duration minus
//! the part its child spans cover.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span, times in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based id, unique within one recorder.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// What was measured.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root) and return its id.
    pub fn enter(&mut self, name: &str, parent: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn exit(&mut self, id: u64) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[(id - 1) as usize];
        s.end_ns = end;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, parent);
        let r = f();
        (r, self.exit(id))
    }

    /// Adopt spans recorded by another recorder (a child process) under
    /// `parent`, shifting their times so they start where `parent` starts.
    pub fn graft(&mut self, other: &[Span], parent: u64) {
        let base = self.spans.len() as u64;
        let origin = self.spans[(parent - 1) as usize].start_ns;
        for s in other {
            self.spans.push(Span {
                id: s.id + base,
                parent: if s.parent == 0 {
                    parent
                } else {
                    s.parent + base
                },
                name: s.name.clone(),
                start_ns: s.start_ns + origin,
                end_ns: s.end_ns + origin,
            });
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (summed over spans of that name), in
    /// seconds, with the number of spans, ordered by name.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                covered[(s.parent - 1) as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut ns: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let e = ns.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        ns.into_iter()
            .map(|(name, (n, t))| (name, (n, t as f64 / 1e9)))
            .collect()
    }

    /// One JSONL line per span, tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut m = span_value(s);
            m.insert("workload".into(), workload.into());
            out.push_str(&Value::Object(m).to_string());
            out.push('\n');
        }
        out
    }
}

/// A span as a JSON object (without the workload tag).
pub fn span_value(s: &Span) -> Map {
    let mut m = Map::new();
    m.insert("id".into(), s.id.into());
    m.insert("parent".into(), s.parent.into());
    m.insert("name".into(), s.name.as_str().into());
    m.insert("start_ns".into(), s.start_ns.into());
    m.insert("end_ns".into(), s.end_ns.into());
    m
}

/// Parse a span written by [`span_value`].
pub fn span_from_value(v: &Value) -> Option<Span> {
    Some(Span {
        id: v.get("id")?.as_u64()?,
        parent: v.get("parent")?.as_u64()?,
        name: v.get("name")?.as_str()?.to_string(),
        start_ns: v.get("start_ns")?.as_u64()?,
        end_ns: v.get("end_ns")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        s.spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "run", 10, 40),
            span(3, 1, "run", 50, 70),
            span(4, 3, "probe", 55, 60),
        ];
        let t = s.self_times();
        assert_eq!(t["root"], (1, 50e-9));
        assert_eq!(t["run"], (2, 45e-9));
        assert_eq!(t["probe"], (1, 5e-9));
    }

    #[test]
    fn graft_reparents_and_shifts() {
        let mut s = Spans::new();
        s.spans = vec![span(1, 0, "workload", 1_000, 9_000)];
        s.graft(
            &[span(1, 0, "child", 0, 500), span(2, 1, "run", 100, 400)],
            1,
        );
        assert_eq!(s.spans()[1], span(2, 1, "child", 1_000, 1_500));
        assert_eq!(s.spans()[2], span(3, 2, "run", 1_100, 1_400));
    }

    #[test]
    fn spans_round_trip_through_json() {
        let sp = span(3, 1, "probe.queue", 5, 9);
        let v = Value::Object(span_value(&sp));
        assert_eq!(span_from_value(&v), Some(sp));
        let mut s = Spans::new();
        let id = s.enter("x", 0);
        s.exit(id);
        assert!(s.to_jsonl("w").contains("\"workload\":\"w\""));
    }
}
