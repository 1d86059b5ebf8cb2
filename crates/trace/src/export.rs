//! Trace exporters: Chrome trace-event JSON and newline-delimited JSON.
//!
//! * [`write_chrome`] emits the [Chrome trace-event format] that Perfetto
//!   and `chrome://tracing` load directly. Each simulated node becomes a
//!   *process* and each component (event queue, CPU, NIC DMA, Message
//!   Cache, PATHFINDER, ADC, notify, DSM, wire, metrics) a named *thread*
//!   track inside it, so a cluster run renders as one lane per
//!   node × component. DMA and wire transfers render as duration slices,
//!   metrics samples as counter tracks, everything else as instants.
//! * [`write_jsonl`] emits one [`TraceRecord`] per line. Record order is
//!   the simulation's deterministic emission order, so two runs with the
//!   same configuration and seed produce byte-identical files — the
//!   property the determinism integration test asserts.
//!
//! [Chrome trace-event format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{MetricsSample, TraceEvent, TraceRecord, NO_NODE};
use serde_json::{json, Map, Value};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Route one job of a batch to its own trace file:
/// `<dir>/<index>-<label>.<ext>`, with the label sanitised to
/// filesystem-safe characters (anything outside `[A-Za-z0-9._-]` becomes
/// `_`). The zero-padded job index keeps a directory listing in
/// submission order and keeps paths unique even when two jobs share a
/// label.
///
/// ```
/// use cni_trace::export::job_trace_path;
/// use std::path::Path;
///
/// let p = job_trace_path(Path::new("traces"), 3, "jacobi 64/cni", "jsonl");
/// assert_eq!(p, Path::new("traces/0003-jacobi_64_cni.jsonl"));
/// ```
pub fn job_trace_path(dir: &Path, index: usize, label: &str, ext: &str) -> PathBuf {
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{index:04}-{safe}.{ext}"))
}

/// Stable thread-track ids for the Chrome export (one lane per component).
/// Append-only: existing positions are the `tid`s of already-exported
/// traces. No event renders on `adc` any more; its slot keeps the later
/// `tid`s where exported traces have them.
const TRACKS: [&str; 13] = [
    "event-queue",
    "cpu",
    "nic-dma",
    "msg-cache",
    "pathfinder",
    "adc",
    "notify",
    "dsm",
    "wire",
    "metrics",
    "faults",
    "span",
    "util",
];

fn tid(track: &str) -> u64 {
    TRACKS.iter().position(|t| *t == track).unwrap_or(0) as u64
}

/// Chrome `pid` for a node (the engine's [`NO_NODE`] gets pid 0).
fn pid(node: u32) -> u64 {
    if node == NO_NODE {
        0
    } else {
        node as u64 + 1
    }
}

fn ts_us(t_ps: u64) -> f64 {
    t_ps as f64 / 1e6
}

/// An event's Chrome slice name and `args` object, from one
/// serialization: the `ev` tag, and the serde representation without it.
fn name_and_args(event: &TraceEvent) -> (String, Value) {
    let mut args = serde_json::to_value(event).expect("trace events serialize");
    let name = match args.as_object_mut().and_then(|m| m.remove("ev")) {
        Some(Value::String(name)) => name,
        _ => "event".to_string(),
    };
    (name, args)
}

/// Counter tracks derived from one metrics sample: (counter name, series).
fn counters(s: &MetricsSample) -> Vec<(&'static str, Value)> {
    vec![
        (
            "dma bytes",
            json!({"to_board": s.dma_bytes_to_board, "to_host": s.dma_bytes_to_host}),
        ),
        (
            "messages",
            json!({"tx": s.tx_messages, "rx": s.rx_messages}),
        ),
        (
            "msg-cache",
            json!({"hits": s.tx_cache_hits, "lookups": s.tx_page_lookups}),
        ),
        (
            "notify",
            json!({"interrupts": s.interrupts, "polls": s.polls, "aih": s.aih_dispatches}),
        ),
        (
            "dsm fetches",
            json!({"pages": s.page_fetches, "diffs": s.diff_fetches, "invalidations": s.invalidations}),
        ),
    ]
}

fn chrome_events(rec: &TraceRecord) -> Vec<Value> {
    let p = pid(rec.node);
    let t = tid(rec.event.track());
    match &rec.event {
        TraceEvent::DmaToBoard { dur_ps, .. }
        | TraceEvent::DmaToHost { dur_ps, .. }
        | TraceEvent::ProtoTx { dur_ps, .. } => {
            // Duration slice: the record is stamped at completion time.
            let start = rec.t_ps.saturating_sub(*dur_ps);
            let (name, args) = name_and_args(&rec.event);
            vec![json!({
                "name": name,
                "ph": "X",
                "ts": ts_us(start),
                "dur": ts_us(*dur_ps),
                "pid": p,
                "tid": t,
                "args": args,
            })]
        }
        TraceEvent::Metrics(sample) => counters(sample)
            .into_iter()
            .map(|(cname, series)| {
                json!({
                    "name": cname,
                    "ph": "C",
                    "ts": ts_us(rec.t_ps),
                    "pid": p,
                    "tid": t,
                    "args": series,
                })
            })
            .collect(),
        // Utilization gauges render as Perfetto counter tracks: busy
        // fractions in percent of the sampled interval, ring/queue depths
        // as raw occupancy.
        TraceEvent::UtilNode {
            busy_ps,
            ingress_ps,
            egress_ps,
            ring_hw,
            interval_ps,
        } => {
            let pct = |v: u64| {
                if *interval_ps == 0 {
                    0.0
                } else {
                    v as f64 * 100.0 / *interval_ps as f64
                }
            };
            vec![
                json!({
                    "name": "utilization %",
                    "ph": "C",
                    "ts": ts_us(rec.t_ps),
                    "pid": p,
                    "tid": t,
                    "args": json!({
                        "nic": pct(*busy_ps),
                        "ingress": pct(*ingress_ps),
                        "egress": pct(*egress_ps),
                    }),
                }),
                json!({
                    "name": "rx-ring high-water",
                    "ph": "C",
                    "ts": ts_us(rec.t_ps),
                    "pid": p,
                    "tid": t,
                    "args": json!({"slots": *ring_hw}),
                }),
            ]
        }
        TraceEvent::UtilQueue { depth } => vec![json!({
            "name": "event-queue depth",
            "ph": "C",
            "ts": ts_us(rec.t_ps),
            "pid": p,
            "tid": t,
            "args": json!({"pending": *depth}),
        })],
        _ => {
            let (name, args) = name_and_args(&rec.event);
            vec![json!({
                "name": name,
                "ph": "i",
                "ts": ts_us(rec.t_ps),
                "pid": p,
                "tid": t,
                "s": "t",
                "args": args,
            })]
        }
    }
}

/// Write `records` as a Chrome trace-event JSON object (open the file in
/// Perfetto or `chrome://tracing`). One process per node, one thread
/// track per component.
pub fn write_chrome<W: Write>(w: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    // Metadata first: name every process and thread track in use.
    let mut nodes = BTreeSet::new();
    let mut lanes = BTreeSet::new();
    for r in records {
        nodes.insert(r.node);
        lanes.insert((pid(r.node), tid(r.event.track()), r.event.track()));
    }
    let mut events: Vec<Value> = Vec::with_capacity(records.len() + nodes.len() + lanes.len());
    for &n in &nodes {
        let pname = if n == NO_NODE {
            "simulator".to_string()
        } else {
            format!("node{n}")
        };
        events.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": pid(n),
            "args": json!({"name": pname}),
        }));
    }
    for &(p, t, track) in &lanes {
        events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": p,
            "tid": t,
            "args": json!({"name": track}),
        }));
    }
    for r in records {
        events.extend(chrome_events(r));
    }
    let mut root = Map::new();
    root.insert("traceEvents".to_string(), Value::Array(events));
    root.insert("displayTimeUnit".to_string(), Value::String("ns".into()));
    serde_json::to_writer(&mut *w, &Value::Object(root)).map_err(io::Error::other)?;
    writeln!(w)
}

/// Write `records` as newline-delimited JSON, one record per line, in
/// emission order. Deterministic: identically-seeded runs produce
/// byte-identical output.
pub fn write_jsonl<W: Write>(w: &mut W, records: &[TraceRecord]) -> io::Result<()> {
    for r in records {
        serde_json::to_writer(&mut *w, r).map_err(io::Error::other)?;
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    fn sample_records() -> Vec<TraceRecord> {
        let sink = TraceSink::ring(64);
        sink.emit_at(
            1_000,
            NO_NODE,
            TraceEvent::QueueDispatch { seq: 1, pending: 3 },
        );
        sink.emit_at(
            2_000,
            0,
            TraceEvent::DmaToBoard {
                bytes: 2048,
                dur_ps: 500,
            },
        );
        sink.emit_at(3_000, 1, TraceEvent::MsgCacheHit { page: 7 });
        sink.emit_at(
            4_000,
            1,
            TraceEvent::Metrics(MetricsSample {
                interval_ps: 1_000,
                interrupts: 2,
                ..MetricsSample::default()
            }),
        );
        sink.drain()
    }

    #[test]
    fn job_trace_paths_stay_unique_and_filesystem_safe() {
        let dir = Path::new("out");
        // One `_` per character, multi-byte ones included; `.`, `_` and `-`
        // survive.
        assert_eq!(
            job_trace_path(dir, 0, "wäter 8/λ..a_b-c", "json"),
            Path::new("out/0000-w_ter_8__..a_b-c.json")
        );
        // Two jobs with one label get two paths, and an index past four
        // digits widens instead of wrapping.
        assert_ne!(
            job_trace_path(dir, 1, "j", "ck"),
            job_trace_path(dir, 2, "j", "ck")
        );
        assert_eq!(
            job_trace_path(dir, 12_345, "", "report.json"),
            Path::new("out/12345-.report.json")
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_tracks() {
        let mut buf = Vec::new();
        write_chrome(&mut buf, &sample_records()).unwrap();
        let v: Value = serde_json::from_slice(&buf).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // 3 process_name + 4 thread_name metadata, 2 instants, 1 X, 5 C.
        assert!(events.len() >= 10, "got {} events", events.len());
        let slice = events
            .iter()
            .find(|e| e["ph"] == "X")
            .expect("DMA renders as a duration slice");
        assert_eq!(slice["dur"], json!(0.0005));
        assert_eq!(slice["ts"], json!(0.0015));
        assert!(events.iter().any(|e| e["ph"] == "C"));
        assert!(events
            .iter()
            .any(|e| e["name"] == "process_name" && e["args"]["name"] == "simulator"));
        assert!(events
            .iter()
            .any(|e| e["name"] == "thread_name" && e["args"]["name"] == "msg-cache"));
    }

    #[test]
    fn jsonl_is_one_record_per_line_and_deterministic() {
        let recs = sample_records();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_jsonl(&mut a, &recs).unwrap();
        write_jsonl(&mut b, &recs).unwrap();
        assert_eq!(a, b);
        let lines: Vec<&[u8]> = a.split(|&c| c == b'\n').filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), recs.len());
        for l in lines {
            let _: TraceRecord = serde_json::from_slice(l).unwrap();
        }
    }
}
