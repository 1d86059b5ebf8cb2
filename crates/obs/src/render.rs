//! Canonical text rendering of a trace analysis.
//!
//! [`render_analysis`] is the single formatting path shared by
//! `cni-run --obs`, `cni-analyze` and the golden observability fixture:
//! every quantity it prints derives from integer picosecond accumulators,
//! so identically-seeded runs render byte-identical reports.

use crate::critpath::critical_path;
use crate::decomp::{decompose, KindStages};
use crate::span::SpanTree;
use crate::util::utilization;
use cni_trace::{TraceRecord, SPAN_ACK, SPAN_FRAME};
use std::fmt::Write as _;

/// Human name of a wire kind byte (protocol kinds, the application kind
/// and the reliability layer's ACK kind).
pub fn kind_label(kind: u8) -> &'static str {
    match kind {
        0xD0 => "acquire-req",
        0xD1 => "acquire-fwd",
        0xD2 => "acquire-grant",
        0xD3 => "barrier-arrive",
        0xD4 => "barrier-release",
        0xD5 => "page-req",
        0xD6 => "page-resp",
        0xD7 => "diff-req",
        0xD8 => "diff-resp",
        0xA0 => "app",
        0xF1 => "ack",
        _ => "unknown",
    }
}

fn class_label(class: u8) -> &'static str {
    match class {
        SPAN_FRAME => "frame",
        SPAN_ACK => "ack",
        _ => "msg",
    }
}

/// Mean nanoseconds per message: integer picosecond total over count.
fn mean_ns(total_ps: u64, count: u64) -> u64 {
    total_ps.checked_div(count).unwrap_or(0) / 1000
}

fn kind_row(out: &mut String, k: &KindStages) {
    let m = |ps| mean_ns(ps, k.count);
    let _ = writeln!(
        out,
        "{:<15} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} | {:>9} {:>9} {:>9}",
        kind_label(k.kind),
        k.count,
        m(k.stages.host_dma_ps),
        m(k.stages.tx_queue_ps),
        m(k.stages.wire_ps),
        m(k.stages.rx_nic_ps),
        m(k.stages.reassembly_ps),
        m(k.stages.handler_ps),
        m(k.e2e_ps),
        k.p50_ns,
        k.p99_ns,
    );
}

/// Render the full analysis of a drained trace: span accounting, stage
/// decomposition per kind and per channel, the critical path of the last
/// barrier interval and the utilization profile. Pure and deterministic:
/// byte-identical output for byte-identical record sequences.
pub fn render_analysis(records: &[TraceRecord]) -> String {
    let tree = SpanTree::build(records);
    let rep = decompose(&tree);
    let mut out = String::new();
    let _ = writeln!(out, "== cni-analyze ==");
    let _ = writeln!(
        out,
        "records {}  spans {} opened / {} closed / {} unclosed / {} orphaned",
        records.len(),
        tree.opened,
        tree.closed,
        tree.unclosed(),
        tree.orphans,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- stage decomposition by kind (mean ns per message) --"
    );
    let _ = writeln!(
        out,
        "{:<15} {:>6} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} | {:>9} {:>9} {:>9}",
        "kind",
        "count",
        "host-dma",
        "tx-queue",
        "wire",
        "rx-nic",
        "reassembly",
        "handler",
        "e2e",
        "p50(ns)",
        "p99(ns)",
    );
    let (mut total_e2e, mut total_stages) = (0u64, 0u64);
    for k in &rep.kinds {
        kind_row(&mut out, k);
        total_e2e = total_e2e.saturating_add(k.e2e_ps);
        total_stages = total_stages.saturating_add(k.stages.sum_ps());
    }
    let _ = writeln!(
        out,
        "stage sums tile end-to-end: {} ns across {} messages (residual {} ps)",
        total_e2e / 1000,
        rep.messages,
        total_e2e.abs_diff(total_stages),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "-- latency by channel --");
    let _ = writeln!(
        out,
        "{:<9} {:>6} {:>9} {:>9} {:>9}",
        "channel", "count", "mean(ns)", "p50(ns)", "p99(ns)"
    );
    for c in &rep.channels {
        let _ = writeln!(
            out,
            "{:<9} {:>6} {:>9} {:>9} {:>9}",
            format!("{}->{}", c.src, c.dst),
            c.count,
            mean_ns(c.e2e_ps, c.count),
            c.p50_ns,
            c.p99_ns,
        );
    }
    let _ = writeln!(out);
    match critical_path(records, &tree) {
        Some(cp) => {
            let epoch = match cp.epoch {
                Some(e) => format!("barrier epoch {e}"),
                None => "no barrier".to_string(),
            };
            let _ = writeln!(
                out,
                "-- critical path ({epoch}, {} links, {} ns) --",
                cp.links.len(),
                cp.total_ps / 1000,
            );
            for (i, l) in cp.links.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:>3}. span {:<6} {:<5} {:<15} {}->{} open {} ns close {} ns dominant {} ({} ns)",
                    i + 1,
                    l.span,
                    class_label(l.class),
                    kind_label(l.kind),
                    l.src,
                    l.dst,
                    l.open_ps / 1000,
                    l.close_ps / 1000,
                    l.dominant,
                    l.dominant_ps / 1000,
                );
            }
        }
        None => {
            let _ = writeln!(out, "-- critical path: no closed spans --");
        }
    }
    let _ = writeln!(out);
    let util = utilization(records);
    if util.nodes.is_empty() && util.queue_samples == 0 {
        let _ = writeln!(out, "-- utilization: no samples --");
    } else {
        let _ = writeln!(out, "-- utilization --");
        let _ = writeln!(
            out,
            "{:<5} {:>8} {:>7} {:>9} {:>8} {:>8}",
            "node", "samples", "nic%", "ingress%", "egress%", "ring-hw"
        );
        for n in &util.nodes {
            let _ = writeln!(
                out,
                "{:<5} {:>8} {:>7.2} {:>9.2} {:>8.2} {:>8}",
                n.node,
                n.samples,
                n.nic_pct(),
                n.ingress_pct(),
                n.egress_pct(),
                n.ring_hw,
            );
        }
        let _ = writeln!(
            out,
            "event-queue depth max {} over {} samples",
            util.queue_depth_max, util.queue_samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_trace::{TraceEvent, TraceSink, SPAN_MSG};

    #[test]
    fn render_is_deterministic_and_reports_tiling() {
        let sink = TraceSink::ring(64);
        sink.emit_at(
            0,
            0,
            TraceEvent::SpanOpen {
                span: 1,
                parent: 0,
                class: SPAN_MSG,
                kind: 0xD4,
                src: 0,
                dst: 1,
                bytes: 64,
            },
        );
        sink.emit_at(
            800,
            0,
            TraceEvent::SpanTx {
                span: 1,
                host_dma_ps: 100,
                tx_queue_ps: 200,
                wire_ps: 500,
            },
        );
        sink.emit_at(1_000, 1, TraceEvent::SpanClose { span: 1 });
        let recs = sink.drain();
        let a = render_analysis(&recs);
        let b = render_analysis(&recs);
        assert_eq!(a, b);
        assert!(a.contains("residual 0 ps"), "{a}");
        assert!(a.contains("barrier-release"), "{a}");
        assert!(a.contains("-- critical path (no barrier, 1 links"), "{a}");
    }

    #[test]
    fn kind_labels_name_every_wire_kind_once() {
        let kinds: Vec<u8> = (0xD0..=0xD8).chain([0xA0, 0xF1]).collect();
        let labels: std::collections::BTreeSet<_> = kinds.iter().map(|&k| kind_label(k)).collect();
        assert_eq!(labels.len(), kinds.len());
        assert!(!labels.contains("unknown"));
        assert_eq!(kind_label(0x00), "unknown");
        assert_eq!(kind_label(0xD9), "unknown");
    }

    #[test]
    fn header_counts_unclosed_and_orphaned_spans() {
        let sink = TraceSink::ring(64);
        sink.emit_at(
            0,
            0,
            TraceEvent::SpanOpen {
                span: 1,
                parent: 0,
                class: SPAN_MSG,
                kind: 0xD0,
                src: 0,
                dst: 1,
                bytes: 64,
            },
        );
        sink.emit_at(10, 1, TraceEvent::SpanClose { span: 9 });
        let s = render_analysis(&sink.drain());
        assert!(
            s.contains("records 2  spans 1 opened / 0 closed / 1 unclosed / 1 orphaned"),
            "{s}"
        );
        assert!(s.contains("0 ns across 0 messages (residual 0 ps)"), "{s}");
    }

    #[test]
    fn empty_trace_renders_placeholders() {
        let s = render_analysis(&[]);
        assert!(s.contains("no closed spans"), "{s}");
        assert!(s.contains("no samples"), "{s}");
    }
}
