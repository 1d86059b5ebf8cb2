//! Observability analysis over CNI simulation traces.
//!
//! The engine emits four compact span records per message lifecycle
//! ([`cni_trace::TraceEvent::SpanOpen`] / `SpanTx` / `SpanRx` /
//! `SpanClose`) plus per-interval utilization gauges (`UtilNode`,
//! `UtilQueue`). This crate consumes a finished trace — in memory or as a
//! JSONL file — and turns it into:
//!
//! * a **span tree** linking every PDU's lifecycle to its cause
//!   ([`SpanTree`]): retransmitted frames and acknowledgements are
//!   children of the originating send, protocol replies are children of
//!   the request that provoked them;
//! * a **per-message stage decomposition** ([`ObsReport`]): host DMA /
//!   transmit queue / wire / receive NIC / reassembly / handler time,
//!   totalled per message kind and per (src, dst) channel with
//!   percentile tables — the stage sums tile the end-to-end latency
//!   exactly (the handler stage is defined as the remainder);
//! * a **critical-path extraction** ([`CriticalPath`]): the causal chain
//!   that closed a barrier interval, walked root-first through the span
//!   DAG;
//! * a **utilization profile** ([`UtilSummary`]): link occupancy,
//!   NIC-processor busy fraction, event-queue depth and receive-ring
//!   high-water marks, with a flamegraph-compatible folded-stack export.
//!
//! Every analysis is a pure function of the record sequence, and the
//! record sequence is deterministic per seed, so [`render_analysis`]
//! output is byte-identical across reruns — the property the golden
//! observability fixture pins.

#![deny(missing_docs)]

mod critpath;
mod decomp;
mod render;
mod span;
mod util;

pub use critpath::{critical_path, CriticalPath, PathLink};
pub use decomp::{decompose, ChannelLatency, KindStages, ObsReport, StageTotals};
pub use render::{kind_label, render_analysis};
pub use span::{SpanInfo, SpanTree};
pub use util::{folded_stacks, utilization, NodeUtil, UtilSummary};

use cni_trace::TraceRecord;

/// Parse a newline-delimited JSON trace (the `--trace-format jsonl`
/// output) back into records. Blank lines are skipped; the first
/// malformed line aborts with its 1-based line number.
pub fn read_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_trace::{TraceEvent, TraceSink, SPAN_MSG};

    #[test]
    fn jsonl_round_trip_matches_in_memory_analysis() {
        let sink = TraceSink::ring(64);
        sink.emit_at(
            0,
            0,
            TraceEvent::SpanOpen {
                span: 1,
                parent: 0,
                class: SPAN_MSG,
                kind: 0xD5,
                src: 0,
                dst: 1,
                bytes: 64,
            },
        );
        sink.emit_at(
            900,
            0,
            TraceEvent::SpanTx {
                span: 1,
                host_dma_ps: 100,
                tx_queue_ps: 200,
                wire_ps: 600,
            },
        );
        sink.emit_at(
            1_000,
            1,
            TraceEvent::SpanRx {
                span: 1,
                rx_nic_ps: 40,
                sar_ps: 60,
            },
        );
        sink.emit_at(1_500, 1, TraceEvent::SpanClose { span: 1 });
        let recs = sink.drain();
        let mut buf = Vec::new();
        cni_trace::export::write_jsonl(&mut buf, &recs).unwrap();
        let parsed = read_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(render_analysis(&recs), render_analysis(&parsed));
    }

    #[test]
    fn forged_durations_saturate_instead_of_overflowing() {
        // A hand-edited trace whose stage durations and utilization gauges
        // sit at `u64::MAX`. A debug build panicked adding them; a release
        // build printed wrapped totals. 1,001 spans of `u64::MAX`
        // picoseconds also overflow the latency histogram's sum of
        // nanoseconds.
        let max = u64::MAX;
        let rec = |t_ps, node, event| TraceRecord { t_ps, node, event };
        let mut recs = Vec::new();
        for span in 1..=1_001 {
            recs.push(rec(
                0,
                0,
                TraceEvent::SpanOpen {
                    span,
                    parent: 0,
                    class: SPAN_MSG,
                    kind: 0xD4,
                    src: 0,
                    dst: 1,
                    bytes: 64,
                },
            ));
            recs.push(rec(
                1,
                0,
                TraceEvent::SpanTx {
                    span,
                    host_dma_ps: max,
                    tx_queue_ps: max,
                    wire_ps: 1,
                },
            ));
            recs.push(rec(max, 1, TraceEvent::SpanClose { span }));
        }
        let util = TraceEvent::UtilNode {
            busy_ps: max,
            ingress_ps: max,
            egress_ps: max,
            ring_hw: 1,
            interval_ps: max,
        };
        recs.extend([rec(5, 0, util), rec(6, 0, util)]);
        let mut buf = Vec::new();
        cni_trace::export::write_jsonl(&mut buf, &recs).unwrap();
        let recs = read_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();

        let tree = SpanTree::build(&recs);
        assert_eq!(tree.spans[&1].recorded_stages_ps(), max);
        let kind = &decompose(&tree).kinds[0];
        assert_eq!((kind.stages.sum_ps(), kind.e2e_ps), (max, max));
        let report = render_analysis(&recs);
        assert!(report.contains("across 1001 messages"), "{report}");
        let stacks = folded_stacks(&utilization(&recs));
        assert!(
            stacks.contains(&format!("node0;nic-processor {max}")),
            "{stacks}"
        );
    }

    #[test]
    fn read_jsonl_skips_blank_and_whitespace_lines() {
        let recs = [
            TraceRecord {
                t_ps: 1,
                node: 0,
                event: TraceEvent::Poll,
            },
            TraceRecord {
                t_ps: 2,
                node: 1,
                event: TraceEvent::Interrupt,
            },
        ];
        let line = |r: &TraceRecord| serde_json::to_string(r).unwrap();
        let text = format!("\n{}\n  \t\n\n{}\n\n", line(&recs[0]), line(&recs[1]));
        assert_eq!(read_jsonl(&text).unwrap(), recs);
        // Line numbers count the skipped lines.
        let err = read_jsonl(&format!("{}\n\n \nnope\n", line(&recs[0]))).unwrap_err();
        assert!(err.starts_with("trace line 4:"), "{err}");
    }

    #[test]
    fn read_jsonl_reports_the_bad_line() {
        let err = read_jsonl("\n{not json}\n").unwrap_err();
        assert!(err.starts_with("trace line 2:"), "{err}");
    }
}
