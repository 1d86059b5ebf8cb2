//! Per-message stage decomposition: where each message kind's latency
//! goes, totalled per kind and per (src, dst) channel.

use crate::span::SpanTree;
use cni_sim::stats::Histogram;
use cni_trace::SPAN_MSG;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stage-duration totals (picoseconds). The six stages tile the
/// end-to-end latency of the spans they aggregate: `handler_ps` is
/// defined as the unexplained remainder, so
/// `sum_ps() == e2e` holds exactly per span and therefore per total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTotals {
    /// Host-side send work (kernel entry / ADC enqueue, cache flush).
    pub host_dma_ps: u64,
    /// NIC transmit queue: descriptor fetch, Message-Cache lookup,
    /// host→board DMA, first-cell segmentation.
    pub tx_queue_ps: u64,
    /// Wire occupancy: ingress link, switch, egress link, propagation.
    pub wire_ps: u64,
    /// Wait for the receiving NIC processor.
    pub rx_nic_ps: u64,
    /// AAL5 reassembly (SAR).
    pub reassembly_ps: u64,
    /// Handler remainder: PATHFINDER classify + AIH execution on the
    /// CNI, interrupt + host protocol processing on the standard NIC,
    /// plus delivery DMA.
    pub handler_ps: u64,
}

impl StageTotals {
    /// Sum of all six stages — equals the end-to-end total by
    /// construction, unless a forged trace's durations saturate it.
    pub fn sum_ps(&self) -> u64 {
        self.host_dma_ps
            .saturating_add(self.tx_queue_ps)
            .saturating_add(self.wire_ps)
            .saturating_add(self.rx_nic_ps)
            .saturating_add(self.reassembly_ps)
            .saturating_add(self.handler_ps)
    }
}

/// Stage decomposition for one message kind.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KindStages {
    /// Wire kind byte (`0xD0..=0xD8` protocol, `0xA0` application).
    pub kind: u8,
    /// Closed message spans of this kind.
    pub count: u64,
    /// Stage totals across those spans.
    pub stages: StageTotals,
    /// Total end-to-end time (== `stages.sum_ps()`).
    pub e2e_ps: u64,
    /// Median end-to-end latency in nanoseconds (interpolated within
    /// power-of-two histogram buckets; deterministic).
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency in nanoseconds.
    pub p99_ns: u64,
}

/// End-to-end latency summary for one (src, dst) channel.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelLatency {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Closed message spans on this channel.
    pub count: u64,
    /// Total end-to-end time.
    pub e2e_ps: u64,
    /// Median end-to-end latency (nanoseconds).
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency (nanoseconds).
    pub p99_ns: u64,
}

/// The full stage-decomposition report, embedded in `RunReport` (v5+)
/// when a run executes with `--obs`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Closed message-class spans the decomposition covers.
    pub messages: u64,
    /// Spans opened but never closed (any class) — non-zero only when a
    /// trace was truncated or a run aborted mid-flight.
    pub unclosed: u64,
    /// Per-kind decomposition, ordered by kind byte.
    pub kinds: Vec<KindStages>,
    /// Per-channel latency, ordered by (src, dst).
    pub channels: Vec<ChannelLatency>,
}

/// Decompose every closed message-class span of `tree` into its stage
/// table. Frame and ACK spans (reliable-layer wire attempts) carry the
/// transport detail of lossy runs but are lifecycle children — the
/// message span still records the end-to-end story, so only message
/// spans aggregate here.
pub fn decompose(tree: &SpanTree) -> ObsReport {
    let mut kinds: BTreeMap<u8, (KindStages, Histogram)> = BTreeMap::new();
    let mut chans: BTreeMap<(u32, u32), (ChannelLatency, Histogram)> = BTreeMap::new();
    let mut messages = 0u64;
    for s in tree.spans.values() {
        if s.class != SPAN_MSG {
            continue;
        }
        let (Some(e2e), Some(handler)) = (s.e2e_ps(), s.handler_ps()) else {
            continue;
        };
        messages += 1;
        let (k, kh) = kinds.entry(s.kind).or_insert_with(|| {
            (
                KindStages {
                    kind: s.kind,
                    ..KindStages::default()
                },
                Histogram::new(),
            )
        });
        // Durations come from the trace: totals saturate, never wrap.
        k.count += 1;
        k.e2e_ps = k.e2e_ps.saturating_add(e2e);
        let t = &mut k.stages;
        t.host_dma_ps = t.host_dma_ps.saturating_add(s.host_dma_ps);
        t.tx_queue_ps = t.tx_queue_ps.saturating_add(s.tx_queue_ps);
        t.wire_ps = t.wire_ps.saturating_add(s.wire_ps);
        t.rx_nic_ps = t.rx_nic_ps.saturating_add(s.rx_nic_ps);
        t.reassembly_ps = t.reassembly_ps.saturating_add(s.sar_ps);
        t.handler_ps = t.handler_ps.saturating_add(handler);
        kh.record(e2e / 1000);
        let (c, ch) = chans.entry((s.src, s.dst)).or_insert_with(|| {
            (
                ChannelLatency {
                    src: s.src,
                    dst: s.dst,
                    ..ChannelLatency::default()
                },
                Histogram::new(),
            )
        });
        c.count += 1;
        c.e2e_ps = c.e2e_ps.saturating_add(e2e);
        ch.record(e2e / 1000);
    }
    ObsReport {
        messages,
        unclosed: tree.unclosed(),
        kinds: kinds
            .into_values()
            .map(|(mut k, h)| {
                k.p50_ns = h.percentile(50.0) as u64;
                k.p99_ns = h.percentile(99.0) as u64;
                k
            })
            .collect(),
        channels: chans
            .into_values()
            .map(|(mut c, h)| {
                c.p50_ns = h.percentile(50.0) as u64;
                c.p99_ns = h.percentile(99.0) as u64;
                c
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTree;
    use cni_trace::{TraceEvent, TraceSink, SPAN_FRAME};

    fn message(sink: &TraceSink, span: u64, kind: u8, src: u32, dst: u32, t0: u64) {
        sink.emit_at(
            t0,
            src,
            TraceEvent::SpanOpen {
                span,
                parent: 0,
                class: SPAN_MSG,
                kind,
                src,
                dst,
                bytes: 64,
            },
        );
        sink.emit_at(
            t0 + 700,
            src,
            TraceEvent::SpanTx {
                span,
                host_dma_ps: 100,
                tx_queue_ps: 200,
                wire_ps: 400,
            },
        );
        sink.emit_at(
            t0 + 800,
            dst,
            TraceEvent::SpanRx {
                span,
                rx_nic_ps: 40,
                sar_ps: 60,
            },
        );
        sink.emit_at(t0 + 1000, dst, TraceEvent::SpanClose { span });
    }

    #[test]
    fn stage_sums_tile_end_to_end_exactly() {
        let sink = TraceSink::ring(256);
        message(&sink, 1, 0xD5, 0, 1, 0);
        message(&sink, 2, 0xD5, 0, 1, 5_000);
        message(&sink, 3, 0xD6, 1, 0, 9_000);
        // A frame-class child must not double-count into the tables.
        sink.emit_at(
            9_100,
            1,
            TraceEvent::SpanOpen {
                span: 4,
                parent: 3,
                class: SPAN_FRAME,
                kind: 0xD6,
                src: 1,
                dst: 0,
                bytes: 64,
            },
        );
        let rep = decompose(&SpanTree::build(&sink.drain()));
        assert_eq!(rep.messages, 3);
        assert_eq!(rep.unclosed, 1);
        assert_eq!(rep.kinds.len(), 2);
        for k in &rep.kinds {
            assert_eq!(k.stages.sum_ps(), k.e2e_ps, "kind {:#x}", k.kind);
        }
        let d5 = rep.kinds.iter().find(|k| k.kind == 0xD5).unwrap();
        assert_eq!(d5.count, 2);
        assert_eq!(d5.stages.handler_ps, 2 * 200);
        assert_eq!(rep.channels.len(), 2);
        assert_eq!((rep.channels[0].src, rep.channels[0].dst), (0, 1));
    }

    #[test]
    fn unclosed_and_non_message_spans_stay_out_of_the_tables() {
        let sink = TraceSink::ring(64);
        message(&sink, 1, 0xD0, 0, 1, 0);
        // An acknowledgement closes but is no message; a message that
        // never closes has no latency yet. Both count as spans only.
        let open = |span, class| TraceEvent::SpanOpen {
            span,
            parent: 1,
            class,
            kind: 0xF1,
            src: 1,
            dst: 0,
            bytes: 0,
        };
        sink.emit_at(2_000, 1, open(2, cni_trace::SPAN_ACK));
        sink.emit_at(2_500, 0, TraceEvent::SpanClose { span: 2 });
        sink.emit_at(3_000, 1, open(3, SPAN_MSG));
        let rep = decompose(&SpanTree::build(&sink.drain()));
        assert_eq!((rep.messages, rep.unclosed), (1, 1));
        assert_eq!(rep.kinds.len(), 1);
        assert_eq!((rep.kinds[0].kind, rep.kinds[0].e2e_ps), (0xD0, 1_000));
        assert_eq!(rep.channels.len(), 1);
    }

    #[test]
    fn channels_are_ordered_by_source_then_destination() {
        let sink = TraceSink::ring(256);
        for (span, (src, dst)) in [(1, 0), (0, 2), (0, 1), (1, 0)].into_iter().enumerate() {
            message(&sink, span as u64 + 1, 0xA0, src, dst, span as u64 * 2_000);
        }
        let rep = decompose(&SpanTree::build(&sink.drain()));
        let chans: Vec<_> = rep
            .channels
            .iter()
            .map(|c| (c.src, c.dst, c.count, c.e2e_ps))
            .collect();
        assert_eq!(
            chans,
            vec![(0, 1, 1, 1_000), (0, 2, 1, 1_000), (1, 0, 2, 2_000)]
        );
    }
}
