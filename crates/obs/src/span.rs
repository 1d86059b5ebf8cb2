//! Span-tree reconstruction from a trace's compact span records.

use cni_trace::{TraceEvent, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};

/// One reconstructed span: a message, wire frame or acknowledgement
/// lifecycle with its recorded stage durations.
#[derive(Clone, Debug, Default)]
pub struct SpanInfo {
    /// Causing span, or 0 for a root.
    pub parent: u64,
    /// [`cni_trace::SPAN_MSG`], [`cni_trace::SPAN_FRAME`] or
    /// [`cni_trace::SPAN_ACK`].
    pub class: u8,
    /// Wire kind byte.
    pub kind: u8,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u32,
    /// Open timestamp (picoseconds).
    pub open_ps: u64,
    /// Close timestamp; `None` while the span is unclosed.
    pub close_ps: Option<u64>,
    /// Host-side send work before the NIC takes over.
    pub host_dma_ps: u64,
    /// NIC transmit-queue occupancy (descriptor, Message Cache, DMA).
    pub tx_queue_ps: u64,
    /// First bit on the wire to last cell arrival.
    pub wire_ps: u64,
    /// Wait for the receiving NIC processor.
    pub rx_nic_ps: u64,
    /// AAL5 reassembly time.
    pub sar_ps: u64,
}

impl SpanInfo {
    /// End-to-end open-to-close time; `None` while unclosed.
    pub fn e2e_ps(&self) -> Option<u64> {
        self.close_ps.map(|c| c.saturating_sub(self.open_ps))
    }

    /// Sum of the recorded (non-handler) stage durations. The durations
    /// come from the trace, so the sum saturates instead of wrapping.
    pub fn recorded_stages_ps(&self) -> u64 {
        self.host_dma_ps
            .saturating_add(self.tx_queue_ps)
            .saturating_add(self.wire_ps)
            .saturating_add(self.rx_nic_ps)
            .saturating_add(self.sar_ps)
    }

    /// The handler stage: whatever part of the end-to-end time the
    /// recorded transport stages do not explain (AIH execution, host
    /// interrupt + protocol processing, delivery DMA). Defined as the
    /// remainder so the six stages tile the end-to-end latency exactly;
    /// saturates at zero if a trace was truncated mid-span.
    pub fn handler_ps(&self) -> Option<u64> {
        self.e2e_ps()
            .map(|e| e.saturating_sub(self.recorded_stages_ps()))
    }
}

/// All spans of one trace, keyed by id, plus open/close tallies.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    /// Spans by id (`BTreeMap` keeps iteration deterministic).
    pub spans: BTreeMap<u64, SpanInfo>,
    /// `SpanOpen` records seen.
    pub opened: u64,
    /// `SpanClose` records that matched an open span.
    pub closed: u64,
    /// Stage or close records whose `SpanOpen` was evicted from a
    /// bounded trace ring before the drain.
    pub orphans: u64,
}

impl SpanTree {
    /// Reconstruct the span tree from a drained record sequence.
    pub fn build(records: &[TraceRecord]) -> SpanTree {
        let mut tree = SpanTree::default();
        for rec in records {
            match rec.event {
                TraceEvent::SpanOpen {
                    span,
                    parent,
                    class,
                    kind,
                    src,
                    dst,
                    bytes,
                } => {
                    tree.opened += 1;
                    tree.spans.insert(
                        span,
                        SpanInfo {
                            parent,
                            class,
                            kind,
                            src,
                            dst,
                            bytes,
                            open_ps: rec.t_ps,
                            ..SpanInfo::default()
                        },
                    );
                }
                TraceEvent::SpanTx {
                    span,
                    host_dma_ps,
                    tx_queue_ps,
                    wire_ps,
                } => match tree.spans.get_mut(&span) {
                    Some(s) => {
                        s.host_dma_ps = host_dma_ps;
                        s.tx_queue_ps = tx_queue_ps;
                        s.wire_ps = wire_ps;
                    }
                    None => tree.orphans += 1,
                },
                TraceEvent::SpanRx {
                    span,
                    rx_nic_ps,
                    sar_ps,
                } => match tree.spans.get_mut(&span) {
                    Some(s) => {
                        s.rx_nic_ps = rx_nic_ps;
                        s.sar_ps = sar_ps;
                    }
                    None => tree.orphans += 1,
                },
                TraceEvent::SpanClose { span } => match tree.spans.get_mut(&span) {
                    Some(s) => {
                        s.close_ps = Some(rec.t_ps);
                        tree.closed += 1;
                    }
                    None => tree.orphans += 1,
                },
                _ => {}
            }
        }
        tree
    }

    /// Spans opened but never closed in this trace.
    pub fn unclosed(&self) -> u64 {
        self.spans.values().filter(|s| s.close_ps.is_none()).count() as u64
    }

    /// The causal chain from `span` up to its root, returned root-first.
    /// Cycle-safe (a corrupt parent link ends the walk at its first
    /// repeat) and robust to parents evicted from a bounded ring. A walk
    /// longer than the tree went round a cycle; only it needs a set.
    pub fn chain_to_root(&self, span: u64) -> Vec<u64> {
        let mut chain = Vec::new();
        let mut cur = span;
        while cur != 0 && chain.len() <= self.spans.len() {
            chain.push(cur);
            cur = self.spans.get(&cur).map_or(0, |s| s.parent);
        }
        if cur != 0 {
            let mut seen = BTreeSet::new();
            let first_repeat = chain.iter().position(|id| !seen.insert(*id));
            chain.truncate(first_repeat.unwrap_or(chain.len()));
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_trace::{TraceSink, SPAN_ACK, SPAN_FRAME, SPAN_MSG};

    fn open(sink: &TraceSink, t: u64, span: u64, parent: u64, class: u8) {
        sink.emit_at(
            t,
            0,
            TraceEvent::SpanOpen {
                span,
                parent,
                class,
                kind: 0xD0,
                src: 0,
                dst: 1,
                bytes: 32,
            },
        );
    }

    #[test]
    fn build_links_children_and_computes_remainder() {
        let sink = TraceSink::ring(64);
        open(&sink, 100, 1, 0, SPAN_MSG);
        sink.emit_at(
            400,
            0,
            TraceEvent::SpanTx {
                span: 1,
                host_dma_ps: 50,
                tx_queue_ps: 100,
                wire_ps: 150,
            },
        );
        sink.emit_at(
            500,
            1,
            TraceEvent::SpanRx {
                span: 1,
                rx_nic_ps: 30,
                sar_ps: 70,
            },
        );
        sink.emit_at(600, 1, TraceEvent::SpanClose { span: 1 });
        open(&sink, 450, 2, 1, SPAN_FRAME);
        open(&sink, 470, 3, 2, SPAN_ACK);
        let tree = SpanTree::build(&sink.drain());
        assert_eq!(tree.opened, 3);
        assert_eq!(tree.closed, 1);
        assert_eq!(tree.unclosed(), 2);
        let s = &tree.spans[&1];
        assert_eq!(s.e2e_ps(), Some(500));
        assert_eq!(s.recorded_stages_ps(), 400);
        assert_eq!(s.handler_ps(), Some(100));
        assert_eq!(tree.chain_to_root(3), vec![1, 2, 3]);
    }

    #[test]
    fn a_parent_cycle_ends_the_walk_at_its_first_repeat() {
        let sink = TraceSink::ring(64);
        for (span, parent) in [(1, 3), (2, 1), (3, 2), (4, 4), (5, 50)] {
            open(&sink, 0, span, parent, SPAN_MSG);
        }
        let tree = SpanTree::build(&sink.drain());
        assert_eq!(tree.chain_to_root(2), vec![3, 1, 2]);
        assert_eq!(tree.chain_to_root(4), vec![4]);
        // An evicted parent ends the chain; an unknown span is its own.
        assert_eq!(tree.chain_to_root(5), vec![50, 5]);
        assert_eq!(tree.chain_to_root(7), vec![7]);
    }

    #[test]
    fn unclosed_and_truncated_spans_never_go_negative() {
        let open_only = SpanInfo {
            open_ps: 100,
            wire_ps: 50,
            ..SpanInfo::default()
        };
        assert_eq!((open_only.e2e_ps(), open_only.handler_ps()), (None, None));
        // Recorded stages longer than the span leave no handler time.
        let truncated = SpanInfo {
            close_ps: Some(130),
            ..open_only.clone()
        };
        assert_eq!(truncated.e2e_ps(), Some(30));
        assert_eq!(truncated.handler_ps(), Some(0));
        // A close stamped before its open is a zero-length span.
        let reversed = SpanInfo {
            close_ps: Some(40),
            ..open_only
        };
        assert_eq!(reversed.e2e_ps(), Some(0));
    }

    #[test]
    fn a_long_tail_into_a_cycle_lists_each_span_once() {
        // Spans 1 -> 3 -> 2 -> 1 form a cycle, and a 1000-span tail
        // 4, 5, .. hangs off span 1. The walk from the tail's end takes
        // the whole tail, goes round the cycle once and stops.
        const TAIL: u64 = 1_000;
        let last = 3 + TAIL;
        let sink = TraceSink::ring(2 * last as usize);
        for (span, parent) in [(1, 3), (2, 1), (3, 2)] {
            open(&sink, 0, span, parent, SPAN_MSG);
        }
        for span in 4..=last {
            open(
                &sink,
                0,
                span,
                if span == 4 { 1 } else { span - 1 },
                SPAN_MSG,
            );
        }
        let tree = SpanTree::build(&sink.drain());
        let chain = tree.chain_to_root(last);
        assert_eq!(chain.len(), last as usize);
        assert_eq!(chain.iter().collect::<BTreeSet<_>>().len(), last as usize);
        assert_eq!(chain[..4], [2, 3, 1, 4]);
        assert_eq!(chain.last(), Some(&last));
    }

    #[test]
    fn orphan_records_are_counted_not_fatal() {
        let sink = TraceSink::ring(64);
        sink.emit_at(10, 0, TraceEvent::SpanClose { span: 99 });
        sink.emit_at(
            20,
            0,
            TraceEvent::SpanRx {
                span: 98,
                rx_nic_ps: 1,
                sar_ps: 2,
            },
        );
        let tree = SpanTree::build(&sink.drain());
        assert_eq!(tree.orphans, 2);
        assert_eq!(tree.opened, 0);
    }
}
