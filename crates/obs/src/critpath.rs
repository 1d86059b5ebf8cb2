//! Critical-path extraction: the causal chain that closed a barrier
//! interval.

use crate::span::SpanTree;
use cni_trace::{TraceEvent, TraceRecord};

/// One link of a critical path (root-first order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathLink {
    /// The span id.
    pub span: u64,
    /// Span class ([`cni_trace::SPAN_MSG`] / `SPAN_FRAME` / `SPAN_ACK`).
    pub class: u8,
    /// Wire kind byte.
    pub kind: u8,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Open timestamp (picoseconds).
    pub open_ps: u64,
    /// Close timestamp; equals `open_ps` for an unclosed link (only the
    /// terminal anchor is guaranteed closed).
    pub close_ps: u64,
    /// Name of the dominating stage of this link.
    pub dominant: &'static str,
    /// Duration of that stage (picoseconds).
    pub dominant_ps: u64,
}

/// The dominating causal chain of one barrier interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Barrier epoch the anchor release belongs to, when barrier-arrival
    /// records are present in the trace.
    pub epoch: Option<u32>,
    /// The chain, root cause first; the last link is the anchor span.
    pub links: Vec<PathLink>,
    /// Root open to anchor close (picoseconds).
    pub total_ps: u64,
}

/// Find the span whose parent walk is the interval's critical path: the
/// **last-closing barrier-release** (kind `0xD4`) span — the message
/// whose delivery let the final processor leave the barrier. Traces
/// without a barrier release (e.g. a pure message-passing run) fall back
/// to the last-closing span of any kind. Ties break on the higher span
/// id; both orders are deterministic per seed.
pub fn critical_path(records: &[TraceRecord], tree: &SpanTree) -> Option<CriticalPath> {
    let anchor = tree
        .spans
        .iter()
        .filter(|(_, s)| s.kind == 0xD4 && s.close_ps.is_some())
        .max_by_key(|(id, s)| (s.close_ps, **id))
        .or_else(|| {
            tree.spans
                .iter()
                .filter(|(_, s)| s.close_ps.is_some())
                .max_by_key(|(id, s)| (s.close_ps, **id))
        })?;
    let (&anchor_id, anchor_span) = anchor;
    let anchor_close = anchor_span.close_ps.unwrap_or(anchor_span.open_ps);
    // The epoch whose release this is: the latest barrier arrival at or
    // before the anchor's close.
    let epoch = records
        .iter()
        .filter(|r| r.t_ps <= anchor_close)
        .filter_map(|r| match r.event {
            TraceEvent::DsmBarrier { epoch } => Some(epoch),
            _ => None,
        })
        .max();
    let links: Vec<PathLink> = tree
        .chain_to_root(anchor_id)
        .into_iter()
        .filter_map(|id| {
            let s = tree.spans.get(&id)?;
            let handler = s.handler_ps().unwrap_or(0);
            let stages = [
                ("host-dma", s.host_dma_ps),
                ("tx-queue", s.tx_queue_ps),
                ("wire", s.wire_ps),
                ("rx-nic", s.rx_nic_ps),
                ("reassembly", s.sar_ps),
                ("handler", handler),
            ];
            // First-listed wins ties: earlier pipeline stages are the
            // more actionable blame. `max_by_key` returns the last of
            // equal maxima, so it scans the stages in reverse.
            let &(dominant, dominant_ps) = stages
                .iter()
                .rev()
                .max_by_key(|(_, v)| *v)
                .unwrap_or(&stages[0]);
            Some(PathLink {
                span: id,
                class: s.class,
                kind: s.kind,
                src: s.src,
                dst: s.dst,
                open_ps: s.open_ps,
                close_ps: s.close_ps.unwrap_or(s.open_ps),
                dominant,
                dominant_ps,
            })
        })
        .collect();
    let root_open = links.first().map(|l| l.open_ps)?;
    Some(CriticalPath {
        epoch,
        total_ps: anchor_close.saturating_sub(root_open),
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTree;
    use cni_trace::{TraceSink, SPAN_MSG};

    fn span(sink: &TraceSink, span: u64, parent: u64, kind: u8, open: u64, close: u64) {
        sink.emit_at(
            open,
            0,
            TraceEvent::SpanOpen {
                span,
                parent,
                class: SPAN_MSG,
                kind,
                src: 0,
                dst: 1,
                bytes: 64,
            },
        );
        sink.emit_at(
            close,
            1,
            TraceEvent::SpanTx {
                span,
                host_dma_ps: 10,
                tx_queue_ps: 5,
                wire_ps: (close - open) / 2,
            },
        );
        sink.emit_at(close, 1, TraceEvent::SpanClose { span });
    }

    #[test]
    fn anchors_on_last_barrier_release_and_walks_to_root() {
        let sink = TraceSink::ring(256);
        // Chain: acquire-req (1) -> barrier-arrive (2) -> barrier-release (3).
        span(&sink, 1, 0, 0xD0, 100, 400);
        span(&sink, 2, 1, 0xD3, 450, 800);
        span(&sink, 3, 2, 0xD4, 850, 1_200);
        // A later non-barrier message must not steal the anchor.
        span(&sink, 4, 0, 0xD5, 1_300, 2_000);
        sink.emit_at(900, 1, TraceEvent::DsmBarrier { epoch: 7 });
        let recs = sink.drain();
        let cp = critical_path(&recs, &SpanTree::build(&recs)).unwrap();
        assert_eq!(cp.epoch, Some(7));
        assert_eq!(
            cp.links.iter().map(|l| l.span).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(cp.total_ps, 1_200 - 100);
        assert_eq!(cp.links[0].dominant, "wire");
    }

    #[test]
    fn falls_back_to_last_close_without_a_barrier() {
        let sink = TraceSink::ring(64);
        span(&sink, 1, 0, 0xA0, 0, 500);
        let recs = sink.drain();
        let cp = critical_path(&recs, &SpanTree::build(&recs)).unwrap();
        assert_eq!(cp.epoch, None);
        assert_eq!(cp.links.len(), 1);
        assert_eq!(cp.links[0].span, 1);
    }

    #[test]
    fn empty_trace_has_no_path() {
        assert!(critical_path(&[], &SpanTree::default()).is_none());
    }

    #[test]
    fn releases_closing_together_anchor_on_the_higher_span_id() {
        let sink = TraceSink::ring(64);
        span(&sink, 7, 0, 0xD4, 100, 900);
        span(&sink, 5, 0, 0xD4, 200, 900);
        let recs = sink.drain();
        let cp = critical_path(&recs, &SpanTree::build(&recs)).unwrap();
        assert_eq!(cp.links.len(), 1);
        assert_eq!(cp.links[0].span, 7);
        assert_eq!(cp.total_ps, 800);
    }

    #[test]
    fn the_epoch_is_the_latest_barrier_before_the_anchor_closes() {
        let sink = TraceSink::ring(64);
        span(&sink, 1, 0, 0xD4, 100, 1_200);
        for (t, epoch) in [(50, 1), (1_000, 2), (1_200, 3), (1_201, 4)] {
            sink.emit_at(t, 0, TraceEvent::DsmBarrier { epoch });
        }
        let recs = sink.drain();
        let cp = critical_path(&recs, &SpanTree::build(&recs)).unwrap();
        assert_eq!(cp.epoch, Some(3), "an arrival at the close counts");
    }

    #[test]
    fn an_evicted_root_starts_the_path_at_the_oldest_surviving_link() {
        // Span 2's parent 1 fell out of a bounded ring: the path starts
        // at span 2 and is timed from its open.
        let sink = TraceSink::ring(64);
        span(&sink, 2, 1, 0xD3, 400, 700);
        span(&sink, 3, 2, 0xD4, 750, 1_000);
        let recs = sink.drain();
        let cp = critical_path(&recs, &SpanTree::build(&recs)).unwrap();
        assert_eq!(
            cp.links.iter().map(|l| l.span).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(cp.total_ps, 1_000 - 400);
    }

    #[test]
    fn an_unclosed_all_zero_link_blames_the_first_stage() {
        // Span 1 opened and never recorded a stage or closed: all six
        // stages are zero, and the tie goes to the first-listed one.
        let sink = TraceSink::ring(64);
        sink.emit_at(
            100,
            0,
            TraceEvent::SpanOpen {
                span: 1,
                parent: 0,
                class: SPAN_MSG,
                kind: 0xD3,
                src: 0,
                dst: 1,
                bytes: 64,
            },
        );
        span(&sink, 2, 1, 0xD4, 300, 700);
        let recs = sink.drain();
        let cp = critical_path(&recs, &SpanTree::build(&recs)).unwrap();
        assert_eq!(cp.links.len(), 2);
        assert_eq!(
            (cp.links[0].dominant, cp.links[0].dominant_ps),
            ("host-dma", 0)
        );
        assert_eq!(cp.links[0].close_ps, cp.links[0].open_ps);
    }

    #[test]
    fn a_wire_handler_tie_blames_the_wire() {
        // 100 ps end to end: 10 host DMA, 45 on the wire, and the 45 ps
        // remainder is the handler's.
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
            100,
            1,
            TraceEvent::SpanTx {
                span: 1,
                host_dma_ps: 10,
                tx_queue_ps: 0,
                wire_ps: 45,
            },
        );
        sink.emit_at(100, 1, TraceEvent::SpanClose { span: 1 });
        let recs = sink.drain();
        let tree = SpanTree::build(&recs);
        assert_eq!(tree.spans[&1].handler_ps(), Some(45));
        let cp = critical_path(&recs, &tree).unwrap();
        assert_eq!(
            (cp.links[0].dominant, cp.links[0].dominant_ps),
            ("wire", 45)
        );
    }

    #[test]
    fn a_200k_span_chain_walks_to_its_root_in_under_a_second() {
        // A forged trace may chain every span to the one before it. The
        // walk used to search the chain so far for each new link:
        // quadratic, about 9 s for 200k spans in a release build.
        const N: u64 = 200_000;
        let recs: Vec<TraceRecord> = (1..=N)
            .flat_map(|span| {
                let open = TraceEvent::SpanOpen {
                    span,
                    parent: span - 1,
                    class: SPAN_MSG,
                    kind: 0xD4,
                    src: 0,
                    dst: 1,
                    bytes: 64,
                };
                let close = TraceEvent::SpanClose { span };
                [(span, open), (span + 1, close)].map(|(t_ps, event)| TraceRecord {
                    t_ps,
                    node: 0,
                    event,
                })
            })
            .collect();
        let tree = SpanTree::build(&recs);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(critical_path(&recs, &tree)));
        let cp = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("a 200k-span chain took over a second to walk")
            .expect("the chain has a closed anchor");
        assert_eq!(cp.links.len(), N as usize);
        assert_eq!((cp.links[0].span, cp.links[N as usize - 1].span), (1, N));
    }
}
