//! `cni-trace` — structured simulation tracing and time-series metrics for
//! the CNI reproduction.
//!
//! The paper's whole evaluation is built from *within-run* visibility:
//! the overhead breakdowns of Tables 2–4 and the hit-ratio/latency curves
//! of Figures 2–14 all come from observing when cache misses, protocol
//! stalls and DMA transfers actually happen. This crate provides that
//! observability layer for the reproduction:
//!
//! * [`TraceEvent`] — a typed vocabulary of simulation events (event-queue
//!   dispatch, engine↔program switches, DMA transfers, Message-Cache
//!   hits/misses/evictions/snoops, PATHFINDER classifications,
//!   interrupt-vs-poll notifications, DSM protocol
//!   transitions, and periodic [`MetricsSample`] counters). Every variant
//!   carries only `Copy` scalars, so recording an event never allocates.
//! * [`TraceSink`] — a cheap cloneable handle every instrumented component
//!   holds. [`TraceSink::Disabled`] (the default) makes every hook a
//!   single enum branch: no allocation, no formatting, no locking. The
//!   enabled sink records into a bounded ring buffer that drops the oldest
//!   events once full (and counts the drops). A run is traced on the one
//!   thread that runs it, so the ring sits in a `RefCell` behind an `Rc`
//!   and a sink is not `Send`.
//! * [`export`] — serialisers to Chrome trace-event JSON (loadable in
//!   Perfetto or `chrome://tracing`, one track per node × component) and
//!   newline-delimited JSON (one [`TraceRecord`] per line, byte-identical
//!   across identically-seeded runs).
//!
//! The crate is deliberately freestanding — it depends on nothing else in
//! the workspace so the simulation kernel itself can be instrumented.
//! Timestamps are raw picoseconds (the unit of `cni_sim::SimTime`).
//!
//! ```
//! use cni_trace::{TraceEvent, TraceSink};
//!
//! let sink = TraceSink::ring(1024);
//! sink.set_now(5_000); // the event loop advances virtual time
//! sink.emit(0, TraceEvent::Interrupt);
//! sink.emit_at(7_000, 1, TraceEvent::Poll);
//! let records = sink.drain();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].t_ps, 5_000);
//!
//! // Disabled sinks are free: no buffer exists and nothing is recorded.
//! let off = TraceSink::Disabled;
//! off.emit(0, TraceEvent::Interrupt);
//! assert!(off.drain().is_empty());
//! ```

#![deny(missing_docs)]

pub mod export;

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// The `node` value for events that belong to the simulation engine itself
/// rather than to any one workstation (event-queue dispatch).
pub const NO_NODE: u32 = u32::MAX;

/// One interval's worth of counter deltas from the periodic metrics
/// sampler: how much each rate-style statistic grew during the interval
/// ending at the record's timestamp. Dividing by `interval_ps` yields
/// rates (DMA bytes/s, interrupts/s); `tx_cache_hits / tx_page_lookups`
/// yields the hit ratio *over time* rather than end-of-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSample {
    /// Length of the sampled interval in picoseconds.
    pub interval_ps: u64,
    /// Messages transmitted by this node's NIC.
    pub tx_messages: u64,
    /// Messages received by this node's NIC.
    pub rx_messages: u64,
    /// Bytes DMAed host → board.
    pub dma_bytes_to_board: u64,
    /// Bytes DMAed board → host.
    pub dma_bytes_to_host: u64,
    /// Transmit-path Message-Cache hits.
    pub tx_cache_hits: u64,
    /// Transmit-path page lookups (hit-ratio denominator).
    pub tx_page_lookups: u64,
    /// Host interrupts taken.
    pub interrupts: u64,
    /// Host polls that found work.
    pub polls: u64,
    /// Messages handled by Application Interrupt Handlers.
    pub aih_dispatches: u64,
    /// Full-page fetches issued by the DSM protocol.
    pub page_fetches: u64,
    /// Diff fetches issued by the DSM protocol.
    pub diff_fetches: u64,
    /// Page invalidations performed by the DSM protocol.
    pub invalidations: u64,
}

impl MetricsSample {
    /// The per-interval delta between two cumulative snapshots: every
    /// counter of `self` minus the matching counter of `prev`, stamped
    /// with `interval_ps`. The periodic sampler keeps cumulative totals
    /// and emits these deltas.
    pub fn delta_from(&self, prev: &MetricsSample, interval_ps: u64) -> MetricsSample {
        MetricsSample {
            interval_ps,
            tx_messages: self.tx_messages - prev.tx_messages,
            rx_messages: self.rx_messages - prev.rx_messages,
            dma_bytes_to_board: self.dma_bytes_to_board - prev.dma_bytes_to_board,
            dma_bytes_to_host: self.dma_bytes_to_host - prev.dma_bytes_to_host,
            tx_cache_hits: self.tx_cache_hits - prev.tx_cache_hits,
            tx_page_lookups: self.tx_page_lookups - prev.tx_page_lookups,
            interrupts: self.interrupts - prev.interrupts,
            polls: self.polls - prev.polls,
            aih_dispatches: self.aih_dispatches - prev.aih_dispatches,
            page_fetches: self.page_fetches - prev.page_fetches,
            diff_fetches: self.diff_fetches - prev.diff_fetches,
            invalidations: self.invalidations - prev.invalidations,
        }
    }
}

/// A typed simulation event. Variants carry only `Copy` scalars so that
/// recording one is allocation-free; human-readable names and track
/// assignments are resolved at export time, never on the hot path.
///
/// Serializes internally tagged, through the derive: a JSON object whose
/// `ev` member comes first and is the snake_case variant name
/// (`DmaToBoard` is `dma_to_board`), followed by the variant's fields in
/// declaration order. `Metrics` writes its sample's fields after the tag.
/// Reading a value that is not an object, has no `ev` tag or names no
/// variant is an error that says which.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "ev", rename_all = "snake_case")]
pub enum TraceEvent {
    /// The engine's event queue dispatched an event (`seq` is the queue's
    /// insertion sequence number, `pending` the events still queued).
    QueueDispatch {
        /// Insertion sequence number of the dispatched event.
        seq: u64,
        /// Events still pending after this dispatch.
        pending: u32,
    },
    /// Control transferred between the engine and a processor's program:
    /// `enter` opens one poll of the program, its pair closes it.
    CothreadSwitch {
        /// Which simulated CPU.
        cpu: u32,
        /// `true` when control enters the program, `false` when it yields
        /// back to the engine.
        enter: bool,
    },
    /// A host → board DMA transfer completed at the record's timestamp.
    DmaToBoard {
        /// Payload bytes moved.
        bytes: u64,
        /// Bus time consumed, including queueing, in picoseconds.
        dur_ps: u64,
    },
    /// A board → host DMA transfer completed at the record's timestamp.
    DmaToHost {
        /// Payload bytes moved.
        bytes: u64,
        /// Bus time consumed, including queueing, in picoseconds.
        dur_ps: u64,
    },
    /// A transmit-path Message-Cache lookup hit: the page was
    /// board-resident and the host→board DMA was skipped.
    MsgCacheHit {
        /// The looked-up host page.
        page: u64,
    },
    /// A transmit-path Message-Cache lookup missed.
    MsgCacheMiss {
        /// The looked-up host page.
        page: u64,
    },
    /// A page was bound into the Message Cache (transmit-miss caching or
    /// receive caching), possibly evicting another binding.
    MsgCacheInsert {
        /// The newly bound page.
        page: u64,
        /// The page CLOCK evicted to make room, if any.
        evicted: Option<u64>,
    },
    /// A snooped host write was offered to the Message Cache.
    MsgCacheSnoop {
        /// The written page.
        page: u64,
        /// Whether the page was resident (board copy updated in place).
        resident: bool,
    },
    /// A page binding was explicitly invalidated.
    MsgCacheInvalidate {
        /// The invalidated page.
        page: u64,
    },
    /// PATHFINDER classified an arriving PDU header.
    Classify {
        /// Comparison cells evaluated.
        cells: u32,
        /// Whether an installed pattern accepted.
        matched: bool,
    },
    /// A PDU was dispatched to an Application Interrupt Handler on the
    /// board.
    AihDispatch {
        /// The handler id the classifier routed to.
        handler: u32,
    },
    /// The NIC raised a host interrupt to notify a delivery.
    Interrupt,
    /// The application's poll picked up a delivery (no interrupt).
    Poll,
    /// The application read-faulted on a shared page.
    DsmReadFault {
        /// The faulted page.
        page: u32,
    },
    /// The application write-faulted on a shared page.
    DsmWriteFault {
        /// The faulted page.
        page: u32,
    },
    /// The application acquired a DSM lock.
    DsmAcquire {
        /// The lock.
        lock: u32,
        /// `true` when satisfied locally (lazy-release reuse), `false`
        /// when the acquire went remote.
        local: bool,
    },
    /// The application released a DSM lock (closing the interval).
    DsmRelease {
        /// The lock.
        lock: u32,
    },
    /// The application arrived at the global barrier.
    DsmBarrier {
        /// Barrier epoch.
        epoch: u32,
    },
    /// The DSM protocol engine handled an incoming protocol message
    /// (acquire-req/fwd/grant, barrier-arrive/release, page-req/resp,
    /// diff-req/resp — `kind` is the wire kind byte, `0xD0..=0xD8`).
    DsmMsg {
        /// Protocol kind byte.
        kind: u8,
        /// Sending processor.
        from: u32,
    },
    /// A message entered the transport path; the record's timestamp is
    /// its arrival at the destination NIC.
    ProtoTx {
        /// Wire kind byte (`0xD0..=0xD8` protocol, `0xA0` application).
        kind: u8,
        /// On-the-wire bytes.
        bytes: u32,
        /// Send-request to last-cell-arrival latency in picoseconds.
        dur_ps: u64,
    },
    /// A periodic metrics sample (counter deltas for the interval ending
    /// at the record's timestamp).
    Metrics(MetricsSample),
    /// The fault injector discarded a cell in the fabric (random loss or
    /// a scheduled brownout window).
    CellDropped {
        /// VCI of the PDU the cell belonged to.
        vci: u32,
        /// Index of the cell within its PDU.
        cell: u32,
    },
    /// AAL5 reassembly rejected a PDU (CRC-32 or length-check failure).
    CrcFail {
        /// VCI of the rejected PDU.
        vci: u32,
    },
    /// The reliability layer armed a retransmission timer.
    RetransmitScheduled {
        /// Oldest unacknowledged sequence number the timer guards.
        seq: u64,
        /// Timeout in picoseconds (after backoff).
        rto_ps: u64,
    },
    /// The reliability layer retransmitted a frame.
    RetransmitFired {
        /// Sequence number of the retransmitted frame.
        seq: u64,
        /// Transmission attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// An in-order frame (or descriptor) was dropped because its receive
    /// ring was full; the sender will retransmit after a NAK or timeout.
    RingOverflow {
        /// The overflowing channel (or receiving node for wire frames).
        channel: u32,
    },
    /// A causal span opened: one message, frame or ACK entering its
    /// lifecycle at the record's timestamp. Span ids are allocated by the
    /// engine in deterministic event order; id 0 is never allocated, so a
    /// `parent` of 0 marks a root span (no recorded cause).
    SpanOpen {
        /// This span's id.
        span: u64,
        /// The span that caused this one, or 0 for a root.
        parent: u64,
        /// Span class: [`SPAN_MSG`], [`SPAN_FRAME`] or [`SPAN_ACK`].
        class: u8,
        /// Wire kind byte (`0xD0..=0xD8` protocol, `0xA0` application,
        /// `0xF1` ACK).
        kind: u8,
        /// Sending node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Payload bytes.
        bytes: u32,
    },
    /// Transmit-side stage durations of a span, recorded once the last
    /// cell has arrived at the destination NIC.
    SpanTx {
        /// The span these stages belong to.
        span: u64,
        /// Host-side send work (kernel/ADC cycles + cache flush) before
        /// the NIC takes over.
        host_dma_ps: u64,
        /// NIC transmit-queue occupancy: descriptor fetch, Message-Cache
        /// lookup, host→board DMA and first-cell segmentation.
        tx_queue_ps: u64,
        /// Wire time: first bit on the ingress link to last cell arrival.
        wire_ps: u64,
    },
    /// Receive-side stage durations of a span, recorded when the PDU is
    /// ready for dispatch on the receiving NIC.
    SpanRx {
        /// The span these stages belong to.
        span: u64,
        /// Wait for the receiving NIC processor (busy with earlier work).
        rx_nic_ps: u64,
        /// AAL5 reassembly (SAR) time.
        sar_ps: u64,
    },
    /// A span closed: the message's effect was delivered (handler
    /// finished, payload landed in host memory, or frame/ACK ingested).
    /// The handler stage of a span is the close-to-open distance minus
    /// its recorded tx/rx stage durations.
    SpanClose {
        /// The closing span.
        span: u64,
    },
    /// Per-node utilization gauges for the interval ending at the
    /// record's timestamp: virtual-time busy accumulator deltas for the
    /// NIC processor and both access links, plus the receive-ring
    /// high-water mark observed during the interval.
    UtilNode {
        /// NIC-processor busy time during the interval.
        busy_ps: u64,
        /// Ingress-link (node → switch) occupancy during the interval.
        ingress_ps: u64,
        /// Egress-link (switch → node) occupancy during the interval.
        egress_ps: u64,
        /// Receive-ring high-water mark (slots) during the interval.
        ring_hw: u32,
        /// Length of the sampled interval in picoseconds.
        interval_ps: u64,
    },
    /// Engine-level event-queue depth gauge (sampled at the metrics tick,
    /// attributed to [`NO_NODE`]).
    UtilQueue {
        /// Events pending in the simulation queue.
        depth: u32,
    },
}

/// [`TraceEvent::SpanOpen`] class: a message-level span (one `send_pdu`
/// through delivery).
pub const SPAN_MSG: u8 = 0;
/// [`TraceEvent::SpanOpen`] class: one go-back-N frame transmission
/// (retransmissions open fresh frame spans parented to the original).
pub const SPAN_FRAME: u8 = 1;
/// [`TraceEvent::SpanOpen`] class: a cumulative ACK frame.
pub const SPAN_ACK: u8 = 2;

impl TraceEvent {
    /// The component track this event renders on (stable name used by the
    /// Chrome exporter's `thread_name` metadata and useful for filtering).
    pub fn track(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            QueueDispatch { .. } => "event-queue",
            CothreadSwitch { .. } => "cpu",
            DmaToBoard { .. } | DmaToHost { .. } => "nic-dma",
            MsgCacheHit { .. }
            | MsgCacheMiss { .. }
            | MsgCacheInsert { .. }
            | MsgCacheSnoop { .. }
            | MsgCacheInvalidate { .. } => "msg-cache",
            Classify { .. } | AihDispatch { .. } => "pathfinder",
            Interrupt | Poll => "notify",
            DsmReadFault { .. }
            | DsmWriteFault { .. }
            | DsmAcquire { .. }
            | DsmRelease { .. }
            | DsmBarrier { .. }
            | DsmMsg { .. } => "dsm",
            ProtoTx { .. } => "wire",
            Metrics(_) => "metrics",
            CellDropped { .. }
            | CrcFail { .. }
            | RetransmitScheduled { .. }
            | RetransmitFired { .. }
            | RingOverflow { .. } => "faults",
            SpanOpen { .. } | SpanTx { .. } | SpanRx { .. } | SpanClose { .. } => "span",
            UtilNode { .. } | UtilQueue { .. } => "util",
        }
    }
}

/// One recorded event: virtual timestamp, originating node and payload.
/// `node` is [`NO_NODE`] for engine-level events.
///
/// Serializes flat: `{"t_ps": …, "node": …, "ev": …, …event fields…}` —
/// one self-describing JSON object per record (the JSONL line format).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time in picoseconds.
    pub t_ps: u64,
    /// Originating node, or [`NO_NODE`].
    pub node: u32,
    /// The event, its members written in place.
    #[serde(flatten)]
    pub event: TraceEvent,
}

/// End-of-run accounting for a trace: how much was recorded and how much
/// the bounded ring had to drop. Included in `RunReport` when tracing was
/// enabled.
///
/// The span counters make truncated traces *detectable*: an analysis that
/// sees `span_drops > 0` (span events evicted from the ring) or
/// `spans_opened != spans_closed` (lifecycles cut off by end-of-run or
/// loss) knows the span tree is incomplete instead of silently reporting
/// on the fragment that survived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Events offered to the sink.
    pub recorded: u64,
    /// Events dropped because the ring was full (oldest first).
    pub dropped: u64,
    /// Ring capacity in events.
    pub capacity: u64,
    /// Span-open events offered to the sink.
    pub spans_opened: u64,
    /// Span-close events offered to the sink.
    pub spans_closed: u64,
    /// Span events (open/tx/rx/close) evicted from the ring: the recorded
    /// span tree is truncated when this is nonzero.
    pub span_drops: u64,
}

struct Ring {
    cap: usize,
    events: VecDeque<TraceRecord>,
    recorded: u64,
    dropped: u64,
    spans_opened: u64,
    spans_closed: u64,
    span_drops: u64,
}

/// Shared state of an enabled sink: the engine-maintained "current virtual
/// time" and the bounded event ring, in cells, since one thread runs the
/// engine, its components and its programs.
pub struct TraceShared {
    now_ps: Cell<u64>,
    ring: RefCell<Ring>,
}

/// A handle to the trace buffer, cloned into every instrumented component.
///
/// The disabled variant is the default everywhere; its `emit` is a single
/// enum branch with no allocation, no formatting and no locking, so
/// figure-reproduction runs pay nothing for the instrumentation.
#[derive(Clone, Default)]
pub enum TraceSink {
    /// Tracing off: every hook is a no-op.
    #[default]
    Disabled,
    /// Tracing on: events go into the shared bounded ring.
    Enabled(Rc<TraceShared>),
}

impl TraceSink {
    /// An enabled sink whose ring holds at most `capacity` events (oldest
    /// are dropped once full).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> TraceSink {
        assert!(capacity > 0, "trace ring needs capacity");
        TraceSink::Enabled(Rc::new(TraceShared {
            now_ps: Cell::new(0),
            ring: RefCell::new(Ring {
                cap: capacity,
                events: VecDeque::with_capacity(capacity.min(1 << 16)),
                recorded: 0,
                dropped: 0,
                spans_opened: 0,
                spans_closed: 0,
                span_drops: 0,
            }),
        }))
    }

    /// Is this sink recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TraceSink::Enabled(_))
    }

    /// Advance the sink's notion of "current virtual time"; subsequent
    /// [`TraceSink::emit`] calls are stamped with it. The simulation's
    /// event loop calls this once per dispatched event.
    #[inline]
    pub fn set_now(&self, t_ps: u64) {
        if let TraceSink::Enabled(s) = self {
            s.now_ps.set(t_ps);
        }
    }

    /// Record `event` for `node`, stamped with the current virtual time
    /// (see [`TraceSink::set_now`]). No-op when disabled.
    #[inline]
    pub fn emit(&self, node: u32, event: TraceEvent) {
        if let TraceSink::Enabled(s) = self {
            let t_ps = s.now_ps.get();
            s.push(TraceRecord { t_ps, node, event });
        }
    }

    /// Record `event` for `node` with an explicit timestamp (components
    /// that resolve finer times than the dispatching event, like DMA
    /// completions, use this). No-op when disabled.
    #[inline]
    pub fn emit_at(&self, t_ps: u64, node: u32, event: TraceEvent) {
        if let TraceSink::Enabled(s) = self {
            s.push(TraceRecord { t_ps, node, event });
        }
    }

    /// Take all recorded events out of the ring (in recording order).
    /// Returns an empty vector for a disabled sink.
    pub fn drain(&self) -> Vec<TraceRecord> {
        match self {
            TraceSink::Disabled => Vec::new(),
            TraceSink::Enabled(s) => s.ring.borrow_mut().events.drain(..).collect(),
        }
    }

    /// Recording totals, or `None` for a disabled sink.
    pub fn summary(&self) -> Option<TraceSummary> {
        match self {
            TraceSink::Disabled => None,
            TraceSink::Enabled(s) => {
                let ring = s.ring.borrow();
                Some(TraceSummary {
                    recorded: ring.recorded,
                    dropped: ring.dropped,
                    capacity: ring.cap as u64,
                    spans_opened: ring.spans_opened,
                    spans_closed: ring.spans_closed,
                    span_drops: ring.span_drops,
                })
            }
        }
    }
}

impl TraceShared {
    fn push(&self, rec: TraceRecord) {
        let is_span = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::SpanOpen { .. }
                    | TraceEvent::SpanTx { .. }
                    | TraceEvent::SpanRx { .. }
                    | TraceEvent::SpanClose { .. }
            )
        };
        let mut ring = self.ring.borrow_mut();
        if ring.events.len() == ring.cap {
            if let Some(evicted) = ring.events.pop_front() {
                if is_span(&evicted.event) {
                    ring.span_drops += 1;
                }
            }
            ring.dropped += 1;
        }
        match rec.event {
            TraceEvent::SpanOpen { .. } => ring.spans_opened += 1,
            TraceEvent::SpanClose { .. } => ring.spans_closed += 1,
            _ => {}
        }
        ring.events.push_back(rec);
        ring.recorded += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::Disabled;
        sink.set_now(123);
        sink.emit(0, TraceEvent::Interrupt);
        sink.emit_at(5, 1, TraceEvent::Poll);
        assert!(!sink.is_enabled());
        assert!(sink.drain().is_empty());
        assert!(sink.summary().is_none());
    }

    #[test]
    fn enabled_sink_stamps_with_shared_now() {
        let sink = TraceSink::ring(8);
        sink.set_now(1_000);
        sink.emit(3, TraceEvent::MsgCacheHit { page: 7 });
        sink.set_now(2_000);
        sink.emit(3, TraceEvent::MsgCacheMiss { page: 8 });
        sink.emit_at(1_500, 3, TraceEvent::Interrupt);
        let recs = sink.drain();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].t_ps, 1_000);
        assert_eq!(recs[1].t_ps, 2_000);
        assert_eq!(recs[2].t_ps, 1_500);
        assert_eq!(recs[0].node, 3);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let sink = TraceSink::ring(2);
        for i in 0..5 {
            sink.emit_at(i, 0, TraceEvent::QueueDispatch { seq: i, pending: 0 });
        }
        let summary = sink.summary().unwrap();
        assert_eq!(summary.recorded, 5);
        assert_eq!(summary.dropped, 3);
        assert_eq!(summary.capacity, 2);
        let recs = sink.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t_ps, 3, "oldest events are dropped first");
    }

    #[test]
    fn clones_share_one_ring() {
        let a = TraceSink::ring(8);
        let b = a.clone();
        a.set_now(10);
        b.emit(0, TraceEvent::Poll);
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn clones_share_one_clock() {
        // The engine advances the clock through its own handle; every
        // component's clone stamps with it.
        let engine = TraceSink::ring(8);
        let component = engine.clone();
        engine.set_now(10);
        component.emit(1, TraceEvent::Poll);
        component.set_now(20);
        engine.emit(0, TraceEvent::Poll);
        let stamps: Vec<u64> = engine.drain().iter().map(|r| r.t_ps).collect();
        assert_eq!(stamps, vec![10, 20]);
    }

    #[test]
    fn emit_at_leaves_the_clock_alone() {
        let sink = TraceSink::ring(8);
        sink.set_now(100);
        sink.emit_at(5, 0, TraceEvent::Interrupt);
        sink.emit(0, TraceEvent::Poll);
        let stamps: Vec<u64> = sink.drain().iter().map(|r| r.t_ps).collect();
        assert_eq!(stamps, vec![5, 100]);
    }

    #[test]
    fn drain_empties_the_ring_but_keeps_the_totals() {
        let sink = TraceSink::ring(4);
        for i in 0..3 {
            sink.emit_at(i, 0, TraceEvent::Poll);
        }
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.drain().is_empty());
        // Drained slots are free again: the next event drops nothing.
        sink.emit_at(3, 0, TraceEvent::Poll);
        let s = sink.summary().unwrap();
        assert_eq!((s.recorded, s.dropped, s.capacity), (4, 0, 4));
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    #[should_panic(expected = "trace ring needs capacity")]
    fn zero_capacity_ring_panics() {
        let _ = TraceSink::ring(0);
    }

    #[test]
    fn records_serialize_flat_and_roundtrip() {
        let rec = TraceRecord {
            t_ps: 42,
            node: 1,
            event: TraceEvent::DmaToBoard {
                bytes: 2048,
                dur_ps: 9,
            },
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"ev\":\"dma_to_board\""), "{json}");
        assert!(json.contains("\"t_ps\":42"), "{json}");
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    /// The Application Device Channel rings were never simulated, so no
    /// run recorded their `adc_enqueue`/`adc_dequeue` events and the tags
    /// are not part of the vocabulary: a line carrying one is refused with
    /// an error naming it, as any unknown tag is.
    #[test]
    fn a_record_with_an_adc_ring_tag_is_refused() {
        for tag in ["adc_enqueue", "adc_dequeue"] {
            let line = format!(r#"{{"t_ps":1,"node":0,"ev":"{tag}","channel":0,"len":64}}"#);
            let err = serde_json::from_str::<TraceRecord>(&line).unwrap_err();
            assert!(err.to_string().contains(tag), "{err}");
        }
    }

    #[test]
    fn tracks_cover_the_component_taxonomy() {
        let events = [
            TraceEvent::QueueDispatch { seq: 0, pending: 0 },
            TraceEvent::CothreadSwitch {
                cpu: 0,
                enter: true,
            },
            TraceEvent::DmaToBoard {
                bytes: 0,
                dur_ps: 0,
            },
            TraceEvent::MsgCacheHit { page: 0 },
            TraceEvent::Classify {
                cells: 1,
                matched: true,
            },
            TraceEvent::Interrupt,
            TraceEvent::DsmAcquire {
                lock: 0,
                local: true,
            },
            TraceEvent::ProtoTx {
                kind: 0xD5,
                bytes: 8,
                dur_ps: 1,
            },
            TraceEvent::Metrics(MetricsSample::default()),
            TraceEvent::CellDropped { vci: 0, cell: 0 },
            TraceEvent::SpanOpen {
                span: 1,
                parent: 0,
                class: SPAN_MSG,
                kind: 0xD0,
                src: 0,
                dst: 1,
                bytes: 16,
            },
            TraceEvent::UtilQueue { depth: 0 },
        ];
        let tracks: std::collections::BTreeSet<_> = events.iter().map(|e| e.track()).collect();
        assert_eq!(tracks.len(), 12);
    }

    #[test]
    fn span_and_util_events_roundtrip_through_jsonl() {
        let events = [
            TraceEvent::SpanOpen {
                span: 7,
                parent: 3,
                class: SPAN_FRAME,
                kind: 0xD5,
                src: 2,
                dst: 5,
                bytes: 2048,
            },
            TraceEvent::SpanTx {
                span: 7,
                host_dma_ps: 100,
                tx_queue_ps: 200,
                wire_ps: 300,
            },
            TraceEvent::SpanRx {
                span: 7,
                rx_nic_ps: 40,
                sar_ps: 60,
            },
            TraceEvent::SpanClose { span: 7 },
            TraceEvent::UtilNode {
                busy_ps: 9,
                ingress_ps: 8,
                egress_ps: 7,
                ring_hw: 2,
                interval_ps: 1_000,
            },
            TraceEvent::UtilQueue { depth: 13 },
        ];
        for (i, ev) in events.iter().enumerate() {
            let rec = TraceRecord {
                t_ps: i as u64,
                node: 4,
                event: *ev,
            };
            let json = serde_json::to_string(&rec).unwrap();
            let back: TraceRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn summary_counts_spans_and_span_drops() {
        let sink = TraceSink::ring(2);
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
                bytes: 16,
            },
        );
        sink.emit_at(1, 0, TraceEvent::SpanClose { span: 1 });
        // Overflows the 2-slot ring, evicting the span_open: the summary
        // must flag the truncation.
        sink.emit_at(2, 0, TraceEvent::Interrupt);
        let s = sink.summary().unwrap();
        assert_eq!(s.spans_opened, 1);
        assert_eq!(s.spans_closed, 1);
        assert_eq!(s.span_drops, 1);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn fault_events_roundtrip_through_jsonl() {
        let events = [
            TraceEvent::CellDropped { vci: 6, cell: 12 },
            TraceEvent::CrcFail { vci: 6 },
            TraceEvent::RetransmitScheduled {
                seq: 9,
                rto_ps: 100_000,
            },
            TraceEvent::RetransmitFired { seq: 9, attempt: 2 },
            TraceEvent::RingOverflow { channel: 3 },
        ];
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.track(), "faults");
            let rec = TraceRecord {
                t_ps: i as u64,
                node: 2,
                event: *ev,
            };
            let json = serde_json::to_string(&rec).unwrap();
            let back: TraceRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(back, rec);
        }
    }
}
