//! One simulated workstation — its CPU and program task, NIC, DSM protocol
//! node, shared-memory view, jitter stream and go-back-N channels — and
//! every event handler that acts on it.
//!
//! A handler is a [`Node`] method taking `&mut self`, the run's read-only
//! [`Env`] and the engine-wide [`Shared`] state (event queue, fabric,
//! fault injector, global counters, span ids). The signature keeps a
//! handler off every other node's state, and the borrow checker proves
//! it. The serial event loop dispatches one event at a time, so every
//! effect lands at once, in call order, and trace records keep that
//! order.
//!
//! ### Accounting
//!
//! Per processor, virtual time is split into the paper's three buckets
//! (Tables 2–4): *computation* (cycles the program charged), *synch
//! overhead* (protocol/kernel/interrupt/poll/flush work executed by this
//! CPU) and *synch delay* (stall time waiting for remote events). Protocol
//! work performed asynchronously on the host (standard NIC) is "stolen"
//! from the running program and surfaces as overhead at its next yield;
//! under the CNI the same work runs on the NIC processor and never touches
//! the host buckets.

use crate::config::Config;
use crate::ctx::{Op, Reply, YieldMsg};
use crate::gbn::{ChanRx, ChanTx};
use crate::world::{Ev, Shared};
use cni_atm::Segmenter;
use cni_dsm::{DsmConfig, DsmNode, HandleResult, Msg, NoticeLog, PageId, Payload, ProcId, Work};
use cni_nic::{Nic, NicConfig, NicKind, RxDisposition, TxRequest};
use cni_pathfinder::{FieldTest, Pattern};
use cni_sim::{SimTime, SplitMix64, Task, Yield};
use cni_trace::{MetricsSample, TraceEvent, TraceSink};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// An inbox entry: (sender, length, optional payload words).
type InboxMsg = (u32, u32, Option<Arc<Vec<u64>>>);

/// The AIH handler id the DSM protocol is installed under.
const DSM_HANDLER: u32 = 1;

/// The kind byte that heads an application message.
const APP_KIND: u8 = 0xA0;

/// One message from program to wire: a DSM protocol message or an
/// application message. Every send hands one to [`Node::transport`]; the
/// lossless path carries it to the receiver in an [`Ev::Arrive`], the
/// go-back-N path inside its frames.
#[derive(Clone)]
pub(crate) enum WireMsg {
    Proto(Msg),
    App(AppMsg),
}

/// An application-level message (`ProcCtx::send_to`/`send_data`).
#[derive(Clone)]
pub(crate) struct AppMsg {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    /// Length in bytes.
    pub(crate) len: u32,
    /// Backing page of a page-sized buffer (enables transmit caching).
    pub(crate) page: Option<u64>,
    /// The header's cache bit.
    pub(crate) cacheable: bool,
    /// Payload words, when the receiver needs the data.
    pub(crate) data: Option<Arc<Vec<u64>>>,
}

impl WireMsg {
    /// The sending node.
    pub(crate) fn src(&self) -> usize {
        match self {
            WireMsg::Proto(msg) => msg.src.0 as usize,
            WireMsg::App(m) => m.src,
        }
    }

    /// The receiving node.
    pub(crate) fn dst(&self) -> usize {
        match self {
            WireMsg::Proto(msg) => msg.dst.0 as usize,
            WireMsg::App(m) => m.dst,
        }
    }

    /// Wire length in bytes.
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            WireMsg::Proto(msg) => msg.payload.wire_bytes(),
            WireMsg::App(m) => m.len as usize,
        }
    }

    /// The kind byte: `0xD0..=0xD8` for protocol messages, `0xA0` for
    /// application messages.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            WireMsg::Proto(msg) => msg.payload.kind(),
            WireMsg::App(_) => APP_KIND,
        }
    }

    /// The leading bytes PATHFINDER examines: the kind byte, then the
    /// sender. No AIH pattern matches an application header, so
    /// application messages demultiplex to the host.
    pub(crate) fn header(&self) -> [u8; 8] {
        match self {
            WireMsg::Proto(msg) => msg.payload.header_bytes(msg.src),
            WireMsg::App(m) => {
                let mut h = [0u8; 8];
                h[0] = APP_KIND;
                h[1] = m.src as u8;
                h
            }
        }
    }

    /// The host page backing the payload and the header's cache bit: what
    /// the transmit offers the Message Cache.
    pub(crate) fn tx_page(&self) -> (Option<u64>, bool) {
        match self {
            WireMsg::Proto(msg) => (
                msg.payload.page_payload().map(|p| p.0 as u64),
                msg.payload.cacheable(),
            ),
            WireMsg::App(m) => (m.page, m.cacheable),
        }
    }
}

/// The one-way latency histogram of message kind `kind`: indices 0..=8
/// are the protocol kinds `0xD0..=0xD8`, index 9 the application kind.
pub(crate) fn latency_slot(kind: u8) -> usize {
    if kind == APP_KIND {
        9
    } else {
        (kind - 0xD0) as usize
    }
}

/// What every handler may read and none may write: fixed for the whole
/// run. Disjoint from [`Shared`], so a handler can hold `&mut Shared`
/// while it reads `&Env`.
pub(crate) struct Env {
    pub(crate) cfg: Config,
    /// The trace sink cloned into every instrumented component
    /// (disabled by default: figure runs pay a single enum branch).
    pub(crate) trace: TraceSink,
    /// The fabric's AAL5 segmenter, for cell counts.
    pub(crate) seg: Segmenter,
}

impl Env {
    fn host(&self, cycles: u64) -> SimTime {
        self.cfg.nic.host_clock.cycles(cycles)
    }

    /// Protocol labour in host-CPU cycles: the host moves page images with
    /// its own loads/stores (copying between DMA buffers and user pages).
    fn work_cycles(&self, w: &Work) -> u64 {
        let c = &self.cfg.costs;
        c.msg_base_cycles
            + c.per_word_cycles
                * (w.twin_words + w.diff_scan_words + w.diff_words + w.page_copy_words)
            + c.per_notice_cycles * w.notices
    }

    /// Protocol labour in NIC-processor cycles for an Application Interrupt
    /// Handler: diff and notice processing run on the 33 MHz core, but page
    /// images move by DMA/SAR engines (already timed on the bus and wire),
    /// so `page_copy_words` is not a processor cost here. This asymmetry is
    /// the paper's offload argument.
    fn work_cycles_nic(&self, w: &Work) -> u64 {
        let c = &self.cfg.costs;
        c.msg_base_cycles
            + c.per_word_cycles * (w.twin_words + w.diff_scan_words + w.diff_words)
            + c.per_notice_cycles * w.notices
    }

    /// Host cycles to hand one message to the NIC (kernel entry on the
    /// standard interface, a user-level ADC enqueue on the CNI).
    fn host_send_cycles(&self) -> u64 {
        match self.cfg.nic_kind {
            NicKind::Standard => self.cfg.nic.kernel_send_cycles,
            NicKind::Cni => self.cfg.nic.adc_enqueue_cycles,
        }
    }
}

/// One processor's execution and accounting state.
pub(crate) struct Cpu {
    pub(crate) task: Option<Task<YieldMsg, Reply>>,
    pub(crate) started: bool,
    pub(crate) clock: SimTime,
    /// The host CPU handles one asynchronous event (interrupt + protocol)
    /// at a time; later arrivals queue behind this.
    pub(crate) async_busy: SimTime,
    pub(crate) compute: SimTime,
    pub(crate) overhead: SimTime,
    pub(crate) delay: SimTime,
    pub(crate) blocked_at: Option<SimTime>,
    pub(crate) stolen: SimTime,
    pub(crate) inbox: VecDeque<InboxMsg>,
    pub(crate) waiting_recv: bool,
    pub(crate) pending_reply: Option<Reply>,
    /// The span whose delivery last woke this processor: program-order
    /// causality for the messages its next operations send (0 until the
    /// first wakeup, or always when tracing is disabled).
    pub(crate) last_wake_span: u64,
}

impl Cpu {
    fn new() -> Self {
        Cpu {
            task: None,
            started: false,
            clock: SimTime::ZERO,
            async_busy: SimTime::ZERO,
            compute: SimTime::ZERO,
            overhead: SimTime::ZERO,
            delay: SimTime::ZERO,
            blocked_at: None,
            stolen: SimTime::ZERO,
            inbox: VecDeque::new(),
            waiting_recv: false,
            pending_reply: None,
            last_wake_span: 0,
        }
    }
}

/// One workstation's state, owned by the world's node slice.
pub(crate) struct Node {
    /// This node's index: its processor id and its shard.
    pub(crate) id: usize,
    pub(crate) cpu: Cpu,
    pub(crate) nic: Nic,
    pub(crate) dsm: DsmNode,
    /// Deterministic jitter source for protocol-handling costs. Identical
    /// critical-section durations phase-lock into pathological convoys
    /// that no real machine exhibits (cache and DRAM variance break them);
    /// a few percent of seeded jitter restores realistic
    /// desynchronisation while keeping runs bit-reproducible. A per-node
    /// stream makes each draw a function of this node's own history,
    /// independent of how other nodes' dispatches interleave.
    pub(crate) jitter: SplitMix64,
    /// Go-back-N transmit channels keyed by destination, materialised on
    /// first use. Keyed lookups only — never iterated on the timing path
    /// — so the map's order cannot perturb the simulation, and a lossless
    /// run (no fault plan) allocates no channels at all.
    pub(crate) rel_tx: BTreeMap<u32, ChanTx>,
    /// Receive channels keyed by source, materialised on first use.
    pub(crate) rel_rx: BTreeMap<u32, ChanRx>,
    /// Occupied frame slots in the virtual receive ring.
    pub(crate) ring_used: u32,
    /// Receive-ring high-water mark within the current metrics interval
    /// (reset to the live occupancy at each tick).
    pub(crate) ring_hw: u32,
    /// Previous cumulative counter sample, for metrics deltas.
    pub(crate) metrics_prev: MetricsSample,
    /// Previous cumulative busy times for utilization deltas: (NIC
    /// processor, ingress link, egress link), picoseconds.
    pub(crate) util_prev: (u64, u64, u64),
}

impl Node {
    /// Node `id` of a cluster per `cfg`, sharing the cluster's notice
    /// `log`.
    pub(crate) fn new(
        id: usize,
        cfg: &Config,
        nic_cfg: NicConfig,
        dsm_cfg: DsmConfig,
        log: &Rc<NoticeLog>,
    ) -> Self {
        let mut nic = Nic::new(cfg.nic_kind, nic_cfg);
        if cfg.nic_kind == NicKind::Cni && cfg.nic.cni_features.aih {
            // Install the DSM protocol as an Application Interrupt
            // Handler: one PATHFINDER pattern per protocol kind byte
            // (0xD0..=0xD8).
            for kind in 0xD0u8..=0xD8 {
                nic.install_handler_pattern(
                    Pattern::new(vec![FieldTest::byte(0, kind)]),
                    DSM_HANDLER,
                );
            }
        }
        Node {
            id,
            cpu: Cpu::new(),
            nic,
            dsm: DsmNode::new(ProcId(id as u32), dsm_cfg, Rc::clone(log)),
            jitter: SplitMix64::new(cfg.seed ^ 0xC31_0C31 ^ id as u64),
            rel_tx: BTreeMap::new(),
            rel_rx: BTreeMap::new(),
            ring_used: 0,
            ring_hw: 0,
            metrics_prev: MetricsSample::default(),
            util_prev: (0, 0, 0),
        }
    }

    /// Dispatch one event of this node's shard at `t`.
    pub(crate) fn dispatch(&mut self, env: &Env, sh: &mut Shared, t: SimTime, ev: Ev) {
        match ev {
            Ev::Resume(_) => self.resume(env, sh, Reply::Ok),
            Ev::Xmit { msg, cause } => self.transport(env, sh, msg, t, cause),
            Ev::Arrive { msg, span } => self.arrive(env, sh, t, msg, span),
            Ev::Wake { overhead, .. } => self.wake(env, sh, t, overhead),
            Ev::FrameRx {
                src,
                seq,
                train,
                span,
                frag,
                sent_at,
                ..
            } => self.on_frame_rx(env, sh, t, src, seq, *train, span, frag, sent_at),
            Ev::AckRx {
                from,
                ack,
                train,
                span,
                ..
            } => self.on_ack_rx(env, sh, t, from, ack, *train, span),
            Ev::RxmitTimer { dst, gen, .. } => self.on_rxmit_timer(env, sh, t, dst, gen),
            Ev::RingRelease { .. } => self.ring_used = self.ring_used.saturating_sub(1),
            Ev::MetricsTick => unreachable!("the engine loop samples metrics itself"),
        }
    }

    /// Cumulative counters in [`MetricsSample`] shape (`interval_ps` left
    /// zero; the metrics tick computes deltas).
    pub(crate) fn cumulative_sample(&self) -> MetricsSample {
        let n = self.nic.stats();
        let d = self.dsm.stats();
        MetricsSample {
            interval_ps: 0,
            tx_messages: n.tx_messages,
            rx_messages: n.rx_messages,
            dma_bytes_to_board: n.dma_bytes_to_board,
            dma_bytes_to_host: n.dma_bytes_to_host,
            tx_cache_hits: n.tx_cache_hits,
            tx_page_lookups: n.tx_page_lookups,
            interrupts: n.interrupts,
            polls: n.polls,
            aih_dispatches: n.aih_dispatches,
            page_fetches: d.page_fetches,
            diff_fetches: d.diff_fetches,
            invalidations: d.invalidations,
        }
    }

    // --- span plumbing ----------------------------------------------------

    /// Open a span sent by this node: one message, frame or
    /// acknowledgement entering its lifecycle at `at`. Span ids are
    /// assigned in deterministic event order and are only observable
    /// through the trace, so an untraced run (id 0) is not perturbed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open_span(
        &self,
        env: &Env,
        sh: &mut Shared,
        at: SimTime,
        parent: u64,
        class: u8,
        kind: u8,
        dst: usize,
        bytes: usize,
    ) -> u64 {
        let span = sh.alloc_span(env);
        env.trace.emit_at(
            at.as_ps(),
            self.id as u32,
            TraceEvent::SpanOpen {
                span,
                parent,
                class,
                kind,
                src: self.id as u32,
                dst: dst as u32,
                bytes: bytes as u32,
            },
        );
        span
    }

    /// Record the transmit-side stage durations of `span`, handed to the
    /// board at `now`, its first cell on the wire at `wire_start` and its
    /// last cell at the receiver at `arrival`. Every transmit starts on the
    /// board (the host's part of a send is charged before it), so the
    /// host-DMA stage is zero and the payload DMA lands in the tx-queue
    /// stage.
    pub(crate) fn record_tx_span(
        &self,
        env: &Env,
        span: u64,
        now: SimTime,
        wire_start: SimTime,
        arrival: SimTime,
    ) {
        env.trace.emit_at(
            arrival.as_ps(),
            self.id as u32,
            TraceEvent::SpanTx {
                span,
                host_dma_ps: 0,
                tx_queue_ps: wire_start.saturating_sub(now).as_ps(),
                wire_ps: arrival.saturating_sub(wire_start).as_ps(),
            },
        );
    }

    /// Record the receive-side stage durations of `span` from the NIC's
    /// receive-path timestamps. Runs on the protocol receive path, so it
    /// must stay free of panicking operators (`cni-lint` P1 enforces
    /// this).
    fn record_rx_span(&self, env: &Env, arrival: SimTime, span: u64, rx: &cni_nic::RxPath) {
        env.trace.emit_at(
            rx.ready_at.as_ps(),
            self.id as u32,
            TraceEvent::SpanRx {
                span,
                rx_nic_ps: rx.rx_start.saturating_sub(arrival).as_ps(),
                sar_ps: rx.sar_done.saturating_sub(rx.rx_start).as_ps(),
            },
        );
    }

    /// Close `span` at `at`: its effect was delivered (handler finished,
    /// payload landed in host memory, frame or ACK ingested). Also on
    /// the protocol receive path; panic-free like [`Self::record_rx_span`].
    pub(crate) fn close_span(&self, env: &Env, at: SimTime, span: u64) {
        env.trace
            .emit_at(at.as_ps(), self.id as u32, TraceEvent::SpanClose { span });
    }

    // --- cost helpers -------------------------------------------------------

    /// Add deterministic jitter of up to ~6% to a protocol-handling cycle
    /// count, drawn from this node's private stream.
    fn jittered(&mut self, cycles: u64) -> u64 {
        cycles + self.jitter.next_below(cycles / 16 + 1)
    }

    /// Charge host overhead synchronously on this node's clock.
    fn charge_ov(&mut self, env: &Env, cycles: u64) {
        let dt = env.host(cycles);
        self.cpu.clock += dt;
        self.cpu.overhead += dt;
    }

    // --- program-side event handling ----------------------------------------

    fn resume(&mut self, env: &Env, sh: &mut Shared, reply: Reply) {
        let y = {
            let cpu = &mut self.cpu;
            let task = cpu.task.as_mut().expect("resume of dead cpu");
            if !cpu.started {
                cpu.started = true;
                task.start()
            } else {
                task.resume(reply)
            }
        };
        match y {
            Yield::Finished => {
                self.cpu.task = None;
            }
            Yield::Request(ym) => {
                let comp = env.host(ym.pending_cycles);
                let cpu = &mut self.cpu;
                let stolen = std::mem::take(&mut cpu.stolen);
                cpu.clock += comp;
                cpu.compute += comp;
                cpu.clock += stolen;
                cpu.overhead += stolen;
                self.handle_op(env, sh, ym.op);
            }
        }
    }

    fn handle_op(&mut self, env: &Env, sh: &mut Shared, op: Op) {
        let p = self.id;
        let costs = &env.cfg.costs;
        match op {
            Op::ReadFault(page) => {
                self.charge_ov(env, costs.fault_trap_cycles);
                let res = self.dsm.on_read_fault(page);
                self.apply_sync_result(env, sh, res, true);
            }
            Op::WriteFault(page) => {
                self.charge_ov(env, costs.fault_trap_cycles);
                let res = self.dsm.on_write_fault(page);
                self.apply_sync_result(env, sh, res, true);
            }
            Op::Acquire(l) => {
                self.charge_ov(env, costs.lock_op_cycles);
                let res = self.dsm.on_acquire(l);
                self.apply_sync_result(env, sh, res, true);
            }
            Op::Release(l) => {
                self.charge_ov(env, costs.lock_op_cycles);
                let res = self.dsm.on_release(l);
                self.apply_sync_result(env, sh, res, false);
            }
            Op::Barrier => {
                self.charge_ov(env, costs.barrier_op_cycles);
                let res = self.dsm.on_barrier();
                self.apply_sync_result(env, sh, res, true);
            }
            Op::SendTo {
                dst,
                len,
                page,
                cacheable,
                dirty_lines,
                data,
            } => {
                self.charge_ov(env, env.host_send_cycles());
                if dirty_lines > 0 {
                    // Write-back flush so the board sees a consistent
                    // buffer; the snooper applies the flushed writes.
                    let now = self.cpu.clock;
                    let x = self.nic.bus.flush_lines(
                        now,
                        dirty_lines as u64,
                        env.cfg.nic.cache_line_bytes,
                    );
                    self.cpu.clock = x.end;
                    self.cpu.overhead += x.end - now;
                    if let Some(pg) = page {
                        self.nic.snoop_write(pg);
                    }
                }
                self.xmit_at_clock(
                    sh,
                    WireMsg::App(AppMsg {
                        src: p,
                        dst: dst as usize,
                        len,
                        page,
                        cacheable,
                        data,
                    }),
                );
                sh.q.schedule_at(self.cpu.clock, Ev::Resume(p));
            }
            Op::Backoff(cycles) => {
                self.charge_ov(env, cycles);
                sh.q.schedule_at(self.cpu.clock, Ev::Resume(p));
            }
            Op::Recv => {
                if let Some((src, len, data)) = self.cpu.inbox.pop_front() {
                    self.charge_ov(env, env.cfg.nic.poll_cycles);
                    let at = self.cpu.clock;
                    self.cpu.pending_reply = Some(Reply::Received { src, len, data });
                    sh.q.schedule_at(
                        at,
                        Ev::Wake {
                            p,
                            overhead: SimTime::ZERO,
                        },
                    );
                    // Mark as "blocked" for zero time so Wake's accounting
                    // balances.
                    self.cpu.blocked_at = Some(at);
                } else {
                    self.cpu.waiting_recv = true;
                    self.cpu.blocked_at = Some(self.cpu.clock);
                }
            }
            Op::Done => {
                sh.live -= 1;
                // Let the program run to completion.
                self.resume(env, sh, Reply::Ok);
            }
        }
    }

    /// Apply a protocol result produced synchronously by this processor's
    /// own operation: charge its work and flushes here, transmit its
    /// messages host-initiated, and either resume or block.
    fn apply_sync_result(&mut self, env: &Env, sh: &mut Shared, res: HandleResult, blocking: bool) {
        // Data-movement labour only: the base per-operation cost was
        // already charged by the caller (fault trap / lock op / barrier
        // op), so don't re-add msg_base here.
        let c = &env.cfg.costs;
        let w = &res.work;
        let labour = c.per_word_cycles
            * (w.twin_words + w.diff_scan_words + w.diff_words + w.page_copy_words)
            + c.per_notice_cycles * w.notices;
        self.charge_ov(env, labour);
        self.charge_flushes(env, &res.flushed);
        for m in res.out {
            self.send_proto_sync(env, sh, m);
        }
        if res.wakeup.is_some() || !blocking {
            sh.q.schedule_at(self.cpu.clock, Ev::Resume(self.id));
        } else {
            self.cpu.blocked_at = Some(self.cpu.clock);
        }
    }

    /// Flush dirty lines over the bus (the releasing CPU stalls for the
    /// write-backs) and feed the flushed pages to the snooper.
    fn charge_flushes(&mut self, env: &Env, flushed: &[(PageId, u64)]) {
        if flushed.is_empty() {
            return;
        }
        let total: u64 = flushed.iter().map(|&(_, l)| l).sum();
        let now = self.cpu.clock;
        let x = self
            .nic
            .bus
            .flush_lines(now, total, env.cfg.nic.cache_line_bytes);
        for &(page, _) in flushed {
            self.nic.snoop_write(page.0 as u64);
        }
        self.cpu.clock = x.end;
        self.cpu.overhead += x.end - now;
    }

    /// Transmit a protocol message initiated by this processor's own
    /// (synchronous) operation: the host-side cost advances its clock now.
    fn send_proto_sync(&mut self, env: &Env, sh: &mut Shared, msg: Msg) {
        self.charge_ov(env, env.host_send_cycles());
        self.xmit_at_clock(sh, WireMsg::Proto(msg));
    }

    /// Hand `msg` to the NIC at this processor's clock, once the host's
    /// part of the send is charged: the NIC-side work runs as an
    /// [`Ev::Xmit`] at that time. The send's span parent is whatever span
    /// last woke the processor — program-order causality.
    fn xmit_at_clock(&mut self, sh: &mut Shared, msg: WireMsg) {
        let cause = self.cpu.last_wake_span;
        sh.q.schedule_at(self.cpu.clock, Ev::Xmit { msg, cause });
    }

    /// Push `msg` through this node's NIC, handed to it at `now`, and into
    /// the fabric: the one send path of every protocol and application
    /// message. The host's part of the send (kernel entry or ADC enqueue,
    /// and any flush) was charged before `now`, or the send is an AIH reply
    /// that never left the board. Opens the message's span as a child of
    /// `cause`. Under a fault plan the message goes through go-back-N;
    /// otherwise its arrival event is scheduled at the receiver.
    fn transport(&mut self, env: &Env, sh: &mut Shared, msg: WireMsg, now: SimTime, cause: u64) {
        let src = self.id;
        let dst = msg.dst();
        debug_assert_ne!(src, dst, "self-sends are handled locally");
        let bytes = msg.wire_bytes();
        let kind = msg.kind();
        let span = self.open_span(env, sh, now, cause, cni_trace::SPAN_MSG, kind, dst, bytes);
        if let WireMsg::Proto(_) = msg {
            sh.count_proto(kind);
        }
        if !sh.injector.plan().is_zero() {
            self.queue_reliable(env, sh, now, msg, span);
            return;
        }
        let (page, cacheable) = msg.tx_page();
        let tx = self.nic.transmit(
            now,
            &TxRequest {
                len: bytes,
                cells: env.seg.cell_count(bytes),
                page,
                cacheable,
            },
        );
        let arrival = sh
            .fabric
            .send_pdu(tx.wire_start, src, dst, bytes, tx.cell_gap)
            .last_cell_arrival;
        let lat = arrival - now;
        sh.latency[latency_slot(kind)].record(lat.as_ps() / 1000);
        env.trace.emit_at(
            arrival.as_ps(),
            src as u32,
            TraceEvent::ProtoTx {
                kind,
                bytes: bytes as u32,
                dur_ps: lat.as_ps(),
            },
        );
        self.record_tx_span(env, span, now, tx.wire_start, arrival);
        sh.q.schedule_at(arrival, Ev::Arrive { msg, span });
    }

    // --- network-side event handling -----------------------------------------

    /// A message finished arriving at this node: a protocol message goes
    /// to [`Self::arrive_proto`], an application message to
    /// [`Self::arrive_app`].
    pub(crate) fn arrive(
        &mut self,
        env: &Env,
        sh: &mut Shared,
        t: SimTime,
        msg: WireMsg,
        span: u64,
    ) {
        match msg {
            WireMsg::Proto(msg) => self.arrive_proto(env, sh, t, msg, span),
            WireMsg::App(msg) => self.arrive_app(env, sh, t, msg, span),
        }
    }

    /// A protocol PDU finished arriving at this node's NIC.
    fn arrive_proto(&mut self, env: &Env, sh: &mut Shared, t: SimTime, msg: Msg, span: u64) {
        let dst = self.id;
        let bytes = msg.payload.wire_bytes();
        let header = msg.payload.header_bytes(msg.src);
        let rx = self.nic.receive(t, env.seg.cell_count(bytes), &header);
        self.record_rx_span(env, t, span, &rx);
        let cfg = &env.cfg;
        // `Nic::receive` dispatches to a handler only on the CNI.
        match rx.disposition {
            RxDisposition::Handler(h) => {
                debug_assert_eq!(h, DSM_HANDLER);
                let info = delivery_info(&msg.payload);
                let kind = msg.payload.kind();
                // Read before `on_message` completes the fault.
                let wants_write = self.dsm.awaits_write_fault();
                let res = self.dsm.on_message(msg);
                // NIC-resident collectives (generalised AIH, after the
                // Quadrics/Myrinet NIC-collective protocol of
                // cs/0402027): barrier combining and release / lock-chain
                // forwarding execute as dedicated NIC-processor steps
                // instead of a full protocol dispatch. Notice folding
                // still costs per notice — the combine carries the write
                // notices with it.
                let cycles = if cfg.collectives {
                    match kind {
                        // BarrierArrive: fold a child into the combine.
                        0xD3 => {
                            self.nic.record_collective(1, 0);
                            cfg.nic.coll_combine_cycles
                                + cfg.costs.per_notice_cycles * res.work.notices
                        }
                        // AcquireFwd / BarrierRelease: forward down the
                        // chain or tree.
                        0xD1 | 0xD4 => {
                            self.nic.record_collective(0, 1);
                            cfg.nic.coll_forward_cycles
                                + cfg.costs.per_notice_cycles * res.work.notices
                        }
                        _ => env.work_cycles_nic(&res.work),
                    }
                } else {
                    env.work_cycles_nic(&res.work)
                };
                let cycles = self.jittered(cycles);
                let t_done = self.nic.run_handler(rx.ready_at, cycles);
                // AIH replies leave straight from the board, as children
                // of the message that provoked them.
                for m in res.out {
                    self.transport(env, sh, WireMsg::Proto(m), t_done, span);
                }
                debug_assert!(res.flushed.is_empty(), "AIH handling never flushes");
                if res.wakeup.is_none() {
                    // Handled entirely on the board: the span closes when
                    // the AIH finishes.
                    self.close_span(env, t_done, span);
                } else {
                    let (len, page, cacheable) = info;
                    // The header cache bit marks pages "likely to migrate
                    // from one host to another" (§2.2): a requester that
                    // writes the page (now, or in earlier intervals — the
                    // read-modify-write critical sections of Water and
                    // Cholesky fault as reads first) is the page's next
                    // sender. A pure reader (a Jacobi boundary row) is
                    // not, and caching its fetches would only pollute the
                    // buffer map.
                    let migratory = wants_write
                        || page
                            .map(|pg| self.dsm.has_written(PageId(pg as u32)))
                            .unwrap_or(false);
                    let cacheable = cacheable && migratory;
                    let d = self.nic.deliver_to_host(t_done, len, page, cacheable, true);
                    let ov = env.host(d.host_cycles);
                    sh.q.schedule_at(
                        d.at + ov,
                        Ev::Wake {
                            p: dst,
                            overhead: ov,
                        },
                    );
                    // The wakeup delivers the effect: close the span and
                    // make it the parent of whatever the woken processor
                    // sends next.
                    self.cpu.last_wake_span = span;
                    self.close_span(env, d.at + ov, span);
                }
            }
            RxDisposition::HostBound => {
                // The protocol runs on the host CPU behind an interrupt:
                // the standard interface, or the CNI with its AIH
                // disabled (ablation), whose sends still take the ADC
                // path. DMA the whole message to host memory, interrupt,
                // run the handler. The host serialises interrupt
                // handling: this arrival queues behind any handler still
                // running.
                let blocked = self.cpu.blocked_at.is_some();
                let d = self
                    .nic
                    .deliver_to_host(rx.ready_at, bytes, None, false, blocked);
                let res = self.dsm.on_message(msg);
                let work = env.work_cycles(&res.work);
                // The handler occupies the CPU (and blocks further
                // interrupts) for the occupancy part; the rest of the
                // interrupt cost is pipeline/cache disruption charged to
                // whatever was running.
                let kernel_recv = match cfg.nic_kind {
                    NicKind::Standard => cfg.nic.kernel_recv_cycles,
                    NicKind::Cni => 0,
                };
                let occupancy =
                    self.jittered(cfg.nic.interrupt_occupancy_cycles + kernel_recv + work);
                let full = d.host_cycles + work;
                let start = d.at.max(self.cpu.async_busy);
                let mut t_occ = start + env.host(occupancy);
                debug_assert!(res.flushed.is_empty());
                for m in res.out {
                    t_occ += env.host(env.host_send_cycles());
                    sh.q.schedule_at(
                        t_occ,
                        Ev::Xmit {
                            msg: WireMsg::Proto(m),
                            cause: span,
                        },
                    );
                }
                self.cpu.async_busy = t_occ;
                if res.wakeup.is_some() {
                    let wake_t = t_occ.max(start + env.host(full));
                    sh.q.schedule_at(
                        wake_t,
                        Ev::Wake {
                            p: dst,
                            overhead: wake_t - start,
                        },
                    );
                    self.cpu.last_wake_span = span;
                    self.close_span(env, wake_t, span);
                } else {
                    // Stolen from whatever the host was doing.
                    let stolen = env.host(full).max(t_occ - start);
                    self.cpu.stolen += stolen;
                    self.close_span(env, start + stolen, span);
                }
            }
        }
    }

    /// An application-level message finished arriving.
    fn arrive_app(&mut self, env: &Env, sh: &mut Shared, t: SimTime, msg: AppMsg, span: u64) {
        // Application messages carry an app header PATHFINDER has no AIH
        // pattern for: they demultiplex to the host channel.
        let len = msg.len;
        let cells = env.seg.cell_count(len as usize);
        let rx = self.nic.receive(t, cells, &[APP_KIND, msg.src as u8]);
        self.record_rx_span(env, t, span, &rx);
        debug_assert_eq!(rx.disposition, RxDisposition::HostBound);
        let waiting = self.cpu.waiting_recv;
        let d =
            self.nic
                .deliver_to_host(rx.ready_at, len as usize, msg.page, msg.cacheable, waiting);
        let ov = env.host(d.host_cycles);
        let src = msg.src as u32;
        if waiting {
            // `Op::Recv` waits only on an empty inbox, so the message
            // goes straight to the waiting receiver.
            self.cpu.waiting_recv = false;
            self.cpu.pending_reply = Some(Reply::Received {
                src,
                len,
                data: msg.data,
            });
            sh.q.schedule_at(
                d.at + ov,
                Ev::Wake {
                    p: self.id,
                    overhead: ov,
                },
            );
            self.cpu.last_wake_span = span;
            self.close_span(env, d.at + ov, span);
        } else {
            self.cpu.inbox.push_back((src, len, msg.data));
            self.cpu.stolen += ov;
            // The payload is in host memory once the delivery DMA ends;
            // the receiver just has not polled for it yet.
            self.close_span(env, d.at, span);
        }
    }

    fn wake(&mut self, env: &Env, sh: &mut Shared, t: SimTime, overhead: SimTime) {
        let cpu = &mut self.cpu;
        let blocked_at = cpu
            .blocked_at
            .take()
            .expect("wake of a processor that is not blocked");
        let raw = t.saturating_sub(blocked_at);
        let stolen = std::mem::take(&mut cpu.stolen);
        let ov = (overhead + stolen).min(raw);
        cpu.delay += raw - ov;
        cpu.overhead += ov;
        cpu.clock = cpu.clock.max(t);
        let reply = cpu.pending_reply.take().unwrap_or(Reply::Ok);
        self.resume(env, sh, reply);
    }
}

/// What part of a wakeup-carrying protocol message must be DMAed to host
/// memory on the CNI (the AIH keeps the rest on the board):
/// (bytes, destination page for receive caching, cache bit).
fn delivery_info(p: &Payload) -> (usize, Option<u64>, bool) {
    match p {
        Payload::PageResp { page, data, .. } => (data.len() * 8, Some(page.0 as u64), true),
        Payload::DiffResp { diffs, .. } => (
            diffs.iter().map(|d| d.wire_bytes()).sum::<usize>().max(16),
            None,
            false,
        ),
        // Grants and barrier releases update host-side page protections;
        // a small descriptor write suffices.
        Payload::AcquireGrant { .. } | Payload::BarrierRelease { .. } => (64, None, false),
        _ => (0, None, false),
    }
}
