//! The timed cluster simulation: co-threaded processors + DSM protocol +
//! NIC/ATM transport, composed into one deterministic discrete-event run.
//!
//! This is the reproduction's equivalent of the paper's modified Proteus:
//! application code executes for real on co-threads, and every
//! communication event is costed through the configured NIC personality
//! and the ATM fabric. The **only** difference between a CNI run and a
//! standard run is the cost path — the protocol logic, the applications
//! and the workloads are bit-identical:
//!
//! * **sends**: ADC enqueue vs kernel entry; Message-Cache hit (no DMA) vs
//!   unconditional DMA.
//! * **receives**: PATHFINDER → Application Interrupt Handler on the 33 MHz
//!   NIC processor vs host interrupt + kernel + host protocol processing.
//! * **notification**: poll/interrupt hybrid vs interrupt-only.
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
use crate::ctx::{AccessCosts, Op, ProcCtx, Reply, YieldMsg};
use crate::report::{KindHistogram, KindLatency, ProcTimes, RunReport, REPORT_VERSION};
use cni_atm::{Cell, Fabric};
use cni_dsm::{
    DsmConfig, DsmNode, HandleResult, LockId, Msg, NodeSpace, PageId, Payload, ProcId, VAddr, Work,
};
use cni_faults::{CellFate, FaultInjector, FaultStats};
use cni_nic::device::TxOrigin;
use cni_nic::{Nic, NicKind, RxDisposition, TxRequest};
use cni_pathfinder::{FieldTest, Pattern};
use cni_sim::stats::Histogram;
use cni_sim::{CoThread, EventQueue, SimTime, SplitMix64, Yield};
use cni_trace::{MetricsSample, TraceEvent, TraceSink};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A program to run on one simulated processor.
pub type Program = Box<dyn FnOnce(&mut ProcCtx<'_>) + Send + 'static>;

/// An inbox entry: (sender, length, optional payload words).
pub(crate) type InboxMsg = (u32, u32, Option<Arc<Vec<u64>>>);

pub(crate) enum Ev {
    /// Resume processor `p`'s co-thread.
    Resume(usize),
    /// Hand a protocol message to `src`'s NIC (the host-side work was
    /// already charged; scheduling this at the right virtual time keeps
    /// the NIC-processor busy register causal — a lump-charged compute
    /// quantum must not reserve the NIC into the future and stall
    /// arrivals). `cause` is the span whose effect provoked this send
    /// (0 for a root cause).
    Xmit { src: usize, msg: Msg, cause: u64 },
    /// Hand an application message to `src`'s NIC.
    XmitApp {
        src: usize,
        dst: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
        cause: u64,
    },
    /// A protocol PDU finished arriving at `dst`'s NIC; `span` is its
    /// message span.
    Proto { msg: Msg, span: u64 },
    /// An application-level message finished arriving.
    App {
        dst: usize,
        src: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
        span: u64,
    },
    /// Wake a blocked processor; `overhead` is host time already spent on
    /// its behalf during the wait (delivery, protocol, poll/interrupt).
    Wake { p: usize, overhead: SimTime },
    /// Periodic metrics sample (only scheduled when tracing is enabled and
    /// a sampling interval is configured).
    MetricsTick,
    /// A reliable-layer data frame's surviving cells finished arriving at
    /// `dst` (the AAL5 end-of-PDU cell made it through the faulty fabric).
    FrameRx {
        src: usize,
        dst: usize,
        seq: u64,
        cells: Vec<Cell>,
        /// The frame's transmission-attempt span.
        span: u64,
        /// The fragment the frame carries. Shipping it with the event
        /// (instead of looking it up in the sender's window on receipt)
        /// keeps the receive path free of cross-node state — the shard
        /// isolation the parallel engine depends on.
        frag: Frag,
        /// When the fragment was *first* transmitted (one-way latency is
        /// measured from the first attempt, not a retransmission).
        sent_at: SimTime,
    },
    /// A reliable-layer acknowledgement frame arrived back at sender `to`.
    AckRx {
        to: usize,
        from: usize,
        ack: u64,
        cells: Vec<Cell>,
        /// The acknowledgement's span.
        span: u64,
    },
    /// Retransmission timer for the `src -> dst` channel; fires only if
    /// `gen` still matches the channel's timer generation (stale timers
    /// drain as no-ops).
    RxmitTimer { src: usize, dst: usize, gen: u64 },
    /// The receive ring at `dst` frees one frame slot.
    RingRelease { dst: usize },
}

/// A logical message queued on the reliable-delivery layer: either a DSM
/// protocol message or an application-level send. The wire carries a real
/// byte image of it (segmented, CRC-protected, corruptible); the event
/// queue carries the structured form for dispatch once the image survives.
#[derive(Clone)]
pub(crate) enum WireMsg {
    Proto(Msg),
    App {
        src: usize,
        dst: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
    },
}

/// Wire length of a logical message in bytes.
pub(crate) fn wire_len(wire: &WireMsg) -> usize {
    match wire {
        WireMsg::Proto(msg) => msg.payload.wire_bytes(),
        WireMsg::App { len, .. } => *len as usize,
    }
}

/// One wire frame of a logical message. Messages longer than the plan's
/// `max_frame_bytes` are split into several frames, each with its own
/// sequence number and CRC domain — otherwise a multi-kilobyte PDU's
/// per-attempt survival probability `(1 - drop_prob)^cells` collapses and
/// no amount of retransmission delivers it. The receiver dispatches the
/// message when the final fragment is accepted (go-back-N delivers in
/// order, so earlier fragments are already in by then).
#[derive(Clone)]
pub(crate) struct Frag {
    pub(crate) wire: Arc<WireMsg>,
    /// Fragment index within the message, `0..nfrags`.
    pub(crate) frag: u32,
    /// Total fragments carrying this message.
    pub(crate) nfrags: u32,
    /// This fragment's wire length in bytes.
    pub(crate) bytes: u32,
    /// The message span this fragment carries (the receiver closes it
    /// when the final fragment dispatches).
    pub(crate) span: u64,
}

/// A send's serial half: everything the acting node decided locally
/// (NIC transmit timing, payload, spans), waiting for the global parts —
/// fabric link occupancy, fault-injector draws, arrival-event scheduling,
/// global counters — which must be applied in exact serial `(time, seq)`
/// order. On the serial path [`World::emit_send`] commits an intent
/// immediately, so the code path (and therefore every timing and every
/// counter) is identical with and without the parallel engine.
pub(crate) enum SendIntent {
    /// A lossless-path protocol PDU (no fault plan active).
    Proto {
        src: usize,
        msg: Msg,
        span: u64,
        now: SimTime,
        host_done: SimTime,
        wire_start: SimTime,
        cell_gap: SimTime,
    },
    /// A lossless-path application PDU.
    App {
        src: usize,
        dst: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
        span: u64,
        now: SimTime,
        host_done: SimTime,
        wire_start: SimTime,
        cell_gap: SimTime,
    },
    /// A reliable-layer data frame entering the faulty fabric.
    Frame {
        src: usize,
        dst: usize,
        seq: u64,
        frag: Frag,
        sent_at: SimTime,
        /// First 16 bytes of the frame image (header + sequence number);
        /// the rest is zero fill the segmenter materialises.
        prefix: [u8; 16],
        prefix_len: u8,
        bytes: u32,
        span: u64,
        now: SimTime,
        host_done: SimTime,
        wire_start: SimTime,
        cell_gap: SimTime,
    },
    /// A reliable-layer cumulative acknowledgement frame.
    Ack {
        from: usize,
        to: usize,
        ack: u64,
        image: [u8; 16],
        span: u64,
        now: SimTime,
        host_done: SimTime,
        wire_start: SimTime,
        cell_gap: SimTime,
    },
    /// A global-counter delta recorded mid-dispatch. Deltas commute, but
    /// routing them through the commit path keeps every global-state
    /// mutation out of the (possibly concurrent) dispatch phase.
    Stat(StatDelta),
}

/// Global-counter deltas produced during dispatch (see
/// [`SendIntent::Stat`]).
pub(crate) enum StatDelta {
    /// One protocol message of `kind` entered the reliable layer.
    ProtoMsg { kind: u8 },
    /// A one-way latency sample for `latency[idx]`, in microseconds.
    Latency { idx: usize, us: u64 },
    /// The receiver discarded a duplicate frame.
    Duplicate,
    /// The receiver dropped an in-order frame for lack of ring space.
    RingOverflow,
    /// Two duplicate acks triggered a fast retransmit.
    FastRetransmit,
    /// One frame retransmission.
    Retransmit,
    /// One retransmission-timer expiry.
    Timeout,
    /// A processor unblocked after waiting `raw` on op-kind `kind`.
    Wait { kind: usize, raw: SimTime },
    /// A program finished.
    ProcDone,
}

/// One unacknowledged frame in a sender window.
pub(crate) struct InFlight {
    pub(crate) seq: u64,
    pub(crate) frag: Frag,
    pub(crate) attempts: u32,
    pub(crate) sent_at: SimTime,
    /// Span of the frame's *first* transmission attempt: retransmission
    /// spans are recorded as its children, keeping every wire attempt
    /// causally linked to the originating send.
    pub(crate) span: u64,
}

/// Go-back-N transmit state for one (src, dst) channel.
pub(crate) struct ChanTx {
    pub(crate) next_seq: u64,
    /// Lowest unacknowledged sequence number.
    pub(crate) base: u64,
    pub(crate) window: VecDeque<InFlight>,
    /// Frames waiting for window space.
    pub(crate) pending: VecDeque<Frag>,
    /// Current retransmission timeout (doubles per timeout up to the
    /// plan's cap; resets on forward progress).
    pub(crate) rto: SimTime,
    pub(crate) timer_gen: u64,
    pub(crate) dup_acks: u32,
}

impl ChanTx {
    pub(crate) fn new(rto: SimTime) -> Self {
        ChanTx {
            next_seq: 0,
            base: 0,
            window: VecDeque::new(),
            pending: VecDeque::new(),
            rto,
            timer_gen: 0,
            dup_acks: 0,
        }
    }
}

/// Receive state for one (dst, src) channel: the next in-order sequence
/// number. Anything below it is a duplicate; anything above is discarded
/// (go-back-N keeps no out-of-order buffer) and re-acknowledged.
pub(crate) struct ChanRx {
    pub(crate) expected: u64,
}

pub(crate) struct Cpu {
    pub(crate) thread: Option<CoThread<YieldMsg, Reply>>,
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
    pub(crate) done: bool,
    pub(crate) inbox: VecDeque<InboxMsg>,
    pub(crate) waiting_recv: bool,
    pub(crate) pending_reply: Option<Reply>,
    pub(crate) blocked_kind: usize,
    pub(crate) blocked_detail: u64,
    /// The span whose delivery last woke this processor: program-order
    /// causality for the messages its next operations send (0 until the
    /// first wakeup, or always when tracing is disabled).
    pub(crate) last_wake_span: u64,
}

/// One recorded engine→node interaction, the serializable stand-in for a
/// co-thread stack. While the journal is enabled (see
/// [`World::enable_journal`]) every interaction with a node is appended in
/// engine order: co-thread resumes with the reply they carried, and the
/// node's DSM handler invocations. A restore re-runs the same programs on
/// fresh co-threads and replays this journal verbatim — `Resume` entries
/// drive each co-thread back to its exact yield point (its yields are
/// discarded, because the engine's recorded reaction *is* the following
/// entries), and the DSM entries re-execute the protocol handlers so node
/// state and shared-memory contents converge to the checkpoint's.
#[derive(Clone, Debug)]
pub(crate) enum JEntry {
    /// Start or resume the node's co-thread with this reply.
    Resume(Reply),
    /// [`DsmNode::on_read_fault`] on the page.
    ReadFault(u32),
    /// [`DsmNode::on_write_fault`] on the page.
    WriteFault(u32),
    /// [`DsmNode::on_acquire`] of the lock.
    Acquire(u32),
    /// [`DsmNode::on_release`] of the lock.
    Release(u32),
    /// [`DsmNode::on_barrier`].
    Barrier,
    /// [`DsmNode::on_message`] with this message.
    Message(Msg),
}

impl Cpu {
    fn new() -> Self {
        Cpu {
            thread: None,
            started: false,
            clock: SimTime::ZERO,
            async_busy: SimTime::ZERO,
            compute: SimTime::ZERO,
            overhead: SimTime::ZERO,
            delay: SimTime::ZERO,
            blocked_at: None,
            stolen: SimTime::ZERO,
            done: false,
            inbox: VecDeque::new(),
            waiting_recv: false,
            pending_reply: None,
            blocked_kind: 0,
            blocked_detail: 0,
            last_wake_span: 0,
        }
    }
}

/// The simulated cluster.
pub struct World {
    pub(crate) cfg: Config,
    pub(crate) q: EventQueue<Ev>,
    pub(crate) fabric: Fabric,
    pub(crate) nics: Vec<Nic>,
    pub(crate) dsm: Vec<DsmNode>,
    pub(crate) spaces: Vec<Arc<NodeSpace>>,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) next_page: u32,
    pub(crate) live: usize,
    pub(crate) proto_messages: u64,
    pub(crate) msg_kinds: [u64; 9],
    /// Wait-time diagnostics per blocking-op kind (lock, fault, barrier,
    /// recv): (total wait, count). Enabled by `CNI_WAIT_STATS`.
    pub(crate) wait_stats: [(SimTime, u64); 4],
    /// Deterministic jitter sources for protocol-handling costs, one per
    /// node. Identical critical-section durations phase-lock into
    /// pathological convoys that no real machine exhibits (cache and DRAM
    /// variance break them); a few percent of seeded jitter restores
    /// realistic desynchronisation while keeping runs bit-reproducible.
    /// Per-node streams (rather than one engine-wide generator) make each
    /// draw a function of the drawing node's own history, independent of
    /// how other nodes' dispatches interleave — a shard-isolation
    /// requirement of the parallel engine.
    pub(crate) jitter: Box<[SplitMix64]>,
    /// The trace sink cloned into every instrumented component
    /// (disabled by default: figure runs pay a single enum branch).
    pub(crate) trace: TraceSink,
    /// Virtual-time spacing of periodic [`TraceEvent::Metrics`] samples.
    pub(crate) metrics_interval: Option<SimTime>,
    /// Previous cumulative counter snapshot per node, for sample deltas.
    /// Boxed slice: per-node state is sized once at construction so a
    /// 1024-node world carries no spare capacity.
    pub(crate) metrics_prev: Box<[MetricsSample]>,
    /// Last allocated span id (0 = none; span ids are 1-based and only
    /// advance while tracing is enabled, so disabled runs pay nothing and
    /// the engine's timing never depends on the counter).
    pub(crate) next_span: u64,
    /// Previous cumulative busy-time snapshot per node for utilization
    /// deltas: (NIC processor, ingress link, egress link), picoseconds.
    pub(crate) util_prev: Box<[(u64, u64, u64)]>,
    /// Receive-ring high-water mark per node within the current metrics
    /// interval (reset to the live occupancy at each tick).
    pub(crate) ring_hw: Box<[u32]>,
    /// One-way wire latency per message kind, in nanoseconds:
    /// indices 0..=8 are the protocol kinds `0xD0..=0xD8`, index 9 is the
    /// application kind `0xA0`.
    pub(crate) latency: Box<[Histogram]>,
    /// Fault injector, present only for a non-zero fault plan. When `None`
    /// every transmission takes the legacy lossless path and timing is
    /// bit-identical to a build without the faults layer.
    pub(crate) injector: Option<FaultInjector>,
    /// Go-back-N transmit channels: `rel_tx[src]` maps `dst` to the
    /// channel, materialised on first use. Keyed lookups only — never
    /// iterated on the timing path — so the map's order cannot perturb
    /// the simulation, and a lossless run (no fault plan) allocates no
    /// channels at all instead of the former dense N² matrix (the
    /// 1024-node memory fix). Per-node outer slices (instead of one map
    /// keyed `(src, dst)`) give every shard sole ownership of its own
    /// channel states under the parallel engine.
    pub(crate) rel_tx: Box<[BTreeMap<u32, ChanTx>]>,
    /// Receive channels: `rel_rx[dst]` maps `src` to the channel,
    /// materialised on first use.
    pub(crate) rel_rx: Box<[BTreeMap<u32, ChanRx>]>,
    /// Base retransmission timeout for newly materialised channels.
    pub(crate) rel_rto0: SimTime,
    /// Reliability-protocol counters (retransmits, duplicates, overflows).
    pub(crate) rel_stats: FaultStats,
    /// Occupied frame slots in each node's virtual receive ring.
    pub(crate) ring_used: Box<[u32]>,
    /// Per-node replay journal (see [`JEntry`]), recorded only when
    /// checkpointing is enabled: `None` keeps figure runs free of the
    /// recording cost.
    pub(crate) journal: Option<Vec<Vec<JEntry>>>,
    /// Events dispatched since t = 0: the checkpoint cadence counter
    /// (serialized, so a resumed run keeps the original cadence phase).
    pub(crate) events_dispatched: u64,
    /// Snapshot cadence: when set, `checkpoint_sink` runs after every
    /// `N`-th dispatched event.
    checkpoint_every: Option<u64>,
    /// Where checkpoints go. The engine stays IO-free: the embedder's
    /// closure decides what a snapshot becomes (a file, a test buffer).
    checkpoint_sink: Option<CheckpointSink>,
    /// Parallel-engine window state (see [`crate::pdes`]). Inactive (and
    /// empty) whenever the serial loop runs; never serialized.
    pub(crate) pdes: PdesState,
}

/// Routing state for the conservative parallel engine: while a window is
/// being dispatched, every queue schedule and cross-shard side effect is
/// diverted into the acting shard's buffer instead of being applied, and
/// the executor's replay barrier applies them in exact serial order.
pub(crate) struct PdesState {
    /// True only while [`World::run_pdes`] is dispatching windows.
    pub(crate) active: bool,
    /// The current window's horizon: every cross-shard arrival committed
    /// during replay must land at or past it (the lookahead contract).
    pub(crate) horizon: SimTime,
    /// Per-shard buffers of captured effects, drained after each dispatch.
    pub(crate) out: Box<[Vec<PdesOut>]>,
}

impl PdesState {
    pub(crate) fn new() -> Self {
        PdesState {
            active: false,
            horizon: SimTime::ZERO,
            out: Box::new([]),
        }
    }
}

/// One captured effect, in dispatch call order.
pub(crate) enum PdesOut {
    /// The serial engine would have called `schedule_at(at, ev)` here.
    Local(SimTime, Ev),
    /// The serial engine would have applied this side effect here.
    Send(SendIntent),
}

/// The embedder's checkpoint callback (see `World::set_checkpoint`).
type CheckpointSink = Box<dyn FnMut(&World)>;

/// The AIH handler id the DSM protocol is installed under.
const DSM_HANDLER: u32 = 1;

impl World {
    /// Build a cluster per `cfg`.
    pub fn new(cfg: Config) -> Self {
        assert!(cfg.procs >= 1 && cfg.procs <= cfg.atm.hosts());
        cfg.faults.validate();
        let injector = if cfg.faults.is_zero() {
            None
        } else {
            Some(FaultInjector::new(cfg.faults))
        };
        let rto0 = SimTime::from_ps(cfg.faults.rto_base_ps);
        let mut nic_cfg = cfg.nic;
        nic_cfg.page_bytes = cfg.page_bytes;
        // NIC collectives imply the tree barrier (the NIC combines along
        // a tree); the tree's fan-out follows the fabric — on a fat-tree,
        // leaf-wide subtrees keep combining traffic off the spine.
        let tree_barrier = cfg.tree_barrier || cfg.collectives;
        let barrier_arity = match cfg.atm.topology {
            cni_atm::Topology::FatTree { down, .. } if cfg.collectives => down.max(2),
            _ => 2,
        };
        let dsm_cfg = DsmConfig {
            procs: cfg.procs,
            page_bytes: cfg.page_bytes,
            line_bytes: cfg.nic.cache_line_bytes,
            tree_barrier,
            barrier_arity,
        };
        let spaces: Vec<Arc<NodeSpace>> = (0..cfg.procs)
            .map(|_| Arc::new(NodeSpace::new(cfg.page_bytes, cfg.nic.cache_line_bytes)))
            .collect();
        let dsm = (0..cfg.procs)
            .map(|p| DsmNode::new(ProcId(p as u32), dsm_cfg, spaces[p].clone()))
            .collect();
        let nics = (0..cfg.procs)
            .map(|_| {
                let mut nic = Nic::new(cfg.nic_kind, nic_cfg);
                if cfg.nic_kind == NicKind::Cni && cfg.nic.cni_features.aih {
                    // Install the DSM protocol as an Application Interrupt
                    // Handler: one PATHFINDER pattern per protocol kind
                    // byte (0xD0..=0xD8).
                    for kind in 0xD0u8..=0xD8 {
                        nic.install_handler_pattern(
                            Pattern::new(vec![FieldTest::byte(0, kind)]),
                            DSM_HANDLER,
                        );
                    }
                }
                nic
            })
            .collect();
        World {
            q: EventQueue::new(),
            fabric: Fabric::new(cfg.atm),
            nics,
            dsm,
            spaces,
            cpus: (0..cfg.procs).map(|_| Cpu::new()).collect(),
            next_page: 0,
            live: 0,
            proto_messages: 0,
            msg_kinds: [0; 9],
            wait_stats: [(SimTime::ZERO, 0); 4],
            jitter: (0..cfg.procs)
                .map(|p| SplitMix64::new(cfg.seed ^ 0xC31_0C31 ^ p as u64))
                .collect(),
            trace: TraceSink::Disabled,
            metrics_interval: None,
            metrics_prev: vec![MetricsSample::default(); cfg.procs].into_boxed_slice(),
            next_span: 0,
            util_prev: vec![(0, 0, 0); cfg.procs].into_boxed_slice(),
            ring_hw: vec![0; cfg.procs].into_boxed_slice(),
            latency: vec![Histogram::new(); 10].into_boxed_slice(),
            injector,
            rel_tx: (0..cfg.procs).map(|_| BTreeMap::new()).collect(),
            rel_rx: (0..cfg.procs).map(|_| BTreeMap::new()).collect(),
            rel_rto0: rto0,
            rel_stats: FaultStats::default(),
            ring_used: vec![0; cfg.procs].into_boxed_slice(),
            journal: None,
            events_dispatched: 0,
            checkpoint_every: None,
            checkpoint_sink: None,
            pdes: PdesState::new(),
            cfg,
        }
    }

    /// Attach a trace sink to every instrumented component: the event
    /// queue, each NIC (device, Message Cache, ADC rings, classifier) and
    /// each DSM node. Co-threads pick the sink up when [`World::run`]
    /// spawns them. Call before `run`.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.q.set_trace(sink.clone());
        for (p, nic) in self.nics.iter_mut().enumerate() {
            nic.set_trace(sink.clone(), p as u32);
        }
        for d in &mut self.dsm {
            d.set_trace(sink.clone());
        }
        self.trace = sink;
    }

    /// The trace sink (drain it after [`World::run`] to export events).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Emit a [`TraceEvent::Metrics`] sample per node every `interval` of
    /// virtual time (only takes effect when a trace sink is attached).
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn set_metrics_interval(&mut self, interval: SimTime) {
        assert!(
            interval > SimTime::ZERO,
            "metrics interval must be positive"
        );
        self.metrics_interval = Some(interval);
    }

    /// Record the replay journal from the start of the run, enabling
    /// [`World::take_snapshot`]. Must be called before [`World::run`]
    /// (checkpoint-restore needs every engine→program interaction from
    /// t = 0; there is no way to start recording mid-run).
    ///
    /// # Panics
    /// Panics if programs have already started.
    pub fn enable_journal(&mut self) {
        assert!(
            self.cpus.iter().all(|c| !c.started),
            "enable_journal must precede World::run"
        );
        self.journal = Some(vec![Vec::new(); self.cfg.procs]);
    }

    /// Run `sink` after every `every`-th dispatched event. The sink
    /// typically calls [`World::take_snapshot`] and writes the result
    /// somewhere durable; the engine itself performs no IO. Requires
    /// [`World::enable_journal`]. Taking a snapshot never perturbs the
    /// simulation — a checkpointed run stays byte-identical to a plain
    /// one.
    ///
    /// # Panics
    /// Panics if `every` is zero or the journal is not enabled.
    pub fn set_checkpoint(&mut self, every: u64, sink: Box<dyn FnMut(&World)>) {
        assert!(every > 0, "checkpoint interval must be positive");
        assert!(
            self.journal.is_some(),
            "set_checkpoint requires enable_journal"
        );
        self.checkpoint_every = Some(every);
        self.checkpoint_sink = Some(sink);
    }

    /// Events dispatched so far (the checkpoint cadence counter).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Processor `p`'s shared-memory space (inspection after a run).
    pub fn space(&self, p: usize) -> &Arc<NodeSpace> {
        &self.spaces[p]
    }

    /// Diagnostic: (total wait, count) per blocking-op kind
    /// [locks, faults, barriers, receives].
    pub fn wait_stats(&self) -> [(SimTime, u64); 4] {
        self.wait_stats
    }

    /// Allocate shared memory (whole pages, zero-filled, homes assigned
    /// round-robin). Must be called before [`World::run`].
    pub fn alloc(&mut self, bytes: usize) -> VAddr {
        let pages = bytes.div_ceil(self.cfg.page_bytes).max(1);
        let procs = self.cfg.procs;
        let first = self.next_page as usize;
        self.alloc_pages(pages, move |i| (first + i) % procs)
    }

    /// Allocate shared memory with explicit page placement: `home(i)` gives
    /// the owning processor of the `i`-th page of this allocation. Matches
    /// the first-touch placement a real DSM would produce, which keeps
    /// initialisation local (and is what the paper's applications see).
    pub fn alloc_with_homes(&mut self, bytes: usize, home: impl Fn(usize) -> usize) -> VAddr {
        let pages = bytes.div_ceil(self.cfg.page_bytes).max(1);
        self.alloc_pages(pages, home)
    }

    fn alloc_pages(&mut self, pages: usize, home: impl Fn(usize) -> usize) -> VAddr {
        let first = self.next_page;
        self.next_page += pages as u32;
        for (i, pg) in (first..self.next_page).enumerate() {
            let page = PageId(pg);
            let owner = ProcId((home(i) % self.cfg.procs) as u32);
            for d in &mut self.dsm {
                d.set_home(page, owner);
            }
            self.dsm[owner.0 as usize].init_home_page(page);
        }
        VAddr::of_page(PageId(first), self.cfg.page_bytes)
    }

    /// Run one program per processor to completion; returns the
    /// measurements. A `World` is single-shot: allocations and protocol
    /// state belong to exactly one run.
    ///
    /// # Panics
    /// Panics if called twice, if the programs deadlock (no runnable
    /// events while programs are unfinished), or if they violate the DSM
    /// locking discipline.
    pub fn run(&mut self, programs: Vec<Program>) -> RunReport {
        assert_eq!(programs.len(), self.cfg.procs, "one program per processor");
        assert!(
            self.cpus.iter().all(|c| !c.started),
            "World::run is single-shot; build a fresh World for another run"
        );
        self.live = programs.len();
        self.spawn_threads(programs);
        // All processors wake at time zero: one bulk insert, tie-broken by
        // sequence number exactly as the per-call path would be.
        self.q
            .schedule_batch_at(SimTime::ZERO, (0..self.cfg.procs).map(Ev::Resume));
        if self.trace.is_enabled() {
            if let Some(iv) = self.metrics_interval {
                self.q.schedule_at(SimTime::ZERO + iv, Ev::MetricsTick);
            }
        }
        self.run_loop();
        assert_eq!(
            self.live, 0,
            "simulation ran out of events with {} programs unfinished (deadlock)",
            self.live
        );
        self.report()
    }

    /// Spawn one co-thread per program. Shared by [`World::run`] and the
    /// checkpoint-restore path, which re-runs the same programs on fresh
    /// co-threads and replays the journal into them.
    pub(crate) fn spawn_threads(&mut self, programs: Vec<Program>) {
        let costs = AccessCosts {
            read: self.cfg.costs.shared_read_cycles,
            write: self.cfg.costs.shared_write_cycles,
        };
        let procs = self.cfg.procs as u32;
        let pages = self.next_page as usize;
        for (p, prog) in programs.into_iter().enumerate() {
            let space = self.spaces[p].clone();
            let me = p as u32;
            let mut thread = CoThread::spawn(&format!("cpu{p}"), move |port| {
                let mut ctx = ProcCtx::new(me, procs, costs, space, pages, port);
                prog(&mut ctx);
                ctx.finish();
            });
            thread.set_trace(self.trace.clone(), me);
            self.cpus[p].thread = Some(thread);
        }
    }

    /// Dispatch events until every program finishes (or the queue runs
    /// dry), taking a checkpoint after every `checkpoint_every`-th event
    /// when configured. Checkpoints run *between* dispatches, when every
    /// co-thread is parked at a yield and the engine state is quiescent.
    /// Drive the run to completion on whichever engine the configuration
    /// selects: the serial event loop, or — when more than one engine
    /// worker is requested and the run is eligible (no live trace, no
    /// checkpoint cadence) — the conservative lookahead-based parallel
    /// executor (DESIGN.md §4.11). Both produce byte-identical results.
    pub(crate) fn run_loop(&mut self) {
        if self.pdes_eligible() {
            self.run_pdes();
        } else {
            self.event_loop();
        }
    }

    /// Whether this run may use the parallel executor: the operator asked
    /// for more than one worker, there are at least two shards to spread,
    /// and nothing serial-only is active. Live tracing observes engine
    /// internals mid-window and checkpoint cadences count dispatches
    /// between pops, so both pin the run to the serial loop.
    fn pdes_eligible(&self) -> bool {
        self.cfg.engine_workers > 1
            && self.cfg.procs >= 2
            && !self.trace.is_enabled()
            && self.checkpoint_every.is_none()
    }

    pub(crate) fn event_loop(&mut self) {
        while let Some((t, ev)) = self.q.pop() {
            self.dispatch(t, ev);
            self.events_dispatched += 1;
            if let Some(every) = self.checkpoint_every {
                if self.events_dispatched.is_multiple_of(every) {
                    // Take the sink out while it borrows the world.
                    if let Some(mut sink) = self.checkpoint_sink.take() {
                        sink(self);
                        self.checkpoint_sink = Some(sink);
                    }
                }
            }
            if self.live == 0 && self.q.is_empty() {
                break;
            }
        }
    }

    pub(crate) fn dispatch(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Resume(p) => self.resume(p, Reply::Ok),
            Ev::Xmit { src, msg, cause } => {
                self.transport(src, msg, TxOrigin::Board, t, cause);
            }
            Ev::XmitApp {
                src,
                dst,
                len,
                page,
                cacheable,
                data,
                cause,
            } => self.xmit_app(t, src, dst, len, page, cacheable, data, cause),
            Ev::Proto { msg, span } => self.arrive_proto(t, msg, span),
            Ev::App {
                dst,
                src,
                len,
                page,
                cacheable,
                data,
                span,
            } => self.arrive_app(t, dst, src, len, page, cacheable, data, span),
            Ev::Wake { p, overhead } => self.wake(t, p, overhead),
            Ev::MetricsTick => self.metrics_tick(t),
            Ev::FrameRx {
                src,
                dst,
                seq,
                cells,
                span,
                frag,
                sent_at,
            } => self.on_frame_rx(t, src, dst, seq, cells, span, frag, sent_at),
            Ev::AckRx {
                to,
                from,
                ack,
                cells,
                span,
            } => self.on_ack_rx(t, to, from, ack, cells, span),
            Ev::RxmitTimer { src, dst, gen } => self.on_rxmit_timer(t, src, dst, gen),
            Ev::RingRelease { dst } => {
                self.ring_used[dst] = self.ring_used[dst].saturating_sub(1);
            }
        }
    }

    /// Cumulative counters for node `p`, in [`MetricsSample`] shape
    /// (`interval_ps` left zero; the tick computes deltas).
    fn cumulative_sample(&self, p: usize) -> MetricsSample {
        let n = self.nics[p].stats();
        let d = self.dsm[p].stats();
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

    /// Emit one [`TraceEvent::Metrics`] delta and one
    /// [`TraceEvent::UtilNode`] gauge per node (plus the engine-wide
    /// [`TraceEvent::UtilQueue`] depth) and reschedule the next tick
    /// while any program is still running.
    fn metrics_tick(&mut self, t: SimTime) {
        let interval = self.metrics_interval.expect("tick without interval");
        for p in 0..self.cfg.procs {
            let cur = self.cumulative_sample(p);
            let delta = cur.delta_from(&self.metrics_prev[p], interval.as_ps());
            self.metrics_prev[p] = cur;
            self.trace
                .emit_at(t.as_ps(), p as u32, TraceEvent::Metrics(delta));
            let busy = self.nics[p].busy_time().as_ps();
            let (ing, eg) = self.fabric.link_busy(p);
            let (ing, eg) = (ing.as_ps(), eg.as_ps());
            let prev = self.util_prev[p];
            self.trace.emit_at(
                t.as_ps(),
                p as u32,
                TraceEvent::UtilNode {
                    busy_ps: busy - prev.0,
                    ingress_ps: ing - prev.1,
                    egress_ps: eg - prev.2,
                    ring_hw: self.ring_hw[p],
                    interval_ps: interval.as_ps(),
                },
            );
            self.util_prev[p] = (busy, ing, eg);
            self.ring_hw[p] = self.ring_used[p];
        }
        self.trace.emit_at(
            t.as_ps(),
            cni_trace::NO_NODE,
            TraceEvent::UtilQueue {
                depth: self.q.len() as u32,
            },
        );
        if self.live > 0 {
            self.q.schedule_at(t + interval, Ev::MetricsTick);
        }
    }

    // --- span plumbing ----------------------------------------------------

    /// Allocate the next span id, or 0 when tracing is disabled. Ids are
    /// assigned in deterministic event order and are only observable
    /// through the trace, so the disabled-path short-circuit cannot
    /// perturb simulation timing.
    fn alloc_span(&mut self) -> u64 {
        if !self.trace.is_enabled() {
            return 0;
        }
        self.next_span += 1;
        self.next_span
    }

    /// Open a span: one message, frame or acknowledgement entering its
    /// lifecycle at `at`.
    #[allow(clippy::too_many_arguments)]
    fn open_span(
        &mut self,
        at: SimTime,
        parent: u64,
        class: u8,
        kind: u8,
        src: usize,
        dst: usize,
        bytes: usize,
    ) -> u64 {
        let span = self.alloc_span();
        self.trace.emit_at(
            at.as_ps(),
            src as u32,
            TraceEvent::SpanOpen {
                span,
                parent,
                class,
                kind,
                src: src as u32,
                dst: dst as u32,
                bytes: bytes as u32,
            },
        );
        span
    }

    /// Record the receive-side stage durations of `span` from the NIC's
    /// receive-path timestamps. Runs on the protocol receive path, so it
    /// must stay free of panicking operators (`cni-lint` P1 enforces
    /// this).
    fn record_rx_span(&self, dst: u32, arrival: SimTime, span: u64, rx: &cni_nic::RxPath) {
        self.trace.emit_at(
            rx.ready_at.as_ps(),
            dst,
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
    fn close_span(&self, at: SimTime, node: u32, span: u64) {
        self.trace
            .emit_at(at.as_ps(), node, TraceEvent::SpanClose { span });
    }

    pub(crate) fn report(&self) -> RunReport {
        let wall = self
            .cpus
            .iter()
            .map(|c| c.clock)
            .fold(SimTime::ZERO, SimTime::max);
        let latency = self
            .latency
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(i, h)| KindLatency {
                kind: if i < 9 { 0xD0 + i as u8 } else { 0xA0 },
                count: h.count(),
                mean_us: h.mean() / 1e3,
                p50_us: h.percentile(50.0) / 1e3,
                p99_us: h.percentile(99.0) / 1e3,
            })
            .collect();
        let latency_hist = self
            .latency
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(i, h)| KindHistogram {
                kind: if i < 9 { 0xD0 + i as u8 } else { 0xA0 },
                hist: h.clone(),
            })
            .collect();
        RunReport {
            version: REPORT_VERSION,
            wall,
            procs: self
                .cpus
                .iter()
                .map(|c| ProcTimes {
                    compute: c.compute,
                    overhead: c.overhead,
                    delay: c.delay,
                    total: c.clock,
                })
                .collect(),
            nic: self.nics.iter().map(|n| n.stats()).collect(),
            msg_cache: self.nics.iter().map(|n| n.msg_cache_stats()).collect(),
            dsm: self.dsm.iter().map(|d| d.stats()).collect(),
            messages: self.proto_messages,
            msg_kinds: self.msg_kinds,
            latency,
            latency_hist,
            trace: self.trace.summary(),
            faults: {
                let mut f = self.rel_stats;
                if let Some(inj) = &self.injector {
                    f.merge(&inj.stats());
                }
                f.crc_failures = self
                    .nics
                    .iter()
                    .map(|n| n.stats().rx_crc_failures)
                    .sum::<u64>();
                f
            },
            stages: None,
        }
    }

    // --- time helpers -----------------------------------------------------

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

    /// Add deterministic jitter of up to ~6% to a protocol-handling cycle
    /// count, drawn from node `p`'s private stream so concurrent shards
    /// never race on a shared generator.
    fn jittered(&mut self, p: usize, cycles: u64) -> u64 {
        cycles + self.jitter[p].next_below(cycles / 16 + 1)
    }

    /// Charge host overhead synchronously on `p`'s clock.
    fn charge_ov(&mut self, p: usize, cycles: u64) {
        let dt = self.host(cycles);
        self.cpus[p].clock += dt;
        self.cpus[p].overhead += dt;
    }

    // --- program-side event handling ----------------------------------------

    /// Record a journal entry for processor `p` when journalling is on.
    #[inline]
    fn journal_push(&mut self, p: usize, e: JEntry) {
        if let Some(j) = &mut self.journal {
            j[p].push(e);
        }
    }

    fn resume(&mut self, p: usize, reply: Reply) {
        if let Some(j) = &mut self.journal {
            j[p].push(JEntry::Resume(reply.clone()));
        }
        let y = {
            let cpu = &mut self.cpus[p];
            let thread = cpu.thread.as_mut().expect("resume of dead cpu");
            if !cpu.started {
                cpu.started = true;
                thread.start()
            } else {
                thread.resume(reply)
            }
        };
        match y {
            Yield::Finished => {
                self.cpus[p].thread = None;
            }
            Yield::Request(ym) => {
                let comp = self.host(ym.pending_cycles);
                let stolen = std::mem::take(&mut self.cpus[p].stolen);
                {
                    let cpu = &mut self.cpus[p];
                    cpu.clock += comp;
                    cpu.compute += comp;
                    cpu.clock += stolen;
                    cpu.overhead += stolen;
                }
                self.handle_op(p, ym.op);
            }
        }
    }

    /// Re-drive processor `p`'s co-thread and DSM node through a recorded
    /// journal, reconstructing their unserialisable state (thread stack,
    /// page maps, directory, twins) without touching the event queue or
    /// any timing counter.
    ///
    /// `Resume` entries feed the co-thread the exact replies the original
    /// run produced; the yields that come back are *discarded* (the
    /// original run already turned them into events, which live in the
    /// snapshot's queue). `ReadFault`/`WriteFault`/`Acquire`/`Release`/
    /// `Barrier`/`Message` entries re-execute the corresponding DSM
    /// call, discarding its outputs for the same reason — only the side
    /// effects on the node's protocol state matter. Per-node replay is
    /// sufficient because `DsmNode` and `NodeSpace` are per-node: nodes
    /// interact only through messages, which are themselves journaled.
    pub(crate) fn replay_node(&mut self, p: usize, entries: &[JEntry]) -> Result<(), String> {
        for (i, e) in entries.iter().enumerate() {
            match e {
                JEntry::Resume(reply) => {
                    let y = {
                        let cpu = &mut self.cpus[p];
                        let thread = cpu.thread.as_mut().ok_or_else(|| {
                            format!("journal entry {i} resumes processor {p} after its program finished")
                        })?;
                        if !cpu.started {
                            cpu.started = true;
                            thread.start()
                        } else {
                            thread.resume(reply.clone())
                        }
                    };
                    if matches!(y, Yield::Finished) {
                        self.cpus[p].thread = None;
                    }
                }
                JEntry::ReadFault(pg) => {
                    let _ = self.dsm[p].on_read_fault(PageId(*pg));
                }
                JEntry::WriteFault(pg) => {
                    let _ = self.dsm[p].on_write_fault(PageId(*pg));
                }
                JEntry::Acquire(l) => {
                    let _ = self.dsm[p].on_acquire(LockId(*l));
                }
                JEntry::Release(l) => {
                    let _ = self.dsm[p].on_release(LockId(*l));
                }
                JEntry::Barrier => {
                    let _ = self.dsm[p].on_barrier();
                }
                JEntry::Message(m) => {
                    let _ = self.dsm[p].on_message(m.clone());
                }
            }
        }
        Ok(())
    }

    fn handle_op(&mut self, p: usize, op: Op) {
        match op {
            Op::ReadFault(page) => {
                self.charge_ov(p, self.cfg.costs.fault_trap_cycles);
                self.cpus[p].blocked_kind = 1;
                self.cpus[p].blocked_detail = page.0 as u64;
                self.journal_push(p, JEntry::ReadFault(page.0));
                let res = self.dsm[p].on_read_fault(page);
                self.apply_sync_result(p, res, true);
            }
            Op::WriteFault(page) => {
                self.charge_ov(p, self.cfg.costs.fault_trap_cycles);
                self.cpus[p].blocked_kind = 1;
                self.cpus[p].blocked_detail = 0x1_0000_0000 | page.0 as u64;
                self.journal_push(p, JEntry::WriteFault(page.0));
                let res = self.dsm[p].on_write_fault(page);
                self.apply_sync_result(p, res, true);
            }
            Op::Acquire(l) => {
                self.charge_ov(p, self.cfg.costs.lock_op_cycles);
                self.cpus[p].blocked_kind = 0;
                self.cpus[p].blocked_detail = l.0 as u64;
                self.journal_push(p, JEntry::Acquire(l.0));
                let res = self.dsm[p].on_acquire(l);
                self.apply_sync_result(p, res, true);
            }
            Op::Release(l) => {
                self.charge_ov(p, self.cfg.costs.lock_op_cycles);
                self.journal_push(p, JEntry::Release(l.0));
                let res = self.dsm[p].on_release(l);
                self.apply_sync_result(p, res, false);
            }
            Op::Barrier => {
                self.charge_ov(p, self.cfg.costs.barrier_op_cycles);
                self.cpus[p].blocked_kind = 2;
                self.journal_push(p, JEntry::Barrier);
                let res = self.dsm[p].on_barrier();
                self.apply_sync_result(p, res, true);
            }
            Op::SendTo {
                dst,
                len,
                page,
                cacheable,
                dirty_lines,
                data,
            } => {
                self.charge_ov(p, self.host_send_cycles());
                if dirty_lines > 0 {
                    // Write-back flush so the board sees a consistent
                    // buffer; the snooper applies the flushed writes.
                    let now = self.cpus[p].clock;
                    let x = self.nics[p].bus.flush_lines(
                        now,
                        dirty_lines as u64,
                        self.cfg.nic.cache_line_bytes,
                    );
                    let dt = x.end - now;
                    self.cpus[p].clock = x.end;
                    self.cpus[p].overhead += dt;
                    if let Some(pg) = page {
                        self.nics[p].snoop_write(pg);
                    }
                }
                let at = self.cpus[p].clock;
                let cause = self.cpus[p].last_wake_span;
                self.sched(
                    p,
                    at,
                    Ev::XmitApp {
                        src: p,
                        dst: dst as usize,
                        len,
                        page,
                        cacheable,
                        data,
                        cause,
                    },
                );
                self.sched(p, at, Ev::Resume(p));
            }
            Op::Backoff(cycles) => {
                self.charge_ov(p, cycles);
                let at = self.cpus[p].clock;
                self.sched(p, at, Ev::Resume(p));
            }
            Op::Recv => {
                if let Some((src, len, data)) = self.cpus[p].inbox.pop_front() {
                    self.charge_ov(p, self.cfg.nic.poll_cycles);
                    let at = self.cpus[p].clock;
                    self.cpus[p].pending_reply = Some(Reply::Received { src, len, data });
                    self.sched(
                        p,
                        at,
                        Ev::Wake {
                            p,
                            overhead: SimTime::ZERO,
                        },
                    );
                    // Mark as "blocked" for zero time so Wake's accounting
                    // balances.
                    self.cpus[p].blocked_at = Some(at);
                } else {
                    self.cpus[p].waiting_recv = true;
                    self.cpus[p].blocked_kind = 3;
                    self.cpus[p].blocked_at = Some(self.cpus[p].clock);
                }
            }
            Op::Done => {
                self.cpus[p].done = true;
                // `live` is a global counter: route the decrement through
                // the commit path so a parallel window applies it serially.
                self.emit_send(p, SendIntent::Stat(StatDelta::ProcDone));
                // Let the co-thread run to completion.
                self.resume(p, Reply::Ok);
            }
        }
    }

    /// Apply a protocol result produced synchronously by processor `p`'s
    /// own operation: charge its work and flushes to `p`, transmit its
    /// messages host-initiated, and either resume or block `p`.
    fn apply_sync_result(&mut self, p: usize, res: HandleResult, blocking: bool) {
        // Data-movement labour only: the base per-operation cost was
        // already charged by the caller (fault trap / lock op / barrier
        // op), so don't re-add msg_base here.
        let c = &self.cfg.costs;
        let w = &res.work;
        let labour = c.per_word_cycles
            * (w.twin_words + w.diff_scan_words + w.diff_words + w.page_copy_words)
            + c.per_notice_cycles * w.notices;
        self.charge_ov(p, labour);
        self.charge_flushes(p, &res.flushed);
        for m in res.out {
            self.send_proto_sync(p, m);
        }
        if res.wakeup.is_some() || !blocking {
            let at = self.cpus[p].clock;
            self.sched(p, at, Ev::Resume(p));
        } else {
            self.cpus[p].blocked_at = Some(self.cpus[p].clock);
        }
    }

    /// Flush dirty lines over the bus (the releasing CPU stalls for the
    /// write-backs) and feed the flushed pages to the snooper.
    fn charge_flushes(&mut self, p: usize, flushed: &[(PageId, u64)]) {
        if flushed.is_empty() {
            return;
        }
        let line_bytes = self.cfg.nic.cache_line_bytes;
        let total: u64 = flushed.iter().map(|&(_, l)| l).sum();
        let now = self.cpus[p].clock;
        let x = self.nics[p].bus.flush_lines(now, total, line_bytes);
        for &(page, _) in flushed {
            self.nics[p].snoop_write(page.0 as u64);
        }
        let dt = x.end - now;
        self.cpus[p].clock = x.end;
        self.cpus[p].overhead += dt;
    }

    /// Host cycles to hand one message to the NIC (kernel entry on the
    /// standard interface, a user-level ADC enqueue on the CNI).
    fn host_send_cycles(&self) -> u64 {
        match self.cfg.nic_kind {
            NicKind::Standard => self.cfg.nic.kernel_send_cycles,
            NicKind::Cni => self.cfg.nic.adc_enqueue_cycles,
        }
    }

    /// Transmit a protocol message initiated by `p`'s own (synchronous)
    /// operation: the host-side cost advances `p`'s clock now; the
    /// NIC-side work runs as an [`Ev::Xmit`] at that time. The send's
    /// span parent is whatever span last woke `p` — program-order
    /// causality.
    fn send_proto_sync(&mut self, p: usize, msg: Msg) {
        self.charge_ov(p, self.host_send_cycles());
        let at = self.cpus[p].clock;
        let cause = self.cpus[p].last_wake_span;
        self.sched(p, at, Ev::Xmit { src: p, msg, cause });
    }

    // --- effect routing (serial vs parallel engine) ---------------------------

    /// Schedule `ev`, acting as `node`. On the serial path this is plain
    /// `schedule_at`; while the parallel engine dispatches a window the
    /// schedule is captured in `node`'s shard buffer and applied by the
    /// replay barrier with an identically allocated sequence number.
    fn sched(&mut self, node: usize, at: SimTime, ev: Ev) {
        if self.pdes.active {
            self.pdes.out[node].push(PdesOut::Local(at, ev));
        } else {
            self.q.schedule_at(at, ev);
        }
    }

    /// Route a send intent produced while acting as node `src`: committed
    /// immediately on the serial path, deferred to the replay barrier
    /// under the parallel engine.
    fn emit_send(&mut self, src: usize, intent: SendIntent) {
        if self.pdes.active {
            self.pdes.out[src].push(PdesOut::Send(intent));
        } else {
            self.commit_send(intent);
        }
    }

    /// Schedule a cross-shard arrival from a commit. Under the parallel
    /// engine every arrival must land at or past the window horizon — the
    /// conservative-lookahead contract (see [`crate::pdes`]); a violation
    /// means the configured lookahead overstates the fabric's minimum
    /// cross-node latency and the run must die loudly, not corrupt the
    /// order.
    fn sched_arrival(&mut self, at: SimTime, ev: Ev) {
        // cni-lint: allow(panic-path) -- the horizon is engine configuration, not wire data: a violation means the lookahead constant is wrong and every parallel run is unsound
        assert!(
            !self.pdes.active || at >= self.pdes.horizon,
            "lookahead violation: arrival at {at:?} inside the window horizon {:?}",
            self.pdes.horizon,
        );
        self.q.schedule_at(at, ev);
    }

    /// Apply one [`SendIntent`]: the serial half of a send. Besides the
    /// serial event loop itself, this is the only place that touches the
    /// fabric's link state, the fault injector, the global queue and the
    /// global counters — under the parallel engine it runs exclusively on
    /// the coordinating thread, in exact serial dispatch order.
    pub(crate) fn commit_send(&mut self, intent: SendIntent) {
        match intent {
            SendIntent::Proto {
                src,
                msg,
                span,
                now,
                host_done,
                wire_start,
                cell_gap,
            } => {
                let dst = msg.dst.0 as usize;
                let bytes = msg.payload.wire_bytes();
                let kind = msg.payload.kind();
                let timing = self.fabric.send_pdu(wire_start, src, dst, bytes, cell_gap);
                let lat = timing.last_cell_arrival - now;
                self.latency[(kind - 0xD0) as usize].record(lat.as_ps() / 1000);
                self.trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::ProtoTx {
                        kind,
                        bytes: bytes as u32,
                        dur_ps: lat.as_ps(),
                    },
                );
                self.trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::SpanTx {
                        span,
                        host_dma_ps: host_done.saturating_sub(now).as_ps(),
                        tx_queue_ps: wire_start.saturating_sub(host_done).as_ps(),
                        wire_ps: timing.last_cell_arrival.saturating_sub(wire_start).as_ps(),
                    },
                );
                self.sched_arrival(timing.last_cell_arrival, Ev::Proto { msg, span });
                self.proto_messages += 1;
                self.msg_kinds[(kind - 0xD0) as usize] += 1;
            }
            SendIntent::App {
                src,
                dst,
                len,
                page,
                cacheable,
                data,
                span,
                now,
                host_done,
                wire_start,
                cell_gap,
            } => {
                let timing = self
                    .fabric
                    .send_pdu(wire_start, src, dst, len as usize, cell_gap);
                let lat = timing.last_cell_arrival - now;
                self.latency[9].record(lat.as_ps() / 1000);
                self.trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::ProtoTx {
                        kind: 0xA0,
                        bytes: len,
                        dur_ps: lat.as_ps(),
                    },
                );
                self.trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::SpanTx {
                        span,
                        host_dma_ps: host_done.saturating_sub(now).as_ps(),
                        tx_queue_ps: wire_start.saturating_sub(host_done).as_ps(),
                        wire_ps: timing.last_cell_arrival.saturating_sub(wire_start).as_ps(),
                    },
                );
                self.sched_arrival(
                    timing.last_cell_arrival,
                    Ev::App {
                        dst,
                        src,
                        len,
                        page,
                        cacheable,
                        data,
                        span,
                    },
                );
            }
            SendIntent::Frame {
                src,
                dst,
                seq,
                frag,
                sent_at,
                prefix,
                prefix_len,
                bytes,
                span,
                now,
                host_done,
                wire_start,
                cell_gap,
            } => {
                // Data frames travel on VCI `src * 2`; acknowledgements on
                // `src * 2 + 1`, so a retransmission can never interleave
                // with the reverse stream inside the destination's per-VCI
                // reassembler.
                let vci = (src * 2) as u16;
                let (cells, done) = self.commit_faulty(
                    src,
                    dst,
                    vci,
                    &prefix[..prefix_len as usize],
                    bytes as usize,
                    span,
                    now,
                    host_done,
                    wire_start,
                    cell_gap,
                );
                if let Some(arrival) = done {
                    self.trace.emit_at(
                        arrival.as_ps(),
                        src as u32,
                        TraceEvent::ProtoTx {
                            kind: prefix[0],
                            bytes,
                            dur_ps: (arrival - now).as_ps(),
                        },
                    );
                    self.sched_arrival(
                        arrival,
                        Ev::FrameRx {
                            src,
                            dst,
                            seq,
                            cells,
                            span,
                            frag,
                            sent_at,
                        },
                    );
                }
            }
            SendIntent::Ack {
                from,
                to,
                ack,
                image,
                span,
                now,
                host_done,
                wire_start,
                cell_gap,
            } => {
                self.rel_stats.acks_sent += 1;
                let vci = (from * 2 + 1) as u16;
                let (cells, done) = self.commit_faulty(
                    from, to, vci, &image, 16, span, now, host_done, wire_start, cell_gap,
                );
                if let Some(arrival) = done {
                    self.sched_arrival(
                        arrival,
                        Ev::AckRx {
                            to,
                            from,
                            ack,
                            cells,
                            span,
                        },
                    );
                }
            }
            SendIntent::Stat(delta) => self.commit_stat(delta),
        }
    }

    /// The serial half of a faulty-fabric frame transmission: segment the
    /// image, draw the injector's per-cell fates, occupy the fabric, and
    /// return the surviving cells plus the reassembly-complete time (the
    /// NIC-side transmit already ran on the acting shard — its timings
    /// arrive as `host_done`/`wire_start`/`cell_gap`).
    #[allow(clippy::too_many_arguments)]
    fn commit_faulty(
        &mut self,
        src: usize,
        dst: usize,
        vci: u16,
        prefix: &[u8],
        bytes: usize,
        span: u64,
        now: SimTime,
        host_done: SimTime,
        wire_start: SimTime,
        cell_gap: SimTime,
    ) -> (Vec<Cell>, Option<SimTime>) {
        let cells = self.fabric.segmenter().segment_prefixed(vci, prefix, bytes);
        let inj = self
            .injector
            .as_mut()
            // cni-lint: allow(panic-path) -- frame intents are only emitted behind an injector.is_some() check; this Option is engine state, not wire data
            .expect("fault transmit needs an injector");
        let fpt = self
            .fabric
            .send_pdu_faulty(wire_start, src, dst, bytes, cell_gap, inj);
        debug_assert_eq!(fpt.cells, cells.len());
        let mut delivered = Vec::with_capacity(cells.len());
        for (i, mut cell) in cells.into_iter().enumerate() {
            match fpt.fates[i] {
                CellFate::Drop => {
                    self.trace.emit_at(
                        now.as_ps(),
                        src as u32,
                        TraceEvent::CellDropped {
                            vci: vci as u32,
                            cell: i as u32,
                        },
                    );
                    continue;
                }
                CellFate::Corrupt { byte, bit } => {
                    // Copy-on-write: only this cell's view materialises a
                    // private copy; the train's other cells keep sharing
                    // the segmented image.
                    cell.payload.xor_bit(byte as usize, bit);
                }
                CellFate::Deliver => {}
            }
            delivered.push(cell);
        }
        let done = if fpt.eop_delivered() {
            fpt.last_delivered
        } else {
            None
        };
        if let Some(arrival) = done {
            self.trace.emit_at(
                arrival.as_ps(),
                src as u32,
                TraceEvent::SpanTx {
                    span,
                    host_dma_ps: host_done.saturating_sub(now).as_ps(),
                    tx_queue_ps: wire_start.saturating_sub(host_done).as_ps(),
                    wire_ps: arrival.saturating_sub(wire_start).as_ps(),
                },
            );
        }
        (delivered, done)
    }

    /// Apply one recorded global-counter delta.
    fn commit_stat(&mut self, delta: StatDelta) {
        match delta {
            StatDelta::ProtoMsg { kind } => {
                self.proto_messages += 1;
                self.msg_kinds[(kind - 0xD0) as usize] += 1;
            }
            StatDelta::Latency { idx, us } => self.latency[idx].record(us),
            StatDelta::Duplicate => self.rel_stats.duplicates += 1,
            StatDelta::RingOverflow => self.rel_stats.ring_overflows += 1,
            StatDelta::FastRetransmit => self.rel_stats.fast_retransmits += 1,
            StatDelta::Retransmit => self.rel_stats.retransmits += 1,
            StatDelta::Timeout => self.rel_stats.timeouts += 1,
            StatDelta::Wait { kind, raw } => {
                let slot = &mut self.wait_stats[kind];
                slot.0 += raw;
                slot.1 += 1;
            }
            StatDelta::ProcDone => self.live -= 1,
        }
    }

    /// Push `msg` through `src`'s NIC and the fabric; the host-side part
    /// finishes at `now` for board-origin sends.
    /// Opens the message's span as a child of `cause`.
    fn transport(&mut self, src: usize, msg: Msg, origin: TxOrigin, now: SimTime, cause: u64) {
        let dst = msg.dst.0 as usize;
        debug_assert_ne!(src, dst, "protocol self-sends are handled locally");
        let bytes = msg.payload.wire_bytes();
        let kind = msg.payload.kind();
        let span = self.open_span(now, cause, cni_trace::SPAN_MSG, kind, src, dst, bytes);
        if self.injector.is_some() {
            debug_assert_eq!(origin, TxOrigin::Board);
            self.queue_reliable(now, src, dst, WireMsg::Proto(msg), span);
            return;
        }
        let cells = self.fabric.segmenter().cell_count(bytes);
        let tx = self.nics[src].transmit(
            now,
            &TxRequest {
                len: bytes,
                cells,
                page: msg.payload.page_payload().map(|p| p.0 as u64),
                cacheable: msg.payload.cacheable(),
                dirty_lines: 0,
                origin,
            },
        );
        self.emit_send(
            src,
            SendIntent::Proto {
                src,
                msg,
                span,
                now,
                host_done: tx.host_done,
                wire_start: tx.wire_start,
                cell_gap: tx.cell_gap,
            },
        );
    }

    // --- network-side event handling -----------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn xmit_app(
        &mut self,
        t: SimTime,
        src: usize,
        dst: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
        cause: u64,
    ) {
        let span = self.open_span(t, cause, cni_trace::SPAN_MSG, 0xA0, src, dst, len as usize);
        if self.injector.is_some() {
            let wire = WireMsg::App {
                src,
                dst,
                len,
                page,
                cacheable,
                data,
            };
            self.queue_reliable(t, src, dst, wire, span);
            return;
        }
        let cells = self.fabric.segmenter().cell_count(len as usize);
        let tx = self.nics[src].transmit(
            t,
            &TxRequest {
                len: len as usize,
                cells,
                page,
                cacheable,
                dirty_lines: 0,
                origin: TxOrigin::Board,
            },
        );
        self.emit_send(
            src,
            SendIntent::App {
                src,
                dst,
                len,
                page,
                cacheable,
                data,
                span,
                now: t,
                host_done: tx.host_done,
                wire_start: tx.wire_start,
                cell_gap: tx.cell_gap,
            },
        );
    }

    // --- reliable-delivery layer (active only under a fault plan) ------------

    /// The `src -> dst` go-back-N transmit channel, materialised on first
    /// use. Access is always by key — channel state never depends on what
    /// other channels exist — so lazy creation is timing-neutral and a
    /// lossless run allocates nothing here.
    fn chan_tx(&mut self, src: usize, dst: usize) -> &mut ChanTx {
        let rto0 = self.rel_rto0;
        self.rel_tx[src]
            .entry(dst as u32)
            .or_insert_with(|| ChanTx::new(rto0))
    }

    /// The `dst <- src` receive channel, materialised on first use.
    fn chan_rx(&mut self, dst: usize, src: usize) -> &mut ChanRx {
        self.rel_rx[dst]
            .entry(src as u32)
            .or_insert(ChanRx { expected: 0 })
    }

    /// Hand a logical message to the `src -> dst` go-back-N channel: send
    /// it immediately if the window has room, park it otherwise. `span`
    /// is the message span every fragment carries; each wire attempt
    /// opens a frame span under it.
    fn queue_reliable(&mut self, now: SimTime, src: usize, dst: usize, wire: WireMsg, span: u64) {
        if let WireMsg::Proto(msg) = &wire {
            let kind = msg.payload.kind();
            self.emit_send(src, SendIntent::Stat(StatDelta::ProtoMsg { kind }));
        }
        let total = wire_len(&wire).max(1);
        let fmax = self.cfg.faults.max_frame_bytes as usize;
        let nfrags = total.div_ceil(fmax) as u32;
        let cap = self.cfg.faults.window as usize;
        let wire = Arc::new(wire);
        let mut armed = false;
        for i in 0..nfrags {
            let bytes = if i + 1 < nfrags {
                fmax
            } else {
                total - fmax * (nfrags as usize - 1)
            } as u32;
            let frag = Frag {
                wire: wire.clone(),
                frag: i,
                nfrags,
                bytes,
                span,
            };
            let ch = self.chan_tx(src, dst);
            if ch.window.len() >= cap {
                ch.pending.push_back(frag);
                continue;
            }
            let seq = ch.next_seq;
            ch.next_seq += 1;
            let was_empty = ch.window.is_empty();
            let fspan = self.send_frame(now, src, dst, seq, &frag, now, span);
            let ch = self.chan_tx(src, dst);
            ch.window.push_back(InFlight {
                seq,
                frag: frag.clone(),
                attempts: 0,
                sent_at: now,
                span: fspan,
            });
            if was_empty && !armed {
                self.arm_timer(now, src, dst);
                armed = true;
            }
        }
    }

    /// Transmit one data frame: build its byte image (header, sequence
    /// number, zero fill), push it through the NIC, and emit the
    /// fabric-facing half as a [`SendIntent::Frame`] (which draws the
    /// injector fates and schedules the receive event if the end-of-PDU
    /// cell survives). `sent_at` is the fragment's *first* transmission
    /// time, carried to the receiver for one-way latency accounting.
    /// Opens a frame span under `parent` (the message span on a first
    /// attempt, the first attempt's frame span on a retransmission) and
    /// returns it.
    #[allow(clippy::too_many_arguments)]
    fn send_frame(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        seq: u64,
        frag: &Frag,
        sent_at: SimTime,
        parent: u64,
    ) -> u64 {
        let (header, page, cacheable) = match &*frag.wire {
            WireMsg::Proto(msg) => (
                msg.payload.header_bytes(msg.src),
                msg.payload.page_payload().map(|p| p.0 as u64),
                msg.payload.cacheable(),
            ),
            WireMsg::App {
                src: asrc,
                page,
                cacheable,
                ..
            } => {
                let mut h = [0u8; 8];
                h[0] = 0xA0;
                h[1] = *asrc as u8;
                (h, *page, *cacheable)
            }
        };
        // The host DMA / Message-Cache interaction belongs to the message,
        // not to each fragment: later fragments ship board-resident bytes.
        let (page, cacheable) = if frag.frag == 0 {
            (page, cacheable)
        } else {
            (None, false)
        };
        let bytes = frag.bytes as usize;
        // Only the first 16 bytes of a frame carry information (header +
        // little-endian sequence number); the rest is zero fill that the
        // segmenter materialises directly into the PDU image, so a
        // retransmission attempt no longer allocates and copies a
        // frame-sized scratch vector.
        let mut prefix = [0u8; 16];
        let hn = header.len().min(bytes);
        prefix[..hn].copy_from_slice(&header[..hn]);
        let end = bytes.min(16);
        if end > 8 {
            prefix[8..end].copy_from_slice(&seq.to_le_bytes()[..end - 8]);
        }
        let fspan = self.open_span(
            now,
            parent,
            cni_trace::SPAN_FRAME,
            header[0],
            src,
            dst,
            bytes,
        );
        let cells_n = self.fabric.segmenter().cell_count(bytes);
        let tx = self.nics[src].transmit(
            now,
            &TxRequest {
                len: bytes,
                cells: cells_n,
                page,
                cacheable,
                dirty_lines: 0,
                origin: TxOrigin::Board,
            },
        );
        self.emit_send(
            src,
            SendIntent::Frame {
                src,
                dst,
                seq,
                frag: frag.clone(),
                sent_at,
                prefix,
                prefix_len: end as u8,
                bytes: bytes as u32,
                span: fspan,
                now,
                host_done: tx.host_done,
                wire_start: tx.wire_start,
                cell_gap: tx.cell_gap,
            },
        );
        fspan
    }

    /// Restart the `src -> dst` retransmission timer (invalidating any
    /// previously armed one via the generation counter).
    fn arm_timer(&mut self, now: SimTime, src: usize, dst: usize) {
        let ch = self.chan_tx(src, dst);
        ch.timer_gen += 1;
        let (gen, rto, seq) = (ch.timer_gen, ch.rto, ch.base);
        self.sched(src, now + rto, Ev::RxmitTimer { src, dst, gen });
        self.trace.emit_at(
            now.as_ps(),
            src as u32,
            TraceEvent::RetransmitScheduled {
                seq,
                rto_ps: rto.as_ps(),
            },
        );
    }

    /// Invalidate the pending `src -> dst` timer (window fully acked).
    fn cancel_timer(&mut self, src: usize, dst: usize) {
        self.chan_tx(src, dst).timer_gen += 1;
    }

    /// Send a cumulative acknowledgement frame from `from` back to `to`:
    /// a real 16-byte PDU that itself crosses the faulty fabric. The ACK
    /// span is a child of `parent`, the frame span whose receipt (or
    /// rejection) provoked it.
    fn send_ack(&mut self, now: SimTime, from: usize, to: usize, ack: u64, parent: u64) {
        let mut image = [0u8; 16];
        image[0] = 0xF1;
        image[1] = from as u8;
        image[8..16].copy_from_slice(&ack.to_le_bytes());
        let aspan = self.open_span(now, parent, cni_trace::SPAN_ACK, 0xF1, from, to, 16);
        let tx = self.nics[from].transmit(
            now,
            &TxRequest {
                len: 16,
                cells: self.fabric.segmenter().cell_count(16),
                page: None,
                cacheable: false,
                dirty_lines: 0,
                origin: TxOrigin::Board,
            },
        );
        self.emit_send(
            from,
            SendIntent::Ack {
                from,
                to,
                ack,
                image,
                span: aspan,
                now,
                host_done: tx.host_done,
                wire_start: tx.wire_start,
                cell_gap: tx.cell_gap,
            },
        );
    }

    /// A data frame's surviving cells reached `dst`: reassemble and
    /// CRC-check them, suppress duplicates, admit in-order frames to the
    /// receive ring (drop-and-NAK when it is full) and dispatch the inner
    /// message exactly once. Every outcome is acknowledged — a corrupt or
    /// out-of-order frame re-acknowledges the current expectation, which
    /// doubles as a NAK for go-back-N.
    #[allow(clippy::too_many_arguments)]
    fn on_frame_rx(
        &mut self,
        t: SimTime,
        src: usize,
        dst: usize,
        seq: u64,
        cells: Vec<Cell>,
        span: u64,
        frag: Frag,
        sent_at: SimTime,
    ) {
        match self.nics[dst].ingest_frame(&cells) {
            Some(Ok(pdu)) => {
                // The frame's bytes are not consumed further (the typed
                // message rides in `Frag::wire`); hand the gather buffer
                // straight back to the NIC's pool.
                self.nics[dst].recycle_pdu(pdu);
            }
            Some(Err(_)) => {
                // The NIC counted the discard (and the CRC failure). The
                // frame span closes here: its lifecycle ended in
                // rejection, and the NAK it provokes is its child.
                self.close_span(t, dst as u32, span);
                let ack = self.chan_rx(dst, src).expected;
                self.send_ack(t, dst, src, ack, span);
                return;
            }
            // Unreachable in practice: FrameRx is only scheduled when the
            // end-of-PDU cell was delivered, which always completes a PDU.
            None => return,
        }
        self.close_span(t, dst as u32, span);
        let expected = self.chan_rx(dst, src).expected;
        if seq != expected {
            if seq < expected {
                self.emit_send(dst, SendIntent::Stat(StatDelta::Duplicate));
            }
            self.send_ack(t, dst, src, expected, span);
            return;
        }
        if frag.frag + 1 < frag.nfrags {
            // An interior fragment: accept and acknowledge it, but the
            // message dispatches only with its final fragment.
            self.chan_rx(dst, src).expected = seq + 1;
            self.send_ack(t, dst, src, seq + 1, span);
            return;
        }
        // Only whole messages occupy receive-ring slots.
        let ring = self.cfg.faults.rx_ring_frames;
        if ring > 0 && self.ring_used[dst] >= ring {
            self.emit_send(dst, SendIntent::Stat(StatDelta::RingOverflow));
            self.trace.emit_at(
                t.as_ps(),
                dst as u32,
                TraceEvent::RingOverflow {
                    channel: src as u32,
                },
            );
            self.send_ack(t, dst, src, expected, span);
            return;
        }
        self.ring_used[dst] += 1;
        self.ring_hw[dst] = self.ring_hw[dst].max(self.ring_used[dst]);
        self.chan_rx(dst, src).expected = seq + 1;
        // One-way latency measured from the final fragment's *first*
        // transmission.
        let kind = match &*frag.wire {
            WireMsg::Proto(msg) => msg.payload.kind(),
            WireMsg::App { .. } => 0xA0,
        };
        let li = if kind == 0xA0 {
            9
        } else {
            (kind - 0xD0) as usize
        };
        self.emit_send(
            dst,
            SendIntent::Stat(StatDelta::Latency {
                idx: li,
                us: (t - sent_at).as_ps() / 1000,
            }),
        );
        match (*frag.wire).clone() {
            WireMsg::Proto(msg) => self.arrive_proto(t, msg, frag.span),
            WireMsg::App {
                src: asrc,
                dst: adst,
                len,
                page,
                cacheable,
                data,
            } => self.arrive_app(t, adst, asrc, len, page, cacheable, data, frag.span),
        }
        // The frame occupies its ring slot until the NIC processor is done
        // handling it.
        let release = self.nics[dst].nic_busy_until().max(t);
        self.sched(dst, release, Ev::RingRelease { dst });
        self.send_ack(t, dst, src, seq + 1, span);
    }

    /// A (possibly corrupt) acknowledgement arrived back at sender `to`.
    fn on_ack_rx(
        &mut self,
        t: SimTime,
        to: usize,
        from: usize,
        ack: u64,
        cells: Vec<Cell>,
        span: u64,
    ) {
        match self.nics[to].ingest_frame(&cells) {
            Some(Ok(pdu)) => self.nics[to].recycle_pdu(pdu),
            // Corrupt ack: the NIC counted it; retransmission recovers.
            // The ACK span stays unclosed — like a dropped one, it never
            // took effect, and the unclosed count doubles as a loss
            // diagnostic.
            _ => return,
        }
        self.close_span(t, to as u32, span);
        let cap = self.cfg.faults.window as usize;
        let rto0 = SimTime::from_ps(self.cfg.faults.rto_base_ps);
        let ch = self.chan_tx(to, from);
        if ack > ch.base {
            while ch.base < ack {
                let acked = ch.window.pop_front();
                debug_assert!(acked.is_some(), "cumulative ack beyond the window");
                ch.base += 1;
            }
            ch.dup_acks = 0;
            ch.rto = rto0;
            // Admit parked frames into the freed window.
            let mut admitted = Vec::new();
            while ch.window.len() < cap {
                let Some(frag) = ch.pending.pop_front() else {
                    break;
                };
                let seq = ch.next_seq;
                ch.next_seq += 1;
                ch.window.push_back(InFlight {
                    seq,
                    frag: frag.clone(),
                    attempts: 0,
                    sent_at: t,
                    span: 0,
                });
                admitted.push((seq, frag));
            }
            let empty = ch.window.is_empty();
            for (seq, frag) in &admitted {
                let fspan = self.send_frame(t, to, from, *seq, frag, t, frag.span);
                if let Some(f) = self
                    .chan_tx(to, from)
                    .window
                    .iter_mut()
                    .find(|f| f.seq == *seq)
                {
                    f.span = fspan;
                }
            }
            if empty {
                self.cancel_timer(to, from);
            } else {
                self.arm_timer(t, to, from);
            }
        } else {
            ch.dup_acks += 1;
            if ch.dup_acks >= 2 && !ch.window.is_empty() {
                ch.dup_acks = 0;
                self.emit_send(to, SendIntent::Stat(StatDelta::FastRetransmit));
                // Resend only the frame the receiver is missing. Resending
                // the whole window here is unstable: every duplicate frame
                // provokes another duplicate ack, so a W-frame window turns
                // 2 dup-acks into W more — an ack storm with gain W/2. The
                // full go-back-N resend belongs to the paced timeout path.
                self.resend_front(t, to, from);
            }
        }
    }

    /// Fast-retransmit the oldest unacknowledged frame on `src -> dst`
    /// (the one the duplicate acks say is missing) and restart the timer.
    fn resend_front(&mut self, t: SimTime, src: usize, dst: usize) {
        let ch = self.chan_tx(src, dst);
        let Some(f) = ch.window.front_mut() else {
            return;
        };
        f.attempts += 1;
        let (seq, frag, attempt, sent_at, first_span) =
            (f.seq, f.frag.clone(), f.attempts, f.sent_at, f.span);
        if attempt >= 10_000 {
            // cni-lint: allow(panic-path) -- deliberate livelock detector: 10k resends of one seq means the retransmit logic is broken and the run must die loudly, not spin forever
            panic!(
                "reliable delivery cannot make progress: {src}->{dst} seq {seq} resent {attempt} times \
                 (base {}, next {}, window {}, pending {})",
                ch.base,
                ch.next_seq,
                ch.window.len(),
                ch.pending.len(),
            );
        }
        self.emit_send(src, SendIntent::Stat(StatDelta::Retransmit));
        self.trace.emit_at(
            t.as_ps(),
            src as u32,
            TraceEvent::RetransmitFired { seq, attempt },
        );
        // The retransmission's span is a child of the first attempt's, so
        // every wire attempt hangs off the originating send.
        self.send_frame(t, src, dst, seq, &frag, sent_at, first_span);
        self.arm_timer(t, src, dst);
    }

    /// Resend every unacknowledged frame on the `src -> dst` channel
    /// (go-back-N recovers the whole window) and restart the timer.
    fn resend_window(&mut self, t: SimTime, src: usize, dst: usize) {
        let frames: Vec<(u64, Frag, u32, SimTime, u64)> = self
            .chan_tx(src, dst)
            .window
            .iter_mut()
            .map(|f| {
                f.attempts += 1;
                assert!(
                    f.attempts < 10_000,
                    "reliable delivery cannot make progress (seq {} resent {} times)",
                    f.seq,
                    f.attempts
                );
                (f.seq, f.frag.clone(), f.attempts, f.sent_at, f.span)
            })
            .collect();
        for (seq, frag, attempt, sent_at, first_span) in &frames {
            self.emit_send(src, SendIntent::Stat(StatDelta::Retransmit));
            self.trace.emit_at(
                t.as_ps(),
                src as u32,
                TraceEvent::RetransmitFired {
                    seq: *seq,
                    attempt: *attempt,
                },
            );
            self.send_frame(t, src, dst, *seq, frag, *sent_at, *first_span);
        }
        self.arm_timer(t, src, dst);
    }

    /// The `src -> dst` retransmission timer fired: if it is still current
    /// and frames are outstanding, back the timeout off exponentially and
    /// resend the window.
    fn on_rxmit_timer(&mut self, t: SimTime, src: usize, dst: usize, gen: u64) {
        let cap_ps = self.cfg.faults.rto_cap_ps;
        let ch = self.chan_tx(src, dst);
        if gen != ch.timer_gen || ch.window.is_empty() {
            return;
        }
        ch.rto = SimTime::from_ps((ch.rto.as_ps() * 2).min(cap_ps));
        self.emit_send(src, SendIntent::Stat(StatDelta::Timeout));
        self.resend_window(t, src, dst);
    }

    fn arrive_proto(&mut self, t: SimTime, msg: Msg, span: u64) {
        let dst = msg.dst.0 as usize;
        if let Some(j) = &mut self.journal {
            j[dst].push(JEntry::Message(msg.clone()));
        }
        let bytes = msg.payload.wire_bytes();
        let cells = self.fabric.segmenter().cell_count(bytes);
        let header = msg.payload.header_bytes(msg.src);
        let rx = self.nics[dst].receive(t, cells, &header);
        self.record_rx_span(dst as u32, t, span, &rx);
        match (self.cfg.nic_kind, rx.disposition) {
            (NicKind::Cni, RxDisposition::Handler(h)) => {
                debug_assert_eq!(h, DSM_HANDLER);
                let info = delivery_info(&msg.payload);
                let kind = msg.payload.kind();
                let res = self.dsm[dst].on_message(msg);
                // NIC-resident collectives (generalised AIH, after the
                // Quadrics/Myrinet NIC-collective protocol of
                // cs/0402027): barrier combining and release / lock-chain
                // forwarding execute as dedicated NIC-processor steps
                // instead of a full protocol dispatch. Notice folding
                // still costs per notice — the combine carries the write
                // notices with it.
                let cycles = if self.cfg.collectives {
                    match kind {
                        // BarrierArrive: fold a child into the combine.
                        0xD3 => {
                            self.nics[dst].record_collective(1, 0);
                            self.cfg.nic.coll_combine_cycles
                                + self.cfg.costs.per_notice_cycles * res.work.notices
                        }
                        // AcquireFwd / BarrierRelease: forward down the
                        // chain or tree.
                        0xD1 | 0xD4 => {
                            self.nics[dst].record_collective(0, 1);
                            self.cfg.nic.coll_forward_cycles
                                + self.cfg.costs.per_notice_cycles * res.work.notices
                        }
                        _ => self.work_cycles_nic(&res.work),
                    }
                } else {
                    self.work_cycles_nic(&res.work)
                };
                let cycles = self.jittered(dst, cycles);
                let t_done = self.nics[dst].run_handler(rx.ready_at, cycles);
                // AIH replies leave straight from the board, as children
                // of the message that provoked them.
                for m in res.out {
                    self.transport(dst, m, TxOrigin::Board, t_done, span);
                }
                debug_assert!(res.flushed.is_empty(), "AIH handling never flushes");
                if res.wakeup.is_none() {
                    // Handled entirely on the board: the span closes when
                    // the AIH finishes.
                    self.close_span(t_done, dst as u32, span);
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
                    let wants_write = self.cpus[dst].blocked_kind == 1
                        && self.cpus[dst].blocked_detail & 0x1_0000_0000 != 0;
                    let migratory = wants_write
                        || page
                            .map(|pg| self.dsm[dst].has_written(PageId(pg as u32)))
                            .unwrap_or(false);
                    let cacheable = cacheable && migratory;
                    let d = self.nics[dst].deliver_to_host(t_done, len, page, cacheable, true);
                    let ov = self.host(d.host_cycles);
                    self.sched(
                        dst,
                        d.at + ov,
                        Ev::Wake {
                            p: dst,
                            overhead: ov,
                        },
                    );
                    // The wakeup delivers the effect: close the span and
                    // make it the parent of whatever the woken processor
                    // sends next.
                    self.cpus[dst].last_wake_span = span;
                    self.close_span(d.at + ov, dst as u32, span);
                }
            }
            (NicKind::Standard, RxDisposition::HostBound) => {
                // DMA the whole message to host memory, interrupt, run the
                // protocol on the host CPU. The host serialises interrupt
                // handling: this arrival queues behind any handler still
                // running.
                let blocked = self.cpus[dst].blocked_at.is_some();
                let d = self.nics[dst].deliver_to_host(rx.ready_at, bytes, None, false, blocked);
                let res = self.dsm[dst].on_message(msg);
                let work = self.work_cycles(&res.work);
                // The handler occupies the CPU (and blocks further
                // interrupts) for the occupancy part; the rest of the
                // interrupt cost is pipeline/cache disruption charged to
                // whatever was running.
                let n = &self.cfg.nic;
                let occupancy = self.jittered(
                    dst,
                    n.interrupt_occupancy_cycles + n.kernel_recv_cycles + work,
                );
                let full = d.host_cycles + work;
                let start = d.at.max(self.cpus[dst].async_busy);
                let mut t_occ = start + self.host(occupancy);
                debug_assert!(res.flushed.is_empty());
                for m in res.out {
                    t_occ += self.host(self.cfg.nic.kernel_send_cycles);
                    self.sched(
                        dst,
                        t_occ,
                        Ev::Xmit {
                            src: dst,
                            msg: m,
                            cause: span,
                        },
                    );
                }
                self.cpus[dst].async_busy = t_occ;
                if res.wakeup.is_some() {
                    let wake_t = t_occ.max(start + self.host(full));
                    self.sched(
                        dst,
                        wake_t,
                        Ev::Wake {
                            p: dst,
                            overhead: wake_t - start,
                        },
                    );
                    self.cpus[dst].last_wake_span = span;
                    self.close_span(wake_t, dst as u32, span);
                } else {
                    // Stolen from whatever the host was doing.
                    let stolen = self.host(full).max(t_occ - start);
                    self.cpus[dst].stolen += stolen;
                    self.close_span(start + stolen, dst as u32, span);
                }
            }
            (NicKind::Cni, RxDisposition::HostBound) => {
                // AIH disabled (ablation): the protocol runs on the host
                // behind interrupts, but sends still use the ADC path.
                let blocked = self.cpus[dst].blocked_at.is_some();
                let d = self.nics[dst].deliver_to_host(rx.ready_at, bytes, None, false, blocked);
                let res = self.dsm[dst].on_message(msg);
                let work = self.work_cycles(&res.work);
                let n = &self.cfg.nic;
                let occupancy = self.jittered(dst, n.interrupt_occupancy_cycles + work);
                let full = d.host_cycles + work;
                let start = d.at.max(self.cpus[dst].async_busy);
                let mut t_occ = start + self.host(occupancy);
                for m in res.out {
                    t_occ += self.host(self.cfg.nic.adc_enqueue_cycles);
                    self.sched(
                        dst,
                        t_occ,
                        Ev::Xmit {
                            src: dst,
                            msg: m,
                            cause: span,
                        },
                    );
                }
                self.cpus[dst].async_busy = t_occ;
                if res.wakeup.is_some() {
                    let wake_t = t_occ.max(start + self.host(full));
                    self.sched(
                        dst,
                        wake_t,
                        Ev::Wake {
                            p: dst,
                            overhead: wake_t - start,
                        },
                    );
                    self.cpus[dst].last_wake_span = span;
                    self.close_span(wake_t, dst as u32, span);
                } else {
                    let stolen = self.host(full).max(t_occ - start);
                    self.cpus[dst].stolen += stolen;
                    self.close_span(start + stolen, dst as u32, span);
                }
            }
            (kind, disp) => {
                // cni-lint: allow(panic-path) -- the (NicKind, dispatch) pairing is decided by this engine when the message was sent, not parsed off the wire; a mismatch is an engine bug
                panic!("protocol message mis-dispatched: {kind:?} / {disp:?}")
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn arrive_app(
        &mut self,
        t: SimTime,
        dst: usize,
        src: usize,
        len: u32,
        page: Option<u64>,
        cacheable: bool,
        data: Option<Arc<Vec<u64>>>,
        span: u64,
    ) {
        let cells = self.fabric.segmenter().cell_count(len as usize);
        // Application messages carry an app header PATHFINDER has no AIH
        // pattern for: they demultiplex to the host channel.
        let rx = self.nics[dst].receive(t, cells, &[0xA0, src as u8]);
        self.record_rx_span(dst as u32, t, span, &rx);
        debug_assert_eq!(rx.disposition, RxDisposition::HostBound);
        let waiting = self.cpus[dst].waiting_recv;
        let d = self.nics[dst].deliver_to_host(rx.ready_at, len as usize, page, cacheable, waiting);
        let ov = self.host(d.host_cycles);
        self.cpus[dst].inbox.push_back((src as u32, len, data));
        if waiting {
            self.cpus[dst].waiting_recv = false;
            // cni-lint: allow(panic-path) -- the inbox was pushed two lines up; pop_front on it cannot fail and the value is local engine state
            let (s, l, data) = self.cpus[dst].inbox.pop_front().expect("just pushed");
            self.cpus[dst].pending_reply = Some(Reply::Received {
                src: s,
                len: l,
                data,
            });
            self.sched(
                dst,
                d.at + ov,
                Ev::Wake {
                    p: dst,
                    overhead: ov,
                },
            );
            self.cpus[dst].last_wake_span = span;
            self.close_span(d.at + ov, dst as u32, span);
        } else {
            self.cpus[dst].stolen += ov;
            // The payload is in host memory once the delivery DMA ends;
            // the receiver just has not polled for it yet.
            self.close_span(d.at, dst as u32, span);
        }
    }

    fn wake(&mut self, t: SimTime, p: usize, overhead: SimTime) {
        let (reply, wait_kind, wait_raw) = {
            let cpu = &mut self.cpus[p];
            let blocked_at = cpu
                .blocked_at
                .take()
                .expect("wake of a processor that is not blocked");
            let raw = t.saturating_sub(blocked_at);
            if raw > SimTime::from_ms(2) && std::env::var_os("CNI_WAIT_DUMP").is_some() {
                eprintln!(
                    "[p{p}] kind={} detail={:#x} wait={} at t={}",
                    cpu.blocked_kind, cpu.blocked_detail, raw, t
                );
            }
            let stolen = std::mem::take(&mut cpu.stolen);
            let ov = (overhead + stolen).min(raw);
            cpu.delay += raw - ov;
            cpu.overhead += ov;
            cpu.clock = cpu.clock.max(t);
            (
                cpu.pending_reply.take().unwrap_or(Reply::Ok),
                cpu.blocked_kind.min(3),
                raw,
            )
        };
        self.emit_send(
            p,
            SendIntent::Stat(StatDelta::Wait {
                kind: wait_kind,
                raw: wait_raw,
            }),
        );
        self.resume(p, reply);
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
