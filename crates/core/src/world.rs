//! The timed cluster simulation: polled processor programs, the DSM
//! protocol and NIC/ATM transport, composed into one deterministic
//! discrete-event run.
//!
//! This is the reproduction's equivalent of the paper's modified Proteus:
//! application code executes for real, as one `async` [`Program`] per
//! processor that the engine polls in place on its own thread (no OS
//! thread per simulated CPU; `cni_sim::task`), and every
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
//! ### Structure
//!
//! A [`World`] is three parts, split by who may touch them:
//!
//! * `Env` — read-only for the whole run (configuration, trace sink);
//! * `Shared` — the event queue, fabric, fault injector, latency
//!   histograms and global counters, which the event loop lends to each
//!   handler in turn;
//! * `nodes` — one `Node` per workstation, owning its CPU, NIC, DSM
//!   state and go-back-N channels. Every event except the
//!   metrics tick acts on exactly one node, and its handler
//!   (`Node::dispatch`, in `node.rs` and `gbn.rs`) borrows only that
//!   node.
//!
//! One serial loop (`World::event_loop`) dispatches every run, one
//! event at a time; parallelism lives across runs (`cni-batch`).

use crate::config::Config;
use crate::ctx::{AccessCosts, ProcCtx};
use crate::gbn::Frag;
use crate::node::{Env, Node};
use crate::report::{KindHistogram, KindLatency, ProcTimes, RunReport, REPORT_VERSION};
use cni_atm::{CellTrain, Fabric};
use cni_dsm::{DsmConfig, Msg, NodeSpace, PageId, ProcId, VAddr};
use cni_faults::{FaultInjector, FaultStats};
use cni_sim::stats::Histogram;
use cni_sim::{EventQueue, SimTime, Task};
use cni_trace::{TraceEvent, TraceSink};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;

/// A program to run on one simulated processor: given the processor's
/// context, it returns the future the engine polls. Build one with
/// [`program`]. The engine polls every program on its own thread, so
/// neither the closure nor its future need be `Send`.
pub type Program =
    Box<dyn for<'a> FnOnce(&'a mut ProcCtx) -> Pin<Box<dyn Future<Output = ()> + 'a>>>;

/// Box `body` as a [`Program`]. Written `program(|ctx| Box::pin(async
/// move { .. }))`, the closure's higher-ranked signature is inferred from
/// this bound, so the future may borrow `ctx`:
///
/// ```
/// let p = cni::program(|ctx| {
///     Box::pin(async move {
///         ctx.compute(1_000);
///         ctx.barrier().await;
///     })
/// });
/// # let _ = p;
/// ```
pub fn program<F>(body: F) -> Program
where
    F: for<'a> FnOnce(&'a mut ProcCtx) -> Pin<Box<dyn Future<Output = ()> + 'a>> + 'static,
{
    Box::new(body)
}

pub(crate) enum Ev {
    /// Resume processor `p`'s program.
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
    /// The train is boxed to keep every event at most 112 bytes.
    FrameRx {
        src: usize,
        dst: usize,
        seq: u64,
        train: Box<CellTrain>,
        /// The frame's transmission-attempt span.
        span: u64,
        /// The fragment the frame carries. Shipping it with the event
        /// (instead of looking it up in the sender's window on receipt)
        /// keeps the receive path free of cross-node state.
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
        train: Box<CellTrain>,
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

impl Ev {
    /// The node whose state this event's handler acts on (its shard), or
    /// `None` for the engine-wide metrics tick.
    pub(crate) fn shard(&self) -> Option<usize> {
        match self {
            Ev::Resume(p) | Ev::Wake { p, .. } => Some(*p),
            Ev::Xmit { src, .. } | Ev::XmitApp { src, .. } | Ev::RxmitTimer { src, .. } => {
                Some(*src)
            }
            Ev::Proto { msg, .. } => Some(msg.dst.0 as usize),
            Ev::App { dst, .. } | Ev::FrameRx { dst, .. } | Ev::RingRelease { dst } => Some(*dst),
            Ev::AckRx { to, .. } => Some(*to),
            Ev::MetricsTick => None,
        }
    }
}

/// A send's node half: everything the acting node decided locally (NIC
/// transmit timing, payload, spans), handed to [`Shared::commit_send`]
/// for the shared parts — fabric link occupancy, fault-injector draws,
/// arrival-event scheduling and the send's counters.
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
}

/// Engine state shared by every node. The event loop lends it to one
/// handler at a time, so it changes in exact `(time, seq)` dispatch
/// order.
pub(crate) struct Shared {
    pub(crate) q: EventQueue<Ev>,
    pub(crate) fabric: Fabric,
    /// Fault injector, present only for a non-zero fault plan. When `None`
    /// every transmission takes the legacy lossless path and timing is
    /// bit-identical to a build without the faults layer.
    pub(crate) injector: Option<FaultInjector>,
    /// One-way wire latency per message kind, in nanoseconds:
    /// indices 0..=8 are the protocol kinds `0xD0..=0xD8`, index 9 is the
    /// application kind `0xA0`.
    pub(crate) latency: Box<[Histogram]>,
    /// Programs still running.
    pub(crate) live: usize,
    pub(crate) proto_messages: u64,
    pub(crate) msg_kinds: [u64; 9],
    /// Wait-time diagnostics per blocking-op kind (lock, fault, barrier,
    /// recv): (total wait, count).
    pub(crate) wait_stats: [(SimTime, u64); 4],
    /// Reliability-protocol counters (retransmits, duplicates, overflows).
    pub(crate) rel_stats: FaultStats,
    /// Last allocated span id (0 = none; span ids are 1-based and only
    /// advance while tracing is enabled, so disabled runs pay nothing and
    /// the engine's timing never depends on the counter).
    pub(crate) next_span: u64,
    /// Events dispatched since t = 0: the checkpoint cadence counter and
    /// a checkpoint's position, which a resume re-executes up to.
    pub(crate) events_dispatched: u64,
}

/// The simulated cluster.
pub struct World {
    pub(crate) env: Env,
    pub(crate) shared: Shared,
    pub(crate) nodes: Box<[Node]>,
    pub(crate) next_page: u32,
    /// Virtual-time spacing of periodic [`TraceEvent::Metrics`] samples.
    pub(crate) metrics_interval: Option<SimTime>,
    /// Snapshot cadence: when set, `checkpoint_sink` runs after every
    /// `N`-th dispatched event.
    checkpoint_every: Option<u64>,
    /// Where checkpoints go. The engine stays IO-free: the embedder's
    /// closure decides what a snapshot becomes (a file, a test buffer).
    checkpoint_sink: Option<CheckpointSink>,
}

/// The embedder's checkpoint callback (see `World::set_checkpoint`).
type CheckpointSink = Box<dyn FnMut(&World)>;

impl World {
    /// Build a cluster per `cfg`.
    ///
    /// # Panics
    /// Panics with [`Config::check`]'s message if `cfg` is invalid.
    pub fn new(cfg: Config) -> Self {
        if let Err(e) = cfg.check() {
            panic!("invalid configuration: {e}");
        }
        let reliable = !cfg.faults.is_zero();
        let injector = reliable.then(|| FaultInjector::new(cfg.faults));
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
        let fabric = Fabric::new(cfg.atm);
        let seg = fabric.segmenter();
        World {
            nodes: (0..cfg.procs)
                .map(|p| Node::new(p, &cfg, nic_cfg, dsm_cfg))
                .collect(),
            shared: Shared {
                q: EventQueue::new(),
                injector,
                latency: vec![Histogram::new(); 10].into_boxed_slice(),
                live: 0,
                proto_messages: 0,
                msg_kinds: [0; 9],
                wait_stats: [(SimTime::ZERO, 0); 4],
                rel_stats: FaultStats::default(),
                next_span: 0,
                events_dispatched: 0,
                fabric,
            },
            env: Env {
                seg,
                reliable,
                trace: TraceSink::Disabled,
                cfg,
            },
            next_page: 0,
            metrics_interval: None,
            checkpoint_every: None,
            checkpoint_sink: None,
        }
    }

    /// Attach a trace sink to every instrumented component: the event
    /// queue, each NIC (device, Message Cache, ADC rings, classifier) and
    /// each DSM node. Co-threads pick the sink up when [`World::run`]
    /// spawns them. Call before `run`.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.shared.q.set_trace(sink.clone());
        for node in self.nodes.iter_mut() {
            node.nic.set_trace(sink.clone(), node.id as u32);
            node.dsm.set_trace(sink.clone());
        }
        self.env.trace = sink;
    }

    /// The trace sink (drain it after [`World::run`] to export events).
    pub fn trace(&self) -> &TraceSink {
        &self.env.trace
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

    /// Run `sink` after every `every`-th dispatched event. The sink
    /// typically calls [`World::take_snapshot`] and writes the result
    /// somewhere durable; the engine itself performs no IO. Taking a
    /// snapshot never perturbs the simulation — a checkpointed run stays
    /// byte-identical to a plain one.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn set_checkpoint(&mut self, every: u64, sink: Box<dyn FnMut(&World)>) {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
        self.checkpoint_sink = Some(sink);
    }

    /// Events dispatched so far (the checkpoint cadence counter).
    pub fn events_dispatched(&self) -> u64 {
        self.shared.events_dispatched
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.env.cfg
    }

    /// Processor `p`'s shared-memory space (inspection after a run).
    pub fn space(&self, p: usize) -> &Rc<NodeSpace> {
        self.nodes[p].dsm.space()
    }

    /// Diagnostic: (total wait, count) per blocking-op kind
    /// [locks, faults, barriers, receives].
    pub fn wait_stats(&self) -> [(SimTime, u64); 4] {
        self.shared.wait_stats
    }

    /// Allocate shared memory (whole pages, zero-filled, homes assigned
    /// round-robin). Must be called before [`World::run`].
    pub fn alloc(&mut self, bytes: usize) -> VAddr {
        let pages = bytes.div_ceil(self.env.cfg.page_bytes).max(1);
        let procs = self.env.cfg.procs;
        let first = self.next_page as usize;
        self.alloc_pages(pages, move |i| (first + i) % procs)
    }

    /// Allocate shared memory with explicit page placement: `home(i)` gives
    /// the owning processor of the `i`-th page of this allocation. Matches
    /// the first-touch placement a real DSM would produce, which keeps
    /// initialisation local (and is what the paper's applications see).
    pub fn alloc_with_homes(&mut self, bytes: usize, home: impl Fn(usize) -> usize) -> VAddr {
        let pages = bytes.div_ceil(self.env.cfg.page_bytes).max(1);
        self.alloc_pages(pages, home)
    }

    fn alloc_pages(&mut self, pages: usize, home: impl Fn(usize) -> usize) -> VAddr {
        let first = self.next_page;
        self.next_page += pages as u32;
        let procs = self.env.cfg.procs;
        let homes: Vec<ProcId> = (0..pages)
            .map(|i| ProcId((home(i) % procs) as u32))
            .collect();
        // Node by node, so each node's page tables grow in one pass.
        for node in self.nodes.iter_mut() {
            for (pg, &owner) in (first..).zip(&homes) {
                node.dsm.set_home(PageId(pg), owner);
            }
        }
        for (pg, owner) in (first..).zip(homes) {
            self.nodes[owner.0 as usize].dsm.init_home_page(PageId(pg));
        }
        VAddr::of_page(PageId(first), self.env.cfg.page_bytes)
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
        assert_eq!(
            programs.len(),
            self.env.cfg.procs,
            "one program per processor"
        );
        assert!(
            self.nodes.iter().all(|n| !n.cpu.started),
            "World::run is single-shot; build a fresh World for another run"
        );
        self.start(programs);
        self.event_loop(u64::MAX);
        assert_eq!(
            self.shared.live, 0,
            "simulation ran out of events with {} programs unfinished (deadlock)",
            self.shared.live
        );
        self.report()
    }

    /// Wrap each program in a task and schedule every processor's first
    /// resume. Shared by [`World::run`] and the checkpoint-restore
    /// path, which re-executes the same programs up to the checkpoint.
    pub(crate) fn start(&mut self, programs: Vec<Program>) {
        self.shared.live = programs.len();
        self.spawn_tasks(programs);
        // All processors wake at time zero: one bulk insert, tie-broken by
        // sequence number exactly as the per-call path would be.
        self.shared
            .q
            .schedule_batch_at(SimTime::ZERO, (0..self.env.cfg.procs).map(Ev::Resume));
        if self.env.trace.is_enabled() {
            if let Some(iv) = self.metrics_interval {
                self.shared
                    .q
                    .schedule_at(SimTime::ZERO + iv, Ev::MetricsTick);
            }
        }
    }

    /// Wrap each program in a task the engine polls: the task builds the
    /// processor's context, runs the program and then signals completion
    /// with [`ProcCtx::finish`].
    fn spawn_tasks(&mut self, programs: Vec<Program>) {
        let costs = AccessCosts {
            read: self.env.cfg.costs.shared_read_cycles,
            write: self.env.cfg.costs.shared_write_cycles,
        };
        let procs = self.env.cfg.procs as u32;
        let pages = self.next_page as usize;
        for (node, prog) in self.nodes.iter_mut().zip(programs) {
            let space = node.dsm.space().clone();
            let me = node.id as u32;
            let mut task = Task::spawn(&format!("cpu{me}"), move |mailbox| async move {
                let mut ctx = ProcCtx::new(me, procs, costs, space, pages, mailbox);
                prog(&mut ctx).await;
                ctx.finish().await;
            });
            task.set_trace(self.env.trace.clone(), me);
            node.cpu.task = Some(task);
        }
    }

    /// Dispatch events until every program finishes (or the queue runs
    /// dry) or `limit` events have been dispatched since t = 0, taking a
    /// checkpoint after every `checkpoint_every`-th event when
    /// configured. Checkpoints run *between* dispatches, when every
    /// program is suspended at a yield and the engine state is quiescent.
    pub(crate) fn event_loop(&mut self, limit: u64) {
        while self.shared.events_dispatched < limit {
            let Some((t, ev)) = self.shared.q.pop() else {
                break;
            };
            match ev.shard() {
                Some(n) => {
                    self.nodes[n].dispatch(&self.env, &mut self.shared, t, ev);
                }
                None => self.metrics_tick(t),
            }
            self.shared.events_dispatched += 1;
            if let Some(every) = self.checkpoint_every {
                if self.shared.events_dispatched.is_multiple_of(every) {
                    // Take the sink out while it borrows the world.
                    if let Some(mut sink) = self.checkpoint_sink.take() {
                        sink(self);
                        self.checkpoint_sink = Some(sink);
                    }
                }
            }
            if self.shared.live == 0 && self.shared.q.is_empty() {
                break;
            }
        }
    }

    /// Emit one [`TraceEvent::Metrics`] delta and one
    /// [`TraceEvent::UtilNode`] gauge per node (plus the engine-wide
    /// [`TraceEvent::UtilQueue`] depth) and reschedule the next tick
    /// while any program is still running.
    fn metrics_tick(&mut self, t: SimTime) {
        let interval = self.metrics_interval.expect("tick without interval");
        let trace = &self.env.trace;
        for node in self.nodes.iter_mut() {
            let p = node.id;
            let cur = node.cumulative_sample();
            let delta = cur.delta_from(&node.metrics_prev, interval.as_ps());
            node.metrics_prev = cur;
            trace.emit_at(t.as_ps(), p as u32, TraceEvent::Metrics(delta));
            let busy = node.nic.busy_time().as_ps();
            let (ing, eg) = self.shared.fabric.link_busy(p);
            let (ing, eg) = (ing.as_ps(), eg.as_ps());
            let prev = node.util_prev;
            trace.emit_at(
                t.as_ps(),
                p as u32,
                TraceEvent::UtilNode {
                    busy_ps: busy - prev.0,
                    ingress_ps: ing - prev.1,
                    egress_ps: eg - prev.2,
                    ring_hw: node.ring_hw,
                    interval_ps: interval.as_ps(),
                },
            );
            node.util_prev = (busy, ing, eg);
            node.ring_hw = node.ring_used;
        }
        trace.emit_at(
            t.as_ps(),
            cni_trace::NO_NODE,
            TraceEvent::UtilQueue {
                depth: self.shared.q.len() as u32,
            },
        );
        if self.shared.live > 0 {
            self.shared.q.schedule_at(t + interval, Ev::MetricsTick);
        }
    }

    pub(crate) fn report(&self) -> RunReport {
        let sh = &self.shared;
        let wall = self
            .nodes
            .iter()
            .map(|n| n.cpu.clock)
            .fold(SimTime::ZERO, SimTime::max);
        let recorded = || {
            sh.latency
                .iter()
                .enumerate()
                .filter(|(_, h)| h.count() > 0)
                .map(|(i, h)| (if i < 9 { 0xD0 + i as u8 } else { 0xA0 }, h))
        };
        RunReport {
            version: REPORT_VERSION,
            wall,
            procs: self
                .nodes
                .iter()
                .map(|n| ProcTimes {
                    compute: n.cpu.compute,
                    overhead: n.cpu.overhead,
                    delay: n.cpu.delay,
                    total: n.cpu.clock,
                })
                .collect(),
            nic: self.nodes.iter().map(|n| n.nic.stats()).collect(),
            msg_cache: self.nodes.iter().map(|n| n.nic.msg_cache_stats()).collect(),
            dsm: self.nodes.iter().map(|n| n.dsm.stats()).collect(),
            messages: sh.proto_messages,
            msg_kinds: sh.msg_kinds,
            latency: recorded()
                .map(|(kind, h)| KindLatency {
                    kind,
                    count: h.count(),
                    mean_us: h.mean() / 1e3,
                    p50_us: h.percentile(50.0) / 1e3,
                    p99_us: h.percentile(99.0) / 1e3,
                })
                .collect(),
            latency_hist: recorded()
                .map(|(kind, h)| KindHistogram {
                    kind,
                    hist: h.clone(),
                })
                .collect(),
            trace: self.env.trace.summary(),
            faults: {
                let mut f = sh.rel_stats;
                if let Some(inj) = &sh.injector {
                    f.merge(&inj.stats());
                }
                f.crc_failures = self
                    .nodes
                    .iter()
                    .map(|n| n.nic.stats().rx_crc_failures)
                    .sum::<u64>();
                f
            },
            stages: None,
        }
    }
}

impl Shared {
    /// Allocate the next span id, or 0 when tracing is disabled.
    pub(crate) fn alloc_span(&mut self, env: &Env) -> u64 {
        if !env.trace.is_enabled() {
            return 0;
        }
        self.next_span += 1;
        self.next_span
    }

    /// Count one protocol message of `kind` (`0xD0..=0xD8`).
    pub(crate) fn count_proto(&mut self, kind: u8) {
        self.proto_messages += 1;
        self.msg_kinds[(kind - 0xD0) as usize] += 1;
    }

    /// Apply one [`SendIntent`]: the shared half of a send. This is the
    /// only place that touches the fabric's link state and the fault
    /// injector, and the only source of arrival events.
    pub(crate) fn commit_send(&mut self, env: &Env, intent: SendIntent) {
        let trace = &env.trace;
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
                trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::ProtoTx {
                        kind,
                        bytes: bytes as u32,
                        dur_ps: lat.as_ps(),
                    },
                );
                trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::SpanTx {
                        span,
                        host_dma_ps: host_done.saturating_sub(now).as_ps(),
                        tx_queue_ps: wire_start.saturating_sub(host_done).as_ps(),
                        wire_ps: timing.last_cell_arrival.saturating_sub(wire_start).as_ps(),
                    },
                );
                self.q
                    .schedule_at(timing.last_cell_arrival, Ev::Proto { msg, span });
                self.count_proto(kind);
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
                trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::ProtoTx {
                        kind: 0xA0,
                        bytes: len,
                        dur_ps: lat.as_ps(),
                    },
                );
                trace.emit_at(
                    timing.last_cell_arrival.as_ps(),
                    src as u32,
                    TraceEvent::SpanTx {
                        span,
                        host_dma_ps: host_done.saturating_sub(now).as_ps(),
                        tx_queue_ps: wire_start.saturating_sub(host_done).as_ps(),
                        wire_ps: timing.last_cell_arrival.saturating_sub(wire_start).as_ps(),
                    },
                );
                self.q.schedule_at(
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
                let arrived = self.commit_faulty(
                    env,
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
                if let Some((train, arrival)) = arrived {
                    trace.emit_at(
                        arrival.as_ps(),
                        src as u32,
                        TraceEvent::ProtoTx {
                            kind: prefix[0],
                            bytes,
                            dur_ps: (arrival - now).as_ps(),
                        },
                    );
                    self.q.schedule_at(
                        arrival,
                        Ev::FrameRx {
                            src,
                            dst,
                            seq,
                            train,
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
                let arrived = self.commit_faulty(
                    env, from, to, vci, &image, 16, span, now, host_done, wire_start, cell_gap,
                );
                if let Some((train, arrival)) = arrived {
                    self.q.schedule_at(
                        arrival,
                        Ev::AckRx {
                            to,
                            from,
                            ack,
                            train,
                            span,
                        },
                    );
                }
            }
        }
    }

    /// The serial half of a faulty-fabric frame transmission: draw the
    /// injector's per-cell fates, occupy the fabric, and — when the
    /// end-of-PDU cell survives, so reassembly completes at the receiver —
    /// return the frame as one cell train plus the reassembly-complete
    /// time (the NIC-side transmit already ran on the sending node — its
    /// timings arrive as `host_done`/`wire_start`/`cell_gap`). A frame
    /// whose end-of-PDU cell is lost never reaches the receiver, so its
    /// image is never built.
    #[allow(clippy::too_many_arguments)]
    fn commit_faulty(
        &mut self,
        env: &Env,
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
    ) -> Option<(Box<CellTrain>, SimTime)> {
        let inj = self
            .injector
            .as_mut()
            // cni-lint: allow(panic-path) -- frame intents are only emitted on reliable runs (a non-zero fault plan), which always build an injector; this Option is engine state, not wire data
            .expect("fault transmit needs an injector");
        let fpt = self
            .fabric
            .send_pdu_faulty(wire_start, src, dst, bytes, cell_gap, inj);
        for (i, fate) in fpt.fates.iter().enumerate() {
            if fate.is_drop() {
                env.trace.emit_at(
                    now.as_ps(),
                    src as u32,
                    TraceEvent::CellDropped {
                        vci: vci as u32,
                        cell: i as u32,
                    },
                );
            }
        }
        let arrival = fpt.last_delivered.filter(|_| fpt.eop_delivered())?;
        env.trace.emit_at(
            arrival.as_ps(),
            src as u32,
            TraceEvent::SpanTx {
                span,
                host_dma_ps: host_done.saturating_sub(now).as_ps(),
                tx_queue_ps: wire_start.saturating_sub(host_done).as_ps(),
                wire_ps: arrival.saturating_sub(wire_start).as_ps(),
            },
        );
        let train = self.fabric.segmenter().train(vci, prefix, bytes, fpt.fates);
        Some((Box::new(train), arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::Ev;

    #[test]
    fn an_event_fits_in_112_bytes() {
        assert!(
            std::mem::size_of::<Ev>() <= 112,
            "Ev grew to {} bytes",
            std::mem::size_of::<Ev>()
        );
    }
}
