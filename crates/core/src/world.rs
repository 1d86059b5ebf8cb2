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
use crate::node::{Env, Node, WireMsg};
use crate::report::{KindHistogram, KindLatency, ProcTimes, RunReport, REPORT_VERSION};
use cni_atm::{CellTrain, Fabric};
use cni_dsm::{DsmConfig, NodeSpace, NoticeLog, PageId, ProcId, VAddr};
use cni_faults::{FaultInjector, FaultStats};
use cni_sim::stats::Histogram;
use cni_sim::{EventQueue, SimTime, Task};
use cni_trace::{TraceEvent, TraceSink};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

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
    /// Hand `msg` to its sender's NIC (the host-side work was already
    /// charged; scheduling this at the right virtual time keeps the
    /// NIC-processor busy register causal — a lump-charged compute
    /// quantum must not reserve the NIC into the future and stall
    /// arrivals). `cause` is the span whose effect provoked this send
    /// (0 for a root cause).
    Xmit { msg: WireMsg, cause: u64 },
    /// A lossless-path message finished arriving at its receiver's NIC;
    /// `span` is its message span.
    Arrive { msg: WireMsg, span: u64 },
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
            Ev::Xmit { msg, .. } => Some(msg.src()),
            Ev::Arrive { msg, .. } => Some(msg.dst()),
            Ev::RxmitTimer { src, .. } => Some(*src),
            Ev::FrameRx { dst, .. } | Ev::RingRelease { dst } => Some(*dst),
            Ev::AckRx { to, .. } => Some(*to),
            Ev::MetricsTick => None,
        }
    }
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
        let injector = (!cfg.faults.is_zero()).then(|| FaultInjector::new(cfg.faults));
        let mut nic_cfg = cfg.nic;
        nic_cfg.page_bytes = cfg.page_bytes;
        // The barrier is a combining tree. Fan-out N is the paper's
        // centralised manager at processor 0; the tree barrier is binary.
        // NIC collectives imply the tree barrier (the NIC combines along
        // a tree), and on a fat-tree its fan-out follows the fabric:
        // leaf-wide subtrees keep combining traffic off the spine.
        let barrier_arity = match cfg.atm.topology {
            cni_atm::Topology::FatTree { down, .. } if cfg.collectives => down.max(2),
            _ if cfg.tree_barrier || cfg.collectives => 2,
            _ => cfg.procs,
        };
        let dsm_cfg = DsmConfig {
            procs: cfg.procs,
            page_bytes: cfg.page_bytes,
            line_bytes: cfg.nic.cache_line_bytes,
            barrier_arity,
        };
        let fabric = Fabric::new(cfg.atm);
        let seg = fabric.segmenter();
        let log = Rc::new(NoticeLog::default());
        World {
            nodes: (0..cfg.procs)
                .map(|p| Node::new(p, &cfg, nic_cfg, dsm_cfg, &log))
                .collect(),
            shared: Shared {
                q: EventQueue::new(),
                injector,
                latency: vec![Histogram::new(); 10].into_boxed_slice(),
                live: 0,
                proto_messages: 0,
                msg_kinds: [0; 9],
                rel_stats: FaultStats::default(),
                next_span: 0,
                events_dispatched: 0,
                fabric,
            },
            env: Env {
                seg,
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
    /// queue, each NIC (device, Message Cache, classifier) and each DSM
    /// node. Co-threads pick the sink up when [`World::run`]
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
}

#[cfg(test)]
mod tests {
    use super::{program, Config, Ev, Rc, World};
    use crate::node::{latency_slot, AppMsg, WireMsg};
    use cni_dsm::{DsmCluster, DsmConfig, Msg, NoticeLog, PageId, Payload, ProcId};

    #[test]
    fn an_event_fits_in_112_bytes() {
        assert!(
            std::mem::size_of::<Ev>() <= 112,
            "Ev grew to {} bytes",
            std::mem::size_of::<Ev>()
        );
    }

    fn page_resp(src: u32, dst: u32) -> WireMsg {
        WireMsg::Proto(Msg {
            src: ProcId(src),
            dst: ProcId(dst),
            payload: Payload::PageResp {
                page: PageId(7),
                version: cni_dsm::VClock::zero(8),
                data: vec![0; 256],
            },
        })
    }

    fn app(src: usize, dst: usize) -> WireMsg {
        WireMsg::App(AppMsg {
            src,
            dst,
            len: 300,
            page: Some(0x0100_0000),
            cacheable: true,
            data: None,
        })
    }

    /// One message type carries both kinds, and both events of the send
    /// path name their node through it: a transmit runs on the sender, an
    /// arrival on the receiver.
    #[test]
    fn a_message_transmits_on_its_sender_and_arrives_on_its_receiver() {
        for (msg, src, dst) in [(page_resp(2, 5), 2, 5), (app(3, 1), 3, 1)] {
            let xmit = Ev::Xmit {
                msg: msg.clone(),
                cause: 0,
            };
            assert_eq!(xmit.shard(), Some(src));
            assert_eq!(Ev::Arrive { msg, span: 0 }.shard(), Some(dst));
        }
    }

    /// What the send path reads off each kind: the PATHFINDER header (the
    /// first bytes of every go-back-N frame), the length, the page the
    /// transmit offers the Message Cache, and the latency histogram.
    #[test]
    fn a_wire_message_describes_both_kinds() {
        let proto = page_resp(2, 5);
        assert_eq!(proto.kind(), 0xD6);
        assert_eq!(&proto.header()[..2], &[0xD6, 2]);
        assert_eq!(proto.tx_page(), (Some(7), true));
        assert_eq!(latency_slot(proto.kind()), 6);
        let app = app(3, 1);
        assert_eq!(app.kind(), 0xA0);
        assert_eq!(app.header(), [0xA0, 3, 0, 0, 0, 0, 0, 0]);
        assert_eq!(app.wire_bytes(), 300);
        assert_eq!(app.tx_page(), (Some(0x0100_0000), true));
        assert_eq!(latency_slot(app.kind()), 9);
    }

    /// Every notice in `log`, writer by writer, checked to appear once.
    fn logged_once(log: &NoticeLog, procs: u32) -> usize {
        let mut all = Vec::new();
        for w in (0..procs).map(ProcId) {
            log.writer_notices_through(w, 0, u32::MAX, &mut all);
        }
        let mut keys: Vec<_> = all.iter().map(|n| (n.writer, n.interval, n.page)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), all.len(), "a notice logged twice");
        all.len()
    }

    /// The nodes of a `World` and of a `DsmCluster` read one write-notice
    /// log, which holds each published notice once: four writers each
    /// write their own page in three barrier rounds, so it holds twelve.
    #[test]
    fn every_node_shares_one_notice_log() {
        let mut w = World::new(Config::paper_default().with_procs(4));
        let page_bytes = w.config().page_bytes as u64;
        let base = w.alloc(4 * page_bytes as usize);
        let programs = (0..4u64)
            .map(|p| {
                program(move |ctx| {
                    Box::pin(async move {
                        for round in 1..=3 {
                            ctx.write_u64(base.add(p * page_bytes), round).await;
                            ctx.barrier().await;
                        }
                    })
                })
            })
            .collect();
        w.run(programs);
        let log = w.nodes[0].dsm.notice_log();
        assert!(w.nodes.iter().all(|n| Rc::ptr_eq(n.dsm.notice_log(), log)));
        assert_eq!(Rc::strong_count(log), 4, "held by the nodes alone");
        assert_eq!(logged_once(log, 4), 12);

        let mut c = DsmCluster::new(DsmConfig {
            procs: 4,
            page_bytes: 2048,
            line_bytes: 32,
            barrier_arity: 2,
        });
        let base = c.alloc(4 * 2048);
        for round in 1..=3 {
            for p in 0..4 {
                c.write_u64(ProcId(p), base.add(p as u64 * 2048), round);
            }
            c.barrier_all();
        }
        let log = c.node(ProcId(0)).notice_log();
        assert!((0..4).all(|p| Rc::ptr_eq(c.node(ProcId(p)).notice_log(), log)));
        assert_eq!(Rc::strong_count(log), 4, "held by the nodes alone");
        assert_eq!(logged_once(log, 4), 12);
    }
}
