//! Per-layer probes. One traced run records what every layer did; each
//! probe then times that layer's public functions on the recorded inputs
//! (or, for the co-thread handoff and the event queue, on a synthetic
//! load of the recorded size), and the replays check that they reproduce
//! what the run recorded.
//!
//! A probe's `host_s` is its measured cost per operation times the
//! operations the run performed: an estimate of the host time that layer
//! took inside the run, measured outside it.

use cni::{Config, NicKind, RunReport};
use cni_atm::{Fabric, Reassembler};
use cni_nic::MessageCache;
use cni_pathfinder::{Classifier, FieldTest, Pattern};
use cni_sim::{CoThread, EventQueue, SimTime, SplitMix64, Yield};
use cni_trace::{TraceEvent, TraceRecord, SPAN_ACK, SPAN_FRAME, SPAN_MSG};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum timed passes per replay probe.
const MIN_PASSES: usize = 3;
/// Replay probes repeat until they have measured at least this long.
const MIN_PROBE_TIME: Duration = Duration::from_millis(30);

/// Median nanoseconds per operation of `pass`, which performs `ops`
/// operations per call; 0 when there is nothing to time.
fn ns_per_op(ops: u64, mut pass: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    pass(); // warm caches and allocator pools
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || start.elapsed() < MIN_PROBE_TIME {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&samples) / ops as f64
}

/// What the engine recorded about one PDU: its span class, kind byte,
/// endpoints, payload bytes and when it entered its lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct Pdu {
    /// Span class ([`SPAN_MSG`], [`SPAN_FRAME`] or [`SPAN_ACK`]).
    pub class: u8,
    /// Wire kind byte.
    pub kind: u8,
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u32,
    /// Span-open time, ps.
    pub t_ps: u64,
}

/// One Message Cache operation as the trace recorded it, with its result.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Lookup { page: u64, hit: bool },
    Insert { page: u64, evicted: Option<u64> },
    Snoop { page: u64, resident: bool },
    Invalidate { page: u64 },
}

/// One PATHFINDER classification: the header it saw (rebuilt from the
/// message the receive belonged to) and the recorded outcome.
#[derive(Clone, Copy, Debug)]
struct Classification {
    node: u32,
    header: [u8; 2],
    cells: u32,
    matched: bool,
}

/// Everything the probes need, extracted from a traced run's records.
#[derive(Default)]
pub struct Recorded {
    /// Event-queue dispatches.
    pub events: u64,
    /// Mean pending events at dispatch.
    pub depth_mean: f64,
    /// Engine → program control transfers (co-thread resumes).
    pub switches: u64,
    /// Every opened span's PDU, in opening order.
    pub pdus: Vec<Pdu>,
    cache_ops: BTreeMap<u32, Vec<CacheOp>>,
    classifications: Vec<Classification>,
    /// `Classify` records that no later `SpanRx` claimed.
    pub unpaired_classify: u64,
}

impl Recorded {
    /// Walk the records once.
    pub fn extract(records: &[TraceRecord]) -> Recorded {
        let mut r = Recorded::default();
        let mut depth_sum = 0u64;
        let mut span_pdu: BTreeMap<u64, usize> = BTreeMap::new();
        let mut pending_classify: BTreeMap<u32, (u32, bool)> = BTreeMap::new();
        for rec in records {
            let node = rec.node;
            match rec.event {
                TraceEvent::QueueDispatch { pending, .. } => {
                    r.events += 1;
                    depth_sum += u64::from(pending);
                }
                TraceEvent::CothreadSwitch { enter: true, .. } => r.switches += 1,
                TraceEvent::SpanOpen {
                    span,
                    class,
                    kind,
                    src,
                    dst,
                    bytes,
                    ..
                } => {
                    span_pdu.insert(span, r.pdus.len());
                    r.pdus.push(Pdu {
                        class,
                        kind,
                        src,
                        dst,
                        bytes,
                        t_ps: rec.t_ps,
                    });
                }
                TraceEvent::MsgCacheHit { page } => {
                    r.cache(node, CacheOp::Lookup { page, hit: true })
                }
                TraceEvent::MsgCacheMiss { page } => {
                    r.cache(node, CacheOp::Lookup { page, hit: false })
                }
                TraceEvent::MsgCacheInsert { page, evicted } => {
                    r.cache(node, CacheOp::Insert { page, evicted })
                }
                TraceEvent::MsgCacheSnoop { page, resident } => {
                    r.cache(node, CacheOp::Snoop { page, resident })
                }
                TraceEvent::MsgCacheInvalidate { page } => {
                    r.cache(node, CacheOp::Invalidate { page })
                }
                TraceEvent::Classify { cells, matched } => {
                    let stale = pending_classify.insert(node, (cells, matched));
                    r.unpaired_classify += u64::from(stale.is_some());
                }
                // The engine records a receive's stage times right after
                // classifying it, so the next SpanRx on the node names the
                // message whose header PATHFINDER saw.
                TraceEvent::SpanRx { span, .. } => {
                    if let Some((cells, matched)) = pending_classify.remove(&node) {
                        match span_pdu.get(&span).map(|&i| r.pdus[i]) {
                            Some(p) => r.classifications.push(Classification {
                                node,
                                header: [p.kind, p.src as u8],
                                cells,
                                matched,
                            }),
                            None => r.unpaired_classify += 1,
                        }
                    }
                }
                _ => {}
            }
        }
        r.unpaired_classify += pending_classify.len() as u64;
        r.depth_mean = depth_sum as f64 / r.events.max(1) as f64;
        r
    }

    fn cache(&mut self, node: u32, op: CacheOp) {
        self.cache_ops.entry(node).or_default().push(op);
    }

    /// The PDUs that crossed the fabric: message PDUs on a lossless run;
    /// go-back-N frames and ACKs (each its own AAL5 PDU) on a lossy one,
    /// where a message is only the logical payload of its frames.
    pub fn wire_pdus(&self, lossy: bool) -> Vec<Pdu> {
        self.pdus
            .iter()
            .filter(|p| {
                if lossy {
                    p.class == SPAN_FRAME || p.class == SPAN_ACK
                } else {
                    p.class == SPAN_MSG
                }
            })
            .copied()
            .collect()
    }

    /// Go-back-N frame transmissions (first sends and retransmissions).
    pub fn frames(&self) -> u64 {
        self.pdus.iter().filter(|p| p.class == SPAN_FRAME).count() as u64
    }

    /// Recorded classifications.
    pub fn classifications(&self) -> u64 {
        self.classifications.len() as u64
    }
}

/// Event-queue churn at the recorded depth: nanoseconds per
/// pop-plus-schedule step.
pub fn queue_ns_per_op(events: u64, depth_mean: f64) -> f64 {
    let depth = depth_mean.round().max(1.0) as u64;
    let ops = events.max(1);
    ns_per_op(ops, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
        for i in 0..depth {
            q.schedule_after(SimTime::from_ns(rng.next_below(10_000) + 1), i);
        }
        for _ in 0..ops {
            let (_, ev) = q.pop().expect("churn keeps the queue full");
            q.schedule_after(SimTime::from_ns(rng.next_below(10_000) + 1), black_box(ev));
        }
    })
}

/// Median nanoseconds of one engine → program → engine round trip over
/// [`CoThread::resume`] and [`cni_sim::Port::call`], on whatever CPUs
/// this process may use.
pub fn cothread_roundtrip_ns() -> f64 {
    const TRIPS: u64 = 4_000;
    let batch = || {
        let mut co: CoThread<u64, u64> = CoThread::spawn("probe", |port| {
            for i in 0..TRIPS {
                black_box(port.call(i));
            }
        });
        let mut y = co.start();
        let t = Instant::now();
        while let Yield::Request(v) = y {
            y = co.resume(v);
        }
        t.elapsed().as_nanos() as f64 / TRIPS as f64
    };
    batch();
    let samples: Vec<f64> = (0..7).map(|_| batch()).collect();
    crate::stats::median(&samples)
}

/// AAL5 segmentation plus CRC-checked reassembly of every recorded wire
/// PDU size: nanoseconds per PDU. Errors if a replayed PDU fails to
/// reassemble to its own length.
pub fn aal5_ns_per_pdu(cfg: &Config, pdus: &[Pdu]) -> Result<f64, String> {
    let seg = cfg.atm.segmenter();
    let mut rx = Reassembler::new();
    for p in pdus {
        let cells = seg.segment_prefixed((p.src * 2) as u16, &[p.kind], p.bytes as usize);
        match cells.iter().find_map(|c| rx.push(c)) {
            Some(Ok(pdu)) if pdu.len() == p.bytes as usize => rx.recycle(pdu),
            other => {
                return Err(format!(
                    "AAL5 replay of a {}-byte PDU gave {other:?}",
                    p.bytes
                ))
            }
        }
    }
    Ok(ns_per_op(pdus.len() as u64, || {
        for p in pdus {
            let cells = seg.segment_prefixed((p.src * 2) as u16, &[p.kind], p.bytes as usize);
            for c in &cells {
                if let Some(Ok(pdu)) = rx.push(c) {
                    rx.recycle(black_box(pdu));
                }
            }
        }
    }))
}

/// [`Fabric::send_pdu`] over the recorded (time, src, dst, bytes) on the
/// workload's topology: nanoseconds per PDU. Errors if the fabric's cell
/// count disagrees with the segmenter's.
pub fn fabric_ns_per_pdu(cfg: &Config, pdus: &[Pdu]) -> Result<f64, String> {
    let gap = cfg.nic.tx_cell_gap();
    let seg = cfg.atm.segmenter();
    let remote: Vec<&Pdu> = pdus.iter().filter(|p| p.src != p.dst).collect();
    let send_all = |check: bool| -> Result<(), String> {
        let mut fabric = Fabric::new(cfg.atm);
        for p in &remote {
            let t = fabric.send_pdu(
                SimTime::from_ps(p.t_ps),
                p.src as usize,
                p.dst as usize,
                p.bytes as usize,
                gap,
            );
            if check && t.cells != seg.cell_count(p.bytes as usize) {
                return Err(format!(
                    "fabric sent {} cells for {} bytes",
                    t.cells, p.bytes
                ));
            }
            black_box(t);
        }
        Ok(())
    };
    send_all(true)?;
    Ok(ns_per_op(remote.len() as u64, || {
        let _ = send_all(false);
    }))
}

/// Result of the Message Cache replay.
pub struct CacheReplay {
    /// Transmit lookups replayed.
    pub lookups: u64,
    /// Of which hits.
    pub hits: u64,
    /// All operations replayed (lookups, inserts, snoops, invalidations).
    pub ops: u64,
    /// Nanoseconds per operation.
    pub ns_per_op: f64,
}

/// Replay each node's recorded Message Cache operations on a fresh
/// [`MessageCache`] of the run's geometry. Every operation must return
/// what the run recorded, and each node's final counters must equal the
/// run's `RunReport.msg_cache`.
pub fn msgcache_replay(
    cfg: &Config,
    report: &RunReport,
    rec: &Recorded,
) -> Result<CacheReplay, String> {
    let mut nic = cfg.nic;
    nic.page_bytes = cfg.page_bytes;
    let fresh = || MessageCache::new(nic.msg_cache_buffers(), nic.rtlb_entries);
    let mut lookups = 0;
    let mut hits = 0;
    for (p, stats) in report.msg_cache.iter().enumerate() {
        let ops = rec.cache_ops.get(&(p as u32)).map_or(&[][..], |v| v);
        let mut mc = fresh();
        for (i, op) in ops.iter().enumerate() {
            let same = match *op {
                CacheOp::Lookup { page, hit } => {
                    lookups += 1;
                    hits += u64::from(hit);
                    mc.lookup_tx(page) == hit
                }
                CacheOp::Insert { page, evicted } => mc.insert(page) == evicted,
                CacheOp::Snoop { page, resident } => mc.snoop_write(page).0 == resident,
                CacheOp::Invalidate { page } => mc.invalidate(page),
            };
            if !same {
                return Err(format!("node {p}: Message Cache op {i} ({op:?}) diverged"));
            }
        }
        if mc.stats() != *stats {
            return Err(format!(
                "node {p}: replayed Message Cache counters {:?} != report {stats:?}",
                mc.stats()
            ));
        }
    }
    let ops: u64 = rec.cache_ops.values().map(|v| v.len() as u64).sum();
    let ns = ns_per_op(ops, || {
        for node_ops in rec.cache_ops.values() {
            let mut mc = fresh();
            for op in node_ops {
                match *op {
                    CacheOp::Lookup { page, .. } => {
                        black_box(mc.lookup_tx(page));
                    }
                    CacheOp::Insert { page, .. } => {
                        black_box(mc.insert(page));
                    }
                    CacheOp::Snoop { page, .. } => {
                        black_box(mc.snoop_write(page));
                    }
                    CacheOp::Invalidate { page } => {
                        black_box(mc.invalidate(page));
                    }
                }
            }
        }
    });
    Ok(CacheReplay {
        lookups,
        hits,
        ops,
        ns_per_op: ns,
    })
}

/// The classifier every CNI node installs for the DSM protocol: one
/// single-byte pattern per protocol kind (`0xD0..=0xD8`), routed to the
/// protocol's handler.
fn dsm_classifier() -> Classifier<u32> {
    let mut c = Classifier::new();
    for kind in 0xD0u8..=0xD8 {
        c.install(Pattern::new(vec![FieldTest::byte(0, kind)]), 1);
    }
    c
}

/// Replay every recorded classification on a per-node classifier set up
/// as the run's NICs are: each must visit the recorded number of cells
/// and match exactly when the run's did. Returns nanoseconds per
/// classification and the total comparison cells.
pub fn pathfinder_replay(cfg: &Config, rec: &Recorded) -> Result<(f64, u64), String> {
    if rec.unpaired_classify > 0 {
        return Err(format!(
            "{} classifications could not be matched to their message",
            rec.unpaired_classify
        ));
    }
    let aih = cfg.nic_kind == NicKind::Cni && cfg.nic.cni_features.aih;
    let fresh = || -> Vec<Classifier<u32>> {
        (0..cfg.procs)
            .map(|_| {
                if aih {
                    dsm_classifier()
                } else {
                    Classifier::new()
                }
            })
            .collect()
    };
    let mut nodes = fresh();
    let mut cells_total = 0;
    for (i, c) in rec.classifications.iter().enumerate() {
        let out = nodes[c.node as usize].classify(&c.header);
        let cells = out.map_or(1, |o| o.cells_visited);
        if cells != c.cells || out.is_some() != c.matched {
            return Err(format!("classification {i} ({c:?}) replayed as {out:?}"));
        }
        cells_total += u64::from(cells);
    }
    let ns = ns_per_op(rec.classifications.len() as u64, || {
        for c in &rec.classifications {
            black_box(nodes[c.node as usize].classify(black_box(&c.header)));
        }
    });
    Ok((ns, cells_total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ps: u64, node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { t_ps, node, event }
    }

    #[test]
    fn classify_pairs_with_the_next_receive_on_its_node() {
        let open = |span, kind, src, dst| TraceEvent::SpanOpen {
            span,
            parent: 0,
            class: SPAN_MSG,
            kind,
            src,
            dst,
            bytes: 16,
        };
        let records = [
            rec(0, 0, open(1, 0xD5, 0, 1)),
            rec(0, 2, open(2, 0xA0, 2, 3)),
            rec(
                5,
                1,
                TraceEvent::Classify {
                    cells: 1,
                    matched: true,
                },
            ),
            rec(
                5,
                3,
                TraceEvent::Classify {
                    cells: 1,
                    matched: false,
                },
            ),
            rec(
                6,
                3,
                TraceEvent::SpanRx {
                    span: 2,
                    rx_nic_ps: 0,
                    sar_ps: 0,
                },
            ),
            rec(
                6,
                1,
                TraceEvent::SpanRx {
                    span: 1,
                    rx_nic_ps: 0,
                    sar_ps: 0,
                },
            ),
        ];
        let r = Recorded::extract(&records);
        assert_eq!(r.unpaired_classify, 0);
        assert_eq!(r.classifications.len(), 2);
        assert_eq!(r.classifications[0].header, [0xA0, 2]);
        assert_eq!(r.classifications[1].header, [0xD5, 0]);
        let cfg = Config::paper_default().with_procs(4);
        let (_, cells) = pathfinder_replay(&cfg, &r).expect("replay matches");
        assert_eq!(cells, 2);
    }

    #[test]
    fn wire_pdus_follow_the_fault_path() {
        let r = Recorded {
            pdus: [SPAN_MSG, SPAN_FRAME, SPAN_ACK, SPAN_FRAME]
                .iter()
                .map(|&class| Pdu {
                    class,
                    kind: 0xD5,
                    src: 0,
                    dst: 1,
                    bytes: 100,
                    t_ps: 0,
                })
                .collect(),
            ..Recorded::default()
        };
        assert_eq!(r.wire_pdus(false).len(), 1);
        assert_eq!(r.wire_pdus(true).len(), 3);
        assert_eq!(r.frames(), 2);
        let cfg = Config::paper_default();
        assert!(aal5_ns_per_pdu(&cfg, &r.pdus).expect("reassembles") > 0.0);
        assert!(fabric_ns_per_pdu(&cfg, &r.pdus).expect("cells agree") > 0.0);
    }
}
