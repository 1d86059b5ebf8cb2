//! The fabric prices a PDU's cell train in one walk of its route. This
//! property checks that closed form against a reference fabric that walks
//! every cell's head through every hop, one register at a time, written
//! here against the public `cni-atm` items only. On random traffic the
//! two must agree on everything the fabric reports: each PDU's timing and
//! cell fates, every access link's busy time, and the fault injector's
//! counters and next draw.
//!
//! The traffic covers the single switch, two fat-trees and an
//! oversubscribed one; standard, jumbo and custom cells (payloads below
//! and above 48 bytes); send times out of order; cell gaps below and above
//! a cell's serialisation time; and lossless and lossy PDUs interleaved on
//! one fabric under loss, corruption, jitter and a brownout.

use cni_atm::{AtmConfig, CellFate, Fabric, Route, Segmenter, Topology, ATM_CELL_BYTES};
use cni_atm::{FaultyPduTiming, PduTiming, ATM_HEADER_BYTES};
use cni_faults::{BrownoutWindow, FaultInjector, FaultPlan};
use cni_sim::SimTime;
use proptest::prelude::*;

/// A link's next-free register and its busy total.
#[derive(Clone, Copy, Default)]
struct RefLink {
    next_free: SimTime,
    busy: SimTime,
}

impl RefLink {
    /// Put one `ser`-long cell ready at `ready` on the link; returns when
    /// its head starts.
    fn transmit(&mut self, ready: SimTime, ser: SimTime) -> SimTime {
        let head = ready.max(self.next_free);
        self.next_free = head + ser;
        self.busy += ser;
        head
    }
}

/// A banyan switch: one next-free register per stage link.
struct RefSwitch {
    stages: usize,
    stage_latency: SimTime,
    next_free: Vec<Vec<SimTime>>,
}

impl RefSwitch {
    fn new(ports: usize, latency: SimTime) -> Self {
        let stages = ports.trailing_zeros() as usize;
        RefSwitch {
            stages,
            stage_latency: SimTime::from_ps(latency.as_ps() / stages as u64),
            next_free: vec![vec![SimTime::ZERO; ports]; stages],
        }
    }

    /// Forward one cell head arriving at `t`; each stage link it crosses
    /// (destination-tag routed) stays busy `hold` behind it. Returns when
    /// the head leaves the last stage.
    fn forward(&mut self, mut t: SimTime, src: usize, dst: usize, hold: SimTime) -> SimTime {
        for stage in 0..self.stages {
            let low = self.stages - stage - 1;
            let link = ((dst >> low) << low) | (src & ((1 << low) - 1));
            let free = &mut self.next_free[stage][link];
            t = t.max(*free);
            *free = t + hold;
            t += self.stage_latency;
        }
        t
    }
}

/// The fabric, cell by cell.
struct RefFabric {
    cfg: AtmConfig,
    seg: Segmenter,
    down: usize,
    up: usize,
    ingress: Vec<RefLink>,
    egress: Vec<RefLink>,
    leaves: Vec<RefSwitch>,
    spines: Vec<RefSwitch>,
    up_links: Vec<RefLink>,
    down_links: Vec<RefLink>,
}

impl RefFabric {
    fn new(cfg: AtmConfig) -> Self {
        let (leaves, down, up) = match cfg.topology {
            Topology::Single => (1, cfg.ports, 0),
            Topology::FatTree { leaves, down, up } => (leaves, down, up),
        };
        let hosts = cfg.hosts();
        RefFabric {
            seg: cfg.segmenter(),
            down,
            up,
            ingress: vec![RefLink::default(); hosts],
            egress: vec![RefLink::default(); hosts],
            leaves: (0..leaves)
                .map(|_| RefSwitch::new(down + up, cfg.switch_latency))
                .collect(),
            spines: (0..up)
                .map(|_| RefSwitch::new(leaves, cfg.switch_latency))
                .collect(),
            up_links: vec![RefLink::default(); leaves * up],
            down_links: vec![RefLink::default(); leaves * up],
            cfg,
        }
    }

    /// Time to clock `bytes` onto a link.
    fn ser(&self, bytes: usize) -> SimTime {
        let bits = bytes as u128 * 8;
        SimTime::from_ps(
            (bits * 1_000_000_000_000 / (self.cfg.link_mbps as u128 * 1_000_000)) as u64,
        )
    }

    /// Walk one cell head from the switch input to `dst`'s switch output.
    fn core(&mut self, t: SimTime, src: usize, dst: usize, hold: SimTime, ser: SimTime) -> SimTime {
        let (down, up, prop) = (self.down, self.up, self.cfg.prop_delay);
        match self.cfg.topology.route(src, dst) {
            Route::Leaf { switch } => self.leaves[switch].forward(t, src % down, dst % down, hold),
            Route::Spine {
                src_leaf,
                spine,
                dst_leaf,
            } => {
                let t = self.leaves[src_leaf].forward(t, src % down, down + spine, hold);
                let t = self.up_links[src_leaf * up + spine].transmit(t, ser) + prop;
                let t = self.spines[spine].forward(t, src_leaf, dst_leaf, hold);
                let t = self.down_links[dst_leaf * up + spine].transmit(t, ser) + prop;
                self.leaves[dst_leaf].forward(t, down + spine, dst % down, hold)
            }
        }
    }

    /// Send one PDU cell by cell. With an injector each cell draws its
    /// fate as it starts on the ingress link, and a survivor its jitter.
    fn send(
        &mut self,
        start: SimTime,
        src: usize,
        dst: usize,
        len: usize,
        gap: SimTime,
        mut inj: Option<&mut FaultInjector>,
    ) -> FaultyPduTiming {
        let cells = self.seg.cell_count(len);
        let wire_bytes = self.seg.wire_bytes(len);
        let bytes = wire_bytes / cells;
        let ser = self.ser(bytes);
        let hold = ser.min(self.ser(ATM_CELL_BYTES));
        let prop = self.cfg.prop_delay;
        let mut t = FaultyPduTiming {
            first_delivered: None,
            last_delivered: None,
            cells,
            wire_bytes,
            fates: Vec::new(),
        };
        for i in 0..cells as u64 {
            let ready = start + SimTime::from_ps(gap.as_ps() * i);
            let head = self.ingress[src].transmit(ready, ser);
            let fate = match inj.as_deref_mut() {
                Some(inj) => inj.cell_fate(head.as_ps(), src, bytes - ATM_HEADER_BYTES),
                None => CellFate::Deliver,
            };
            t.fates.push(fate);
            if fate.is_drop() {
                continue;
            }
            let exit = self.core(head + prop, src, dst, hold, ser);
            let egress = self.egress[dst].transmit(exit, ser);
            let jitter = inj.as_deref_mut().map_or(0, FaultInjector::jitter_ps);
            let arrival = egress + ser + prop + SimTime::from_ps(jitter);
            t.first_delivered = Some(t.first_delivered.map_or(arrival, |f| f.min(arrival)));
            t.last_delivered = Some(t.last_delivered.map_or(arrival, |l| l.max(arrival)));
        }
        t
    }
}

/// The fabrics under test: the paper's switch, two fat-trees and an
/// oversubscribed one (24 host ports, 8 uplinks per leaf).
const TOPOLOGIES: [Topology; 4] = [
    Topology::Single,
    Topology::FatTree {
        leaves: 4,
        down: 16,
        up: 16,
    },
    Topology::FatTree {
        leaves: 16,
        down: 16,
        up: 16,
    },
    Topology::FatTree {
        leaves: 4,
        down: 24,
        up: 8,
    },
];

/// Standard cells, jumbo cells, and custom payloads below and above 48
/// bytes (a 100-byte payload holds a stage link for less than its `ser`).
const PAYLOADS: [Option<usize>; 4] = [Some(48), None, Some(32), Some(100)];

/// Hosts the traffic picks from: a few ports on the first, second and
/// last leaf, so flows share stage links, uplinks, spines and downlinks.
fn hosts(t: Topology, ports: usize) -> Vec<usize> {
    let (leaves, down, up) = match t {
        Topology::Single => (1, ports, 1),
        Topology::FatTree { leaves, down, up } => (leaves, down, up),
    };
    let mut hs: Vec<usize> = [0, 1, leaves - 1]
        .iter()
        .filter(|&&leaf| leaf < leaves)
        .flat_map(|leaf| [0, 1, up % down, down - 1].map(|port| leaf * down + port))
        .collect();
    hs.sort_unstable();
    hs.dedup();
    hs
}

/// One PDU: send time (ns), source and destination picks, length, cell
/// gap (ns) and whether it takes the lossy path.
type Pdu = (u64, u8, u8, u16, u16, bool);

fn arb_pdus() -> impl Strategy<Value = Vec<Pdu>> {
    proptest::collection::vec(
        (
            0u64..60_000,
            any::<u8>(),
            any::<u8>(),
            1u16..4096,
            0u16..3_000,
            any::<bool>(),
        ),
        1..40,
    )
}

/// A plan with loss, corruption and jitter drawn from the inputs, and a
/// 15 µs brownout of ingress port `port` from `start_ns`.
fn plan(
    drop_pct: u8,
    corrupt_pct: u8,
    jitter_ps: u64,
    seed: u64,
    port: usize,
    start_ns: u64,
) -> FaultPlan {
    FaultPlan {
        drop_prob: f64::from(drop_pct) / 100.0,
        corrupt_prob: f64::from(corrupt_pct) / 100.0,
        jitter_ps,
        seed,
        brownouts: [
            Some(BrownoutWindow {
                link: port as u32,
                start_ps: start_ns * 1_000,
                end_ps: (start_ns + 15_000) * 1_000,
            }),
            None,
            None,
            None,
        ],
    }
}

fn lossless(t: &PduTiming) -> FaultyPduTiming {
    FaultyPduTiming {
        first_delivered: Some(t.first_cell_arrival),
        last_delivered: Some(t.last_cell_arrival),
        cells: t.cells,
        wire_bytes: t.wire_bytes,
        fates: vec![CellFate::Deliver; t.cells],
    }
}

fn same(a: &FaultyPduTiming, b: &FaultyPduTiming) -> bool {
    (
        a.first_delivered,
        a.last_delivered,
        a.cells,
        a.wire_bytes,
        &a.fates,
    ) == (
        b.first_delivered,
        b.last_delivered,
        b.cells,
        b.wire_bytes,
        &b.fates,
    )
}

proptest! {
    fn a_train_priced_in_one_walk_matches_the_per_cell_walk(
        (topology, payload) in (0usize..4, 0usize..4),
        (drop_pct, corrupt_pct, jitter_ps, seed) in (0u8..30, 0u8..20, 0u64..50_000, any::<u64>()),
        out in (any::<u8>(), 0u64..60_000),
        pdus in arb_pdus(),
    ) {
        let cfg = AtmConfig {
            topology: TOPOLOGIES[topology],
            cell_payload: PAYLOADS[payload],
            ..AtmConfig::default()
        };
        let picks = hosts(cfg.topology, cfg.ports);
        let pick = |i: u8| picks[i as usize % picks.len()];
        let plan = plan(drop_pct, corrupt_pct, jitter_ps, seed, pick(out.0), out.1);
        let mut fabric = Fabric::new(cfg);
        let mut reference = RefFabric::new(cfg);
        let mut inj = FaultInjector::new(plan);
        let mut ref_inj = FaultInjector::new(plan);
        for (i, &(start_ns, src, dst, len, gap_ns, lossy)) in pdus.iter().enumerate() {
            let (src, dst) = (pick(src), pick(dst));
            if src == dst {
                continue;
            }
            let (start, gap) = (SimTime::from_ns(start_ns), SimTime::from_ns(u64::from(gap_ns)));
            let len = len as usize;
            let (got, want) = if lossy {
                let got = fabric.send_pdu_faulty(start, src, dst, len, gap, &mut inj);
                (got, reference.send(start, src, dst, len, gap, Some(&mut ref_inj)))
            } else {
                let got = lossless(&fabric.send_pdu(start, src, dst, len, gap));
                (got, reference.send(start, src, dst, len, gap, None))
            };
            prop_assert!(
                same(&got, &want),
                "PDU {i} ({src}->{dst}, {len} B, lossy {lossy}) on {cfg:?}:\n got  {got:?}\n want {want:?}"
            );
        }
        for port in 0..cfg.hosts() {
            let want = (reference.ingress[port].busy, reference.egress[port].busy);
            prop_assert_eq!(fabric.link_busy(port), want);
        }
        prop_assert_eq!(inj.stats(), ref_inj.stats());
        prop_assert_eq!(inj.cell_fate(0, 0, 48), ref_inj.cell_fate(0, 0, 48));
        prop_assert_eq!(inj.jitter_ps(), ref_inj.jitter_ps());
    }
}
