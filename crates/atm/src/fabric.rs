//! The full interconnect seen by a NIC: access links + banyan switch(es) +
//! AAL5 segmentation, with cell-accurate pipelined timing.
//!
//! [`Fabric::send_pdu`] answers the question the NIC model asks: "if node
//! `src` starts handing cells of an `n`-byte PDU to the wire at time `t`
//! (one cell every `cell_gap` of NIC processing), when does the first
//! cell — and the whole PDU — arrive at node `dst`?" Every resource on the
//! route keeps a next-free-time register: the ingress link, each switch
//! stage link, each trunk link and the egress link. A cell's head waits
//! for each register, so cross-traffic contention is captured without a
//! per-cell event storm in the simulation kernel.
//!
//! # A train priced in one walk of its route
//!
//! The fabric prices a PDU's whole cell train in one walk of its route
//! ([`Topology::route`]), exactly to the picosecond, instead of walking
//! each cell through each hop. No hop after the ingress holds a cell for
//! longer than the ingress serialisation time `ser`: a stage link holds it
//! for `min(ser, std_cell)`, a trunk or egress link for `ser`. So the
//! ingress spaces a train's cells at least `ser` apart, and they never
//! queue behind each other downstream: the k-th cell to reach the switch
//! waits only on what earlier PDUs left in the registers. Let
//!
//! * `F_l` be hop `l`'s register before the PDU,
//! * `D_{l→j}` the sum of hop latencies from hop `l` to hop `j`,
//! * `M_{l..j}` the longest hold on hops `l..=j`, and
//! * `a_k` the switch arrival of the k-th cell that survives.
//!
//! Then that cell's head starts on hop `j` at
//!
//! ```text
//! max(a_k + D_{1→j}, max_l (F_l + D_{l→j} + k·M_{l..j}))
//! ```
//!
//! and hop `j`'s register ends the PDU at that time for the last survivor,
//! plus the hop's hold. The ingress head of cell `i` is
//! `max(F_0 + i·ser, start + i·max(cell_gap, ser))`, and a cell arrives
//! `ser` plus one propagation delay after its head starts on the egress
//! link. The egress link holds a cell for `ser`, the longest hold of all,
//! so `M_{l..egress}` is `ser` for every `l`, and a cell's arrival needs
//! only the route's latency and its floor (`max_l (F_l + D_{l→egress})`).
//! A lossless PDU evaluates it for its first and last cell, a lossy one
//! once per cell as it draws that cell's fate and jitter.
//! `crates/atm/tests/train_timing.rs` checks both paths against a
//! per-cell reference walk.

use crate::aal5::{Segmenter, AAL5_MAX_PDU, AAL5_TRAILER_BYTES};
use crate::cell::{ATM_CELL_BYTES, ATM_HEADER_BYTES};
use crate::link::{times, Link};
use crate::switch::BanyanSwitch;
use crate::topology::{Route, Topology};
use cni_faults::{CellFate, FaultInjector};
use cni_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Interconnect parameters (the network rows of the paper's Table 1).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AtmConfig {
    /// Switch port count when [`AtmConfig::topology`] is
    /// [`Topology::Single`]; must be a power of two. The paper models a
    /// 32-port banyan switch. Ignored for fat-trees, whose host count
    /// comes from their own shape.
    pub ports: usize,
    /// Link rate in Mb/s (622 = STS-12); access and inter-switch trunk
    /// links run at the same rate.
    pub link_mbps: u64,
    /// End-to-end fall-through latency of each switch (500 ns).
    pub switch_latency: SimTime,
    /// Propagation delay of each access and trunk link ("network
    /// latency", 150 ns).
    pub prop_delay: SimTime,
    /// Cell payload bytes; `None` = unrestricted cell size (Table 5 mode).
    pub cell_payload: Option<usize>,
    /// Arrangement of switches between the hosts (single switch or
    /// 2-level fat-tree); see [`crate::topology`].
    pub topology: Topology,
}

impl Default for AtmConfig {
    fn default() -> Self {
        AtmConfig {
            ports: 32,
            link_mbps: 622,
            switch_latency: SimTime::from_ns(500),
            prop_delay: SimTime::from_ns(150),
            cell_payload: Some(crate::cell::ATM_PAYLOAD_BYTES),
            topology: Topology::Single,
        }
    }
}

impl AtmConfig {
    /// The segmenter implied by this configuration.
    pub fn segmenter(&self) -> Segmenter {
        match self.cell_payload {
            Some(p) => Segmenter::with_cell_payload(p),
            None => Segmenter::unrestricted(),
        }
    }

    /// Number of hosts this fabric serves: the switch port count for a
    /// single switch, `leaves * down` for a fat-tree.
    pub fn hosts(&self) -> usize {
        self.topology.hosts(self.ports)
    }

    /// `Err` naming the first parameter no fabric can be built from: a
    /// topology shape [`Topology::validate`] refuses, a cell payload
    /// outside 1 to [`AAL5_MAX_PDU`] + [`AAL5_TRAILER_BYTES`] bytes (the
    /// largest frame one cell can carry), or a link rate of 0 Mb/s or one
    /// whose bits per second overflow a `u64`.
    pub fn check(&self) -> Result<(), String> {
        self.topology.validate(self.ports)?;
        let max_payload = AAL5_MAX_PDU + AAL5_TRAILER_BYTES;
        if let Some(p) = self.cell_payload {
            if !(1..=max_payload).contains(&p) {
                return Err(format!(
                    "cell_payload must be between 1 and {max_payload} bytes, got {p}"
                ));
            }
        }
        let max_mbps = u64::MAX / 1_000_000;
        if !(1..=max_mbps).contains(&self.link_mbps) {
            return Err(format!(
                "link_mbps must be between 1 and {max_mbps}, got {}",
                self.link_mbps
            ));
        }
        Ok(())
    }
}

/// Timing of one PDU through the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PduTiming {
    /// Arrival of the first cell at the destination NIC.
    pub first_cell_arrival: SimTime,
    /// Arrival of the last cell (the PDU is deliverable from this moment).
    pub last_cell_arrival: SimTime,
    /// Number of cells the PDU occupied.
    pub cells: usize,
    /// Total bytes placed on the wire (headers + pad + trailer included).
    pub wire_bytes: usize,
}

/// Timing of one PDU through a fabric with fault injection enabled: the
/// per-cell verdicts plus the arrival window of the cells that survived.
#[derive(Clone, Debug)]
pub struct FaultyPduTiming {
    /// Arrival of the earliest surviving cell, if any survived.
    pub first_delivered: Option<SimTime>,
    /// Arrival of the latest surviving cell (reassembly can complete no
    /// earlier than this), if any survived.
    pub last_delivered: Option<SimTime>,
    /// Number of cells the PDU occupied on the wire.
    pub cells: usize,
    /// Total bytes placed on the wire (headers + pad + trailer included).
    pub wire_bytes: usize,
    /// The injector's verdict for each cell, in transmission order.
    pub fates: Vec<CellFate>,
}

impl FaultyPduTiming {
    /// True when the final cell — the one carrying the AAL5 end-of-PDU
    /// marker — reached the destination, so reassembly completes there.
    pub fn eop_delivered(&self) -> bool {
        matches!(self.fates.last(), Some(f) if !f.is_drop())
    }
}

/// One hop of a route through the switching core.
#[derive(Clone, Copy)]
enum Hop {
    /// An internal link of a switch stage, crossed in the stage latency.
    Stage(SimTime),
    /// A trunk link between a leaf and a spine, crossed in its
    /// propagation delay.
    Trunk,
}

/// The switching core between the access links: the paper's lone banyan,
/// or a fat-tree of leaf/spine banyans joined by trunk links.
struct Interconnect {
    /// Host ports per leaf: every port of the lone switch, or `down`.
    down: usize,
    /// Uplinks per leaf, one to each spine; 0 for the lone switch.
    up: usize,
    /// The lone switch, or the fat-tree's leaf switches.
    leaves: Vec<BanyanSwitch>,
    /// The fat-tree's spine switches.
    spines: Vec<BanyanSwitch>,
    /// Next-free registers of the leaf-to-spine trunk links, indexed
    /// `[leaf * up + spine]`.
    up_links: Vec<SimTime>,
    /// Next-free registers of the spine-to-leaf trunk links, indexed
    /// `[leaf * up + spine]`.
    down_links: Vec<SimTime>,
}

impl Interconnect {
    fn new(cfg: &AtmConfig) -> Self {
        let (leaves, down, up) = match cfg.topology {
            Topology::Single => (1, cfg.ports, 0),
            Topology::FatTree { leaves, down, up } => (leaves, down, up),
        };
        let switch = |ports| BanyanSwitch::new(ports, cfg.switch_latency);
        Interconnect {
            down,
            up,
            leaves: (0..leaves).map(|_| switch(down + up)).collect(),
            spines: (0..up).map(|_| switch(leaves)).collect(),
            up_links: vec![SimTime::ZERO; leaves * up],
            down_links: vec![SimTime::ZERO; leaves * up],
        }
    }

    /// Visit the register of every hop `route` takes from `src`'s switch
    /// input to `dst`'s switch output, in the order a cell's head crosses
    /// them: leaf → uplink → spine → downlink → leaf across a fat-tree.
    fn hops(
        &mut self,
        route: Route,
        src: usize,
        dst: usize,
        mut visit: impl FnMut(&mut SimTime, Hop),
    ) {
        let (down, up) = (self.down, self.up);
        match route {
            Route::Leaf { switch } => {
                cross(&mut self.leaves[switch], src % down, dst % down, &mut visit);
            }
            Route::Spine {
                src_leaf,
                spine,
                dst_leaf,
            } => {
                cross(
                    &mut self.leaves[src_leaf],
                    src % down,
                    down + spine,
                    &mut visit,
                );
                visit(&mut self.up_links[src_leaf * up + spine], Hop::Trunk);
                cross(&mut self.spines[spine], src_leaf, dst_leaf, &mut visit);
                visit(&mut self.down_links[dst_leaf * up + spine], Hop::Trunk);
                cross(
                    &mut self.leaves[dst_leaf],
                    down + spine,
                    dst % down,
                    &mut visit,
                );
            }
        }
    }
}

/// Visit the stage registers a cell from port `from` to port `to` of `sw`
/// crosses.
fn cross(sw: &mut BanyanSwitch, from: usize, to: usize, visit: &mut impl FnMut(&mut SimTime, Hop)) {
    let stage = Hop::Stage(sw.stage_latency());
    for free in sw.path(from, to) {
        visit(free, stage);
    }
}

/// The closed form of the module docs, evaluated hop by hop along a
/// route. After the egress hop it prices any surviving cell's arrival
/// ([`Walk::arrival`]).
struct Walk {
    /// Serialisation time of one cell on an access or trunk link.
    ser: SimTime,
    /// `a_K`: the switch arrival of the train's last surviving cell.
    last: SimTime,
    /// `K`: that cell's rank among the survivors.
    k: u64,
    /// `D_{1→j}`: hop latency from the switch input to hop `j`.
    latency: SimTime,
    /// `max_l (F_l + D_{l→j})`: the earliest earlier PDUs let a cell
    /// start on hop `j`.
    floor: SimTime,
    /// `max_l (F_l + D_{l→j} + K·M_{l..j})`: the earliest they let the
    /// last survivor start there.
    bound: SimTime,
}

impl Walk {
    /// Take the next hop: its register reads `free`, it holds each cell
    /// for `hold`, and a head leaves it `latency` after starting on it.
    /// Returns when the last survivor's head starts on it.
    fn hop(&mut self, free: SimTime, hold: SimTime, latency: SimTime) -> SimTime {
        self.floor = self.floor.max(free);
        self.bound = if hold < self.ser {
            // A stage link holding cells for less than `ser` adds its own
            // slope; hops behind it keep theirs.
            self.bound.max(free + times(hold, self.k))
        } else {
            // A hop holding cells for `ser` sets the slope of every hop
            // behind it too.
            self.floor + times(self.ser, self.k)
        };
        let head = (self.last + self.latency).max(self.bound);
        self.latency += latency;
        self.floor += latency;
        self.bound += latency;
        head
    }

    /// Arrival at the destination of the surviving cell of rank `k` that
    /// reached the switch at `at_switch`, once the walk has taken the
    /// egress hop (whose latency includes the cell's `ser` and the
    /// propagation delay).
    fn arrival(&self, at_switch: SimTime, k: u64) -> SimTime {
        (at_switch + self.latency).max(self.floor + times(self.ser, k))
    }
}

/// The interconnect: one ingress and one egress access link per host plus
/// the switching core — a single banyan switch or a fat-tree of them,
/// per [`Topology`] — between them.
pub struct Fabric {
    cfg: AtmConfig,
    segmenter: Segmenter,
    /// Serialisation time of a standard cell: a switch stage link holds
    /// no cell for longer.
    std_cell: SimTime,
    ingress: Vec<Link>,
    egress: Vec<Link>,
    interconnect: Interconnect,
    pdus_sent: u64,
}

impl Fabric {
    /// Build a fabric from configuration. Panics when the topology shape
    /// violates the banyan building block's constraints (construction
    /// time only; see [`Topology::validate`]).
    pub fn new(cfg: AtmConfig) -> Self {
        if let Err(e) = cfg.topology.validate(cfg.ports) {
            panic!("invalid fabric topology: {e}");
        }
        let link = || Link::new(cfg.link_mbps);
        let links = || (0..cfg.hosts()).map(|_| link()).collect();
        Fabric {
            segmenter: cfg.segmenter(),
            std_cell: link().serialization(ATM_CELL_BYTES),
            ingress: links(),
            egress: links(),
            interconnect: Interconnect::new(&cfg),
            pdus_sent: 0,
            cfg,
        }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &AtmConfig {
        &self.cfg
    }

    /// The segmenter used for PDUs on this fabric.
    pub fn segmenter(&self) -> Segmenter {
        self.segmenter
    }

    /// Send a `pdu_len`-byte PDU from `src` to `dst`. The sending NIC makes
    /// cell `i` available at `start + i * cell_gap` (`cell_gap` models
    /// per-cell segmentation work on the NIC processor).
    pub fn send_pdu(
        &mut self,
        start: SimTime,
        src: usize,
        dst: usize,
        pdu_len: usize,
        cell_gap: SimTime,
    ) -> PduTiming {
        debug_assert!(
            src < self.cfg.hosts() && dst < self.cfg.hosts(),
            "host out of range"
        );
        debug_assert_ne!(src, dst, "PDU to self does not traverse the fabric");
        let cells = self.segmenter.cell_count(pdu_len);
        let wire_bytes = self.segmenter.wire_bytes(pdu_len);
        // Cell size on the wire: equal split of the PDU across cells.
        let ser = self.ingress[src].serialization(wire_bytes / cells);
        let k = cells as u64 - 1;
        let ingress = &mut self.ingress[src];
        let first = ingress.head(start, cell_gap, ser, 0) + self.cfg.prop_delay;
        let last_head = ingress.head(start, cell_gap, ser, k);
        ingress.carry(last_head, k + 1, ser);
        let last = last_head + self.cfg.prop_delay;
        let walk = self.walk_route(src, dst, ser, Some((last, k)));
        self.pdus_sent += 1;
        PduTiming {
            first_cell_arrival: walk.arrival(first, 0),
            last_cell_arrival: walk.arrival(last, k),
            cells,
            wire_bytes,
        }
    }

    /// [`Fabric::send_pdu`] with fault injection: each cell asks the
    /// injector for its fate as it enters the fabric. A dropped cell still
    /// occupies the ingress link (the NIC did transmit it) but is discarded
    /// at the switch input and never touches the switch stages or the
    /// egress link; a corrupted cell travels the full path with normal
    /// timing; a delivered cell may additionally be delayed by the plan's
    /// latency jitter. The draws run in transmission order: cell `i`'s
    /// fate, then its jitter if it survived. With a zero plan this prices
    /// exactly what `send_pdu` does and consumes no RNG draws.
    pub fn send_pdu_faulty(
        &mut self,
        start: SimTime,
        src: usize,
        dst: usize,
        pdu_len: usize,
        cell_gap: SimTime,
        inj: &mut FaultInjector,
    ) -> FaultyPduTiming {
        debug_assert!(
            src < self.cfg.hosts() && dst < self.cfg.hosts(),
            "host out of range"
        );
        debug_assert_ne!(src, dst, "PDU to self does not traverse the fabric");
        let cells = self.segmenter.cell_count(pdu_len);
        let wire_bytes = self.segmenter.wire_bytes(pdu_len);
        let per_cell_bytes = wire_bytes / cells;
        let ser = self.ingress[src].serialization(per_cell_bytes);
        let prop = self.cfg.prop_delay;
        // The route's floor first: it only reads the registers this PDU
        // finds, and every cell's arrival needs it.
        let walk = self.walk_route(src, dst, ser, None);
        let ingress = &mut self.ingress[src];
        let mut first: Option<SimTime> = None;
        let mut last: Option<SimTime> = None;
        // The last surviving cell so far: its switch arrival and rank.
        let mut survivor: Option<(SimTime, u64)> = None;
        let mut fates = Vec::with_capacity(cells);
        let mut head = SimTime::ZERO;
        for i in 0..cells as u64 {
            head = ingress.head(start, cell_gap, ser, i);
            let fate = inj.cell_fate(head.as_ps(), src, per_cell_bytes - ATM_HEADER_BYTES);
            fates.push(fate);
            if fate.is_drop() {
                continue;
            }
            let rank = survivor.map_or(0, |(_, k)| k + 1);
            let at_switch = head + prop;
            let arrival = walk.arrival(at_switch, rank) + SimTime::from_ps(inj.jitter_ps());
            first = Some(first.map_or(arrival, |f| f.min(arrival)));
            last = Some(last.map_or(arrival, |l| l.max(arrival)));
            survivor = Some((at_switch, rank));
        }
        ingress.carry(head, cells as u64, ser);
        if survivor.is_some() {
            self.walk_route(src, dst, ser, survivor);
        }
        self.pdus_sent += 1;
        FaultyPduTiming {
            first_delivered: first,
            last_delivered: last,
            cells,
            wire_bytes,
            fates,
        }
    }

    /// Walk the route from `src`'s switch input to `dst`, the egress link
    /// included, pricing a train of `ser`-long cells against the
    /// registers earlier PDUs left. Given the switch arrival and rank of
    /// the train's last surviving cell, also leave every register on the
    /// route where that cell leaves it; given `None`, change nothing.
    fn walk_route(
        &mut self,
        src: usize,
        dst: usize,
        ser: SimTime,
        last: Option<(SimTime, u64)>,
    ) -> Walk {
        let (at_switch, k) = last.unwrap_or((SimTime::ZERO, 0));
        let mut walk = Walk {
            ser,
            last: at_switch,
            k,
            latency: SimTime::ZERO,
            floor: SimTime::ZERO,
            bound: SimTime::ZERO,
        };
        // Internal-link occupancy: a standard cell blocks a banyan link for
        // its serialisation time. The paper's unrestricted-cell-size mode
        // is a *mythical* network with "the same characteristics as ATM but
        // with unlimited cell size" — it removes the fragmentation tax, not
        // interleaving, so a jumbo cell is not allowed to monopolise the
        // switch for its whole (multi-microsecond) length.
        let stage_hold = ser.min(self.std_cell);
        let prop = self.cfg.prop_delay;
        let route = self.cfg.topology.route(src, dst);
        self.interconnect.hops(route, src, dst, |free, hop| {
            let (hold, latency) = match hop {
                Hop::Stage(latency) => (stage_hold, latency),
                Hop::Trunk => (ser, prop),
            };
            let head = walk.hop(*free, hold, latency);
            if last.is_some() {
                *free = head + hold;
            }
        });
        // The last bit leaves the egress link `ser` after the head, and
        // reaches the host one propagation delay later.
        let egress = &mut self.egress[dst];
        let head = walk.hop(egress.next_free(), ser, ser + prop);
        if last.is_some() {
            egress.carry(head, k + 1, ser);
        }
        walk
    }

    /// Total PDUs sent through the fabric.
    pub fn pdus_sent(&self) -> u64 {
        self.pdus_sent
    }

    /// Cumulative wire-occupancy time of `port`'s access links since
    /// construction: `(ingress, egress)` serialisation totals. Sampled by
    /// the utilization profiler; deltas over an interval give the link
    /// occupancy fraction.
    pub fn link_busy(&self, port: usize) -> (SimTime, SimTime) {
        (
            self.ingress[port].busy_time(),
            self.egress[port].busy_time(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ATM_HEADER_BYTES;

    fn fabric() -> Fabric {
        Fabric::new(AtmConfig::default())
    }

    #[test]
    fn single_cell_pdu_latency_decomposes() {
        let mut f = fabric();
        // 40-byte PDU -> exactly one 53-byte cell.
        let t = f.send_pdu(SimTime::ZERO, 0, 1, 40, SimTime::ZERO);
        assert_eq!(t.cells, 1);
        let ser = Link::new(622).serialization(53);
        // Cut-through: propagation + switch fall-through + one
        // serialisation + propagation.
        let expect = SimTime::from_ns(150) + SimTime::from_ns(500) + ser + SimTime::from_ns(150);
        assert_eq!(t.last_cell_arrival, expect);
        assert_eq!(t.first_cell_arrival, t.last_cell_arrival);
    }

    #[test]
    fn multi_cell_pdu_pipelines() {
        let mut f = fabric();
        let t = f.send_pdu(SimTime::ZERO, 2, 9, 4096, SimTime::ZERO);
        assert_eq!(t.cells, 86);
        // Pipelined: total ≈ per-cell path latency + 85 cell serialisations,
        // far less than 86 × full path latency.
        let ser = Link::new(622).serialization(53);
        let path = SimTime::from_ns(150) + SimTime::from_ns(500) + ser + SimTime::from_ns(150);
        let serialized_tail = SimTime::from_ps(ser.as_ps() * 85);
        assert!(t.last_cell_arrival >= path + serialized_tail.saturating_sub(SimTime::from_ns(1)));
        assert!(t.last_cell_arrival < SimTime::from_ps(2 * (path + serialized_tail).as_ps()));
        assert!(t.first_cell_arrival < t.last_cell_arrival);
    }

    #[test]
    fn pdus_sent_and_link_busy_account_every_cell() {
        use cni_faults::{BrownoutWindow, FaultInjector, FaultPlan};
        let mut f = fabric();
        assert_eq!(
            (f.pdus_sent(), f.link_busy(2)),
            (0, (SimTime::ZERO, SimTime::ZERO))
        );
        let t = f.send_pdu(SimTime::ZERO, 2, 9, 4096, SimTime::ZERO);
        let ser = Link::new(622).serialization(53);
        let train = SimTime::from_ps(ser.as_ps() * t.cells as u64);
        assert_eq!(f.pdus_sent(), 1);
        // The source's ingress and the sink's egress carry every cell.
        assert_eq!(f.link_busy(2), (train, SimTime::ZERO));
        assert_eq!(f.link_busy(9), (SimTime::ZERO, train));
        // A dropped cell still occupies its ingress link, never the egress.
        let outage = BrownoutWindow {
            link: 2,
            start_ps: 0,
            end_ps: u64::MAX,
        };
        let mut drop_all = FaultInjector::new(FaultPlan {
            brownouts: [Some(outage), None, None, None],
            ..FaultPlan::none()
        });
        let ft = f.send_pdu_faulty(SimTime::ZERO, 2, 9, 4096, SimTime::ZERO, &mut drop_all);
        assert!(ft.fates.iter().all(|fate| fate.is_drop()), "{:?}", ft.fates);
        assert_eq!(f.pdus_sent(), 2);
        assert_eq!(f.link_busy(2).0, SimTime::from_ps(2 * train.as_ps()));
        assert_eq!(f.link_busy(9).1, train);
    }

    #[test]
    fn jumbo_mode_sends_one_cell() {
        let mut f = Fabric::new(AtmConfig {
            cell_payload: None,
            ..AtmConfig::default()
        });
        let t = f.send_pdu(SimTime::ZERO, 0, 1, 4096, SimTime::ZERO);
        assert_eq!(t.cells, 1);
        assert_eq!(t.wire_bytes, 4096 + 8 + ATM_HEADER_BYTES);
    }

    #[test]
    fn jumbo_beats_standard_for_page_transfer() {
        let mut std_f = fabric();
        let mut jumbo = Fabric::new(AtmConfig {
            cell_payload: None,
            ..AtmConfig::default()
        });
        let a = std_f.send_pdu(SimTime::ZERO, 0, 1, 4096, SimTime::from_ns(300));
        let b = jumbo.send_pdu(SimTime::ZERO, 0, 1, 4096, SimTime::from_ns(300));
        assert!(
            b.last_cell_arrival < a.last_cell_arrival,
            "jumbo {b:?} should beat standard {a:?}"
        );
    }

    #[test]
    fn cross_traffic_to_same_port_serialises() {
        let mut f = fabric();
        let solo = {
            let mut g = fabric();
            g.send_pdu(SimTime::ZERO, 0, 5, 4096, SimTime::ZERO)
        };
        f.send_pdu(SimTime::ZERO, 1, 5, 4096, SimTime::ZERO);
        let contended = f.send_pdu(SimTime::ZERO, 0, 5, 4096, SimTime::ZERO);
        // Both trains reach the final stage link and the egress link
        // together; the second waits out every cell of the first there.
        let ser = Link::new(622).serialization(53);
        let train = SimTime::from_ps(ser.as_ps() * solo.cells as u64);
        assert_eq!(
            contended.first_cell_arrival,
            solo.first_cell_arrival + train
        );
        assert_eq!(contended.last_cell_arrival, solo.last_cell_arrival + train);
    }

    // `send_pdu` checks its endpoints with a `debug_assert!`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "to self")]
    fn self_send_rejected() {
        let mut f = fabric();
        let _ = f.send_pdu(SimTime::ZERO, 3, 3, 100, SimTime::ZERO);
    }

    #[test]
    fn faulty_path_with_zero_plan_matches_lossless_timing() {
        use cni_faults::{FaultInjector, FaultPlan};
        let mut a = fabric();
        let mut b = fabric();
        let mut inj = FaultInjector::new(FaultPlan::none());
        for i in 0..10u64 {
            let t = a.send_pdu(SimTime::from_ns(i * 400), 1, 6, 2048, SimTime::from_ns(300));
            let ft = b.send_pdu_faulty(
                SimTime::from_ns(i * 400),
                1,
                6,
                2048,
                SimTime::from_ns(300),
                &mut inj,
            );
            assert!(ft.eop_delivered());
            assert_eq!(ft.first_delivered, Some(t.first_cell_arrival));
            assert_eq!(ft.last_delivered, Some(t.last_cell_arrival));
            assert_eq!(ft.cells, t.cells);
            assert_eq!(ft.wire_bytes, t.wire_bytes);
        }
        assert_eq!(inj.stats().cells_dropped, 0);
    }

    #[test]
    fn faulty_path_drops_and_reproduces_by_seed() {
        use cni_faults::{CellFate, FaultInjector, FaultPlan};
        let plan = FaultPlan {
            drop_prob: 0.3,
            corrupt_prob: 0.1,
            jitter_ps: 10_000,
            seed: 0xF00D,
            ..FaultPlan::none()
        };
        let run = || {
            let mut f = fabric();
            let mut inj = FaultInjector::new(plan);
            let mut fates = Vec::new();
            let mut lasts = Vec::new();
            for i in 0..20u64 {
                let ft = f.send_pdu_faulty(
                    SimTime::from_ns(i * 500),
                    (i % 4) as usize,
                    4 + (i % 4) as usize,
                    2048,
                    SimTime::from_ns(300),
                    &mut inj,
                );
                fates.extend(ft.fates.iter().copied());
                lasts.push(ft.last_delivered);
            }
            (fates, lasts, inj.stats())
        };
        let (fates, lasts, stats) = run();
        assert_eq!((fates.clone(), lasts.clone(), stats), run());
        assert!(stats.cells_dropped > 0);
        assert!(stats.cells_corrupted > 0);
        assert!(fates.iter().any(|f| matches!(f, CellFate::Drop)));
    }

    #[test]
    fn brownout_window_silences_one_ingress_port() {
        use cni_faults::{BrownoutWindow, FaultInjector, FaultPlan};
        let plan = FaultPlan {
            brownouts: [
                Some(BrownoutWindow {
                    link: 0,
                    start_ps: 0,
                    end_ps: u64::MAX,
                }),
                None,
                None,
                None,
            ],
            ..FaultPlan::none()
        };
        let mut f = fabric();
        let mut inj = FaultInjector::new(plan);
        let dead = f.send_pdu_faulty(SimTime::ZERO, 0, 1, 1024, SimTime::ZERO, &mut inj);
        assert!(dead.last_delivered.is_none());
        assert!(!dead.eop_delivered());
        let alive = f.send_pdu_faulty(SimTime::ZERO, 2, 1, 1024, SimTime::ZERO, &mut inj);
        assert!(alive.eop_delivered());
        assert_eq!(inj.stats().brownout_cells, dead.cells as u64);
    }

    fn ft_fabric() -> Fabric {
        Fabric::new(AtmConfig {
            topology: Topology::FatTree {
                leaves: 4,
                down: 16,
                up: 16,
            },
            ..AtmConfig::default()
        })
    }

    #[test]
    fn fat_tree_serves_leaves_times_down_hosts() {
        let f = ft_fabric();
        assert_eq!(f.config().hosts(), 64);
        let t = f.config().topology;
        assert_eq!(t.oversubscription(), 1.0);
        assert_eq!(t.leaf_of(17), 1);
    }

    #[test]
    fn fat_tree_same_leaf_matches_single_switch_timing() {
        // A 32-port leaf banyan (down=16 + up=16) has the same stage
        // structure as the paper's 32-port switch, so same-leaf traffic
        // must time out identically to the single-switch fabric.
        let mut single = fabric();
        let mut ft = ft_fabric();
        for i in 0..8u64 {
            let a = single.send_pdu(
                SimTime::from_ns(i * 300),
                (i % 4) as usize,
                8 + (i % 4) as usize,
                2048,
                SimTime::from_ns(300),
            );
            let b = ft.send_pdu(
                SimTime::from_ns(i * 300),
                (i % 4) as usize,
                8 + (i % 4) as usize,
                2048,
                SimTime::from_ns(300),
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fat_tree_cross_leaf_adds_two_switches_and_two_trunks() {
        let mut ft = ft_fabric();
        // Single cell, idle fabric: cross-leaf latency exceeds same-leaf
        // by exactly two extra switch fall-throughs + two trunk
        // propagation delays (cut-through hides trunk serialisation).
        let local = ft.send_pdu(SimTime::ZERO, 0, 1, 40, SimTime::ZERO);
        let mut ft2 = ft_fabric();
        let remote = ft2.send_pdu(SimTime::ZERO, 0, 33, 40, SimTime::ZERO);
        let extra = SimTime::from_ps(2 * (SimTime::from_ns(500) + SimTime::from_ns(150)).as_ps());
        assert_eq!(remote.last_cell_arrival, local.last_cell_arrival + extra);
    }

    #[test]
    fn fat_tree_shared_uplink_contends() {
        let mut ft = ft_fabric();
        // dst 16 and dst 32 both hash to spine 0; both flows leave leaf 0,
        // so they serialise on the same uplink.
        let solo = {
            let mut g = ft_fabric();
            g.send_pdu(SimTime::ZERO, 0, 16, 4096, SimTime::ZERO)
        };
        ft.send_pdu(SimTime::ZERO, 1, 32, 4096, SimTime::ZERO);
        let contended = ft.send_pdu(SimTime::ZERO, 0, 16, 4096, SimTime::ZERO);
        assert!(
            contended.last_cell_arrival > solo.last_cell_arrival,
            "shared uplink must delay: {solo:?} vs {contended:?}"
        );
    }

    #[test]
    fn fat_tree_deterministic_across_runs() {
        let run = || {
            let mut f = ft_fabric();
            let mut acc = Vec::new();
            for i in 0..40 {
                let t = f.send_pdu(
                    SimTime::from_ns(i * 100),
                    (i as usize) % 64,
                    (i as usize + 23) % 64,
                    1024,
                    SimTime::from_ns(200),
                );
                acc.push((t.first_cell_arrival, t.last_cell_arrival));
            }
            acc
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid fabric topology")]
    fn bad_fat_tree_shape_rejected() {
        let _ = Fabric::new(AtmConfig {
            topology: Topology::FatTree {
                leaves: 3,
                down: 16,
                up: 16,
            },
            ..AtmConfig::default()
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut f = fabric();
            let mut acc = Vec::new();
            for i in 0..20 {
                let t = f.send_pdu(
                    SimTime::from_ns(i * 100),
                    (i as usize) % 32,
                    (i as usize + 7) % 32,
                    1024,
                    SimTime::from_ns(200),
                );
                acc.push(t.last_cell_arrival);
            }
            acc
        };
        assert_eq!(run(), run());
    }
}
