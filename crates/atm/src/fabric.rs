//! The full interconnect seen by a NIC: access links + banyan switch +
//! AAL5 segmentation, with cell-accurate pipelined timing.
//!
//! [`Fabric::send_pdu`] answers the question the NIC model asks: "if node
//! `src` starts handing cells of an `n`-byte PDU to the wire at time `t`
//! (one cell every `cell_gap` of NIC processing), when does each cell — and
//! the whole PDU — arrive at node `dst`?" The computation walks the cells
//! through source link, switch stages and destination link, honouring every
//! next-free-time register, so cross-traffic contention is captured without
//! a per-cell event storm in the simulation kernel.

use crate::aal5::Segmenter;
use crate::link::Link;
use crate::switch::BanyanSwitch;
use crate::topology::Topology;
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

    /// Minimum latency of any cross-host path: two link propagations plus
    /// one switch fall-through. This is the binding minimum for every
    /// topology — a single switch by construction, and a fat-tree on its
    /// same-leaf pairs (longer paths only add trunk hops and switches).
    /// The parallel engine uses it as its conservative lookahead: no cell
    /// handed to the wire at `t` can arrive anywhere before
    /// `t + min_remote_latency()`.
    pub fn min_remote_latency(&self) -> SimTime {
        self.prop_delay + self.prop_delay + self.switch_latency
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

/// The switching core between the access links: the paper's lone banyan,
/// or a fat-tree of leaf/spine banyans joined by trunk links.
enum Interconnect {
    /// Every host port on one banyan switch.
    Single(BanyanSwitch),
    /// 2-level folded Clos (see [`crate::topology`]). Trunk links are
    /// indexed `[leaf * up + spine]` in both directions.
    FatTree {
        down: usize,
        up: usize,
        leaves: Vec<BanyanSwitch>,
        spines: Vec<BanyanSwitch>,
        up_links: Vec<Link>,
        down_links: Vec<Link>,
    },
}

impl Interconnect {
    fn new(cfg: &AtmConfig) -> Self {
        match cfg.topology {
            Topology::Single => {
                Interconnect::Single(BanyanSwitch::new(cfg.ports, cfg.switch_latency))
            }
            Topology::FatTree { leaves, down, up } => Interconnect::FatTree {
                down,
                up,
                leaves: (0..leaves)
                    .map(|_| BanyanSwitch::new(down + up, cfg.switch_latency))
                    .collect(),
                spines: (0..up)
                    .map(|_| BanyanSwitch::new(leaves, cfg.switch_latency))
                    .collect(),
                up_links: (0..leaves * up)
                    .map(|_| Link::new(cfg.link_mbps, cfg.prop_delay))
                    .collect(),
                down_links: (0..leaves * up)
                    .map(|_| Link::new(cfg.link_mbps, cfg.prop_delay))
                    .collect(),
            },
        }
    }

    /// Walk one cell's head through the switching core. The head enters
    /// at `head_at_switch`; each traversed switch stage and trunk link
    /// stays occupied for `occupancy`/its serialisation time behind it.
    /// Returns the time the head exits the last switch. The single-switch
    /// arm is exactly the pre-topology recurrence, so existing timing is
    /// bit-identical.
    fn forward_head(
        &mut self,
        head_at_switch: SimTime,
        src: usize,
        dst: usize,
        occupancy: SimTime,
        per_cell_bytes: usize,
    ) -> SimTime {
        match self {
            Interconnect::Single(sw) => sw.forward(head_at_switch, src, dst, occupancy),
            Interconnect::FatTree {
                down,
                up,
                leaves,
                spines,
                up_links,
                down_links,
            } => {
                let (down, up) = (*down, *up);
                let src_leaf = src / down;
                let dst_leaf = dst / down;
                if src_leaf == dst_leaf {
                    // Same-leaf traffic never leaves the leaf banyan.
                    return leaves[src_leaf].forward(
                        head_at_switch,
                        src % down,
                        dst % down,
                        occupancy,
                    );
                }
                // D-mod-k: the spine is a pure function of the destination,
                // so the route is unique and deterministic.
                let spine = dst % up;
                let t_leaf =
                    leaves[src_leaf].forward(head_at_switch, src % down, down + spine, occupancy);
                let ul = &mut up_links[src_leaf * up + spine];
                let head_up = t_leaf.max(ul.next_free()) + ul.prop_delay();
                ul.transmit(t_leaf, per_cell_bytes);
                let t_spine = spines[spine].forward(head_up, src_leaf, dst_leaf, occupancy);
                let dl = &mut down_links[dst_leaf * up + spine];
                let head_down = t_spine.max(dl.next_free()) + dl.prop_delay();
                dl.transmit(t_spine, per_cell_bytes);
                leaves[dst_leaf].forward(head_down, down + spine, dst % down, occupancy)
            }
        }
    }

    fn cells_forwarded(&self) -> u64 {
        match self {
            Interconnect::Single(sw) => sw.cells_forwarded(),
            Interconnect::FatTree { leaves, spines, .. } => leaves
                .iter()
                .chain(spines.iter())
                .map(BanyanSwitch::cells_forwarded)
                .sum(),
        }
    }

    fn contention_waits(&self) -> u64 {
        match self {
            Interconnect::Single(sw) => sw.contention_waits(),
            Interconnect::FatTree { leaves, spines, .. } => leaves
                .iter()
                .chain(spines.iter())
                .map(BanyanSwitch::contention_waits)
                .sum(),
        }
    }
}

/// The interconnect: one ingress and one egress access link per host plus
/// the switching core — a single banyan switch or a fat-tree of them,
/// per [`Topology`] — between them.
pub struct Fabric {
    cfg: AtmConfig,
    segmenter: Segmenter,
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
        let hosts = cfg.hosts();
        Fabric {
            segmenter: cfg.segmenter(),
            ingress: (0..hosts)
                .map(|_| Link::new(cfg.link_mbps, cfg.prop_delay))
                .collect(),
            egress: (0..hosts)
                .map(|_| Link::new(cfg.link_mbps, cfg.prop_delay))
                .collect(),
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
        let per_cell_bytes = wire_bytes / cells;
        let ser = self.ingress[src].serialization(per_cell_bytes);
        // Internal-link occupancy: a standard cell blocks a banyan link for
        // its serialisation time. The paper's unrestricted-cell-size mode
        // is a *mythical* network with "the same characteristics as ATM but
        // with unlimited cell size" — it removes the fragmentation tax, not
        // interleaving, so a jumbo cell is not allowed to monopolise the
        // switch for its whole (multi-microsecond) length.
        let std_cell = self.ingress[src].serialization(crate::cell::ATM_CELL_BYTES);
        let occupancy = ser.min(std_cell);
        let prop = self.cfg.prop_delay;
        let mut first = SimTime::MAX;
        let mut last = SimTime::ZERO;
        for i in 0..cells {
            let ready = start + SimTime::from_ps(cell_gap.as_ps() * i as u64);
            // Virtual cut-through: the cell's head advances through
            // ingress link → switch stages → egress link as soon as each is
            // free; each hop stays occupied for one serialisation time
            // behind the head, and the last bit trails the head by `ser`.
            let head_start = ready.max(self.ingress[src].next_free());
            self.ingress[src].transmit(ready, per_cell_bytes);
            let head_at_switch = head_start + prop;
            let head_exit =
                self.interconnect
                    .forward_head(head_at_switch, src, dst, occupancy, per_cell_bytes);
            let head_egress = head_exit.max(self.egress[dst].next_free());
            self.egress[dst].transmit(head_egress, per_cell_bytes);
            let arrival = head_egress + ser + prop;
            first = first.min(arrival);
            last = last.max(arrival);
        }
        self.pdus_sent += 1;
        PduTiming {
            first_cell_arrival: first,
            last_cell_arrival: last,
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
    /// latency jitter. With a zero plan this walks the exact same timing
    /// recurrence as `send_pdu` and consumes no RNG draws.
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
        let per_cell_payload = per_cell_bytes - crate::cell::ATM_HEADER_BYTES;
        let ser = self.ingress[src].serialization(per_cell_bytes);
        let std_cell = self.ingress[src].serialization(crate::cell::ATM_CELL_BYTES);
        let occupancy = ser.min(std_cell);
        let prop = self.cfg.prop_delay;
        let mut first: Option<SimTime> = None;
        let mut last: Option<SimTime> = None;
        let mut fates = Vec::with_capacity(cells);
        for i in 0..cells {
            let ready = start + SimTime::from_ps(cell_gap.as_ps() * i as u64);
            let head_start = ready.max(self.ingress[src].next_free());
            self.ingress[src].transmit(ready, per_cell_bytes);
            let fate = inj.cell_fate(head_start.as_ps(), src, per_cell_payload);
            fates.push(fate);
            if fate.is_drop() {
                continue;
            }
            let head_at_switch = head_start + prop;
            let head_exit =
                self.interconnect
                    .forward_head(head_at_switch, src, dst, occupancy, per_cell_bytes);
            let head_egress = head_exit.max(self.egress[dst].next_free());
            self.egress[dst].transmit(head_egress, per_cell_bytes);
            let arrival = head_egress + ser + prop + SimTime::from_ps(inj.jitter_ps());
            first = Some(first.map_or(arrival, |f| f.min(arrival)));
            last = Some(last.map_or(arrival, |l| l.max(arrival)));
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

    /// Total cell-forwarding operations across all switches. On a
    /// fat-tree a cross-leaf cell is counted once per switch it falls
    /// through (leaf, spine, leaf), so this measures switching work, not
    /// delivered cells.
    pub fn cells_forwarded(&self) -> u64 {
        self.interconnect.cells_forwarded()
    }

    /// Stage-link contention events observed across all switches.
    pub fn contention_waits(&self) -> u64 {
        self.interconnect.contention_waits()
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
        let ser = Link::new(622, SimTime::ZERO).serialization(53);
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
        let ser = Link::new(622, SimTime::ZERO).serialization(53);
        let path = SimTime::from_ns(150) + SimTime::from_ns(500) + ser + SimTime::from_ns(150);
        let serialized_tail = SimTime::from_ps(ser.as_ps() * 85);
        assert!(t.last_cell_arrival >= path + serialized_tail.saturating_sub(SimTime::from_ns(1)));
        assert!(t.last_cell_arrival < SimTime::from_ps(2 * (path + serialized_tail).as_ps()));
        assert!(t.first_cell_arrival < t.last_cell_arrival);
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
        assert!(contended.last_cell_arrival > solo.last_cell_arrival);
        assert!(f.contention_waits() > 0);
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
