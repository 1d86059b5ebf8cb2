//! Banyan switch fabric model.
//!
//! The paper's switch latencies come from "a 32-port banyan-network based
//! ATM switch model". A banyan network for `N = 2^k` ports is `k` stages of
//! 2×2 crossbars routed by destination-tag bits; a cell from any input to a
//! given output traverses exactly one internal link per stage, and two cells
//! contend when their paths share such a link. We model each internal link
//! with a next-free-time register (one new cell per cell-time) and split the
//! quoted end-to-end switch latency evenly across the stages.

use cni_sim::SimTime;

/// A multistage banyan switch with virtual cut-through forwarding: a
/// cell's head advances as soon as each stage link is free, and the link
/// stays occupied for the cell's serialisation time behind it.
#[derive(Clone, Debug)]
pub struct BanyanSwitch {
    ports: usize,
    stages: usize,
    stage_latency: SimTime,
    /// `next_free[stage][link]`: earliest time the link after `stage` can
    /// accept a new cell.
    next_free: Vec<Vec<SimTime>>,
    cells_forwarded: u64,
    contention_waits: u64,
}

impl BanyanSwitch {
    /// A switch with `ports` ports (power of two) and a total fall-through
    /// latency of `switch_latency`.
    pub fn new(ports: usize, switch_latency: SimTime) -> Self {
        assert!(
            ports.is_power_of_two() && ports >= 2,
            "ports must be a power of two >= 2"
        );
        let stages = ports.trailing_zeros() as usize;
        BanyanSwitch {
            ports,
            stages,
            stage_latency: SimTime::from_ps(switch_latency.as_ps() / stages as u64),
            next_free: vec![vec![SimTime::ZERO; ports]; stages],
            cells_forwarded: 0,
            contention_waits: 0,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of crossbar stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The internal link index a `src`→`dst` cell occupies after `stage`.
    ///
    /// Destination-tag routing: after stage `s` the cell's current address
    /// has its top `s+1` bits replaced by the destination's top `s+1` bits.
    fn stage_link(&self, stage: usize, src: usize, dst: usize) -> usize {
        let k = self.stages;
        let high_bits = stage + 1;
        let low_mask = (1usize << (k - high_bits)) - 1;
        let high = dst >> (k - high_bits) << (k - high_bits);
        high | (src & low_mask)
    }

    /// Forward one cell whose *head* arrives at the switch input at
    /// `arrival` and whose body occupies each traversed link for
    /// `occupancy` (its serialisation time). Returns the time the head
    /// leaves the last stage.
    pub fn forward(
        &mut self,
        arrival: SimTime,
        src: usize,
        dst: usize,
        occupancy: SimTime,
    ) -> SimTime {
        debug_assert!(src < self.ports && dst < self.ports, "port out of range");
        let mut t = arrival;
        for stage in 0..self.stages {
            let link = self.stage_link(stage, src, dst);
            let free = self.next_free[stage][link];
            if free > t {
                self.contention_waits += 1;
                t = free;
            }
            self.next_free[stage][link] = t + occupancy;
            t += self.stage_latency;
        }
        self.cells_forwarded += 1;
        t
    }

    /// Total cells forwarded.
    pub fn cells_forwarded(&self) -> u64 {
        self.cells_forwarded
    }

    /// How many stage traversals had to wait on a busy internal link.
    pub fn contention_waits(&self) -> u64 {
        self.contention_waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELL: SimTime = SimTime(682_000); // 682 ns occupancy

    fn sw() -> BanyanSwitch {
        BanyanSwitch::new(32, SimTime::from_ns(500))
    }

    #[test]
    fn stage_count_and_latency_split() {
        let s = sw();
        assert_eq!(s.stages(), 5);
        assert_eq!(s.stage_latency, SimTime::from_ns(100));
    }

    #[test]
    fn uncontended_forward_takes_switch_latency() {
        let mut s = sw();
        let out = s.forward(SimTime::from_us(1), 3, 17, CELL);
        assert_eq!(out, SimTime::from_us(1) + SimTime::from_ns(500));
        assert_eq!(s.contention_waits(), 0);
        assert_eq!(s.cells_forwarded(), 1);
    }

    #[test]
    fn same_output_contends() {
        let mut s = sw();
        let a = s.forward(SimTime::ZERO, 0, 9, CELL);
        let b = s.forward(SimTime::ZERO, 1, 9, CELL);
        // Both cells need the final-stage link to port 9, so the second is
        // pushed back by at least one cell time somewhere along the path.
        assert!(b > a, "second cell must be delayed: {a:?} vs {b:?}");
        assert!(s.contention_waits() > 0);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut s = sw();
        // src/dst pairs chosen so every stage link differs (dst bits and
        // src low bits all distinct).
        let a = s.forward(SimTime::ZERO, 0, 0, CELL);
        let b = s.forward(SimTime::ZERO, 31, 31, CELL);
        assert_eq!(a, b);
        assert_eq!(s.contention_waits(), 0);
    }

    #[test]
    fn stage_link_converges_to_destination() {
        let s = sw();
        // After the final stage the link index must equal the destination.
        for src in 0..32 {
            for dst in [0usize, 7, 16, 31] {
                assert_eq!(s.stage_link(s.stages() - 1, src, dst), dst);
            }
        }
    }

    #[test]
    fn stage_link_first_stage_uses_top_dst_bit() {
        let s = sw();
        // After stage 0, the top bit is the destination's; the rest is src.
        assert_eq!(s.stage_link(0, 0b01010, 0b10000), 0b11010);
        assert_eq!(s.stage_link(0, 0b01010, 0b00000), 0b01010);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = BanyanSwitch::new(12, SimTime::from_ns(500));
    }
}
