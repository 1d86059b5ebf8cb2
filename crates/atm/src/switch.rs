//! Banyan switch fabric model.
//!
//! The paper's switch latencies come from "a 32-port banyan-network based
//! ATM switch model". A banyan network for `N = 2^k` ports is `k` stages of
//! 2×2 crossbars routed by destination-tag bits; a cell from any input to a
//! given output traverses exactly one internal link per stage, and two cells
//! contend when their paths share such a link. We model each internal link
//! with a next-free-time register (one new cell per cell-time) and split the
//! quoted end-to-end switch latency evenly across the stages. The fabric
//! prices cells through these registers ([`crate::fabric`]).

use cni_sim::SimTime;

/// A multistage banyan switch with virtual cut-through forwarding: a
/// cell's head advances as soon as each stage link is free, and the link
/// stays occupied for the cell's serialisation time behind it.
#[derive(Clone, Debug)]
pub struct BanyanSwitch {
    ports: usize,
    stages: usize,
    stage_latency: SimTime,
    /// `next_free[stage * ports + link]`: earliest time the link after
    /// `stage` can accept a new cell.
    next_free: Vec<SimTime>,
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
            next_free: vec![SimTime::ZERO; ports * stages],
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

    /// Fall-through latency of one stage: a cell's head leaves a stage
    /// this long after it starts on the stage's link.
    pub fn stage_latency(&self) -> SimTime {
        self.stage_latency
    }

    /// The next-free registers of the internal links a `src`→`dst` cell
    /// occupies, one per stage, in the order its head crosses them.
    pub(crate) fn path(&mut self, src: usize, dst: usize) -> impl Iterator<Item = &mut SimTime> {
        debug_assert!(src < self.ports && dst < self.ports, "port out of range");
        let stages = self.stages;
        self.next_free
            .chunks_exact_mut(self.ports)
            .enumerate()
            .map(move |(stage, links)| &mut links[stage_link(stages, stage, src, dst)])
    }
}

/// The internal link index a `src`→`dst` cell occupies after `stage` of a
/// `stages`-stage banyan.
///
/// Destination-tag routing: after stage `s` the cell's current address
/// has its top `s+1` bits replaced by the destination's top `s+1` bits.
fn stage_link(stages: usize, stage: usize, src: usize, dst: usize) -> usize {
    let low_bits = stages - (stage + 1);
    let low_mask = (1usize << low_bits) - 1;
    ((dst >> low_bits) << low_bits) | (src & low_mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw() -> BanyanSwitch {
        BanyanSwitch::new(32, SimTime::from_ns(500))
    }

    #[test]
    fn stage_count_and_latency_split() {
        let s = sw();
        assert_eq!(s.stages(), 5);
        assert_eq!(s.stage_latency(), SimTime::from_ns(100));
    }

    #[test]
    fn uncontended_forward_takes_switch_latency() {
        // A fresh switch holds no cell anywhere, and a head falls through
        // its stages in exactly the switch latency.
        let mut s = sw();
        assert!(s.path(3, 17).all(|free| *free == SimTime::ZERO));
        let through = s.path(3, 17).count() as u64 * s.stage_latency().as_ps();
        assert_eq!(SimTime::from_ps(through), SimTime::from_ns(500));
    }

    #[test]
    fn same_output_contends() {
        // Both cells need the final-stage link to port 9: a cell from 0
        // holds it, and a cell from 1 finds it busy there.
        let mut s = sw();
        let held = SimTime::from_ns(682);
        for free in s.path(0, 9) {
            *free = held;
        }
        let seen: Vec<SimTime> = s.path(1, 9).map(|free| *free).collect();
        assert_eq!(seen.last(), Some(&held));
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut s = sw();
        // src/dst pairs chosen so every stage link differs (dst bits and
        // src low bits all distinct).
        for free in s.path(0, 0) {
            *free = SimTime::from_ns(682);
        }
        assert!(s.path(31, 31).all(|free| *free == SimTime::ZERO));
    }

    #[test]
    fn stage_link_converges_to_destination() {
        let s = sw();
        // After the final stage the link index must equal the destination.
        for src in 0..32 {
            for dst in [0usize, 7, 16, 31] {
                assert_eq!(stage_link(s.stages(), s.stages() - 1, src, dst), dst);
            }
        }
    }

    #[test]
    fn stage_link_first_stage_uses_top_dst_bit() {
        // After stage 0, the top bit is the destination's; the rest is src.
        assert_eq!(stage_link(5, 0, 0b01010, 0b10000), 0b11010);
        assert_eq!(stage_link(5, 0, 0b01010, 0b00000), 0b01010);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = BanyanSwitch::new(12, SimTime::from_ns(500));
    }
}
