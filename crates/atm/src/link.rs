//! Serialising point-to-point links.
//!
//! A link has a bit rate and a propagation delay and can carry one cell at
//! a time; back-to-back cells queue behind a next-free-time register. This
//! is the standard analytic contention model: it yields cell-accurate
//! timing without simulating the wire bit by bit.

use cni_sim::SimTime;

/// A unidirectional serial link.
#[derive(Clone, Debug)]
pub struct Link {
    bits_per_sec: u64,
    prop_delay: SimTime,
    next_free: SimTime,
    bytes_carried: u64,
    busy: SimTime,
}

impl Link {
    /// A link of `mbps` megabits per second with propagation delay
    /// `prop_delay`.
    pub fn new(mbps: u64, prop_delay: SimTime) -> Self {
        assert!(mbps > 0, "link rate must be positive");
        Link {
            bits_per_sec: mbps * 1_000_000,
            prop_delay,
            next_free: SimTime::ZERO,
            bytes_carried: 0,
            busy: SimTime::ZERO,
        }
    }

    /// Time to clock `bytes` onto the wire at this link's rate.
    pub fn serialization(&self, bytes: usize) -> SimTime {
        // ps = bits * 1e12 / bps, computed in u128 to avoid overflow.
        let bits = bytes as u128 * 8;
        SimTime::from_ps((bits * 1_000_000_000_000 / self.bits_per_sec as u128) as u64)
    }

    /// Transmit `bytes` that become ready at `ready`; returns the time the
    /// last bit arrives at the far end (store-and-forward).
    pub fn transmit(&mut self, ready: SimTime, bytes: usize) -> SimTime {
        let start = ready.max(self.next_free);
        let ser = self.serialization(bytes);
        let end_tx = start + ser;
        self.next_free = end_tx;
        self.bytes_carried += bytes as u64;
        self.busy += ser;
        end_tx + self.prop_delay
    }

    /// Earliest time a new transmission could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total bytes carried since construction.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Cumulative serialisation (wire-occupancy) time since construction.
    /// The utilization profiler samples this as a virtual-time gauge:
    /// delta over interval = link occupancy fraction.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Propagation delay of this link.
    pub fn prop_delay(&self) -> SimTime {
        self.prop_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_at_622mbps() {
        let link = Link::new(622, SimTime::ZERO);
        // One 53-byte cell: 424 bits / 622 Mb/s = 681.67 ns.
        let t = link.serialization(53);
        assert!(
            t >= SimTime::from_ns(681) && t <= SimTime::from_ns(682),
            "{t:?}"
        );
    }

    #[test]
    fn back_to_back_cells_queue() {
        let mut link = Link::new(622, SimTime::from_ns(150));
        let cell = 53;
        let a1 = link.transmit(SimTime::ZERO, cell);
        let a2 = link.transmit(SimTime::ZERO, cell);
        let ser = link.serialization(cell);
        assert_eq!(a1, ser + SimTime::from_ns(150));
        assert_eq!(a2, ser + ser + SimTime::from_ns(150));
        assert_eq!(link.bytes_carried(), 106);
        // Occupancy accumulates serialisation time only, not queueing or
        // propagation.
        assert_eq!(link.busy_time(), ser + ser);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut link = Link::new(1000, SimTime::ZERO);
        let later = SimTime::from_us(5);
        let arrival = link.transmit(later, 125); // 1000 bits at 1 Gb/s = 1 us
        assert_eq!(arrival, later + SimTime::from_us(1));
    }
}
