//! Serialising point-to-point links.
//!
//! A link has a bit rate and can carry one cell at a time; back-to-back
//! cells queue behind a next-free-time register. (Its propagation delay
//! is the fabric's [`crate::AtmConfig::prop_delay`].) This
//! is the standard analytic contention model: it yields cell-accurate
//! timing without simulating the wire bit by bit. The fabric prices a
//! whole cell train on a link at once ([`Link::head`], [`Link::carry`]).

use cni_sim::SimTime;

/// `t` taken `k` times.
pub(crate) fn times(t: SimTime, k: u64) -> SimTime {
    SimTime::from_ps(t.as_ps() * k)
}

/// A unidirectional serial link.
#[derive(Clone, Debug)]
pub struct Link {
    bits_per_sec: u64,
    next_free: SimTime,
    busy: SimTime,
}

impl Link {
    /// A link of `mbps` megabits per second.
    pub fn new(mbps: u64) -> Self {
        assert!(mbps > 0, "link rate must be positive");
        Link {
            bits_per_sec: mbps * 1_000_000,
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
        }
    }

    /// Time to clock `bytes` onto the wire at this link's rate.
    pub fn serialization(&self, bytes: usize) -> SimTime {
        // ps = bits * 1e12 / bps, computed in u128 to avoid overflow.
        let bits = bytes as u128 * 8;
        SimTime::from_ps((bits * 1_000_000_000_000 / self.bits_per_sec as u128) as u64)
    }

    /// When cell `i` of a train starts onto this link: its cells take
    /// `ser` each and become ready `gap` apart from `start`, and each
    /// waits for the one before it and for the traffic already queued.
    /// Does not occupy the link; [`Link::carry`] does, once per train.
    pub fn head(&self, start: SimTime, gap: SimTime, ser: SimTime, i: u64) -> SimTime {
        (self.next_free + times(ser, i)).max(start + times(gap.max(ser), i))
    }

    /// Occupy the link with a train of `cells` cells of `ser` each, the
    /// last of which starts at `last_head`: the link is free again `ser`
    /// after that, and was busy `cells * ser` in all.
    pub fn carry(&mut self, last_head: SimTime, cells: u64, ser: SimTime) {
        self.next_free = last_head + ser;
        self.busy += times(ser, cells);
    }

    /// Earliest time a new transmission could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Cumulative serialisation (wire-occupancy) time since construction.
    /// The utilization profiler samples this as a virtual-time gauge:
    /// delta over interval = link occupancy fraction.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_at_622mbps() {
        let link = Link::new(622);
        // One 53-byte cell: 424 bits / 622 Mb/s = 681.67 ns.
        let t = link.serialization(53);
        assert!(
            t >= SimTime::from_ns(681) && t <= SimTime::from_ns(682),
            "{t:?}"
        );
    }

    #[test]
    fn back_to_back_cells_queue() {
        let mut link = Link::new(622);
        let ser = link.serialization(53);
        // Two cells offered together: the second waits out the first.
        assert_eq!(
            link.head(SimTime::ZERO, SimTime::ZERO, ser, 0),
            SimTime::ZERO
        );
        let second = link.head(SimTime::ZERO, SimTime::ZERO, ser, 1);
        assert_eq!(second, ser);
        link.carry(second, 2, ser);
        assert_eq!(link.next_free(), ser + ser);
        // A later train queues behind the first.
        assert_eq!(link.head(SimTime::ZERO, SimTime::ZERO, ser, 0), ser + ser);
        // Occupancy accumulates serialisation time only, not queueing or
        // propagation.
        assert_eq!(link.busy_time(), ser + ser);
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut link = Link::new(1000);
        let ser = link.serialization(125); // 1000 bits at 1 Gb/s = 1 us
        assert_eq!(ser, SimTime::from_us(1));
        let later = SimTime::from_us(5);
        assert_eq!(link.head(later, SimTime::ZERO, ser, 0), later);
        link.carry(later, 1, ser);
        assert_eq!(link.next_free(), later + SimTime::from_us(1));
        // Cells offered further apart than `ser` start as offered.
        let gap = SimTime::from_us(3);
        let start = SimTime::from_us(10);
        assert_eq!(link.head(start, gap, ser, 2), SimTime::from_us(16));
    }
}
