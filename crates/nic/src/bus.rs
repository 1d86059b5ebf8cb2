//! The workstation memory bus.
//!
//! One shared, serially granted resource per node: CPU write-backs
//! (cache-line flushes) and NIC DMA bursts both acquire the bus (4 bus
//! cycles) and then move data at 2 bus cycles per 64-bit word at 25 MHz.
//! Contention is modelled with a next-free-time register, the same analytic
//! device used for network links. This path is the one the Message Cache
//! exists to avoid: a 4 KB page costs ~41 µs to DMA across this bus.

use crate::config::{NicConfig, WORD_BYTES};
use cni_sim::SimTime;

/// A completed bus transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusXfer {
    /// When the transaction was granted the bus.
    pub start: SimTime,
    /// When the last word finished transferring.
    pub end: SimTime,
}

/// The node's memory bus.
#[derive(Clone, Debug)]
pub struct MemoryBus {
    acquire: SimTime,
    per_word: SimTime,
    next_free: SimTime,
    bytes_moved: u64,
    transactions: u64,
}

impl MemoryBus {
    /// A bus with the cost model of `cfg`.
    pub fn new(cfg: &NicConfig) -> Self {
        MemoryBus {
            acquire: cfg.bus(cfg.bus_acquire_cycles),
            per_word: cfg.bus(cfg.bus_cycles_per_word),
            next_free: SimTime::ZERO,
            bytes_moved: 0,
            transactions: 0,
        }
    }

    /// Pure timing: how long a burst of `bytes` occupies the bus
    /// (acquisition + transfer), ignoring queueing.
    pub fn burst_time(&self, bytes: usize) -> SimTime {
        let words = (bytes as u64).div_ceil(WORD_BYTES);
        self.acquire + SimTime::from_ps(self.per_word.as_ps() * words)
    }

    /// Execute a burst of `bytes` requested at `ready`; queues behind any
    /// transaction already holding the bus.
    pub fn transfer(&mut self, ready: SimTime, bytes: usize) -> BusXfer {
        let start = ready.max(self.next_free);
        let end = start + self.burst_time(bytes);
        self.next_free = end;
        self.bytes_moved += bytes as u64;
        self.transactions += 1;
        BusXfer { start, end }
    }

    /// Execute `lines` cache-line write-backs requested at `ready`, each a
    /// separate acquisition+burst (write-back buffers drain line by line).
    pub fn flush_lines(&mut self, ready: SimTime, lines: u64, line_bytes: usize) -> BusXfer {
        if lines == 0 {
            return BusXfer {
                start: ready,
                end: ready,
            };
        }
        let first = self.transfer(ready, line_bytes);
        let mut end = first.end;
        for _ in 1..lines {
            end = self.transfer(end, line_bytes).end;
        }
        BusXfer {
            start: first.start,
            end,
        }
    }

    /// Earliest time a new transaction could be granted.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total bytes moved over this bus.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total transactions granted.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MemoryBus {
        MemoryBus::new(&NicConfig::default())
    }

    #[test]
    fn burst_time_formula() {
        let b = bus();
        // 4 KB = 512 words: 4 + 512*2 = 1028 bus cycles at 40 ns = 41.12 µs.
        assert_eq!(b.burst_time(4096), SimTime::from_ns(1028 * 40));
        // Single word: 4 + 2 = 6 cycles.
        assert_eq!(b.burst_time(8), SimTime::from_ns(6 * 40));
    }

    #[test]
    fn transfers_queue() {
        let mut b = bus();
        let a = b.transfer(SimTime::ZERO, 4096);
        let c = b.transfer(SimTime::ZERO, 8);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(c.start, a.end);
        assert_eq!(b.transactions(), 2);
        assert_eq!(b.bytes_moved(), 4104);
    }

    #[test]
    fn flush_lines_serialises_per_line() {
        let mut b = bus();
        // 32-byte line = 4 words: 4 + 8 = 12 cycles per line.
        let x = b.flush_lines(SimTime::ZERO, 3, 32);
        assert_eq!(x.start, SimTime::ZERO);
        assert_eq!(x.end, SimTime::from_ns(3 * 12 * 40));
        assert_eq!(b.transactions(), 3);
    }

    #[test]
    fn zero_line_flush_is_free() {
        let mut b = bus();
        let x = b.flush_lines(SimTime::from_ns(100), 0, 32);
        assert_eq!(x.start, x.end);
        assert_eq!(x.end, SimTime::from_ns(100));
        assert_eq!(b.transactions(), 0);
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut b = bus();
        let later = SimTime::from_us(9);
        let x = b.transfer(later, 8);
        assert_eq!(x.start, later);
    }
}
