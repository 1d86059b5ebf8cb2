//! NIC and host-boundary cost-model parameters.
//!
//! Everything the `cni-nic` timing model charges is a named field here, so
//! the paper's Table 1 maps onto one struct and sensitivity experiments are
//! parameter sweeps rather than code edits. Cycle counts are in the cycles
//! of the component that executes them (host CPU at 166 MHz, NIC processor
//! at 33 MHz, bus at 25 MHz).

use cni_sim::{Clock, SimTime};
use serde::{Deserialize, Serialize};

/// Bytes per memory-bus word: one 64-bit Alpha word, the `u64` unit of
/// shared memory.
pub const WORD_BYTES: u64 = 8;

/// Which network-interface personality a node uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NicKind {
    /// The paper's baseline: a conventional interface with no Application
    /// Device Channels, no Message Cache and no Application Interrupt
    /// Handlers — every send crosses the kernel, every message is DMAed
    /// both ways, and every arrival interrupts the host.
    Standard,
    /// The CNI: ADC user-level queues, Message Cache with snooping,
    /// PATHFINDER demultiplexing, and protocol handlers on the NIC.
    Cni,
}

/// Feature toggles for the CNI personality — each of the paper's three
/// mechanisms can be disabled independently for ablation studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CniFeatures {
    /// The Message Cache (transmit/receive caching + snooping).
    pub msg_cache: bool,
    /// Application Interrupt Handlers (protocol on the NIC processor).
    pub aih: bool,
    /// The poll/interrupt hybrid on receive (off = interrupt always).
    pub polling: bool,
}

impl Default for CniFeatures {
    fn default() -> Self {
        CniFeatures {
            msg_cache: true,
            aih: true,
            polling: true,
        }
    }
}

/// The full cost model of one node's host/NIC boundary.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NicConfig {
    /// Host CPU clock (166 MHz in Table 1).
    pub host_clock: Clock,
    /// NIC processor clock (33 MHz).
    pub nic_clock: Clock,
    /// Memory bus clock (25 MHz).
    pub bus_clock: Clock,

    /// Bus acquisition cost in bus cycles (4).
    pub bus_acquire_cycles: u64,
    /// Bus transfer cost per word in bus cycles (2).
    pub bus_cycles_per_word: u64,

    /// Host cache line size in bytes.
    pub cache_line_bytes: usize,
    /// Host page size in bytes; Message Cache buffers are page sized.
    pub page_bytes: usize,

    /// Full cost of taking a host interrupt (save/dispatch/restore plus
    /// the cache and pipeline damage inflicted on the interrupted
    /// computation), in host CPU cycles. The paper's premise is that this
    /// is *expensive* on superscalar, superpipelined CPUs.
    pub interrupt_cycles: u64,
    /// The part of an interrupt during which the CPU is actually inside
    /// the handler and cannot take another interrupt (serialising
    /// occupancy); the remainder of [`Self::interrupt_cycles`] is
    /// disruption charged to the interrupted computation.
    pub interrupt_occupancy_cycles: u64,
    /// Kernel entry + protocol-stack work on the host send path of the
    /// standard NIC, host cycles.
    pub kernel_send_cycles: u64,
    /// Kernel dispatch on the host receive path of the standard NIC
    /// (charged on top of the interrupt), host cycles.
    pub kernel_recv_cycles: u64,

    /// Cost for the application to enqueue a descriptor on an ADC transmit
    /// queue (a handful of user-level stores), host cycles: the CNI's
    /// host send path, charged by the engine per send in place of
    /// [`Self::kernel_send_cycles`]. The rings themselves are not
    /// simulated.
    pub adc_enqueue_cycles: u64,
    /// Cost of one poll of the ADC receive/free queues, host cycles.
    pub poll_cycles: u64,

    /// NIC-processor cycles to fetch and decode one transmit descriptor.
    pub descriptor_cycles: u64,
    /// NIC-processor cycles of segmentation work per transmitted cell.
    pub sar_tx_cycles_per_cell: u64,
    /// NIC-processor cycles of reassembly work per received cell.
    pub sar_rx_cycles_per_cell: u64,
    /// NIC-processor cycles per PATHFINDER comparison cell visited.
    pub classify_cycles_per_cell: u64,
    /// NIC-processor cycles to look a page up in the buffer map.
    pub buffer_map_cycles: u64,
    /// NIC-processor cycles to copy one word board-to-board (receive
    /// caching copies the arriving page into a cached buffer).
    pub board_copy_cycles_per_word: u64,
    /// NIC-processor cycles for an RTLB refill after a snoop miss.
    pub rtlb_miss_cycles: u64,

    /// NIC-processor cycles for one collective combine step: folding a
    /// child's barrier-arrival (vector clock + notice set) into the
    /// NIC-resident combining state. Dedicated microcode, far cheaper
    /// than a general AIH protocol dispatch (cs/0402027-style NIC
    /// collectives). Used only when the cluster enables NIC collectives.
    pub coll_combine_cycles: u64,
    /// NIC-processor cycles to forward one collective message down the
    /// tree (release broadcast, lock-chain forward): a descriptor
    /// rewrite and retransmit without host involvement.
    pub coll_forward_cycles: u64,

    /// CNI mechanism toggles (ablations); ignored by the standard
    /// personality, which never has any of them.
    pub cni_features: CniFeatures,
    /// Message Cache capacity in bytes (32 KB in Table 1; Figure 13 sweeps
    /// it). Ignored by the standard personality.
    pub msg_cache_bytes: usize,
    /// RTLB entries for snoop-side reverse translation.
    pub rtlb_entries: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            host_clock: Clock::from_mhz(166),
            nic_clock: Clock::from_mhz(33),
            bus_clock: Clock::from_mhz(25),
            bus_acquire_cycles: 4,
            bus_cycles_per_word: 2,
            cache_line_bytes: 32,
            page_bytes: 2048,
            // 40 µs at 166 MHz ≈ 6640 cycles: the "expensive interrupt" of
            // the paper's premise (state save, dispatch, cache/TLB damage).
            interrupt_cycles: 6640,
            interrupt_occupancy_cycles: 1660,
            kernel_send_cycles: 2000,
            kernel_recv_cycles: 1000,
            adc_enqueue_cycles: 40,
            poll_cycles: 20,
            descriptor_cycles: 10,
            // ~760 ns of NIC-processor work per cell (segmentation state,
            // DMA descriptor per cell, CRC accumulation): the
            // fragmentation/reassembly tax the paper's Table 5 blames for
            // limiting its gains.
            sar_tx_cycles_per_cell: 25,
            sar_rx_cycles_per_cell: 25,
            classify_cycles_per_cell: 1,
            buffer_map_cycles: 4,
            board_copy_cycles_per_word: 2,
            rtlb_miss_cycles: 20,
            // ~1.8 µs / ~1.2 µs at 33 MHz: the NIC executes collectives
            // as dedicated combine/forward steps, not a general handler.
            coll_combine_cycles: 60,
            coll_forward_cycles: 40,
            cni_features: CniFeatures::default(),
            msg_cache_bytes: 32 * 1024,
            rtlb_entries: 256,
        }
    }
}

impl NicConfig {
    /// Number of page buffers the Message Cache holds.
    pub fn msg_cache_buffers(&self) -> usize {
        (self.msg_cache_bytes / self.page_bytes).max(1)
    }

    /// Duration of `cycles` host-CPU cycles.
    pub fn host(&self, cycles: u64) -> SimTime {
        self.host_clock.cycles(cycles)
    }

    /// Duration of `cycles` NIC-processor cycles.
    pub fn nic(&self, cycles: u64) -> SimTime {
        self.nic_clock.cycles(cycles)
    }

    /// Duration of `cycles` bus cycles.
    pub fn bus(&self, cycles: u64) -> SimTime {
        self.bus_clock.cycles(cycles)
    }

    /// Words needed to carry `bytes` (rounded up).
    pub fn words(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(WORD_BYTES)
    }

    /// Per-cell segmentation gap on the transmit side: how often the NIC
    /// processor can hand the wire a new cell.
    pub fn tx_cell_gap(&self) -> SimTime {
        self.nic(self.sar_tx_cycles_per_cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = NicConfig::default();
        assert_eq!(c.host_clock, Clock::from_mhz(166));
        assert_eq!(c.nic_clock, Clock::from_mhz(33));
        assert_eq!(c.bus_clock, Clock::from_mhz(25));
        assert_eq!(c.msg_cache_bytes, 32 * 1024);
        assert_eq!(c.msg_cache_buffers(), 16);
    }

    #[test]
    fn interrupt_is_tens_of_microseconds() {
        let c = NicConfig::default();
        let t = c.host(c.interrupt_cycles);
        assert!(
            t >= SimTime::from_us(30) && t <= SimTime::from_us(50),
            "{t}"
        );
    }

    #[test]
    fn word_rounding() {
        let c = NicConfig::default();
        assert_eq!(c.words(0), 0);
        assert_eq!(c.words(1), 1);
        assert_eq!(c.words(8), 1);
        assert_eq!(c.words(9), 2);
        assert_eq!(c.words(4096), 512);
    }
}
