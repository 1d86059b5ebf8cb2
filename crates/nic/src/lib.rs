//! `cni-nic` — models of the host/NIC boundary: the memory bus, DMA, and
//! the two network-interface personalities the paper compares.
//!
//! * [`bus`] — the workstation memory bus (4-cycle acquisition, 2 cycles
//!   per 64-bit word at 25 MHz), a shared, contended resource used by CPU
//!   write-backs and NIC DMA alike. [`MemoryBus::flush_lines`] costs the
//!   pre-transmit flush of dirty cache lines that the Message Cache's
//!   snooping discipline requires.
//! * [`msgcache`] — the **Message Cache**: board-resident page buffers kept
//!   consistent by bus snooping, with a CLOCK approximate-LRU buffer map
//!   and an RTLB for physical→virtual translation of snooped writes.
//! * [`queues`] — **Application Device Channels**: the lock-free transmit/
//!   receive/free queue triplet mapped into the application, with
//!   protection checked at buffer registration rather than per operation.
//! * [`device`] — the [`device::Nic`] itself: the OSIRIS-style *standard*
//!   personality (kernel send path, DMA both ways, interrupt per arrival)
//!   and the *CNI* personality (ADC enqueue, Message Cache, PATHFINDER
//!   dispatch to Application Interrupt Handlers, hybrid poll/interrupt
//!   receive), with every cost taken from [`config::NicConfig`].
//! * [`config`] / [`stats`] — the tunable cost model and the counters the
//!   evaluation reads (network-cache hit ratio, DMA bytes, interrupts…).

#![deny(missing_docs)]

pub mod bus;
pub mod config;
pub mod device;
pub mod msgcache;
pub mod queues;
pub mod stats;

pub use bus::MemoryBus;
pub use config::{NicConfig, NicKind};
pub use device::{Nic, RxDisposition, RxPath, TxPath, TxRequest};
pub use msgcache::MessageCache;
pub use queues::{ChannelQueues, Descriptor};
pub use stats::NicStats;
