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
//! * [`device`] — the [`device::Nic`] itself: the OSIRIS-style *standard*
//!   personality (DMA both ways, interrupt per arrival) and the *CNI*
//!   personality (Message Cache, PATHFINDER dispatch to Application
//!   Interrupt Handlers, hybrid poll/interrupt receive), with every cost
//!   taken from [`config::NicConfig`]. What a host pays to hand the board
//!   a message (a kernel entry, or a user-level Application Device
//!   Channel enqueue on the CNI) and the pre-send flush are the engine's
//!   to charge: every transmit here starts on the board.
//! * [`config`] / [`stats`] — the tunable cost model and the counters the
//!   evaluation reads (network-cache hit ratio, DMA bytes, interrupts…).

#![deny(missing_docs)]

pub mod bus;
pub mod config;
pub mod device;
pub mod msgcache;
pub mod stats;

pub use bus::MemoryBus;
pub use config::{NicConfig, NicKind};
pub use device::{Nic, RxDisposition, RxPath, TxPath, TxRequest};
pub use msgcache::MessageCache;
pub use stats::NicStats;
