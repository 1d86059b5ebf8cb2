//! `cni-atm` — the ATM interconnect substrate for the CNI reproduction.
//!
//! The paper connects its workstation cluster with an STS-12 (622 Mb/s) ATM
//! fabric built around a 32-port banyan switch, and identifies the 53-byte
//! ATM cell as the main limit on its latency gains (Table 5). This crate
//! models that substrate — and scales it past the paper's single switch:
//! the same banyan building block can be arranged into a 2-level fat-tree
//! of leaf and spine switches ([`topology`]), serving hundreds to a
//! thousand hosts with deterministic D-mod-k routing (see `TOPOLOGY.md`
//! at the repository root for the full fabric model). The components:
//!
//! * [`cell`] — ATM cells: 5-byte header (VCI, payload type, CLP) plus a
//!   48-byte payload, with an optional "jumbo" mode used for the paper's
//!   *unrestricted cell size* experiment.
//! * [`crc`] — the CRC-32 used by the AAL5 trailer.
//! * [`aal5`] — AAL5-style segmentation and reassembly: pad + 8-byte
//!   trailer (length + CRC) on transmit, per-VCI reassembly with integrity
//!   checking on receive, cell by cell or a whole [`CellTrain`] at once.
//! * [`link`] — serialising point-to-point links (rate + propagation
//!   delay) with next-free-time contention.
//! * [`switch`] — a multistage banyan fabric of 2×2 crossbars with
//!   per-stage internal-link contention and cut-through forwarding.
//! * [`topology`] — fabric topologies: the paper's single switch, or a
//!   2-level fat-tree of banyans with unique deterministic routes.
//! * [`fabric`] — the whole network seen by a NIC: segments a PDU into
//!   cells and prices their train through source link → switch(es) →
//!   sink link per the configured topology in one walk of its route,
//!   returning cell-accurate first/last arrival times.

#![deny(missing_docs)]

pub mod aal5;
pub mod buf;
pub mod cell;
pub mod crc;
pub mod fabric;
pub mod link;
pub mod switch;
pub mod topology;

pub use aal5::{CellTrain, Reassembler, ReassemblyError, Segmenter};
pub use buf::{BufPool, PduBuf};
pub use cell::{Cell, CellHeader, ATM_CELL_BYTES, ATM_HEADER_BYTES, ATM_PAYLOAD_BYTES};
pub use fabric::{AtmConfig, Fabric, FaultyPduTiming, PduTiming};
pub use link::Link;
pub use switch::BanyanSwitch;
pub use topology::{Route, Topology};

/// The per-cell verdicts a [`CellTrain`] carries.
pub use cni_faults::CellFate;
