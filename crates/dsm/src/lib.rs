//! `cni-dsm` — the lazy invalidate release-consistency DSM protocol the
//! paper's applications run on.
//!
//! The paper evaluates CNI with three shared-memory applications under "a
//! lazy invalidate release consistency protocol [6, 7]" (Keleher et al.'s
//! LRC). This crate is that protocol, built from scratch:
//!
//! * [`types`] — processors, pages, locks, vector timestamps, write
//!   notices.
//! * [`space`] — per-node page frames with a lock-free fast path for the
//!   application threads and dirty-line tracking for the pre-transmit
//!   flush.
//! * [`diff`] — twins and word-granularity diffs (concurrent write
//!   sharing).
//! * [`protocol`] — the message vocabulary, with wire sizes and the header
//!   kind bytes PATHFINDER patterns match.
//! * [`notices`] — the cluster's one write-notice log, which each node
//!   reads through its own vector clock.
//! * [`node`] — the per-processor engine: intervals, write notices,
//!   invalidation, distributed lock managers, the barrier manager, and the
//!   page/diff fetch state machines. Timing-free: it reports messages,
//!   wakeups and labour; the simulation charges costs.
//! * [`cluster`] — a synchronous harness used as the protocol's reference
//!   semantics in tests.
//!
//! Under the CNI this engine runs *on the network interface* as an
//! Application Interrupt Handler; under the standard NIC it runs on the
//! host behind interrupts. The logic is identical — only the cost model
//! differs — which is exactly the comparison the paper makes.

#![deny(missing_docs)]

pub mod cluster;
pub mod diff;
pub mod node;
pub mod notices;
pub mod protocol;
pub mod space;
pub mod types;

pub use cluster::DsmCluster;
pub use diff::Diff;
pub use node::{DsmConfig, DsmNode, DsmStats, HandleResult, Wakeup, Work};
pub use notices::NoticeLog;
pub use protocol::{Msg, Payload};
pub use space::{access, Frame, NodeSpace, Page, PageFlags, PageHandle};
pub use types::{LockId, PageId, ProcId, VAddr, VClock, WriteNotice, SHARED_BASE};
