//! `cni` — the public facade of the CNI reproduction: configure a
//! simulated workstation cluster, run programs on it, and measure what the
//! paper measures.
//!
//! ```
//! use cni::{Config, World};
//!
//! // A 2-processor CNI cluster with the paper's Table-1 parameters.
//! let mut world = World::new(Config::paper_default().with_procs(2));
//! let base = world.alloc(4096);
//! let report = world.run(vec![
//!     cni::program(move |ctx| {
//!         Box::pin(async move {
//!             ctx.write_u64(base, 42).await;
//!             ctx.barrier().await;
//!         })
//!     }),
//!     cni::program(move |ctx| {
//!         Box::pin(async move {
//!             ctx.barrier().await;
//!             assert_eq!(ctx.read_u64(base).await, 42);
//!         })
//!     }),
//! ]);
//! assert!(report.wall > cni_sim::SimTime::ZERO);
//! ```
//!
//! The crate wires together the substrates built for this reproduction:
//! [`cni_sim`] (deterministic discrete-event kernel and stackless
//! processors the engine polls), [`cni_atm`] (cells, AAL5, banyan switch), [`cni_pathfinder`]
//! (the packet classifier), [`cni_nic`] (Message Cache, Application Device
//! Channels, Application Interrupt Handler runtime, and the standard
//! baseline NIC) and [`cni_dsm`] (lazy invalidate release consistency).

#![deny(missing_docs)]

pub mod config;
pub mod ctx;
mod gbn;
mod node;
pub mod report;
pub mod snapshot;
pub mod world;

pub use config::{Config, ProtoCosts};
pub use ctx::{ProcCtx, ReadF64, ReadU64, Reply, WriteU64};
pub use report::{
    kind_name, speedup, KindHistogram, KindLatency, ProcTimes, RunReport, REPORT_VERSION,
};
pub use snapshot::{ResumeError, SNAPSHOT_SCHEMA};
pub use world::{program, Program, World};

// Re-export the tracing surface so embedders need only this crate.
pub use cni_trace::{TraceEvent, TraceRecord, TraceSink, TraceSummary};

// Re-export the observability surface (span analysis over drained traces)
// so report consumers can interpret `RunReport::stages`.
pub use cni_obs::{ObsReport, SpanTree};

// Re-export the fault-injection surface so embedders need only this crate.
pub use cni_faults::{BrownoutWindow, FaultPlan, FaultStats};

// Re-export the identifiers applications use.
pub use cni_dsm::{LockId, PageId, ProcId, VAddr};
pub use cni_nic::NicKind;
pub use cni_sim::SimTime;
