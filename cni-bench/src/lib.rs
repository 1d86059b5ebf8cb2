//! `cni-bench` — the CNI simulator's end-to-end benchmark, with a
//! per-layer attribution of host time.
//!
//! The benchmark drives only the simulator's public surface: it builds a
//! [`cni::World`], builds the application programs, times `World::run`,
//! and checks the results. End-to-end metrics come from untraced runs;
//! per-layer metrics come from a separate traced run whose records are
//! replayed through each layer's public types (see [`probes`]).
//! BENCHMARK.md documents the workloads, the metric → layer → workload
//! map and the calibration runs.
//!
//! This crate is a designated host-timing module: measured wall time is
//! its output and never enters a `RunReport`.

#![deny(missing_docs)]
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod child;
pub mod compare;
pub mod harness;
pub mod hostspeed;
pub mod metrics;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workload;
