//! `cni-sim` — deterministic discrete-event simulation kernel used by the
//! CNI reproduction.
//!
//! The crate provides the domain-independent pieces of a Proteus-style
//! execution-driven simulator:
//!
//! * [`time`] — picosecond-resolution virtual time ([`SimTime`]) and clock
//!   domains ([`Clock`]) so components running at different frequencies
//!   (166 MHz CPU, 25 MHz memory bus, 33 MHz NIC processor) can convert
//!   cycle counts to time exactly and deterministically.
//! * [`queue`] — a deterministic event queue: events at equal timestamps
//!   fire in insertion order, so a simulation run is a pure function of its
//!   inputs.
//! * [`pdes`] — a conservative lookahead-based parallel executor over the
//!   event queue: per-shard lanes advance concurrently inside a safe
//!   window and a serial replay barrier reconstructs the exact serial
//!   `(time, seq)` order, so results stay byte-identical at any worker
//!   count (DESIGN.md §4.11).
//! * [`cothread`] — stackless processors. Each simulated CPU runs *real*
//!   application code as a future that the engine polls in place, on its
//!   own thread, through a [`Task`]; the program suspends, handing control
//!   back to the engine, whenever it needs a simulated service (page
//!   fault, lock, barrier, message). This is what makes the simulation
//!   *execution-driven* rather than trace-driven.
//! * [`stats`] — counters, accumulators and log-2 histograms used for the
//!   paper's overhead breakdowns (Tables 2–4).
//! * [`rng`] — a small, seedable SplitMix64 generator for components that
//!   need deterministic pseudo-randomness inside the simulation.

#![deny(missing_docs)]

pub mod cothread;
pub mod pdes;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use cothread::{Call, CoThread, Mailbox, Port, Task, Yield};
pub use pdes::{Driver, Executor, Outbox};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use stats::{Accum, Counter, Histogram};
pub use time::{Clock, SimTime};
