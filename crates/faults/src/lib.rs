//! Deterministic fault injection for the CNI simulator.
//!
//! The paper's evaluation assumes a lossless ATM fabric, yet its own
//! machinery — AAL5 CRC-32 trailers, free/receive rings that can run dry —
//! exists precisely because real fabrics drop and corrupt cells. This crate
//! supplies the *fault side* of that story: a [`FaultPlan`] describing cell
//! drop probability, bit-corruption probability, per-cell latency jitter and
//! scheduled link "brownout" windows, executed by a [`FaultInjector`] whose
//! own PCG-32 stream is seeded from the plan so that identical seeds
//! reproduce identical fault sequences, independent of the simulator's
//! jitter RNG.
//!
//! The crate is deliberately a leaf: it knows nothing about cells, links or
//! the event queue. The fabric asks the injector for a [`CellFate`] per cell
//! and applies the verdict itself; the recovery protocol (go-back-N
//! retransmission in `cni-core`) accumulates its counters into the same
//! [`FaultStats`] record that lands in the run report.

#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

use serde::{Deserialize, Serialize};

/// A permuted-congruential generator (PCG-XSH-RR 64/32).
///
/// The fault subsystem carries its own generator — distinct in both
/// algorithm and seed from `cni-sim`'s SplitMix64 jitter stream — so that
/// enabling faults never perturbs the draws the baseline simulation makes,
/// and so fault sequences are reproducible from `--fault-seed` alone.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    const MULT: u64 = 6_364_136_223_846_793_005;

    /// A generator seeded with `seed` on stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A bias-free uniform draw in `[0, bound)` via widening multiply.
    /// `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below needs a nonzero bound");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A scheduled window during which one source link drops every cell.
///
/// Models transient fabric outages (a flapping port, a switch reset): all
/// cells entering the fabric from `link` between `start_ps` and `end_ps`
/// (half-open, picoseconds of virtual time) are discarded.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BrownoutWindow {
    /// Ingress port whose cells are dropped.
    pub link: u32,
    /// Window start (inclusive), picoseconds of virtual time.
    pub start_ps: u64,
    /// Window end (exclusive), picoseconds of virtual time.
    pub end_ps: u64,
}

impl BrownoutWindow {
    fn covers(&self, t_ps: u64, link: usize) -> bool {
        self.link as usize == link && t_ps >= self.start_ps && t_ps < self.end_ps
    }

    /// True when the window covers at least one instant. Zero-length (or
    /// inverted) windows drop nothing and must not count as injected
    /// faults anywhere.
    pub fn is_active(&self) -> bool {
        self.end_ps > self.start_ps
    }
}

/// Maximum number of scheduled brownout windows in a plan (a fixed-size
/// array keeps [`FaultPlan`] `Copy`, so `Config` stays `Copy` too).
pub const MAX_BROWNOUTS: usize = 4;

/// The complete, seeded description of the faults a run will experience,
/// plus the knobs of the recovery protocol layered on top.
///
/// Two runs configured with equal plans observe byte-identical fault
/// sequences. A plan for which [`FaultPlan::is_zero`] holds injects nothing
/// and the simulator bypasses the reliability layer entirely, keeping
/// timings bit-identical to a build without this subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-cell probability of silent loss in the fabric, `[0, 1)`.
    pub drop_prob: f64,
    /// Per-cell probability of a single flipped payload bit, `[0, 1)`.
    pub corrupt_prob: f64,
    /// Maximum extra per-cell delivery latency; each delivered cell is
    /// delayed by a uniform draw in `[0, jitter_ps]`. Zero disables jitter.
    pub jitter_ps: u64,
    /// Seed of the injector's PCG-32 stream (`--fault-seed`).
    pub seed: u64,
    /// Receive-ring capacity in frames the reliability layer models per
    /// node; an in-order frame arriving while the ring is full is counted,
    /// NAKed and dropped instead of stalling. Zero means unbounded.
    pub rx_ring_frames: u32,
    /// Initial retransmission timeout, picoseconds.
    pub rto_base_ps: u64,
    /// Ceiling of the exponential backoff on the retransmission timeout.
    pub rto_cap_ps: u64,
    /// Go-back-N sender window, in frames per (source, destination) channel.
    pub window: u32,
    /// Largest wire frame the reliable layer puts into one AAL5 PDU;
    /// longer messages are fragmented into frames of at most this size,
    /// each with its own sequence number and CRC. This bounds the cells
    /// at risk per retransmission: a PDU of `n` cells survives a lossy
    /// fabric with probability `(1 - drop_prob)^n`, so without a cap a
    /// multi-kilobyte message may effectively never arrive intact.
    pub max_frame_bytes: u32,
    /// Scheduled link brownout windows (unused slots are `None`).
    pub brownouts: [Option<BrownoutWindow>; MAX_BROWNOUTS],
}

impl FaultPlan {
    /// The lossless plan: nothing dropped, corrupted or delayed.
    pub const fn none() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            jitter_ps: 0,
            seed: 1,
            rx_ring_frames: 64,
            rto_base_ps: 100_000_000,  // 100 us: a few page round-trips
            rto_cap_ps: 2_000_000_000, // 2 ms backoff ceiling
            window: 8,
            max_frame_bytes: 2048,
            brownouts: [None; MAX_BROWNOUTS],
        }
    }

    /// True when the plan injects no faults at all. The simulator then
    /// takes the legacy lossless path, draw-for-draw and event-for-event.
    ///
    /// Zero-length brownout windows cover no instant and drop nothing, so
    /// a plan whose only windows are empty is still a zero plan — it must
    /// not activate the reliability layer and perturb timings.
    pub fn is_zero(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.jitter_ps == 0
            && !self
                .brownouts
                .iter()
                .flatten()
                .any(BrownoutWindow::is_active)
    }

    /// `Err` naming the first probability outside `[0, 1)` or degenerate
    /// protocol knob. Plans read from outside (flags, sweep files,
    /// checkpoints) are checked with this before a simulation is built.
    pub fn check(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err(format!(
                "drop_prob must be in [0, 1), got {}",
                self.drop_prob
            ));
        }
        if !(0.0..1.0).contains(&self.corrupt_prob) {
            return Err(format!(
                "corrupt_prob must be in [0, 1), got {}",
                self.corrupt_prob
            ));
        }
        if self.window == 0 {
            return Err("go-back-N window must be nonzero".into());
        }
        if self.max_frame_bytes < 64 {
            return Err(format!(
                "max_frame_bytes must be at least 64, got {}",
                self.max_frame_bytes
            ));
        }
        if self.rto_base_ps == 0 {
            return Err("rto_base_ps must be nonzero".into());
        }
        if self.rto_cap_ps < self.rto_base_ps {
            return Err("rto_cap_ps must be at least rto_base_ps".into());
        }
        Ok(())
    }

    /// Panic with [`FaultPlan::check`]'s message if the plan is invalid.
    /// Called once when the simulation is built.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The injector's verdict for one cell entering the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellFate {
    /// The cell crosses the fabric intact.
    Deliver,
    /// The cell is silently discarded.
    Drop,
    /// The cell is delivered with one payload bit flipped.
    Corrupt {
        /// Payload byte offset of the flipped bit.
        byte: u32,
        /// Bit index within that byte, `0..8`.
        bit: u8,
    },
}

impl CellFate {
    /// True when the cell never reaches the egress link.
    pub fn is_drop(&self) -> bool {
        matches!(self, CellFate::Drop)
    }
}

/// Executes a [`FaultPlan`] cell by cell, counting what it does.
///
/// Determinism contract: the sequence of RNG draws depends only on the
/// plan and on the order of [`FaultInjector::cell_fate`] /
/// [`FaultInjector::jitter_ps`] calls, which the deterministic event loop
/// fixes. Zero-probability dimensions consume no draws.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Pcg32,
    cells_dropped: u64,
    cells_corrupted: u64,
    brownout_cells: u64,
}

impl FaultInjector {
    /// Stream selector for the cell-fate generator.
    const STREAM: u64 = 0xCE11_FA17;

    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        FaultInjector {
            plan,
            rng: Pcg32::new(plan.seed, Self::STREAM),
            cells_dropped: 0,
            cells_corrupted: 0,
            brownout_cells: 0,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of one cell entering the fabric at `t_ps` on
    /// ingress port `link`, carrying `payload_bytes` bytes of payload.
    pub fn cell_fate(&mut self, t_ps: u64, link: usize, payload_bytes: usize) -> CellFate {
        if self
            .plan
            .brownouts
            .iter()
            .flatten()
            .any(|w| w.covers(t_ps, link))
        {
            self.brownout_cells += 1;
            self.cells_dropped += 1;
            return CellFate::Drop;
        }
        if self.plan.drop_prob > 0.0 && self.rng.next_f64() < self.plan.drop_prob {
            self.cells_dropped += 1;
            return CellFate::Drop;
        }
        if self.plan.corrupt_prob > 0.0 && self.rng.next_f64() < self.plan.corrupt_prob {
            self.cells_corrupted += 1;
            let byte = self.rng.next_below(payload_bytes.max(1) as u64) as u32;
            let bit = self.rng.next_below(8) as u8;
            return CellFate::Corrupt { byte, bit };
        }
        CellFate::Deliver
    }

    /// Extra latency for one delivered cell: uniform in `[0, jitter_ps]`,
    /// zero (and no RNG draw) when the plan disables jitter.
    pub fn jitter_ps(&mut self) -> u64 {
        if self.plan.jitter_ps == 0 {
            0
        } else {
            self.rng.next_below(self.plan.jitter_ps + 1)
        }
    }

    /// The injector's share of the fault counters (cell-level only; the
    /// recovery protocol merges its own on top).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            cells_dropped: self.cells_dropped,
            cells_corrupted: self.cells_corrupted,
            brownout_cells: self.brownout_cells,
            ..FaultStats::default()
        }
    }

    /// Execute `plan` from here on, keeping the PCG stream and the
    /// counters: a checkpoint fork changes what the injector does next,
    /// not the draws it already made.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        plan.validate();
        self.plan = plan;
    }
}

/// Fault and recovery counters for one run, merged into the run report.
///
/// The injector fills the cell-level fields; the reliability layer in
/// `cni-core` fills the protocol fields; the NICs contribute the CRC
/// failures their reassemblers detected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Cells discarded in the fabric (random loss plus brownouts).
    pub cells_dropped: u64,
    /// Cells delivered with a flipped payload bit.
    pub cells_corrupted: u64,
    /// Subset of `cells_dropped` owed to scheduled brownout windows.
    pub brownout_cells: u64,
    /// PDUs the receiving NICs rejected on AAL5 CRC-32 / length checks.
    pub crc_failures: u64,
    /// Frames retransmitted (timeout and fast retransmissions combined).
    pub retransmits: u64,
    /// Retransmission-timer expiries that found unacknowledged frames.
    pub timeouts: u64,
    /// Go-back-N fast retransmissions triggered by duplicate ACKs.
    pub fast_retransmits: u64,
    /// Duplicate frames the receivers suppressed.
    pub duplicates: u64,
    /// In-order frames dropped-and-NAKed because the receive ring was full.
    pub ring_overflows: u64,
    /// Acknowledgement PDUs transmitted.
    pub acks_sent: u64,
}

impl FaultStats {
    /// Accumulate another record's counters into this one.
    pub fn merge(&mut self, o: &FaultStats) {
        self.cells_dropped += o.cells_dropped;
        self.cells_corrupted += o.cells_corrupted;
        self.brownout_cells += o.brownout_cells;
        self.crc_failures += o.crc_failures;
        self.retransmits += o.retransmits;
        self.timeouts += o.timeouts;
        self.fast_retransmits += o.fast_retransmits;
        self.duplicates += o.duplicates;
        self.ring_overflows += o.ring_overflows;
        self.acks_sent += o.acks_sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_is_deterministic_and_streams_differ() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 1);
        let mut c = Pcg32::new(42, 2);
        let xs: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        let zs: Vec<u32> = (0..8).map(|_| c.next_u32()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut r = Pcg32::new(7, 3);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(inj.plan().is_zero());
        for i in 0..100 {
            assert_eq!(inj.cell_fate(i, (i % 4) as usize, 48), CellFate::Deliver);
            assert_eq!(inj.jitter_ps(), 0);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_reproduces_the_same_fate_sequence() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            corrupt_prob: 0.2,
            jitter_ps: 500,
            seed: 0xDEAD,
            ..FaultPlan::none()
        };
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for i in 0..500 {
            assert_eq!(
                a.cell_fate(i, (i % 8) as usize, 48),
                b.cell_fate(i, (i % 8) as usize, 48)
            );
            assert_eq!(a.jitter_ps(), b.jitter_ps());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().cells_dropped > 0);
        assert!(a.stats().cells_corrupted > 0);
    }

    #[test]
    fn corrupt_fate_targets_a_valid_payload_bit() {
        let plan = FaultPlan {
            corrupt_prob: 0.999,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        let mut corrupted = 0;
        for i in 0..200 {
            if let CellFate::Corrupt { byte, bit } = inj.cell_fate(i, 0, 48) {
                assert!(byte < 48);
                assert!(bit < 8);
                corrupted += 1;
            }
        }
        assert!(corrupted > 150, "got {corrupted}");
    }

    #[test]
    fn brownout_drops_only_inside_its_window_and_link() {
        let plan = FaultPlan {
            brownouts: [
                Some(BrownoutWindow {
                    link: 2,
                    start_ps: 100,
                    end_ps: 200,
                }),
                None,
                None,
                None,
            ],
            ..FaultPlan::none()
        };
        assert!(!plan.is_zero());
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.cell_fate(150, 2, 48), CellFate::Drop);
        assert_eq!(inj.cell_fate(150, 3, 48), CellFate::Deliver);
        assert_eq!(inj.cell_fate(99, 2, 48), CellFate::Deliver);
        assert_eq!(inj.cell_fate(200, 2, 48), CellFate::Deliver);
        let s = inj.stats();
        assert_eq!(s.brownout_cells, 1);
        assert_eq!(s.cells_dropped, 1);
    }

    #[test]
    fn a_one_picosecond_brownout_is_active_and_drops_its_instant() {
        let w = BrownoutWindow {
            link: 0,
            start_ps: 500,
            end_ps: 501,
        };
        assert!(w.is_active());
        let plan = FaultPlan {
            brownouts: [Some(w), None, None, None],
            ..FaultPlan::none()
        };
        assert!(!plan.is_zero(), "one covered instant makes a lossy plan");
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.cell_fate(499, 0, 48), CellFate::Deliver);
        assert_eq!(inj.cell_fate(500, 0, 48), CellFate::Drop);
        assert_eq!(inj.cell_fate(500, 1, 48), CellFate::Deliver);
        assert_eq!(inj.cell_fate(501, 0, 48), CellFate::Deliver);
        assert_eq!(inj.stats().brownout_cells, 1);
    }

    #[test]
    fn zero_length_brownout_window_drops_nothing() {
        let plan = FaultPlan {
            brownouts: [
                Some(BrownoutWindow {
                    link: 0,
                    start_ps: 500,
                    end_ps: 500, // empty: covers no instant
                }),
                Some(BrownoutWindow {
                    link: 1,
                    start_ps: 900,
                    end_ps: 300, // inverted: also covers no instant
                }),
                None,
                None,
            ],
            ..FaultPlan::none()
        };
        // A plan whose only windows are empty injects nothing, so it must
        // read as the zero plan and leave the lossless fast path intact.
        assert!(plan.is_zero());
        let mut inj = FaultInjector::new(plan);
        for t in [0, 299, 300, 499, 500, 501, 899, 900, 1000] {
            for link in 0..2 {
                assert_eq!(inj.cell_fate(t, link, 48), CellFate::Deliver);
            }
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn overlapping_brownout_windows_count_each_cell_once() {
        let plan = FaultPlan {
            brownouts: [
                Some(BrownoutWindow {
                    link: 0,
                    start_ps: 100,
                    end_ps: 300,
                }),
                Some(BrownoutWindow {
                    link: 0,
                    start_ps: 200,
                    end_ps: 400, // overlaps [200, 300) with the first
                }),
                Some(BrownoutWindow {
                    link: 0,
                    start_ps: 250,
                    end_ps: 260, // nested inside both
                }),
                None,
            ],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        // One cell in the triple-covered region, one in each single-covered
        // flank, one outside.
        assert_eq!(inj.cell_fate(255, 0, 48), CellFate::Drop);
        assert_eq!(inj.cell_fate(150, 0, 48), CellFate::Drop);
        assert_eq!(inj.cell_fate(350, 0, 48), CellFate::Drop);
        assert_eq!(inj.cell_fate(450, 0, 48), CellFate::Deliver);
        let s = inj.stats();
        assert_eq!(s.brownout_cells, 3, "each dropped cell counts once");
        assert_eq!(s.cells_dropped, 3);
    }

    #[test]
    fn set_plan_continues_the_fate_stream_draw_for_draw() {
        let plan = FaultPlan {
            drop_prob: 0.25,
            corrupt_prob: 0.15,
            jitter_ps: 700,
            seed: 0xBEEF,
            ..FaultPlan::none()
        };
        let mut whole = FaultInjector::new(plan);
        let mut switched = FaultInjector::new(plan);
        for i in 0..250 {
            assert_eq!(
                whole.cell_fate(i, (i % 4) as usize, 48),
                switched.cell_fate(i, (i % 4) as usize, 48)
            );
            assert_eq!(whole.jitter_ps(), switched.jitter_ps());
        }
        // The same probabilities under another seed and a brownout that
        // covers none of the remaining draws: the seed is not re-read,
        // so the stream carries on exactly.
        let mut next = plan;
        next.seed = 7;
        next.brownouts[0] = Some(BrownoutWindow {
            link: 9,
            start_ps: 0,
            end_ps: 1,
        });
        switched.set_plan(next);
        assert_eq!(switched.plan(), &next);
        for i in 250..500 {
            assert_eq!(
                whole.cell_fate(i, (i % 4) as usize, 48),
                switched.cell_fate(i, (i % 4) as usize, 48)
            );
            assert_eq!(whole.jitter_ps(), switched.jitter_ps());
        }
        assert_eq!(whole.stats(), switched.stats());
    }

    #[test]
    fn set_plan_keeps_the_counters_and_applies_the_new_rates() {
        let mut inj = FaultInjector::new(FaultPlan {
            drop_prob: 0.5,
            seed: 11,
            ..FaultPlan::none()
        });
        for i in 0..200 {
            let _ = inj.cell_fate(i, 0, 48);
        }
        let before = inj.stats();
        assert!(before.cells_dropped > 50, "{before:?}");
        assert_eq!(before.cells_corrupted, 0);

        // A fork into corruption only: the counters carry over untouched
        // and the next draws follow the new rates, not the old ones.
        inj.set_plan(FaultPlan {
            corrupt_prob: 0.999,
            seed: 11,
            ..FaultPlan::none()
        });
        assert_eq!(inj.stats(), before);
        let mut corrupted = 0;
        for i in 200..400 {
            match inj.cell_fate(i, 0, 48) {
                CellFate::Drop => panic!("cell {i} dropped under a zero drop rate"),
                CellFate::Corrupt { .. } => corrupted += 1,
                CellFate::Deliver => {}
            }
        }
        let after = inj.stats();
        assert_eq!(after.cells_dropped, before.cells_dropped);
        assert_eq!(after.cells_corrupted, corrupted);
        assert!(corrupted > 150, "got {corrupted}");
    }

    #[test]
    #[should_panic(expected = "corrupt_prob")]
    fn set_plan_rejects_an_invalid_plan() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        inj.set_plan(FaultPlan {
            corrupt_prob: 2.0,
            ..FaultPlan::none()
        });
    }

    #[test]
    fn check_names_each_field_validate_would_panic_on() {
        assert_eq!(FaultPlan::none().check(), Ok(()));
        let none = FaultPlan::none();
        let cases = [
            (
                FaultPlan {
                    drop_prob: -0.1,
                    ..none
                },
                "drop_prob",
            ),
            (
                FaultPlan {
                    drop_prob: f64::NAN,
                    ..none
                },
                "drop_prob",
            ),
            (
                FaultPlan {
                    corrupt_prob: 1.0,
                    ..none
                },
                "corrupt_prob",
            ),
            (FaultPlan { window: 0, ..none }, "window"),
            (
                FaultPlan {
                    max_frame_bytes: 63,
                    ..none
                },
                "max_frame_bytes",
            ),
            (
                FaultPlan {
                    rto_base_ps: 0,
                    ..none
                },
                "rto_base_ps",
            ),
            (
                FaultPlan {
                    rto_cap_ps: none.rto_base_ps - 1,
                    ..none
                },
                "rto_cap_ps",
            ),
        ];
        for (plan, field) in cases {
            let e = plan.check().expect_err(field);
            assert!(e.contains(field), "{field}: {e}");
        }
        // The bounds themselves are valid.
        let edge = FaultPlan {
            drop_prob: 0.0,
            corrupt_prob: 0.999,
            window: 1,
            max_frame_bytes: 64,
            rto_base_ps: 1,
            rto_cap_ps: 1,
            ..none
        };
        assert_eq!(edge.check(), Ok(()));
    }

    #[test]
    fn jitter_is_bounded_by_the_plan() {
        let plan = FaultPlan {
            jitter_ps: 250,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..1000 {
            assert!(inj.jitter_ps() <= 250);
        }
    }

    #[test]
    fn stats_merge_adds_every_counter() {
        let a = FaultStats {
            cells_dropped: 1,
            cells_corrupted: 2,
            brownout_cells: 3,
            crc_failures: 4,
            retransmits: 5,
            timeouts: 6,
            fast_retransmits: 7,
            duplicates: 8,
            ring_overflows: 9,
            acks_sent: 10,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            FaultStats {
                cells_dropped: 2,
                cells_corrupted: 4,
                brownout_cells: 6,
                crc_failures: 8,
                retransmits: 10,
                timeouts: 12,
                fast_retransmits: 14,
                duplicates: 16,
                ring_overflows: 18,
                acks_sent: 20,
            }
        );
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let plan = FaultPlan {
            drop_prob: 0.05,
            corrupt_prob: 0.01,
            jitter_ps: 1234,
            seed: 99,
            brownouts: [
                Some(BrownoutWindow {
                    link: 1,
                    start_ps: 5,
                    end_ps: 9,
                }),
                None,
                None,
                None,
            ],
            ..FaultPlan::none()
        };
        let v = serde::Serialize::to_value(&plan);
        let back: FaultPlan = match serde::Deserialize::from_value(&v) {
            Ok(p) => p,
            Err(e) => panic!("deserialize failed: {e:?}"),
        };
        assert_eq!(back, plan);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn validate_rejects_probability_of_one() {
        FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::none()
        }
        .validate();
    }
}
