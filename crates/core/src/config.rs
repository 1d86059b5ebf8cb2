//! Cluster configuration: the paper's Table 1 as data.

use cni_atm::AtmConfig;
use cni_faults::FaultPlan;
use cni_nic::{NicConfig, NicKind};
use cni_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Cost constants for protocol processing, in cycles of whichever
/// processor runs the protocol (host under the standard NIC, the NIC
/// processor under the CNI — the paper's Application Interrupt Handlers).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ProtoCosts {
    /// Taking a shared-memory access fault (trap + protocol entry), host
    /// cycles.
    pub fault_trap_cycles: u64,
    /// Application-side cost of a lock acquire/release call, host cycles.
    pub lock_op_cycles: u64,
    /// Application-side cost of a barrier call, host cycles.
    pub barrier_op_cycles: u64,
    /// Base cost of handling one protocol message.
    pub msg_base_cycles: u64,
    /// Cost per word of twin/diff/page data touched.
    pub per_word_cycles: u64,
    /// Cost per write notice processed.
    pub per_notice_cycles: u64,
    /// Fast-path cost of one shared-memory read (fault-free).
    pub shared_read_cycles: u64,
    /// Fast-path cost of one shared-memory write (fault-free).
    pub shared_write_cycles: u64,
}

impl Default for ProtoCosts {
    fn default() -> Self {
        ProtoCosts {
            fault_trap_cycles: 400,
            lock_op_cycles: 60,
            barrier_op_cycles: 80,
            msg_base_cycles: 300,
            per_word_cycles: 2,
            per_notice_cycles: 12,
            shared_read_cycles: 2,
            shared_write_cycles: 2,
        }
    }
}

/// The largest Message Cache [`Config::check`] accepts: 64 MiB, 64 times
/// Figure 13's largest size. The cache's slot table is allocated up front
/// on every node, so an unbounded size from outside could abort the
/// process on allocation.
pub const MAX_MSG_CACHE_BYTES: usize = 64 << 20;

/// The longest clock period, cycle cost or fabric latency
/// [`Config::check`] accepts: 1 s of simulated time, 12,500 times the
/// largest cost the figure harnesses set (`interrupt_sweep`'s 80 µs
/// interrupt). Every operation adds such durations to `u64` picoseconds,
/// so an unbounded one from outside would overflow simulated time.
pub const MAX_DURATION: SimTime = SimTime::from_ms(1_000);

/// Full configuration of one simulated cluster.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Config {
    /// Processors (= workstations) in the cluster.
    pub procs: usize,
    /// NIC personality: the paper's CNI or the standard baseline.
    pub nic_kind: NicKind,
    /// Host/NIC boundary cost model (Table 1 rows).
    pub nic: NicConfig,
    /// Interconnect parameters (Table 1 rows).
    pub atm: AtmConfig,
    /// Shared page size in bytes (default 2 KB, swept by the page-size
    /// sensitivity figures).
    pub page_bytes: usize,
    /// Protocol cost constants.
    pub costs: ProtoCosts,
    /// Use a combining-tree barrier instead of the centralised manager
    /// (extension; the paper's protocol is centralised).
    pub tree_barrier: bool,
    /// Execute barrier combining and release/lock-chain forwarding as
    /// dedicated collective primitives on the NIC processor instead of
    /// general AIH dispatches (extension; generalises the paper's AIH
    /// along the lines of NIC-based collectives, arXiv cs/0402027).
    /// Implies a tree-structured barrier; only meaningful with
    /// [`NicKind::Cni`].
    pub collectives: bool,
    /// Seed for workload generation.
    pub seed: u64,
    /// Fault-injection plan for the interconnect. [`FaultPlan::none`]
    /// (the default) keeps the simulation on the lossless fast path with
    /// bit-identical timing.
    pub faults: FaultPlan,
    /// Ignored: every run takes the one serial event loop (DESIGN.md
    /// §4.11). Kept, with [`Config::with_engine_workers`], because
    /// `cni-bench` sets it and stored checkpoint configurations carry it;
    /// it goes with the benchmark's next change. A resume treats configs
    /// that differ only here as the same experiment.
    pub engine_workers: usize,
}

impl Config {
    /// The paper's simulation parameters (Table 1) with the CNI interface.
    pub fn paper_default() -> Self {
        Config {
            procs: 8,
            nic_kind: NicKind::Cni,
            nic: NicConfig::default(),
            atm: AtmConfig::default(),
            page_bytes: 2048,
            costs: ProtoCosts::default(),
            tree_barrier: false,
            collectives: false,
            seed: 0x5EED,
            faults: FaultPlan::none(),
            engine_workers: 1,
        }
    }

    /// Same cluster with the standard (baseline) network interface.
    pub fn standard(mut self) -> Self {
        self.nic_kind = NicKind::Standard;
        self
    }

    /// Same cluster with the CNI.
    pub fn cni(mut self) -> Self {
        self.nic_kind = NicKind::Cni;
        self
    }

    /// Set the processor count (one workstation per fabric host port).
    pub fn with_procs(mut self, procs: usize) -> Self {
        assert!(
            procs >= 1 && procs <= self.atm.hosts(),
            "1..=hosts processors"
        );
        self.procs = procs;
        self
    }

    /// Set the fabric topology. Panics when the shape violates the
    /// banyan constraints or strands already-configured processors.
    pub fn with_topology(mut self, topology: cni_atm::Topology) -> Self {
        if let Err(e) = topology.validate(self.atm.ports) {
            panic!("invalid topology: {e}");
        }
        self.atm.topology = topology;
        assert!(
            self.procs <= self.atm.hosts(),
            "topology serves fewer hosts than configured processors"
        );
        self
    }

    /// Shorthand for a 2-level fat-tree of `leaves` leaf switches with
    /// `down` host ports and `up` uplinks each.
    pub fn with_fat_tree(self, leaves: usize, down: usize, up: usize) -> Self {
        self.with_topology(cni_atm::Topology::FatTree { leaves, down, up })
    }

    /// Run barrier/release combining on the NIC processor (NIC-resident
    /// collectives; implies the tree-structured barrier).
    pub fn with_collectives(mut self) -> Self {
        self.collectives = true;
        self.tree_barrier = true;
        self
    }

    /// Set the shared page size (also the Message Cache buffer size).
    /// [`Config::check`] requires at least 512 word-aligned bytes.
    pub fn with_page_bytes(mut self, bytes: usize) -> Self {
        self.page_bytes = bytes;
        self.nic.page_bytes = bytes;
        self
    }

    /// Set the Message Cache capacity.
    pub fn with_msg_cache_bytes(mut self, bytes: usize) -> Self {
        self.nic.msg_cache_bytes = bytes;
        self
    }

    /// Disable individual CNI mechanisms (ablation studies): the Message
    /// Cache, the Application Interrupt Handlers, or the polling hybrid.
    pub fn with_cni_features(mut self, features: cni_nic::config::CniFeatures) -> Self {
        self.nic.cni_features = features;
        self
    }

    /// Use the combining-tree barrier (extension).
    pub fn with_tree_barrier(mut self) -> Self {
        self.tree_barrier = true;
        self
    }

    /// Switch the interconnect to the paper's "mythical" unrestricted cell
    /// size (Table 5).
    pub fn with_unrestricted_cells(mut self) -> Self {
        self.atm.cell_payload = None;
        self
    }

    /// Inject faults according to `plan` (validated when the cluster is
    /// built). A zero plan is equivalent to not calling this at all.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Set the ignored [`Config::engine_workers`] field.
    pub fn with_engine_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one engine worker");
        self.engine_workers = workers;
        self
    }

    /// `Err` naming the first invariant this configuration breaks: a
    /// fabric [`AtmConfig::check`] accepts that serves every processor,
    /// word-aligned pages of at least 512 bytes, a power-of-two cache line
    /// of 8 bytes up to a page, a Message Cache of at most
    /// [`MAX_MSG_CACHE_BYTES`], clock periods of 1 ps up to
    /// [`MAX_DURATION`], cycle costs and fabric latencies of at most
    /// [`MAX_DURATION`], at least one engine worker and a valid fault
    /// plan. [`crate::World::new`] panics through this check;
    /// configurations read from outside (checkpoints, sweep files,
    /// command-line flags) are checked with it first.
    pub fn check(&self) -> Result<(), String> {
        self.atm.check()?;
        let hosts = self.atm.hosts();
        if !(1..=hosts).contains(&self.procs) {
            return Err(format!(
                "procs must be between 1 and {hosts} (the fabric serves {hosts} hosts), got {}",
                self.procs
            ));
        }
        if self.page_bytes < 512 || !self.page_bytes.is_multiple_of(8) {
            return Err(format!(
                "page_bytes must be at least 512 and a multiple of 8, got {}",
                self.page_bytes
            ));
        }
        let line = self.nic.cache_line_bytes;
        if !line.is_power_of_two() || !(8..=self.page_bytes).contains(&line) {
            return Err(format!(
                "cache_line_bytes must be a power of two from 8 to page_bytes ({}), got {line}",
                self.page_bytes
            ));
        }
        if self.nic.msg_cache_bytes > MAX_MSG_CACHE_BYTES {
            return Err(format!(
                "msg_cache_bytes must be at most {MAX_MSG_CACHE_BYTES} (64 MiB), got {}",
                self.nic.msg_cache_bytes
            ));
        }
        self.check_durations()?;
        if self.engine_workers == 0 {
            return Err("engine_workers must be at least 1".into());
        }
        self.faults.check()
    }

    /// `Err` naming the first clock, cycle cost or fabric latency whose
    /// duration is 0 (a clock period) or longer than [`MAX_DURATION`].
    fn check_durations(&self) -> Result<(), String> {
        let (n, c, max) = (&self.nic, &self.costs, MAX_DURATION.as_ps());
        let clocks = [
            ("nic.host_clock", n.host_clock),
            ("nic.nic_clock", n.nic_clock),
            ("nic.bus_clock", n.bus_clock),
        ];
        for (name, clock) in clocks {
            if !(1..=max).contains(&clock.period_ps()) {
                return Err(format!(
                    "{name}.period_ps must be between 1 and {max} (1 s), got {}",
                    clock.period_ps()
                ));
            }
        }
        let (host, nic, bus) = (
            n.host_clock.period_ps(),
            n.nic_clock.period_ps(),
            n.bus_clock.period_ps(),
        );
        // Protocol handlers run on the host, or under the CNI on the NIC
        // processor: their costs are bounded on the slower clock.
        let proto = host.max(nic);
        let costs = [
            ("costs.fault_trap_cycles", c.fault_trap_cycles, host),
            ("costs.lock_op_cycles", c.lock_op_cycles, host),
            ("costs.barrier_op_cycles", c.barrier_op_cycles, host),
            ("costs.msg_base_cycles", c.msg_base_cycles, proto),
            ("costs.per_word_cycles", c.per_word_cycles, proto),
            ("costs.per_notice_cycles", c.per_notice_cycles, proto),
            ("costs.shared_read_cycles", c.shared_read_cycles, host),
            ("costs.shared_write_cycles", c.shared_write_cycles, host),
            ("nic.bus_acquire_cycles", n.bus_acquire_cycles, bus),
            ("nic.bus_cycles_per_word", n.bus_cycles_per_word, bus),
            ("nic.interrupt_cycles", n.interrupt_cycles, host),
            (
                "nic.interrupt_occupancy_cycles",
                n.interrupt_occupancy_cycles,
                host,
            ),
            ("nic.kernel_send_cycles", n.kernel_send_cycles, host),
            ("nic.kernel_recv_cycles", n.kernel_recv_cycles, host),
            ("nic.adc_enqueue_cycles", n.adc_enqueue_cycles, host),
            ("nic.poll_cycles", n.poll_cycles, host),
            ("nic.descriptor_cycles", n.descriptor_cycles, nic),
            ("nic.sar_tx_cycles_per_cell", n.sar_tx_cycles_per_cell, nic),
            ("nic.sar_rx_cycles_per_cell", n.sar_rx_cycles_per_cell, nic),
            (
                "nic.classify_cycles_per_cell",
                n.classify_cycles_per_cell,
                nic,
            ),
            ("nic.buffer_map_cycles", n.buffer_map_cycles, nic),
            (
                "nic.board_copy_cycles_per_word",
                n.board_copy_cycles_per_word,
                nic,
            ),
            ("nic.rtlb_miss_cycles", n.rtlb_miss_cycles, nic),
            ("nic.coll_combine_cycles", n.coll_combine_cycles, nic),
            ("nic.coll_forward_cycles", n.coll_forward_cycles, nic),
        ];
        for (name, cycles, period) in costs {
            if cycles.checked_mul(period).is_none_or(|ps| ps > max) {
                return Err(format!(
                    "{name} must last at most 1 s, got {cycles} cycles of {period} ps"
                ));
            }
        }
        let latencies = [
            ("atm.switch_latency", self.atm.switch_latency),
            ("atm.prop_delay", self.atm.prop_delay),
        ];
        for (name, t) in latencies {
            if t > MAX_DURATION {
                return Err(format!(
                    "{name} must be at most {max} ps (1 s), got {} ps",
                    t.as_ps()
                ));
            }
        }
        Ok(())
    }

    /// Render the Table 1 parameter listing.
    pub fn table1(&self) -> String {
        let n = &self.nic;
        let mut s = String::new();
        let mut row = |k: &str, v: String| s.push_str(&format!("{k:<32} {v}\n"));
        row("CPU Frequency", "166 MHz".into());
        row("Primary Cache Access Time", "1 cycle".into());
        row("Primary Cache Size", "32K unified".into());
        row("Secondary Cache Access Time", "10 cycles".into());
        row("Secondary Cache Size", "1 MB unified".into());
        row("Cache Organization", "Direct-mapped".into());
        row("Cache Policy", "Write-back".into());
        row("Memory Latency", "20 cycles".into());
        row(
            "Bus Acquisition Time",
            format!("{} cycles", n.bus_acquire_cycles),
        );
        row(
            "Bus Transfer rate",
            format!("{} cycles per word", n.bus_cycles_per_word),
        );
        row("Bus Frequency", "25 MHz".into());
        row(
            "Switch Latency",
            format!("{} ns", self.atm.switch_latency.as_ns()),
        );
        row("Network Processor Frequency", "33 MHz".into());
        row(
            "Network Latency",
            format!("{} ns", self.atm.prop_delay.as_ns()),
        );
        row(
            "Interrupt Latency",
            format!(
                "{} us",
                SimTime::from_ps(n.host_clock.cycles(n.interrupt_cycles).as_ps()).as_us_f64()
                    as u64
            ),
        );
        row(
            "Message Cache Size",
            format!("{} KB", n.msg_cache_bytes / 1024),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_table1() {
        let c = Config::paper_default();
        assert_eq!(c.procs, 8);
        assert_eq!(c.page_bytes, 2048);
        assert_eq!(c.nic.msg_cache_bytes, 32 * 1024);
        assert_eq!(c.atm.ports, 32);
        let t = c.table1();
        assert!(t.contains("166 MHz"));
        assert!(t.contains("Message Cache Size"));
        assert!(t.contains("32 KB"));
    }

    #[test]
    fn builders_compose() {
        let c = Config::paper_default()
            .standard()
            .with_procs(16)
            .with_page_bytes(4096)
            .with_msg_cache_bytes(512 * 1024);
        assert_eq!(c.nic_kind, NicKind::Standard);
        assert_eq!(c.procs, 16);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.nic.page_bytes, 4096);
        assert_eq!(c.nic.msg_cache_bytes, 512 * 1024);
        let j = c.with_unrestricted_cells();
        assert!(j.atm.cell_payload.is_none());
    }

    #[test]
    fn check_rejects_what_world_new_would_panic_on() {
        let ok = Config::paper_default();
        assert_eq!(ok.check(), Ok(()));
        let mut bad = ok;
        bad.procs = 0;
        assert!(bad.check().unwrap_err().contains("procs"));
        bad.procs = 9999;
        assert!(bad.check().unwrap_err().contains("procs"));
        let mut bad = ok;
        bad.page_bytes = 0;
        assert!(bad.check().unwrap_err().contains("page_bytes"));
        let mut bad = ok;
        bad.faults.drop_prob = 1.5;
        assert!(bad.check().unwrap_err().contains("drop_prob"));
        bad.faults.drop_prob = f64::NAN;
        assert!(bad.check().unwrap_err().contains("drop_prob"));
        let mut bad = ok;
        bad.engine_workers = 0;
        assert!(bad.check().unwrap_err().contains("engine_workers"));
        for line in [0, 4, 24, 4096] {
            let mut bad = ok;
            bad.nic.cache_line_bytes = line;
            assert!(bad.check().unwrap_err().contains("cache_line_bytes"));
        }
        let mut bad = ok;
        bad.nic.msg_cache_bytes = 1_000_000_000_000_000_000;
        assert!(bad.check().unwrap_err().contains("msg_cache_bytes"));
        let mut edge = ok.with_msg_cache_bytes(MAX_MSG_CACHE_BYTES);
        edge.nic.cache_line_bytes = edge.page_bytes;
        assert_eq!(edge.check(), Ok(()));
        let mut bad = ok;
        bad.atm.topology = cni_atm::Topology::FatTree {
            leaves: 3,
            down: 16,
            up: 16,
        };
        assert!(bad.check().is_err());
        let mut bad = ok;
        bad.atm.cell_payload = Some(0);
        assert!(bad.check().unwrap_err().contains("cell_payload"));
        bad.atm.cell_payload = Some(cni_atm::aal5::AAL5_MAX_PDU + 9);
        assert!(bad.check().unwrap_err().contains("cell_payload"));
        let mut edge = ok.with_unrestricted_cells();
        assert_eq!(edge.check(), Ok(()));
        edge.atm.cell_payload = Some(cni_atm::aal5::AAL5_MAX_PDU + 8);
        assert_eq!(edge.check(), Ok(()));
        let mut bad = ok;
        bad.atm.link_mbps = 0;
        assert!(bad.check().unwrap_err().contains("link_mbps"));
        bad.atm.link_mbps = u64::MAX / 1000;
        assert!(bad.check().unwrap_err().contains("link_mbps"));
        bad.atm.link_mbps = u64::MAX / 1_000_000;
        assert_eq!(bad.check(), Ok(()));

        // A clock period of 0, or a cycle cost, clock period or fabric
        // latency longer than `MAX_DURATION`, would divide by zero or
        // overflow simulated time once the run charges it.
        let clock = |ps: u64| -> cni_sim::Clock {
            serde_json::from_str(&format!("{{\"period_ps\": {ps}}}")).unwrap()
        };
        let max = MAX_DURATION.as_ps();
        for ps in [0, max + 1, 1 << 62] {
            let mut bad = ok;
            bad.nic.host_clock = clock(ps);
            assert!(bad.check().unwrap_err().contains("nic.host_clock"));
            let mut bad = ok;
            bad.nic.bus_clock = clock(ps);
            assert!(bad.check().unwrap_err().contains("nic.bus_clock"));
        }
        let host = ok.nic.host_clock.period_ps();
        let mut edge = ok;
        edge.costs.fault_trap_cycles = max / host;
        assert_eq!(edge.check(), Ok(()));
        let mut bad = ok;
        for cycles in [max / host + 1, 1 << 62, u64::MAX] {
            bad.costs.fault_trap_cycles = cycles;
            assert!(bad.check().unwrap_err().contains("costs.fault_trap_cycles"));
        }
        let mut bad = ok;
        bad.nic.sar_rx_cycles_per_cell = 1 << 62;
        assert!(bad
            .check()
            .unwrap_err()
            .contains("nic.sar_rx_cycles_per_cell"));
        let mut edge = ok;
        edge.atm.switch_latency = MAX_DURATION;
        edge.atm.prop_delay = MAX_DURATION;
        assert_eq!(edge.check(), Ok(()));
        let mut bad = ok;
        for ps in [max + 1, u64::MAX] {
            bad.atm.switch_latency = SimTime::from_ps(ps);
            assert!(bad.check().unwrap_err().contains("atm.switch_latency"));
        }
        let mut bad = ok;
        bad.atm.prop_delay = SimTime::MAX;
        assert!(bad.check().unwrap_err().contains("atm.prop_delay"));
    }

    #[test]
    #[should_panic(expected = "processors")]
    fn too_many_procs_rejected() {
        let _ = Config::paper_default().with_procs(33);
    }

    #[test]
    fn fat_tree_raises_the_host_ceiling() {
        let c = Config::paper_default()
            .with_fat_tree(16, 16, 16)
            .with_procs(256)
            .with_collectives();
        assert_eq!(c.atm.hosts(), 256);
        assert_eq!(c.procs, 256);
        assert!(c.tree_barrier, "collectives imply the tree barrier");
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn bad_topology_shape_rejected() {
        let _ = Config::paper_default().with_fat_tree(3, 16, 16);
    }

    #[test]
    #[should_panic(expected = "fewer hosts")]
    fn shrinking_topology_under_procs_rejected() {
        let _ = Config::paper_default()
            .with_fat_tree(16, 16, 16)
            .with_procs(256)
            .with_topology(cni_atm::Topology::Single);
    }
}
