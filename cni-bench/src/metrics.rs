//! The benchmark's metric catalogue: every metric it reports, with its
//! unit. End-to-end metrics come from untraced runs; per-layer metrics
//! from the separate traced run and its replay probes.

/// End-to-end metrics, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    // Host wall time of `World::run`, scaled to nominal host speed.
    ("run_s", "s"),
    // Host time of `World::new` plus building the programs, scaled.
    ("setup_s", "s"),
    // VmHWM of a fresh process after one cold run of each seed variant.
    ("peak_rss_mb", "MB"),
    // Simulated completion time (must not move unless the model does).
    ("sim_wall_ms", "ms"),
];

/// Per-layer metrics, as `(name, unit)`, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.queue.events", "count"),
    ("sim.queue.events_per_s", "1/s"),
    ("sim.queue.depth_mean", "count"),
    ("sim.queue.ns_per_op", "ns"),
    ("sim.queue.host_s", "s"),
    ("sim.cothread.switches", "count"),
    ("sim.cothread.roundtrip_ns_1cpu", "ns"),
    ("sim.cothread.roundtrip_ns_ncpu", "ns"),
    ("sim.cothread.host_s", "s"),
    ("sim.pdes.serial_run_s", "s"),
    ("sim.pdes.speedup", "ratio"),
    ("atm.aal5.pdus", "count"),
    ("atm.aal5.cells", "count"),
    ("atm.aal5.ns_per_pdu", "ns"),
    ("atm.aal5.host_s", "s"),
    ("atm.fabric.ns_per_pdu", "ns"),
    ("atm.fabric.host_s", "s"),
    ("atm.fabric.wire_share", "ratio"),
    ("nic.msgcache.lookups", "count"),
    ("nic.msgcache.hit_ratio", "ratio"),
    ("nic.msgcache.ns_per_op", "ns"),
    ("nic.msgcache.host_s", "s"),
    ("pathfinder.classifications", "count"),
    ("pathfinder.cells_per_classify", "count"),
    ("pathfinder.ns_per_classify", "ns"),
    ("pathfinder.host_s", "s"),
    ("nic.interrupts", "count"),
    ("nic.polls", "count"),
    ("nic.aih_dispatches", "count"),
    ("nic.dma_bytes_to_board", "bytes"),
    ("nic.dma_bytes_to_host", "bytes"),
    ("nic.coll_combines", "count"),
    ("nic.tx_queue_share", "ratio"),
    ("nic.rx_nic_share", "ratio"),
    ("faults.cells_dropped", "count"),
    ("faults.cells_corrupted", "count"),
    ("faults.crc_failures", "count"),
    ("core.gbn.retransmits", "count"),
    ("core.gbn.timeouts", "count"),
    ("core.gbn.duplicates", "count"),
    ("core.gbn.acks", "count"),
    ("core.gbn.goodput_ratio", "ratio"),
    ("dsm.read_faults", "count"),
    ("dsm.write_faults", "count"),
    ("dsm.page_fetches", "count"),
    ("dsm.diff_fetches", "count"),
    ("dsm.acquires_remote", "count"),
    ("dsm.handler_share", "ratio"),
    ("dsm.sync_delay_share", "ratio"),
    ("apps.compute_share", "ratio"),
    ("mem.rss_growth_mb", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.records", "count"),
    ("obs.analyze_s", "s"),
    ("core.unattributed_s", "s"),
];

/// The per-layer `host_s` metrics whose sum, subtracted from `run_s`,
/// leaves `core.unattributed_s`.
pub const HOST_S: &[&str] = &[
    "sim.queue.host_s",
    "sim.cothread.host_s",
    "atm.aal5.host_s",
    "atm.fabric.host_s",
    "nic.msgcache.host_s",
    "pathfinder.host_s",
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Metric and workload names: letters, digits, `_`, `.` and `-`,
    /// starting with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units: letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        for w in crate::workload::ALL {
            assert!(valid_name(w.name()), "bad workload name {}", w.name());
        }
        for h in HOST_S {
            assert_eq!(unit(h), Some("s"), "{h} must be a catalogued time");
        }
    }

    #[test]
    fn grammar_rejects_malformed_names_and_units() {
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "slash/no",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        assert!(valid_name("a.b-c_9"));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }
}
