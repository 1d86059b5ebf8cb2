//! Run-wide utilization profiling from `UtilNode` / `UtilQueue` gauges.

use cni_trace::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Accumulated utilization for one node over all sampled intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeUtil {
    /// The node.
    pub node: u32,
    /// Total NIC-processor busy time (picoseconds).
    pub busy_ps: u64,
    /// Total ingress-link (node → switch) occupancy.
    pub ingress_ps: u64,
    /// Total egress-link (switch → node) occupancy.
    pub egress_ps: u64,
    /// Total sampled virtual time.
    pub sampled_ps: u64,
    /// Receive-ring high-water mark across all intervals (slots).
    pub ring_hw: u32,
    /// Number of samples.
    pub samples: u64,
}

impl NodeUtil {
    /// Busy fraction of a component in percent of sampled time.
    fn pct(&self, v: u64) -> f64 {
        if self.sampled_ps == 0 {
            0.0
        } else {
            v as f64 * 100.0 / self.sampled_ps as f64
        }
    }

    /// NIC-processor busy fraction (percent of sampled time).
    pub fn nic_pct(&self) -> f64 {
        self.pct(self.busy_ps)
    }

    /// Ingress-link occupancy (percent of sampled time).
    pub fn ingress_pct(&self) -> f64 {
        self.pct(self.ingress_ps)
    }

    /// Egress-link occupancy (percent of sampled time).
    pub fn egress_pct(&self) -> f64 {
        self.pct(self.egress_ps)
    }
}

/// Run-wide utilization: per-node gauges plus the engine's event-queue
/// depth profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UtilSummary {
    /// Per-node accumulations, ordered by node id.
    pub nodes: Vec<NodeUtil>,
    /// Highest event-queue depth observed at any sample.
    pub queue_depth_max: u32,
    /// Number of event-queue depth samples.
    pub queue_samples: u64,
}

/// Fold the trace's utilization gauges into a run-wide summary.
pub fn utilization(records: &[TraceRecord]) -> UtilSummary {
    let mut nodes: BTreeMap<u32, NodeUtil> = BTreeMap::new();
    let mut queue_depth_max = 0u32;
    let mut queue_samples = 0u64;
    for rec in records {
        match rec.event {
            TraceEvent::UtilNode {
                busy_ps,
                ingress_ps,
                egress_ps,
                ring_hw,
                interval_ps,
            } => {
                let n = nodes.entry(rec.node).or_insert(NodeUtil {
                    node: rec.node,
                    ..NodeUtil::default()
                });
                // Gauges come from the trace: totals saturate, never wrap.
                n.busy_ps = n.busy_ps.saturating_add(busy_ps);
                n.ingress_ps = n.ingress_ps.saturating_add(ingress_ps);
                n.egress_ps = n.egress_ps.saturating_add(egress_ps);
                n.sampled_ps = n.sampled_ps.saturating_add(interval_ps);
                n.ring_hw = n.ring_hw.max(ring_hw);
                n.samples += 1;
            }
            TraceEvent::UtilQueue { depth } => {
                queue_depth_max = queue_depth_max.max(depth);
                queue_samples += 1;
            }
            _ => {}
        }
    }
    UtilSummary {
        nodes: nodes.into_values().collect(),
        queue_depth_max,
        queue_samples,
    }
}

/// Render the summary as flamegraph-compatible folded stacks: one
/// `frame;frame weight` line per component, weighted in picoseconds of
/// busy time. Feed the output to `flamegraph.pl` (or any collapsed-stack
/// consumer) for a visual where frame width is virtual-time occupancy.
pub fn folded_stacks(util: &UtilSummary) -> String {
    let mut out = String::new();
    for n in &util.nodes {
        let idle = n
            .sampled_ps
            .saturating_sub(n.busy_ps.max(n.ingress_ps).max(n.egress_ps));
        let _ = writeln!(out, "node{};nic-processor {}", n.node, n.busy_ps);
        let _ = writeln!(out, "node{};wire;ingress {}", n.node, n.ingress_ps);
        let _ = writeln!(out, "node{};wire;egress {}", n.node, n.egress_ps);
        let _ = writeln!(out, "node{};idle {}", n.node, idle);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_trace::{TraceSink, NO_NODE};

    #[test]
    fn accumulates_deltas_and_high_water_marks() {
        let sink = TraceSink::ring(64);
        for (t, busy, hw) in [(100, 40u64, 2u32), (200, 60, 5)] {
            sink.emit_at(
                t,
                0,
                TraceEvent::UtilNode {
                    busy_ps: busy,
                    ingress_ps: busy / 2,
                    egress_ps: busy / 4,
                    ring_hw: hw,
                    interval_ps: 100,
                },
            );
        }
        sink.emit_at(100, NO_NODE, TraceEvent::UtilQueue { depth: 9 });
        sink.emit_at(200, NO_NODE, TraceEvent::UtilQueue { depth: 4 });
        let u = utilization(&sink.drain());
        assert_eq!(u.nodes.len(), 1);
        let n = &u.nodes[0];
        assert_eq!(n.busy_ps, 100);
        assert_eq!(n.sampled_ps, 200);
        assert_eq!(n.ring_hw, 5);
        assert_eq!(n.samples, 2);
        assert_eq!(n.nic_pct(), 50.0);
        assert_eq!(u.queue_depth_max, 9);
        assert_eq!(u.queue_samples, 2);
        let folded = folded_stacks(&u);
        assert!(folded.contains("node0;nic-processor 100\n"), "{folded}");
        assert!(folded.contains("node0;idle 100\n"), "{folded}");
    }

    #[test]
    fn nodes_come_out_in_id_order_and_idle_time_never_goes_negative() {
        let gauge = |busy_ps, interval_ps| TraceEvent::UtilNode {
            busy_ps,
            ingress_ps: 0,
            egress_ps: 0,
            ring_hw: 0,
            interval_ps,
        };
        let sink = TraceSink::ring(64);
        sink.emit_at(100, 3, gauge(10, 100));
        sink.emit_at(100, 1, gauge(0, 0));
        // Busy longer than the sampled time leaves no idle time.
        sink.emit_at(100, 2, gauge(500, 100));
        let u = utilization(&sink.drain());
        let ids: Vec<u32> = u.nodes.iter().map(|n| n.node).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(u.nodes[0].nic_pct(), 0.0, "no sampled time, no share");
        assert_eq!(u.nodes[2].nic_pct(), 10.0);
        let folded = folded_stacks(&u);
        assert!(folded.contains("node2;idle 0\n"), "{folded}");
        assert!(folded.contains("node3;idle 90\n"), "{folded}");
    }

    #[test]
    fn link_shares_are_percent_of_sampled_time_per_direction() {
        let sink = TraceSink::ring(64);
        for (t, ingress_ps, egress_ps) in [(100, 30u64, 5u64), (300, 20, 45)] {
            sink.emit_at(
                t,
                4,
                TraceEvent::UtilNode {
                    busy_ps: 0,
                    ingress_ps,
                    egress_ps,
                    ring_hw: 0,
                    interval_ps: 100,
                },
            );
        }
        sink.emit_at(
            300,
            5,
            TraceEvent::UtilNode {
                busy_ps: 0,
                ingress_ps: 7,
                egress_ps: 9,
                ring_hw: 0,
                interval_ps: 0,
            },
        );
        let u = utilization(&sink.drain());
        let n = &u.nodes[0];
        assert_eq!((n.ingress_pct(), n.egress_pct()), (25.0, 25.0));
        assert_eq!(n.nic_pct(), 0.0);
        // Occupancy without sampled time is no share at all.
        assert_eq!(
            (u.nodes[1].ingress_pct(), u.nodes[1].egress_pct()),
            (0.0, 0.0)
        );
    }

    #[test]
    fn empty_trace_is_an_empty_summary() {
        let u = utilization(&[]);
        assert!(u.nodes.is_empty());
        assert_eq!(u.queue_depth_max, 0);
        assert_eq!(folded_stacks(&u), "");
    }
}
