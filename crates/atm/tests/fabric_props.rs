//! Property tests of the interconnect timing model: causality, per-flow
//! ordering, and bandwidth conservation must hold for arbitrary traffic.

use cni_atm::{AtmConfig, Fabric};
use cni_sim::SimTime;
use proptest::prelude::*;

fn arb_traffic() -> impl Strategy<Value = Vec<(u64, u8, u8, u16)>> {
    // (start offset ns, src, dst, pdu len)
    proptest::collection::vec((0u64..100_000, 0u8..8, 0u8..8, 1u16..4096), 1..60)
}

proptest! {
    fn arrivals_never_precede_sends(traffic in arb_traffic()) {
        let mut fabric = Fabric::new(AtmConfig::default());
        let mut t = SimTime::ZERO;
        for (dt, src, dst, len) in traffic {
            let (src, dst) = (src as usize % 8, dst as usize % 8);
            if src == dst {
                continue;
            }
            t += SimTime::from_ns(dt);
            let timing = fabric.send_pdu(t, src, dst, len as usize, SimTime::from_ns(758));
            prop_assert!(timing.first_cell_arrival > t);
            prop_assert!(timing.last_cell_arrival >= timing.first_cell_arrival);
            prop_assert!(timing.cells >= 1);
            prop_assert!(timing.wire_bytes >= len as usize);
        }
    }

    fn same_pair_pdus_stay_ordered(lens in proptest::collection::vec(1usize..4096, 2..20)) {
        let mut fabric = Fabric::new(AtmConfig::default());
        let mut last = SimTime::ZERO;
        for (i, len) in lens.iter().enumerate() {
            // Sent back to back from node 0 to node 1.
            let timing = fabric.send_pdu(
                SimTime::from_ns(i as u64),
                0,
                1,
                *len,
                SimTime::from_ns(758),
            );
            prop_assert!(
                timing.last_cell_arrival >= last,
                "PDU {i} finished before its predecessor"
            );
            last = timing.last_cell_arrival;
        }
    }

    fn wire_time_respects_link_bandwidth(len in 1usize..8192) {
        // A PDU cannot finish faster than its wire bytes at 622 Mb/s plus
        // the fixed path latency.
        let mut fabric = Fabric::new(AtmConfig::default());
        let timing = fabric.send_pdu(SimTime::ZERO, 2, 5, len, SimTime::ZERO);
        let min_ps = timing.wire_bytes as u128 * 8 * 1_000_000_000_000 / 622_000_000
            / timing.cells as u128; // one cell must fully serialise
        prop_assert!(
            (timing.last_cell_arrival.as_ps() as u128) >= min_ps,
            "{} bytes arrived impossibly fast",
            timing.wire_bytes
        );
    }
}
