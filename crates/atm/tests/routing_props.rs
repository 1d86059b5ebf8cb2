//! Property tests of multi-switch routing determinism: every `(src, dst)`
//! pair must map to exactly one route, hop counts must be symmetric, and
//! the full timing model must deliver byte-identical results across
//! independent runs — the fabric half of the DESIGN.md §4.7 byte-identity
//! contract, now over arbitrary valid fat-tree shapes.

use cni_atm::{AtmConfig, Fabric, Route, Topology};
use cni_sim::SimTime;
use proptest::prelude::*;

/// Arbitrary *valid* fat-tree shape: power-of-two leaves ≥ 2, a
/// power-of-two leaf radix split into ≥1 host ports and ≥1 uplinks.
fn arb_fat_tree() -> impl Strategy<Value = Topology> {
    (1u32..=4, 1u32..=5, any::<u16>()).prop_map(|(leaves_exp, radix_exp, down_seed)| {
        let radix = 1usize << radix_exp;
        let down = 1 + down_seed as usize % (radix - 1).max(1);
        Topology::FatTree {
            leaves: 1 << leaves_exp,
            down,
            up: radix - down,
        }
    })
}

fn ft_config(topology: Topology) -> AtmConfig {
    AtmConfig {
        topology,
        ..AtmConfig::default()
    }
}

proptest! {
    fn arbitrary_shapes_validate_and_route_uniquely(t in arb_fat_tree()) {
        prop_assert!(t.validate(32).is_ok(), "{t:?}");
        let hosts = t.hosts(32);
        for src in 0..hosts {
            for dst in 0..hosts {
                // Deterministic: re-deriving the route gives the same path.
                let route = t.route(src, dst);
                prop_assert_eq!(route, t.route(src, dst));
                // Consistent with the attachment map.
                match route {
                    Route::Leaf { switch } => {
                        prop_assert_eq!(switch, t.leaf_of(src));
                        prop_assert_eq!(t.leaf_of(src), t.leaf_of(dst));
                    }
                    Route::Spine { src_leaf, spine, dst_leaf } => {
                        prop_assert_eq!(src_leaf, t.leaf_of(src));
                        prop_assert_eq!(dst_leaf, t.leaf_of(dst));
                        prop_assert_ne!(src_leaf, dst_leaf);
                        // D-mod-k: the spine depends only on the destination.
                        let Topology::FatTree { up, .. } = t else { unreachable!() };
                        prop_assert_eq!(spine, dst % up);
                    }
                }
            }
        }
    }

    fn hop_counts_are_symmetric(t in arb_fat_tree()) {
        let hosts = t.hosts(32);
        for src in 0..hosts {
            for dst in 0..hosts {
                let fwd = t.route(src, dst);
                let rev = t.route(dst, src);
                prop_assert_eq!(fwd.switch_hops(), rev.switch_hops());
                prop_assert_eq!(fwd.trunk_hops(), rev.trunk_hops());
            }
        }
    }

    fn delivery_is_byte_identical_across_runs(
        t in arb_fat_tree(),
        traffic in proptest::collection::vec((0u64..100_000, any::<u8>(), any::<u8>(), 1u16..4096), 1..40),
    ) {
        // Two independent fabrics fed the same traffic must produce the
        // same timing, cell count and wire bytes for every PDU.
        let hosts = t.hosts(32);
        let mut a = Fabric::new(ft_config(t));
        let mut b = Fabric::new(ft_config(t));
        let mut now = SimTime::ZERO;
        for (dt, src, dst, len) in traffic {
            let (src, dst) = (src as usize % hosts, dst as usize % hosts);
            if src == dst {
                continue;
            }
            now += SimTime::from_ns(dt);
            let ta = a.send_pdu(now, src, dst, len as usize, SimTime::from_ns(758));
            let tb = b.send_pdu(now, src, dst, len as usize, SimTime::from_ns(758));
            prop_assert_eq!(ta, tb, "fabric timing diverged between identical runs");
        }
    }
}
