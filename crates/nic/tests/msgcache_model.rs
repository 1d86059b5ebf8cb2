//! Model-based property tests of the Message Cache: the CLOCK buffer map
//! must agree with a trivially correct reference model on membership and
//! capacity under arbitrary operation sequences.

use cni_nic::MessageCache;
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Debug)]
enum Op {
    LookupTx(u64),
    Insert(u64),
    Snoop(u64),
    Invalidate(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u64..24, 0u8..4).prop_map(|(page, kind)| match kind {
        0 => Op::LookupTx(page),
        1 => Op::Insert(page),
        2 => Op::Snoop(page),
        _ => Op::Invalidate(page),
    })
}

proptest! {
    fn clock_agrees_with_reference_set(
        buffers in 1usize..12,
        ops in proptest::collection::vec(arb_op(), 0..300),
    ) {
        let mut mc = MessageCache::new(buffers, 16);
        // Reference: the set of resident pages. Eviction order is CLOCK's
        // business; membership and capacity are the contract.
        let mut resident: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::LookupTx(p) => {
                    let hit = mc.lookup_tx(p);
                    prop_assert_eq!(hit, resident.contains(&p));
                }
                Op::Insert(p) => {
                    let evicted = mc.insert(p);
                    if let Some(old) = evicted {
                        prop_assert!(resident.remove(&old), "evicted non-resident {old}");
                        prop_assert_ne!(old, p);
                    }
                    resident.insert(p);
                }
                Op::Snoop(p) => {
                    let (res, _) = mc.snoop_write(p);
                    prop_assert_eq!(res, resident.contains(&p));
                }
                Op::Invalidate(p) => {
                    let was = mc.invalidate(p);
                    prop_assert_eq!(was, resident.remove(&p));
                }
            }
            prop_assert_eq!(mc.resident(), resident.len());
            prop_assert!(resident.len() <= buffers, "over capacity");
        }
        // Final consistency sweep.
        for p in 0..24u64 {
            prop_assert_eq!(mc.contains(p), resident.contains(&p));
        }
    }

    fn hit_ratio_is_hits_over_lookups(
        pages in proptest::collection::vec(0u64..8, 1..100),
    ) {
        let mut mc = MessageCache::new(4, 16);
        let mut hits = 0u64;
        for &p in &pages {
            if mc.lookup_tx(p) {
                hits += 1;
            } else {
                mc.insert(p);
            }
        }
        let s = mc.stats();
        prop_assert_eq!(s.tx_lookups, pages.len() as u64);
        prop_assert_eq!(s.tx_hits, hits);
        let expect = hits as f64 / pages.len() as f64;
        prop_assert!((s.hit_ratio() - expect).abs() < 1e-12);
    }
}
