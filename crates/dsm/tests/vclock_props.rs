//! Vector-clock algebra: the DSM's correctness leans on `merge` being a
//! join (commutative, associative, idempotent) and `covers` being the
//! matching partial order.

use cni_dsm::{ProcId, VClock};
use proptest::prelude::*;

fn arb_clock(n: usize) -> impl Strategy<Value = VClock> {
    proptest::collection::vec(0u32..50, n).prop_map(VClock)
}

proptest! {
    fn merge_is_commutative(a in arb_clock(4), b in arb_clock(4)) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    fn merge_is_associative(a in arb_clock(4), b in arb_clock(4), c in arb_clock(4)) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    fn merge_is_idempotent_and_covering(a in arb_clock(4), b in arb_clock(4)) {
        let mut m = a.clone();
        m.merge(&b);
        // Join covers both operands.
        prop_assert!(m.covers(&a));
        prop_assert!(m.covers(&b));
        // And is the least such clock: merging again changes nothing.
        let mut mm = m.clone();
        mm.merge(&a);
        mm.merge(&b);
        prop_assert_eq!(mm, m);
    }

    fn covers_is_a_partial_order(a in arb_clock(4), b in arb_clock(4), c in arb_clock(4)) {
        // Reflexive.
        prop_assert!(a.covers(&a));
        // Antisymmetric.
        if a.covers(&b) && b.covers(&a) {
            prop_assert_eq!(a.clone(), b.clone());
        }
        // Transitive.
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    fn raise_only_raises(mut a in arb_clock(4), p in 0u32..4, v in 0u32..100) {
        let before = a.get(ProcId(p));
        a.raise(ProcId(p), v);
        prop_assert_eq!(a.get(ProcId(p)), before.max(v));
    }

    fn component_sum_is_monotone_along_covers(a in arb_clock(4), b in arb_clock(4)) {
        // The causal-order linearisation in the diff-merge path sorts by
        // component sum; that is only valid because the sum is strictly
        // monotone along happens-before.
        if a.covers(&b) && a != b {
            let sa: u64 = a.0.iter().map(|&x| x as u64).sum();
            let sb: u64 = b.0.iter().map(|&x| x as u64).sum();
            prop_assert!(sa > sb);
        }
    }
}
