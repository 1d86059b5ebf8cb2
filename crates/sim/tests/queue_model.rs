//! Property tests of the deterministic event queue against a sorted
//! reference, and determinism of the SplitMix64 stream.

use cni_sim::{EventQueue, SimTime, SplitMix64};
use proptest::prelude::*;

proptest! {
    fn queue_pops_stable_sorted(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ns(t), i);
        }
        // Reference: stable sort by time.
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t);
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_ns(), i));
        }
        prop_assert_eq!(got, expect);
    }

    fn schedule_after_accumulates(delays in proptest::collection::vec(1u64..100, 1..50)) {
        let mut q = EventQueue::new();
        // Chain of relative events: each scheduled when the previous pops.
        q.schedule_after(SimTime::from_ns(delays[0]), 0usize);
        let mut idx = 0;
        let mut expect = 0u64;
        while let Some((t, i)) = q.pop() {
            expect += delays[idx];
            prop_assert_eq!(t.as_ns(), expect);
            prop_assert_eq!(i, idx);
            idx += 1;
            if idx < delays.len() {
                q.schedule_after(SimTime::from_ns(delays[idx]), idx);
            }
        }
        prop_assert_eq!(idx, delays.len());
    }

    fn splitmix_streams_equal_iff_seeds_equal(a in any::<u64>(), b in any::<u64>()) {
        let mut ra = SplitMix64::new(a);
        let mut rb = SplitMix64::new(b);
        let va: Vec<u64> = (0..8).map(|_| ra.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| rb.next_u64()).collect();
        if a == b {
            prop_assert_eq!(va, vb);
        } else {
            prop_assert_ne!(va, vb);
        }
    }
}
