//! Randomised protocol stress: arbitrary lock-disciplined programs run
//! through the synchronous DSM cluster must agree with a flat reference
//! memory. This is the release-consistency contract checked in bulk:
//! every read under a lock sees exactly the value the serialised lock
//! order produced. Each case runs on a combining-tree barrier of fan-out
//! N (the centralised barrier), 2 or 4.

use cni_dsm::{DsmCluster, DsmConfig, LockId, ProcId, VAddr};
use proptest::prelude::*;
use std::collections::HashMap;

/// One lock-protected critical section: add `delta` to `slot`, which is
/// always accessed under `lock` (a well-synchronised program).
#[derive(Clone, Debug)]
struct Cs {
    proc: u8,
    lock: u8,
    slot: u8,
    delta: u64,
}

/// The cluster for `procs` processors, `page_bytes` pages and barrier
/// kind `barrier`: 0 centralised (fan-out N), 1 a binary combining tree,
/// 2 a tree of fan-out 4.
fn cluster(procs: usize, page_bytes: usize, barrier: usize) -> DsmCluster {
    DsmCluster::new(DsmConfig {
        procs,
        page_bytes,
        line_bytes: 32,
        barrier_arity: [procs, 2, 4][barrier],
    })
}

fn arb_cs(procs: u8) -> impl Strategy<Value = Cs> {
    (0..procs, 0u8..6, 0u8..32, 1u64..100).prop_map(|(proc, lock, slot, delta)| Cs {
        proc,
        lock,
        // Slots are partitioned among locks so every slot has exactly one
        // guarding lock: slot % 6 == lock.
        slot,
        delta,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    fn lock_disciplined_updates_serialise(
        procs in 2u8..5,
        barrier in 0usize..3,
        css in proptest::collection::vec(arb_cs(4), 1..120),
    ) {
        let mut cluster = cluster(procs as usize, 2048, barrier);
        // 32 slots spread over 2 pages to force real sharing.
        let base = cluster.alloc(32 * 64);
        let slot_addr = |s: u8| -> VAddr { base.add(s as u64 * 64) };
        let mut reference: HashMap<u8, u64> = HashMap::new();
        for cs in &css {
            let p = ProcId((cs.proc % procs) as u32);
            // Bind the slot to its guarding lock.
            let lock = LockId((cs.slot % 6) as u32);
            let _ = cs.lock;
            cluster.acquire(p, lock);
            let cur = cluster.read_u64(p, slot_addr(cs.slot));
            prop_assert_eq!(cur, *reference.get(&cs.slot).unwrap_or(&0),
                "stale read of slot {} by {:?}", cs.slot, p);
            cluster.write_u64(p, slot_addr(cs.slot), cur + cs.delta);
            *reference.entry(cs.slot).or_insert(0) += cs.delta;
            cluster.release(p, lock);
        }
        // A barrier publishes everything; then every processor sees the
        // final values.
        cluster.barrier_all();
        for s in reference.keys() {
            for p in 0..procs {
                let got = cluster.read_u64(ProcId(p as u32), slot_addr(*s));
                prop_assert_eq!(got, reference[s]);
            }
        }
    }

    fn barrier_rounds_publish_disjoint_writers(
        procs in 2u8..9,
        barrier in 0usize..3,
        rounds in 1usize..5,
        values in proptest::collection::vec(any::<u64>(), 8 * 5),
    ) {
        let n = procs as usize;
        let mut cluster = cluster(n, 1024, barrier);
        let base = cluster.alloc(n * 1024);
        for round in 0..rounds {
            for p in 0..n {
                let v = values[(round * n + p) % values.len()];
                cluster.write_u64(ProcId(p as u32), base.add((p * 1024) as u64), v);
            }
            cluster.barrier_all();
            for reader in 0..n {
                for p in 0..n {
                    let v = values[(round * n + p) % values.len()];
                    let got = cluster.read_u64(ProcId(reader as u32), base.add((p * 1024) as u64));
                    prop_assert_eq!(got, v, "round {}, reader {}, writer {}", round, reader, p);
                }
            }
        }
    }
}
