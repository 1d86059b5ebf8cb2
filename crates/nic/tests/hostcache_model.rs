//! Model-based property tests of the direct-mapped write-back host cache:
//! presence and dirtiness must agree with a naive map-based reference for
//! arbitrary access/flush sequences.

use cni_nic::hostcache::{AccessOutcome, CacheConfig, HostCache};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model: direct-mapped levels as explicit maps set → (tag,
/// dirty), mirroring the documented replacement policy.
struct RefLevel {
    line_shift: u32,
    sets: u64,
    slots: HashMap<u64, (u64, bool)>,
}

impl RefLevel {
    fn new(bytes: usize, line: usize) -> Self {
        RefLevel {
            line_shift: line.trailing_zeros(),
            sets: (bytes / line) as u64,
            slots: HashMap::new(),
        }
    }
    fn index(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line % self.sets, line)
    }
    fn present(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.slots
            .get(&set)
            .map(|&(t, _)| t == tag)
            .unwrap_or(false)
    }
    fn dirty(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.slots
            .get(&set)
            .map(|&(t, d)| t == tag && d)
            .unwrap_or(false)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Access { addr: u64, write: bool },
    Flush { start: u64, len: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..0x4000, any::<bool>()).prop_map(|(a, w)| Op::Access {
            addr: a & !7,
            write: w
        }),
        (0u64..0x4000usize as u64, 32usize..512).prop_map(|(s, l)| Op::Flush {
            start: s & !31,
            len: l
        }),
    ]
}

proptest! {
    fn cache_agrees_with_reference(ops in proptest::collection::vec(arb_op(), 0..400)) {
        // A small geometry so conflicts actually happen.
        let cfg = CacheConfig {
            l1_bytes: 512,
            l2_bytes: 2048,
            line_bytes: 32,
            l1_hit_cycles: 1,
            l2_hit_cycles: 10,
            mem_cycles: 20,
        };
        let mut hc = HostCache::new(cfg);
        let mut l1 = RefLevel::new(512, 32);
        let mut l2 = RefLevel::new(2048, 32);
        for op in ops {
            match op {
                Op::Access { addr, write } => {
                    let (outcome, cost) = hc.access(addr, write);
                    // Outcome agrees with the reference presence.
                    let expect = if l1.present(addr) {
                        AccessOutcome::L1Hit
                    } else if l2.present(addr) {
                        AccessOutcome::L2Hit
                    } else {
                        AccessOutcome::MemMiss
                    };
                    prop_assert_eq!(outcome, expect, "at {:#x}", addr);
                    let expect_cost = match outcome {
                        AccessOutcome::L1Hit => 1,
                        AccessOutcome::L2Hit => 11,
                        AccessOutcome::MemMiss => 31,
                    };
                    prop_assert_eq!(cost, expect_cost);
                    // Mirror the documented fill behaviour.
                    match outcome {
                        AccessOutcome::L1Hit => {
                            if write {
                                let (set, tag) = l1.index(addr);
                                l1.slots.insert(set, (tag, true));
                            }
                        }
                        AccessOutcome::L2Hit => {
                            let (set, tag) = l1.index(addr);
                            if let Some((vt, vd)) = l1.slots.insert(set, (tag, write)) {
                                if vd && vt != tag {
                                    // Victim retires into L2 if present.
                                    let va = vt << l1.line_shift;
                                    let (s2, t2) = l2.index(va);
                                    if l2.slots.get(&s2).map(|&(t, _)| t == t2).unwrap_or(false) {
                                        l2.slots.insert(s2, (t2, true));
                                    }
                                }
                            }
                        }
                        AccessOutcome::MemMiss => {
                            let (s2, t2) = l2.index(addr);
                            l2.slots.insert(s2, (t2, false));
                            let (set, tag) = l1.index(addr);
                            if let Some((vt, vd)) = l1.slots.insert(set, (tag, write)) {
                                if vd && vt != tag {
                                    let va = vt << l1.line_shift;
                                    let (vs2, vt2) = l2.index(va);
                                    if l2.slots.get(&vs2).map(|&(t, _)| t == vt2).unwrap_or(false)
                                    {
                                        l2.slots.insert(vs2, (vt2, true));
                                    }
                                }
                            }
                        }
                    }
                }
                Op::Flush { start, len } => {
                    let flushed = hc.flush_range(start, len);
                    // Count reference dirty lines in range, then clean them.
                    let mut expect = 0;
                    let mut addr = start / 32 * 32;
                    while addr < start + len as u64 {
                        let d1 = l1.dirty(addr);
                        let d2 = l2.dirty(addr);
                        if d1 {
                            let (s, t) = l1.index(addr);
                            l1.slots.insert(s, (t, false));
                        }
                        if d2 {
                            let (s, t) = l2.index(addr);
                            l2.slots.insert(s, (t, false));
                        }
                        if d1 || d2 {
                            expect += 1;
                        }
                        addr += 32;
                    }
                    prop_assert_eq!(flushed, expect);
                }
            }
        }
    }
}
