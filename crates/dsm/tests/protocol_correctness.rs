//! Release-consistency correctness of the DSM protocol, exercised through
//! the synchronous cluster harness. These tests pin down the guarantees
//! the paper's applications rely on: values written before a release are
//! visible after the matching acquire; barriers publish everything;
//! concurrent writers of one page merge through diffs; pages migrate
//! releaser → acquirer.

use cni_dsm::{DsmCluster, DsmConfig, LockId, PageId, ProcId};

/// `procs` processors on the centralised barrier (fan-out N).
fn cluster(procs: usize) -> DsmCluster {
    DsmCluster::new(DsmConfig {
        procs,
        page_bytes: 2048,
        line_bytes: 32,
        barrier_arity: procs,
    })
}

const P0: ProcId = ProcId(0);
const P1: ProcId = ProcId(1);
const P2: ProcId = ProcId(2);
const P3: ProcId = ProcId(3);

#[test]
fn cold_read_sees_zeroed_memory() {
    let mut c = cluster(4);
    let base = c.alloc(8192);
    for p in 0..4 {
        for off in [0u64, 2048, 4096, 8184] {
            assert_eq!(c.read_u64(ProcId(p), base.add(off)), 0);
        }
    }
}

#[test]
fn lock_transfer_publishes_writes() {
    let mut c = cluster(2);
    let base = c.alloc(2048);
    let l = LockId(0);

    c.acquire(P0, l);
    c.write_u64(P0, base, 42);
    c.write_u64(P0, base.add(8), 43);
    c.release(P0, l);

    c.acquire(P1, l);
    assert_eq!(c.read_u64(P1, base), 42);
    assert_eq!(c.read_u64(P1, base.add(8)), 43);
    c.release(P1, l);
}

#[test]
fn lock_ping_pong_stays_coherent() {
    let mut c = cluster(2);
    let base = c.alloc(2048);
    let l = LockId(7);
    for round in 0..20u64 {
        let (writer, reader) = if round % 2 == 0 { (P0, P1) } else { (P1, P0) };
        c.acquire(writer, l);
        let old = c.read_u64(writer, base);
        assert_eq!(old, round, "round {round} saw stale counter");
        c.write_u64(writer, base, round + 1);
        c.release(writer, l);
        // The reader peeks only under the lock next round; nothing to
        // assert for `reader` here.
        let _ = reader;
    }
}

#[test]
fn reacquire_by_holder_is_local() {
    let mut c = cluster(4);
    let l = LockId(2);
    c.acquire(P2, l);
    c.release(P2, l);
    let before = c.node(P2).stats().lock_local;
    c.acquire(P2, l);
    c.release(P2, l);
    assert_eq!(
        c.node(P2).stats().lock_local,
        before + 1,
        "lazy release must allow a local re-acquire"
    );
}

#[test]
fn barrier_publishes_all_writers() {
    let mut c = cluster(4);
    let base = c.alloc(4 * 2048);
    // Each proc writes its own page.
    for p in 0..4u64 {
        let addr = base.add(p * 2048);
        c.write_u64(ProcId(p as u32), addr, 100 + p);
    }
    c.barrier_all();
    // Everyone sees everyone's writes.
    for reader in 0..4u32 {
        for p in 0..4u64 {
            assert_eq!(
                c.read_u64(ProcId(reader), base.add(p * 2048)),
                100 + p,
                "proc {reader} missed proc {p}'s write"
            );
        }
    }
}

#[test]
fn repeated_barrier_rounds_converge() {
    // Jacobi-shaped: two barriers per iteration, neighbours read each
    // other's boundary words.
    let mut c = cluster(4);
    let base = c.alloc(4 * 2048);
    let addr = |p: u64| base.add(p * 2048);
    for it in 1..=5u64 {
        for p in 0..4u64 {
            // Read the neighbours' previous values.
            let left = if p > 0 {
                c.read_u64(ProcId(p as u32), addr(p - 1))
            } else {
                0
            };
            let right = if p < 3 {
                c.read_u64(ProcId(p as u32), addr(p + 1))
            } else {
                0
            };
            let expect = |q: u64| (it - 1) * 10 + q;
            if p > 0 {
                assert_eq!(left, if it == 1 { 0 } else { expect(p - 1) });
            }
            if p < 3 {
                assert_eq!(right, if it == 1 { 0 } else { expect(p + 1) });
            }
            c.barrier_all_single(p as u32);
        }
        c.finish_barrier_round();
        for p in 0..4u64 {
            c.write_u64(ProcId(p as u32), addr(p), it * 10 + p);
        }
        c.barrier_all();
    }
}

#[test]
fn concurrent_write_sharing_merges_disjoint_words() {
    // Cholesky-shaped: two procs write disjoint words of ONE page under
    // different locks; a third reader sees both.
    let mut c = cluster(3);
    let base = c.alloc(2048);
    let la = LockId(10);
    let lb = LockId(11);

    c.acquire(P0, la);
    c.write_u64(P0, base, 1111);
    c.acquire(P1, lb);
    c.write_u64(P1, base.add(1024), 2222);
    c.release(P0, la);
    c.release(P1, lb);

    c.acquire(P2, la);
    c.acquire(P2, lb);
    assert_eq!(c.read_u64(P2, base), 1111);
    assert_eq!(c.read_u64(P2, base.add(1024)), 2222);
    c.release(P2, lb);
    c.release(P2, la);
}

#[test]
fn dirty_page_invalidation_preserves_local_writes() {
    // P0 writes word A of a page (its current interval, unreleased); a
    // notice from P1 for the same page invalidates it. P0's writes must
    // survive: published at P0's next release and visible locally.
    let mut c = cluster(3);
    let base = c.alloc(2048);
    let la = LockId(0);
    let lb = LockId(1);

    // P1 writes word B under lb and releases.
    c.acquire(P1, lb);
    c.write_u64(P1, base.add(512), 500);
    c.release(P1, lb);

    // P0 starts writing word A under la...
    c.acquire(P0, la);
    c.write_u64(P0, base, 900);
    // ... then acquires lb, whose grant invalidates the (dirty) page.
    c.acquire(P0, lb);
    assert_eq!(c.read_u64(P0, base.add(512)), 500, "remote word via lb");
    assert_eq!(c.read_u64(P0, base), 900, "own uncommitted write preserved");
    c.release(P0, lb);
    c.release(P0, la);

    // P2 acquires both; must see both words.
    c.acquire(P2, la);
    c.acquire(P2, lb);
    assert_eq!(c.read_u64(P2, base), 900);
    assert_eq!(c.read_u64(P2, base.add(512)), 500);
    c.release(P2, lb);
    c.release(P2, la);
}

#[test]
fn page_moves_from_releaser_to_acquirer() {
    // Migratory pattern: the page travels with the lock; each hop is a
    // full-page fetch (what receive caching accelerates on the CNI).
    let mut c = cluster(4);
    let base = c.alloc(2048);
    let l = LockId(3);
    let mut expected = 0u64;
    for hop in 0..8u32 {
        let p = ProcId(hop % 4);
        c.acquire(p, l);
        assert_eq!(c.read_u64(p, base), expected);
        expected += 7;
        c.write_u64(p, base, expected);
        c.release(p, l);
    }
    let fetches: u64 = (0..4).map(|p| c.node(ProcId(p)).stats().page_fetches).sum();
    assert!(
        fetches >= 7,
        "each hop after the first should fetch the page"
    );
}

#[test]
fn chained_lock_requests_serve_in_order() {
    // Three requesters pile onto one lock; the grant chain must serve all.
    let mut c = cluster(4);
    let base = c.alloc(2048);
    let l = LockId(5);
    c.acquire(P0, l);
    c.write_u64(P0, base, 1);
    // P1, P2, P3 all request while P0 holds. The synchronous harness can't
    // express concurrent blocking, so exercise the chain sequentially.
    c.release(P0, l);
    for (p, v) in [(P1, 2u64), (P2, 3), (P3, 4)] {
        c.acquire(p, l);
        assert_eq!(c.read_u64(p, base), v - 1);
        c.write_u64(p, base, v);
        c.release(p, l);
    }
}

#[test]
fn single_proc_cluster_degenerates_gracefully() {
    let mut c = cluster(1);
    let base = c.alloc(4096);
    c.acquire(P0, LockId(0));
    c.write_u64(P0, base, 5);
    c.release(P0, LockId(0));
    c.barrier_all();
    assert_eq!(c.read_u64(P0, base), 5);
    assert_eq!(c.messages(), 0, "one processor never sends messages");
}

#[test]
fn write_faults_create_intervals_only_when_dirty() {
    let mut c = cluster(2);
    let base = c.alloc(2048);
    let l = LockId(0);
    c.acquire(P0, l);
    c.release(P0, l); // no writes: no interval
    assert_eq!(c.node(P0).stats().intervals, 0);
    c.acquire(P0, l);
    c.write_u64(P0, base, 9);
    c.release(P0, l);
    assert_eq!(c.node(P0).stats().intervals, 1);
}

#[test]
fn stale_readers_refetch_only_when_notified() {
    let mut c = cluster(2);
    let base = c.alloc(2048);
    let l = LockId(0);

    // P1 reads the page (cold fetch from home).
    assert_eq!(c.read_u64(P1, base), 0);
    let fetches_before = c.node(P1).stats().page_fetches;

    // P1 reads again: no new fetch.
    assert_eq!(c.read_u64(P1, base.add(8)), 0);
    assert_eq!(c.node(P1).stats().page_fetches, fetches_before);

    // P0 writes under the lock; P1 doesn't synchronise, so its (stale but
    // consistent-for-it) copy stays valid.
    c.acquire(P0, l);
    c.write_u64(P0, base, 77);
    c.release(P0, l);
    assert_eq!(c.node(P1).stats().invalidations, 0);

    // Once P1 acquires, the notice invalidates and the read refetches.
    c.acquire(P1, l);
    assert_eq!(c.read_u64(P1, base), 77);
    assert!(c.node(P1).stats().page_fetches > fetches_before);
    c.release(P1, l);
}

// --- harness helpers used by repeated_barrier_rounds_converge -----------

trait BarrierByOne {
    fn barrier_all_single(&mut self, p: u32);
    fn finish_barrier_round(&mut self);
}

impl BarrierByOne for DsmCluster {
    fn barrier_all_single(&mut self, _p: u32) {
        // The synchronous harness runs whole barriers atomically via
        // `barrier_all`; per-proc arrival staging is exercised in the timed
        // simulation. This shim keeps the Jacobi-shaped test readable.
    }
    fn finish_barrier_round(&mut self) {}
}

#[test]
fn alloc_rounds_up_to_pages_and_separates_regions() {
    let mut c = cluster(2);
    let a = c.alloc(1);
    let b = c.alloc(5000);
    let d = c.alloc(100);
    // 1 byte -> 1 page; 5000 bytes -> 3 pages.
    assert_eq!(b.0 - a.0, 2048);
    assert_eq!(d.0 - b.0, 3 * 2048);
    // Distinct regions never alias.
    c.write_u64(P0, a, 1);
    c.write_u64(P0, b, 2);
    c.write_u64(P0, d, 3);
    assert_eq!(c.read_u64(P0, a), 1);
    assert_eq!(c.read_u64(P0, b), 2);
    assert_eq!(c.read_u64(P0, d), 3);
}

#[test]
fn many_pages_many_procs_smoke() {
    // A broader soak: 8 procs, 32 pages, lock-guarded counters + barriers.
    let mut c = cluster(8);
    let base = c.alloc(32 * 2048);
    for round in 0..3u64 {
        for p in 0..8u32 {
            let l = LockId(p % 4);
            c.acquire(ProcId(p), l);
            for k in 0..4u64 {
                let addr = base.add(((p as u64 * 4 + k) % 32) * 2048);
                let v = c.read_u64(ProcId(p), addr);
                c.write_u64(ProcId(p), addr, v + 1);
            }
            c.release(ProcId(p), l);
        }
        c.barrier_all();
        let _ = round;
    }
    // Total increments: 8 procs * 4 pages * 3 rounds = 96 spread over
    // pages; just verify global sum.
    let mut sum = 0;
    for pg in 0..32u64 {
        sum += c.read_u64(P0, base.add(pg * 2048));
    }
    assert_eq!(sum, 96);
}

#[test]
fn tree_barrier_publishes_all_writers() {
    // The combining-tree barrier must give exactly the centralised
    // barrier's guarantee: after release, every processor sees every
    // writer's pre-barrier writes.
    let mut c = DsmCluster::new(DsmConfig {
        procs: 7, // a full-ish binary tree: 0 -> (1,2) -> (3,4,5,6)
        page_bytes: 2048,
        line_bytes: 32,
        barrier_arity: 2,
    });
    let base = c.alloc(7 * 2048);
    for round in 1..=3u64 {
        for p in 0..7u64 {
            c.write_u64(ProcId(p as u32), base.add(p * 2048), round * 100 + p);
        }
        c.barrier_all();
        for reader in 0..7u32 {
            for p in 0..7u64 {
                assert_eq!(
                    c.read_u64(ProcId(reader), base.add(p * 2048)),
                    round * 100 + p,
                    "round {round}: proc {reader} missed proc {p}"
                );
            }
        }
    }
}

#[test]
fn tree_barrier_matches_central_message_pattern() {
    // Fan-out N is the centralised manager: processor 0 takes all N-1
    // arrivals and sends all N-1 releases. A binary tree spreads them over
    // log N levels, but every other processor still sends one arrival and
    // gets one release: 2(N-1) messages per barrier either way.
    for fan_out in [8, 2] {
        let mut c = DsmCluster::new(DsmConfig {
            procs: 8,
            page_bytes: 2048,
            line_bytes: 32,
            barrier_arity: fan_out,
        });
        let base = c.alloc(8 * 2048);
        for round in 1..=2u64 {
            for p in 0..8u64 {
                c.write_u64(ProcId(p as u32), base.add(p * 2048), round * 10 + p);
            }
            let before = c.messages();
            c.barrier_all();
            assert_eq!(
                c.messages() - before,
                2 * 7,
                "fan-out {fan_out}, round {round}"
            );
            for p in 0..8u64 {
                assert_eq!(c.read_u64(ProcId(0), base.add(p * 2048)), round * 10 + p);
            }
        }
    }
}

/// A 64-processor cluster on a combining tree of fan-out 16, the host-port
/// count of a fat-tree leaf: wide enough that most writers of a page are
/// far apart in id, and every barrier release carries dozens of notices.
fn wide_tree_cluster() -> DsmCluster {
    DsmCluster::new(DsmConfig {
        procs: 64,
        page_bytes: 2048,
        line_bytes: 32,
        barrier_arity: 16,
    })
}

#[test]
fn wide_tree_barrier_publishes_every_writer() {
    let mut c = wide_tree_cluster();
    let base = c.alloc(64 * 2048);
    for round in 1..=3u64 {
        for p in 0..64u64 {
            c.write_u64(ProcId(p as u32), base.add(p * 2048), round * 1000 + p);
        }
        c.barrier_all();
        for reader in 0..64u32 {
            for p in 0..64u64 {
                assert_eq!(
                    c.read_u64(ProcId(reader), base.add(p * 2048)),
                    round * 1000 + p,
                    "round {round}: proc {reader} missed proc {p}"
                );
            }
        }
    }
}

#[test]
fn far_apart_writers_of_one_page_merge_through_diffs() {
    let mut c = wide_tree_cluster();
    let base = c.alloc(2048);
    for p in 0..64u32 {
        assert_eq!(c.read_u64(ProcId(p), base), 0);
    }
    c.barrier_all();
    let (a, b, reader) = (ProcId(3), ProcId(61), ProcId(40));
    c.write_u64(a, base, 333);
    c.write_u64(b, base.add(1024), 6161);
    c.barrier_all();
    let diffs_before = c.node(reader).stats().diff_fetches;
    assert_eq!(c.read_u64(reader, base), 333);
    assert_eq!(c.read_u64(reader, base.add(1024)), 6161);
    // The whole page comes from one writer (the lower id on a tie of
    // intervals) and the other writer's interval arrives as one diff.
    assert_eq!(
        c.node(reader).stats().diff_fetches,
        diffs_before + 1,
        "the second writer's words must be merged through exactly one diff"
    );
    assert!(c.node(a).has_written(PageId(0)));
    assert!(c.node(b).has_written(PageId(0)));
    assert!(!c.node(reader).has_written(PageId(0)));
}

/// Every notice list a node integrates must arrive ascending by
/// `(writer, interval)`; the engine checks it with a debug assertion and
/// no longer sorts on receipt. Here each processor dirties two pages per
/// interval and closes two intervals per round, all 20 write every page,
/// and the lists travel on lock grants, through the centralised barrier
/// (fan-out N) and down combining trees of fan-out 2 and 16, whose
/// arrivals reach the root out of writer order.
#[test]
fn notice_lists_arrive_sorted_at_every_receiver() {
    const PROCS: u32 = 20;
    const PAGES: u64 = 4;
    for barrier_arity in [PROCS as usize, 2, 16] {
        let mut c = DsmCluster::new(DsmConfig {
            procs: PROCS as usize,
            page_bytes: 2048,
            line_bytes: 32,
            barrier_arity,
        });
        let base = c.alloc(PAGES as usize * 2048);
        // Processor `p` owns word `p` of every page.
        let word = |p: u32, page: u64| base.add(page * 2048 + p as u64 * 8);
        let value = |round: u64, p: u32, page: u64| round * 1000 + p as u64 * 10 + page;
        for round in 1..=3u64 {
            for p in (0..PROCS).rev() {
                for pages in [0..PAGES / 2, PAGES / 2..PAGES] {
                    c.acquire(ProcId(p), LockId(0));
                    for page in pages {
                        c.write_u64(ProcId(p), word(p, page), value(round, p, page));
                    }
                    c.release(ProcId(p), LockId(0));
                }
            }
            c.barrier_all();
            for reader in (0..PROCS).map(ProcId) {
                for p in 0..PROCS {
                    for page in 0..PAGES {
                        assert_eq!(
                            c.read_u64(reader, word(p, page)),
                            value(round, p, page),
                            "fan-out {barrier_arity} round {round}: \
                             {reader:?} missed proc {p} on page {page}"
                        );
                    }
                }
            }
        }
        assert!(c.node(P0).stats().notices_in > 0);
    }
}
