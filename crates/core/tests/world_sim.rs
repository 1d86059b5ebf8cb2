//! End-to-end behaviour of the timed cluster simulation: the qualitative
//! claims of the paper, asserted as invariants.

use cni::{Config, LockId, Program, RunReport, VAddr, World};
use cni_sim::SimTime;

fn run(cfg: Config, mk: impl Fn(VAddr) -> Vec<Program>) -> RunReport {
    let mut w = World::new(cfg);
    let base = w.alloc(64 * 1024);
    w.run(mk(base))
}

/// Lock-protected page ping-pong between two processors.
fn ping_pong(rounds: u64) -> impl Fn(VAddr) -> Vec<Program> {
    move |base| {
        (0..2u32)
            .map(|me| -> Program {
                cni::program(move |ctx| {
                    Box::pin(async move {
                        let l = LockId(0);
                        for r in 0..rounds {
                            ctx.acquire(l).await;
                            let v = ctx.read_u64(base).await;
                            if v == 2 * r + me as u64 {
                                // My turn: fill the page so it travels whole.
                                for w in 0..(ctx.page_bytes() / 8) as u64 {
                                    ctx.write_u64(base.add(w * 8), v + 1).await;
                                }
                            }
                            ctx.release(l).await;
                            ctx.compute(2_000);
                        }
                        ctx.barrier().await;
                    })
                })
            })
            .collect()
    }
}

/// Barrier-phased neighbour exchange (Jacobi-shaped) on `n` procs.
fn neighbour_exchange(n: u32, iters: u64) -> impl Fn(VAddr) -> Vec<Program> {
    move |base| {
        (0..n)
            .map(|me| -> Program {
                cni::program(move |ctx| {
                    Box::pin(async move {
                        let page = ctx.page_bytes() as u64;
                        let mine = base.add(me as u64 * page);
                        for it in 0..iters {
                            // Read neighbours' pages.
                            let mut acc = 0u64;
                            if me > 0 {
                                acc += ctx.read_u64(base.add((me as u64 - 1) * page)).await;
                            }
                            if me + 1 < n {
                                acc += ctx.read_u64(base.add((me as u64 + 1) * page)).await;
                            }
                            ctx.barrier().await;
                            // Rewrite my whole page.
                            for w in 0..(page / 8) {
                                ctx.write_u64(mine.add(w * 8), acc + it + me as u64).await;
                            }
                            ctx.compute(50_000);
                            ctx.barrier().await;
                        }
                    })
                })
            })
            .collect()
    }
}

#[test]
fn deterministic_across_runs() {
    let cfg = Config::paper_default().with_procs(4);
    let a = run(cfg, neighbour_exchange(4, 3));
    let b = run(cfg, neighbour_exchange(4, 3));
    assert_eq!(a.wall, b.wall);
    assert_eq!(a.messages, b.messages);
    assert_eq!(
        serde_json::to_string(&a.procs).unwrap(),
        serde_json::to_string(&b.procs).unwrap()
    );
}

#[test]
fn cni_beats_standard_on_page_ping_pong() {
    let cni = run(Config::paper_default().with_procs(2), ping_pong(10));
    let std_ = run(
        Config::paper_default().with_procs(2).standard(),
        ping_pong(10),
    );
    assert!(
        cni.wall < std_.wall,
        "CNI {} !< standard {}",
        cni.wall,
        std_.wall
    );
}

#[test]
fn cni_beats_standard_on_neighbour_exchange() {
    let cni = run(
        Config::paper_default().with_procs(4),
        neighbour_exchange(4, 4),
    );
    let std_ = run(
        Config::paper_default().with_procs(4).standard(),
        neighbour_exchange(4, 4),
    );
    assert!(cni.wall < std_.wall);
    // And the win shows up as lower synch overhead (Tables 2–4 shape).
    let c = cni.mean_breakdown();
    let s = std_.mean_breakdown();
    assert!(
        c.overhead < s.overhead,
        "CNI overhead {} !< standard {}",
        c.overhead,
        s.overhead
    );
}

#[test]
fn message_cache_hits_on_repeated_page_sends() {
    // The neighbour pages are re-sent every iteration; after the cold
    // start the writer's board copy stays consistent by snooping, so the
    // hit ratio must be substantial.
    let r = run(
        Config::paper_default().with_procs(4),
        neighbour_exchange(4, 8),
    );
    assert!(
        r.hit_ratio() > 0.5,
        "expected high network-cache hit ratio, got {}",
        r.hit_ratio()
    );
    // Standard NICs never hit.
    let s = run(
        Config::paper_default().with_procs(4).standard(),
        neighbour_exchange(4, 8),
    );
    assert_eq!(s.hit_ratio(), 0.0);
}

#[test]
fn standard_takes_many_interrupts_cni_mostly_polls() {
    let cni = run(
        Config::paper_default().with_procs(4),
        neighbour_exchange(4, 4),
    );
    let std_ = run(
        Config::paper_default().with_procs(4).standard(),
        neighbour_exchange(4, 4),
    );
    assert!(std_.interrupts() > 0);
    let cni_polls: u64 = cni.nic.iter().map(|n| n.polls).sum();
    assert!(cni_polls > 0, "waiting CNI processors should poll");
    assert!(
        cni.interrupts() < std_.interrupts(),
        "CNI {} !< standard {} interrupts",
        cni.interrupts(),
        std_.interrupts()
    );
}

#[test]
fn cni_moves_fewer_dma_bytes_to_board() {
    let cni = run(Config::paper_default().with_procs(2), ping_pong(10));
    let std_ = run(
        Config::paper_default().with_procs(2).standard(),
        ping_pong(10),
    );
    assert!(
        cni.dma_bytes_to_board() < std_.dma_bytes_to_board(),
        "transmit caching should eliminate host->board DMA: {} vs {}",
        cni.dma_bytes_to_board(),
        std_.dma_bytes_to_board()
    );
}

#[test]
fn unrestricted_cells_speed_up_page_traffic() {
    let std_cells = run(Config::paper_default().with_procs(2), ping_pong(10));
    let jumbo = run(
        Config::paper_default()
            .with_procs(2)
            .with_unrestricted_cells(),
        ping_pong(10),
    );
    assert!(
        jumbo.wall < std_cells.wall,
        "jumbo {} !< 53-byte cells {}",
        jumbo.wall,
        std_cells.wall
    );
}

#[test]
fn single_proc_run_has_no_communication() {
    let mut w = World::new(Config::paper_default().with_procs(1));
    let base = w.alloc(8192);
    let r = w.run(vec![cni::program(move |ctx| {
        Box::pin(async move {
            for i in 0..1000u64 {
                ctx.write_u64(base.add((i % 1024) * 8), i).await;
            }
            ctx.compute(1_000_000);
            ctx.barrier().await;
        })
    })]);
    assert_eq!(r.messages, 0);
    assert_eq!(r.procs[0].delay, SimTime::ZERO);
    // Computation dominates.
    assert!(r.procs[0].compute > r.procs[0].overhead);
}

#[test]
fn compute_scales_wall_clock() {
    let mk = |cycles: u64| -> Vec<Program> {
        vec![cni::program(move |ctx| {
            Box::pin(async move {
                ctx.compute(cycles);
            })
        })]
    };
    let mut w1 = World::new(Config::paper_default().with_procs(1));
    let r1 = w1.run(mk(1_000_000));
    let mut w2 = World::new(Config::paper_default().with_procs(1));
    let r2 = w2.run(mk(2_000_000));
    // 166 MHz: 1M cycles ≈ 6.024 ms.
    assert_eq!(r1.wall, SimTime::from_ps(6024 * 1_000_000));
    assert_eq!(r2.wall, SimTime::from_ps(6024 * 2_000_000));
}

#[test]
fn message_passing_ping_pong_roundtrip() {
    let cfg = Config::paper_default().with_procs(2);
    let mut w = World::new(cfg);
    let _ = w.alloc(4096);
    let r = w.run(vec![
        cni::program(|ctx| {
            Box::pin(async move {
                for i in 0..5u64 {
                    ctx.send_to(1, 256, Some(0x0100_0000 + i % 2), true, 8)
                        .await;
                    let (src, len) = ctx.recv().await;
                    assert_eq!(src, 1);
                    assert_eq!(len, 256);
                }
            })
        }),
        cni::program(|ctx| {
            Box::pin(async move {
                for i in 0..5u64 {
                    let (src, len) = ctx.recv().await;
                    assert_eq!(src, 0);
                    assert_eq!(len, 256);
                    ctx.send_to(0, 256, Some(0x0200_0000 + i % 2), true, 8)
                        .await;
                }
            })
        }),
    ]);
    // 10 application messages were exchanged; none is a protocol message.
    assert_eq!(r.messages, 0);
    let tx_total: u64 = r.nic.iter().map(|n| n.tx_messages).sum();
    assert_eq!(tx_total, 10);
}

/// Processor 0's overhead when its whole program is one `send_to` of
/// `len` bytes to processor 1, with `dirty_lines` of the buffer dirty.
fn send_to_overhead(cfg: Config, len: u32, page: Option<u64>, dirty_lines: u32) -> SimTime {
    let r = run(cfg.with_procs(2), |_| {
        vec![
            cni::program(move |ctx| {
                Box::pin(async move {
                    ctx.send_to(1, len, page, page.is_some(), dirty_lines).await;
                })
            }),
            cni::program(|ctx| {
                Box::pin(async move {
                    ctx.recv().await;
                })
            }),
        ]
    });
    r.procs[0].overhead
}

/// What a host pays to hand the board a message is priced once, by the
/// engine: a kernel entry on the standard NIC, a user-level ADC enqueue on
/// the CNI. A lone send is the sender's only overhead, so the two NIC kinds
/// differ by exactly the two configured costs.
#[test]
fn cni_send_charges_less_host_time_than_standard() {
    let cfg = Config::paper_default();
    let cni = send_to_overhead(cfg, 64, None, 0);
    let std = send_to_overhead(cfg.standard(), 64, None, 0);
    assert_eq!(cni, cfg.nic.host(cfg.nic.adc_enqueue_cycles));
    assert_eq!(std, cfg.nic.host(cfg.nic.kernel_send_cycles));
    assert!(cni < std);
}

/// A send's dirty buffer lines are written back over the bus before the
/// board may read the buffer; the sender stalls for the flush, on either
/// NIC kind.
#[test]
fn a_send_flushes_its_dirty_lines_before_the_transmit() {
    let cfg = Config::paper_default();
    let flush = cni_nic::MemoryBus::new(&cfg.nic)
        .flush_lines(SimTime::ZERO, 8, cfg.nic.cache_line_bytes)
        .end;
    for cfg in [cfg, cfg.standard()] {
        let clean = send_to_overhead(cfg, 2048, Some(7), 0);
        let dirty = send_to_overhead(cfg, 2048, Some(7), 8);
        assert!(flush > SimTime::ZERO);
        assert_eq!(dirty - clean, flush - SimTime::ZERO);
    }
}

#[test]
fn breakdown_buckets_sum_to_total() {
    let r = run(
        Config::paper_default().with_procs(4),
        neighbour_exchange(4, 4),
    );
    for (i, p) in r.procs.iter().enumerate() {
        let sum = p.compute + p.overhead + p.delay;
        let diff = sum.as_ps().abs_diff(p.total.as_ps());
        assert!(
            diff <= p.total.as_ps() / 100 + 1_000_000,
            "proc {i}: buckets {sum} vs total {total} diverge",
            total = p.total
        );
    }
}

#[test]
fn bigger_pages_cost_more_per_migration() {
    let small = run(
        Config::paper_default().with_procs(2).with_page_bytes(1024),
        ping_pong(6),
    );
    let large = run(
        Config::paper_default().with_procs(2).with_page_bytes(8192),
        ping_pong(6),
    );
    // The ping-pong writes whole pages, so larger pages mean strictly more
    // data motion and a longer run.
    assert!(large.wall > small.wall);
}

#[test]
fn tree_barrier_is_a_drop_in_replacement() {
    // Same answers, and at scale the combining tree relieves the
    // centralised manager (extension experiment; the paper's protocol is
    // centralised).
    let central = run(
        Config::paper_default().with_procs(8),
        neighbour_exchange(8, 4),
    );
    let tree = run(
        Config::paper_default().with_procs(8).with_tree_barrier(),
        neighbour_exchange(8, 4),
    );
    // Identical logical work.
    let faults =
        |r: &RunReport| -> u64 { r.dsm.iter().map(|d| d.read_faults + d.write_faults).sum() };
    assert_eq!(faults(&central), faults(&tree));
    // Both finish; neither is pathologically slower.
    let ratio = tree.wall.as_ps() as f64 / central.wall.as_ps() as f64;
    assert!((0.5..2.0).contains(&ratio), "tree/central ratio {ratio}");
}
