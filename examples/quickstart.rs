//! Quickstart: build a simulated CNI workstation cluster, run a program on
//! every node, and read the measurements.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cni::{Config, LockId, Program, World};

fn main() {
    // A 4-workstation cluster with the paper's Table-1 parameters
    // (166 MHz hosts, 33 MHz NIC processors, 622 Mb/s ATM, 32 KB Message
    // Caches, 2 KB shared pages).
    let config = Config::paper_default().with_procs(4);
    println!("--- Table 1 parameters ---\n{}", config.table1());

    let mut world = World::new(config);

    // Shared memory: one counter page plus a data region.
    let counter = world.alloc(2048);
    let data = world.alloc(16 * 1024);

    // One program per simulated processor: everyone increments the shared
    // counter under a lock, fills a private slice of the data region, and
    // meets at a barrier.
    let programs: Vec<Program> = (0..4u64)
        .map(|me| -> Program {
            cni::program(move |ctx| {
                Box::pin(async move {
                    ctx.acquire(LockId(0)).await;
                    let v = ctx.read_u64(counter).await;
                    ctx.write_u64(counter, v + 1).await;
                    ctx.release(LockId(0)).await;

                    for k in 0..512u64 {
                        ctx.write_u64(data.add((me * 512 + k) * 8), me * 1000 + k)
                            .await;
                    }
                    // Charge some computation (cycles on the 166 MHz host).
                    ctx.compute(500_000);
                    ctx.barrier().await;

                    // After the barrier everyone observes everyone's writes.
                    let neighbour = (me + 1) % 4;
                    let seen = ctx.read_u64(data.add(neighbour * 512 * 8)).await;
                    assert_eq!(seen, neighbour * 1000);
                })
            })
        })
        .collect();

    let report = world.run(programs);

    println!("--- run report ---");
    println!("completion time : {}", report.wall);
    println!("protocol msgs   : {}", report.messages);
    println!("net cache hits  : {:.1}%", report.hit_ratio() * 100.0);
    for (p, t) in report.procs.iter().enumerate() {
        println!(
            "cpu{p}: compute {} | overhead {} | delay {}",
            t.compute, t.overhead, t.delay
        );
    }
}
