//! Page migration under a lock — the access pattern where the Message
//! Cache's transmit *and* receive caching pay off (the paper's Cholesky
//! observation: "pages tend to move from the releaser to the acquirer...
//! thus caching receive buffers helped performance a great deal").
//!
//! A shared page travels around the ring under one lock; each hop reads
//! and rewrites the whole page. The example contrasts the two NIC
//! personalities on DMA traffic, interrupts and latency.
//!
//! ```sh
//! cargo run --release --example page_migration
//! ```

use cni::{Config, LockId, NicKind, Program, RunReport, World};

fn run(kind: NicKind, hops: u64) -> RunReport {
    let cfg = match kind {
        NicKind::Cni => Config::paper_default().with_procs(4),
        NicKind::Standard => Config::paper_default().with_procs(4).standard(),
    };
    let mut world = World::new(cfg);
    let page = world.alloc(2048);
    let programs: Vec<Program> = (0..4u64)
        .map(|me| -> Program {
            cni::program(move |ctx| {
                Box::pin(async move {
                    for hop in 0..hops {
                        if hop % 4 == me {
                            ctx.acquire(LockId(0)).await;
                            // Read-modify-write the whole page: the migratory
                            // pattern.
                            for w in 0..256u64 {
                                let v = ctx.read_u64(page.add(w * 8)).await;
                                ctx.write_u64(page.add(w * 8), v + 1).await;
                            }
                            ctx.release(LockId(0)).await;
                        }
                        ctx.compute(50_000);
                    }
                    ctx.barrier().await;
                })
            })
        })
        .collect();
    world.run(programs)
}

fn main() {
    let hops = 40;
    let cni = run(NicKind::Cni, hops);
    let std_ = run(NicKind::Standard, hops);

    println!("page migration, {hops} hops of one 2 KB page around 4 nodes\n");
    println!("{:>28} {:>12} {:>12}", "", "CNI", "standard");
    println!(
        "{:>28} {:>12} {:>12}",
        "completion time",
        format!("{}", cni.wall),
        format!("{}", std_.wall)
    );
    println!(
        "{:>28} {:>12} {:>12}",
        "host->board DMA bytes",
        cni.dma_bytes_to_board(),
        std_.dma_bytes_to_board()
    );
    println!(
        "{:>28} {:>12} {:>12}",
        "host interrupts",
        cni.interrupts(),
        std_.interrupts()
    );
    println!(
        "{:>28} {:>11.1}% {:>11.1}%",
        "network cache hit ratio",
        cni.hit_ratio() * 100.0,
        std_.hit_ratio() * 100.0
    );
    println!(
        "\nReceive caching binds the page on arrival, so the next migration \
         transmits straight from the board: the CNI moves almost no DMA \
         bytes for a page that only ever passes through."
    );
}
