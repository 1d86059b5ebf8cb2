//! Interrupt-cost sensitivity (extension): the paper's premise is that
//! interrupts are expensive on superscalar, superpipelined CPUs and
//! getting them off the critical path is where the CNI wins. Sweep the
//! interrupt cost and watch the standard interface degrade while the CNI
//! barely notices.
//!
//! Run: `cargo bench -p cni-figures --bench interrupt_sweep`

use cni::Config;
use cni_apps::experiments::{run_app, App};
use cni_batch::Pool;

fn main() {
    let app = App::Jacobi { n: 256, iters: 25 };
    println!("== interrupt-cost sensitivity: Jacobi 256x256, 8 procs ==");
    println!(
        "{:>16} {:>12} {:>12} {:>12}",
        "interrupt(us)", "CNI(ms)", "Std(ms)", "Std/CNI"
    );
    // Both interfaces at every cost point, as one flat batch; rows come
    // back in sweep order regardless of completion.
    let mut cfgs: Vec<(u64, Config)> = Vec::new();
    for us in [5u64, 10, 20, 40, 80] {
        let cycles = us * 166; // 166 cycles per microsecond at 166 MHz
        let mut cfg = Config::paper_default().with_procs(8);
        cfg.nic.interrupt_cycles = cycles;
        cfg.nic.interrupt_occupancy_cycles = (cycles / 4).max(400);
        cfgs.push((us, cfg.cni()));
        cfgs.push((us, cfg.standard()));
    }
    let walls = Pool::with_default_workers()
        .quiet()
        .map(cfgs, |_, &(_, cfg)| run_app(cfg, app).wall.as_ms_f64());
    let mut rows = Vec::new();
    for (k, us) in [5u64, 10, 20, 40, 80].into_iter().enumerate() {
        let (cni, std_) = (walls[2 * k], walls[2 * k + 1]);
        println!("{us:>16} {cni:>12.2} {std_:>12.2} {:>12.2}", std_ / cni);
        rows.push((us, cni, std_));
    }
    cni_figures::save_json("interrupt_sweep", &rows);
    println!(
        "\nThe CNI column is exactly flat: its receive path polls and its\n\
         protocol runs on the board, so the host interrupt cost never\n\
         appears on its critical path. The standard interface pays the\n\
         sweep (visibly so once interrupts dominate its per-message cost);\n\
         at Jacobi's message rate most of its deficit is DMA that the\n\
         Message Cache eliminates — see the ablation bench."
    );
}
