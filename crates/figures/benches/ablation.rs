//! Ablation study: the CNI with each mechanism removed, on a medium
//! workload. Not a paper figure — the decomposition DESIGN.md §6 calls
//! for ("which mechanism buys what").
//!
//! Run: `cargo bench -p cni-figures --bench ablation`

use cni::Config;
use cni_apps::experiments::{ablation, App};

fn tree_barrier_study() {
    use cni_apps::experiments::run_app;
    use cni_batch::Pool;
    println!("== extension: combining-tree barrier vs centralised manager ==");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "procs", "central(ms)", "tree(ms)", "tree/ctrl"
    );
    let app = App::Jacobi { n: 128, iters: 25 }; // barrier-bound at scale
    const PROCS: [usize; 3] = [8, 16, 32];
    // One batch job per (procs, barrier) pair; the pool work-steals
    // across them and results come back in sweep order.
    let mut cfgs: Vec<Config> = Vec::new();
    for procs in PROCS {
        cfgs.push(Config::paper_default().with_procs(procs));
        cfgs.push(
            Config::paper_default()
                .with_procs(procs)
                .with_tree_barrier(),
        );
    }
    let walls = Pool::with_default_workers()
        .quiet()
        .map(cfgs, |_, &cfg| run_app(cfg, app).wall.as_ms_f64());
    let mut rows = Vec::new();
    for (k, procs) in PROCS.into_iter().enumerate() {
        let (central, tree) = (walls[2 * k], walls[2 * k + 1]);
        println!(
            "{procs:>8} {central:>14.2} {tree:>14.2} {:>10.2}",
            tree / central
        );
        rows.push((procs, central, tree));
    }
    cni_figures::save_json("tree_barrier", &rows);
    println!();
}

fn main() {
    tree_barrier_study();
    for (name, app, procs) in [
        ("Jacobi 256x256", App::Jacobi { n: 256, iters: 25 }, 8),
        (
            "Water 216",
            App::Water {
                molecules: 216,
                steps: 2,
            },
            8,
        ),
    ] {
        println!("== ablation: {name}, {procs} procs ==");
        println!(
            "{:>28} {:>10} {:>10} {:>10} {:>10}",
            "variant", "wall(ms)", "slowdown", "hit(%)", "interrupts"
        );
        let rows = ablation(Config::paper_default(), app, procs);
        for r in &rows {
            println!(
                "{:>28} {:>10.2} {:>10.2} {:>10.1} {:>10}",
                r.variant, r.wall_ms, r.slowdown_vs_cni, r.hit_ratio_pct, r.interrupts
            );
        }
        cni_figures::save_json(&format!("ablation-{}", name.replace(' ', "-")), &rows);
        println!();
    }
}
