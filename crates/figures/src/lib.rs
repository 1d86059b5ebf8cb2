//! `cni-figures` — regeneration harnesses for every table and figure in
//! the paper's evaluation (§3), plus the ablation and interrupt-cost
//! sweeps (the `ablation` and `interrupt_sweep` bench targets).
//!
//! The `figures` bench target (a `harness = false` binary run by
//! `cargo bench`) executes every experiment of the paper in order and
//! prints paper-style rows; it also writes machine-readable JSON records
//! to `target/cni-results/`. Pass a filter substring to run a subset:
//! `cargo bench -p cni-figures --bench figures -- fig04 table5`.

#![deny(missing_docs)]

use cni::Config;
use cni_apps::cholesky::CholeskyMatrix;
use cni_apps::experiments::{self, App};
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

/// Processor counts of the paper's speedup figures.
pub const PROC_SWEEP: [usize; 5] = [2, 4, 8, 16, 32];

/// Where JSON records of the experiment outputs land.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/cni-results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Persist an experiment record as JSON next to the printed output.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{}", serde_json::to_string_pretty(value).unwrap());
    }
}

/// The paper's three benchmark applications at their paper sizes.
pub fn paper_apps() -> Vec<(&'static str, App)> {
    vec![
        ("jacobi-1024", App::Jacobi { n: 1024, iters: 25 }),
        (
            "water-343",
            App::Water {
                molecules: 343,
                steps: 2,
            },
        ),
        (
            "cholesky-bcsstk14",
            App::Cholesky {
                matrix: CholeskyMatrix::Bcsstk14,
            },
        ),
    ]
}

/// One experiment of the evaluation: id, what it reproduces, and a runner.
pub struct Experiment {
    /// Identifier, e.g. `fig04`.
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Execute and print.
    pub run: fn(),
}

fn speedup_figure(id: &str, title: &str, app: App, procs: &[usize]) {
    println!("== {id}: {title} ==");
    let pts = experiments::speedup_curve(Config::paper_default(), app, procs);
    println!(
        "{:>6} {:>12} {:>12} {:>18}",
        "procs", "CNI-speedup", "Std-speedup", "NetCacheHit(%)"
    );
    for p in &pts {
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>18.1}",
            p.procs, p.cni_speedup, p.std_speedup, p.hit_ratio_pct
        );
    }
    save_json(id, &pts);
}

fn page_size_figure(id: &str, title: &str, app: App, sizes: &[usize]) {
    println!("== {id}: {title} ==");
    let pts = experiments::page_size_sweep(Config::paper_default(), app, 8, sizes);
    println!(
        "{:>12} {:>12} {:>12}",
        "page(bytes)", "CNI-speedup", "Std-speedup"
    );
    for p in &pts {
        println!(
            "{:>12} {:>12.2} {:>12.2}",
            p.page_bytes, p.cni_speedup, p.std_speedup
        );
    }
    save_json(id, &pts);
}

fn overhead_figure(id: &str, title: &str, app: App) {
    println!("== {id}: {title} ==");
    let (cni, std_) = experiments::overhead_table(Config::paper_default(), app, 8);
    println!(
        "{:>16} {:>16} {:>16}",
        "Category", "Time-CNI(1e9cyc)", "Time-std(1e9cyc)"
    );
    let rows = [
        ("Synch overhead", cni.synch_overhead, std_.synch_overhead),
        ("Synch delay", cni.synch_delay, std_.synch_delay),
        ("Computation", cni.computation, std_.computation),
        ("Total", cni.total, std_.total),
    ];
    for (name, c, s) in rows {
        println!("{name:>16} {c:>16.4} {s:>16.4}");
    }
    save_json(id, &(cni, std_));
}

/// The full experiment registry, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Simulation Parameters",
            run: || {
                println!("== table1: Simulation Parameters ==");
                print!("{}", Config::paper_default().table1());
            },
        },
        Experiment {
            id: "fig02",
            title: "Jacobi 128x128 speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig02",
                    "Jacobi 128x128",
                    App::Jacobi { n: 128, iters: 25 },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig03",
            title: "Jacobi 256x256 speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig03",
                    "Jacobi 256x256",
                    App::Jacobi { n: 256, iters: 25 },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig04",
            title: "Jacobi 1024x1024 speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig04",
                    "Jacobi 1024x1024",
                    App::Jacobi { n: 1024, iters: 25 },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig05",
            title: "Jacobi page-size sensitivity (8 procs, 1024x1024)",
            run: || {
                page_size_figure(
                    "fig05",
                    "Jacobi 1024x1024, 8 procs",
                    App::Jacobi { n: 1024, iters: 25 },
                    &[1024, 2048, 4096, 8192, 16384],
                )
            },
        },
        Experiment {
            id: "table2",
            title: "Overhead for 8-processor Jacobi (1024x1024, 2 KB pages)",
            run: || {
                overhead_figure(
                    "table2",
                    "Jacobi 1024x1024, 8 procs",
                    App::Jacobi { n: 1024, iters: 25 },
                )
            },
        },
        Experiment {
            id: "fig06",
            title: "Water 64 molecules speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig06",
                    "Water 64 molecules",
                    App::Water {
                        molecules: 64,
                        steps: 2,
                    },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig07",
            title: "Water 216 molecules speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig07",
                    "Water 216 molecules",
                    App::Water {
                        molecules: 216,
                        steps: 2,
                    },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig08",
            title: "Water 343 molecules speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig08",
                    "Water 343 molecules",
                    App::Water {
                        molecules: 343,
                        steps: 2,
                    },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig09",
            title: "Water page-size sensitivity (8 procs, 216 molecules)",
            run: || {
                page_size_figure(
                    "fig09",
                    "Water 216 molecules, 8 procs",
                    App::Water {
                        molecules: 216,
                        steps: 2,
                    },
                    &[2048, 4096, 6144, 8192],
                )
            },
        },
        Experiment {
            id: "table3",
            title: "Overhead for 8-processor Water (216 molecules)",
            run: || {
                overhead_figure(
                    "table3",
                    "Water 216 molecules, 8 procs",
                    App::Water {
                        molecules: 216,
                        steps: 2,
                    },
                )
            },
        },
        Experiment {
            id: "fig10",
            title: "Cholesky bcsstk14 speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig10",
                    "Cholesky bcsstk14",
                    App::Cholesky {
                        matrix: CholeskyMatrix::Bcsstk14,
                    },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig11",
            title: "Cholesky bcsstk15 speedup + hit ratio",
            run: || {
                speedup_figure(
                    "fig11",
                    "Cholesky bcsstk15",
                    App::Cholesky {
                        matrix: CholeskyMatrix::Bcsstk15,
                    },
                    &PROC_SWEEP,
                )
            },
        },
        Experiment {
            id: "fig12",
            title: "Cholesky page-size sensitivity (8 procs, bcsstk14)",
            run: || {
                page_size_figure(
                    "fig12",
                    "Cholesky bcsstk14, 8 procs",
                    App::Cholesky {
                        matrix: CholeskyMatrix::Bcsstk14,
                    },
                    &[2048, 4096, 6144, 8192],
                )
            },
        },
        Experiment {
            id: "table4",
            title: "Overhead for 8-processor Cholesky (bcsstk14)",
            run: || {
                overhead_figure(
                    "table4",
                    "Cholesky bcsstk14, 8 procs",
                    App::Cholesky {
                        matrix: CholeskyMatrix::Bcsstk14,
                    },
                )
            },
        },
        Experiment {
            id: "fig13",
            title: "Network cache hit ratio vs Message Cache size (8 procs)",
            run: || {
                println!("== fig13: hit ratio vs Message Cache size, 8 procs ==");
                let sizes = [
                    16 * 1024,
                    32 * 1024,
                    64 * 1024,
                    128 * 1024,
                    256 * 1024,
                    512 * 1024,
                    1024 * 1024,
                ];
                let mut all = Vec::new();
                println!(
                    "{:>12} {:>14} {:>14} {:>14}",
                    "cache(KB)", "Jacobi(%)", "Water(%)", "Cholesky(%)"
                );
                let apps = [
                    App::Jacobi { n: 1024, iters: 25 },
                    App::Water {
                        molecules: 343,
                        steps: 2,
                    },
                    App::Cholesky {
                        matrix: CholeskyMatrix::Bcsstk14,
                    },
                ];
                let curves: Vec<_> = apps
                    .iter()
                    .map(|&app| {
                        experiments::cache_size_sweep(Config::paper_default(), app, 8, &sizes)
                    })
                    .collect();
                for (i, &size) in sizes.iter().enumerate() {
                    println!(
                        "{:>12} {:>14.1} {:>14.1} {:>14.1}",
                        size / 1024,
                        curves[0][i].hit_ratio_pct,
                        curves[1][i].hit_ratio_pct,
                        curves[2][i].hit_ratio_pct
                    );
                    all.push((size, curves[0][i], curves[1][i], curves[2][i]));
                }
                save_json("fig13", &all);
            },
        },
        Experiment {
            id: "fig14",
            title: "Node-to-node latency, CNI vs standard",
            run: || {
                println!("== fig14: node-to-node latency (100% hit) ==");
                let pts = experiments::latency_curve(
                    Config::paper_default(),
                    &[64, 256, 512, 1024, 2048, 3072, 4096],
                    5,
                );
                println!(
                    "{:>12} {:>12} {:>12} {:>14}",
                    "bytes", "CNI(us)", "Std(us)", "reduction(%)"
                );
                for p in &pts {
                    println!(
                        "{:>12} {:>12.1} {:>12.1} {:>14.1}",
                        p.bytes,
                        p.cni_us,
                        p.std_us,
                        (1.0 - p.cni_us / p.std_us) * 100.0
                    );
                }
                save_json("fig14", &pts);
            },
        },
        Experiment {
            id: "table5",
            title: "Improvement with unrestricted ATM cell size (8 procs)",
            run: || {
                println!("== table5: unrestricted-cell-size improvement, 8 procs ==");
                println!("{:>24} {:>16}", "application", "improvement(%)");
                let mut rows = Vec::new();
                for (name, app) in paper_apps() {
                    let pct = experiments::jumbo_improvement_pct(Config::paper_default(), app, 8);
                    println!("{name:>24} {pct:>16.2}");
                    rows.push((name, pct));
                }
                save_json("table5", &rows);
            },
        },
    ]
}

/// Run every experiment whose id or title contains one of `filters` (all
/// when empty), in registry order.
///
/// Each experiment internally fans its independent runs out over a
/// [`cni_batch::Pool`] sized by [`cni_batch::default_jobs`] (override
/// with `CNI_JOBS=N`); the printed rows are identical at any worker
/// count.
pub fn run_filtered(filters: &[String]) {
    eprintln!(
        "[experiments run on {} worker(s); set CNI_JOBS to change]",
        cni_batch::default_jobs()
    );
    for e in experiments() {
        let selected = filters.is_empty()
            || filters
                .iter()
                .any(|f| e.id.contains(f.as_str()) || e.title.contains(f.as_str()));
        if selected {
            // Designated host-timing module: measured wall time is the
            // bench harness's own output, never part of a RunReport.
            #[allow(clippy::disallowed_methods)]
            let t = std::time::Instant::now();
            (e.run)();
            eprintln!("[{} done in {:.1?}]", e.id, t.elapsed());
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = experiments().iter().map(|e| e.id).collect();
        for want in [
            "table1", "fig02", "fig03", "fig04", "fig05", "table2", "fig06", "fig07", "fig08",
            "fig09", "table3", "fig10", "fig11", "fig12", "table4", "fig13", "fig14", "table5",
        ] {
            assert!(ids.contains(&want), "missing experiment {want}");
        }
        assert_eq!(ids.len(), 18);
    }

    #[test]
    fn paper_apps_cover_all_three() {
        let names: Vec<&str> = paper_apps().iter().map(|(n, _)| *n).collect();
        assert!(names.iter().any(|n| n.contains("jacobi")));
        assert!(names.iter().any(|n| n.contains("water")));
        assert!(names.iter().any(|n| n.contains("cholesky")));
    }
}
