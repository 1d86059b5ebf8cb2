//! Checkpoint-overhead microbenchmark for the snapshot/restore path
//! (`cni-snap` + `cni_apps::checkpoint`).
//!
//! Measures the canonical Jacobi-8 run three ways — no checkpointing
//! (the default every figure run uses), checkpointing every 2500 events
//! (>= 4 crash-safe snapshots per run, each sealed and atomically
//! renamed to disk), and resuming the run from its newest mid-run
//! snapshot — and writes `BENCH_snap.json` at the repo root. The
//! contract: the checkpointed run stays within 10% of the plain wall
//! clock. `-- --quick` shrinks the repetition counts for CI smoke runs.

use cni::Config;
use cni_apps::checkpoint::{newest_snapshot, read_snapshot, run_app_checkpointed};
use cni_apps::experiments::{run_app, App};
use serde::Serialize;
use std::hint::black_box;
use std::io::Write;

/// Nanoseconds per end-to-end run (or restore) for each probe.
#[derive(Clone, Copy, Debug, Serialize)]
struct Timings {
    /// Jacobi-8 with checkpointing disabled (the figure-run default).
    jacobi8_plain_ns: f64,
    /// Jacobi-8 snapshotting every 2500 events (sealed record writes).
    jacobi8_ck_ns: f64,
    /// Reading the newest snapshot and re-executing the run to completion.
    resume_ns: f64,
}

#[derive(Serialize)]
struct BenchReport {
    current: Timings,
    /// Snapshots sealed to disk per checkpointed run.
    snapshots_per_run: usize,
    /// Checkpointed-run overhead over the plain run, in percent.
    ck_overhead_pct: f64,
    /// The acceptance ceiling the ISSUE sets for the checkpointed path.
    budget_pct: f64,
}

/// Median-of-runs timer: `reps` timed samples of `iters` calls each.
fn measure<F: FnMut()>(iters: u64, reps: usize, mut f: F) -> f64 {
    for _ in 0..iters.min(2) {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        #[allow(clippy::disallowed_methods)]
        let t = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let reps = if quick { 3 } else { 9 };
    let cfg = Config::paper_default();
    let app = App::Jacobi { n: 512, iters: 8 };
    let every = 2500;
    let dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench-snap-ck"
    ));

    let jacobi8_plain_ns = measure(1, reps, || {
        black_box(run_app(cfg, app));
    });

    let mut snapshots_per_run = 0;
    let jacobi8_ck_ns = measure(1, reps, || {
        let _ = std::fs::remove_dir_all(dir);
        let run = run_app_checkpointed(cfg, app, every, dir).expect("checkpointed run");
        snapshots_per_run = run.snapshots.len();
        black_box(run.report);
    });
    assert!(
        snapshots_per_run >= 4,
        "expected >= 4 snapshots per run, got {snapshots_per_run}"
    );

    let newest = newest_snapshot(dir).expect("a snapshot survives the timed runs");
    let resume_ns = measure(1, reps, || {
        let snap = read_snapshot(black_box(&newest)).expect("snapshot reads back");
        black_box(snap.resume().expect("snapshot resumes"));
    });

    let current = Timings {
        jacobi8_plain_ns,
        jacobi8_ck_ns,
        resume_ns,
    };
    let ck_overhead_pct = (jacobi8_ck_ns - jacobi8_plain_ns) / jacobi8_plain_ns * 100.0;
    println!(
        "{:<22} {:>14}\n{:<22} {:>14.1}\n{:<22} {:>14.1}\n{:<22} {:>14.1}",
        "snap probe",
        "ns/run",
        "jacobi8 plain",
        jacobi8_plain_ns,
        "jacobi8 checkpointed",
        jacobi8_ck_ns,
        "resume from newest",
        resume_ns,
    );
    println!(
        "checkpoint overhead   : {ck_overhead_pct:.2}% at {snapshots_per_run} snapshots/run (budget 10%)"
    );

    let report = BenchReport {
        current,
        snapshots_per_run,
        ck_overhead_pct,
        budget_pct: 10.0,
    };
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    // Cargo runs bench binaries with CWD = the package dir; anchor the
    // report at the workspace root so CI can pick it up from one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snap.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_snap.json");
    writeln!(f, "{json}").expect("write BENCH_snap.json");
    println!("wrote BENCH_snap.json");
}
