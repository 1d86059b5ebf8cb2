//! Parallel-engine identity battery: the full `RunReport` JSON must be
//! **byte-for-byte identical** at every `--engine-workers` count
//! (DESIGN.md §4.11's determinism contract), across the configuration
//! matrix that exercises every engine path — both fabric topologies,
//! NIC-resident collectives, and the go-back-N fault machinery — and
//! through a checkpoint/resume seam where the resumed tail runs on the
//! parallel engine.
//!
//! These tests are deliberately exact (`==` on serialized JSON, not
//! tolerances): conservative lookahead plus the serial replay barrier
//! reconstructs the serial engine's `(time, seq)` dispatch order, so any
//! divergence — a counter off by one, a reordered histogram bucket — is
//! an engine bug, never acceptable noise.

use cni::{Config, RunReport, World};
use cni_apps::experiments::{build_programs, run_app, App};
use cni_faults::FaultPlan;
use std::cell::RefCell;
use std::rc::Rc;

fn json(r: &RunReport) -> String {
    serde_json::to_string_pretty(r).expect("RunReport serializes")
}

/// Assert byte-identity of the serial run against workers ∈ {2, 4, 8}.
fn identical_at_all_worker_counts(cfg: Config, app: App) {
    let serial = json(&run_app(cfg.with_engine_workers(1), app));
    for workers in [2, 4, 8] {
        let parallel = json(&run_app(cfg.with_engine_workers(workers), app));
        assert!(
            parallel == serial,
            "RunReport diverged at --engine-workers {workers}\n{}",
            first_difference(&parallel, &serial)
        );
    }
}

fn first_difference(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!(
                "first difference at line {}:\n  parallel: {g}\n  serial:   {w}",
                i + 1
            );
        }
    }
    format!(
        "one report is a prefix of the other ({} vs {} lines)",
        got.lines().count(),
        want.lines().count()
    )
}

/// Single-switch, 8 nodes, lossless: the paper's canonical configuration.
#[test]
fn jacobi8_single_switch_identical() {
    identical_at_all_worker_counts(Config::paper_default(), App::Jacobi { n: 48, iters: 6 });
}

/// 5% cell loss (plus corruption) on the go-back-N path: retransmission
/// timers, duplicate suppression and fault-injector RNG draws all cross
/// the commit barrier; identity here pins the whole reliability layer.
#[test]
fn water8_lossy_identical() {
    let plan = FaultPlan {
        drop_prob: 0.05,
        corrupt_prob: 0.01,
        seed: 7,
        ..FaultPlan::none()
    };
    identical_at_all_worker_counts(
        Config::paper_default().with_faults(plan),
        App::Water {
            molecules: 27,
            steps: 2,
        },
    );
}

/// 64 nodes over a fat-tree with NIC-resident collectives: multi-switch
/// routing plus the barrier-combining handlers, the configuration with
/// the most cross-shard traffic per window.
#[test]
fn jacobi64_fat_tree_collectives_identical() {
    identical_at_all_worker_counts(
        Config::paper_default()
            .with_fat_tree(4, 16, 16)
            .with_procs(64)
            .with_collectives(),
        App::Jacobi { n: 96, iters: 4 },
    );
}

/// Checkpoint at T under the (serial-pinned) checkpointing run, resume
/// the tail on the parallel engine: the final report must still equal
/// the uninterrupted serial run byte-for-byte. This is the seam the two
/// subsystems share — `resume_run` re-executes the prefix on the serial
/// loop, and its tail goes through the same engine selection as a fresh
/// run.
#[test]
fn checkpoint_then_parallel_resume_matches_serial_golden() {
    let cfg = Config::paper_default();
    let app = App::Jacobi { n: 48, iters: 6 };
    let golden = json(&run_app(cfg, app));

    // Checkpointed run (the cadence pins it serial).
    let mut world = World::new(cfg);
    let progs = build_programs(&mut world, app);
    let snaps: Rc<RefCell<Vec<serde::Value>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = snaps.clone();
    world.set_checkpoint(
        60,
        Box::new(move |w: &World| {
            sink.borrow_mut().push(w.take_snapshot());
        }),
    );
    let checkpointed = json(&world.run(progs));
    drop(world);
    assert!(
        checkpointed == golden,
        "checkpointing perturbed the run\n{}",
        first_difference(&checkpointed, &golden)
    );
    let snaps = Rc::try_unwrap(snaps)
        .expect("sink dropped with world")
        .into_inner();
    assert!(snaps.len() >= 2, "workload too small to checkpoint");

    // Resume every snapshot with 4 engine workers; each tail must land
    // on the same bytes.
    for (i, snap) in snaps.iter().enumerate() {
        let mut world = World::new(cfg.with_engine_workers(4));
        let progs = build_programs(&mut world, app);
        let resumed = json(
            &world
                .resume_run(snap, progs)
                .expect("snapshot taken this run must resume"),
        );
        assert!(
            resumed == golden,
            "parallel resume from snapshot {i} diverged\n{}",
            first_difference(&resumed, &golden)
        );
    }
}
