//! Determinism over generated configurations: a run is a pure function
//! of its configuration, fault plan and seeds. For every case a rerun's
//! `RunReport` JSON is byte-identical to the first run's, and
//! `World::resume_run` from each checkpoint the rerun took finishes on the
//! same bytes.
//!
//! Cases pick the fabric (one switch, or a 2×2×2 or 4×4×4 fat-tree), the
//! processor count, the NIC personality, NIC-resident collectives (CNI
//! only), a lossless fabric or up to 5% cell loss and 1% corruption under
//! a fault seed, the timing seed, a small Jacobi or Water run, and how
//! many checkpoints the rerun takes. Three fixed configurations ride
//! along: Jacobi-8, lossy Water-8 and a 64-host fat-tree with collectives.
//! The ignored `Config::engine_workers` field must not change a run's
//! bytes either.
//!
//! The comparisons are exact (`==` on serialized JSON): any divergence —
//! a counter off by one, a reordered histogram bucket — is an engine bug.

use cni::{Config, FaultPlan, RunReport, World};
use cni_apps::experiments::{build_programs, App};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn json(r: &RunReport) -> String {
    serde_json::to_string_pretty(r).expect("RunReport serializes")
}

fn first_difference(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!(
                "first difference at line {}:\n  got:  {g}\n  want: {w}",
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

/// Run `app` under `cfg`, taking a checkpoint after every `every`-th
/// event when given. Returns the report JSON, the events dispatched and
/// the checkpoints taken.
fn run(cfg: Config, app: App, every: Option<u64>) -> (String, u64, Vec<serde::Value>) {
    let mut world = World::new(cfg);
    let progs = build_programs(&mut world, app);
    let snaps = Rc::new(RefCell::new(Vec::new()));
    if let Some(every) = every {
        let sink = snaps.clone();
        world.set_checkpoint(
            every,
            Box::new(move |w: &World| sink.borrow_mut().push(w.take_snapshot())),
        );
    }
    let report = json(&world.run(progs));
    let events = world.events_dispatched();
    drop(world);
    let snaps = Rc::try_unwrap(snaps)
        .expect("the checkpoint sink went with the world")
        .into_inner();
    (report, events, snaps)
}

/// Run `app` under `cfg`, then rerun it taking `checkpoints` evenly spaced
/// checkpoints, then resume each checkpoint in a fresh world: every report
/// must equal the first.
fn reproducible(cfg: Config, app: App, checkpoints: u64) -> Result<(), TestCaseError> {
    let (first, events, _) = run(cfg, app, None);
    // The smallest cadence that stops short of a checkpoint at the end.
    let every = events / (checkpoints + 1) + 1;
    let (rerun, _, snaps) = run(cfg, app, Some(every));
    prop_assert!(
        rerun == first,
        "{app:?} {cfg:?}: the rerun diverged\n{}",
        first_difference(&rerun, &first)
    );
    prop_assert_eq!(
        snaps.len() as u64,
        checkpoints,
        "{:?}: checkpoints every {} of {} events",
        app,
        every,
        events
    );
    for (i, snap) in snaps.iter().enumerate() {
        let mut world = World::new(cfg);
        let progs = build_programs(&mut world, app);
        let resumed = world
            .resume_run(snap, progs)
            .map_err(|e| TestCaseError(format!("{app:?}: checkpoint {i} refused: {e}")))?;
        let resumed = json(&resumed);
        prop_assert!(
            resumed == first,
            "{app:?} {cfg:?}: resume from checkpoint {i} (event {}) diverged\n{}",
            every * (i as u64 + 1),
            first_difference(&resumed, &first)
        );
    }
    Ok(())
}

/// Loss and corruption in per mille, under `seed`.
fn lossy(drop_pm: u64, corrupt_pm: u64, seed: u64) -> FaultPlan {
    FaultPlan {
        drop_prob: drop_pm as f64 / 1000.0,
        corrupt_prob: corrupt_pm as f64 / 1000.0,
        seed,
        ..FaultPlan::none()
    }
}

/// The paper's canonical cluster: one switch, 8 nodes, lossless.
#[test]
fn jacobi8_single_switch_reruns_and_resumes_identically() {
    if let Err(e) = reproducible(Config::paper_default(), App::Jacobi { n: 48, iters: 6 }, 1) {
        panic!("{e}");
    }
}

/// Go-back-N under loss: retransmission timers, duplicate suppression and
/// the fault injector's draws.
#[test]
fn water8_lossy_reruns_and_resumes_identically() {
    let cfg = Config::paper_default().with_faults(lossy(50, 10, 7));
    let app = App::Water {
        molecules: 27,
        steps: 2,
    };
    if let Err(e) = reproducible(cfg, app, 1) {
        panic!("{e}");
    }
}

/// Multi-switch routing and the barrier-combining handlers.
#[test]
fn jacobi64_fat_tree_collectives_reruns_and_resumes_identically() {
    let cfg = Config::paper_default()
        .with_fat_tree(4, 16, 16)
        .with_procs(64)
        .with_collectives();
    if let Err(e) = reproducible(cfg, App::Jacobi { n: 96, iters: 4 }, 1) {
        panic!("{e}");
    }
}

/// `Config::engine_workers` is an ignored field: a run at two workers,
/// and resumes of its checkpoint at one and at eight, land on the bytes of
/// a run at one worker. Benchmarks and checkpoints written by older builds
/// still set it.
#[test]
fn engine_workers_leaves_the_report_unchanged() {
    let cfg = Config::paper_default()
        .with_fat_tree(4, 4, 4)
        .with_procs(16)
        .with_collectives()
        .with_faults(lossy(20, 5, 3));
    let app = App::Jacobi { n: 32, iters: 2 };
    let (first, events, _) = run(cfg, app, None);
    let (rerun, _, snaps) = run(cfg.with_engine_workers(2), app, Some(events / 2 + 1));
    assert!(
        rerun == first,
        "engine_workers = 2 changed the report\n{}",
        first_difference(&rerun, &first)
    );
    assert_eq!(snaps.len(), 1, "one checkpoint halfway");
    for workers in [1, 8] {
        let mut world = World::new(cfg.with_engine_workers(workers));
        let progs = build_programs(&mut world, app);
        let resumed = world
            .resume_run(&snaps[0], progs)
            .expect("a checkpoint resumes under another worker count");
        let resumed = json(&resumed);
        assert!(
            resumed == first,
            "resume at engine_workers = {workers} diverged\n{}",
            first_difference(&resumed, &first)
        );
    }
}

/// The fabrics cases choose from: `(leaves, down, up)` of a fat-tree, or
/// `None` for the paper's single 32-port switch.
const FABRICS: [Option<(usize, usize, usize)>; 3] = [None, Some((2, 2, 2)), Some((4, 4, 4))];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    fn generated_configurations_rerun_and_resume_identically(
        fabric in 0usize..FABRICS.len(),
        procs in 2usize..=16,
        standard in any::<bool>(),
        collectives in any::<bool>(),
        faulty in any::<bool>(),
        (drop_pm, corrupt_pm, fault_seed) in (1u64..=50, 0u64..=10, 1u64..=1000),
        seed in any::<u64>(),
        (water, size, steps) in (any::<bool>(), 0usize..4, 1usize..=2),
        checkpoints in 1u64..=3,
    ) {
        // Valid by construction: the topologies are well-formed and the
        // processor count never exceeds the fabric's hosts. Two
        // processors fit every fabric, so the topology can change first.
        let mut cfg = Config::paper_default().with_procs(2);
        if let Some((leaves, down, up)) = FABRICS[fabric] {
            cfg = cfg.with_fat_tree(leaves, down, up);
        }
        let mut cfg = cfg.with_procs(procs.min(cfg.atm.hosts()));
        cfg.seed = seed;
        if standard {
            cfg = cfg.standard();
        } else if collectives {
            cfg = cfg.with_collectives();
        }
        if faulty {
            cfg = cfg.with_faults(lossy(drop_pm, corrupt_pm, fault_seed));
        }
        prop_assert!(cfg.check().is_ok(), "generated an invalid config: {cfg:?}");
        let app = if water {
            App::Water { molecules: 8 + 6 * size, steps }
        } else {
            App::Jacobi { n: 16 + 8 * size, iters: steps }
        };
        reproducible(cfg, app, checkpoints)?;
    }
}
