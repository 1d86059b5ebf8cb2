//! The checkpoint-restore identity contract, at the engine level:
//! run-to-T must equal run-to-checkpoint-then-resume-to-T **byte for
//! byte** in the serialized `RunReport` — lossless and under cell loss —
//! and taking checkpoints must not perturb the run at all. A record the
//! build cannot reproduce is refused with a typed [`ResumeError`].

use cni::{
    BrownoutWindow, Config, FaultPlan, LockId, Program, ResumeError, RunReport, TraceSink, VAddr,
    World,
};
use std::cell::RefCell;
use std::rc::Rc;

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
                            let mut acc = 0u64;
                            if me > 0 {
                                acc += ctx.read_u64(base.add((me as u64 - 1) * page)).await;
                            }
                            if me + 1 < n {
                                acc += ctx.read_u64(base.add((me as u64 + 1) * page)).await;
                            }
                            ctx.barrier().await;
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

/// Lock ping-pong with message passing mixed in, to cover the
/// send/recv/inbox paths too.
fn mixed_workload(rounds: u64) -> impl Fn(VAddr) -> Vec<Program> {
    move |base| {
        (0..2u32)
            .map(|me| -> Program {
                cni::program(move |ctx| {
                    Box::pin(async move {
                        let l = LockId(0);
                        for r in 0..rounds {
                            ctx.acquire(l).await;
                            let v = ctx.read_u64(base).await;
                            ctx.write_u64(base, v + 1).await;
                            ctx.release(l).await;
                            if me == 0 {
                                ctx.send_data(1, vec![r, v], None, false, 0).await;
                            } else {
                                let (_src, _data) = ctx.recv_data().await;
                            }
                            ctx.compute(10_000);
                        }
                        ctx.barrier().await;
                    })
                })
            })
            .collect()
    }
}

const ALLOC: usize = 64 * 1024;

fn report_json(r: &RunReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

fn plain_run(cfg: Config, mk: &dyn Fn(VAddr) -> Vec<Program>) -> RunReport {
    let mut w = World::new(cfg);
    let base = w.alloc(ALLOC);
    w.run(mk(base))
}

/// Run with checkpoints every `every` events, returning the report and
/// every snapshot taken.
fn checkpointed_run(
    cfg: Config,
    mk: &dyn Fn(VAddr) -> Vec<Program>,
    every: u64,
) -> (RunReport, Vec<serde::Value>) {
    let mut w = World::new(cfg);
    let base = w.alloc(ALLOC);
    let snaps: Rc<RefCell<Vec<serde::Value>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = snaps.clone();
    w.set_checkpoint(
        every,
        Box::new(move |world: &World| {
            sink.borrow_mut().push(world.take_snapshot());
        }),
    );
    let report = w.run(mk(base));
    drop(w); // releases the sink's clone of `snaps`
    let snaps = Rc::try_unwrap(snaps)
        .expect("sink dropped with world")
        .into_inner();
    (report, snaps)
}

fn resume_from(
    cfg: Config,
    mk: &dyn Fn(VAddr) -> Vec<Program>,
    snap: &serde::Value,
) -> Result<RunReport, ResumeError> {
    let mut w = World::new(cfg);
    let base = w.alloc(ALLOC);
    w.resume_run(snap, mk(base))
}

fn identity_for(cfg: Config, mk: &dyn Fn(VAddr) -> Vec<Program>, every: u64) {
    let baseline = report_json(&plain_run(cfg, mk));
    let (chk_report, snaps) = checkpointed_run(cfg, mk, every);
    // Checkpointing must not perturb the run.
    assert_eq!(report_json(&chk_report), baseline);
    assert!(
        snaps.len() >= 2,
        "expected several snapshots, got {} (lower `every`)",
        snaps.len()
    );
    // Every snapshot — early, middle and last — resumes to the same bytes.
    for (i, snap) in snaps.iter().enumerate() {
        let resumed = resume_from(cfg, mk, snap)
            .unwrap_or_else(|e| panic!("resume from snapshot {i} failed: {e}"));
        assert_eq!(
            report_json(&resumed),
            baseline,
            "snapshot {i}/{} diverged from the uninterrupted run",
            snaps.len()
        );
    }
}

#[test]
fn lossless_identity_neighbour_exchange() {
    let cfg = Config::paper_default().with_procs(4);
    identity_for(cfg, &neighbour_exchange(4, 3), 40);
}

#[test]
fn lossless_identity_mixed_workload() {
    let cfg = Config::paper_default().with_procs(2);
    identity_for(cfg, &mixed_workload(6), 30);
}

#[test]
fn lossy_identity_five_percent_cell_loss() {
    let mut plan = FaultPlan::none();
    plan.drop_prob = 0.05;
    let cfg = Config::paper_default().with_procs(4).with_faults(plan);
    identity_for(cfg, &neighbour_exchange(4, 2), 100);
}

#[test]
fn fork_with_identical_config_reproduces_tail() {
    // `--fork-at` with an unchanged config is exactly resume: the child
    // must replay the parent's tail byte-for-byte. (Covered per-snapshot
    // by identity_for; this pins the semantics under a *faulty* parent,
    // where the injector stream restore is what carries the tail.)
    let mut plan = FaultPlan::none();
    plan.drop_prob = 0.03;
    let cfg = Config::paper_default().with_procs(2).with_faults(plan);
    let mk = mixed_workload(5);
    let baseline = report_json(&plain_run(cfg, &mk));
    let (_, snaps) = checkpointed_run(cfg, &mk, 60);
    let snap = snaps.last().expect("at least one snapshot");
    let forked = resume_from(cfg, &mk, snap).expect("fork resumes");
    assert_eq!(report_json(&forked), baseline);
}

#[test]
fn fork_into_brownout_diverges_only_in_future() {
    // Parent: lossless. Child: same warmup, then a brownout window after
    // the checkpoint. The child must run to completion; its fault
    // counters must show brownout losses the parent never saw.
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 3);
    let parent = plain_run(cfg, &mk);
    let (_, snaps) = checkpointed_run(cfg, &mk, 40);
    let snap = &snaps[0];

    let mut plan = FaultPlan::none();
    // A brownout well past the first checkpoint but inside the run.
    plan.brownouts[0] = Some(BrownoutWindow {
        link: 1,
        start_ps: 1_000_000,
        end_ps: parent.wall.as_ps().max(2_000_000),
    });
    let child_cfg = Config::paper_default().with_procs(4).with_faults(plan);
    let mut w = World::new(child_cfg);
    let base = w.alloc(ALLOC);
    let child = w
        .resume_run(snap, mk(base))
        .expect("lossless parent forks into a faulty child");
    assert!(
        child.faults.brownout_cells > 0,
        "child should have suffered the injected brownout"
    );
    assert!(child.wall >= parent.wall, "retransmissions cost time");
}

#[test]
fn faulty_snapshot_rejected_under_lossless_plan() {
    let mut plan = FaultPlan::none();
    plan.drop_prob = 0.05;
    let cfg = Config::paper_default().with_procs(2).with_faults(plan);
    let mk = mixed_workload(4);
    let (_, snaps) = checkpointed_run(cfg, &mk, 50);
    let lossless = Config::paper_default().with_procs(2);
    let err = resume_from(lossless, &mk, snaps.last().unwrap())
        .unwrap_err()
        .to_string();
    assert!(err.contains("not supported"), "{err}");
}

#[test]
fn mismatched_setup_is_rejected_not_panicking() {
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 2);
    let (_, snaps) = checkpointed_run(cfg, &mk, 60);
    let snap = snaps.last().unwrap();

    // Wrong processor count.
    let err = {
        let bad = Config::paper_default().with_procs(2);
        let mut w = World::new(bad);
        let base = w.alloc(ALLOC);
        w.resume_run(snap, neighbour_exchange(2, 2)(base))
            .unwrap_err()
            .to_string()
    };
    assert!(err.contains("processors"), "{err}");

    // Missing alloc() calls.
    let err = {
        let mut w = World::new(cfg);
        w.resume_run(snap, mk(VAddr(0))).unwrap_err().to_string()
    };
    assert!(err.contains("alloc"), "{err}");

    // Another NIC personality.
    let err = resume_from(cfg.standard(), &mk, snap)
        .unwrap_err()
        .to_string();
    assert!(err.contains("NIC personality"), "{err}");

    // One program short.
    let err = {
        let mut w = World::new(cfg);
        let base = w.alloc(ALLOC);
        let mut programs = mk(base);
        programs.pop();
        w.resume_run(snap, programs).unwrap_err().to_string()
    };
    assert!(err.contains("3 programs for 4 processors"), "{err}");

    // A world that has already run, or traces.
    let err = {
        let mut w = World::new(cfg);
        let base = w.alloc(ALLOC);
        let _ = w.run(mk(base));
        w.resume_run(snap, mk(base)).unwrap_err().to_string()
    };
    assert!(err.contains("freshly built"), "{err}");
    let err = {
        let mut w = World::new(cfg);
        let base = w.alloc(ALLOC);
        w.set_trace(TraceSink::ring(1024));
        w.resume_run(snap, mk(base)).unwrap_err().to_string()
    };
    assert!(err.contains("tracing"), "{err}");

    // Structurally mangled snapshot values never panic.
    for junk in [
        serde::Value::Null,
        serde::Value::Bool(true),
        serde::Value::Array(vec![]),
        serde::Value::Object(serde::Map::new()),
    ] {
        let mut w = World::new(cfg);
        let base = w.alloc(ALLOC);
        assert!(w.resume_run(&junk, mk(base)).is_err());
    }
}

#[test]
#[ignore]
fn probe_event_counts() {
    for (name, cfg, mk) in [
        (
            "ne4x3",
            Config::paper_default().with_procs(4),
            Box::new(neighbour_exchange(4, 3)) as Box<dyn Fn(VAddr) -> Vec<Program>>,
        ),
        (
            "mix6",
            Config::paper_default().with_procs(2),
            Box::new(mixed_workload(6)),
        ),
    ] {
        let mut w = World::new(cfg);
        let base = w.alloc(ALLOC);
        let _ = w.run(mk(base));
        println!("{name}: {} events", w.events_dispatched());
    }
}

/// The first snapshot a run takes after `at` events.
fn first_snapshot(cfg: Config, mk: &dyn Fn(VAddr) -> Vec<Program>, at: u64) -> serde::Value {
    let (_, snaps) = checkpointed_run(cfg, mk, at);
    snaps
        .into_iter()
        .next()
        .expect("the run reaches the pinned event count")
}

/// Byte length and CRC-32 of a snapshot as compact JSON: the exact bytes
/// a checkpoint file carries.
fn pin(snap: &serde::Value) -> (usize, u32) {
    let json = serde_json::to_string(snap).expect("the record serializes");
    (json.len(), cni_atm::crc::crc32(json.as_bytes()))
}

fn field(snap: &serde::Value, k: &str) -> u64 {
    snap.get(k)
        .and_then(serde::Value::as_u64)
        .unwrap_or_else(|| panic!("record has an unsigned `{k}`"))
}

/// A copy of `snap` with `k` set to `v`.
fn with_field(snap: &serde::Value, k: &str, v: serde::Value) -> serde::Value {
    let serde::Value::Object(mut m) = snap.clone() else {
        panic!("the record is an object");
    };
    m.insert(k.into(), v);
    serde::Value::Object(m)
}

/// Record bytes are pinned, not just round-tripped: the record a
/// checkpoint takes at a fixed event count, digest of the report at that
/// event included, must encode to the same length and CRC-32 on every
/// build that keeps `SNAPSHOT_SCHEMA`. A refactor that renames a field or
/// perturbs anything the report shows by then fails here.
#[test]
fn snapshot_bytes_are_pinned_lossless() {
    assert_eq!(cni::SNAPSHOT_SCHEMA, 4);
    let cfg = Config::paper_default().with_procs(4);
    let snap = first_snapshot(cfg, &neighbour_exchange(4, 3), 120);
    assert_eq!(field(&snap, "events"), 120);
    assert_eq!(field(&snap, "digest"), DIGEST_LOSSLESS);
    assert_eq!(pin(&snap), PIN_LOSSLESS);
}

/// The same pin under cell loss and corruption: the record carries the
/// plan its prefix ran under.
#[test]
fn snapshot_bytes_are_pinned_lossy() {
    assert_eq!(cni::SNAPSHOT_SCHEMA, 4);
    let mut plan = FaultPlan::none();
    plan.drop_prob = 0.05;
    plan.corrupt_prob = 0.01;
    let cfg = Config::paper_default().with_procs(4).with_faults(plan);
    let snap = first_snapshot(cfg, &neighbour_exchange(4, 2), 150);
    assert_eq!(field(&snap, "events"), 150);
    let stored: FaultPlan =
        serde::Deserialize::from_value(snap.get("faults").expect("record has `faults`"))
            .expect("`faults` is a plan");
    assert_eq!(stored, plan);
    assert_eq!(field(&snap, "digest"), DIGEST_LOSSY);
    assert_eq!(pin(&snap), PIN_LOSSY);
}

/// The pinned records: `digest` is the CRC-32 of the report JSON at the
/// checkpoint, `(len, crc)` covers the record as compact JSON.
const DIGEST_LOSSLESS: u64 = 199_767_212;
const PIN_LOSSLESS: (usize, u32) = (181, 4_106_028_384);
const DIGEST_LOSSY: u64 = 2_796_599_457;
const PIN_LOSSY: (usize, u32) = (184, 1_780_970_853);

#[test]
fn events_past_the_end_of_the_run_are_refused() {
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 2);
    let (_, snaps) = checkpointed_run(cfg, &mk, 60);
    let mut w = World::new(cfg);
    let base = w.alloc(ALLOC);
    let _ = w.run(mk(base));
    let total = w.events_dispatched();
    let past = with_field(&snaps[0], "events", serde::Value::from(total + 1));
    assert_eq!(
        resume_from(cfg, &mk, &past).unwrap_err(),
        ResumeError::EndedEarly {
            events: total + 1,
            ended: total
        }
    );
}

#[test]
fn a_flipped_digest_bit_is_refused() {
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 2);
    let (_, snaps) = checkpointed_run(cfg, &mk, 60);
    let digest = field(&snaps[0], "digest");
    let flipped = with_field(&snaps[0], "digest", serde::Value::from(digest ^ 0x10));
    assert_eq!(
        resume_from(cfg, &mk, &flipped).unwrap_err(),
        ResumeError::Digest {
            events: 60,
            stored: (digest ^ 0x10) as u32,
            computed: digest as u32,
        }
    );
}

#[test]
fn a_schema_3_record_is_refused() {
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 2);
    let (_, snaps) = checkpointed_run(cfg, &mk, 60);
    let old = with_field(&snaps[0], "schema", serde::Value::from(3u64));
    match resume_from(cfg, &mk, &old) {
        Err(ResumeError::Malformed(m)) => assert!(m.contains("schema v3"), "{m}"),
        other => panic!("expected a malformed-record error, got {other:?}"),
    }
}

/// A world configured differently from the checkpointed one — here a
/// different jitter seed, cost model or topology — does not reproduce
/// the prefix, and the digest refuses it. Engine workers and the fault
/// plan may differ: the first is an execution resource, the second a
/// fork.
#[test]
fn a_differing_configuration_is_refused_by_the_digest() {
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 3);
    let baseline = report_json(&plain_run(cfg, &mk));
    let (_, snaps) = checkpointed_run(cfg, &mk, 120);
    let snap = &snaps[0];
    let mut reseeded = cfg;
    reseeded.seed ^= 1;
    let mut costlier = cfg;
    costlier.costs.msg_base_cycles += 1;
    // A 2×2×2 fat tree routes the four hosts through three switches.
    let fat = cfg.with_fat_tree(2, 2, 2);
    for other in [reseeded, costlier, fat] {
        assert!(matches!(
            resume_from(other, &mk, snap),
            Err(ResumeError::Digest { events: 120, .. })
        ));
    }
    let parallel = resume_from(cfg.with_engine_workers(2), &mk, snap).expect("resumes");
    assert_eq!(report_json(&parallel), baseline);
}

/// A tail that cannot finish is an error, not the assert `World::run`
/// would hit. The programs match the checkpointed ones up to their last
/// barrier, so the digest holds; then processor 0 waits for a message
/// that nobody sends.
#[test]
fn a_tail_that_deadlocks_is_unfinished() {
    let cfg = Config::paper_default().with_procs(4);
    let mk = neighbour_exchange(4, 2);
    let (_, snaps) = checkpointed_run(cfg, &mk, 60);
    let stuck = |base: VAddr| -> Vec<Program> {
        mk(base)
            .into_iter()
            .enumerate()
            .map(|(me, prog)| -> Program {
                cni::program(move |ctx| {
                    Box::pin(async move {
                        prog(ctx).await;
                        if me == 0 {
                            let _ = ctx.recv_data().await;
                        }
                    })
                })
            })
            .collect()
    };
    assert_eq!(
        resume_from(cfg, &stuck, &snaps[0]).unwrap_err(),
        ResumeError::Unfinished { live: 1 }
    );
}
