//! Edge cases and failure modes of the timed cluster: deadlocks are
//! detected, locking-discipline violations panic loudly, and the
//! configuration knobs reach the machinery they claim to control.

use cni::{Config, LockId, Program, World};
use cni_nic::config::CniFeatures;
use std::cell::RefCell;
use std::rc::Rc;

fn two_procs() -> World {
    World::new(Config::paper_default().with_procs(2))
}

#[test]
#[should_panic(expected = "deadlock")]
fn cross_lock_deadlock_is_detected() {
    // Classic AB/BA deadlock: the engine runs out of events with live
    // programs and says so instead of hanging.
    let mut w = two_procs();
    let _ = w.alloc(2048);
    let mk = |first: u32, second: u32| -> Program {
        cni::program(move |ctx| {
            Box::pin(async move {
                ctx.acquire(LockId(first)).await;
                // Ensure both processors hold their first lock before asking
                // for the second: a compute gap orders the requests in virtual
                // time deterministically.
                ctx.compute(1_000_000);
                ctx.acquire(LockId(second)).await;
                ctx.release(LockId(second)).await;
                ctx.release(LockId(first)).await;
            })
        })
    };
    let _ = w.run(vec![mk(0, 1), mk(1, 0)]);
}

#[test]
#[should_panic(expected = "re-acquire")]
fn double_acquire_panics() {
    let mut w = two_procs();
    let _ = w.run(vec![
        cni::program(|ctx| {
            Box::pin(async move {
                ctx.acquire(LockId(0)).await;
                ctx.acquire(LockId(0)).await;
            })
        }),
        cni::program(|_ctx| Box::pin(async move {})),
    ]);
}

#[test]
#[should_panic(expected = "release of unheld lock")]
fn release_without_acquire_panics() {
    let mut w = two_procs();
    let _ = w.run(vec![
        cni::program(|ctx| {
            Box::pin(async move {
                ctx.acquire(LockId(0)).await;
                ctx.release(LockId(0)).await;
                ctx.release(LockId(0)).await;
            })
        }),
        cni::program(|_ctx| Box::pin(async move {})),
    ]);
}

#[test]
#[should_panic(expected = "one program per processor")]
fn program_count_must_match() {
    let mut w = two_procs();
    let _ = w.run(vec![cni::program(|_ctx| Box::pin(async move {}))]);
}

#[test]
fn app_panics_propagate_with_context() {
    let mut w = two_procs();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = w.run(vec![
            cni::program(|_ctx| Box::pin(async move { panic!("application exploded") })),
            cni::program(|ctx| Box::pin(async move { ctx.barrier().await })),
        ]);
    }));
    let err = result.expect_err("panic must propagate");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("application exploded"),
        "panic context lost: {msg}"
    );
}

#[test]
fn serial_engine_runs_every_program_on_the_calling_thread() {
    // Programs are futures the engine polls in place: no OS thread per
    // simulated CPU, so every poll of every program, before and after
    // each suspension, runs on the thread that called `World::run`. The
    // types say so too: the programs share a `!Send` `Rc<RefCell<_>>`.
    let mut w = World::new(Config::paper_default().with_procs(4));
    let base = w.alloc(4 * 2048);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let progs = (0..4u64)
        .map(|me| {
            let seen = seen.clone();
            cni::program(move |ctx| {
                Box::pin(async move {
                    let record = || seen.borrow_mut().push(std::thread::current().id());
                    record();
                    ctx.write_u64(base.add(me * 2048), me).await;
                    record();
                    ctx.barrier().await;
                    record();
                    let _ = ctx.read_u64(base.add(((me + 1) % 4) * 2048)).await;
                    record();
                })
            })
        })
        .collect();
    let _ = w.run(progs);
    let seen = seen.borrow();
    assert_eq!(seen.len(), 16);
    let caller = std::thread::current().id();
    assert!(
        seen.iter().all(|&id| id == caller),
        "{seen:?} vs {caller:?}"
    );
}

#[test]
fn a_program_awaiting_a_foreign_future_panics_with_its_name() {
    // Only the engine resumes a program, so one that suspends on anything
    // but its own `ProcCtx` operations would never run again: the engine
    // says so instead of hanging.
    let mut w = two_procs();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = w.run(vec![
            cni::program(|ctx| Box::pin(async move { ctx.barrier().await })),
            cni::program(|_ctx| Box::pin(std::future::pending::<()>())),
        ]);
    }));
    let err = result.expect_err("a stray suspension must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("\"cpu1\" suspended without a request"),
        "{msg}"
    );
}

#[test]
fn message_cache_size_knob_reaches_the_device() {
    // A 1-page cache thrashes where a big cache hits.
    let run = |cache_bytes: usize| {
        let mut w = World::new(
            Config::paper_default()
                .with_procs(2)
                .with_msg_cache_bytes(cache_bytes),
        );
        let base = w.alloc(8 * 2048);
        let r = w.run(vec![
            cni::program(move |ctx| {
                Box::pin(async move {
                    for round in 0..6u64 {
                        for pg in 0..4u64 {
                            ctx.write_u64(base.add(pg * 2048), round * 10 + pg).await;
                        }
                        ctx.barrier().await;
                        ctx.barrier().await;
                    }
                })
            }),
            cni::program(move |ctx| {
                Box::pin(async move {
                    for _round in 0..6u64 {
                        ctx.barrier().await;
                        let mut acc = 0u64;
                        for pg in 0..4u64 {
                            acc = acc.wrapping_add(ctx.read_u64(base.add(pg * 2048)).await);
                        }
                        std::hint::black_box(acc);
                        ctx.barrier().await;
                    }
                })
            }),
        ]);
        r.hit_ratio()
    };
    let small = run(2048);
    let large = run(64 * 1024);
    assert!(
        large > small,
        "bigger cache should hit more: {small:.2} vs {large:.2}"
    );
}

#[test]
fn ablation_flags_reach_the_device() {
    let cfg = Config::paper_default()
        .with_procs(2)
        .with_cni_features(CniFeatures {
            msg_cache: false,
            aih: true,
            polling: true,
        });
    let mut w = World::new(cfg);
    let base = w.alloc(2048);
    let r = w.run(vec![
        cni::program(move |ctx| {
            Box::pin(async move {
                for round in 0..4u64 {
                    ctx.write_u64(base, round).await;
                    ctx.barrier().await;
                    ctx.barrier().await;
                }
            })
        }),
        cni::program(move |ctx| {
            Box::pin(async move {
                for _ in 0..4u64 {
                    ctx.barrier().await;
                    let _ = ctx.read_u64(base).await;
                    ctx.barrier().await;
                }
            })
        }),
    ]);
    assert_eq!(r.hit_ratio(), 0.0, "disabled message cache must never hit");
}

#[test]
fn zero_compute_programs_terminate() {
    let mut w = two_procs();
    let r = w.run(vec![
        cni::program(|_ctx| Box::pin(async move {})),
        cni::program(|_ctx| Box::pin(async move {})),
    ]);
    assert_eq!(r.wall, cni::SimTime::ZERO);
    assert_eq!(r.messages, 0);
}
