//! Fault-injection integration tests: the headline invariants of the
//! reliability layer. A zero fault plan must leave reports bit-identical
//! to a build that never heard of faults; a fixed fault seed must
//! reproduce the exact same event stream; and under real cell loss and
//! corruption every application must still compute its lossless answer —
//! just later, with the retransmission counters showing the work.

use cni::{Config, FaultPlan, FaultStats, TraceSink, World};
use cni_apps::experiments::{run_app, run_app_traced, App};
use cni_apps::{cholesky, jacobi, sparse, water};
use cni_dsm::access;
use cni_trace::export::write_jsonl;
use std::cell::RefCell;
use std::rc::Rc;

fn lossy(drop_prob: f64, corrupt_prob: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        drop_prob,
        corrupt_prob,
        seed,
        ..FaultPlan::none()
    }
}

/// Read a shared f64 array out of the cluster after a run (any valid copy
/// of each page is current once every processor passed the final barrier).
fn collect_f64(world: &World, base: cni::VAddr, len: usize) -> Vec<f64> {
    let page_bytes = world.config().page_bytes;
    (0..len)
        .map(|k| {
            let addr = base.add((k * 8) as u64);
            let page = addr.page(page_bytes);
            let word = addr.word(page_bytes);
            for p in 0..world.config().procs {
                if let Some(h) = world.space(p).try_page(page) {
                    if h.flags.state() != access::INVALID {
                        return f64::from_bits(h.frame.load(word));
                    }
                }
            }
            panic!("no valid copy of word {k}");
        })
        .collect()
}

#[test]
fn zero_fault_plan_reports_bit_identically() {
    let app = App::Jacobi { n: 24, iters: 4 };
    let plain = run_app(Config::paper_default().with_procs(4), app);
    // An explicit all-zero plan — even with a different fault seed — must
    // keep the simulation on the lossless fast path.
    let mut zero = FaultPlan::none();
    zero.seed = 0xDEAD_BEEF;
    let zeroed = run_app(Config::paper_default().with_procs(4).with_faults(zero), app);
    assert_eq!(plain.wall, zeroed.wall, "zero plan must not change timing");
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&zeroed).unwrap(),
        "zero plan must leave the whole report bit-identical"
    );
    assert_eq!(plain.faults, FaultStats::default());
}

#[test]
fn same_fault_seed_gives_byte_identical_jsonl_traces() {
    let app = App::Jacobi { n: 24, iters: 3 };
    let cfg = Config::paper_default()
        .with_procs(4)
        .with_faults(lossy(0.03, 0.01, 7));
    let mut out = [Vec::new(), Vec::new()];
    for buf in &mut out {
        let sink = TraceSink::ring(1 << 18);
        let report = run_app_traced(cfg, app, sink.clone(), None);
        assert!(report.faults.cells_dropped > 0, "{:?}", report.faults);
        let records = sink.drain();
        assert!(!records.is_empty());
        write_jsonl(buf, &records).unwrap();
    }
    assert!(!out[0].is_empty());
    assert_eq!(
        out[0], out[1],
        "identical fault seeds must replay identical fault sequences"
    );
}

#[test]
fn jacobi_survives_cell_loss_with_identical_results() {
    let params = jacobi::JacobiParams {
        n: 24,
        iters: 6,
        verify: true,
    };
    let expect = jacobi::reference(params.n, params.iters);
    let lossless = {
        let mut world = World::new(Config::paper_default().with_procs(4));
        let (_, progs) = jacobi::programs(&mut world, params);
        world.run(progs)
    };
    let cfg = Config::paper_default()
        .with_procs(4)
        .with_faults(lossy(0.05, 0.01, 1));
    let mut world = World::new(cfg);
    let (layout, progs) = jacobi::programs(&mut world, params);
    let report = world.run(progs);
    let grid = jacobi::result_grid(layout, params.iters);
    let got = collect_f64(&world, grid, params.n * params.n);
    for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
        assert!((g - e).abs() < 1e-12, "grid[{k}] = {g}, want {e}");
    }
    assert!(report.faults.cells_dropped > 0, "{:?}", report.faults);
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
    assert!(
        report.wall >= lossless.wall,
        "faults may only delay completion: {} < {}",
        report.wall,
        lossless.wall
    );
}

#[test]
fn water_survives_cell_loss_with_identical_results() {
    let params = water::WaterParams {
        molecules: 27,
        steps: 2,
        verify: true,
    };
    let expect = water::reference(params);
    let cfg = Config::paper_default()
        .with_procs(3)
        .with_faults(lossy(0.05, 0.01, 1));
    let mut world = World::new(cfg);
    let (layout, progs) = water::programs(&mut world, params);
    let report = world.run(progs);
    let got: Vec<f64> = (0..params.molecules)
        .flat_map(|mol| (0..3).map(move |d| (mol, d)))
        .map(|(mol, d)| collect_f64(&world, layout.pos_at(mol, d), 1)[0])
        .collect();
    for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
        assert!(
            (g - e).abs() < 1e-9 * e.abs().max(1.0),
            "pos[{k}] = {g}, want {e}"
        );
    }
    assert!(report.faults.cells_dropped > 0, "{:?}", report.faults);
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
}

#[test]
fn cholesky_survives_cell_loss_with_identical_results() {
    let matrix = cholesky::CholeskyMatrix::Small { n: 48, band: 5 };
    let a = matrix.build(11);
    let sym = sparse::SymbolicFactor::analyze(&a);
    let expect = sparse::reference_cholesky(&a, &sym);
    let cfg = Config::paper_default()
        .with_procs(4)
        .with_faults(lossy(0.05, 0.01, 1));
    let mut world = World::new(cfg);
    let (layout, _, progs) = cholesky::programs(&mut world, matrix, 11, true);
    let report = world.run(progs);
    let got = cholesky::collect_factor(&world, &sym, layout);
    for (s, (&g, &e)) in got.iter().zip(&expect).enumerate() {
        assert!(
            (g - e).abs() < 1e-6 * e.abs().max(1.0),
            "L[{s}] = {g}, want {e}"
        );
    }
    assert!(report.faults.cells_dropped > 0, "{:?}", report.faults);
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
}

#[test]
fn pure_corruption_is_caught_by_crc_and_recovered() {
    // No drops at all: every frame arrives, so every failure is a CRC
    // verification catching flipped bits, and every recovery a retransmit.
    let params = jacobi::JacobiParams {
        n: 24,
        iters: 4,
        verify: true,
    };
    let expect = jacobi::reference(params.n, params.iters);
    let cfg = Config::paper_default()
        .with_procs(4)
        .with_faults(lossy(0.0, 0.03, 5));
    let mut world = World::new(cfg);
    let (layout, progs) = jacobi::programs(&mut world, params);
    let report = world.run(progs);
    let grid = jacobi::result_grid(layout, params.iters);
    let got = collect_f64(&world, grid, params.n * params.n);
    for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
        assert!((g - e).abs() < 1e-12, "grid[{k}] = {g}, want {e}");
    }
    let f = &report.faults;
    assert!(f.cells_corrupted > 0, "{f:?}");
    assert!(f.crc_failures > 0, "{f:?}");
    assert!(f.retransmits > 0, "{f:?}");
    assert_eq!(f.cells_dropped, 0, "{f:?}");
}

/// A fan-in burst fills processor 0's 64-frame receive ring: 31
/// processors each send it four one-word messages at once, under 0.1%
/// cell loss. The ring overflows, each frame it turns away is NAKed and
/// resent, and processor 0 receives every message exactly once.
#[test]
fn a_fan_in_burst_overflows_the_receive_ring_and_delivers_each_message_once() {
    const SENDERS: u32 = 31;
    const EACH: u64 = 4;
    let cfg = Config::paper_default()
        .with_procs(SENDERS as usize + 1)
        .with_faults(lossy(0.001, 0.0, 3));
    let got: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
    let programs = (0..=SENDERS)
        .map(|me| {
            let got = Rc::clone(&got);
            cni::program(move |ctx| {
                Box::pin(async move {
                    if me == 0 {
                        for _ in 0..u64::from(SENDERS) * EACH {
                            let (src, data) = ctx.recv_data().await;
                            got.borrow_mut().push((src, data[0]));
                        }
                    } else {
                        for k in 0..EACH {
                            ctx.send_data(0, vec![k], None, false, 0).await;
                        }
                    }
                })
            })
        })
        .collect();
    let report = World::new(cfg).run(programs);
    let mut got = got.take();
    got.sort_unstable();
    let sent: Vec<(u32, u64)> = (1..=SENDERS)
        .flat_map(|p| (0..EACH).map(move |k| (p, k)))
        .collect();
    assert_eq!(got, sent, "processor 0 received each message once");
    let dispatched = report.latency.iter().find(|l| l.kind == 0xA0);
    assert_eq!(
        dispatched.map(|l| l.count),
        Some(u64::from(SENDERS) * EACH),
        "no message was dispatched twice"
    );
    assert!(report.faults.ring_overflows > 0, "{:?}", report.faults);
}

#[test]
fn large_messages_fragment_and_survive_cell_loss() {
    // With 8 KB pages a page response is ~170 cells; unfragmented, its
    // intact probability at 5% cell loss is (0.95)^170 ~ 2e-4 per attempt
    // and delivery effectively never happens. The reliable layer must
    // split it into max_frame_bytes frames that each can get through.
    let params = jacobi::JacobiParams {
        n: 24,
        iters: 4,
        verify: true,
    };
    let expect = jacobi::reference(params.n, params.iters);
    let cfg = Config::paper_default()
        .with_procs(4)
        .with_page_bytes(8192)
        .with_faults(lossy(0.05, 0.0, 9));
    let mut world = World::new(cfg);
    let (layout, progs) = jacobi::programs(&mut world, params);
    let report = world.run(progs);
    let grid = jacobi::result_grid(layout, params.iters);
    let got = collect_f64(&world, grid, params.n * params.n);
    for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
        assert!((g - e).abs() < 1e-12, "grid[{k}] = {g}, want {e}");
    }
    assert!(report.faults.cells_dropped > 0, "{:?}", report.faults);
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
}

#[test]
fn faults_work_on_the_standard_nic_too() {
    let params = jacobi::JacobiParams {
        n: 16,
        iters: 3,
        verify: true,
    };
    let expect = jacobi::reference(params.n, params.iters);
    let cfg = Config::paper_default()
        .standard()
        .with_procs(2)
        .with_faults(lossy(0.04, 0.0, 2));
    let mut world = World::new(cfg);
    let (layout, progs) = jacobi::programs(&mut world, params);
    let report = world.run(progs);
    let grid = jacobi::result_grid(layout, params.iters);
    let got = collect_f64(&world, grid, params.n * params.n);
    for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
        assert!((g - e).abs() < 1e-12, "grid[{k}] = {g}, want {e}");
    }
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
}
