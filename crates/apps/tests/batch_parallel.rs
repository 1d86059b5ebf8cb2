//! The batch engine's core guarantee, end to end: running a sweep on a
//! multi-worker pool must produce, for every job, a [`cni::RunReport`]
//! whose JSON serialisation is *byte-identical* to the one a sequential
//! (single-worker) pool produces for the same [`cni_batch::RunSpec`].
//! Host-side timing lives in the [`cni_batch::JobRecord`] envelope, never
//! in the report, so this holds exactly — not approximately.

use cni::Config;
use cni_apps::experiments::{run_app, App};
use cni_batch::{BatchReport, Pool, RunSpec};

/// A mixed four-job sweep: two applications, both NIC personalities,
/// distinct seeds — enough heterogeneity that completion order on the
/// parallel pool genuinely differs from submission order.
fn sweep() -> Vec<RunSpec<App>> {
    let jacobi = App::Jacobi { n: 64, iters: 4 };
    let water = App::Water {
        molecules: 64,
        steps: 1,
    };
    let base = Config::paper_default().with_procs(4);
    let mut specs = vec![
        RunSpec::new("jacobi-cni", base.cni(), jacobi),
        RunSpec::new("jacobi-std", base.standard(), jacobi),
        RunSpec::new("water-cni", base.cni(), water),
        RunSpec::new("water-std", base.standard(), water),
    ];
    for (k, s) in specs.iter_mut().enumerate() {
        s.config.seed = 0x5EED + k as u64;
    }
    specs
}

fn run_with(workers: usize) -> BatchReport {
    Pool::new(workers)
        .quiet()
        .run_batch(sweep(), |_, spec| run_app(spec.config, spec.workload))
}

#[test]
fn parallel_batch_reports_are_byte_identical_to_sequential() {
    let seq = run_with(1);
    let par = run_with(4);
    assert_eq!(seq.jobs.len(), 4);
    assert_eq!(par.jobs.len(), 4);
    assert_eq!(par.completed(), 4, "all parallel jobs must succeed");
    for (s, p) in seq.jobs.iter().zip(&par.jobs) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        let sj = serde_json::to_string(s.report.as_ref().expect("sequential report"))
            .expect("serialize");
        let pj =
            serde_json::to_string(p.report.as_ref().expect("parallel report")).expect("serialize");
        assert_eq!(
            sj.as_bytes(),
            pj.as_bytes(),
            "job {} ({}) diverged between 1 and 4 workers",
            s.index,
            s.label
        );
    }
}

#[test]
fn batch_report_orders_jobs_by_index_and_merges_latency() {
    let report = run_with(4);
    let indices: Vec<u64> = report.jobs.iter().map(|j| j.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3]);
    // Merged latency equals the bucket-wise sum over per-job histograms.
    let total: u64 = report
        .jobs
        .iter()
        .flat_map(|j| &j.report.as_ref().unwrap().latency_hist)
        .map(|kh| kh.hist.count())
        .sum();
    let merged: u64 = report.merged_latency.iter().map(|kh| kh.hist.count()).sum();
    assert_eq!(total, merged);
    assert!(merged > 0, "real runs must record latency samples");
}

#[test]
fn a_panicking_job_is_isolated_and_reported() {
    let mut specs = sweep();
    specs.truncate(2);
    // procs = 0 violates the world's configuration contract and panics
    // inside the run; the pool must convert that into a failed JobRecord
    // while the sibling job completes normally.
    specs[1].config.procs = 0;
    let report = Pool::new(2)
        .quiet()
        .run_batch(specs, |_, spec| run_app(spec.config, spec.workload));
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.failures().len(), 1);
    let failed = &report.failures()[0];
    assert_eq!(failed.index, 1);
    assert!(failed.report.is_none());
    assert!(failed.error.is_some());
}
