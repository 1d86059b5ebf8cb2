//! `cni-batch` — parallel experiment executor.
//!
//! The paper's evaluation (§3) is 18 experiments over three DSM
//! applications, each a sweep of many independent simulation runs. Every
//! run is a pure function of its [`cni::Config`] (seed and fault plan
//! included), so a sweep is embarrassingly parallel — but only if the
//! harness preserves each run's determinism while overlapping them. This
//! crate is that harness:
//!
//! * [`RunSpec`] — one job of a batch: a label, a [`cni::Config`] (seed
//!   and fault plan included), and an arbitrary workload payload (the
//!   application to run, a message size to measure, …).
//! * [`Pool`] — a bounded pool of scoped worker threads. Each idle worker
//!   takes the next job index from one shared counter, so long and short
//!   jobs mix without a scheduler. [`Pool::map`] is the low-level
//!   deterministic parallel map; results are always collected **by job
//!   index**, never by completion order.
//! * [`Pool::run_batch`] — the high-level entry: executes every
//!   [`RunSpec`], isolates panics (one diverging run becomes an errored
//!   [`JobRecord`], not a dead batch), times each job (host wall clock and
//!   Linux thread CPU time) and aggregates everything into a
//!   [`BatchReport`] with per-kind latency histograms merged across runs.
//!
//! # Determinism contract
//!
//! A simulation run's [`cni::RunReport`] depends only on its `RunSpec`,
//! never on the worker that executed it, the number of workers, or the
//! completion order of its neighbours. `Pool::map` therefore guarantees:
//! running the same specs with 1 worker and with N workers produces
//! **byte-identical** per-run report JSON (`tests/batch_parallel.rs`
//! enforces this). Host-side timing lives in [`JobRecord`], *outside* the
//! `RunReport`, precisely so that it cannot break this property.
//!
//! ```
//! use cni_batch::{Pool, RunSpec};
//! use cni::Config;
//!
//! // Four trivial jobs; the workload payload here is just a number.
//! let specs: Vec<RunSpec<u64>> = (0..4)
//!     .map(|i| RunSpec::new(format!("job-{i}"), Config::paper_default(), i))
//!     .collect();
//! let report = Pool::new(2).quiet().run_batch(specs, |_, spec| {
//!     // A real runner would build a `World` from `spec.config`.
//!     let mut r = cni_batch::doctest_report();
//!     r.messages = spec.workload;
//!     r
//! });
//! assert_eq!(report.jobs.len(), 4);
//! assert_eq!(report.jobs[3].report.as_ref().unwrap().messages, 3);
//! ```

#![deny(missing_docs)]

use cni::{Config, KindHistogram, RunReport, REPORT_VERSION};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Schema version of [`BatchReport`]'s serialized form.
pub const BATCH_VERSION: u32 = 1;

/// One job of a batch: everything that determines a simulation run.
#[derive(Clone, Debug)]
pub struct RunSpec<W> {
    /// Human-readable job name, used in progress output and reports.
    pub label: String,
    /// The run's cluster configuration, its fault plan and seed included.
    pub config: Config,
    /// Workload payload interpreted by the runner (e.g. which application
    /// to execute). The executor itself never looks inside.
    pub workload: W,
}

impl<W> RunSpec<W> {
    /// A spec that runs `workload` under `config`.
    pub fn new(label: impl Into<String>, config: Config, workload: W) -> Self {
        RunSpec {
            label: label.into(),
            config,
            workload,
        }
    }
}

/// Host-side timing of one executed job. Lives in [`JobRecord`] — never in
/// the [`RunReport`] — so per-run reports stay bit-identical regardless of
/// scheduling (see the crate-level determinism contract).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct JobTiming {
    /// Wall-clock seconds the job spent executing on its worker.
    pub wall_s: f64,
    /// CPU seconds consumed by the worker thread while executing the job
    /// (utime + stime from `/proc/thread-self/stat`); `None` where the
    /// platform doesn't expose per-thread accounting.
    pub cpu_s: Option<f64>,
}

/// Outcome of one job of a batch, in job-index order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobRecord {
    /// Index of the job in the submitted spec list.
    pub index: u64,
    /// The spec's label.
    pub label: String,
    /// Host-side wall-clock / CPU timing of the run.
    pub timing: JobTiming,
    /// The run's report when it completed, `None` when it panicked.
    pub report: Option<RunReport>,
    /// The panic message when the run diverged, `None` when it completed.
    pub error: Option<String>,
}

impl JobRecord {
    /// Did this job run to completion?
    pub fn ok(&self) -> bool {
        self.report.is_some()
    }
}

/// Aggregate result of a batch: per-job records in submission order plus
/// cross-run aggregates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchReport {
    /// Schema version of this batch report ([`BATCH_VERSION`]).
    pub version: u32,
    /// Schema version of the embedded [`RunReport`]s
    /// ([`cni::REPORT_VERSION`]).
    pub report_version: u32,
    /// Worker threads the batch ran on.
    pub workers: u64,
    /// Wall-clock seconds for the whole batch (submission to last
    /// completion).
    pub wall_s: f64,
    /// One record per submitted spec, **in submission order** — never in
    /// completion order.
    pub jobs: Vec<JobRecord>,
    /// Per-message-kind one-way latency histograms merged (bucket-wise)
    /// across every completed run. Percentiles over a kind no run
    /// observed follow the documented empty-histogram behaviour of
    /// [`cni_sim::Histogram::percentile`]: they are 0.
    pub merged_latency: Vec<KindHistogram>,
}

impl BatchReport {
    /// Number of jobs that completed.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.ok()).count()
    }

    /// Records of jobs that panicked.
    pub fn failures(&self) -> Vec<&JobRecord> {
        self.jobs.iter().filter(|j| !j.ok()).collect()
    }

    /// Sum of per-job wall-clock seconds — what a 1-worker batch would
    /// roughly have cost. `wall_s / serial_wall_s` is the parallel
    /// efficiency denominator.
    pub fn serial_wall_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.timing.wall_s).sum()
    }

    fn merge_latency(jobs: &[JobRecord]) -> Vec<KindHistogram> {
        let mut merged: Vec<KindHistogram> = Vec::new();
        for job in jobs {
            let Some(report) = &job.report else { continue };
            for kh in &report.latency_hist {
                match merged.iter_mut().find(|m| m.kind == kh.kind) {
                    Some(m) => m.hist.merge(&kh.hist),
                    None => merged.push(kh.clone()),
                }
            }
        }
        merged.sort_by_key(|m| m.kind);
        merged
    }
}

/// The number of parallel jobs to use when the caller didn't say:
/// `$CNI_JOBS` when set to a positive integer, else the machine's
/// available parallelism, else 1.
pub fn default_jobs() -> usize {
    std::env::var("CNI_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A bounded worker pool for deterministic parallel runs.
#[derive(Clone, Debug)]
pub struct Pool {
    workers: usize,
    progress: bool,
}

impl Pool {
    /// A pool of `workers` threads (clamped to at least 1). Progress
    /// reporting to stderr is on by default.
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
            progress: true,
        }
    }

    /// A pool sized by [`default_jobs`].
    pub fn with_default_workers() -> Pool {
        Pool::new(default_jobs())
    }

    /// Disable per-job progress lines on stderr (for tests and quiet
    /// embedding).
    pub fn quiet(mut self) -> Pool {
        self.progress = false;
        self
    }

    /// Worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Deterministic parallel map: apply `f` to every item and return the
    /// results **in item order**, regardless of which worker ran what or
    /// when it finished.
    ///
    /// Up to `workers` scoped threads, one at least per item, each take
    /// the next item index from one shared counter until none is left.
    ///
    /// A panic in `f` propagates out of `map` with its own payload, after
    /// the other workers have run out of items; use [`Pool::run_batch`]
    /// when individual jobs must be isolated instead.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers.min(items.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            // Relaxed: the counter only hands out indices;
                            // results come back through `join`.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                return done;
                            };
                            done.push((i, f(i, item)));
                        }
                    })
                })
                .collect();
            for w in workers {
                match w.join() {
                    Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("every index is taken exactly once"))
            .collect()
    }

    /// Execute every spec through `runner` and aggregate a
    /// [`BatchReport`].
    ///
    /// `runner` receives the job index and the spec. A panicking run is
    /// caught and recorded as that job's [`JobRecord::error`]; the other
    /// jobs are unaffected. Results are collected by job index, so the
    /// report's `jobs` vector is in submission order whatever the
    /// completion order was.
    pub fn run_batch<W, F>(&self, specs: Vec<RunSpec<W>>, runner: F) -> BatchReport
    where
        W: Sync,
        F: Fn(usize, &RunSpec<W>) -> RunReport + Sync,
    {
        let total = specs.len();
        let done = AtomicUsize::new(0);
        let progress = self.progress;
        // Designated host-timing module (DESIGN.md §4.7): JobTiming wall
        // clocks are kept out of RunReport, so host time is permitted here.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        let jobs = self.map(specs, |i, spec| {
            let cpu0 = thread_cpu_seconds();
            #[allow(clippy::disallowed_methods)]
            let jt0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| runner(i, spec)));
            let wall_s = jt0.elapsed().as_secs_f64();
            let cpu_s = match (cpu0, thread_cpu_seconds()) {
                (Some(a), Some(b)) => Some((b - a).max(0.0)),
                _ => None,
            };
            let (report, error) = match outcome {
                Ok(r) => (Some(r), None),
                Err(payload) => (None, Some(panic_message(payload))),
            };
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                eprintln!(
                    "[{k}/{total}] {} {} in {wall_s:.2}s",
                    spec.label,
                    if error.is_none() { "done" } else { "PANICKED" },
                );
            }
            JobRecord {
                index: i as u64,
                label: spec.label.clone(),
                timing: JobTiming { wall_s, cpu_s },
                report,
                error,
            }
        });
        let merged_latency = BatchReport::merge_latency(&jobs);
        BatchReport {
            version: BATCH_VERSION,
            report_version: REPORT_VERSION,
            workers: self.workers as u64,
            wall_s: t0.elapsed().as_secs_f64(),
            jobs,
            merged_latency,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// CPU seconds (user + system) consumed by the calling thread so far.
/// `utime`/`stime` from `/proc/thread-self/stat` in USER_HZ ticks (100/s
/// on every mainstream Linux).
#[cfg(target_os = "linux")]
fn thread_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The comm field (2) is parenthesised and may contain spaces; fields
    // 3.. follow the last ')'. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut it = rest.split_whitespace();
    let utime: u64 = it.nth(11)?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// CPU-time accounting is not implemented off Linux.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_seconds() -> Option<f64> {
    None
}

/// A minimal valid [`RunReport`] for doctests and executor tests that
/// exercise the pool without running a simulation.
pub fn doctest_report() -> RunReport {
    RunReport {
        version: REPORT_VERSION,
        wall: cni::SimTime::ZERO,
        procs: Vec::new(),
        nic: Vec::new(),
        msg_cache: Vec::new(),
        dsm: Vec::new(),
        messages: 0,
        msg_kinds: [0; 9],
        latency: Vec::new(),
        latency_hist: Vec::new(),
        trace: None,
        faults: cni::FaultStats::default(),
        stages: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cni_sim::Histogram;

    fn specs(n: usize) -> Vec<RunSpec<u64>> {
        (0..n as u64)
            .map(|i| RunSpec::new(format!("j{i}"), Config::paper_default(), i))
            .collect()
    }

    #[test]
    fn map_preserves_item_order() {
        for workers in [1, 2, 3, 8] {
            let out = Pool::new(workers)
                .quiet()
                .map((0..37u64).collect(), |i, &v| {
                    assert_eq!(i as u64, v);
                    v * 2
                });
            assert_eq!(out, (0..37u64).map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    /// A panicking job's own message reaches the caller, whatever the
    /// worker count.
    #[test]
    fn map_reraises_a_job_panic_with_its_own_message() {
        for workers in [1, 2, 3] {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Pool::new(workers)
                    .quiet()
                    .map((0..8u64).collect(), |i, &v| {
                        if i == 5 {
                            panic!("job {i} diverged");
                        }
                        v
                    })
            }))
            .expect_err("the job's panic propagates");
            assert_eq!(
                panic_message(payload),
                "job 5 diverged",
                "{workers} workers"
            );
        }
    }

    #[test]
    fn map_with_more_workers_than_items() {
        let out = Pool::new(16).quiet().map(vec![1u64, 2], |_, &v| v + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn map_on_empty_input() {
        let out: Vec<u64> = Pool::new(4).quiet().map(Vec::<u64>::new(), |_, &v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn run_batch_orders_by_index_not_completion() {
        // Make low-index jobs slow so they finish *last*; the report must
        // still list them first.
        let report = Pool::new(4).quiet().run_batch(specs(8), |i, spec| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            let mut r = doctest_report();
            r.messages = spec.workload;
            r
        });
        assert_eq!(report.jobs.len(), 8);
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.index, i as u64);
            assert_eq!(job.label, format!("j{i}"));
            assert_eq!(job.report.as_ref().unwrap().messages, i as u64);
            assert!(job.timing.wall_s >= 0.0);
        }
        assert_eq!(report.completed(), 8);
        assert_eq!(report.workers, 4);
    }

    #[test]
    fn panic_isolation_reports_the_job_not_the_batch() {
        let report = Pool::new(3).quiet().run_batch(specs(6), |i, spec| {
            if i == 2 {
                panic!("diverged on purpose");
            }
            let mut r = doctest_report();
            r.messages = spec.workload;
            r
        });
        assert_eq!(report.completed(), 5);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 2);
        assert!(failures[0].error.as_ref().unwrap().contains("diverged"));
        // Neighbours of the failed job are intact.
        assert_eq!(report.jobs[1].report.as_ref().unwrap().messages, 1);
        assert_eq!(report.jobs[3].report.as_ref().unwrap().messages, 3);
    }

    #[test]
    fn merged_latency_merges_bucketwise_across_jobs() {
        let report = Pool::new(2).quiet().run_batch(specs(3), |i, _| {
            let mut r = doctest_report();
            let mut h = Histogram::new();
            h.record(1 + i as u64 * 100);
            r.latency_hist = vec![
                KindHistogram {
                    kind: 0xA0,
                    hist: h.clone(),
                },
                KindHistogram {
                    kind: 0xD5,
                    hist: h,
                },
            ];
            r
        });
        assert_eq!(report.merged_latency.len(), 2);
        // Sorted by kind byte.
        assert_eq!(report.merged_latency[0].kind, 0xA0);
        assert_eq!(report.merged_latency[1].kind, 0xD5);
        for m in &report.merged_latency {
            assert_eq!(m.hist.count(), 3);
        }
        // A kind no run observed has no entry; an empty histogram's
        // percentile is the documented 0.
        assert_eq!(Histogram::new().percentile(99.0), 0.0);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn batch_report_serializes_and_parses_back() {
        let report = Pool::new(2).quiet().run_batch(specs(2), |_, spec| {
            let mut r = doctest_report();
            r.messages = spec.workload;
            r
        });
        let json = serde_json::to_string(&report).unwrap();
        let back: BatchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.version, BATCH_VERSION);
        assert_eq!(back.report_version, REPORT_VERSION);
        assert_eq!(back.jobs.len(), 2);
        assert_eq!(back.jobs[1].report.as_ref().unwrap().messages, 1);
    }
}
