//! Experiment harness: the runs behind every table and figure of the
//! paper's evaluation (§3), shared by the bench targets, the examples and
//! the integration tests.
//!
//! Each function builds fresh worlds (CNI and standard-NIC) with identical
//! workloads and returns the measurements the corresponding figure plots:
//! speedups + network-cache hit ratios (Figures 2–4, 6–8, 10–11),
//! page-size sensitivity (5, 9, 12), overhead breakdowns (Tables 2–4),
//! Message-Cache size sensitivity (Figure 13), node-to-node latency
//! (Figure 14) and the unrestricted-cell-size improvement (Table 5).
//!
//! Every sweep executes its runs through `cni-batch`'s [`Pool`]: each
//! run is an independent deterministic simulation, so the harness
//! enumerates the full run list up front, hands it to the pool, and
//! assembles results *by index*. Results are identical whatever
//! `$CNI_JOBS` says — parallelism only changes the wall clock.

use crate::{cholesky, jacobi, water};
use cni::{Config, ProcTimes, RunReport, SimTime, TraceSink, World};
use cni_batch::Pool;
use serde::{Deserialize, Serialize};

/// Which application an experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum App {
    /// Jacobi relaxation with an `n × n` grid.
    Jacobi {
        /// Grid dimension.
        n: usize,
        /// Iterations.
        iters: usize,
    },
    /// Water molecular dynamics.
    Water {
        /// Molecule count.
        molecules: usize,
        /// Time steps.
        steps: usize,
    },
    /// Sparse Cholesky factorisation.
    Cholesky {
        /// Which matrix.
        matrix: cholesky::CholeskyMatrix,
    },
}

/// The largest shared segment one app may allocate: 1 GiB, 64 times the
/// two 1024 × 1024 grids of the paper's largest Jacobi run.
pub const MAX_SHARED_BYTES: u64 = 1 << 30;

impl App {
    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            App::Jacobi { n, .. } => format!("Jacobi {n}x{n}"),
            App::Water { molecules, .. } => format!("Water {molecules} molecules"),
            App::Cholesky { matrix } => format!("Cholesky {matrix:?}"),
        }
    }

    /// Refuse a size from outside the program — a sweep entry, a
    /// checkpoint's metadata, a `cni-run` flag — that the app cannot be
    /// built with: a Jacobi `n` or a Water `molecules` of 0, or one whose
    /// shared segment overflows or exceeds [`MAX_SHARED_BYTES`]. Building
    /// such an app panics, or aborts the whole process on the allocation,
    /// not just its run.
    pub fn check(&self) -> Result<(), String> {
        let (key, size, bytes) = match *self {
            // Two n × n grids of f64.
            App::Jacobi { n, .. } => ("n", n, n.checked_mul(n).and_then(|c| c.checked_mul(16))),
            // Position and force records of MOL_STRIDE f64 each.
            App::Water { molecules, .. } => (
                "molecules",
                molecules,
                molecules.checked_mul(2 * water::MOL_STRIDE * 8),
            ),
            App::Cholesky { .. } => return Ok(()),
        };
        match bytes {
            _ if size == 0 => Err(format!("`{key}` must be at least 1")),
            Some(b) if b as u64 <= MAX_SHARED_BYTES => Ok(()),
            _ => Err(format!(
                "`{key}` = {size} needs a shared segment over the {} MiB bound",
                MAX_SHARED_BYTES >> 20
            )),
        }
    }
}

/// The workload seed used throughout the evaluation.
pub const SEED: u64 = 0x5EED;

/// The pool every sweep in this module runs on, sized by
/// [`cni_batch::default_jobs`] (`$CNI_JOBS` overrides the machine's
/// available parallelism). Quiet: the figure harnesses print their own
/// tables.
fn pool() -> Pool {
    Pool::with_default_workers().quiet()
}

/// `cfg` re-seeded for averaging run `k` (the seed schedule [`mean_wall`]
/// has always used).
fn seeded(cfg: Config, k: u64) -> Config {
    let mut c = cfg;
    c.seed = cfg.seed.wrapping_add(k * 0x9E37);
    c
}

/// Run `app` on a cluster configured by `cfg`.
pub fn run_app(cfg: Config, app: App) -> RunReport {
    run_app_traced(cfg, app, TraceSink::Disabled, None)
}

/// Build `app`'s per-processor programs against `world`, performing the
/// application's `alloc()` calls as a side effect.
///
/// This is the **setup contract** of checkpoint/restore: resuming a
/// snapshot requires reproducing the exact allocation sequence of the
/// original run, so both the fresh-run path ([`run_app_traced`]) and the
/// resume path ([`crate::checkpoint`]) must go through this one function.
pub fn build_programs(world: &mut World, app: App) -> Vec<cni::Program> {
    match app {
        App::Jacobi { n, iters } => {
            let (_, progs) = jacobi::programs(
                world,
                jacobi::JacobiParams {
                    n,
                    iters,
                    verify: false,
                },
            );
            progs
        }
        App::Water { molecules, steps } => {
            let (_, progs) = water::programs(
                world,
                water::WaterParams {
                    molecules,
                    steps,
                    verify: false,
                },
            );
            progs
        }
        App::Cholesky { matrix } => {
            let (_, _, progs) = cholesky::programs(world, matrix, SEED, false);
            progs
        }
    }
}

/// Run `app` with `trace` attached to every instrumented component and,
/// when `metrics_interval` is given, a periodic per-node metrics sampler.
/// Drain the sink afterwards to export the recorded events.
pub fn run_app_traced(
    cfg: Config,
    app: App,
    trace: TraceSink,
    metrics_interval: Option<SimTime>,
) -> RunReport {
    let mut world = World::new(cfg);
    world.set_trace(trace);
    if let Some(iv) = metrics_interval {
        world.set_metrics_interval(iv);
    }
    let progs = build_programs(&mut world, app);
    world.run(progs)
}

/// Run `app` with causal span tracing and the utilization sampler on:
/// the observability configuration behind `cni-run --obs` and the golden
/// observability fixture. Records into a 2²⁰-event ring with the default
/// 100 µs metrics cadence, then drains the trace and populates
/// [`RunReport::stages`](cni::RunReport) with the span-tree stage
/// decomposition. Returns the drained records so callers can run further
/// analyses (critical path, utilization) or export the trace.
pub fn run_app_obs(cfg: Config, app: App) -> (RunReport, Vec<cni::TraceRecord>) {
    let sink = TraceSink::ring(1 << 20);
    let mut report = run_app_traced(cfg, app, sink.clone(), Some(SimTime::from_us(100)));
    let records = sink.drain();
    report.stages = Some(cni_obs::decompose(&cni_obs::SpanTree::build(&records)));
    (report, records)
}

/// One point of a speedup figure.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Processor count.
    pub procs: usize,
    /// Speedup of the CNI cluster over its own 1-processor run.
    pub cni_speedup: f64,
    /// Speedup of the standard-NIC cluster over its own 1-processor run.
    pub std_speedup: f64,
    /// The CNI's network cache hit ratio (percent).
    pub hit_ratio_pct: f64,
}

/// Mean completion time over `runs` seeds: convoy formation in
/// lock-heavy phases makes single deterministic runs noisy, and
/// experiments that *difference* two similar walls (page-size sweeps,
/// Table 5) need the averaging. The seeds run in parallel on the batch
/// pool; the mean is over the same seed schedule either way.
pub fn mean_wall(cfg: Config, app: App, runs: u64) -> f64 {
    let cfgs: Vec<Config> = (0..runs).map(|k| seeded(cfg, k)).collect();
    let walls = pool().map(cfgs, |_, c| run_app(*c, app).wall.as_ps() as f64);
    walls.iter().sum::<f64>() / runs as f64
}

/// A full speedup curve (Figures 2–4, 6–8, 10–11): both configurations at
/// each processor count, normalised to their own single-processor runs.
/// All `2 + 2·|procs|` runs execute concurrently on the batch pool.
pub fn speedup_curve(base: Config, app: App, procs: &[usize]) -> Vec<SpeedupPoint> {
    let mut cfgs = vec![base.cni().with_procs(1), base.standard().with_procs(1)];
    for &p in procs {
        cfgs.push(base.cni().with_procs(p));
        cfgs.push(base.standard().with_procs(p));
    }
    let reports = pool().map(cfgs, |_, cfg| run_app(*cfg, app));
    let cni_base = reports[0].wall;
    let std_base = reports[1].wall;
    procs
        .iter()
        .enumerate()
        .map(|(k, &p)| {
            let cni = &reports[2 + 2 * k];
            let std_ = &reports[3 + 2 * k];
            SpeedupPoint {
                procs: p,
                cni_speedup: cni_base.as_ps() as f64 / cni.wall.as_ps() as f64,
                std_speedup: std_base.as_ps() as f64 / std_.wall.as_ps() as f64,
                hit_ratio_pct: cni.hit_ratio() * 100.0,
            }
        })
        .collect()
}

/// One point of a page-size sensitivity figure.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PageSizePoint {
    /// Shared page size in bytes.
    pub page_bytes: usize,
    /// CNI speedup (vs the CNI 1-processor run at the same page size).
    pub cni_speedup: f64,
    /// Standard speedup (vs the standard 1-processor run, same page size).
    pub std_speedup: f64,
}

/// Page-size sensitivity (Figures 5, 9, 12). The whole grid — per size:
/// two single-processor baselines plus 3 averaging seeds for each
/// interface — is one flat batch; results are indexed back per size.
pub fn page_size_sweep(
    base: Config,
    app: App,
    procs: usize,
    sizes: &[usize],
) -> Vec<PageSizePoint> {
    const RUNS: u64 = 3;
    let stride = 2 + 2 * RUNS as usize;
    let mut cfgs = Vec::with_capacity(sizes.len() * stride);
    for &bytes in sizes {
        let cfg = base.with_page_bytes(bytes);
        cfgs.push(cfg.cni().with_procs(1));
        cfgs.push(cfg.standard().with_procs(1));
        for k in 0..RUNS {
            cfgs.push(seeded(cfg.cni().with_procs(procs), k));
        }
        for k in 0..RUNS {
            cfgs.push(seeded(cfg.standard().with_procs(procs), k));
        }
    }
    let walls = pool().map(cfgs, |_, c| run_app(*c, app).wall.as_ps() as f64);
    sizes
        .iter()
        .enumerate()
        .map(|(s, &bytes)| {
            let b = s * stride;
            let mean = |lo: usize| -> f64 {
                walls[lo..lo + RUNS as usize].iter().sum::<f64>() / RUNS as f64
            };
            PageSizePoint {
                page_bytes: bytes,
                cni_speedup: walls[b] / mean(b + 2),
                std_speedup: walls[b + 1] / mean(b + 2 + RUNS as usize),
            }
        })
        .collect()
}

/// An overhead-breakdown row (Tables 2–4): mean per-processor times in
/// units of 10⁹ CPU cycles, as the paper reports them.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Synchronisation overhead.
    pub synch_overhead: f64,
    /// Synchronisation delay.
    pub synch_delay: f64,
    /// Computation.
    pub computation: f64,
    /// Total.
    pub total: f64,
}

impl OverheadRow {
    fn from_times(t: ProcTimes, cfg: &Config) -> Self {
        let c = cfg.nic.host_clock;
        OverheadRow {
            synch_overhead: RunReport::gcycles(t.overhead, c),
            synch_delay: RunReport::gcycles(t.delay, c),
            computation: RunReport::gcycles(t.compute, c),
            total: RunReport::gcycles(t.total, c),
        }
    }
}

/// Overhead breakdowns for both configurations (Tables 2–4); the two
/// runs execute concurrently.
pub fn overhead_table(base: Config, app: App, procs: usize) -> (OverheadRow, OverheadRow) {
    let cni_cfg = base.cni().with_procs(procs);
    let std_cfg = base.standard().with_procs(procs);
    let reports = pool().map(vec![cni_cfg, std_cfg], |_, c| run_app(*c, app));
    (
        OverheadRow::from_times(reports[0].mean_breakdown(), &cni_cfg),
        OverheadRow::from_times(reports[1].mean_breakdown(), &std_cfg),
    )
}

/// One point of the Message-Cache size sensitivity figure (Figure 13).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CacheSizePoint {
    /// Message Cache capacity in bytes.
    pub cache_bytes: usize,
    /// Network cache hit ratio (percent).
    pub hit_ratio_pct: f64,
}

/// Hit ratio as a function of Message-Cache size (Figure 13); one batch
/// job per cache size.
pub fn cache_size_sweep(
    base: Config,
    app: App,
    procs: usize,
    sizes: &[usize],
) -> Vec<CacheSizePoint> {
    let cfgs: Vec<Config> = sizes
        .iter()
        .map(|&bytes| base.cni().with_procs(procs).with_msg_cache_bytes(bytes))
        .collect();
    let reports = pool().map(cfgs, |_, c| run_app(*c, app));
    sizes
        .iter()
        .zip(&reports)
        .map(|(&bytes, r)| CacheSizePoint {
            cache_bytes: bytes,
            hit_ratio_pct: r.hit_ratio() * 100.0,
        })
        .collect()
}

/// Percentage improvement from the unrestricted (jumbo) cell size
/// (Table 5), for the CNI configuration. All six runs (3 averaging seeds
/// × {restricted, jumbo}) are one batch.
pub fn jumbo_improvement_pct(base: Config, app: App, procs: usize) -> f64 {
    const RUNS: u64 = 3;
    let restricted = base.cni().with_procs(procs);
    let jumbo = restricted.with_unrestricted_cells();
    let mut cfgs: Vec<Config> = (0..RUNS).map(|k| seeded(restricted, k)).collect();
    cfgs.extend((0..RUNS).map(|k| seeded(jumbo, k)));
    let walls = pool().map(cfgs, |_, c| run_app(*c, app).wall.as_ps() as f64);
    let mean = |lo: usize| walls[lo..lo + RUNS as usize].iter().sum::<f64>() / RUNS as f64;
    let with_cells = mean(0);
    let jumbo_wall = mean(RUNS as usize);
    (with_cells - jumbo_wall) / with_cells * 100.0
}

/// One row of the mechanism-ablation study: the CNI with one mechanism
/// removed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationRow {
    /// Which variant ("full CNI", "no message cache", ...).
    pub variant: String,
    /// Completion time in milliseconds of virtual time.
    pub wall_ms: f64,
    /// Slowdown relative to the full CNI.
    pub slowdown_vs_cni: f64,
    /// Network cache hit ratio (percent).
    pub hit_ratio_pct: f64,
    /// Host interrupts taken.
    pub interrupts: u64,
}

/// Ablation study: which of the paper's three mechanisms buys what.
/// Runs the full CNI, then the CNI minus each mechanism, then the
/// standard interface (= minus all three).
pub fn ablation(base: Config, app: App, procs: usize) -> Vec<AblationRow> {
    use cni_nic::config::CniFeatures;
    let variants: Vec<(&str, Config)> = vec![
        ("full CNI", base.cni().with_procs(procs)),
        (
            "no Message Cache",
            base.cni().with_procs(procs).with_cni_features(CniFeatures {
                msg_cache: false,
                ..CniFeatures::default()
            }),
        ),
        (
            "no AIH (protocol on host)",
            base.cni().with_procs(procs).with_cni_features(CniFeatures {
                aih: false,
                ..CniFeatures::default()
            }),
        ),
        (
            "no polling (interrupts)",
            base.cni().with_procs(procs).with_cni_features(CniFeatures {
                polling: false,
                ..CniFeatures::default()
            }),
        ),
        ("standard NIC", base.standard().with_procs(procs)),
    ];
    let (names, cfgs): (Vec<&str>, Vec<Config>) = variants.into_iter().unzip();
    let reports = pool().map(cfgs, |_, c| run_app(*c, app));
    let cni_wall = reports[0].wall.as_ms_f64();
    names
        .into_iter()
        .zip(&reports)
        .map(|(name, r)| AblationRow {
            variant: name.to_string(),
            wall_ms: r.wall.as_ms_f64(),
            slowdown_vs_cni: r.wall.as_ms_f64() / cni_wall,
            hit_ratio_pct: r.hit_ratio() * 100.0,
            interrupts: r.interrupts(),
        })
        .collect()
}

/// One point of the node-to-node latency microbenchmark (Figure 14).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Message size in bytes.
    pub bytes: usize,
    /// CNI one-way latency in microseconds (100% Message-Cache hits).
    pub cni_us: f64,
    /// Standard-NIC one-way latency in microseconds.
    pub std_us: f64,
}

/// Measure best-case one-way latency via a warmed-up ping-pong: the sender
/// reuses one page-backed buffer, so after the cold start every CNI
/// transmit hits the Message Cache (the paper's "assuming a 100% network
/// cache hit ratio"). Each (size, interface) pair is one batch job.
pub fn latency_curve(base: Config, sizes: &[usize], rounds: u32) -> Vec<LatencyPoint> {
    let mut jobs: Vec<(usize, Config)> = Vec::with_capacity(sizes.len() * 2);
    for &bytes in sizes {
        jobs.push((bytes, base.cni()));
        jobs.push((bytes, base.standard()));
    }
    let us = pool().map(jobs, |_, &(bytes, cfg)| one_way_latency(cfg, bytes, rounds));
    sizes
        .iter()
        .enumerate()
        .map(|(k, &bytes)| LatencyPoint {
            bytes,
            cni_us: us[2 * k],
            std_us: us[2 * k + 1],
        })
        .collect()
}

fn one_way_latency(cfg: Config, bytes: usize, rounds: u32) -> f64 {
    let cfg = cfg.with_procs(2);
    let mut world = World::new(cfg);
    let warmup: u32 = 2;
    let total = warmup + rounds;
    let line_bytes = cfg.nic.cache_line_bytes as u32;
    let r = world.run(vec![
        cni::program(move |ctx| {
            Box::pin(async move {
                for i in 0..total {
                    // The first (warm-up) send pays the flush + DMA and binds
                    // the buffer; steady-state sends reuse the same clean
                    // buffer — the best case the paper plots.
                    let dirty = if i == 0 { bytes as u32 / line_bytes } else { 0 };
                    ctx.send_to(1, bytes as u32, Some(0x0100_0000), true, dirty)
                        .await;
                    let _ = ctx.recv().await;
                }
            })
        }),
        cni::program(move |ctx| {
            Box::pin(async move {
                for i in 0..total {
                    let _ = ctx.recv().await;
                    let dirty = if i == 0 { bytes as u32 / line_bytes } else { 0 };
                    ctx.send_to(0, bytes as u32, Some(0x0200_0000), true, dirty)
                        .await;
                }
            })
        }),
    ]);
    // Round-trip time for the measured rounds, halved.
    // Total wall covers all rounds including warm-up; subtract the warm-up
    // cost by measuring with a second run of only the warm-up rounds.
    let mut warm_world = World::new(cfg);
    let w = warm_world.run(vec![
        cni::program(move |ctx| {
            Box::pin(async move {
                for i in 0..warmup {
                    let dirty = if i == 0 { bytes as u32 / line_bytes } else { 0 };
                    ctx.send_to(1, bytes as u32, Some(0x0100_0000), true, dirty)
                        .await;
                    let _ = ctx.recv().await;
                }
            })
        }),
        cni::program(move |ctx| {
            Box::pin(async move {
                for i in 0..warmup {
                    let _ = ctx.recv().await;
                    let dirty = if i == 0 { bytes as u32 / line_bytes } else { 0 };
                    ctx.send_to(0, bytes as u32, Some(0x0200_0000), true, dirty)
                        .await;
                }
            })
        }),
    ]);
    let steady = r.wall.saturating_sub(w.wall);
    steady.as_us_f64() / (rounds as f64) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_jacobi() -> App {
        App::Jacobi { n: 16, iters: 3 }
    }

    #[test]
    fn speedup_curve_shape() {
        // Small but not degenerate: 64² has enough computation per
        // processor for parallelism to pay.
        let pts = speedup_curve(
            Config::paper_default(),
            App::Jacobi { n: 64, iters: 5 },
            &[2, 4],
        );
        assert_eq!(pts.len(), 2);
        assert!(pts[1].cni_speedup > pts[0].cni_speedup, "{pts:?}");
        for p in &pts {
            assert!(p.cni_speedup > 1.0, "{p:?}");
            assert!(p.cni_speedup >= p.std_speedup * 0.99, "{p:?}");
            assert!(p.hit_ratio_pct > 0.0 && p.hit_ratio_pct <= 100.0);
        }
    }

    #[test]
    fn latency_cni_beats_standard_and_grows_with_size() {
        let pts = latency_curve(Config::paper_default(), &[256, 4096], 3);
        assert!(pts[0].cni_us < pts[0].std_us);
        assert!(pts[1].cni_us < pts[1].std_us);
        assert!(pts[1].cni_us > pts[0].cni_us);
        assert!(pts[1].std_us > pts[0].std_us);
    }

    #[test]
    fn jumbo_cells_help() {
        let pct = jumbo_improvement_pct(Config::paper_default(), tiny_jacobi(), 2);
        assert!(pct > 0.0, "jumbo improvement {pct}%");
    }

    #[test]
    fn overhead_rows_are_consistent() {
        let (cni, std_) = overhead_table(Config::paper_default(), tiny_jacobi(), 2);
        assert!(cni.total > 0.0 && std_.total > 0.0);
        assert!(cni.synch_overhead <= std_.synch_overhead);
        for row in [cni, std_] {
            let sum = row.synch_overhead + row.synch_delay + row.computation;
            assert!((sum - row.total).abs() < row.total * 0.02 + 1e-6);
        }
    }
}
