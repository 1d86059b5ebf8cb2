//! Jacobi iteration — the paper's coarse-grained application.
//!
//! "Jacobi is a coarse-grained application with two major synchronization
//! points per iteration and a high computation/communication ratio. Each
//! point in the strip is iteratively calculated from the values of its
//! neighbors." (§3.1)
//!
//! Two shared `n × n` grids, row-block partitioned; every iteration each
//! processor reads its neighbours' boundary rows, relaxes its block from
//! grid A into grid B, crosses a barrier, and the grids swap roles at the
//! second barrier. The boundary rows are the only communicated data, so
//! their pages are re-transmitted every iteration — the access pattern
//! that gives the CNI its 96–99.5% network-cache hit ratios in Figures
//! 2–4.

use cni::{Program, VAddr, World};
use serde::{Deserialize, Serialize};

/// Cycles charged per relaxed grid point. Calibrated for the 166 MHz
/// scalar host of Table 1: loads/stores with cache effects, address
/// arithmetic, 4 adds and a multiply (see EXPERIMENTS.md, calibration).
pub const CYCLES_PER_POINT: u64 = 35;

/// Jacobi workload parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct JacobiParams {
    /// Grid dimension (the paper uses 128, 256, 512, 1024).
    pub n: usize,
    /// Iterations to run.
    pub iters: usize,
    /// After the run, have processor 0 read the whole result grid so a
    /// test can collect it (off for measured runs).
    pub verify: bool,
}

impl JacobiParams {
    /// The paper's configurations. Twenty-five iterations matches Table
    /// 2's computation budget (1.16·10⁹ cycles ≈ 25 sweeps of 1024² points
    /// at ~45 cycles each) and amortises cold-start Message Cache misses
    /// the way a to-convergence run would.
    pub fn paper(n: usize) -> Self {
        JacobiParams {
            n,
            iters: 25,
            verify: false,
        }
    }
}

/// Shared-memory layout of one Jacobi instance.
#[derive(Clone, Copy, Debug)]
pub struct JacobiLayout {
    /// Grid A base.
    pub a: VAddr,
    /// Grid B base.
    pub b: VAddr,
    /// Grid dimension.
    pub n: usize,
}

impl JacobiLayout {
    fn idx(self, grid: VAddr, i: usize, j: usize) -> VAddr {
        grid.add(((i * self.n + j) * 8) as u64)
    }
}

/// Allocate the grids and build one program per processor.
pub fn programs(world: &mut World, params: JacobiParams) -> (JacobiLayout, Vec<Program>) {
    let n = params.n;
    let procs = world.config().procs;
    let bytes = n * n * 8;
    // First-touch placement: each page of the grids lives with the
    // processor owning its rows, so initialisation is local and boundary
    // pages are served by their writers.
    let page_bytes = world.config().page_bytes;
    let row_owner = move |i: usize| -> usize {
        let row = ((i * page_bytes) / (n * 8)).min(n - 1);
        (0..procs)
            .find(|&p| {
                let (lo, hi) = row_block(n, procs, p);
                row >= lo && row < hi
            })
            .expect("row has an owner")
    };
    let layout = JacobiLayout {
        a: world.alloc_with_homes(bytes, row_owner),
        b: world.alloc_with_homes(bytes, row_owner),
        n,
    };
    let progs = (0..procs)
        .map(|p| -> Program {
            cni::program(move |ctx| {
                Box::pin(async move {
                    let me = p;
                    let procs = procs;
                    let (lo, hi) = row_block(n, procs, me);
                    // Initialise my block of grid A: boundary condition = 1.0
                    // on the outer frame, 0 inside.
                    for i in lo..hi {
                        for j in 0..n {
                            let v = if i == 0 || i == n - 1 || j == 0 || j == n - 1 {
                                1.0
                            } else {
                                0.0
                            };
                            ctx.write_f64(layout.idx(layout.a, i, j), v).await;
                            ctx.write_f64(layout.idx(layout.b, i, j), v).await;
                        }
                    }
                    ctx.barrier().await;
                    let (mut src, mut dst) = (layout.a, layout.b);
                    for _ in 0..params.iters {
                        for i in lo.max(1)..hi.min(n - 1) {
                            for j in 1..(n - 1) {
                                let up = ctx.read_f64(layout.idx(src, i - 1, j)).await;
                                let down = ctx.read_f64(layout.idx(src, i + 1, j)).await;
                                let left = ctx.read_f64(layout.idx(src, i, j - 1)).await;
                                let right = ctx.read_f64(layout.idx(src, i, j + 1)).await;
                                ctx.write_f64(
                                    layout.idx(dst, i, j),
                                    0.25 * (up + down + left + right),
                                )
                                .await;
                            }
                            ctx.compute((n as u64 - 2) * CYCLES_PER_POINT);
                        }
                        // The paper's two synchronisation points per iteration.
                        ctx.barrier().await;
                        std::mem::swap(&mut src, &mut dst);
                        ctx.barrier().await;
                    }
                    if params.verify && me == 0 {
                        // Materialise a coherent copy of the result on node 0.
                        for i in 0..n {
                            for j in 0..n {
                                let _ = ctx.read_f64(layout.idx(src, i, j)).await;
                            }
                        }
                    }
                })
            })
        })
        .collect();
    (layout, progs)
}

/// The row range `[lo, hi)` owned by processor `p` of `procs`.
pub fn row_block(n: usize, procs: usize, p: usize) -> (usize, usize) {
    let per = n / procs;
    let extra = n % procs;
    let lo = p * per + p.min(extra);
    let hi = lo + per + usize::from(p < extra);
    (lo, hi)
}

/// Sequential reference: run the same relaxation in plain Rust.
pub fn reference(n: usize, iters: usize) -> Vec<f64> {
    let mut a = vec![0.0f64; n * n];
    let mut b = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == 0 || i == n - 1 || j == 0 || j == n - 1 {
                a[i * n + j] = 1.0;
                b[i * n + j] = 1.0;
            }
        }
    }
    for _ in 0..iters {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                b[i * n + j] = 0.25
                    * (a[(i - 1) * n + j]
                        + a[(i + 1) * n + j]
                        + a[i * n + j - 1]
                        + a[i * n + j + 1]);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Which grid holds the result after `iters` iterations (grids swap each
/// iteration).
pub fn result_grid(layout: JacobiLayout, iters: usize) -> VAddr {
    if iters.is_multiple_of(2) {
        layout.a
    } else {
        layout.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_block_covers_everything() {
        for n in [7usize, 16, 33] {
            for procs in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for p in 0..procs {
                    let (lo, hi) = row_block(n, procs, p);
                    assert_eq!(lo, prev_hi, "blocks must be contiguous");
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_hi, n);
            }
        }
    }

    #[test]
    fn reference_converges_toward_boundary_value() {
        let n = 16;
        let r0 = reference(n, 1);
        let r50 = reference(n, 50);
        // Interior heats up toward the boundary value 1.0 monotonically.
        let c0 = r0[(n / 2) * n + n / 2];
        let c50 = r50[(n / 2) * n + n / 2];
        assert!(c50 > c0);
        assert!(c50 < 1.0);
    }
}
