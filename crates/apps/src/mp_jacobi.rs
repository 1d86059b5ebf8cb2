//! Message-passing Jacobi — the paradigm-generality demonstration.
//!
//! The paper's third design goal is that CNI "efficiently supports both
//! the message passing and distributed shared memory paradigms" (§1); its
//! evaluation uses only DSM applications ("because we wanted to vary the
//! granularity of the applications keeping the programming paradigm
//! constant", §3.1). This module supplies the missing half: the same
//! Jacobi relaxation written against the explicit message-passing API.
//!
//! Each processor owns its row block in *private* memory; every iteration
//! it exchanges boundary rows with its neighbours over Application Device
//! Channels. The boundary rows live in fixed per-processor send buffers,
//! so after the first exchange the CNI transmits them from the Message
//! Cache ("if the application uses the same buffer for transmitting data,
//! it needs to DMA the buffer from the host memory onto the network
//! adaptor board only once", §2.2) — the temporal locality the paper's
//! transmit caching targets, in the message-passing paradigm.

use crate::jacobi::{reference, row_block, CYCLES_PER_POINT};
use cni::{Program, World};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;

/// Message-passing Jacobi parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MpJacobiParams {
    /// Grid dimension.
    pub n: usize,
    /// Iterations.
    pub iters: usize,
}

/// Synthetic buffer-page ids for the boundary-row send buffers: one page
/// per (processor, which-edge, grid-parity) so transmit caching can bind
/// them.
fn buffer_page(me: usize, edge: usize, parity: usize) -> u64 {
    0x0100_0000 + (me as u64) * 16 + (edge as u64) * 2 + parity as u64
}

/// Build one program per processor plus a channel that yields each
/// processor's final block `(proc, rows)` when the run completes.
pub fn programs(
    world: &World,
    params: MpJacobiParams,
) -> (mpsc::Receiver<(usize, Vec<f64>)>, Vec<Program>) {
    let n = params.n;
    let procs = world.config().procs;
    let line_bytes = world.config().nic.cache_line_bytes as u32;
    let (result_tx, result_rx) = mpsc::channel();
    let progs = (0..procs)
        .map(|p| -> Program {
            let result_tx = result_tx.clone();
            cni::program(move |ctx| {
                Box::pin(async move {
                    let me = p;
                    let (lo, hi) = row_block(n, procs, me);
                    let rows = hi - lo;
                    // Private grid: my rows plus one ghost row on each side.
                    let mut a = vec![0.0f64; (rows + 2) * n];
                    let mut b = a.clone();
                    for r in 0..rows {
                        let gr = lo + r;
                        for c in 0..n {
                            if gr == 0 || gr == n - 1 || c == 0 || c == n - 1 {
                                a[(r + 1) * n + c] = 1.0;
                                b[(r + 1) * n + c] = 1.0;
                            }
                        }
                    }
                    let row_dirty = (n as u32 * 8 + 8).div_ceil(line_bytes);
                    // A neighbour may race one iteration ahead (there is no
                    // global barrier in the message-passing version), so every
                    // row carries its iteration number in word 0 and early
                    // arrivals are stashed.
                    let mut stashed: Vec<(u32, Vec<u64>)> = Vec::new();
                    for it in 0..params.iters {
                        let parity = it % 2;
                        // Exchange boundary rows. Send both first (the rows are
                        // copies in dedicated buffers), then receive both: a
                        // deadlock-free schedule.
                        let mut expect = 0;
                        if me > 0 {
                            let mut top: Vec<u64> = Vec::with_capacity(n + 1);
                            top.push(it as u64);
                            top.extend(a[n..2 * n].iter().map(|v| v.to_bits()));
                            ctx.send_data(
                                (me - 1) as u32,
                                top,
                                Some(buffer_page(me, 0, parity)),
                                true,
                                row_dirty,
                            )
                            .await;
                            expect += 1;
                        }
                        if me + 1 < procs {
                            let mut bottom: Vec<u64> = Vec::with_capacity(n + 1);
                            bottom.push(it as u64);
                            bottom.extend(a[rows * n..(rows + 1) * n].iter().map(|v| v.to_bits()));
                            ctx.send_data(
                                (me + 1) as u32,
                                bottom,
                                Some(buffer_page(me, 1, parity)),
                                true,
                                row_dirty,
                            )
                            .await;
                            expect += 1;
                        }
                        let mut got = 0;
                        let apply = |src: u32, data: &[u64], a: &mut Vec<f64>| {
                            let ghost_base = if (src as usize) < me {
                                0
                            } else {
                                (rows + 1) * n
                            };
                            for (c, w) in data[1..].iter().enumerate() {
                                a[ghost_base + c] = f64::from_bits(*w);
                            }
                        };
                        // Stashed rows from this iteration first.
                        stashed.retain(|(src, data)| {
                            if data[0] == it as u64 {
                                apply(*src, data, &mut a);
                                got += 1;
                                false
                            } else {
                                true
                            }
                        });
                        while got < expect {
                            let (src, data) = ctx.recv_data().await;
                            if data[0] == it as u64 {
                                apply(src, &data, &mut a);
                                got += 1;
                            } else {
                                debug_assert_eq!(data[0], it as u64 + 1, "too far ahead");
                                stashed.push((src, data.as_ref().clone()));
                            }
                        }
                        // Relax my interior rows.
                        for r in 1..=rows {
                            let gr = lo + r - 1;
                            if gr == 0 || gr == n - 1 {
                                b[r * n..(r + 1) * n].copy_from_slice(&a[r * n..(r + 1) * n]);
                                continue;
                            }
                            for c in 1..n - 1 {
                                b[r * n + c] = 0.25
                                    * (a[(r - 1) * n + c]
                                        + a[(r + 1) * n + c]
                                        + a[r * n + c - 1]
                                        + a[r * n + c + 1]);
                            }
                            b[r * n] = a[r * n];
                            b[r * n + n - 1] = a[r * n + n - 1];
                            ctx.compute((n as u64 - 2) * CYCLES_PER_POINT);
                        }
                        std::mem::swap(&mut a, &mut b);
                    }
                    let block: Vec<f64> = a[n..(rows + 1) * n].to_vec();
                    let _ = result_tx.send((me, block));
                })
            })
        })
        .collect();
    (result_rx, progs)
}

/// Run message-passing Jacobi and return the assembled final grid.
pub fn run(world: &mut World, params: MpJacobiParams) -> (Vec<f64>, cni::RunReport) {
    let (rx, progs) = programs(world, params);
    let report = world.run(progs);
    let n = params.n;
    let procs = world.config().procs;
    let mut grid = vec![0.0f64; n * n];
    for _ in 0..procs {
        let (p, block) = rx.recv().expect("every program reports its block");
        let (lo, _) = row_block(n, procs, p);
        grid[lo * n..lo * n + block.len()].copy_from_slice(&block);
    }
    (grid, report)
}

/// The DSM reference produces the same values: re-export for tests.
pub fn reference_grid(params: MpJacobiParams) -> Vec<f64> {
    reference(params.n, params.iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pages_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for me in 0..32 {
            for edge in 0..2 {
                for parity in 0..2 {
                    assert!(seen.insert(buffer_page(me, edge, parity)));
                }
            }
        }
    }
}
