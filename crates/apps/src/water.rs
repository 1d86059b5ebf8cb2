//! Water — the paper's medium-grained application (after the SPLASH
//! code).
//!
//! "It simulates the molecular behavior of water, and was run with the
//! input sizes of 64, 216 and 343 molecules for 2 steps. In each step,
//! the various intra- and inter-molecular forces affecting the molecule
//! are calculated with respect to other molecules and then the parameters
//! of the molecule are updated. The original algorithm was modified to
//! postpone the updates until the end of an iteration as in reference 3.
//! Synchronization is performed by (1) acquiring a lock for updating the
//! parameters of a molecule and (2) through barriers." (§3.1)
//!
//! We reproduce the sharing and synchronisation structure with a
//! simplified O(m²) pairwise force model (the SPLASH chemistry is not
//! redistributable and does not affect the communication pattern): each
//! processor owns a block of molecules, computes pair forces against all
//! higher-numbered molecules while *accumulating contributions locally*
//! (the postponed-update modification), then applies the accumulated
//! contributions under per-molecule locks, crosses a barrier, and
//! integrates positions of its own molecules.

use cni::{LockId, Program, VAddr, World};
use serde::{Deserialize, Serialize};

/// Cycles charged per molecule pair interaction. SPLASH Water evaluates a
/// multi-site intermolecular potential (9 site pairs, square roots,
/// erfc-style terms) per molecule pair; the paper's Table 3 implies
/// ~2.9·10⁹ computation cycles for 216 molecules × 2 steps ≈ 6·10⁴ cycles
/// per pair on the 166 MHz host (see EXPERIMENTS.md, calibration).
pub const CYCLES_PER_PAIR: u64 = 4_000;
/// Cycles charged per molecule predictor-corrector integration.
pub const CYCLES_PER_UPDATE: u64 = 1_500;

/// Water workload parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WaterParams {
    /// Molecule count (the paper uses 64, 216, 343 — perfect cubes).
    pub molecules: usize,
    /// Time steps (the paper runs 2).
    pub steps: usize,
    /// After the run, have processor 0 read all positions so a test can
    /// collect them (off for measured runs).
    pub verify: bool,
}

impl WaterParams {
    /// The paper's configuration for `molecules`.
    pub fn paper(molecules: usize) -> Self {
        WaterParams {
            molecules,
            steps: 2,
            verify: false,
        }
    }
}

/// Doubles per molecule record. SPLASH Water keeps a ~350-byte record per
/// molecule (three atoms × positions/derivatives/forces); we reproduce the
/// footprint so the page-level sharing pattern (a few molecules per 2 KB
/// page, some false sharing at larger pages) matches the paper's.
pub const MOL_STRIDE: usize = 43;

/// Shared-memory layout: positions and forces, one padded record per
/// molecule.
#[derive(Clone, Copy, Debug)]
pub struct WaterLayout {
    /// Position records, `MOL_STRIDE` doubles per molecule.
    pub pos: VAddr,
    /// Force records, `MOL_STRIDE` doubles per molecule.
    pub force: VAddr,
    /// Molecule count.
    pub m: usize,
}

impl WaterLayout {
    /// Address of dimension `d` of molecule `mol`'s position.
    pub fn pos_at(self, mol: usize, d: usize) -> VAddr {
        self.pos.add(((mol * MOL_STRIDE + d) * 8) as u64)
    }
    /// Address of dimension `d` of molecule `mol`'s accumulated force.
    pub fn force_at(self, mol: usize, d: usize) -> VAddr {
        self.force.add(((mol * MOL_STRIDE + d) * 8) as u64)
    }
}

/// Deterministic initial positions on a jittered cubic lattice — the same
/// function drives the sequential reference.
pub fn initial_position(mol: usize, d: usize, m: usize) -> f64 {
    let side = (m as f64).cbrt().round() as usize;
    let c = [mol % side, (mol / side) % side, mol / (side * side)];
    // Fixed-point jitter keeps it deterministic without a generator.
    let jitter = ((mol as u64 * 2654435761 + d as u64 * 40503) % 1000) as f64 / 5000.0;
    c[d] as f64 + jitter
}

/// The simplified pair force along dimension `d` (antisymmetric).
pub fn pair_force(pi: [f64; 3], pj: [f64; 3], d: usize) -> f64 {
    let dx = [pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]];
    let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + 0.01;
    // Truncated soft potential: repulsive near, vanishing far.
    let inv = 1.0 / (r2 * r2);
    dx[d] * inv
}

/// How many cyclic neighbours each molecule pairs with (half shell).
pub fn half_shell(m: usize) -> usize {
    m / 2
}

/// The molecule range `[lo, hi)` owned by processor `p`.
pub fn block(m: usize, procs: usize, p: usize) -> (usize, usize) {
    let per = m / procs;
    let extra = m % procs;
    let lo = p * per + p.min(extra);
    (lo, lo + per + usize::from(p < extra))
}

/// Allocate shared state and build one program per processor.
pub fn programs(world: &mut World, params: WaterParams) -> (WaterLayout, Vec<Program>) {
    let m = params.molecules;
    let procs = world.config().procs;
    // First-touch placement: molecule state lives with its owner block.
    let page_bytes = world.config().page_bytes;
    let mol_owner = move |i: usize| -> usize {
        let mol = ((i * page_bytes) / (MOL_STRIDE * 8)).min(m - 1);
        (0..procs)
            .find(|&p| {
                let (lo, hi) = block(m, procs, p);
                mol >= lo && mol < hi
            })
            .expect("molecule has an owner")
    };
    let layout = WaterLayout {
        pos: world.alloc_with_homes(m * MOL_STRIDE * 8, mol_owner),
        force: world.alloc_with_homes(m * MOL_STRIDE * 8, mol_owner),
        m,
    };
    let progs = (0..procs)
        .map(|p| -> Program {
            cni::program(move |ctx| {
                Box::pin(async move {
                    let (lo, hi) = block(m, procs, p);
                    // Initialise my molecules.
                    for mol in lo..hi {
                        for d in 0..3 {
                            ctx.write_f64(layout.pos_at(mol, d), initial_position(mol, d, m))
                                .await;
                            ctx.write_f64(layout.force_at(mol, d), 0.0).await;
                        }
                    }
                    ctx.barrier().await;
                    let mut local = vec![0.0f64; m * 3];
                    for _step in 0..params.steps {
                        // Phase 1: pair forces, postponed updates. The cyclic
                        // half-shell: molecule i interacts with the next ⌈m/2⌉
                        // molecules (mod m), so every unordered pair is computed
                        // exactly once and the work is balanced across blocks
                        // (SPLASH's decomposition; a triangular loop would give
                        // the first block ~an order of magnitude more pairs).
                        local.iter_mut().for_each(|v| *v = 0.0);
                        for i in lo..hi {
                            let pi = [
                                ctx.read_f64(layout.pos_at(i, 0)).await,
                                ctx.read_f64(layout.pos_at(i, 1)).await,
                                ctx.read_f64(layout.pos_at(i, 2)).await,
                            ];
                            for dj in 1..=half_shell(m) {
                                if m.is_multiple_of(2) && dj == m / 2 && i >= m / 2 {
                                    continue; // opposite pair already counted
                                }
                                let j = (i + dj) % m;
                                let pj = [
                                    ctx.read_f64(layout.pos_at(j, 0)).await,
                                    ctx.read_f64(layout.pos_at(j, 1)).await,
                                    ctx.read_f64(layout.pos_at(j, 2)).await,
                                ];
                                for d in 0..3 {
                                    let f = pair_force(pi, pj, d);
                                    local[i * 3 + d] += f;
                                    local[j * 3 + d] -= f;
                                }
                                ctx.compute(CYCLES_PER_PAIR);
                            }
                        }
                        // Phase 2: apply postponed updates under per-molecule
                        // locks. Start at this processor's own block and wrap
                        // around — the SPLASH stagger that keeps processors from
                        // convoying on the same lock sequence.
                        for step in 0..m {
                            let mol = (lo + step) % m;
                            let any = (0..3).any(|d| local[mol * 3 + d] != 0.0);
                            if !any {
                                continue;
                            }
                            ctx.acquire(LockId(mol as u32)).await;
                            for d in 0..3 {
                                let a = layout.force_at(mol, d);
                                let cur = ctx.read_f64(a).await;
                                ctx.write_f64(a, cur + local[mol * 3 + d]).await;
                            }
                            ctx.release(LockId(mol as u32)).await;
                        }
                        ctx.barrier().await;
                        // Phase 3: integrate my own molecules, reset forces.
                        for mol in lo..hi {
                            for d in 0..3 {
                                let f = ctx.read_f64(layout.force_at(mol, d)).await;
                                let pa = layout.pos_at(mol, d);
                                let x = ctx.read_f64(pa).await;
                                ctx.write_f64(pa, x + 0.0001 * f).await;
                                ctx.write_f64(layout.force_at(mol, d), 0.0).await;
                            }
                            ctx.compute(CYCLES_PER_UPDATE);
                        }
                        ctx.barrier().await;
                    }
                    if params.verify && p == 0 {
                        for mol in 0..m {
                            for d in 0..3 {
                                let _ = ctx.read_f64(layout.pos_at(mol, d)).await;
                            }
                        }
                    }
                })
            })
        })
        .collect();
    (layout, progs)
}

/// Sequential reference returning final positions.
pub fn reference(params: WaterParams) -> Vec<f64> {
    let m = params.molecules;
    let mut pos: Vec<f64> = (0..m * 3)
        .map(|k| initial_position(k / 3, k % 3, m))
        .collect();
    let mut force = vec![0.0f64; m * 3];
    for _ in 0..params.steps {
        force.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..m {
            let pi = [pos[i * 3], pos[i * 3 + 1], pos[i * 3 + 2]];
            for dj in 1..=half_shell(m) {
                if m.is_multiple_of(2) && dj == m / 2 && i >= m / 2 {
                    continue;
                }
                let j = (i + dj) % m;
                let pj = [pos[j * 3], pos[j * 3 + 1], pos[j * 3 + 2]];
                for d in 0..3 {
                    let f = pair_force(pi, pj, d);
                    force[i * 3 + d] += f;
                    force[j * 3 + d] -= f;
                }
            }
        }
        for k in 0..m * 3 {
            pos[k] += 0.0001 * force[k];
        }
    }
    pos
}

/// Every unordered pair appears exactly once in the cyclic half-shell.
#[cfg(test)]
fn half_shell_pairs(m: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..m {
        for dj in 1..=half_shell(m) {
            if m.is_multiple_of(2) && dj == m / 2 && i >= m / 2 {
                continue;
            }
            let j = (i + dj) % m;
            pairs.push((i.min(j), i.max(j)));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_force_is_antisymmetric() {
        let a = [0.1, 0.2, 0.3];
        let b = [1.0, -0.5, 0.25];
        for d in 0..3 {
            let fab = pair_force(a, b, d);
            let fba = pair_force(b, a, d);
            assert!((fab + fba).abs() < 1e-12);
        }
    }

    #[test]
    fn half_shell_covers_each_pair_once() {
        for m in [7usize, 8, 27, 64] {
            let mut pairs = half_shell_pairs(m);
            pairs.sort_unstable();
            let expect: Vec<(usize, usize)> = (0..m)
                .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
                .collect();
            assert_eq!(pairs, expect, "m={m}");
        }
    }

    #[test]
    fn blocks_partition_molecules() {
        for m in [64usize, 216, 343] {
            for procs in [1usize, 2, 8, 32] {
                let mut total = 0;
                for p in 0..procs {
                    let (lo, hi) = block(m, procs, p);
                    total += hi - lo;
                }
                assert_eq!(total, m);
            }
        }
    }

    #[test]
    fn reference_moves_molecules() {
        let p = WaterParams {
            molecules: 27,
            steps: 2,
            verify: false,
        };
        let end = reference(p);
        let start: Vec<f64> = (0..27 * 3)
            .map(|k| initial_position(k / 3, k % 3, 27))
            .collect();
        assert_ne!(start, end);
        assert!(end.iter().all(|v| v.is_finite()));
    }
}
