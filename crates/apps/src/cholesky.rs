//! Parallel sparse Cholesky — the paper's fine-grained application.
//!
//! "Cholesky is a fine-grained application that factorizes a sparse
//! positive-definite matrix. Each processor modifies a column or a set of
//! columns called supernodes of a matrix. Access to the columns and
//! supernodes are synchronized through column locks. Columns or supernodes
//! are allocated to a processor using the bag of tasks paradigm. Pages
//! tend to move from the releaser to the acquirer leading to many access
//! misses when an invalidate protocol is used; thus caching receive
//! buffers helped performance a great deal. Also, one page usually
//! contains many columns, so concurrent write sharing and the use of
//! write notices increases the parallelism and reduces the amount of data
//! exchanged." (§3.1)
//!
//! Supernodal fan-out (right-looking): columns are grouped into
//! *fundamental supernodes* ([`SymbolicFactor::supernodes`]); a supernode
//! whose pending external updates hit zero becomes a task in the shared
//! bag. The worker that pops it factorises its columns internally under
//! the supernode's lock, then applies its updates to each later supernode
//! under that target's lock, retiring one dependency per source supernode.
//! The factor is stored packed in shared pages (many columns per page →
//! concurrent write sharing); the read-only symbolic structure is
//! replicated to every node at start-up, as a real implementation would.
//! Each `cmod` finds its target entries with one forward
//! [`ColumnCursor`](crate::sparse::ColumnCursor) walk of the target
//! column, not a search per entry.

use crate::sparse::{SparseSpd, SymbolicFactor};
use cni::{LockId, Program, VAddr, World};
use cni_dsm::access;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Cycles charged per multiply-add in `cdiv`/`cmod`. Calibrated against
/// the paper's Table 4, whose 21.5·10⁹ computation cycles for bcsstk14
/// imply ~200 cycles per sparse multiply-add on the 166 MHz host —
/// indexed gather/scatter sparse kernels of the era ran far below peak
/// (see EXPERIMENTS.md calibration).
pub const CYCLES_PER_FLOP: u64 = 200;
/// Initial backoff computation between empty bag polls; doubles per
/// consecutive empty poll up to [`POLL_BACKOFF_MAX_CYCLES`] (under lazy
/// release consistency a waiter must re-acquire to observe the bag, so
/// polite backoff is essential).
pub const POLL_BACKOFF_CYCLES: u64 = 20_000;
/// Upper bound of the exponential poll backoff.
pub const POLL_BACKOFF_MAX_CYCLES: u64 = 1_280_000;
/// Largest supernode (columns) a single task may hold; small enough to
/// keep the bag busy, large enough to amortise locks.
pub const MAX_SUPERNODE: usize = 16;

/// Cholesky workload parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CholeskyMatrix {
    /// The bcsstk14-like matrix (n = 1806).
    Bcsstk14,
    /// The bcsstk15-like matrix (n = 3948).
    Bcsstk15,
    /// A small banded matrix for tests: (n, band). Note: banded matrices
    /// have chain-shaped elimination trees with almost no task
    /// parallelism — use [`CholeskyMatrix::Mesh`] when a test needs
    /// realistic parallel structure.
    Small {
        /// Dimension.
        n: usize,
        /// Half bandwidth.
        band: usize,
    },
    /// A small nested-dissection FE mesh for tests: rows × cols unknowns.
    Mesh {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
}

impl CholeskyMatrix {
    /// Instantiate the matrix (seeded; deterministic).
    pub fn build(self, seed: u64) -> SparseSpd {
        match self {
            CholeskyMatrix::Bcsstk14 => SparseSpd::bcsstk14_like(seed),
            CholeskyMatrix::Bcsstk15 => SparseSpd::bcsstk15_like(seed),
            CholeskyMatrix::Small { n, band } => SparseSpd::generate(n, band, 0.8, 2, seed),
            CholeskyMatrix::Mesh { rows, cols } => SparseSpd::fe_mesh_nd(rows, cols, 2, 0.9, seed),
        }
    }
}

/// Shared-memory layout of the factorisation state.
#[derive(Clone, Copy, Debug)]
pub struct CholeskyLayout {
    /// Packed factor values (`SymbolicFactor::total_slots` doubles).
    pub factor: VAddr,
    /// Pending-update counters, one u64 per supernode.
    pub counters: VAddr,
    /// Bag of tasks: [len, done, items...].
    pub bag: VAddr,
    /// Matrix dimension.
    pub n: usize,
    /// Supernode count.
    pub snodes: usize,
}

impl CholeskyLayout {
    fn slot(self, s: usize) -> VAddr {
        self.factor.add((s * 8) as u64)
    }
    fn counter(self, t: usize) -> VAddr {
        self.counters.add((t * 8) as u64)
    }
    fn bag_len(self) -> VAddr {
        self.bag
    }
    fn bag_done(self) -> VAddr {
        self.bag.add(8)
    }
    fn bag_item(self, k: usize) -> VAddr {
        self.bag.add((2 + k) as u64 * 8)
    }
}

/// The lock guarding supernode `t`.
fn snode_lock(t: usize) -> LockId {
    LockId(t as u32)
}

/// The lock guarding the bag of tasks.
fn bag_lock(snodes: usize) -> LockId {
    LockId(snodes as u32)
}

/// Supernode dependency metadata derived from the symbolic factorisation:
/// shared read-only by all workers.
pub struct SnPlan {
    /// Column ranges.
    pub ranges: Vec<(usize, usize)>,
    /// Column → supernode index.
    pub snode_of: Vec<usize>,
    /// External target supernodes of each source supernode, ascending.
    pub targets: Vec<Vec<usize>>,
    /// Pending external source supernodes per target.
    pub counts: Vec<u32>,
}

impl SnPlan {
    /// Build the plan from the symbolic factorisation.
    pub fn new(sym: &SymbolicFactor, max_size: usize) -> Self {
        let ranges = sym.amalgamated_panels(max_size);
        let mut snode_of = vec![0usize; sym.n];
        for (t, &(lo, hi)) in ranges.iter().enumerate() {
            snode_of[lo..hi].fill(t);
        }
        let mut targets: Vec<Vec<usize>> = Vec::with_capacity(ranges.len());
        let mut counts = vec![0u32; ranges.len()];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            let mut tg: Vec<usize> = (lo..hi)
                .flat_map(|j| sym.structs[j].iter().copied())
                .filter(|&i| snode_of[i] != s)
                .map(|i| snode_of[i])
                .collect();
            tg.sort_unstable();
            tg.dedup();
            for &t in &tg {
                counts[t] += 1;
            }
            targets.push(tg);
        }
        SnPlan {
            snode_of,
            targets,
            counts,
            ranges,
        }
    }
}

/// Allocate shared state and build one program per processor.
///
/// The symbolic factorisation and supernode plan are computed once and
/// shared read-only (`Arc`), modelling the replicated index metadata of a
/// real code. `verify` adds a post-run read pass on processor 0 so tests
/// can collect the factor.
pub fn programs(
    world: &mut World,
    matrix: CholeskyMatrix,
    seed: u64,
    verify: bool,
) -> (CholeskyLayout, Arc<SymbolicFactor>, Vec<Program>) {
    let a = Arc::new(matrix.build(seed));
    let sym = Arc::new(SymbolicFactor::analyze(&a));
    let plan = Arc::new(SnPlan::new(&sym, MAX_SUPERNODE));
    let n = a.n;
    let snodes = plan.ranges.len();
    let procs = world.config().procs;
    let layout = CholeskyLayout {
        factor: world.alloc(sym.total_slots * 8),
        counters: world.alloc(snodes * 8),
        bag: world.alloc((snodes + 2) * 8),
        n,
        snodes,
    };
    let progs = (0..procs)
        .map(|p| -> Program {
            let a = a.clone();
            let sym = sym.clone();
            let plan = plan.clone();
            cni::program(move |ctx| {
                Box::pin(async move {
                    // --- distributed initialisation --------------------------------
                    for (t, &(lo, hi)) in plan.ranges.iter().enumerate() {
                        if t % procs != p {
                            continue;
                        }
                        for j in lo..hi {
                            ctx.write_f64(layout.slot(sym.diag_slot(j)), a.diag[j])
                                .await;
                            for pos in 0..sym.structs[j].len() {
                                ctx.write_f64(layout.slot(sym.offsets[j] + 1 + pos), 0.0)
                                    .await;
                            }
                            let mut cur = sym.cursor(j);
                            for (k, &i) in a.rows[j].iter().enumerate() {
                                ctx.write_f64(layout.slot(cur.slot(i)), a.vals[j][k]).await;
                            }
                        }
                        ctx.write_u64(layout.counter(t), plan.counts[t] as u64)
                            .await;
                    }
                    if p == 0 {
                        // Seed the bag with the leaf supernodes.
                        let mut len = 0u64;
                        for t in 0..snodes {
                            if plan.counts[t] == 0 {
                                ctx.write_u64(layout.bag_item(len as usize), t as u64).await;
                                len += 1;
                            }
                        }
                        ctx.write_u64(layout.bag_len(), len).await;
                        ctx.write_u64(layout.bag_done(), 0).await;
                    }
                    ctx.barrier().await;

                    // --- supernodal fan-out factorisation ---------------------------
                    let mut backoff = POLL_BACKOFF_CYCLES;
                    loop {
                        ctx.acquire(bag_lock(snodes)).await;
                        let done = ctx.read_u64(layout.bag_done()).await;
                        if done == snodes as u64 {
                            ctx.release(bag_lock(snodes)).await;
                            break;
                        }
                        let len = ctx.read_u64(layout.bag_len()).await;
                        let task = if len > 0 {
                            let t = ctx.read_u64(layout.bag_item(len as usize - 1)).await;
                            ctx.write_u64(layout.bag_len(), len - 1).await;
                            Some(t as usize)
                        } else {
                            None
                        };
                        ctx.release(bag_lock(snodes)).await;
                        let Some(s) = task else {
                            ctx.backoff(backoff).await;
                            backoff = (backoff * 2).min(POLL_BACKOFF_MAX_CYCLES);
                            continue;
                        };
                        backoff = POLL_BACKOFF_CYCLES;
                        let (lo, hi) = plan.ranges[s];

                        // Internal factorisation of supernode s under its own
                        // lock: cdiv each column, then update the later columns
                        // *within* the supernode. Keep the finished columns for
                        // the external updates.
                        ctx.acquire(snode_lock(s)).await;
                        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(hi - lo);
                        let mut flops = 0u64;
                        for j in lo..hi {
                            let dj = ctx.read_f64(layout.slot(sym.diag_slot(j))).await;
                            assert!(dj > 0.0, "lost positive definiteness at column {j}");
                            let root = dj.sqrt();
                            ctx.write_f64(layout.slot(sym.diag_slot(j)), root).await;
                            let st = &sym.structs[j];
                            let first = sym.diag_slot(j) + 1;
                            let mut col = Vec::with_capacity(st.len());
                            for (pos, &i) in st.iter().enumerate() {
                                let sl = first + pos;
                                let v = ctx.read_f64(layout.slot(sl)).await / root;
                                ctx.write_f64(layout.slot(sl), v).await;
                                col.push((i, v));
                            }
                            flops += st.len() as u64;
                            // Internal cmods: targets k within this supernode.
                            for (ki, &(k, ljk)) in col.iter().enumerate() {
                                if k >= hi {
                                    break;
                                }
                                let ds = layout.slot(sym.diag_slot(k));
                                let d = ctx.read_f64(ds).await;
                                ctx.write_f64(ds, d - ljk * ljk).await;
                                let mut cur = sym.cursor(k);
                                for &(i, lij) in &col[ki + 1..] {
                                    let sl = layout.slot(cur.slot(i));
                                    let v = ctx.read_f64(sl).await;
                                    ctx.write_f64(sl, v - lij * ljk).await;
                                }
                                flops += (col.len() - ki) as u64;
                            }
                            cols.push(col);
                        }
                        ctx.compute(flops * CYCLES_PER_FLOP);
                        ctx.release(snode_lock(s)).await;

                        // External updates: one lock hold per target supernode,
                        // applying every contribution from this source.
                        let mut ready = Vec::new();
                        for &t in &plan.targets[s] {
                            let (tlo, thi) = plan.ranges[t];
                            ctx.acquire(snode_lock(t)).await;
                            let mut flops = 0u64;
                            for col in &cols {
                                // Contributions to columns k in [tlo, thi).
                                let from = col.partition_point(|&(i, _)| i < tlo);
                                for (ki, &(k, ljk)) in col.iter().enumerate().skip(from) {
                                    if k >= thi {
                                        break;
                                    }
                                    let ds = layout.slot(sym.diag_slot(k));
                                    let d = ctx.read_f64(ds).await;
                                    ctx.write_f64(ds, d - ljk * ljk).await;
                                    let mut cur = sym.cursor(k);
                                    for &(i, lij) in &col[ki + 1..] {
                                        let sl = layout.slot(cur.slot(i));
                                        let v = ctx.read_f64(sl).await;
                                        ctx.write_f64(sl, v - lij * ljk).await;
                                    }
                                    flops += (col.len() - ki) as u64;
                                }
                            }
                            ctx.compute(flops * CYCLES_PER_FLOP);
                            let ca = layout.counter(t);
                            let c = ctx.read_u64(ca).await - 1;
                            ctx.write_u64(ca, c).await;
                            ctx.release(snode_lock(t)).await;
                            if c == 0 {
                                ready.push(t);
                            }
                        }

                        // Publish the finished supernode and newly ready tasks.
                        ctx.acquire(bag_lock(snodes)).await;
                        let done = ctx.read_u64(layout.bag_done()).await + 1;
                        ctx.write_u64(layout.bag_done(), done).await;
                        let mut len = ctx.read_u64(layout.bag_len()).await;
                        for &t in &ready {
                            ctx.write_u64(layout.bag_item(len as usize), t as u64).await;
                            len += 1;
                        }
                        ctx.write_u64(layout.bag_len(), len).await;
                        ctx.release(bag_lock(snodes)).await;
                    }
                    ctx.barrier().await;
                    if verify && p == 0 {
                        for s in 0..sym.total_slots {
                            let _ = ctx.read_f64(layout.slot(s)).await;
                        }
                    }
                })
            })
        })
        .collect();
    (layout, sym, progs)
}

/// Read the packed factor out of the cluster after a run: any valid copy
/// of each page is current once every processor has crossed the final
/// barrier (run with `verify = true` so node 0 holds coherent copies).
pub fn collect_factor(world: &World, sym: &SymbolicFactor, layout: CholeskyLayout) -> Vec<f64> {
    let page_bytes = world.config().page_bytes;
    let mut out = vec![f64::NAN; sym.total_slots];
    for (s, v) in out.iter_mut().enumerate() {
        let addr = layout.factor.add((s * 8) as u64);
        let page = addr.page(page_bytes);
        let word = addr.word(page_bytes);
        let mut best: Option<u64> = None;
        for p in 0..world.config().procs {
            if let Some(h) = world.space(p).try_page(page) {
                if h.flags.state() != access::INVALID {
                    best = Some(h.frame.load(word));
                    break;
                }
            }
        }
        *v = f64::from_bits(best.unwrap_or_else(|| panic!("no valid copy of slot {s}")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_name_spaces_do_not_collide() {
        assert_ne!(snode_lock(5), bag_lock(6));
        assert_eq!(bag_lock(6), LockId(6));
    }

    #[test]
    fn small_matrix_builds() {
        let m = CholeskyMatrix::Small { n: 32, band: 4 }.build(7);
        assert_eq!(m.n, 32);
    }

    #[test]
    fn plan_counts_match_targets() {
        let a = CholeskyMatrix::Small { n: 64, band: 5 }.build(3);
        let sym = SymbolicFactor::analyze(&a);
        let plan = SnPlan::new(&sym, MAX_SUPERNODE);
        let mut recount = vec![0u32; plan.ranges.len()];
        for tg in &plan.targets {
            for &t in tg {
                recount[t] += 1;
            }
        }
        assert_eq!(recount, plan.counts);
        // Targets are strictly later supernodes.
        for (s, tg) in plan.targets.iter().enumerate() {
            for &t in tg {
                assert!(t > s, "supernode {s} targets {t}");
            }
        }
    }

    #[test]
    fn snode_of_is_consistent_with_ranges() {
        let a = CholeskyMatrix::Small { n: 48, band: 4 }.build(9);
        let sym = SymbolicFactor::analyze(&a);
        let plan = SnPlan::new(&sym, 8);
        for (t, &(lo, hi)) in plan.ranges.iter().enumerate() {
            for j in lo..hi {
                assert_eq!(plan.snode_of[j], t);
            }
        }
    }
}
