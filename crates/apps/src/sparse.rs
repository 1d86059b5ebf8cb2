//! Sparse symmetric positive-definite matrices and symbolic factorisation.
//!
//! The paper factorises the Harwell–Boeing matrices **bcsstk14**
//! (n = 1806) and **bcsstk15** (n = 3948). Those files are not
//! redistributable here, so [`SparseSpd::bcsstk14_like`] /
//! [`SparseSpd::bcsstk15_like`] generate seeded synthetic structural-
//! engineering-style patterns with the same order and a comparable
//! nonzero profile (banded coupling plus sparse long-range members,
//! diagonally dominant values). What matters to the reproduction is the
//! *sharing pattern* — columns packed many-per-page, migrating between
//! processors under column locks — which these patterns preserve.
//!
//! [`SymbolicFactor`] computes the fill-in structure via the elimination
//! tree (Liu's algorithm), giving every processor the read-only metadata
//! the parallel numeric factorisation needs.

use cni_sim::SplitMix64;

/// A sparse SPD matrix in column form (strict lower triangle + diagonal).
#[derive(Clone, Debug)]
pub struct SparseSpd {
    /// Dimension.
    pub n: usize,
    /// Strictly-below-diagonal row indices per column, ascending.
    pub rows: Vec<Vec<usize>>,
    /// Values matching `rows`.
    pub vals: Vec<Vec<f64>>,
    /// Diagonal entries.
    pub diag: Vec<f64>,
}

impl SparseSpd {
    /// A banded + random-coupling SPD matrix.
    ///
    /// * `n` — dimension;
    /// * `band` — nominal half bandwidth (each column couples to a random
    ///   subset of the next `band` rows);
    /// * `density` — fraction of the band populated;
    /// * `long_range` — number of additional longer-distance couplings per
    ///   ~32 columns (truss members crossing the band).
    pub fn generate(n: usize, band: usize, density: f64, long_range: usize, seed: u64) -> Self {
        assert!(n >= 2 && band >= 1);
        // This seed mix and these draws (`next_f64`, and `next_u64() % k`
        // below `k`) make the stream the Cholesky goldens were blessed on.
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut vals: Vec<Vec<f64>> = vec![Vec::new(); n];
        for j in 0..n {
            for i in (j + 1)..(j + 1 + band).min(n) {
                if rng.next_f64() < density {
                    rows[j].push(i);
                    vals[j].push(-(0.1 + 0.9 * rng.next_f64()));
                }
            }
            if long_range > 0 && j % 32 == 0 {
                for _ in 0..long_range {
                    let span = band * 4 + (rng.next_u64() % (band * 8) as u64) as usize;
                    let i = j + 1 + span;
                    if i < n && !rows[j].contains(&i) {
                        let pos = rows[j].partition_point(|&r| r < i);
                        rows[j].insert(pos, i);
                        vals[j].insert(pos, -(0.1 + 0.4 * rng.next_f64()));
                    }
                }
            }
        }
        // Diagonal dominance ⟹ SPD. Row sums include the symmetric upper
        // part, i.e. |column j| entries appear in rows i>j as well.
        let mut offdiag_sum = vec![0.0f64; n];
        for j in 0..n {
            for (k, &i) in rows[j].iter().enumerate() {
                let a = vals[j][k].abs();
                offdiag_sum[j] += a;
                offdiag_sum[i] += a;
            }
        }
        let diag = (0..n).map(|j| 1.0 + 1.5 * offdiag_sum[j]).collect();
        SparseSpd {
            n,
            rows,
            vals,
            diag,
        }
    }

    /// A finite-element-style SPD matrix: a `rows × cols` structural mesh
    /// with couplings up to Chebyshev distance `reach`, permuted by
    /// recursive nested dissection. Nested dissection is what gives the
    /// elimination tree the bushy shape real structural matrices have —
    /// a banded ordering degenerates to a chain with no elimination-tree
    /// parallelism at all.
    pub fn fe_mesh_nd(rows: usize, cols: usize, reach: usize, density: f64, seed: u64) -> Self {
        let n = rows * cols;
        assert!(n >= 4);
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        // Nested-dissection permutation: old (grid) index -> new index.
        let mut perm = vec![usize::MAX; n];
        let mut next = 0usize;
        dissect(&mut perm, &mut next, rows, cols, 0, rows, 0, cols);
        debug_assert_eq!(next, n);
        // Build couplings in grid space, map through the permutation.
        let mut rows_out: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut vals_out: Vec<Vec<f64>> = vec![Vec::new(); n];
        let r = reach as isize;
        for gr in 0..rows as isize {
            for gc in 0..cols as isize {
                let u = perm[(gr * cols as isize + gc) as usize];
                for dr in -r..=r {
                    for dc in -r..=r {
                        if dr == 0 && dc == 0 {
                            continue;
                        }
                        let (nr, nc) = (gr + dr, gc + dc);
                        if nr < 0 || nr >= rows as isize || nc < 0 || nc >= cols as isize {
                            continue;
                        }
                        let v = perm[(nr * cols as isize + nc) as usize];
                        // Handle each undirected edge once, as (col, row)
                        // in the permuted lower triangle.
                        if v <= u {
                            continue;
                        }
                        if rng.next_f64() >= density {
                            continue;
                        }
                        let (j, i) = (u, v);
                        let pos = rows_out[j].partition_point(|&x| x < i);
                        rows_out[j].insert(pos, i);
                        vals_out[j].insert(pos, -(0.1 + 0.9 * rng.next_f64()));
                    }
                }
            }
        }
        let mut offdiag_sum = vec![0.0f64; n];
        for j in 0..n {
            for (k, &i) in rows_out[j].iter().enumerate() {
                let a = vals_out[j][k].abs();
                offdiag_sum[j] += a;
                offdiag_sum[i] += a;
            }
        }
        let diag = (0..n).map(|j| 1.0 + 1.5 * offdiag_sum[j]).collect();
        SparseSpd {
            n,
            rows: rows_out,
            vals: vals_out,
            diag,
        }
    }

    /// A synthetic stand-in for Harwell–Boeing **bcsstk14** (n = 1806,
    /// roof of the Omni Coliseum): a 43 × 42 structural mesh (exactly
    /// 1806 unknowns) with comparable sparsity and a realistic bushy
    /// elimination tree.
    pub fn bcsstk14_like(seed: u64) -> Self {
        Self::fe_mesh_nd(43, 42, 2, 0.9, seed)
    }

    /// A synthetic stand-in for **bcsstk15** (n = 3948, offshore platform
    /// module): a 47 × 84 mesh (exactly 3948 unknowns).
    pub fn bcsstk15_like(seed: u64) -> Self {
        Self::fe_mesh_nd(47, 84, 2, 0.9, seed)
    }

    /// Structural nonzeros in the strict lower triangle.
    pub fn nnz_lower(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Recursive nested dissection of a sub-grid `[r0, r1) × [c0, c1)`:
/// number both halves first, then the separator line, so separator
/// columns are eliminated last and the elimination tree branches.
#[allow(clippy::too_many_arguments)]
fn dissect(
    perm: &mut [usize],
    next: &mut usize,
    grid_rows: usize,
    grid_cols: usize,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
) {
    let _ = grid_rows; // kept for symmetry/debug assertions

    let h = r1 - r0;
    let w = c1 - c0;
    if h == 0 || w == 0 {
        return;
    }
    if h <= 3 && w <= 3 {
        for r in r0..r1 {
            for c in c0..c1 {
                perm[r * grid_cols + c] = *next;
                *next += 1;
            }
        }
        return;
    }
    // Separators are two cells wide so that couplings of Chebyshev reach 2
    // cannot jump across them — otherwise the "independent" halves stay
    // coupled and the elimination tree degenerates toward a chain.
    if h >= w {
        let mid = r0 + h / 2;
        let sep_hi = (mid + 2).min(r1);
        dissect(perm, next, grid_rows, grid_cols, r0, mid, c0, c1);
        dissect(perm, next, grid_rows, grid_cols, sep_hi, r1, c0, c1);
        for r in mid..sep_hi {
            for c in c0..c1 {
                perm[r * grid_cols + c] = *next;
                *next += 1;
            }
        }
    } else {
        let mid = c0 + w / 2;
        let sep_hi = (mid + 2).min(c1);
        dissect(perm, next, grid_rows, grid_cols, r0, r1, c0, mid);
        dissect(perm, next, grid_rows, grid_cols, r0, r1, sep_hi, c1);
        for r in r0..r1 {
            for c in mid..sep_hi {
                perm[r * grid_cols + c] = *next;
                *next += 1;
            }
        }
    }
}

/// The fill-in structure of the Cholesky factor.
#[derive(Clone, Debug)]
pub struct SymbolicFactor {
    /// Dimension.
    pub n: usize,
    /// Below-diagonal rows of each factor column (with fill), ascending.
    pub structs: Vec<Vec<usize>>,
    /// Elimination-tree parent of each column (`usize::MAX` for roots).
    pub parent: Vec<usize>,
    /// Packed-slot offset of each column (slot 0 of a column is its
    /// diagonal, followed by its below-diagonal entries).
    pub offsets: Vec<usize>,
    /// Total packed slots.
    pub total_slots: usize,
}

impl SymbolicFactor {
    /// Symbolic factorisation of `a` via elimination-tree merging.
    pub fn analyze(a: &SparseSpd) -> Self {
        let n = a.n;
        let mut structs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut parent = vec![usize::MAX; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for j in 0..n {
            // Start from A's structure.
            let mut s: Vec<usize> = a.rows[j].clone();
            // Merge children's structures (minus entries ≤ j).
            for &c in &children[j] {
                for &i in &structs[c] {
                    if i > j {
                        s.push(i);
                    }
                }
            }
            s.sort_unstable();
            s.dedup();
            if let Some(&first) = s.first() {
                parent[j] = first;
                children[first].push(j);
            }
            structs[j] = s;
        }
        let mut offsets = Vec::with_capacity(n);
        let mut total = 0usize;
        for st in &structs {
            offsets.push(total);
            total += 1 + st.len();
        }
        SymbolicFactor {
            n,
            structs,
            parent,
            offsets,
            total_slots: total,
        }
    }

    /// Factor nonzeros including the diagonal.
    pub fn nnz(&self) -> usize {
        self.total_slots
    }

    /// Packed slot of the diagonal of column `j`.
    pub fn diag_slot(&self, j: usize) -> usize {
        self.offsets[j]
    }

    /// Packed slot of `L(i, j)`; `i` must be in `structs[j]`.
    pub fn slot(&self, i: usize, j: usize) -> usize {
        let pos = self.structs[j]
            .binary_search(&i)
            .unwrap_or_else(|_| missing_row(i, j));
        self.offsets[j] + 1 + pos
    }

    /// A forward cursor over column `j`'s rows, for looking up the slots
    /// of an ascending run of them (see [`ColumnCursor`]).
    pub fn cursor(&self, j: usize) -> ColumnCursor<'_> {
        ColumnCursor {
            rows: &self.structs[j],
            first: self.offsets[j] + 1,
            pos: 0,
            col: j,
        }
    }

    /// How many earlier columns update column `j` (the fan-out readiness
    /// counters).
    pub fn update_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n];
        for j in 0..self.n {
            for &i in &self.structs[j] {
                counts[i] += 1;
            }
        }
        counts
    }

    /// Partition the columns into *fundamental supernodes*: maximal runs of
    /// consecutive columns where each column's structure is the next column
    /// plus the next column's structure (`struct(j) = {j+1} ∪ struct(j+1)`),
    /// capped at `max_size` columns for parallelism. These are the "sets of
    /// columns called supernodes" the paper's Cholesky allocates through
    /// the bag of tasks. Returns `(start, end)` half-open column ranges.
    pub fn supernodes(&self, max_size: usize) -> Vec<(usize, usize)> {
        assert!(max_size >= 1);
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.n {
            let mut end = start + 1;
            while end < self.n
                && end - start < max_size
                && self.parent[end - 1] == end
                && self.structs[end - 1].len() == self.structs[end].len() + 1
            {
                end += 1;
            }
            out.push((start, end));
            start = end;
        }
        out
    }

    /// Amalgamated panels: fundamental supernodes greedily merged with
    /// their neighbours up to `max_size` columns. Banded matrices produce
    /// few true fundamental supernodes (sliding-window structures never
    /// nest), so practical codes amalgamate — trading a little extra
    /// synchronisation coarseness for far fewer tasks and locks. The
    /// fan-out algorithm is correct for *any* consecutive partition of the
    /// columns.
    pub fn amalgamated_panels(&self, max_size: usize) -> Vec<(usize, usize)> {
        let sn = self.supernodes(max_size);
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (lo, hi) in sn {
            match out.last_mut() {
                // Merge only when the previous panel chains into this one
                // through the elimination tree (its last column's parent is
                // our first column). Merging unrelated neighbours — e.g.
                // two independent nested-dissection subtrees that happen to
                // be consecutive — would create false dependencies and
                // serialise the whole factorisation.
                Some((plo, phi))
                    if hi - *plo <= max_size && *phi == lo && self.parent[*phi - 1] == lo =>
                {
                    *phi = hi;
                }
                _ => out.push((lo, hi)),
            }
        }
        out
    }
}

/// A forward walk over one factor column's rows that finds the packed slot
/// of each `L(i, j)` in amortised O(1), where [`SymbolicFactor::slot`]
/// binary-searches the column on every call.
///
/// The rows asked for must not descend. A `cmod` of column `k` by column
/// `j` asks exactly so: the rows of `struct(j)` below `k` ascend and all
/// lie in `struct(k)`, so one pass over `struct(k)` finds them all (the
/// relative-index walk of supernodal codes). A row the column lacks, or
/// one behind the cursor, panics with [`SymbolicFactor::slot`]'s message.
pub struct ColumnCursor<'a> {
    rows: &'a [usize],
    /// Packed slot of the column's first below-diagonal entry.
    first: usize,
    pos: usize,
    col: usize,
}

impl ColumnCursor<'_> {
    /// Packed slot of `L(i, j)`, for `i` no lower than the previous call's.
    #[inline]
    pub fn slot(&mut self, i: usize) -> usize {
        while let Some(&r) = self.rows.get(self.pos) {
            if r == i {
                return self.first + self.pos;
            }
            if r > i {
                break;
            }
            self.pos += 1;
        }
        missing_row(i, self.col)
    }
}

#[cold]
#[inline(never)]
fn missing_row(i: usize, j: usize) -> ! {
    panic!("row {i} not in struct of column {j}")
}

/// Dense-panel sequential Cholesky over the symbolic structure; reference
/// for the parallel factorisation. Returns packed factor values aligned
/// with [`SymbolicFactor::offsets`]. Every lookup is a binary-search
/// [`SymbolicFactor::slot`], so the oracle shares no slot walk with the
/// parallel code's [`ColumnCursor`]s.
pub fn reference_cholesky(a: &SparseSpd, sym: &SymbolicFactor) -> Vec<f64> {
    let n = a.n;
    let mut l = vec![0.0f64; sym.total_slots];
    // Scatter A into the packed factor.
    for j in 0..n {
        l[sym.diag_slot(j)] = a.diag[j];
        for (k, &i) in a.rows[j].iter().enumerate() {
            l[sym.slot(i, j)] = a.vals[j][k];
        }
    }
    // Right-looking (fan-out order, matching the parallel algorithm).
    for j in 0..n {
        let dj = l[sym.diag_slot(j)];
        assert!(dj > 0.0, "matrix not positive definite at column {j}");
        let root = dj.sqrt();
        l[sym.diag_slot(j)] = root;
        let st = sym.structs[j].clone();
        for &i in &st {
            l[sym.slot(i, j)] /= root;
        }
        // cmod every later column in struct(j).
        for (ki, &k) in st.iter().enumerate() {
            let ljk = l[sym.slot(k, j)];
            l[sym.diag_slot(k)] -= ljk * ljk;
            for &i in &st[ki + 1..] {
                let lij = l[sym.slot(i, j)];
                let s = sym.slot(i, k);
                l[s] -= lij * ljk;
            }
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> SparseSpd {
        SparseSpd::generate(64, 5, 0.8, 2, 42)
    }

    /// A random `Small`, `Mesh` or bcsstk14-like matrix.
    fn matrix() -> impl Strategy<Value = SparseSpd> {
        prop_oneof![
            (4usize..80, 1usize..9, any::<u64>())
                .prop_map(|(n, band, seed)| SparseSpd::generate(n, band, 0.8, 2, seed)),
            (2usize..12, 2usize..12, any::<u64>())
                .prop_map(|(r, c, seed)| SparseSpd::fe_mesh_nd(r, c, 2, 0.9, seed)),
            any::<u64>().prop_map(SparseSpd::bcsstk14_like),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// For any ascending subset of any column's rows, a cursor walk
        /// returns exactly the slots the binary search does.
        fn a_cursor_finds_the_slots_the_search_finds(a in matrix(), pick in any::<u64>()) {
            let sym = SymbolicFactor::analyze(&a);
            let mut rng = SplitMix64::new(pick);
            for (j, rows) in sym.structs.iter().enumerate() {
                let keep = rng.next_u64() % 5;
                let mut cur = sym.cursor(j);
                for &i in rows.iter().filter(|_| rng.next_u64() % 4 < keep) {
                    prop_assert_eq!(cur.slot(i), sym.slot(i, j), "L({}, {})", i, j);
                }
            }
        }
    }

    /// A hand-built factor whose column 0 holds exactly rows 2 and 5.
    fn rows_2_and_5() -> SymbolicFactor {
        let mut rows = vec![Vec::new(); 6];
        rows[0] = vec![2, 5];
        let vals = rows.iter().map(|r| vec![-0.5; r.len()]).collect();
        SymbolicFactor::analyze(&SparseSpd {
            n: 6,
            rows,
            vals,
            diag: vec![4.0; 6],
        })
    }

    #[test]
    #[should_panic(expected = "row 4 not in struct of column 0")]
    fn a_cursor_panics_on_a_row_the_column_lacks() {
        let sym = rows_2_and_5();
        assert_eq!(sym.structs[0], [2, 5]);
        let mut cur = sym.cursor(0);
        assert_eq!(cur.slot(2), sym.slot(2, 0));
        cur.slot(4);
    }

    #[test]
    #[should_panic(expected = "row 6 not in struct of column 0")]
    fn a_cursor_panics_past_the_columns_last_row() {
        let sym = rows_2_and_5();
        let mut cur = sym.cursor(0);
        assert_eq!(cur.slot(5), sym.slot(5, 0));
        cur.slot(6);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.diag, b.diag);
    }

    #[test]
    fn structure_is_sorted_strictly_lower() {
        let a = small();
        for j in 0..a.n {
            for w in a.rows[j].windows(2) {
                assert!(w[0] < w[1]);
            }
            for &i in &a.rows[j] {
                assert!(i > j);
            }
            assert_eq!(a.rows[j].len(), a.vals[j].len());
        }
    }

    #[test]
    fn symbolic_contains_original_and_adds_fill() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        for j in 0..a.n {
            for &i in &a.rows[j] {
                assert!(sym.structs[j].contains(&i), "lost A({i},{j})");
            }
        }
        assert!(
            sym.nnz() >= a.nnz_lower() + a.n,
            "no fill at all is suspicious"
        );
    }

    #[test]
    fn etree_parent_is_first_struct_entry() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        for j in 0..a.n {
            match sym.structs[j].first() {
                Some(&f) => assert_eq!(sym.parent[j], f),
                None => assert_eq!(sym.parent[j], usize::MAX),
            }
        }
    }

    #[test]
    fn reference_cholesky_reconstructs_matrix() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        let l = reference_cholesky(&a, &sym);
        // Check A ≈ L·Lᵀ on the original entries.
        // Build a dense L for the check (n=64 is tiny).
        let n = a.n;
        let mut dense = vec![0.0f64; n * n];
        for j in 0..n {
            dense[j * n + j] = l[sym.diag_slot(j)];
            for &i in &sym.structs[j] {
                dense[i * n + j] = l[sym.slot(i, j)];
            }
        }
        let recon = |i: usize, j: usize| -> f64 {
            (0..=j.min(i))
                .map(|k| dense[i * n + k] * dense[j * n + k])
                .sum()
        };
        for j in 0..n {
            let d = recon(j, j);
            assert!((d - a.diag[j]).abs() < 1e-8 * a.diag[j].abs().max(1.0));
            for (k, &i) in a.rows[j].iter().enumerate() {
                let v = recon(i, j);
                assert!(
                    (v - a.vals[j][k]).abs() < 1e-8,
                    "A({i},{j}): {v} vs {}",
                    a.vals[j][k]
                );
            }
        }
    }

    #[test]
    fn update_counts_match_struct_membership() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        let counts = sym.update_counts();
        let total: u32 = counts.iter().sum();
        let expected: usize = sym.structs.iter().map(Vec::len).sum();
        assert_eq!(total as usize, expected);
    }

    #[test]
    fn supernodes_partition_and_are_fundamental() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        let sn = sym.supernodes(16);
        // Partition: contiguous, covering, non-empty.
        let mut prev = 0;
        for &(lo, hi) in &sn {
            assert_eq!(lo, prev);
            assert!(hi > lo && hi - lo <= 16);
            prev = hi;
        }
        assert_eq!(prev, a.n);
        // Fundamental: within a supernode, struct(j) = {j+1} ∪ struct(j+1).
        for &(lo, hi) in &sn {
            for j in lo..hi - 1 {
                assert_eq!(sym.parent[j], j + 1);
                assert_eq!(sym.structs[j].len(), sym.structs[j + 1].len() + 1);
                assert_eq!(sym.structs[j][0], j + 1);
            }
        }
        // A banded matrix should produce real merging, not all singletons.
        assert!(sn.len() < a.n, "no supernodes found at all");
    }

    #[test]
    fn amalgamated_panels_partition_with_fewer_tasks() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        let panels = sym.amalgamated_panels(16);
        let mut prev = 0;
        for &(lo, hi) in &panels {
            assert_eq!(lo, prev);
            assert!(hi > lo && hi - lo <= 16);
            prev = hi;
        }
        assert_eq!(prev, a.n);
        assert!(panels.len() <= sym.supernodes(16).len());
        assert!(
            panels.len() <= a.n.div_ceil(4),
            "amalgamation too weak: {}",
            panels.len()
        );
    }

    #[test]
    fn supernode_cap_respected() {
        let a = small();
        let sym = SymbolicFactor::analyze(&a);
        for &(lo, hi) in &sym.supernodes(2) {
            assert!(hi - lo <= 2);
        }
    }

    #[test]
    fn bcsstk_likes_have_paper_orders() {
        let a = SparseSpd::bcsstk14_like(1);
        assert_eq!(a.n, 1806);
        assert!(a.nnz_lower() > 15_000, "nnz {}", a.nnz_lower());
        let b = SparseSpd::bcsstk15_like(1);
        assert_eq!(b.n, 3948);
        assert!(b.nnz_lower() > a.nnz_lower());
    }
}
