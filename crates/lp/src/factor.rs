//! Sparse LU basis factorization for the revised simplex.
//!
//! The factorization represents `B^{-1}` as a **base** sparse LU of the
//! basis at the last (re)build, followed by an ordered list of update
//! operators:
//!
//! * one **pivot eta** per simplex basis change (`B_new^{-1} = E ·
//!   B_old^{-1}`);
//! * one **append block** per incremental row batch: appending `k` rows
//!   whose fresh slacks enter the basis gives `B_new = [[B, 0], [C, I]]`,
//!   whose inverse `[[B^{-1}, 0], [-C·B^{-1}, I]]` is applied without
//!   touching the existing factors at all — `O(nnz(C))` per batch.
//!
//! `ftran` applies the base solve and then the updates in order (`x =
//! B^{-1} v`); `btran` applies the transposed updates in reverse and then
//! the transposed base solve (`y = B^{-T} v`).
//!
//! # The base LU
//!
//! An EBF basis is mostly **column singletons**: slacks, surpluses,
//! artificials and one-row structurals each carry a single nonzero. They
//! are eliminated by permutation alone — no arithmetic, no etas. Their
//! rows `S` are then closed, and what remains is the **bump** `A[R,T]`:
//! the rows `R` without a singleton column, restricted to the multi-entry
//! basis columns `T`. In the EBF these are the Steiner rows whose slack is
//! nonbasic against the basic edge variables — a few dozen columns in a
//! basis of a few hundred. Ordering columns as `(singletons, T)` and rows
//! as `(S, R)` makes the basis block upper triangular,
//!
//! ```text
//!     [ D   A[S,T] ]
//!     [ 0   A[R,T] ]
//! ```
//!
//! so only the bump is factored, as `L·U` with threshold pivoting: an
//! entry is eligible only if it is at least [`PIVOT_THRESHOLD`] of its
//! column's largest active magnitude. The pivot order takes the bump's own
//! column singletons, then its row singletons, then the lowest
//! **Markowitz** cost, with ties to the lowest column, then row, so the
//! factor is a deterministic function of the basis. Two singletons on one
//! row, an empty column, or a bump with no eligible pivot left make the
//! basis singular, and [`Factor::build`] returns `None`.
//!
//! FTRAN solves the bump by `L` then `U`, subtracts `A[S,T]·x_T` from the
//! singleton rows (a pass over the bump columns' `A[S,T]` entries that
//! skips zero `x_T`) and divides by `D`. BTRAN divides by `D` first and
//! pushes `y_S` into the bump right-hand side through a **row-wise** copy
//! of `A[S,T]`, so it touches only rows with `y_S ≠ 0` — none at all for
//! phase-2 duals (slack costs are zero) and at most one for `ρ = e_pos` —
//! then solves `Uᵀ` and `Lᵀ`. `L` is stored by column and `U` by row, both
//! indexed by elimination step, so each direction has one scatter loop
//! that skips zeros and one gather loop.
//!
//! Every loop runs in a fixed order, so a solve's bit pattern depends only
//! on the basis and the update history, never on the thread count.

use crate::sparse::SparseCol;

/// Absolute pivot tolerance: a singleton or bump pivot at or below this
/// magnitude is treated as zero.
const FACTOR_TOL: f64 = 1e-11;

/// Markowitz threshold: a bump pivot must be at least this fraction of
/// the largest active magnitude in its column, bounding element growth.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Pivot etas tolerated since the last refactorization before
/// [`Factor::needs_refactor`] fires. Short enough to bound both the
/// per-ftran eta work and accumulated floating-point drift.
const ETA_REFRESH: usize = 64;

/// Sparse lists in one arena: list `k` is `idx[start[k]..start[k + 1]]`
/// with the parallel values.
#[derive(Debug, Clone)]
struct Lists {
    start: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl Default for Lists {
    fn default() -> Self {
        Lists {
            start: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }
}

impl Lists {
    /// Appends one list.
    fn push_list(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        for (i, v) in entries {
            self.idx.push(i as u32);
            self.val.push(v);
        }
        self.start.push(self.idx.len());
    }

    /// Number of lists.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Stored entries over all lists.
    fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// The lists regrouped by `key(index)` into `n` lists of `(list,
    /// value)` entries, each in ascending list order.
    fn transpose(&self, n: usize, key: impl Fn(usize) -> usize) -> Lists {
        let mut start = vec![0usize; n + 1];
        for &i in &self.idx {
            start[key(i as usize) + 1] += 1;
        }
        for t in 0..n {
            start[t + 1] += start[t];
        }
        let mut fill = start.clone();
        let mut idx = vec![0u32; self.nnz()];
        let mut val = vec![0.0; self.nnz()];
        for k in 0..self.len() {
            for (i, v) in self.get(k) {
                let at = &mut fill[key(i)];
                idx[*at] = k as u32;
                val[*at] = v;
                *at += 1;
            }
        }
        Lists { start, idx, val }
    }

    #[inline]
    fn get(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (a, b) = (self.start[k], self.start[k + 1]);
        self.idx[a..b]
            .iter()
            .zip(&self.val[a..b])
            .map(|(&i, &v)| (i as usize, v))
    }
}

/// The bump's LU in elimination-step indexing: step `k` pivoted local row
/// `rows[k]` against local column `cols[k]` with pivot `diag[k]`.
struct BumpLu {
    rows: Vec<usize>,
    cols: Vec<usize>,
    diag: Vec<f64>,
    /// Off-diagonal `L` by step column: `(later step, multiplier)`.
    l_cols: Lists,
    /// Off-diagonal `U` by step row: `(later step, value)`.
    u_rows: Lists,
}

/// Value of column `j` in a row, `0.0` when absent.
fn value_at(row: &[(usize, f64)], j: usize) -> f64 {
    row.iter().find(|e| e.0 == j).map_or(0.0, |e| e.1)
}

/// Picks the next bump pivot `(column, row)` from the active submatrix,
/// or `None` when it is singular. Column singletons go first (lowest
/// column), then row singletons that pass the threshold (lowest row), then
/// a Markowitz search over the columns by ascending count, lowest index
/// first within a count. It stops once no column of the next count can
/// beat the best cost `(r_i - 1)(c_j - 1)` found. Ties go to the lower
/// column, then row.
fn find_pivot(
    rows: &[Vec<(usize, f64)>],
    cols: &[Vec<usize>],
    active_rows: &[usize],
    order: &mut [(usize, usize)],
) -> Option<(usize, usize)> {
    let mut c_min = usize::MAX;
    for o in order.iter_mut() {
        o.0 = cols[o.1].len();
        c_min = c_min.min(o.0);
    }
    let r_min = active_rows.iter().map(|&i| rows[i].len()).min()?;
    if c_min == 0 || r_min == 0 {
        return None;
    }
    let col_max = |j: usize| {
        cols[j]
            .iter()
            .fold(0.0f64, |m, &i| m.max(value_at(&rows[i], j).abs()))
    };
    let eligible = |a: f64, max: f64| a > FACTOR_TOL && a >= PIVOT_THRESHOLD * max;
    if c_min == 1 {
        // A column whose one active entry is negligible is numerically
        // empty, so the first singleton decides.
        let j = order.iter().filter(|o| o.0 == 1).map(|o| o.1).min()?;
        let i = cols[j][0];
        return (value_at(&rows[i], j).abs() > FACTOR_TOL).then_some((j, i));
    }
    if r_min == 1 {
        for &i in active_rows.iter().filter(|&&i| rows[i].len() == 1) {
            let (j, v) = rows[i][0];
            if eligible(v.abs(), col_max(j)) {
                return Some((j, i));
            }
        }
    }
    order.sort_unstable();
    let mut best: Option<(usize, usize, usize)> = None;
    for &(c, j) in order.iter() {
        if best.is_some_and(|b| b.0 <= (r_min - 1) * (c - 1)) {
            break;
        }
        let max = col_max(j);
        for &i in &cols[j] {
            if !eligible(value_at(&rows[i], j).abs(), max) {
                continue;
            }
            let cand = ((rows[i].len() - 1) * (c - 1), j, i);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
    }
    best.map(|(_, j, i)| (j, i))
}

/// LU with threshold pivoting of the square matrix given by its rows of
/// `(column, value)` entries, in the pivot order of [`find_pivot`].
/// `None` when the matrix is numerically singular.
fn markowitz(mut rows: Vec<Vec<(usize, f64)>>) -> Option<BumpLu> {
    let k = rows.len();
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, row) in rows.iter().enumerate() {
        for &(j, _) in row {
            cols[j].push(i);
        }
    }
    let mut active_rows: Vec<usize> = (0..k).collect();
    // Active columns as `(count, column)`, sorted by the pivot search.
    let mut order: Vec<(usize, usize)> = (0..k).map(|j| (0, j)).collect();
    let mut row_step = vec![usize::MAX; k];
    let mut col_step = vec![usize::MAX; k];
    let mut slot = vec![usize::MAX; k];
    let mut diag = Vec::with_capacity(k);
    let mut l_tmp: Vec<Vec<(usize, f64)>> = Vec::with_capacity(k);
    let mut u_tmp: Vec<Vec<(usize, f64)>> = Vec::with_capacity(k);
    for step in 0..k {
        let (q, p) = find_pivot(&rows, &cols, &active_rows, &mut order)?;
        active_rows.retain(|&i| i != p);
        order.retain(|o| o.1 != q);
        row_step[p] = step;
        col_step[q] = step;
        let mut prow = std::mem::take(&mut rows[p]);
        for &(j, _) in &prow {
            cols[j].retain(|&i| i != p);
        }
        let at = prow.iter().position(|e| e.0 == q).expect("pivot entry");
        let piv = prow.swap_remove(at).1;
        diag.push(piv);
        // Eliminate column q from every other active row holding it.
        let mut l = Vec::new();
        for i in std::mem::take(&mut cols[q]) {
            let at = rows[i].iter().position(|e| e.0 == q).expect("column entry");
            let mult = rows[i].swap_remove(at).1 / piv;
            l.push((i, mult));
            for (s, &(j, _)) in rows[i].iter().enumerate() {
                slot[j] = s;
            }
            for &(j, u) in &prow {
                if slot[j] != usize::MAX {
                    rows[i][slot[j]].1 -= mult * u;
                } else {
                    rows[i].push((j, -mult * u));
                    cols[j].push(i);
                }
            }
            for &(j, _) in &rows[i] {
                slot[j] = usize::MAX;
            }
        }
        l_tmp.push(l);
        u_tmp.push(prow);
    }
    let mut lu = BumpLu {
        rows: vec![0; k],
        cols: vec![0; k],
        diag,
        l_cols: Lists::default(),
        u_rows: Lists::default(),
    };
    for i in 0..k {
        lu.rows[row_step[i]] = i;
        lu.cols[col_step[i]] = i;
    }
    for (l, u) in l_tmp.into_iter().zip(u_tmp) {
        lu.l_cols
            .push_list(l.into_iter().map(|(i, m)| (row_step[i], m)));
        lu.u_rows
            .push_list(u.into_iter().map(|(j, v)| (col_step[j], v)));
    }
    Some(lu)
}

/// A post-base update operator.
#[derive(Debug, Clone)]
enum Update {
    /// Pivot eta `k` of the eta file.
    Eta(usize),
    /// `k` appended rows with slack pivots: `rows[k']` holds the appended
    /// row's coefficients on the *basis positions* `0..base` (sorted).
    Append { base: usize, rows: Vec<SparseCol> },
}

/// The basis factorization: singleton permutation plus bump LU as the
/// base, then pivot-eta and append-block updates. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Factor {
    /// Current basis dimension.
    dim: usize,
    /// Dimension covered by the base factorization.
    base_dim: usize,
    /// Singleton columns `(position, row, value)`, ascending position.
    singles: Vec<(usize, usize, f64)>,
    /// Basis row and position pivoted at each bump step.
    bump_rows: Vec<usize>,
    bump_pos: Vec<usize>,
    /// `U`'s diagonal by step.
    diag: Vec<f64>,
    /// Off-diagonal `L` by step column: `(later step, multiplier)`.
    l_cols: Lists,
    /// Off-diagonal `U` by step row: `(later step, value)`.
    u_rows: Lists,
    /// `A[S,T]` by bump step: `(singleton row, value)`.
    st_cols: Lists,
    /// `A[S,T]` by singleton (parallel to `singles`): `(step, value)`.
    st_rows: Lists,
    /// Pivot etas: pivot `(row, value)`, off-pivot column in `etas`.
    eta_pivots: Vec<(usize, f64)>,
    etas: Lists,
    updates: Vec<Update>,
}

impl Factor {
    /// Factorizes the basis given as sparse columns (position order, each
    /// sorted by row). Returns `None` when the basis is singular.
    pub fn build<C: AsRef<[(usize, f64)]>>(cols: &[C]) -> Option<Factor> {
        const NONE: usize = usize::MAX;
        let dim = cols.len();
        let mut single_of_row = vec![NONE; dim];
        let mut singles = Vec::new();
        let mut bump_cols = Vec::new();
        for (pos, col) in cols.iter().enumerate() {
            match *col.as_ref() {
                [] => return None,
                [(r, d)] => {
                    if single_of_row[r] != NONE || d.abs() <= FACTOR_TOL {
                        return None;
                    }
                    single_of_row[r] = singles.len();
                    singles.push((pos, r, d));
                }
                _ => bump_cols.push(pos),
            }
        }
        // Bump rows are the rows no singleton closed, in ascending order.
        let mut local_row = vec![NONE; dim];
        let mut bump_row_ids = Vec::with_capacity(bump_cols.len());
        for r in (0..dim).filter(|&r| single_of_row[r] == NONE) {
            local_row[r] = bump_row_ids.len();
            bump_row_ids.push(r);
        }
        let mut a_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); bump_cols.len()];
        for (t, &pos) in bump_cols.iter().enumerate() {
            for &(r, v) in cols[pos].as_ref() {
                if local_row[r] != NONE {
                    a_rows[local_row[r]].push((t, v));
                }
            }
        }
        let lu = markowitz(a_rows)?;
        let bump_pos: Vec<usize> = lu.cols.iter().map(|&t| bump_cols[t]).collect();
        let mut st_cols = Lists::default();
        for &pos in &bump_pos {
            let in_s = cols[pos]
                .as_ref()
                .iter()
                .filter(|e| single_of_row[e.0] != NONE);
            st_cols.push_list(in_s.copied());
        }
        let st_rows = st_cols.transpose(singles.len(), |r| single_of_row[r]);
        Some(Factor {
            dim,
            base_dim: dim,
            singles,
            bump_rows: lu.rows.iter().map(|&i| bump_row_ids[i]).collect(),
            bump_pos,
            diag: lu.diag,
            l_cols: lu.l_cols,
            u_rows: lu.u_rows,
            st_cols,
            st_rows,
            eta_pivots: Vec::new(),
            etas: Lists::default(),
            updates: Vec::new(),
        })
    }

    /// Current basis dimension.
    #[cfg(test)]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of update operators since the last (re)build — the
    /// `lp.eta_len` observable.
    pub fn eta_len(&self) -> usize {
        self.updates.len()
    }

    /// Dimension of the factored bump — the `lp.bump_dim` observable.
    pub fn bump_dim(&self) -> usize {
        self.diag.len()
    }

    /// Stored nonzeros of `L`, `U` (singleton pivots, `A[S,T]`, the bump's
    /// diagonal and off-diagonal `U`) and the update file (pivot etas and
    /// append rows) — the `lp.factor_nnz` observable.
    pub fn nnz(&self) -> usize {
        let appended: usize = self
            .updates
            .iter()
            .map(|u| match u {
                Update::Eta(_) => 0,
                Update::Append { rows, .. } => rows.iter().map(|r| r.len() + 1).sum(),
            })
            .sum();
        self.singles.len()
            + self.st_cols.nnz()
            + self.diag.len()
            + self.l_cols.nnz()
            + self.u_rows.nnz()
            + self.eta_pivots.len()
            + self.etas.nnz()
            + appended
    }

    /// `true` once enough pivot etas have accumulated that a fresh
    /// factorization is cheaper (and numerically safer) than applying them.
    pub fn needs_refactor(&self) -> bool {
        self.eta_pivots.len() >= ETA_REFRESH
    }

    /// Records a simplex basis change: the entering column's ftran image
    /// `w` (dense) replaces basis position `pos`.
    pub fn push_pivot(&mut self, pos: usize, w: &[f64]) {
        debug_assert_eq!(w.len(), self.dim);
        let col = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v != 0.0)
            .map(|(i, &v)| (i, v));
        self.etas.push_list(col);
        self.eta_pivots.push((pos, w[pos]));
        self.updates.push(Update::Eta(self.etas.len() - 1));
    }

    /// Records an appended row block whose fresh slacks enter the basis:
    /// `rows[k']` holds row `k'`'s coefficients on the current basis
    /// positions (sorted by position). The basis dimension grows by
    /// `rows.len()`.
    pub fn push_append(&mut self, rows: Vec<SparseCol>) {
        let k = rows.len();
        self.updates.push(Update::Append {
            base: self.dim,
            rows,
        });
        self.dim += k;
    }

    /// `v <- B^{-1} v`. `scratch` is caller-owned storage reused across
    /// calls (resized as needed).
    pub fn ftran(&self, v: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(v.len(), self.dim);
        let n = self.base_dim;
        scratch.resize(n + self.diag.len(), 0.0);
        let (out, w) = scratch.split_at_mut(n);
        // Bump: w = U^{-1} L^{-1} v_R in step order.
        for (k, &r) in self.bump_rows.iter().enumerate() {
            w[k] = v[r];
        }
        for k in 0..w.len() {
            let t = w[k];
            if t != 0.0 {
                for (m, l) in self.l_cols.get(k) {
                    w[m] -= l * t;
                }
            }
        }
        for k in (0..w.len()).rev() {
            let mut s = w[k];
            for (m, u) in self.u_rows.get(k) {
                s -= u * w[m];
            }
            w[k] = s / self.diag[k];
        }
        // Singleton rows: v_S -= A[S,T] x_T, then x_S = v_S / D.
        for (k, &x) in w.iter().enumerate() {
            if x != 0.0 {
                for (r, a) in self.st_cols.get(k) {
                    v[r] -= a * x;
                }
            }
            out[self.bump_pos[k]] = x;
        }
        for &(pos, r, d) in &self.singles {
            out[pos] = v[r] / d;
        }
        v[..n].copy_from_slice(out);
        for u in &self.updates {
            match u {
                Update::Eta(k) => self.ftran_eta(*k, v),
                Update::Append { base, rows } => {
                    for (k, row) in rows.iter().enumerate() {
                        let mut s = 0.0;
                        for &(i, ci) in row {
                            s += ci * v[i];
                        }
                        v[base + k] -= s;
                    }
                }
            }
        }
    }

    /// `v <- B^{-T} v`: the transposed operators applied in reverse.
    pub fn btran(&self, v: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(v.len(), self.dim);
        for u in self.updates.iter().rev() {
            match u {
                Update::Eta(k) => self.btran_eta(*k, v),
                Update::Append { base, rows } => {
                    for (k, row) in rows.iter().enumerate() {
                        let f = v[base + k];
                        if f != 0.0 {
                            for &(i, ci) in row {
                                v[i] -= ci * f;
                            }
                        }
                    }
                }
            }
        }
        let n = self.base_dim;
        scratch.resize(n + self.diag.len(), 0.0);
        let (out, w) = scratch.split_at_mut(n);
        for (k, &pos) in self.bump_pos.iter().enumerate() {
            w[k] = v[pos];
        }
        // Singleton rows: y_S = c_S / D, pushed into the bump's rhs
        // through the rows of A[S,T] it touches.
        for (s, &(pos, r, d)) in self.singles.iter().enumerate() {
            let y = v[pos] / d;
            out[r] = y;
            if y != 0.0 {
                for (k, a) in self.st_rows.get(s) {
                    w[k] -= a * y;
                }
            }
        }
        // Bump: y_R = L^{-T} U^{-T} w.
        for k in 0..w.len() {
            let z = w[k] / self.diag[k];
            w[k] = z;
            if z != 0.0 {
                for (m, u) in self.u_rows.get(k) {
                    w[m] -= u * z;
                }
            }
        }
        for k in (0..w.len()).rev() {
            let mut s = w[k];
            for (m, l) in self.l_cols.get(k) {
                s -= l * w[m];
            }
            w[k] = s;
        }
        for (k, &r) in self.bump_rows.iter().enumerate() {
            out[r] = w[k];
        }
        v[..n].copy_from_slice(out);
    }

    /// `v <- E_k v` where `E_k` maps pivot eta `k`'s column to `e_r`.
    #[inline]
    fn ftran_eta(&self, k: usize, v: &mut [f64]) {
        let (r, wr) = self.eta_pivots[k];
        let t = v[r];
        if t != 0.0 {
            let t = t / wr;
            for (i, w) in self.etas.get(k) {
                v[i] -= w * t;
            }
            v[r] = t;
        }
    }

    /// `v <- E_k' v`: only component `r` changes.
    #[inline]
    fn btran_eta(&self, k: usize, v: &mut [f64]) {
        let (r, wr) = self.eta_pivots[k];
        let mut s = v[r];
        for (i, w) in self.etas.get(k) {
            s -= w * v[i];
        }
        v[r] = s / wr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dense reference matrix, row-major.
    type Dense = Vec<Vec<f64>>;

    fn sparse_cols(a: &Dense) -> Vec<SparseCol> {
        let dim = a.len();
        (0..dim)
            .map(|j| {
                (0..dim)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn dense(rows: &[&[f64]]) -> Dense {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    fn mat_vec(a: &Dense, x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &Dense, x: &[f64]) -> Vec<f64> {
        let n = a.len();
        (0..n)
            .map(|j| (0..n).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
    }

    /// `ftran(B x) ≈ x` and `btran(Bᵀ x) ≈ x` against the dense `b`.
    fn round_trip_error(f: &Factor, b: &Dense, x: &[f64]) -> f64 {
        let mut scratch = Vec::new();
        let mut v = mat_vec(b, x);
        f.ftran(&mut v, &mut scratch);
        let e1 = max_err(&v, x);
        let mut v = mat_t_vec(b, x);
        f.btran(&mut v, &mut scratch);
        e1.max(max_err(&v, x))
    }

    /// Magnitude in `[0.5, 2)` with a random sign.
    fn value(rng: &mut StdRng) -> f64 {
        let m = rng.gen_range(0.5..2.0);
        if rng.gen_range(0..2u32) == 0 {
            m
        } else {
            -m
        }
    }

    fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
    }

    /// A random nonsingular basis mixing `singles` singleton columns with
    /// a bump: each bump column carries a column-dominant entry on its own
    /// bump row, a few more bump-row entries and a few singleton-row
    /// entries, and the positions are shuffled.
    fn random_basis(rng: &mut StdRng, dim: usize, singles: usize) -> Dense {
        let mut rows: Vec<usize> = (0..dim).collect();
        shuffle(rng, &mut rows);
        let (s_rows, r_rows) = rows.split_at(singles);
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        for &r in s_rows {
            cols.push(vec![(r, value(rng))]);
        }
        for (t, &own) in r_rows.iter().enumerate() {
            let mut col = vec![0.0; dim];
            let mut off = 0.0;
            for _ in 0..rng.gen_range(0..4) {
                let r = r_rows[rng.gen_range(0..r_rows.len())];
                if r != own && col[r] == 0.0 {
                    col[r] = value(rng);
                    off += col[r].abs();
                }
            }
            for _ in 0..rng.gen_range(0..3) {
                if !s_rows.is_empty() {
                    col[s_rows[rng.gen_range(0..s_rows.len())]] = value(rng);
                }
            }
            let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
            col[own] = sign * (off + 0.5 + value(rng).abs());
            cols.push(col.into_iter().enumerate().filter(|e| e.1 != 0.0).collect());
        }
        shuffle(rng, &mut cols);
        let mut a = vec![vec![0.0; dim]; dim];
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                a[i][j] = v;
            }
        }
        a
    }

    fn random_x(rng: &mut StdRng, dim: usize) -> Vec<f64> {
        (0..dim).map(|_| value(rng)).collect()
    }

    #[test]
    fn ftran_btran_invert_a_dense_basis() {
        let a = dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let f = Factor::build(&sparse_cols(&a)).unwrap();
        assert_eq!(f.bump_dim(), 3);
        assert!(round_trip_error(&f, &a, &[1.0, -2.0, 0.5]) < 1e-12);
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a = dense(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(Factor::build(&sparse_cols(&a)).is_none());
    }

    #[test]
    fn singletons_need_no_bump() {
        // A slack basis with one structural singleton: no LU at all.
        let a = dense(&[&[0.0, 1.0, 0.0], &[-1.0, 0.0, 0.0], &[0.0, 0.0, 3.0]]);
        let f = Factor::build(&sparse_cols(&a)).unwrap();
        assert_eq!(f.bump_dim(), 0);
        assert_eq!(f.nnz(), 3);
        assert!(round_trip_error(&f, &a, &[0.25, -4.0, 1.5]) < 1e-15);
    }

    #[test]
    fn bump_column_inside_the_singleton_rows_is_singular() {
        // Column 2 only touches rows closed by the singletons 0 and 1.
        let a = dense(&[
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        assert!(Factor::build(&sparse_cols(&a)).is_none());
    }

    #[test]
    fn threshold_pivoting_avoids_a_tiny_pivot() {
        // Every entry has Markowitz cost 1, so the lowest-index tie-break
        // alone would pivot on the 1e-10 entry and grow the factor by
        // 1e10. The threshold rejects it.
        let eps = 1e-10;
        let a = dense(&[&[eps, 1.0], &[1.0, 1.0]]);
        let f = Factor::build(&sparse_cols(&a)).unwrap();
        assert!(f.diag.iter().all(|d| d.abs() >= 0.5), "{:?}", f.diag);
        let x = [0.75, -1.25];
        assert!(round_trip_error(&f, &a, &x) < 1e-14);
    }

    #[test]
    fn pivot_eta_tracks_a_column_replacement() {
        let a = dense(&[&[1.0, 1.0], &[0.0, 2.0]]);
        let mut f = Factor::build(&sparse_cols(&a)).unwrap();
        let mut scratch = Vec::new();
        // Replace position 0 with column q = (3, 1)'.
        let mut w = vec![3.0, 1.0];
        f.ftran(&mut w, &mut scratch);
        f.push_pivot(0, &w);
        let b2 = dense(&[&[3.0, 1.0], &[1.0, 2.0]]);
        assert!(round_trip_error(&f, &b2, &[0.5, -1.5]) < 1e-12);
    }

    #[test]
    fn append_block_matches_the_block_inverse() {
        // B = [[2, 0], [1, 1]]; appended row contributes C = (5, 7) and a
        // unit slack, so B_new = [[B, 0], [C, 1]].
        let b0 = dense(&[&[2.0, 0.0], &[1.0, 1.0]]);
        let mut f = Factor::build(&sparse_cols(&b0)).unwrap();
        f.push_append(vec![vec![(0, 5.0), (1, 7.0)]]);
        assert_eq!(f.dim(), 3);
        let b1 = dense(&[&[2.0, 0.0, 0.0], &[1.0, 1.0, 0.0], &[5.0, 7.0, 1.0]]);
        assert!(round_trip_error(&f, &b1, &[1.0, 2.0, -1.0]) < 1e-12);
    }

    #[test]
    fn refactor_trigger_fires_after_enough_pivots() {
        let a = dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut f = Factor::build(&sparse_cols(&a)).unwrap();
        assert!(!f.needs_refactor());
        for _ in 0..ETA_REFRESH {
            f.push_pivot(0, &[1.0, 0.0]);
        }
        assert!(f.needs_refactor());
        assert_eq!(f.eta_len(), ETA_REFRESH);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_mixed_bases_round_trip(
            seed in 0u64..1_000_000,
            dim in 1usize..48,
            single_frac in 0usize..11,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let singles = dim * single_frac / 10;
            let a = random_basis(&mut rng, dim, singles);
            let f = Factor::build(&sparse_cols(&a)).expect("dominant basis");
            prop_assert!(f.bump_dim() <= dim - singles);
            let x = random_x(&mut rng, dim);
            let err = round_trip_error(&f, &a, &x);
            prop_assert!(err < 1e-9, "round-trip error {err}");
        }

        #[test]
        fn duplicate_singletons_in_random_bases_are_singular(
            seed in 0u64..1_000_000,
            dim in 3usize..32,
        ) {
            // Move one singleton onto another singleton's row.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cols = sparse_cols(&random_basis(&mut rng, dim, dim / 2 + 1));
            let single: Vec<usize> = (0..dim).filter(|&j| cols[j].len() == 1).collect();
            prop_assume!(single.len() >= 2);
            let row = cols[single[0]][0].0;
            cols[single[1]][0].0 = row;
            prop_assert!(Factor::build(&cols).is_none());
        }

        #[test]
        fn rank_deficient_random_bumps_are_singular(
            seed in 0u64..1_000_000,
            dim in 3usize..32,
        ) {
            // Replace one bump column by a multiple of another.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cols = sparse_cols(&random_basis(&mut rng, dim, dim / 3));
            let bump: Vec<usize> = (0..dim).filter(|&j| cols[j].len() > 1).collect();
            prop_assume!(bump.len() >= 2);
            cols[bump[1]] = cols[bump[0]].iter().map(|&(i, v)| (i, -2.5 * v)).collect();
            prop_assert!(Factor::build(&cols).is_none());
        }

        #[test]
        fn mixed_updates_keep_ftran_and_btran_exact(
            seed in 0u64..1_000_000,
            dim in 2usize..24,
            ops in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = random_basis(&mut rng, dim, dim / 2);
            let mut f = Factor::build(&sparse_cols(&b)).expect("dominant basis");
            let mut scratch = Vec::new();
            for _ in 0..ops {
                let n = b.len();
                if rng.gen_range(0..3) == 0 {
                    // Append 1-2 rows over the current positions.
                    let k = 1 + rng.gen_range(0..2usize);
                    let mut rows = Vec::new();
                    for r in 0..k {
                        let mut row: SparseCol = Vec::new();
                        for pos in 0..n {
                            if rng.gen_range(0..3) == 0 {
                                row.push((pos, value(&mut rng)));
                            }
                        }
                        let mut dense_row = vec![0.0; n + k];
                        for &(pos, v) in &row {
                            dense_row[pos] = v;
                        }
                        dense_row[n + r] = 1.0;
                        rows.push((row, dense_row));
                    }
                    for row in b.iter_mut() {
                        row.resize(n + k, 0.0);
                    }
                    let (sparse, dense): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
                    b.extend(dense);
                    f.push_append(sparse);
                } else {
                    // Replace the position with the largest ftran entry.
                    let a: Vec<f64> = (0..n)
                        .map(|_| if rng.gen_range(0..3) == 0 { value(&mut rng) } else { 0.0 })
                        .collect();
                    let mut w = a.clone();
                    f.ftran(&mut w, &mut scratch);
                    let pos = (0..n)
                        .max_by(|&i, &j| w[i].abs().total_cmp(&w[j].abs()).then(j.cmp(&i)))
                        .expect("nonempty basis");
                    if w[pos].abs() <= 0.25 {
                        continue;
                    }
                    f.push_pivot(pos, &w);
                    for (row, &v) in b.iter_mut().zip(&a) {
                        row[pos] = v;
                    }
                }
                let x = random_x(&mut rng, b.len());
                let err = round_trip_error(&f, &b, &x);
                prop_assert!(err < 1e-8, "round-trip error {err} after update");
            }
        }
    }
}
