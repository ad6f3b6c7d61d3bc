//! Product-form basis factorization for the revised simplex.
//!
//! The factorization represents `B^{-1}` as an ordered list of sparse
//! operators applied left to right:
//!
//! * a **base** Gauss–Jordan product form `E_k ... E_1 B = P` built from
//!   the basis columns (singleton columns — slacks, surpluses,
//!   artificials — are pivoted first so only the structural "bump"
//!   creates fill), followed by the permutation extraction `P`;
//! * one **pivot eta** per simplex basis change (`B_new^{-1} = E ·
//!   B_old^{-1}`);
//! * one **append block** per incremental row batch: appending `k` rows
//!   whose fresh slacks enter the basis gives `B_new = [[B, 0], [C, I]]`,
//!   whose inverse `[[B^{-1}, 0], [-C·B^{-1}, I]]` is applied without
//!   touching the existing factors at all — `O(nnz(C))` per batch.
//!
//! `ftran` applies the operators in order (`x = B^{-1} v`), `btran`
//! applies their transposes in reverse (`y = B^{-T} v`).
//!
//! # Storage ([`EtaFile`])
//!
//! All etas — base and pivot — live in one structure-of-arrays file: a
//! shared `u32` row-index stream plus a parallel `f64` value stream, with
//! each eta holding an offset range. Low-fill columns stay in that arena
//! (sorted by row index, so accumulation order — and therefore the
//! solve's bit pattern — is deterministic); high-fill columns are
//! promoted to **64-byte-aligned dense blocks** ([`F64x8`], one cache
//! line each) whose fixed-eight-lane inner loops the compiler
//! autovectorizes. The one partial tail block a dense column can have at
//! the vector's end goes through a safe-indexing scalar fallback that is
//! kept under test against the blocked path. Whether a column is sparse
//! or dense depends only on its fill pattern, never on the thread count,
//! so the representation choice cannot perturb cross-thread bit identity.

use crate::sparse::SparseCol;

/// Pivot tolerance of the Gauss–Jordan factorization.
const FACTOR_TOL: f64 = 1e-11;

/// Pivot etas tolerated since the last refactorization before
/// [`Factor::needs_refactor`] fires. Short enough to bound both the
/// per-ftran eta work and accumulated floating-point drift.
const ETA_REFRESH: usize = 64;

/// Minimum nonzeros before a column is even considered for dense blocks.
const DENSE_MIN_NNZ: usize = 16;

/// Eight `f64` lanes on one 64-byte cache line: the unit of dense eta
/// storage, aligned so a block never straddles two lines.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct F64x8([f64; 8]);

/// Where one eta's off-pivot column lives.
#[derive(Debug, Clone)]
enum EtaBody {
    /// Offset range into the [`EtaFile`] row/value streams (sorted rows).
    Sparse { start: usize, end: usize },
    /// Dense cache-line blocks covering rows
    /// `8 * first_block .. 8 * (first_block + blocks.len())`; absent rows
    /// hold `0.0`.
    Dense {
        first_block: usize,
        blocks: Box<[F64x8]>,
    },
}

/// One Gauss–Jordan eta: the transformed pivot column split into the
/// pivot entry `wr` (row `r`) and the remaining nonzeros in `body`.
#[derive(Debug, Clone)]
struct EtaRef {
    r: usize,
    wr: f64,
    body: EtaBody,
}

/// The structure-of-arrays eta store shared by base and pivot etas.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    rows: Vec<u32>,
    vals: Vec<f64>,
    etas: Vec<EtaRef>,
}

/// `v[8b..8b+8] -= w * t` over dense blocks: full blocks go through a
/// fixed-lane loop the compiler vectorizes, the partial tail block (if
/// the vector ends mid-block) through [`axpy_tail`].
fn dense_axpy(v: &mut [f64], first_block: usize, blocks: &[F64x8], t: f64) {
    let mut base = first_block * 8;
    for blk in blocks {
        if base + 8 <= v.len() {
            let dst: &mut [f64; 8] = (&mut v[base..base + 8]).try_into().expect("full block");
            for (slot, &w) in dst.iter_mut().zip(blk.0.iter()) {
                *slot -= w * t;
            }
        } else {
            axpy_tail(v, base, &blk.0, t);
        }
        base += 8;
    }
}

/// Safe-indexing scalar fallback for a partial tail block.
fn axpy_tail(v: &mut [f64], base: usize, lanes: &[f64; 8], t: f64) {
    for (lane, &w) in lanes.iter().enumerate() {
        if let Some(slot) = v.get_mut(base + lane) {
            *slot -= w * t;
        }
    }
}

/// `sum_i w[i] * v[i]` over dense blocks with eight independent lane
/// accumulators (vectorizable without reassociating within a lane),
/// horizontally summed in lane order at the end — a fixed, deterministic
/// accumulation order.
fn dense_dot(v: &[f64], first_block: usize, blocks: &[F64x8]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut base = first_block * 8;
    for blk in blocks {
        if base + 8 <= v.len() {
            let src: &[f64; 8] = v[base..base + 8].try_into().expect("full block");
            for lane in 0..8 {
                acc[lane] += blk.0[lane] * src[lane];
            }
        } else {
            for (lane, &w) in blk.0.iter().enumerate() {
                if let Some(&x) = v.get(base + lane) {
                    acc[lane] += w * x;
                }
            }
        }
        base += 8;
    }
    let mut s = 0.0;
    for lane in acc {
        s += lane;
    }
    s
}

impl EtaFile {
    fn len(&self) -> usize {
        self.etas.len()
    }

    /// Stores one eta column. `entries` is sorted by row index and never
    /// contains the pivot row `r`. Columns with at least [`DENSE_MIN_NNZ`]
    /// nonzeros averaging two or more per spanned cache line go dense;
    /// everything else lands in the shared arena. The choice is a pure
    /// function of the fill pattern.
    fn push(&mut self, r: usize, wr: f64, entries: &[(usize, f64)]) {
        let dense = entries.len() >= DENSE_MIN_NNZ && {
            let lo = entries[0].0 / 8;
            let hi = entries[entries.len() - 1].0 / 8;
            entries.len() * 4 >= (hi - lo + 1) * 8
        };
        self.push_with_layout(r, wr, entries, dense);
    }

    fn push_with_layout(&mut self, r: usize, wr: f64, entries: &[(usize, f64)], dense: bool) {
        let body = if dense && !entries.is_empty() {
            let lo = entries[0].0 / 8;
            let hi = entries[entries.len() - 1].0 / 8;
            let mut blocks = vec![F64x8::default(); hi - lo + 1].into_boxed_slice();
            for &(i, v) in entries {
                blocks[i / 8 - lo].0[i % 8] = v;
            }
            EtaBody::Dense {
                first_block: lo,
                blocks,
            }
        } else {
            let start = self.rows.len();
            for &(i, v) in entries {
                self.rows.push(i as u32);
                self.vals.push(v);
            }
            EtaBody::Sparse {
                start,
                end: self.rows.len(),
            }
        };
        self.etas.push(EtaRef { r, wr, body });
    }

    /// `v <- E_k v` where `E_k` maps the stored column to the unit vector
    /// `e_r`.
    #[inline]
    fn ftran_eta(&self, k: usize, v: &mut [f64]) {
        let e = &self.etas[k];
        let t = v[e.r];
        if t != 0.0 {
            let t = t / e.wr;
            match &e.body {
                EtaBody::Sparse { start, end } => {
                    let rows = &self.rows[*start..*end];
                    let vals = &self.vals[*start..*end];
                    for (i, w) in rows.iter().zip(vals) {
                        v[*i as usize] -= w * t;
                    }
                }
                EtaBody::Dense {
                    first_block,
                    blocks,
                } => dense_axpy(v, *first_block, blocks, t),
            }
            v[e.r] = t;
        }
    }

    /// `v <- E_k' v`: only component `r` changes.
    #[inline]
    fn btran_eta(&self, k: usize, v: &mut [f64]) {
        let e = &self.etas[k];
        let mut s = v[e.r];
        match &e.body {
            EtaBody::Sparse { start, end } => {
                let rows = &self.rows[*start..*end];
                let vals = &self.vals[*start..*end];
                for (i, w) in rows.iter().zip(vals) {
                    s -= w * v[*i as usize];
                }
            }
            EtaBody::Dense {
                first_block,
                blocks,
            } => s -= dense_dot(v, *first_block, blocks),
        }
        v[e.r] = s / e.wr;
    }

    /// The build-time transform: like [`EtaFile::ftran_eta`] but skipping
    /// zero lanes exactly as the arena path skips absent entries (so both
    /// representations transform bit-identically here) and recording
    /// fresh fill rows in `touched`.
    fn ftran_fill(&self, k: usize, scratch: &mut [f64], touched: &mut Vec<usize>) {
        let e = &self.etas[k];
        let t = scratch[e.r];
        if t != 0.0 {
            let t = t / e.wr;
            let mut apply = |i: usize, w: f64| {
                if scratch[i] == 0.0 {
                    touched.push(i);
                }
                scratch[i] -= w * t;
            };
            match &e.body {
                EtaBody::Sparse { start, end } => {
                    for (i, w) in self.rows[*start..*end].iter().zip(&self.vals[*start..*end]) {
                        apply(*i as usize, *w);
                    }
                }
                EtaBody::Dense {
                    first_block,
                    blocks,
                } => {
                    for (b, blk) in blocks.iter().enumerate() {
                        let base = (first_block + b) * 8;
                        for (lane, &w) in blk.0.iter().enumerate() {
                            if w != 0.0 {
                                apply(base + lane, w);
                            }
                        }
                    }
                }
            }
            scratch[e.r] = t;
        }
    }
}

/// A post-base update operator.
#[derive(Debug, Clone)]
enum Update {
    /// Pivot eta in basis-position space, indexing into the eta file.
    Eta(usize),
    /// `k` appended rows with slack pivots: `rows[k']` holds the appended
    /// row's coefficients on the *basis positions* `0..base` (sorted).
    Append { base: usize, rows: Vec<SparseCol> },
}

/// The basis factorization: base Gauss–Jordan product form plus pivot-eta
/// and append-block updates. See the module docs for the operator algebra
/// and the eta storage layout.
#[derive(Debug, Clone)]
pub(crate) struct Factor {
    /// Current basis dimension.
    dim: usize,
    /// Dimension covered by the base factorization.
    base_dim: usize,
    /// Base and pivot etas, in application order within each group.
    file: EtaFile,
    /// Number of base etas at the front of the file.
    n_base: usize,
    /// `perm[pos]` = pivot row of the base column at position `pos`.
    perm: Vec<usize>,
    updates: Vec<Update>,
    /// Pivot etas accumulated since the base was (re)built.
    pivot_etas: usize,
}

impl Factor {
    /// Factorizes the basis given as sparse columns (position order).
    /// Returns `None` when the basis is singular.
    pub fn build<C: AsRef<[(usize, f64)]>>(cols: &[C]) -> Option<Factor> {
        let dim = cols.len();
        let mut file = EtaFile::default();
        let mut perm = vec![usize::MAX; dim];
        let mut row_used = vec![false; dim];
        let mut scratch = vec![0.0; dim];
        let mut touched: Vec<usize> = Vec::new();

        // Singleton columns first (their etas are pure scalings and create
        // no fill), then the structural bump, both in ascending position
        // order — a fixed, deterministic elimination order.
        let mut order: Vec<usize> = (0..dim).filter(|&p| cols[p].as_ref().len() == 1).collect();
        order.extend((0..dim).filter(|&p| cols[p].as_ref().len() != 1));

        for &pos in &order {
            for &(i, v) in cols[pos].as_ref() {
                if scratch[i] == 0.0 {
                    touched.push(i);
                }
                scratch[i] += v;
            }
            // Transform by the etas recorded so far. Each eta only acts
            // when its pivot row is populated; new fill rows are tracked.
            for k in 0..file.len() {
                file.ftran_fill(k, &mut scratch, &mut touched);
            }
            // Pivot row: largest |value| among unused rows, smallest row
            // index on ties (order-independent, hence deterministic even
            // though `touched` is unordered).
            let mut pivot: Option<(usize, f64)> = None;
            for &i in &touched {
                let a = scratch[i].abs();
                if row_used[i] || a <= FACTOR_TOL {
                    continue;
                }
                let better = match pivot {
                    None => true,
                    Some((pi, pa)) => a > pa || (a == pa && i < pi),
                };
                if better {
                    pivot = Some((i, a));
                }
            }
            let Some((r, _)) = pivot else {
                return None; // singular
            };
            let wr = scratch[r];
            let mut w: Vec<(usize, f64)> = Vec::new();
            for &i in &touched {
                if i != r && scratch[i] != 0.0 {
                    w.push((i, scratch[i]));
                }
                scratch[i] = 0.0;
            }
            touched.clear();
            w.sort_unstable_by_key(|&(i, _)| i);
            row_used[r] = true;
            perm[pos] = r;
            file.push(r, wr, &w);
        }

        let n_base = file.len();
        Some(Factor {
            dim,
            base_dim: dim,
            file,
            n_base,
            perm,
            updates: Vec::new(),
            pivot_etas: 0,
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

    /// `true` once enough pivot etas have accumulated that a fresh
    /// factorization is cheaper (and numerically safer) than applying them.
    pub fn needs_refactor(&self) -> bool {
        self.pivot_etas >= ETA_REFRESH
    }

    /// Records a simplex basis change: the entering column's ftran image
    /// `w` (dense) replaces basis position `pos`.
    pub fn push_pivot(&mut self, pos: usize, w: &[f64]) {
        debug_assert_eq!(w.len(), self.dim);
        let mut col: Vec<(usize, f64)> = Vec::new();
        for (i, &v) in w.iter().enumerate() {
            if i != pos && v != 0.0 {
                col.push((i, v));
            }
        }
        self.file.push(pos, w[pos], &col);
        self.updates.push(Update::Eta(self.file.len() - 1));
        self.pivot_etas += 1;
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
        for k in 0..self.n_base {
            self.file.ftran_eta(k, v);
        }
        // Permutation extraction: x[pos] = v[perm[pos]].
        scratch.clear();
        scratch.extend_from_slice(&v[..self.base_dim]);
        for pos in 0..self.base_dim {
            v[pos] = scratch[self.perm[pos]];
        }
        for u in &self.updates {
            match u {
                Update::Eta(k) => self.file.ftran_eta(*k, v),
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
                Update::Eta(k) => self.file.btran_eta(*k, v),
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
        // Transposed extraction: scatter, then transposed etas in reverse.
        scratch.resize(self.base_dim, 0.0);
        for pos in 0..self.base_dim {
            scratch[self.perm[pos]] = v[pos];
        }
        for k in (0..self.n_base).rev() {
            self.file.btran_eta(k, scratch);
        }
        v[..self.base_dim].copy_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<SparseCol> {
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

    fn mat_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        let n = a.len();
        (0..n)
            .map(|j| (0..n).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn ftran_btran_invert_a_dense_basis() {
        let a: &[&[f64]] = &[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]];
        let f = Factor::build(&dense_cols(a)).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let mut scratch = Vec::new();

        let mut v = mat_vec(a, &x); // v = A x  =>  ftran(v) == x
        f.ftran(&mut v, &mut scratch);
        assert_close(&v, &x);

        let mut v = mat_t_vec(a, &x); // v = A' x  =>  btran(v) == x
        f.btran(&mut v, &mut scratch);
        assert_close(&v, &x);
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        assert!(Factor::build(&dense_cols(a)).is_none());
    }

    #[test]
    fn pivot_eta_tracks_a_column_replacement() {
        let a: &[&[f64]] = &[&[1.0, 1.0], &[0.0, 2.0]];
        let mut f = Factor::build(&dense_cols(a)).unwrap();
        let mut scratch = Vec::new();
        // Replace position 0 with column q = (3, 1)'.
        let mut w = vec![3.0, 1.0];
        f.ftran(&mut w, &mut scratch);
        f.push_pivot(0, &w);
        // New basis: [[3, 1], [1, 2]].
        let b2: &[&[f64]] = &[&[3.0, 1.0], &[1.0, 2.0]];
        let x = vec![0.5, -1.5];
        let mut v = mat_vec(b2, &x);
        f.ftran(&mut v, &mut scratch);
        assert_close(&v, &x);
        let mut v = mat_t_vec(b2, &x);
        f.btran(&mut v, &mut scratch);
        assert_close(&v, &x);
    }

    #[test]
    fn append_block_matches_the_block_inverse() {
        // B = [[2, 0], [1, 1]]; appended row contributes C = (5, 7) and a
        // unit slack, so B_new = [[B, 0], [C, 1]].
        let b0: &[&[f64]] = &[&[2.0, 0.0], &[1.0, 1.0]];
        let mut f = Factor::build(&dense_cols(b0)).unwrap();
        f.push_append(vec![vec![(0, 5.0), (1, 7.0)]]);
        assert_eq!(f.dim(), 3);
        let b1: &[&[f64]] = &[&[2.0, 0.0, 0.0], &[1.0, 1.0, 0.0], &[5.0, 7.0, 1.0]];
        let mut scratch = Vec::new();
        let x = vec![1.0, 2.0, -1.0];
        let mut v = mat_vec(b1, &x);
        f.ftran(&mut v, &mut scratch);
        assert_close(&v, &x);
        let mut v = mat_t_vec(b1, &x);
        f.btran(&mut v, &mut scratch);
        assert_close(&v, &x);
    }

    #[test]
    fn refactor_trigger_fires_after_enough_pivots() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let mut f = Factor::build(&dense_cols(a)).unwrap();
        assert!(!f.needs_refactor());
        for _ in 0..ETA_REFRESH {
            f.push_pivot(0, &[1.0, 0.0]);
        }
        assert!(f.needs_refactor());
        assert_eq!(f.eta_len(), ETA_REFRESH);
    }

    /// Deterministic value noise for the representation tests.
    fn noise(i: usize) -> f64 {
        1.0 + ((i * 37 + 11) % 97) as f64 / 13.0
    }

    #[test]
    fn dense_and_sparse_bodies_apply_identically() {
        // A high-fill column stored both ways must transform bit-for-bit
        // identically (no -0.0 inputs: lane zeros then subtract exactly
        // nothing). 45 of 48 rows filled, pivot at row 20.
        let dim = 48;
        let r = 20;
        let entries: Vec<(usize, f64)> = (0..dim)
            .filter(|&i| i != r && i % 16 != 3)
            .map(|i| (i, noise(i)))
            .collect();
        assert!(entries.len() >= DENSE_MIN_NNZ);
        let mut file = EtaFile::default();
        file.push_with_layout(r, 2.5, &entries, false);
        file.push_with_layout(r, 2.5, &entries, true);
        assert!(matches!(file.etas[0].body, EtaBody::Sparse { .. }));
        assert!(matches!(file.etas[1].body, EtaBody::Dense { .. }));

        let v0: Vec<f64> = (0..dim).map(|i| noise(i + 5) - 4.0).collect();
        let (mut a, mut b) = (v0.clone(), v0.clone());
        file.ftran_eta(0, &mut a);
        file.ftran_eta(1, &mut b);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "ftran diverged between representations"
        );
        let (mut a, mut b) = (v0.clone(), v0);
        file.btran_eta(0, &mut a);
        file.btran_eta(1, &mut b);
        for (x, y) in a.iter().zip(&b) {
            // btran accumulates lane-wise in the dense path; same result
            // to roundoff, not necessarily the same bits.
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn partial_tail_block_uses_the_safe_fallback() {
        // dim = 21 is not a multiple of 8: the dense column's last block
        // overhangs the vector, forcing the safe-indexing tail path. It
        // must agree with the arena representation of the same column.
        let dim = 21;
        let r = 0;
        let entries: Vec<(usize, f64)> = (1..dim).map(|i| (i, noise(i))).collect();
        let mut file = EtaFile::default();
        file.push_with_layout(r, -1.5, &entries, false);
        file.push_with_layout(r, -1.5, &entries, true);
        match &file.etas[1].body {
            EtaBody::Dense {
                first_block,
                blocks,
            } => {
                assert!(
                    first_block * 8 + blocks.len() * 8 > dim,
                    "tail must overhang"
                );
            }
            EtaBody::Sparse { .. } => panic!("expected a dense body"),
        }

        let v0: Vec<f64> = (0..dim).map(|i| noise(i + 2) - 3.0).collect();
        let (mut a, mut b) = (v0.clone(), v0.clone());
        file.ftran_eta(0, &mut a);
        file.ftran_eta(1, &mut b);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        let (mut a, mut b) = (v0.clone(), v0);
        file.btran_eta(0, &mut a);
        file.btran_eta(1, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn high_fill_pivot_columns_are_promoted_to_dense_blocks() {
        let dim = 64;
        let a: Vec<Vec<f64>> = (0..dim)
            .map(|i| (0..dim).map(|j| if i == j { 4.0 } else { 0.0 }).collect())
            .collect();
        let refs: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
        let mut f = Factor::build(&dense_cols(&refs)).unwrap();
        // A fully dense entering column must land in block storage.
        let w: Vec<f64> = (0..dim).map(|i| noise(i) / 4.0).collect();
        f.push_pivot(3, &w);
        let Update::Eta(k) = f.updates[0] else {
            panic!("expected a pivot eta");
        };
        assert!(matches!(f.file.etas[k].body, EtaBody::Dense { .. }));
    }
}
