//! Sparse **revised simplex**: a two-phase primal simplex with a dual
//! simplex repair for grown models, operating on the sparse column store
//! of [`crate::sparse::SparseForm`] with only the basis factorization
//! ([`crate::factor::Factor`]) in memory — no tableau.
//!
//! Per iteration the kernel performs one BTRAN (`y = B^{-T} c_B`), a
//! partial-pricing scan of candidate columns (`d_j = c_j - y·a_j` via
//! sparse dots), one FTRAN (`w = B^{-1} a_q`), the ratio test, and a
//! product-form eta update — `O(nnz)` work where a dense tableau pivot
//! pays `O(m · n)`. Pricing uses a cyclic candidate window with a
//! most-negative rule and smallest-index tie-break, falling back to
//! Bland's rule after a degenerate stall; every choice is a deterministic
//! function of the pivot history, so solves are bit-identical across
//! machines and thread counts.
//!
//! Counters (routed through the solver's [`Recorder`]): `lp.pivots`,
//! `lp.dual_pivots`, `lp.priced_columns`, `lp.refactorizations`,
//! `lp.eta_len` (high-water update-list length), `lp.solves`,
//! `lp.resolves`, `lp.peak_pivots`, `lp.degenerate_pivots`,
//! `lp.bland_activations`, `lp.iteration_limit_hits`, and the
//! `lp.limit_fraction` gauge.

// Index-based loops are the natural idiom for the dense work vectors here.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;
use std::time::Instant;

use lubt_obs::Recorder;

use crate::certificate::{CertSeed, Certificate, ColumnRole};
use crate::factor::Factor;
use crate::model::{Cmp, LinExpr, Model};
use crate::sparse::SparseForm;
use crate::{LpError, LpSolve, Solution, Status};

const PIVOT_TOL: f64 = 1e-9;
/// Slack on the minimum-ratio cutoff in the two-pass (Harris-style) ratio
/// tests: among rows whose ratio lands within this band of the minimum, the
/// largest pivot element wins. Pivoting on the biggest eligible element keeps
/// the eta file trustworthy at scale, where a bare `PIVOT_TOL` acceptance can
/// select noise-level entries and silently drive the basis singular.
const RATIO_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;
/// Minimum partial-pricing window (columns priced per entering choice).
const PRICE_WINDOW_MIN: usize = 64;
/// Minimum column count before the pricing and dual-candidate scans fan
/// out to assisted claiming; below this the scoped-helper setup dwarfs
/// the scan itself.
const PAR_SCAN_MIN: usize = 128;

/// Opaque warm-start token: the optimal basis of a previous solve, reusable
/// after the model has *grown* (same variables, rows only appended — the
/// lazy-separation pattern of the EBF).
///
/// Obtained from [`RevisedSolver::solve_warm`]; feeding it back turns the
/// re-solve into a **dual simplex** run that starts from the old optimum
/// and only repairs the newly violated rows.
#[derive(Debug, Clone)]
pub struct WarmStart {
    pub(crate) basis: Vec<usize>,
    pub(crate) num_vars: usize,
    pub(crate) num_rows: usize,
}

/// Nanoseconds since `t0`, saturating.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall clock and hit count of one simplex phase, aggregated locally in
/// the inner loop so the profiling span costs one recorder call per
/// phase run — never one per pivot.
#[derive(Default, Clone, Copy)]
struct PhaseAgg {
    pub hits: u64,
    pub ns: u64,
}

impl PhaseAgg {
    /// Times `f` when `on`, adding one hit and the elapsed nanoseconds.
    pub fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.hits += 1;
        self.ns = self.ns.saturating_add(elapsed_ns(t0));
        out
    }
}

/// Outcome of a dual-then-primal re-optimization, carrying the certifying
/// row position on infeasibility so incremental sessions can seed a
/// [`CertSeed::DualRow`] Farkas certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReoptOutcome {
    Optimal,
    Unbounded,
    Infeasible { row: usize },
}

/// Sparse revised-simplex solver over the [`Model`]/[`Solution`] surface
/// shared with the interior-point backend.
///
/// # Example
///
/// ```
/// use lubt_lp::{Cmp, LinExpr, LpSolve, Model, RevisedSolver, Status};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 2.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
/// let sol = RevisedSolver::new().solve(&m)?;
/// assert_eq!(sol.status(), Status::Optimal);
/// assert!((sol.objective() - 3.0).abs() < 1e-7);
/// # Ok::<(), lubt_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RevisedSolver {
    max_iterations: usize,
    stall_limit: usize,
    threads: usize,
    recorder: Arc<dyn Recorder>,
}

impl Default for RevisedSolver {
    fn default() -> Self {
        RevisedSolver {
            max_iterations: 200_000,
            stall_limit: 1_000,
            threads: 1,
            recorder: lubt_obs::noop(),
        }
    }
}

impl RevisedSolver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the hard pivot limit (default 200 000).
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the number of consecutive non-improving pivots tolerated before
    /// switching to Bland's rule (default 1 000).
    #[must_use]
    pub fn with_stall_limit(mut self, stall_limit: usize) -> Self {
        self.stall_limit = stall_limit;
        self
    }

    /// Routes `lp.*` instrumentation into `recorder` (default: no-op).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Fans the intra-solve hot loops — the cyclic partial-pricing window
    /// and the dual-ratio candidate scan — out to `threads` participants
    /// under assisted claiming (`0` = one per core, default `1` = the
    /// exact sequential path). The solve output is **bit-identical for
    /// every thread count**: the parallel scans reproduce the serial
    /// entering choice, cursor advance, and `lp.priced_columns` tally
    /// exactly.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub(crate) fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    pub(crate) fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    fn note_solve(&self, iterations: usize) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.incr("lp.solves", 1);
        self.recorder
            .record_max("lp.peak_pivots", iterations as u64);
        self.recorder.gauge(
            "lp.limit_fraction",
            iterations as f64 / self.max_iterations.max(1) as f64,
        );
    }

    /// Solves, optionally starting from a previous optimal basis. A token
    /// from an earlier solve of a model that has since only *grown*
    /// (rows appended) turns the re-solve into a dual simplex repair from
    /// the old optimum; a stale or noisy token falls back to a cold solve.
    ///
    /// # Errors
    ///
    /// Same contract as [`LpSolve::solve`].
    pub fn solve_warm(
        &self,
        model: &Model,
        warm: Option<&WarmStart>,
    ) -> Result<(Solution, Option<WarmStart>), LpError> {
        if let Some(w) = warm {
            model.validate()?;
            let sf = SparseForm::build(model);
            if let Some(result) = self.try_warm(model, sf, w)? {
                return Ok(result);
            }
        }
        self.solve_full(model).map(|(s, w, _, _)| (s, w))
    }

    /// Attempts the warm path; `Ok(None)` means "fall back to cold".
    fn try_warm(
        &self,
        model: &Model,
        sf: SparseForm,
        warm: &WarmStart,
    ) -> Result<Option<(Solution, Option<WarmStart>)>, LpError> {
        if warm.num_vars != model.num_vars() || warm.num_rows > sf.m || sf.m == 0 {
            return Ok(None);
        }
        let mut basis = warm.basis.clone();
        if basis.len() != warm.num_rows || basis.iter().any(|&c| c >= sf.n) {
            return Ok(None);
        }
        for i in warm.num_rows..sf.m {
            let sc = sf.slack_col[i];
            if sc == usize::MAX {
                return Ok(None); // appended equality row: no slack to seed
            }
            basis.push(sc);
        }
        let Some(mut kernel) = Kernel::from_basis(sf, basis) else {
            return Ok(None); // singular basis
        };
        kernel.threads = lubt_par::resolve_threads(self.threads);
        // Verify dual feasibility of the token's basis; noisy tokens fall
        // back to a cold solve.
        let dual_tol = 1e-7 * (1.0 + kernel.sf.c.iter().fold(0.0f64, |a, &c| a.max(c.abs())));
        let y = kernel.duals(false);
        for j in 0..kernel.sf.n {
            if kernel.cost(j, false) - kernel.dot_col(j, &y) < -dual_tol {
                return Ok(None);
            }
        }

        let mut iters = 0usize;
        match kernel.dual_then_primal(
            &mut iters,
            self.max_iterations,
            self.stall_limit,
            &*self.recorder,
        )? {
            ReoptOutcome::Infeasible { .. } => {
                self.note_solve(iters);
                return Ok(Some((Solution::infeasible(model.num_vars(), iters), None)));
            }
            ReoptOutcome::Unbounded => {
                self.note_solve(iters);
                return Ok(Some((Solution::unbounded(model.num_vars(), iters), None)));
            }
            ReoptOutcome::Optimal => {}
        }
        let (x, objective, duals) = kernel.extract(model);
        let next = WarmStart {
            basis: kernel.basis.clone(),
            num_vars: model.num_vars(),
            num_rows: kernel.sf.m,
        };
        self.note_solve(iters);
        Ok(Some((
            Solution::new(Status::Optimal, x, objective, duals, iters),
            Some(next),
        )))
    }

    /// Like [`LpSolve::solve`], additionally materializing the certificate
    /// of the outcome: optimality duals when optimal, a Farkas ray when
    /// infeasible, `None` when unbounded or the basis cannot be factorized.
    ///
    /// # Errors
    ///
    /// Same contract as [`LpSolve::solve`].
    pub fn solve_certified(
        &self,
        model: &Model,
    ) -> Result<(Solution, Option<Certificate>), LpError> {
        let (solution, _, _, seed) = self.solve_full(model)?;
        let cert = seed
            .as_ref()
            .and_then(|s| crate::certificate::compute(model, s));
        Ok((solution, cert))
    }

    /// Like [`LpSolve::solve`], additionally handing back the live kernel
    /// for incremental growth (see [`RevisedSession`]).
    #[allow(clippy::type_complexity)]
    fn solve_keeping_kernel(
        &self,
        model: &Model,
    ) -> Result<(Solution, Option<Kernel>, Option<CertSeed>), LpError> {
        self.solve_full(model).map(|(s, _, k, seed)| (s, k, seed))
    }

    #[allow(clippy::type_complexity)]
    fn solve_full(
        &self,
        model: &Model,
    ) -> Result<
        (
            Solution,
            Option<WarmStart>,
            Option<Kernel>,
            Option<CertSeed>,
        ),
        LpError,
    > {
        model.validate()?;
        let sf = SparseForm::build(model);
        let m = sf.m;

        // Constraint-free models: every variable sits at its lower bound
        // unless a negative cost makes the LP unbounded.
        if m == 0 {
            if model.costs.iter().any(|&c| c < -COST_TOL) {
                return Ok((Solution::unbounded(model.num_vars(), 0), None, None, None));
            }
            let x = sf.recover(&vec![0.0; sf.n]);
            let obj = model.objective_value(&x);
            let kernel = Kernel::from_basis(sf, Vec::new()).expect("empty basis is nonsingular");
            return Ok((
                Solution::new(Status::Optimal, x, obj, Some(vec![]), 0),
                None,
                Some(kernel),
                Some(CertSeed::Optimal(Vec::new())),
            ));
        }

        // Seed the basis with usable (+1) slacks, artificials elsewhere.
        let mut basis = Vec::with_capacity(m);
        let mut art_rows = Vec::new();
        for i in 0..m {
            let sc = sf.slack_col[i];
            let usable = sc != usize::MAX && (sf.at(i, sc) - 1.0).abs() < 1e-12;
            if usable {
                basis.push(sc);
            } else {
                basis.push(sf.n + art_rows.len());
                art_rows.push(i);
            }
        }
        let n_art = art_rows.len();
        let mut kernel = Kernel::from_parts(sf, basis, art_rows)
            .ok_or_else(|| LpError::NumericalBreakdown("singular seed basis".to_string()))?;
        kernel.threads = lubt_par::resolve_threads(self.threads);

        let mut iters = 0usize;
        let rec = &*self.recorder;

        // ---- Phase 1: minimize the artificial sum. ----
        if n_art > 0 {
            match kernel.primal(true, &mut iters, self.max_iterations, self.stall_limit, rec)? {
                PhaseOutcome::Optimal => {}
                PhaseOutcome::Unbounded => {
                    // Phase-1 objective is bounded below by 0; cannot happen.
                    return Err(LpError::NumericalBreakdown("phase-1 unbounded".to_string()));
                }
            }
            let feas_tol = 1e-7 * (1.0 + kernel.sf.b.iter().cloned().fold(0.0, f64::max));
            if kernel.objective(true) > feas_tol {
                self.note_solve(iters);
                let seed = CertSeed::Phase1(kernel.roles());
                return Ok((
                    Solution::infeasible(model.num_vars(), iters),
                    None,
                    None,
                    Some(seed),
                ));
            }
            kernel.drive_out_artificials(rec)?;
        }

        // ---- Phase 2: true objective. ----
        match kernel.primal(
            false,
            &mut iters,
            self.max_iterations,
            self.stall_limit,
            rec,
        )? {
            PhaseOutcome::Unbounded => {
                self.note_solve(iters);
                Ok((
                    Solution::unbounded(model.num_vars(), iters),
                    None,
                    None,
                    None,
                ))
            }
            PhaseOutcome::Optimal => {
                let (x, objective, duals) = kernel.extract(model);
                let warm = kernel
                    .basis
                    .iter()
                    .all(|&c| c < kernel.sf.n)
                    .then(|| WarmStart {
                        basis: kernel.basis.clone(),
                        num_vars: model.num_vars(),
                        num_rows: kernel.sf.m,
                    });
                self.note_solve(iters);
                let seed = CertSeed::Optimal(kernel.roles());
                Ok((
                    Solution::new(Status::Optimal, x, objective, duals, iters),
                    warm,
                    Some(kernel),
                    Some(seed),
                ))
            }
        }
    }
}

impl LpSolve for RevisedSolver {
    fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        self.solve_full(model).map(|(s, _, _, _)| s)
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
}

enum DualOutcome {
    PrimalFeasible,
    Infeasible { row: usize },
}

/// The live revised-simplex state: sparse form, basis, factorization,
/// basic values, and the partial-pricing cursor.
struct Kernel {
    sf: SparseForm,
    basis: Vec<usize>,
    /// Row of each artificial column (`sf.n + t` ↦ `art_rows[t]`).
    art_rows: Vec<usize>,
    /// `in_basis[j]` ⟺ structural/slack column `j` is basic. Membership is
    /// tracked explicitly because at scale the reduced cost of a basic
    /// column computed through a long eta file is noise, not an exact
    /// zero — pricing one back in would duplicate a basis column and make
    /// the next refactorization singular.
    in_basis: Vec<bool>,
    factor: Factor,
    x_b: Vec<f64>,
    cursor: usize,
    scratch: Vec<f64>,
    /// Participants for the assisted pricing/candidate scans (resolved;
    /// `1` = exact sequential path).
    threads: usize,
}

impl Kernel {
    fn from_basis(sf: SparseForm, basis: Vec<usize>) -> Option<Kernel> {
        Kernel::from_parts(sf, basis, Vec::new())
    }

    fn from_parts(sf: SparseForm, basis: Vec<usize>, art_rows: Vec<usize>) -> Option<Kernel> {
        let mut in_basis = vec![false; sf.n];
        for &j in &basis {
            if j < sf.n {
                in_basis[j] = true;
            }
        }
        let mut kernel = Kernel {
            sf,
            basis,
            art_rows,
            in_basis,
            factor: Factor::build::<Vec<(usize, f64)>>(&[]).expect("empty factor"),
            x_b: Vec::new(),
            cursor: 0,
            scratch: Vec::new(),
            threads: 1,
        };
        kernel.rebuild_factor().ok()?;
        Some(kernel)
    }

    /// Total columns: structural + slack + artificial.
    fn n_total(&self) -> usize {
        self.sf.n + self.art_rows.len()
    }

    /// Artificials and columns that are already basic never enter.
    fn enterable(&self, j: usize) -> bool {
        j < self.sf.n && !self.in_basis[j]
    }

    fn cost(&self, j: usize, phase1: bool) -> f64 {
        if phase1 {
            if j >= self.sf.n {
                1.0
            } else {
                0.0
            }
        } else if j >= self.sf.n {
            0.0
        } else {
            self.sf.c[j]
        }
    }

    /// Objective of the current basic solution under the phase costs.
    fn objective(&self, phase1: bool) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .map(|(&j, &x)| self.cost(j, phase1) * x)
            .sum()
    }

    /// Dense image of column `j` (length `m`).
    fn dense_col(&self, j: usize) -> Vec<f64> {
        let mut v = vec![0.0; self.sf.m];
        if j < self.sf.n {
            for &(i, c) in &self.sf.cols[j] {
                v[i] = c;
            }
        } else {
            v[self.art_rows[j - self.sf.n]] = 1.0;
        }
        v
    }

    /// Sparse dot `y · a_j`.
    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.sf.n {
            self.sf.cols[j].iter().map(|&(i, c)| c * y[i]).sum()
        } else {
            y[self.art_rows[j - self.sf.n]]
        }
    }

    /// Simplex multipliers `y = B^{-T} c_B` under the phase costs.
    fn duals(&mut self, phase1: bool) -> Vec<f64> {
        let mut y = vec![0.0; self.sf.m];
        for (pos, &j) in self.basis.iter().enumerate() {
            y[pos] = self.cost(j, phase1);
        }
        self.factor.btran(&mut y, &mut self.scratch);
        y
    }

    /// Rebuilds the factorization from the current basis columns and
    /// recomputes the basic values from scratch.
    fn rebuild_factor(&mut self) -> Result<(), LpError> {
        let cols: Vec<Vec<(usize, f64)>> = self
            .basis
            .iter()
            .map(|&j| {
                if j < self.sf.n {
                    self.sf.cols[j].clone()
                } else {
                    vec![(self.art_rows[j - self.sf.n], 1.0)]
                }
            })
            .collect();
        self.factor = Factor::build(&cols)
            .ok_or_else(|| LpError::NumericalBreakdown("singular basis".to_string()))?;
        self.x_b = self.sf.b.clone();
        let mut x = std::mem::take(&mut self.x_b);
        self.factor.ftran(&mut x, &mut self.scratch);
        self.x_b = x;
        Ok(())
    }

    /// Executes the basis change `basis[pos] <- enter` given the entering
    /// column's ftran image `w`, refactorizing when the eta file is long.
    fn pivot(
        &mut self,
        pos: usize,
        enter: usize,
        w: &[f64],
        rec: &dyn Recorder,
    ) -> Result<(), LpError> {
        let profiling = rec.enabled();
        let t0 = profiling.then(std::time::Instant::now);
        let t = self.x_b[pos] / w[pos];
        for i in 0..self.sf.m {
            if i != pos && w[i] != 0.0 {
                self.x_b[i] -= w[i] * t;
            }
        }
        self.x_b[pos] = t;
        self.factor.push_pivot(pos, w);
        debug_assert!(enter < self.sf.n, "artificials never enter");
        let leaving = self.basis[pos];
        if leaving < self.sf.n {
            self.in_basis[leaving] = false;
        }
        self.in_basis[enter] = true;
        self.basis[pos] = enter;
        if let Some(t0) = t0 {
            rec.record_max("lp.eta_len", self.factor.eta_len() as u64);
            rec.span_record("eta_apply", 1, elapsed_ns(t0));
        }
        if self.factor.needs_refactor() {
            let t1 = profiling.then(std::time::Instant::now);
            self.rebuild_factor()?;
            if let Some(t1) = t1 {
                rec.incr("lp.refactorizations", 1);
                rec.span_record("refactor", 1, elapsed_ns(t1));
            }
        }
        Ok(())
    }

    /// Entering column under partial pricing (or Bland's rule), pricing
    /// `d_j = c_j - y·a_j` by sparse dots. Returns `None` at optimality.
    fn price(&mut self, y: &[f64], phase1: bool, bland: bool, rec: &dyn Recorder) -> Option<usize> {
        let n_t = self.n_total();
        if !bland && self.threads > 1 && n_t >= PAR_SCAN_MIN {
            return self.price_assisted(y, phase1, rec);
        }
        let mut priced = 0u64;
        let chosen = if bland {
            let mut found = None;
            for j in 0..n_t {
                if !self.enterable(j) {
                    continue;
                }
                priced += 1;
                if self.cost(j, phase1) - self.dot_col(j, y) < -COST_TOL {
                    found = Some(j);
                    break;
                }
            }
            found
        } else {
            // Cyclic candidate window: price at least `window` columns
            // starting at the cursor, keep going until one is eligible (or
            // the whole cycle is exhausted), take the most negative with a
            // smallest-index tie-break.
            let window = (n_t / 8).max(PRICE_WINDOW_MIN);
            let mut best: Option<(usize, f64)> = None;
            let mut j = if n_t == 0 { 0 } else { self.cursor % n_t };
            for step in 0..n_t {
                if self.enterable(j) {
                    priced += 1;
                    let d = self.cost(j, phase1) - self.dot_col(j, y);
                    if d < -COST_TOL {
                        let better = match best {
                            None => true,
                            Some((bj, bd)) => d < bd || (d == bd && j < bj),
                        };
                        if better {
                            best = Some((j, d));
                        }
                    }
                }
                j = if j + 1 == n_t { 0 } else { j + 1 };
                if step + 1 >= window && best.is_some() {
                    break;
                }
            }
            self.cursor = j;
            best.map(|(j, _)| j)
        };
        if rec.enabled() {
            rec.incr("lp.priced_columns", priced);
        }
        chosen
    }

    /// [`Kernel::price`]'s cyclic window scanned by assisted claiming
    /// (DESIGN.md §17), reproducing the serial scan *exactly* — the same
    /// entering column, the same cursor advance, the same
    /// `lp.priced_columns` tally — for every thread count.
    ///
    /// Phase A prices exactly the first `min(window, n_t)` cyclic steps:
    /// precisely the columns the serial loop prices whenever the window
    /// holds any candidate (it breaks at `step + 1 >= window` once `best`
    /// is set, and cannot break earlier). Per-block argmins merge
    /// most-negative-first with a lowest-index tie-break, which is
    /// order-independent, so block boundaries cannot matter. If the
    /// window came up empty, the serial loop degenerates to "first
    /// candidate after the window wins": phase B scans the remaining
    /// steps in blocks, each block stopping at its own first candidate,
    /// and the ascending-block fold keeps the earliest block's hit — the
    /// serial choice — while summing the pricing tallies of every block
    /// up to and including it (later blocks ran speculatively; their
    /// tallies are discarded exactly as the serial loop never scans
    /// them).
    fn price_assisted(&mut self, y: &[f64], phase1: bool, rec: &dyn Recorder) -> Option<usize> {
        let n_t = self.n_total();
        let window = (n_t / 8).max(PRICE_WINDOW_MIN);
        let start = self.cursor % n_t;
        let head_len = window.min(n_t);
        let threads = self.threads;
        let this: &Kernel = self;
        let wrap = |step: usize| {
            let j = start + step;
            if j >= n_t {
                j - n_t
            } else {
                j
            }
        };
        let grain = (head_len / (threads * 4)).max(32);
        let (best, mut priced) = lubt_par::assist_reduce_traced(
            threads,
            head_len,
            grain,
            rec,
            |range| {
                let mut best: Option<(usize, f64)> = None;
                let mut priced = 0u64;
                for step in range {
                    let j = wrap(step);
                    if this.enterable(j) {
                        priced += 1;
                        let d = this.cost(j, phase1) - this.dot_col(j, y);
                        if d < -COST_TOL {
                            let better = match best {
                                None => true,
                                Some((bj, bd)) => d < bd || (d == bd && j < bj),
                            };
                            if better {
                                best = Some((j, d));
                            }
                        }
                    }
                }
                (best, priced)
            },
            |(a, ap), (b, bp)| {
                let merged = match (a, b) {
                    (Some((aj, ad)), Some((bj, bd))) => {
                        if bd < ad || (bd == ad && bj < aj) {
                            Some((bj, bd))
                        } else {
                            Some((aj, ad))
                        }
                    }
                    (a, None) => a,
                    (None, b) => b,
                };
                (merged, ap + bp)
            },
        )
        .unwrap_or((None, 0));
        let mut chosen = best.map(|(j, _)| j);
        let mut steps_scanned = head_len;
        if chosen.is_none() && head_len < n_t {
            let tail_len = n_t - head_len;
            let grain = (tail_len / (threads * 4)).max(64);
            let (hit, tail_priced) = lubt_par::assist_reduce_traced(
                threads,
                tail_len,
                grain,
                rec,
                |range| {
                    let mut priced = 0u64;
                    let mut hit: Option<(usize, usize)> = None; // (step, column)
                    for off in range {
                        let step = head_len + off;
                        let j = wrap(step);
                        if this.enterable(j) {
                            priced += 1;
                            if this.cost(j, phase1) - this.dot_col(j, y) < -COST_TOL {
                                hit = Some((step, j));
                                break;
                            }
                        }
                    }
                    (hit, priced)
                },
                |acc, next| {
                    if acc.0.is_some() {
                        acc
                    } else {
                        (next.0, acc.1 + next.1)
                    }
                },
            )
            .expect("tail has at least one block");
            priced += tail_priced;
            match hit {
                Some((step, j)) => {
                    chosen = Some(j);
                    steps_scanned = step + 1;
                }
                None => steps_scanned = n_t,
            }
        }
        self.cursor = wrap(steps_scanned);
        if rec.enabled() {
            rec.incr("lp.priced_columns", priced);
        }
        chosen
    }

    /// Candidate build for the dual ratio test: `(column, row entry,
    /// dual ratio)` per eligible column, in ascending column order. Fans
    /// out to assisted claiming when the column range is wide enough;
    /// ascending-block concatenation makes the parallel vector
    /// bit-identical to the serial one.
    fn dual_candidates(
        &self,
        rho: &[f64],
        y: &[f64],
        rec: &dyn Recorder,
    ) -> Vec<(usize, f64, f64)> {
        let n_t = self.n_total();
        let fill = |j: usize, out: &mut Vec<(usize, f64, f64)>| {
            if !self.enterable(j) {
                return;
            }
            let a = self.dot_col(j, rho);
            if a < -PIVOT_TOL {
                let d = self.cost(j, false) - self.dot_col(j, y);
                out.push((j, a, d / (-a)));
            }
        };
        if self.threads > 1 && n_t >= PAR_SCAN_MIN {
            let grain = (n_t / (self.threads * 4)).max(64);
            lubt_par::assist_flat_map_traced(self.threads, n_t, grain, rec, fill)
        } else {
            let mut cands = Vec::new();
            for j in 0..n_t {
                fill(j, &mut cands);
            }
            cands
        }
    }

    /// Leaving position by a two-pass minimum-ratio test: the first pass
    /// finds the minimum ratio, the second admits rows within `RATIO_TOL` of
    /// it and takes the largest pivot element (smallest basis column on
    /// exact magnitude ties, keeping the sequence deterministic).
    fn choose_leaving(&self, w: &[f64]) -> Option<usize> {
        let mut theta = f64::INFINITY;
        for i in 0..self.sf.m {
            if w[i] > PIVOT_TOL {
                theta = theta.min(self.x_b[i] / w[i]);
            }
        }
        if theta == f64::INFINITY {
            return None;
        }
        let cutoff = theta + RATIO_TOL * (1.0 + theta.abs());
        let mut best: Option<usize> = None;
        for i in 0..self.sf.m {
            let a = w[i];
            if a > PIVOT_TOL && self.x_b[i] / a <= cutoff {
                let better = match best {
                    None => true,
                    Some(bi) => a > w[bi] || (a == w[bi] && self.basis[i] < self.basis[bi]),
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// Primal simplex loop under the phase costs.
    fn primal(
        &mut self,
        phase1: bool,
        iters: &mut usize,
        max_iterations: usize,
        stall_limit: usize,
        rec: &dyn Recorder,
    ) -> Result<PhaseOutcome, LpError> {
        let start = *iters;
        let mut degenerate = 0u64;
        let mut activations = 0u64;
        // Span phases aggregate locally — one recorder call per phase per
        // `primal` invocation, nothing per pivot beyond what `pivot`
        // itself records. All timing work is behind the `enabled()`
        // pre-check.
        let profiling = rec.enabled();
        let mut pricing = PhaseAgg::default();
        let mut ratio = PhaseAgg::default();
        let mut ftran_ns = 0u64;
        let out = (|| {
            let mut bland = false;
            let mut stall = 0usize;
            let mut last_obj = f64::INFINITY;
            loop {
                if *iters >= max_iterations {
                    return Err(LpError::IterationLimit {
                        limit: max_iterations,
                    });
                }
                let chosen = pricing.time(profiling, || {
                    let y = self.duals(phase1);
                    self.price(&y, phase1, bland, rec)
                });
                let Some(enter) = chosen else {
                    return Ok(PhaseOutcome::Optimal);
                };
                let tf = profiling.then(std::time::Instant::now);
                let mut w = self.dense_col(enter);
                let mut scratch = std::mem::take(&mut self.scratch);
                self.factor.ftran(&mut w, &mut scratch);
                self.scratch = scratch;
                if let Some(tf) = tf {
                    ftran_ns = ftran_ns.saturating_add(elapsed_ns(tf));
                }
                let Some(pos) = ratio.time(profiling, || self.choose_leaving(&w)) else {
                    return Ok(PhaseOutcome::Unbounded);
                };
                self.pivot(pos, enter, &w, rec)?;
                *iters += 1;
                let obj = self.objective(phase1);
                if obj < last_obj - 1e-12 {
                    stall = 0;
                    last_obj = obj;
                } else {
                    degenerate += 1;
                    stall += 1;
                    if stall > stall_limit && !bland {
                        bland = true;
                        activations += 1;
                    }
                }
            }
        })();
        if rec.enabled() {
            rec.incr("lp.pivots", (*iters - start) as u64);
            rec.incr("lp.degenerate_pivots", degenerate);
            rec.incr("lp.bland_activations", activations);
            if out.is_err() {
                rec.incr("lp.iteration_limit_hits", 1);
            }
            rec.span_record("pricing", pricing.hits, pricing.ns);
            rec.span_record("ratio_test", ratio.hits, ratio.ns);
            // The entering-column FTRAN is eta-file application work; its
            // hit count is already carried by `pivot`'s per-pivot record.
            rec.span_record("eta_apply", 0, ftran_ns);
        }
        out
    }

    /// Dual simplex from a dual-feasible basis with possibly negative
    /// basic values: pivots until the basis is primal feasible (optimal)
    /// or a row certifies an empty feasible region.
    fn dual(
        &mut self,
        iters: &mut usize,
        max_iterations: usize,
        rec: &dyn Recorder,
    ) -> Result<DualOutcome, LpError> {
        let start = *iters;
        let mut activations = 0u64;
        let profiling = rec.enabled();
        let mut pricing = PhaseAgg::default();
        let mut ratio = PhaseAgg::default();
        let mut ftran_ns = 0u64;
        let out = (|| {
            let feas_tol = {
                let max_b = self.x_b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                1e-7 * (1.0 + max_b)
            };
            let mut bland = false;
            let mut stall = 0usize;
            loop {
                if *iters >= max_iterations {
                    return Err(LpError::IterationLimit {
                        limit: max_iterations,
                    });
                }
                // Leaving row: most negative basic value (Bland: smallest
                // basis column index).
                let mut leave: Option<(usize, f64)> = None;
                for i in 0..self.sf.m {
                    let v = self.x_b[i];
                    if v < -feas_tol {
                        let better = match leave {
                            None => true,
                            Some((li, lv)) => {
                                if bland {
                                    self.basis[i] < self.basis[li]
                                } else {
                                    v < lv
                                }
                            }
                        };
                        if better {
                            leave = Some((i, v));
                        }
                    }
                }
                let Some((pos, _)) = leave else {
                    return Ok(DualOutcome::PrimalFeasible);
                };
                // Row pos of B^{-1}A via one BTRAN of e_pos, then the dual
                // ratio test over negative entries. The BTRAN plus the
                // reduced-cost scan is the dual analogue of pricing.
                let cands = pricing.time(profiling, || {
                    let mut rho = vec![0.0; self.sf.m];
                    rho[pos] = 1.0;
                    let mut scratch = std::mem::take(&mut self.scratch);
                    self.factor.btran(&mut rho, &mut scratch);
                    self.scratch = scratch;
                    let y = self.duals(false);
                    self.dual_candidates(&rho, &y, rec)
                });
                let tr = profiling.then(std::time::Instant::now);
                let enter = if bland {
                    let mut best: Option<(usize, f64)> = None;
                    for &(j, _, ratio) in &cands {
                        let better = match best {
                            None => true,
                            Some((ej, er)) => {
                                ratio < er - 1e-12 || ((ratio - er).abs() <= 1e-12 && j < ej)
                            }
                        };
                        if better {
                            best = Some((j, ratio));
                        }
                    }
                    best.map(|(j, _)| j)
                } else {
                    // Two-pass test mirroring `choose_leaving`: largest
                    // magnitude among ratios within `RATIO_TOL` of the
                    // minimum, smallest column on exact ties.
                    let theta = cands.iter().fold(f64::INFINITY, |t, c| t.min(c.2));
                    let cutoff = theta + RATIO_TOL * (1.0 + theta.abs());
                    let mut best: Option<(usize, f64)> = None;
                    for &(j, a, ratio) in &cands {
                        if ratio <= cutoff {
                            let better = match best {
                                None => true,
                                Some((ej, ea)) => a < ea || (a == ea && j < ej),
                            };
                            if better {
                                best = Some((j, a));
                            }
                        }
                    }
                    best.map(|(j, _)| j)
                };
                if let Some(tr) = tr {
                    ratio.hits += 1;
                    ratio.ns = ratio.ns.saturating_add(elapsed_ns(tr));
                }
                let Some(enter) = enter else {
                    // Row reads `(non-negative combination) = negative`:
                    // empty feasible region.
                    return Ok(DualOutcome::Infeasible { row: pos });
                };
                let tf = profiling.then(std::time::Instant::now);
                let mut w = self.dense_col(enter);
                let mut scratch = std::mem::take(&mut self.scratch);
                self.factor.ftran(&mut w, &mut scratch);
                self.scratch = scratch;
                if let Some(tf) = tf {
                    ftran_ns = ftran_ns.saturating_add(elapsed_ns(tf));
                }
                self.pivot(pos, enter, &w, rec)?;
                *iters += 1;
                stall += 1;
                if stall > 1_000 && !bland {
                    bland = true;
                    activations += 1;
                }
            }
        })();
        if rec.enabled() {
            rec.incr("lp.dual_pivots", (*iters - start) as u64);
            rec.incr("lp.bland_activations", activations);
            if out.is_err() {
                rec.incr("lp.iteration_limit_hits", 1);
            }
            rec.span_record("pricing", pricing.hits, pricing.ns);
            rec.span_record("ratio_test", ratio.hits, ratio.ns);
            rec.span_record("eta_apply", 0, ftran_ns);
        }
        out
    }

    /// Dual repair followed by a primal clean-up — the warm/incremental
    /// re-optimization.
    fn dual_then_primal(
        &mut self,
        iters: &mut usize,
        max_iterations: usize,
        stall_limit: usize,
        rec: &dyn Recorder,
    ) -> Result<ReoptOutcome, LpError> {
        match self.dual(iters, max_iterations, rec)? {
            DualOutcome::Infeasible { row } => return Ok(ReoptOutcome::Infeasible { row }),
            DualOutcome::PrimalFeasible => {}
        }
        match self.primal(false, iters, max_iterations, stall_limit, rec)? {
            PhaseOutcome::Unbounded => Ok(ReoptOutcome::Unbounded),
            PhaseOutcome::Optimal => Ok(ReoptOutcome::Optimal),
        }
    }

    /// Role of every current basis column, stated over the original model
    /// (the sparse slack→row map covers appended rows as well).
    fn roles(&self) -> Vec<ColumnRole> {
        let mut row_of_slack = vec![usize::MAX; self.sf.n];
        for (i, &sc) in self.sf.slack_col.iter().enumerate() {
            if sc != usize::MAX {
                row_of_slack[sc] = i;
            }
        }
        self.basis
            .iter()
            .map(|&j| {
                if j < self.sf.n_orig {
                    ColumnRole::Structural(j)
                } else if j < self.sf.n {
                    ColumnRole::Slack(row_of_slack[j])
                } else {
                    ColumnRole::Artificial(self.art_rows[j - self.sf.n])
                }
            })
            .collect()
    }

    /// Pivots residual artificials out of the basis where a structural
    /// column is available (degenerate pivots); redundant rows keep their
    /// zero-valued artificial, which stays barred from re-entering.
    fn drive_out_artificials(&mut self, rec: &dyn Recorder) -> Result<(), LpError> {
        for pos in 0..self.sf.m {
            if self.basis[pos] < self.sf.n {
                continue;
            }
            let mut rho = vec![0.0; self.sf.m];
            rho[pos] = 1.0;
            let mut scratch = std::mem::take(&mut self.scratch);
            self.factor.btran(&mut rho, &mut scratch);
            self.scratch = scratch;
            let replacement =
                (0..self.sf.n).find(|&j| self.enterable(j) && self.dot_col(j, &rho).abs() > 1e-7);
            if let Some(j) = replacement {
                let mut w = self.dense_col(j);
                let mut scratch = std::mem::take(&mut self.scratch);
                self.factor.ftran(&mut w, &mut scratch);
                self.scratch = scratch;
                self.pivot(pos, j, &w, rec)?;
            }
        }
        Ok(())
    }

    /// Recovers the original-space solution, objective, and duals.
    fn extract(&mut self, model: &Model) -> (Vec<f64>, f64, Option<Vec<f64>>) {
        let mut x_std = vec![0.0; self.sf.n];
        for (pos, &j) in self.basis.iter().enumerate() {
            if j < self.sf.n {
                x_std[j] = self.x_b[pos].max(0.0);
            }
        }
        let x = self.sf.recover(&x_std);
        let objective = model.objective_value(&x);
        let y = self.duals(false);
        let duals = Some(self.sf.recover_duals(&y));
        (x, objective, duals)
    }
}

/// A combined-and-sorted appended row: coefficients over shifted
/// variables, sense, shifted right-hand side.
type PendingRow = (Vec<(usize, f64)>, Cmp, f64);

/// Incremental revised-simplex session for models that grow by appended
/// rows — the lazy-separation pattern of the EBF. Each appended batch
/// becomes a single `O(nnz)` append-block operator on the basis
/// factorization — no re-elimination against existing rows — and the next
/// [`RevisedSession::resolve`] repairs the old optimum with the dual
/// simplex.
///
/// # Example
///
/// ```
/// use lubt_lp::{Cmp, LinExpr, Model, RevisedSession};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 1.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
///
/// let mut session = RevisedSession::start(m)?;
/// assert!((session.solution().objective() - 4.0).abs() < 1e-7);
/// session.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 3.0)?;
/// let sol = session.resolve()?;
/// assert!((sol.objective() - 4.0).abs() < 1e-7);
/// # Ok::<(), lubt_lp::LpError>(())
/// ```
pub struct RevisedSession {
    model: Model,
    /// Live kernel, kept at an optimal basis between resolves (absent when
    /// the session can no longer be grown).
    kernel: Option<Kernel>,
    pending: Vec<PendingRow>,
    solution: Solution,
    max_iterations: usize,
    stall_limit: usize,
    threads: usize,
    recorder: Arc<dyn Recorder>,
    infeasible: bool,
    /// Seed of the certificate for the most recent (re)solve outcome.
    cert_seed: Option<CertSeed>,
}

impl RevisedSession {
    /// Cold-solves `model` and retains the kernel for incremental growth.
    ///
    /// # Errors
    ///
    /// * [`LpError`] on validation/numerics;
    /// * models that are initially infeasible or unbounded are *not*
    ///   errors — query [`RevisedSession::solution`] for the status, but
    ///   such sessions cannot be grown.
    pub fn start(model: Model) -> Result<Self, LpError> {
        Self::start_with(model, RevisedSolver::new())
    }

    /// Like [`RevisedSession::start`], but the cold solve and every later
    /// [`RevisedSession::resolve`] inherit `solver`'s limits and recorder.
    ///
    /// # Errors
    ///
    /// * [`LpError`] on validation/numerics;
    /// * models that are initially infeasible or unbounded are *not*
    ///   errors — query [`RevisedSession::solution`] for the status, but
    ///   such sessions cannot be grown.
    pub fn start_with(model: Model, solver: RevisedSolver) -> Result<Self, LpError> {
        let (solution, kernel, cert_seed) = solver.solve_keeping_kernel(&model)?;
        let infeasible = solution.status() != Status::Optimal;
        Ok(RevisedSession {
            model,
            kernel,
            pending: Vec::new(),
            solution,
            max_iterations: solver.max_iterations(),
            stall_limit: solver.stall_limit,
            threads: solver.threads,
            recorder: Arc::clone(solver.recorder()),
            infeasible,
            cert_seed,
        })
    }

    /// The model as grown so far.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The solution of the most recent (re)solve.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Materializes the certificate for the most recent (re)solve outcome:
    /// optimality duals when optimal, a Farkas ray when infeasible. `None`
    /// for unbounded outcomes or when the basis cannot be factorized.
    pub fn certificate(&self) -> Option<Certificate> {
        self.cert_seed
            .as_ref()
            .and_then(|s| crate::certificate::compute(&self.model, s))
    }

    /// Appends an inequality row (`Le` or `Ge`). Takes effect at the next
    /// [`RevisedSession::resolve`].
    ///
    /// # Errors
    ///
    /// [`LpError::NonFiniteInput`] for bad numbers and
    /// [`LpError::UnknownVariable`] for foreign variables; equality rows are
    /// not supported incrementally (`NumericalBreakdown` explains why —
    /// start a fresh session instead).
    pub fn add_constraint(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> Result<(), LpError> {
        if cmp == Cmp::Eq {
            return Err(LpError::NumericalBreakdown(
                "incremental sessions accept only inequality rows (equalities need artificials)"
                    .to_string(),
            ));
        }
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteInput {
                what: "appended row rhs".to_string(),
                value: rhs,
            });
        }
        let shift = self
            .kernel
            .as_ref()
            .map(|k| k.sf.shift.clone())
            .unwrap_or_else(|| self.model.lower.clone());
        let mut combined: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        let mut shifted_rhs = rhs;
        for &(v, c) in expr.terms() {
            if v.index() >= self.model.num_vars() {
                return Err(LpError::UnknownVariable {
                    index: v.index(),
                    model_vars: self.model.num_vars(),
                });
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: "appended row coefficient".to_string(),
                    value: c,
                });
            }
            *combined.entry(v.index()).or_insert(0.0) += c;
            shifted_rhs -= c * shift[v.index()];
        }
        let mut terms: Vec<(usize, f64)> =
            combined.into_iter().filter(|&(_, c)| c != 0.0).collect();
        terms.sort_by_key(|&(i, _)| i);
        self.model.add_constraint(expr, cmp, rhs);
        self.pending.push((terms, cmp, shifted_rhs));
        Ok(())
    }

    /// Integrates all pending rows as one append block and re-optimizes
    /// with the dual simplex.
    ///
    /// # Errors
    ///
    /// [`LpError::IterationLimit`] on pivot-budget exhaustion. An
    /// *infeasible* grown model is reported via the returned solution's
    /// status, and the session becomes permanently infeasible (appending
    /// rows cannot restore feasibility).
    pub fn resolve(&mut self) -> Result<&Solution, LpError> {
        if self.infeasible {
            self.pending.clear();
            return Ok(&self.solution);
        }
        if self.pending.is_empty() {
            return Ok(&self.solution);
        }
        // A residual artificial in the basis (redundant equality row in the
        // seed model) would be aliased by the appended slack's column id;
        // re-solve the grown model cold instead — `add_constraint` already
        // recorded every pending row in `self.model`.
        let has_artificials = self
            .kernel
            .as_ref()
            .is_none_or(|k| k.basis.iter().any(|&j| j >= k.sf.n));
        if has_artificials {
            self.pending.clear();
            if self.recorder.enabled() {
                self.recorder.incr("lp.resolves", 1);
            }
            let solver = RevisedSolver::new()
                .with_max_iterations(self.max_iterations)
                .with_stall_limit(self.stall_limit)
                .with_threads(self.threads)
                .with_recorder(Arc::clone(&self.recorder));
            let (solution, kernel, cert_seed) = solver.solve_keeping_kernel(&self.model)?;
            self.infeasible = solution.status() != Status::Optimal;
            self.solution = solution;
            self.kernel = kernel;
            self.cert_seed = cert_seed;
            return Ok(&self.solution);
        }
        let kernel = self
            .kernel
            .as_mut()
            .expect("an optimal session always holds a kernel");
        let batch: Vec<(Vec<(usize, f64)>, f64)> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(terms, cmp, rhs)| {
                // Orient the row so its slack carries +1: `sum <= rhs`
                // passes through, `sum >= rhs` is negated.
                let sign = match cmp {
                    Cmp::Le => 1.0,
                    Cmp::Ge => -1.0,
                    Cmp::Eq => unreachable!("rejected in add_constraint"),
                };
                (
                    terms.iter().map(|&(i, c)| (i, sign * c)).collect(),
                    sign * rhs,
                )
            })
            .collect();

        // Append block: the new rows' coefficients on the current basis
        // columns (by position), the fresh slacks joining the basis.
        let mut pos_of = vec![usize::MAX; kernel.sf.n];
        for (pos, &bcol) in kernel.basis.iter().enumerate() {
            if bcol < kernel.sf.n {
                pos_of[bcol] = pos;
            }
        }
        let mut crows = Vec::with_capacity(batch.len());
        for (terms, rhs) in &batch {
            let mut crow: Vec<(usize, f64)> = terms
                .iter()
                .filter(|&&(j, _)| pos_of[j] != usize::MAX)
                .map(|&(j, c)| (pos_of[j], c))
                .collect();
            crow.sort_unstable_by_key(|&(p, _)| p);
            crows.push(crow);
            kernel.basis.push(kernel.sf.n); // the row's fresh slack
            kernel.in_basis.push(true);
            kernel.sf.append_row(terms, *rhs);
        }
        kernel.factor.push_append(crows);
        // Recompute the basic values through the extended operator chain
        // (the old positions are untouched by construction).
        kernel.x_b = kernel.sf.b.clone();
        let mut x = std::mem::take(&mut kernel.x_b);
        let mut scratch = std::mem::take(&mut kernel.scratch);
        kernel.factor.ftran(&mut x, &mut scratch);
        kernel.x_b = x;
        kernel.scratch = scratch;

        let mut iters = self.solution.iterations();
        if self.recorder.enabled() {
            self.recorder.incr("lp.resolves", 1);
        }
        let status = kernel.dual_then_primal(
            &mut iters,
            self.max_iterations,
            self.stall_limit,
            &*self.recorder,
        )?;
        if self.recorder.enabled() {
            self.recorder.record_max("lp.peak_pivots", iters as u64);
            self.recorder.gauge(
                "lp.limit_fraction",
                iters as f64 / self.max_iterations.max(1) as f64,
            );
        }
        match status {
            ReoptOutcome::Optimal => {
                self.cert_seed = Some(CertSeed::Optimal(kernel.roles()));
                let n_orig = self.model.num_vars();
                let mut x = vec![0.0; n_orig];
                for (pos, &b) in kernel.basis.iter().enumerate() {
                    if b < n_orig {
                        x[b] = kernel.x_b[pos].max(0.0);
                    }
                }
                for (xi, s) in x.iter_mut().zip(&kernel.sf.shift) {
                    *xi += s;
                }
                let objective = self.model.objective_value(&x);
                self.solution = Solution::new(Status::Optimal, x, objective, None, iters);
            }
            ReoptOutcome::Infeasible { row } => {
                self.cert_seed = Some(CertSeed::DualRow(kernel.roles(), row));
                self.infeasible = true;
                self.solution = Solution::infeasible(self.model.num_vars(), iters);
            }
            ReoptOutcome::Unbounded => {
                self.cert_seed = None;
                self.solution = Solution::unbounded(self.model.num_vars(), iters);
            }
        }
        Ok(&self.solution)
    }
}

impl std::fmt::Debug for RevisedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevisedSession")
            .field("vars", &self.model.num_vars())
            .field("rows", &self.model.num_constraints())
            .field("pending", &self.pending.len())
            .field("status", &self.solution.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Var;

    fn expr(terms: &[(Var, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    /// Solves `m`, expecting a feasible optimum of value `objective`.
    fn assert_optimal(m: &Model, objective: f64) {
        let s = RevisedSolver::new().solve(m).unwrap();
        assert!(s.is_optimal(), "{:?}", s.status());
        assert!(
            (s.objective() - objective).abs() < 1e-9 * (1.0 + objective.abs()),
            "expected {objective}, got {}",
            s.objective()
        );
        assert!(m.check_feasible(s.values(), 1e-6).is_ok());
    }

    #[test]
    fn solves_basic_shapes_to_their_known_optima() {
        // Optimal with mixed senses: y = 2, x = 2.
        let mut m = Model::new();
        let x = m.add_var(0.0, -1.0);
        let y = m.add_var(0.0, -2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 4.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Le, 2.0);
        assert_optimal(&m, -6.0);

        // Shifted bounds and an equality: y = 3 forces x >= 4.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(2.0, 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Eq, 3.0);
        assert_optimal(&m, 13.0);

        // Two equalities pin x = y = 2.
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0);
        let y = m.add_var(0.0, 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 4.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Eq, 0.0);
        assert_optimal(&m, 10.0);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        assert_eq!(
            RevisedSolver::new().solve(&m).unwrap().status(),
            Status::Infeasible
        );

        let mut m = Model::new();
        let x = m.add_var(0.0, -1.0);
        let y = m.add_var(0.0, 0.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Le, 1.0);
        assert_eq!(
            RevisedSolver::new().solve(&m).unwrap().status(),
            Status::Unbounded
        );
    }

    #[test]
    fn no_constraints_sits_at_lower_bounds() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0);
        let y = m.add_var(-1.0, 3.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert_eq!(s.value(x), 2.0);
        assert_eq!(s.value(y), -1.0);

        let mut m = Model::new();
        let _ = m.add_var(0.0, -1.0);
        assert_eq!(
            RevisedSolver::new().solve(&m).unwrap().status(),
            Status::Unbounded
        );
    }

    #[test]
    fn redundant_equalities_leave_residual_artificials() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 2.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 2.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-7);
        let duals = s.duals().expect("revised simplex provides duals");
        let dual_obj = 3.0 * duals[0] + 2.0 * duals[1];
        assert!((dual_obj - s.objective()).abs() < 1e-6, "duals {duals:?}");
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        for k in 1..20 {
            m.add_constraint(expr(&[(x, 1.0), (y, k as f64)]), Cmp::Ge, 0.0);
        }
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 1.0);
        let s = RevisedSolver::new().solve(&m).unwrap();
        assert!(s.is_optimal());
        assert!((s.objective() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn warm_start_tokens_chain_across_grown_models() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
        // A cold solve's token seeds the first grown re-solve...
        let (s1, warm) = RevisedSolver::new().solve_warm(&m, None).unwrap();
        assert!(s1.is_optimal());
        let warm = warm.expect("optimal basis yields a token");
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 3.0);
        let (s2, warm2) = RevisedSolver::new().solve_warm(&m, Some(&warm)).unwrap();
        assert!(s2.is_optimal());
        assert!((s2.objective() - 4.0).abs() < 1e-7);
        // ...and the warm re-solve's own token seeds the next one.
        let warm2 = warm2.expect("optimal basis yields a token");
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Ge, 1.5);
        let (s3, _) = RevisedSolver::new().solve_warm(&m, Some(&warm2)).unwrap();
        assert!(s3.is_optimal());
        assert!((s3.objective() - 4.5).abs() < 1e-7);
    }

    #[test]
    fn certified_solves_carry_matching_certificates() {
        // Optimal: certificate duals must agree with the solution's duals.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 2.0);
        let (s, cert) = RevisedSolver::new().solve_certified(&m).unwrap();
        assert!(s.is_optimal());
        let Some(Certificate::Optimality(opt)) = cert else {
            panic!("optimal solve must certify");
        };
        let duals = s.duals().unwrap();
        assert_eq!(opt.duals.len(), duals.len());
        for (a, b) in opt.duals.iter().zip(duals) {
            assert!((a - b).abs() < 1e-9, "{:?} vs {duals:?}", opt.duals);
        }
        // b'y equals the objective (strong duality).
        let dual_obj = 3.0 * opt.duals[0] + 2.0 * opt.duals[1];
        assert!((dual_obj - s.objective()).abs() < 1e-6);

        // Infeasible: the Farkas ray must prove the contradiction.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let (s, cert) = RevisedSolver::new().solve_certified(&m).unwrap();
        assert_eq!(s.status(), Status::Infeasible);
        let Some(Certificate::Farkas(f)) = cert else {
            panic!("infeasible solve must certify");
        };
        assert_eq!(f.ray.len(), 2);
        assert!(f.ray[0] >= -1e-9, "Ge multiplier sign: {:?}", f.ray);
        assert!(f.ray[1] <= 1e-9, "Le multiplier sign: {:?}", f.ray);
        // Column condition and positive gap.
        let d = f.ray[0] + f.ray[1];
        assert!(d.abs() < 1e-9, "column sum {d}");
        let gap = 5.0 * f.ray[0] + 3.0 * f.ray[1];
        assert!(gap > 1e-9, "gap {gap}");
    }

    #[test]
    fn duplicate_terms_in_appended_rows_combine() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 100.0);
        let mut s = RevisedSession::start(m).unwrap();
        s.add_constraint(expr(&[(x, 1.0), (x, 2.0)]), Cmp::Ge, 9.0)
            .unwrap();
        let sol = s.resolve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn session_matches_cold_solves_row_by_row() {
        let mut base = Model::new();
        let vars = base.add_vars(5, 0.0, 1.0);
        base.add_constraint(
            LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
            Cmp::Ge,
            10.0,
        );
        let mut session = RevisedSession::start(base.clone()).unwrap();
        let rows: &[(&[usize], Cmp, f64)] = &[
            (&[0, 1], Cmp::Ge, 6.0),
            (&[2, 3], Cmp::Ge, 5.0),
            (&[4], Cmp::Le, 2.0),
            (&[0, 4], Cmp::Ge, 3.0),
        ];
        for &(cols, cmp, rhs) in rows {
            let e = LinExpr::from_terms(cols.iter().map(|&c| (vars[c], 1.0)));
            base.add_constraint(e.clone(), cmp, rhs);
            session.add_constraint(e, cmp, rhs).unwrap();
            let inc = session.resolve().unwrap().clone();
            let cold = RevisedSolver::new().solve(&base).unwrap();
            assert_eq!(inc.status(), cold.status());
            assert!(
                (inc.objective() - cold.objective()).abs() < 1e-7,
                "incremental {} vs cold {}",
                inc.objective(),
                cold.objective()
            );
            assert!(base.check_feasible(inc.values(), 1e-6).is_ok());
        }
    }

    #[test]
    fn session_with_shifted_lower_bounds() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0);
        let y = m.add_var(-1.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
        let mut s = RevisedSession::start(m).unwrap();
        assert!((s.solution().objective() - 4.0).abs() < 1e-7);
        s.add_constraint(expr(&[(y, 1.0)]), Cmp::Ge, 1.5).unwrap();
        let sol = s.resolve().unwrap();
        assert!((sol.objective() - 4.0).abs() < 1e-7);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 1.5 - 1e-9);
    }

    #[test]
    fn session_detects_infeasibility_and_stays_there() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let mut s = RevisedSession::start(m).unwrap();
        s.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0).unwrap();
        assert_eq!(s.resolve().unwrap().status(), Status::Infeasible);
        s.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 1.0).unwrap();
        assert_eq!(s.resolve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn equality_rows_are_rejected_by_the_session() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 1.0);
        let mut s = RevisedSession::start(m).unwrap();
        assert!(s.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 2.0).is_err());
    }

    #[test]
    fn many_appended_rows_force_refactorizations() {
        // Enough growth and re-pivoting to cross the eta-refresh trigger;
        // the dual-repaired answer must match a cold primal solve.
        let rec = std::sync::Arc::new(lubt_obs::TraceRecorder::new());
        let mut base = Model::new();
        let vars = base.add_vars(12, 0.0, 1.0);
        base.add_constraint(
            LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
            Cmp::Ge,
            24.0,
        );
        let mut session = RevisedSession::start_with(
            base.clone(),
            RevisedSolver::new().with_recorder(rec.clone()),
        )
        .unwrap();
        for k in 0..40 {
            let a = k % 12;
            let b = (k * 5 + 3) % 12;
            if a == b {
                continue;
            }
            let e = LinExpr::from_terms([(vars[a], 1.0), (vars[b], 1.0)]);
            let rhs = 2.0 + (k % 7) as f64 * 0.5;
            base.add_constraint(e.clone(), Cmp::Ge, rhs);
            session.add_constraint(e, Cmp::Ge, rhs).unwrap();
        }
        let inc = session.resolve().unwrap().clone();
        let cold = RevisedSolver::new().solve(&base).unwrap();
        assert_eq!(inc.status(), cold.status());
        assert!(
            (inc.objective() - cold.objective()).abs() < 1e-6,
            "incremental {} vs cold {}",
            inc.objective(),
            cold.objective()
        );
        let t = rec.snapshot();
        assert!(t.counter("lp.priced_columns") > 0, "{t:?}");
        assert!(t.maximum("lp.eta_len") > 0, "{t:?}");
    }

    #[test]
    fn recorder_sees_revised_counters() {
        let rec = std::sync::Arc::new(lubt_obs::TraceRecorder::new());
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let solver = RevisedSolver::new().with_recorder(rec.clone());
        let s = solver.solve(&m).unwrap();
        assert!(s.is_optimal());
        let t = rec.snapshot();
        assert_eq!(t.counter("lp.solves"), 1);
        assert!(t.counter("lp.pivots") >= 1, "{t:?}");
        assert!(t.counter("lp.priced_columns") >= 1, "{t:?}");
        assert_eq!(t.maximum("lp.peak_pivots"), s.iterations() as u64);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Ge, 1.0);
        let err = RevisedSolver::new()
            .with_max_iterations(1)
            .solve(&m)
            .unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { limit: 1 }));
    }

    #[test]
    fn resolve_without_pending_is_a_no_op() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 2.0);
        let mut s = RevisedSession::start(m).unwrap();
        let before = s.solution().objective();
        let after = s.resolve().unwrap().objective();
        assert_eq!(before, after);
    }

    /// A deterministic covering LP wide enough (`n_total >= PAR_SCAN_MIN`)
    /// that the assisted pricing and candidate scans actually engage.
    fn wide_covering_model(vars: usize, rows: usize) -> Model {
        let mut m = Model::new();
        let vs: Vec<Var> = (0..vars)
            .map(|i| m.add_var(0.0, 1.0 + ((i * 29 + 7) % 13) as f64 / 5.0))
            .collect();
        for r in 0..rows {
            let e: LinExpr = vs
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + r) % 3 != 0)
                .map(|(i, &v)| (v, 1.0 + ((i * 17 + r * 31) % 7) as f64 / 3.0))
                .collect();
            m.add_constraint(e, Cmp::Ge, 2.0 + (r % 11) as f64 / 2.0);
        }
        m
    }

    #[test]
    fn with_threads_solves_are_bit_identical() {
        let m = wide_covering_model(80, 60);
        let reference = RevisedSolver::new().solve(&m).unwrap();
        assert!(reference.is_optimal());
        let bits: Vec<u64> = reference.values().iter().map(|v| v.to_bits()).collect();
        for threads in [2, 4, 8, 0] {
            let sol = RevisedSolver::new()
                .with_threads(threads)
                .solve(&m)
                .unwrap();
            assert_eq!(sol.status(), reference.status(), "threads={threads}");
            assert_eq!(
                sol.objective().to_bits(),
                reference.objective().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                sol.iterations(),
                reference.iterations(),
                "threads={threads}"
            );
            let tb: Vec<u64> = sol.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(tb, bits, "threads={threads}");
        }
    }

    #[test]
    fn threaded_sessions_resolve_bit_identically() {
        // The appended-rows dual repair exercises `dual_candidates`.
        let grow = |threads: usize| -> Vec<u64> {
            let m = wide_covering_model(70, 50);
            let vars: Vec<Var> = m.vars().collect();
            let solver = RevisedSolver::new().with_threads(threads);
            let mut s = RevisedSession::start_with(m, solver).unwrap();
            assert!(s.solution().is_optimal());
            for r in 0..6 {
                let e: LinExpr = vars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i + r) % 4 != 1)
                    .map(|(i, &v)| (v, 1.0 + ((i * 13 + r * 5) % 5) as f64 / 2.0))
                    .collect();
                s.add_constraint(e, Cmp::Ge, 9.0 + r as f64).unwrap();
                let sol = s.resolve().unwrap();
                assert!(sol.is_optimal(), "round {r}");
            }
            s.solution().values().iter().map(|v| v.to_bits()).collect()
        };
        let reference = grow(1);
        for threads in [2, 4, 8] {
            assert_eq!(grow(threads), reference, "threads={threads}");
        }
    }

    /// Property-based lockstep check: the assisted pricing scan must pick
    /// the identical entering column as the serial scan on every pivot,
    /// across random models, windows, and thread counts — with a
    /// first-diverging-pivot reporter in the style of
    /// `crates/lp/tests/differential.rs`.
    mod assisted_pricing {
        use super::*;
        use crate::sparse::SparseForm;
        use lubt_obs::TraceRecorder;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// The solve-path basis seeding (usable slacks, artificials
        /// elsewhere), with an explicit participant count.
        fn seeded_kernel(m: &Model, threads: usize) -> Kernel {
            let sf = SparseForm::build(m);
            let rows = sf.m;
            let mut basis = Vec::with_capacity(rows);
            let mut art_rows = Vec::new();
            for i in 0..rows {
                let sc = sf.slack_col[i];
                let usable = sc != usize::MAX && (sf.at(i, sc) - 1.0).abs() < 1e-12;
                if usable {
                    basis.push(sc);
                } else {
                    basis.push(sf.n + art_rows.len());
                    art_rows.push(i);
                }
            }
            let mut kernel = Kernel::from_parts(sf, basis, art_rows).expect("seed basis");
            kernel.threads = threads;
            kernel
        }

        /// Drives a serial and an assisted kernel through the same pivot
        /// sequence, comparing the entering column and pricing cursor at
        /// every step and the `lp.priced_columns` tally at the end.
        fn assert_lockstep(m: &Model, threads: usize) -> Result<(), TestCaseError> {
            let mut serial = seeded_kernel(m, 1);
            let mut assisted = seeded_kernel(m, threads);
            let rec_s = TraceRecorder::new();
            let rec_a = TraceRecorder::new();
            let phase1 = !serial.art_rows.is_empty();
            for pivot_idx in 0..400 {
                let ys = serial.duals(phase1);
                let ya = assisted.duals(phase1);
                let cs = serial.price(&ys, phase1, false, &rec_s);
                let ca = assisted.price(&ya, phase1, false, &rec_a);
                if cs != ca {
                    return Err(TestCaseError::Fail(format!(
                        "first diverging pivot {pivot_idx} (threads {threads}): \
                             serial entered {cs:?}, assisted entered {ca:?}"
                    )));
                }
                if serial.cursor != assisted.cursor {
                    return Err(TestCaseError::Fail(format!(
                        "cursors diverged at pivot {pivot_idx} (threads {threads}): \
                             serial {}, assisted {}",
                        serial.cursor, assisted.cursor
                    )));
                }
                let Some(enter) = cs else { break };
                let step = |k: &mut Kernel| -> Option<usize> {
                    let mut w = k.dense_col(enter);
                    let mut scratch = std::mem::take(&mut k.scratch);
                    k.factor.ftran(&mut w, &mut scratch);
                    k.scratch = scratch;
                    let pos = k.choose_leaving(&w)?;
                    k.pivot(pos, enter, &w, &lubt_obs::NoopRecorder)
                        .expect("pivot");
                    Some(pos)
                };
                let ps = step(&mut serial);
                let pa = step(&mut assisted);
                if ps != pa {
                    return Err(TestCaseError::Fail(format!(
                        "leaving rows diverged at pivot {pivot_idx} (threads \
                             {threads}): serial {ps:?}, assisted {pa:?}"
                    )));
                }
                if ps.is_none() {
                    break; // unbounded direction: both agree, done
                }
            }
            let priced_s = rec_s.snapshot().counter("lp.priced_columns");
            let priced_a = rec_a.snapshot().counter("lp.priced_columns");
            if priced_s != priced_a {
                return Err(TestCaseError::Fail(format!(
                    "priced-column tallies diverged (threads {threads}): \
                         serial {priced_s}, assisted {priced_a}"
                )));
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn assisted_pricing_matches_serial_entering_columns(
                costs in proptest::collection::vec(0i8..5, 40..90),
                rows in proptest::collection::vec(
                    proptest::collection::vec(-2i8..4, 90), 30..70),
                les in proptest::collection::vec(proptest::bool::ANY, 70),
                rhs in proptest::collection::vec(0i32..40, 70),
                threads in 2usize..9,
            ) {
                let mut m = Model::new();
                let vars: Vec<Var> = costs
                    .iter()
                    .map(|&c| m.add_var(0.0, f64::from(c)))
                    .collect();
                for ((coefs, &le), &r) in rows.iter().zip(&les).zip(&rhs) {
                    let e: LinExpr = vars
                        .iter()
                        .zip(coefs)
                        .filter(|(_, &c)| c != 0)
                        .map(|(&v, &c)| (v, f64::from(c)))
                        .collect();
                    if e.terms().is_empty() {
                        continue;
                    }
                    m.add_constraint(e, if le { Cmp::Le } else { Cmp::Ge }, f64::from(r) / 4.0);
                }
                assert_lockstep(&m, threads)?;
            }
        }
    }
}
