// Index-based loops are the natural idiom for the dense kernels here.
#![allow(clippy::needless_range_loop)]

use crate::linalg::SquareMatrix;
use crate::standard::StandardForm;
use crate::{LpError, LpSolve, Model, Solution, Status};

/// Mehrotra predictor-corrector primal-dual interior-point solver.
///
/// This is the algorithm family of LOQO, the solver used by the original
/// paper (the paper notes interior-point methods outperform simplex on large
/// EBF instances — the `lp_solvers` bench revisits that claim). Each
/// iteration forms the normal-equations matrix `A·D·Aᵀ` (`D = X S⁻¹`) and
/// factors it with a dense Cholesky decomposition; a predictor (affine) and
/// a corrector step share the factorization.
///
/// Interior-point methods converge to optimality for feasible, bounded
/// problems but — unlike the simplex — do not produce combinatorial
/// certificates. For infeasible or unbounded models this solver reports
/// [`LpError::IterationLimit`]; callers wanting certified infeasibility
/// should use [`crate::RevisedSolver`] (the EBF solver does exactly that).
///
/// Set the environment variable `LP_IPM_TRACE=1` to print per-iteration
/// residuals and the duality gap to stderr (convergence debugging).
///
/// # Example
///
/// ```
/// use lubt_lp::{Cmp, InteriorPointSolver, LinExpr, LpSolve, Model};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 2.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
/// let sol = InteriorPointSolver::new().solve(&m)?;
/// assert!((sol.objective() - 3.0).abs() < 1e-5);
/// # Ok::<(), lubt_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InteriorPointSolver {
    max_iterations: usize,
    tolerance: f64,
}

impl Default for InteriorPointSolver {
    fn default() -> Self {
        InteriorPointSolver {
            max_iterations: 200,
            tolerance: 1e-9,
        }
    }
}

impl InteriorPointSolver {
    /// Creates a solver with default limits (200 iterations, 1e-9 relative
    /// tolerance).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration limit.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the relative convergence tolerance on residuals and the duality
    /// gap.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// `A x` for the dense standard form.
fn mat_vec(sf: &StandardForm, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; sf.m];
    for i in 0..sf.m {
        let row = &sf.a[i * sf.n..(i + 1) * sf.n];
        out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
    }
    out
}

/// `Aᵀ y`.
fn mat_t_vec(sf: &StandardForm, y: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; sf.n];
    for i in 0..sf.m {
        let yi = y[i];
        if yi == 0.0 {
            continue;
        }
        let row = &sf.a[i * sf.n..(i + 1) * sf.n];
        for (o, a) in out.iter_mut().zip(row) {
            *o += a * yi;
        }
    }
    out
}

/// Forms `A diag(d) Aᵀ + reg I`.
fn normal_matrix(sf: &StandardForm, d: &[f64], reg: f64) -> SquareMatrix {
    let m = sf.m;
    let mut out = SquareMatrix::zeros(m);
    for i in 0..m {
        let ri = &sf.a[i * sf.n..(i + 1) * sf.n];
        for j in i..m {
            let rj = &sf.a[j * sf.n..(j + 1) * sf.n];
            let mut s = 0.0;
            for k in 0..sf.n {
                let p = ri[k] * rj[k];
                if p != 0.0 {
                    s += p * d[k];
                }
            }
            *out.at_mut(i, j) = s;
            *out.at_mut(j, i) = s;
        }
        *out.at_mut(i, i) += reg;
    }
    out
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

impl LpSolve for InteriorPointSolver {
    fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        model.validate()?;
        let sf = StandardForm::build(model);
        let (m, n) = (sf.m, sf.n);

        if m == 0 {
            // Mirror the simplex's constraint-free handling.
            if model.costs.iter().any(|&c| c < -1e-12) {
                return Err(LpError::IterationLimit {
                    limit: self.max_iterations,
                });
            }
            let x = sf.recover(&vec![0.0; n]);
            let obj = model.objective_value(&x);
            return Ok(Solution::new(Status::Optimal, x, obj, Some(vec![]), 0));
        }

        // ---- Mehrotra starting point. ----
        // x~ = Aᵀ(AAᵀ)⁻¹ b,  y~ = (AAᵀ)⁻¹ A c,  s~ = c − Aᵀ y~.
        let ones = vec![1.0; n];
        let mut aat = normal_matrix(&sf, &ones, 1e-10);
        if !aat.cholesky(0.0) {
            aat = normal_matrix(&sf, &ones, 1e-6);
            if !aat.cholesky(0.0) {
                return Err(LpError::NumericalBreakdown(
                    "AA' not positive definite (rank-deficient rows?)".to_string(),
                ));
            }
        }
        let w = aat.cholesky_solve(&sf.b);
        let mut x = mat_t_vec(&sf, &w);
        let ac = mat_vec(&sf, &sf.c);
        let mut y = aat.cholesky_solve(&ac);
        let aty = mat_t_vec(&sf, &y);
        let mut s: Vec<f64> = sf.c.iter().zip(&aty).map(|(c, a)| c - a).collect();

        let dx = (-1.5 * x.iter().cloned().fold(f64::INFINITY, f64::min)).max(0.0);
        let ds = (-1.5 * s.iter().cloned().fold(f64::INFINITY, f64::min)).max(0.0);
        x.iter_mut().for_each(|v| *v += dx + 0.1);
        s.iter_mut().for_each(|v| *v += ds + 0.1);
        let xs: f64 = x.iter().zip(&s).map(|(a, b)| a * b).sum();
        let sum_s: f64 = s.iter().sum();
        let sum_x: f64 = x.iter().sum();
        let dx2 = 0.5 * xs / sum_s;
        let ds2 = 0.5 * xs / sum_x;
        x.iter_mut().for_each(|v| *v += dx2);
        s.iter_mut().for_each(|v| *v += ds2);

        let b_scale = 1.0 + norm_inf(&sf.b);
        let c_scale = 1.0 + norm_inf(&sf.c);

        let mut iterations = 0usize;
        while iterations < self.max_iterations {
            let ax = mat_vec(&sf, &x);
            let rp: Vec<f64> = sf.b.iter().zip(&ax).map(|(b, a)| b - a).collect();
            let aty = mat_t_vec(&sf, &y);
            let rd: Vec<f64> =
                sf.c.iter()
                    .zip(&aty)
                    .zip(&s)
                    .map(|((c, a), sv)| c - a - sv)
                    .collect();
            let mu: f64 = x.iter().zip(&s).map(|(a, b)| a * b).sum::<f64>() / n as f64;
            if std::env::var("LP_IPM_TRACE").is_ok() {
                let cx: f64 = sf.c.iter().zip(&x).map(|(c, xv)| c * xv).sum();
                let by: f64 = sf.b.iter().zip(&y).map(|(b, yv)| b * yv).sum();
                eprintln!(
                    "it {iterations}: rp {:.2e} rd {:.2e} mu {:.2e} cx {:.6e} by {:.6e}",
                    norm_inf(&rp),
                    norm_inf(&rd),
                    mu,
                    cx,
                    by
                );
            }

            // Residuals on degenerate LPs (duplicated EBF rows) stall two
            // orders above the complementarity floor while the duality gap
            // is already zero; accept them at a proportionally looser
            // threshold than mu.
            let residual_tol = self.tolerance * 100.0;
            if norm_inf(&rp) / b_scale < residual_tol
                && norm_inf(&rd) / c_scale < residual_tol
                && mu / c_scale < self.tolerance
            {
                let x_orig = sf.recover(&x);
                let objective = model.objective_value(&x_orig);
                let duals = sf.recover_duals(&y);
                return Ok(Solution::new(
                    Status::Optimal,
                    x_orig,
                    objective,
                    Some(duals),
                    iterations,
                ));
            }

            // Normal-equations factorization shared by both steps.
            let d: Vec<f64> = x.iter().zip(&s).map(|(xv, sv)| xv / sv).collect();
            // Regularization must stay far below the matrix scale or the
            // Newton step degrades and the iteration stalls; start at zero
            // and escalate only on factorization breakdown.
            let mut reg = 0.0;
            let mut fact = normal_matrix(&sf, &d, reg);
            let mut tries = 0;
            while !fact.cholesky(0.0) {
                reg = if reg == 0.0 {
                    1e-12 * (1.0 + norm_inf(&d))
                } else {
                    reg * 100.0
                };
                tries += 1;
                if tries > 6 {
                    return Err(LpError::NumericalBreakdown(
                        "normal equations lost positive definiteness".to_string(),
                    ));
                }
                fact = normal_matrix(&sf, &d, reg);
            }

            // Solves the Newton system for a given complementarity target v.
            let solve_dir = |v: &[f64]| -> (Vec<f64>, Vec<f64>, Vec<f64>) {
                // rhs = rp + A·(D·rd − S⁻¹ v)
                let tmp: Vec<f64> = (0..n).map(|j| d[j] * rd[j] - v[j] / s[j]).collect();
                let atmp = mat_vec(&sf, &tmp);
                let rhs: Vec<f64> = rp.iter().zip(&atmp).map(|(r, a)| r + a).collect();
                let dy = fact.cholesky_solve(&rhs);
                let atdy = mat_t_vec(&sf, &dy);
                let dx: Vec<f64> = (0..n)
                    .map(|j| d[j] * (atdy[j] - rd[j]) + v[j] / s[j])
                    .collect();
                let ds: Vec<f64> = (0..n).map(|j| (v[j] - s[j] * dx[j]) / x[j]).collect();
                (dx, dy, ds)
            };

            // Predictor (affine scaling) direction: v = −X S e.
            let v_aff: Vec<f64> = x.iter().zip(&s).map(|(a, b)| -a * b).collect();
            let (dx_a, _dy_a, ds_a) = solve_dir(&v_aff);
            let alpha_p_aff = max_step(&x, &dx_a);
            let alpha_d_aff = max_step(&s, &ds_a);
            let mu_aff: f64 = (0..n)
                .map(|j| (x[j] + alpha_p_aff * dx_a[j]) * (s[j] + alpha_d_aff * ds_a[j]))
                .sum::<f64>()
                / n as f64;
            let sigma = (mu_aff / mu).powi(3).clamp(1e-8, 1.0);

            // Corrector: v = σμe − XSe − ΔXaff ΔSaff e.
            let v_cor: Vec<f64> = (0..n)
                .map(|j| sigma * mu - x[j] * s[j] - dx_a[j] * ds_a[j])
                .collect();
            let (dx, dy, ds_step) = solve_dir(&v_cor);

            let alpha_p = (0.9995 * max_step(&x, &dx)).min(1.0);
            let alpha_d = (0.9995 * max_step(&s, &ds_step)).min(1.0);
            for j in 0..n {
                x[j] += alpha_p * dx[j];
                s[j] += alpha_d * ds_step[j];
            }
            for (yi, dyi) in y.iter_mut().zip(&dy) {
                *yi += alpha_d * dyi;
            }
            iterations += 1;
        }
        Err(LpError::IterationLimit {
            limit: self.max_iterations,
        })
    }
}

/// Largest `alpha >= 0` with `z + alpha*dz >= 0` componentwise (capped at a
/// large constant for strictly interior directions).
fn max_step(z: &[f64], dz: &[f64]) -> f64 {
    let mut alpha = f64::INFINITY;
    for (zi, di) in z.iter().zip(dz) {
        if *di < 0.0 {
            alpha = alpha.min(-zi / di);
        }
    }
    alpha.min(1e12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr};
    use crate::RevisedSolver;

    fn expr(terms: &[(crate::Var, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    #[test]
    fn matches_simplex_on_small_lp() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Le, 2.0);
        let si = RevisedSolver::new().solve(&m).unwrap();
        let ip = InteriorPointSolver::new().solve(&m).unwrap();
        assert!(ip.is_optimal());
        assert!((si.objective() - ip.objective()).abs() < 1e-5);
    }

    #[test]
    fn equality_rows() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0);
        let y = m.add_var(0.0, 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 4.0);
        let s = InteriorPointSolver::new().solve(&m).unwrap();
        assert!((s.objective() - 8.0).abs() < 1e-5); // all weight on x
        assert!(m.check_feasible(s.values(), 1e-5).is_ok());
    }

    #[test]
    fn shifted_bounds() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 1.0);
        let y = m.add_var(2.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 5.0);
        let s = InteriorPointSolver::new().solve(&m).unwrap();
        assert!((s.objective() - 5.0).abs() < 1e-5);
        assert!(s.value(x) >= 1.0 - 1e-6 && s.value(y) >= 2.0 - 1e-6);
    }

    #[test]
    fn infeasible_reports_iteration_limit() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
        let r = InteriorPointSolver::new().with_max_iterations(60).solve(&m);
        assert!(matches!(r, Err(LpError::IterationLimit { .. })));
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 2.0);
        let s = InteriorPointSolver::new().solve(&m).unwrap();
        let duals = s.duals().unwrap();
        let dual_obj = 3.0 * duals[0] + 2.0 * duals[1];
        assert!((dual_obj - s.objective()).abs() < 1e-4, "duals {duals:?}");
    }

    #[test]
    fn moderately_sized_random_lp_agrees_with_simplex() {
        // Deterministic pseudo-random LP with a known feasible point.
        let mut m = Model::new();
        let n = 20;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(0.0, 1.0 + (i % 5) as f64))
            .collect();
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for r in 0..15 {
            let mut e = LinExpr::new();
            let mut rhs = 0.0;
            for &v in &vars {
                let coef = (next() * 3.0).floor();
                if coef > 0.0 {
                    e.add_term(v, coef);
                    rhs += coef; // feasible at x = e
                }
            }
            let cmp = if r % 3 == 0 { Cmp::Le } else { Cmp::Ge };
            let slacked = match cmp {
                Cmp::Le => rhs * 1.5,
                _ => rhs * 0.5,
            };
            m.add_constraint(e, cmp, slacked);
        }
        let si = RevisedSolver::new().solve(&m).unwrap();
        let ip = InteriorPointSolver::new().solve(&m).unwrap();
        assert!(si.is_optimal() && ip.is_optimal());
        let scale = 1.0 + si.objective().abs();
        assert!(
            (si.objective() - ip.objective()).abs() / scale < 1e-5,
            "simplex {} vs ipm {}",
            si.objective(),
            ip.objective()
        );
    }
}
