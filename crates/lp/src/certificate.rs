//! Post-solve certificates: enough of the final basis to reconstruct, on
//! demand, the dual vector proving optimality or the Farkas ray proving
//! infeasibility — in the *original* row orientation of the [`Model`], so
//! external auditors (see the `lubt-audit` crate) can verify them with
//! exact arithmetic against the model as the caller wrote it.
//!
//! The solvers never pay for certification on their hot paths: a solve
//! records only a [`CertSeed`] (column roles of the final basis plus, for
//! dual-simplex infeasibility, the certifying row). [`compute`] turns a
//! seed into a [`Certificate`] with one dense `O(m^3)` LU solve, and is
//! only called when auditing is requested.
//!
//! # Orientation
//!
//! Internally the standard forms normalize rows so the rhs is
//! non-negative (`B_int = D · B_orig` for a ±1 diagonal `D`). Certificates
//! are stated over `B_orig`:
//!
//! * optimal duals `y` solve `B_orig' y = c_B`, which equals `D · y_int` —
//!   exactly the convention of [`crate::Solution::duals`];
//! * a dual-simplex Farkas ray is `r = -B_orig^{-T} e_row`; the two `D`
//!   factors cancel, so no per-row sign bookkeeping is needed;
//! * a phase-1 Farkas ray solves `B_orig' r = c¹_B` where `c¹_B` is 1 on
//!   artificial columns — whose original-orientation sign *does* depend on
//!   `D`, replayed bit-exactly by [`row_negation_flags`].

use crate::linalg::SquareMatrix;
use crate::model::{Cmp, Model};

/// Role of one basis column, stated in terms of the original model rather
/// than internal standard-form column numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRole {
    /// Structural variable `j` of the model.
    Structural(usize),
    /// Slack (`<=`) or surplus (`>=`) of constraint row `i`.
    Slack(usize),
    /// Residual artificial of constraint row `i`.
    Artificial(usize),
}

/// Optimality certificate: the final basis and the dual vector it implies.
///
/// `duals` follow the [`crate::Solution::duals`] convention (one entry per
/// constraint, original row orientation: `>=` rows carry non-negative
/// duals at optimality, `<=` rows non-positive). Fields are public so
/// external auditors — and tests that deliberately corrupt certificates —
/// can inspect and rewrite them.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalityCertificate {
    /// Final basis, one [`ColumnRole`] per constraint row.
    pub basis: Vec<ColumnRole>,
    /// Constraint duals implied by the basis, original row orientation.
    pub duals: Vec<f64>,
}

/// Farkas infeasibility certificate: row multipliers `r` such that every
/// point satisfying the constraints would have to satisfy
/// `0 >= sum_i r_i * b'_i > 0` — a contradiction.
///
/// Concretely, with the variable shift `x = x' + lb` (`x' >= 0`) and
/// shifted rhs `b'_i = rhs_i - sum coef * lb`, a valid ray has `r_i <= 0`
/// on `<=` rows, `r_i >= 0` on `>=` rows, `sum_i r_i a_ij <= 0` for every
/// variable `j`, and `sum_i r_i b'_i > 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct FarkasCertificate {
    /// One multiplier per constraint row (rows beyond the subsystem that
    /// certified infeasibility are zero).
    pub ray: Vec<f64>,
}

/// Certificate attached to a solve outcome: a dual proof of optimality or
/// a Farkas proof of infeasibility. Unbounded outcomes carry none.
#[derive(Debug, Clone, PartialEq)]
pub enum Certificate {
    /// The solve ended optimal; here is the basis and its duals.
    Optimality(OptimalityCertificate),
    /// The solve ended infeasible; here is the Farkas ray.
    Farkas(FarkasCertificate),
}

/// Deferred certificate: the minimum bookkeeping a solve must retain so
/// [`compute`] can reconstruct the certificate later. Kept cheap (a role
/// per basis column) so the hot solve paths stay free of dense work.
#[derive(Debug, Clone)]
pub(crate) enum CertSeed {
    /// Optimal basis.
    Optimal(Vec<ColumnRole>),
    /// Basis at a phase-1 exit with a positive artificial sum.
    Phase1(Vec<ColumnRole>),
    /// Basis at a dual-simplex infeasibility exit, plus the certifying row
    /// position.
    DualRow(Vec<ColumnRole>, usize),
}

/// Replays the standard-form builders' rhs-sign normalization: row `i` was
/// multiplied by -1 iff its shifted rhs came out negative. The arithmetic
/// must stay float-identical to `StandardForm::build` / `SparseForm::build`
/// (same accumulation order, same strict `< 0.0` test).
pub(crate) fn row_negation_flags(model: &Model) -> Vec<bool> {
    model
        .constraints
        .iter()
        .map(|con| {
            let mut rhs = con.rhs;
            for &(v, coef) in con.expr.terms() {
                rhs -= coef * model.lower[v.index()];
            }
            rhs < 0.0
        })
        .collect()
}

/// Transposed original-orientation basis matrix (`row k` = basis column
/// `k`) over the first `roles.len()` constraint rows. `None` for roles
/// that do not name a valid column (e.g. a slack on an equality row).
fn basis_transpose(model: &Model, roles: &[ColumnRole]) -> Option<SquareMatrix> {
    let m = roles.len();
    if m > model.num_constraints() {
        return None;
    }
    let negated = row_negation_flags(model);
    let mut bt = SquareMatrix::zeros(m);
    for (k, &role) in roles.iter().enumerate() {
        match role {
            ColumnRole::Structural(j) => {
                if j >= model.num_vars() {
                    return None;
                }
                for (i, con) in model.constraints.iter().take(m).enumerate() {
                    for &(v, coef) in con.expr.terms() {
                        if v.index() == j {
                            *bt.at_mut(k, i) += coef;
                        }
                    }
                }
            }
            ColumnRole::Slack(i) => {
                if i >= m {
                    return None;
                }
                let sigma = match model.constraints[i].cmp {
                    Cmp::Le => 1.0,
                    Cmp::Ge => -1.0,
                    Cmp::Eq => return None,
                };
                *bt.at_mut(k, i) += sigma;
            }
            ColumnRole::Artificial(i) => {
                if i >= m {
                    return None;
                }
                *bt.at_mut(k, i) += if negated[i] { -1.0 } else { 1.0 };
            }
        }
    }
    Some(bt)
}

/// Materializes a [`Certificate`] from a seed with one dense LU solve.
/// `None` when the basis is malformed or numerically singular (auditors
/// treat a missing certificate as a failure in its own right).
pub(crate) fn compute(model: &Model, seed: &CertSeed) -> Option<Certificate> {
    let total_rows = model.num_constraints();
    match seed {
        CertSeed::Optimal(roles) => {
            let bt = basis_transpose(model, roles)?;
            let cb: Vec<f64> = roles
                .iter()
                .map(|r| match *r {
                    ColumnRole::Structural(j) => model.costs[j],
                    _ => 0.0,
                })
                .collect();
            let duals = bt.lu_solve(cb)?;
            Some(Certificate::Optimality(OptimalityCertificate {
                basis: roles.clone(),
                duals,
            }))
        }
        CertSeed::Phase1(roles) => {
            let bt = basis_transpose(model, roles)?;
            let cb: Vec<f64> = roles
                .iter()
                .map(|r| match r {
                    ColumnRole::Artificial(_) => 1.0,
                    _ => 0.0,
                })
                .collect();
            let mut ray = bt.lu_solve(cb)?;
            ray.resize(total_rows, 0.0);
            Some(Certificate::Farkas(FarkasCertificate { ray }))
        }
        CertSeed::DualRow(roles, row) => {
            if *row >= roles.len() {
                return None;
            }
            let bt = basis_transpose(model, roles)?;
            let mut e = vec![0.0; roles.len()];
            e[*row] = 1.0;
            let v = bt.lu_solve(e)?;
            let mut ray: Vec<f64> = v.into_iter().map(|t| -t).collect();
            ray.resize(total_rows, 0.0);
            Some(Certificate::Farkas(FarkasCertificate { ray }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinExpr;

    #[test]
    fn negation_flags_match_standard_form() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(2.0, 3.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 10.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 4.0);
        m.add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Eq, 1.0); // 1 - 2 < 0
        let flags = row_negation_flags(&m);
        let sf = crate::standard::StandardForm::build(&m);
        assert_eq!(flags, sf.row_negated);
    }

    #[test]
    fn malformed_roles_yield_no_certificate() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Eq, 2.0);
        // Slack on an equality row is not a column.
        let seed = CertSeed::Optimal(vec![ColumnRole::Slack(0)]);
        assert!(compute(&m, &seed).is_none());
        // Out-of-range structural index.
        let seed = CertSeed::Optimal(vec![ColumnRole::Structural(7)]);
        assert!(compute(&m, &seed).is_none());
        // Row index past the subsystem.
        let seed = CertSeed::DualRow(vec![ColumnRole::Structural(0)], 3);
        assert!(compute(&m, &seed).is_none());
    }

    #[test]
    fn empty_basis_of_a_constraint_free_model() {
        let mut m = Model::new();
        let _ = m.add_var(0.0, 1.0);
        let Some(Certificate::Optimality(c)) = compute(&m, &CertSeed::Optimal(Vec::new())) else {
            panic!("empty basis is trivially certifiable");
        };
        assert!(c.basis.is_empty());
        assert!(c.duals.is_empty());
    }
}
