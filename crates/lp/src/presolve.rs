//! Lightweight presolve: structural simplifications applied before a model
//! reaches a solver.
//!
//! The EBF's lazy separation re-solves a growing model many times, so
//! cheap row-level reductions pay off repeatedly:
//!
//! * **canonicalization** — duplicate terms in an expression are combined,
//!   zero coefficients dropped;
//! * **row deduplication** — rows with identical canonical left-hand sides
//!   keep only the binding right-hand side per sense (`>=`: max rhs,
//!   `<=`: min rhs; `==` rows additionally cross-check consistency);
//! * **empty-row resolution** — `0 >= rhs` rows are dropped when trivially
//!   true and flagged as infeasible when not.

use crate::model::{Cmp, Constraint, LinExpr, Model, Var};
use std::collections::HashMap;

/// Outcome of [`presolve`].
#[derive(Debug, Clone, PartialEq)]
pub enum Presolved {
    /// The reduced model (same variables, fewer/tighter rows) plus
    /// reduction statistics.
    Reduced {
        /// The simplified model.
        model: Model,
        /// Rows removed by deduplication or triviality.
        rows_removed: usize,
    },
    /// A row was found that no assignment can satisfy (e.g. `0 >= 3` or
    /// contradictory equalities); the original model is infeasible.
    Infeasible,
}

/// Canonical key of an expression: sorted, combined, zero-free terms.
fn canonical_terms(expr: &LinExpr) -> Vec<(Var, f64)> {
    let mut combined: HashMap<Var, f64> = HashMap::new();
    for &(v, c) in expr.terms() {
        *combined.entry(v).or_insert(0.0) += c;
    }
    let mut terms: Vec<(Var, f64)> = combined.into_iter().filter(|&(_, c)| c != 0.0).collect();
    terms.sort_by_key(|&(v, _)| v);
    terms
}

/// A hashable row signature (coefficients bit-cast so exact duplicates
/// collide; near-duplicates are deliberately left alone).
fn signature(terms: &[(Var, f64)]) -> Vec<(usize, u64)> {
    terms
        .iter()
        .map(|&(v, c)| (v.index(), c.to_bits()))
        .collect()
}

/// Runs the presolve reductions. The returned model shares the variable
/// space of the input, so solutions transfer directly.
///
/// # Example
///
/// ```
/// use lubt_lp::{presolve, Cmp, LinExpr, Model, Presolved};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 2.0);
/// m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 5.0); // dominates
/// match presolve(&m) {
///     Presolved::Reduced { model, rows_removed } => {
///         assert_eq!(model.num_constraints(), 1);
///         assert_eq!(rows_removed, 1);
///         assert_eq!(model.constraints()[0].rhs(), 5.0);
///     }
///     Presolved::Infeasible => unreachable!(),
/// }
/// ```
pub fn presolve(model: &Model) -> Presolved {
    // Keyed by (signature, sense); value = index into `kept`.
    let mut index: HashMap<(Vec<(usize, u64)>, u8), usize> = HashMap::new();
    let mut kept: Vec<Constraint> = Vec::new();
    let mut rows_removed = 0usize;

    // Tolerance for the trivial-row and equality-consistency checks.
    let eps = 1e-9;

    for con in model.constraints() {
        let terms = canonical_terms(con.expr());
        if terms.is_empty() {
            let ok = match con.cmp() {
                Cmp::Le => 0.0 <= con.rhs() + eps,
                Cmp::Ge => 0.0 >= con.rhs() - eps,
                Cmp::Eq => con.rhs().abs() <= eps,
            };
            if !ok {
                return Presolved::Infeasible;
            }
            rows_removed += 1;
            continue;
        }
        let sense = match con.cmp() {
            Cmp::Le => 0u8,
            Cmp::Ge => 1,
            Cmp::Eq => 2,
        };
        let key = (signature(&terms), sense);
        let expr = LinExpr::from_terms(terms);
        match index.get(&key) {
            Some(&slot) => {
                let existing = &mut kept[slot];
                let merged = match con.cmp() {
                    Cmp::Le => existing.rhs().min(con.rhs()),
                    Cmp::Ge => existing.rhs().max(con.rhs()),
                    Cmp::Eq => {
                        if (existing.rhs() - con.rhs()).abs() > eps {
                            return Presolved::Infeasible;
                        }
                        existing.rhs()
                    }
                };
                *existing = Constraint {
                    expr,
                    cmp: con.cmp(),
                    rhs: merged,
                };
                rows_removed += 1;
            }
            None => {
                index.insert(key, kept.len());
                kept.push(Constraint {
                    expr,
                    cmp: con.cmp(),
                    rhs: con.rhs(),
                });
            }
        }
    }

    let mut out = Model::new();
    for i in 0..model.num_vars() {
        let v = Var(i);
        out.add_var(model.lower_bound(v), model.cost(v));
    }
    for c in kept {
        out.add_constraint(c.expr, c.cmp, c.rhs);
    }
    Presolved::Reduced {
        model: out,
        rows_removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpSolve, RevisedSolver};

    fn expr(terms: &[(Var, f64)]) -> LinExpr {
        LinExpr::from_terms(terms.iter().copied())
    }

    #[test]
    fn deduplicates_keeping_binding_rhs() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 2.0);
        m.add_constraint(expr(&[(y, 1.0), (x, 1.0)]), Cmp::Ge, 7.0); // same row, reordered
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 10.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 9.0);
        match presolve(&m) {
            Presolved::Reduced {
                model,
                rows_removed,
            } => {
                assert_eq!(model.num_constraints(), 2);
                assert_eq!(rows_removed, 2);
                let ge = model
                    .constraints()
                    .iter()
                    .find(|c| c.cmp() == Cmp::Ge)
                    .unwrap();
                assert_eq!(ge.rhs(), 7.0);
                let le = model
                    .constraints()
                    .iter()
                    .find(|c| c.cmp() == Cmp::Le)
                    .unwrap();
                assert_eq!(le.rhs(), 9.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn combines_duplicate_terms_and_drops_zeros() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (x, 2.0), (y, 0.0)]), Cmp::Ge, 6.0);
        let Presolved::Reduced { model, .. } = presolve(&m) else {
            panic!("feasible");
        };
        let c = &model.constraints()[0];
        assert_eq!(c.expr().terms(), &[(x, 3.0)]);
    }

    #[test]
    fn trivial_rows_resolved() {
        let mut m = Model::new();
        let _x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::new(), Cmp::Le, 5.0); // 0 <= 5: drop
        m.add_constraint(LinExpr::new(), Cmp::Ge, -1.0); // 0 >= -1: drop
        let Presolved::Reduced {
            model,
            rows_removed,
        } = presolve(&m)
        else {
            panic!("feasible");
        };
        assert_eq!(model.num_constraints(), 0);
        assert_eq!(rows_removed, 2);

        let mut m = Model::new();
        let _x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::new(), Cmp::Ge, 3.0); // 0 >= 3: infeasible
        assert_eq!(presolve(&m), Presolved::Infeasible);

        // A cancelling expression is an empty row too.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0), (x, -1.0)]), Cmp::Eq, 2.0);
        assert_eq!(presolve(&m), Presolved::Infeasible);
    }

    #[test]
    fn contradictory_equalities_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 2.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 3.0);
        assert_eq!(presolve(&m), Presolved::Infeasible);
    }

    #[test]
    fn presolved_model_has_same_optimum() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 2.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 3.0);
        m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 1.0); // dominated
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Le, 2.0);
        m.add_constraint(expr(&[(y, 1.0)]), Cmp::Le, 2.0); // duplicate
        let Presolved::Reduced {
            model,
            rows_removed,
        } = presolve(&m)
        else {
            panic!("feasible");
        };
        assert_eq!(rows_removed, 2);
        let s1 = RevisedSolver::new().solve(&m).unwrap();
        let s2 = RevisedSolver::new().solve(&model).unwrap();
        assert!((s1.objective() - s2.objective()).abs() < 1e-9);
    }
}
