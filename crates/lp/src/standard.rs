//! Conversion of a [`Model`] to computational *standard form*
//! `min c'x  s.t.  A x = b,  x >= 0`, shared by both solvers.
//!
//! Transformations applied:
//!
//! 1. Variable shift `x = x' + lb` so every variable has lower bound 0.
//! 2. One slack (`<=`) or surplus (`>=`) column per inequality row.
//! 3. Row sign normalization so `b >= 0` (recorded for dual recovery).

use crate::model::{Cmp, Model};

/// Dense standard-form image of a model.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    /// Number of rows (original constraints).
    pub m: usize,
    /// Number of *original* (shifted) variables.
    #[allow(dead_code)] // informative; exercised by tests
    pub n_orig: usize,
    /// Total columns: originals + slacks/surpluses.
    pub n: usize,
    /// Row-major `m x n` constraint matrix.
    pub a: Vec<f64>,
    /// Right-hand side, all entries `>= 0`.
    pub b: Vec<f64>,
    /// Costs over all columns (zero on slack columns).
    pub c: Vec<f64>,
    /// Lower-bound shift per original variable.
    pub shift: Vec<f64>,
    /// Constant added to the standard-form objective by the shift.
    #[allow(dead_code)] // informative; exercised by tests
    pub obj_offset: f64,
    /// Whether row `i` was multiplied by -1 during normalization.
    pub row_negated: Vec<bool>,
    /// Column index of the slack/surplus of row `i` (`usize::MAX` for
    /// equality rows).
    #[allow(dead_code)] // informative; exercised by tests
    pub slack_col: Vec<usize>,
}

impl StandardForm {
    /// Builds the standard form. The model must already be validated.
    pub fn build(model: &Model) -> StandardForm {
        let n_orig = model.num_vars();
        let m = model.num_constraints();
        let n_slack = model
            .constraints
            .iter()
            .filter(|c| c.cmp != Cmp::Eq)
            .count();
        let n = n_orig + n_slack;

        let mut a = vec![0.0; m * n];
        let mut b = vec![0.0; m];
        let mut c = vec![0.0; n];
        let mut row_negated = vec![false; m];
        let mut slack_col = vec![usize::MAX; m];

        c[..n_orig].copy_from_slice(&model.costs);
        let shift = model.lower.clone();
        let obj_offset: f64 = model
            .costs
            .iter()
            .zip(&shift)
            .map(|(cost, lb)| cost * lb)
            .sum();

        let mut next_slack = n_orig;
        for (i, con) in model.constraints.iter().enumerate() {
            let row = &mut a[i * n..(i + 1) * n];
            let mut rhs = con.rhs;
            for &(v, coef) in con.expr.terms() {
                row[v.index()] += coef;
                rhs -= coef * shift[v.index()];
            }
            match con.cmp {
                Cmp::Le => {
                    row[next_slack] = 1.0;
                    slack_col[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    row[next_slack] = -1.0;
                    slack_col[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Eq => {}
            }
            if rhs < 0.0 {
                for val in row.iter_mut() {
                    *val = -*val;
                }
                rhs = -rhs;
                row_negated[i] = true;
            }
            b[i] = rhs;
        }

        StandardForm {
            m,
            n_orig,
            n,
            a,
            b,
            c,
            shift,
            obj_offset,
            row_negated,
            slack_col,
        }
    }

    #[cfg(test)]
    pub fn at(&self, r: usize, col: usize) -> f64 {
        self.a[r * self.n + col]
    }

    /// Maps a standard-form solution vector back to original variable
    /// values (undoing the lower-bound shift).
    pub fn recover(&self, x_std: &[f64]) -> Vec<f64> {
        self.shift
            .iter()
            .enumerate()
            .map(|(j, lb)| x_std[j] + lb)
            .collect()
    }

    /// Recovers duals for the *original* rows from standard-form duals
    /// (undoing the row negation).
    pub fn recover_duals(&self, y_std: &[f64]) -> Vec<f64> {
        y_std
            .iter()
            .zip(&self.row_negated)
            .map(|(y, neg)| if *neg { -y } else { *y })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinExpr;

    #[test]
    fn slack_surplus_and_negation() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(2.0, 3.0); // shifted lower bound
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Le, 10.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 4.0);
        m.add_constraint(LinExpr::from_terms([(y, 1.0)]), Cmp::Eq, 1.0); // rhs - 2 < 0 -> negated
        let sf = StandardForm::build(&m);

        assert_eq!(sf.m, 3);
        assert_eq!(sf.n_orig, 2);
        assert_eq!(sf.n, 4); // two inequality rows

        // Row 0: x + y + s0 = 10 - 2
        assert_eq!(sf.at(0, sf.slack_col[0]), 1.0);
        assert!((sf.b[0] - 8.0).abs() < 1e-12);
        // Row 1: x - s1 = 4
        assert_eq!(sf.at(1, sf.slack_col[1]), -1.0);
        assert!((sf.b[1] - 4.0).abs() < 1e-12);
        // Row 2: y = 1 - 2 = -1, negated to -y = 1.
        assert!(sf.row_negated[2]);
        assert_eq!(sf.at(2, 1), -1.0);
        assert!((sf.b[2] - 1.0).abs() < 1e-12);

        // Objective offset = 3 * 2.
        assert!((sf.obj_offset - 6.0).abs() < 1e-12);

        // Recovery adds the shift back.
        let orig = sf.recover(&[5.0, 0.5, 0.0, 0.0]);
        assert_eq!(orig, vec![5.0, 2.5]);

        let duals = sf.recover_duals(&[1.0, 2.0, 3.0]);
        assert_eq!(duals, vec![1.0, 2.0, -3.0]);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(LinExpr::from_terms([(x, 1.0), (x, 2.0)]), Cmp::Eq, 6.0);
        let sf = StandardForm::build(&m);
        assert_eq!(sf.at(0, 0), 3.0);
    }
}
